//! Compiled-plan kernels vs. the streaming reference kernels.
//!
//! * `right/k1`, `right/k8`, `left/k1`, `left/k8`: core-level planned
//!   (`KernelPlan<f64>` and `KernelPlan<f32>`) vs. streaming, per
//!   encoding, on a ≥350k-nnz Census slice. The plan removes the
//!   per-symbol `div`/`mod`, the terminal branch, the rule enum
//!   dispatch, and (for `re_iv`/`re_ans`/`re_fse`) the packed/entropy
//!   decode, so the gap widens from `re_32` to `re_fse`; the f32 plan
//!   halves the descriptor heap on top. The f32/f64 ratio on planned
//!   `right/k8` is the AVX2 row-grouped walk's speedup.
//! * `decode`: raw sequence-stream expansion per encoding — the tANS
//!   table walk (`re_fse`) vs. the division-free rANS loop (`re_ans`).
//! * `sparse`: the sparse-input activity walk vs. the dense planned
//!   kernel over a density sweep (`nnz(x)/cols` of 0.1%, 1%, 10%, and
//!   fully dense), both precisions, inputs cycled round-robin so no
//!   column is cherry-picked. The dense/activity ratio at each density
//!   is the sparse speedup; the crossover pins
//!   `SPARSE_DENSITY_THRESHOLD`.
//! * `grammar/right`: the grammar-stage comparison — the same matrix
//!   compressed by classic RePair vs. MR-RePair (variable-arity rules,
//!   lowered to chained binary descriptors at plan compile), streaming
//!   and planned, per encoding. MR trades more symbols per rule for
//!   fewer rules; the planned gap shows what that buys at MVM time.
//! * `sharded/right`: the serve-layer view — `ShardedModel` at 1 and 4
//!   shards, streaming vs. f64-plan vs. f32-plan prewarm.
//!
//! Differential tests (`crates/core/tests/plan_vs_streaming.rs`,
//! `crates/core/tests/plan_f32_props.rs`) pin the kernel outputs; only
//! the clock should move here. Pass `--test` (CI's smoke mode) to
//! shrink the matrix and sample count so the bench doubles as a fast
//! end-to-end check.
//!
//! Set `GCM_BENCH_JSON=<path>` to skip criterion and instead run a
//! compact wall-clock pass over the same kernels, writing a JSON report
//! (the in-tree `BENCH_kernels.json` evidence is produced this way):
//!
//! ```text
//! GCM_BENCH_JSON=BENCH_kernels.json cargo bench --bench kernels
//! ```

use std::hint::black_box;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use gcm_core::{CompressedMatrix, Encoding, KernelPlan, SparseStrategy};
use gcm_datagen::Dataset;
use gcm_matrix::{CsrvMatrix, Workspace, SEPARATOR};
use gcm_repair::RePair;
use gcm_serve::{BuildOptions, ServeOptions, ShardedModel};

/// The same CSRV stream compressed by the MR-RePair stage.
fn mr_compress(csrv: &CsrvMatrix, enc: Encoding) -> CompressedMatrix {
    let mr = RePair::new().compress_mr(csrv.symbols(), csrv.terminal_limit(), Some(SEPARATOR));
    CompressedMatrix::from_mr_slp(csrv, &mr, enc)
}

/// CI smoke mode: `cargo bench --bench kernels -- --test`.
fn smoke() -> bool {
    std::env::args().any(|a| a == "--test")
}

fn input(len: usize) -> Vec<f64> {
    (0..len).map(|i| (i % 17) as f64 * 0.125 - 1.0).collect()
}

/// The density sweep of the `sparse` group: target `nnz(x)/cols`
/// ratios with display labels. Pinning data for
/// [`gcm_core::SPARSE_DENSITY_THRESHOLD`].
const SPARSE_DENSITIES: [(f64, &str); 6] = [
    (0.001, "d0.1pct"),
    (0.01, "d1pct"),
    (0.03, "d3pct"),
    (0.05, "d5pct"),
    (0.10, "d10pct"),
    (1.0, "dense"),
];

/// Deterministic sample of sparse input vectors at a given non-zero
/// count, each timed separately so no column is cherry-picked: eight
/// evenly-spaced one-hot vectors when `nnz == 1`, otherwise eight
/// index sets drawn from a fixed-seed LCG.
fn sparse_inputs(cols: usize, nnz: usize) -> Vec<Vec<(u32, f64)>> {
    let value = |j: u32| 1.5 + f64::from(j % 5) * 0.25;
    if nnz <= 1 {
        return (0..8)
            .map(|i| {
                let j = (i * cols / 8) as u32;
                vec![(j, value(j))]
            })
            .collect();
    }
    let mut state = 0x5eed_cafe_f00d_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    (0..8)
        .map(|_| {
            let mut idx: Vec<u32> = Vec::with_capacity(nnz);
            while idx.len() < nnz {
                let j = (next() % cols) as u32;
                if !idx.contains(&j) {
                    idx.push(j);
                }
            }
            idx.sort_unstable();
            idx.into_iter().map(|j| (j, value(j))).collect()
        })
        .collect()
}

/// One wall-clock measurement for the JSON report: warm up, then take
/// the best of the timed windows (each with an iteration floor and a
/// time floor) so scheduler noise cannot inflate a reading.
fn measure_with(min_iters: usize, min_time: Duration, windows: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up: faults pages, fills caches
    let mut best = f64::INFINITY;
    for _ in 0..windows {
        let start = Instant::now();
        let mut iters = 0usize;
        while iters < min_iters || start.elapsed() < min_time {
            f();
            iters += 1;
        }
        best = best.min(start.elapsed().as_secs_f64() / iters as f64);
    }
    best
}

fn measure(f: impl FnMut()) -> f64 {
    let (min_iters, min_time, windows) = if smoke() {
        (3, Duration::from_millis(10), 1)
    } else {
        (10, Duration::from_millis(250), 3)
    };
    measure_with(min_iters, min_time, windows, f)
}

/// Shortened window of the per-input sparse sweep (each input of a
/// density is timed separately, so the floors are scaled down to keep
/// the whole sweep tractable).
fn measure_short(f: impl FnMut()) -> f64 {
    let (min_iters, min_time, windows) = if smoke() {
        (2, Duration::from_millis(2), 1)
    } else {
        (5, Duration::from_millis(40), 2)
    };
    measure_with(min_iters, min_time, windows, f)
}

struct JsonEntry {
    group: String,
    variant: &'static str,
    encoding: &'static str,
    secs_per_iter: f64,
    elements: usize,
}

fn write_json(path: &str, rows: usize, cols: usize, nnz: usize, entries: &[JsonEntry]) {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"dataset\": \"census\",\n  \"rows\": {rows},\n  \"cols\": {cols},\n  \"nnz\": {nnz},\n"
    ));
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if smoke() { "smoke" } else { "full" }
    ));
    out.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let melems = e.elements as f64 / e.secs_per_iter / 1e6;
        out.push_str(&format!(
            "    {{\"group\": \"{}\", \"variant\": \"{}\", \"encoding\": \"{}\", \
             \"secs_per_iter\": {:.3e}, \"melems_per_s\": {:.1}}}{}\n",
            e.group,
            e.variant,
            e.encoding,
            e.secs_per_iter,
            melems,
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out).expect("write bench json");
    eprintln!("kernels bench: wrote {path}");
}

/// The `GCM_BENCH_JSON` pass: the same kernels as the criterion groups,
/// timed with a plain wall clock and written as one JSON document.
fn run_json_report(path: &str, dense: &gcm_matrix::DenseMatrix, csrv: &CsrvMatrix) {
    let (rows, cols, nnz) = (dense.rows(), dense.cols(), csrv.nnz());
    let mut entries = Vec::new();

    for enc in Encoding::ALL {
        let cm = CompressedMatrix::compress(csrv, enc);
        let plan = cm.plan();
        let plan32 = KernelPlan::<f32>::compile(&cm);
        let mut ws = Workspace::new();

        // Raw sequence expansion: the per-encoding decode loop alone.
        let secs = measure(|| cm.seq_store().for_each(|s| _ = black_box(s)));
        entries.push(JsonEntry {
            group: "decode".into(),
            variant: "seq_store",
            encoding: enc.name(),
            secs_per_iter: secs,
            elements: cm.sequence_len(),
        });

        for k in [1usize, 8] {
            let x_panel = input(cols * k);
            let mut y_panel = vec![0.0; rows * k];
            let y_input = input(rows * k);
            let mut x_out = vec![0.0; cols * k];
            let mut buf = vec![0.0; plan.scratch_len(k)];
            let mut buf32 = vec![0.0; plan32.scratch_len(k)];

            let secs = measure(|| {
                let mut w = ws.take(cm.num_rules() * k);
                cm.right_multiply_panel_with(k, &x_panel, &mut y_panel, &mut w)
                    .unwrap();
                ws.put(w);
            });
            entries.push(JsonEntry {
                group: format!("right/k{k}"),
                variant: "streaming",
                encoding: enc.name(),
                secs_per_iter: secs,
                elements: nnz * k,
            });
            let secs = measure(|| {
                plan.right_multiply_panel(k, &x_panel, &mut y_panel, &mut buf)
                    .unwrap()
            });
            entries.push(JsonEntry {
                group: format!("right/k{k}"),
                variant: "planned",
                encoding: enc.name(),
                secs_per_iter: secs,
                elements: nnz * k,
            });
            let secs = measure(|| {
                plan32
                    .right_multiply_panel(k, &x_panel, &mut y_panel, &mut buf32)
                    .unwrap()
            });
            entries.push(JsonEntry {
                group: format!("right/k{k}"),
                variant: "planned_f32",
                encoding: enc.name(),
                secs_per_iter: secs,
                elements: nnz * k,
            });

            let secs = measure(|| {
                plan.left_multiply_panel(k, &y_input, &mut x_out, &mut buf)
                    .unwrap()
            });
            entries.push(JsonEntry {
                group: format!("left/k{k}"),
                variant: "planned",
                encoding: enc.name(),
                secs_per_iter: secs,
                elements: nnz * k,
            });
            let secs = measure(|| {
                plan32
                    .left_multiply_panel(k, &y_input, &mut x_out, &mut buf32)
                    .unwrap()
            });
            entries.push(JsonEntry {
                group: format!("left/k{k}"),
                variant: "planned_f32",
                encoding: enc.name(),
                secs_per_iter: secs,
                elements: nnz * k,
            });
        }

        // Sparse-input density sweep: the activity walk (forced, so it
        // is measured above the cutover too) against the dense planned
        // kernel, both precisions. Like every other group, each timed
        // loop runs one fixed input; the entry reports the mean over
        // the input sample. `elements` stays the matrix nnz, so
        // melems/s reads as effective matrix throughput and the
        // sparse/dense ratio is the speedup at that density.
        let mut buf = vec![0.0; plan.scratch_len(1)];
        let mut buf32 = vec![0.0; plan32.scratch_len(1)];
        let mut y = vec![0.0; rows];
        for (density, label) in SPARSE_DENSITIES {
            let count = ((cols as f64 * density) as usize).clamp(1, cols);
            let inputs = sparse_inputs(cols, count);
            let dense_inputs: Vec<Vec<f64>> = inputs
                .iter()
                .map(|x_nnz| {
                    let mut x = vec![0.0; cols];
                    for &(j, v) in x_nnz {
                        x[j as usize] = v;
                    }
                    x
                })
                .collect();
            let mean = |per_input: Vec<f64>| per_input.iter().sum::<f64>() / per_input.len() as f64;
            let secs = mean(
                inputs
                    .iter()
                    .map(|x_nnz| {
                        measure_short(|| {
                            plan.right_multiply_sparse_with(
                                x_nnz,
                                &mut y,
                                &mut buf,
                                SparseStrategy::Activity,
                            )
                            .unwrap()
                        })
                    })
                    .collect(),
            );
            entries.push(JsonEntry {
                group: format!("sparse/{label}"),
                variant: "activity",
                encoding: enc.name(),
                secs_per_iter: secs,
                elements: nnz,
            });
            let secs = mean(
                dense_inputs
                    .iter()
                    .map(|x| measure_short(|| plan.right_multiply(x, &mut y, &mut buf).unwrap()))
                    .collect(),
            );
            entries.push(JsonEntry {
                group: format!("sparse/{label}"),
                variant: "dense",
                encoding: enc.name(),
                secs_per_iter: secs,
                elements: nnz,
            });
            let secs = mean(
                inputs
                    .iter()
                    .map(|x_nnz| {
                        measure_short(|| {
                            plan32
                                .right_multiply_sparse_with(
                                    x_nnz,
                                    &mut y,
                                    &mut buf32,
                                    SparseStrategy::Activity,
                                )
                                .unwrap()
                        })
                    })
                    .collect(),
            );
            entries.push(JsonEntry {
                group: format!("sparse/{label}"),
                variant: "activity_f32",
                encoding: enc.name(),
                secs_per_iter: secs,
                elements: nnz,
            });
            let secs = mean(
                dense_inputs
                    .iter()
                    .map(|x| {
                        measure_short(|| plan32.right_multiply(x, &mut y, &mut buf32).unwrap())
                    })
                    .collect(),
            );
            entries.push(JsonEntry {
                group: format!("sparse/{label}"),
                variant: "dense_f32",
                encoding: enc.name(),
                secs_per_iter: secs,
                elements: nnz,
            });
        }
    }

    // Grammar stages: RePair vs MR-RePair on the same stream, streaming
    // and planned right products per encoding.
    for enc in Encoding::ALL {
        let x = input(cols);
        let mut y = vec![0.0; rows];
        for (stage, cm) in [
            ("repair", CompressedMatrix::compress(csrv, enc)),
            ("mr", mr_compress(csrv, enc)),
        ] {
            let plan = cm.plan();
            let mut buf = vec![0.0; plan.scratch_len(1)];
            let mut ws = Workspace::new();
            let secs = measure(|| {
                let mut w = ws.take(cm.num_rules());
                cm.right_multiply_panel_with(1, &x, &mut y, &mut w).unwrap();
                ws.put(w);
            });
            entries.push(JsonEntry {
                group: "grammar/right".into(),
                variant: if stage == "mr" {
                    "mr_streaming"
                } else {
                    "repair_streaming"
                },
                encoding: enc.name(),
                secs_per_iter: secs,
                elements: nnz,
            });
            let secs = measure(|| plan.right_multiply(&x, &mut y, &mut buf).unwrap());
            entries.push(JsonEntry {
                group: "grammar/right".into(),
                variant: if stage == "mr" {
                    "mr_planned"
                } else {
                    "repair_planned"
                },
                encoding: enc.name(),
                secs_per_iter: secs,
                elements: nnz,
            });
        }
    }

    // Serve layer: shard parallelism × plan precision.
    let x = input(cols);
    let mut y = vec![0.0; rows];
    for shards in [1usize, 4] {
        let opts = BuildOptions {
            shards,
            encoding: Encoding::ReFse,
            ..BuildOptions::default()
        };
        for (variant, serve_opts) in [
            ("streaming", ServeOptions::default()),
            ("planned", ServeOptions::planned()),
            ("planned_f32", ServeOptions::planned_f32()),
        ] {
            let model = ShardedModel::from_dense(dense, &opts).expect("build");
            model.prewarm_with(1, &serve_opts);
            let secs = measure(|| model.right_multiply_panel(1, &x, &mut y).unwrap());
            entries.push(JsonEntry {
                group: format!("sharded/right/s{shards}"),
                variant,
                encoding: "re_fse",
                secs_per_iter: secs,
                elements: nnz,
            });
        }
    }

    write_json(path, rows, cols, nnz, &entries);
}

fn bench_kernels(c: &mut Criterion) {
    let rows = if smoke() { 400 } else { 13_000 };
    let dense = Dataset::Census.generate(rows, 42);
    let cols = dense.cols();
    let csrv = CsrvMatrix::from_dense(&dense).expect("csrv");
    let nnz = csrv.nnz();
    eprintln!("kernels bench: {rows} x {cols}, {nnz} nnz");

    if let Ok(path) = std::env::var("GCM_BENCH_JSON") {
        run_json_report(&path, &dense, &csrv);
        return;
    }

    for enc in Encoding::ALL {
        let cm = CompressedMatrix::compress(&csrv, enc);
        let plan = cm.plan();
        let plan32 = KernelPlan::<f32>::compile(&cm);
        let mut ws = Workspace::new();

        let mut group = c.benchmark_group("decode");
        group.throughput(Throughput::Elements(cm.sequence_len() as u64));
        group.bench_function(BenchmarkId::new("seq_store", enc.name()), |b| {
            b.iter(|| cm.seq_store().for_each(|s| _ = black_box(s)))
        });
        group.finish();

        for k in [1usize, 8] {
            let x_panel = input(cols * k);
            let mut y_panel = vec![0.0; rows * k];
            let y_input = input(rows * k);
            let mut x_out = vec![0.0; cols * k];
            let mut buf = vec![0.0; plan.scratch_len(k)];
            let mut buf32 = vec![0.0; plan32.scratch_len(k)];

            let mut group = c.benchmark_group(format!("right/k{k}"));
            group.throughput(Throughput::Elements((nnz * k) as u64));
            group.bench_function(BenchmarkId::new("streaming", enc.name()), |b| {
                b.iter(|| {
                    let mut w = ws.take(cm.num_rules() * k);
                    cm.right_multiply_panel_with(k, &x_panel, &mut y_panel, &mut w)
                        .unwrap();
                    ws.put(w);
                })
            });
            group.bench_function(BenchmarkId::new("planned", enc.name()), |b| {
                b.iter(|| {
                    plan.right_multiply_panel(k, &x_panel, &mut y_panel, &mut buf)
                        .unwrap()
                })
            });
            group.bench_function(BenchmarkId::new("planned_f32", enc.name()), |b| {
                b.iter(|| {
                    plan32
                        .right_multiply_panel(k, &x_panel, &mut y_panel, &mut buf32)
                        .unwrap()
                })
            });
            group.finish();

            let mut group = c.benchmark_group(format!("left/k{k}"));
            group.throughput(Throughput::Elements((nnz * k) as u64));
            group.bench_function(BenchmarkId::new("streaming", enc.name()), |b| {
                b.iter(|| {
                    let mut w = ws.take(cm.num_rules() * k);
                    let mut flags = ws.take(cm.num_rules());
                    cm.left_multiply_panel_with(k, &y_input, &mut x_out, &mut w, &mut flags)
                        .unwrap();
                    ws.put(flags);
                    ws.put(w);
                })
            });
            group.bench_function(BenchmarkId::new("planned", enc.name()), |b| {
                b.iter(|| {
                    plan.left_multiply_panel(k, &y_input, &mut x_out, &mut buf)
                        .unwrap()
                })
            });
            group.bench_function(BenchmarkId::new("planned_f32", enc.name()), |b| {
                b.iter(|| {
                    plan32
                        .left_multiply_panel(k, &y_input, &mut x_out, &mut buf32)
                        .unwrap()
                })
            });
            group.finish();
        }

        // Sparse-input density sweep (see the JSON pass for the
        // variant semantics).
        let mut buf = vec![0.0; plan.scratch_len(1)];
        let mut buf32 = vec![0.0; plan32.scratch_len(1)];
        let mut y = vec![0.0; rows];
        for (density, label) in SPARSE_DENSITIES {
            let count = ((cols as f64 * density) as usize).clamp(1, cols);
            let inputs = sparse_inputs(cols, count);
            let dense_inputs: Vec<Vec<f64>> = inputs
                .iter()
                .map(|x_nnz| {
                    let mut x = vec![0.0; cols];
                    for &(j, v) in x_nnz {
                        x[j as usize] = v;
                    }
                    x
                })
                .collect();
            let mut group = c.benchmark_group(format!("sparse/{label}"));
            group.throughput(Throughput::Elements(nnz as u64));
            let mut i = 0usize;
            group.bench_function(BenchmarkId::new("activity", enc.name()), |b| {
                b.iter(|| {
                    plan.right_multiply_sparse_with(
                        &inputs[i % inputs.len()],
                        &mut y,
                        &mut buf,
                        SparseStrategy::Activity,
                    )
                    .unwrap();
                    i += 1;
                })
            });
            let mut i = 0usize;
            group.bench_function(BenchmarkId::new("dense", enc.name()), |b| {
                b.iter(|| {
                    plan.right_multiply(&dense_inputs[i % dense_inputs.len()], &mut y, &mut buf)
                        .unwrap();
                    i += 1;
                })
            });
            let mut i = 0usize;
            group.bench_function(BenchmarkId::new("activity_f32", enc.name()), |b| {
                b.iter(|| {
                    plan32
                        .right_multiply_sparse_with(
                            &inputs[i % inputs.len()],
                            &mut y,
                            &mut buf32,
                            SparseStrategy::Activity,
                        )
                        .unwrap();
                    i += 1;
                })
            });
            let mut i = 0usize;
            group.bench_function(BenchmarkId::new("dense_f32", enc.name()), |b| {
                b.iter(|| {
                    plan32
                        .right_multiply(&dense_inputs[i % dense_inputs.len()], &mut y, &mut buf32)
                        .unwrap();
                    i += 1;
                })
            });
            group.finish();
        }
    }

    // Grammar stages: RePair vs MR-RePair on the same stream.
    for enc in Encoding::ALL {
        let x = input(cols);
        let mut y = vec![0.0; rows];
        let mut group = c.benchmark_group("grammar/right");
        group.throughput(Throughput::Elements(nnz as u64));
        for (stage, cm) in [
            ("repair", CompressedMatrix::compress(&csrv, enc)),
            ("mr", mr_compress(&csrv, enc)),
        ] {
            let plan = cm.plan();
            let mut buf = vec![0.0; plan.scratch_len(1)];
            let mut ws = Workspace::new();
            group.bench_function(
                BenchmarkId::new(format!("{stage}-streaming"), enc.name()),
                |b| {
                    b.iter(|| {
                        let mut w = ws.take(cm.num_rules());
                        cm.right_multiply_panel_with(1, &x, &mut y, &mut w).unwrap();
                        ws.put(w);
                    })
                },
            );
            group.bench_function(
                BenchmarkId::new(format!("{stage}-planned"), enc.name()),
                |b| b.iter(|| plan.right_multiply(&x, &mut y, &mut buf).unwrap()),
            );
        }
        group.finish();
    }

    // The serve-layer view: shard parallelism × plan dispatch.
    let x = input(cols);
    let mut y = vec![0.0; rows];
    let mut group = c.benchmark_group("sharded/right");
    group.throughput(Throughput::Elements(nnz as u64));
    for shards in [1usize, 4] {
        let opts = BuildOptions {
            shards,
            encoding: Encoding::ReFse,
            ..BuildOptions::default()
        };
        let streaming = ShardedModel::from_dense(&dense, &opts).expect("build");
        streaming.prewarm(1);
        group.bench_function(BenchmarkId::new("streaming", shards), |b| {
            b.iter(|| streaming.right_multiply_panel(1, &x, &mut y).unwrap())
        });
        let planned = ShardedModel::from_dense(&dense, &opts).expect("build");
        planned.prewarm_with(1, &ServeOptions::planned());
        group.bench_function(BenchmarkId::new("planned", shards), |b| {
            b.iter(|| planned.right_multiply_panel(1, &x, &mut y).unwrap())
        });
        let planned32 = ShardedModel::from_dense(&dense, &opts).expect("build");
        planned32.prewarm_with(1, &ServeOptions::planned_f32());
        group.bench_function(BenchmarkId::new("planned_f32", shards), |b| {
            b.iter(|| planned32.right_multiply_panel(1, &x, &mut y).unwrap())
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_kernels
}
criterion_main!(benches);
