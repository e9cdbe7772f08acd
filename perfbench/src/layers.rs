//! The traced run's layer sweep. Every layer is timed through its
//! crate's public calls on the workload's own input, so each workload
//! reports every per-layer metric; the README says on which workload
//! each layer lies on the path of the end-to-end numbers.

use std::hint::black_box;
use std::sync::atomic::Ordering;
use std::time::Duration;

use gcm_core::{CompressedMatrix, Encoding, SolverWorkspace};
use gcm_matrix::{Workspace, SEPARATOR};
use gcm_pipeline::{
    Backend, BuildArtifacts, BuildStats, BuiltShard, EncodingChoice, GrammarChoice, GrammarStage,
    Plan, ShardArtifact, ShardReorder,
};
use gcm_reorder::BlockReorderConfig;
use gcm_repair::RePair;
use gcm_serve::protocol::{decode_request, encode_multiply, status, Client, Direction};
use gcm_serve::{Model, ModelPlan, ServeOptions, ShardTable, ShardedModel};

use crate::build::{rebuild, Edited, Rebuild};
use crate::input::{bits_equal, seeded_vec, BuildTiming, Built, Input};
use crate::iterate::{rounds, Reference, Traced};
use crate::serve::{self, Rig, MODEL};
use crate::trace::{children_us, durations_us, median, p50_us, repeat, self_us, span};
use crate::{scratch_dir, Run};

/// Minimum time spent on each probe.
const PROBE: Duration = Duration::from_millis(150);
/// Protocol calls timed under one span (one call is too short to time).
const BATCH: usize = 64;

/// What the traced run measured before the sweep.
pub struct State {
    pub builds: Vec<BuildTiming>,
    pub rebuild: Option<Rebuild>,
}

pub fn sweep(input: &Input, built: &Built, state: &mut State, run: &mut Run) -> Result<(), String> {
    let shard0 = replay(input, &built.stats, run);
    let model = container(&built.bytes, &shard0, run)?;
    kernels(&model, input.seed, run)?;
    solver(&model, input, run)?;
    drop(model);
    serving(&built.bytes, input.seed, run)?;
    if state.rebuild.is_none() {
        let r = rebuild(
            &Edited::new(input)?,
            &input.config,
            &built.bytes,
            input.seed,
        );
        run.check(r.ok, "incremental rebuild of a one-shard edit");
        state.rebuild = Some(r);
    }
    let r = state.rebuild.expect("set above");
    run.metric("incremental.rebuilt", r.rebuilt as f64, "count");
    run.metric("incremental.spliced", r.spliced as f64, "count");
    run.metric("incremental.wall_ms", p50_us("incremental") / 1e3, "ms");
    reconcile(&state.builds, run);
    Ok(())
}

fn sum_ms(name: &str) -> f64 {
    durations_us(name, None).iter().sum::<f64>() / 1e3
}

fn decode_span(enc: Encoding) -> &'static str {
    match enc {
        Encoding::Re32 => "container.decode.re_32",
        Encoding::ReIv => "container.decode.re_iv",
        Encoding::ReAns => "container.decode.re_ans",
        Encoding::ReFse => "container.decode.re_fse",
    }
}

/// Wraps one compressed shard as a one-shard container.
fn one_shard_container(m: CompressedMatrix) -> Vec<u8> {
    let cols = m.cols();
    ShardedModel::from_artifacts(BuildArtifacts {
        backend: Backend::Compressed,
        cols,
        shards: vec![BuiltShard {
            artifact: ShardArtifact::Compressed(m),
            col_order: None,
            reorder: None,
            grammar: None,
            fingerprint: None,
        }],
        stats: BuildStats::default(),
    })
    .to_bytes()
}

/// Replays the build stages per shard, sequentially, on the shard inputs
/// `Plan::new` produces: reorder → RePair → encode (every candidate
/// encoding, and under `GrammarChoice::Auto` the MR-RePair grammar's
/// candidates too). MR-RePair is also run as a probe when the
/// configuration does not run it. Each shard's kept size is checked
/// against the pipeline's `BuildStats`. Returns shard 0's RePair
/// candidates, one container per encoding.
fn replay(input: &Input, stats: &BuildStats, run: &mut Run) -> Vec<(Encoding, Vec<u8>)> {
    let config = &input.config;
    let plan = {
        let _s = span("pipeline.plan", 0, 0);
        Plan::new(&input.csrv, config)
    };
    let auto = config.grammar == Some(GrammarChoice::Auto);
    let encodings = match config.encoding {
        EncodingChoice::Auto => Encoding::ALL.to_vec(),
        EncodingChoice::Fixed(e) => vec![e],
    };
    let smallest = |c: &[CompressedMatrix]| c.iter().map(CompressedMatrix::stored_bytes).min();
    let (mut rules, mut mr_rules) = (0, 0);
    let mut shard0 = Vec::new();
    for sp in &plan.shards {
        let s = sp.index as u64;
        let reordered = {
            let _g = span("reorder", 0, s);
            match &sp.reorder {
                ShardReorder::None => None,
                ShardReorder::Apply(order, _) => Some(sp.csrv.with_column_order(order)),
                ShardReorder::Compute(algo) => {
                    Some(BlockReorderConfig::new(*algo).apply(&sp.csrv).0)
                }
            }
        };
        let csrv = reordered.as_ref().unwrap_or(&sp.csrv);
        let slp = {
            let _g = span("repair", 0, s);
            RePair::new().compress(csrv.symbols(), csrv.terminal_limit(), Some(SEPARATOR))
        };
        let mr = {
            let _g = span("repair.mr", 0, s);
            RePair::new().compress_mr(csrv.symbols(), csrv.terminal_limit(), Some(SEPARATOR))
        };
        rules += slp.num_rules();
        mr_rules += mr.num_rules();
        let re: Vec<CompressedMatrix> = encodings
            .iter()
            .map(|&e| {
                let _g = span("encode", 0, s);
                CompressedMatrix::from_slp(csrv, &slp, e)
            })
            .collect();
        let mut kept = smallest(&re);
        if auto {
            let mrc: Vec<CompressedMatrix> = encodings
                .iter()
                .map(|&e| {
                    let _g = span("encode", 0, s);
                    CompressedMatrix::from_mr_slp(csrv, &mr, e)
                })
                .collect();
            kept = kept.min(smallest(&mrc));
        }
        let want = stats.shards.get(sp.index).map(|st| st.encoded_bytes);
        run.check(
            kept == want,
            "replayed shard size equals the pipeline's BuildStats",
        );
        if sp.index == 0 {
            shard0 = encodings
                .iter()
                .zip(re)
                .map(|(&e, m)| (e, one_shard_container(m)))
                .collect();
        }
    }
    // What the build kept, read from its per-shard stats: the share of
    // shards that kept MR-RePair, and the distinct encodings kept across
    // shards as a share of the candidates.
    let shards = stats.shards.len().max(1) as f64;
    let mr_kept = stats
        .shards
        .iter()
        .filter(|st| st.grammar == Some(GrammarStage::MrRePair))
        .count();
    let mut kept_encodings: Vec<Encoding> = Vec::new();
    for e in stats.shards.iter().filter_map(|st| st.encoding) {
        if !kept_encodings.contains(&e) {
            kept_encodings.push(e);
        }
    }
    let (reorder, repair, mr, encode) = (
        sum_ms("reorder"),
        sum_ms("repair"),
        sum_ms("repair.mr"),
        sum_ms("encode"),
    );
    let (r, g, e) = stats.stage_cpu_totals();
    let stats_busy_ms = (r + g + e).as_secs_f64() * 1e3;
    let replay_busy_ms = reorder + repair + if auto { mr } else { 0.0 } + encode;
    run.metric("pipeline.plan_ms", p50_us("pipeline.plan") / 1e3, "ms");
    run.metric("reorder.busy_ms", reorder, "ms");
    run.metric("repair.busy_ms", repair, "ms");
    run.metric("repair.mr_busy_ms", mr, "ms");
    run.metric("repair.rules", rules as f64, "count");
    run.metric("repair.mr_rules", mr_rules as f64, "count");
    run.metric("repair.kept_ratio", mr_kept as f64 / shards, "ratio");
    run.metric("encode.busy_ms", encode, "ms");
    run.metric(
        "encode.kept_ratio",
        kept_encodings.len() as f64 / encodings.len() as f64,
        "ratio",
    );
    run.line(format!(
        "kept     MR-RePair on {mr_kept} of {} shards; encodings {kept_encodings:?} of {} candidates",
        stats.shards.len(),
        encodings.len()
    ));
    run.metric(
        "build.replay_vs_stats",
        replay_busy_ms / stats_busy_ms,
        "ratio",
    );
    run.line(format!(
        "replay   stage busy {replay_busy_ms:.1} ms replayed sequentially vs {stats_busy_ms:.1} ms in BuildStats"
    ));
    shard0
}

/// Container layer: parse, per-shard decode, per-encoding decode, load,
/// prewarm and write. Returns the loaded, prewarmed model.
fn container(
    bytes: &[u8],
    shard0: &[(Encoding, Vec<u8>)],
    run: &mut Run,
) -> Result<ShardedModel, String> {
    let table = ShardTable::parse(bytes).map_err(|e| e.to_string())?;
    repeat(5, PROBE, || {
        let _s = span("container.parse", 0, 0);
        black_box(ShardTable::parse(bytes).is_ok());
    });
    let mut decode_ms = 0.0;
    for i in 0..table.shard_ranges.len() {
        run.check(table.decode_shard(bytes, i).is_ok(), "decode_shard");
        repeat(3, PROBE, || {
            let _s = span("container.decode", 0, i as u64);
            black_box(table.decode_shard(bytes, i).is_ok());
        });
        decode_ms += median(&durations_us("container.decode", Some(i as u64))) / 1e3;
    }
    for enc in Encoding::ALL {
        let name = decode_span(enc);
        if let Some((_, b)) = shard0.iter().find(|(e, _)| *e == enc) {
            let t = ShardTable::parse(b).map_err(|e| e.to_string())?;
            run.check(t.decode_shard(b, 0).is_ok(), "decode_shard per encoding");
            repeat(3, PROBE, || {
                let _s = span(name, 0, 0);
                black_box(t.decode_shard(b, 0).is_ok());
            });
        }
        run.metric(
            format!("container.decode_ms.{}", enc.name()),
            p50_us(name) / 1e3,
            "ms",
        );
    }
    let mut model = None;
    repeat(3, PROBE, || {
        let loaded = {
            let _s = span("container.load", 0, 0);
            ShardedModel::from_bytes(bytes)
        };
        if let Ok(m) = loaded {
            let _s = span("sharded.prewarm", 0, 0);
            m.prewarm_with(8, &ServeOptions::planned());
            model = Some(m);
        }
    });
    let model = model.ok_or("the container does not load")?;
    repeat(3, PROBE, || {
        let _s = span("container.write", 0, 0);
        black_box(model.to_bytes_with_plans().len());
    });
    run.metric("container.parse_ms", p50_us("container.parse") / 1e3, "ms");
    run.metric("container.decode_ms", decode_ms, "ms");
    run.metric("container.load_ms", p50_us("container.load") / 1e3, "ms");
    run.metric("sharded.prewarm_ms", p50_us("sharded.prewarm") / 1e3, "ms");
    run.metric("container.write_ms", p50_us("container.write") / 1e3, "ms");
    run.metric("container.plan_bytes", table.plan_bytes() as f64, "bytes");
    Ok(model)
}

/// Sharded and per-shard kernels: planned, streaming and fan-out.
fn kernels(m: &ShardedModel, seed: u64, run: &mut Run) -> Result<(), String> {
    let (rows, cols) = (m.rows(), m.cols());
    let err = |e: gcm_matrix::MatrixError| e.to_string();
    let x = seeded_vec(cols, seed ^ 11);
    let yv = seeded_vec(rows, seed ^ 12);
    let x8 = seeded_vec(cols * 8, seed ^ 13);
    // The request shapes of the serve_census mix.
    let x_nnz = serve::one_hot(&x, (seed % cols as u64) as usize);
    let range = 0..rows.min(serve::ROWS_SPAN);
    let mut y = vec![0.0; rows];
    let mut xo = vec![0.0; cols];
    let mut y8 = vec![0.0; rows * 8];
    let mut yr = vec![0.0; range.len()];
    m.right_multiply_panel(1, &x, &mut y).map_err(err)?;
    let y_full = y.clone();
    repeat(5, PROBE, || {
        let _s = span("sharded.right_k1", 0, 0);
        black_box(m.right_multiply_panel(1, &x, &mut y).is_ok());
    });
    repeat(5, PROBE, || {
        let _s = span("sharded.left_k1", 0, 0);
        black_box(m.left_multiply_panel(1, &yv, &mut xo).is_ok());
    });
    repeat(5, PROBE, || {
        let _s = span("sharded.right_k8", 0, 0);
        black_box(m.right_multiply_panel(8, &x8, &mut y8).is_ok());
    });
    repeat(5, PROBE, || {
        let _s = span("sharded.sparse", 0, 0);
        black_box(m.right_multiply_sparse(&x_nnz, &mut y).is_ok());
    });
    repeat(5, PROBE, || {
        let _s = span("sharded.rows", 0, 0);
        black_box(m.right_multiply_rows(range.clone(), 1, &x, &mut yr).is_ok());
    });

    let mut offset = 0;
    let mut compile_ms = 0.0;
    let mut per_shard = Vec::new();
    for s in 0..m.num_shards() {
        let shard = m.shard_model(s);
        let id = s as u64;
        let mut plan = None;
        repeat(2, Duration::ZERO, || {
            let _g = span("core.plan_compile", 0, id);
            plan = ModelPlan::compile(shard);
        });
        compile_ms += median(&durations_us("core.plan_compile", Some(id))) / 1e3;
        let plan = plan.ok_or("shard backend has no plan")?;
        let mut ws = Workspace::new();
        let (count, len) = shard.planned_workspace_budget(1, &plan);
        ws.warm(count, len);
        let r = shard.rows();
        let mut ys = vec![0.0; r];
        let mut xs = vec![0.0; cols];
        shard
            .right_multiply_panel_planned(&plan, 1, &x, &mut ys, &mut ws)
            .map_err(err)?;
        run.check(
            bits_equal(&ys, &y_full[offset..offset + r]),
            "per-shard planned product equals the sharded product",
        );
        repeat(5, PROBE, || {
            let _g = span("core.plan_right", 0, id);
            black_box(
                shard
                    .right_multiply_panel_planned(&plan, 1, &x, &mut ys, &mut ws)
                    .is_ok(),
            );
        });
        let ys_in = &yv[offset..offset + r];
        repeat(5, PROBE, || {
            let _g = span("core.plan_left", 0, id);
            black_box(
                shard
                    .left_multiply_panel_planned(&plan, 1, ys_in, &mut xs, &mut ws)
                    .is_ok(),
            );
        });
        if let Model::Compressed(cm) = shard {
            let mut w = vec![0.0; cm.num_rules()];
            repeat(5, PROBE, || {
                let _g = span("core.stream_right", 0, id);
                black_box(cm.right_multiply_with(&x, &mut ys, &mut w).is_ok());
            });
        }
        per_shard.push((
            median(&durations_us("core.plan_right", Some(id))),
            median(&durations_us("core.plan_left", Some(id))),
            median(&durations_us("core.stream_right", Some(id))),
        ));
        offset += r;
    }
    let slowest = (0..per_shard.len())
        .max_by(|&a, &b| per_shard[a].0.total_cmp(&per_shard[b].0))
        .ok_or("model has no shards")?;
    let (plan_right, _, stream_right) = per_shard[slowest];
    let fastest = per_shard.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
    let plan_left = per_shard.iter().map(|p| p.1).fold(0.0, f64::max);
    let right_k1 = p50_us("sharded.right_k1");
    let heap = m.plan_heap_bytes() as f64;
    let bytes = heap + 8.0 * (rows + cols) as f64;
    for name in ["right_k1", "left_k1", "right_k8", "sparse", "rows"] {
        run.metric(
            format!("sharded.{name}_us"),
            p50_us(&format!("sharded.{name}")),
            "us",
        );
    }
    run.metric("sharded.fanout_us", right_k1 - plan_right, "us");
    run.metric("sharded.skew", plan_right / fastest, "ratio");
    run.metric("core.plan_right_us", plan_right, "us");
    run.metric("core.plan_left_us", plan_left, "us");
    run.metric("core.stream_right_us", stream_right, "us");
    run.metric("core.plan_vs_stream", stream_right / plan_right, "ratio");
    run.metric("core.plan_heap_mb", heap / 1e6, "MB");
    run.metric("core.right_bytes_computed", bytes, "bytes");
    run.metric("core.right_gbps_computed", bytes / (right_k1 * 1e3), "GB/s");
    run.metric("core.plan_compile_ms", compile_ms, "ms");
    Ok(())
}

/// Solver rounds on the model and the same rounds on CSRV.
fn solver(m: &ShardedModel, input: &Input, run: &mut Run) -> Result<(), String> {
    let reference = Reference::new(&input.csrv, input.seed)?;
    let mut ws = SolverWorkspace::new();
    ws.prepare(m).map_err(|e| e.to_string())?;
    let tally = rounds(
        &Traced::new(m),
        &mut ws,
        &reference,
        2 * PROBE,
        "solver.round",
    );
    run.absorb(&tally);
    let csrv = &input.csrv;
    let x = seeded_vec(csrv.cols(), input.seed ^ 21);
    let yv = seeded_vec(csrv.rows(), input.seed ^ 22);
    let mut y = vec![0.0; csrv.rows()];
    let mut xo = vec![0.0; csrv.cols()];
    repeat(3, PROBE, || {
        let _s = span("matrix.csrv_right", 0, 0);
        black_box(csrv.right_multiply(&x, &mut y).is_ok());
    });
    repeat(3, PROBE, || {
        let _s = span("matrix.csrv_left", 0, 0);
        black_box(csrv.left_multiply(&yv, &mut xo).is_ok());
    });
    let mut ws = SolverWorkspace::new();
    ws.prepare(csrv).map_err(|e| e.to_string())?;
    rounds(
        &Traced::new(csrv),
        &mut ws,
        &reference,
        2 * PROBE,
        "matrix.csrv_round",
    );
    let round = p50_us("solver.round");
    let csrv_round = p50_us("matrix.csrv_round");
    run.metric("solver.round_us", round, "us");
    run.metric("solver.self_us", median(&self_us("solver.round")), "us");
    run.metric(
        "solver.round_right_us",
        median(&children_us("round.right", "solver.round")),
        "us",
    );
    run.metric(
        "solver.round_left_us",
        median(&children_us("round.left", "solver.round")),
        "us",
    );
    run.metric("matrix.csrv_right_us", p50_us("matrix.csrv_right"), "us");
    run.metric("matrix.csrv_left_us", p50_us("matrix.csrv_left"), "us");
    run.metric("matrix.csrv_round_us", csrv_round, "us");
    run.metric("iter_vs_csrv", csrv_round / round, "ratio");
    Ok(())
}

/// Serving layers: TCP ping, protocol encode/decode, the in-process
/// engine with a single caller, a c=1 client, and a short two-client
/// burst for the batching counters.
fn serving(bytes: &[u8], seed: u64, run: &mut Run) -> Result<(), String> {
    let store = scratch_dir("sweep")?;
    serve::stock(&store, bytes)?;
    let rig = Rig::start(&store)?;
    let result = serving_on(&rig, seed, run);
    rig.stop();
    let _ = std::fs::remove_dir_all(&store);
    result
}

fn serving_on(rig: &Rig, seed: u64, run: &mut Run) -> Result<(), String> {
    let model = &rig.model;
    let mut client = Client::connect(rig.addr).map_err(|e| e.to_string())?;
    let x = seeded_vec(model.cols(), seed ^ 31);
    let mut want = vec![0.0; model.rows()];
    model
        .right_multiply_panel(1, &x, &mut want)
        .map_err(|e| e.to_string())?;

    let mut ok = true;
    repeat(50, PROBE, || {
        let _s = span("tcp.ping", 0, 0);
        ok &= client.ping().is_ok();
    });
    run.check(ok, "ping");

    let mut frame = Vec::new();
    repeat(20, PROBE, || {
        let _s = span("protocol.encode", 0, 0);
        for _ in 0..BATCH {
            encode_multiply(&mut frame, MODEL, Direction::Right, 1, black_box(&x));
        }
    });
    repeat(20, PROBE, || {
        let _s = span("protocol.decode", 0, 0);
        for _ in 0..BATCH {
            black_box(decode_request(black_box(&frame[4..])).is_ok());
        }
    });

    let mut out = Vec::new();
    let answer_ok = |out: &[u8]| {
        out.get(4) == Some(&status::OK)
            && out[5..].len() == want.len() * 8
            && out[5..]
                .chunks_exact(8)
                .zip(&want)
                .all(|(c, w)| c == w.to_le_bytes())
    };
    rig.engine.handle_frame(&frame[4..], &mut out);
    run.check(answer_ok(&out), "engine answer equals the direct call");
    repeat(20, PROBE, || {
        let _s = span("engine.frame", 0, 0);
        rig.engine.handle_frame(&frame[4..], &mut out);
    });
    run.check(answer_ok(&out), "engine answer equals the direct call");

    let mut y = Vec::new();
    let mut ok = true;
    repeat(20, PROBE, || {
        let _s = span("serve.c1", 0, 0);
        ok &= client
            .multiply(MODEL, Direction::Right, 1, &x, &mut y)
            .is_ok();
        ok &= bits_equal(&y, &want);
    });
    run.check(ok, "c=1 answers equal the direct call");
    drop(client);

    let mixes = serve::mixes(model, seed)?;
    run.absorb(&serve::closed_loop(rig.addr, &mixes, 4 * PROBE)?);
    let metrics = rig
        .engine
        .metrics()
        .get(MODEL)
        .ok_or("engine has no metrics for the model")?;

    let frame_us = p50_us("engine.frame");
    run.metric("tcp.ping_p50_us", p50_us("tcp.ping"), "us");
    run.metric(
        "protocol.encode_ns",
        p50_us("protocol.encode") * 1e3 / BATCH as f64,
        "ns",
    );
    run.metric(
        "protocol.decode_ns",
        p50_us("protocol.decode") * 1e3 / BATCH as f64,
        "ns",
    );
    run.metric("engine.frame_p50_us", frame_us, "us");
    run.metric(
        "engine.queue_wait_us",
        frame_us - p50_us("sharded.right_k1"),
        "us",
    );
    run.metric("engine.mean_batch_width", metrics.mean_width(), "count");
    run.metric(
        "engine.overloaded",
        metrics.overloaded.load(Ordering::Relaxed) as f64,
        "count",
    );
    run.metric("serve.c1_p50_us", p50_us("serve.c1"), "us");
    Ok(())
}

/// The reconciliation table: each end-to-end figure against the sum of
/// the layers on its blocking path; each gap is its own metric.
fn reconcile(builds: &[BuildTiming], run: &mut Run) {
    let (c1, ping, frame) = (
        p50_us("serve.c1"),
        p50_us("tcp.ping"),
        p50_us("engine.frame"),
    );
    let serve_gap = c1 - ping - frame;
    let (rk1, lk1) = (p50_us("sharded.right_k1"), p50_us("sharded.left_k1"));
    let round = p50_us("solver.round");
    let solver_self = median(&self_us("solver.round"));
    let iterate_gap = round - rk1 - lk1 - solver_self;
    let ms =
        |f: fn(&BuildTiming) -> f64| median(&builds.iter().map(|b| f(b) * 1e3).collect::<Vec<_>>());
    let build_ms = ms(|b| b.wall_s);
    let (plan, stages, plans, write) = (
        ms(|b| b.plan_s),
        ms(|b| b.stages_s),
        ms(|b| b.plans_s),
        ms(|b| b.write_s),
    );
    let build_gap = ms(|b| b.wall_s - b.plan_s - b.stages_s - b.plans_s - b.write_s);
    let workers = rayon::current_num_threads() as f64;
    let par_eff = median(
        &builds
            .iter()
            .map(|b| b.busy_s / (b.stages_s * workers))
            .collect::<Vec<_>>(),
    );
    run.metric("pipeline.wall_ms", stages, "ms");
    run.metric("pipeline.par_eff", par_eff, "ratio");
    run.metric("build.build_ms", build_ms, "ms");
    run.metric("serve.gap_us", serve_gap, "us");
    run.metric("iterate.gap_us", iterate_gap, "us");
    run.metric("build.gap_ms", build_gap, "ms");
    run.line("reconciliation (medians; gap = end-to-end minus the layers on its path)".into());
    run.line(format!(
        "  serve    c=1 round trip {c1:.1} us = tcp.ping {ping:.1} + engine.frame {frame:.1} + gap {serve_gap:.1}"
    ));
    run.line(format!(
        "           engine.frame {frame:.1} us = sharded.right_k1 {rk1:.1} + queue wait {:.1}",
        frame - rk1
    ));
    run.line(format!(
        "  iterate  round {round:.1} us = sharded.right_k1 {rk1:.1} + sharded.left_k1 {lk1:.1} + solver.self {solver_self:.1} + gap {iterate_gap:.1}"
    ));
    run.line(format!(
        "           in the round: right {:.1} + left {:.1} us; the gap is the products running slower there than in a loop of their own",
        median(&children_us("round.right", "solver.round")),
        median(&children_us("round.left", "solver.round"))
    ));
    run.line(format!(
        "  build    build {build_ms:.1} ms = pipeline.plan {plan:.2} + stages wall {stages:.1} + plan compile {plans:.1} + container.write {write:.1} + gap {build_gap:.2}  ({} builds, par_eff {par_eff:.2} over {workers} workers)",
        builds.len()
    ));
}
