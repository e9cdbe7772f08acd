//! The repository's benchmark: one command, three workloads, every
//! end-to-end metric by name with its unit, correctness checked on every
//! output. `--trace 1` runs the traced layer sweep instead and prints the
//! per-layer metrics, the reconciliation table and the tracing overhead.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_census --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! A failed correctness check makes the exit code 1. See README.md.

mod build;
mod input;
mod iterate;
mod layers;
mod serve;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use gcm_bench::alloc;
use gcm_matrix::CsrvMatrix;
use gcm_pipeline::Pipeline;
use gcm_serve::ShardedModel;

use input::{build_container, matches_dense, Input, Workload};
use trace::{median, quantile};

#[global_allocator]
static ALLOC: gcm_bench::TrackingAlloc = gcm_bench::TrackingAlloc::new();

/// Where run-time files go, relative to the checkout root.
const OUT_DIR: &str = "perfbench/out";
/// Warm-up before every timed loop.
const WARMUP: Duration = Duration::from_millis(500);

/// Outcomes of a loop of operations.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Latency in ms of every operation that passed its check.
    pub ok_ms: Vec<f64>,
    /// When each of those operations ended, in seconds since the loop began.
    pub ok_at_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub elapsed_s: f64,
}

impl Tally {
    pub fn record(&mut self, ok: bool, ms: f64, at_s: f64) {
        self.attempted += 1;
        if ok {
            self.ok_ms.push(ms);
            self.ok_at_s.push(at_s);
        } else {
            self.failed += 1;
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.ok_ms.extend(other.ok_ms);
        self.ok_at_s.extend(other.ok_at_s);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// The passed operations' latencies grouped by the whole one-second
    /// window of the loop they ended in.
    fn windows(&self) -> Vec<Vec<f64>> {
        let mut windows = vec![Vec::new(); (self.elapsed_s as usize).max(1)];
        for (&ms, &t) in self.ok_ms.iter().zip(&self.ok_at_s) {
            if let Some(w) = windows.get_mut(t as usize) {
                w.push(ms);
            }
        }
        windows
    }

    /// Median over one-second windows of the operations that passed in
    /// each: a throughput that a short burst of interference from other
    /// tenants of the host moves less than it moves the mean.
    pub fn windowed_rate(&self) -> f64 {
        median(
            &self
                .windows()
                .iter()
                .map(|w| w.len() as f64)
                .collect::<Vec<_>>(),
        )
    }

    /// Median over one-second windows of each window's `q` quantile of
    /// latency (windows with fewer than 20 operations are skipped; with
    /// none left, the quantile over every operation).
    pub fn windowed_quantile(&self, q: f64) -> f64 {
        let per_window: Vec<f64> = self
            .windows()
            .iter()
            .filter(|w| w.len() >= 20)
            .map(|w| quantile(w, q))
            .collect();
        if per_window.is_empty() {
            quantile(&self.ok_ms, q)
        } else {
            median(&per_window)
        }
    }
}

/// Everything one run reports.
#[derive(Default)]
pub struct Run {
    metrics: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    lines: Vec<String>,
}

impl Run {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what.to_string());
        }
    }

    pub fn absorb(&mut self, t: &Tally) {
        self.attempted += t.attempted;
        self.failed += t.failed;
        if t.failed > 0 {
            self.failures
                .push(format!("{} of {} operations", t.failed, t.attempted));
        }
    }

    pub fn line(&mut self, line: String) {
        self.lines.push(line);
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A fresh directory under [`OUT_DIR`] for this process.
pub fn scratch_dir(tag: &str) -> Result<PathBuf, String> {
    let dir = PathBuf::from(OUT_DIR).join(format!("{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!(
            "unknown workload {workload:?} (one of {})",
            names.join(", ")
        ))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse::<f64>()
            .ok()
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be a positive number")?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
    })
}

/// Host facts recorded with every result.
struct Host {
    l2: Option<usize>,
    l3: Option<usize>,
}

/// Size in bytes of the level-`level` data or unified cache of cpu0.
fn cache_bytes(level: &str) -> Option<usize> {
    (0..8).find_map(|i| {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        if read("level")?.trim() != level || read("type")?.trim() == "Instruction" {
            return None;
        }
        let size = read("size")?;
        let size = size.trim();
        let (num, mult) = match size.strip_suffix('K') {
            Some(n) => (n, 1 << 10),
            None => match size.strip_suffix('M') {
                Some(n) => (n, 1 << 20),
                None => (size, 1),
            },
        };
        num.parse::<usize>().ok().map(|n| n * mult)
    })
}

/// Output of a short command, or `fallback` when it cannot run.
fn command_line(program: &str, args: &[&str], fallback: &str) -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    Command::new(program)
        .args(args)
        // Never report the commit of a repository around the checkout.
        .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| fallback.to_string())
}

fn host_block() -> (Host, String) {
    let host = Host {
        l2: cache_bytes("2"),
        l3: cache_bytes("3"),
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    #[cfg(target_arch = "x86_64")]
    let simd = format!(
        "avx2={} fma={} avx512f={}",
        std::is_x86_feature_detected!("avx2"),
        std::is_x86_feature_detected!("fma"),
        std::is_x86_feature_detected!("avx512f")
    );
    #[cfg(not(target_arch = "x86_64"))]
    let simd = "avx2=false fma=false avx512f=false (not x86_64)".to_string();
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let text = format!(
        "host: nproc={nproc} {simd} L2={} L3={} commit={} rustc=\"{}\" pool_threads={}",
        mib(host.l2),
        mib(host.l3),
        command_line("git", &["rev-parse", "--short=12", "HEAD"], "unknown"),
        command_line(&rustc, &["--version"], "unknown"),
        rayon::current_num_threads()
    );
    (host, text)
}

fn mib(bytes: Option<usize>) -> String {
    bytes.map_or("unknown".into(), |b| {
        format!("{:.1}MiB", b as f64 / (1 << 20) as f64)
    })
}

/// Sizes of the workload's input, each next to the L2 and L3 sizes.
fn input_block(
    input: &Input,
    host: &Host,
    container: usize,
    stored: usize,
    plan_heap: usize,
) -> String {
    let vs = |bytes: usize| -> String {
        let ratio =
            |c: Option<usize>| c.map_or("?".into(), |c| format!("{:.2}", bytes as f64 / c as f64));
        format!("{bytes} B = {}x L2, {}x L3", ratio(host.l2), ratio(host.l3))
    };
    let regime = match (host.l2, host.l3) {
        (_, Some(l3)) if plan_heap > l3 => "plan heap is past the last-level cache",
        (Some(l2), _) if plan_heap > l2 => "plan heap is past L2 but fits in the last-level cache",
        (Some(_), _) => "plan heap fits in L2",
        _ => "cache sizes unknown",
    };
    format!(
        "input: {} seed={} rows={} cols={} nnz={}\n  dense   {}\n  container {}\n  stored  {}\n  plan heap {}\n  regime: {regime}",
        input.workload.name(),
        input.seed,
        input.dense.rows(),
        input.dense.cols(),
        input.csrv.nnz(),
        vs(input.dense_bytes()),
        vs(container),
        vs(stored),
        vs(plan_heap),
    )
}

/// What an untimed workload run hands back for the end-to-end metrics.
struct E2e {
    setups_s: Vec<f64>,
    ops: Tally,
    peak_bytes: usize,
    container_bytes: usize,
    stored_bytes: usize,
    plan_heap_bytes: usize,
    /// `ops_per_s` where it is not the windowed rate of `ops`.
    rate: Option<f64>,
    /// Workload-specific figures for the human-readable report.
    extra: Vec<(&'static str, f64, &'static str)>,
}

/// Set-ups per run; `setup_s` is their median. The short set-ups of the
/// census workloads (milliseconds) need more samples to be steady.
fn setup_reps(w: Workload) -> usize {
    match w {
        Workload::IterateMnist => 9,
        _ => 25,
    }
}

fn e2e_serve(input: &Input, dur: Duration) -> Result<E2e, String> {
    let built = build_container(&Pipeline::new(), &input.csrv, &input.config);
    let store = scratch_dir("store")?;
    serve::stock(&store, &built.bytes)?;
    // The requests and their expected answers, from the same container's
    // model, exist before the heap baseline: they are the benchmark's,
    // not the server's.
    let mixes = {
        let model = ShardedModel::from_bytes(&built.bytes).map_err(|e| e.to_string())?;
        model.prewarm_with(8, &gcm_serve::ServeOptions::planned());
        serve::mixes(&model, input.seed)?
    };
    let base = alloc::reset_peak();
    let mut setups_s = Vec::new();
    let mut rig = None;
    for _ in 0..setup_reps(input.workload) {
        if let Some(r) = rig.take() {
            serve::Rig::stop(r);
        }
        let t = Instant::now();
        rig = Some(serve::Rig::start(&store)?);
        setups_s.push(t.elapsed().as_secs_f64());
    }
    let rig = rig.expect("at least one set-up");
    serve::warm_up(rig.addr, &mixes, WARMUP)?;
    let ops = serve::closed_loop(rig.addr, &mixes, dur)?;
    let peak_bytes = alloc::peak_bytes().saturating_sub(base);
    rig.stop();
    let _ = std::fs::remove_dir_all(&store);
    Ok(E2e {
        setups_s,
        ops,
        peak_bytes,
        container_bytes: built.bytes.len(),
        stored_bytes: built.stored_bytes,
        plan_heap_bytes: built.plan_heap_bytes,
        rate: None,
        extra: Vec::new(),
    })
}

fn e2e_iterate(input: &Input, dur: Duration) -> Result<E2e, String> {
    let built = build_container(&Pipeline::new(), &input.csrv, &input.config);
    let reference = iterate::Reference::new(&input.csrv, input.seed)?;
    let base = alloc::reset_peak();
    let mut setups_s = Vec::new();
    let mut ready = None;
    for _ in 0..setup_reps(input.workload) {
        drop(ready.take());
        let t = Instant::now();
        ready = Some(iterate::setup(&built.bytes)?);
        setups_s.push(t.elapsed().as_secs_f64());
    }
    let (model, mut ws) = ready.expect("at least one set-up");
    let m = iterate::Traced::new(&model);
    iterate::rounds(&m, &mut ws, &reference, WARMUP, "solver.round");
    let ops = iterate::rounds(&m, &mut ws, &reference, dur, "solver.round");
    Ok(E2e {
        setups_s,
        ops,
        peak_bytes: alloc::peak_bytes().saturating_sub(base),
        container_bytes: built.bytes.len(),
        stored_bytes: built.stored_bytes,
        plan_heap_bytes: built.plan_heap_bytes,
        rate: None,
        extra: Vec::new(),
    })
}

fn e2e_build(input: &Input, dur: Duration) -> Result<E2e, String> {
    let edited = build::Edited::new(input)?;
    let base = alloc::reset_peak();
    let mut setups_s = Vec::new();
    let mut csrv = None;
    for _ in 0..setup_reps(input.workload) {
        drop(csrv.take());
        let t = Instant::now();
        csrv = Some(CsrvMatrix::from_dense(&input.dense).map_err(|e| e.to_string())?);
        setups_s.push(t.elapsed().as_secs_f64());
    }
    let csrv = csrv.expect("at least one set-up");
    let pipeline = Pipeline::new();
    build::cycles(&pipeline, input, &csrv, &edited, Duration::ZERO);
    let c = build::cycles(&pipeline, input, &csrv, &edited, dur);
    let mut ops = c.builds.clone();
    ops.attempted += c.rebuilds.attempted;
    ops.failed += c.rebuilds.failed;
    Ok(E2e {
        setups_s,
        peak_bytes: alloc::peak_bytes().saturating_sub(base),
        container_bytes: c.container_bytes,
        stored_bytes: c.stored_bytes,
        plan_heap_bytes: c.plan_heap_bytes,
        extra: vec![
            ("build_s", median(&c.builds.ok_ms) / 1e3, "s"),
            ("rebuild_s", median(&c.rebuilds.ok_ms) / 1e3, "s"),
        ],
        rate: Some(c.rate()),
        ops,
    })
}

/// The untraced run: end-to-end metrics only.
fn run_e2e(input: &Input, host: &Host, dur: Duration, run: &mut Run) -> Result<(), String> {
    let e = match input.workload {
        Workload::ServeCensus => e2e_serve(input, dur)?,
        Workload::IterateMnist => e2e_iterate(input, dur)?,
        Workload::BuildCensus => e2e_build(input, dur)?,
    };
    run.absorb(&e.ops);
    let p50 = e.ops.windowed_quantile(0.5);
    let p90 = e.ops.windowed_quantile(0.9);
    let p99 = quantile(&e.ops.ok_ms, 0.99);
    let ok = e.ops.attempted - e.ops.failed;
    let ok_pct = 100.0 * ok as f64 / e.ops.attempted.max(1) as f64;
    let ops_per_s = e.rate.unwrap_or_else(|| e.ops.windowed_rate());
    run.line(input_block(
        input,
        host,
        e.container_bytes,
        e.stored_bytes,
        e.plan_heap_bytes,
    ));
    run.metric("setup_s", median(&e.setups_s), "s");
    run.metric("ok_pct", ok_pct, "%");
    run.metric("peak_heap_mb", e.peak_bytes as f64 / 1e6, "MB");
    run.metric(
        "stored_pct",
        100.0 * e.container_bytes as f64 / input.dense_bytes() as f64,
        "%",
    );
    run.metric("op_p50_ms", p50, "ms");
    run.metric("ops_per_s", ops_per_s, "1/s");
    run.line(format!(
        "operations: {} attempted, {} failed, {} timed over {:.2} s; set-up median of {}",
        e.ops.attempted,
        e.ops.failed,
        e.ops.ok_ms.len(),
        e.ops.elapsed_s,
        e.setups_s.len()
    ));
    let mut named: Vec<(&str, f64, &str)> = match input.workload {
        Workload::ServeCensus => vec![
            ("serve_rps", ops_per_s, "1/s"),
            ("serve_p50_us", p50 * 1e3, "us"),
            ("serve_p99_us", p99 * 1e3, "us"),
        ],
        Workload::IterateMnist => vec![("iter_p50_ms", p50, "ms"), ("iter_p99_ms", p99, "ms")],
        Workload::BuildCensus => Vec::new(),
    };
    // Tail percentiles are printed, not gated: on a host shared with
    // other tenants they move by far more than any useful bound.
    named.push(("op_p90_ms", p90, "ms"));
    named.extend(e.extra.iter().copied());
    named.push(("error_rate", 1.0 - ok_pct / 100.0, "ratio"));
    for (name, value, unit) in named {
        run.line(format!("  {name:<13} {value:>14.6} {unit}"));
    }
    Ok(())
}

/// The traced run: the workload's loop untraced and traced (the
/// difference is the tracing overhead), then the layer sweep.
fn run_traced(input: &Input, host: &Host, dur: Duration, run: &mut Run) -> Result<(), String> {
    trace::set_enabled(true);
    let pipeline = Pipeline::new();
    // The first build of a process runs cold (page faults, scratch
    // growth); the second is the one the layers are read from.
    drop(build_container(&pipeline, &input.csrv, &input.config));
    let built = build_container(&pipeline, &input.csrv, &input.config);
    run.check(
        ShardedModel::from_bytes(&built.bytes)
            .is_ok_and(|m| matches_dense(&m, &input.dense, input.seed)),
        "built container matches the dense oracle",
    );
    run.line(input_block(
        input,
        host,
        built.bytes.len(),
        built.stored_bytes,
        built.plan_heap_bytes,
    ));
    let mut state = layers::State {
        builds: vec![built.timing],
        rebuild: None,
    };
    let quarter = dur / 4;
    // The workload's loop in four quarters, untraced, traced, traced,
    // untraced: the difference of the two medians is the tracing
    // overhead, and a drift over the run cancels out of it.
    let abba = |f: &mut dyn FnMut() -> Result<Tally, String>| -> Result<(Tally, Tally), String> {
        let (mut untraced, mut traced) = (Tally::default(), Tally::default());
        for on in [false, true, true, false] {
            trace::set_enabled(on);
            let t = f()?;
            if on {
                traced.merge(t);
            } else {
                untraced.merge(t);
            }
        }
        trace::set_enabled(true);
        Ok((untraced, traced))
    };
    let mut rebuilds = Tally::default();
    let (untraced, traced) = match input.workload {
        Workload::ServeCensus => {
            let store = scratch_dir("store")?;
            serve::stock(&store, &built.bytes)?;
            let rig = serve::Rig::start(&store)?;
            let mixes = serve::mixes(&rig.model, input.seed)?;
            serve::warm_up(rig.addr, &mixes, WARMUP)?;
            let out = abba(&mut || serve::closed_loop(rig.addr, &mixes, quarter));
            rig.stop();
            let _ = std::fs::remove_dir_all(&store);
            out?
        }
        Workload::IterateMnist => {
            let reference = iterate::Reference::new(&input.csrv, input.seed)?;
            let (model, mut ws) = iterate::setup(&built.bytes)?;
            let m = iterate::Traced::new(&model);
            iterate::rounds(&m, &mut ws, &reference, WARMUP, "solver.round");
            abba(&mut || {
                Ok(iterate::rounds(
                    &m,
                    &mut ws,
                    &reference,
                    quarter,
                    "solver.round",
                ))
            })?
        }
        Workload::BuildCensus => {
            let edited = build::Edited::new(input)?;
            let warm = build::rebuild(&edited, &input.config, &built.bytes, input.seed);
            run.check(warm.ok, "warm-up incremental rebuild");
            abba(&mut || {
                let c = build::cycles(&pipeline, input, &input.csrv, &edited, quarter);
                state.builds.extend(c.timings);
                state.rebuild = c.last;
                rebuilds.merge(c.rebuilds);
                Ok(c.builds)
            })?
        }
    };
    run.absorb(&untraced);
    run.absorb(&traced);
    run.absorb(&rebuilds);
    layers::sweep(input, &built, &mut state, run)?;
    let (u, t) = (median(&untraced.ok_ms), median(&traced.ok_ms));
    run.metric("trace.overhead_us", (t - u) * 1e3, "us");
    run.metric("trace.overhead_pct", 100.0 * (t - u) / u, "%");
    run.line(format!(
        "tracing overhead: op p50 traced {t:.4} ms vs untraced {u:.4} ms ({:+.2}%)",
        100.0 * (t - u) / u
    ));
    trace::set_enabled(false);
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let path = PathBuf::from(OUT_DIR).join(format!(
        "spans-{}-{}.jsonl",
        input.workload.name(),
        input.seed
    ));
    let n = trace::write_jsonl(&path).map_err(|e| format!("write {}: {e}", path.display()))?;
    run.line(format!("{n} spans written to {}", path.display()));
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nusage: perfbench --workload <serve_census|iterate_mnist|build_census> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let (host, host_text) = host_block();
    println!("{host_text}");
    let mut run = Run::default();
    let dur = Duration::from_secs_f64(args.seconds);
    let result = Input::generate(args.workload, args.seed).and_then(|input| {
        if args.trace {
            run_traced(&input, &host, dur, &mut run)
        } else {
            run_e2e(&input, &host, dur, &mut run)
        }
    });
    if let Err(e) = result {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    for line in &run.lines {
        println!("{line}");
    }
    println!(
        "metrics ({}):",
        if args.trace {
            "per layer"
        } else {
            "end to end"
        }
    );
    for (name, value, unit) in &run.metrics {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    for f in &run.failures {
        println!("FAILED: {f}");
    }
    println!("{}", run.json());
    if run.failed > 0 || run.attempted == 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
