//! Spans and summary statistics.
//!
//! A span is one timed call the benchmark makes into a crate's public
//! API: `(name, id, parent, request id, start, end)`, with times in
//! nanoseconds since the first span of the process. Spans are kept in
//! memory and written out once, at exit. Nothing inside the program
//! under test is traced; every span sits in this benchmark's own code.

use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    id: u64,
    parent: u64,
    req: u64,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns span recording on or off (off: `span` returns an inert guard).
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

/// Records a span from now until the guard drops.
pub struct Guard(Option<Span>);

/// Opens a span named `name` under `parent` (0 = root) for request `req`.
pub fn span(name: &'static str, parent: u64, req: u64) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard(None);
    }
    Guard(Some(Span {
        name,
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent,
        req,
        start_ns: now_ns(),
        end_ns: 0,
    }))
}

impl Guard {
    /// This span's id (0 when recording is off), for children to cite.
    pub fn id(&self) -> u64 {
        self.0.map_or(0, |s| s.id)
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(mut s) = self.0.take() {
            s.end_ns = now_ns();
            if let Ok(mut spans) = SPANS.lock() {
                spans.push(s);
            }
        }
    }
}

fn spans() -> std::sync::MutexGuard<'static, Vec<Span>> {
    SPANS.lock().expect("span buffer poisoned")
}

/// Durations in µs of the spans named `name`, optionally only those of
/// request `req`.
pub fn durations_us(name: &str, req: Option<u64>) -> Vec<f64> {
    spans()
        .iter()
        .filter(|s| s.name == name && req.is_none_or(|r| s.req == r))
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect()
}

/// Durations in µs of the spans named `name` whose parent span is named
/// `parent`.
pub fn children_us(name: &str, parent: &str) -> Vec<f64> {
    let spans = spans();
    let parents: HashSet<u64> = spans
        .iter()
        .filter(|s| s.name == parent)
        .map(|s| s.id)
        .collect();
    spans
        .iter()
        .filter(|s| s.name == name && parents.contains(&s.parent))
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect()
}

/// Self times in µs of the spans named `name`: each span's duration
/// minus the durations of its direct children.
pub fn self_us(name: &str) -> Vec<f64> {
    let spans = spans();
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.dur_ns();
    }
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.dur_ns() as f64 - *child_ns.get(&s.id).unwrap_or(&0) as f64) / 1e3)
        .collect()
}

/// Median duration in µs of the spans named `name` (0 when none ran).
pub fn p50_us(name: &str) -> f64 {
    median(&durations_us(name, None))
}

/// Writes every recorded span as one JSON object per line.
pub fn write_jsonl(path: &Path) -> std::io::Result<usize> {
    let spans = spans();
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans.iter() {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.id, s.parent, s.req, s.start_ns, s.end_ns
        )?;
    }
    out.flush()?;
    Ok(spans.len())
}

/// Nearest-rank quantile of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Runs `f` at least `min` times and until `budget` has passed.
pub fn repeat(min: usize, budget: Duration, mut f: impl FnMut()) {
    let t0 = Instant::now();
    let mut n = 0;
    while n < min || t0.elapsed() < budget {
        f();
        n += 1;
    }
}
