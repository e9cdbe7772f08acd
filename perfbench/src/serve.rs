//! `serve_census`: an in-process TCP server driven by a closed loop of
//! client threads, one `Client` connection each.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gcm_serve::protocol::{Client, Direction};
use gcm_serve::ShardedModel;
use gcm_serve::{Engine, ModelStore, Registry, ServeOptions, Server, ServerConfig, ServerHandle};

use crate::input::{bits_equal, seeded_vec, splitmix};
use crate::trace;
use crate::Tally;

/// Name the container is stored and served under.
pub const MODEL: &str = "m";
/// Client threads (and connections) of the closed loop.
pub const CLIENTS: u64 = 2;
/// Requests in each client's fixed seeded mix.
const MIX_LEN: usize = 64;
/// Rows returned by a `multiply_rows` request: the width of the
/// row-subset example in the repository README (`--rows 1000..1200`).
/// An assumption, not measured traffic.
pub const ROWS_SPAN: usize = 200;

/// A one-hot sparse input at column `c`: the selector that
/// `examples/sparse_scoring.rs` names as the serving pattern the sparse
/// path is for. An assumption, not measured traffic.
pub fn one_hot(x: &[f64], c: usize) -> Vec<(u32, f64)> {
    vec![(c as u32, x[c])]
}

/// A running server over a one-model store.
pub struct Rig {
    pub engine: Arc<Engine>,
    pub model: Arc<ShardedModel>,
    pub addr: SocketAddr,
    handle: ServerHandle,
}

impl Rig {
    /// Set-up: registry load of the stored container (`from_bytes` +
    /// `prewarm_with`, f64 plans), engine, `Server::bind` → `spawn`,
    /// until the first `ping` succeeds.
    pub fn start(store: &Path) -> Result<Rig, String> {
        let store = ModelStore::open(store).map_err(|e| e.to_string())?;
        let registry = Registry::with_options(store, 8, ServeOptions::planned());
        let model = registry.get(MODEL).map_err(|e| e.to_string())?;
        let engine = Arc::new(Engine::new(registry, ServerConfig::default()));
        let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0").map_err(|e| e.to_string())?;
        let handle = server.spawn().map_err(|e| e.to_string())?;
        let addr = handle.addr();
        let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
        client.ping().map_err(|e| e.to_string())?;
        Ok(Rig {
            engine,
            model,
            addr,
            handle,
        })
    }

    /// Stops the accept loop, then waits (up to 5 s) until every
    /// connection thread has seen its client leave and dropped the
    /// engine, so no server thread outlives the rig.
    pub fn stop(mut self) {
        self.handle.stop();
        let t0 = Instant::now();
        while Arc::strong_count(&self.engine) > 1 && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

pub enum Req {
    Right(Vec<f64>),
    Left(Vec<f64>),
    Sparse(Vec<(u32, f64)>),
    Rows(std::ops::Range<usize>, Vec<f64>),
}

/// One request of the mix with the answer the model gives to a direct
/// call, computed before the loop starts.
pub struct Call {
    pub req: Req,
    pub want: Vec<f64>,
}

/// A client's fixed seeded mix: the four verbs in turn, so each is a
/// quarter of the requests — k=1 right and left products, one-hot
/// sparse-input right products and row-range right products. No record
/// of real traffic exists to weight them by; equal shares are an
/// unverified assumption, not a claim about representative load.
fn mix(model: &ShardedModel, seed: u64) -> Result<Vec<Call>, String> {
    let (rows, cols) = (model.rows(), model.cols());
    let mut calls = Vec::with_capacity(MIX_LEN);
    for i in 0..MIX_LEN as u64 {
        let s = seed.wrapping_mul(1_000_003).wrapping_add(i);
        let x = seeded_vec(cols, s ^ 0x5eed);
        let call = match i % 4 {
            0 => {
                let mut want = vec![0.0; rows];
                model
                    .right_multiply_panel(1, &x, &mut want)
                    .map_err(|e| e.to_string())?;
                Call {
                    req: Req::Right(x),
                    want,
                }
            }
            1 => {
                let y = seeded_vec(rows, s ^ 0x1ef7);
                let mut want = vec![0.0; cols];
                model
                    .left_multiply_panel(1, &y, &mut want)
                    .map_err(|e| e.to_string())?;
                Call {
                    req: Req::Left(y),
                    want,
                }
            }
            2 => {
                let x_nnz = one_hot(&x, (splitmix(s) % cols as u64) as usize);
                let mut want = vec![0.0; rows];
                model
                    .right_multiply_sparse(&x_nnz, &mut want)
                    .map_err(|e| e.to_string())?;
                Call {
                    req: Req::Sparse(x_nnz),
                    want,
                }
            }
            _ => {
                let len = ROWS_SPAN.min(rows);
                let start = (splitmix(s) % (rows - len + 1) as u64) as usize;
                let range = start..start + len;
                let mut want = vec![0.0; len];
                model
                    .right_multiply_rows(range.clone(), 1, &x, &mut want)
                    .map_err(|e| e.to_string())?;
                Call {
                    req: Req::Rows(range, x),
                    want,
                }
            }
        };
        calls.push(call);
    }
    Ok(calls)
}

/// Sends one call and reports whether the answer is bit-equal to the
/// direct call's.
fn send(client: &mut Client, call: &Call, y: &mut Vec<f64>) -> bool {
    let sent = match &call.req {
        Req::Right(x) => client.multiply(MODEL, Direction::Right, 1, x, y),
        Req::Left(v) => client.multiply(MODEL, Direction::Left, 1, v, y),
        Req::Sparse(x_nnz) => client.multiply_sparse(MODEL, x_nnz, y),
        Req::Rows(range, x) => client.multiply_rows(MODEL, range.clone(), 1, x, y),
    };
    sent.is_ok() && bits_equal(y, &call.want)
}

fn drive(
    addr: SocketAddr,
    calls: &[Call],
    start: Instant,
    until: Instant,
    id: u64,
) -> Result<Tally, String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let mut y = Vec::new();
    let mut tally = Tally::default();
    let mut i = 0u64;
    while Instant::now() < until {
        let call = &calls[i as usize % calls.len()];
        let _s = trace::span("serve.request", 0, (id << 32) | i);
        let t = Instant::now();
        let ok = send(&mut client, call, &mut y);
        let dt = t.elapsed();
        tally.record(ok, dt.as_secs_f64() * 1e3, (t + dt - start).as_secs_f64());
        i += 1;
    }
    Ok(tally)
}

/// Warm-up: one client opens the model's serving lanes (an `info`
/// request), then every client runs the closed loop for `dur`. The
/// engine builds a model's lanes on its first request; first requests
/// that race each build a copy and all but one are dropped, a transient
/// that would make the peak heap depend on thread timing.
pub fn warm_up(addr: SocketAddr, mixes: &[Vec<Call>], dur: Duration) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    client.info(MODEL).map_err(|e| e.to_string())?;
    drop(client);
    closed_loop(addr, mixes, dur).map(drop)
}

/// A closed loop: one client thread per mix, each sending its next
/// request when the previous answer arrives, for `dur`.
pub fn closed_loop(addr: SocketAddr, mixes: &[Vec<Call>], dur: Duration) -> Result<Tally, String> {
    let t0 = Instant::now();
    let until = t0 + dur;
    let tallies: Vec<Result<Tally, String>> = std::thread::scope(|scope| {
        let joins: Vec<_> = mixes
            .iter()
            .enumerate()
            .map(|(c, calls)| scope.spawn(move || drive(addr, calls, t0, until, c as u64)))
            .collect();
        joins
            .into_iter()
            .map(|j| {
                j.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut total = Tally::default();
    for t in tallies {
        total.merge(t?);
    }
    total.elapsed_s = t0.elapsed().as_secs_f64();
    Ok(total)
}

/// Writes `bytes` as the store's one container.
pub fn stock(store: &Path, bytes: &[u8]) -> Result<(), String> {
    let path = ModelStore::open(store)
        .and_then(|s| s.path(MODEL))
        .map_err(|e| e.to_string())?;
    std::fs::write(path, bytes).map_err(|e| e.to_string())
}

pub fn mixes(model: &ShardedModel, seed: u64) -> Result<Vec<Vec<Call>>, String> {
    (0..CLIENTS).map(|c| mix(model, seed ^ (c << 40))).collect()
}
