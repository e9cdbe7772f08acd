//! Racing first requests for a model must build its serving lanes once.
//!
//! A model's lane set (two double-buffered batch queues plus direct
//! scratch, sized `batch_width × rows`) is allocated by the first
//! request that reaches it. Two first requests released together must
//! not each allocate a set and drop one: the transient doubles the
//! peak heap on every cold model. Here two barrier-released first
//! requests may grow the peak by less than 1.5× what a lone first
//! request grows it by.
//!
//! All checks live in one `#[test]` so no concurrent test perturbs the
//! process-wide peak-bytes counter.

use std::sync::{Arc, Barrier};

use gcm_bench::{alloc, TrackingAlloc};
use gcm_matrix::DenseMatrix;
use gcm_serve::protocol::{self, status, Direction};
use gcm_serve::{BuildOptions, Engine, ModelStore, Registry, ServerConfig, ShardedModel};

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc::new();

const ROWS: usize = 4096;
const COLS: usize = 8;
const WIDTH: usize = 16;

/// Peak heap growth while `f` runs.
fn peak_growth(f: impl FnOnce()) -> usize {
    let base = alloc::reset_peak();
    f();
    alloc::peak_bytes() - base
}

/// One first right multiply against `model`, checked OK.
fn first_request(engine: &Engine, model: &str) {
    let (mut req, mut out) = (Vec::new(), Vec::new());
    protocol::encode_multiply(&mut req, model, Direction::Right, 1, &[1.0; COLS]);
    engine.handle_frame(&req[4..], &mut out);
    assert_eq!(out[4], status::OK);
}

#[test]
fn racing_first_requests_build_one_lane_set() {
    let mut dense = DenseMatrix::zeros(ROWS, COLS);
    for r in 0..ROWS {
        for c in 0..COLS {
            if (r + c) % 3 != 0 {
                dense.set(r, c, ((r * 7 + c) % 9) as f64 * 0.5 - 1.0);
            }
        }
    }
    let dir = std::env::temp_dir().join(format!("gcm-lane-race-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ModelStore::open(&dir).unwrap();
    let model = ShardedModel::from_dense(
        &dense,
        &BuildOptions {
            shards: 2,
            ..BuildOptions::default()
        },
    )
    .unwrap();
    let names = ["solo", "raced"];
    for name in names {
        store.save(name, &model).unwrap();
    }
    let config = ServerConfig {
        batch_width: WIDTH,
        ..ServerConfig::default()
    };
    let engine = Arc::new(Engine::new(Registry::new(store, WIDTH), config));
    // Load both models first, so what follows measures lane creation
    // and the request itself, not the container load.
    for name in names {
        engine.registry().get(name).unwrap();
    }

    let one_set = peak_growth(|| first_request(&engine, "solo"));

    let barrier = Arc::new(Barrier::new(3));
    let racers: Vec<_> = (0..2)
        .map(|_| {
            let engine = Arc::clone(&engine);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                first_request(&engine, "raced");
            })
        })
        .collect();
    let raced = peak_growth(|| {
        barrier.wait();
        for racer in racers {
            racer.join().unwrap();
        }
    });

    // A lone first request grows the peak by at least the lane set,
    // whose right lane alone holds three WIDTH × ROWS f64 buffers.
    assert!(
        one_set >= 3 * WIDTH * ROWS * 8,
        "lone first request grew {one_set} bytes"
    );
    assert!(
        2 * raced < 3 * one_set,
        "two racing first requests grew the peak by {raced} bytes, one by {one_set}: \
         the lane set was built twice"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
