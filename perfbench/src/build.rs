//! `build_census`: full builds to container bytes, each followed by an
//! incremental rebuild of an edit to one shard against the fresh base.

use std::time::{Duration, Instant};

use gcm_matrix::{CsrvMatrix, DenseMatrix};
use gcm_pipeline::{BuildConfig, Pipeline};
use gcm_serve::{compress_incremental, ShardedModel};

use crate::input::{build_container, edit_one_shard, matches_dense, BuildTiming, Input};
use crate::trace;
use crate::Tally;

/// The input after a one-shard edit.
pub struct Edited {
    dense: DenseMatrix,
    csrv: CsrvMatrix,
    shard: usize,
}

impl Edited {
    pub fn new(input: &Input) -> Result<Edited, String> {
        let (dense, shard) = edit_one_shard(input)?;
        let csrv = CsrvMatrix::from_dense(&dense).map_err(|e| e.to_string())?;
        Ok(Edited { dense, csrv, shard })
    }
}

/// One incremental rebuild and its checks.
#[derive(Debug, Clone, Copy)]
pub struct Rebuild {
    pub secs: f64,
    pub rebuilt: usize,
    pub spliced: usize,
    pub ok: bool,
}

/// `compress_incremental` of the edit against `base`. It passes when
/// exactly the edited shard was rebuilt and the new container's model
/// matches the dense oracle of the edited matrix.
pub fn rebuild(edited: &Edited, config: &BuildConfig, base: &[u8], seed: u64) -> Rebuild {
    let t = Instant::now();
    let result = {
        let _s = trace::span("incremental", 0, edited.shard as u64);
        compress_incremental(&edited.csrv, config, base)
    };
    let secs = t.elapsed().as_secs_f64();
    match result {
        Ok((bytes, report)) => Rebuild {
            secs,
            rebuilt: report.rebuilt(),
            spliced: report.spliced(),
            ok: report.full_reason.is_none()
                && report.rebuilt() == 1
                && ShardedModel::from_bytes(&bytes)
                    .is_ok_and(|m| matches_dense(&m, &edited.dense, seed)),
        },
        Err(_) => Rebuild {
            secs,
            rebuilt: 0,
            spliced: 0,
            ok: false,
        },
    }
}

/// What a run of build/rebuild cycles measured.
#[derive(Default)]
pub struct Cycles {
    pub builds: Tally,
    pub rebuilds: Tally,
    pub timings: Vec<BuildTiming>,
    pub last: Option<Rebuild>,
    pub container_bytes: usize,
    pub stored_bytes: usize,
    pub plan_heap_bytes: usize,
    /// Build + rebuild cycles run.
    pub cycles: usize,
    /// Seconds spent in the builds and rebuilds of those cycles, the
    /// checks between them excluded.
    pub cycle_s: f64,
}

impl Cycles {
    /// Build + rebuild cycles per second of build and rebuild time, so
    /// a slower incremental rebuild moves it as much as a slower build.
    pub fn rate(&self) -> f64 {
        self.cycles as f64 / self.cycle_s
    }
}

/// Build → check → rebuild → check, at least once and until `dur` has
/// passed. A build passes when its container's model matches the dense
/// oracle.
pub fn cycles(
    pipeline: &Pipeline,
    input: &Input,
    csrv: &CsrvMatrix,
    edited: &Edited,
    dur: Duration,
) -> Cycles {
    let mut out = Cycles::default();
    let t0 = Instant::now();
    loop {
        let built = build_container(pipeline, csrv, &input.config);
        let ok = ShardedModel::from_bytes(&built.bytes)
            .is_ok_and(|m| matches_dense(&m, &input.dense, input.seed));
        out.builds
            .record(ok, built.timing.wall_s * 1e3, t0.elapsed().as_secs_f64());
        let r = rebuild(edited, &input.config, &built.bytes, input.seed);
        out.rebuilds
            .record(r.ok, r.secs * 1e3, t0.elapsed().as_secs_f64());
        out.cycles += 1;
        out.cycle_s += built.timing.wall_s + r.secs;
        out.timings.push(built.timing);
        out.last = Some(r);
        out.container_bytes = built.bytes.len();
        out.stored_bytes = built.stored_bytes;
        out.plan_heap_bytes = built.plan_heap_bytes;
        if t0.elapsed() >= dur {
            break;
        }
    }
    out.builds.elapsed_s = out.cycle_s;
    out
}
