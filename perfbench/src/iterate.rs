//! `iterate_mnist`: one caller in a closed loop of Eq. (4) power-method
//! rounds (one right plus one left product each) on the sharded model.

use std::cell::Cell;
use std::time::{Duration, Instant};

use gcm_core::{power_iterations_into, SolverWorkspace};
use gcm_matrix::{CsrvMatrix, MatVec, MatrixError, Workspace};
use gcm_serve::{ServeOptions, ShardedModel};

use crate::input::{rel_err, seeded_vec, REL_TOL};
use crate::trace;
use crate::Tally;

/// Rounds per episode: every episode restarts from the seeded start
/// vector, so its final iterate can be checked against one reference.
pub const EPISODE: usize = 16;

/// Set-up: `from_bytes` (plans cast on load) + `prewarm_with` (f64
/// plans) + `SolverWorkspace::prepare`.
pub fn setup(bytes: &[u8]) -> Result<(ShardedModel, SolverWorkspace), String> {
    let model = {
        let _s = trace::span("container.load", 0, 0);
        ShardedModel::from_bytes(bytes).map_err(|e| e.to_string())?
    };
    {
        let _s = trace::span("sharded.prewarm", 0, 0);
        model.prewarm_with(1, &ServeOptions::planned());
    }
    let mut ws = SolverWorkspace::new();
    ws.prepare(&model).map_err(|e| e.to_string())?;
    Ok((model, ws))
}

/// The start vector, and the iterate and the last round's scale
/// (`‖z‖∞`) that `EPISODE` rounds reach on CSRV. The scale matters: the
/// iterate is normalised every round, so an error along the dominant
/// direction shows only in the scale.
pub struct Reference {
    x0: Vec<f64>,
    x_ref: Vec<f64>,
    norm_ref: f64,
}

impl Reference {
    pub fn new(csrv: &CsrvMatrix, seed: u64) -> Result<Reference, String> {
        let x0 = seeded_vec(csrv.cols(), seed);
        let mut x_ref = x0.clone();
        let stats = power_iterations_into(csrv, &mut x_ref, EPISODE, &mut SolverWorkspace::new())
            .map_err(|e| e.to_string())?;
        Ok(Reference {
            x0,
            x_ref,
            norm_ref: stats.norm,
        })
    }
}

/// A `MatVec` that records each product as a child span of the current
/// round, so the solver's self time is the round minus its products.
pub struct Traced<'a, M> {
    inner: &'a M,
    round: Cell<u64>,
}

impl<'a, M> Traced<'a, M> {
    pub fn new(inner: &'a M) -> Self {
        Traced {
            inner,
            round: Cell::new(0),
        }
    }
}

impl<M: MatVec> MatVec for Traced<'_, M> {
    fn rows(&self) -> usize {
        self.inner.rows()
    }

    fn cols(&self) -> usize {
        self.inner.cols()
    }

    fn right_multiply_into(
        &self,
        x: &[f64],
        y: &mut [f64],
        ws: &mut Workspace,
    ) -> Result<(), MatrixError> {
        let _s = trace::span("round.right", self.round.get(), 0);
        self.inner.right_multiply_into(x, y, ws)
    }

    fn left_multiply_into(
        &self,
        y: &[f64],
        x: &mut [f64],
        ws: &mut Workspace,
    ) -> Result<(), MatrixError> {
        let _s = trace::span("round.left", self.round.get(), 0);
        self.inner.left_multiply_into(y, x, ws)
    }
}

/// Runs whole episodes of single rounds until `dur` has passed. Every
/// round of an episode whose final iterate or scale is not within
/// `REL_TOL` of the CSRV reference counts as failed; `span` names each
/// round's span.
pub fn rounds<M: MatVec>(
    m: &Traced<'_, M>,
    ws: &mut SolverWorkspace,
    reference: &Reference,
    dur: Duration,
    span: &'static str,
) -> Tally {
    let mut tally = Tally::default();
    let mut x = reference.x0.clone();
    let mut lat = [(0.0f64, 0.0f64); EPISODE];
    let t0 = Instant::now();
    let mut round_id = 0u64;
    while t0.elapsed() < dur {
        x.copy_from_slice(&reference.x0);
        let mut ok = true;
        let mut norm = 0.0;
        for slot in lat.iter_mut() {
            let g = trace::span(span, 0, round_id);
            m.round.set(g.id());
            let t = Instant::now();
            match power_iterations_into(m, &mut x, 1, ws) {
                Ok(stats) => norm = stats.norm,
                Err(_) => ok = false,
            }
            let dt = t.elapsed();
            *slot = (dt.as_secs_f64() * 1e3, (t + dt - t0).as_secs_f64());
            drop(g);
            round_id += 1;
        }
        ok &= rel_err(&x, &reference.x_ref) <= REL_TOL
            && rel_err(&[norm], &[reference.norm_ref]) <= REL_TOL;
        for &(ms, at_s) in &lat {
            tally.record(ok, ms, at_s);
        }
    }
    tally.elapsed_s = t0.elapsed().as_secs_f64();
    tally
}
