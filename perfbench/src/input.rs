//! Workload inputs: what each workload generates from its seed, how its
//! container is built, and the correctness checks every workload shares.

use std::time::Instant;

use gcm_datagen::Dataset;
use gcm_matrix::{CsrvMatrix, DenseMatrix};
use gcm_pipeline::{
    Backend, BuildConfig, BuildStats, EncodingChoice, GrammarChoice, Pipeline, Plan, ReorderMode,
};
use gcm_reorder::ReorderAlgorithm;
use gcm_serve::{ServeOptions, ShardedModel};

use crate::trace;

/// Relative tolerance of every floating-point comparison that is not
/// bit-exact by construction (different summation orders).
pub const REL_TOL: f64 = 1e-9;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeCensus,
    IterateMnist,
    BuildCensus,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ServeCensus,
        Workload::IterateMnist,
        Workload::BuildCensus,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeCensus => "serve_census",
            Workload::IterateMnist => "iterate_mnist",
            Workload::BuildCensus => "build_census",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The dataset and the number of non-zeros the matrix holds.
    fn dataset(self) -> (Dataset, usize) {
        match self {
            Workload::ServeCensus => (Dataset::Census, 379_000),
            Workload::IterateMnist => (Dataset::Mnist2m, 4_700_000),
            Workload::BuildCensus => (Dataset::Census, 700_000),
        }
    }

    /// The build configuration of the workload's container. The read
    /// workloads pin the RePair grammar stage: the same grammar the
    /// legacy build makes, plus the shard fingerprints an incremental
    /// rebuild needs.
    pub fn config(self) -> BuildConfig {
        match self {
            Workload::ServeCensus | Workload::IterateMnist => BuildConfig {
                backend: Backend::Compressed,
                encoding: EncodingChoice::Auto,
                grammar: Some(GrammarChoice::RePair),
                shards: 2,
                blocks: 1,
                reorder: None,
            },
            Workload::BuildCensus => BuildConfig {
                backend: Backend::Compressed,
                encoding: EncodingChoice::Auto,
                grammar: Some(GrammarChoice::Auto),
                shards: 4,
                blocks: 1,
                reorder: Some(ReorderMode::PerShard(ReorderAlgorithm::PathCover)),
            },
        }
    }
}

/// One workload's generated input.
pub struct Input {
    pub workload: Workload,
    pub seed: u64,
    pub dense: DenseMatrix,
    pub csrv: CsrvMatrix,
    pub config: BuildConfig,
}

impl Input {
    /// The shortest row prefix of `Dataset::generate(…, seed)` that holds
    /// the workload's number of non-zeros. Rows are generated one after
    /// another from one seeded stream, so the prefix is the matrix a
    /// smaller `generate` call gives: the seed changes the content, while
    /// the working-set size stays fixed across seeds.
    pub fn generate(workload: Workload, seed: u64) -> Result<Input, String> {
        let (dataset, target_nnz) = workload.dataset();
        let spec = dataset.spec();
        let mut estimate =
            (target_nnz as f64 / (spec.cols as f64 * spec.paper_density) * 1.25) as usize;
        let rows = loop {
            let probe = dataset.generate(estimate, seed);
            let mut nnz = 0;
            let found = (0..probe.rows()).find(|&r| {
                nnz += probe.row(r).iter().filter(|v| **v != 0.0).count();
                nnz >= target_nnz
            });
            match found {
                Some(r) => break r + 1,
                None if estimate < 64 * target_nnz => estimate *= 2,
                None => return Err("the generator yields too few non-zeros".into()),
            }
        };
        let dense = dataset.generate(rows, seed);
        let csrv = CsrvMatrix::from_dense(&dense).map_err(|e| e.to_string())?;
        Ok(Input {
            workload,
            seed,
            dense,
            csrv,
            config: workload.config(),
        })
    }

    pub fn dense_bytes(&self) -> usize {
        self.dense.uncompressed_bytes()
    }
}

/// One full build to container bytes.
pub struct Built {
    pub bytes: Vec<u8>,
    pub stats: BuildStats,
    pub stored_bytes: usize,
    pub plan_heap_bytes: usize,
    pub timing: BuildTiming,
}

/// Where one build's wall time went, in seconds: the stage chain the
/// reconciliation adds up.
#[derive(Debug, Clone, Copy)]
pub struct BuildTiming {
    /// The whole build, matrix to container bytes.
    pub wall_s: f64,
    /// `BuildStats::plan_time`: shard split and reorder assignment.
    pub plan_s: f64,
    /// `BuildStats::wall_time`: the per-shard stage execution.
    pub stages_s: f64,
    /// Reorder + grammar + encode time summed over shards.
    pub busy_s: f64,
    /// Plan compilation (`prewarm_with`, f64 plans).
    pub plans_s: f64,
    /// `to_bytes_with_plans`.
    pub write_s: f64,
}

/// The full build: `Pipeline::build` → `ShardedModel::from_artifacts`
/// → plan compilation (`prewarm_with`, f64 plans) →
/// `to_bytes_with_plans`, with one span per step under a `build` span.
pub fn build_container(pipeline: &Pipeline, csrv: &CsrvMatrix, config: &BuildConfig) -> Built {
    let t0 = Instant::now();
    let root = trace::span("build", 0, 0);
    let artifacts = {
        let _s = trace::span("pipeline.build", root.id(), 0);
        pipeline.build(csrv, config)
    };
    let stats = artifacts.stats.clone();
    let model = ShardedModel::from_artifacts(artifacts);
    let t_plans = Instant::now();
    {
        let _s = trace::span("build.plans", root.id(), 0);
        model.prewarm_with(1, &ServeOptions::planned());
    }
    let t_write = Instant::now();
    let bytes = {
        let _s = trace::span("container.write", root.id(), 0);
        model.to_bytes_with_plans()
    };
    drop(root);
    let t_end = Instant::now();
    let (reorder, grammar, encode) = stats.stage_cpu_totals();
    let timing = BuildTiming {
        wall_s: (t_end - t0).as_secs_f64(),
        plan_s: stats.plan_time.as_secs_f64(),
        stages_s: stats.wall_time.as_secs_f64(),
        busy_s: (reorder + grammar + encode).as_secs_f64(),
        plans_s: (t_write - t_plans).as_secs_f64(),
        write_s: (t_end - t_write).as_secs_f64(),
    };
    Built {
        bytes,
        stats,
        stored_bytes: model.stored_bytes(),
        plan_heap_bytes: model.plan_heap_bytes(),
        timing,
    }
}

/// An edit of a few rows of one shard (chosen from the seed) that only
/// reuses a value the dictionary already holds: a handful of empty cells
/// are filled with row 0's first non-zero. The value dictionary keeps
/// its order, so every other shard's fingerprint is unchanged and an
/// incremental rebuild must rebuild exactly one shard.
pub fn edit_one_shard(input: &Input) -> Result<(DenseMatrix, usize), String> {
    let plan = Plan::new(&input.csrv, &input.config);
    let shard = (input.seed % plan.num_shards() as u64) as usize;
    let start: usize = plan.shards[..shard].iter().map(|s| s.csrv.rows()).sum();
    let end = start + plan.shards[shard].csrv.rows();
    let mut edited = input.dense.clone();
    let reused = (0..edited.cols())
        .map(|c| edited.get(0, c))
        .find(|v| *v != 0.0)
        .ok_or("row 0 holds no non-zero to reuse")?;
    let mut edits = 0;
    'fill: for r in start.max(1)..end {
        for c in 0..edited.cols() {
            if edited.get(r, c) == 0.0 {
                edited.set(r, c, reused);
                edits += 1;
                if edits == 4 {
                    break 'fill;
                }
            }
        }
    }
    if edits == 0 {
        return Err(format!("shard {shard} has no empty cell to fill"));
    }
    Ok((edited, shard))
}

/// SplitMix64: the benchmark's seeded source of request shapes and vectors.
pub fn splitmix(z: u64) -> u64 {
    let z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded vector of `n` small positive values.
pub fn seeded_vec(n: usize, seed: u64) -> Vec<f64> {
    let mut s = seed;
    (0..n)
        .map(|_| {
            s = splitmix(s);
            (s % 17) as f64 * 0.25 + 0.125
        })
        .collect()
}

/// Largest absolute difference over the largest absolute reference value.
pub fn rel_err(got: &[f64], want: &[f64]) -> f64 {
    if got.len() != want.len() {
        return f64::INFINITY;
    }
    let scale = want.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-300);
    got.iter()
        .zip(want)
        .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()))
        / scale
}

pub fn bits_equal(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Checks `model`'s right and left products against the dense oracle.
pub fn matches_dense(model: &ShardedModel, dense: &DenseMatrix, seed: u64) -> bool {
    let x = seeded_vec(dense.cols(), seed);
    let y = seeded_vec(dense.rows(), seed ^ 1);
    let mut want_y = vec![0.0; dense.rows()];
    let mut want_x = vec![0.0; dense.cols()];
    let mut got_y = vec![0.0; dense.rows()];
    let mut got_x = vec![0.0; dense.cols()];
    dense.right_multiply(&x, &mut want_y).is_ok()
        && dense.left_multiply(&y, &mut want_x).is_ok()
        && model.right_multiply_panel(1, &x, &mut got_y).is_ok()
        && model.left_multiply_panel(1, &y, &mut got_x).is_ok()
        && rel_err(&got_y, &want_y) <= REL_TOL
        && rel_err(&got_x, &want_x) <= REL_TOL
}
