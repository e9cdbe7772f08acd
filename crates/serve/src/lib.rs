//! # gcm-serve — sharded model store and serving layer
//!
//! The paper motivates grammar-compressed matrices by storage and
//! server-to-client transmission costs; this crate is the serving side
//! of that story. It turns any in-memory backend — CSRV, row-block
//! parallel CSRV, grammar-compressed `(C, R, V)`, or row-block parallel
//! compressed — into a **persistent, sharded, restart-amortised model**:
//!
//! * [`Model`] wraps the four backends behind one enum with uniform
//!   panel-slice kernels and workspace budgets;
//! * [`ShardedModel`] splits a matrix row-wise across N shards and
//!   serves single-vector and batched products across them on the
//!   persistent thread pool, with per-shard [`gcm_matrix::Workspace`]
//!   reuse — zero steady-state allocation for single-threaded shard
//!   backends, from the first post-[`prewarm`](ShardedModel::prewarm)
//!   request on;
//! * the `GCMSERV1` [`container`] persists all of it (block structure,
//!   reorder permutations, 64-bit striped integrity checksum) with fully
//!   validating, panic-free loading, plus mmap-style selective shard
//!   decoding via [`ShardTable`];
//! * compiled execution plans ([`gcm_core::plan`]) are first-class at
//!   serve time: [`ServeOptions::planned`] makes
//!   [`prewarm`](ShardedModel::prewarm_with) compile every shard into
//!   branchless, division-free descriptors on the pool (opt-in —
//!   [`ShardedModel::plan_heap_bytes`] reports the memory price), and
//!   single-shard planned models parallelise right products across
//!   **row ranges** via the plan's CSR row index;
//! * [`ModelStore`] / [`Registry`] give containers names: a directory
//!   of `.gcms` files behind a load-once, prewarm, serve-many cache;
//! * the `gcm` binary (`src/bin/gcm.rs`) drives the whole pipeline from
//!   the command line: `compress`, `inspect`, `multiply`, `selftest`.
//!
//! Compression is paid once, at `compress`/`publish` time; every later
//! process start pays only a validated load. That seam — build
//! artefacts on one side, serving state on the other — is where async
//! front-ends, result caching, and multi-tenant placement plug in
//! (see `ROADMAP.md`).

pub mod container;
pub mod incremental;
pub mod metrics;
pub mod model;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod sharded;

pub use container::{ServeError, ShardTable};
pub use gcm_core::Precision;
pub use incremental::{compress_incremental, RebuildReport, ShardProvenance};
pub use model::{Backend, Model, ModelPlan};
pub use registry::{ModelStore, Registry};
pub use server::{Engine, Server, ServerConfig, ServerHandle};
pub use sharded::{BuildOptions, ServeOptions, ShardedModel};

/// Re-exported pipeline vocabulary: building goes through the staged
/// `gcm-pipeline` (serve is its consumer), and these types appear in
/// [`BuildOptions`] and the artifact-level API.
pub use gcm_pipeline::{
    BuildArtifacts, BuildConfig, EncodingChoice, GrammarChoice, GrammarStage, Pipeline, ReorderMode,
};
