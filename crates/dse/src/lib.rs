//! # tytra-dse — design-space exploration
//!
//! The use-case the cost model exists for (paper §I): "a compiler that
//! automatically creates and evaluates design variants for an HPC
//! kernel". This crate drives it:
//!
//! * [`search()`][search::search] — the one design-space engine: a lazy
//!   variant generator feeding work-stealing worker deques, each worker
//!   holding its own warm `EstimatorSession`. In
//!   [`SearchMode::Pruned`] an admissible analytic bound prunes variants
//!   that cannot fit the device or beat the incumbent before the full
//!   estimate runs; [`SearchMode::Exhaustive`] costs every legal variant
//!   and yields the same leaderboard bit for bit;
//! * [`select_best`] — the guided-optimisation choice: fastest EKIT
//!   among variants that fit the device and saturate no illegal
//!   constraint;
//! * [`lane_sweep`] — the Fig 15 experiment: utilisation per resource,
//!   throughput and wall identification as lanes scale;
//! * [`tune`] — the feedback loop the paper's bottleneck output enables:
//!   repeatedly relax the binding wall until no move helps.

pub mod report;
pub mod roofline;
pub mod search;
pub mod tuning;

pub use report::{
    lane_sweep, lane_sweep_session, render_latency_stats_line, render_prefilter_stats_line,
    render_search_leaderboard, render_search_stats_line, render_stats_line, LaneSweepRow,
};
pub use roofline::{roofline, RooflinePoint};
pub use search::{
    search, select_best, EvaluatedVariant, ExplorationConfig, InvalidVariant, SearchConfig,
    SearchMode, SearchOutcome, SearchStats,
};
pub use tuning::{tune, tune_session, TuningStep};
