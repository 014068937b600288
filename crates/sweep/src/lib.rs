//! `daydream-sweep` — a parallel scenario-sweep engine for batch what-if
//! exploration.
//!
//! Daydream's core loop (paper §4) answers *one* "what if I applied
//! optimization X?" question per invocation. Practitioners sweep grids:
//! every model x optimization x batch size x bandwidth x cluster shape.
//! This crate makes that a first-class, fast path:
//!
//! 1. [`Scenario`] / [`OptSpec`] — one sweep point, covering the full
//!    `daydream_core::whatif` catalog with its parameter spaces.
//! 2. [`SweepGrid`] — named axes plus filters, expanded into a
//!    deterministic cartesian scenario list; inapplicable combinations
//!    (FusedAdam on SGD models, vDNN without convolutions) are dropped.
//! 3. [`SweepEngine`] — profiles each (model, batch) base once, shares
//!    it immutably, and evaluates scenarios on a std-threads
//!    work-stealing pool with a content-hash result cache
//!    ([`SweepCache`]), so overlapping sub-grids are free.
//! 4. [`SweepReport`] — outcomes ranked by predicted iteration time,
//!    best-per-axis winners, and the Pareto front of time vs. memory
//!    vs. communication cost; serializable to JSON and CSV.
//!
//! # Examples
//!
//! ```
//! use daydream_sweep::{SweepEngine, SweepGrid};
//!
//! let grid = SweepGrid::builder()
//!     .models(["ResNet-50"])
//!     .batches([4])
//!     .opts(["baseline", "amp"])
//!     .build();
//! let engine = SweepEngine::new(2);
//! let report = engine.run(&grid).unwrap();
//! assert_eq!(report.scenario_count, 2);
//! assert!(report.results[0].predicted_ns <= report.results[1].predicted_ns);
//!
//! // Overlapping re-runs hit the content-hash cache.
//! let again = engine.run(&grid).unwrap();
//! assert_eq!(again.cache_hits, 2);
//! ```

pub mod cache;
pub mod engine;
pub mod executor;
pub mod grid;
pub mod report;
pub mod scenario;
pub mod search;

pub use cache::{PatchCache, SweepCache};
pub use engine::{
    evaluate_trace, explain_scenario, Fidelity, OutcomeObserver, ResidentProfile, RunStats,
    SweepEngine, FIDELITY_TOLERANCE,
};
pub use executor::{parallel_map, ExecutorStats};
pub use grid::{SweepGrid, SweepGridBuilder};
pub use report::{AxisBest, ScenarioOutcome, SweepReport};
pub use scenario::{fnv1a64, OptSpec, Scenario};
pub use search::{
    near_miss_warnings, run_search, search_scenarios, PromotionRecord, RungStats, SearchConfig,
    SearchReport,
};
