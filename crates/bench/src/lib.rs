//! Benchmark harness for the Daydream reproduction.
//!
//! [`exhibits`] regenerates every table and figure of the paper's
//! evaluation (§6); the `figures` binary prints them and exports CSV under
//! `target/figures/`. Criterion microbenches for the core machinery live in
//! `benches/`.
//!
//! # Examples
//!
//! ```no_run
//! // Regenerate the AMP figure (Fig. 5) programmatically.
//! let table = daydream_bench::exhibits::fig5();
//! println!("{table}");
//! ```

pub mod exhibits;
pub mod synth;
pub mod util;

pub use util::{assert_no_allocs, profile_for, thread_alloc_bytes, thread_allocs, Table};
