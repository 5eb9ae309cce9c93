//! # sqlbarber-bench — the paper's experiment harness
//!
//! One regeneration target per table and figure of the paper:
//!
//! | target | paper artifact |
//! |---|---|
//! | `figures table1` | Table 1 (benchmark overview) |
//! | `figures fig5` | Figure 5 (performance, cardinality) |
//! | `figures fig6` | Figure 6 (performance, plan cost) |
//! | `figures fig7` | Figure 7 (scalability) |
//! | `figures fig8a`+`fig8b` | Figure 8 (ablations) |
//! | `figures table2` | Table 2 (token usage & cost) |
//!
//! The `figures` binary prints the same rows/series the paper reports and
//! writes machine-readable JSON under `results/`. Absolute numbers differ
//! from the paper (the substrate is an in-memory simulator, not a 64-core
//! PostgreSQL server); the claims under reproduction are the *shapes* —
//! see EXPERIMENTS.md.

pub mod harness;

pub use harness::*;
