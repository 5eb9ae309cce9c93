//! # sqlbarber — customized and realistic SQL workload generation
//!
//! Rust implementation of **SQLBarber** (Lao & Trummer, SIGMOD 2025): a
//! system that generates SQL workloads which are *customized* (templates
//! follow user-provided natural-language specifications) and *realistic*
//! (instantiated query costs match a target distribution derived from
//! production statistics).
//!
//! The two core components mirror the paper's §4 and §5:
//!
//! * [`template_gen`] — the **Customized SQL Template Generator**: schema
//!   summary, join-path sampling, prompt construction, LLM generation,
//!   and the iterative check-and-rewrite loop (Algorithm 1);
//! * the **Cost-Aware Query Generator**:
//!   [`profiler`] (§5.1, LHS profiling), [`refine`] (§5.2, Algorithm 2 —
//!   adaptive template refinement & pruning), and [`bo_search`] (§5.3,
//!   Algorithm 3 — BO-based predicate search), all costing through the
//!   shared [`oracle`] (memoized, thread-parallel `EXPLAIN`).
//!
//! [`driver`] wires everything into an end-to-end
//! [`driver::SqlBarber`] with ablation switches (used to reproduce the
//! paper's Figure 8b), and [`report`] collects the measurements every
//! figure of the paper is drawn from. [`cli`] turns the flags of the
//! `sqlbarber` and `figures` binaries into a [`SqlBarberConfig`].
//!
//! ## Quickstart
//!
//! ```
//! use sqlbarber::driver::{SqlBarber, SqlBarberConfig};
//! use workload::{CostIntervals, TargetDistribution};
//!
//! let db = minidb::datagen::tpch::generate(minidb::datagen::tpch::TpchConfig::tiny());
//! let target = TargetDistribution::uniform(CostIntervals::paper_default(5), 50);
//! let mut barber = SqlBarber::new(&db, SqlBarberConfig::fast_test());
//! let report = barber
//!     .generate(&workload::redset::redset_template_specs(1)[..4], &target,
//!               sqlbarber::cost::CostType::Cardinality)
//!     .unwrap();
//! assert!(!report.queries.is_empty());
//! ```

pub mod amplify;
pub mod bo_search;
pub mod cli;
pub mod cost;
pub mod driver;
pub mod join_path;
pub mod lockorder;
pub mod oracle;
pub mod profiler;
pub mod refine;
pub mod report;
pub mod sampler;
mod scheduler;
pub mod snapshot;
pub mod template_gen;

pub use amplify::{amplify_workload, AmplifyConfig, AmplifyStats};
pub use cost::CostType;
pub use driver::{
    CheckpointConfig, GenerateError, KillMode, KillPoint, KillSwitch, SqlBarber, SqlBarberConfig,
};
pub use oracle::{ColumnarScratch, CostOracle, OracleStats, PreparedHandle};
pub use report::GenerationReport;
