//! # minidb — in-memory analytical DBMS substrate for SQLBarber-RS
//!
//! SQLBarber's paper evaluates against PostgreSQL v14.9: every generated
//! query is validated (`ValidateSyntax`) and costed (`EXPLAIN` estimated
//! cardinality / execution-plan cost) by the DBMS. This crate is a
//! self-contained stand-in exposing the same three capabilities:
//!
//! 1. **Syntax/semantic validation** with server-style error messages
//!    (`relation "foo" does not exist`, `column t.x does not exist`, …) —
//!    the feedback channel of Algorithm 1's check-and-rewrite loop;
//! 2. **`EXPLAIN`**: a cost-based planner with PostgreSQL-like parameters
//!    (`seq_page_cost`, `cpu_tuple_cost`, …) and a histogram/MCV-based
//!    cardinality estimator, returning estimated output rows and total
//!    plan cost — the cost oracle of §5;
//! 3. **Execution**: a row-at-a-time executor (scan → hash join →
//!    hash aggregate → sort/limit) returning real rows and wall time.
//!
//! It also ships deterministic generators for the paper's two datasets —
//! [`datagen::tpch`] (8 tables) and [`datagen::imdb`] (21 tables, JOB
//! schema) — at configurable laptop scale.
//!
//! What matters for reproducing the paper is not PostgreSQL bug-for-bug
//! compatibility but that plan cost and estimated cardinality respond
//! *smoothly and nonlinearly* to predicate values, so that profiling,
//! refinement, and Bayesian optimization face the same search landscape
//! the real system presents.
//!
//! ## Example
//!
//! ```
//! use minidb::datagen;
//! use sqlkit::parse_select;
//!
//! let db = datagen::tpch::generate(datagen::tpch::TpchConfig::tiny());
//! let query = parse_select(
//!     "SELECT COUNT(*) FROM lineitem WHERE lineitem.l_quantity > 25",
//! ).unwrap();
//! let explain = db.explain(&query).unwrap();
//! assert!(explain.total_cost > 0.0);
//! let result = db.execute(&query).unwrap();
//! assert_eq!(result.rows.len(), 1);
//! ```

pub mod catalog;
pub mod cost;
pub mod datagen;
pub mod engine;
pub mod error;
pub mod estimator;
pub mod exec;
pub mod executor;
pub mod explain;
pub mod expr_eval;
pub mod index;
mod int_sort;
pub mod plan;
pub mod planner;
pub mod prepared;
pub mod stats;
pub mod storage;

pub use catalog::{ColumnDef, Database, ForeignKey, TableSchema};
pub use cost::CostModel;
pub use engine::{QueryResult, WORK_UNIT_MICROS};
pub use error::DbError;
pub use exec::{ExecScratch, PreparedExec};
pub use explain::Explain;
pub use prepared::{BindingBatch, PreparedTemplate, RecostScratch};
pub use stats::{ColumnStats, TableStats};
pub use storage::{Column, DataType, Dictionary, Table, TextColumn};
