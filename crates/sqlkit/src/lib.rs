//! # sqlkit — SQL toolkit for SQLBarber-RS
//!
//! A self-contained SQL frontend covering the subset of SQL that SQLBarber
//! (Lao & Trummer, SIGMOD 2025) generates, validates, and instantiates:
//!
//! * an [`ast`] for `SELECT` statements with joins, aggregations, `GROUP
//!   BY`/`HAVING`, `ORDER BY`/`LIMIT`, nested subqueries, and rich scalar
//!   expressions;
//! * a hand-written [`lexer`] and recursive-descent [`parser`] with
//!   positioned error messages (these are the "DBMS error messages" fed back
//!   into the check-and-rewrite loop of Algorithm 1);
//! * a pretty-[`printer`] such that `parse(print(ast)) == ast`;
//! * [`template`]s: statements containing `{p_i}` placeholders that are
//!   instantiated into executable queries by substituting predicate values
//!   (Definitions 2.1–2.3 of the paper);
//! * structural [`features`] extraction (table/join/aggregation counts,
//!   nested-subquery detection, …) used to validate templates against
//!   user [`spec`]ifications (Definition 2.5).
//!
//! The crate is deliberately independent of the execution engine
//! (`minidb`) and of the generation pipeline (`sqlbarber`), so it can be
//! reused as a general template-manipulation library.
//!
//! ## Example
//!
//! ```
//! use sqlkit::{parse_template, Value};
//!
//! let template = parse_template(
//!     "SELECT o.o_custkey, SUM(o.o_totalprice) \
//!      FROM orders AS o WHERE o.o_totalprice > {p_1} \
//!      GROUP BY o.o_custkey",
//! ).unwrap();
//! assert_eq!(template.placeholders(), vec![1]);
//!
//! let price = Value::Float(500.0);
//! let query = template.instantiate(|id| (id == 1).then_some(&price)).unwrap();
//! assert!(query.to_string().contains("> 500"));
//!
//! let features = template.features();
//! assert_eq!(features.num_tables, 1);
//! assert_eq!(features.num_aggregations, 1);
//! assert!(features.has_group_by);
//! ```

pub mod ast;
pub mod error;
pub mod features;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod spec;
pub mod template;

pub use ast::{
    BinaryOp, ColumnRef, Expr, Join, JoinKind, OrderByItem, Select, SelectItem, TableRef, UnaryOp,
    Value,
};
pub use error::{ParseError, SqlError};
pub use features::TemplateFeatures;
pub use parser::{parse_select, parse_template};
pub use spec::{Instruction, SpecViolation, TemplateSpec};
pub use template::Template;
