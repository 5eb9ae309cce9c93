//! Prepared vectorized execution: plan once per template, execute per
//! binding batch.
//!
//! The execution-based cost types (`ActualCardinality`,
//! `ExecutionTimeMicros`) need `Database::execute`'s *numbers* — output
//! cardinality and the deterministic work-unit count — not its rows.
//! Executing each instantiation from scratch repeats per-binding work
//! that cannot depend on the bindings: planning, predicate
//! classification, uncorrelated-subquery execution, and (worst of all)
//! materializing every scanned row as a `Vec<Value>` just to count the
//! survivors.
//!
//! [`PreparedExec`] runs on the [`PreparedTemplate`] the recost path
//! already holds, so each template is classified and access-path-costed
//! once: [`PreparedExec::prepare`] picks one of two tiers, and
//! [`PreparedExec::execute_batch`] evaluates a whole [`BindingBatch`]
//! against it, returning per-row `(cardinality, work_micros)` results
//! that are **bit-identical** to instantiating and executing each row
//! through the scalar path (a `debug_assertions` cross-check verifies
//! exactly that on every batch).
//!
//! ### Tiers
//!
//! * **Columnar** — statements whose recost skeleton is a single scan
//!   (no joins, subqueries, residuals, grouping, `HAVING`, or
//!   `DISTINCT`), whose `WHERE` conjuncts are all simple
//!   comparisons/`BETWEEN`s over numeric storage columns, and whose
//!   projections are wildcard/column/literal with bare-column `ORDER BY`
//!   keys. Each batch is recost once through
//!   [`PreparedTemplate::recost_batch`], which records every row's
//!   winning access path; the tier runs that scan and evaluates the
//!   binding-dependent filters as *selection vectors* over the table's
//!   column-major storage ([`crate::storage::Column::int_view`]/
//!   [`float_view`]) in chunked, autovectorization-friendly lane loops —
//!   no row materialization, no `Value` clones, no allocation on the
//!   warm path.
//! * **Hoisted** — everything else. Placeholder-free subqueries are
//!   executed **once** at prepare time and their results injected into
//!   every per-row execution; a template with a placeholder-bearing
//!   subquery hoists nothing, and each row collects its own subqueries
//!   exactly as `executor::execute` does. Rows instantiate and run
//!   through the row-at-a-time executor.
//!
//! ### Work accounting
//!
//! The columnar tier never runs the row executor, so it must *account*
//! for the work units the executor would have charged: rows scanned
//! (all rows for a seq scan, the index-probe slice for an index scan),
//! plus the output phase's sort and projection charges on the filtered
//! row count. The access path is the recost's own seq-vs-index argmin —
//! the planner's choice, bit for bit — so the tier charges the same scan
//! the executor would have run.
//!
//! [`float_view`]: crate::storage::Column::float_view

use crate::catalog::Database;
use crate::engine::WORK_UNIT_MICROS;
use crate::error::DbError;
use crate::estimator::flip;
use crate::executor;
use crate::expr_eval::SubqueryResults;
use crate::planner;
use crate::prepared::{BindingBatch, PreparedTemplate, RecostScratch};
use crate::storage::{DataType, Table};
use sqlkit::{BinaryOp, Expr, Value};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

/// Lane width of the chunked predicate kernels. 64 boolean lanes fit in
/// a cache line and give the compiler a fixed-trip-count inner loop to
/// autovectorize; the scalar tail handles the final partial chunk.
const LANES: usize = 64;

/// Per-row outcome of a batch execution: `(cardinality, work_micros)`,
/// or the error the scalar instantiate-and-execute path would return.
pub type ExecRowResult = Result<(f64, f64), DbError>;

/// Caller-owned arena of reusable buffers for
/// [`PreparedExec::execute_batch`]. Holding it across batches keeps the
/// warm path allocation-free: buffers are cleared, never dropped, so
/// steady-state batches reuse capacity from earlier ones.
#[derive(Debug, Default)]
pub struct ExecScratch {
    /// Per-row `(cardinality, work_micros)` or error — the return slice.
    results: Vec<ExecRowResult>,
    /// Selection vector: storage row ids passing the conjuncts so far.
    selection: Vec<u32>,
    /// Rows the columnar kernels cannot take (non-numeric bound values).
    fallback: Vec<bool>,
    /// Per-row binding map, rebuilt only for rows the executor runs.
    row_bindings: HashMap<u32, Value>,
    /// The columnar tier's recost arena, holding each row's access path.
    recost: RecostScratch,
}

impl ExecScratch {
    /// Fresh scratch; equivalent to `ExecScratch::default()`.
    pub fn new() -> ExecScratch {
        ExecScratch::default()
    }
}

/// Where a conjunct's comparison value comes from at execution time.
#[derive(Debug, Clone)]
enum ValueSource {
    /// A placeholder, resolved to a batch column per batch.
    Slot(u32),
    /// A literal, fixed at prepare time (`Int`/`Float`/`Null` only).
    Const(Value),
}

impl ValueSource {
    /// The value this source takes in `row`.
    fn resolve<'a>(&'a self, batch: &'a BindingBatch, row: usize) -> &'a Value {
        match self {
            ValueSource::Slot(id) => {
                batch.value(batch.column_of(*id), row)
            }
            ValueSource::Const(v) => v,
        }
    }
}

/// Kernel shape of one columnar-tier conjunct.
#[derive(Debug, Clone)]
enum Tier1Kind {
    /// `column op value` — or the flipped orientation, with `op` already
    /// flipped at prepare time so it reads column-first.
    Cmp { op: BinaryOp, value: ValueSource },
    /// `column [NOT] BETWEEN low AND high`.
    Between { negated: bool, low: ValueSource, high: ValueSource },
}

/// One `WHERE` conjunct of a columnar-tier template.
#[derive(Debug, Clone)]
struct Tier1Conjunct {
    /// Column name, for index lookups.
    name: String,
    /// Storage column index in the table.
    col: usize,
    kind: Tier1Kind,
}

/// The columnar tier: the scan's kernel-lowered conjuncts, in the
/// recost skeleton's order (so a recorded access path indexes them), and
/// the output phase's charges.
#[derive(Debug, Clone)]
struct Tier1 {
    table: String,
    limit: Option<u64>,
    /// `ORDER BY` charges one work unit per sorted record.
    charge_order_by: bool,
    conjuncts: Vec<Tier1Conjunct>,
}

/// Subquery results executed at prepare time and the work units their
/// execution charged, or the error `collect_subquery_results` reported.
type Hoisted = Result<(SubqueryResults, u64), DbError>;

/// The hoisted tier.
#[derive(Debug, Clone)]
struct Tier2 {
    /// `None` when a subquery holds placeholders: its result changes per
    /// row, so each row collects its own.
    hoisted: Option<Hoisted>,
}

#[derive(Debug, Clone)]
enum Tier {
    Columnar(Tier1),
    Hoisted(Tier2),
}

/// A prepared template classified once, executable per binding batch.
#[derive(Debug, Clone)]
pub struct PreparedExec {
    plan: Arc<PreparedTemplate>,
    tier: Tier,
}

impl PreparedExec {
    /// Classify a prepared template into its execution tier. Infallible:
    /// anything the columnar tier cannot prove count-exact takes the
    /// hoisted tier.
    pub fn prepare(db: &Database, plan: Arc<PreparedTemplate>) -> PreparedExec {
        let tier = match Tier1::try_prepare(db, &plan) {
            Some(tier1) => Tier::Columnar(tier1),
            None => Tier::Hoisted(Tier2::prepare(db, &plan)),
        };
        PreparedExec { plan, tier }
    }

    /// Sorted placeholder ids.
    pub fn placeholder_ids(&self) -> &[u32] {
        self.plan.placeholder_ids()
    }

    /// The execution tier this template classified into: `"columnar"` or
    /// `"hoisted"`.
    pub fn tier(&self) -> &'static str {
        match self.tier {
            Tier::Columnar(_) => "columnar",
            Tier::Hoisted(_) => "hoisted",
        }
    }

    /// Execute the template for every batch row, returning per-row
    /// `(cardinality, work_micros)` results bit-identical to
    /// `db.execute(&template.instantiate(row)?)` — including errors
    /// (compared by value; `DbError` is `PartialEq`).
    ///
    /// The batch-level error mirrors [`PreparedTemplate::recost_batch`]:
    /// a batch missing a placeholder column reports the smallest unbound
    /// id. Extra batch columns are ignored.
    // detlint::hot
    pub fn execute_batch<'s>(
        &self,
        db: &Database,
        batch: &BindingBatch,
        scratch: &'s mut ExecScratch,
    ) -> Result<&'s [ExecRowResult], DbError> {
        // Ids are sorted ascending, so the first gap found is the
        // smallest missing id.
        for id in self.plan.placeholder_ids() {
            if batch.ids().binary_search(id).is_err() {
                return Err(DbError::UnboundPlaceholder(*id));
            }
        }
        scratch.results.clear();
        match &self.tier {
            Tier::Columnar(tier1) => tier1.run(&self.plan, db, batch, scratch)?,
            Tier::Hoisted(tier2) => tier2.run(&self.plan, db, batch, scratch),
        }

        // Ground truth cross-check: every row must match the scalar
        // instantiate-and-execute path bit-for-bit.
        #[cfg(debug_assertions)]
        {
            let mut map = HashMap::new();
            for row in 0..batch.len() {
                batch.fill_row_map(row, &mut map);
                let expected = match self.plan.template().instantiate(&map) {
                    Ok(select) => db
                        .execute(&select)
                        .map(|r| (r.cardinality() as f64, r.work_micros())),
                    Err(e) => Err(DbError::Unsupported(e.to_string())),
                };
                match (&expected, &scratch.results[row]) {
                    (Ok((card_s, work_s)), Ok((card_b, work_b))) => {
                        debug_assert_eq!(
                            card_b.to_bits(),
                            card_s.to_bits(),
                            "batch execute cardinality diverged from scalar at \
                             row {row}: {card_b} vs {card_s}",
                        );
                        debug_assert_eq!(
                            work_b.to_bits(),
                            work_s.to_bits(),
                            "batch execute work diverged from scalar at row \
                             {row}: {work_b} vs {work_s}",
                        );
                    }
                    (expected, got) => debug_assert_eq!(
                        got, expected,
                        "batch execute result diverged from scalar at row {row}",
                    ),
                }
            }
        }
        Ok(&scratch.results)
    }
}

/// Instantiate one row and run it through the row executor: the hoisted
/// tier's row body, and the columnar tier's path for rows its kernels
/// cannot take. `hoisted` supplies prepare-time subquery results; `None`
/// collects them per row, exactly as `executor::execute` does.
fn execute_row(
    db: &Database,
    plan: &PreparedTemplate,
    hoisted: Option<&Hoisted>,
    bindings: &HashMap<u32, Value>,
) -> ExecRowResult {
    let select = plan
        .template()
        .instantiate(bindings)
        .map_err(|e| DbError::Unsupported(e.to_string()))?;
    let (mut work, cached) = match hoisted {
        None => (0, None),
        // Work starts at the hoisted subqueries' charge: the counter is a
        // sum, so charging it up front is identical to the scalar path's
        // interleaved accounting.
        Some(Ok((results, sub_work))) => (*sub_work, Some(results)),
        // The scalar path plans before collecting subqueries, so plan
        // errors take precedence over the captured collection error.
        Some(Err(e)) => {
            planner::plan(db, &select)?;
            return Err(e.clone());
        }
    };
    let (_, rows) = executor::execute_with(db, &select, cached, &mut work)?;
    Ok((rows.len() as f64, work as f64 * WORK_UNIT_MICROS))
}

impl Tier2 {
    fn prepare(db: &Database, plan: &PreparedTemplate) -> Tier2 {
        // Placeholder-free subquery bodies have binding-invariant results
        // and work charges; one placeholder anywhere leaves collection to
        // each row.
        let select = plan.template().select();
        let hoisted = select.subqueries().iter().all(|s| !s.has_placeholders()).then(|| {
            let mut work = 0u64;
            executor::collect_subquery_results(db, select, &mut work)
                .map(|results| (results, work))
        });
        Tier2 { hoisted }
    }

    fn run(
        &self,
        plan: &PreparedTemplate,
        db: &Database,
        batch: &BindingBatch,
        scratch: &mut ExecScratch,
    ) {
        for row in 0..batch.len() {
            batch.fill_row_map(row, &mut scratch.row_bindings);
            let result = execute_row(db, plan, self.hoisted.as_ref(), &scratch.row_bindings);
            scratch.results.push(result);
        }
    }
}

impl Tier1 {
    /// Admit a prepared template into the columnar tier. Returns `None`
    /// for any shape the kernels cannot reproduce count-exactly; the
    /// caller then takes the hoisted tier.
    fn try_prepare(db: &Database, plan: &PreparedTemplate) -> Option<Tier1> {
        let (table_name, filters) = plan.single_scan()?;
        // The output phase must be count-preserving and error-free for
        // any numeric/null binding: wildcard/column/literal projections
        // and bare-column sort keys cannot fail evaluation.
        let select = plan.template().select();
        for item in &select.projections {
            match &item.expr {
                Expr::Wildcard | Expr::Column(_) | Expr::Literal(_) => {}
                _ => return None,
            }
        }
        for item in &select.order_by {
            if !matches!(item.expr, Expr::Column(_)) {
                return None;
            }
        }
        let table = db.table(table_name).ok()?;
        let conjuncts = filters.map(|expr| kernelable(table, expr)).collect::<Option<_>>()?;
        Some(Tier1 {
            table: table_name.to_string(),
            limit: select.limit,
            charge_order_by: !select.order_by.is_empty(),
            conjuncts,
        })
    }

    fn run(
        &self,
        plan: &PreparedTemplate,
        db: &Database,
        batch: &BindingBatch,
        scratch: &mut ExecScratch,
    ) -> Result<(), DbError> {
        let ExecScratch { results, selection, fallback, row_bindings, recost } = scratch;
        let n = batch.len();
        let Ok(table) = db.table(&self.table) else {
            // Unreachable for a database the template prepared against;
            // reproduce whatever the scalar path reports.
            for row in 0..n {
                batch.fill_row_map(row, row_bindings);
                results.push(execute_row(db, plan, None, row_bindings));
            }
            return Ok(());
        };
        let n_rows = table.row_count();

        // Every row's access path, from the recost's seq-vs-index argmin
        // over the same conjuncts in the same order.
        plan.recost_batch(db, batch, recost)?;
        let access_paths = recost.access_paths();

        // Rows binding a non-numeric, non-null value take the row
        // executor: the planner's validation rejects such literals with
        // a `TypeMismatch` the kernels cannot reproduce.
        fallback.clear();
        fallback.resize(n, false);
        for id in plan.placeholder_ids() {
            let col = batch.column_of(*id);
            for (row, flag) in fallback.iter_mut().enumerate() {
                if matches!(batch.value(col, row), Value::Bool(_) | Value::Str(_)) {
                    *flag = true;
                }
            }
        }

        for row in 0..n {
            if fallback[row] {
                batch.fill_row_map(row, row_bindings);
                results.push(execute_row(db, plan, None, row_bindings));
                continue;
            }

            // Candidate enumeration + selection-vector filtering.
            let (candidates, selected) = if self.conjuncts.is_empty() {
                (n_rows, n_rows)
            } else {
                match access_paths[row] {
                    None => {
                        // Sequential scan: the executor visits every row.
                        let pred = pred_for(&self.conjuncts[0], table, batch, row);
                        fill_range_pred(&pred, n_rows, selection);
                        for conjunct in &self.conjuncts[1..] {
                            let pred = pred_for(conjunct, table, batch, row);
                            retain_pred(&pred, selection);
                        }
                        (n_rows, selection.len())
                    }
                    Some(w) => {
                        // Index scan: the executor visits the probe
                        // slice, then re-evaluates the *full* filter on
                        // every candidate.
                        let conjunct = &self.conjuncts[w];
                        let (lo, hi) = probe_bounds(conjunct, batch, row);
                        let index = db
                            .index_on(&self.table, &conjunct.name)
                            .expect("an index-scan access path implies the index exists");
                        let slice = index.probe_slice(lo, hi);
                        selection.clear();
                        selection.extend(slice.iter().map(|&(_, row_id)| row_id));
                        for conjunct in &self.conjuncts {
                            let pred = pred_for(conjunct, table, batch, row);
                            retain_pred(&pred, selection);
                        }
                        (slice.len(), selection.len())
                    }
                }
            };

            // Work accounting mirrors `executor`: the scan charges its
            // candidates; the output phase charges the filtered rows
            // once for the sort (when ordered) and once for projection.
            let mut work = candidates as u64;
            if self.charge_order_by {
                work += selected as u64;
            }
            work += selected as u64;
            let cardinality = match self.limit {
                Some(limit) => selected.min(limit as usize),
                None => selected,
            };
            results.push(Ok((cardinality as f64, work as f64 * WORK_UNIT_MICROS)));
        }
        Ok(())
    }
}

/// Recognize one conjunct as kernel-executable: a comparison or
/// `BETWEEN` whose column is a numeric *storage* column of the scanned
/// table and whose non-column operands are placeholders or
/// `Int`/`Float`/`Null` literals — the recost skeleton's fast shapes,
/// tightened to what the execution kernels reproduce exactly.
fn kernelable(table: &Table, expr: &Expr) -> Option<Tier1Conjunct> {
    let source_of = |e: &Expr| match e {
        Expr::Placeholder(id) => Some(ValueSource::Slot(*id)),
        Expr::Literal(v @ (Value::Int(_) | Value::Float(_) | Value::Null)) => {
            Some(ValueSource::Const(v.clone()))
        }
        _ => None,
    };
    let (name, kind) = match expr {
        Expr::Binary { left, op, right } if op.is_comparison() => {
            let (column, op, value) = match (left.as_ref(), right.as_ref()) {
                (Expr::Column(column), rhs) => (column, *op, source_of(rhs)?),
                (lhs, Expr::Column(column)) => (column, flip(*op), source_of(lhs)?),
                _ => return None,
            };
            (column.column.clone(), Tier1Kind::Cmp { op, value })
        }
        Expr::Between { expr: target, negated, low, high } => {
            let Expr::Column(column) = target.as_ref() else { return None };
            (
                column.column.clone(),
                Tier1Kind::Between {
                    negated: *negated,
                    low: source_of(low)?,
                    high: source_of(high)?,
                },
            )
        }
        _ => return None,
    };
    let col = table.column_index(&name)?;
    if !matches!(
        table.columns[col].data_type(),
        DataType::Int | DataType::Float
    ) {
        return None;
    }
    Some(Tier1Conjunct { name, col, kind })
}

/// Index-probe bounds of the winning conjunct, replaying
/// `planner::indexable_bounds` on the bound values: `=` gives a point
/// range, `<`/`<=` an upper bound, `>`/`>=` a lower bound, `BETWEEN`
/// both. The recost only picks an index scan when every needed value is
/// numeric.
fn probe_bounds(
    conjunct: &Tier1Conjunct,
    batch: &BindingBatch,
    row: usize,
) -> (Option<f64>, Option<f64>) {
    match &conjunct.kind {
        Tier1Kind::Cmp { op, value } => {
            let v = value.resolve(batch, row).as_f64();
            match op {
                BinaryOp::Eq => (v, v),
                BinaryOp::Gt | BinaryOp::GtEq => (v, None),
                BinaryOp::Lt | BinaryOp::LtEq => (None, v),
                _ => unreachable!("probe decision rejects other operators"),
            }
        }
        Tier1Kind::Between { low, high, .. } => (
            low.resolve(batch, row).as_f64(),
            high.resolve(batch, row).as_f64(),
        ),
    }
}

// ---- predicate kernels ----------------------------------------------

/// One conjunct lowered to a monomorphic row predicate over a column
/// view for one batch row. Numeric comparisons reproduce
/// `Value::total_cmp` exactly: `Int`-vs-`Int` compares as `i64`, any
/// other numeric mix as `f64` with `partial_cmp` falling back to
/// `Equal` (the NaN convention); a NULL cell or NULL operand never
/// passes (the evaluator's three-valued logic collapses to false under
/// `eval_filter`).
#[derive(Debug)]
enum Pred<'a> {
    /// `Int` column vs `Int` operand.
    CmpII { values: &'a [i64], valid: &'a [bool], op: BinaryOp, b: i64 },
    /// `Int` column vs `Float` operand.
    CmpIF { values: &'a [i64], valid: &'a [bool], op: BinaryOp, b: f64 },
    /// `Float` column vs numeric operand.
    CmpFF { values: &'a [f64], valid: &'a [bool], op: BinaryOp, b: f64 },
    /// `Int` column `[NOT] BETWEEN`, each bound kept in its own domain.
    BetweenInt {
        values: &'a [i64],
        valid: &'a [bool],
        lo: IntBound,
        hi: IntBound,
        negated: bool,
    },
    /// `Float` column `[NOT] BETWEEN`.
    BetweenFloat {
        values: &'a [f64],
        valid: &'a [bool],
        lo: f64,
        hi: f64,
        negated: bool,
    },
    /// A NULL operand: no row passes, negated or not.
    Nothing,
}

/// One `BETWEEN` bound against an `Int` column: an `Int` bound compares
/// in `i64`, a `Float` bound in `f64` — exactly `Value::total_cmp`.
#[derive(Debug, Clone, Copy)]
enum IntBound {
    I(i64),
    F(f64),
}

/// `f64` ordering with the evaluator's NaN convention.
#[inline(always)]
fn fcmp(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b).unwrap_or(Ordering::Equal)
}

/// Ordering of an `Int` cell against a `BETWEEN` bound.
#[inline(always)]
fn ibcmp(v: i64, bound: IntBound) -> Ordering {
    match bound {
        IntBound::I(b) => v.cmp(&b),
        IntBound::F(b) => fcmp(v as f64, b),
    }
}

/// The evaluator's comparison-operator truth table over an ordering.
#[inline(always)]
fn ord_ok(op: BinaryOp, ordering: Ordering) -> bool {
    match op {
        BinaryOp::Eq => ordering == Ordering::Equal,
        BinaryOp::NotEq => ordering != Ordering::Equal,
        BinaryOp::Lt => ordering == Ordering::Less,
        BinaryOp::LtEq => ordering != Ordering::Greater,
        BinaryOp::Gt => ordering == Ordering::Greater,
        BinaryOp::GtEq => ordering != Ordering::Less,
        _ => unreachable!("kernels only admit comparison operators"),
    }
}

/// Lower one conjunct to its row predicate for `row`'s bound values.
fn pred_for<'a>(
    conjunct: &Tier1Conjunct,
    table: &'a Table,
    batch: &BindingBatch,
    row: usize,
) -> Pred<'a> {
    let column = &table.columns[conjunct.col];
    match &conjunct.kind {
        Tier1Kind::Cmp { op, value } => {
            let value = value.resolve(batch, row).clone();
            if let Some((values, valid)) = column.int_view() {
                match value {
                    Value::Int(b) => Pred::CmpII { values, valid, op: *op, b },
                    Value::Float(b) => Pred::CmpIF { values, valid, op: *op, b },
                    // NULL never matches; Bool/Str rows took the row
                    // executor before reaching the kernels.
                    _ => Pred::Nothing,
                }
            } else if let Some((values, valid)) = column.float_view() {
                match value.as_f64() {
                    Some(b) => Pred::CmpFF { values, valid, op: *op, b },
                    None => Pred::Nothing,
                }
            } else {
                unreachable!("tier admission requires a numeric storage column")
            }
        }
        Tier1Kind::Between { negated, low, high } => {
            let lo = low.resolve(batch, row).clone();
            let hi = high.resolve(batch, row).clone();
            if lo.is_null() || hi.is_null() {
                // A NULL bound makes the whole predicate NULL → false.
                return Pred::Nothing;
            }
            if let Some((values, valid)) = column.int_view() {
                let bound = |v: &Value| match v {
                    Value::Int(b) => IntBound::I(*b),
                    Value::Float(b) => IntBound::F(*b),
                    _ => unreachable!("fallback guard admits only numeric bounds"),
                };
                Pred::BetweenInt {
                    values,
                    valid,
                    lo: bound(&lo),
                    hi: bound(&hi),
                    negated: *negated,
                }
            } else if let Some((values, valid)) = column.float_view() {
                let (Some(lo), Some(hi)) = (lo.as_f64(), hi.as_f64()) else {
                    unreachable!("fallback guard admits only numeric bounds")
                };
                Pred::BetweenFloat { values, valid, lo, hi, negated: *negated }
            } else {
                unreachable!("tier admission requires a numeric storage column")
            }
        }
    }
}

/// Expand `pred` into a monomorphic closure and run `$body` with it —
/// the match happens once per kernel invocation, outside the row loops,
/// so each instantiation is a tight loop over primitive slices.
macro_rules! with_pass {
    ($pred:expr, |$pass:ident| $body:expr) => {
        match $pred {
            Pred::CmpII { values, valid, op, b } => {
                let $pass =
                    |row: usize| valid[row] && ord_ok(*op, values[row].cmp(b));
                $body
            }
            Pred::CmpIF { values, valid, op, b } => {
                let $pass = |row: usize| {
                    valid[row] && ord_ok(*op, fcmp(values[row] as f64, *b))
                };
                $body
            }
            Pred::CmpFF { values, valid, op, b } => {
                let $pass =
                    |row: usize| valid[row] && ord_ok(*op, fcmp(values[row], *b));
                $body
            }
            Pred::BetweenInt { values, valid, lo, hi, negated } => {
                let $pass = |row: usize| {
                    valid[row] && {
                        let v = values[row];
                        let inside = ibcmp(v, *lo) != Ordering::Less
                            && ibcmp(v, *hi) != Ordering::Greater;
                        inside != *negated
                    }
                };
                $body
            }
            Pred::BetweenFloat { values, valid, lo, hi, negated } => {
                let $pass = |row: usize| {
                    valid[row] && {
                        let v = values[row];
                        let inside = fcmp(v, *lo) != Ordering::Less
                            && fcmp(v, *hi) != Ordering::Greater;
                        inside != *negated
                    }
                };
                $body
            }
            Pred::Nothing => {
                let $pass = |_row: usize| false;
                $body
            }
        }
    };
}

/// Fill the selection vector with every row id in `0..n_rows` passing
/// `pred`, in chunks of [`LANES`]: the lane loop writes plain booleans
/// (no data-dependent control flow, so it autovectorizes), and the
/// compaction loop appends the surviving ids.
fn fill_range_pred(pred: &Pred<'_>, n_rows: usize, selection: &mut Vec<u32>) {
    selection.clear();
    if matches!(pred, Pred::Nothing) {
        return;
    }
    with_pass!(pred, |pass| {
        let mut lanes = [false; LANES];
        let mut base = 0usize;
        while base < n_rows {
            let width = LANES.min(n_rows - base);
            for (lane, flag) in lanes[..width].iter_mut().enumerate() {
                *flag = pass(base + lane);
            }
            for (lane, flag) in lanes[..width].iter().enumerate() {
                if *flag {
                    selection.push((base + lane) as u32);
                }
            }
            base += width;
        }
    });
}

/// Keep only the selection-vector entries passing `pred` (gather +
/// filter over the already-selected row ids).
fn retain_pred(pred: &Pred<'_>, selection: &mut Vec<u32>) {
    if matches!(pred, Pred::Nothing) {
        selection.clear();
        return;
    }
    with_pass!(pred, |pass| {
        selection.retain(|&row| pass(row as usize));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlkit::parse_template;

    fn tpch() -> Database {
        crate::datagen::tpch::generate(crate::datagen::tpch::TpchConfig::tiny())
    }

    fn prepare(db: &Database, template: &sqlkit::Template) -> PreparedExec {
        let plan = PreparedTemplate::prepare(db, template).unwrap();
        PreparedExec::prepare(db, Arc::new(plan))
    }

    fn batch_of(ids: &[u32], rows: &[Vec<(u32, Value)>]) -> BindingBatch {
        let maps: Vec<HashMap<u32, Value>> =
            rows.iter().map(|r| r.iter().cloned().collect()).collect();
        BindingBatch::from_rows(ids, &maps).unwrap()
    }

    /// Build, execute, and verify one template against the scalar path.
    /// The heavy lifting is the `debug_assertions` cross-check inside
    /// `execute_batch` itself; this helper re-asserts explicitly so the
    /// tests also fail on release builds.
    fn assert_batch_matches_scalar(
        db: &Database,
        sql: &str,
        expected_tier: &str,
        rows: &[Vec<(u32, Value)>],
    ) {
        let template = parse_template(sql).unwrap();
        let prepared = prepare(db, &template);
        assert_eq!(prepared.tier(), expected_tier, "tier for {sql}");
        let ids = prepared.placeholder_ids().to_vec();
        let batch = batch_of(&ids, rows);
        let mut scratch = ExecScratch::new();
        let results = prepared.execute_batch(db, &batch, &mut scratch).unwrap();
        assert_eq!(results.len(), rows.len());
        for (row, result) in results.iter().enumerate() {
            let bindings: HashMap<u32, Value> = rows[row].iter().cloned().collect();
            let select = template.instantiate(&bindings).unwrap();
            let expected = db
                .execute(&select)
                .map(|r| (r.cardinality() as f64, r.work_micros()));
            match (&expected, result) {
                (Ok((card_s, work_s)), Ok((card_b, work_b))) => {
                    assert_eq!(card_b.to_bits(), card_s.to_bits(), "card row {row}");
                    assert_eq!(work_b.to_bits(), work_s.to_bits(), "work row {row}");
                }
                (expected, got) => assert_eq!(got, expected, "row {row}"),
            }
        }
    }

    #[test]
    fn columnar_seq_scan_matches_scalar() {
        let db = tpch();
        assert_batch_matches_scalar(
            &db,
            "SELECT l.l_orderkey FROM lineitem AS l WHERE l.l_quantity > {p_1}",
            "columnar",
            &[
                vec![(1, Value::Int(5))],
                vec![(1, Value::Int(25))],
                vec![(1, Value::Float(49.5))],
                vec![(1, Value::Int(-10))],
                vec![(1, Value::Null)],
            ],
        );
    }

    #[test]
    fn columnar_index_scan_matches_scalar() {
        let db = tpch();
        // o_orderkey is the primary key: point lookups flip to the index
        // path, wide ranges stay sequential — work must track the choice.
        assert_batch_matches_scalar(
            &db,
            "SELECT o.o_orderkey FROM orders AS o WHERE o.o_orderkey = {p_1}",
            "columnar",
            &[
                vec![(1, Value::Int(1))],
                vec![(1, Value::Int(500))],
                vec![(1, Value::Int(-3))],
            ],
        );
    }

    #[test]
    fn columnar_between_order_by_limit_matches_scalar() {
        let db = tpch();
        assert_batch_matches_scalar(
            &db,
            "SELECT o.o_orderkey, o.o_totalprice FROM orders AS o \
             WHERE o.o_totalprice BETWEEN {p_1} AND {p_2} \
             ORDER BY o.o_totalprice LIMIT 7",
            "columnar",
            &[
                vec![(1, Value::Float(100.0)), (2, Value::Float(50_000.0))],
                vec![(1, Value::Float(10_000.0)), (2, Value::Float(20_000.0))],
                // inverted (empty) and NULL-bound intervals
                vec![(1, Value::Float(9_000.0)), (2, Value::Float(1_000.0))],
                vec![(1, Value::Null), (2, Value::Float(1_000.0))],
            ],
        );
    }

    #[test]
    fn columnar_multi_conjunct_matches_scalar() {
        let db = tpch();
        assert_batch_matches_scalar(
            &db,
            "SELECT * FROM lineitem AS l \
             WHERE l.l_quantity > {p_1} AND l.l_extendedprice < {p_2} \
               AND l.l_orderkey > 10",
            "columnar",
            &[
                vec![(1, Value::Int(10)), (2, Value::Float(20_000.0))],
                vec![(1, Value::Int(45)), (2, Value::Float(100.0))],
            ],
        );
    }

    #[test]
    fn bool_and_str_bindings_fall_back_to_scalar_path() {
        let db = tpch();
        // The instantiated statement fails plan-time type checking; the
        // batch must reproduce the same per-row error.
        assert_batch_matches_scalar(
            &db,
            "SELECT l.l_orderkey FROM lineitem AS l WHERE l.l_quantity > {p_1}",
            "columnar",
            &[
                vec![(1, Value::Bool(true))],
                vec![(1, Value::Str("x".into()))],
                vec![(1, Value::Int(30))],
            ],
        );
    }

    #[test]
    fn joins_and_aggregates_take_hoisted_tier() {
        let db = tpch();
        assert_batch_matches_scalar(
            &db,
            "SELECT c.c_name, SUM(o.o_totalprice) FROM customer AS c \
             JOIN orders AS o ON c.c_custkey = o.o_custkey \
             WHERE o.o_totalprice > {p_1} \
             GROUP BY c.c_name ORDER BY c.c_name LIMIT 5",
            "hoisted",
            &[
                vec![(1, Value::Float(1_000.0))],
                vec![(1, Value::Float(90_000.0))],
            ],
        );
    }

    #[test]
    fn fixed_subqueries_are_hoisted_out_of_the_row_loop() {
        let db = tpch();
        assert_batch_matches_scalar(
            &db,
            "SELECT c.c_name FROM customer AS c WHERE c.c_acctbal > {p_1} AND \
             EXISTS (SELECT orders.o_orderkey FROM orders \
                     WHERE orders.o_totalprice > 90000)",
            "hoisted",
            &[
                vec![(1, Value::Float(500.0))],
                vec![(1, Value::Float(-200.0))],
            ],
        );
    }

    #[test]
    fn dynamic_subqueries_take_the_hoisted_tier() {
        let db = tpch();
        assert_batch_matches_scalar(
            &db,
            "SELECT c.c_name FROM customer AS c WHERE c.c_custkey IN \
             (SELECT orders.o_custkey FROM orders \
              WHERE orders.o_totalprice > {p_1})",
            "hoisted",
            &[
                vec![(1, Value::Float(1_000.0))],
                vec![(1, Value::Float(100_000.0))],
            ],
        );
    }

    #[test]
    fn missing_binding_reports_smallest_unbound_id() {
        let db = tpch();
        let template = parse_template(
            "SELECT l.l_orderkey FROM lineitem AS l \
             WHERE l.l_quantity > {p_1} AND l.l_extendedprice < {p_2}",
        )
        .unwrap();
        let prepared = prepare(&db, &template);
        let batch = batch_of(&[2], &[vec![(2, Value::Float(100.0))]]);
        let mut scratch = ExecScratch::new();
        assert_eq!(
            prepared.execute_batch(&db, &batch, &mut scratch).unwrap_err(),
            DbError::UnboundPlaceholder(1)
        );
    }

    #[test]
    fn empty_batch_returns_empty_results() {
        let db = tpch();
        let template = parse_template(
            "SELECT l.l_orderkey FROM lineitem AS l WHERE l.l_quantity > {p_1}",
        )
        .unwrap();
        let prepared = prepare(&db, &template);
        let batch = BindingBatch::new(vec![1]);
        let mut scratch = ExecScratch::new();
        let results = prepared.execute_batch(&db, &batch, &mut scratch).unwrap();
        assert!(results.is_empty());
    }

    #[test]
    fn unfiltered_scan_counts_every_row() {
        let db = tpch();
        assert_batch_matches_scalar(
            &db,
            "SELECT * FROM region AS r",
            "columnar",
            &[vec![]],
        );
    }
}
