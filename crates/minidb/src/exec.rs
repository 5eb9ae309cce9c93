//! Prepared vectorized execution: plan once per template, execute per
//! binding batch.
//!
//! The execution-based cost types (`ActualCardinality`,
//! `ExecutionTimeMicros`) need `Database::execute`'s *numbers* — output
//! cardinality and the deterministic work-unit count — not its rows.
//! Executing each instantiation from scratch repeats per-binding work
//! that cannot depend on the bindings: planning, predicate
//! classification, uncorrelated-subquery execution, and (worst of all)
//! materializing every scanned and joined row as a `Vec<Value>` just to
//! count what comes out.
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
//! * **Columnar** — a left-deep equi-join pipeline (a single scan is the
//!   one-relation case) plus an output phase the tier can count. Each
//!   batch is recost once through [`PreparedTemplate::recost_batch`],
//!   which records every row's access path per scan and its join order.
//!   Per row, each scan runs its recorded access path and evaluates the
//!   binding-dependent filters as *selection vectors* of row ids over
//!   the table's column-major storage ([`crate::storage::Column::int_view`]/
//!   [`float_view`]). Each conjunct is lowered once per row to an
//!   operator-specialized comparator; all of a scan's conjuncts AND into
//!   one bit mask per 64-row chunk, which a branch-free compaction turns
//!   into row ids. An unfiltered scan selects nothing: its input is the
//!   whole table. The joins then run in the recorded order on typed keys
//!   over those row ids: each builds a hash table on the next scan's
//!   selection and probes it with the tuples joined so far, keeping only
//!   the row ids a later join or the output phase reads. A build over an
//!   unfiltered scan does not depend on the bindings: the caller's
//!   [`ExecScratch`] keeps it for the following batches of the same plan.
//!   The output phase counts: distinct typed `GROUP BY` keys, distinct
//!   projected keys for `DISTINCT`, and the charges
//!   `executor::output_phase` makes. No row is materialized, no `Value`
//!   is cloned, and the warm path allocates nothing. Admission requires:
//!   - no subqueries, residual or leftover predicates, or `HAVING`;
//!   - `WHERE` conjuncts that are simple comparisons/`BETWEEN`s over
//!     numeric storage columns with placeholder or numeric/NULL literal
//!     operands;
//!   - join edges that form a tree (one equi-edge per join step, no
//!     cross products) over same-kind storage columns;
//!   - wildcard/column/literal projections, bare-column `GROUP BY` and
//!     `ORDER BY` keys, and only aggregates that cannot fail: `COUNT(*)`,
//!     `COUNT([DISTINCT] column)`, and `SUM`/`AVG`/`MIN`/`MAX` of a
//!     numeric column;
//!   - no `DISTINCT` on a grouped query.
//!
//!   Rows binding a `Bool` or `Str` value take the row executor (the
//!   planner rejects them with a `TypeMismatch` the kernels cannot
//!   reproduce).
//! * **Hoisted** — everything else. Placeholder-free subqueries are
//!   executed **once** at prepare time and their results injected into
//!   every per-row execution; a template with a placeholder-bearing
//!   subquery hoists nothing, and each row collects its own subqueries
//!   exactly as `executor::execute` does. Rows instantiate through the
//!   batch's row view ([`BindingBatch::row`]) and run through the
//!   row-at-a-time executor.
//!
//! ### Work accounting
//!
//! The columnar tier never runs the row executor, so it must *account*
//! for the work units the executor would have charged, charge for
//! charge:
//! - each scan charges its candidates (all rows for a seq scan, the
//!   index-probe slice for an index scan);
//! - each hash join charges its left plus right input rows, plus the
//!   match count of every non-NULL left key;
//! - grouping charges its input rows, `ORDER BY` and projection each
//!   charge the records, and `DISTINCT` charges the output rows.
//!
//! The access paths and join order are the recost's own replay of the
//! planner's choices, bit for bit, so the tier charges the plan the
//! executor would have run. Join and grouping keys reproduce
//! `executor::hash_key` equality: numbers compare as the bits of
//! `x as f64` with every NaN equal, strings by their bytes, and a NULL
//! join key never matches (a NULL grouping key is one group).
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
use crate::storage::{Column, DataType, Dictionary, Table};
use sqlkit::{BinaryOp, ColumnRef, Expr, Value};
use std::sync::{Arc, Weak};

/// Lane width of the predicate kernels: the rows of one chunk, one bit
/// each of its `u64` pass mask.
const LANES: usize = 64;

/// Most relations a columnar pipeline joins; larger statements take the
/// hoisted tier. Bounds the per-row table array, which lives on the
/// stack so the warm path stays allocation-free.
const MAX_SCANS: usize = 8;

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
    /// Rows the columnar kernels cannot take (non-numeric bound values).
    fallback: Vec<bool>,
    /// The columnar tier's recost arena, holding each row's access paths
    /// and join order.
    recost: RecostScratch,
    /// Selection vector per scan: storage row ids passing its conjuncts.
    selections: Vec<Selection>,
    /// Hash-join build table per scan, used when it is a join's right
    /// input.
    builds: Vec<JoinTable>,
    /// The plan the binding-invariant `builds` were made for. They
    /// outlive the batch: the next batch of the same plan reuses them.
    /// A `Weak` keeps the plan's allocation, so its address names no
    /// other plan while held, without keeping the plan alive.
    builds_for: Weak<PreparedTemplate>,
    /// The tuples joined so far and the next join's output, flat:
    /// `layout.len()` row ids per tuple, one per kept scan.
    tuples: Vec<u32>,
    next_tuples: Vec<u32>,
    /// Scan of each tuple position, for `tuples` and `next_tuples`.
    layout: Vec<usize>,
    next_layout: Vec<usize>,
    /// Tuple position of each kept left scan, for the join being run.
    keep: Vec<usize>,
    /// Tuple position of each output-phase key column.
    key_pos: Vec<usize>,
    /// Distinct-key counter of the output phase.
    distinct: DistinctSet,
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
            ValueSource::Slot(id) => batch.value(batch.column_of(*id), row),
            ValueSource::Const(v) => v,
        }
    }
}

/// Kernel shape of one columnar-tier conjunct.
#[derive(Debug, Clone)]
enum ConjunctKind {
    /// `column op value` — or the flipped orientation, with `op` already
    /// flipped at prepare time so it reads column-first.
    Cmp { op: BinaryOp, value: ValueSource },
    /// `column [NOT] BETWEEN low AND high`.
    Between { negated: bool, low: ValueSource, high: ValueSource },
}

/// One `WHERE` conjunct of a columnar-tier scan.
#[derive(Debug, Clone)]
struct ScanConjunct {
    /// Column name, for index lookups.
    name: String,
    /// Storage column index in the table.
    col: usize,
    kind: ConjunctKind,
}

/// One scan of the columnar pipeline: its kernel-lowered conjuncts, in
/// the recost skeleton's order (so a recorded access path indexes them).
#[derive(Debug, Clone)]
struct ScanStep {
    table: String,
    conjuncts: Vec<ScanConjunct>,
}

/// A storage column of one pipeline scan.
#[derive(Debug, Clone, Copy)]
struct ColumnAt {
    /// Scan (`FROM` binding) index, in scope order.
    scan: usize,
    /// Storage column index in that scan's table.
    col: usize,
}

/// One equi-join edge, `left = right`.
#[derive(Debug, Clone, Copy)]
struct Edge {
    left: ColumnAt,
    right: ColumnAt,
}

/// The columnar tier: the pipeline's scans and join edges, and the
/// output phase's counting rules.
#[derive(Debug, Clone)]
struct ColumnarPlan {
    scans: Vec<ScanStep>,
    /// A tree over the scans: every join step applies exactly one.
    edges: Vec<Edge>,
    /// Aggregates or `GROUP BY`: the output phase groups its input.
    grouped: bool,
    /// `GROUP BY` columns; empty on a grouped statement means one group.
    group_keys: Vec<ColumnAt>,
    /// `Some` iff `DISTINCT` applies (ungrouped): the projected storage
    /// columns (literals are the same on every row and drop out).
    distinct_keys: Option<Vec<ColumnAt>>,
    /// Bitmask of the scans `group_keys`/`distinct_keys` read.
    output_scans: u64,
    /// `ORDER BY` charges one work unit per sorted record.
    charge_order_by: bool,
    limit: Option<u64>,
}

/// Subquery results executed at prepare time and the work units their
/// execution charged, or the error `collect_subquery_results` reported.
type Hoisted = Result<(SubqueryResults, u64), DbError>;

/// The hoisted tier.
#[derive(Debug, Clone)]
struct HoistedPlan {
    /// `None` when a subquery holds placeholders: its result changes per
    /// row, so each row collects its own.
    hoisted: Option<Hoisted>,
}

#[derive(Debug, Clone)]
enum Tier {
    Columnar(ColumnarPlan),
    Hoisted(HoistedPlan),
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
        let tier = match ColumnarPlan::try_prepare(db, &plan) {
            Some(columnar) => Tier::Columnar(columnar),
            None => Tier::Hoisted(HoistedPlan::prepare(db, &plan)),
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
            Tier::Columnar(columnar) => columnar.run(&self.plan, db, batch, scratch)?,
            Tier::Hoisted(hoisted) => hoisted.run(&self.plan, db, batch, scratch),
        }

        // Ground truth cross-check: every row must match the scalar
        // instantiate-and-execute path bit-for-bit.
        #[cfg(debug_assertions)]
        {
            for row in 0..batch.len() {
                let expected = match self.plan.template().instantiate(batch.row(row)) {
                    Ok(select) => {
                        db.execute(&select).map(|r| (r.cardinality() as f64, r.work_micros()))
                    }
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
    batch: &BindingBatch,
    row: usize,
) -> ExecRowResult {
    let select = plan
        .template()
        .instantiate(batch.row(row))
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

impl HoistedPlan {
    fn prepare(db: &Database, plan: &PreparedTemplate) -> HoistedPlan {
        // Placeholder-free subquery bodies have binding-invariant results
        // and work charges; one placeholder anywhere leaves collection to
        // each row.
        let select = plan.template().select();
        let hoisted = select.subqueries().iter().all(|s| !s.has_placeholders()).then(|| {
            let mut work = 0u64;
            executor::collect_subquery_results(db, select, &mut work).map(|results| (results, work))
        });
        HoistedPlan { hoisted }
    }

    fn run(
        &self,
        plan: &PreparedTemplate,
        db: &Database,
        batch: &BindingBatch,
        scratch: &mut ExecScratch,
    ) {
        for row in 0..batch.len() {
            let result = execute_row(db, plan, self.hoisted.as_ref(), batch, row);
            scratch.results.push(result);
        }
    }
}

impl ColumnarPlan {
    /// Admit a prepared template into the columnar tier. Returns `None`
    /// for any shape the kernels cannot reproduce count-exactly; the
    /// caller then takes the hoisted tier.
    fn try_prepare(db: &Database, plan: &PreparedTemplate) -> Option<ColumnarPlan> {
        let pipeline = plan.pipeline()?;
        let k = pipeline.scans.len();
        if k > MAX_SCANS {
            return None;
        }
        let tables = pipeline
            .scans
            .iter()
            .map(|scan| db.table(scan.table).ok())
            .collect::<Option<Vec<&Table>>>()?;
        let scans = pipeline
            .scans
            .iter()
            .zip(&tables)
            .map(|(scan, table)| {
                let conjuncts = scan
                    .conjuncts
                    .iter()
                    .map(|expr| kernelable(table, expr))
                    .collect::<Option<_>>()?;
                Some(ScanStep { table: scan.table.to_string(), conjuncts })
            })
            .collect::<Option<Vec<_>>>()?;

        let column_at = |scan: usize, column: &ColumnRef| {
            let col = tables[scan].column_index(&column.column)?;
            Some(ColumnAt { scan, col })
        };
        // Key domain of a column: Int and Float keys compare as numbers.
        let kind_of = |at: ColumnAt| match tables[at.scan].columns[at.col].data_type() {
            DataType::Int | DataType::Float => DataType::Float,
            other => other,
        };
        let edges = pipeline
            .edges
            .iter()
            .map(|edge| {
                let left = column_at(edge.left, edge.left_column)?;
                let right = column_at(edge.right, edge.right_column)?;
                (kind_of(left) == kind_of(right)).then_some(Edge { left, right })
            })
            .collect::<Option<Vec<_>>>()?;
        // k - 1 edges that connect every scan form a tree: every join
        // step in a connected order applies exactly one, so the planner
        // emits a hash join with no residual at each. The greedy order
        // always picks a connected relation while one remains; the
        // syntactic order must be checked.
        if edges.len() + 1 != k || !connected_prefixes(k, &edges, pipeline.syntactic_order) {
            return None;
        }

        // The output phase must be count-preserving and error-free for
        // any numeric/null binding.
        let select = plan.template().select();
        let resolve = |column: &ColumnRef| {
            let scan = pipeline.scope.resolve(db, column).ok()?;
            column_at(scan, column)
        };
        let grouped = !select.group_by.is_empty() || planner::count_aggregates(select) > 0;
        if grouped && select.distinct {
            return None;
        }
        let output_column = |expr: &Expr| match expr {
            Expr::Column(column) => resolve(column).map(|_| ()),
            expr if grouped && infallible_aggregate(expr, &resolve, &kind_of) => Some(()),
            _ => None,
        };
        for item in &select.projections {
            if !matches!(item.expr, Expr::Wildcard | Expr::Literal(_)) {
                output_column(&item.expr)?;
            }
        }
        for item in &select.order_by {
            output_column(&item.expr)?;
        }
        let group_keys = select
            .group_by
            .iter()
            .map(|expr| match expr {
                Expr::Column(column) => resolve(column),
                _ => None,
            })
            .collect::<Option<Vec<_>>>()?;
        let distinct_keys = select.distinct.then(|| {
            if select.projections.iter().any(|item| matches!(item.expr, Expr::Wildcard)) {
                (0..k)
                    .flat_map(|scan| {
                        (0..tables[scan].columns.len()).map(move |col| ColumnAt { scan, col })
                    })
                    .collect()
            } else {
                select
                    .projections
                    .iter()
                    .filter_map(|item| match &item.expr {
                        Expr::Column(column) => resolve(column),
                        _ => None,
                    })
                    .collect::<Vec<_>>()
            }
        });
        let output_scans = group_keys
            .iter()
            .chain(distinct_keys.iter().flatten())
            .fold(0u64, |mask, at| mask | 1 << at.scan);
        Some(ColumnarPlan {
            scans,
            edges,
            grouped,
            group_keys,
            distinct_keys,
            output_scans,
            charge_order_by: !select.order_by.is_empty(),
            limit: select.limit,
        })
    }

    fn run(
        &self,
        plan: &Arc<PreparedTemplate>,
        db: &Database,
        batch: &BindingBatch,
        scratch: &mut ExecScratch,
    ) -> Result<(), DbError> {
        let n = batch.len();
        let k = self.scans.len();
        let Some(tables) = self.tables(db) else {
            // Unreachable for a database the template prepared against;
            // reproduce whatever the scalar path reports.
            for row in 0..n {
                scratch.results.push(execute_row(db, plan, None, batch, row));
            }
            return Ok(());
        };

        // Every row's access paths and join order, from the recost's
        // replay of the planner over the same conjuncts and edges.
        plan.recost_batch(db, batch, &mut scratch.recost)?;

        // Rows binding a non-numeric, non-null value take the row
        // executor: the planner's validation rejects such literals with
        // a `TypeMismatch` the kernels cannot reproduce.
        let fallback = &mut scratch.fallback;
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

        if scratch.selections.len() < k {
            scratch.selections.resize_with(k, Selection::default);
        }
        if scratch.builds.len() < k {
            scratch.builds.resize_with(k, JoinTable::default);
        }
        // A build over an unfiltered scan is binding-invariant: every row
        // of this batch reuses it, and so do the batches that follow of
        // the same plan.
        if !std::ptr::eq(scratch.builds_for.as_ptr(), Arc::as_ptr(plan)) {
            for build in &mut scratch.builds {
                build.reusable = None;
            }
            scratch.builds_for = Arc::downgrade(plan);
        }

        for row in 0..n {
            let counted = if scratch.fallback[row] {
                None
            } else {
                self.count_row(db, &tables, batch, row, scratch)
            };
            let result = match counted {
                Some((cardinality, work)) => {
                    Ok((cardinality as f64, work as f64 * WORK_UNIT_MICROS))
                }
                None => execute_row(db, plan, None, batch, row),
            };
            scratch.results.push(result);
        }
        Ok(())
    }

    /// Count one batch row: `(cardinality, work units)`, or `None` when a
    /// join step of its recorded order has no edge (unreachable under
    /// admission; the row executor then runs it).
    // detlint::hot
    fn count_row(
        &self,
        db: &Database,
        tables: &[&Table; MAX_SCANS],
        batch: &BindingBatch,
        row: usize,
        scratch: &mut ExecScratch,
    ) -> Option<(u64, u64)> {
        let ExecScratch {
            recost,
            selections,
            builds,
            tuples,
            next_tuples,
            layout,
            next_layout,
            keep,
            key_pos,
            distinct,
            ..
        } = scratch;
        let k = self.scans.len();
        let access_paths = &recost.access_paths()[row * k..(row + 1) * k];
        let order = &recost.join_orders()[row * k..(row + 1) * k];

        // Scans: each charges its candidates.
        let mut work = 0u64;
        for (scan, ((step, table), selection)) in
            self.scans.iter().zip(tables).zip(selections.iter_mut()).enumerate()
        {
            work +=
                step.fill_selection(db, table, batch, row, access_paths[scan], selection) as u64;
        }
        let input = |scan: usize| self.scans[scan].input(tables[scan], &selections[scan]);

        // The leftmost input, its row ids kept only if read later.
        let first = order[0];
        let mut joined = 1u64 << first;
        let mut count = input(first).len();
        layout.clear();
        tuples.clear();
        if self.read_after(first, joined) {
            layout.push(first);
            input(first).extend_into(tuples);
        }

        // Hash joins in the recorded order.
        for &next in &order[1..] {
            let (near, far) = edge_into(&self.edges, joined, next)?;
            let next_joined = joined | 1 << next;
            next_layout.clear();
            keep.clear();
            for (pos, &scan) in layout.iter().enumerate() {
                if self.read_after(scan, next_joined) {
                    next_layout.push(scan);
                    keep.push(pos);
                }
            }
            let keep_right = self.read_after(next, next_joined);
            if keep_right {
                next_layout.push(next);
            }
            let probe_pos = layout
                .iter()
                .position(|&scan| scan == near.scan)
                .expect("a join's left key scan is kept until its join");
            let right = input(next);
            work += (count + right.len()) as u64;

            let build = &mut builds[next];
            let build_key = KeyCol::of(&tables[next].columns[far.col]);
            build.build_keys(build_key, right, keep_right);
            let matches = build.probe_all(
                KeyCol::of(&tables[near.scan].columns[near.col]),
                build_key,
                tuples,
                layout.len(),
                probe_pos,
                keep,
                keep_right,
                next_tuples,
            );
            work += matches;
            count = matches as usize;
            std::mem::swap(tuples, next_tuples);
            std::mem::swap(layout, next_layout);
            joined = next_joined;
        }

        // Output phase, charge for charge with `executor::output_phase`.
        let records = if self.grouped {
            work += count as u64;
            if self.group_keys.is_empty() {
                1
            } else {
                count_distinct(tables, &self.group_keys, tuples, layout, key_pos, distinct)
            }
        } else {
            count
        };
        if self.charge_order_by {
            work += records as u64;
        }
        work += records as u64;
        let output = match &self.distinct_keys {
            Some(keys) => {
                work += records as u64;
                if keys.is_empty() {
                    records.min(1)
                } else {
                    count_distinct(tables, keys, tuples, layout, key_pos, distinct)
                }
            }
            None => records,
        };
        let cardinality = match self.limit {
            Some(limit) => (output as u64).min(limit),
            None => output as u64,
        };
        Some((cardinality, work))
    }

    /// The pipeline's tables by scan index; the slots past the last scan
    /// repeat the first table and are never read.
    fn tables<'d>(&self, db: &'d Database) -> Option<[&'d Table; MAX_SCANS]> {
        let mut tables = [db.table(&self.scans[0].table).ok()?; MAX_SCANS];
        for (slot, scan) in tables.iter_mut().zip(&self.scans) {
            *slot = db.table(&scan.table).ok()?;
        }
        Some(tables)
    }

    /// Whether `scan`'s row ids are read once the scans in `joined` are
    /// joined: by the output phase, or by the key of a join still to run.
    fn read_after(&self, scan: usize, joined: u64) -> bool {
        self.output_scans >> scan & 1 == 1
            || self.edges.iter().any(|edge| {
                edge.left.scan == scan && joined >> edge.right.scan & 1 == 0
                    || edge.right.scan == scan && joined >> edge.left.scan & 1 == 0
            })
    }
}

/// The edge joining `next` to the scans in `joined`, as `(joined-side
/// column, next-side column)`.
fn edge_into(edges: &[Edge], joined: u64, next: usize) -> Option<(ColumnAt, ColumnAt)> {
    edges.iter().find_map(|edge| {
        if edge.right.scan == next && joined >> edge.left.scan & 1 == 1 {
            Some((edge.left, edge.right))
        } else if edge.left.scan == next && joined >> edge.right.scan & 1 == 1 {
            Some((edge.right, edge.left))
        } else {
            None
        }
    })
}

/// Whether every scan in `0..k`, visited in a connected order, joins the
/// ones before it through an edge. With `syntactic` the order is
/// `0..k`; otherwise any order that always extends the joined set along
/// an edge, which exists iff the edges connect every scan.
fn connected_prefixes(k: usize, edges: &[Edge], syntactic: bool) -> bool {
    let touches = |joined: u64, next: usize| edge_into(edges, joined, next).is_some();
    if syntactic {
        return (1..k).all(|next| touches((1u64 << next) - 1, next));
    }
    let mut joined = 1u64;
    for _ in 1..k {
        let Some(next) = (0..k).find(|&s| joined >> s & 1 == 0 && touches(joined, s)) else {
            return false;
        };
        joined |= 1 << next;
    }
    true
}

/// An aggregate whose accumulator cannot fail on any input row:
/// `COUNT(*)`, `COUNT([DISTINCT] column)`, and `SUM`/`AVG`/`MIN`/`MAX` of
/// a numeric storage column. Names are matched as the executor's
/// accumulators match them.
fn infallible_aggregate(
    expr: &Expr,
    resolve: &impl Fn(&ColumnRef) -> Option<ColumnAt>,
    kind_of: &impl Fn(ColumnAt) -> DataType,
) -> bool {
    let Expr::Function { name, args, .. } = expr else { return false };
    match (name.as_str(), args.as_slice()) {
        ("COUNT", [Expr::Wildcard]) => true,
        ("COUNT", [Expr::Column(column)]) => resolve(column).is_some(),
        ("SUM" | "AVG" | "MIN" | "MAX", [Expr::Column(column)]) => {
            resolve(column).is_some_and(|at| kind_of(at) == DataType::Float)
        }
        _ => false,
    }
}

impl ScanStep {
    /// Fill `selection` with this scan's passing row ids for one batch
    /// row, running its recorded access path; returns the candidates the
    /// executor's scan would charge. An unfiltered scan leaves
    /// `selection` as it is: its input is the whole table
    /// ([`ScanStep::input`]).
    fn fill_selection(
        &self,
        db: &Database,
        table: &Table,
        batch: &BindingBatch,
        row: usize,
        access_path: Option<usize>,
        selection: &mut Selection,
    ) -> usize {
        let n_rows = table.row_count();
        // An index scan visits the probe slice, then re-evaluates the
        // *full* filter on every candidate; a seq scan visits every row.
        let slice = access_path.map(|w| {
            let conjunct = &self.conjuncts[w];
            let (lo, hi) = probe_bounds(conjunct, batch, row);
            db.index_on(&self.table, &conjunct.name)
                .expect("an index-scan access path implies the index exists")
                .probe_slice(lo, hi)
        });
        let candidates = slice.map_or(n_rows, <[_]>::len);
        let mut kernels = [Kernel::Never; FUSED];
        for (at, group) in self.conjuncts.chunks(FUSED).enumerate() {
            for (kernel, conjunct) in kernels.iter_mut().zip(group) {
                *kernel = Kernel::lower(conjunct, table, batch, row);
            }
            let kernels = &kernels[..group.len()];
            if kernels.iter().any(|kernel| matches!(kernel, Kernel::Never)) {
                selection.assign(&[]);
                break;
            }
            match (at, slice) {
                (0, None) => selection.filter_range(kernels, n_rows),
                (0, Some(slice)) => {
                    selection.assign(slice);
                    selection.filter_ids(kernels);
                }
                _ => selection.filter_ids(kernels),
            }
        }
        candidates
    }

    /// This scan's rows for the joins: the whole table when unfiltered,
    /// else the selection [`ScanStep::fill_selection`] left.
    fn input<'s>(&self, table: &Table, selection: &'s Selection) -> Input<'s> {
        if self.conjuncts.is_empty() {
            Input::All(table.row_count() as u32)
        } else {
            Input::Ids(selection.as_slice())
        }
    }
}

/// The rows a scan feeds into the pipeline.
#[derive(Debug, Clone, Copy)]
enum Input<'s> {
    /// Every row of an unfiltered table: `0..n`, never materialized.
    All(u32),
    Ids(&'s [u32]),
}

impl Input<'_> {
    fn len(self) -> usize {
        match self {
            Input::All(n) => n as usize,
            Input::Ids(ids) => ids.len(),
        }
    }

    /// Append the row ids to `out`.
    fn extend_into(self, out: &mut Vec<u32>) {
        match self {
            Input::All(n) => out.extend(0..n),
            Input::Ids(ids) => out.extend_from_slice(ids),
        }
    }
}

// ---- typed keys --------------------------------------------------------

/// One storage column read as a join or grouping key. Two non-NULL
/// cells are the same key exactly when `executor::hash_key` renders them
/// to the same string: numbers by the bits of `x as f64` (every NaN one
/// key, `-0.0` and `0.0` two), strings by their bytes, booleans by value.
/// Text cells with equal codes in one dictionary are equal; any other
/// pair compares bytes, since equal text can have different codes.
#[derive(Debug, Clone, Copy)]
enum KeyCol<'a> {
    Int { values: &'a [i64], valid: &'a [bool] },
    Float { values: &'a [f64], valid: &'a [bool] },
    Str { codes: &'a [u32], dict: &'a Dictionary, valid: &'a [bool] },
    Bool { values: &'a [bool], valid: &'a [bool] },
}

/// Hash of a NULL grouping key (NULLs form one group).
const NULL_HASH: u64 = 0x6e75_6c6c_6e75_6c6c;

/// `hash_key`'s numeric identity: the `f64` bits, every NaN as one.
#[inline(always)]
fn num_key(x: f64) -> u64 {
    if x.is_nan() {
        f64::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

/// A 64-bit finalizer (SplitMix64's): spreads every input bit across the
/// output, so the table can take its slot from the low bits.
#[inline(always)]
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a over the bytes, finalized: a deterministic string hash.
#[inline]
fn str_hash(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    }
    mix64(h)
}

impl<'a> KeyCol<'a> {
    fn of(column: &'a Column) -> KeyCol<'a> {
        match column {
            Column::Int { values, valid } => KeyCol::Int { values, valid },
            Column::Float { values, valid } => KeyCol::Float { values, valid },
            Column::Str { codes, dict, valid } => KeyCol::Str { codes, dict, valid },
            Column::Bool { values, valid } => KeyCol::Bool { values, valid },
        }
    }

    #[inline(always)]
    fn is_null(self, row: u32) -> bool {
        let row = row as usize;
        match self {
            KeyCol::Int { valid, .. }
            | KeyCol::Float { valid, .. }
            | KeyCol::Str { valid, .. }
            | KeyCol::Bool { valid, .. } => !valid[row],
        }
    }

    /// The key word of a non-NULL cell: cells [`KeyCol::same`] equates
    /// have equal words, across the `Int`/`Float` columns too. Outside
    /// text columns the converse holds as well (see [`KeyCol::exact`]).
    #[inline(always)]
    fn word(self, row: u32) -> u64 {
        let row = row as usize;
        match self {
            KeyCol::Int { values, .. } => num_key(values[row] as f64),
            KeyCol::Float { values, .. } => num_key(values[row]),
            KeyCol::Str { codes, dict, .. } => str_hash(dict.bytes(codes[row])),
            KeyCol::Bool { values, .. } => values[row] as u64,
        }
    }

    /// The address and length of the column's validity vector: while
    /// its database lives, no other column has them.
    fn storage(self) -> (usize, usize) {
        let (KeyCol::Int { valid, .. }
        | KeyCol::Float { valid, .. }
        | KeyCol::Str { valid, .. }
        | KeyCol::Bool { valid, .. }) = self;
        (valid.as_ptr() as usize, valid.len())
    }

    /// Whether equal words mean the same key: true for all but text,
    /// whose word is a hash of its bytes.
    #[inline(always)]
    fn exact(self) -> bool {
        !matches!(self, KeyCol::Str { .. })
    }

    /// Hash of a non-NULL cell; cells [`KeyCol::same`] equates hash
    /// equally.
    #[inline(always)]
    fn hash(self, row: u32) -> u64 {
        mix64(self.word(row))
    }

    /// Whether non-NULL cell `a` of this column and `b` of `other` are
    /// the same key.
    #[inline(always)]
    fn same(self, a: u32, other: KeyCol<'_>, b: u32) -> bool {
        let (a, b) = (a as usize, b as usize);
        let num = |col: KeyCol<'_>, row: usize| match col {
            KeyCol::Int { values, .. } => Some(num_key(values[row] as f64)),
            KeyCol::Float { values, .. } => Some(num_key(values[row])),
            _ => None,
        };
        match (self, other) {
            (KeyCol::Str { codes: x, dict: dx, .. }, KeyCol::Str { codes: y, dict: dy, .. }) => {
                (std::ptr::eq(dx, dy) && x[a] == y[b]) || dx.bytes(x[a]) == dy.bytes(y[b])
            }
            (KeyCol::Bool { values: x, .. }, KeyCol::Bool { values: y, .. }) => x[a] == y[b],
            (x, y) => match (num(x, a), num(y, b)) {
                (Some(x), Some(y)) => x == y,
                _ => false,
            },
        }
    }
}

/// Marks a build entry whose key is NULL (it never matches).
const NULL_KEY: u32 = u32::MAX;

/// A hash-join build table over one scan's selection: the distinct
/// non-NULL keys in an open-addressing table, each with its match count
/// and (when a later step reads the build side) its row ids. It is only
/// ever probed, never iterated, so its slot order cannot leak into
/// results.
#[derive(Debug, Default)]
struct JoinTable {
    /// Slot → key id + 1 (0 = empty); the length is a power of two.
    slots: Vec<u32>,
    /// Per key id: its word ([`KeyCol::word`]), a build row holding it,
    /// and its match count.
    words: Vec<u64>,
    reps: Vec<u32>,
    counts: Vec<u32>,
    /// Per key id: the end of its run in `rows` (filled with rows only).
    ends: Vec<u32>,
    /// Build row ids grouped by key, in selection order within a key.
    rows: Vec<u32>,
    /// Key id of each selection entry, or [`NULL_KEY`].
    key_ids: Vec<u32>,
    /// For a build over a whole table, which later rows of this plan
    /// reuse: its key column's storage ([`KeyCol::storage`]) and whether
    /// it holds rows.
    reusable: Option<((usize, usize), bool)>,
}

impl JoinTable {
    /// Build on `rows`, keyed by `key`. A build over a whole table is
    /// binding-invariant, so an earlier build over the same storage
    /// column (with rows, if they are wanted) is reused.
    fn build_keys(&mut self, key: KeyCol<'_>, rows: Input<'_>, with_rows: bool) {
        let invariant = matches!(rows, Input::All(_));
        if invariant
            && self
                .reusable
                .is_some_and(|(built, has_rows)| built == key.storage() && (has_rows || !with_rows))
        {
            return;
        }
        match rows {
            Input::All(n) => self.build_from(key, 0..n, with_rows),
            Input::Ids(ids) => self.build_from(key, ids.iter().copied(), with_rows),
        }
        self.reusable = invariant.then_some((key.storage(), with_rows));
    }

    fn build_from(
        &mut self,
        key: KeyCol<'_>,
        rows: impl ExactSizeIterator<Item = u32> + Clone,
        with_rows: bool,
    ) {
        self.words.clear();
        self.reps.clear();
        self.counts.clear();
        self.key_ids.clear();
        reset_slots(&mut self.slots, rows.len());
        let exact = key.exact();
        for row in rows.clone() {
            if key.is_null(row) {
                self.key_ids.push(NULL_KEY);
                continue;
            }
            let word = key.word(row);
            let found = probe_slots(&self.slots, mix64(word), |id| {
                self.words[id] == word && (exact || key.same(self.reps[id], key, row))
            });
            let id = found.unwrap_or_else(|slot| {
                self.slots[slot] = self.words.len() as u32 + 1;
                self.words.push(word);
                self.reps.push(row);
                self.counts.push(0);
                self.words.len() - 1
            });
            self.counts[id] += 1;
            self.key_ids.push(id as u32);
        }
        if with_rows {
            // Counting sort of the rows by key id.
            self.ends.clear();
            let mut end = 0u32;
            for &count in &self.counts {
                self.ends.push(end);
                end += count;
            }
            self.rows.clear();
            self.rows.resize(end as usize, 0);
            for (&id, row) in self.key_ids.iter().zip(rows) {
                if id != NULL_KEY {
                    let at = &mut self.ends[id as usize];
                    self.rows[*at as usize] = row;
                    *at += 1;
                }
            }
        }
    }

    /// The key id of `probe`'s cell `row` (`build` is the build column),
    /// or `None` for a NULL or unmatched key.
    #[inline]
    fn find(&self, probe: KeyCol<'_>, row: u32, build: KeyCol<'_>) -> Option<usize> {
        if probe.is_null(row) {
            return None;
        }
        let word = probe.word(row);
        let exact = probe.exact();
        probe_slots(&self.slots, mix64(word), |id| {
            self.words[id] == word && (exact || build.same(self.reps[id], probe, row))
        })
        .ok()
    }

    /// Probe with every tuple of `tuples` (`stride` row ids each, the key
    /// scan's at `probe_pos`), appending to `out` each matching pair's
    /// kept left row ids (positions `keep`) and, with `keep_right`, the
    /// build row id. Returns the match count: the executor's probe charge
    /// and the join's output cardinality.
    #[allow(clippy::too_many_arguments)]
    fn probe_all(
        &self,
        probe: KeyCol<'_>,
        build: KeyCol<'_>,
        tuples: &[u32],
        stride: usize,
        probe_pos: usize,
        keep: &[usize],
        keep_right: bool,
        out: &mut Vec<u32>,
    ) -> u64 {
        out.clear();
        let mut matches = 0u64;
        for tuple in tuples.chunks_exact(stride) {
            let Some(id) = self.find(probe, tuple[probe_pos], build) else { continue };
            let count = self.counts[id];
            matches += count as u64;
            if keep_right {
                let end = self.ends[id] as usize;
                for &right in &self.rows[end - count as usize..end] {
                    out.extend(keep.iter().map(|&pos| tuple[pos]));
                    out.push(right);
                }
            } else if !keep.is_empty() {
                for _ in 0..count {
                    out.extend(keep.iter().map(|&pos| tuple[pos]));
                }
            }
        }
        matches
    }
}

/// Open-addressing set of tuple indices for counting distinct
/// composite keys; probed, never iterated.
#[derive(Debug, Default)]
struct DistinctSet {
    /// Slot → tuple index + 1 (0 = empty); the length is a power of two.
    slots: Vec<u32>,
    /// Composite-key hash per tuple.
    hashes: Vec<u64>,
    /// The distinct words, when counting one exact key.
    words: Vec<u64>,
}

/// Count the distinct `keys` composite values among `tuples` (laid out
/// per `layout`), with `executor::hash_key` equality per part and NULL
/// equal to NULL.
fn count_distinct(
    tables: &[&Table; MAX_SCANS],
    keys: &[ColumnAt],
    tuples: &[u32],
    layout: &[usize],
    key_pos: &mut Vec<usize>,
    set: &mut DistinctSet,
) -> usize {
    let stride = layout.len();
    key_pos.clear();
    for key in keys {
        let pos = layout
            .iter()
            .position(|&scan| scan == key.scan)
            .expect("output-phase scans are kept to the end");
        key_pos.push(pos);
    }
    let column = |key: &ColumnAt| KeyCol::of(&tables[key.scan].columns[key.col]);
    let n = tuples.len() / stride;
    if let [key] = keys {
        let col = column(key);
        if col.exact() {
            let rows = tuples.iter().skip(key_pos[0]).step_by(stride);
            return count_words(col, rows, n, set);
        }
    }
    set.hashes.clear();
    for tuple in tuples.chunks_exact(stride) {
        let mut hash = 0u64;
        for (key, &pos) in keys.iter().zip(key_pos.iter()) {
            let col = column(key);
            let row = tuple[pos];
            let part = if col.is_null(row) { NULL_HASH } else { col.hash(row) };
            hash = mix64(hash ^ part);
        }
        set.hashes.push(hash);
    }
    let same = |a: usize, b: usize| {
        keys.iter().zip(key_pos.iter()).all(|(key, &pos)| {
            let col = column(key);
            let (x, y) = (tuples[a * stride + pos], tuples[b * stride + pos]);
            match (col.is_null(x), col.is_null(y)) {
                (true, true) => true,
                (false, false) => col.same(x, col, y),
                _ => false,
            }
        })
    };
    reset_slots(&mut set.slots, n);
    let mut distinct = 0;
    for t in 0..n {
        let hash = set.hashes[t];
        if let Err(slot) = probe_slots(&set.slots, hash, |u| set.hashes[u] == hash && same(u, t)) {
            set.slots[slot] = t as u32 + 1;
            distinct += 1;
        }
    }
    distinct
}

/// Count the distinct values of one exact key ([`KeyCol::exact`]) over
/// `n` rows: by word alone, NULL one value.
fn count_words<'r>(
    col: KeyCol<'_>,
    rows: impl Iterator<Item = &'r u32>,
    n: usize,
    set: &mut DistinctSet,
) -> usize {
    set.words.clear();
    reset_slots(&mut set.slots, n);
    let mut null = false;
    for &row in rows {
        if col.is_null(row) {
            null = true;
            continue;
        }
        let word = col.word(row);
        if let Err(slot) = probe_slots(&set.slots, mix64(word), |id| set.words[id] == word) {
            set.slots[slot] = set.words.len() as u32 + 1;
            set.words.push(word);
        }
    }
    set.words.len() + null as usize
}

/// Empty an open-addressing table of `id + 1` slots (0 = empty), sized
/// to a power of two at least twice `entries`.
fn reset_slots(slots: &mut Vec<u32>, entries: usize) {
    slots.clear();
    slots.resize((entries * 2).next_power_of_two().max(16), 0);
}

/// Linear-probe `slots` from `hash`: `Ok(id)` for the first occupant
/// `is_match` accepts, or `Err(slot)` for the empty slot that ends the
/// probe sequence.
#[inline]
fn probe_slots(
    slots: &[u32],
    hash: u64,
    mut is_match: impl FnMut(usize) -> bool,
) -> Result<usize, usize> {
    let mask = slots.len() - 1;
    let mut slot = hash as usize & mask;
    loop {
        match slots[slot] {
            0 => return Err(slot),
            taken if is_match(taken as usize - 1) => return Ok(taken as usize - 1),
            _ => slot = (slot + 1) & mask,
        }
    }
}

/// Recognize one conjunct as kernel-executable: a comparison or
/// `BETWEEN` whose column is a numeric *storage* column of the scanned
/// table and whose non-column operands are placeholders or
/// `Int`/`Float`/`Null` literals — the recost skeleton's fast shapes,
/// tightened to what the execution kernels reproduce exactly.
fn kernelable(table: &Table, expr: &Expr) -> Option<ScanConjunct> {
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
            (column.column.clone(), ConjunctKind::Cmp { op, value })
        }
        Expr::Between { expr: target, negated, low, high } => {
            let Expr::Column(column) = target.as_ref() else { return None };
            (
                column.column.clone(),
                ConjunctKind::Between {
                    negated: *negated,
                    low: source_of(low)?,
                    high: source_of(high)?,
                },
            )
        }
        _ => return None,
    };
    let col = table.column_index(&name)?;
    if !matches!(table.columns[col].data_type(), DataType::Int | DataType::Float) {
        return None;
    }
    Some(ScanConjunct { name, col, kind })
}

/// Index-probe bounds of the winning conjunct, replaying
/// `planner::indexable_bounds` on the bound values: `=` gives a point
/// range, `<`/`<=` an upper bound, `>`/`>=` a lower bound, `BETWEEN`
/// both. The recost only picks an index scan when every needed value is
/// numeric.
fn probe_bounds(
    conjunct: &ScanConjunct,
    batch: &BindingBatch,
    row: usize,
) -> (Option<f64>, Option<f64>) {
    match &conjunct.kind {
        ConjunctKind::Cmp { op, value } => {
            let v = value.resolve(batch, row).as_f64();
            match op {
                BinaryOp::Eq => (v, v),
                BinaryOp::Gt | BinaryOp::GtEq => (v, None),
                BinaryOp::Lt | BinaryOp::LtEq => (None, v),
                _ => unreachable!("probe decision rejects other operators"),
            }
        }
        ConjunctKind::Between { low, high, .. } => {
            (low.resolve(batch, row).as_f64(), high.resolve(batch, row).as_f64())
        }
    }
}

// ---- predicate kernels ----------------------------------------------

/// A conjunct's operand in its comparison domain, exactly
/// `Value::total_cmp`'s: an `Int` column compares an `Int` operand as
/// `i64` and a `Float` one as `f64`; a `Float` column compares every
/// numeric operand as `f64`.
#[derive(Debug, Clone, Copy)]
enum Operand {
    I(i64),
    F(f64),
}

/// The comparison of one lowered conjunct, its operands bound.
#[derive(Debug, Clone, Copy)]
enum Cond {
    /// `column op operand`, with `op` a comparison operator.
    Cmp(BinaryOp, Operand),
    /// `column [NOT] BETWEEN lo AND hi`, each bound in its own domain.
    Between { lo: Operand, hi: Operand, negated: bool },
}

/// One conjunct lowered for one batch row: a column view and the
/// comparison to run on it. [`Kernel::and_range`]/[`Kernel::and_ids`]
/// pick the op-specialized loop once per block, outside the row loop.
#[derive(Debug, Clone, Copy)]
enum Kernel<'a> {
    Int {
        values: &'a [i64],
        valid: &'a [bool],
        cond: Cond,
    },
    Float {
        values: &'a [f64],
        valid: &'a [bool],
        cond: Cond,
    },
    /// A NULL operand: the predicate is NULL, so no row passes.
    Never,
}

/// Conjunct kernels ANDed into one mask per chunk; a scan with more
/// conjuncts filters the survivors again, one group at a time.
const FUSED: usize = 4;

/// An operand a column of `T` compares against: `below(v)` is `v < b` and
/// `above(v)` is `v > b` in the operand's domain. Both are false against
/// NaN, which is how the kernels keep the evaluator's convention that a
/// NaN comparison orders as `Equal`.
trait Against<T>: Copy {
    fn below(self, v: T) -> bool;
    fn above(self, v: T) -> bool;
}

impl Against<i64> for i64 {
    #[inline(always)]
    fn below(self, v: i64) -> bool {
        v < self
    }
    #[inline(always)]
    fn above(self, v: i64) -> bool {
        v > self
    }
}

impl Against<i64> for f64 {
    #[inline(always)]
    fn below(self, v: i64) -> bool {
        (v as f64) < self
    }
    #[inline(always)]
    fn above(self, v: i64) -> bool {
        (v as f64) > self
    }
}

impl Against<f64> for f64 {
    #[inline(always)]
    fn below(self, v: f64) -> bool {
        v < self
    }
    #[inline(always)]
    fn above(self, v: f64) -> bool {
        v > self
    }
}

/// A cell test specialized to one operator and operand domain. Each is
/// written over `below`/`above` with non-short-circuit `&`/`|`, so a
/// lane loop over it has no data-dependent branch: `>=` is `!(a < b)`,
/// `<=` is `!(a > b)`, `=` is `!(a < b) & !(a > b)` and `<>` is
/// `(a < b) | (a > b)`.
trait CellTest<T>: Copy {
    fn test(self, v: T) -> bool;
}

macro_rules! cell_tests {
    ($($(#[$doc:meta])* $name:ident($($b:ident: $B:ident),+) => |$v:ident| $body:expr;)+) => {$(
        $(#[$doc])*
        #[derive(Debug, Clone, Copy)]
        struct $name<$($B),+>($($B),+);

        impl<T: Copy, $($B: Against<T>),+> CellTest<T> for $name<$($B),+> {
            #[inline(always)]
            fn test(self, $v: T) -> bool {
                let $name($($b),+) = self;
                $body
            }
        }
    )+};
}

cell_tests! {
    /// `v < b`.
    Lt(b: B) => |v| b.below(v);
    /// `v <= b`.
    Le(b: B) => |v| !b.above(v);
    /// `v > b`.
    Gt(b: B) => |v| b.above(v);
    /// `v >= b`.
    Ge(b: B) => |v| !b.below(v);
    /// `v = b`.
    Eq(b: B) => |v| !b.below(v) & !b.above(v);
    /// `v <> b`.
    Ne(b: B) => |v| b.below(v) | b.above(v);
    /// `v BETWEEN lo AND hi`.
    Inside(lo: L, hi: H) => |v| !lo.below(v) & !hi.above(v);
    /// `v NOT BETWEEN lo AND hi`.
    Outside(lo: L, hi: H) => |v| lo.below(v) | hi.above(v);
}

/// Run `$body` with `$test` bound to the [`CellTest`] of `$op` against
/// operand `$b`: one monomorphic instantiation of `$body` per operator.
macro_rules! by_op {
    ($op:expr, $b:expr, |$test:ident| $body:expr) => {
        match $op {
            BinaryOp::Lt => {
                let $test = Lt($b);
                $body
            }
            BinaryOp::LtEq => {
                let $test = Le($b);
                $body
            }
            BinaryOp::Gt => {
                let $test = Gt($b);
                $body
            }
            BinaryOp::GtEq => {
                let $test = Ge($b);
                $body
            }
            BinaryOp::Eq => {
                let $test = Eq($b);
                $body
            }
            BinaryOp::NotEq => {
                let $test = Ne($b);
                $body
            }
            _ => unreachable!("kernels only admit comparison operators"),
        }
    };
}

/// Run `$body` with `$test` bound to `[NOT] BETWEEN $lo AND $hi`.
macro_rules! by_negation {
    ($negated:expr, $lo:expr, $hi:expr, |$test:ident| $body:expr) => {
        if $negated {
            let $test = Outside($lo, $hi);
            $body
        } else {
            let $test = Inside($lo, $hi);
            $body
        }
    };
}

/// Run `$body` with `$values`/`$valid` bound to `$kernel`'s column view
/// and `$test` to its specialized [`CellTest`], or `$never` for
/// [`Kernel::Never`]. The match runs once per call, so each arm's `$body`
/// is a loop with the comparator inlined.
macro_rules! with_test {
    ($kernel:expr, |$values:ident, $valid:ident, $test:ident| $body:expr, $never:expr) => {
        match $kernel {
            Kernel::Int { values: $values, valid: $valid, cond } => match cond {
                Cond::Cmp(op, Operand::I(b)) => by_op!(op, b, |$test| $body),
                Cond::Cmp(op, Operand::F(b)) => by_op!(op, b, |$test| $body),
                Cond::Between { lo, hi, negated } => match (lo, hi) {
                    (Operand::I(lo), Operand::I(hi)) => {
                        by_negation!(negated, lo, hi, |$test| $body)
                    }
                    (Operand::I(lo), Operand::F(hi)) => {
                        by_negation!(negated, lo, hi, |$test| $body)
                    }
                    (Operand::F(lo), Operand::I(hi)) => {
                        by_negation!(negated, lo, hi, |$test| $body)
                    }
                    (Operand::F(lo), Operand::F(hi)) => {
                        by_negation!(negated, lo, hi, |$test| $body)
                    }
                },
            },
            Kernel::Float { values: $values, valid: $valid, cond } => match cond {
                Cond::Cmp(op, Operand::F(b)) => by_op!(op, b, |$test| $body),
                Cond::Between { lo: Operand::F(lo), hi: Operand::F(hi), negated } => {
                    by_negation!(negated, lo, hi, |$test| $body)
                }
                _ => unreachable!("a Float column's operands are lowered to f64"),
            },
            Kernel::Never => $never,
        }
    };
}

impl<'a> Kernel<'a> {
    /// Lower `conjunct` against `table` for `row`'s bound values.
    fn lower(
        conjunct: &ScanConjunct,
        table: &'a Table,
        batch: &BindingBatch,
        row: usize,
    ) -> Kernel<'a> {
        let column = &table.columns[conjunct.col];
        // NULL never passes; Bool/Str rows took the row executor before
        // reaching the kernels.
        let operand = |source: &ValueSource| match *source.resolve(batch, row) {
            Value::Int(v) if column.int_view().is_some() => Some(Operand::I(v)),
            ref v => v.as_f64().map(Operand::F),
        };
        let cond = match &conjunct.kind {
            ConjunctKind::Cmp { op, value } => operand(value).map(|b| Cond::Cmp(*op, b)),
            ConjunctKind::Between { negated, low, high } => operand(low)
                .zip(operand(high))
                .map(|(lo, hi)| Cond::Between { lo, hi, negated: *negated }),
        };
        let Some(cond) = cond else { return Kernel::Never };
        if let Some((values, valid)) = column.int_view() {
            Kernel::Int { values, valid, cond }
        } else if let Some((values, valid)) = column.float_view() {
            Kernel::Float { values, valid, cond }
        } else {
            unreachable!("tier admission requires a numeric storage column")
        }
    }

    /// AND each chunk's pass mask into `masks` for the `rows` rows from
    /// `base`: `masks[c]` covers rows `base + 64c..`. A chunk no row of
    /// which is left is not tested again.
    fn and_range(self, base: usize, rows: usize, masks: &mut [u64]) {
        with_test!(
            self,
            |values, valid, test| {
                let values = values[base..base + rows].chunks(LANES);
                let valid = valid[base..base + rows].chunks(LANES);
                for ((mask, values), valid) in masks.iter_mut().zip(values).zip(valid) {
                    if *mask != 0 {
                        *mask &= range_lanes(values, valid, test);
                    }
                }
            },
            masks.fill(0)
        )
    }

    /// [`Kernel::and_range`] over gathered row ids: `masks[c]` covers
    /// `ids[64c..]`.
    fn and_ids(self, ids: &[u32], masks: &mut [u64]) {
        with_test!(
            self,
            |values, valid, test| {
                for (mask, ids) in masks.iter_mut().zip(ids.chunks(LANES)) {
                    if *mask != 0 {
                        *mask &= gather_lanes(values, valid, ids, test);
                    }
                }
            },
            masks.fill(0)
        )
    }
}

/// Pack 0/1 lane bytes into a mask, eight lanes per multiply: with one
/// bit per byte, the product's top byte gathers bit `i` from byte `i`.
#[inline(always)]
fn pack(lanes: &[u8; LANES]) -> u64 {
    let mut mask = 0u64;
    for (j, eight) in lanes.chunks_exact(8).enumerate() {
        let word = u64::from_le_bytes(eight.try_into().expect("chunks of eight"));
        mask |= (word.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * j);
    }
    mask
}

/// Test a contiguous run of at most [`LANES`] cells.
#[inline(always)]
fn range_lanes<T: Copy, C: CellTest<T>>(values: &[T], valid: &[bool], test: C) -> u64 {
    let mut lanes = [0u8; LANES];
    for ((lane, &v), &ok) in lanes.iter_mut().zip(values).zip(valid) {
        *lane = (ok & test.test(v)) as u8;
    }
    pack(&lanes)
}

/// Test the cells of at most [`LANES`] gathered row ids.
#[inline(always)]
fn gather_lanes<T: Copy, C: CellTest<T>>(
    values: &[T],
    valid: &[bool],
    ids: &[u32],
    test: C,
) -> u64 {
    let mut lanes = [0u8; LANES];
    for (lane, &id) in lanes.iter_mut().zip(ids) {
        let id = id as usize;
        *lane = (valid[id] & test.test(values[id])) as u8;
    }
    pack(&lanes)
}

/// Rows per fused block: each kernel call tests a block's chunks, and
/// the block's masks then compact in one pass.
const BLOCK: usize = 16 * LANES;

/// Set `masks` to every lane of a `rows`-row block.
fn reset_masks(masks: &mut [u64], rows: usize) {
    masks.fill(u64::MAX);
    if !rows.is_multiple_of(LANES) {
        *masks.last_mut().expect("a block has a chunk") = u64::MAX >> (LANES - rows % LANES);
    }
}

/// Per byte value: the positions of its set bits in order, then zeros.
const SET_LANES: [[u8; 8]; 256] = {
    let mut table = [[0u8; 8]; 256];
    let mut byte = 0;
    while byte < 256 {
        let (mut bit, mut at) = (0, 0);
        while bit < 8 {
            if byte >> bit & 1 == 1 {
                table[byte][at] = bit as u8;
                at += 1;
            }
            bit += 1;
        }
        byte += 1;
    }
    table
};

/// Slots a [`compact`] may write past the ids it keeps.
const SLACK: usize = 8;

/// Write `id(i)` for every set bit `i` of `mask` to `out[at..]`, in lane
/// order, and return the new end. Eight lanes at a time, it writes the
/// ids that [`SET_LANES`] lists for the mask byte, all eight slots of
/// them, and advances by the byte's popcount: no branch depends on the
/// data. `out` must hold [`SLACK`] slots past the last id kept.
#[inline(always)]
fn compact(mask: u64, id: impl Fn(usize) -> u32, out: &mut [u32], at: usize) -> usize {
    let mut end = at;
    for byte in 0..LANES / 8 {
        let bits = (mask >> (8 * byte)) as u8;
        let slots = &mut out[end..end + SLACK];
        for (slot, &lane) in slots.iter_mut().zip(&SET_LANES[bits as usize]) {
            *slot = id(8 * byte + lane as usize);
        }
        end += bits.count_ones() as usize;
    }
    end
}

/// A selection vector: storage row ids in `ids[..len]`. The buffer only
/// grows, and the compaction writes into it without clearing it first.
#[derive(Debug, Default)]
struct Selection {
    ids: Vec<u32>,
    len: usize,
}

impl Selection {
    fn as_slice(&self) -> &[u32] {
        &self.ids[..self.len]
    }

    /// Select the row ids of `entries`, an index slice, in its order.
    fn assign(&mut self, entries: &[(f64, u32)]) {
        let out = self.room(entries.len());
        for (slot, &(_, id)) in out.iter_mut().zip(entries) {
            *slot = id;
        }
        self.len = entries.len();
    }

    /// Empty the selection and make room for `n` ids plus [`SLACK`].
    fn room(&mut self, n: usize) -> &mut [u32] {
        if self.ids.len() < n + SLACK {
            self.ids.resize(n + SLACK, 0);
        }
        self.len = 0;
        &mut self.ids
    }

    /// Fill the selection with the rows `0..n_rows` that pass every one of
    /// `kernels`: per block, each kernel ANDs its masks into the block's
    /// chunk masks, which then compact.
    fn filter_range(&mut self, kernels: &[Kernel<'_>], n_rows: usize) {
        let out = self.room(n_rows);
        let mut masks = [0u64; BLOCK / LANES];
        let mut end = 0;
        for base in (0..n_rows).step_by(BLOCK) {
            let rows = BLOCK.min(n_rows - base);
            let masks = &mut masks[..rows.div_ceil(LANES)];
            reset_masks(masks, rows);
            for kernel in kernels {
                kernel.and_range(base, rows, masks);
            }
            for (c, &mask) in masks.iter().enumerate() {
                let first = base + c * LANES;
                end = compact(mask, |lane| (first + lane) as u32, out, end);
            }
        }
        self.len = end;
    }

    /// Keep, in place and in order, the ids that pass every one of
    /// `kernels`. Each block is copied out before the compaction writes,
    /// and the write cursor never passes the block being read.
    fn filter_ids(&mut self, kernels: &[Kernel<'_>]) {
        let n = self.len;
        let mut block = [0u32; BLOCK];
        let mut masks = [0u64; BLOCK / LANES];
        let mut end = 0;
        for read in (0..n).step_by(BLOCK) {
            let rows = BLOCK.min(n - read);
            block[..rows].copy_from_slice(&self.ids[read..read + rows]);
            let masks = &mut masks[..rows.div_ceil(LANES)];
            reset_masks(masks, rows);
            for kernel in kernels {
                kernel.and_ids(&block[..rows], masks);
            }
            for (c, &mask) in masks.iter().enumerate() {
                end = compact(mask, |lane| block[c * LANES + lane], &mut self.ids, end);
            }
        }
        self.len = end;
    }
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
        let batch = BindingBatch::of(&ids, rows);
        let mut scratch = ExecScratch::new();
        let results = prepared.execute_batch(db, &batch, &mut scratch).unwrap();
        assert_results_match_scalar(db, &template, &batch, results);
    }

    /// Assert `results` equal, bit for bit, the scalar path's per row.
    fn assert_results_match_scalar(
        db: &Database,
        template: &sqlkit::Template,
        batch: &BindingBatch,
        results: &[ExecRowResult],
    ) {
        assert_eq!(results.len(), batch.len());
        for (row, result) in results.iter().enumerate() {
            let select = template.instantiate(batch.row(row)).unwrap();
            let expected = db.execute(&select).map(|r| (r.cardinality() as f64, r.work_micros()));
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
            &[vec![(1, Value::Int(1))], vec![(1, Value::Int(500))], vec![(1, Value::Int(-3))]],
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
        // More conjuncts than one fused group: the rest filter the
        // survivors, on a seq scan and on index candidates.
        assert_batch_matches_scalar(
            &db,
            "SELECT COUNT(*) FROM lineitem AS l \
             WHERE l.l_orderkey < {p_1} AND l.l_quantity > 5 \
               AND l.l_extendedprice < {p_2} AND l.l_discount <= 0.08 \
               AND l.l_linenumber BETWEEN 2 AND 6 AND l.l_quantity <> 30",
            "columnar",
            &[
                vec![(1, Value::Int(100_000)), (2, Value::Float(50_000.0))],
                vec![(1, Value::Int(40)), (2, Value::Float(30_000.0))],
                vec![(1, Value::Int(3)), (2, Value::Null)],
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
    fn join_with_grouped_aggregate_takes_columnar_tier() {
        let db = tpch();
        assert_batch_matches_scalar(
            &db,
            "SELECT c.c_name, SUM(o.o_totalprice) FROM customer AS c \
             JOIN orders AS o ON c.c_custkey = o.o_custkey \
             WHERE o.o_totalprice > {p_1} \
             GROUP BY c.c_name ORDER BY c.c_name LIMIT 5",
            "columnar",
            &[vec![(1, Value::Float(1_000.0))], vec![(1, Value::Float(90_000.0))]],
        );
    }

    #[test]
    fn columnar_pipelines_match_scalar() {
        let db = tpch();
        let rows = [
            vec![(1, Value::Float(1_000.0))],
            vec![(1, Value::Float(40_000.0))],
            vec![(1, Value::Null)],
            vec![(1, Value::Str("x".into()))],
        ];
        for sql in [
            // Single-table COUNT(*): one record, the scan charges only.
            "SELECT COUNT(*) FROM lineitem AS l WHERE l.l_quantity > {p_1}",
            // 2-way, unfiltered build side (reused across the batch).
            "SELECT o.o_orderkey FROM orders AS o JOIN lineitem AS l \
             ON o.o_orderkey = l.l_orderkey WHERE o.o_totalprice > {p_1}",
            // 3-way, both joins materialized for a later GROUP BY.
            "SELECT p.p_brand, COUNT(*) FROM partsupp AS ps \
             JOIN part AS p ON ps.ps_partkey = p.p_partkey \
             JOIN lineitem AS l ON l.l_partkey = ps.ps_partkey \
             WHERE l.l_extendedprice < {p_1} GROUP BY p.p_brand",
            // COUNT(*) over a join: one record.
            "SELECT COUNT(*) FROM customer AS c, orders AS o \
             WHERE c.c_custkey = o.o_custkey AND c.c_acctbal > {p_1}",
            // DISTINCT over a join, with a literal projection.
            "SELECT DISTINCT c.c_mktsegment, 1 FROM customer AS c \
             JOIN orders AS o ON c.c_custkey = o.o_custkey \
             WHERE o.o_totalprice < {p_1} ORDER BY c.c_mktsegment",
            // DISTINCT * over a join.
            "SELECT DISTINCT * FROM nation AS n JOIN region AS r \
             ON n.n_regionkey = r.r_regionkey WHERE n.n_nationkey < {p_1}",
            // String join key; COUNT(DISTINCT) and MIN; LIMIT.
            "SELECT n.n_name, COUNT(DISTINCT c.c_mktsegment), MIN(c.c_acctbal) \
             FROM customer AS c JOIN nation AS n ON c.c_nationkey = n.n_nationkey \
             WHERE c.c_acctbal > {p_1} GROUP BY n.n_name \
             ORDER BY COUNT(DISTINCT c.c_mktsegment) LIMIT 3",
        ] {
            assert_batch_matches_scalar(&db, sql, "columnar", &rows);
        }
    }

    #[test]
    fn shapes_the_pipeline_cannot_count_take_the_hoisted_tier() {
        let db = tpch();
        let rows = [vec![(1, Value::Float(1_000.0))]];
        for sql in [
            // HAVING.
            "SELECT o.o_custkey, COUNT(*) FROM orders AS o \
             WHERE o.o_totalprice > {p_1} GROUP BY o.o_custkey HAVING COUNT(*) > 2",
            // A residual predicate over two relations.
            "SELECT o.o_orderkey FROM orders AS o JOIN lineitem AS l \
             ON o.o_orderkey = l.l_orderkey \
             WHERE o.o_totalprice > {p_1} AND l.l_extendedprice < o.o_totalprice",
            // Two edges between one pair of relations.
            "SELECT o.o_orderkey FROM orders AS o JOIN customer AS c \
             ON o.o_custkey = c.c_custkey AND o.o_orderkey = c.c_nationkey \
             WHERE o.o_totalprice > {p_1}",
            // A cross product.
            "SELECT r.r_name FROM region AS r, nation AS n WHERE r.r_regionkey > {p_1}",
            // DISTINCT on a grouped query; a non-column aggregate
            // argument.
            "SELECT DISTINCT COUNT(*) FROM orders AS o \
             WHERE o.o_totalprice > {p_1} GROUP BY o.o_custkey",
            "SELECT SUM(o.o_totalprice * 2) FROM orders AS o WHERE o.o_totalprice > {p_1}",
            // A non-column grouping key.
            "SELECT COUNT(*) FROM orders AS o WHERE o.o_totalprice > {p_1} \
             GROUP BY o.o_custkey + 1",
        ] {
            assert_batch_matches_scalar(&db, sql, "hoisted", &rows);
        }
    }

    /// Tables whose join and grouping keys hold NULL, `±0.0`, NaN,
    /// `2^53`/`2^53 + 1` and U+0001 cells (`t1`, `t2`), and one text
    /// under several dictionary codes (`t3`).
    fn edge_key_db() -> Database {
        use crate::storage::{DataType, Table};
        let two53 = 9_007_199_254_740_992i64;
        let mut t1 = Table::new(
            "t1",
            vec![
                ("id".into(), DataType::Int),
                ("n".into(), DataType::Int),
                ("x".into(), DataType::Float),
                ("s".into(), DataType::Str),
            ],
        );
        let str_or_null = |s: Option<&str>| s.map_or(Value::Null, |s| Value::Str(s.into()));
        for (id, n, x, s) in [
            (1, Some(1), Some(0.0), Some("a\u{1}sb")),
            (2, None, Some(-0.0), Some("a")),
            (3, Some(two53), Some(f64::NAN), None),
            (4, Some(two53 + 1), None, Some("x")),
            (5, Some(0), Some(-f64::NAN), Some("b\u{1}sx")),
        ] {
            t1.push_row(vec![
                Value::Int(id),
                n.map_or(Value::Null, Value::Int),
                x.map_or(Value::Null, Value::Float),
                str_or_null(s),
            ]);
        }
        let mut t2 = Table::new(
            "t2",
            vec![
                ("id".into(), DataType::Int),
                ("x".into(), DataType::Float),
                ("s".into(), DataType::Str),
            ],
        );
        for (id, x, s) in [
            (1, Some(0.0), Some("x")),
            (2, Some(f64::NAN), Some("b\u{1}sx")),
            (3, Some(two53 as f64), Some("a")),
            (4, None, None),
            (5, Some(-0.0), Some("a\u{1}sb")),
        ] {
            t2.push_row(vec![Value::Int(id), x.map_or(Value::Null, Value::Float), str_or_null(s)]);
        }
        // t3.s holds t1's and t2's texts under other codes, and repeats
        // of texts the load cache evicted: one text, several entries.
        let mut t3 =
            Table::new("t3", vec![("id".into(), DataType::Int), ("s".into(), DataType::Str)]);
        let fillers: Vec<String> = (0..300).map(|i| format!("f{i}")).collect();
        let texts = fillers
            .iter()
            .map(String::as_str)
            .chain(["a", "x", "a\u{1}sb", "b"])
            .chain(fillers.iter().map(String::as_str))
            .chain(["a", "x"]);
        for (id, text) in texts.enumerate() {
            t3.push_row([Value::Int(id as i64), Value::Str(text.into())]);
        }
        let Column::Str { dict, .. } = &t3.columns[1] else { unreachable!() };
        assert!(dict.len() > 304, "t3.s repeats no entry");
        let mut db = Database::new("edge_keys");
        db.add_table(t1, Some("id"), &[]);
        db.add_table(t2, Some("id"), &[]);
        db.add_table(t3, Some("id"), &[]);
        db
    }

    #[test]
    fn typed_keys_pin_hash_key_semantics() {
        let db = edge_key_db();
        // (statement, cardinality with every row selected)
        let cases = [
            // Int vs Float keys compare as `x as f64` bits: 2^53 and
            // 2^53 + 1 both match 2^53; 0 matches 0.0 but not -0.0;
            // NULL never matches.
            ("SELECT t1.id FROM t1 JOIN t2 ON t1.n = t2.x WHERE t1.id >= {p_1}", 3),
            // NaN matches every NaN; -0.0 and 0.0 are two keys.
            ("SELECT t1.id FROM t1 JOIN t2 ON t1.x = t2.x WHERE t1.id >= {p_1}", 4),
            // Strings by their bytes.
            ("SELECT t1.id FROM t1 JOIN t2 ON t1.s = t2.s WHERE t1.id >= {p_1}", 4),
            // Grouping: 2^53 and 2^53 + 1 are one group, NULL is one.
            ("SELECT t1.n, COUNT(*) FROM t1 WHERE t1.id >= {p_1} GROUP BY t1.n", 4),
            // Grouping: both NaNs are one group, -0.0 and 0.0 two.
            ("SELECT t1.x FROM t1 WHERE t1.id >= {p_1} GROUP BY t1.x", 4),
            // U+0001 inside strings cannot merge composite keys.
            (
                "SELECT t1.s, t2.s FROM t1 JOIN t2 ON t1.id = t2.id \
                 WHERE t1.id >= {p_1} GROUP BY t1.s, t2.s",
                5,
            ),
            (
                "SELECT DISTINCT t1.s, t2.s FROM t1 JOIN t2 ON t1.id = t2.id \
                 WHERE t1.id >= {p_1}",
                5,
            ),
            // Text keys across dictionaries: "a" and "x" twice each in
            // t3, "a\u{1}sb" once.
            ("SELECT t3.id FROM t1 JOIN t3 ON t1.s = t3.s WHERE t3.id >= {p_1}", 5),
            // Within one column, entries of one text are one key: 300
            // fillers twice (2 × 2 pairs each), "a" and "x" (4 each) and
            // two singletons.
            ("SELECT a.id FROM t3 AS a JOIN t3 AS b ON a.s = b.s WHERE a.id >= {p_1}", 1210),
            ("SELECT t3.s, COUNT(*) FROM t3 WHERE t3.id >= {p_1} GROUP BY t3.s", 304),
            ("SELECT DISTINCT t3.s FROM t3 WHERE t3.id >= {p_1}", 304),
            ("SELECT COUNT(DISTINCT t3.s) FROM t3 WHERE t3.id >= {p_1}", 1),
        ];
        let rows = [vec![(1, Value::Int(0))], vec![(1, Value::Int(3))], vec![(1, Value::Null)]];
        for (sql, all_rows) in cases {
            assert_batch_matches_scalar(&db, sql, "columnar", &rows);
            let template = parse_template(sql).unwrap();
            let prepared = prepare(&db, &template);
            let batch = BindingBatch::of(&[1], &rows[..1]);
            let mut scratch = ExecScratch::new();
            let results = prepared.execute_batch(&db, &batch, &mut scratch).unwrap();
            let (cardinality, _) = results[0].clone().unwrap();
            assert_eq!(cardinality, all_rows as f64, "{sql}");
        }
    }

    #[test]
    fn invariant_builds_outlive_the_batch() {
        let db = tpch();
        // orders and partsupp are unfiltered, so their builds (the same
        // scan and key column index in both plans) do not depend on the
        // bindings; lineitem's filter is selective enough to probe them.
        let join = parse_template(
            "SELECT COUNT(*) FROM lineitem AS l JOIN orders AS o \
             ON l.l_orderkey = o.o_orderkey \
             WHERE l.l_quantity > {p_1} AND l.l_extendedprice <= {p_2}",
        )
        .unwrap();
        let other = parse_template(
            "SELECT COUNT(*) FROM lineitem AS l JOIN partsupp AS ps \
             ON l.l_partkey = ps.ps_partkey WHERE l.l_extendedprice <= {p_2}",
        )
        .unwrap();
        let (join_exec, other_exec) = (prepare(&db, &join), prepare(&db, &other));
        let batch = |shift: i64| {
            let rows: Vec<Vec<(u32, Value)>> = (0..8)
                .map(|i| {
                    vec![
                        (1, Value::Int((i + shift) % 50)),
                        (2, Value::Float(900.0 + ((i + shift) * 300) as f64)),
                    ]
                })
                .collect();
            BindingBatch::of(&[1, 2], &rows)
        };
        let mut scratch = ExecScratch::new();
        // Consecutive batches of one plan, another plan in between, then
        // the first plan again: every result matches the scalar path.
        for (template, exec, shift) in [
            (&join, &join_exec, 0),
            (&join, &join_exec, 5),
            (&other, &other_exec, 0),
            (&join, &join_exec, 9),
        ] {
            let batch = batch(shift);
            let results = exec.execute_batch(&db, &batch, &mut scratch).unwrap();
            assert_results_match_scalar(&db, template, &batch, results);
            assert!(
                scratch.builds.iter().any(|build| build.reusable.is_some()),
                "the orders build is kept for the next batch"
            );
            assert!(std::ptr::eq(scratch.builds_for.as_ptr(), Arc::as_ptr(&exec.plan)));
        }
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
            &[vec![(1, Value::Float(500.0))], vec![(1, Value::Float(-200.0))]],
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
            &[vec![(1, Value::Float(1_000.0))], vec![(1, Value::Float(100_000.0))]],
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
        let batch = BindingBatch::of(&[2], &[vec![(2, Value::Float(100.0))]]);
        let mut scratch = ExecScratch::new();
        assert_eq!(
            prepared.execute_batch(&db, &batch, &mut scratch).unwrap_err(),
            DbError::UnboundPlaceholder(1)
        );
    }

    #[test]
    fn empty_batch_returns_empty_results() {
        let db = tpch();
        let template =
            parse_template("SELECT l.l_orderkey FROM lineitem AS l WHERE l.l_quantity > {p_1}")
                .unwrap();
        let prepared = prepare(&db, &template);
        let batch = BindingBatch::new(vec![1]);
        let mut scratch = ExecScratch::new();
        let results = prepared.execute_batch(&db, &batch, &mut scratch).unwrap();
        assert!(results.is_empty());
    }

    /// The evaluator's comparison-operator truth table over an ordering:
    /// the scalar reference the kernels are checked against.
    fn ord_ok(op: BinaryOp, ordering: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering;
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

    /// Whether `cell` passes `kind` (constant operands) under
    /// `Value::total_cmp`, a NULL cell or operand never passing.
    fn reference_passes(cell: &Value, kind: &ConjunctKind) -> bool {
        use std::cmp::Ordering;
        let constant = |source: &ValueSource| match source {
            ValueSource::Const(v) => v.clone(),
            ValueSource::Slot(_) => unreachable!("the truth table binds constants"),
        };
        match kind {
            ConjunctKind::Cmp { op, value } => {
                let b = constant(value);
                !cell.is_null() && !b.is_null() && ord_ok(*op, cell.total_cmp(&b))
            }
            ConjunctKind::Between { negated, low, high } => {
                let (lo, hi) = (constant(low), constant(high));
                if cell.is_null() || lo.is_null() || hi.is_null() {
                    return false;
                }
                let inside = cell.total_cmp(&lo) != Ordering::Less
                    && cell.total_cmp(&hi) != Ordering::Greater;
                inside != *negated
            }
        }
    }

    /// A table of `n` rows: `i` an `Int` and `f` a `Float` column, each
    /// cycling through NULLs and edge values.
    fn edge_value_table(n: usize) -> Table {
        use crate::storage::DataType;
        let two53 = 1i64 << 53;
        let ints = [
            Value::Null,
            Value::Int(0),
            Value::Int(1),
            Value::Int(-1),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Int(two53),
            Value::Int(two53 + 1),
            Value::Int(-(two53 + 1)),
            Value::Int(42),
            Value::Null,
        ];
        let floats = [
            Value::Null,
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(1.5),
            Value::Float(-1.5),
            Value::Float(f64::NAN),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NEG_INFINITY),
            Value::Float(two53 as f64),
            Value::Float(1e300),
            Value::Float(42.0),
            Value::Null,
            Value::Float(-f64::NAN),
        ];
        let mut table =
            Table::new("k", vec![("i".into(), DataType::Int), ("f".into(), DataType::Float)]);
        for row in 0..n {
            table.push_row(vec![
                ints[row % ints.len()].clone(),
                floats[row * 7 % floats.len()].clone(),
            ]);
        }
        table
    }

    /// Operands against which the kernels are checked.
    fn edge_operands() -> Vec<Value> {
        let two53 = 1i64 << 53;
        vec![
            Value::Null,
            Value::Int(0),
            Value::Int(1),
            Value::Int(-1),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Int(two53 + 1),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(1.5),
            Value::Float(-1.5),
            Value::Float(f64::NAN),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NEG_INFINITY),
            Value::Float((two53 + 1) as f64),
            Value::Float(42.0),
        ]
    }

    /// Every comparison and `[NOT] BETWEEN` over both columns.
    fn edge_conjuncts() -> Vec<ScanConjunct> {
        let operands = edge_operands();
        let mut conjuncts = Vec::new();
        for (name, col) in [("i", 0), ("f", 1)] {
            let conjunct = |kind| ScanConjunct { name: name.into(), col, kind };
            for op in [
                BinaryOp::Eq,
                BinaryOp::NotEq,
                BinaryOp::Lt,
                BinaryOp::LtEq,
                BinaryOp::Gt,
                BinaryOp::GtEq,
            ] {
                for b in &operands {
                    conjuncts.push(conjunct(ConjunctKind::Cmp {
                        op,
                        value: ValueSource::Const(b.clone()),
                    }));
                }
            }
            for (at, lo) in operands.iter().enumerate() {
                for hi in operands.iter().skip(at % 3).step_by(3) {
                    for negated in [false, true] {
                        conjuncts.push(conjunct(ConjunctKind::Between {
                            negated,
                            low: ValueSource::Const(lo.clone()),
                            high: ValueSource::Const(hi.clone()),
                        }));
                    }
                }
            }
        }
        conjuncts
    }

    /// The rows of `ids` whose cells pass every one of `conjuncts`, by
    /// the scalar reference.
    fn reference_rows(table: &Table, conjuncts: &[ScanConjunct], ids: &[u32]) -> Vec<u32> {
        ids.iter()
            .copied()
            .filter(|&row| {
                conjuncts
                    .iter()
                    .all(|c| reference_passes(&table.columns[c.col].get(row as usize), &c.kind))
            })
            .collect()
    }

    /// Table lengths around the chunk width, and a multi-block one.
    const EDGE_LENGTHS: [usize; 7] = [0, 1, 63, 64, 65, 1000, 2100];

    #[test]
    fn kernels_match_the_scalar_truth_table() {
        let batch = BindingBatch::default();
        let conjuncts = edge_conjuncts();
        for n in EDGE_LENGTHS {
            let table = edge_value_table(n);
            let all: Vec<u32> = (0..n as u32).collect();
            // Index candidates arrive in key order, not row order.
            let shuffled: Vec<u32> =
                (0..n as u32).rev().step_by(2).chain((0..n as u32).step_by(2)).collect();
            let mut selection = Selection::default();
            for conjunct in &conjuncts {
                let kernel = Kernel::lower(conjunct, &table, &batch, 0);
                let what = format!("n={n} {:?}", conjunct.kind);
                selection.filter_range(&[kernel], n);
                let expected = reference_rows(&table, std::slice::from_ref(conjunct), &all);
                assert_eq!(selection.as_slice(), expected, "range, {what}");
                let out = selection.room(shuffled.len());
                out[..shuffled.len()].copy_from_slice(&shuffled);
                selection.len = shuffled.len();
                selection.filter_ids(&[kernel]);
                let expected = reference_rows(&table, std::slice::from_ref(conjunct), &shuffled);
                assert_eq!(selection.as_slice(), expected, "ids, {what}");
            }
        }
    }

    #[test]
    fn fused_conjuncts_match_one_at_a_time() {
        let batch = BindingBatch::default();
        let conjuncts = edge_conjuncts();
        for n in EDGE_LENGTHS {
            let table = edge_value_table(n);
            let all: Vec<u32> = (0..n as u32).collect();
            let mut fused = Selection::default();
            let mut stepwise = Selection::default();
            for width in 1..=FUSED {
                // Windows that mix both columns, operators and operands.
                for start in (0..conjuncts.len()).step_by(37) {
                    let group: Vec<ScanConjunct> = (0..width)
                        .map(|k| conjuncts[(start + k * 101) % conjuncts.len()].clone())
                        .collect();
                    let kernels: Vec<Kernel<'_>> =
                        group.iter().map(|c| Kernel::lower(c, &table, &batch, 0)).collect();
                    fused.filter_range(&kernels, n);
                    stepwise.filter_range(&kernels[..1], n);
                    for kernel in &kernels[1..] {
                        stepwise.filter_ids(std::slice::from_ref(kernel));
                    }
                    let what =
                        format!("n={n} {:?}", group.iter().map(|c| &c.kind).collect::<Vec<_>>());
                    assert_eq!(fused.as_slice(), stepwise.as_slice(), "{what}");
                    assert_eq!(fused.as_slice(), reference_rows(&table, &group, &all), "{what}");
                }
            }
        }
    }

    #[test]
    fn unfiltered_scan_counts_every_row() {
        let db = tpch();
        assert_batch_matches_scalar(&db, "SELECT * FROM region AS r", "columnar", &[vec![]]);
    }
}
