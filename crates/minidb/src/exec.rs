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
//! [`PreparedExec`] mirrors [`crate::prepared::PreparedTemplate`] for
//! execution: [`PreparedExec::prepare`] classifies a template once into
//! one of three tiers, and [`PreparedExec::execute_batch`] evaluates a
//! whole [`BindingBatch`] against it, returning per-row
//! `(cardinality, work_micros)` results that are **bit-identical** to
//! instantiating and executing each row through the scalar path (a
//! `debug_assertions` cross-check verifies exactly that on every batch).
//!
//! ### Tiers
//!
//! * **Columnar** — single-table statements whose `WHERE` conjuncts are
//!   all simple comparisons/`BETWEEN`s over numeric storage columns and
//!   whose output phase is count-preserving (no grouping, `HAVING`, or
//!   `DISTINCT`; projections are wildcard/column/literal; `ORDER BY`
//!   keys are bare columns). Per row, the planner's access-path choice
//!   (selectivity arithmetic + seq-vs-index argmin) is replayed from the
//!   cached skeleton, then binding-dependent filters run as *selection
//!   vectors* over the table's column-major storage
//!   ([`crate::storage::Column::int_view`]/[`float_view`]) in chunked,
//!   autovectorization-friendly lane loops — no row materialization, no
//!   `Value` clones, no allocation on the warm path.
//! * **Hoisted** — everything else without placeholder-bearing
//!   subqueries. Uncorrelated subquery results are executed **once** at
//!   prepare time and injected into every per-row execution (the scalar
//!   path re-executes them on every call); rows still instantiate and
//!   run through the row-at-a-time executor.
//! * **Scalar** — templates with placeholders inside subquery bodies
//!   (the subquery result genuinely changes per row): instantiate and
//!   execute each row exactly like the from-scratch path.
//!
//! ### Work accounting
//!
//! The columnar tier never runs the row executor, so it must *account*
//! for the work units the executor would have charged: rows scanned
//! (all rows for a seq scan, the index-probe slice for an index scan),
//! plus the output phase's sort and projection charges on the filtered
//! row count. The replayed access-path argmin guarantees the tier
//! charges the same scan the executor would have run.
//!
//! [`float_view`]: crate::storage::Column::float_view

use crate::catalog::Database;
use crate::engine::WORK_UNIT_MICROS;
use crate::error::DbError;
use crate::estimator::{
    column_op_constant_selectivity, column_range_selectivity, flip, Estimator,
};
use crate::executor;
use crate::expr_eval::SubqueryResults;
use crate::planner;
use crate::prepared::BindingBatch;
use crate::storage::{DataType, Table};
use sqlkit::{BinaryOp, Expr, Select, Template, Value};
use std::cmp::Ordering;
use std::collections::HashMap;

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
    /// Flat column-major selectivity buffer: conjunct `c`, row `r` lives
    /// at `c * batch_len + r` (mirrors `RecostScratch::sels`).
    sels: Vec<f64>,
    /// Rows routed to the scalar fallback (non-numeric bound values).
    fallback: Vec<bool>,
    /// Per-conjunct index existence, resolved once per batch.
    has_index: Vec<bool>,
    /// Per-row binding map, rebuilt only for fallback/scalar rows.
    row_bindings: HashMap<u32, Value>,
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
    /// Column name, for per-batch stats and index lookups.
    name: String,
    /// Storage column index in the table.
    col: usize,
    /// `planner::count_leaves_raw` of the conjunct (for `quals`).
    raw_leaves: usize,
    /// Cached selectivity iff the conjunct is placeholder-free
    /// (mirrors `PreparedPredicate::cached_sel`).
    cached_sel: Option<f64>,
    /// Prepare-time probe decision iff placeholder-free (mirrors
    /// `IndexProbe::Always`/`Never`).
    static_probe: Option<bool>,
    kind: Tier1Kind,
}

/// The columnar tier's cached skeleton: everything `Database::execute`
/// derives from the statement alone, hoisted out of the per-row loop.
#[derive(Debug, Clone)]
struct Tier1 {
    table: String,
    base_rows: f64,
    width: f64,
    /// `count_leaves` of the conjoined filter (0 when unfiltered).
    quals: usize,
    limit: Option<u64>,
    /// `ORDER BY` charges one work unit per sorted record.
    charge_order_by: bool,
    conjuncts: Vec<Tier1Conjunct>,
}

/// The hoisted tier: uncorrelated subquery results (and the work units
/// their execution charged) captured once at prepare time.
#[derive(Debug, Clone)]
struct Tier2 {
    /// `Ok((results, work))` or the error `collect_subquery_results`
    /// reported — replayed per row after plan validation, matching the
    /// scalar path's error order.
    sub: Result<(SubqueryResults, u64), DbError>,
}

#[derive(Debug, Clone)]
enum Tier {
    Columnar(Tier1),
    Hoisted(Tier2),
    Scalar,
}

/// A template classified once, executable per binding batch.
#[derive(Debug, Clone)]
pub struct PreparedExec {
    template: Template,
    /// Sorted placeholder ids (checked against batches on each call).
    placeholder_ids: Vec<u32>,
    tier: Tier,
}

impl PreparedExec {
    /// Classify a template into its execution tier. Infallible:
    /// anything the columnar tier cannot prove count-exact demotes to
    /// the hoisted tier, and anything whose subquery results depend on
    /// the bindings demotes to the scalar tier. Preparation failures
    /// (e.g. unknown tables) also demote to the scalar tier, which
    /// reproduces the error per row.
    pub fn prepare(db: &Database, template: &Template) -> PreparedExec {
        let select = template.select();
        let subqueries = select.subqueries();
        let tier = if subqueries.iter().any(|s| s.has_placeholders()) {
            Tier::Scalar
        } else if subqueries.is_empty() {
            match Tier1::try_prepare(db, select) {
                Some(tier1) => Tier::Columnar(tier1),
                None => Tier::Hoisted(Tier2::prepare(db, select)),
            }
        } else {
            Tier::Hoisted(Tier2::prepare(db, select))
        };
        PreparedExec {
            template: template.clone(),
            placeholder_ids: template.placeholders(),
            tier,
        }
    }

    /// The template this plan was prepared from.
    pub fn template(&self) -> &Template {
        &self.template
    }

    /// Sorted placeholder ids.
    pub fn placeholder_ids(&self) -> &[u32] {
        &self.placeholder_ids
    }

    /// The execution tier this template classified into:
    /// `"columnar"`, `"hoisted"`, or `"scalar"`.
    pub fn tier(&self) -> &'static str {
        match self.tier {
            Tier::Columnar(_) => "columnar",
            Tier::Hoisted(_) => "hoisted",
            Tier::Scalar => "scalar",
        }
    }

    /// Execute the template for every batch row, returning per-row
    /// `(cardinality, work_micros)` results bit-identical to
    /// `db.execute(&template.instantiate(row)?)` — including errors
    /// (compared by value; `DbError` is `PartialEq`).
    ///
    /// The batch-level error mirrors [`crate::prepared::PreparedTemplate::recost_batch`]:
    /// a batch missing a placeholder column reports the smallest
    /// unbound id. Extra batch columns are ignored.
    // detlint::hot
    pub fn execute_batch<'s>(
        &self,
        db: &Database,
        batch: &BindingBatch,
        scratch: &'s mut ExecScratch,
    ) -> Result<&'s [ExecRowResult], DbError> {
        // Ids are sorted ascending, so the first gap found is the
        // smallest missing id.
        for id in &self.placeholder_ids {
            if batch.ids().binary_search(id).is_err() {
                return Err(DbError::UnboundPlaceholder(*id));
            }
        }
        scratch.results.clear();
        match &self.tier {
            Tier::Columnar(tier1) => tier1.run(self, db, batch, scratch),
            Tier::Hoisted(tier2) => tier2.run(self, db, batch, scratch),
            Tier::Scalar => {
                for row in 0..batch.len() {
                    // detlint::allow(hot_alloc): the scalar tier instantiates and executes per row and allocates by design; the columnar tier is the alloc-free path and alloc_probe pins it
                    let result = scalar_row(
                        db,
                        &self.template,
                        batch,
                        row,
                        &mut scratch.row_bindings,
                    );
                    scratch.results.push(result);
                }
            }
        }

        // Ground truth cross-check: every row must match the scalar
        // instantiate-and-execute path bit-for-bit.
        #[cfg(debug_assertions)]
        {
            let mut map = HashMap::new();
            for row in 0..batch.len() {
                batch.fill_row_map(row, &mut map);
                let expected = match self.template.instantiate(&map) {
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

/// The scalar path for one row: instantiate and execute from scratch.
/// Used by the scalar tier and by columnar-tier rows whose bound values
/// fall outside the kernel's numeric domain.
fn scalar_row(
    db: &Database,
    template: &Template,
    batch: &BindingBatch,
    row: usize,
    row_bindings: &mut HashMap<u32, Value>,
) -> Result<(f64, f64), DbError> {
    batch.fill_row_map(row, row_bindings);
    let select = template
        .instantiate(row_bindings)
        .map_err(|e| DbError::Unsupported(e.to_string()))?;
    let (_, rows, work) = executor::execute(db, &select)?;
    Ok((rows.len() as f64, work as f64 * WORK_UNIT_MICROS))
}

impl Tier2 {
    fn prepare(db: &Database, select: &Select) -> Tier2 {
        // Subquery bodies are placeholder-free here (placeholder-bearing
        // ones take the scalar tier), so their results and the work
        // charged to execute them are binding-invariant.
        let mut work = 0u64;
        let sub = executor::collect_subquery_results(db, select, &mut work)
            .map(|results| (results, work));
        Tier2 { sub }
    }

    fn run(
        &self,
        exec: &PreparedExec,
        db: &Database,
        batch: &BindingBatch,
        scratch: &mut ExecScratch,
    ) {
        for row in 0..batch.len() {
            batch.fill_row_map(row, &mut scratch.row_bindings);
            let result = match exec.template.instantiate(&scratch.row_bindings) {
                Err(e) => Err(DbError::Unsupported(e.to_string())),
                Ok(select) => match &self.sub {
                    Ok((results, sub_work)) => {
                        // Work starts at the hoisted subqueries' charge:
                        // the counter is a sum, so charging it up front
                        // is identical to the scalar path's interleaved
                        // accounting.
                        let mut work = *sub_work;
                        executor::execute_with(db, &select, Some(results), &mut work)
                            .map(|(_, rows)| {
                                (rows.len() as f64, work as f64 * WORK_UNIT_MICROS)
                            })
                    }
                    Err(e) => {
                        // The scalar path plans before collecting
                        // subqueries, so plan errors take precedence
                        // over the captured collection error.
                        match planner::plan(db, &select) {
                            Err(plan_err) => Err(plan_err),
                            Ok(_) => Err(e.clone()),
                        }
                    }
                },
            };
            scratch.results.push(result);
        }
    }
}

impl Tier1 {
    /// Admit a statement into the columnar tier, caching its skeleton.
    /// Returns `None` for any shape the kernels cannot reproduce
    /// count-exactly; the caller then demotes to the hoisted tier.
    fn try_prepare(db: &Database, select: &Select) -> Option<Tier1> {
        let scope = planner::build_scope(db, select).ok()?;
        if scope.bindings.len() != 1 {
            return None;
        }
        if planner::count_aggregates(select) > 0
            || !select.group_by.is_empty()
            || select.having.is_some()
            || select.distinct
        {
            return None;
        }
        // The output phase must be count-preserving and error-free for
        // any numeric/null binding: wildcard/column/literal projections
        // and bare-column sort keys cannot fail evaluation.
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
        let (scan_filters, edges, residuals) =
            planner::classify_predicates(db, select, &scope).ok()?;
        if !edges.is_empty() || !residuals.is_empty() {
            return None;
        }

        let table_name = &scope.bindings[0].1;
        let table = db.table(table_name).ok()?;
        let stats = db.stats(table_name).ok()?;
        let estimator = Estimator::new(db, &scope);

        let mut conjuncts = Vec::with_capacity(scan_filters[0].len());
        for expr in &scan_filters[0] {
            conjuncts.push(kernelable(db, table_name, table, &estimator, expr)?);
        }
        let quals = if conjuncts.is_empty() {
            0
        } else {
            conjuncts.iter().map(|c| c.raw_leaves).sum::<usize>().max(1)
        };
        Some(Tier1 {
            table: table_name.clone(),
            base_rows: stats.row_count as f64,
            width: table.row_width() as f64,
            quals,
            limit: select.limit,
            charge_order_by: !select.order_by.is_empty(),
            conjuncts,
        })
    }

    fn run(
        &self,
        exec: &PreparedExec,
        db: &Database,
        batch: &BindingBatch,
        scratch: &mut ExecScratch,
    ) {
        let n = batch.len();
        let (Ok(table), Ok(stats_table)) =
            (db.table(&self.table), db.stats(&self.table))
        else {
            // Unreachable for a database the template prepared against;
            // reproduce whatever the scalar path reports.
            for row in 0..n {
                let result = scalar_row(
                    db,
                    &exec.template,
                    batch,
                    row,
                    &mut scratch.row_bindings,
                );
                scratch.results.push(result);
            }
            return;
        };
        let model = db.cost_model();
        let n_rows = table.row_count();
        let n_conj = self.conjuncts.len();

        // ---- per-batch resolution -----------------------------------
        scratch.has_index.clear();
        for conjunct in &self.conjuncts {
            scratch
                .has_index
                .push(db.index_on(&self.table, &conjunct.name).is_some());
        }

        // Rows binding a non-numeric, non-null value fall back to the
        // scalar path: the planner's validation rejects such literals
        // with a `TypeMismatch` the kernels cannot reproduce.
        scratch.fallback.clear();
        scratch.fallback.resize(n, false);
        for id in &exec.placeholder_ids {
            let col = batch.column_of(*id);
            for (row, flag) in scratch.fallback.iter_mut().enumerate() {
                if matches!(batch.value(col, row), Value::Bool(_) | Value::Str(_)) {
                    *flag = true;
                }
            }
        }

        // ---- phase A: columnar selectivities ------------------------
        // One pass per conjunct over the batch's value columns, through
        // the estimator's own comparison/range helpers (bit-identical to
        // the planner on the instantiated statement).
        scratch.sels.clear();
        scratch.sels.resize(n_conj * n, 0.0);
        for (c, conjunct) in self.conjuncts.iter().enumerate() {
            let out = &mut scratch.sels[c * n..(c + 1) * n];
            if let Some(sel) = conjunct.cached_sel {
                out.fill(sel);
                continue;
            }
            let stats = stats_table.columns.get(&conjunct.name);
            match &conjunct.kind {
                Tier1Kind::Cmp { op, value } => {
                    for (row, slot) in out.iter_mut().enumerate() {
                        let sel =
                            column_op_constant_selectivity(stats, *op, value.resolve(batch, row));
                        *slot = sel.clamp(0.0, 1.0);
                    }
                }
                Tier1Kind::Between { negated, low, high } => {
                    for (row, slot) in out.iter_mut().enumerate() {
                        let sel = column_range_selectivity(
                            stats,
                            low.resolve(batch, row).as_f64(),
                            high.resolve(batch, row).as_f64(),
                        );
                        let sel = if *negated { 1.0 - sel } else { sel };
                        *slot = sel.clamp(0.0, 1.0);
                    }
                }
            }
        }

        // ---- phase B: per-row access-path replay + selection --------
        for row in 0..n {
            if scratch.fallback[row] {
                let result = scalar_row(
                    db,
                    &exec.template,
                    batch,
                    row,
                    &mut scratch.row_bindings,
                );
                scratch.results.push(result);
                continue;
            }

            // Replay the planner's seq-vs-index argmin on the cached
            // skeleton: same operands, same order, strict `<` keeps the
            // first winner on ties — so the charged scan is exactly the
            // one the executor would have run.
            let mut selectivity = 1.0;
            for c in 0..n_conj {
                selectivity *= scratch.sels[c * n + row];
            }
            let out_rows = self.base_rows * selectivity;
            let mut best_cost =
                model.seq_scan(self.base_rows, self.width, self.quals, out_rows);
            let mut winner: Option<usize> = None;
            for (c, conjunct) in self.conjuncts.iter().enumerate() {
                let probes = match conjunct.static_probe {
                    Some(fixed) => fixed,
                    None => {
                        scratch.has_index[c]
                            && match &conjunct.kind {
                                Tier1Kind::Cmp { op, value } => {
                                    *op != BinaryOp::NotEq
                                        && value
                                            .resolve(batch, row)
                                            .as_f64()
                                            .is_some()
                                }
                                Tier1Kind::Between { negated, low, high } => {
                                    !*negated
                                        && low.resolve(batch, row).as_f64().is_some()
                                        && high.resolve(batch, row).as_f64().is_some()
                                }
                            }
                    }
                };
                if !probes {
                    continue;
                }
                let match_rows = self.base_rows * scratch.sels[c * n + row];
                let index_cost = model.index_scan(
                    self.base_rows,
                    self.width,
                    match_rows,
                    self.quals,
                    out_rows,
                );
                if index_cost < best_cost {
                    best_cost = index_cost;
                    winner = Some(c);
                }
            }

            // Candidate enumeration + selection-vector filtering.
            let (candidates, selected) = if n_conj == 0 {
                (n_rows, n_rows)
            } else {
                match winner {
                    None => {
                        // Sequential scan: the executor visits every row.
                        let pred =
                            pred_for(&self.conjuncts[0], table, batch, row);
                        fill_range_pred(&pred, n_rows, &mut scratch.selection);
                        for conjunct in &self.conjuncts[1..] {
                            let pred = pred_for(conjunct, table, batch, row);
                            retain_pred(&pred, &mut scratch.selection);
                        }
                        (n_rows, scratch.selection.len())
                    }
                    Some(w) => {
                        // Index scan: the executor visits the probe
                        // slice, then re-evaluates the *full* filter on
                        // every candidate.
                        let conjunct = &self.conjuncts[w];
                        let (lo, hi) = probe_bounds(conjunct, batch, row);
                        let index = db
                            .index_on(&self.table, &conjunct.name)
                            .expect("probe decision implies the index exists");
                        let slice = index.probe_slice(lo, hi);
                        scratch.selection.clear();
                        scratch
                            .selection
                            .extend(slice.iter().map(|&(_, row_id)| row_id));
                        for conjunct in &self.conjuncts {
                            let pred = pred_for(conjunct, table, batch, row);
                            retain_pred(&pred, &mut scratch.selection);
                        }
                        (slice.len(), scratch.selection.len())
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
            scratch
                .results
                .push(Ok((cardinality as f64, work as f64 * WORK_UNIT_MICROS)));
        }
    }
}

/// Recognize one conjunct as kernel-executable: a comparison or
/// `BETWEEN` whose column is a numeric *storage* column of the scanned
/// table and whose non-column operands are placeholders or
/// `Int`/`Float`/`Null` literals. Mirrors `prepared::classify_fast`,
/// tightened to the shapes the execution kernels reproduce exactly.
fn kernelable(
    db: &Database,
    table_name: &str,
    table: &Table,
    estimator: &Estimator<'_>,
    expr: &Expr,
) -> Option<Tier1Conjunct> {
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
    // Placeholder-free conjuncts cache the estimator's selectivity and
    // probe decision at prepare time, exactly like `PreparedPredicate`.
    let (cached_sel, static_probe) = if expr.has_placeholders() {
        (None, None)
    } else {
        let probes = planner::indexable_bounds(expr)
            .map(|(column, _, _)| db.index_on(table_name, &column).is_some())
            .unwrap_or(false);
        (Some(estimator.selectivity(expr)), Some(probes))
    };
    Some(Tier1Conjunct {
        name,
        col,
        raw_leaves: planner::count_leaves_raw(expr),
        cached_sel,
        static_probe,
        kind,
    })
}

/// Index-probe bounds of the winning conjunct, replaying
/// `planner::indexable_bounds` on the bound values: `=` gives a point
/// range, `<`/`<=` an upper bound, `>`/`>=` a lower bound, `BETWEEN`
/// both. The caller only probes when every needed value is numeric.
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

// ---- predicate kernels (phase B) --------------------------------------

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
                    // NULL never matches; Bool/Str rows took the scalar
                    // fallback before reaching the kernels.
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
        let prepared = PreparedExec::prepare(db, &template);
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
    fn dynamic_subqueries_take_the_scalar_tier() {
        let db = tpch();
        assert_batch_matches_scalar(
            &db,
            "SELECT c.c_name FROM customer AS c WHERE c.c_custkey IN \
             (SELECT orders.o_custkey FROM orders \
              WHERE orders.o_totalprice > {p_1})",
            "scalar",
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
        let prepared = PreparedExec::prepare(&db, &template);
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
        let prepared = PreparedExec::prepare(&db, &template);
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
