//! Prepared template plans: plan once per template, re-cost per binding
//! batch.
//!
//! SQLBarber's hot loop costs thousands of instantiations of the *same*
//! SQL template that differ only in placeholder values. Planning each
//! instantiation from scratch repeats work that cannot depend on the
//! bindings: scope construction, validation, predicate classification,
//! equi-join selectivities, and most selectivity arithmetic.
//! [`PreparedTemplate`] performs that invariant work exactly once and
//! caches a *plan skeleton*; [`PreparedTemplate::recost_batch`] then
//! replays only the binding-dependent parts for a whole
//! [`BindingBatch`] — per-row selectivity columns of placeholder-bearing
//! predicates and subqueries, greedy join ordering over the resulting
//! cardinalities, and the cost roll-up — skipping lexing, parsing, and
//! join-order search. It is the only replay: sequential callers pass a
//! batch of one.
//!
//! The replay is arithmetic-for-arithmetic identical to
//! [`crate::planner::plan`]: every multiplication, clamp, and comparison
//! happens in the same order on the same values, so each row's
//! `(rows, cost)` equals the planner's estimated rows and total cost for
//! the instantiated statement **bit-identically** (a `debug_assertions`
//! cross-check compares every row against `Database::explain`).
//!
//! ### What may be cached, and why
//!
//! * Predicate **classification** (scan filter / equi edge / residual)
//!   looks only at column references and `AND` structure — instantiation
//!   replaces `Placeholder` nodes with `Literal`s and changes neither.
//! * A conjunct without placeholders (anywhere, including inside subquery
//!   bodies) has a **fixed selectivity**; one with placeholders gets a
//!   per-row selectivity column. Recognized shapes (`column op {p}`,
//!   `column [NOT] BETWEEN`, `column [NOT] IN (subquery with
//!   placeholders)`) fill it through the estimator's own helpers;
//!   anything else substitutes and estimates row by row.
//! * A subquery without placeholders has fixed rows and cost. One with
//!   placeholders is prepared itself and recost over the same batch,
//!   giving per-row `(rows, cost)` columns; each row's subquery cost sums
//!   them in [`Select::subqueries`] order, as the planner accumulates it.
//! * Equi-join selectivities depend only on column statistics.
//! * Per-column distinct counts for `GROUP BY`/`DISTINCT` are fixed, but
//!   the group-count roll-up also depends on the input cardinality (its
//!   `sqrt(n)` fallback and coupon-collector curve), so only the distinct
//!   counts are cached and the curve is replayed per row.
//! * Nested `AND` selectivity is a product of already-clamped factors, so
//!   the planner's interior `clamp(0,1)` calls are identities and the
//!   replay may fold a flat product in the same association order.
//!
//! ### Contract
//!
//! Bindings arrive as one [`BindingBatch`]; nothing here takes a binding
//! map. Recognized shapes read values by `(column, row)` index, and the
//! generic shapes and the debug cross-check read a row through its
//! borrowed view ([`BindingBatch::row`]). The batch must have a column
//! for every placeholder of the template (otherwise the whole batch fails
//! with the smallest unbound id); extra columns are ignored.
//!
//! `recost_batch` assumes bindings are *type-compatible* with the
//! template (as produced by the placeholder-space sampler). Wildly
//! mistyped values can make the from-scratch path fail validation where
//! the replay still returns a number; the debug cross-check skips such
//! rows.

use crate::catalog::Database;
use crate::error::DbError;
use crate::estimator::{
    column_op_constant_selectivity, column_range_selectivity, flip, group_count_from_nds,
    in_subquery_selectivity, Estimator, Scope,
};
use crate::planner;
use sqlkit::{BinaryOp, ColumnRef, Expr, JoinKind, Select, Template, Value};
use std::collections::HashMap;

/// Struct-of-arrays binding batch — the one binding representation: one
/// `Vec<Value>` column per placeholder id. Rows come in through
/// [`BindingBatch::push_row`] (sorted `(id, value)` pairs, as a
/// placeholder-space decoder fills them into a reused buffer) or
/// [`BindingBatch::push_row_from`] (a row gathered from another batch).
/// [`PreparedTemplate::recost_batch`] reads values by `(column, row)`
/// index; row-at-a-time consumers — `Template::instantiate`,
/// `Expr::substitute`, SQL rendering — read a row through the borrowed
/// view [`BindingBatch::row`].
#[derive(Debug, Clone, Default)]
pub struct BindingBatch {
    /// Sorted, deduplicated placeholder ids — one per column.
    ids: Vec<u32>,
    /// `columns[i][row]` is the value bound to `ids[i]` in `row`.
    columns: Vec<Vec<Value>>,
    rows: usize,
}

impl BindingBatch {
    /// Empty batch over the given placeholder ids.
    pub fn new(mut ids: Vec<u32>) -> BindingBatch {
        ids.sort_unstable();
        ids.dedup();
        let columns = ids.iter().map(|_| Vec::new()).collect();
        BindingBatch { ids, columns, rows: 0 }
    }

    /// Re-target the batch to a (possibly different) id set, keeping the
    /// column buffers' capacity.
    pub fn reset(&mut self, ids: impl IntoIterator<Item = u32>) {
        self.rows = 0;
        self.ids.clear();
        self.ids.extend(ids);
        self.ids.sort_unstable();
        self.ids.dedup();
        self.columns.truncate(self.ids.len());
        for column in &mut self.columns {
            column.clear();
        }
        while self.columns.len() < self.ids.len() {
            self.columns.push(Vec::new());
        }
    }

    /// Append one row given as `(placeholder id, value)` pairs sorted by
    /// ascending id. Every batch id must appear — a gap reports the
    /// *smallest* unbound id (the `UnboundPlaceholder` convention) and
    /// leaves the batch unchanged — and pairs for ids outside the batch
    /// are ignored.
    pub fn push_row(&mut self, bindings: &[(u32, Value)]) -> Result<(), DbError> {
        debug_assert!(
            bindings.windows(2).all(|w| w[0].0 < w[1].0),
            "bindings must be sorted by strictly ascending placeholder id"
        );
        self.push_with(|id| {
            let at = bindings.binary_search_by_key(&id, |&(bound, _)| bound).ok()?;
            Some(&bindings[at].1)
        })
    }

    /// Append row `row` of `src`, column by column for this batch's ids —
    /// how a caller gathers a subset of one batch's rows into another.
    /// Same contract as [`BindingBatch::push_row`]: `src` columns this
    /// batch lacks are ignored, and an id `src` has no column for reports
    /// the smallest such id and leaves the batch unchanged.
    pub fn push_row_from(&mut self, src: &BindingBatch, row: usize) -> Result<(), DbError> {
        self.push_with(|id| src.value_of(id, row))
    }

    /// Append one row, asking `value_of` for each batch id in ascending
    /// order; on the first `None` the partial row is rolled back.
    fn push_with<'v>(
        &mut self,
        value_of: impl Fn(u32) -> Option<&'v Value>,
    ) -> Result<(), DbError> {
        for (slot, &id) in self.ids.iter().enumerate() {
            match value_of(id) {
                Some(value) => self.columns[slot].push(value.clone()),
                None => {
                    for column in &mut self.columns {
                        column.truncate(self.rows);
                    }
                    return Err(DbError::UnboundPlaceholder(id));
                }
            }
        }
        self.rows += 1;
        Ok(())
    }

    /// Value bound to `id` in `row`, or `None` when the batch has no
    /// column for `id`.
    pub fn value_of(&self, id: u32, row: usize) -> Option<&Value> {
        debug_assert!(row < self.rows);
        let slot = self.ids.binary_search(&id).ok()?;
        Some(&self.columns[slot][row])
    }

    /// Borrowed view of one row: placeholder id → bound value. This is
    /// the lookup `Template::instantiate` and `Expr::substitute` take, so
    /// rendering and the row-at-a-time fallbacks read the batch in place.
    pub fn row<'b>(&'b self, row: usize) -> impl Fn(u32) -> Option<&'b Value> + Copy + 'b {
        move |id| self.value_of(id, row)
    }

    /// Test constructor: a batch over `ids` holding `rows`, each given as
    /// `(id, value)` pairs in any order.
    #[cfg(test)]
    pub(crate) fn of(ids: &[u32], rows: &[Vec<(u32, Value)>]) -> BindingBatch {
        let mut batch = BindingBatch::new(ids.to_vec());
        for row in rows {
            let mut row = row.clone();
            row.sort_by_key(|&(id, _)| id);
            batch.push_row(&row).unwrap();
        }
        batch
    }

    /// Drop all rows, keeping the id set and column capacity.
    pub fn clear(&mut self) {
        for column in &mut self.columns {
            column.clear();
        }
        self.rows = 0;
    }

    /// Number of binding rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Sorted, deduplicated placeholder ids (one per column).
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    pub(crate) fn value(&self, column: usize, row: usize) -> &Value {
        &self.columns[column][row]
    }

    /// Column index of a placeholder id (must exist — callers validate
    /// template ids against the batch first).
    pub(crate) fn column_of(&self, id: u32) -> usize {
        self.ids.binary_search(&id).expect("placeholder id has a batch column")
    }
}

/// Caller-owned arena of reusable buffers for
/// [`PreparedTemplate::recost_batch`]. Holding it across batches keeps
/// the warm path allocation-free: every buffer is cleared, never
/// dropped, so steady-state batches reuse capacity from earlier ones.
#[derive(Debug, Default)]
pub struct RecostScratch {
    /// `(estimated_rows, total_cost)` per batch row — the return slice.
    results: Vec<(f64, f64)>,
    /// Flat column-major selectivity buffer: dynamic-predicate column
    /// `c`, row `r` lives at `c * batch_len + r`.
    sels: Vec<f64>,
    scan_rows: Vec<f64>,
    scan_costs: Vec<f64>,
    order: Vec<usize>,
    used_edges: Vec<bool>,
    applied_residuals: Vec<bool>,
    /// Per-conjunct probe decisions, flattened over (scan, conjunct).
    probes: Vec<BatchProbe>,
    /// Selectivity column per residual (`None` when cached).
    residual_cols: Vec<Option<usize>>,
    /// One scan's gathered conjunct selectivities (cached and dynamic,
    /// in replay order), consumed by the chunked product kernel.
    conj_sels: Vec<f64>,
    /// One nested arena per subquery, in [`Select::subqueries`] order;
    /// a placeholder-bearing subquery's `results` are its per-row
    /// `(rows, cost)` columns. Grown once, then reused.
    subqueries: Vec<RecostScratch>,
    /// Winning access path per (row, scan), row-major.
    access_paths: Vec<Option<usize>>,
    /// Join order per row: `scans.len()` scan indices per row,
    /// row-major.
    join_orders: Vec<usize>,
}

impl RecostScratch {
    /// Fresh scratch; equivalent to `RecostScratch::default()`.
    pub fn new() -> RecostScratch {
        RecostScratch::default()
    }

    /// The last batch's access path per (row, scan), row-major: the index
    /// of the scan conjunct whose index probe won the planner's
    /// seq-vs-index argmin, or `None` for a sequential scan. The
    /// vectorized executor runs exactly the scan recorded here.
    pub(crate) fn access_paths(&self) -> &[Option<usize>] {
        &self.access_paths
    }

    /// The last batch's left-deep join order per row, row-major: one scan
    /// index per relation, in the order the planner joins them (the
    /// first is the pipeline's leftmost input).
    pub(crate) fn join_orders(&self) -> &[usize] {
        &self.join_orders
    }
}

/// Prepare-time classification of a placeholder-bearing predicate into a
/// shape the batch path can re-estimate without per-row substitution.
/// Anything unrecognized falls back to the generic (substitute +
/// estimate) path, which stays bit-identical, just slower.
#[derive(Debug, Clone)]
enum FastShape {
    /// `column op {placeholder}` — or the flipped orientation, with `op`
    /// already flipped at classification time.
    Cmp { column: ColumnRef, op: BinaryOp, id: u32 },
    /// `column [NOT] BETWEEN bound AND bound` where each bound is a
    /// placeholder or a literal.
    Between { column: ColumnRef, negated: bool, low: FastBound, high: FastBound },
    /// `column [NOT] IN (subquery)` where the subquery (index `subquery`
    /// in [`Select::subqueries`] order) holds placeholders; `lhs_nd` is
    /// the column's distinct count, fixed at prepare time.
    InSubquery { negated: bool, lhs_nd: Option<f64>, subquery: usize },
}

/// One bound of a fast-shape `BETWEEN`.
#[derive(Debug, Clone, Copy)]
enum FastBound {
    /// Bound is a placeholder; resolved to a batch column per batch.
    Slot(u32),
    /// Bound is a literal, pre-folded to its numeric value (`None` for
    /// non-numeric literals, matching `constant_of(..).and_then(as_f64)`).
    Const(Option<f64>),
}

/// Per-batch resolution of one conjunct's index-probe decision.
#[derive(Debug, Clone, Copy)]
enum BatchProbe {
    /// Decision is batch-invariant (Never/Always, or Dynamic with no
    /// index / unprobeable operator).
    Fixed(bool),
    /// Probes iff the value in `col` is numeric for the row.
    Cmp { col: usize },
    /// Probes iff both bounds are numeric for the row.
    Between { low: BatchBound, high: BatchBound },
    /// Re-derive per row via substitute + `indexable_bounds`.
    Generic,
}

/// A `FastBound` with its placeholder resolved to a batch column.
#[derive(Debug, Clone, Copy)]
enum BatchBound {
    Col(usize),
    Const(Option<f64>),
}

impl BatchBound {
    fn resolve(self, batch: &BindingBatch, row: usize) -> Option<f64> {
        match self {
            BatchBound::Col(col) => batch.value(col, row).as_f64(),
            BatchBound::Const(v) => v,
        }
    }

    fn of(bound: FastBound, batch: &BindingBatch) -> BatchBound {
        match bound {
            FastBound::Slot(id) => BatchBound::Col(batch.column_of(id)),
            FastBound::Const(v) => BatchBound::Const(v),
        }
    }
}

/// A template planned once, recostable per binding.
#[derive(Debug, Clone)]
pub struct PreparedTemplate {
    template: Template,
    /// Sorted placeholder ids (checked against bindings on each recost).
    placeholder_ids: Vec<u32>,
    body: PreparedSelect,
}

impl PreparedTemplate {
    /// Plan a template once: validate it (via a representative
    /// instantiation, exactly like [`Database::validate_template`]) and
    /// cache the binding-invariant plan skeleton.
    pub fn prepare(db: &Database, template: &Template) -> Result<PreparedTemplate, DbError> {
        db.validate_template(template)?;
        let body = PreparedSelect::prepare(db, template.select())?;
        Ok(PreparedTemplate {
            template: template.clone(),
            placeholder_ids: template.placeholders(),
            body,
        })
    }

    /// The template this plan was prepared from.
    pub fn template(&self) -> &Template {
        &self.template
    }

    /// Number of placeholders.
    pub fn arity(&self) -> usize {
        self.placeholder_ids.len()
    }

    /// Sorted placeholder ids.
    pub fn placeholder_ids(&self) -> &[u32] {
        &self.placeholder_ids
    }

    /// The join pipeline of a statement with no subqueries, residual or
    /// leftover predicates, or `HAVING`: its scope, its scans (each with
    /// its conjuncts in the order [`PreparedTemplate::recost_batch`]
    /// ranks their index probes and numbers its recorded access paths)
    /// and its equi-join edges. `None` for any other shape.
    pub(crate) fn pipeline(&self) -> Option<Pipeline<'_>> {
        let body = &self.body;
        let plain = body.subqueries.is_empty()
            && body.residuals.is_empty()
            && body.having.is_none();
        plain.then(|| Pipeline {
            scope: &body.scope,
            scans: body
                .scans
                .iter()
                .map(|scan| PipelineScan {
                    table: &scan.table,
                    conjuncts: scan.conjuncts.iter().map(|c| &c.predicate.expr).collect(),
                })
                .collect(),
            edges: body
                .edges
                .iter()
                .zip(&body.edge_columns)
                .map(|(&(left, right, _), (left_column, right_column))| PipelineEdge {
                    left,
                    right,
                    left_column,
                    right_column,
                })
                .collect(),
            syntactic_order: body.syntactic_order,
        })
    }

    /// Batch recost: `(estimated_rows, total_cost)` per batch row, each
    /// bit-identical to `db.explain(&template.instantiate(row)?)`
    /// (debug-asserted). The binding-invariant skeleton walk is hoisted
    /// out of the loop: each placeholder-bearing predicate is classified
    /// once per template, its per-row selectivities are computed as a
    /// tight columnar loop over the batch's value columns, each
    /// placeholder-bearing subquery is recost over the same batch, and
    /// only the scalar cost roll-up replays per row — values are read by
    /// `(column, row)` index, with no per-row allocation (generic
    /// predicate shapes excepted). `scratch` is a caller-owned arena; reusing it
    /// across batches makes the warm path allocation-free. It also keeps
    /// each row's winning access path per scan, which the vectorized
    /// executor runs.
    ///
    /// Extra batch columns beyond the template's placeholders are
    /// ignored; a missing column reports the smallest unbound id.
    // detlint::hot
    pub fn recost_batch<'s>(
        &self,
        db: &Database,
        batch: &BindingBatch,
        scratch: &'s mut RecostScratch,
    ) -> Result<&'s [(f64, f64)], DbError> {
        // Ids are sorted ascending, so the first gap found is the
        // smallest missing id.
        for id in &self.placeholder_ids {
            if batch.ids.binary_search(id).is_err() {
                return Err(DbError::UnboundPlaceholder(*id));
            }
        }
        self.body.recost_batch(db, batch, scratch);

        // Ground truth cross-check: the from-scratch planner must agree
        // bit-for-bit on every row. Rows whose instantiation it rejects
        // (type-incompatible bindings are outside the contract) are
        // skipped.
        #[cfg(debug_assertions)]
        {
            for (row, &(rows, cost)) in scratch.results.iter().enumerate() {
                let Ok(query) = self.template.instantiate(batch.row(row)) else { continue };
                let Ok(explain) = db.explain(&query) else { continue };
                debug_assert_eq!(
                    rows.to_bits(),
                    explain.estimated_rows.to_bits(),
                    "batch recost rows diverged from planner at row {row}: \
                     {rows} vs {} for {query}",
                    explain.estimated_rows
                );
                debug_assert_eq!(
                    cost.to_bits(),
                    explain.total_cost.to_bits(),
                    "batch recost cost diverged from planner at row {row}: \
                     {cost} vs {} for {query}",
                    explain.total_cost
                );
            }
        }
        Ok(&scratch.results)
    }
}

/// A statement's left-deep join pipeline, as [`PreparedTemplate::pipeline`]
/// exposes it to the vectorized executor.
#[derive(Debug)]
pub(crate) struct Pipeline<'a> {
    pub(crate) scope: &'a Scope,
    /// One scan per `FROM` binding, in scope order.
    pub(crate) scans: Vec<PipelineScan<'a>>,
    /// Equi-join edges, in classification order.
    pub(crate) edges: Vec<PipelineEdge<'a>>,
    /// The join order is the syntactic one on every row.
    pub(crate) syntactic_order: bool,
}

/// One scan of a [`Pipeline`].
#[derive(Debug)]
pub(crate) struct PipelineScan<'a> {
    pub(crate) table: &'a str,
    /// Pushed-down conjuncts, in recorded-access-path order.
    pub(crate) conjuncts: Vec<&'a Expr>,
}

/// One equi-join edge of a [`Pipeline`]: `left.left_column =
/// right.right_column`, bindings numbered in scope order.
#[derive(Debug)]
pub(crate) struct PipelineEdge<'a> {
    pub(crate) left: usize,
    pub(crate) right: usize,
    pub(crate) left_column: &'a ColumnRef,
    pub(crate) right_column: &'a ColumnRef,
}

/// A predicate with its binding-invariant facts cached. `cached_sel` is
/// `Some` iff the expression is placeholder-free (deeply, including
/// subquery bodies).
#[derive(Debug, Clone)]
struct PreparedPredicate {
    expr: Expr,
    cached_sel: Option<f64>,
    /// Comparison leaves without the floor of one (summable).
    raw_leaves: usize,
    /// Batch-path shape, classified once at prepare time; `Some` only
    /// when the predicate is placeholder-bearing and of a recognized
    /// shape.
    fast: Option<FastShape>,
    /// Generic-shape predicate holding a placeholder-bearing subquery:
    /// each row is estimated with that row's rendered subquery texts.
    row_subqueries: bool,
}

impl PreparedPredicate {
    fn prepare(
        estimator: &Estimator<'_>,
        subqueries: &[PreparedSubquery],
        expr: Expr,
    ) -> PreparedPredicate {
        let (cached_sel, fast) = if expr.has_placeholders() {
            (None, classify_fast(estimator, subqueries, &expr))
        } else {
            (Some(estimator.selectivity(&expr)), None)
        };
        let row_subqueries = cached_sel.is_none()
            && fast.is_none()
            && expr.subqueries().iter().any(|s| s.has_placeholders());
        let raw_leaves = planner::count_leaves_raw(&expr);
        PreparedPredicate { expr, cached_sel, raw_leaves, fast, row_subqueries }
    }
}

/// Recognize the predicate shapes whose selectivity the batch path can
/// replay directly from a value column. The replay must stay
/// bit-identical to `Estimator::selectivity` on the substituted
/// expression, so only shapes whose normalization is trivial are
/// accepted: a bare `column op {placeholder}` comparison (either
/// orientation), `column [NOT] BETWEEN` with placeholder/literal bounds,
/// or `column [NOT] IN` a placeholder-bearing subquery. Everything else
/// — compound booleans, arithmetic around the placeholder, negated
/// columns, `EXISTS` — takes the generic substitute path.
fn classify_fast(
    estimator: &Estimator<'_>,
    subqueries: &[PreparedSubquery],
    expr: &Expr,
) -> Option<FastShape> {
    match expr {
        Expr::Binary { left, op, right } if op.is_comparison() => {
            match (left.as_ref(), right.as_ref()) {
                (Expr::Column(column), Expr::Placeholder(id)) => {
                    Some(FastShape::Cmp { column: column.clone(), op: *op, id: *id })
                }
                (Expr::Placeholder(id), Expr::Column(column)) => {
                    Some(FastShape::Cmp { column: column.clone(), op: flip(*op), id: *id })
                }
                _ => None,
            }
        }
        Expr::Between { expr: target, negated, low, high } => {
            let Expr::Column(column) = target.as_ref() else { return None };
            let bound_of = |e: &Expr| match e {
                Expr::Placeholder(id) => Some(FastBound::Slot(*id)),
                Expr::Literal(v) => Some(FastBound::Const(v.as_f64())),
                _ => None,
            };
            Some(FastShape::Between {
                column: column.clone(),
                negated: *negated,
                low: bound_of(low)?,
                high: bound_of(high)?,
            })
        }
        Expr::InSubquery { expr: lhs, negated, subquery } => {
            let Expr::Column(column) = lhs.as_ref() else { return None };
            // A column LHS has no placeholders, so the subquery does and
            // was prepared as a dynamic one.
            let k = subqueries.iter().position(|s| {
                matches!(s, PreparedSubquery::Dynamic { template, .. } if **template == **subquery)
            })?;
            Some(FastShape::InSubquery {
                negated: *negated,
                lhs_nd: estimator.column_stats(column).map(|s| s.n_distinct.max(1.0)),
                subquery: k,
            })
        }
        _ => None,
    }
}

/// Index-probe candidacy of one scan conjunct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IndexProbe {
    /// Placeholder-free and either not indexable or no index exists.
    Never,
    /// Placeholder-free, indexable, and an index exists.
    Always,
    /// Contains placeholders: re-derive bounds per binding.
    Dynamic,
}

#[derive(Debug, Clone)]
struct PreparedConjunct {
    predicate: PreparedPredicate,
    index_probe: IndexProbe,
}

#[derive(Debug, Clone)]
struct PreparedScan {
    table: String,
    base_rows: f64,
    width: f64,
    /// `count_leaves` of the conjoined filter (0 when unfiltered).
    quals: usize,
    conjuncts: Vec<PreparedConjunct>,
}

#[derive(Debug, Clone)]
enum PreparedSubquery {
    /// Placeholder-free: rendered text, rows, and cost never change.
    Fixed { text: String, rows: f64, cost: f64 },
    /// Placeholder-bearing: recost over the batch recursively; the
    /// template renders a row's key text for generic predicates.
    Dynamic { body: Box<PreparedSelect>, template: Box<Select> },
}

/// The binding-invariant skeleton of one `SELECT` level.
#[derive(Debug, Clone)]
struct PreparedSelect {
    scope: Scope,
    /// In [`Select::subqueries`] order (the planner's accumulation order).
    subqueries: Vec<PreparedSubquery>,
    scans: Vec<PreparedScan>,
    /// `(left_binding, right_binding, cached equi-join selectivity)`,
    /// in classification order.
    edges: Vec<(usize, usize, f64)>,
    /// `(left_column, right_column)` of each edge, qualified.
    edge_columns: Vec<(ColumnRef, ColumnRef)>,
    /// `(binding bitmask, predicate)`, in classification order.
    residuals: Vec<(u64, PreparedPredicate)>,
    /// Outer joins (or a single relation) pin the syntactic join order.
    syntactic_order: bool,
    n_aggregates: usize,
    grouped: bool,
    /// Cached per-expression distinct counts for `GROUP BY`.
    group_nds: Vec<Option<f64>>,
    /// `(predicate, count_leaves)` for `HAVING`.
    having: Option<(PreparedPredicate, usize)>,
    /// Cached distinct counts of the projections; `Some` iff
    /// `DISTINCT` applies (distinct and not grouped).
    distinct_nds: Option<Vec<Option<f64>>>,
    has_order_by: bool,
    limit: Option<u64>,
    /// A pipeline breaker below the limit disables early-exit scaling.
    limit_breaker: bool,
}

impl PreparedSelect {
    fn prepare(db: &Database, select: &Select) -> Result<PreparedSelect, DbError> {
        let scope = planner::build_scope(db, select)?;

        // Subqueries first, mirroring the planner's validate() order.
        let mut fixed_subquery_rows = HashMap::new();
        let mut subqueries = Vec::new();
        for subquery in select.subqueries() {
            if subquery.has_placeholders() {
                subqueries.push(PreparedSubquery::Dynamic {
                    body: Box::new(PreparedSelect::prepare(db, subquery)?),
                    template: Box::new(subquery.clone()),
                });
            } else {
                let plan = planner::plan(db, subquery)?;
                let text = subquery.to_string();
                fixed_subquery_rows.insert(text.clone(), plan.est_rows);
                subqueries.push(PreparedSubquery::Fixed {
                    text,
                    rows: plan.est_rows,
                    cost: plan.total_cost,
                });
            }
        }

        let (scan_filters, raw_edges, raw_residuals) =
            planner::classify_predicates(db, select, &scope)?;

        // The prepare-time estimator sees only fixed subquery rows; that
        // is sufficient because any predicate touching a dynamic subquery
        // contains placeholders and is never cached.
        let estimator = Estimator::new(db, &scope).with_subquery_rows(fixed_subquery_rows);

        let mut scans = Vec::with_capacity(scope.bindings.len());
        for (idx, (_, table_name)) in scope.bindings.iter().enumerate() {
            let table = db.table(table_name)?;
            let stats = db.stats(table_name)?;
            let mut conjuncts = Vec::with_capacity(scan_filters[idx].len());
            for expr in &scan_filters[idx] {
                let index_probe = if expr.has_placeholders() {
                    IndexProbe::Dynamic
                } else {
                    let indexed = planner::indexable_bounds(expr)
                        .map(|(column, _, _)| db.index_on(table_name, &column).is_some())
                        .unwrap_or(false);
                    if indexed { IndexProbe::Always } else { IndexProbe::Never }
                };
                conjuncts.push(PreparedConjunct {
                    predicate: PreparedPredicate::prepare(&estimator, &subqueries, expr.clone()),
                    index_probe,
                });
            }
            let quals = if conjuncts.is_empty() {
                0
            } else {
                conjuncts.iter().map(|c| c.predicate.raw_leaves).sum::<usize>().max(1)
            };
            scans.push(PreparedScan {
                table: table_name.clone(),
                base_rows: stats.row_count as f64,
                width: table.row_width() as f64,
                quals,
                conjuncts,
            });
        }

        let edges: Vec<(usize, usize, f64)> = raw_edges
            .iter()
            .map(|e| {
                (
                    e.left_binding,
                    e.right_binding,
                    estimator.equi_join_selectivity(&e.left_column, &e.right_column),
                )
            })
            .collect();
        let edge_columns = raw_edges
            .into_iter()
            .map(|e| (e.left_column, e.right_column))
            .collect();
        let residuals: Vec<(u64, PreparedPredicate)> = raw_residuals
            .into_iter()
            .map(|(mask, expr)| (mask, PreparedPredicate::prepare(&estimator, &subqueries, expr)))
            .collect();

        let has_outer_join = select.joins.iter().any(|j| j.kind == JoinKind::Left);
        let n_aggregates = planner::count_aggregates(select);
        let grouped = !select.group_by.is_empty() || n_aggregates > 0;
        let group_nds = select.group_by.iter().map(|e| estimator.group_nd(e)).collect();
        let having = select.having.as_ref().map(|h| {
            (
                PreparedPredicate::prepare(&estimator, &subqueries, h.clone()),
                planner::count_leaves(h),
            )
        });
        let distinct_nds = (select.distinct && !grouped).then(|| {
            select.projections.iter().map(|p| estimator.group_nd(&p.expr)).collect()
        });

        Ok(PreparedSelect {
            syntactic_order: has_outer_join || scope.bindings.len() == 1,
            scope,
            subqueries,
            scans,
            edges,
            edge_columns,
            residuals,
            n_aggregates,
            grouped,
            group_nds,
            having,
            distinct_nds,
            has_order_by: !select.order_by.is_empty(),
            limit: select.limit,
            limit_breaker: grouped || !select.order_by.is_empty() || select.distinct,
        })
    }

    /// Columnar batch replay. Set-up recosts every placeholder-bearing
    /// subquery over the same batch (its nested arena's `results` become
    /// per-row `(rows, cost)` columns). Phase A computes every dynamic
    /// predicate's per-row selectivities as tight loops over the batch's
    /// value and subquery columns (one pass per predicate, no per-row
    /// maps for recognized shapes) and resolves each conjunct's
    /// index-probe decision once per batch. Phase B replays the planner's
    /// cost roll-up per row, consuming the selectivity columns in exactly
    /// the planner's order — every f64 operation sees the same operands in
    /// the same sequence, which is what makes the results bit-identical.
    ///
    /// Caller guarantee: every placeholder id has a batch column.
    // detlint::hot
    fn recost_batch(&self, db: &Database, batch: &BindingBatch, scratch: &mut RecostScratch) {
        let n = batch.len();
        let RecostScratch {
            results,
            sels,
            scan_rows,
            scan_costs,
            order,
            used_edges,
            applied_residuals,
            probes,
            residual_cols,
            conj_sels,
            subqueries,
            access_paths,
            join_orders,
        } = scratch;
        results.clear();
        access_paths.clear();
        join_orders.clear();

        let model = db.cost_model();

        // ---- batch-invariant setup ----------------------------------
        // Fixed subqueries contribute constant rows and cost; dynamic ones
        // are recost over this batch into their own nested arenas.
        if subqueries.len() < self.subqueries.len() {
            subqueries.resize_with(self.subqueries.len(), RecostScratch::default);
        }
        let mut fixed_subquery_cost = 0.0;
        let mut dynamic_subqueries = false;
        // detlint::allow(hot_alloc): batch-invariant setup — one small subquery-rows map per batch, not per row
        let mut subquery_rows = HashMap::new();
        for (subquery, nested) in self.subqueries.iter().zip(subqueries.iter_mut()) {
            match subquery {
                PreparedSubquery::Fixed { text, rows, cost } => {
                    fixed_subquery_cost += cost;
                    subquery_rows.insert(text.clone(), *rows);
                }
                PreparedSubquery::Dynamic { body, .. } => {
                    body.recost_batch(db, batch, nested);
                    dynamic_subqueries = true;
                }
            }
        }
        let subqueries = subqueries.as_slice();
        // detlint::allow(hot_alloc): batch-invariant setup — one estimator per batch, amortized over every row; the per-row phases below stay alloc-free
        let estimator = Estimator::new(db, &self.scope).with_subquery_rows(subquery_rows);

        // Assign one selectivity column per dynamic predicate, in replay
        // order: scan conjuncts, then residuals, then HAVING. Residuals
        // are consumed data-dependently during the join loop, so their
        // columns are recorded by index rather than by a running cursor.
        let mut n_cols = 0usize;
        for scan in &self.scans {
            for conjunct in &scan.conjuncts {
                if conjunct.predicate.cached_sel.is_none() {
                    n_cols += 1;
                }
            }
        }
        residual_cols.clear();
        for (_, predicate) in &self.residuals {
            if predicate.cached_sel.is_none() {
                residual_cols.push(Some(n_cols));
                n_cols += 1;
            } else {
                residual_cols.push(None);
            }
        }
        let having_col = match &self.having {
            Some((predicate, _)) if predicate.cached_sel.is_none() => {
                n_cols += 1;
                Some(n_cols - 1)
            }
            _ => None,
        };
        sels.clear();
        sels.resize(n_cols * n, 0.0);

        // ---- phase A: columnar selectivities + probe resolution -----
        // Dynamic predicates in column-assignment order.
        let dynamic = self
            .scans
            .iter()
            .flat_map(|scan| scan.conjuncts.iter().map(|c| &c.predicate))
            .chain(self.residuals.iter().map(|(_, predicate)| predicate))
            .chain(self.having.iter().map(|(predicate, _)| predicate))
            .filter(|predicate| predicate.cached_sel.is_none());
        for (c, predicate) in dynamic.enumerate() {
            // detlint::allow(hot_alloc): only generic shapes holding a placeholder-bearing subquery build a per-row estimator (rendered subquery texts); recognized shapes stay alloc-free
            self.fill_column(
                predicate,
                &estimator,
                batch,
                subqueries,
                &mut sels[c * n..(c + 1) * n],
            );
        }
        probes.clear();
        for scan in &self.scans {
            for conjunct in &scan.conjuncts {
                probes.push(match conjunct.index_probe {
                    IndexProbe::Never => BatchProbe::Fixed(false),
                    IndexProbe::Always => BatchProbe::Fixed(true),
                    IndexProbe::Dynamic => match &conjunct.predicate.fast {
                        Some(FastShape::Cmp { column, op, id }) => {
                            // `indexable_bounds` rejects `<>` and probes
                            // only when an index exists on the column —
                            // both facts are batch-invariant.
                            if *op != BinaryOp::NotEq
                                && db.index_on(&scan.table, &column.column).is_some()
                            {
                                BatchProbe::Cmp { col: batch.column_of(*id) }
                            } else {
                                BatchProbe::Fixed(false)
                            }
                        }
                        Some(FastShape::Between { column, negated, low, high }) => {
                            if !*negated
                                && db.index_on(&scan.table, &column.column).is_some()
                            {
                                BatchProbe::Between {
                                    low: BatchBound::of(*low, batch),
                                    high: BatchBound::of(*high, batch),
                                }
                            } else {
                                BatchProbe::Fixed(false)
                            }
                        }
                        // `indexable_bounds` never matches `IN`.
                        Some(FastShape::InSubquery { .. }) => BatchProbe::Fixed(false),
                        None => BatchProbe::Generic,
                    },
                });
            }
        }

        // ---- phase B: per-row cost roll-up --------------------------
        for row in 0..n {
            let mut column = 0usize;
            let mut probe_idx = 0usize;
            scan_rows.clear();
            scan_costs.clear();
            for scan in &self.scans {
                conj_sels.clear();
                for conjunct in &scan.conjuncts {
                    let sel = match conjunct.predicate.cached_sel {
                        Some(sel) => sel,
                        None => {
                            // SAFETY: `column` counts dynamic conjuncts
                            // in the same order phase A assigned their
                            // sel columns (residuals and HAVING come
                            // after), so `column < n_cols`; `row < n` by
                            // the loop bound; `sels` was resized to
                            // `n_cols * n` above.
                            let sel = unsafe { *sels.get_unchecked(column * n + row) };
                            column += 1;
                            sel
                        }
                    };
                    conj_sels.push(sel);
                }
                let selectivity = product_ordered(conj_sels);
                let out_rows = scan.base_rows * selectivity;
                let mut best_cost =
                    model.seq_scan(scan.base_rows, scan.width, scan.quals, out_rows);
                let mut winner = None;
                for (c, (conjunct, &sel)) in
                    scan.conjuncts.iter().zip(conj_sels.iter()).enumerate()
                {
                    let probes_now = match &probes[probe_idx] {
                        BatchProbe::Fixed(fixed) => *fixed,
                        BatchProbe::Cmp { col } => batch.value(*col, row).as_f64().is_some(),
                        BatchProbe::Between { low, high } => {
                            low.resolve(batch, row).is_some()
                                && high.resolve(batch, row).is_some()
                        }
                        BatchProbe::Generic => planner::indexable_bounds(
                            &conjunct.predicate.expr.substitute(batch.row(row)),
                        )
                        .map(|(column, _, _)| db.index_on(&scan.table, &column).is_some())
                        .unwrap_or(false),
                    };
                    probe_idx += 1;
                    if !probes_now {
                        continue;
                    }
                    let match_rows = scan.base_rows * sel;
                    let index_cost = model.index_scan(
                        scan.base_rows,
                        scan.width,
                        match_rows,
                        scan.quals,
                        out_rows,
                    );
                    if index_cost < best_cost {
                        best_cost = index_cost;
                        winner = Some(c);
                    }
                }
                scan_rows.push(out_rows);
                scan_costs.push(best_cost);
                access_paths.push(winner);
            }

            if self.syntactic_order {
                order.clear();
                order.extend(0..self.scans.len());
            } else {
                planner::greedy_order_core_into(scan_rows, &self.edges, order);
            }
            join_orders.extend_from_slice(order);

            let mut joined_mask: u64 = 1 << order[0];
            let mut current_rows = scan_rows[order[0]];
            let mut current_cost = scan_costs[order[0]];
            used_edges.clear();
            used_edges.resize(self.edges.len(), false);
            applied_residuals.clear();
            applied_residuals.resize(self.residuals.len(), false);

            for &next in &order[1..] {
                let right_rows = scan_rows[next];
                let right_cost = scan_costs[next];
                let mut any_edge = false;
                let mut selectivity = 1.0;
                for (edge_idx, &(left, right, edge_sel)) in self.edges.iter().enumerate() {
                    if used_edges[edge_idx] {
                        continue;
                    }
                    let connects = (joined_mask >> left) & 1 == 1 && right == next
                        || (joined_mask >> right) & 1 == 1 && left == next;
                    if connects {
                        used_edges[edge_idx] = true;
                        any_edge = true;
                        selectivity *= edge_sel;
                    }
                }
                let next_mask = joined_mask | (1 << next);
                for (res_idx, (mask, predicate)) in self.residuals.iter().enumerate() {
                    if !applied_residuals[res_idx]
                        && mask & !next_mask == 0
                        && *mask & (1 << next) != 0
                    {
                        applied_residuals[res_idx] = true;
                        selectivity *= match residual_cols[res_idx] {
                            Some(c) => sels[c * n + row],
                            None => predicate.cached_sel.expect("residual without column is cached"),
                        };
                    }
                }
                let out_rows = current_rows * right_rows * selectivity;
                let join_cost = if any_edge {
                    model.hash_join(current_rows, right_rows, out_rows)
                } else {
                    model.nested_loop(current_rows, right_rows, out_rows)
                };
                current_cost = current_cost + right_cost + join_cost;
                current_rows = out_rows;
                joined_mask = next_mask;
            }

            let mut leftover_sel = 1.0;
            let mut leftover_leaves = 0usize;
            let mut any_leftover = false;
            for (res_idx, ((_, predicate), applied)) in
                self.residuals.iter().zip(applied_residuals.iter()).enumerate()
            {
                if *applied {
                    continue;
                }
                any_leftover = true;
                leftover_sel *= match residual_cols[res_idx] {
                    Some(c) => sels[c * n + row],
                    None => predicate.cached_sel.expect("residual without column is cached"),
                };
                leftover_leaves += predicate.raw_leaves;
            }
            if any_leftover {
                let rows = current_rows * leftover_sel;
                current_cost += model.filter(current_rows, leftover_leaves.max(1));
                current_rows = rows;
            }

            if self.grouped {
                let groups = group_count_from_nds(&self.group_nds, current_rows);
                current_cost += model.hash_aggregate(current_rows, self.n_aggregates, groups);
                current_rows = groups;
            }

            if let Some((predicate, leaves)) = &self.having {
                let selectivity = match having_col {
                    Some(c) => sels[c * n + row],
                    None => predicate.cached_sel.expect("having without column is cached"),
                };
                let rows = current_rows * selectivity;
                current_cost += model.filter(current_rows, *leaves);
                current_rows = rows;
            }

            if let Some(nds) = &self.distinct_nds {
                let out_rows = group_count_from_nds(nds, current_rows);
                current_cost += model.distinct(current_rows, out_rows);
                current_rows = out_rows;
            }

            if self.has_order_by {
                current_cost += model.sort(current_rows);
            }

            if let Some(limit) = self.limit {
                let rows = current_rows.min(limit as f64);
                if !(self.limit_breaker || current_rows <= 0.0) {
                    current_cost *= (rows / current_rows).clamp(0.01, 1.0);
                }
                current_rows = rows;
            }

            let subquery_cost = if dynamic_subqueries {
                self.row_subquery_cost(subqueries, row)
            } else {
                fixed_subquery_cost
            };
            let total = current_cost + current_rows * model.cpu_tuple_cost + subquery_cost;
            results.push((current_rows, total));
        }
    }

    /// Row `row`'s total subquery cost: fixed costs and the dynamic
    /// subqueries' cost columns, summed from 0.0 in
    /// [`Select::subqueries`] order exactly as the planner accumulates.
    fn row_subquery_cost(&self, nested: &[RecostScratch], row: usize) -> f64 {
        let mut total = 0.0;
        for (subquery, nested) in self.subqueries.iter().zip(nested) {
            total += match subquery {
                PreparedSubquery::Fixed { cost, .. } => *cost,
                PreparedSubquery::Dynamic { .. } => nested.results[row].1,
            };
        }
        total
    }

    /// Estimator for one batch row whose subquery map holds that row's
    /// rendered subquery texts, inserted in [`Select::subqueries`] order
    /// as the planner inserts them. Serves only generic predicates that
    /// hold a placeholder-bearing subquery.
    fn row_estimator<'e, 'v>(
        &'e self,
        db: &'e Database,
        nested: &[RecostScratch],
        value_of: impl Fn(u32) -> Option<&'v Value>,
        row: usize,
    ) -> Estimator<'e> {
        let mut subquery_rows = HashMap::with_capacity(self.subqueries.len());
        for (subquery, nested) in self.subqueries.iter().zip(nested) {
            match subquery {
                PreparedSubquery::Fixed { text, rows, .. } => {
                    subquery_rows.insert(text.clone(), *rows);
                }
                PreparedSubquery::Dynamic { template, .. } => {
                    let mut instantiated = template.as_ref().clone();
                    instantiated.walk_exprs_mut(&mut |e| {
                        if let Expr::Placeholder(id) = e {
                            if let Some(value) = value_of(*id) {
                                *e = Expr::Literal(value.clone());
                            }
                        }
                    });
                    subquery_rows.insert(instantiated.to_string(), nested.results[row].0);
                }
            }
        }
        Estimator::new(db, &self.scope).with_subquery_rows(subquery_rows)
    }

    /// Phase A columnar fill: one dynamic predicate's selectivity for
    /// every batch row, written into its column slice. Fast shapes
    /// resolve column statistics once and call the estimator's own
    /// comparison/range/semijoin helpers per value, so the results match
    /// the substitute-then-estimate path bit for bit. Generic shapes
    /// substitute each row through the batch's row view and take that
    /// path literally.
    fn fill_column(
        &self,
        predicate: &PreparedPredicate,
        estimator: &Estimator<'_>,
        batch: &BindingBatch,
        nested: &[RecostScratch],
        out: &mut [f64],
    ) {
        match &predicate.fast {
            Some(FastShape::Cmp { column, op, id }) => {
                let stats = estimator.column_stats(column);
                let col = batch.column_of(*id);
                for (row, slot) in out.iter_mut().enumerate() {
                    let sel = column_op_constant_selectivity(stats, *op, batch.value(col, row));
                    *slot = sel.clamp(0.0, 1.0);
                }
            }
            Some(FastShape::Between { column, negated, low, high }) => {
                let stats = estimator.column_stats(column);
                let low = BatchBound::of(*low, batch);
                let high = BatchBound::of(*high, batch);
                for (row, slot) in out.iter_mut().enumerate() {
                    let sel = column_range_selectivity(
                        stats,
                        low.resolve(batch, row),
                        high.resolve(batch, row),
                    );
                    let sel = if *negated { 1.0 - sel } else { sel };
                    *slot = sel.clamp(0.0, 1.0);
                }
            }
            Some(FastShape::InSubquery { negated, lhs_nd, subquery }) => {
                for (slot, &(rows, _)) in out.iter_mut().zip(&nested[*subquery].results) {
                    *slot = in_subquery_selectivity(Some(rows), *lhs_nd, *negated).clamp(0.0, 1.0);
                }
            }
            None => {
                for (row, slot) in out.iter_mut().enumerate() {
                    let expr = predicate.expr.substitute(batch.row(row));
                    *slot = if predicate.row_subqueries {
                        self.row_estimator(estimator.db, nested, batch.row(row), row)
                            .selectivity(&expr)
                    } else {
                        estimator.selectivity(&expr)
                    };
                }
            }
        }
    }
}

/// Left-to-right product of a selectivity slice, unrolled into
/// fixed-width 4-lane chunks with a scalar tail. The chained multiplies
/// inside a chunk associate left to right — `(((acc * c[0]) * c[1]) *
/// c[2]) * c[3]` — so the operation sequence is exactly the sequential
/// fold's and the result is bit-identical, while the fixed-trip-count
/// inner body gives the optimizer independent loads to schedule ahead
/// of the multiply chain.
pub fn product_ordered(sels: &[f64]) -> f64 {
    const LANES: usize = 4;
    let mut acc = 1.0f64;
    let mut chunks = sels.chunks_exact(LANES);
    for chunk in &mut chunks {
        acc = acc * chunk[0] * chunk[1] * chunk[2] * chunk[3];
    }
    for &sel in chunks.remainder() {
        acc *= sel;
    }
    debug_assert_eq!(
        acc.to_bits(),
        sels.iter().fold(1.0f64, |product, &sel| product * sel).to_bits(),
        "chunked product diverged from the sequential fold"
    );
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlkit::parse_template;

    fn tpch() -> Database {
        crate::datagen::tpch::generate(crate::datagen::tpch::TpchConfig::tiny())
    }

    /// The planner's `(estimated_rows, total_cost)` for row `row` of
    /// `batch`.
    fn planner_cost(
        db: &Database,
        template: &Template,
        batch: &BindingBatch,
        row: usize,
    ) -> (f64, f64) {
        let explain = db.explain(&template.instantiate(batch.row(row)).unwrap()).unwrap();
        (explain.estimated_rows, explain.total_cost)
    }

    /// Batch/planner agreement over one template: build a batch from the
    /// binding rows plus a duplicate of the first (in-batch repeats must
    /// recompute identically), recost it, and compare every row bit for
    /// bit with `db.explain` on the instantiated statement. Rows the
    /// planner rejects (type-incompatible bindings) have no reference and
    /// are skipped; at least one row must be checked.
    fn assert_batch_matches_planner(db: &Database, sql: &str, rows: &[Vec<(u32, Value)>]) {
        let template = parse_template(sql).unwrap();
        let prepared = PreparedTemplate::prepare(db, &template).unwrap();
        let mut rows = rows.to_vec();
        if let Some(first) = rows.first().cloned() {
            rows.push(first);
        }
        let batch = BindingBatch::of(prepared.placeholder_ids(), &rows);
        let mut scratch = RecostScratch::new();
        let results = prepared.recost_batch(db, &batch, &mut scratch).unwrap().to_vec();
        assert_eq!(results.len(), rows.len());
        let mut checked = 0;
        for (row, (batch_rows, batch_cost)) in results.into_iter().enumerate() {
            let query = template.instantiate(batch.row(row)).unwrap();
            let Ok(explain) = db.explain(&query) else { continue };
            let (rows, cost) = (explain.estimated_rows, explain.total_cost);
            assert_eq!(batch_rows.to_bits(), rows.to_bits(), "rows for {query}");
            assert_eq!(batch_cost.to_bits(), cost.to_bits(), "cost for {query}");
            checked += 1;
        }
        assert!(checked > 0, "the planner rejected every row of {sql}");
    }

    #[test]
    fn single_table_filter_matches_planner() {
        let db = tpch();
        assert_batch_matches_planner(
            &db,
            "SELECT l.l_orderkey FROM lineitem AS l WHERE l.l_quantity > {p_1}",
            &[
                vec![(1, Value::Int(5))],
                vec![(1, Value::Int(25))],
                vec![(1, Value::Float(49.5))],
                vec![(1, Value::Int(-10))],
            ],
        );
    }

    #[test]
    fn join_with_aggregation_matches_planner() {
        let db = tpch();
        assert_batch_matches_planner(
            &db,
            "SELECT c.c_name, SUM(o.o_totalprice) FROM customer AS c \
             JOIN orders AS o ON c.c_custkey = o.o_custkey \
             WHERE o.o_totalprice BETWEEN {p_1} AND {p_2} \
             GROUP BY c.c_name ORDER BY c.c_name LIMIT 10",
            &[
                vec![(1, Value::Float(100.0)), (2, Value::Float(50_000.0))],
                vec![(1, Value::Float(10_000.0)), (2, Value::Float(20_000.0))],
                // inverted range (empty)
                vec![(1, Value::Float(9_000.0)), (2, Value::Float(1_000.0))],
            ],
        );
    }

    #[test]
    fn three_way_join_reorders_identically() {
        let db = tpch();
        assert_batch_matches_planner(
            &db,
            "SELECT l.l_orderkey FROM lineitem AS l \
             JOIN orders AS o ON l.l_orderkey = o.o_orderkey \
             JOIN customer AS c ON o.o_custkey = c.c_custkey \
             WHERE l.l_quantity < {p_1} AND c.c_acctbal > {p_2}",
            &[
                vec![(1, Value::Int(3)), (2, Value::Float(0.0))],
                vec![(1, Value::Int(49)), (2, Value::Float(9_000.0))],
                vec![(1, Value::Int(20)), (2, Value::Float(-1_000.0))],
            ],
        );
    }

    #[test]
    fn subquery_templates_match_planner() {
        let db = tpch();
        let totals = [
            vec![(1, Value::Float(1_000.0))],
            vec![(1, Value::Float(100_000.0))],
            vec![(1, Value::Float(-5.0))],
        ];
        // `IN` / `NOT IN` a placeholder-bearing subquery (the columnar
        // semijoin shape).
        for in_op in ["IN", "NOT IN"] {
            assert_batch_matches_planner(
                &db,
                &format!(
                    "SELECT c.c_name FROM customer AS c WHERE c.c_custkey {in_op} \
                     (SELECT orders.o_custkey FROM orders WHERE orders.o_totalprice > {{p_1}})"
                ),
                &totals,
            );
        }
        // Generic shapes holding a placeholder-bearing subquery (per-row
        // rendered texts): EXISTS and a HAVING clause. Disjunctions,
        // several and nested dynamic subqueries are proptested in
        // tests/tests/prepared_equivalence.rs.
        assert_batch_matches_planner(
            &db,
            "SELECT c.c_name FROM customer AS c WHERE EXISTS \
             (SELECT orders.o_orderkey FROM orders WHERE orders.o_totalprice > {p_1})",
            &totals,
        );
        assert_batch_matches_planner(
            &db,
            "SELECT c.c_nationkey, COUNT(*) FROM customer AS c GROUP BY c.c_nationkey \
             HAVING c.c_nationkey IN \
             (SELECT orders.o_custkey FROM orders WHERE orders.o_totalprice > {p_1})",
            &totals,
        );
        // placeholder-free subquery, placeholder outside
        assert_batch_matches_planner(
            &db,
            "SELECT c.c_name FROM customer AS c WHERE c.c_acctbal > {p_1} AND \
             EXISTS (SELECT orders.o_orderkey FROM orders WHERE orders.o_totalprice > 90000)",
            &[vec![(1, Value::Float(500.0))]],
        );
    }

    #[test]
    fn in_subquery_conjunct_takes_the_columnar_shape() {
        let db = tpch();
        let shape_of = |sql: &str| {
            let prepared = PreparedTemplate::prepare(&db, &parse_template(sql).unwrap()).unwrap();
            // The one placeholder-bearing predicate: a scan conjunct, or
            // a residual when it references no binding (EXISTS).
            let body = &prepared.body;
            let predicate = body.scans[0]
                .conjuncts
                .iter()
                .map(|c| &c.predicate)
                .chain(body.residuals.iter().map(|(_, p)| p))
                .find(|p| p.cached_sel.is_none())
                .unwrap();
            (predicate.fast.clone(), predicate.row_subqueries)
        };
        let (fast, row_subqueries) = shape_of(
            "SELECT c.c_name FROM customer AS c WHERE c.c_custkey NOT IN \
             (SELECT orders.o_custkey FROM orders WHERE orders.o_totalprice > {p_1})",
        );
        assert!(
            matches!(fast, Some(FastShape::InSubquery { negated: true, lhs_nd: Some(_), subquery: 0 })),
            "{fast:?}"
        );
        assert!(!row_subqueries);
        let (fast, row_subqueries) = shape_of(
            "SELECT c.c_name FROM customer AS c WHERE EXISTS \
             (SELECT orders.o_orderkey FROM orders WHERE orders.o_totalprice > {p_1})",
        );
        assert!(fast.is_none() && row_subqueries);
    }

    #[test]
    fn index_probe_decision_replays() {
        let db = tpch();
        // o_orderkey is the primary key (indexed): point lookups flip to
        // the index path, wide ranges stay sequential — both must match.
        assert_batch_matches_planner(
            &db,
            "SELECT o.o_totalprice FROM orders AS o WHERE o.o_orderkey = {p_1}",
            &[vec![(1, Value::Int(5))], vec![(1, Value::Int(900))]],
        );
        assert_batch_matches_planner(
            &db,
            "SELECT o.o_totalprice FROM orders AS o WHERE o.o_orderkey > {p_1}",
            &[vec![(1, Value::Int(0))], vec![(1, Value::Int(999_999))]],
        );
    }

    #[test]
    fn recorded_access_path_is_the_planners_scan() {
        let db = tpch();
        // Two indexable conjuncts on the primary key after an unindexed
        // one: each row's recorded winner must be the conjunct whose
        // probe bounds the planner's index scan uses, or `None` where the
        // planner keeps the sequential scan.
        let template = parse_template(
            "SELECT o.o_totalprice FROM orders AS o WHERE o.o_totalprice > {p_1} \
             AND o.o_orderkey > {p_2} AND o.o_orderkey < {p_3}",
        )
        .unwrap();
        let prepared = PreparedTemplate::prepare(&db, &template).unwrap();
        let rows: Vec<Vec<(u32, Value)>> = [
            (1_000_000, 2_000_000), // empty lower-bounded range: index on p_2
            (-5, -1),               // empty upper-bounded range: index on p_3
            (-5, 2_000_000),        // every row: sequential scan
            (1_000_000, -1),        // both empty: the first wins the tie
        ]
        .into_iter()
        .map(|(lo, hi)| vec![(1, Value::Float(0.0)), (2, Value::Int(lo)), (3, Value::Int(hi))])
        .collect();
        let batch = BindingBatch::of(prepared.placeholder_ids(), &rows);
        let mut scratch = RecostScratch::new();
        prepared.recost_batch(&db, &batch, &mut scratch).unwrap();
        assert_eq!(scratch.access_paths().len(), rows.len(), "one scan per row");
        let conjuncts = &prepared.body.scans[0].conjuncts;
        let mut seen = Vec::new();
        for (i, &recorded) in scratch.access_paths().iter().enumerate() {
            let row = batch.row(i);
            let mut node = planner::plan(&db, &template.instantiate(row).unwrap()).unwrap();
            while let Some(child) = node.children.first() {
                node = child.clone();
            }
            let planned = match node.kind {
                crate::plan::NodeKind::SeqScan { .. } => None,
                crate::plan::NodeKind::IndexScan { column, lo, hi, .. } => {
                    let probe = Some((column, lo, hi));
                    let position = conjuncts.iter().position(|c| {
                        planner::indexable_bounds(&c.predicate.expr.substitute(row)) == probe
                    });
                    Some(position.expect("the probe comes from a conjunct"))
                }
                other => panic!("leaf is not a scan: {other:?}"),
            };
            assert_eq!(recorded, planned, "access path of row {i}");
            seen.push(recorded);
        }
        assert_eq!(seen, [Some(1), Some(2), None, Some(1)]);
    }

    #[test]
    fn ground_template_recosts_without_bindings() {
        let db = tpch();
        let template =
            parse_template("SELECT o.o_orderkey FROM orders AS o WHERE o.o_totalprice > 1000")
                .unwrap();
        let prepared = PreparedTemplate::prepare(&db, &template).unwrap();
        assert_eq!(prepared.arity(), 0);
        // One row over zero placeholder ids.
        let batch = BindingBatch::of(&[], &[vec![]]);
        assert_eq!(batch.len(), 1);
        let mut scratch = RecostScratch::new();
        let results = prepared.recost_batch(&db, &batch, &mut scratch).unwrap();
        let explain = db.explain(template.select()).unwrap();
        assert_eq!(results, [(explain.estimated_rows, explain.total_cost)]);
        assert_eq!(results[0].0.to_bits(), explain.estimated_rows.to_bits());
        assert_eq!(results[0].1.to_bits(), explain.total_cost.to_bits());
    }

    #[test]
    fn invalid_templates_fail_at_prepare() {
        let db = tpch();
        let template =
            parse_template("SELECT g.x FROM ghosts AS g WHERE g.x > {p_1}").unwrap();
        assert!(PreparedTemplate::prepare(&db, &template).is_err());
    }

    #[test]
    fn batch_recost_matches_scalar_across_shapes() {
        let db = tpch();
        // Fast comparison shapes, including a flipped orientation. The
        // non-numeric value is outside the contract (the planner rejects
        // it) and must not disturb the other rows.
        assert_batch_matches_planner(
            &db,
            "SELECT l.l_orderkey FROM lineitem AS l WHERE l.l_quantity > {p_1}",
            &[
                vec![(1, Value::Int(5))],
                vec![(1, Value::Int(25))],
                vec![(1, Value::Float(49.5))],
                vec![(1, Value::Str("not-a-number".into()))],
            ],
        );
        assert_batch_matches_planner(
            &db,
            "SELECT o.o_totalprice FROM orders AS o WHERE {p_1} < o.o_totalprice",
            &[vec![(1, Value::Float(100.0))], vec![(1, Value::Float(90_000.0))]],
        );
        // BETWEEN with a literal bound.
        assert_batch_matches_planner(
            &db,
            "SELECT o.o_orderkey FROM orders AS o \
             WHERE o.o_totalprice NOT BETWEEN 1000 AND {p_1}",
            &[vec![(1, Value::Float(2_000.0))], vec![(1, Value::Float(500.0))]],
        );
        // String equality (MCV lookups).
        assert_batch_matches_planner(
            &db,
            "SELECT c.c_custkey FROM customer AS c WHERE c.c_mktsegment = {p_1}",
            &[
                vec![(1, Value::Str("BUILDING".into()))],
                vec![(1, Value::Str("no-such-segment".into()))],
            ],
        );
        // Generic shape: arithmetic around the placeholder.
        assert_batch_matches_planner(
            &db,
            "SELECT l.l_orderkey FROM lineitem AS l WHERE l.l_quantity + 1 > {p_1}",
            &[vec![(1, Value::Int(10))], vec![(1, Value::Int(40))]],
        );
    }

    #[test]
    fn batch_scratch_reuse_is_clean_across_templates() {
        let db = tpch();
        let mut scratch = RecostScratch::new();
        // The subquery template grows the nested arenas; the templates
        // after it must not see their stale columns.
        for (sql, value) in [
            (
                "SELECT l.l_orderkey FROM lineitem AS l WHERE l.l_quantity > {p_1}",
                Value::Int(7),
            ),
            (
                "SELECT c.c_name FROM customer AS c WHERE c.c_custkey IN \
                 (SELECT orders.o_custkey FROM orders WHERE orders.o_totalprice > {p_1})",
                Value::Float(20_000.0),
            ),
            (
                "SELECT o.o_orderkey FROM orders AS o WHERE o.o_totalprice < {p_1}",
                Value::Float(5_000.0),
            ),
        ] {
            let template = parse_template(sql).unwrap();
            let prepared = PreparedTemplate::prepare(&db, &template).unwrap();
            let batch = BindingBatch::of(prepared.placeholder_ids(), &[vec![(1, value)]]);
            let results = prepared.recost_batch(&db, &batch, &mut scratch).unwrap();
            let (rows, cost) = planner_cost(&db, &template, &batch, 0);
            assert_eq!(results[0].0.to_bits(), rows.to_bits());
            assert_eq!(results[0].1.to_bits(), cost.to_bits());
        }
    }

    #[test]
    fn batch_missing_column_reports_smallest_id() {
        let db = tpch();
        let template = parse_template(
            "SELECT l.l_orderkey FROM lineitem AS l \
             WHERE l.l_quantity > {p_2} AND l.l_extendedprice < {p_9}",
        )
        .unwrap();
        let prepared = PreparedTemplate::prepare(&db, &template).unwrap();
        let batch = BindingBatch::new(vec![9]);
        let mut scratch = RecostScratch::new();
        let err = prepared.recost_batch(&db, &batch, &mut scratch).unwrap_err();
        assert!(matches!(err, DbError::UnboundPlaceholder(2)), "{err:?}");
    }

    #[test]
    fn missing_binding_is_reported() {
        let db = tpch();
        let template = parse_template(
            "SELECT l.l_orderkey FROM lineitem AS l WHERE l.l_quantity > {p_1}",
        )
        .unwrap();
        let prepared = PreparedTemplate::prepare(&db, &template).unwrap();
        let batch = BindingBatch::new(vec![]);
        let mut scratch = RecostScratch::new();
        let err = prepared.recost_batch(&db, &batch, &mut scratch).unwrap_err();
        assert!(matches!(err, DbError::UnboundPlaceholder(1)), "{err:?}");
    }

    #[test]
    fn smallest_missing_id_is_reported() {
        let db = tpch();
        let template = parse_template(
            "SELECT l.l_orderkey FROM lineitem AS l \
             WHERE l.l_quantity > {p_3} AND l.l_extendedprice < {p_7}",
        )
        .unwrap();
        let prepared = PreparedTemplate::prepare(&db, &template).unwrap();
        let mut scratch = RecostScratch::new();
        // Both missing: the smallest (3) must be named.
        let err = prepared
            .recost_batch(&db, &BindingBatch::new(vec![]), &mut scratch)
            .unwrap_err();
        assert!(matches!(err, DbError::UnboundPlaceholder(3)), "{err:?}");
        // Only the larger missing: it is the smallest missing one.
        let err = prepared
            .recost_batch(&db, &BindingBatch::new(vec![3]), &mut scratch)
            .unwrap_err();
        assert!(matches!(err, DbError::UnboundPlaceholder(7)), "{err:?}");
    }

    #[test]
    fn batch_extra_columns_are_ignored_and_empty_batch_is_ok() {
        let db = tpch();
        let template = parse_template(
            "SELECT l.l_orderkey FROM lineitem AS l WHERE l.l_quantity > {p_1}",
        )
        .unwrap();
        let prepared = PreparedTemplate::prepare(&db, &template).unwrap();
        let batch = BindingBatch::of(&[1, 42], &[vec![(1, Value::Int(20)), (42, Value::Int(0))]]);
        let mut scratch = RecostScratch::new();
        let results = prepared.recost_batch(&db, &batch, &mut scratch).unwrap();
        let (rows, cost) = planner_cost(&db, &template, &batch, 0);
        assert_eq!(results[0].0.to_bits(), rows.to_bits());
        assert_eq!(results[0].1.to_bits(), cost.to_bits());

        let empty = BindingBatch::new(vec![1]);
        let results = prepared.recost_batch(&db, &empty, &mut scratch).unwrap();
        assert!(results.is_empty());
    }

    #[test]
    fn push_row_failure_leaves_batch_unchanged() {
        let mut batch = BindingBatch::new(vec![1, 5]);
        let full = [(1, Value::Int(1)), (5, Value::Int(5))];
        batch.push_row(&full).unwrap();
        let err = batch.push_row(&[(5, Value::Int(5))]).unwrap_err();
        assert!(matches!(err, DbError::UnboundPlaceholder(1)), "{err:?}");
        assert_eq!(batch.len(), 1);
        batch.push_row(&full).unwrap();
        assert_eq!(batch.len(), 2);
    }

    #[test]
    fn push_row_from_matches_push_row() {
        // Gathering rows of a wider batch into a narrower one copies the
        // narrower batch's columns only; a source without one of its ids
        // reports the smallest missing id and leaves the target unchanged.
        let mut wide = BindingBatch::new(vec![1, 3, 7]);
        wide.push_row(&[(1, Value::Int(1)), (3, Value::Int(30)), (7, Value::Float(7.5))]).unwrap();
        wide.push_row(&[(1, Value::Int(2)), (3, Value::Int(31)), (7, Value::Null)]).unwrap();
        let mut gathered = BindingBatch::new(vec![3, 7]);
        let mut pushed = BindingBatch::new(vec![3, 7]);
        gathered.push_row_from(&wide, 1).unwrap();
        pushed.push_row(&[(3, Value::Int(31)), (7, Value::Null)]).unwrap();
        assert_eq!(gathered.len(), pushed.len());
        for id in [1, 3, 7] {
            assert_eq!(gathered.value_of(id, 0), pushed.value_of(id, 0), "id {id}");
        }
        let mut narrow = BindingBatch::new(vec![7]);
        narrow.push_row(&[(7, Value::Int(7))]).unwrap();
        let err = gathered.push_row_from(&narrow, 0).unwrap_err();
        assert!(matches!(err, DbError::UnboundPlaceholder(3)), "{err:?}");
        assert_eq!(gathered.len(), 1);
    }

    #[test]
    fn push_row_ignores_extras_and_reports_smallest_gap() {
        let mut batch = BindingBatch::new(vec![2, 6]);
        // Extra ids (1, 4, 9) outside the batch are skipped over.
        batch
            .push_row(&[
                (1, Value::Int(0)),
                (2, Value::Int(2)),
                (4, Value::Int(0)),
                (6, Value::Int(6)),
                (9, Value::Int(0)),
            ])
            .unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch.value_of(2, 0), Some(&Value::Int(2)));
        assert_eq!(batch.value_of(9, 0), None, "extra ids get no column");
        assert_eq!(batch.row(0)(6), Some(&Value::Int(6)));

        // Both batch ids missing: the *smallest* is reported and the
        // failed row leaves prior rows intact.
        let err = batch.push_row(&[(4, Value::Int(0))]).unwrap_err();
        assert!(matches!(err, DbError::UnboundPlaceholder(2)), "{err:?}");
        assert_eq!(batch.len(), 1);
        batch.push_row(&[(2, Value::Int(20)), (6, Value::Int(60))]).unwrap();
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.value_of(6, 1), Some(&Value::Int(60)));
    }

    mod product_kernel {
        use super::super::product_ordered;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The chunked product kernel matches the sequential fold
            /// bit for bit across chunk boundaries (lengths straddling
            /// multiples of 4) and degenerate operands: zeros, exact
            /// ones, huge/tiny magnitudes that overflow or underflow
            /// mid-product.
            #[test]
            fn chunked_product_is_bit_identical(sels in prop::collection::vec(
                prop_oneof![
                    0.0f64..1.0f64,
                    prop::sample::select(vec![
                        0.0f64,
                        1.0,
                        f64::MIN_POSITIVE,
                        1e-300,
                        1e300,
                        f64::INFINITY,
                    ]),
                ],
                0..19,
            )) {
                let sequential =
                    sels.iter().fold(1.0f64, |product, &sel| product * sel);
                prop_assert_eq!(
                    product_ordered(&sels).to_bits(),
                    sequential.to_bits(),
                    "sels: {:?}", sels
                );
            }
        }
    }
}
