//! Cost-targeted template refinement.
//!
//! Implements the synthetic model's `RefineTemplate` (Algorithm 2, line
//! 22): given a template, its observed profile costs, and a target cost
//! interval, rewrite the template so its instantiations can land in the
//! interval. Strategies mirror what the paper's LLM does in practice —
//! add or drop predicates, joins, and `LIMIT`s to move the cost mass.
//! When a refinement history is supplied (the phase-2 in-context mode),
//! the model avoids repeating the strategies implied by earlier attempts
//! by rotating through the strategy list starting past `history.len()`.

use crate::protocol::LlmRequest;
use crate::schema_ctx::SchemaContext;
use crate::synthesis::{max_placeholder, strip_binding};
use rand::rngs::StdRng;
use rand::Rng;
use sqlkit::{parse_select, BinaryOp, ColumnRef, Expr, Join, JoinKind, Select, TableRef};

/// Produce a refined template for a refine request. Returns `None` when
/// the request is malformed (no template / target).
pub fn refine(request: &LlmRequest, rng: &mut StdRng) -> Option<String> {
    let template_sql = request.template.as_ref()?;
    let (lo, hi) = request.target?;
    let select = parse_select(template_sql).ok()?;
    let context = request.schema.as_ref().map(|s| SchemaContext::parse(s)).unwrap_or_default();

    // Decide direction from the profile median relative to the target.
    let mut costs = request.profile.clone();
    costs.sort_by(f64::total_cmp);
    let median = if costs.is_empty() { (lo + hi) / 2.0 } else { costs[costs.len() / 2] };
    let cheapen = median > hi;

    // Strategy rotation: later attempts (longer history) try later
    // strategies; without history, start randomly among the first few
    // (predicate-level edits are the most natural first rewrite).
    const N_STRATEGIES: usize = 5;
    let start = if request.history.is_empty() {
        rng.gen_range(0..N_STRATEGIES)
    } else {
        request.history.len()
    };

    for offset in 0..N_STRATEGIES {
        let strategy = (start + offset) % N_STRATEGIES;
        let mut candidate = select.clone();
        let changed = if cheapen {
            match strategy {
                0 => add_selective_predicate(&mut candidate, &context, rng),
                1 => add_between_predicate(&mut candidate, &context, rng),
                2 => retarget_smaller_table(&mut candidate, &context, lo, hi, rng),
                3 => drop_last_join(&mut candidate),
                _ => collapse_to_aggregate(&mut candidate),
            }
        } else {
            match strategy {
                0 => remove_aggregation(&mut candidate, &context, rng),
                1 => remove_one_predicate(&mut candidate),
                // add_fk_join fills two rotation slots on purpose: joining
                // in another table is the most effective cost raiser, so
                // it gets double weight (and a different random edge each
                // time it fires).
                2 | 3 => add_fk_join(&mut candidate, &context, rng),
                _ => remove_limit_and_widen(&mut candidate),
            }
        };
        if changed {
            // A template without placeholders has a single instantiation
            // and cannot contribute query volume (Definition 2.1); any
            // rewrite that stripped the last placeholder gets a fresh
            // selective predicate.
            if sqlkit::Template::new(candidate.clone()).is_ground() {
                add_selective_predicate(&mut candidate, &context, rng);
            }
            return Some(candidate.to_string());
        }
    }
    // Nothing applied: at least nudge with a fresh predicate (always
    // possible) so the caller gets a new variant.
    let mut candidate = select;
    add_selective_predicate(&mut candidate, &context, rng);
    Some(candidate.to_string())
}

/// Tables bound in the statement's FROM clause, `(alias, table)`.
fn bindings(select: &Select) -> Vec<(String, String)> {
    select.table_refs().iter().map(|t| (t.binding().to_string(), t.table.clone())).collect()
}

/// Add `AND alias.col <= {p_new}` on a numeric column.
fn add_selective_predicate(select: &mut Select, context: &SchemaContext, rng: &mut StdRng) -> bool {
    let bound = bindings(select);
    if bound.is_empty() {
        return false;
    }
    // Prefer a column known to the schema context; fall back to reusing a
    // column already referenced by the template.
    let mut target: Option<(String, String)> = None;
    for (alias, table) in &bound {
        if let Some(info) = context.table(table) {
            let preds = info.predicate_columns();
            if !preds.is_empty() {
                // predicate_columns is sorted by descending distinct count;
                // prefer the selective end — a predicate on an 18-value
                // column cannot yield hundreds of distinct queries.
                let col = preds[rng.gen_range(0..preds.len().min(3))];
                target = Some((alias.clone(), col.name.clone()));
                break;
            }
        }
    }
    if target.is_none() {
        // Reuse a column reference from the existing WHERE clause.
        if let Some(where_clause) = &select.where_clause {
            let mut found = None;
            where_clause.walk(&mut |e| {
                if found.is_none() {
                    if let Expr::Column(c) = e {
                        found = Some((
                            c.table.clone().unwrap_or_else(|| bound[0].0.clone()),
                            c.column.clone(),
                        ));
                    }
                }
            });
            target = found;
        }
    }
    let Some((alias, column)) = target else { return false };
    let next_id = max_placeholder(select) + 1;
    let predicate = Expr::binary(
        Expr::Column(ColumnRef::qualified(alias, column)),
        BinaryOp::LtEq,
        Expr::Placeholder(next_id),
    );
    select.where_clause = Some(Expr::and_opt(select.where_clause.take(), predicate));
    true
}

/// Add `AND col BETWEEN {p_a} AND {p_b}` on a numeric column: a range
/// predicate whose two ends must be *coordinated* to produce a non-empty,
/// right-sized slice — cheap to express, rich to search.
fn add_between_predicate(select: &mut Select, context: &SchemaContext, rng: &mut StdRng) -> bool {
    let bound = bindings(select);
    if bound.is_empty() {
        return false;
    }
    let mut target: Option<(String, String)> = None;
    for (alias, table) in &bound {
        if let Some(info) = context.table(table) {
            let preds = info.predicate_columns();
            if !preds.is_empty() {
                let col = preds[rng.gen_range(0..preds.len().min(3))];
                target = Some((alias.clone(), col.name.clone()));
                break;
            }
        }
    }
    let Some((alias, column)) = target else { return false };
    let next_id = max_placeholder(select) + 1;
    let predicate = Expr::Between {
        expr: Box::new(Expr::Column(ColumnRef::qualified(alias, column))),
        negated: false,
        low: Box::new(Expr::Placeholder(next_id)),
        high: Box::new(Expr::Placeholder(next_id + 1)),
    };
    select.where_clause = Some(Expr::and_opt(select.where_clause.take(), predicate));
    true
}

/// Remove the last join and everything that referenced it.
fn drop_last_join(select: &mut Select) -> bool {
    let Some(last) = select.joins.pop() else { return false };
    let gone = last.table.binding().to_string();
    strip_binding(select, &gone);
    true
}

/// Rewrite the query onto a differently-sized base table. A sequential
/// scan's plan cost has a floor proportional to the table's size
/// regardless of predicate selectivity, so cheap target intervals are
/// unreachable from large fact tables. The schema summary includes row
/// counts and column types precisely so the model can reason "scanning
/// large tables would take longer time than small tables" (§4 Step 1) and
/// pick the table whose reachable cost span overlaps the target interval.
fn retarget_smaller_table(
    select: &mut Select,
    context: &SchemaContext,
    lo: f64,
    hi: f64,
    rng: &mut StdRng,
) -> bool {
    // Reachable single-table scan-cost span under the engine's
    // PostgreSQL-style parameters: floor = page reads + per-tuple CPU +
    // one qual; ceiling adds the per-output-tuple cost of a full match.
    let span = |t: &crate::schema_ctx::TableInfo| -> (f64, f64) {
        let width: f64 = t
            .columns
            .iter()
            .map(|c| match c.sql_type.as_str() {
                "text" => 24.0,
                "boolean" => 1.0,
                _ => 8.0,
            })
            .sum::<f64>()
            .max(8.0);
        let rows = t.rows as f64;
        let floor = rows * width / 8192.0 + rows * 0.0125;
        (floor, floor + rows * 0.011)
    };
    let overlap = |a: (f64, f64)| -> f64 { (a.1.min(hi) - a.0.max(lo)).max(0.0) };

    // Tables whose scan-cost span overlaps the target (plan-cost view);
    // when none do, fall back to the cardinality view (any table with at
    // least `lo` rows can emit a result set of the right size).
    let mut candidates: Vec<&crate::schema_ctx::TableInfo> = context
        .tables
        .iter()
        .filter(|t| !t.predicate_columns().is_empty())
        .filter(|t| overlap(span(t)) > 0.0)
        .collect();
    if candidates.is_empty() {
        candidates = context
            .tables
            .iter()
            .filter(|t| !t.predicate_columns().is_empty())
            .filter(|t| (t.rows as f64) >= lo && (t.rows as f64) * 0.2 <= hi.max(1.0) * 50.0)
            .collect();
    }
    // Skip when the current FROM table is already among the best choices.
    let current = select.from.as_ref().map(|t| t.table.clone());
    candidates.retain(|t| Some(&t.name) != current.as_ref());
    if candidates.is_empty() {
        return false;
    }
    let best = candidates
        .iter()
        .max_by(|a, b| overlap(span(a)).total_cmp(&overlap(span(b))).then(a.rows.cmp(&b.rows)))
        .expect("nonempty");

    let preds = best.predicate_columns();
    let pred_col = preds[rng.gen_range(0..preds.len().min(3))].name.clone();
    let proj_col = best.columns.first().map(|c| c.name.clone()).unwrap_or_else(|| pred_col.clone());
    *select = Select {
        projections: vec![sqlkit::SelectItem {
            expr: Expr::Column(ColumnRef::qualified("t1", proj_col)),
            alias: None,
        }],
        from: Some(TableRef::aliased(best.name.clone(), "t1")),
        where_clause: Some(Expr::binary(
            Expr::Column(ColumnRef::qualified("t1", pred_col)),
            BinaryOp::GtEq,
            Expr::Placeholder(1),
        )),
        ..Default::default()
    };
    true
}

/// De-aggregate: a grouped/aggregated query caps its cardinality at the
/// group count, so to reach expensive targets the model rewrites it into a
/// plain projection of base-table columns.
fn remove_aggregation(select: &mut Select, context: &SchemaContext, rng: &mut StdRng) -> bool {
    let has_aggregate = select.projections.iter().any(|p| {
        let mut hit = false;
        p.expr.walk(&mut |e| hit |= e.is_aggregate());
        hit
    });
    if !has_aggregate && select.group_by.is_empty() {
        return false;
    }
    let bound = bindings(select);
    // New projections: former group keys plus a couple of real columns.
    let mut projections: Vec<sqlkit::SelectItem> = select
        .group_by
        .iter()
        .map(|g| sqlkit::SelectItem { expr: g.clone(), alias: None })
        .collect();
    for (alias, table) in bound.iter().take(2) {
        if let Some(info) = context.table(table) {
            if !info.columns.is_empty() {
                let col = &info.columns[rng.gen_range(0..info.columns.len())];
                projections.push(sqlkit::SelectItem {
                    expr: Expr::Column(ColumnRef::qualified(alias.clone(), col.name.clone())),
                    alias: None,
                });
            }
        }
    }
    if projections.is_empty() {
        // No schema context: fall back to SELECT * semantics via the first
        // column referenced anywhere.
        let mut found = None;
        select.walk_exprs(&mut |e| {
            if found.is_none() {
                if let Expr::Column(c) = e {
                    found = Some(c.clone());
                }
            }
        });
        match found {
            Some(c) => projections.push(sqlkit::SelectItem { expr: Expr::Column(c), alias: None }),
            None => return false,
        }
    }
    select.projections = projections;
    select.group_by.clear();
    select.having = None;
    select.order_by.clear();
    true
}

/// The inverse: collapse an expensive plain query into a single global
/// aggregate (cardinality 1, minimal output cost).
fn collapse_to_aggregate(select: &mut Select) -> bool {
    let already_aggregate = select.group_by.is_empty()
        && select.projections.iter().all(|p| {
            let mut hit = false;
            p.expr.walk(&mut |e| hit |= e.is_aggregate());
            hit
        });
    if already_aggregate {
        return false;
    }
    select.projections = vec![sqlkit::SelectItem {
        expr: Expr::Function { name: "COUNT".into(), distinct: false, args: vec![Expr::Wildcard] },
        alias: None,
    }];
    select.group_by.clear();
    select.having = None;
    select.order_by.clear();
    select.distinct = false;
    true
}

/// Remove one placeholder comparison from the WHERE clause.
fn remove_one_predicate(select: &mut Select) -> bool {
    let Some(where_clause) = select.where_clause.take() else { return false };
    let mut parts = where_clause.conjuncts();
    let original = parts.len();
    // Drop the first conjunct containing a placeholder; keep the rest.
    if let Some(pos) = parts.iter().position(contains_placeholder) {
        parts.remove(pos);
    } else if !parts.is_empty() {
        parts.remove(0);
    }
    select.where_clause = Expr::conjoin(parts);
    original > 0
}

/// Join one more table through a foreign-key edge.
fn add_fk_join(select: &mut Select, context: &SchemaContext, rng: &mut StdRng) -> bool {
    let bound = bindings(select);
    let bound_tables: Vec<&str> = bound.iter().map(|(_, t)| t.as_str()).collect();
    // Candidate edges touching exactly one bound table.
    let mut candidates = Vec::new();
    for (t, c, rt, rc) in &context.foreign_keys {
        let t_in = bound_tables.contains(&t.as_str());
        let rt_in = bound_tables.contains(&rt.as_str());
        if t_in != rt_in {
            candidates.push((t.clone(), c.clone(), rt.clone(), rc.clone(), t_in));
        }
    }
    if candidates.is_empty() {
        return false;
    }
    // Prefer joining in big tables (they move cost the most).
    let weight = |cand: &(String, String, String, String, bool)| {
        let new_table = if cand.4 { &cand.2 } else { &cand.0 };
        context.table(new_table).map(|t| (t.rows as f64).max(1.0)).unwrap_or(1.0)
    };
    let total: f64 = candidates.iter().map(weight).sum();
    let mut roll = rng.gen::<f64>() * total.max(1.0);
    let mut pick = candidates.len() - 1;
    for (pos, cand) in candidates.iter().enumerate() {
        roll -= weight(cand);
        if roll <= 0.0 {
            pick = pos;
            break;
        }
    }
    let (t, c, rt, rc, t_bound) = candidates[pick].clone();
    let (existing_table, existing_col, new_table, new_col) =
        if t_bound { (t, c, rt, rc) } else { (rt, rc, t, c) };
    let existing_alias = bound
        .iter()
        .find(|(_, table)| table == &existing_table)
        .map(|(a, _)| a.clone())
        .expect("edge endpoint is bound");
    let new_alias = format!("t{}", bound.len() + 1);
    let on = Expr::binary(
        Expr::Column(ColumnRef::qualified(existing_alias, existing_col)),
        BinaryOp::Eq,
        Expr::Column(ColumnRef::qualified(new_alias.clone(), new_col)),
    );
    select.joins.push(Join {
        kind: JoinKind::Inner,
        table: TableRef::aliased(new_table, new_alias),
        on: Some(on),
    });
    true
}

/// Remove a limit, or failing that a predicate, to let cost grow.
fn remove_limit_and_widen(select: &mut Select) -> bool {
    if select.limit.take().is_some() {
        return true;
    }
    remove_one_predicate(select)
}

fn contains_placeholder(expr: &Expr) -> bool {
    let mut found = false;
    expr.walk(&mut |e| {
        if matches!(e, Expr::Placeholder(_)) {
            found = true;
        }
    });
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{PromptBuilder, TASK_REFINE};
    use rand::SeedableRng;

    fn request(template: &str, target: (f64, f64), profile: &[f64]) -> LlmRequest {
        let db = minidb::datagen::tpch::generate(minidb::datagen::tpch::TpchConfig::tiny());
        let prompt = PromptBuilder::new(TASK_REFINE)
            .schema(&db.schema_summary())
            .template(template)
            .target_interval(target.0, target.1)
            .profile(profile)
            .build();
        LlmRequest::parse(&prompt).unwrap()
    }

    #[test]
    fn cheapening_adds_constraints() {
        let mut rng = StdRng::seed_from_u64(1);
        let req = request(
            "SELECT l.l_orderkey FROM lineitem AS l WHERE l.l_quantity > {p_1}",
            (0.0, 1000.0),
            &[8000.0, 9000.0], // too expensive today
        );
        let refined = refine(&req, &mut rng).unwrap();
        let original = sqlkit::parse_select(req.template.as_ref().unwrap()).unwrap();
        let refined_template = sqlkit::parse_template(&refined).unwrap();
        // one of: extra placeholder predicate(s), a rewrite onto a smaller
        // table, or a collapse to a global aggregate
        let more_placeholders =
            refined_template.arity() > sqlkit::Template::new(original.clone()).arity();
        let switched_table = refined_template.select().from != original.from;
        let collapsed = refined_template.features().num_aggregations > 0;
        assert!(more_placeholders || switched_table || collapsed, "refined: {refined}");
    }

    #[test]
    fn raising_cost_adds_a_join_or_removes_predicates() {
        let mut rng = StdRng::seed_from_u64(2);
        let req = request(
            "SELECT l.l_orderkey FROM lineitem AS l WHERE l.l_quantity > {p_1}",
            (8000.0, 9000.0),
            &[100.0, 200.0], // too cheap today
        );
        let refined = refine(&req, &mut rng).unwrap();
        let refined_select = parse_select(&refined).unwrap();
        let original = parse_select(req.template.as_ref().unwrap()).unwrap();
        // widened structurally (more joins), or predicates were swapped out
        // (a removed predicate may be replaced by a fresh placeholder to
        // keep the template non-ground)
        let widened = refined_select.joins.len() > original.joins.len()
            || refined_select.where_clause != original.where_clause
            || refined_select.projections != original.projections;
        assert!(widened, "refined: {refined}");
    }

    #[test]
    fn refined_templates_stay_valid_on_the_database() {
        let db = minidb::datagen::tpch::generate(minidb::datagen::tpch::TpchConfig::tiny());
        let mut rng = StdRng::seed_from_u64(3);
        for target in [(0.0, 500.0), (5000.0, 6000.0), (9000.0, 10000.0)] {
            for profile in [vec![50.0], vec![9500.0]] {
                let req = request(
                    "SELECT o.o_orderkey, o.o_totalprice FROM orders AS o \
                     JOIN customer AS c ON o.o_custkey = c.c_custkey \
                     WHERE o.o_totalprice > {p_1}",
                    target,
                    &profile,
                );
                let refined = refine(&req, &mut rng).unwrap();
                let template = sqlkit::parse_template(&refined)
                    .unwrap_or_else(|e| panic!("unparseable refinement: {refined}: {e}"));
                db.validate_template(&template)
                    .unwrap_or_else(|e| panic!("invalid refinement: {refined}: {e}"));
            }
        }
    }

    #[test]
    fn history_rotates_strategies() {
        let db = minidb::datagen::tpch::generate(minidb::datagen::tpch::TpchConfig::tiny());
        let template = "SELECT l.l_orderkey FROM lineitem AS l WHERE l.l_quantity > {p_1}";
        let build = |history: &[(String, f64)]| {
            let prompt = PromptBuilder::new(TASK_REFINE)
                .schema(&db.schema_summary())
                .template(template)
                .target_interval(0.0, 1000.0)
                .profile(&[9000.0])
                .history(history)
                .build();
            LlmRequest::parse(&prompt).unwrap()
        };
        let mut rng = StdRng::seed_from_u64(4);
        let first = refine(&build(&[("x".into(), 1.0)]), &mut rng).unwrap();
        let second = refine(&build(&[("x".into(), 1.0), ("y".into(), 2.0)]), &mut rng).unwrap();
        assert_ne!(first, second, "history should steer toward a different strategy");
    }
}
