//! Schema-aware SQL template synthesis.
//!
//! This is the "competent" path of the synthetic model: given the parsed
//! schema context, a join path, and a specification, construct a template
//! AST that satisfies every constraint. Faults (hallucinations) are
//! injected *after* synthesis by [`crate::faults`]; spec-violating
//! mutations live here too since they need AST knowledge.

use crate::schema_ctx::{SchemaContext, TableInfo};
use rand::rngs::StdRng;
use rand::Rng;
use sqlkit::{
    BinaryOp, ColumnRef, Expr, Instruction, Join, JoinKind, OrderByItem, Select, SelectItem,
    TableRef, TemplateSpec, Value,
};

/// A table bound in the synthesized query.
#[derive(Debug, Clone)]
struct Bound {
    table: String,
    alias: String,
}

/// Synthesize a specification-compliant template.
///
/// `join_path` is a list of `(table1, col1, table2, col2)` FK steps; when
/// empty, a single table is chosen from the context. Placeholders are
/// numbered from 1.
pub fn synthesize(
    context: &SchemaContext,
    join_path: &[(String, String, String, String)],
    spec: &TemplateSpec,
    rng: &mut StdRng,
) -> Select {
    let mut builder = Builder { context, rng, next_placeholder: 1 };
    builder.build(join_path, spec)
}

struct Builder<'a> {
    context: &'a SchemaContext,
    rng: &'a mut StdRng,
    next_placeholder: u32,
}

impl<'a> Builder<'a> {
    fn placeholder(&mut self) -> Expr {
        let id = self.next_placeholder;
        self.next_placeholder += 1;
        Expr::Placeholder(id)
    }

    fn build(&mut self, join_path: &[(String, String, String, String)], spec: &TemplateSpec) -> Select {
        // ---- FROM clause from the join path --------------------------
        let mut bound: Vec<Bound> = Vec::new();
        let mut joins: Vec<Join> = Vec::new();
        let bind = |bound: &mut Vec<Bound>, table: &str| -> String {
            if let Some(b) = bound.iter().find(|b| b.table == table) {
                return b.alias.clone();
            }
            let alias = format!("t{}", bound.len() + 1);
            bound.push(Bound { table: table.to_string(), alias: alias.clone() });
            alias
        };

        if join_path.is_empty() {
            // Single-table template: prefer tables with predicate columns,
            // weighted by size — the prompt includes row counts precisely
            // so the model favors tables that can carry realistic costs.
            let candidates: Vec<&TableInfo> = self
                .context
                .tables
                .iter()
                .filter(|t| !t.predicate_columns().is_empty())
                .collect();
            let table = if candidates.is_empty() {
                &self.context.tables[self.rng.gen_range(0..self.context.tables.len())]
            } else {
                // sqrt weighting: favour fact tables without starving the
                // mid-size ones — production workloads touch both.
                let weight = |t: &TableInfo| (t.rows as f64).max(1.0).sqrt();
                let total: f64 = candidates.iter().map(|t| weight(t)).sum();
                let mut roll = self.rng.gen::<f64>() * total;
                let mut chosen = candidates[candidates.len() - 1];
                for t in &candidates {
                    roll -= weight(t);
                    if roll <= 0.0 {
                        chosen = t;
                        break;
                    }
                }
                chosen
            };
            bind(&mut bound, &table.name);
        } else {
            for (t1, c1, t2, c2) in join_path {
                let a1_known = bound.iter().any(|b| &b.table == t1);
                let a2_known = bound.iter().any(|b| &b.table == t2);
                if !a1_known && !a2_known && !bound.is_empty() {
                    // disconnected step; skip (core never produces these)
                    continue;
                }
                let a1 = bind(&mut bound, t1);
                let first_join = bound.len() == 2 && joins.is_empty() && !a2_known;
                let a2 = bind(&mut bound, t2);
                let on = Expr::binary(
                    Expr::Column(ColumnRef::qualified(a1.clone(), c1.clone())),
                    BinaryOp::Eq,
                    Expr::Column(ColumnRef::qualified(a2.clone(), c2.clone())),
                );
                if first_join || joins.len() + 2 == bound.len() {
                    // the newly bound table is the join target
                    let target = bound.last().expect("just bound").clone();
                    joins.push(Join {
                        kind: JoinKind::Inner,
                        table: TableRef::aliased(target.table, target.alias),
                        on: Some(on),
                    });
                }
            }
        }

        let from = TableRef::aliased(bound[0].table.clone(), bound[0].alias.clone());

        // ---- instructions ------------------------------------------
        let wants_group_by = spec.instructions.contains(&Instruction::GroupBy);
        let wants_subquery = spec.instructions.contains(&Instruction::NestedSubquery);
        let wants_order_by = spec.instructions.contains(&Instruction::OrderBy);
        let wants_distinct = spec.instructions.contains(&Instruction::Distinct);
        let wants_complex = spec.instructions.contains(&Instruction::ComplexScalarExpressions);
        let n_placeholders = spec
            .instructions
            .iter()
            .find_map(|i| match i {
                Instruction::NumPredicates(n) => Some(*n as usize),
                _ => None,
            })
            .unwrap_or_else(|| 1 + self.rng.gen_range(0..2));

        let n_aggs = spec.num_aggregations.unwrap_or_else(|| self.rng.gen_range(0..2)) as usize;
        let grouped = wants_group_by || (n_aggs > 0 && self.rng.gen_bool(0.5));

        // ---- projections --------------------------------------------
        let mut projections: Vec<SelectItem> = Vec::new();
        let mut group_by: Vec<Expr> = Vec::new();

        if grouped {
            let (alias, column) = self.pick_grouping_column(&bound);
            let expr = Expr::Column(ColumnRef::qualified(alias, column));
            group_by.push(expr.clone());
            projections.push(SelectItem { expr, alias: None });
        }
        for i in 0..n_aggs {
            let expr = self.aggregate_expr(&bound, wants_complex && i == 0);
            projections.push(SelectItem { expr, alias: Some(format!("agg_{}", i + 1)) });
        }
        if projections.is_empty() || (!grouped && n_aggs == 0) {
            // plain projections
            let n_cols = if wants_complex { 2 } else { self.rng.gen_range(1..=3) };
            for _ in 0..n_cols {
                let (alias, column) = self.pick_any_column(&bound);
                projections.push(SelectItem {
                    expr: Expr::Column(ColumnRef::qualified(alias, column)),
                    alias: None,
                });
            }
            if wants_complex {
                projections.extend(self.complex_scalar_projections(&bound));
            }
        } else if wants_complex && n_aggs == 0 {
            // grouped, no aggregates, but complex scalars requested: add a
            // complex expression over the grouping key is not legal, so
            // attach a COUNT-free scalar over literals.
            projections.push(SelectItem {
                expr: Expr::binary(
                    Expr::binary(
                        Expr::Literal(Value::Int(2)),
                        BinaryOp::Mul,
                        Expr::Literal(Value::Int(3)),
                    ),
                    BinaryOp::Add,
                    Expr::Function {
                        name: "ABS".into(),
                        distinct: false,
                        args: vec![Expr::Literal(Value::Int(-1))],
                    },
                ),
                alias: Some("scalar_1".into()),
            });
        }

        // ---- predicates ----------------------------------------------
        let mut where_clause: Option<Expr> = None;
        let subquery_placeholders = usize::from(wants_subquery);
        let plain_placeholders = n_placeholders.saturating_sub(subquery_placeholders);
        for i in 0..plain_placeholders {
            // Mix in categorical equality predicates (production filters
            // are often on low-cardinality string columns such as market
            // segments or status flags).
            let categorical = if i > 0 && self.rng.gen_bool(0.25) {
                self.pick_categorical_column(&bound)
            } else {
                None
            };
            let predicate = match categorical {
                Some((alias, column)) => {
                    let rhs = self.placeholder();
                    Expr::binary(
                        Expr::Column(ColumnRef::qualified(alias, column)),
                        BinaryOp::Eq,
                        rhs,
                    )
                }
                None => {
                    let (alias, column) = self.pick_predicate_column(&bound);
                    let op = [BinaryOp::Gt, BinaryOp::Lt, BinaryOp::GtEq, BinaryOp::LtEq]
                        [self.rng.gen_range(0..4)];
                    let rhs = self.placeholder();
                    Expr::binary(Expr::Column(ColumnRef::qualified(alias, column)), op, rhs)
                }
            };
            where_clause = Some(Expr::and_opt(where_clause, predicate));
        }
        if wants_subquery {
            let predicate = self.subquery_predicate(&bound);
            where_clause = Some(Expr::and_opt(where_clause, predicate));
        }

        // ---- tail clauses --------------------------------------------
        let order_by = if wants_order_by {
            vec![OrderByItem { expr: projections[0].expr.clone(), ascending: false }]
        } else {
            Vec::new()
        };

        Select {
            distinct: wants_distinct,
            projections,
            from: Some(from),
            joins,
            where_clause,
            group_by,
            having: None,
            order_by,
            limit: None,
        }
    }

    fn table_info(&self, bound: &Bound) -> Option<&'a TableInfo> {
        self.context.table(&bound.table)
    }

    /// Numeric column suitable for a predicate, with PK fallback.
    fn pick_predicate_column(&mut self, bound: &[Bound]) -> (String, String) {
        // Try a few random tables for a non-PK numeric column.
        for _ in 0..bound.len() * 2 {
            let b = &bound[self.rng.gen_range(0..bound.len())];
            if let Some(info) = self.table_info(b) {
                let preds = info.predicate_columns();
                if !preds.is_empty() {
                    let col = preds[self.rng.gen_range(0..preds.len())];
                    return (b.alias.clone(), col.name.clone());
                }
            }
        }
        // Fallback: any numeric column (PK included).
        for b in bound {
            if let Some(info) = self.table_info(b) {
                if let Some(col) = info.columns.iter().find(|c| c.is_numeric()) {
                    return (b.alias.clone(), col.name.clone());
                }
            }
        }
        // Last resort: first column of the first table.
        let b = &bound[0];
        let name = self
            .table_info(b)
            .and_then(|i| i.columns.first().map(|c| c.name.clone()))
            .unwrap_or_else(|| "id".into());
        (b.alias.clone(), name)
    }

    fn pick_any_column(&mut self, bound: &[Bound]) -> (String, String) {
        let b = &bound[self.rng.gen_range(0..bound.len())];
        if let Some(info) = self.table_info(b) {
            if !info.columns.is_empty() {
                let col = &info.columns[self.rng.gen_range(0..info.columns.len())];
                return (b.alias.clone(), col.name.clone());
            }
        }
        (b.alias.clone(), "id".into())
    }

    /// A low-cardinality text column suitable for an equality predicate,
    /// if any bound table has one.
    fn pick_categorical_column(&mut self, bound: &[Bound]) -> Option<(String, String)> {
        let mut candidates: Vec<(String, String)> = Vec::new();
        for b in bound {
            if let Some(info) = self.table_info(b) {
                for col in &info.columns {
                    if col.is_text() && (2..=50).contains(&col.n_distinct) {
                        candidates.push((b.alias.clone(), col.name.clone()));
                    }
                }
            }
        }
        if candidates.is_empty() {
            None
        } else {
            let idx = self.rng.gen_range(0..candidates.len());
            Some(candidates.swap_remove(idx))
        }
    }

    fn pick_grouping_column(&mut self, bound: &[Bound]) -> (String, String) {
        // Gather candidate grouping keys across bound tables and pick one
        // at random: real workloads group on anything from a 5-value flag
        // to a near-key column, and that diversity is what lets grouped
        // templates cover very different cardinality ranges.
        let mut candidates: Vec<(String, String)> = Vec::new();
        for b in bound {
            if let Some(info) = self.table_info(b) {
                for col in info.grouping_columns() {
                    candidates.push((b.alias.clone(), col.name.clone()));
                }
            }
        }
        if candidates.is_empty() {
            return self.pick_any_column(bound);
        }
        let idx = self.rng.gen_range(0..candidates.len());
        candidates.swap_remove(idx)
    }

    fn numeric_column_expr(&mut self, bound: &[Bound]) -> Expr {
        let (alias, column) = self.pick_predicate_column(bound);
        Expr::Column(ColumnRef::qualified(alias, column))
    }

    fn aggregate_expr(&mut self, bound: &[Bound], complex_arg: bool) -> Expr {
        let choice = self.rng.gen_range(0..5);
        if choice == 0 {
            return Expr::Function { name: "COUNT".into(), distinct: false, args: vec![Expr::Wildcard] };
        }
        let name = ["SUM", "AVG", "MIN", "MAX"][choice - 1];
        let arg = if complex_arg {
            // (a + b) * 0.5 - c → scalar complexity 3
            Expr::binary(
                Expr::binary(
                    Expr::binary(
                        self.numeric_column_expr(bound),
                        BinaryOp::Add,
                        self.numeric_column_expr(bound),
                    ),
                    BinaryOp::Mul,
                    Expr::Literal(Value::Float(0.5)),
                ),
                BinaryOp::Sub,
                self.numeric_column_expr(bound),
            )
        } else {
            self.numeric_column_expr(bound)
        };
        Expr::Function { name: name.into(), distinct: false, args: vec![arg] }
    }

    /// Two complex scalar projections with combined complexity ≥ 3.
    fn complex_scalar_projections(&mut self, bound: &[Bound]) -> Vec<SelectItem> {
        let a = self.numeric_column_expr(bound);
        let b = self.numeric_column_expr(bound);
        let c = self.numeric_column_expr(bound);
        vec![
            SelectItem {
                // (a + b) * 0.5 → complexity 2
                expr: Expr::binary(
                    Expr::binary(a.clone(), BinaryOp::Add, b),
                    BinaryOp::Mul,
                    Expr::Literal(Value::Float(0.5)),
                ),
                alias: Some("scalar_1".into()),
            },
            SelectItem {
                // CASE WHEN a > 0 THEN ABS(c) ELSE 0 END → complexity 2
                expr: Expr::Case {
                    operand: None,
                    branches: vec![(
                        Expr::binary(a, BinaryOp::Gt, Expr::Literal(Value::Int(0))),
                        Expr::Function { name: "ABS".into(), distinct: false, args: vec![c] },
                    )],
                    else_branch: Some(Box::new(Expr::Literal(Value::Int(0)))),
                },
                alias: Some("scalar_2".into()),
            },
        ]
    }

    /// `alias.key IN (SELECT table.key FROM table WHERE pred > {p})` — the
    /// inner query reuses a bound table so `num_tables_accessed` stays
    /// unchanged (the feature counts distinct table names).
    fn subquery_predicate(&mut self, bound: &[Bound]) -> Expr {
        let b = bound[self.rng.gen_range(0..bound.len())].clone();
        let info = self.table_info(&b);
        let key = info
            .and_then(|i| i.columns.iter().find(|c| c.is_numeric()).map(|c| c.name.clone()))
            .unwrap_or_else(|| "id".into());
        let pred_col = info
            .and_then(|i| {
                let preds = i.predicate_columns();
                if preds.is_empty() {
                    i.columns.iter().find(|c| c.is_numeric()).map(|c| c.name.clone())
                } else {
                    Some(preds[self.rng.gen_range(0..preds.len())].name.clone())
                }
            })
            .unwrap_or_else(|| key.clone());
        let rhs = self.placeholder();
        let inner = Select {
            projections: vec![SelectItem {
                expr: Expr::Column(ColumnRef::qualified(b.table.clone(), key.clone())),
                alias: None,
            }],
            from: Some(TableRef::new(b.table.clone())),
            where_clause: Some(Expr::binary(
                Expr::Column(ColumnRef::qualified(b.table.clone(), pred_col)),
                BinaryOp::Gt,
                rhs,
            )),
            ..Default::default()
        };
        Expr::InSubquery {
            expr: Box::new(Expr::Column(ColumnRef::qualified(b.alias, key))),
            negated: false,
            subquery: Box::new(inner),
        }
    }
}

/// Mutate a compliant statement so it violates its specification while
/// remaining executable (the "plausible but wrong" hallucination class).
pub fn violate_spec(select: &mut Select, spec: &TemplateSpec, rng: &mut StdRng) {
    let mut mutations: Vec<fn(&mut Select, &TemplateSpec, &mut StdRng)> = Vec::new();

    // Drop the nested subquery (keeping its placeholder as a plain
    // comparison) when one was required.
    if spec.instructions.contains(&Instruction::NestedSubquery) {
        mutations.push(|s, _, _| {
            replace_subquery_with_comparison(s);
        });
    }
    // Drop GROUP BY when one was required (removing the grouped projection
    // too, so the query remains executable).
    if spec.instructions.contains(&Instruction::GroupBy) && !select.group_by.is_empty() {
        mutations.push(|s, _, _| {
            let group_keys: Vec<String> = s.group_by.iter().map(|g| g.to_string()).collect();
            s.projections.retain(|p| !group_keys.contains(&p.expr.to_string()));
            s.group_by.clear();
            if s.projections.is_empty() {
                s.projections.push(SelectItem {
                    expr: Expr::Function {
                        name: "COUNT".into(),
                        distinct: false,
                        args: vec![Expr::Wildcard],
                    },
                    alias: None,
                });
            }
            s.order_by.clear();
        });
    }
    // Miscount aggregations: add one more when a count was specified.
    if spec.num_aggregations.is_some_and(|n| n > 0) {
        mutations.push(|s, _, _| {
            s.projections.push(SelectItem {
                expr: Expr::Function {
                    name: "COUNT".into(),
                    distinct: false,
                    args: vec![Expr::Wildcard],
                },
                alias: Some("extra_agg".into()),
            });
        });
    }
    // Miscount placeholders when a count was specified.
    if spec
        .instructions
        .iter()
        .any(|i| matches!(i, Instruction::NumPredicates(_)))
    {
        mutations.push(|s, _, _| {
            let max_id = max_placeholder(s);
            let extra = Expr::binary(
                Expr::Literal(Value::Int(1)),
                BinaryOp::LtEq,
                Expr::Placeholder(max_id + 1),
            );
            s.where_clause = Some(Expr::and_opt(s.where_clause.take(), extra));
        });
    }

    if mutations.is_empty() {
        // No checkable instruction to violate: miscount joins by dropping
        // the last join and every predicate that referenced it.
        if let Some(last) = select.joins.pop() {
            let gone = last.table.binding().to_string();
            strip_binding(select, &gone);
        } else {
            // single-table, unconstrained: add a spurious DISTINCT — which
            // violates nothing checkable, so instead miscount aggregations
            // by appending COUNT(*) only when aggregates already exist;
            // otherwise leave as-is (rare: fully unconstrained spec).
            if select.projections.iter().any(|p| {
                let mut has = false;
                p.expr.walk(&mut |e| has |= e.is_aggregate());
                has
            }) {
                select.projections.push(SelectItem {
                    expr: Expr::Function {
                        name: "COUNT".into(),
                        distinct: false,
                        args: vec![Expr::Wildcard],
                    },
                    alias: Some("extra_agg".into()),
                });
            }
        }
        return;
    }
    let pick = rng.gen_range(0..mutations.len());
    mutations[pick](select, spec, rng);
}

/// Largest placeholder id used in the statement (0 when none).
pub fn max_placeholder(select: &Select) -> u32 {
    sqlkit::Template::new(select.clone()).placeholders().into_iter().max().unwrap_or(0)
}

fn replace_subquery_with_comparison(select: &mut Select) {
    let max_id = max_placeholder(select);
    if let Some(where_clause) = &mut select.where_clause {
        replace_in_expr(where_clause, max_id);
    }
}

fn replace_in_expr(expr: &mut Expr, placeholder: u32) {
    if let Expr::InSubquery { expr: operand, .. } = expr {
        let lhs = operand.as_ref().clone();
        *expr = Expr::binary(lhs, BinaryOp::GtEq, Expr::Placeholder(placeholder.max(1)));
        return;
    }
    match expr {
        Expr::Binary { left, right, .. } => {
            replace_in_expr(left, placeholder);
            replace_in_expr(right, placeholder);
        }
        Expr::Unary { expr, .. } => replace_in_expr(expr, placeholder),
        _ => {}
    }
}

/// Remove projections/predicates referencing a dropped binding.
pub(crate) fn strip_binding(select: &mut Select, binding: &str) {
    let references = |e: &Expr| {
        let mut hit = false;
        e.walk(&mut |node| {
            if let Expr::Column(c) = node {
                if c.table.as_deref() == Some(binding) {
                    hit = true;
                }
            }
        });
        hit
    };
    select.projections.retain(|p| !references(&p.expr));
    if select.projections.is_empty() {
        select.projections.push(SelectItem {
            expr: Expr::Function { name: "COUNT".into(), distinct: false, args: vec![Expr::Wildcard] },
            alias: None,
        });
        select.group_by.clear();
    }
    if let Some(where_clause) = select.where_clause.take() {
        select.where_clause = Expr::conjoin(
            where_clause.conjuncts().into_iter().filter(|c| !references(c)).collect(),
        );
    }
    select.group_by.retain(|g| !references(g));
    select.order_by.retain(|o| !references(&o.expr));
}


#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema_ctx::SchemaContext;
    use rand::SeedableRng;

    fn tpch_context() -> SchemaContext {
        let db = minidb::datagen::tpch::generate(minidb::datagen::tpch::TpchConfig::tiny());
        SchemaContext::parse(&db.schema_summary())
    }

    fn join_path() -> Vec<(String, String, String, String)> {
        vec![
            ("orders".into(), "o_custkey".into(), "customer".into(), "c_custkey".into()),
            ("lineitem".into(), "l_orderkey".into(), "orders".into(), "o_orderkey".into()),
        ]
    }

    #[test]
    fn synthesized_template_satisfies_its_spec() {
        let context = tpch_context();
        let mut rng = StdRng::seed_from_u64(21);
        let spec = TemplateSpec::new(1)
            .with_tables(3)
            .with_joins(2)
            .with_aggregations(2)
            .with_instruction(Instruction::GroupBy)
            .with_instruction(Instruction::NestedSubquery)
            .with_instruction(Instruction::NumPredicates(3));
        for _ in 0..20 {
            let select = synthesize(&context, &join_path(), &spec, &mut rng);
            let template = sqlkit::Template::new(select);
            let violations = spec.check(&template.features());
            assert!(violations.is_empty(), "{violations:?}\nSQL: {template}");
        }
    }

    #[test]
    fn synthesized_template_is_executable_on_the_database() {
        let db = minidb::datagen::tpch::generate(minidb::datagen::tpch::TpchConfig::tiny());
        let context = SchemaContext::parse(&db.schema_summary());
        let mut rng = StdRng::seed_from_u64(4);
        let spec = TemplateSpec::new(1)
            .with_tables(3)
            .with_joins(2)
            .with_aggregations(1)
            .with_instruction(Instruction::GroupBy)
            .with_instruction(Instruction::NumPredicates(2));
        for _ in 0..20 {
            let select = synthesize(&context, &join_path(), &spec, &mut rng);
            let template = sqlkit::Template::new(select);
            db.validate_template(&template)
                .unwrap_or_else(|e| panic!("invalid: {e}\nSQL: {template}"));
        }
    }

    #[test]
    fn bi_style_template_no_joins_complex_scalars() {
        let context = tpch_context();
        let mut rng = StdRng::seed_from_u64(77);
        let spec = TemplateSpec::new(2)
            .with_joins(0)
            .with_aggregations(0)
            .with_instruction(Instruction::NoJoins)
            .with_instruction(Instruction::ComplexScalarExpressions);
        let select = synthesize(&context, &[], &spec, &mut rng);
        let features = sqlkit::Template::new(select).features();
        assert_eq!(features.num_joins, 0);
        assert!(features.scalar_complexity >= 3);
    }

    #[test]
    fn violate_spec_breaks_compliance_but_not_executability() {
        let db = minidb::datagen::tpch::generate(minidb::datagen::tpch::TpchConfig::tiny());
        let context = SchemaContext::parse(&db.schema_summary());
        let mut rng = StdRng::seed_from_u64(9);
        let spec = TemplateSpec::new(1)
            .with_tables(3)
            .with_joins(2)
            .with_aggregations(1)
            .with_instruction(Instruction::GroupBy)
            .with_instruction(Instruction::NestedSubquery);
        let mut violated_count = 0;
        for _ in 0..15 {
            let mut select = synthesize(&context, &join_path(), &spec, &mut rng);
            violate_spec(&mut select, &spec, &mut rng);
            let template = sqlkit::Template::new(select);
            if !spec.check(&template.features()).is_empty() {
                violated_count += 1;
            }
            db.validate_template(&template)
                .unwrap_or_else(|e| panic!("broken executability: {e}\nSQL: {template}"));
        }
        assert!(violated_count >= 14, "only {violated_count}/15 violated");
    }

    #[test]
    fn placeholders_number_from_one() {
        let context = tpch_context();
        let mut rng = StdRng::seed_from_u64(3);
        let spec = TemplateSpec::new(1)
            .with_joins(0)
            .with_instruction(Instruction::NumPredicates(3));
        let select = synthesize(&context, &[], &spec, &mut rng);
        let template = sqlkit::Template::new(select);
        assert_eq!(template.placeholders(), vec![1, 2, 3]);
    }
}

#[cfg(test)]
mod categorical_tests {
    use super::*;
    use crate::schema_ctx::SchemaContext;
    use rand::SeedableRng;

    #[test]
    fn categorical_predicates_appear_and_validate() {
        let db = minidb::datagen::tpch::generate(minidb::datagen::tpch::TpchConfig::tiny());
        let context = SchemaContext::parse(&db.schema_summary());
        let mut rng = StdRng::seed_from_u64(123);
        let spec = TemplateSpec::new(1)
            .with_joins(0)
            .with_aggregations(0)
            .with_instruction(Instruction::NumPredicates(3));
        let mut saw_string_predicate = false;
        for _ in 0..40 {
            let select = synthesize(&context, &[], &spec, &mut rng);
            let template = sqlkit::Template::new(select);
            db.validate_template(&template)
                .unwrap_or_else(|e| panic!("invalid: {e}\nSQL: {template}"));
            let mut has_eq_on_text = false;
            template.select().walk_exprs(&mut |e| {
                if let Expr::Binary { left, op: BinaryOp::Eq, right } = e {
                    if matches!(
                        (left.as_ref(), right.as_ref()),
                        (Expr::Column(_), Expr::Placeholder(_))
                    ) {
                        has_eq_on_text = true;
                    }
                }
            });
            saw_string_predicate |= has_eq_on_text;
        }
        assert!(saw_string_predicate, "no categorical predicate in 40 draws");
    }
}
