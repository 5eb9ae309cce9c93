//! Property tests for the SQL frontend.
//!
//! The central invariant is `parse(print(ast)) == ast` for every AST the
//! SQLBarber generators can construct. The strategies below generate trees
//! respecting the grammar's shape rules (e.g. comparison operands are
//! additive-level expressions, literals are non-negative with negation
//! expressed via unary minus), which mirrors exactly what the template
//! generator and the synthetic LLM emit.

use proptest::prelude::*;
use sqlkit::{
    parse_select, BinaryOp, ColumnRef, Expr, Join, JoinKind, OrderByItem, Select, SelectItem,
    TableRef, UnaryOp, Value,
};

fn ident() -> impl Strategy<Value = String> {
    prop::sample::select(vec![
        "t0", "t1", "users", "orders", "lineitem", "col_a", "col_b", "amount", "qty", "price",
    ])
    .prop_map(str::to_string)
}

fn literal() -> impl Strategy<Value = Expr> {
    prop_oneof![
        (0i64..1_000_000).prop_map(|v| Expr::Literal(Value::Int(v))),
        (0.0f64..1e6).prop_map(|v| Expr::Literal(Value::Float(v))),
        "[a-z ']{0,12}".prop_map(|s| Expr::Literal(Value::Str(s))),
        Just(Expr::Literal(Value::Null)),
        Just(Expr::Literal(Value::Bool(true))),
        Just(Expr::Literal(Value::Bool(false))),
    ]
}

fn leaf() -> impl Strategy<Value = Expr> {
    prop_oneof![
        (ident(), ident()).prop_map(|(t, c)| Expr::Column(ColumnRef::qualified(t, c))),
        ident().prop_map(|c| Expr::Column(ColumnRef::bare(c))),
        literal(),
        (1u32..8).prop_map(Expr::Placeholder),
    ]
}

/// Arithmetic expressions (additive/multiplicative levels of the grammar).
fn arith() -> impl Strategy<Value = Expr> {
    leaf().prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone(), arith_op())
                .prop_map(|(l, r, op)| Expr::binary(l, op, r)),
            inner.clone().prop_map(|e| Expr::Unary { op: UnaryOp::Neg, expr: Box::new(e) }),
            (
                prop::sample::select(vec!["ABS", "ROUND", "LENGTH", "COALESCE"]),
                prop::collection::vec(inner, 1..3)
            )
                .prop_map(|(name, args)| Expr::Function {
                    name: name.into(),
                    distinct: false,
                    args,
                }),
        ]
    })
}

fn arith_op() -> impl Strategy<Value = BinaryOp> {
    prop::sample::select(vec![
        BinaryOp::Add,
        BinaryOp::Sub,
        BinaryOp::Mul,
        BinaryOp::Div,
        BinaryOp::Mod,
    ])
}

fn comparison_op() -> impl Strategy<Value = BinaryOp> {
    prop::sample::select(vec![
        BinaryOp::Eq,
        BinaryOp::NotEq,
        BinaryOp::Lt,
        BinaryOp::LtEq,
        BinaryOp::Gt,
        BinaryOp::GtEq,
    ])
}

/// Leaf predicates (comparison level of the grammar).
fn predicate() -> impl Strategy<Value = Expr> {
    prop_oneof![
        (arith(), comparison_op(), arith()).prop_map(|(l, op, r)| Expr::binary(l, op, r)),
        (arith(), any::<bool>(), arith(), arith()).prop_map(|(e, negated, lo, hi)| {
            Expr::Between { expr: Box::new(e), negated, low: Box::new(lo), high: Box::new(hi) }
        }),
        (arith(), any::<bool>(), prop::collection::vec(literal(), 1..4))
            .prop_map(|(e, negated, list)| Expr::InList { expr: Box::new(e), negated, list }),
        (ident(), ident(), any::<bool>(), "[a-z%_]{1,8}").prop_map(|(t, c, negated, pat)| {
            Expr::Like {
                expr: Box::new(Expr::Column(ColumnRef::qualified(t, c))),
                negated,
                pattern: Box::new(Expr::Literal(Value::Str(pat))),
            }
        }),
        (arith(), any::<bool>())
            .prop_map(|(e, negated)| Expr::IsNull { expr: Box::new(e), negated }),
    ]
}

/// Boolean combinations (AND/OR/NOT levels of the grammar).
fn bool_expr() -> impl Strategy<Value = Expr> {
    predicate().prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::binary(l, BinaryOp::And, r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::binary(l, BinaryOp::Or, r)),
            inner.prop_map(|e| Expr::Unary { op: UnaryOp::Not, expr: Box::new(e) }),
        ]
    })
}

fn select_strategy() -> impl Strategy<Value = Select> {
    (
        prop::collection::vec(arith(), 1..4),
        ident(),
        prop::option::of(ident()),
        prop::collection::vec((ident(), predicate()), 0..3),
        prop::option::of(bool_expr()),
        prop::collection::vec((ident(), ident()), 0..2),
        prop::option::of(predicate()),
        prop::collection::vec((arith(), any::<bool>()), 0..2),
        prop::option::of(0u64..1000),
        any::<bool>(),
    )
        .prop_map(
            |(
                proj_exprs,
                from_table,
                from_alias,
                join_specs,
                where_clause,
                group_cols,
                having,
                order_specs,
                limit,
                distinct,
            )| {
                let projections =
                    proj_exprs.into_iter().map(|expr| SelectItem { expr, alias: None }).collect();
                let joins = join_specs
                    .into_iter()
                    .map(|(table, on)| Join {
                        kind: JoinKind::Inner,
                        table: TableRef::new(table),
                        on: Some(on),
                    })
                    .collect();
                let group_by: Vec<Expr> = group_cols
                    .into_iter()
                    .map(|(t, c)| Expr::Column(ColumnRef::qualified(t, c)))
                    .collect();
                let having = if group_by.is_empty() { None } else { having };
                let order_by = order_specs
                    .into_iter()
                    .map(|(expr, ascending)| OrderByItem { expr, ascending })
                    .collect();
                Select {
                    distinct,
                    projections,
                    from: Some(TableRef { table: from_table, alias: from_alias }),
                    joins,
                    where_clause,
                    group_by,
                    having,
                    order_by,
                    limit,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// print → parse is the identity on generator-shaped ASTs.
    #[test]
    fn print_parse_round_trip(select in select_strategy()) {
        let printed = select.to_string();
        let reparsed = parse_select(&printed)
            .unwrap_or_else(|e| panic!("printed SQL failed to parse: {printed}\n{e}"));
        prop_assert_eq!(select, reparsed, "text was: {}", printed);
    }

    /// Printing is deterministic and stable under one round trip.
    #[test]
    fn printing_is_idempotent(select in select_strategy()) {
        let once = select.to_string();
        let twice = parse_select(&once).unwrap().to_string();
        prop_assert_eq!(once, twice);
    }

    /// Feature extraction never panics and placeholder counts match the
    /// template view.
    #[test]
    fn features_are_consistent_with_placeholders(select in select_strategy()) {
        let template = sqlkit::Template::new(select);
        let features = template.features();
        prop_assert_eq!(features.num_placeholders as usize, template.placeholders().len());
    }

    /// Instantiating with a full binding eliminates every placeholder.
    #[test]
    fn instantiation_grounds_the_template(select in select_strategy(), v in 0i64..1000) {
        let template = sqlkit::Template::new(select);
        let value = Value::Int(v);
        let query = template.instantiate(|_| Some(&value)).unwrap();
        let grounded = sqlkit::Template::new(query);
        prop_assert!(grounded.is_ground());
    }
}
