//! SQL pretty-printer.
//!
//! `Display` for [`Select`] and [`Expr`] emits SQL text that the
//! [`crate::parser`] parses back to an identical tree (`parse ∘ print =
//! id`), which the round-trip property tests enforce. Printing is
//! precedence-aware so the output reads like hand-written SQL rather than a
//! fully-parenthesized dump — this matters because the text is embedded in
//! LLM prompts.

use crate::ast::*;
use std::fmt;

/// Operator precedence used to decide parenthesization. Larger binds
/// tighter. Mirrors the parser's grammar levels.
fn precedence(op: BinaryOp) -> u8 {
    use BinaryOp::*;
    match op {
        Or => 1,
        And => 2,
        Eq | NotEq | Lt | LtEq | Gt | GtEq => 4,
        Add | Sub => 5,
        Mul | Div | Mod => 6,
    }
}

/// Precedence of an expression node when appearing as an operand.
fn expr_precedence(expr: &Expr) -> u8 {
    match expr {
        Expr::Binary { op, .. } => precedence(*op),
        Expr::Unary { op: UnaryOp::Not, .. } => 3,
        // postfix predicates parse at comparison level
        Expr::Between { .. }
        | Expr::InList { .. }
        | Expr::InSubquery { .. }
        | Expr::Like { .. }
        | Expr::IsNull { .. } => 4,
        Expr::Unary { op: UnaryOp::Neg, .. } => 7,
        _ => 8, // primaries never need parens
    }
}

struct ExprPrinter<'a> {
    expr: &'a Expr,
    /// Minimum precedence this position requires without parentheses.
    min_prec: u8,
}

impl fmt::Display for ExprPrinter<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if expr_precedence(self.expr) < self.min_prec {
            write!(f, "({})", self.expr)
        } else {
            write!(f, "{}", self.expr)
        }
    }
}

fn operand(expr: &Expr, min_prec: u8) -> ExprPrinter<'_> {
    ExprPrinter { expr, min_prec }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.table {
            Some(t) => write!(f, "{t}.{}", self.column),
            None => write!(f, "{}", self.column),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(c) => write!(f, "{c}"),
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Placeholder(id) => write!(f, "{{p_{id}}}"),
            Expr::Wildcard => write!(f, "*"),
            Expr::Unary { op: UnaryOp::Neg, expr } => {
                // `--x` would lex as a line comment; parenthesize nested
                // negations.
                if matches!(**expr, Expr::Unary { op: UnaryOp::Neg, .. }) {
                    write!(f, "-({})", expr)
                } else {
                    write!(f, "-{}", operand(expr, 7))
                }
            }
            Expr::Unary { op: UnaryOp::Not, expr } => {
                write!(f, "NOT {}", operand(expr, 3))
            }
            Expr::Binary { left, op, right } => {
                let prec = precedence(*op);
                // left-associative: right operand needs strictly higher
                // precedence for non-commutative chains to re-parse
                // identically.
                write!(f, "{} {} {}", operand(left, prec), op.symbol(), operand(right, prec + 1))
            }
            Expr::Between { expr, negated, low, high } => write!(
                f,
                "{} {}BETWEEN {} AND {}",
                operand(expr, 5),
                if *negated { "NOT " } else { "" },
                operand(low, 5),
                operand(high, 5)
            ),
            Expr::InList { expr, negated, list } => {
                write!(f, "{} {}IN (", operand(expr, 5), if *negated { "NOT " } else { "" })?;
                for (i, item) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, ")")
            }
            Expr::InSubquery { expr, negated, subquery } => write!(
                f,
                "{} {}IN ({subquery})",
                operand(expr, 5),
                if *negated { "NOT " } else { "" }
            ),
            Expr::ScalarSubquery(sq) => write!(f, "({sq})"),
            Expr::Exists { negated, subquery } => {
                write!(f, "{}EXISTS ({subquery})", if *negated { "NOT " } else { "" })
            }
            Expr::Like { expr, negated, pattern } => write!(
                f,
                "{} {}LIKE {}",
                operand(expr, 5),
                if *negated { "NOT " } else { "" },
                operand(pattern, 5)
            ),
            Expr::IsNull { expr, negated } => {
                write!(f, "{} IS {}NULL", operand(expr, 5), if *negated { "NOT " } else { "" })
            }
            Expr::Function { name, distinct, args } => {
                write!(f, "{name}(")?;
                if *distinct {
                    write!(f, "DISTINCT ")?;
                }
                for (i, arg) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{arg}")?;
                }
                write!(f, ")")
            }
            Expr::Case { operand: op, branches, else_branch } => {
                write!(f, "CASE")?;
                if let Some(op) = op {
                    write!(f, " {op}")?;
                }
                for (when, then) in branches {
                    write!(f, " WHEN {when} THEN {then}")?;
                }
                if let Some(e) = else_branch {
                    write!(f, " ELSE {e}")?;
                }
                write!(f, " END")
            }
        }
    }
}

impl fmt::Display for TableRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.alias {
            Some(a) => write!(f, "{} AS {a}", self.table),
            None => write!(f, "{}", self.table),
        }
    }
}

impl fmt::Display for Select {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        if self.distinct {
            write!(f, "DISTINCT ")?;
        }
        for (i, item) in self.projections.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", item.expr)?;
            if let Some(alias) = &item.alias {
                write!(f, " AS {alias}")?;
            }
        }
        if let Some(from) = &self.from {
            write!(f, " FROM {from}")?;
        }
        for join in &self.joins {
            match join.kind {
                JoinKind::Inner => write!(f, " JOIN {}", join.table)?,
                JoinKind::Left => write!(f, " LEFT JOIN {}", join.table)?,
                JoinKind::Cross => write!(f, " CROSS JOIN {}", join.table)?,
            }
            if let Some(on) = &join.on {
                write!(f, " ON {on}")?;
            }
        }
        if let Some(w) = &self.where_clause {
            write!(f, " WHERE {w}")?;
        }
        if !self.group_by.is_empty() {
            write!(f, " GROUP BY ")?;
            for (i, g) in self.group_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{g}")?;
            }
        }
        if let Some(h) = &self.having {
            write!(f, " HAVING {h}")?;
        }
        if !self.order_by.is_empty() {
            write!(f, " ORDER BY ")?;
            for (i, o) in self.order_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", o.expr)?;
                if !o.ascending {
                    write!(f, " DESC")?;
                }
            }
        }
        if let Some(limit) = self.limit {
            write!(f, " LIMIT {limit}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {

    use crate::parser::parse_select;

    fn round_trip(sql: &str) {
        let ast = parse_select(sql).unwrap();
        let printed = ast.to_string();
        let reparsed = parse_select(&printed)
            .unwrap_or_else(|e| panic!("printed SQL failed to parse: {printed}: {e}"));
        assert_eq!(ast, reparsed, "round-trip mismatch for: {printed}");
    }

    #[test]
    fn round_trips_simple_select() {
        round_trip("SELECT a, b FROM t WHERE a > 1 AND b < 2");
    }

    #[test]
    fn round_trips_paper_example() {
        round_trip(
            "SELECT u.user_name, SUM(o.order_amount) FROM users AS u \
             JOIN orders AS o ON u.user_id = o.user_id \
             WHERE u.user_id IN (SELECT user_id FROM orders GROUP BY user_id \
             HAVING COUNT(order_id) > {p_1}) AND o.order_amount >= {p_2}",
        );
    }

    #[test]
    fn round_trips_arithmetic_with_parens() {
        round_trip("SELECT (a + b) * c - d / e FROM t");
        round_trip("SELECT a - (b - c) FROM t");
        round_trip("SELECT a / (b * c) FROM t");
    }

    #[test]
    fn round_trips_boolean_nesting() {
        round_trip("SELECT * FROM t WHERE (a = 1 OR b = 2) AND c = 3");
        round_trip("SELECT * FROM t WHERE NOT (a = 1 AND b = 2)");
    }

    #[test]
    fn round_trips_case_and_functions() {
        round_trip(
            "SELECT CASE WHEN x > 0 THEN 1 ELSE 0 END, ABS(y), COUNT(DISTINCT z) \
             FROM t GROUP BY x ORDER BY x DESC LIMIT 5",
        );
    }

    #[test]
    fn round_trips_predicates() {
        round_trip(
            "SELECT * FROM t WHERE a BETWEEN {p_1} AND {p_2} AND b NOT LIKE 'x%' \
             AND c IS NOT NULL AND d IN (1, 2, 3)",
        );
    }

    #[test]
    fn prints_placeholder_syntax() {
        let ast = parse_select("SELECT * FROM t WHERE a > {p_3}").unwrap();
        assert!(ast.to_string().contains("{p_3}"));
    }

    #[test]
    fn negative_literal_prints_and_reparses() {
        round_trip("SELECT -1, -(a + b) FROM t WHERE x > -5");
    }
}
