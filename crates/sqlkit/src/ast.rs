//! Abstract syntax tree for the SQL subset used by SQLBarber.
//!
//! The tree is deliberately small but expressive enough for every template
//! the paper's generators emit: multi-way joins, aggregations, nested
//! subqueries, and complex scalar expressions. Placeholders (`{p_i}`) are
//! first-class expression nodes so a template and a query share one type;
//! a [`Select`] with no remaining [`Expr::Placeholder`] nodes is executable.

use std::fmt;

/// A SQL literal or runtime value.
///
/// `minidb` reuses this type as its cell value, so instantiating a template
/// with catalog-sampled values requires no conversion.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Boolean.
    Bool(bool),
    /// SQL NULL.
    Null,
}

impl Value {
    /// Numeric view of the value, if it has one (`Int`, `Float`, `Bool`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// True if the value is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Total order used by `ORDER BY`, `MIN`/`MAX`, and histogram
    /// construction: NULLs sort first, numbers compare numerically across
    /// `Int`/`Float`, strings lexicographically; mixed kinds compare by a
    /// fixed kind rank so the order is total.
    pub fn total_cmp(&self, other: &Value) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        use Value::*;
        fn rank(v: &Value) -> u8 {
            match v {
                Null => 0,
                Bool(_) => 1,
                Int(_) | Float(_) => 2,
                Str(_) => 3,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (a, b) if rank(a) == 2 && rank(b) == 2 => {
                let (x, y) = (a.as_f64().unwrap(), b.as_f64().unwrap());
                x.partial_cmp(&y).unwrap_or(Ordering::Equal)
            }
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Value::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Value::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            Value::Null => write!(f, "NULL"),
        }
    }
}

/// A possibly-qualified column reference (`alias.column` or `column`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnRef {
    /// Table name or alias qualifier, if written.
    pub table: Option<String>,
    /// Column name.
    pub column: String,
}

impl ColumnRef {
    /// Unqualified column reference.
    pub fn bare(column: impl Into<String>) -> Self {
        ColumnRef { table: None, column: column.into() }
    }

    /// Qualified column reference.
    pub fn qualified(table: impl Into<String>, column: impl Into<String>) -> Self {
        ColumnRef { table: Some(table.into()), column: column.into() }
    }
}

/// Binary operators, covering arithmetic, comparison, and boolean logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
}

impl BinaryOp {
    /// True for `=`, `<>`, `<`, `<=`, `>`, `>=`.
    pub fn is_comparison(self) -> bool {
        use BinaryOp::*;
        matches!(self, Eq | NotEq | Lt | LtEq | Gt | GtEq)
    }

    /// True for `+`, `-`, `*`, `/`, `%`.
    pub fn is_arithmetic(self) -> bool {
        use BinaryOp::*;
        matches!(self, Add | Sub | Mul | Div | Mod)
    }

    /// SQL spelling of the operator.
    pub fn symbol(self) -> &'static str {
        use BinaryOp::*;
        match self {
            Add => "+",
            Sub => "-",
            Mul => "*",
            Div => "/",
            Mod => "%",
            Eq => "=",
            NotEq => "<>",
            Lt => "<",
            LtEq => "<=",
            Gt => ">",
            GtEq => ">=",
            And => "AND",
            Or => "OR",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Arithmetic negation (`-expr`).
    Neg,
    /// Boolean negation (`NOT expr`).
    Not,
}

/// A scalar or boolean expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference.
    Column(ColumnRef),
    /// Literal value.
    Literal(Value),
    /// Template placeholder `{p_i}` (Definition 2.1). A query is a template
    /// with zero remaining placeholders.
    Placeholder(u32),
    /// `*` — only valid inside `COUNT(*)` or as a lone projection.
    Wildcard,
    /// Unary operator application.
    Unary { op: UnaryOp, expr: Box<Expr> },
    /// Binary operator application.
    Binary { left: Box<Expr>, op: BinaryOp, right: Box<Expr> },
    /// `expr [NOT] BETWEEN low AND high`.
    Between { expr: Box<Expr>, negated: bool, low: Box<Expr>, high: Box<Expr> },
    /// `expr [NOT] IN (v1, v2, …)`.
    InList { expr: Box<Expr>, negated: bool, list: Vec<Expr> },
    /// `expr [NOT] IN (SELECT …)` — an uncorrelated subquery.
    InSubquery { expr: Box<Expr>, negated: bool, subquery: Box<Select> },
    /// `(SELECT …)` used as a scalar.
    ScalarSubquery(Box<Select>),
    /// `[NOT] EXISTS (SELECT …)`.
    Exists { negated: bool, subquery: Box<Select> },
    /// `expr [NOT] LIKE 'pattern'`.
    Like { expr: Box<Expr>, negated: bool, pattern: Box<Expr> },
    /// `expr IS [NOT] NULL`.
    IsNull { expr: Box<Expr>, negated: bool },
    /// Function call — aggregates (`COUNT`, `SUM`, `AVG`, `MIN`, `MAX`) and
    /// scalar functions (`ABS`, `ROUND`, `LENGTH`, `UPPER`, `LOWER`,
    /// `COALESCE`, `SUBSTR`, …).
    Function { name: String, distinct: bool, args: Vec<Expr> },
    /// `CASE [operand] WHEN … THEN … [ELSE …] END`.
    Case {
        operand: Option<Box<Expr>>,
        branches: Vec<(Expr, Expr)>,
        else_branch: Option<Box<Expr>>,
    },
}

/// Names treated as aggregate functions.
pub const AGGREGATE_FUNCTIONS: [&str; 5] = ["COUNT", "SUM", "AVG", "MIN", "MAX"];

impl Expr {
    /// Column reference shorthand.
    pub fn col(table: impl Into<String>, column: impl Into<String>) -> Expr {
        Expr::Column(ColumnRef::qualified(table, column))
    }

    /// Literal shorthand.
    pub fn lit(value: Value) -> Expr {
        Expr::Literal(value)
    }

    /// Binary expression shorthand.
    pub fn binary(left: Expr, op: BinaryOp, right: Expr) -> Expr {
        Expr::Binary { left: Box::new(left), op, right: Box::new(right) }
    }

    /// `left AND right`, flattening a `None` left side.
    pub fn and_opt(acc: Option<Expr>, next: Expr) -> Expr {
        match acc {
            None => next,
            Some(prev) => Expr::binary(prev, BinaryOp::And, next),
        }
    }

    /// The conjuncts of a nested `AND`, left to right (an expression that
    /// is not an `AND` is its own single conjunct).
    pub fn conjuncts(&self) -> Vec<Expr> {
        match self {
            Expr::Binary { left, op: BinaryOp::And, right } => {
                let mut parts = left.conjuncts();
                parts.extend(right.conjuncts());
                parts
            }
            other => vec![other.clone()],
        }
    }

    /// Left-deep `AND` of `parts`; `None` when there are none. Inverse of
    /// [`Expr::conjuncts`].
    pub fn conjoin(parts: Vec<Expr>) -> Option<Expr> {
        parts.into_iter().fold(None, |acc, part| Some(Expr::and_opt(acc, part)))
    }

    /// True if this node is an aggregate function call.
    pub fn is_aggregate(&self) -> bool {
        matches!(self, Expr::Function { name, .. }
            if AGGREGATE_FUNCTIONS.contains(&name.to_ascii_uppercase().as_str()))
    }

    /// Depth-first pre-order walk over this expression, including subquery
    /// expressions but *not* descending into subquery `Select` bodies.
    pub fn walk<'a>(&'a self, visit: &mut dyn FnMut(&'a Expr)) {
        visit(self);
        match self {
            Expr::Column(_) | Expr::Literal(_) | Expr::Placeholder(_) | Expr::Wildcard => {}
            Expr::Unary { expr, .. } => expr.walk(visit),
            Expr::Binary { left, right, .. } => {
                left.walk(visit);
                right.walk(visit);
            }
            Expr::Between { expr, low, high, .. } => {
                expr.walk(visit);
                low.walk(visit);
                high.walk(visit);
            }
            Expr::InList { expr, list, .. } => {
                expr.walk(visit);
                for item in list {
                    item.walk(visit);
                }
            }
            Expr::InSubquery { expr, .. } => expr.walk(visit),
            Expr::ScalarSubquery(_) | Expr::Exists { .. } => {}
            Expr::Like { expr, pattern, .. } => {
                expr.walk(visit);
                pattern.walk(visit);
            }
            Expr::IsNull { expr, .. } => expr.walk(visit),
            Expr::Function { args, .. } => {
                for arg in args {
                    arg.walk(visit);
                }
            }
            Expr::Case { operand, branches, else_branch } => {
                if let Some(op) = operand {
                    op.walk(visit);
                }
                for (when, then) in branches {
                    when.walk(visit);
                    then.walk(visit);
                }
                if let Some(e) = else_branch {
                    e.walk(visit);
                }
            }
        }
    }

    /// Subquery bodies directly contained in this expression subtree.
    pub fn subqueries(&self) -> Vec<&Select> {
        let mut found = Vec::new();
        let mut stack = vec![self];
        while let Some(expr) = stack.pop() {
            match expr {
                Expr::InSubquery { expr, subquery, .. } => {
                    found.push(subquery.as_ref());
                    stack.push(expr);
                }
                Expr::ScalarSubquery(sq) => found.push(sq.as_ref()),
                Expr::Exists { subquery, .. } => found.push(subquery.as_ref()),
                Expr::Unary { expr, .. } => stack.push(expr),
                Expr::Binary { left, right, .. } => {
                    stack.push(left);
                    stack.push(right);
                }
                Expr::Between { expr, low, high, .. } => {
                    stack.push(expr);
                    stack.push(low);
                    stack.push(high);
                }
                Expr::InList { expr, list, .. } => {
                    stack.push(expr);
                    stack.extend(list.iter());
                }
                Expr::Like { expr, pattern, .. } => {
                    stack.push(expr);
                    stack.push(pattern);
                }
                Expr::IsNull { expr, .. } => stack.push(expr),
                Expr::Function { args, .. } => stack.extend(args.iter()),
                Expr::Case { operand, branches, else_branch } => {
                    if let Some(op) = operand {
                        stack.push(op);
                    }
                    for (w, t) in branches {
                        stack.push(w);
                        stack.push(t);
                    }
                    if let Some(e) = else_branch {
                        stack.push(e);
                    }
                }
                _ => {}
            }
        }
        found
    }

    /// True if a placeholder remains anywhere in this expression,
    /// *including* inside subquery bodies (which [`Expr::walk`] skips).
    pub fn has_placeholders(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if matches!(e, Expr::Placeholder(_)) {
                found = true;
            }
        });
        found || self.subqueries().iter().any(|sq| sq.has_placeholders())
    }

    /// Clone of this expression with every bound placeholder replaced by
    /// its literal value; descends into subquery bodies. `value_of` is a
    /// row view (see [`crate::Template::instantiate`]); placeholders it
    /// leaves unbound stay in place.
    pub fn substitute<'v>(&self, value_of: impl Fn(u32) -> Option<&'v Value>) -> Expr {
        let mut out = self.clone();
        out.walk_mut(&mut |e| {
            if let Expr::Placeholder(id) = e {
                if let Some(value) = value_of(*id) {
                    *e = Expr::Literal(value.clone());
                }
            }
        });
        out
    }

    /// Mutable walk used by template instantiation; visits every node in
    /// this expression including nodes inside subquery bodies.
    pub fn walk_mut(&mut self, visit: &mut dyn FnMut(&mut Expr)) {
        visit(self);
        match self {
            Expr::Column(_) | Expr::Literal(_) | Expr::Placeholder(_) | Expr::Wildcard => {}
            Expr::Unary { expr, .. } => expr.walk_mut(visit),
            Expr::Binary { left, right, .. } => {
                left.walk_mut(visit);
                right.walk_mut(visit);
            }
            Expr::Between { expr, low, high, .. } => {
                expr.walk_mut(visit);
                low.walk_mut(visit);
                high.walk_mut(visit);
            }
            Expr::InList { expr, list, .. } => {
                expr.walk_mut(visit);
                for item in list {
                    item.walk_mut(visit);
                }
            }
            Expr::InSubquery { expr, subquery, .. } => {
                expr.walk_mut(visit);
                subquery.walk_exprs_mut(visit);
            }
            Expr::ScalarSubquery(sq) => sq.walk_exprs_mut(visit),
            Expr::Exists { subquery, .. } => subquery.walk_exprs_mut(visit),
            Expr::Like { expr, pattern, .. } => {
                expr.walk_mut(visit);
                pattern.walk_mut(visit);
            }
            Expr::IsNull { expr, .. } => expr.walk_mut(visit),
            Expr::Function { args, .. } => {
                for arg in args {
                    arg.walk_mut(visit);
                }
            }
            Expr::Case { operand, branches, else_branch } => {
                if let Some(op) = operand {
                    op.walk_mut(visit);
                }
                for (when, then) in branches {
                    when.walk_mut(visit);
                    then.walk_mut(visit);
                }
                if let Some(e) = else_branch {
                    e.walk_mut(visit);
                }
            }
        }
    }
}

/// One item in the `SELECT` list.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    /// The projected expression (`Expr::Wildcard` for `SELECT *`).
    pub expr: Expr,
    /// Optional `AS alias`.
    pub alias: Option<String>,
}

/// A base table reference in `FROM`, with optional alias.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TableRef {
    /// Table name as written.
    pub table: String,
    /// Optional `AS alias`.
    pub alias: Option<String>,
}

impl TableRef {
    /// New reference without alias.
    pub fn new(table: impl Into<String>) -> Self {
        TableRef { table: table.into(), alias: None }
    }

    /// New reference with alias.
    pub fn aliased(table: impl Into<String>, alias: impl Into<String>) -> Self {
        TableRef { table: table.into(), alias: Some(alias.into()) }
    }

    /// The name other clauses use to refer to this table (alias if present).
    pub fn binding(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.table)
    }
}

/// Join flavor. The generators only emit inner joins; cross joins appear
/// when comma-separated `FROM` lists are desugared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinKind {
    Inner,
    Left,
    Cross,
}

/// One `JOIN table ON condition` step.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    pub kind: JoinKind,
    pub table: TableRef,
    /// Join condition; `None` only for `Cross`.
    pub on: Option<Expr>,
}

/// One `ORDER BY` key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderByItem {
    pub expr: Expr,
    pub ascending: bool,
}

/// A `SELECT` statement (Definition 2.3 when placeholder-free, part of a
/// Definition 2.1 template otherwise).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Select {
    pub distinct: bool,
    pub projections: Vec<SelectItem>,
    /// First table in `FROM`; `None` only for table-less selects, which the
    /// parser rejects — kept optional so `Default` exists for builders.
    pub from: Option<TableRef>,
    pub joins: Vec<Join>,
    pub where_clause: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
    pub order_by: Vec<OrderByItem>,
    pub limit: Option<u64>,
}

impl Select {
    /// All base table references, including join targets, in `FROM` order.
    /// Does not descend into subqueries.
    pub fn table_refs(&self) -> Vec<&TableRef> {
        let mut refs = Vec::with_capacity(1 + self.joins.len());
        if let Some(t) = &self.from {
            refs.push(t);
        }
        refs.extend(self.joins.iter().map(|j| &j.table));
        refs
    }

    /// Visit every expression in the statement, top level before
    /// subqueries: projections, join conditions, `WHERE`, `GROUP BY`,
    /// `HAVING`, and `ORDER BY`.
    pub fn walk_exprs<'a>(&'a self, visit: &mut dyn FnMut(&'a Expr)) {
        for item in &self.projections {
            item.expr.walk(visit);
        }
        for join in &self.joins {
            if let Some(on) = &join.on {
                on.walk(visit);
            }
        }
        if let Some(w) = &self.where_clause {
            w.walk(visit);
        }
        for g in &self.group_by {
            g.walk(visit);
        }
        if let Some(h) = &self.having {
            h.walk(visit);
        }
        for o in &self.order_by {
            o.expr.walk(visit);
        }
    }

    /// Mutable variant of [`Select::walk_exprs`]; *does* descend into
    /// subquery bodies (required so instantiation reaches placeholders in
    /// nested selects).
    pub fn walk_exprs_mut(&mut self, visit: &mut dyn FnMut(&mut Expr)) {
        for item in &mut self.projections {
            item.expr.walk_mut(visit);
        }
        for join in &mut self.joins {
            if let Some(on) = &mut join.on {
                on.walk_mut(visit);
            }
        }
        if let Some(w) = &mut self.where_clause {
            w.walk_mut(visit);
        }
        for g in &mut self.group_by {
            g.walk_mut(visit);
        }
        if let Some(h) = &mut self.having {
            h.walk_mut(visit);
        }
        for o in &mut self.order_by {
            o.expr.walk_mut(visit);
        }
    }

    /// True if a placeholder remains anywhere in the statement, including
    /// inside nested subquery bodies.
    pub fn has_placeholders(&self) -> bool {
        let mut found = false;
        self.walk_exprs(&mut |e| {
            if matches!(e, Expr::Placeholder(_)) {
                found = true;
            }
        });
        found || self.subqueries().iter().any(|sq| sq.has_placeholders())
    }

    /// Immediate subquery bodies anywhere in the statement (one level).
    /// `walk_exprs` does not descend into subquery bodies, so each body is
    /// reported exactly once.
    pub fn subqueries(&self) -> Vec<&Select> {
        let mut found = Vec::new();
        self.walk_exprs(&mut |e| {
            if let Expr::InSubquery { subquery, .. } = e {
                found.push(subquery.as_ref());
            }
            if let Expr::ScalarSubquery(sq) = e {
                found.push(sq.as_ref());
            }
            if let Expr::Exists { subquery, .. } = e {
                found.push(subquery.as_ref());
            }
        });
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_total_order_is_total_and_numeric_across_kinds() {
        use std::cmp::Ordering::*;
        assert_eq!(Value::Int(3).total_cmp(&Value::Float(3.0)), Equal);
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.5)), Less);
        assert_eq!(Value::Null.total_cmp(&Value::Int(0)), Less);
        assert_eq!(Value::Str("a".into()).total_cmp(&Value::Int(9)), Greater);
        assert_eq!(Value::Bool(false).total_cmp(&Value::Bool(true)), Less);
    }

    #[test]
    fn value_display_quotes_and_escapes_strings() {
        assert_eq!(Value::Str("it's".into()).to_string(), "'it''s'");
        assert_eq!(Value::Int(-5).to_string(), "-5");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::Null.to_string(), "NULL");
    }

    #[test]
    fn aggregate_detection_is_case_insensitive() {
        let agg = Expr::Function { name: "sum".into(), distinct: false, args: vec![] };
        let not_agg = Expr::Function { name: "abs".into(), distinct: false, args: vec![] };
        assert!(agg.is_aggregate());
        assert!(!not_agg.is_aggregate());
    }

    #[test]
    fn walk_visits_nested_binary_nodes() {
        let e = Expr::binary(
            Expr::col("t", "a"),
            BinaryOp::Gt,
            Expr::binary(Expr::Placeholder(1), BinaryOp::Add, Expr::lit(Value::Int(1))),
        );
        let mut count = 0;
        e.walk(&mut |_| count += 1);
        assert_eq!(count, 5);
    }

    #[test]
    fn subqueries_are_collected_from_where_clause() {
        let inner = Select {
            projections: vec![SelectItem { expr: Expr::col("o", "id"), alias: None }],
            from: Some(TableRef::aliased("orders", "o")),
            ..Default::default()
        };
        let outer = Select {
            projections: vec![SelectItem { expr: Expr::Wildcard, alias: None }],
            from: Some(TableRef::new("users")),
            where_clause: Some(Expr::InSubquery {
                expr: Box::new(Expr::col("users", "id")),
                negated: false,
                subquery: Box::new(inner),
            }),
            ..Default::default()
        };
        assert_eq!(outer.subqueries().len(), 1);
    }

    #[test]
    fn table_refs_include_join_targets_in_order() {
        let s = Select {
            from: Some(TableRef::new("a")),
            joins: vec![
                Join { kind: JoinKind::Inner, table: TableRef::new("b"), on: None },
                Join { kind: JoinKind::Inner, table: TableRef::new("c"), on: None },
            ],
            ..Default::default()
        };
        let names: Vec<_> = s.table_refs().iter().map(|t| t.table.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn binding_prefers_alias() {
        assert_eq!(TableRef::aliased("orders", "o").binding(), "o");
        assert_eq!(TableRef::new("orders").binding(), "orders");
    }

    #[test]
    fn walk_mut_reaches_placeholders_inside_subqueries() {
        let inner = Select {
            projections: vec![SelectItem { expr: Expr::col("o", "id"), alias: None }],
            from: Some(TableRef::new("orders")),
            where_clause: Some(Expr::binary(
                Expr::col("orders", "amount"),
                BinaryOp::Gt,
                Expr::Placeholder(7),
            )),
            ..Default::default()
        };
        let mut outer = Select {
            projections: vec![SelectItem { expr: Expr::Wildcard, alias: None }],
            from: Some(TableRef::new("users")),
            where_clause: Some(Expr::Exists { negated: false, subquery: Box::new(inner) }),
            ..Default::default()
        };
        let mut seen = Vec::new();
        outer.walk_exprs_mut(&mut |e| {
            if let Expr::Placeholder(id) = e {
                seen.push(*id);
            }
        });
        assert_eq!(seen, vec![7]);
    }
}
