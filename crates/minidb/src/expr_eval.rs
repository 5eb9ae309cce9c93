//! Runtime expression evaluation.
//!
//! Evaluates a [`sqlkit::Expr`] against a materialized row, with SQL
//! three-valued NULL semantics, a scalar function library, LIKE pattern
//! matching, and pluggable environments for aggregates and pre-computed
//! (uncorrelated) subquery results.

use crate::error::DbError;
use sqlkit::{BinaryOp, ColumnRef, Expr, Select, UnaryOp, Value};
use std::collections::HashMap;

/// Output schema of an operator: ordered `(binding, column)` fields.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RowSchema {
    pub fields: Vec<(String, String)>,
}

impl RowSchema {
    /// Concatenate two schemas (join output).
    pub fn concat(&self, other: &RowSchema) -> RowSchema {
        let mut fields = self.fields.clone();
        fields.extend(other.fields.iter().cloned());
        RowSchema { fields }
    }

    /// Resolve a column reference to a field index.
    ///
    /// Qualified refs match binding + column; bare refs match column name
    /// alone and must be unambiguous.
    pub fn resolve(&self, column: &ColumnRef) -> Result<usize, DbError> {
        match &column.table {
            Some(binding) => self
                .fields
                .iter()
                .position(|(b, c)| b == binding && c == &column.column)
                .ok_or_else(|| DbError::UnknownColumn(format!("{binding}.{}", column.column))),
            None => {
                let mut matches =
                    self.fields.iter().enumerate().filter(|(_, (_, c))| c == &column.column);
                match (matches.next(), matches.next()) {
                    (Some((idx, _)), None) => Ok(idx),
                    (Some(_), Some(_)) => Err(DbError::AmbiguousColumn(column.column.clone())),
                    (None, _) => Err(DbError::UnknownColumn(column.column.clone())),
                }
            }
        }
    }
}

/// Pre-computed results for uncorrelated subqueries, keyed by the
/// subquery's printed SQL (stable because printing is deterministic).
#[derive(Debug, Clone, Default)]
pub struct SubqueryResults {
    /// `IN (SELECT …)` → set of matching values + whether
    /// the result contained NULLs (for strict 3VL this would matter; we
    /// treat NULL ∈ set as no-match, like most engines do for `IN` with
    /// non-null probe values and a non-matching set without NULLs).
    pub in_sets: HashMap<String, Vec<Value>>,
    /// Scalar subquery → single value (NULL when empty).
    pub scalars: HashMap<String, Value>,
    /// `EXISTS (SELECT …)` → boolean.
    pub exists: HashMap<String, bool>,
}

/// Key of a subquery inside the result cache.
pub fn subquery_key(select: &Select) -> String {
    select.to_string()
}

/// Evaluation environment: row data + schemata + optional aggregate
/// bindings + subquery results.
pub struct EvalContext<'a> {
    pub schema: &'a RowSchema,
    pub row: &'a [Value],
    /// Aggregate expression text → computed value (populated during the
    /// output phase of grouped queries; empty elsewhere).
    pub aggregates: Option<&'a HashMap<String, Value>>,
    pub subqueries: &'a SubqueryResults,
}

impl EvalContext<'_> {
    /// Evaluate an expression to a value.
    pub fn eval(&self, expr: &Expr) -> Result<Value, DbError> {
        match expr {
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Placeholder(id) => Err(DbError::UnboundPlaceholder(*id)),
            Expr::Wildcard => {
                Err(DbError::Unsupported("\"*\" outside COUNT(*) or a lone projection".into()))
            }
            Expr::Column(c) => Ok(self.row[self.schema.resolve(c)?].clone()),
            Expr::Unary { op: UnaryOp::Neg, expr } => match self.eval(expr)? {
                Value::Int(v) => Ok(Value::Int(-v)),
                Value::Float(v) => Ok(Value::Float(-v)),
                Value::Null => Ok(Value::Null),
                other => Err(DbError::TypeMismatch(format!("- {other:?}"))),
            },
            Expr::Unary { op: UnaryOp::Not, expr } => match self.eval(expr)? {
                Value::Bool(b) => Ok(Value::Bool(!b)),
                Value::Null => Ok(Value::Null),
                other => Err(DbError::TypeMismatch(format!("NOT {other:?}"))),
            },
            Expr::Binary { left, op, right } => self.eval_binary(left, *op, right),
            Expr::Between { expr, negated, low, high } => {
                let v = self.eval(expr)?;
                let lo = self.eval(low)?;
                let hi = self.eval(high)?;
                if v.is_null() || lo.is_null() || hi.is_null() {
                    return Ok(Value::Null);
                }
                let inside = v.total_cmp(&lo) != std::cmp::Ordering::Less
                    && v.total_cmp(&hi) != std::cmp::Ordering::Greater;
                Ok(Value::Bool(inside != *negated))
            }
            Expr::InList { expr, negated, list } => {
                let v = self.eval(expr)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                for item in list {
                    let candidate = self.eval(item)?;
                    if candidate.is_null() {
                        saw_null = true;
                        continue;
                    }
                    if v.total_cmp(&candidate) == std::cmp::Ordering::Equal {
                        return Ok(Value::Bool(!*negated));
                    }
                }
                if saw_null {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Bool(*negated))
                }
            }
            Expr::InSubquery { expr, negated, subquery } => {
                let v = self.eval(expr)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let key = subquery_key(subquery);
                let set = self.subqueries.in_sets.get(&key).ok_or_else(|| {
                    DbError::Unsupported("subquery result missing from cache".into())
                })?;
                let found = set.iter().any(|c| v.total_cmp(c) == std::cmp::Ordering::Equal);
                Ok(Value::Bool(found != *negated))
            }
            Expr::ScalarSubquery(subquery) => {
                let key = subquery_key(subquery);
                self.subqueries.scalars.get(&key).cloned().ok_or_else(|| {
                    DbError::Unsupported("subquery result missing from cache".into())
                })
            }
            Expr::Exists { negated, subquery } => {
                let key = subquery_key(subquery);
                let exists = *self.subqueries.exists.get(&key).ok_or_else(|| {
                    DbError::Unsupported("subquery result missing from cache".into())
                })?;
                Ok(Value::Bool(exists != *negated))
            }
            Expr::Like { expr, negated, pattern } => {
                let v = self.eval(expr)?;
                let p = self.eval(pattern)?;
                match (v, p) {
                    (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                    (Value::Str(s), Value::Str(pat)) => {
                        Ok(Value::Bool(like_match(&s, &pat) != *negated))
                    }
                    (a, b) => Err(DbError::TypeMismatch(format!("{a:?} LIKE {b:?}"))),
                }
            }
            Expr::IsNull { expr, negated } => {
                let v = self.eval(expr)?;
                Ok(Value::Bool(v.is_null() != *negated))
            }
            Expr::Function { .. } if expr.is_aggregate() => {
                let key = expr.to_string();
                match self.aggregates.and_then(|env| env.get(&key)) {
                    Some(v) => Ok(v.clone()),
                    None => Err(DbError::Grouping(format!("\"{key}\""))),
                }
            }
            Expr::Function { name, args, .. } => self.eval_scalar_function(name, args),
            Expr::Case { operand, branches, else_branch } => {
                let operand_value = operand.as_ref().map(|o| self.eval(o)).transpose()?;
                for (when, then) in branches {
                    let matched = match &operand_value {
                        Some(op_value) => {
                            let w = self.eval(when)?;
                            !op_value.is_null()
                                && !w.is_null()
                                && op_value.total_cmp(&w) == std::cmp::Ordering::Equal
                        }
                        None => matches!(self.eval(when)?, Value::Bool(true)),
                    };
                    if matched {
                        return self.eval(then);
                    }
                }
                match else_branch {
                    Some(e) => self.eval(e),
                    None => Ok(Value::Null),
                }
            }
        }
    }

    /// Evaluate an expression as a filter condition: TRUE passes, FALSE
    /// and NULL reject.
    pub fn eval_filter(&self, expr: &Expr) -> Result<bool, DbError> {
        Ok(matches!(self.eval(expr)?, Value::Bool(true)))
    }

    fn eval_binary(&self, left: &Expr, op: BinaryOp, right: &Expr) -> Result<Value, DbError> {
        use BinaryOp::*;
        // AND/OR get SQL 3VL with short-circuiting.
        if op == And {
            return match self.eval(left)? {
                Value::Bool(false) => Ok(Value::Bool(false)),
                Value::Bool(true) => self.eval_bool_operand(right),
                Value::Null => match self.eval_bool_operand(right)? {
                    Value::Bool(false) => Ok(Value::Bool(false)),
                    _ => Ok(Value::Null),
                },
                other => Err(DbError::TypeMismatch(format!("{other:?} AND …"))),
            };
        }
        if op == Or {
            return match self.eval(left)? {
                Value::Bool(true) => Ok(Value::Bool(true)),
                Value::Bool(false) => self.eval_bool_operand(right),
                Value::Null => match self.eval_bool_operand(right)? {
                    Value::Bool(true) => Ok(Value::Bool(true)),
                    _ => Ok(Value::Null),
                },
                other => Err(DbError::TypeMismatch(format!("{other:?} OR …"))),
            };
        }

        let l = self.eval(left)?;
        let r = self.eval(right)?;
        if l.is_null() || r.is_null() {
            return Ok(Value::Null);
        }
        if op.is_comparison() {
            let ordering = match (&l, &r) {
                (Value::Str(_), Value::Str(_))
                | (Value::Bool(_), Value::Bool(_))
                | (Value::Int(_) | Value::Float(_), Value::Int(_) | Value::Float(_)) => {
                    l.total_cmp(&r)
                }
                _ => {
                    return Err(DbError::TypeMismatch(format!(
                        "{} {} {}",
                        kind_name(&l),
                        op.symbol(),
                        kind_name(&r)
                    )))
                }
            };
            use std::cmp::Ordering::*;
            let result = match op {
                Eq => ordering == Equal,
                NotEq => ordering != Equal,
                Lt => ordering == Less,
                LtEq => ordering != Greater,
                Gt => ordering == Greater,
                GtEq => ordering != Less,
                _ => unreachable!(),
            };
            return Ok(Value::Bool(result));
        }
        // Arithmetic.
        match (&l, &r) {
            (Value::Int(a), Value::Int(b)) => {
                let result = match op {
                    Add => a.checked_add(*b),
                    Sub => a.checked_sub(*b),
                    Mul => a.checked_mul(*b),
                    Div => {
                        if *b == 0 {
                            return Err(DbError::Arithmetic("division by zero".into()));
                        }
                        a.checked_div(*b)
                    }
                    Mod => {
                        if *b == 0 {
                            return Err(DbError::Arithmetic("division by zero".into()));
                        }
                        a.checked_rem(*b)
                    }
                    _ => unreachable!(),
                };
                match result {
                    Some(v) => Ok(Value::Int(v)),
                    None => Ok(Value::Float(apply_float(*a as f64, op, *b as f64)?)),
                }
            }
            (Value::Int(_) | Value::Float(_), Value::Int(_) | Value::Float(_)) => {
                let a = l.as_f64().unwrap();
                let b = r.as_f64().unwrap();
                Ok(Value::Float(apply_float(a, op, b)?))
            }
            _ => Err(DbError::TypeMismatch(format!(
                "{} {} {}",
                kind_name(&l),
                op.symbol(),
                kind_name(&r)
            ))),
        }
    }

    fn eval_bool_operand(&self, expr: &Expr) -> Result<Value, DbError> {
        match self.eval(expr)? {
            v @ (Value::Bool(_) | Value::Null) => Ok(v),
            other => Err(DbError::TypeMismatch(format!("boolean operand, got {other:?}"))),
        }
    }

    fn eval_scalar_function(&self, name: &str, args: &[Expr]) -> Result<Value, DbError> {
        let arity_error = |expected: &str| {
            DbError::TypeMismatch(format!("function {name} expects {expected} argument(s)"))
        };
        match name {
            "ABS" => {
                let [arg] = args else { return Err(arity_error("1")) };
                match self.eval(arg)? {
                    Value::Int(v) => Ok(Value::Int(v.abs())),
                    Value::Float(v) => Ok(Value::Float(v.abs())),
                    Value::Null => Ok(Value::Null),
                    other => Err(DbError::TypeMismatch(format!("ABS({other:?})"))),
                }
            }
            "ROUND" => {
                let (value, digits) = match args {
                    [v] => (self.eval(v)?, 0),
                    [v, d] => {
                        let d = match self.eval(d)? {
                            Value::Int(n) => n,
                            other => {
                                return Err(DbError::TypeMismatch(format!("ROUND(…, {other:?})")))
                            }
                        };
                        (self.eval(v)?, d)
                    }
                    _ => return Err(arity_error("1 or 2")),
                };
                match value {
                    Value::Int(v) => Ok(Value::Int(v)),
                    Value::Float(v) => {
                        let factor = 10f64.powi(digits as i32);
                        Ok(Value::Float((v * factor).round() / factor))
                    }
                    Value::Null => Ok(Value::Null),
                    other => Err(DbError::TypeMismatch(format!("ROUND({other:?})"))),
                }
            }
            "FLOOR" | "CEIL" => {
                let [arg] = args else { return Err(arity_error("1")) };
                match self.eval(arg)? {
                    Value::Int(v) => Ok(Value::Int(v)),
                    Value::Float(v) => {
                        Ok(Value::Float(if name == "FLOOR" { v.floor() } else { v.ceil() }))
                    }
                    Value::Null => Ok(Value::Null),
                    other => Err(DbError::TypeMismatch(format!("{name}({other:?})"))),
                }
            }
            "LENGTH" => {
                let [arg] = args else { return Err(arity_error("1")) };
                match self.eval(arg)? {
                    Value::Str(s) => Ok(Value::Int(s.chars().count() as i64)),
                    Value::Null => Ok(Value::Null),
                    other => Err(DbError::TypeMismatch(format!("LENGTH({other:?})"))),
                }
            }
            "UPPER" | "LOWER" => {
                let [arg] = args else { return Err(arity_error("1")) };
                match self.eval(arg)? {
                    Value::Str(s) => Ok(Value::Str(if name == "UPPER" {
                        s.to_uppercase()
                    } else {
                        s.to_lowercase()
                    })),
                    Value::Null => Ok(Value::Null),
                    other => Err(DbError::TypeMismatch(format!("{name}({other:?})"))),
                }
            }
            "SUBSTR" | "SUBSTRING" => {
                let (s, start, len) = match args {
                    [s, start] => (self.eval(s)?, self.eval(start)?, None),
                    [s, start, len] => (self.eval(s)?, self.eval(start)?, Some(self.eval(len)?)),
                    _ => return Err(arity_error("2 or 3")),
                };
                match (s, start) {
                    (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                    (Value::Str(s), Value::Int(start)) => {
                        let begin = (start.max(1) - 1) as usize;
                        let chars: Vec<char> = s.chars().collect();
                        let end = match len {
                            Some(Value::Int(n)) if n >= 0 => (begin + n as usize).min(chars.len()),
                            Some(Value::Null) => return Ok(Value::Null),
                            None => chars.len(),
                            Some(other) => {
                                return Err(DbError::TypeMismatch(format!(
                                    "SUBSTR(…, …, {other:?})"
                                )))
                            }
                        };
                        if begin >= chars.len() {
                            Ok(Value::Str(String::new()))
                        } else {
                            Ok(Value::Str(chars[begin..end].iter().collect()))
                        }
                    }
                    (a, b) => Err(DbError::TypeMismatch(format!("SUBSTR({a:?}, {b:?})"))),
                }
            }
            "COALESCE" => {
                if args.is_empty() {
                    return Err(arity_error("1+"));
                }
                for arg in args {
                    let v = self.eval(arg)?;
                    if !v.is_null() {
                        return Ok(v);
                    }
                }
                Ok(Value::Null)
            }
            "MOD" => {
                let [a, b] = args else { return Err(arity_error("2")) };
                self.eval_binary(a, BinaryOp::Mod, b)
            }
            other => Err(DbError::Unsupported(format!("function {other}"))),
        }
    }
}

fn apply_float(a: f64, op: BinaryOp, b: f64) -> Result<f64, DbError> {
    use BinaryOp::*;
    match op {
        Add => Ok(a + b),
        Sub => Ok(a - b),
        Mul => Ok(a * b),
        Div => {
            if b == 0.0 {
                Err(DbError::Arithmetic("division by zero".into()))
            } else {
                Ok(a / b)
            }
        }
        Mod => {
            if b == 0.0 {
                Err(DbError::Arithmetic("division by zero".into()))
            } else {
                Ok(a % b)
            }
        }
        _ => unreachable!("non-arithmetic op in apply_float"),
    }
}

fn kind_name(v: &Value) -> &'static str {
    match v {
        Value::Int(_) => "bigint",
        Value::Float(_) => "double precision",
        Value::Str(_) => "text",
        Value::Bool(_) => "boolean",
        Value::Null => "unknown",
    }
}

/// SQL `LIKE` matcher: `%` matches any run, `_` matches one character.
pub fn like_match(s: &str, pattern: &str) -> bool {
    fn inner(s: &[char], p: &[char]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some('%') => {
                // Collapse consecutive %.
                let rest = &p[1..];
                (0..=s.len()).any(|skip| inner(&s[skip..], rest))
            }
            Some('_') => !s.is_empty() && inner(&s[1..], &p[1..]),
            Some(c) => s.first() == Some(c) && inner(&s[1..], &p[1..]),
        }
    }
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    inner(&s, &p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlkit::parse_select;

    fn ctx<'a>(
        schema: &'a RowSchema,
        row: &'a [Value],
        subqueries: &'a SubqueryResults,
    ) -> EvalContext<'a> {
        EvalContext { schema, row, aggregates: None, subqueries }
    }

    fn eval_where(sql_where: &str, schema: &RowSchema, row: &[Value]) -> Result<Value, DbError> {
        let select = parse_select(&format!("SELECT * FROM t WHERE {sql_where}")).unwrap();
        let subqueries = SubqueryResults::default();
        ctx(schema, row, &subqueries).eval(select.where_clause.as_ref().unwrap())
    }

    fn schema_xy() -> RowSchema {
        RowSchema { fields: vec![("t".into(), "x".into()), ("t".into(), "y".into())] }
    }

    #[test]
    fn arithmetic_and_comparisons() {
        let schema = schema_xy();
        let row = [Value::Int(6), Value::Float(2.5)];
        assert_eq!(eval_where("x + 1 = 7", &schema, &row).unwrap(), Value::Bool(true));
        assert_eq!(eval_where("x * y > 14", &schema, &row).unwrap(), Value::Bool(true));
        assert_eq!(eval_where("x / 4 = 1", &schema, &row).unwrap(), Value::Bool(true));
        assert_eq!(eval_where("x % 4 = 2", &schema, &row).unwrap(), Value::Bool(true));
    }

    #[test]
    fn null_propagation_and_three_valued_logic() {
        let schema = schema_xy();
        let row = [Value::Null, Value::Float(1.0)];
        assert_eq!(eval_where("x > 1", &schema, &row).unwrap(), Value::Null);
        assert_eq!(eval_where("x > 1 AND y > 0", &schema, &row).unwrap(), Value::Null);
        assert_eq!(eval_where("x > 1 AND y < 0", &schema, &row).unwrap(), Value::Bool(false));
        assert_eq!(eval_where("x > 1 OR y > 0", &schema, &row).unwrap(), Value::Bool(true));
        assert_eq!(eval_where("x IS NULL", &schema, &row).unwrap(), Value::Bool(true));
        assert_eq!(eval_where("y IS NOT NULL", &schema, &row).unwrap(), Value::Bool(true));
    }

    #[test]
    fn division_by_zero_is_a_runtime_error() {
        let schema = schema_xy();
        let row = [Value::Int(1), Value::Float(0.0)];
        assert!(matches!(eval_where("x / 0 = 1", &schema, &row), Err(DbError::Arithmetic(_))));
        assert!(matches!(eval_where("y / 0.0 > 1", &schema, &row), Err(DbError::Arithmetic(_))));
    }

    #[test]
    fn type_mismatch_is_an_error() {
        let schema = RowSchema { fields: vec![("t".into(), "s".into())] };
        let row = [Value::Str("abc".into())];
        assert!(matches!(eval_where("s > 5", &schema, &row), Err(DbError::TypeMismatch(_))));
    }

    #[test]
    fn between_and_in_list() {
        let schema = schema_xy();
        let row = [Value::Int(5), Value::Float(1.0)];
        assert_eq!(eval_where("x BETWEEN 1 AND 5", &schema, &row).unwrap(), Value::Bool(true));
        assert_eq!(eval_where("x NOT BETWEEN 1 AND 4", &schema, &row).unwrap(), Value::Bool(true));
        assert_eq!(eval_where("x IN (1, 5, 9)", &schema, &row).unwrap(), Value::Bool(true));
        assert_eq!(eval_where("x NOT IN (1, 2)", &schema, &row).unwrap(), Value::Bool(true));
        // NULL in list makes non-matching IN unknown
        assert_eq!(eval_where("x IN (1, NULL)", &schema, &row).unwrap(), Value::Null);
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("hello", "h%"));
        assert!(like_match("hello", "%llo"));
        assert!(like_match("hello", "h_llo"));
        assert!(!like_match("hello", "h_lo"));
        assert!(like_match("", "%"));
        assert!(like_match("abc", "%b%"));
        assert!(!like_match("abc", "c%"));
    }

    #[test]
    fn scalar_functions() {
        let schema = schema_xy();
        let row = [Value::Int(-4), Value::Float(3.456)];
        assert_eq!(eval_where("ABS(x) = 4", &schema, &row).unwrap(), Value::Bool(true));
        assert_eq!(eval_where("ROUND(y, 1) = 3.5", &schema, &row).unwrap(), Value::Bool(true));
        assert_eq!(eval_where("FLOOR(y) = 3.0", &schema, &row).unwrap(), Value::Bool(true));
        assert_eq!(eval_where("COALESCE(NULL, x) = -4", &schema, &row).unwrap(), Value::Bool(true));
    }

    #[test]
    fn string_functions() {
        let schema = RowSchema { fields: vec![("t".into(), "s".into())] };
        let row = [Value::Str("Hello".into())];
        assert_eq!(eval_where("LENGTH(s) = 5", &schema, &row).unwrap(), Value::Bool(true));
        assert_eq!(eval_where("UPPER(s) = 'HELLO'", &schema, &row).unwrap(), Value::Bool(true));
        assert_eq!(
            eval_where("SUBSTR(s, 2, 3) = 'ell'", &schema, &row).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn case_expressions_both_forms() {
        let schema = schema_xy();
        let row = [Value::Int(2), Value::Float(0.0)];
        assert_eq!(
            eval_where("CASE WHEN x > 1 THEN 10 ELSE 20 END = 10", &schema, &row).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_where("CASE x WHEN 1 THEN 'a' WHEN 2 THEN 'b' END = 'b'", &schema, &row).unwrap(),
            Value::Bool(true)
        );
        // no match, no else → NULL
        assert_eq!(
            eval_where("CASE x WHEN 9 THEN 1 END IS NULL", &schema, &row).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn bare_column_resolution_and_ambiguity() {
        let schema = RowSchema { fields: vec![("a".into(), "x".into()), ("b".into(), "x".into())] };
        let row = [Value::Int(1), Value::Int(2)];
        assert!(matches!(eval_where("x = 1", &schema, &row), Err(DbError::AmbiguousColumn(_))));
        assert_eq!(eval_where("a.x = 1", &schema, &row).unwrap(), Value::Bool(true));
        assert!(matches!(eval_where("c.x = 1", &schema, &row), Err(DbError::UnknownColumn(_))));
    }

    #[test]
    fn unbound_placeholder_is_an_error() {
        let schema = schema_xy();
        let row = [Value::Int(1), Value::Float(1.0)];
        assert_eq!(eval_where("x > {p_1}", &schema, &row), Err(DbError::UnboundPlaceholder(1)));
    }

    #[test]
    fn aggregate_lookup_uses_env() {
        let schema = schema_xy();
        let row = [Value::Int(1), Value::Float(1.0)];
        let subqueries = SubqueryResults::default();
        let mut aggregates = HashMap::new();
        aggregates.insert("COUNT(*)".to_string(), Value::Int(42));
        let select = parse_select("SELECT * FROM t WHERE COUNT(*) > 10").unwrap();
        let context = EvalContext {
            schema: &schema,
            row: &row,
            aggregates: Some(&aggregates),
            subqueries: &subqueries,
        };
        assert_eq!(context.eval(select.where_clause.as_ref().unwrap()).unwrap(), Value::Bool(true));
    }

    #[test]
    fn in_subquery_uses_cache() {
        let select = parse_select("SELECT * FROM t WHERE x IN (SELECT y FROM u)").unwrap();
        let schema = schema_xy();
        let row = [Value::Int(7), Value::Float(0.0)];
        let mut subqueries = SubqueryResults::default();
        let Expr::InSubquery { subquery, .. } = select.where_clause.as_ref().unwrap() else {
            panic!()
        };
        subqueries.in_sets.insert(subquery_key(subquery), vec![Value::Int(7), Value::Int(9)]);
        assert_eq!(
            ctx(&schema, &row, &subqueries).eval(select.where_clause.as_ref().unwrap()).unwrap(),
            Value::Bool(true)
        );
    }
}
