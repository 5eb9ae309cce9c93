//! SQL templates: statements containing `{p_i}` placeholders.
//!
//! Implements Definitions 2.1–2.3 of the paper: a template cannot be
//! executed directly; instantiating it by substituting predicate values for
//! every placeholder yields an executable query.

use crate::ast::{Expr, Select, Value};
use crate::error::SqlError;
use crate::features::TemplateFeatures;
use std::fmt;

/// A SQL template (Definition 2.1).
///
/// Wraps a [`Select`] that may contain [`Expr::Placeholder`] nodes anywhere
/// an expression is legal — including inside nested subqueries.
#[derive(Debug, Clone, PartialEq)]
pub struct Template {
    select: Select,
}

impl Template {
    /// Wrap a parsed statement as a template.
    pub fn new(select: Select) -> Self {
        Template { select }
    }

    /// Borrow the underlying statement.
    pub fn select(&self) -> &Select {
        &self.select
    }

    /// Consume the template, returning the statement.
    pub fn into_select(self) -> Select {
        self.select
    }

    /// Sorted, de-duplicated placeholder ids, collected recursively through
    /// subquery bodies.
    pub fn placeholders(&self) -> Vec<u32> {
        let mut ids = Vec::new();
        collect_placeholders(&self.select, &mut ids);
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Number of distinct placeholders.
    pub fn arity(&self) -> usize {
        self.placeholders().len()
    }

    /// True when the template has no placeholders (i.e. it is already an
    /// executable query per Definition 2.3).
    pub fn is_ground(&self) -> bool {
        self.placeholders().is_empty()
    }

    /// Instantiate the template into an executable statement by replacing
    /// every placeholder with its bound value (Definition 2.3).
    ///
    /// `value_of` is a row view: it returns the value bound to a
    /// placeholder id, or `None` when the id is unbound (a batch row
    /// passes `|id| batch.value_of(id, row)`). Every placeholder in the
    /// template must have a binding — the error names the *smallest*
    /// unbound id; ids the template does not mention are never asked
    /// for, which lets callers sample one joint value vector for a whole
    /// template family.
    pub fn instantiate<'v>(
        &self,
        value_of: impl Fn(u32) -> Option<&'v Value>,
    ) -> Result<Select, SqlError> {
        if let Some(id) = self.placeholders().into_iter().find(|&id| value_of(id).is_none()) {
            return Err(SqlError::MissingPlaceholder(id));
        }
        let mut select = self.select.clone();
        select.walk_exprs_mut(&mut |expr| {
            if let Expr::Placeholder(id) = expr {
                if let Some(value) = value_of(*id) {
                    *expr = Expr::Literal(value.clone());
                }
            }
        });
        Ok(select)
    }

    /// Structural features of the template (table/join/aggregation counts,
    /// nested-subquery presence, …), used for specification validation.
    pub fn features(&self) -> TemplateFeatures {
        TemplateFeatures::of(&self.select)
    }

    /// SQL text of the template, with `{p_i}` placeholder syntax.
    pub fn sql(&self) -> String {
        self.select.to_string()
    }
}

impl fmt::Display for Template {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.select)
    }
}

fn collect_placeholders(select: &Select, ids: &mut Vec<u32>) {
    select.walk_exprs(&mut |expr| {
        if let Expr::Placeholder(id) = expr {
            ids.push(*id);
        }
    });
    for sub in select.subqueries() {
        collect_placeholders(sub, ids);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_template;

    #[test]
    fn placeholders_are_sorted_and_deduped() {
        let t = parse_template(
            "SELECT * FROM t WHERE a > {p_3} AND b < {p_1} AND c BETWEEN {p_1} AND {p_3}",
        )
        .unwrap();
        assert_eq!(t.placeholders(), vec![1, 3]);
        assert_eq!(t.arity(), 2);
    }

    #[test]
    fn placeholders_found_inside_subqueries() {
        let t =
            parse_template("SELECT * FROM a WHERE x IN (SELECT y FROM b WHERE z > {p_2})").unwrap();
        assert_eq!(t.placeholders(), vec![2]);
    }

    /// Row view over `(id, value)` pairs.
    fn row<'a>(pairs: &'a [(u32, Value)]) -> impl Fn(u32) -> Option<&'a Value> + 'a {
        move |id| pairs.iter().find(|(bound, _)| *bound == id).map(|(_, value)| value)
    }

    #[test]
    fn instantiate_replaces_all_occurrences() {
        let t = parse_template("SELECT * FROM t WHERE a > {p_1} AND b < {p_1}").unwrap();
        let q = t.instantiate(row(&[(1, Value::Int(10))])).unwrap();
        let text = q.to_string();
        assert!(!text.contains("{p_"));
        assert_eq!(text.matches("10").count(), 2);
    }

    #[test]
    fn instantiate_reaches_nested_subqueries() {
        let t =
            parse_template("SELECT * FROM a WHERE x IN (SELECT y FROM b WHERE z > {p_1})").unwrap();
        let q = t.instantiate(row(&[(1, Value::Float(2.5))])).unwrap();
        assert!(!q.to_string().contains("{p_"));
    }

    #[test]
    fn missing_binding_is_an_error() {
        let t = parse_template("SELECT * FROM t WHERE a > {p_1}").unwrap();
        let err = t.instantiate(row(&[])).unwrap_err();
        assert_eq!(err, SqlError::MissingPlaceholder(1));
    }

    #[test]
    fn instantiation_ignores_extras_and_reports_smallest_gap() {
        let t = parse_template("SELECT * FROM t WHERE a > {p_4} AND b < {p_2}").unwrap();
        let extras = [(2, Value::Int(1)), (4, Value::Int(4)), (9, Value::Int(9))];
        assert!(t.instantiate(row(&extras)).is_ok());
        let err = t.instantiate(row(&[(9, Value::Int(9))])).unwrap_err();
        assert_eq!(err, SqlError::MissingPlaceholder(2));
    }

    #[test]
    fn ground_template_is_directly_executable() {
        let t = parse_template("SELECT * FROM t WHERE a > 5").unwrap();
        assert!(t.is_ground());
        assert!(t.instantiate(row(&[])).is_ok());
    }
}
