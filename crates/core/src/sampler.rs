//! Predicate value spaces for templates.
//!
//! "The search space is automatically generated by identifying placeholder
//! predicates in the template and mapping them to corresponding
//! hyperparameters" (§5.3). Each `{p_i}` that appears in a comparison with
//! a column becomes a dimension bounded by that column's min/max from the
//! catalog statistics (slightly widened so empty-result predicates are
//! reachable); placeholders with no recognizable column get a default
//! range.

use bayesopt::{Dimension, Space};
use minidb::{BindingBatch, DataType, Database};
use sqlkit::{ColumnRef, Expr, Select, Template, Value};
use std::collections::HashMap;

/// Fractional widening applied beyond column min/max so the search can
/// express empty and full ranges.
const WIDEN: f64 = 0.05;

/// One placeholder dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct PlaceholderDim {
    pub placeholder: u32,
    pub dimension: Dimension,
    /// Column type driving value decoding.
    pub data_type: DataType,
    /// String choices for text placeholders (MCVs), empty otherwise.
    pub choices: Vec<String>,
}

/// The joint search space of a template's placeholders.
#[derive(Debug, Clone, PartialEq)]
pub struct PlaceholderSpace {
    pub dims: Vec<PlaceholderDim>,
    pub space: Space,
}

impl PlaceholderSpace {
    /// Build the space for a template against a database.
    pub fn build(db: &Database, template: &Template) -> PlaceholderSpace {
        let mut found: HashMap<u32, PlaceholderDim> = HashMap::new();
        collect(db, template.select(), &mut found);
        let mut dims: Vec<PlaceholderDim> = template
            .placeholders()
            .into_iter()
            .map(|id| {
                found.remove(&id).unwrap_or(PlaceholderDim {
                    placeholder: id,
                    dimension: Dimension::Float { lo: 0.0, hi: 10_000.0 },
                    data_type: DataType::Float,
                    choices: Vec::new(),
                })
            })
            .collect();
        dims.sort_by_key(|d| d.placeholder);
        let space = Space::new(dims.iter().map(|d| d.dimension.clone()).collect());
        PlaceholderSpace { dims, space }
    }

    /// Decode a unit-hypercube point into a placeholder → value map: the
    /// adapter for callers outside the workspace that cost maps; the
    /// pipeline uses [`PlaceholderSpace::decode_batch`].
    pub fn decode(&self, unit_point: &[f64]) -> HashMap<u32, Value> {
        debug_assert_eq!(unit_point.len(), self.dims.len());
        self.dims
            .iter()
            .zip(unit_point)
            .map(|(dim, &u)| (dim.placeholder, decode_dim(dim, u)))
            .collect()
    }

    /// Decode a unit-hypercube point into `(placeholder, value)` pairs in
    /// ascending placeholder order (dims are sorted at build time), reusing
    /// a caller-owned buffer — the row format [`BindingBatch::push_row`]
    /// ingests. Numeric and boolean dimensions touch no heap at all;
    /// string dimensions still clone the chosen MCV.
    pub fn decode_into(&self, unit_point: &[f64], out: &mut Vec<(u32, Value)>) {
        debug_assert_eq!(unit_point.len(), self.dims.len());
        out.clear();
        for (dim, &u) in self.dims.iter().zip(unit_point) {
            out.push((dim.placeholder, decode_dim(dim, u)));
        }
    }

    /// Reset `batch` to this space's placeholders (keeping its capacity)
    /// and decode one row per unit point into it:
    /// [`PlaceholderSpace::decode_into`] then [`BindingBatch::push_row`],
    /// through one reused pair buffer.
    pub fn decode_batch<P: AsRef<[f64]>>(
        &self,
        points: impl IntoIterator<Item = P>,
        batch: &mut BindingBatch,
    ) {
        batch.reset(self.dims.iter().map(|dim| dim.placeholder));
        let mut row = Vec::with_capacity(self.dims.len());
        for point in points {
            self.decode_into(point.as_ref(), &mut row);
            batch.push_row(&row).expect("a decoded point binds every placeholder of its space");
        }
    }

    /// Number of dimensions.
    pub fn arity(&self) -> usize {
        self.dims.len()
    }

    /// Total number of distinguishable predicate combinations (the
    /// `GetSpaceSize` of Algorithm 3's `R` bookkeeping).
    pub fn size(&self) -> f64 {
        if self.dims.is_empty() {
            1.0
        } else {
            self.space.size()
        }
    }
}

/// Shared decode kernel for [`PlaceholderSpace::decode`] and
/// [`PlaceholderSpace::decode_into`] — one dimension, one typed value.
fn decode_dim(dim: &PlaceholderDim, unit: f64) -> Value {
    let raw = dim.dimension.decode(unit);
    match dim.data_type {
        DataType::Int => Value::Int(raw.round() as i64),
        DataType::Float => Value::Float(raw),
        DataType::Bool => Value::Bool(raw >= 0.5),
        DataType::Str => {
            let idx = (raw as usize).min(dim.choices.len().saturating_sub(1));
            dim.choices.get(idx).cloned().map(Value::Str).unwrap_or(Value::Str(String::new()))
        }
    }
}

/// Scope-aware recursive walk associating placeholders with columns.
fn collect(db: &Database, select: &Select, out: &mut HashMap<u32, PlaceholderDim>) {
    let bindings: Vec<(String, String)> =
        select.table_refs().iter().map(|t| (t.binding().to_string(), t.table.clone())).collect();

    let mut visit = |expr: &Expr| match expr {
        Expr::Binary { left, op, right } if op.is_comparison() => {
            match (left.as_ref(), right.as_ref()) {
                (Expr::Column(c), Expr::Placeholder(id))
                | (Expr::Placeholder(id), Expr::Column(c)) => {
                    if let Some(dim) = dim_for_column(db, &bindings, c, *id) {
                        out.entry(*id).or_insert(dim);
                    }
                }
                _ => {}
            }
        }
        Expr::Between { expr: operand, low, high, .. } => {
            if let Expr::Column(c) = operand.as_ref() {
                for bound in [low.as_ref(), high.as_ref()] {
                    if let Expr::Placeholder(id) = bound {
                        if let Some(dim) = dim_for_column(db, &bindings, c, *id) {
                            out.entry(*id).or_insert(dim);
                        }
                    }
                }
            }
        }
        _ => {}
    };
    select.walk_exprs(&mut |e| visit(e));
    for sub in select.subqueries() {
        collect(db, sub, out);
    }
}

fn dim_for_column(
    db: &Database,
    bindings: &[(String, String)],
    column: &ColumnRef,
    placeholder: u32,
) -> Option<PlaceholderDim> {
    let table = match &column.table {
        Some(binding) => bindings.iter().find(|(b, _)| b == binding).map(|(_, t)| t.clone())?,
        None => bindings
            .iter()
            .find(|(_, t)| {
                db.schema(t)
                    .map(|s| s.columns.iter().any(|c| c.name == column.column))
                    .unwrap_or(false)
            })
            .map(|(_, t)| t.clone())?,
    };
    let schema = db.schema(&table).ok()?;
    let data_type = schema.columns.iter().find(|c| c.name == column.column)?.data_type;
    let stats = db.stats(&table).ok()?.columns.get(&column.column)?;

    let dimension = match data_type {
        DataType::Int => {
            let lo = stats.min_f64().unwrap_or(0.0);
            let hi = stats.max_f64().unwrap_or(10_000.0);
            let margin = ((hi - lo) * WIDEN).max(1.0);
            Dimension::Int { lo: (lo - margin) as i64, hi: (hi + margin) as i64 }
        }
        DataType::Float => {
            let lo = stats.min_f64().unwrap_or(0.0);
            let hi = stats.max_f64().unwrap_or(10_000.0);
            let margin = ((hi - lo) * WIDEN).max(f64::EPSILON);
            Dimension::Float { lo: lo - margin, hi: hi + margin }
        }
        DataType::Bool => Dimension::Categorical { cardinality: 2 },
        DataType::Str => Dimension::Categorical { cardinality: stats.mcvs.len().max(1) },
    };
    let choices = if data_type == DataType::Str {
        stats
            .mcvs
            .iter()
            .filter_map(|(v, _)| match v {
                Value::Str(s) => Some(s.clone()),
                _ => None,
            })
            .collect()
    } else {
        Vec::new()
    };
    Some(PlaceholderDim { placeholder, dimension, data_type, choices })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlkit::parse_template;

    fn tpch() -> Database {
        minidb::datagen::tpch::generate(minidb::datagen::tpch::TpchConfig::tiny())
    }

    #[test]
    fn dimensions_come_from_column_statistics() {
        let db = tpch();
        let template = parse_template(
            "SELECT l.l_orderkey FROM lineitem AS l \
             WHERE l.l_quantity > {p_1} AND l.l_extendedprice <= {p_2}",
        )
        .unwrap();
        let space = PlaceholderSpace::build(&db, &template);
        assert_eq!(space.arity(), 2);
        // l_quantity spans [1, 50]
        match &space.dims[0].dimension {
            Dimension::Float { lo, hi } => {
                assert!(*lo <= 1.0 && *hi >= 50.0, "bounds {lo}..{hi}");
                assert!(*hi < 100.0);
            }
            other => panic!("unexpected dim {other:?}"),
        }
    }

    #[test]
    fn decoding_produces_typed_values() {
        let db = tpch();
        let template = parse_template(
            "SELECT o.o_orderkey FROM orders AS o \
             WHERE o.o_orderdate > {p_1} AND o.o_totalprice < {p_2}",
        )
        .unwrap();
        let space = PlaceholderSpace::build(&db, &template);
        let bindings = space.decode(&[0.5, 0.5]);
        assert!(matches!(bindings[&1], Value::Int(_)), "orderdate is an int column");
        assert!(matches!(bindings[&2], Value::Float(_)));
        // instantiation with these bindings must be executable
        let query = template.instantiate(|id| bindings.get(&id)).unwrap();
        db.explain(&query).unwrap();
    }

    #[test]
    fn decode_into_matches_decode() {
        let db = tpch();
        let template = parse_template(
            "SELECT o.o_orderkey FROM orders AS o \
             WHERE o.o_orderdate > {p_3} AND o.o_totalprice < {p_1}",
        )
        .unwrap();
        let space = PlaceholderSpace::build(&db, &template);
        let units = [[0.0, 0.0], [0.25, 0.9], [1.0, 1.0]];
        // A batch over other ids is reset to the space's.
        let mut batch = BindingBatch::new(vec![1, 2]);
        space.decode_batch(units, &mut batch);
        assert_eq!((batch.ids(), batch.len()), (&[1, 3][..], units.len()));
        let mut pairs = Vec::new();
        for (row, unit) in units.iter().enumerate() {
            let map = space.decode(unit);
            space.decode_into(unit, &mut pairs);
            assert_eq!(pairs.len(), map.len());
            assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0), "sorted by id");
            for (id, value) in &pairs {
                assert_eq!(map.get(id), Some(value));
                assert_eq!(batch.value_of(*id, row), Some(value));
            }
        }
    }

    #[test]
    fn placeholders_in_subqueries_are_found() {
        let db = tpch();
        let template = parse_template(
            "SELECT o.o_orderkey FROM orders AS o WHERE o.o_custkey IN \
             (SELECT customer.c_custkey FROM customer WHERE customer.c_acctbal > {p_1})",
        )
        .unwrap();
        let space = PlaceholderSpace::build(&db, &template);
        assert_eq!(space.arity(), 1);
        assert_eq!(space.dims[0].data_type, DataType::Float);
    }

    #[test]
    fn between_binds_both_placeholders_to_the_column() {
        let db = tpch();
        let template = parse_template(
            "SELECT * FROM lineitem WHERE lineitem.l_quantity BETWEEN {p_1} AND {p_2}",
        )
        .unwrap();
        let space = PlaceholderSpace::build(&db, &template);
        assert_eq!(space.arity(), 2);
        assert_eq!(space.dims[0].dimension, space.dims[1].dimension);
    }

    #[test]
    fn unknown_placeholder_gets_default_range() {
        let db = tpch();
        // p_1 appears only inside arithmetic — no direct column pairing.
        let template =
            parse_template("SELECT * FROM lineitem WHERE lineitem.l_quantity > {p_1} + {p_2}")
                .unwrap();
        let space = PlaceholderSpace::build(&db, &template);
        assert_eq!(space.arity(), 2);
        assert!(matches!(space.dims[0].dimension, Dimension::Float { .. }));
    }

    #[test]
    fn ground_templates_have_unit_space() {
        let db = tpch();
        let template = parse_template("SELECT * FROM nation").unwrap();
        let space = PlaceholderSpace::build(&db, &template);
        assert_eq!(space.arity(), 0);
        assert_eq!(space.size(), 1.0);
    }
}
