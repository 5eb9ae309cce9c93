//! Columnar in-memory storage.
//!
//! Tables store one [`Column`] per attribute; each column is a typed dense
//! vector with an optional validity bitmap. Cell access materializes a
//! [`sqlkit::Value`] so the expression evaluator and the frontend share one
//! value type.

use sqlkit::Value;

/// Logical column type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Int,
    Float,
    Str,
    Bool,
}

impl DataType {
    /// Estimated on-disk width in bytes, used by the page-based cost model
    /// (PostgreSQL's `pg_statistic.stawidth` analogue).
    pub fn width(self) -> usize {
        match self {
            DataType::Int => 8,
            DataType::Float => 8,
            DataType::Bool => 1,
            DataType::Str => 24,
        }
    }

    /// Human-readable SQL type name.
    pub fn sql_name(self) -> &'static str {
        match self {
            DataType::Int => "bigint",
            DataType::Float => "double precision",
            DataType::Str => "text",
            DataType::Bool => "boolean",
        }
    }
}

/// A typed column with validity bitmap (`true` = non-null).
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    Int { values: Vec<i64>, valid: Vec<bool> },
    Float { values: Vec<f64>, valid: Vec<bool> },
    Str { values: Vec<String>, valid: Vec<bool> },
    Bool { values: Vec<bool>, valid: Vec<bool> },
}

impl Column {
    /// Empty column of the given type.
    pub fn new(data_type: DataType) -> Column {
        match data_type {
            DataType::Int => Column::Int { values: Vec::new(), valid: Vec::new() },
            DataType::Float => Column::Float { values: Vec::new(), valid: Vec::new() },
            DataType::Str => Column::Str { values: Vec::new(), valid: Vec::new() },
            DataType::Bool => Column::Bool { values: Vec::new(), valid: Vec::new() },
        }
    }

    /// This column's type.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Int { .. } => DataType::Int,
            Column::Float { .. } => DataType::Float,
            Column::Str { .. } => DataType::Str,
            Column::Bool { .. } => DataType::Bool,
        }
    }

    /// Number of stored cells.
    pub fn len(&self) -> usize {
        match self {
            Column::Int { values, .. } => values.len(),
            Column::Float { values, .. } => values.len(),
            Column::Str { values, .. } => values.len(),
            Column::Bool { values, .. } => values.len(),
        }
    }

    /// True when the column has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a value; `Value::Null` appends a null of this column's type.
    /// `Int` values coerce into `Float` columns.
    ///
    /// # Panics
    /// Panics on a type mismatch — loading is an internal, generator-driven
    /// path, so a mismatch is a programming error rather than user input.
    pub fn push(&mut self, value: Value) {
        match (self, value) {
            (Column::Int { values, valid }, Value::Int(v)) => {
                values.push(v);
                valid.push(true);
            }
            (Column::Int { values, valid }, Value::Null) => {
                values.push(0);
                valid.push(false);
            }
            (Column::Float { values, valid }, Value::Float(v)) => {
                values.push(v);
                valid.push(true);
            }
            (Column::Float { values, valid }, Value::Int(v)) => {
                values.push(v as f64);
                valid.push(true);
            }
            (Column::Float { values, valid }, Value::Null) => {
                values.push(0.0);
                valid.push(false);
            }
            (Column::Str { values, valid }, Value::Str(v)) => {
                values.push(v);
                valid.push(true);
            }
            (Column::Str { values, valid }, Value::Null) => {
                values.push(String::new());
                valid.push(false);
            }
            (Column::Bool { values, valid }, Value::Bool(v)) => {
                values.push(v);
                valid.push(true);
            }
            (Column::Bool { values, valid }, Value::Null) => {
                values.push(false);
                valid.push(false);
            }
            (col, value) => panic!(
                "type mismatch loading {:?} into {:?} column",
                value,
                col.data_type()
            ),
        }
    }

    /// Column-major scan view of an `Int` column: `(values, validity)`
    /// slices, parallel by row. `None` for other column types.
    pub fn int_view(&self) -> Option<(&[i64], &[bool])> {
        match self {
            Column::Int { values, valid } => Some((values, valid)),
            _ => None,
        }
    }

    /// Column-major scan view of a `Float` column: `(values, validity)`
    /// slices, parallel by row. `None` for other column types.
    pub fn float_view(&self) -> Option<(&[f64], &[bool])> {
        match self {
            Column::Float { values, valid } => Some((values, valid)),
            _ => None,
        }
    }

    /// Materialize the cell at `row` as a [`Value`].
    ///
    /// # Panics
    /// Panics when `row` is out of bounds.
    pub fn get(&self, row: usize) -> Value {
        match self {
            Column::Int { values, valid } => {
                if valid[row] {
                    Value::Int(values[row])
                } else {
                    Value::Null
                }
            }
            Column::Float { values, valid } => {
                if valid[row] {
                    Value::Float(values[row])
                } else {
                    Value::Null
                }
            }
            Column::Str { values, valid } => {
                if valid[row] {
                    Value::Str(values[row].clone())
                } else {
                    Value::Null
                }
            }
            Column::Bool { values, valid } => {
                if valid[row] {
                    Value::Bool(values[row])
                } else {
                    Value::Null
                }
            }
        }
    }
}

/// A named, loaded table: column metadata plus column data.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table name (lowercase).
    pub name: String,
    /// Column names, in position order (lowercase).
    pub column_names: Vec<String>,
    /// Column data, parallel to `column_names`.
    pub columns: Vec<Column>,
}

impl Table {
    /// Create an empty table with the given column layout.
    pub fn new(name: impl Into<String>, columns: Vec<(String, DataType)>) -> Table {
        let (column_names, types): (Vec<_>, Vec<_>) = columns.into_iter().unzip();
        Table {
            name: name.into(),
            column_names,
            columns: types.into_iter().map(Column::new).collect(),
        }
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    /// Average row width in bytes (for page-count estimation).
    pub fn row_width(&self) -> usize {
        self.columns.iter().map(|c| c.data_type().width()).sum::<usize>().max(1)
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.column_names.iter().position(|c| c == name)
    }

    /// Append one row, one value per column in position order. Takes any
    /// exact-size iterable, so loaders can pass a stack array (`[..]`)
    /// instead of allocating a `Vec` per row.
    ///
    /// # Panics
    /// Panics if the value count does not match the column count (checked
    /// before any column changes) or any value's type mismatches its
    /// column.
    pub fn push_row<I>(&mut self, row: I)
    where
        I: IntoIterator<Item = Value>,
        I::IntoIter: ExactSizeIterator,
    {
        let row = row.into_iter();
        assert_eq!(row.len(), self.columns.len(), "row arity mismatch");
        for (column, value) in self.columns.iter_mut().zip(row) {
            column.push(value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get_round_trip_all_types() {
        let mut t = Table::new(
            "t",
            vec![
                ("a".into(), DataType::Int),
                ("b".into(), DataType::Float),
                ("c".into(), DataType::Str),
                ("d".into(), DataType::Bool),
            ],
        );
        t.push_row(vec![
            Value::Int(1),
            Value::Float(2.5),
            Value::Str("x".into()),
            Value::Bool(true),
        ]);
        t.push_row(vec![Value::Null, Value::Null, Value::Null, Value::Null]);
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.columns[0].get(0), Value::Int(1));
        assert_eq!(t.columns[1].get(0), Value::Float(2.5));
        assert_eq!(t.columns[2].get(1), Value::Null);
        assert_eq!(t.columns[3].get(0), Value::Bool(true));
    }

    #[test]
    fn arrays_and_vecs_load_the_same_row() {
        let layout = || vec![("a".into(), DataType::Int), ("s".into(), DataType::Str)];
        let mut from_array = Table::new("t", layout());
        let mut from_vec = Table::new("t", layout());
        from_array.push_row([Value::Int(7), Value::Null]);
        from_vec.push_row(vec![Value::Int(7), Value::Null]);
        assert_eq!(from_array.columns, from_vec.columns);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn rows_of_the_wrong_arity_panic() {
        let mut t = Table::new("t", vec![("a".into(), DataType::Int), ("b".into(), DataType::Int)]);
        t.push_row([Value::Int(1)]);
    }

    #[test]
    fn int_coerces_into_float_column() {
        let mut c = Column::new(DataType::Float);
        c.push(Value::Int(3));
        assert_eq!(c.get(0), Value::Float(3.0));
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn type_mismatch_panics() {
        let mut c = Column::new(DataType::Int);
        c.push(Value::Str("nope".into()));
    }

    #[test]
    fn row_width_sums_column_widths() {
        let t = Table::new(
            "t",
            vec![("a".into(), DataType::Int), ("s".into(), DataType::Str)],
        );
        assert_eq!(t.row_width(), 32);
    }

    #[test]
    fn column_index_lookup() {
        let t = Table::new(
            "t",
            vec![("a".into(), DataType::Int), ("b".into(), DataType::Int)],
        );
        assert_eq!(t.column_index("b"), Some(1));
        assert_eq!(t.column_index("z"), None);
    }
}
