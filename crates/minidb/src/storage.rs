//! Columnar in-memory storage.
//!
//! Tables store one [`Column`] per attribute; each column is a typed dense
//! vector with a validity vector. Text columns hold one `u32` code per
//! cell into a per-column [`Dictionary`], whose texts share one arena.
//! The dataset generators build whole columns ([`Column::ints`],
//! [`Column::floats`], [`Column::nullable_ints`], [`TextColumn`]) and
//! assemble them with [`Table::from_columns`]; tests and fixtures load
//! [`Value`] rows through [`Table::push_row`]. Cell access materializes a
//! [`sqlkit::Value`] so the expression evaluator and the frontend share
//! one value type.

use sqlkit::Value;
use std::fmt;

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
    /// (PostgreSQL's `pg_statistic.stawidth` analogue) and by the schema
    /// summary's row width.
    ///
    /// These are the cost model's constants, not the in-memory size: a
    /// `Str` cell is a 4-byte dictionary code, but it stays 24 bytes wide
    /// here so that costs and prompts do not depend on the storage layout.
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

/// Slots in a [`Dictionary`]'s cache of recently loaded texts.
const RECENT_SLOTS: usize = 256;

/// An empty cache slot.
const NO_CODE: u32 = u32::MAX;

/// The texts of a `Str` column, one arena for all of them: entry `code`
/// is `text[offsets[code]..offsets[code + 1]]` (Arrow's dictionary-encoded
/// variable-size binary layout). Loading deduplicates through a small
/// direct-mapped cache of recent texts, not an exact map: equal codes
/// always mean equal text, but a text that left the cache and came back
/// gets a second code. Readers that need each distinct text once (ANALYZE)
/// merge equal entries; key comparisons compare bytes.
#[derive(Clone)]
pub struct Dictionary {
    text: String,
    /// Entry boundaries in `text`; starts at 0, one more than the entries.
    offsets: Vec<u32>,
    /// The cache: per slot, the code of the last text loaded into it
    /// ([`NO_CODE`] when empty).
    recent: Vec<u32>,
}

impl Dictionary {
    fn new() -> Dictionary {
        Dictionary { text: String::new(), offsets: vec![0], recent: vec![NO_CODE; RECENT_SLOTS] }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when there are no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The text of entry `code`.
    ///
    /// # Panics
    /// Panics when `code` is not an entry.
    #[inline]
    pub fn get(&self, code: u32) -> &str {
        let code = code as usize;
        &self.text[self.offsets[code] as usize..self.offsets[code + 1] as usize]
    }

    /// The bytes of entry `code` (the UTF-8 of [`Dictionary::get`]).
    #[inline]
    pub fn bytes(&self, code: u32) -> &[u8] {
        let code = code as usize;
        &self.text.as_bytes()[self.offsets[code] as usize..self.offsets[code + 1] as usize]
    }

    /// The code of `text`: the cached entry when the slot `text` hashes
    /// to holds it, else a new entry, which takes the slot.
    fn intern(&mut self, text: &str) -> u32 {
        let slot = recent_slot(text.as_bytes());
        let cached = self.recent[slot];
        if cached != NO_CODE && self.bytes(cached) == text.as_bytes() {
            return cached;
        }
        let code = u32::try_from(self.len()).expect("fewer than 2^32 text entries");
        self.text.push_str(text);
        let end = u32::try_from(self.text.len()).expect("a text column under 4 GiB");
        self.offsets.push(end);
        self.recent[slot] = code;
        code
    }

    /// The entries in code order.
    pub fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.len() as u32).map(|code| self.get(code))
    }
}

/// The cache slot of `text`: its length and its first and last (up to)
/// eight bytes, through SplitMix64's finalizer. Cheaper than hashing
/// every byte; a collision only costs a duplicate entry.
#[inline]
fn recent_slot(text: &[u8]) -> usize {
    let word = |chunk: &[u8]| {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        u64::from_le_bytes(w)
    };
    let n = text.len();
    let (head, tail) = (word(&text[..n.min(8)]), word(&text[n.saturating_sub(8)..]));
    let mut x = head ^ tail.rotate_left(29) ^ n as u64;
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (x ^ (x >> 31)) as usize % RECENT_SLOTS
}

/// Entries compare as text; the cache is not part of the value.
impl PartialEq for Dictionary {
    fn eq(&self, other: &Dictionary) -> bool {
        self.offsets == other.offsets && self.text == other.text
    }
}

impl fmt::Debug for Dictionary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A typed column with validity vector (`true` = non-null). A NULL cell
/// holds a zero value (code 0 in a `Str` column, which may name no entry).
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    Int { values: Vec<i64>, valid: Vec<bool> },
    Float { values: Vec<f64>, valid: Vec<bool> },
    Str { codes: Vec<u32>, dict: Dictionary, valid: Vec<bool> },
    Bool { values: Vec<bool>, valid: Vec<bool> },
}

impl Column {
    /// Empty column of the given type.
    pub fn new(data_type: DataType) -> Column {
        match data_type {
            DataType::Int => Column::Int { values: Vec::new(), valid: Vec::new() },
            DataType::Float => Column::Float { values: Vec::new(), valid: Vec::new() },
            DataType::Str => {
                Column::Str { codes: Vec::new(), dict: Dictionary::new(), valid: Vec::new() }
            }
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
            Column::Int { valid, .. }
            | Column::Float { valid, .. }
            | Column::Str { valid, .. }
            | Column::Bool { valid, .. } => valid.len(),
        }
    }

    /// True when the column has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A never-null `Int` column of `values`.
    pub fn ints(values: Vec<i64>) -> Column {
        let valid = vec![true; values.len()];
        Column::Int { values, valid }
    }

    /// A never-null `Float` column of `values`.
    pub fn floats(values: Vec<f64>) -> Column {
        let valid = vec![true; values.len()];
        Column::Float { values, valid }
    }

    /// An `Int` column with a NULL where `cells` holds `None`.
    pub fn nullable_ints(cells: Vec<Option<i64>>) -> Column {
        let values = cells.iter().map(|cell| cell.unwrap_or(0)).collect();
        let valid = cells.iter().map(Option::is_some).collect();
        Column::Int { values, valid }
    }

    /// Append a cell; `Value::Null` appends a null of this column's type.
    /// `Int` cells coerce into `Float` columns.
    ///
    /// # Panics
    /// Panics on a type mismatch — loading is an internal path, so a
    /// mismatch is a programming error rather than user input.
    pub fn push(&mut self, cell: &Value) {
        match (self, cell) {
            (Column::Int { values, valid }, Value::Int(v)) => {
                values.push(*v);
                valid.push(true);
            }
            (Column::Int { values, valid }, Value::Null) => {
                values.push(0);
                valid.push(false);
            }
            (Column::Float { values, valid }, Value::Float(v)) => {
                values.push(*v);
                valid.push(true);
            }
            (Column::Float { values, valid }, Value::Int(v)) => {
                values.push(*v as f64);
                valid.push(true);
            }
            (Column::Float { values, valid }, Value::Null) => {
                values.push(0.0);
                valid.push(false);
            }
            (Column::Str { codes, dict, valid }, Value::Str(text)) => {
                codes.push(dict.intern(text));
                valid.push(true);
            }
            (Column::Str { codes, valid, .. }, Value::Null) => {
                codes.push(0);
                valid.push(false);
            }
            (Column::Bool { values, valid }, Value::Bool(v)) => {
                values.push(*v);
                valid.push(true);
            }
            (Column::Bool { values, valid }, Value::Null) => {
                values.push(false);
                valid.push(false);
            }
            (col, cell) => {
                panic!("type mismatch loading {:?} into {:?} column", cell, col.data_type())
            }
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
            Column::Str { codes, dict, valid } => {
                if valid[row] {
                    Value::Str(dict.get(codes[row]).to_owned())
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

    /// A table of whole columns, named and in position order.
    ///
    /// # Panics
    /// Panics if the columns differ in length.
    pub fn from_columns(name: impl Into<String>, columns: Vec<(&str, Column)>) -> Table {
        let (column_names, columns): (Vec<String>, Vec<Column>) =
            columns.into_iter().map(|(name, column)| (name.to_string(), column)).unzip();
        if let Some(first) = columns.first() {
            assert!(columns.iter().all(|c| c.len() == first.len()), "column length mismatch");
        }
        Table { name: name.into(), column_names, columns }
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

    /// Append one row of [`Value`]s, one per column in position order.
    /// Takes any exact-size iterable: a `Vec` or a stack array (`[..]`).
    ///
    /// # Panics
    /// Panics if the cell count does not match the column count (checked
    /// before any column changes) or any cell's type mismatches its
    /// column.
    pub fn push_row<I>(&mut self, row: I)
    where
        I: IntoIterator<Item = Value>,
        I::IntoIter: ExactSizeIterator,
    {
        let row = row.into_iter();
        assert_eq!(row.len(), self.columns.len(), "row arity mismatch");
        for (column, value) in self.columns.iter_mut().zip(row) {
            column.push(&value);
        }
    }
}

/// Builds a `Str` column text by text: each text is interned as it is
/// fed, in row order, so the codes and the dictionary are the ones
/// [`Table::push_row`] gives the same texts.
pub struct TextColumn {
    codes: Vec<u32>,
    dict: Dictionary,
    /// Rows fed as NULL, ascending.
    nulls: Vec<usize>,
}

impl TextColumn {
    /// An empty builder with room for `rows` cells.
    pub fn with_capacity(rows: usize) -> TextColumn {
        TextColumn { codes: Vec::with_capacity(rows), dict: Dictionary::new(), nulls: Vec::new() }
    }

    /// Append `text`.
    #[inline]
    pub fn push(&mut self, text: &str) {
        self.codes.push(self.dict.intern(text));
    }

    /// Append a NULL.
    pub fn push_null(&mut self) {
        self.nulls.push(self.codes.len());
        self.codes.push(0);
    }

    /// The finished column.
    pub fn finish(self) -> Column {
        let mut valid = vec![true; self.codes.len()];
        for row in self.nulls {
            valid[row] = false;
        }
        Column::Str { codes: self.codes, dict: self.dict, valid }
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
    fn typed_columns_load_what_value_rows_load() {
        // Text repeats both inside and beyond the load cache, and NULLs.
        let words: Vec<String> = (0..3 * RECENT_SLOTS).map(|i| format!("w{}", i % 400)).collect();
        let layout = vec![
            ("i".into(), DataType::Int),
            ("f".into(), DataType::Float),
            ("n".into(), DataType::Int),
            ("s".into(), DataType::Str),
        ];
        let mut rows = Table::new("t", layout);
        let (mut i, mut f, mut n) = (Vec::new(), Vec::new(), Vec::new());
        let mut s = TextColumn::with_capacity(words.len());
        for (row, word) in words.iter().enumerate() {
            let null = row % 5 == 3;
            let (int, float) = (row as i64 - 40, row as f64 / 8.0 - 1.0);
            let cell = (!null).then_some(int);
            rows.push_row([
                Value::Int(int),
                Value::Float(float),
                cell.map_or(Value::Null, Value::Int),
                if null { Value::Null } else { Value::Str(word.clone()) },
            ]);
            i.push(int);
            f.push(float);
            n.push(cell);
            if null {
                s.push_null();
            } else {
                s.push(word);
            }
        }
        let typed = Table::from_columns(
            "t",
            vec![
                ("i", Column::ints(i)),
                ("f", Column::floats(f)),
                ("n", Column::nullable_ints(n)),
                ("s", s.finish()),
            ],
        );
        assert_eq!(typed.column_names, rows.column_names);
        assert_eq!(typed.columns, rows.columns);
        let Column::Str { dict, .. } = &typed.columns[3] else { unreachable!() };
        assert!(dict.len() > 400, "no text was evicted");
    }

    #[test]
    #[should_panic(expected = "column length mismatch")]
    fn columns_of_unequal_length_panic() {
        Table::from_columns("t", vec![("a", Column::ints(vec![1])), ("b", Column::ints(vec![]))]);
    }

    fn texts(column: &Column) -> Vec<Option<String>> {
        let text = |row| match column.get(row) {
            Value::Str(s) => Some(s),
            Value::Null => None,
            other => panic!("{other:?} in a text column"),
        };
        (0..column.len()).map(text).collect()
    }

    #[test]
    fn text_round_trips_through_the_dictionary() {
        let cells = ["", "a", "é", "a", "", "Brand#11", "ü日本", "a"];
        let mut builder = TextColumn::with_capacity(cells.len());
        for (i, text) in cells.iter().enumerate() {
            if i == 2 {
                builder.push_null();
            } else {
                builder.push(text);
            }
        }
        let column = builder.finish();
        let expected: Vec<Option<String>> =
            cells.iter().enumerate().map(|(i, t)| (i != 2).then(|| t.to_string())).collect();
        assert_eq!(texts(&column), expected);
        let Column::Str { dict, .. } = &column else { unreachable!() };
        // Repeats of a text still in the cache reuse its entry.
        assert_eq!(dict.iter().collect::<Vec<_>>(), ["", "a", "Brand#11", "ü日本"]);
    }

    #[test]
    fn equal_codes_mean_equal_text_but_not_the_reverse() {
        // More distinct texts than cache slots evict the early ones, so
        // their repeats get second entries.
        let distinct: Vec<String> = (0..4 * RECENT_SLOTS).map(|i| format!("v{i}")).collect();
        let mut builder = TextColumn::with_capacity(2 * distinct.len());
        for text in distinct.iter().chain(&distinct) {
            builder.push(text);
        }
        let Column::Str { codes, dict, .. } = &builder.finish() else { unreachable!() };
        assert!(dict.len() > distinct.len(), "no text was evicted");
        for (row, &code) in codes.iter().enumerate() {
            assert_eq!(dict.get(code), distinct[row % distinct.len()]);
        }
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
        c.push(&Value::Int(3));
        assert_eq!(c.get(0), Value::Float(3.0));
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn type_mismatch_panics() {
        let mut c = Column::new(DataType::Int);
        c.push(&Value::Str("nope".into()));
    }

    #[test]
    fn row_width_sums_column_widths() {
        let t = Table::new("t", vec![("a".into(), DataType::Int), ("s".into(), DataType::Str)]);
        assert_eq!(t.row_width(), 32);
    }

    #[test]
    fn column_index_lookup() {
        let t = Table::new("t", vec![("a".into(), DataType::Int), ("b".into(), DataType::Int)]);
        assert_eq!(t.column_index("b"), Some(1));
        assert_eq!(t.column_index("z"), None);
    }
}
