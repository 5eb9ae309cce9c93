//! Table and column statistics (the `ANALYZE` machinery).
//!
//! Statistics drive two things: the cardinality [`crate::estimator`] (the
//! heart of `EXPLAIN`) and the schema summary SQLBarber puts into LLM
//! prompts (Step 1 of §4 supplies tuple counts and distinct counts so the
//! model can pick selective predicates).

use crate::int_sort::counting_sort;
use crate::storage::{Column, Dictionary, Table};
use sqlkit::Value;
use std::cmp::Ordering;
use std::collections::BTreeMap;

#[cfg(test)]
pub(crate) mod reference;

/// Number of equi-depth histogram buckets collected per numeric column
/// (PostgreSQL's `default_statistics_target`-like knob).
pub const HISTOGRAM_BUCKETS: usize = 100;

/// Number of most-common values tracked per column.
pub const MCV_TARGET: usize = 10;

/// Per-column statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Fraction of NULL cells.
    pub null_frac: f64,
    /// Estimated number of distinct non-null values.
    pub n_distinct: f64,
    /// Minimum non-null value.
    pub min: Option<Value>,
    /// Maximum non-null value.
    pub max: Option<Value>,
    /// Equi-depth histogram bound values for numeric columns
    /// (`len = buckets + 1`); empty for non-numeric columns.
    pub histogram: Vec<f64>,
    /// Most common values with their frequency (fraction of all rows).
    pub mcvs: Vec<(Value, f64)>,
}

impl ColumnStats {
    /// Numeric min, if the column is numeric and non-empty.
    pub fn min_f64(&self) -> Option<f64> {
        self.min.as_ref().and_then(Value::as_f64)
    }

    /// Numeric max, if the column is numeric and non-empty.
    pub fn max_f64(&self) -> Option<f64> {
        self.max.as_ref().and_then(Value::as_f64)
    }

    /// Fraction of non-null values strictly below `threshold`, estimated
    /// from the equi-depth histogram with linear interpolation inside the
    /// containing bucket. Returns `None` for non-numeric columns.
    pub fn fraction_below(&self, threshold: f64) -> Option<f64> {
        if self.histogram.len() < 2 {
            return None;
        }
        let bounds = &self.histogram;
        let buckets = bounds.len() - 1;
        if threshold <= bounds[0] {
            return Some(0.0);
        }
        if threshold >= bounds[buckets] {
            return Some(1.0);
        }
        // Find the containing bucket via binary search over bounds.
        let mut lo = 0usize;
        let mut hi = buckets;
        while lo + 1 < hi {
            let mid = (lo + hi) / 2;
            if bounds[mid] <= threshold {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let lower = bounds[lo];
        let upper = bounds[lo + 1];
        let within = if upper > lower { (threshold - lower) / (upper - lower) } else { 0.5 };
        Some((lo as f64 + within) / buckets as f64)
    }
}

/// Per-table statistics.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TableStats {
    /// Total rows.
    pub row_count: usize,
    /// Column-name → statistics.
    pub columns: BTreeMap<String, ColumnStats>,
}

/// Compute statistics for every column of a table (a full-table ANALYZE —
/// the tables are laptop-scale, so no sampling is needed).
pub fn analyze_table(table: &Table) -> TableStats {
    let row_count = table.row_count();
    let mut columns = BTreeMap::new();
    for (name, column) in table.column_names.iter().zip(&table.columns) {
        columns.insert(name.clone(), analyze_column(column, row_count));
    }
    TableStats { row_count, columns }
}

/// Statistics of an `Int` column of `row_count` rows from its non-null
/// values in ascending order.
pub(crate) fn int_stats(row_count: usize, sorted: &[i64]) -> ColumnStats {
    if row_count == 0 {
        return no_rows();
    }
    sorted_stats(row_count, sorted, Value::Int, |v| v as f64)
}

/// The statistics of a column of an empty table.
fn no_rows() -> ColumnStats {
    ColumnStats {
        null_frac: 0.0,
        n_distinct: 0.0,
        min: None,
        max: None,
        histogram: Vec::new(),
        mcvs: Vec::new(),
    }
}

/// Statistics of one column of a table of `row_count` rows.
pub(crate) fn analyze_column(column: &Column, row_count: usize) -> ColumnStats {
    if row_count == 0 {
        return no_rows();
    }
    match column {
        Column::Int { values, valid } => match counting_sort(values, valid, false) {
            Some(sorted) => int_stats(row_count, &sorted.keys),
            None => ordered_stats(row_count, valid_cells(values, valid, |&v| v), Value::Int, |v| {
                v as f64
            }),
        },
        Column::Str { codes, dict, valid } => text_stats(row_count, codes, dict, valid),
        Column::Bool { values, valid } => {
            ordered_stats(row_count, valid_cells(values, valid, |&b| b), Value::Bool, |b| {
                if b {
                    1.0
                } else {
                    0.0
                }
            })
        }
        Column::Float { values, valid } => {
            float_stats(row_count, valid_cells(values, valid, |&v| v))
        }
    }
}

/// The non-null cells of a column in row order.
fn valid_cells<'a, S, T>(values: &'a [S], valid: &[bool], cell: impl Fn(&'a S) -> T) -> Vec<T> {
    values.iter().zip(valid).filter(|&(_, &ok)| ok).map(|(v, _)| cell(v)).collect()
}

/// Statistics of an `Int` or `Bool` column: one sort of its cells
/// gives the runs of equal values, the ends and the histogram. `numeric`
/// is the histogram coordinate.
fn ordered_stats<T: Ord + Copy>(
    row_count: usize,
    mut cells: Vec<T>,
    lift: impl Fn(T) -> Value,
    numeric: fn(T) -> f64,
) -> ColumnStats {
    cells.sort_unstable();
    sorted_stats(row_count, &cells, lift, numeric)
}

/// [`ordered_stats`] of cells already in ascending order.
fn sorted_stats<T: Ord + Copy>(
    row_count: usize,
    cells: &[T],
    lift: impl Fn(T) -> Value,
    numeric: fn(T) -> f64,
) -> ColumnStats {
    let mut distinct = Distinct::default();
    distinct.add_runs(cells, |a, b| a == b);
    let histogram = histogram(cells, numeric);
    let ends = (cells.first().copied(), cells.last().copied());
    assemble(row_count, cells.len(), distinct, ends, histogram, lift)
}

/// Statistics of a `Str` column from its dictionary: count the cells of
/// each code, sort the entries in use by their bytes (UTF-8 byte order is
/// `str` order), and merge neighbours of equal text, since one text may
/// have several entries (see [`Dictionary`]). Each merged run is one
/// distinct value, offered in ascending order like [`sorted_stats`]'s runs.
fn text_stats(row_count: usize, codes: &[u32], dict: &Dictionary, valid: &[bool]) -> ColumnStats {
    let mut counts = vec![0usize; dict.len()];
    let mut non_null = 0;
    for (&code, &ok) in codes.iter().zip(valid) {
        if ok {
            counts[code as usize] += 1;
            non_null += 1;
        }
    }
    let mut entries: Vec<(&str, usize)> =
        dict.iter().zip(counts).filter(|&(_, count)| count > 0).collect();
    entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
    let mut distinct = Distinct::default();
    for run in entries.chunk_by(|a, b| a.0 == b.0) {
        distinct.add_run(run[0].0, run.iter().map(|&(_, count)| count).sum());
    }
    let ends = (entries.first().map(|e| e.0), entries.last().map(|e| e.0));
    assemble(row_count, non_null, distinct, ends, Vec::new(), |text| Value::Str(text.to_owned()))
}

/// Statistics of a `Float` column. Cells are sorted in `f64::total_cmp`
/// order, so a run is one bit pattern: `-0.0` and `0.0` are distinct
/// values, and on a count tie `-0.0` is listed first among the MCVs. Every
/// NaN is one distinct value, represented by the first NaN in row order
/// and ranked by that NaN's place in `total_cmp` order. Min and max are
/// found in row order with `partial_cmp`, NaN comparing equal to
/// everything: the first of equal minima and the last of equal maxima
/// win.
fn float_stats(row_count: usize, mut cells: Vec<f64>) -> ColumnStats {
    let order = |a: &f64, b: &f64| a.partial_cmp(b).unwrap_or(Ordering::Equal);
    let ends = (cells.iter().copied().min_by(order), cells.iter().copied().max_by(order));
    let first_nan = cells.iter().copied().find(|v| v.is_nan());
    cells.sort_unstable_by(f64::total_cmp);

    // Negative NaNs sort before every number, positive NaNs after.
    let numbers_start = cells.partition_point(|v| v.is_nan() && v.is_sign_negative());
    let numbers_end = cells.partition_point(|v| !v.is_nan() || v.is_sign_negative());
    let nans = numbers_start + (cells.len() - numbers_end);
    let mut distinct = Distinct::default();
    if let Some(nan) = first_nan.filter(|v| v.is_sign_negative()) {
        distinct.add_run(nan, nans);
    }
    distinct.add_runs(&cells[numbers_start..numbers_end], |a, b| a.to_bits() == b.to_bits());
    if let Some(nan) = first_nan.filter(|v| v.is_sign_positive()) {
        distinct.add_run(nan, nans);
    }
    let histogram = histogram(&cells, |v| v);
    assemble(row_count, cells.len(), distinct, ends, histogram, Value::Float)
}

/// The distinct values of a column, offered run by run in ascending value
/// order: how many there are, and the `MCV_TARGET` most common ones that
/// occur more than once, count descending. Among equal counts the value
/// offered first stays first, so the MCVs come out ordered by count
/// descending, then value ascending.
struct Distinct<T> {
    count: usize,
    top: Vec<(T, usize)>,
}

impl<T> Default for Distinct<T> {
    fn default() -> Self {
        Distinct { count: 0, top: Vec::with_capacity(MCV_TARGET) }
    }
}

impl<T: Copy> Distinct<T> {
    fn add_run(&mut self, value: T, count: usize) {
        self.count += 1;
        if count < 2 {
            return;
        }
        let at = self.top.partition_point(|&(_, c)| c >= count);
        if at < MCV_TARGET {
            self.top.truncate(MCV_TARGET - 1);
            self.top.insert(at, (value, count));
        }
    }

    /// Adds each maximal run of `same` neighbours in `sorted`.
    fn add_runs(&mut self, sorted: &[T], same: impl FnMut(&T, &T) -> bool) {
        for run in sorted.chunk_by(same) {
            self.add_run(run[0], run.len());
        }
    }
}

/// Equi-depth histogram bounds over sorted cells (`len = buckets + 1`),
/// empty below two cells.
fn histogram<T: Copy>(sorted: &[T], numeric: impl Fn(T) -> f64) -> Vec<f64> {
    if sorted.len() < 2 {
        return Vec::new();
    }
    let buckets = HISTOGRAM_BUCKETS.min(sorted.len() - 1).max(1);
    (0..=buckets).map(|b| numeric(sorted[(b * (sorted.len() - 1)) / buckets])).collect()
}

/// One column's statistics from its parts; `lift` turns a cell into a
/// [`Value`].
fn assemble<T: Copy>(
    row_count: usize,
    non_null: usize,
    distinct: Distinct<T>,
    (min, max): (Option<T>, Option<T>),
    histogram: Vec<f64>,
    lift: impl Fn(T) -> Value,
) -> ColumnStats {
    let mcvs = distinct
        .top
        .into_iter()
        .map(|(v, count)| (lift(v), count as f64 / row_count as f64))
        .collect();
    ColumnStats {
        null_frac: 1.0 - non_null as f64 / row_count as f64,
        n_distinct: distinct.count as f64,
        min: min.map(&lift),
        max: max.map(&lift),
        histogram,
        mcvs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{DataType, TextColumn};

    fn int_table(values: Vec<Option<i64>>) -> Table {
        let mut t = Table::new("t", vec![("x".into(), DataType::Int)]);
        for v in values {
            t.push_row(vec![v.map(Value::Int).unwrap_or(Value::Null)]);
        }
        t
    }

    #[test]
    fn analyze_counts_nulls_and_distinct() {
        let t = int_table(vec![Some(1), Some(1), Some(2), None]);
        let stats = analyze_table(&t);
        let c = &stats.columns["x"];
        assert!((c.null_frac - 0.25).abs() < 1e-9);
        assert_eq!(c.n_distinct, 2.0);
        assert_eq!(c.min, Some(Value::Int(1)));
        assert_eq!(c.max, Some(Value::Int(2)));
    }

    #[test]
    fn mcvs_capture_frequent_values() {
        let t = int_table(vec![Some(5); 10].into_iter().chain(vec![Some(7), Some(8)]).collect());
        let stats = analyze_table(&t);
        let c = &stats.columns["x"];
        assert_eq!(c.mcvs[0].0, Value::Int(5));
        assert!((c.mcvs[0].1 - 10.0 / 12.0).abs() < 1e-9);
        // singletons are not MCVs
        assert_eq!(c.mcvs.len(), 1);
    }

    #[test]
    fn histogram_is_monotone_and_spans_range() {
        let t = int_table((0..1000).map(Some).collect());
        let stats = analyze_table(&t);
        let h = &stats.columns["x"].histogram;
        assert_eq!(h.len(), HISTOGRAM_BUCKETS + 1);
        assert_eq!(h[0], 0.0);
        assert_eq!(*h.last().unwrap(), 999.0);
        assert!(h.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn fraction_below_is_monotone_and_bounded() {
        let t = int_table((0..1000).map(Some).collect());
        let stats = analyze_table(&t);
        let c = &stats.columns["x"];
        assert_eq!(c.fraction_below(-10.0), Some(0.0));
        assert_eq!(c.fraction_below(5000.0), Some(1.0));
        let f250 = c.fraction_below(250.0).unwrap();
        let f750 = c.fraction_below(750.0).unwrap();
        assert!((f250 - 0.25).abs() < 0.02, "got {f250}");
        assert!((f750 - 0.75).abs() < 0.02, "got {f750}");
        assert!(f250 < f750);
    }

    #[test]
    fn fraction_below_handles_skew() {
        // 90% zeros, 10% spread: median-level thresholds should reflect depth.
        let values: Vec<Option<i64>> =
            (0..900).map(|_| Some(0)).chain((0..100).map(|i| Some(i + 1))).collect();
        let t = int_table(values);
        let stats = analyze_table(&t);
        let c = &stats.columns["x"];
        let f = c.fraction_below(1.0).unwrap();
        assert!(f > 0.8, "equi-depth should place most mass below 1, got {f}");
    }

    #[test]
    fn empty_table_yields_empty_stats() {
        let t = int_table(vec![]);
        let stats = analyze_table(&t);
        let c = &stats.columns["x"];
        assert_eq!(c.n_distinct, 0.0);
        assert!(c.min.is_none());
        assert!(c.histogram.is_empty());
    }

    /// A value with every `f64` compared by its bits and the variant kept.
    #[derive(Debug, PartialEq)]
    enum Bits {
        Null,
        Int(i64),
        Float(u64),
        Str(String),
        Bool(bool),
    }

    fn value_bits(v: &Value) -> Bits {
        match v {
            Value::Null => Bits::Null,
            Value::Int(x) => Bits::Int(*x),
            Value::Float(x) => Bits::Float(x.to_bits()),
            Value::Str(s) => Bits::Str(s.clone()),
            Value::Bool(b) => Bits::Bool(*b),
        }
    }

    type StatsBits = (u64, u64, Option<Bits>, Option<Bits>, Vec<u64>, Vec<(Bits, u64)>);

    /// `ColumnStats` as bits: `PartialEq` on `f64` equates `-0.0` with
    /// `0.0` and fails on NaN, so equal bits are checked instead.
    fn stats_bits(c: &ColumnStats) -> StatsBits {
        (
            c.null_frac.to_bits(),
            c.n_distinct.to_bits(),
            c.min.as_ref().map(value_bits),
            c.max.as_ref().map(value_bits),
            c.histogram.iter().map(|x| x.to_bits()).collect(),
            c.mcvs.iter().map(|(v, f)| (value_bits(v), f.to_bits())).collect(),
        )
    }

    /// Asserts that every column of `table` analyzes to the reference's bits.
    fn assert_matches_reference(table: &Table) {
        let stats = analyze_table(table);
        assert_eq!(stats.row_count, table.row_count());
        for (name, column) in table.column_names.iter().zip(&table.columns) {
            let oracle = reference::analyze_column(column, table.row_count());
            assert_eq!(
                stats_bits(&stats.columns[name]),
                stats_bits(&oracle),
                "{}.{name}",
                table.name
            );
        }
    }

    fn float_table(values: &[f64]) -> Table {
        let mut t = Table::new("t", vec![("x".into(), DataType::Float)]);
        for &v in values {
            t.push_row(vec![Value::Float(v)]);
        }
        t
    }

    #[test]
    fn signed_zero_mcv_ties_break_by_total_order() {
        // The reference keeps HashMap order for this tie: `Value::total_cmp`
        // calls -0.0 and 0.0 equal. `f64::total_cmp` puts -0.0 first.
        let t = float_table(&[0.0, -0.0, 0.0, -0.0, 3.0, 3.0]);
        let c = &analyze_table(&t).columns["x"];
        let float = |x: f64| Bits::Float(x.to_bits());
        let order: Vec<Bits> = c.mcvs.iter().map(|(v, _)| value_bits(v)).collect();
        assert_eq!(order, [float(-0.0), float(0.0), float(3.0)]);
        assert_eq!(c.n_distinct, 3.0);
        // min keeps the first of equal minima, max the last of equal maxima.
        assert_eq!(c.min.as_ref().map(value_bits), Some(float(0.0)));
        assert_eq!(c.max.as_ref().map(value_bits), Some(float(3.0)));
    }

    #[test]
    fn every_nan_is_one_distinct_value_led_by_the_first_in_row_order() {
        let quiet_negative = -f64::NAN;
        let payload = f64::from_bits(f64::NAN.to_bits() | 1);
        let t = float_table(&[1.0, quiet_negative, f64::NAN, 2.0, payload, 2.0]);
        let c = &analyze_table(&t).columns["x"];
        assert_eq!(c.n_distinct, 3.0);
        assert_eq!(c.mcvs.len(), 2);
        assert_eq!(value_bits(&c.mcvs[0].0), Bits::Float(quiet_negative.to_bits()));
        assert!((c.mcvs[0].1 - 0.5).abs() < 1e-12);
        assert_eq!(value_bits(&c.mcvs[1].0), Bits::Float(2.0f64.to_bits()));
        assert_matches_reference(&t);
    }

    #[test]
    fn nan_mcv_ties_break_by_the_first_nans_total_order() {
        // NaN ties with every count in the reference's sort. Here the NaN
        // group ranks where its first NaN falls in `f64::total_cmp` order:
        // a positive NaN after every number, a negative NaN before.
        let float = |x: f64| Bits::Float(x.to_bits());
        let mcv_order = |values: &[f64]| -> Vec<Bits> {
            let stats = analyze_table(&float_table(values));
            stats.columns["x"].mcvs.iter().map(|(v, _)| value_bits(v)).collect()
        };
        let (nan, negative_nan) = (f64::NAN, -f64::NAN);
        let positive_first = [2.0, nan, 2.0, negative_nan, 1.0, 1.0];
        assert_eq!(mcv_order(&positive_first), [float(1.0), float(2.0), float(nan)]);
        let negative_first = [2.0, negative_nan, 2.0, nan, 1.0, 1.0];
        assert_eq!(mcv_order(&negative_first), [float(negative_nan), float(1.0), float(2.0)]);
    }

    #[test]
    fn tiny_datasets_analyze_to_the_reference_bits() {
        let databases = [
            crate::datagen::tpch::generate(crate::datagen::tpch::TpchConfig::tiny()),
            crate::datagen::imdb::generate(crate::datagen::imdb::ImdbConfig::tiny()),
        ];
        for db in &databases {
            for name in db.table_names() {
                assert_matches_reference(db.table(name).unwrap());
            }
        }
    }

    mod equivalence {
        use super::*;
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};

        /// Values a column of `data_type` draws from: edge cases first,
        /// then random ones. `Float` columns also load `Value::Int`s,
        /// including neighbours of `i64::MAX` that round to one `f64`.
        fn pool(data_type: DataType, size: usize, rng: &mut StdRng) -> Vec<Value> {
            let specials: Vec<Value> = match data_type {
                DataType::Int => [i64::MIN, i64::MAX, 0, -1, 1].map(Value::Int).to_vec(),
                DataType::Float => {
                    let payload = f64::from_bits(f64::NAN.to_bits() | 1);
                    let nans = [f64::NAN, -f64::NAN, payload];
                    [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 1.5]
                        .into_iter()
                        .chain(nans)
                        .map(Value::Float)
                        .chain([i64::MAX, i64::MAX - 1, 7].map(Value::Int))
                        .collect()
                }
                DataType::Str => {
                    ["", "a", "ab", "b", "B", "é"].map(|s| Value::Str(s.into())).to_vec()
                }
                DataType::Bool => vec![Value::Bool(false), Value::Bool(true)],
            };
            let mut pool = specials;
            pool.shuffle(rng);
            pool.truncate(size);
            while pool.len() < size {
                pool.push(match data_type {
                    DataType::Int => Value::Int(rng.gen_range(-50..50)),
                    DataType::Float if rng.gen_bool(0.5) => Value::Int(rng.gen_range(-50..50)),
                    DataType::Float => Value::Float(f64::from(rng.gen_range(-50i32..50)) / 4.0),
                    DataType::Str => {
                        let len = rng.gen_range(0..3);
                        let text = (0..len).map(|_| char::from(rng.gen_range(b'a'..=b'd')));
                        Value::Str(text.collect())
                    }
                    DataType::Bool => Value::Bool(rng.gen()),
                });
            }
            pool
        }

        /// A one-column table of `rows` cells drawn from a pool of
        /// `pool_size` values: uniformly (`shape` 0, heavy duplicates),
        /// each pool value `shape` times in shuffled order (shapes 1–3,
        /// ignoring `rows`; with a big pool, more than `MCV_TARGET` tied
        /// counts), or mostly distinct (`shape` 4). A cell is NULL with
        /// probability `null_pct`%.
        fn column_table(
            data_type: DataType,
            rows: usize,
            pool_size: usize,
            shape: u8,
            null_pct: u32,
            seed: u64,
        ) -> Table {
            let mut rng = StdRng::seed_from_u64(seed);
            let size = if shape == 4 { rows.max(1) * 4 } else { pool_size };
            let pool = pool(data_type, size, &mut rng);
            let mut cells: Vec<Value> = match shape {
                0 | 4 => (0..rows).map(|_| pool.choose(&mut rng).unwrap().clone()).collect(),
                _ => pool.iter().flat_map(|v| vec![v.clone(); usize::from(shape)]).collect(),
            };
            cells.shuffle(&mut rng);
            let mut t = Table::new("t", vec![("x".into(), data_type)]);
            for cell in cells {
                let null = rng.gen_range(0..100) < null_pct;
                t.push_row(vec![if null { Value::Null } else { cell }]);
            }
            t
        }

        /// Does the reference's output depend on `HashMap` order? Its MCV
        /// sort calls `-0.0` and `0.0` equal and NaN equal to everything,
        /// so a count tie between `±0.0` keeps iteration order, and a
        /// count tie between NaN and any value (even among singletons,
        /// which never become MCVs) makes the comparator inconsistent:
        /// the sort may then misorder that tie or panic.
        fn reference_is_order_dependent(column: &Column) -> bool {
            let Column::Float { values, valid } = column else { return false };
            // Counts per reference key: one for every NaN, else the bits.
            let mut counts = BTreeMap::<u64, usize>::new();
            for (v, _) in values.iter().zip(valid).filter(|&(_, &ok)| ok) {
                let key = if v.is_nan() { f64::NAN.to_bits() } else { v.to_bits() };
                *counts.entry(key).or_default() += 1;
            }
            let count = |x: f64| counts.get(&x.to_bits()).copied().unwrap_or(0);
            let nan = count(f64::NAN);
            let nan_tied =
                nan >= 1 && counts.iter().any(|(&k, &c)| k != f64::NAN.to_bits() && c == nan);
            let zeros = count(0.0);
            let above = counts.values().filter(|&&c| c > zeros).count();
            let zeros_tied = zeros >= 2 && count(-0.0) == zeros && above < MCV_TARGET;
            nan_tied || zeros_tied
        }

        /// A one-column `Str` table of `distinct` texts (awkward ones
        /// first, then random ones over a multibyte alphabet): all of them
        /// in order, in two passes (shape 0) or three (shape 1), where a
        /// later pass reloads evicted texts as new entries; two passes
        /// shuffled (shape 2: every text tied on count); or `distinct` * 4
        /// cells drawn uniformly (shape 3). A cell is NULL with
        /// probability `null_pct`%, and the first row with `null_first`.
        fn text_column(
            distinct: usize,
            shape: u8,
            null_pct: u32,
            null_first: bool,
            seed: u64,
        ) -> Table {
            let mut rng = StdRng::seed_from_u64(seed);
            const ALPHABET: [char; 6] = ['a', 'b', 'é', 'ß', '日', '\u{10348}'];
            let mut pool: Vec<String> = AWKWARD_TEXTS.iter().map(|s| s.to_string()).collect();
            while pool.len() < distinct {
                let len = rng.gen_range(1..6);
                let text: String = (0..len).map(|_| *ALPHABET.choose(&mut rng).unwrap()).collect();
                if !pool.contains(&text) {
                    pool.push(text);
                }
            }
            pool.truncate(distinct);
            let passes = |n: usize| -> Vec<&str> {
                pool.iter().cycle().take(pool.len() * n).map(String::as_str).collect()
            };
            let cells = match shape {
                0 => passes(2),
                1 => passes(3),
                2 => {
                    let mut cells = passes(2);
                    cells.shuffle(&mut rng);
                    cells
                }
                _ => (0..distinct * 4).map(|_| pool.choose(&mut rng).unwrap().as_str()).collect(),
            };
            let null = |row: usize, rng: &mut StdRng| {
                (row == 0 && null_first) || rng.gen_range(0..100) < null_pct
            };
            let cells: Vec<Option<&str>> = cells
                .iter()
                .enumerate()
                .map(|(row, &s)| (!null(row, &mut rng)).then_some(s))
                .collect();
            text_table(cells)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn text_analyze_merges_dictionary_entries_as_the_reference_does(
                distinct in prop::sample::select(vec![1usize, 3, 12, 40, 300, 700]),
                shape in 0u8..=3,
                null_pct in prop::sample::select(vec![0u32, 20, 100]),
                null_first in any::<bool>(),
                seed in any::<u64>(),
            ) {
                let t = text_column(distinct, shape, null_pct, null_first, seed);
                if distinct == 700 && shape < 2 && null_pct == 0 {
                    // The texts overflow the load cache: repeats of
                    // evicted texts are second entries that must merge.
                    prop_assert!(entries(&t) > distinct);
                }
                assert_matches_reference(&t);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn typed_analyze_matches_the_reference_bit_for_bit(
                data_type in prop::sample::select(
                    vec![DataType::Int, DataType::Float, DataType::Str, DataType::Bool],
                ),
                rows in 0usize..=80,
                pool_size in 1usize..=16,
                shape in 0u8..=4,
                null_pct in prop::sample::select(vec![0u32, 20, 100]),
                seed in any::<u64>(),
            ) {
                let t = column_table(data_type, rows, pool_size, shape, null_pct, seed);
                // Skip only inputs whose reference output is itself
                // order-dependent (see `reference_is_order_dependent`).
                prop_assume!(!reference_is_order_dependent(&t.columns[0]));
                assert_matches_reference(&t);
            }
        }
    }

    /// Texts that sort differently by bytes and by `char`s or case, and
    /// the empty string.
    const AWKWARD_TEXTS: [&str; 8] = ["", "a", "ab", "B", "é", "e\u{301}", "日本", "\u{10348}"];

    /// A `Str` table of `texts` (`None` is NULL).
    fn text_table<'a>(texts: impl IntoIterator<Item = Option<&'a str>>) -> Table {
        let mut column = TextColumn::with_capacity(0);
        for text in texts {
            match text {
                Some(text) => column.push(text),
                None => column.push_null(),
            }
        }
        Table::from_columns("t", vec![("s", column.finish())])
    }

    /// Entries of the dictionary of `table`'s only column.
    fn entries(table: &Table) -> usize {
        let Column::Str { dict, .. } = &table.columns[0] else { panic!("not a text column") };
        dict.len()
    }

    #[test]
    fn evicted_texts_merge_back_into_one_value() {
        // 600 distinct texts overflow the load cache, so the second pass
        // appends a second entry for most of them.
        let distinct: Vec<String> = (0..600).map(|i| format!("v{i:03}")).collect();
        let texts = distinct.iter().chain(&distinct).chain(&distinct[..5]);
        let t = text_table(texts.map(|s| Some(s.as_str())));
        assert!(entries(&t) > 700, "only {} entries", entries(&t));
        let c = &analyze_table(&t).columns["s"];
        assert_eq!(c.n_distinct, 600.0);
        let mcvs: Vec<_> = c.mcvs.iter().map(|(v, f)| (v.clone(), *f)).collect();
        let expected: Vec<_> =
            distinct[..5].iter().map(|s| (Value::Str(s.clone()), 3.0 / 1205.0)).collect();
        assert_eq!(mcvs[..5], expected[..]);
        assert_matches_reference(&t);
    }

    #[test]
    fn text_order_is_byte_order() {
        let t = text_table(AWKWARD_TEXTS.iter().rev().map(|&s| Some(s)));
        let c = &analyze_table(&t).columns["s"];
        assert_eq!(c.min, Some(Value::Str(String::new())));
        assert_eq!(c.max, Some(Value::Str("\u{10348}".into())));
        assert_matches_reference(&t);
    }

    #[test]
    fn string_columns_have_no_histogram_but_have_mcvs() {
        let mut t = Table::new("t", vec![("s".into(), DataType::Str)]);
        for _ in 0..5 {
            t.push_row(vec![Value::Str("a".into())]);
        }
        t.push_row(vec![Value::Str("b".into())]);
        let stats = analyze_table(&t);
        let c = &stats.columns["s"];
        assert!(c.histogram.is_empty());
        assert_eq!(c.mcvs[0].0, Value::Str("a".into()));
        assert_eq!(c.n_distinct, 2.0);
    }
}
