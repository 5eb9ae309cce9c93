//! Secondary indexes.
//!
//! A [`BtreeIndex`] is a sorted `(key, row)` array over one numeric column
//! — the in-memory analogue of a B-tree. Indexes are built automatically
//! for the primary key and every column declared in `add_table`'s index
//! list. The planner chooses an index path when a selective range/equality
//! predicate makes it cheaper than a sequential scan (using
//! `random_page_cost`-weighted costing, as PostgreSQL does), and the
//! executor probes the sorted array by binary search.

use crate::int_sort::counting_sort;
use crate::storage::{Column, Table};

#[cfg(test)]
mod reference;

/// A sorted index over one numeric column.
#[derive(Debug, Clone)]
pub struct BtreeIndex {
    /// Indexed column name.
    pub column: String,
    /// `(key, row id)` pairs sorted by key; NULL rows are excluded.
    entries: Vec<(f64, u32)>,
}

impl BtreeIndex {
    /// Build an index over a numeric column. Returns `None` for
    /// non-numeric columns (string indexes are declared in the schema for
    /// metadata purposes but not materialized).
    pub fn build(table: &Table, column_name: &str) -> Option<BtreeIndex> {
        Self::build_sharing_keys(table, table.column_index(column_name)?).map(|(index, _)| index)
    }

    /// [`BtreeIndex::build`] over the column at position `at`, also
    /// returning the column's non-null values in ascending order when a
    /// small-range `Int` column was indexed by [`counting_sort`]: ANALYZE
    /// needs exactly those keys, and the sort yields them alongside the
    /// entries. Other columns keep a stable `f64::total_cmp` sort of their
    /// `(key, row)` pairs, and the same entries come out either way.
    pub(crate) fn build_sharing_keys(
        table: &Table,
        at: usize,
    ) -> Option<(BtreeIndex, Option<Vec<i64>>)> {
        let column = &table.columns[at];
        let (entries, keys) = match column {
            Column::Int { values, valid } => match counting_sort(values, valid, true) {
                Some(sorted) => (sorted.entries, Some(sorted.keys)),
                None => (sorted_entries(values, valid, |&v| v as f64), None),
            },
            Column::Float { values, valid } => (sorted_entries(values, valid, |&v| v), None),
            _ => return None,
        };
        Some((BtreeIndex { column: table.column_names[at].clone(), entries }, keys))
    }

    /// Row ids whose key lies in `[lo, hi]` (either bound optional).
    pub fn probe(&self, lo: Option<f64>, hi: Option<f64>) -> Vec<u32> {
        self.probe_slice(lo, hi).iter().map(|(_, row)| *row).collect()
    }

    /// Borrowed `(key, row id)` entries whose key lies in `[lo, hi]`
    /// (either bound optional), in key order. Allocation-free variant of
    /// [`BtreeIndex::probe`] for hot per-binding loops.
    pub fn probe_slice(&self, lo: Option<f64>, hi: Option<f64>) -> &[(f64, u32)] {
        let start = match lo {
            Some(lo) => self.entries.partition_point(|(k, _)| *k < lo),
            None => 0,
        };
        let end = match hi {
            Some(hi) => self.entries.partition_point(|(k, _)| *k <= hi),
            None => self.entries.len(),
        };
        if start >= end {
            return &[];
        }
        &self.entries[start..end]
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// `(key(value), row)` for every non-null cell, stably sorted by key in
/// `f64::total_cmp` order.
fn sorted_entries<T>(values: &[T], valid: &[bool], key: impl Fn(&T) -> f64) -> Vec<(f64, u32)> {
    let mut entries = Vec::with_capacity(values.len());
    for (row, (v, &ok)) in values.iter().zip(valid).enumerate() {
        if ok {
            entries.push((key(v), row as u32));
        }
    }
    entries.sort_by(|a, b| a.0.total_cmp(&b.0));
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::DataType;
    use sqlkit::Value;

    fn table() -> Table {
        let mut t = Table::new("t", vec![("x".into(), DataType::Int), ("s".into(), DataType::Str)]);
        for i in [5i64, 1, 9, 3, 7] {
            t.push_row(vec![Value::Int(i), Value::Str(format!("v{i}"))]);
        }
        t.push_row(vec![Value::Null, Value::Str("n".into())]);
        t
    }

    #[test]
    fn probe_returns_rows_in_key_range() {
        let index = BtreeIndex::build(&table(), "x").unwrap();
        assert_eq!(index.len(), 5); // null excluded
        let mut rows = index.probe(Some(3.0), Some(7.0));
        rows.sort_unstable();
        // keys 3,5,7 live at rows 3,0,4
        assert_eq!(rows, vec![0, 3, 4]);
    }

    #[test]
    fn open_ended_probes() {
        let index = BtreeIndex::build(&table(), "x").unwrap();
        assert_eq!(index.probe(None, None).len(), 5);
        assert_eq!(index.probe(Some(8.0), None), vec![2]); // key 9 at row 2
        let mut low = index.probe(None, Some(1.0));
        low.sort_unstable();
        assert_eq!(low, vec![1]);
        assert!(index.probe(Some(10.0), Some(20.0)).is_empty());
        assert!(index.probe(Some(5.0), Some(4.0)).is_empty()); // inverted
    }

    #[test]
    fn string_columns_are_not_materialized() {
        assert!(BtreeIndex::build(&table(), "s").is_none());
        assert!(BtreeIndex::build(&table(), "missing").is_none());
    }

    mod equivalence {
        use super::*;
        use crate::catalog::Database;
        use crate::stats::reference::analyze_column;
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        const EXACT: i64 = 1 << 53;

        /// An `Int` cell value around `center`: within `spread` of it, or
        /// (with `outliers`) sometimes anywhere in `i64`, which widens the
        /// range past the counting sort's bound.
        fn cell(rng: &mut StdRng, center: i64, spread: i64, outliers: bool) -> i64 {
            if outliers && rng.gen_range(0..10) == 0 {
                return rng.gen();
            }
            center.saturating_add(rng.gen_range(-spread..=spread))
        }

        /// Two `Int` columns (`x` indexed, `y` not) of `rows` cells around
        /// `center`, each NULL with probability `null_pct`%.
        fn int_table(
            rows: usize,
            center: i64,
            spread: i64,
            outliers: bool,
            null_pct: u32,
            seed: u64,
        ) -> Table {
            let mut rng = StdRng::seed_from_u64(seed);
            let layout = vec![("x".into(), DataType::Int), ("y".into(), DataType::Int)];
            let mut t = Table::new("t", layout);
            for _ in 0..rows {
                let mut value = || match rng.gen_range(0..100) < null_pct {
                    true => Value::Null,
                    false => Value::Int(cell(&mut rng, center, spread, outliers)),
                };
                let row = [value(), value()];
                t.push_row(row);
            }
            t
        }

        fn bits(entries: &[(f64, u32)]) -> Vec<(u64, u32)> {
            entries.iter().map(|&(key, row)| (key.to_bits(), row)).collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn shared_sort_matches_the_reference_index_and_statistics(
                rows in 0usize..=120,
                center in prop::sample::select(vec![
                    0i64, -1_000, 1_000_000, EXACT - 3, -EXACT + 3, EXACT, -EXACT, EXACT + 5,
                    -EXACT - 5, i64::MAX - 10, i64::MIN + 10,
                ]),
                spread in prop::sample::select(vec![0i64, 2, 30, 5_000, 1 << 40]),
                outliers in any::<bool>(),
                null_pct in prop::sample::select(vec![0u32, 20, 100]),
                seed in any::<u64>(),
            ) {
                let t = int_table(rows, center, spread, outliers, null_pct, seed);
                let expected = reference::entries(&t, "x").unwrap();
                let built = BtreeIndex::build(&t, "x").unwrap();
                prop_assert_eq!(bits(built.probe_slice(None, None)), bits(&expected));

                let mut db = Database::new("d");
                db.add_table(t.clone(), Some("x"), &[]);
                let index = db.index_on("t", "x").unwrap();
                prop_assert_eq!(bits(index.probe_slice(None, None)), bits(&expected));
                // `Int` statistics hold no NaN or -0.0, so `==` compares bits.
                let stats = db.stats("t").unwrap();
                for (at, name) in ["x", "y"].into_iter().enumerate() {
                    let oracle = analyze_column(&t.columns[at], t.row_count());
                    prop_assert_eq!(&stats.columns[name], &oracle, "{}", name);
                }
            }
        }
    }
}
