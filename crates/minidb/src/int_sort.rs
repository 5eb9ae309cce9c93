//! One stable counting sort per small-range `Int` column, shared by
//! ANALYZE (which needs the column's values in ascending order) and the
//! column's [`crate::index::BtreeIndex`] (which needs `(value as f64,
//! row)` entries in key order, ties in row order).
//!
//! The sort applies when the non-null values span a small range and every
//! value is below 2^53 in magnitude. In that range each `i64` converts to
//! a distinct `f64` in the same order, so ordering by `i64` and then by
//! row is exactly the stable `f64::total_cmp` order of the index entries.
//! At ±2^53 and beyond distinct `i64`s round to one `f64`, and a counting
//! sort by `i64` would order ties differently; such columns, and wide
//! ones, keep the comparison sorts.

/// Values must lie strictly inside `±MAX_EXACT` for the sort to apply.
const MAX_EXACT: i64 = 1 << 53;

/// A small-range `Int` column, stably sorted.
#[derive(Debug)]
pub(crate) struct SortedInts {
    /// The non-null values, ascending.
    pub keys: Vec<i64>,
    /// One `(value as f64, row)` entry per non-null cell, by value then
    /// row; empty unless asked for.
    pub entries: Vec<(f64, u32)>,
}

/// Counting-sorts the non-null cells of an `Int` column in O(n + range),
/// with index entries when `with_entries`. `None` when the values span
/// more than `4·n + 1024`, reach ±2^53, or the rows do not fit `u32` ids:
/// the caller then falls back to a comparison sort.
pub(crate) fn counting_sort(
    values: &[i64],
    valid: &[bool],
    with_entries: bool,
) -> Option<SortedInts> {
    let cells = || values.iter().zip(valid).filter(|&(_, &ok)| ok).map(|(&v, _)| v);
    let (mut n, mut lo, mut hi) = (0usize, i64::MAX, i64::MIN);
    for v in cells() {
        n += 1;
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if n == 0 {
        return Some(SortedInts { keys: Vec::new(), entries: Vec::new() });
    }
    if lo <= -MAX_EXACT || hi >= MAX_EXACT || u32::try_from(values.len()).is_err() {
        return None;
    }
    // Both ends are inside ±2^53, so neither the span nor the bound overflows.
    let range = (hi - lo) as usize + 1;
    if range > 4 * n + 1024 {
        return None;
    }
    let mut counts = vec![0u32; range];
    for v in cells() {
        counts[(v - lo) as usize] += 1;
    }
    let mut keys = Vec::with_capacity(n);
    for (offset, &count) in counts.iter().enumerate() {
        keys.extend(std::iter::repeat_n(lo + offset as i64, count as usize));
    }
    let mut entries = Vec::new();
    if with_entries {
        // Counts become each value's next free slot.
        let mut next = 0u32;
        for slot in &mut counts {
            let count = *slot;
            *slot = next;
            next += count;
        }
        entries = vec![(0.0, 0u32); n];
        for (row, (&v, &ok)) in values.iter().zip(valid).enumerate() {
            if ok {
                let slot = &mut counts[(v - lo) as usize];
                entries[*slot as usize] = (v as f64, row as u32);
                *slot += 1;
            }
        }
    }
    Some(SortedInts { keys, entries })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorts_keys_and_entries_stably() {
        let values = [3, -1, 3, 0, 7, -1];
        let valid = [true, true, true, false, true, true];
        let sorted = counting_sort(&values, &valid, true).unwrap();
        assert_eq!(sorted.keys, [-1, -1, 3, 3, 7]);
        assert_eq!(sorted.entries, [(-1.0, 1), (-1.0, 5), (3.0, 0), (3.0, 2), (7.0, 4)]);
        assert!(counting_sort(&values, &valid, false).unwrap().entries.is_empty());
    }

    #[test]
    fn empty_and_all_null_columns_sort_to_nothing() {
        for (values, valid) in [(&[][..], &[][..]), (&[5, 6][..], &[false, false][..])] {
            let sorted = counting_sort(values, valid, true).unwrap();
            assert!(sorted.keys.is_empty() && sorted.entries.is_empty());
        }
    }

    #[test]
    fn wide_or_inexact_columns_fall_back() {
        let all = [true; 2];
        // Two cells may span at most 4·2 + 1024 = 1032 values.
        assert!(counting_sort(&[0, 1031], &all, true).is_some());
        assert!(counting_sort(&[0, 1032], &all, true).is_none());
        assert!(counting_sort(&[i64::MIN, i64::MAX], &all, true).is_none());
        // A narrow span at ±2^53: `i64`s there share `f64` keys.
        assert!(counting_sort(&[MAX_EXACT, MAX_EXACT + 1], &all, true).is_none());
        assert!(counting_sort(&[-MAX_EXACT, -MAX_EXACT + 1], &all, true).is_none());
        assert!(counting_sort(&[MAX_EXACT - 2, MAX_EXACT - 1], &all, true).is_some());
        assert!(counting_sort(&[1 - MAX_EXACT, 2 - MAX_EXACT], &all, true).is_some());
    }
}
