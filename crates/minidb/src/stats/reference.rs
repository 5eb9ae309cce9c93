//! The `Value`-per-cell ANALYZE the sort-once typed path replaced, kept
//! unchanged as the test oracle: [`super::analyze_table`] must reproduce
//! its [`ColumnStats`] bits exactly, except where this code's own output
//! depends on `HashMap` iteration order (MCV count ties between `-0.0`
//! and `0.0`, or between NaN and any value).

use super::{ColumnStats, HISTOGRAM_BUCKETS, MCV_TARGET};
use crate::storage::Column;
use sqlkit::Value;
use std::collections::HashMap;

pub(crate) fn analyze_column(column: &Column, row_count: usize) -> ColumnStats {
    if row_count == 0 {
        return ColumnStats {
            null_frac: 0.0,
            n_distinct: 0.0,
            min: None,
            max: None,
            histogram: Vec::new(),
            mcvs: Vec::new(),
        };
    }

    // Gather non-null values and count frequencies via a string key (cheap
    // and type-stable for our four types).
    let mut non_null: Vec<Value> = Vec::with_capacity(row_count);
    for row in 0..row_count {
        let v = column.get(row);
        if !v.is_null() {
            non_null.push(v);
        }
    }
    let null_frac = 1.0 - non_null.len() as f64 / row_count as f64;

    let mut freq: HashMap<String, (Value, usize)> = HashMap::with_capacity(non_null.len() / 4);
    for v in &non_null {
        let key = value_key(v);
        freq.entry(key).or_insert_with(|| (v.clone(), 0)).1 += 1;
    }
    let n_distinct = freq.len() as f64;

    // MCVs: top values that occur more than once.
    let mut by_count: Vec<(Value, usize)> = freq.into_values().collect();
    by_count.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.total_cmp(&b.0)));
    let mcvs: Vec<(Value, f64)> = by_count
        .iter()
        .take(MCV_TARGET)
        .filter(|(_, count)| *count > 1)
        .map(|(v, count)| (v.clone(), *count as f64 / row_count as f64))
        .collect();

    // Min/max via total order.
    let min = non_null.iter().min_by(|a, b| a.total_cmp(b)).cloned();
    let max = non_null.iter().max_by(|a, b| a.total_cmp(b)).cloned();

    // Equi-depth histogram over numeric values.
    let mut numeric: Vec<f64> = non_null.iter().filter_map(Value::as_f64).collect();
    let histogram = if numeric.len() >= 2 {
        numeric.sort_by(f64::total_cmp);
        let buckets = HISTOGRAM_BUCKETS.min(numeric.len() - 1).max(1);
        let mut bounds = Vec::with_capacity(buckets + 1);
        for b in 0..=buckets {
            let idx = (b * (numeric.len() - 1)) / buckets;
            bounds.push(numeric[idx]);
        }
        bounds
    } else {
        Vec::new()
    };

    ColumnStats { null_frac, n_distinct, min, max, histogram, mcvs }
}

/// Stable hashing key for a value (distinguishes 1 from 1.0 — they load
/// into differently-typed columns, so cross-type collisions cannot occur
/// within one column).
fn value_key(v: &Value) -> String {
    match v {
        Value::Int(x) => format!("i{x}"),
        Value::Float(x) => format!("f{x}"),
        Value::Str(s) => format!("s{s}"),
        Value::Bool(b) => format!("b{b}"),
        Value::Null => "n".into(),
    }
}
