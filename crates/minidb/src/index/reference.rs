//! The index build the shared counting sort replaced for small-range
//! `Int` columns, kept unchanged as the test oracle: every column's
//! entries, `(key, row)` pairs stably sorted by `f64::total_cmp`, must
//! come out bit for bit the same from [`super::BtreeIndex::build`] and
//! from `Database::add_table`.

use crate::storage::{Column, Table};

pub(crate) fn entries(table: &Table, column_name: &str) -> Option<Vec<(f64, u32)>> {
    let idx = table.column_index(column_name)?;
    let column = &table.columns[idx];
    let mut entries: Vec<(f64, u32)> = Vec::with_capacity(table.row_count());
    match column {
        Column::Int { values, valid } => {
            for (row, (&v, &ok)) in values.iter().zip(valid).enumerate() {
                if ok {
                    entries.push((v as f64, row as u32));
                }
            }
        }
        Column::Float { values, valid } => {
            for (row, (&v, &ok)) in values.iter().zip(valid).enumerate() {
                if ok {
                    entries.push((v, row as u32));
                }
            }
        }
        _ => return None,
    }
    entries.sort_by(|a, b| a.0.total_cmp(&b.0));
    Some(entries)
}
