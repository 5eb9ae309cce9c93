//! Join path generation (§4 Step 2).
//!
//! The template generator enumerates join paths over the database's
//! foreign-key graph and, per template, randomly samples one path with the
//! requested number of joins. Randomness buys diversity across templates,
//! prompt compression (only the sampled path's tables go into the prompt),
//! and robustness to long-context degradation — the three §4 arguments.

use minidb::Database;
use rand::rngs::StdRng;
use rand::Rng;

/// One join step: `(table1, column1, table2, column2)`.
pub type JoinStep = (String, String, String, String);

/// Sample a random simple join path with exactly `num_joins` steps from
/// the FK graph, by random walk with restarts. Returns `None` when the
/// graph cannot support such a path (e.g. more joins than edges, or no
/// FK edges at all).
pub fn sample_join_path(db: &Database, num_joins: u32, rng: &mut StdRng) -> Option<Vec<JoinStep>> {
    if num_joins == 0 {
        return Some(Vec::new());
    }
    let edges: Vec<JoinStep> = db
        .foreign_keys()
        .iter()
        .map(|fk| {
            (fk.table.clone(), fk.column.clone(), fk.ref_table.clone(), fk.ref_column.clone())
        })
        .collect();
    if edges.is_empty() {
        return None;
    }

    // Size-aware edge weights: an LLM prompted with table sizes gravitates
    // to the fact-table joins a production workload would exercise; pure
    // uniform edge choice would anchor most templates on tiny dimension
    // tables.
    let rows = |table: &str| db.stats(table).map(|s| s.row_count as f64).unwrap_or(1.0);
    let edge_weight = |step: &JoinStep| (rows(&step.0) + rows(&step.2)).max(1.0).sqrt();

    'attempt: for _ in 0..64 {
        let mut path: Vec<JoinStep> = Vec::with_capacity(num_joins as usize);
        let mut tables: Vec<String> = Vec::new();
        let first = pick_weighted(&edges, edge_weight, rng);
        if first.0 == first.2 {
            continue; // self-referencing edge cannot start a simple path
        }
        path.push(first.clone());
        tables.push(first.0.clone());
        tables.push(first.2.clone());

        while path.len() < num_joins as usize {
            // Edges touching exactly one bound table (grow the tree).
            let frontier: Vec<JoinStep> = edges
                .iter()
                .filter(|(t, _, rt, _)| {
                    tables.iter().any(|b| b == t) != tables.iter().any(|b| b == rt)
                })
                .cloned()
                .collect();
            if frontier.is_empty() {
                continue 'attempt;
            }
            let step = pick_weighted(&frontier, edge_weight, rng).clone();
            let new_table = if tables.contains(&step.0) { step.2.clone() } else { step.0.clone() };
            tables.push(new_table);
            path.push(step);
        }
        return Some(path);
    }
    None
}

/// Weighted random choice (weights need not be normalized).
fn pick_weighted<'a, T>(items: &'a [T], weight: impl Fn(&T) -> f64, rng: &mut StdRng) -> &'a T {
    let total: f64 = items.iter().map(&weight).sum();
    if total <= 0.0 {
        return &items[rng.gen_range(0..items.len())];
    }
    let mut roll = rng.gen::<f64>() * total;
    for item in items {
        roll -= weight(item);
        if roll <= 0.0 {
            return item;
        }
    }
    items.last().expect("nonempty")
}

/// Distinct tables touched by a path (`num_joins + 1` for simple paths).
pub fn path_tables(path: &[JoinStep]) -> Vec<String> {
    let mut tables = Vec::new();
    for (t1, _, t2, _) in path {
        if !tables.contains(t1) {
            tables.push(t1.clone());
        }
        if !tables.contains(t2) {
            tables.push(t2.clone());
        }
    }
    tables
}

/// Schema summary restricted to the path's tables (prompt compression: the
/// paper includes "only those [tables and columns] involved in the sampled
/// join path"). With an empty path the full summary is returned.
pub fn compressed_summary(db: &Database, path: &[JoinStep]) -> String {
    if path.is_empty() {
        return db.schema_summary();
    }
    let keep = path_tables(path);
    let full = db.schema_summary();
    let mut out = String::new();
    let mut keeping = false;
    let mut in_fks = false;
    for line in full.lines() {
        if line.starts_with("Database:") {
            out.push_str(line);
            out.push('\n');
        } else if let Some(rest) = line.strip_prefix("Table ") {
            let name = rest.split_whitespace().next().unwrap_or("");
            keeping = keep.iter().any(|t| t == name);
            in_fks = false;
            if keeping {
                out.push_str(line);
                out.push('\n');
            }
        } else if line.starts_with("Foreign keys:") {
            in_fks = true;
            out.push_str(line);
            out.push('\n');
        } else if in_fks {
            // keep FK lines between kept tables
            let relevant = keep.iter().filter(|t| line.contains(t.as_str())).count() >= 2
                || keep.iter().any(|t| {
                    line.trim().starts_with(&format!("{t}."))
                        && keep.iter().any(|u| line.contains(&format!("-> {u}.")))
                });
            if relevant {
                out.push_str(line);
                out.push('\n');
            }
        } else if keeping {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn tpch() -> Database {
        minidb::datagen::tpch::generate(minidb::datagen::tpch::TpchConfig::tiny())
    }

    #[test]
    fn sampled_paths_have_requested_length_and_are_simple() {
        let db = tpch();
        let mut rng = StdRng::seed_from_u64(5);
        for joins in 1..=5u32 {
            let path = sample_join_path(&db, joins, &mut rng)
                .unwrap_or_else(|| panic!("no path with {joins} joins"));
            assert_eq!(path.len(), joins as usize);
            assert_eq!(path_tables(&path).len(), joins as usize + 1, "not simple: {path:?}");
        }
    }

    #[test]
    fn zero_joins_is_an_empty_path() {
        let db = tpch();
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(sample_join_path(&db, 0, &mut rng), Some(Vec::new()));
    }

    #[test]
    fn paths_are_diverse_across_samples() {
        let db = tpch();
        let mut rng = StdRng::seed_from_u64(6);
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..30 {
            if let Some(path) = sample_join_path(&db, 2, &mut rng) {
                distinct.insert(format!("{path:?}"));
            }
        }
        assert!(distinct.len() >= 5, "only {} distinct paths", distinct.len());
    }

    #[test]
    fn compressed_summary_contains_only_path_tables() {
        let db = tpch();
        let path = vec![(
            "orders".to_string(),
            "o_custkey".to_string(),
            "customer".to_string(),
            "c_custkey".to_string(),
        )];
        let summary = compressed_summary(&db, &path);
        assert!(summary.contains("Table orders"));
        assert!(summary.contains("Table customer"));
        assert!(!summary.contains("Table lineitem"));
        assert!(!summary.contains("Table part "));
        // prompt compression: meaningfully smaller than the full summary
        assert!(summary.len() < db.schema_summary().len() / 2);
        // relevant FK kept
        assert!(summary.contains("orders.o_custkey -> customer.c_custkey"));
    }

    #[test]
    fn imdb_supports_long_paths() {
        let db = minidb::datagen::imdb::generate(minidb::datagen::imdb::ImdbConfig::tiny());
        let mut rng = StdRng::seed_from_u64(9);
        let path = sample_join_path(&db, 5, &mut rng).expect("21-table graph supports 5 joins");
        assert_eq!(path.len(), 5);
    }
}
