//! R1 fixtures: unordered iteration over hash containers.
use std::collections::{BTreeMap, HashMap, HashSet};

fn iterate(m: &HashMap<u32, String>) -> Vec<String> {
    let mut out = Vec::new();
    for (_k, v) in m.iter() {
        out.push(v.clone());
    }
    out
}

fn count(m: &HashMap<u32, String>) -> usize {
    m.iter().count()
}

fn sorted(m: &HashMap<u32, String>) -> Vec<u32> {
    let mut keys: Vec<u32> = m.keys().copied().collect();
    keys.sort_unstable();
    keys
}

fn ordered(b: &BTreeMap<u32, String>) -> Vec<String> {
    b.values().cloned().collect()
}

fn leak(set: &HashSet<u32>) -> String {
    format!("{set:?}")
}

// rustfmt breaks a long chain before each call: the receiver is on the
// line above the sink.
fn broken_chain(m: &HashMap<u32, String>) -> Vec<String> {
    m
        .values()
        .cloned()
        .collect()
}

fn broken_count(m: &HashMap<u32, String>) -> usize {
    m
        // order-insensitive: only counts
        .iter()
        .count()
}

// A copy iterates in the order of what it copies.
fn cloned(m: &HashMap<u32, String>) -> Vec<String> {
    m.clone().into_values().collect()
}

fn cloned_broken_chain(m: &HashMap<u32, String>) -> Vec<String> {
    m
        .to_owned()
        .clone()
        .into_values()
        .collect()
}

fn cloned_count(m: &HashMap<u32, String>) -> usize {
    m.clone().into_values().count()
}
