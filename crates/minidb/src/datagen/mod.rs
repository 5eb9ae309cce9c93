//! Deterministic dataset generators.
//!
//! The paper evaluates on TPC-H (scale factor 10) and on the real IMDB
//! dataset (21 tables, the Join Order Benchmark schema). Neither is
//! shippable in a self-contained repository, so this module generates
//! deterministic, seeded synthetic instances with the same schemas,
//! foreign-key graphs, and *qualitative* value distributions (skewed
//! fan-outs, heavy-tailed amounts), at a configurable laptop scale.
//!
//! What the SQLBarber algorithms consume is the cost landscape induced by
//! these schemas and statistics, which is preserved; see DESIGN.md's
//! substitution table.
//!
//! A generator hands each finished table to a [`Loader`]: one helper
//! thread builds the table's indexes and statistics while the generator
//! draws the next table from its single RNG stream (see [`load`]).

pub mod imdb;
pub mod tpch;

use crate::catalog::{indexed_columns, Database};
use crate::index::BtreeIndex;
use crate::stats::ColumnStats;
use crate::storage::Table;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// Build database `name` from the tables `generate` hands to its
/// [`Loader`]. Each column of each table is one job, the work
/// [`Database::load_column`] does. Exactly one helper thread takes the
/// jobs in hand-over order while `generate` runs; once `generate`
/// returns, the calling thread takes jobs too, so the last tables (TPC-H's
/// largest, `lineitem`, comes last) are loaded on both cores. A column's
/// index and statistics depend on that column alone, so the database
/// equals the one sequential [`Database::add_table`] calls build, bit for
/// bit, whichever thread loads which column.
///
/// A panic in `generate` or in a job propagates out of `load`.
fn load(name: &str, generate: impl FnOnce(&mut Loader<'_>)) -> Database {
    let queue = LoadQueue { jobs: Mutex::new(Jobs::default()), ready: Condvar::new() };
    let mut loader = Loader { queue: &queue, tables: Vec::new() };
    let (mine, theirs) = std::thread::scope(|scope| {
        let helper = scope.spawn(|| queue.run_jobs());
        {
            // Closes the queue also when `generate` unwinds, so the
            // helper never waits for a table that is not coming.
            let _close = Close(&queue);
            generate(&mut loader);
        }
        let mine = queue.run_jobs();
        let theirs = helper.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        (mine, theirs)
    });

    let mut loaded: Vec<Vec<Option<LoadedColumn>>> =
        loader.tables.iter().map(|t| (0..t.table.columns.len()).map(|_| None).collect()).collect();
    for (ordinal, at, column) in mine.into_iter().chain(theirs) {
        loaded[ordinal][at] = Some(column);
    }
    let mut db = Database::new(name);
    for (handed, columns) in loader.tables.into_iter().zip(loaded) {
        let table = Arc::try_unwrap(handed.table).expect("every job has dropped its table");
        let columns = columns.into_iter().map(|c| c.expect("every column was loaded")).collect();
        let indexes: Vec<&str> = handed.indexes.iter().map(String::as_str).collect();
        db.insert_loaded(table, handed.primary_key.as_deref(), &indexes, columns);
    }
    db
}

/// The result of [`Database::load_column`].
type LoadedColumn = (Option<BtreeIndex>, ColumnStats);

/// Takes a generator's tables for [`load`].
struct Loader<'a> {
    queue: &'a LoadQueue,
    /// Every table handed over, in hand-over order.
    tables: Vec<Handed>,
}

/// A table handed to the [`Loader`], with its keys.
struct Handed {
    table: Arc<Table>,
    primary_key: Option<String>,
    indexes: Vec<String>,
}

impl Loader<'_> {
    /// Hand over a finished table with its primary key and index columns
    /// (as [`Database::add_table`] takes them): queue one job per column
    /// and return at once.
    fn add_table(&mut self, table: Table, primary_key: Option<&str>, indexes: &[&str]) {
        let indexed = indexed_columns(&table, primary_key, indexes);
        let table = Arc::new(table);
        let ordinal = self.tables.len();
        let jobs = indexed.into_iter().enumerate().map(|(at, indexed)| Job {
            table: Arc::clone(&table),
            ordinal,
            at,
            indexed,
        });
        self.queue.jobs.lock().expect("no thread panics holding the load queue").queue.extend(jobs);
        self.queue.ready.notify_one();
        self.tables.push(Handed {
            table,
            primary_key: primary_key.map(str::to_string),
            indexes: indexes.iter().map(|s| s.to_string()).collect(),
        });
    }
}

/// One column to load: column `at` of the `ordinal`-th table handed over.
struct Job {
    table: Arc<Table>,
    ordinal: usize,
    at: usize,
    indexed: bool,
}

/// The jobs waiting, and whether more can come.
#[derive(Default)]
struct Jobs {
    queue: VecDeque<Job>,
    closed: bool,
}

/// A FIFO of [`Job`]s under one lock, which no code holds while it takes
/// another or while it runs a job.
struct LoadQueue {
    jobs: Mutex<Jobs>,
    /// Signalled when a job arrives or the queue closes.
    ready: Condvar,
}

impl LoadQueue {
    /// Run jobs until the queue is closed and empty, returning each
    /// result with its table ordinal and column position.
    fn run_jobs(&self) -> Vec<(usize, usize, LoadedColumn)> {
        let mut done = Vec::new();
        while let Some(job) = self.next_job() {
            let column = Database::load_column(&job.table, job.at, job.indexed);
            done.push((job.ordinal, job.at, column));
        }
        done
    }

    /// The oldest job, waiting for one while the queue is open; `None`
    /// once it is closed and empty.
    fn next_job(&self) -> Option<Job> {
        let mut jobs = self.jobs.lock().expect("no thread panics holding the load queue");
        loop {
            if let Some(job) = jobs.queue.pop_front() {
                return Some(job);
            }
            if jobs.closed {
                return None;
            }
            jobs = self.ready.wait(jobs).expect("no thread panics holding the load queue");
        }
    }
}

/// Closes a [`LoadQueue`] when dropped. On unwind it also drops the jobs
/// still waiting, as nobody will collect their results.
struct Close<'a>(&'a LoadQueue);

impl Drop for Close<'_> {
    fn drop(&mut self) {
        // Every update under this lock is a single push, pop or store, so
        // the state is valid even if a holder panicked; and a panic here,
        // perhaps during an unwind, would abort.
        let mut jobs = self.0.jobs.lock().unwrap_or_else(PoisonError::into_inner);
        jobs.closed = true;
        if std::thread::panicking() {
            jobs.queue.clear();
        }
        drop(jobs);
        self.0.ready.notify_all();
    }
}

/// `N` empty vectors with room for `rows` values each: the columns of a
/// table a generator draws into.
fn columns<T, const N: usize>(rows: usize) -> [Vec<T>; N] {
    std::array::from_fn(|_| Vec::with_capacity(rows))
}

/// Sample an index in `[0, n)` with a power-law (Zipf-like) skew.
/// `skew = 0` is uniform; larger values concentrate mass on low indices.
pub fn powerlaw_index(rng: &mut StdRng, n: usize, skew: f64) -> usize {
    debug_assert!(n > 0);
    if skew <= 0.0 {
        return rng.gen_range(0..n);
    }
    let u: f64 = rng.gen::<f64>();
    // Inverse-transform of p(x) ∝ x^(-skew/(1+skew)) on [0,1).
    let exponent = 1.0 + skew;
    let x = u.powf(exponent);
    ((x * n as f64) as usize).min(n - 1)
}

/// Sample from a log-normal-ish heavy tail with the given median and
/// spread (σ of the underlying normal), clamped to `max`.
pub fn heavy_tail(rng: &mut StdRng, median: f64, sigma: f64, max: f64) -> f64 {
    let z = standard_normal(rng);
    (median * (sigma * z).exp()).min(max)
}

/// Standard normal via Box–Muller (no external distribution crates).
pub fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Deterministic word pool for synthetic text columns.
pub const WORDS: [&str; 32] = [
    "amber", "basalt", "cedar", "delta", "ember", "fjord", "garnet", "harbor", "indigo", "juniper",
    "krypton", "lumen", "maple", "nickel", "onyx", "prism", "quartz", "raven", "sable", "tundra",
    "umber", "vertex", "willow", "xenon", "yarrow", "zephyr", "cobalt", "dune", "echo", "flint",
    "grove", "haze",
];

/// Deterministic synthetic name: two pooled words plus a number, written
/// into `buf` and returned. A loader reuses one buffer, so a synthetic
/// text cell allocates nothing.
pub fn synth_name<'b>(rng: &mut StdRng, prefix: &str, buf: &'b mut String) -> &'b str {
    let a = WORDS[rng.gen_range(0..WORDS.len())];
    let b = WORDS[rng.gen_range(0..WORDS.len())];
    let n: u32 = rng.gen_range(0..10_000);
    join_name(buf, prefix, a, b, n);
    buf
}

/// Replace `buf`'s text with `{prefix}_{a}_{b}_{n}` (no formatting
/// machinery: this runs once per synthetic text cell).
fn join_name(buf: &mut String, prefix: &str, a: &str, b: &str, n: u32) {
    let mut digits = [0u8; 10];
    let mut start = digits.len();
    let mut rest = n;
    loop {
        start -= 1;
        digits[start] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    buf.clear();
    for part in [prefix, "_", a, "_", b, "_"] {
        buf.push_str(part);
    }
    buf.extend(digits[start..].iter().map(|&d| char::from(d)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn powerlaw_is_skewed_toward_low_indices() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 1000;
        let samples: Vec<usize> = (0..20_000).map(|_| powerlaw_index(&mut rng, n, 1.5)).collect();
        let low = samples.iter().filter(|&&i| i < n / 10).count();
        assert!(low as f64 > 0.3 * samples.len() as f64, "low bucket {low}");
        assert!(samples.iter().all(|&i| i < n));
    }

    #[test]
    fn powerlaw_zero_skew_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 10;
        let mut counts = [0usize; 10];
        for _ in 0..20_000 {
            counts[powerlaw_index(&mut rng, n, 0.0)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 2000.0).abs() < 300.0, "count {c}");
        }
    }

    #[test]
    fn heavy_tail_median_is_near_parameter() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut samples: Vec<f64> =
            (0..10_001).map(|_| heavy_tail(&mut rng, 100.0, 1.0, 1e9)).collect();
        samples.sort_by(f64::total_cmp);
        let median = samples[5000];
        assert!((median - 100.0).abs() < 15.0, "median {median}");
    }

    #[test]
    fn standard_normal_has_zero_mean_unit_variance() {
        let mut rng = StdRng::seed_from_u64(7);
        let samples: Vec<f64> = (0..50_000).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var =
            samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / samples.len() as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn join_name_matches_format_for_every_number() {
        // One buffer throughout, as a loader uses it: each call replaces
        // the text, longer or shorter.
        let mut buf = String::new();
        for n in 0..10_000 {
            join_name(&mut buf, "title", "amber", "haze", n);
            assert_eq!(buf, format!("title_amber_haze_{n}"));
        }
        for n in [10_000, 99_999, 1_000_000, u32::MAX] {
            join_name(&mut buf, "kw", "dune", "echo", n);
            assert_eq!(buf, format!("kw_dune_echo_{n}"));
        }
        join_name(&mut buf, "", "", "", 0);
        assert_eq!(buf, "___0");
    }

    #[test]
    fn synth_name_matches_the_format_reference_draw_for_draw() {
        // The `format!` version this replaced, with the same draws.
        fn reference(rng: &mut StdRng, prefix: &str) -> String {
            let a = WORDS[rng.gen_range(0..WORDS.len())];
            let b = WORDS[rng.gen_range(0..WORDS.len())];
            let n: u32 = rng.gen_range(0..10_000);
            format!("{prefix}_{a}_{b}_{n}")
        }
        let mut rng = StdRng::seed_from_u64(11);
        let mut oracle = StdRng::seed_from_u64(11);
        let mut buf = String::new();
        for i in 0..20_000 {
            let prefix = ["title", "person", "kw", "", "supplier"][i % 5];
            let name = synth_name(&mut rng, prefix, &mut buf);
            assert_eq!(name, reference(&mut oracle, prefix));
        }
        assert_eq!(rng.gen::<u64>(), oracle.gen::<u64>(), "RNG streams diverged");
    }

    mod loader {
        use super::*;
        use crate::storage::DataType;
        use proptest::prelude::*;
        use sqlkit::Value;

        /// A table to hand over, with its primary key and index names.
        type Keyed = (Table, Option<String>, Vec<String>);

        /// One cell of a column of kind `kind` (see [`random_table`]),
        /// NULL with probability `null_pct`%.
        fn cell(rng: &mut StdRng, kind: u32, null_pct: u32) -> Value {
            if kind == 6 || rng.gen_range(0..100) < null_pct {
                return Value::Null;
            }
            match kind {
                0 => Value::Int(rng.gen_range(-5..=20)),
                1 => Value::Int(rng.gen::<i64>() >> rng.gen_range(0..63)),
                2 => Value::Float(
                    [-0.0, 0.0, 1.5, -2.25, f64::NAN, 1e300][rng.gen_range(0..6)]
                        * f64::from(rng.gen_range(1..4)),
                ),
                3 => Value::Str(WORDS[rng.gen_range(0..4)].to_string()),
                _ => Value::Bool(rng.gen()),
            }
        }

        /// A table of up to five columns (`Int` over a small or a wide
        /// range, `Float` with ±0.0 and NaN, `Str`, `Bool`, or all NULL)
        /// and up to 60 rows, often none. Its primary key and index names
        /// are drawn from its columns and a name it lacks, so they include
        /// repeats, `Str` columns, a listed primary key and unknown names.
        fn random_table(rng: &mut StdRng, name: String) -> Keyed {
            let kinds: Vec<u32> = (0..rng.gen_range(0..=5)).map(|_| rng.gen_range(0..7)).collect();
            let layout = kinds
                .iter()
                .enumerate()
                .map(|(c, &kind)| {
                    let data_type = match kind {
                        0 | 1 | 6 => DataType::Int,
                        2 => DataType::Float,
                        3 => DataType::Str,
                        _ => DataType::Bool,
                    };
                    (format!("c{c}"), data_type)
                })
                .collect();
            let mut table = Table::new(name, layout);
            let rows = if rng.gen_range(0..5) == 0 { 0 } else { rng.gen_range(1..=60) };
            let null_pct = [0, 20, 100][rng.gen_range(0..3)];
            for _ in 0..rows {
                let row: Vec<Value> = kinds.iter().map(|&k| cell(rng, k, null_pct)).collect();
                table.push_row(row);
            }
            let mut names = table.column_names.clone();
            names.push("missing".to_string());
            let pick = |rng: &mut StdRng| names[rng.gen_range(0..names.len())].clone();
            let primary_key = if rng.gen() { Some(pick(rng)) } else { None };
            let mut indexes: Vec<String> = (0..rng.gen_range(0..=4)).map(|_| pick(rng)).collect();
            if let Some(pk) = primary_key.as_ref().filter(|_| rng.gen()) {
                indexes.insert(rng.gen_range(0..=indexes.len()), pk.clone());
            }
            (table, primary_key, indexes)
        }

        fn hand_over(loader: &mut Loader<'_>, tables: Vec<Keyed>) {
            for (table, primary_key, indexes) in tables {
                let indexes: Vec<&str> = indexes.iter().map(String::as_str).collect();
                loader.add_table(table, primary_key.as_deref(), &indexes);
            }
        }

        /// Every float a database's statistics and indexes hold, as bits:
        /// `Debug` prints every NaN alike.
        fn float_bits(db: &Database) -> Vec<u64> {
            let mut bits = Vec::new();
            let float = |v: &Value| match v {
                Value::Float(x) => Some(x.to_bits()),
                _ => None,
            };
            for name in db.table_names() {
                let stats = db.stats(name).unwrap();
                for (column, c) in &stats.columns {
                    bits.extend([c.null_frac.to_bits(), c.n_distinct.to_bits()]);
                    bits.extend(c.min.iter().chain(&c.max).filter_map(float));
                    bits.extend(c.histogram.iter().map(|x| x.to_bits()));
                    for (v, f) in &c.mcvs {
                        bits.extend(float(v).into_iter().chain([f.to_bits()]));
                    }
                    if let Some(index) = db.index_on(name, column) {
                        bits.extend(index.probe_slice(None, None).iter().map(|e| e.0.to_bits()));
                    }
                }
            }
            bits
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn load_builds_what_add_table_builds(tables in 1usize..=5, seed in any::<u64>()) {
                let mut rng = StdRng::seed_from_u64(seed);
                let tables: Vec<Keyed> =
                    (0..tables).map(|i| random_table(&mut rng, format!("t{i}"))).collect();

                let mut sequential = Database::new("d");
                for (table, primary_key, indexes) in tables.clone() {
                    let indexes: Vec<&str> = indexes.iter().map(String::as_str).collect();
                    sequential.add_table(table, primary_key.as_deref(), &indexes);
                }
                let loaded = load("d", |loader| hand_over(loader, tables));
                // `Debug` shows every cell, schema, statistic and index
                // entry, and each table's indexes in order.
                prop_assert_eq!(format!("{loaded:?}"), format!("{sequential:?}"));
                prop_assert_eq!(float_bits(&loaded), float_bits(&sequential));
            }
        }

        #[test]
        fn a_generator_that_panics_makes_load_panic_instead_of_hanging() {
            let outcome = std::panic::catch_unwind(|| {
                load("d", |loader| {
                    let mut rng = StdRng::seed_from_u64(3);
                    hand_over(loader, vec![random_table(&mut rng, "t".into())]);
                    panic!("generator failed after handing over a table");
                })
            });
            assert!(outcome.is_err());
        }

        #[test]
        fn load_of_no_tables_is_an_empty_database() {
            let db = load("d", |_| {});
            assert_eq!(db.name(), "d");
            assert!(db.table_names().is_empty());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = tpch::generate(tpch::TpchConfig::tiny());
        let b = tpch::generate(tpch::TpchConfig::tiny());
        assert_eq!(a.stats("lineitem").unwrap().row_count, b.stats("lineitem").unwrap().row_count);
        let sa = a.schema_summary();
        let sb = b.schema_summary();
        assert_eq!(sa, sb);
    }
}
