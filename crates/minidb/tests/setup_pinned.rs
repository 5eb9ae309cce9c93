//! Pins the generated databases bit for bit: every table's schema and
//! cells, every column's `ColumnStats` bits, every materialized index's
//! `(key, row)` entries and the foreign keys of the tiny TPC-H and IMDB
//! instances hash to constants recorded before the set-up fast paths
//! (array rows, `synth_name` without `format!`, the shared counting sort)
//! went in. A changed constant means datagen, ANALYZE or an index build
//! no longer reproduces the original database.
//!
//! At benchmark scale (TPC-H SF 0.05 and IMDB scale 4; ignored by
//! default, CI runs them in release) the generators' two-thread load must
//! build what sequential `Database::add_table` calls build from the same
//! tables, and both hashes are pinned to constants recorded before the
//! generators built typed columns instead of pushing rows.

use minidb::datagen::{imdb, tpch};
use minidb::{DataType, Database};
use sqlkit::Value;
use std::fmt::Write;

/// 64-bit FNV-1a over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.u64(0),
            Value::Int(x) => {
                self.u64(1);
                self.u64(*x as u64);
            }
            Value::Float(x) => {
                self.u64(2);
                self.u64(x.to_bits());
            }
            Value::Str(s) => {
                self.u64(3);
                self.str(s);
            }
            Value::Bool(b) => {
                self.u64(4);
                self.u64(u64::from(*b));
            }
        }
    }
}

/// Hashes formatted text as it is written, so a database's `Debug` form
/// is hashed without being held in memory.
impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

fn type_tag(t: DataType) -> u64 {
    match t {
        DataType::Int => 1,
        DataType::Float => 2,
        DataType::Str => 3,
        DataType::Bool => 4,
    }
}

/// Hash of everything `Database::add_table` and `add_foreign_key` built.
fn database_hash(db: &Database) -> u64 {
    let mut h = Fnv::new();
    for name in db.table_names() {
        h.str(name);
        let schema = db.schema(name).unwrap();
        let table = db.table(name).unwrap();
        let stats = db.stats(name).unwrap();
        h.u64(table.row_count() as u64);
        h.u64(stats.row_count as u64);
        h.str(schema.primary_key.as_deref().unwrap_or(""));
        h.u64(schema.indexes.len() as u64);
        for index in &schema.indexes {
            h.str(index);
        }
        for (def, column) in schema.columns.iter().zip(&table.columns) {
            h.str(&def.name);
            h.u64(type_tag(def.data_type));
            h.u64(type_tag(column.data_type()));
            for row in 0..column.len() {
                h.value(&column.get(row));
            }
            let c = &stats.columns[&def.name];
            h.u64(c.null_frac.to_bits());
            h.u64(c.n_distinct.to_bits());
            for end in [&c.min, &c.max] {
                match end {
                    Some(v) => h.value(v),
                    None => h.u64(u64::MAX),
                }
            }
            h.u64(c.histogram.len() as u64);
            for bound in &c.histogram {
                h.u64(bound.to_bits());
            }
            h.u64(c.mcvs.len() as u64);
            for (v, f) in &c.mcvs {
                h.value(v);
                h.u64(f.to_bits());
            }
            match db.index_on(name, &def.name) {
                Some(index) => {
                    let entries = index.probe_slice(None, None);
                    h.u64(entries.len() as u64);
                    for (key, row) in entries {
                        h.u64(key.to_bits());
                        h.u64(u64::from(*row));
                    }
                }
                None => h.u64(u64::MAX),
            }
        }
    }
    for fk in db.foreign_keys() {
        for part in [&fk.table, &fk.column, &fk.ref_table, &fk.ref_column] {
            h.str(part);
        }
    }
    h.0
}

#[test]
fn tiny_tpch_is_pinned() {
    let db = tpch::generate(tpch::TpchConfig::tiny());
    assert_eq!(database_hash(&db), 0x5b4d_81c0_3c5d_e388, "tiny TPC-H changed");
}

#[test]
fn tiny_imdb_is_pinned() {
    let db = imdb::generate(imdb::ImdbConfig::tiny());
    assert_eq!(database_hash(&db), 0xa8d5_d955_a2d5_b3e8, "tiny IMDB changed");
}

/// Hash of `db`'s `Debug` form: every cell, schema, statistic and index
/// entry, and also the order of each table's indexes, which
/// [`database_hash`] does not see.
fn debug_hash(db: &Database) -> u64 {
    let mut h = Fnv::new();
    write!(h, "{db:?}").unwrap();
    h.0
}

/// `db` rebuilt by sequential `Database::add_table` calls on clones of its
/// tables, with its foreign keys.
fn rebuilt_sequentially(db: &Database) -> Database {
    let mut rebuilt = Database::new(db.name());
    for name in db.table_names() {
        let schema = db.schema(name).unwrap();
        let indexes: Vec<&str> = schema.indexes.iter().map(String::as_str).collect();
        let table = db.table(name).unwrap().clone();
        rebuilt.add_table(table, schema.primary_key.as_deref(), &indexes);
    }
    for fk in db.foreign_keys() {
        rebuilt.add_foreign_key(&fk.table, &fk.column, &fk.ref_table, &fk.ref_column);
    }
    rebuilt
}

/// Two builds of `generate` are identical, equal what `add_table` builds
/// from their tables, and hash to `pinned`: `(database_hash, debug_hash)`.
fn assert_loads_exactly(generate: impl Fn() -> Database, pinned: (u64, u64)) {
    let first = generate();
    let hashes = (database_hash(&first), debug_hash(&first));
    assert_eq!(hashes, pinned, "{} changed at benchmark scale", first.name());
    let second = generate();
    let reference = rebuilt_sequentially(&first);
    for db in [&second, &reference] {
        assert_eq!(database_hash(db), database_hash(&first), "{}", first.name());
        assert_eq!(debug_hash(db), debug_hash(&first), "{}", first.name());
    }
}

#[test]
#[ignore = "benchmark scale: seconds in release; run with --include-ignored"]
fn benchmark_scale_tpch_loads_as_add_table_does() {
    assert_loads_exactly(
        || tpch::generate(tpch::TpchConfig { scale_factor: 0.05, seed: 42 }),
        (0xe06b_548d_986a_b3c1, 0xd7c6_b615_9a54_5244),
    );
}

#[test]
#[ignore = "benchmark scale: seconds in release; run with --include-ignored"]
fn benchmark_scale_imdb_loads_as_add_table_does() {
    assert_loads_exactly(
        || imdb::generate(imdb::ImdbConfig { scale: 4.0, seed: 1337 }),
        (0x3390_f3ec_3abe_c8eb, 0x3c15_60f4_a97c_61aa),
    );
}
