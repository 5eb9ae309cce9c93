//! Synthetic IMDB instance (21 tables, Join Order Benchmark schema).
//!
//! The paper uses the real IMDB dump (Leis et al., "How good are query
//! optimizers, really?"). We generate a deterministic synthetic instance
//! with the same 21-table schema and foreign-key graph, skewed fan-outs
//! (a few blockbuster movies account for most `cast_info`/`movie_info`
//! rows), and plausible attribute distributions (production years skewed
//! recent). The many-table FK graph is what §4 Step 2's join-path
//! enumeration exercises.

use super::{load, powerlaw_index, synth_name, Loader};
use crate::catalog::Database;
use crate::storage::{Cell, DataType, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write;

/// Generation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImdbConfig {
    /// Multiplier on the default row counts (title = 25k at scale 1.0).
    pub scale: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ImdbConfig {
    fn default() -> Self {
        ImdbConfig { scale: 1.0, seed: 1337 }
    }
}

impl ImdbConfig {
    /// Minimal instance for unit tests (title = 1k rows).
    pub fn tiny() -> Self {
        ImdbConfig { scale: 0.04, seed: 1337 }
    }
}

fn scaled(base: usize, scale: f64) -> usize {
    ((base as f64 * scale) as usize).max(20)
}

struct Gen {
    rng: StdRng,
}

impl Gen {
    fn dict_table(&mut self, name: &str, column: &str, values: &[&str]) -> Table {
        let mut t =
            Table::new(name, vec![("id".into(), DataType::Int), (column.into(), DataType::Str)]);
        for (i, v) in values.iter().enumerate() {
            t.push_row([Cell::Int(i as i64 + 1), Cell::Str(v)]);
        }
        t
    }

    fn year(&mut self) -> i64 {
        // Skewed toward recent years, as in the real data.
        let offset = powerlaw_index(&mut self.rng, 135, 3.0) as i64;
        2023 - offset
    }
}

/// `x` with one decimal, written into `buf` (cleared first).
fn decimal(buf: &mut String, x: f64) -> &str {
    buf.clear();
    write!(buf, "{x:.1}").expect("writing to a String cannot fail");
    buf
}

/// Generate an IMDB-like database.
pub fn generate(config: ImdbConfig) -> Database {
    let mut db = load("imdb", |loader| generate_tables(config, loader));

    // -- foreign keys ---------------------------------------------------------
    for (table, column, ref_table, ref_column) in [
        ("title", "kind_id", "kind_type", "id"),
        ("cast_info", "person_id", "name", "id"),
        ("cast_info", "movie_id", "title", "id"),
        ("cast_info", "person_role_id", "char_name", "id"),
        ("cast_info", "role_id", "role_type", "id"),
        ("movie_info", "movie_id", "title", "id"),
        ("movie_info", "info_type_id", "info_type", "id"),
        ("movie_info_idx", "movie_id", "title", "id"),
        ("movie_info_idx", "info_type_id", "info_type", "id"),
        ("movie_keyword", "movie_id", "title", "id"),
        ("movie_keyword", "keyword_id", "keyword", "id"),
        ("movie_companies", "movie_id", "title", "id"),
        ("movie_companies", "company_id", "company_name", "id"),
        ("movie_companies", "company_type_id", "company_type", "id"),
        ("person_info", "person_id", "name", "id"),
        ("person_info", "info_type_id", "info_type", "id"),
        ("aka_name", "person_id", "name", "id"),
        ("aka_title", "movie_id", "title", "id"),
        ("complete_cast", "movie_id", "title", "id"),
        ("complete_cast", "subject_id", "comp_cast_type", "id"),
        ("complete_cast", "status_id", "comp_cast_type", "id"),
        ("movie_link", "movie_id", "title", "id"),
        ("movie_link", "linked_movie_id", "title", "id"),
        ("movie_link", "link_type_id", "link_type", "id"),
    ] {
        db.add_foreign_key(table, column, ref_table, ref_column);
    }

    db
}

/// Draw the 21 tables from one RNG stream, handing each to `loader`.
fn generate_tables(config: ImdbConfig, loader: &mut Loader<'_>) {
    let mut g = Gen { rng: StdRng::seed_from_u64(config.seed) };
    let s = config.scale;

    let n_title = scaled(25_000, s);
    let n_name = scaled(30_000, s);
    let n_char = scaled(15_000, s);
    let n_company = scaled(6_000, s);
    let n_keyword = scaled(8_000, s);
    let n_cast = scaled(90_000, s);
    let n_movie_info = scaled(50_000, s);
    let n_movie_info_idx = scaled(20_000, s);
    let n_movie_keyword = scaled(40_000, s);
    let n_movie_companies = scaled(30_000, s);
    let n_person_info = scaled(25_000, s);
    let n_aka_name = scaled(10_000, s);
    let n_aka_title = scaled(5_000, s);
    let n_complete_cast = scaled(5_000, s);
    let n_movie_link = scaled(4_000, s);
    // The synthetic text of the row being drawn.
    let mut text = String::new();

    // -- dictionary tables -------------------------------------------------
    let kind_type = g.dict_table(
        "kind_type",
        "kind",
        &[
            "movie",
            "tv series",
            "tv movie",
            "video movie",
            "tv mini series",
            "video game",
            "episode",
        ],
    );
    loader.add_table(kind_type, Some("id"), &[]);

    let info_values: Vec<String> = (1..=113).map(|i| format!("info_kind_{i:03}")).collect();
    let info_refs: Vec<&str> = info_values.iter().map(String::as_str).collect();
    let info_type = g.dict_table("info_type", "info", &info_refs);
    loader.add_table(info_type, Some("id"), &[]);

    let comp_cast_type =
        g.dict_table("comp_cast_type", "kind", &["cast", "crew", "complete", "complete+verified"]);
    loader.add_table(comp_cast_type, Some("id"), &[]);

    let company_type = g.dict_table(
        "company_type",
        "kind",
        &[
            "distributors",
            "production companies",
            "special effects companies",
            "miscellaneous companies",
        ],
    );
    loader.add_table(company_type, Some("id"), &[]);

    let link_values: Vec<String> = [
        "follows",
        "followed by",
        "remake of",
        "remade as",
        "references",
        "referenced in",
        "spoofs",
        "spoofed in",
        "features",
        "featured in",
        "spin off from",
        "spin off",
        "version of",
        "similar to",
        "edited into",
        "edited from",
        "alternate language version of",
        "unknown link",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let link_refs: Vec<&str> = link_values.iter().map(String::as_str).collect();
    let link_type = g.dict_table("link_type", "link", &link_refs);
    loader.add_table(link_type, Some("id"), &[]);

    let role_type = g.dict_table(
        "role_type",
        "role",
        &[
            "actor",
            "actress",
            "producer",
            "writer",
            "cinematographer",
            "composer",
            "costume designer",
            "director",
            "editor",
            "miscellaneous crew",
            "production designer",
            "guest",
        ],
    );
    loader.add_table(role_type, Some("id"), &[]);

    // -- entity tables -------------------------------------------------------
    let mut title = Table::new(
        "title",
        vec![
            ("id".into(), DataType::Int),
            ("title".into(), DataType::Str),
            ("kind_id".into(), DataType::Int),
            ("production_year".into(), DataType::Int),
            ("season_nr".into(), DataType::Int),
            ("episode_nr".into(), DataType::Int),
        ],
    );
    for i in 0..n_title {
        let kind = g.rng.gen_range(1..=7);
        let is_episode = kind == 7;
        title.push_row([
            Cell::Int(i as i64 + 1),
            Cell::Str(synth_name(&mut g.rng, "title", &mut text)),
            Cell::Int(kind),
            Cell::Int(g.year()),
            if is_episode { Cell::Int(g.rng.gen_range(1..15)) } else { Cell::Null },
            if is_episode { Cell::Int(g.rng.gen_range(1..25)) } else { Cell::Null },
        ]);
    }
    loader.add_table(title, Some("id"), &["kind_id", "production_year"]);

    let mut name = Table::new(
        "name",
        vec![
            ("id".into(), DataType::Int),
            ("name".into(), DataType::Str),
            ("gender".into(), DataType::Str),
        ],
    );
    for i in 0..n_name {
        let gender = match g.rng.gen_range(0..10) {
            0..=4 => Cell::Str("m"),
            5..=8 => Cell::Str("f"),
            _ => Cell::Null,
        };
        name.push_row([
            Cell::Int(i as i64 + 1),
            Cell::Str(synth_name(&mut g.rng, "person", &mut text)),
            gender,
        ]);
    }
    loader.add_table(name, Some("id"), &[]);

    let mut char_name =
        Table::new("char_name", vec![("id".into(), DataType::Int), ("name".into(), DataType::Str)]);
    for i in 0..n_char {
        char_name.push_row([
            Cell::Int(i as i64 + 1),
            Cell::Str(synth_name(&mut g.rng, "char", &mut text)),
        ]);
    }
    loader.add_table(char_name, Some("id"), &[]);

    let mut company_name = Table::new(
        "company_name",
        vec![
            ("id".into(), DataType::Int),
            ("name".into(), DataType::Str),
            ("country_code".into(), DataType::Str),
        ],
    );
    const COUNTRIES: [&str; 8] = ["[us]", "[gb]", "[de]", "[fr]", "[in]", "[jp]", "[ca]", "[it]"];
    for i in 0..n_company {
        company_name.push_row([
            Cell::Int(i as i64 + 1),
            Cell::Str(synth_name(&mut g.rng, "company", &mut text)),
            Cell::Str(COUNTRIES[powerlaw_index(&mut g.rng, COUNTRIES.len(), 0.8)]),
        ]);
    }
    loader.add_table(company_name, Some("id"), &["country_code"]);

    let mut keyword = Table::new(
        "keyword",
        vec![("id".into(), DataType::Int), ("keyword".into(), DataType::Str)],
    );
    for i in 0..n_keyword {
        keyword.push_row([
            Cell::Int(i as i64 + 1),
            Cell::Str(synth_name(&mut g.rng, "kw", &mut text)),
        ]);
    }
    loader.add_table(keyword, Some("id"), &[]);

    // -- relationship tables -----------------------------------------------
    let mut cast_info = Table::new(
        "cast_info",
        vec![
            ("id".into(), DataType::Int),
            ("person_id".into(), DataType::Int),
            ("movie_id".into(), DataType::Int),
            ("person_role_id".into(), DataType::Int),
            ("role_id".into(), DataType::Int),
            ("nr_order".into(), DataType::Int),
        ],
    );
    for i in 0..n_cast {
        let has_char = g.rng.gen_bool(0.4);
        cast_info.push_row([
            Cell::Int(i as i64 + 1),
            Cell::Int(powerlaw_index(&mut g.rng, n_name, 0.6) as i64 + 1),
            Cell::Int(powerlaw_index(&mut g.rng, n_title, 0.5) as i64 + 1),
            if has_char { Cell::Int(g.rng.gen_range(1..=n_char as i64)) } else { Cell::Null },
            Cell::Int(powerlaw_index(&mut g.rng, 12, 1.0) as i64 + 1),
            Cell::Int(g.rng.gen_range(1..100)),
        ]);
    }
    loader.add_table(cast_info, Some("id"), &["person_id", "movie_id", "role_id"]);

    let mut movie_info = Table::new(
        "movie_info",
        vec![
            ("id".into(), DataType::Int),
            ("movie_id".into(), DataType::Int),
            ("info_type_id".into(), DataType::Int),
            ("info".into(), DataType::Str),
        ],
    );
    for i in 0..n_movie_info {
        movie_info.push_row([
            Cell::Int(i as i64 + 1),
            Cell::Int(powerlaw_index(&mut g.rng, n_title, 0.5) as i64 + 1),
            Cell::Int(powerlaw_index(&mut g.rng, 113, 0.9) as i64 + 1),
            Cell::Str(synth_name(&mut g.rng, "info", &mut text)),
        ]);
    }
    loader.add_table(movie_info, Some("id"), &["movie_id", "info_type_id"]);

    let mut movie_info_idx = Table::new(
        "movie_info_idx",
        vec![
            ("id".into(), DataType::Int),
            ("movie_id".into(), DataType::Int),
            ("info_type_id".into(), DataType::Int),
            ("info".into(), DataType::Str),
        ],
    );
    for i in 0..n_movie_info_idx {
        movie_info_idx.push_row([
            Cell::Int(i as i64 + 1),
            Cell::Int(powerlaw_index(&mut g.rng, n_title, 0.5) as i64 + 1),
            Cell::Int(powerlaw_index(&mut g.rng, 113, 0.9) as i64 + 1),
            Cell::Str(decimal(&mut text, g.rng.gen_range(10..100) as f64 / 10.0)),
        ]);
    }
    loader.add_table(movie_info_idx, Some("id"), &["movie_id", "info_type_id"]);

    let mut movie_keyword = Table::new(
        "movie_keyword",
        vec![
            ("id".into(), DataType::Int),
            ("movie_id".into(), DataType::Int),
            ("keyword_id".into(), DataType::Int),
        ],
    );
    for i in 0..n_movie_keyword {
        movie_keyword.push_row([
            Cell::Int(i as i64 + 1),
            Cell::Int(powerlaw_index(&mut g.rng, n_title, 0.5) as i64 + 1),
            Cell::Int(powerlaw_index(&mut g.rng, n_keyword, 0.7) as i64 + 1),
        ]);
    }
    loader.add_table(movie_keyword, Some("id"), &["movie_id", "keyword_id"]);

    let mut movie_companies = Table::new(
        "movie_companies",
        vec![
            ("id".into(), DataType::Int),
            ("movie_id".into(), DataType::Int),
            ("company_id".into(), DataType::Int),
            ("company_type_id".into(), DataType::Int),
        ],
    );
    for i in 0..n_movie_companies {
        movie_companies.push_row([
            Cell::Int(i as i64 + 1),
            Cell::Int(powerlaw_index(&mut g.rng, n_title, 0.5) as i64 + 1),
            Cell::Int(powerlaw_index(&mut g.rng, n_company, 0.8) as i64 + 1),
            Cell::Int(g.rng.gen_range(1..=4)),
        ]);
    }
    loader.add_table(movie_companies, Some("id"), &["movie_id", "company_id"]);

    let mut person_info = Table::new(
        "person_info",
        vec![
            ("id".into(), DataType::Int),
            ("person_id".into(), DataType::Int),
            ("info_type_id".into(), DataType::Int),
            ("info".into(), DataType::Str),
        ],
    );
    for i in 0..n_person_info {
        person_info.push_row([
            Cell::Int(i as i64 + 1),
            Cell::Int(powerlaw_index(&mut g.rng, n_name, 0.6) as i64 + 1),
            Cell::Int(powerlaw_index(&mut g.rng, 113, 0.9) as i64 + 1),
            Cell::Str(synth_name(&mut g.rng, "pinfo", &mut text)),
        ]);
    }
    loader.add_table(person_info, Some("id"), &["person_id"]);

    let mut aka_name = Table::new(
        "aka_name",
        vec![
            ("id".into(), DataType::Int),
            ("person_id".into(), DataType::Int),
            ("name".into(), DataType::Str),
        ],
    );
    for i in 0..n_aka_name {
        aka_name.push_row([
            Cell::Int(i as i64 + 1),
            Cell::Int(powerlaw_index(&mut g.rng, n_name, 0.6) as i64 + 1),
            Cell::Str(synth_name(&mut g.rng, "aka", &mut text)),
        ]);
    }
    loader.add_table(aka_name, Some("id"), &["person_id"]);

    let mut aka_title = Table::new(
        "aka_title",
        vec![
            ("id".into(), DataType::Int),
            ("movie_id".into(), DataType::Int),
            ("title".into(), DataType::Str),
        ],
    );
    for i in 0..n_aka_title {
        aka_title.push_row([
            Cell::Int(i as i64 + 1),
            Cell::Int(powerlaw_index(&mut g.rng, n_title, 0.5) as i64 + 1),
            Cell::Str(synth_name(&mut g.rng, "akat", &mut text)),
        ]);
    }
    loader.add_table(aka_title, Some("id"), &["movie_id"]);

    let mut complete_cast = Table::new(
        "complete_cast",
        vec![
            ("id".into(), DataType::Int),
            ("movie_id".into(), DataType::Int),
            ("subject_id".into(), DataType::Int),
            ("status_id".into(), DataType::Int),
        ],
    );
    for i in 0..n_complete_cast {
        complete_cast.push_row([
            Cell::Int(i as i64 + 1),
            Cell::Int(powerlaw_index(&mut g.rng, n_title, 0.5) as i64 + 1),
            Cell::Int(g.rng.gen_range(1..=2)),
            Cell::Int(g.rng.gen_range(3..=4)),
        ]);
    }
    loader.add_table(complete_cast, Some("id"), &["movie_id"]);

    let mut movie_link = Table::new(
        "movie_link",
        vec![
            ("id".into(), DataType::Int),
            ("movie_id".into(), DataType::Int),
            ("linked_movie_id".into(), DataType::Int),
            ("link_type_id".into(), DataType::Int),
        ],
    );
    for i in 0..n_movie_link {
        movie_link.push_row([
            Cell::Int(i as i64 + 1),
            Cell::Int(powerlaw_index(&mut g.rng, n_title, 0.5) as i64 + 1),
            Cell::Int(g.rng.gen_range(1..=n_title as i64)),
            Cell::Int(g.rng.gen_range(1..=18)),
        ]);
    }
    loader.add_table(movie_link, Some("id"), &["movie_id", "linked_movie_id"]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlkit::Value;

    #[test]
    fn has_all_twenty_one_tables() {
        let db = generate(ImdbConfig::tiny());
        assert_eq!(db.table_names().len(), 21);
    }

    #[test]
    fn fk_graph_is_rich() {
        let db = generate(ImdbConfig::tiny());
        assert_eq!(db.foreign_keys().len(), 24);
    }

    #[test]
    fn job_style_join_runs() {
        let db = generate(ImdbConfig::tiny());
        let result = db
            .execute_sql(
                "SELECT COUNT(*) FROM title t \
                 JOIN cast_info ci ON ci.movie_id = t.id \
                 JOIN name n ON ci.person_id = n.id \
                 WHERE t.production_year > 2010",
            )
            .unwrap();
        let Value::Int(count) = result.rows[0][0] else { panic!() };
        assert!(count > 0);
    }

    #[test]
    fn fanout_is_skewed() {
        let db = generate(ImdbConfig::tiny());
        // The most-cast movie should dwarf the median: power-law check via
        // MCV frequency of cast_info.movie_id.
        let stats = db.stats("cast_info").unwrap();
        let movie_id_stats = &stats.columns["movie_id"];
        let top = movie_id_stats.mcvs.first().map(|(_, f)| *f).unwrap_or(0.0);
        let uniform = 1.0 / movie_id_stats.n_distinct;
        assert!(top > 5.0 * uniform, "top {top} vs uniform {uniform}");
    }

    #[test]
    fn production_year_skews_recent() {
        let db = generate(ImdbConfig::tiny());
        let recent = db
            .execute_sql("SELECT COUNT(*) FROM title WHERE title.production_year >= 2000")
            .unwrap();
        let old = db
            .execute_sql("SELECT COUNT(*) FROM title WHERE title.production_year < 2000")
            .unwrap();
        let (Value::Int(r), Value::Int(o)) = (&recent.rows[0][0], &old.rows[0][0]) else {
            panic!()
        };
        assert!(r > o, "recent {r} old {o}");
    }
}
