//! Synthetic IMDB instance (21 tables, Join Order Benchmark schema).
//!
//! The paper uses the real IMDB dump (Leis et al., "How good are query
//! optimizers, really?"). We generate a deterministic synthetic instance
//! with the same 21-table schema and foreign-key graph, skewed fan-outs
//! (a few blockbuster movies account for most `cast_info`/`movie_info`
//! rows), and plausible attribute distributions (production years skewed
//! recent). The many-table FK graph is what §4 Step 2's join-path
//! enumeration exercises.

use super::{columns, load, powerlaw_index, synth_name, Loader};
use crate::catalog::Database;
use crate::storage::{Column, Table, TextColumn};
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

/// The `id` column of an `n`-row table: 1 to `n`.
fn ids(n: usize) -> Column {
    Column::ints((1..=n as i64).collect())
}

struct Gen {
    rng: StdRng,
}

impl Gen {
    fn dict_table(&mut self, name: &str, column: &str, values: &[&str]) -> Table {
        let mut texts = TextColumn::with_capacity(values.len());
        for value in values {
            texts.push(value);
        }
        Table::from_columns(name, vec![("id", ids(values.len())), (column, texts.finish())])
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
/// Each table is drawn row by row into whole typed columns.
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
    let [mut kind_id, mut production_year] = columns(n_title);
    let [mut season_nr, mut episode_nr] = columns(n_title);
    let mut title = TextColumn::with_capacity(n_title);
    for _ in 0..n_title {
        let kind = g.rng.gen_range(1..=7);
        let is_episode = kind == 7;
        title.push(synth_name(&mut g.rng, "title", &mut text));
        kind_id.push(kind);
        production_year.push(g.year());
        season_nr.push(is_episode.then(|| g.rng.gen_range(1..15)));
        episode_nr.push(is_episode.then(|| g.rng.gen_range(1..25)));
    }
    let title = Table::from_columns(
        "title",
        vec![
            ("id", ids(n_title)),
            ("title", title.finish()),
            ("kind_id", Column::ints(kind_id)),
            ("production_year", Column::ints(production_year)),
            ("season_nr", Column::nullable_ints(season_nr)),
            ("episode_nr", Column::nullable_ints(episode_nr)),
        ],
    );
    loader.add_table(title, Some("id"), &["kind_id", "production_year"]);

    let [mut name, mut gender] = [(); 2].map(|_| TextColumn::with_capacity(n_name));
    for _ in 0..n_name {
        match g.rng.gen_range(0..10) {
            0..=4 => gender.push("m"),
            5..=8 => gender.push("f"),
            _ => gender.push_null(),
        }
        name.push(synth_name(&mut g.rng, "person", &mut text));
    }
    let name = Table::from_columns(
        "name",
        vec![("id", ids(n_name)), ("name", name.finish()), ("gender", gender.finish())],
    );
    loader.add_table(name, Some("id"), &[]);

    let mut char_name = TextColumn::with_capacity(n_char);
    for _ in 0..n_char {
        char_name.push(synth_name(&mut g.rng, "char", &mut text));
    }
    let char_name =
        Table::from_columns("char_name", vec![("id", ids(n_char)), ("name", char_name.finish())]);
    loader.add_table(char_name, Some("id"), &[]);

    const COUNTRIES: [&str; 8] = ["[us]", "[gb]", "[de]", "[fr]", "[in]", "[jp]", "[ca]", "[it]"];
    let [mut company, mut country_code] = [(); 2].map(|_| TextColumn::with_capacity(n_company));
    for _ in 0..n_company {
        company.push(synth_name(&mut g.rng, "company", &mut text));
        country_code.push(COUNTRIES[powerlaw_index(&mut g.rng, COUNTRIES.len(), 0.8)]);
    }
    let company_name = Table::from_columns(
        "company_name",
        vec![
            ("id", ids(n_company)),
            ("name", company.finish()),
            ("country_code", country_code.finish()),
        ],
    );
    loader.add_table(company_name, Some("id"), &["country_code"]);

    let mut keyword = TextColumn::with_capacity(n_keyword);
    for _ in 0..n_keyword {
        keyword.push(synth_name(&mut g.rng, "kw", &mut text));
    }
    let keyword =
        Table::from_columns("keyword", vec![("id", ids(n_keyword)), ("keyword", keyword.finish())]);
    loader.add_table(keyword, Some("id"), &[]);

    // -- relationship tables -----------------------------------------------
    let [mut person_id, mut movie_id, mut role_id, mut nr_order] = columns(n_cast);
    let mut person_role_id = Vec::with_capacity(n_cast);
    for _ in 0..n_cast {
        let has_char = g.rng.gen_bool(0.4);
        person_id.push(powerlaw_index(&mut g.rng, n_name, 0.6) as i64 + 1);
        movie_id.push(powerlaw_index(&mut g.rng, n_title, 0.5) as i64 + 1);
        person_role_id.push(has_char.then(|| g.rng.gen_range(1..=n_char as i64)));
        role_id.push(powerlaw_index(&mut g.rng, 12, 1.0) as i64 + 1);
        nr_order.push(g.rng.gen_range(1..100));
    }
    let cast_info = Table::from_columns(
        "cast_info",
        vec![
            ("id", ids(n_cast)),
            ("person_id", Column::ints(person_id)),
            ("movie_id", Column::ints(movie_id)),
            ("person_role_id", Column::nullable_ints(person_role_id)),
            ("role_id", Column::ints(role_id)),
            ("nr_order", Column::ints(nr_order)),
        ],
    );
    loader.add_table(cast_info, Some("id"), &["person_id", "movie_id", "role_id"]);

    let [mut movie_id, mut info_type_id] = columns(n_movie_info);
    let mut info = TextColumn::with_capacity(n_movie_info);
    for _ in 0..n_movie_info {
        movie_id.push(powerlaw_index(&mut g.rng, n_title, 0.5) as i64 + 1);
        info_type_id.push(powerlaw_index(&mut g.rng, 113, 0.9) as i64 + 1);
        info.push(synth_name(&mut g.rng, "info", &mut text));
    }
    let movie_info = Table::from_columns(
        "movie_info",
        vec![
            ("id", ids(n_movie_info)),
            ("movie_id", Column::ints(movie_id)),
            ("info_type_id", Column::ints(info_type_id)),
            ("info", info.finish()),
        ],
    );
    loader.add_table(movie_info, Some("id"), &["movie_id", "info_type_id"]);

    let [mut movie_id, mut info_type_id] = columns(n_movie_info_idx);
    let mut info = TextColumn::with_capacity(n_movie_info_idx);
    for _ in 0..n_movie_info_idx {
        movie_id.push(powerlaw_index(&mut g.rng, n_title, 0.5) as i64 + 1);
        info_type_id.push(powerlaw_index(&mut g.rng, 113, 0.9) as i64 + 1);
        info.push(decimal(&mut text, g.rng.gen_range(10..100) as f64 / 10.0));
    }
    let movie_info_idx = Table::from_columns(
        "movie_info_idx",
        vec![
            ("id", ids(n_movie_info_idx)),
            ("movie_id", Column::ints(movie_id)),
            ("info_type_id", Column::ints(info_type_id)),
            ("info", info.finish()),
        ],
    );
    loader.add_table(movie_info_idx, Some("id"), &["movie_id", "info_type_id"]);

    let [mut movie_id, mut keyword_id] = columns(n_movie_keyword);
    for _ in 0..n_movie_keyword {
        movie_id.push(powerlaw_index(&mut g.rng, n_title, 0.5) as i64 + 1);
        keyword_id.push(powerlaw_index(&mut g.rng, n_keyword, 0.7) as i64 + 1);
    }
    let movie_keyword = Table::from_columns(
        "movie_keyword",
        vec![
            ("id", ids(n_movie_keyword)),
            ("movie_id", Column::ints(movie_id)),
            ("keyword_id", Column::ints(keyword_id)),
        ],
    );
    loader.add_table(movie_keyword, Some("id"), &["movie_id", "keyword_id"]);

    let [mut movie_id, mut company_id, mut company_type_id] = columns(n_movie_companies);
    for _ in 0..n_movie_companies {
        movie_id.push(powerlaw_index(&mut g.rng, n_title, 0.5) as i64 + 1);
        company_id.push(powerlaw_index(&mut g.rng, n_company, 0.8) as i64 + 1);
        company_type_id.push(g.rng.gen_range(1..=4));
    }
    let movie_companies = Table::from_columns(
        "movie_companies",
        vec![
            ("id", ids(n_movie_companies)),
            ("movie_id", Column::ints(movie_id)),
            ("company_id", Column::ints(company_id)),
            ("company_type_id", Column::ints(company_type_id)),
        ],
    );
    loader.add_table(movie_companies, Some("id"), &["movie_id", "company_id"]);

    let [mut person_id, mut info_type_id] = columns(n_person_info);
    let mut info = TextColumn::with_capacity(n_person_info);
    for _ in 0..n_person_info {
        person_id.push(powerlaw_index(&mut g.rng, n_name, 0.6) as i64 + 1);
        info_type_id.push(powerlaw_index(&mut g.rng, 113, 0.9) as i64 + 1);
        info.push(synth_name(&mut g.rng, "pinfo", &mut text));
    }
    let person_info = Table::from_columns(
        "person_info",
        vec![
            ("id", ids(n_person_info)),
            ("person_id", Column::ints(person_id)),
            ("info_type_id", Column::ints(info_type_id)),
            ("info", info.finish()),
        ],
    );
    loader.add_table(person_info, Some("id"), &["person_id"]);

    let mut person_id = Vec::with_capacity(n_aka_name);
    let mut aka = TextColumn::with_capacity(n_aka_name);
    for _ in 0..n_aka_name {
        person_id.push(powerlaw_index(&mut g.rng, n_name, 0.6) as i64 + 1);
        aka.push(synth_name(&mut g.rng, "aka", &mut text));
    }
    let aka_name = Table::from_columns(
        "aka_name",
        vec![
            ("id", ids(n_aka_name)),
            ("person_id", Column::ints(person_id)),
            ("name", aka.finish()),
        ],
    );
    loader.add_table(aka_name, Some("id"), &["person_id"]);

    let mut movie_id = Vec::with_capacity(n_aka_title);
    let mut aka = TextColumn::with_capacity(n_aka_title);
    for _ in 0..n_aka_title {
        movie_id.push(powerlaw_index(&mut g.rng, n_title, 0.5) as i64 + 1);
        aka.push(synth_name(&mut g.rng, "akat", &mut text));
    }
    let aka_title = Table::from_columns(
        "aka_title",
        vec![
            ("id", ids(n_aka_title)),
            ("movie_id", Column::ints(movie_id)),
            ("title", aka.finish()),
        ],
    );
    loader.add_table(aka_title, Some("id"), &["movie_id"]);

    let [mut movie_id, mut subject_id, mut status_id] = columns(n_complete_cast);
    for _ in 0..n_complete_cast {
        movie_id.push(powerlaw_index(&mut g.rng, n_title, 0.5) as i64 + 1);
        subject_id.push(g.rng.gen_range(1..=2));
        status_id.push(g.rng.gen_range(3..=4));
    }
    let complete_cast = Table::from_columns(
        "complete_cast",
        vec![
            ("id", ids(n_complete_cast)),
            ("movie_id", Column::ints(movie_id)),
            ("subject_id", Column::ints(subject_id)),
            ("status_id", Column::ints(status_id)),
        ],
    );
    loader.add_table(complete_cast, Some("id"), &["movie_id"]);

    let [mut movie_id, mut linked_movie_id, mut link_type_id] = columns(n_movie_link);
    for _ in 0..n_movie_link {
        movie_id.push(powerlaw_index(&mut g.rng, n_title, 0.5) as i64 + 1);
        linked_movie_id.push(g.rng.gen_range(1..=n_title as i64));
        link_type_id.push(g.rng.gen_range(1..=18));
    }
    let movie_link = Table::from_columns(
        "movie_link",
        vec![
            ("id", ids(n_movie_link)),
            ("movie_id", Column::ints(movie_id)),
            ("linked_movie_id", Column::ints(linked_movie_id)),
            ("link_type_id", Column::ints(link_type_id)),
        ],
    );
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
