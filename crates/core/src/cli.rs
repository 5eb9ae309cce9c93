//! The command-line front end shared by the `sqlbarber` and `figures`
//! binaries: one flag parser, one flags → [`SqlBarberConfig`] builder, the
//! database-by-name loader and a standard-output writer that survives a
//! closed pipe.
//!
//! Each binary has its own tables of accepted flags (`sqlbarber`'s are
//! here, `figures`' in its harness); a flag outside them is a usage
//! error. Every check here runs before a database is built, and every
//! failure is an `Err(String)` that the binary prints and turns into exit
//! status 2, never a panic.

use crate::amplify::{AmplifyConfig, MAX_BATCH, MAX_LANES};
use crate::oracle::MAX_THREADS;
use crate::{CheckpointConfig, SqlBarberConfig};
use minidb::datagen::{imdb, tpch};
use minidb::Database;
use std::path::{Path, PathBuf};

/// `(flag, value count)` pairs: the flags one command accepts.
pub type FlagTable = &'static [(&'static str, usize)];

/// Flags every `sqlbarber` command accepts.
pub const COMMON_FLAGS: FlagTable = &[("--db", 1), ("--scale", 1), ("--seed", 1), ("--threads", 1)];

/// `sqlbarber generate`'s own flags.
pub const GENERATE_FLAGS: FlagTable = &[
    ("--benchmark", 1),
    ("--distribution", 1),
    ("--samples", 1),
    ("--queries", 1),
    ("--intervals", 1),
    ("--range", 2),
    ("--cost-type", 1),
    ("--spec", 1),
    ("--bo-rounds-concurrency", 1),
    ("--transport-faults", 1),
    ("--retry-budget", 1),
    ("--no-circuit-breaker", 0),
    ("--out", 1),
    ("--amplify", 1),
    ("--amplify-shards", 1),
    ("--amplify-batch", 1),
    ("--amplify-out", 1),
    ("--checkpoint-dir", 1),
    ("--checkpoint-every", 1),
    ("--resume", 1),
    ("--kill-at", 1),
];

/// `sqlbarber schema`'s own flags.
pub const SCHEMA_FLAGS: FlagTable = &[];

/// `sqlbarber explain`'s own flags.
pub const EXPLAIN_FLAGS: FlagTable = &[("--sql", 1), ("--analyze", 0)];

/// The flags of one command line, in the order given, checked against
/// the command's tables.
#[derive(Debug, Default)]
pub struct Flags {
    values: Vec<(String, Vec<String>)>,
    /// Bare words (`figures` targets), in the order given.
    pub words: Vec<String>,
}

impl Flags {
    /// Parse `args` against `tables`. An unknown flag or a bare word is an
    /// error, so a typo or a removed flag cannot swallow the next argument
    /// unnoticed.
    pub fn parse(args: &[String], tables: &[FlagTable]) -> Result<Flags, String> {
        Flags::scan(args, tables, false)
    }

    /// Like [`Flags::parse`], but bare words are collected into
    /// [`Flags::words`] instead of being refused.
    pub fn parse_with_words(args: &[String], tables: &[FlagTable]) -> Result<Flags, String> {
        Flags::scan(args, tables, true)
    }

    fn scan(args: &[String], tables: &[FlagTable], words: bool) -> Result<Flags, String> {
        let mut flags = Flags::default();
        let mut i = 0;
        while i < args.len() {
            let flag = &args[i];
            if !flag.starts_with("--") {
                if !words {
                    return Err(format!("unexpected argument `{flag}`"));
                }
                flags.words.push(flag.clone());
                i += 1;
                continue;
            }
            let Some(&(_, arity)) = tables.iter().flat_map(|t| t.iter()).find(|(n, _)| n == flag)
            else {
                return Err(format!("unknown flag `{flag}`"));
            };
            let Some(values) = args.get(i + 1..i + 1 + arity) else {
                return Err(format!("missing value for `{flag}`"));
            };
            flags.values.push((flag.clone(), values.to_vec()));
            i += 1 + arity;
        }
        Ok(flags)
    }

    /// The last value given for `name`.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.last(name).and_then(|v| v.first()).map(String::as_str)
    }

    /// Every value given for the repeatable flag `name`, in order.
    pub fn get_all(&self, name: &str) -> Vec<&str> {
        let given = self.values.iter().filter(|(flag, _)| flag == name);
        given.filter_map(|(_, v)| v.first()).map(String::as_str).collect()
    }

    /// Whether `name` was given at all.
    pub fn has(&self, name: &str) -> bool {
        self.last(name).is_some()
    }

    fn last(&self, name: &str) -> Option<&[String]> {
        self.values.iter().rev().find(|(flag, _)| flag == name).map(|(_, v)| v.as_slice())
    }

    /// `--flag V` parsed as `T`: absent means `default`, present but
    /// malformed is a usage error — never a silent fallback.
    pub fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        self.get(name).map_or(Ok(default), |raw| parse_value(name, raw))
    }

    /// A count flag (default `default`) no larger than `cap`, checked
    /// before anything starts threads or allocates by it.
    pub fn parsed_at_most(&self, name: &str, default: usize, cap: usize) -> Result<usize, String> {
        let n = self.parsed(name, default)?;
        if n > cap {
            let raw = self.get(name).unwrap_or_default();
            return Err(format!("invalid value `{raw}` for `{name}`: must be at most {cap}"));
        }
        Ok(n)
    }

    /// `--flag A B` with both values parsed as `T`.
    pub fn parsed_pair<T: std::str::FromStr>(
        &self,
        name: &str,
        default: (T, T),
    ) -> Result<(T, T), String> {
        match self.last(name) {
            Some([a, b, ..]) => Ok((parse_value(name, a)?, parse_value(name, b)?)),
            _ => Ok(default),
        }
    }
}

fn parse_value<T: std::str::FromStr>(name: &str, raw: &str) -> Result<T, String> {
    raw.parse().map_err(|_| format!("invalid value `{raw}` for `{name}`"))
}

/// The pipeline configuration `flags` ask for: seed (`--seed`, default
/// `seed`), worker threads, the deficit scheduler's round width, LLM
/// transport faults, retry budget and circuit breaker, amplification and
/// checkpointing. `amplify_out` is the amplified file when
/// `--amplify-out` is not given (`None` streams to a sink). A flag the
/// command's table does not accept is simply absent here.
///
/// Values are checked against their ranges and caps, and output and
/// checkpoint paths against their parent directories, so a bad flag
/// fails now and not after a long run.
pub fn pipeline_config(
    flags: &Flags,
    seed: u64,
    amplify_out: Option<PathBuf>,
) -> Result<SqlBarberConfig, String> {
    let mut config = SqlBarberConfig {
        seed: flags.parsed("--seed", seed)?,
        threads: flags.parsed_at_most("--threads", 0, MAX_THREADS)?,
        ..Default::default()
    };
    config.search.rounds_concurrency = flags.parsed("--bo-rounds-concurrency", 0)?;
    let fault_rate: f64 = flags.parsed("--transport-faults", 0.0)?;
    if !(0.0..=1.0).contains(&fault_rate) {
        return Err(format!("--transport-faults must be in [0, 1], got {fault_rate}"));
    }
    config.transport = llm::TransportFaultConfig::uniform(fault_rate);
    config.retry.retry_budget = flags.parsed("--retry-budget", config.retry.retry_budget)?;
    config.retry.breaker_enabled = !flags.has("--no-circuit-breaker");

    let n: u64 = flags.parsed("--amplify", 0)?;
    let shards = flags.parsed_at_most("--amplify-shards", 0, MAX_LANES)?;
    let batch = flags.parsed_at_most("--amplify-batch", 0, MAX_BATCH)?;
    if n > 0 {
        let out = flags.get("--amplify-out").map(PathBuf::from).or(amplify_out);
        if let Some(path) = &out {
            parent_exists(path, "write --amplify-out")?;
        }
        config.amplify = Some(AmplifyConfig { n, shards, batch, out });
    }

    // A resumed run keeps checkpointing into the directory it came from
    // unless a different one is given explicitly.
    let every = flags.parsed("--checkpoint-every", 8)?;
    if let Some(dir) = flags.get("--checkpoint-dir").or(flags.get("--resume")) {
        let dir = PathBuf::from(dir);
        if !dir.is_dir() {
            parent_exists(&dir, "create --checkpoint-dir")?;
        }
        config.checkpoint = Some(CheckpointConfig { dir, every });
    }
    Ok(config)
}

/// The parent directory of `path` must exist: it is not created.
fn parent_exists(path: &Path, action: &str) -> Result<(), String> {
    match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() && !parent.is_dir() => Err(format!(
            "cannot {action} {}: parent directory {} does not exist (create it first)",
            path.display(),
            parent.display()
        )),
        _ => Ok(()),
    }
}

/// One of the paper's two databases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// TPC-H, sized by scale factor.
    Tpch,
    /// IMDB (JOB), sized by a multiplier.
    Imdb,
}

impl Dataset {
    /// The dataset a `--db` value names.
    pub fn by_name(name: &str) -> Result<Dataset, String> {
        match name {
            "tpch" => Ok(Dataset::Tpch),
            "imdb" => Ok(Dataset::Imdb),
            other => Err(format!("unknown --db `{other}` (one of tpch, imdb)")),
        }
    }

    /// The `--db` name.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Tpch => "tpch",
            Dataset::Imdb => "imdb",
        }
    }

    /// The full-size scale: a working cost window of [0, 10k] is a thin
    /// slice of what these databases' plans can cost (EXPERIMENTS.md).
    pub fn default_scale(self) -> f64 {
        match self {
            Dataset::Tpch => 0.05,
            Dataset::Imdb => 4.0,
        }
    }

    /// Generate, ANALYZE and index the database at `scale`, from its
    /// fixed data seed.
    pub fn generate(self, scale: f64) -> Database {
        match self {
            Dataset::Tpch => tpch::generate(tpch::TpchConfig { scale_factor: scale, seed: 42 }),
            Dataset::Imdb => imdb::generate(imdb::ImdbConfig { scale, seed: 1337 }),
        }
    }
}

/// The database `--db` (default `tpch`) names, at `--scale` (default its
/// [`Dataset::default_scale`]). The scale must be a positive finite
/// number: the generators would silently clamp anything else to their
/// minimum row counts.
pub fn load_database(flags: &Flags) -> Result<Database, String> {
    let dataset = Dataset::by_name(flags.get("--db").unwrap_or("tpch"))?;
    let scale: f64 = flags.parsed("--scale", dataset.default_scale())?;
    if !(scale > 0.0 && scale.is_finite()) {
        return Err(format!("--scale must be a positive finite number, got {scale}"));
    }
    Ok(dataset.generate(scale))
}

/// The program's arguments after its name. An argument that is not
/// UTF-8 is an error naming it (lossily), where `std::env::args` would
/// panic.
pub fn args() -> Result<Vec<String>, String> {
    let utf8 = |arg: std::ffi::OsString| {
        arg.into_string()
            .map_err(|arg| format!("argument `{}` is not valid UTF-8", arg.to_string_lossy()))
    };
    std::env::args_os().skip(1).map(utf8).collect()
}

/// Write to standard output. A reader that closes the pipe early
/// (`| head -1`) ends the output, not the run: the command still writes
/// its files and exits with its own status. Any other write error is
/// reported on standard error.
pub fn write_stdout(args: std::fmt::Arguments) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            write_stderr(format_args!("cannot write to standard output: {e}\n"));
        }
    }
}

/// Write a progress or error line's text to standard error. A closed
/// standard error (`2>&1 | head -1`) ends the messages, not the run, as
/// [`write_stdout`] does for the output; a message that cannot be
/// written has nowhere else to go, so every write error is dropped.
pub fn write_stderr(args: std::fmt::Arguments) {
    use std::io::Write;
    let _ = std::io::stderr().lock().write_fmt(args);
}

/// `print!` through [`write_stdout`].
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::cli::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::cli::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// `eprintln!` through [`write_stderr`].
#[macro_export]
macro_rules! errln {
    ($($arg:tt)*) => {
        $crate::cli::write_stderr(format_args!("{}\n", format_args!($($arg)*)))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE: FlagTable = &[("--threads", 1), ("--range", 2), ("--quick", 0)];

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_take_their_values_and_the_last_one_wins() {
        let argv = args(&["--threads", "3", "--range", "1", "2", "--quick", "--threads", "4"]);
        let flags = Flags::parse(&argv, &[TABLE]).unwrap();
        assert_eq!(flags.get("--threads"), Some("4"));
        assert_eq!(flags.get_all("--threads"), ["3", "4"]);
        assert_eq!(flags.parsed_pair("--range", (0, 0)), Ok((1, 2)));
        assert!(flags.has("--quick") && !flags.has("--seed"));
    }

    #[test]
    fn words_are_refused_or_collected() {
        let argv = args(&["fig5", "--quick", "table2"]);
        assert_eq!(Flags::parse(&argv, &[TABLE]).unwrap_err(), "unexpected argument `fig5`");
        assert_eq!(Flags::parse_with_words(&argv, &[TABLE]).unwrap().words, ["fig5", "table2"]);
    }

    #[test]
    fn missing_values_and_unknown_flags_are_errors() {
        for (argv, message) in [
            (&["--threads"][..], "missing value for `--threads`"),
            (&["--range", "1"][..], "missing value for `--range`"),
            (&["--thread", "4"][..], "unknown flag `--thread`"),
        ] {
            assert_eq!(Flags::parse(&args(argv), &[TABLE]).unwrap_err(), message);
        }
    }

    #[test]
    fn no_flags_build_the_default_pipeline() {
        let config = pipeline_config(&Flags::default(), 7, None).unwrap();
        assert_eq!(config, SqlBarberConfig { seed: 7, ..Default::default() });
    }

    #[test]
    fn a_resumed_run_keeps_checkpointing_where_it_came_from() {
        let dir = std::env::temp_dir().display().to_string();
        let table: FlagTable = &[("--resume", 1), ("--checkpoint-every", 1)];
        let flags = Flags::parse(&args(&["--resume", &dir, "--checkpoint-every", "2"]), &[table]);
        let config = pipeline_config(&flags.unwrap(), 42, None).unwrap();
        assert_eq!(config.checkpoint, Some(CheckpointConfig { dir: dir.into(), every: 2 }));
    }

    #[test]
    fn datasets_round_trip_their_names() {
        for dataset in [Dataset::Tpch, Dataset::Imdb] {
            assert_eq!(Dataset::by_name(dataset.name()), Ok(dataset));
        }
        assert_eq!(Dataset::by_name("pg").unwrap_err(), "unknown --db `pg` (one of tpch, imdb)");
    }
}
