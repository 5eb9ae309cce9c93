//! `sqlbarber` — command-line workload generator.
//!
//! ```text
//! sqlbarber generate [--db tpch|imdb] [--scale F] [--benchmark NAME]
//!                    [--distribution uniform|normal|snowset-card-1|snowset-card-2|snowset-cost|redset-cost]
//!                    [--samples FILE] [--queries N] [--intervals K]
//!                    [--range LO HI]
//!                    [--cost-type cardinality|plan-cost|actual-cardinality|execution-time]
//!                    [--spec "tables=2 joins=1; use GROUP BY"]... [--seed S]
//!                    [--threads N] [--bo-rounds-concurrency K]
//!                    [--transport-faults R] [--retry-budget N]
//!                    [--no-circuit-breaker] [--out PREFIX]
//!                    [--amplify N] [--amplify-shards K] [--amplify-batch N]
//!                    [--amplify-out PATH]
//!                    [--checkpoint-dir DIR] [--checkpoint-every K]
//!                    [--resume DIR] [--kill-at POINT[:MODE]]
//! sqlbarber schema   [--db tpch|imdb] [--scale F]
//! sqlbarber explain  [--db tpch|imdb] [--scale F] --sql "SELECT …" [--analyze]
//! ```
//!
//! Every command accepts the common flags plus its own; any other flag
//! is a usage error (exit 2), never silently ignored.
//!
//! `generate` writes `PREFIX.sql` (replayable statements) and
//! `PREFIX.json` (machine-readable manifest). With `--samples`, the target
//! distribution is built from observed costs (one number per line) — the
//! paper's production-statistics scenario.

use sqlbarber::{CostType, SqlBarber, SqlBarberConfig};
use sqlkit::TemplateSpec;
use workload::distribution::TargetDistribution;
use sqlbarber::amplify::{MAX_BATCH, MAX_LANES};
use sqlbarber::oracle::MAX_THREADS;
use workload::intervals::MAX_INTERVALS;
use workload::CostIntervals;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("generate") => generate(&args[1..]),
        Some("schema") => schema(&args[1..]),
        Some("explain") => explain(&args[1..]),
        Some("--help") | Some("-h") | None => {
            print!("{}", HELP);
            0
        }
        Some(other) => {
            eprintln!("unknown command `{other}`; see --help");
            2
        }
    };
    std::process::exit(code);
}

const HELP: &str = "\
sqlbarber — generate customized and realistic SQL workloads

USAGE:
  sqlbarber generate [OPTIONS]      generate a workload
  sqlbarber schema   [OPTIONS]      print the database schema summary
  sqlbarber explain  [OPTIONS]      plan (and optionally run) one statement

COMMON OPTIONS (every command; a flag its command does not list below
is a usage error, exit status 2):
  --db tpch|imdb          database to generate against      [default: tpch]
  --scale F               dataset scale factor/multiplier   [default: 0.05 / 4.0]
  --seed S                master seed                       [default: 42]
  --threads N             cost-oracle / surrogate worker threads,
                          at most 256; 0 = all available cores
                                                            [default: 0]

GENERATE OPTIONS:
  --benchmark NAME        one of the ten Table-1 benchmarks (sets
                          distribution, queries, and intervals)
  --distribution D        uniform|normal|snowset-card-1|snowset-card-2|
                          snowset-cost|redset-cost          [default: uniform]
  --samples FILE          build the target from observed costs
                          (one number per line) instead of a named shape
  --queries N             workload size                     [default: 1000]
  --intervals K           cost intervals, 1 to 10000        [default: 10]
  --range LO HI           working cost range                [default: 0 10000]
  --cost-type T           cardinality|plan-cost|actual-cardinality|
                          execution-time (execution-based types cost by
                          running statements through the vectorized
                          batch executor)    [default: cardinality]
  --spec \"...\"            declarative template spec, repeatable;
                          e.g. \"tables=2 joins=1; use GROUP BY\";
                          each count (tables, joins, aggs, predicates)
                          is a whole number from 0 to 64
                          (default: the 24 Redset template profiles)
  --bo-rounds-concurrency K
                          pin the deficit scheduler to K concurrent
                          (interval, template) searches per round; 0 lets
                          the deficit profile choose (output is
                          bit-identical either way)    [default: 0]
  --transport-faults R    inject LLM transport faults (timeouts, rate
                          limits, truncation, 5xx, bursts) at rate R in
                          [0,1]; deterministic per seed    [default: 0]
  --retry-budget N        total extra LLM attempts the retry layer may
                          spend across the run             [default: 1000]
  --no-circuit-breaker    disable the circuit breaker (retries still
                          apply; sustained outages are ridden out
                          call-by-call instead of failing fast)
  --out PREFIX            write PREFIX.sql and PREFIX.json  [default: workload]
  --amplify N             after convergence, stream N additional
                          cost-matched queries fitted from the accepted
                          probes (near-zero oracle calls; bit-identical
                          at any --threads / --amplify-shards; supports
                          all four cost types)              [default: 0]
  --amplify-shards K      emission shards costed speculatively per wave,
                          at most 256; 0 = thread count (never changes
                          output)                           [default: 0]
  --amplify-batch N       candidates per amplification mini-batch, at
                          most 1048576; part of the deterministic output
                          function (unlike shards/threads), so compare
                          runs only at equal batch sizes. Smaller
                          batches bound the work of execution-based
                          cost types                     [default: 1024]
  --amplify-out PATH      amplified workload file (written atomically:
                          temp file + rename, so a crash never clobbers
                          an existing file) [default: PREFIX.amplified.sql]
  --checkpoint-dir DIR    write durable pipeline snapshots into DIR at
                          every phase boundary (and mid-search, see
                          --checkpoint-every); DIR is created, but its
                          parent must exist
  --checkpoint-every K    mid-search snapshot cadence in scheduler rounds
                                                            [default: 8]
  --resume DIR            resume from the newest intact snapshot in DIR
                          (same config/target/seed required; output is
                          byte-identical to an uninterrupted run);
                          snapshots keep being written into DIR
  --kill-at POINT[:MODE]  chaos harness: die at the first occurrence of
                          POINT (after-templates|after-profiling|
                          after-refine|mid-search|after-search), right
                          after its checkpoint; MODE is unwind (clean
                          error, default) or abort (process abort)

EXPLAIN OPTIONS:
  --sql \"SELECT ...\"      statement to plan
  --analyze               also execute and report actuals
";

/// `(flag, value count)` accepted by every command.
const COMMON_FLAGS: &[(&str, usize)] =
    &[("--db", 1), ("--scale", 1), ("--seed", 1), ("--threads", 1)];

const GENERATE_FLAGS: &[(&str, usize)] = &[
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

const SCHEMA_FLAGS: &[(&str, usize)] = &[];

const EXPLAIN_FLAGS: &[(&str, usize)] = &[("--sql", 1), ("--analyze", 0)];

struct Flags {
    values: Vec<(String, Vec<String>)>,
}

impl Flags {
    /// Parse `args` against the common flags plus `known` (the command's
    /// own); an unknown flag is an error, so a typo or a removed flag
    /// cannot swallow the next argument unnoticed.
    fn parse(args: &[String], known: &[(&str, usize)]) -> Result<Flags, String> {
        let mut values: Vec<(String, Vec<String>)> = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let flag = &args[i];
            if !flag.starts_with("--") {
                return Err(format!("unexpected argument `{flag}`"));
            }
            let Some(&(_, arity)) =
                COMMON_FLAGS.iter().chain(known).find(|(name, _)| name == flag)
            else {
                return Err(format!("unknown flag `{flag}`; see --help"));
            };
            if i + arity >= args.len() + usize::from(arity == 0) {
                return Err(format!("missing value for `{flag}`"));
            }
            let flag_values = args[i + 1..i + 1 + arity].to_vec();
            values.push((flag.clone(), flag_values));
            i += 1 + arity;
        }
        Ok(Flags { values })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(flag, _)| flag == name)
            .and_then(|(_, v)| v.first())
            .map(String::as_str)
    }

    fn get_all(&self, name: &str) -> Vec<&str> {
        self.values
            .iter()
            .filter(|(flag, _)| flag == name)
            .filter_map(|(_, v)| v.first())
            .map(String::as_str)
            .collect()
    }

    fn has(&self, name: &str) -> bool {
        self.values.iter().any(|(flag, _)| flag == name)
    }

    fn get_pair(&self, name: &str) -> Option<(&str, &str)> {
        self.values
            .iter()
            .rev()
            .find(|(flag, _)| flag == name)
            .and_then(|(_, v)| Some((v.first()?.as_str(), v.get(1)?.as_str())))
    }

    /// `--flag V` parsed as `T`: absent means `default`, present but
    /// malformed is a usage error — never a silent fallback.
    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("invalid value `{raw}` for `{name}`")),
        }
    }

    /// A count flag (default `default`) no larger than `cap`, checked
    /// before anything starts threads or allocates by it.
    fn parsed_at_most(&self, name: &str, default: usize, cap: usize) -> Result<usize, String> {
        let n = self.parsed(name, default)?;
        if n > cap {
            let raw = self.get(name).unwrap_or_default();
            return Err(format!("invalid value `{raw}` for `{name}`: must be at most {cap}"));
        }
        Ok(n)
    }

    /// Like [`Flags::parsed`] but with no default: absent means `None`.
    fn parsed_opt<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.get(name) {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|_| format!("invalid value `{raw}` for `{name}`")),
        }
    }

    /// `--flag A B` with both values parsed as `T`.
    fn parsed_pair<T: std::str::FromStr>(
        &self,
        name: &str,
        default: (T, T),
    ) -> Result<(T, T), String> {
        match self.get_pair(name) {
            None => Ok(default),
            Some((a, b)) => {
                let a = a
                    .parse()
                    .map_err(|_| format!("invalid value `{a}` for `{name}`"))?;
                let b = b
                    .parse()
                    .map_err(|_| format!("invalid value `{b}` for `{name}`"))?;
                Ok((a, b))
            }
        }
    }
}

/// Unwrap a `Result` from flag parsing inside a `fn(..) -> i32` command,
/// printing the error and exiting with the usage status on failure.
macro_rules! try_flag {
    ($expr:expr) => {
        match $expr {
            Ok(v) => v,
            Err(e) => {
                eprintln!("{e}");
                return 2;
            }
        }
    };
}

/// `--scale` (default `default`): a positive finite number. The
/// generators would silently clamp anything else to their minimum row
/// counts.
fn positive_scale(flags: &Flags, default: f64) -> Result<f64, String> {
    let scale: f64 = flags.parsed("--scale", default)?;
    if scale > 0.0 && scale.is_finite() {
        Ok(scale)
    } else {
        Err(format!(
            "--scale must be a positive finite number, got {scale}"
        ))
    }
}

/// `--intervals` (default 10): from 1 to [`MAX_INTERVALS`], checked before
/// anything allocates a vector of that length.
fn interval_count(flags: &Flags) -> Result<usize, String> {
    match flags.parsed("--intervals", 10)? {
        0 => Err("--intervals must be at least 1".into()),
        n if n > MAX_INTERVALS => {
            Err(format!("--intervals must be at most {MAX_INTERVALS}, got {n}"))
        }
        n => Ok(n),
    }
}

fn load_db(flags: &Flags) -> Result<minidb::Database, String> {
    let db = flags.get("--db").unwrap_or("tpch");
    Ok(match db {
        "imdb" => {
            let scale = positive_scale(flags, 4.0)?;
            minidb::datagen::imdb::generate(minidb::datagen::imdb::ImdbConfig {
                scale,
                seed: 1337,
            })
        }
        "tpch" => {
            let scale = positive_scale(flags, 0.05)?;
            minidb::datagen::tpch::generate(minidb::datagen::tpch::TpchConfig {
                scale_factor: scale,
                seed: 42,
            })
        }
        other => return Err(format!("unknown --db `{other}` (one of tpch, imdb)")),
    })
}

fn generate(args: &[String]) -> i32 {
    let flags = match Flags::parse(args, GENERATE_FLAGS) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let seed: u64 = try_flag!(flags.parsed("--seed", 42));
    // Every flag is checked below before paying for database generation.
    let fault_rate: f64 = try_flag!(flags.parsed("--transport-faults", 0.0));
    if !(0.0..=1.0).contains(&fault_rate) {
        eprintln!("--transport-faults must be in [0, 1], got {fault_rate}");
        return 2;
    }
    // Validate output/checkpoint paths now, not after a long run.
    let prefix = flags.get("--out").unwrap_or("workload").to_string();
    let amplify_n: u64 = try_flag!(flags.parsed("--amplify", 0));
    let amplify_out = flags
        .get("--amplify-out")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from(format!("{prefix}.amplified.sql")));
    if amplify_n > 0 {
        if let Some(parent) = amplify_out.parent() {
            if !parent.as_os_str().is_empty() && !parent.is_dir() {
                eprintln!(
                    "cannot write --amplify-out {}: parent directory {} does \
                     not exist (create it first)",
                    amplify_out.display(),
                    parent.display()
                );
                return 2;
            }
        }
    }
    let resume_dir = flags.get("--resume").map(std::path::PathBuf::from);
    // A resumed run keeps checkpointing into the directory it came from
    // unless a different one is given explicitly.
    let checkpoint_dir = flags
        .get("--checkpoint-dir")
        .map(std::path::PathBuf::from)
        .or_else(|| resume_dir.clone());
    let checkpoint_every: u64 = try_flag!(flags.parsed("--checkpoint-every", 8));
    if let Some(dir) = &checkpoint_dir {
        if !dir.is_dir() {
            if let Some(parent) = dir.parent() {
                if !parent.as_os_str().is_empty() && !parent.is_dir() {
                    eprintln!(
                        "cannot create --checkpoint-dir {}: parent directory \
                         {} does not exist (create it first)",
                        dir.display(),
                        parent.display()
                    );
                    return 2;
                }
            }
        }
    }
    let kill = match flags.get("--kill-at") {
        Some(spec) => match sqlbarber::KillSwitch::parse(spec) {
            Ok(kill) => Some(kill),
            Err(e) => {
                eprintln!("{e}");
                return 2;
            }
        },
        None => None,
    };
    // Target distribution shape.
    let queries: usize = try_flag!(flags.parsed("--queries", 1000));
    if queries == 0 {
        eprintln!("--queries must be at least 1");
        return 2;
    }
    let intervals_n = try_flag!(interval_count(&flags));
    let (lo, hi): (f64, f64) = try_flag!(flags.parsed_pair("--range", (0.0, 10_000.0)));
    if !(lo.is_finite() && hi.is_finite() && lo < hi) {
        eprintln!("--range needs finite bounds LO < HI, got {lo} {hi}");
        return 2;
    }
    let grid = CostIntervals::new(lo, hi, intervals_n);

    let cost_type = match flags.get("--cost-type").unwrap_or("cardinality") {
        "cardinality" => CostType::Cardinality,
        "plan-cost" => CostType::PlanCost,
        "actual-cardinality" => CostType::ActualCardinality,
        "execution-time" => CostType::ExecutionTimeMicros,
        other => {
            eprintln!("unknown cost type `{other}`");
            return 2;
        }
    };
    let (target, cost_type) = if let Some(name) = flags.get("--benchmark") {
        let Some(bench) = workload::benchmark_by_name(name) else {
            eprintln!("unknown benchmark `{name}`; see `figures table1` for the registry");
            return 2;
        };
        let cost_type =
            CostType::from_benchmark(bench.cost_type, cost_type == CostType::Cardinality);
        (bench.target(), cost_type)
    } else {
        let target = if let Some(path) = flags.get("--samples") {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return 2;
                }
            };
            let samples: Vec<f64> =
                text.lines().filter_map(|l| l.trim().parse().ok()).collect();
            if samples.is_empty() {
                eprintln!("{path} holds no numeric samples");
                return 2;
            }
            if grid.histogram(&samples).iter().sum::<f64>() == 0.0 {
                eprintln!(
                    "no sample in {path} falls inside the target range [{lo}, {hi}]"
                );
                return 2;
            }
            TargetDistribution::from_samples(&samples, grid, queries)
        } else {
            match flags.get("--distribution").unwrap_or("uniform") {
                "uniform" => TargetDistribution::uniform(grid, queries),
                "normal" => TargetDistribution::normal(grid, queries),
                "snowset-card-1" => TargetDistribution::snowset_card_1(grid, queries),
                "snowset-card-2" => TargetDistribution::snowset_card_2(grid, queries),
                "snowset-cost" => TargetDistribution::snowset_cost(grid, queries),
                "redset-cost" => TargetDistribution::redset_cost(grid, queries),
                other => {
                    eprintln!("unknown distribution `{other}`");
                    return 2;
                }
            }
        };
        (target, cost_type)
    };

    // Template specifications.
    let spec_texts = flags.get_all("--spec");
    let specs: Vec<TemplateSpec> = if spec_texts.is_empty() {
        workload::redset::redset_template_specs(workload::redset::DEFAULT_SEED)
    } else {
        try_flag!(spec_texts
            .iter()
            .enumerate()
            .map(|(i, text)| {
                TemplateSpec::try_parse_declarative(i as u32 + 1, text)
                    .map_err(|e| format!("invalid value `{text}` for `--spec`: {e}"))
            })
            .collect::<Result<_, _>>())
    };

    let threads = try_flag!(flags.parsed_at_most("--threads", 0, MAX_THREADS));
    let mut retry = llm::RetryPolicy::default();
    if let Some(budget) = try_flag!(flags.parsed_opt("--retry-budget")) {
        retry.retry_budget = budget;
    }
    retry.breaker_enabled = !flags.has("--no-circuit-breaker");
    let rounds_concurrency: usize =
        try_flag!(flags.parsed("--bo-rounds-concurrency", 0));
    let amplify_shards = try_flag!(flags.parsed_at_most("--amplify-shards", 0, MAX_LANES));
    let amplify_batch = try_flag!(flags.parsed_at_most("--amplify-batch", 0, MAX_BATCH));

    eprintln!("loading database…");
    let db = try_flag!(load_db(&flags));

    eprintln!(
        "generating {} queries over {} intervals ({:?})…",
        target.total(),
        target.intervals.count,
        cost_type
    );
    let mut config = SqlBarberConfig {
        seed,
        threads,
        transport: llm::TransportFaultConfig::uniform(fault_rate),
        retry,
        ..Default::default()
    };
    config.search.rounds_concurrency = rounds_concurrency;
    if amplify_n > 0 {
        config.amplify = Some(sqlbarber::AmplifyConfig {
            n: amplify_n,
            shards: amplify_shards,
            batch: amplify_batch,
            out: Some(amplify_out.clone()),
        });
    }
    config.checkpoint = checkpoint_dir.map(|dir| sqlbarber::CheckpointConfig {
        dir,
        every: checkpoint_every,
    });
    let mut barber = SqlBarber::new(&db, config);
    if let Some(kill) = kill {
        barber = barber.with_kill_switch(kill);
    }
    let outcome = match &resume_dir {
        Some(dir) => {
            eprintln!("resuming from {}…", dir.display());
            barber.resume(dir, &target, cost_type)
        }
        None => barber.generate(&specs, &target, cost_type),
    };
    let report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("generation failed: {e}");
            return 1;
        }
    };
    println!("{}", report.summary());
    println!("{}", report.oracle_summary());
    println!("{}", report.scheduler_summary());
    println!("{}", report.resilience_summary());
    if let Some(line) = report.amplify_summary() {
        println!("{line}");
        if let Some(a) = &report.amplify {
            let secs = report.phases.amplification.as_secs_f64();
            if a.emitted > 0 && secs > 0.0 {
                println!(
                    "amplified {} queries in {:.2}s ({:.2}M queries/s) -> {}",
                    a.emitted,
                    secs,
                    a.emitted as f64 / secs / 1.0e6,
                    amplify_out.display(),
                );
            }
        }
    }
    if !report.skipped_intervals.is_empty() {
        println!("note: intervals given up on: {:?}", report.skipped_intervals);
    }

    if let Err(e) = report.write_sql(format!("{prefix}.sql")) {
        eprintln!("cannot write {prefix}.sql: {e}");
        return 1;
    }
    if let Err(e) = report.write_manifest(format!("{prefix}.json")) {
        eprintln!("cannot write {prefix}.json: {e}");
        return 1;
    }
    println!("wrote {prefix}.sql and {prefix}.json");
    0
}

fn schema(args: &[String]) -> i32 {
    let flags = match Flags::parse(args, SCHEMA_FLAGS) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    print!("{}", try_flag!(load_db(&flags)).schema_summary());
    0
}

fn explain(args: &[String]) -> i32 {
    let flags = match Flags::parse(args, EXPLAIN_FLAGS) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let Some(sql) = flags.get("--sql") else {
        eprintln!("explain requires --sql \"SELECT …\"");
        return 2;
    };
    let db = try_flag!(load_db(&flags));
    let select = match sqlkit::parse_select(sql) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    if flags.has("--analyze") {
        match db.explain_analyze(&select) {
            Ok(analyzed) => print!("{analyzed}"),
            Err(e) => {
                eprintln!("{e}");
                return 1;
            }
        }
    } else {
        match db.explain(&select) {
            Ok(explain) => print!("{explain}"),
            Err(e) => {
                eprintln!("{e}");
                return 1;
            }
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn intervals(value: &str) -> Result<usize, String> {
        let args = ["--intervals".to_string(), value.to_string()];
        interval_count(&Flags::parse(&args, GENERATE_FLAGS).unwrap())
    }

    #[test]
    fn interval_count_is_checked_against_its_cap() {
        assert_eq!(interval_count(&Flags::parse(&[], GENERATE_FLAGS).unwrap()), Ok(10));
        assert_eq!(intervals("1"), Ok(1));
        assert_eq!(intervals("10000"), Ok(MAX_INTERVALS));
        assert_eq!(intervals("0").unwrap_err(), "--intervals must be at least 1");
        for huge in ["10001", "4000000000", "18446744073709551615"] {
            assert_eq!(
                intervals(huge).unwrap_err(),
                format!("--intervals must be at most 10000, got {huge}")
            );
        }
        assert!(intervals("-3").unwrap_err().contains("invalid value `-3` for `--intervals`"));
    }

    #[test]
    fn worker_counts_are_checked_against_their_caps() {
        let capped = |name: &str, value: &str, cap: usize| {
            let args = [name.to_string(), value.to_string()];
            Flags::parse(&args, GENERATE_FLAGS).unwrap().parsed_at_most(name, 0, cap)
        };
        let caps = [
            ("--threads", MAX_THREADS),
            ("--amplify-shards", MAX_LANES),
            ("--amplify-batch", MAX_BATCH),
        ];
        for (name, cap) in caps {
            assert_eq!(capped(name, "0", cap), Ok(0));
            assert_eq!(capped(name, &cap.to_string(), cap), Ok(cap));
            for huge in [(cap + 1).to_string(), "18446744073709551615".to_string()] {
                assert_eq!(
                    capped(name, &huge, cap).unwrap_err(),
                    format!("invalid value `{huge}` for `{name}`: must be at most {cap}")
                );
            }
            let negative = capped(name, "-1", cap).unwrap_err();
            assert_eq!(negative, format!("invalid value `-1` for `{name}`"));
        }
        assert_eq!((MAX_THREADS, MAX_LANES, MAX_BATCH), (256, 256, 1 << 20));
    }

    #[test]
    fn help_states_the_caps() {
        assert!(HELP.contains(&format!("cost intervals, 1 to {MAX_INTERVALS} ")));
        assert!(HELP.contains(&format!("is a whole number from 0 to {}\n", sqlkit::MAX_SPEC_COUNT)));
        assert!(HELP.contains(&format!("worker threads,\n                          at most {MAX_THREADS};")));
        assert!(HELP.contains(&format!("per wave,\n                          at most {MAX_LANES};")));
        assert!(HELP.contains(&format!("mini-batch, at\n                          most {MAX_BATCH};")));
    }
}
