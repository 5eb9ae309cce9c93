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

use sqlbarber::cli::{
    load_database, pipeline_config, FlagTable, Flags, COMMON_FLAGS, EXPLAIN_FLAGS, GENERATE_FLAGS,
    SCHEMA_FLAGS,
};
use sqlbarber::{errln, out, outln, CostType, KillSwitch, SqlBarber};
use sqlkit::TemplateSpec;
use std::path::{Path, PathBuf};
use workload::distribution::TargetDistribution;
use workload::intervals::MAX_INTERVALS;
use workload::CostIntervals;

fn main() {
    let args = match sqlbarber::cli::args() {
        Ok(args) => args,
        Err(e) => {
            errln!("{e}");
            std::process::exit(2);
        }
    };
    let code = match args.first().map(String::as_str) {
        Some("generate") => generate(&args[1..]),
        Some("schema") => schema(&args[1..]),
        Some("explain") => explain(&args[1..]),
        Some("--help") | Some("-h") | None => {
            out!("{HELP}");
            0
        }
        Some(other) => {
            errln!("unknown command `{other}`; see --help");
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

/// Parse one command's flags; an unknown flag points at `--help`.
fn parse(args: &[String], table: FlagTable) -> Result<Flags, String> {
    let flags = Flags::parse(args, &[COMMON_FLAGS, table]);
    flags.map_err(|e| if e.starts_with("unknown flag") { format!("{e}; see --help") } else { e })
}

/// Unwrap a `Result` from flag parsing inside a `fn(..) -> i32` command,
/// printing the error and exiting with the usage status on failure.
macro_rules! try_flag {
    ($expr:expr) => {
        match $expr {
            Ok(v) => v,
            Err(e) => {
                errln!("{e}");
                return 2;
            }
        }
    };
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

/// The target distribution and cost type `--benchmark`, or else
/// `--samples` / `--distribution` with `--queries`, `--intervals`,
/// `--range` and `--cost-type`, ask for.
fn target_of(flags: &Flags) -> Result<(TargetDistribution, CostType), String> {
    let queries: usize = flags.parsed("--queries", 1000)?;
    if queries == 0 {
        return Err("--queries must be at least 1".into());
    }
    let intervals_n = interval_count(flags)?;
    let (lo, hi): (f64, f64) = flags.parsed_pair("--range", (0.0, 10_000.0))?;
    if !(lo.is_finite() && hi.is_finite() && lo < hi) {
        return Err(format!("--range needs finite bounds LO < HI, got {lo} {hi}"));
    }
    let grid = CostIntervals::new(lo, hi, intervals_n);
    let cost_type = match flags.get("--cost-type").unwrap_or("cardinality") {
        "cardinality" => CostType::Cardinality,
        "plan-cost" => CostType::PlanCost,
        "actual-cardinality" => CostType::ActualCardinality,
        "execution-time" => CostType::ExecutionTimeMicros,
        other => return Err(format!("unknown cost type `{other}`")),
    };
    if let Some(name) = flags.get("--benchmark") {
        let Some(bench) = workload::benchmark_by_name(name) else {
            return Err(format!(
                "unknown benchmark `{name}`; see `figures table1` for the registry"
            ));
        };
        let cost_type =
            CostType::from_benchmark(bench.cost_type, cost_type == CostType::Cardinality);
        return Ok((bench.target(), cost_type));
    }
    let target = if let Some(path) = flags.get("--samples") {
        let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        samples_target(&bytes, path, grid, queries)?
    } else {
        match flags.get("--distribution").unwrap_or("uniform") {
            "uniform" => TargetDistribution::uniform(grid, queries),
            "normal" => TargetDistribution::normal(grid, queries),
            "snowset-card-1" => TargetDistribution::snowset_card_1(grid, queries),
            "snowset-card-2" => TargetDistribution::snowset_card_2(grid, queries),
            "snowset-cost" => TargetDistribution::snowset_cost(grid, queries),
            "redset-cost" => TargetDistribution::redset_cost(grid, queries),
            other => return Err(format!("unknown distribution `{other}`")),
        }
    };
    Ok((target, cost_type))
}

/// The target of a `--samples` file's bytes: one observed cost per line,
/// spread over `grid` as `queries` queries. Lines that are not a number
/// are skipped; a file that is not UTF-8, holds no number or no number
/// inside the range is an error.
fn samples_target(
    bytes: &[u8],
    path: &str,
    grid: CostIntervals,
    queries: usize,
) -> Result<TargetDistribution, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| format!("cannot read {path}: {e}"))?;
    let samples: Vec<f64> = text.lines().filter_map(|l| l.trim().parse().ok()).collect();
    if samples.is_empty() {
        return Err(format!("{path} holds no numeric samples"));
    }
    if grid.histogram(&samples).iter().sum::<f64>() == 0.0 {
        let (lo, hi) = (grid.lo, grid.hi);
        return Err(format!("no sample in {path} falls inside the target range [{lo}, {hi}]"));
    }
    Ok(TargetDistribution::from_samples(&samples, grid, queries))
}

/// The `--spec` templates, or the 24 Redset profiles when none is given.
fn specs_of(flags: &Flags) -> Result<Vec<TemplateSpec>, String> {
    let texts = flags.get_all("--spec");
    if texts.is_empty() {
        return Ok(workload::redset::redset_template_specs(workload::redset::DEFAULT_SEED));
    }
    let parse = |(i, text): (usize, &&str)| {
        TemplateSpec::try_parse_declarative(i as u32 + 1, text)
            .map_err(|e| format!("invalid value `{text}` for `--spec`: {e}"))
    };
    texts.iter().enumerate().map(parse).collect()
}

fn generate(args: &[String]) -> i32 {
    let flags = try_flag!(parse(args, GENERATE_FLAGS));
    // Every flag is checked before paying for database generation.
    let prefix = flags.get("--out").unwrap_or("workload").to_string();
    let amplify_out = PathBuf::from(format!("{prefix}.amplified.sql"));
    let config = try_flag!(pipeline_config(&flags, 42, Some(amplify_out)));
    let kill = try_flag!(flags.get("--kill-at").map(KillSwitch::parse).transpose());
    let (target, cost_type) = try_flag!(target_of(&flags));
    let specs = try_flag!(specs_of(&flags));

    errln!("loading database…");
    let db = try_flag!(load_database(&flags));

    errln!(
        "generating {} queries over {} intervals ({:?})…",
        target.total(),
        target.intervals.count,
        cost_type
    );
    let amplify_out = config.amplify.as_ref().and_then(|a| a.out.clone()).unwrap_or_default();
    let mut barber = SqlBarber::new(&db, config);
    if let Some(kill) = kill {
        barber = barber.with_kill_switch(kill);
    }
    let outcome = match flags.get("--resume") {
        Some(dir) => {
            errln!("resuming from {dir}…");
            barber.resume(Path::new(dir), &target, cost_type)
        }
        None => barber.generate(&specs, &target, cost_type),
    };
    let report = match outcome {
        Ok(r) => r,
        Err(e) => {
            errln!("generation failed: {e}");
            return 1;
        }
    };
    outln!("{}", report.summary());
    outln!("{}", report.oracle_summary());
    outln!("{}", report.scheduler_summary());
    outln!("{}", report.resilience_summary());
    if let Some(line) = report.amplify_summary() {
        outln!("{line}");
        if let Some(a) = &report.amplify {
            let secs = report.phases.amplification.as_secs_f64();
            if a.emitted > 0 && secs > 0.0 {
                outln!(
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
        outln!("note: intervals given up on: {:?}", report.skipped_intervals);
    }

    if let Err(e) = report.write_sql(format!("{prefix}.sql")) {
        errln!("cannot write {prefix}.sql: {e}");
        return 1;
    }
    if let Err(e) = report.write_manifest(format!("{prefix}.json")) {
        errln!("cannot write {prefix}.json: {e}");
        return 1;
    }
    outln!("wrote {prefix}.sql and {prefix}.json");
    0
}

fn schema(args: &[String]) -> i32 {
    let flags = try_flag!(parse(args, SCHEMA_FLAGS));
    out!("{}", try_flag!(load_database(&flags)).schema_summary());
    0
}

fn explain(args: &[String]) -> i32 {
    let flags = try_flag!(parse(args, EXPLAIN_FLAGS));
    let Some(sql) = flags.get("--sql") else {
        errln!("explain requires --sql \"SELECT …\"");
        return 2;
    };
    let db = try_flag!(load_database(&flags));
    let select = match sqlkit::parse_select(sql) {
        Ok(s) => s,
        Err(e) => {
            errln!("{e}");
            return 1;
        }
    };
    let plan = if flags.has("--analyze") {
        db.explain_analyze(&select).map(|analyzed| analyzed.to_string())
    } else {
        db.explain(&select).map(|explain| explain.to_string())
    };
    match plan {
        Ok(text) => {
            out!("{text}");
            0
        }
        Err(e) => {
            errln!("{e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlbarber::amplify::{MAX_BATCH, MAX_LANES};
    use sqlbarber::oracle::MAX_THREADS;

    fn intervals(value: &str) -> Result<usize, String> {
        let args = ["--intervals".to_string(), value.to_string()];
        interval_count(&parse(&args, GENERATE_FLAGS).unwrap())
    }

    #[test]
    fn interval_count_is_checked_against_its_cap() {
        assert_eq!(interval_count(&parse(&[], GENERATE_FLAGS).unwrap()), Ok(10));
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
        let capped = |name: &str, value: &str| {
            let args = [name.to_string(), value.to_string()];
            pipeline_config(&parse(&args, GENERATE_FLAGS).unwrap(), 42, None).map(|_| ())
        };
        let caps = [
            ("--threads", MAX_THREADS),
            ("--amplify-shards", MAX_LANES),
            ("--amplify-batch", MAX_BATCH),
        ];
        for (name, cap) in caps {
            assert_eq!(capped(name, "0"), Ok(()));
            assert_eq!(capped(name, &cap.to_string()), Ok(()));
            for huge in [(cap + 1).to_string(), "18446744073709551615".to_string()] {
                assert_eq!(
                    capped(name, &huge).unwrap_err(),
                    format!("invalid value `{huge}` for `{name}`: must be at most {cap}")
                );
            }
            let negative = capped(name, "-1").unwrap_err();
            assert_eq!(negative, format!("invalid value `-1` for `{name}`"));
        }
        assert_eq!((MAX_THREADS, MAX_LANES, MAX_BATCH), (256, 256, 1 << 20));
    }

    mod samples {
        use super::*;
        use proptest::prelude::*;

        /// Bytes of a `--samples` file: numbers of every kind, words,
        /// separators and line ends, and often raw bytes that are not
        /// UTF-8.
        fn sample_bytes() -> impl Strategy<Value = Vec<u8>> {
            let piece = prop::sample::select(vec![
                "0", "1", "-1", "250", "2999.5", "3000", "3000.01", "1e3", "1e308", "1e999",
                "-1e999", "inf", "-inf", "nan", "NaN", "-0", "+5", ".5", "5.", "0x10", "1_000",
                " ", "\t", "\n", "\r\n", "\n\n", "abc", "é", "\u{0}", "\u{feff}",
            ]);
            let text = prop::collection::vec(piece, 0..24).prop_map(|p| p.concat().into_bytes());
            let raw = prop::collection::vec(any::<u8>(), 0..64);
            (text, raw, any::<bool>()).prop_map(|(mut bytes, raw, append)| {
                if append {
                    bytes.extend(raw);
                }
                bytes
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2048))]

            #[test]
            fn any_samples_file_is_a_target_or_an_error(
                bytes in sample_bytes(),
                queries in 1usize..5_000,
                intervals in 1usize..40,
            ) {
                let grid = CostIntervals::new(0.0, 3_000.0, intervals);
                match samples_target(&bytes, "costs.txt", grid, queries) {
                    Ok(target) => {
                        prop_assert_eq!(target.total(), queries as f64);
                        prop_assert_eq!(target.counts.len(), intervals);
                    }
                    Err(e) => prop_assert!(e.contains("costs.txt"), "{}", e),
                }
            }
        }
    }

    #[test]
    fn help_states_the_caps() {
        assert!(HELP.contains(&format!("cost intervals, 1 to {MAX_INTERVALS} ")));
        assert!(HELP.contains(&format!("is a whole number from 0 to {}\n", sqlkit::MAX_SPEC_COUNT)));
        assert!(HELP.contains(&format!(
            "worker threads,\n                          at most {MAX_THREADS};"
        )));
        assert!(
            HELP.contains(&format!("per wave,\n                          at most {MAX_LANES};"))
        );
        assert!(
            HELP.contains(&format!("mini-batch, at\n                          most {MAX_BATCH};"))
        );
    }
}
