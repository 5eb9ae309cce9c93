//! `perf` — end-to-end and per-layer benchmark of SQLBarber-RS.
//!
//! ```text
//! perf [--workload NAME]... [--seed N] [--reps N | --seconds S]
//!      [--trace 0|1] [--quick] [--out PATH]
//! perf --compare OLD.json NEW.json
//! ```
//!
//! Each workload (all four by default) first builds its database several
//! times (`setup_s` is the median). It then runs through the public
//! `SqlBarber::generate` API with tracing off, round-robin across
//! workloads, one run at a time: `--reps` runs each (default 5), or
//! `--seconds` runs each at least twice and until it has measured
//! that long. The first run's output is verified through the scalar cost
//! path; later runs must reproduce it exactly. With `--trace 1` (the
//! default) one traced pass per workload then times each layer from
//! outside. Set-up and run times are reported in reference seconds (see
//! [`calibrate`]).
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics of
//! `BENCHMARK.json` with `--trace 0`, its per-layer metrics with
//! `--trace 1`, each `{"value", "unit"}`. With several workloads each
//! metric name is prefixed by `<workload>/`. `--out` writes the ledger:
//! the environment, every end-to-end sample with median, max and n, the
//! correctness counters and the per-layer metrics. `--seed` draws the
//! benchmark's sampled inputs (the amplified-file verification sample and
//! the layer replays' inputs); the pipeline's own seeds are part of each
//! workload's definition.
//!
//! Exit codes: 0 success, 1 incorrect output or a failed run (including a
//! traced pass that diverges from the untraced run), 2 usage errors.

// The workspace's clippy.toml bans wall clocks to keep generated output
// deterministic; measuring wall-clock time is this program's purpose.
#![allow(clippy::disallowed_methods)]

mod alloc;
mod calibrate;
mod compare;
mod ledger;
mod run;
mod stats;
mod trace;
mod verify;
mod workloads;

use calibrate::Clock;
use ledger::{object, sampled, Catalogue};
use serde_json::Value;
use sqlbarber::snapshot::CheckpointDir;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use workloads::{Workload, NAMES};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: perf [--workload NAME]... [--seed N] [--reps N | --seconds S] \
                     [--trace 0|1] [--quick] [--out PATH]\n       perf --compare OLD NEW";

/// Database builds per workload; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Runs per workload with `--seconds`, however long they take, so that a
/// slowed machine still yields a median of two (one `exec_actual_card` run
/// takes 7–11 s).
const MIN_TIMED_RUNS: usize = 2;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workloads: Vec<String>,
    seed: u64,
    reps: usize,
    /// Measure each workload at least this long instead of `reps` runs.
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
}

#[derive(Debug, Clone, PartialEq)]
enum Command {
    Bench(Args),
    Compare(PathBuf, PathBuf),
}

fn parse_args(argv: &[String]) -> Result<Command, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 42,
        reps: 5,
        seconds: None,
        trace: true,
        quick: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("missing value for `{flag}`"))
        };
        let number = |raw: &String| -> Result<f64, String> {
            raw.parse::<f64>()
                .ok()
                .filter(|v| v.is_finite() && *v >= 0.0)
                .ok_or_else(|| format!("invalid value `{raw}` for `{flag}`"))
        };
        match flag.as_str() {
            "--compare" => {
                let old = PathBuf::from(value()?);
                let new = PathBuf::from(value()?);
                return match it.next() {
                    None => Ok(Command::Compare(old, new)),
                    Some(extra) => Err(format!("unexpected argument `{extra}`")),
                };
            }
            "--workload" => args.workloads.push(value()?.clone()),
            "--seed" => {
                let raw = value()?;
                args.seed = raw
                    .parse()
                    .map_err(|_| format!("invalid value `{raw}` for `--seed`"))?;
            }
            "--reps" => {
                let raw = value()?;
                args.reps = raw
                    .parse()
                    .ok()
                    .filter(|&r| r > 0)
                    .ok_or_else(|| format!("invalid value `{raw}` for `--reps`"))?;
            }
            "--seconds" => args.seconds = Some(number(value()?)?),
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("invalid value `{other}` for `--trace` (0 or 1)")),
                }
            }
            "--quick" => args.quick = true,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if args.workloads.is_empty() {
        args.workloads = NAMES.iter().map(|n| n.to_string()).collect();
    }
    Ok(Command::Bench(args))
}

/// Resolve the workloads, refusing unknown names and thread counts above
/// the machine's parallelism.
fn resolve(args: &Args) -> Result<Vec<Workload>, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    args.workloads
        .iter()
        .map(|name| {
            let w = Workload::by_name(name, args.quick).ok_or_else(|| {
                format!("unknown workload `{name}` (one of {})", NAMES.join(", "))
            })?;
            if w.threads > nproc {
                return Err(format!(
                    "workload `{name}` needs {} threads but only {nproc} are available",
                    w.threads
                ));
            }
            Ok(w)
        })
        .collect()
}

/// A per-process temporary directory inside the working directory, removed
/// on drop (also when a run fails or panics).
struct TempDir(PathBuf);

const TEMP_ROOT: &str = ".perf_tmp";

impl TempDir {
    fn create() -> Result<TempDir, String> {
        let path = Path::new(TEMP_ROOT).join(std::process::id().to_string());
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(TempDir(path))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(TEMP_ROOT);
    }
}

/// One workload's state across the run.
struct Cell {
    w: Workload,
    db: minidb::Database,
    dir: PathBuf,
    /// Set-up and run times as measured and in reference seconds.
    setup_raw_s: Vec<f64>,
    setup_s: Vec<f64>,
    wall_s: Vec<f64>,
    reps: Vec<run::Rep>,
    /// The first run's report, kept for verification and the trace guard.
    first: Option<sqlbarber::GenerationReport>,
    verification: verify::Verification,
    /// Runs whose output differs from the first run's or did not converge.
    failed_reps: u64,
    layers: trace::Layers,
}

impl Cell {
    fn wants_run(&self, args: &Args) -> bool {
        match args.seconds {
            Some(seconds) => {
                self.reps.len() < MIN_TIMED_RUNS
                    || self.reps.iter().map(|r| r.wall_s).sum::<f64>() < seconds
            }
            None => self.reps.len() < args.reps,
        }
    }

    fn report(&self) -> &sqlbarber::GenerationReport {
        self.first
            .as_ref()
            .expect("every workload ran at least once")
    }

    fn correct(&self) -> bool {
        self.verification.failed == 0 && self.failed_reps == 0
    }

    /// End-to-end samples by metric name.
    fn end_to_end(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let report = self.report();
        let n = self.reps.len();
        BTreeMap::from([
            ("setup_s", self.setup_s.clone()),
            ("wall_s", self.wall_s.clone()),
            // The first run's: later runs start from a heap that earlier
            // runs grew, so their peaks creep up with the run count.
            (
                "peak_rss_mb",
                self.reps
                    .first()
                    .and_then(|r| r.peak_rss_mb)
                    .into_iter()
                    .collect(),
            ),
            ("fill_rate", vec![report.fill_rate(); n]),
            ("oracle_probes", vec![report.oracle_probes as f64; n]),
            (
                "oracle_physical",
                vec![report.oracle_physical_evals as f64; n],
            ),
            (
                "llm_tokens",
                vec![report.llm_usage.total_tokens() as f64; n],
            ),
        ])
    }

    fn verify_fail_rate(&self) -> f64 {
        stats::ratio(
            self.verification.failed as f64,
            self.verification.checked as f64,
        )
    }
}

/// Build the workload's database `reps` times; returns the first build
/// with the raw and scaled build times. The runs use the first build: the
/// later ones are dropped whole, so they leave no holes under it. (Keeping
/// the last build left it among the freed ones, and the run's peak RSS then
/// varied by ±2% from process to process with the hash seeds.)
fn setup(w: &Workload, reps: usize, clock: &mut Clock) -> (minidb::Database, Vec<f64>, Vec<f64>) {
    let (mut raw, mut scaled) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    let mut build = || {
        clock.begin();
        let start = Instant::now();
        let db = w.dataset.generate();
        let seconds = start.elapsed().as_secs_f64();
        raw.push(seconds);
        scaled.push(clock.end(seconds));
        db
    };
    let db = build();
    for _ in 1..reps {
        drop(build());
    }
    (db, raw, scaled)
}

/// Snapshots a checkpointed run wrote: one past the newest generation.
fn snapshots_written(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            name.strip_prefix("snapshot-")?
                .strip_suffix(".bin")?
                .parse::<u64>()
                .ok()
        })
        .max()
        .map_or(0, |newest| newest + 1)
}

/// Run the benchmark, print the result line and write the ledger.
fn bench(args: &Args, workloads: Vec<Workload>) -> Result<i32, String> {
    let (cells, calibration) = measure(args, workloads)?;
    let catalogue = Catalogue::load();
    if let Some(path) = &args.out {
        let text =
            serde_json::to_string_pretty(&ledger_json(args, &cells, &calibration, &catalogue))
                .map_err(|e| e.to_string())?;
        std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("[perf] wrote {}", path.display());
    }
    println!("{}", result_line(args, &cells, &catalogue)?);
    Ok(if cells.iter().all(Cell::correct) {
        0
    } else {
        1
    })
}

/// Set up, run, verify and (with `--trace 1`) trace every workload.
/// Also returns every calibration sample taken.
fn measure(args: &Args, workloads: Vec<Workload>) -> Result<(Vec<Cell>, Vec<f64>), String> {
    let tmp = TempDir::create()?;
    let setup_reps = if args.quick { 1 } else { SETUP_REPS };
    // Quick runs are smoke tests: their times stay raw, and the loop,
    // slow in a debug build, is skipped.
    let mut clock = Clock::new(!args.quick);
    let mut cells = Vec::with_capacity(workloads.len());
    for w in workloads {
        let dir = tmp.0.join(w.name);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let (db, setup_raw_s, setup_s) = setup(&w, setup_reps, &mut clock);
        eprintln!(
            "[perf] {}: set-up {:.3} s, {:.3} reference s (median of {setup_reps})",
            w.name,
            stats::median(&setup_raw_s),
            stats::median(&setup_s)
        );
        cells.push(Cell {
            w,
            db,
            dir,
            setup_raw_s,
            setup_s,
            wall_s: Vec::new(),
            reps: Vec::new(),
            first: None,
            verification: verify::Verification::default(),
            failed_reps: 0,
            layers: trace::Layers::new(),
        });
    }

    // Round-robin: one run of every workload that wants more, repeated.
    while cells.iter().any(|c| c.wants_run(args)) {
        for cell in cells.iter_mut().filter(|c| c.wants_run(args)) {
            clock.begin();
            let (report, rep) = run::run_once(&cell.w, &cell.db, &cell.dir)?;
            let wall_s = clock.end(rep.wall_s);
            let converged = report.final_distance == 0.0 && report.fill_rate() == 1.0;
            let reproduced = cell
                .reps
                .first()
                .is_none_or(|r| r.fingerprint == rep.fingerprint);
            cell.failed_reps += u64::from(!converged || !reproduced);
            eprintln!(
                "[perf] {}: run {} {:.3} s, {wall_s:.3} reference s, peak {:.1} MiB{}",
                cell.w.name,
                cell.reps.len() + 1,
                rep.wall_s,
                rep.peak_rss_mb.unwrap_or(f64::NAN),
                if converged && reproduced {
                    ""
                } else {
                    " (did not converge or reproduce)"
                }
            );
            if cell.first.is_none() {
                let amplified = Workload::amplified_path(&cell.dir);
                cell.verification = verify::verify(
                    &cell.db,
                    &report,
                    &cell.w.target,
                    cell.w.cost_type,
                    report.amplify.is_some().then_some(amplified.as_path()),
                    args.seed,
                );
                if let Some(failure) = &cell.verification.first_failure {
                    eprintln!("[perf] {}: verification failed: {failure}", cell.w.name);
                }
                cell.first = Some(report);
                clock.invalidate();
            }
            cell.wall_s.push(wall_s);
            cell.reps.push(rep);
        }
    }

    if args.trace {
        for cell in &mut cells {
            let dir = cell.dir.join("traced");
            std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            let checkpoints = Workload::checkpoint_dir(&cell.dir);
            let reference = trace::Reference {
                report: cell.report(),
                wall_s: stats::median(&cell.reps.iter().map(|r| r.wall_s).collect::<Vec<_>>()),
                amplified_hash: cell.verification.amplified_hash,
                snapshots: snapshots_written(&checkpoints),
                newest_snapshot: checkpoints
                    .is_dir()
                    .then(|| CheckpointDir::load_latest(&checkpoints))
                    .transpose()
                    .map_err(|e| format!("{}: {e}", checkpoints.display()))?,
            };
            let mut layers = trace::traced_pass(&cell.w, &cell.db, &dir, &reference, args.seed)?;
            layers.insert("verify.checked", cell.verification.checked as f64);
            layers.insert("verify.ms", cell.verification.ms);
            eprintln!(
                "[perf] {}: traced pass reproduced the untraced run",
                cell.w.name
            );
            cell.layers = layers;
        }
    }
    Ok((cells, clock.samples))
}

/// The last stdout line: correctness, counts and the selected metrics.
fn result_line(args: &Args, cells: &[Cell], catalogue: &Catalogue) -> Result<Value, String> {
    let specs = if args.trace {
        &catalogue.per_layer
    } else {
        &catalogue.end_to_end
    };
    let mut metrics = Vec::new();
    for cell in cells {
        let end_to_end = cell.end_to_end();
        for spec in specs {
            let value = if args.trace {
                cell.layers.get(spec.name.as_str()).copied()
            } else {
                end_to_end
                    .get(spec.name.as_str())
                    .filter(|v| !v.is_empty())
                    .map(|v| stats::median(v))
            };
            let value = value.ok_or_else(|| {
                format!("{}: metric `{}` was not measured", cell.w.name, spec.name)
            })?;
            let name = if cells.len() == 1 {
                spec.name.clone()
            } else {
                format!("{}/{}", cell.w.name, spec.name)
            };
            metrics.push((
                name,
                object([
                    ("value", Value::Float(value)),
                    ("unit", Value::String(spec.unit.clone())),
                ]),
            ));
        }
    }
    let attempted: u64 = cells
        .iter()
        .map(|c| c.verification.checked + c.reps.len() as u64)
        .sum();
    let failed: u64 = cells
        .iter()
        .map(|c| c.verification.failed + c.failed_reps)
        .sum();
    Ok(object([
        ("correct", Value::Bool(cells.iter().all(Cell::correct))),
        ("attempted", Value::Int(attempted as i64)),
        ("failed", Value::Int(failed as i64)),
        ("metrics", object(metrics)),
    ]))
}

/// Output of `command args…`, trimmed, or `unknown`.
fn command_output(command: &str, args: &[&str]) -> String {
    std::process::Command::new(command)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn ledger_json(args: &Args, cells: &[Cell], calibration: &[f64], catalogue: &Catalogue) -> Value {
    let env = object([
        (
            "nproc",
            Value::Int(std::thread::available_parallelism().map_or(1, |n| n.get()) as i64),
        ),
        ("rustc", Value::String(command_output("rustc", &["-V"]))),
        (
            "git_sha",
            Value::String(command_output("git", &["rev-parse", "HEAD"])),
        ),
        (
            "profile",
            Value::String(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        ("seed", Value::Int(args.seed as i64)),
        (
            "reps",
            args.seconds
                .map_or(Value::Int(args.reps as i64), |_| Value::Null),
        ),
        ("seconds", args.seconds.map_or(Value::Null, Value::Float)),
        ("quick", Value::Bool(args.quick)),
        ("master_seed", Value::Int(workloads::MASTER_SEED as i64)),
        (
            "vmhwm_reset",
            Value::Bool(cells.iter().all(|c| c.reps.iter().all(|r| r.rss_reset))),
        ),
        (
            "calibration_reference_s",
            Value::Float(calibrate::REFERENCE_S),
        ),
        ("calibration_s", sampled("s", calibration)),
    ]);
    let workloads = cells.iter().map(|cell| {
        let end_to_end = cell.end_to_end();
        let e2e = catalogue.end_to_end.iter().map(|spec| {
            let values = end_to_end
                .get(spec.name.as_str())
                .cloned()
                .unwrap_or_default();
            // VmHWM without a reset is the process's lifetime peak, not the
            // run's: record it as unavailable rather than wrong.
            let unavailable = spec.name == "peak_rss_mb" && !cell.reps.iter().all(|r| r.rss_reset);
            (
                spec.name.clone(),
                if unavailable {
                    Value::Null
                } else {
                    sampled(&spec.unit, &values)
                },
            )
        });
        let report = cell.report();
        let correctness = object([
            ("final_distance", Value::Float(report.final_distance)),
            ("verify_fail_rate", Value::Float(cell.verify_fail_rate())),
            ("verified", Value::Int(cell.verification.checked as i64)),
            ("failed_runs", Value::Int(cell.failed_reps as i64)),
        ]);
        let per_layer = catalogue.per_layer.iter().filter_map(|spec| {
            let value = cell.layers.get(spec.name.as_str())?;
            Some((
                spec.name.clone(),
                object([
                    ("value", Value::Float(*value)),
                    ("unit", Value::String(spec.unit.clone())),
                ]),
            ))
        });
        (
            cell.w.name,
            object([
                ("end_to_end", object(e2e)),
                (
                    "raw",
                    object([
                        ("setup_s", sampled("s", &cell.setup_raw_s)),
                        (
                            "wall_s",
                            sampled("s", &cell.reps.iter().map(|r| r.wall_s).collect::<Vec<_>>()),
                        ),
                    ]),
                ),
                ("correctness", correctness),
                ("per_layer", object(per_layer)),
            ]),
        )
    });
    object([("env", env), ("workloads", object(workloads))])
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse_args(&argv) {
        Err(e) => {
            eprintln!("perf: {e}\n{USAGE}");
            2
        }
        Ok(Command::Compare(old, new)) => compare::run(&old, &new),
        Ok(Command::Bench(args)) => match resolve(&args) {
            Err(e) => {
                eprintln!("perf: {e}");
                2
            }
            Ok(workloads) => bench(&args, workloads).unwrap_or_else(|e| {
                eprintln!("perf: {e}");
                1
            }),
        },
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_parse_and_bad_values_are_usage_errors() {
        let Ok(Command::Bench(args)) = parse_args(&argv(&[
            "--workload",
            "exec_actual_card",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])) else {
            panic!("bench flags parse")
        };
        assert_eq!(args.workloads, ["exec_actual_card"]);
        assert_eq!(
            (args.seed, args.seconds, args.trace),
            (7, Some(10.0), false)
        );
        assert_eq!(
            parse_args(&argv(&["--compare", "a.json", "b.json"])),
            Ok(Command::Compare("a.json".into(), "b.json".into()))
        );
        for bad in [
            &["--trace", "2"][..],
            &["--reps", "0"],
            &["--seed"],
            &["--seconds", "-1"],
            &["--bogus"],
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?}");
        }
        let unknown = Args {
            workloads: vec!["nope".into()],
            ..match parse_args(&[]) {
                Ok(Command::Bench(a)) => a,
                _ => unreachable!(),
            }
        };
        assert!(resolve(&unknown).is_err());
    }

    /// Quick variants of all four workloads, end to end: every metric of
    /// `BENCHMARK.json` is emitted, every output verifies, and every traced
    /// pass reproduces its untraced run (`measure` fails otherwise).
    #[test]
    fn quick_run_emits_every_metric_and_verifies() {
        let catalogue = Catalogue::load();
        assert_eq!(Catalogue::workload_names(), NAMES);
        let args = Args {
            workloads: NAMES.iter().map(|n| n.to_string()).collect(),
            seed: 3,
            reps: 2,
            seconds: None,
            trace: true,
            quick: true,
            out: None,
        };
        let (cells, calibration) = measure(&args, resolve(&args).expect("quick workloads resolve"))
            .expect("quick benchmark runs and its traces reproduce");
        for (trace, specs) in [(false, &catalogue.end_to_end), (true, &catalogue.per_layer)] {
            let line = result_line(
                &Args {
                    trace,
                    ..args.clone()
                },
                &cells,
                &catalogue,
            )
            .expect("every metric is measured");
            assert_eq!(line["correct"], true, "{line}");
            assert_eq!(line["failed"], 0, "{line}");
            for cell in &cells {
                for spec in specs {
                    let value = &line["metrics"][format!("{}/{}", cell.w.name, spec.name).as_str()];
                    assert!(
                        value["value"].as_f64().is_some_and(f64::is_finite),
                        "{}: {value}",
                        spec.name
                    );
                }
            }
        }
        let ledger = ledger_json(&args, &cells, &calibration, &catalogue);
        for name in NAMES {
            assert_eq!(
                ledger["workloads"][name]["correctness"]["verify_fail_rate"],
                0.0
            );
        }
    }
}
