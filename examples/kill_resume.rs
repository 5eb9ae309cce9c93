//! Kill/resume chaos harness: prove crash-safe checkpointing against a
//! *real* process abort, not just an unwound error.
//!
//! The parent process re-executes itself once per kill point with
//! `SQLBARBER_KILL_AT` set. The child runs the pipeline with the chaos
//! switch in `abort` mode — at the chosen checkpoint boundary it calls
//! `std::process::abort()`, the hardest crash short of `kill -9`:
//! no destructors, no flushes, whatever the checkpoint layer already
//! fsynced is all that survives. The parent then resumes from the
//! snapshot directory and compares the recovered workload bit for bit
//! against an uninterrupted reference run.
//!
//! ```text
//! cargo run --release -p sqlbarber-examples --bin kill_resume
//! ```

use sqlbarber::{
    CheckpointConfig, CostType, GenerationReport, KillSwitch, SqlBarber, SqlBarberConfig,
};
use std::path::PathBuf;
use std::process::Command;
use workload::redset::redset_template_specs;
use workload::{CostIntervals, TargetDistribution};

const KILL_ENV: &str = "SQLBARBER_KILL_AT";
const DIR_ENV: &str = "SQLBARBER_CHECKPOINT_DIR";
const KILL_POINTS: [&str; 5] =
    ["after-templates", "after-profiling", "after-refine", "mid-search", "after-search"];

fn target() -> TargetDistribution {
    TargetDistribution::uniform(CostIntervals::new(0.0, 5000.0, 5), 60)
}

fn config(checkpoint: Option<CheckpointConfig>) -> SqlBarberConfig {
    let mut config = SqlBarberConfig::fast_test();
    config.checkpoint = checkpoint;
    config
}

fn pipeline(
    db: &minidb::Database,
    checkpoint: Option<CheckpointConfig>,
    kill: Option<KillSwitch>,
) -> GenerationReport {
    let specs = redset_template_specs(3);
    let mut barber = SqlBarber::new(db, config(checkpoint));
    if let Some(kill) = kill {
        barber = barber.with_kill_switch(kill);
    }
    barber.generate(&specs[..4], &target(), CostType::Cardinality).expect("generation succeeded")
}

/// Exact (SQL, cost-bits) fingerprint of a workload.
fn flatten(r: &GenerationReport) -> Vec<(String, u64)> {
    r.queries.iter().map(|q| (q.sql.clone(), q.cost.to_bits())).collect()
}

/// Child mode: run the pipeline and abort the process at the kill point.
fn child(point: &str, dir: PathBuf) -> ! {
    let db = minidb::datagen::tpch::generate(minidb::datagen::tpch::TpchConfig::tiny());
    let kill = KillSwitch::parse(&format!("{point}:abort")).expect("valid kill point");
    // `every: 1` makes the mid-search boundary come due on the first
    // scheduler round regardless of how many rounds the search needs.
    let _ = pipeline(&db, Some(CheckpointConfig { dir, every: 1 }), Some(kill));
    // Reaching here means the abort never fired — fail loudly so the
    // parent does not mistake a full run for a recovered one.
    eprintln!("child survived kill point {point}; chaos switch never fired");
    std::process::exit(3)
}

fn main() {
    if let Ok(point) = std::env::var(KILL_ENV) {
        let dir = PathBuf::from(std::env::var(DIR_ENV).expect("checkpoint dir env"));
        child(&point, dir);
    }

    let exe = std::env::current_exe().expect("own path");
    let db = minidb::datagen::tpch::generate(minidb::datagen::tpch::TpchConfig::tiny());
    println!("reference run (uninterrupted)…");
    let reference = pipeline(&db, None, None);
    let reference_flat = flatten(&reference);
    println!(
        "  {} queries, final distance {:.3}\n",
        reference.queries.len(),
        reference.final_distance
    );

    let mut failures = 0;
    for point in KILL_POINTS {
        let dir = std::env::temp_dir()
            .join(format!("sqlbarber-kill-resume-{}-{point}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        println!("kill at {point} (abort mode)…");
        let status = Command::new(&exe)
            .env(KILL_ENV, point)
            .env(DIR_ENV, &dir)
            .status()
            .expect("child process spawns");
        if status.success() || status.code() == Some(3) {
            eprintln!("  FAIL: child exited {status} without aborting");
            failures += 1;
            continue;
        }

        let snapshots = std::fs::read_dir(&dir).map(|entries| entries.count()).unwrap_or(0);
        print!("  child died as planned ({snapshots} snapshot files); resuming… ");
        let resumed =
            SqlBarber::new(&db, config(Some(CheckpointConfig { dir: dir.clone(), every: 1 })))
                .resume(&dir, &target(), CostType::Cardinality)
                .expect("resume succeeds");

        if flatten(&resumed) == reference_flat
            && resumed.final_distance.to_bits() == reference.final_distance.to_bits()
        {
            println!("bit-identical ✔");
        } else {
            println!("DIVERGED ✘");
            failures += 1;
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    if failures > 0 {
        eprintln!("\n{failures} kill point(s) failed");
        std::process::exit(1);
    }
    println!("\nall {} kill points recovered bit-identically", KILL_POINTS.len());
}
