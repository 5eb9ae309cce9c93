//! Checkpoint overhead measurement backing the EXPERIMENTS.md entry.
//!
//! Ignored by default (it is a timing run, not an assertion); reproduce
//! the recorded numbers with
//!
//! ```text
//! cargo test -p sqlbarber --test checkpoint_overhead --release -- --ignored --nocapture
//! ```
//!
//! The run is sized to force a multi-round BO search (18 scheduler
//! rounds) so the `--checkpoint-every 8` cadence actually lands
//! mid-search snapshots inside the measured phase. `every: 1` is the
//! stress ceiling: one snapshot per scheduler round.

use sqlbarber::cost::CostType;
use sqlbarber::{CheckpointConfig, SqlBarber, SqlBarberConfig};
use workload::redset::redset_template_specs;
use workload::{CostIntervals, TargetDistribution};

#[test]
#[ignore = "timing measurement, not a correctness gate"]
fn bo_phase_checkpoint_overhead() {
    let db = minidb::datagen::tpch::generate(minidb::datagen::tpch::TpchConfig {
        scale_factor: 0.01,
        seed: 42,
    });
    let target = TargetDistribution::uniform(CostIntervals::new(0.0, 5000.0, 30), 1200);
    let specs = redset_template_specs(1);
    let run = |checkpoint: Option<CheckpointConfig>| {
        let mut config = SqlBarberConfig { seed: 3, ..Default::default() };
        config.search.rounds_concurrency = 1;
        config.checkpoint = checkpoint;
        let report =
            SqlBarber::new(&db, config).generate(&specs, &target, CostType::Cardinality).unwrap();
        (report.phases.predicate_search, report.scheduler_rounds)
    };
    let dir = std::env::temp_dir().join("sqlbarber-checkpoint-overhead");
    // Interleaved reps so machine drift hits all three arms equally;
    // summarize with the per-rep median of differences.
    for rep in 0..7 {
        let (bo_none, rounds) = run(None);
        let _ = std::fs::remove_dir_all(&dir);
        let (bo_every8, _) = run(Some(CheckpointConfig { dir: dir.clone(), every: 8 }));
        let _ = std::fs::remove_dir_all(&dir);
        let (bo_every1, _) = run(Some(CheckpointConfig { dir: dir.clone(), every: 1 }));
        let _ = std::fs::remove_dir_all(&dir);
        println!(
            "rep {rep}: rounds={rounds} bo_none={bo_none:?} \
             bo_every8={bo_every8:?} bo_every1={bo_every1:?}"
        );
    }
}
