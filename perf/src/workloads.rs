//! The four named workloads and their set-up.
//!
//! Each workload fixes everything the pipeline's work depends on: the
//! dataset (with its datagen seed), the target distribution, the cost
//! type, the specifications, the thread count and the optional
//! amplification/checkpoint stages. The SQLBarber master seed is part of
//! that definition too: the search's work is chaotic in it (on the
//! uniform/TPC-H cell, master seeds 2–8 take 0.86–21 s and 8k–35k probes),
//! so a benchmark that varied it would measure the seed, not the code.

use minidb::datagen::{imdb, tpch};
use minidb::Database;
use sqlbarber::{AmplifyConfig, CheckpointConfig, CostType, SqlBarberConfig};
use sqlkit::TemplateSpec;
use std::path::{Path, PathBuf};
use workload::redset::{redset_template_specs, DEFAULT_SEED};
use workload::{benchmark_by_name, CostIntervals, TargetDistribution};

/// Workload names in round-robin order.
pub const NAMES: [&str; 4] = [
    "bo_uniform_tpch",
    "bo_redset_hard_imdb",
    "exec_actual_card",
    "amplify_ckpt",
];

/// SQLBarber master seed of every workload (the ROADMAP reference cell's).
pub const MASTER_SEED: u64 = 42;

/// Specifications of the execution-bound workload. The default 24 Redset
/// specs include joins, which make actual execution run for many minutes.
const EXEC_SPECS: [&str; 3] = [
    "tables=1 joins=0",
    "tables=1 joins=0; use ORDER BY",
    "tables=1 joins=0; use GROUP BY",
];

/// A dataset and its scale. Datagen seeds are fixed: they define the data.
#[derive(Debug, Clone, Copy)]
pub enum Dataset {
    Tpch(f64),
    Imdb(f64),
}

impl Dataset {
    pub fn generate(self) -> Database {
        match self {
            Dataset::Tpch(scale_factor) => tpch::generate(tpch::TpchConfig {
                scale_factor,
                seed: 42,
            }),
            Dataset::Imdb(scale) => imdb::generate(imdb::ImdbConfig { scale, seed: 1337 }),
        }
    }
}

/// One benchmark workload.
pub struct Workload {
    pub name: &'static str,
    pub dataset: Dataset,
    pub target: TargetDistribution,
    pub cost_type: CostType,
    pub specs: Vec<TemplateSpec>,
    pub threads: usize,
    /// Amplified queries streamed to a file after convergence (0 = off).
    pub amplify: u64,
    /// Mid-search checkpoint cadence in scheduler rounds (`None` = off).
    pub checkpoint_every: Option<u64>,
}

impl Workload {
    /// The workload called `name`; `quick` shrinks it to a smoke-test size.
    pub fn by_name(name: &str, quick: bool) -> Option<Workload> {
        let redset = || redset_template_specs(DEFAULT_SEED);
        let table1 = |bench: &str| {
            benchmark_by_name(bench)
                .expect("Table-1 benchmark exists")
                .target()
        };
        let uniform_tpch = |name: &'static str| Workload {
            name,
            dataset: Dataset::Tpch(if quick { 0.002 } else { 0.05 }),
            target: if quick {
                TargetDistribution::uniform(CostIntervals::new(0.0, 1000.0, 5), 60)
            } else {
                table1("uniform")
            },
            cost_type: CostType::Cardinality,
            specs: redset(),
            threads: 1,
            amplify: 0,
            checkpoint_every: None,
        };
        Some(match name {
            "bo_uniform_tpch" => uniform_tpch("bo_uniform_tpch"),
            "bo_redset_hard_imdb" => Workload {
                name: "bo_redset_hard_imdb",
                dataset: Dataset::Imdb(if quick { 0.1 } else { 4.0 }),
                target: if quick {
                    TargetDistribution::redset_cost(CostIntervals::new(0.0, 10_000.0, 5), 60)
                } else {
                    table1("Redset_Cost_Hard")
                },
                cost_type: CostType::PlanCost,
                specs: redset(),
                threads: 2,
                amplify: 0,
                checkpoint_every: None,
            },
            "exec_actual_card" => Workload {
                name: "exec_actual_card",
                dataset: Dataset::Tpch(if quick { 0.002 } else { 0.005 }),
                target: if quick {
                    TargetDistribution::uniform(CostIntervals::new(0.0, 400.0, 4), 24)
                } else {
                    TargetDistribution::uniform(CostIntervals::new(0.0, 1000.0, 5), 200)
                },
                cost_type: CostType::ActualCardinality,
                specs: EXEC_SPECS
                    .iter()
                    .zip(1..)
                    .map(|(text, id)| TemplateSpec::parse_declarative(id, text))
                    .collect(),
                threads: 1,
                amplify: 0,
                checkpoint_every: None,
            },
            // One thread: on two, amplification spawns scoped workers per
            // wave and its time varied 1.4–2.3 s between back-to-back runs
            // (1.7–2.0 s on one thread).
            "amplify_ckpt" => Workload {
                amplify: if quick { 5_000 } else { 300_000 },
                checkpoint_every: Some(8),
                ..uniform_tpch("amplify_ckpt")
            },
            _ => return None,
        })
    }

    /// Path of the amplified workload file inside a run directory.
    pub fn amplified_path(dir: &Path) -> PathBuf {
        dir.join("amplified.sql")
    }

    /// Path of the checkpoint directory inside a run directory.
    pub fn checkpoint_dir(dir: &Path) -> PathBuf {
        dir.join("checkpoints")
    }

    /// The pipeline configuration, writing any files under `dir`.
    pub fn config(&self, dir: &Path) -> SqlBarberConfig {
        SqlBarberConfig {
            seed: MASTER_SEED,
            threads: self.threads,
            amplify: (self.amplify > 0).then(|| AmplifyConfig {
                n: self.amplify,
                out: Some(Workload::amplified_path(dir)),
                ..AmplifyConfig::default()
            }),
            checkpoint: self.checkpoint_every.map(|every| CheckpointConfig {
                dir: Workload::checkpoint_dir(dir),
                every,
            }),
            ..SqlBarberConfig::default()
        }
    }
}
