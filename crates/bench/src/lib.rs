//! # gretel-bench — the experiment driver
//!
//! One binary, `experiments [NAME…] [--seed N] [--store-dir DIR]`, runs the
//! entries of [`EXPERIMENTS`] (all of them when no name is given) over one
//! shared [`Workbench`] and writes each entry's JSON artifacts under
//! `results/`. Every artifact is a pure function of (code, seed): nothing
//! here reads a clock, the process's memory or the host's core count —
//! time is `benchmark/`'s job — so `scripts/ci.sh` regenerates `results/`
//! and diffs it against the committed copy. DESIGN.md §3 maps entries to
//! the paper's tables and figures.

#![warn(missing_docs)]

mod experiments;
pub mod precision;
pub mod results;
pub mod workload;

pub use results::Artifact;

use experiments::{characterization, durable, grids, latency, loss, observability, rca, stream};
use gretel_core::{
    run_service_cfg, Analyzer, AnalyzerStats, CharacterizationStats, Diagnosis, FingerprintLibrary,
    GretelConfig, ServiceConfig, ServiceStats,
};
use gretel_model::{Catalog, Message, NodeId, TempestSuite};
use gretel_sim::{Deployment, Execution};
use std::path::PathBuf;
use std::sync::Arc;

/// Everything the experiments share: the catalog, the generated suite,
/// the deployment and the characterized fingerprint library.
pub struct Workbench {
    /// The OpenStack API catalog.
    pub catalog: Arc<Catalog>,
    /// The 1200-test synthetic Tempest suite.
    pub suite: TempestSuite,
    /// The 7-node deployment.
    pub deployment: Deployment,
    /// Fingerprints learned from the suite (Algorithm 1 over 2 isolated
    /// runs per test).
    pub library: FingerprintLibrary,
    /// Raw event counts from characterization (Table 1's Events columns).
    pub char_stats: Vec<CharacterizationStats>,
}

impl Workbench {
    /// Build the full workbench (≈200 ms in release mode).
    pub fn new(seed: u64) -> Workbench {
        let catalog = Catalog::openstack();
        let suite = TempestSuite::generate(catalog.clone(), seed);
        Workbench::characterized(catalog, suite, seed)
    }

    /// A reduced workbench for unit tests (`per_category` tests per
    /// category).
    pub fn small(seed: u64, per_category: usize) -> Workbench {
        let catalog = Catalog::openstack();
        let counts: Vec<(gretel_model::Category, usize)> = gretel_model::Category::ALL
            .iter()
            .map(|&c| (c, per_category))
            .collect();
        let suite = TempestSuite::generate_with_counts(catalog.clone(), seed, &counts);
        Workbench::characterized(catalog, suite, seed)
    }

    fn characterized(catalog: Arc<Catalog>, suite: TempestSuite, seed: u64) -> Workbench {
        let deployment = Deployment::standard();
        let (library, char_stats) = FingerprintLibrary::characterize(
            catalog.clone(),
            suite.specs(),
            &deployment,
            2,
            seed ^ 0xF1F1,
        );
        Workbench {
            catalog,
            suite,
            deployment,
            library,
            char_stats,
        }
    }

    /// The analyzer configuration with α derived from a message rate
    /// (paper §5.3.1, `t` = 2 s of traffic).
    pub fn config_at(&self, p_rate: f64) -> GretelConfig {
        GretelConfig::auto(self.library.fp_max(), p_rate, 2.0)
    }

    /// `messages` through the threaded store-less service on a fresh
    /// analyzer over the workbench library.
    pub fn serve(
        &self,
        gcfg: GretelConfig,
        nodes: &[NodeId],
        messages: &[Message],
        cfg: &ServiceConfig,
    ) -> (Vec<Diagnosis>, ServiceStats, AnalyzerStats) {
        run_service_cfg(
            &mut Analyzer::new(&self.library, gcfg),
            nodes,
            messages,
            cfg,
        )
    }
}

/// Observed message rate of a simulated run, messages per simulated second.
pub fn p_rate(exec: &Execution) -> f64 {
    exec.messages.len() as f64 / (exec.duration.max(1) as f64 / 1e6)
}

/// What one driver invocation hands every experiment.
pub struct Ctx {
    /// The shared workbench, built once per process.
    pub wb: Workbench,
    /// The seed everything derives from.
    pub seed: u64,
    /// Where experiments with on-disk stores put them (`--store-dir`);
    /// `None` means a temp directory removed after the experiment.
    pub store_dir: Option<PathBuf>,
}

impl Ctx {
    /// The directory `experiment`'s stores live under: inside
    /// `--store-dir` when given, else a per-process temp directory.
    pub fn store_base(&self, experiment: &str) -> PathBuf {
        match &self.store_dir {
            Some(dir) => dir.join(experiment),
            None => std::env::temp_dir().join(format!(
                "gretel-{experiment}-{}-{}",
                std::process::id(),
                self.seed
            )),
        }
    }

    /// Remove a [`Ctx::store_base`] directory unless it sits in a
    /// caller-provided `--store-dir`, which is the caller's to inspect and
    /// clean up.
    pub fn release_store(&self, base: &std::path::Path) {
        if self.store_dir.is_none() {
            std::fs::remove_dir_all(base).ok();
        }
    }
}

/// One entry of the experiment table.
pub struct Experiment {
    /// The name given on the command line.
    pub name: &'static str,
    /// Stems of the `results/<stem>.json` files the entry produces.
    pub artifacts: &'static [&'static str],
    /// Run it. Gates are assertions: a failed gate aborts the driver.
    pub run: fn(&Ctx) -> Vec<Artifact>,
}

/// Every experiment, in the order the full battery runs them.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "table1",
        artifacts: &["table1"],
        run: characterization::table1,
    },
    Experiment {
        name: "fig5",
        artifacts: &["fig5"],
        run: characterization::fig5,
    },
    Experiment {
        name: "fig6",
        artifacts: &["fig6"],
        run: latency::fig6,
    },
    Experiment {
        name: "fig7a",
        artifacts: &["fig7a"],
        run: grids::fig7a,
    },
    Experiment {
        name: "fig7b",
        artifacts: &["fig7b"],
        run: grids::fig7b,
    },
    Experiment {
        name: "fig7c",
        artifacts: &["fig7c"],
        run: grids::fig7c,
    },
    Experiment {
        name: "fig8a",
        artifacts: &["fig8a"],
        run: grids::fig8a,
    },
    Experiment {
        name: "fig8b",
        artifacts: &["fig8b", "fig8b_spike"],
        run: latency::fig8b,
    },
    Experiment {
        name: "fig8c",
        artifacts: &["fig8c"],
        run: stream::fig8c,
    },
    Experiment {
        name: "case_studies",
        artifacts: &["case_studies"],
        run: rca::case_studies,
    },
    Experiment {
        name: "corr_ablation",
        artifacts: &["corr_ablation"],
        run: grids::corr_ablation,
    },
    Experiment {
        name: "policy_ablation",
        artifacts: &["policy_ablation"],
        run: grids::policy_ablation,
    },
    Experiment {
        name: "loss_ablation",
        artifacts: &["loss_ablation"],
        run: loss::loss_ablation,
    },
    Experiment {
        name: "robustness",
        artifacts: &["robustness"],
        run: loss::robustness,
    },
    Experiment {
        name: "scale",
        artifacts: &["scale_library", "scale_deployment"],
        run: grids::scale,
    },
    Experiment {
        name: "propagation",
        artifacts: &["propagation"],
        run: rca::propagation,
    },
    Experiment {
        name: "recovery",
        artifacts: &["recovery"],
        run: durable::recovery,
    },
    Experiment {
        name: "observability",
        artifacts: &["observability"],
        run: observability::observability,
    },
    Experiment {
        name: "soak",
        artifacts: &["soak"],
        run: stream::soak,
    },
];

/// Run one entry and check it produced exactly the artifacts it declares.
pub fn run_experiment(exp: &Experiment, ctx: &Ctx) -> Vec<Artifact> {
    let artifacts = (exp.run)(ctx);
    let stems: Vec<&str> = artifacts.iter().map(|a| a.stem).collect();
    assert_eq!(
        stems, exp.artifacts,
        "{}: artifacts differ from its table entry",
        exp.name
    );
    artifacts
}

/// The `experiments` binary: parse `[NAME…] [--seed N] [--store-dir DIR]`,
/// run the selected entries, print and write their artifacts. Anything
/// else on the command line is an error.
pub fn main(mut args: impl Iterator<Item = String>) -> Result<(), String> {
    let mut seed = 42u64;
    let mut store_dir = None;
    let mut selected: Vec<&Experiment> = Vec::new();
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--seed" => {
                let v = value()?;
                seed = v
                    .parse()
                    .map_err(|_| format!("--seed: not a number: {v}"))?;
            }
            "--store-dir" => store_dir = Some(PathBuf::from(value()?)),
            name => {
                selected.push(EXPERIMENTS.iter().find(|e| e.name == name).ok_or_else(|| {
                    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
                    format!(
                        "unknown experiment or option `{name}`; experiments: {}",
                        names.join(" ")
                    )
                })?)
            }
        }
    }
    if selected.is_empty() {
        selected.extend(EXPERIMENTS);
    }
    let ctx = Ctx {
        wb: Workbench::new(seed),
        seed,
        store_dir,
    };
    for exp in selected {
        println!("\n#### {} ####", exp.name);
        for artifact in run_experiment(exp, &ctx) {
            artifact.print();
            let path = artifact.write(&results::dir()).map_err(|e| e.to_string())?;
            println!("[results written to {}]", path.display());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn small_workbench_builds_and_characterizes() {
        let wb = Workbench::small(3, 4);
        assert_eq!(wb.suite.len(), 20);
        assert_eq!(wb.library.len(), 20);
        assert!(wb.library.fp_max() > 0);
        assert_eq!(wb.char_stats.len(), 20);
    }

    #[test]
    fn table_names_and_stems_are_unique_and_match_results_on_disk() {
        let names: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(
            names.len(),
            EXPERIMENTS.len(),
            "experiment names are unique"
        );
        let stems: Vec<String> = EXPERIMENTS
            .iter()
            .flat_map(|e| e.artifacts.iter().map(|s| s.to_string()))
            .collect();
        let unique: BTreeSet<String> = stems.iter().cloned().collect();
        assert_eq!(unique.len(), stems.len(), "artifact stems are unique");
        let on_disk: BTreeSet<String> = std::fs::read_dir(results::dir())
            .expect("results/ exists")
            .filter_map(|e| {
                e.ok()?
                    .file_name()
                    .to_str()?
                    .strip_suffix(".json")
                    .map(String::from)
            })
            .collect();
        assert_eq!(
            unique, on_disk,
            "results/*.json is exactly what the table produces"
        );
    }

    #[test]
    fn experiments_are_a_pure_function_of_the_seed() {
        let ctx = Ctx {
            wb: Workbench::small(3, 4),
            seed: 3,
            store_dir: None,
        };
        for name in ["table1", "fig5"] {
            let exp = EXPERIMENTS
                .iter()
                .find(|e| e.name == name)
                .expect("in the table");
            let json = |a: Vec<Artifact>| a.into_iter().map(|a| a.json).collect::<Vec<_>>();
            assert_eq!(
                json(run_experiment(exp, &ctx)),
                json(run_experiment(exp, &ctx))
            );
        }
    }

    #[test]
    fn unknown_names_flags_and_bad_values_are_errors() {
        let run = |args: &[&str]| main(args.iter().map(|s| s.to_string()));
        assert!(run(&["fig99"]).unwrap_err().contains("unknown experiment"));
        assert!(run(&["--quick"])
            .unwrap_err()
            .contains("unknown experiment or option"));
        assert!(run(&["--seed", "abc"])
            .unwrap_err()
            .contains("not a number"));
        assert!(run(&["--store-dir"]).unwrap_err().contains("needs a value"));
    }
}
