//! The static registry of experiments: every table, figure and extension
//! measurement the repository regenerates, by name.

use crate::{Emitter, Harness};

mod ablation;
mod append_bench;
mod build_bench;
mod cross_eval;
mod dram_savings;
mod endurance;
mod fig5;
mod fig6;
mod fig7;
mod layout_bench;
mod naive_overhead;
mod nvm_archs;
mod serve_load;
mod table1;
mod table2;
mod traversal_opt;

/// One registered experiment.
pub struct Experiment {
    /// Command-line name, and the stem of the document it emits.
    pub name: &'static str,
    /// One line for `ntadoc-bench list` and the rendered record.
    pub about: &'static str,
    /// Runs it: corpora come from the harness, results go to the emitter.
    /// Output-equality and determinism asserts live here; performance
    /// bounds do not (see [`crate::gates::GATES`]).
    pub run: fn(&Harness, &mut Emitter),
}

const fn exp(
    name: &'static str,
    about: &'static str,
    run: fn(&Harness, &mut Emitter),
) -> Experiment {
    Experiment { name, about, run }
}

/// Every experiment, in the order `all` runs them.
pub const REGISTRY: &[Experiment] = &[
    exp("table1", "Table I: dataset statistics", table1::run),
    exp("fig5", "Fig. 5: speedup over uncompressed on NVM, both persistence levels", fig5::run),
    exp("fig6", "Fig. 6: discrepancy to TADOC on pure DRAM", fig6::run),
    exp("fig7", "Fig. 7: NVM vs the same system on SSD and HDD", fig7::run),
    exp("table2", "Table II: init vs traversal phase breakdown (C, D)", table2::run),
    exp("dram_savings", "§VI-C: DRAM space savings vs TADOC", dram_savings::run),
    exp("traversal_opt", "§VI-E: top-down vs bottom-up traversal on B", traversal_opt::run),
    exp("naive_overhead", "§III-B: naive TADOC-on-NVM port overhead", naive_overhead::run),
    exp("cross_eval", "§VI-F: N-TADOC vs TADOC in the same NVM environment", cross_eval::run),
    exp("ablation", "the three §IV design points switched off one at a time (C)", ablation::run),
    exp("nvm_archs", "§VI-F vision: Optane vs ReRAM vs PCM (C)", nvm_archs::run),
    exp("endurance", "§I/§VII: NVM write-backs and bytes written vs baseline", endurance::run),
    exp("build_bench", "chunk-parallel build at 1/2/4/8 workers, W=8 chunks", build_bench::run),
    exp("append_bench", "streaming append vs full rebuild at 10/25/50% growth", append_bench::run),
    exp(
        "serve_load",
        "multi-tenant daemon trace replay: latency, cache, batching",
        serve_load::run,
    ),
    exp("layout_bench", "pool layouts fixed vs varint: traversal lines touched", layout_bench::run),
];

/// Resolve command-line names against the registry (`all` alone means
/// every experiment). An unknown name is an error that lists the known
/// ones; nothing runs unless every name resolves.
pub fn resolve(names: &[String]) -> Result<Vec<&'static Experiment>, String> {
    if names.len() == 1 && names[0] == "all" {
        return Ok(REGISTRY.iter().collect());
    }
    names
        .iter()
        .map(|name| {
            REGISTRY.iter().find(|e| e.name == name).ok_or_else(|| {
                let known: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
                format!("unknown experiment `{name}`; registered: {}", known.join(" "))
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_not_reserved() {
        for (i, e) in REGISTRY.iter().enumerate() {
            assert!(!["all", "list", "report"].contains(&e.name), "`{}` is a subcommand", e.name);
            assert!(
                REGISTRY[..i].iter().all(|earlier| earlier.name != e.name),
                "experiment `{}` is registered twice",
                e.name
            );
        }
    }

    /// Every experiment is either judged by a `GATES` row or one of the
    /// paper's tables, figures and sections that publish unjudged numbers:
    /// a harness that is neither cannot be registered unnoticed.
    #[test]
    fn every_experiment_is_gated_or_a_paper_experiment() {
        const PAPER: [&str; 12] = [
            "table1",
            "fig5",
            "fig6",
            "fig7",
            "table2",
            "dram_savings",
            "traversal_opt",
            "naive_overhead",
            "cross_eval",
            "ablation",
            "nvm_archs",
            "endurance",
        ];
        for e in REGISTRY {
            let gated = crate::gates::GATES.iter().any(|g| g.experiment == e.name);
            assert!(
                gated || PAPER.contains(&e.name),
                "experiment `{}` has no GATES row and is not a paper experiment",
                e.name
            );
        }
    }

    #[test]
    fn resolve_accepts_known_names_and_lists_them_on_an_unknown_one() {
        let picked = resolve(&["fig6".to_string(), "table1".to_string()]).unwrap();
        assert_eq!(picked.iter().map(|e| e.name).collect::<Vec<_>>(), ["fig6", "table1"]);
        assert_eq!(resolve(&["all".to_string()]).unwrap().len(), REGISTRY.len());
        let err = resolve(&["table1".to_string(), "fig55".to_string()]).err().unwrap();
        assert!(err.contains("`fig55`") && err.contains("layout_bench"), "{err}");
    }
}
