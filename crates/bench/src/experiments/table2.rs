//! Table II — phase-level time breakdown (initialization vs graph
//! traversal) for datasets C and D, plus the per-phase speedups over the
//! uncompressed baseline reported in §VI-B.
//!
//! Paper shape: init share grows with dataset size; sequence tasks'
//! initialization dominates on D (head/tail + sequence-list preprocessing
//! and persistence); sort and the sequence tasks are traversal-heavy
//! relative to word count. Phase speedups (paper): C 1.96×/2.53×,
//! D 1.23×/2.87× (init/traversal).
//!
//! The phase split is read off each report's span tree, and the N-TADOC
//! reports — span tree, metrics, access stats — are attached to the
//! emitted document: this experiment *is* the observability layer's
//! breakdown, rendered as the paper's table.

use crate::{geomean, Device, Emitter, Harness};
use ntadoc::{EngineConfig, Task};
use ntadoc_pmem::Json;

pub fn run(h: &Harness, em: &mut Emitter) {
    let mut init_all = Vec::new();
    let mut trav_all = Vec::new();
    for spec in h.specs() {
        if spec.name != "C" && spec.name != "D" {
            continue;
        }
        let comp = h.dataset(&spec);
        println!("\n== Table II — dataset {} (virtual seconds) ==", spec.name);
        println!(
            "{:24} {:>12} {:>12} {:>8} | {:>10} {:>10}",
            "Benchmark", "Init phase", "Traversal", "init%", "init-spd", "trav-spd"
        );
        let mut init_spds = Vec::new();
        let mut trav_spds = Vec::new();
        for task in Task::ALL {
            let nt = h.run_engine(&comp, EngineConfig::ntadoc(), Device::Nvm, task);
            let base = h.run_baseline(&comp, EngineConfig::ntadoc(), task);
            let init_spd = base.init_secs() / nt.init_secs();
            let trav_spd = base.traversal_secs() / nt.traversal_secs();
            init_spds.push(init_spd);
            trav_spds.push(trav_spd);
            println!(
                "{:24} {:>12.3} {:>12.3} {:>7.1}% | {:>10.2} {:>10.2}",
                task.name(),
                nt.init_secs(),
                nt.traversal_secs(),
                100.0 * nt.init_secs() / nt.total_secs(),
                init_spd,
                trav_spd,
            );
            em.row([
                ("dataset", Json::from(spec.name)),
                ("task", Json::from(task.name())),
                ("init_secs", Json::F64(nt.init_secs())),
                ("traversal_secs", Json::F64(nt.traversal_secs())),
                ("init_speedup", Json::F64(init_spd)),
                ("traversal_speedup", Json::F64(trav_spd)),
            ]);
            em.attach_report(&format!("ntadoc/{}/{}", spec.name, task.name()), &nt);
        }
        println!(
            "phase speedups over uncompressed: init {:.2}x, traversal {:.2}x",
            geomean(&init_spds),
            geomean(&trav_spds)
        );
        init_all.extend(init_spds);
        trav_all.extend(trav_spds);
    }
    em.headline("init_speedup_geomean", geomean(&init_all));
    em.headline("traversal_speedup_geomean", geomean(&trav_all));
    println!("\npaper (Table II, s): C word count 2.70/1.36 … ranked inv. index 7.45/19.49;");
    println!("  D word count 225/24 … seq count 1107/308, ranked 1188/545.");
    println!("paper phase speedups: C 1.96x/2.53x, D 1.23x/2.87x (init/traversal)");
}
