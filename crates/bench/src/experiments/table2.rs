//! Table II — phase-level time breakdown (initialization vs graph
//! traversal) for datasets C and D, plus the per-phase speedups over the
//! uncompressed baseline reported in §VI-B, per dataset and over both.
//!
//! The phase split is read off each report's span tree, and the N-TADOC
//! reports — span tree, metrics, access stats — are attached to the
//! emitted document: this experiment *is* the observability layer's
//! breakdown, rendered as the paper's table.

use crate::{geomean, Device, Emitter, Harness};
use ntadoc::{EngineConfig, Task};
use ntadoc_pmem::Json;

pub fn run(h: &Harness, em: &mut Emitter) {
    let (mut init_all, mut trav_all) = (Vec::new(), Vec::new());
    for name in ["C", "D"] {
        let comp = h.dataset(&h.spec(name));
        let (mut init_spds, mut trav_spds) = (Vec::new(), Vec::new());
        for task in Task::ALL {
            let nt = h.run_engine(&comp, EngineConfig::ntadoc(), Device::Nvm, task);
            let base = h.run_baseline(&comp, EngineConfig::ntadoc(), task);
            let init_spd = base.init_secs() / nt.init_secs();
            let trav_spd = base.traversal_secs() / nt.traversal_secs();
            init_spds.push(init_spd);
            trav_spds.push(trav_spd);
            em.row([
                ("dataset", Json::from(name)),
                ("task", Json::from(task.name())),
                ("init_secs", Json::F64(nt.init_secs())),
                ("traversal_secs", Json::F64(nt.traversal_secs())),
                ("init_speedup", Json::F64(init_spd)),
                ("traversal_speedup", Json::F64(trav_spd)),
            ]);
            em.attach_report(&format!("ntadoc/{name}/{}", task.name()), &nt);
        }
        em.headline(&format!("init_speedup_{name}"), geomean(&init_spds));
        em.headline(&format!("traversal_speedup_{name}"), geomean(&trav_spds));
        init_all.extend(init_spds);
        trav_all.extend(trav_spds);
    }
    em.headline("init_speedup_geomean", geomean(&init_all));
    em.headline("traversal_speedup_geomean", geomean(&trav_all));
}
