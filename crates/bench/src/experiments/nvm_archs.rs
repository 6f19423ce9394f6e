//! §VI-F "Vision for the future" — migrate N-TADOC across NVM
//! architectures: Intel Optane (3D-XPoint), ReRAM, and PCM, against the
//! same uncompressed baseline on each device.
//!
//! The paper proposes this migration as future work after Optane's
//! discontinuation; the simulator makes it a one-profile-swap experiment.
//! Expected shape: N-TADOC's advantage *grows* with write asymmetry and
//! access granularity (PCM > Optane > ReRAM) because compression avoids
//! exactly the traffic those devices punish.

use crate::{geomean, Emitter, Harness};
use ntadoc::{Engine, EngineConfig, Task, UncompressedEngine};
use ntadoc_pmem::{DeviceProfile, Json};

pub fn run(h: &Harness, em: &mut Emitter) {
    let comp = h.dataset(&h.spec("C"));
    let archs = [DeviceProfile::nvm_optane(), DeviceProfile::reram(), DeviceProfile::pcm()];
    println!("== §VI-F — N-TADOC across NVM architectures (dataset C) ==");
    println!(
        "{:>8} {:>24} {:>14} {:>14} {:>10}",
        "device", "task", "N-TADOC s", "uncompressed s", "speedup"
    );
    for profile in archs {
        let mut speedups = Vec::new();
        for task in Task::ALL {
            let mut nt = Engine::builder(comp.clone())
                .config(EngineConfig::ntadoc())
                .profile(profile.clone())
                .label(format!("N-TADOC-{}", profile.name))
                .build()
                .expect("engine");
            nt.run(task).expect("run");
            let nt_rep = nt.last_report.unwrap();
            let mut base = UncompressedEngine::builder(comp.clone())
                .config(EngineConfig::ntadoc())
                .profile(profile.clone())
                .build();
            base.run(task).expect("baseline");
            let base_rep = base.last_report.unwrap();
            let speedup = base_rep.total_secs() / nt_rep.total_secs();
            println!(
                "{:>8} {:>24} {:>14.4} {:>14.4} {:>9.2}x",
                profile.name,
                task.name(),
                nt_rep.total_secs(),
                base_rep.total_secs(),
                speedup
            );
            em.row([
                ("device", Json::from(profile.name)),
                ("task", Json::from(task.name())),
                ("ntadoc_secs", Json::F64(nt_rep.total_secs())),
                ("baseline_secs", Json::F64(base_rep.total_secs())),
                ("speedup", Json::F64(speedup)),
            ]);
            speedups.push(speedup);
        }
        println!("{:>8} {:>24} {:>44.2}x\n", profile.name, "geomean", geomean(&speedups));
        em.headline(
            &format!("{}_speedup_geomean", profile.name.to_lowercase()),
            geomean(&speedups),
        );
    }
}
