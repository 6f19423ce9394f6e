//! The paper's qualitative claims as test invariants, checked at test
//! scale (direction, not magnitude — magnitudes and their verdicts against
//! the paper live in RESULTS.md), and the device-counter evidence that
//! each §IV design point does what the paper says it does.

use ntadoc_repro::{
    Compressed, DatasetSpec, DeviceProfile, Engine, EngineConfig, RunReport, Task, Traversal,
    UncompressedEngine,
};

fn corpus() -> Compressed {
    dataset_a(0.15)
}

fn dataset_a(scale: f64) -> Compressed {
    ntadoc_repro::generate_compressed(&DatasetSpec::a().scaled(scale))
}

/// Four files of one long repeated phrase, coarsened: the shape the §IV
/// design points are measured on.
fn repetitive() -> Compressed {
    let phrase = "the system reads compressed data directly from memory and never expands it ";
    let files: Vec<(String, String)> =
        (0..4).map(|i| (format!("f{i}"), format!("{}tail{i} ", phrase.repeat(120)))).collect();
    let comp = ntadoc_repro::compress_corpus(&files, &Default::default());
    Compressed { grammar: comp.grammar.coarsened(12), ..comp }
}

fn run(comp: &Compressed, cfg: EngineConfig, task: Task) -> RunReport {
    let mut e = Engine::builder(comp.clone()).config(cfg).build().unwrap();
    e.run(task).unwrap();
    e.last_report.unwrap()
}

#[test]
fn claim_s1_nvm_writes_are_reduced_by_compression() {
    // §I: "minimizing NVM write operations and enhancing its durability".
    let comp = corpus();
    for task in [Task::WordCount, Task::SequenceCount] {
        let mut nt = Engine::builder(comp.clone()).config(EngineConfig::ntadoc()).build().unwrap();
        nt.run(task).unwrap();
        let mut base =
            UncompressedEngine::builder(comp.clone()).config(EngineConfig::ntadoc()).build();
        base.run(task).unwrap();
        let nt_wb = nt.last_report.as_ref().unwrap().stats.write_backs;
        let base_wb = base.last_report.as_ref().unwrap().stats.write_backs;
        assert!(
            nt_wb < base_wb,
            "{task}: N-TADOC write-backs {nt_wb} must be below baseline {base_wb}"
        );
    }
}

#[test]
fn claim_s4e_operation_level_costs_more_than_phase_level() {
    // §IV-E: the trade-off exists for every engine.
    let comp = corpus();
    let task = Task::WordCount;
    let mut nt_p = Engine::builder(comp.clone()).config(EngineConfig::ntadoc()).build().unwrap();
    nt_p.run(task).unwrap();
    let mut nt_o =
        Engine::builder(comp.clone()).config(EngineConfig::ntadoc_oplevel()).build().unwrap();
    nt_o.run(task).unwrap();
    assert!(
        nt_o.last_report.as_ref().unwrap().total_ns()
            > nt_p.last_report.as_ref().unwrap().total_ns(),
        "operation-level must cost more than phase-level for N-TADOC"
    );

    let mut b_p = UncompressedEngine::builder(comp.clone()).config(EngineConfig::ntadoc()).build();
    b_p.run(task).unwrap();
    let mut b_o =
        UncompressedEngine::builder(comp.clone()).config(EngineConfig::ntadoc_oplevel()).build();
    b_o.run(task).unwrap();
    assert!(
        b_o.last_report.as_ref().unwrap().total_ns() > b_p.last_report.as_ref().unwrap().total_ns(),
        "operation-level must cost more than phase-level for the baseline"
    );
}

#[test]
fn claim_s4e_operation_level_writes_an_undo_log() {
    let comp = corpus();
    let mut op =
        Engine::builder(comp.clone()).config(EngineConfig::ntadoc_oplevel()).build().unwrap();
    op.run(Task::WordCount).unwrap();
    assert!(op.last_report.as_ref().unwrap().stats.log_bytes > 0);
    let mut ph = Engine::builder(comp.clone()).config(EngineConfig::ntadoc()).build().unwrap();
    ph.run(Task::WordCount).unwrap();
    assert_eq!(ph.last_report.as_ref().unwrap().stats.log_bytes, 0);
}

#[test]
fn claim_s6e_topdown_degrades_with_file_count() {
    // §VI-E: the top-down/bottom-up traversal gap grows with file count.
    let ratios: Vec<f64> = [0.05, 0.2]
        .iter()
        .map(|&scale| {
            let comp = ntadoc_repro::generate_compressed(&DatasetSpec::b().scaled(scale));
            let mut td_cfg = EngineConfig::ntadoc();
            td_cfg.traversal = Traversal::TopDown;
            let mut bu_cfg = EngineConfig::ntadoc();
            bu_cfg.traversal = Traversal::BottomUp;
            let mut td = Engine::builder(comp.clone()).config(td_cfg).build().unwrap();
            td.run(Task::TermVector).unwrap();
            let mut bu = Engine::builder(comp.clone()).config(bu_cfg).build().unwrap();
            bu.run(Task::TermVector).unwrap();
            td.last_report.as_ref().unwrap().traversal_ns() as f64
                / bu.last_report.as_ref().unwrap().traversal_ns() as f64
        })
        .collect();
    assert!(ratios[1] > ratios[0], "ratio must grow with file count: {ratios:?}");
}

#[test]
fn claim_s3b_naive_port_is_much_slower_than_ntadoc() {
    // §III-B / §VI-F: the allocator-swap port pays heavily on NVM.
    let comp = corpus();
    let mut nt = Engine::builder(comp.clone()).config(EngineConfig::ntadoc()).build().unwrap();
    nt.run(Task::WordCount).unwrap();
    let mut naive = Engine::builder(comp.clone()).config(EngineConfig::naive()).build().unwrap();
    naive.run(Task::WordCount).unwrap();
    let ratio = naive.last_report.as_ref().unwrap().total_ns() as f64
        / nt.last_report.as_ref().unwrap().total_ns() as f64;
    assert!(ratio > 2.0, "naive/N-TADOC ratio {ratio:.2} should exceed 2x");
}

#[test]
fn claim_table1_shape_holds_for_generated_datasets() {
    let stats: Vec<_> = DatasetSpec::all()
        .into_iter()
        .map(|s| {
            let name = s.name;
            let comp = ntadoc_repro::generate_compressed(&s.scaled(0.05));
            (name, comp.file_count(), comp.grammar.stats())
        })
        .collect();
    let by_name = |n: &str| stats.iter().find(|(name, ..)| *name == n).unwrap();
    // File-count ordering: B has by far the most files; A exactly one.
    assert_eq!(by_name("A").1, 1);
    assert!(by_name("B").1 > 10 * by_name("D").1.min(by_name("C").1));
    // Vocabulary grows from A to D.
    assert!(by_name("D").2.vocabulary > by_name("A").2.vocabulary);
    // Everything actually compresses.
    for (name, _, s) in &stats {
        assert!(
            (s.expanded_words as f64) / (s.total_symbols as f64) > 1.5,
            "{name} compresses poorly"
        );
    }
}

#[test]
fn claim_nvm_sits_between_dram_and_block_devices() {
    // The premise of the whole paper (§II): NVM's cost ladder position.
    let comp = corpus();
    let task = Task::Sort;
    let mut dram = Engine::builder(comp.clone())
        .config(EngineConfig::tadoc_dram())
        .profile(DeviceProfile::dram())
        .build()
        .unwrap();
    dram.run(task).unwrap();
    let mut nvm = Engine::builder(comp.clone()).config(EngineConfig::ntadoc()).build().unwrap();
    nvm.run(task).unwrap();
    let mut ssd =
        Engine::builder(comp.clone()).config(EngineConfig::ntadoc()).ssd().build().unwrap();
    ssd.run(task).unwrap();
    let t = |e: &Engine| e.last_report.as_ref().unwrap().total_ns();
    assert!(t(&dram) < t(&nvm));
    assert!(t(&nvm) < t(&ssd));
}

#[test]
fn claim_compressed_image_is_much_smaller_than_raw() {
    let comp = corpus();
    let image = ntadoc_repro::serialize_compressed(&comp).unwrap().len() as u64;
    let raw = Engine::uncompressed_bytes(&comp);
    assert!(image * 2 < raw, "compressed image {image} should be well below raw {raw}");
}

#[test]
fn reports_expose_phase_times_and_peaks() {
    let comp = dataset_a(0.03);
    let mut engine = Engine::builder(comp.clone()).config(EngineConfig::ntadoc()).build().unwrap();
    engine.run(Task::WordCount).unwrap();
    let rep = engine.last_report.as_ref().unwrap();
    assert!(rep.init_ns() > 0);
    assert!(rep.traversal_ns() > 0);
    let device_peak = rep.metric_f64(ntadoc_repro::METRIC_DEVICE_PEAK).unwrap();
    let dram_peak = rep.metric_f64(ntadoc_repro::METRIC_DRAM_PEAK).unwrap();
    assert!(device_peak > 0.0, "NVM allocations must be ledgered");
    assert!(dram_peak > 0.0, "host staging must be ledgered");
    assert!(dram_peak < device_peak, "N-TADOC keeps the bulk on the device");
    assert_eq!(rep.device, "NVM");
}

#[test]
fn dram_savings_direction_holds() {
    // The headline §VI-C claim, as an invariant: N-TADOC's DRAM peak is
    // well below TADOC-on-DRAM's for the same task.
    let comp = dataset_a(0.1);
    let mut nt = Engine::builder(comp.clone()).config(EngineConfig::ntadoc()).build().unwrap();
    nt.run(Task::WordCount).unwrap();
    let mut dram = Engine::builder(comp.clone())
        .config(EngineConfig::tadoc_dram())
        .profile(DeviceProfile::dram())
        .build()
        .unwrap();
    dram.run(Task::WordCount).unwrap();
    let peak = |e: &Engine| {
        e.last_report.as_ref().unwrap().metric_f64(ntadoc_repro::METRIC_DRAM_PEAK).unwrap()
    };
    let (nt_peak, dram_peak) = (peak(&nt), peak(&dram));
    assert!(
        nt_peak < 0.6 * dram_peak,
        "expected ≥40% DRAM savings, got N-TADOC {nt_peak} vs TADOC {dram_peak}"
    );
}

#[test]
fn speedup_directions_hold_on_dataset_a() {
    // Shape invariants of Figures 5-7 at test scale: N-TADOC beats the
    // uncompressed baseline and the naive port; DRAM TADOC beats N-TADOC;
    // NVM beats SSD beats HDD.
    let comp = dataset_a(0.2);
    let task = Task::WordCount;
    let run = |cfg: EngineConfig, dev: u8| -> f64 {
        let mut e = match dev {
            0 => Engine::builder(comp.clone()).config(cfg).build().unwrap(),
            1 => Engine::builder(comp.clone())
                .config(cfg)
                .profile(DeviceProfile::dram())
                .build()
                .unwrap(),
            2 => Engine::builder(comp.clone()).config(cfg).ssd().build().unwrap(),
            _ => Engine::builder(comp.clone()).config(cfg).hdd().build().unwrap(),
        };
        e.run(task).unwrap();
        e.last_report.unwrap().total_secs()
    };
    let nt = run(EngineConfig::ntadoc(), 0);
    let naive = run(EngineConfig::naive(), 0);
    let dram = run(EngineConfig::tadoc_dram(), 1);
    let ssd = run(EngineConfig::ntadoc(), 2);
    let hdd = run(EngineConfig::ntadoc(), 3);
    let mut base = UncompressedEngine::builder(comp.clone()).config(EngineConfig::ntadoc()).build();
    base.run(task).unwrap();
    let base_t = base.last_report.unwrap().total_secs();

    assert!(nt < base_t, "N-TADOC {nt} must beat uncompressed {base_t}");
    assert!(nt < naive, "N-TADOC {nt} must beat the naive port {naive}");
    assert!(dram < nt, "DRAM TADOC {dram} must beat N-TADOC {nt}");
    assert!(nt < ssd, "NVM {nt} must beat SSD {ssd}");
    assert!(ssd < hdd, "SSD {ssd} must beat HDD {hdd}");
}

#[test]
fn pruning_reduces_bytes_read_for_frequency_tasks() {
    // §IV-B: the deduplicated (id, freq) views are smaller than raw
    // ordered bodies and visited once per distinct element.
    let comp = repetitive();
    let pruned = run(&comp, EngineConfig::ntadoc(), Task::WordCount);
    let raw = run(&comp, EngineConfig { pruned: false, ..EngineConfig::ntadoc() }, Task::WordCount);
    assert!(
        pruned.stats.bytes_read < raw.stats.bytes_read,
        "pruned {} vs raw {}",
        pruned.stats.bytes_read,
        raw.stats.bytes_read
    );
}

#[test]
fn scattered_layout_increases_line_misses() {
    // §IV-B pool management: adjacency is what keeps traversal inside few
    // media lines.
    let comp = repetitive();
    let adjacent = run(&comp, EngineConfig::ntadoc(), Task::WordCount);
    let scattered = run(
        &comp,
        EngineConfig { adjacent_layout: false, ..EngineConfig::ntadoc() },
        Task::WordCount,
    );
    assert!(
        scattered.stats.line_misses > adjacent.stats.line_misses,
        "scattered {} vs adjacent {}",
        scattered.stats.line_misses,
        adjacent.stats.line_misses
    );
    assert!(scattered.total_ns() > adjacent.total_ns());
}

#[test]
fn operation_level_amplifies_writes() {
    // §IV-E: undo logging multiplies the written volume.
    let comp = repetitive();
    let phase = run(&comp, EngineConfig::ntadoc(), Task::WordCount);
    let op = run(&comp, EngineConfig::ntadoc_oplevel(), Task::WordCount);
    assert!(op.stats.log_bytes > 0);
    assert!(
        op.stats.bytes_written as f64 > phase.stats.bytes_written as f64 * 1.3,
        "op {} vs phase {}",
        op.stats.bytes_written,
        phase.stats.bytes_written
    );
}

#[test]
fn cache_hit_rate_is_high_for_compressed_traversal() {
    // The compressed working set largely fits the modeled CPU cache —
    // that is why DAG traversal is viable on NVM at all.
    let comp = repetitive();
    let rep = run(&comp, EngineConfig::ntadoc(), Task::WordCount);
    assert!(rep.stats.hit_rate() > 0.5, "hit rate {:.2} unexpectedly low", rep.stats.hit_rate());
}

#[test]
fn device_peak_scales_with_task_weight() {
    // Sequence tasks materialise more NVM state than word count.
    let comp = repetitive();
    let wc = run(&comp, EngineConfig::ntadoc(), Task::WordCount);
    let sc = run(&comp, EngineConfig::ntadoc(), Task::SequenceCount);
    let peak = |rep: &RunReport| rep.metric_f64(ntadoc_repro::METRIC_DEVICE_PEAK).unwrap();
    assert!(peak(&sc) > peak(&wc));
}

#[test]
fn reports_label_engines_properly() {
    let comp = repetitive();
    let nt = run(&comp, EngineConfig::ntadoc(), Task::WordCount);
    assert_eq!(nt.engine, "N-TADOC");
    let naive = run(&comp, EngineConfig::naive(), Task::WordCount);
    assert_eq!(naive.engine, "naive-NVM");
}
