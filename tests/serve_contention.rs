//! The contention-free read path must not change accounting: concurrent
//! serve sessions hammering disjoint and overlapping line ranges produce
//! exactly the counters of the serial run, dirty lines keep their
//! write-backs through concurrent reads and poison recovery, and
//! optimistic readers never observe a torn copy.

use ntadoc_pmem::par::{self, join_deferred, par_map_timed};
use ntadoc_pmem::{
    with_deferred_charges, DeferredCharges, DeferredReads, DeviceProfile, SimDevice,
};
use ntadoc_repro::{compress_corpus, Engine, EngineConfig, Query, Task, TenantId, TokenizerConfig};

fn nvm(cap: usize) -> SimDevice {
    SimDevice::new(DeviceProfile::nvm_optane(), cap)
}

/// Run `sessions` concurrent read-only "sessions" against `dev`: each
/// streams over its own disjoint range, then over one shared range every
/// session overlaps. Returns the device's deferred read totals after the
/// barrier join.
fn hammer(dev: &SimDevice, sessions: usize, threads: usize) -> DeferredReads {
    let items: Vec<u64> = (0..sessions as u64).collect();
    par::with_threads(threads, || {
        let (_, charges) = par_map_timed(&items, |_, &i| {
            let mut buf = vec![0u8; 2048];
            // Disjoint range: sessions never share these lines.
            dev.read_bytes(i * 16 * 1024, &mut buf);
            // Overlapping range: every session reads the same lines.
            dev.read_bytes(7 * 1024, &mut buf);
            // Scattered small reads across many lines.
            for k in 0..8u64 {
                let mut small = [0u8; 64];
                dev.read_bytes((i * 8 + k) * 1280, &mut small);
            }
        });
        join_deferred(dev, &charges);
    });
    dev.deferred_reads()
}

/// The deferred read totals (the sum of what the per-item sinks charged,
/// formerly kept per line shard) match the serial run at any worker count.
#[test]
fn per_shard_totals_equal_the_serial_run() {
    let serial = hammer(&nvm(1 << 20), 24, 1);
    assert_eq!(serial.reads, 24 * 10);
    for threads in [2, 4, 8] {
        let parallel = hammer(&nvm(1 << 20), 24, threads);
        assert_eq!(parallel, serial, "deferred totals diverged at {threads} threads");
    }
}

#[test]
fn whole_run_stats_equal_the_serial_run() {
    let d1 = nvm(1 << 20);
    let serial = (hammer(&d1, 24, 1), d1.stats());
    for threads in [2, 4, 8] {
        let dn = nvm(1 << 20);
        let parallel = (hammer(&dn, 24, threads), dn.stats());
        assert_eq!(parallel, serial, "counters diverged at {threads} threads");
    }
}

#[test]
fn optimistic_readers_never_observe_a_torn_copy() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let dev = nvm(1 << 16);
    // One writer repaints a region with a uniform byte; readers copy it
    // through the optimistic path and must always see a uniform buffer —
    // the per-shard seqlock forces a retry whenever a writer interleaves.
    let region = 4096u64;
    let len = 1024usize;
    dev.poke(region, &vec![0u8; len]);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            for round in 0u8..200 {
                dev.write_bytes(region, &vec![round; len]);
            }
            stop.store(true, Ordering::Relaxed);
        });
        for _ in 0..3 {
            s.spawn(|| {
                let sink = DeferredCharges::new();
                with_deferred_charges(&sink, || {
                    let mut buf = vec![0u8; len];
                    while !stop.load(Ordering::Relaxed) {
                        dev.read_bytes(region, &mut buf);
                        let first = buf[0];
                        assert!(
                            buf.iter().all(|&b| b == first),
                            "torn read: mixed bytes in one optimistic copy"
                        );
                    }
                });
            });
        }
    });
}

#[test]
fn dirty_line_write_backs_survive_concurrent_reads() {
    let run = |threads: usize| {
        let dev = nvm(1 << 20);
        // Dirty 16 distinct lines (256-byte lines on the NVM profile).
        for line in 0..16u64 {
            dev.write_u64(line * 256, line);
        }
        let before = dev.stats();
        // Concurrent deferred reads over those same lines must not touch
        // cache residency or dirtiness.
        let items: Vec<u64> = (0..16).collect();
        par::with_threads(threads, || {
            let (_, charges) = par_map_timed(&items, |_, &line| {
                let mut buf = [0u8; 256];
                dev.read_bytes(line * 256, &mut buf);
            });
            join_deferred(&dev, &charges);
        });
        // Every dirty line still owes exactly one write-back at flush.
        for line in 0..16u64 {
            dev.flush(line * 256, 256);
        }
        dev.fence();
        dev.stats().write_backs - before.write_backs
    };
    let serial = run(1);
    assert_eq!(serial, 16, "each dirtied line must write back once");
    for threads in [4, 8] {
        assert_eq!(run(threads), serial, "write-backs lost at {threads} threads");
    }
}

#[test]
fn poison_recovery_resets_cache_residency_without_losing_write_backs() {
    let dev = nvm(1 << 16);
    // Dirty a line and make it cache-resident.
    dev.write_u64(0, 42);
    let before = dev.stats();
    assert_eq!(dev.poison_heals(), 0);
    // Panic while holding the state lock: `peek` indexes the plane under
    // the exclusive guard, so an out-of-range peek poisons the lock.
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        dev.peek(u64::MAX / 2, 8);
    }));
    assert!(unwound.is_err(), "out-of-range peek must panic");
    // The next lock acquisition heals: residency is rebuilt cold rather
    // than trusting a possibly half-written cache entry, and the dirty
    // line's write-back is charged instead of dropped.
    let after = dev.stats();
    assert_eq!(dev.poison_heals(), 1, "poisoned lock must be healed exactly once");
    assert_eq!(
        after.write_backs,
        before.write_backs + 1,
        "the dirty line's write-back must be charged during healing"
    );
    // Data is intact and the device stays fully usable.
    assert_eq!(dev.read_u64(0), 42);
    let miss_delta = dev.stats().line_misses - after.line_misses;
    assert!(miss_delta >= 1, "healed cache must start cold (read should miss)");
}

#[test]
fn serve_sessions_report_identical_deferred_totals_for_any_worker_count() {
    let files = vec![
        ("a".to_string(), "the quick brown fox jumps over the lazy dog the end".repeat(30)),
        ("b".to_string(), "pack my box with five dozen liquor jugs the fox".repeat(30)),
    ];
    let comp = compress_corpus(&files, &TokenizerConfig::default());
    let batch: Vec<Task> = (0..16)
        .map(|i| [Task::WordCount, Task::Sort, Task::TermVector, Task::InvertedIndex][i % 4])
        .collect();
    let totals = |threads: usize| {
        let engine = Engine::builder(comp.clone()).config(EngineConfig::ntadoc()).build().unwrap();
        let serve = engine.serve().unwrap();
        let queries: Vec<Query> =
            batch.iter().map(|&t| Query::new(TenantId::default(), t)).collect();
        par::with_threads(threads, || serve.run_queries(&queries).unwrap());
        serve.sim_device().deferred_reads()
    };
    let base = totals(1);
    assert!(base.reads > 0, "serve must use the deferred path");
    for threads in [4, 8] {
        assert_eq!(totals(threads), base, "deferred totals diverged at {threads} threads");
    }
}
