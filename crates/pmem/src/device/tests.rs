//! Behavioural tests of the whole device (the parts have their own).

use super::*;
use crate::profile::DeviceProfile;

fn nvm(cap: usize) -> SimDevice {
    SimDevice::new(DeviceProfile::nvm_optane(), cap)
}

#[test]
fn device_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SimDevice>();
    assert_send_sync::<crate::PmemPool>();
    assert_send_sync::<crate::AllocLedger>();
}

#[test]
fn concurrent_writers_see_consistent_data() {
    use std::sync::Arc;
    let d = Arc::new(nvm(1 << 20));
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let d = Arc::clone(&d);
            s.spawn(move || {
                for i in 0..256u64 {
                    d.write_u64(t * 4096 + i * 8, t * 1000 + i);
                }
            });
        }
    });
    for t in 0..4u64 {
        for i in 0..256u64 {
            assert_eq!(d.read_u64(t * 4096 + i * 8), t * 1000 + i);
        }
    }
}

#[test]
#[should_panic(expected = "2^32 lines or more")]
fn a_device_of_two_to_the_32_lines_is_refused() {
    let profile = DeviceProfile::nvm_optane();
    let capacity = profile.line_size << 32;
    SimDevice::new(profile, capacity);
}

#[test]
fn read_back_what_was_written() {
    let d = nvm(4096);
    d.write_u32(100, 0xABCD);
    d.write_u64(200, 42);
    assert_eq!(d.read_u32(100), 0xABCD);
    assert_eq!(d.read_u64(200), 42);
}

#[test]
fn slice_round_trip() {
    let d = nvm(1 << 16);
    let vals: Vec<u32> = (0..1000).collect();
    d.write_u32_slice(64, &vals);
    let mut out = vec![0u32; 1000];
    d.read_u32_slice(64, &mut out);
    assert_eq!(out, vals);
}

#[test]
#[should_panic(expected = "exceeds device capacity")]
fn out_of_bounds_panics() {
    let d = nvm(128);
    d.write_u32(126, 1);
}

#[test]
fn sequential_access_is_cheaper_than_scattered() {
    // Same byte volume, sequential vs one u32 per 256-byte line.
    let seq = nvm(1 << 22);
    let mut out = vec![0u32; 4096];
    seq.read_u32_slice(0, &mut out);
    let seq_ns = seq.stats().virtual_ns;

    let scat = nvm(1 << 22);
    for i in 0..4096u64 {
        scat.read_u32(i * 256);
    }
    let scat_ns = scat.stats().virtual_ns;
    assert!(scat_ns > seq_ns * 10, "scattered {scat_ns} should dwarf sequential {seq_ns}");
}

#[test]
fn repeated_access_hits_cache() {
    let d = nvm(4096);
    d.read_u32(0);
    let after_first = d.stats();
    d.read_u32(0);
    let after_second = d.stats();
    assert_eq!(after_second.line_misses, after_first.line_misses);
    assert_eq!(after_second.line_hits, after_first.line_hits + 1);
}

#[test]
fn crash_discards_unflushed_writes() {
    let d = nvm(4096);
    d.write_u32(0, 7);
    d.persist(0, 4);
    d.write_u32(0, 99); // never flushed
    d.crash();
    assert_eq!(d.read_u32(0), 7);
}

#[test]
fn crash_keeps_persisted_writes() {
    let d = nvm(4096);
    d.write_u32(512, 123);
    d.write_u32(516, 456);
    d.persist(512, 8);
    d.crash();
    assert_eq!(d.read_u32(512), 123);
    assert_eq!(d.read_u32(516), 456);
}

#[test]
fn flush_without_fence_is_not_durable() {
    let d = nvm(4096);
    d.write_u32(0, 7);
    d.flush(0, 4); // no fence
    d.crash();
    assert_eq!(d.read_u32(0), 0, "flush without fence must not be durable");
}

#[test]
fn volatile_device_loses_everything_on_crash() {
    let d = SimDevice::new(DeviceProfile::dram(), 4096);
    d.write_u32(0, 7);
    d.persist(0, 4);
    d.crash();
    assert_eq!(d.read_u32(0), 0);
}

#[test]
fn writes_cost_more_than_reads_on_nvm() {
    let r = nvm(1 << 20);
    let mut out = vec![0u32; 8192];
    r.read_u32_slice(0, &mut out);
    // Force write-backs by flushing after writing the same volume.
    let w = nvm(1 << 20);
    let vals = vec![1u32; 8192];
    w.write_u32_slice(0, &vals);
    w.persist(0, 8192 * 4);
    assert!(w.stats().virtual_ns > r.stats().virtual_ns);
}

#[test]
fn peek_and_poke_do_not_charge() {
    let d = nvm(4096);
    d.poke(0, &[1, 2, 3, 4]);
    assert_eq!(d.peek(0, 4), vec![1, 2, 3, 4]);
    assert_eq!(d.stats().virtual_ns, 0);
}

#[test]
fn stats_since_tracks_deltas() {
    let d = nvm(4096);
    d.read_u32(0);
    let snap = d.stats();
    d.read_u32(1024);
    let delta = d.stats().since(&snap);
    assert_eq!(delta.reads, 1);
}

#[test]
fn sequential_streaming_beats_random_misses() {
    // Read N lines forward vs the same N lines in a strided order:
    // both are all-misses on a cold cache, but the sequential pass
    // must stream at bandwidth (a fraction of full access latency).
    let line = 256u64;
    let n = 8192u64;
    let fwd = nvm((n * line) as usize);
    for i in 0..n {
        fwd.read_u32(i * line);
    }
    let fwd_ns = fwd.stats().virtual_ns;

    let strided = nvm((n * line) as usize);
    // Visit every line exactly once with stride 97 (coprime with n).
    for i in 0..n {
        strided.read_u32(((i * 97) % n) * line);
    }
    let strided_ns = strided.stats().virtual_ns;
    assert_eq!(fwd.stats().line_misses, strided.stats().line_misses);
    assert!(strided_ns > fwd_ns * 3, "strided {strided_ns} should dwarf sequential {fwd_ns}");
}

#[test]
fn hdd_sequential_vs_random_gap_is_large() {
    let n = 512u64;
    let block = 4096u64;
    let seq = SimDevice::new(DeviceProfile::hdd_sas(1 << 16), (n * block) as usize);
    for i in 0..n {
        seq.read_u32(i * block);
    }
    let rnd = SimDevice::new(DeviceProfile::hdd_sas(1 << 16), (n * block) as usize);
    for i in 0..n {
        rnd.read_u32(((i * 131) % n) * block);
    }
    assert!(rnd.stats().virtual_ns > seq.stats().virtual_ns * 5);
}

#[test]
fn pair_pod_round_trip_on_device() {
    let d = nvm(4096);
    d.write_pod(128, (7u32, 250u32));
    assert_eq!(d.read_pod::<(u32, u32)>(128), (7, 250));
}

#[test]
fn try_read_out_of_bounds_returns_error() {
    let d = nvm(128);
    let mut buf = [0u8; 8];
    match d.try_read_bytes(124, &mut buf) {
        Err(PmemError::OutOfBounds { addr: 124, len: 8, capacity: 128 }) => {}
        other => panic!("expected OutOfBounds, got {other:?}"),
    }
    // An address past u64 overflow must not wrap around.
    assert!(d.try_read_bytes(u64::MAX - 2, &mut buf).is_err());
}

#[test]
fn torn_crash_unflushed_lines_always_revert() {
    // Without a flush, torn semantics are as pessimistic as rewind.
    for seed in 0..16u64 {
        let d = nvm(4096);
        d.write_u32(0, 7);
        d.persist(0, 4);
        d.write_u32(0, 99); // dirty, never flushed
        d.crash_torn(seed);
        assert_eq!(d.read_u32(0), 7, "seed {seed}");
    }
}

#[test]
fn torn_crash_flushed_unfenced_lines_can_go_either_way() {
    // Two distant lines flushed but not fenced: across seeds we must
    // observe both survival and reversion (independent coin flips).
    let mut survived = 0;
    let mut reverted = 0;
    for seed in 0..64u64 {
        let d = nvm(8192);
        d.write_u32(0, 1);
        d.write_u32(4096, 1);
        d.flush(0, 4);
        d.flush(4096, 4); // no fence
        d.crash_torn(seed);
        for addr in [0u64, 4096] {
            if d.read_u32(addr) == 1 {
                survived += 1;
            } else {
                reverted += 1;
            }
        }
    }
    assert!(survived > 0, "some flushed lines must survive");
    assert!(reverted > 0, "some flushed lines must revert");
}

#[test]
fn torn_crash_is_deterministic_per_seed() {
    let run = |seed: u64| {
        let d = nvm(1 << 16);
        for i in 0..32u64 {
            d.write_u64(i * 256, i + 1);
        }
        for i in 0..16u64 {
            d.flush(i * 256, 8);
        }
        d.crash_torn(seed);
        (0..32u64).map(|i| d.read_u64(i * 256)).collect::<Vec<_>>()
    };
    assert_eq!(run(42), run(42));
    assert_ne!(run(1), run(2), "different seeds should differ on 16 coin flips");
}

#[test]
fn torn_crash_tears_inflight_write_at_word_granularity() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    // A 32-byte store interrupted by a crash must land as a subset of
    // its 8-byte words; across seeds we must see a *partial* subset.
    let mut partial_seen = false;
    for seed in 0..32u64 {
        let d = nvm(4096);
        let old = [0x11u8; 32];
        d.write_bytes(0, &old);
        d.persist(0, 32);
        d.trip_after_writes(0);
        let new = [0xEEu8; 32];
        let err = catch_unwind(AssertUnwindSafe(|| d.write_bytes(0, &new))).unwrap_err();
        let msg = err.downcast_ref::<String>().map(String::as_str).unwrap_or("");
        assert!(msg.contains(CRASH_PANIC), "unexpected panic: {msg}");
        d.crash_torn(seed);
        let got = d.peek(0, 32);
        let mut kept_old = 0;
        let mut took_new = 0;
        for word in got.chunks(8) {
            if word == &old[..8] {
                kept_old += 1;
            } else if word == &new[..8] {
                took_new += 1;
            } else {
                panic!("word is neither old nor new image: {word:?}");
            }
        }
        assert_eq!(kept_old + took_new, 4);
        if kept_old > 0 && took_new > 0 {
            partial_seen = true;
        }
    }
    assert!(partial_seen, "some seed must tear the store partially");
}

#[test]
fn rewind_mode_discards_inflight_write_entirely() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let d = nvm(4096);
    d.write_u64(0, 7);
    d.persist(0, 8);
    d.trip_after_writes(0);
    let _ = catch_unwind(AssertUnwindSafe(|| d.write_u64(0, 99)));
    d.crash(); // rewinds
    assert_eq!(d.read_u64(0), 7);
}

#[test]
fn trip_after_persists_fires_on_flush_and_fence() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let d = nvm(4096);
    d.trip_after_persists(1);
    d.write_u32(0, 1);
    d.flush(0, 4); // persist point 0: survives
    let err = catch_unwind(AssertUnwindSafe(|| d.fence())).unwrap_err();
    let msg = err.downcast_ref::<String>().map(String::as_str).unwrap_or("");
    assert!(msg.contains(CRASH_PANIC));
    d.crash();
    // The fence never landed, so the flushed line is not durable under
    // rewind semantics.
    assert_eq!(d.read_u32(0), 0);
}

#[test]
fn uncorrectable_read_fault_surfaces_and_heals_on_rewrite() {
    let d = nvm(4096);
    d.write_u32(512, 5);
    d.inject_read_fault(512);
    let mut buf = [0u8; 4];
    match d.try_read_bytes(512, &mut buf) {
        Err(PmemError::MediaError { addr: 512 }) => {}
        other => panic!("expected MediaError, got {other:?}"),
    }
    // Unrelated lines still read fine.
    assert_eq!(d.read_u32(0), 0);
    // Re-programming the line repairs it.
    d.write_u32(512, 6);
    assert_eq!(d.read_u32(512), 6);
}

#[test]
fn transient_write_fault_absorbed_by_retry_budget() {
    let d = nvm(4096);
    d.inject_transient_write_fault(0, 2); // budget is 3 by default
    d.write_u32(0, 9);
    assert_eq!(d.read_u32(0), 9);
    assert_eq!(d.stats().media_retries, 2);
    // Retries cost media time beyond a clean write of the same size.
    let clean = nvm(4096);
    clean.write_u32(0, 9);
    assert!(d.stats().virtual_ns > clean.stats().virtual_ns);
}

#[test]
fn transient_write_fault_beyond_budget_errors() {
    let d = nvm(4096);
    d.inject_transient_write_fault(0, 10);
    match d.try_write_bytes(0, &[1, 2, 3, 4]) {
        Err(PmemError::MediaError { addr: 0 }) => {}
        other => panic!("expected MediaError, got {other:?}"),
    }
    assert_eq!(d.stats().media_retries, 3, "the budget is three retries");
    // The remaining fault count was consumed by the retries; more
    // failed attempts and the line heals.
    d.clear_faults();
    d.write_u32(0, 3);
    assert_eq!(d.read_u32(0), 3);
}

#[test]
fn wear_top_ranks_hottest_lines() {
    let d = nvm(1 << 16);
    d.enable_wear_tracking();
    for _ in 0..10 {
        d.write_u32(0, 1); // line 0
    }
    for _ in 0..5 {
        d.write_u32(256, 1); // line 1
    }
    d.write_u32(512, 1); // line 2
    let top = d.wear_top(2);
    assert_eq!(top, vec![(0, 10), (1, 5)]);
    assert_eq!(d.wear_top(10).len(), 3);
    assert!(nvm(4096).wear_top(4).is_empty());
}

/// A writer keeps replacing 64-byte records (one repeated byte each) while
/// deferred readers copy them lock-free: no validated copy is ever a mix of
/// two records, and the run does not end before the seqlock's retry path
/// was actually taken.
#[test]
fn deferred_readers_never_see_a_torn_record() {
    use std::sync::atomic::{AtomicBool, Ordering};
    const RECORDS: u64 = 8;
    // 96-byte pitch from offset 40: some records sit inside one 256-byte
    // line, some straddle two (and so two shards).
    let at = |r: u64| (r % RECORDS) * 96 + 40;
    let dev = nvm(4096);
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        for t in 0..2u64 {
            let (dev, done) = (&dev, &done);
            s.spawn(move || {
                let mut r = t;
                while !done.load(Ordering::Acquire) {
                    let sink = DeferredCharges::new();
                    with_deferred_charges(&sink, || {
                        for _ in 0..256 {
                            let mut buf = [0u8; 64];
                            dev.read_bytes(at(r), &mut buf);
                            assert!(buf.iter().all(|&b| b == buf[0]), "torn record: {buf:?}");
                            r += 1;
                        }
                    });
                    assert_eq!(sink.reads(), 256);
                    dev.absorb_deferred(&[sink]);
                }
            });
        }
        let mut i = 0u64;
        while i < 20_000 || (dev.deferred_reads().retries == 0 && i < 200_000_000) {
            dev.write_bytes(at(i), &[i as u8; 64]);
            i += 1;
        }
        done.store(true, Ordering::Release);
    });
    assert!(dev.deferred_reads().retries > 0, "no reader ever raced the writer");
    assert_eq!(dev.stats().reads % 256, 0);
}
