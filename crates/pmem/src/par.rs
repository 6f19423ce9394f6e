//! Deterministic parallel runner for device-attached workloads.
//!
//! The crate avoids a thread-pool dependency: work is fanned out over
//! `std::thread::scope` workers. The worker count honours the
//! `RAYON_NUM_THREADS` environment variable (the conventional knob for
//! data-parallel Rust code) and can be overridden per-scope in tests with
//! [`with_threads`].
//!
//! # Deterministic parallel virtual time
//!
//! Wall-clock speed comes from however many OS threads happen to run, but
//! the *virtual* clock must not depend on that number — a sweep run on a
//! laptop and on a 64-core server has to report the same simulated time.
//! The model therefore separates execution from accounting:
//!
//! 1. every work item runs inside [`with_deferred_charges`], so its device
//!    time is captured in a per-item sink instead of the global clock
//!    (accesses use a schedule-independent streaming cost model — see
//!    [`with_deferred_charges`]);
//! 2. at the barrier, the per-item costs are assigned in item order to a
//!    fixed number of *virtual lanes* ([`DEFAULT_VIRTUAL_LANES`]) — each
//!    item goes to the currently least-loaded lane — and the clock
//!    advances by the resulting makespan ([`lanes_makespan`]).
//!
//! Per-item costs are deterministic, the lane assignment is deterministic,
//! so the join is identical for any `RAYON_NUM_THREADS`. The reported time
//! models the workload running on that many parallel memory channels
//! rather than serializing it.
//!
//! A fan-out *inside* one item of such a region — a served query merging
//! its files — joins differently: [`par_map_absorbed`] adds its items'
//! sinks to the enclosing item's sink, in item order, so the enclosing
//! item is charged exactly what it would have been had it run them one
//! after another itself. The workers are host execution; the model still
//! prices one item's work as one serial stream.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::device::{with_deferred_charges, with_sink, DeferredCharges, SimDevice};

/// Virtual lanes used by the makespan join. Models the parallelism of the
/// simulated hardware, decoupled from how many OS threads execute the
/// work; a constant, because every pinned virtual number depends on it.
pub const DEFAULT_VIRTUAL_LANES: usize = 8;

thread_local! {
    /// Per-thread worker-count override (0 = none); see [`with_threads`].
    static THREADS_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// Run `f` with the worker count pinned to `n` on this thread, regardless
/// of `RAYON_NUM_THREADS`. Used by determinism tests, which cannot mutate
/// process-global environment variables safely.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREADS_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let prev = THREADS_OVERRIDE.with(|c| c.replace(n.max(1)));
    let _restore = Restore(prev);
    f()
}

/// Worker threads to use: the [`with_threads`] override if active, else
/// `RAYON_NUM_THREADS`, else the machine's available parallelism. The
/// environment is read once per process (the first call decides): every
/// served miss asks, and `available_parallelism` reads cgroup files.
pub fn thread_count() -> usize {
    let over = THREADS_OVERRIDE.with(|c| c.get());
    if over > 0 {
        return over;
    }
    static FROM_ENV: OnceLock<usize> = OnceLock::new();
    *FROM_ENV.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// Map `f` over `items` on [`thread_count`] workers, returning results in
/// item order. The calling thread is one of the workers: it spawns the
/// others and claims items beside them. Items are claimed from a shared
/// atomic counter, so the *schedule* is nondeterministic — only use this
/// for work whose side-effects commute (or none). A panicking item
/// propagates its panic to the caller.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = thread_count().min(items.len()).max(1);
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut local = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= items.len() {
                break;
            }
            local.push((i, f(i, &items[i])));
        }
        local
    };
    let mut collected: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (1..workers).map(|_| s.spawn(claim)).collect();
        let mut collected = Vec::with_capacity(items.len());
        collected.extend(claim());
        for h in handles {
            match h.join() {
                Ok(local) => collected.extend(local),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        collected
    });
    collected.sort_by_key(|(i, _)| *i);
    collected.into_iter().map(|(_, r)| r).collect()
}

/// [`par_map`] with each item executed under [`with_deferred_charges`]:
/// returns the results plus each item's captured accounting sink (its
/// virtual-time cost and read counters). The single-worker path
/// uses the same deferred accounting, so costs are identical for any
/// worker count. Callers merge the sinks back into the device at the
/// barrier with [`join_deferred`].
pub fn par_map_timed<T, R, F>(items: &[T], f: F) -> (Vec<R>, Vec<DeferredCharges>)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let sinks: Vec<DeferredCharges> = items.iter().map(|_| DeferredCharges::new()).collect();
    let results = par_map(items, |i, t| with_deferred_charges(&sinks[i], || f(i, t)));
    (results, sinks)
}

/// Map the fallible `f` over `items` as one item of an enclosing deferred
/// region, charging the caller what a plain loop would have.
///
/// With a deferred sink installed on the calling thread and more than one
/// worker, the items fan out over [`par_map_timed`] and their sinks are
/// added to the caller's in item order ([`DeferredCharges::absorb`]):
/// deferred accesses pay a streaming cost that no schedule changes, so the
/// caller's virtual time, reads, bytes and line fetches come out
/// as if this thread had run the items in turn. If an item fails, only
/// items up to and including the first failure are absorbed and its error
/// is returned — the charges of a loop that stops there. Items past it may
/// have run; use this for items whose only device effect is what they
/// charge (reads). Otherwise the items run in order on this thread, as the
/// plain loop, under whatever cost model the caller has.
pub fn par_map_absorbed<T, R, E, F>(items: &[T], f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    if with_sink(|sink| sink.is_none()) || thread_count().min(items.len()) <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let (results, charges) = par_map_timed(items, f);
    let upto = results.iter().position(Result::is_err).map_or(results.len(), |k| k + 1);
    with_sink(|sink| {
        let sink = sink.expect("the caller's sink is still installed");
        charges[..upto].iter().for_each(|c| sink.absorb(c));
    });
    results.into_iter().collect()
}

/// Barrier join for a [`par_map_timed`] batch: merge the per-item read
/// counters into the device's totals
/// ([`SimDevice::absorb_deferred`]) and advance the virtual clock by the
/// deterministic lane-folded makespan of the per-item costs. This is the
/// single point where a parallel batch touches the device's shared state,
/// so a stats snapshot taken afterwards (e.g. at span close) attributes
/// every read and nanosecond to the batch that issued it.
pub fn join_deferred(dev: &SimDevice, charges: &[DeferredCharges]) {
    dev.absorb_deferred(charges);
    dev.charge_ns(deferred_makespan(charges));
}

/// The virtual time a [`par_map_timed`] batch will charge at its barrier:
/// the [`lanes_makespan`] of the per-item costs over
/// [`DEFAULT_VIRTUAL_LANES`].
/// Exposed so pipelines can report per-stage parallel cost (e.g. a build
/// bench's modeled speedup) without double-charging the device.
pub fn deferred_makespan(charges: &[DeferredCharges]) -> u64 {
    let item_ns: Vec<u64> = charges.iter().map(|c| c.ns()).collect();
    lanes_makespan(&item_ns, DEFAULT_VIRTUAL_LANES)
}

/// Deterministic makespan of `item_ns` over `lanes` virtual lanes: items
/// are assigned in index order, each to the currently least-loaded lane
/// (ties broken by lane index); the makespan is the heaviest lane's total.
pub fn lanes_makespan(item_ns: &[u64], lanes: usize) -> u64 {
    let lanes = lanes.max(1);
    let mut load = vec![0u64; lanes];
    for &c in item_ns {
        let lightest = (0..lanes).min_by_key(|&i| (load[i], i)).expect("lanes >= 1");
        load[lightest] += c;
    }
    load.into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{DeferredReads, SimDevice};
    use crate::profile::DeviceProfile;

    /// Items per test: Miri interprets every access, so it gets a few.
    fn items(native: u64) -> Vec<u64> {
        (0..if cfg!(miri) { native.min(8) } else { native }).collect()
    }

    #[test]
    fn par_map_preserves_order() {
        let items = items(1000);
        for threads in [1, 2, 8] {
            let out = with_threads(threads, || par_map(&items, |_, &x| x * 2));
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    /// One worker spawns nothing: the items run on the calling thread, in
    /// order. More workers put the calling thread to work beside them.
    #[test]
    fn the_calling_thread_is_one_of_the_workers() {
        let caller = std::thread::current().id();
        let items = items(64);
        let seen = std::sync::Mutex::new(Vec::new());
        with_threads(1, || {
            par_map(&items, |i, _| seen.lock().unwrap().push((i, std::thread::current().id())))
        });
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen, (0..items.len()).map(|i| (i, caller)).collect::<Vec<_>>());
        // Two items that wait for each other: each holds one of the two
        // workers, so one of them is this thread.
        let both = std::sync::Barrier::new(2);
        let ids = with_threads(2, || {
            par_map(&[0, 1], |_, _| {
                both.wait();
                std::thread::current().id()
            })
        });
        assert!(ids.contains(&caller) && ids[0] != ids[1], "{ids:?}");
    }

    #[test]
    fn par_map_timed_costs_independent_of_workers() {
        let dev = SimDevice::new(DeviceProfile::nvm_optane(), 1 << 20);
        let items = items(64);
        let run = |threads: usize| {
            with_threads(threads, || {
                let (_, charges) = par_map_timed(&items, |_, &i| {
                    let mut buf = vec![0u8; 1024];
                    dev.read_bytes(i * 4096, &mut buf);
                    dev.charge_ns(10 * (i + 1));
                });
                charges.iter().map(|c| c.ns()).collect::<Vec<_>>()
            })
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(8));
        assert!(one.iter().all(|&ns| ns > 0));
    }

    /// Every item's sink holds exactly that item's reads, line fetches and
    /// model time — the same as when the items run one after another on
    /// this thread, each in a sink of its own — and the barrier merges the
    /// same totals, bytes included, for any worker count.
    #[test]
    fn timed_items_are_charged_their_own_accesses_at_any_worker_count() {
        let items = items(48);
        // Item `i`: `i % 5 + 1` reads of `i % 9 + 1` lines each, at spread
        // addresses, and `i` ns of model time.
        let work = |dev: &SimDevice, i: u64| {
            let mut buf = vec![0u8; 64 * (i as usize % 9 + 1)];
            for k in 0..i % 5 + 1 {
                dev.read_bytes((i * 7 + k * 3) % 200 * 4096 + k * 64, &mut buf);
            }
            dev.charge_ns(i);
        };
        let own = |c: &DeferredCharges| (c.ns(), c.reads(), c.line_misses());
        let totals = |dev: &SimDevice| {
            let s = dev.stats();
            (s.virtual_ns, s.reads, s.bytes_read, s.line_misses)
        };
        let serial_dev = SimDevice::new(DeviceProfile::nvm_optane(), 1 << 20);
        let serial: Vec<DeferredCharges> = items
            .iter()
            .map(|&i| {
                let sink = DeferredCharges::new();
                with_deferred_charges(&sink, || work(&serial_dev, i));
                sink
            })
            .collect();
        join_deferred(&serial_dev, &serial);
        let expect: Vec<_> = serial.iter().map(own).collect();
        for (&i, &(ns, reads, _)) in items.iter().zip(&expect) {
            assert_eq!(reads, i % 5 + 1, "item {i}");
            assert!(ns > i, "item {i}: {ns} ns");
        }
        for threads in [1, 4] {
            let dev = SimDevice::new(DeviceProfile::nvm_optane(), 1 << 20);
            let (_, charges) =
                with_threads(threads, || par_map_timed(&items, |_, &i| work(&dev, i)));
            assert_eq!(charges.iter().map(own).collect::<Vec<_>>(), expect, "{threads} workers");
            join_deferred(&dev, &charges);
            assert_eq!(totals(&dev), totals(&serial_dev), "{threads} workers");
        }
    }

    /// Item `i` of the absorbed-fan-out tests: reads of a few lines at
    /// spread addresses (some shared between items, so a line cache would
    /// hit), and `i` ns of model time.
    fn absorbed_item(dev: &SimDevice, i: u64) {
        let mut buf = vec![0u8; 64 * (i as usize % 7 + 1)];
        for k in 0..i % 4 + 1 {
            dev.read_bytes((i * 5 + k) % 24 * 4096 + k * 64, &mut buf);
        }
        dev.charge_ns(i);
    }

    /// The device's view of everything charged so far: clock, reads,
    /// bytes, line fetches and hits, and the deferred read totals.
    fn device_view(dev: &SimDevice) -> (u64, u64, u64, u64, u64, DeferredReads) {
        let s = dev.stats();
        (s.virtual_ns, s.reads, s.bytes_read, s.line_misses, s.line_hits, dev.deferred_reads())
    }

    /// Under a caller's sink, an absorbed fan-out charges that sink what
    /// the items run inline under it charge — at any worker count.
    #[test]
    fn absorbed_items_charge_the_caller_what_an_inline_loop_does() {
        let items = items(40);
        let inline_dev = SimDevice::new(DeviceProfile::nvm_optane(), 1 << 20);
        let inline = DeferredCharges::new();
        with_deferred_charges(&inline, || {
            items.iter().for_each(|&i| absorbed_item(&inline_dev, i))
        });
        join_deferred(&inline_dev, std::slice::from_ref(&inline));
        let expect = device_view(&inline_dev);
        assert!(expect.0 > 0 && expect.3 > 0, "{expect:?}");
        for threads in [1, 2, 8] {
            let dev = SimDevice::new(DeviceProfile::nvm_optane(), 1 << 20);
            let caller = DeferredCharges::new();
            let out = with_threads(threads, || {
                with_deferred_charges(&caller, || {
                    par_map_absorbed(&items, |_, &i| {
                        absorbed_item(&dev, i);
                        Ok::<_, ()>(i * 3)
                    })
                })
            });
            assert_eq!(out, Ok(items.iter().map(|i| i * 3).collect()), "{threads} workers");
            assert_eq!(dev.stats().virtual_ns, 0, "{threads} workers: all of it in the sink");
            join_deferred(&dev, std::slice::from_ref(&caller));
            assert_eq!(device_view(&dev), expect, "{threads} workers");
        }
    }

    /// With no sink on the calling thread, an absorbed fan-out is the plain
    /// loop: same order, same line-cache model, hits included.
    #[test]
    fn absorbed_items_without_a_sink_are_a_plain_loop() {
        let items = items(40);
        let plain_dev = SimDevice::new(DeviceProfile::nvm_optane(), 1 << 20);
        items.iter().for_each(|&i| absorbed_item(&plain_dev, i));
        let expect = device_view(&plain_dev);
        assert!(expect.4 > 0, "the items share lines: {expect:?}");
        for threads in [1, 4] {
            let dev = SimDevice::new(DeviceProfile::nvm_optane(), 1 << 20);
            let order = std::sync::Mutex::new(Vec::new());
            let out = with_threads(threads, || {
                par_map_absorbed(&items, |i, &x| {
                    order.lock().unwrap().push(i);
                    absorbed_item(&dev, x);
                    Ok::<_, ()>(())
                })
            });
            assert_eq!(out.map(|v| v.len()), Ok(items.len()));
            assert_eq!(order.into_inner().unwrap(), (0..items.len()).collect::<Vec<_>>());
            assert_eq!(device_view(&dev), expect, "{threads} workers");
        }
    }

    /// An item that fails at `k`: the caller is charged items `0..=k`, as
    /// a loop that stops at the failure is, and gets `k`'s error.
    #[test]
    fn a_failed_absorbed_item_charges_what_the_loop_did_up_to_it() {
        let items = items(24);
        let n = items.len() as u64;
        for k in [0, n / 2, n - 1] {
            // Items from `k` on fail every third one, each with its index.
            let fails = |i: u64| i >= k && (i - k).is_multiple_of(3);
            let expect = DeferredCharges::new();
            let expect_dev = SimDevice::new(DeviceProfile::nvm_optane(), 1 << 20);
            with_deferred_charges(&expect, || (0..=k).for_each(|i| absorbed_item(&expect_dev, i)));
            join_deferred(&expect_dev, std::slice::from_ref(&expect));
            for threads in [1, 2, 8] {
                let dev = SimDevice::new(DeviceProfile::nvm_optane(), 1 << 20);
                let caller = DeferredCharges::new();
                let out = with_threads(threads, || {
                    with_deferred_charges(&caller, || {
                        par_map_absorbed(&items, |_, &i| {
                            absorbed_item(&dev, i);
                            if fails(i) {
                                Err(i)
                            } else {
                                Ok(())
                            }
                        })
                    })
                });
                assert_eq!(out, Err(k), "{threads} workers");
                join_deferred(&dev, std::slice::from_ref(&caller));
                assert_eq!(
                    device_view(&dev),
                    device_view(&expect_dev),
                    "failure at {k}, {threads} workers"
                );
            }
        }
    }

    /// A sink has one writer at a time: installing it while it is installed
    /// panics, and installing it again after a barrier resumes it.
    #[test]
    fn a_sink_is_installed_once_at_a_time() {
        let dev = SimDevice::new(DeviceProfile::nvm_optane(), 1 << 20);
        let items = items(16);
        let (_, charges) = with_threads(2, || par_map_timed(&items, |_, _| dev.charge_ns(1)));
        // Resumed after the barrier, on whichever worker takes the item.
        with_threads(2, || {
            par_map(&items, |i, _| with_deferred_charges(&charges[i], || dev.charge_ns(2)))
        });
        assert!(charges.iter().all(|c| c.ns() == 3));
        let nested = std::panic::catch_unwind(|| {
            with_deferred_charges(&charges[0], || with_deferred_charges(&charges[0], || ()))
        });
        assert!(nested.is_err(), "a sink installed twice at once must panic");
        // The unwound installation released the sink.
        with_deferred_charges(&charges[0], || dev.charge_ns(4));
        assert_eq!(charges[0].ns(), 7);
        assert_eq!(dev.stats().virtual_ns, 0, "all of it deferred");
    }

    #[test]
    fn deferred_items_do_not_advance_global_clock() {
        let dev = SimDevice::new(DeviceProfile::nvm_optane(), 1 << 20);
        let items: Vec<u64> = (0..8).collect();
        let (_, charges) = par_map_timed(&items, |_, &i| dev.write_u64(i * 256, i));
        assert_eq!(dev.stats().virtual_ns, 0, "cost must be deferred to sinks");
        let ns: Vec<u64> = charges.iter().map(|c| c.ns()).collect();
        let makespan = lanes_makespan(&ns, 4);
        dev.charge_ns(makespan);
        assert_eq!(dev.stats().virtual_ns, makespan);
    }

    #[test]
    fn join_deferred_merges_reads_and_advances_clock() {
        let dev = SimDevice::new(DeviceProfile::nvm_optane(), 1 << 20);
        let items: Vec<u64> = (0..16).collect();
        let (_, charges) = par_map_timed(&items, |_, &i| {
            let mut buf = vec![0u8; 512];
            dev.read_bytes(i * 4096, &mut buf);
        });
        assert_eq!(dev.stats().reads, 0, "reads must stay in the sinks until the barrier");
        join_deferred(&dev, &charges);
        let stats = dev.stats();
        assert_eq!(stats.reads, 16);
        assert_eq!(stats.bytes_read, 16 * 512);
        assert!(stats.virtual_ns > 0);
        assert_eq!(dev.deferred_reads().reads, 16);
    }

    #[test]
    fn makespan_matches_hand_schedule() {
        // Greedy in-order assignment on 2 lanes: 5→lane0, 4→lane1,
        // 3→lane1 (load 4<5? no: lane1 has 4 < lane0's 5) → lane1=7,
        // 2→lane0=7, 1→lane0 (tie at 7,7 → lane0) = 8.
        assert_eq!(lanes_makespan(&[5, 4, 3, 2, 1], 2), 8);
        assert_eq!(lanes_makespan(&[5, 4, 3, 2, 1], 1), 15);
        assert_eq!(lanes_makespan(&[], 4), 0);
        assert_eq!(lanes_makespan(&[7], 4), 7);
    }

    #[test]
    fn panics_propagate_from_workers() {
        let items: Vec<u32> = (0..32).collect();
        let res = std::panic::catch_unwind(|| {
            with_threads(4, || {
                par_map(&items, |_, &x| {
                    if x == 17 {
                        panic!("boom");
                    }
                    x
                })
            })
        });
        assert!(res.is_err());
    }
}
