//! Crash-point sweep harness: ALICE-style enumeration of crash states.
//!
//! A recovery protocol is only as good as the worst crash point it was
//! tested at. This module provides the pieces a sweep needs:
//!
//! * [`Prng`] — a tiny deterministic splitmix64 generator (no external
//!   dependency) used both by the torn-write crash model in
//!   [`crate::SimDevice`] and by harnesses picking random mid-write crash
//!   points,
//! * [`CrashPoint`] — where to schedule the injected failure: a persist
//!   point (flush/fence boundary) or a raw write operation,
//! * [`run_with_crash_at`] — run a workload with a crash armed at a given
//!   point, catching the injected panic and reporting whether the crash
//!   actually fired (the engine's `Session::crash_at` runs every crash
//!   through it, and its `sweep` module is the sweep).

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::device::CRASH_PANIC;

/// Deterministic splitmix64 PRNG. Small, fast, and good enough for coin
/// flips and point selection; never use for anything cryptographic.
#[derive(Debug, Clone)]
pub struct Prng {
    state: u64,
}

impl Prng {
    /// Seeded construction; equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        Prng { state: seed }
    }

    /// Next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be non-zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        self.next_u64() % bound
    }

    /// Uniform value in `lo..=hi` from one draw; `lo <= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        let draw = self.next_u64();
        // `lo..=hi` covering every `u64` has a span of 2^64, which wraps to 0.
        match (hi - lo).wrapping_add(1) {
            0 => draw,
            span => lo + draw % span,
        }
    }

    /// Uniform `f64` in `[0, 1)`: the top 53 bits of one draw.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// True with probability `p`, defined as `unit() < p`: one draw
    /// whatever `p` is.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// The torn-crash survival decision for one media line, shared between
/// [`crate::SimDevice`]'s in-memory crash model and any backend that must
/// reproduce the exact same crash state on other storage (the file-backed
/// device tears the *on-disk* bytes with this).
///
/// A flushed-but-unfenced line independently survives (coin flip) or
/// reverts; an unflushed line always reverts. The RNG is consumed **only**
/// for flushed-pending lines — callers must preserve that short-circuit or
/// identical seeds stop producing identical crash states across backends.
#[inline]
pub fn torn_line_survives(rng: &mut Prng, flushed_pending: bool) -> bool {
    flushed_pending && rng.next_u64() & 1 == 1
}

/// The torn-crash decision for one 8-byte word of an interrupted store:
/// each word independently reaches media or not (PMDK's atomicity floor).
/// Drawn *after* every line decision of the same crash, from the same RNG.
#[inline]
pub fn torn_word_survives(rng: &mut Prng) -> bool {
    rng.next_u64() & 1 == 1
}

/// Failure-message context for a crash sweep: carries the torn seed (and
/// the swept point) so a CI log line alone is enough to replay the exact
/// crash state (`NTADOC_SWEEP_SEEDS=<seed>`). Interpolate it into every
/// sweep panic/assert message.
pub fn sweep_ctx(label: &str, seed: u64, point: u64) -> String {
    format!("{label} [torn seed {seed}, point {point}; replay with NTADOC_SWEEP_SEEDS={seed}]")
}

/// A property as a seeded loop: `check` runs on `cases` inputs, case `n`'s
/// drawn by `generate` from `Prng::new(seed ^ n)`. When `check` panics, the
/// case number and the input's `Debug` are printed after the assertion's
/// own message, so a failure is replayed by generating that one input
/// again; nothing is shrunk and nothing is saved between runs.
pub fn for_each_case<T: std::fmt::Debug>(
    property: &str,
    seed: u64,
    cases: u64,
    mut generate: impl FnMut(&mut Prng) -> T,
    mut check: impl FnMut(&T),
) {
    /// Says which input was being checked when a panic drops it.
    struct Checking<'a, T: std::fmt::Debug>(&'a str, u64, u64, &'a T);
    impl<T: std::fmt::Debug> Drop for Checking<'_, T> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                let Checking(property, seed, case, input) = self;
                eprintln!(
                    "property `{property}` failed at case {case}, \
                     drawn from Prng::new({seed:#x} ^ {case}); input: {input:?}"
                );
            }
        }
    }
    for case in 0..cases {
        let input = generate(&mut Prng::new(seed ^ case));
        let _checking = Checking(property, seed, case, &input);
        check(&input);
    }
}

/// Where in a workload's operation stream to inject the crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Crash at the `n`-th flush-or-fence from the start of the run
    /// (see [`crate::SimDevice::trip_after_persists`]).
    Persist(u64),
    /// Crash at the `n`-th write operation from the start of the run
    /// (see [`crate::SimDevice::trip_after_writes`]) — this is the point
    /// that exercises sub-line tearing, because the interrupted store
    /// itself is torn at 8-byte granularity.
    Write(u64),
}

/// What [`run_with_crash_at`] observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashRun {
    /// The armed crash fired; the device is in a post-crash state and the
    /// caller should recover and verify.
    Crashed,
    /// The workload finished before reaching the armed point; the sweep
    /// has gone past the end of the operation stream.
    Completed,
}

/// Run `workload` with a crash armed at `point` on `arm`'s device (the
/// closure receives nothing — capture what you need). The injected panic
/// is caught and classified; any *other* panic is propagated, so genuine
/// bugs in the workload still fail the test.
///
/// `arm` and `disarm` let the harness stay decoupled from the device type
/// here; in practice they call `trip_after_persists`/`trip_after_writes`
/// and `clear_trip` on a [`crate::SimDevice`].
pub fn run_with_crash_at<W: FnOnce()>(
    point: CrashPoint,
    arm: impl FnOnce(CrashPoint),
    disarm: impl FnOnce(),
    workload: W,
) -> CrashRun {
    arm(point);
    let result = catch_unwind(AssertUnwindSafe(workload));
    disarm();
    match result {
        Ok(()) => CrashRun::Completed,
        Err(payload) => {
            // `&*payload` reborrows the payload contents; a plain `&payload`
            // would unsize the Box itself into `&dyn Any` and the downcast
            // would never match.
            if panic_is_injected_crash(&*payload) {
                CrashRun::Crashed
            } else {
                std::panic::resume_unwind(payload);
            }
        }
    }
}

/// True when a caught panic payload is the device's injected-crash marker
/// rather than a real failure.
fn panic_is_injected_crash(payload: &(dyn std::any::Any + Send)) -> bool {
    let msg = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&'static str>().copied())
        .unwrap_or("");
    msg.contains(CRASH_PANIC)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prng_is_deterministic_and_varied() {
        let mut a = Prng::new(7);
        let mut b = Prng::new(7);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mut distinct = xs.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), xs.len(), "8 draws should not collide");
        let mut c = Prng::new(8);
        assert_ne!(c.next_u64(), xs[0]);
    }

    #[test]
    fn next_below_respects_bound() {
        let mut p = Prng::new(99);
        for _ in 0..1000 {
            assert!(p.next_below(17) < 17);
        }
    }

    #[test]
    fn range_unit_and_chance_are_one_draw_each_with_the_documented_meaning() {
        let unit_of = |draw: u64| (draw >> 11) as f64 / (1u64 << 53) as f64;
        let (mut p, mut q) = (Prng::new(5), Prng::new(5));
        for _ in 0..1000 {
            assert_eq!(p.range(3, 9), 3 + q.next_u64() % 7);
            let unit = p.unit();
            assert_eq!(unit, unit_of(q.next_u64()));
            assert!((0.0..1.0).contains(&unit));
            assert_eq!(p.chance(0.3), unit_of(q.next_u64()) < 0.3);
        }
        assert_eq!(p.range(0, u64::MAX), q.next_u64());
        assert_eq!(p.range(4, 4), 4);
        assert!(!p.chance(0.0) && p.chance(1.0));
        assert_eq!(unit_of(u64::MAX), 1.0 - f64::EPSILON / 2.0);
    }

    #[test]
    fn for_each_case_draws_case_n_from_seed_xor_n() {
        let mut seen = Vec::new();
        for_each_case("draws", 0xABC, 4, |rng| rng.next_u64(), |&x| seen.push(x));
        let expect: Vec<u64> = (0..4).map(|n| Prng::new(0xABC ^ n).next_u64()).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn injected_crash_is_classified_as_crashed() {
        let run =
            run_with_crash_at(CrashPoint::Write(0), |_| {}, || {}, || panic!("{}", CRASH_PANIC));
        assert_eq!(run, CrashRun::Crashed);
    }

    #[test]
    fn workload_finishing_early_is_classified_as_completed() {
        let run = run_with_crash_at(CrashPoint::Persist(1_000_000), |_| {}, || {}, || {});
        assert_eq!(run, CrashRun::Completed);
    }

    #[test]
    #[should_panic(expected = "genuine bug")]
    fn real_panics_propagate() {
        let _ = run_with_crash_at(CrashPoint::Write(0), |_| {}, || {}, || panic!("genuine bug"));
    }

    #[test]
    fn torn_line_decision_consumes_rng_only_when_pending() {
        // The short-circuit is load-bearing: a non-pending line must not
        // advance the RNG, or cross-backend replays of the same seed
        // diverge. Interleave pending and non-pending queries and check
        // the stream matches a reference that skips non-pending draws.
        let mut a = Prng::new(42);
        let mut b = Prng::new(42);
        let pattern = [true, false, false, true, true, false, true];
        for &pending in &pattern {
            let got = torn_line_survives(&mut a, pending);
            if pending {
                assert_eq!(got, b.next_u64() & 1 == 1);
            } else {
                assert!(!got);
            }
        }
        // Word decisions continue from the same stream position.
        assert_eq!(torn_word_survives(&mut a), b.next_u64() & 1 == 1);
    }

    #[test]
    fn sweep_ctx_carries_the_seed() {
        let msg = sweep_ctx("phase-level diverged", 7, 12);
        assert!(msg.contains("seed 7"), "{msg}");
        assert!(msg.contains("NTADOC_SWEEP_SEEDS=7"), "{msg}");
        assert!(msg.contains("point 12"), "{msg}");
    }
}
