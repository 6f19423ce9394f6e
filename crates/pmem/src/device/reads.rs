//! The read handle: several reads metered under one acquisition of the
//! state lock ([`SimDevice::with_reads`]), and the one read path that both
//! it and [`SimDevice::try_read_bytes`] go through.
//!
//! A structure read — a rule's body with its offset and length, a
//! head/tail row with its length, a pass over dictionary words — is a few
//! dependent reads. Metered one call at a time, each takes and releases
//! the lock; through the handle they take it once and are charged exactly
//! as the single calls would be, in the same order.

#[cfg(debug_assertions)]
use std::cell::Cell;
use std::sync::atomic::Ordering;
use std::sync::RwLockWriteGuard;

use super::meter::{with_sink, DeferredCharges};
use super::{Addr, Inner, SimDevice};
use crate::Result;

/// Where a read is metered: under the held state lock, or — inside a
/// [`with_deferred_charges`](crate::with_deferred_charges) region — in the
/// thread's sink, lock-free.
pub(super) enum Via<'a> {
    Lock(&'a mut Inner),
    Sink(&'a DeferredCharges),
}

#[cfg(debug_assertions)]
thread_local! {
    /// The device whose state lock this thread holds through a [`Reads`]
    /// handle (its address), or zero. Debug builds only: a device call
    /// made inside [`SimDevice::with_reads`] would deadlock, and panics
    /// instead.
    static HOLDING: Cell<usize> = const { Cell::new(0) };
}

impl SimDevice {
    /// Run `f` with a [`Reads`] handle: several reads metered under one
    /// acquisition of the state lock. Each read through the handle costs
    /// and counts exactly what the same [`try_read_bytes`](Self::try_read_bytes)
    /// call would, in call order; only the lock is taken once. Inside a
    /// [`with_deferred_charges`](crate::with_deferred_charges) region no
    /// lock is taken and every read takes the lock-free path, as single
    /// calls do.
    ///
    /// `f` must not panic and must not call the device other than through
    /// the handle: the lock is held while it runs, so a nested call would
    /// deadlock (debug builds panic instead). Return errors from `f` and
    /// raise them after `with_reads` returns, once the lock is released.
    pub fn with_reads<R>(&self, f: impl FnOnce(&mut Reads<'_>) -> R) -> R {
        with_sink(|sink| match sink {
            Some(sink) => f(&mut Reads { dev: self, held: Held::Sink(sink) }),
            None => {
                let mut reads = Reads { dev: self, held: Held::Lock(self.lock()) };
                #[cfg(debug_assertions)]
                let _holding = Holding::enter(self);
                f(&mut reads)
            }
        })
    }

    /// The one read path: bounds, then media faults, then the cost, then
    /// the counters, then — when `dst` is given — the copy. A zero-length
    /// read does nothing.
    #[inline]
    fn read_via(&self, via: Via<'_>, addr: Addr, len: usize, dst: Option<&mut [u8]>) -> Result<()> {
        if len == 0 {
            return Ok(());
        }
        self.check_bounds(addr, len)?;
        self.read_checked(via, addr, len, dst)
    }

    /// [`read_via`](Self::read_via) past its checks, for a range that is
    /// non-empty and inside the device.
    #[inline]
    pub(super) fn read_checked(
        &self,
        via: Via<'_>,
        addr: Addr,
        len: usize,
        dst: Option<&mut [u8]>,
    ) -> Result<()> {
        let (first, last) = self.lines_of(addr, len);
        match via {
            Via::Lock(inner) => {
                self.check_read_faults(&inner.faults, first, last)?;
                inner.meter.touch(first, last, false);
                inner.meter.stats.reads += 1;
                inner.meter.stats.bytes_read += len as u64;
                if let Some(dst) = dst {
                    self.plane.read_locked(addr as usize, dst);
                }
            }
            Via::Sink(sink) => {
                // Lock-free fast path: deferred reads bypass the line cache,
                // charge their cost to the thread's private sink, and copy
                // from the data plane under the seqlock protocol — no lock,
                // no shared-memory write, so concurrent serve tasks stream
                // reads side by side instead of serialising on the device.
                if self.fault_lines.load(Ordering::Relaxed) != 0 {
                    // Rare path: only consult the fault table (under the
                    // shared lock) when faults are actually injected.
                    self.check_read_faults(&self.read_lock().faults, first, last)?;
                }
                let retries = dst.map_or(0, |dst| self.plane.read_optimistic(addr as usize, dst));
                let nlines = last - first + 1;
                sink.charge(self.costs.stream_read(nlines));
                sink.note_read(nlines, len as u64, retries);
            }
        }
        Ok(())
    }

    /// Debug builds: panic rather than deadlock when this thread already
    /// holds the state lock through a [`Reads`] handle.
    #[inline]
    pub(super) fn assert_not_holding(&self) {
        #[cfg(debug_assertions)]
        HOLDING.with(|h| {
            assert!(
                h.get() != self as *const SimDevice as usize,
                "device call inside SimDevice::with_reads: it would deadlock on the state \
                 lock; read through the handle instead"
            )
        });
    }
}

/// What a [`Reads`] handle holds: the state lock, or the thread's sink.
enum Held<'a> {
    Lock(RwLockWriteGuard<'a, Inner>),
    Sink(&'a DeferredCharges),
}

/// Several reads under one acquisition of the state lock
/// ([`SimDevice::with_reads`]). Each method meters its access exactly as
/// the [`SimDevice`] method of the same name does.
pub struct Reads<'a> {
    dev: &'a SimDevice,
    held: Held<'a>,
}

impl Reads<'_> {
    /// Meter a read of `len` bytes at `addr`, copying into `dst` if given.
    #[inline]
    fn read(&mut self, addr: Addr, len: usize, dst: Option<&mut [u8]>) -> Result<()> {
        let via = match &mut self.held {
            Held::Lock(inner) => Via::Lock(inner),
            Held::Sink(sink) => Via::Sink(sink),
        };
        self.dev.read_via(via, addr, len, dst)
    }

    /// [`SimDevice::try_read_bytes`].
    pub fn read_bytes(&mut self, addr: Addr, buf: &mut [u8]) -> Result<()> {
        self.read(addr, buf.len(), Some(buf))
    }

    /// A read of `len` bytes at `addr` that is metered but copies nothing:
    /// what a caller that needs no bytes owes the model for them.
    pub fn touch(&mut self, addr: Addr, len: usize) -> Result<()> {
        self.read(addr, len, None)
    }

    /// [`SimDevice::try_read_pod`] of a `u32`.
    pub fn read_u32(&mut self, addr: Addr) -> Result<u32> {
        let mut buf = [0u8; 4];
        self.read(addr, 4, Some(&mut buf))?;
        Ok(u32::from_le_bytes(buf))
    }

    /// [`SimDevice::try_read_u64`].
    pub fn read_u64(&mut self, addr: Addr) -> Result<u64> {
        let mut buf = [0u8; 8];
        self.read(addr, 8, Some(&mut buf))?;
        Ok(u64::from_le_bytes(buf))
    }
}

/// Debug builds: marks this thread as holding a device's state lock
/// through a [`Reads`] handle until dropped.
#[cfg(debug_assertions)]
struct Holding(usize);

#[cfg(debug_assertions)]
impl Holding {
    fn enter(dev: &SimDevice) -> Self {
        Holding(HOLDING.with(|h| h.replace(dev as *const SimDevice as usize)))
    }
}

#[cfg(debug_assertions)]
impl Drop for Holding {
    fn drop(&mut self) {
        HOLDING.with(|h| h.set(self.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultsim::{for_each_case, Prng};
    use crate::profile::DeviceProfile;
    use crate::{with_deferred_charges, PmemError};

    /// Under Miri the same property is checked on fewer cases.
    const CASES: u64 = if cfg!(miri) { 6 } else { 300 };

    const CAP: u64 = 1 << 15;

    /// One read of a generated sequence.
    #[derive(Debug, Clone, Copy)]
    enum Read {
        Bytes(Addr, usize),
        U32(Addr),
        U64(Addr),
        /// Through the handle a metered read that copies nothing; made
        /// singly, the same read into a scratch buffer.
        Touch(Addr, usize),
    }

    #[derive(Debug)]
    struct Case {
        reads: Vec<Read>,
        /// The line of this read's address gets an uncorrectable fault.
        fault_at: Option<usize>,
        seed: u64,
    }

    fn case(rng: &mut Prng) -> Case {
        let n = 1 + rng.next_below(60) as usize;
        let reads = (0..n)
            .map(|_| {
                let len = match rng.next_below(8) {
                    0 => 0,
                    1 => 1 + rng.next_below(700) as usize,
                    _ => 1 + rng.next_below(24) as usize,
                };
                // Now and then a read that runs off the end.
                let addr = match rng.next_below(40) {
                    0 => CAP - rng.next_below(8),
                    _ => rng.next_below(CAP - 704),
                };
                match rng.next_below(4) {
                    0 => Read::Bytes(addr, len),
                    1 => Read::U32(addr),
                    2 => Read::U64(addr),
                    _ => Read::Touch(addr, len),
                }
            })
            .collect();
        let fault_at = (rng.next_below(3) == 0).then(|| rng.next_below(n as u64) as usize);
        Case { reads, fault_at, seed: rng.next_u64() }
    }

    /// A device holding seeded bytes, its counters zeroed and its cache
    /// warm with some of them.
    fn device(c: &Case) -> SimDevice {
        let dev = SimDevice::new(DeviceProfile::nvm_optane(), CAP as usize);
        let mut rng = Prng::new(c.seed);
        let bytes: Vec<u8> = (0..CAP).map(|_| rng.next_u64() as u8).collect();
        dev.write_bytes(0, &bytes);
        for _ in 0..50 {
            dev.read_u64(rng.next_below(CAP / 8) * 8);
        }
        if let Some(k) = c.fault_at {
            let (Read::Bytes(addr, _) | Read::U32(addr) | Read::U64(addr) | Read::Touch(addr, _)) =
                c.reads[k];
            dev.inject_read_fault(addr.min(CAP - 1));
        }
        dev.reset_stats();
        dev
    }

    /// The reads made one call at a time, up to the first error: the bytes
    /// they copied and how they ended.
    fn singly(dev: &SimDevice, reads: &[Read]) -> (Vec<u8>, Result<()>) {
        let mut out = Vec::new();
        let ended = reads.iter().try_for_each(|&read| {
            match read {
                Read::Bytes(addr, len) | Read::Touch(addr, len) => {
                    let mut buf = vec![0u8; len];
                    dev.try_read_bytes(addr, &mut buf)?;
                    if matches!(read, Read::Bytes(..)) {
                        out.extend(buf);
                    }
                }
                Read::U32(addr) => out.extend(dev.try_read_pod::<u32>(addr)?.to_le_bytes()),
                Read::U64(addr) => out.extend(dev.try_read_u64(addr)?.to_le_bytes()),
            }
            Ok(())
        });
        (out, ended)
    }

    /// The same reads through one handle.
    fn handled(dev: &SimDevice, reads: &[Read]) -> (Vec<u8>, Result<()>) {
        let mut out = Vec::new();
        let ended = dev.with_reads(|h| {
            reads.iter().try_for_each(|&read| {
                match read {
                    Read::Bytes(addr, len) => {
                        let mut buf = vec![0u8; len];
                        h.read_bytes(addr, &mut buf)?;
                        out.extend(buf);
                    }
                    Read::Touch(addr, len) => h.touch(addr, len)?,
                    Read::U32(addr) => out.extend(h.read_u32(addr)?.to_le_bytes()),
                    Read::U64(addr) => out.extend(h.read_u64(addr)?.to_le_bytes()),
                }
                Ok::<(), PmemError>(())
            })
        });
        (out, ended)
    }

    /// What a device's model holds after a run: its counters, and — read
    /// back by a fixed scan of single reads — its cache residency.
    fn model(dev: &SimDevice) -> (crate::AccessStats, u64, crate::AccessStats) {
        let before = dev.stats();
        let mut rng = Prng::new(7);
        for _ in 0..200 {
            let _ = dev.try_read_pod::<u32>(rng.next_below(CAP / 4) * 4);
        }
        (before, dev.poison_heals(), dev.stats())
    }

    /// Reads through one handle copy the same bytes, end in the same error
    /// and leave the same counters, virtual time, cache and poison count as
    /// the same reads made one at a time — with and without a deferred
    /// sink, zero-length, out-of-bounds and media-faulted reads included.
    #[test]
    fn a_handle_meters_what_single_calls_do() {
        for_each_case("a_handle_meters_what_single_calls_do", 0x4EAD5, CASES, case, |c| {
            let (one, many) = (device(c), device(c));
            let want = singly(&one, &c.reads);
            assert_eq!(handled(&many, &c.reads), want);
            assert_eq!(model(&many), model(&one));

            let (one, many) = (device(c), device(c));
            let (sink_one, sink_many) = (DeferredCharges::new(), DeferredCharges::new());
            let want = with_deferred_charges(&sink_one, || singly(&one, &c.reads));
            let got = with_deferred_charges(&sink_many, || handled(&many, &c.reads));
            assert_eq!(got, want);
            assert_eq!(sink_many.ns(), sink_one.ns());
            assert_eq!(sink_many.reads(), sink_one.reads());
            assert_eq!(sink_many.line_misses(), sink_one.line_misses());
            one.absorb_deferred(std::slice::from_ref(&sink_one));
            many.absorb_deferred(std::slice::from_ref(&sink_many));
            assert_eq!(many.deferred_reads(), one.deferred_reads());
            assert_eq!(model(&many), model(&one));
        });
    }

    /// Some generated sequences do end early, on each kind of error. A
    /// check of the generator, with the full case count: not under Miri.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn the_generated_sequences_meet_every_error() {
        let mut rng = Prng::new(0x4EAD5);
        let (mut oob, mut media) = (0, 0);
        for _ in 0..CASES {
            let c = case(&mut rng);
            match singly(&device(&c), &c.reads).1 {
                Err(PmemError::OutOfBounds { .. }) => oob += 1,
                Err(PmemError::MediaError { .. }) => media += 1,
                _ => {}
            }
        }
        assert!(oob > 0 && media > 0, "{oob} out of bounds, {media} media errors");
    }

    /// A device call made while the handle holds the lock would deadlock;
    /// debug builds panic instead, and the device heals and works on.
    #[cfg(debug_assertions)]
    #[test]
    fn a_nested_device_call_panics_instead_of_deadlocking() {
        let dev = SimDevice::new(DeviceProfile::nvm_optane(), 4096);
        dev.write_u64(64, 9);
        let nested = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dev.with_reads(|h| {
                let _ = h.read_u64(64);
                dev.read_u64(64)
            })
        }));
        let payload = nested.expect_err("nested call returned");
        let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(message.contains("inside SimDevice::with_reads"), "{message}");
        assert_eq!(dev.read_u64(64), 9);
        assert_eq!(dev.poison_heals(), 1);
    }
}
