//! Allocation ledger: per-device-kind resident-byte accounting.
//!
//! The paper's §VI-C measures DRAM space savings as the difference in RSS
//! between TADOC (everything in DRAM) and N-TADOC (bulk structures on NVM,
//! small working set in DRAM). In the simulator, RSS is stood in for by the
//! peak number of bytes allocated on each device kind, which this ledger
//! tracks exactly.

use std::collections::HashMap;
use std::sync::Mutex;

use crate::profile::DeviceKind;

#[derive(Debug, Default, Clone, Copy)]
struct Usage {
    current: u64,
    peak: u64,
}

/// Tracks current and peak allocated bytes per [`DeviceKind`].
#[derive(Debug, Default)]
pub struct AllocLedger {
    usage: Mutex<HashMap<DeviceKind, Usage>>,
}

impl AllocLedger {
    /// Fresh, empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an allocation of `bytes` on `kind`.
    pub fn on_alloc(&self, kind: DeviceKind, bytes: u64) {
        let mut usage = self.usage.lock().unwrap_or_else(|e| e.into_inner());
        let u = usage.entry(kind).or_default();
        u.current += bytes;
        u.peak = u.peak.max(u.current);
    }

    /// Record a release of `bytes` on `kind`.
    pub fn on_free(&self, kind: DeviceKind, bytes: u64) {
        let mut usage = self.usage.lock().unwrap_or_else(|e| e.into_inner());
        let u = usage.entry(kind).or_default();
        u.current = u.current.saturating_sub(bytes);
    }

    /// Record a buffer of `bytes` on `kind` that is allocated and freed
    /// with nothing else resident coming or going meanwhile: the peak
    /// rises to `current + bytes` if that is higher, and `current` stays.
    /// Buffers booked this way on several threads at once never stack, so
    /// the peak is the one a single thread booking them in turn reaches.
    pub fn on_transient(&self, kind: DeviceKind, bytes: u64) {
        let mut usage = self.usage.lock().unwrap_or_else(|e| e.into_inner());
        let u = usage.entry(kind).or_default();
        u.peak = u.peak.max(u.current + bytes);
    }

    /// Bytes currently resident on `kind`.
    pub fn current(&self, kind: DeviceKind) -> u64 {
        self.usage.lock().unwrap_or_else(|e| e.into_inner()).get(&kind).map_or(0, |u| u.current)
    }

    /// Peak bytes ever resident on `kind` (the RSS proxy).
    pub fn peak(&self, kind: DeviceKind) -> u64 {
        self.usage.lock().unwrap_or_else(|e| e.into_inner()).get(&kind).map_or(0, |u| u.peak)
    }

    /// Forget everything.
    pub fn reset(&self) {
        self.usage.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_survives_frees() {
        let l = AllocLedger::new();
        l.on_alloc(DeviceKind::Dram, 100);
        l.on_alloc(DeviceKind::Dram, 50);
        l.on_free(DeviceKind::Dram, 120);
        assert_eq!(l.current(DeviceKind::Dram), 30);
        assert_eq!(l.peak(DeviceKind::Dram), 150);
    }

    #[test]
    fn transients_raise_the_peak_and_hold_nothing() {
        let l = AllocLedger::new();
        l.on_alloc(DeviceKind::Dram, 100);
        l.on_transient(DeviceKind::Dram, 30);
        l.on_transient(DeviceKind::Dram, 20);
        assert_eq!((l.current(DeviceKind::Dram), l.peak(DeviceKind::Dram)), (100, 130));
        // The same as an allocation freed before the next one.
        let m = AllocLedger::new();
        m.on_alloc(DeviceKind::Dram, 100);
        for b in [30, 20] {
            m.on_alloc(DeviceKind::Dram, b);
            m.on_free(DeviceKind::Dram, b);
        }
        assert_eq!((m.current(DeviceKind::Dram), m.peak(DeviceKind::Dram)), (100, 130));
    }

    #[test]
    fn kinds_are_independent() {
        let l = AllocLedger::new();
        l.on_alloc(DeviceKind::Dram, 10);
        l.on_alloc(DeviceKind::Nvm, 90);
        assert_eq!(l.peak(DeviceKind::Dram), 10);
        assert_eq!(l.peak(DeviceKind::Nvm), 90);
    }

    #[test]
    fn free_saturates_at_zero() {
        let l = AllocLedger::new();
        l.on_free(DeviceKind::Ssd, 5);
        assert_eq!(l.current(DeviceKind::Ssd), 0);
    }

    #[test]
    fn reset_clears_all() {
        let l = AllocLedger::new();
        l.on_alloc(DeviceKind::Nvm, 10);
        l.reset();
        assert_eq!(l.peak(DeviceKind::Nvm), 0);
    }
}
