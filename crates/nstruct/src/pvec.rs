//! Pool-backed vector.

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::Arc;

use ntadoc_pmem::{Addr, PmemPool, Pod, Result};

/// A vector whose elements live in a [`PmemPool`].
///
/// ```
/// use std::sync::Arc;
/// use ntadoc_pmem::{DeviceProfile, PmemPool, SimDevice};
/// use ntadoc_nstruct::PVec;
///
/// let dev = Arc::new(SimDevice::new(DeviceProfile::nvm_optane(), 1 << 20));
/// let pool = Arc::new(PmemPool::over_whole(dev));
/// let v: PVec<u64> = PVec::with_capacity(pool, 4).unwrap();
/// v.push(11).unwrap();
/// v.push(22).unwrap();
/// assert_eq!(v.to_vec(), vec![11, 22]);
/// assert_eq!(v.reconstructions(), 0); // pre-sized: no rebuild
/// ```
///
/// When created with an accurate capacity (the bottom-up summation path,
/// §IV-C) it never moves. When it outgrows its region it *reconstructs*:
/// allocates a doubled region from the pool and copies every element
/// through the device, charging the full read + write traffic — this is the
/// redundant-access overhead the paper's upper-bound estimation exists to
/// avoid, and [`reconstructions`](PVec::reconstructions) exposes the count
/// so experiments can show the difference.
pub struct PVec<T: Pod> {
    pool: Arc<PmemPool>,
    base: Cell<Addr>,
    len: Cell<usize>,
    cap: Cell<usize>,
    reconstructions: Cell<u32>,
    _marker: PhantomData<T>,
}

impl<T: Pod> PVec<T> {
    /// Allocate a vector with room for `cap` elements.
    pub fn with_capacity(pool: Arc<PmemPool>, cap: usize) -> Result<Self> {
        let cap = cap.max(1);
        let base = pool.alloc_array(cap, T::SIZE)?;
        Ok(PVec {
            pool,
            base: Cell::new(base),
            len: Cell::new(0),
            cap: Cell::new(cap),
            reconstructions: Cell::new(0),
            _marker: PhantomData,
        })
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.len.get()
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.len.get() == 0
    }

    /// Current capacity in elements.
    pub fn capacity(&self) -> usize {
        self.cap.get()
    }

    /// How many times the vector had to be rebuilt because its capacity was
    /// exceeded.
    pub fn reconstructions(&self) -> u32 {
        self.reconstructions.get()
    }

    /// Record this vector's footprint and reconstruction count into
    /// `metrics` under `label` (`{label}.capacity_bytes` peak gauge,
    /// `{label}.reconstructions` monotonic counter). Idempotent: safe to
    /// call at every snapshot point.
    pub fn observe(&self, metrics: &ntadoc_pmem::MetricRegistry, label: &str) {
        metrics.gauge_max(&format!("{label}.capacity_bytes"), (self.cap.get() * T::SIZE) as f64);
        metrics.counter_max(&format!("{label}.reconstructions"), self.reconstructions.get() as u64);
    }

    /// Device address of element `i`.
    #[inline]
    pub fn addr_of(&self, i: usize) -> Addr {
        debug_assert!(i < self.cap.get());
        self.base.get() + (i * T::SIZE) as u64
    }

    /// Device address of the first element (for bulk device ops).
    pub fn base_addr(&self) -> Addr {
        self.base.get()
    }

    /// Append an element, reconstructing if the region is full.
    pub fn push(&self, value: T) -> Result<()> {
        if self.len.get() == self.cap.get() {
            self.reconstruct(self.cap.get() * 2)?;
        }
        let i = self.len.get();
        self.pool.dev().write_pod(self.addr_of(i), value);
        self.len.set(i + 1);
        Ok(())
    }

    /// Read element `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn get(&self, i: usize) -> T {
        assert!(i < self.len.get(), "index {i} out of bounds (len {})", self.len.get());
        self.pool.dev().read_pod(self.addr_of(i))
    }

    /// Overwrite element `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn set(&self, i: usize, value: T) {
        assert!(i < self.len.get(), "index {i} out of bounds (len {})", self.len.get());
        self.pool.dev().write_pod(self.addr_of(i), value);
    }

    /// Copy all elements out into a `Vec` (bulk device read).
    pub fn to_vec(&self) -> Vec<T> {
        let n = self.len.get();
        if n == 0 {
            return Vec::new();
        }
        let mut bytes = vec![0u8; n * T::SIZE];
        self.pool.dev().read_bytes(self.base.get(), &mut bytes);
        bytes.chunks_exact(T::SIZE).map(T::load).collect()
    }

    /// Append many elements with one bulk device write per reconstruction
    /// epoch.
    pub fn extend_from_slice(&self, values: &[T]) -> Result<()> {
        if values.is_empty() {
            return Ok(());
        }
        let needed = self.len.get() + values.len();
        if needed > self.cap.get() {
            let mut cap = self.cap.get() * 2;
            while cap < needed {
                cap *= 2;
            }
            self.reconstruct(cap)?;
        }
        let mut bytes = vec![0u8; values.len() * T::SIZE];
        for (i, v) in values.iter().enumerate() {
            v.store(&mut bytes[i * T::SIZE..(i + 1) * T::SIZE]);
        }
        self.pool.dev().write_bytes(self.addr_of(self.len.get()), &bytes);
        self.len.set(needed);
        Ok(())
    }

    /// Flush + fence the live region (phase-level persistence).
    pub fn persist(&self) {
        let bytes = self.len.get() * T::SIZE;
        if bytes > 0 {
            self.pool.dev().persist(self.base.get(), bytes);
        }
    }

    /// Move to a fresh region of `new_cap` elements, copying the contents
    /// through the device (the expensive path the summation avoids).
    fn reconstruct(&self, new_cap: usize) -> Result<()> {
        let new_base = self.pool.alloc_array(new_cap, T::SIZE)?;
        let live = self.len.get() * T::SIZE;
        if live > 0 {
            let mut bytes = vec![0u8; live];
            self.pool.dev().read_bytes(self.base.get(), &mut bytes);
            self.pool.dev().write_bytes(new_base, &bytes);
        }
        self.base.set(new_base);
        self.cap.set(new_cap);
        self.reconstructions.set(self.reconstructions.get() + 1);
        Ok(())
    }
}

impl<T: Pod> std::fmt::Debug for PVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PVec")
            .field("len", &self.len.get())
            .field("cap", &self.cap.get())
            .field("reconstructions", &self.reconstructions.get())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntadoc_pmem::{DeviceProfile, SimDevice};

    fn pool() -> Arc<PmemPool> {
        Arc::new(PmemPool::over_whole(Arc::new(SimDevice::new(
            DeviceProfile::nvm_optane(),
            1 << 22,
        ))))
    }

    #[test]
    fn push_get_round_trip() {
        let v: PVec<u32> = PVec::with_capacity(pool(), 4).unwrap();
        for i in 0..4 {
            v.push(i * 10).unwrap();
        }
        assert_eq!(v.len(), 4);
        assert_eq!(v.get(2), 20);
    }

    #[test]
    fn growth_reconstructs_and_preserves_contents() {
        let v: PVec<u64> = PVec::with_capacity(pool(), 2).unwrap();
        for i in 0..100u64 {
            v.push(i).unwrap();
        }
        assert!(v.reconstructions() > 0);
        assert_eq!(v.to_vec(), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn presized_vector_never_reconstructs() {
        let v: PVec<u64> = PVec::with_capacity(pool(), 100).unwrap();
        for i in 0..100u64 {
            v.push(i).unwrap();
        }
        assert_eq!(v.reconstructions(), 0);
    }

    #[test]
    fn observe_records_footprint_gauges() {
        let v: PVec<u64> = PVec::with_capacity(pool(), 2).unwrap();
        for i in 0..10u64 {
            v.push(i).unwrap();
        }
        let m = ntadoc_pmem::MetricRegistry::new();
        v.observe(&m, "wordlist");
        v.observe(&m, "wordlist"); // idempotent
        let snap = m.snapshot();
        assert_eq!(snap["wordlist.capacity_bytes"].as_gauge(), Some((v.capacity() * 8) as f64));
        assert_eq!(snap["wordlist.reconstructions"].as_counter(), Some(v.reconstructions() as u64));
    }

    #[test]
    fn reconstruction_costs_device_time() {
        let p = pool();
        let grown: PVec<u64> = PVec::with_capacity(p.clone(), 1).unwrap();
        for i in 0..512u64 {
            grown.push(i).unwrap();
        }
        let grown_ns = p.dev().stats().virtual_ns;

        let p2 = pool();
        let sized: PVec<u64> = PVec::with_capacity(p2.clone(), 512).unwrap();
        for i in 0..512u64 {
            sized.push(i).unwrap();
        }
        let sized_ns = p2.dev().stats().virtual_ns;
        assert!(
            grown_ns > sized_ns,
            "growing ({grown_ns}) must cost more than pre-sizing ({sized_ns})"
        );
    }

    #[test]
    fn set_overwrites() {
        let v: PVec<u32> = PVec::with_capacity(pool(), 4).unwrap();
        v.push(1).unwrap();
        v.set(0, 99);
        assert_eq!(v.get(0), 99);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_past_len_panics() {
        let v: PVec<u32> = PVec::with_capacity(pool(), 4).unwrap();
        v.push(1).unwrap();
        v.get(1);
    }

    #[test]
    fn extend_from_slice_bulk_appends() {
        let v: PVec<u32> = PVec::with_capacity(pool(), 2).unwrap();
        v.push(7).unwrap();
        v.extend_from_slice(&(0..50).collect::<Vec<u32>>()).unwrap();
        assert_eq!(v.len(), 51);
        assert_eq!(v.get(0), 7);
        assert_eq!(v.get(50), 49);
    }

    #[test]
    fn pair_elements_work() {
        let v: PVec<(u32, u32)> = PVec::with_capacity(pool(), 8).unwrap();
        v.push((1, 100)).unwrap();
        v.push((2, 200)).unwrap();
        assert_eq!(v.get(1), (2, 200));
    }

    #[test]
    fn persist_makes_contents_durable() {
        let p = pool();
        let v: PVec<u32> = PVec::with_capacity(p.clone(), 4).unwrap();
        v.push(5).unwrap();
        v.persist();
        p.dev().crash();
        assert_eq!(v.get(0), 5);
    }

    #[test]
    fn pool_exhaustion_surfaces_as_error() {
        let small = Arc::new(PmemPool::over_whole(Arc::new(SimDevice::new(
            DeviceProfile::nvm_optane(),
            64,
        ))));
        let v: PVec<u64> = PVec::with_capacity(small, 4).unwrap();
        for i in 0..4u64 {
            v.push(i).unwrap();
        }
        assert!(v.push(4).is_err());
    }
}
