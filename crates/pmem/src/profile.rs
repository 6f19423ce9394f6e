//! Device cost profiles.
//!
//! A [`DeviceProfile`] captures the handful of parameters the virtual-time
//! model needs: media line (or block) size, per-miss latencies, transfer
//! bandwidth, and how large the cache sitting in front of the media is.
//!
//! The presets use publicly reported figures for the hardware classes in the
//! paper's testbed (Optane PMem 200, Optane P5800X SSD, SAS HDD, DDR4-3200).
//! Absolute values matter less than the *ratios* between devices — those are
//! what determine the shape of every experiment.

/// Broad class of the simulated device. Used by the allocation ledger to
/// attribute resident bytes (the DRAM space-savings experiment, §VI-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// Volatile DRAM.
    Dram,
    /// Byte-addressable non-volatile memory (Optane PMem class).
    Nvm,
    /// Block-addressable flash (Optane / NVMe SSD class).
    Ssd,
    /// Block-addressable spinning disk.
    Hdd,
}

impl DeviceKind {
    /// Whether data survives a crash once flushed.
    pub fn is_persistent(self) -> bool {
        !matches!(self, DeviceKind::Dram)
    }
}

impl std::fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DeviceKind::Dram => "DRAM",
            DeviceKind::Nvm => "NVM",
            DeviceKind::Ssd => "SSD",
            DeviceKind::Hdd => "HDD",
        };
        f.write_str(s)
    }
}

/// Cost model parameters for one simulated device.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Human-readable name used in experiment output.
    pub name: &'static str,
    /// Device class.
    pub kind: DeviceKind,
    /// Media access granularity in bytes. 256 B for Optane 3D-XPoint media,
    /// 64 B for DRAM (a cache line), 4 KiB for block devices.
    pub line_size: usize,
    /// Latency charged for a line/block read miss, in nanoseconds.
    pub read_latency_ns: u64,
    /// Latency charged for a line/block write-back, in nanoseconds.
    pub write_latency_ns: u64,
    /// Sequential read bandwidth in bytes per microsecond (= MB/s / 1000).
    /// Charged per byte transferred on a miss in addition to latency.
    pub read_bw_bytes_per_us: u64,
    /// Sequential write bandwidth in bytes per microsecond.
    pub write_bw_bytes_per_us: u64,
    /// Cost of an access that hits in the front cache, in nanoseconds.
    pub hit_ns: u64,
    /// Cost of a persistence fence (`sfence` class), in nanoseconds.
    pub fence_ns: u64,
    /// Capacity of the cache in front of the media, in bytes. For
    /// byte-addressable devices this models the CPU cache hierarchy; for
    /// block devices it models the DRAM page cache, which the paper caps at
    /// 20% of the uncompressed dataset size.
    pub cache_bytes: usize,
    /// Associativity of the front cache.
    pub cache_ways: usize,
}

impl DeviceProfile {
    /// DDR4-3200 DRAM behind a CPU cache. The theoretical upper bound
    /// platform in the paper (pure-DRAM TADOC, Figure 6).
    pub fn dram() -> Self {
        DeviceProfile {
            name: "DRAM",
            kind: DeviceKind::Dram,
            line_size: 64,
            read_latency_ns: 80,
            write_latency_ns: 80,
            read_bw_bytes_per_us: 25_000, // ~25 GB/s per channel pair
            write_bw_bytes_per_us: 25_000,
            hit_ns: 2,
            fence_ns: 10,
            cache_bytes: 2 << 20, // 2 MiB LLC share
            cache_ways: 16,
        }
    }

    /// Intel Optane PMem 200 class device in App Direct (direct access)
    /// mode: 256 B media lines, read latency ~3-4x DRAM, write latency and
    /// bandwidth substantially worse than reads.
    pub fn nvm_optane() -> Self {
        DeviceProfile {
            name: "NVM",
            kind: DeviceKind::Nvm,
            line_size: 256,
            read_latency_ns: 320,
            write_latency_ns: 900,
            read_bw_bytes_per_us: 6_000,  // ~6 GB/s per DIMM set
            write_bw_bytes_per_us: 2_000, // ~2 GB/s
            hit_ns: 2,
            fence_ns: 50,
            cache_bytes: 2 << 20,
            cache_ways: 16,
        }
    }

    /// Resistive RAM (ReRAM) — one of the paper's §VI-F migration targets.
    /// Reported characteristics: reads close to DRAM, writes faster than
    /// 3D-XPoint, smaller access granularity (crossbar arrays), lower
    /// bandwidth per bank.
    pub fn reram() -> Self {
        DeviceProfile {
            name: "ReRAM",
            kind: DeviceKind::Nvm,
            line_size: 64,
            read_latency_ns: 150,
            write_latency_ns: 500,
            read_bw_bytes_per_us: 4_000,
            write_bw_bytes_per_us: 1_500,
            hit_ns: 2,
            fence_ns: 40,
            cache_bytes: 2 << 20,
            cache_ways: 16,
        }
    }

    /// Phase-change memory (PCM) — the paper's other §VI-F migration
    /// target. Slower, strongly asymmetric writes (SET/RESET pulses), 64 B
    /// rows.
    pub fn pcm() -> Self {
        DeviceProfile {
            name: "PCM",
            kind: DeviceKind::Nvm,
            line_size: 64,
            read_latency_ns: 250,
            write_latency_ns: 2_500,
            read_bw_bytes_per_us: 3_000,
            write_bw_bytes_per_us: 600,
            hit_ns: 2,
            fence_ns: 60,
            cache_bytes: 2 << 20,
            cache_ways: 16,
        }
    }

    /// Intel Optane P5800X class NVMe SSD accessed through a file system
    /// with a budgeted page cache.
    pub fn ssd_optane(page_cache_bytes: usize) -> Self {
        DeviceProfile {
            name: "SSD",
            kind: DeviceKind::Ssd,
            line_size: 4096,
            read_latency_ns: 6_000, // ~6 us random 4K
            write_latency_ns: 8_000,
            read_bw_bytes_per_us: 6_000,
            write_bw_bytes_per_us: 5_000,
            hit_ns: 60, // page-cache hit still goes through the kernel copy
            fence_ns: 5_000,
            cache_bytes: page_cache_bytes,
            cache_ways: 16,
        }
    }

    /// 7.2k RPM SAS HDD with a budgeted page cache. Random 4 KiB access pays
    /// a seek; sequential bandwidth is decent.
    pub fn hdd_sas(page_cache_bytes: usize) -> Self {
        DeviceProfile {
            name: "HDD",
            kind: DeviceKind::Hdd,
            line_size: 4096,
            read_latency_ns: 45_000, // short-seek average; page cache absorbs most re-reads
            write_latency_ns: 45_000,
            read_bw_bytes_per_us: 220,
            write_bw_bytes_per_us: 200,
            hit_ns: 60,
            fence_ns: 8_000,
            cache_bytes: page_cache_bytes,
            cache_ways: 16,
        }
    }

    /// Nanoseconds charged for a read miss of one line, including transfer.
    pub fn read_miss_ns(&self) -> u64 {
        self.read_latency_ns + (self.line_size as u64 * 1000) / (self.read_bw_bytes_per_us * 1000)
    }

    /// Nanoseconds charged for writing back one dirty line, incl. transfer.
    pub fn write_back_ns(&self) -> u64 {
        self.write_latency_ns + (self.line_size as u64 * 1000) / (self.write_bw_bytes_per_us * 1000)
    }

    /// Nanoseconds for reading the *next sequential* line: bandwidth plus
    /// a small fraction of the access latency (read-ahead hides the rest).
    pub fn read_seq_ns(&self) -> u64 {
        self.read_latency_ns / 10
            + (self.line_size as u64 * 1000) / (self.read_bw_bytes_per_us * 1000)
    }

    /// Nanoseconds for writing back the *next sequential* line.
    pub fn write_seq_ns(&self) -> u64 {
        self.write_latency_ns / 10
            + (self.line_size as u64 * 1000) / (self.write_bw_bytes_per_us * 1000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_classify_persistence() {
        assert!(!DeviceKind::Dram.is_persistent());
        assert!(DeviceKind::Nvm.is_persistent());
        assert!(DeviceKind::Ssd.is_persistent());
        assert!(DeviceKind::Hdd.is_persistent());
    }

    #[test]
    fn nvm_write_costs_more_than_read() {
        let p = DeviceProfile::nvm_optane();
        assert!(p.write_back_ns() > p.read_miss_ns());
    }

    #[test]
    fn dram_is_symmetric_and_cheaper_than_nvm() {
        let d = DeviceProfile::dram();
        let n = DeviceProfile::nvm_optane();
        assert_eq!(d.read_latency_ns, d.write_latency_ns);
        assert!(d.read_miss_ns() < n.read_miss_ns());
        assert!(d.write_back_ns() < n.write_back_ns());
    }

    #[test]
    fn device_latency_ordering_matches_hardware_classes() {
        let budget = 1 << 20;
        let dram = DeviceProfile::dram().read_miss_ns();
        let nvm = DeviceProfile::nvm_optane().read_miss_ns();
        let ssd = DeviceProfile::ssd_optane(budget).read_miss_ns();
        let hdd = DeviceProfile::hdd_sas(budget).read_miss_ns();
        assert!(dram < nvm && nvm < ssd && ssd < hdd);
    }

    #[test]
    fn optane_line_is_256_bytes() {
        assert_eq!(DeviceProfile::nvm_optane().line_size, 256);
    }

    #[test]
    fn alternative_nvm_architectures_are_persistent_nvm() {
        for p in [DeviceProfile::reram(), DeviceProfile::pcm()] {
            assert_eq!(p.kind, DeviceKind::Nvm, "{}", p.name);
            assert!(p.kind.is_persistent());
        }
    }

    #[test]
    fn pcm_writes_are_the_most_asymmetric() {
        let pcm = DeviceProfile::pcm();
        let optane = DeviceProfile::nvm_optane();
        let reram = DeviceProfile::reram();
        let asym = |p: &DeviceProfile| p.write_latency_ns as f64 / p.read_latency_ns as f64;
        assert!(asym(&pcm) > asym(&optane));
        assert!(asym(&pcm) > asym(&reram));
    }

    #[test]
    fn sequential_access_is_cheaper_than_random_in_every_profile() {
        for p in [
            DeviceProfile::dram(),
            DeviceProfile::nvm_optane(),
            DeviceProfile::reram(),
            DeviceProfile::pcm(),
            DeviceProfile::ssd_optane(1 << 20),
            DeviceProfile::hdd_sas(1 << 20),
        ] {
            assert!(p.read_seq_ns() < p.read_miss_ns(), "{}", p.name);
            assert!(p.write_seq_ns() < p.write_back_ns(), "{}", p.name);
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(DeviceKind::Nvm.to_string(), "NVM");
        assert_eq!(DeviceKind::Hdd.to_string(), "HDD");
    }
}
