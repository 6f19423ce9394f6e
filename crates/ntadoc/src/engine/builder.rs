//! [`EngineBuilder`] and the choices it carries into an [`Engine`].

use std::path::Path;
use std::sync::Arc;

use ntadoc_grammar::Compressed;
use ntadoc_pmem::{
    DeviceKind, DeviceProfile, FileDevice, MmapDevice, PmemError, PoolDevice, PoolLayout,
};

use super::{Derived, Engine};
use crate::config::EngineConfig;
use crate::layout::PoolLayoutConfig;
use crate::Result;

/// What [`Engine::run`] does when a traversal fails with an unabsorbed
/// [`PmemError::MediaError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RetryPolicy {
    /// Surface the error to the caller (default).
    #[default]
    Fail,
    /// §IV-E recovery: roll back any open operation-level transaction and
    /// re-run the traversal phase from the last checkpoint, up to this
    /// many times. Every retry's device traffic is charged to the virtual
    /// clock like any other access.
    MediaRetries(u32),
}

/// Fluent constructor for [`Engine`]. Obtain one with [`Engine::builder`].
///
/// ```
/// use ntadoc::{Engine, EngineConfig};
/// use ntadoc_grammar::{compress_corpus, TokenizerConfig};
///
/// let files = vec![("a.txt".into(), "hello persistent world".into())];
/// let comp = compress_corpus(&files, &TokenizerConfig::default());
/// let engine = Engine::builder(comp).config(EngineConfig::ntadoc()).build().unwrap();
/// assert_eq!(engine.label(), "N-TADOC");
/// ```
pub struct EngineBuilder {
    comp: Arc<Compressed>,
    cfg: EngineConfig,
    profile: ProfileChoice,
    label: Option<String>,
    retry: RetryPolicy,
    /// Durable backend used by [`Engine::open_pool`].
    pool_backend: PoolBackend,
    /// Id encoding of the DAG pool ([`PoolLayoutConfig`]).
    pool_layout: PoolLayoutConfig,
}

/// Which device to simulate.
enum ProfileChoice {
    Given(DeviceProfile),
    /// An SSD (or, `hdd`, a disk) with the paper's memory budget: the page
    /// cache capped at 20% of the uncompressed dataset size, resolved at
    /// `build`.
    Block {
        hdd: bool,
    },
}

/// Which [`StableStore`](ntadoc_pmem::StableStore) keeps the pool file
/// current when [`Engine::open_pool`] attaches one behind the simulated
/// device. Both write the same pool-file format (magic, CRC-sealed
/// header, data region) and are interchangeable on reopen and under
/// `ntadoc fsck`; they differ only in that I/O path
/// (`pwrite`+`fdatasync` vs. a shared memory mapping +`msync`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PoolBackend {
    /// Write-through file I/O ([`FileDevice`]). The default.
    #[default]
    File,
    /// Memory-mapped pool file ([`MmapDevice`]): stores land in the
    /// mapping, fences `msync` — the closest stand-in for DAX-mapped
    /// persistent memory this environment can express.
    Mmap,
}

impl PoolBackend {
    /// Parse a CLI/env spelling (`"file"` or `"mmap"`).
    pub fn parse(s: &str) -> Option<PoolBackend> {
        match s.trim().to_ascii_lowercase().as_str() {
            "file" => Some(PoolBackend::File),
            "mmap" => Some(PoolBackend::Mmap),
            _ => None,
        }
    }

    /// The CLI spelling (`"file"` / `"mmap"`).
    pub fn name(&self) -> &'static str {
        match self {
            PoolBackend::File => "file",
            PoolBackend::Mmap => "mmap",
        }
    }

    /// Create a fresh pool file at `path` through this backend's store,
    /// sealing `dag_layout` into its header.
    pub fn create(
        self,
        path: &Path,
        profile: DeviceProfile,
        layout: PoolLayout,
        dag_layout: u16,
    ) -> Result<Arc<dyn PoolDevice>> {
        Ok(match self {
            PoolBackend::File => {
                FileDevice::create_with_dag_layout(path, profile, layout, dag_layout)?
            }
            PoolBackend::Mmap => {
                MmapDevice::create_with_dag_layout(path, profile, layout, dag_layout)?
            }
        })
    }

    /// Open an existing pool file (written by either backend) through
    /// this backend's store.
    pub fn open(self, path: &Path, profile: DeviceProfile) -> Result<Arc<dyn PoolDevice>> {
        Ok(match self {
            PoolBackend::File => FileDevice::open(path, profile)?,
            PoolBackend::Mmap => MmapDevice::open(path, profile)?,
        })
    }
}

impl EngineBuilder {
    pub(super) fn new(comp: Arc<Compressed>) -> EngineBuilder {
        EngineBuilder {
            comp,
            cfg: EngineConfig::ntadoc(),
            profile: ProfileChoice::Given(DeviceProfile::nvm_optane()),
            label: None,
            retry: RetryPolicy::Fail,
            pool_backend: PoolBackend::default(),
            pool_layout: PoolLayoutConfig::default(),
        }
    }

    /// Device profile to simulate. Defaults to Optane NVM.
    pub fn profile(mut self, profile: DeviceProfile) -> Self {
        self.profile = ProfileChoice::Given(profile);
        self
    }

    /// Durable backend [`Engine::open_pool`] attaches: write-through file
    /// I/O (default) or a memory-mapped pool file. Pool files written by
    /// either reopen under the other.
    pub fn pool_backend(mut self, backend: PoolBackend) -> Self {
        self.pool_backend = backend;
        self
    }

    /// DAG-pool layout: fixed-width or varint ids. Defaults to
    /// [`PoolLayoutConfig::Fixed`]. Both layouts produce byte-identical
    /// task outputs; they differ only in pool bytes and distinct media
    /// lines touched.
    /// The choice is sealed into durable pool headers, so a reopened pool
    /// is decoded with the layout it was written with, whatever the
    /// reopening engine was configured for.
    pub fn pool_layout(mut self, layout: PoolLayoutConfig) -> Self {
        self.pool_layout = layout;
        self
    }

    /// Engine configuration. Defaults to [`EngineConfig::ntadoc`].
    pub fn config(mut self, cfg: EngineConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Display label for reports. Defaults per device kind and config
    /// ("N-TADOC", "naive-NVM", "TADOC-DRAM", "N-TADOC-SSD", "N-TADOC-HDD").
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Media-error retry policy honoured by [`Engine::run`].
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// SSD profile with the paper's memory budget (page cache capped at
    /// 20% of the uncompressed dataset size).
    pub fn ssd(mut self) -> Self {
        self.profile = ProfileChoice::Block { hdd: false };
        self
    }

    /// HDD profile with the paper's memory budget.
    pub fn hdd(mut self) -> Self {
        self.profile = ProfileChoice::Block { hdd: true };
        self
    }

    /// Finish construction. Fails on an empty corpus.
    pub fn build(self) -> Result<Engine> {
        let EngineBuilder { comp, cfg, profile, label, retry, pool_backend, pool_layout } = self;
        if comp.file_names.is_empty() {
            return Err(PmemError::Unsupported(
                "engines need a corpus with at least one file".into(),
            ));
        }
        let profile = match profile {
            ProfileChoice::Given(profile) => profile,
            ProfileChoice::Block { hdd } => {
                let budget = (Engine::uncompressed_bytes(&comp) / 5).max(1 << 20) as usize;
                if hdd {
                    DeviceProfile::hdd_sas(budget)
                } else {
                    DeviceProfile::ssd_optane(budget)
                }
            }
        };
        let label = label.unwrap_or_else(|| {
            match profile.kind {
                DeviceKind::Dram => "TADOC-DRAM",
                DeviceKind::Nvm => {
                    if cfg.pruned {
                        "N-TADOC"
                    } else {
                        "naive-NVM"
                    }
                }
                DeviceKind::Ssd => "N-TADOC-SSD",
                DeviceKind::Hdd => "N-TADOC-HDD",
            }
            .to_string()
        });
        Ok(Engine {
            derived: Derived::of(&comp),
            comp,
            cfg,
            profile,
            label,
            retry,
            append_log: Vec::new(),
            pool_backend,
            pool_layout,
            last_report: None,
        })
    }
}
