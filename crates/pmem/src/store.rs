//! The stable-storage seam under a pool file.
//!
//! A [`StableStore`] is the one thing that differs between the durable
//! backends: how bytes reach the pool file and how they are forced to
//! stable storage. [`PwriteStore`] uses `pwrite` + `fdatasync`;
//! [`MmapStore`] stores into a `MAP_SHARED` mapping and `msync`s — the
//! NVM-style access model the paper assumes (loads and stores against
//! mapped persistent memory, with explicit flush points). Everything
//! above the seam — header, twin, write-through mirror, host-crash model,
//! verification — is written once in [`crate::poolfile`].
//!
//! On platforms without the raw `mmap`/`msync` syscalls (anything but
//! Linux here — the workspace pins no libc crate, so the bindings are
//! local `extern "C"` declarations resolved by the C runtime std already
//! links), or when `mmap` fails, [`MmapStore`] transparently falls back
//! to the pwrite path with identical semantics;
//! [`MmapStore::is_mapped`] reports which path is live.
//!
//! A pool file is sparse. `data_extents` finds the runs of it that hold
//! data with `lseek`'s `SEEK_DATA` and `SEEK_HOLE`, so a reopen reads only
//! those, through the descriptor.

use std::fs::File;
use std::io;
use std::ops::Range;
use std::os::unix::fs::FileExt;

/// Byte access to an open pool file plus the barrier that makes earlier
/// writes survive a host crash. Offsets are file offsets (header
/// included). Implementations are used under the pool file's mutex, so
/// they need no synchronisation of their own.
pub trait StableStore: Send + Sized + 'static {
    /// Take over `file`, whose pool (header + data region) spans `len`
    /// bytes. A store that cannot address bytes past EOF extends a short
    /// file to `len` here; the new tail is sparse and reads as zeros.
    fn attach(file: File, len: u64) -> io::Result<Self>;

    /// Fill `buf` from `offset`; bytes past EOF read as zeros (short or
    /// truncated files behave like sparse holes).
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()>;

    /// Write all of `bytes` at `offset`.
    fn write_at(&mut self, offset: u64, bytes: &[u8]) -> io::Result<()>;

    /// Force everything written so far to stable storage.
    fn sync(&mut self) -> io::Result<()>;
}

/// Fill `buf` from `offset` of `file`, zero-filling past EOF.
pub(crate) fn read_or_zero(file: &File, offset: u64, buf: &mut [u8]) -> io::Result<()> {
    let mut filled = 0;
    while filled < buf.len() {
        match file.read_at(&mut buf[filled..], offset + filled as u64) {
            Ok(0) => {
                buf[filled..].fill(0);
                break;
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// The runs of `range` (file offsets) that may hold data, ascending; the
/// rest of it reads as zeros. Where the file system cannot tell data from
/// holes, the rest of the range is one run.
pub(crate) fn data_extents(
    file: &File,
    range: Range<u64>,
) -> impl Iterator<Item = Range<u64>> + '_ {
    let mut at = range.start;
    std::iter::from_fn(move || {
        if at >= range.end {
            return None;
        }
        let extent = match seek(file, at, false) {
            Ok(None) => None,
            Ok(Some(start)) => {
                let end = seek(file, start, true).ok().flatten().unwrap_or(range.end);
                Some(start..end.min(range.end))
            }
            Err(_) => Some(at..range.end),
        }
        .filter(|extent| extent.start < extent.end);
        at = extent.as_ref().map_or(range.end, |extent| extent.end);
        extent
    })
}

/// `lseek` with `SEEK_HOLE` or `SEEK_DATA`: the first hole or data at or
/// past `offset`, or `None` when no data lies there (`ENXIO`).
#[cfg(target_os = "linux")]
fn seek(file: &File, offset: u64, hole: bool) -> io::Result<Option<u64>> {
    use std::os::unix::io::AsRawFd;
    let offset = i64::try_from(offset).map_err(io::Error::other)?;
    let whence = if hole { sys::SEEK_HOLE } else { sys::SEEK_DATA };
    // SAFETY: a plain syscall on an fd we hold open. It moves only the
    // descriptor's file position, which the positional reads and writes
    // here never use.
    match unsafe { sys::lseek(file.as_raw_fd(), offset, whence) } {
        at if at >= 0 => Ok(Some(at as u64)),
        _ => match io::Error::last_os_error() {
            e if e.raw_os_error() == Some(sys::ENXIO) => Ok(None),
            e => Err(e),
        },
    }
}

#[cfg(not(target_os = "linux"))]
fn seek(_file: &File, _offset: u64, _hole: bool) -> io::Result<Option<u64>> {
    Err(io::ErrorKind::Unsupported.into())
}

/// `pwrite` write-through with `fdatasync` barriers. Leaves a short file
/// short: the missing tail reads as zeros without being materialised.
pub struct PwriteStore(File);

impl StableStore for PwriteStore {
    fn attach(file: File, _len: u64) -> io::Result<Self> {
        Ok(PwriteStore(file))
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        read_or_zero(&self.0, offset, buf)
    }

    fn write_at(&mut self, offset: u64, bytes: &[u8]) -> io::Result<()> {
        self.0.write_all_at(bytes, offset)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }
}

#[cfg(target_os = "linux")]
mod sys {
    use core::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const PROT_WRITE: i32 = 2;
    pub const MAP_SHARED: i32 = 1;
    pub const MS_SYNC: i32 = 4;
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;
    pub const SEEK_DATA: i32 = 3;
    pub const SEEK_HOLE: i32 = 4;
    pub const ENXIO: i32 = 6;

    // Declared locally instead of via a libc crate: std already links the
    // C runtime, so these resolve at link time with no new dependency.
    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
        pub fn msync(addr: *mut c_void, len: usize, flags: i32) -> i32;
        pub fn lseek(fd: i32, offset: i64, whence: i32) -> i64;
    }
}

/// A live `MAP_SHARED` mapping of the whole pool file.
struct MapRegion {
    ptr: *mut u8,
    len: usize,
}

// SAFETY: the mapping is owned by exactly one `MapRegion`, stays valid
// until its `Drop` unmaps it, and is only dereferenced through `&self` /
// `&mut self` of the owning store, which the pool file keeps under a
// mutex — so moving it to another thread moves exclusive access with it.
unsafe impl Send for MapRegion {}

impl MapRegion {
    #[cfg(target_os = "linux")]
    fn new(file: &File, len: usize) -> Option<MapRegion> {
        use std::os::unix::io::AsRawFd;
        // SAFETY: a fresh shared mapping of an fd we hold open, at an
        // address the kernel picks; the result is checked before use.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ | sys::PROT_WRITE,
                sys::MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        (ptr != sys::MAP_FAILED).then(|| MapRegion { ptr: ptr.cast(), len })
    }

    #[cfg(not(target_os = "linux"))]
    fn new(_file: &File, _len: usize) -> Option<MapRegion> {
        None
    }

    /// The mapped address of `[offset, offset + n)`, bounds-checked.
    fn at(&self, offset: u64, n: usize) -> *mut u8 {
        let start = usize::try_from(offset).unwrap_or(usize::MAX);
        let end = start.checked_add(n);
        assert!(end.is_some_and(|end| end <= self.len), "access past the pool mapping");
        // SAFETY: the range was just checked to lie inside the mapping.
        unsafe { self.ptr.add(start) }
    }

    #[cfg(target_os = "linux")]
    fn sync(&self) -> io::Result<()> {
        // SAFETY: `ptr`/`len` describe the live mapping this region owns.
        match unsafe { sys::msync(self.ptr.cast(), self.len, sys::MS_SYNC) } {
            0 => Ok(()),
            _ => Err(io::Error::last_os_error()),
        }
    }

    #[cfg(not(target_os = "linux"))]
    fn sync(&self) -> io::Result<()> {
        unreachable!("no mapping is ever created off Linux")
    }
}

impl Drop for MapRegion {
    fn drop(&mut self) {
        // SAFETY: unmaps exactly the region `new` mapped; nothing can
        // reach `ptr` afterwards. A failure leaks the mapping, no more.
        #[cfg(target_os = "linux")]
        unsafe {
            sys::munmap(self.ptr.cast(), self.len);
        }
    }
}

/// Stores into a shared mapping of the pool file, `msync` barriers; the
/// pwrite path when no mapping could be made.
pub struct MmapStore {
    file: PwriteStore,
    map: Option<MapRegion>,
}

impl MmapStore {
    /// Whether the live path is a real `MAP_SHARED` mapping (true on
    /// Linux unless `mmap` failed) or the pwrite fallback.
    pub fn is_mapped(&self) -> bool {
        self.map.is_some()
    }
}

impl StableStore for MmapStore {
    fn attach(file: File, len: u64) -> io::Result<Self> {
        if file.metadata()?.len() < len {
            // Touching a mapping past EOF faults, so the sparse tail of a
            // truncated file is made explicit — it still reads as zeros.
            file.set_len(len)?;
        }
        let map = usize::try_from(len).ok().and_then(|len| MapRegion::new(&file, len));
        Ok(MmapStore { file: PwriteStore(file), map })
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        match &self.map {
            Some(m) => {
                let src = m.at(offset, buf.len());
                // SAFETY: `src` covers `buf.len()` mapped bytes, and `buf`
                // is ordinary memory that cannot overlap the mapping.
                unsafe { std::ptr::copy_nonoverlapping(src, buf.as_mut_ptr(), buf.len()) };
                Ok(())
            }
            None => self.file.read_at(offset, buf),
        }
    }

    fn write_at(&mut self, offset: u64, bytes: &[u8]) -> io::Result<()> {
        match &self.map {
            Some(m) => {
                let dst = m.at(offset, bytes.len());
                // SAFETY: `dst` covers `bytes.len()` mapped bytes, `bytes`
                // cannot overlap the mapping, and `&mut self` excludes any
                // other access through this store.
                unsafe { std::ptr::copy_nonoverlapping(bytes.as_ptr(), dst, bytes.len()) };
                Ok(())
            }
            None => self.file.write_at(offset, bytes),
        }
    }

    fn sync(&mut self) -> io::Result<()> {
        match &self.map {
            Some(m) => m.sync(),
            None => self.file.sync(),
        }
    }
}
