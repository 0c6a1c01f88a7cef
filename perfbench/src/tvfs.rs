//! A timing [`Vfs`] wrapper: counts what the storage layer writes and
//! how long its fsyncs take, without changing what it does. Each fleet
//! node gets one around [`RealVfs`] via `LocalFleet::spawn_on`, so the
//! full fsync → rename → dir-fsync protocol runs on the real disk.

use lepton_storage::vfs::{RealVfs, Vfs, VfsFile};
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Counters shared by every file a [`TimingVfs`] hands out.
#[derive(Debug, Default)]
pub struct IoCounters {
    /// Bytes written to files.
    pub bytes_written: AtomicU64,
    /// File and directory fsyncs.
    pub fsyncs: AtomicU64,
    /// Wall time inside fsyncs, in nanoseconds.
    pub sync_ns: AtomicU64,
}

/// A point-in-time copy of [`IoCounters`].
#[derive(Clone, Copy, Debug, Default)]
pub struct IoSnapshot {
    /// Bytes written to files.
    pub bytes_written: u64,
    /// File and directory fsyncs.
    pub fsyncs: u64,
    /// Wall time inside fsyncs, in nanoseconds.
    pub sync_ns: u64,
}

impl IoSnapshot {
    /// Field-wise `self - earlier`.
    pub fn since(self, earlier: IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            bytes_written: self.bytes_written - earlier.bytes_written,
            fsyncs: self.fsyncs - earlier.fsyncs,
            sync_ns: self.sync_ns - earlier.sync_ns,
        }
    }

    /// Field-wise sum.
    pub fn plus(self, other: IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            bytes_written: self.bytes_written + other.bytes_written,
            fsyncs: self.fsyncs + other.fsyncs,
            sync_ns: self.sync_ns + other.sync_ns,
        }
    }
}

impl IoCounters {
    /// Read every counter.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            sync_ns: self.sync_ns.load(Ordering::Relaxed),
        }
    }

    fn timed_sync(&self, sync: impl FnOnce() -> io::Result<()>) -> io::Result<()> {
        let t0 = Instant::now();
        let r = sync();
        self.sync_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        r
    }
}

/// [`RealVfs`] with every write and fsync counted.
#[derive(Debug, Default)]
pub struct TimingVfs {
    inner: RealVfs,
    /// The counters this filesystem updates.
    pub counters: Arc<IoCounters>,
}

struct TimingFile {
    inner: Box<dyn VfsFile>,
    counters: Arc<IoCounters>,
}

impl Read for TimingFile {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.inner.read(buf)
    }
}

impl Write for TimingFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.counters
            .bytes_written
            .fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl VfsFile for TimingFile {
    fn sync_all(&mut self) -> io::Result<()> {
        let inner = &mut self.inner;
        self.counters.timed_sync(|| inner.sync_all())
    }

    fn len(&self) -> io::Result<u64> {
        self.inner.len()
    }
}

impl TimingVfs {
    fn wrap(&self, f: Box<dyn VfsFile>) -> Box<dyn VfsFile> {
        Box::new(TimingFile {
            inner: f,
            counters: Arc::clone(&self.counters),
        })
    }
}

impl Vfs for TimingVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(self.wrap(self.inner.create(path)?))
    }

    fn open(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(self.wrap(self.inner.open(path)?))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.counters.timed_sync(|| self.inner.sync_dir(path))
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<String>> {
        self.inner.read_dir(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }
}
