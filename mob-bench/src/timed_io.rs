//! [`TimedIo`]: a [`StoreIo`] wrapper that counts and times every call
//! it forwards — the `storage.io` layer of a traced run.
//!
//! Untraced runs use the inner I/O directly, so the wrapper costs them
//! nothing.

use crate::trace::nanos;
use mob_base::DecodeResult;
use mob_storage::StoreIo;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One counter per quantity [`TimedIo`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoStat {
    /// `write_file` calls.
    Writes,
    /// `append_file` calls.
    Appends,
    /// Bytes passed to `write_file` and `append_file`.
    WriteBytes,
    /// Nanoseconds inside `write_file` and `append_file`.
    WriteNs,
    /// `sync` calls.
    Syncs,
    /// Nanoseconds inside `sync`.
    SyncNs,
    /// `read_file` calls.
    Reads,
    /// Bytes returned by `read_file`.
    ReadBytes,
    /// Nanoseconds inside `read_file`.
    ReadNs,
    /// `rename` calls.
    Renames,
    /// `remove` calls.
    Removes,
    /// `list` calls.
    Lists,
    /// Nanoseconds inside `list`.
    ListNs,
    /// Nanoseconds inside `rename`, `remove` and `exists`.
    OtherNs,
}

const N_STATS: usize = IoStat::OtherNs as usize + 1;

/// Shared, lock-free I/O counters (clone the `Arc` to read them while
/// the store owns the wrapper).
#[derive(Debug, Default)]
pub struct IoStats {
    cells: [AtomicU64; N_STATS],
}

/// A point-in-time copy of [`IoStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoSnapshot([u64; N_STATS]);

impl IoSnapshot {
    /// One counter.
    pub fn get(&self, s: IoStat) -> u64 {
        self.0[s as usize]
    }

    /// Nanoseconds spent in I/O calls of any kind.
    pub fn total_ns(&self) -> u64 {
        [
            IoStat::WriteNs,
            IoStat::SyncNs,
            IoStat::ReadNs,
            IoStat::ListNs,
            IoStat::OtherNs,
        ]
        .iter()
        .map(|&s| self.get(s))
        .sum()
    }

    /// `self - earlier`, per counter.
    pub fn delta(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot(std::array::from_fn(|i| {
            self.0[i].saturating_sub(earlier.0[i])
        }))
    }
}

impl IoStats {
    fn add(&self, s: IoStat, n: u64) {
        // Statistics only: they publish no other data.
        self.cells[s as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Current values.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot(std::array::from_fn(|i| {
            self.cells[i].load(Ordering::Relaxed)
        }))
    }
}

/// Counts and times every [`StoreIo`] call before forwarding it to `I`.
pub struct TimedIo<I> {
    inner: I,
    stats: Arc<IoStats>,
}

impl<I: StoreIo> TimedIo<I> {
    /// Wrap `inner`, recording into `stats`.
    pub fn new(inner: I, stats: Arc<IoStats>) -> TimedIo<I> {
        TimedIo { inner, stats }
    }

    fn timed<R>(&self, ns: IoStat, f: impl FnOnce(&I) -> R) -> R {
        let start = Instant::now();
        let out = f(&self.inner);
        self.stats.add(ns, nanos(start));
        out
    }
}

impl<I: StoreIo> StoreIo for TimedIo<I> {
    fn read_file(&self, name: &str) -> DecodeResult<Vec<u8>> {
        let out = self.timed(IoStat::ReadNs, |io| io.read_file(name));
        self.stats.add(IoStat::Reads, 1);
        if let Ok(bytes) = &out {
            self.stats.add(IoStat::ReadBytes, bytes.len() as u64);
        }
        out
    }

    fn write_file(&self, name: &str, bytes: &[u8]) -> DecodeResult<()> {
        self.stats.add(IoStat::Writes, 1);
        self.stats.add(IoStat::WriteBytes, bytes.len() as u64);
        self.timed(IoStat::WriteNs, |io| io.write_file(name, bytes))
    }

    fn append_file(&self, name: &str, bytes: &[u8]) -> DecodeResult<()> {
        self.stats.add(IoStat::Appends, 1);
        self.stats.add(IoStat::WriteBytes, bytes.len() as u64);
        self.timed(IoStat::WriteNs, |io| io.append_file(name, bytes))
    }

    fn sync(&self, name: &str) -> DecodeResult<()> {
        self.stats.add(IoStat::Syncs, 1);
        self.timed(IoStat::SyncNs, |io| io.sync(name))
    }

    fn rename(&self, from: &str, to: &str) -> DecodeResult<()> {
        self.stats.add(IoStat::Renames, 1);
        self.timed(IoStat::OtherNs, |io| io.rename(from, to))
    }

    fn remove(&self, name: &str) -> DecodeResult<()> {
        self.stats.add(IoStat::Removes, 1);
        self.timed(IoStat::OtherNs, |io| io.remove(name))
    }

    fn exists(&self, name: &str) -> bool {
        self.timed(IoStat::OtherNs, |io| io.exists(name))
    }

    fn list(&self) -> DecodeResult<Vec<String>> {
        self.stats.add(IoStat::Lists, 1);
        self.timed(IoStat::ListNs, StoreIo::list)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mob_base::t;
    use mob_core::MovingPoint;
    use mob_spatial::pt;
    use mob_storage::{DurableStore, MemIo, StoreFile};

    fn timed_store(dir: &MemIo) -> (DurableStore<TimedIo<MemIo>>, Arc<IoStats>) {
        let stats = Arc::new(IoStats::default());
        let io = TimedIo::new(dir.clone(), Arc::clone(&stats));
        (DurableStore::options().open(io).expect("open"), stats)
    }

    fn units(t0: f64) -> Vec<mob_core::UPoint> {
        MovingPoint::from_samples(&[(t(t0), pt(t0, 0.0)), (t(t0 + 1.0), pt(t0, 2.0))])
            .units()
            .to_vec()
    }

    #[test]
    fn delta_commit_is_one_append_and_one_sync_of_the_image() {
        let dir = MemIo::new();
        let (mut store, stats) = timed_store(&dir);
        let before = stats.snapshot();
        let mut txn = store.begin();
        txn.append_units("car", &units(0.0));
        let g = txn.commit().expect("delta commit");
        let d = stats.snapshot().delta(&before);
        let image = dir
            .read_file(&mob_storage::delta_name(g))
            .expect("delta file");
        assert_eq!(d.get(IoStat::Appends), 1);
        assert_eq!(d.get(IoStat::Writes), 0);
        assert_eq!(d.get(IoStat::Syncs), 1);
        assert_eq!(d.get(IoStat::WriteBytes), image.len() as u64);
        assert_eq!(d.get(IoStat::Renames), 0);
        assert_eq!(d.get(IoStat::Reads), 0);
    }

    #[test]
    fn full_commit_is_write_sync_rename() {
        let dir = MemIo::new();
        let (mut store, stats) = timed_store(&dir);
        let before = stats.snapshot();
        let mut txn = store.begin();
        txn.put_store_file(&StoreFile::new()).expect("stage");
        let g = txn.commit().expect("full commit");
        let d = stats.snapshot().delta(&before);
        let image = dir
            .read_file(&mob_storage::durable::snapshot_name(g))
            .expect("snapshot file");
        assert_eq!(d.get(IoStat::Writes), 1);
        assert_eq!(d.get(IoStat::Appends), 0);
        assert_eq!(d.get(IoStat::Syncs), 1);
        assert_eq!(d.get(IoStat::Renames), 1);
        assert_eq!(d.get(IoStat::WriteBytes), image.len() as u64);
    }

    #[test]
    fn reopen_reads_the_snapshot() {
        let dir = MemIo::new();
        {
            let (mut store, _) = timed_store(&dir);
            let mut txn = store.begin();
            txn.put_store_file(&StoreFile::new()).expect("stage");
            txn.commit().expect("full commit");
        }
        let snap_bytes: u64 = dir.dump().iter().map(|(_, b)| b.len() as u64).sum();
        let (store, stats) = timed_store(&dir);
        let d = stats.snapshot();
        assert_eq!(store.generation(), 1);
        assert_eq!(d.get(IoStat::Reads), 1);
        assert_eq!(d.get(IoStat::ReadBytes), snap_bytes);
        assert!(d.get(IoStat::Lists) >= 1);
        assert_eq!(d.get(IoStat::Writes) + d.get(IoStat::Appends), 0);
    }
}
