//! The transaction manager: the public face of the crate.
//!
//! [`DatasetStore`] serializes every mutation through one lock and runs the
//! four-step transaction described in the crate docs: frame a WAL record,
//! `fsync`, apply to the in-memory catalog, and checkpoint once the log
//! outgrows the catalog by its threshold. Reads never touch disk — the
//! catalog lives in memory after open, which is the right trade for a
//! service whose working set is the catalog itself.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::catalog::{self, Entry};
use crate::codec::{Reader, Writer};
use crate::wal::Wal;
use crate::StoreError;

const OP_REGISTER: u8 = 1;
const OP_RELEASE: u8 = 2;
const OP_DELETE: u8 = 3;

/// Tuning knobs for [`DatasetStore::open_with`].
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Checkpoint (rewrite the catalog, truncate the WAL) once the log
    /// exceeds the live catalog — the payload and release bytes of every
    /// registered dataset — by more than this many bytes. A checkpoint
    /// writes the live bytes, and the log must grow past them before the
    /// next one, so each logged byte is rewritten O(1) times however large
    /// the catalog, and replay reads at most the catalog's size plus this.
    /// A registration alone never checkpoints (its payload is live); a
    /// delete that leaves the log mostly dead does. Zero checkpoints after
    /// every transaction; `u64::MAX` never checkpoints on its own.
    pub checkpoint_bytes: u64,
}

impl Default for StoreOptions {
    fn default() -> Self {
        // Datasets dominate WAL volume; 1 MiB of dead log keeps replay
        // short without checkpointing on every release append.
        Self {
            checkpoint_bytes: 1 << 20,
        }
    }
}

/// Counters exposed through the service `/stats` endpoint.
#[derive(Debug, Default, Clone, Copy)]
pub struct StoreStats {
    /// Datasets currently in the catalog.
    pub datasets: u64,
    /// Release records across all datasets.
    pub releases: u64,
    /// Records currently sitting in the WAL (drops to zero at checkpoint).
    pub wal_records: u64,
    /// Bytes currently in the WAL.
    pub wal_bytes: u64,
    /// Checkpoints taken since open.
    pub checkpoints: u64,
    /// WAL records replayed (and applied) during open.
    pub replayed_records: u64,
    /// Torn-tail bytes truncated during open.
    pub truncated_bytes: u64,
    /// WAL appends since open — unlike `wal_records`, never zeroed by a
    /// checkpoint, so it is safe to mirror into a monotone counter.
    pub wal_appends: u64,
    /// Cumulative WAL append wall time (frame write) in microseconds.
    pub wal_append_micros: u64,
    /// Cumulative WAL `sync_data` wall time in microseconds.
    pub wal_fsync_micros: u64,
    /// Cumulative wall time spent writing checkpoints, in microseconds.
    pub checkpoint_micros: u64,
}

/// One dataset read back from the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredDataset {
    /// The `dataset_fingerprint` key.
    pub fingerprint: u64,
    /// The opaque payload given to [`DatasetStore::register`].
    pub payload: Vec<u8>,
    /// Release records in append order.
    pub releases: Vec<Vec<u8>>,
}

/// One decoded WAL operation, borrowing its bytes from the caller or from
/// the record being replayed.
enum Op<'a> {
    Register { fp: u64, payload: &'a [u8] },
    Release { fp: u64, record: &'a [u8] },
    Delete { fp: u64 },
}

impl<'a> Op<'a> {
    /// The record's head — `[seq][opcode][fingerprint]`, then the body's
    /// length prefix if it has a body — and the body. Their concatenation
    /// is the record [`decode`](Self::decode) reads.
    fn encode(&self, seq: u64) -> (Vec<u8>, &'a [u8]) {
        let (opcode, fp, body) = match *self {
            Op::Register { fp, payload } => (OP_REGISTER, fp, Some(payload)),
            Op::Release { fp, record } => (OP_RELEASE, fp, Some(record)),
            Op::Delete { fp } => (OP_DELETE, fp, None),
        };
        let mut head = Writer::new();
        head.u64(seq);
        head.u8(opcode);
        head.u64(fp);
        if let Some(body) = body {
            head.u64(body.len() as u64);
        }
        (head.into_vec(), body.unwrap_or_default())
    }

    /// Reads one WAL record: its sequence number and operation.
    fn decode(record: &'a [u8]) -> Result<(u64, Self), StoreError> {
        if record.len() < 9 {
            return Err(StoreError::Corrupt(format!(
                "WAL record of {} bytes is shorter than its header",
                record.len()
            )));
        }
        let seq = u64::from_le_bytes(record[..8].try_into().expect("eight bytes"));
        let mut r = Reader::new(&record[9..]);
        let fp = r.u64("record fingerprint")?;
        let op = match record[8] {
            OP_REGISTER => Op::Register {
                fp,
                payload: r.bytes("register payload")?,
            },
            OP_RELEASE => Op::Release {
                fp,
                record: r.bytes("release record")?,
            },
            OP_DELETE => Op::Delete { fp },
            other => {
                return Err(StoreError::Corrupt(format!("unknown WAL opcode {other}")));
            }
        };
        if !r.done() {
            return Err(StoreError::Corrupt("WAL record has trailing bytes".into()));
        }
        Ok((seq, op))
    }
}

/// The in-memory catalog plus its live byte count (payload and release
/// bytes over every entry), kept current op by op for the checkpoint
/// trigger.
struct Live {
    entries: BTreeMap<u64, Entry>,
    bytes: u64,
}

impl Live {
    fn new(entries: BTreeMap<u64, Entry>) -> Self {
        let bytes = entries.values().map(Entry::live_bytes).sum();
        Self { entries, bytes }
    }

    /// Applies one operation. Used both by live commits and by replay, so
    /// the two can never diverge.
    fn apply(&mut self, op: Op<'_>) {
        match op {
            Op::Register { fp, payload } => {
                // Replay after a first-writer-wins race can only re-insert
                // the same bytes; last write is as correct as first.
                let entry = Entry {
                    payload: payload.to_vec(),
                    releases: Vec::new(),
                };
                self.bytes += entry.live_bytes();
                if let Some(old) = self.entries.insert(fp, entry) {
                    self.bytes -= old.live_bytes();
                }
            }
            Op::Release { fp, record } => {
                // Lenient on a release whose dataset was deleted later in
                // the log: the delete will drop it anyway, and strictness
                // here would make replay order-fragile.
                self.entries
                    .entry(fp)
                    .or_insert_with(|| Entry {
                        payload: Vec::new(),
                        releases: Vec::new(),
                    })
                    .releases
                    .push(record.to_vec());
                self.bytes += record.len() as u64;
            }
            Op::Delete { fp } => {
                if let Some(old) = self.entries.remove(&fp) {
                    self.bytes -= old.live_bytes();
                }
            }
        }
    }
}

struct Inner {
    live: Live,
    wal: Wal,
    /// Highest sequence number reflected in the on-disk catalog file.
    applied_seq: u64,
    /// Sequence number the next transaction will use.
    next_seq: u64,
    checkpoints: u64,
    checkpoint_micros: u64,
    replayed_records: u64,
    truncated_bytes: u64,
}

/// An embedded, crash-safe map from dataset fingerprints to payload bytes
/// plus append-only release histories. All methods are `&self`; internal
/// locking serializes writers, and `Ok` from a mutation means the change is
/// durable.
pub struct DatasetStore {
    dir: PathBuf,
    options: StoreOptions,
    inner: Mutex<Inner>,
}

impl DatasetStore {
    /// Opens the store rooted at `dir` with default options, creating the
    /// directory if needed and replaying any existing state.
    pub fn open(dir: &Path) -> Result<Self, StoreError> {
        Self::open_with(dir, StoreOptions::default())
    }

    /// [`DatasetStore::open`] with explicit tuning. The WAL is replayed
    /// one record at a time, so opening holds the catalog plus one record.
    pub fn open_with(dir: &Path, options: StoreOptions) -> Result<Self, StoreError> {
        fs::create_dir_all(dir)?;
        let snapshot = catalog::load(dir)?;
        let applied_seq = snapshot.applied_seq;
        let mut live = Live::new(snapshot.entries);
        let mut next_seq = applied_seq + 1;
        let mut replayed = 0u64;
        let (wal, report) = Wal::open(&dir.join("wal"), |record| {
            let (seq, op) = Op::decode(record)?;
            if seq <= applied_seq {
                // The catalog checkpoint already contains this record; the
                // process crashed between the rename and the WAL truncate.
                return Ok(());
            }
            if seq != next_seq {
                return Err(StoreError::Corrupt(format!(
                    "WAL sequence gap: expected {next_seq}, found {seq}"
                )));
            }
            live.apply(op);
            next_seq = seq + 1;
            replayed += 1;
            Ok(())
        })?;

        Ok(Self {
            dir: dir.to_path_buf(),
            options,
            inner: Mutex::new(Inner {
                live,
                wal,
                applied_seq,
                next_seq,
                checkpoints: 0,
                checkpoint_micros: 0,
                replayed_records: replayed,
                truncated_bytes: report.truncated_bytes,
            }),
        })
    }

    /// Directory the store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Reads one dataset, or `None` if the fingerprint is not registered.
    pub fn get(&self, fingerprint: u64) -> Option<StoredDataset> {
        let inner = self.inner.lock().expect("store lock");
        inner.live.entries.get(&fingerprint).map(|e| StoredDataset {
            fingerprint,
            payload: e.payload.clone(),
            releases: e.releases.clone(),
        })
    }

    /// Fingerprints currently in the catalog, ascending.
    pub fn fingerprints(&self) -> Vec<u64> {
        let inner = self.inner.lock().expect("store lock");
        inner.live.entries.keys().copied().collect()
    }

    /// Registers `payload` under `fingerprint`. First writer wins: returns
    /// `Ok(true)` when the dataset was created, `Ok(false)` when the
    /// fingerprint already exists (nothing is written in that case).
    pub fn register(&self, fingerprint: u64, payload: &[u8]) -> Result<bool, StoreError> {
        let mut inner = self.inner.lock().expect("store lock");
        if inner.live.entries.contains_key(&fingerprint) {
            return Ok(false);
        }
        self.commit(
            &mut inner,
            Op::Register {
                fp: fingerprint,
                payload,
            },
        )?;
        Ok(true)
    }

    /// Appends one release record to `fingerprint`'s history and returns
    /// the new history length.
    pub fn append_release(&self, fingerprint: u64, record: &[u8]) -> Result<usize, StoreError> {
        let mut inner = self.inner.lock().expect("store lock");
        if !inner.live.entries.contains_key(&fingerprint) {
            return Err(StoreError::UnknownDataset(fingerprint));
        }
        self.commit(
            &mut inner,
            Op::Release {
                fp: fingerprint,
                record,
            },
        )?;
        Ok(inner.live.entries[&fingerprint].releases.len())
    }

    /// Removes `fingerprint` and its history. Returns whether it existed.
    pub fn delete(&self, fingerprint: u64) -> Result<bool, StoreError> {
        let mut inner = self.inner.lock().expect("store lock");
        if !inner.live.entries.contains_key(&fingerprint) {
            return Ok(false);
        }
        self.commit(&mut inner, Op::Delete { fp: fingerprint })?;
        Ok(true)
    }

    /// Forces a checkpoint now, regardless of WAL size.
    pub fn checkpoint(&self) -> Result<(), StoreError> {
        let mut inner = self.inner.lock().expect("store lock");
        self.checkpoint_locked(&mut inner)
    }

    /// Current counters.
    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.lock().expect("store lock");
        StoreStats {
            datasets: inner.live.entries.len() as u64,
            releases: inner
                .live
                .entries
                .values()
                .map(|e| e.releases.len() as u64)
                .sum(),
            wal_records: inner.wal.records,
            wal_bytes: inner.wal.bytes,
            checkpoints: inner.checkpoints,
            replayed_records: inner.replayed_records,
            truncated_bytes: inner.truncated_bytes,
            wal_appends: inner.wal.appends,
            wal_append_micros: inner.wal.append_micros,
            wal_fsync_micros: inner.wal.fsync_micros,
            checkpoint_micros: inner.checkpoint_micros,
        }
    }

    /// The four-step transaction: frame → fsync append → apply → maybe
    /// checkpoint. The sequence number is only advanced after the append
    /// succeeds, so a failed write leaves no state change at all.
    fn commit(&self, inner: &mut Inner, op: Op<'_>) -> Result<(), StoreError> {
        let seq = inner.next_seq;
        let (head, body) = op.encode(seq);
        inner.wal.append(&head, body)?;
        inner.live.apply(op);
        inner.next_seq = seq + 1;
        let threshold = self.options.checkpoint_bytes;
        if threshold == 0 || inner.wal.bytes > threshold.saturating_add(inner.live.bytes) {
            self.checkpoint_locked(inner)?;
        }
        Ok(())
    }

    fn checkpoint_locked(&self, inner: &mut Inner) -> Result<(), StoreError> {
        let started = std::time::Instant::now();
        let through = inner.next_seq - 1;
        catalog::write(&self.dir, through, &inner.live.entries)?;
        // The catalog now covers everything in the log; a crash before this
        // truncate is harmless because replay skips seq <= applied_seq.
        inner.wal.reset()?;
        inner.applied_seq = through;
        inner.checkpoints += 1;
        inner.checkpoint_micros += started.elapsed().as_micros() as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wcbk-store-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn register_release_delete_survive_reopen() {
        let dir = tmp("basic");
        {
            let store = DatasetStore::open(&dir).unwrap();
            assert!(store.register(7, b"dataset-seven").unwrap());
            assert!(!store.register(7, b"other-bytes").unwrap());
            assert_eq!(store.append_release(7, b"node-a").unwrap(), 1);
            assert_eq!(store.append_release(7, b"node-b").unwrap(), 2);
            assert!(store.register(9, b"dataset-nine").unwrap());
            assert!(store.delete(9).unwrap());
            assert!(!store.delete(9).unwrap());
        }
        let store = DatasetStore::open(&dir).unwrap();
        let d = store.get(7).unwrap();
        assert_eq!(d.payload, b"dataset-seven");
        assert_eq!(d.releases, vec![b"node-a".to_vec(), b"node-b".to_vec()]);
        assert!(store.get(9).is_none());
        assert_eq!(store.fingerprints(), vec![7]);
        // Five durable ops: the duplicate register and second delete were
        // no-ops that never reached the WAL.
        assert_eq!(store.stats().replayed_records, 5);
    }

    #[test]
    fn release_to_unknown_fingerprint_is_rejected() {
        let dir = tmp("unknown");
        let store = DatasetStore::open(&dir).unwrap();
        assert!(matches!(
            store.append_release(5, b"x"),
            Err(StoreError::UnknownDataset(5))
        ));
    }

    #[test]
    fn checkpoint_truncates_wal_and_state_survives() {
        let dir = tmp("ckpt");
        {
            let store = DatasetStore::open_with(
                &dir,
                StoreOptions {
                    checkpoint_bytes: 0,
                },
            )
            .unwrap();
            store.register(1, b"one").unwrap();
            store.append_release(1, b"r").unwrap();
            let s = store.stats();
            assert_eq!(s.checkpoints, 2);
            assert_eq!(s.wal_records, 0);
            assert_eq!(s.wal_bytes, 0);
        }
        let store = DatasetStore::open(&dir).unwrap();
        let s = store.stats();
        // Everything came from the catalog file, not WAL replay.
        assert_eq!(s.replayed_records, 0);
        assert_eq!(store.get(1).unwrap().releases, vec![b"r".to_vec()]);
    }

    #[test]
    fn stale_wal_after_checkpoint_rename_is_skipped() {
        // Simulate a crash between catalog rename and WAL truncate: take a
        // checkpoint, then restore the pre-checkpoint WAL bytes.
        let dir = tmp("stale-wal");
        let wal_before;
        {
            let store = DatasetStore::open(&dir).unwrap();
            store.register(3, b"three").unwrap();
            store.append_release(3, b"r0").unwrap();
            wal_before = fs::read(dir.join("wal")).unwrap();
            store.checkpoint().unwrap();
        }
        fs::write(dir.join("wal"), &wal_before).unwrap();
        let store = DatasetStore::open(&dir).unwrap();
        // Replay saw the records but skipped them as stale.
        assert_eq!(store.stats().replayed_records, 0);
        let d = store.get(3).unwrap();
        assert_eq!(d.payload, b"three");
        assert_eq!(d.releases, vec![b"r0".to_vec()]);
        // The store remains writable at the right sequence.
        store.append_release(3, b"r1").unwrap();
        drop(store);
        let store = DatasetStore::open(&dir).unwrap();
        assert_eq!(store.get(3).unwrap().releases.len(), 2);
    }

    fn options(checkpoint_bytes: u64) -> StoreOptions {
        StoreOptions { checkpoint_bytes }
    }

    /// A registration's payload is live catalog data, so logging it is no
    /// reason to rewrite the catalog: it stays in the WAL, however far past
    /// the threshold it is.
    #[test]
    fn lone_registration_stays_in_the_wal() {
        let dir = tmp("lone");
        let store = DatasetStore::open_with(&dir, options(64)).unwrap();
        store.register(1, &[0u8; 256]).unwrap();
        let s = store.stats();
        assert_eq!(s.checkpoints, 0);
        assert_eq!(s.wal_records, 1);
        assert_eq!(s.wal_bytes, 12 + 9 + 8 + 8 + 256);
        assert!(!dir.join("catalog").exists(), "catalog rewritten");
    }

    /// Deleting it leaves the log all dead bytes: past the threshold, so
    /// the delete checkpoints and the WAL drops to empty.
    #[test]
    fn register_then_delete_checkpoints() {
        let dir = tmp("delete");
        let store = DatasetStore::open_with(&dir, options(64)).unwrap();
        store.register(1, &[0u8; 256]).unwrap();
        store.delete(1).unwrap();
        let s = store.stats();
        assert_eq!(s.checkpoints, 1);
        assert_eq!(s.wal_records, 0);
        assert_eq!(s.wal_bytes, 0);
        assert_eq!(fs::metadata(dir.join("wal")).unwrap().len(), 0);
        drop(store);
        let store = DatasetStore::open_with(&dir, options(64)).unwrap();
        assert!(store.fingerprints().is_empty());
        assert_eq!(store.stats().replayed_records, 0);
    }

    /// A record committed after a checkpoint survives a reopen: the reset
    /// log is appended from its start.
    #[test]
    fn commits_after_a_checkpoint_survive_reopen() {
        let dir = tmp("after-ckpt");
        {
            let store = DatasetStore::open(&dir).unwrap();
            store.register(1, b"one").unwrap();
            store.checkpoint().unwrap();
            store.append_release(1, b"r0").unwrap();
            store.register(2, b"two").unwrap();
        }
        let store = DatasetStore::open(&dir).unwrap();
        assert_eq!(store.stats().truncated_bytes, 0);
        assert_eq!(store.stats().replayed_records, 2);
        assert_eq!(store.get(1).unwrap().releases, vec![b"r0".to_vec()]);
        assert_eq!(store.get(2).unwrap().payload, b"two");
    }

    fn assert_live_bytes_recount(store: &DatasetStore, when: &str) {
        let inner = store.inner.lock().unwrap();
        let recount: u64 = inner
            .live
            .entries
            .values()
            .map(|e| {
                e.payload.len() as u64 + e.releases.iter().map(|r| r.len() as u64).sum::<u64>()
            })
            .sum();
        assert_eq!(inner.live.bytes, recount, "{when}");
    }

    /// The incrementally kept live byte count equals a recount of the
    /// entries after every op kind — including a release to a dataset
    /// deleted later in the log — and after replay, from the WAL alone or
    /// from a catalog plus WAL.
    #[test]
    fn live_bytes_match_a_recount() {
        let dir = tmp("live");
        {
            let store = DatasetStore::open_with(&dir, options(u64::MAX)).unwrap();
            assert_live_bytes_recount(&store, "empty");
            store.register(1, b"payload-one").unwrap();
            assert_live_bytes_recount(&store, "register");
            store.append_release(1, b"rel").unwrap();
            assert_live_bytes_recount(&store, "release");
            store.register(2, &[7; 300]).unwrap();
            store.append_release(2, b"r").unwrap();
            store.delete(2).unwrap();
            assert_live_bytes_recount(&store, "delete");
            assert!(!store.register(1, b"ignored").unwrap());
            assert_live_bytes_recount(&store, "duplicate register");
        }
        let store = DatasetStore::open_with(&dir, options(u64::MAX)).unwrap();
        assert_eq!(store.stats().replayed_records, 5);
        assert_live_bytes_recount(&store, "replay");
        store.checkpoint().unwrap();
        store.append_release(1, b"after").unwrap();
        store.register(3, b"three").unwrap();
        drop(store);
        let store = DatasetStore::open_with(&dir, options(u64::MAX)).unwrap();
        assert_eq!(store.stats().replayed_records, 2);
        assert_live_bytes_recount(&store, "catalog plus replay");

        // A release replayed for a dataset the log deletes later.
        let mut live = Live::new(BTreeMap::new());
        live.apply(Op::Release {
            fp: 9,
            record: b"orphan",
        });
        assert_eq!(live.bytes, 6);
        live.apply(Op::Delete { fp: 9 });
        assert_eq!(live.bytes, 0);
    }
}
