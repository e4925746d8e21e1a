//! Page-based catalog checkpoint file.
//!
//! The catalog is the full store state serialized at one instant: a header
//! page followed by one entry per dataset, each starting on a 4096-byte
//! page boundary. The header records the WAL sequence number the snapshot
//! is current through (`applied_seq`), which is what makes replay
//! idempotent — a crash between the checkpoint rename and the WAL truncate
//! re-reads old records, and the sequence check skips them.
//!
//! The file is only ever replaced atomically: write `catalog.tmp`, `fsync`
//! it, rename over `catalog`, `fsync` the directory. Readers therefore see
//! either the old snapshot or the new one, never a mixture; a stale
//! `catalog.tmp` just means a checkpoint died and is removed on open.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::Path;

use crate::codec::{fnv64, Reader, Writer};
use crate::StoreError;

const PAGE: usize = 4096;
const HEADER_MAGIC: &[u8; 8] = b"WCBKCAT1";
const ENTRY_MAGIC: &[u8; 8] = b"WCBKENT1";
const VERSION: u32 = 1;

/// One dataset's persisted state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Opaque registration payload (the caller's encoded dataset).
    pub payload: Vec<u8>,
    /// Append-only release records, in release order.
    pub releases: Vec<Vec<u8>>,
}

impl Entry {
    /// Payload plus release bytes: what a checkpoint rewrites for this entry.
    pub fn live_bytes(&self) -> u64 {
        let releases: usize = self.releases.iter().map(Vec::len).sum();
        (self.payload.len() + releases) as u64
    }
}

/// A decoded snapshot: the entry map plus the WAL sequence number it is
/// current through.
pub struct Snapshot {
    pub applied_seq: u64,
    pub entries: BTreeMap<u64, Entry>,
}

fn pad_to_page(buf: &mut Vec<u8>) {
    let rem = buf.len() % PAGE;
    if rem != 0 {
        buf.resize(buf.len() + (PAGE - rem), 0);
    }
}

/// Serializes a snapshot into the page-based on-disk image.
fn encode(applied_seq: u64, entries: &BTreeMap<u64, Entry>) -> Vec<u8> {
    let mut header = Writer::new();
    header.u32(VERSION);
    header.u64(applied_seq);
    header.u64(entries.len() as u64);
    let header_body = header.into_vec();

    let mut buf = Vec::with_capacity(PAGE * (1 + entries.len()));
    buf.extend_from_slice(HEADER_MAGIC);
    buf.extend_from_slice(&fnv64(&header_body).to_le_bytes());
    buf.extend_from_slice(&header_body);
    pad_to_page(&mut buf);

    for (&fp, entry) in entries {
        let mut body = Writer::new();
        body.u64(fp);
        body.bytes(&entry.payload);
        body.u64(entry.releases.len() as u64);
        for rec in &entry.releases {
            body.bytes(rec);
        }
        let body = body.into_vec();
        buf.extend_from_slice(ENTRY_MAGIC);
        buf.extend_from_slice(&fnv64(&body).to_le_bytes());
        buf.extend_from_slice(&(body.len() as u64).to_le_bytes());
        buf.extend_from_slice(&body);
        pad_to_page(&mut buf);
    }
    buf
}

fn decode(raw: &[u8]) -> Result<Snapshot, StoreError> {
    if raw.len() < PAGE {
        return Err(StoreError::Corrupt(format!(
            "catalog file is {} bytes, smaller than one page",
            raw.len()
        )));
    }
    if &raw[..8] != HEADER_MAGIC {
        return Err(StoreError::Corrupt("catalog header magic mismatch".into()));
    }
    let header_crc = u64::from_le_bytes(raw[8..16].try_into().unwrap());
    // Header body is version + applied_seq + entry_count = 20 bytes.
    let header_body = &raw[16..16 + 20];
    if fnv64(header_body) != header_crc {
        return Err(StoreError::Corrupt(
            "catalog header checksum mismatch".into(),
        ));
    }
    let mut r = Reader::new(header_body);
    let version = r.u32("catalog version")?;
    if version != VERSION {
        return Err(StoreError::Corrupt(format!(
            "catalog version {version} is not supported (expected {VERSION})"
        )));
    }
    let applied_seq = r.u64("applied_seq")?;
    let entry_count = r.u64("entry_count")?;

    let mut entries = BTreeMap::new();
    let mut offset = PAGE;
    for i in 0..entry_count {
        if offset + 24 > raw.len() {
            return Err(StoreError::Corrupt(format!(
                "catalog entry {i} starts past end of file"
            )));
        }
        if &raw[offset..offset + 8] != ENTRY_MAGIC {
            return Err(StoreError::Corrupt(format!(
                "catalog entry {i} magic mismatch"
            )));
        }
        let crc = u64::from_le_bytes(raw[offset + 8..offset + 16].try_into().unwrap());
        let body_len = u64::from_le_bytes(raw[offset + 16..offset + 24].try_into().unwrap());
        let body_len = usize::try_from(body_len)
            .ok()
            .filter(|&l| offset + 24 + l <= raw.len())
            .ok_or_else(|| {
                StoreError::Corrupt(format!("catalog entry {i} declares an impossible length"))
            })?;
        let body = &raw[offset + 24..offset + 24 + body_len];
        if fnv64(body) != crc {
            return Err(StoreError::Corrupt(format!(
                "catalog entry {i} checksum mismatch"
            )));
        }
        let mut r = Reader::new(body);
        let fp = r.u64("entry fingerprint")?;
        let payload = r.bytes("entry payload")?.to_vec();
        let n_releases = r.u64("release count")?;
        let mut releases = Vec::new();
        for j in 0..n_releases {
            releases.push(r.bytes(&format!("release record {j}"))?.to_vec());
        }
        if !r.done() {
            return Err(StoreError::Corrupt(format!(
                "catalog entry {i} has trailing bytes"
            )));
        }
        entries.insert(fp, Entry { payload, releases });
        // Next entry begins on the next page boundary.
        let consumed = 24 + body_len;
        offset += consumed.div_ceil(PAGE) * PAGE;
    }
    Ok(Snapshot {
        applied_seq,
        entries,
    })
}

/// Loads the catalog at `dir/catalog`, returning an empty snapshot when the
/// file does not exist yet. A stale `catalog.tmp` from a crashed checkpoint
/// is removed.
pub fn load(dir: &Path) -> Result<Snapshot, StoreError> {
    let tmp = dir.join("catalog.tmp");
    if tmp.exists() {
        fs::remove_file(&tmp)?;
    }
    let path = dir.join("catalog");
    let raw = match fs::read(&path) {
        Ok(raw) => raw,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(Snapshot {
                applied_seq: 0,
                entries: BTreeMap::new(),
            })
        }
        Err(e) => return Err(e.into()),
    };
    decode(&raw)
}

/// Atomically replaces `dir/catalog` with a snapshot of `entries` current
/// through `applied_seq`.
pub fn write(
    dir: &Path,
    applied_seq: u64,
    entries: &BTreeMap<u64, Entry>,
) -> Result<(), StoreError> {
    let image = encode(applied_seq, entries);
    let tmp = dir.join("catalog.tmp");
    let path = dir.join("catalog");
    {
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        f.write_all(&image)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, &path)?;
    sync_dir(dir)?;
    Ok(())
}

/// `fsync` on the directory so the rename itself is durable. Directories
/// cannot be fsynced on every platform; failures there are ignored the way
/// sqlite and friends do.
fn sync_dir(dir: &Path) -> Result<(), StoreError> {
    match File::open(dir) {
        Ok(f) => {
            let _ = f.sync_all();
            Ok(())
        }
        Err(e) => Err(e.into()),
    }
}

/// Reads the raw catalog bytes; test helper for corruption checks.
#[cfg(test)]
pub fn read_raw(dir: &Path) -> std::io::Result<Vec<u8>> {
    fs::read(dir.join("catalog"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("wcbk-cat-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample() -> BTreeMap<u64, Entry> {
        let mut m = BTreeMap::new();
        m.insert(
            0xdead_beef,
            Entry {
                payload: vec![1; 5000], // spans multiple pages
                releases: vec![b"r0".to_vec(), b"r1".to_vec()],
            },
        );
        m.insert(
            42,
            Entry {
                payload: b"tiny".to_vec(),
                releases: Vec::new(),
            },
        );
        m
    }

    #[test]
    fn round_trips_and_pages_align() {
        let dir = tmp("round");
        let entries = sample();
        write(&dir, 17, &entries).unwrap();
        let snap = load(&dir).unwrap();
        assert_eq!(snap.applied_seq, 17);
        assert_eq!(snap.entries, entries);
        let raw = read_raw(&dir).unwrap();
        assert_eq!(raw.len() % PAGE, 0);
    }

    #[test]
    fn missing_file_is_empty_snapshot() {
        let dir = tmp("empty");
        let snap = load(&dir).unwrap();
        assert_eq!(snap.applied_seq, 0);
        assert!(snap.entries.is_empty());
    }

    #[test]
    fn stale_tmp_is_removed() {
        let dir = tmp("stale");
        write(&dir, 3, &sample()).unwrap();
        fs::write(dir.join("catalog.tmp"), b"half a checkpoint").unwrap();
        let snap = load(&dir).unwrap();
        assert_eq!(snap.applied_seq, 3);
        assert!(!dir.join("catalog.tmp").exists());
    }

    #[test]
    fn bit_flips_are_detected() {
        let dir = tmp("flip");
        write(&dir, 9, &sample()).unwrap();
        let clean = read_raw(&dir).unwrap();
        // Flip a byte in the header body and in the first entry body.
        for idx in [20, PAGE + 40] {
            let mut raw = clean.clone();
            raw[idx] ^= 0x80;
            fs::write(dir.join("catalog"), &raw).unwrap();
            assert!(load(&dir).is_err(), "flip at byte {idx} not caught");
        }
    }

    #[test]
    fn truncated_catalog_is_an_error_not_a_panic() {
        let dir = tmp("trunc");
        write(&dir, 1, &sample()).unwrap();
        let raw = read_raw(&dir).unwrap();
        // Cuts that remove real data (the last page of `raw` is padding,
        // so raw.len()-1 would still decode — use 2*PAGE+30, inside the
        // second entry's body).
        for cut in [0, 7, PAGE - 1, PAGE + 10, 2 * PAGE + 30] {
            fs::write(dir.join("catalog"), &raw[..cut]).unwrap();
            assert!(load(&dir).is_err(), "cut at {cut} accepted");
        }
    }
}
