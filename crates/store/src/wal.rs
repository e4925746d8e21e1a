//! Append-only write-ahead log with length+checksum framing.
//!
//! Each record is framed as `[len: u32 LE][crc: u64 LE][payload: len bytes]`
//! where `crc = fnv64(payload)`. A payload is appended in two parts — a
//! short head, then the body it describes — checksummed incrementally and
//! written as the frame header plus head, then the body, so a dataset body
//! is never copied into a frame. Appends `fsync` before returning, so a
//! record that `append` acknowledged survives any crash. Replay reads
//! frames from the front, one resident at a time, and stops at the first
//! one that is truncated, oversized, or fails its checksum — that is the
//! torn tail a crash mid-append leaves — and truncates the file back to the
//! last good frame so later appends start from a clean boundary.

use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::codec::{fnv64, fnv64_extend};
use crate::StoreError;

/// Frame header size: length (4) + checksum (8).
const HEADER: usize = 12;

/// Upper bound on a single record; a declared length past this is garbage,
/// not a huge record (payloads are dataset blocks, well under this).
const MAX_RECORD: u32 = 1 << 30;

/// What replay found on open.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayReport {
    /// Bytes cut off the tail (0 when the log ended cleanly).
    pub truncated_bytes: u64,
}

/// The open log file plus its running size.
pub struct Wal {
    file: File,
    /// Current file length — every byte of it is a valid frame.
    pub bytes: u64,
    /// Records appended or replayed since open.
    pub records: u64,
    /// Appends performed since open. Unlike `records`, never zeroed by
    /// [`Wal::reset`] — a monotone source for metrics mirroring.
    pub appends: u64,
    /// Cumulative wall time of append frame writes (the `write_all`s), in
    /// microseconds. Never reset.
    pub append_micros: u64,
    /// Cumulative wall time of append `sync_data` calls, in microseconds.
    /// Never reset — fsync latency is the durability cost worth watching.
    pub fsync_micros: u64,
}

impl Wal {
    /// Opens (creating if absent) the log at `path`, hands every valid
    /// frame's payload to `replay` in log order, and truncates any torn
    /// tail. Once `replay` fails, later frames are still checked (so the
    /// tail is truncated exactly as on success) but not replayed, and the
    /// first failure is returned.
    pub fn open(
        path: &Path,
        mut replay: impl FnMut(&[u8]) -> Result<(), StoreError>,
    ) -> Result<(Self, ReplayReport), StoreError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();

        let mut reader = BufReader::new(&file);
        let mut payload = Vec::new();
        let mut failed = None;
        let mut records = 0u64;
        let mut good = 0u64;
        while len - good >= HEADER as u64 {
            let mut header = [0; HEADER];
            reader.read_exact(&mut header)?;
            let size = u32::from_le_bytes(header[..4].try_into().expect("four bytes"));
            let crc = u64::from_le_bytes(header[4..].try_into().expect("eight bytes"));
            if size > MAX_RECORD {
                break;
            }
            let end = good + (HEADER as u64) + u64::from(size);
            if end > len {
                break;
            }
            payload.resize(size as usize, 0);
            reader.read_exact(&mut payload)?;
            if fnv64(&payload) != crc {
                break;
            }
            if failed.is_none() {
                failed = replay(&payload).err();
            }
            records += 1;
            good = end;
        }
        drop(reader);

        let truncated = len - good;
        if truncated > 0 {
            file.set_len(good)?;
            file.sync_data()?;
        }
        // Replay read ahead of the last good frame; appends go right after it.
        file.seek(SeekFrom::Start(good))?;
        if let Some(e) = failed {
            return Err(e);
        }
        let report = ReplayReport {
            truncated_bytes: truncated,
        };
        let wal = Wal {
            file,
            bytes: good,
            records,
            appends: 0,
            append_micros: 0,
            fsync_micros: 0,
        };
        Ok((wal, report))
    }

    /// Appends one framed record whose payload is `head` followed by
    /// `body`, and syncs it to disk. When this returns `Ok`, the record is
    /// durable.
    pub fn append(&mut self, head: &[u8], body: &[u8]) -> Result<(), StoreError> {
        let size = head.len() + body.len();
        let len = u32::try_from(size)
            .ok()
            .filter(|&l| l <= MAX_RECORD)
            .ok_or_else(|| {
                StoreError::Corrupt(format!("record of {size} bytes exceeds the WAL limit"))
            })?;
        let crc = fnv64_extend(fnv64(head), body);
        let mut frame = Vec::with_capacity(HEADER + head.len());
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&crc.to_le_bytes());
        frame.extend_from_slice(head);
        // Everything before this frame is already synced, so a crash
        // between the two writes tears at most this frame.
        let write_started = std::time::Instant::now();
        self.file.write_all(&frame)?;
        self.file.write_all(body)?;
        let sync_started = std::time::Instant::now();
        self.file.sync_data()?;
        self.append_micros += sync_started.duration_since(write_started).as_micros() as u64;
        self.fsync_micros += sync_started.elapsed().as_micros() as u64;
        self.appends += 1;
        self.bytes += (HEADER + size) as u64;
        self.records += 1;
        Ok(())
    }

    /// Empties the log after a checkpoint made its contents redundant.
    pub fn reset(&mut self) -> Result<(), StoreError> {
        self.file.set_len(0)?;
        // Truncation leaves the cursor where it was; an append there would
        // leave a zero-filled hole that replay reads as a torn frame,
        // dropping every record after it.
        self.file.seek(SeekFrom::Start(0))?;
        self.file.sync_data()?;
        self.bytes = 0;
        self.records = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wcbk-wal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal")
    }

    /// Opens the log, collecting the replayed payloads.
    fn open(path: &Path) -> (Wal, Vec<Vec<u8>>, ReplayReport) {
        let mut payloads = Vec::new();
        let (wal, report) = Wal::open(path, |p| {
            payloads.push(p.to_vec());
            Ok(())
        })
        .unwrap();
        (wal, payloads, report)
    }

    #[test]
    fn append_replay_round_trip() {
        let path = tmp("round");
        {
            let (mut wal, payloads, _) = open(&path);
            assert!(payloads.is_empty());
            wal.append(b"one", b"").unwrap();
            wal.append(b"two-", b"longer").unwrap();
            wal.append(b"", b"").unwrap();
        }
        let (wal, payloads, report) = open(&path);
        assert_eq!(
            payloads,
            vec![b"one".to_vec(), b"two-longer".to_vec(), Vec::new()]
        );
        assert_eq!(report.truncated_bytes, 0);
        assert_eq!(wal.records, 3);
    }

    /// A record framed in parts is byte-identical to the same payload
    /// framed whole.
    #[test]
    fn split_appends_frame_like_whole_ones() {
        let (whole, split) = (tmp("whole"), tmp("split"));
        open(&whole).0.append(b"head-and-body", b"").unwrap();
        open(&split).0.append(b"head-", b"and-body").unwrap();
        assert_eq!(
            std::fs::read(&whole).unwrap(),
            std::fs::read(&split).unwrap()
        );
    }

    #[test]
    fn torn_tail_at_every_byte_recovers_prefix() {
        let path = tmp("torn");
        let full = {
            let (mut wal, _, _) = open(&path);
            wal.append(b"alpha", b"").unwrap();
            wal.append(b"beta-", b"record").unwrap();
            wal.append(b"", b"gamma!").unwrap();
            std::fs::read(&path).unwrap()
        };
        // Frame boundaries: after each record the prefix is fully valid.
        let bounds = [0, 12 + 5, 12 + 5 + 12 + 11, full.len()];
        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (_, payloads, report) = open(&path);
            let expect = bounds.iter().filter(|&&b| b <= cut && b > 0).count();
            assert_eq!(payloads.len(), expect, "cut at byte {cut}");
            assert_eq!(
                std::fs::metadata(&path).unwrap().len(),
                bounds[expect] as u64,
                "cut at byte {cut} should truncate to last good frame"
            );
            let at_boundary = bounds.contains(&cut);
            assert_eq!(
                report.truncated_bytes == 0,
                at_boundary,
                "cut at byte {cut}"
            );
        }
    }

    #[test]
    fn garbage_tail_is_dropped_and_log_reusable() {
        let path = tmp("garbage");
        {
            let (mut wal, _, _) = open(&path);
            wal.append(b"kept", b"").unwrap();
        }
        // Simulate a torn append whose length bytes are pure noise.
        let mut raw = std::fs::read(&path).unwrap();
        raw.extend_from_slice(&[0xff; 40]);
        std::fs::write(&path, &raw).unwrap();
        let (mut wal, payloads, report) = open(&path);
        assert_eq!(payloads, vec![b"kept".to_vec()]);
        assert_eq!(report.truncated_bytes, 40);
        // New appends after recovery land on a clean boundary.
        wal.append(b"after", b"").unwrap();
        drop(wal);
        let (_, payloads, _) = open(&path);
        assert_eq!(payloads, vec![b"kept".to_vec(), b"after".to_vec()]);
    }

    #[test]
    fn corrupt_checksum_mid_file_truncates_from_there() {
        let path = tmp("crc");
        {
            let (mut wal, _, _) = open(&path);
            wal.append(b"first", b"").unwrap();
            wal.append(b"second", b"").unwrap();
        }
        let mut raw = std::fs::read(&path).unwrap();
        // Flip one payload byte of the second record.
        let idx = 12 + 5 + 12;
        raw[idx] ^= 0x01;
        std::fs::write(&path, &raw).unwrap();
        let (_, payloads, report) = open(&path);
        assert_eq!(payloads, vec![b"first".to_vec()]);
        assert!(report.truncated_bytes > 0);
    }

    /// An append after a reset starts the file over: no zero-filled hole
    /// ahead of it for replay to take as a torn frame.
    #[test]
    fn append_after_reset_survives_reopen() {
        let path = tmp("reset");
        {
            let (mut wal, _, _) = open(&path);
            wal.append(b"before-", b"reset").unwrap();
            wal.reset().unwrap();
            wal.append(b"after", b"").unwrap();
        }
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 12 + 5);
        let (_, payloads, report) = open(&path);
        assert_eq!(payloads, vec![b"after".to_vec()]);
        assert_eq!(report.truncated_bytes, 0);
    }

    /// A failing replay still truncates the torn tail, and reports its
    /// first error; no frame after it is replayed.
    #[test]
    fn replay_failure_still_truncates_the_tail() {
        let path = tmp("fail");
        {
            let (mut wal, _, _) = open(&path);
            for p in [b"a", b"b", b"c"] {
                wal.append(p, b"").unwrap();
            }
        }
        let mut raw = std::fs::read(&path).unwrap();
        raw.extend_from_slice(&[0xff; 7]);
        std::fs::write(&path, &raw).unwrap();
        let mut seen = Vec::new();
        let err = Wal::open(&path, |p| {
            seen.push(p.to_vec());
            match p {
                b"b" => Err(StoreError::Corrupt("bad b".into())),
                _ => Ok(()),
            }
        })
        .err()
        .unwrap();
        assert!(err.to_string().contains("bad b"), "{err}");
        assert_eq!(seen, vec![b"a".to_vec(), b"b".to_vec()]);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 3 * 13);
    }
}
