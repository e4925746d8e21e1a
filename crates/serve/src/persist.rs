//! The catalog payload a registered session persists as.
//!
//! The durable store maps fingerprints to opaque bytes; this module defines
//! what the audit service puts in them: the request-level registration
//! parameters (quasi-identifier names, sensitive column, memo/scan knobs)
//! wrapped around the hierarchy crate's stable dataset encoding. Magic
//! `WCBKSS01` versions the wrapper independently of the inner format.
//!
//! Release records are **not** in the payload — they live as the store's
//! append-only per-dataset history, one record per release, so a release
//! append never rewrites the dataset. A release audited under the default
//! conjunction adversary persists as a bare
//! [`wcbk_hierarchy::encode_node`] record (the pre-model format, readable
//! both ways); one audited under any other [`ModelId`] is wrapped with
//! magic `WCBKRL01` plus the model's registry index, so rehydration
//! replays the node **under the model it was audited with**.

use wcbk_anonymize::{DatasetSession, ModelId, MODEL_IDS};
use wcbk_hierarchy::{decode_dataset, encode_dataset_into, GenNode, GeneralizationLattice};
use wcbk_table::Table;

const MAGIC: &[u8; 8] = b"WCBKSS01";
const RELEASE_MAGIC: &[u8; 8] = b"WCBKRL01";

/// A decoded registration payload: everything needed to rebuild the
/// [`DatasetSession`] exactly as it was registered.
pub struct SessionPayload {
    /// Quasi-identifier column names, in registration order.
    pub qi: Vec<String>,
    /// The sensitive column name.
    pub sensitive: String,
    /// The session's memo budget (`None` = unbounded).
    pub memo_capacity: Option<usize>,
    /// The session's scan thread count.
    pub scan_threads: usize,
    /// The registered table.
    pub table: Table,
    /// The registered lattice.
    pub lattice: GeneralizationLattice,
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// Serializes a session plus its registration parameters.
pub fn encode_session(session: &DatasetSession, qi: &[String], sensitive: &str) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    put_u64(&mut buf, qi.len() as u64);
    for name in qi {
        put_str(&mut buf, name);
    }
    put_str(&mut buf, sensitive);
    match session.memo_capacity() {
        Some(cap) => {
            buf.push(1);
            put_u64(&mut buf, cap as u64);
        }
        None => buf.push(0),
    }
    put_u64(&mut buf, session.scan_threads() as u64);
    // The dataset is encoded in place behind its length prefix, which is
    // filled in once the length is known.
    let prefix = buf.len();
    put_u64(&mut buf, 0);
    encode_dataset_into(&mut buf, session.table(), session.lattice());
    let len = (buf.len() - prefix - 8) as u64;
    buf[prefix..prefix + 8].copy_from_slice(&len.to_le_bytes());
    buf
}

/// Serializes one release record. Conjunction releases keep the bare node
/// encoding — byte-identical to every record written before models
/// existed — so old catalogs replay unchanged and new conjunction-only
/// catalogs stay readable by old binaries.
pub fn encode_release(node: &GenNode, model: ModelId) -> Vec<u8> {
    let inner = wcbk_hierarchy::encode_node(node);
    if model == ModelId::Conjunction {
        return inner;
    }
    let mut buf = Vec::with_capacity(RELEASE_MAGIC.len() + 1 + inner.len());
    buf.extend_from_slice(RELEASE_MAGIC);
    buf.push(model.index() as u8);
    buf.extend_from_slice(&inner);
    buf
}

/// Decodes a release record written by [`encode_release`] (or by a
/// pre-model binary — any record without the wrapper magic is a bare node
/// audited under the conjunction model).
pub fn decode_release(bytes: &[u8]) -> Result<(GenNode, ModelId), String> {
    let Some(rest) = bytes.strip_prefix(RELEASE_MAGIC.as_slice()) else {
        let node = wcbk_hierarchy::decode_node(bytes).map_err(|e| e.to_string())?;
        return Ok((node, ModelId::Conjunction));
    };
    let (&index, inner) = rest
        .split_first()
        .ok_or_else(|| "truncated release record: missing model index".to_owned())?;
    let model = *MODEL_IDS
        .get(index as usize)
        .ok_or_else(|| format!("unknown adversary-model index {index} in release record"))?;
    let node = wcbk_hierarchy::decode_node(inner).map_err(|e| e.to_string())?;
    Ok((node, model))
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| format!("truncated payload: wanted {n} bytes for {what}"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u64(&mut self, what: &str) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn len(&mut self, what: &str) -> Result<usize, String> {
        let n = self.u64(what)?;
        if n > (self.buf.len() - self.pos) as u64 {
            return Err(format!("{what}: length {n} exceeds payload"));
        }
        Ok(n as usize)
    }

    fn str(&mut self, what: &str) -> Result<String, String> {
        let n = self.len(what)?;
        String::from_utf8(self.take(n, what)?.to_vec())
            .map_err(|_| format!("{what}: invalid UTF-8"))
    }
}

/// Decodes [`encode_session`] output, re-validating the inner dataset
/// through its constructors.
pub fn decode_session(bytes: &[u8]) -> Result<SessionPayload, String> {
    let mut c = Cursor { buf: bytes, pos: 0 };
    if c.take(8, "payload magic")? != MAGIC {
        return Err("session payload magic mismatch".into());
    }
    let n_qi = c.len("qi count")?;
    let qi = (0..n_qi)
        .map(|i| c.str(&format!("qi name {i}")))
        .collect::<Result<Vec<_>, _>>()?;
    let sensitive = c.str("sensitive name")?;
    let memo_capacity = match c.take(1, "memo flag")?[0] {
        0 => None,
        1 => Some(c.u64("memo capacity")? as usize),
        other => return Err(format!("bad memo flag {other}")),
    };
    let scan_threads = c.u64("scan threads")? as usize;
    let n = c.len("dataset length")?;
    let dataset = c.take(n, "dataset bytes")?;
    if c.pos != bytes.len() {
        return Err("trailing bytes after session payload".into());
    }
    let (table, lattice) = decode_dataset(dataset).map_err(|e| e.to_string())?;
    Ok(SessionPayload {
        qi,
        sensitive,
        memo_capacity,
        scan_threads,
        table,
        lattice,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcbk_anonymize::SessionOptions;
    use wcbk_hierarchy::Hierarchy;
    use wcbk_table::datasets::hospital_table;

    fn session() -> (DatasetSession, Vec<String>, String) {
        let table = hospital_table();
        let zip = table.column(1).dictionary().clone();
        let lattice =
            GeneralizationLattice::new(vec![(1, Hierarchy::suppression("Zip", &zip))]).unwrap();
        let session = DatasetSession::with_options(
            table,
            lattice,
            SessionOptions {
                memo_capacity: Some(512),
                engines: None,
                scan_threads: 2,
            },
        )
        .unwrap();
        (session, vec!["Zip".to_owned()], "Disease".to_owned())
    }

    #[test]
    fn payload_round_trips_with_identical_fingerprint() {
        let (session, qi, sensitive) = session();
        let bytes = encode_session(&session, &qi, &sensitive);
        let payload = decode_session(&bytes).unwrap();
        assert_eq!(payload.qi, qi);
        assert_eq!(payload.sensitive, sensitive);
        assert_eq!(payload.memo_capacity, Some(512));
        assert_eq!(payload.scan_threads, 2);
        assert_eq!(
            wcbk_hierarchy::dataset_fingerprint(&payload.table, &payload.lattice),
            session.fingerprint()
        );
    }

    /// The dataset sits in place at the payload's end, behind its length:
    /// the same bytes as `encode_dataset` plus a prefix.
    #[test]
    fn dataset_is_encoded_in_place_behind_its_length() {
        let (session, qi, sensitive) = session();
        let bytes = encode_session(&session, &qi, &sensitive);
        let dataset = wcbk_hierarchy::encode_dataset(session.table(), session.lattice());
        let (head, tail) = bytes.split_at(bytes.len() - dataset.len());
        assert_eq!(tail, dataset);
        assert_eq!(head[head.len() - 8..], (dataset.len() as u64).to_le_bytes());
    }

    #[test]
    fn release_records_round_trip_every_model() {
        let node = GenNode(vec![1, 0, 2]);
        for model in MODEL_IDS {
            let bytes = encode_release(&node, model);
            let (back, m) = decode_release(&bytes).unwrap();
            assert_eq!(back, node);
            assert_eq!(m, model);
        }
    }

    /// Conjunction records are byte-identical to the pre-model bare node
    /// encoding — old catalogs replay as conjunction, and conjunction-only
    /// catalogs stay readable by pre-model binaries.
    #[test]
    fn conjunction_release_records_stay_bare_nodes() {
        let node = GenNode(vec![2, 1]);
        let bytes = encode_release(&node, ModelId::Conjunction);
        assert_eq!(bytes, wcbk_hierarchy::encode_node(&node));
        let (back, model) = decode_release(&wcbk_hierarchy::encode_node(&node)).unwrap();
        assert_eq!(back, node);
        assert_eq!(model, ModelId::Conjunction);
    }

    #[test]
    fn corrupt_release_records_error() {
        assert!(decode_release(b"WCBKRL01").is_err(), "missing index");
        let mut bad_index = b"WCBKRL01".to_vec();
        bad_index.push(99);
        bad_index.extend_from_slice(&wcbk_hierarchy::encode_node(&GenNode(vec![0])));
        assert!(decode_release(&bad_index).is_err(), "unknown model index");
        let mut truncated = encode_release(&GenNode(vec![1, 1]), ModelId::Sequential);
        truncated.pop();
        assert!(decode_release(&truncated).is_err(), "truncated node");
    }

    #[test]
    fn corrupt_payloads_error() {
        let (session, qi, sensitive) = session();
        let bytes = encode_session(&session, &qi, &sensitive);
        assert!(decode_session(&bytes[..bytes.len() - 1]).is_err());
        assert!(decode_session(b"WCBKSS99").is_err());
        assert!(decode_session(&[]).is_err());
    }
}
