//! Stable binary serialization for (table, lattice) pairs and lattice nodes.
//!
//! The durable catalog persists a registered dataset as opaque bytes; this
//! module defines those bytes. The format is little-endian, versioned by an
//! 8-byte magic (`WCBKDS01` for datasets, `WCBKGN01` for nodes), and covers
//! exactly the evidence [`crate::dataset_fingerprint`] hashes — schema roles,
//! dictionaries, row codes, and hierarchy level maps/labels — so a decoded
//! dataset fingerprints (and therefore answers) bit-identically to the one
//! that was encoded. It lives next to the fingerprint for the same reason
//! the fingerprint pins its constants: both are cross-process contracts.
//!
//! No compression, no framing: torn-write protection is the store's job
//! (WAL checksums), and dictionary-encoded columns are already compact.

use wcbk_table::{Attribute, AttributeKind, Column, Dictionary, Schema, Table};

use crate::{GenNode, GeneralizationLattice, Hierarchy, HierarchyError};

const DATASET_MAGIC: &[u8; 8] = b"WCBKDS01";
const NODE_MAGIC: &[u8; 8] = b"WCBKGN01";

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn put_codes(buf: &mut Vec<u8>, codes: &[u32]) {
    put_u64(buf, codes.len() as u64);
    for &c in codes {
        buf.extend_from_slice(&c.to_le_bytes());
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], HierarchyError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| {
                HierarchyError::Decode(format!(
                    "truncated input: wanted {n} bytes for {what} at offset {}",
                    self.pos
                ))
            })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u64(&mut self, what: &str) -> Result<u64, HierarchyError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// A length that must be realizable within the remaining input, with
    /// `unit` bytes per element — rejects absurd counts before allocating.
    fn len(&mut self, unit: usize, what: &str) -> Result<usize, HierarchyError> {
        let n = self.u64(what)?;
        let budget = (self.buf.len() - self.pos) as u64;
        if n.checked_mul(unit as u64)
            .is_none_or(|total| total > budget)
        {
            return Err(HierarchyError::Decode(format!(
                "{what}: count {n} cannot fit in the {budget} bytes left"
            )));
        }
        Ok(n as usize)
    }

    fn str(&mut self, what: &str) -> Result<String, HierarchyError> {
        let n = self.len(1, what)?;
        let raw = self.take(n, what)?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| HierarchyError::Decode(format!("{what}: invalid UTF-8")))
    }

    fn codes(&mut self, what: &str) -> Result<Vec<u32>, HierarchyError> {
        let n = self.len(4, what)?;
        let raw = self.take(n * 4, what)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    fn strings(&mut self, what: &str) -> Result<Vec<String>, HierarchyError> {
        let n = self.len(8, what)?;
        (0..n).map(|_| self.str(what)).collect()
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn kind_code(kind: AttributeKind) -> u8 {
    // Same numbering the fingerprint mixes; both are pinned together.
    match kind {
        AttributeKind::Identifier => 1,
        AttributeKind::QuasiIdentifier => 2,
        AttributeKind::Sensitive => 3,
        AttributeKind::Insensitive => 4,
    }
}

fn kind_from(code: u8) -> Result<AttributeKind, HierarchyError> {
    Ok(match code {
        1 => AttributeKind::Identifier,
        2 => AttributeKind::QuasiIdentifier,
        3 => AttributeKind::Sensitive,
        4 => AttributeKind::Insensitive,
        other => {
            return Err(HierarchyError::Decode(format!(
                "unknown attribute kind code {other}"
            )))
        }
    })
}

/// Serializes a (table, lattice) pair into the stable dataset format.
pub fn encode_dataset(table: &Table, lattice: &GeneralizationLattice) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_dataset_into(&mut buf, table, lattice);
    buf
}

/// [`encode_dataset`], appended to `buf` — for callers that wrap the
/// dataset in a larger record without copying it there. Reserves room for
/// the row codes, the bulk of the encoding, up front.
pub fn encode_dataset_into(buf: &mut Vec<u8>, table: &Table, lattice: &GeneralizationLattice) {
    let schema = table.schema();
    let values: usize = (0..schema.arity())
        .flat_map(|i| table.column(i).dictionary().values())
        .map(|v| 8 + v.len())
        .sum();
    buf.reserve(64 + values + schema.arity() * (16 + 4 * table.n_rows()));
    buf.extend_from_slice(DATASET_MAGIC);
    // Schema: names and roles in column order.
    put_u64(buf, schema.arity() as u64);
    for a in schema.attributes() {
        put_str(buf, a.name());
        buf.push(kind_code(a.kind()));
    }
    // Columns: dictionary values (code order) then per-row codes.
    for i in 0..schema.arity() {
        let col = table.column(i);
        put_u64(buf, col.dictionary().len() as u64);
        for v in col.dictionary().values() {
            put_str(buf, v);
        }
        put_codes(buf, col.codes());
    }
    // Lattice dimensions: column index, attribute, per-level maps + labels.
    put_u64(buf, lattice.n_dims() as u64);
    for d in 0..lattice.n_dims() {
        let h = lattice.hierarchy(d);
        put_u64(buf, lattice.column(d) as u64);
        put_str(buf, h.attribute());
        put_u64(buf, h.n_levels() as u64);
        for level in 0..h.n_levels() {
            put_codes(buf, h.level_map(level));
            put_u64(buf, h.n_groups(level) as u64);
            for g in 0..h.n_groups(level) {
                put_str(buf, h.label(level, g as u32));
            }
        }
    }
}

/// Decodes [`encode_dataset`] output back into a validated (table, lattice)
/// pair. Every constructor invariant is re-checked on the way in (schema
/// well-formedness, code ranges, hierarchy nestedness), so corrupt bytes
/// fail loudly instead of producing a subtly wrong dataset.
pub fn decode_dataset(bytes: &[u8]) -> Result<(Table, GeneralizationLattice), HierarchyError> {
    let mut c = Cursor { buf: bytes, pos: 0 };
    if c.take(8, "dataset magic")? != DATASET_MAGIC {
        return Err(HierarchyError::Decode("dataset magic mismatch".into()));
    }
    let arity = c.len(9, "schema arity")?;
    let mut attributes = Vec::with_capacity(arity);
    for i in 0..arity {
        let name = c.str(&format!("attribute {i} name"))?;
        let kind = kind_from(c.take(1, "attribute kind")?[0])?;
        attributes.push(Attribute::new(name, kind));
    }
    let schema = Schema::new(attributes).map_err(|e| HierarchyError::Table(e.to_string()))?;

    let mut columns = Vec::with_capacity(arity);
    for i in 0..arity {
        let values = {
            let n = c.len(8, &format!("column {i} dictionary size"))?;
            (0..n)
                .map(|_| c.str(&format!("column {i} dictionary value")))
                .collect::<Result<Vec<_>, _>>()?
        };
        let dict = Dictionary::from_values(&values);
        if dict.len() != values.len() {
            return Err(HierarchyError::Decode(format!(
                "column {i} dictionary has duplicate values"
            )));
        }
        let codes = c.codes(&format!("column {i} codes"))?;
        columns.push(
            Column::from_parts(dict, codes).map_err(|e| HierarchyError::Table(e.to_string()))?,
        );
    }
    let table =
        Table::from_parts(schema, columns).map_err(|e| HierarchyError::Table(e.to_string()))?;

    let n_dims = c.len(8, "lattice dims")?;
    let mut dims = Vec::with_capacity(n_dims);
    for d in 0..n_dims {
        let column = c.u64(&format!("dim {d} column"))? as usize;
        if column >= table.schema().arity() {
            return Err(HierarchyError::Decode(format!(
                "dim {d} column {column} out of range"
            )));
        }
        let attribute = c.str(&format!("dim {d} attribute"))?;
        let n_levels = c.len(8, &format!("dim {d} levels"))?;
        let mut maps = Vec::with_capacity(n_levels);
        let mut labels = Vec::with_capacity(n_levels);
        for l in 0..n_levels {
            maps.push(c.codes(&format!("dim {d} level {l} map"))?);
            labels.push(c.strings(&format!("dim {d} level {l} labels"))?);
        }
        dims.push((column, Hierarchy::new(attribute, maps, labels)?));
    }
    let lattice = GeneralizationLattice::new(dims)?;
    if !c.done() {
        return Err(HierarchyError::Decode(
            "trailing bytes after dataset".into(),
        ));
    }
    Ok((table, lattice))
}

/// Serializes a lattice node (one release record in the durable history).
pub fn encode_node(node: &GenNode) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(NODE_MAGIC);
    put_u64(&mut buf, node.0.len() as u64);
    for &level in &node.0 {
        put_u64(&mut buf, level as u64);
    }
    buf
}

/// Decodes [`encode_node`] output. Range validation against a concrete
/// lattice is the caller's job ([`GeneralizationLattice::validate`]).
pub fn decode_node(bytes: &[u8]) -> Result<GenNode, HierarchyError> {
    let mut c = Cursor { buf: bytes, pos: 0 };
    if c.take(8, "node magic")? != NODE_MAGIC {
        return Err(HierarchyError::Decode("node magic mismatch".into()));
    }
    let n = c.len(8, "node dims")?;
    let levels = (0..n)
        .map(|i| c.u64(&format!("node level {i}")).map(|v| v as usize))
        .collect::<Result<Vec<_>, _>>()?;
    if !c.done() {
        return Err(HierarchyError::Decode("trailing bytes after node".into()));
    }
    Ok(GenNode(levels))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset_fingerprint;
    use wcbk_table::datasets::hospital_table;

    fn hospital() -> (Table, GeneralizationLattice) {
        let table = hospital_table();
        let zip = table.column(1).dictionary().clone();
        let age = table.column(2).dictionary().clone();
        let lattice = GeneralizationLattice::new(vec![
            (1, Hierarchy::suppression("Zip", &zip)),
            (2, Hierarchy::intervals("Age", &age, &[5]).unwrap()),
        ])
        .unwrap();
        (table, lattice)
    }

    #[test]
    fn dataset_round_trips_bit_identically() {
        let (table, lattice) = hospital();
        let bytes = encode_dataset(&table, &lattice);
        let (t2, l2) = decode_dataset(&bytes).unwrap();
        assert_eq!(t2, table);
        assert_eq!(
            dataset_fingerprint(&t2, &l2),
            dataset_fingerprint(&table, &lattice)
        );
        // Encoding is deterministic: same input, same bytes.
        assert_eq!(encode_dataset(&t2, &l2), bytes);
    }

    #[test]
    fn node_round_trips() {
        let node = GenNode(vec![0, 3, 1]);
        assert_eq!(decode_node(&encode_node(&node)).unwrap(), node);
        let empty = GenNode(Vec::new());
        assert_eq!(decode_node(&encode_node(&empty)).unwrap(), empty);
    }

    #[test]
    fn corrupt_inputs_error_not_panic() {
        let (table, lattice) = hospital();
        let bytes = encode_dataset(&table, &lattice);
        assert!(decode_dataset(b"WCBKXX99 not a dataset").is_err());
        assert!(decode_node(&bytes).is_err());
        // Truncation at every prefix length errors (or, never panics and
        // never succeeds, since the full length is the only valid frame).
        for cut in 0..bytes.len() {
            assert!(decode_dataset(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // A flipped byte in a code region is caught by validation.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xff;
        assert!(decode_dataset(&bad).is_err());
    }

    #[test]
    fn empty_table_round_trips() {
        use wcbk_table::TableBuilder;
        let schema = Schema::new(vec![
            Attribute::new("Q", AttributeKind::QuasiIdentifier),
            Attribute::new("S", AttributeKind::Sensitive),
        ])
        .unwrap();
        let table = TableBuilder::new(schema).build();
        let dict = table.column(0).dictionary().clone();
        let lattice =
            GeneralizationLattice::new(vec![(0, Hierarchy::suppression("Q", &dict))]).unwrap();
        let bytes = encode_dataset(&table, &lattice);
        let (t2, _) = decode_dataset(&bytes).unwrap();
        assert_eq!(t2, table);
        assert!(t2.is_empty());
    }
}
