//! Content fingerprints for (table, lattice) pairs.
//!
//! A dataset-handle service needs a stable identity for "the same table
//! under the same hierarchies": registering the identical dataset twice
//! should return the **same** handle (and reuse the already-built roll-up
//! state), while any change to the rows, the schema roles, or a hierarchy's
//! grouping must produce a different one. [`dataset_fingerprint`] hashes
//! exactly that evidence — FNV-1a over:
//!
//! * the schema: every attribute's name and privacy role;
//! * the sensitive column: its dictionary values and per-row codes;
//! * every lattice dimension: its column index, attribute name, level count,
//!   each level's full base-code → group map, and the column's dictionary
//!   values and per-row codes.
//!
//! Dictionary *values* are included (not just codes) so tables that happen
//! to intern different strings to the same codes still differ. The walk is
//! `O(rows × dims + domain × levels)` — one more pass over columns already
//! resident in memory, done once at registration time.

use wcbk_table::Table;

use crate::GeneralizationLattice;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
/// Four FNV-1a steps over zero bytes: XOR with zero is a no-op, so they are
/// one multiply by `FNV_PRIME`⁴ (wrapping).
const FNV_PRIME_4: u64 = FNV_PRIME
    .wrapping_mul(FNV_PRIME)
    .wrapping_mul(FNV_PRIME)
    .wrapping_mul(FNV_PRIME);

/// An incremental FNV-1a hasher over bytes, with helpers for the shapes the
/// fingerprint mixes. Not cryptographic — a stable 64-bit identity for
/// handle lookup and dedup, like the engine's shard hash.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(FNV_OFFSET)
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(FNV_PRIME);
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.as_bytes() {
            self.byte(*b);
        }
    }

    /// Each code mixes as the `u64` it widens to: its four bytes, then four
    /// zero high bytes folded into one multiply — 5 multiplies, not 8.
    fn codes(&mut self, codes: &[u32]) {
        self.u64(codes.len() as u64);
        for &c in codes {
            for b in c.to_le_bytes() {
                self.byte(b);
            }
            self.0 = self.0.wrapping_mul(FNV_PRIME_4);
        }
    }
}

/// The 64-bit content fingerprint of `table` under `lattice` — see the
/// module docs for what it covers. Stable across processes and platforms
/// (little-endian byte mixing, no pointer or hash-map iteration order).
pub fn dataset_fingerprint(table: &Table, lattice: &GeneralizationLattice) -> u64 {
    let mut h = Fnv::new();
    // Schema: names and roles, in column order.
    let schema = table.schema();
    h.u64(schema.arity() as u64);
    for attribute in schema.attributes() {
        h.str(attribute.name());
        h.byte(match attribute.kind() {
            wcbk_table::AttributeKind::Identifier => 1,
            wcbk_table::AttributeKind::QuasiIdentifier => 2,
            wcbk_table::AttributeKind::Sensitive => 3,
            wcbk_table::AttributeKind::Insensitive => 4,
        });
    }
    // The sensitive column: values and per-row codes.
    h.u64(table.n_rows() as u64);
    let sensitive = table.sensitive_column();
    for value in sensitive.dictionary().values() {
        h.str(value);
    }
    h.codes(sensitive.codes());
    // Every lattice dimension: structure plus the column it generalizes.
    h.u64(lattice.n_dims() as u64);
    for d in 0..lattice.n_dims() {
        let col = lattice.column(d);
        let hierarchy = lattice.hierarchy(d);
        h.u64(col as u64);
        h.str(hierarchy.attribute());
        h.u64(hierarchy.n_levels() as u64);
        for level in 0..hierarchy.n_levels() {
            h.codes(hierarchy.level_map(level));
        }
        let column = table.column(col);
        for value in column.dictionary().values() {
            h.str(value);
        }
        h.codes(column.codes());
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Hierarchy;
    use wcbk_datagen::adult::{synthetic_adult, AdultConfig};
    use wcbk_table::datasets::hospital_table;
    use wcbk_table::{Attribute, AttributeKind, Schema, TableBuilder};

    fn hospital_lattice(table: &Table) -> GeneralizationLattice {
        let zip = table.column(1).dictionary().clone();
        let age = table.column(2).dictionary().clone();
        GeneralizationLattice::new(vec![
            (1, Hierarchy::suppression("Zip", &zip)),
            (2, Hierarchy::intervals("Age", &age, &[5]).unwrap()),
        ])
        .unwrap()
    }

    fn tiny_table(rows: &[[&str; 2]]) -> Table {
        let schema = Schema::new(vec![
            Attribute::new("Q", AttributeKind::QuasiIdentifier),
            Attribute::new("S", AttributeKind::Sensitive),
        ])
        .unwrap();
        let mut b = TableBuilder::new(schema);
        for row in rows {
            b.push_row(row).unwrap();
        }
        b.build()
    }

    #[test]
    fn identical_inputs_fingerprint_identically() {
        let t1 = hospital_table();
        let t2 = hospital_table();
        let l1 = hospital_lattice(&t1);
        let l2 = hospital_lattice(&t2);
        assert_eq!(dataset_fingerprint(&t1, &l1), dataset_fingerprint(&t2, &l2));
    }

    #[test]
    fn row_value_and_hierarchy_changes_all_matter() {
        let base = tiny_table(&[["1", "flu"], ["2", "cold"]]);
        let dict = base.column(0).dictionary().clone();
        let lattice =
            GeneralizationLattice::new(vec![(0, Hierarchy::suppression("Q", &dict))]).unwrap();
        let fp = dataset_fingerprint(&base, &lattice);

        // Different rows.
        let other_rows = tiny_table(&[["1", "flu"], ["2", "flu"]]);
        let other_lattice = GeneralizationLattice::new(vec![(
            0,
            Hierarchy::suppression("Q", other_rows.column(0).dictionary()),
        )])
        .unwrap();
        assert_ne!(fp, dataset_fingerprint(&other_rows, &other_lattice));

        // Different dictionary values behind the same codes.
        let other_values = tiny_table(&[["1", "flu"], ["2", "measles"]]);
        let other_lattice = GeneralizationLattice::new(vec![(
            0,
            Hierarchy::suppression("Q", other_values.column(0).dictionary()),
        )])
        .unwrap();
        assert_ne!(fp, dataset_fingerprint(&other_values, &other_lattice));

        // Different hierarchy over the same table.
        let interval =
            GeneralizationLattice::new(vec![(0, Hierarchy::intervals("Q", &dict, &[2]).unwrap())])
                .unwrap();
        assert_ne!(fp, dataset_fingerprint(&base, &interval));
    }

    #[test]
    fn fingerprint_is_a_stable_constant() {
        // Pins cross-process stability: fixed inputs hash to fixed literals.
        // If either changes, persisted handle ids stop matching.
        let t = tiny_table(&[["1", "flu"], ["2", "cold"]]);
        let dict = t.column(0).dictionary().clone();
        let l = GeneralizationLattice::new(vec![(0, Hierarchy::suppression("Q", &dict))]).unwrap();
        assert_eq!(dataset_fingerprint(&t, &l), 0x5904_ff15_2389_2a35);

        let adult = synthetic_adult(AdultConfig {
            n_rows: 50_000,
            seed: 1,
        });
        let lattice = crate::adult::adult_lattice(&adult).unwrap();
        assert_eq!(dataset_fingerprint(&adult, &lattice), 0x4370_6d62_bc11_b9b6);
    }
}
