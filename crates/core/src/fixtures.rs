//! Bucketizations shared by the crate's unit tests.
//!
//! A set is saturated at `k` when `k + 1 ≥ d_min` (see
//! [`crate::engine`]); the engine then answers without MINIMIZE1 or
//! MINIMIZE2. Tests of the DP or of cache traffic therefore run on the
//! [`wide_tables`], below saturation for every `k ≤ 8`.

use wcbk_table::datasets::{hospital_bucket_of, hospital_table};
use wcbk_table::{SValue, TupleId};

use crate::{Bucket, Bucketization};

/// Figure 3: the hospital table's male and female buckets, with 3 and 4
/// distinct values — saturated from `k = 2` on.
pub(crate) fn figure3() -> Bucketization {
    Bucketization::from_grouping(&hospital_table(), hospital_bucket_of).unwrap()
}

/// A finer four-bucket split of the hospital table. Its `{Gloria,
/// Hannah}` bucket holds one value, so the set is saturated at every `k`.
pub(crate) fn four_buckets() -> Bucketization {
    let groups: Vec<Vec<TupleId>> = [&[0u32, 1, 2][..], &[3, 4], &[5, 6], &[7, 8, 9]]
        .iter()
        .map(|g| g.iter().copied().map(TupleId).collect())
        .collect();
    Bucketization::from_partition(&hospital_table(), &groups).unwrap()
}

/// Buckets holding the given sensitive values, members numbered in order.
pub(crate) fn from_values(groups: &[Vec<u32>], domain_size: u32) -> Bucketization {
    let mut next = 0u32;
    let buckets: Vec<Bucket> = groups
        .iter()
        .map(|values| {
            let members: Vec<TupleId> = (next..next + values.len() as u32).map(TupleId).collect();
            next += values.len() as u32;
            let values: Vec<SValue> = values.iter().copied().map(SValue).collect();
            Bucket::new(members, &values)
        })
        .collect();
    Bucketization::from_buckets(buckets, domain_size).unwrap()
}

/// Domain size of the wide fixtures.
const WIDE_DOMAIN: u32 = 16;

/// A bucket's values: `counts[i]` copies of value `(shift + i) % 16`.
fn spread(counts: &[u64], shift: u32) -> Vec<u32> {
    counts
        .iter()
        .enumerate()
        .flat_map(|(i, &c)| std::iter::repeat_n((shift + i as u32) % WIDE_DOMAIN, c as usize))
        .collect()
}

/// `[head.., 1, 1, …]` with `d` entries in all.
fn counts(head: &[u64], d: usize) -> Vec<u64> {
    let mut out = head.to_vec();
    out.resize(d, 1);
    out
}

/// Two bucketizations over six distinct histogram keys, every bucket
/// with 10 to 12 distinct values: below saturation for every `k ≤ 8`.
/// Each entry weighs 10 to 12 groups, 64 in all.
pub(crate) fn wide_tables() -> [Bucketization; 2] {
    let wide = |buckets: &[(&[u64], usize)]| {
        let groups: Vec<Vec<u32>> = buckets
            .iter()
            .enumerate()
            .map(|(shift, &(head, d))| spread(&counts(head, d), shift as u32))
            .collect();
        from_values(&groups, WIDE_DOMAIN)
    };
    [
        wide(&[(&[2], 10), (&[3, 2], 11)]),
        wide(&[(&[], 10), (&[2, 2], 10), (&[], 12), (&[4], 11)]),
    ]
}

/// Six buckets over three histogram keys with 8 distinct values each
/// (below saturation for every `k ≤ 6`): `[2, 1, …]` from different values
/// three times, `[1, …]` twice and `[3, 1, …]` once.
pub(crate) fn wide_repeated_keys() -> Bucketization {
    let groups: Vec<Vec<u32>> = [
        (&[2][..], 0),
        (&[], 0),
        (&[2], 5),
        (&[2], 9),
        (&[], 3),
        (&[3], 1),
    ]
    .iter()
    .map(|&(head, shift)| spread(&counts(head, 8), shift))
    .collect();
    from_values(&groups, WIDE_DOMAIN)
}
