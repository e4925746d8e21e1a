//! Error type for the core algorithms.

use std::fmt;

/// Errors produced by bucketization construction and the disclosure
/// algorithms.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A bucketization must contain at least one bucket.
    EmptyBucketization,
    /// Buckets must contain at least one tuple.
    EmptyBucket(usize),
    /// A tuple appeared in two buckets of the same bucketization.
    OverlappingBuckets {
        /// The duplicated tuple's row index.
        tuple: u32,
    },
    /// A partition referenced a tuple outside the table.
    TupleOutOfRange {
        /// The offending row index.
        tuple: u32,
        /// The table's row count.
        n_rows: usize,
    },
    /// The threshold `c` must lie in `(0, 1]`.
    InvalidThreshold(f64),
    /// Bucket index out of range.
    BucketOutOfRange {
        /// The requested bucket index.
        index: usize,
        /// Number of buckets.
        len: usize,
    },
    /// A worst-case witness would size its MINIMIZE1 profile table by more
    /// atoms than [`MAX_WITNESS_ATOMS`](crate::disclosure::MAX_WITNESS_ATOMS)
    /// allows: the table over `c` atoms holds `(c+2)(c+1)²` f64s.
    WitnessTooLarge {
        /// `min(k+1, d_max − 1)` for the set's largest distinct count `d_max`.
        atoms: usize,
        /// The limit it exceeds.
        limit: usize,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::EmptyBucketization => write!(f, "bucketization has no buckets"),
            CoreError::EmptyBucket(i) => write!(f, "bucket {i} is empty"),
            CoreError::OverlappingBuckets { tuple } => {
                write!(f, "tuple t{tuple} appears in more than one bucket")
            }
            CoreError::TupleOutOfRange { tuple, n_rows } => {
                write!(
                    f,
                    "tuple t{tuple} out of range for table with {n_rows} rows"
                )
            }
            CoreError::InvalidThreshold(c) => {
                write!(f, "threshold c = {c} must lie in (0, 1]")
            }
            CoreError::BucketOutOfRange { index, len } => {
                write!(f, "bucket index {index} out of range ({len} buckets)")
            }
            CoreError::WitnessTooLarge { atoms, limit } => write!(
                f,
                "a worst-case witness could need a MINIMIZE1 table over {atoms} atoms, \
                 over the limit of {limit}: min(k+1, most distinct sensitive values in \
                 one bucket - 1) must be at most {limit}"
            ),
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_mention_specifics() {
        assert!(CoreError::EmptyBucket(3).to_string().contains('3'));
        assert!(CoreError::OverlappingBuckets { tuple: 7 }
            .to_string()
            .contains("t7"));
        assert!(CoreError::InvalidThreshold(1.5).to_string().contains("1.5"));
    }
}
