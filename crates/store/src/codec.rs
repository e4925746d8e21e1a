//! Little-endian byte (de)serialization primitives shared by the WAL and
//! the catalog file, plus the FNV-1a checksum both use for framing.

use crate::StoreError;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// 64-bit FNV-1a over `bytes` — the framing checksum. Not cryptographic:
/// it detects torn writes and bit rot, the only adversaries here (the same
/// trade the dataset fingerprint makes).
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_extend(FNV_OFFSET, bytes)
}

/// Continues an FNV-1a hash `h` over `bytes`: the checksum of `a ++ b` is
/// `fnv64_extend(fnv64(a), b)`, so a record framed in parts is never
/// concatenated to be checksummed.
pub fn fnv64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Appends little-endian primitives to a byte buffer.
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Self {
        Self { buf: Vec::new() }
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Length-prefixed raw bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

/// Reads the primitives [`Writer`] appends, failing (never panicking) on
/// truncated or oversized input.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], StoreError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| {
                StoreError::Corrupt(format!(
                    "truncated record: wanted {n} bytes for {what} at offset {}",
                    self.pos
                ))
            })?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    pub fn u32(&mut self, what: &str) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    pub fn u64(&mut self, what: &str) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// Length-prefixed raw bytes, borrowed from the input; the length is
    /// validated against the remaining input.
    pub fn bytes(&mut self, what: &str) -> Result<&'a [u8], StoreError> {
        let len = self.u64(what)?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if len > remaining {
            return Err(StoreError::Corrupt(format!(
                "{what}: declared length {len} exceeds the {remaining} bytes left"
            )));
        }
        self.take(len as usize, what)
    }

    /// Whether every byte has been consumed.
    pub fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 1);
        w.bytes(b"payload");
        let buf = w.into_vec();
        assert_eq!(buf[0], 7);
        let mut r = Reader::new(&buf[1..]);
        assert_eq!(r.u32("b").unwrap(), 0xdead_beef);
        assert_eq!(r.u64("c").unwrap(), u64::MAX - 1);
        assert_eq!(r.bytes("d").unwrap(), b"payload");
        assert!(r.done());
    }

    #[test]
    fn truncation_and_oversized_lengths_error() {
        let mut r = Reader::new(&[1, 2]);
        assert!(r.u32("x").is_err());
        // A declared length far past the buffer must not allocate or panic.
        let mut w = Writer::new();
        w.u64(u64::MAX);
        let buf = w.into_vec();
        assert!(Reader::new(&buf).bytes("y").is_err());
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv64(b""), FNV_OFFSET);
        assert_ne!(fnv64(b"a"), fnv64(b"b"));
        // Pinned constant: the on-disk format depends on this function
        // never changing.
        assert_eq!(fnv64(b"wcbk"), 0x4f9c_71f6_2468_0d54);
        assert_eq!(fnv64_extend(fnv64(b"wc"), b"bk"), fnv64(b"wcbk"));
    }
}
