//! FNV-1a — the workspace's one stable, in-tree content hash.
//!
//! Two call sites grew private copies of this function (the executor's
//! retry-stream mapping and the fault study's trace fingerprint); they
//! now both route here. The persistent artifact cache
//! (`mlperf-core::sweep`) also keys on it, so the constants below are a
//! compatibility contract: the reference vectors in this module pin them.
//!
//! FNV-1a is not cryptographic — it is used for cache addressing, stream
//! splitting, and regression fingerprints, where speed, zero dependencies,
//! and cross-platform stability are what matter.

/// FNV-1a 64-bit offset basis.
pub const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a, 64-bit, over raw bytes.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a64::new();
    h.update(bytes);
    h.finish()
}

/// FNV-1a, 64-bit, over a string's UTF-8 bytes.
#[must_use]
pub fn fnv1a64_str(s: &str) -> u64 {
    fnv1a64(s.as_bytes())
}

/// Incremental FNV-1a 64-bit hasher, for keys assembled from several
/// fields without concatenating into a scratch buffer.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a64 {
    state: u64,
}

impl Fnv1a64 {
    /// A hasher at the offset basis.
    #[must_use]
    pub fn new() -> Self {
        Fnv1a64 {
            state: FNV64_OFFSET,
        }
    }

    /// Absorb bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV64_PRIME);
        }
    }

    /// Absorb a `u64` as little-endian bytes (e.g. a code epoch).
    pub fn write_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// The digest so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv1a64 {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_reference_vectors() {
        // Published FNV-1a test vectors (draft-eastlake-fnv).
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
        assert_eq!(fnv1a64_str("foobar"), fnv1a64(b"foobar"));
    }

    #[test]
    fn incremental_matches_one_shot() {
        let mut h = Fnv1a64::new();
        h.update(b"foo");
        h.update(b"bar");
        assert_eq!(h.finish(), fnv1a64(b"foobar"));
        let mut k = Fnv1a64::new();
        k.write_u64(0x0102_0304_0506_0708);
        assert_eq!(
            k.finish(),
            fnv1a64(&[0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01])
        );
    }
}
