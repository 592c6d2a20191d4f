//! A fast, non-cryptographic hasher for grid-coordinate keys.
//!
//! Counting-tree lookups hash short `u64` coordinate tuples millions of
//! times per clustering run; SipHash (std's default) is needlessly expensive
//! for that. This is the classic Fx multiply-rotate-xor word hasher used by
//! the Rust compiler, reimplemented here (a dozen lines) rather than pulling
//! in a crate. HashDoS resistance is irrelevant: keys come from our own grid
//! arithmetic, not from untrusted input.

use mrcc_common::num::usize_to_u64;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from the Fx hash (derived from the golden ratio, 64-bit).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Word-at-a-time multiply-xor hasher.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Coordinate keys always arrive through write_u64/write_usize; this
        // byte path only serves odd callers (e.g. Hash derives with padding).
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            #[expect(clippy::expect_used, reason = "chunks_exact(8) yields 8-byte chunks")]
            let word = c
                .try_into()
                .expect("chunks_exact(8) length invariant: every chunk is 8 bytes");
            self.add_to_hash(u64::from_le_bytes(word));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(usize_to_u64(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `HashMap` alias using [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of(words: &[u64]) -> u64 {
        let mut h = FxHasher::default();
        for &w in words {
            h.write_u64(w);
        }
        h.finish()
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_of(&[1, 2, 3]), hash_of(&[1, 2, 3]));
    }

    #[test]
    fn order_sensitive() {
        assert_ne!(hash_of(&[1, 2]), hash_of(&[2, 1]));
    }

    #[test]
    fn distinguishes_neighbors() {
        // Neighboring grid coordinates must not collide systematically.
        let mut seen = std::collections::HashSet::new();
        for x in 0u64..32 {
            for y in 0u64..32 {
                seen.insert(hash_of(&[x, y]));
            }
        }
        assert_eq!(seen.len(), 32 * 32);
    }

    #[test]
    fn byte_path_consistent_with_word_path() {
        let mut a = FxHasher::default();
        a.write(&7u64.to_le_bytes());
        let mut b = FxHasher::default();
        b.write_u64(7);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn works_as_hashmap() {
        let mut m: FxHashMap<Box<[u64]>, u32> = FxHashMap::default();
        m.insert(vec![1, 2, 3].into_boxed_slice(), 7);
        assert_eq!(m.get(&vec![1, 2, 3].into_boxed_slice()[..]), Some(&7));
    }
}
