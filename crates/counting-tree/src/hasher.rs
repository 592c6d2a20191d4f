//! The word hash of packed grid keys.
//!
//! Every Counting-tree insert and face-neighbor lookup hashes one packed key
//! of `w` words (see [`crate::level`]); SipHash (std's default) is needlessly
//! expensive for that. This is the Fx multiply-rotate-xor step used by the
//! Rust compiler, folded over the key's words. The index takes a key's home
//! slot and its tag from the high bits of the result, which the multiply
//! mixes from every input bit. HashDoS resistance is irrelevant: keys come
//! from our own grid arithmetic, not from untrusted input.

/// Multiplier from the Fx hash (derived from the golden ratio, 64-bit).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Folds one key word into a running hash; a key's hash is this step folded
/// over its words from 0.
#[inline]
pub(crate) fn hash_word(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(SEED)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of(words: &[u64]) -> u64 {
        words.iter().fold(0, |h, &w| hash_word(h, w))
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
        // Two 16-bit fields per word; the high 32 bits (the index tag) must
        // not collide for neighboring grid cells.
        let mut seen = std::collections::HashSet::new();
        for x in 0u64..32 {
            for y in 0u64..32 {
                seen.insert(hash_of(&[x | (y << 16)]) >> 32);
            }
        }
        assert_eq!(seen.len(), 32 * 32);
    }
}
