//! A small, fast, deterministic hash for token-memory keys.
//!
//! The token hash tables are the hottest shared structure in the system (the
//! paper devotes §3.2 to their locking); SipHash would dominate the cost of a
//! node activation, so we use the Fx multiply-rotate mix (the rustc hasher),
//! implemented locally to keep the dependency set to the approved list.

/// 64-bit Fx hash step.
#[inline]
pub fn mix(seed: u64, word: u64) -> u64 {
    const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    (seed.rotate_left(5) ^ word).wrapping_mul(K)
}

/// Hashes a slice of words.
#[inline]
pub fn hash_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0u64;
    for w in words {
        h = mix(h, w);
    }
    h
}

/// A `std::hash::Hasher` over the Fx mix, for use with standard collections
/// on non-hot paths that still want determinism.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl std::hash::Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().expect("chunks of 8"));
            self.hash = mix(self.hash, word);
        }
        // The tail as a zero-padded little-endian word, assembled in
        // registers: most keys hashed this way are names of a few bytes.
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let word = tail.iter().rev().fold(0, |w, b| w << 8 | *b as u64);
            self.hash = mix(self.hash, word);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.hash = mix(self.hash, v);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.hash = mix(self.hash, v as u64);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.hash = mix(self.hash, v as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.hash = mix(self.hash, v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = std::hash::BuildHasherDefault<FxHasher>;

/// `HashMap` with the Fx hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hasher;

    #[test]
    fn deterministic() {
        assert_eq!(hash_words([1, 2, 3]), hash_words([1, 2, 3]));
    }

    #[test]
    fn order_sensitive() {
        assert_ne!(hash_words([1, 2]), hash_words([2, 1]));
    }

    #[test]
    fn distinct_inputs_differ() {
        assert_ne!(hash_words([0]), hash_words([1]));
        // Empty vs zero word must differ is not guaranteed by Fx (empty = 0);
        // just check a spread of small keys stays collision-free.
        let hs: Vec<u64> = (0u64..1000).map(|i| hash_words([i])).collect();
        let mut sorted = hs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), hs.len());
    }

    #[test]
    fn hasher_trait_matches_words() {
        let mut h = FxHasher::default();
        h.write_u64(42);
        assert_eq!(h.finish(), hash_words([42]));
    }
}
