//! A fast, non-cryptographic hasher for the storage layer's id- and
//! value-keyed maps.
//!
//! This is the multiply-rotate hash used by the Rust compiler (`FxHasher`):
//! one rotate, one xor and one multiply per machine word. The store's maps are
//! keyed by small integers ([`TupleId`](crate::TupleId),
//! [`UpdateId`](crate::UpdateId), [`NullId`](crate::NullId)) and
//! [`Value`](crate::Value)s, which are two words; SipHash's per-key setup
//! and finalisation cost more than the lookup itself there. Their iteration
//! order was already unspecified under `RandomState`, so nothing may depend
//! on it.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier of the Fx hash (from Firefox, via rustc).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx word hasher.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct FxHasher {
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
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("chunks of eight bytes")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            // The length keeps `[0]` and `[0, 0]` apart.
            self.add_to_hash(u64::from_le_bytes(word) ^ ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Builds [`FxHasher`]s; stateless, so every map hashes alike.
pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A [`HashMap`] hashed with [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A [`HashSet`] hashed with [`FxHasher`].
pub(crate) type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{NullId, Value};
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(value: &T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn equal_keys_hash_alike_and_distinct_keys_apart() {
        assert_eq!(hash(&Value::constant("a")), hash(&Value::constant("a")));
        assert_ne!(hash(&Value::constant("a")), hash(&Value::constant("b")));
        assert_ne!(hash(&Value::Null(NullId(1))), hash(&Value::Null(NullId(2))));
        let bytes = |b: &[u8]| {
            let mut h = FxHasher::default();
            h.write(b);
            h.finish()
        };
        assert_ne!(bytes(&[0]), bytes(&[0, 0]));
        assert_ne!(bytes(&[1; 9]), bytes(&[1; 10]));
        assert_ne!(hash(&"ab"), hash(&"ba"));
    }

    #[test]
    fn sequential_ids_spread_over_buckets() {
        // hashbrown indexes buckets by the low bits: sequential tuple ids
        // must not pile into a few of them.
        let buckets: FxHashSet<u64> = (0..1024u64).map(|i| hash(&i) & 1023).collect();
        assert!(buckets.len() > 600, "{} of 1024 buckets used", buckets.len());
    }
}
