//! A small multiplicative hasher for maps keyed by the engine's own ids.
//!
//! The standard `HashMap` hashes with SipHash, whose resistance to
//! crafted collisions is worth its cost only for keys an outsider
//! chooses. The planner's memos are keyed by column ids, predicate ids
//! and pointer addresses, and a hit is answered hundreds of thousands of
//! times per join enumeration; this hasher (FxHash's add-multiply step,
//! with a final rotation so hashbrown's bucket bits see the well-mixed
//! high bits) costs one multiply per word. Keep the default hasher for
//! keys taken from outside the program.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashing with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// FxHash-style hasher: `h = (h + word) · K` per word written.
#[derive(Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

const K: u64 = 0xf135_7aea_2e62_a9c5;

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(v: impl Hash) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(v)
    }

    #[test]
    fn equal_keys_hash_equal_and_neighbours_differ() {
        assert_eq!(hash_of((3u32, 7u64)), hash_of((3u32, 7u64)));
        assert_ne!(hash_of((3u32, 7u64)), hash_of((7u32, 3u64)));
        assert_ne!(
            hash_of([1u32, 2].as_slice()),
            hash_of([1u32, 2, 0].as_slice())
        );
        assert_ne!(hash_of("ab"), hash_of("ba"));
        let mut map: FxHashMap<u32, u32> = FxHashMap::default();
        for i in 0..1000 {
            map.insert(i, i * 2);
        }
        assert!((0..1000).all(|i| map.get(&i) == Some(&(i * 2))));
    }
}
