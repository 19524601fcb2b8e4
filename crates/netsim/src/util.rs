//! Small utilities shared across the simulator: a fast deterministic hasher
//! (FxHash-style, per the Rust performance book's guidance for integer keys)
//! and a splitmix64 bit mixer used to derive per-iteration RNG seeds.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` using the deterministic [`FxHasher`].
///
/// Determinism matters here: simulation results must not depend on std's
/// randomized `RandomState`, or two runs with the same seed could iterate
/// containers in different orders.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` using the deterministic [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The hash function used in rustc (`FxHash`): multiply-xor per word.
///
/// Low quality but extremely fast for small integer keys, which is all the
/// simulator hashes on hot paths (flow ids, node ids).
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
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }
}

/// splitmix64: mixes a 64-bit value into a well-distributed 64-bit value.
///
/// Used to derive independent RNG seeds for parallel broadcast iterations
/// (`seed_for_iteration`), so results are identical regardless of how the
/// measurement pool schedules them.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Derives the RNG seed for iteration `k` of a session seeded with `base`.
#[inline]
pub fn seed_for_iteration(base: u64, k: u64) -> u64 {
    splitmix64(base ^ splitmix64(k.wrapping_add(1)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fx_hasher_is_deterministic() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u64(42);
        b.write_u64(42);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn fx_hasher_distinguishes_values() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u64(1);
        b.write_u64(2);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn fx_map_round_trips() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(i, i * 3);
        }
        for i in 0..1000 {
            assert_eq!(m.get(&i), Some(&(i * 3)));
        }
    }

    #[test]
    fn splitmix_differs_per_input() {
        let outs: Vec<u64> = (0..64).map(splitmix64).collect();
        let uniq: std::collections::HashSet<_> = outs.iter().collect();
        assert_eq!(uniq.len(), outs.len());
    }

    #[test]
    fn iteration_seeds_are_distinct() {
        let base = 0xdead_beef;
        let seeds: Vec<u64> = (0..100).map(|k| seed_for_iteration(base, k)).collect();
        let uniq: std::collections::HashSet<_> = seeds.iter().collect();
        assert_eq!(uniq.len(), seeds.len());
        // And differ from another base.
        assert_ne!(seed_for_iteration(1, 0), seed_for_iteration(2, 0));
    }

    #[test]
    fn hasher_write_bytes_chunks() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(a.finish(), b.finish());
        let mut c = FxHasher::default();
        c.write(&[1, 2, 3, 4, 5, 6, 7, 8, 10]);
        assert_ne!(a.finish(), c.finish());
    }
}
