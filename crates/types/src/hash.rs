//! A fixed-key hasher for maps keyed by raw line addresses.
//!
//! The standard library's default SipHash is DoS-resistant and randomly
//! keyed, neither of which a simulator keyed by its own line addresses
//! needs, and it costs several times more per `u64` key than one multiply.
//! [`LineMap`] and [`LineSet`] swap it for [`LineHasher`]: one
//! multiplication by an odd constant and a fold of the high half into the
//! low half. The fold matters: hash tables pick buckets from the low bits,
//! and co-running workload instances differ only in high address bits
//! (their regions sit 2^36 lines apart), which a bare multiplication never
//! carries downward.
//!
//! Nothing may depend on iteration order: keys hash the same in every
//! process, but the order still follows capacity and insertion history.
//! Callers that serialize such a map sort its entries first.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// 2^64 / φ, odd: the usual Fibonacci-hashing multiplier.
const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiplicative [`Hasher`] for `u64` keys (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct LineHasher(u64);

impl Hasher for LineHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(MULTIPLIER);
    }

    /// Byte-wise fallback for key types other than `u64`.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }
}

/// The [`std::hash::BuildHasher`] of [`LineHasher`].
pub type BuildLineHasher = BuildHasherDefault<LineHasher>;

/// A `HashMap` keyed by raw line addresses, hashed with [`LineHasher`].
pub type LineMap<V> = HashMap<u64, V, BuildLineHasher>;

/// A `HashSet` of raw line addresses, hashed with [`LineHasher`].
pub type LineSet = HashSet<u64, BuildLineHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash(x: u64) -> u64 {
        BuildLineHasher::default().hash_one(x)
    }

    #[test]
    fn equal_keys_hash_equal_across_builders() {
        assert_eq!(hash(42), hash(42));
        assert_ne!(hash(42), hash(43));
    }

    #[test]
    fn high_bit_differences_reach_the_low_bits() {
        // Instances 2^36 lines apart must not share a bucket index.
        let stride = 1u64 << 36;
        let low: Vec<u64> = (0..8).map(|i| hash(5 + i * stride) & 0xFFFF).collect();
        for (i, a) in low.iter().enumerate() {
            for b in &low[i + 1..] {
                assert_ne!(a, b, "low 16 bits collide: {low:x?}");
            }
        }
    }

    #[test]
    fn map_and_set_round_trip() {
        let mut m: LineMap<u32> = LineMap::default();
        let mut s = LineSet::default();
        for i in 0..1000u64 {
            m.insert(i << 20, i as u32);
            s.insert(i * 3);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&(7 << 20)), Some(&7));
        assert!(s.contains(&2997) && !s.contains(&2998));
    }
}
