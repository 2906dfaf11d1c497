//! The small deterministic hasher under the executor's join and aggregate
//! maps: the Fx hash (rustc's), one rotate, xor and multiply per word. Not
//! DoS-resistant, and does not need to be: the keys are the engine's own.

use std::hash::{BuildHasherDefault, Hasher};

/// Builds [`FxHasher`]s, for `HashMap::with_hasher`.
pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Multiplier of the Fx hash (the golden-ratio constant).
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// The Fx hasher, with a finishing mix. A product carries the entropy of
/// its inputs only upward, and a small integer hashed as `f64` bits (as
/// `Value`'s `Hash` does) has only zeros in its low bits; `HashMap` picks a
/// bucket by the low bits of a hash and a tag by the top 7, so `finish`
/// folds high bits down, multiplies, and folds again.
#[derive(Default)]
pub(crate) struct FxHasher(u64);

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let mut w = [0u8; 8];
            w.copy_from_slice(c);
            self.add(u64::from_le_bytes(w));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(w));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn finish(&self) -> u64 {
        let h = (self.0 ^ (self.0 >> 29)).wrapping_mul(K);
        h ^ (h >> 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    use deepsea_relation::Value;

    fn hash(vals: &[Value]) -> u64 {
        let mut h = FxBuildHasher::default().build_hasher();
        vals.iter().for_each(|v| v.hash(&mut h));
        h.finish()
    }

    #[test]
    fn value_hash_follows_value_eq() {
        let a = hash(&[Value::Int(3), Value::str("x")]);
        assert_eq!(a, hash(&[Value::Float(3.0), Value::str("x")]));
        assert_ne!(a, hash(&[Value::Int(3), Value::str("y")]));
    }

    #[test]
    fn small_int_keys_spread_over_low_and_top_bits() {
        // 4096 consecutive keys: the low 12 bits (the bucket) and the top 7
        // (the tag) must both spread, not pile onto a few values.
        let hashes: Vec<u64> = (0..4096).map(|k| hash(&[Value::Int(k)])).collect();
        let distinct = |f: fn(u64) -> u64| {
            let mut v: Vec<u64> = hashes.iter().map(|&h| f(h)).collect();
            v.sort_unstable();
            v.dedup();
            v.len()
        };
        assert!(distinct(|h| h & 0xfff) > 2000);
        assert_eq!(distinct(|h| h >> 57), 128);
    }
}
