//! Bloom-style key filter attached to each sealed segment.
//!
//! Point reads over a leveled tier probe every candidate segment whose key
//! range covers the target; without a filter each probe costs a modelled
//! block read. The filter answers "definitely absent" from memory so cold
//! probes skip the device entirely — the standard LSM read-amplification
//! fix. Double hashing (Kirsch–Mitzenmacher) derives all probe positions
//! from two FNV-1a-based hashes, keeping the filter deterministic and
//! seed-free.

/// Number of probe positions per key.
const PROBES: u32 = 4;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn fnv1a(key: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A key's two hashes, from which every filter derives its probe positions.
#[derive(Clone, Copy, Debug)]
pub struct KeyHash(u64, u64);

impl KeyHash {
    #[inline]
    pub fn of(key: &[u8]) -> KeyHash {
        let h1 = fnv1a(key);
        // A second, independent hash derived by mixing; forced odd so the
        // probe sequence walks the whole bit space.
        KeyHash(h1, h1.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(31) | 1)
    }
}

/// A fixed-size bit array sized at build time from the expected key count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeyFilter {
    nbits: u64,
    words: Vec<u64>,
}

impl KeyFilter {
    /// Size the filter for `keys` expected insertions at `bits_per_key`.
    pub fn with_capacity(keys: u64, bits_per_key: u32) -> KeyFilter {
        let nbits = (keys.saturating_mul(bits_per_key as u64)).max(64);
        let words = vec![0u64; nbits.div_ceil(64) as usize];
        KeyFilter { nbits, words }
    }

    /// The `i`-th probe position of a key hashed to `hash`.
    #[inline]
    fn probe(&self, hash: KeyHash, i: u32) -> (usize, u64) {
        let bit = hash.0.wrapping_add(hash.1.wrapping_mul(i as u64)) % self.nbits;
        ((bit / 64) as usize, 1u64 << (bit % 64))
    }

    pub fn insert(&mut self, key: &[u8]) {
        let hash = KeyHash::of(key);
        for i in 0..PROBES {
            let (word, mask) = self.probe(hash, i);
            if let Some(w) = self.words.get_mut(word) {
                *w |= mask;
            }
        }
    }

    /// False negatives are impossible; false positives are expected at the
    /// configured bits-per-key rate.
    pub fn may_contain(&self, key: &[u8]) -> bool {
        self.may_contain_hash(KeyHash::of(key))
    }

    /// [`Self::may_contain`] for a key hashed once and looked up in many
    /// filters (a point read probes every covering segment's).
    pub fn may_contain_hash(&self, hash: KeyHash) -> bool {
        (0..PROBES).all(|i| {
            let (word, mask) = self.probe(hash, i);
            self.words.get(word).is_some_and(|w| w & mask != 0)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let keys: Vec<Vec<u8>> = (0u64..500).map(|i| i.to_be_bytes().to_vec()).collect();
        let mut f = KeyFilter::with_capacity(keys.len() as u64, 10);
        for k in &keys {
            f.insert(k);
        }
        for k in &keys {
            assert!(f.may_contain(k));
        }
    }

    #[test]
    fn false_positive_rate_is_low() {
        let mut f = KeyFilter::with_capacity(1000, 10);
        for i in 0u64..1000 {
            f.insert(&i.to_be_bytes());
        }
        let hits = (1_000_000u64..1_010_000).filter(|i| f.may_contain(&i.to_be_bytes())).count();
        // ~1% expected at 10 bits/key with 4 probes; 5% is a generous bound.
        assert!(hits < 500, "false positive rate too high: {hits}/10000");
    }
}
