//! The workspace's two deterministic mixers: the [`SplitMix64`] stream
//! behind every seeded adversary and jitter source, and byte-wise
//! [`fnv1a`] behind every content digest (wiring, manifests, serving
//! results). Each caller keeps its own seeding, so its stream and its
//! committed digests stay what they were.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// SplitMix64: a tiny, high-quality, dependency-free 64-bit stream
/// (public-domain constants).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// The stream's increment (the 64-bit golden ratio), also used by
    /// callers to spread seeds.
    pub const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

    /// A stream starting from raw `state`; the first output mixes
    /// `state + GAMMA`.
    #[inline]
    #[must_use]
    pub fn new(state: u64) -> SplitMix64 {
        SplitMix64 { state }
    }

    /// The next output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(Self::GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// FNV-1a (64-bit) over `bytes`.
#[inline]
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// Continues an FNV-1a hash `hash` over more `bytes`.
#[inline]
pub(crate) fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::{fnv1a, SplitMix64};

    #[test]
    fn splitmix64_matches_the_reference_stream() {
        // First outputs of the reference implementation seeded with 0.
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(rng.next_u64(), 0x6e78_9e6a_a1b9_65f4);
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
