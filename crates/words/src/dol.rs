//! D0L sequence analysis: fixed points, repetition-freeness, and subword
//! complexity profiles.
//!
//! The paper's lower-bound strings descend directly from Thue's study of
//! square-free words via iterated homomorphisms ([14, 15] in its
//! bibliography), and §8 relates its *repetitiveness* notion to the
//! subword complexity of D0L languages \[6\]. This module provides those
//! classical tools: they validate that our generators behave like the
//! objects the theory says they are (e.g. Thue–Morse is overlap-free,
//! repetitive strings have `O(k)` distinct `k`-subwords).

use crate::homomorphism::Homomorphism;
use crate::word::Word;

/// A prefix of length `len` of the infinite fixed point `h^∞(seed)`.
///
/// Requires `h(seed)` to start with `seed` (the prolongability condition
/// for a D0L fixed point) and `h` to be growing on some letter reachable
/// from the seed.
///
/// # Panics
///
/// Panics if `h(seed)` does not extend `seed`, or if iteration stops
/// growing before reaching `len` symbols.
#[must_use]
pub fn fixed_point_prefix(h: &Homomorphism, seed: u8, len: usize) -> Word {
    let seed_word = Word::from_symbols(vec![seed]);
    let image = h.apply(&seed_word);
    assert!(
        image.len() > 1 && image.symbol(0) == seed,
        "h must be prolongable on the seed"
    );
    let mut w = seed_word;
    while w.len() < len {
        let next = h.apply(&w);
        assert!(next.len() > w.len(), "homomorphism stopped growing");
        w = next;
    }
    Word::from_symbols(w.as_slice()[..len].to_vec())
}

/// Whether the word contains a *square* `xx` (a nonempty block repeated
/// immediately) — Thue 1906 built infinite square-free words over three
/// letters; over two letters squares are unavoidable beyond length 3.
#[must_use]
pub fn has_square(w: &Word) -> bool {
    let n = w.len();
    let s = w.as_slice();
    for i in 0..n {
        for l in 1..=(n - i) / 2 {
            if s[i..i + l] == s[i + l..i + 2 * l] {
                return true;
            }
        }
    }
    false
}

/// Whether the word contains an *overlap* `axaxa` (equivalently, a block
/// repeated twice plus its first letter). Thue 1912: the Thue–Morse word
/// is overlap-free.
#[must_use]
pub fn has_overlap(w: &Word) -> bool {
    let n = w.len();
    let s = w.as_slice();
    for i in 0..n {
        // overlap of period l starting at i: s[i..i+2l+1] with
        // s[j] == s[j+l] for all j in i..=i+l.
        for l in 1..=(n.saturating_sub(i + 1)) / 2 {
            if (i..=i + l).all(|j| s[j] == s[j + l]) {
                return true;
            }
        }
    }
    false
}

/// The subword complexity profile `k ↦ #distinct cyclic k-subwords` for
/// `k = 1..=max_k` — §8's bridge between repetitiveness and D0L subword
/// complexity: a string in which every `k`-subword repeats `Ω(n/k)` times
/// has only `O(k)` distinct `k`-subwords.
#[must_use]
pub fn complexity_profile(w: &Word, max_k: usize) -> Vec<usize> {
    (1..=max_k).map(|k| w.subword_complexity(k)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::homomorphism::thue_morse;

    #[test]
    fn thue_morse_fixed_point_is_the_limit_of_iterates() {
        let h = thue_morse();
        let prefix = fixed_point_prefix(&h, 0, 64);
        let iterate = h.iterate(&Word::parse("0"), 6);
        assert_eq!(prefix, iterate);
        // Known prefix: 0110100110010110...
        assert_eq!(&prefix.to_string()[..16], "0110100110010110");
    }

    #[test]
    fn thue_morse_is_overlap_free_hence_cube_free() {
        let w = fixed_point_prefix(&thue_morse(), 0, 256);
        assert!(!has_overlap(&w), "Thue 1912");
        // ...but like every long binary word it has squares.
        assert!(has_square(&w));
    }

    #[test]
    fn squares_and_overlaps_are_detected() {
        assert!(has_square(&Word::parse("0101")));
        assert!(!has_square(&Word::parse("010")));
        assert!(has_overlap(&Word::parse("01010")));
        assert!(!has_overlap(&Word::parse("0110")));
        assert!(!has_overlap(&Word::parse("011010011")));
    }

    #[test]
    fn repetitive_strings_have_linear_subword_complexity() {
        // The paper's §8 remark: every k-subword of the XOR lower-bound
        // string repeats often, so there are at most O(k) of them.
        let h = Homomorphism::parse("011", "100");
        let w = h.iterate(&Word::parse("0"), 6); // n = 729
        for (k, &c) in complexity_profile(&w, 12).iter().enumerate() {
            let k = k + 1;
            assert!(c <= 8 * k, "k={k}: complexity {c} not O(k)");
        }
        // Contrast: a pseudo-random word has complexity ~min(2^k, n).
        let rnd = Word::from_symbols(
            (0..729u64)
                .map(|i| {
                    let mut z = i.wrapping_add(0x9e37_79b9_7f4a_7c15);
                    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                    ((z ^ (z >> 31)) & 1) as u8
                })
                .collect(),
        );
        assert!(rnd.subword_complexity(8) > 200);
    }

    #[test]
    #[should_panic(expected = "prolongable")]
    fn fixed_point_requires_prolongability() {
        // h(0) = 10 does not start with 0.
        let h = Homomorphism::parse("10", "01");
        let _ = fixed_point_prefix(&h, 0, 10);
    }
}
