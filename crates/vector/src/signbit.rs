//! 1-bit direction codes (paper §3.3, §4).
//!
//! Direction-guided selection approximates the *direction* of an edge
//! `src -> dst` by the sign of every coordinate of `dst - src`, packing one
//! bit per coordinate into `u32` words (bit set ⇔ coordinate increases).
//! At search time the same code is computed for `query - visiting_node`, and
//! neighbors are ranked by how many sign bits match: a neighbor whose edge
//! points mostly "towards the query" keeps more matching bits. Matching is a
//! XOR + popcount per word — orders of magnitude cheaper than reading the
//! neighbor's full `d`-dimensional vector for an exact distance.

/// Returns the number of `u32` words needed to hold `dim` sign bits.
#[inline]
pub const fn sign_code_words(dim: usize) -> usize {
    dim.div_ceil(32)
}

/// Computes the packed sign code of `to - from` into `out`.
///
/// Bit `d` of the code is 1 iff `to[d] > from[d]`. Bits beyond `dim` stay 0,
/// so codes of equal `dim` are directly comparable word-by-word.
///
/// Forwards to the runtime-dispatched SIMD kernel (see [`crate::simd`]):
/// SSE2/AVX2 compare-and-movemask or NEON compare-and-weighted-add, all
/// producing identical codes to the scalar loop (including on NaN, where the
/// ordered `>` comparison is false on every path).
///
/// # Panics
///
/// Panics if `from.len() != to.len()` or `out` is shorter than
/// [`sign_code_words`]`(dim)`.
pub fn sign_code(from: &[f32], to: &[f32], out: &mut [u32]) {
    crate::simd::active_kernels().sign_code(from, to, out);
}

/// Counts matching direction bits between two codes over `dim` dimensions.
///
/// Matching bits = `dim - popcount(a XOR b)` restricted to the `dim` valid
/// bits; both codes must have been produced with the same `dim` (so their
/// padding bits are both zero and never count as mismatches).
#[inline]
pub fn hamming_matches(a: &[u32], b: &[u32], dim: usize) -> u32 {
    debug_assert_eq!(a.len(), b.len());
    let mut mismatches = 0u32;
    for (x, y) in a.iter().zip(b) {
        mismatches += (x ^ y).count_ones();
    }
    u32::try_from(dim).expect("dimension fits in u32") - mismatches
}

/// A reusable buffer holding one packed sign code.
///
/// Avoids per-iteration allocation inside the search kernel: the kernel
/// computes the query-direction code once per visited node into this buffer.
#[derive(Debug, Clone)]
pub struct SignCodeBuf {
    dim: usize,
    words: Vec<u32>,
}

impl SignCodeBuf {
    /// Creates a zeroed code buffer for `dim` dimensions.
    pub fn new(dim: usize) -> Self {
        Self { dim, words: vec![0; sign_code_words(dim)] }
    }

    /// Returns the dimensionality this buffer encodes.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Recomputes the buffer as the sign code of `to - from`.
    pub fn encode(&mut self, from: &[f32], to: &[f32]) {
        sign_code(from, to, &mut self.words);
    }

    /// Returns the packed words.
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// Counts matching bits against each of `out.len()` codes stored back to
    /// back in `row` (a direction-table row), through the dispatched
    /// [`crate::simd::Kernels::row_matches`]; `out[j]` equals
    /// [`hamming_matches`] against the `j`-th code.
    ///
    /// # Panics
    ///
    /// Panics if `row.len()` is not `out.len()` codes of this buffer's width.
    #[inline]
    pub fn row_matches(&self, row: &[u32], out: &mut [u32]) {
        crate::simd::active_kernels().row_matches(&self.words, row, self.dim, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_rounding() {
        assert_eq!(sign_code_words(1), 1);
        assert_eq!(sign_code_words(32), 1);
        assert_eq!(sign_code_words(33), 2);
        assert_eq!(sign_code_words(96), 3);
        assert_eq!(sign_code_words(960), 30);
    }

    #[test]
    fn encodes_signs() {
        let from = [0.0f32, 0.0, 0.0, 0.0];
        let to = [1.0f32, -1.0, 0.0, 2.0];
        let mut code = [0u32; 1];
        sign_code(&from, &to, &mut code);
        // Bits 0 and 3 set (strictly increasing coords only).
        assert_eq!(code[0], 0b1001);
    }

    #[test]
    fn identical_codes_fully_match() {
        let a: Vec<f32> = (0..100).map(|i| (i as f32).sin()).collect();
        let b: Vec<f32> = (0..100).map(|i| (i as f32).cos()).collect();
        let mut ca = vec![0u32; sign_code_words(100)];
        let mut cb = vec![0u32; sign_code_words(100)];
        sign_code(&a, &b, &mut ca);
        sign_code(&a, &b, &mut cb);
        assert_eq!(hamming_matches(&ca, &cb, 100), 100);
    }

    #[test]
    fn opposite_directions_fully_mismatch() {
        let from = vec![0.0f32; 64];
        let up: Vec<f32> = vec![1.0; 64];
        let down: Vec<f32> = vec![-1.0; 64];
        let mut cu = vec![0u32; 2];
        let mut cd = vec![0u32; 2];
        sign_code(&from, &up, &mut cu);
        sign_code(&from, &down, &mut cd);
        assert_eq!(hamming_matches(&cu, &cd, 64), 0);
    }

    #[test]
    fn aligned_neighbor_outranks_misaligned() {
        // Query is "up and right" of the node; the neighbor pointing the same
        // way must score more matching bits than one pointing away.
        let node = [0.0f32, 0.0, 0.0, 0.0];
        let query = [1.0f32, 1.0, 1.0, 1.0];
        let good = [0.5f32, 0.6, 0.4, 0.7];
        let bad = [-0.5f32, -0.2, -0.9, 0.1];
        let mut cq = SignCodeBuf::new(4);
        cq.encode(&node, &query);
        let mut cg = vec![0u32; 1];
        let mut cb = vec![0u32; 1];
        sign_code(&node, &good, &mut cg);
        sign_code(&node, &bad, &mut cb);
        let mut m = [0u32; 2];
        cq.row_matches(&[cg[0], cb[0]], &mut m);
        assert!(m[0] > m[1]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let mut out = [0u32; 1];
        sign_code(&[0.0], &[0.0, 1.0], &mut out);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn matches_bounded_by_dim(
            v in proptest::collection::vec((-10.0f32..10.0, -10.0f32..10.0, -10.0f32..10.0), 1..200)
        ) {
            let dim = v.len();
            let from: Vec<f32> = v.iter().map(|t| t.0).collect();
            let a: Vec<f32> = v.iter().map(|t| t.1).collect();
            let b: Vec<f32> = v.iter().map(|t| t.2).collect();
            let mut ca = vec![0u32; sign_code_words(dim)];
            let mut cb = vec![0u32; sign_code_words(dim)];
            sign_code(&from, &a, &mut ca);
            sign_code(&from, &b, &mut cb);
            let m = hamming_matches(&ca, &cb, dim);
            let dim32 = u32::try_from(dim).unwrap();
            prop_assert!(m <= dim32);
            // Self-match is always exactly dim.
            prop_assert_eq!(hamming_matches(&ca, &ca, dim), dim32);
        }

        #[test]
        fn padding_bits_never_mismatch(dim in 1usize..70) {
            // Two arbitrary codes of the same dim: mismatches can be at most dim,
            // i.e. matches is never negative (would underflow in u32).
            let from: Vec<f32> = vec![0.0; dim];
            let to_a: Vec<f32> = (0..dim).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
            let to_b: Vec<f32> = (0..dim).map(|i| if i % 3 == 0 { 1.0 } else { -1.0 }).collect();
            let mut ca = vec![0u32; sign_code_words(dim)];
            let mut cb = vec![0u32; sign_code_words(dim)];
            sign_code(&from, &to_a, &mut ca);
            sign_code(&from, &to_b, &mut cb);
            let m = hamming_matches(&ca, &cb, dim) as usize;
            prop_assert!(m <= dim);
        }
    }
}
