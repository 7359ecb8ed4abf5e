//! Runtime-dispatched SIMD distance kernels.
//!
//! Every claim in PathWeaver is denominated in distance computations, so the
//! wall-clock cost of one `l2_squared` call is the single biggest lever on
//! host-side throughput. This module provides explicit-SIMD implementations
//! of the kernel primitives — squared-L2, inner product, the 4-row blocked
//! squared-L2 used by the gather-distance kernels, sign-bit code
//! construction, the direction-code match counts of one adjacency row, and
//! the int8 code-space distance of the quantized traversal tier — selected
//! once at startup from the CPU's capabilities:
//!
//! - **AVX2 (+FMA and POPCNT detected)** and **SSE2** on `x86_64`,
//! - **NEON** on `aarch64`,
//! - the 4-accumulator **scalar** loops everywhere else (and as the
//!   universal fallback).
//!
//! # The bitwise-identity invariant
//!
//! The simulated-GPU clock is derived from operation counters, and the
//! search kernel's convergence checks feed back into those counters; any
//! change in a single distance bit could change a queue insertion, an
//! iteration count, and ultimately every simulated number in the paper
//! harness. The SIMD paths therefore keep the **exact lane structure of the
//! scalar kernels**:
//!
//! - One vector lane per scalar accumulator `s0..s3`: lane `j` accumulates
//!   `d[4i+j]²` with a separate multiply and add per step, exactly like the
//!   scalar `s_j += d_j * d_j`. Fused multiply-add is deliberately **not**
//!   used even when FMA is available — fusing changes the rounding.
//! - The AVX2 paths widen to two interleaved `f32x4` groups (two consecutive
//!   dimension chunks of one pair, or two rows of the blocked kernel) whose
//!   partial sums are folded back in the scalar program order.
//! - The horizontal reduce extracts lanes and sums them in the scalar order
//!   `s0 + s1 + s2 + s3 + tail` (left-associated), never with `haddps`-style
//!   pairwise trees.
//!
//! Under IEEE-754 every path then performs the identical operation sequence
//! per output, so results are **bitwise identical** across dispatch levels —
//! verified by the `simd_identity` property tests.
//!
//! # Dispatch
//!
//! [`active_kernels`] resolves the kernel table once (an atomic pointer, so
//! the per-call overhead is one relaxed load and an indirect call). The
//! environment variable `PATHWEAVER_SIMD=scalar|sse2|avx2|neon` overrides
//! detection for testing; a level the CPU cannot run falls back to scalar
//! with a warning. Benchmarks and tests can also swap the table at runtime
//! via [`set_simd_level`] — safe because every level returns bitwise-equal
//! results.

use crate::matrix::VectorSet;
use std::sync::atomic::{AtomicPtr, Ordering};

/// A SIMD instruction-set level the kernels can dispatch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdLevel {
    /// Portable 4-accumulator scalar loops (universal fallback).
    Scalar,
    /// 128-bit SSE2 (baseline on every `x86_64`).
    Sse2,
    /// 256-bit AVX2; requires FMA and POPCNT to be present as well (the
    /// detection gate matches real deployments), although fused ops are
    /// never emitted — see the module docs on bitwise identity.
    Avx2,
    /// 128-bit NEON (baseline on every `aarch64`).
    Neon,
}

impl SimdLevel {
    /// Every level, strongest-last.
    pub const ALL: [SimdLevel; 4] =
        [SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Neon, SimdLevel::Avx2];

    /// Lower-case name, matching the `PATHWEAVER_SIMD` syntax.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Neon => "neon",
        }
    }

    /// Parses a `PATHWEAVER_SIMD` value (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "scalar" => Some(SimdLevel::Scalar),
            "sse2" => Some(SimdLevel::Sse2),
            "avx2" => Some(SimdLevel::Avx2),
            "neon" => Some(SimdLevel::Neon),
            _ => None,
        }
    }

    /// Whether this host can execute the level.
    pub fn is_supported(self) -> bool {
        // Under Miri only the scalar path runs: vendor intrinsics are not
        // interpretable, and bitwise identity means scalar covers the
        // semantics of every level.
        if cfg!(miri) {
            return matches!(self, SimdLevel::Scalar);
        }
        match self {
            SimdLevel::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Sse2 => true,
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
                    && std::arch::is_x86_feature_detected!("popcnt")
            }
            #[cfg(target_arch = "aarch64")]
            SimdLevel::Neon => true,
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    /// The strongest level this host supports.
    pub fn detect() -> Self {
        if cfg!(miri) {
            return SimdLevel::Scalar;
        }
        #[cfg(target_arch = "x86_64")]
        {
            if SimdLevel::Avx2.is_supported() {
                return SimdLevel::Avx2;
            }
            return SimdLevel::Sse2;
        }
        #[cfg(target_arch = "aarch64")]
        {
            return SimdLevel::Neon;
        }
        #[allow(unreachable_code)]
        SimdLevel::Scalar
    }

    /// All levels this host supports (scalar first).
    pub fn available() -> Vec<Self> {
        Self::ALL.into_iter().filter(|l| l.is_supported()).collect()
    }
}

/// A resolved table of kernel entry points for one [`SimdLevel`].
///
/// Obtain one through [`active_kernels`] (the dispatched level) or
/// [`kernels_for`] (a specific level, for A/B benchmarking and identity
/// tests). All tables are `'static`; all levels return bitwise-identical
/// results.
pub struct Kernels {
    level: SimdLevel,
    l2_squared: fn(&[f32], &[f32]) -> f32,
    dot: fn(&[f32], &[f32]) -> f32,
    l2_squared_x4: fn([&[f32]; 4], &[f32]) -> [f32; 4],
    sign_code: fn(&[f32], &[f32], &mut [u32]),
    row_matches: fn(&[u32], &[u32], u32, &mut [u32]),
    code_l2_squared: fn(&[i8], &[i8]) -> u32,
}

impl std::fmt::Debug for Kernels {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernels").field("level", &self.level).finish()
    }
}

impl Kernels {
    /// The instruction-set level of this table.
    pub fn level(&self) -> SimdLevel {
        self.level
    }

    /// Squared L2 distance between two equal-length vectors.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    #[inline]
    pub fn l2_squared(&self, a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len(), "l2_squared requires equal-length vectors");
        (self.l2_squared)(a, b)
    }

    /// Inner product of two equal-length vectors.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    #[inline]
    pub fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len(), "dot requires equal-length vectors");
        (self.dot)(a, b)
    }

    /// Four simultaneous squared-L2 distances against one query, bitwise
    /// equal to four [`Kernels::l2_squared`] calls.
    ///
    /// # Panics
    ///
    /// Panics if any row length differs from the query length.
    #[inline]
    pub fn l2_squared_x4(&self, rows: [&[f32]; 4], query: &[f32]) -> [f32; 4] {
        for r in &rows {
            assert_eq!(r.len(), query.len(), "l2_squared_x4 requires equal-length vectors");
        }
        (self.l2_squared_x4)(rows, query)
    }

    /// Packed sign code of `to - from` (see [`crate::signbit::sign_code`]).
    ///
    /// # Panics
    ///
    /// Panics if `from.len() != to.len()` or `out` is shorter than
    /// [`crate::signbit::sign_code_words`]`(dim)`.
    #[inline]
    pub fn sign_code(&self, from: &[f32], to: &[f32], out: &mut [u32]) {
        assert_eq!(from.len(), to.len(), "sign_code length mismatch");
        let words = crate::signbit::sign_code_words(from.len());
        assert!(out.len() >= words, "sign code buffer too small");
        (self.sign_code)(from, to, out);
    }

    /// Matching direction bits between one query code and each of a node's
    /// `out.len()` edge codes: `row` holds the codes back to back
    /// (`out.len() × words` packed words, the layout of a direction-table
    /// row), and `out[j]` receives
    /// [`crate::signbit::hamming_matches`]`(query, row[j·words..(j+1)·words], dim)`.
    ///
    /// This is direction-guided selection's per-expansion ranking pass, one
    /// XOR + popcount per word. Counts are integers, so every dispatch level
    /// returns the identical values by construction; the `simd_identity`
    /// property tests pin it anyway.
    ///
    /// # Panics
    ///
    /// Panics if `query.len()` is not [`crate::signbit::sign_code_words`]`(dim)`,
    /// if `row.len() != out.len() * query.len()`, or if `dim` exceeds `u32`.
    #[inline]
    pub fn row_matches(&self, query: &[u32], row: &[u32], dim: usize, out: &mut [u32]) {
        let words = crate::signbit::sign_code_words(dim);
        assert_eq!(query.len(), words, "row_matches query code must span dim bits");
        assert_eq!(row.len(), out.len() * words, "row_matches row must hold out.len() codes");
        let dim = u32::try_from(dim).expect("dimension fits in u32");
        (self.row_matches)(query, row, dim, out);
    }

    /// Integer code-space squared distance between two equal-length `i8`
    /// code slices: `Σ (a[i] - b[i])²`, accumulated in 32-bit integer lanes.
    ///
    /// This is the quantized-traversal distance primitive (see
    /// [`crate::quantize::QuantizedSet`]). Integer arithmetic is exact, so
    /// every dispatch level returns the identical value by construction; the
    /// `simd_identity` property tests pin it anyway.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or exceed 65 536 codes (the
    /// 32-bit accumulators are sized for vector dimensionalities, where the
    /// worst-case sum `len · 254²` must stay below 2³²).
    #[inline]
    pub fn code_l2_squared(&self, a: &[i8], b: &[i8]) -> u32 {
        assert_eq!(a.len(), b.len(), "code_l2_squared requires equal-length code slices");
        assert!(a.len() <= 1 << 16, "code_l2_squared supports at most 65536 codes");
        (self.code_l2_squared)(a, b)
    }

    /// Squared-L2 distances from `query` to each listed row of `set` (the
    /// blocked gather-distance kernel; see
    /// [`crate::distance::batch_l2_squared`]).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != rows.len()`, if `query.len() != set.dim()`,
    /// or if any row index is out of range.
    pub fn batch_l2_squared(&self, set: &VectorSet, rows: &[u32], query: &[f32], out: &mut [f32]) {
        assert_eq!(out.len(), rows.len(), "output length must match row count");
        assert_eq!(query.len(), set.dim(), "query dimension must match the set");
        let blocks = rows.len() / 4;
        for blk in 0..blocks {
            let b = blk * 4;
            let r = [
                set.row(rows[b] as usize),
                set.row(rows[b + 1] as usize),
                set.row(rows[b + 2] as usize),
                set.row(rows[b + 3] as usize),
            ];
            let d = (self.l2_squared_x4)(r, query);
            out[b..b + 4].copy_from_slice(&d);
        }
        for i in blocks * 4..rows.len() {
            out[i] = (self.l2_squared)(set.row(rows[i] as usize), query);
        }
    }

    /// Multi-query variant of [`Kernels::batch_l2_squared`]; see
    /// [`crate::distance::batch_l2_squared_mq`] for the layout contract.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != rows.len() * queries.len()`, if the
    /// dimensions disagree, or if any row index is out of range.
    pub fn batch_l2_squared_mq(
        &self,
        set: &VectorSet,
        rows: &[u32],
        queries: &VectorSet,
        out: &mut [f32],
    ) {
        assert_eq!(out.len(), rows.len() * queries.len(), "output length must be rows x queries");
        assert_eq!(queries.dim(), set.dim(), "query dimension must match the set");
        let blocks = rows.len() / 4;
        for blk in 0..blocks {
            let b = blk * 4;
            let r = [
                set.row(rows[b] as usize),
                set.row(rows[b + 1] as usize),
                set.row(rows[b + 2] as usize),
                set.row(rows[b + 3] as usize),
            ];
            for (q, query) in queries.iter().enumerate() {
                let d = (self.l2_squared_x4)(r, query);
                let o = q * rows.len() + b;
                out[o..o + 4].copy_from_slice(&d);
            }
        }
        for i in blocks * 4..rows.len() {
            let row = set.row(rows[i] as usize);
            for (q, query) in queries.iter().enumerate() {
                out[q * rows.len() + i] = (self.l2_squared)(row, query);
            }
        }
    }

    /// Squared-L2 distances from `query` to the consecutive rows
    /// `first_row..first_row + out.len()` of `set`.
    ///
    /// The dense sibling of [`Kernels::batch_l2_squared`]: brute-force scans
    /// (ground truth, exact k-NN oracles, inter-shard tables) walk every row
    /// and need no gather list. Results are bitwise identical to per-row
    /// [`Kernels::l2_squared`] calls.
    ///
    /// # Panics
    ///
    /// Panics if the row range exceeds `set.len()` or
    /// `query.len() != set.dim()`.
    pub fn l2_squared_rows(
        &self,
        set: &VectorSet,
        first_row: usize,
        query: &[f32],
        out: &mut [f32],
    ) {
        assert!(first_row + out.len() <= set.len(), "row range out of bounds");
        assert_eq!(query.len(), set.dim(), "query dimension must match the set");
        let blocks = out.len() / 4;
        for blk in 0..blocks {
            let b = first_row + blk * 4;
            let r = [set.row(b), set.row(b + 1), set.row(b + 2), set.row(b + 3)];
            let d = (self.l2_squared_x4)(r, query);
            out[blk * 4..blk * 4 + 4].copy_from_slice(&d);
        }
        for (i, o) in out.iter_mut().enumerate().skip(blocks * 4) {
            *o = (self.l2_squared)(set.row(first_row + i), query);
        }
    }
}

// ---------------------------------------------------------------------------
// Dispatch state
// ---------------------------------------------------------------------------

static ACTIVE: AtomicPtr<Kernels> = AtomicPtr::new(std::ptr::null_mut());

/// Returns the dispatched kernel table (detecting once on first use).
#[inline]
pub fn active_kernels() -> &'static Kernels {
    // Relaxed is sufficient: the pointer is either null or one of the
    // immutable `'static` tables above, fully initialized at compile time,
    // so no reader can observe a partially-built pointee and no
    // happens-before edge is needed (pwlint A001/A002).
    let p = ACTIVE.load(Ordering::Relaxed);
    if p.is_null() {
        init_active()
    } else {
        // SAFETY: the pointer only ever holds one of the `'static` tables.
        unsafe { &*p }
    }
}

/// The level of the dispatched kernel table.
pub fn active_simd_level() -> SimdLevel {
    active_kernels().level
}

#[cold]
fn init_active() -> &'static Kernels {
    let level = match std::env::var("PATHWEAVER_SIMD") {
        Ok(raw) => match SimdLevel::parse(raw.trim()) {
            Some(l) if l.is_supported() => l,
            Some(l) => {
                eprintln!(
                    "pathweaver: PATHWEAVER_SIMD={} is not supported on this CPU; \
                     falling back to scalar",
                    l.name()
                );
                SimdLevel::Scalar
            }
            None => {
                // A typo must not take the process down (or silently slow it
                // to scalar): warn once and use normal detection. Every level
                // is bitwise identical, so only wall-clock could differ.
                eprintln!(
                    "pathweaver: ignoring unknown PATHWEAVER_SIMD={raw:?} \
                     (expected scalar|sse2|avx2|neon); auto-detecting"
                );
                SimdLevel::detect()
            }
        },
        Err(_) => SimdLevel::detect(),
    };
    let k = kernels_for(level).expect("supported level always has a kernel table");
    // Relaxed publish is sound: the pointee is an immutable `'static` table
    // initialized at compile time, so there is nothing for a release fence
    // to order. Racing initializers store the same deterministic choice.
    ACTIVE.store(std::ptr::from_ref(k).cast_mut(), Ordering::Relaxed);
    k
}

/// Forces the dispatched level (test/bench hook).
///
/// Returns `false` (leaving the dispatch unchanged) when this host cannot
/// execute `level`. Swapping levels mid-run is harmless for correctness —
/// every level is bitwise identical — so benchmarks use this to A/B the same
/// code path.
pub fn set_simd_level(level: SimdLevel) -> bool {
    match kernels_for(level) {
        Some(k) => {
            // Relaxed: same immutable-'static-pointee argument as the
            // initial publish in `init_active`.
            ACTIVE.store(std::ptr::from_ref(k).cast_mut(), Ordering::Relaxed);
            true
        }
        None => false,
    }
}

/// Returns the kernel table for `level`, or `None` when this host cannot
/// execute it.
pub fn kernels_for(level: SimdLevel) -> Option<&'static Kernels> {
    if !level.is_supported() {
        return None;
    }
    match level {
        SimdLevel::Scalar => Some(&SCALAR_KERNELS),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => Some(&SSE2_KERNELS),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => Some(&AVX2_KERNELS),
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => Some(&NEON_KERNELS),
        #[allow(unreachable_patterns)]
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Scalar reference kernels (the universal fallback and the identity oracle)
// ---------------------------------------------------------------------------

static SCALAR_KERNELS: Kernels = Kernels {
    level: SimdLevel::Scalar,
    l2_squared: scalar::l2_squared,
    dot: scalar::dot,
    l2_squared_x4: scalar::l2_squared_x4,
    sign_code: scalar::sign_code,
    row_matches: scalar::row_matches,
    code_l2_squared: scalar::code_l2_squared,
};

pub(crate) mod scalar {
    //! The hand-unrolled scalar kernels: four independent accumulators so the
    //! compiler keeps them in registers (mirroring one warp-strided CUDA
    //! accumulation per lane). Every SIMD path reproduces this operation
    //! sequence exactly.

    pub(crate) fn l2_squared(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let chunks = a.len() / 4;
        let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        for i in 0..chunks {
            let o = i * 4;
            let d0 = a[o] - b[o];
            let d1 = a[o + 1] - b[o + 1];
            let d2 = a[o + 2] - b[o + 2];
            let d3 = a[o + 3] - b[o + 3];
            s0 += d0 * d0;
            s1 += d1 * d1;
            s2 += d2 * d2;
            s3 += d3 * d3;
        }
        let mut tail = 0.0f32;
        for i in chunks * 4..a.len() {
            let d = a[i] - b[i];
            tail += d * d;
        }
        s0 + s1 + s2 + s3 + tail
    }

    pub(crate) fn dot(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let chunks = a.len() / 4;
        let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        for i in 0..chunks {
            let o = i * 4;
            s0 += a[o] * b[o];
            s1 += a[o + 1] * b[o + 1];
            s2 += a[o + 2] * b[o + 2];
            s3 += a[o + 3] * b[o + 3];
        }
        let mut tail = 0.0f32;
        for i in chunks * 4..a.len() {
            tail += a[i] * b[i];
        }
        s0 + s1 + s2 + s3 + tail
    }

    /// Four simultaneous squared-L2 distances with the identical accumulator
    /// structure (and therefore FP operation order) as [`l2_squared`].
    pub(crate) fn l2_squared_x4(r: [&[f32]; 4], query: &[f32]) -> [f32; 4] {
        let dim = query.len();
        let chunks = dim / 4;
        // acc[k] holds row k's four partial sums (s0..s3 of `l2_squared`).
        let mut acc = [[0.0f32; 4]; 4];
        for i in 0..chunks {
            let o = i * 4;
            for (k, acc_k) in acc.iter_mut().enumerate() {
                let row = r[k];
                let d0 = row[o] - query[o];
                let d1 = row[o + 1] - query[o + 1];
                let d2 = row[o + 2] - query[o + 2];
                let d3 = row[o + 3] - query[o + 3];
                acc_k[0] += d0 * d0;
                acc_k[1] += d1 * d1;
                acc_k[2] += d2 * d2;
                acc_k[3] += d3 * d3;
            }
        }
        let mut out = [0.0f32; 4];
        for (k, out_k) in out.iter_mut().enumerate() {
            let mut tail = 0.0f32;
            for i in chunks * 4..dim {
                let d = r[k][i] - query[i];
                tail += d * d;
            }
            *out_k = acc[k][0] + acc[k][1] + acc[k][2] + acc[k][3] + tail;
        }
        out
    }

    /// Integer code-space squared distance, 4-accumulator structure to match
    /// the float kernels' shape. Every SIMD path computes the same exact
    /// integer sum (integer addition is associative, unlike FP).
    pub(crate) fn code_l2_squared(a: &[i8], b: &[i8]) -> u32 {
        debug_assert_eq!(a.len(), b.len());
        let chunks = a.len() / 4;
        let (mut s0, mut s1, mut s2, mut s3) = (0u32, 0u32, 0u32, 0u32);
        for i in 0..chunks {
            let o = i * 4;
            let d0 = i32::from(a[o]) - i32::from(b[o]);
            let d1 = i32::from(a[o + 1]) - i32::from(b[o + 1]);
            let d2 = i32::from(a[o + 2]) - i32::from(b[o + 2]);
            let d3 = i32::from(a[o + 3]) - i32::from(b[o + 3]);
            // A squared difference is non-negative, so the u32 casts lose
            // nothing; the dispatch wrapper bounds the length so the u32
            // accumulators cannot wrap.
            s0 += (d0 * d0) as u32;
            s1 += (d1 * d1) as u32;
            s2 += (d2 * d2) as u32;
            s3 += (d3 * d3) as u32;
        }
        let mut tail = 0u32;
        for i in chunks * 4..a.len() {
            let d = i32::from(a[i]) - i32::from(b[i]);
            tail += (d * d) as u32;
        }
        s0 + s1 + s2 + s3 + tail
    }

    /// Per-edge matching bits of one direction-table row against a query
    /// code: `dim − popcount(query XOR code)` per `query.len()`-word code.
    ///
    /// Inlined into the AVX2 entry, where the `popcnt` feature turns
    /// `count_ones` into one instruction; here, on the `x86_64` baseline,
    /// it stays a bit-twiddling sequence.
    #[inline(always)]
    pub(crate) fn row_matches(query: &[u32], row: &[u32], dim: u32, out: &mut [u32]) {
        // The arms for one to four words (up to 128 dimensions) are the same
        // call on purpose: inside each, the code width is a constant, so the
        // compiler unrolls the per-code loop for it (about 2.5x faster at
        // three words than the one loop for every width).
        match query.len() {
            // dim 0: no bits, no matches (and no chunks to split `row` into).
            0 => out.fill(dim),
            1 => row_matches_words(query, row, dim, out),
            2 => row_matches_words(query, row, dim, out),
            3 => row_matches_words(query, row, dim, out),
            4 => row_matches_words(query, row, dim, out),
            _ => row_matches_words(query, row, dim, out),
        }
    }

    #[inline(always)]
    fn row_matches_words(query: &[u32], row: &[u32], dim: u32, out: &mut [u32]) {
        for (code, o) in row.chunks_exact(query.len()).zip(out) {
            let mut mismatches = 0u32;
            for (x, y) in query.iter().zip(code) {
                mismatches += (x ^ y).count_ones();
            }
            *o = dim - mismatches;
        }
    }

    /// Packed sign bits of `to - from`: bit `d` set iff `to[d] > from[d]`.
    pub(crate) fn sign_code(from: &[f32], to: &[f32], out: &mut [u32]) {
        let words = crate::signbit::sign_code_words(from.len());
        out[..words].fill(0);
        for (d, (f, t)) in from.iter().zip(to).enumerate() {
            if t > f {
                out[d / 32] |= 1u32 << (d % 32);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// x86_64: SSE2 and AVX2
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
static SSE2_KERNELS: Kernels = Kernels {
    level: SimdLevel::Sse2,
    l2_squared: x86::l2_squared_sse2_entry,
    dot: x86::dot_sse2_entry,
    l2_squared_x4: x86::l2_squared_x4_sse2_entry,
    sign_code: x86::sign_code_sse2_entry,
    // SSE2 has no popcount; the scalar loop is the SSE2 kernel.
    row_matches: scalar::row_matches,
    code_l2_squared: x86::code_l2_squared_sse2_entry,
};

#[cfg(target_arch = "x86_64")]
static AVX2_KERNELS: Kernels = Kernels {
    level: SimdLevel::Avx2,
    l2_squared: x86::l2_squared_avx2_entry,
    dot: x86::dot_avx2_entry,
    l2_squared_x4: x86::l2_squared_x4_avx2_entry,
    sign_code: x86::sign_code_avx2_entry,
    row_matches: x86::row_matches_avx2_entry,
    code_l2_squared: x86::code_l2_squared_avx2_entry,
};

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! x86_64 kernels. Per the module invariant: separate `sub`/`mul`/`add`
    //! (never FMA), one lane per scalar accumulator, scalar-order reduction.

    use std::arch::x86_64::*;

    // --- safe entry points (installed in the dispatch tables) ---
    //
    // The kernels are safe `#[target_feature]` fns; only the call across the
    // feature boundary is unsafe (the entries must remain plain `fn`s so the
    // dispatch tables can hold them as function pointers), and each call
    // site carries the feature-availability argument.

    pub(super) fn l2_squared_sse2_entry(a: &[f32], b: &[f32]) -> f32 {
        // SAFETY: SSE2 is part of the x86_64 baseline ABI — every CPU this
        // module compiles for executes it.
        unsafe { l2_squared_sse2(a, b) }
    }
    pub(super) fn dot_sse2_entry(a: &[f32], b: &[f32]) -> f32 {
        // SAFETY: SSE2 is part of the x86_64 baseline ABI.
        unsafe { dot_sse2(a, b) }
    }
    pub(super) fn l2_squared_x4_sse2_entry(r: [&[f32]; 4], q: &[f32]) -> [f32; 4] {
        // SAFETY: SSE2 is part of the x86_64 baseline ABI.
        unsafe { l2_squared_x4_sse2(r, q) }
    }
    pub(super) fn sign_code_sse2_entry(f: &[f32], t: &[f32], out: &mut [u32]) {
        // SAFETY: SSE2 is part of the x86_64 baseline ABI.
        unsafe { sign_code_sse2(f, t, out) }
    }
    pub(super) fn l2_squared_avx2_entry(a: &[f32], b: &[f32]) -> f32 {
        // SAFETY: the AVX2 table is only installed by `kernels_for` after
        // `is_x86_feature_detected!` reported avx2, fma and popcnt, so
        // the required features are present whenever this entry is reachable.
        unsafe { l2_squared_avx2(a, b) }
    }
    pub(super) fn dot_avx2_entry(a: &[f32], b: &[f32]) -> f32 {
        // SAFETY: reachable only through the AVX2 table, which `kernels_for`
        // installs exclusively after runtime detection of avx2+fma.
        unsafe { dot_avx2(a, b) }
    }
    pub(super) fn l2_squared_x4_avx2_entry(r: [&[f32]; 4], q: &[f32]) -> [f32; 4] {
        // SAFETY: reachable only through the AVX2 table, which `kernels_for`
        // installs exclusively after runtime detection of avx2+fma.
        unsafe { l2_squared_x4_avx2(r, q) }
    }
    pub(super) fn sign_code_avx2_entry(f: &[f32], t: &[f32], out: &mut [u32]) {
        // SAFETY: reachable only through the AVX2 table, which `kernels_for`
        // installs exclusively after runtime detection of avx2+fma.
        unsafe { sign_code_avx2(f, t, out) }
    }
    pub(super) fn row_matches_avx2_entry(q: &[u32], row: &[u32], dim: u32, out: &mut [u32]) {
        // SAFETY: reachable only through the AVX2 table, which `kernels_for`
        // installs exclusively after runtime detection of avx2+fma+popcnt.
        unsafe { row_matches_avx2(q, row, dim, out) }
    }
    pub(super) fn code_l2_squared_sse2_entry(a: &[i8], b: &[i8]) -> u32 {
        // SAFETY: SSE2 is part of the x86_64 baseline ABI.
        unsafe { code_l2_squared_sse2(a, b) }
    }
    pub(super) fn code_l2_squared_avx2_entry(a: &[i8], b: &[i8]) -> u32 {
        // SAFETY: reachable only through the AVX2 table, which `kernels_for`
        // installs exclusively after runtime detection of avx2+fma.
        unsafe { code_l2_squared_avx2(a, b) }
    }

    /// Sums the four lanes of `v` plus `tail` in scalar program order:
    /// `((s0 + s1) + s2) + s3 + tail`.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn reduce4(v: __m128, tail: f32) -> f32 {
        let mut lanes = [0.0f32; 4];
        // SAFETY: `lanes` is a live local `[f32; 4]`, exactly the 16 bytes
        // the unaligned store writes.
        unsafe { _mm_storeu_ps(lanes.as_mut_ptr(), v) };
        lanes[0] + lanes[1] + lanes[2] + lanes[3] + tail
    }

    #[target_feature(enable = "sse2")]
    fn l2_squared_sse2(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        debug_assert_eq!(n, b.len());
        let chunks = n / 4;
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        let mut acc = _mm_setzero_ps();
        for i in 0..chunks {
            // SAFETY: `i < chunks = n / 4`, so offsets `i * 4 .. i * 4 + 4`
            // lie inside `a`; the dispatch wrapper (`Kernels::l2_squared`)
            // asserts `b.len() == a.len()`, so the load from `bp` is
            // likewise in-bounds.
            let (va, vb) = unsafe { (_mm_loadu_ps(ap.add(i * 4)), _mm_loadu_ps(bp.add(i * 4))) };
            let d = _mm_sub_ps(va, vb);
            acc = _mm_add_ps(acc, _mm_mul_ps(d, d));
        }
        let mut tail = 0.0f32;
        for i in chunks * 4..n {
            let d = a[i] - b[i];
            tail += d * d;
        }
        reduce4(acc, tail)
    }

    #[target_feature(enable = "sse2")]
    fn dot_sse2(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        debug_assert_eq!(n, b.len());
        let chunks = n / 4;
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        let mut acc = _mm_setzero_ps();
        for i in 0..chunks {
            // SAFETY: `i < chunks = n / 4` keeps the 4-wide loads inside
            // `a`, and `Kernels::dot` asserts `b.len() == a.len()`.
            let (va, vb) = unsafe { (_mm_loadu_ps(ap.add(i * 4)), _mm_loadu_ps(bp.add(i * 4))) };
            acc = _mm_add_ps(acc, _mm_mul_ps(va, vb));
        }
        let mut tail = 0.0f32;
        for i in chunks * 4..n {
            tail += a[i] * b[i];
        }
        reduce4(acc, tail)
    }

    #[target_feature(enable = "sse2")]
    fn l2_squared_x4_sse2(r: [&[f32]; 4], query: &[f32]) -> [f32; 4] {
        let dim = query.len();
        debug_assert!(r.iter().all(|row| row.len() == dim));
        let chunks = dim / 4;
        let qp = query.as_ptr();
        let rp = [r[0].as_ptr(), r[1].as_ptr(), r[2].as_ptr(), r[3].as_ptr()];
        let mut acc = [_mm_setzero_ps(); 4];
        for i in 0..chunks {
            let o = i * 4;
            // SAFETY: `o + 4 <= chunks * 4 <= dim = query.len()`.
            let qv = unsafe { _mm_loadu_ps(qp.add(o)) };
            for (k, acc_k) in acc.iter_mut().enumerate() {
                // SAFETY: `Kernels::l2_squared_x4` asserts every row has
                // length `dim`, so `o + 4 <= dim` bounds this load too.
                let rv = unsafe { _mm_loadu_ps(rp[k].add(o)) };
                let d = _mm_sub_ps(rv, qv);
                *acc_k = _mm_add_ps(*acc_k, _mm_mul_ps(d, d));
            }
        }
        let mut out = [0.0f32; 4];
        for (k, out_k) in out.iter_mut().enumerate() {
            let mut tail = 0.0f32;
            for i in chunks * 4..dim {
                let d = r[k][i] - query[i];
                tail += d * d;
            }
            *out_k = reduce4(acc[k], tail);
        }
        out
    }

    #[target_feature(enable = "sse2")]
    fn sign_code_sse2(from: &[f32], to: &[f32], out: &mut [u32]) {
        let dim = from.len();
        debug_assert_eq!(dim, to.len());
        let words = crate::signbit::sign_code_words(dim);
        out[..words].fill(0);
        let chunks = dim / 4;
        let (fp, tp) = (from.as_ptr(), to.as_ptr());
        for i in 0..chunks {
            // SAFETY: `i < chunks = dim / 4` keeps both 4-wide loads inside
            // `from`; `Kernels::sign_code` asserts `to.len() == from.len()`.
            let (f, t) = unsafe { (_mm_loadu_ps(fp.add(i * 4)), _mm_loadu_ps(tp.add(i * 4))) };
            // `to > from` == `from < to`; false on NaN, like the scalar `>`.
            let bits = _mm_movemask_ps(_mm_cmplt_ps(f, t)) as u32;
            let d = i * 4;
            out[d / 32] |= bits << (d % 32);
        }
        for d in chunks * 4..dim {
            if to[d] > from[d] {
                out[d / 32] |= 1u32 << (d % 32);
            }
        }
    }

    /// Sums the four `i32` lanes of `v` plus `tail` in the u32 domain (the
    /// lanes are non-negative partial sums of squares; the dispatch wrapper
    /// bounds the input length so the total fits u32).
    #[inline]
    #[target_feature(enable = "sse2")]
    fn reduce4_i32(v: __m128i, tail: u32) -> u32 {
        let mut lanes = [0i32; 4];
        // SAFETY: `lanes` is a live local `[i32; 4]`, exactly the 16 bytes
        // the unaligned store writes.
        unsafe { _mm_storeu_si128(lanes.as_mut_ptr().cast::<__m128i>(), v) };
        lanes[0] as u32 + lanes[1] as u32 + lanes[2] as u32 + lanes[3] as u32 + tail
    }

    /// Integer code-space squared distance: 16 codes per iteration, each
    /// half sign-extended to `i16`, squared-and-paired with `pmaddwd` into
    /// `i32` lanes. Integer accumulation is exact, so the result equals the
    /// scalar kernel's regardless of lane structure.
    #[target_feature(enable = "sse2")]
    fn code_l2_squared_sse2(a: &[i8], b: &[i8]) -> u32 {
        let n = a.len();
        debug_assert_eq!(n, b.len());
        let chunks = n / 16;
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        let zero = _mm_setzero_si128();
        let mut acc = _mm_setzero_si128();
        for i in 0..chunks {
            // SAFETY: `i < chunks = n / 16` keeps the 16-byte loads inside
            // `a`; `Kernels::code_l2_squared` asserts `b.len() == a.len()`.
            let (va, vb) = unsafe {
                (
                    _mm_loadu_si128(ap.add(i * 16).cast::<__m128i>()),
                    _mm_loadu_si128(bp.add(i * 16).cast::<__m128i>()),
                )
            };
            // Sign-extend each half to i16 by unpacking with the sign mask.
            let (sa, sb) = (_mm_cmpgt_epi8(zero, va), _mm_cmpgt_epi8(zero, vb));
            let dlo = _mm_sub_epi16(_mm_unpacklo_epi8(va, sa), _mm_unpacklo_epi8(vb, sb));
            let dhi = _mm_sub_epi16(_mm_unpackhi_epi8(va, sa), _mm_unpackhi_epi8(vb, sb));
            acc = _mm_add_epi32(acc, _mm_madd_epi16(dlo, dlo));
            acc = _mm_add_epi32(acc, _mm_madd_epi16(dhi, dhi));
        }
        let mut tail = 0u32;
        for i in chunks * 16..n {
            let d = i32::from(a[i]) - i32::from(b[i]);
            tail += (d * d) as u32;
        }
        reduce4_i32(acc, tail)
    }

    /// AVX2 variant: 32 codes per iteration, halves widened with
    /// `vpmovsxbw`, squared-and-paired with `vpmaddwd` into eight `i32`
    /// lanes.
    #[target_feature(enable = "avx2", enable = "fma")]
    fn code_l2_squared_avx2(a: &[i8], b: &[i8]) -> u32 {
        let n = a.len();
        debug_assert_eq!(n, b.len());
        let chunks = n / 32;
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        let mut acc = _mm256_setzero_si256();
        for i in 0..chunks {
            // SAFETY: `i < chunks = n / 32` keeps the 32-byte loads inside
            // `a`; `Kernels::code_l2_squared` asserts `b.len() == a.len()`.
            let (va, vb) = unsafe {
                (
                    _mm256_loadu_si256(ap.add(i * 32).cast::<__m256i>()),
                    _mm256_loadu_si256(bp.add(i * 32).cast::<__m256i>()),
                )
            };
            let alo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(va));
            let ahi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256::<1>(va));
            let blo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(vb));
            let bhi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256::<1>(vb));
            let dlo = _mm256_sub_epi16(alo, blo);
            let dhi = _mm256_sub_epi16(ahi, bhi);
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(dlo, dlo));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(dhi, dhi));
        }
        let folded = _mm_add_epi32(_mm256_castsi256_si128(acc), _mm256_extracti128_si256::<1>(acc));
        let mut tail = 0u32;
        for i in chunks * 32..n {
            let d = i32::from(a[i]) - i32::from(b[i]);
            tail += (d * d) as u32;
        }
        reduce4_i32(folded, tail)
    }

    /// The scalar row-match loop compiled with `popcnt` enabled, so each
    /// word's `count_ones` is one instruction instead of the baseline
    /// bit-twiddling sequence. Integer counts: identical to scalar.
    #[target_feature(enable = "avx2", enable = "fma", enable = "popcnt")]
    fn row_matches_avx2(query: &[u32], row: &[u32], dim: u32, out: &mut [u32]) {
        super::scalar::row_matches(query, row, dim, out);
    }

    // AVX2 processes two dimension chunks per iteration (one 256-bit lane
    // pair), folding the two 128-bit halves into the accumulator in chunk
    // order — the same sequence the scalar loop would execute.

    #[target_feature(enable = "avx2", enable = "fma")]
    fn l2_squared_avx2(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        debug_assert_eq!(n, b.len());
        let chunks = n / 4;
        let pairs = chunks / 2;
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        let mut acc = _mm_setzero_ps();
        for i in 0..pairs {
            // SAFETY: `i < pairs = (n / 4) / 2`, so offsets
            // `i * 8 .. i * 8 + 8` lie inside `a`.
            let va = unsafe { _mm256_loadu_ps(ap.add(i * 8)) };
            // SAFETY: `Kernels::l2_squared` asserts `b.len() == a.len()`,
            // so the same bound covers `b`.
            let vb = unsafe { _mm256_loadu_ps(bp.add(i * 8)) };
            let d = _mm256_sub_ps(va, vb);
            let m = _mm256_mul_ps(d, d);
            acc = _mm_add_ps(acc, _mm256_castps256_ps128(m));
            acc = _mm_add_ps(acc, _mm256_extractf128_ps::<1>(m));
        }
        if chunks % 2 == 1 {
            let o = pairs * 8;
            // SAFETY: the odd chunk spans `o .. o + 4 = chunks * 4 <= n`.
            let (va, vb) = unsafe { (_mm_loadu_ps(ap.add(o)), _mm_loadu_ps(bp.add(o))) };
            let d = _mm_sub_ps(va, vb);
            acc = _mm_add_ps(acc, _mm_mul_ps(d, d));
        }
        let mut tail = 0.0f32;
        for i in chunks * 4..n {
            let d = a[i] - b[i];
            tail += d * d;
        }
        reduce4(acc, tail)
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    fn dot_avx2(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        debug_assert_eq!(n, b.len());
        let chunks = n / 4;
        let pairs = chunks / 2;
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        let mut acc = _mm_setzero_ps();
        for i in 0..pairs {
            // SAFETY: `i < pairs = (n / 4) / 2` keeps the 8-wide load
            // inside `a`.
            let va = unsafe { _mm256_loadu_ps(ap.add(i * 8)) };
            // SAFETY: `Kernels::dot` asserts `b.len() == a.len()`, so the
            // same bound covers `b`.
            let vb = unsafe { _mm256_loadu_ps(bp.add(i * 8)) };
            let m = _mm256_mul_ps(va, vb);
            acc = _mm_add_ps(acc, _mm256_castps256_ps128(m));
            acc = _mm_add_ps(acc, _mm256_extractf128_ps::<1>(m));
        }
        if chunks % 2 == 1 {
            let o = pairs * 8;
            // SAFETY: the odd chunk spans `o .. o + 4 = chunks * 4 <= n`.
            let (va, vb) = unsafe { (_mm_loadu_ps(ap.add(o)), _mm_loadu_ps(bp.add(o))) };
            acc = _mm_add_ps(acc, _mm_mul_ps(va, vb));
        }
        let mut tail = 0.0f32;
        for i in chunks * 4..n {
            tail += a[i] * b[i];
        }
        reduce4(acc, tail)
    }

    /// Blocked kernel: rows (0,1) and (2,3) share one 256-bit accumulator
    /// each (two interleaved `f32x4` lane groups); the query chunk is
    /// broadcast to both halves. Lanes never cross rows, so each row's
    /// accumulation is the exact scalar sequence.
    #[target_feature(enable = "avx2", enable = "fma")]
    fn l2_squared_x4_avx2(r: [&[f32]; 4], query: &[f32]) -> [f32; 4] {
        let dim = query.len();
        debug_assert!(r.iter().all(|row| row.len() == dim));
        let chunks = dim / 4;
        let qp = query.as_ptr();
        let rp = [r[0].as_ptr(), r[1].as_ptr(), r[2].as_ptr(), r[3].as_ptr()];
        let mut acc01 = _mm256_setzero_ps();
        let mut acc23 = _mm256_setzero_ps();
        for i in 0..chunks {
            let o = i * 4;
            // SAFETY: `o + 4 <= chunks * 4 <= dim`, and
            // `Kernels::l2_squared_x4` asserts every row has length `dim`,
            // so each of the five 4-wide loads stays in-bounds.
            let (qv, v01, v23) = unsafe {
                (
                    _mm_loadu_ps(qp.add(o)),
                    _mm256_set_m128(_mm_loadu_ps(rp[1].add(o)), _mm_loadu_ps(rp[0].add(o))),
                    _mm256_set_m128(_mm_loadu_ps(rp[3].add(o)), _mm_loadu_ps(rp[2].add(o))),
                )
            };
            let q2 = _mm256_set_m128(qv, qv);
            let d01 = _mm256_sub_ps(v01, q2);
            let d23 = _mm256_sub_ps(v23, q2);
            acc01 = _mm256_add_ps(acc01, _mm256_mul_ps(d01, d01));
            acc23 = _mm256_add_ps(acc23, _mm256_mul_ps(d23, d23));
        }
        let accs = [
            _mm256_castps256_ps128(acc01),
            _mm256_extractf128_ps::<1>(acc01),
            _mm256_castps256_ps128(acc23),
            _mm256_extractf128_ps::<1>(acc23),
        ];
        let mut out = [0.0f32; 4];
        for (k, out_k) in out.iter_mut().enumerate() {
            let mut tail = 0.0f32;
            for i in chunks * 4..dim {
                let d = r[k][i] - query[i];
                tail += d * d;
            }
            *out_k = reduce4(accs[k], tail);
        }
        out
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    fn sign_code_avx2(from: &[f32], to: &[f32], out: &mut [u32]) {
        let dim = from.len();
        debug_assert_eq!(dim, to.len());
        let words = crate::signbit::sign_code_words(dim);
        out[..words].fill(0);
        let groups = dim / 8;
        let (fp, tp) = (from.as_ptr(), to.as_ptr());
        for i in 0..groups {
            // SAFETY: `i < groups = dim / 8` keeps this 8-wide load inside `from`.
            let f = unsafe { _mm256_loadu_ps(fp.add(i * 8)) };
            // SAFETY: `Kernels::sign_code` asserts `to.len() == from.len()`,
            // so the same bound keeps the load inside `to`.
            let t = unsafe { _mm256_loadu_ps(tp.add(i * 8)) };
            // Ordered `from < to`, quiet on NaN — matches the scalar `>`.
            let bits = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_LT_OQ>(f, t)) as u32;
            let d = i * 8;
            out[d / 32] |= bits << (d % 32);
        }
        for d in groups * 8..dim {
            if to[d] > from[d] {
                out[d / 32] |= 1u32 << (d % 32);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// aarch64: NEON
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
static NEON_KERNELS: Kernels = Kernels {
    level: SimdLevel::Neon,
    l2_squared: neon::l2_squared_neon_entry,
    dot: neon::dot_neon_entry,
    l2_squared_x4: neon::l2_squared_x4_neon_entry,
    sign_code: neon::sign_code_neon_entry,
    row_matches: neon::row_matches_neon_entry,
    code_l2_squared: neon::code_l2_squared_neon_entry,
};

#[cfg(target_arch = "aarch64")]
mod neon {
    //! aarch64 NEON kernels: one `float32x4` lane per scalar accumulator,
    //! separate multiply/add (no `vfma`), scalar-order reduction.

    use std::arch::aarch64::*;

    // The kernels are safe `#[target_feature]` fns; only the call across the
    // feature boundary is unsafe (the entries must remain plain `fn`s so the
    // dispatch table can hold them as function pointers).

    pub(super) fn l2_squared_neon_entry(a: &[f32], b: &[f32]) -> f32 {
        // SAFETY: NEON is part of the aarch64 baseline ABI — every CPU this
        // module compiles for executes it.
        unsafe { l2_squared_neon(a, b) }
    }
    pub(super) fn dot_neon_entry(a: &[f32], b: &[f32]) -> f32 {
        // SAFETY: NEON is part of the aarch64 baseline ABI.
        unsafe { dot_neon(a, b) }
    }
    pub(super) fn l2_squared_x4_neon_entry(r: [&[f32]; 4], q: &[f32]) -> [f32; 4] {
        // SAFETY: NEON is part of the aarch64 baseline ABI.
        unsafe { l2_squared_x4_neon(r, q) }
    }
    pub(super) fn sign_code_neon_entry(f: &[f32], t: &[f32], out: &mut [u32]) {
        // SAFETY: NEON is part of the aarch64 baseline ABI.
        unsafe { sign_code_neon(f, t, out) }
    }
    pub(super) fn code_l2_squared_neon_entry(a: &[i8], b: &[i8]) -> u32 {
        // SAFETY: NEON is part of the aarch64 baseline ABI.
        unsafe { code_l2_squared_neon(a, b) }
    }
    pub(super) fn row_matches_neon_entry(q: &[u32], row: &[u32], dim: u32, out: &mut [u32]) {
        // SAFETY: NEON is part of the aarch64 baseline ABI.
        unsafe { row_matches_neon(q, row, dim, out) }
    }

    /// Sums the four lanes of `v` plus `tail` in scalar program order.
    #[inline]
    #[target_feature(enable = "neon")]
    fn reduce4(v: float32x4_t, tail: f32) -> f32 {
        let mut lanes = [0.0f32; 4];
        // SAFETY: `lanes` is a live local `[f32; 4]`, exactly the 16 bytes
        // the store writes.
        unsafe { vst1q_f32(lanes.as_mut_ptr(), v) };
        lanes[0] + lanes[1] + lanes[2] + lanes[3] + tail
    }

    #[target_feature(enable = "neon")]
    fn l2_squared_neon(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        debug_assert_eq!(n, b.len());
        let chunks = n / 4;
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        let mut acc = vdupq_n_f32(0.0);
        for i in 0..chunks {
            // SAFETY: `i < chunks = n / 4` keeps offsets `i * 4 .. i * 4 + 4`
            // inside `a`; `Kernels::l2_squared` asserts `b.len() == a.len()`.
            let (va, vb) = unsafe { (vld1q_f32(ap.add(i * 4)), vld1q_f32(bp.add(i * 4))) };
            let d = vsubq_f32(va, vb);
            acc = vaddq_f32(acc, vmulq_f32(d, d));
        }
        let mut tail = 0.0f32;
        for i in chunks * 4..n {
            let d = a[i] - b[i];
            tail += d * d;
        }
        reduce4(acc, tail)
    }

    #[target_feature(enable = "neon")]
    fn dot_neon(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        debug_assert_eq!(n, b.len());
        let chunks = n / 4;
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        let mut acc = vdupq_n_f32(0.0);
        for i in 0..chunks {
            // SAFETY: `i < chunks = n / 4` keeps the 4-wide loads inside
            // `a`; `Kernels::dot` asserts `b.len() == a.len()`.
            let (va, vb) = unsafe { (vld1q_f32(ap.add(i * 4)), vld1q_f32(bp.add(i * 4))) };
            acc = vaddq_f32(acc, vmulq_f32(va, vb));
        }
        let mut tail = 0.0f32;
        for i in chunks * 4..n {
            tail += a[i] * b[i];
        }
        reduce4(acc, tail)
    }

    #[target_feature(enable = "neon")]
    fn l2_squared_x4_neon(r: [&[f32]; 4], query: &[f32]) -> [f32; 4] {
        let dim = query.len();
        debug_assert!(r.iter().all(|row| row.len() == dim));
        let chunks = dim / 4;
        let qp = query.as_ptr();
        let rp = [r[0].as_ptr(), r[1].as_ptr(), r[2].as_ptr(), r[3].as_ptr()];
        let mut acc = [vdupq_n_f32(0.0); 4];
        for i in 0..chunks {
            let o = i * 4;
            // SAFETY: `o + 4 <= chunks * 4 <= dim = query.len()`.
            let qv = unsafe { vld1q_f32(qp.add(o)) };
            for (k, acc_k) in acc.iter_mut().enumerate() {
                // SAFETY: `Kernels::l2_squared_x4` asserts every row has
                // length `dim`, so `o + 4 <= dim` bounds this load too.
                let rv = unsafe { vld1q_f32(rp[k].add(o)) };
                let d = vsubq_f32(rv, qv);
                *acc_k = vaddq_f32(*acc_k, vmulq_f32(d, d));
            }
        }
        let mut out = [0.0f32; 4];
        for (k, out_k) in out.iter_mut().enumerate() {
            let mut tail = 0.0f32;
            for i in chunks * 4..dim {
                let d = r[k][i] - query[i];
                tail += d * d;
            }
            *out_k = reduce4(acc[k], tail);
        }
        out
    }

    /// Integer code-space squared distance: 16 codes per iteration, widened
    /// differences (`vsubl`) squared-and-accumulated (`vmlal`) into `i32`
    /// lanes. Integer accumulation is exact, so the result equals the scalar
    /// kernel's regardless of lane structure.
    #[target_feature(enable = "neon")]
    fn code_l2_squared_neon(a: &[i8], b: &[i8]) -> u32 {
        let n = a.len();
        debug_assert_eq!(n, b.len());
        let chunks = n / 16;
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        let mut acc = vdupq_n_s32(0);
        for i in 0..chunks {
            // SAFETY: `i < chunks = n / 16` keeps the 16-byte loads inside
            // `a`; `Kernels::code_l2_squared` asserts `b.len() == a.len()`.
            let (va, vb) = unsafe { (vld1q_s8(ap.add(i * 16)), vld1q_s8(bp.add(i * 16))) };
            let dlo = vsubl_s8(vget_low_s8(va), vget_low_s8(vb));
            let dhi = vsubl_high_s8(va, vb);
            acc = vmlal_s16(acc, vget_low_s16(dlo), vget_low_s16(dlo));
            acc = vmlal_high_s16(acc, dlo, dlo);
            acc = vmlal_s16(acc, vget_low_s16(dhi), vget_low_s16(dhi));
            acc = vmlal_high_s16(acc, dhi, dhi);
        }
        let mut tail = 0u32;
        for i in chunks * 16..n {
            let d = i32::from(a[i]) - i32::from(b[i]);
            tail += (d * d) as u32;
        }
        // The lanes are non-negative partial sums; the dispatch wrapper
        // bounds the length so the u32 total cannot wrap.
        vaddvq_s32(acc) as u32 + tail
    }

    /// Direction-row match counts: four code words per iteration, XORed and
    /// counted per byte with `vcnt`, the sixteen byte counts (at most 128)
    /// summed with `vaddv`; leftover words use `count_ones`. Integer counts:
    /// identical to scalar.
    #[target_feature(enable = "neon")]
    fn row_matches_neon(query: &[u32], row: &[u32], dim: u32, out: &mut [u32]) {
        let words = query.len();
        if words == 0 {
            out.fill(dim);
            return;
        }
        let quads = words / 4;
        let qp = query.as_ptr();
        for (code, o) in row.chunks_exact(words).zip(out) {
            let cp = code.as_ptr();
            let mut mismatches = 0u32;
            for i in 0..quads {
                // SAFETY: `i < quads = words / 4` keeps both 4-word loads
                // inside `query` and `code`, which are `words` long.
                let (q, c) = unsafe { (vld1q_u32(qp.add(i * 4)), vld1q_u32(cp.add(i * 4))) };
                let bytes = vcntq_u8(vreinterpretq_u8_u32(veorq_u32(q, c)));
                mismatches += u32::from(vaddvq_u8(bytes));
            }
            for (x, y) in query[quads * 4..].iter().zip(&code[quads * 4..]) {
                mismatches += (x ^ y).count_ones();
            }
            *o = dim - mismatches;
        }
    }

    #[target_feature(enable = "neon")]
    fn sign_code_neon(from: &[f32], to: &[f32], out: &mut [u32]) {
        let dim = from.len();
        debug_assert_eq!(dim, to.len());
        let words = crate::signbit::sign_code_words(dim);
        out[..words].fill(0);
        let chunks = dim / 4;
        let (fp, tp) = (from.as_ptr(), to.as_ptr());
        let weights: [u32; 4] = [1, 2, 4, 8];
        // SAFETY: `weights` is a live local `[u32; 4]`, exactly the 16 bytes
        // the load reads.
        let wv = unsafe { vld1q_u32(weights.as_ptr()) };
        for i in 0..chunks {
            // SAFETY: `i < chunks = dim / 4` keeps both 4-wide loads inside
            // `from`; `Kernels::sign_code` asserts `to.len() == from.len()`.
            let (f, t) = unsafe { (vld1q_f32(fp.add(i * 4)), vld1q_f32(tp.add(i * 4))) };
            // Lanes where `to > from` become all-ones; mask to one bit per
            // lane and horizontal-add into a 4-bit group.
            let m = vcgtq_f32(t, f);
            let bits = vaddvq_u32(vandq_u32(m, wv));
            let d = i * 4;
            out[d / 32] |= bits << (d % 32);
        }
        for d in chunks * 4..dim {
            if to[d] > from[d] {
                out[d / 32] |= 1u32 << (d % 32);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        for l in SimdLevel::ALL {
            assert_eq!(SimdLevel::parse(l.name()), Some(l));
        }
        assert_eq!(SimdLevel::parse("AVX2"), Some(SimdLevel::Avx2));
        assert_eq!(SimdLevel::parse("avx512"), None);
    }

    #[test]
    fn scalar_always_available() {
        assert!(SimdLevel::Scalar.is_supported());
        assert!(kernels_for(SimdLevel::Scalar).is_some());
        assert!(SimdLevel::available().contains(&SimdLevel::Scalar));
    }

    #[test]
    fn detect_is_supported() {
        let l = SimdLevel::detect();
        assert!(l.is_supported());
        assert!(kernels_for(l).is_some());
    }

    #[test]
    fn active_kernels_resolve() {
        let k = active_kernels();
        assert!(k.level().is_supported());
        // Trivial smoke: zero distance to self through whatever path is live.
        let v: Vec<f32> = (0..33).map(|i| i as f32 * 0.5).collect();
        assert_eq!(k.l2_squared(&v, &v), 0.0);
    }

    #[test]
    fn set_level_rejects_unsupported() {
        #[cfg(target_arch = "x86_64")]
        assert!(!set_simd_level(SimdLevel::Neon));
        #[cfg(target_arch = "aarch64")]
        assert!(!set_simd_level(SimdLevel::Avx2));
    }

    #[test]
    fn every_available_level_matches_scalar_bitwise() {
        let a: Vec<f32> = (0..259).map(|i| (i as f32 * 0.37).sin() * 3.0).collect();
        let b: Vec<f32> = (0..259).map(|i| (i as f32 * 0.51).cos() * 2.0).collect();
        let scalar = kernels_for(SimdLevel::Scalar).unwrap();
        for level in SimdLevel::available() {
            let k = kernels_for(level).unwrap();
            for dim in [0usize, 1, 3, 4, 7, 8, 15, 16, 31, 64, 96, 100, 128, 259] {
                let (xa, xb) = (&a[..dim], &b[..dim]);
                assert_eq!(
                    k.l2_squared(xa, xb).to_bits(),
                    scalar.l2_squared(xa, xb).to_bits(),
                    "l2 {} dim {dim}",
                    level.name()
                );
                assert_eq!(
                    k.dot(xa, xb).to_bits(),
                    scalar.dot(xa, xb).to_bits(),
                    "dot {} dim {dim}",
                    level.name()
                );
            }
        }
    }

    #[test]
    fn code_distance_matches_scalar_on_every_level() {
        // Mixed-sign codes hitting both unpack halves and every tail length
        // around the 16/32-byte chunk boundaries.
        let a: Vec<i8> =
            (0i32..300).map(|i| i8::try_from((i * 37 + 11) % 255 - 127).unwrap()).collect();
        let b: Vec<i8> =
            (0i32..300).map(|i| i8::try_from((i * 91 + 5) % 255 - 127).unwrap()).collect();
        let scalar = kernels_for(SimdLevel::Scalar).unwrap();
        for level in SimdLevel::available() {
            let k = kernels_for(level).unwrap();
            for len in [0usize, 1, 4, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 128, 300] {
                assert_eq!(
                    k.code_l2_squared(&a[..len], &b[..len]),
                    scalar.code_l2_squared(&a[..len], &b[..len]),
                    "codes {} len {len}",
                    level.name()
                );
            }
        }
        // Worst-case magnitudes do not overflow the 32-bit accumulators.
        let lo = vec![-127i8; 1024];
        let hi = vec![127i8; 1024];
        assert_eq!(scalar.code_l2_squared(&lo, &hi), 1024 * 254 * 254);
        for level in SimdLevel::available() {
            let k = kernels_for(level).unwrap();
            assert_eq!(k.code_l2_squared(&lo, &hi), 1024 * 254 * 254);
        }
    }
}
