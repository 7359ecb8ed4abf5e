//! Per-dimension scalar `i8` quantization — the traversal compression tier.
//!
//! The paper's profile (§2, Fig 2) shows beam search is memory-bound:
//! \>80–95 % of kernel time is streaming `f32` vectors for L2 distances, so
//! bytes ≈ time in the simulated cost model. This module quantizes each
//! dimension independently to `i8` (`code = round((x - offset_d) / scale_d)`,
//! one scale/offset pair per dimension), shrinking distance traffic ~4×. The
//! search kernel traverses on quantized distances and exact-L2 re-ranks only
//! the final candidate set, which is the standard escape hatch (CAGRA-Q,
//! PilotANN) for this regime.
//!
//! # Storage
//!
//! Rows are padded with zero codes to a multiple of 64 bytes and start on
//! 64-byte boundaries, mirroring [`VectorSet`]'s aligned mode: one row is one
//! coalesced load in the cost model and SIMD kernels never straddle a cache
//! line at a row start.
//!
//! # Distance semantics
//!
//! Traversal distances are **integer code-space distances**
//! `Σ (code_a[d] - code_b[d])²` computed by the runtime-dispatched kernels in
//! [`crate::simd`]. Integer accumulation is exact, so every dispatch level is
//! bitwise identical by construction. Code-space distance ignores per-dim
//! scale differences — it effectively range-normalizes each dimension — so
//! ordering can deviate from exact L2 when dimension ranges are very
//! heterogeneous; the exact re-rank of the final candidates repairs the
//! returned distances and ids.

use crate::matrix::VectorSet;

/// One 64-byte-aligned group of 64 `i8` code lanes — the allocation unit of
/// the quantized storage. `repr(C, align(64))` with a 64-byte payload means a
/// `Vec<QBlock>` is a gap-free `i8` buffer whose base (and every row start)
/// sits on a cache line.
#[repr(C, align(64))]
#[derive(Debug, Clone, Copy, PartialEq)]
struct QBlock([i8; 64]);

/// Codes per [`QBlock`].
const QBLOCK_LANES: usize = 64;

/// Physical row stride (in codes) for dimensionality `dim`: the dimension
/// rounded up to a whole number of blocks.
fn quantized_stride(dim: usize) -> usize {
    dim.div_ceil(QBLOCK_LANES) * QBLOCK_LANES
}

/// A per-dimension scalar-quantized vector set.
///
/// Dimension `d` of every row maps to
/// `round((x - offsets[d]) / scales[d])` clamped to `[-127, 127]`; the
/// offsets/scales are chosen from the per-dimension min/max of the training
/// set, so training rows never clamp and the reconstruction error per element
/// is at most `scales[d] / 2`.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedSet {
    dim: usize,
    /// Physical codes from one row start to the next (`dim` rounded up to a
    /// multiple of 64).
    stride: usize,
    /// Number of logical rows. Stored explicitly: deriving it as
    /// `data.len() / dim` divided by zero on dim-0 sets.
    len: usize,
    /// Per-dimension quantization step (always > 0).
    scales: Vec<f32>,
    /// Per-dimension range midpoint (code 0 dequantizes to the offset).
    offsets: Vec<f32>,
    data: Vec<QBlock>,
}

impl QuantizedSet {
    /// Quantizes `set` with per-dimension scale/offset chosen from the
    /// per-dimension value range (`offset = (min + max) / 2`,
    /// `scale = (max - min) / 254`, so the extremes map to ±127 exactly).
    ///
    /// Constant (and all-zero) dimensions get scale 1 and quantize to code 0
    /// with zero reconstruction error. Works on either storage mode: rows
    /// are iterated logically, so aligned `f32` padding never trains the
    /// quantizer.
    pub fn quantize(set: &VectorSet) -> Self {
        let dim = set.dim();
        let mut lo = vec![f32::INFINITY; dim];
        let mut hi = vec![f32::NEG_INFINITY; dim];
        for row in set.iter() {
            for (d, &x) in row.iter().enumerate() {
                lo[d] = lo[d].min(x);
                hi[d] = hi[d].max(x);
            }
        }
        let mut scales = Vec::with_capacity(dim);
        let mut offsets = Vec::with_capacity(dim);
        for d in 0..dim {
            let range = hi[d] - lo[d];
            if range > 0.0 {
                scales.push(range / 254.0);
                offsets.push((lo[d] + hi[d]) * 0.5);
            } else {
                // Empty set or constant dimension: code 0 == the offset.
                scales.push(1.0);
                offsets.push(if set.is_empty() { 0.0 } else { lo[d] });
            }
        }
        let mut q =
            Self { dim, stride: quantized_stride(dim), len: 0, scales, offsets, data: Vec::new() };
        for row in set.iter() {
            q.push(row);
        }
        q
    }

    /// Returns the vector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Returns the number of vectors.
    ///
    /// Degenerate dim-0 sets (possible through [`QuantizedSet::try_from_parts`])
    /// report 0 — the previous implementation derived the length as
    /// `data.len() / dim` and panicked with a divide-by-zero.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the set holds no vectors.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Physical codes from one row start to the next.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Per-dimension quantization steps.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Per-dimension range midpoints.
    pub fn offsets(&self) -> &[f32] {
        &self.offsets
    }

    /// The full physical code buffer, padding lanes included.
    #[inline]
    fn physical(&self) -> &[i8] {
        qblocks_as_codes(&self.data)
    }

    /// Returns quantized row `i` (exactly `dim` codes, never padding).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[i8] {
        assert!(i < self.len, "row index {i} out of range for {} rows", self.len);
        let start = i * self.stride;
        &self.physical()[start..start + self.dim]
    }

    /// Returns quantized row `i` including its zero padding (`stride` codes).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn row_padded(&self, i: usize) -> &[i8] {
        assert!(i < self.len, "row index {i} out of range for {} rows", self.len);
        let start = i * self.stride;
        &self.physical()[start..start + self.stride]
    }

    /// Encodes one value of dimension `d` with the frozen scale/offset.
    // The clamp to ±127.0 bounds the rounded value to i8 range, so the
    // float-to-i8 cast cannot truncate.
    #[allow(clippy::cast_possible_truncation)]
    #[inline]
    fn encode_value(&self, d: usize, x: f32) -> i8 {
        ((x - self.offsets[d]) / self.scales[d]).round().clamp(-127.0, 127.0) as i8
    }

    /// Encodes a query (or any out-of-set vector) into padded codes, reusing
    /// `out` as scratch. Values outside the training range clamp to ±127.
    ///
    /// The result has `stride()` codes with zero padding, ready for
    /// [`QuantizedSet::batch_code_l2_squared`].
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != dim()`.
    pub fn encode_into(&self, v: &[f32], out: &mut Vec<i8>) {
        assert_eq!(v.len(), self.dim, "encoded vector has wrong dimension");
        out.clear();
        out.resize(self.stride, 0);
        for (d, &x) in v.iter().enumerate() {
            out[d] = self.encode_value(d, x);
        }
    }

    /// Encodes a query into freshly allocated padded codes.
    pub fn encode(&self, v: &[f32]) -> Vec<i8> {
        let mut out = Vec::new();
        self.encode_into(v, &mut out);
        out
    }

    /// Copies the set with room for `extra` more rows (same grid,
    /// bitwise-equal codes): the next `extra` [`push`](Self::push)es append
    /// without reallocating, so a copy-on-write insert copies the codes once.
    pub fn clone_with_room(&self, extra: usize) -> Self {
        Self {
            data: pathweaver_util::vec_with_room(&self.data, extra * self.stride / QBLOCK_LANES),
            scales: self.scales.clone(),
            offsets: self.offsets.clone(),
            ..*self
        }
    }

    /// Appends one vector, quantized with the **frozen** scales/offsets
    /// (values outside the original training range clamp to ±127).
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != dim()`.
    pub fn push(&mut self, v: &[f32]) {
        assert_eq!(v.len(), self.dim, "pushed vector has wrong dimension");
        let start = self.len * self.stride;
        self.data.resize((start + self.stride) / QBLOCK_LANES, QBlock([0; QBLOCK_LANES]));
        let flat = qblocks_as_mut_codes(&mut self.data);
        for (d, &x) in v.iter().enumerate() {
            // Inline encode_value to avoid borrowing `self` while `flat`
            // borrows `self.data`.
            let code = ((x - self.offsets[d]) / self.scales[d]).round().clamp(-127.0, 127.0);
            // The clamp bounds the value to i8 range, so the cast cannot
            // truncate.
            #[allow(clippy::cast_possible_truncation)]
            {
                flat[start + d] = code as i8;
            }
        }
        self.len += 1;
    }

    /// Integer code-space squared distance between row `i` and padded query
    /// codes, through the dispatched SIMD kernels. Bitwise identical across
    /// every dispatch level (integer accumulation is exact).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()` or `qcodes.len() != stride()`.
    #[inline]
    pub fn code_l2_squared(&self, i: usize, qcodes: &[i8]) -> u32 {
        crate::simd::active_kernels().code_l2_squared(self.row_padded(i), qcodes)
    }

    /// Code-space squared distances from padded query codes to each listed
    /// row, written into `out` as `f32` (the exact integer distance converted
    /// once — deterministic, so still identical across dispatch levels).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != rows.len()`, `qcodes.len() != stride()`, or
    /// any row index is out of range.
    pub fn batch_code_l2_squared(&self, rows: &[u32], qcodes: &[i8], out: &mut [f32]) {
        assert_eq!(out.len(), rows.len(), "output length must match row count");
        let k = crate::simd::active_kernels();
        for (o, &r) in out.iter_mut().zip(rows) {
            // Code distances are bounded by 254² · dim, far below 2^32 for
            // any real dimensionality; f64 would be waste, f32 rounding is
            // deterministic and order-preserving at traversal precision.
            #[allow(clippy::cast_precision_loss)]
            {
                *o = k.code_l2_squared(self.row_padded(r as usize), qcodes) as f32;
            }
        }
    }

    /// Reconstructs the full-precision approximation of the set
    /// (`x ≈ code · scale_d + offset_d`).
    pub fn dequantize(&self) -> VectorSet {
        let mut data = Vec::with_capacity(self.len * self.dim);
        for i in 0..self.len {
            for (d, &c) in self.row(i).iter().enumerate() {
                data.push(f32::from(c) * self.scales[d] + self.offsets[d]);
            }
        }
        VectorSet::from_flat(self.dim, data)
    }

    /// Memory footprint of the quantized payload in bytes (codes including
    /// padding, plus the per-dimension scales and offsets).
    pub fn nbytes(&self) -> usize {
        self.len * self.stride + 2 * self.dim * std::mem::size_of::<f32>()
    }

    /// The full physical code buffer — `len * stride` codes, padding
    /// included. This is the persistence view: the durable store writes it
    /// verbatim and reads it back with [`QuantizedSet::try_from_parts`].
    pub fn as_padded_codes(&self) -> &[i8] {
        &self.physical()[..self.len * self.stride]
    }

    /// Rebuilds a set from its persisted parts.
    ///
    /// A fully empty description (`dim == 0`, no rows, no parameters) is
    /// accepted and yields a degenerate empty set ([`QuantizedSet::len`]
    /// returns 0 rather than dividing by zero).
    ///
    /// # Errors
    ///
    /// A description of the violation when the shapes disagree
    /// (`scales`/`offsets` not `dim` long, codes not `len * stride(dim)`,
    /// or a non-positive / non-finite scale).
    pub fn try_from_parts(
        dim: usize,
        len: usize,
        scales: Vec<f32>,
        offsets: Vec<f32>,
        codes: &[i8],
    ) -> Result<Self, String> {
        if scales.len() != dim || offsets.len() != dim {
            return Err(format!(
                "quantized parameter length mismatch: {} scales / {} offsets for dim {dim}",
                scales.len(),
                offsets.len()
            ));
        }
        if dim == 0 && len != 0 {
            return Err("dim-0 quantized set cannot hold rows".into());
        }
        let stride = quantized_stride(dim);
        if codes.len() != len * stride {
            return Err(format!(
                "quantized code length mismatch for {len} rows of stride {stride}"
            ));
        }
        if scales.iter().any(|s| !s.is_finite() || *s <= 0.0) {
            return Err("quantized scale must be positive and finite".into());
        }
        if offsets.iter().any(|o| !o.is_finite()) {
            return Err("quantized offset must be finite".into());
        }
        let mut data = vec![QBlock([0; QBLOCK_LANES]); codes.len() / QBLOCK_LANES];
        qblocks_as_mut_codes(&mut data).copy_from_slice(codes);
        Ok(Self { dim, stride, len, scales, offsets, data })
    }
}

/// Views a block buffer as its flat code content.
#[inline]
fn qblocks_as_codes(blocks: &[QBlock]) -> &[i8] {
    // SAFETY: `QBlock` is `repr(C)` with a single `[i8; 64]` field and no
    // padding bytes (size 64 == align 64), so a block slice is exactly a
    // contiguous, initialized `i8` buffer of 64x the length.
    unsafe { std::slice::from_raw_parts(blocks.as_ptr().cast::<i8>(), blocks.len() * QBLOCK_LANES) }
}

/// Views a block buffer as its flat code content, mutably.
#[inline]
fn qblocks_as_mut_codes(blocks: &mut [QBlock]) -> &mut [i8] {
    // SAFETY: as in `qblocks_as_codes`; exclusive borrow of `blocks` makes
    // the code view unique.
    unsafe {
        std::slice::from_raw_parts_mut(
            blocks.as_mut_ptr().cast::<i8>(),
            blocks.len() * QBLOCK_LANES,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_set() -> VectorSet {
        VectorSet::from_fn(20, 16, |r, c| ((r * 31 + c * 7) % 100) as f32 - 50.0)
    }

    #[test]
    fn roundtrip_error_is_bounded_per_dim() {
        let set = sample_set();
        let q = QuantizedSet::quantize(&set);
        let back = q.dequantize();
        for i in 0..set.len() {
            for (d, (a, b)) in set.row(i).iter().zip(back.row(i)).enumerate() {
                let bound = q.scales()[d] * 0.5 + 1e-5;
                assert!((a - b).abs() <= bound, "row {i} dim {d}: {a} vs {b} (bound {bound})");
            }
        }
    }

    #[test]
    fn negative_only_and_constant_dims_quantize_exactly_bounded() {
        // Adversarial ranges: dim 0 strictly negative, dim 1 constant,
        // dim 2 tiny range, dim 3 huge asymmetric range.
        let set = VectorSet::from_fn(17, 4, |r, c| match c {
            0 => -1000.0 - r as f32 * 3.5,
            1 => 42.25,
            2 => 1e-4 * r as f32,
            _ => {
                if r % 2 == 0 {
                    -1.0
                } else {
                    9000.0 + r as f32
                }
            }
        });
        let q = QuantizedSet::quantize(&set);
        let back = q.dequantize();
        for i in 0..set.len() {
            for (d, (a, b)) in set.row(i).iter().zip(back.row(i)).enumerate() {
                let bound = q.scales()[d] * 0.5 + 1e-5;
                assert!((a - b).abs() <= bound, "row {i} dim {d}: {a} vs {b} (bound {bound})");
            }
        }
        // The constant dimension reconstructs exactly.
        for i in 0..set.len() {
            assert_eq!(back.row(i)[1], 42.25);
        }
    }

    #[test]
    fn rows_are_aligned_and_zero_padded() {
        let set = VectorSet::from_fn(5, 37, |r, c| (r + c) as f32 + 1.0);
        let q = QuantizedSet::quantize(&set);
        assert_eq!(q.stride(), 64);
        for i in 0..q.len() {
            assert_eq!(q.row(i).as_ptr() as usize % 64, 0, "row {i} misaligned");
            let padded = q.row_padded(i);
            assert_eq!(padded.len(), q.stride());
            assert!(padded[q.dim()..].iter().all(|&c| c == 0), "row {i} padding");
        }
    }

    #[test]
    fn code_distance_matches_naive_integer_sum() {
        let set = VectorSet::from_fn(9, 23, |r, c| ((r * 13 + c * 5) % 19) as f32 * 0.7 - 4.0);
        let q = QuantizedSet::quantize(&set);
        let query: Vec<f32> = (0..23).map(|i| (i % 7) as f32 - 2.0).collect();
        let qc = q.encode(&query);
        for i in 0..q.len() {
            let want: u32 = q
                .row(i)
                .iter()
                .zip(&qc[..q.dim()])
                .map(|(&a, &b)| {
                    let d = i32::from(a) - i32::from(b);
                    (d * d) as u32
                })
                .sum();
            assert_eq!(q.code_l2_squared(i, &qc), want, "row {i}");
        }
    }

    #[test]
    fn batch_code_distance_matches_single() {
        let set = VectorSet::from_fn(11, 96, |r, c| ((r * 7 + c) % 31) as f32 * 0.3);
        let q = QuantizedSet::quantize(&set);
        let qc = q.encode(set.row(3));
        let rows: Vec<u32> = vec![0, 3, 7, 10, 5];
        let mut out = vec![0.0f32; rows.len()];
        q.batch_code_l2_squared(&rows, &qc, &mut out);
        for (i, &r) in rows.iter().enumerate() {
            #[allow(clippy::cast_precision_loss)]
            let want = q.code_l2_squared(r as usize, &qc) as f32;
            assert_eq!(out[i].to_bits(), want.to_bits(), "i={i}");
        }
        // Row 3 against its own encoding is exactly zero.
        assert_eq!(out[1], 0.0);
    }

    #[test]
    fn code_distance_orders_like_exact_l2() {
        // On homogeneous dimensions the code-space ordering tracks exact L2
        // closely; spot-check that the nearest row by exact distance is also
        // nearest by code distance.
        let set = VectorSet::from_fn(32, 24, |r, c| ((r * 17 + c * 3) % 29) as f32 - 14.0);
        let q = QuantizedSet::quantize(&set);
        for probe in [0usize, 9, 21, 31] {
            let query = set.row(probe).to_vec();
            let qc = q.encode(&query);
            let exact_best = (0..set.len())
                .min_by(|&a, &b| {
                    crate::distance::l2_squared(set.row(a), &query)
                        .partial_cmp(&crate::distance::l2_squared(set.row(b), &query))
                        .unwrap()
                        .then(a.cmp(&b))
                })
                .unwrap();
            let code_best = (0..q.len()).min_by_key(|&i| (q.code_l2_squared(i, &qc), i)).unwrap();
            assert_eq!(exact_best, code_best, "probe {probe}");
        }
    }

    #[test]
    fn push_uses_frozen_parameters_and_clamps() {
        let set = sample_set();
        let mut q = QuantizedSet::quantize(&set);
        let scales = q.scales().to_vec();
        q.push(&[1e9; 16]); // far outside the trained range
        assert_eq!(q.len(), 21);
        assert_eq!(q.scales(), &scales[..], "push must not retrain");
        assert!(q.row(20).iter().all(|&c| c == 127), "out-of-range values clamp");
    }

    #[test]
    fn footprint_is_roughly_a_quarter() {
        // dim 64 aligns in both storages, so the code payload is exactly a
        // quarter of the f32 payload; scales/offsets add 2·dim·4 bytes.
        let set = VectorSet::from_fn(10, 64, |_, _| 1.0);
        let q = QuantizedSet::quantize(&set);
        assert_eq!((q.nbytes() - 2 * 64 * 4) * 4, set.nbytes());
    }

    #[test]
    fn zero_set_quantizes() {
        let set = VectorSet::from_fn(3, 4, |_, _| 0.0);
        let q = QuantizedSet::quantize(&set);
        assert_eq!(q.scales(), &[1.0; 4]);
        assert_eq!(q.offsets(), &[0.0; 4]);
        assert!(q.dequantize().as_flat().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn dim_zero_set_reports_len_zero() {
        // Regression: `len()` used to compute `data.len() / dim` and died
        // with a divide-by-zero on dim-0 sets.
        let q = QuantizedSet::try_from_parts(0, 0, Vec::new(), Vec::new(), &[]).unwrap();
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
        assert_eq!(q.dim(), 0);
        assert_eq!(q.nbytes(), 0);
    }

    #[test]
    fn from_parts_roundtrip_is_identical() {
        let set = VectorSet::from_fn(7, 100, |r, c| ((r * 3 + c) % 23) as f32 * 1.3 - 11.0);
        let q = QuantizedSet::quantize(&set);
        let back = QuantizedSet::try_from_parts(
            q.dim(),
            q.len(),
            q.scales().to_vec(),
            q.offsets().to_vec(),
            q.as_padded_codes(),
        )
        .unwrap();
        assert_eq!(back, q);
    }

    #[test]
    fn from_parts_rejects_shape_violations() {
        let set = sample_set();
        let q = QuantizedSet::quantize(&set);
        // Truncated codes.
        let codes = q.as_padded_codes();
        assert!(QuantizedSet::try_from_parts(
            q.dim(),
            q.len(),
            q.scales().to_vec(),
            q.offsets().to_vec(),
            &codes[..codes.len() - 1],
        )
        .is_err());
        // Wrong parameter count.
        assert!(QuantizedSet::try_from_parts(
            q.dim(),
            q.len(),
            vec![1.0; q.dim() - 1],
            q.offsets().to_vec(),
            codes,
        )
        .is_err());
        // Corrupt (non-positive) scale.
        let mut bad = q.scales().to_vec();
        bad[0] = 0.0;
        assert!(QuantizedSet::try_from_parts(q.dim(), q.len(), bad, q.offsets().to_vec(), codes,)
            .is_err());
        // Rows claimed on a dim-0 set.
        assert!(QuantizedSet::try_from_parts(0, 3, Vec::new(), Vec::new(), &[]).is_err());
    }

    #[test]
    fn empty_set_quantizes_to_empty() {
        let set = VectorSet::empty(19);
        let q = QuantizedSet::quantize(&set);
        assert!(q.is_empty());
        assert_eq!(q.dim(), 19);
        assert_eq!(q.scales(), &[1.0; 19]);
        assert_eq!(q.as_padded_codes().len(), 0);
    }
}
