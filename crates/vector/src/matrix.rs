//! Dense row-major vector storage.

use serde::{Deserialize, Serialize};

/// One 64-byte-aligned group of 16 `f32` lanes — the allocation unit of the
/// aligned storage mode. `repr(C, align(64))` with a 64-byte payload means a
/// `Vec<Block>` is a gap-free `f32` buffer whose base (and every 16-float
/// boundary) sits on a cache line.
#[repr(C, align(64))]
#[derive(Debug, Clone, Copy)]
struct Block([f32; 16]);

/// Floats per [`Block`].
const BLOCK_LANES: usize = 16;

/// Physical row stride (in floats) for an aligned set of dimensionality
/// `dim`: the dimension rounded up to a whole number of blocks, so every row
/// starts on a 64-byte boundary.
fn aligned_stride(dim: usize) -> usize {
    dim.div_ceil(BLOCK_LANES) * BLOCK_LANES
}

/// Backing buffer of a [`VectorSet`].
#[derive(Debug, Clone)]
enum Storage {
    /// Tightly packed rows (`stride == dim`), the historical layout.
    Compact(Vec<f32>),
    /// 64-byte-aligned rows padded with zeros to a multiple of 16 floats.
    /// The padding is *storage only*: kernels receive the logical `dim`
    /// prefix of each row, never the padding lanes (processing them would
    /// change the scalar kernels' chunk/tail split and break the bitwise
    /// identity the dispatch layer guarantees).
    Aligned(Vec<Block>),
}

/// A dense, row-major matrix of `f32` vectors: `len` rows of `dim` columns.
///
/// This is the canonical in-memory representation of a dataset, a shard, a
/// ghost shard, or a query batch. Rows are contiguous so a single row maps to
/// one coalesced vector load in the simulated GPU cost model.
///
/// Two storage modes share the same logical interface:
///
/// - **Compact** (the default): rows tightly packed, `stride == dim`.
/// - **Aligned** ([`VectorSet::into_aligned`]): every row starts on a 64-byte
///   boundary and is zero-padded to a multiple of 16 floats. SIMD kernels
///   then never straddle a cache line at a row start. The logical `dim` is
///   preserved; [`VectorSet::row`] always returns exactly `dim` floats, so
///   distances over aligned and compact sets are bitwise identical.
#[derive(Debug, Clone)]
pub struct VectorSet {
    dim: usize,
    /// Physical floats from one row start to the next.
    stride: usize,
    /// Number of logical rows (redundant for `Compact`, authoritative for
    /// `Aligned`, where the buffer length alone cannot distinguish an empty
    /// set from its capacity).
    len: usize,
    storage: Storage,
}

impl VectorSet {
    /// Creates a set from a flat row-major buffer (compact storage).
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `data.len()` is not a multiple of `dim`.
    pub fn from_flat(dim: usize, data: Vec<f32>) -> Self {
        assert!(dim > 0, "dim must be positive");
        assert!(
            data.len().is_multiple_of(dim),
            "flat buffer length {} not a multiple of dim {dim}",
            data.len()
        );
        let len = data.len() / dim;
        Self { dim, stride: dim, len, storage: Storage::Compact(data) }
    }

    /// Creates a set from a flat row-major buffer directly into aligned
    /// storage (64-byte row alignment, zero padding to 16-float multiples).
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `data.len()` is not a multiple of `dim`.
    pub fn from_flat_aligned(dim: usize, data: Vec<f32>) -> Self {
        Self::from_flat(dim, data).into_aligned()
    }

    /// Creates an empty set with the given dimensionality.
    pub fn empty(dim: usize) -> Self {
        Self::from_flat(dim, Vec::new())
    }

    /// Creates a set of `len` rows produced by `f(row, col)`.
    pub fn from_fn(len: usize, dim: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(len * dim);
        for r in 0..len {
            for c in 0..dim {
                data.push(f(r, c));
            }
        }
        Self::from_flat(dim, data)
    }

    /// Copies the set with room for `extra` more rows (same storage mode,
    /// bitwise-equal rows): the next `extra` [`push`](Self::push)es append
    /// without reallocating, so a copy-on-write insert copies the rows once.
    pub fn clone_with_room(&self, extra: usize) -> Self {
        let storage = match &self.storage {
            Storage::Compact(data) => {
                Storage::Compact(pathweaver_util::vec_with_room(data, extra * self.dim))
            }
            Storage::Aligned(blocks) => Storage::Aligned(pathweaver_util::vec_with_room(
                blocks,
                extra * self.stride / BLOCK_LANES,
            )),
        };
        Self { dim: self.dim, stride: self.stride, len: self.len, storage }
    }

    /// Converts to aligned storage (no-op when already aligned).
    ///
    /// Aligned rows start on 64-byte boundaries and are padded with zeros up
    /// to a multiple of 16 floats; the logical dimensionality and every
    /// distance computed through [`VectorSet::row`] are unchanged.
    pub fn into_aligned(self) -> Self {
        match self.storage {
            Storage::Aligned(_) => self,
            Storage::Compact(data) => {
                let stride = aligned_stride(self.dim);
                let mut blocks = vec![Block([0.0; BLOCK_LANES]); self.len * stride / BLOCK_LANES];
                {
                    let flat = blocks_as_mut_floats(&mut blocks);
                    for (r, row) in data.chunks_exact(self.dim).enumerate() {
                        flat[r * stride..r * stride + self.dim].copy_from_slice(row);
                    }
                }
                Self { dim: self.dim, stride, len: self.len, storage: Storage::Aligned(blocks) }
            }
        }
    }

    /// Whether this set uses the aligned (padded) storage mode.
    pub fn is_aligned(&self) -> bool {
        matches!(self.storage, Storage::Aligned(_))
    }

    /// Returns the vector dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Physical floats from one row start to the next (`dim` for compact
    /// storage, `dim` rounded up to a multiple of 16 for aligned storage).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Returns the number of vectors `n`.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the set holds no vectors.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The full physical buffer, including padding lanes when aligned.
    #[inline]
    fn physical(&self) -> &[f32] {
        match &self.storage {
            Storage::Compact(data) => data,
            Storage::Aligned(blocks) => blocks_as_floats(blocks),
        }
    }

    /// Returns row `i` as a slice of exactly `dim` floats (never padding).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        assert!(i < self.len, "row index {i} out of range for {} rows", self.len);
        let start = i * self.stride;
        &self.physical()[start..start + self.dim]
    }

    /// Returns row `i` including its zero padding lanes (`stride` floats).
    ///
    /// Aligned-storage introspection for tests and layout-aware code; the
    /// distance kernels themselves only ever consume [`VectorSet::row`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn row_padded(&self, i: usize) -> &[f32] {
        assert!(i < self.len, "row index {i} out of range for {} rows", self.len);
        let start = i * self.stride;
        &self.physical()[start..start + self.stride]
    }

    /// Returns row `i` mutably.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        assert!(i < self.len, "row index {i} out of range for {} rows", self.len);
        let start = i * self.stride;
        let dim = self.dim;
        let flat = match &mut self.storage {
            Storage::Compact(data) => data.as_mut_slice(),
            Storage::Aligned(blocks) => blocks_as_mut_floats(blocks),
        };
        &mut flat[start..start + dim]
    }

    /// Returns the flat row-major buffer of a compact set.
    ///
    /// # Panics
    ///
    /// Panics on aligned storage, where no padding-free flat view exists —
    /// iterate rows (or [`VectorSet::row`]) instead.
    pub fn as_flat(&self) -> &[f32] {
        match &self.storage {
            Storage::Compact(data) => data,
            Storage::Aligned(_) => {
                panic!("as_flat is only available on compact storage; iterate rows instead")
            }
        }
    }

    /// Appends a vector (preserving the storage mode).
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != dim()`.
    pub fn push(&mut self, v: &[f32]) {
        assert_eq!(v.len(), self.dim, "pushed vector has wrong dimension");
        match &mut self.storage {
            Storage::Compact(data) => data.extend_from_slice(v),
            Storage::Aligned(blocks) => {
                let start = self.len * self.stride;
                blocks.resize((start + self.stride) / BLOCK_LANES, Block([0.0; BLOCK_LANES]));
                blocks_as_mut_floats(blocks)[start..start + self.dim].copy_from_slice(v);
            }
        }
        self.len += 1;
    }

    /// Builds a new set containing the given rows, in order, preserving the
    /// storage mode.
    ///
    /// Used to materialize shards and ghost shards from a parent dataset.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn gather(&self, rows: &[usize]) -> Self {
        match &self.storage {
            Storage::Compact(_) => {
                let mut data = Vec::with_capacity(rows.len() * self.dim);
                for &r in rows {
                    data.extend_from_slice(self.row(r));
                }
                Self::from_flat(self.dim, data)
            }
            Storage::Aligned(_) => {
                let mut blocks =
                    vec![Block([0.0; BLOCK_LANES]); rows.len() * self.stride / BLOCK_LANES];
                {
                    let flat = blocks_as_mut_floats(&mut blocks);
                    for (i, &r) in rows.iter().enumerate() {
                        flat[i * self.stride..i * self.stride + self.dim]
                            .copy_from_slice(self.row(r));
                    }
                }
                Self {
                    dim: self.dim,
                    stride: self.stride,
                    len: rows.len(),
                    storage: Storage::Aligned(blocks),
                }
            }
        }
    }

    /// The full physical buffer — `len * stride` floats, padding lanes
    /// included on aligned storage.
    ///
    /// This is the persistence view: the durable store writes it verbatim
    /// and reads it back with [`VectorSet::from_padded_flat`], so a saved
    /// aligned set reloads with zero per-record work.
    pub fn as_padded_flat(&self) -> &[f32] {
        &self.physical()[..self.len * self.stride]
    }

    /// Rebuilds an aligned set from its physical buffer (`len * stride`
    /// floats as returned by [`VectorSet::as_padded_flat`] on an aligned
    /// set, where `stride` is `dim` rounded up to a multiple of 16).
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `data.len() != len * aligned_stride(dim)`.
    pub fn from_padded_flat(dim: usize, len: usize, data: &[f32]) -> Self {
        match Self::try_from_padded_flat(dim, len, data) {
            Ok(set) => set,
            Err(e) => panic!("{e}"),
        }
    }

    /// Non-panicking [`VectorSet::from_padded_flat`] for loaders that must
    /// turn shape violations into recoverable errors.
    ///
    /// # Errors
    ///
    /// A description of the violation when `dim == 0` or the buffer length
    /// disagrees with `len * aligned_stride(dim)`.
    pub fn try_from_padded_flat(dim: usize, len: usize, data: &[f32]) -> Result<Self, String> {
        if dim == 0 {
            return Err("dim must be positive".into());
        }
        let stride = aligned_stride(dim);
        if data.len() != len * stride {
            return Err(format!("padded buffer length mismatch for {len} rows of stride {stride}"));
        }
        let mut blocks = vec![Block([0.0; BLOCK_LANES]); len * stride / BLOCK_LANES];
        blocks_as_mut_floats(&mut blocks).copy_from_slice(data);
        Ok(Self { dim, stride, len, storage: Storage::Aligned(blocks) })
    }

    /// Iterates over rows (logical `dim` floats each, never padding).
    pub fn iter(&self) -> impl Iterator<Item = &[f32]> {
        let flat = self.physical();
        (0..self.len).map(move |i| &flat[i * self.stride..i * self.stride + self.dim])
    }

    /// Returns the memory footprint of the raw vector data in bytes
    /// (including padding lanes when aligned).
    pub fn nbytes(&self) -> usize {
        self.len * self.stride * std::mem::size_of::<f32>()
    }
}

/// Views a block buffer as its flat float content.
#[inline]
fn blocks_as_floats(blocks: &[Block]) -> &[f32] {
    // SAFETY: `Block` is `repr(C)` with a single `[f32; 16]` field and no
    // padding bytes (size 64 == align 64), so a block slice is exactly a
    // contiguous, initialized `f32` buffer of 16x the length.
    unsafe { std::slice::from_raw_parts(blocks.as_ptr().cast::<f32>(), blocks.len() * BLOCK_LANES) }
}

/// Views a block buffer as its flat float content, mutably.
#[inline]
fn blocks_as_mut_floats(blocks: &mut [Block]) -> &mut [f32] {
    // SAFETY: as in `blocks_as_floats`; exclusive borrow of `blocks` makes
    // the float view unique.
    unsafe {
        std::slice::from_raw_parts_mut(
            blocks.as_mut_ptr().cast::<f32>(),
            blocks.len() * BLOCK_LANES,
        )
    }
}

// Equality, like serialization, is over the logical contents: an aligned set
// equals its compact twin. (Derived eq would compare padding and strides.)
impl PartialEq for VectorSet {
    fn eq(&self, other: &Self) -> bool {
        self.dim == other.dim && self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Serialize for VectorSet {
    fn to_value(&self) -> serde::Value {
        let mut data = Vec::with_capacity(self.len * self.dim);
        for row in self.iter() {
            data.extend_from_slice(row);
        }
        serde::Value::Object(vec![
            ("dim".to_string(), self.dim.to_value()),
            ("data".to_string(), data.to_value()),
        ])
    }
}

impl Deserialize for VectorSet {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let dim =
            usize::from_value(v.get("dim").ok_or_else(|| serde::Error::msg("missing `dim`"))?)?;
        let data = Vec::<f32>::from_value(
            v.get("data").ok_or_else(|| serde::Error::msg("missing `data`"))?,
        )?;
        if dim == 0 || !data.len().is_multiple_of(dim) {
            return Err(serde::Error::msg("VectorSet dim/data mismatch"));
        }
        Ok(Self::from_flat(dim, data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_and_row_access() {
        let m = VectorSet::from_fn(3, 4, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.len(), 3);
        assert_eq!(m.dim(), 4);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0, 13.0]);
    }

    #[test]
    fn push_and_gather() {
        let mut m = VectorSet::empty(2);
        m.push(&[1.0, 2.0]);
        m.push(&[3.0, 4.0]);
        m.push(&[5.0, 6.0]);
        let g = m.gather(&[2, 0]);
        assert_eq!(g.row(0), &[5.0, 6.0]);
        assert_eq!(g.row(1), &[1.0, 2.0]);
    }

    #[test]
    fn nbytes_counts_floats() {
        let m = VectorSet::from_fn(5, 8, |_, _| 0.0);
        assert_eq!(m.nbytes(), 5 * 8 * 4);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn from_flat_rejects_ragged() {
        let _ = VectorSet::from_flat(3, vec![0.0; 7]);
    }

    #[test]
    #[should_panic(expected = "wrong dimension")]
    fn push_rejects_wrong_dim() {
        let mut m = VectorSet::empty(3);
        m.push(&[1.0]);
    }

    #[test]
    fn iter_yields_rows() {
        let m = VectorSet::from_fn(4, 2, |r, _| r as f32);
        let rows: Vec<&[f32]> = m.iter().collect();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[3], &[3.0, 3.0]);
    }

    #[test]
    fn aligned_preserves_logical_contents() {
        for dim in [1usize, 3, 7, 15, 16, 17, 37, 96, 100, 128] {
            let compact = VectorSet::from_fn(9, dim, |r, c| (r * 131 + c * 17) as f32 * 0.25);
            let aligned = compact.clone().into_aligned();
            assert!(aligned.is_aligned());
            assert_eq!(aligned.dim(), dim);
            assert_eq!(aligned.len(), 9);
            assert_eq!(aligned.stride() % BLOCK_LANES, 0);
            assert!(aligned.stride() >= dim);
            for i in 0..9 {
                assert_eq!(aligned.row(i), compact.row(i), "dim={dim} row={i}");
            }
            assert_eq!(aligned, compact);
        }
    }

    #[test]
    fn aligned_rows_are_64_byte_aligned_and_zero_padded() {
        let m = VectorSet::from_fn(5, 37, |r, c| (r + c) as f32 + 1.0).into_aligned();
        for i in 0..m.len() {
            assert_eq!(m.row(i).as_ptr() as usize % 64, 0, "row {i} misaligned");
            let padded = m.row_padded(i);
            assert_eq!(padded.len(), m.stride());
            assert!(padded[m.dim()..].iter().all(|&x| x == 0.0), "row {i} padding");
        }
    }

    #[test]
    fn aligned_push_and_gather_preserve_mode() {
        let mut m = VectorSet::from_fn(2, 5, |r, c| (r * 5 + c) as f32).into_aligned();
        m.push(&[90.0, 91.0, 92.0, 93.0, 94.0]);
        assert_eq!(m.len(), 3);
        assert_eq!(m.row(2), &[90.0, 91.0, 92.0, 93.0, 94.0]);
        let g = m.gather(&[2, 0]);
        assert!(g.is_aligned());
        assert_eq!(g.row(0), m.row(2));
        assert_eq!(g.row(1), m.row(0));
        assert_eq!(g.row(0).as_ptr() as usize % 64, 0);
    }

    #[test]
    fn aligned_nbytes_includes_padding() {
        let m = VectorSet::from_fn(4, 17, |_, _| 0.0).into_aligned();
        assert_eq!(m.stride(), 32);
        assert_eq!(m.nbytes(), 4 * 32 * 4);
    }

    #[test]
    #[should_panic(expected = "compact storage")]
    fn as_flat_rejects_aligned() {
        let m = VectorSet::from_fn(2, 3, |_, _| 1.0).into_aligned();
        let _ = m.as_flat();
    }

    #[test]
    fn serde_roundtrip_is_logical() {
        let aligned = VectorSet::from_fn(3, 7, |r, c| (r * 7 + c) as f32 * 0.5).into_aligned();
        let back = VectorSet::from_value(&aligned.to_value()).unwrap();
        assert!(!back.is_aligned());
        assert_eq!(back, aligned);
    }

    #[test]
    fn padded_flat_roundtrip() {
        for dim in [1usize, 15, 16, 17, 96] {
            let set = VectorSet::from_fn(6, dim, |r, c| (r * 31 + c) as f32 * 0.5).into_aligned();
            let raw = set.as_padded_flat().to_vec();
            assert_eq!(raw.len(), 6 * set.stride());
            let back = VectorSet::from_padded_flat(dim, 6, &raw);
            assert!(back.is_aligned());
            assert_eq!(back, set);
            assert_eq!(back.stride(), set.stride());
        }
    }

    #[test]
    #[should_panic(expected = "padded buffer length mismatch")]
    fn from_padded_flat_rejects_bad_length() {
        let _ = VectorSet::from_padded_flat(17, 2, &[0.0; 33]);
    }

    #[test]
    fn empty_aligned_set() {
        let m = VectorSet::empty(19).into_aligned();
        assert!(m.is_empty());
        assert_eq!(m.nbytes(), 0);
        assert_eq!(m.gather(&[]).len(), 0);
    }
}
