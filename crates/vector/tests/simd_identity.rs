//! Cross-level bitwise-identity property tests for the SIMD kernel layer.
//!
//! The dispatch contract (see `pathweaver_vector::simd`) is that every
//! enabled SIMD level executes the exact FP operation sequence of the scalar
//! kernels, so distances, dot products, and sign codes are **bitwise
//! identical** across levels — on every dimension (including 0 and the awkward
//! primes), on unaligned subslices, and on padded-aligned storage.

use pathweaver_vector::{
    batch_l2_squared, hamming_matches, kernels_for, l2_squared, sign_code_words, QuantizedSet,
    SimdLevel, VectorSet,
};
use proptest::prelude::*;

/// The dimensions the issue calls out, plus block-boundary neighbors.
const DIMS: &[usize] = &[0, 1, 3, 4, 5, 7, 8, 15, 16, 17, 31, 32, 64, 96, 100, 128, 960];

fn deterministic_vec(len: usize, salt: u32) -> Vec<f32> {
    // Cheap splitmix-style generator: full-range mantissas, mixed signs, a
    // few denormal-ish magnitudes — values where reassociation would show.
    let mut state = 0x9e37_79b9u32 ^ salt;
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(0x85eb_ca6b).wrapping_add(0xc2b2_ae35);
            ((state >> 8) as f32 / (1 << 24) as f32 - 0.5) * 200.0
        })
        .collect()
}

#[test]
fn all_levels_bitwise_identical_on_issue_dims() {
    let scalar = kernels_for(SimdLevel::Scalar).unwrap();
    for level in SimdLevel::available() {
        let k = kernels_for(level).unwrap();
        for &dim in DIMS {
            let a = deterministic_vec(dim, 1);
            let b = deterministic_vec(dim, 2);
            assert_eq!(
                k.l2_squared(&a, &b).to_bits(),
                scalar.l2_squared(&a, &b).to_bits(),
                "l2_squared {} dim={dim}",
                level.name()
            );
            assert_eq!(
                k.dot(&a, &b).to_bits(),
                scalar.dot(&a, &b).to_bits(),
                "dot {} dim={dim}",
                level.name()
            );
            let rows: Vec<Vec<f32>> = (0..4).map(|i| deterministic_vec(dim, 10 + i)).collect();
            let r = [&rows[0][..], &rows[1][..], &rows[2][..], &rows[3][..]];
            let got = k.l2_squared_x4(r, &a);
            let want = scalar.l2_squared_x4(r, &a);
            for j in 0..4 {
                assert_eq!(
                    got[j].to_bits(),
                    want[j].to_bits(),
                    "l2_squared_x4 {} dim={dim} row={j}",
                    level.name()
                );
            }
            let words = sign_code_words(dim).max(1);
            let (mut cg, mut cw) = (vec![0u32; words], vec![0u32; words]);
            k.sign_code(&a, &b, &mut cg);
            scalar.sign_code(&a, &b, &mut cw);
            assert_eq!(cg, cw, "sign_code {} dim={dim}", level.name());
        }
    }
}

#[test]
fn unaligned_subslices_are_bitwise_identical() {
    // Slicing at every offset 0..8 guarantees the kernels see row pointers
    // at all possible (mis)alignments relative to 16/32-byte boundaries.
    let scalar = kernels_for(SimdLevel::Scalar).unwrap();
    let a = deterministic_vec(200, 21);
    let b = deterministic_vec(200, 22);
    for level in SimdLevel::available() {
        let k = kernels_for(level).unwrap();
        for off in 0..8usize {
            for dim in [0usize, 1, 7, 33, 100, 129] {
                let (xa, xb) = (&a[off..off + dim], &b[off..off + dim]);
                assert_eq!(
                    k.l2_squared(xa, xb).to_bits(),
                    scalar.l2_squared(xa, xb).to_bits(),
                    "{} off={off} dim={dim}",
                    level.name()
                );
                assert_eq!(
                    k.dot(xa, xb).to_bits(),
                    scalar.dot(xa, xb).to_bits(),
                    "dot {} off={off} dim={dim}",
                    level.name()
                );
            }
        }
    }
}

#[test]
fn nan_sign_codes_match_scalar_on_every_level() {
    // The scalar `t > f` is false on NaN; the SIMD ordered compares must
    // agree exactly, on every lane position.
    let scalar = kernels_for(SimdLevel::Scalar).unwrap();
    for level in SimdLevel::available() {
        let k = kernels_for(level).unwrap();
        for dim in [9usize, 16, 33] {
            for nan_pos in 0..dim {
                let from = deterministic_vec(dim, 31);
                let mut to = deterministic_vec(dim, 32);
                to[nan_pos] = f32::NAN;
                let words = sign_code_words(dim);
                let (mut cg, mut cw) = (vec![0u32; words], vec![0u32; words]);
                k.sign_code(&from, &to, &mut cg);
                scalar.sign_code(&from, &to, &mut cw);
                assert_eq!(cg, cw, "{} dim={dim} nan at {nan_pos}", level.name());
            }
        }
    }
}

fn deterministic_codes(len: usize, salt: u32) -> Vec<i8> {
    let mut state = 0x6c62_272e_u32 ^ salt;
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(0x85eb_ca6b).wrapping_add(0xc2b2_ae35);
            i8::try_from(i32::try_from(state >> 24).unwrap() - 128).unwrap()
        })
        .collect()
}

#[test]
fn code_distance_bitwise_identical_on_issue_dims() {
    // The quantized-traversal kernel is integer, so identity is exact by
    // construction — this pins it against regressions (e.g. a future SIMD
    // path switching to saturating arithmetic).
    let scalar = kernels_for(SimdLevel::Scalar).unwrap();
    for level in SimdLevel::available() {
        let k = kernels_for(level).unwrap();
        for &dim in DIMS {
            let a = deterministic_codes(dim, 3);
            let b = deterministic_codes(dim, 4);
            assert_eq!(
                k.code_l2_squared(&a, &b),
                scalar.code_l2_squared(&a, &b),
                "code_l2_squared {} dim={dim}",
                level.name()
            );
        }
    }
}

#[test]
fn code_distance_unaligned_subslices_identical() {
    let scalar = kernels_for(SimdLevel::Scalar).unwrap();
    let a = deterministic_codes(400, 5);
    let b = deterministic_codes(400, 6);
    for level in SimdLevel::available() {
        let k = kernels_for(level).unwrap();
        for off in 0..8usize {
            for len in [0usize, 1, 15, 16, 17, 33, 64, 100, 129, 300] {
                let (xa, xb) = (&a[off..off + len], &b[off..off + len]);
                assert_eq!(
                    k.code_l2_squared(xa, xb),
                    scalar.code_l2_squared(xa, xb),
                    "{} off={off} len={len}",
                    level.name()
                );
            }
        }
    }
}

/// `codes` pseudo-random packed codes of `dim` bits each, back to back; the
/// padding bits of each code's last word are zero, as `sign_code` leaves them.
fn deterministic_sign_codes(dim: usize, codes: usize, salt: u32) -> Vec<u32> {
    let words = sign_code_words(dim);
    let mut state = 0x2545_f491_u32 ^ salt;
    (0..codes * words)
        .map(|i| {
            state = state.wrapping_mul(0x85eb_ca6b).wrapping_add(0xc2b2_ae35);
            let valid = (dim - (i % words) * 32).min(32);
            if valid == 32 {
                state
            } else {
                state & ((1u32 << valid) - 1)
            }
        })
        .collect()
}

/// Checks every level's `row_matches` against per-code scalar
/// `hamming_matches` on one direction-table row of `degree` codes, read from
/// `offset` words into its buffer so the kernels see every word alignment.
/// Code 0 is the query itself (all bits match); the rest are arbitrary.
fn check_row_matches(dim: usize, degree: usize, offset: usize, seed: u32) {
    let words = sign_code_words(dim);
    let query = deterministic_sign_codes(dim, 1, seed);
    let mut buf = vec![0u32; offset];
    buf.extend(deterministic_sign_codes(dim, degree, seed ^ 0x9e37));
    buf[offset..offset + words].copy_from_slice(&query);
    let row = &buf[offset..];
    let want: Vec<u32> = row.chunks_exact(words).map(|c| hamming_matches(&query, c, dim)).collect();
    assert_eq!(want[0], u32::try_from(dim).unwrap());
    for level in SimdLevel::available() {
        let k = kernels_for(level).unwrap();
        let mut got = vec![u32::MAX; degree];
        k.row_matches(&query, row, dim, &mut got);
        assert_eq!(got, want, "{} dim={dim} degree={degree} offset={offset}", level.name());
    }
}

#[test]
fn row_matches_identical_on_every_dim_and_degree() {
    for dim in 1..=960usize {
        check_row_matches(dim, dim % 64 + 1, dim % 4, u32::try_from(dim).unwrap());
    }
    for degree in 1..=64usize {
        check_row_matches(96, degree, degree % 4, 7);
        check_row_matches(960, degree, (degree + 1) % 4, 8);
    }
}

proptest! {
    #[test]
    fn prop_row_matches_equal_scalar_hamming_on_all_levels(
        dim in 1usize..961,
        degree in 1usize..65,
        offset in 0usize..4,
        seed in 0u32..1000,
    ) {
        check_row_matches(dim, degree, offset, seed);
    }

    #[test]
    fn prop_code_distance_matches_naive_on_all_levels(
        pairs in proptest::collection::vec((-127i32..128, -127i32..128), 0..400),
    ) {
        let (a, b): (Vec<i8>, Vec<i8>) = pairs
            .into_iter()
            .map(|(x, y)| (i8::try_from(x).unwrap(), i8::try_from(y).unwrap()))
            .unzip();
        let want: u32 = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| {
                let d = i32::from(x) - i32::from(y);
                u32::try_from(d * d).unwrap()
            })
            .sum();
        for level in SimdLevel::available() {
            let k = kernels_for(level).unwrap();
            prop_assert_eq!(k.code_l2_squared(&a, &b), want, "{} len={}", level.name(), a.len());
        }
    }

    #[test]
    fn prop_per_dim_quantization_error_bounded(
        dim in 1usize..80,
        rows in 1usize..16,
        lo in -1e4f32..1e4,
        span in 0.0f32..1e4,
        seed in 0u32..1000,
    ) {
        // Adversarial ranges: shifting by `lo` covers negative-only dims,
        // `span == 0` degenerates to constant dims. The per-element
        // reconstruction error must stay within scale_d / 2.
        let raw = deterministic_vec(dim * rows, seed);
        let shifted: Vec<f32> = raw.iter().map(|x| lo + (x / 200.0 + 0.5) * span).collect();
        let set = VectorSet::from_flat(dim, shifted);
        let q = QuantizedSet::quantize(&set);
        let back = q.dequantize();
        for i in 0..set.len() {
            for (d, (a, b)) in set.row(i).iter().zip(back.row(i)).enumerate() {
                // scale/2 is the exact-arithmetic bound; the rest absorbs the
                // f32 rounding of encode/decode, which scales with the value
                // magnitude (ulp of the offset), not with the scale.
                let fp_slack = (q.offsets()[d].abs() + q.scales()[d] * 254.0) * 1e-6 + 1e-6;
                let bound = q.scales()[d] * 0.5 + fp_slack;
                prop_assert!(
                    (a - b).abs() <= bound,
                    "row {} dim {}: {} vs {} (scale {})", i, d, a, b, q.scales()[d]
                );
            }
        }
    }

    #[test]
    fn prop_quantized_batch_identical_across_levels(
        dim in 1usize..100,
        rows in 1usize..12,
        seed in 0u32..1000,
    ) {
        let set = VectorSet::from_flat(dim, deterministic_vec(dim * rows, seed));
        let q = QuantizedSet::quantize(&set);
        let qc = q.encode(&deterministic_vec(dim, seed ^ 0x55aa));
        let idx: Vec<u32> = (0..u32::try_from(rows).unwrap()).rev().collect();
        let scalar_out = {
            let prev = pathweaver_vector::active_simd_level();
            assert!(pathweaver_vector::set_simd_level(SimdLevel::Scalar));
            let mut out = vec![0.0f32; rows];
            q.batch_code_l2_squared(&idx, &qc, &mut out);
            assert!(pathweaver_vector::set_simd_level(prev));
            out
        };
        for level in SimdLevel::available() {
            let prev = pathweaver_vector::active_simd_level();
            assert!(pathweaver_vector::set_simd_level(level));
            let mut out = vec![0.0f32; rows];
            q.batch_code_l2_squared(&idx, &qc, &mut out);
            assert!(pathweaver_vector::set_simd_level(prev));
            for i in 0..rows {
                prop_assert_eq!(
                    out[i].to_bits(), scalar_out[i].to_bits(),
                    "{} dim={} row={}", level.name(), dim, i
                );
            }
        }
    }

    #[test]
    fn prop_all_levels_match_scalar(
        pairs in proptest::collection::vec((-1e6f32..1e6, -1e6f32..1e6), 0..300),
    ) {
        let (a, b): (Vec<f32>, Vec<f32>) = pairs.into_iter().unzip();
        let scalar = kernels_for(SimdLevel::Scalar).unwrap();
        for level in SimdLevel::available() {
            let k = kernels_for(level).unwrap();
            prop_assert_eq!(
                k.l2_squared(&a, &b).to_bits(),
                scalar.l2_squared(&a, &b).to_bits(),
                "l2 {} dim={}", level.name(), a.len()
            );
            prop_assert_eq!(
                k.dot(&a, &b).to_bits(),
                scalar.dot(&a, &b).to_bits(),
                "dot {} dim={}", level.name(), a.len()
            );
        }
    }

    #[test]
    fn prop_padded_aligned_storage_identical_to_compact(
        dim in 1usize..130,
        rows in 1usize..12,
        seed in 0u32..1000,
    ) {
        let flat = deterministic_vec(dim * rows, seed);
        let compact = VectorSet::from_flat(dim, flat.clone());
        let aligned = VectorSet::from_flat_aligned(dim, flat);
        let query = deterministic_vec(dim, seed ^ 0xffff);
        let idx: Vec<u32> = (0..rows as u32).rev().collect();
        for level in SimdLevel::available() {
            let k = kernels_for(level).unwrap();
            let (mut out_c, mut out_a) = (vec![0.0f32; rows], vec![0.0f32; rows]);
            k.batch_l2_squared(&compact, &idx, &query, &mut out_c);
            k.batch_l2_squared(&aligned, &idx, &query, &mut out_a);
            for i in 0..rows {
                prop_assert_eq!(
                    out_c[i].to_bits(), out_a[i].to_bits(),
                    "{} dim={} row={}", level.name(), dim, i
                );
            }
        }
    }

    #[test]
    fn prop_dispatched_batch_matches_per_row_scalar(
        dim in 1usize..100,
        n in 0usize..20,
        seed in 0u32..1000,
    ) {
        // Whatever level the environment dispatched: the public batched entry
        // point must be bitwise equal to per-row l2_squared calls.
        let set = VectorSet::from_flat(dim, deterministic_vec(dim * 20, seed));
        let query = deterministic_vec(dim, seed ^ 0xabcd);
        let rows: Vec<u32> = (0..n as u32).map(|i| (i * 7) % 20).collect();
        let mut out = vec![0.0f32; n];
        batch_l2_squared(&set, &rows, &query, &mut out);
        for (i, &r) in rows.iter().enumerate() {
            prop_assert_eq!(out[i].to_bits(), l2_squared(set.row(r as usize), &query).to_bits());
        }
    }
}
