//! Fused-kernel contract tests for the per-block adaptive store:
//! every fused kernel (`dot_chunk`, `axpy_chunk`, `dots_chunk`,
//! `gemv_chunk`) must be **bit-identical** to decompress-then-naive-BLAS
//! for every exponent spread (and hence every per-block bit-length
//! mix), chunk alignment, and tail shape — the same contract
//! `fused_kernels.rs` pins for the uniform store, now with the bit
//! length varying block by block inside one column.
//!
//! A proptest ties the whole write path back to the normative scalar
//! reference codec: whatever length the selector picks for a block,
//! the stored codes must decode exactly as `reference::compress_block`
//! at that length would.

mod common;

use frsz2::adaptive_store::{DEFAULT_GUARD_BITS, PALETTE};
use frsz2::{reference, Frsz2AdaptiveStore};
use numfmt::ColumnStorage;
use proptest::prelude::*;

/// Exponent spreads that walk the whole palette: 1–10 binades keep
/// blocks at `l = 16`, ~15 forces 21, ~24 forces 32 (and mixes, since
/// the modulo phase shifts per block).
const SPREADS: [u32; 6] = [1, 4, 10, 15, 20, 24];

/// Data whose exponents cycle through `spread + 1` binades, with zeros
/// sprinkled in so the selector's nonzero-only spread scan is on the
/// hook too. Different seeds decorrelate columns and weight vectors.
fn spread_wave(n: usize, spread: u32, seed: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            if (i + seed).is_multiple_of(13) {
                return 0.0;
            }
            let x = ((i + 31 * seed) as f64 * 0.37).sin() + 1.1;
            x * f64::powi(2.0, -(((i * 7 + seed) % (spread as usize + 1)) as i32))
        })
        .collect()
}

fn store_with(spread: u32, rows: usize, cols: usize) -> Frsz2AdaptiveStore {
    let mut st = Frsz2AdaptiveStore::with_shape(rows, cols);
    for j in 0..cols {
        st.write_column(j, &spread_wave(rows, spread, j));
    }
    st
}

/// Every (row_start, len) pair the solver can produce: block-aligned
/// starts, full and ragged tails (rows = 203 ends in a 11-value block).
fn chunk_shapes(rows: usize) -> Vec<(usize, usize)> {
    let mut shapes = vec![(0, rows), (0, 32), (32, 64), (96, rows - 96), (160, 43)];
    shapes.retain(|&(s, len)| s + len <= rows);
    shapes
}

#[test]
fn fused_dot_bit_equals_decompress_then_blas() {
    let rows = 203;
    for spread in SPREADS {
        let st = store_with(spread, rows, 3);
        for j in 0..3 {
            for (start, len) in chunk_shapes(rows) {
                let w = spread_wave(len, 6, 100 + j);
                let fused = st.dot_chunk(j, start, &w);
                let mut tile = vec![0.0; len];
                st.read_chunk(j, start, &mut tile);
                let mut naive = 0.0;
                for (a, b) in tile.iter().zip(&w) {
                    naive += a * b;
                }
                assert_eq!(
                    fused.to_bits(),
                    naive.to_bits(),
                    "spread={spread} col={j} start={start} len={len}: \
                     fused {fused:e} vs naive {naive:e}"
                );
            }
        }
    }
}

#[test]
fn fused_axpy_bit_equals_decompress_then_blas() {
    let rows = 203;
    for spread in SPREADS {
        let st = store_with(spread, rows, 3);
        for j in 0..3 {
            for (start, len) in chunk_shapes(rows) {
                for alpha in [1.75, -0.3, 0.0] {
                    let w0 = spread_wave(len, 6, 7 + j);
                    let mut fused = w0.clone();
                    st.axpy_chunk(j, start, alpha, &mut fused);
                    let mut tile = vec![0.0; len];
                    st.read_chunk(j, start, &mut tile);
                    let mut naive = w0;
                    for (b, a) in naive.iter_mut().zip(&tile) {
                        *b += alpha * a;
                    }
                    for i in 0..len {
                        assert_eq!(
                            fused[i].to_bits(),
                            naive[i].to_bits(),
                            "spread={spread} col={j} start={start} len={len} \
                             alpha={alpha} row {i}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn multi_column_dots_bit_equal_per_column_kernels() {
    let rows = 203;
    let k = 5;
    for spread in SPREADS {
        let st = store_with(spread, rows, k);
        for (start, len) in chunk_shapes(rows) {
            let w = spread_wave(len, 6, 55);
            let mut fused = vec![0.0; k];
            st.dots_chunk(k, start, &w, &mut fused);
            for (j, &f) in fused.iter().enumerate() {
                let single = st.dot_chunk(j, start, &w);
                assert_eq!(
                    f.to_bits(),
                    single.to_bits(),
                    "spread={spread} col={j} start={start} len={len}"
                );
            }
        }
    }
}

#[test]
fn multi_column_gemv_bit_equal_sequential_axpys() {
    let rows = 203;
    let k = 5;
    // A zero coefficient in the middle checks the skip semantics (a
    // `+ 0.0` fold-in would flip the sign of a stored -0.0).
    let alphas = [0.5, -1.25, 0.0, 2.0, -0.125];
    for spread in SPREADS {
        let st = store_with(spread, rows, k);
        for (start, len) in chunk_shapes(rows) {
            let w0 = spread_wave(len, 6, 99);
            let mut fused = w0.clone();
            st.gemv_chunk(k, start, &alphas, &mut fused);
            let mut seq = w0;
            for (j, &a) in alphas.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                st.axpy_chunk(j, start, a, &mut seq);
            }
            for i in 0..len {
                assert_eq!(
                    fused[i].to_bits(),
                    seq[i].to_bits(),
                    "spread={spread} start={start} len={len} row {i}"
                );
            }
        }
    }
}

#[test]
fn gemv_skip_preserves_negative_zero() {
    // w holds -0.0; a gemv over columns with all-zero coefficients
    // must leave the bits untouched ((-0.0) + 0.0 would yield +0.0).
    let st = store_with(15, 64, 2);
    let mut w = vec![-0.0f64; 64];
    st.gemv_chunk(2, 0, &[0.0, 0.0], &mut w);
    for (i, v) in w.iter().enumerate() {
        assert_eq!(v.to_bits(), (-0.0f64).to_bits(), "row {i}");
    }
}

#[test]
fn many_vector_kernels_bit_equal_trait_defaults() {
    let rows = 203;
    for spread in SPREADS {
        let st = store_with(spread, rows, 5);
        common::many_kernels_match_trait_defaults(
            &st,
            &chunk_shapes(rows),
            &format!("spread={spread}"),
        );
    }
}

/// A column mixing all four palette lengths reports a rate strictly
/// between all-16 and all-64, and its used-word accounting is exact:
/// the sum of `block_words(l_b)` over the chosen lengths.
#[test]
fn mixed_length_column_rate_is_exact() {
    let rows = 203;
    let st = store_with(24, rows, 1);
    let ls = st.column_bit_lengths(0);
    assert!(ls.iter().any(|&l| l as u32 != ls[0] as u32), "lengths vary");
    let words: usize = ls.iter().map(|&l| l as usize).sum();
    let blocks = rows.div_ceil(32);
    let expect = (words * 32 + blocks * 40) as f64 / rows as f64;
    assert!((st.bits_per_value() - expect).abs() < 1e-12);
}

/// Blocks pinned at the exponent boundaries of every palette length's
/// per-block decode rule (`emax ∈ {l − 2, l − 1, l}` for each palette
/// `l`, plus 1 and 2046), at spreads that steer the selector to each
/// palette length, and all-zero blocks of both signs. Every read path
/// matches `frsz2::reference` at the block's chosen length, bit for
/// bit, and both rules are exercised at every length that has two.
#[test]
fn exponent_boundary_blocks_bit_equal_reference() {
    let rows: usize = 203;
    let mut emaxes = vec![1, 2046];
    for l in PALETTE {
        emaxes.extend([l - 2, l - 1, l]);
    }
    // Spreads that pick l = 16, 16, 21, 32, 64 once emax leaves room.
    let mut kinds: Vec<(u32, Option<u32>)> = emaxes
        .iter()
        .flat_map(|&e| [0, 8, 13, 20, 40].map(|s| (e, Some(s))))
        .collect();
    kinds.push((1, None));
    let blocks = rows.div_ceil(32);
    let cols = kinds.len().div_ceil(blocks);
    let mut st = Frsz2AdaptiveStore::with_shape(rows, cols);
    let mut rng = common::SplitMix(7);
    // (l, emax) of every block, for the coverage check below.
    let mut seen = Vec::new();
    let mut decoded = Vec::new();
    for j in 0..cols {
        let col: Vec<f64> = (0..blocks)
            .flat_map(|b| {
                let (emax, spread) = kinds[(j * blocks + b) % kinds.len()];
                common::boundary_block(emax, spread, 32.min(rows - 32 * b), &mut rng)
            })
            .collect();
        st.write_column(j, &col);
        let mut want = Vec::new();
        for (b, chunk) in col.chunks(32).enumerate() {
            let l = st.column_bit_lengths(j)[b] as u32;
            let (emax, codes) = reference::compress_block(chunk, l, true);
            assert_eq!(st.column_exponents(j)[b], emax, "col {j} block {b}");
            want.extend(reference::decompress_block(emax, &codes, l));
            seen.push((l, emax));
        }
        decoded.push(want);
    }
    for l in PALETTE {
        assert!(
            seen.iter().any(|&(bl, e)| bl == l && e < l - 1),
            "no l={l} block below l - 1"
        );
        assert!(
            seen.iter().any(|&(bl, e)| bl == l && e >= l - 1),
            "no l={l} block at l - 1 or above"
        );
    }
    common::kernels_match_decoded(&st, &decoded, &chunk_shapes(rows), "adaptive");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Round trip against the normative reference codec: whatever `l`
    /// the selector picked for a block, the packed words must decode
    /// exactly as `reference::compress_block` at that `l` — across
    /// spreads 1–24, column lengths with ragged tails, and both
    /// chunked and random access.
    #[test]
    fn roundtrip_matches_reference_at_chosen_lengths(
        spread in 1u32..=24,
        rows in 1usize..300,
        seed in 0usize..32,
    ) {
        let v = spread_wave(rows, spread, seed);
        let mut st = Frsz2AdaptiveStore::with_shape(rows, 1);
        st.write_column(0, &v);
        let mut out = vec![0.0; rows];
        st.read_column(0, &mut out);
        for (b, chunk) in v.chunks(32).enumerate() {
            let l = st.column_bit_lengths(0)[b] as u32;
            prop_assert!(PALETTE.contains(&l));
            let (emax, codes) = reference::compress_block(chunk, l, true);
            prop_assert_eq!(st.column_exponents(0)[b], emax, "block {} emax", b);
            let expect = reference::decompress_block(emax, &codes, l);
            for (i, e) in expect.iter().enumerate() {
                let idx = b * 32 + i;
                prop_assert_eq!(
                    out[idx].to_bits(), e.to_bits(),
                    "block {} row {} (l = {})", b, i, l
                );
                prop_assert_eq!(
                    st.load(idx, 0).to_bits(), e.to_bits(),
                    "load({}) (l = {})", idx, l
                );
            }
        }
    }

    /// The selector keeps its guarantee for arbitrary spreads: every
    /// nonzero value retains `guard` significand bits unless the block
    /// needed more than the widest palette length could give (spread
    /// > 62 cannot happen here).
    #[test]
    fn guard_bits_hold_for_random_spreads(
        spread in 1u32..=24,
        rows in 1usize..300,
        seed in 0usize..32,
    ) {
        let v = spread_wave(rows, spread, seed);
        let mut st = Frsz2AdaptiveStore::with_shape(rows, 1);
        st.write_column(0, &v);
        let mut out = vec![0.0; rows];
        st.read_column(0, &mut out);
        for (i, (&x, &y)) in v.iter().zip(&out).enumerate() {
            if x == 0.0 {
                prop_assert_eq!(y, 0.0, "row {}", i);
                continue;
            }
            let rel = (x - y).abs() / x.abs();
            prop_assert!(
                rel <= f64::powi(2.0, -(DEFAULT_GUARD_BITS as i32)),
                "row {}: rel err {:e}", i, rel
            );
        }
    }
}
