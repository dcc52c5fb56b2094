//! Fused-kernel contract tests: every fused store kernel
//! (`dot_chunk`, `axpy_chunk`, `dots_chunk`, `gemv_chunk`) must be
//! **bit-identical** to decompress-then-naive-BLAS for every bit
//! length, chunk alignment, and tail shape — and must not allocate.
//!
//! The solver's reproducibility guarantees (same residual history for
//! any thread count, any sparse format, and now any kernel fusion
//! level) reduce to exactly this property: fusion changes how codes
//! are extracted, never what is computed.

mod common;

use frsz2::{reference, Frsz2Config, Frsz2Store, Frsz2Vector};
use numfmt::ColumnStorage;
/// The paper's evaluated lengths plus word-aligned and wide extremes;
/// 4 and 64 exercise the shortest and the three-word-straddling paths.
const BIT_LENGTHS: [u32; 6] = [4, 8, 16, 21, 32, 64];

/// Wide-dynamic-range data: exponents spread across ~20 binades so
/// subnormal-grade codes (large `emax − e`) appear in most blocks.
fn wave(n: usize, seed: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let x = ((i + 31 * seed) as f64 * 0.37).sin();
            x * f64::powi(2.0, ((i * 7 + seed) % 40) as i32 - 20)
        })
        .collect()
}

fn store_with(l: u32, rows: usize, cols: usize) -> Frsz2Store {
    let mut st = Frsz2Store::with_config(Frsz2Config::new(32, l), rows, cols);
    for j in 0..cols {
        st.write_column(j, &wave(rows, j));
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
    for l in BIT_LENGTHS {
        let st = store_with(l, rows, 3);
        for j in 0..3 {
            for (start, len) in chunk_shapes(rows) {
                let w = wave(len, 100 + j);
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
                    "l={l} col={j} start={start} len={len}: fused {fused:e} vs naive {naive:e}"
                );
            }
        }
    }
}

#[test]
fn fused_axpy_bit_equals_decompress_then_blas() {
    let rows = 203;
    for l in BIT_LENGTHS {
        let st = store_with(l, rows, 3);
        for j in 0..3 {
            for (start, len) in chunk_shapes(rows) {
                for alpha in [1.75, -0.3, 0.0] {
                    let w0 = wave(len, 7 + j);
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
                            "l={l} col={j} start={start} len={len} alpha={alpha} row {i}"
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
    for l in BIT_LENGTHS {
        let st = store_with(l, rows, k);
        for (start, len) in chunk_shapes(rows) {
            let w = wave(len, 55);
            let mut fused = vec![0.0; k];
            st.dots_chunk(k, start, &w, &mut fused);
            for (j, &f) in fused.iter().enumerate() {
                let single = st.dot_chunk(j, start, &w);
                assert_eq!(
                    f.to_bits(),
                    single.to_bits(),
                    "l={l} col={j} start={start} len={len}"
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
    for l in BIT_LENGTHS {
        let st = store_with(l, rows, k);
        for (start, len) in chunk_shapes(rows) {
            let w0 = wave(len, 99);
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
                    "l={l} start={start} len={len} row {i}"
                );
            }
        }
    }
}

#[test]
fn gemv_skip_preserves_negative_zero() {
    // w holds -0.0; a gemv over columns with all-zero coefficients
    // must leave the bits untouched ((-0.0) + 0.0 would yield +0.0).
    let st = store_with(21, 64, 2);
    let mut w = vec![-0.0f64; 64];
    st.gemv_chunk(2, 0, &[0.0, 0.0], &mut w);
    for (i, v) in w.iter().enumerate() {
        assert_eq!(v.to_bits(), (-0.0f64).to_bits(), "row {i}");
    }
}

#[test]
fn many_vector_kernels_bit_equal_trait_defaults() {
    let rows = 203;
    for l in [4, 8, 12, 16, 21, 27, 32, 40, 54, 64] {
        let st = store_with(l, rows, 5);
        common::many_kernels_match_trait_defaults(&st, &chunk_shapes(rows), &format!("l={l}"));
    }
}

/// Block exponents at and around `l − 1`, the smallest `emax` at which
/// the kernels decode a block arithmetically (below it a code can
/// decode to a subnormal), plus the extremes a finite block can carry.
fn boundary_emaxes(l: u32) -> [u32; 5] {
    [1, (l - 2).max(1), l - 1, l, 2046]
}

/// Every bit length — `2..=54`, where the arithmetic per-block decode
/// applies, and 64, where it never does — with blocks pinned at the
/// decode rule's exponent boundaries, all-zero blocks of both signs,
/// `-0.0` entries and subnormal-producing codes. Every read path of the
/// store and of `Frsz2Vector` matches `frsz2::reference` bit for bit;
/// the `wave` data above keeps every block far from these boundaries.
#[test]
fn exponent_boundary_blocks_bit_equal_reference() {
    let rows = 203;
    let cols = 5;
    // Per column: how far below `emax` its nonzero values reach
    // (2100 spans the whole range down to subnormals).
    let spreads = [2, 12, 40, 60, 2100];
    for l in (2..=54).chain([64]) {
        let cfg = Frsz2Config::new(32, l);
        let mut st = Frsz2Store::with_config(cfg, rows, cols);
        let mut rng = common::SplitMix(u64::from(l));
        let mut decoded = Vec::new();
        for (j, spread) in spreads.into_iter().enumerate() {
            let (mut col, mut want, mut emaxes) = (Vec::new(), Vec::new(), Vec::new());
            for b in 0..rows.div_ceil(32) {
                let len = 32.min(rows - 32 * b);
                // Six block kinds, rotated per column so that one block
                // row never holds the same kind twice.
                let (emax, spread) = match (b + j) % 6 {
                    5 => (1, None),
                    kind => (boundary_emaxes(l)[kind], Some(spread)),
                };
                let block = common::boundary_block(emax, spread, len, &mut rng);
                let (got, codes) = reference::compress_block(&block, l, true);
                assert_eq!(got, emax, "l={l} col={j} block {b}");
                want.extend(reference::decompress_block(emax, &codes, l));
                emaxes.push(emax);
                col.extend(block);
            }
            st.write_column(j, &col);
            assert_eq!(st.column_exponents(j), &emaxes[..], "l={l} col={j}");
            let v = Frsz2Vector::compress(cfg, &col);
            for (i, (&got, &x)) in v.decompress().iter().zip(&want).enumerate() {
                assert_eq!(
                    got.to_bits(),
                    x.to_bits(),
                    "l={l} col={j} decompress row {i}"
                );
                assert_eq!(v.get(i).to_bits(), x.to_bits(), "l={l} col={j} get({i})");
            }
            decoded.push(want);
        }
        common::kernels_match_decoded(&st, &decoded, &chunk_shapes(rows), &format!("l={l}"));
    }
}
