//! Shared checks for the fused-kernel contract tests: a store's
//! many-vector kernels against the `ColumnStorage` trait defaults, and
//! every read path against the reference decoding of blocks pinned at
//! the exponent boundaries of the kernels' per-block decode rule.

use numfmt::ColumnStorage;

/// A store seen through the `ColumnStorage` trait defaults: only the
/// required methods forward, so `dots_many_chunk` / `gemv_many_chunk`
/// run the default per-column tile loop over `read_chunk`.
struct TraitDefaults<'a, S>(&'a S);

impl<S: ColumnStorage> ColumnStorage for TraitDefaults<'_, S> {
    fn with_shape(_: usize, _: usize) -> Self {
        unreachable!("a view is never allocated")
    }
    fn rows(&self) -> usize {
        self.0.rows()
    }
    fn cols(&self) -> usize {
        self.0.cols()
    }
    fn write_column(&mut self, _: usize, _: &[f64]) {
        unreachable!("a view is read-only")
    }
    fn read_chunk(&self, j: usize, row_start: usize, out: &mut [f64]) {
        self.0.read_chunk(j, row_start, out)
    }
    fn load(&self, i: usize, j: usize) -> f64 {
        self.0.load(i, j)
    }
    fn column_bytes(&self) -> usize {
        self.0.column_bytes()
    }
    fn format_name(&self) -> String {
        self.0.format_name()
    }
}

/// Vector counts of a block solve: one, small, odd, and wide blocks.
const NWS: [usize; 6] = [1, 2, 3, 4, 7, 16];

/// `st`'s fused many-vector kernels must equal the trait defaults bit
/// for bit over all of `st`'s columns, for every vector count and every
/// `(row_start, len)` chunk shape — with `-0.0` entries in the vectors
/// and zero coefficients (a whole column and scattered `(j, t)` pairs)
/// in the update, where the skip rule protects signed zeros.
pub fn many_kernels_match_trait_defaults(
    st: &impl ColumnStorage,
    shapes: &[(usize, usize)],
    label: &str,
) {
    let k = st.cols();
    for nw in NWS {
        let alphas: Vec<f64> = (0..k * nw)
            .map(|i| {
                if i / nw == 1 || i % 3 == 2 {
                    0.0
                } else {
                    0.75 - 0.125 * i as f64
                }
            })
            .collect();
        for &(start, len) in shapes {
            let ws: Vec<f64> = (0..len * nw)
                .map(|i| {
                    if i % 5 == 0 {
                        -0.0
                    } else {
                        ((i + nw) as f64 * 0.61).sin()
                    }
                })
                .collect();
            let mut fused = vec![f64::NAN; k * nw];
            let mut default = vec![f64::NAN; k * nw];
            st.dots_many_chunk(k, start, &ws, nw, &mut fused);
            TraitDefaults(st).dots_many_chunk(k, start, &ws, nw, &mut default);
            for (i, (f, d)) in fused.iter().zip(&default).enumerate() {
                assert_eq!(
                    f.to_bits(),
                    d.to_bits(),
                    "{label} dots nw={nw} start={start} len={len} out[{i}]: {f:e} vs {d:e}"
                );
            }
            let mut fused = ws.clone();
            let mut default = ws;
            st.gemv_many_chunk(k, start, &alphas, nw, &mut fused);
            TraitDefaults(st).gemv_many_chunk(k, start, &alphas, nw, &mut default);
            for (i, (f, d)) in fused.iter().zip(&default).enumerate() {
                assert_eq!(
                    f.to_bits(),
                    d.to_bits(),
                    "{label} gemv nw={nw} start={start} len={len} ws[{i}]: {f:e} vs {d:e}"
                );
            }
        }
    }
}

/// SplitMix64: a tiny deterministic generator for the boundary data.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// `len` values whose largest effective exponent is exactly `emax`
/// (`emax >= 1`; value 0 pins it) and whose nonzero values reach down
/// `spread` binades — to subnormals once `spread >= emax`, and then
/// value 1 is one. Random signs and mantissas, with `+0.0` and `-0.0`
/// sprinkled in. `spread = None` gives an all-zero block of both signs.
pub fn boundary_block(emax: u32, spread: Option<u32>, len: usize, rng: &mut SplitMix) -> Vec<f64> {
    (0..len)
        .map(|i| {
            let r = rng.next_u64();
            let sign = r & (1 << 63);
            let Some(spread) = spread else {
                return f64::from_bits(sign);
            };
            let e = match i {
                0 => emax,
                1 => emax.saturating_sub(spread),
                _ if i % 7 == 3 => return f64::from_bits(sign),
                _ => emax.saturating_sub((r >> 52 & 0x7FF) as u32 % (spread + 1)),
            };
            // Bit 0 set keeps a subnormal's mantissa nonzero.
            f64::from_bits(sign | u64::from(e) << 52 | (r & ((1 << 52) - 1)) | 1)
        })
        .collect()
}

/// `st`'s every read path against its columns' reference decoding
/// `decoded` (one `Vec` per column, from `frsz2::reference`), bit for
/// bit: `load`, `read_chunk`, and the fused dot/axpy/dots/gemv and
/// many-vector kernels against row-order scalar loops over `decoded`
/// (one accumulator per output, zero coefficients skipped).
pub fn kernels_match_decoded(
    st: &impl ColumnStorage,
    decoded: &[Vec<f64>],
    shapes: &[(usize, usize)],
    label: &str,
) {
    let k = st.cols();
    assert_eq!(decoded.len(), k);
    let same = |got: f64, want: f64, what: &str| {
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{label} {what}: {got:e} vs {want:e}"
        );
    };
    for (j, col) in decoded.iter().enumerate() {
        for (i, &x) in col.iter().enumerate() {
            same(st.load(i, j), x, &format!("load({i}, {j})"));
        }
    }
    // Vector entries in [2^-16, 2^-8) with -0.0 sprinkled in: products
    // with 2^1023-scale values stay finite, and signed zeros meet every
    // kernel.
    let vector = |n: usize, seed: u64| -> Vec<f64> {
        let mut rng = SplitMix(seed);
        (0..n)
            .map(|i| {
                let r = rng.next_u64();
                if i % 5 == 2 {
                    -0.0
                } else {
                    f64::from_bits(
                        (r & (1 << 63)) | (1007 + (r >> 52 & 7)) << 52 | (r & ((1 << 52) - 1)),
                    )
                }
            })
            .collect()
    };
    let alphas: Vec<f64> = (0..k * 4)
        .map(|i| {
            if i % 3 == 1 {
                0.0
            } else {
                0.75 - 0.25 * (i % 7) as f64
            }
        })
        .collect();
    for &(start, len) in shapes {
        let rows = start..start + len;
        let what = |op: &str| format!("{op} start={start} len={len}");
        let w = vector(len, (start * 31 + len) as u64);
        let mut dots = vec![f64::NAN; k];
        st.dots_chunk(k, start, &w, &mut dots);
        for (j, col) in decoded.iter().enumerate() {
            let mut tile = vec![f64::NAN; len];
            st.read_chunk(j, start, &mut tile);
            for (i, (&got, &want)) in tile.iter().zip(&col[rows.clone()]).enumerate() {
                same(
                    got,
                    want,
                    &format!("{} col={j} row {i}", what("read_chunk")),
                );
            }
            let mut dot = 0.0;
            for (&x, &y) in col[rows.clone()].iter().zip(&w) {
                dot += x * y;
            }
            same(
                st.dot_chunk(j, start, &w),
                dot,
                &format!("{} col={j}", what("dot_chunk")),
            );
            same(dots[j], dot, &format!("{} col={j}", what("dots_chunk")));
            for alpha in [0.75, -1.5, 0.0] {
                let mut got = w.clone();
                st.axpy_chunk(j, start, alpha, &mut got);
                for (i, (&g, &x)) in got.iter().zip(&col[rows.clone()]).enumerate() {
                    let want = w[i] + alpha * x;
                    same(
                        g,
                        want,
                        &format!("{} col={j} alpha={alpha} row {i}", what("axpy_chunk")),
                    );
                }
            }
        }
        let mut got = w.clone();
        st.gemv_chunk(k, start, &alphas[..k], &mut got);
        let mut want = w.clone();
        for (j, &a) in alphas[..k].iter().enumerate() {
            if a != 0.0 {
                for (y, &x) in want.iter_mut().zip(&decoded[j][rows.clone()]) {
                    *y += a * x;
                }
            }
        }
        for (i, (&g, &e)) in got.iter().zip(&want).enumerate() {
            same(g, e, &format!("{} row {i}", what("gemv_chunk")));
        }
        for nw in [1usize, 3, 4] {
            let ws = vector(len * nw, (start * 7 + nw) as u64);
            let mut got = vec![f64::NAN; k * nw];
            st.dots_many_chunk(k, start, &ws, nw, &mut got);
            for (j, col) in decoded.iter().enumerate() {
                for t in 0..nw {
                    let mut dot = 0.0;
                    for (i, &x) in col[rows.clone()].iter().enumerate() {
                        dot += x * ws[i * nw + t];
                    }
                    same(
                        got[j * nw + t],
                        dot,
                        &format!("{} nw={nw} col={j} t={t}", what("dots_many_chunk")),
                    );
                }
            }
            let al = &alphas[..k * nw];
            let mut got = ws.clone();
            st.gemv_many_chunk(k, start, al, nw, &mut got);
            let mut want = ws;
            for (j, col) in decoded.iter().enumerate() {
                for t in 0..nw {
                    let a = al[j * nw + t];
                    if a != 0.0 {
                        for (i, &x) in col[rows.clone()].iter().enumerate() {
                            want[i * nw + t] += a * x;
                        }
                    }
                }
            }
            for (i, (&g, &e)) in got.iter().zip(&want).enumerate() {
                same(
                    g,
                    e,
                    &format!("{} nw={nw} ws[{i}]", what("gemv_many_chunk")),
                );
            }
        }
    }
}
