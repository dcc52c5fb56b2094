//! Shared check for the fused-kernel contract tests: a store's
//! many-vector kernels against the `ColumnStorage` trait defaults.

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
