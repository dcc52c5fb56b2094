//! The Ginkgo-style accessor: storage format decoupled from arithmetic.
//!
//! CB-GMRES touches the Krylov basis through exactly three patterns:
//!
//! 1. a whole column is written once, immediately after normalization
//!    (compression happens here, and only here — FRSZ2 cannot update
//!    single elements because the block exponent would change, §IV-A);
//! 2. columns are streamed forward during orthogonalization (dots and
//!    axpys) — served by [`ColumnStorage::read_chunk`] over block-aligned
//!    row ranges so each thread decompresses only its own rows;
//! 3. occasional random access for diagnostics — [`ColumnStorage::load`].
//!
//! The solver is generic over [`ColumnStorage`], so swapping `float64` for
//! `float32`, `float16`, `bfloat16` or any `frsz2_l` variant is a type
//! parameter change, mirroring `Acc<...>` in the paper's Figure 4.

/// A value-level storage format: each f64 is converted independently.
///
/// This is the "compression by casting to low precision" of the original
/// CB-GMRES paper. All arithmetic stays in f64; only the stored bytes are
/// narrow.
pub trait StoredScalar: Copy + Send + Sync + Default + 'static {
    /// Display name matching the paper's labels (`float64`, `float32`, ...).
    const NAME: &'static str;
    fn encode(x: f64) -> Self;
    fn decode(self) -> f64;
}

impl StoredScalar for f64 {
    const NAME: &'static str = "float64";
    #[inline(always)]
    fn encode(x: f64) -> f64 {
        x
    }
    #[inline(always)]
    fn decode(self) -> f64 {
        self
    }
}

impl StoredScalar for f32 {
    const NAME: &'static str = "float32";
    #[inline(always)]
    fn encode(x: f64) -> f32 {
        x as f32
    }
    #[inline(always)]
    fn decode(self) -> f64 {
        self as f64
    }
}

/// Lazily-built 65536-entry decode table: f16 -> f64 widening is in the
/// solver's innermost loop, and a 512 KiB table beats the branchy bit
/// manipulation there.
fn f16_decode_table() -> &'static [f64; 1 << 16] {
    static TABLE: std::sync::OnceLock<Box<[f64; 1 << 16]>> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = vec![0.0f64; 1 << 16];
        for (bits, slot) in t.iter_mut().enumerate() {
            *slot = crate::F16::from_bits(bits as u16).to_f64();
        }
        t.into_boxed_slice().try_into().unwrap()
    })
}

impl StoredScalar for crate::F16 {
    const NAME: &'static str = "float16";
    #[inline(always)]
    fn encode(x: f64) -> crate::F16 {
        crate::F16::from_f64(x)
    }
    #[inline(always)]
    fn decode(self) -> f64 {
        f16_decode_table()[self.to_bits() as usize]
    }
}

impl StoredScalar for crate::BF16 {
    const NAME: &'static str = "bfloat16";
    #[inline(always)]
    fn encode(x: f64) -> crate::BF16 {
        crate::BF16::from_f64(x)
    }
    #[inline(always)]
    fn decode(self) -> f64 {
        self.to_f64()
    }
}

/// Column-major matrix of f64 values held in an arbitrary storage format.
///
/// `rows` is fixed at construction; columns are written whole and read
/// back either whole, in chunks, or element-wise. Implementations must be
/// `Sync` so the solver can decompress disjoint row ranges from multiple
/// threads concurrently.
pub trait ColumnStorage: Send + Sync {
    /// Allocate storage for a `rows x cols` matrix (zero-initialized).
    fn with_shape(rows: usize, cols: usize) -> Self
    where
        Self: Sized;

    fn rows(&self) -> usize;
    fn cols(&self) -> usize;

    /// Overwrite column `j` with `data` (`data.len() == rows`).
    /// This is the compression step.
    fn write_column(&mut self, j: usize, data: &[f64]);

    /// Decompress rows `row_start .. row_start + out.len()` of column `j`.
    ///
    /// `row_start` must be a multiple of [`Self::chunk_align`] and
    /// `out.len()` a multiple of it too (except for the final chunk of a
    /// column). This lets block formats decode whole blocks without
    /// cross-chunk state.
    fn read_chunk(&self, j: usize, row_start: usize, out: &mut [f64]);

    /// Decompress all of column `j` into `out` (`out.len() == rows`).
    fn read_column(&self, j: usize, out: &mut [f64]) {
        self.read_chunk(j, 0, out);
    }

    /// Random access to element `(i, j)`.
    fn load(&self, i: usize, j: usize) -> f64;

    /// Required row alignment of chunked reads (1 for scalar formats,
    /// the block size for FRSZ2).
    fn chunk_align(&self) -> usize {
        1
    }

    /// Fused dot product: `Σ_i column_j[row_start + i] · w[i]`, the
    /// orthogonalization kernel. The default tiles through a small stack
    /// buffer; formats override with copy-free loops.
    fn dot_chunk(&self, j: usize, row_start: usize, w: &[f64]) -> f64 {
        let mut tile = [0.0f64; 512];
        let mut acc = 0.0;
        let mut off = 0;
        while off < w.len() {
            let len = 512.min(w.len() - off);
            self.read_chunk(j, row_start + off, &mut tile[..len]);
            for (a, b) in tile[..len].iter().zip(&w[off..off + len]) {
                acc += a * b;
            }
            off += len;
        }
        acc
    }

    /// Fused axpy: `w[i] += alpha · column_j[row_start + i]`, the
    /// projection-update kernel. Same tiling default as
    /// [`ColumnStorage::dot_chunk`].
    fn axpy_chunk(&self, j: usize, row_start: usize, alpha: f64, w: &mut [f64]) {
        let mut tile = [0.0f64; 512];
        let mut off = 0;
        while off < w.len() {
            let len = 512.min(w.len() - off);
            self.read_chunk(j, row_start + off, &mut tile[..len]);
            for (b, a) in w[off..off + len].iter_mut().zip(&tile[..len]) {
                *b += alpha * a;
            }
            off += len;
        }
    }

    /// Multi-column fused dot products:
    /// `out[j] = Σ_i column_j[row_start + i] · w[i]` for every
    /// `j < k` — the whole Gram-Schmidt projection row `h = Vᵀw` over
    /// one row chunk in a single sweep.
    ///
    /// The default simply runs [`ColumnStorage::dot_chunk`] per column
    /// (inheriting its tiling); block formats override with kernels
    /// that sweep all `k` columns per storage block so each block of
    /// `w` is loaded once instead of `k` times.
    ///
    /// # Bit-identity contract
    /// `out[j]` must accumulate column `j`'s products in row order with
    /// one accumulator — i.e. be bit-for-bit what `k` independent
    /// [`ColumnStorage::dot_chunk`] calls would produce. The solver's
    /// reproducibility-across-formats-and-threads guarantees depend on
    /// every implementation honoring this.
    fn dots_chunk(&self, k: usize, row_start: usize, w: &[f64], out: &mut [f64]) {
        for (j, out_j) in out.iter_mut().enumerate().take(k) {
            *out_j = self.dot_chunk(j, row_start, w);
        }
    }

    /// Multi-column fused update:
    /// `w[i] += Σ_j alphas[j] · column_j[row_start + i]` for every
    /// `j < k` — the projection update `w ← w − Vh` over one row chunk
    /// in a single sweep (callers pass `alphas = −h`).
    ///
    /// The default applies [`ColumnStorage::axpy_chunk`] per column;
    /// overrides fuse the sweep so each element of `w` is loaded and
    /// stored once for all `k` columns instead of `k` times.
    ///
    /// # Bit-identity contract
    /// Per element, column contributions must apply one at a time in
    /// ascending `j` (each addition separately rounded), and columns
    /// with `alphas[j] == 0.0` must be skipped entirely — adding a
    /// literal `+ 0.0` could flip a signed zero. The result must be
    /// bit-for-bit what `k` sequential [`ColumnStorage::axpy_chunk`]
    /// calls (skipping zero coefficients) would produce.
    fn gemv_chunk(&self, k: usize, row_start: usize, alphas: &[f64], w: &mut [f64]) {
        for (j, &a) in alphas.iter().enumerate().take(k) {
            if a == 0.0 {
                continue;
            }
            self.axpy_chunk(j, row_start, a, w);
        }
    }

    /// Multi-RHS fused dot products:
    /// `out[j·nw + t] = Σ_i column_j[row_start + i] · ws[i·nw + t]` for
    /// every `j < k`, `t < nw` — the block-Arnoldi projection
    /// `H = VᵀW` over one row chunk. `ws` holds `nw` right-hand vectors
    /// interleaved row-major (vector `t` at stride `nw`), the layout
    /// [`SparseMatrix::spmm_into`]-style multi-RHS buffers already use.
    ///
    /// The default tiles each column through a stack buffer; block
    /// formats override so each stored block is decoded **once** for
    /// all `nw` vectors — the whole point of a block solve: one decode
    /// sweep of the compressed basis per expansion block, not one per
    /// right-hand side.
    ///
    /// # Bit-identity contract
    /// `out[j·nw + t]` must accumulate column `j`'s products with
    /// vector `t` in row order with one accumulator — bit-for-bit what
    /// [`ColumnStorage::dot_chunk`] would produce on the deinterleaved
    /// vector `t`.
    ///
    /// [`SparseMatrix::spmm_into`]: trait.ColumnStorage.html#method.dots_many_chunk
    fn dots_many_chunk(&self, k: usize, row_start: usize, ws: &[f64], nw: usize, out: &mut [f64]) {
        assert!(nw >= 1, "dots_many_chunk needs at least one vector");
        debug_assert_eq!(ws.len() % nw, 0);
        let len = ws.len() / nw;
        let mut tile = [0.0f64; 512];
        for j in 0..k {
            let accs = &mut out[j * nw..(j + 1) * nw];
            accs.fill(0.0);
            let mut off = 0;
            while off < len {
                let t_len = 512.min(len - off);
                self.read_chunk(j, row_start + off, &mut tile[..t_len]);
                for (i, &v) in tile[..t_len].iter().enumerate() {
                    let row = &ws[(off + i) * nw..(off + i) * nw + nw];
                    for (acc, &wv) in accs.iter_mut().zip(row) {
                        *acc += v * wv;
                    }
                }
                off += t_len;
            }
        }
    }

    /// Multi-RHS fused update:
    /// `ws[i·nw + t] += Σ_j alphas[j·nw + t] · column_j[row_start + i]`
    /// — the block projection update `W ← W − VH` over one row chunk,
    /// with `ws` interleaved row-major as in
    /// [`ColumnStorage::dots_many_chunk`]. Callers pass `alphas = −H`.
    ///
    /// The default applies per column through a stack tile; block
    /// formats override so each stored block is decoded once for all
    /// `nw` vectors.
    ///
    /// # Bit-identity contract
    /// Per element of each vector, column contributions apply one at a
    /// time in ascending `j` (each addition separately rounded), and a
    /// `(j, t)` pair with `alphas[j·nw + t] == 0.0` must be skipped
    /// entirely (a literal `+ 0.0` could flip a signed zero) —
    /// bit-for-bit what [`ColumnStorage::gemv_chunk`] would produce on
    /// the deinterleaved vector `t`.
    fn gemv_many_chunk(
        &self,
        k: usize,
        row_start: usize,
        alphas: &[f64],
        nw: usize,
        ws: &mut [f64],
    ) {
        assert!(nw >= 1, "gemv_many_chunk needs at least one vector");
        debug_assert_eq!(ws.len() % nw, 0);
        let len = ws.len() / nw;
        let mut tile = [0.0f64; 512];
        for j in 0..k {
            let al = &alphas[j * nw..(j + 1) * nw];
            if al.iter().all(|&a| a == 0.0) {
                continue;
            }
            let mut off = 0;
            while off < len {
                let t_len = 512.min(len - off);
                self.read_chunk(j, row_start + off, &mut tile[..t_len]);
                for (i, &v) in tile[..t_len].iter().enumerate() {
                    let row = &mut ws[(off + i) * nw..(off + i) * nw + nw];
                    for (wv, &a) in row.iter_mut().zip(al) {
                        if a != 0.0 {
                            *wv += a * v;
                        }
                    }
                }
                off += t_len;
            }
        }
    }

    /// Bytes of storage actually occupied by one column, including any
    /// per-block metadata. Drives the memory-traffic model.
    fn column_bytes(&self) -> usize;

    /// Average storage rate in bits per value (Eq. 3 for FRSZ2).
    ///
    /// A zero-row store has no values, so the rate is defined as 0.0
    /// rather than the `0/0 = NaN` the naive quotient would produce.
    fn bits_per_value(&self) -> f64 {
        if self.rows() == 0 {
            0.0
        } else {
            self.column_bytes() as f64 * 8.0 / self.rows() as f64
        }
    }

    /// Display name matching the paper's labels.
    fn format_name(&self) -> String;
}

/// Boxed storage is itself storage: every method delegates to the
/// contained object. This is what makes runtime format selection
/// possible — a `krylov::basis_format` factory hands the solver a
/// `Box<dyn ColumnStorage>` and the generic solve path runs unchanged
/// (the same pattern as `spla::FormatChoice::build` returning
/// `Box<dyn SparseMatrix>`). The only non-object-safe method is
/// [`ColumnStorage::with_shape`], which cannot pick a format out of
/// thin air and therefore panics; boxed stores are always built by a
/// factory.
impl ColumnStorage for Box<dyn ColumnStorage> {
    fn with_shape(_rows: usize, _cols: usize) -> Self {
        panic!("Box<dyn ColumnStorage> has no default format: build one via a basis-format factory")
    }

    #[inline]
    fn rows(&self) -> usize {
        (**self).rows()
    }

    #[inline]
    fn cols(&self) -> usize {
        (**self).cols()
    }

    fn write_column(&mut self, j: usize, data: &[f64]) {
        (**self).write_column(j, data);
    }

    #[inline]
    fn read_chunk(&self, j: usize, row_start: usize, out: &mut [f64]) {
        (**self).read_chunk(j, row_start, out);
    }

    #[inline]
    fn read_column(&self, j: usize, out: &mut [f64]) {
        (**self).read_column(j, out);
    }

    #[inline]
    fn load(&self, i: usize, j: usize) -> f64 {
        (**self).load(i, j)
    }

    #[inline]
    fn chunk_align(&self) -> usize {
        (**self).chunk_align()
    }

    #[inline]
    fn dot_chunk(&self, j: usize, row_start: usize, w: &[f64]) -> f64 {
        (**self).dot_chunk(j, row_start, w)
    }

    #[inline]
    fn axpy_chunk(&self, j: usize, row_start: usize, alpha: f64, w: &mut [f64]) {
        (**self).axpy_chunk(j, row_start, alpha, w)
    }

    #[inline]
    fn dots_chunk(&self, k: usize, row_start: usize, w: &[f64], out: &mut [f64]) {
        (**self).dots_chunk(k, row_start, w, out)
    }

    #[inline]
    fn gemv_chunk(&self, k: usize, row_start: usize, alphas: &[f64], w: &mut [f64]) {
        (**self).gemv_chunk(k, row_start, alphas, w)
    }

    #[inline]
    fn dots_many_chunk(&self, k: usize, row_start: usize, ws: &[f64], nw: usize, out: &mut [f64]) {
        (**self).dots_many_chunk(k, row_start, ws, nw, out)
    }

    #[inline]
    fn gemv_many_chunk(
        &self,
        k: usize,
        row_start: usize,
        alphas: &[f64],
        nw: usize,
        ws: &mut [f64],
    ) {
        (**self).gemv_many_chunk(k, row_start, alphas, nw, ws)
    }

    fn column_bytes(&self) -> usize {
        (**self).column_bytes()
    }

    fn bits_per_value(&self) -> f64 {
        (**self).bits_per_value()
    }

    fn format_name(&self) -> String {
        (**self).format_name()
    }
}

/// [`ColumnStorage`] backed by a flat `Vec<T>` of independently-cast values.
#[derive(Clone, Debug)]
pub struct DenseStore<T: StoredScalar> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: StoredScalar> DenseStore<T> {
    /// Borrow the raw stored column (test/diagnostic use).
    pub fn column_raw(&self, j: usize) -> &[T] {
        &self.data[j * self.rows..(j + 1) * self.rows]
    }
}

impl<T: StoredScalar> ColumnStorage for DenseStore<T> {
    fn with_shape(rows: usize, cols: usize) -> Self {
        DenseStore {
            rows,
            cols,
            data: vec![T::default(); rows * cols],
        }
    }

    #[inline]
    fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    fn cols(&self) -> usize {
        self.cols
    }

    fn write_column(&mut self, j: usize, data: &[f64]) {
        assert_eq!(data.len(), self.rows, "column length mismatch");
        assert!(j < self.cols, "column index {j} out of range");
        let col = &mut self.data[j * self.rows..(j + 1) * self.rows];
        for (dst, &src) in col.iter_mut().zip(data) {
            *dst = T::encode(src);
        }
    }

    #[inline]
    fn read_chunk(&self, j: usize, row_start: usize, out: &mut [f64]) {
        debug_assert!(row_start + out.len() <= self.rows);
        let col = &self.data[j * self.rows + row_start..j * self.rows + row_start + out.len()];
        for (dst, src) in out.iter_mut().zip(col) {
            *dst = src.decode();
        }
    }

    #[inline]
    fn load(&self, i: usize, j: usize) -> f64 {
        self.data[j * self.rows + i].decode()
    }

    #[inline]
    fn dot_chunk(&self, j: usize, row_start: usize, w: &[f64]) -> f64 {
        let col = &self.data[j * self.rows + row_start..j * self.rows + row_start + w.len()];
        let mut acc = 0.0;
        for (a, b) in col.iter().zip(w) {
            acc += a.decode() * b;
        }
        acc
    }

    #[inline]
    fn axpy_chunk(&self, j: usize, row_start: usize, alpha: f64, w: &mut [f64]) {
        let col = &self.data[j * self.rows + row_start..j * self.rows + row_start + w.len()];
        for (b, a) in w.iter_mut().zip(col) {
            *b += alpha * a.decode();
        }
    }

    /// Fused multi-column dots, tiled so the active slice of `w` stays
    /// cache-hot while all `k` column tiles stream past it. Each
    /// accumulator still sums its column in row order (tile by tile),
    /// so results are bit-identical to per-column
    /// [`DenseStore::dot_chunk`][ColumnStorage::dot_chunk] calls.
    fn dots_chunk(&self, k: usize, row_start: usize, w: &[f64], out: &mut [f64]) {
        const TILE: usize = 64;
        let rows = self.rows;
        out[..k].fill(0.0);
        let mut off = 0;
        while off < w.len() {
            let len = TILE.min(w.len() - off);
            let wt = &w[off..off + len];
            for (j, acc) in out[..k].iter_mut().enumerate() {
                let base = j * rows + row_start + off;
                let col = &self.data[base..base + len];
                let mut a = *acc;
                for (x, y) in col.iter().zip(wt) {
                    a += x.decode() * y;
                }
                *acc = a;
            }
            off += len;
        }
    }

    /// Fused multi-column update: each tile of `w` is loaded and stored
    /// once for all `k` columns. Per element the columns apply in `j`
    /// order and zero coefficients are skipped, so results are
    /// bit-identical to sequential
    /// [`DenseStore::axpy_chunk`][ColumnStorage::axpy_chunk] calls.
    fn gemv_chunk(&self, k: usize, row_start: usize, alphas: &[f64], w: &mut [f64]) {
        const TILE: usize = 64;
        let rows = self.rows;
        let mut off = 0;
        while off < w.len() {
            let len = TILE.min(w.len() - off);
            let wt = &mut w[off..off + len];
            for (j, &a) in alphas.iter().enumerate().take(k) {
                if a == 0.0 {
                    continue;
                }
                let base = j * rows + row_start + off;
                let col = &self.data[base..base + len];
                for (b, x) in wt.iter_mut().zip(col) {
                    *b += a * x.decode();
                }
            }
            off += len;
        }
    }

    fn column_bytes(&self) -> usize {
        self.rows * std::mem::size_of::<T>()
    }

    fn format_name(&self) -> String {
        T::NAME.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BF16, F16};

    fn ramp(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 - 8.0) / 3.0).collect()
    }

    #[test]
    fn f64_store_is_lossless() {
        let mut st = DenseStore::<f64>::with_shape(17, 3);
        let v = ramp(17);
        st.write_column(1, &v);
        let mut out = vec![0.0; 17];
        st.read_column(1, &mut out);
        assert_eq!(out, v);
        assert_eq!(st.load(5, 1), v[5]);
        assert_eq!(st.column_bytes(), 17 * 8);
        assert_eq!(st.format_name(), "float64");
    }

    #[test]
    fn f32_store_rounds_once() {
        let mut st = DenseStore::<f32>::with_shape(9, 1);
        let v = ramp(9);
        st.write_column(0, &v);
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(st.load(i, 0), x as f32 as f64);
        }
        assert!((st.bits_per_value() - 32.0).abs() < 1e-12);
    }

    #[test]
    fn f16_and_bf16_stores_decode_to_nearest() {
        let v = ramp(33);
        let mut h = DenseStore::<F16>::with_shape(33, 1);
        let mut b = DenseStore::<BF16>::with_shape(33, 1);
        h.write_column(0, &v);
        b.write_column(0, &v);
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(h.load(i, 0), F16::from_f64(x).to_f64());
            assert_eq!(b.load(i, 0), BF16::from_f64(x).to_f64());
        }
    }

    #[test]
    fn chunked_reads_cover_column() {
        let mut st = DenseStore::<f32>::with_shape(100, 2);
        let v = ramp(100);
        st.write_column(1, &v);
        let mut full = vec![0.0; 100];
        st.read_column(1, &mut full);
        let mut pieced = vec![0.0; 100];
        for start in (0..100).step_by(32) {
            let len = 32.min(100 - start);
            st.read_chunk(1, start, &mut pieced[start..start + len]);
        }
        assert_eq!(full, pieced);
    }

    #[test]
    #[should_panic(expected = "column length mismatch")]
    fn wrong_column_length_panics() {
        let mut st = DenseStore::<f64>::with_shape(4, 1);
        st.write_column(0, &[1.0, 2.0]);
    }

    #[test]
    fn boxed_storage_delegates_every_method() {
        let mut st: Box<dyn ColumnStorage> = Box::new(DenseStore::<f32>::with_shape(40, 2));
        let v = ramp(40);
        st.write_column(1, &v);
        assert_eq!(st.rows(), 40);
        assert_eq!(st.cols(), 2);
        assert_eq!(st.chunk_align(), 1);
        assert_eq!(st.column_bytes(), 40 * 4);
        assert!((st.bits_per_value() - 32.0).abs() < 1e-12);
        assert_eq!(st.format_name(), "float32");
        let mut out = vec![0.0; 40];
        st.read_column(1, &mut out);
        for (i, &x) in v.iter().enumerate() {
            let expect = x as f32 as f64;
            assert_eq!(out[i], expect);
            assert_eq!(st.load(i, 1), expect);
        }
        // Fused kernels go through the inner store's implementation.
        let w = vec![1.0; 40];
        let dot = st.dot_chunk(1, 0, &w);
        let serial: f64 = out.iter().sum();
        assert_eq!(dot.to_bits(), serial.to_bits());
        let mut acc = vec![0.0; 40];
        st.axpy_chunk(1, 0, 2.0, &mut acc);
        for (a, o) in acc.iter().zip(&out) {
            assert_eq!(*a, 2.0 * o);
        }
    }

    #[test]
    #[should_panic(expected = "basis-format factory")]
    fn boxed_with_shape_is_rejected() {
        let _ = <Box<dyn ColumnStorage>>::with_shape(4, 4);
    }

    #[test]
    fn zero_row_store_reports_zero_bits_per_value() {
        let st = DenseStore::<f64>::with_shape(0, 3);
        assert_eq!(st.bits_per_value(), 0.0);
        assert!(!st.bits_per_value().is_nan());
    }

    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A float64 store whose many-vector kernels count their calls.
    struct Probe {
        inner: DenseStore<f64>,
        fused_calls: Arc<AtomicUsize>,
    }

    impl ColumnStorage for Probe {
        fn with_shape(rows: usize, cols: usize) -> Self {
            Probe {
                inner: DenseStore::with_shape(rows, cols),
                fused_calls: Arc::default(),
            }
        }
        fn rows(&self) -> usize {
            self.inner.rows()
        }
        fn cols(&self) -> usize {
            self.inner.cols()
        }
        fn write_column(&mut self, j: usize, data: &[f64]) {
            self.inner.write_column(j, data)
        }
        fn read_chunk(&self, j: usize, row_start: usize, out: &mut [f64]) {
            self.inner.read_chunk(j, row_start, out)
        }
        fn load(&self, i: usize, j: usize) -> f64 {
            self.inner.load(i, j)
        }
        fn dots_many_chunk(&self, k: usize, r: usize, ws: &[f64], nw: usize, out: &mut [f64]) {
            self.fused_calls.fetch_add(1, Ordering::Relaxed);
            self.inner.dots_many_chunk(k, r, ws, nw, out)
        }
        fn gemv_many_chunk(&self, k: usize, r: usize, al: &[f64], nw: usize, ws: &mut [f64]) {
            self.fused_calls.fetch_add(1, Ordering::Relaxed);
            self.inner.gemv_many_chunk(k, r, al, nw, ws)
        }
        fn column_bytes(&self) -> usize {
            self.inner.column_bytes()
        }
        fn format_name(&self) -> String {
            "probe".into()
        }
    }

    #[test]
    fn boxed_storage_forwards_the_many_vector_kernels() {
        let mut st = Probe::with_shape(8, 2);
        let calls = Arc::clone(&st.fused_calls);
        st.write_column(0, &ramp(8));
        let boxed: Box<dyn ColumnStorage> = Box::new(st);
        let mut out = vec![0.0; 4];
        boxed.dots_many_chunk(2, 0, &ramp(16), 2, &mut out);
        let mut ws = ramp(16);
        boxed.gemv_many_chunk(2, 0, &[1.0, 0.5, 0.0, 2.0], 2, &mut ws);
        assert_eq!(calls.load(Ordering::Relaxed), 2);
    }
}
