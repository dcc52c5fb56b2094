//! Per-block adaptive-`l` FRSZ2 column storage.
//!
//! §VII of the paper names the fixed whole-basis bit length as FRSZ2's
//! main open problem: one `l` for every block means wide-exponent-range
//! data (the PR02R regime) flushes to zero under `frsz2_16` even though
//! most 32-value blocks are locally smooth and would compress fine.
//! [`Frsz2AdaptiveStore`] closes that gap by choosing `l` per block
//! from the block's own exponent *spread*: a block whose nonzero values
//! span `s` binades keeps every value to at least `guard_bits`
//! significand bits by picking the smallest palette length with
//! `l − 2 ≥ s + guard_bits`.
//!
//! Storage layout follows the uniform [`crate::store::Frsz2Store`]
//! (separate code-word and block-exponent arrays, design choice (5) of
//! §IV-C) with two additions: a per-block bit-length byte and a
//! per-block word offset, because blocks are packed back-to-back at
//! their own width (block `b` occupies exactly `words_per_block(l_b)`
//! words). Kernels touch only the used words of each block, so memory
//! traffic — and the reported [`ColumnStorage::bits_per_value`] — track
//! the actual per-column rate, not the worst-case capacity.
//!
//! All fused accessors reuse the word-granular per-block kernels (any
//! `l ≤ 64`) and keep the accessor contracts: single accumulator in row
//! order for dots, ascending-`j` column application with zero-alpha
//! skip for gemv — bit-identical to decode-then-BLAS.

use crate::codec::{decode_value, encode_bits};
use crate::kernels;
use crate::reference::ZERO_BLOCK_EXPONENT;
use numfmt::ColumnStorage;

/// Fixed FRSZ2 block size (the paper's warp width).
const BS: usize = 32;

/// Bit lengths the per-block selector may pick, ascending. The first
/// three are the paper's evaluated lengths; `64` is the lossless
/// fallback for blocks whose spread exceeds what `frsz2_32` retains.
pub const PALETTE: [u32; 4] = [16, 21, 32, 64];

/// Default minimum significand bits retained by the *smallest* nonzero
/// value of a block (see [`Frsz2AdaptiveStore::with_guard`]).
pub const DEFAULT_GUARD_BITS: u32 = 4;

/// Words occupied by one full 32-value block at bit length `l`
/// (`ceil(32·l/32) = l` for every palette length).
#[inline(always)]
fn block_words(l: u32) -> usize {
    l as usize
}

/// Smallest palette length keeping `guard` significand bits for a
/// value `spread` binades below the block maximum; saturates at 64
/// (beyond 58 binades of spread even the widest code flushes the
/// deepest values — unavoidable within a 64-bit field).
#[inline]
fn l_for_spread(spread: u32, guard: u32) -> u32 {
    *PALETTE
        .iter()
        .find(|&&l| l - 2 >= spread + guard)
        .unwrap_or(&64)
}

/// Column-major matrix of FRSZ2 columns with a per-block bit length.
#[derive(Clone, Debug)]
pub struct Frsz2AdaptiveStore {
    rows: usize,
    cols: usize,
    col_blocks: usize,
    /// Capacity stride of `words` per column (all blocks at `l = 64`).
    col_words_cap: usize,
    guard_bits: u32,
    words: Vec<u32>,
    /// Per-block maximum effective exponent, stride `col_blocks`.
    exps: Vec<u32>,
    /// Per-block chosen bit length, stride `col_blocks`.
    ls: Vec<u8>,
    /// Per-block word offset within the column, stride `col_blocks`.
    offs: Vec<u32>,
    /// Words actually used by each column's packed blocks.
    used: Vec<u32>,
}

impl Frsz2AdaptiveStore {
    /// Allocate with an explicit guard-bit budget (`guard_bits ≤ 14`,
    /// so a zero-spread block still picks the cheapest length).
    pub fn with_guard(rows: usize, cols: usize, guard_bits: u32) -> Self {
        assert!(guard_bits <= 14, "guard_bits {guard_bits} > 14");
        let col_blocks = rows.div_ceil(BS);
        let col_words_cap = col_blocks * block_words(64);
        let min_l = PALETTE[0];
        // Initial state is exactly what compressing all-zero columns
        // produces: every block at the cheapest length, zero words,
        // the canonical zero-block exponent.
        let mut offs = vec![0u32; col_blocks * cols];
        for (i, o) in offs.iter_mut().enumerate() {
            *o = ((i % col_blocks.max(1)) * block_words(min_l)) as u32;
        }
        Frsz2AdaptiveStore {
            rows,
            cols,
            col_blocks,
            col_words_cap,
            guard_bits,
            words: vec![0u32; col_words_cap * cols],
            exps: vec![ZERO_BLOCK_EXPONENT; col_blocks * cols],
            ls: vec![min_l as u8; col_blocks * cols],
            offs,
            used: vec![(col_blocks * block_words(min_l)) as u32; cols],
        }
    }

    /// Guard-bit budget of the per-block length selector.
    pub fn guard_bits(&self) -> u32 {
        self.guard_bits
    }

    /// Per-block bit lengths of column `j` (diagnostics/tests).
    pub fn column_bit_lengths(&self, j: usize) -> &[u8] {
        &self.ls[j * self.col_blocks..(j + 1) * self.col_blocks]
    }

    /// Per-block exponents of column `j` (diagnostics/tests).
    pub fn column_exponents(&self, j: usize) -> &[u32] {
        &self.exps[j * self.col_blocks..(j + 1) * self.col_blocks]
    }

    /// Packed words of column `j`, used span only (diagnostics/tests).
    pub fn column_words(&self, j: usize) -> &[u32] {
        &self.words[j * self.col_words_cap..j * self.col_words_cap + self.used[j] as usize]
    }

    /// `(l, word offset, emax)` of block `b` in column `j`.
    #[inline(always)]
    fn block_meta(&self, j: usize, b: usize) -> (u32, usize, u32) {
        let p = j * self.col_blocks + b;
        (self.ls[p] as u32, self.offs[p] as usize, self.exps[p])
    }

    /// Packed words of block `b` in column `j`.
    #[inline(always)]
    fn block_span(&self, j: usize, b: usize) -> (u32, &[u32], u32) {
        let (l, off, emax) = self.block_meta(j, b);
        let base = j * self.col_words_cap + off;
        (l, &self.words[base..base + block_words(l)], emax)
    }
}

impl ColumnStorage for Frsz2AdaptiveStore {
    fn with_shape(rows: usize, cols: usize) -> Self {
        Frsz2AdaptiveStore::with_guard(rows, cols, DEFAULT_GUARD_BITS)
    }

    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn write_column(&mut self, j: usize, data: &[f64]) {
        assert_eq!(data.len(), self.rows, "column length mismatch");
        assert!(j < self.cols, "column index {j} out of range");
        let guard = self.guard_bits;
        let base = j * self.col_words_cap;
        let meta = j * self.col_blocks;
        let mut off = 0usize;
        for (b, chunk) in data.chunks(BS).enumerate() {
            // Pass 1: the block's maximum effective exponent plus — new
            // here — the minimum over *nonzero* values, whose distance
            // to the maximum is the spread the length selector sees.
            // Zeros are exact at every length, so they don't widen it.
            let mut emax = ZERO_BLOCK_EXPONENT;
            let mut emin = u32::MAX;
            for &v in chunk {
                debug_assert!(v.is_finite(), "FRSZ2 input must be finite");
                let e = (((v.to_bits() >> 52) & 0x7FF) as u32).max(1);
                emax = emax.max(e);
                if v != 0.0 {
                    emin = emin.min(e);
                }
            }
            let spread = if emin == u32::MAX { 0 } else { emax - emin };
            let l = l_for_spread(spread, guard);
            self.exps[meta + b] = emax;
            self.ls[meta + b] = l as u8;
            self.offs[meta + b] = off as u32;

            // Pass 2: encode and store at the chosen length.
            let bw = &mut self.words[base + off..base + off + block_words(l)];
            if chunk.len() < BS {
                bw.fill(0);
            }
            if l == 64 {
                for (i, &v) in chunk.iter().enumerate() {
                    let c = encode_bits(v.to_bits(), emax, 64, false);
                    bw[2 * i] = c as u32;
                    bw[2 * i + 1] = (c >> 32) as u32;
                }
            } else {
                kernels::pack_block(l, emax, false, chunk, bw);
            }
            off += block_words(l);
        }
        self.used[j] = off as u32;
    }

    #[inline]
    fn read_chunk(&self, j: usize, row_start: usize, out: &mut [f64]) {
        if out.is_empty() {
            return;
        }
        assert!(
            row_start.is_multiple_of(BS),
            "row_start must be block-aligned"
        );
        assert!(row_start + out.len() <= self.rows, "range beyond column");
        let first_block = row_start / BS;
        for (ob, chunk) in out.chunks_mut(BS).enumerate() {
            let (l, bw, emax) = self.block_span(j, first_block + ob);
            kernels::decode_block(l, bw, emax, chunk);
        }
    }

    #[inline]
    fn load(&self, i: usize, j: usize) -> f64 {
        let (l, bw, emax) = self.block_span(j, i / BS);
        decode_value(kernels::code_at(bw, i % BS, l), emax, l)
    }

    fn chunk_align(&self) -> usize {
        BS
    }

    /// Fused decompress-and-dot straight off the packed words, each
    /// block at its own bit length. Single accumulator, row order.
    fn dot_chunk(&self, j: usize, row_start: usize, w: &[f64]) -> f64 {
        debug_assert!(row_start.is_multiple_of(BS));
        let first_block = row_start / BS;
        let mut acc = 0.0;
        for (ob, wc) in w.chunks(BS).enumerate() {
            let (l, bw, emax) = self.block_span(j, first_block + ob);
            kernels::dot_block(l, bw, emax, wc, &mut acc);
        }
        acc
    }

    /// Fused decompress-and-axpy; see [`Frsz2AdaptiveStore::dot_chunk`].
    fn axpy_chunk(&self, j: usize, row_start: usize, alpha: f64, w: &mut [f64]) {
        debug_assert!(row_start.is_multiple_of(BS));
        let first_block = row_start / BS;
        for (ob, wc) in w.chunks_mut(BS).enumerate() {
            let (l, bw, emax) = self.block_span(j, first_block + ob);
            kernels::axpy_block(l, bw, emax, alpha, wc);
        }
    }

    /// Multi-column fused dots: all `k` columns swept per block so each
    /// block of `w` is loaded once. Bit-identical to `k` independent
    /// [`Frsz2AdaptiveStore::dot_chunk`] calls.
    fn dots_chunk(&self, k: usize, row_start: usize, w: &[f64], out: &mut [f64]) {
        debug_assert!(k <= self.cols);
        debug_assert!(row_start.is_multiple_of(BS));
        let first_block = row_start / BS;
        out[..k].fill(0.0);
        for (ob, wc) in w.chunks(BS).enumerate() {
            let b = first_block + ob;
            for (j, acc) in out[..k].iter_mut().enumerate() {
                let (l, bw, emax) = self.block_span(j, b);
                kernels::dot_block(l, bw, emax, wc, acc);
            }
        }
    }

    /// Multi-column fused update with the accessor's zero-alpha skip
    /// (signed zeros survive). Bit-identical to `k` sequential
    /// [`Frsz2AdaptiveStore::axpy_chunk`] calls.
    fn gemv_chunk(&self, k: usize, row_start: usize, alphas: &[f64], w: &mut [f64]) {
        debug_assert!(k <= self.cols);
        debug_assert!(row_start.is_multiple_of(BS));
        let first_block = row_start / BS;
        for (ob, wc) in w.chunks_mut(BS).enumerate() {
            let b = first_block + ob;
            for (j, &a) in alphas.iter().enumerate().take(k) {
                if a == 0.0 {
                    continue;
                }
                let (l, bw, emax) = self.block_span(j, b);
                kernels::axpy_block(l, bw, emax, a, wc);
            }
        }
    }

    /// Multi-column, multi-RHS fused dots: each block is decoded once
    /// (at its own bit length) for all `nw` interleaved vectors.
    /// Bit-identical to `nw` independent
    /// [`Frsz2AdaptiveStore::dots_chunk`] calls on deinterleaved
    /// vectors.
    fn dots_many_chunk(&self, k: usize, row_start: usize, ws: &[f64], nw: usize, out: &mut [f64]) {
        debug_assert!(k <= self.cols);
        debug_assert!(row_start.is_multiple_of(BS));
        debug_assert_eq!(ws.len() % nw, 0);
        let len = ws.len() / nw;
        let first_block = row_start / BS;
        out[..k * nw].fill(0.0);
        let mut off = 0usize;
        while off < len {
            let count = BS.min(len - off);
            let b = first_block + off / BS;
            for j in 0..k {
                let (l, bw, emax) = self.block_span(j, b);
                kernels::dot_many_block(
                    l,
                    bw,
                    emax,
                    &ws[off * nw..],
                    nw,
                    count,
                    &mut out[j * nw..(j + 1) * nw],
                );
            }
            off += count;
        }
    }

    /// Multi-column, multi-RHS fused update with the accessor's
    /// per-`(column, vector)` zero-coefficient skip. Bit-identical to
    /// `nw` independent [`Frsz2AdaptiveStore::gemv_chunk`] calls.
    fn gemv_many_chunk(
        &self,
        k: usize,
        row_start: usize,
        alphas: &[f64],
        nw: usize,
        ws: &mut [f64],
    ) {
        debug_assert!(k <= self.cols);
        debug_assert!(row_start.is_multiple_of(BS));
        debug_assert_eq!(ws.len() % nw, 0);
        let len = ws.len() / nw;
        let first_block = row_start / BS;
        let mut off = 0usize;
        while off < len {
            let count = BS.min(len - off);
            let b = first_block + off / BS;
            for j in 0..k {
                let al = &alphas[j * nw..(j + 1) * nw];
                if al.iter().all(|&a| a == 0.0) {
                    continue;
                }
                let (l, bw, emax) = self.block_span(j, b);
                kernels::axpy_many_block(l, bw, emax, al, &mut ws[off * nw..], nw, count);
            }
            off += count;
        }
    }

    /// A variable-rate store has no single column size; report the
    /// across-column average of the *used* bytes (code words + block
    /// exponents + one bit-length byte per block) — the figure the
    /// solver's traffic model needs.
    fn column_bytes(&self) -> usize {
        if self.cols == 0 {
            return 0;
        }
        let word_bytes: usize = self.used.iter().map(|&u| u as usize * 4).sum();
        let meta_bytes = self.col_blocks * 5 * self.cols;
        (word_bytes + meta_bytes) / self.cols
    }

    /// Exact average rate over all columns (the default would re-derive
    /// it from the rounded per-column byte average).
    fn bits_per_value(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            return 0.0;
        }
        let word_bits: usize = self.used.iter().map(|&u| u as usize * 32).sum();
        let meta_bits = self.col_blocks * 40 * self.cols;
        (word_bits + meta_bits) as f64 / (self.rows * self.cols) as f64
    }

    fn format_name(&self) -> String {
        "frsz2_ab".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    /// ~`binades` of exponent range across the column, smooth locally.
    fn ramped(n: usize, binades: f64, seed: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let s = ((i + 31 * seed) as f64 * 0.37).sin() + 1.5;
                s * (binades * i as f64 / n.max(1) as f64).exp2()
            })
            .collect()
    }

    #[test]
    fn length_selector_is_monotone_in_spread() {
        let mut prev = 0;
        for spread in 0..70 {
            let l = l_for_spread(spread, DEFAULT_GUARD_BITS);
            assert!(PALETTE.contains(&l));
            assert!(l >= prev, "selector must not narrow as spread grows");
            if l < 64 {
                assert!(l - 2 >= spread + DEFAULT_GUARD_BITS);
            }
            prev = l;
        }
        assert_eq!(l_for_spread(0, DEFAULT_GUARD_BITS), 16);
        assert_eq!(l_for_spread(30, DEFAULT_GUARD_BITS), 64);
    }

    /// A narrow-spread column stays at the cheapest length; a column
    /// with one wide block widens exactly that block.
    #[test]
    fn per_block_lengths_track_local_spread() {
        let mut st = Frsz2AdaptiveStore::with_shape(128, 1);
        let mut v = ramped(128, 2.0, 0);
        st.write_column(0, &v);
        assert!(st.column_bit_lengths(0).iter().all(|&l| l == 16));

        v[40] *= (40.0f64).exp2(); // block 1 now spans ~40 binades
        st.write_column(0, &v);
        let ls = st.column_bit_lengths(0);
        assert_eq!(ls[1], 64);
        assert!(ls[0] == 16 && ls[2] == 16 && ls[3] == 16);
    }

    /// Every stored value keeps `guard_bits` of relative accuracy —
    /// the flush-to-zero failure mode of fixed `frsz2_16` is gone.
    #[test]
    fn guard_bits_bound_relative_error() {
        let n = 203; // ragged tail
        let v = ramped(n, 24.0, 3);
        let mut st = Frsz2AdaptiveStore::with_shape(n, 1);
        st.write_column(0, &v);
        let mut out = vec![0.0; n];
        st.read_column(0, &mut out);
        for (i, (&x, &y)) in v.iter().zip(&out).enumerate() {
            let rel = (x - y).abs() / x.abs();
            assert!(
                rel <= (-(DEFAULT_GUARD_BITS as f64)).exp2(),
                "row {i}: rel err {rel:e}"
            );
        }
    }

    /// Decoded values match the scalar reference at each block's
    /// chosen length, bit for bit (truncation mode).
    #[test]
    fn decode_matches_reference_per_block() {
        let n = 170;
        let v = ramped(n, 18.0, 7);
        let mut st = Frsz2AdaptiveStore::with_shape(n, 1);
        st.write_column(0, &v);
        let mut out = vec![0.0; n];
        st.read_column(0, &mut out);
        for (b, chunk) in v.chunks(BS).enumerate() {
            let l = st.column_bit_lengths(0)[b] as u32;
            let (emax, codes) = reference::compress_block(chunk, l, true);
            assert_eq!(st.column_exponents(0)[b], emax);
            let expect = reference::decompress_block(emax, &codes, l);
            for (i, e) in expect.iter().enumerate() {
                assert_eq!(
                    out[b * BS + i].to_bits(),
                    e.to_bits(),
                    "block {b} row {i} (l = {l})"
                );
            }
        }
    }

    /// The unwritten-column state is exactly the compressed-zeros
    /// state: same lengths, exponents, and words.
    #[test]
    fn unwritten_column_matches_compressed_zeros() {
        let mut st = Frsz2AdaptiveStore::with_shape(70, 2);
        st.write_column(0, &vec![0.0; 70]);
        assert_eq!(st.column_bit_lengths(1), st.column_bit_lengths(0));
        assert_eq!(st.column_exponents(1), st.column_exponents(0));
        assert_eq!(st.column_words(1), st.column_words(0));
        let mut out = vec![1.0; 70];
        st.read_column(1, &mut out);
        assert!(out.iter().all(|&x| x == 0.0 && x.is_sign_positive()));
    }

    /// Rewriting a column with different per-block lengths must fully
    /// replace the old layout (offsets shift between writes).
    #[test]
    fn overwriting_column_replaces_old_layout() {
        let n = 96;
        let mut st = Frsz2AdaptiveStore::with_shape(n, 1);
        let wide: Vec<f64> = (0..n)
            .map(|i| (1.0 + i as f64) * ((i as f64 * 0.61).sin() * 20.0).exp2())
            .collect();
        st.write_column(0, &wide);
        let narrow = ramped(n, 1.0, 5);
        st.write_column(0, &narrow);
        assert!(st.column_bit_lengths(0).iter().all(|&l| l == 16));
        let mut out = vec![0.0; n];
        st.read_column(0, &mut out);
        for (i, (&x, &y)) in narrow.iter().zip(&out).enumerate() {
            assert!((x - y).abs() / x.abs() < 0.1, "row {i}");
        }
    }

    /// Rate accounting: a narrow-range column must beat whole-basis
    /// `frsz2_21` (22 bits/value) and carry the 40-bit/block metadata.
    #[test]
    fn rate_reflects_used_words() {
        let n = 3200;
        let mut st = Frsz2AdaptiveStore::with_shape(n, 1);
        st.write_column(0, &ramped(n, 3.0, 1));
        let bpv = st.bits_per_value();
        assert!(
            (bpv - (16.0 + 40.0 / 32.0)).abs() < 1e-12,
            "all-16 column is 17.25 bits/value, got {bpv}"
        );
        assert_eq!(st.format_name(), "frsz2_ab");
        assert_eq!(st.chunk_align(), 32);
    }
}
