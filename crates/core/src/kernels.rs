//! Branch-free, word-granular fused FRSZ2 kernels.
//!
//! Every hot loop in this module walks a block's packed code words
//! through a **rolling `u64` window**: field `i` of an `l`-bit stream
//! (`l <= 32`) lives in at most two adjacent `u32` words, so
//!
//! ```text
//! code_i = ((w[p] | w[p+1] << 32) >> (i·l mod 32)) & mask(l)      p = ⌊i·l / 32⌋
//! ```
//!
//! extracts it with two loads, one shift and one mask — no per-element
//! branching on word boundaries and no decompressed copy of the column
//! in memory, which is what the paper's §IV-B means by decompression
//! "in registers". The one wrinkle is the block's final
//! word: a field that lies entirely inside it must not gather the
//! (nonexistent) word after the block, so each block loop is split at
//! [`two_word_fields`] into a two-word prefix and a single-word suffix
//! — a split computed once per block, never per element. A full paper
//! block (`BS = 32`) of a monomorphized length is staged through a
//! 32-entry stack tile instead ([`decode_full_block`]): its extraction
//! unrolls with constant shifts and its decode runs lane-parallel.
//!
//! The same window runs in reverse for compression:
//! [`pack_fields_le32`] accumulates codes into a `u64` staging register
//! and spills whole 32-bit words as they fill, so packed words are
//! written exactly once and never read back (no read-modify-write as
//! in [`crate::bitpack::write_bits`]). Codes are batch-encoded into a
//! stack buffer first (independent per value, so the branch-free
//! encoder vectorizes), and for a full 32-code batch of a
//! monomorphized length the spill loop fully unrolls with every flush
//! point a compile-time constant.
//!
//! All entry points are monomorphized over `const L: u32` with `L = 0`
//! meaning "runtime bit length": call sites dispatch the paper's
//! lengths (`16`, `21`, `32`) to dedicated instances via
//! [`dispatch_l!`] and fall back to one shared runtime-`l` instance
//! for everything else, so every `l` gets a fused kernel and only the
//! common ones pay compile time. For the word-aligned `L ∈ {16, 32}`
//! the window collapses at compile time to the direct single-load
//! form (`⌊i·l/32⌋` and `i·l mod 32` are constant-foldable), keeping
//! those instances as fast as hand-written aligned loops. Bit lengths
//! above 32 take the wide-field path ([`code_at`]) — still fused,
//! just without the two-word window (a >32-bit field can straddle
//! three words).
//!
//! Every kernel reads a block through one driver, [`for_each_value`],
//! so each block of a column is decoded the same way whichever kernel
//! reads it.
//!
//! # Bit-identity contract
//!
//! These kernels change *how* codes are extracted and decoded, never
//! *what* value a code stands for: extraction is exact, and each block
//! picks its decode rule once, from its exponent word and `l` alone.
//! When `l ≤ 54 && l − 1 ≤ emax ≤ 2046` every nonzero value of the block
//! is normal and the block decodes arithmetically as
//! `±(field as f64) · 2^(emax − 1023 − (l − 2))`, with the scale built
//! once per block and the sign OR-ed in as a bit (so `-0.0` survives).
//! That is exact — the field is below `2^53`, the product is a
//! power-of-two scaling, and no result leaves the normal range — so it
//! returns the bits of the normative per-value normalize,
//! [`crate::codec::decode_code`] (the argument is spelled out there),
//! which every other block keeps: subnormal results, `l > 54`, and
//! corrupt or out-of-range exponent words behave exactly as before.
//! Every accumulation visits elements in row order with one
//! accumulator per output, exactly like the scalar reference loops
//! these kernels replace. Fused results are therefore bit-identical to
//! decompress-then-BLAS — property-tested in `tests/fused_kernels.rs`
//! (including blocks pinned at the rule's exponent boundaries, checked
//! against `frsz2::reference`) and enforced at run time by the
//! `bench_json` fused-vs-reference fingerprint groups.

use crate::codec::{block_scale, decode_code, decode_scaled, encode_bits, Frsz2Config};
use crate::{bitpack, mask64};

const MASK52: u64 = (1u64 << 52) - 1;

/// Number of leading fields in a block whose two-word gather stays
/// inside the block's `wpb` words. Fields past this point start in the
/// final word and fit entirely within it.
#[inline(always)]
fn two_word_fields(count: usize, l: u32, wpb: usize) -> usize {
    if wpb < 2 {
        return 0;
    }
    // Field i loads words ⌊i·l/32⌋ and ⌊i·l/32⌋ + 1; the latter is in
    // bounds while i·l <= 32·(wpb − 1) − 1.
    count.min((32 * (wpb - 1) - 1) / l as usize + 1)
}

/// Two-word window gather: the 64-bit little-endian view of the stream
/// at `bitpos`, shifted so the field starts at bit 0 (caller masks).
#[inline(always)]
fn gather2(bw: &[u32], bitpos: usize) -> u64 {
    let p = bitpos >> 5;
    ((bw[p] as u64) | ((bw[p + 1] as u64) << 32)) >> (bitpos & 31)
}

/// Code `i` of a block's words at any bit length, by direct loads for
/// the word-aligned `l ∈ {16, 32, 64}` and the generic bit reader
/// otherwise (a >32-bit field may touch three words). Random access and
/// the wide (`l > 32`) block loops use it.
#[inline(always)]
pub(crate) fn code_at(bw: &[u32], i: usize, l: u32) -> u64 {
    match l {
        32 => bw[i] as u64,
        16 => ((bw[i / 2] >> ((i as u32 & 1) * 16)) & 0xFFFF) as u64,
        64 => bw[2 * i] as u64 | ((bw[2 * i + 1] as u64) << 32),
        l => bitpack::read_bits(bw, i * l as usize, l),
    }
}

/// Dispatch a runtime bit length to the monomorphized instances for
/// the paper's `l ∈ {16, 21, 32}` or the shared runtime instance
/// (`L = 0`) otherwise.
macro_rules! dispatch_l {
    ($l:expr, $func:ident($($args:expr),* $(,)?)) => {
        match $l {
            16 => $func::<16>($($args),*),
            21 => $func::<21>($($args),*),
            32 => $func::<32>($($args),*),
            _ => $func::<0>($($args),*),
        }
    };
}

/// Resolve the compile-time/runtime bit-length split: `L = 0` means
/// "use the runtime value".
#[inline(always)]
fn resolve_l<const L: u32>(l_rt: u32) -> u32 {
    if L == 0 {
        l_rt
    } else {
        debug_assert_eq!(L, l_rt);
        L
    }
}

/// The extraction loop core: feed `f(i, code_i)` the first `count`
/// fields of one block (`bw` = the block's full word span), in row
/// order. The `L ∈ {16, 32}` instances constant-fold to direct aligned
/// loads; other `l <= 32` run the two-word window with the per-block
/// prefix/suffix split; `l > 32` reads each field with [`code_at`].
#[inline(always)]
fn for_each_code<const L: u32>(l_rt: u32, bw: &[u32], count: usize, mut f: impl FnMut(usize, u64)) {
    let l = resolve_l::<L>(l_rt);
    let wpb = bw.len();
    if L == 32 {
        // The window collapses to one direct load per field.
        for (i, &c) in bw[..count].iter().enumerate() {
            f(i, c as u64);
        }
    } else if L == 0 && l > 32 {
        for i in 0..count {
            f(i, code_at(bw, i, l));
        }
    } else {
        let m = mask64(l);
        if L != 0 && count == 32 && wpb == L as usize {
            // Full paper block (BS = 32) of a monomorphized length:
            // trip counts and every bit offset are compile-time
            // constants, so the unrolled loop has no per-element index
            // arithmetic or bounds checks left.
            let nt = two_word_fields(32, L, L as usize);
            for i in 0..nt {
                f(i, gather2(bw, i * L as usize) & m);
            }
            let (last, base) = (bw[L as usize - 1] as u64, (L as usize - 1) * 32);
            for i in nt..32 {
                f(i, (last >> (i * L as usize - base)) & m);
            }
        } else {
            let nt = two_word_fields(count, l, wpb);
            for i in 0..nt {
                f(i, gather2(bw, i * l as usize) & m);
            }
            if nt < count {
                let (last, base) = (bw[wpb - 1] as u64, (wpb - 1) * 32);
                for i in nt..count {
                    f(i, (last >> (i * l as usize - base)) & m);
                }
            }
        }
    }
}

/// Feed `f(i, vᵢ)` the first `count` decoded values of one block at
/// exponent `emax`, in row order. The decode rule is chosen here, once
/// per block: the arithmetic `±field · scale` when [`block_scale`]
/// admits the block — through [`decode_full_block`] for a full paper
/// block of a monomorphized length — and the normative [`decode_code`]
/// otherwise (see the module's bit-identity contract).
#[inline(always)]
fn for_each_value_l<const L: u32>(
    l_rt: u32,
    bw: &[u32],
    emax: u32,
    count: usize,
    mut f: impl FnMut(usize, f64),
) {
    let l = resolve_l::<L>(l_rt);
    match block_scale(emax, l) {
        Some(scale) if L != 0 && count == 32 && bw.len() == L as usize => {
            for (i, &v) in decode_full_block::<L>(bw, scale).iter().enumerate() {
                f(i, v);
            }
        }
        Some(scale) => for_each_code::<L>(l, bw, count, |i, c| f(i, decode_scaled(c, scale, l))),
        None => for_each_code::<L>(l, bw, count, |i, c| f(i, decode_code(c, emax, l))),
    }
}

/// Decode a full paper block (BS = 32) of a monomorphized length
/// `L <= 32` under its [`block_scale`] in two passes: all 32 codes are
/// extracted first — the extraction loop fully unrolls, every word index
/// and shift a compile-time constant — and the tile is then decoded as
/// independent lanes, which the compiler vectorizes. Feeding values
/// straight from the window instead leaves one variable shift and a
/// scalar conversion on every element.
#[inline(always)]
fn decode_full_block<const L: u32>(bw: &[u32], scale: f64) -> [f64; 32] {
    let mut codes = [0u32; 32];
    for_each_code::<L>(L, bw, 32, |i, c| codes[i] = c as u32);
    let mut vals = [0.0f64; 32];
    for (v, &c) in vals.iter_mut().zip(&codes) {
        *v = decode_scaled(u64::from(c), scale, L);
    }
    vals
}

/// [`for_each_value_l`] at a runtime bit length, dispatched to the
/// monomorphized instances (`2 <= l <= 64`).
#[inline(always)]
fn for_each_value(l: u32, bw: &[u32], emax: u32, count: usize, f: impl FnMut(usize, f64)) {
    dispatch_l!(l, for_each_value_l(l, bw, emax, count, f))
}

// ---------------------------------------------------------------------
// Per-block entry points (any `l`; variable-rate stores pick `l` per
// block). `bw` is exactly the block's full-block word span
// (`words_per_block(l)`), zero-padded past the last code of a partial
// trailing block.
// ---------------------------------------------------------------------

/// Decode one block's leading `out.len()` values.
#[inline]
pub(crate) fn decode_block(l: u32, bw: &[u32], emax: u32, out: &mut [f64]) {
    for_each_value(l, bw, emax, out.len(), |i, v| out[i] = v);
}

/// Fused decompress-and-dot over one block: `acc += Σ_i vᵢ · wᵢ`,
/// accumulating in row order (bit-compatible with [`decode_block`]
/// followed by a plain dot).
#[inline]
pub(crate) fn dot_block(l: u32, bw: &[u32], emax: u32, w: &[f64], acc: &mut f64) {
    let mut a = *acc;
    for_each_value(l, bw, emax, w.len(), |i, v| a += v * w[i]);
    *acc = a;
}

/// Fused decompress-and-axpy over one block: `wᵢ += alpha · vᵢ`.
#[inline]
pub(crate) fn axpy_block(l: u32, bw: &[u32], emax: u32, alpha: f64, w: &mut [f64]) {
    for_each_value(l, bw, emax, w.len(), |i, v| w[i] += alpha * v);
}

/// Fused decompress-and-dots over one block against `nw` interleaved
/// vectors: `accs[t] += Σ_i vᵢ · wrows[i·nw + t]` for `t <
/// accs.len()`, each accumulator in row order (bit-compatible with
/// [`dot_block`] per deinterleaved vector). `wrows` starts at the
/// block's first row, pre-offset to the accumulator tile's vector 0.
#[inline]
pub(crate) fn dot_many_block(
    l: u32,
    bw: &[u32],
    emax: u32,
    wrows: &[f64],
    nw: usize,
    count: usize,
    accs: &mut [f64],
) {
    let tl = accs.len();
    for_each_value(l, bw, emax, count, |i, v| {
        for (a, &wv) in accs.iter_mut().zip(&wrows[i * nw..i * nw + tl]) {
            *a += v * wv;
        }
    });
}

/// Fused decompress-and-axpy over one block into `nw` interleaved
/// vectors: `wrows[i·nw + t] += al[t] · vᵢ`, skipping `t` with
/// `al[t] == 0.0` (signed-zero preservation, matching [`axpy_block`]
/// per deinterleaved vector under [`gemv_chunk`]'s skip rule).
#[inline]
pub(crate) fn axpy_many_block(
    l: u32,
    bw: &[u32],
    emax: u32,
    al: &[f64],
    wrows: &mut [f64],
    nw: usize,
    count: usize,
) {
    let tl = al.len();
    for_each_value(l, bw, emax, count, |i, v| {
        for (wv, &a) in wrows[i * nw..i * nw + tl].iter_mut().zip(al) {
            if a != 0.0 {
                *wv += a * v;
            }
        }
    });
}

/// Truncating encode for `l <= 54`: [`encode_bits`] with the
/// saturating shift reduced to `min(shift, 63)` — exact because the
/// 53-bit significand is exhausted by any shift ≥ 53, and `shift =
/// (emax − e_eff) + 54 − l` is non-negative for `l <= 54`. Branch-free.
#[inline(always)]
fn encode_trunc(bits: u64, emax: u32, l: u32) -> u64 {
    let e = ((bits >> 52) & 0x7FF) as u32;
    let sign = bits >> 63;
    let m = bits & MASK52;
    let e_eff = e | u32::from(e == 0);
    let sig = m | (u64::from(e != 0) << 52);
    let shift = ((emax - e_eff) as u64 + 54 - l as u64).min(63);
    (sign << (l - 1)) | (sig >> shift)
}

/// Pack one block's codes through the rolling `u64` staging register
/// (`l <= 32`): every covered word is written exactly once and never
/// read back. The spill is predicate-advanced rather than branched —
/// the fill pattern (`staged >= 32` roughly `l/32` of the time) would
/// otherwise mispredict for every unaligned `l`. Words past the last
/// code are left untouched (the caller zero-fills partial trailing
/// blocks first).
#[inline(always)]
fn pack_fields_le32<const L: u32>(
    l_rt: u32,
    emax: u32,
    nearest: bool,
    chunk: &[f64],
    bw: &mut [u32],
) {
    let l = resolve_l::<L>(l_rt);
    let mut acc: u64 = 0;
    let mut staged: u32 = 0;
    let mut wi = 0usize;
    // Stage in two steps: encode a batch of codes into a stack buffer
    // (independent per value — the compiler vectorizes the branch-free
    // encoder), then spill the batch through the rolling register
    // (serial, but only shift/or/store ops on the critical chain).
    let mut codes = [0u64; 32];
    for batch in chunk.chunks(32) {
        if nearest {
            // Rounding ablation path: rare, keeps the full encoder.
            for (c, &v) in codes.iter_mut().zip(batch) {
                *c = encode_bits(v.to_bits(), emax, l, true);
            }
        } else {
            for (c, &v) in codes.iter_mut().zip(batch) {
                *c = encode_trunc(v.to_bits(), emax, l);
            }
        }
        if L != 0 && batch.len() == 32 && wi + L as usize <= bw.len() {
            // Full 32-code batch of a monomorphized length: it spans
            // exactly `L` words starting word-aligned (32·L bits), so
            // the spill loop fully unrolls with every flush point a
            // compile-time constant.
            debug_assert_eq!(staged, 0);
            let out = &mut bw[wi..wi + L as usize];
            let mut wj = 0usize;
            for &c in &codes {
                acc |= c << staged;
                staged += L;
                if staged >= 32 {
                    out[wj] = acc as u32;
                    wj += 1;
                    acc >>= 32;
                    staged -= 32;
                }
            }
            wi += L as usize;
        } else {
            for &c in &codes[..batch.len()] {
                // staged <= 31 and l <= 32, so the shifted code always
                // fits.
                acc |= c << staged;
                staged += l;
                if staged >= 32 {
                    bw[wi] = acc as u32;
                    wi += 1;
                    acc >>= 32;
                    staged -= 32;
                }
            }
        }
    }
    if staged > 0 {
        bw[wi] = acc as u32;
    }
}

// ---------------------------------------------------------------------
// Chunk-level drivers (uniform stores: one `l` per column).
// ---------------------------------------------------------------------

/// Decompress `out.len()` values of a column starting at block-aligned
/// `row_start`, straight off the packed words — no tile buffer for any
/// bit length.
pub(crate) fn decode_range(
    cfg: Frsz2Config,
    words: &[u32],
    exps: &[u32],
    row_start: usize,
    out: &mut [f64],
) {
    let (bs, l, wpb) = (cfg.block_size(), cfg.bits(), cfg.words_per_block());
    let first_block = row_start / bs;
    for (ob, chunk) in out.chunks_mut(bs).enumerate() {
        let b = first_block + ob;
        decode_block(l, &words[b * wpb..(b + 1) * wpb], exps[b], chunk);
    }
}

/// Fused dot product `Σ_i column[row_start + i] · w[i]` for any bit
/// length; one accumulator, row order, no intermediate buffer.
pub(crate) fn dot_chunk(
    cfg: Frsz2Config,
    words: &[u32],
    exps: &[u32],
    row_start: usize,
    w: &[f64],
) -> f64 {
    let (bs, l, wpb) = (cfg.block_size(), cfg.bits(), cfg.words_per_block());
    debug_assert_eq!(row_start % bs, 0);
    let first_block = row_start / bs;
    let mut acc = 0.0;
    for (ob, wc) in w.chunks(bs).enumerate() {
        let b = first_block + ob;
        dot_block(l, &words[b * wpb..(b + 1) * wpb], exps[b], wc, &mut acc);
    }
    acc
}

/// Fused axpy `w[i] += alpha · column[row_start + i]` for any bit
/// length.
pub(crate) fn axpy_chunk(
    cfg: Frsz2Config,
    words: &[u32],
    exps: &[u32],
    row_start: usize,
    alpha: f64,
    w: &mut [f64],
) {
    let (bs, l, wpb) = (cfg.block_size(), cfg.bits(), cfg.words_per_block());
    debug_assert_eq!(row_start % bs, 0);
    let first_block = row_start / bs;
    for (ob, wc) in w.chunks_mut(bs).enumerate() {
        let b = first_block + ob;
        axpy_block(l, &words[b * wpb..(b + 1) * wpb], exps[b], alpha, wc);
    }
}

/// Multi-column fused dots: `out[j] += Σ_i V[row_start + i, j] · w[i]`
/// for `j < k`, sweeping all `k` columns per 32-value block so each
/// block of `w` is loaded once instead of `k` times. Each `out[j]`
/// accumulates its column in row order — bit-identical to `k`
/// independent [`dot_chunk`] calls. Columns live at strides
/// `col_words` / `col_blocks` in `words` / `exps`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn dots_chunk(
    cfg: Frsz2Config,
    words: &[u32],
    exps: &[u32],
    col_words: usize,
    col_blocks: usize,
    k: usize,
    row_start: usize,
    w: &[f64],
    out: &mut [f64],
) {
    let (bs, l, wpb) = (cfg.block_size(), cfg.bits(), cfg.words_per_block());
    debug_assert_eq!(row_start % bs, 0);
    let first_block = row_start / bs;
    out[..k].fill(0.0);
    for (ob, wc) in w.chunks(bs).enumerate() {
        let b = first_block + ob;
        for (j, acc) in out[..k].iter_mut().enumerate() {
            let base = j * col_words + b * wpb;
            dot_block(
                l,
                &words[base..base + wpb],
                exps[j * col_blocks + b],
                wc,
                acc,
            );
        }
    }
}

/// Multi-column fused update: `w[i] += Σ_j alphas[j] · V[row_start + i, j]`,
/// sweeping all `k` columns per block so each block of `w` is loaded
/// and stored once instead of `k` times. Zero coefficients are skipped
/// entirely (never folded in as `+ 0.0`, which could flip a signed
/// zero), and per element the columns apply in `j` order — both
/// bit-compatible with `k` sequential [`axpy_chunk`] calls.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemv_chunk(
    cfg: Frsz2Config,
    words: &[u32],
    exps: &[u32],
    col_words: usize,
    col_blocks: usize,
    k: usize,
    row_start: usize,
    alphas: &[f64],
    w: &mut [f64],
) {
    let (bs, l, wpb) = (cfg.block_size(), cfg.bits(), cfg.words_per_block());
    debug_assert_eq!(row_start % bs, 0);
    let first_block = row_start / bs;
    for (ob, wc) in w.chunks_mut(bs).enumerate() {
        let b = first_block + ob;
        for (j, &a) in alphas.iter().enumerate().take(k) {
            if a == 0.0 {
                continue;
            }
            let base = j * col_words + b * wpb;
            axpy_block(l, &words[base..base + wpb], exps[j * col_blocks + b], a, wc);
        }
    }
}

// ---------------------------------------------------------------------
// Multi-RHS drivers (block solves: one decode sweep, `nw` vectors).
// ---------------------------------------------------------------------

/// Rows per cache sub-window of the multi-RHS drivers, in blocks. The
/// accumulators (`dots`) or the interleaved vectors (`gemv`) of one
/// sub-window stay resident while all `k` columns stream past, so the
/// compressed basis is still decoded exactly once per sweep but the
/// `k × nw` running sums are reloaded only once per sub-window instead
/// of once per block. Pure access reordering — accumulation order per
/// `(column, vector)` is untouched, so bits don't depend on it.
const MANY_SUBWINDOW_BLOCKS: usize = 32;

/// Vectors per stack-accumulator tile of the multi-RHS drivers. Splits
/// very wide blocks into register-friendly strips; per-`(j, t)`
/// accumulation order is again unaffected.
const MANY_NW_TILE: usize = 64;

/// Multi-column, multi-RHS fused dots:
/// `out[j·nw + t] = Σ_i V[row_start + i, j] · ws[i·nw + t]` — the
/// block-Arnoldi projection `H = VᵀW` over one row chunk, with `ws`
/// holding `nw` vectors interleaved row-major. Every stored block is
/// decoded once for all `nw` vectors and each `out[j·nw + t]`
/// accumulates in row order with one accumulator — bit-identical to
/// `nw` independent [`dots_chunk`] calls on deinterleaved vectors.
#[allow(clippy::too_many_arguments)]
pub(crate) fn dots_many_chunk(
    cfg: Frsz2Config,
    words: &[u32],
    exps: &[u32],
    col_words: usize,
    col_blocks: usize,
    k: usize,
    row_start: usize,
    ws: &[f64],
    nw: usize,
    out: &mut [f64],
) {
    let (bs, l, wpb) = (cfg.block_size(), cfg.bits(), cfg.words_per_block());
    debug_assert_eq!(row_start % bs, 0);
    debug_assert_eq!(ws.len() % nw, 0);
    let len = ws.len() / nw;
    let first_block = row_start / bs;
    out[..k * nw].fill(0.0);
    let sw_rows = MANY_SUBWINDOW_BLOCKS * bs;
    for t0 in (0..nw).step_by(MANY_NW_TILE) {
        let tl = MANY_NW_TILE.min(nw - t0);
        let mut row0 = 0usize;
        while row0 < len {
            let sw_len = sw_rows.min(len - row0);
            let sb = first_block + row0 / bs;
            for j in 0..k {
                let mut accs = [0.0f64; MANY_NW_TILE];
                accs[..tl].copy_from_slice(&out[j * nw + t0..j * nw + t0 + tl]);
                let mut off = 0usize;
                while off < sw_len {
                    let count = bs.min(sw_len - off);
                    let b = sb + off / bs;
                    let base = j * col_words + b * wpb;
                    dot_many_block(
                        l,
                        &words[base..base + wpb],
                        exps[j * col_blocks + b],
                        &ws[(row0 + off) * nw + t0..],
                        nw,
                        count,
                        &mut accs[..tl],
                    );
                    off += count;
                }
                out[j * nw + t0..j * nw + t0 + tl].copy_from_slice(&accs[..tl]);
            }
            row0 += sw_len;
        }
    }
}

/// Multi-column, multi-RHS fused update:
/// `ws[i·nw + t] += Σ_j alphas[j·nw + t] · V[row_start + i, j]` — the
/// block projection update `W ← W − VH` (callers pass `alphas = −H`).
/// Every stored block is decoded once for all `nw` vectors; per
/// element of each vector, columns apply one at a time in ascending
/// `j` and `(j, t)` pairs with a zero coefficient are skipped —
/// bit-identical to `nw` independent [`gemv_chunk`] calls on
/// deinterleaved vectors.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemv_many_chunk(
    cfg: Frsz2Config,
    words: &[u32],
    exps: &[u32],
    col_words: usize,
    col_blocks: usize,
    k: usize,
    row_start: usize,
    alphas: &[f64],
    nw: usize,
    ws: &mut [f64],
) {
    let (bs, l, wpb) = (cfg.block_size(), cfg.bits(), cfg.words_per_block());
    debug_assert_eq!(row_start % bs, 0);
    debug_assert_eq!(ws.len() % nw, 0);
    let len = ws.len() / nw;
    let first_block = row_start / bs;
    let sw_rows = MANY_SUBWINDOW_BLOCKS * bs;
    for t0 in (0..nw).step_by(MANY_NW_TILE) {
        let tl = MANY_NW_TILE.min(nw - t0);
        let mut row0 = 0usize;
        while row0 < len {
            let sw_len = sw_rows.min(len - row0);
            let sb = first_block + row0 / bs;
            for j in 0..k {
                let al = &alphas[j * nw + t0..j * nw + t0 + tl];
                if al.iter().all(|&a| a == 0.0) {
                    continue;
                }
                let mut off = 0usize;
                while off < sw_len {
                    let count = bs.min(sw_len - off);
                    let b = sb + off / bs;
                    let base = j * col_words + b * wpb;
                    axpy_many_block(
                        l,
                        &words[base..base + wpb],
                        exps[j * col_blocks + b],
                        al,
                        &mut ws[(row0 + off) * nw + t0..],
                        nw,
                        count,
                    );
                    off += count;
                }
            }
            row0 += sw_len;
        }
    }
}

/// Pack one block for any `l <= 32` through the `u64` staging
/// register, aligned lengths included (`l = 64` keeps its dedicated
/// store loop in `compress_into`; other `l > 32` take
/// [`pack_fields_wide`]).
#[inline]
pub(crate) fn pack_block(l: u32, emax: u32, nearest: bool, chunk: &[f64], bw: &mut [u32]) {
    debug_assert!(l <= 32);
    dispatch_l!(l, pack_fields_le32(l, emax, nearest, chunk, bw));
}

/// Pack one block of wide fields (`32 < l < 64`, not word-aligned)
/// through a `u128` staging register — same single-write-per-word
/// discipline as [`pack_block`], widened so a 63-bit code always fits
/// above the 31 staged bits.
pub(crate) fn pack_fields_wide(l: u32, emax: u32, nearest: bool, chunk: &[f64], bw: &mut [u32]) {
    debug_assert!(l > 32 && l < 64);
    let mut acc: u128 = 0;
    let mut staged: u32 = 0;
    let mut wi = 0usize;
    for &v in chunk {
        acc |= (encode_bits(v.to_bits(), emax, l, nearest) as u128) << staged;
        staged += l;
        while staged >= 32 {
            bw[wi] = acc as u32;
            wi += 1;
            acc >>= 32;
            staged -= 32;
        }
    }
    if staged > 0 {
        bw[wi] = acc as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The branch-free truncating encoder must agree with the general
    /// [`encode_bits`] for every operand class (normal, subnormal,
    /// zero, both signs, saturating shifts).
    #[test]
    fn encode_trunc_matches_encode_bits() {
        let values = [
            0.0,
            -0.0,
            1.0,
            -1.5,
            0.7,
            1e-300,
            -1e300,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 8.0, // subnormal
            f64::from_bits(1),       // smallest subnormal
        ];
        for &v in &values {
            let bits = v.to_bits();
            let ve = crate::reference::effective_exponent(v);
            for emax in [ve, ve + 1, ve + 40, ve + 200, 2046] {
                for l in [2u32, 8, 16, 21, 32] {
                    assert_eq!(
                        encode_trunc(bits, emax, l),
                        encode_bits(bits, emax, l, false),
                        "v={v:e} emax={emax} l={l}"
                    );
                }
            }
        }
    }

    /// The predicate-advanced packer writes the same words as the
    /// generic bit writer for every `l <= 32`, full and partial blocks.
    #[test]
    fn pack_matches_write_bits() {
        let data: Vec<f64> = (0..32).map(|i| ((i as f64) * 0.73).sin() * 3.0).collect();
        for l in [2u32, 4, 5, 8, 11, 16, 21, 31, 32] {
            for count in [1usize, 7, 31, 32] {
                let chunk = &data[..count];
                let emax = chunk
                    .iter()
                    .map(|v| crate::reference::effective_exponent(*v))
                    .max()
                    .unwrap();
                let wpb = bitpack::words_for(32, l);
                let mut expect = vec![0u32; wpb];
                for (i, &v) in chunk.iter().enumerate() {
                    let c = encode_bits(v.to_bits(), emax, l, false);
                    bitpack::write_bits(&mut expect, i * l as usize, l, c);
                }
                let mut got = vec![0u32; wpb];
                pack_block(l, emax, false, chunk, &mut got);
                assert_eq!(got, expect, "l={l} count={count}");
            }
        }
    }
}
