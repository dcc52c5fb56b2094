//! Preconditioners for right-preconditioned GMRES.
//!
//! The paper's evaluation runs *without* a preconditioner "to not blur
//! the numerical impact" (§V-C) — [`Identity`] reproduces that setup.
//! [`Jacobi`] and [`BlockJacobi`] are the optional extension the related
//! work points at (\[15\]: adaptive-precision block-Jacobi): they exercise
//! the `M⁻¹` hooks of Fig. 1 steps 3 and 17.
//!
//! Construction accepts any [`SparseMatrix`] format. The validating
//! `try_new` constructors reject degenerate operators (zero diagonals,
//! singular blocks) with a typed [`PrecondError`]; the infallible `new`
//! constructors *degrade gracefully* instead — a zero-diagonal row or
//! singular block falls back to identity scaling and the fallback count
//! is recorded — so a whole suite run is never aborted by one bad row.

use spla::SparseMatrix;

/// Why a preconditioner could not be built exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrecondError {
    /// `diag(A)` has a zero entry at this row: point-Jacobi undefined.
    ZeroDiagonal {
        /// Row whose diagonal entry is zero.
        row: usize,
    },
    /// This diagonal block is numerically singular: block-Jacobi
    /// undefined.
    SingularBlock {
        /// Index of the singular diagonal block.
        block: usize,
    },
}

impl std::fmt::Display for PrecondError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrecondError::ZeroDiagonal { row } => {
                write!(f, "zero diagonal at row {row}: Jacobi undefined")
            }
            PrecondError::SingularBlock { block } => {
                write!(f, "singular diagonal block {block}: BlockJacobi undefined")
            }
        }
    }
}

impl std::error::Error for PrecondError {}

/// Application of `M⁻¹` (right preconditioning: `w = A M⁻¹ v`).
pub trait Preconditioner: Send + Sync {
    /// `out = M⁻¹ v`.
    fn apply(&self, v: &[f64], out: &mut [f64]);

    /// Display name for reports.
    fn name(&self) -> &'static str;

    /// `true` when `M⁻¹` is exactly the identity map. The s-step driver
    /// uses this to route the matrix-powers panel through the fused
    /// [`spla::SparseMatrix::spmv_powers_into`] kernel; any non-trivial
    /// preconditioner falls back to stepwise `apply` + `spmv` (which is
    /// what the fused kernel computes bit-for-bit when `M = I`).
    fn is_identity(&self) -> bool {
        false
    }
}

/// No preconditioning (`M = I`) — the paper's configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct Identity;

impl Preconditioner for Identity {
    #[inline]
    fn apply(&self, v: &[f64], out: &mut [f64]) {
        out.copy_from_slice(v);
    }

    fn name(&self) -> &'static str {
        "none"
    }

    fn is_identity(&self) -> bool {
        true
    }
}

/// A boxed preconditioner is itself a preconditioner: every method,
/// `is_identity` included, forwards to the contained object. This is
/// what lets a preconditioner be chosen at run time (by name or by a
/// registration spec) and handed to the generic solve drivers, which
/// then still route `M = I` through the fused matrix-powers kernel.
impl Preconditioner for Box<dyn Preconditioner> {
    #[inline]
    fn apply(&self, v: &[f64], out: &mut [f64]) {
        (**self).apply(v, out);
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn is_identity(&self) -> bool {
        (**self).is_identity()
    }
}

/// Point-Jacobi: `M = diag(A)`.
#[derive(Clone, Debug)]
pub struct Jacobi {
    inv_diag: Vec<f64>,
    skipped_rows: usize,
}

impl Jacobi {
    /// Build from the matrix diagonal, rejecting zero diagonal entries.
    pub fn try_new(a: &(impl SparseMatrix + ?Sized)) -> Result<Self, PrecondError> {
        let mut inv_diag = Vec::new();
        for (row, &d) in a.diagonal().iter().enumerate() {
            if d == 0.0 {
                return Err(PrecondError::ZeroDiagonal { row });
            }
            inv_diag.push(1.0 / d);
        }
        Ok(Jacobi {
            inv_diag,
            skipped_rows: 0,
        })
    }

    /// Build from the matrix diagonal. Zero-diagonal rows fall back to
    /// identity scaling (factor 1.0) and are counted in
    /// [`Jacobi::skipped_rows`], so a degenerate row degrades the
    /// preconditioner instead of aborting the solve.
    pub fn new(a: &(impl SparseMatrix + ?Sized)) -> Self {
        let mut skipped_rows = 0usize;
        let inv_diag = a
            .diagonal()
            .iter()
            .map(|&d| {
                if d == 0.0 {
                    skipped_rows += 1;
                    1.0
                } else {
                    1.0 / d
                }
            })
            .collect();
        Jacobi {
            inv_diag,
            skipped_rows,
        }
    }

    /// Rows where the zero-diagonal identity fallback was applied.
    pub fn skipped_rows(&self) -> usize {
        self.skipped_rows
    }
}

impl Preconditioner for Jacobi {
    #[inline]
    fn apply(&self, v: &[f64], out: &mut [f64]) {
        for ((o, &x), &d) in out.iter_mut().zip(v).zip(&self.inv_diag) {
            *o = x * d;
        }
    }

    fn name(&self) -> &'static str {
        "jacobi"
    }
}

/// Block-Jacobi with dense inverted diagonal blocks of fixed size.
///
/// Blocks are factorized once with partial-pivoted LU; `apply` performs
/// the two triangular solves per block. A singular block falls back to
/// the identity (see [`BlockJacobi::new`]).
#[derive(Clone, Debug)]
pub struct BlockJacobi {
    n: usize,
    bs: usize,
    /// Per block: LU factors (row-major bs×bs) and pivot indices, or
    /// `None` for a singular block handled as identity.
    lu: Vec<Option<(Vec<f64>, Vec<usize>)>>,
    singular_blocks: usize,
}

impl BlockJacobi {
    /// Extract and factorize the block diagonal of `a`, rejecting
    /// numerically singular blocks.
    pub fn try_new(
        a: &(impl SparseMatrix + ?Sized),
        block_size: usize,
    ) -> Result<Self, PrecondError> {
        let p = Self::build(a, block_size);
        if let Some(block) = p.lu.iter().position(Option::is_none) {
            return Err(PrecondError::SingularBlock { block });
        }
        Ok(p)
    }

    /// Extract and factorize the block diagonal of `a` with
    /// `block_size`. Singular blocks fall back to the identity (the
    /// block's rows pass through unscaled) and are counted in
    /// [`BlockJacobi::singular_blocks`].
    ///
    /// # Panics
    /// If `block_size == 0`.
    pub fn new(a: &(impl SparseMatrix + ?Sized), block_size: usize) -> Self {
        Self::build(a, block_size)
    }

    fn build(a: &(impl SparseMatrix + ?Sized), block_size: usize) -> Self {
        assert!(block_size >= 1);
        let n = a.rows();
        let mut lu = Vec::with_capacity(n.div_ceil(block_size));
        let mut singular_blocks = 0usize;
        for start in (0..n).step_by(block_size) {
            let bs = block_size.min(n - start);
            let mut block = vec![0.0; bs * bs];
            for r in 0..bs {
                a.for_each_in_row(start + r, &mut |c, v| {
                    let c = c as usize;
                    if c >= start && c < start + bs {
                        block[r * bs + (c - start)] = v;
                    }
                });
            }
            match lu_factor(block, bs) {
                Some(f) => lu.push(Some(f)),
                None => {
                    singular_blocks += 1;
                    lu.push(None);
                }
            }
        }
        BlockJacobi {
            n,
            bs: block_size,
            lu,
            singular_blocks,
        }
    }

    /// Blocks where the singular-block identity fallback was applied.
    pub fn singular_blocks(&self) -> usize {
        self.singular_blocks
    }
}

/// In-place partial-pivot LU. Returns `None` for a singular matrix.
fn lu_factor(mut m: Vec<f64>, n: usize) -> Option<(Vec<f64>, Vec<usize>)> {
    let mut piv: Vec<usize> = (0..n).collect();
    for k in 0..n {
        // Pivot selection.
        let (mut best, mut best_abs) = (k, m[k * n + k].abs());
        for r in k + 1..n {
            let a = m[r * n + k].abs();
            if a > best_abs {
                best = r;
                best_abs = a;
            }
        }
        if best_abs == 0.0 {
            return None;
        }
        if best != k {
            for c in 0..n {
                m.swap(k * n + c, best * n + c);
            }
            piv.swap(k, best);
        }
        let pivot = m[k * n + k];
        for r in k + 1..n {
            let f = m[r * n + k] / pivot;
            m[r * n + k] = f;
            for c in k + 1..n {
                m[r * n + c] -= f * m[k * n + c];
            }
        }
    }
    Some((m, piv))
}

/// Solve `LU x = b[piv]` in place into `x`.
fn lu_solve(lu: &[f64], piv: &[usize], b: &[f64], x: &mut [f64]) {
    let n = piv.len();
    for i in 0..n {
        x[i] = b[piv[i]];
    }
    // Forward substitution (unit lower).
    for i in 0..n {
        for j in 0..i {
            x[i] -= lu[i * n + j] * x[j];
        }
    }
    // Backward substitution.
    for i in (0..n).rev() {
        for j in i + 1..n {
            x[i] -= lu[i * n + j] * x[j];
        }
        x[i] /= lu[i * n + i];
    }
}

impl Preconditioner for BlockJacobi {
    fn apply(&self, v: &[f64], out: &mut [f64]) {
        assert_eq!(v.len(), self.n);
        assert_eq!(out.len(), self.n);
        for (b, factors) in self.lu.iter().enumerate() {
            let start = b * self.bs;
            let bs = self.bs.min(self.n - start);
            match factors {
                Some((lu, piv)) => {
                    lu_solve(lu, piv, &v[start..start + bs], &mut out[start..start + bs]);
                }
                // Singular block: identity fallback.
                None => out[start..start + bs].copy_from_slice(&v[start..start + bs]),
            }
        }
    }

    fn name(&self) -> &'static str {
        "block-jacobi"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spla::{Coo, Ell, SellCSigma};

    #[test]
    fn boxed_preconditioners_forward_every_method() {
        let a = spla::gen::conv_diff_3d(3, 3, 3, [0.1, 0.0, 0.0], 0.5);
        let v: Vec<f64> = (0..a.rows()).map(|i| i as f64 - 4.5).collect();
        let boxed: [(Box<dyn Preconditioner>, &dyn Preconditioner); 3] = [
            (Box::new(Identity), &Identity),
            (Box::new(Jacobi::new(&a)), &Jacobi::new(&a)),
            (Box::new(BlockJacobi::new(&a, 4)), &BlockJacobi::new(&a, 4)),
        ];
        for (b, direct) in &boxed {
            assert_eq!(b.name(), direct.name());
            assert_eq!(b.is_identity(), direct.is_identity());
            let (mut via_box, mut via_direct) = (vec![0.0; v.len()], vec![0.0; v.len()]);
            b.apply(&v, &mut via_box);
            direct.apply(&v, &mut via_direct);
            assert_eq!(via_box, via_direct, "{}", direct.name());
        }
        assert!(boxed[0].0.is_identity());
        assert!(!boxed[1].0.is_identity());
    }

    #[test]
    fn identity_copies() {
        let p = Identity;
        let v = vec![1.0, -2.0, 3.0];
        let mut out = vec![0.0; 3];
        p.apply(&v, &mut out);
        assert_eq!(out, v);
    }

    #[test]
    fn jacobi_inverts_diagonal() {
        let mut m = Coo::new(3, 3);
        m.push(0, 0, 2.0);
        m.push(1, 1, 4.0);
        m.push(2, 2, -0.5);
        m.push(0, 1, 9.0); // off-diagonal ignored by Jacobi
        let p = Jacobi::new(&m.to_csr());
        assert_eq!(p.skipped_rows(), 0);
        let mut out = vec![0.0; 3];
        p.apply(&[2.0, 4.0, -0.5], &mut out);
        assert_eq!(out, vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn jacobi_zero_diagonal_falls_back_and_try_new_errors() {
        // Row 1 has no diagonal entry at all.
        let mut m = Coo::new(3, 3);
        m.push(0, 0, 2.0);
        m.push(1, 0, 7.0);
        m.push(2, 2, 4.0);
        let a = m.to_csr();
        assert_eq!(
            Jacobi::try_new(&a).unwrap_err(),
            PrecondError::ZeroDiagonal { row: 1 }
        );
        // `new` must not panic: the zero row passes through unscaled.
        let p = Jacobi::new(&a);
        assert_eq!(p.skipped_rows(), 1);
        let mut out = vec![0.0; 3];
        p.apply(&[2.0, 5.0, 8.0], &mut out);
        assert_eq!(out, vec![1.0, 5.0, 2.0]);
    }

    #[test]
    fn jacobi_accepts_any_sparse_format() {
        let mut m = Coo::new(3, 3);
        m.push(0, 0, 2.0);
        m.push(1, 1, 4.0);
        m.push(2, 2, 8.0);
        let a = m.to_csr();
        for p in [
            Jacobi::new(&Ell::from_csr(&a)),
            Jacobi::new(&SellCSigma::from_csr(&a, 2, 4)),
        ] {
            let mut out = vec![0.0; 3];
            p.apply(&[2.0, 4.0, 8.0], &mut out);
            assert_eq!(out, vec![1.0, 1.0, 1.0]);
        }
    }

    #[test]
    fn block_jacobi_inverts_block_diagonal_exactly() {
        // Block-diagonal matrix with 2x2 blocks: BlockJacobi::apply must
        // be a perfect inverse.
        let mut m = Coo::new(4, 4);
        // block 0: [[4, 1], [2, 3]]
        m.push(0, 0, 4.0);
        m.push(0, 1, 1.0);
        m.push(1, 0, 2.0);
        m.push(1, 1, 3.0);
        // block 1: [[1, -1], [0, 2]]
        m.push(2, 2, 1.0);
        m.push(2, 3, -1.0);
        m.push(3, 3, 2.0);
        let a = m.to_csr();
        let p = BlockJacobi::new(&a, 2);
        assert_eq!(p.singular_blocks(), 0);
        let x = vec![1.0, -2.0, 0.5, 3.0];
        let b = a.mul_vec(&x);
        let mut out = vec![0.0; 4];
        p.apply(&b, &mut out);
        for i in 0..4 {
            assert!(
                (out[i] - x[i]).abs() < 1e-14,
                "i={i}: {} vs {}",
                out[i],
                x[i]
            );
        }
    }

    #[test]
    fn block_jacobi_handles_trailing_partial_block() {
        let mut m = Coo::new(5, 5);
        for i in 0..5 {
            m.push(i, i, (i + 1) as f64);
        }
        let p = BlockJacobi::new(&m.to_csr(), 2);
        let mut out = vec![0.0; 5];
        p.apply(&[1.0, 2.0, 3.0, 4.0, 5.0], &mut out);
        assert_eq!(out, vec![1.0, 1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn partial_trailing_block_roundtrips_matvec_exactly() {
        // 5×5 block-diagonal with block size 2: two full 2×2 blocks and
        // a trailing 1×1 block. Entries are dyadic and upper-triangular
        // within each block, so LU needs no pivoting and both the
        // matvec and the two triangular solves are exact in f64:
        // apply(matvec(x)) must round-trip *bitwise*.
        let mut m = Coo::new(5, 5);
        m.push(0, 0, 2.0);
        m.push(0, 1, 1.0);
        m.push(1, 1, 4.0);
        m.push(2, 2, 0.5);
        m.push(2, 3, -1.0);
        m.push(3, 3, 8.0);
        m.push(4, 4, 16.0); // trailing partial block
        let a = m.to_csr();
        let p = BlockJacobi::new(&a, 2);
        assert_eq!(p.singular_blocks(), 0);
        let x = vec![1.5, -2.25, 0.75, 3.0, -0.125];
        let b = a.mul_vec(&x);
        let mut out = vec![0.0; 5];
        p.apply(&b, &mut out);
        for i in 0..5 {
            assert_eq!(
                out[i].to_bits(),
                x[i].to_bits(),
                "i={i}: {} vs {}",
                out[i],
                x[i]
            );
        }
    }

    #[test]
    fn lu_pivoting_handles_zero_leading_entry() {
        // [[0, 1], [1, 0]] requires a row swap.
        let (lu, piv) = lu_factor(vec![0.0, 1.0, 1.0, 0.0], 2).unwrap();
        let mut x = vec![0.0; 2];
        lu_solve(&lu, &piv, &[3.0, 7.0], &mut x);
        assert_eq!(x, vec![7.0, 3.0]);
    }

    #[test]
    fn singular_block_falls_back_and_try_new_errors() {
        // Block 0 is the singular [[1, 1], [1, 1]]; block 1 is fine.
        let mut m = Coo::new(4, 4);
        m.push(0, 0, 1.0);
        m.push(0, 1, 1.0);
        m.push(1, 0, 1.0);
        m.push(1, 1, 1.0);
        m.push(2, 2, 2.0);
        m.push(3, 3, 4.0);
        let a = m.to_csr();
        assert_eq!(
            BlockJacobi::try_new(&a, 2).unwrap_err(),
            PrecondError::SingularBlock { block: 0 }
        );
        // `new` must not panic: the singular block acts as identity,
        // the healthy block still inverts.
        let p = BlockJacobi::new(&a, 2);
        assert_eq!(p.singular_blocks(), 1);
        let mut out = vec![0.0; 4];
        p.apply(&[3.0, 5.0, 2.0, 4.0], &mut out);
        assert_eq!(out, vec![3.0, 5.0, 1.0, 1.0]);
    }

    #[test]
    fn error_messages_name_the_offender() {
        assert!(PrecondError::ZeroDiagonal { row: 7 }
            .to_string()
            .contains("row 7"));
        assert!(PrecondError::SingularBlock { block: 3 }
            .to_string()
            .contains("block 3"));
    }
}
