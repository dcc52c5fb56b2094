//! Cached per-operator analysis.
//!
//! Registering a matrix with the service runs every expensive
//! per-operator step **once** — sparse-format auto-selection
//! ([`spla::select::auto_format`]), row-length statistics,
//! preconditioner factorization — and keeps the results behind an
//! `Arc`, so any number of concurrent jobs share them read-only.

use crate::error::ServiceError;
use krylov::{auto_basis, BlockJacobi, Identity, Jacobi, Preconditioner};
use spla::stats::{row_length_stats, RowLengthStats};
use spla::{auto_format, Csr, SparseMatrix};

/// Which preconditioner to factorize (once) at registration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrecondSpec {
    /// No preconditioning (`M = I`) — the paper's configuration.
    None,
    /// Point-Jacobi from the operator diagonal.
    Jacobi,
    /// Block-Jacobi with dense LU-factorized diagonal blocks of this
    /// size.
    BlockJacobi {
        /// Diagonal block edge length (rows per block).
        block_size: usize,
    },
}

/// One registered operator: the auto-selected sparse matrix plus every
/// analysis product jobs reuse.
pub(crate) struct AnalyzedOperator {
    pub(crate) name: String,
    /// The operator in its auto-selected format. `SparseMatrix` is
    /// `Send + Sync`, so concurrent jobs share this box read-only.
    pub(crate) matrix: Box<dyn SparseMatrix>,
    pub(crate) row_stats: RowLengthStats,
    pub(crate) sparse_format: &'static str,
    /// The factorized preconditioner. Boxed so every job reaches it
    /// through the one forwarding impl in `krylov`, which also forwards
    /// `is_identity` (the s-step driver's fused matrix-powers route).
    pub(crate) precond: Box<dyn Preconditioner>,
}

impl AnalyzedOperator {
    /// Run the full (expensive) analysis for a matrix: format
    /// selection, row statistics, preconditioner factorization.
    pub(crate) fn analyze(name: &str, a: &Csr, precond: PrecondSpec) -> Result<Self, ServiceError> {
        let choice = auto_format(a);
        let failed = |source| ServiceError::PrecondFailed {
            operator: name.to_string(),
            source,
        };
        let precond: Box<dyn Preconditioner> = match precond {
            PrecondSpec::None => Box::new(Identity),
            PrecondSpec::Jacobi => Box::new(Jacobi::try_new(a).map_err(failed)?),
            PrecondSpec::BlockJacobi { block_size } => {
                Box::new(BlockJacobi::try_new(a, block_size).map_err(failed)?)
            }
        };
        Ok(AnalyzedOperator {
            name: name.to_string(),
            matrix: choice.build(a),
            row_stats: row_length_stats(a),
            sparse_format: choice.name(),
            precond,
        })
    }

    /// The basis format [`krylov::auto_basis`] recommends for a solve
    /// on this operator with the given stopping target and restart
    /// length (a pure function of the cached dimensions).
    pub(crate) fn recommended_basis(&self, target_rrn: f64, restart: usize) -> String {
        auto_basis(target_rrn, self.matrix.rows(), restart).name()
    }

    /// Public snapshot of the cached analysis.
    pub(crate) fn info(&self, target_rrn: f64, restart: usize) -> OperatorInfo {
        OperatorInfo {
            name: self.name.clone(),
            rows: self.matrix.rows(),
            cols: self.matrix.cols(),
            nnz: self.matrix.nnz(),
            sparse_format: self.sparse_format.to_string(),
            storage_bytes: self.matrix.storage_bytes(),
            row_stats: self.row_stats,
            preconditioner: self.precond.name().to_string(),
            recommended_basis: self.recommended_basis(target_rrn, restart),
        }
    }
}

/// Snapshot of one operator's cached analysis, as returned by
/// [`crate::SolverService::register_csr`] and
/// [`crate::SolverService::operator_info`].
#[derive(Clone, Debug, PartialEq)]
pub struct OperatorInfo {
    /// Registration name jobs refer to.
    pub name: String,
    /// Operator row count.
    pub rows: usize,
    /// Operator column count.
    pub cols: usize,
    /// Stored non-zeros.
    pub nnz: usize,
    /// Sparse format `auto_format` selected (`csr`/`ell`/`sell-c-sigma`).
    pub sparse_format: String,
    /// Bytes the selected format stores (exposes the padding trade-off).
    pub storage_bytes: usize,
    /// Row-length statistics that drove the format selection.
    pub row_stats: RowLengthStats,
    /// Name of the factorized preconditioner (`none`/`jacobi`/
    /// `block-jacobi`).
    pub preconditioner: String,
    /// Basis format [`krylov::auto_basis`] recommends at the default
    /// solver options (per-job `Auto` selection re-evaluates for the
    /// job's own target).
    pub recommended_basis: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unpreconditioned_operator_reports_identity() {
        let a = spla::gen::conv_diff_3d(4, 4, 4, [0.1, 0.0, 0.0], 0.5);
        let none = AnalyzedOperator::analyze("none", &a, PrecondSpec::None).unwrap();
        assert!(
            none.precond.is_identity(),
            "s-step jobs on this operator must take the fused matrix-powers kernel"
        );
        for spec in [
            PrecondSpec::Jacobi,
            PrecondSpec::BlockJacobi { block_size: 4 },
        ] {
            let op = AnalyzedOperator::analyze("m", &a, spec).unwrap();
            assert!(!op.precond.is_identity(), "{spec:?}");
        }
    }
}
