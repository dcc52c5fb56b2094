//! Property tests for the sparse substrate.

use proptest::prelude::*;
use spla::{dense, io, Coo, Ell, SellCSigma, SparseMatrix};
use std::io::BufReader;

/// Random small dense matrix as triplets (possibly with duplicates).
fn triplets(n: usize) -> impl Strategy<Value = Vec<(usize, usize, f64)>> {
    prop::collection::vec((0..n, 0..n, -10.0f64..10.0), 0..(n * n * 2).max(1))
}

fn dense_from(n: usize, trips: &[(usize, usize, f64)]) -> Vec<Vec<f64>> {
    let mut d = vec![vec![0.0; n]; n];
    for &(r, c, v) in trips {
        d[r][c] += v;
    }
    d
}

proptest! {
    /// CSR SpMV equals the dense mat-vec built from the same triplets.
    #[test]
    fn spmv_matches_dense(
        trips in triplets(12),
        x in prop::collection::vec(-5.0f64..5.0, 12),
    ) {
        let n = 12;
        let mut coo = Coo::new(n, n);
        for &(r, c, v) in &trips {
            coo.push(r, c, v);
        }
        let a = coo.to_csr();
        let d = dense_from(n, &trips);
        let y = a.mul_vec(&x);
        for i in 0..n {
            let expect: f64 = (0..n).map(|j| d[i][j] * x[j]).sum();
            prop_assert!((y[i] - expect).abs() <= 1e-9 * expect.abs().max(1.0));
        }
    }

    /// Transposing twice is the identity, and (Aᵀ)ᵀ x == A x.
    #[test]
    fn transpose_involution(trips in triplets(10), x in prop::collection::vec(-2.0f64..2.0, 10)) {
        let mut coo = Coo::new(10, 10);
        for &(r, c, v) in &trips {
            coo.push(r, c, v);
        }
        let a = coo.to_csr();
        let tt = a.transpose().transpose();
        prop_assert_eq!(a.mul_vec(&x), tt.mul_vec(&x));
    }

    /// xᵀ(Ay) == (Aᵀx)ᵀy for every matrix: the adjoint identity.
    #[test]
    fn adjoint_identity(
        trips in triplets(9),
        x in prop::collection::vec(-2.0f64..2.0, 9),
        y in prop::collection::vec(-2.0f64..2.0, 9),
    ) {
        let mut coo = Coo::new(9, 9);
        for &(r, c, v) in &trips {
            coo.push(r, c, v);
        }
        let a = coo.to_csr();
        let lhs = dense::dot(&x, &a.mul_vec(&y));
        let rhs = dense::dot(&a.transpose().mul_vec(&x), &y);
        prop_assert!((lhs - rhs).abs() <= 1e-9 * lhs.abs().max(1.0));
    }

    /// MatrixMarket write -> read is the identity on CSR matrices.
    #[test]
    fn matrix_market_roundtrip(trips in triplets(8)) {
        let mut coo = Coo::new(8, 8);
        for &(r, c, v) in &trips {
            coo.push(r, c, v);
        }
        let a = coo.to_csr();
        let mut buf = Vec::new();
        io::write_matrix_market(&a, &mut buf).unwrap();
        let b = io::read_matrix_market(BufReader::new(&buf[..])).unwrap().to_csr();
        prop_assert_eq!(a.rows(), b.rows());
        prop_assert_eq!(a.col_indices(), b.col_indices());
        prop_assert_eq!(a.values(), b.values());
    }

    /// MatrixMarket symmetric/real: writing the lower triangle and
    /// re-expanding on read is the identity on symmetric matrices.
    #[test]
    fn matrix_market_symmetric_real_roundtrip(trips in triplets(8)) {
        // Accumulate densely so each coordinate is summed in one fixed
        // order: duplicate triplets would otherwise be summed in
        // sort-dependent order, breaking exact (bitwise) symmetry.
        let mut d = [[0.0f64; 8]; 8];
        for &(r, c, v) in &trips {
            d[r][c] += v;
            d[c][r] += v;
        }
        let mut coo = Coo::new(8, 8);
        for (r, row) in d.iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    coo.push(r, c, v);
                }
            }
        }
        let a = coo.to_csr();
        prop_assert_eq!(a.asymmetry(), 0.0);
        let mut buf = Vec::new();
        io::write_matrix_market_with(&a, io::MmField::Real, io::MmSymmetry::Symmetric, &mut buf)
            .unwrap();
        let header = String::from_utf8(buf.clone()).unwrap();
        prop_assert!(header.starts_with("%%MatrixMarket matrix coordinate real symmetric"));
        let b = io::read_matrix_market(BufReader::new(&buf[..])).unwrap().to_csr();
        prop_assert_eq!(a.row_ptr(), b.row_ptr());
        prop_assert_eq!(a.col_indices(), b.col_indices());
        prop_assert_eq!(a.values(), b.values());
    }

    /// MatrixMarket integer/general round trip is exact.
    #[test]
    fn matrix_market_integer_general_roundtrip(
        trips in prop::collection::vec((0..8usize, 0..8usize, -50i64..50), 0..60),
    ) {
        let mut coo = Coo::new(8, 8);
        for &(r, c, v) in &trips {
            coo.push(r, c, v as f64);
        }
        let a = coo.to_csr();
        let mut buf = Vec::new();
        io::write_matrix_market_with(&a, io::MmField::Integer, io::MmSymmetry::General, &mut buf)
            .unwrap();
        let header = String::from_utf8(buf.clone()).unwrap();
        prop_assert!(header.starts_with("%%MatrixMarket matrix coordinate integer general"));
        let b = io::read_matrix_market(BufReader::new(&buf[..])).unwrap().to_csr();
        prop_assert_eq!(a.row_ptr(), b.row_ptr());
        prop_assert_eq!(a.col_indices(), b.col_indices());
        prop_assert_eq!(a.values(), b.values());
    }

    /// MatrixMarket symmetric/integer round trip is exact.
    #[test]
    fn matrix_market_symmetric_integer_roundtrip(
        lower in prop::collection::vec((0..8usize, 0..8usize, -50i64..50), 0..40),
    ) {
        let mut coo = Coo::new(8, 8);
        for &(r, c, v) in &lower {
            let (r, c) = if r >= c { (r, c) } else { (c, r) };
            coo.push(r, c, v as f64);
            if r != c {
                coo.push(c, r, v as f64);
            }
        }
        let a = coo.to_csr();
        let mut buf = Vec::new();
        io::write_matrix_market_with(
            &a,
            io::MmField::Integer,
            io::MmSymmetry::Symmetric,
            &mut buf,
        )
        .unwrap();
        let b = io::read_matrix_market(BufReader::new(&buf[..])).unwrap().to_csr();
        prop_assert_eq!(a.row_ptr(), b.row_ptr());
        prop_assert_eq!(a.col_indices(), b.col_indices());
        prop_assert_eq!(a.values(), b.values());
    }

    /// ELL and SELL-C-σ SpMV are bit-identical to CSR on arbitrary
    /// generated matrices, for several slice/window geometries.
    #[test]
    fn formats_spmv_bit_identical_to_csr(
        trips in triplets(20),
        x in prop::collection::vec(-5.0f64..5.0, 20),
        c in 1usize..9,
        sigma in 1usize..40,
    ) {
        let n = 20;
        let mut coo = Coo::new(n, n);
        for &(r, c, v) in &trips {
            coo.push(r, c, v);
        }
        let a = coo.to_csr();
        let reference = a.mul_vec(&x);
        let formats: [Box<dyn SparseMatrix>; 2] = [
            Box::new(Ell::from_csr(&a)),
            Box::new(SellCSigma::from_csr(&a, c, sigma)),
        ];
        for m in &formats {
            prop_assert_eq!(m.nnz(), a.nnz());
            let mut y = vec![0.0; n];
            m.spmv(&x, &mut y);
            for i in 0..n {
                prop_assert_eq!(
                    y[i].to_bits(),
                    reference[i].to_bits(),
                    "{} row {}", m.format_name(), i
                );
            }
        }
    }

    /// `spmm_into` (default tiled AND the fused CSR/ELL/SELL overrides)
    /// reproduces per-RHS `spmv` bit for bit on arbitrary generated
    /// matrices at several block widths.
    #[test]
    fn formats_spmm_bit_identical_to_per_rhs_spmv(
        trips in triplets(20),
        xs in prop::collection::vec(-5.0f64..5.0, 20 * 16),
        c in 1usize..9,
        sigma in 1usize..40,
    ) {
        let n = 20;
        let mut coo = Coo::new(n, n);
        for &(r, c, v) in &trips {
            coo.push(r, c, v);
        }
        let a = coo.to_csr();
        let formats: [Box<dyn SparseMatrix>; 3] = [
            Box::new(a.clone()),
            Box::new(Ell::from_csr(&a)),
            Box::new(SellCSigma::from_csr(&a, c, sigma)),
        ];
        for width in [1usize, 2, 7, 16] {
            // Interleave the first `width` of the 16 generated RHS.
            let mut x = vec![0.0; n * width];
            for i in 0..n {
                for j in 0..width {
                    x[i * width + j] = xs[j * n + i];
                }
            }
            for m in &formats {
                let mut y = vec![0.0; n * width];
                m.spmm_into(&x, &mut y, width);
                for j in 0..width {
                    let xj: Vec<f64> = (0..n).map(|i| x[i * width + j]).collect();
                    let reference = a.mul_vec(&xj);
                    for i in 0..n {
                        prop_assert_eq!(
                            y[i * width + j].to_bits(),
                            reference[i].to_bits(),
                            "{} width {} rhs {} row {}", m.format_name(), width, j, i
                        );
                    }
                }
            }
        }
    }

    /// `spmv_powers_into` (default tiled AND the CSR/ELL/SELL
    /// overrides) reproduces `s` successive `spmv` calls bit for bit on
    /// arbitrary generated square matrices at several panel depths.
    #[test]
    fn formats_spmv_powers_bit_identical_to_repeated_spmv(
        trips in triplets(20),
        x in prop::collection::vec(-2.0f64..2.0, 20),
        c in 1usize..9,
        sigma in 1usize..40,
    ) {
        let n = 20;
        let mut coo = Coo::new(n, n);
        for &(r, c, v) in &trips {
            coo.push(r, c, v);
        }
        let a = coo.to_csr();
        let formats: [Box<dyn SparseMatrix>; 3] = [
            Box::new(a.clone()),
            Box::new(Ell::from_csr(&a)),
            Box::new(SellCSigma::from_csr(&a, c, sigma)),
        ];
        for s in [1usize, 2, 5, 8] {
            // Reference: s chained spmv calls.
            let mut reference = vec![0.0; n * s];
            let mut src = x.clone();
            for p in 0..s {
                let mut y = vec![0.0; n];
                a.spmv(&src, &mut y);
                reference[p * n..(p + 1) * n].copy_from_slice(&y);
                src = y;
            }
            for m in &formats {
                let mut ys = vec![0.0; n * s];
                m.spmv_powers_into(&x, &mut ys, s);
                for (i, (got, want)) in ys.iter().zip(&reference).enumerate() {
                    prop_assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{} s {} slot {}", m.format_name(), s, i
                    );
                }
            }
        }
    }

    /// dot/axpy/norm2 satisfy basic algebraic identities.
    #[test]
    fn vector_kernel_identities(
        x in prop::collection::vec(-3.0f64..3.0, 1..400),
        alpha in -2.0f64..2.0,
    ) {
        let n = x.len();
        // norm2^2 == dot(x, x)
        let nrm = dense::norm2(&x);
        prop_assert!((nrm * nrm - dense::dot(&x, &x)).abs() <= 1e-9 * (nrm * nrm).max(1.0));
        // axpy(alpha, x, 0) == alpha * x
        let mut y = vec![0.0; n];
        dense::axpy(alpha, &x, &mut y);
        for i in 0..n {
            prop_assert_eq!(y[i], alpha * x[i]);
        }
        // sub(x, x) == 0
        let mut z = vec![1.0; n];
        dense::sub(&x, &x, &mut z);
        prop_assert!(z.iter().all(|&v| v == 0.0));
    }
}

/// Forwards everything to CSR *except* `spmm_into` and
/// `spmv_powers_into`, so the traits' default tiled implementations
/// (over `for_each_in_row`) are exercised by the cross-thread-count
/// tests below.
struct DefaultSpmm(spla::Csr);

impl SparseMatrix for DefaultSpmm {
    fn rows(&self) -> usize {
        self.0.rows()
    }
    fn cols(&self) -> usize {
        self.0.cols()
    }
    fn nnz(&self) -> usize {
        self.0.nnz()
    }
    fn format_name(&self) -> &'static str {
        "csr-default-spmm"
    }
    fn storage_bytes(&self) -> usize {
        SparseMatrix::storage_bytes(&self.0)
    }
    fn for_each_in_row(&self, i: usize, f: &mut dyn FnMut(u32, f64)) {
        self.0.for_each_in_row(i, f)
    }
    fn spmv(&self, x: &[f64], y: &mut [f64]) {
        self.0.spmv(x, y)
    }
}

/// `spmm_into` agrees with serial per-RHS CSR SpMV *bitwise* on a
/// matrix spanning many parallel row chunks, for every format (plus the
/// trait-default tiling), under pools of 1, 2 and 8 threads, at block
/// widths 1, 2, 7 and 16 — the block arm of the determinism contract.
#[test]
fn formats_spmm_bit_identical_across_thread_counts() {
    let n = 6000;
    let mut coo = Coo::new(n, n);
    for i in 0..n {
        coo.push(i, i, 4.0 + ((i % 11) as f64) * 0.125);
        for k in 0..(i % 6) {
            let c = (i + 13 * (k + 1)) % n;
            if c != i {
                coo.push(i, c, -0.3 - (k as f64) * 0.05);
            }
        }
    }
    let a = coo.to_csr();
    let formats: [Box<dyn SparseMatrix>; 4] = [
        Box::new(a.clone()),
        Box::new(Ell::from_csr(&a)),
        Box::new(SellCSigma::from_csr(&a, 32, 256)),
        Box::new(DefaultSpmm(a.clone())),
    ];
    for width in [1usize, 2, 7, 16] {
        let mut x = vec![0.0; n * width];
        for i in 0..n {
            for (j, xv) in x[i * width..(i + 1) * width].iter_mut().enumerate() {
                *xv = ((i as f64) * 0.29 + (j as f64) * 1.7).sin();
            }
        }
        // Per-RHS serial CSR reference.
        let mut reference = vec![0.0; n * width];
        for j in 0..width {
            let xj: Vec<f64> = (0..n).map(|i| x[i * width + j]).collect();
            let mut yj = vec![0.0; n];
            a.spmv_serial(&xj, &mut yj);
            for i in 0..n {
                reference[i * width + j] = yj[i];
            }
        }
        for m in &formats {
            for threads in [1usize, 2, 8] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                let mut y = vec![0.0; n * width];
                pool.install(|| m.spmm_into(&x, &mut y, width));
                for (i, (got, want)) in y.iter().zip(&reference).enumerate() {
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{} width {width} slot {i} at {threads} threads",
                        m.format_name()
                    );
                }
            }
        }
    }
}

/// The matrix-powers panel agrees with chained serial CSR SpMV
/// *bitwise* on a matrix spanning many parallel row chunks, for every
/// format (plus the trait-default tiling), under pools of 1, 2 and 8
/// threads, at panel depths 1, 2, 4 and 8 — the s-step arm of the
/// determinism contract.
#[test]
fn formats_spmv_powers_bit_identical_across_thread_counts() {
    let n = 6000;
    let mut coo = Coo::new(n, n);
    for i in 0..n {
        coo.push(i, i, 4.0 + ((i % 11) as f64) * 0.125);
        for k in 0..(i % 6) {
            let c = (i + 13 * (k + 1)) % n;
            if c != i {
                coo.push(i, c, -0.3 - (k as f64) * 0.05);
            }
        }
    }
    let a = coo.to_csr();
    let x: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.29).sin()).collect();
    let formats: [Box<dyn SparseMatrix>; 4] = [
        Box::new(a.clone()),
        Box::new(Ell::from_csr(&a)),
        Box::new(SellCSigma::from_csr(&a, 32, 256)),
        Box::new(DefaultSpmm(a.clone())),
    ];
    for s in [1usize, 2, 4, 8] {
        // Chained serial CSR reference.
        let mut reference = vec![0.0; n * s];
        let mut src = x.clone();
        for p in 0..s {
            let mut y = vec![0.0; n];
            a.spmv_serial(&src, &mut y);
            reference[p * n..(p + 1) * n].copy_from_slice(&y);
            src = y;
        }
        for m in &formats {
            for threads in [1usize, 2, 8] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                let mut ys = vec![0.0; n * s];
                pool.install(|| m.spmv_powers_into(&x, &mut ys, s));
                for (i, (got, want)) in ys.iter().zip(&reference).enumerate() {
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{} s {s} slot {i} at {threads} threads",
                        m.format_name()
                    );
                }
            }
        }
    }
}

/// Every format agrees with serial CSR *bitwise* on a matrix large
/// enough to span many parallel row chunks, under pools of 1, 2 and 8
/// threads — the cross-format arm of the determinism contract.
#[test]
fn formats_spmv_bit_identical_across_thread_counts() {
    let n = 6000;
    let mut coo = Coo::new(n, n);
    for i in 0..n {
        coo.push(i, i, 4.0 + ((i % 11) as f64) * 0.125);
        // Irregular row lengths: 0..=5 extra couplings per row.
        for k in 0..(i % 6) {
            let c = (i + 13 * (k + 1)) % n;
            if c != i {
                coo.push(i, c, -0.3 - (k as f64) * 0.05);
            }
        }
    }
    let a = coo.to_csr();
    let x: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.29).sin()).collect();
    let mut reference = vec![0.0; n];
    a.spmv_serial(&x, &mut reference);
    let formats: [Box<dyn SparseMatrix>; 4] = [
        Box::new(a.clone()),
        Box::new(Ell::from_csr(&a)),
        Box::new(SellCSigma::from_csr(&a, 32, 256)),
        spla::auto_format(&a).build(&a),
    ];
    for m in &formats {
        for threads in [1usize, 2, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let mut y = vec![0.0; n];
            pool.install(|| m.spmv(&x, &mut y));
            for i in 0..n {
                assert_eq!(
                    y[i].to_bits(),
                    reference[i].to_bits(),
                    "{} row {i} at {threads} threads",
                    m.format_name()
                );
            }
        }
    }
}

/// Header and size lines a corrupted or forged `.mtx` file may carry:
/// other formats and fields, missing or extra tokens, negative,
/// non-numeric and overflowing sizes, and counts far beyond the data.
const FORGED_LINES: [&str; 15] = [
    "%%MatrixMarket matrix array real general",
    "%%MatrixMarket matrix coordinate complex general",
    "%%MatrixMarket matrix coordinate real skew-symmetric",
    "%%MatrixMarket vector coordinate real general",
    "%%MatrixMarket",
    "",
    "6 6",
    "6 6 6 6",
    "-1 6 3",
    "6 x 3",
    "6 6 36",
    "4294967295 4294967295 18446744073709551615",
    // nnz = rows·cols exactly: passes the count check, so only the
    // reader's capped reservation stands between it and an overflow.
    "4294967295 4294967295 18446744065119617025",
    "18446744073709551615 18446744073709551615 1",
    "4294967296 1 1",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// `read_matrix_market` is total: random truncations, bit flips,
    /// byte overwrites, forged header or size lines, and duplicated
    /// lines of a valid file yield `Ok` or a typed `Err`, never a panic
    /// (nor an allocation sized by an unchecked header count).
    #[test]
    fn matrix_market_read_is_total_under_mutation(
        trips in triplets(6),
        symmetric in 0u8..2,
        mode in 0u8..5,
        pos in 0usize..4096,
        byte in 0u8..=255,
    ) {
        // Whole values sum exactly in any order, so mirrored
        // duplicates keep a symmetric matrix exactly symmetric.
        let mut coo = Coo::new(6, 6);
        for &(r, c, v) in &trips {
            coo.push(r, c, v.round());
            if symmetric == 1 && r != c {
                coo.push(c, r, v.round());
            }
        }
        let a = coo.to_csr();
        let symmetry = if symmetric == 1 { io::MmSymmetry::Symmetric } else { io::MmSymmetry::General };
        let mut file = Vec::new();
        io::write_matrix_market_with(&a, io::MmField::Real, symmetry, &mut file).unwrap();
        let at = pos % file.len();
        let mutated = match mode {
            0 => file[..at].to_vec(),
            1 => {
                file[at] ^= 1 << (byte % 8);
                file
            }
            2 => {
                file[at] = byte;
                file
            }
            3 => {
                // Forge the header or the size line (the first line
                // after the header that is not a comment).
                let mut lines: Vec<&[u8]> = file.split(|&b| b == b'\n').collect();
                let size = 1 + lines[1..].iter().position(|l| !l.starts_with(b"%")).unwrap();
                let which = if pos % 2 == 0 { 0 } else { size };
                lines[which] = FORGED_LINES[byte as usize % FORGED_LINES.len()].as_bytes();
                lines.join(&b'\n')
            }
            _ => {
                // Repeat one line: a second header, size line or entry.
                let mut lines: Vec<&[u8]> = file.split(|&b| b == b'\n').collect();
                let which = pos % lines.len();
                lines.insert(which, lines[which]);
                lines.join(&b'\n')
            }
        };
        match io::read_matrix_market(BufReader::new(&mutated[..])) {
            Ok(m) => {
                // Every entry is one line and a symmetric one mirrors
                // at most once.
                prop_assert!(m.nnz() <= 2 * mutated.len());
                for &(r, c, _) in m.entries() {
                    prop_assert!((r as usize) < m.rows() && (c as usize) < m.cols());
                }
            }
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }
}
