//! MatrixMarket (`.mtx`) reading and writing.
//!
//! Supports the `matrix coordinate real {general,symmetric}` and
//! `matrix coordinate integer {general,symmetric}` headers — enough to
//! load every Table I matrix from the SuiteSparse collection when the
//! real files are available (`--mtx PATH` in the experiment binaries).

use crate::Coo;
use std::io::{BufRead, Write};

/// Entries [`read_matrix_market`] reserves before reading any: the
/// header's count is trusted only this far.
const MAX_RESERVED_ENTRIES: usize = 1 << 20;

/// Parse a MatrixMarket stream into COO form.
///
/// Symmetric files are expanded (the strictly-lower triangle is
/// mirrored); an entry above the diagonal in a symmetric file is a
/// parse error, per the MatrixMarket specification. 1-based indices
/// are converted to 0-based.
pub fn read_matrix_market<R: BufRead>(reader: R) -> std::io::Result<Coo> {
    let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
    let mut lines = reader.lines();

    let header = lines
        .next()
        .ok_or_else(|| bad("empty MatrixMarket file"))??;
    let h: Vec<String> = header
        .split_whitespace()
        .map(|s| s.to_lowercase())
        .collect();
    if h.len() < 5 || !h[0].starts_with("%%matrixmarket") || h[1] != "matrix" {
        return Err(bad("not a MatrixMarket matrix header"));
    }
    if h[2] != "coordinate" {
        return Err(bad("only coordinate format is supported"));
    }
    if h[3] != "real" && h[3] != "integer" {
        return Err(bad("only real/integer fields are supported"));
    }
    let symmetric = match h[4].as_str() {
        "general" => false,
        "symmetric" => true,
        other => return Err(bad(&format!("unsupported symmetry '{other}'"))),
    };

    // Skip comments, read the size line.
    let size_line = loop {
        let line = lines.next().ok_or_else(|| bad("missing size line"))??;
        let t = line.trim();
        if !t.is_empty() && !t.starts_with('%') {
            break t.to_string();
        }
    };
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| t.parse().map_err(|_| bad("bad size line")))
        .collect::<Result<_, _>>()?;
    if dims.len() != 3 {
        return Err(bad("size line must be 'rows cols nnz'"));
    }
    let (rows, cols, nnz) = (dims[0], dims[1], dims[2]);
    if rows > u32::MAX as usize || cols > u32::MAX as usize {
        return Err(bad(&format!(
            "{rows}x{cols} exceeds the 32-bit index range"
        )));
    }
    // A header may promise at most one entry per position (when
    // `rows·cols` overflows, no count can exceed it).
    if rows.checked_mul(cols).is_some_and(|cells| nnz > cells) {
        return Err(bad(&format!(
            "header nnz {nnz} exceeds rows*cols for a {rows}x{cols} matrix"
        )));
    }
    // The header is outside input: reserve at most MAX_RESERVED_ENTRIES
    // up front and let a genuinely large file grow the buffers.
    let entries = if symmetric {
        nnz.saturating_mul(2)
    } else {
        nnz
    };
    let mut coo = Coo::with_capacity(rows, cols, entries.min(MAX_RESERVED_ENTRIES));
    let mut seen = 0usize;
    for line in lines {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let r: usize = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad entry row"))?;
        let c: usize = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad entry col"))?;
        let v: f64 = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad entry value"))?;
        if r < 1 || r > rows || c < 1 || c > cols {
            return Err(bad(&format!("entry ({r},{c}) out of bounds")));
        }
        // The MatrixMarket spec requires symmetric files to store the
        // lower triangle only. Accepting upper-triangle entries would
        // let a file storing *both* triangles slip through, silently
        // doubling every off-diagonal value when duplicates are summed
        // on CSR conversion — so reject per spec instead.
        if symmetric && c > r {
            return Err(bad(&format!(
                "symmetric file stores upper-triangle entry ({r},{c}); \
                 only the lower triangle (row >= col) is allowed"
            )));
        }
        coo.push(r - 1, c - 1, v);
        if symmetric && r != c {
            coo.push(c - 1, r - 1, v);
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(bad(&format!("expected {nnz} entries, found {seen}")));
    }
    Ok(coo)
}

/// Value field of a MatrixMarket header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MmField {
    /// Values written with 17 significant digits (exact f64 round trip).
    Real,
    /// Values written as integers; every entry must be integral.
    Integer,
}

/// Symmetry declaration of a MatrixMarket header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MmSymmetry {
    General,
    /// Only the lower triangle is stored; the matrix must be
    /// numerically symmetric.
    Symmetric,
}

/// Write a CSR matrix as `matrix coordinate real general`.
pub fn write_matrix_market<W: Write>(a: &crate::Csr, w: W) -> std::io::Result<()> {
    write_matrix_market_with(a, MmField::Real, MmSymmetry::General, w)
}

/// Write a CSR matrix with an explicit header.
///
/// Fails with `InvalidInput` if `Symmetric` is requested for a matrix
/// that is not numerically symmetric, or `Integer` for a matrix with
/// non-integral values — rather than silently writing a file that
/// would not round-trip.
pub fn write_matrix_market_with<W: Write>(
    a: &crate::Csr,
    field: MmField,
    symmetry: MmSymmetry,
    mut w: W,
) -> std::io::Result<()> {
    let invalid = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidInput, msg);
    if symmetry == MmSymmetry::Symmetric && (a.rows() != a.cols() || a.asymmetry() != 0.0) {
        return Err(invalid(
            "symmetric header requested for a non-symmetric matrix".into(),
        ));
    }
    if field == MmField::Integer {
        // Integral, finite, and exactly representable as i64 (every
        // integral f64 below 2^63 is): anything else would be written
        // saturated/garbled and break the round-trip guarantee.
        let representable =
            |v: f64| v.is_finite() && v.fract() == 0.0 && v.abs() < 9.223372036854776e18;
        if let Some(v) = a.values().iter().find(|v| !representable(**v)) {
            return Err(invalid(format!(
                "integer header requested but value {v} is not an i64-representable integer"
            )));
        }
    }
    let (field_name, symmetry_name) = (
        match field {
            MmField::Real => "real",
            MmField::Integer => "integer",
        },
        match symmetry {
            MmSymmetry::General => "general",
            MmSymmetry::Symmetric => "symmetric",
        },
    );
    writeln!(
        w,
        "%%MatrixMarket matrix coordinate {field_name} {symmetry_name}"
    )?;
    writeln!(w, "% written by the FRSZ2 reproduction workspace")?;
    // For symmetric files only the lower triangle (r >= c) is stored,
    // and the size line counts stored entries.
    let keep = |r: usize, c: u32| symmetry == MmSymmetry::General || c as usize <= r;
    let stored: usize = (0..a.rows())
        .map(|i| {
            let (cols, _) = a.row(i);
            cols.iter().filter(|&&c| keep(i, c)).count()
        })
        .sum();
    writeln!(w, "{} {} {}", a.rows(), a.cols(), stored)?;
    for i in 0..a.rows() {
        let (cols, vals) = a.row(i);
        for (c, v) in cols.iter().zip(vals) {
            if !keep(i, *c) {
                continue;
            }
            match field {
                MmField::Real => writeln!(w, "{} {} {:.17e}", i + 1, c + 1, v)?,
                MmField::Integer => writeln!(w, "{} {} {}", i + 1, c + 1, *v as i64)?,
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn parse_general_real() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    % comment line\n\
                    3 3 4\n\
                    1 1 2.5\n\
                    2 2 -1.0\n\
                    3 1 4.0\n\
                    3 3 1e-3\n";
        let coo = read_matrix_market(BufReader::new(text.as_bytes())).unwrap();
        let a = coo.to_csr();
        assert_eq!(a.rows(), 3);
        assert_eq!(a.nnz(), 4);
        assert_eq!(a.row(2), (&[0u32, 2][..], &[4.0, 1e-3][..]));
    }

    #[test]
    fn parse_symmetric_mirrors_off_diagonal() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    2 2 2\n\
                    1 1 3.0\n\
                    2 1 -1.5\n";
        let a = read_matrix_market(BufReader::new(text.as_bytes()))
            .unwrap()
            .to_csr();
        assert_eq!(a.nnz(), 3);
        assert_eq!(a.row(0), (&[0u32, 1][..], &[3.0, -1.5][..]));
        assert_eq!(a.row(1), (&[0u32][..], &[-1.5][..]));
        assert_eq!(a.asymmetry(), 0.0);
    }

    #[test]
    fn roundtrip_write_read() {
        let m = crate::gen::conv_diff_3d(4, 3, 2, [0.2, 0.0, 0.0], 0.5);
        let mut buf = Vec::new();
        write_matrix_market(&m, &mut buf).unwrap();
        let back = read_matrix_market(BufReader::new(&buf[..]))
            .unwrap()
            .to_csr();
        assert_eq!(back.rows(), m.rows());
        assert_eq!(back.nnz(), m.nnz());
        assert_eq!(back.col_indices(), m.col_indices());
        for (a, b) in back.values().iter().zip(m.values()) {
            assert_eq!(a, b, "17-digit round trip must be exact");
        }
    }

    #[test]
    fn rejects_malformed_input() {
        for text in [
            "",                                                                   // empty
            "%%MatrixMarket matrix array real general\n2 2 4\n",                  // array format
            "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n", // complex
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 1.0\n",    // OOB
            "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n",    // count
            "%%MatrixMarket vector coordinate real general\n2 2 1\n1 1 1.0\n",    // not a matrix
            "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 1.0\n",
            "%%MatrixMarket matrix coordinate real\n2 2 1\n1 1 1.0\n", // short header
            "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 1\n", // pattern
            "%%MatrixMarket matrix coordinate real general\n",         // no size line
            "%%MatrixMarket matrix coordinate real general\n2 2\n",    // short size line
            "%%MatrixMarket matrix coordinate real general\n2 2 x\n",  // bad nnz
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n", // missing value
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 abc\n", // bad value
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n", // 0-based index
            // Symmetric files must store only the lower triangle; a
            // (1,2) entry would be mirrored into the wrong matrix.
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 2 1.0\n",
            "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 1.0\n1 3 0.5\n",
        ] {
            assert!(
                read_matrix_market(BufReader::new(text.as_bytes())).is_err(),
                "should reject: {text:?}"
            );
        }
    }

    #[test]
    fn integer_symmetric_writer_roundtrip_and_header() {
        // [ 2 -1  0]
        // [-1  2 -1]    (symmetric, integral)
        // [ 0 -1  2]
        let mut m = crate::Coo::new(3, 3);
        for i in 0..3 {
            m.push(i, i, 2.0);
            if i + 1 < 3 {
                m.push(i, i + 1, -1.0);
                m.push(i + 1, i, -1.0);
            }
        }
        let a = m.to_csr();
        let mut buf = Vec::new();
        write_matrix_market_with(&a, MmField::Integer, MmSymmetry::Symmetric, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("%%MatrixMarket matrix coordinate integer symmetric"));
        // Only the 5 lower-triangle entries are stored.
        assert!(text.contains("\n3 3 5\n"), "size line in:\n{text}");
        let back = read_matrix_market(BufReader::new(&buf[..]))
            .unwrap()
            .to_csr();
        assert_eq!(back.row_ptr(), a.row_ptr());
        assert_eq!(back.col_indices(), a.col_indices());
        assert_eq!(back.values(), a.values());
    }

    #[test]
    fn writer_rejects_inconsistent_headers() {
        let asym = crate::gen::conv_diff_3d(3, 3, 3, [0.4, 0.0, 0.0], 0.1);
        assert!(asym.asymmetry() > 0.0, "test matrix must be asymmetric");
        let err = write_matrix_market_with(&asym, MmField::Real, MmSymmetry::Symmetric, Vec::new())
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);

        let mut m = crate::Coo::new(2, 2);
        m.push(0, 0, 1.5);
        let frac = m.to_csr();
        let err =
            write_matrix_market_with(&frac, MmField::Integer, MmSymmetry::General, Vec::new())
                .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);

        // Integral but beyond i64: `as i64` would saturate and corrupt
        // the round trip, so the writer must refuse.
        let mut m = crate::Coo::new(2, 2);
        m.push(0, 0, 1e19);
        let huge = m.to_csr();
        let err =
            write_matrix_market_with(&huge, MmField::Integer, MmSymmetry::General, Vec::new())
                .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn dimensions_beyond_u32_are_a_typed_error() {
        let text = "%%MatrixMarket matrix coordinate real general\n4294967296 1 1\n1 1 1.0\n";
        let err = read_matrix_market(BufReader::new(text.as_bytes())).unwrap_err();
        assert!(err.to_string().contains("32-bit index range"), "{err}");
    }

    #[test]
    fn huge_header_nnz_is_a_typed_error() {
        let text =
            "%%MatrixMarket matrix coordinate real general\n3 3 18446744073709551615\n1 1 1.0\n";
        let err = read_matrix_market(BufReader::new(text.as_bytes())).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("exceeds rows*cols"), "{err}");
    }

    #[test]
    fn header_counts_are_not_trusted_for_allocation() {
        // Admissible counts far beyond the file's single entry: the
        // reader must neither overflow `2 * nnz` nor reserve the
        // promised entries, and must report the short file.
        for header in [
            "%%MatrixMarket matrix coordinate real general\n1000000000 1000000000 100000000000000000\n",
            "%%MatrixMarket matrix coordinate real symmetric\n4294967295 4294967295 9223372036854775808\n",
        ] {
            let text = format!("{header}1 1 1.0\n");
            let err = read_matrix_market(BufReader::new(text.as_bytes())).unwrap_err();
            assert!(err.to_string().contains("found 1"), "{err}");
        }
    }
}
