//! Whole-solve wall time per storage format on a small suite problem
//! (end-to-end counterpart of the `ortho` microbench).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use krylov::basis_format::{by_name, gmres_dyn};
use krylov::{GmresOptions, Identity};

fn bench_gmres(c: &mut Criterion) {
    let m = spla::suite::build("atmosmodd", 0.45).expect("matrix");
    let a = m.matrix;
    let (_, b) = spla::dense::manufactured_rhs(&a);
    let x0 = vec![0.0; a.rows()];
    let opts = GmresOptions {
        target_rrn: 1e-10,
        max_iters: 600,
        record_history: false,
        ..GmresOptions::default()
    };

    let mut g = c.benchmark_group("gmres_solve");
    g.sample_size(10);
    for fmt in ["float64", "float32", "float16", "frsz2_32"] {
        let format = by_name(fmt).unwrap();
        g.bench_with_input(BenchmarkId::from_parameter(fmt), fmt, |bch, _| {
            bch.iter(|| gmres_dyn(&a, &b, &x0, &opts, &Identity, format.as_ref()))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_gmres);
criterion_main!(benches);
