//! `solve_cached` and `solve_dram`: one operator, the three basis formats
//! of [`crate::FORMATS`] solved round-robin through
//! `krylov::basis_format::gmres_dyn`, the path a caller with a runtime
//! format choice takes. Interleaving the formats makes every format see
//! the same phases of a shared host.

use crate::trace::{Counters, Span, TracedFormat, TracedMatrix, TracedPrecond};
use crate::{
    check_solution, fingerprint, layer_metrics, manufactured, median, quantile, regime,
    seeded_phase, Args, Report, ServiceLayer, Setup, FORMATS,
};
use krylov::basis_format::{by_name, gmres_dyn};
use krylov::{GmresOptions, Identity, SolveResult};
use spla::gen;
use std::collections::BTreeMap;
use std::time::Instant;

/// Wind and shift of the `conv_diff_3d` operator (non-symmetric,
/// unpreconditioned, as in the paper's §V-C).
const CONV: [f64; 3] = [0.3, 0.2, 0.1];
const SHIFT: f64 = 0.2;
const RESTART: usize = 100;
const TARGET: f64 = 1e-10;
/// Far above the 50–135 iterations any of the three formats needs.
const MAX_ITERS: usize = 1_000;

/// Which cache level the float64 basis must (not) fit in.
pub enum Residence {
    /// The float64 basis fits in one core's private L2.
    L2,
    /// The float64 basis is at least four times the last-level cache.
    Dram,
}

pub struct SolveWorkload {
    /// Grid edge of the `conv_diff_3d` operator (`grid³` rows).
    pub grid: usize,
    /// Solver threads; 0 means `available_parallelism`.
    pub threads: usize,
    pub residence: Residence,
    pub setup_reps: usize,
    /// Run one untimed (but checked) round first; cheap only for small
    /// operators.
    pub warmup: bool,
}

/// 1,728 rows: the 1.4 MB float64 basis stays in private L2.
pub const CACHED: SolveWorkload = SolveWorkload {
    grid: 12,
    threads: 1,
    residence: Residence::L2,
    setup_reps: 21,
    warmup: true,
};

/// 551,368 rows: the 446 MB float64 basis is over four times the LLC.
pub const DRAM: SolveWorkload = SolveWorkload {
    grid: 82,
    threads: 0,
    residence: Residence::Dram,
    setup_reps: 3,
    warmup: false,
};

pub fn run(w: &SolveWorkload, args: &Args, report: &mut Report) {
    let avail = regime::available_parallelism();
    let threads = if w.threads == 0 { avail } else { w.threads };
    report.note(format!(
        "threads: {threads} solver thread(s), available_parallelism {avail}"
    ));
    if threads > avail {
        report.problems.push(format!(
            "{threads} solver threads exceed available_parallelism {avail}"
        ));
        return;
    }
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("solver thread pool");

    let mut setup = Setup::new(|| {
        let a = gen::conv_diff_3d(w.grid, w.grid, w.grid, CONV, SHIFT);
        let (x_true, b) = manufactured(&a, seeded_phase(args.seed, 0));
        (a, x_true, b)
    });
    let (a, x_true, b) = setup.repeat(w.setup_reps);
    let n = a.rows();
    report.note(format!(
        "operator: conv_diff_3d {g}x{g}x{g}, {n} rows, {} nnz, restart {RESTART}, target {TARGET:e}",
        a.nnz(),
        g = w.grid
    ));
    let opts = GmresOptions {
        restart: RESTART,
        max_iters: MAX_ITERS,
        target_rrn: TARGET,
        record_history: false,
        ..GmresOptions::default()
    };
    let x0 = vec![0.0; n];
    let format = |name: &str| by_name(name).expect("registered basis format");

    let mut worst = (0.0f64, 0.0f64);
    let mut basis_bytes = BTreeMap::new();
    let mut accept = |report: &mut Report, f: &str, r: &SolveResult| {
        let (rrn, err) = check_solution(&a, &b, &r.x, &x_true);
        worst = (worst.0.max(rrn), worst.1.max(err));
        let failure = (rrn > TARGET).then(|| format!("recomputed rrn {rrn:e} above {TARGET:e}"));
        report.outcome(&format!("{f} solve"), &failure);
        report.fingerprint(f, fingerprint(r.stats.iterations, &[&r.x]));
        let bytes = r.stats.basis_bits_per_value / 8.0 * (n * (RESTART + 1)) as f64;
        basis_bytes.insert(f.to_string(), (bytes, r.stats.iterations));
    };

    if w.warmup {
        for f in FORMATS {
            let fmt = format(f);
            let r = pool.install(|| gmres_dyn(&a, &b, &x0, &opts, &Identity, fmt.as_ref()));
            accept(report, f, &r);
        }
    }

    let mut times: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let start = Instant::now();
    let mut round = 0;
    while round == 0 || start.elapsed().as_secs_f64() < args.seconds {
        for k in 0..FORMATS.len() {
            let f = FORMATS[(round + k) % FORMATS.len()];
            let fmt = format(f);
            let t = Instant::now();
            let r = pool.install(|| gmres_dyn(&a, &b, &x0, &opts, &Identity, fmt.as_ref()));
            let untraced_s = t.elapsed().as_secs_f64();
            times.entry(f).or_default().push(untraced_s);
            accept(report, f, &r);

            if args.trace {
                let counters = Counters::new(threads);
                let tm = TracedMatrix {
                    inner: &a,
                    counters: counters.clone(),
                };
                let tp = TracedPrecond {
                    inner: &Identity,
                    counters: counters.clone(),
                };
                let tf = TracedFormat {
                    inner: format(f),
                    counters: counters.clone(),
                };
                let t0 = start.elapsed().as_secs_f64();
                let r = pool.install(|| gmres_dyn(&tm, &b, &x0, &opts, &tp, &tf));
                let t1 = start.elapsed().as_secs_f64();
                accept(report, f, &r);
                let mut span = Span::close(f, (t0, t1), threads, &counters, &[&r.stats]);
                span.overhead_s = span.wall_s() - untraced_s;
                report.span(span);
            }
        }
        setup.time();
        round += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();

    report.note(format!(
        "rounds: {round} in {elapsed:.2} s; worst recomputed rrn {:.3e}, worst error vs x_true {:.3e}; {} set-ups",
        worst.0, worst.1, setup.count()
    ));
    check_residence(w, report, &basis_bytes);

    if args.trace {
        layer_metrics(report, &ServiceLayer::default());
        return;
    }
    report.metric("setup_s", setup.best_s(), "s");
    report.metric("peak_rss_mb", regime::peak_rss_mb(), "MiB");
    let solved = (report.attempted - report.failed) as f64 / report.attempted.max(1) as f64;
    report.metric("solved_ratio", solved, "ratio");
    let mut round_s = 0.0;
    for f in FORMATS {
        let samples = &times[f];
        let q = |p| quantile(samples, p);
        round_s += q(0.0);
        report.metric(&format!("solve_s.{f}"), q(0.0), "s");
        report.note(format!(
            "solve_s.{f}: {} samples, min/p10/q1/median/q3/max {:.5}/{:.5}/{:.5}/{:.5}/{:.5}/{:.5}",
            samples.len(),
            q(0.0),
            q(0.1),
            q(0.25),
            q(0.5),
            q(0.75),
            q(1.0)
        ));
    }
    report.metric("round_s", round_s, "s");
    let all: Vec<f64> = times.values().flatten().copied().collect();
    report.note(format!(
        "{} solves, {:.2}/s; p50 {:.5} s, p90 {:.5} s over all formats; float64/frsz2_21 median time ratio {:.3}",
        all.len(),
        all.len() as f64 / elapsed,
        median(&all),
        quantile(&all, 0.9),
        median(&times["float64"]) / median(&times["frsz2_21"])
    ));
}

/// Prove the workload sits in its cache regime: the float64 basis inside
/// L2 for `solve_cached`, at least four times L3 for `solve_dram`.
fn check_residence(
    w: &SolveWorkload,
    report: &mut Report,
    basis_bytes: &BTreeMap<String, (f64, usize)>,
) {
    let (l2, l3) = (regime::cache_bytes(2), regime::cache_bytes(3));
    let mib = |b: Option<u64>| {
        b.map_or("unknown".to_string(), |b| {
            format!("{:.1} MiB", b as f64 / 1048576.0)
        })
    };
    report.note(format!("caches: L2 {} per core, L3 {}", mib(l2), mib(l3)));
    for (f, (bytes, iters)) in basis_bytes {
        report.note(format!(
            "basis {f}: {:.1} MiB allocated, {iters} iterations",
            bytes / 1048576.0
        ));
    }
    let float64 = basis_bytes.get("float64").map_or(0.0, |b| b.0);
    let problem = match (&w.residence, l2, l3) {
        (Residence::L2, Some(l2), _) if float64 > l2 as f64 => {
            Some(format!("float64 basis {float64} B exceeds L2 {l2} B"))
        }
        (Residence::Dram, _, Some(l3)) if float64 < 4.0 * l3 as f64 => {
            Some(format!("float64 basis {float64} B is under 4x L3 ({l3} B)"))
        }
        (Residence::L2, None, _) | (Residence::Dram, _, None) => {
            report.note("cache size unreadable: regime not verified".to_string());
            None
        }
        _ => None,
    };
    report.problems.extend(problem);
}
