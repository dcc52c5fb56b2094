//! `service_mixed`: a closed loop of [`CLIENTS`] clients against one
//! shared `SolverService`. Each client submits its next job when the
//! previous one returns, drawing jobs from a seeded shuffle of the
//! catalogue. The run goes in rounds: in each round the clients share one
//! pass through the deck, so every round holds the same jobs.
//!
//! The service owns its operator and preconditioner, so its inner layers
//! cannot be wrapped from outside. The traced run therefore replays every
//! catalogue entry that ran, after the loop, through the same public
//! `krylov` entry point the service calls, once plain and once with the
//! tracing wrappers. Both replays must reproduce the service's
//! fingerprint bit for bit, which proves they ran the same program.

use crate::trace::{Counters, Span, TracedFormat, TracedMatrix, TracedPrecond};
use crate::{
    check_solution, fingerprint, layer_metrics, manufactured, median, quantile, regime,
    seeded_phase, Args, Report, Rng, ServiceLayer, Setup,
};
use krylov::basis_format::{by_name, gmres_dyn_controlled};
use krylov::{
    adaptive_gmres_controlled, block_gmres_dyn, sstep_gmres_dyn_controlled, AdaptiveOptions,
    BasisFormat, GmresOptions, Jacobi, Preconditioner, SStepOptions, SolveStats,
};
use solver_service::{
    estimated_adaptive_basis_bytes, AdmissionPolicy, BasisSelection, BlockJobSpec, JobSpec,
    PrecondSpec, RetryPolicy, ServiceConfig, SolverService,
};
use spla::{gen, Csr, SparseMatrix};
use std::collections::BTreeMap;
use std::time::Instant;

/// Closed-loop clients; each job runs on one solver thread.
const CLIENTS: usize = 2;
const RESTART: usize = 30;

struct Operator {
    name: &'static str,
    a: Csr,
    precond: PrecondSpec,
    /// Whether job right-hand sides on this operator follow the seed.
    seeded: bool,
}

/// The registered operators: a Jacobi-preconditioned smooth operator, an
/// unpreconditioned one with stronger wind, and the wide-dynamic-range
/// operator on which `frsz2_16` stagnates and the ladder must climb.
///
/// Jobs on the wide operator keep the unshifted §V-B right-hand side:
/// with a seeded phase their adaptive and retry iteration counts moved
/// by up to 75% between seeds (170–294, 118–300), which would make the
/// closed loop's percentiles measure the seed instead of the code.
fn operators() -> Vec<Operator> {
    vec![
        Operator {
            name: "jacobi",
            a: gen::conv_diff_3d(16, 16, 16, [0.3, 0.2, 0.1], 0.2),
            precond: PrecondSpec::Jacobi,
            seeded: true,
        },
        Operator {
            name: "plain",
            a: gen::conv_diff_3d(12, 12, 12, [0.45, 0.25, 0.15], 0.1),
            precond: PrecondSpec::None,
            seeded: true,
        },
        Operator {
            name: "wide",
            a: gen::wide_range_conv_diff(10, 10, 10, 24, 0x5202),
            precond: PrecondSpec::None,
            seeded: false,
        },
    ]
}

#[derive(Clone, Copy)]
enum Kind {
    Fixed(&'static str),
    Auto,
    Adaptive,
    /// Starts at a rung that cannot reach the target; retries escalate.
    Retry(&'static str),
    SStep(&'static str, usize),
    Block(&'static str, usize),
}

struct Entry {
    label: &'static str,
    op: usize,
    kind: Kind,
    target: f64,
    max_iters: usize,
    /// Cards of this entry per deck.
    copies: usize,
}

/// The job catalogue, 17 cards per deck. The fixed-format jobs on
/// `jacobi` carry the per-format metrics, so they come in several copies.
/// The copies also keep the diagnostic latency percentiles inside clusters
/// of similar jobs rather than in the gaps between them: the median falls
/// among the frsz2_21, s-step and adaptive jobs, the p90 among the block
/// jobs. A percentile that sits in a gap swings with every change of mix.
#[rustfmt::skip]
const CATALOGUE: [Entry; 9] = [
    // label, operator, kind, target, max_iters, copies per deck
    entry("jacobi.float64",  0, Kind::Fixed("float64"),      1e-10, 3000, 2),
    entry("jacobi.float32",  0, Kind::Fixed("float32"),      1e-10, 3000, 2),
    entry("jacobi.frsz2_21", 0, Kind::Fixed("frsz2_21"),     1e-10, 3000, 6),
    entry("plain.frsz2_ab",  1, Kind::Fixed("frsz2_ab"),     1e-8,  3000, 1),
    entry("plain.auto",      1, Kind::Auto,                  1e-8,  3000, 1),
    entry("wide.adaptive",   2, Kind::Adaptive,              1e-10, 1200, 1),
    entry("wide.retry",      2, Kind::Retry("frsz2_16"),     1e-10, 300,  1),
    entry("jacobi.sstep4",   0, Kind::SStep("frsz2_21", 4),  1e-10, 3000, 1),
    entry("plain.block4",    1, Kind::Block("frsz2_21", 4),  1e-8,  3000, 2),
];

const fn entry(
    label: &'static str,
    op: usize,
    kind: Kind,
    target: f64,
    max_iters: usize,
    copies: usize,
) -> Entry {
    Entry {
        label,
        op,
        kind,
        target,
        max_iters,
        copies,
    }
}

impl Entry {
    fn opts(&self) -> GmresOptions {
        GmresOptions {
            restart: RESTART,
            max_iters: self.max_iters,
            target_rrn: self.target,
            record_history: false,
            ..GmresOptions::default()
        }
    }

    fn width(&self) -> usize {
        match self.kind {
            Kind::Block(_, w) => w,
            _ => 1,
        }
    }
}

/// One catalogue entry's inputs: a seeded `x_true` per right-hand side.
struct Inputs {
    x_true: Vec<Vec<f64>>,
    b: Vec<Vec<f64>>,
}

/// What one job returned, reduced to what the checks and metrics need.
struct JobRecord {
    entry: usize,
    latency_s: f64,
    /// Call latency minus the solver's own wall time: admission wait,
    /// pool build, backoff, and any earlier failed attempts.
    overhead_s: f64,
    /// Why the job failed its output check, if it did.
    failure: Option<String>,
    fingerprint: u64,
    iterations: usize,
    attempts: usize,
    escalations: usize,
    formats_tried: Vec<String>,
    max_rrn: f64,
    max_err: f64,
    bytes_in_use_max: u64,
}

pub fn run(args: &Args, report: &mut Report) {
    let avail = regime::available_parallelism();
    report.note(format!(
        "threads: {CLIENTS} clients x 1 solver thread, available_parallelism {avail}"
    ));
    if CLIENTS > avail {
        report.problems.push(format!(
            "{CLIENTS} concurrent solver threads exceed available_parallelism {avail}"
        ));
        return;
    }

    let mut setup = Setup::new(|| {
        let ops = operators();
        let inputs: Vec<Inputs> = CATALOGUE
            .iter()
            .enumerate()
            .map(|(e, entry)| {
                let op = &ops[entry.op];
                let (x_true, b) = (0..entry.width())
                    .map(|k| {
                        let stream = (e * 16 + k) as u64;
                        let phase = if op.seeded {
                            seeded_phase(args.seed, stream)
                        } else {
                            0.0
                        };
                        manufactured(&op.a, phase)
                    })
                    .unzip();
                Inputs { x_true, b }
            })
            .collect();
        // Queue admission with room for 1.75 float64 reservations of the
        // largest operator: two float64 jobs on `jacobi` cannot run
        // together, so the second waits; every other pair of jobs fits.
        // A tighter budget makes a third of the float64 jobs wait behind
        // block and s-step jobs, and their median then measures the wait.
        let largest = ops
            .iter()
            .map(|op| estimated_adaptive_basis_bytes(op.a.rows(), RESTART, 1))
            .max()
            .unwrap_or(0);
        let service = SolverService::new(ServiceConfig {
            basis_budget_bytes: Some(largest * 7 / 4),
            admission: AdmissionPolicy::Queue { timeout: None },
        });
        for op in &ops {
            service
                .register_csr(op.name, &op.a, op.precond)
                .expect("operator registration");
        }
        (ops, inputs, service)
    });
    let (ops, inputs, service) = setup.repeat(25);
    for op in &ops {
        report.note(format!(
            "operator {}: {} rows, {} nnz, precond {:?}",
            op.name,
            op.a.rows(),
            op.a.nnz(),
            op.precond
        ));
    }

    // The run is a sequence of rounds. Each round deals one seeded shuffle
    // of the deck; the clients take cards from it in a closed loop
    // until it is empty, and the round ends when the last job returns.
    // Per round, `walls` keeps its wall time and `waits` the sum of its
    // jobs' submit-to-return latencies.
    let mut rng = Rng::new(args.seed, 1000);
    let mut records: Vec<JobRecord> = Vec::new();
    let (mut walls, mut waits): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while walls.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let cards = std::sync::Mutex::new(shuffled_deck(&mut rng));
        let (t, first) = (Instant::now(), records.len());
        std::thread::scope(|s| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    let (ops, inputs, service, cards) = (&ops, &inputs, &service, &cards);
                    s.spawn(move || {
                        let mut records = Vec::new();
                        let next = || cards.lock().expect("card lock").pop();
                        while let Some(e) = next() {
                            records.push(submit(service, ops, inputs, e, args.trace));
                        }
                        records
                    })
                })
                .collect();
            for h in clients {
                records.extend(h.join().expect("client thread panicked"));
            }
        });
        walls.push(t.elapsed().as_secs_f64());
        waits.push(records[first..].iter().map(|r| r.latency_s).sum());
        setup.time();
    }
    let elapsed = start.elapsed().as_secs_f64();

    let mut counts = [0usize; CATALOGUE.len()];
    let mut first: BTreeMap<usize, &JobRecord> = BTreeMap::new();
    let (mut worst_rrn, mut worst_err) = (0.0f64, 0.0f64);
    for r in &records {
        let entry = &CATALOGUE[r.entry];
        report.outcome(&format!("job {}", entry.label), &r.failure);
        report.fingerprint(entry.label, r.fingerprint);
        counts[r.entry] += 1;
        first.entry(r.entry).or_insert(r);
        worst_rrn = worst_rrn.max(r.max_rrn);
        worst_err = worst_err.max(r.max_err);
    }
    report.note(format!(
        "jobs: {} in {elapsed:.2} s; worst recomputed rrn {worst_rrn:.3e}, worst error vs x_true {worst_err:.3e}",
        records.len()
    ));
    for (e, entry) in CATALOGUE.iter().enumerate() {
        let lat: Vec<f64> = records
            .iter()
            .filter(|r| r.entry == e)
            .map(|r| r.latency_s)
            .collect();
        let (iters, trail) = first.get(&e).map_or((0, String::new()), |r| {
            (r.iterations, r.formats_tried.join(">"))
        });
        let q = |p| quantile(&lat, p);
        report.note(format!(
            "{:<16} {:>3} jobs, latency min/q1/median/q3/max {:.4}/{:.4}/{:.4}/{:.4}/{:.4} s, {iters} iterations, formats {trail}",
            entry.label,
            lat.len(),
            q(0.0),
            q(0.25),
            q(0.5),
            q(0.75),
            q(1.0)
        ));
    }

    let five = |v: &[f64]| {
        [0.0, 0.25, 0.5, 0.75, 1.0]
            .map(|q| format!("{:.4}", quantile(v, q)))
            .join("/")
    };
    report.note(format!(
        "rounds: {}; min/q1/median/q3/max of wall {} s, of summed latency {} s; {} set-ups",
        walls.len(),
        five(&walls),
        five(&waits),
        setup.count()
    ));

    if args.trace {
        let overheads: Vec<f64> = records.iter().map(|r| r.overhead_s).collect();
        let jobs = records.len().max(1) as f64;
        let svc = ServiceLayer {
            overhead_p50_s: median(&overheads),
            overhead_p90_s: quantile(&overheads, 0.9),
            attempts_per_job: records.iter().map(|r| r.attempts).sum::<usize>() as f64 / jobs,
            escalations: records.iter().map(|r| r.escalations).sum::<usize>() as f64 / jobs,
            bytes_in_use_max: records
                .iter()
                .map(|r| r.bytes_in_use_max)
                .max()
                .unwrap_or(0) as f64,
        };
        replay(report, &ops, &inputs, &first, &counts);
        layer_metrics(report, &svc);
        return;
    }

    report.metric("setup_s", setup.best_s(), "s");
    report.metric("peak_rss_mb", regime::peak_rss_mb(), "MiB");
    let solved = (report.attempted - report.failed) as f64 / report.attempted.max(1) as f64;
    report.metric("solved_ratio", solved, "ratio");
    for f in crate::FORMATS {
        let e = CATALOGUE
            .iter()
            .position(|entry| matches!(entry.kind, Kind::Fixed(g) if g == f))
            .expect("every compared format has a fixed-format entry");
        let lat: Vec<f64> = records
            .iter()
            .filter(|r| r.entry == e)
            .map(|r| r.latency_s)
            .collect();
        report.metric(&format!("solve_s.{f}"), quantile(&lat, 0.0), "s");
    }
    // Every round runs the same jobs, so the time its clients spend waiting
    // on the service moves only with the service and the host, not with
    // how the shuffle packs the jobs. Each latency includes any admission
    // wait, so a service that ran jobs one at a time would about double
    // even the best round.
    report.metric("round_s", quantile(&waits, 0.0), "s");
    let latencies: Vec<f64> = records.iter().map(|r| r.latency_s).collect();
    report.note(format!(
        "{} jobs, {:.2}/s; latency p50 {:.5} s, p90 {:.5} s (closed loop, {CLIENTS} clients)",
        latencies.len(),
        latencies.len() as f64 / elapsed,
        median(&latencies),
        quantile(&latencies, 0.9)
    ));
}

/// One deck: every entry `copies` times, in seeded order.
fn shuffled_deck(rng: &mut Rng) -> Vec<usize> {
    let mut deck: Vec<usize> = CATALOGUE
        .iter()
        .enumerate()
        .flat_map(|(e, entry)| std::iter::repeat_n(e, entry.copies))
        .collect();
    for i in (1..deck.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        deck.swap(i, j);
    }
    deck
}

/// Submit one job of entry `e` and check what comes back.
fn submit(
    service: &SolverService,
    ops: &[Operator],
    inputs: &[Inputs],
    e: usize,
    sample: bool,
) -> JobRecord {
    let entry = &CATALOGUE[e];
    let op = &ops[entry.op];
    let input = &inputs[e];
    let basis = |f: &str| BasisSelection::Fixed(f.to_string());
    let mut spec = JobSpec::new(op.name, input.b[0].clone());
    spec.opts = entry.opts();
    let mut block = None;
    match entry.kind {
        Kind::Fixed(f) => spec.basis = basis(f),
        Kind::Auto => spec.basis = BasisSelection::Auto,
        Kind::Adaptive => spec.basis = BasisSelection::Adaptive,
        Kind::Retry(f) => {
            spec.basis = basis(f);
            // The default policy: 3 retries after 1, 2 and 4 ms backoff.
            spec.retry = Some(RetryPolicy::default());
        }
        Kind::SStep(f, s) => {
            spec.basis = basis(f);
            spec.sstep = s;
        }
        Kind::Block(f, _) => {
            let mut b = BlockJobSpec::new(op.name, input.b.clone());
            b.basis = basis(f);
            b.opts = entry.opts();
            block = Some((b, f));
        }
    }

    // Reservations are sampled at submit, at return and at every restart
    // boundary, where the observer runs.
    let in_use = std::cell::Cell::new(0);
    let sample_in_use = || {
        if sample {
            in_use.set(in_use.get().max(service.basis_bytes_in_use()));
        }
    };
    sample_in_use();
    let t = Instant::now();
    let outcome = match &block {
        Some((b, f)) => service
            .solve_block_observed(b, |_| sample_in_use())
            .map(|r| (r.solutions, r.stats, 1, vec![f.to_string()])),
        None => service
            .solve_report_observed(&spec, |_| sample_in_use())
            .map(|r| {
                (
                    vec![r.result.x],
                    vec![r.result.stats],
                    r.attempts,
                    r.formats_tried,
                )
            }),
    };
    let latency_s = t.elapsed().as_secs_f64();
    sample_in_use();

    let mut record = JobRecord {
        entry: e,
        latency_s,
        overhead_s: latency_s,
        failure: None,
        fingerprint: 0,
        iterations: 0,
        attempts: 1,
        escalations: 0,
        formats_tried: Vec::new(),
        max_rrn: 0.0,
        max_err: 0.0,
        bytes_in_use_max: in_use.get(),
    };
    let (xs, stats, attempts, formats_tried) = match outcome {
        Ok(o) => o,
        Err(err) => {
            record.failure = Some(err.to_string());
            return record;
        }
    };
    for ((x, b), x_true) in xs.iter().zip(&input.b).zip(&input.x_true) {
        let (rrn, err) = check_solution(&op.a, b, x, x_true);
        if rrn > entry.target {
            record.failure = Some(format!("recomputed rrn {rrn:e} above {:e}", entry.target));
        }
        record.max_rrn = record.max_rrn.max(rrn);
        record.max_err = record.max_err.max(err);
    }
    let solver_s = stats
        .iter()
        .map(|s| s.wall_time.as_secs_f64())
        .fold(0.0, f64::max);
    let iterations = stats.iter().map(|s| s.iterations).sum();
    let xs: Vec<&[f64]> = xs.iter().map(Vec::as_slice).collect();
    record.overhead_s = latency_s - solver_s;
    record.fingerprint = fingerprint(iterations, &xs);
    record.iterations = iterations;
    record.attempts = attempts;
    record.escalations = attempts - 1 + stats.iter().map(|s| s.escalations).sum::<usize>();
    record.formats_tried = formats_tried;
    record
}

/// The service's cached preconditioner as the solver sees it: it never
/// reports itself as the identity, so s-step jobs take the stepwise
/// `apply` + `spmv` route even without preconditioning. The tracing
/// wrapper forwards `is_identity`, so a traced replay takes that route too.
struct AsCached(Box<dyn Preconditioner>);

impl Preconditioner for AsCached {
    fn apply(&self, v: &[f64], out: &mut [f64]) {
        self.0.apply(v, out)
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// Run entry `e` directly through the `krylov` entry point the service
/// uses for it, on one thread. Returns the final attempt's solutions and
/// every attempt's stats.
fn direct<A: SparseMatrix + ?Sized, P: Preconditioner>(
    entry: &Entry,
    a: &A,
    precond: &P,
    input: &Inputs,
    formats_tried: &[String],
    format: &dyn Fn(&str) -> Box<dyn BasisFormat>,
) -> (Vec<Vec<f64>>, Vec<SolveStats>) {
    let opts = entry.opts();
    let x0 = vec![0.0; a.rows()];
    let b = &input.b[0];
    match entry.kind {
        Kind::Block(f, _) => {
            let r = block_gmres_dyn(a, &input.b, None, &opts, precond, format(f).as_ref());
            (r.solutions, r.stats)
        }
        Kind::Adaptive => {
            let aopts = AdaptiveOptions {
                gmres: opts,
                ..AdaptiveOptions::default()
            };
            let r = adaptive_gmres_controlled(a, b, &x0, &aopts, precond, None, None, |_| {});
            (vec![r.result.x], vec![r.result.stats])
        }
        Kind::SStep(f, s) => {
            let sopts = SStepOptions {
                s,
                loo_budget: None,
                gmres: opts,
            };
            let fmt = format(f);
            let r = sstep_gmres_dyn_controlled(
                a,
                b,
                &x0,
                &sopts,
                precond,
                fmt.as_ref(),
                None,
                None,
                |_| {},
            );
            (vec![r.result.solve.x], vec![r.result.solve.stats])
        }
        Kind::Fixed(_) | Kind::Auto | Kind::Retry(_) => {
            // Each attempt of a retried job starts afresh in the next rung.
            let mut x = Vec::new();
            let mut stats = Vec::new();
            for f in formats_tried {
                let fmt = format(f);
                let r = gmres_dyn_controlled(
                    a,
                    b,
                    &x0,
                    &opts,
                    precond,
                    fmt.as_ref(),
                    None,
                    None,
                    |_| {},
                );
                x = r.result.x;
                stats.push(r.result.stats);
            }
            (vec![x], stats)
        }
    }
}

/// The traced half of `service_mixed`: replay each entry that ran, plain
/// and traced, and keep the traced replay as a span weighted by how many
/// jobs of that entry the loop ran.
fn replay(
    report: &mut Report,
    ops: &[Operator],
    inputs: &[Inputs],
    first: &BTreeMap<usize, &JobRecord>,
    counts: &[usize],
) {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("replay thread pool");
    let start = Instant::now();
    for (&e, record) in first {
        let entry = &CATALOGUE[e];
        let op = &ops[entry.op];
        let matrix = spla::auto_format(&op.a).build(&op.a);
        let precond = AsCached(match op.precond {
            PrecondSpec::Jacobi => Box::new(Jacobi::try_new(&op.a).expect("Jacobi factorization")),
            _ => Box::new(krylov::Identity),
        });
        let input = &inputs[e];
        let plain_format = |f: &str| by_name(f).expect("registered basis format");
        let stats_fp = |xs: &[Vec<f64>], stats: &[SolveStats]| {
            let last = entry.width().min(stats.len());
            let iters = stats[stats.len() - last..]
                .iter()
                .map(|s| s.iterations)
                .sum();
            let xs: Vec<&[f64]> = xs.iter().map(Vec::as_slice).collect();
            fingerprint(iters, &xs)
        };

        let t = Instant::now();
        let (xs, stats) = pool.install(|| {
            direct(
                entry,
                matrix.as_ref(),
                &precond,
                input,
                &record.formats_tried,
                &plain_format,
            )
        });
        let plain_s = t.elapsed().as_secs_f64();
        report.fingerprint(entry.label, stats_fp(&xs, &stats));

        let counters = Counters::new(1);
        let tm = TracedMatrix {
            inner: matrix.as_ref(),
            counters: counters.clone(),
        };
        let tp = TracedPrecond {
            inner: &precond,
            counters: counters.clone(),
        };
        let traced_format = |f: &str| -> Box<dyn BasisFormat> {
            Box::new(TracedFormat {
                inner: plain_format(f),
                counters: counters.clone(),
            })
        };
        let t0 = start.elapsed().as_secs_f64();
        let (xs, stats) = pool.install(|| {
            direct(
                entry,
                &tm,
                &tp,
                input,
                &record.formats_tried,
                &traced_format,
            )
        });
        let t1 = start.elapsed().as_secs_f64();
        report.fingerprint(entry.label, stats_fp(&xs, &stats));
        let stats: Vec<&SolveStats> = stats.iter().collect();
        let mut span = Span::close(entry.label, (t0, t1), 1, &counters, &stats);
        span.weight = counts[e] as f64;
        span.overhead_s = span.wall_s() - plain_s;
        report.span(span);
    }
}
