//! Machine-readable perf harness: times the paper-critical paths (SpMV
//! in every sparse format, the FRSZ2 codec and fused basis kernels,
//! CB-GMRES solves through the scalar, adaptive, block and s-step
//! drivers, the `SolverService`, and the fault-tolerance layer) at
//! explicit thread counts and emits one schema-stable
//! `BENCH_<suite>.json` per suite plus a combined
//! `results/bench_json.csv`. The schema, the case inventory and the
//! check-group table are documented in `docs/bench-schema.md`.
//!
//! ```text
//! bench_json [--quick] [--threads 1,2,4] [--runs N]
//! bench_json --validate BENCH_spmv.json [MORE.json ...]
//! bench_json --check-bidirectional BENCH_solve.json [MORE.json ...]
//! ```
//!
//! Every suite is a table of cases driven by one case runner
//! ([`run_case`]): one warm-up, `runs` timed repetitions under a pool
//! of exactly `threads` threads, min/median/mean. Each row carries a
//! **fingerprint**, FNV-1a over the bit patterns of the case's output
//! ([`fnv`]). After a suite runs, [`check`] enforces its declared
//! [`Rule`]s: every case must fingerprint-equal itself across thread
//! counts, each equal-fingerprint group must agree at every thread
//! count, and the per-case predicates (must converge, must stagnate,
//! metric bounds) must hold. Any violation exits non-zero before the
//! suite's document is written.
//!
//! `--check-bidirectional` re-reads committed solve documents and
//! fails unless the `cb_gmres_adaptive_bidir` trajectory steps up the
//! escalation ladder at least once and back down at least once after.

use bench::json::{self, Json};
use bench::report;
use frsz2::{Frsz2AdaptiveStore, Frsz2Config, Frsz2Store, Frsz2Vector};
use krylov::{
    adaptive_gmres, block_gmres_with, gmres, gmres_with, sstep_gmres_dyn, AdaptiveOptions,
    GmresOptions, HistoryPoint, Identity, SStepOptions, SolveResult, SolveStats, ESCALATION_LADDER,
};
use numfmt::ColumnStorage;
use spla::{auto_format, gen, Ell, SellCSigma, SparseMatrix};
use std::time::Instant;

struct Args {
    quick: bool,
    threads: Vec<usize>,
    runs: usize,
    validate: Vec<String>,
    check_bidirectional: Vec<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        threads: Vec::new(),
        runs: 0,
        validate: Vec::new(),
        check_bidirectional: Vec::new(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--quick" => args.quick = true,
            "--threads" => {
                i += 1;
                let list = argv.get(i).expect("--threads needs a list, e.g. 1,2,4");
                args.threads = list
                    .split(',')
                    .map(|t| t.trim().parse().expect("bad thread count"))
                    .collect();
                assert!(
                    args.threads.iter().all(|&t| t >= 1),
                    "thread counts must be >= 1"
                );
            }
            "--runs" => {
                i += 1;
                args.runs = argv
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .expect("bad --runs");
            }
            "--validate" => {
                args.validate = argv[i + 1..].to_vec();
                assert!(
                    !args.validate.is_empty(),
                    "--validate needs at least one file"
                );
                break;
            }
            "--check-bidirectional" => {
                args.check_bidirectional = argv[i + 1..].to_vec();
                assert!(
                    !args.check_bidirectional.is_empty(),
                    "--check-bidirectional needs at least one file"
                );
                break;
            }
            other => panic!("unknown flag {other}"),
        }
        i += 1;
    }
    if args.runs == 0 {
        args.runs = if args.quick { 3 } else { 5 };
    }
    if args.threads.is_empty() {
        let avail = available_threads();
        args.threads = if avail > 1 { vec![1, avail] } else { vec![1] };
    }
    args
}

fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

// ---------------------------------------------------------------------
// Fingerprints.
// ---------------------------------------------------------------------

/// FNV-1a over the little-endian bytes of `u64` words: the determinism
/// fingerprint every case row carries.
fn fnv(words: impl IntoIterator<Item = u64>) -> String {
    let mut h = 0xcbf29ce484222325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    format!("{h:016x}")
}

fn fp_f64s(values: &[f64]) -> String {
    fnv(values.iter().map(|v| v.to_bits()))
}

/// One solve's words: its iteration count, then its residual-history
/// bits.
fn history_words(iterations: usize, history: &[HistoryPoint]) -> impl Iterator<Item = u64> + '_ {
    std::iter::once(iterations as u64).chain(history.iter().map(|p| p.rrn.to_bits()))
}

/// Each byte of `s` as one word (format names, per-job fingerprints).
fn byte_words(s: &str) -> impl Iterator<Item = u64> + '_ {
    s.bytes().map(u64::from)
}

/// What a solve fingerprint hashes after the iteration count and the
/// residual-history bits.
#[derive(Clone, Copy)]
enum SolveFp {
    /// Nothing more (the pinned `cb_gmres_frsz2_21` formula).
    History,
    /// The format trajectory's bytes, which pins an escalation schedule.
    Trajectory,
    /// The solution's bits.
    Solution,
    /// The trajectory, then the solution (a service job).
    Job,
}

fn fp_solve(r: &SolveResult, kind: SolveFp) -> String {
    let (trajectory, x) = match kind {
        SolveFp::History => (false, false),
        SolveFp::Trajectory => (true, false),
        SolveFp::Solution => (false, true),
        SolveFp::Job => (true, true),
    };
    let traj = r
        .stats
        .format_trajectory
        .iter()
        .filter(|_| trajectory)
        .flat_map(|f| byte_words(f));
    let xs = r.x.iter().filter(|_| x).map(|v| v.to_bits());
    fnv(history_words(r.stats.iterations, &r.history)
        .chain(traj)
        .chain(xs))
}

// ---------------------------------------------------------------------
// The case runner.
// ---------------------------------------------------------------------

/// Wall-clock statistics of one `(case, threads)` measurement, in ms.
struct Timing {
    min_ms: f64,
    median_ms: f64,
    mean_ms: f64,
}

/// What a case reports besides its timing.
#[derive(Default)]
struct Row {
    fingerprint: String,
    metrics: Vec<(&'static str, f64)>,
    /// Per-cycle basis-format trajectory (adaptive solve cases).
    trajectory: Option<Vec<String>>,
    /// Whether the case's solves converged. Not emitted; read by
    /// [`Rule::Converges`].
    converged: Option<bool>,
}

/// A `(case, threads)` measurement row.
struct CaseResult {
    name: String,
    threads: usize,
    runs: usize,
    timing: Timing,
    row: Row,
}

impl CaseResult {
    fn metric(&self, key: &str) -> Result<f64, String> {
        self.row
            .metrics
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("{} has no metric {key}", self.name))
    }

    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("name", Json::Str(self.name.clone())),
            ("threads", Json::Num(self.threads as f64)),
            ("runs", Json::Num(self.runs as f64)),
            ("min_ms", Json::Num(self.timing.min_ms)),
            ("median_ms", Json::Num(self.timing.median_ms)),
            ("mean_ms", Json::Num(self.timing.mean_ms)),
            (
                "metrics",
                Json::Obj(
                    self.row
                        .metrics
                        .iter()
                        .map(|(k, v)| (k.to_string(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            ("fingerprint", Json::Str(self.row.fingerprint.clone())),
        ];
        if let Some(traj) = &self.row.trajectory {
            pairs.push((
                "format_trajectory",
                Json::Arr(traj.iter().map(|f| Json::Str(f.clone())).collect()),
            ));
        }
        Json::obj(pairs)
    }
}

/// The case runner: under a pool of exactly `threads` threads, run
/// `body` once as a warm-up and `runs` more times on the clock, then
/// build the row from the last output and the timing (still under the
/// pool, so a fingerprint recomputed there runs at the row's thread
/// count).
fn run_case<T>(
    name: &str,
    threads: usize,
    runs: usize,
    mut body: impl FnMut() -> T,
    row: impl FnOnce(T, &Timing) -> Row,
) -> CaseResult {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool build");
    pool.install(|| {
        let mut last = body();
        let mut samples: Vec<f64> = (0..runs)
            .map(|_| {
                let t = Instant::now();
                last = body();
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        let timing = Timing {
            min_ms: samples[0],
            median_ms: samples[samples.len() / 2],
            mean_ms: samples.iter().sum::<f64>() / samples.len() as f64,
        };
        let row = row(last, &timing);
        CaseResult {
            name: name.to_string(),
            threads,
            runs,
            timing,
            row,
        }
    })
}

/// [`run_case`] at every `--threads` count.
fn sweep<T>(
    args: &Args,
    name: &str,
    mut body: impl FnMut() -> T,
    row: impl Fn(T, &Timing) -> Row,
) -> Vec<CaseResult> {
    args.threads
        .iter()
        .map(|&threads| run_case(name, threads, args.runs, &mut body, &row))
        .collect()
}

/// `stats` field behind a solve metric key.
fn solve_metric(stats: &SolveStats, key: &str) -> f64 {
    match key {
        "converged" => f64::from(u8::from(stats.converged)),
        "iterations" => stats.iterations as f64,
        "final_rrn" => stats.final_rrn,
        "escalations" => stats.escalations as f64,
        "de_escalations" => stats.de_escalations as f64,
        "basis_bits_per_value" => stats.basis_bits_per_value,
        "dot_sweeps" => stats.basis_dot_sweeps as f64,
        "gemv_sweeps" => stats.basis_gemv_sweeps as f64,
        "basis_sweeps" => (stats.basis_dot_sweeps + stats.basis_gemv_sweeps) as f64,
        "operator_sweeps" => stats.spmv_count as f64,
        other => panic!("unknown solve metric {other}"),
    }
}

/// The row of one solve: fingerprint of `kind`, the named `stats`
/// metrics in order, and the trajectory when the fingerprint covers it.
fn solve_row(r: &SolveResult, kind: SolveFp, metrics: &[&'static str]) -> Row {
    Row {
        fingerprint: fp_solve(r, kind),
        metrics: metrics
            .iter()
            .map(|&k| (k, solve_metric(&r.stats, k)))
            .collect(),
        trajectory: matches!(kind, SolveFp::Trajectory).then(|| r.stats.format_trajectory.clone()),
        converged: Some(r.stats.converged),
    }
}

// ---------------------------------------------------------------------
// Declared checks.
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
enum Cmp {
    Lt,
    Ge,
    Eq,
}

/// A contract a suite declares over the rows of the named cases;
/// [`check`] enforces it at every thread count.
enum Rule {
    /// The cases fingerprint-equal the first one: the same computation
    /// on different sparse formats, fused kernels and their references,
    /// a delegating driver and the scalar solve, concurrent and
    /// sequential service batches.
    Same(&'static [&'static str]),
    /// The cases' solves converge (`true`) or must stagnate (`false`).
    Converges(&'static [&'static str], bool),
    /// `metrics[key]` of each case compares to the bound.
    Metric(&'static [&'static str], &'static str, Cmp, f64),
    /// `metrics[key]` of each case is strictly below the base case's.
    Below(&'static [&'static str], &'static str, &'static str),
}

/// Enforce `rules` over one suite's rows, plus the rule every case
/// obeys: its fingerprint is the same at every thread count. A case a
/// rule names must have produced rows, so a renamed case or a typo
/// cannot silently disable its rule.
fn check(bench: &str, cases: &[CaseResult], rules: &[Rule]) -> Result<(), String> {
    for c in cases {
        let first = cases.iter().find(|o| o.name == c.name).expect("c itself");
        if first.row.fingerprint != c.row.fingerprint {
            return Err(format!(
                "DETERMINISM VIOLATION in {bench}/{}: fingerprint {} at {} threads \
                 differs from {} at {} threads",
                c.name, c.row.fingerprint, c.threads, first.row.fingerprint, first.threads
            ));
        }
    }
    let at = |name: &str, threads: usize| {
        cases
            .iter()
            .find(|c| c.name == name && c.threads == threads)
            .ok_or_else(|| format!("{bench}/{name}: no row at {threads} threads"))
    };
    for rule in rules {
        let (Rule::Same(names)
        | Rule::Converges(names, _)
        | Rule::Metric(names, ..)
        | Rule::Below(names, ..)) = rule;
        for name in names.iter() {
            let rows: Vec<&CaseResult> = cases.iter().filter(|c| c.name == *name).collect();
            if rows.is_empty() {
                return Err(format!("{bench}: checked case {name} produced no rows"));
            }
            for c in rows {
                let failure = match rule {
                    Rule::Same(group) => {
                        let r = at(group[0], c.threads)?;
                        (c.row.fingerprint != r.row.fingerprint).then(|| {
                            format!(
                                "fingerprint {} differs from {} ({})",
                                c.row.fingerprint, group[0], r.row.fingerprint
                            )
                        })
                    }
                    Rule::Converges(_, want) => (c.row.converged != Some(*want))
                        .then(|| format!("converged = {:?}, required {want}", c.row.converged)),
                    Rule::Metric(_, key, cmp, bound) => {
                        let v = c.metric(key)?;
                        let holds = match cmp {
                            Cmp::Lt => v < *bound,
                            Cmp::Ge => v >= *bound,
                            Cmp::Eq => v == *bound,
                        };
                        (!holds).then(|| format!("{key} = {v} fails {cmp:?} {bound}"))
                    }
                    Rule::Below(_, base, key) => {
                        let (v, b) = (c.metric(key)?, at(base, c.threads)?.metric(key)?);
                        (v >= b).then(|| format!("{key} = {v} is not below {base}'s {b}"))
                    }
                };
                if let Some(failure) = failure {
                    return Err(format!(
                        "CHECK FAILED in {bench}/{name} at {} threads: {failure}",
                        c.threads
                    ));
                }
            }
        }
    }
    Ok(())
}

/// One suite's output: the document's `config`, its rows, and the case
/// whose thread speedup the document reports.
struct Suite {
    config: Vec<(&'static str, Json)>,
    cases: Vec<CaseResult>,
    speedup_case: &'static str,
}

fn emit_doc(bench: &str, quick: bool, suite: Suite) -> Json {
    let Suite {
        config,
        cases,
        speedup_case,
    } = suite;
    let mut pairs = vec![
        ("schema_version", Json::Num(json::BENCH_SCHEMA_VERSION)),
        ("bench", Json::Str(bench.to_string())),
        ("quick", Json::Bool(quick)),
        ("threads_available", Json::Num(available_threads() as f64)),
        ("config", Json::obj(config)),
        (
            "cases",
            Json::Arr(cases.iter().map(CaseResult::to_json).collect()),
        ),
    ];
    // Speedup of the highest thread count over the lowest for the
    // designated case (min-of-runs times).
    let of_case: Vec<&CaseResult> = cases.iter().filter(|c| c.name == speedup_case).collect();
    if of_case.len() >= 2 {
        let lo = of_case.iter().min_by_key(|c| c.threads).unwrap();
        let hi = of_case.iter().max_by_key(|c| c.threads).unwrap();
        if hi.threads > lo.threads && hi.timing.min_ms > 0.0 {
            pairs.push((
                "speedup",
                Json::obj(vec![
                    ("case", Json::Str(speedup_case.to_string())),
                    ("threads", Json::Num(hi.threads as f64)),
                    ("vs", Json::Num(lo.threads as f64)),
                    ("factor", Json::Num(lo.timing.min_ms / hi.timing.min_ms)),
                ]),
            ));
        }
    }
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// `bytes` moved per `min_ms`, in GB/s.
fn gbps(bytes: f64, t: &Timing) -> f64 {
    bytes / (t.min_ms * 1e-3) / 1e9
}

/// The pinned `cb_gmres_frsz2_21` solver options.
fn pinned_opts() -> GmresOptions {
    GmresOptions {
        restart: 100,
        max_iters: 5000,
        target_rrn: 1e-10,
        record_history: true,
        ..GmresOptions::default()
    }
}

/// The pinned `cb_gmres_frsz2_21` solve of `b` on `a`.
fn pinned_solve(a: &dyn SparseMatrix, b: &[f64], opts: &GmresOptions) -> SolveResult {
    let cfg = Frsz2Config::new(32, 21);
    let x0 = vec![0.0; a.rows()];
    gmres_with(a, b, &x0, opts, &Identity, |rows, cols| {
        Frsz2Store::with_config(cfg, rows, cols)
    })
}

// ---------------------------------------------------------------------
// The suites.
// ---------------------------------------------------------------------

const SPMV_RULES: &[Rule] = &[Rule::Same(&["spmv_csr", "spmv_ell", "spmv_sell"])];

/// SpMV on a convection–diffusion operator (≥ 1M nnz in full mode),
/// once per sparse format on the same input.
fn bench_spmv(args: &Args) -> Suite {
    let s = if args.quick { 24 } else { 56 };
    let a = gen::conv_diff_3d(s, s, s, [0.4, 0.2, 0.1], 0.2);
    let auto = auto_format(&a);
    let ell = Ell::from_csr(&a);
    let sell = SellCSigma::from_csr(&a, 32, 256);
    let formats: [(&str, &dyn SparseMatrix); 3] =
        [("spmv_csr", &a), ("spmv_ell", &ell), ("spmv_sell", &sell)];
    let x: Vec<f64> = (0..a.cols()).map(|i| ((i as f64) * 0.37).sin()).collect();
    let mut y = vec![0.0; a.rows()];
    let mut cases = Vec::new();
    for (name, m) in formats {
        cases.extend(sweep(
            args,
            name,
            || m.spmv(&x, &mut y),
            |(), t| {
                let mut y = vec![0.0; m.rows()];
                m.spmv(&x, &mut y);
                Row {
                    fingerprint: fp_f64s(&y),
                    metrics: vec![
                        ("nnz", m.nnz() as f64),
                        ("rows", m.rows() as f64),
                        ("storage_bytes", m.storage_bytes() as f64),
                        ("gbps", gbps(m.spmv_bytes() as f64, t)),
                    ],
                    ..Row::default()
                }
            },
        ));
    }
    Suite {
        config: vec![
            ("matrix", Json::Str(format!("conv_diff_3d {s}^3"))),
            ("rows", Json::Num(a.rows() as f64)),
            ("nnz", Json::Num(a.nnz() as f64)),
            ("bytes_per_spmv", Json::Num(a.spmv_bytes() as f64)),
            ("auto_format", Json::Str(auto.name().into())),
        ],
        cases,
        speedup_case: "spmv_csr",
    }
}

const CODEC_RULES: &[Rule] = &[
    Rule::Same(&["basis_dots", "basis_dots_ref"]),
    Rule::Same(&["basis_gemv", "basis_gemv_ref"]),
];

/// FRSZ2 compress + decompress round trips at the paper bit lengths,
/// plus the fused multi-column orthogonalization kernels on a frsz2_21
/// basis against their per-column decompress-then-BLAS references.
fn bench_codec(args: &Args) -> Suite {
    let n: usize = if args.quick { 1 << 16 } else { 1 << 20 };
    let data: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.17).sin() * 0.9).collect();
    let roundtrip = |cfg: Frsz2Config, out: &mut [f64]| {
        Frsz2Vector::compress(cfg, &data).decompress_into(out);
    };
    let mut out = vec![0.0; n];
    let mut cases = Vec::new();
    for bits in [16u32, 21, 32] {
        let cfg = Frsz2Config::new(32, bits);
        cases.extend(sweep(
            args,
            &format!("codec_roundtrip_l{bits}"),
            || roundtrip(cfg, &mut out),
            |(), t| {
                let mut out = vec![0.0; n];
                roundtrip(cfg, &mut out);
                Row {
                    fingerprint: fp_f64s(&out),
                    metrics: vec![
                        ("values", n as f64),
                        // One encode + one decode pass over the
                        // uncompressed values ...
                        ("gbps_uncompressed", gbps((2 * n * 8) as f64, t)),
                        // ... and over the compressed bytes: the
                        // traffic CB-GMRES pays for basis storage.
                        (
                            "gbps_compressed",
                            gbps((2 * cfg.storage_bytes(n)) as f64, t),
                        ),
                        ("bits_per_value", cfg.bits_per_value(n)),
                    ],
                    ..Row::default()
                }
            },
        ));
    }

    let bn: usize = if args.quick { 1 << 14 } else { 1 << 17 };
    let bk = 8usize;
    let mut basis =
        krylov::Basis::from_store(Frsz2Store::with_config(Frsz2Config::new(32, 21), bn, bk));
    for j in 0..bk {
        let v: Vec<f64> = (0..bn)
            .map(|i| ((i + 31 * j) as f64 * 0.11).sin())
            .collect();
        basis.write(j, &v);
    }
    let w: Vec<f64> = (0..bn).map(|i| (i as f64 * 0.07).sin()).collect();
    let alphas: Vec<f64> = (0..bk).map(|j| 1e-3 * (j as f64 + 1.0)).collect();
    let chunk = basis.chunk_rows();
    let n_chunks = bn.div_ceil(chunk);
    let store = basis.store();
    // Each kernel writes (dots) or updates (gemv) `out`, using
    // `scratch` as its workspace. The references mirror the basis'
    // chunk-ordered reduction and its chunk-outer, column-inner update
    // order, so fused and reference must agree bit for bit.
    let dots = |out: &mut [f64], scratch: &mut Vec<f64>| basis.dots_with(bk, &w, out, scratch);
    let dots_ref = |out: &mut [f64], scratch: &mut Vec<f64>| {
        scratch.resize(n_chunks * bk + chunk, 0.0);
        let (partials, tile) = scratch.split_at_mut(n_chunks * bk);
        for (c, slot) in partials.chunks_mut(bk).enumerate() {
            let start = c * chunk;
            let len = chunk.min(bn - start);
            for (j, out_j) in slot.iter_mut().enumerate() {
                store.read_chunk(j, start, &mut tile[..len]);
                let mut acc = 0.0;
                for (a, b) in tile[..len].iter().zip(&w[start..start + len]) {
                    acc += a * b;
                }
                *out_j = acc;
            }
        }
        for (j, out_j) in out.iter_mut().enumerate() {
            *out_j = (0..n_chunks).map(|c| partials[c * bk + j]).sum();
        }
    };
    let gemv = |out: &mut [f64], _: &mut Vec<f64>| basis.axpys(bk, &alphas, out);
    let gemv_ref = |out: &mut [f64], tile: &mut Vec<f64>| {
        tile.resize(chunk, 0.0);
        let mut start = 0;
        while start < bn {
            let len = chunk.min(bn - start);
            for (j, &a) in alphas.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                store.read_chunk(j, start, &mut tile[..len]);
                for (b, t) in out[start..start + len].iter_mut().zip(&tile[..len]) {
                    *b += a * t;
                }
            }
            start += len;
        }
    };
    type Kernel<'a> = &'a dyn Fn(&mut [f64], &mut Vec<f64>);
    let zeros = vec![0.0; bk];
    let kernels: [(&str, &[f64], Kernel); 4] = [
        ("basis_dots", &zeros, &dots),
        ("basis_dots_ref", &zeros, &dots_ref),
        ("basis_gemv", &w, &gemv),
        ("basis_gemv_ref", &w, &gemv_ref),
    ];
    // Compressed bytes streamed per sweep: all k columns once.
    let sweep_bytes = (bk * basis.column_bytes()) as f64;
    for &threads in &args.threads {
        for (name, init, kernel) in kernels {
            // Timed on a persistent buffer; the fingerprint comes from
            // one fresh application, so it is independent of the run
            // count.
            let (mut buf, mut scratch) = (init.to_vec(), Vec::new());
            cases.push(run_case(
                name,
                threads,
                args.runs,
                || kernel(&mut buf, &mut scratch),
                |(), t| {
                    let mut fresh = init.to_vec();
                    kernel(&mut fresh, &mut Vec::new());
                    Row {
                        fingerprint: fp_f64s(&fresh),
                        metrics: vec![("gbps_compressed", gbps(sweep_bytes, t))],
                        ..Row::default()
                    }
                },
            ));
        }
    }

    Suite {
        config: vec![
            ("values", Json::Num(n as f64)),
            ("block_size", Json::Num(32.0)),
            ("basis_rows", Json::Num(bn as f64)),
            ("basis_cols", Json::Num(bk as f64)),
            ("basis_format", Json::Str("frsz2_21".into())),
        ],
        cases,
        speedup_case: "codec_roundtrip_l21",
    }
}

const SOLVE_RULES: &[Rule] = &[
    Rule::Same(&["cb_gmres_frsz2_21", "cb_gmres_frsz2_21_auto"]),
    Rule::Converges(
        &[
            "cb_gmres_frsz2_21",
            "cb_gmres_frsz2_21_auto",
            "cb_gmres_adaptive",
            "cb_gmres_adaptive_bidir",
            "cb_gmres_frsz2_ab",
        ],
        true,
    ),
    Rule::Converges(
        &["cb_gmres_frsz2_16_fixed", "cb_gmres_frsz2_16_runs"],
        false,
    ),
    Rule::Metric(
        &["cb_gmres_adaptive", "cb_gmres_adaptive_bidir"],
        "escalations",
        Cmp::Ge,
        1.0,
    ),
    Rule::Metric(&["cb_gmres_adaptive_bidir"], "de_escalations", Cmp::Ge, 1.0),
    Rule::Metric(
        &["cb_gmres_frsz2_ab"],
        "basis_bits_per_value",
        Cmp::Lt,
        22.0,
    ),
];

/// CB-GMRES solves: the pinned frsz2_21 solve on CSR and on the
/// auto-selected sparse format; the stagnation pair (fixed frsz2_16 vs
/// the escalating adaptive driver) and the bidirectional adaptive
/// driver on a similarity-scaled operator whose exponent spread defeats
/// frsz2_16; and the runs-operator pair (fixed frsz2_16 vs the
/// per-block frsz2_ab store).
fn bench_solve(args: &Args) -> Suite {
    let s = if args.quick { 12 } else { 20 };
    let a = gen::conv_diff_3d(s, s, s, [0.4, 0.2, 0.1], 0.2);
    let auto = auto_format(&a);
    let auto_matrix = auto.build(&a);
    let (_, b) = spla::dense::manufactured_rhs(&a);
    let opts = pinned_opts();

    let s2 = if args.quick { 8 } else { 12 };
    let scaled = gen::wide_range_conv_diff(s2, s2, s2, 24, 0x5202);
    let (_, b2) = spla::dense::manufactured_rhs(&scaled);
    let x02 = vec![0.0; scaled.rows()];
    // Plateaus of 16 equal scaling entries over 24 binades: most
    // 32-value blocks straddle at most one plateau boundary.
    let runs_m = gen::wide_range_conv_diff_runs(s2, s2, s2, 24, 16, 0x5202);
    let (_, b3) = spla::dense::manufactured_rhs(&runs_m);
    let x03 = vec![0.0; runs_m.rows()];
    let stag_opts = GmresOptions {
        restart: 30,
        max_iters: 1200,
        target_rrn: 1e-10,
        record_history: true,
        ..GmresOptions::default()
    };
    let cfg16 = Frsz2Config::new(32, 16);
    let fixed16 = |m: &spla::Csr, b: &[f64], x0: &[f64]| {
        gmres_with(m, b, x0, &stag_opts, &Identity, |rows, cols| {
            Frsz2Store::with_config(cfg16, rows, cols)
        })
    };
    // The bidirectional driver arms de-escalation at single-cycle
    // hysteresis.
    let adaptive = |bidirectional: bool| {
        let mut aopts = AdaptiveOptions {
            gmres: stag_opts.clone(),
            ..AdaptiveOptions::default()
        };
        if bidirectional {
            aopts.de_escalate = true;
            aopts.de_escalation_cycles = 1;
        }
        adaptive_gmres(&scaled, &b2, &x02, &aopts, &Identity)
    };

    const PINNED: &[&str] = &["iterations", "final_rrn", "basis_bits_per_value"];
    const ESCALATING: &[&str] = &[
        "converged",
        "iterations",
        "final_rrn",
        "escalations",
        "basis_bits_per_value",
    ];
    const BIDIR: &[&str] = &[
        "converged",
        "iterations",
        "final_rrn",
        "escalations",
        "de_escalations",
        "basis_bits_per_value",
    ];
    const RUNS: &[&str] = &[
        "converged",
        "iterations",
        "final_rrn",
        "basis_bits_per_value",
    ];
    type SolveCase<'a> = (
        &'static str,
        &'a dyn Fn() -> SolveResult,
        SolveFp,
        &'static [&'static str],
    );
    let table: [SolveCase; 7] = [
        (
            "cb_gmres_frsz2_21",
            &|| pinned_solve(&a, &b, &opts),
            SolveFp::History,
            PINNED,
        ),
        (
            "cb_gmres_frsz2_21_auto",
            &|| pinned_solve(auto_matrix.as_ref(), &b, &opts),
            SolveFp::History,
            PINNED,
        ),
        (
            "cb_gmres_frsz2_16_fixed",
            &|| fixed16(&scaled, &b2, &x02),
            SolveFp::Trajectory,
            ESCALATING,
        ),
        (
            "cb_gmres_adaptive",
            &|| adaptive(false),
            SolveFp::Trajectory,
            ESCALATING,
        ),
        (
            "cb_gmres_adaptive_bidir",
            &|| adaptive(true),
            SolveFp::Trajectory,
            BIDIR,
        ),
        (
            "cb_gmres_frsz2_16_runs",
            &|| fixed16(&runs_m, &b3, &x03),
            SolveFp::History,
            RUNS,
        ),
        (
            "cb_gmres_frsz2_ab",
            &|| gmres::<Frsz2AdaptiveStore, _, _>(&runs_m, &b3, &x03, &stag_opts, &Identity),
            SolveFp::History,
            RUNS,
        ),
    ];
    let mut cases = Vec::new();
    for (name, run, kind, metrics) in table {
        cases.extend(sweep(args, name, run, |r, _| solve_row(&r, kind, metrics)));
    }

    Suite {
        config: vec![
            ("matrix", Json::Str(format!("conv_diff_3d {s}^3"))),
            ("rows", Json::Num(a.rows() as f64)),
            ("format", Json::Str("frsz2_21".into())),
            ("auto_format", Json::Str(auto.name().into())),
            ("target_rrn", Json::Num(1e-10)),
            (
                "stagnation_matrix",
                Json::Str(format!(
                    "conv_diff_3d {s2}^3 similarity-scaled (24 binades)"
                )),
            ),
            ("stagnation_rows", Json::Num(scaled.rows() as f64)),
            ("stagnation_restart", Json::Num(30.0)),
            ("stagnation_max_iters", Json::Num(1200.0)),
            (
                "runs_matrix",
                Json::Str(format!(
                    "conv_diff_3d {s2}^3 similarity-scaled (24 binades, runs of 16)"
                )),
            ),
            ("runs_run_length", Json::Num(16.0)),
            ("bidir_de_escalation_drop", Json::Num(10.0)),
            ("bidir_de_escalation_cycles", Json::Num(1.0)),
        ],
        cases,
        speedup_case: "cb_gmres_frsz2_21",
    }
}

const BLOCK_RULES: &[Rule] = &[
    Rule::Same(&["block_solve_frsz2_21_ref", "block_solve_frsz2_21_b1"]),
    Rule::Converges(
        &[
            "block_solve_frsz2_21_ref",
            "block_solve_frsz2_21_b1",
            "block_solve_frsz2_21_b4",
            "block_solve_frsz2_21_b16",
        ],
        true,
    ),
];

/// Block CB-GMRES: the pinned solve for b ∈ {1, 4, 16} right-hand
/// sides through the shared-space block driver, beside an in-suite
/// single-solve reference (the b = 1 block delegates to it).
///
/// The wide cases run a width-scaled restart (12 instead of 100): the
/// shared basis holds `b·(restart+1)` columns, and per-RHS decode
/// traffic grows with the square of the cycle length. Short cycles keep
/// the b = 16 basis at ~2× the single case's columns and, on this
/// operator, carry no iteration penalty.
fn bench_block(args: &Args) -> Suite {
    let s = if args.quick { 12 } else { 20 };
    let a = gen::conv_diff_3d(s, s, s, [0.4, 0.2, 0.1], 0.2);
    let (_, b0) = spla::dense::manufactured_rhs(&a);
    let n = a.rows();
    let opts = pinned_opts();
    let wide_restart = 12;
    let cfg = Frsz2Config::new(32, 21);
    let storage = SparseMatrix::storage_bytes(&a) as f64;
    // RHS family: lane 0 is the pinned manufactured problem; lane
    // k > 0 solves `A·x = A·xsol_k` for a frequency- and phase-shifted
    // smooth `xsol_k`, so every lane has single-solve difficulty and
    // the family is full-rank.
    let rhs_family = |width: usize| -> Vec<Vec<f64>> {
        (0..width)
            .map(|k| {
                if k == 0 {
                    b0.clone()
                } else {
                    let mut xsol: Vec<f64> = (0..n)
                        .map(|i| ((i as f64) * (1.0 + 0.37 * k as f64) + (k as f64) * 0.73).sin())
                        .collect();
                    let nrm = xsol.iter().map(|v| v * v).sum::<f64>().sqrt();
                    xsol.iter_mut().for_each(|v| *v /= nrm);
                    a.mul_vec(&xsol)
                }
            })
            .collect()
    };

    let mut cases = sweep(
        args,
        "block_solve_frsz2_21_ref",
        || pinned_solve(&a, &b0, &opts),
        |r, t| {
            let mut row = solve_row(&r, SolveFp::History, &["iterations", "operator_sweeps"]);
            row.metrics
                .splice(0..0, [("width", 1.0), ("time_per_rhs_ms", t.min_ms)]);
            row.metrics
                .push(("spmv_gb_per_rhs", r.stats.spmv_count as f64 * storage / 1e9));
            row
        },
    );
    for width in [1usize, 4, 16] {
        let bs = rhs_family(width);
        // b = 1 keeps the paper restart (its fingerprint is pinned to
        // the single solve); the wide blocks run the width-scaled one.
        let wopts = GmresOptions {
            restart: if width == 1 {
                opts.restart
            } else {
                wide_restart
            },
            ..opts.clone()
        };
        cases.extend(sweep(
            args,
            &format!("block_solve_frsz2_21_b{width}"),
            || {
                block_gmres_with(&a, &bs, None, &wopts, &Identity, |rows, cols| {
                    Frsz2Store::with_config(cfg, rows, cols)
                })
            },
            |r, t| Row {
                // Lane by lane, so width 1 is the single-solve formula.
                fingerprint: fnv(r
                    .stats
                    .iter()
                    .zip(&r.histories)
                    .flat_map(|(s, h)| history_words(s.iterations, h))),
                metrics: vec![
                    ("width", width as f64),
                    ("restart", wopts.restart as f64),
                    ("time_per_rhs_ms", t.min_ms / width as f64),
                    (
                        "iterations",
                        r.stats.iter().map(|s| s.iterations as u64).sum::<u64>() as f64,
                    ),
                    ("operator_sweeps", r.operator_sweeps as f64),
                    (
                        "spmv_gb_per_rhs",
                        r.operator_sweeps as f64 * storage / width as f64 / 1e9,
                    ),
                ],
                converged: Some(r.all_converged()),
                ..Row::default()
            },
        ));
    }

    Suite {
        config: vec![
            ("matrix", Json::Str(format!("conv_diff_3d {s}^3"))),
            ("rows", Json::Num(n as f64)),
            ("format", Json::Str("frsz2_21".into())),
            ("target_rrn", Json::Num(1e-10)),
            ("restart", Json::Num(100.0)),
            ("wide_restart", Json::Num(wide_restart as f64)),
            (
                "widths",
                Json::Arr(vec![Json::Num(1.0), Json::Num(4.0), Json::Num(16.0)]),
            ),
        ],
        cases,
        speedup_case: "block_solve_frsz2_21_b16",
    }
}

const SSTEP_WIDE: &[&str] = &[
    "sstep_solve_frsz2_21_s2",
    "sstep_solve_frsz2_21_s4",
    "sstep_solve_frsz2_21_s8",
];
const SSTEP_RULES: &[Rule] = &[
    Rule::Same(&["sstep_solve_frsz2_21_ref", "sstep_solve_frsz2_21_s1"]),
    Rule::Converges(
        &["sstep_solve_frsz2_21_ref", "sstep_solve_frsz2_21_s1"],
        true,
    ),
    Rule::Converges(SSTEP_WIDE, true),
    Rule::Metric(&["sstep_solve_frsz2_21_s1"], "loo_breaches", Cmp::Eq, 0.0),
    Rule::Metric(SSTEP_WIDE, "loo_breaches", Cmp::Eq, 0.0),
    Rule::Below(SSTEP_WIDE, "sstep_solve_frsz2_21_s1", "basis_sweeps"),
];

/// s-step CB-GMRES: the pinned solve through the s-step driver for
/// s ∈ {1, 2, 4, 8}, beside an in-suite single-solve reference (the
/// s = 1 driver delegates to it). Every s > 1 case must spend strictly
/// fewer basis decode sweeps than s = 1: the matrix-powers panel
/// amortizes per-iteration decode traffic.
fn bench_sstep(args: &Args) -> Suite {
    let s_dim = if args.quick { 12 } else { 20 };
    let a = gen::conv_diff_3d(s_dim, s_dim, s_dim, [0.4, 0.2, 0.1], 0.2);
    let (_, b0) = spla::dense::manufactured_rhs(&a);
    let n = a.rows();
    let opts = pinned_opts();
    let format = krylov::basis_format::by_name("frsz2_21").expect("frsz2_21 registered");
    let x0 = vec![0.0; n];
    const SWEEPS: [&str; 3] = ["dot_sweeps", "gemv_sweeps", "basis_sweeps"];

    let mut cases = sweep(
        args,
        "sstep_solve_frsz2_21_ref",
        || pinned_solve(&a, &b0, &opts),
        |r, _| {
            let mut row = solve_row(&r, SolveFp::History, &["iterations", "final_rrn"]);
            row.metrics.insert(0, ("s", 1.0));
            row.metrics
                .extend(SWEEPS.map(|k| (k, solve_metric(&r.stats, k))));
            row
        },
    );
    for s in [1usize, 2, 4, 8] {
        let sopts = SStepOptions {
            s,
            loo_budget: None,
            gmres: opts.clone(),
        };
        cases.extend(sweep(
            args,
            &format!("sstep_solve_frsz2_21_s{s}"),
            || sstep_gmres_dyn(&a, &b0, &x0, &sopts, &Identity, format.as_ref()),
            |r, _| {
                let mut row = solve_row(&r.solve, SolveFp::History, &["iterations", "final_rrn"]);
                let s_gated = r.s_per_cycle.iter().copied().max().unwrap_or(1);
                row.metrics
                    .splice(0..0, [("s", s as f64), ("s_gated", s_gated as f64)]);
                row.metrics
                    .extend(SWEEPS.map(|k| (k, solve_metric(&r.solve.stats, k))));
                row.metrics.extend([
                    ("operator_sweeps", r.solve.stats.spmv_count as f64),
                    (
                        "loo_max",
                        r.loo_per_cycle.iter().cloned().fold(0.0f64, f64::max),
                    ),
                    ("loo_breaches", r.loo_breaches as f64),
                ]);
                row
            },
        ));
    }

    Suite {
        config: vec![
            ("matrix", Json::Str(format!("conv_diff_3d {s_dim}^3"))),
            ("rows", Json::Num(n as f64)),
            ("format", Json::Str("frsz2_21".into())),
            ("target_rrn", Json::Num(1e-10)),
            ("restart", Json::Num(100.0)),
            (
                "s_values",
                Json::Arr(vec![
                    Json::Num(1.0),
                    Json::Num(2.0),
                    Json::Num(4.0),
                    Json::Num(8.0),
                ]),
            ),
            ("max_sstep", Json::Num(format.max_sstep() as f64)),
        ],
        cases,
        speedup_case: "sstep_solve_frsz2_21_s4",
    }
}

const SERVICE_RULES: &[Rule] = &[Rule::Same(&["service_sequential", "service_concurrent"])];

/// The row of one service batch: the fingerprint chains the per-job
/// fingerprints in submission order; `jobs_per_second` is the batch
/// throughput at the min time.
fn batch_row(job_fps: &[String], t: &Timing) -> Row {
    Row {
        fingerprint: fnv(job_fps.iter().flat_map(|fp| byte_words(fp))),
        metrics: vec![
            ("jobs", job_fps.len() as f64),
            ("jobs_per_second", job_fps.len() as f64 / (t.min_ms * 1e-3)),
        ],
        ..Row::default()
    }
}

/// `SolverService` throughput: eight mixed-format jobs over two cached
/// operators, run sequentially (one job at a time) and concurrently
/// (`run_batch_streaming`, one OS thread per job), each job under a
/// private pool of `threads` workers. Every job must reproduce its
/// 1-thread sequential reference fingerprint; an admission probe must
/// see an over-budget job rejected with the typed `BudgetExceeded`.
fn bench_service(args: &Args) -> Suite {
    use solver_service::{
        estimated_basis_bytes, AdmissionPolicy, BasisSelection, JobSpec, PrecondSpec,
        ServiceConfig, ServiceError, SolverService,
    };

    let s = if args.quick { 10 } else { 14 };
    let smooth = gen::conv_diff_3d(s, s, s, [0.3, 0.2, 0.1], 0.3);
    let s2 = if args.quick { 6 } else { 8 };
    let wide = gen::wide_range_conv_diff(s2, s2, s2, 24, 0x5202);
    let (_, b_smooth) = spla::dense::manufactured_rhs(&smooth);
    let (_, b_wide) = spla::dense::manufactured_rhs(&wide);

    let service = SolverService::with_defaults();
    let smooth_info = service
        .register_csr("smooth", &smooth, PrecondSpec::Jacobi)
        .expect("register smooth");
    let wide_info = service
        .register_csr("wide", &wide, PrecondSpec::None)
        .expect("register wide");

    // Every fixed ladder rung, the per-block adaptive store, the auto
    // pick, and the escalating adaptive driver. Targets sit at or above
    // each format's accuracy floor so every job converges.
    let job = |op: &str, b: &[f64], basis: BasisSelection, target: f64| {
        let mut spec = JobSpec::new(op, b.to_vec());
        spec.basis = basis;
        spec.opts.target_rrn = target;
        spec.opts.record_history = true;
        if op == "wide" {
            spec.opts.restart = 30;
            spec.opts.max_iters = 1200;
        }
        spec
    };
    let fixed = |name: &str| BasisSelection::Fixed(name.into());
    let specs: Vec<JobSpec> = vec![
        job("smooth", &b_smooth, fixed("frsz2_16"), 1e-2),
        job("smooth", &b_smooth, fixed("frsz2_21"), 1e-3),
        job("smooth", &b_smooth, fixed("frsz2_32"), 1e-6),
        job("smooth", &b_smooth, fixed("float64"), 1e-10),
        job("smooth", &b_smooth, fixed("frsz2_ab"), 1e-6),
        job("smooth", &b_smooth, BasisSelection::Auto, 1e-3),
        job("wide", &b_wide, fixed("float64"), 1e-10),
        job("wide", &b_wide, BasisSelection::Adaptive, 1e-10),
    ];
    let job_fps = |results: &[SolveResult]| -> Vec<String> {
        results.iter().map(|r| fp_solve(r, SolveFp::Job)).collect()
    };

    // The acceptance reference: every job run sequentially on ONE
    // thread. Both batch modes at every thread count must reproduce
    // these fingerprints byte for byte.
    let reference: Vec<String> = specs
        .iter()
        .map(|spec| {
            let r = service.solve(spec).expect("reference solve");
            assert!(
                r.stats.converged,
                "service job on {:?} failed to converge (rrn {:.2e})",
                spec.operator, r.stats.final_rrn
            );
            fp_solve(&r, SolveFp::Job)
        })
        .collect();

    let mut cases = Vec::new();
    let mut telemetry_cycles = 0u64;
    for &threads in &args.threads {
        let mut specs_t = specs.clone();
        for spec in &mut specs_t {
            spec.threads = threads;
        }
        cases.push(run_case(
            "service_sequential",
            threads,
            args.runs,
            || -> Vec<SolveResult> {
                specs_t
                    .iter()
                    .map(|spec| service.solve(spec).expect("solve"))
                    .collect()
            },
            |results, t| {
                let fps = job_fps(&results);
                assert_eq!(
                    fps, reference,
                    "sequential jobs diverged from the 1-thread reference"
                );
                batch_row(&fps, t)
            },
        ));
        // Per-cycle telemetry streams through a channel.
        cases.push(run_case(
            "service_concurrent",
            threads,
            args.runs,
            || {
                let (tx, rx) = std::sync::mpsc::channel();
                let results: Vec<SolveResult> = service
                    .run_batch_streaming(&specs_t, tx)
                    .into_iter()
                    .map(|r| r.expect("batch solve"))
                    .collect();
                (results, rx.try_iter().count() as u64)
            },
            |(results, cycles), t| {
                let fps = job_fps(&results);
                assert_eq!(
                    fps, reference,
                    "concurrent batch diverged from the sequential 1-thread reference"
                );
                telemetry_cycles = cycles;
                batch_row(&fps, t)
            },
        ));
    }

    // Admission control: a budget below the smooth float64 job's
    // reservation rejects that job with a typed error, and leaves the
    // ledger clean for a job that fits.
    let f64_cost = estimated_basis_bytes(
        krylov::basis_format::by_name("float64")
            .expect("float64")
            .as_ref(),
        smooth.rows(),
        GmresOptions::default().restart,
        1,
        1,
    );
    let budgeted = SolverService::new(ServiceConfig {
        basis_budget_bytes: Some(f64_cost - 1),
        admission: AdmissionPolicy::Reject,
    });
    budgeted
        .register_csr("smooth", &smooth, PrecondSpec::Jacobi)
        .expect("register under budget");
    let rejected = match budgeted.solve(&job("smooth", &b_smooth, fixed("float64"), 1e-10)) {
        Err(ServiceError::BudgetExceeded { requested, .. }) => requested,
        other => panic!("expected BudgetExceeded, got {other:?}"),
    };
    let admitted = budgeted
        .solve(&job("smooth", &b_smooth, fixed("frsz2_21"), 1e-3))
        .expect("compressed job fits the budget");
    assert!(admitted.stats.converged);

    Suite {
        config: vec![
            ("jobs", Json::Num(specs.len() as f64)),
            ("operators", Json::Num(2.0)),
            (
                "smooth_matrix",
                Json::Str(format!(
                    "conv_diff_3d {s}^3 ({} rows, {}, jacobi)",
                    smooth_info.rows, smooth_info.sparse_format
                )),
            ),
            (
                "wide_matrix",
                Json::Str(format!(
                    "conv_diff_3d {s2}^3 similarity-scaled, 24 binades ({} rows, {})",
                    wide_info.rows, wide_info.sparse_format
                )),
            ),
            ("telemetry_cycles", Json::Num(telemetry_cycles as f64)),
            ("admission_budget_bytes", Json::Num((f64_cost - 1) as f64)),
            ("admission_rejected_requested", Json::Num(rejected as f64)),
        ],
        cases,
        speedup_case: "service_concurrent",
    }
}

/// The faults cases assert their predicates inside every repetition
/// (the injected fault fired, the solve recovered, the typed error
/// surfaced, the resume is bit-identical, the probe changed no bits),
/// and the suite aborts on any undetected corruption.
const FAULTS_RULES: &[Rule] = &[];

/// The fault-tolerance layer under deterministic injected failures: a
/// basis bit-flip, a Hessenberg NaN, a stagnating format rescued by
/// retry-with-escalation, an injected panic, and a deadline breach
/// resumed from its checkpoint bit-identically, plus the cost of the
/// restart-boundary probe. Every returned solution is judged by an
/// independently recomputed `‖b − Ax‖/‖b‖`.
fn bench_faults(args: &Args) -> Suite {
    use solver_service::{
        BasisBitFlip, BasisSelection, FaultSpec, JobSpec, PrecondSpec, RetryPolicy, ServiceError,
        SolveCheckpoint, SolverService,
    };
    use std::time::Duration;

    let s = if args.quick { 8 } else { 10 };
    let smooth = gen::conv_diff_3d(s, s, s, [0.3, 0.2, 0.1], 0.3);
    let wide = gen::wide_range_conv_diff(6, 6, 6, 24, 0x5202);
    let (_, b_smooth) = spla::dense::manufactured_rhs(&smooth);
    let (_, b_wide) = spla::dense::manufactured_rhs(&wide);

    let service = SolverService::with_defaults();
    service
        .register_csr("smooth", &smooth, PrecondSpec::Jacobi)
        .expect("register smooth");
    service
        .register_csr("wide", &wide, PrecondSpec::None)
        .expect("register wide");

    // The independent judge: a case that claims convergence while this
    // residual misses the target is an UNDETECTED corruption, the
    // failure mode the explicit-residual design rules out.
    let recomputed_rrn = |a: &spla::Csr, b: &[f64], x: &[f64]| -> f64 {
        let mut ax = vec![0.0; b.len()];
        a.spmv(x, &mut ax);
        let num: f64 = b
            .iter()
            .zip(&ax)
            .map(|(bi, axi)| (bi - axi) * (bi - axi))
            .sum::<f64>()
            .sqrt();
        num / b.iter().map(|bi| bi * bi).sum::<f64>().sqrt()
    };
    let misses = |rrn: f64, spec: &JobSpec| u64::from(rrn > spec.opts.target_rrn * 1.0001);
    let base = |op: &str, b: &[f64], format: &str, target: f64| {
        let mut spec = JobSpec::new(op, b.to_vec());
        spec.basis = BasisSelection::Fixed(format.into());
        spec.opts.target_rrn = target;
        spec.opts.restart = if op == "wide" { 30 } else { 10 };
        spec.opts.max_iters = if op == "wide" { 600 } else { 2000 };
        spec.opts.record_history = true;
        spec
    };
    let solution_row = |r: &SolveResult, metrics: Vec<(&'static str, f64)>| Row {
        fingerprint: fp_solve(r, SolveFp::Solution),
        metrics,
        ..Row::default()
    };

    let mut undetected = 0u64;
    let mut retries_to_converge = 0u64;
    let mut checkpoint_bytes = 0u64;
    let mut probe_overhead_pct = 0.0f64;
    let mut cases = Vec::new();
    for &threads in &args.threads {
        let smooth_job = || {
            let mut spec = base("smooth", &b_smooth, "frsz2_21", 1e-8);
            spec.threads = threads;
            spec
        };

        // Basis bit-flip: corruption slows the solve, never fakes a
        // solution.
        let mut spec = smooth_job();
        spec.fault = Some(FaultSpec {
            basis_flip: Some(BasisBitFlip {
                nth_write: 3,
                index: 17,
                bit: 62,
            }),
            ..FaultSpec::default()
        });
        cases.push(run_case(
            "fault_bitflip_detected",
            threads,
            args.runs,
            || {
                let report = service.solve_report(&spec).expect("bitflip job");
                assert!(
                    report.faults_injected >= 1,
                    "the planned bit flip must fire"
                );
                let rrn = recomputed_rrn(&smooth, &b_smooth, &report.result.x);
                if report.result.stats.converged {
                    undetected += misses(rrn, &spec);
                }
                (report, rrn)
            },
            |(report, rrn), _| {
                solution_row(
                    &report.result,
                    vec![
                        ("faults_injected", report.faults_injected as f64),
                        ("recomputed_rrn", rrn),
                        ("undetected_corruptions", 0.0),
                    ],
                )
            },
        ));

        // NaN Hessenberg: the poisoned projection becomes a typed
        // breakdown, and the restart recovers.
        let mut spec = smooth_job();
        spec.fault = Some(FaultSpec {
            nan_hessenberg_at: Some(7),
            ..FaultSpec::default()
        });
        cases.push(run_case(
            "fault_nan_hessenberg_breakdown",
            threads,
            args.runs,
            || {
                let r = service.solve(&spec).expect("nan job");
                assert!(
                    r.stats.breakdowns >= 1,
                    "the injected NaN must be detected as a breakdown"
                );
                assert!(r.stats.converged, "the restart must recover from it");
                let rrn = recomputed_rrn(&smooth, &b_smooth, &r.x);
                undetected += misses(rrn, &spec);
                (r, rrn)
            },
            |(r, rrn), _| {
                solution_row(
                    &r,
                    vec![
                        ("breakdowns", r.stats.breakdowns as f64),
                        ("recomputed_rrn", rrn),
                        ("undetected_corruptions", 0.0),
                    ],
                )
            },
        ));

        // Retry with escalation: frsz2_16 stagnates on the wide-range
        // operator; the ladder walk recovers.
        let mut spec = base("wide", &b_wide, "frsz2_16", 1e-10);
        spec.threads = threads;
        spec.retry = Some(RetryPolicy::quick(3));
        cases.push(run_case(
            "fault_retry_escalation_recovers",
            threads,
            args.runs,
            || {
                let report = service.solve_report(&spec).expect("retry job");
                assert!(report.result.stats.converged, "escalation must recover");
                assert!(report.attempts >= 2, "frsz2_16 cannot reach 1e-10");
                for (k, name) in report.formats_tried.iter().enumerate() {
                    assert_eq!(
                        name, ESCALATION_LADDER[k],
                        "retries must walk the ladder one rung at a time"
                    );
                }
                let rrn = recomputed_rrn(&wide, &b_wide, &report.result.x);
                undetected += misses(rrn, &spec);
                report
            },
            |report, _| {
                let retries = report.attempts as u64 - 1;
                retries_to_converge = retries;
                solution_row(
                    &report.result,
                    vec![
                        ("attempts", report.attempts as f64),
                        ("retries_to_converge", retries as f64),
                    ],
                )
            },
        ));

        // Injected panic: caught at the job boundary as a typed error,
        // then retried at the same rung.
        let mut spec = smooth_job();
        spec.fault = Some(FaultSpec {
            panic_on_attempt: Some(0),
            ..FaultSpec::default()
        });
        match service.solve(&spec) {
            Err(ServiceError::JobPanicked { attempts: 1, .. }) => {}
            other => panic!("expected JobPanicked, got {other:?}"),
        }
        spec.retry = Some(RetryPolicy::quick(1));
        cases.push(run_case(
            "fault_job_panic_isolated",
            threads,
            args.runs,
            || {
                let report = service.solve_report(&spec).expect("retried panic job");
                assert!(report.result.stats.converged);
                assert_eq!(report.attempts, 2, "attempt 0 panics, attempt 1 is clean");
                let rrn = recomputed_rrn(&smooth, &b_smooth, &report.result.x);
                undetected += misses(rrn, &spec);
                report
            },
            |report, _| solution_row(&report.result, vec![("attempts", report.attempts as f64)]),
        ));

        // Deadline + checkpoint + resume: halt at the first boundary,
        // resume bit-identically.
        let plain = smooth_job();
        let reference = service.solve(&plain).expect("reference solve");
        assert!(reference.stats.restarts >= 2, "need several boundaries");
        let reference_fp = fp_solve(&reference, SolveFp::Solution);
        let mut rushed = plain.clone();
        rushed.deadline = Some(Duration::ZERO);
        rushed.fault = Some(FaultSpec {
            sleep_per_boundary_ms: 1,
            ..FaultSpec::default()
        });
        cases.push(run_case(
            "fault_deadline_checkpoint_resume",
            threads,
            args.runs,
            || {
                let err = service.solve(&rushed).expect_err("deadline must fire");
                let ServiceError::DeadlineExceeded { checkpoint, .. } = err else {
                    panic!("expected DeadlineExceeded");
                };
                assert_eq!(checkpoint.restarts, 0, "halted at the entry boundary");
                let bytes = checkpoint.encode(None);
                let restored = SolveCheckpoint::decode(&bytes, None).expect("decode checkpoint");
                let mut resumed = plain.clone();
                resumed.resume = Some(Box::new(restored));
                let r = service.solve(&resumed).expect("resumed solve");
                assert_eq!(
                    fp_solve(&r, SolveFp::Solution),
                    reference_fp,
                    "resume must be bit-identical to the uninterrupted solve"
                );
                (r, bytes.len() as u64)
            },
            |(r, bytes), _| {
                checkpoint_bytes = bytes;
                solution_row(
                    &r,
                    vec![
                        ("checkpoint_bytes", bytes as f64),
                        ("resume_bit_identical", 1.0),
                    ],
                )
            },
        ));

        // Checkpoint overhead: the boundary probe must be a pure
        // spectator, same bits at negligible time. The plain timing is
        // only the baseline of the probed row.
        let name = "fault_checkpoint_overhead";
        let solve = |spec: &JobSpec| service.solve(spec).expect("overhead solve");
        let row = |r: SolveResult, _: &Timing| solution_row(&r, Vec::new());
        let plain_case = run_case(name, threads, args.runs, || solve(&plain), row);
        let plain_min = plain_case.timing.min_ms;
        let mut probed = plain.clone();
        probed.deadline = Some(Duration::from_secs(3600)); // arms the probe, never fires
        let mut case = run_case(name, threads, args.runs, || solve(&probed), row);
        assert_eq!(
            case.row.fingerprint, plain_case.row.fingerprint,
            "the boundary probe must not change bits"
        );
        probe_overhead_pct = (case.timing.min_ms - plain_min) / plain_min * 100.0;
        case.row.metrics = vec![
            ("plain_min_ms", plain_min),
            ("probe_overhead_percent", probe_overhead_pct),
        ];
        cases.push(case);
    }

    assert_eq!(
        undetected, 0,
        "an injected fault produced a false convergence — the explicit-residual \
         detection contract is broken"
    );
    // Every row except the overhead probe's ran one fault class, and a
    // fault case that does not recover aborts the run before its row
    // exists.
    let fault_runs = cases.len() - args.threads.len();
    Suite {
        config: vec![
            (
                "smooth_matrix",
                Json::Str(format!(
                    "conv_diff_3d {s}^3 ({} rows, jacobi)",
                    smooth.rows()
                )),
            ),
            (
                "wide_matrix",
                Json::Str(format!(
                    "conv_diff_3d 6^3 similarity-scaled, 24 binades ({} rows)",
                    wide.rows()
                )),
            ),
            ("fault_runs", Json::Num(fault_runs as f64)),
            ("recovery_success_rate", Json::Num(1.0)),
            ("retries_to_converge", Json::Num(retries_to_converge as f64)),
            ("checkpoint_bytes", Json::Num(checkpoint_bytes as f64)),
            ("probe_overhead_percent", Json::Num(probe_overhead_pct)),
            ("undetected_corruptions", Json::Num(undetected as f64)),
        ],
        cases,
        speedup_case: "fault_bitflip_detected",
    }
}

fn validate_files(files: &[String]) {
    let mut failed = false;
    for path in files {
        let verdict = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read: {e}"))
            .and_then(|text| json::parse(&text).map_err(|e| format!("parse error: {e}")))
            .and_then(|doc| json::validate_bench(&doc).map_err(|e| format!("schema error: {e}")));
        match verdict {
            Ok(n) => println!("{path}: ok ({n} cases)"),
            Err(e) => {
                eprintln!("{path}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// CI guard over *committed* solve documents: every
/// `cb_gmres_adaptive_bidir` case must report at least one escalation
/// and one de-escalation, and its trajectory must actually step up the
/// [`ESCALATION_LADDER`] before stepping back down.
fn check_bidirectional_files(files: &[String]) {
    let rung = |name: &str| -> Option<usize> { ESCALATION_LADDER.iter().position(|&f| f == name) };
    let mut failed = false;
    let mut checked = 0usize;
    for path in files {
        let doc = match std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read: {e}"))
            .and_then(|text| json::parse(&text).map_err(|e| format!("parse error: {e}")))
        {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("{path}: {e}");
                failed = true;
                continue;
            }
        };
        let cases = doc.get("cases").and_then(Json::as_arr).unwrap_or(&[]);
        for case in cases {
            let name = case.get("name").and_then(Json::as_str).unwrap_or("");
            if name != "cb_gmres_adaptive_bidir" {
                continue;
            }
            checked += 1;
            let metric = |key: &str| {
                case.get("metrics")
                    .and_then(|m| m.get(key))
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0)
            };
            if metric("escalations") < 1.0 || metric("de_escalations") < 1.0 {
                eprintln!(
                    "{path}: cb_gmres_adaptive_bidir reports escalations={} \
                     de_escalations={} — the committed trajectory is not bidirectional",
                    metric("escalations"),
                    metric("de_escalations"),
                );
                failed = true;
                continue;
            }
            // The trajectory itself must show an up-step followed by a
            // later down-step on the ladder's rung order.
            let traj: Vec<usize> = case
                .get("format_trajectory")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(|f| f.as_str().and_then(rung))
                .collect();
            let first_up = traj.windows(2).position(|w| w[1] > w[0]);
            let down_after = first_up.map(|up| {
                traj.windows(2)
                    .enumerate()
                    .any(|(i, w)| i > up && w[1] < w[0])
            });
            if down_after != Some(true) {
                eprintln!(
                    "{path}: cb_gmres_adaptive_bidir trajectory {traj:?} (ladder rungs) \
                     never steps down after stepping up"
                );
                failed = true;
            }
        }
    }
    if checked == 0 {
        eprintln!("no cb_gmres_adaptive_bidir case found in {files:?}");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("bidirectional trajectory ok ({checked} case rows)");
}

type SuiteFn = fn(&Args) -> Suite;

/// Every suite, in emission order, with the rules [`check`] enforces.
const SUITES: [(&str, SuiteFn, &[Rule]); 7] = [
    ("spmv", bench_spmv, SPMV_RULES),
    ("codec", bench_codec, CODEC_RULES),
    ("solve", bench_solve, SOLVE_RULES),
    ("service", bench_service, SERVICE_RULES),
    ("block", bench_block, BLOCK_RULES),
    ("sstep", bench_sstep, SSTEP_RULES),
    ("faults", bench_faults, FAULTS_RULES),
];

fn main() {
    let args = parse_args();
    if !args.validate.is_empty() {
        return validate_files(&args.validate);
    }
    if !args.check_bidirectional.is_empty() {
        return check_bidirectional_files(&args.check_bidirectional);
    }

    println!(
        "bench_json: quick={} runs={} threads={:?} (host parallelism {})",
        args.quick,
        args.runs,
        args.threads,
        available_threads()
    );

    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    let mut table_rows: Vec<Vec<String>> = Vec::new();
    for (bench, run, rules) in SUITES {
        let suite = run(&args);
        if let Err(e) = check(bench, &suite.cases, rules) {
            eprintln!("{e}");
            std::process::exit(1);
        }
        for c in &suite.cases {
            let t = &c.timing;
            csv_rows.push(vec![
                bench.to_string(),
                c.name.clone(),
                c.threads.to_string(),
                c.runs.to_string(),
                format!("{:.6}", t.min_ms),
                format!("{:.6}", t.median_ms),
                format!("{:.6}", t.mean_ms),
            ]);
            table_rows.push(vec![
                c.name.clone(),
                c.threads.to_string(),
                report::fmt_g(t.min_ms),
                report::fmt_g(t.median_ms),
                c.row.fingerprint[..8].to_string(),
            ]);
        }
        let doc = emit_doc(bench, args.quick, suite);
        let path = report::write_bench_json(bench, &doc).expect("write json");
        println!("wrote {path}");
        if let Some(s) = doc.get("speedup") {
            println!(
                "  speedup {}x at {} threads (vs {})",
                report::fmt_g(s.get("factor").and_then(Json::as_f64).unwrap_or(0.0)),
                s.get("threads").and_then(Json::as_f64).unwrap_or(0.0),
                s.get("vs").and_then(Json::as_f64).unwrap_or(0.0),
            );
        }
    }
    let csv = report::write_csv(
        "bench_json",
        &[
            "bench",
            "case",
            "threads",
            "runs",
            "min_ms",
            "median_ms",
            "mean_ms",
        ],
        &csv_rows,
    )
    .expect("write csv");
    report::print_table(
        &["case", "threads", "min_ms", "median_ms", "fingerprint"],
        &table_rows,
    );
    println!("(csv: {csv})");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str, threads: usize, fingerprint: &str) -> CaseResult {
        run_case(
            name,
            threads,
            1,
            || (),
            |(), _| Row {
                fingerprint: fingerprint.to_string(),
                metrics: vec![("basis_sweeps", 10.0)],
                converged: Some(true),
                ..Row::default()
            },
        )
    }

    const PAIR: &[Rule] = &[Rule::Same(&["fused", "reference"])];

    #[test]
    fn group_check_accepts_equal_fingerprints() {
        let cases = [
            row("fused", 1, "aa"),
            row("fused", 2, "aa"),
            row("reference", 1, "aa"),
            row("reference", 2, "aa"),
        ];
        assert_eq!(check("t", &cases, PAIR), Ok(()));
    }

    #[test]
    fn group_check_fails_on_a_divergent_fingerprint() {
        let cases = [
            row("fused", 1, "aa"),
            row("fused", 2, "aa"),
            row("reference", 1, "bb"),
            row("reference", 2, "bb"),
        ];
        let err = check("t", &cases, PAIR).unwrap_err();
        assert!(
            err.starts_with("CHECK FAILED in t/reference at 1 threads: fingerprint bb"),
            "{err}"
        );
    }

    #[test]
    fn group_check_fails_on_a_missing_member() {
        let cases = [row("fused", 1, "aa"), row("fused", 2, "aa")];
        let err = check("t", &cases, PAIR).unwrap_err();
        assert!(err.contains("reference produced no rows"), "{err}");
        // A member present at fewer thread counts than the others is
        // missing there too.
        let cases = [
            row("fused", 1, "aa"),
            row("fused", 2, "aa"),
            row("reference", 2, "aa"),
        ];
        let err = check("t", &cases, &[Rule::Same(&["reference", "fused"])]).unwrap_err();
        assert!(err.contains("no row at 1 threads"), "{err}");
    }

    #[test]
    fn every_case_must_agree_with_itself_across_threads() {
        let cases = [row("solo", 1, "aa"), row("solo", 4, "ab")];
        let err = check("t", &cases, &[]).unwrap_err();
        assert!(err.starts_with("DETERMINISM VIOLATION in t/solo"), "{err}");
    }

    #[test]
    fn predicates_fail_on_a_violating_row() {
        let mut stagnated = row("fixed", 1, "aa");
        stagnated.row.converged = Some(false);
        let cases = [stagnated, row("wide", 1, "bb")];
        let verdict = |rule: Rule| check("t", &cases, &[rule]).is_ok();
        assert!(verdict(Rule::Converges(&["fixed"], false)));
        assert!(!verdict(Rule::Converges(&["fixed", "wide"], false)));
        assert!(!verdict(Rule::Metric(
            &["wide"],
            "basis_sweeps",
            Cmp::Lt,
            10.0
        )));
        assert!(verdict(Rule::Metric(
            &["wide"],
            "basis_sweeps",
            Cmp::Eq,
            10.0
        )));
        assert!(!verdict(Rule::Metric(&["wide"], "loo_max", Cmp::Eq, 0.0)));
        assert!(!verdict(Rule::Below(&["wide"], "fixed", "basis_sweeps")));
    }

    #[test]
    fn fingerprint_formulas_are_fnv1a_over_words() {
        // FNV-1a of no input is the offset basis.
        assert_eq!(fnv([]), "cbf29ce484222325");
        assert_eq!(
            fp_f64s(&[1.5, -0.0]),
            fnv([1.5f64.to_bits(), (-0.0f64).to_bits()])
        );
        assert_eq!(
            fnv(byte_words("ab")),
            fnv([u64::from(b'a'), u64::from(b'b')])
        );
    }
}
