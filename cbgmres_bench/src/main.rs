//! End-to-end and per-layer benchmark of the CB-GMRES stack.
//!
//! ```text
//! cbgmres_bench --workload <solve_cached|solve_dram|service_mixed> \
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints diagnostics as `# ` lines, then one JSON object as the last
//! line of standard output: `correct`, `attempted`, `failed` and
//! `metrics` (end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`). Exits non-zero when any output, fingerprint or regime
//! check fails. See `README.md` for the workloads and what each metric
//! is predicted to respond to.

mod regime;
mod service;
mod solve;
mod trace;

use spla::Csr;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;
use trace::Span;

/// The three basis formats the solve workloads compare: the paper's
/// float64 baseline, the float32 cast of the original CB-GMRES, and the
/// paper's recommended FRSZ2 configuration.
pub const FORMATS: [&str; 3] = ["float64", "float32", "frsz2_21"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .filter(|k| ["workload", "seed", "seconds", "trace"].contains(k))
            .ok_or_else(|| format!("unknown argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(key.to_string(), value);
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("--{k} is required"));
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    Ok(Args {
        workload: get("workload")?.clone(),
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
    })
}

/// Everything a run hands back: counts, failed checks, metrics, notes
/// and (traced runs) spans.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks; any entry makes the run incorrect.
    pub problems: Vec<String>,
    pub metrics: Vec<(String, f64, &'static str)>,
    pub notes: Vec<String>,
    pub spans: Vec<Span>,
    fingerprints: BTreeMap<String, u64>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Keep a closed span, numbered in the order spans arrive.
    pub fn span(&mut self, mut span: Span) {
        span.id = self.spans.len();
        self.spans.push(span);
    }

    /// Record the fingerprint of `key`; every later solve of the same key
    /// (a repetition, or the traced twin) must reproduce it bit for bit.
    pub fn fingerprint(&mut self, key: &str, fp: u64) {
        match self.fingerprints.get(key) {
            None => {
                self.fingerprints.insert(key.to_string(), fp);
            }
            Some(&first) if first != fp => self.problems.push(format!(
                "fingerprint mismatch for {key}: {first:016x} then {fp:016x}"
            )),
            Some(_) => {}
        }
    }

    /// Count one solve or job; `failure` says why it failed its output
    /// check, if it did.
    pub fn outcome(&mut self, what: &str, failure: &Option<String>) {
        self.attempted += 1;
        if let Some(why) = failure {
            self.failed += 1;
            self.problems.push(format!("{what}: {why}"));
        }
    }
}

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// gives one set of inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [-1, 1).
    pub fn next_signed(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (2.0 / (1u64 << 53) as f64) - 1.0
    }
}

/// Phase of the manufactured solution of input stream `stream`.
pub fn seeded_phase(seed: u64, stream: u64) -> f64 {
    Rng::new(seed, stream).next_signed() * std::f64::consts::PI
}

/// An exact solution `x_true[i] = sin(i + phase)` and its right-hand side
/// `b = A x_true`: the §V-B manufactured solution, shifted by a seeded
/// phase. An i.i.d. random `x_true` would need about 30% more iterations
/// on the same operator.
pub fn manufactured(a: &Csr, phase: f64) -> (Vec<f64>, Vec<f64>) {
    let x_true: Vec<f64> = (0..a.cols()).map(|i| (i as f64 + phase).sin()).collect();
    let b = a.mul_vec(&x_true);
    (x_true, b)
}

/// Independent output check: `‖b − Ax‖/‖b‖` recomputed with `spla`, and
/// the relative error against `x_true`. A non-finite `x` ends the run.
pub fn check_solution(a: &Csr, b: &[f64], x: &[f64], x_true: &[f64]) -> (f64, f64) {
    if let Some(i) = x.iter().position(|v| !v.is_finite()) {
        eprintln!("error: non-finite solution entry x[{i}] = {}", x[i]);
        std::process::exit(3);
    }
    let mut r = vec![0.0; b.len()];
    a.spmv(x, &mut r);
    for (ri, bi) in r.iter_mut().zip(b) {
        *ri = bi - *ri;
    }
    let diff: Vec<f64> = x.iter().zip(x_true).map(|(u, v)| u - v).collect();
    let norm = spla::dense::norm2;
    (norm(&r) / norm(b), norm(&diff) / norm(x_true))
}

/// FNV-1a over the iteration count and the bits of `x`.
pub fn fingerprint(iterations: usize, xs: &[&[f64]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let words = std::iter::once(iterations as u64)
        .chain(xs.iter().flat_map(|x| x.iter().map(|v| v.to_bits())));
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Linear-interpolation quantile of unsorted samples (`q` in [0, 1]).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Times the workload's set-up. Set-ups take milliseconds, and such short
/// timings follow the host's fast and slow phases, so a workload repeats
/// its set-up once per measured round as well as before the loop: the
/// repetitions then span the same host phases as the solves, and the
/// fastest of them is reported, as the solve timings are.
pub struct Setup<F> {
    build: F,
    times: Vec<f64>,
}

impl<F> Setup<F> {
    pub fn new(build: F) -> Self {
        Setup {
            build,
            times: Vec::new(),
        }
    }

    /// Build once more and time it.
    pub fn time<T>(&mut self) -> T
    where
        F: FnMut() -> T,
    {
        let t = Instant::now();
        let built = (self.build)();
        self.times.push(t.elapsed().as_secs_f64());
        built
    }

    /// Build `reps` times (at least once) and keep the last result.
    pub fn repeat<T>(&mut self, reps: usize) -> T
    where
        F: FnMut() -> T,
    {
        let mut built = self.time();
        for _ in 1..reps {
            built = self.time();
        }
        built
    }

    pub fn best_s(&self) -> f64 {
        quantile(&self.times, 0.0)
    }

    pub fn count(&self) -> usize {
        self.times.len()
    }
}

/// Service-layer numbers of a traced run (zero where a workload bypasses
/// the service).
#[derive(Default)]
pub struct ServiceLayer {
    pub overhead_p50_s: f64,
    pub overhead_p90_s: f64,
    pub attempts_per_job: f64,
    /// Ladder escalations per job.
    pub escalations: f64,
    pub bytes_in_use_max: f64,
}

/// Per-layer metrics of a traced run: job-weighted means over its spans.
pub fn layer_metrics(report: &mut Report, svc: &ServiceLayer) {
    let spans = &report.spans;
    let mut out = Report::default();
    let mean = |f: &dyn Fn(&Span) -> f64| {
        let w: f64 = spans.iter().map(|s| s.weight).sum();
        let total: f64 = spans.iter().map(|s| s.weight * f(s)).sum();
        if w > 0.0 {
            total / w
        } else {
            0.0
        }
    };
    let spmv_wall = mean(&|s| s.spla.busy_s / s.threads as f64);
    let spmv_bytes = mean(&|s| s.spla.amount as f64);
    out.metric("spla.spmv_calls", mean(&|s| s.spla.calls as f64), "count");
    out.metric("spla.spmv_busy_s", mean(&|s| s.spla.busy_s), "s");
    let gbps = if spmv_wall > 0.0 {
        spmv_bytes / spmv_wall * 1e-9
    } else {
        0.0
    };
    out.metric("spla.spmv_gbps", gbps, "GB/s");

    for f in FORMATS {
        let with: Vec<&Span> = spans.iter().filter(|s| s.stores.contains_key(f)).collect();
        let w: f64 = with
            .iter()
            .map(|s| s.weight)
            .sum::<f64>()
            .max(f64::MIN_POSITIVE);
        let per = |g: &dyn Fn(&trace::StoreTally) -> f64| {
            with.iter().map(|s| s.weight * g(&s.stores[f])).sum::<f64>() / w
        };
        let decode_s = per(&|t| t.decode_busy_s());
        let values = per(&|t| t.values_decoded() as f64);
        out.metric(
            &format!("store.{f}.write_busy_s"),
            per(&|t| t.write.busy_s),
            "s",
        );
        out.metric(
            &format!("store.{f}.dot_busy_s"),
            per(&|t| t.dot.busy_s),
            "s",
        );
        out.metric(
            &format!("store.{f}.gemv_busy_s"),
            per(&|t| t.gemv.busy_s),
            "s",
        );
        out.metric(&format!("store.{f}.values_decoded"), values, "count");
        let ns = if values > 0.0 {
            decode_s / values * 1e9
        } else {
            0.0
        };
        out.metric(&format!("store.{f}.decode_ns_per_value"), ns, "ns");
    }
    out.metric("store.bytes_read", mean(&|s| s.bytes_read as f64), "B");
    out.metric(
        "store.bytes_written",
        mean(&|s| s.bytes_written as f64),
        "B",
    );

    out.metric("krylov.iterations", mean(&|s| s.iterations as f64), "count");
    out.metric("krylov.restarts", mean(&|s| s.restarts as f64), "count");
    let reorth = mean(&|s| s.reorthogonalizations as f64);
    out.metric("krylov.reorthogonalizations", reorth, "count");
    out.metric("krylov.dot_sweeps", mean(&|s| s.dot_sweeps as f64), "count");
    out.metric(
        "krylov.gemv_sweeps",
        mean(&|s| s.gemv_sweeps as f64),
        "count",
    );
    out.metric("krylov.self_s", mean(&Span::krylov_self_s), "s");

    out.metric(
        "precond.apply_calls",
        mean(&|s| s.precond.calls as f64),
        "count",
    );
    out.metric("precond.busy_s", mean(&|s| s.precond.busy_s), "s");

    out.metric("service.overhead_s.p50", svc.overhead_p50_s, "s");
    out.metric("service.overhead_s.p90", svc.overhead_p90_s, "s");
    out.metric("service.attempts_per_job", svc.attempts_per_job, "count");
    out.metric("service.escalations", svc.escalations, "count");
    out.metric("service.bytes_in_use_max", svc.bytes_in_use_max, "B");

    out.metric("trace.overhead_s", mean(&|s| s.overhead_s), "s");
    report.metrics.extend(out.metrics);
}

/// Spans go to `<target dir>/spans/<workload>-<seed>.jsonl`, inside the
/// build directory the runner already owns.
fn write_spans(args: &Args, spans: &[Span]) -> std::io::Result<String> {
    use std::io::Write;
    let exe = std::env::current_exe()?;
    // <target>/release/cbgmres_bench -> <target>/spans
    let target = exe
        .parent()
        .and_then(|p| p.parent())
        .ok_or_else(|| std::io::Error::other("executable has no target directory"))?;
    let dir = target.join("spans");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-{}.jsonl", args.workload, args.seed));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for s in spans {
        writeln!(out, "{}", s.to_json())?;
    }
    out.flush()?;
    Ok(path.display().to_string())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let steal0 = regime::cpu_ticks();
    let mut report = Report::default();
    match args.workload.as_str() {
        "solve_cached" => solve::run(&solve::CACHED, &args, &mut report),
        "solve_dram" => solve::run(&solve::DRAM, &args, &mut report),
        "service_mixed" => service::run(&args, &mut report),
        other => {
            eprintln!("error: unknown workload {other:?}");
            std::process::exit(2);
        }
    }
    if let (Some((s0, t0)), Some((s1, t1))) = (steal0, regime::cpu_ticks()) {
        let (steal, total) = (s1 - s0, (t1 - t0).max(1));
        let share = 100.0 * steal as f64 / total as f64;
        report.note(format!("steal: {steal} of {total} ticks ({share:.2}%)"));
    }
    if args.trace {
        match write_spans(&args, &report.spans) {
            Ok(path) => report.note(format!("spans: {} written to {path}", report.spans.len())),
            Err(e) => report.problems.push(format!("writing spans failed: {e}")),
        }
    }

    for line in &report.notes {
        println!("# {line}");
    }
    for p in &report.problems {
        println!("# FAILED: {p}");
    }
    let correct = report.problems.is_empty();
    let mut metrics = String::new();
    for (i, (name, value, unit)) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.attempted, report.failed
    );
    if !correct {
        std::process::exit(1);
    }
}
