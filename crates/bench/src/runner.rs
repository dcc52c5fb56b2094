//! Shared experiment plumbing: CLI options, problem setup, solve loops.
//!
//! Storage formats are resolved by name through the solver's own
//! registry, [`krylov::basis_format::by_name`] (the paper's names:
//! `float64`, `float32`, `float16`, `frsz2_32`, any `frsz2_<l>`,
//! `frsz2_ab`, every Table II codec), plus `adaptive` and
//! `adaptive_bidir` for the escalating driver.

use krylov::basis_format::{by_name, gmres_dyn};
use krylov::{
    adaptive_gmres, AdaptiveOptions, BlockJacobi, GmresOptions, Identity, Jacobi, Preconditioner,
    SolveResult,
};
use spla::dense::manufactured_rhs;
use spla::suite::{self, SuiteMatrix};
use spla::Csr;

/// The four storage formats of the paper's Figs. 7, 8 and 11.
pub const PAPER_FORMATS: [&str; 4] = ["float64", "float32", "float16", "frsz2_32"];

/// Common command-line options of the experiment binaries.
///
/// `--scale S` linear-dimension scale of the synthetic analogues
/// (default 1.0), `--runs N` repetitions for timing figures, `--matrix
/// NAME` restrict to one matrix, `--format NAME` restrict to one format,
/// `--mtx PATH` load a real MatrixMarket file instead of the analogue,
/// `--max-iters N` iteration cap, `--precond NAME` right preconditioner
/// (`none`/`jacobi`/`block_jacobi`; figures 5 and 9).
#[derive(Clone, Debug)]
pub struct Cli {
    pub scale: f64,
    pub runs: usize,
    pub matrix: Option<String>,
    pub format: Option<String>,
    pub mtx: Option<String>,
    pub max_iters: usize,
    /// Override the stopping target (probe/calibration use).
    pub target: Option<f64>,
    pub precond: Option<String>,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            scale: 1.0,
            runs: 3,
            matrix: None,
            format: None,
            mtx: None,
            max_iters: 20_000,
            target: None,
            precond: None,
        }
    }
}

impl Cli {
    /// Parse `std::env::args`, ignoring unknown flags (each binary may
    /// add its own).
    pub fn parse() -> Cli {
        Cli::parse_from(std::env::args().skip(1).collect())
    }

    /// Parse an explicit argument list (testable).
    pub fn parse_from(args: Vec<String>) -> Cli {
        let mut cli = Cli::default();
        let mut i = 0;
        while i < args.len() {
            let next = args.get(i + 1).cloned();
            let mut took = true;
            match (args[i].as_str(), next) {
                ("--scale", Some(v)) => cli.scale = v.parse().expect("bad --scale"),
                ("--runs", Some(v)) => cli.runs = v.parse().expect("bad --runs"),
                ("--matrix", Some(v)) => cli.matrix = Some(v),
                ("--format", Some(v)) => cli.format = Some(v),
                ("--mtx", Some(v)) => cli.mtx = Some(v),
                ("--max-iters", Some(v)) => cli.max_iters = v.parse().expect("bad --max-iters"),
                ("--target", Some(v)) => cli.target = Some(v.parse().expect("bad --target")),
                ("--precond", Some(v)) => cli.precond = Some(v),
                _ => took = false,
            }
            i += if took { 2 } else { 1 };
        }
        cli
    }

    /// Matrices selected by this invocation.
    pub fn matrices(&self) -> Vec<&'static str> {
        match &self.matrix {
            Some(m) => suite::names().into_iter().filter(|n| *n == m).collect(),
            None => suite::names(),
        }
    }

    /// Formats selected: `--format NAME` overrides the figure's
    /// default series (so e.g. `--format adaptive` runs the adaptive
    /// driver alone against the chosen preconditioner).
    pub fn formats<'a>(&'a self, default: &[&'a str]) -> Vec<&'a str> {
        match &self.format {
            Some(f) => vec![f.as_str()],
            None => default.to_vec(),
        }
    }

    /// Build the `--precond` preconditioner for `matrix` (identity
    /// when the flag is absent).
    pub fn build_precond(&self, matrix: &Csr) -> Box<dyn Preconditioner> {
        let name = self.precond.as_deref().unwrap_or("none");
        precond_by_name(name, matrix).unwrap_or_else(|| panic!("unknown preconditioner {name}"))
    }
}

/// Build the named right preconditioner from the operator: `none`
/// (also `identity`; the paper's §V-C setup), `jacobi` (point Jacobi),
/// `block_jacobi` (dense 4×4 diagonal blocks). Degenerate rows and
/// blocks degrade gracefully through the infallible constructors.
/// Returns `None` for unknown names.
pub fn precond_by_name(name: &str, a: &Csr) -> Option<Box<dyn Preconditioner>> {
    match name {
        "none" | "identity" => Some(Box::new(Identity)),
        "jacobi" => Some(Box::new(Jacobi::new(a))),
        "block_jacobi" => Some(Box::new(BlockJacobi::new(a, 4))),
        _ => None,
    }
}

/// Solve `A x = b` from `x0` under `precond` with the named basis
/// format: a registered format through [`gmres_dyn`], or `adaptive` /
/// `adaptive_bidir`, the escalating driver without / with single-cycle
/// de-escalation. Returns `None` for unknown names.
pub fn solve_named(
    a: &Csr,
    b: &[f64],
    x0: &[f64],
    opts: &GmresOptions,
    format: &str,
    precond: &impl Preconditioner,
) -> Option<SolveResult> {
    let adaptive = |bidirectional: bool| {
        let mut aopts = AdaptiveOptions {
            gmres: opts.clone(),
            ..AdaptiveOptions::default()
        };
        if bidirectional {
            aopts.de_escalate = true;
            aopts.de_escalation_cycles = 1;
        }
        adaptive_gmres(a, b, x0, &aopts, precond)
    };
    match format {
        "adaptive" => Some(adaptive(false)),
        "adaptive_bidir" => Some(adaptive(true)),
        _ => by_name(format).map(|f| gmres_dyn(a, b, x0, opts, precond, f.as_ref())),
    }
}

/// A fully-prepared problem: operator, RHS, expected solution, target.
pub struct Problem {
    pub name: String,
    pub matrix: Csr,
    pub b: Vec<f64>,
    pub x_expected: Vec<f64>,
    pub target_rrn: f64,
}

/// Build a suite problem (or load `--mtx`) with the §V-B deterministic
/// right-hand side.
pub fn prepare(name: &str, cli: &Cli) -> Problem {
    let (matrix, target_rrn) = match &cli.mtx {
        Some(path) => {
            let file =
                std::fs::File::open(path).unwrap_or_else(|e| panic!("cannot open {path}: {e}"));
            let coo = spla::io::read_matrix_market(std::io::BufReader::new(file))
                .unwrap_or_else(|e| panic!("cannot parse {path}: {e}"));
            let t = suite::entry(name).map(|e| e.target_rrn).unwrap_or(1e-10);
            (coo.to_csr(), t)
        }
        None => {
            let SuiteMatrix { entry, matrix } =
                suite::build(name, cli.scale).unwrap_or_else(|| panic!("unknown matrix {name}"));
            // Synthetic analogues use the §V-C-calibrated analogue target;
            // real .mtx inputs use the paper's Table I value.
            let t = suite::analogue_target(name).unwrap_or(entry.target_rrn);
            (matrix, t)
        }
    };
    let (x_expected, b) = manufactured_rhs(&matrix);
    Problem {
        name: name.to_string(),
        matrix,
        b,
        x_expected,
        target_rrn,
    }
}

/// Default solver options for a problem (restart 100, §V-B).
pub fn default_opts(p: &Problem, cli: &Cli) -> GmresOptions {
    GmresOptions {
        restart: 100,
        max_iters: cli.max_iters,
        target_rrn: cli.target.unwrap_or(p.target_rrn),
        record_history: true,
        ..GmresOptions::default()
    }
}

/// Solve `p` from zero with the named format (see [`solve_named`]);
/// panics on an unknown name.
pub fn solve_problem(
    p: &Problem,
    opts: &GmresOptions,
    format: &str,
    precond: &impl Preconditioner,
) -> SolveResult {
    let x0 = vec![0.0; p.matrix.rows()];
    solve_named(&p.matrix, &p.b, &x0, opts, format, precond)
        .unwrap_or_else(|| panic!("unknown format {format}"))
}

/// Run `p` once per named format and collect the results (convergence
/// figures 5/6/9). Every format runs against the *same* `M⁻¹`, so the
/// series differ only in basis storage — the equal-traffic comparison
/// `--precond` asks for.
pub fn convergence_histories(
    p: &Problem,
    opts: &GmresOptions,
    format_names: &[&str],
    precond: &impl Preconditioner,
) -> Vec<(String, SolveResult)> {
    format_names
        .iter()
        .map(|name| {
            let r = solve_problem(p, opts, name, precond);
            eprintln!(
                "  {name}: iters={} converged={} final_rrn={:.2e} bits/value={:.1}",
                r.stats.iterations,
                r.stats.converged,
                r.stats.final_rrn,
                r.stats.basis_bits_per_value,
            );
            (name.to_string(), r)
        })
        .collect()
}

/// Emit residual histories in long CSV form and print the run summary.
///
/// Histories may be empty (`record_history: false`): all per-history
/// columns go through the guarded [`krylov::history_summary`] — this
/// path must never index or `unwrap()` a history point.
pub fn report_histories(csv_name: &str, runs: &[(String, SolveResult)]) {
    let mut rows = Vec::new();
    for (name, r) in runs {
        for h in &r.history {
            rows.push(vec![
                name.clone(),
                h.iteration.to_string(),
                format!("{:.6e}", h.rrn),
                if h.explicit { "explicit" } else { "implicit" }.to_string(),
            ]);
        }
    }
    let path = crate::report::write_csv(csv_name, &["format", "iteration", "rrn", "kind"], &rows)
        .expect("write csv");
    let summary: Vec<Vec<String>> = runs
        .iter()
        .map(|(name, r)| {
            let h = krylov::history_summary(&r.history);
            vec![
                name.clone(),
                r.stats.iterations.to_string(),
                if r.stats.converged { "yes" } else { "NO" }.to_string(),
                format!("{:.2e}", r.stats.final_rrn),
                format!("{:.1}", r.stats.basis_bits_per_value),
                h.implicit_explicit_gap
                    .map_or_else(|| "-".to_string(), |g| format!("{g:.2}")),
            ]
        })
        .collect();
    crate::report::print_table(
        &[
            "format",
            "iterations",
            "converged",
            "final_rrn",
            "bits/value",
            "restart_gap",
        ],
        &summary,
    );
    println!("(history csv: {path})");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_builds_all_suite_matrices() {
        let cli = Cli {
            scale: 0.2,
            ..Cli::default()
        };
        for name in cli.matrices() {
            let p = prepare(name, &cli);
            assert_eq!(p.b.len(), p.matrix.rows(), "{name}");
            assert!(p.target_rrn > 0.0);
        }
    }

    #[test]
    fn cli_matrix_filter() {
        let cli = Cli {
            matrix: Some("cfd2".into()),
            ..Cli::default()
        };
        assert_eq!(cli.matrices(), vec!["cfd2"]);
    }

    #[test]
    fn report_histories_tolerates_disabled_history() {
        // Regression: `record_history: false` produces empty histories;
        // the whole report path (CSV + summary table with the guarded
        // restart-gap column) must not panic on them.
        let cli = Cli {
            scale: 0.15,
            ..Cli::default()
        };
        let p = prepare("atmosmodd", &cli);
        let opts = GmresOptions {
            record_history: false,
            target_rrn: 1e-6,
            max_iters: 300,
            ..GmresOptions::default()
        };
        let r = solve_problem(&p, &opts, "frsz2_32", &Identity);
        assert!(r.history.is_empty());
        report_histories("test_empty_history", &[("frsz2_32".into(), r)]);
        let _ = std::fs::remove_file("results/test_empty_history.csv");
    }

    fn small_problem(a: Csr) -> (Csr, Vec<f64>, Vec<f64>) {
        let (_, b) = manufactured_rhs(&a);
        let x0 = vec![0.0; a.rows()];
        (a, b, x0)
    }

    /// `--format` accepts every registered name and alias plus the two
    /// adaptive drivers, and nothing else.
    #[test]
    fn format_names_resolve_through_the_registry() {
        let (a, b, x0) = small_problem(spla::gen::conv_diff_3d(3, 3, 3, [0.2, 0.1, 0.0], 0.4));
        let opts = GmresOptions {
            target_rrn: 1e-4,
            max_iters: 40,
            restart: 10,
            ..GmresOptions::default()
        };
        let mut accepted: Vec<String> = krylov::basis_format::names();
        accepted.extend(
            [
                "f64", "f32", "f16", "bf16", "frsz2_2", "frsz2_64", "frsz2_27",
            ]
            .map(String::from),
        );
        for name in &accepted {
            let r = solve_named(&a, &b, &x0, &opts, name, &Identity)
                .unwrap_or_else(|| panic!("{name} rejected"));
            let format = by_name(name).unwrap();
            let store = format.create(a.rows(), 2);
            assert_eq!(r.stats.format, store.format_name(), "{name}");
            // The recorded name is the registry's (`sz3_06`, never a
            // codec label such as `sz3_abs_1e-6`), so it resolves again.
            assert_eq!(r.stats.format, format.name(), "{name}");
            assert!(by_name(&r.stats.format).is_some(), "{name}");
        }
        assert!(lossy::registry::names()
            .iter()
            .all(|name| accepted.iter().any(|a| a == name)));
        for name in ["adaptive", "adaptive_bidir"] {
            let r = solve_named(&a, &b, &x0, &opts, name, &Identity).unwrap();
            assert_eq!(r.stats.format_trajectory[0], "frsz2_16", "{name}");
        }
        for name in [
            "frsz2_1", "frsz2_65", "frsz2_99", "frsz2_x", "whatever", "sz3_09", "",
        ] {
            assert!(
                solve_named(&a, &b, &x0, &opts, name, &Identity).is_none(),
                "{name} accepted"
            );
        }
    }

    #[test]
    fn precond_by_name_builds_and_forwards() {
        let a = spla::gen::conv_diff_3d(4, 4, 4, [0.1, 0.0, 0.0], 0.5);
        for (name, reported, identity) in [
            ("none", "none", true),
            ("identity", "none", true),
            ("jacobi", "jacobi", false),
            ("block_jacobi", "block-jacobi", false),
        ] {
            let p = precond_by_name(name, &a).unwrap();
            assert_eq!(p.name(), reported);
            assert_eq!(p.is_identity(), identity, "{name}");
            let v = vec![1.0; a.rows()];
            let mut out = vec![0.0; a.rows()];
            p.apply(&v, &mut out);
            assert!(out.iter().all(|x| x.is_finite()));
        }
        assert!(precond_by_name("ilu", &a).is_none());
    }

    /// The preconditioned path must reach the target in no more
    /// iterations than the identity path on a diagonally-skewed
    /// operator, at the same basis storage rate.
    #[test]
    fn preconditioned_solve_converges_faster() {
        let mut a = spla::gen::conv_diff_3d(6, 6, 6, [0.3, 0.1, 0.0], 0.3);
        let phi: Vec<i32> = (0..a.rows()).map(|i| (i % 7) as i32 - 3).collect();
        spla::gen::apply_similarity_scaling(&mut a, &phi);
        let (a, b, x0) = small_problem(a);
        let opts = GmresOptions {
            target_rrn: 1e-8,
            max_iters: 800,
            restart: 40,
            ..GmresOptions::default()
        };
        let plain = solve_named(&a, &b, &x0, &opts, "frsz2_32", &Identity).unwrap();
        let jac = precond_by_name("jacobi", &a).unwrap();
        let pre = solve_named(&a, &b, &x0, &opts, "frsz2_32", &jac).unwrap();
        assert!(pre.stats.converged, "rrn {}", pre.stats.final_rrn);
        assert!(
            pre.stats.iterations <= plain.stats.iterations,
            "jacobi {} > identity {}",
            pre.stats.iterations,
            plain.stats.iterations
        );
        assert_eq!(
            pre.stats.basis_bits_per_value, plain.stats.basis_bits_per_value,
            "preconditioning must not change basis traffic"
        );
    }

    /// A name resolved through the registry solves bit for bit like
    /// the statically typed store.
    #[test]
    fn solve_by_name_matches_direct_call() {
        let (a, b, x0) = small_problem(spla::gen::conv_diff_3d(6, 6, 6, [0.3, 0.1, 0.0], 0.3));
        let opts = GmresOptions {
            target_rrn: 1e-8,
            max_iters: 500,
            record_history: true,
            ..GmresOptions::default()
        };
        let by_name = solve_named(&a, &b, &x0, &opts, "frsz2_32", &Identity).unwrap();
        let direct = krylov::gmres::<frsz2::Frsz2Store, _, _>(&a, &b, &x0, &opts, &Identity);
        assert_eq!(by_name.stats.iterations, direct.stats.iterations);
        assert_eq!(by_name.history, direct.history);
        assert_eq!(by_name.stats.format, "frsz2_32");
    }

    #[test]
    fn frsz2_ab_solves_with_per_block_rate() {
        let (a, b, x0) = small_problem(spla::gen::wide_range_conv_diff_runs(
            8, 8, 8, 24, 16, 0x5202,
        ));
        let opts = GmresOptions {
            target_rrn: 1e-10,
            max_iters: 1200,
            restart: 30,
            ..GmresOptions::default()
        };
        let r = solve_named(&a, &b, &x0, &opts, "frsz2_ab", &Identity).unwrap();
        assert!(r.stats.converged, "rrn {}", r.stats.final_rrn);
        assert_eq!(r.stats.format, "frsz2_ab");
        assert!(
            r.stats.basis_bits_per_value < 22.0,
            "rate {}",
            r.stats.basis_bits_per_value
        );
    }

    #[test]
    fn adaptive_solves_and_reports_trajectory() {
        let (a, b, x0) = small_problem(spla::gen::conv_diff_3d(6, 6, 6, [0.3, 0.1, 0.0], 0.3));
        let opts = GmresOptions {
            target_rrn: 1e-8,
            max_iters: 800,
            restart: 40,
            ..GmresOptions::default()
        };
        let r = solve_named(&a, &b, &x0, &opts, "adaptive", &Identity).unwrap();
        assert!(r.stats.converged, "rrn {}", r.stats.final_rrn);
        assert!(r.stats.final_rrn <= 1e-8);
        assert_eq!(r.stats.format_trajectory.len(), r.stats.restarts);
        assert_eq!(r.stats.format_trajectory[0], "frsz2_16");
    }

    #[test]
    fn lossy_roundtrip_format_converges() {
        let (a, b, x0) = small_problem(spla::gen::conv_diff_3d(6, 6, 6, [0.2, 0.1, 0.0], 0.4));
        let opts = GmresOptions {
            target_rrn: 1e-6,
            max_iters: 500,
            ..GmresOptions::default()
        };
        let r = solve_named(&a, &b, &x0, &opts, "zfp_fr_32", &Identity).unwrap();
        assert!(
            r.stats.converged,
            "zfp_fr_32 should converge, rrn {}",
            r.stats.final_rrn
        );
    }
}
