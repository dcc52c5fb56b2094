//! Figure 11: end-to-end speedup over float64 storage for every suite
//! matrix (mean over repeated runs, with error bars).
//!
//! Two timings are reported per cell:
//! * the **modeled H100 time** — the solver's measured traffic and
//!   decompression instruction counts through the gpusim roofline
//!   (headline number: this host has no GPU, see DESIGN.md §1), and
//! * the **CPU wall clock** of this host (secondary; a 2-core CPU has
//!   ~10 spare ops per loaded value instead of the H100's ~100, so
//!   decompression overhead that vanishes on the GPU is visible here).
//!
//! Reproduction targets (modeled H100): frsz2_32 beats float32 on the
//! atmosmod group, a bar is removed when the format misses the target
//! (float16 on PR02R/StocF-1465), PR02R drags the frsz2_32 average
//! below float32's, and excluding PR02R the two averages match
//! (paper: 1.16 vs 1.09, 1.16 excluding PR02R).

use bench::model::h100_time;
use bench::report::{mean_std, print_table, write_csv};
use bench::runner::{default_opts, prepare, solve_problem, Cli, PAPER_FORMATS};
use krylov::Identity;

fn main() {
    let mut cli = Cli::parse();
    if cli.max_iters == 20_000 {
        cli.max_iters = 6_000;
    }
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    // speedups per format across matrices, for the averages footer.
    let mut h100_speedups: Vec<(String, String, f64)> = Vec::new();

    for name in cli.matrices() {
        let p = prepare(name, &cli);
        let opts = default_opts(&p, &cli);
        let spmv_bytes = p.matrix.spmv_bytes();
        let n = p.matrix.rows();

        // Reference: float64.
        let mut f64_wall = Vec::new();
        let mut f64_h100 = 0.0;
        for _ in 0..cli.runs {
            let r = solve_problem(&p, &opts, "float64", &Identity);
            f64_wall.push(r.stats.wall_time.as_secs_f64());
            f64_h100 = h100_time("float64", &r.stats, n, spmv_bytes);
        }
        let (f64_mean, _) = mean_std(&f64_wall);

        for format in &PAPER_FORMATS[1..] {
            let mut walls = Vec::new();
            let mut h100 = 0.0;
            let mut converged = true;
            for _ in 0..cli.runs {
                let r = solve_problem(&p, &opts, format, &Identity);
                walls.push(r.stats.wall_time.as_secs_f64());
                h100 = h100_time(format, &r.stats, n, spmv_bytes);
                converged &= r.stats.converged;
            }
            let (w_mean, w_std) = mean_std(&walls);
            // "The entire bar is removed ... if a storage format does not
            // reach the targeted relative residual norm."
            let (h100_speedup, wall_speedup, wall_err) = if converged {
                (
                    f64_h100 / h100,
                    f64_mean / w_mean,
                    w_std * f64_mean / (w_mean * w_mean),
                )
            } else {
                (0.0, 0.0, 0.0)
            };
            eprintln!(
                "  {name} {format}: modeled-H100 speedup {h100_speedup:.2}, wall {wall_speedup:.2}"
            );
            rows.push(vec![
                name.to_string(),
                format.to_string(),
                if converged {
                    format!("{h100_speedup:.2}")
                } else {
                    "-".into()
                },
                if converged {
                    format!("{wall_speedup:.2} ± {wall_err:.2}")
                } else {
                    "-".into()
                },
            ]);
            csv.push(vec![
                name.to_string(),
                format.to_string(),
                format!("{h100_speedup}"),
                format!("{wall_speedup}"),
                format!("{wall_err}"),
                converged.to_string(),
            ]);
            if converged {
                h100_speedups.push((format.to_string(), name.to_string(), h100_speedup));
            }
        }
    }

    println!(
        "\n=== Fig. 11: speedup relative to float64 (runs = {}) ===",
        cli.runs
    );
    print_table(
        &[
            "matrix",
            "format",
            "modeled-H100 speedup",
            "CPU-wall speedup",
        ],
        &rows,
    );
    let path = write_csv(
        "fig11_speedup",
        &[
            "matrix",
            "format",
            "h100_speedup",
            "wall_speedup",
            "wall_std",
            "converged",
        ],
        &csv,
    )
    .expect("write csv");
    println!("(csv: {path})");

    // §VI-B averages (modeled H100).
    for fmt in ["float32", "frsz2_32"] {
        let all: Vec<f64> = h100_speedups
            .iter()
            .filter(|(f, _, _)| f == fmt)
            .map(|&(_, _, s)| s)
            .collect();
        let no_pr02r: Vec<f64> = h100_speedups
            .iter()
            .filter(|(f, m, _)| f == fmt && m != "PR02R")
            .map(|&(_, _, s)| s)
            .collect();
        let (m_all, _) = mean_std(&all);
        let (m_no, _) = mean_std(&no_pr02r);
        println!(
            "average modeled-H100 speedup {fmt}: {m_all:.2} (excl. PR02R: {m_no:.2}) \
             [paper: float32 1.16, frsz2_32 1.09, frsz2_32 excl. PR02R 1.16]"
        );
    }
}
