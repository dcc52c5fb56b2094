//! Figure 8: iterations to the target, relative to float64 (0 when the
//! target is never reached), for every suite matrix.
//!
//! Reproduction targets: the atmosmod family orders
//! float64 < frsz2_32 < float32 < float16; PR02R shows frsz2_32 at
//! ~3.5x float64; float16 scores 0 on PR02R and StocF-1465; everything
//! else barely differs.

use bench::report::{print_table, write_csv};
use bench::runner::{default_opts, prepare, solve_problem, Cli, PAPER_FORMATS};
use krylov::Identity;

fn main() {
    let mut cli = Cli::parse();
    if cli.max_iters == 20_000 {
        cli.max_iters = 6_000;
    }
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for name in cli.matrices() {
        let p = prepare(name, &cli);
        let opts = default_opts(&p, &cli);
        let mut f64_iters = None;
        let mut cells = Vec::new();
        for format in PAPER_FORMATS {
            let r = solve_problem(&p, &opts, format, &Identity);
            eprintln!(
                "  {name} {format}: {} iterations ({})",
                r.stats.iterations,
                if r.stats.converged {
                    "ok"
                } else {
                    "no convergence"
                }
            );
            if format == "float64" {
                f64_iters = Some(r.stats.iterations);
            }
            cells.push((format, r.stats.converged, r.stats.iterations));
        }
        let base = f64_iters.expect("float64 always runs") as f64;
        let mut row = vec![name.to_string()];
        for (fmt, converged, iters) in cells {
            // Paper convention: 0 when the target is not reached.
            let rel = if converged { iters as f64 / base } else { 0.0 };
            row.push(format!("{rel:.2}"));
            csv.push(vec![
                name.to_string(),
                fmt.to_string(),
                format!("{rel}"),
                iters.to_string(),
                converged.to_string(),
            ]);
        }
        rows.push(row);
    }
    println!("\n=== Fig. 8: iterations relative to float64 (0 = target not reached) ===");
    print_table(
        &["matrix", "float64", "float32", "float16", "frsz2_32"],
        &rows,
    );
    let path = write_csv(
        "fig08_iterations",
        &[
            "matrix",
            "format",
            "relative_iterations",
            "iterations",
            "converged",
        ],
        &csv,
    )
    .expect("write csv");
    println!("(csv: {path})");
}
