//! Figure 7: final relative residual norm for every suite matrix under
//! the four storage formats (float64/float32/float16/frsz2_32).
//!
//! Reproduction target: every format reaches the target on every
//! matrix except float16 on PR02R and StocF-1465, where the information
//! loss is too large.

use bench::report::{fmt_g, print_table, write_csv};
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
        for format in PAPER_FORMATS {
            if cli.format.as_deref().is_some_and(|f| f != format) {
                continue;
            }
            let r = solve_problem(&p, &opts, format, &Identity);
            eprintln!(
                "  {name} {format}: rrn {:.2e} ({})",
                r.stats.final_rrn,
                if r.stats.converged {
                    "ok"
                } else {
                    "MISSED TARGET"
                }
            );
            rows.push(vec![
                name.to_string(),
                format.to_string(),
                fmt_g(opts.target_rrn),
                fmt_g(r.stats.final_rrn),
                if r.stats.converged { "yes" } else { "NO" }.to_string(),
            ]);
            csv.push(vec![
                name.to_string(),
                format.to_string(),
                format!("{:e}", opts.target_rrn),
                format!("{:e}", r.stats.final_rrn),
                r.stats.converged.to_string(),
            ]);
        }
    }
    println!("\n=== Fig. 7: final relative residual norms ===");
    print_table(
        &["matrix", "format", "target", "final_rrn", "reached"],
        &rows,
    );
    let path = write_csv(
        "fig07_final_rrn",
        &["matrix", "format", "target", "final_rrn", "converged"],
        &csv,
    )
    .expect("write csv");
    println!("(csv: {path})");
}
