//! H100 end-to-end time projection for a CB-GMRES solve.
//!
//! The CPU wall clock of this host (2 cores, ~10 compute ops per loaded
//! value) cannot exhibit the paper's performance shape — FRSZ2's whole
//! premise is the H100's ~100:1 compute-to-load ratio (§I). This model
//! projects each solve onto the H100 instead: the solver's measured
//! traffic counters (basis bytes compressed/decompressed, SpMV sweeps,
//! auxiliary vector work) run through the same roofline as the gpusim
//! kernels, with the decompression instruction cost per value *measured*
//! from the simulated kernel of `gpusim::kernels`.

use gpusim::kernels::{stream_base_counters, StreamFormat};
use gpusim::H100_PCIE;
use krylov::SolveStats;
use std::collections::HashMap;
use std::sync::Mutex;
use std::sync::OnceLock;

/// Per-value decompression cost of a storage format, measured once from
/// the simulated streaming kernel.
#[derive(Clone, Copy, Debug)]
struct FormatCost {
    /// Integer + clz operations per value decompressed.
    ops_per_value: f64,
    /// Stored bits per value (incl. block metadata).
    bits_per_value: f64,
}

fn measure(fmt: StreamFormat) -> FormatCost {
    let n = 32 * 256;
    let (c, _) = stream_base_counters(fmt, n);
    FormatCost {
        ops_per_value: (c.int + c.clz) as f64 / n as f64,
        bits_per_value: c.bytes_read as f64 * 8.0 / n as f64,
    }
}

/// Decompression cost of the named format, cached per name.
fn cost_for(format: &str) -> FormatCost {
    static CACHE: OnceLock<Mutex<HashMap<String, FormatCost>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(c) = cache.lock().unwrap().get(format) {
        return *c;
    }
    let fmt = match format {
        "float64" => StreamFormat::AccF64,
        "float32" => StreamFormat::AccF32,
        "float16" | "bfloat16" => StreamFormat::AccF16,
        // An adaptive solve mixes ladder formats across cycles (and the
        // per-block store mixes them across blocks); the byte counters
        // already carry the real traffic, so only the per-value decode
        // cost needs a representative — frsz2_32, the rung/length where
        // these solves spend most decompression work.
        "adaptive" | "adaptive_bidir" | "frsz2_ab" => StreamFormat::Frsz2(32),
        _ => match format.strip_prefix("frsz2_").and_then(|l| l.parse().ok()) {
            Some(bits) => StreamFormat::Frsz2(bits),
            // Round-trip codecs are quality-only in the paper (§V-D);
            // model their traffic as f64 (they are never timed in
            // Fig. 11).
            None => StreamFormat::AccF64,
        },
    };
    let c = measure(fmt);
    cache.lock().unwrap().insert(format.to_string(), c);
    c
}

/// Projected H100 execution time in seconds for one solve.
///
/// `format` is the `--format` name the solve ran with, `n` the problem
/// dimension, `spmv_bytes` the per-SpMV traffic of the operator
/// (values + indices + vectors).
pub fn h100_time(format: &str, stats: &SolveStats, n: usize, spmv_bytes: usize) -> f64 {
    let c = cost_for(format);
    // Memory traffic: compressed basis + SpMV sweeps + the ~6 auxiliary
    // f64 n-vector passes per iteration (w/z/v reads and writes, dots).
    let basis_bytes = (stats.basis_bytes_read + stats.basis_bytes_written) as f64;
    let spmv = stats.spmv_count as f64 * spmv_bytes as f64;
    let aux = stats.iterations as f64 * 6.0 * n as f64 * 8.0;
    let mem_time = (basis_bytes + spmv + aux) / H100_PCIE.mem_bw;
    // Decompression instruction pressure on the integer pipe.
    let values_read = stats.basis_bytes_read as f64 / (c.bits_per_value / 8.0);
    let int_time = c.ops_per_value * values_read / H100_PCIE.int_ops;
    mem_time.max(int_time)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_stats(iterations: usize, basis_read: u64, basis_written: u64) -> SolveStats {
        SolveStats {
            iterations,
            basis_bytes_read: basis_read,
            basis_bytes_written: basis_written,
            spmv_count: iterations as u64,
            ..SolveStats::default()
        }
    }

    #[test]
    fn narrower_storage_is_faster_at_equal_iterations() {
        let n = 100_000usize;
        let spmv_bytes = 10 * n;
        // Same iteration count, traffic proportional to storage width.
        let iters = 300;
        let cols = 50u64; // average columns streamed per iteration
        let t = |format: &str, bits: u64| {
            let per_col = n as u64 * bits / 8;
            let stats = fake_stats(iters, iters as u64 * cols * per_col, iters as u64 * per_col);
            h100_time(format, &stats, n, spmv_bytes)
        };
        let f64t = t("float64", 64);
        let f32t = t("float32", 32);
        let z32t = t("frsz2_32", 33);
        assert!(f32t < f64t, "float32 must beat float64");
        assert!(z32t < f64t, "frsz2_32 must beat float64");
        // frsz2_32 within a few percent of float32 (33 vs 32 bits).
        assert!(
            (z32t - f32t).abs() / f32t < 0.1,
            "frsz2_32 ~ float32: {z32t} vs {f32t}"
        );
    }

    #[test]
    fn iteration_overhead_can_flip_the_ordering() {
        // The Fig. 11 PR02R mechanism: frsz2_32 at 3.5x iterations loses
        // to float64 despite narrower storage.
        let n = 50_000usize;
        let spmv_bytes = 10 * n;
        let cols = 50u64;
        let mk = |iters: usize, bits: u64| {
            let per_col = n as u64 * bits / 8;
            fake_stats(iters, iters as u64 * cols * per_col, iters as u64 * per_col)
        };
        let f64t = h100_time("float64", &mk(400, 64), n, spmv_bytes);
        let z32t = h100_time("frsz2_32", &mk(1400, 33), n, spmv_bytes);
        assert!(z32t > f64t, "3.5x iterations must overwhelm 2x compression");
    }
}
