//! Per-layer tracing from outside the program.
//!
//! The traced run wraps the public trait at each layer boundary —
//! `spla::SparseMatrix`, `krylov::BasisFormat` (whose stores are
//! `numfmt::ColumnStorage`) and `krylov::Preconditioner` — and
//! accumulates call counts and busy time into one [`Counters`] per solve
//! or job. Nothing is recorded per call beyond two atomic adds; the
//! counters become one [`Span`] when the solve returns, and the spans are
//! written out when the run ends.
//!
//! Busy time is in thread-seconds. Calls the solver issues on its own
//! thread for a whole vector (SpMV, preconditioner apply, column write,
//! column read) hold the whole pool, so their wall time is multiplied by
//! the pool size; chunk kernels (`dots_chunk`, `gemv_chunk`,
//! `read_chunk`, ...) run inside the pool and count their own time. The
//! krylov layer's self time is then `wall · threads − Σ busy`.

use krylov::{BasisFormat, Preconditioner};
use numfmt::ColumnStorage;
use spla::SparseMatrix;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Calls, busy nanoseconds and a work amount (bytes or values) at one
/// boundary. Relaxed atomics: each field is a statistic that publishes
/// no other data, read only after the solve has joined its pool.
#[derive(Default)]
pub struct Probe {
    calls: AtomicU64,
    busy_ns: AtomicU64,
    amount: AtomicU64,
}

impl Probe {
    fn record(&self, start: Instant, weight: u64, amount: u64) {
        let ns = start.elapsed().as_nanos() as u64;
        self.calls.fetch_add(1, Relaxed);
        self.busy_ns.fetch_add(ns * weight, Relaxed);
        self.amount.fetch_add(amount, Relaxed);
    }

    fn snapshot(&self) -> Tally {
        Tally {
            calls: self.calls.load(Relaxed),
            busy_s: self.busy_ns.load(Relaxed) as f64 * 1e-9,
            amount: self.amount.load(Relaxed),
        }
    }
}

/// A [`Probe`] read out after the solve.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub calls: u64,
    pub busy_s: f64,
    pub amount: u64,
}

/// The basis-store boundary of one format; `amount` counts values
/// decoded on the read side and values encoded on the write side.
#[derive(Default)]
pub struct StoreProbes {
    write: Probe,
    dot: Probe,
    gemv: Probe,
    read: Probe,
}

/// Store tallies of one format within one span.
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreTally {
    pub write: Tally,
    pub dot: Tally,
    pub gemv: Tally,
    pub read: Tally,
}

impl StoreTally {
    pub fn decode_busy_s(&self) -> f64 {
        self.dot.busy_s + self.gemv.busy_s + self.read.busy_s
    }

    pub fn values_decoded(&self) -> u64 {
        self.dot.amount + self.gemv.amount + self.read.amount
    }

    pub fn busy_s(&self) -> f64 {
        self.write.busy_s + self.decode_busy_s()
    }
}

/// Counters shared by every wrapper of one solve or job.
pub struct Counters {
    threads: u64,
    spla: Probe,
    precond: Probe,
    stores: Mutex<BTreeMap<String, Arc<StoreProbes>>>,
}

impl Counters {
    pub fn new(threads: usize) -> Arc<Self> {
        Arc::new(Counters {
            threads: threads as u64,
            spla: Probe::default(),
            precond: Probe::default(),
            stores: Mutex::new(BTreeMap::new()),
        })
    }

    fn store(&self, format: &str) -> Arc<StoreProbes> {
        let mut stores = self.stores.lock().expect("store registry lock poisoned");
        Arc::clone(stores.entry(format.to_string()).or_default())
    }

    fn store_tallies(&self) -> BTreeMap<String, StoreTally> {
        let stores = self.stores.lock().expect("store registry lock poisoned");
        stores
            .iter()
            .map(|(name, p)| {
                let t = StoreTally {
                    write: p.write.snapshot(),
                    dot: p.dot.snapshot(),
                    gemv: p.gemv.snapshot(),
                    read: p.read.snapshot(),
                };
                (name.clone(), t)
            })
            .collect()
    }
}

/// `SparseMatrix` wrapper: delegates every method, times the operator
/// applications and charges each its computed traffic
/// (`spmv_bytes()`, with the vector part scaled by the block width or
/// the number of powers).
pub struct TracedMatrix<'a, A: SparseMatrix + ?Sized> {
    pub inner: &'a A,
    pub counters: Arc<Counters>,
}

impl<A: SparseMatrix + ?Sized> SparseMatrix for TracedMatrix<'_, A> {
    fn rows(&self) -> usize {
        self.inner.rows()
    }
    fn cols(&self) -> usize {
        self.inner.cols()
    }
    fn nnz(&self) -> usize {
        self.inner.nnz()
    }
    fn format_name(&self) -> &'static str {
        self.inner.format_name()
    }
    fn storage_bytes(&self) -> usize {
        self.inner.storage_bytes()
    }
    fn for_each_in_row(&self, i: usize, f: &mut dyn FnMut(u32, f64)) {
        self.inner.for_each_in_row(i, f)
    }
    fn spmv(&self, x: &[f64], y: &mut [f64]) {
        let t = Instant::now();
        self.inner.spmv(x, y);
        let bytes = self.inner.spmv_bytes() as u64;
        self.counters.spla.record(t, self.counters.threads, bytes);
    }
    fn spmm_into(&self, x: &[f64], y: &mut [f64], width: usize) {
        let t = Instant::now();
        self.inner.spmm_into(x, y, width);
        let vectors = (self.inner.rows() + self.inner.cols()) * 8 * width;
        let bytes = (self.inner.storage_bytes() + vectors) as u64;
        self.counters.spla.record(t, self.counters.threads, bytes);
    }
    fn spmv_powers_into(&self, x: &[f64], ys: &mut [f64], s: usize) {
        let t = Instant::now();
        self.inner.spmv_powers_into(x, ys, s);
        let bytes = (self.inner.spmv_bytes() * s) as u64;
        self.counters.spla.record(t, self.counters.threads, bytes);
    }
    fn diagonal(&self) -> Vec<f64> {
        self.inner.diagonal()
    }
    fn spmv_bytes(&self) -> usize {
        self.inner.spmv_bytes()
    }
}

/// `Preconditioner` wrapper.
pub struct TracedPrecond<'a, P: Preconditioner + ?Sized> {
    pub inner: &'a P,
    pub counters: Arc<Counters>,
}

impl<P: Preconditioner + ?Sized> Preconditioner for TracedPrecond<'_, P> {
    fn apply(&self, v: &[f64], out: &mut [f64]) {
        let t = Instant::now();
        self.inner.apply(v, out);
        self.counters.precond.record(t, self.counters.threads, 0);
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn is_identity(&self) -> bool {
        self.inner.is_identity()
    }
}

/// `BasisFormat` wrapper whose stores are [`TimingStore`]s.
pub struct TracedFormat {
    pub inner: Box<dyn BasisFormat>,
    pub counters: Arc<Counters>,
}

impl BasisFormat for TracedFormat {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn accuracy_floor(&self) -> f64 {
        self.inner.accuracy_floor()
    }
    fn bits_per_value(&self, rows: usize) -> f64 {
        self.inner.bits_per_value(rows)
    }
    fn max_sstep(&self) -> usize {
        self.inner.max_sstep()
    }
    fn create(&self, rows: usize, cols: usize) -> Box<dyn ColumnStorage> {
        Box::new(TimingStore {
            probes: self.counters.store(&self.inner.name()),
            threads: self.counters.threads,
            inner: self.inner.create(rows, cols),
        })
    }
}

/// A timed `ColumnStorage` that forwards exactly the methods the
/// untraced `Box<dyn ColumnStorage>` forwards. The multi-RHS
/// `dots_many_chunk`/`gemv_many_chunk` are deliberately not forwarded:
/// the boxed store does not forward them either, so on both paths they
/// run the trait defaults over `read_chunk`, which is timed here.
pub struct TimingStore {
    inner: Box<dyn ColumnStorage>,
    probes: Arc<StoreProbes>,
    threads: u64,
}

impl ColumnStorage for TimingStore {
    fn with_shape(_rows: usize, _cols: usize) -> Self {
        panic!("a TimingStore is built by TracedFormat::create")
    }
    fn rows(&self) -> usize {
        self.inner.rows()
    }
    fn cols(&self) -> usize {
        self.inner.cols()
    }
    fn write_column(&mut self, j: usize, data: &[f64]) {
        let t = Instant::now();
        self.inner.write_column(j, data);
        self.probes.write.record(t, self.threads, data.len() as u64);
    }
    fn read_chunk(&self, j: usize, row_start: usize, out: &mut [f64]) {
        let t = Instant::now();
        self.inner.read_chunk(j, row_start, out);
        self.probes.read.record(t, 1, out.len() as u64);
    }
    fn read_column(&self, j: usize, out: &mut [f64]) {
        let t = Instant::now();
        self.inner.read_column(j, out);
        self.probes.read.record(t, self.threads, out.len() as u64);
    }
    fn load(&self, i: usize, j: usize) -> f64 {
        let t = Instant::now();
        let v = self.inner.load(i, j);
        self.probes.read.record(t, self.threads, 1);
        v
    }
    fn chunk_align(&self) -> usize {
        self.inner.chunk_align()
    }
    fn dot_chunk(&self, j: usize, row_start: usize, w: &[f64]) -> f64 {
        let t = Instant::now();
        let v = self.inner.dot_chunk(j, row_start, w);
        self.probes.dot.record(t, 1, w.len() as u64);
        v
    }
    fn axpy_chunk(&self, j: usize, row_start: usize, alpha: f64, w: &mut [f64]) {
        let t = Instant::now();
        self.inner.axpy_chunk(j, row_start, alpha, w);
        self.probes.gemv.record(t, 1, w.len() as u64);
    }
    fn dots_chunk(&self, k: usize, row_start: usize, w: &[f64], out: &mut [f64]) {
        let t = Instant::now();
        self.inner.dots_chunk(k, row_start, w, out);
        self.probes.dot.record(t, 1, (k * w.len()) as u64);
    }
    fn gemv_chunk(&self, k: usize, row_start: usize, alphas: &[f64], w: &mut [f64]) {
        let t = Instant::now();
        self.inner.gemv_chunk(k, row_start, alphas, w);
        self.probes.gemv.record(t, 1, (k * w.len()) as u64);
    }
    fn column_bytes(&self) -> usize {
        self.inner.column_bytes()
    }
    fn bits_per_value(&self) -> f64 {
        self.inner.bits_per_value()
    }
    fn format_name(&self) -> String {
        self.inner.format_name()
    }
}

/// One solve or job of a traced run.
#[derive(Clone, Debug, Default)]
pub struct Span {
    pub id: usize,
    /// What ran: the basis format of a solve, the catalogue entry of a job.
    pub label: String,
    /// How many jobs of the closed loop this span stands for.
    pub weight: f64,
    pub start_s: f64,
    pub end_s: f64,
    pub threads: usize,
    pub spla: Tally,
    pub precond: Tally,
    pub stores: BTreeMap<String, StoreTally>,
    pub iterations: u64,
    pub restarts: u64,
    pub reorthogonalizations: u64,
    pub dot_sweeps: u64,
    pub gemv_sweeps: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    /// Traced minus untraced wall time of the same call.
    pub overhead_s: f64,
}

impl Span {
    /// Close a span: read out `counters` and add up the solver's own
    /// counters of every solve the span covers (the attempts of a retried
    /// job, the right-hand sides of a block job).
    pub fn close(
        label: &str,
        (start_s, end_s): (f64, f64),
        threads: usize,
        counters: &Counters,
        stats: &[&krylov::SolveStats],
    ) -> Span {
        let mut span = Span {
            label: label.to_string(),
            weight: 1.0,
            start_s,
            end_s,
            threads,
            spla: counters.spla.snapshot(),
            precond: counters.precond.snapshot(),
            stores: counters.store_tallies(),
            ..Span::default()
        };
        for st in stats {
            span.iterations += st.iterations as u64;
            span.restarts += st.restarts as u64;
            span.reorthogonalizations += st.reorthogonalizations as u64;
            span.dot_sweeps += st.basis_dot_sweeps;
            span.gemv_sweeps += st.basis_gemv_sweeps;
            span.bytes_read += st.basis_bytes_read;
            span.bytes_written += st.basis_bytes_written;
        }
        span
    }

    pub fn wall_s(&self) -> f64 {
        self.end_s - self.start_s
    }

    /// Thread-seconds of the span not spent inside a traced layer.
    pub fn krylov_self_s(&self) -> f64 {
        let stores: f64 = self.stores.values().map(StoreTally::busy_s).sum();
        self.wall_s() * self.threads as f64 - self.spla.busy_s - self.precond.busy_s - stores
    }

    pub fn to_json(&self) -> String {
        let tally = |t: &Tally| {
            format!(
                "{{\"calls\":{},\"busy_s\":{},\"amount\":{}}}",
                t.calls, t.busy_s, t.amount
            )
        };
        let stores: Vec<String> = self
            .stores
            .iter()
            .map(|(name, s)| {
                format!(
                    "\"{name}\":{{\"write\":{},\"dot\":{},\"gemv\":{},\"read\":{}}}",
                    tally(&s.write),
                    tally(&s.dot),
                    tally(&s.gemv),
                    tally(&s.read)
                )
            })
            .collect();
        format!(
            "{{\"id\":{},\"label\":\"{}\",\"weight\":{},\"start_s\":{},\"end_s\":{},\"threads\":{},\
             \"spla\":{},\"precond\":{},\"stores\":{{{}}},\"iterations\":{},\"restarts\":{},\
             \"reorthogonalizations\":{},\"dot_sweeps\":{},\"gemv_sweeps\":{},\"bytes_read\":{},\
             \"bytes_written\":{},\"krylov_self_s\":{},\"overhead_s\":{}}}",
            self.id,
            self.label,
            self.weight,
            self.start_s,
            self.end_s,
            self.threads,
            tally(&self.spla),
            tally(&self.precond),
            stores.join(","),
            self.iterations,
            self.restarts,
            self.reorthogonalizations,
            self.dot_sweeps,
            self.gemv_sweeps,
            self.bytes_read,
            self.bytes_written,
            self.krylov_self_s(),
            self.overhead_s
        )
    }
}
