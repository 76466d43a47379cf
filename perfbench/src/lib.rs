//! End-to-end and per-layer benchmark of the CLEAN workspace.
//!
//! Three seeded workloads, each driving a different set of crates:
//!
//! * [`online`] — the 25 race-free kernels under full CLEAN (`runtime`,
//!   `sync`, `core`): the paper's Figure 6 traffic.
//! * [`offline`] — replay of generated `CLTR` trace files (`trace`,
//!   `baselines`), touching no online check path.
//! * [`serve_mix`] — a closed loop of requests against an in-process
//!   router and two servers (`serve`).
//!
//! End-to-end metrics come from untraced runs. A traced run records spans
//! around the benchmark's own calls into each layer and reports per-layer
//! metrics, the closure of their self times against the traced wall time,
//! and the tracing overhead.

pub mod catalog;
pub mod gen;
pub mod host;
pub mod json;
pub mod offline;
pub mod online;
pub mod serve_mix;
pub mod span;
pub mod stats;

use span::SpanRecord;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Full set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// What one run of a workload is asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Measured duration in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of an untraced one.
    pub trace: bool,
    /// Scratch directory for this run.
    pub work: PathBuf,
    /// Program worker threads, client threads and connections (each at
    /// most the host's CPU count).
    pub nproc: usize,
}

/// What a workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that failed (transport errors, error replies, retries
    /// exhausted). A wrong output is not a failure: it is in `errors`.
    pub failed: u64,
    /// Output-check violations; any entry makes the run incorrect.
    pub errors: Vec<String>,
    /// End-to-end metric values by name.
    pub e2e: BTreeMap<String, f64>,
    /// Per-layer metric values by name.
    pub layers: BTreeMap<String, f64>,
    /// Extra report fields (sample counts, chosen percentiles, checks).
    pub notes: Vec<(String, json::Json)>,
    /// Spans of the traced run.
    pub spans: Vec<SpanRecord>,
    /// Peak memory of each set-up, in MiB.
    pub setup_peaks: Vec<f64>,
    /// Peak memory of each measured pass, in MiB.
    pub pass_peaks: Vec<f64>,
}

impl Outcome {
    /// Records an output-check violation.
    pub fn error(&mut self, msg: impl Into<String>) {
        self.errors.push(msg.into());
    }

    /// Sets an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64) {
        self.e2e.insert(name.to_string(), value);
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }

    /// Adds a report field.
    pub fn note(&mut self, key: &str, value: impl Into<json::Json>) {
        self.notes.push((key.to_string(), value.into()));
    }

    /// Sets `op_p99_ms` from per-operation latencies in milliseconds,
    /// noting the median, the sample count and the tail percentile taken.
    pub fn op_latency(&mut self, samples_ms: &[f64]) {
        let tail = stats::tail(samples_ms).expect("more than ten operations per run");
        self.e2e("op_p99_ms", tail.value);
        self.note("op_p50_ms", stats::median(samples_ms));
        self.note("op_samples", tail.samples);
        self.note("op_tail_percentile", tail.percentile);
    }

    /// Ends a measured pass: records its peak memory and starts the next.
    pub fn pass_done(&mut self) {
        self.pass_peaks.extend(take_peak());
    }

    /// Sets `peak_rss_mib`: the larger of the median set-up peak and the
    /// median pass peak. Medians of per-phase peaks, rather than one
    /// process-wide maximum, keep a single transient from deciding it.
    pub fn peak_memory(&mut self) {
        let median = |v: &[f64]| if v.is_empty() { 0.0 } else { stats::median(v) };
        let (setup, pass) = (median(&self.setup_peaks), median(&self.pass_peaks));
        self.note("setup_peak_mib", setup);
        self.note("pass_peak_mib", pass);
        let peak = setup.max(pass);
        if peak > 0.0 {
            self.e2e("peak_rss_mib", peak);
        } else {
            self.error("peak memory is not available on this platform");
        }
    }

    /// Sets the traced-run summary: its wall time, the closure of the
    /// per-layer self times, and the tracing overhead: the time of traced
    /// work over the time of the same work untraced, less one.
    pub fn trace_summary(&mut self, wall_s: f64, traced_s: f64, untraced_s: f64) {
        let closure = closure(&self.spans);
        self.layer("bench.traced_wall_s", wall_s);
        self.layer("bench.closure", closure);
        self.layer("bench.trace_overhead", traced_s / untraced_s - 1.0);
        self.note("traced_s", traced_s);
        self.note("untraced_s", untraced_s);
    }
}

/// Share of the root spans' wall time covered by layer spans beneath
/// them: the per-layer self times summed, over the roots' durations.
/// What the roots' own self time holds is the benchmark's glue.
pub fn closure(spans: &[SpanRecord]) -> f64 {
    let selfs = span::self_times(spans);
    let (mut wall, mut attributed) = (0u64, 0u64);
    for s in spans {
        if s.parent.is_none() {
            wall += s.end_ns - s.start_ns;
        } else {
            attributed += selfs[&s.id];
        }
    }
    if wall == 0 {
        0.0
    } else {
        attributed as f64 / wall as f64
    }
}

/// The peak memory since the last call, in MiB, after which the peak is
/// reset; `None` where the platform cannot reset it.
pub fn take_peak() -> Option<f64> {
    let peak = host::peak_rss_mib()?;
    host::reset_peak_rss().then_some(peak)
}

/// Runs `setup` [`SETUPS`] times, returning the median duration in
/// seconds and the last set-up's state (earlier states are dropped
/// before the next set-up starts). Each set-up's peak memory goes to
/// `out`.
pub fn timed_setups<T>(out: &mut Outcome, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        take_peak();
        let t0 = Instant::now();
        let state = setup();
        times.push(t0.elapsed().as_secs_f64());
        out.setup_peaks.extend(take_peak());
        last = Some(state);
    }
    (stats::median(&times), last.expect("at least one set-up"))
}

/// Median of the wall times of `reps` calls of `f`, in seconds.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&times)
}
