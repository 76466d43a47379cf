//! `online_suite`: every race-free kernel under full CLEAN.
//!
//! One pass runs all 25 `race_free_benchmarks()` kernels at native scale,
//! each on a fresh `CleanRuntime::new(RuntimeConfig::new())` — what a
//! user pays per program run. It is the only workload that drives the
//! online check path, Kendo and the runtime heap.
//!
//! Checked on every run: each kernel returns `Ok` with no race, and its
//! output hash and shared-read, shared-write and sync-op counts are
//! identical on every pass and on every run with the same seed (the
//! paper's determinism guarantee for exception-free runs); every racy
//! variant ends in a race exception. Mismatches of
//! `RuntimeStats::digest`, which also folds in the final deterministic
//! counters, are counted and reported, not failed.

use crate::json::Json;
use crate::span::{Span, Tracer};
use crate::{median_secs, stats, timed_setups, Ctx, Outcome};
use clean_core::StatsSnapshot;
use clean_plan::CompiledPlan;
use clean_runtime::{CleanError, CleanRuntime, RuntimeConfig, RuntimeStats};
use clean_workloads::{
    derive_benchmark_plan, race_free_benchmarks, racy_benchmarks, run_benchmark, BenchProfile,
    KernelParams, Scale,
};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// What must repeat exactly for one kernel: output hash, shared reads,
/// shared writes, sync ops.
pub type KernelRef = (u64, u64, u64, u64);

/// One kernel run's results.
#[derive(Debug, Clone)]
pub struct KernelRun {
    /// Wall time of `CleanRuntime::new` plus `run_benchmark`, in seconds.
    pub secs: f64,
    /// Wall time of `CleanRuntime::new` alone, in seconds.
    pub new_secs: f64,
    /// Output hash, or the error the run ended in.
    pub result: Result<u64, String>,
    /// Whether the runtime recorded a race.
    pub raced: bool,
    /// Execution statistics.
    pub stats: RuntimeStats,
}

impl KernelRun {
    fn reference(&self) -> Option<KernelRef> {
        let hash = *self.result.as_ref().ok()?;
        let s = &self.stats;
        Some((hash, s.shared_reads, s.shared_writes, s.sync_ops))
    }
}

/// Kernel parameters of a run: native scale, `threads` workers, `seed`.
pub fn params(threads: usize, seed: u64) -> KernelParams {
    KernelParams::new()
        .threads(threads)
        .scale(Scale::Native)
        .seed(seed)
}

fn kernels() -> Vec<&'static BenchProfile> {
    race_free_benchmarks().collect()
}

/// Runs one kernel on a fresh runtime built from `cfg`. With `span`, the
/// runtime construction and the kernel run are child spans of `span.0`,
/// the kernel's named `span.1`.
pub fn run_kernel(
    b: &BenchProfile,
    cfg: RuntimeConfig,
    p: &KernelParams,
    span: Option<(&Span<'_>, &str)>,
) -> KernelRun {
    let t0 = Instant::now();
    let rt = match span {
        Some((root, _)) => root.in_child("runtime.new", |_| CleanRuntime::new(cfg)),
        None => CleanRuntime::new(cfg),
    };
    let new_secs = t0.elapsed().as_secs_f64();
    let result = match span {
        Some((root, name)) => root.in_child(name, |_| run_benchmark(b, &rt, p)),
        None => run_benchmark(b, &rt, p),
    };
    KernelRun {
        secs: t0.elapsed().as_secs_f64(),
        new_secs,
        result: result.map_err(|e| e.to_string()),
        raced: rt.first_race().is_some(),
        stats: rt.stats(),
    }
}

/// One pass over every kernel with configuration `cfg(kernel index)`.
fn pass(p: &KernelParams, mut cfg: impl FnMut(usize) -> RuntimeConfig) -> Vec<KernelRun> {
    kernels()
        .iter()
        .enumerate()
        .map(|(i, b)| run_kernel(b, cfg(i), p, None))
        .collect()
}

fn full(_: usize) -> RuntimeConfig {
    RuntimeConfig::new()
}

/// Checks a pass of full CLEAN against the reference; returns the number
/// of `RuntimeStats::digest` mismatches.
fn check_pass(runs: &[KernelRun], refs: &[KernelRef], digests: &[u64], out: &mut Outcome) -> u64 {
    let mut mismatches = 0;
    for ((run, b), (want, digest)) in runs.iter().zip(kernels()).zip(refs.iter().zip(digests)) {
        match (&run.result, run.raced) {
            (Ok(_), false) => {}
            (r, raced) => out.error(format!("{}: {r:?}, raced={raced}", b.name)),
        }
        if run.reference().as_ref() != Some(want) {
            out.error(format!(
                "{}: outputs {:?} differ from the reference {want:?}",
                b.name,
                run.reference()
            ));
        }
        if run.stats.digest() != *digest {
            mismatches += 1;
        }
    }
    mismatches
}

/// Compares this run's references with those of an earlier run with the
/// same seed and thread count, recording them when there is none.
fn check_across_runs(dir: &Path, key: &str, refs: &[KernelRef], out: &mut Outcome) {
    let text: String = kernels()
        .iter()
        .zip(refs)
        .map(|(b, r)| format!("{} {} {} {} {}\n", b.name, r.0, r.1, r.2, r.3))
        .collect();
    let path = dir.join(format!("{key}.txt"));
    match std::fs::read_to_string(&path) {
        Ok(earlier) if earlier != text => out.error(format!(
            "outputs differ from an earlier run with the same seed ({key})"
        )),
        Ok(_) => out.note("same_seed_runs_compared", true),
        Err(_) => {
            let tmp = dir.join(format!("{key}.tmp"));
            let written = std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&tmp, &text))
                .and_then(|()| std::fs::rename(&tmp, &path));
            if let Err(e) = written {
                eprintln!("cannot record the reference outputs: {e}");
            }
            out.note("same_seed_runs_compared", false);
        }
    }
}

/// Every racy variant must end in a race exception.
fn check_racy(p: &KernelParams, out: &mut Outcome) {
    let p = p.racy(true);
    let mut checked = 0u64;
    for b in racy_benchmarks() {
        let rt = CleanRuntime::new(RuntimeConfig::new());
        let r = run_benchmark(b, &rt, &p);
        let raised = matches!(r, Err(CleanError::Race(_)) | Err(CleanError::Poisoned));
        if !raised || rt.first_race().is_none() {
            out.error(format!(
                "racy {} did not end in a race exception: {r:?}",
                b.name
            ));
        }
        checked += 1;
    }
    out.note("racy_variants_raised", checked);
}

fn pass_secs(runs: &[KernelRun]) -> f64 {
    runs.iter().map(|r| r.secs).sum()
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let p = params(ctx.nproc, ctx.seed);

    // Set-up: reference passes that fix each kernel's expected outputs.
    let mut setups = Vec::new();
    let (setup_s, reference) = timed_setups(&mut out, || {
        let runs = pass(&p, full);
        setups.push(runs.iter().map(KernelRun::reference).collect::<Vec<_>>());
        runs
    });
    out.e2e("setup_s", setup_s);
    let refs: Vec<KernelRef> = reference
        .iter()
        .zip(kernels())
        .map(|(r, b)| {
            r.reference().unwrap_or_else(|| {
                out.error(format!("{} failed in set-up: {:?}", b.name, r.result));
                (0, 0, 0, 0)
            })
        })
        .collect();
    if setups.iter().any(|s| {
        s.iter()
            .map(|r| r.unwrap_or_default())
            .ne(refs.iter().copied())
    }) {
        out.error("set-up passes disagree on kernel outputs");
    }
    let digests: Vec<u64> = reference.iter().map(|r| r.stats.digest()).collect();
    check_across_runs(
        &ctx.work.parent().unwrap_or(&ctx.work).join("refs"),
        &format!("online_suite-seed{}-threads{}", ctx.seed, ctx.nproc),
        &refs,
        &mut out,
    );

    let mut mismatches = 0;
    if ctx.trace {
        traced(ctx, &p, &refs, &digests, &mut mismatches, &mut out);
    } else {
        // Measured phase: whole passes until the time is up.
        let (mut passes, mut ops) = (Vec::new(), Vec::new());
        let t0 = Instant::now();
        while passes.len() < 3 || t0.elapsed().as_secs_f64() < ctx.seconds {
            let runs = pass(&p, full);
            mismatches += check_pass(&runs, &refs, &digests, &mut out);
            passes.push(pass_secs(&runs));
            out.pass_done();
            ops.extend(runs.iter().map(|r| r.secs * 1e3));
        }
        let wall = t0.elapsed().as_secs_f64();
        out.attempted = ops.len() as u64;
        out.e2e("pass_s", stats::median(&passes));
        out.e2e("ops_per_s", ops.len() as f64 / wall);
        out.op_latency(&ops);
        out.note(
            "pass_times_s",
            Json::Arr(passes.iter().map(|&p| Json::from(p)).collect()),
        );
    }
    out.note("counter_digest_mismatches", mismatches);
    check_racy(&p, &mut out);
    out
}

/// Adds the detector and runtime counters of one pass.
fn counts(runs: &[KernelRun], out: &mut Outcome) {
    let mut rt = RuntimeStats::default();
    let mut d = StatsSnapshot::default();
    for r in runs {
        let s = &r.stats;
        rt.shared_reads += s.shared_reads;
        rt.shared_writes += s.shared_writes;
        rt.sync_ops += s.sync_ops;
        rt.rollover_resets += s.rollover_resets;
        if let Some(k) = &s.detector {
            d.reads_checked += k.reads_checked;
            d.writes_checked += k.writes_checked;
            d.bytes_checked += k.bytes_checked;
            d.uniform_fast_path += k.uniform_fast_path;
            d.per_byte_slow_path += k.per_byte_slow_path;
            d.epoch_updates += k.epoch_updates;
            d.update_skipped += k.update_skipped;
            d.cas_conflicts += k.cas_conflicts;
            d.filter_hits += k.filter_hits;
            d.plan_elided += k.plan_elided;
        }
    }
    let total = d.total_checked().max(1) as f64;
    for (name, v) in [
        ("runtime.shared_accesses", rt.shared_accesses() as f64),
        ("runtime.sync_ops", rt.sync_ops as f64),
        ("core.reads_checked", d.reads_checked as f64),
        ("core.writes_checked", d.writes_checked as f64),
        ("core.bytes_checked", d.bytes_checked as f64),
        ("core.filter_hits", d.filter_hits as f64),
        ("core.filter_hit_rate", d.filter_hits as f64 / total),
        ("core.uniform_fast_path", d.uniform_fast_path as f64),
        ("core.per_byte_slow_path", d.per_byte_slow_path as f64),
        ("core.fast_path_fraction", d.fast_path_fraction()),
        ("core.cas_conflicts", d.cas_conflicts as f64),
        ("core.epoch_updates", d.epoch_updates as f64),
        ("core.update_skipped", d.update_skipped as f64),
        ("sync.rollover_resets", rt.rollover_resets as f64),
    ] {
        out.layer(name, v);
    }
}

/// The traced run: spans around every `CleanRuntime::new` and
/// `run_benchmark` of full-CLEAN passes, then whole passes with one
/// mechanism or knob changed.
fn traced(
    ctx: &Ctx,
    p: &KernelParams,
    refs: &[KernelRef],
    digests: &[u64],
    mismatches: &mut u64,
    out: &mut Outcome,
) {
    let reps = ((ctx.seconds / 2.0) as usize).clamp(3, 15);
    let names = crate::catalog::kernel_names();
    let span_names: Vec<String> = names.iter().map(|n| format!("online.kernel.{n}")).collect();

    // Untraced and traced full-CLEAN passes, alternating.
    let tracer = Tracer::new(true);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut new_ms = Vec::new();
    let mut first = None;
    for rep in 0..reps {
        let t0 = Instant::now();
        let runs = pass(p, full);
        untraced.push(t0.elapsed().as_secs_f64());
        *mismatches += check_pass(&runs, refs, digests, out);

        let t0 = Instant::now();
        let runs: Vec<KernelRun> = tracer.in_root("online.pass", rep as u64, |root| {
            kernels()
                .iter()
                .zip(&span_names)
                .map(|(b, name)| run_kernel(b, RuntimeConfig::new(), p, Some((root, name))))
                .collect()
        });
        traced.push(t0.elapsed().as_secs_f64());
        new_ms.extend(runs.iter().map(|r| r.new_secs * 1e3));
        *mismatches += check_pass(&runs, refs, digests, out);
        first.get_or_insert(runs);
    }
    out.spans = tracer.records();
    // Per-kernel time from the kernel spans alone (runtime.new excluded).
    let mut kernel_span_ms = vec![Vec::new(); names.len()];
    for s in &out.spans {
        if let Some(i) = span_names.iter().position(|n| *n == s.name) {
            kernel_span_ms[i].push((s.end_ns - s.start_ns) as f64 * 1e-6);
        }
    }
    for (name, samples) in names.iter().zip(&kernel_span_ms) {
        out.layer(&format!("online.kernel_ms.{name}"), stats::median(samples));
    }
    out.layer("runtime.new_ms", stats::median(&new_ms));
    counts(first.as_ref().expect("at least one traced pass"), out);
    out.attempted = (2 * reps * names.len()) as u64;

    // Figure 6 passes and knob ablations: one setting changed each.
    let configs = [
        ("runtime.base_pass_s", RuntimeConfig::baseline()),
        ("sync.detsync_pass_s", RuntimeConfig::new().detection(false)),
        ("core.detect_pass_s", RuntimeConfig::new().det_sync(false)),
        (
            "core.no_filter_pass_s",
            RuntimeConfig::new().write_filter(false),
        ),
        (
            "core.no_page_cache_pass_s",
            RuntimeConfig::new().page_cache(false),
        ),
        (
            "core.no_sharded_stats_pass_s",
            RuntimeConfig::new().sharded_stats(false),
        ),
        (
            "core.no_deferred_stats_pass_s",
            RuntimeConfig::new().deferred_stats(false),
        ),
    ];
    for (name, cfg) in configs {
        let secs = median_secs(reps, || {
            for (r, b) in pass(p, |_| cfg.clone()).iter().zip(kernels()) {
                if r.result.is_err() || r.raced {
                    out.error(format!("{name}: {} ended in {:?}", b.name, r.result));
                }
            }
        });
        out.layer(name, secs);
    }
    // Figure 6 additivity: base + det-sync cost + detection cost against
    // the full-CLEAN pass.
    let layer = |out: &Outcome, name: &str| out.layers.get(name).copied().unwrap_or(0.0);
    let base = layer(out, "runtime.base_pass_s");
    let sum = layer(out, "sync.detsync_pass_s") + layer(out, "core.detect_pass_s") - base;
    out.note("fig6_sum_over_full", sum / stats::median(&untraced));

    // The check plan: derive one per kernel, then run planned passes.
    let t0 = Instant::now();
    let plans: Vec<Option<Arc<CompiledPlan>>> = kernels()
        .iter()
        .map(
            |b| match derive_benchmark_plan(b, RuntimeConfig::new(), p) {
                Ok((plan, _)) => Some(plan),
                Err(e) => {
                    out.error(format!("plan derivation for {} failed: {e}", b.name));
                    None
                }
            },
        )
        .collect();
    out.layer("plan.derive_s", t0.elapsed().as_secs_f64());
    let planned = |i: usize| RuntimeConfig::new().check_plan(plans[i].clone());
    let mut planned_runs = Vec::new();
    let planned_s = median_secs(reps, || planned_runs = pass(p, planned));
    for ((r, b), want) in planned_runs.iter().zip(kernels()).zip(refs) {
        if r.raced || r.reference().as_ref() != Some(want) {
            out.error(format!(
                "planned {}: outputs differ from the unplanned run",
                b.name
            ));
        }
    }
    let elided: u64 = planned_runs
        .iter()
        .filter_map(|r| r.stats.detector.map(|d| d.plan_elided))
        .sum();
    let accesses: u64 = planned_runs.iter().map(|r| r.stats.shared_accesses()).sum();
    out.layer("plan.planned_pass_s", planned_s);
    out.layer("plan.elided_share", elided as f64 / accesses.max(1) as f64);

    out.layer("sync.counter_digest_mismatches", *mismatches as f64);
    let traced = stats::median(&traced);
    out.trace_summary(traced, traced, stats::median(&untraced));
    out.note("reps", reps);
    out.note(
        "kernels",
        Json::Arr(names.iter().map(|n| Json::from(*n)).collect()),
    );
}
