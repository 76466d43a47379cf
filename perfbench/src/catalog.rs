//! Every metric the benchmark reports, with its unit, its direction, and
//! — for per-layer metrics — the end-to-end metric and workload it should
//! move. `BENCHMARK.json` lists the same names; a test keeps them equal.

/// One metric definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Def {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// The end-to-end metric and workload this one should move.
    pub moves: &'static str,
}

fn def(name: &str, unit: &'static str, better: &'static str, moves: &'static str) -> Def {
    Def {
        name: name.to_string(),
        unit,
        better,
        moves,
    }
}

/// The end-to-end metrics, reported by every untraced run of every
/// workload. A workload's *operation* is one kernel run (online_suite),
/// one trace-file replay (offline_replay) or one request (serve_mix); a
/// *pass* is all 25 kernels, all trace files, or 250 completed requests.
pub fn end_to_end() -> Vec<Def> {
    vec![
        def("setup_s", "s", "lower", ""),
        def("peak_rss_mib", "MiB", "lower", ""),
        def("pass_s", "s", "lower", ""),
        def("ops_per_s", "1/s", "higher", ""),
        def("op_p99_ms", "ms", "lower", ""),
    ]
}

const ONLINE_PASS: &str = "pass_s@online_suite";
const REPLAY: &str = "pass_s@offline_replay";
const REPLAY_AND_COLD: &str = "pass_s@offline_replay,op_p99_ms@serve_mix";
const SERVE_TAIL: &str = "op_p99_ms@serve_mix";
const SERVE_HOT: &str = "pass_s@serve_mix";
const SERVE_RATE: &str = "ops_per_s@serve_mix";
const EVERY: &str = "every workload";

/// Names of the kernels of one online pass, in run order.
pub fn kernel_names() -> Vec<&'static str> {
    clean_workloads::race_free_benchmarks()
        .map(|b| b.name)
        .collect()
}

/// The per-layer metrics, reported by every traced run. A workload that
/// does not drive a layer reports 0 for that layer's metrics.
pub fn per_layer() -> Vec<Def> {
    let mut v = vec![
        // runtime / sync / core: Figure 6 passes with one mechanism off.
        def("runtime.base_pass_s", "s", "lower", ONLINE_PASS),
        def("sync.detsync_pass_s", "s", "lower", ONLINE_PASS),
        def("core.detect_pass_s", "s", "lower", ONLINE_PASS),
        def("runtime.new_ms", "ms", "lower", ONLINE_PASS),
    ];
    for k in kernel_names() {
        v.push(def(
            &format!("online.kernel_ms.{k}"),
            "ms",
            "lower",
            ONLINE_PASS,
        ));
    }
    for (name, unit, better) in [
        ("runtime.shared_accesses", "count", "lower"),
        ("runtime.sync_ops", "count", "lower"),
        ("core.reads_checked", "count", "lower"),
        ("core.writes_checked", "count", "lower"),
        ("core.bytes_checked", "count", "lower"),
        ("core.filter_hits", "count", "higher"),
        ("core.filter_hit_rate", "share", "higher"),
        ("core.uniform_fast_path", "count", "higher"),
        ("core.per_byte_slow_path", "count", "lower"),
        ("core.fast_path_fraction", "share", "higher"),
        ("core.cas_conflicts", "count", "lower"),
        ("core.epoch_updates", "count", "lower"),
        ("core.update_skipped", "count", "higher"),
        ("sync.rollover_resets", "count", "lower"),
        ("sync.counter_digest_mismatches", "count", "lower"),
        // Knob ablations and the check plan.
        ("core.no_filter_pass_s", "s", "lower"),
        ("core.no_page_cache_pass_s", "s", "lower"),
        ("core.no_sharded_stats_pass_s", "s", "lower"),
        ("core.no_deferred_stats_pass_s", "s", "lower"),
        ("plan.planned_pass_s", "s", "lower"),
        ("plan.derive_s", "s", "lower"),
        ("plan.elided_share", "share", "higher"),
    ] {
        v.push(def(name, unit, better, ONLINE_PASS));
    }
    for (name, unit, better, moves) in [
        // trace and baselines.
        ("trace.decode_s", "s", "lower", REPLAY_AND_COLD),
        ("trace.encode_s", "s", "lower", "setup_s@offline_replay"),
        ("trace.sharded_inmem_s", "s", "lower", REPLAY),
        ("trace.replay_s.decode_workers_1", "s", "lower", REPLAY),
        ("trace.replay_s.decode_workers_nproc", "s", "lower", REPLAY),
        ("trace.events", "count", "lower", REPLAY),
        ("trace.bytes", "bytes", "lower", REPLAY),
        ("trace.bytes_per_event", "bytes", "lower", REPLAY),
        ("replay.batches", "count", "lower", REPLAY),
        ("replay.steals", "count", "lower", REPLAY),
        ("replay.used_table", "bool", "higher", REPLAY),
        ("replay.used_mmap", "bool", "higher", REPLAY),
        ("replay.races", "count", "lower", REPLAY),
        ("baselines.check_seq_s", "s", "lower", REPLAY_AND_COLD),
        ("baselines.cold_replay_ms", "ms", "lower", REPLAY_AND_COLD),
        // serve: per-class latency of the untraced blocks of the mix.
        ("serve.ops_per_s", "1/s", "higher", SERVE_RATE),
        ("serve.hot_p50_us", "us", "lower", SERVE_HOT),
        ("serve.hot_p99_us", "us", "lower", SERVE_TAIL),
        ("serve.cold_p50_ms", "ms", "lower", SERVE_TAIL),
        ("serve.cold_p99_ms", "ms", "lower", SERVE_TAIL),
        ("serve.dup_p50_ms", "ms", "lower", SERVE_TAIL),
        ("serve.dup_p99_ms", "ms", "lower", SERVE_TAIL),
        ("serve.hot_samples", "count", "higher", SERVE_HOT),
        ("serve.cold_samples", "count", "higher", SERVE_TAIL),
        ("serve.dup_samples", "count", "higher", SERVE_TAIL),
        // serve: layer probes.
        ("store.insert_cold_us", "us", "lower", SERVE_TAIL),
        ("store.insert_dup_us", "us", "lower", SERVE_TAIL),
        ("trace.digest_us", "us", "lower", SERVE_TAIL),
        ("server.hot_direct_p50_us", "us", "lower", SERVE_HOT),
        ("router.forward_us", "us", "lower", SERVE_HOT),
        ("protocol.encode_us", "us", "lower", SERVE_TAIL),
        // serve: counters from the end-of-run METRICS exposition.
        ("cache.hits", "count", "higher", SERVE_RATE),
        ("cache.hit_rate", "share", "higher", SERVE_RATE),
        ("queue.coalesced", "count", "higher", SERVE_RATE),
        ("queue.retry_after", "count", "lower", SERVE_RATE),
        ("store.evictions", "count", "lower", SERVE_RATE),
        ("router.forwards", "count", "lower", SERVE_RATE),
        ("router.pool_hits", "count", "higher", SERVE_HOT),
        ("router.pool_hit_rate", "share", "higher", SERVE_HOT),
        ("peer.fetches", "count", "lower", SERVE_RATE),
        // Every workload: failures, closure and tracing overhead.
        ("fail_share", "share", "lower", EVERY),
        ("bench.traced_wall_s", "s", "lower", EVERY),
        ("bench.closure", "share", "higher", EVERY),
        ("bench.trace_overhead", "share", "lower", EVERY),
    ] {
        v.push(def(name, unit, better, moves));
    }
    v
}
