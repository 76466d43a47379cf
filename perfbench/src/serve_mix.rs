//! `serve_mix`: a closed loop of requests against an in-process router
//! in front of two servers.
//!
//! Two client connections, each waiting for its verdict as a CI job does,
//! run a seeded mix: ~70% hot ANALYZE of digests whose verdicts are
//! cached at set-up, ~20% cold SUBMIT+ANALYZE of pre-generated,
//! never-seen, profile-shaped traces, and ~10% duplicate SUBMIT of traces
//! the store holds. The number of requests is fixed by `--seconds` (not
//! by the clock) because every insert rewrites the store's whole index:
//! two builds must do the same work. No hostile frames or stalled
//! connections are sent; those measure timeouts.
//!
//! Checked on every request: each served race set equals the
//! `replay_sharded` truth, and each SUBMIT digest equals `digest_events`
//! of the generated events. Failures (transport errors, error replies,
//! retries exhausted) are counted, not checked.

use crate::gen::{canonical, key, mix, profile_trace, race_keys, RaceKey, Rng};
use crate::offline;
use crate::span::{Span, Tracer};
use crate::{stats, timed_setups, Ctx, Outcome};
use clean_obs::Snapshot;
use clean_serve::client::Client;
use clean_serve::protocol::{Request, Response, WireRace};
use clean_serve::router::{primary_backend, Router, RouterConfig, RouterHandle};
use clean_serve::server::{Server, ServerConfig, ServerHandle};
use clean_trace::{digest_events, encode_trace, replay_sharded, EngineKind, TraceDigest};
use clean_workloads::{simulated_benchmarks, BenchProfile};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Requests per second of `--seconds`: the run's fixed request count.
pub const OPS_PER_SECOND: usize = 500;
/// Traces whose verdicts are cached at set-up (hot ANALYZE, dup SUBMIT).
pub const HOT_TRACES: usize = 16;
/// Accesses per thread of every served trace (~45 KB encoded).
pub const ACCESSES_PER_THREAD: u64 = 1_000;
/// Backends behind the router.
pub const BACKENDS: usize = 2;
/// RETRY_AFTER answers a request may get before it counts as failed.
pub const MAX_RETRIES: usize = 50;
/// Requests per block; traced runs trace every other block.
const BLOCK: usize = 50;
/// Requests per pass (`pass_s`).
pub const PASS: usize = 250;

/// Request classes of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// ANALYZE of a cached hot trace.
    Hot(usize),
    /// SUBMIT+ANALYZE of a never-seen cold trace.
    Cold(usize),
    /// Re-SUBMIT of a hot trace.
    Dup(usize),
}

impl Op {
    fn class(self) -> usize {
        match self {
            Op::Hot(_) => 0,
            Op::Cold(_) => 1,
            Op::Dup(_) => 2,
        }
    }
}

const CLASSES: [&str; 3] = ["hot", "cold", "dup"];
/// Root span name of each class.
const OP_SPANS: [&str; 3] = ["serve.op.hot", "serve.op.cold", "serve.op.dup"];

/// The seeded request sequence: `n` requests in exact 70/20/10
/// hot/cold/dup proportions, shuffled, with cold traces numbered in
/// order of first use. Fixed proportions keep the work of a run the same
/// for every seed.
pub fn op_sequence(seed: u64, n: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed, 0x5e7e);
    let (cold, dup) = (n / 5, n / 10);
    let mut classes: Vec<usize> = (0..n)
        .map(|i| match i {
            i if i < cold => 1,
            i if i < cold + dup => 2,
            _ => 0,
        })
        .collect();
    for i in (1..n).rev() {
        classes.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut next_cold = 0;
    classes
        .into_iter()
        .map(|class| match class {
            1 => {
                next_cold += 1;
                Op::Cold(next_cold - 1)
            }
            2 => Op::Dup(rng.below(HOT_TRACES as u64) as usize),
            _ => Op::Hot(rng.below(HOT_TRACES as u64) as usize),
        })
        .collect()
}

/// One served trace: its encoded bytes, content digest and race truth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServedTrace {
    /// `CLTR` bytes as submitted.
    pub bytes: Vec<u8>,
    /// `digest_events` of the generated events.
    pub digest: TraceDigest,
    /// `replay_sharded` races of the generated events.
    pub truth: Vec<RaceKey>,
}

fn profile_at(i: usize) -> &'static BenchProfile {
    let all: Vec<_> = simulated_benchmarks().collect();
    all[i % all.len()]
}

/// Generates served trace `index` of `stream` for `seed`.
pub fn served_trace(seed: u64, stream: u64, index: usize, shards: usize) -> ServedTrace {
    let sub = mix(mix(seed, stream), index as u64);
    let t = profile_trace(
        profile_at(index),
        sub,
        ACCESSES_PER_THREAD,
        offline::seeded(index),
    );
    ServedTrace {
        bytes: encode_trace(&t.events).expect("encoding into memory cannot fail"),
        digest: digest_events(&t.events),
        truth: race_keys(&replay_sharded(&t.events, EngineKind::Clean, shards)),
    }
}

const HOT_STREAM: u64 = 0x407;
const COLD_STREAM: u64 = 0xc01d;
const PROBE_STREAM: u64 = 0x9b0e;

/// A cold trace, kept on disk until its request so that the benchmark's
/// own inputs do not dominate `peak_rss_mib`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColdTrace {
    /// The `CLTR` file.
    pub path: PathBuf,
    /// Its size.
    pub bytes: u64,
    /// `digest_events` of the generated events.
    pub digest: TraceDigest,
    /// `replay_sharded` races of the generated events.
    pub truth: Vec<RaceKey>,
}

/// The generated corpus: hot and cold traces for the request sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Corpus {
    /// Traces cached at set-up.
    pub hot: Vec<ServedTrace>,
    /// Never-seen traces, one per cold request.
    pub cold: Vec<ColdTrace>,
}

/// `f(0..n)` on `threads` threads, in index order.
fn par_map<T: Send>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let made = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let t = f(i);
                made.lock().expect("corpus lock poisoned").push((i, t));
            });
        }
    });
    let mut made = made.into_inner().expect("corpus lock poisoned");
    made.sort_by_key(|(i, _)| *i);
    made.into_iter().map(|(_, t)| t).collect()
}

/// Generates the corpus for `ops` on `threads` threads, writing the cold
/// traces into `dir`.
pub fn corpus(
    dir: &Path,
    seed: u64,
    ops: &[Op],
    threads: usize,
    shards: usize,
) -> std::io::Result<Corpus> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir)?;
    let cold_count = ops.iter().filter(|o| matches!(o, Op::Cold(_))).count();
    let cold = par_map(cold_count, threads, |i| {
        let t = served_trace(seed, COLD_STREAM, i, shards);
        let path = dir.join(format!("cold-{i:05}.cltr"));
        std::fs::write(&path, &t.bytes).map(|()| ColdTrace {
            path,
            bytes: t.bytes.len() as u64,
            digest: t.digest,
            truth: t.truth,
        })
    });
    Ok(Corpus {
        hot: par_map(HOT_TRACES, threads, |i| {
            served_trace(seed, HOT_STREAM, i, shards)
        }),
        cold: cold.into_iter().collect::<Result<_, _>>()?,
    })
}

/// The router and its backends; dropping it drains and joins them all.
#[derive(Debug)]
pub struct Fleet {
    // Dropped in declaration order: the router before its backends.
    router: RouterHandle,
    servers: Vec<ServerHandle>,
    dirs: Vec<PathBuf>,
}

impl Fleet {
    /// Starts `BACKENDS` peered servers under `root` and a router.
    pub fn start(root: &Path, workers: usize) -> std::io::Result<Fleet> {
        let listeners: Vec<_> = (0..BACKENDS)
            .map(|_| std::net::TcpListener::bind("127.0.0.1:0"))
            .collect::<Result<_, _>>()?;
        let addrs: Vec<String> = listeners
            .iter()
            .map(|l| l.local_addr().map(|a| a.to_string()))
            .collect::<Result<_, _>>()?;
        drop(listeners);
        let dirs: Vec<PathBuf> = (0..BACKENDS)
            .map(|i| root.join(format!("node-{i}")))
            .collect();
        let mut servers = Vec::new();
        for (i, dir) in dirs.iter().enumerate() {
            let peers = addrs.iter().enumerate().filter(|(j, _)| *j != i);
            servers.push(Server::start(
                ServerConfig::new(dir)
                    .addr(addrs[i].clone())
                    .peers(peers.map(|(_, a)| a.clone()).collect())
                    .workers(workers)
                    .shards(workers),
            )?);
        }
        let router = Router::start(RouterConfig::new(addrs))?;
        Ok(Fleet {
            router,
            servers,
            dirs,
        })
    }

    /// The router's address.
    pub fn addr(&self) -> SocketAddr {
        self.router.addr()
    }
}

fn wire_keys(races: &[WireRace]) -> Vec<RaceKey> {
    canonical(
        races
            .iter()
            .map(|r| key(r.kind, r.addr as usize, r.current, r.previous)),
    )
}

/// How a request ended.
#[derive(Debug)]
enum Done {
    Ok,
    /// Transport error, error reply, unexpected reply or retries used up.
    Failed(String),
    /// A reply that contradicts the generated truth.
    Wrong(String),
}

/// Per-run counters of the request loop.
#[derive(Debug, Default)]
struct Tally {
    retries: usize,
    dup_not_dedup: usize,
}

fn analyze(c: &mut Client, digest: TraceDigest, truth: &[RaceKey], tally: &mut Tally) -> Done {
    for _ in 0..=MAX_RETRIES {
        match c.analyze(digest, EngineKind::Clean, true) {
            Ok(Response::Verdict { races, .. }) => {
                let served = wire_keys(&races);
                return if served == truth {
                    Done::Ok
                } else {
                    Done::Wrong(format!("{digest}: served {served:?}, truth {truth:?}"))
                };
            }
            Ok(Response::RetryAfter { millis }) => {
                tally.retries += 1;
                std::thread::sleep(Duration::from_millis(millis.min(100)));
            }
            Ok(other) => return Done::Failed(format!("ANALYZE answered {other:?}")),
            Err(e) => return Done::Failed(format!("ANALYZE: {e}")),
        }
    }
    Done::Failed(format!("ANALYZE {digest}: retries exhausted"))
}

fn submit(
    c: &mut Client,
    bytes: Vec<u8>,
    want: TraceDigest,
    want_dedup: bool,
    tally: &mut Tally,
) -> Done {
    match c.submit(bytes) {
        Ok(Response::Submitted { digest, dedup, .. }) => {
            if digest != want {
                return Done::Wrong(format!("SUBMIT digest {digest}, generated {want}"));
            }
            if want_dedup && !dedup {
                tally.dup_not_dedup += 1;
            }
            Done::Ok
        }
        Ok(other) => Done::Failed(format!("SUBMIT answered {other:?}")),
        Err(e) => Done::Failed(format!("SUBMIT: {e}")),
    }
}

/// The trace bytes a request uploads, read before its clock starts.
fn payload(corpus: &Corpus, op: Op) -> std::io::Result<Vec<u8>> {
    match op {
        Op::Hot(_) => Ok(Vec::new()),
        Op::Cold(i) => std::fs::read(&corpus.cold[i].path),
        Op::Dup(i) => Ok(corpus.hot[i].bytes.clone()),
    }
}

/// Runs one request inside the root span `op`.
fn request(
    c: &mut Client,
    corpus: &Corpus,
    op: Op,
    bytes: Vec<u8>,
    root: &Span<'_>,
    tally: &mut Tally,
) -> Done {
    match op {
        Op::Hot(i) => {
            let t = &corpus.hot[i];
            root.in_child("client.analyze", |_| analyze(c, t.digest, &t.truth, tally))
        }
        Op::Cold(i) => {
            let t = &corpus.cold[i];
            match root.in_child("client.submit", |_| {
                submit(c, bytes, t.digest, false, tally)
            }) {
                Done::Ok => {
                    root.in_child("client.analyze", |_| analyze(c, t.digest, &t.truth, tally))
                }
                other => other,
            }
        }
        Op::Dup(i) => root.in_child("client.submit", |_| {
            submit(c, bytes, corpus.hot[i].digest, true, tally)
        }),
    }
}

/// One finished request.
#[derive(Debug, Clone, Copy)]
struct Sample {
    index: usize,
    class: usize,
    start: Duration,
    end: Duration,
    ok: bool,
}

impl Sample {
    fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// The set-up state of one run.
struct Setup {
    corpus: Corpus,
    fleet: Fleet,
}

fn setup(ctx: &Ctx, ops: &[Op], out_errors: &mut Vec<String>) -> std::io::Result<Setup> {
    let corpus = corpus(
        &ctx.work.join("corpus"),
        ctx.seed,
        ops,
        ctx.nproc,
        ctx.nproc,
    )?;
    let root = ctx.work.join("fleet");
    let _ = std::fs::remove_dir_all(&root);
    let fleet = Fleet::start(&root, ctx.nproc)?;
    let mut c = Client::connect(fleet.addr())?;
    let mut tally = Tally::default();
    for t in &corpus.hot {
        for done in [
            submit(&mut c, t.bytes.clone(), t.digest, false, &mut tally),
            analyze(&mut c, t.digest, &t.truth, &mut tally),
        ] {
            match done {
                Done::Ok => {}
                Done::Failed(e) | Done::Wrong(e) => out_errors.push(format!("seeding: {e}")),
            }
        }
    }
    Ok(Setup { corpus, fleet })
}

/// Runs the request loop: `clients` connections pull requests from the
/// sequence in order; requests in odd blocks are traced when `traced` is
/// given.
fn request_loop(
    addr: SocketAddr,
    corpus: &Corpus,
    ops: &[Op],
    clients: usize,
    traced: Option<&Tracer>,
    out: &mut Outcome,
) -> (Vec<Sample>, f64) {
    let off = Tracer::new(false);
    let next = AtomicUsize::new(0);
    let results = Mutex::new((Vec::with_capacity(ops.len()), Tally::default(), Vec::new()));
    let peaks = Mutex::new(Vec::new());
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| {
                let mut tally = Tally::default();
                let mut samples = Vec::new();
                let mut notes = Vec::new();
                let mut client = Client::connect(addr).map_err(|e| e.to_string());
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&op) = ops.get(index) else { break };
                    let tracer = match traced {
                        Some(t) if (index / BLOCK) % 2 == 1 => t,
                        _ => &off,
                    };
                    let bytes = match payload(corpus, op) {
                        Ok(b) => b,
                        Err(e) => {
                            notes.push((true, format!("cannot read request {index}'s trace: {e}")));
                            continue;
                        }
                    };
                    let start = t0.elapsed();
                    let done = match &mut client {
                        Ok(c) => {
                            let root = tracer.root(OP_SPANS[op.class()], index as u64);
                            let done = request(c, corpus, op, bytes, &root, &mut tally);
                            root.end();
                            done
                        }
                        Err(e) => Done::Failed(format!("connect: {e}")),
                    };
                    let end = t0.elapsed();
                    let ok = matches!(done, Done::Ok);
                    match done {
                        Done::Ok => {}
                        Done::Failed(e) => {
                            notes.push((false, e));
                            // A broken connection is replaced for the next request.
                            client = Client::connect(addr).map_err(|e| e.to_string());
                        }
                        Done::Wrong(e) => notes.push((true, e)),
                    }
                    samples.push(Sample {
                        index,
                        class: op.class(),
                        start,
                        end,
                        ok,
                    });
                    if index % PASS == PASS - 1 {
                        // End of a pass: sample and reset the peak.
                        peaks
                            .lock()
                            .expect("peaks lock poisoned")
                            .extend(crate::take_peak());
                    }
                }
                let mut r = results.lock().expect("results lock poisoned");
                r.0.extend(samples);
                r.1.retries += tally.retries;
                r.1.dup_not_dedup += tally.dup_not_dedup;
                r.2.extend(notes);
            });
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    let (mut samples, tally, notes) = results.into_inner().expect("results lock poisoned");
    out.pass_peaks = peaks.into_inner().expect("peaks lock poisoned");
    samples.sort_by_key(|s| s.index);
    for (wrong, e) in notes {
        if wrong {
            out.error(e);
        } else {
            eprintln!("request failed: {e}");
            out.failed += 1;
        }
    }
    out.attempted += samples.len() as u64;
    out.note("retry_after_answers", tally.retries);
    out.note("dup_submits_not_deduplicated", tally.dup_not_dedup);
    (samples, wall)
}

/// Per-class latency notes and, for the traced run, per-layer metrics.
fn class_latency(samples: &[Sample], out: &mut Outcome, as_layers: bool) {
    for (class, name) in CLASSES.iter().enumerate() {
        let ms: Vec<f64> = samples
            .iter()
            .filter(|s| s.class == class && s.ok)
            .map(Sample::ms)
            .collect();
        if ms.is_empty() {
            continue;
        }
        let p50 = stats::median(&ms);
        let tail = stats::tail(&ms);
        out.note(&format!("{name}_p50_ms"), p50);
        out.note(&format!("{name}_samples"), ms.len());
        if let Some(t) = tail {
            out.note(&format!("{name}_tail_ms"), t.value);
            out.note(&format!("{name}_tail_percentile"), t.percentile);
        }
        if as_layers {
            let (scale, unit) = if class == 0 { (1e3, "us") } else { (1.0, "ms") };
            out.layer(&format!("serve.{name}_p50_{unit}"), p50 * scale);
            out.layer(
                &format!("serve.{name}_p99_{unit}"),
                tail.map_or(p50, |t| t.value) * scale,
            );
            out.layer(&format!("serve.{name}_samples"), ms.len() as f64);
        }
    }
}

/// Median wall time per [`PASS`] completed requests, in seconds.
fn pass_secs(samples: &[Sample]) -> f64 {
    let mut ends: Vec<Duration> = samples.iter().map(|s| s.end).collect();
    ends.sort();
    let blocks: Vec<f64> = ends
        .chunks_exact(PASS)
        .map(|c| c.last().expect("full chunk").as_secs_f64())
        .collect::<Vec<_>>()
        .windows(2)
        .map(|w| w[1] - w[0])
        .collect();
    stats::median(&blocks)
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let n = OPS_PER_SECOND * ctx.seconds as usize;
    let ops = op_sequence(ctx.seed, n);
    let mut seeding_errors = Vec::new();
    let (setup_s, state) = timed_setups(&mut out, || setup(ctx, &ops, &mut seeding_errors));
    out.e2e("setup_s", setup_s);
    for e in seeding_errors {
        out.error(e);
    }
    let state = match state {
        Ok(s) => s,
        Err(e) => {
            out.error(format!("set-up failed: {e}"));
            return out;
        }
    };
    out.note("requests", n);
    out.note("cold_traces", state.corpus.cold.len());
    let cold_bytes: u64 = state.corpus.cold.iter().map(|t| t.bytes).sum();
    out.note(
        "cold_trace_mean_bytes",
        cold_bytes as f64 / state.corpus.cold.len().max(1) as f64,
    );
    let clients = ctx.nproc.min(2);

    if ctx.trace {
        traced(ctx, state, &ops, clients, &mut out);
        return out;
    }
    let (samples, wall) = request_loop(
        state.fleet.addr(),
        &state.corpus,
        &ops,
        clients,
        None,
        &mut out,
    );
    drop(state);
    let all: Vec<f64> = samples.iter().map(Sample::ms).collect();
    out.e2e("pass_s", pass_secs(&samples));
    out.e2e("ops_per_s", samples.len() as f64 / wall);
    out.op_latency(&all);
    class_latency(&samples, &mut out, false);
    out
}

fn p50_us(samples: &[f64]) -> f64 {
    stats::median(samples) * 1e6
}

/// The traced run: the request loop with every other block traced, then
/// layer probes and the end-of-run METRICS counters.
fn traced(ctx: &Ctx, state: Setup, ops: &[Op], clients: usize, out: &mut Outcome) {
    let tracer = Tracer::new(true);
    let addr = state.fleet.addr();
    let (samples, wall) = request_loop(addr, &state.corpus, ops, clients, Some(&tracer), out);
    out.spans = tracer.records();
    let (on, off): (Vec<Sample>, Vec<Sample>) =
        samples.iter().partition(|s| (s.index / BLOCK) % 2 == 1);
    class_latency(&off, out, true);
    out.layer("serve.ops_per_s", samples.len() as f64 / wall);

    // Tracing overhead: mean latency of traced against untraced requests,
    // per class, weighted by the untraced class mix.
    let mean = |v: &[Sample], class: usize| -> Option<f64> {
        let ms: Vec<f64> = v
            .iter()
            .filter(|s| s.class == class && s.ok)
            .map(Sample::ms)
            .collect();
        (!ms.is_empty()).then(|| ms.iter().sum::<f64>() / ms.len() as f64)
    };
    let (mut t_sum, mut u_sum, mut weights) = (0.0, 0.0, 0.0);
    for class in 0..CLASSES.len() {
        let weight = off.iter().filter(|s| s.class == class).count() as f64;
        if let (Some(t), Some(u)) = (mean(&on, class), mean(&off, class)) {
            t_sum += weight * t;
            u_sum += weight * u;
            weights += weight;
        }
    }
    out.trace_summary(wall, t_sum / weights / 1e3, u_sum / weights / 1e3);

    // Hot ANALYZE straight to the primary backend and through the router.
    let backends: Vec<SocketAddr> = state.fleet.servers.iter().map(ServerHandle::addr).collect();
    let direct: Result<Vec<Client>, _> = backends.iter().map(Client::connect).collect();
    let via = Client::connect(addr);
    let (mut direct_s, mut via_s) = (Vec::new(), Vec::new());
    let mut tally = Tally::default();
    match (direct, via) {
        (Ok(mut direct), Ok(mut via)) => {
            for k in 0..400 {
                let t = &state.corpus.hot[k % HOT_TRACES];
                let primary = primary_backend(t.digest, BACKENDS);
                for (client, times) in [
                    (&mut direct[primary], &mut direct_s),
                    (&mut via, &mut via_s),
                ] {
                    let t0 = Instant::now();
                    let done = analyze(client, t.digest, &t.truth, &mut tally);
                    times.push(t0.elapsed().as_secs_f64());
                    match done {
                        Done::Ok => {}
                        Done::Failed(e) => {
                            eprintln!("hot probe failed: {e}");
                            out.failed += 1;
                        }
                        Done::Wrong(e) => out.error(format!("hot probe: {e}")),
                    }
                }
            }
            let (d, v) = (p50_us(&direct_s), p50_us(&via_s));
            out.layer("server.hot_direct_p50_us", d);
            out.layer("router.forward_us", v - d);
        }
        (Err(e), _) | (_, Err(e)) => out.error(format!("hot probe connect: {e}")),
    }

    // METRICS exposition of the whole fleet, through the router.
    match Client::connect(addr).and_then(|mut c| c.metrics()) {
        Ok(text) => match Snapshot::parse(&text) {
            Ok(snap) => fleet_counters(&snap, out),
            Err(e) => out.error(format!("METRICS does not parse: {e}")),
        },
        Err(e) => out.error(format!("METRICS: {e}")),
    }

    // Per-call probes on one fresh cold-sized trace.
    let probe = profile_trace(
        profile_at(1),
        mix(ctx.seed, PROBE_STREAM),
        ACCESSES_PER_THREAD,
        false,
    );
    let bytes = encode_trace(&probe.events).expect("encoding into memory cannot fail");
    let mut buf = Vec::with_capacity(bytes.len() + 64);
    let req = Request::Submit { trace: bytes };
    let mut times = Vec::new();
    for _ in 0..200 {
        buf.clear();
        let t0 = Instant::now();
        req.write(&mut buf)
            .expect("writing into memory cannot fail");
        times.push(t0.elapsed().as_secs_f64());
    }
    out.layer("protocol.encode_us", p50_us(&times));
    let mut times = Vec::new();
    for _ in 0..50 {
        let t0 = Instant::now();
        std::hint::black_box(digest_events(&probe.events));
        times.push(t0.elapsed().as_secs_f64());
    }
    out.layer("trace.digest_us", p50_us(&times));
    let mut times = Vec::new();
    for _ in 0..20 {
        let t0 = Instant::now();
        std::hint::black_box(replay_sharded(&probe.events, EngineKind::Clean, ctx.nproc));
        times.push(t0.elapsed().as_secs_f64());
    }
    out.layer("baselines.cold_replay_ms", stats::median(&times) * 1e3);

    // Store inserts on a standalone copy of a backend's store.
    let node0 = state.fleet.dirs[0].clone();
    let hot = state.corpus.hot.clone();
    drop(state);
    match store_probe(ctx, &node0, &hot) {
        Ok((cold, dup)) => {
            out.layer("store.insert_cold_us", cold);
            out.layer("store.insert_dup_us", dup);
        }
        Err(e) => out.error(format!("store probe: {e}")),
    }
    out.note("traced_requests", on.len());
    out.note("untraced_requests", off.len());
}

fn fleet_counters(snap: &Snapshot, out: &mut Outcome) {
    let total = |name: &str| snap.counter_family_total(name) as f64;
    let (hits, misses) = (total("cache_hits"), total("cache_misses"));
    let (pool_hits, pool_misses) = (total("router_pool_hits"), total("router_pool_misses"));
    for (name, v) in [
        ("cache.hits", hits),
        ("cache.hit_rate", hits / (hits + misses).max(1.0)),
        ("queue.coalesced", total("jobs_coalesced")),
        ("queue.retry_after", total("jobs_rejected")),
        ("store.evictions", total("store_evictions")),
        ("router.forwards", total("forwards")),
        ("router.pool_hits", pool_hits),
        (
            "router.pool_hit_rate",
            pool_hits / (pool_hits + pool_misses).max(1.0),
        ),
        ("peer.fetches", total("fetches")),
    ] {
        out.layer(name, v);
    }
}

/// Median `TraceStore::insert` time, in microseconds, of fresh and of
/// already-held traces on a copy of the store in `node`.
fn store_probe(ctx: &Ctx, node: &Path, hot: &[ServedTrace]) -> std::io::Result<(f64, f64)> {
    let copy = ctx.work.join("store-probe");
    let _ = std::fs::remove_dir_all(&copy);
    std::fs::create_dir_all(&copy)?;
    for entry in std::fs::read_dir(node)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), copy.join(entry.file_name()))?;
        }
    }
    let store = clean_serve::store::TraceStore::open(&copy, 1 << 30)?;
    let (mut cold, mut dup) = (Vec::new(), Vec::new());
    for i in 0..20 {
        let fresh = served_trace(ctx.seed, PROBE_STREAM, i + 1, ctx.nproc);
        for (bytes, times, want_dedup) in [
            (&fresh.bytes, &mut cold, false),
            (&hot[i % hot.len()].bytes, &mut dup, true),
        ] {
            let t0 = Instant::now();
            let stored = store
                .insert(bytes)
                .map_err(|e| std::io::Error::other(e.to_string()))?;
            times.push(t0.elapsed().as_secs_f64());
            if stored.dedup != want_dedup {
                return Err(std::io::Error::other(
                    "store probe: unexpected dedup outcome",
                ));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&copy);
    Ok((p50_us(&cold), p50_us(&dup)))
}
