//! Seeded input generation. Every input the benchmark feeds the program
//! is derived from the run's seed; nothing is recorded from a live run.

use clean_baselines::{FoundRace, FullRaceKind};
use clean_core::ThreadId;
use clean_trace::TraceEvent;
use clean_workloads::{export_sim_trace, generate_trace, BenchProfile, TraceGenConfig};

/// SplitMix64: derives independent sub-seeds from one seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small seeded generator for benchmark-side choices (op mix, picks).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `stream` of `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(mix(seed, stream))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = mix(self.0, 1);
        self.0
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Threads of every generated trace (the paper's simulated core count).
pub const TRACE_THREADS: usize = 8;

/// Base of the address region that holds appended WAW pairs: above the
/// generator's shared partitions and per-thread stacks.
const WAW_BASE: usize = 1 << 40;

/// The seeded race appended to a generated trace: two unordered writes
/// to one fresh address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeededWaw {
    /// Written address.
    pub addr: usize,
    /// The thread that writes first.
    pub first: ThreadId,
    /// The thread whose later write completes the race.
    pub second: ThreadId,
}

/// A generated trace and the race seeded into it, if any.
#[derive(Debug, Clone)]
pub struct GenTrace {
    /// The serialized events.
    pub events: Vec<TraceEvent>,
    /// The appended WAW pair.
    pub waw: Option<SeededWaw>,
}

/// Generates a profile-shaped, race-free-by-construction trace with
/// `accesses_per_thread` accesses per thread and, when `waw`, appends one
/// unordered write-after-write pair at a fresh seeded address.
pub fn profile_trace(
    profile: &'static BenchProfile,
    seed: u64,
    accesses_per_thread: u64,
    waw: bool,
) -> GenTrace {
    let prog = generate_trace(
        profile,
        &TraceGenConfig {
            threads: TRACE_THREADS,
            accesses_per_thread,
            seed,
        },
    );
    let mut events = export_sim_trace(&prog);
    let waw = waw.then(|| {
        let mut rng = Rng::new(seed, 0x3a3);
        let first = rng.below(TRACE_THREADS as u64) as u16;
        let second =
            (first + 1 + rng.below(TRACE_THREADS as u64 - 1) as u16) % TRACE_THREADS as u16;
        let pair = SeededWaw {
            addr: WAW_BASE + 64 * rng.below(1 << 20) as usize,
            first: ThreadId::new(first),
            second: ThreadId::new(second),
        };
        // Both writes follow every other event of their threads, so no
        // release orders the first before the second.
        for tid in [pair.first, pair.second] {
            events.push(TraceEvent::Write {
                tid,
                addr: pair.addr,
                size: 8,
            });
        }
        pair
    });
    GenTrace { events, waw }
}

/// A race with its thread pair made unordered: which thread of a pair
/// reports the race is not asserted.
pub type RaceKey = (FullRaceKind, usize, u16, u16);

/// Canonical, order-free form of a race set.
pub fn race_keys(races: &[FoundRace]) -> Vec<RaceKey> {
    canonical(
        races
            .iter()
            .map(|r| key(r.kind, r.addr, r.current.raw(), r.previous.raw())),
    )
}

/// One race with its thread pair unordered.
pub fn key(kind: FullRaceKind, addr: usize, a: u16, b: u16) -> RaceKey {
    (kind, addr, a.min(b), a.max(b))
}

/// Sorts and deduplicates race keys.
pub fn canonical(keys: impl Iterator<Item = RaceKey>) -> Vec<RaceKey> {
    let mut keys: Vec<RaceKey> = keys.collect();
    keys.sort_unstable_by_key(|&(kind, addr, a, b)| (kind as u8, addr, a, b));
    keys.dedup();
    keys
}

/// The race set a trace with `waw` seeded into it must report.
pub fn expected_keys(waw: Option<SeededWaw>) -> Vec<RaceKey> {
    waw.map(|w| key(FullRaceKind::Waw, w.addr, w.first.raw(), w.second.raw()))
        .into_iter()
        .collect()
}
