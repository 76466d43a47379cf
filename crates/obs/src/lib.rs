//! Unified observability for the CLEAN stack.
//!
//! One crate, four pieces, shared by the detector runtime, the serving
//! daemon, the fleet router, and the bench harnesses:
//!
//! - [`Registry`] — a name-keyed metrics registry handing out lock-free
//!   [`Counter`] / [`Gauge`] / [`Hist`] handles. Counters spread over
//!   cache-line-padded per-thread shards (the detector's `StatsShard`
//!   idiom, generalized); registration is mutex-cold, updates are
//!   relaxed atomics.
//! - [`StageSpans`] — knob-gated timing spans over the hot pipeline
//!   stages ([`Stage`]). Off means not constructed: call sites pay one
//!   `Option` branch, nothing else.
//! - [`Journal`] — a bounded ring of notable events (evictions,
//!   failovers, bad frames), exposed as comment lines in the text
//!   exposition.
//! - [`Snapshot`] — plain values rendered to / parsed from the
//!   `CMET v1` text exposition ([`EXPOSITION_HEADER`]), with
//!   [`Snapshot::merge`] and [`Snapshot::with_label`] so a router can
//!   fan out METRICS to its backends and fold the answers under `node`
//!   labels.
//!
//! The canonical log2 latency histogram ([`LogHistogram`]) lives here
//! too, promoted from the soak harness so every layer shares one
//! quantile convention.

#![warn(missing_docs)]

mod hist;
mod journal;
mod registry;
mod snapshot;
mod span;

pub use hist::{LogHistogram, HISTOGRAM_BUCKETS};
pub use journal::{Event, Journal, DEFAULT_JOURNAL_CAP};
pub use registry::{Counter, Gauge, Hist, Registry, DEFAULT_SHARDS};
pub use snapshot::{
    family_total, metric_key, sanitize_label, ParseError, Snapshot, EXPOSITION_HEADER,
};
pub use span::{Span, Stage, StageSpans};

use std::sync::OnceLock;

/// The process-wide registry, for code without a natural owner to hang
/// a registry on (library-level warnings like `plan_stale`). Serving
/// components should own their registry instead and merge this one in
/// at exposition time.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}
