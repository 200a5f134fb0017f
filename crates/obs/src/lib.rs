//! # hp-obs — lightweight observability for the HotPotato stack
//!
//! A dependency-free metrics layer shared by the thermal solvers, the
//! interval engine, the schedulers and the CLI:
//!
//! - [`Registry`] — named monotonic counters, point-in-time gauges,
//!   log-bucketed duration histograms and free-form metadata behind one
//!   interior-mutable handle (`&self` everywhere, poison-tolerant).
//! - [`Histogram`] — one duration histogram, for a hot loop that records
//!   into its own and folds it into a registry before each snapshot.
//! - [`ScopedTimer`] — an RAII guard recording wall-clock time of a
//!   scope into a registry histogram; this is how per-hook scheduler
//!   overhead (the paper's 23.76 µs table) is measured.
//! - [`RunReport`] — the immutable snapshot embedded in
//!   `hp_sim::Metrics` and exported by `hp simulate --report` as an
//!   `hp-report-v1` document, which `hp_sim::codec` writes and reads.
//! - [`json`] — the workspace's one JSON parser, under every document's
//!   decoder.
//!
//! ## Determinism contract (DESIGN.md §10)
//!
//! Counters, gauges, metadata and events are functions of the run
//! configuration and seed: two runs with identical config produce
//! bit-identical blocks. Histograms summarise *wall-clock* durations
//! and are explicitly excluded from that guarantee — compare reports
//! with [`RunReport::without_timings`].

#![forbid(unsafe_code)]

mod error;
pub mod json;
mod registry;
mod report;

pub use error::{ObsError, Result};
pub use registry::{Histogram, Registry, ScopedTimer};
pub use report::{
    CounterEntry, GaugeEntry, HistogramEntry, HistogramSummary, MetaEntry, ReportEvent, RunReport,
    SCHEMA,
};
