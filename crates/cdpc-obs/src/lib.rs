//! Observability for the CDPC simulation stack.
//!
//! The paper's entire argument rests on *seeing inside* the memory system —
//! Figure 2's MCPI-by-miss-class breakdowns, bus occupancy, hint honor
//! rates. This crate is the machinery that makes those visible while a run
//! unfolds, not just as end-of-run text:
//!
//! * [`probe`] — the [`Probe`](probe::Probe) trait: fine-grained event
//!   callbacks (L2 misses with class, bus transactions, TLB misses,
//!   prefetch issues/drops, page faults, hint lookups, recolorings). Every
//!   method has a no-op default and implementors are chosen by *static*
//!   dispatch, so the disabled path ([`NullProbe`](probe::NullProbe))
//!   compiles away entirely.
//! * [`hist`] — fixed-footprint log-bucketed (HDR-style) histograms for
//!   miss latencies, inter-miss distances, and run-loop batch sizes.
//! * [`attrib`] — the miss-attribution engine:
//!   [`AttributionProbe`](attrib::AttributionProbe) charges every
//!   classified miss to a dense `(array × color × cpu × class)` tensor
//!   whose phase-weighted totals decompose the end-of-run aggregates
//!   exactly, plus per-color occupancy/pressure series.
//! * [`cachestats`] — [`SweepCacheStats`](cachestats::SweepCacheStats)
//!   counters for the sweep memoization layer: cache hits/misses, bypassed
//!   (observed) jobs, and in-sweep dedups.
//! * [`sampler`] — interval metrics: [`Sample`](sampler::Sample) rows of
//!   stall-cycle, miss-class, and bus-occupancy deltas over fixed windows
//!   of simulated cycles, collected into an
//!   [`IntervalSeries`](sampler::IntervalSeries) whose totals sum back to
//!   the end-of-run aggregates exactly.
//! * [`json`] — a small hand-rolled JSON value model, writer, and parser.
//!   crates.io is not reachable from every build environment, so no serde:
//!   this is the entire serialization stack.
//! * [`trace`] — a Chrome-trace-event (Perfetto-loadable) timeline builder:
//!   per-CPU stall lanes plus a bus lane.
//! * [`rng`] — a SplitMix64 PRNG so tests and the repo benchmark need no
//!   external `rand` dependency.
//!
//! The crate depends on nothing (not even other CDPC crates), so any layer
//! of the stack can depend on it without cycles.

pub mod attrib;
pub mod cachestats;
pub mod hist;
pub mod json;
pub mod probe;
pub mod rng;
pub mod sampler;
pub mod trace;

pub use attrib::AttributionProbe;
pub use cachestats::SweepCacheStats;
pub use hist::LogHistogram;
pub use json::JsonValue;
pub use probe::{
    BusKind, CountingProbe, HintOutcome, LineState, MissClassId, NullProbe, PrefetchDropReason,
    Probe, ATTR_OTHER_ARRAY,
};
pub use rng::SplitMix64;
pub use sampler::{IntervalSeries, Sample};
pub use trace::TraceProbe;
