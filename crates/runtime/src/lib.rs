//! # ivn-runtime — the self-contained runtime layer
//!
//! Everything the rest of the workspace needs that would otherwise come
//! from external crates, implemented in-tree so a clean checkout builds
//! with `cargo build --offline` against an empty registry:
//!
//! * [`rng`] — deterministic pseudo-randomness: a SplitMix64-seeded
//!   Xoshiro256++ generator ([`rng::StdRng`]) behind the small [`rng::Rng`]
//!   trait surface the simulator actually uses (`random::<f64>()`, ranges,
//!   fork-by-stream for per-trial seeding).
//! * [`par`] — a scoped worker-pool `par_map` built on
//!   `std::thread::scope`, plus [`par::ensemble`] which runs Monte-Carlo
//!   trials in parallel with per-trial forked RNG streams so results are
//!   bit-identical at any thread count.
//! * [`pool`] — a persistent work-stealing [`pool::WorkerPool`] (parked
//!   workers, per-worker deques, deterministic chunking) that amortizes
//!   thread spawn for the short dispatches issued by the streaming
//!   sample path, the campaign driver, and the inventory fleet.
//! * [`json`] — a minimal JSON value, emitter and parser for
//!   machine-readable figure output from the bench harness.
//! * [`prop`] — a seeded, shrink-free property-test harness (the
//!   [`props!`] macro) replacing `proptest`.
//! * [`obs`] — pipeline observability: [`span!`] tracing, counters,
//!   gauges and power-of-two histograms behind one global enable flag,
//!   snapshotted into an [`obs::Report`] that serializes through
//!   [`json`]. Off by default and free when off.
//! * [`trace`] — timeline tracing: per-thread lock-free ring buffers of
//!   begin/end/instant/counter events ([`trace_span!`],
//!   [`trace_counter!`], [`trace_instant!`]), exported to Chrome Trace
//!   Event Format JSON for `chrome://tracing` / Perfetto. Same
//!   off-by-default, free-when-off contract as [`obs`]; [`span!`] feeds
//!   both layers from one call site.
//! * [`telemetry`] — the flight recorder: a heartbeat sampler thread
//!   that diffs successive [`obs::Report`] snapshots
//!   ([`obs::Report::delta`]) and streams newline-delimited JSON
//!   heartbeats (seq, counter deltas, derived per-second rates, gauges)
//!   to any `Write` sink while a long run is still in flight.
//!
//! Design notes live in DESIGN.md §"Runtime layer".

pub mod json;
pub mod obs;
pub mod par;
pub mod pool;
pub mod prop;
pub mod rng;
pub mod telemetry;
pub mod trace;
