//! # orp-obs — observability for the ORP toolkit
//!
//! A lightweight, **zero-cost-when-disabled** instrumentation layer used
//! by the annealer (`orp-core`) and the network simulator (`orp-netsim`):
//!
//! * [`Recorder`] — the cheap-to-clone handle every instrumented
//!   subsystem accepts. The default ([`Recorder::disabled`]) is a no-op:
//!   each call sites costs one branch on a `None` check, nothing is
//!   allocated, and no time is read.
//! * [`Histogram`] — log-linear value histograms (~3% relative error)
//!   for latencies, utilizations, and queue depths.
//! * monotonic **counters**, named **time series**, and scoped
//!   [`Span`]s measured with a monotonic clock.
//! * [`Journal`] — a fixed-capacity ring buffer of typed [`Event`]s (the
//!   flow-lifecycle / anneal-phase / fault taxonomy of DESIGN.md §4d).
//! * pluggable [`Sink`]s turning a [`Snapshot`] into artifacts:
//!   [`JsonSummary`], [`ChromeTrace`] (load in `chrome://tracing` or
//!   [Perfetto](https://ui.perfetto.dev)), and [`TextProgress`].
//! * [`analyze`] — the latency-attribution engine over recorded
//!   telemetry: critical paths, makespan breakdowns, link hotspots,
//!   span flamegraphs, and two-run trace diffing.
//!
//! Instrumentation must never change results: a [`Recorder`] only
//! *observes* — it holds no RNG, and nothing in the toolkit reads it
//! back. The `obs_equivalence` property suite pins this down by
//! comparing recorded and unrecorded runs bit for bit.
//!
//! ## Example
//!
//! ```
//! use orp_obs::{ChromeTrace, Event, Recorder, Sink};
//!
//! let rec = Recorder::enabled();
//! {
//!     let _span = rec.span("setup");
//!     rec.incr("widgets", 3);
//!     rec.record("latency_ns", 1_250);
//!     rec.emit(Event::Mark { name: "ready", value: 1.0 });
//! }
//! let snap = rec.snapshot().unwrap();
//! assert_eq!(snap.counter("widgets"), Some(3));
//! let trace = ChromeTrace.render(&snap);
//! assert!(trace.contains("traceEvents"));
//! ```

#![warn(missing_docs)]

pub mod analyze;
mod event;
mod histogram;
mod journal;
mod recorder;
mod sink;
mod snapshot;
pub mod stream;

pub use event::{Event, FaultKind, FlowStage};
pub use histogram::{Histogram, HistogramSummary};
pub use journal::{Journal, TimedEvent};
pub use recorder::{atomic_write, ObsConfig, Recorder, Span};
pub use sink::{ChromeTrace, JsonSummary, Sink, TextProgress};
pub use snapshot::{SeriesPoint, Snapshot, SpanRecord};
pub use stream::{
    is_stream, parse_stream, read_stream, render_dashboard, render_stream_report, StreamEvent,
    StreamFollower, StreamSink, StreamState, STREAM_VERSION,
};
