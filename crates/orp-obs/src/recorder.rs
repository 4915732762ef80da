//! The [`Recorder`] handle and its RAII [`Span`] guard.
//!
//! A `Recorder` is the one observability argument threaded through the
//! toolkit. It is a cheap clone (an `Option<Arc<…>>`): clones share one
//! store, and the disabled default makes every record call a single
//! branch — the hot paths stay allocation- and syscall-free unless the
//! caller opted in.
//!
//! Interior state sits behind one `Mutex`. That is deliberate: when
//! recording is *on*, correctness and simplicity beat shaving
//! nanoseconds (the instrumented paths take micro- to milliseconds per
//! recorded unit), and when it is *off* the mutex is never touched.

use crate::event::Event;
use crate::histogram::Histogram;
use crate::journal::Journal;
use crate::sink::Sink;
use crate::snapshot::{SeriesPoint, Snapshot, SpanRecord};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

/// Metric names are `&'static str` on the hot paths (no allocation) but
/// may be owned for dynamically shaped metrics — per-worker lanes
/// (`pool.w3.steals`), per-replica rungs (`temper.r2.temp`) — via the
/// `*_dyn` recording methods.
type Name = Cow<'static, str>;

/// Capacity knobs for an enabled recorder.
#[derive(Debug, Clone, Copy)]
pub struct ObsConfig {
    /// Ring-buffer capacity of the event journal.
    pub journal_capacity: usize,
    /// Maximum completed spans kept (further spans are counted, not
    /// stored).
    pub max_spans: usize,
    /// Maximum points kept per named series. Reaching the cap does not
    /// drop the tail: the series is decimated in place (every other
    /// retained point removed, acceptance stride doubled), so memory
    /// stays bounded while first/last/extrema points survive.
    pub max_series_points: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self {
            journal_capacity: 65_536,
            max_spans: 65_536,
            max_series_points: 65_536,
        }
    }
}

/// A bounded series store: keep-every-`stride` doubling decimation.
///
/// Every incoming point updates the tracked extrema/last; a point is
/// *retained* only when its ordinal is a multiple of the current
/// stride. When the retained vector hits the cap, every odd-positioned
/// point is dropped and the stride doubles, so memory is O(cap) for
/// any run length while the kept points stay evenly spaced. The
/// process is deterministic — a function of the push sequence and the
/// cap alone — and [`SeriesBuf::collect`] re-inserts the argmin,
/// argmax, and final points so decimation never erases the envelope.
#[derive(Debug, Default)]
struct SeriesBuf {
    pts: Vec<SeriesPoint>,
    stride: u64,
    seen: u64,
    min: Option<SeriesPoint>,
    max: Option<SeriesPoint>,
    last: Option<SeriesPoint>,
}

impl SeriesBuf {
    fn push(&mut self, p: SeriesPoint, cap: usize) {
        if self.stride == 0 {
            self.stride = 1;
        }
        // Strict comparisons keep the *earliest* extremum on ties.
        if self.min.is_none_or(|m| p.y < m.y) {
            self.min = Some(p);
        }
        if self.max.is_none_or(|m| p.y > m.y) {
            self.max = Some(p);
        }
        self.last = Some(p);
        if self.seen.is_multiple_of(self.stride) {
            self.pts.push(p);
            if self.pts.len() >= cap.max(4) {
                let mut i = 0usize;
                self.pts.retain(|_| {
                    let keep = i.is_multiple_of(2);
                    i += 1;
                    keep
                });
                self.stride *= 2;
            }
        }
        self.seen += 1;
    }

    /// The decimated points plus the extrema/final points (if elided),
    /// sorted by timestamp.
    fn collect(&self) -> Vec<SeriesPoint> {
        let mut out = self.pts.clone();
        for p in [self.min, self.max, self.last].into_iter().flatten() {
            if !out
                .iter()
                .any(|q| q.ts_us == p.ts_us && q.x == p.x && q.y == p.y)
            {
                out.push(p);
            }
        }
        out.sort_by(|a, b| a.ts_us.cmp(&b.ts_us).then(a.x.total_cmp(&b.x)));
        out
    }
}

#[derive(Debug)]
struct State {
    cfg: ObsConfig,
    counters: BTreeMap<Name, u64>,
    gauges: BTreeMap<Name, f64>,
    hists: BTreeMap<Name, Histogram>,
    series: BTreeMap<Name, SeriesBuf>,
    journal: Journal,
    spans: Vec<SpanRecord>,
    dropped_spans: u64,
    threads: Vec<ThreadId>,
}

#[derive(Debug)]
struct Inner {
    origin: Instant,
    state: Mutex<State>,
}

impl Inner {
    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    fn tid(state: &mut State) -> u32 {
        let id = std::thread::current().id();
        match state.threads.iter().position(|&t| t == id) {
            Some(i) => i as u32,
            None => {
                state.threads.push(id);
                (state.threads.len() - 1) as u32
            }
        }
    }
}

/// The instrumentation handle. See the crate docs for the model.
///
/// `Recorder::default()` is disabled; [`Recorder::enabled`] turns
/// recording on. All methods are safe to call from multiple threads.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl Recorder {
    /// The no-op recorder: every call is a branch and nothing else.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A recording recorder with default capacities.
    pub fn enabled() -> Self {
        Self::with_config(ObsConfig::default())
    }

    /// A recording recorder with explicit capacities.
    pub fn with_config(cfg: ObsConfig) -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                origin: Instant::now(),
                state: Mutex::new(State {
                    cfg,
                    counters: BTreeMap::new(),
                    gauges: BTreeMap::new(),
                    hists: BTreeMap::new(),
                    series: BTreeMap::new(),
                    journal: Journal::with_capacity(cfg.journal_capacity),
                    spans: Vec::new(),
                    dropped_spans: 0,
                    threads: Vec::new(),
                }),
            })),
        }
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Microseconds since this recorder was created (0 when disabled).
    /// Lets callers stamp gauges — e.g. a watchdog heartbeat — on the
    /// same clock every snapshot and stream record uses.
    #[inline]
    pub fn elapsed_us(&self) -> u64 {
        self.inner.as_ref().map_or(0, |inner| inner.now_us())
    }

    /// Adds `by` to the named monotonic counter.
    #[inline]
    pub fn incr(&self, name: &'static str, by: u64) {
        if let Some(inner) = &self.inner {
            let mut st = inner.state.lock().expect("recorder poisoned");
            *st.counters.entry(Cow::Borrowed(name)).or_insert(0) += by;
        }
    }

    /// [`Recorder::incr`] for dynamically shaped names (per-worker,
    /// per-replica). Allocates only on the first sight of a name.
    #[inline]
    pub fn incr_dyn(&self, name: &str, by: u64) {
        if let Some(inner) = &self.inner {
            let mut st = inner.state.lock().expect("recorder poisoned");
            match st.counters.get_mut(name) {
                Some(v) => *v += by,
                None => {
                    st.counters.insert(Cow::Owned(name.to_string()), by);
                }
            }
        }
    }

    /// Sets the named gauge (last write wins). Gauges report a current
    /// level — resident bytes, a replica temperature, a heartbeat —
    /// where a monotonic counter would be the wrong shape.
    #[inline]
    pub fn gauge(&self, name: &'static str, value: f64) {
        if let Some(inner) = &self.inner {
            let mut st = inner.state.lock().expect("recorder poisoned");
            st.gauges.insert(Cow::Borrowed(name), value);
        }
    }

    /// [`Recorder::gauge`] for dynamically shaped names.
    #[inline]
    pub fn gauge_dyn(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            let mut st = inner.state.lock().expect("recorder poisoned");
            match st.gauges.get_mut(name) {
                Some(v) => *v = value,
                None => {
                    st.gauges.insert(Cow::Owned(name.to_string()), value);
                }
            }
        }
    }

    /// Records `value` into the named log-linear histogram.
    #[inline]
    pub fn record(&self, name: &'static str, value: u64) {
        if let Some(inner) = &self.inner {
            let mut st = inner.state.lock().expect("recorder poisoned");
            st.hists
                .entry(Cow::Borrowed(name))
                .or_default()
                .record(value);
        }
    }

    /// Runs `f`, recording its wall time in nanoseconds into the named
    /// histogram when enabled. When disabled no clock is read.
    #[inline]
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        match &self.inner {
            None => f(),
            Some(inner) => {
                let t = Instant::now();
                let out = f();
                let ns = t.elapsed().as_nanos() as u64;
                let mut st = inner.state.lock().expect("recorder poisoned");
                st.hists.entry(Cow::Borrowed(name)).or_default().record(ns);
                out
            }
        }
    }

    /// Appends a point to the named time series. Memory is bounded by
    /// [`ObsConfig::max_series_points`] via deterministic decimation;
    /// endpoints and extrema are always preserved.
    #[inline]
    pub fn series(&self, name: &'static str, x: f64, y: f64) {
        if let Some(inner) = &self.inner {
            let ts_us = inner.now_us();
            let mut st = inner.state.lock().expect("recorder poisoned");
            let cap = st.cfg.max_series_points;
            st.series
                .entry(Cow::Borrowed(name))
                .or_default()
                .push(SeriesPoint { ts_us, x, y }, cap);
        }
    }

    /// [`Recorder::series`] for dynamically shaped names.
    #[inline]
    pub fn series_dyn(&self, name: &str, x: f64, y: f64) {
        if let Some(inner) = &self.inner {
            let ts_us = inner.now_us();
            let mut st = inner.state.lock().expect("recorder poisoned");
            let cap = st.cfg.max_series_points;
            let p = SeriesPoint { ts_us, x, y };
            match st.series.get_mut(name) {
                Some(s) => s.push(p, cap),
                None => {
                    let mut s = SeriesBuf::default();
                    s.push(p, cap);
                    st.series.insert(Cow::Owned(name.to_string()), s);
                }
            }
        }
    }

    /// Appends a typed event to the ring-buffer journal.
    #[inline]
    pub fn emit(&self, event: Event) {
        if let Some(inner) = &self.inner {
            let ts_us = inner.now_us();
            let mut st = inner.state.lock().expect("recorder poisoned");
            st.journal.push(ts_us, event);
        }
    }

    /// Opens a scoped span; the returned guard records `name` with the
    /// elapsed wall time when dropped. Disabled recorders return an
    /// inert guard.
    #[inline]
    pub fn span(&self, name: &'static str) -> Span {
        Span {
            active: self.inner.as_ref().map(|inner| SpanActive {
                inner: Arc::clone(inner),
                name,
                start: Instant::now(),
            }),
        }
    }

    /// Copies out everything recorded so far (`None` when disabled).
    pub fn snapshot(&self) -> Option<Snapshot> {
        let inner = self.inner.as_ref()?;
        let elapsed_us = inner.now_us();
        let st = inner.state.lock().expect("recorder poisoned");
        Some(Snapshot {
            elapsed_us,
            counters: st
                .counters
                .iter()
                .map(|(k, &v)| (k.clone().into_owned(), v))
                .collect(),
            gauges: st
                .gauges
                .iter()
                .map(|(k, &v)| (k.clone().into_owned(), v))
                .collect(),
            histograms: st
                .hists
                .iter()
                .map(|(k, h)| (k.clone().into_owned(), h.summary()))
                .collect(),
            series: st
                .series
                .iter()
                .map(|(k, s)| (k.clone().into_owned(), s.collect()))
                .collect(),
            events: st.journal.events().copied().collect(),
            dropped_events: st.journal.dropped(),
            spans: st.spans.clone(),
            dropped_spans: st.dropped_spans,
        })
    }

    /// Renders the current snapshot through `sink` (`None` when
    /// disabled).
    pub fn export(&self, sink: &dyn Sink) -> Option<String> {
        self.snapshot().map(|s| sink.render(&s))
    }

    /// Renders the current snapshot through `sink` and writes it to
    /// `path`. Returns `Ok(false)` without touching the filesystem when
    /// disabled. The write is atomic — a sibling temp file renamed into
    /// place — so a crash mid-export never leaves a truncated trace.
    pub fn export_to(
        &self,
        sink: &dyn Sink,
        path: impl AsRef<std::path::Path>,
    ) -> std::io::Result<bool> {
        match self.export(sink) {
            None => Ok(false),
            Some(text) => {
                if let Some(dir) = path.as_ref().parent() {
                    if !dir.as_os_str().is_empty() {
                        std::fs::create_dir_all(dir)?;
                    }
                }
                atomic_write(path.as_ref(), text.as_bytes())?;
                Ok(true)
            }
        }
    }
}

/// Writes `bytes` to `path` atomically: the data goes to a sibling
/// `.tmp` file, is `fsync`ed, then `rename`d over the destination.
/// Readers (and a resumed run) therefore see either the previous
/// complete file or the new complete file — never a torn write.
///
/// The one implementation behind every artifact writer in the workspace
/// (checkpoints, `results/*.json`, saved `.hsg` graphs, exported traces);
/// it lives here because this is the lowest crate that writes files.
pub fn atomic_write(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    // Persist the rename itself; failure here (e.g. on filesystems that
    // do not allow opening a directory) does not invalidate the data.
    if let Some(dir) = path.parent() {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

#[derive(Debug)]
struct SpanActive {
    inner: Arc<Inner>,
    name: &'static str,
    start: Instant,
}

/// RAII guard returned by [`Recorder::span`]; records on drop.
#[derive(Debug)]
#[must_use = "a span measures the scope it is alive in"]
pub struct Span {
    active: Option<SpanActive>,
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(a) = self.active.take() else {
            return;
        };
        let dur_us = a.start.elapsed().as_micros() as u64;
        let start_us = a.start.duration_since(a.inner.origin).as_micros() as u64;
        let mut st = a.inner.state.lock().expect("recorder poisoned");
        if st.spans.len() < st.cfg.max_spans {
            let tid = Inner::tid(&mut st);
            st.spans.push(SpanRecord {
                name: a.name,
                start_us,
                dur_us,
                tid,
            });
        } else {
            st.dropped_spans += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_observes_nothing() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        rec.incr("c", 5);
        rec.record("h", 1);
        rec.series("s", 0.0, 1.0);
        rec.emit(Event::Mark {
            name: "m",
            value: 1.0,
        });
        drop(rec.span("sp"));
        assert_eq!(rec.time("t", || 7), 7);
        assert!(rec.snapshot().is_none());
    }

    #[test]
    fn counters_and_histograms_accumulate() {
        let rec = Recorder::enabled();
        rec.incr("c", 2);
        rec.incr("c", 3);
        rec.record("h", 10);
        rec.record("h", 20);
        let s = rec.snapshot().unwrap();
        assert_eq!(s.counter("c"), Some(5));
        let h = s.histogram("h").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 30);
    }

    #[test]
    fn clones_share_one_store() {
        let rec = Recorder::enabled();
        let clone = rec.clone();
        clone.incr("c", 1);
        rec.incr("c", 1);
        assert_eq!(rec.snapshot().unwrap().counter("c"), Some(2));
    }

    #[test]
    fn spans_record_duration_and_thread() {
        let rec = Recorder::enabled();
        {
            let _outer = rec.span("outer");
            let _inner = rec.span("inner");
        }
        let s = rec.snapshot().unwrap();
        assert_eq!(s.spans.len(), 2);
        // inner drops first
        assert_eq!(s.spans[0].name, "inner");
        assert_eq!(s.spans[1].name, "outer");
        assert_eq!(s.spans[0].tid, 0);
    }

    #[test]
    fn span_cap_counts_overflow() {
        let rec = Recorder::with_config(ObsConfig {
            max_spans: 1,
            ..ObsConfig::default()
        });
        drop(rec.span("a"));
        drop(rec.span("b"));
        let s = rec.snapshot().unwrap();
        assert_eq!(s.spans.len(), 1);
        assert_eq!(s.dropped_spans, 1);
    }

    #[test]
    fn series_is_bounded_but_keeps_endpoints_and_extrema() {
        let cap = 8usize;
        let rec = Recorder::with_config(ObsConfig {
            max_series_points: cap,
            ..ObsConfig::default()
        });
        let n = 10_000;
        for i in 0..n {
            // a vee: minimum in the middle, maximum at the end
            let y = (i as f64 - 6000.0).abs();
            rec.series("s", i as f64, y);
        }
        let s = rec.snapshot().unwrap();
        let pts = s.series("s").unwrap();
        assert!(pts.len() <= cap + 3, "len {} > cap+3", pts.len());
        assert!(pts.iter().any(|p| p.x == 0.0), "first point lost");
        assert!(pts.iter().any(|p| p.x == (n - 1) as f64), "last point lost");
        assert!(pts.iter().any(|p| p.y == 0.0), "argmin lost");
        assert!(pts.iter().any(|p| p.y == 6000.0), "argmax lost");
        // sorted by timestamp
        assert!(pts.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
    }

    #[test]
    fn decimation_is_deterministic() {
        let run = || {
            let mut b = SeriesBuf::default();
            for i in 0..1000u64 {
                let p = SeriesPoint {
                    ts_us: i,
                    x: i as f64,
                    y: (i % 37) as f64,
                };
                b.push(p, 16);
            }
            b.collect()
        };
        let a = run();
        let b = run();
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(b.iter())
            .all(|(p, q)| p.ts_us == q.ts_us && p.x == q.x && p.y == q.y));
    }

    #[test]
    fn gauges_last_write_wins() {
        let rec = Recorder::enabled();
        rec.gauge("g", 1.0);
        rec.gauge("g", 2.5);
        rec.gauge_dyn("pool.w0.busy", 7.0);
        let s = rec.snapshot().unwrap();
        assert_eq!(s.gauge("g"), Some(2.5));
        assert_eq!(s.gauge("pool.w0.busy"), Some(7.0));
        assert_eq!(s.gauge("missing"), None);
    }

    #[test]
    fn dyn_names_share_the_store_with_static_names() {
        let rec = Recorder::enabled();
        rec.incr("c", 1);
        rec.incr_dyn("c", 2);
        rec.incr_dyn("pool.w1.steals", 3);
        rec.series_dyn("temper.r0.temp", 0.0, 0.9);
        rec.series_dyn("temper.r0.temp", 1.0, 0.8);
        let s = rec.snapshot().unwrap();
        assert_eq!(s.counter("c"), Some(3));
        assert_eq!(s.counter("pool.w1.steals"), Some(3));
        assert_eq!(s.series("temper.r0.temp").unwrap().len(), 2);
    }

    #[test]
    fn time_returns_the_closure_value() {
        let rec = Recorder::enabled();
        let v = rec.time("work_ns", || 41 + 1);
        assert_eq!(v, 42);
        assert_eq!(
            rec.snapshot().unwrap().histogram("work_ns").unwrap().count,
            1
        );
    }

    #[test]
    fn recorder_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Recorder>();
    }
}
