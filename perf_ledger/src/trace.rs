//! In-memory spans recorded by the benchmark around calls into the
//! library's public API. Nothing is written while the traced loop runs;
//! the spans are folded into per-layer figures once it ends.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// A stack of open spans plus every closed one.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Durations in nanoseconds of every span named `name`, in order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Summed duration of every span named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_ns(name).iter().sum::<f64>() * 1e-9
    }

    /// Self time per span name in seconds: each span's duration minus
    /// the durations of its direct children. Over a closed tree the
    /// self times add up to the root spans' durations.
    pub fn self_s(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0.0) += (s.end_ns - s.start_ns - c) as f64 * 1e-9;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_root() {
        let mut tr = Tracer::new();
        let root = tr.begin("root");
        tr.span("a", || std::hint::black_box((0..1000).sum::<u64>()));
        let b = tr.begin("b");
        tr.span("a", || std::hint::black_box((0..1000).sum::<u64>()));
        tr.end(b);
        tr.end(root);
        let selfs = tr.self_s();
        let sum: f64 = selfs.values().sum();
        assert!((sum - tr.total_s("root")).abs() < 1e-12);
        assert_eq!(tr.durations_ns("a").len(), 2);
    }

    #[test]
    #[should_panic(expected = "spans must nest")]
    fn crossed_spans_are_rejected() {
        let mut tr = Tracer::new();
        let a = tr.begin("a");
        let _b = tr.begin("b");
        tr.end(a);
    }
}
