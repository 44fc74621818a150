//! In-memory span recorder for the traced pass.
//!
//! Spans are opened and closed around direct calls into the simulator's
//! layers, kept in memory, and written once at the end in Chrome trace
//! format (`chrome://tracing`, Perfetto). A span's *self time* is its
//! duration minus the time its direct children cover; per-layer metrics
//! are sums of self times by span name.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// Index of a recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Cell identity (e.g. `BG-2@ch32`); spans of one cell share it.
    pub cell: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Children's total duration, accumulated as they close.
    child_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn self_ns(&self) -> u64 {
        self.dur_ns() - self.child_ns
    }
}

/// Records nested spans on one thread. A disabled tracer records
/// nothing, so one code path serves the untraced and the traced pass.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            on: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

/// The id a disabled tracer hands out.
const OFF: SpanId = SpanId(usize::MAX);

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            on: false,
            ..Self::default()
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn open(&mut self, name: &'static str, cell: impl Into<String>) -> SpanId {
        if !self.on {
            return OFF;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            cell: cell.into(),
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            child_ns: 0,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        SpanId(id)
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: SpanId) {
        if !self.on {
            return;
        }
        assert_eq!(
            self.open.pop(),
            Some(id.0),
            "spans must close innermost first"
        );
        let end = self.now_ns();
        let span = &mut self.spans[id.0];
        span.end_ns = end;
        let (parent, dur) = (span.parent, span.dur_ns());
        if let Some(p) = parent {
            self.spans[p].child_ns += dur;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        cell: impl Into<String>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, cell);
        let out = f();
        self.close(id);
        out
    }

    /// Renames a closed span (a cell whose layer is known only after
    /// the call, such as a memo hit versus a replay).
    pub fn rename(&mut self, id: SpanId, name: &'static str) {
        if let Some(s) = self.spans.get_mut(id.0) {
            s.name = name;
        }
    }

    /// Duration of a closed span in seconds (0 when tracing is off).
    pub fn secs(&self, id: SpanId) -> f64 {
        self.spans
            .get(id.0)
            .map_or(0.0, |s| s.dur_ns() as f64 / 1e9)
    }

    /// Self time in seconds per span name (all spans, any root).
    pub fn self_secs_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0.0) += s.self_ns() as f64 / 1e9;
        }
        out
    }

    /// Share of the root spans' wall time covered by the self time of
    /// non-root (layer) spans; the rest is harness time between calls.
    pub fn layer_coverage(&self) -> f64 {
        let wall: u64 = self.roots().map(Span::dur_ns).sum();
        let roots_self: u64 = self.roots().map(Span::self_ns).sum();
        if wall == 0 {
            return 0.0;
        }
        1.0 - roots_self as f64 / wall as f64
    }

    fn roots(&self) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(|s| s.parent.is_none())
    }

    /// The spans as a Chrome trace document (complete `X` events, µs).
    pub fn chrome_trace(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj([
                    ("name", Json::from(s.name)),
                    ("ph", Json::from("X")),
                    ("pid", Json::from(1u64)),
                    ("tid", Json::from(1u64)),
                    ("ts", Json::from(s.start_ns as f64 / 1e3)),
                    ("dur", Json::from(s.dur_ns() as f64 / 1e3)),
                    (
                        "args",
                        Json::obj([
                            ("span", Json::from(i as u64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                            ),
                            ("cell", Json::from(s.cell.as_str())),
                            ("self_us", Json::from(s.self_ns() as f64 / 1e3)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("displayTimeUnit", Json::from("ms")),
            ("traceEvents", Json::Arr(events)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < ms as u128 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        let root = t.open("root", "");
        let a = t.open("a", "c0");
        busy(4);
        let b = t.open("b", "c0");
        busy(4);
        t.close(b);
        t.close(a);
        t.close(root);
        let by = t.self_secs_by_name();
        assert!(by["a"] >= 0.004 && by["b"] >= 0.004);
        assert!(by["a"] < t.secs(a), "a's self time must exclude b");
        assert!(t.layer_coverage() > 0.9);
        let doc = t.chrome_trace();
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events[2].get("args").unwrap().get("parent"),
            Some(&Json::from(1u64))
        );
    }

    #[test]
    #[should_panic(expected = "innermost")]
    fn closing_out_of_order_is_a_bug() {
        let mut t = Tracer::default();
        let a = t.open("a", "");
        let _b = t.open("b", "");
        t.close(a);
    }
}
