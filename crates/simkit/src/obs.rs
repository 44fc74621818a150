//! Sim-time observability: hierarchical spans, Chrome trace export, and
//! structured per-run metric reports.
//!
//! Three pieces, all deterministic and all zero-cost when disabled:
//!
//! - [`SpanRecorder`] collects [`Span`]s — intervals of simulated time
//!   keyed by a `(unit kind, unit index)` pair. A disabled recorder
//!   (capacity 0, the default) costs one predictable branch per record
//!   site, so the engine hot path pays almost nothing for it.
//! - [`ChromeTraceWriter`] exports a recorder as Chrome trace-event
//!   JSON, loadable in [Perfetto](https://ui.perfetto.dev) or
//!   `chrome://tracing`. Events are sorted by `(time, unit, seq)` so
//!   identical runs produce byte-identical files.
//! - [`MetricsRegistry`] is an insertion-ordered collection of named
//!   sections of named values, serializing to JSON with stable field
//!   ordering and deterministic number formatting — the per-run metric
//!   report format.
//!
//! Nothing here uses wall-clock time, host thread identity, or hash-map
//! iteration order: two identical runs serialize byte-identically
//! regardless of `--jobs` or host.

use std::io::{self, Write};

use crate::stats::Summary;
use crate::time::{Duration, SimTime};

pub mod latency;

/// The classes of simulated units spans are keyed by.
///
/// The discriminant doubles as the Chrome-trace `pid`, so the Perfetto
/// process list shows units grouped top-down in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum UnitKind {
    /// The engine itself (batch-level phases).
    Engine = 0,
    /// A host CPU core.
    HostCpu = 1,
    /// An embedded (firmware) core.
    Core = 2,
    /// The hardware command router.
    Router = 3,
    /// A flash die.
    Die = 4,
    /// A flash channel bus.
    Channel = 5,
    /// SSD-internal DRAM.
    Dram = 6,
    /// The PCIe link.
    Pcie = 7,
    /// The GNN accelerator (systolic + vector arrays).
    Accelerator = 8,
}

impl UnitKind {
    /// Every kind, in `pid` order.
    pub const ALL: [UnitKind; 9] = [
        UnitKind::Engine,
        UnitKind::HostCpu,
        UnitKind::Core,
        UnitKind::Router,
        UnitKind::Die,
        UnitKind::Channel,
        UnitKind::Dram,
        UnitKind::Pcie,
        UnitKind::Accelerator,
    ];

    /// Stable lower-case display name (also the trace process name).
    pub fn as_str(self) -> &'static str {
        match self {
            UnitKind::Engine => "engine",
            UnitKind::HostCpu => "host_cpu",
            UnitKind::Core => "core",
            UnitKind::Router => "router",
            UnitKind::Die => "die",
            UnitKind::Channel => "channel",
            UnitKind::Dram => "dram",
            UnitKind::Pcie => "pcie",
            UnitKind::Accelerator => "accelerator",
        }
    }

    fn pid(self) -> u32 {
        self as u32 + 1
    }
}

/// One span of simulated time on one unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Unit class.
    pub kind: UnitKind,
    /// Unit index within its class (die index, channel index, ...).
    pub unit: u32,
    /// Span name (e.g. `"sense"`, `"xfer"`, `"compute"`).
    pub name: &'static str,
    /// Span start.
    pub start: SimTime,
    /// Span end (`== start` for instant events).
    pub end: SimTime,
    /// Free-form payload (hop number, byte count, batch index, ...).
    pub value: f64,
    /// Record-order sequence number — the determinism tiebreaker.
    pub seq: u64,
}

/// Bounded span collector; disabled unless built with a capacity.
///
/// Recording past the capacity drops the new span and counts it in
/// [`dropped`](SpanRecorder::dropped) — the retained prefix stays a
/// faithful, deterministic view of the start of the run.
#[derive(Debug, Clone, Default)]
pub struct SpanRecorder {
    spans: Vec<Span>,
    capacity: usize,
    seq: u64,
    dropped: u64,
}

impl SpanRecorder {
    /// A disabled recorder: every `record` is a no-op after one branch.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A recorder retaining up to `capacity` spans (0 disables).
    pub fn with_capacity(capacity: usize) -> Self {
        SpanRecorder {
            // Lazy: large captures grow on demand, tiny ones stay tiny.
            spans: Vec::new(),
            capacity,
            seq: 0,
            dropped: 0,
        }
    }

    /// Whether spans are being collected. Call sites with non-trivial
    /// argument computation should branch on this first.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Records one span.
    #[inline]
    pub fn record(
        &mut self,
        kind: UnitKind,
        unit: u32,
        name: &'static str,
        start: SimTime,
        end: SimTime,
        value: f64,
    ) {
        if !self.is_enabled() {
            return;
        }
        if self.spans.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        let seq = self.seq;
        self.seq += 1;
        self.spans.push(Span {
            kind,
            unit,
            name,
            start,
            end,
            value,
            seq,
        });
    }

    /// Records an instant (zero-length) event.
    #[inline]
    pub fn instant(
        &mut self,
        kind: UnitKind,
        unit: u32,
        name: &'static str,
        at: SimTime,
        value: f64,
    ) {
        self.record(kind, unit, name, at, at, value);
    }

    /// Spans retained.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Returns `true` if no spans were retained.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Spans dropped after the capacity filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retention capacity this recorder was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterates retained spans in record order.
    pub fn iter(&self) -> impl Iterator<Item = &Span> {
        self.spans.iter()
    }

    /// Appends another recorder's spans, re-stamping their sequence
    /// numbers to continue this recorder's — the merge step for
    /// per-partition recorders. Absorbing in a fixed partition order
    /// yields one recorder indistinguishable from a serial recording;
    /// capacity and drop accounting behave exactly as if the absorbed
    /// spans had been recorded here directly.
    pub fn absorb(&mut self, other: &SpanRecorder) {
        self.dropped += other.dropped;
        for s in &other.spans {
            self.record(s.kind, s.unit, s.name, s.start, s.end, s.value);
        }
    }

    /// Absorbs spans a caller staged in exact record order (their `seq`
    /// fields are ignored and re-stamped), clearing `batch`.
    ///
    /// This is the batched counterpart of [`record`](Self::record) for
    /// hot loops: the caller pushes plain [`Span`] values into its own
    /// staging buffer with no capacity or sequence bookkeeping, then
    /// flushes once per phase. Because the staging buffer is a single
    /// FIFO, sequence numbers are assigned in the identical order a
    /// per-call `record` would have used, and the capacity/drop
    /// accounting is applied span-by-span exactly as `record` applies
    /// it — the resulting recorder is indistinguishable.
    pub fn record_batch(&mut self, batch: &mut Vec<Span>) {
        if !self.is_enabled() {
            batch.clear();
            return;
        }
        let room = self.capacity - self.spans.len().min(self.capacity);
        self.spans.reserve(batch.len().min(room));
        for s in batch.drain(..) {
            if self.spans.len() >= self.capacity {
                self.dropped += 1;
                continue;
            }
            let seq = self.seq;
            self.seq += 1;
            self.spans.push(Span { seq, ..s });
        }
    }

    /// Retained spans sorted canonically by `(time, unit, seq)` — the
    /// export order.
    pub fn sorted(&self) -> Vec<Span> {
        let mut v = self.spans.clone();
        v.sort_by_key(|s| (s.start, s.kind, s.unit, s.seq));
        v
    }
}

/// Exports a [`SpanRecorder`] as Chrome trace-event JSON.
///
/// Each span becomes a `ph:"X"` complete event (or `ph:"i"` for instant
/// events) with `pid` = unit kind and `tid` = unit index; metadata
/// events name the processes/threads so Perfetto shows "die 3" instead
/// of "pid 5 tid 3". Timestamps are microseconds with fixed
/// three-decimal nanosecond precision, formatted from integers — no
/// float round-trip, so output is byte-stable across hosts.
pub struct ChromeTraceWriter;

impl ChromeTraceWriter {
    /// Writes the full trace JSON document.
    pub fn write<W: Write>(spans: &SpanRecorder, mut w: W) -> io::Result<()> {
        w.write_all(b"{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")?;
        let sorted = spans.sorted();
        let mut first = true;
        // Name each unit kind present (plus sort order) exactly once,
        // then each unit within it, so Perfetto rows read "die 3"
        // rather than bare pid/tid numbers.
        for kind in UnitKind::ALL {
            let mut units: Vec<u32> = sorted
                .iter()
                .filter(|s| s.kind == kind)
                .map(|s| s.unit)
                .collect();
            units.sort_unstable();
            units.dedup();
            if units.is_empty() {
                continue;
            }
            Self::sep(&mut w, &mut first)?;
            write!(
                w,
                "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\"args\":{{\"name\":\"{name}\"}}}},\n\
                 {{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_sort_index\",\"args\":{{\"sort_index\":{pid}}}}}",
                pid = kind.pid(),
                name = kind.as_str(),
            )?;
            for unit in units {
                Self::sep(&mut w, &mut first)?;
                write!(
                    w,
                    "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{name} {tid}\"}}}}",
                    pid = kind.pid(),
                    tid = unit,
                    name = kind.as_str(),
                )?;
            }
        }
        for s in &sorted {
            Self::sep(&mut w, &mut first)?;
            let ts = micros(s.start.as_ns());
            if s.end == s.start {
                write!(
                    w,
                    "{{\"name\":{name},\"cat\":\"{cat}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"args\":{{\"v\":{v},\"seq\":{seq}}}}}",
                    name = json_string(s.name),
                    cat = s.kind.as_str(),
                    pid = s.kind.pid(),
                    tid = s.unit,
                    ts = ts,
                    v = format_f64(s.value),
                    seq = s.seq,
                )?;
            } else {
                write!(
                    w,
                    "{{\"name\":{name},\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"dur\":{dur},\"args\":{{\"v\":{v},\"seq\":{seq}}}}}",
                    name = json_string(s.name),
                    cat = s.kind.as_str(),
                    pid = s.kind.pid(),
                    tid = s.unit,
                    ts = ts,
                    dur = micros((s.end - s.start).as_ns()),
                    v = format_f64(s.value),
                    seq = s.seq,
                )?;
            }
        }
        w.write_all(b"\n]}\n")
    }

    fn sep<W: Write>(w: &mut W, first: &mut bool) -> io::Result<()> {
        if *first {
            *first = false;
            Ok(())
        } else {
            w.write_all(b",\n")
        }
    }
}

/// Nanoseconds rendered as a microsecond decimal with exactly three
/// fractional digits (`1234` → `"1.234"`), entirely in integer math.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// One metric value. Numbers render without quotes; strings are
/// escaped.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A boolean flag.
    Bool(bool),
    /// An unsigned counter / total.
    U64(u64),
    /// A float (rendered with shortest-round-trip formatting; non-finite
    /// values render as `null`).
    F64(f64),
    /// A string.
    Str(String),
}

impl MetricValue {
    fn render(&self) -> String {
        match self {
            MetricValue::Bool(b) => b.to_string(),
            MetricValue::U64(v) => v.to_string(),
            MetricValue::F64(v) => format_f64(*v),
            MetricValue::Str(s) => json_string(s),
        }
    }
}

/// An insertion-ordered set of named metric values.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Section {
    entries: Vec<(String, MetricValue)>,
}

impl Section {
    /// Sets `key` (replacing in place if present, preserving its
    /// original position).
    pub fn set(&mut self, key: &str, value: MetricValue) {
        if let Some(e) = self.entries.iter_mut().find(|(k, _)| k == key) {
            e.1 = value;
        } else {
            self.entries.push((key.to_string(), value));
        }
    }

    /// Sets an unsigned counter.
    pub fn set_u64(&mut self, key: &str, v: u64) {
        self.set(key, MetricValue::U64(v));
    }

    /// Sets a float.
    pub fn set_f64(&mut self, key: &str, v: f64) {
        self.set(key, MetricValue::F64(v));
    }

    /// Sets a boolean.
    pub fn set_bool(&mut self, key: &str, v: bool) {
        self.set(key, MetricValue::Bool(v));
    }

    /// Sets a string.
    pub fn set_str(&mut self, key: &str, v: &str) {
        self.set(key, MetricValue::Str(v.to_string()));
    }

    /// Sets a duration, in integer nanoseconds under `<key>_ns`.
    pub fn set_duration(&mut self, key: &str, d: Duration) {
        self.set_u64(&format!("{key}_ns"), d.as_ns());
    }

    /// Snapshots a [`Summary`] as `<prefix>_{count,mean,min,max}`.
    pub fn set_summary(&mut self, prefix: &str, s: &Summary) {
        self.set_u64(&format!("{prefix}_count"), s.count());
        self.set_f64(&format!("{prefix}_mean"), s.mean().unwrap_or(0.0));
        self.set_f64(&format!("{prefix}_min"), s.min().unwrap_or(0.0));
        self.set_f64(&format!("{prefix}_max"), s.max().unwrap_or(0.0));
    }

    /// Looks a value up (mainly for tests).
    pub fn get(&self, key: &str) -> Option<&MetricValue> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Entries in insertion order — lets exporters enumerate fields
    /// generically instead of hardcoding (and silently missing) names.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the section has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// An insertion-ordered collection of [`Section`]s serializing to JSON
/// with stable field ordering — the per-run metric report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    sections: Vec<(String, Section)>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finds or appends the named section.
    pub fn section(&mut self, name: &str) -> &mut Section {
        if let Some(i) = self.sections.iter().position(|(n, _)| n == name) {
            return &mut self.sections[i].1;
        }
        self.sections.push((name.to_string(), Section::default()));
        &mut self.sections.last_mut().unwrap().1
    }

    /// Looks a section up without inserting.
    pub fn get(&self, name: &str) -> Option<&Section> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s)
    }

    /// Section names in order (mainly for tests and schema checks).
    pub fn section_names(&self) -> Vec<&str> {
        self.sections.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Sections in insertion order. Consumers that iterate here see
    /// every section the run produced — including ones added after
    /// they were written (e.g. `replay`) — rather than a fixed list.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Section)> {
        self.sections.iter().map(|(n, s)| (n.as_str(), s))
    }

    /// Renders the report as pretty JSON (2-space indent, stable
    /// ordering, trailing newline).
    pub fn to_json_string(&self) -> String {
        let mut out = String::from("{\n");
        for (si, (name, section)) in self.sections.iter().enumerate() {
            out.push_str("  ");
            out.push_str(&json_string(name));
            out.push_str(": {\n");
            for (ei, (key, value)) in section.entries.iter().enumerate() {
                out.push_str("    ");
                out.push_str(&json_string(key));
                out.push_str(": ");
                out.push_str(&value.render());
                if ei + 1 < section.entries.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str("  }");
            if si + 1 < self.sections.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("}\n");
        out
    }

    /// Writes the JSON report.
    pub fn write_json<W: Write>(&self, mut w: W) -> io::Result<()> {
        w.write_all(self.to_json_string().as_bytes())
    }
}

/// Deterministic JSON float formatting: shortest round-trip for finite
/// values (`3.0`, `0.125`, `1e300`), `null` for NaN/infinities.
pub fn format_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Escapes and quotes a string for JSON.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_ns(ns)
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = SpanRecorder::disabled();
        assert!(!r.is_enabled());
        r.record(UnitKind::Die, 0, "sense", t(0), t(10), 1.0);
        r.instant(UnitKind::Engine, 0, "done", t(5), 0.0);
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn capacity_bounds_retention_and_counts_drops() {
        let mut r = SpanRecorder::with_capacity(2);
        for i in 0..5 {
            r.record(UnitKind::Die, i, "sense", t(i as u64), t(i as u64 + 1), 0.0);
        }
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 3);
        // The retained prefix is the first-recorded spans.
        assert_eq!(r.iter().map(|s| s.unit).collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn sorted_orders_by_time_then_unit_then_seq() {
        let mut r = SpanRecorder::with_capacity(16);
        r.record(UnitKind::Channel, 1, "xfer", t(20), t(30), 0.0);
        r.record(UnitKind::Die, 3, "sense", t(10), t(20), 0.0);
        r.record(UnitKind::Die, 1, "sense", t(10), t(15), 0.0);
        r.record(UnitKind::Die, 1, "sense", t(10), t(18), 0.0);
        let order: Vec<(u64, u32, u64)> = r
            .sorted()
            .iter()
            .map(|s| (s.start.as_ns(), s.unit, s.seq))
            .collect();
        assert_eq!(order, vec![(10, 1, 2), (10, 1, 3), (10, 3, 1), (20, 1, 0)]);
    }

    #[test]
    fn chrome_trace_is_deterministic_and_well_formed() {
        let mut r = SpanRecorder::with_capacity(16);
        r.record(UnitKind::Die, 2, "sense", t(1_500), t(4_500), 1.0);
        r.instant(UnitKind::Engine, 0, "cmd_done", t(4_500), 2.0);
        let mut a = Vec::new();
        ChromeTraceWriter::write(&r, &mut a).unwrap();
        let mut b = Vec::new();
        ChromeTraceWriter::write(&r, &mut b).unwrap();
        assert_eq!(a, b);
        let s = String::from_utf8(a).unwrap();
        assert!(s.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(s.contains("\"ph\":\"X\""));
        assert!(s.contains("\"ph\":\"i\""));
        assert!(s.contains("\"ts\":1.500"));
        assert!(s.contains("\"dur\":3.000"));
        assert!(s.contains("\"name\":\"process_name\""));
        assert!(s.contains("{\"name\":\"die\"}"));
        assert!(s.contains("\"name\":\"thread_name\""));
        assert!(s.contains("{\"name\":\"die 2\"}"));
        assert!(s.contains("{\"name\":\"engine 0\"}"));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
    }

    #[test]
    fn micros_is_fixed_point() {
        assert_eq!(micros(0), "0.000");
        assert_eq!(micros(999), "0.999");
        assert_eq!(micros(1_000), "1.000");
        assert_eq!(micros(1_234_567), "1234.567");
    }

    #[test]
    fn registry_preserves_insertion_order_and_is_stable() {
        let mut m = MetricsRegistry::new();
        m.section("zeta").set_u64("b", 2);
        m.section("alpha").set_f64("x", 0.125);
        m.section("zeta").set_u64("a", 1);
        m.section("zeta").set_u64("b", 7); // replace in place
        assert_eq!(m.section_names(), vec!["zeta", "alpha"]);
        let json = m.to_json_string();
        assert_eq!(json, m.clone().to_json_string());
        let zb = json.find("\"b\": 7").unwrap();
        let za = json.find("\"a\": 1").unwrap();
        assert!(zb < za, "replaced key keeps its original position");
        assert!(json.find("\"zeta\"").unwrap() < json.find("\"alpha\"").unwrap());
    }

    #[test]
    fn float_formatting_is_json_safe() {
        assert_eq!(format_f64(3.0), "3.0");
        assert_eq!(format_f64(0.1), "0.1");
        assert_eq!(format_f64(f64::NAN), "null");
        assert_eq!(format_f64(f64::INFINITY), "null");
    }

    #[test]
    fn json_string_escapes_specials() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn summary_and_histogram_snapshots() {
        let mut s = Summary::default();
        s.record(2.0);
        s.record(4.0);
        let mut sec = Section::default();
        sec.set_summary("lat", &s);
        assert_eq!(sec.get("lat_count"), Some(&MetricValue::U64(2)));
        assert_eq!(sec.get("lat_mean"), Some(&MetricValue::F64(3.0)));
    }
}
