//! The walk's two writers, Prometheus text and JSON, written through a
//! caller-supplied byte sink.
//!
//! The sink trait mirrors the serving stack's `BufWrite` seam (this crate
//! is dependency-free, so it declares its own single-method trait and the
//! server provides a one-line adapter): rendering writes header and value
//! bytes straight into the connection's output queue, formatting integers
//! into a stack buffer — the scrape path allocates only in the sink's own
//! segment management, never per metric.

use crate::histogram::Snapshot;
use crate::walk::{Metric, Visitor};

/// A byte sink metrics are rendered into. Implemented for `Vec<u8>`; the
/// server adapts its pooled connection buffer.
pub trait MetricSink {
    /// Appends raw bytes.
    fn put_bytes(&mut self, bytes: &[u8]);
}

impl MetricSink for Vec<u8> {
    fn put_bytes(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// Writes `value` in decimal without allocating.
pub fn put_u64(sink: &mut impl MetricSink, value: u64) {
    let mut digits = [0_u8; 20];
    let mut at = digits.len();
    let mut rest = value;
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    sink.put_bytes(&digits[at..]);
}

fn header(sink: &mut impl MetricSink, name: &str, help: &str, kind: &str) {
    sink.put_bytes(b"# HELP ");
    sink.put_bytes(name.as_bytes());
    sink.put_bytes(b" ");
    sink.put_bytes(help.as_bytes());
    sink.put_bytes(b"\n# TYPE ");
    sink.put_bytes(name.as_bytes());
    sink.put_bytes(b" ");
    sink.put_bytes(kind.as_bytes());
    sink.put_bytes(b"\n");
}

fn sample(sink: &mut impl MetricSink, name: &str, suffix: &str, value: u64) {
    sink.put_bytes(name.as_bytes());
    sink.put_bytes(suffix.as_bytes());
    sink.put_bytes(b" ");
    put_u64(sink, value);
    sink.put_bytes(b"\n");
}

/// Renders one counter in Prometheus exposition format.
fn counter(sink: &mut impl MetricSink, name: &str, help: &str, value: u64) {
    header(sink, name, help, "counter");
    sample(sink, name, "", value);
}

/// Renders one gauge in Prometheus exposition format.
fn gauge(sink: &mut impl MetricSink, name: &str, help: &str, value: u64) {
    header(sink, name, help, "gauge");
    sample(sink, name, "", value);
}

/// Quantiles every histogram summary reports.
const QUANTILES: [(&str, f64); 4] = [
    ("{quantile=\"0.5\"}", 0.50),
    ("{quantile=\"0.9\"}", 0.90),
    ("{quantile=\"0.99\"}", 0.99),
    ("{quantile=\"0.999\"}", 0.999),
];

/// Renders a histogram snapshot as a Prometheus summary: four quantiles,
/// `_sum` (approximate, see [`Snapshot::sum_approx`]), `_count`, and a
/// non-standard `_max` sample (the highest occupied bucket's upper bound).
fn summary(sink: &mut impl MetricSink, name: &str, help: &str, snap: &Snapshot) {
    header(sink, name, help, "summary");
    for (label, q) in QUANTILES {
        sample(sink, name, label, snap.percentile(q));
    }
    sample(sink, name, "_sum", snap.sum_approx());
    sample(sink, name, "_count", snap.count());
    sample(sink, name, "_max", snap.max());
}

/// The text writer: each metric of a walk as one Prometheus family.
pub struct Prometheus<'a, S: MetricSink>(pub &'a mut S);

impl<S: MetricSink> Visitor for Prometheus<'_, S> {
    fn metric(&mut self, _: &'static str, name: &str, help: &str, metric: Metric<'_>) {
        match metric {
            Metric::Counter(cells) => counter(self.0, name, help, cells.read()),
            Metric::Gauge(level) => gauge(self.0, name, help, level),
            Metric::Summary(cells) => summary(self.0, name, help, &cells.read()),
        }
    }
}

/// The JSON writer: a walk as one object on one line, each group a nested
/// object, each metric a field of its group (a summary an object of the
/// text form's samples). Every value is an unsigned integer, so scrapers
/// parse it without a JSON library. Close it with [`Json::end`].
pub struct Json<'a, S: MetricSink> {
    root: JsonObject<'a, S>,
    /// The group whose object is open.
    group: Option<&'static str>,
}

impl<'a, S: MetricSink> Json<'a, S> {
    /// Opens the root object.
    pub fn begin(sink: &'a mut S) -> Json<'a, S> {
        Json {
            root: JsonObject::begin(sink),
            group: None,
        }
    }

    /// Closes the open group and the root object.
    pub fn end(mut self) {
        self.close_group();
        self.root.end();
    }

    fn close_group(&mut self) {
        if self.group.take().is_some() {
            self.root.sink.put_bytes(b"}");
        }
    }
}

impl<S: MetricSink> Visitor for Json<'_, S> {
    fn metric(&mut self, group: &'static str, name: &str, _: &str, metric: Metric<'_>) {
        let first = self.group != Some(group);
        if first {
            self.close_group();
            self.root.key(group);
            self.root.sink.put_bytes(b"{");
            self.group = Some(group);
        }
        let mut fields = JsonObject {
            sink: &mut *self.root.sink,
            first,
        };
        match metric {
            Metric::Counter(cells) => fields.field(name, cells.read()),
            Metric::Gauge(level) => fields.field(name, level),
            Metric::Summary(cells) => fields.summary(name, &cells.read()),
        }
    }
}

/// An in-progress JSON object written through a [`MetricSink`]: tracks
/// comma placement so callers emit fields in order without bookkeeping.
/// Keys are written verbatim (metric names never need escaping).
struct JsonObject<'a, S: MetricSink> {
    sink: &'a mut S,
    first: bool,
}

impl<'a, S: MetricSink> JsonObject<'a, S> {
    /// Opens an object (writes `{`).
    fn begin(sink: &'a mut S) -> JsonObject<'a, S> {
        sink.put_bytes(b"{");
        JsonObject { sink, first: true }
    }

    fn key(&mut self, name: &str) {
        if !self.first {
            self.sink.put_bytes(b",");
        }
        self.first = false;
        self.sink.put_bytes(b"\"");
        self.sink.put_bytes(name.as_bytes());
        self.sink.put_bytes(b"\":");
    }

    /// Writes one integer field.
    fn field(&mut self, name: &str, value: u64) {
        self.key(name);
        put_u64(self.sink, value);
    }

    /// Opens a nested object under `name`; close it with [`end`] before
    /// touching this object again.
    ///
    /// [`end`]: JsonObject::end
    fn nested(&mut self, name: &str) -> JsonObject<'_, S> {
        self.key(name);
        JsonObject::begin(self.sink)
    }

    /// Writes a histogram snapshot as a nested object carrying the same
    /// samples as the Prometheus [`summary`] form.
    fn summary(&mut self, name: &str, snap: &Snapshot) {
        let mut s = self.nested(name);
        for (label, q) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99), ("p999", 0.999)] {
            s.field(label, snap.percentile(q));
        }
        s.field("sum", snap.sum_approx());
        s.field("count", snap.count());
        s.field("max", snap.max());
        s.end();
    }

    /// Closes the object (writes `}`).
    fn end(self) {
        self.sink.put_bytes(b"}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::Histogram;

    #[test]
    fn u64_formatting_is_exact() {
        for (value, want) in [
            (0_u64, "0"),
            (7, "7"),
            (10, "10"),
            (12345, "12345"),
            (u64::MAX, "18446744073709551615"),
        ] {
            let mut out = Vec::new();
            put_u64(&mut out, value);
            assert_eq!(out, want.as_bytes());
        }
    }

    #[test]
    fn counter_and_gauge_render_exact_text() {
        let mut out = Vec::new();
        counter(&mut out, "kv_requests_total", "Requests served.", 42);
        gauge(&mut out, "net_connections", "Open connections.", 3);
        let text = String::from_utf8(out).unwrap();
        assert_eq!(
            text,
            "# HELP kv_requests_total Requests served.\n\
             # TYPE kv_requests_total counter\n\
             kv_requests_total 42\n\
             # HELP net_connections Open connections.\n\
             # TYPE net_connections gauge\n\
             net_connections 3\n"
        );
    }

    #[test]
    fn summary_renders_quantiles_count_sum_max() {
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(1000);
        }
        let mut out = Vec::new();
        summary(&mut out, "kv_get_latency_ns", "GET latency.", &h.snapshot());
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with(
            "# HELP kv_get_latency_ns GET latency.\n# TYPE kv_get_latency_ns summary\n"
        ));
        assert!(text.contains("kv_get_latency_ns{quantile=\"0.5\"} "));
        assert!(text.contains("kv_get_latency_ns{quantile=\"0.999\"} "));
        assert!(text.contains("kv_get_latency_ns_count 100\n"));
        assert!(text.contains("kv_get_latency_ns_max "));
    }

    #[test]
    fn json_object_renders_exact_bytes() {
        let h = Histogram::new();
        h.record(1000);
        let snap = h.snapshot();
        let mut out = Vec::new();
        let mut root = JsonObject::begin(&mut out);
        root.field("a", 1);
        {
            let mut inner = root.nested("b");
            inner.field("c", 2);
            inner.end();
        }
        root.summary("lat", &snap);
        root.end();
        let text = String::from_utf8(out).unwrap();
        let p = snap.percentile(0.50);
        let sum = snap.sum_approx();
        let max = snap.max();
        assert_eq!(
            text,
            format!(
                "{{\"a\":1,\"b\":{{\"c\":2}},\"lat\":{{\"p50\":{p},\"p90\":{p},\
                 \"p99\":{p},\"p999\":{p},\"sum\":{sum},\"count\":1,\"max\":{max}}}}}"
            )
        );
    }
}
