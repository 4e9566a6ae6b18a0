//! Span and event types: the wire format of the tracing core.

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// Identifier of one span within a trace. Ids are allocated by the
/// [`Tracer`](crate::Tracer) and unique within its lifetime; `NONE`
/// (zero) marks "no parent" / "tracing disabled".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The null id: no parent, or a span emitted by a disabled tracer.
    pub const NONE: SpanId = SpanId(0);

    /// Returns `true` for the null id.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A typed attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// A string. Shared, so a string the emitter keeps (a subtask's
    /// identity, say) is recorded by a reference-count increment.
    Str(Arc<str>),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer (ids, counts, byte sizes, nanoseconds).
    UInt(u64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Str(s) => f.write_str(s),
            AttrValue::Int(v) => write!(f, "{v}"),
            AttrValue::UInt(v) => write!(f, "{v}"),
            AttrValue::Float(v) => write!(f, "{v}"),
            AttrValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// One attribute: its key and value. Keys recorded by a tracer are
/// `&'static str` literals, borrowed; parsed or rebuilt events may own
/// theirs.
pub type Attr = (Cow<'static, str>, AttrValue);

/// A builder over an attribute list, passed to the `*_with` tracer
/// methods so attribute construction is skipped entirely when tracing
/// is disabled.
#[derive(Debug, Default)]
pub struct AttrList {
    pairs: Vec<Attr>,
}

impl AttrList {
    /// Adds a string attribute. An `Arc<str>` value is shared, not
    /// copied.
    pub fn str(&mut self, key: &'static str, value: impl Into<Arc<str>>) -> &mut AttrList {
        self.pairs
            .push((Cow::Borrowed(key), AttrValue::Str(value.into())));
        self
    }

    /// Adds a signed integer attribute.
    pub fn int(&mut self, key: &'static str, value: i64) -> &mut AttrList {
        self.pairs.push((Cow::Borrowed(key), AttrValue::Int(value)));
        self
    }

    /// Adds an unsigned integer attribute.
    pub fn uint(&mut self, key: &'static str, value: u64) -> &mut AttrList {
        self.pairs
            .push((Cow::Borrowed(key), AttrValue::UInt(value)));
        self
    }

    /// Adds a boolean attribute.
    pub fn bool(&mut self, key: &'static str, value: bool) -> &mut AttrList {
        self.pairs
            .push((Cow::Borrowed(key), AttrValue::Bool(value)));
        self
    }

    /// Consumes the builder into its pairs.
    pub fn into_pairs(self) -> Vec<Attr> {
        self.pairs
    }
}

/// What kind of record a [`TraceEvent`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened.
    Begin,
    /// A span closed.
    End,
    /// A point-in-time event attached to a span (e.g. a retry
    /// decision).
    Instant,
}

impl EventKind {
    /// One-letter code used by the JSON encodings.
    pub fn code(self) -> &'static str {
        match self {
            EventKind::Begin => "B",
            EventKind::End => "E",
            EventKind::Instant => "I",
        }
    }
}

/// One emitted trace record.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Record kind.
    pub kind: EventKind,
    /// The span this record belongs to (for `Instant`, a fresh id of
    /// its own).
    pub id: SpanId,
    /// Enclosing span, or [`SpanId::NONE`] for roots.
    pub parent: SpanId,
    /// Span or event name (`execute`, `epoch`, `task`, `attempt`,
    /// `retry`, …): a literal for events a tracer records, empty on
    /// `End` records.
    pub name: Cow<'static, str>,
    /// Monotonic nanoseconds since the tracer's epoch.
    pub mono_ns: u64,
    /// Wall-clock milliseconds since the Unix epoch (derived from the
    /// tracer's epoch pair, so it is consistent with `mono_ns`).
    pub wall_unix_ms: u64,
    /// Small integer lane for the emitting thread (0 = the thread that
    /// created the tracer saw it first).
    pub tid: u64,
    /// Typed attributes.
    pub attrs: Vec<Attr>,
}

impl TraceEvent {
    /// Returns an attribute value by key.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Returns a string attribute by key.
    pub fn attr_str(&self, key: &str) -> Option<&str> {
        match self.attr(key) {
            Some(AttrValue::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// Encodes the event as one line of JSON (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        self.encode_into(&mut out);
        out
    }

    /// Appends [`TraceEvent::to_json`]'s line to `out` without
    /// allocating: the flight recorder encodes into one reused buffer.
    pub fn encode_into(&self, out: &mut String) {
        out.push_str("{\"k\":\"");
        out.push_str(self.kind.code());
        out.push_str("\",\"id\":");
        json::push_u64(out, self.id.0);
        out.push_str(",\"p\":");
        json::push_u64(out, self.parent.0);
        out.push_str(",\"n\":");
        json::push_string(out, &self.name);
        out.push_str(",\"t\":");
        json::push_u64(out, self.mono_ns);
        out.push_str(",\"w\":");
        json::push_u64(out, self.wall_unix_ms);
        out.push_str(",\"tid\":");
        json::push_u64(out, self.tid);
        if !self.attrs.is_empty() {
            out.push_str(",\"a\":");
            json::push_attrs(out, &self.attrs);
        }
        out.push('}');
    }
}

/// Minimal JSON encoding helpers (the crate is dependency-free). None
/// of them allocates beyond growing `out`.
pub(crate) mod json {
    use super::{Attr, AttrValue};

    /// Appends `s` as a JSON string literal.
    pub fn push_string(out: &mut String, s: &str) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        out.push('"');
        // Copy runs of plain characters whole. Every byte escaped here
        // is ASCII, so each cut falls on a character boundary.
        let mut run = 0;
        for (i, b) in s.bytes().enumerate() {
            let escaped = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            out.push_str(&s[run..i]);
            if escaped.is_empty() {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            } else {
                out.push_str(escaped);
            }
            run = i + 1;
        }
        out.push_str(&s[run..]);
        out.push('"');
    }

    /// Appends `v` in decimal.
    pub fn push_u64(out: &mut String, mut v: u64) {
        let mut digits = [0u8; 20];
        let mut start = digits.len();
        loop {
            start -= 1;
            digits[start] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
    }

    /// Appends `v` in decimal.
    pub fn push_i64(out: &mut String, v: i64) {
        if v < 0 {
            out.push('-');
        }
        push_u64(out, v.unsigned_abs());
    }

    /// Appends a float in a JSON-safe rendering (no NaN/Inf literals).
    pub fn push_float(out: &mut String, v: f64) {
        if v.is_finite() {
            use std::fmt::Write as _;
            let _ = write!(out, "{v}");
        } else {
            out.push_str("null");
        }
    }

    /// Appends one attribute value.
    pub fn push_value(out: &mut String, v: &AttrValue) {
        match v {
            AttrValue::Str(s) => push_string(out, s),
            AttrValue::Int(n) => push_i64(out, *n),
            AttrValue::UInt(n) => push_u64(out, *n),
            AttrValue::Float(f) => push_float(out, *f),
            AttrValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        }
    }

    /// Appends an attribute map `{"k":v,…}`.
    pub fn push_attrs(out: &mut String, attrs: &[Attr]) {
        out.push('{');
        for (i, (k, v)) in attrs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_string(out, k);
            out.push(':');
            push_value(out, v);
        }
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_is_correct() {
        let ev = TraceEvent {
            kind: EventKind::Instant,
            id: SpanId(3),
            parent: SpanId(1),
            name: "quote\"back\\slash\nnewline\u{1}".into(),
            mono_ns: 42,
            wall_unix_ms: 7,
            tid: 0,
            attrs: vec![("k".into(), AttrValue::Float(f64::NAN))],
        };
        let j = ev.to_json();
        assert!(j.contains("quote\\\"back\\\\slash\\nnewline\\u0001"));
        assert!(j.contains("\"k\":null"), "NaN must not leak: {j}");
    }

    #[test]
    fn integers_and_strings_encode_without_formatting() {
        let mut out = String::new();
        for v in [0, 7, 10, 1_577_836_800_123, u64::MAX] {
            out.clear();
            json::push_u64(&mut out, v);
            assert_eq!(out, v.to_string());
        }
        for v in [0, -1, 42, i64::MIN, i64::MAX] {
            out.clear();
            json::push_i64(&mut out, v);
            assert_eq!(out, v.to_string());
        }
        out.clear();
        json::push_string(&mut out, "π \u{1f}x\u{7f}\t");
        assert_eq!(out, "\"π \\u001fx\u{7f}\\t\"");
        let ev = TraceEvent {
            kind: EventKind::Begin,
            id: SpanId(12),
            parent: SpanId(3),
            name: "task".into(),
            mono_ns: 1_000_000_007,
            wall_unix_ms: 1_577_836_800_123,
            tid: 1,
            attrs: vec![
                ("outputs".into(), AttrValue::Str("n1 n2".into())),
                ("delta".into(), AttrValue::Int(-5)),
                ("ok".into(), AttrValue::Bool(true)),
            ],
        };
        assert_eq!(
            ev.to_json(),
            "{\"k\":\"B\",\"id\":12,\"p\":3,\"n\":\"task\",\"t\":1000000007,\
             \"w\":1577836800123,\"tid\":1,\"a\":{\"outputs\":\"n1 n2\",\"delta\":-5,\"ok\":true}}"
        );
    }

    #[test]
    fn attr_lookup_and_builder() {
        let mut a = AttrList::default();
        a.str("s", "x").int("i", -1).uint("u", 2).bool("b", true);
        let pairs = a.into_pairs();
        let ev = TraceEvent {
            kind: EventKind::Begin,
            id: SpanId(1),
            parent: SpanId::NONE,
            name: "task".into(),
            mono_ns: 0,
            wall_unix_ms: 0,
            tid: 0,
            attrs: pairs,
        };
        assert_eq!(ev.attr_str("s"), Some("x"));
        assert_eq!(ev.attr("i"), Some(&AttrValue::Int(-1)));
        assert_eq!(ev.attr("missing"), None);
        assert!(SpanId::NONE.is_none());
        assert_eq!(SpanId(4).to_string(), "s4");
    }
}
