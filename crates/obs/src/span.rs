//! Span and event types: the wire format of the tracing core.

use std::fmt;

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
    /// A string.
    Str(String),
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

/// A builder over an attribute list, passed to the `*_with` tracer
/// methods so attribute construction is skipped entirely when tracing
/// is disabled.
#[derive(Debug, Default)]
pub struct AttrList {
    pairs: Vec<(String, AttrValue)>,
}

impl AttrList {
    /// Adds a string attribute.
    pub fn str(&mut self, key: &str, value: impl Into<String>) -> &mut AttrList {
        self.pairs.push((key.into(), AttrValue::Str(value.into())));
        self
    }

    /// Adds a signed integer attribute.
    pub fn int(&mut self, key: &str, value: i64) -> &mut AttrList {
        self.pairs.push((key.into(), AttrValue::Int(value)));
        self
    }

    /// Adds an unsigned integer attribute.
    pub fn uint(&mut self, key: &str, value: u64) -> &mut AttrList {
        self.pairs.push((key.into(), AttrValue::UInt(value)));
        self
    }

    /// Adds a boolean attribute.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut AttrList {
        self.pairs.push((key.into(), AttrValue::Bool(value)));
        self
    }

    /// Consumes the builder into its pairs.
    pub fn into_pairs(self) -> Vec<(String, AttrValue)> {
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
    /// `retry`, …).
    pub name: String,
    /// Monotonic nanoseconds since the tracer's epoch.
    pub mono_ns: u64,
    /// Wall-clock milliseconds since the Unix epoch (derived from the
    /// tracer's epoch pair, so it is consistent with `mono_ns`).
    pub wall_unix_ms: u64,
    /// Small integer lane for the emitting thread (0 = the thread that
    /// created the tracer saw it first).
    pub tid: u64,
    /// Typed attributes.
    pub attrs: Vec<(String, AttrValue)>,
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
        out.push_str("{\"k\":\"");
        out.push_str(self.kind.code());
        out.push_str("\",\"id\":");
        out.push_str(&self.id.0.to_string());
        out.push_str(",\"p\":");
        out.push_str(&self.parent.0.to_string());
        out.push_str(",\"n\":");
        json::push_string(&mut out, &self.name);
        out.push_str(",\"t\":");
        out.push_str(&self.mono_ns.to_string());
        out.push_str(",\"w\":");
        out.push_str(&self.wall_unix_ms.to_string());
        out.push_str(",\"tid\":");
        out.push_str(&self.tid.to_string());
        if !self.attrs.is_empty() {
            out.push_str(",\"a\":");
            json::push_attrs(&mut out, &self.attrs);
        }
        out.push('}');
        out
    }
}

/// Minimal JSON encoding helpers (the crate is dependency-free).
pub(crate) mod json {
    use super::AttrValue;

    /// Appends `s` as a JSON string literal.
    pub fn push_string(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    /// Appends a float in a JSON-safe rendering (no NaN/Inf literals).
    pub fn push_float(out: &mut String, v: f64) {
        if v.is_finite() {
            out.push_str(&format!("{v}"));
        } else {
            out.push_str("null");
        }
    }

    /// Appends an attribute map `{"k":v,…}`.
    pub fn push_attrs(out: &mut String, attrs: &[(String, AttrValue)]) {
        out.push('{');
        for (i, (k, v)) in attrs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_string(out, k);
            out.push(':');
            match v {
                AttrValue::Str(s) => push_string(out, s),
                AttrValue::Int(n) => out.push_str(&n.to_string()),
                AttrValue::UInt(n) => out.push_str(&n.to_string()),
                AttrValue::Float(f) => push_float(out, *f),
                AttrValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            }
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
