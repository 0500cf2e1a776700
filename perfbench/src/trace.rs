//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out when the run ends.
//!
//! Each thread owns a [`Tracer`]; ids carry the thread's tag in their high
//! bits, so the per-thread lists merge without renumbering.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// Request id shared by the spans of one read or write.
    pub request: Option<u64>,
    /// Nanoseconds since the run's origin.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    tag: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant, tag: u8) -> Self {
        Tracer {
            enabled,
            origin,
            tag: u64::from(tag) << 40,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records `[start, end)` and returns the span's id (0 when off).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.tag | (self.spans.len() as u64 + 1);
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id,
            parent,
            name,
            request,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    /// Records back-to-back child spans of `parent` from a layer's own
    /// stage durations, laid end to end from `start`.
    pub fn record_stages(
        &mut self,
        parent: u64,
        request: Option<u64>,
        start: Instant,
        stages: &[(&'static str, Duration)],
    ) {
        let mut at = start;
        for &(name, duration) in stages {
            self.record(name, Some(parent), request, at, at + duration);
            at += duration;
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time per span name: each span's duration minus the part of it
/// its children cover (overlapping children counted once).
pub fn self_time_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
        }
        *out.entry(s.name).or_insert(0) += s.duration_ns() - covered;
    }
    out
}

/// One JSON object per line.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"request\": {}, \"start_ns\": {}, \
             \"end_ns\": {}}}",
            s.id,
            opt(s.parent),
            s.name,
            opt(s.request),
            s.start_ns,
            s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            request: None,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, "apply", 0, 10),
            span(2, Some(1), "journal", 1, 3),
            span(3, Some(1), "resolve", 2, 5),
            span(4, Some(1), "checkpoint", 8, 12),
        ];
        let t = self_time_ns(&spans);
        assert_eq!(t["apply"], 4);
        assert_eq!(t["journal"], 2);
        assert_eq!(t["checkpoint"], 4);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let now = Instant::now();
        let mut off = Tracer::new(false, now, 1);
        assert_eq!(off.record("x", None, None, now, now), 0);
        assert!(off.into_spans().is_empty());
    }

    #[test]
    fn stages_are_laid_end_to_end_under_their_parent() {
        let origin = Instant::now();
        let mut t = Tracer::new(true, origin, 3);
        let parent = t.record(
            "build",
            None,
            None,
            origin,
            origin + Duration::from_micros(10),
        );
        t.record_stages(
            parent,
            None,
            origin,
            &[
                ("ordering", Duration::from_micros(2)),
                ("inversion", Duration::from_micros(7)),
            ],
        );
        let spans = t.into_spans();
        assert_eq!(spans[0].id >> 40, 3);
        assert_eq!((spans[1].start_ns, spans[1].end_ns), (0, 2_000));
        assert_eq!((spans[2].start_ns, spans[2].end_ns), (2_000, 9_000));
        assert_eq!(self_time_ns(&spans)["build"], 1_000);
    }
}
