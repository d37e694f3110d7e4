//! In-memory span recording for the traced run.
//!
//! Spans are taken by the benchmark's own wrappers around public calls
//! into each layer (layer = module), kept in memory, and written out once
//! when the run ends. A layer's self time is its span minus the part of
//! that interval its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval. `parent` indexes the span that was open when
/// this one started; `req` groups the spans of one request (0 = none).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

/// Span sink. A disabled recorder costs one branch per call, so the same
/// wrappers serve the untraced run.
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under whichever span is currently open.
    pub fn enter(&mut self, name: &'static str, req: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.push_open(name, start_ns, req);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        self.close(end_ns);
    }

    /// Runs `f` inside a span.
    pub fn within<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, req);
        let out = f();
        self.exit();
        out
    }

    fn push_open(&mut self, name: &'static str, start_ns: u64, req: u64) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(self.spans.len() - 1);
    }

    fn close(&mut self, end_ns: u64) {
        if let Some(id) = self.open.pop() {
            self.spans[id].end_ns = end_ns;
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration per span name, in nanoseconds.
    pub fn totals(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0) += s.end_ns - s.start_ns;
        }
        out
    }

    /// Self time per span name: each span's duration minus the duration of
    /// its direct children (children never overlap: one thread, one stack).
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(own) {
            *out.entry(s.name).or_insert(0) += ns;
        }
        out
    }

    /// The span file: one JSON object with the spans in recording order
    /// and the per-name self times, so "where did the time go" needs no
    /// second tool.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                parent,
                s.req,
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push_str("],\"self_ns\":{");
        let selfs: Vec<String> = self
            .self_times()
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        out.push_str(&selfs.join(","));
        out.push_str("}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds spans from explicit timestamps through the same open/close
    /// path the clocked calls use.
    fn scripted(events: &[(&'static str, u64, u64, u64)]) -> Recorder {
        // (name, start, end, req), given in start order; nesting is
        // derived from the intervals exactly as a call stack would.
        let mut r = Recorder::new(true);
        let mut ends: Vec<u64> = Vec::new();
        for &(name, start, end, req) in events {
            while ends.last().is_some_and(|&e| e <= start) {
                let e = ends.pop().unwrap();
                r.close(e);
            }
            r.push_open(name, start, req);
            ends.push(end);
        }
        while let Some(e) = ends.pop() {
            r.close(e);
        }
        r
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let r = scripted(&[
            ("engine.run", 0, 1000, 0),
            ("scheduler.plan_slot", 100, 300, 0),
            ("scheduler.plan_slot", 400, 450, 0),
            ("audit.certify", 1000, 1200, 0),
        ]);
        let own = r.self_times();
        assert_eq!(own["engine.run"], 1000 - 200 - 50);
        assert_eq!(own["scheduler.plan_slot"], 250);
        assert_eq!(own["audit.certify"], 200);
        assert_eq!(r.totals()["engine.run"], 1000);
        assert_eq!(r.spans()[1].parent, Some(0));
        assert_eq!(r.spans()[3].parent, None);
    }

    #[test]
    fn grandchildren_are_charged_to_their_parent_only() {
        let r = scripted(&[
            ("request", 0, 100, 7),
            ("session.handle", 10, 90, 7),
            ("wal.append", 20, 60, 7),
        ]);
        let own = r.self_times();
        assert_eq!(own["request"], 20);
        assert_eq!(own["session.handle"], 40);
        assert_eq!(own["wal.append"], 40);
        assert!(r.spans().iter().all(|s| s.req == 7));
        assert!(r.to_json().contains("\"self_ns\":{"));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        assert_eq!(r.within("x", 0, || 5), 5);
        assert!(r.spans().is_empty());
    }
}
