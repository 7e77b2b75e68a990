//! Spans recorded from the benchmark's own files, around the calls into
//! each layer's public functions. They stay in memory while the workload
//! runs and are written out once, when it ends.

use patty_json::Json;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, within the same recorder.
    pub parent: Option<usize>,
    /// Spans of one op share this identifier.
    pub op: u64,
}

/// One recorder per thread (or child process); merged when the run ends.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Spans recorded from here on belong to op `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Run `f` and return its wall time; with tracing on, also record a
    /// span, nested under whichever span is open. The timed and the
    /// traced run execute this same code, so the tracing overhead is the
    /// one `Vec::push` per span.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> (R, Duration) {
        let start = Instant::now();
        let slot = self.on.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: 0,
                parent: self.open.last().copied(),
                op: self.op,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let out = f(self);
        let end = Instant::now();
        if let Some(slot) = slot {
            self.open.pop();
            self.spans[slot].end_ns = (end - self.epoch).as_nanos() as u64;
        }
        (out, end - start)
    }
}

#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part of it that child spans cover.
    pub self_ns: u64,
}

/// Per span name, over every recorder: how often, how long, and how
/// long on its own. `parent` indexes within a span's own recorder.
pub fn totals(recorders: &[Vec<Span>]) -> BTreeMap<String, NameTotal> {
    let mut out: BTreeMap<String, NameTotal> = BTreeMap::new();
    for spans in recorders {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        for (s, covered) in spans.iter().zip(child_ns) {
            let t = out.entry(s.name.clone()).or_default();
            let dur = s.end_ns - s.start_ns;
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(covered);
        }
    }
    out
}

pub fn span_to_json(s: &Span) -> Json {
    Json::obj()
        .with("name", s.name.as_str())
        .with("start_ns", s.start_ns)
        .with("end_ns", s.end_ns)
        .with("parent", s.parent.map_or(Json::Null, Json::from))
        .with("op", s.op)
}

pub fn span_from_json(v: &Json) -> Option<Span> {
    Some(Span {
        name: v.get("name")?.as_str()?.to_string(),
        start_ns: v.get("start_ns")?.as_i64()? as u64,
        end_ns: v.get("end_ns")?.as_i64()? as u64,
        parent: v.get("parent")?.as_i64().map(|p| p as usize),
        op: v.get("op")?.as_i64()? as u64,
    })
}

/// The trace file: one array of spans per recorder.
pub fn to_json(workload: &str, recorders: &[Vec<Span>]) -> Json {
    let recs = recorders
        .iter()
        .map(|spans| Json::Arr(spans.iter().map(span_to_json).collect()))
        .collect();
    Json::obj()
        .with("workload", workload)
        .with("recorders", Json::Arr(recs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_gives_parents_and_self_time() {
        let mut tr = Tracer::new(true, Instant::now());
        tr.set_op(7);
        tr.time("op", |tr| {
            tr.time("leaf", |_| std::thread::sleep(Duration::from_millis(2)));
            tr.time("leaf", |_| ());
        });
        assert_eq!(tr.spans.len(), 3);
        assert_eq!(tr.spans[0].parent, None);
        assert_eq!(tr.spans[1].parent, Some(0));
        assert_eq!(tr.spans[2].parent, Some(0));
        assert!(tr.spans.iter().all(|s| s.op == 7));
        let t = totals(std::slice::from_ref(&tr.spans));
        assert_eq!(t["leaf"].count, 2);
        assert_eq!(t["op"].self_ns, t["op"].total_ns - t["leaf"].total_ns);
        let back: Vec<Span> = tr
            .spans
            .iter()
            .map(|s| span_from_json(&span_to_json(s)).unwrap())
            .collect();
        assert_eq!(back, tr.spans);
    }

    #[test]
    fn disabled_recorder_still_times_but_keeps_nothing() {
        let mut tr = Tracer::new(false, Instant::now());
        let ((), d) = tr.time("x", |_| std::thread::sleep(Duration::from_millis(1)));
        assert!(d >= Duration::from_millis(1));
        assert!(tr.spans.is_empty());
    }
}
