//! The harness's own spans, recorded around each call into a crate.
//!
//! The harness is single-threaded, so open spans form a stack and a
//! span's parent is whatever was open when it started. Every call is
//! timed the same way in both modes; a traced run additionally keeps the
//! span, and writes all of them out when the run ends.

use std::time::Instant;

use sa_json::Json;

/// One closed span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `core.stage1`; harness spans are `bench.*`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Spans of one operation share its id; 0 = outside any operation.
    pub op: u64,
}

/// Handle of an open span; close it with [`Tracer::close`].
#[derive(Debug)]
#[must_use = "an open span must be closed"]
pub struct Open {
    name: &'static str,
    start: Instant,
    slot: Option<usize>,
}

#[derive(Debug)]
pub struct Tracer {
    recording: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(recording: bool) -> Self {
        Tracer {
            recording,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    pub fn recording(&self) -> bool {
        self.recording
    }

    /// Starts the next operation: spans opened from now on carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Ends the current operation: later spans belong to none.
    pub fn end_ops(&mut self) {
        self.op = 0;
    }

    pub fn open(&mut self, name: &'static str) -> Open {
        let parent = self.stack.last().copied();
        let slot = self.recording.then(|| {
            // Reserve the slot now so children can name it as parent.
            self.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                op: self.op,
            });
            let slot = self.spans.len() - 1;
            self.stack.push(slot);
            slot
        });
        Open {
            name,
            start: Instant::now(),
            slot,
        }
    }

    /// Closes `open` and returns its duration in milliseconds.
    pub fn close(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(slot) = open.slot {
            let popped = self.stack.pop();
            assert_eq!(popped, Some(slot), "span {} closed out of order", open.name);
            let span = &mut self.spans[slot];
            span.start_ns = (open.start - self.epoch).as_nanos() as u64;
            span.end_ns = (end - self.epoch).as_nanos() as u64;
        }
        (end - open.start).as_secs_f64() * 1e3
    }

    /// Times `f` under a span; returns its result and milliseconds.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.open(name);
        let out = f();
        (out, self.close(open))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Cost of opening and closing one recorded span, in nanoseconds,
    /// measured on a scratch tracer.
    pub fn span_cost_ns() -> f64 {
        const PAIRS: usize = 200_000;
        let mut scratch = Tracer::new(true);
        scratch.spans.reserve(PAIRS);
        let start = Instant::now();
        for _ in 0..PAIRS {
            let open = scratch.open("bench.calibrate");
            scratch.close(open);
        }
        std::hint::black_box(&scratch.spans);
        start.elapsed().as_nanos() as f64 / PAIRS as f64
    }

    pub fn to_json(&self) -> Json {
        let selfs = self_times_ns(&self.spans);
        Json::Array(
            self.spans
                .iter()
                .zip(&selfs)
                .enumerate()
                .map(|(id, (s, &self_ns))| {
                    Json::Object(vec![
                        ("id".to_string(), Json::Int(id as i64)),
                        ("name".to_string(), Json::Str(s.name.to_string())),
                        ("start_ns".to_string(), Json::Int(s.start_ns as i64)),
                        ("end_ns".to_string(), Json::Int(s.end_ns as i64)),
                        (
                            "parent".to_string(),
                            s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                        ),
                        ("op".to_string(), Json::Int(s.op as i64)),
                        ("self_ns".to_string(), Json::Int(self_ns as i64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (children may overlap or poke outside the
/// parent; only the covered part inside the parent is subtracted).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            );
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a` by ten: the union covers 10..60, not 30 + 30.
            span("b", 30, 60, Some(0)),
            // Pokes past the parent's end: only 90..100 counts.
            span("c", 90, 120, Some(0)),
            span("grandchild", 12, 20, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 22, 30, 30, 8]);
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let spans = vec![span("leaf", 5, 25, None)];
        assert_eq!(self_times_ns(&spans), vec![20]);
    }

    #[test]
    fn tracer_nests_and_tags_operations() {
        let mut tr = Tracer::new(true);
        tr.next_op();
        let outer = tr.open("bench.op");
        let ((), inner_ms) = tr.time("core.forward", || {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        let outer_ms = tr.close(outer);
        tr.end_ops();
        let ((), _) = tr.time("tensor.probe", || {});
        assert!(outer_ms >= inner_ms && inner_ms >= 2.0);
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            (spans[0].name, spans[0].parent, spans[0].op),
            ("bench.op", None, 1)
        );
        assert_eq!(
            (spans[1].name, spans[1].parent, spans[1].op),
            ("core.forward", Some(0), 1)
        );
        assert_eq!((spans[2].parent, spans[2].op), (None, 0));
        // The parent's self time excludes the child.
        let selfs = self_times_ns(spans);
        assert_eq!(selfs[0], (spans[0].end_ns - spans[0].start_ns) - selfs[1]);
    }

    #[test]
    fn untraced_tracer_times_but_keeps_nothing() {
        let mut tr = Tracer::new(false);
        let (v, ms) = tr.time("core.forward", || 7);
        assert_eq!(v, 7);
        assert!(ms >= 0.0);
        assert!(tr.spans().is_empty());
    }
}
