//! In-memory span recorder for the traced run.
//!
//! One span per call (or per same-kind run of calls) into a layer, named
//! `<layer>.<function>`: name, start, end, the span that caused it, and
//! the id shared by all spans of one epoch, net launch or audit
//! repetition. Spans are kept in memory and written out when the
//! workload ends. A layer's *self time* is its spans' duration minus the
//! part their child spans cover. With the recorder off (`--trace 0`)
//! `enter`/`exit` return without reading the clock.

use crate::clock::now_ns;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One recorded span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span, `NO_SPAN` at the root.
    pub parent: u32,
    /// Epoch / net launch / audit repetition this span belongs to.
    pub id: u32,
    /// Layer calls the span covers (e.g. 24 `begin_*` calls of one epoch).
    pub calls: u32,
}

pub const NO_SPAN: u32 = u32::MAX;

/// Self time and call count of one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SelfTime {
    pub ns: u64,
    pub calls: u64,
}

#[derive(Default)]
pub struct Recorder {
    on: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
    /// Id stamped on spans entered from now on.
    pub id: u32,
}

impl Recorder {
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on,
            ..Recorder::default()
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Number of spans recorded so far: a mark for [`Recorder::self_times`].
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        if !self.on {
            return NO_SPAN;
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start: now_ns(),
            end: 0,
            parent: self.open.last().copied().unwrap_or(NO_SPAN),
            id: self.id,
            calls: 1,
        });
        self.open.push(idx);
        idx
    }

    /// Close `span` (the innermost open one), recording how many layer
    /// calls it covered.
    pub fn exit_calls(&mut self, span: u32, calls: u32) {
        if span == NO_SPAN {
            return;
        }
        let end = now_ns();
        assert_eq!(self.open.pop(), Some(span), "spans must nest");
        let s = &mut self.spans[span as usize];
        s.end = end;
        s.calls = calls;
    }

    pub fn exit(&mut self, span: u32) {
        self.exit_calls(span, 1);
    }

    /// Self time per span name over the spans recorded in `from..to`:
    /// each span's duration minus the durations of its direct children.
    pub fn self_times(&self, from: usize, to: usize) -> Layers {
        let spans = &self.spans[from..to];
        let mut covered = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != NO_SPAN && s.parent as usize >= from {
                covered[s.parent as usize - from] += s.end - s.start;
            }
        }
        let mut out = Layers::new();
        for (s, child_ns) in spans.iter().zip(covered) {
            let e = out.entry(s.name).or_default();
            e.ns += (s.end - s.start).saturating_sub(child_ns);
            e.calls += s.calls as u64;
        }
        out
    }

    /// Forget the spans after `mark` (later passes repeat the first one;
    /// only the first is written out).
    pub fn truncate(&mut self, mark: usize) {
        assert!(self.open.iter().all(|&i| (i as usize) < mark));
        self.spans.truncate(mark);
    }

    /// The spans as a JSON array, one object per line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_SPAN {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = write!(
                out,
                "{{\"span\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"id\": {}, \"calls\": {}}}",
                s.name, s.start, s.end, s.id, s.calls
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }

    #[cfg(test)]
    fn push_raw(&mut self, name: &'static str, start: u64, end: u64, parent: u32) {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            id: 0,
            calls: 1,
        });
    }
}

/// Self time per span name.
pub type Layers = BTreeMap<&'static str, SelfTime>;

/// Self time and calls summed over the spans named `<layer>.…`.
pub fn layer_total(times: &Layers, layer: &str) -> SelfTime {
    let mut total = SelfTime::default();
    for (name, t) in times {
        if name.split('.').next() == Some(layer) {
            total.ns += t.ns;
            total.calls += t.calls;
        }
    }
    total
}

/// Add every span's self time of `from` into `into`.
pub fn merge_layers(into: &mut Layers, from: &Layers) {
    for (name, t) in from {
        let e = into.entry(name).or_default();
        e.ns += t.ns;
        e.calls += t.calls;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let mut r = Recorder::new(true);
        // root 0..100 { a 10..40 { b 15..25 }, a 50..70, c 70..90 }
        r.push_raw("bench.root", 0, 100, NO_SPAN);
        r.push_raw("x.a", 10, 40, 0);
        r.push_raw("y.b", 15, 25, 1);
        r.push_raw("x.a", 50, 70, 0);
        r.push_raw("y.c", 70, 90, 0);
        let t = r.self_times(0, r.mark());
        assert_eq!(t["bench.root"].ns, 100 - 30 - 20 - 20);
        assert_eq!(
            t["x.a"],
            SelfTime {
                ns: 20 + 20,
                calls: 2
            }
        );
        assert_eq!(t["y.b"].ns, 10);
        assert_eq!(t["y.c"].ns, 20);
        // Self times partition the root span exactly.
        assert_eq!(t.values().map(|s| s.ns).sum::<u64>(), 100);
        assert_eq!(layer_total(&t, "y"), SelfTime { ns: 30, calls: 2 });
        // A sub-range ignores parents outside it.
        let sub = r.self_times(1, 3);
        assert_eq!(sub["x.a"].ns, 20);
        assert_eq!(sub["y.b"].ns, 10);
    }

    #[test]
    fn an_off_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        let s = r.enter("x.a");
        r.exit(s);
        assert_eq!(r.mark(), 0);
        assert_eq!(r.to_json(), "[\n]");
    }

    #[test]
    fn live_spans_nest_under_the_open_span() {
        let mut r = Recorder::new(true);
        let a = r.enter("x.a");
        let b = r.enter("y.b");
        r.exit_calls(b, 24);
        r.exit(a);
        let t = r.self_times(0, 2);
        assert_eq!(t["y.b"].calls, 24);
        assert!(r.to_json().contains("\"parent\": 0"));
    }
}
