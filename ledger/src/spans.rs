//! Spans recorded by the ledger itself, around the calls it makes into each
//! layer's public functions. Nothing inside the program under test is
//! instrumented: a span is `{name, start_ns, end_ns, parent, req}` taken on
//! the caller's side, kept in memory, and written out once at exit.
//!
//! A layer's *self time* is its span's duration minus the part of that
//! interval its direct children cover, so the self times of a tree always
//! add up to the root's duration.

use std::collections::BTreeMap;
use std::time::Instant;

/// Which request a span belongs to: (workload rep, matcher, cycle) for the
/// direct workloads, (connection, session, command seq) for served ones.
pub type Req = [u32; 3];

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub req: Req,
}

/// One thread's span log. `enter`/`exit` nest: the innermost open span is
/// the parent of the next `enter`.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    /// All recorders of one run share `origin`, so their spans share a clock.
    pub fn new(origin: Instant) -> Recorder {
        Recorder {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, req: Req) {
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(id);
    }

    pub fn exit(&mut self) {
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id as usize].end_ns = self.now();
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "span log closed with open spans");
        self.spans
    }
}

/// `enter` on a recorder that may be off (the end-to-end passes run with
/// `None`).
pub fn enter(rec: &mut Option<Recorder>, name: &'static str, req: Req) {
    if let Some(r) = rec {
        r.enter(name, req);
    }
}

/// `exit` on a recorder that may be off.
pub fn exit(rec: &mut Option<Recorder>) {
    if let Some(r) = rec {
        r.exit();
    }
}

/// Appends `more` (one recorder's log) to `all`, re-basing parent indices.
pub fn merge(all: &mut Vec<Span>, more: Vec<Span>) {
    let base = all.len() as u32;
    all.extend(more.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Self time of every span: duration minus the union of its direct
/// children's intervals (clipped to the span). Children may nest further,
/// sit back to back, or overlap; only the covered length is subtracted.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                kids[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(kids.iter_mut())
        .map(|(s, k)| {
            k.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in k.iter() {
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

/// Per-name totals over a span log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += own;
    }
    out
}

/// Σ self time over the whole log ÷ Σ duration of the root spans. By
/// construction this is 1 up to clock granularity; the traced pass asserts
/// it stays within 5 % so a span recorded outside its parent shows up.
pub fn coverage(spans: &[Span]) -> f64 {
    let roots: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let selfs: u64 = self_times(spans).iter().sum();
    if roots == 0 {
        1.0
    } else {
        selfs as f64 / roots as f64
    }
}

/// Serialises the log as a JSON array, one span per line.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + 4);
    out.push_str("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = match s.parent {
            Some(p) => p.to_string(),
            None => "null".into(),
        };
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":[{},{},{}]}}{}\n",
            s.name,
            s.start_ns,
            s.end_ns,
            s.req[0],
            s.req[1],
            s.req[2],
            if i + 1 == spans.len() { "" } else { "," }
        ));
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: [0, 0, 0],
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),  // child
            span("b", 40, 60, Some(0)),  // adjacent to a
            span("a1", 15, 25, Some(1)), // nested in a: must not count against root
            span("c", 90, 100, Some(0)), // touches root's end
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 20, 10, 10]);
        assert!((coverage(&spans) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once_and_clipped() {
        let spans = vec![
            span("root", 100, 200, None),
            span("x", 110, 150, Some(0)),
            span("y", 140, 170, Some(0)), // overlaps x by 10
            span("z", 190, 230, Some(0)), // hangs 30 past the parent
            span("w", 120, 130, Some(0)), // fully inside x
        ];
        // covered: [110,170) = 60 plus [190,200) = 10
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn totals_group_by_name_and_coverage_flags_orphans() {
        let spans = vec![
            span("run", 0, 50, None),
            span("match", 0, 20, Some(0)),
            span("match", 30, 40, Some(0)),
            span("run", 50, 80, None),
        ];
        let t = totals_by_name(&spans);
        assert_eq!(
            t["match"],
            NameTotal {
                count: 2,
                total_ns: 30,
                self_ns: 30
            }
        );
        assert_eq!(
            t["run"],
            NameTotal {
                count: 2,
                total_ns: 80,
                self_ns: 50
            }
        );
        assert!((coverage(&spans) - 1.0).abs() < 1e-12);
        // A child recorded entirely outside its parent inflates self time.
        let bad = vec![span("root", 0, 10, None), span("late", 20, 40, Some(0))];
        assert!(coverage(&bad) > 1.05);
    }

    #[test]
    fn recorder_nests_and_merge_rebases_parents() {
        let origin = Instant::now();
        let mut r = Recorder::new(origin);
        r.enter("outer", [1, 2, 3]);
        for seq in [4, 5] {
            r.enter("inner", [1, 2, seq]);
            r.exit();
        }
        r.exit();
        let a = r.into_spans();
        assert_eq!(a.len(), 3);
        assert_eq!(
            (a[0].parent, a[1].parent, a[2].parent),
            (None, Some(0), Some(0))
        );
        assert!(a[1].end_ns <= a[2].start_ns && a[2].end_ns <= a[0].end_ns);
        let mut all = a.clone();
        merge(&mut all, a);
        assert_eq!(all[4].parent, Some(3));
        assert_eq!(all[3].parent, None);
        let json = to_json(&all);
        assert_eq!(json.lines().count(), all.len() + 2);
        assert!(json.contains("\"req\":[1,2,5]"));
    }
}
