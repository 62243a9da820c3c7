//! In-memory spans for the traced run.
//!
//! Each span records its name, start, end, parent and request id. Every
//! thread fills its own [`Tracer`] (no lock on the measured path); the
//! run merges them and writes one JSON line per span at exit. A layer's
//! *self time* is its span's duration minus the part of that interval
//! its child spans cover, counted once however the children overlap.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the run's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of this span in the merged trace.
    pub id: usize,
    /// What the interval covers (`request`, `send`, `eval`, …).
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// The span that caused this one, if any.
    pub parent: Option<usize>,
    /// The request every span of one query shares.
    pub request: u64,
}

/// A per-thread span recorder. `None` tracers record nothing, so the
/// untraced run pays one branch per boundary.
pub struct Tracer {
    epoch: Instant,
    spans: Option<Vec<Span>>,
}

impl Tracer {
    /// A recorder against `epoch`; `enabled == false` records nothing.
    pub fn new(epoch: Instant, enabled: bool) -> Tracer {
        Tracer {
            epoch,
            spans: enabled.then(Vec::new),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    /// Nanoseconds from the epoch to `t` (0 for instants before it).
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records `[start, end]` and returns its id (local to this tracer
    /// until [`merge`] renumbers it).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> Option<usize> {
        let (start, end) = (self.ns(start), self.ns(end));
        let spans = self.spans.as_mut()?;
        let id = spans.len();
        spans.push(Span {
            id,
            name,
            start,
            end,
            parent,
            request,
        });
        Some(id)
    }

    /// The spans recorded so far.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.unwrap_or_default()
    }
}

/// Concatenates per-thread traces, renumbering ids and parents so they
/// stay unique.
pub fn merge(parts: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::new();
    for part in parts {
        let base = out.len();
        out.extend(part.into_iter().map(|mut s| {
            s.id += base;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Makes every parentless span that is not a `root` span a child of
/// the `root` span of its request. Spans recorded on different threads
/// (a sender and a receiver) are linked this way after the merge.
pub fn adopt(spans: &mut [Span], root: &str) {
    let roots: std::collections::HashMap<u64, usize> = spans
        .iter()
        .filter(|s| s.name == root)
        .map(|s| (s.request, s.id))
        .collect();
    for s in spans.iter_mut() {
        if s.parent.is_none() && s.name != root {
            s.parent = roots.get(&s.request).copied();
        }
    }
}

/// Time inside `parent` that no child covers. Children are clipped to
/// the parent, and overlapping or nested children are unioned first,
/// so no instant is subtracted twice.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (lo, hi) = parent;
    if hi <= lo {
        return 0;
    }
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut run: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match run {
            Some((rs, re)) if s <= re => run = Some((rs, re.max(e))),
            Some((rs, re)) => {
                covered += re - rs;
                run = Some((s, e));
            }
            None => run = Some((s, e)),
        }
    }
    if let Some((rs, re)) = run {
        covered += re - rs;
    }
    (hi - lo) - covered
}

/// Self time, in µs, of every span named `name`.
pub fn self_times_us(spans: &[Span], name: &str) -> Vec<f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| self_time((s.start, s.end), &children[s.id]) as f64 / 1e3)
        .collect()
}

/// Durations, in µs, of every span named `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end.saturating_sub(s.start) as f64 / 1e3)
        .collect()
}

/// Writes one JSON object per span.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
            s.id, s.name, s.start, s.end, parent, s.request
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_without_children_is_the_whole_span() {
        assert_eq!(self_time((10, 50), &[]), 40);
        assert_eq!(self_time((50, 10), &[(20, 30)]), 0);
    }

    #[test]
    fn disjoint_children_are_each_subtracted() {
        assert_eq!(self_time((0, 100), &[(10, 20), (50, 80)]), 60);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // [10,40) ∪ [30,60) = [10,60): 50 covered, not 60.
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 60)]), 50);
        // Order of the children does not matter.
        assert_eq!(self_time((0, 100), &[(30, 60), (10, 40)]), 50);
        // Touching intervals merge without a gap or double count.
        assert_eq!(self_time((0, 100), &[(10, 20), (20, 30)]), 80);
    }

    #[test]
    fn nested_children_are_counted_once() {
        // [20,30) lies inside [10,50): only 40 covered.
        assert_eq!(self_time((0, 100), &[(10, 50), (20, 30)]), 60);
        // A child identical to the parent leaves no self time.
        assert_eq!(self_time((0, 100), &[(0, 100), (5, 6)]), 0);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        // A receive that began before its request was due counts only
        // from the due time on.
        assert_eq!(self_time((100, 200), &[(50, 150)]), 50);
        assert_eq!(self_time((100, 200), &[(150, 300)]), 50);
        assert_eq!(self_time((100, 200), &[(0, 50), (250, 300)]), 100);
    }

    #[test]
    fn merged_traces_keep_parents_pointing_at_their_own_thread() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch, true);
        let root = a.record("request", epoch, epoch, None, 1);
        a.record("send", epoch, epoch, root, 1);
        let mut b = Tracer::new(epoch, true);
        let root_b = b.record("request", epoch, epoch, None, 2);
        b.record("recv", epoch, epoch, root_b, 2);
        let spans = merge(vec![a.into_spans(), b.into_spans()]);
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[3].request, spans[2].request);
        for (i, s) in spans.iter().enumerate() {
            assert_eq!(s.id, i);
        }
    }

    #[test]
    fn adopt_links_spans_of_one_request_across_threads() {
        let epoch = Instant::now();
        let mut sender = Tracer::new(epoch, true);
        sender.record("send", epoch, epoch, None, 7);
        sender.record("send", epoch, epoch, None, 8);
        let mut receiver = Tracer::new(epoch, true);
        receiver.record("request", epoch, epoch, None, 8);
        receiver.record("request", epoch, epoch, None, 7);
        let mut spans = merge(vec![sender.into_spans(), receiver.into_spans()]);
        adopt(&mut spans, "request");
        assert_eq!(spans[0].parent, Some(3));
        assert_eq!(spans[1].parent, Some(2));
        assert_eq!(spans[2].parent, None);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch, false);
        assert_eq!(t.record("eval", epoch, epoch, None, 0), None);
        assert!(!t.enabled());
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn self_times_use_the_recorded_hierarchy() {
        let mk = |id, name, start, end, parent| Span {
            id,
            name,
            start,
            end,
            parent,
            request: 0,
        };
        let spans = vec![
            mk(0, "request", 0, 10_000, None),
            mk(1, "send", 0, 2_000, Some(0)),
            mk(2, "recv", 1_000, 6_000, Some(0)),
        ];
        assert_eq!(self_times_us(&spans, "request"), vec![4.0]);
        assert_eq!(durations_us(&spans, "recv"), vec![5.0]);
    }
}
