//! Spans the benchmark records around its own calls into the program's
//! layers: kept in memory, summarised into self times, and written out as
//! JSON lines when the run ends.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within its log, starting at 1.
    pub id: u64,
    /// The enclosing span on the same thread, 0 at the root.
    pub parent: u64,
    /// Layer boundary, e.g. `llm.model`.
    pub name: &'static str,
    /// Benchmark-assigned thread number.
    pub thread: u64,
    /// Start, in nanoseconds since the log was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the log was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans of this name.
    pub calls: u64,
    /// Summed durations, seconds.
    pub busy_s: f64,
    /// Summed durations minus the time their child spans cover, seconds.
    pub self_s: f64,
}

/// An in-memory span log. A disabled log records nothing and costs one
/// branch per call.
pub struct SpanLog {
    epoch: Instant,
    enabled: bool,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = next_thread();
}

fn next_thread() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl SpanLog {
    /// A log that records when `enabled`.
    pub fn new(enabled: bool) -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            enabled,
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; it closes when the guard drops.
    pub fn enter(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard { log: self, open: None };
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|o| {
            let mut o = o.borrow_mut();
            let parent = o.last().copied().unwrap_or(0);
            o.push(id);
            parent
        });
        SpanGuard { log: self, open: Some((id, parent, name, self.now_ns())) }
    }

    /// Every closed span.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    /// Write the spans as JSON lines, one span per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span log poisoned").iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.thread, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    log: &'a SpanLog,
    open: Option<(u64, u64, &'static str, u64)>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some((id, parent, name, start_ns)) = self.open.take() else {
            return;
        };
        let end_ns = self.log.now_ns();
        OPEN.with(|o| {
            let mut o = o.borrow_mut();
            if let Some(pos) = o.iter().rposition(|&x| x == id) {
                o.remove(pos);
            }
        });
        let thread = THREAD.with(|t| *t);
        let span = Span { id, parent, name, thread, start_ns, end_ns };
        if let Ok(mut spans) = self.log.spans.lock() {
            spans.push(span);
        }
    }
}

/// Calls, busy time and self time per span name. A span's self time is
/// its duration minus the durations of its direct children.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.dur_ns();
    }
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        let children = child_ns.get(&s.id).copied().unwrap_or(0);
        t.calls += 1;
        t.busy_s += s.dur_ns() as f64 * 1e-9;
        t.self_s += s.dur_ns().saturating_sub(children) as f64 * 1e-9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Attribution;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span { id, parent, name, thread: 1, start_ns: start, end_ns: end }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        // stack [0, 100) holds model [10, 70); a second stack call has no child.
        let spans = [
            span(1, 0, "stack", 0, 100),
            span(2, 1, "model", 10, 70),
            span(3, 0, "stack", 200, 230),
        ];
        let t = layer_totals(&spans);
        assert_eq!(t["stack"].calls, 2);
        assert!((t["stack"].busy_s - 130e-9).abs() < 1e-15);
        assert!((t["stack"].self_s - 70e-9).abs() < 1e-15);
        assert!((t["model"].self_s - 60e-9).abs() < 1e-15);
    }

    #[test]
    fn self_times_and_unattributed_add_up_to_the_root() {
        // request [0, 1000) → handler [100, 900) → model [200, 700).
        let spans = [
            span(1, 0, "request", 0, 1000),
            span(2, 1, "handler", 100, 900),
            span(3, 2, "model", 200, 700),
        ];
        let t = layer_totals(&spans);
        let whole = t["request"].busy_s;
        let a = Attribution {
            whole,
            parts: vec![("handler", t["handler"].self_s), ("model", t["model"].self_s)],
        };
        // The request's own self time is exactly what the parts leave.
        assert!((a.unattributed() - t["request"].self_s).abs() < 1e-15);
        let total_self: f64 = t.values().map(|l| l.self_s).sum();
        assert!((total_self - whole).abs() < 1e-15);
    }

    #[test]
    fn guards_nest_and_disabled_logs_record_nothing() {
        let log = SpanLog::new(true);
        {
            let _outer = log.enter("outer");
            let _inner = log.enter("inner");
        }
        let spans = log.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);

        let off = SpanLog::new(false);
        drop(off.enter("x"));
        assert!(off.spans().is_empty());
    }
}
