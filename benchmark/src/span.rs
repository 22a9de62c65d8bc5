//! In-memory spans recorded by the harness around its calls into a layer.
//!
//! A span is named `<layer>.<what>` (`memsim.stackdist_lru`,
//! `harness.round`). Nesting on one thread is implicit — the innermost
//! open span is the parent — and a job handed to a worker thread names
//! its parent explicitly. Spans live in memory until the run ends and are
//! then written as one JSON file.

use crate::json::{arr, num, obj, text, uint, Json};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a span within one [`Tracer`].
pub type SpanId = u32;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Identifier, unique within the tracer.
    pub id: SpanId,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// `<layer>.<what>`.
    pub name: &'static str,
    /// Free-form subject (benchmark name, endpoint), may be empty.
    pub detail: String,
    /// Small per-thread ordinal.
    pub thread: u32,
    /// Nanoseconds from the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds from the tracer's epoch.
    pub end_ns: u64,
}

thread_local! {
    static CURRENT: Cell<Option<SpanId>> = const { Cell::new(None) };
    static THREAD_ORDINAL: Cell<u32> = const { Cell::new(u32::MAX) };
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

fn thread_ordinal() -> u32 {
    THREAD_ORDINAL.with(|t| {
        if t.get() == u32::MAX {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Span recorder for one traced round of one workload.
#[derive(Debug)]
pub struct Tracer {
    workload: String,
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty recorder.
    pub fn new(workload: &str) -> Tracer {
        Tracer {
            workload: workload.to_string(),
            epoch: Instant::now(),
            next: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// The innermost span open on the calling thread.
    pub fn current() -> Option<SpanId> {
        CURRENT.with(Cell::get)
    }

    /// Runs `f` inside a span whose parent is the calling thread's
    /// innermost open span.
    pub fn scope<R>(&self, name: &'static str, detail: &str, f: impl FnOnce() -> R) -> R {
        self.scope_under(Self::current(), name, detail, f)
    }

    /// Runs `f` inside a span with an explicit parent — for work handed to
    /// another thread, where the causing span is not on this thread's
    /// stack.
    pub fn scope_under<R>(
        &self,
        parent: Option<SpanId>,
        name: &'static str,
        detail: &str,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let outer = CURRENT.with(|c| c.replace(Some(id)));
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        CURRENT.with(|c| c.set(outer));
        self.spans
            .lock()
            .expect("a span body panicked while the span list was locked")
            .push(Span {
                id,
                parent,
                name,
                detail: detail.to_string(),
                thread: thread_ordinal(),
                start_ns,
                end_ns,
            });
        out
    }

    /// Every closed span, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("a span body panicked while the span list was locked")
            .clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    /// Summed self time in seconds per span name.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans();
        let mut out = BTreeMap::new();
        for (span, ns) in spans.iter().zip(self_times_ns(&spans)) {
            *out.entry(span.name).or_insert(0.0) += ns as f64 / 1e9;
        }
        out
    }

    /// The trace file: one object per span plus the per-name self times.
    pub fn to_json(&self) -> Json {
        let spans = self.spans();
        let selfs = self_times_ns(&spans);
        obj([
            ("workload", text(&self.workload)),
            ("unit", text("ns from the first span of the traced round")),
            (
                "self_seconds",
                obj(self.self_seconds().into_iter().map(|(k, v)| (k, num(v)))),
            ),
            (
                "spans",
                arr(spans.iter().zip(selfs).map(|(s, self_ns)| {
                    obj([
                        ("id", uint(u64::from(s.id))),
                        (
                            "parent",
                            s.parent
                                .map_or(Json(serde::Value::Null), |p| uint(u64::from(p))),
                        ),
                        ("name", text(s.name)),
                        ("detail", text(&s.detail)),
                        ("workload", text(&self.workload)),
                        ("thread", uint(u64::from(s.thread))),
                        ("start", uint(s.start_ns)),
                        ("end", uint(s.end_ns)),
                        ("self", uint(self_ns)),
                    ])
                })),
            ),
        ])
    }
}

/// Runs `f` under a span when tracing is on, bare otherwise.
pub fn traced<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    detail: &str,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(t) => t.scope(name, detail, f),
        None => f(),
    }
}

/// [`traced`] with an explicit parent, for work on another thread.
pub fn traced_under<R>(
    tracer: Option<&Tracer>,
    parent: Option<SpanId>,
    name: &'static str,
    detail: &str,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(t) => t.scope_under(parent, name, detail, f),
        None => f(),
    }
}

/// Self time of each span: its duration minus the part of its interval
/// that its direct children cover. Children on other threads may overlap
/// each other, so the covered part is the length of the union of their
/// intervals clipped to the parent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            let mut frontier = s.start_ns;
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            for (start, end) in kids {
                let start = start.max(frontier);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    frontier = end;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// The layer of a span name: the part before the first dot.
pub fn layer_of(name: &str) -> &str {
    name.split_once('.').map_or(name, |(layer, _)| layer)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t.x",
            detail: String::new(),
            thread: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals() {
        let spans = [
            span(0, None, 0, 100),
            // Sequential children on the parent's thread.
            span(1, Some(0), 10, 30),
            span(2, Some(0), 40, 50),
            // Two overlapping children on worker threads: union is 60..90.
            span(3, Some(0), 60, 80),
            span(4, Some(0), 70, 90),
            // A grandchild only reduces its own parent.
            span(5, Some(3), 60, 65),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 10, 15, 20, 5]);
    }

    #[test]
    fn child_intervals_are_clipped_to_the_parent() {
        // A worker's span may close a hair after the parent that spawned
        // it stopped its own clock.
        let spans = [span(0, None, 10, 50), span(1, Some(0), 0, 60)];
        assert_eq!(self_times_ns(&spans), vec![0, 60]);
    }

    #[test]
    fn scopes_nest_implicitly_and_explicitly() {
        let t = Tracer::new("unit");
        let outer = t.scope("harness.outer", "", || {
            let outer = Tracer::current();
            t.scope("core.inner", "a", || ());
            std::thread::scope(|s| {
                s.spawn(|| t.scope_under(outer, "core.inner", "b", || ()));
            });
            outer
        });
        assert_eq!(Tracer::current(), None);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        let root = spans
            .iter()
            .find(|s| s.name == "harness.outer")
            .expect("root");
        assert_eq!(Some(root.id), outer);
        assert!(spans
            .iter()
            .filter(|s| s.name == "core.inner")
            .all(|s| s.parent == Some(root.id)));
        assert_eq!(layer_of("core.inner"), "core");
        let selfs = t.self_seconds();
        assert!(selfs.contains_key("core.inner") && selfs.contains_key("harness.outer"));
    }
}
