//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark itself, around its calls into each
//! layer's public functions: name, start, end and the span that caused it.
//! They stay in memory and are written out once, when the run ends.
//!
//! Two kinds of span exist. *Phase* spans (set-up, measurement, replay)
//! are recorded whenever the run is traced; the top-level ones are what
//! `trace.coverage` adds up. *Call* spans wrap single calls into a layer and
//! are recorded only while call tracing is switched on, which lets the
//! traced run measure one half of its answering phase untraced and the
//! other half traced, and report the ratio as `trace.overhead`.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. `parent == 0` marks a top-level span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub thread: u64,
}

impl SpanRecord {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    on: bool,
    calls: AtomicBool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = next_thread_id();
}

fn next_thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl Tracer {
    /// A recorder whose clock starts at `origin` (the start of the run).
    pub fn new(on: bool, origin: Instant) -> Tracer {
        Tracer {
            on,
            calls: AtomicBool::new(false),
            origin,
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether this is the traced run.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Switch call spans on or off (phase spans are unaffected); returns
    /// the previous setting.
    pub fn set_calls(&self, on: bool) -> bool {
        self.calls.swap(on, Ordering::SeqCst)
    }

    /// A phase span under the current span of this thread.
    pub fn phase(&self, name: &'static str) -> Guard<'_> {
        self.open(name, self.on, None)
    }

    /// A call span under the current span of this thread.
    pub fn call(&self, name: &'static str) -> Guard<'_> {
        self.open(name, self.calls_on(), None)
    }

    /// A call span under an explicit parent, for work on another thread.
    pub fn call_under(&self, name: &'static str, parent: u64) -> Guard<'_> {
        self.open(name, self.calls_on(), Some(parent))
    }

    /// The innermost open span of this thread (0 when none).
    fn current(&self) -> u64 {
        STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
    }

    fn calls_on(&self) -> bool {
        self.on && self.calls.load(Ordering::Relaxed)
    }

    fn open(&self, name: &'static str, live: bool, parent: Option<u64>) -> Guard<'_> {
        if !live {
            return Guard {
                tracer: self,
                live: None,
            };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = parent.unwrap_or_else(|| self.current());
        STACK.with(|s| s.borrow_mut().push(id));
        Guard {
            tracer: self,
            live: Some(Live {
                id,
                parent,
                name,
                start: Instant::now(),
            }),
        }
    }

    fn nanos_since_origin(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Durations (ns) of every recorded span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span list")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Top-level span time divided by wall time since the run started.
    pub fn coverage(&self) -> f64 {
        let covered: u64 = self
            .spans
            .lock()
            .expect("span list")
            .iter()
            .filter(|s| s.parent == 0)
            .map(SpanRecord::duration_ns)
            .sum();
        covered as f64 / self.nanos_since_origin(Instant::now()) as f64
    }

    /// Every span as a JSON array, one object per line.
    pub fn to_json(&self) -> String {
        let spans = self.spans.lock().expect("span list");
        let mut out = String::from("[\n");
        for (i, s) in spans.iter().enumerate() {
            let sep = if i + 1 == spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"thread\":{}}}{sep}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, s.thread
            );
        }
        out.push_str("]\n");
        out
    }
}

struct Live {
    id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
}

/// An open span; it is recorded when dropped.
#[must_use = "a span records on drop"]
pub struct Guard<'t> {
    tracer: &'t Tracer,
    live: Option<Live>,
}

impl Guard<'_> {
    /// The span id (0 when the span is not recorded).
    pub fn id(&self) -> u64 {
        self.live.as_ref().map_or(0, |l| l.id)
    }

    /// Rename the span before it closes (for outcomes known only after the
    /// call, such as the match-ladder rung).
    pub fn rename(&mut self, name: &'static str) {
        if let Some(l) = &mut self.live {
            l.name = name;
        }
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let Some(l) = self.live.take() else {
            return;
        };
        let end = Instant::now();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&id| id == l.id) {
                s.remove(pos);
            }
        });
        let record = SpanRecord {
            id: l.id,
            parent: l.parent,
            name: l.name,
            start_ns: self.tracer.nanos_since_origin(l.start),
            end_ns: self.tracer.nanos_since_origin(end),
            thread: THREAD.with(|t| *t),
        };
        self.tracer.spans.lock().expect("span list").push(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_cover() {
        let t = Tracer::new(true, Instant::now());
        {
            let outer = t.phase("outer");
            t.set_calls(true);
            let _inner = t.call("inner");
            assert_ne!(outer.id(), 0);
        }
        t.set_calls(false);
        drop(t.call("skipped"));
        let json = t.to_json();
        assert!(json.contains("\"name\":\"inner\",") && !json.contains("skipped"));
        assert_eq!(t.durations_ns("inner").len(), 1);
        assert!(t.coverage() > 0.0);
    }

    #[test]
    fn untraced_runs_record_nothing() {
        let t = Tracer::new(false, Instant::now());
        t.set_calls(true);
        drop(t.phase("phase"));
        drop(t.call("call"));
        assert_eq!(t.to_json(), "[\n]\n");
    }
}
