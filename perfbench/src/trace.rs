//! Span tracing for the traced run.
//!
//! Two kinds of span: a *scope* wraps a timed public call (a drain, a
//! checkpoint, a recovery) and a *seam* span wraps one call through a
//! benchmark-supplied seam (a course, a strategy step, a sink write). Each
//! records name, start, end, parent span, negotiation id and one numeric
//! argument (bytes written, sheds, rolls, ...). Recording happens in a
//! per-thread buffer that moves to a global one when the thread exits or
//! [`collect`] runs, so it never takes a shared lock; with tracing off a
//! span costs one relaxed load.
//!
//! Every span is folded into per-name totals and into its parent's child
//! totals as it closes. Every scope span is kept; seam spans are kept only
//! up to [`KEPT_SEAM_SPANS`] for the dump, because the seam-heavy
//! workloads make millions of them.
//!
//! Seam calls on threads the exchange spawns (drain workers) have no
//! parent on their own stack; they take the *ambient* parent, the
//! innermost scope the benchmark thread has open. A scope's self time is
//! its duration times its width (the threads it fans out to) minus the
//! time its children took: for a drain, the worker time spent outside
//! every seam call.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Seam spans kept for the dump (all spans feed the totals).
pub const KEPT_SEAM_SPANS: usize = 200_000;
/// Durations kept per span name, for medians.
const KEPT_DURATIONS: usize = 100_000;

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static AMBIENT: AtomicU64 = AtomicU64::new(0);
static DONE: Mutex<Option<Trace>> = Mutex::new(None);
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process (monotonic).
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// True while spans are being recorded.
pub fn on() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Turns span recording on or off (also gates the counting allocator).
pub fn set(enabled: bool) {
    ON.store(enabled, Ordering::SeqCst);
}

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Negotiation id: the session's or demand's `cfg.seed` (0 = none).
    pub nid: u64,
    /// Layer-specific quantity (bytes written, sheds, rolls, ...).
    pub arg: u64,
    /// Threads the span fans out to (1 for seam spans).
    pub width: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Totals of every span with one name.
#[derive(Debug, Default, Clone)]
pub struct Totals {
    pub count: u64,
    pub busy_ns: u64,
    pub arg: u64,
    /// The first [`KEPT_DURATIONS`] durations.
    pub durations: Vec<u64>,
}

/// Everything recorded: per-name totals, per-parent child totals, every
/// scope span and the first seam spans.
#[derive(Debug, Default)]
pub struct Trace {
    pub by_name: BTreeMap<&'static str, Totals>,
    /// Child `(busy ns, arg)` per parent span id.
    pub children: HashMap<u64, (u64, u64)>,
    pub scopes: Vec<Span>,
    pub seams: Vec<Span>,
    /// Seam spans recorded in all (kept or not).
    pub seam_count: u64,
}

impl Trace {
    fn record(&mut self, span: Span, scope: bool) {
        let t = self.by_name.entry(span.name).or_default();
        t.count += 1;
        t.busy_ns += span.dur();
        t.arg += span.arg;
        if t.durations.len() < KEPT_DURATIONS {
            t.durations.push(span.dur());
        }
        if span.parent != 0 {
            let c = self.children.entry(span.parent).or_default();
            c.0 += span.dur();
            c.1 += span.arg;
        }
        if scope {
            self.scopes.push(span);
        } else {
            self.seam_count += 1;
            if self.seams.len() < KEPT_SEAM_SPANS {
                self.seams.push(span);
            }
        }
    }

    fn merge(&mut self, other: Trace) {
        for (name, t) in other.by_name {
            let mine = self.by_name.entry(name).or_default();
            mine.count += t.count;
            mine.busy_ns += t.busy_ns;
            mine.arg += t.arg;
            let room = KEPT_DURATIONS.saturating_sub(mine.durations.len());
            mine.durations.extend(t.durations.into_iter().take(room));
        }
        for (parent, (busy, arg)) in other.children {
            let c = self.children.entry(parent).or_default();
            c.0 += busy;
            c.1 += arg;
        }
        self.scopes.extend(other.scopes);
        let room = KEPT_SEAM_SPANS.saturating_sub(self.seams.len());
        self.seams.extend(other.seams.into_iter().take(room));
        self.seam_count += other.seam_count;
    }

    /// Totals of `name`.
    pub fn get(&self, name: &str) -> Totals {
        self.by_name.get(name).cloned().unwrap_or_default()
    }

    /// Summed self time of the scopes named `name`: duration times width
    /// minus the time their children took.
    pub fn scope_self_ns(&self, name: &str) -> u64 {
        self.scopes
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let children = self.children.get(&s.id).map_or(0, |c| c.0);
                (s.dur() * s.width).saturating_sub(children)
            })
            .sum()
    }

    /// Summed argument of the children of the scopes named `name`.
    pub fn scope_child_arg(&self, name: &str) -> u64 {
        self.scopes
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| self.children.get(&s.id))
            .map(|c| c.1)
            .sum()
    }

    /// Spans recorded in all.
    pub fn span_count(&self) -> u64 {
        self.scopes.len() as u64 + self.seam_count
    }
}

#[derive(Default)]
struct Local {
    stack: Vec<u64>,
    trace: Trace,
}

impl Local {
    fn flush(&mut self) {
        let trace = std::mem::take(&mut self.trace);
        let mut done = DONE.lock().unwrap_or_else(|e| e.into_inner());
        done.get_or_insert_with(Trace::default).merge(trace);
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

/// An open span; records itself on drop when tracing was on at entry.
pub struct Guard {
    live: bool,
    scope: bool,
    ambient: bool,
    id: u64,
    parent: u64,
    prev_ambient: u64,
    name: &'static str,
    start: u64,
    nid: u64,
    arg: u64,
    width: u64,
}

impl Guard {
    /// Sets the span's numeric argument.
    pub fn arg(&mut self, value: u64) {
        self.arg = value;
    }
}

/// Opens a seam span named `name` for negotiation `nid`.
pub fn enter(name: &'static str, nid: u64) -> Guard {
    open(name, nid, false, false, 1)
}

/// Opens a scope span around a public call on this thread.
pub fn scope(name: &'static str) -> Guard {
    open(name, 0, true, false, 1)
}

/// Opens a scope span around a public call that fans out to `width`
/// threads; seam calls on threads with an empty stack take it as parent.
pub fn scope_ambient(name: &'static str, width: usize) -> Guard {
    open(name, 0, true, true, width as u64)
}

fn open(name: &'static str, nid: u64, scope: bool, ambient: bool, width: u64) -> Guard {
    let mut guard = Guard {
        live: false,
        scope,
        ambient,
        id: 0,
        parent: 0,
        prev_ambient: 0,
        name,
        start: 0,
        nid,
        arg: 0,
        width,
    };
    if !on() {
        return guard;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    guard.parent = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let parent = l
            .stack
            .last()
            .copied()
            .unwrap_or_else(|| AMBIENT.load(Ordering::Relaxed));
        l.stack.push(id);
        parent
    });
    if ambient {
        guard.prev_ambient = AMBIENT.swap(id, Ordering::SeqCst);
    }
    guard.live = true;
    guard.id = id;
    guard.start = now_ns();
    guard
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        let end = now_ns();
        if self.ambient {
            AMBIENT.store(self.prev_ambient, Ordering::SeqCst);
        }
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start: self.start,
            end,
            nid: self.nid,
            arg: self.arg,
            width: self.width,
        };
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            l.stack.pop();
            l.trace.record(span, self.scope);
        });
    }
}

/// Takes everything recorded so far (this thread's buffer included;
/// exited threads have already handed theirs over).
pub fn collect() -> Trace {
    LOCAL.with(|l| l.borrow_mut().flush());
    let mut done = DONE.lock().unwrap_or_else(|e| e.into_inner());
    done.take().unwrap_or_default()
}

/// Writes the kept spans (scopes and seam spans, by start time) as JSON
/// lines to `path`.
pub fn dump(trace: &Trace, path: &std::path::Path) -> std::io::Result<usize> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut spans: Vec<&Span> = trace.scopes.iter().chain(&trace.seams).collect();
    spans.sort_unstable_by_key(|s| (s.start, s.id));
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in &spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
             \"nid\":{},\"arg\":{},\"width\":{}}}",
            s.id, s.parent, s.name, s.start, s.end, s.nid, s.arg, s.width
        )?;
    }
    out.flush()?;
    Ok(spans.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_self_time_is_worker_time_outside_children() {
        let span = |id, parent, start, end, width| Span {
            id,
            parent,
            name: if parent == 0 { "drain" } else { "seam" },
            start,
            end,
            nid: 0,
            arg: 0,
            width,
        };
        let mut trace = Trace::default();
        trace.record(span(1, 0, 0, 100, 2), true);
        trace.record(span(2, 1, 10, 40, 1), false);
        trace.record(span(3, 1, 20, 90, 1), false);
        assert_eq!(trace.get("seam").busy_ns, 100);
        assert_eq!(trace.scope_self_ns("drain"), 2 * 100 - 100);
        assert_eq!(trace.span_count(), 3);
    }
}
