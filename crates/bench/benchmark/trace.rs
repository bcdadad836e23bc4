//! Spans and counters for traced runs.
//!
//! A span is recorded around a call into one layer's public API: its name,
//! start, end, the span open on the same thread when it began (its parent),
//! the trial or session it belongs to (`key`), the recording thread, and a
//! work count (posts, bytes). Spans stay in per-thread memory and move to a
//! shared sink when their thread exits or [`take`] is called; nothing is
//! written to disk until the run ends.

use distill_sim::{Adversary, AdversaryCtx, Cohort, Directive, DishonestPost, PhaseInfo};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<u64>,
    pub key: u64,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub count: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static SINK: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static COUNTERS: Mutex<Vec<(&'static str, f64)>> = Mutex::new(Vec::new());
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    u64::try_from(EPOCH.get_or_init(Instant::now).elapsed().as_nanos()).unwrap_or(u64::MAX)
}

struct Local {
    thread: u32,
    open: Vec<u64>,
    spans: Vec<Span>,
}

impl Drop for Local {
    fn drop(&mut self) {
        if let Ok(mut sink) = SINK.lock() {
            sink.append(&mut self.spans);
        }
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        open: Vec::new(),
        spans: Vec::new(),
    });
}

/// An open span; it closes when dropped.
pub struct Guard {
    name: &'static str,
    id: u64,
    parent: Option<u64>,
    key: u64,
    start_ns: u64,
    count: u64,
}

impl Guard {
    /// Records how much work the span covered.
    pub fn count(&mut self, count: u64) {
        self.count = count;
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end_ns = now_ns();
        LOCAL.with(|local| {
            let mut local = local.borrow_mut();
            local.open.pop();
            let thread = local.thread;
            local.spans.push(Span {
                name: self.name,
                id: self.id,
                parent: self.parent,
                key: self.key,
                thread,
                start_ns: self.start_ns,
                end_ns,
                count: self.count,
            });
        });
    }
}

/// Opens a span named `name` for trial or session `key`.
pub fn enter(name: &'static str, key: u64) -> Guard {
    let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
    let parent = LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        let parent = local.open.last().copied();
        local.open.push(id);
        parent
    });
    Guard {
        name,
        id,
        parent,
        key,
        start_ns: now_ns(),
        count: 0,
    }
}

/// Opens a span only when `on`.
pub fn enter_if(on: bool, name: &'static str, key: u64) -> Option<Guard> {
    on.then(|| enter(name, key))
}

/// Records one sample of a per-layer counter (reported as the mean of its
/// samples).
pub fn record(name: &'static str, value: f64) {
    COUNTERS
        .lock()
        .expect("counter sink poisoned by a panicking recorder")
        .push((name, value));
}

/// Everything recorded so far: this thread's spans plus those of exited
/// threads, and every counter sample. Threads still running keep theirs.
pub fn take() -> (Vec<Span>, Vec<(&'static str, f64)>) {
    let mut spans = LOCAL.with(|local| std::mem::take(&mut local.borrow_mut().spans));
    let mut sink = SINK.lock().expect("span sink poisoned");
    spans.append(&mut sink);
    spans.sort_by_key(|s| s.id);
    let counters = std::mem::take(&mut *COUNTERS.lock().expect("counter sink poisoned"));
    (spans, counters)
}

/// Writes the spans to `path` as JSON lines, one object per span.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\": \"{}\", \"id\": {}, \"parent\": {parent}, \"key\": {}, \"thread\": {}, \
             \"start_ns\": {}, \"end_ns\": {}, \"count\": {}}}",
            s.name, s.id, s.key, s.thread, s.start_ns, s.end_ns, s.count
        )?;
    }
    out.flush()
}

/// Per-span-name views used to derive the per-layer metrics.
pub struct Spans<'a> {
    by_name: BTreeMap<&'static str, Vec<&'a Span>>,
    children: BTreeMap<u64, Vec<&'a Span>>,
}

impl<'a> Spans<'a> {
    pub fn new(spans: &'a [Span]) -> Self {
        let mut by_name: BTreeMap<&'static str, Vec<&'a Span>> = BTreeMap::new();
        let mut children: BTreeMap<u64, Vec<&'a Span>> = BTreeMap::new();
        for s in spans {
            by_name.entry(s.name).or_default().push(s);
            if let Some(p) = s.parent {
                children.entry(p).or_default().push(s);
            }
        }
        Spans { by_name, children }
    }

    pub fn named(&self, name: &str) -> &[&'a Span] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// Durations of the spans named `name`, in nanoseconds, less the time
    /// covered by their children that `exclude` selects.
    fn durations_less(&self, name: &str, exclude: impl Fn(&Span) -> bool) -> Vec<f64> {
        self.named(name)
            .iter()
            .map(|s| {
                let covered: u64 = self.children.get(&s.id).map_or(0, |c| {
                    c.iter().filter(|c| exclude(c)).map(|c| c.dur_ns()).sum()
                });
                s.dur_ns().saturating_sub(covered) as f64
            })
            .collect()
    }

    /// Durations of the spans named `name`, in nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.durations_less(name, |_| false)
    }

    /// Durations less the time spent in children named `child`.
    pub fn durations_without(&self, name: &str, child: &str) -> Vec<f64> {
        self.durations_less(name, |c| c.name == child)
    }

    /// Self times: each span's duration minus the time its children cover.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        self.durations_less(name, |_| true)
    }

    pub fn total_ns(&self, name: &str) -> f64 {
        self.named(name).iter().map(|s| s.dur_ns() as f64).sum()
    }

    pub fn total_count(&self, name: &str) -> f64 {
        self.named(name).iter().map(|s| s.count as f64).sum()
    }
}

/// Forwards every [`Cohort`] call, timing `directive`.
pub struct TracedCohort {
    inner: Box<dyn Cohort>,
    key: u64,
}

impl TracedCohort {
    pub fn new(inner: Box<dyn Cohort>, key: u64) -> Self {
        TracedCohort { inner, key }
    }
}

impl Cohort for TracedCohort {
    fn directive(&mut self, view: &distill_billboard::BoardView<'_>) -> Directive {
        let _span = enter("core.directive", self.key);
        self.inner.directive(view)
    }

    fn phase_info(&self) -> PhaseInfo {
        self.inner.phase_info()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn notes(&self) -> Vec<(String, f64)> {
        self.inner.notes()
    }
}

/// Forwards every [`Adversary`] call, timing `on_round` and counting the
/// posts it returns.
pub struct TracedAdversary {
    inner: Box<dyn Adversary>,
    key: u64,
}

impl TracedAdversary {
    pub fn new(inner: Box<dyn Adversary>, key: u64) -> Self {
        TracedAdversary { inner, key }
    }
}

impl Adversary for TracedAdversary {
    fn on_round(&mut self, ctx: &mut AdversaryCtx<'_, '_>) -> Vec<DishonestPost> {
        let mut span = enter("adversary.on_round", self.key);
        let posts = self.inner.on_round(ctx);
        span.count(posts.len() as u64);
        posts
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}
