//! The traced run's span recorder, kept outside the program.
//!
//! Spans are opened by the benchmark around each call it makes into a
//! layer's public functions, and by two decorators it installs: one
//! around every `WebService` it deploys (handler time) and one around
//! every workflow `Tool` it enacts (time inside the graph's tools).
//! Each span holds a name, start, end, parent and op id. Spans live in
//! memory while the run measures; the caller writes them out at the end
//! and turns them into per-layer self time (span minus the part of its
//! interval that child spans cover).

use dm_workflow::graph::{PortSpec, Token, Tool};
use dm_wsrf::container::{ServiceFault, WebService};
use dm_wsrf::soap::SoapValue;
use dm_wsrf::wsdl::WsdlDocument;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    /// 0 for a root span.
    pub parent: u32,
    pub op: u64,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static OP: AtomicU64 = AtomicU64::new(0);
/// The runner thread's innermost open span: the parent of spans opened
/// on threads that have none open themselves (durable workers).
static RUNNER_TOP: AtomicU32 = AtomicU32::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static NAMES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    static IS_RUNNER: Cell<bool> = const { Cell::new(false) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Mark the calling thread as the runner (the one thread that runs ops).
pub fn mark_runner() {
    IS_RUNNER.with(|d| d.set(true));
    epoch();
}

/// Turn span recording on or off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The op id stamped on spans opened from now on.
pub fn set_op(op: u64) {
    OP.store(op, Ordering::Relaxed);
}

/// A stable `&'static str` for a name built at run time (interned, so a
/// name is leaked once however often it is asked for).
pub fn intern(name: String) -> &'static str {
    let mut names = NAMES.lock().expect("name table poisoned");
    if let Some(&found) = names.iter().find(|&&n| n == name) {
        return found;
    }
    let leaked: &'static str = Box::leak(name.into_boxed_str());
    names.push(leaked);
    leaked
}

/// An open span; it closes when dropped.
pub struct Guard {
    id: u32,
    parent: u32,
    name: &'static str,
    start: u64,
}

/// Open a span named `name` when recording is on.
pub fn span(name: &'static str) -> Option<Guard> {
    if !enabled() {
        return None;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let runner = IS_RUNNER.with(Cell::get);
    let parent = STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let parent = match stack.last() {
            Some(&p) => p,
            None if runner => 0,
            None => RUNNER_TOP.load(Ordering::SeqCst),
        };
        stack.push(id);
        parent
    });
    if runner {
        RUNNER_TOP.store(id, Ordering::SeqCst);
    }
    Some(Guard {
        id,
        parent,
        name,
        start: now_ns(),
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end = now_ns();
        let top = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            stack.pop();
            stack.last().copied().unwrap_or(0)
        });
        if IS_RUNNER.with(Cell::get) {
            RUNNER_TOP.store(top, Ordering::SeqCst);
        }
        let span = Span {
            id: self.id,
            parent: self.parent,
            op: OP.load(Ordering::Relaxed),
            name: self.name,
            start: self.start,
            end,
        };
        if let Ok(mut spans) = SPANS.lock() {
            spans.push(span);
        }
    }
}

/// Spans recorded so far.
pub fn recorded() -> usize {
    SPANS.lock().expect("span buffer poisoned").len()
}

/// Take every recorded span out of the recorder.
pub fn drain() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span buffer poisoned"))
}

/// Write spans as tab-separated `id parent op name start_ns end_ns`.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\top\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.op, s.name, s.start, s.end
        )?;
    }
    out.flush()
}

/// Per-name totals from a span set.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerStat {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Entry-to-handler and handler-to-return time of the spans that enter
/// the transport, summed over the calls that reached a handler.
#[derive(Debug, Clone, Copy, Default)]
pub struct Legs {
    pub calls: u64,
    pub request_ns: u64,
    pub response_ns: u64,
}

/// Names of spans that enter the transport from the benchmark's side.
fn is_entry(name: &str) -> bool {
    matches!(name, "transport.invoke" | "tool.remote" | "fleet.invoke")
}

/// Self time per span name, plus the transport legs.
pub fn analyse(spans: &[Span]) -> (BTreeMap<&'static str, LayerStat>, Legs) {
    let mut children: HashMap<u32, Vec<(u64, u64, &'static str)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start, s.end, s.name));
        }
    }
    let mut stats: BTreeMap<&'static str, LayerStat> = BTreeMap::new();
    let mut legs = Legs::default();
    let mut scratch = Vec::new();
    for s in spans {
        let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
        scratch.clear();
        scratch.extend(kids.iter().map(|&(a, b, _)| (a, b)));
        let dur = s.end.saturating_sub(s.start);
        let busy = covered(&mut scratch, s.start, s.end);
        let stat = stats.entry(s.name).or_default();
        stat.calls += 1;
        stat.total_ns += dur;
        stat.self_ns += dur.saturating_sub(busy);
        if is_entry(s.name) {
            let handlers = kids.iter().filter(|k| k.2.starts_with("handler."));
            let first = handlers.clone().map(|k| k.0).min();
            let last = handlers.map(|k| k.1).max();
            if let (Some(first), Some(last)) = (first, last) {
                legs.calls += 1;
                legs.request_ns += first.saturating_sub(s.start);
                legs.response_ns += s.end.saturating_sub(last);
            }
        }
    }
    (stats, legs)
}

/// Timing decorator around a deployed Web Service: a `handler.<name>`
/// span around every invocation.
pub struct TimedService {
    inner: Arc<dyn WebService>,
    span: &'static str,
}

impl TimedService {
    pub fn wrap(inner: Arc<dyn WebService>) -> Arc<dyn WebService> {
        let span = intern(format!("handler.{}", inner.name()));
        Arc::new(TimedService { inner, span })
    }
}

impl WebService for TimedService {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn wsdl(&self) -> WsdlDocument {
        self.inner.wsdl()
    }

    fn invoke(
        &self,
        operation: &str,
        args: &[(String, SoapValue)],
    ) -> Result<SoapValue, ServiceFault> {
        let _span = span(self.span);
        self.inner.invoke(operation, args)
    }
}

/// Timing decorator around a workflow tool: a `tool.remote` span when
/// the tool calls a Web Service, `tool.local` otherwise.
pub struct TimedTool {
    inner: Arc<dyn Tool>,
    span: &'static str,
}

impl TimedTool {
    pub fn wrap(inner: Arc<dyn Tool>, remote: bool) -> Arc<dyn Tool> {
        let span = if remote { "tool.remote" } else { "tool.local" };
        Arc::new(TimedTool { inner, span })
    }
}

impl Tool for TimedTool {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn package(&self) -> &str {
        self.inner.package()
    }

    fn input_ports(&self) -> Vec<PortSpec> {
        self.inner.input_ports()
    }

    fn output_ports(&self) -> Vec<PortSpec> {
        self.inner.output_ports()
    }

    fn execute(&self, inputs: &[Token]) -> Result<Vec<Token>, String> {
        let _span = span(self.span);
        self.inner.execute(inputs)
    }

    fn is_pure(&self) -> bool {
        self.inner.is_pure()
    }

    fn memo_identity(&self) -> String {
        self.inner.memo_identity()
    }

    fn last_call_sheds(&self) -> u64 {
        self.inner.last_call_sheds()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_merges_overlaps_and_clips() {
        let mut v = vec![(5, 10), (0, 3), (8, 15), (20, 30)];
        assert_eq!(covered(&mut v, 2, 25), 1 + 5 + 5 + 5);
    }
}
