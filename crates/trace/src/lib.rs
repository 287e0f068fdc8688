//! Zero-dependency tracing for the AMC pipeline.
//!
//! Provides three recording primitives with thread/stage attribution:
//!
//! * **Spans** ([`span`] / [`span_with`]) — a begin/end pair bracketing a
//!   region of work. The returned guard records the end event on drop, so
//!   spans nest correctly per thread.
//! * **Instants** ([`instant`]) — a point event (pool hit, eviction, …).
//! * **Counter samples** ([`counter`]) — a named value sampled over time
//!   (bytes resident, queue depth, …), rendered as a track in the viewer.
//!
//! Events are recorded **lock-free per thread** into a thread-local buffer;
//! buffers flush into the global sink when a thread exits (scoped worker
//! threads flush at scope join) or on [`flush_thread`]/export. When tracing
//! is disabled — the default — every primitive is a single relaxed atomic
//! load and an early return: no clock read, no allocation, no lock.
//!
//! Enablement: set the `GPU_SIM_TRACE` environment variable (any value
//! other than `0`/empty), or call [`enable`] programmatically. Tracing only
//! observes timing; traced and untraced runs compute bit-identical results.
//!
//! The captured timeline exports as Chrome trace-event JSON
//! ([`chrome_trace_json`] / [`write_chrome_trace`]) loadable in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! The sibling [`metrics`] registry (monotonic counters + log₂-bucket
//! latency histograms) is always on: it records at pass/stage granularity
//! where a mutex lock is negligible, independent of whether the timeline
//! recorder is enabled.
//!
//! The [`analyze`] module turns captured streams ([`snapshot_events`] or an
//! imported trace file) into utilization, overlap, critical-path, and fleet
//! load-balance reports.
//!
//! The [`json`] module is the workspace's one JSON value type, parser,
//! writer and string escaper.
//!
//! Enabling tracing also installs a **panic-hook flight recorder**: if the
//! process panics while the recorder is on, everything captured so far is
//! dumped to `out/trace-panic.json` (override the path with the
//! `GPU_SIM_TRACE_PANIC` environment variable; set it to `0` to disable),
//! so a failed CI run still ships a trace artifact.

#![warn(missing_docs)]

pub mod analyze;
pub mod json;
pub mod metrics;

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Enablement
// ---------------------------------------------------------------------------

const STATE_UNINIT: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

/// 0 = not yet initialised from the environment, 1 = off, 2 = on.
static STATE: AtomicU8 = AtomicU8::new(STATE_UNINIT);

/// Is the timeline recorder on? One relaxed atomic load on the fast path;
/// the first call reads `GPU_SIM_TRACE` from the environment.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let on = std::env::var("GPU_SIM_TRACE")
        .map(|v| {
            let v = v.trim();
            !v.is_empty() && v != "0"
        })
        .unwrap_or(false);
    let target = if on { STATE_ON } else { STATE_OFF };
    // A racing programmatic enable()/disable() wins over the env default.
    let _ = STATE.compare_exchange(STATE_UNINIT, target, Ordering::Relaxed, Ordering::Relaxed);
    let now_on = STATE.load(Ordering::Relaxed) == STATE_ON;
    if now_on {
        install_flight_recorder();
    }
    now_on
}

/// Turn the timeline recorder on (overrides `GPU_SIM_TRACE`). Also installs
/// the panic-hook flight recorder (once per process).
pub fn enable() {
    STATE.store(STATE_ON, Ordering::Relaxed);
    install_flight_recorder();
}

/// Install a panic hook that dumps the captured timeline to
/// `out/trace-panic.json` (or `$GPU_SIM_TRACE_PANIC`) when the process
/// panics with the recorder enabled. Installed once; chains the previous
/// hook. Best effort by design: only the panicking thread's buffer is
/// flushed eagerly, and write errors are swallowed — a panic path must
/// never panic again.
fn install_flight_recorder() {
    static INSTALL: std::sync::Once = std::sync::Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            prev(info);
            if !enabled() {
                return;
            }
            let path = std::env::var("GPU_SIM_TRACE_PANIC")
                .unwrap_or_else(|_| "out/trace-panic.json".to_owned());
            if path.is_empty() || path == "0" {
                return;
            }
            let _ = std::panic::catch_unwind(|| {
                let _ = write_chrome_trace(std::path::Path::new(&path));
            });
        }));
    });
}

/// Turn the timeline recorder off (overrides `GPU_SIM_TRACE`).
pub fn disable() {
    STATE.store(STATE_OFF, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first trace event of the process. Monotonic across
/// threads ([`Instant`] is globally monotonic), so per-thread event streams
/// carry non-decreasing timestamps.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// Trace-event phase, mirroring the Chrome trace-event `ph` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Span begin (`B`).
    Begin,
    /// Span end (`E`).
    End,
    /// Instant event (`i`, thread scoped).
    Instant,
    /// Counter sample (`C`).
    Counter,
}

/// A typed event-argument value.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer argument.
    U64(u64),
    /// Signed integer argument.
    I64(i64),
    /// Floating-point argument.
    F64(f64),
    /// String argument.
    Str(String),
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Nanoseconds since the process trace epoch.
    pub ts_ns: u64,
    /// Stable thread id (see [`set_thread_name`]).
    pub tid: u64,
    /// Event phase.
    pub phase: Phase,
    /// Category (dot-separated taxonomy, e.g. `pipeline.stage`).
    pub cat: &'static str,
    /// Event name (span name, counter name, …).
    pub name: String,
    /// Event arguments.
    pub args: Vec<(&'static str, ArgValue)>,
}

// ---------------------------------------------------------------------------
// Sink + per-thread buffers
// ---------------------------------------------------------------------------

struct Sink {
    events: Vec<Event>,
    /// `(tid, name)` in registration order. Names act as stable identities:
    /// a thread registering an already-known name reuses its tid, so
    /// successive short-lived workers with the same role share one timeline
    /// row in the viewer.
    threads: Vec<(u64, String)>,
}

static SINK: Mutex<Sink> = Mutex::new(Sink {
    events: Vec::new(),
    threads: Vec::new(),
});

/// Lock the sink, tolerating poison: the sink's state is append-only and
/// stays consistent even if a holder panicked, and the panic-hook flight
/// recorder must be able to export after an arbitrary panic.
fn sink_lock() -> std::sync::MutexGuard<'static, Sink> {
    SINK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

struct LocalBuf {
    tid: u64,
    buf: Vec<Event>,
}

impl LocalBuf {
    fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        sink_lock().events.append(&mut self.buf);
    }
}

impl Drop for LocalBuf {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<Option<LocalBuf>> = const { RefCell::new(None) };
}

/// Register the current thread in the sink, reusing the tid of an existing
/// name or allocating a fresh one.
fn register_thread(name: Option<&str>) -> LocalBuf {
    let mut sink = sink_lock();
    if let Some(name) = name {
        if let Some(&(tid, _)) = sink.threads.iter().find(|(_, n)| n == name) {
            return LocalBuf {
                tid,
                buf: Vec::new(),
            };
        }
    }
    let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    let name = match name {
        Some(n) => n.to_owned(),
        None => std::thread::current()
            .name()
            .map(str::to_owned)
            .unwrap_or_else(|| format!("thread-{tid}")),
    };
    sink.threads.push((tid, name));
    LocalBuf {
        tid,
        buf: Vec::new(),
    }
}

/// Name the current thread's timeline row. Threads sharing a name share a
/// tid (their non-overlapping lifetimes render as one row). Call before
/// recording; events already buffered on this thread keep their prior tid.
pub fn set_thread_name(name: &str) {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        match l.as_mut() {
            Some(lb) => {
                lb.flush();
                let fresh = register_thread(Some(name));
                lb.tid = fresh.tid;
            }
            None => *l = Some(register_thread(Some(name))),
        }
    });
}

fn record(phase: Phase, cat: &'static str, name: String, args: Vec<(&'static str, ArgValue)>) {
    let ts_ns = now_ns();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let lb = l.get_or_insert_with(|| register_thread(None));
        lb.buf.push(Event {
            ts_ns,
            tid: lb.tid,
            phase,
            cat,
            name,
            args,
        });
    });
}

/// Move the current thread's buffered events into the global sink. Called
/// automatically at thread exit and before every export.
pub fn flush_thread() {
    LOCAL.with(|l| {
        if let Some(lb) = l.borrow_mut().as_mut() {
            lb.flush();
        }
    });
}

/// Discard all captured events (current thread's buffer included). Thread
/// registrations — and thus tids — survive, so successive captures in one
/// process stay comparable.
pub fn reset() {
    LOCAL.with(|l| {
        if let Some(lb) = l.borrow_mut().as_mut() {
            lb.buf.clear();
        }
    });
    sink_lock().events.clear();
}

/// Flush the current thread and take every captured event out of the sink,
/// in per-thread record order. Mainly for tests and custom exporters.
pub fn drain_events() -> Vec<Event> {
    flush_thread();
    std::mem::take(&mut sink_lock().events)
}

/// A non-draining copy of the sink: every captured event (per-thread record
/// order) plus the `(tid, name)` thread registrations. This is the input to
/// [`analyze::analyze`]; unlike [`drain_events`] it leaves the sink intact,
/// so a subsequent [`chrome_trace_json`] export still sees the full capture.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSnapshot {
    /// Captured events, in per-thread record order.
    pub events: Vec<Event>,
    /// `(tid, name)` thread registrations, in registration order.
    pub threads: Vec<(u64, String)>,
}

/// Flush the current thread and clone the sink into a [`TraceSnapshot`].
pub fn snapshot_events() -> TraceSnapshot {
    flush_thread();
    let sink = sink_lock();
    TraceSnapshot {
        events: sink.events.clone(),
        threads: sink.threads.clone(),
    }
}

// ---------------------------------------------------------------------------
// Recording primitives
// ---------------------------------------------------------------------------

/// Guard for an open span: records the matching end event when dropped.
/// Inert (and free) when tracing was disabled at creation.
#[must_use = "a span measures the region until the guard drops"]
pub struct Span {
    /// `Some(name)` while the span is live and must emit an end event.
    live: Option<String>,
    cat: &'static str,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(name) = self.live.take() {
            record(Phase::End, self.cat, name, Vec::new());
        }
    }
}

/// Open a span. A true no-op (no clock read, no allocation) when disabled.
#[inline]
pub fn span(cat: &'static str, name: &str) -> Span {
    span_with(cat, name, &[])
}

/// Open a span with arguments attached to the begin event.
#[inline]
pub fn span_with(cat: &'static str, name: &str, args: &[(&'static str, ArgValue)]) -> Span {
    if !enabled() {
        return Span { live: None, cat };
    }
    record(Phase::Begin, cat, name.to_owned(), args.to_vec());
    Span {
        live: Some(name.to_owned()),
        cat,
    }
}

/// Record an instant event (a point in time, no duration).
#[inline]
pub fn instant(cat: &'static str, name: &str, args: &[(&'static str, ArgValue)]) {
    if !enabled() {
        return;
    }
    record(Phase::Instant, cat, name.to_owned(), args.to_vec());
}

/// Record a counter sample: the viewer renders successive samples of one
/// name as a value-over-time track.
#[inline]
pub fn counter(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    record(
        Phase::Counter,
        "counter",
        name.to_owned(),
        vec![("value", ArgValue::F64(value))],
    );
}

// ---------------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------------

/// The pid every event carries (one simulated process).
pub const TRACE_PID: u64 = 1;

fn write_arg_value(out: &mut String, v: &ArgValue) {
    match v {
        ArgValue::U64(n) => {
            let _ = write!(out, "{n}");
        }
        ArgValue::I64(n) => {
            let _ = write!(out, "{n}");
        }
        ArgValue::F64(x) => {
            if x.is_finite() {
                let _ = write!(out, "{x}");
            } else {
                out.push_str("null");
            }
        }
        ArgValue::Str(s) => json::write_string(out, s),
    }
}

fn write_event(out: &mut String, ev: &Event) {
    let ph = match ev.phase {
        Phase::Begin => "B",
        Phase::End => "E",
        Phase::Instant => "i",
        Phase::Counter => "C",
    };
    out.push_str("{\"name\":");
    json::write_string(out, &ev.name);
    out.push_str(",\"cat\":");
    json::write_string(out, ev.cat);
    let _ = write!(
        out,
        ",\"ph\":\"{ph}\",\"pid\":{TRACE_PID},\"tid\":{},\"ts\":{:.3}",
        ev.tid,
        ev.ts_ns as f64 / 1e3
    );
    if ev.phase == Phase::Instant {
        out.push_str(",\"s\":\"t\"");
    }
    if !ev.args.is_empty() {
        out.push_str(",\"args\":{");
        for (i, (k, v)) in ev.args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_string(out, k);
            out.push(':');
            write_arg_value(out, v);
        }
        out.push('}');
    }
    out.push('}');
}

/// Render everything captured so far as a Chrome trace-event JSON document
/// (metadata events naming the process and each thread, then all events sorted
/// by timestamp). Does not drain the sink; pair with [`reset`] if needed.
pub fn chrome_trace_json() -> String {
    flush_thread();
    let (mut events, threads) = {
        let sink = sink_lock();
        (sink.events.clone(), sink.threads.clone())
    };
    // Stable sort: per-thread streams are recorded in non-decreasing ts
    // order, so equal timestamps keep their begin-before-end ordering.
    events.sort_by_key(|e| e.ts_ns);
    let mut out = String::with_capacity(events.len() * 96 + 1024);
    out.push_str("{\"traceEvents\":[\n");
    let _ = write!(
        out,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{TRACE_PID},\"tid\":0,\
         \"args\":{{\"name\":\"hyperspec\"}}}}"
    );
    for (tid, name) in &threads {
        out.push_str(",\n");
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{TRACE_PID},\"tid\":{tid},\
             \"args\":{{\"name\":"
        );
        json::write_string(&mut out, name);
        out.push_str("}}");
    }
    for ev in &events {
        out.push_str(",\n");
        write_event(&mut out, ev);
    }
    out.push_str("\n],\n\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Write [`chrome_trace_json`] to `path`, creating parent directories.
pub fn write_chrome_trace(path: &std::path::Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, chrome_trace_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unit tests toggle the global recorder; serialize them.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_primitives_record_nothing() {
        let _g = TEST_LOCK.lock().unwrap();
        disable();
        reset();
        {
            let _s = span("cat", "quiet");
            instant("cat", "nothing", &[]);
            counter("c", 1.0);
        }
        assert!(drain_events().is_empty());
    }

    #[test]
    fn spans_nest_and_pair_per_thread() {
        let _g = TEST_LOCK.lock().unwrap();
        enable();
        reset();
        {
            let _outer = span_with("t", "outer", &[("k", ArgValue::U64(7))]);
            {
                let _inner = span("t", "inner");
            }
            instant("t", "tick", &[]);
        }
        counter("gauge", 2.5);
        disable();
        let evs = drain_events();
        let kinds: Vec<(Phase, &str)> = evs.iter().map(|e| (e.phase, e.name.as_str())).collect();
        assert_eq!(
            kinds,
            vec![
                (Phase::Begin, "outer"),
                (Phase::Begin, "inner"),
                (Phase::End, "inner"),
                (Phase::Instant, "tick"),
                (Phase::End, "outer"),
                (Phase::Counter, "gauge"),
            ]
        );
        // Timestamps are non-decreasing in record order.
        assert!(evs.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        // All on one (registered) thread.
        assert!(evs.iter().all(|e| e.tid == evs[0].tid));
    }

    #[test]
    fn named_threads_share_a_tid_across_lifetimes() {
        let _g = TEST_LOCK.lock().unwrap();
        enable();
        reset();
        let tid_of = |name: &'static str| {
            std::thread::spawn(move || {
                set_thread_name(name);
                let _s = span("t", "work");
                drop(_s);
                flush_thread();
            })
            .join()
            .unwrap();
        };
        tid_of("role-a");
        tid_of("role-a");
        tid_of("role-b");
        disable();
        let evs = drain_events();
        let tids_a: Vec<u64> = evs
            .iter()
            .filter(|e| e.name == "work")
            .map(|e| e.tid)
            .collect();
        assert_eq!(tids_a.len(), 6, "three workers, two events each");
        assert_eq!(tids_a[0], tids_a[2], "same name reuses the tid");
        assert_ne!(tids_a[0], tids_a[4], "different name gets a fresh tid");
    }

    #[test]
    fn chrome_export_is_sorted_and_metadata_complete() {
        let _g = TEST_LOCK.lock().unwrap();
        enable();
        reset();
        {
            let _a = span("t", "a");
            let _b = span("t", "b");
        }
        let json = chrome_trace_json();
        disable();
        reset();
        let doc = json::parse(&json).expect("the export is JSON");
        let events = doc.get("traceEvents").and_then(json::Value::as_array);
        let events = events.expect("a traceEvents array");
        let str_of = |ev: &json::Value, key: &str| {
            ev.get(key)
                .and_then(json::Value::as_str)
                .map(str::to_owned)
                .ok()
        };
        let names: Vec<_> = events.iter().filter_map(|e| str_of(e, "name")).collect();
        assert!(names.contains(&"process_name".into()) && names.contains(&"thread_name".into()));
        // B/E pairs in non-decreasing ts order.
        let timed: Vec<f64> = (events.iter())
            .filter(|e| matches!(str_of(e, "ph").as_deref(), Some("B" | "E")))
            .map(|e| e.get("ts").and_then(json::Value::as_f64).unwrap())
            .collect();
        assert_eq!(timed.len(), 4);
        assert!(timed.windows(2).all(|w| w[0] <= w[1]), "{timed:?}");
    }
}
