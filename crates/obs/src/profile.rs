//! Opt-in execution timeline profiler.
//!
//! A [`Profiler`] collects *span* events (begin/end pairs) and *instant*
//! events into per-lane buffers: lane 0 is the coordinator thread, and
//! every exchange worker installs its own lane for the lifetime of its
//! partition pipeline. Collection is thread-local, because workers emit
//! from threads that share no `&mut`: until a [`LaneGuard`] is installed
//! on the current thread, every emission is a single branch on a
//! thread-local flag and the payload closures never run — so a session
//! that never profiles pays one predictable branch per hook. The entry
//! point is `PreparedQuery::execute_profiled` in `fto-exec`.
//!
//! # Determinism contract
//!
//! Profiling only *observes*: query results, `IoStats`, and the
//! per-operator metric rollup are bit-identical whether or not a
//! profiler is attached. Events are merged deterministically by
//! `(lane, seq)` — the per-lane sequence number assigned at emission —
//! never by timestamp. Timestamps (microseconds since the profiler's
//! epoch) ride along for the exported artifacts only; they are
//! wall-clock measurements and differ run to run, which is why nothing
//! orders by them and why the optimizer trace ([`crate::trace`]) remains
//! timestamp-free and byte-identical across runs.
//!
//! # Exports
//!
//! [`ExecutionProfile::to_chrome_trace`] renders the Chrome trace-event
//! JSON format (load in `chrome://tracing` or Perfetto; one lane per
//! `tid`), one event object per line so line-oriented tooling can check
//! it. [`ExecutionProfile::to_folded_stacks`] renders folded stack lines
//! (`lane;frame;frame <self-microseconds>`) for flamegraph builders.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Hard cap on buffered events per lane; emissions past it are counted
/// in [`LaneProfile::dropped`] instead of growing without bound.
pub const LANE_CAPACITY: usize = 1 << 20;

/// The phase of a profile event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// A span opens (Chrome `ph: "B"`).
    Begin,
    /// A span closes (Chrome `ph: "E"`).
    End,
    /// A point event with no duration (Chrome `ph: "i"`).
    Instant,
}

/// One timeline event, recorded into exactly one lane.
#[derive(Clone, Debug)]
pub struct ProfileEvent {
    /// Per-lane emission sequence number (0, 1, 2, ... within the lane);
    /// with the lane id this is the event's deterministic identity.
    pub seq: u64,
    /// Begin / end / instant.
    pub kind: SpanKind,
    /// Span name, e.g. `sort#2.next` (operator name, pre-order plan id,
    /// lifecycle phase).
    pub name: String,
    /// Coarse category for trace-viewer filtering (`operator`, `spill`,
    /// `segment`, `exchange`).
    pub cat: &'static str,
    /// Microseconds since the profiler's epoch. Wall-clock measurement:
    /// monotone within a lane, **not** deterministic across runs, and
    /// never used for ordering.
    pub ts_us: u64,
    /// Optional numeric annotations (e.g. rows and spill pages charged
    /// during a span), attached to `End` events.
    pub args: Vec<(&'static str, u64)>,
}

/// One lane's finished event buffer.
#[derive(Clone, Debug)]
pub struct LaneProfile {
    /// Lane id (0 = coordinator; workers get fresh ids in spawn order).
    pub lane: u32,
    /// Human label (`coordinator`, `worker p2`, ...).
    pub label: String,
    /// Events in emission order (`seq` strictly increasing).
    pub events: Vec<ProfileEvent>,
    /// Emissions discarded after the lane hit [`LANE_CAPACITY`].
    pub dropped: u64,
}

#[derive(Debug)]
struct ProfInner {
    epoch: Instant,
    next_lane: AtomicU32,
    lanes: Mutex<Vec<LaneProfile>>,
}

/// A handle collecting one execution's timeline. Cheap to clone; clones
/// feed the same profile.
#[derive(Clone, Debug)]
pub struct Profiler {
    inner: Arc<ProfInner>,
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler::new()
    }
}

impl Profiler {
    /// A fresh profiler; its epoch (timestamp zero) is now.
    pub fn new() -> Profiler {
        Profiler {
            inner: Arc::new(ProfInner {
                epoch: Instant::now(),
                next_lane: AtomicU32::new(0),
                lanes: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Reserves `n` consecutive lane ids and returns the first. Exchange
    /// coordinators call this *before* spawning workers, so lane ids
    /// reflect deterministic spawn order, not thread scheduling.
    pub fn alloc_lanes(&self, n: u32) -> u32 {
        self.inner.next_lane.fetch_add(n, Ordering::Relaxed)
    }

    /// Allocates the next lane id and installs it on the current thread.
    pub fn install_lane(&self, label: impl Into<String>) -> LaneGuard {
        let lane = self.alloc_lanes(1);
        self.install_lane_at(lane, label)
    }

    /// Installs a pre-allocated lane id on the current thread. Emissions
    /// on this thread buffer into the lane until the returned guard
    /// drops, which hands the buffer back to the profiler.
    pub fn install_lane_at(&self, lane: u32, label: impl Into<String>) -> LaneGuard {
        COLLECTOR.with(|c| {
            *c.borrow_mut() = Some(LaneCollector {
                profiler: self.clone(),
                lane,
                label: label.into(),
                seq: 0,
                events: Vec::new(),
                dropped: 0,
            });
        });
        ACTIVE.with(|a| a.set(true));
        LaneGuard { _priv: () }
    }

    /// Collects every finished lane into an [`ExecutionProfile`], lanes
    /// sorted by id and each lane's events in emission (`seq`) order.
    /// Call after all [`LaneGuard`]s have dropped.
    pub fn finish(&self) -> ExecutionProfile {
        let mut lanes = std::mem::take(&mut *self.inner.lanes.lock().expect("profile poisoned"));
        lanes.sort_by_key(|l| l.lane);
        ExecutionProfile { lanes }
    }
}

struct LaneCollector {
    profiler: Profiler,
    lane: u32,
    label: String,
    seq: u64,
    events: Vec<ProfileEvent>,
    dropped: u64,
}

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static COLLECTOR: RefCell<Option<LaneCollector>> = const { RefCell::new(None) };
}

/// Uninstalls the current thread's lane on drop, handing its buffer back
/// to the owning [`Profiler`].
pub struct LaneGuard {
    _priv: (),
}

impl Drop for LaneGuard {
    fn drop(&mut self) {
        ACTIVE.with(|a| a.set(false));
        if let Some(col) = COLLECTOR.with(|c| c.borrow_mut().take()) {
            col.profiler
                .inner
                .lanes
                .lock()
                .expect("profile poisoned")
                .push(LaneProfile {
                    lane: col.lane,
                    label: col.label,
                    events: col.events,
                    dropped: col.dropped,
                });
        }
    }
}

/// True when the current thread has a lane installed (i.e. emissions
/// will record). A single thread-local branch.
pub fn enabled() -> bool {
    ACTIVE.with(|a| a.get())
}

fn record(
    kind: SpanKind,
    cat: &'static str,
    name: impl FnOnce() -> String,
    args: Vec<(&'static str, u64)>,
) {
    if !enabled() {
        return;
    }
    COLLECTOR.with(|c| {
        if let Some(col) = c.borrow_mut().as_mut() {
            if col.events.len() >= LANE_CAPACITY {
                col.dropped += 1;
                return;
            }
            let ts_us = col.profiler.inner.epoch.elapsed().as_micros() as u64;
            let seq = col.seq;
            col.seq += 1;
            col.events.push(ProfileEvent {
                seq,
                kind,
                name: name(),
                cat,
                ts_us,
                args,
            });
        }
    });
}

/// Opens a span on the current lane. The name closure runs only when a
/// lane is installed.
pub fn span_begin(cat: &'static str, name: impl FnOnce() -> String) {
    record(SpanKind::Begin, cat, name, Vec::new());
}

/// Closes the innermost open span with this name on the current lane.
pub fn span_end(cat: &'static str, name: impl FnOnce() -> String) {
    record(SpanKind::End, cat, name, Vec::new());
}

/// [`span_end`] with numeric annotations (rows, pages) attached; the
/// args closure also runs only when a lane is installed.
pub fn span_end_with(
    cat: &'static str,
    name: impl FnOnce() -> String,
    args: impl FnOnce() -> Vec<(&'static str, u64)>,
) {
    if !enabled() {
        return;
    }
    record(SpanKind::End, cat, name, args());
}

/// Records a point event (spill run formed, segment boundary, ...).
pub fn instant(cat: &'static str, name: impl FnOnce() -> String) {
    record(SpanKind::Instant, cat, name, Vec::new());
}

/// A finished execution timeline: per-lane event buffers merged in
/// deterministic `(lane, seq)` order.
#[derive(Clone, Debug, Default)]
pub struct ExecutionProfile {
    /// Lanes sorted by id; lane 0 is the coordinator.
    pub lanes: Vec<LaneProfile>,
}

fn escape_json(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

impl ExecutionProfile {
    /// Total events across all lanes.
    pub fn event_count(&self) -> usize {
        self.lanes.iter().map(|l| l.events.len()).sum()
    }

    /// Total emissions discarded to the per-lane capacity.
    pub fn dropped(&self) -> u64 {
        self.lanes.iter().map(|l| l.dropped).sum()
    }

    /// Renders the Chrome trace-event JSON array (the `[{...},...]`
    /// format `chrome://tracing` / Perfetto load). One event object per
    /// line; each lane becomes a `tid` under `pid` 0, named by a
    /// `thread_name` metadata event. Timestamps are the recorded
    /// microseconds-since-epoch values — monotone within a lane.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("[\n");
        let mut first = true;
        let mut push_line = |line: String, first: &mut bool| {
            if !*first {
                out.push_str(",\n");
            }
            out.push_str(&line);
            *first = false;
        };
        for lane in &self.lanes {
            let mut meta = format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\"args\":{{\"name\":\"",
                lane.lane
            );
            escape_json(&lane.label, &mut meta);
            meta.push_str("\"}}");
            push_line(meta, &mut first);
            for e in &lane.events {
                let ph = match e.kind {
                    SpanKind::Begin => "B",
                    SpanKind::End => "E",
                    SpanKind::Instant => "i",
                };
                let mut line = String::from("{\"name\":\"");
                escape_json(&e.name, &mut line);
                let _ = write!(
                    line,
                    "\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{},\"pid\":0,\"tid\":{}",
                    e.cat, ph, e.ts_us, lane.lane
                );
                if e.kind == SpanKind::Instant {
                    line.push_str(",\"s\":\"t\"");
                }
                if !e.args.is_empty() {
                    line.push_str(",\"args\":{");
                    for (i, (k, v)) in e.args.iter().enumerate() {
                        if i > 0 {
                            line.push(',');
                        }
                        let _ = write!(line, "\"{k}\":{v}");
                    }
                    line.push('}');
                }
                line.push('}');
                push_line(line, &mut first);
            }
        }
        out.push_str("\n]\n");
        out
    }

    /// Renders folded stack lines for flamegraph builders: one line per
    /// distinct span stack, `label;name;name <self-time-us>`, lanes in
    /// id order and stacks in first-appearance order. Self time is the
    /// span's duration minus its children's; instants contribute
    /// nothing. Unbalanced open spans at the end of a lane are dropped.
    pub fn to_folded_stacks(&self) -> String {
        let mut keys: Vec<String> = Vec::new();
        let mut weights: std::collections::HashMap<String, u64> = std::collections::HashMap::new();
        for lane in &self.lanes {
            // (name, begin ts, time consumed by finished children)
            let mut stack: Vec<(String, u64, u64)> = Vec::new();
            let mut prefix = lane.label.clone();
            for e in &lane.events {
                match e.kind {
                    SpanKind::Begin => stack.push((e.name.clone(), e.ts_us, 0)),
                    SpanKind::End => {
                        let Some((name, begin, child)) = stack.pop() else {
                            continue; // unbalanced End: ignore
                        };
                        let total = e.ts_us.saturating_sub(begin);
                        let own = total.saturating_sub(child);
                        if let Some(parent) = stack.last_mut() {
                            parent.2 += total;
                        }
                        let mut key = prefix.clone();
                        for (n, _, _) in &stack {
                            key.push(';');
                            key.push_str(n);
                        }
                        key.push(';');
                        key.push_str(&name);
                        if !weights.contains_key(&key) {
                            keys.push(key.clone());
                        }
                        *weights.entry(key).or_insert(0) += own;
                    }
                    SpanKind::Instant => {}
                }
            }
            prefix.clear();
        }
        let mut out = String::new();
        for key in keys {
            let _ = writeln!(out, "{key} {}", weights[&key]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_thread_records_nothing() {
        assert!(!enabled());
        let mut ran = false;
        span_begin("operator", || {
            ran = true;
            "x".to_string()
        });
        assert!(!ran, "payload closure must not run without a lane");
    }

    #[test]
    fn lanes_merge_by_id_with_per_lane_seq() {
        let p = Profiler::new();
        {
            let _g = p.install_lane("coordinator");
            span_begin("operator", || "sort#0.open".to_string());
            instant("spill", || "spill.run_formed".to_string());
            span_end("operator", || "sort#0.open".to_string());
        }
        let base = p.alloc_lanes(2);
        for k in (0..2).rev() {
            // Install in reverse order: merge must still sort by lane id.
            let _g = p.install_lane_at(base + k, format!("worker p{k}"));
            span_begin("operator", || format!("scan#1.next/p{k}"));
            span_end("operator", || format!("scan#1.next/p{k}"));
        }
        let profile = p.finish();
        assert_eq!(profile.lanes.len(), 3);
        assert_eq!(profile.lanes[0].lane, 0);
        assert_eq!(profile.lanes[0].label, "coordinator");
        assert_eq!(profile.lanes[1].lane, base);
        assert_eq!(profile.lanes[2].lane, base + 1);
        assert_eq!(profile.event_count(), 7);
        for lane in &profile.lanes {
            for (i, e) in lane.events.iter().enumerate() {
                assert_eq!(e.seq, i as u64, "seq must be dense per lane");
            }
            for w in lane.events.windows(2) {
                assert!(w[0].ts_us <= w[1].ts_us, "ts must be monotone per lane");
            }
        }
    }

    #[test]
    fn chrome_trace_is_line_oriented_and_balanced() {
        let p = Profiler::new();
        {
            let _g = p.install_lane("coordinator");
            span_begin("operator", || "sort#0.open".to_string());
            span_begin("operator", || "scan#1.next".to_string());
            span_end_with(
                "operator",
                || "scan#1.next".to_string(),
                || vec![("rows", 5)],
            );
            span_end("operator", || "sort#0.open".to_string());
        }
        let json = p.finish().to_chrome_trace();
        assert!(json.starts_with("[\n"), "{json}");
        assert!(json.trim_end().ends_with(']'), "{json}");
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 2, "{json}");
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 2, "{json}");
        assert!(json.contains("\"thread_name\""), "{json}");
        assert!(json.contains("\"args\":{\"rows\":5}"), "{json}");
    }

    #[test]
    fn folded_stacks_nest_and_weigh() {
        let p = Profiler::new();
        {
            let _g = p.install_lane("lane");
            span_begin("operator", || "parent".to_string());
            span_begin("operator", || "child".to_string());
            span_end("operator", || "child".to_string());
            span_end("operator", || "parent".to_string());
        }
        let folded = p.finish().to_folded_stacks();
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines.len(), 2, "{folded}");
        assert!(lines[0].starts_with("lane;parent;child "), "{folded}");
        assert!(lines[1].starts_with("lane;parent "), "{folded}");
    }

    #[test]
    fn lane_capacity_counts_drops() {
        let p = Profiler::new();
        {
            let _g = p.install_lane("lane");
            for _ in 0..(LANE_CAPACITY + 10) {
                instant("spill", || "x".to_string());
            }
        }
        let profile = p.finish();
        assert_eq!(profile.lanes[0].events.len(), LANE_CAPACITY);
        assert_eq!(profile.dropped(), 10);
    }
}
