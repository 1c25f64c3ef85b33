//! Opt-in execution timeline profiler.
//!
//! A [`Timeline`] is one thread's recording half of an execution: *span*
//! (begin/end) and *instant* events go into its own lane, and the
//! finished timelines of the exchange workers it waited for are
//! [absorbed](Timeline::absorb) behind it. It is a plain value — nothing
//! is installed on a thread, nothing is shared: the executor carries an
//! `Option<Timeline>` in the record every operator call already threads,
//! each worker fills a private one, and a call site without one builds
//! no payload. Entry point: `PreparedQuery::execute_profiled` in
//! `fto-exec`.
//!
//! # Determinism contract
//!
//! Profiling only *observes*: query results, `IoStats`, and the
//! per-operator metric rollup are bit-identical whether or not a
//! timeline is recorded. An event's identity is `(lane, seq)` — never its
//! timestamp — and lane ids are positions: lane 0 is the thread that
//! finishes the timeline, absorbed lanes follow in absorb order, which
//! the executor makes partition order. Timestamps (microseconds since
//! the execution's epoch) ride along for the exported artifacts only;
//! they differ run to run, which is why nothing orders by them and why
//! the optimizer trace ([`crate::trace`]) stays timestamp-free.
//!
//! # Exports
//!
//! [`ExecutionProfile::to_chrome_trace`] renders the Chrome trace-event
//! JSON format (load in `chrome://tracing` or Perfetto; one lane per
//! `tid`), one event object per line so line-oriented tooling can check
//! it. [`ExecutionProfile::to_folded_stacks`] renders folded stack lines
//! (`lane;frame;frame <self-microseconds>`) for flamegraph builders.

use std::fmt::Write as _;
use std::time::Instant;

/// Hard cap on buffered events per lane; emissions that would not fit
/// are counted in [`LaneProfile::dropped`] instead of growing without
/// bound.
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
    /// Microseconds since the execution's epoch. Wall-clock measurement:
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
    /// Lane id (0 = coordinator; workers follow in partition order).
    pub lane: u32,
    /// Human label (`coordinator`, `worker p2`, ...).
    pub label: String,
    /// Events in emission order (`seq` strictly increasing).
    pub events: Vec<ProfileEvent>,
    /// Emissions discarded because the lane had no room left for them
    /// (see [`LANE_CAPACITY`]); the kept events still balance.
    pub dropped: u64,
}

/// One thread's recording half of an execution timeline: the lane it
/// emits into (`lanes[0]`) followed by the finished lanes it absorbed.
#[derive(Debug)]
pub struct Timeline {
    epoch: Instant,
    /// Spans of the own lane whose `Begin` was kept and whose `End` is
    /// still owed a slot.
    open: usize,
    /// Spans of the own lane whose `Begin` was dropped at capacity; their
    /// `End`s drop too. Always the innermost open spans: once a `Begin`
    /// has been refused, none is admitted again.
    shed: usize,
    lanes: Vec<LaneProfile>,
}

impl Timeline {
    /// An empty timeline whose own lane carries `label`; timestamps count
    /// from `epoch`, which every timeline of one execution shares.
    pub fn new(epoch: Instant, label: impl Into<String>) -> Timeline {
        Timeline {
            epoch,
            open: 0,
            shed: 0,
            lanes: vec![LaneProfile {
                lane: 0,
                label: label.into(),
                events: Vec::new(),
                dropped: 0,
            }],
        }
    }

    /// The instant timestamps count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Records one event into the own lane, or counts it dropped: `kind`
    /// opens a span, closes the innermost open one (`args` annotate it:
    /// rows, pages) or marks a point (spill run formed, segment boundary).
    /// A `Begin` is admitted only while the lane has room for it *and* for
    /// the `End` of every span it has open, so the kept events always
    /// balance and never exceed [`LANE_CAPACITY`].
    pub fn push(
        &mut self,
        kind: SpanKind,
        cat: &'static str,
        name: String,
        args: Vec<(&'static str, u64)>,
    ) {
        let lane = &mut self.lanes[0];
        let room = LANE_CAPACITY.saturating_sub(lane.events.len() + self.open);
        let keep = match kind {
            SpanKind::Begin => room >= 2,
            SpanKind::Instant => room >= 1,
            SpanKind::End => self.shed == 0,
        };
        // A span joins, and later leaves, the kept or the shed ones.
        let spans = if keep { &mut self.open } else { &mut self.shed };
        match kind {
            SpanKind::Begin => *spans += 1,
            SpanKind::End => *spans = spans.saturating_sub(1),
            SpanKind::Instant => {}
        }
        if !keep {
            lane.dropped += 1;
            return;
        }
        lane.events.push(ProfileEvent {
            seq: lane.events.len() as u64,
            kind,
            name,
            cat,
            ts_us: self.epoch.elapsed().as_micros() as u64,
            args,
        });
    }

    /// Appends a finished timeline's lanes behind this one's, renumbered
    /// by position. An exchange absorbs its workers in partition order,
    /// so lane ids reflect partition order, never thread scheduling.
    pub fn absorb(&mut self, other: Timeline) {
        for mut lane in other.lanes {
            lane.lane = self.lanes.len() as u32;
            self.lanes.push(lane);
        }
    }

    /// The finished profile: the own lane first, absorbed lanes behind it.
    pub fn finish(self) -> ExecutionProfile {
        ExecutionProfile { lanes: self.lanes }
    }
}

/// A finished execution timeline: per-lane event buffers in
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
                        let mut key = lane.label.clone();
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
    use SpanKind::{Begin, End, Instant as Point};

    fn timeline(label: &str) -> Timeline {
        Timeline::new(Instant::now(), label)
    }

    fn push(t: &mut Timeline, kind: SpanKind, name: &str) {
        t.push(kind, "operator", name.to_string(), Vec::new());
    }

    #[test]
    fn absorbed_worker_lanes_number_in_partition_order() {
        let mut t = timeline("coordinator");
        push(&mut t, Begin, "sort#0.open");
        push(&mut t, Point, "spill.run_formed");
        // Two exchanges of two workers each: whatever order the threads
        // finished in, absorbing in partition order numbers the lanes.
        for exchange in 0..2 {
            for part in 0..2 {
                let mut w = Timeline::new(t.epoch(), format!("worker p{part}"));
                push(&mut w, Begin, &format!("scan#{exchange}.next/p{part}"));
                push(&mut w, End, &format!("scan#{exchange}.next/p{part}"));
                t.absorb(w);
            }
        }
        push(&mut t, End, "sort#0.open");
        let profile = t.finish();
        let lanes: Vec<(u32, &str)> = profile
            .lanes
            .iter()
            .map(|l| (l.lane, l.label.as_str()))
            .collect();
        assert_eq!(
            lanes,
            [
                (0, "coordinator"),
                (1, "worker p0"),
                (2, "worker p1"),
                (3, "worker p0"),
                (4, "worker p1")
            ]
        );
        assert_eq!(profile.lanes[3].events[0].name, "scan#1.next/p0");
        assert_eq!(profile.event_count(), 11);
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
        let mut t = timeline("coordinator");
        push(&mut t, Begin, "sort#0.open");
        push(&mut t, Begin, "scan#1.next");
        t.push(
            End,
            "operator",
            "scan#1.next".to_string(),
            vec![("rows", 5)],
        );
        push(&mut t, End, "sort#0.open");
        let json = t.finish().to_chrome_trace();
        assert!(json.starts_with("[\n"), "{json}");
        assert!(json.trim_end().ends_with(']'), "{json}");
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 2, "{json}");
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 2, "{json}");
        assert!(json.contains("\"thread_name\""), "{json}");
        assert!(json.contains("\"args\":{\"rows\":5}"), "{json}");
    }

    #[test]
    fn folded_stacks_nest_and_weigh() {
        let mut t = timeline("lane");
        push(&mut t, Begin, "parent");
        push(&mut t, Begin, "child");
        push(&mut t, End, "child");
        push(&mut t, End, "parent");
        let folded = t.finish().to_folded_stacks();
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines.len(), 2, "{folded}");
        assert!(lines[0].starts_with("lane;parent;child "), "{folded}");
        assert!(lines[1].starts_with("lane;parent "), "{folded}");
    }

    #[test]
    fn lane_capacity_counts_drops() {
        // The lane fills up inside two nested open spans: their Ends keep
        // the slots they were owed, a span that opens after the lane is
        // full is shed whole, and every refused emission is counted.
        let mut t = timeline("lane");
        push(&mut t, Begin, "outer");
        push(&mut t, Begin, "inner");
        for _ in 0..(LANE_CAPACITY + 10) {
            push(&mut t, Point, "x");
        }
        push(&mut t, Begin, "late");
        push(&mut t, End, "late");
        push(&mut t, End, "inner");
        push(&mut t, End, "outer");
        let profile = t.finish();
        let lane = &profile.lanes[0];
        assert_eq!(lane.events.len(), LANE_CAPACITY);
        // Of the instants, all but the four slots the two spans take fit.
        assert_eq!(profile.dropped(), 10 + 4 + 2);
        let mut stack = Vec::new();
        for (i, e) in lane.events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            match e.kind {
                Begin => stack.push(e.name.as_str()),
                End => assert_eq!(stack.pop(), Some(e.name.as_str()), "event {i}"),
                Point => assert_eq!(stack, ["outer", "inner"], "event {i}"),
            }
        }
        assert!(stack.is_empty(), "spans left open: {stack:?}");
    }
}
