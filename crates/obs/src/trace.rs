//! The optimizer's decision log.
//!
//! A [`Trace`] is a plain value: a bounded ring of [`TraceEvent`]s that
//! drops its oldest entries first and says how many it dropped. Whoever
//! makes the decisions owns the log — the planner holds one as a field
//! when it was asked to trace and pushes into it from the same call that
//! bumps the decision's counter — so there is no collector to install,
//! nothing thread-local, and two sessions planning at once cannot see
//! each other's events.
//!
//! Payloads are plain pre-rendered strings: the recording layer formats
//! its domain objects (order specifications, plan descriptions) when it
//! builds the event, which keeps this crate dependency-free. The log
//! holds *decisions* only. The four order-algebra operations run a
//! million times under a five-table join; they are counted where they
//! run (`fto_order::ContextWork`), not logged, and every count a report
//! prints beside the log is the planner's own and therefore exact
//! whatever the ring dropped.

use std::collections::VecDeque;
use std::fmt::Write as _;

/// Ring capacity of a planner's log: large enough that a four-table
/// TPC-D enumeration fits without drops.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// One typed optimizer-trace event. String payloads are rendered by the
/// emitter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A nesting scope opened (e.g. "box b0 (select)").
    SpanStart {
        /// Scope label.
        name: String,
    },
    /// The matching scope closed.
    SpanEnd {
        /// Scope label (same as the opening event).
        name: String,
    },
    /// The planner produced a candidate plan.
    PlanGenerated {
        /// Which enumeration stage produced it ("access", "join", ...).
        stage: &'static str,
        /// Description of the plan: operator, cost, rows, order property.
        plan: String,
    },
    /// A candidate was discarded by cost + property dominance pruning.
    PlanPruned {
        /// The discarded plan.
        loser: String,
        /// The surviving plan that dominates it (at most as expensive,
        /// at least as good on every property dimension).
        winner: String,
    },
    /// A sort enforcer was added to a plan.
    SortAdded {
        /// The (minimal, reduced) sort specification.
        spec: String,
        /// The plan being sorted.
        input: String,
    },
    /// An order requirement was satisfied by an existing order property —
    /// the paper's payoff: no sort needed.
    SortAvoided {
        /// The requirement that was tested.
        requirement: String,
        /// The order property that satisfied it.
        order: String,
    },
    /// The planner replaced a full sort with a segmented (partial) sort:
    /// the input's order property already satisfies a prefix of the
    /// requirement, so only the residual suffix is sorted, within each
    /// prefix group.
    PartialSortChosen {
        /// The satisfied prefix of the (reduced) requirement.
        prefix: String,
        /// The residual suffix the segmented sort enforces per group.
        suffix: String,
        /// Estimated number of prefix groups (from distinct-value stats).
        groups: u64,
    },
    /// A sort-ahead variant was generated for an interesting order.
    SortAhead {
        /// The interesting order being pushed down.
        interest: String,
        /// The resulting sorted plan.
        plan: String,
    },
    /// Free-form annotation.
    Note {
        /// The annotation text.
        text: String,
    },
}

/// The decision log of one planning run: the retained events and how
/// many older ones the ring dropped to make room.
#[derive(Clone, Debug)]
pub struct Trace {
    events: VecDeque<TraceEvent>,
    dropped: u64,
    capacity: usize,
}

impl Trace {
    /// An empty log retaining at most `capacity` events (at least one).
    pub fn new(capacity: usize) -> Trace {
        Trace {
            events: VecDeque::with_capacity(capacity.min(1024)),
            dropped: 0,
            capacity: capacity.max(1),
        }
    }

    /// Appends an event, dropping the oldest one when the ring is full.
    pub fn push(&mut self, event: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> &VecDeque<TraceEvent> {
        &self.events
    }

    /// Events dropped because the ring was full (oldest first).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Renders the log as indented text: spans nest, every other event
    /// prints one line, and a closing line says how many earlier events
    /// the ring dropped.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut depth = 0usize;
        for event in &self.events {
            let pad = "  ".repeat(depth);
            match event {
                TraceEvent::SpanStart { name } => {
                    let _ = writeln!(out, "{pad}{name}");
                    depth += 1;
                }
                TraceEvent::SpanEnd { .. } => depth = depth.saturating_sub(1),
                TraceEvent::PlanGenerated { stage, plan } => {
                    let _ = writeln!(out, "{pad}plan[{stage}]: {plan}");
                }
                TraceEvent::PlanPruned { loser, winner } => {
                    let _ = writeln!(out, "{pad}pruned: {loser} -- dominated by {winner}");
                }
                TraceEvent::SortAdded { spec, input } => {
                    let _ = writeln!(out, "{pad}sort added on {spec} over {input}");
                }
                TraceEvent::SortAvoided { requirement, order } => {
                    let _ = writeln!(
                        out,
                        "{pad}sort avoided: requirement {requirement} satisfied by order {order}"
                    );
                }
                TraceEvent::PartialSortChosen {
                    prefix,
                    suffix,
                    groups,
                } => {
                    let _ = writeln!(
                        out,
                        "{pad}PartialSortChosen: prefix {prefix} satisfied, \
                         sorting {suffix} within ~{groups} groups"
                    );
                }
                TraceEvent::SortAhead { interest, plan } => {
                    let _ = writeln!(out, "{pad}sort-ahead for {interest}: {plan}");
                }
                TraceEvent::Note { text } => {
                    let _ = writeln!(out, "{pad}note: {text}");
                }
            }
        }
        if self.dropped > 0 {
            let _ = writeln!(
                out,
                "... {} earlier events dropped (ring full)",
                self.dropped
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_collects_and_counts() {
        let mut trace = Trace::new(16);
        trace.push(TraceEvent::PlanGenerated {
            stage: "access",
            plan: "scan cost=1.0".into(),
        });
        trace.push(TraceEvent::PlanPruned {
            loser: "a".into(),
            winner: "b".into(),
        });
        trace.push(TraceEvent::SpanStart {
            name: "box b0 (select)".into(),
        });
        trace.push(TraceEvent::SortAdded {
            spec: "(c1)".into(),
            input: "scan".into(),
        });
        trace.push(TraceEvent::SpanEnd {
            name: "box b0 (select)".into(),
        });
        trace.push(TraceEvent::Note {
            text: "done".into(),
        });
        assert_eq!(trace.events.len(), 6);
        assert_eq!(trace.dropped, 0);
        let text = trace.render();
        assert!(text.contains("plan[access]"), "{text}");
        assert!(text.contains("pruned: a -- dominated by b"), "{text}");
        // The sort event is indented under the span; the note after the
        // span closed is not.
        assert!(text.contains("\n  sort added"), "{text}");
        assert!(text.contains("\nnote: done"), "{text}");
        assert!(!text.contains("dropped"), "{text}");
    }

    #[test]
    fn partial_sort_event_renders_and_counts() {
        let mut trace = Trace::new(16);
        trace.push(TraceEvent::PartialSortChosen {
            prefix: "(c1)".into(),
            suffix: "(c2)".into(),
            groups: 42,
        });
        assert_eq!(trace.events.len(), 1);
        let text = trace.render();
        assert!(
            text.contains("PartialSortChosen: prefix (c1) satisfied"),
            "{text}"
        );
        assert!(text.contains("~42 groups"), "{text}");
    }

    #[test]
    fn ring_drops_oldest_and_keeps_exact_counts() {
        let mut trace = Trace::new(4);
        for i in 0..10 {
            trace.push(TraceEvent::Note {
                text: format!("n{i}"),
            });
        }
        assert_eq!(trace.events.len(), 4);
        assert_eq!(trace.dropped, 6);
        assert_eq!(trace.events[0], TraceEvent::Note { text: "n6".into() });
        assert_eq!(trace.events[3], TraceEvent::Note { text: "n9".into() });
        assert!(trace.render().contains("6 earlier events dropped"));
    }
}
