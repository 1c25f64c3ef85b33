//! Spans recorded by the benchmark around each public call into the
//! engine. They stay in memory during the run and are written out at exit.

use crate::json::Json;

/// One timed interval. `parent` indexes into the same span list; spans of
/// one statement share `statement_id`.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub statement_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover. Children are clipped to the parent and
/// overlapping children are counted once (the union of their intervals).
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let me = &spans[id];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| {
            (
                s.start_ns.clamp(me.start_ns, me.end_ns),
                s.end_ns.clamp(me.start_ns, me.end_ns),
            )
        })
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = me.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    me.duration_ns() - covered
}

pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(&*s.name)),
                    ("start_ns", Json::num(s.start_ns as f64)),
                    ("end_ns", Json::num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::num(p as f64)),
                    ),
                    ("statement_id", Json::num(s.statement_id as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            statement_id: 1,
        }
    }

    #[test]
    fn self_time_subtracts_adjacent_and_nested_children() {
        let spans = vec![
            span("statement", 0, 100, None),
            span("parse", 0, 10, Some(0)),
            span("plan", 10, 40, Some(0)), // adjacent to parse
            span("execute", 50, 90, Some(0)),
            span("sort", 55, 85, Some(3)),
            span("scan", 60, 70, Some(4)), // nested two levels down
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 10 - 30 - 40);
        assert_eq!(self_time_ns(&spans, 3), 40 - 30);
        assert_eq!(self_time_ns(&spans, 4), 30 - 10);
        assert_eq!(self_time_ns(&spans, 5), 10);
        assert_eq!(self_time_ns(&spans, 1), 10);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips_to_parent() {
        let spans = vec![
            span("parent", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 140, 160, Some(0)),    // overlaps a
            span("c", 190, 250, Some(0)),    // runs past the parent
            span("d", 120, 130, Some(0)),    // inside a
            span("other", 0, 1000, Some(7)), // not a child of 0
        ];
        // union = [110,160] + [190,200] = 60
        assert_eq!(self_time_ns(&spans, 0), 100 - 60);
    }
}
