//! The wrapper an instrumented execution puts around every operator.

use super::{Batch, ExecContext, Operator};
use crate::metrics::{ExecRecord, ExecStats};
use fto_common::Result;
use fto_obs::SpanKind;
use std::time::Instant;

/// Records subtree-inclusive metrics for one operator into its slot of
/// the record, `rec.ops[id]`.
///
/// The wrapper snapshots the [`ExecStats`] stream before delegating and
/// merges the delta afterwards, so a slot accumulates everything charged
/// while control was inside its subtree — children included, every
/// counter alike. Exclusive figures are derived later by
/// [`PlanMetrics::self_stats`]; recording inclusively here is what makes
/// that subtraction telescope exactly to the session totals. Under an
/// exchange every worker's wrappers fill the slots of that worker's
/// private record, and the coordinator sums them slot by slot as it
/// absorbs the records — the same sum it merges into the session stream,
/// keeping the telescoping intact at every parallel degree.
pub(super) struct InstrumentedOp {
    pub(super) inner: Box<dyn Operator>,
    pub(super) id: usize,
    /// `name#id` — the label of the spans this wrapper puts on the
    /// timeline of a profiled execution.
    pub(super) label: String,
}

impl InstrumentedOp {
    /// Runs one `open`/`next_batch` call of the wrapped operator inside a
    /// `label.phase` span, adding the stream's delta and the time spent
    /// to the slot; `args` annotate the span's end from the call's result
    /// and the delta.
    fn observed<T>(
        &mut self,
        phase: &str,
        rec: &mut ExecRecord,
        call: impl FnOnce(&mut dyn Operator, &mut ExecRecord) -> T,
        args: impl FnOnce(&T, &ExecStats) -> Vec<(&'static str, u64)>,
    ) -> T {
        let name = || format!("{}.{phase}", self.label);
        rec.emit(SpanKind::Begin, "operator", name, Vec::new);
        let before = rec.stats;
        let started = Instant::now();
        let out = call(self.inner.as_mut(), rec);
        // Counters only grow: the subtraction cannot come up short.
        let delta = rec.stats.checked_sub(&before).unwrap_or_default();
        let m = &mut rec.ops[self.id];
        m.elapsed += started.elapsed();
        m.stats.merge(&delta);
        rec.emit(SpanKind::End, "operator", name, || args(&out, &delta));
        out
    }
}

impl Operator for InstrumentedOp {
    fn open(&mut self, cx: &ExecContext<'_>, rec: &mut ExecRecord) -> Result<()> {
        self.observed(
            "open",
            rec,
            |op, rec| op.open(cx, rec),
            |_, d| {
                vec![
                    ("seq_pages", d.io.sequential_pages),
                    ("sort_rows", d.io.sort_rows),
                ]
            },
        )
    }

    fn next_batch(&mut self, cx: &ExecContext<'_>, rec: &mut ExecRecord) -> Result<Option<Batch>> {
        let result = self.observed(
            "next",
            rec,
            |op, rec| op.next_batch(cx, rec),
            |result, _| {
                let batch = result.as_ref().ok().and_then(Option::as_ref);
                vec![("rows", batch.map_or(0, Batch::len) as u64)]
            },
        );
        if let Ok(Some(batch)) = &result {
            let m = &mut rec.ops[self.id];
            m.rows += batch.len() as u64;
            m.batches += 1;
        }
        result
    }

    fn close(&mut self, rec: &mut ExecRecord) {
        let name = || format!("{}.close", self.label);
        rec.emit(SpanKind::Begin, "operator", name, Vec::new);
        self.inner.close(rec);
        rec.emit(SpanKind::End, "operator", name, Vec::new);
    }
}
