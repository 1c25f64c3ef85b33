//! The one reader of a satisfied prefix, shared by the order-consuming
//! operators: the enforcer's groups, the grouping's segments and the merge
//! join's runs are the runs it cuts.

use super::Batch;
use crate::sortkernel::{KeyArena, SortKeys};

/// Reads the prefix of an order its input already satisfies, batch by
/// batch. Rows sharing a prefix value are contiguous, so a *run* starts at
/// the input's first row and at every row whose encoded prefix differs
/// from the row before it — the previous batch's last row included, whose
/// prefix is carried. Runs are cut on encoded-prefix byte equality: the
/// codec is injective up to `total_cmp`, so it cuts exactly the runs
/// `Value` equality would (Int 5 ≡ Double 5.0, one NaN, one zero). An
/// empty prefix is one run, and nothing is encoded for it.
pub(super) struct PrefixReader {
    /// The prefix's key positions.
    pub(super) keys: SortKeys,
    /// The encoded prefix of every row of the batch cut last.
    arena: KeyArena,
    /// The encoded prefix of the last row cut: the open run's.
    lead: Vec<u8>,
    /// A row has been cut: its run is open. Clearing it makes the next
    /// row cut start a run, as the input's first.
    pub(super) open: bool,
    /// The rows of the batch cut last that start a run, ascending.
    pub(super) starts: Vec<u32>,
}

impl PrefixReader {
    pub(super) fn new(keys: SortKeys) -> PrefixReader {
        PrefixReader {
            keys,
            arena: KeyArena::default(),
            lead: Vec::new(),
            open: false,
            starts: Vec::new(),
        }
    }

    /// Cuts the input's next batch: `starts` becomes its rows that start a
    /// run. Returns whether a run was open before it, so that a start at
    /// row 0 ends that run.
    pub(super) fn cut(&mut self, batch: &Batch) -> bool {
        let was_open = self.open;
        self.open |= !batch.is_empty();
        self.starts.clear();
        if self.keys.is_empty() {
            self.starts.extend((!was_open && self.open).then_some(0));
            return was_open;
        }
        self.arena.encode(batch, &self.keys);
        let mut prev = was_open.then_some(&self.lead[..]);
        for i in 0..batch.len() {
            let key = self.arena.get(i);
            if prev != Some(key) {
                self.starts.push(i as u32);
            }
            prev = Some(key);
        }
        if let Some(last) = batch.len().checked_sub(1) {
            self.lead.clear();
            self.lead.extend_from_slice(self.arena.get(last));
        }
        was_open
    }

    /// The encoded prefix of row `i` of the batch cut last (a non-empty
    /// prefix only).
    pub(super) fn key(&self, i: usize) -> &[u8] {
        self.arena.get(i)
    }
}
