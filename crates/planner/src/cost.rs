//! The cost model.
//!
//! Costs are abstract units calibrated so that one sequentially read page
//! costs 1.0. Random pages cost a multiple of that (seek + rotational
//! penalty on the paper's hardware; cache-miss penalty on ours), and CPU
//! work is charged per row. The absolute values matter less than the
//! ratios: the model must rank an ordered (clustered) probe stream ahead
//! of random probes, and an avoided sort ahead of a redundant one — the
//! decisions the paper's Figure 7 plan embodies.

/// Cost of one sequentially read page.
pub const SEQ_PAGE: f64 = 1.0;
/// Cost of one randomly read page.
pub const RAND_PAGE: f64 = 4.0;
/// CPU cost of processing one row through an operator.
pub const CPU_ROW: f64 = 0.001;
/// CPU cost of one comparison inside a sort.
///
/// Calibrated for the executor's default normalized-key path
/// ([`fto_common::sortkey`]): a comparison is a `memcmp` of two short
/// byte strings, not a per-column `Value` dispatch, so it prices the
/// same as a hash-table op ([`CPU_HASH`]).
pub const CPU_SORT_CMP: f64 = 0.002;
/// CPU cost of one hash-table insert/lookup.
pub const CPU_HASH: f64 = 0.002;
/// CPU cost of evaluating one predicate on one row.
pub const CPU_PRED: f64 = 0.0005;
/// B-tree descent cost per probe (root/internal pages are cached).
pub const PROBE_DESCENT: f64 = 0.004;

/// An accumulated plan cost with its cardinality estimate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Cost {
    /// Total abstract cost.
    pub total: f64,
    /// Estimated output rows.
    pub rows: f64,
}

impl Cost {
    /// A zero cost producing `rows` rows.
    pub fn rows(rows: f64) -> Cost {
        Cost { total: 0.0, rows }
    }

    /// Adds `amount` to the total, keeping cardinality.
    pub fn plus(mut self, amount: f64) -> Cost {
        self.total += amount;
        self
    }

    /// Replaces the cardinality estimate.
    pub fn with_rows(mut self, rows: f64) -> Cost {
        self.rows = rows.max(0.0);
        self
    }
}

/// Cost of a full table scan.
pub fn table_scan(pages: u64, rows: f64) -> f64 {
    pages as f64 * SEQ_PAGE + rows * CPU_ROW
}

/// Cost of an index scan fetching `fetch_rows` of a table with
/// `table_pages` data pages. A clustered index reads data pages in order;
/// an unclustered one pays a random page per fetched row, capped at a full
/// random read of the table (every page touched out of order).
pub fn index_scan(
    leaf_pages: u64,
    table_pages: u64,
    fetch_rows: f64,
    fraction: f64,
    clustered: bool,
) -> f64 {
    let frac = fraction.clamp(0.0, 1.0);
    let leaf = leaf_pages as f64 * frac * SEQ_PAGE;
    let data = if clustered {
        table_pages as f64 * frac * SEQ_PAGE
    } else {
        (fetch_rows * RAND_PAGE).min(table_pages as f64 * RAND_PAGE)
    };
    leaf + data + fetch_rows * CPU_ROW
}

/// Merge fan-in of the external sort: how many spilled runs one merge
/// pass combines. Shared with the executor, whose multi-pass merge uses
/// the same constant, so `calibrate` can compare the estimated pass
/// count against the actual one.
pub const MERGE_FAN_IN: usize = 8;

/// Work space the planner assumes a sort has before it spills, in bytes.
/// Independent of the executor's `memory_budget`: pricing sorts against
/// the budget instead re-plans budgeted queries (measured +81 % page cost
/// on the `bounded_memory` workload), so that fold is its own change.
pub(crate) const SORT_MEMORY: usize = 16 << 20;

/// Number of spill passes an external sort of `bytes` bytes makes with
/// `memory` bytes of work space: zero when the input fits, else
/// `ceil(log_F(runs))` merge passes over `runs = ceil(bytes / memory)`
/// initial runs with fan-in `F` ([`MERGE_FAN_IN`]). Each pass writes and
/// reads every page once (§6 of the paper prices exactly this shape).
pub fn sort_spill_passes(bytes: f64, memory: usize) -> f64 {
    if bytes <= memory as f64 || memory == 0 {
        return if memory == 0 && bytes > 0.0 { 1.0 } else { 0.0 };
    }
    let runs = (bytes / memory as f64).ceil();
    (runs.log2() / (MERGE_FAN_IN as f64).log2()).ceil().max(1.0)
}

/// Cost of sorting `rows` rows of `row_width` bytes with `memory` bytes of
/// work space, arriving in `groups` contiguous groups each sorted on its
/// own: `G · sort(n / G)` over uniform groups of `n / G` rows. A full sort
/// is one group; a segmented sort, whose input already satisfies a prefix
/// of the requirement, sorts only the residual suffix within each prefix
/// group (Guravannavar et al. price a partially sorted input the same
/// way), so it is cheaper whenever the prefix has more than one distinct
/// value: `n·log₂(n/G)` comparisons instead of `n·log₂(n)`, and one
/// group's working set priced against memory instead of the whole
/// input's. The group count is clamped to `[1, rows]`.
pub fn sort(rows: f64, groups: f64, row_width: usize, memory: usize) -> f64 {
    let groups = groups.clamp(1.0, rows.max(1.0));
    groups * sort_group(rows / groups, row_width, memory)
}

/// Cost of sorting one group of `rows` rows: n·log₂(n) comparisons plus,
/// when the group exceeds memory, one spill write + read of every page
/// *per merge pass* — [`sort_spill_passes`] of them. (An earlier version
/// charged exactly one pass regardless of how far the input exceeded
/// memory, which under-costed heavily oversized sorts relative to
/// pre-sorted index paths.)
fn sort_group(rows: f64, row_width: usize, memory: usize) -> f64 {
    if rows <= 1.0 {
        return rows * CPU_SORT_CMP;
    }
    let cmp = rows * rows.log2() * CPU_SORT_CMP;
    let bytes = rows * row_width as f64;
    let pages = bytes / crate::plan::SIM_PAGE_BYTES;
    cmp + sort_spill_passes(bytes, memory) * 2.0 * pages * SEQ_PAGE
}

/// Per-probe cost of an index nested-loop join into a table.
///
/// `matches_per_probe` rows are fetched per probe. When the outer stream
/// is ordered on the probe column *and* the inner index is clustered, the
/// probes walk the inner table forward — the model amortizes the whole
/// inner table as one sequential pass split across the probes, the effect
/// the paper's ordered nested-loop join exists to create. Otherwise every
/// distinct fetched row costs a random page.
pub fn index_probe(
    probes: f64,
    matches_per_probe: f64,
    table_pages: u64,
    ordered_and_clustered: bool,
) -> f64 {
    let descent = probes * PROBE_DESCENT;
    let fetched = probes * matches_per_probe;
    let data = if ordered_and_clustered {
        (table_pages as f64 * SEQ_PAGE).min(fetched * SEQ_PAGE) + fetched * CPU_ROW
    } else {
        fetched * RAND_PAGE + fetched * CPU_ROW
    };
    descent + data
}

/// Cost of the merge phase of a merge join (inputs costed separately).
///
/// `avg_inner_ties` is the expected number of inner rows per distinct
/// join-key value (≥ 1). The streaming merge join buffers each inner tie
/// group and rescans it for every outer row sharing the key, so each
/// outer row touches `avg_inner_ties` buffered rows, not one: with heavy
/// duplication the merge phase does `outer_rows × avg_inner_ties` row
/// visits. Ignoring that term (i.e. assuming ties = 1) systematically
/// under-costs duplicate-heavy merge joins against hash joins.
pub fn merge_join(outer_rows: f64, inner_rows: f64, avg_inner_ties: f64) -> f64 {
    let rescans = outer_rows * (avg_inner_ties.max(1.0) - 1.0);
    (outer_rows + inner_rows + rescans) * CPU_ROW
}

/// Cost of a hash join given both input cardinalities.
pub fn hash_join(build_rows: f64, probe_rows: f64) -> f64 {
    build_rows * (CPU_HASH + CPU_ROW) + probe_rows * (CPU_HASH + CPU_ROW)
}

/// Cost of a streaming (order-based) group-by.
pub fn stream_group_by(rows: f64) -> f64 {
    rows * CPU_ROW
}

/// Cost of a hash group-by.
pub fn hash_group_by(rows: f64, groups: f64) -> f64 {
    rows * (CPU_HASH + CPU_ROW) + groups * CPU_ROW
}

/// Cost of applying `n_preds` predicates to `rows` rows.
pub fn filter(rows: f64, n_preds: usize) -> f64 {
    rows * n_preds as f64 * CPU_PRED
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clustered_index_beats_unclustered_for_big_fractions() {
        let clustered = index_scan(10, 100, 5000.0, 1.0, true);
        let unclustered = index_scan(10, 100, 5000.0, 1.0, false);
        assert!(clustered < unclustered);
    }

    #[test]
    fn unclustered_cost_caps_at_table_random_read() {
        let huge = index_scan(10, 100, 1e9, 1.0, false);
        let capped = 10.0 * SEQ_PAGE + 100.0 * RAND_PAGE + 1e9 * CPU_ROW;
        assert!((huge - capped).abs() < 1e-6);
    }

    #[test]
    fn ordered_probes_beat_random_probes() {
        let ordered = index_probe(10_000.0, 2.0, 500, true);
        let random = index_probe(10_000.0, 2.0, 500, false);
        assert!(ordered < random / 2.0, "{ordered} vs {random}");
    }

    #[test]
    fn sort_grows_superlinearly() {
        let small = sort(1_000.0, 1.0, 32, 1 << 30);
        let big = sort(10_000.0, 1.0, 32, 1 << 30);
        assert!(big > 10.0 * small);
        assert_eq!(sort(0.0, 1.0, 32, 1024), 0.0);
        assert!(sort(1.0, 1.0, 32, 1024) > 0.0);
    }

    #[test]
    fn sort_spill_charges_io() {
        let in_mem = sort(10_000.0, 1.0, 100, 10_000 * 100 + 1);
        let spilled = sort(10_000.0, 1.0, 100, 1 << 10);
        assert!(spilled > in_mem);
    }

    #[test]
    fn spill_passes_follow_log_fan_in() {
        let m = 1 << 20; // 1 MiB work space
        assert_eq!(sort_spill_passes(0.0, m), 0.0);
        assert_eq!(sort_spill_passes(m as f64, m), 0.0); // exactly fits
                                                         // Up to fan-in runs: a single merge pass, as the old model assumed.
        assert_eq!(sort_spill_passes(2.0 * m as f64, m), 1.0);
        assert_eq!(sort_spill_passes(8.0 * m as f64, m), 1.0);
        // Past the fan-in the old model was wrong: more passes.
        assert_eq!(sort_spill_passes(9.0 * m as f64, m), 2.0);
        assert_eq!(sort_spill_passes(64.0 * m as f64, m), 2.0);
        assert_eq!(sort_spill_passes(65.0 * m as f64, m), 3.0);
    }

    #[test]
    fn multi_pass_spill_flips_plan_choice() {
        // 100k rows × 1 KB against a 1 MiB work space: 96 initial runs,
        // so the fixed model charges ceil(log₈ 96) = 3 write+read passes
        // where the old model charged exactly 1. An unclustered index
        // delivering the order sort-free sits between the two totals, so
        // the fix flips the plan choice from scan+sort to the index path.
        let rows = 100_000.0;
        let width = 1000usize;
        let memory = 1usize << 20;
        let bytes = rows * width as f64;
        let pages = (bytes / crate::plan::SIM_PAGE_BYTES) as u64;
        assert_eq!(sort_spill_passes(bytes, memory), 3.0);

        let cmp = rows * rows.log2() * CPU_SORT_CMP;
        let one_pass_spill = 2.0 * pages as f64 * SEQ_PAGE; // the old bug
        let scan_sort_old = table_scan(pages, rows) + cmp + one_pass_spill;
        let scan_sort_fixed = table_scan(pages, rows) + sort(rows, 1.0, width, memory);
        let index_path = index_scan(pages / 60, pages, rows, 1.0, false);

        assert!(
            scan_sort_old < index_path,
            "old model kept the sort: {scan_sort_old} vs {index_path}"
        );
        assert!(
            index_path < scan_sort_fixed,
            "fixed model flips to the index: {index_path} vs {scan_sort_fixed}"
        );
    }

    #[test]
    fn segmented_sort_beats_full_sort_past_one_group() {
        // One law for every sort: one group costs exactly the full sort,
        // more groups cost strictly less, monotonically, and the group
        // count is clamped to [1, rows].
        let rows = 1_000_000.0;
        let price = |groups: f64| sort(rows, groups, 48, 1 << 30);
        let full = sort_group(rows, 48, 1 << 30);
        assert_eq!(price(1.0).to_bits(), full.to_bits());
        let costs: Vec<f64> = [1.0, 2.0, 10.0, 1_000.0, 100_000.0, rows]
            .into_iter()
            .map(price)
            .collect();
        assert!(costs.windows(2).all(|w| w[1] < w[0]), "{costs:?}");
        assert_eq!(price(0.0), price(1.0));
        assert_eq!(price(-5.0), price(1.0));
        assert_eq!(price(1e9), price(rows));
        assert_eq!(sort(0.0, 0.0, 48, 1 << 30), 0.0);
    }

    #[test]
    fn segmented_sort_avoids_spill_when_groups_fit() {
        // The whole input exceeds memory but each group fits: the full
        // sort pays spill passes, the segmented sort none.
        let rows = 100_000.0;
        let width = 100usize;
        let memory = 64 << 10;
        let full = sort(rows, 1.0, width, memory);
        let seg = sort(rows, 1_000.0, width, memory);
        assert!(sort_spill_passes(rows * width as f64, memory) > 0.0);
        assert_eq!(
            sort_spill_passes(rows / 1_000.0 * width as f64, memory),
            0.0
        );
        assert!(seg < full / 2.0, "{seg} vs {full}");
    }

    #[test]
    fn merge_join_charges_tie_rescans() {
        // Unique inner keys: the tie term vanishes and the cost is the
        // plain two-stream pass.
        let unique = merge_join(1_000.0, 1_000.0, 1.0);
        assert!((unique - 2_000.0 * CPU_ROW).abs() < 1e-12);
        // 10 inner duplicates per key: each outer row rescans 9 extra
        // buffered rows.
        let dup = merge_join(1_000.0, 1_000.0, 10.0);
        assert!((dup - (2_000.0 + 9_000.0) * CPU_ROW).abs() < 1e-12);
        assert!(dup > unique);
        // Ties below 1 (estimator noise) are clamped, never a discount.
        assert_eq!(merge_join(1_000.0, 1_000.0, 0.5), unique);
    }

    #[test]
    fn cost_builder() {
        let c = Cost::rows(10.0).plus(5.0).with_rows(3.0);
        assert_eq!(c.total, 5.0);
        assert_eq!(c.rows, 3.0);
        assert_eq!(Cost::rows(1.0).with_rows(-4.0).rows, 0.0);
    }

    #[test]
    fn table_scan_charges_pages_and_rows() {
        let c = table_scan(10, 400.0);
        assert!((c - (10.0 + 0.4)).abs() < 1e-9);
    }
}
