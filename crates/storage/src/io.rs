//! Simulated page I/O accounting.

use std::fmt;

/// Logical page size in bytes. Matches the 4 KiB pages DB2 used.
pub const PAGE_SIZE: usize = 4096;

/// Counters for simulated I/O, accumulated during execution.
///
/// The cost model and the benchmark harness read these to report the
/// *shape* the paper measures: plans that turn random probes into
/// sequential access show dramatically lower `random_pages`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Pages read sequentially (table scans, clustered range scans).
    pub sequential_pages: u64,
    /// Pages read at random (unclustered probes, page jumps).
    pub random_pages: u64,
    /// Index leaf/internal page touches.
    pub index_pages: u64,
    /// Rows materialized by sorts (spill proxy).
    pub sort_rows: u64,
    /// Rows produced by scans.
    pub rows_read: u64,
    /// Pages written to spill files (external sort runs, hash
    /// partitions). Spill writes are always sequential appends.
    pub spill_pages_written: u64,
    /// Pages read back from spill files (merge passes, partition
    /// replays).
    pub spill_pages_read: u64,
    /// Always zero: the engine has no page cache, so every touch is
    /// charged by [`PageCursor`] at every memory budget. Kept because the
    /// benchmark's `storage.pool_hit_ratio` still reads it.
    pub pool_hits: u64,
    /// Always zero, like [`IoStats::pool_hits`].
    pub pool_misses: u64,
}

impl IoStats {
    /// Zeroed counters.
    pub fn new() -> IoStats {
        IoStats::default()
    }

    /// Adds another set of counters into this one.
    pub fn merge(&mut self, other: &IoStats) {
        self.sequential_pages += other.sequential_pages;
        self.random_pages += other.random_pages;
        self.index_pages += other.index_pages;
        self.sort_rows += other.sort_rows;
        self.rows_read += other.rows_read;
        self.spill_pages_written += other.spill_pages_written;
        self.spill_pages_read += other.spill_pages_read;
        self.pool_hits += other.pool_hits;
        self.pool_misses += other.pool_misses;
    }

    /// A single scalar summary used for comparing plans in reports:
    /// random pages are weighted heavier than sequential ones, mirroring
    /// the cost model's constants. Spill traffic is sequential by
    /// construction (runs are appended and merged front to back), so both
    /// spill directions count at the sequential rate.
    pub fn weighted_page_cost(&self) -> f64 {
        self.sequential_pages as f64
            + 4.0 * self.random_pages as f64
            + self.index_pages as f64
            + self.spill_pages_written as f64
            + self.spill_pages_read as f64
    }

    /// `self - other` when every field of `other` is ≤ the matching field
    /// of `self`; `None` otherwise. Used by metric rollups to detect
    /// attribution bugs (a child charged more than its parent observed).
    pub fn checked_sub(&self, other: &IoStats) -> Option<IoStats> {
        Some(IoStats {
            sequential_pages: self.sequential_pages.checked_sub(other.sequential_pages)?,
            random_pages: self.random_pages.checked_sub(other.random_pages)?,
            index_pages: self.index_pages.checked_sub(other.index_pages)?,
            sort_rows: self.sort_rows.checked_sub(other.sort_rows)?,
            rows_read: self.rows_read.checked_sub(other.rows_read)?,
            spill_pages_written: self
                .spill_pages_written
                .checked_sub(other.spill_pages_written)?,
            spill_pages_read: self.spill_pages_read.checked_sub(other.spill_pages_read)?,
            pool_hits: self.pool_hits.checked_sub(other.pool_hits)?,
            pool_misses: self.pool_misses.checked_sub(other.pool_misses)?,
        })
    }
}

impl fmt::Display for IoStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seq_pages={} rand_pages={} index_pages={} sort_rows={} rows_read={}",
            self.sequential_pages,
            self.random_pages,
            self.index_pages,
            self.sort_rows,
            self.rows_read
        )?;
        // Spill counters only appear once something spilled, keeping the
        // common in-memory case's output stable.
        if self.spill_pages_written != 0 || self.spill_pages_read != 0 {
            write!(
                f,
                " spill_w={} spill_r={}",
                self.spill_pages_written, self.spill_pages_read
            )?;
        }
        Ok(())
    }
}

/// Tracks the most recently touched page of one access path, so that
/// consecutive touches of the same page cost nothing and forward moves to
/// the adjacent page count as sequential rather than random I/O.
///
/// The very first touch has no predecessor, so its charge is a policy
/// choice: a heap scan's first page is the head of a sequential walk
/// ([`PageCursor::new`]), while an unclustered probe stream's first fetch
/// is a seek like every other ([`PageCursor::probing`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct PageCursor {
    last_page: Option<u64>,
    first_touch_random: bool,
}

impl PageCursor {
    /// A cursor that has touched nothing; the first touch is charged as
    /// sequential (scan semantics).
    pub fn new() -> PageCursor {
        PageCursor::default()
    }

    /// A cursor for unclustered probe streams: the first touch is charged
    /// as a random page, since a probe's opening fetch pays a full seek —
    /// charging it as sequential undercounts random I/O by one page per
    /// probe stream.
    pub fn probing() -> PageCursor {
        PageCursor {
            last_page: None,
            first_touch_random: true,
        }
    }

    /// Charges a touch of `page` to `stats`: same page — free; next page —
    /// sequential; anything else — random. The first touch follows the
    /// cursor's policy (see [`PageCursor::new`] vs [`PageCursor::probing`]).
    /// This is the one page model: a memory budget changes what spills,
    /// never what a touch costs.
    pub fn touch(&mut self, page: u64, stats: &mut IoStats) {
        match self.last_page {
            Some(last) if last == page => {}
            Some(last) if page == last + 1 => {
                stats.sequential_pages += 1;
                self.last_page = Some(page);
            }
            None => {
                if self.first_touch_random {
                    stats.random_pages += 1;
                } else {
                    stats.sequential_pages += 1;
                }
                self.last_page = Some(page);
            }
            _ => {
                stats.random_pages += 1;
                self.last_page = Some(page);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_touches() {
        let mut c = PageCursor::new();
        let mut s = IoStats::new();
        for p in 0..5 {
            c.touch(p, &mut s);
        }
        assert_eq!(s.sequential_pages, 5);
        assert_eq!(s.random_pages, 0);
    }

    #[test]
    fn repeated_touch_is_free() {
        let mut c = PageCursor::new();
        let mut s = IoStats::new();
        c.touch(3, &mut s);
        c.touch(3, &mut s);
        c.touch(3, &mut s);
        assert_eq!(s.sequential_pages, 1);
        assert_eq!(s.random_pages, 0);
    }

    #[test]
    fn jumps_are_random() {
        let mut c = PageCursor::new();
        let mut s = IoStats::new();
        c.touch(0, &mut s);
        c.touch(9, &mut s);
        c.touch(2, &mut s); // backward jump
        assert_eq!(s.sequential_pages, 1);
        assert_eq!(s.random_pages, 2);
    }

    #[test]
    fn ordered_probes_beat_unordered() {
        // The heart of the ordered-NLJ effect: the same set of page
        // touches costs far less in sorted order.
        let pages: Vec<u64> = (0..100).map(|i| (i * 37) % 50).collect();
        let mut sorted = pages.clone();
        sorted.sort_unstable();

        let mut s_rand = IoStats::new();
        let mut c = PageCursor::new();
        for &p in &pages {
            c.touch(p, &mut s_rand);
        }
        let mut s_sorted = IoStats::new();
        let mut c = PageCursor::new();
        for &p in &sorted {
            c.touch(p, &mut s_sorted);
        }
        assert!(s_sorted.weighted_page_cost() < s_rand.weighted_page_cost() / 2.0);
        assert_eq!(s_sorted.random_pages, 0);
    }

    #[test]
    fn probing_cursor_charges_first_touch_as_random() {
        let mut c = PageCursor::probing();
        let mut s = IoStats::new();
        c.touch(7, &mut s);
        assert_eq!(s.random_pages, 1);
        assert_eq!(s.sequential_pages, 0);
        // After the first touch the usual adjacency rules apply.
        c.touch(7, &mut s);
        c.touch(8, &mut s);
        assert_eq!(s.random_pages, 1);
        assert_eq!(s.sequential_pages, 1);
    }

    #[test]
    fn delta_and_checked_sub() {
        let a = IoStats {
            sequential_pages: 5,
            random_pages: 3,
            index_pages: 2,
            sort_rows: 1,
            rows_read: 9,
            spill_pages_written: 6,
            spill_pages_read: 6,
            pool_hits: 2,
            pool_misses: 1,
        };
        let b = IoStats {
            sequential_pages: 2,
            random_pages: 1,
            index_pages: 2,
            sort_rows: 0,
            rows_read: 4,
            spill_pages_written: 4,
            spill_pages_read: 2,
            pool_hits: 1,
            pool_misses: 0,
        };
        let d = IoStats {
            sequential_pages: 3,
            random_pages: 2,
            index_pages: 0,
            sort_rows: 1,
            rows_read: 5,
            spill_pages_written: 2,
            spill_pages_read: 4,
            pool_hits: 1,
            pool_misses: 1,
        };
        assert_eq!(a.checked_sub(&b), Some(d));
        // Subtracting more than was charged is an attribution bug.
        assert_eq!(b.checked_sub(&a), None);
    }

    #[test]
    fn merge_and_display() {
        let mut a = IoStats {
            sequential_pages: 1,
            random_pages: 2,
            index_pages: 3,
            sort_rows: 4,
            rows_read: 5,
            ..IoStats::new()
        };
        a.merge(&a.clone());
        assert_eq!(a.sequential_pages, 2);
        assert_eq!(a.rows_read, 10);
        assert!(a.to_string().contains("rand_pages=4"));
        // Zero spill counters stay out of the rendered form.
        assert!(!a.to_string().contains("spill_w"));
        assert_eq!(a.weighted_page_cost(), 2.0 + 16.0 + 6.0);
        a.spill_pages_written = 3;
        a.spill_pages_read = 2;
        assert!(a.to_string().contains("spill_w=3 spill_r=2"));
        assert_eq!(a.weighted_page_cost(), 2.0 + 16.0 + 6.0 + 5.0);
    }
}
