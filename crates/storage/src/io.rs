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
    /// Page requests satisfied by the bounded buffer pool without a
    /// charge. Zero unless a memory budget (and therefore a pool) is
    /// active.
    pub pool_hits: u64,
    /// Page requests that missed the buffer pool and paid the usual
    /// sequential/random charge. Zero unless a pool is active.
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
        // Spill and pool counters only appear once something used them,
        // keeping the common in-memory case's output stable.
        if self.spill_pages_written != 0 || self.spill_pages_read != 0 {
            write!(
                f,
                " spill_w={} spill_r={}",
                self.spill_pages_written, self.spill_pages_read
            )?;
        }
        if self.pool_hits != 0 || self.pool_misses != 0 {
            write!(
                f,
                " pool_hits={} pool_misses={}",
                self.pool_hits, self.pool_misses
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
    fn charge(&mut self, page: u64, stats: &mut IoStats) {
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

    /// Records a touch of `page`, routed through a bounded
    /// [`crate::BufferPool`] when one is active. Repeated touches of the
    /// current page stay free either way; a page-change touch first
    /// consults the pool — a resident page is a free *hit*, a miss pays
    /// the usual sequential/random charge. With `pool` `None` (the
    /// unbudgeted engine, the interpreter) every touch is charged by the
    /// cursor alone. `tag` namespaces page numbers per storage object
    /// (table/index id) so distinct objects never alias in the pool;
    /// without a pool it is unused.
    ///
    /// Invariant: when a pool is active, `pool_misses` on this cursor
    /// equals the sequential + random pages it charges.
    pub fn touch(
        &mut self,
        tag: u64,
        page: u64,
        stats: &mut IoStats,
        pool: Option<&mut crate::BufferPool>,
    ) {
        let Some(pool) = pool else {
            self.charge(page, stats);
            return;
        };
        if self.last_page == Some(page) {
            return;
        }
        if pool.touch(tag, page) {
            stats.pool_hits += 1;
            self.last_page = Some(page);
        } else {
            stats.pool_misses += 1;
            self.charge(page, stats);
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
            c.touch(0, p, &mut s, None);
        }
        assert_eq!(s.sequential_pages, 5);
        assert_eq!(s.random_pages, 0);
    }

    #[test]
    fn repeated_touch_is_free() {
        let mut c = PageCursor::new();
        let mut s = IoStats::new();
        c.touch(0, 3, &mut s, None);
        c.touch(0, 3, &mut s, None);
        c.touch(0, 3, &mut s, None);
        assert_eq!(s.sequential_pages, 1);
        assert_eq!(s.random_pages, 0);
    }

    #[test]
    fn jumps_are_random() {
        let mut c = PageCursor::new();
        let mut s = IoStats::new();
        c.touch(0, 0, &mut s, None);
        c.touch(0, 9, &mut s, None);
        c.touch(0, 2, &mut s, None); // backward jump
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
            c.touch(0, p, &mut s_rand, None);
        }
        let mut s_sorted = IoStats::new();
        let mut c = PageCursor::new();
        for &p in &sorted {
            c.touch(0, p, &mut s_sorted, None);
        }
        assert!(s_sorted.weighted_page_cost() < s_rand.weighted_page_cost() / 2.0);
        assert_eq!(s_sorted.random_pages, 0);
    }

    #[test]
    fn probing_cursor_charges_first_touch_as_random() {
        let mut c = PageCursor::probing();
        let mut s = IoStats::new();
        c.touch(0, 7, &mut s, None);
        assert_eq!(s.random_pages, 1);
        assert_eq!(s.sequential_pages, 0);
        // After the first touch the usual adjacency rules apply.
        c.touch(0, 7, &mut s, None);
        c.touch(0, 8, &mut s, None);
        assert_eq!(s.random_pages, 1);
        assert_eq!(s.sequential_pages, 1);
    }

    #[test]
    fn pooled_touches_hit_after_first_fault() {
        let mut pool = crate::BufferPool::with_capacity_pages(8);
        let mut c = PageCursor::new();
        let mut s = IoStats::new();
        // First pass over pages 0..4 faults every page in.
        for p in 0..4 {
            c.touch(1, p, &mut s, Some(&mut pool));
        }
        assert_eq!(s.pool_misses, 4);
        assert_eq!(s.pool_hits, 0);
        assert_eq!(s.sequential_pages, 4);
        // Second pass with a fresh cursor: everything is resident.
        let mut c2 = PageCursor::new();
        for p in 0..4 {
            c2.touch(1, p, &mut s, Some(&mut pool));
        }
        assert_eq!(s.pool_hits, 4);
        assert_eq!(s.sequential_pages, 4, "hits charge nothing");
        // Misses equal charged pages — the documented invariant.
        assert_eq!(s.pool_misses, s.sequential_pages + s.random_pages);
        // Without a pool, behavior is plain touch.
        let mut c3 = PageCursor::new();
        let mut s2 = IoStats::new();
        c3.touch(1, 0, &mut s2, None);
        assert_eq!(s2.sequential_pages, 1);
        assert_eq!(s2.pool_hits + s2.pool_misses, 0);
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
        // Zero spill/pool counters stay out of the rendered form.
        assert!(!a.to_string().contains("spill_w"));
        assert!(!a.to_string().contains("pool_hits"));
        assert_eq!(a.weighted_page_cost(), 2.0 + 16.0 + 6.0);
        a.spill_pages_written = 3;
        a.spill_pages_read = 2;
        a.pool_hits = 1;
        assert!(a.to_string().contains("spill_w=3 spill_r=2"));
        assert!(a.to_string().contains("pool_hits=1 pool_misses=0"));
        assert_eq!(a.weighted_page_cost(), 2.0 + 16.0 + 6.0 + 5.0);
    }
}
