//! In-memory storage with page-level I/O accounting.
//!
//! The paper's evaluation ran on a striped-disk RS/6000; this crate is the
//! laptop-scale substitute documented in DESIGN.md. Tables live in memory,
//! but every access path charges a simulated page model:
//!
//! * heap rows are stored as typed column chunks and mapped onto
//!   fixed-size logical pages
//!   ([`HeapTable::page_of`]);
//! * sequential page reads (table scans, clustered index scans) and random
//!   page reads (unclustered probes) are tallied separately in
//!   [`IoStats`];
//! * consecutive probes that land on the most recently read page are free
//!   ([`PageCursor`]) — which is precisely the effect the paper's *ordered
//!   nested-loop join* exploits: sorting the outer makes inner probes
//!   cluster, turning random I/O into quasi-sequential I/O.

#![deny(missing_docs)]

pub mod db;
pub mod heap;
pub mod index;
pub mod io;
pub mod scan;
pub mod spill;

pub use db::Database;
pub use heap::{HeapLoader, HeapTable};
pub use index::{OrderedIndex, ENTRIES_PER_LEAF};
pub use io::{IoStats, PageCursor, PAGE_SIZE};
pub use scan::{partition_bounds, HeapScanState, IndexScanState};
pub use spill::{SpillCursor, SpillFile};
