//! Common substrate for the `fto` workspace: typed values, identifiers,
//! column sets, and the shared error type.
//!
//! Every other crate in the workspace builds on these definitions. The
//! design goal is a small, allocation-light vocabulary:
//!
//! * [`Value`] / [`DataType`] — the dynamically typed cell values flowing
//!   through the engine.
//! * [`ColId`] — a dense, query-scoped column identifier. The order
//!   optimization machinery (equivalence classes, functional dependencies)
//!   operates on opaque `ColId`s; the planner maintains the mapping back to
//!   `(table, column)` names.
//! * [`ColSet`] — a growable bitset over `ColId`s, the workhorse of the
//!   functional-dependency algebra.
//! * [`hash`] — a multiplicative hasher for maps keyed by the engine's
//!   own ids, where SipHash's collision resistance buys nothing.
//! * [`sortkey`] — the order-preserving binary key codec: rows become
//!   memcmp-comparable byte strings for the sort kernel, exchange
//!   merges, and index probes.

#![deny(missing_docs)]

pub mod bitset;
pub mod column;
pub mod error;
pub mod hash;
pub mod ids;
pub mod rng;
pub mod sort;
pub mod sortkey;
pub mod value;

pub use bitset::ColSet;
pub use column::{Batch, Bitmap, Column, ColumnData};
pub use error::{FtoError, Result};
pub use hash::FxHashMap;
pub use ids::{ColId, IndexId, QuantifierId, TableId};
pub use rng::Rng;
pub use sort::Direction;
pub use value::{row_bytes, value_width, DataType, Row, Value};
