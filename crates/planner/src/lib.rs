//! Bottom-up cost-based plan generation with interesting orders and
//! sort-ahead (paper §5.2).
//!
//! The planner walks the QGM bottom-up, box by box, generating alternative
//! subplans and pruning more costly subplans with comparable properties
//! (paper §3, citing Lohman 1988). Order optimization shows up in four places:
//!
//! * **access paths** — ordered index scans provide order properties for
//!   free ([`access`]);
//! * **join enumeration** — the interesting orders hung off each box by
//!   the order scan become *sort-ahead* candidates: the optimizer tries
//!   sorting the outer of a join for each one, letting a sort for an
//!   ORDER BY or GROUP BY sink arbitrarily deep into a join tree
//!   ([`join`]);
//! * **sort placement** — when a sort is unavoidable, *Reduce Order*
//!   yields the minimal sorting columns, and *Test Order* detects sorts
//!   that can be skipped entirely ([`planner`]);
//! * **group-by / distinct over a satisfied prefix** — the order-based
//!   candidate (input ordered on every grouping column) and the hash-based
//!   one (on none) are costed against each other, with §7 degrees of
//!   freedom deciding whether an existing order suffices.
//!
//! [`OptimizerConfig::order_optimization`] switches the machinery off
//! wholesale, reproducing the paper's "disabled DB2" baseline of Table 1.

#![deny(missing_docs)]

pub mod access;
pub mod cardinality;
pub mod config;
pub mod cost;
pub mod join;
pub mod plan;
pub mod planner;

pub use config::{OptimizerConfig, PlannerStats};
pub use cost::Cost;
pub use plan::{JoinKind, Plan, PlanNode, ScanRange};
pub use planner::Planner;
