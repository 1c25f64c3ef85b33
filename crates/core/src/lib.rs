//! # fto-order — Fundamental Techniques for Order Optimization
//!
//! A faithful, documented implementation of the order-optimization machinery
//! from *Simmen, Shekita, Malkemus: "Fundamental Techniques for Order
//! Optimization", SIGMOD 1996* — the framework behind DB2/CS's treatment of
//! interesting orders, and the ancestor of modern "pathkeys" (PostgreSQL)
//! and "collation traits" (Calcite).
//!
//! ## The four fundamental operations (paper §4)
//!
//! | Operation | Paper figure | Entry point |
//! |---|---|---|
//! | Reduce Order | Fig. 2 | [`OrderContext::reduce`] |
//! | Test Order | Fig. 3 | [`OrderContext::test_order`] |
//! | Cover Order | Fig. 4 | [`OrderContext::cover`] |
//! | Homogenize Order | Fig. 5 | [`OrderContext::homogenize`] |
//!
//! All four hinge on *reduction*: rewriting an order specification into a
//! canonical form by substituting each column with its equivalence-class
//! head and deleting columns that are functionally determined by the
//! columns before them.
//!
//! ## Data properties (paper §5.2.1)
//!
//! [`StreamProps`] maintains the properties the paper tracks per plan
//! stream — order, applied predicates and columns, over functional
//! dependencies — together with their propagation rules through filters,
//! projections, joins, and group-by. The facts order reasoning rests on
//! (equivalences, FDs, and the [`OrderContext`] derived from them) are one
//! immutable [`StreamFacts`] value that streams share until a predicate
//! changes it. The paper's key property is read through the facts: a key
//! is the dependency `key → all columns`, and a key bound to constants
//! (the one-record condition) determines every column.
//!
//! ## Degrees of freedom (paper §7)
//!
//! Order-based GROUP BY and DISTINCT do not dictate one exact order:
//! grouping columns may be permuted and each may be ascending or
//! descending. [`FlexOrder`] captures those degrees of freedom in a single
//! generalized interesting order, exactly as the production implementation
//! the paper describes.
//!
//! ## Example: the paper's §4.1 walk-through
//!
//! ```
//! use fto_common::{ColId, ColSet, Value};
//! use fto_order::{EquivalenceClasses, FdSet, OrderContext, OrderSpec};
//!
//! let (x, y, z) = (ColId(0), ColId(1), ColId(2));
//!
//! // Applied predicates: x = 10 (a constant) and x = y (an equivalence).
//! let mut eq = EquivalenceClasses::new();
//! eq.bind_constant(x, Value::Int(10));
//! eq.merge(x, y);
//!
//! // z is a key: {z} -> {x, y, z}.
//! let mut fds = FdSet::new();
//! fds.add_key(ColSet::singleton(z), ColSet::from_cols([x, y, z]));
//!
//! let ctx = OrderContext::new(eq, &fds);
//!
//! // ORDER BY x, z, y reduces to (z): x is bound to a constant, and the
//! // key FD makes everything after z redundant.
//! let interesting = OrderSpec::ascending([x, z, y]);
//! assert_eq!(ctx.reduce(&interesting), OrderSpec::ascending([z]));
//!
//! // A stream ordered by (z) therefore needs no sort at all.
//! assert!(ctx.test_order(&interesting, &OrderSpec::ascending([z])));
//! ```

#![deny(missing_docs)]

pub mod context;
pub mod eqclass;
pub mod fd;
pub mod freedom;
pub mod props;
pub mod spec;

pub use context::{ContextWork, OrderContext};
pub use eqclass::EquivalenceClasses;
pub use fd::{Fd, FdSet};
pub use freedom::{FlexColumn, FlexOrder};
pub use props::{FactsMemo, StreamFacts, StreamProps};
pub use spec::{OrderSpec, SortKey};
