//! The query graph: boxes, quantifiers, and the query-scoped column
//! registry.
//!
//! Column identity convention: every base-table quantifier mints fresh
//! [`ColId`]s for its columns (two references to one table stay distinct,
//! as QGM requires for self-joins). Boxes *reuse* the ids of columns they
//! pass through unchanged and mint fresh ids only for computed outputs
//! (scalar expressions, aggregates). This gives the whole query one flat
//! column space, which is what lets interesting orders move across box
//! boundaries without translation tables.

use fto_common::{ColId, ColSet, DataType, FtoError, QuantifierId, Result, TableId};
use fto_expr::{AggCall, Expr, PredId, Predicate};
use fto_order::{FlexOrder, OrderSpec};
use std::fmt;

/// Identifies a box within one query graph.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct BoxId(pub u32);

impl BoxId {
    /// The id as a usize, for indexing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BoxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// Where a query column comes from.
#[derive(Clone, Debug, PartialEq)]
pub enum ColumnOrigin {
    /// A base-table column: (quantifier, table, column ordinal).
    Base(QuantifierId, TableId, usize),
    /// A computed output of a box (scalar expression or aggregate).
    Derived(BoxId),
}

/// Registered metadata for one query column.
#[derive(Clone, Debug)]
pub struct ColumnInfo {
    /// Display name (e.g. `o_orderkey` or `rev`).
    pub name: String,
    /// Column type.
    pub data_type: DataType,
    /// Provenance.
    pub origin: ColumnOrigin,
}

/// Mints and resolves query-scoped column ids.
#[derive(Default, Debug)]
pub struct ColumnRegistry {
    cols: Vec<ColumnInfo>,
}

impl ColumnRegistry {
    /// Creates an empty registry.
    pub fn new() -> ColumnRegistry {
        ColumnRegistry::default()
    }

    /// Mints a fresh column id.
    pub fn fresh(
        &mut self,
        name: impl Into<String>,
        data_type: DataType,
        origin: ColumnOrigin,
    ) -> ColId {
        let id = ColId::from(self.cols.len());
        self.cols.push(ColumnInfo {
            name: name.into(),
            data_type,
            origin,
        });
        id
    }

    /// Metadata for a column.
    pub fn info(&self, col: ColId) -> &ColumnInfo {
        &self.cols[col.index()]
    }

    /// Display name for a column.
    pub fn name(&self, col: ColId) -> &str {
        &self.cols[col.index()].name
    }

    /// Number of registered columns.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// True when no columns are registered.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }
}

/// What a quantifier ranges over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuantifierInput {
    /// A base table.
    Table(TableId),
    /// Another box (a view, derived table, or group-by input).
    Box(BoxId),
}

/// A table reference within a box.
#[derive(Clone, Debug)]
pub struct Quantifier {
    /// The quantifier's id.
    pub id: QuantifierId,
    /// What it ranges over.
    pub input: QuantifierInput,
    /// The columns it makes visible to its box, in declaration order.
    pub cols: Vec<ColId>,
}

impl Quantifier {
    /// The visible columns as a set.
    pub fn col_set(&self) -> ColSet {
        self.cols.iter().copied().collect()
    }
}

/// One output column of a box.
#[derive(Clone, Debug)]
pub struct OutputCol {
    /// The column id the output is known by upstream. Pass-through
    /// columns reuse their input id; computed outputs use fresh ids.
    pub col: ColId,
    /// How the value is produced.
    pub expr: OutputExpr,
}

/// The defining expression of an output column.
#[derive(Clone, Debug)]
pub enum OutputExpr {
    /// A scalar expression over the box's visible columns. A bare
    /// `Expr::Col` is a pass-through.
    Scalar(Expr),
    /// An aggregate call (GROUP BY boxes only).
    Agg(AggCall),
}

impl OutputCol {
    /// A pass-through output.
    pub fn passthrough(col: ColId) -> OutputCol {
        OutputCol {
            col,
            expr: OutputExpr::Scalar(Expr::col(col)),
        }
    }

    /// True when the output just forwards its own column id.
    pub fn is_passthrough(&self) -> bool {
        matches!(&self.expr, OutputExpr::Scalar(Expr::Col(c)) if *c == self.col)
    }
}

/// The operation a box performs.
#[derive(Clone, Debug, PartialEq)]
pub enum BoxKind {
    /// Selection/projection/join: quantifiers are joined, predicates
    /// applied, outputs projected.
    Select,
    /// Grouping and aggregation. The grouping columns are listed here;
    /// aggregate outputs appear in `output` as [`OutputExpr::Agg`].
    GroupBy {
        /// Grouping columns (ids visible from the single input
        /// quantifier).
        grouping: Vec<ColId>,
    },
    /// Bag union of the input quantifiers (UNION ALL; wrap in DISTINCT
    /// for set union).
    Union,
    /// Left outer join of exactly two quantifiers: the first is the
    /// preserved (non-null-supplying) side, the second is null-supplying.
    /// The ON predicates live in `on`. Per the paper's §4.1, an ON
    /// equality `x = y` contributes only the one-directional FD
    /// `{x} → {y}` when `x` comes from the preserved side — never an
    /// equivalence class.
    OuterJoin {
        /// ON-clause predicate ids.
        on: Vec<PredId>,
    },
}

/// One box of the query graph.
#[derive(Clone, Debug)]
pub struct QgmBox {
    /// The box's id.
    pub id: BoxId,
    /// The operation.
    pub kind: BoxKind,
    /// Input quantifiers.
    pub quantifiers: Vec<Quantifier>,
    /// Predicates this box applies (ids into [`QueryGraph::predicates`]).
    pub predicates: Vec<PredId>,
    /// Output columns, in order.
    pub output: Vec<OutputCol>,
    /// SQL DISTINCT on the box's output.
    pub distinct: bool,
    /// The output order *requirement* (from ORDER BY; root box only).
    pub output_order: Option<OrderSpec>,
    /// Interesting orders hung off the box by the order scan, doubling as
    /// sort-ahead candidates for the planner (paper §5.1).
    pub interesting: Vec<OrderSpec>,
    /// The generalized input order requirement of a GROUP BY or DISTINCT
    /// box, recorded by the order scan (paper §7 representation).
    pub group_order: Option<FlexOrder>,
    /// Row budget (SQL LIMIT) on the box's output.
    pub limit: Option<u64>,
}

impl QgmBox {
    /// The output column ids, in order.
    pub fn output_cols(&self) -> Vec<ColId> {
        self.output.iter().map(|o| o.col).collect()
    }

    /// The output column ids as a set.
    pub fn output_col_set(&self) -> ColSet {
        self.output.iter().map(|o| o.col).collect()
    }

    /// Adds an interesting order if no recorded order already covers it
    /// (exact-duplicate suppression; semantic covering happens in the
    /// order scan where a context is available).
    pub fn add_interesting(&mut self, order: OrderSpec) {
        if order.is_empty() {
            return;
        }
        if !self.interesting.contains(&order) {
            self.interesting.push(order);
        }
    }
}

/// A whole query: boxes, predicates, and the column registry.
#[derive(Debug)]
pub struct QueryGraph {
    /// The boxes; index = BoxId.
    pub boxes: Vec<QgmBox>,
    /// The root (output) box.
    pub root: BoxId,
    /// The names of the root box's outputs, position by position: the
    /// select list's aliases where it gives them (a UNION's come from its
    /// first branch). The rewrites never reorder the root's outputs.
    pub output_names: Vec<String>,
    /// All predicates of the query; index = PredId.
    pub predicates: Vec<Predicate>,
    /// The column registry.
    pub registry: ColumnRegistry,
    next_quantifier: u32,
}

impl QueryGraph {
    /// Creates an empty graph (root is fixed up by the builder).
    pub fn new() -> QueryGraph {
        QueryGraph {
            boxes: Vec::new(),
            root: BoxId(0),
            output_names: Vec::new(),
            predicates: Vec::new(),
            registry: ColumnRegistry::new(),
            next_quantifier: 0,
        }
    }

    /// Adds an empty box of the given kind and returns its id.
    pub fn add_box(&mut self, kind: BoxKind) -> BoxId {
        let id = BoxId(self.boxes.len() as u32);
        self.boxes.push(QgmBox {
            id,
            kind,
            quantifiers: Vec::new(),
            predicates: Vec::new(),
            output: Vec::new(),
            distinct: false,
            output_order: None,
            interesting: Vec::new(),
            group_order: None,
            limit: None,
        });
        id
    }

    /// Registers a predicate and returns its id.
    pub fn add_predicate(&mut self, pred: Predicate) -> PredId {
        let id = PredId(self.predicates.len() as u32);
        self.predicates.push(pred);
        id
    }

    /// The predicate for an id.
    pub fn predicate(&self, id: PredId) -> &Predicate {
        &self.predicates[id.index()]
    }

    /// Shared access to a box.
    pub fn boxed(&self, id: BoxId) -> &QgmBox {
        &self.boxes[id.index()]
    }

    /// Mutable access to a box.
    pub fn boxed_mut(&mut self, id: BoxId) -> &mut QgmBox {
        &mut self.boxes[id.index()]
    }

    /// Adds to `box_id` a quantifier ranging over base table `table`,
    /// minting fresh column ids for every table column.
    pub fn add_table_quantifier(
        &mut self,
        box_id: BoxId,
        table: &fto_catalog::TableDef,
    ) -> &Quantifier {
        let qid = QuantifierId(self.next_quantifier);
        self.next_quantifier += 1;
        let cols: Vec<ColId> = table
            .columns
            .iter()
            .enumerate()
            .map(|(ord, c)| {
                self.registry.fresh(
                    c.name.clone(),
                    c.data_type,
                    ColumnOrigin::Base(qid, table.id, ord),
                )
            })
            .collect();
        self.push_quantifier(box_id, qid, QuantifierInput::Table(table.id), cols)
    }

    /// Adds to `box_id` a quantifier ranging over another box; the inner
    /// box's output ids become the visible columns (no fresh ids — one
    /// flat column space).
    pub fn add_box_quantifier(&mut self, box_id: BoxId, inner: BoxId) -> &Quantifier {
        let qid = QuantifierId(self.next_quantifier);
        self.next_quantifier += 1;
        let cols = self.boxes[inner.index()].output_cols();
        self.push_quantifier(box_id, qid, QuantifierInput::Box(inner), cols)
    }

    /// Appends a quantifier to `box_id`, returning it.
    fn push_quantifier(
        &mut self,
        box_id: BoxId,
        id: QuantifierId,
        input: QuantifierInput,
        cols: Vec<ColId>,
    ) -> &Quantifier {
        let quantifiers = &mut self.boxes[box_id.index()].quantifiers;
        quantifiers.push(Quantifier { id, input, cols });
        &quantifiers[quantifiers.len() - 1]
    }

    /// Mints a fresh derived column (computed scalar or aggregate output)
    /// belonging to `box_id`.
    pub fn fresh_derived(
        &mut self,
        box_id: BoxId,
        name: impl Into<String>,
        data_type: DataType,
    ) -> ColId {
        self.registry
            .fresh(name, data_type, ColumnOrigin::Derived(box_id))
    }

    /// Resolves a column name among the visible columns of a box
    /// (optionally qualified with a quantifier's table name resolved by
    /// the SQL layer — here the lookup is by plain column name).
    pub fn resolve_in_box(&self, box_id: BoxId, name: &str) -> Result<ColId> {
        let lname = name.to_ascii_lowercase();
        let mut found = None;
        for q in &self.boxes[box_id.index()].quantifiers {
            for &c in &q.cols {
                if self.registry.name(c) == lname {
                    if found.is_some() {
                        return Err(FtoError::Resolution(format!("ambiguous column '{name}'")));
                    }
                    found = Some(c);
                }
            }
        }
        found.ok_or_else(|| FtoError::Resolution(format!("unknown column '{name}'")))
    }

    /// The boxes in bottom-up (children before parents) order, derived
    /// from quantifier arcs starting at the root.
    pub fn bottom_up(&self) -> Vec<BoxId> {
        let mut order = Vec::new();
        let mut visited = vec![false; self.boxes.len()];
        fn dfs(g: &QueryGraph, b: BoxId, visited: &mut [bool], out: &mut Vec<BoxId>) {
            if visited[b.index()] {
                return;
            }
            visited[b.index()] = true;
            for q in &g.boxes[b.index()].quantifiers {
                if let QuantifierInput::Box(inner) = q.input {
                    dfs(g, inner, visited, out);
                }
            }
            out.push(b);
        }
        dfs(self, self.root, &mut visited, &mut order);
        order
    }
}

impl Default for QueryGraph {
    fn default() -> Self {
        QueryGraph::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fto_catalog::{Catalog, ColumnDef, KeyDef};
    use fto_expr::PredClass;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.create_table(
            "a",
            vec![
                ColumnDef::new("x", DataType::Int),
                ColumnDef::new("y", DataType::Int),
            ],
            vec![KeyDef::primary([0])],
        )
        .unwrap();
        cat.create_table(
            "b",
            vec![
                ColumnDef::new("x", DataType::Int),
                ColumnDef::new("z", DataType::Int),
            ],
            vec![],
        )
        .unwrap();
        cat
    }

    #[test]
    fn table_quantifiers_mint_fresh_columns() {
        let cat = catalog();
        let mut g = QueryGraph::new();
        let b = g.add_box(BoxKind::Select);
        let q1 = g
            .add_table_quantifier(b, cat.table_by_name("a").unwrap())
            .id;
        let q2 = g
            .add_table_quantifier(b, cat.table_by_name("a").unwrap())
            .id;
        assert_ne!(q1, q2);
        let qs = &g.boxed(b).quantifiers;
        assert_ne!(qs[0].cols, qs[1].cols); // self-join stays distinct
        assert_eq!(g.registry.len(), 4);
        assert_eq!(g.registry.name(qs[0].cols[1]), "y");
    }

    #[test]
    fn box_quantifiers_reuse_output_ids() {
        let cat = catalog();
        let mut g = QueryGraph::new();
        let inner = g.add_box(BoxKind::Select);
        g.add_table_quantifier(inner, cat.table_by_name("a").unwrap());
        let cols = g.boxed(inner).quantifiers[0].cols.clone();
        g.boxed_mut(inner).output = cols.iter().map(|&c| OutputCol::passthrough(c)).collect();

        let outer = g.add_box(BoxKind::Select);
        g.add_box_quantifier(outer, inner);
        assert_eq!(g.boxed(outer).quantifiers[0].cols, cols);
    }

    #[test]
    fn resolve_in_box() {
        let cat = catalog();
        let mut g = QueryGraph::new();
        let b = g.add_box(BoxKind::Select);
        g.add_table_quantifier(b, cat.table_by_name("a").unwrap());
        g.add_table_quantifier(b, cat.table_by_name("b").unwrap());
        // 'y' and 'z' are unambiguous; 'x' appears in both tables.
        assert!(g.resolve_in_box(b, "y").is_ok());
        assert!(g.resolve_in_box(b, "Z").is_ok());
        let err = g.resolve_in_box(b, "x").unwrap_err();
        assert!(matches!(err, FtoError::Resolution(m) if m.contains("ambiguous")));
        assert!(g.resolve_in_box(b, "nope").is_err());
    }

    #[test]
    fn bottom_up_orders_children_first() {
        let cat = catalog();
        let mut g = QueryGraph::new();
        let inner = g.add_box(BoxKind::Select);
        g.add_table_quantifier(inner, cat.table_by_name("a").unwrap());
        let outer = g.add_box(BoxKind::Select);
        g.add_box_quantifier(outer, inner);
        g.root = outer;
        assert_eq!(g.bottom_up(), vec![inner, outer]);
    }

    #[test]
    fn passthrough_detection() {
        let out = OutputCol::passthrough(ColId(3));
        assert!(out.is_passthrough());
        let computed = OutputCol {
            col: ColId(4),
            expr: OutputExpr::Scalar(Expr::col(ColId(3))),
        };
        assert!(!computed.is_passthrough());
    }

    #[test]
    fn add_interesting_dedupes() {
        let mut g = QueryGraph::new();
        let b = g.add_box(BoxKind::Select);
        let o = OrderSpec::ascending([ColId(1)]);
        g.boxed_mut(b).add_interesting(o.clone());
        g.boxed_mut(b).add_interesting(o.clone());
        g.boxed_mut(b).add_interesting(OrderSpec::empty());
        assert_eq!(g.boxed(b).interesting.len(), 1);
    }

    #[test]
    fn predicate_registry() {
        let mut g = QueryGraph::new();
        let p = g.add_predicate(Predicate::col_eq_col(ColId(0), ColId(1)));
        assert_eq!(p, PredId(0));
        assert!(matches!(g.predicate(p).classify(), PredClass::ColEqCol(..)));
    }
}
