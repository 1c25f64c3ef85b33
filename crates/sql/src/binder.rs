//! The binder: name resolution and QGM construction from the AST.
//!
//! A query without aggregation binds to a single SELECT box. A query with
//! GROUP BY / aggregates binds to the paper's three-box shape (§6 and the
//! Q3 walk-through):
//!
//! ```text
//!   SELECT box   — joins + predicates, passing through every column the
//!                  upper boxes need
//!   GROUP BY box — grouping columns + aggregate outputs
//!   SELECT box   — the final select list (scalar expressions over
//!                  grouping columns, aggregate results), DISTINCT, and
//!                  the ORDER BY output requirement
//! ```
//!
//! What binds is typed: every expression and aggregate gets its declared
//! type bottom-up from the catalog's column types (`expr_type`,
//! `agg_type`), an ill-typed one is an [`FtoError::Semantic`] here
//! rather than a run-time failure or a wrong answer, and the types minted
//! for derived columns are what the executor builds those columns as.

use crate::ast::*;
use fto_catalog::Catalog;
use fto_common::{ColId, ColSet, DataType, FtoError, Result, Value};
use fto_expr::{AggCall, AggFunc, CompareOp, Expr, Predicate};
use fto_order::{OrderSpec, SortKey};
use fto_qgm::graph::{BoxId, BoxKind, OutputCol, OutputExpr, QueryGraph};

/// Binds a parsed query against a catalog, producing a query graph ready
/// for the rewrites and the order scan.
pub fn bind(query: &Query, catalog: &Catalog) -> Result<QueryGraph> {
    let mut graph = QueryGraph::new();
    let (root, names) = bind_any(&mut graph, catalog, query)?;
    graph.root = root;
    graph.output_names = names;
    Ok(graph)
}

/// Binds either a plain query or a UNION of queries, returning its box and
/// the names of its output columns (aliases where the select list gives
/// them), by which an enclosing query refers to them.
fn bind_any(graph: &mut QueryGraph, catalog: &Catalog, q: &Query) -> Result<Named> {
    if q.union_branches.is_empty() {
        bind_query(graph, catalog, q)
    } else {
        bind_union(graph, catalog, q)
    }
}

/// Binds `q UNION [ALL] b1 UNION [ALL] b2 ...` into a Union box; the
/// trailing ORDER BY / LIMIT / set-semantics DISTINCT apply to the whole
/// union.
fn bind_union(graph: &mut QueryGraph, catalog: &Catalog, q: &Query) -> Result<Named> {
    let first_core = Query {
        union_branches: Vec::new(),
        order_by: Vec::new(),
        limit: None,
        ..q.clone()
    };
    let mut distinct_union = false;
    let (first, first_names) = bind_any(graph, catalog, &first_core)?;
    let mut branches = vec![first];
    for b in &q.union_branches {
        if !b.all {
            distinct_union = true;
        }
        branches.push(bind_any(graph, catalog, &b.query)?.0);
    }

    // Branches agree on arity and, position by position, on type: the
    // output takes the first branch's, and nothing is promoted (the
    // oracle would keep an `Int` branch and a `Double` branch apart).
    let types_of = |graph: &QueryGraph, b: BoxId| -> Vec<DataType> {
        let cols = graph.boxed(b).output.iter();
        cols.map(|o| graph.registry.info(o.col).data_type).collect()
    };
    let first_types = types_of(graph, branches[0]);
    let arity = first_types.len();
    for (n, &b) in branches.iter().enumerate().skip(1) {
        let types = types_of(graph, b);
        if types.len() != arity {
            return Err(FtoError::Semantic(format!(
                "UNION branches have different arities ({arity} vs {})",
                types.len()
            )));
        }
        if let Some(k) = (0..arity).find(|&k| types[k] != first_types[k]) {
            return Err(FtoError::Semantic(format!(
                "UNION branch {} column {} is {} where the first branch has {}",
                n + 1,
                k + 1,
                types[k],
                first_types[k]
            )));
        }
    }

    let union_box = graph.add_box(BoxKind::Union);
    for &b in &branches {
        graph.add_box_quantifier(union_box, b);
    }
    // Union outputs are fresh columns (a merged value is not any single
    // branch's column); names and types come from the first branch.
    let outputs: Vec<OutputCol> = first_names
        .iter()
        .zip(first_types)
        .map(|(name, dt)| OutputCol::passthrough(graph.fresh_derived(union_box, name, dt)))
        .collect();

    let empty_scope = Scope {
        bindings: Vec::new(),
    };
    let order = resolve_order_by(graph, &empty_scope, q, &outputs, &first_names)?;
    let b = graph.boxed_mut(union_box);
    b.output = outputs;
    b.distinct = distinct_union;
    b.output_order = order;
    b.limit = q.limit;
    Ok((union_box, first_names))
}

/// Per-column (qualifier, name) metadata of a binding.
type QualifiedNames = Vec<(Option<String>, String)>;

/// A bound query's box and its output column names.
type Named = (BoxId, Vec<String>);

/// One visible FROM binding. Columns carry individual qualifiers so an
/// explicit join tree (one binding, many source tables) still resolves
/// `a.x` and `b.y`.
struct Binding {
    cols: Vec<ColId>,
    /// Per-column (qualifier, name) pairs.
    col_names: QualifiedNames,
}

impl Binding {
    /// The distinct qualifiers this binding introduces.
    fn qualifiers(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self
            .col_names
            .iter()
            .filter_map(|(q, _)| q.as_deref())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

struct Scope {
    bindings: Vec<Binding>,
}

impl Scope {
    fn resolve(&self, r: &ColumnRef) -> Result<ColId> {
        let name = r.name.to_ascii_lowercase();
        let mut found: Option<ColId> = None;
        for b in &self.bindings {
            for (i, (cq, cn)) in b.col_names.iter().enumerate() {
                if *cn != name {
                    continue;
                }
                if let Some(q) = &r.qualifier {
                    let matches = cq.as_deref().is_some_and(|c| c.eq_ignore_ascii_case(q));
                    if !matches {
                        continue;
                    }
                }
                if found.is_some() {
                    return Err(FtoError::Resolution(format!(
                        "ambiguous column '{}'",
                        display_ref(r)
                    )));
                }
                found = Some(b.cols[i]);
            }
        }
        found.ok_or_else(|| FtoError::Resolution(format!("unknown column '{}'", display_ref(r))))
    }

    fn all_cols(&self) -> Vec<(ColId, String)> {
        self.bindings
            .iter()
            .flat_map(|b| {
                b.cols
                    .iter()
                    .copied()
                    .zip(b.col_names.iter().map(|(_, n)| n.clone()))
            })
            .collect()
    }
}

fn display_ref(r: &ColumnRef) -> String {
    match &r.qualifier {
        Some(q) => format!("{q}.{}", r.name),
        None => r.name.clone(),
    }
}

fn bind_query(graph: &mut QueryGraph, catalog: &Catalog, q: &Query) -> Result<Named> {
    let sel = graph.add_box(BoxKind::Select);

    // FROM items become quantifiers.
    let mut scope = Scope {
        bindings: Vec::new(),
    };
    for item in &q.from {
        let binding = bind_from_item(graph, catalog, sel, item)?;
        for qual in binding.qualifiers() {
            let clash = scope
                .bindings
                .iter()
                .any(|b| b.qualifiers().iter().any(|x| x.eq_ignore_ascii_case(qual)));
            if clash {
                return Err(FtoError::Resolution(format!(
                    "duplicate table binding '{qual}'"
                )));
            }
        }
        scope.bindings.push(binding);
    }

    // WHERE predicates. `IN (subquery)` conjuncts apply the QGM
    // subquery-to-join transformation (paper §3): the subquery becomes a
    // DISTINCT derived table joined on equality — semantically a
    // semi-join, with the DISTINCT guaranteeing join multiplicity one.
    for pred in &q.predicates {
        match pred {
            WherePred::Compare(pred) => {
                let p = Predicate::new(
                    pred.op,
                    bind_expr(graph, &scope, &pred.left)?,
                    bind_expr(graph, &scope, &pred.right)?,
                );
                let pid = graph.add_predicate(p);
                graph.boxed_mut(sel).predicates.push(pid);
            }
            WherePred::InSubquery { expr, query } => {
                let tested = bind_expr(graph, &scope, expr)?;
                let (child, _) = bind_any(graph, catalog, query)?;
                if graph.boxed(child).output.len() != 1 {
                    return Err(FtoError::Semantic(
                        "IN subquery must produce exactly one column".into(),
                    ));
                }
                graph.boxed_mut(child).distinct = true;
                let sub_col = graph.add_box_quantifier(sel, child).cols[0];
                let p = Predicate::new(CompareOp::Eq, tested, Expr::col(sub_col));
                let pid = graph.add_predicate(p);
                graph.boxed_mut(sel).predicates.push(pid);
            }
        }
    }

    // Expand the select list.
    let has_aggs =
        q.items.iter().any(|i| matches!(i, SelectItem::Agg { .. })) || !q.group_by.is_empty();

    if !has_aggs {
        if !q.having.is_empty() {
            return Err(FtoError::Semantic(
                "HAVING requires GROUP BY or aggregates".into(),
            ));
        }
        bind_plain_select(graph, &scope, q, sel)
    } else {
        bind_aggregate_select(graph, &scope, q, sel)
    }
}

/// Binds one FROM item (a table, a subquery or a join tree) as a
/// quantifier of box `b`, returning its visible binding.
fn bind_from_item(
    graph: &mut QueryGraph,
    catalog: &Catalog,
    b: BoxId,
    item: &TableRef,
) -> Result<Binding> {
    match item {
        TableRef::Table { name, alias } => {
            let td = catalog.table_by_name(name)?.clone();
            let cols = graph.add_table_quantifier(b, &td).cols.clone();
            let qual = Some(alias.clone().unwrap_or_else(|| td.name.clone()));
            Ok(Binding {
                col_names: td
                    .columns
                    .iter()
                    .map(|c| (qual.clone(), c.name.clone()))
                    .collect(),
                cols,
            })
        }
        TableRef::Subquery { query, alias } => {
            let (child, names) = bind_any(graph, catalog, query)?;
            let cols = graph.add_box_quantifier(b, child).cols.clone();
            let col_names = names
                .into_iter()
                .map(|n| (Some(alias.clone()), n))
                .collect();
            Ok(Binding { cols, col_names })
        }
        TableRef::Join { .. } => {
            let (jb, col_names) = bind_join_tree(graph, catalog, item)?;
            let cols = graph.add_box_quantifier(b, jb).cols.clone();
            Ok(Binding { cols, col_names })
        }
    }
}

/// Builds the box for an explicit join tree. Inner joins become plain
/// SELECT boxes (the view-merging rewrite flattens them back into the
/// enclosing join); LEFT OUTER joins become [`BoxKind::OuterJoin`] boxes
/// whose ON predicates feed only one-directional order facts.
fn bind_join_tree(
    graph: &mut QueryGraph,
    catalog: &Catalog,
    item: &TableRef,
) -> Result<(BoxId, QualifiedNames)> {
    let TableRef::Join {
        left,
        kind,
        right,
        on,
    } = item
    else {
        return Err(FtoError::internal("bind_join_tree expects a join"));
    };
    let jb = graph.add_box(match kind {
        JoinKind::Inner => BoxKind::Select,
        JoinKind::LeftOuter => BoxKind::OuterJoin { on: Vec::new() },
    });
    let mut col_names = bind_from_item(graph, catalog, jb, left)?.col_names;
    col_names.extend(bind_from_item(graph, catalog, jb, right)?.col_names);

    let cols: Vec<ColId> = graph
        .boxed(jb)
        .quantifiers
        .iter()
        .flat_map(|q| q.cols.iter().copied())
        .collect();
    graph.boxed_mut(jb).output = cols.iter().map(|&c| OutputCol::passthrough(c)).collect();

    let local = Scope {
        bindings: vec![Binding {
            cols,
            col_names: col_names.clone(),
        }],
    };
    let mut pids = Vec::with_capacity(on.len());
    for pred in on {
        let p = Predicate::new(
            pred.op,
            bind_expr(graph, &local, &pred.left)?,
            bind_expr(graph, &local, &pred.right)?,
        );
        pids.push(graph.add_predicate(p));
    }
    match kind {
        JoinKind::Inner => graph.boxed_mut(jb).predicates = pids,
        JoinKind::LeftOuter => graph.boxed_mut(jb).kind = BoxKind::OuterJoin { on: pids },
    }
    Ok((jb, col_names))
}

/// The non-aggregating shape: outputs, DISTINCT, and ORDER BY all live on
/// the one select box.
fn bind_plain_select(
    graph: &mut QueryGraph,
    scope: &Scope,
    q: &Query,
    sel: BoxId,
) -> Result<Named> {
    let mut outputs: Vec<OutputCol> = Vec::new();
    let mut names: Vec<String> = Vec::new();
    let mut passed = ColSet::new();
    for (i, item) in q.items.iter().enumerate() {
        match item {
            SelectItem::Wildcard => {
                for (col, name) in scope.all_cols() {
                    outputs.push(pass_once(graph, sel, &mut passed, col, &name)?);
                    names.push(name);
                }
            }
            SelectItem::Expr { expr, alias } => {
                let e = bind_expr(graph, scope, expr)?;
                match e.as_col() {
                    Some(c) => {
                        let name = alias
                            .clone()
                            .unwrap_or_else(|| graph.registry.name(c).to_string());
                        outputs.push(pass_once(graph, sel, &mut passed, c, &name)?);
                        names.push(name);
                    }
                    None => {
                        let name = alias.clone().unwrap_or_else(|| format!("col{}", i + 1));
                        let col = graph.fresh_derived(sel, name.clone(), expr_type(graph, &e)?);
                        outputs.push(OutputCol {
                            col,
                            expr: OutputExpr::Scalar(e),
                        });
                        names.push(name);
                    }
                }
            }
            SelectItem::Agg { .. } => {
                return Err(FtoError::internal(
                    "an aggregate reached the plain select path; the aggregate path binds it",
                ))
            }
        }
    }
    let order = resolve_order_by(graph, scope, q, &outputs, &names)?;
    let b = graph.boxed_mut(sel);
    b.output = outputs;
    b.distinct = q.distinct;
    b.output_order = order;
    b.limit = q.limit;
    Ok((sel, names))
}

/// The output passing `col` through as `name` from box `b`: the column
/// itself the first time, then a fresh derived copy (`Expr::col(col)`),
/// so that no box outputs a column twice.
fn pass_once(
    graph: &mut QueryGraph,
    b: BoxId,
    passed: &mut ColSet,
    col: ColId,
    name: &str,
) -> Result<OutputCol> {
    if passed.insert(col) {
        return Ok(OutputCol::passthrough(col));
    }
    let e = Expr::col(col);
    let copy = graph.fresh_derived(b, name, expr_type(graph, &e)?);
    Ok(OutputCol {
        col: copy,
        expr: OutputExpr::Scalar(e),
    })
}

/// The aggregating shape: select box → group-by box → final select box.
fn bind_aggregate_select(
    graph: &mut QueryGraph,
    scope: &Scope,
    q: &Query,
    sel: BoxId,
) -> Result<Named> {
    // Resolve grouping columns (a repeat groups by nothing more) and
    // aggregate calls.
    let mut grouping: Vec<ColId> = Vec::new();
    let mut grouping_set = ColSet::new();
    for r in &q.group_by {
        let c = scope.resolve(r)?;
        if grouping_set.insert(c) {
            grouping.push(c);
        }
    }

    enum FinalItem {
        /// Pass a grouping column through.
        Pass(ColId, String),
        /// A scalar expression over grouping columns.
        Computed(Expr, String),
        /// The result of `aggs[i]`.
        AggSlot(usize, String),
    }
    let mut aggs: Vec<(AggCall, ColId, String)> = Vec::new();
    let mut final_items: Vec<FinalItem> = Vec::new();

    // Everything the upper boxes need must pass through the select box.
    let mut needed: ColSet = grouping_set.clone();

    for (i, item) in q.items.iter().enumerate() {
        match item {
            SelectItem::Wildcard => {
                return Err(FtoError::Semantic(
                    "SELECT * cannot be combined with GROUP BY/aggregates".into(),
                ))
            }
            SelectItem::Expr { expr, alias } => {
                let e = bind_expr(graph, scope, expr)?;
                if !e.cols().is_subset(&grouping_set) {
                    return Err(FtoError::Semantic(format!(
                        "select item {} must reference only grouping columns",
                        i + 1
                    )));
                }
                needed.union_with(&e.cols());
                match e.as_col() {
                    Some(c) => final_items.push(FinalItem::Pass(
                        c,
                        alias
                            .clone()
                            .unwrap_or_else(|| graph.registry.name(c).to_string()),
                    )),
                    None => {
                        let name = alias.clone().unwrap_or_else(|| format!("col{}", i + 1));
                        final_items.push(FinalItem::Computed(e, name));
                    }
                }
            }
            SelectItem::Agg { agg, alias } => {
                // (Typed with the call, when its result column is minted.)
                let arg = match &agg.arg {
                    Some(e) => resolve_expr(scope, e)?,
                    None => Expr::int(1), // count(*) ≡ count(1)
                };
                needed.union_with(&arg.cols());
                let mut call = AggCall::new(agg.func, arg);
                if agg.distinct {
                    call = call.distinct();
                }
                let name = alias
                    .clone()
                    .unwrap_or_else(|| format!("{}{}", agg.func.name(), i + 1));
                // Result column minted on the group-by box (below).
                aggs.push((call, ColId(u32::MAX), name.clone()));
                final_items.push(FinalItem::AggSlot(aggs.len() - 1, name));
            }
        }
    }

    // HAVING operands may match select-list aggregates or introduce
    // hidden ones; they must be bound before aggregate columns are
    // minted so hidden aggregates join the group-by box's outputs.
    let mut having_bound: Vec<(fto_expr::CompareOp, HavingExpr, HavingExpr)> = Vec::new();
    for pred in &q.having {
        let left = bind_having_expr(scope, &pred.left, &grouping_set, &mut aggs, &mut needed)?;
        let right = bind_having_expr(scope, &pred.right, &grouping_set, &mut aggs, &mut needed)?;
        having_bound.push((pred.op, left, right));
    }

    // Select box outputs: pass through every needed column.
    graph.boxed_mut(sel).output = needed.iter().map(OutputCol::passthrough).collect();

    // Group-by box.
    let gb = graph.add_box(BoxKind::GroupBy {
        grouping: grouping.clone(),
    });
    graph.add_box_quantifier(gb, sel);
    let mut gb_outputs: Vec<OutputCol> = grouping
        .iter()
        .map(|&c| OutputCol::passthrough(c))
        .collect();
    for (call, col_slot, name) in &mut aggs {
        let col = graph.fresh_derived(gb, name.clone(), agg_type(graph, call)?);
        *col_slot = col;
        gb_outputs.push(OutputCol {
            col,
            expr: OutputExpr::Agg(call.clone()),
        });
    }
    graph.boxed_mut(gb).output = gb_outputs;

    // Final select box over the group-by.
    let fin = graph.add_box(BoxKind::Select);
    graph.add_box_quantifier(fin, gb);
    for (op, left, right) in having_bound {
        // Aggregate results have columns — and with them types — only now.
        let pred = Predicate::new(op, left.lower(&aggs), right.lower(&aggs));
        check_typed(graph, &pred.left)?;
        check_typed(graph, &pred.right)?;
        let pid = graph.add_predicate(pred);
        graph.boxed_mut(fin).predicates.push(pid);
    }
    let mut outputs = Vec::new();
    let mut names = Vec::new();
    let mut passed = ColSet::new();
    for item in final_items {
        let (output, name) = match item {
            FinalItem::Pass(c, name) => (pass_once(graph, fin, &mut passed, c, &name)?, name),
            FinalItem::Computed(e, name) => {
                let col = graph.fresh_derived(fin, name.clone(), expr_type(graph, &e)?);
                (
                    OutputCol {
                        col,
                        expr: OutputExpr::Scalar(e),
                    },
                    name,
                )
            }
            FinalItem::AggSlot(i, name) => (OutputCol::passthrough(aggs[i].1), name),
        };
        outputs.push(output);
        names.push(name);
    }
    let order = resolve_order_by(graph, scope, q, &outputs, &names)?;
    let b = graph.boxed_mut(fin);
    b.output = outputs;
    b.distinct = q.distinct;
    b.output_order = order;
    b.limit = q.limit;
    Ok((fin, names))
}

/// Resolves ORDER BY items against the output list (aliases and ordinals)
/// or, failing that, the FROM scope — requiring the resolved column to be
/// among the outputs so the sort can run on the final stream.
fn resolve_order_by(
    graph: &QueryGraph,
    scope: &Scope,
    q: &Query,
    outputs: &[OutputCol],
    names: &[String],
) -> Result<Option<OrderSpec>> {
    if q.order_by.is_empty() {
        return Ok(None);
    }
    let mut spec = OrderSpec::empty();
    for item in &q.order_by {
        let col = match &item.target {
            SortTarget::Ordinal(n) => outputs
                .get(n - 1)
                .map(|o| o.col)
                .ok_or_else(|| FtoError::Semantic(format!("ORDER BY ordinal {n} out of range")))?,
            SortTarget::Name(r) => {
                // Alias first (unqualified only), then scope resolution.
                let alias_hit = r.qualifier.is_none().then(|| {
                    names
                        .iter()
                        .position(|n| n.eq_ignore_ascii_case(&r.name))
                        .map(|i| outputs[i].col)
                });
                match alias_hit.flatten() {
                    Some(c) => c,
                    None => {
                        let c = scope.resolve(r)?;
                        if !outputs.iter().any(|o| o.col == c) {
                            return Err(FtoError::Semantic(format!(
                                "ORDER BY column '{}' must appear in the select list",
                                display_ref(r)
                            )));
                        }
                        c
                    }
                }
            }
        };
        spec.push(SortKey {
            col,
            dir: if item.desc {
                fto_common::Direction::Desc
            } else {
                fto_common::Direction::Asc
            },
        });
    }
    let _ = graph;
    Ok(Some(spec))
}

/// Resolves a scalar expression against `scope` and types it: what binds
/// is well typed, wherever in the statement it stands.
fn bind_expr(graph: &QueryGraph, scope: &Scope, e: &SqlExpr) -> Result<Expr> {
    let bound = resolve_expr(scope, e)?;
    check_typed(graph, &bound)?;
    Ok(bound)
}

fn resolve_expr(scope: &Scope, e: &SqlExpr) -> Result<Expr> {
    Ok(match e {
        SqlExpr::Column(r) => Expr::col(scope.resolve(r)?),
        SqlExpr::Literal(v) => Expr::Lit(v.clone()),
        SqlExpr::Arith { op, left, right } => {
            Expr::arith(*op, resolve_expr(scope, left)?, resolve_expr(scope, right)?)
        }
        SqlExpr::Agg(_) => {
            return Err(FtoError::Semantic(
                "aggregate calls are only allowed in the select list and HAVING".into(),
            ))
        }
    })
}

/// A HAVING operand before aggregate results have column ids: aggregates
/// are referenced by their index in the aggregate list.
enum HavingExpr {
    Lit(fto_common::Value),
    Col(ColId),
    AggRef(usize),
    Arith(fto_expr::ArithOp, Box<HavingExpr>, Box<HavingExpr>),
}

impl HavingExpr {
    /// Lowers to a real expression once aggregate columns are minted.
    fn lower(&self, aggs: &[(AggCall, ColId, String)]) -> Expr {
        match self {
            HavingExpr::Lit(v) => Expr::Lit(v.clone()),
            HavingExpr::Col(c) => Expr::col(*c),
            HavingExpr::AggRef(i) => Expr::col(aggs[*i].1),
            HavingExpr::Arith(op, l, r) => Expr::arith(*op, l.lower(aggs), r.lower(aggs)),
        }
    }
}

/// Binds one HAVING operand: scalar parts must use grouping columns;
/// aggregate calls are matched against the select list's aggregates or
/// appended as hidden aggregates computed by the group-by box.
fn bind_having_expr(
    scope: &Scope,
    e: &SqlExpr,
    grouping_set: &ColSet,
    aggs: &mut Vec<(AggCall, ColId, String)>,
    needed: &mut ColSet,
) -> Result<HavingExpr> {
    Ok(match e {
        SqlExpr::Literal(v) => HavingExpr::Lit(v.clone()),
        SqlExpr::Column(r) => {
            let c = scope.resolve(r)?;
            if !grouping_set.contains(c) {
                return Err(FtoError::Semantic(format!(
                    "HAVING column '{}' must be a grouping column or inside an aggregate",
                    display_ref(r)
                )));
            }
            HavingExpr::Col(c)
        }
        SqlExpr::Arith { op, left, right } => HavingExpr::Arith(
            *op,
            Box::new(bind_having_expr(scope, left, grouping_set, aggs, needed)?),
            Box::new(bind_having_expr(scope, right, grouping_set, aggs, needed)?),
        ),
        SqlExpr::Agg(call) => {
            let arg = match &call.arg {
                Some(e) => resolve_expr(scope, e)?,
                None => Expr::int(1),
            };
            needed.union_with(&arg.cols());
            let mut bound = AggCall::new(call.func, arg);
            if call.distinct {
                bound = bound.distinct();
            }
            let idx = match aggs.iter().position(|(a, _, _)| *a == bound) {
                Some(i) => i,
                None => {
                    let name = format!("having_{}{}", call.func.name(), aggs.len());
                    aggs.push((bound, ColId(u32::MAX), name));
                    aggs.len() - 1
                }
            };
            HavingExpr::AggRef(idx)
        }
    })
}

/// `e` with its columns by name, for error messages.
fn show(graph: &QueryGraph, e: &Expr) -> String {
    match e {
        Expr::Col(c) => graph.registry.name(*c).to_string(),
        Expr::Lit(v) => v.to_string(),
        Expr::Arith { op, left, right } => format!(
            "({} {} {})",
            show(graph, left),
            op.symbol(),
            show(graph, right)
        ),
    }
}

/// The declared type of `e`: the type of every non-NULL value it
/// evaluates to, decided here once so that no stream has to look at its
/// values to know. The rules restate `Expr::eval`'s arithmetic — `Int ∘
/// Int` stays `Int`, an `Int`/`Double` mix widens to `Double` — and turn
/// what it fails on at run time, any other operand, into an
/// [`FtoError::Semantic`] before a page is read.
fn expr_type(graph: &QueryGraph, e: &Expr) -> Result<DataType> {
    match e {
        Expr::Col(c) => Ok(graph.registry.info(*c).data_type),
        Expr::Lit(v) => v
            .data_type()
            .ok_or_else(|| FtoError::Semantic("a NULL literal has no type".into())),
        Expr::Arith { op, left, right } => {
            use DataType::{Double, Int};
            match (expr_type(graph, left)?, expr_type(graph, right)?) {
                (Int, Int) => Ok(Int),
                (Int | Double, Int | Double) => Ok(Double),
                (l, r) => Err(FtoError::Semantic(format!(
                    "{}: cannot apply {} to {l} and {r}",
                    show(graph, e),
                    op.symbol()
                ))),
            }
        }
    }
}

/// Types `e` — unless it is the bare NULL of an `IS [NOT] NULL` test, the
/// one untyped literal the grammar produces, which nothing evaluates.
fn check_typed(graph: &QueryGraph, e: &Expr) -> Result<()> {
    if !matches!(e, Expr::Lit(Value::Null)) {
        expr_type(graph, e)?;
    }
    Ok(())
}

/// The declared type of an aggregate's result, restating
/// `Accumulator::finish`: `count` counts, `avg` divides as a double, `sum`
/// stays in its argument's numeric type, `min`/`max` hand back one of
/// their arguments.
fn agg_type(graph: &QueryGraph, call: &AggCall) -> Result<DataType> {
    let arg = expr_type(graph, &call.arg)?;
    let numeric = matches!(arg, DataType::Int | DataType::Double);
    match call.func {
        AggFunc::Count => Ok(DataType::Int),
        AggFunc::Min | AggFunc::Max => Ok(arg),
        AggFunc::Sum if numeric => Ok(arg),
        AggFunc::Avg if numeric => Ok(DataType::Double),
        AggFunc::Sum | AggFunc::Avg => Err(FtoError::Semantic(format!(
            "{}({}): the argument is {arg}, {} takes INT or DOUBLE",
            call.func.name(),
            show(graph, &call.arg),
            call.func.name()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_query;
    use fto_catalog::{ColumnDef, KeyDef};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.create_table(
            "orders",
            vec![
                ColumnDef::new("o_orderkey", DataType::Int),
                ColumnDef::new("o_custkey", DataType::Int),
                ColumnDef::new("o_orderdate", DataType::Date),
            ],
            vec![KeyDef::primary([0])],
        )
        .unwrap();
        cat.create_table(
            "lineitem",
            vec![
                ColumnDef::new("l_orderkey", DataType::Int),
                ColumnDef::new("l_price", DataType::Double),
            ],
            vec![],
        )
        .unwrap();
        cat
    }

    fn bind_sql(sql: &str) -> Result<QueryGraph> {
        let q = parse_query(sql)?;
        bind(&q, &catalog())
    }

    #[test]
    fn binds_simple_join() {
        let g = bind_sql(
            "select o_orderkey, l_price from orders, lineitem \
             where o_orderkey = l_orderkey order by o_orderkey desc",
        )
        .unwrap();
        let root = g.boxed(g.root);
        assert_eq!(root.quantifiers.len(), 2);
        assert_eq!(root.predicates.len(), 1);
        assert_eq!(root.output.len(), 2);
        let order = root.output_order.as_ref().unwrap();
        assert_eq!(order.keys()[0].dir, fto_common::Direction::Desc);
    }

    #[test]
    fn binds_aggregate_into_three_boxes() {
        let g = bind_sql(
            "select o_custkey, count(*) as n, sum(o_orderkey) \
             from orders group by o_custkey order by n desc",
        )
        .unwrap();
        // select → group-by → final select.
        let order = g.bottom_up();
        assert_eq!(order.len(), 3);
        let gb = g
            .boxes
            .iter()
            .find(|b| matches!(b.kind, BoxKind::GroupBy { .. }))
            .unwrap();
        assert_eq!(gb.output.len(), 3); // o_custkey + two aggs
        let root = g.boxed(g.root);
        assert_eq!(root.output.len(), 3);
        // ORDER BY alias resolves to the count output.
        let req = root.output_order.as_ref().unwrap();
        assert_eq!(g.registry.name(req.keys()[0].col), "n");
    }

    #[test]
    fn scalar_items_must_use_grouping_columns() {
        let err =
            bind_sql("select o_orderdate, count(*) from orders group by o_custkey").unwrap_err();
        assert!(matches!(err, FtoError::Semantic(_)));
    }

    #[test]
    fn wildcard_with_group_by_rejected() {
        assert!(bind_sql("select * from orders group by o_custkey").is_err());
    }

    #[test]
    fn ambiguous_and_unknown_columns() {
        let err = bind_sql("select orderkey from orders, lineitem where o_orderkey = l_orderkey")
            .unwrap_err();
        assert!(matches!(err, FtoError::Resolution(_)));
        // qualified reference resolves.
        let g = bind_sql(
            "select orders.o_orderkey from orders, lineitem \
             where o_orderkey = l_orderkey",
        )
        .unwrap();
        assert_eq!(g.boxed(g.root).output.len(), 1);
    }

    #[test]
    fn duplicate_binding_rejected() {
        assert!(bind_sql("select 1 from orders, orders").is_err());
        // With distinct aliases the self-join binds.
        let g = bind_sql(
            "select a.o_orderkey from orders a, orders b \
             where a.o_orderkey = b.o_custkey",
        )
        .unwrap();
        assert_eq!(g.boxed(g.root).quantifiers.len(), 2);
    }

    #[test]
    fn subquery_binds_and_exposes_columns() {
        let g = bind_sql(
            "select v.o_custkey from \
             (select o_custkey from orders where o_orderkey > 5) as v \
             order by v.o_custkey",
        )
        .unwrap();
        assert_eq!(g.bottom_up().len(), 2);
        let root = g.boxed(g.root);
        assert!(root.output_order.is_some());
    }

    #[test]
    fn order_by_non_output_column_rejected() {
        let err = bind_sql("select o_custkey from orders order by o_orderdate").unwrap_err();
        assert!(matches!(err, FtoError::Semantic(_)));
    }

    #[test]
    fn output_names_are_the_select_lists() {
        let names = |sql: &str| bind_sql(sql).unwrap().output_names;
        assert_eq!(
            names("select o_orderkey as x from orders where o_orderkey < 2"),
            ["x"]
        );
        assert_eq!(
            names("select * from (select o_orderkey as k, o_custkey from orders) t"),
            ["k", "o_custkey"]
        );
        assert_eq!(
            names("select o_orderkey as x, o_orderkey as y from orders"),
            ["x", "y"]
        );
        assert_eq!(
            names(
                "select o_orderkey as a, o_custkey as b from orders \
                 union all select l_orderkey, l_orderkey from lineitem"
            ),
            ["a", "b"]
        );
        let g = bind_sql("select o_custkey, count(*) as n from orders group by o_custkey").unwrap();
        assert_eq!(g.output_names, ["o_custkey", "n"]);
        assert_eq!(g.output_names.len(), g.boxed(g.root).output.len());
    }

    #[test]
    fn computed_output_gets_fresh_column() {
        let g = bind_sql("select o_orderkey + 1 as k1 from orders").unwrap();
        let root = g.boxed(g.root);
        assert_eq!(root.output.len(), 1);
        assert!(!root.output[0].is_passthrough());
        assert_eq!(g.registry.name(root.output[0].col), "k1");
    }

    #[test]
    fn derived_columns_are_typed_bottom_up() {
        use DataType::{Date, Double, Int};
        let types = |sql: &str| -> Vec<DataType> {
            let g = bind_sql(sql).unwrap();
            let root = g.boxed(g.root);
            let cols = root.output.iter();
            cols.map(|o| g.registry.info(o.col).data_type).collect()
        };
        assert_eq!(
            types(
                "select o_orderkey + 1, o_orderkey * 2.5, l_price / o_custkey, 7, 0.5, \
                 o_orderdate from orders, lineitem where o_orderkey = l_orderkey"
            ),
            [Int, Double, Double, Int, Double, Date]
        );
        assert_eq!(
            types(
                "select count(*), count(o_orderdate), sum(o_custkey), sum(l_price), \
                 avg(o_custkey), min(o_orderdate), max(l_price), sum(o_custkey + l_price) \
                 from orders, lineitem where o_orderkey = l_orderkey"
            ),
            [Int, Int, Int, Double, Double, Date, Double, Double]
        );
        // Through a derived table, a grouping expression and a union.
        assert_eq!(
            types("select v.k + 1 from (select o_orderkey * 1.0 as k from orders) as v"),
            [Double]
        );
        assert_eq!(
            types("select o_custkey * 2, max(o_orderkey) from orders group by o_custkey"),
            [Int, Int]
        );
        assert_eq!(
            types("select l_price from lineitem union select l_price * 2 from lineitem"),
            [Double]
        );
    }

    #[test]
    fn ill_typed_statements_are_semantic_errors() {
        for (sql, says) in [
            (
                "select o_orderdate + 1 from orders",
                "(o_orderdate + 1): cannot apply + to DATE and INT",
            ),
            (
                "select o_orderkey from orders where o_orderdate * 2 > 0",
                "cannot apply * to DATE and INT",
            ),
            (
                "select 'a' - o_custkey from orders",
                "('a' - o_custkey): cannot apply - to VARCHAR and INT",
            ),
            (
                "select sum(o_orderdate) from orders",
                "sum(o_orderdate): the argument is DATE",
            ),
            (
                "select avg(o_orderdate) from orders",
                "avg(o_orderdate): the argument is DATE",
            ),
            (
                "select count(o_orderdate + 1) from orders",
                "cannot apply + to DATE and INT",
            ),
            (
                "select o_custkey from orders group by o_custkey having max(o_orderdate) + 1 > 0",
                "cannot apply + to DATE and INT",
            ),
            (
                "select o_orderkey from orders join lineitem on o_orderdate / 2 = l_orderkey",
                "cannot apply / to DATE and INT",
            ),
            (
                "select o_orderkey from orders union select o_orderdate from orders",
                "UNION branch 2 column 1 is DATE where the first branch has INT",
            ),
            // No promotion either: the oracle would keep them apart.
            (
                "select o_orderkey, o_custkey from orders union all \
                 select l_orderkey, l_price from lineitem",
                "UNION branch 2 column 2 is DOUBLE where the first branch has INT",
            ),
        ] {
            match bind_sql(sql) {
                Err(FtoError::Semantic(msg)) => assert!(msg.contains(says), "{sql}: {msg}"),
                other => panic!("{sql}: {other:?}"),
            }
        }
        // Comparisons rank across types and NULL tests are untyped: both
        // still bind.
        bind_sql("select o_orderkey from orders where o_orderdate is not null and o_custkey < 2.5")
            .unwrap();
        bind_sql("select o_custkey from orders group by o_custkey having min(o_orderdate) is null")
            .unwrap();
    }

    #[test]
    fn wildcard_expands_all_tables() {
        let g = bind_sql("select * from orders, lineitem where o_orderkey = l_orderkey").unwrap();
        assert_eq!(g.boxed(g.root).output.len(), 5);
    }
}
