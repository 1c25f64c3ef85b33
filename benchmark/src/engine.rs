//! Every call into the engine. The benchmark measures it only from
//! outside, through the public functions listed in the README (and
//! enforced by `tests/allowlist.rs`): later PRs reshape the engine's
//! internals and may not edit this directory to follow.

use crate::spans::Span;
use fto_common::{ColId, ColSet};
use fto_exec::{PlanMetrics, PreparedQuery, QueryOutput, Session};
use fto_order::{EquivalenceClasses, FdSet, OrderContext, OrderSpec};
use fto_planner::{OptimizerConfig, Planner, PlannerStats};
use fto_qgm::{rewrite, OrderScan};
use fto_sql::{bind, parse_query};
use fto_storage::Database;
use fto_tpcd::{build_database, TpcdConfig};
use std::hint::black_box;
use std::time::{Duration, Instant};

pub type EngineResult<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Generates, loads and indexes the TPC-D database at `scale`. The data
/// seed is the generator's fixed default: `--seed` varies the statements,
/// not the data they run on.
pub fn build(scale: f64) -> EngineResult<Database> {
    build_database(TpcdConfig {
        scale,
        ..TpcdConfig::default()
    })
    .map_err(err)
}

/// Which optimizer the statement is compiled by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// The configuration under test: everything on, one thread.
    Default,
    /// The paper's Table 1 baseline: order optimization off.
    Disabled,
    /// The default at two executor threads.
    Threads2,
}

pub fn config(variant: Variant, memory_budget: Option<usize>) -> OptimizerConfig {
    let cfg = match variant {
        Variant::Default => OptimizerConfig::default(),
        Variant::Disabled => OptimizerConfig::disabled(),
        Variant::Threads2 => OptimizerConfig::default().with_threads(2),
    };
    match memory_budget {
        Some(bytes) => cfg.with_memory_budget(bytes),
        None => cfg,
    }
}

/// One statement as a caller sees it: from the SQL text entering
/// `Session::plan` to the last batch `execute` returns, compiled fresh.
pub fn run_statement(session: &Session, sql: &str) -> EngineResult<(Duration, QueryOutput)> {
    let start = Instant::now();
    let out = session.plan(sql).map_err(err)?.execute().map_err(err)?;
    Ok((start.elapsed(), out))
}

/// The oracle's answer: the order-optimization-disabled plan run by the
/// materializing reference interpreter — a different plan *and* a
/// different engine from the one being timed.
pub fn oracle_answer(db: &Database, sql: &str) -> EngineResult<QueryOutput> {
    Session::new(db)
        .config(OptimizerConfig::disabled())
        .plan(sql)
        .map_err(err)?
        .execute_materialized()
        .map_err(err)
}

/// `execute` and `execute_instrumented` of one compiled statement, timed
/// back to back; `instrumented_first` alternates which one runs cold.
/// Returns both times and the plain execution's output.
pub fn time_instrumentation(
    prepared: &PreparedQuery,
    instrumented_first: bool,
) -> EngineResult<(Duration, Duration, QueryOutput)> {
    let instrumented = || -> EngineResult<Duration> {
        let t = Instant::now();
        black_box(prepared.execute_instrumented().map_err(err)?);
        Ok(t.elapsed())
    };
    let before = if instrumented_first {
        Some(instrumented()?)
    } else {
        None
    };
    let t = Instant::now();
    let out = prepared.execute().map_err(err)?;
    let plain = t.elapsed();
    let instrumented = match before {
        Some(d) => d,
        None => instrumented()?,
    };
    Ok((plain, instrumented, out))
}

/// What one traced statement did, layer by layer.
pub struct Traced {
    pub started: Instant,
    pub parse: Duration,
    pub bind: Duration,
    pub rewrite: Duration,
    pub orderscan: Duration,
    pub plan: Duration,
    pub execute: Duration,
    pub planner: PlannerStats,
    pub output: QueryOutput,
    pub metrics: PlanMetrics,
}

impl Traced {
    pub fn total(&self) -> Duration {
        self.parse + self.bind + self.rewrite + self.orderscan + self.plan + self.execute
    }
}

/// Compiles `sql` phase by phase through the same public functions
/// `Session::plan` calls, in the same order, timing each; then executes
/// instrumented.
///
/// Only a `Session` can hand a plan to the executor, so the statement is
/// compiled a second time through `Session::plan`, off the clock, between
/// the timed compilation and the timed execution: the plan timed by hand
/// and the plan executed come from the same deterministic planner under
/// the same configuration. The timed compilation runs first so that it is
/// as cold as an untraced one; the spans cut the second one out.
pub fn run_traced(
    db: &Database,
    session: &Session,
    cfg: &OptimizerConfig,
    sql: &str,
) -> EngineResult<Traced> {
    let catalog = db.catalog();
    let t0 = Instant::now();
    let ast = parse_query(sql).map_err(err)?;
    let t1 = Instant::now();
    let mut graph = bind(&ast, catalog).map_err(err)?;
    let t2 = Instant::now();
    rewrite::push_down_predicates(&mut graph);
    rewrite::merge_views(&mut graph);
    let t3 = Instant::now();
    OrderScan::run(&mut graph, catalog);
    let t4 = Instant::now();
    let mut planner = Planner::new(&graph, catalog, cfg.clone());
    let plan = planner.plan_query().map_err(err)?;
    let planner_stats = planner.stats;
    let t5 = Instant::now();
    black_box(plan);

    let prepared = session.plan(sql).map_err(err)?;
    let t6 = Instant::now();
    let (output, metrics) = prepared.execute_instrumented().map_err(err)?;
    let t7 = Instant::now();

    Ok(Traced {
        started: t0,
        parse: t1 - t0,
        bind: t2 - t1,
        rewrite: t3 - t2,
        orderscan: t4 - t3,
        plan: t5 - t4,
        execute: t7 - t6,
        planner: planner_stats,
        output,
        metrics,
    })
}

/// `Plan::op_name()` as a metric-name segment: `group-by(hash)` becomes
/// `group-by-hash`.
pub fn op_kind(op_name: &str) -> String {
    op_name.replace('(', "-").replace(')', "")
}

/// Appends the statement's spans to `spans`: `statement` ⊃ the six phases
/// laid end to end from the statement's start, and under `exec.execute`
/// one synthetic span per plan node. A node's
/// span lasts its inclusive elapsed time and siblings are laid end to end
/// from their parent's start (clipped to its end), so self time is
/// "duration minus children" for operators by the same rule as for
/// phases. Returns the index of the `exec.execute` span.
pub fn push_spans(spans: &mut Vec<Span>, t: &Traced, epoch: Instant, statement_id: u64) -> usize {
    let ns = |d: Duration| d.as_nanos() as u64;
    let start_ns = ns(t.started.saturating_duration_since(epoch));
    let root = spans.len();
    let mut push = |name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>| {
        spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            statement_id,
        });
        spans.len() - 1
    };
    push("statement", start_ns, start_ns + ns(t.total()), None);
    let mut at = start_ns;
    let mut execute = root;
    for (name, d) in [
        ("sql.parse", t.parse),
        ("sql.bind", t.bind),
        ("qgm.rewrite", t.rewrite),
        ("qgm.orderscan", t.orderscan),
        ("planner.plan", t.plan),
        ("exec.execute", t.execute),
    ] {
        execute = push(name, at, at + ns(d), Some(root));
        at += ns(d);
    }
    if !t.metrics.is_empty() {
        let (exec_start, exec_end) = (spans[execute].start_ns, spans[execute].end_ns);
        // (plan node, parent span, start, parent's end)
        let mut todo = vec![(0usize, execute, exec_start, exec_end)];
        while let Some((node, parent, start, limit)) = todo.pop() {
            let op = &t.metrics.ops[node];
            let end = (start + ns(op.elapsed)).min(limit);
            let id = spans.len();
            spans.push(Span {
                name: format!("exec.op.{}", op_kind(&op.name)),
                start_ns: start.min(end),
                end_ns: end,
                parent: Some(parent),
                statement_id,
            });
            let mut child_start = start.min(end);
            for &c in &t.metrics.children[node] {
                todo.push((c, id, child_start, end));
                child_start = (child_start + ns(t.metrics.ops[c].elapsed)).min(end);
            }
        }
    }
    execute
}

/// Planner time alone for `sql` under `cfg`: the front end runs untimed.
pub fn time_planner(db: &Database, cfg: &OptimizerConfig, sql: &str) -> EngineResult<Duration> {
    let catalog = db.catalog();
    let ast = parse_query(sql).map_err(err)?;
    let mut graph = bind(&ast, catalog).map_err(err)?;
    rewrite::push_down_predicates(&mut graph);
    rewrite::merge_views(&mut graph);
    OrderScan::run(&mut graph, catalog);
    let start = Instant::now();
    let mut planner = Planner::new(&graph, catalog, cfg.clone());
    black_box(planner.plan_query().map_err(err)?);
    Ok(start.elapsed())
}

/// Nanoseconds per call of the four order-algebra operations, over a
/// fixed Q3-shaped context (`o_orderkey = l_orderkey`,
/// `c_custkey = o_custkey`, the three tables' keys) and specifications of
/// one to four columns. Independent of workload and seed.
pub struct CoreTimes {
    pub reduce_ns: f64,
    pub test_order_ns: f64,
    pub cover_ns: f64,
    pub homogenize_ns: f64,
}

pub fn time_core() -> CoreTimes {
    let col = ColId;
    let (c_custkey, c_mktsegment) = (col(0), col(1));
    let (o_orderkey, o_custkey, o_orderdate, o_shippriority) = (col(2), col(3), col(4), col(5));
    let (l_orderkey, l_linenumber, l_extendedprice, l_shipdate) = (col(6), col(7), col(8), col(9));
    let customer = ColSet::from_cols([c_custkey, c_mktsegment]);
    let orders = ColSet::from_cols([o_orderkey, o_custkey, o_orderdate, o_shippriority]);
    let lineitem = ColSet::from_cols([l_orderkey, l_linenumber, l_extendedprice, l_shipdate]);

    let mut eq = EquivalenceClasses::new();
    eq.merge(o_orderkey, l_orderkey);
    eq.merge(c_custkey, o_custkey);
    let mut fds = FdSet::new();
    fds.add_key(ColSet::singleton(c_custkey), customer);
    fds.add_key(ColSet::singleton(o_orderkey), orders);
    fds.add_key(
        ColSet::from_cols([l_orderkey, l_linenumber]),
        lineitem.clone(),
    );
    let ctx = OrderContext::new(eq, &fds);

    let specs = [
        OrderSpec::ascending([l_orderkey]),
        OrderSpec::ascending([o_orderkey, o_orderdate]),
        OrderSpec::ascending([l_orderkey, o_orderdate, o_shippriority]),
        OrderSpec::ascending([o_custkey, l_orderkey, l_shipdate, l_extendedprice]),
    ];

    // Median of BATCHES batches of ITERATIONS sweeps over the four specs.
    const BATCHES: usize = 5;
    const ITERATIONS: usize = 2_000;
    let time = |op: &dyn Fn(&OrderSpec, &OrderSpec)| -> f64 {
        let mut per_call: Vec<f64> = (0..BATCHES)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..ITERATIONS {
                    for (i, a) in specs.iter().enumerate() {
                        op(black_box(a), black_box(&specs[(i + 1) % specs.len()]));
                    }
                }
                start.elapsed().as_nanos() as f64 / (ITERATIONS * specs.len()) as f64
            })
            .collect();
        per_call.sort_by(f64::total_cmp);
        per_call[BATCHES / 2]
    };
    CoreTimes {
        reduce_ns: time(&|a, _| {
            black_box(ctx.reduce(a));
        }),
        test_order_ns: time(&|a, b| {
            black_box(ctx.test_order(a, b));
        }),
        cover_ns: time(&|a, b| {
            black_box(ctx.cover(a, b));
        }),
        homogenize_ns: time(&|a, _| {
            black_box(ctx.homogenize(a, &lineitem));
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_kind_sanitises_plan_operator_names() {
        assert_eq!(op_kind("group-by(hash)"), "group-by-hash");
        assert_eq!(op_kind("distinct(stream)"), "distinct-stream");
        assert_eq!(op_kind("index-nested-loop-join"), "index-nested-loop-join");
        assert_eq!(op_kind("top-n"), "top-n");
    }
}
