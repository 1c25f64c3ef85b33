//! One workload, one process: set-up, the untraced run that yields the
//! end-to-end metrics, or the traced run that yields the per-layer ones.

use crate::check::{check_answer, Signature};
use crate::engine::{self, Variant};
use crate::json::Json;
use crate::metrics::{end_to_end, per_layer, Measured, RunResult, OP_KINDS};
use crate::spans::{self, Span};
use crate::stats::{median, nearest_rank, percentile};
use crate::workloads::{generate, Statement, Workload, TEMPLATES};
use fto_exec::{QueryOutput, Session};
use fto_planner::PlannerStats;
use fto_storage::{Database, IoStats};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Rounds (one statement per template) every timed window runs at least:
/// 100 samples, the fewest that leave ten beyond the 90th percentile. A
/// window given fewer seconds than that takes runs on until it has them.
const MIN_ROUNDS: usize = 20;

/// More than this between the traced and the untraced run means the
/// per-layer numbers are distorted by the tracing itself.
const OVERHEAD_WARNING: f64 = 1.05;

pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny database, one parameterisation, one pass: exercises every
    /// path of the harness in seconds; its numbers mean nothing.
    pub quick: bool,
}

impl RunArgs {
    fn scale(&self) -> f64 {
        if self.quick {
            crate::workloads::TINY_SCALE
        } else {
            self.workload.scale
        }
    }

    fn statements(&self) -> Vec<Statement> {
        let mut list = generate(self.workload, self.seed);
        if self.quick {
            list.truncate(TEMPLATES);
        }
        list
    }
}

/// `benchmark/out`, next to this package's manifest.
pub fn out_dir() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    PathBuf::from(manifest).join("out")
}

pub fn write_out(name: &str, content: &Json) -> Result<PathBuf, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, content.render() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The `oracle` subcommand: prints the expected answer's signature for
/// every statement of the workload, as one JSON list.
pub fn oracle(args: &RunArgs) -> Result<(), String> {
    let db = engine::build(args.scale())?;
    let mut signatures = Vec::new();
    for s in args.statements() {
        let answer = engine::oracle_answer(&db, &s.sql).map_err(|e| format!("{e}: {}", s.sql))?;
        signatures.push(Signature::of(answer.rows()).to_json());
    }
    println!("{}", Json::Arr(signatures).render());
    Ok(())
}

/// Expected answers come from a child process: the reference interpreter
/// materializes every intermediate result, and run in this process it
/// would set `peak_rss_mb` on every workload.
fn expected_answers(args: &RunArgs) -> Result<Vec<Signature>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["oracle", "--workload", args.workload.name])
        .args(["--seed", &args.seed.to_string()]);
    if args.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end.
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("oracle process: {e}"))?;
    if !out.status.success() {
        return Err(format!("oracle process failed: {}", out.status));
    }
    let text = String::from_utf8(out.stdout).map_err(|e| e.to_string())?;
    Json::parse(text.trim())?
        .as_arr()
        .ok_or("oracle output is not a list")?
        .iter()
        .map(|j| Signature::from_json(j).ok_or_else(|| "bad oracle signature".to_string()))
        .collect()
}

/// Checks one answer after its timer has stopped; a mismatch is reported
/// on standard error and returned as `false`.
fn answer_ok(s: &Statement, what: &str, out: &QueryOutput, expected: &Signature) -> bool {
    match check_answer(out.rows(), s.order_by, expected) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("WRONG ANSWER ({what}, {}): {e}\n  {}", s.template, s.sql);
            false
        }
    }
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The untraced run: warm-up, then rounds of one statement per template
/// until the window closes.
///
/// The sandbox's cores are shared, and other tenants slow this process by
/// 30–50 % for tens of seconds at a time. Contention only ever adds time,
/// so every timing here is a best-of-N: a statement's latency is the
/// fastest of its executions in the window, and `setup_s` is the fastest
/// of the database builds, which are spread across the window (the
/// database is dropped and rebuilt in place `setup_reps` times) so that
/// they do not all land in one slow spell.
fn untraced(
    args: &RunArgs,
    statements: &[Statement],
    expected: &[Signature],
) -> Result<Outcome, String> {
    let cfg = engine::config(Variant::Default, args.workload.memory_budget);
    // A quick run has no window to spread builds over.
    let reps = if args.quick {
        1
    } else {
        args.workload.setup_reps
    };
    let rounds_per_pass = statements.len() / TEMPLATES;
    let min_rounds = if args.quick { 1 } else { MIN_ROUNDS };

    let mut build_s: Vec<f64> = Vec::new();
    let build = |times: &mut Vec<f64>| -> Result<Database, String> {
        let start = Instant::now();
        let db = engine::build(args.scale())?;
        times.push(start.elapsed().as_secs_f64());
        Ok(db)
    };
    let mut db = build(&mut build_s)?;
    {
        let session = Session::new(&db).config(cfg.clone());
        for s in &statements[..TEMPLATES] {
            engine::run_statement(&session, &s.sql)?; // warm-up, discarded
        }
    }

    // Per statement: every latency seen, its simulated I/O, any failure.
    let mut latencies_ms: Vec<Vec<f64>> = vec![Vec::new(); statements.len()];
    let mut page_cost = vec![0.0; statements.len()];
    let mut wrong = vec![false; statements.len()];
    let mut failed = 0u64;
    let mut round = 0;
    let start = Instant::now();
    let elapsed = || start.elapsed().as_secs_f64();
    while round < min_rounds || elapsed() < args.seconds {
        // Build k of `reps` is due k/reps of the way through the window.
        if build_s.len() < reps && elapsed() >= args.seconds * build_s.len() as f64 / reps as f64 {
            // Drop first: two databases at once would set `peak_rss_mb`.
            drop(db);
            db = build(&mut build_s)?;
        }
        let session = Session::new(&db).config(cfg.clone());
        for t in 0..TEMPLATES {
            let i = (round % rounds_per_pass) * TEMPLATES + t;
            let (latency, out) = engine::run_statement(&session, &statements[i].sql)?;
            latencies_ms[i].push(ms(latency));
            page_cost[i] = out.io.weighted_page_cost();
            if !answer_ok(&statements[i], "timed", &out, &expected[i]) {
                wrong[i] = true;
                failed += 1;
            }
        }
        round += 1;
    }

    // Every statement has run at least once: a pass is at most 8 rounds,
    // the window at least 20 (and a quick list is one round long).
    let raw: Vec<f64> = latencies_ms.iter().flatten().copied().collect();
    // A statement that ever answered wrongly counts at the slowest latency
    // seen anywhere (and the run exits non-zero in any case).
    let slowest = raw.iter().copied().fold(0.0, f64::max);
    let best_ms: Vec<f64> = (0..statements.len())
        .map(|i| {
            if wrong[i] {
                slowest
            } else {
                min_of(&latencies_ms[i])
            }
        })
        .collect();
    // The percentile rule is held on the raw samples; the value is read
    // off the per-statement bests.
    let pct = |p: f64| percentile(&raw, p).ok().map(|_| nearest_rank(&best_ms, p));

    let values = vec![
        ("setup_s".to_string(), Some(min_of(&build_s))),
        ("latency_ms_p50".to_string(), pct(50.0)),
        ("latency_ms_p90".to_string(), pct(90.0)),
        (
            "queries_per_s".to_string(),
            Some(best_ms.len() as f64 / (best_ms.iter().sum::<f64>() / 1e3)),
        ),
        (
            "weighted_page_cost_per_query".to_string(),
            Some(page_cost.iter().sum::<f64>() / page_cost.len() as f64),
        ),
        ("peak_rss_mb".to_string(), peak_rss_mib()),
    ];
    Ok(Outcome {
        values,
        samples: raw.len(),
        passes: round as f64 / rounds_per_pass as f64,
        attempted: raw.len() as u64,
        failed,
        spans: Vec::new(),
    })
}

fn min_of(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// What a run measured, before it is matched to the metric table.
struct Outcome {
    values: Vec<(String, Option<f64>)>,
    samples: usize,
    passes: f64,
    attempted: u64,
    failed: u64,
    /// Empty for the untraced run.
    spans: Vec<Span>,
}

/// What the traced pass keeps of one statement once its output is dropped.
struct Layered {
    template: &'static str,
    parse_us: f64,
    bind_us: f64,
    rewrite_us: f64,
    orderscan_us: f64,
    plan_us: f64,
    execute_ms: f64,
    total_ms: f64,
    planner: PlannerStats,
    io: IoStats,
    rows_out: u64,
    sort_key_bytes: u64,
    sort_comparisons: u64,
    spill_runs: u64,
    spill_merge_passes: u64,
    segment_groups: u64,
}

/// One statement of the comparison rounds: the same SQL under the default
/// configuration, with order optimization disabled, and at two threads.
struct Compared {
    statement: usize,
    default_ms: f64,
    execute_ms: f64,
    instrumented_ms: f64,
    default_page_cost: f64,
    disabled_ms: f64,
    disabled_plan_us: f64,
    disabled_page_cost: f64,
    threads2_ms: f64,
}

/// The traced run: an untraced pass (the tracing overhead's base)
/// interleaved with a pass that has a span around every public call (the
/// counts and the phase times), then comparison rounds until the window
/// closes (the ratios).
fn traced(
    args: &RunArgs,
    db: &Database,
    statements: &[Statement],
    expected: &[Signature],
) -> Result<Outcome, String> {
    let budget = args.workload.memory_budget;
    let cfg = engine::config(Variant::Default, budget);
    let disabled_cfg = engine::config(Variant::Disabled, budget);
    let session = Session::new(db).config(cfg.clone());
    let disabled = Session::new(db).config(disabled_cfg.clone());
    let threads2 = Session::new(db).config(engine::config(Variant::Threads2, budget));

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut tally = |ok: bool| {
        attempted += 1;
        failed += u64::from(!ok);
    };

    for s in &statements[..TEMPLATES] {
        engine::run_statement(&session, &s.sql)?; // warm-up, discarded
    }

    // An untraced and a traced pass, interleaved: U(0), U(1) T(0), U(2)
    // T(1), … so that a statement's two executions are one statement
    // apart in time (the same spell of the sandbox) and neither follows a
    // compilation of its own text.
    let epoch = Instant::now();
    let mut untraced_ms = Vec::new();
    let mut all_spans: Vec<Span> = Vec::new();
    let mut layered: Vec<Layered> = Vec::new();
    let mut op_self_ms: BTreeMap<String, f64> = BTreeMap::new();
    let mut op_rows: BTreeMap<String, u64> = BTreeMap::new();
    for step in 0..=statements.len() {
        if let Some(s) = statements.get(step) {
            let (latency, out) = engine::run_statement(&session, &s.sql)?;
            tally(answer_ok(s, "untraced", &out, &expected[step]));
            untraced_ms.push(ms(latency));
        }
        let Some(i) = step.checked_sub(1) else {
            continue;
        };
        let s = &statements[i];
        let t = engine::run_traced(db, &session, &cfg, &s.sql)?;
        let mut ok = answer_ok(s, "traced", &t.output, &expected[i]);
        if let Err(e) = t.metrics.validate() {
            eprintln!("BAD OPERATOR METRICS ({}): {e}", s.template);
            ok = false;
        }
        tally(ok);

        let first = all_spans.len();
        engine::push_spans(&mut all_spans, &t, epoch, i as u64);
        let phases: u64 = all_spans[first + 1..]
            .iter()
            .filter(|sp| sp.parent == Some(first))
            .map(Span::duration_ns)
            .sum();
        let whole = all_spans[first].duration_ns();
        if phases.abs_diff(whole) as f64 > 0.05 * whole as f64 {
            return Err(format!(
                "{}: phase spans sum to {phases} ns, statement span is {whole} ns",
                s.template
            ));
        }
        for id in first..all_spans.len() {
            if let Some(kind) = all_spans[id].name.strip_prefix("exec.op.") {
                *op_self_ms.entry(kind.to_string()).or_default() +=
                    spans::self_time_ns(&all_spans, id) as f64 / 1e6;
            }
        }
        for op in &t.metrics.ops {
            *op_rows.entry(engine::op_kind(&op.name)).or_default() += op.rows;
        }
        layered.push(Layered {
            template: s.template,
            parse_us: us(t.parse),
            bind_us: us(t.bind),
            rewrite_us: us(t.rewrite),
            orderscan_us: us(t.orderscan),
            plan_us: us(t.plan),
            execute_ms: ms(t.execute),
            total_ms: ms(t.total()),
            planner: t.planner,
            io: t.output.io,
            rows_out: t.output.num_rows() as u64,
            sort_key_bytes: t.output.sort.key_bytes,
            sort_comparisons: t.output.sort.comparisons,
            spill_runs: t.output.spill.runs_formed,
            spill_merge_passes: t.output.spill.merge_passes,
            segment_groups: t.output.segment.groups_formed,
        });
    }
    for kind in op_self_ms.keys() {
        if !OP_KINDS.contains(&kind.as_str()) {
            return Err(format!("operator kind \"{kind}\" has no metric"));
        }
    }

    let mut compared: Vec<Compared> = Vec::new();
    let rounds_per_pass = statements.len() / TEMPLATES;
    let mut round = 0;
    while round == 0 || epoch.elapsed().as_secs_f64() < args.seconds {
        for t in 0..TEMPLATES {
            let i = (round % rounds_per_pass) * TEMPLATES + t;
            let s = &statements[i];

            let start = Instant::now();
            let prepared = session.plan(&s.sql).map_err(|e| e.to_string())?;
            let compile = start.elapsed();
            let (execute, instrumented, out) =
                engine::time_instrumentation(&prepared, round % 2 == 1)?;
            tally(answer_ok(s, "default", &out, &expected[i]));
            let default_page_cost = out.io.weighted_page_cost();
            drop((out, prepared));

            let disabled_plan = engine::time_planner(db, &disabled_cfg, &s.sql)?;
            let (disabled_latency, out) = engine::run_statement(&disabled, &s.sql)?;
            tally(answer_ok(s, "disabled", &out, &expected[i]));
            let disabled_page_cost = out.io.weighted_page_cost();
            drop(out);

            let (threads2_latency, out) = engine::run_statement(&threads2, &s.sql)?;
            tally(answer_ok(s, "threads=2", &out, &expected[i]));
            drop(out);

            compared.push(Compared {
                statement: i,
                default_ms: ms(compile + execute),
                execute_ms: ms(execute),
                instrumented_ms: ms(instrumented),
                default_page_cost,
                disabled_ms: ms(disabled_latency),
                disabled_plan_us: us(disabled_plan),
                disabled_page_cost,
                threads2_ms: ms(threads2_latency),
            });
        }
        round += 1;
    }

    Ok(Outcome {
        values: per_layer_values(&layered, &compared, &untraced_ms, &op_self_ms, &op_rows),
        samples: untraced_ms.len() + layered.len() + compared.len(),
        passes: 2.0 + round as f64 / rounds_per_pass as f64,
        attempted,
        failed,
        spans: all_spans,
    })
}

/// Folds what the traced run recorded into the per-layer metrics.
fn per_layer_values(
    layered: &[Layered],
    compared: &[Compared],
    untraced_ms: &[f64],
    op_self_ms: &BTreeMap<String, f64>,
    op_rows: &BTreeMap<String, u64>,
) -> Vec<(String, Option<f64>)> {
    let core = engine::time_core();

    let col = |f: &dyn Fn(&Layered) -> f64| -> Vec<f64> { layered.iter().map(f).collect() };
    let sum = |f: &dyn Fn(&Layered) -> f64| -> f64 { layered.iter().map(f).sum() };
    let csum = |f: &dyn Fn(&Compared) -> f64| -> f64 { compared.iter().map(f).sum() };
    let total_ms = sum(&|l| l.total_ms);
    let plan_us = sum(&|l| l.plan_us);
    let rows_out = sum(&|l| l.rows_out as f64);
    let pool_hits = sum(&|l| l.io.pool_hits as f64);
    let pool_misses = sum(&|l| l.io.pool_misses as f64);
    let default_ms = csum(&|c| c.default_ms);

    let mut values = Vec::new();
    let mut set = |name: &str, value: f64| values.push((name.to_string(), Some(value)));
    set("sql.parse_us_p50", median(&col(&|l| l.parse_us)));
    set("sql.bind_us_p50", median(&col(&|l| l.bind_us)));
    set("qgm.rewrite_us_p50", median(&col(&|l| l.rewrite_us)));
    set("qgm.orderscan_us_p50", median(&col(&|l| l.orderscan_us)));
    set("core.reduce_ns", core.reduce_ns);
    set("core.test_order_ns", core.test_order_ns);
    set("core.cover_ns", core.cover_ns);
    set("core.homogenize_ns", core.homogenize_ns);
    set("planner.plan_us_p50", median(&col(&|l| l.plan_us)));
    set("planner.plan_share", ratio(plan_us / 1e3, total_ms));
    set(
        "planner.plans_generated",
        sum(&|l| l.planner.plans_generated as f64),
    );
    set(
        "planner.plans_pruned",
        sum(&|l| l.planner.plans_pruned as f64),
    );
    set(
        "planner.joins_considered",
        sum(&|l| l.planner.joins_considered as f64),
    );
    set(
        "planner.sorts_added",
        sum(&|l| l.planner.sorts_added as f64),
    );
    set(
        "planner.sorts_avoided",
        sum(&|l| l.planner.sorts_avoided as f64),
    );
    set(
        "planner.partial_sorts",
        sum(&|l| l.planner.partial_sorts as f64),
    );
    set(
        "planner.us_per_plan",
        ratio(plan_us, sum(&|l| l.planner.plans_generated as f64)),
    );
    set(
        "planner.order_opt.latency_ratio",
        ratio(csum(&|c| c.disabled_ms), default_ms),
    );
    set(
        "planner.order_opt.plan_us_ratio",
        ratio(
            csum(&|c| c.disabled_plan_us),
            csum(&|c| layered[c.statement].plan_us),
        ),
    );
    set(
        "planner.order_opt.wpc_ratio",
        ratio(
            csum(&|c| c.disabled_page_cost),
            csum(&|c| c.default_page_cost),
        ),
    );
    set("exec.execute_ms_p50", median(&col(&|l| l.execute_ms)));
    set(
        "exec.execute_share",
        ratio(sum(&|l| l.execute_ms), total_ms),
    );
    set("exec.rows_out", rows_out);
    for kind in OP_KINDS {
        set(
            &format!("exec.op.{kind}.self_ms"),
            op_self_ms.get(kind).copied().unwrap_or(0.0),
        );
        set(
            &format!("exec.op.{kind}.rows"),
            op_rows.get(kind).copied().unwrap_or(0) as f64,
        );
    }
    set("exec.sort.key_bytes", sum(&|l| l.sort_key_bytes as f64));
    set("exec.sort.comparisons", sum(&|l| l.sort_comparisons as f64));
    set("exec.spill.runs_formed", sum(&|l| l.spill_runs as f64));
    set(
        "exec.spill.merge_passes",
        sum(&|l| l.spill_merge_passes as f64),
    );
    set(
        "exec.segment.groups_formed",
        sum(&|l| l.segment_groups as f64),
    );
    set(
        "exec.threads2.latency_ratio",
        ratio(csum(&|c| c.threads2_ms), default_ms),
    );
    set(
        "storage.sequential_pages",
        sum(&|l| l.io.sequential_pages as f64),
    );
    set("storage.random_pages", sum(&|l| l.io.random_pages as f64));
    set("storage.index_pages", sum(&|l| l.io.index_pages as f64));
    set("storage.rows_read", sum(&|l| l.io.rows_read as f64));
    set("storage.sort_rows", sum(&|l| l.io.sort_rows as f64));
    set(
        "storage.spill_pages_written",
        sum(&|l| l.io.spill_pages_written as f64),
    );
    set(
        "storage.spill_pages_read",
        sum(&|l| l.io.spill_pages_read as f64),
    );
    set(
        "storage.pool_hit_ratio",
        ratio(pool_hits, pool_hits + pool_misses),
    );
    set(
        "storage.rows_read_per_row_out",
        ratio(sum(&|l| l.io.rows_read as f64), rows_out),
    );
    // Medians of per-statement ratios: each pair ran back to back, and a
    // slow spell that caught a few pairs cannot move the median.
    set(
        "obs.instrumented_overhead_ratio",
        median(
            &compared
                .iter()
                .map(|c| ratio(c.instrumented_ms, c.execute_ms))
                .collect::<Vec<_>>(),
        ),
    );
    set(
        "obs.traced_overhead_ratio",
        median(
            &layered
                .iter()
                .zip(untraced_ms)
                .map(|(l, u)| ratio(l.total_ms, *u))
                .collect::<Vec<_>>(),
        ),
    );
    for t in crate::workloads::template_names() {
        let of: Vec<&Layered> = layered.iter().filter(|l| l.template == t).collect();
        // 0 for a template this workload does not run.
        let (p50, share) = if of.is_empty() {
            (0.0, 0.0)
        } else {
            (
                median(&of.iter().map(|l| l.total_ms).collect::<Vec<_>>()),
                ratio(
                    of.iter().map(|l| l.plan_us / 1e3).sum(),
                    of.iter().map(|l| l.total_ms).sum(),
                ),
            )
        };
        set(&format!("stmt.{t}.latency_ms_p50"), p50);
        set(&format!("stmt.{t}.plan_share"), share);
    }

    values
}

/// Runs one workload and returns its result, having printed it and written
/// it (and the trace, for a traced run) under `benchmark/out`.
pub fn run_workload(args: &RunArgs) -> Result<RunResult, String> {
    let statements = args.statements();
    let expected = expected_answers(args)?;
    if expected.len() != statements.len() {
        return Err("oracle answered another statement list".into());
    }
    let (specs, outcome) = if args.trace {
        let db = engine::build(args.scale())?;
        let outcome = traced(args, &db, &statements, &expected)?;
        let path = write_out(
            &format!("trace-{}.json", args.workload.name),
            &spans::to_json(&outcome.spans),
        )?;
        println!(
            "{} spans written to {}",
            outcome.spans.len(),
            path.display()
        );
        (per_layer(), outcome)
    } else {
        (end_to_end(), untraced(args, &statements, &expected)?)
    };

    let metrics = specs
        .into_iter()
        .map(|spec| {
            let value = outcome
                .values
                .iter()
                .find(|(name, _)| *name == spec.name)
                .and_then(|(_, v)| *v);
            Measured { spec, value }
        })
        .collect();
    let result = RunResult {
        workload: args.workload.name.to_string(),
        seed: args.seed,
        traced: args.trace,
        quick: args.quick,
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
        commit: git_commit(),
        seconds: args.seconds,
        passes: outcome.passes,
        samples: outcome.samples,
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics,
    };
    print_result(&result, args, statements.len());
    let suffix = if args.trace { "-traced" } else { "" };
    write_out(
        &format!("result-{}{suffix}.json", result.workload),
        &result.to_json(),
    )?;
    Ok(result)
}

fn print_result(r: &RunResult, args: &RunArgs, statements: usize) {
    println!(
        "== {} ({}) seed {} | TPC-D scale {} | {statements} statements, {TEMPLATES} templates x {} | \
         {} samples over {:.2} passes | nproc {} | commit {}",
        r.workload,
        if r.traced {
            "traced: per-layer"
        } else {
            "untraced: end-to-end"
        },
        r.seed,
        args.scale(),
        statements / TEMPLATES,
        r.samples,
        r.passes,
        r.nproc,
        r.commit,
    );
    println!("   {}", args.workload.why);
    if r.quick {
        println!("QUICK — not comparable");
    }
    let in_this_workload = |name: &str| {
        // Rows of templates and operators the workload never runs stay in
        // the files (as 0) but not on the screen.
        !(name.starts_with("stmt.") || name.starts_with("exec.op."))
            || r.value(name).is_some_and(|v| v != 0.0)
    };
    for m in r.metrics.iter().filter(|m| in_this_workload(&m.spec.name)) {
        match m.value {
            Some(v) => println!("  {:<40} {:>16.4} {}", m.spec.name, v, m.spec.unit),
            None => println!(
                "  {:<40} {:>16} {}  (too few samples: {})",
                m.spec.name, "n/a", m.spec.unit, r.samples
            ),
        }
    }
    println!(
        "  {:<40} {:>16.4} ratio  ({} failed of {} attempted)",
        "failed_share",
        r.failed_share(),
        r.failed,
        r.attempted
    );
    if r.traced {
        for name in [
            "obs.traced_overhead_ratio",
            "obs.instrumented_overhead_ratio",
        ] {
            if r.value(name).is_some_and(|v| v > OVERHEAD_WARNING) {
                println!("  WARNING: {name} above {OVERHEAD_WARNING}: per-layer times are distorted by the tracing");
            }
        }
        println!(
            "  note: exec.threads2.latency_ratio is overhead against threads = 1 on {} core(s), not a speed-up",
            r.nproc
        );
        print_design_checks(r);
    }
}

/// Whether the workload still isolates the layer it was built to isolate.
/// A later engine may move these on purpose, so they are reported and
/// never fail the run.
fn print_design_checks(r: &RunResult) {
    let value = |name: &str| r.value(name).unwrap_or(0.0);
    let enforcers_ms = value("exec.op.sort.self_ms")
        + value("exec.op.segmented-sort.self_ms")
        + value("exec.op.top-n.self_ms");
    let spilled = value("exec.spill.runs_formed") > 0.0;
    let (what, met) = match r.workload.as_str() {
        "compile_heavy" => (
            "planner.plan_share >= 0.85",
            value("planner.plan_share") >= 0.85,
        ),
        "scan_agg" => (
            "planner.plan_share <= 0.01",
            value("planner.plan_share") <= 0.01,
        ),
        "order_pipeline" => (
            "sort + segmented-sort + top-n self time > 0",
            enforcers_ms > 0.0,
        ),
        _ => ("exec.spill.runs_formed > 0", spilled),
    };
    println!(
        "  design check: {what}: {}",
        if met { "ok" } else { "NOT MET" }
    );
    if r.workload != "bounded_memory" {
        println!(
            "  design check: no spill without a budget: {}",
            if spilled { "NOT MET" } else { "ok" }
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    /// The whole untraced path on a tiny database, with the oracle run in
    /// process: a right answer passes, and a corrupted expected hash or a
    /// wrong ORDER BY is counted as a failure, which is what makes the
    /// process exit non-zero (`main` exits 1 when `failed > 0`).
    #[test]
    fn a_wrong_answer_is_counted_and_fails_the_run() {
        let args = RunArgs {
            workload: &WORKLOADS[2], // order_pipeline: every template orders
            seed: 5,
            seconds: 0.0,
            trace: false,
            quick: true,
        };
        let db = engine::build(args.scale()).unwrap();
        let mut statements = args.statements();
        let mut expected: Vec<Signature> = statements
            .iter()
            .map(|s| Signature::of(engine::oracle_answer(&db, &s.sql).unwrap().rows()))
            .collect();

        let outcome = untraced(&args, &statements, &expected).unwrap();
        assert_eq!((outcome.attempted, outcome.failed), (5, 0));
        let p90 = outcome
            .values
            .iter()
            .find(|(n, _)| n == "latency_ms_p90")
            .unwrap();
        assert_eq!(p90.1, None, "five samples cannot support a p90");

        expected[1].exact ^= 0x10;
        let outcome = untraced(&args, &statements, &expected).unwrap();
        assert_eq!((outcome.attempted, outcome.failed), (5, 1));

        // Claim the engine's (correct) rows should be in the opposite order.
        static REVERSED: [crate::workloads::OrderKey; 1] = [crate::workloads::OrderKey {
            column: 0,
            descending: true,
        }];
        expected[1].exact ^= 0x10;
        statements[3].order_by = &REVERSED;
        let outcome = untraced(&args, &statements, &expected).unwrap();
        assert_eq!((outcome.attempted, outcome.failed), (5, 1));
        let result = RunResult {
            workload: args.workload.name.into(),
            seed: args.seed,
            traced: false,
            quick: true,
            nproc: 1,
            commit: String::new(),
            seconds: 0.0,
            passes: outcome.passes,
            samples: outcome.samples,
            attempted: outcome.attempted,
            failed: outcome.failed,
            metrics: Vec::new(),
        };
        assert!(result.failed_share() > 0.0);
        assert_ne!(crate::exit_code(&result), 0);
    }

    #[test]
    fn the_traced_pass_fills_every_per_layer_metric() {
        let args = RunArgs {
            workload: &WORKLOADS[3], // bounded_memory
            seed: 9,
            seconds: 0.0,
            trace: true,
            quick: true,
        };
        let db = engine::build(args.scale()).unwrap();
        let statements = args.statements();
        let expected: Vec<Signature> = statements
            .iter()
            .map(|s| Signature::of(engine::oracle_answer(&db, &s.sql).unwrap().rows()))
            .collect();
        let outcome = traced(&args, &db, &statements, &expected).unwrap();
        let (values, all_spans) = (&outcome.values, &outcome.spans);
        assert_eq!(outcome.failed, 0);
        // 5 untraced + 5 traced + one comparison round of 5 statements x 3 variants.
        assert_eq!(outcome.attempted, 25);
        for spec in per_layer() {
            let v = values.iter().find(|(n, _)| *n == spec.name);
            assert!(
                matches!(v, Some((_, Some(x))) if x.is_finite()),
                "{}",
                spec.name
            );
        }
        let statement_spans = all_spans.iter().filter(|s| s.name == "statement").count();
        assert_eq!(statement_spans, 5);
        assert!(all_spans.iter().any(|s| s.name.starts_with("exec.op.")));
    }
}
