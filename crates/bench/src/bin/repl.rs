//! An interactive SQL shell over a generated TPC-D database — the
//! quickest way to poke at the optimizer.
//!
//! ```text
//! cargo run -p fto-bench --release --bin repl [-- <scale>]
//! ```
//!
//! Commands:
//!
//! * `<sql>;`            — run a query, print rows (first 20) + timing
//! * `explain <sql>;`    — show the chosen plan without running it
//! * `explain analyze <sql>;` — run it and show the plan annotated with
//!   per-operator actuals (rows, batches, self pages vs estimate, time)
//! * `explain optimizer <sql>;` — plan it and show the optimizer's
//!   decision trace (plans generated/pruned, sorts added/avoided,
//!   sort-ahead variants) with an enumeration summary
//! * `explain+ <sql>;`   — the plan with per-stream order/key properties
//! * `compare <sql>;`    — plans + timings with order optimization on/off
//! * `\metrics`          — dump the session metrics registry (counters,
//!   latency/rows/pages histograms)
//! * `\slow`             — dump the slow-query log (queries over
//!   `FTO_SLOW_MS`, default 100, **or** misestimated past
//!   `FTO_QERR_LIMIT`, with plan + worst operator + optimizer trace)
//! * `\profile <path>`   — profile every subsequent plain query: write
//!   its execution timeline to `<path>` as Chrome trace-event JSON
//!   (load in `chrome://tracing` / Perfetto) and folded stacks to
//!   `<path>.folded`; `\profile off` disables
//! * `.mode modern|1996` — operator inventory (hash ops on/off)
//! * `.tables`           — list tables
//! * `.quit`             — exit
//!
//! Environment knobs (an unparseable value is an error, not a silent
//! default): `FTO_THREADS=<p>` runs every query morsel-parallel at
//! degree `p` (`explain analyze` then shows per-worker actuals under
//! each exchange); `FTO_SLOW_MS=<ms>` sets the slow-query threshold;
//! `FTO_QERR_LIMIT=<factor>` sets the misestimation threshold (default
//! 16); `FTO_PROFILE_OUT=<path>` starts the shell with profiling on, as
//! if `\profile <path>` had been typed; `FTO_MEMORY_BUDGET=<bytes>`
//! caps per-query executor memory — sorts form spilled runs, hash
//! group-bys spill partitions, join builds spill their overflow rows,
//! and `\metrics` grows `spill.*` counters; every other page count is
//! the unbudgeted run's. A budget runs serial, so combined with
//! `FTO_THREADS` every counter equals the `FTO_THREADS=1` run.

use fto_bench::{envknob, ObsOptions, Observability, Session, StatementOutput};
use fto_planner::OptimizerConfig;
use fto_storage::Database;
use fto_tpcd::{build_database, TpcdConfig};
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn main() {
    let scale: f64 = match std::env::args().nth(1) {
        None => 0.01,
        Some(arg) => match arg.parse() {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: scale argument {arg:?} is invalid: {e}");
                std::process::exit(2);
            }
        },
    };
    let slow_ms = env_knob_or_exit::<u64>("FTO_SLOW_MS").unwrap_or(100);
    let qerr_limit = env_knob_or_exit::<f64>("FTO_QERR_LIMIT");
    let mut profile_out: Option<PathBuf> =
        env_knob_or_exit::<String>("FTO_PROFILE_OUT").map(PathBuf::from);
    // Fail on a bad FTO_THREADS / FTO_MEMORY_BUDGET now, before the data
    // load, rather than at the first statement that reads them.
    let _ = env_threads();
    let _ = env_memory_budget();
    let obs = Observability::new(ObsOptions {
        slow_query_threshold: Duration::from_millis(slow_ms),
        qerror_threshold: qerr_limit.unwrap_or(ObsOptions::default().qerror_threshold),
    });
    eprintln!("loading TPC-D at scale {scale}...");
    let db = build_database(TpcdConfig {
        scale,
        ..TpcdConfig::default()
    })
    .expect("tpcd generation");
    eprintln!(
        "ready. end statements with ';'. try: .tables, explain <sql>;, compare <sql>;, \\metrics"
    );

    let stdin = std::io::stdin();
    let mut buffer = String::new();
    let mut modern = true;
    print_prompt();
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        let trimmed = line.trim();
        if trimmed.starts_with('\\') {
            match trimmed {
                "\\metrics" => print!("{}", obs.metrics_snapshot()),
                "\\slow" => print!("{}", obs.slow_log().render()),
                "\\profile off" => {
                    profile_out = None;
                    println!("profiling off");
                }
                "\\profile" => match &profile_out {
                    Some(p) => println!("profiling to {}", p.display()),
                    None => println!("profiling off (use \\profile <path>)"),
                },
                other => {
                    if let Some(path) = other.strip_prefix("\\profile ") {
                        profile_out = Some(PathBuf::from(path.trim()));
                        println!(
                            "profiling plain queries to {} (+ .folded)",
                            profile_out.as_ref().unwrap().display()
                        );
                    } else {
                        println!("unknown command {other}");
                    }
                }
            }
            print_prompt();
            continue;
        }
        if trimmed.starts_with('.') {
            match trimmed {
                ".quit" | ".exit" => break,
                ".tables" => {
                    for t in db.catalog().tables() {
                        let stats = db.catalog().stats(t.id);
                        println!("  {} ({} rows)", t.name, stats.row_count);
                    }
                }
                ".mode modern" => {
                    modern = true;
                    println!("operator inventory: modern (hash join/grouping on)");
                }
                ".mode 1996" => {
                    modern = false;
                    println!("operator inventory: 1996 (order-based only)");
                }
                other => println!("unknown command {other}"),
            }
            print_prompt();
            continue;
        }
        buffer.push_str(&line);
        buffer.push(' ');
        if !buffer.trim_end().ends_with(';') {
            continue;
        }
        let statement = buffer.trim().trim_end_matches(';').trim().to_string();
        buffer.clear();
        if !statement.is_empty() {
            dispatch(&db, &obs, &statement, modern, profile_out.as_deref());
        }
        print_prompt();
    }
}

fn print_prompt() {
    print!("fto> ");
    let _ = std::io::stdout().flush();
}

/// Reads an environment knob strictly: unset returns `None`, an
/// unparseable value reports the error and exits with status 2.
fn env_knob_or_exit<T: std::str::FromStr>(name: &str) -> Option<T>
where
    T::Err: std::fmt::Display,
{
    match envknob::env_parse::<T>(name) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

/// Parallel degree for every query the shell runs, from `FTO_THREADS`
/// (default 1 = serial).
fn env_threads() -> usize {
    env_knob_or_exit::<usize>("FTO_THREADS").unwrap_or(1)
}

/// Per-query executor memory budget in bytes, from `FTO_MEMORY_BUDGET`
/// (default unbounded).
fn env_memory_budget() -> Option<usize> {
    env_knob_or_exit::<usize>("FTO_MEMORY_BUDGET")
}

fn apply_knobs(cfg: OptimizerConfig) -> OptimizerConfig {
    let cfg = cfg.with_threads(env_threads());
    match env_memory_budget() {
        Some(bytes) => cfg.with_memory_budget(bytes),
        None => cfg,
    }
}

fn base_config(modern: bool) -> OptimizerConfig {
    apply_knobs(if modern {
        OptimizerConfig::default()
    } else {
        OptimizerConfig::db2_1996()
    })
}

fn disabled_config(modern: bool) -> OptimizerConfig {
    apply_knobs(if modern {
        OptimizerConfig::disabled()
    } else {
        OptimizerConfig::db2_1996_disabled()
    })
}

/// Writes one profiled execution's timeline artifacts: Chrome
/// trace-event JSON at `path`, folded flamegraph stacks at
/// `path.folded`.
fn write_profile(path: &Path, profile: &fto_bench::ExecutionProfile) {
    let folded = PathBuf::from(format!("{}.folded", path.display()));
    match std::fs::write(path, profile.to_chrome_trace())
        .and_then(|()| std::fs::write(&folded, profile.to_folded_stacks()))
    {
        Ok(()) => println!(
            "profile: {} events in {} lanes -> {} (+ {})",
            profile.event_count(),
            profile.lanes.len(),
            path.display(),
            folded.display()
        ),
        Err(e) => println!("profile write error: {e}"),
    }
}

fn dispatch(
    db: &Database,
    obs: &Observability,
    statement: &str,
    modern: bool,
    profile_out: Option<&Path>,
) {
    let lower = statement.to_ascii_lowercase();
    let session = |cfg: OptimizerConfig| Session::new(db).config(cfg).observe(obs.clone());
    let compile = |sql: &str, cfg: OptimizerConfig| session(cfg).plan(sql);
    if let Some(sql) = lower.strip_prefix("explain+ ") {
        match compile(sql, base_config(modern)) {
            Ok(q) => println!("{}", q.explain_properties()),
            Err(e) => println!("error: {e}"),
        }
    } else if lower.starts_with("explain ") || lower.starts_with("explain\t") {
        // `explain [analyze | optimizer] <sql>` is part of the statement
        // grammar; Session::run parses and dispatches it.
        match session(base_config(modern)).run(&lower) {
            Ok(StatementOutput::Explain(text)) => println!("{text}"),
            Ok(StatementOutput::Rows(r)) => println!("{} rows", r.num_rows()),
            Err(e) => println!("error: {e}"),
        }
    } else if let Some(sql) = lower.strip_prefix("compare ") {
        for (label, cfg) in [
            ("order optimization ON", base_config(modern)),
            ("order optimization OFF", disabled_config(modern)),
        ] {
            match compile(sql, cfg).and_then(|q| q.execute().map(|r| (q, r))) {
                Ok((q, r)) => {
                    println!("── {label} ──");
                    println!("{}", q.explain());
                    println!("planner: {}", q.planner_stats());
                    println!("{} rows in {:?}  ({})\n", r.num_rows(), r.elapsed, r.io);
                }
                Err(e) => println!("error: {e}"),
            }
        }
    } else {
        // Plain query. With `\profile` active, run through the profiled
        // path (identical rows and totals) and write the timeline out.
        fn run<'db>(
            q: fto_bench::PreparedQuery<'db>,
            profile_out: Option<&Path>,
        ) -> fto_common::Result<(fto_bench::PreparedQuery<'db>, fto_bench::QueryOutput)> {
            match profile_out {
                Some(path) => q.execute_profiled().map(|(r, _, profile)| {
                    write_profile(path, &profile);
                    (q, r)
                }),
                None => q.execute().map(|r| (q, r)),
            }
        }
        match compile(&lower, base_config(modern)).and_then(|q| run(q, profile_out)) {
            Ok((q, r)) => {
                let graph = q.graph();
                let names: Vec<&str> = graph
                    .boxed(graph.root)
                    .output
                    .iter()
                    .map(|o| graph.registry.name(o.col))
                    .collect();
                println!("{}", names.join(" | "));
                for row in r.rows().iter().take(20) {
                    let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                    println!("{}", cells.join(" | "));
                }
                if r.num_rows() > 20 {
                    println!("... ({} rows total)", r.num_rows());
                }
                println!("{} rows in {:?}  ({})", r.num_rows(), r.elapsed, r.io);
            }
            Err(e) => println!("error: {e}"),
        }
    }
}
