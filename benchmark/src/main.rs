//! The repository's benchmark: end-to-end metrics per workload from an
//! untraced run, per-layer metrics from a traced run, every answer checked
//! against an oracle. See `README.md` next to this package's manifest.

mod check;
mod compare;
mod engine;
mod json;
mod metrics;
mod run;
mod spans;
mod stats;
mod workloads;

use json::Json;
use metrics::RunResult;
use run::RunArgs;
use std::process::{Command, ExitCode};
use workloads::{Workload, WORKLOADS};

const USAGE: &str = "\
usage: fto-benchmark run [--workload W] [--seed N] [--seconds S] [--repeats R] [--quick]
           every workload (or W), untraced then traced, each in its own process;
           results under benchmark/out/, all of them in benchmark/out/result.json
       fto-benchmark run --workload W --trace 0|1 [--seed N] [--seconds S] [--quick]
           one run in this process; the last line of output is its result as JSON
       fto-benchmark compare <base.json> <new.json>
       fto-benchmark selfcheck [--seed N] [--seconds S] [--repeats R]
           the whole benchmark twice on this build (R = 3 seeds a side), then compare
workloads: compile_heavy scan_agg order_pipeline bounded_memory";

/// The seed of a run that does not name one.
const DEFAULT_SEED: u64 = 1996;
/// The window of a run that does not name one; BENCHMARK.json's `run_seconds`.
const DEFAULT_SECONDS: f64 = 28.0;

struct Options {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    repeats: Option<u64>,
    quick: bool,
    files: Vec<String>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        repeats: None,
        quick: false,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                o.workload = Some(
                    workloads::workload(name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => o.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(0.0..=3600.0).contains(&o.seconds) {
                    return Err("--seconds must be between 0 and 3600".into());
                }
            }
            "--trace" => {
                o.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--repeats" => {
                let n = value()?.parse().map_err(|_| "--repeats takes an integer")?;
                if !(1..=100).contains(&n) {
                    return Err("--repeats must be between 1 and 100".into());
                }
                o.repeats = Some(n);
            }
            "--quick" => o.quick = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            file => o.files.push(file.to_string()),
        }
    }
    Ok(o)
}

/// 0 only when every statement answered correctly.
pub fn exit_code(result: &RunResult) -> u8 {
    u8::from(result.failed > 0)
}

/// Runs the chosen workloads × `repeats` seeds × {untraced, traced}, each as a child
/// process of this program so `peak_rss_mb` is per run, and writes every
/// result into `out/<name>`.
fn run_all(o: &Options, repeats: u64, name: &str) -> Result<Vec<RunResult>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let chosen: Vec<&Workload> = match o.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let mut results = Vec::new();
    for seed in (0..repeats).map(|r| o.seed.wrapping_add(r)) {
        for w in &chosen {
            for trace in ["0", "1"] {
                let mut cmd = Command::new(&exe);
                cmd.args(["run", "--workload", w.name, "--trace", trace])
                    .args(["--seed", &seed.to_string()])
                    .args(["--seconds", &o.seconds.to_string()]);
                if o.quick {
                    cmd.arg("--quick");
                }
                // `status` waits for the child; its output streams through.
                let status = cmd
                    .status()
                    .map_err(|e| format!("{}: {e}", exe.display()))?;
                if !status.success() {
                    return Err(format!("{} (trace {trace}) failed: {status}", w.name));
                }
                let suffix = if trace == "1" { "-traced" } else { "" };
                let path = run::out_dir().join(format!("result-{}{suffix}.json", w.name));
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                results.push(RunResult::from_json(&Json::parse(&text)?)?);
            }
        }
    }
    let all = Json::obj([(
        "runs",
        Json::Arr(results.iter().map(RunResult::to_json).collect()),
    )]);
    let path = run::write_out(name, &all)?;
    println!("{} results written to {}", results.len(), path.display());
    Ok(results)
}

fn dispatch(args: &[String]) -> Result<u8, String> {
    let (command, rest) = args.split_first().ok_or(USAGE)?;
    let o = parse(rest)?;
    match command.as_str() {
        "run" => match o.trace {
            Some(trace) => {
                let result = run::run_workload(&RunArgs {
                    workload: o.workload.ok_or("--trace needs --workload")?,
                    seed: o.seed,
                    // One pass, whatever the window.
                    seconds: if o.quick { 0.0 } else { o.seconds },
                    trace,
                    quick: o.quick,
                })?;
                println!("{}", result.contract_line());
                Ok(exit_code(&result))
            }
            None => run_all(&o, o.repeats.unwrap_or(1), "result.json").map(|_| 0),
        },
        "oracle" => run::oracle(&RunArgs {
            workload: o.workload.ok_or("oracle needs --workload")?,
            seed: o.seed,
            seconds: 0.0,
            trace: false,
            quick: o.quick,
        })
        .map(|()| 0),
        "compare" => match o.files.as_slice() {
            [base, new] => {
                let (text, passed) = compare::compare(&compare::load(base)?, &compare::load(new)?);
                print!("{text}");
                Ok(u8::from(!passed))
            }
            _ => Err(USAGE.to_string()),
        },
        "selfcheck" => {
            if o.quick {
                return Err("selfcheck compares, and QUICK results are not comparable".into());
            }
            // One run a side cannot tell a slow spell of the sandbox from a
            // regression; three give a median and a spread.
            let repeats = o.repeats.unwrap_or(3);
            let first = run_all(&o, repeats, "selfcheck-1.json")?;
            let second = run_all(&o, repeats, "selfcheck-2.json")?;
            let (text, passed) = compare::compare(&first, &second);
            print!("{text}");
            let mismatches = compare::exact_mismatches(&first, &second);
            for m in &mismatches {
                println!("not repeatable: {m}");
            }
            let ok = passed && mismatches.is_empty();
            println!("selfcheck {}", if ok { "passed" } else { "FAILED" });
            Ok(u8::from(!ok))
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => ExitCode::from(code),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
