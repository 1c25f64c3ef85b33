//! Validates a Chrome trace-event JSON file emitted by the execution
//! profiler (`\profile` in the REPL,
//! [`fto_exec::PreparedQuery::execute_profiled`]).
//!
//! ```text
//! cargo run -p fto-bench --bin tracecheck -- <trace.json>
//! ```
//!
//! Checks, per lane (`tid`):
//!
//! * `B`/`E` events balance and nest properly, with matching names;
//! * timestamps are monotonically non-decreasing;
//! * at least one lane carries an `operator`-category span.
//!
//! Exits 0 when the trace is valid, 1 with a diagnosis otherwise. The
//! parser is deliberately line-oriented — the profiler emits one event
//! object per line — so this stays dependency-free; it is a checker for
//! our own exporter, not a general JSON parser.

use std::collections::HashMap;

/// One parsed trace event line (only the fields the checks need).
struct Event {
    name: String,
    ph: String,
    cat: String,
    ts: u64,
    tid: u64,
    line_no: usize,
}

/// Extracts a `"key":"string"` field from an event line.
fn str_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let mut out = String::new();
    let mut chars = line[start..].chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => out.push(chars.next()?),
            c => out.push(c),
        }
    }
    None
}

/// Extracts a `"key":123` numeric field from an event line.
fn num_field(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let digits: String = line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

fn fail(msg: &str) -> ! {
    eprintln!("tracecheck: FAIL: {msg}");
    std::process::exit(1);
}

fn main() {
    let path = match std::env::args().nth(1) {
        Some(p) => p,
        None => {
            eprintln!("usage: tracecheck <trace.json>");
            std::process::exit(2);
        }
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => fail(&format!("cannot read {path}: {e}")),
    };
    let trimmed = text.trim();
    if !trimmed.starts_with('[') || !trimmed.ends_with(']') {
        fail("not a JSON array (expected [...])");
    }

    let mut events = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim().trim_end_matches(',');
        if !line.starts_with('{') {
            continue;
        }
        let ph = str_field(line, "ph").unwrap_or_else(|| fail(&format!("line {}: no ph", i + 1)));
        if ph == "M" {
            continue; // metadata (thread_name) events carry no ts
        }
        events.push(Event {
            name: str_field(line, "name")
                .unwrap_or_else(|| fail(&format!("line {}: no name", i + 1))),
            ph,
            cat: str_field(line, "cat").unwrap_or_default(),
            ts: num_field(line, "ts").unwrap_or_else(|| fail(&format!("line {}: no ts", i + 1))),
            tid: num_field(line, "tid").unwrap_or_else(|| fail(&format!("line {}: no tid", i + 1))),
            line_no: i + 1,
        });
    }
    if events.is_empty() {
        fail("no events");
    }

    // Per-lane: balanced, properly nested spans and monotone timestamps.
    let mut stacks: HashMap<u64, Vec<String>> = HashMap::new();
    let mut last_ts: HashMap<u64, u64> = HashMap::new();
    let mut operator_spans = 0usize;
    for e in &events {
        if let Some(&prev) = last_ts.get(&e.tid) {
            if e.ts < prev {
                fail(&format!(
                    "line {}: lane {} ts went backwards ({} -> {})",
                    e.line_no, e.tid, prev, e.ts
                ));
            }
        }
        last_ts.insert(e.tid, e.ts);
        let stack = stacks.entry(e.tid).or_default();
        match e.ph.as_str() {
            "B" => {
                if e.cat == "operator" {
                    operator_spans += 1;
                }
                stack.push(e.name.clone());
            }
            "E" => match stack.pop() {
                Some(open) if open == e.name => {}
                Some(open) => fail(&format!(
                    "line {}: lane {} closes {:?} but {:?} is open",
                    e.line_no, e.tid, e.name, open
                )),
                None => fail(&format!(
                    "line {}: lane {} closes {:?} with no span open",
                    e.line_no, e.tid, e.name
                )),
            },
            "i" => {}
            other => fail(&format!("line {}: unknown phase {other:?}", e.line_no)),
        }
    }
    for (tid, stack) in &stacks {
        if let Some(open) = stack.last() {
            fail(&format!("lane {tid}: span {open:?} never closed"));
        }
    }
    if operator_spans == 0 {
        fail("no operator spans in any lane");
    }

    let lanes = stacks.len();
    println!(
        "tracecheck: OK: {} events, {} lanes, {} operator spans",
        events.len(),
        lanes,
        operator_spans
    );
}
