//! The benchmark may call the engine only through the public items listed
//! here (and in the README): the ones ROADMAP items 2–5 do not plan to
//! remove. Later PRs reshape the engine and may not edit `benchmark/` to
//! follow, so anything else would break the baseline the moment it moves.

use std::collections::BTreeMap;
use std::path::Path;

/// crate → importable items.
fn allowed() -> BTreeMap<&'static str, &'static [&'static str]> {
    BTreeMap::from([
        // `Row`/`Value` to read an answer, `ColId`/`ColSet` to build the
        // fixed `OrderContext` the core layer is timed on.
        (
            "fto_common",
            &["Rng", "Row", "Value", "ColId", "ColSet"][..],
        ),
        ("fto_sql", &["parse_query", "bind"][..]),
        ("fto_qgm", &["rewrite", "OrderScan"][..]),
        (
            "fto_planner",
            &["Planner", "PlannerStats", "OptimizerConfig"][..],
        ),
        (
            "fto_order",
            &["OrderContext", "OrderSpec", "EquivalenceClasses", "FdSet"][..],
        ),
        (
            "fto_exec",
            &["Session", "PreparedQuery", "QueryOutput", "PlanMetrics"][..],
        ),
        ("fto_storage", &["Database", "IoStats"][..]),
        ("fto_tpcd", &["build_database", "TpcdConfig", "queries"][..]),
    ])
}

/// What ROADMAP items 2 and 5 delete or reshape, and the executor entry
/// points that bypass `Session`.
const BANNED: [&str; 12] = [
    "ExecOptions",
    "row_shim",
    "sort_key_codec",
    "sort_memory",
    "Observability",
    "Profiler",
    "execute_profiled",
    "execute_plan",
    "compile_pipeline",
    "plan_traced",
    "plan_parsed",
    "explain",
];

/// The only `OptimizerConfig` builders the benchmark may chain.
const ALLOWED_BUILDERS: [&str; 2] = ["with_threads", "with_memory_budget"];

fn strip_comments(source: &str) -> String {
    source
        .lines()
        .map(|line| line.split("//").next().unwrap_or(""))
        .collect::<Vec<_>>()
        .join("\n")
}

fn ident_at(text: &str) -> &str {
    let end = text
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(text.len());
    &text[..end]
}

/// Every engine item a source text names, as (crate, item), or an error
/// for a mention that is not a plain `use` import.
fn engine_items(code: &str) -> Result<Vec<(String, String)>, String> {
    let mut items = Vec::new();
    let mut rest = code;
    while let Some(at) = rest.find("fto_") {
        let before = rest[..at].trim_end();
        let krate = ident_at(&rest[at..]).to_string();
        rest = &rest[at + krate.len()..];
        if !before.ends_with("use") {
            return Err(format!(
                "`{krate}` named outside a `use` line: import the item instead"
            ));
        }
        let after = rest
            .strip_prefix("::")
            .ok_or_else(|| format!("`use {krate}` imports a whole crate"))?;
        let end = after
            .find(';')
            .ok_or_else(|| format!("unterminated use of {krate}"))?;
        let path = after[..end].trim();
        let names: Vec<&str> = match path.strip_prefix('{') {
            Some(list) => list.trim_end_matches('}').split(',').collect(),
            None => vec![path],
        };
        for name in names.iter().map(|n| n.trim()).filter(|n| !n.is_empty()) {
            if name.contains("::") || name.contains('*') || name.contains(" as ") {
                return Err(format!(
                    "`{krate}::{name}`: import one listed item by its own name"
                ));
            }
            items.push((krate.clone(), name.to_string()));
        }
        rest = &after[end..];
    }
    Ok(items)
}

fn violations(code: &str) -> Vec<String> {
    let mut out = Vec::new();
    let allowed = allowed();
    match engine_items(code) {
        Err(e) => out.push(e),
        Ok(items) => {
            for (krate, item) in items {
                let ok = allowed
                    .get(krate.as_str())
                    .is_some_and(|list| list.contains(&item.as_str()));
                if !ok {
                    out.push(format!("{krate}::{item} is not on the allowed-API list"));
                }
            }
        }
    }
    for word in BANNED {
        if code.contains(word) {
            out.push(format!("`{word}` is off limits"));
        }
    }
    let mut rest = code;
    while let Some(at) = rest.find(".with_") {
        let name = ident_at(&rest[at + 1..]);
        if !ALLOWED_BUILDERS.contains(&name) {
            out.push(format!("builder `{name}` is not on the allowed-API list"));
        }
        rest = &rest[at + 1 + name.len()..];
    }
    out
}

#[test]
fn benchmark_source_uses_only_the_allowed_engine_api() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut checked = 0;
    for entry in std::fs::read_dir(&src).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "rs") {
            let code = strip_comments(&std::fs::read_to_string(&path).unwrap());
            let found = violations(&code);
            assert!(found.is_empty(), "{}: {found:#?}", path.display());
            checked += 1;
        }
    }
    assert!(checked >= 9, "only {checked} source files found");
}

#[test]
fn the_check_itself_catches_what_it_should() {
    assert!(violations("use fto_exec::{QueryOutput, Session};\nuse std::fmt;").is_empty());
    assert!(violations("use fto_exec::{\n    PlanMetrics,\n    Session,\n};").is_empty());
    assert!(violations("let cfg = OptimizerConfig::default().with_threads(2);").is_empty());
    for bad in [
        "use fto_exec::{ExecOptions, Session};",
        "use fto_exec::stream::execute_plan;",
        "use fto_obs::Registry;",
        "use fto_exec::*;",
        "use fto_exec::Session as S;",
        "let out = fto_exec::execute_plan(db, graph, plan, &opts);",
        "let cfg = OptimizerConfig::default().with_batch_size(64);",
        "let cfg = OptimizerConfig::default().with_row_shim(true);",
        "let p = Profiler::new();",
        "let text = prepared.explain_analyze();",
    ] {
        assert!(!violations(bad).is_empty(), "{bad:?} should be refused");
    }
}
