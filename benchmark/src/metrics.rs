//! The metric tables — the one place names, units, directions and bounds
//! are written down (`BENCHMARK.json` repeats them and a test holds the
//! two together) — and the result-file schema.

use crate::json::Json;
use crate::workloads::template_names;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the baseline's median by which the
    /// metric may worsen before `compare` calls it a regression.
    pub bound: Option<f64>,
    /// A count that must repeat exactly at a fixed seed; `selfcheck`
    /// holds two runs to that.
    pub exact: bool,
}

fn spec(name: impl Into<String>, unit: &'static str, better: Better, exact: bool) -> MetricSpec {
    MetricSpec {
        name: name.into(),
        unit,
        better,
        bound: None,
        exact,
    }
}

/// What a user of the engine sees. `failed_share` is not in this table:
/// it is 0 on every accepted run, so it travels as the `attempted` and
/// `failed` fields of the result and any rise fails `compare` outright.
pub fn end_to_end() -> Vec<MetricSpec> {
    use Better::*;
    [
        ("setup_s", "s", Lower, 0.25, false),
        ("latency_ms_p50", "ms", Lower, 0.25, false),
        ("latency_ms_p90", "ms", Lower, 0.25, false),
        ("queries_per_s", "1/s", Higher, 0.25, false),
        ("weighted_page_cost_per_query", "pages", Lower, 0.03, true),
        ("peak_rss_mb", "MiB", Lower, 0.10, false),
    ]
    .into_iter()
    .map(|(name, unit, better, bound, exact)| MetricSpec {
        bound: Some(bound),
        ..spec(name, unit, better, exact)
    })
    .collect()
}

/// `Plan::op_name()` of every plan node kind, sanitised by
/// `engine::op_kind`.
pub const OP_KINDS: [&str; 18] = [
    "table-scan",
    "index-scan",
    "filter",
    "project",
    "sort",
    "segmented-sort",
    "top-n",
    "nested-loop-join",
    "index-nested-loop-join",
    "merge-join",
    "hash-join",
    "left-outer-join",
    "group-by-stream",
    "group-by-hash",
    "distinct-stream",
    "distinct-hash",
    "union-all",
    "limit",
];

/// One row per layer measurement; the layers are the engine's crates.
pub fn per_layer() -> Vec<MetricSpec> {
    use Better::*;
    let mut m = vec![
        spec("sql.parse_us_p50", "us", Lower, false),
        spec("sql.bind_us_p50", "us", Lower, false),
        spec("qgm.rewrite_us_p50", "us", Lower, false),
        spec("qgm.orderscan_us_p50", "us", Lower, false),
        spec("core.reduce_ns", "ns", Lower, false),
        spec("core.test_order_ns", "ns", Lower, false),
        spec("core.cover_ns", "ns", Lower, false),
        spec("core.homogenize_ns", "ns", Lower, false),
        spec("planner.plan_us_p50", "us", Lower, false),
        spec("planner.plan_share", "ratio", Lower, false),
        spec("planner.plans_generated", "count", Lower, true),
        spec("planner.plans_pruned", "count", Lower, true),
        spec("planner.joins_considered", "count", Lower, true),
        spec("planner.sorts_added", "count", Lower, true),
        spec("planner.sorts_avoided", "count", Higher, true),
        spec("planner.partial_sorts", "count", Higher, true),
        spec("planner.us_per_plan", "us", Lower, false),
        spec("planner.order_opt.latency_ratio", "ratio", Higher, false),
        spec("planner.order_opt.plan_us_ratio", "ratio", Higher, false),
        spec("planner.order_opt.wpc_ratio", "ratio", Higher, false),
        spec("exec.execute_ms_p50", "ms", Lower, false),
        spec("exec.execute_share", "ratio", Lower, false),
        spec("exec.rows_out", "rows", Higher, true),
    ];
    for kind in OP_KINDS {
        m.push(spec(format!("exec.op.{kind}.self_ms"), "ms", Lower, false));
        m.push(spec(format!("exec.op.{kind}.rows"), "rows", Lower, true));
    }
    m.extend([
        spec("exec.sort.key_bytes", "bytes", Lower, true),
        spec("exec.sort.comparisons", "count", Lower, true),
        spec("exec.spill.runs_formed", "count", Lower, true),
        spec("exec.spill.merge_passes", "count", Lower, true),
        spec("exec.segment.groups_formed", "count", Higher, true),
        spec("exec.threads2.latency_ratio", "ratio", Lower, false),
        spec("storage.sequential_pages", "pages", Lower, true),
        spec("storage.random_pages", "pages", Lower, true),
        spec("storage.index_pages", "pages", Lower, true),
        spec("storage.rows_read", "rows", Lower, true),
        spec("storage.sort_rows", "rows", Lower, true),
        spec("storage.spill_pages_written", "pages", Lower, true),
        spec("storage.spill_pages_read", "pages", Lower, true),
        spec("storage.pool_hit_ratio", "ratio", Higher, true),
        spec("storage.rows_read_per_row_out", "ratio", Lower, true),
        spec("obs.instrumented_overhead_ratio", "ratio", Lower, false),
        spec("obs.traced_overhead_ratio", "ratio", Lower, false),
    ]);
    for t in template_names() {
        m.push(spec(format!("stmt.{t}.latency_ms_p50"), "ms", Lower, false));
        m.push(spec(format!("stmt.{t}.plan_share"), "ratio", Lower, false));
    }
    m
}

/// One measured metric of a result.
#[derive(Clone, Debug, PartialEq)]
pub struct Measured {
    pub spec: MetricSpec,
    /// `None` when the run could not support the metric (a percentile
    /// with too few samples beyond it, under `--quick`).
    pub value: Option<f64>,
}

/// What one invocation on one workload produced; one schema for the
/// untraced (end-to-end) and the traced (per-layer) run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub quick: bool,
    pub nproc: usize,
    pub commit: String,
    pub seconds: f64,
    /// Timed passes over the statement list (a fraction when the window
    /// closed mid-pass).
    pub passes: f64,
    pub samples: usize,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Measured>,
}

impl RunResult {
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.spec.name == name)
            .and_then(|m| m.value)
    }

    /// The last line of standard output, as the benchmark contract in
    /// BENCHMARK.json's driver reads it.
    pub fn contract_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::num(self.attempted as f64)),
            ("failed", Json::num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.spec.name.clone(),
                        Json::obj([
                            ("value", m.value.map_or(Json::Null, Json::num)),
                            ("unit", Json::str(m.spec.unit)),
                        ]),
                    )
                })),
            ),
        ])
        .render()
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(&*self.workload)),
            ("seed", Json::str(self.seed.to_string())),
            ("traced", Json::Bool(self.traced)),
            ("quick", Json::Bool(self.quick)),
            ("nproc", Json::num(self.nproc as f64)),
            ("commit", Json::str(&*self.commit)),
            ("seconds", Json::num(self.seconds)),
            ("passes", Json::num(self.passes)),
            ("samples", Json::num(self.samples as f64)),
            ("attempted", Json::num(self.attempted as f64)),
            ("failed", Json::num(self.failed as f64)),
            ("failed_share", Json::num(self.failed_share())),
            (
                "metrics",
                Json::Arr(
                    self.metrics
                        .iter()
                        .map(|m| {
                            Json::obj([
                                ("name", Json::str(&*m.spec.name)),
                                ("value", m.value.map_or(Json::Null, Json::num)),
                                ("unit", Json::str(m.spec.unit)),
                                ("better", Json::str(m.spec.better.as_str())),
                                ("bound", m.spec.bound.map_or(Json::Null, Json::num)),
                                ("exact", Json::Bool(m.spec.exact)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Reads a result back. Names, units, directions and bounds come from
    /// this build's tables, not from the file, so two files are always
    /// compared under one set of bounds; a metric this build does not know
    /// is an error.
    pub fn from_json(j: &Json) -> Result<RunResult, String> {
        let field = |key: &str| j.get(key).ok_or_else(|| format!("result lacks \"{key}\""));
        let num = |key: &str| {
            field(key)?
                .as_f64()
                .ok_or_else(|| format!("\"{key}\" is not a number"))
        };
        let text = |key: &str| {
            field(key)?
                .as_str()
                .ok_or_else(|| format!("\"{key}\" is not a string"))
        };
        let flag = |key: &str| {
            field(key)?
                .as_bool()
                .ok_or_else(|| format!("\"{key}\" is not a boolean"))
        };
        let traced = flag("traced")?;
        let specs = if traced { per_layer() } else { end_to_end() };
        let mut metrics = Vec::new();
        for m in field("metrics")?
            .as_arr()
            .ok_or("\"metrics\" is not a list")?
        {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric lacks a name")?;
            let spec = specs
                .iter()
                .find(|s| s.name == name)
                .ok_or_else(|| format!("unknown metric \"{name}\""))?;
            metrics.push(Measured {
                spec: spec.clone(),
                value: m.get("value").and_then(Json::as_f64),
            });
        }
        Ok(RunResult {
            workload: text("workload")?.to_string(),
            seed: text("seed")?
                .parse()
                .map_err(|_| "\"seed\" is not an integer")?,
            traced,
            quick: flag("quick")?,
            nproc: num("nproc")? as usize,
            commit: text("commit")?.to_string(),
            seconds: num("seconds")?,
            passes: num("passes")?,
            samples: num("samples")? as usize,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let all: Vec<MetricSpec> = end_to_end().into_iter().chain(per_layer()).collect();
        assert!(per_layer().len() <= 128, "{}", per_layer().len());
        for (i, m) in all.iter().enumerate() {
            assert!(m.name.len() <= 64, "{}", m.name);
            assert!(
                m.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{}",
                m.name
            );
            assert!(all[..i].iter().all(|o| o.name != m.name), "{}", m.name);
        }
        for m in end_to_end() {
            let bound = m.bound.expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
    }

    /// `BENCHMARK.json` is what the driver reads; the tables above are what
    /// the program reports and `compare` enforces. They must say the same.
    #[test]
    fn benchmark_json_repeats_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let file = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str, with_bound: bool| -> Vec<(String, String, String, Option<f64>)> {
            file.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("{key} is a list"))
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    let bound = m.get("bound").and_then(Json::as_f64);
                    assert_eq!(bound.is_some(), with_bound, "{key}/{}", s("name"));
                    (s("name"), s("unit"), s("better"), bound)
                })
                .collect()
        };
        let ours = |specs: Vec<MetricSpec>| -> Vec<(String, String, String, Option<f64>)> {
            specs
                .into_iter()
                .map(|m| {
                    (
                        m.name,
                        m.unit.to_string(),
                        m.better.as_str().to_string(),
                        m.bound,
                    )
                })
                .collect()
        };
        assert_eq!(listed("end_to_end", true), ours(end_to_end()));
        assert_eq!(listed("per_layer", false), ours(per_layer()));

        let workloads: Vec<(String, String)> = file
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads is a list")
            .iter()
            .map(|w| {
                let s = |k: &str| w.get(k).and_then(Json::as_str).unwrap().to_string();
                (s("name"), s("why"))
            })
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, expected);
        for (_, why) in &workloads {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
    }

    #[test]
    fn result_round_trips_through_its_file_form() {
        let result = RunResult {
            workload: "scan_agg".into(),
            seed: u64::MAX,
            traced: false,
            quick: false,
            nproc: 2,
            commit: "unknown".into(),
            seconds: 12.0,
            passes: 3.4,
            samples: 136,
            attempted: 136,
            failed: 0,
            metrics: end_to_end()
                .into_iter()
                .enumerate()
                .map(|(i, spec)| Measured {
                    spec,
                    value: (i != 2).then_some(1.5 + i as f64),
                })
                .collect(),
        };
        let back = RunResult::from_json(&Json::parse(&result.to_json().render()).unwrap());
        assert_eq!(back, Ok(result.clone()));
        let line = Json::parse(&result.contract_line()).unwrap();
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(line.get("attempted").and_then(Json::as_f64), Some(136.0));
        let p50 = line.get("metrics").and_then(|m| m.get("latency_ms_p50"));
        assert_eq!(
            p50.and_then(|m| m.get("unit")).and_then(Json::as_str),
            Some("ms")
        );
    }
}
