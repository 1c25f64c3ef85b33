//! Executor performance benchmark, five sections:
//!
//! 1. **Columnar-kernel microbench** — filter, projection, group-by key
//!    computation and sort-key encoding over typed column batches
//!    (100k–1M rows per column type), timed row-at-a-time through the
//!    reference evaluators against the vectorized kernels
//!    ([`fto_expr::vector`], [`fto_common::column::encode_batch_keys`]),
//!    asserting identical results and reporting rows/sec each way.
//! 2. **Sort-kernel microbench** — 100k-row sorts of every key shape
//!    (int, int pair with desc, double, string, date+bool, mixed with
//!    NULLs), timed through the interpreter's `Value`-comparator sort
//!    and the executor's normalized-binary-key sort
//!    ([`fto_common::sortkey`]), asserting both orders identical and
//!    reporting rows/sec each way.
//! 3. **Morsel-parallelism** — the TPC-D workload run at parallel
//!    degrees 1, 2 and 4, reporting wall-clock latency (best-of-N plus
//!    p50/p95/p99 from an [`fto_obs`] log-linear histogram), simulated
//!    page I/O and row counts per (query, degree) cell, asserting along
//!    the way that every parallel run returns exactly the serial answer
//!    and passes the instrumented rollup check.
//! 4. **External sort / bounded memory** — sort- and group-heavy TPC-D
//!    queries run unbounded and under 64 KiB / 4 KiB memory budgets,
//!    reporting wall-clock, spill page traffic, runs formed and merge
//!    passes per cell, asserting every bounded run returns exactly the
//!    unbounded answer.
//! 5. **Segmented sort** — 1M prefix-ordered rows at group counts 10,
//!    1k and 100k, timed through the full two-key sort against the
//!    segmented path (boundary detection + per-group suffix sorts, the
//!    work `SegmentedSortOp` does), asserting identical output; plus an
//!    end-to-end TPC-D query where the clustered lineitem index supplies
//!    the prefix, run with the segmented enforcer on and off.
//!
//! ```text
//! cargo run -p fto-bench --release --bin perfbench [-- <scale> [runs]]
//! ```
//!
//! Results are printed as tables and written to `BENCH_PR8.json` in the
//! current directory (machine cores included, so single-core containers
//! don't read as regressions).

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use fto_bench::harness::tpcd_db;
use fto_bench::Session;
use fto_common::column::{encode_batch_keys_arena, Batch};
use fto_common::{sortkey, ColId, Direction, Rng, Row, Value};
use fto_exec::sortkernel::{self, SortKeys};
use fto_expr::{vector, CompareOp, Expr, Predicate, RowLayout};
use fto_obs::metrics::Histogram;
use fto_planner::OptimizerConfig;
use fto_tpcd::queries;

const DEGREES: &[usize] = &[1, 2, 4];

struct Cell {
    threads: usize,
    best: Duration,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
    pages: u64,
    rows: usize,
}

/// Rows per shape in the columnar-kernel microbench: fixed-width column
/// types get a full million rows, variable-width strings and the mixed
/// `Value` fallback run 250k so the row baseline stays affordable.
const COL_ROWS_FIXED: usize = 1_000_000;
const COL_ROWS_VAR: usize = 250_000;

/// One input to the columnar-kernel microbench: the same data held both
/// ways (pre-materialized rows for the row-at-a-time baseline, a typed
/// [`Batch`] for the vectorized kernels), plus the predicate and key
/// sets each kernel runs. Two columns per shape: `c0` is high-cardinality
/// payload (filter + sort keys), `c1` is a low-cardinality group key.
struct ColShape {
    name: &'static str,
    rows: Vec<Row>,
    batch: Batch,
    filter: Predicate,
}

impl ColShape {
    fn new(name: &'static str, rows: Vec<Row>, filter: Predicate) -> Self {
        let batch = Batch::from_rows(&rows);
        ColShape {
            name,
            rows,
            batch,
            filter,
        }
    }
}

fn columnar_workload(rng: &mut Rng) -> Vec<ColShape> {
    let gt = |lit: Value| Predicate::new(CompareOp::Gt, Expr::col(ColId(0)), Expr::Lit(lit));
    let mut shapes = Vec::new();

    let ints: Vec<Row> = (0..COL_ROWS_FIXED)
        .map(|_| {
            vec![
                Value::Int(rng.range_i64(0, 1_000_000)),
                Value::Int(rng.range_i64(0, 1000)),
            ]
            .into()
        })
        .collect();
    shapes.push(ColShape::new("int64", ints, gt(Value::Int(500_000))));

    let doubles: Vec<Row> = (0..COL_ROWS_FIXED)
        .map(|_| {
            vec![
                Value::Double(rng.range_f64(-1e9, 1e9)),
                Value::Double(rng.range_i64(0, 1000) as f64),
            ]
            .into()
        })
        .collect();
    shapes.push(ColShape::new("float64", doubles, gt(Value::Double(0.0))));

    let dates: Vec<Row> = (0..COL_ROWS_FIXED)
        .map(|_| {
            vec![
                Value::Date(rng.range_i32(0, 20_000)),
                Value::Date(rng.range_i32(8000, 8100)),
            ]
            .into()
        })
        .collect();
    shapes.push(ColShape::new("date32", dates, gt(Value::Date(10_000))));

    let bools: Vec<Row> = (0..COL_ROWS_FIXED)
        .map(|_| vec![Value::Bool(rng.bool()), Value::Bool(rng.bool())].into())
        .collect();
    shapes.push(ColShape::new(
        "bool",
        bools,
        Predicate::col_eq_const(ColId(0), Value::Bool(true)),
    ));

    let strs: Vec<Row> = (0..COL_ROWS_VAR)
        .map(|_| {
            let payload = format!("cust#{:08}", rng.range_i64(0, 100_000));
            let group = format!("grp#{:03}", rng.range_i64(0, 500));
            vec![Value::str(payload), Value::str(group)].into()
        })
        .collect();
    shapes.push(ColShape::new("utf8", strs, gt(Value::str("cust#00050000"))));

    let mixed: Vec<Row> = (0..COL_ROWS_VAR)
        .map(|_| {
            let payload = if rng.chance(0.1) {
                Value::Null
            } else if rng.bool() {
                Value::Int(rng.range_i64(-1000, 1000))
            } else {
                Value::Double(rng.range_f64(-1000.0, 1000.0))
            };
            let group = if rng.bool() {
                Value::Int(rng.range_i64(0, 8))
            } else {
                Value::Double(rng.range_i64(0, 8) as f64)
            };
            vec![payload, group].into()
        })
        .collect();
    shapes.push(ColShape::new("mixed_nulls", mixed, gt(Value::Int(0))));
    shapes
}

struct KernelCell {
    kernel: &'static str,
    shape: &'static str,
    rows: usize,
    row_best: Duration,
    vec_best: Duration,
}

impl KernelCell {
    fn rows_per_sec(&self, d: Duration) -> f64 {
        self.rows as f64 / d.as_secs_f64()
    }
    fn speedup(&self) -> f64 {
        self.row_best.as_secs_f64() / self.vec_best.as_secs_f64()
    }
}

/// Best-of-`runs` timing; returns the last run's result so callers can
/// cross-check the two implementations against each other.
fn best_of<R>(runs: usize, mut f: impl FnMut() -> R) -> (Duration, R) {
    let mut best = Duration::MAX;
    let mut out = None;
    for _ in 0..runs {
        let start = Instant::now();
        let r = std::hint::black_box(f());
        best = best.min(start.elapsed());
        out = Some(r);
    }
    (best, out.expect("runs >= 1"))
}

/// Times the four vectorized executor kernels against their row-at-a-time
/// reference implementations on every column type, asserting identical
/// results (selection vectors, projected rows, group counts, key bytes).
fn run_columnar_bench(runs: usize) -> Vec<KernelCell> {
    let mut rng = Rng::new(0xC01_BE4C);
    let layout = RowLayout::new(vec![ColId(0), ColId(1)]);
    let proj_exprs = [Expr::col(ColId(1)), Expr::col(ColId(0))];
    let group_keys: SortKeys = vec![(1, Direction::Asc)];
    let mut cells = Vec::new();
    println!("Columnar-kernel microbench (best of {runs}; row baseline vs vectorized)");
    println!();
    println!(
        "| kernel          | shape        | rows    | row rows/s   | vec rows/s   | speedup |"
    );
    println!(
        "|-----------------|--------------|---------|--------------|--------------|---------|"
    );
    for shape in columnar_workload(&mut rng) {
        let n = shape.rows.len();

        // Filter: predicate to selection vector.
        let (row_best, row_sel) = best_of(runs, || {
            let mut out: Vec<u32> = Vec::new();
            for (i, row) in shape.rows.iter().enumerate() {
                if shape.filter.eval(row, &layout).expect("filter eval") {
                    out.push(i as u32);
                }
            }
            out
        });
        let (vec_best, vec_sel) = best_of(runs, || {
            let mut sel: Vec<u32> = (0..n as u32).collect();
            vector::filter_selection(&shape.filter, &shape.batch, &layout, &mut sel)
                .expect("filter_selection");
            sel
        });
        assert_eq!(
            row_sel, vec_sel,
            "{}: filter selections diverged",
            shape.name
        );
        cells.push(KernelCell {
            kernel: "filter",
            shape: shape.name,
            rows: n,
            row_best,
            vec_best,
        });

        // Projection: column permutation (vectorized path is an Arc clone
        // per output column; the row path clones every value).
        let (row_best, row_proj) = best_of(runs, || {
            shape
                .rows
                .iter()
                .map(|row| {
                    proj_exprs
                        .iter()
                        .map(|e| e.eval(row, &layout).expect("project eval"))
                        .collect::<Vec<_>>()
                        .into_boxed_slice()
                })
                .collect::<Vec<Row>>()
        });
        let (vec_best, vec_proj) = best_of(runs, || {
            vector::project_batch(&proj_exprs, &shape.batch, &layout).expect("project_batch")
        });
        assert_eq!(
            row_proj,
            vec_proj.to_rows(),
            "{}: projections diverged",
            shape.name
        );
        cells.push(KernelCell {
            kernel: "projection",
            shape: shape.name,
            rows: n,
            row_best,
            vec_best,
        });

        // Group-by key computation: distinct-key table build, value-keyed
        // (row engine) vs normalized-byte-keyed (columnar engine).
        let (row_best, row_groups) = best_of(runs, || {
            let mut map: HashMap<Vec<Value>, u64> = HashMap::new();
            for row in &shape.rows {
                *map.entry(vec![row[1].clone()]).or_insert(0) += 1;
            }
            map
        });
        let (vec_best, vec_groups) = best_of(runs, || {
            let (mut kb, mut ko) = (Vec::new(), Vec::new());
            encode_batch_keys_arena(&shape.batch, &group_keys, &mut kb, &mut ko);
            let mut map: HashMap<Vec<u8>, u64> = HashMap::new();
            for i in 0..n {
                let key = &kb[ko[i]..ko[i + 1]];
                if let Some(c) = map.get_mut(key) {
                    *c += 1;
                } else {
                    map.insert(key.to_vec(), 1);
                }
            }
            map
        });
        // Byte keys canonicalize Int 5 == Double 5.0 exactly like Value
        // equality, so the group sets must correspond one-to-one.
        assert_eq!(
            row_groups.len(),
            vec_groups.len(),
            "{}: group cardinality diverged",
            shape.name
        );
        let mut row_counts: Vec<u64> = row_groups.values().copied().collect();
        let mut vec_counts: Vec<u64> = vec_groups.values().copied().collect();
        row_counts.sort_unstable();
        vec_counts.sort_unstable();
        assert_eq!(
            row_counts, vec_counts,
            "{}: group counts diverged",
            shape.name
        );
        cells.push(KernelCell {
            kernel: "group_key",
            shape: shape.name,
            rows: n,
            row_best,
            vec_best,
        });

        // Sort-key encoding: per-row codec vs column-at-a-time, on the
        // engine's most common sort shape (single ORDER BY column —
        // descending for two shapes so the inversion pass is measured).
        let dir = match shape.name {
            "date32" | "utf8" => Direction::Desc,
            _ => Direction::Asc,
        };
        let sort_keys: SortKeys = vec![(0, dir)];
        let (row_best, row_keys) = best_of(runs, || {
            shape
                .rows
                .iter()
                .map(|row| sortkey::encode_key(row, &sort_keys))
                .collect::<Vec<_>>()
        });
        let (vec_best, (kb, ko)) = best_of(runs, || {
            let (mut kb, mut ko) = (Vec::new(), Vec::new());
            encode_batch_keys_arena(&shape.batch, &sort_keys, &mut kb, &mut ko);
            (kb, ko)
        });
        for (i, expected) in row_keys.iter().enumerate() {
            assert_eq!(
                &kb[ko[i]..ko[i + 1]],
                &expected[..],
                "{}: key encoding diverged at row {i}",
                shape.name
            );
        }
        cells.push(KernelCell {
            kernel: "sortkey_encode",
            shape: shape.name,
            rows: n,
            row_best,
            vec_best,
        });
    }
    for c in &cells {
        println!(
            "| {:<15} | {:<12} | {:>7} | {:>12.0} | {:>12.0} | {:>6.2}x |",
            c.kernel,
            c.shape,
            c.rows,
            c.rows_per_sec(c.row_best),
            c.rows_per_sec(c.vec_best),
            c.speedup()
        );
    }
    println!();
    cells
}

/// Rows sorted per key shape in the sort-kernel microbench.
const SORT_ROWS: usize = 100_000;

struct SortCell {
    shape: &'static str,
    rows: usize,
    legacy_best: Duration,
    codec_best: Duration,
}

impl SortCell {
    fn rows_per_sec(&self, d: Duration) -> f64 {
        self.rows as f64 / d.as_secs_f64()
    }
    fn speedup(&self) -> f64 {
        self.legacy_best.as_secs_f64() / self.codec_best.as_secs_f64()
    }
}

/// One 100k-row input per key shape the codec encodes differently:
/// fixed-width single int (radix path), two-column int with a desc part,
/// doubles (NaN-free), strings, date+bool, and a mixed nullable column.
fn sort_workload(rng: &mut Rng) -> Vec<(&'static str, Vec<Row>, SortKeys)> {
    let asc = |cols: &[usize]| -> SortKeys { cols.iter().map(|&c| (c, Direction::Asc)).collect() };
    let mut shapes: Vec<(&'static str, Vec<Row>, SortKeys)> = Vec::new();

    let ints: Vec<Row> = (0..SORT_ROWS)
        .map(|_| {
            vec![
                Value::Int(rng.range_i64(-1_000_000, 1_000_000)),
                Value::Int(0),
            ]
            .into()
        })
        .collect();
    shapes.push(("int", ints, asc(&[0])));

    let pairs: Vec<Row> = (0..SORT_ROWS)
        .map(|_| {
            vec![
                Value::Int(rng.range_i64(0, 1000)),
                Value::Int(rng.range_i64(0, 1_000_000)),
            ]
            .into()
        })
        .collect();
    shapes.push((
        "int_pair_desc",
        pairs,
        vec![(0, Direction::Asc), (1, Direction::Desc)],
    ));

    let doubles: Vec<Row> = (0..SORT_ROWS)
        .map(|_| vec![Value::Double(rng.range_f64(-1e9, 1e9)), Value::Int(0)].into())
        .collect();
    shapes.push(("double", doubles, asc(&[0])));

    let strs: Vec<Row> = (0..SORT_ROWS)
        .map(|_| {
            let s = format!(
                "cust#{:08}-{:04}",
                rng.range_i64(0, 100_000),
                rng.range_i64(0, 100)
            );
            vec![Value::str(s), Value::Int(0)].into()
        })
        .collect();
    shapes.push(("str", strs, asc(&[0])));

    let datebool: Vec<Row> = (0..SORT_ROWS)
        .map(|_| {
            vec![
                Value::Date(rng.range_i32(8000, 12000)),
                Value::Bool(rng.bool()),
            ]
            .into()
        })
        .collect();
    shapes.push(("date_bool", datebool, asc(&[0, 1])));

    let mixed: Vec<Row> = (0..SORT_ROWS)
        .map(|_| {
            let v = if rng.chance(0.1) {
                Value::Null
            } else if rng.bool() {
                Value::Int(rng.range_i64(-1000, 1000))
            } else {
                Value::Double(rng.range_f64(-1000.0, 1000.0))
            };
            vec![v, Value::Int(rng.range_i64(0, 100))].into()
        })
        .collect();
    shapes.push(("mixed_nulls", mixed, asc(&[0, 1])));
    shapes
}

/// Times the interpreter's `Value`-comparator sort against the
/// executor's normalized-key sort (best of `runs` each, sorting a fresh clone every run),
/// asserting the two outputs identical.
fn run_sort_bench(runs: usize) -> Vec<SortCell> {
    let mut rng = Rng::new(0x5eed_be4c);
    let mut cells = Vec::new();
    println!("Sort-kernel microbench ({SORT_ROWS} rows/shape, best of {runs})");
    println!();
    println!("| shape          | legacy rows/s | codec rows/s | speedup |");
    println!("|----------------|---------------|--------------|---------|");
    for (shape, rows, keys) in sort_workload(&mut rng) {
        let mut best = [Duration::MAX; 2];
        let mut outputs: [Option<Vec<Row>>; 2] = [None, None];
        for _ in 0..runs {
            for (i, codec) in [false, true].into_iter().enumerate() {
                let mut input = rows.clone();
                let start = Instant::now();
                if codec {
                    input = sortkernel::sort_run_codec(input, &keys).rows;
                } else {
                    sortkernel::sort_rows(&mut input, &keys);
                }
                best[i] = best[i].min(start.elapsed());
                outputs[i] = Some(input);
            }
        }
        assert_eq!(
            outputs[0], outputs[1],
            "{shape}: codec order diverged from legacy"
        );
        let cell = SortCell {
            shape,
            rows: SORT_ROWS,
            legacy_best: best[0],
            codec_best: best[1],
        };
        println!(
            "| {:<14} | {:>13.0} | {:>12.0} | {:>6.2}x |",
            cell.shape,
            cell.rows_per_sec(cell.legacy_best),
            cell.rows_per_sec(cell.codec_best),
            cell.speedup()
        );
        cells.push(cell);
    }
    println!();
    cells
}

fn main() {
    let mut args = std::env::args().skip(1);
    let scale: f64 = parse_arg_or_exit(args.next(), "scale", 0.02);
    let runs: usize = parse_arg_or_exit(args.next(), "runs", 3);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let kernel_cells = run_columnar_bench(runs.max(1));
    let sort_cells = run_sort_bench(runs.max(1));

    let db = match tpcd_db(scale) {
        Ok(db) => db,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };

    let workload: Vec<(&str, String)> = vec![
        ("q3", queries::q3_default()),
        ("q1", queries::q1("1998-09-02")),
        ("order_report", queries::order_report()),
        (
            "orders_by_date",
            "select o_orderdate, o_orderkey, o_totalprice from orders \
             order by o_orderdate, o_orderkey"
                .to_string(),
        ),
    ];

    println!("Morsel-parallelism benchmark (scale {scale}, {runs} runs, {cores} core(s))");
    println!();
    println!("| query          | threads | best         | p50 us  | p95 us  | p99 us  | sim. pages | rows  |");
    println!("|----------------|---------|--------------|---------|---------|---------|------------|-------|");

    let mut results: Vec<(&str, Vec<Cell>)> = Vec::new();
    for (name, sql) in &workload {
        let serial_rows = Session::new(&db)
            .config(OptimizerConfig::default().with_threads(1))
            .plan(sql)
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .execute()
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .rows()
            .to_vec();
        let mut cells = Vec::new();
        for &p in DEGREES {
            let prepared = Session::new(&db)
                .config(OptimizerConfig::default().with_threads(p))
                .plan(sql)
                .unwrap_or_else(|e| panic!("{name} threads {p}: {e}"));
            // Correctness gates first: identical rows, exact rollup.
            let (out, metrics) = prepared
                .execute_instrumented()
                .unwrap_or_else(|e| panic!("{name} threads {p}: {e}"));
            assert_eq!(
                out.rows(),
                &serial_rows[..],
                "{name} threads {p}: parallel answer diverged from serial"
            );
            metrics
                .validate()
                .unwrap_or_else(|e| panic!("{name} threads {p}: rollup broken: {e}"));
            // Then time the plain execution path: best of `runs`, with
            // every run's latency observed into a histogram so the table
            // reports tail behavior, not just the flattering minimum.
            let mut latency = Histogram::new();
            let mut best = Duration::MAX;
            let mut last = None;
            for _ in 0..runs {
                let start = Instant::now();
                let out = prepared
                    .execute()
                    .unwrap_or_else(|e| panic!("{name} threads {p}: {e}"));
                let elapsed = start.elapsed();
                latency.observe(elapsed.as_micros().min(u64::MAX as u128) as u64);
                best = best.min(elapsed);
                last = Some(out);
            }
            let out = last.expect("runs >= 1");
            let snap = latency.snapshot();
            let cell = Cell {
                threads: p,
                best,
                p50_us: snap.p50,
                p95_us: snap.p95,
                p99_us: snap.p99,
                pages: out.io.sequential_pages + out.io.random_pages,
                rows: out.num_rows(),
            };
            println!(
                "| {:<14} | {:>7} | {:>10.3?} | {:>7} | {:>7} | {:>7} | {:>10} | {:>5} |",
                name,
                cell.threads,
                cell.best,
                cell.p50_us,
                cell.p95_us,
                cell.p99_us,
                cell.pages,
                cell.rows
            );
            cells.push(cell);
        }
        results.push((name, cells));
    }

    let ext_cells = run_extsort_bench(&db, runs.max(1));
    let seg_cells = run_segmented_bench(runs.max(1));
    let seg_query = run_segmented_query_bench(&db, runs.max(1));

    let json = render_json(
        scale,
        runs,
        cores,
        &kernel_cells,
        &sort_cells,
        &results,
        &ext_cells,
        &seg_cells,
        &seg_query,
    );
    std::fs::write("BENCH_PR8.json", &json).expect("write BENCH_PR8.json");
    println!();
    println!("wrote BENCH_PR8.json");
}

/// One (query, budget) cell of the external-sort benchmark. `budget` of
/// `None` is the unbounded baseline.
struct ExtCell {
    query: &'static str,
    budget: Option<usize>,
    best: Duration,
    spill_pages_written: u64,
    spill_pages_read: u64,
    runs_formed: u64,
    merge_passes: u64,
    rows: usize,
}

/// Times bounded-memory execution against the in-memory baseline on the
/// workload's sort- and group-heavy queries, asserting bit-identical rows
/// at every budget and reporting the spill traffic each budget caused.
fn run_extsort_bench(db: &fto_storage::Database, runs: usize) -> Vec<ExtCell> {
    const BUDGETS: &[Option<usize>] = &[None, Some(64 << 10), Some(4 << 10)];
    let workload: Vec<(&str, String)> = vec![
        (
            "orders_by_date",
            "select o_orderdate, o_orderkey, o_totalprice from orders \
             order by o_orderdate, o_orderkey"
                .to_string(),
        ),
        ("q1", queries::q1("1998-09-02")),
        (
            // Grouping off the index order forces the hash group-by (and
            // its partition-spill path under the small budgets).
            "lineitem_group",
            "select l_partkey, count(*) as n, sum(l_extendedprice) as total \
             from lineitem group by l_partkey order by l_partkey"
                .to_string(),
        ),
    ];
    println!("External-sort benchmark (best of {runs}; bounded vs in-memory)");
    println!();
    println!(
        "| query          | budget  | best         | spill w | spill r | runs | passes | rows  |"
    );
    println!(
        "|----------------|---------|--------------|---------|---------|------|--------|-------|"
    );
    let mut cells = Vec::new();
    for (name, sql) in &workload {
        let mut baseline: Option<Vec<Row>> = None;
        for &budget in BUDGETS {
            let mut config = OptimizerConfig::default();
            if let Some(bytes) = budget {
                config = config.with_memory_budget(bytes);
            }
            let prepared = Session::new(db)
                .config(config)
                .plan(sql)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let mut best = Duration::MAX;
            let mut last = None;
            for _ in 0..runs {
                let start = Instant::now();
                let out = prepared
                    .execute()
                    .unwrap_or_else(|e| panic!("{name} budget {budget:?}: {e}"));
                best = best.min(start.elapsed());
                last = Some(out);
            }
            let out = last.expect("runs >= 1");
            match &baseline {
                None => baseline = Some(out.rows().to_vec()),
                Some(expected) => assert_eq!(
                    out.rows(),
                    &expected[..],
                    "{name} budget {budget:?}: bounded answer diverged from unbounded"
                ),
            }
            let cell = ExtCell {
                query: name,
                budget,
                best,
                spill_pages_written: out.io.spill_pages_written,
                spill_pages_read: out.io.spill_pages_read,
                runs_formed: out.spill.runs_formed,
                merge_passes: out.spill.merge_passes,
                rows: out.num_rows(),
            };
            println!(
                "| {:<14} | {:>7} | {:>10.3?} | {:>7} | {:>7} | {:>4} | {:>6} | {:>5} |",
                cell.query,
                cell.budget
                    .map_or_else(|| "none".to_string(), |b| format!("{}K", b >> 10)),
                cell.best,
                cell.spill_pages_written,
                cell.spill_pages_read,
                cell.runs_formed,
                cell.merge_passes,
                cell.rows
            );
            cells.push(cell);
        }
    }
    println!();
    cells
}

/// Rows in the segmented-sort microbench.
const SEG_ROWS: usize = 1_000_000;

/// One group-count cell of the segmented-sort benchmark.
struct SegCell {
    groups: usize,
    rows: usize,
    full_best: Duration,
    seg_best: Duration,
}

impl SegCell {
    fn speedup(&self) -> f64 {
        self.full_best.as_secs_f64() / self.seg_best.as_secs_f64()
    }
}

/// One end-to-end cell: the clustered-prefix TPC-D query with the
/// segmented enforcer on vs off.
struct SegQueryCell {
    query: &'static str,
    full_best: Duration,
    seg_best: Duration,
    rows: usize,
}

/// Times the full two-key sort against the segmented path — boundary
/// detection on the prefix column plus per-group suffix-key sorts, the
/// same work `SegmentedSortOp` performs — on 1M rows already ordered by
/// the prefix, at increasing group counts. Both outputs must be
/// identical. The segmented path wins on two fronts: it never encodes
/// or compares the prefix (an order-id string here, the shape a
/// clustered index delivers — the full sort pays var-width key encodes
/// and long common-prefix memcmps for it), and each group sort touches
/// a working set of n/G rows with short fixed-width suffix keys.
fn run_segmented_bench(runs: usize) -> Vec<SegCell> {
    let mut rng = Rng::new(0x5e6_be4c);
    let full_keys: SortKeys = vec![(0, Direction::Asc), (1, Direction::Asc)];
    let suffix_keys: SortKeys = vec![(1, Direction::Asc)];
    let mut cells = Vec::new();
    println!("Segmented-sort microbench ({SEG_ROWS} prefix-ordered rows, best of {runs})");
    println!();
    println!("| groups  | full sort    | segmented    | speedup |");
    println!("|---------|--------------|--------------|---------|");
    for &groups in &[10usize, 1_000, 100_000] {
        let per_group = SEG_ROWS / groups;
        // Prefix-ordered input: order-id ascending, residual column
        // random — the stream shape a clustered index (or ordered join
        // output) delivers.
        let rows: Vec<Row> = (0..SEG_ROWS)
            .map(|i| {
                vec![
                    Value::str(format!("ord#{:08}", i / per_group)),
                    Value::Int(rng.range_i64(0, 1_000_000)),
                ]
                .into()
            })
            .collect();

        let (full_best, full_out) = {
            let mut best = Duration::MAX;
            let mut out = None;
            for _ in 0..runs {
                let input = rows.clone();
                let start = Instant::now();
                let sorted = sortkernel::sort_run_codec(input, &full_keys).rows;
                best = best.min(start.elapsed());
                out = Some(sorted);
            }
            (best, out.expect("runs >= 1"))
        };

        let (seg_best, seg_out) = {
            let mut best = Duration::MAX;
            let mut out = None;
            for _ in 0..runs {
                let input = rows.clone();
                let start = Instant::now();
                // Boundary scan on the prefix column (value equality —
                // what the operator does per batch on arena key bytes).
                let mut bounds = vec![0usize];
                for i in 1..input.len() {
                    if input[i][0] != input[i - 1][0] {
                        bounds.push(i);
                    }
                }
                bounds.push(input.len());
                // Per-group suffix sorts, emitted in arrival order.
                let mut sorted: Vec<Row> = Vec::with_capacity(input.len());
                let mut it = input.into_iter();
                for w in bounds.windows(2) {
                    let group: Vec<Row> = it.by_ref().take(w[1] - w[0]).collect();
                    sorted.append(&mut sortkernel::sort_run_codec(group, &suffix_keys).rows);
                }
                best = best.min(start.elapsed());
                out = Some(sorted);
            }
            (best, out.expect("runs >= 1"))
        };

        assert_eq!(
            full_out, seg_out,
            "groups={groups}: segmented order diverged from the full sort"
        );
        let cell = SegCell {
            groups,
            rows: SEG_ROWS,
            full_best,
            seg_best,
        };
        println!(
            "| {:>7} | {:>10.3?} | {:>10.3?} | {:>6.2}x |",
            cell.groups,
            cell.full_best,
            cell.seg_best,
            cell.speedup()
        );
        cells.push(cell);
    }
    println!();
    cells
}

/// The end-to-end leg: a query whose plan sorts lineitem by
/// (l_orderkey, l_shipdate) on top of the clustered (l_orderkey,
/// l_linenumber) index — the segmented enforcer sorts only l_shipdate
/// within each order's lines. Run with the enforcer on (default) and
/// off, asserting identical rows.
fn run_segmented_query_bench(db: &fto_storage::Database, runs: usize) -> SegQueryCell {
    let sql = "select l_orderkey, l_shipdate, l_extendedprice from lineitem \
               order by l_orderkey, l_shipdate";
    let mut bests = [Duration::MAX; 2];
    let mut outputs: [Option<Vec<Row>>; 2] = [None, None];
    for (i, segmented) in [false, true].into_iter().enumerate() {
        let prepared = Session::new(db)
            .config(OptimizerConfig::default().with_segmented_sort(segmented))
            .plan(sql)
            .unwrap_or_else(|e| panic!("clustered_prefix: {e}"));
        if segmented {
            assert!(
                prepared.explain().contains("segmented-sort"),
                "clustered_prefix: expected a segmented plan\n{}",
                prepared.explain()
            );
        }
        for _ in 0..runs {
            let start = Instant::now();
            let out = prepared
                .execute()
                .unwrap_or_else(|e| panic!("clustered_prefix segmented={segmented}: {e}"));
            bests[i] = bests[i].min(start.elapsed());
            outputs[i] = Some(out.rows().to_vec());
        }
    }
    assert_eq!(
        outputs[0], outputs[1],
        "clustered_prefix: segmented answer diverged from the full sort"
    );
    let cell = SegQueryCell {
        query: "lineitem_clustered_prefix",
        full_best: bests[0],
        seg_best: bests[1],
        rows: outputs[0].as_ref().map_or(0, |r| r.len()),
    };
    println!("Segmented sort end-to-end (clustered prefix, best of {runs})");
    println!();
    println!("| query                     | full sort    | segmented    | speedup | rows  |");
    println!("|---------------------------|--------------|--------------|---------|-------|");
    println!(
        "| {:<25} | {:>10.3?} | {:>10.3?} | {:>6.2}x | {:>5} |",
        cell.query,
        cell.full_best,
        cell.seg_best,
        cell.full_best.as_secs_f64() / cell.seg_best.as_secs_f64(),
        cell.rows
    );
    println!();
    cell
}

/// Parses an optional positional argument strictly: absent uses the
/// default, present-but-unparseable reports the error and exits 2.
fn parse_arg_or_exit<T: std::str::FromStr>(arg: Option<String>, what: &str, default: T) -> T
where
    T::Err: std::fmt::Display,
{
    match arg {
        None => default,
        Some(raw) => match raw.parse() {
            Ok(v) => v,
            Err(e) => {
                eprintln!("error: {what} argument {raw:?} is invalid: {e}");
                std::process::exit(2);
            }
        },
    }
}

/// Hand-rolled JSON writer — the workspace is offline and carries no
/// serde dependency; the schema is flat enough to emit directly.
#[allow(clippy::too_many_arguments)]
fn render_json(
    scale: f64,
    runs: usize,
    cores: usize,
    kernel_cells: &[KernelCell],
    sort_cells: &[SortCell],
    results: &[(&str, Vec<Cell>)],
    ext_cells: &[ExtCell],
    seg_cells: &[SegCell],
    seg_query: &SegQueryCell,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(
        s,
        "  \"bench\": \"columnar_kernels_sort_codec_morsel_extsort_segmented\","
    );
    let _ = writeln!(s, "  \"scale\": {scale},");
    let _ = writeln!(s, "  \"runs\": {runs},");
    let _ = writeln!(s, "  \"cores\": {cores},");
    s.push_str("  \"columnar_kernels\": [\n");
    for (i, c) in kernel_cells.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"kernel\": \"{}\", \"shape\": \"{}\", \"rows\": {}, \
             \"row_rows_per_sec\": {:.0}, \"vec_rows_per_sec\": {:.0}, \"speedup\": {:.3}}}",
            c.kernel,
            c.shape,
            c.rows,
            c.rows_per_sec(c.row_best),
            c.rows_per_sec(c.vec_best),
            c.speedup()
        );
        s.push_str(if i + 1 < kernel_cells.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    s.push_str("  ],\n");
    s.push_str("  \"sort_kernel\": [\n");
    for (i, c) in sort_cells.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"shape\": \"{}\", \"rows\": {}, \"legacy_rows_per_sec\": {:.0}, \
             \"codec_rows_per_sec\": {:.0}, \"speedup\": {:.3}}}",
            c.shape,
            c.rows,
            c.rows_per_sec(c.legacy_best),
            c.rows_per_sec(c.codec_best),
            c.speedup()
        );
        s.push_str(if i + 1 < sort_cells.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    s.push_str("  ],\n");
    s.push_str("  \"queries\": [\n");
    for (qi, (name, cells)) in results.iter().enumerate() {
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"name\": \"{name}\",");
        s.push_str("      \"cells\": [\n");
        for (ci, c) in cells.iter().enumerate() {
            let _ = write!(
                s,
                "        {{\"threads\": {}, \"best_ms\": {:.3}, \"p50_us\": {}, \
                 \"p95_us\": {}, \"p99_us\": {}, \"pages\": {}, \"rows\": {}}}",
                c.threads,
                c.best.as_secs_f64() * 1e3,
                c.p50_us,
                c.p95_us,
                c.p99_us,
                c.pages,
                c.rows
            );
            s.push_str(if ci + 1 < cells.len() { ",\n" } else { "\n" });
        }
        s.push_str("      ]\n");
        s.push_str(if qi + 1 < results.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    s.push_str("  ],\n");
    s.push_str("  \"external_sort\": [\n");
    for (i, c) in ext_cells.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"query\": \"{}\", \"budget_bytes\": {}, \"best_ms\": {:.3}, \
             \"spill_pages_written\": {}, \"spill_pages_read\": {}, \
             \"runs_formed\": {}, \"merge_passes\": {}, \"rows\": {}}}",
            c.query,
            c.budget
                .map_or_else(|| "null".to_string(), |b| b.to_string()),
            c.best.as_secs_f64() * 1e3,
            c.spill_pages_written,
            c.spill_pages_read,
            c.runs_formed,
            c.merge_passes,
            c.rows
        );
        s.push_str(if i + 1 < ext_cells.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    s.push_str("  \"segmented_sort\": [\n");
    for (i, c) in seg_cells.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"groups\": {}, \"rows\": {}, \"full_ms\": {:.3}, \
             \"segmented_ms\": {:.3}, \"speedup\": {:.3}}}",
            c.groups,
            c.rows,
            c.full_best.as_secs_f64() * 1e3,
            c.seg_best.as_secs_f64() * 1e3,
            c.speedup()
        );
        s.push_str(if i + 1 < seg_cells.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    let _ = writeln!(
        s,
        "  \"segmented_sort_query\": {{\"query\": \"{}\", \"full_ms\": {:.3}, \
         \"segmented_ms\": {:.3}, \"speedup\": {:.3}, \"rows\": {}}}",
        seg_query.query,
        seg_query.full_best.as_secs_f64() * 1e3,
        seg_query.seg_best.as_secs_f64() * 1e3,
        seg_query.full_best.as_secs_f64() / seg_query.seg_best.as_secs_f64(),
        seg_query.rows
    );
    s.push_str("}\n");
    s
}
