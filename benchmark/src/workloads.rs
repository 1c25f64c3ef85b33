//! The four workloads, their statement templates, and the seeded
//! statement generator. The engine only ever sees the generated SQL text.

use fto_common::Rng;
use fto_tpcd::queries;

/// Parameterisations generated per template of the data workloads: the
/// constants pick the rows a statement touches, so they move its latency.
pub const PARAMS: usize = 8;
/// Parameterisations per template of `compile_heavy`. There the constants
/// move nothing (the same join graph is enumerated whatever the date, and
/// planning is ~97 % of latency: over 15 executions the eight statements of
/// a template were within 5 % of each other), while a round costs 1.1–1.7 s,
/// 800 ms of it `j5`. With eight, a run's window held 2–3 executions of
/// each statement, too few for a fastest-of-N to get out of the sandbox's
/// slow spells; with two it holds ten.
pub const COMPILE_PARAMS: usize = 2;
/// Templates per workload, equally weighted and run round-robin, so the
/// pooled median sits inside the median template and the 90th percentile
/// inside the slowest one instead of on a boundary between two.
pub const TEMPLATES: usize = 5;

/// Scale of the three data-heavy workloads (~120 k lineitems).
pub const DATA_SCALE: f64 = 0.02;
/// Scale of `compile_heavy` and of every workload under `--quick`.
pub const TINY_SCALE: f64 = 0.002;
/// The bounded workload's executor budget; the database is ~3 orders of
/// magnitude larger, so sorts, hash tables and the buffer pool all spill.
pub const BOUNDED_BUDGET: usize = 64 << 10;

/// One output column of an `ORDER BY`: position in the select list and
/// direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OrderKey {
    pub column: usize,
    pub descending: bool,
}

const fn asc(column: usize) -> OrderKey {
    OrderKey {
        column,
        descending: false,
    }
}

const fn desc(column: usize) -> OrderKey {
    OrderKey {
        column,
        descending: true,
    }
}

pub struct Template {
    pub name: &'static str,
    /// The ORDER BY the answer check holds consecutive rows to.
    pub order_by: &'static [OrderKey],
    sql: fn(&mut Draw) -> String,
}

pub struct Workload {
    pub name: &'static str,
    /// One line for BENCHMARK.json; the README has the long form.
    pub why: &'static str,
    pub scale: f64,
    pub memory_budget: Option<usize>,
    /// Parameterisations generated per template: a pass is this many rounds.
    pub params: usize,
    /// Database builds per run, spread across the timed window; `setup_s`
    /// is the fastest. The tiny database builds in ~13 ms, so it affords
    /// more of them.
    pub setup_reps: usize,
    pub templates: [&'static Template; TEMPLATES],
}

/// One generated statement.
#[derive(Clone, Debug, PartialEq)]
pub struct Statement {
    pub template: &'static str,
    pub order_by: &'static [OrderKey],
    pub sql: String,
}

/// Draws one parameterisation's constants. Every range is cut into
/// [`PARAMS`] equal strata and a parameterisation draws from one stratum
/// only: each seed gives different constants, but the statements of a
/// template always cover the range the same way, so the work a pass does
/// barely depends on the seed.
pub struct Draw<'a> {
    rng: &'a mut Rng,
    stratum: usize,
    rotation: usize,
}

impl Draw<'_> {
    fn int(&mut self, lo: i64, hi: i64) -> i64 {
        let width = ((hi - lo) / PARAMS as i64).max(1);
        let base = lo + self.stratum as i64 * width;
        self.rng.range_i64(base, base + width)
    }

    fn date(&mut self, lo: i64, hi: i64) -> String {
        civil_from_days(self.int(lo, hi))
    }

    /// Cycles through `items`, starting at a seed-drawn position.
    fn pick<'i>(&self, items: &[&'i str]) -> &'i str {
        items[(self.stratum + self.rotation) % items.len()]
    }
}

/// Days since 1970-01-01 of a proleptic Gregorian date (Hinnant's
/// `days_from_civil`).
pub const fn days_from_civil(y: i64, m: i64, d: i64) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let mp = (m + 9) % 12;
    let doy = (153 * mp + 2) / 5 + d - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe - 719_468
}

/// `YYYY-MM-DD` of a day number (inverse of [`days_from_civil`]).
pub fn civil_from_days(z: i64) -> String {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}

const SEGMENTS: [&str; 5] = [
    "automobile",
    "building",
    "furniture",
    "machinery",
    "household",
];

// The generator's order dates run 1992-01-01 .. 1998-03-05 and ship dates
// follow by 1..121 days; the ranges below sit inside that window.
use days_from_civil as ymd;

static Q3: Template = Template {
    name: "q3",
    order_by: &[desc(1), asc(2)],
    sql: |d| {
        let date = d.date(ymd(1995, 1, 1), ymd(1995, 6, 30));
        queries::q3(&date, d.pick(&SEGMENTS))
    },
};

static ORDER_REPORT: Template = Template {
    name: "order_report",
    order_by: &[asc(0)],
    sql: |d| {
        format!(
            "select o_orderkey, o_orderdate, o_totalprice, c_name \
             from customer, orders \
             where c_custkey = o_custkey and o_orderdate >= date('{}') \
             group by o_orderkey, o_orderdate, o_totalprice, c_name \
             order by o_orderkey",
            d.date(ymd(1992, 1, 1), ymd(1992, 9, 1))
        )
    },
};

static FIG6: Template = Template {
    name: "fig6",
    order_by: &[asc(1)],
    sql: |d| {
        format!(
            "select c_name, o_orderkey, o_orderdate, sum(l_extendedprice) as total \
             from customer, orders, lineitem \
             where c_custkey = o_custkey and o_orderkey = l_orderkey \
             and o_orderdate < date('{}') \
             group by c_name, o_orderkey, o_orderdate \
             order by o_orderkey",
            d.date(ymd(1995, 1, 1), ymd(1995, 9, 1))
        )
    },
};

static J4: Template = Template {
    name: "j4",
    order_by: &[asc(0), asc(1)],
    sql: |d| {
        format!(
            "select n_name, c_name, o_orderkey, sum(l_extendedprice) as total \
             from customer, orders, lineitem, nation \
             where c_custkey = o_custkey and o_orderkey = l_orderkey \
             and c_nationkey = n_nationkey and o_orderdate < date('{}') \
             group by n_name, c_name, o_orderkey \
             order by n_name, c_name",
            d.date(ymd(1995, 1, 1), ymd(1995, 9, 1))
        )
    },
};

static J5: Template = Template {
    name: "j5",
    order_by: &[asc(0), asc(1)],
    sql: |d| {
        format!(
            "select n_name, s_name, c_name, sum(l_extendedprice) as total \
             from customer, orders, lineitem, nation, supplier \
             where c_custkey = o_custkey and o_orderkey = l_orderkey \
             and c_nationkey = n_nationkey and l_suppkey = s_suppkey \
             and o_orderdate < date('{}') \
             group by n_name, s_name, c_name \
             order by n_name, s_name",
            d.date(ymd(1995, 1, 1), ymd(1995, 9, 1))
        )
    },
};

static Q1: Template = Template {
    name: "q1",
    order_by: &[asc(0), asc(1)],
    sql: |d| queries::q1(&d.date(ymd(1997, 9, 1), ymd(1998, 9, 1))),
};

static Q6: Template = Template {
    name: "q6",
    order_by: &[],
    sql: |d| {
        let from = d.int(ymd(1993, 1, 1), ymd(1996, 1, 1));
        let discount = d.int(2, 10);
        format!(
            "select sum(l_extendedprice * l_discount) as revenue from lineitem \
             where l_shipdate >= date('{}') and l_shipdate < date('{}') \
             and l_discount >= {:.2} and l_discount <= {:.2} and l_quantity < {}",
            civil_from_days(from),
            civil_from_days(from + 365),
            (discount - 1) as f64 / 100.0,
            (discount + 1) as f64 / 100.0,
            d.int(24, 32)
        )
    },
};

static AGG_BY_SUPP: Template = Template {
    name: "agg_by_supp",
    order_by: &[],
    sql: |d| {
        format!(
            "select l_suppkey, sum(l_quantity) as qty, count(*) as n from lineitem \
             where l_shipdate <= date('{}') group by l_suppkey",
            d.date(ymd(1996, 1, 1), ymd(1998, 1, 1))
        )
    },
};

static AGG_BY_PART: Template = Template {
    name: "agg_by_part",
    order_by: &[],
    sql: |d| {
        format!(
            "select l_partkey, sum(l_extendedprice) as total, count(*) as n from lineitem \
             where l_shipdate <= date('{}') group by l_partkey",
            d.date(ymd(1996, 1, 1), ymd(1998, 1, 1))
        )
    },
};

static PROJ_ARITH: Template = Template {
    name: "proj_arith",
    order_by: &[],
    sql: |d| {
        format!(
            "select l_orderkey, l_linenumber, l_extendedprice * (1 - l_discount) as net, \
             l_quantity * 2 as q2 from lineitem where l_shipdate > date('{}')",
            d.date(ymd(1996, 6, 1), ymd(1997, 6, 1))
        )
    },
};

static SECTION6: Template = Template {
    name: "section6",
    order_by: &[asc(0)],
    sql: |d| {
        format!(
            "select o_orderkey, o_orderdate, sum(l_extendedprice) \
             from orders, lineitem \
             where o_orderkey = l_orderkey and o_orderdate >= date('{}') \
             group by o_orderkey, o_orderdate \
             order by o_orderkey",
            d.date(ymd(1992, 1, 1), ymd(1992, 9, 1))
        )
    },
};

static ORDERS_BY_DATE: Template = Template {
    name: "orders_by_date",
    order_by: &[asc(1), asc(0)],
    sql: |d| {
        format!(
            "select o_orderkey, o_orderdate, o_totalprice from orders \
             where o_totalprice > {} order by o_orderdate, o_orderkey",
            d.int(1_000, 9_000)
        )
    },
};

static SEG_SORT: Template = Template {
    name: "seg_sort",
    order_by: &[asc(0), asc(1)],
    sql: |d| {
        format!(
            "select l_orderkey, l_extendedprice, l_quantity from lineitem \
             where l_shipdate <= date('{}') order by l_orderkey, l_extendedprice",
            d.date(ymd(1996, 1, 1), ymd(1998, 1, 1))
        )
    },
};

static TOPN: Template = Template {
    name: "topn",
    // o_orderkey breaks price ties, so the rows at the cut are the same
    // under every plan.
    order_by: &[desc(1), asc(0)],
    sql: |d| {
        let date = d.date(ymd(1996, 1, 1), ymd(1998, 1, 1));
        format!(
            "select o_orderkey, o_totalprice, o_orderdate from orders \
             where o_orderdate < date('{date}') \
             order by o_totalprice desc, o_orderkey limit {}",
            d.int(50, 450)
        )
    },
};

static AGG_BY_CUST: Template = Template {
    name: "agg_by_cust",
    order_by: &[],
    sql: |d| {
        format!(
            "select o_custkey, sum(o_totalprice) as total, count(*) as n from orders \
             where o_orderdate < date('{}') group by o_custkey",
            d.date(ymd(1996, 1, 1), ymd(1998, 1, 1))
        )
    },
};

pub static WORKLOADS: [Workload; 4] = [
    Workload {
        name: "compile_heavy",
        why: "tiny database, 3- to 5-table joins: planning is over 90 % of latency, \
              so only planner, order-scan and order-algebra changes can move it",
        scale: TINY_SCALE,
        memory_budget: None,
        params: COMPILE_PARAMS,
        setup_reps: 25,
        templates: [&Q3, &ORDER_REPORT, &FIG6, &J4, &J5],
    },
    Workload {
        name: "scan_agg",
        why: "single-table scan, filter, project and hash group-by with under 1 % planning: \
              the bypass workload for every planner and order-enforcer change",
        scale: DATA_SCALE,
        memory_budget: None,
        params: PARAMS,
        setup_reps: 10,
        templates: [&Q1, &Q6, &AGG_BY_SUPP, &AGG_BY_PART, &PROJ_ARITH],
    },
    Workload {
        name: "order_pipeline",
        why: "the paper's traffic in memory: sort-ahead, ordered joins, stream group-by, \
              and the sort, segmented-sort and top-n enforcers",
        scale: DATA_SCALE,
        memory_budget: None,
        params: PARAMS,
        setup_reps: 10,
        templates: [&Q3, &SECTION6, &ORDERS_BY_DATE, &SEG_SORT, &TOPN],
    },
    Workload {
        name: "bounded_memory",
        why: "the same operators under a 64 KiB budget on a database far larger: \
              external sort runs, spilled hash tables and buffer-pool eviction",
        scale: DATA_SCALE,
        memory_budget: Some(BOUNDED_BUDGET),
        params: PARAMS,
        setup_reps: 10,
        templates: [&Q3, &ORDER_REPORT, &ORDERS_BY_DATE, &AGG_BY_CUST, &SEG_SORT],
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Every template name used by any workload, in first-use order.
pub fn template_names() -> Vec<&'static str> {
    let mut names = Vec::new();
    for t in WORKLOADS.iter().flat_map(|w| w.templates) {
        if !names.contains(&t.name) {
            names.push(t.name);
        }
    }
    names
}

/// The workload's statement list for `seed`: `params` rounds of one
/// statement per template, in the order every pass runs them.
pub fn generate(workload: &Workload, seed: u64) -> Vec<Statement> {
    let params = workload.params;
    let mut rng = Rng::new(seed);
    let per_template: Vec<Vec<Statement>> = workload
        .templates
        .iter()
        .map(|t| {
            // Parameterisation k of n owns the stratum at the middle of
            // the k-th n-th of the range (all eight of eight, 2 and 6 of
            // two); which round gets which is itself drawn from the seed.
            let mut strata: Vec<usize> = (0..params)
                .map(|k| (2 * k + 1) * PARAMS / (2 * params))
                .collect();
            for i in (1..params).rev() {
                strata.swap(i, rng.range_usize(0, i + 1));
            }
            let rotation = rng.range_usize(0, PARAMS);
            strata
                .into_iter()
                .map(|stratum| Statement {
                    template: t.name,
                    order_by: t.order_by,
                    sql: (t.sql)(&mut Draw {
                        rng: &mut rng,
                        stratum,
                        rotation,
                    }),
                })
                .collect()
        })
        .collect();
    (0..params)
        .flat_map(|round| per_template.iter().map(move |t| t[round].clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_a_byte_identical_statement_list() {
        for w in &WORKLOADS {
            assert_eq!(generate(w, 42), generate(w, 42), "{}", w.name);
        }
    }

    #[test]
    fn another_seed_gives_other_constants_for_every_template() {
        for w in &WORKLOADS {
            let (a, b) = (generate(w, 1), generate(w, 2));
            for t in w.templates {
                let of = |list: &[Statement]| -> Vec<String> {
                    list.iter()
                        .filter(|s| s.template == t.name)
                        .map(|s| s.sql.clone())
                        .collect()
                };
                assert_ne!(of(&a), of(&b), "{}/{}", w.name, t.name);
            }
        }
    }

    #[test]
    fn always_five_templates_times_the_workloads_parameterisations_round_robin() {
        for w in &WORKLOADS {
            let list = generate(w, 7);
            let params = if w.name == "compile_heavy" { 2 } else { 8 };
            assert_eq!(list.len(), TEMPLATES * params);
            for (i, s) in list.iter().enumerate() {
                assert_eq!(s.template, w.templates[i % TEMPLATES].name);
            }
            for t in w.templates {
                let mut texts: Vec<&str> = list
                    .iter()
                    .filter(|s| s.template == t.name)
                    .map(|s| s.sql.as_str())
                    .collect();
                texts.sort_unstable();
                texts.dedup();
                assert_eq!(texts.len(), params, "{}/{} repeats a text", w.name, t.name);
            }
        }
        assert_eq!(template_names().len(), 15);
    }

    #[test]
    fn each_parameterisation_draws_from_its_own_stratum() {
        let mut rng = Rng::new(3);
        for stratum in 0..PARAMS {
            let mut d = Draw {
                rng: &mut rng,
                stratum,
                rotation: 0,
            };
            let v = d.int(100, 900);
            let lo = 100 + 100 * stratum as i64;
            assert!((lo..lo + 100).contains(&v), "stratum {stratum}: {v}");
        }
    }

    #[test]
    fn dates_convert_both_ways() {
        assert_eq!(days_from_civil(1970, 1, 1), 0);
        assert_eq!(days_from_civil(1992, 1, 1), 8035);
        assert_eq!(civil_from_days(8035), "1992-01-01");
        assert_eq!(civil_from_days(9204), "1995-03-15");
        assert_eq!(civil_from_days(days_from_civil(1996, 2, 29)), "1996-02-29");
        assert_eq!(civil_from_days(days_from_civil(1998, 12, 31)), "1998-12-31");
    }
}
