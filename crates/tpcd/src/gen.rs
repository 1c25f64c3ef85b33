//! The deterministic data generator.

use crate::schema::create_schema;
use fto_common::{Result, Rng, Row, Value};
use fto_storage::Database;

/// Days-since-epoch bounds of the TPC-D order-date window (1992-01-01 to
/// 1998-08-02, as in the specification).
pub const DATE_LO: i32 = 8035;
/// Upper bound of the order-date window.
pub const DATE_HI: i32 = 10440;

/// The five TPC-D market segments.
pub const SEGMENTS: [&str; 5] = [
    "automobile",
    "building",
    "furniture",
    "machinery",
    "household",
];

/// Generator configuration.
#[derive(Clone, Copy, Debug)]
pub struct TpcdConfig {
    /// Scale factor: 1.0 ≈ the paper's 1 GB database. The default 0.02
    /// generates ~120k lineitems — laptop-scale but large enough for the
    /// Table 1 shape to show.
    pub scale: f64,
    /// RNG seed; the same seed always yields the same database.
    pub seed: u64,
}

impl Default for TpcdConfig {
    fn default() -> Self {
        TpcdConfig {
            scale: 0.02,
            seed: 0x05ee_df70,
        }
    }
}

impl TpcdConfig {
    /// Row counts at this scale (TPC-D base cardinalities × scale).
    pub fn cardinalities(&self) -> Cardinalities {
        let s = self.scale.max(1e-4);
        Cardinalities {
            customers: ((150_000.0 * s) as i64).max(10),
            orders: ((1_500_000.0 * s) as i64).max(100),
            parts: ((200_000.0 * s) as i64).max(10),
            suppliers: ((10_000.0 * s) as i64).max(5),
        }
    }
}

/// Derived row counts.
#[derive(Clone, Copy, Debug)]
pub struct Cardinalities {
    /// customer rows.
    pub customers: i64,
    /// orders rows (lineitems are ~4× this).
    pub orders: i64,
    /// part rows.
    pub parts: i64,
    /// supplier rows.
    pub suppliers: i64,
}

/// Builds and loads the full database at the configured scale. Every
/// row goes straight from the generator into its table's loader, so no
/// table's rows are ever held as rows.
pub fn build_database(cfg: TpcdConfig) -> Result<Database> {
    let cat = create_schema()?;
    let mut db = Database::new(cat);
    let mut rng = Rng::new(cfg.seed);
    let n = cfg.cardinalities();

    // region / nation: fixed small dimensions.
    let region_names = ["africa", "america", "asia", "europe", "middle east"];
    let regions = region_names
        .iter()
        .enumerate()
        .map(|(i, name)| row(vec![Value::Int(i as i64), Value::str(*name)]));
    load(&mut db, "region", regions)?;

    let nations = (0..25).map(|i| {
        row(vec![
            Value::Int(i),
            Value::Int(i % 5),
            Value::str(format!("nation{i:02}")),
        ])
    });
    load(&mut db, "nation", nations)?;

    let suppliers = (0..n.suppliers).map(|i| {
        row(vec![
            Value::Int(i),
            Value::Int(rng.range_i64(0, 25)),
            Value::str(format!("supplier{i}")),
            Value::Double(round2(rng.range_f64(-999.0, 9999.0))),
        ])
    });
    load(&mut db, "supplier", suppliers)?;

    let customers = (0..n.customers).map(|i| {
        row(vec![
            Value::Int(i),
            Value::str(format!("customer{i}")),
            Value::str(SEGMENTS[rng.range_usize(0, SEGMENTS.len())]),
            Value::Int(rng.range_i64(0, 25)),
            Value::Double(round2(rng.range_f64(-999.0, 9999.0))),
        ])
    });
    load(&mut db, "customer", customers)?;

    let parts = (0..n.parts).map(|i| {
        row(vec![
            Value::Int(i),
            Value::str(format!("part{i}")),
            Value::str(format!("brand#{}", rng.range_i64(10, 60))),
            Value::Double(round2(rng.range_f64(900.0, 2000.0))),
        ])
    });
    load(&mut db, "part", parts)?;

    // orders + lineitem, correlated as in dbgen: each order has 1..7
    // lineitems whose ship dates follow the order date.
    let mut orders = db.loader(db.catalog().table_by_name("orders")?.id)?;
    let mut lineitems = db.loader(db.catalog().table_by_name("lineitem")?.id)?;
    let flags = ["a", "n", "r"];
    let statuses = ["f", "o"];
    for okey in 0..n.orders {
        let custkey = rng.range_i64(0, n.customers);
        let orderdate = rng.range_i32(DATE_LO, DATE_HI - 150);
        let nlines = rng.range_incl_i64(1, 7);
        let mut total = 0.0;
        for line in 0..nlines {
            let qty = rng.range_incl_i64(1, 50) as f64;
            let price = round2(qty * rng.range_f64(900.0, 2000.0) / 10.0);
            let discount = (rng.range_incl_i64(0, 10) as f64) / 100.0;
            let shipdate = orderdate + rng.range_incl_i64(1, 121) as i32;
            total += price * (1.0 - discount);
            lineitems.push(row(vec![
                Value::Int(okey),
                Value::Int(line),
                Value::Int(rng.range_i64(0, n.parts)),
                Value::Int(rng.range_i64(0, n.suppliers)),
                Value::Double(qty),
                Value::Double(price),
                Value::Double(discount),
                Value::Date(shipdate),
                Value::str(*rng.pick(&flags)),
                Value::str(*rng.pick(&statuses)),
            ]))?;
        }
        orders.push(row(vec![
            Value::Int(okey),
            Value::Int(custkey),
            Value::Date(orderdate),
            Value::Int(rng.range_i64(0, 3)),
            Value::Double(round2(total)),
        ]))?;
    }
    db.finish_load(orders)?;
    db.finish_load(lineitems)?;

    Ok(db)
}

fn load(db: &mut Database, table: &str, rows: impl Iterator<Item = Row>) -> Result<()> {
    let mut loader = db.loader(db.catalog().table_by_name(table)?.id)?;
    for row in rows {
        loader.push(row)?;
    }
    db.finish_load(loader)
}

fn row(values: Vec<Value>) -> Row {
    values.into_boxed_slice()
}

fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_at_tiny_scale() {
        let db = build_database(TpcdConfig {
            scale: 0.001,
            seed: 1,
        })
        .unwrap();
        let cat = db.catalog();
        let orders = cat.table_by_name("orders").unwrap().id;
        let lineitem = cat.table_by_name("lineitem").unwrap().id;
        let o = cat.stats(orders).row_count;
        let l = cat.stats(lineitem).row_count;
        assert!(o >= 100);
        // ~4 lineitems per order on average (1..=7 uniform).
        let ratio = l as f64 / o as f64;
        assert!((3.0..5.0).contains(&ratio), "{ratio}");
    }

    #[test]
    fn deterministic_for_same_seed() {
        let cfg = TpcdConfig {
            scale: 0.001,
            seed: 42,
        };
        let a = build_database(cfg).unwrap();
        let b = build_database(cfg).unwrap();
        let ta = a.catalog().table_by_name("lineitem").unwrap().id;
        let tb = b.catalog().table_by_name("lineitem").unwrap().id;
        assert_eq!(a.heap(ta).unwrap().to_rows(), b.heap(tb).unwrap().to_rows());
    }

    #[test]
    fn lineitem_heap_is_clustered_by_orderkey() {
        let db = build_database(TpcdConfig {
            scale: 0.001,
            seed: 7,
        })
        .unwrap();
        let li = db.catalog().table_by_name("lineitem").unwrap().id;
        let heap = db.heap(li).unwrap();
        let mut last = i64::MIN;
        for r in heap.to_rows() {
            let k = r[0].as_int().unwrap();
            assert!(k >= last);
            last = k;
        }
    }

    #[test]
    fn shipdate_follows_orderdate() {
        let db = build_database(TpcdConfig {
            scale: 0.001,
            seed: 7,
        })
        .unwrap();
        let cat = db.catalog();
        let orders = db.heap(cat.table_by_name("orders").unwrap().id).unwrap();
        let li = db.heap(cat.table_by_name("lineitem").unwrap().id).unwrap();
        let odates: std::collections::HashMap<i64, i32> = orders
            .to_rows()
            .iter()
            .map(|r| (r[0].as_int().unwrap(), r[2].as_date().unwrap()))
            .collect();
        for r in li.to_rows().iter().take(500) {
            let ok = r[0].as_int().unwrap();
            let ship = r[7].as_date().unwrap();
            let odate = odates[&ok];
            assert!(ship > odate && ship <= odate + 121);
        }
    }

    #[test]
    fn segments_are_spread() {
        let db = build_database(TpcdConfig {
            scale: 0.002,
            seed: 9,
        })
        .unwrap();
        let cust = db
            .heap(db.catalog().table_by_name("customer").unwrap().id)
            .unwrap();
        let building = cust
            .to_rows()
            .iter()
            .filter(|r| r[2].as_str() == Some("building"))
            .count();
        let frac = building as f64 / cust.row_count() as f64;
        assert!((0.1..0.35).contains(&frac), "{frac}");
    }

    #[test]
    fn cardinalities_scale() {
        let c = TpcdConfig {
            scale: 0.1,
            seed: 0,
        }
        .cardinalities();
        assert_eq!(c.customers, 15_000);
        assert_eq!(c.orders, 150_000);
        assert_eq!(c.suppliers, 1_000);
    }
}
