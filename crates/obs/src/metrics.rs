//! The metrics registry: named counters and log-linear-bucket
//! histograms behind one mutex, with a deterministic text exposition.
//!
//! Counters are exact `u64` sums — the session layer feeds the executor's
//! integer page/row totals straight in, so registry totals reconcile
//! *exactly* (not approximately) with `IoStats`/`PlanMetrics`. Histogram
//! quantiles are bucket upper bounds: with 8 linear sub-buckets per
//! power of two, the relative error of a reported quantile is below
//! 12.5%.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

/// Sub-buckets per power-of-two range (`2^k .. 2^{k+1}` is split into 8
/// equal-width buckets).
const SUB_BUCKETS: u64 = 8;
/// Values below `2^LINEAR_BITS` get one bucket each.
const LINEAR_BITS: u32 = 3;
/// Total bucket count covering the full `u64` range (one group per
/// exponent `LINEAR_BITS..=63`).
const BUCKETS: usize = (SUB_BUCKETS as usize) + (64 - LINEAR_BITS as usize) * 8;

/// A log-linear-bucket histogram over `u64` samples.
///
/// Usable standalone (e.g. by benchmark harnesses) or inside a
/// [`Registry`].
#[derive(Clone, Debug)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: Vec<u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// The bucket index a value lands in.
fn bucket_index(v: u64) -> usize {
    if v < (1 << LINEAR_BITS) {
        return v as usize;
    }
    let p = 63 - v.leading_zeros(); // floor(log2 v), >= LINEAR_BITS
    let group = (p - LINEAR_BITS) as usize;
    let sub = ((v >> (p - LINEAR_BITS)) - SUB_BUCKETS) as usize;
    (1 << LINEAR_BITS) + group * SUB_BUCKETS as usize + sub
}

/// The largest value contained in bucket `idx` (inclusive).
fn bucket_upper(idx: usize) -> u64 {
    if idx < (1 << LINEAR_BITS) {
        return idx as u64;
    }
    let rel = idx - (1 << LINEAR_BITS);
    let group = (rel / SUB_BUCKETS as usize) as u32;
    let sub = (rel % SUB_BUCKETS as usize) as u64;
    let p = group + LINEAR_BITS;
    let width = 1u64 << (p - LINEAR_BITS);
    // Summed in this order to avoid overflow in the topmost bucket.
    (1u64 << p) + sub * width + (width - 1)
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: vec![0; BUCKETS],
        }
    }

    /// Records one sample.
    pub fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket_index(v)] += 1;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value at quantile `q` in `[0, 1]`, reported as the upper bound
    /// of the bucket holding the rank-`⌈q·n⌉` sample (clamped to the
    /// observed min/max). Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= target {
                return bucket_upper(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// A point-in-time copy of the derived statistics.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            min: self.min(),
            max: self.max(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

/// Derived statistics of one histogram at snapshot time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Exact sum of samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Median (bucket upper bound).
    pub p50: u64,
    /// 95th percentile (bucket upper bound).
    pub p95: u64,
    /// 99th percentile (bucket upper bound).
    pub p99: u64,
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

/// A process-wide metrics registry. Cheap to share behind an `Arc`;
/// every operation takes one short-lived mutex.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Adds `delta` to the named counter (creating it at 0).
    pub fn add(&self, name: &str, delta: u64) {
        let mut inner = self.inner.lock().expect("registry poisoned");
        *inner.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Adds 1 to the named counter.
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// Records one sample into the named histogram (creating it empty).
    pub fn observe(&self, name: &str, value: u64) {
        let mut inner = self.inner.lock().expect("registry poisoned");
        inner
            .histograms
            .entry(name.to_string())
            .or_default()
            .observe(value);
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        let inner = self.inner.lock().expect("registry poisoned");
        inner.counters.get(name).copied().unwrap_or(0)
    }

    /// Snapshot of a histogram, if it exists.
    pub fn histogram(&self, name: &str) -> Option<HistogramSnapshot> {
        let inner = self.inner.lock().expect("registry poisoned");
        inner.histograms.get(name).map(Histogram::snapshot)
    }

    /// Deterministic text exposition: one line per metric, sorted by
    /// kind then name.
    pub fn expose(&self) -> String {
        let inner = self.inner.lock().expect("registry poisoned");
        let mut out = String::new();
        for (name, v) in &inner.counters {
            let _ = writeln!(out, "counter {name} {v}");
        }
        for (name, h) in &inner.histograms {
            let s = h.snapshot();
            let _ = writeln!(
                out,
                "histogram {name} count={} sum={} min={} max={} p50={} p95={} p99={}",
                s.count, s.sum, s.min, s.max, s.p50, s.p95, s.p99
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_continuous_and_monotonic() {
        // Every value maps to a bucket whose upper bound is >= the value,
        // and indices never decrease as values grow.
        let mut prev_idx = 0usize;
        for v in 0u64..4096 {
            let idx = bucket_index(v);
            assert!(idx >= prev_idx, "index regressed at {v}");
            assert!(bucket_upper(idx) >= v, "upper({idx}) < {v}");
            if idx > 0 {
                assert!(bucket_upper(idx - 1) < v, "value {v} fits earlier bucket");
            }
            prev_idx = idx;
        }
        // Spot-check huge values don't panic and stay in range.
        for v in [u64::MAX, u64::MAX / 3, 1 << 60] {
            let idx = bucket_index(v);
            assert!(idx < BUCKETS);
            assert!(bucket_upper(idx) >= v);
        }
    }

    #[test]
    fn quantiles_bound_relative_error() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        for (q, exact) in [(0.5, 500u64), (0.95, 950), (0.99, 990)] {
            let got = h.quantile(q);
            assert!(got >= exact, "q{q}: {got} < exact {exact}");
            assert!(
                (got as f64) <= exact as f64 * 1.125 + 1.0,
                "q{q}: {got} too far above {exact}"
            );
        }
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::new();
        let s = h.snapshot();
        assert_eq!(s, HistogramSnapshot::default());
    }

    #[test]
    fn registry_counters_are_exact_and_exposition_is_sorted() {
        let r = Registry::new();
        r.add("b.pages", 7);
        r.inc("a.queries");
        r.inc("a.queries");
        r.observe("latency_us", 100);
        r.observe("latency_us", 300);
        assert_eq!(r.counter("a.queries"), 2);
        assert_eq!(r.counter("b.pages"), 7);
        assert_eq!(r.counter("missing"), 0);
        let h = r.histogram("latency_us").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 400);
        let text = r.expose();
        let a = text.find("counter a.queries 2").unwrap();
        let b = text.find("counter b.pages 7").unwrap();
        assert!(a < b, "{text}");
        assert!(
            text.contains("histogram latency_us count=2 sum=400"),
            "{text}"
        );
    }

    #[test]
    fn exposition_is_fully_sorted_regardless_of_registration_order() {
        // Register a larger name set in scrambled order and require the
        // exposition to list every kind in sorted name order, so REPL
        // smokes and snapshot diffs never depend on insertion order.
        let r = Registry::new();
        for name in ["zeta.c", "alpha.c", "mid.c", "beta.c", "omega.c"] {
            r.inc(name);
        }
        for name in ["z.hist", "a.hist", "m.hist"] {
            r.observe(name, 5);
        }
        let text = r.expose();
        for (kind, names) in [
            (
                "counter",
                vec!["alpha.c", "beta.c", "mid.c", "omega.c", "zeta.c"],
            ),
            ("histogram", vec!["a.hist", "m.hist", "z.hist"]),
        ] {
            let listed: Vec<&str> = text
                .lines()
                .filter(|l| l.starts_with(kind))
                .map(|l| l.split_whitespace().nth(1).unwrap())
                .collect();
            assert_eq!(listed, names, "{kind} lines out of order:\n{text}");
        }
        // Deterministic end to end: a second exposition is byte-identical.
        assert_eq!(text, r.expose());
    }
}
