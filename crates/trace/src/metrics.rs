//! Always-on metrics registry: monotonic counters and log₂-bucket latency
//! histograms with p50/p95/p99 summaries.
//!
//! Unlike the timeline recorder in the crate root, the registry is not
//! gated on [`crate::enabled`]: it is fed at pass/stage granularity (tens
//! to thousands of updates per run), where one short mutex lock per update
//! is negligible, and its snapshot feeds `amcbench`'s cache counters and
//! `amc_profile`'s latency report even when no trace is captured.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

/// Number of log₂ buckets: index `i > 0` covers `[2^(i-1), 2^i - 1]` ns,
/// index 0 covers exactly 0 ns, and the last bucket is open-ended.
const BUCKETS: usize = 65;

#[derive(Clone)]
struct Hist {
    count: u64,
    sum_ns: u64,
    /// Largest observation recorded, nanoseconds. Reported percentiles are
    /// clamped to it: a bucket midpoint can exceed every sample the bucket
    /// holds (a 337 ms observation lands in the [268 ms, 537 ms) bucket,
    /// whose midpoint is ~402 ms), and an estimate above the observed
    /// maximum is a leak, not an estimate.
    max_ns: u64,
    buckets: [u64; BUCKETS],
}

impl Hist {
    const fn new() -> Self {
        Hist {
            count: 0,
            sum_ns: 0,
            max_ns: 0,
            buckets: [0; BUCKETS],
        }
    }

    fn observe(&mut self, ns: u64) {
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
        self.buckets[bucket_index(ns)] += 1;
    }

    /// Percentile estimate: walk the cumulative bucket counts and return
    /// the midpoint of the bucket holding the q-th sample, clamped to the
    /// observed maximum so no quantile ever exceeds a real sample.
    fn percentile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_midpoint_ns(i).min(self.max_ns);
            }
        }
        bucket_midpoint_ns(BUCKETS - 1).min(self.max_ns)
    }
}

fn bucket_index(ns: u64) -> usize {
    if ns == 0 {
        0
    } else {
        (64 - ns.leading_zeros() as usize).min(BUCKETS - 1)
    }
}

/// Representative (midpoint) latency for a bucket.
fn bucket_midpoint_ns(i: usize) -> u64 {
    if i == 0 {
        return 0;
    }
    let (low, high) = bucket_bounds_ns(i);
    low + (high - low) / 2
}

/// Inclusive `[lo, hi]` bounds of bucket `i`: bucket 0 holds exactly 0 ns,
/// bucket `i > 0` holds `[2^(i-1), 2^i - 1]`, and the last bucket is
/// open-ended (its `hi` saturates at `u64::MAX`).
fn bucket_bounds_ns(i: usize) -> (u64, u64) {
    if i == 0 {
        return (0, 0);
    }
    let i = i.min(BUCKETS - 1);
    let low = 1u64 << (i - 1);
    let high = if i >= 64 { u64::MAX } else { (1u64 << i) - 1 };
    (low, high)
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Hist>,
}

fn registry() -> &'static Mutex<Registry> {
    static REG: OnceLock<Mutex<Registry>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(Registry::default()))
}

/// Add `by` to the named monotonic counter (created at zero on first use).
pub fn incr(name: &'static str, by: u64) {
    let mut reg = registry().lock().unwrap();
    *reg.counters.entry(name).or_insert(0) += by;
}

/// Record one latency observation, in nanoseconds, into the named
/// log₂-bucket histogram (created empty on first use).
pub fn observe_ns(name: &'static str, ns: u64) {
    let mut reg = registry().lock().unwrap();
    reg.hists.entry(name).or_insert_with(Hist::new).observe(ns);
}

/// Record one latency observation from a [`std::time::Duration`].
pub fn observe(name: &'static str, d: std::time::Duration) {
    observe_ns(name, d.as_nanos() as u64);
}

/// Summary of one latency histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations, nanoseconds.
    pub sum_ns: u64,
    /// Median latency estimate (bucket midpoint), nanoseconds.
    pub p50_ns: u64,
    /// 95th-percentile latency estimate, nanoseconds.
    pub p95_ns: u64,
    /// 99th-percentile latency estimate, nanoseconds.
    pub p99_ns: u64,
}

/// Point-in-time copy of the registry, names sorted.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// `(name, value)` for every monotonic counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, summary)` for every latency histogram.
    pub histograms: Vec<(String, HistSummary)>,
}

/// Snapshot every counter and histogram summary, sorted by name.
pub fn snapshot() -> Snapshot {
    let reg = registry().lock().unwrap();
    Snapshot {
        counters: reg
            .counters
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect(),
        histograms: reg
            .hists
            .iter()
            .map(|(k, h)| {
                (
                    k.to_string(),
                    HistSummary {
                        count: h.count,
                        sum_ns: h.sum_ns,
                        p50_ns: h.percentile_ns(0.50),
                        p95_ns: h.percentile_ns(0.95),
                        p99_ns: h.percentile_ns(0.99),
                    },
                )
            })
            .collect(),
    }
}

/// Clear every counter and histogram (for tests and repeated runs).
pub fn reset() {
    let mut reg = registry().lock().unwrap();
    reg.counters.clear();
    reg.hists.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The registry is process-global; serialize tests that reset it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn bucket_edges_are_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        // Midpoint sits inside its own bucket.
        for i in 1..64 {
            assert_eq!(bucket_index(bucket_midpoint_ns(i)), i, "bucket {i}");
        }
        // Each bucket's bounds map back to its own index.
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_bounds_ns(i);
            assert_eq!(bucket_index(lo), i, "lo of bucket {i}");
            assert_eq!(bucket_index(hi), i, "hi of bucket {i}");
        }
    }

    #[test]
    fn counters_accumulate_and_snapshot_sorted() {
        let _g = TEST_LOCK.lock().unwrap();
        reset();
        incr("b.second", 2);
        incr("a.first", 1);
        incr("b.second", 3);
        let snap = snapshot();
        assert_eq!(
            snap.counters,
            vec![("a.first".to_string(), 1), ("b.second".to_string(), 5)]
        );
        reset();
        assert!(snapshot().counters.is_empty());
    }

    #[test]
    fn histogram_percentiles_track_the_tail() {
        let _g = TEST_LOCK.lock().unwrap();
        reset();
        // 95 fast observations (~1 µs) and 5 slow ones (~1 ms).
        for _ in 0..95 {
            observe_ns("lat", 1_000);
        }
        for _ in 0..5 {
            observe_ns("lat", 1_000_000);
        }
        let snap = snapshot();
        let (name, h) = &snap.histograms[0];
        assert_eq!(name, "lat");
        assert_eq!(h.count, 100);
        assert_eq!(h.sum_ns, 95 * 1_000 + 5 * 1_000_000);
        // p50 lands in the 1 µs bucket, p99 in the 1 ms bucket.
        assert_eq!(bucket_index(h.p50_ns), bucket_index(1_000));
        assert_eq!(bucket_index(h.p95_ns), bucket_index(1_000));
        assert_eq!(bucket_index(h.p99_ns), bucket_index(1_000_000));
        assert!(h.p50_ns <= h.p95_ns && h.p95_ns <= h.p99_ns);
        reset();
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Hist::new();
        assert_eq!(h.percentile_ns(0.5), 0);
    }

    #[test]
    fn count_one_percentiles_equal_the_recorded_value() {
        // The pipeline.chunk_wall regression: one 337 ms observation lands
        // in the [268 ms, 537 ms) bucket, whose midpoint (~402 ms) exceeds
        // the only sample ever recorded. Every percentile of a count=1
        // histogram must report exactly that sample.
        let _g = TEST_LOCK.lock().unwrap();
        reset();
        let recorded = 337_000_000u64; // 337 ms in ns
        observe_ns("chunk_wall", recorded);
        let snap = snapshot();
        let (_, h) = &snap.histograms[0];
        assert_eq!(h.count, 1);
        assert_eq!(h.p50_ns, recorded);
        assert_eq!(h.p95_ns, recorded);
        assert_eq!(h.p99_ns, recorded);
        reset();
        // A sample below its bucket midpoint is untouched by the clamp and
        // still reported via the midpoint — unless it IS the maximum, in
        // which case the clamp pins it exactly.
        let mut hist = Hist::new();
        hist.observe(300_000_000);
        assert_eq!(hist.percentile_ns(0.5), 300_000_000);
        assert_eq!(hist.percentile_ns(0.99), 300_000_000);
    }

    #[test]
    fn percentiles_never_exceed_observed_max() {
        let mut hist = Hist::new();
        for ns in [1_000u64, 2_500, 337_000_000] {
            hist.observe(ns);
        }
        for q in [0.5, 0.9, 0.95, 0.99, 1.0] {
            assert!(hist.percentile_ns(q) <= 337_000_000, "q={q}");
        }
    }
}
