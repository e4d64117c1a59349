//! Log-bucketed latency histogram: 65 power-of-two buckets of atomic
//! counters, so p50/p90/p99/max snapshots cost O(buckets) and no samples
//! are retained.

use std::sync::atomic::{AtomicU64, Ordering};

/// Bucket count: bucket 0 holds zeros, bucket `k` (1..=64) holds values in
/// `[2^(k-1), 2^k - 1]`.
pub const BUCKETS: usize = 65;

/// Bucket index for a value: 0 for 0, else `64 - leading_zeros`.
#[inline]
#[must_use]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive upper bound of a bucket (saturating at `u64::MAX`).
#[inline]
#[must_use]
pub fn bucket_upper_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= 64 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

/// A concurrent log-bucketed histogram. Recording is three relaxed atomic
/// ops plus a `fetch_max`; reading is a [`HistogramSnapshot`].
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value (typically nanoseconds).
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// Shorthand for `snapshot().latency_stats()`.
    #[must_use]
    pub fn latency_stats(&self) -> LatencyStats {
        self.snapshot().latency_stats()
    }
}

/// A frozen copy of a [`Histogram`]'s counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (see [`bucket_index`]).
    pub buckets: [u64; BUCKETS],
    /// Total recorded values.
    pub count: u64,
    /// Sum of recorded values (wrapping on overflow).
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Nearest-rank quantile estimate, `q` in `[0, 1]`. Returns the
    /// inclusive upper bound of the bucket holding the ranked sample,
    /// clamped to the tracked maximum — so the estimate is exact for the
    /// max, never below the true value, and never more than 2× above it.
    /// Returns 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                return bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// The p50/p90/p99/max summary used by `ServeStats`.
    #[must_use]
    pub fn latency_stats(&self) -> LatencyStats {
        LatencyStats {
            count: self.count,
            p50_nanos: self.quantile(0.50),
            p90_nanos: self.quantile(0.90),
            p99_nanos: self.quantile(0.99),
            max_nanos: self.max,
        }
    }
}

/// A compact latency summary: quantile estimates from a log-bucketed
/// histogram (upper-bound semantics — each pXX is ≥ the true quantile and
/// < 2× it) plus the exact max. `Copy` so counter-style stats structs can
/// embed it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyStats {
    /// Number of samples summarised.
    pub count: u64,
    /// Estimated 50th percentile, nanoseconds.
    pub p50_nanos: u64,
    /// Estimated 90th percentile, nanoseconds.
    pub p90_nanos: u64,
    /// Estimated 99th percentile, nanoseconds.
    pub p99_nanos: u64,
    /// Exact maximum, nanoseconds.
    pub max_nanos: u64,
}

impl LatencyStats {
    /// p50 in seconds (convenience for bench tables).
    #[must_use]
    pub fn p50_seconds(&self) -> f64 {
        self.p50_nanos as f64 / 1e9
    }

    /// p90 in seconds.
    #[must_use]
    pub fn p90_seconds(&self) -> f64 {
        self.p90_nanos as f64 / 1e9
    }

    /// p99 in seconds.
    #[must_use]
    pub fn p99_seconds(&self) -> f64 {
        self.p99_nanos as f64 / 1e9
    }

    /// max in seconds.
    #[must_use]
    pub fn max_seconds(&self) -> f64 {
        self.max_nanos as f64 / 1e9
    }
}
