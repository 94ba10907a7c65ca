//! Exact order statistics over the samples the benchmark records itself.
//!
//! Every latency percentile the benchmark reports comes from here, never
//! from the log2-bucket `irs_obs::Histogram`, whose p50 and p99 jump by 2×
//! at a bucket edge.

/// A percentile of `sorted` (ascending) by linear interpolation between the
/// two closest order statistics: position `p/100 · (len − 1)`. For an even
/// count the median is therefore the mean of the two middle samples.
///
/// Returns `None` for an empty slice.
///
/// # Panics
///
/// Panics if `p` is outside `0..=100`.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    let last = sorted.len().checked_sub(1)?;
    let pos = p / 100.0 * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// The median of `sorted` (ascending); see [`percentile`].
pub fn median(sorted: &[f64]) -> Option<f64> {
    percentile(sorted, 50.0)
}

/// The median of unsorted values.
pub fn median_of(values: &[f64]) -> Option<f64> {
    median(&sorted(values))
}

/// A sorted copy of `values`.
///
/// # Panics
///
/// Panics if a value is NaN (a broken measurement, never a sample).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    v
}

/// The highest percentile that still has at least ten samples beyond it in
/// a sample of `count`: `100 · (count − 10) / count`. `None` when there are
/// ten samples or fewer. A p99 therefore needs 1000 samples.
pub fn max_supported_percentile(count: usize) -> Option<f64> {
    (count > 10).then(|| 100.0 * (count - 10) as f64 / count as f64)
}

/// Summary of one latency sample set, with its count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Latency {
    /// Number of samples.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile (check [`Latency::p99_supported`]).
    pub p99: f64,
    /// The highest percentile with ten samples beyond it, and its value.
    pub max_supported: Option<(f64, f64)>,
}

impl Latency {
    /// Summarises unsorted samples; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Latency> {
        let s = sorted(samples);
        Some(Latency {
            count: s.len(),
            p50: median(&s)?,
            p90: percentile(&s, 90.0)?,
            p99: percentile(&s, 99.0)?,
            max_supported: max_supported_percentile(s.len())
                .map(|p| (p, percentile(&s, p).expect("non-empty"))),
        })
    }

    /// Whether the sample has at least ten samples beyond its p99.
    pub fn p99_supported(&self) -> bool {
        self.max_supported.is_some_and(|(p, _)| p >= 99.0)
    }
}

/// The `p`-th percentile of a log2-bucket histogram's bucket counts
/// (bucket 0 holds 0, bucket `b ≥ 1` holds `[2^(b−1), 2^b)`), linearly
/// interpolated inside the bucket that holds the rank. This is only as
/// exact as the buckets: the benchmark uses it for the registry
/// histograms a replica fills internally, where no per-op samples exist.
pub fn bucket_percentile(buckets: &[u64], p: f64) -> Option<f64> {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = p / 100.0 * total as f64;
    let mut below = 0u64;
    for (b, &c) in buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        if (below + c) as f64 >= rank {
            if b == 0 {
                return Some(0.0);
            }
            let lo = (1u64 << (b - 1)) as f64;
            let frac = ((rank - below as f64) / c as f64).clamp(0.0, 1.0);
            return Some(lo + lo * frac);
        }
        below += c;
    }
    None
}
