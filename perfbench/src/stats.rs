//! The benchmark's metric math: percentiles that refuse to report a tail
//! they have too few samples for, a fine log-linear latency histogram for
//! the per-transaction timings, medians, and the failure ratio.

/// A percentile is reported only when at least this many samples lie
/// strictly above its rank, so a tail figure always rests on a tail.
pub const MIN_BEYOND: u64 = 10;

/// The nearest-rank position (1-based) of quantile `q` among `n` samples.
fn rank(q: f64, n: u64) -> u64 {
    ((q * n as f64).ceil() as u64).clamp(1, n)
}

/// Samples strictly above the nearest-rank position of `q` among `n`.
pub fn beyond(q: f64, n: u64) -> u64 {
    if n == 0 {
        0
    } else {
        n - rank(q, n)
    }
}

/// The nearest-rank `q`-quantile of `samples`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len() as u64;
    if n == 0 || beyond(q, n) < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(q, n) as usize - 1])
}

/// The median of `values` (mean of the middle two for an even count); `None`
/// when empty.  Used to fold per-slice and per-repetition figures, where
/// every value is a complete measurement, so no tail rule applies.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 { sorted[mid] } else { (sorted[mid - 1] + sorted[mid]) / 2.0 })
}

/// Failed requests as a share of *attempted* ones (0 when nothing was
/// attempted): a request that failed still counts in the base.
pub fn failed_ratio(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// `max / mean` of `loads` — 1.0 for a perfectly even split, and 0 when
/// nothing was loaded at all.
pub fn skew(loads: &[f64]) -> f64 {
    let total: f64 = loads.iter().sum();
    if loads.is_empty() || total <= 0.0 {
        return 0.0;
    }
    let max = loads.iter().copied().fold(f64::MIN, f64::max);
    max / (total / loads.len() as f64)
}

/// Sub-buckets per power of two: bucket width is at most 1/64 of its lower
/// bound, so a reported quantile is within 1.6% before interpolation.
const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = (SUB as usize) * (64 - SUB_BITS as usize + 1);

/// A log-linear histogram of nanosecond latencies: exact below 64 ns, 64
/// linear sub-buckets per power of two above.  Recording is two shifts and
/// an increment, so every transaction can be timed.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { counts: vec![0; BUCKETS], count: 0 }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    ((shift as u64 + 1) * SUB + ((v >> shift) - SUB)) as usize
}

/// `[lo, hi)` of bucket `i`.
fn bucket_range(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < SUB {
        return (i, i + 1);
    }
    let shift = i / SUB - 1;
    let lo = (SUB + i % SUB) << shift;
    (lo, lo + (1 << shift))
}

impl Histogram {
    /// Record one latency.
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.count += 1;
    }

    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The nearest-rank `q`-quantile in nanoseconds, linearly interpolated
    /// inside its bucket; `None` when fewer than [`MIN_BEYOND`] samples lie
    /// beyond it.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || beyond(q, self.count) < MIN_BEYOND {
            return None;
        }
        let target = rank(q, self.count);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= target {
                let (lo, hi) = bucket_range(i);
                let within = (target - seen) as f64 / c as f64;
                return Some(lo as f64 + within * (hi - lo) as f64);
            }
            seen += c;
        }
        unreachable!("rank {target} lies within the {} recorded samples", self.count)
    }
}

/// Interpolated `q`-quantile of a `tm_telemetry` log2 histogram given its
/// bucket counts (bucket `i` holds values in `[2^(i-1), 2^i)`, bucket 0 the
/// zeros).  The registry's own quantile reports bucket lower bounds only,
/// which would read identically on every run.
pub fn log2_percentile(buckets: &[u64], q: f64) -> Option<f64> {
    let count: u64 = buckets.iter().sum();
    if count == 0 || beyond(q, count) < MIN_BEYOND {
        return None;
    }
    let target = rank(q, count);
    let mut seen = 0;
    for (i, &c) in buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        if seen + c >= target {
            if i == 0 {
                return Some(0.0);
            }
            let lo = tm_telemetry::metrics::bucket_lower_bound(i) as f64;
            let within = (target - seen) as f64 / c as f64;
            return Some(lo + within * lo.max(1.0));
        }
        seen += c;
    }
    None
}

/// The process's peak resident set, in MiB (`VmHWM`), or 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // 20 samples: p50 has exactly 10 beyond it, p90 only 2.
        let samples: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(beyond(0.5, 20), 10);
        assert_eq!(percentile(&samples, 0.5), Some(10.0));
        assert_eq!(percentile(&samples, 0.9), None);
        // 19 samples leave only 9 beyond the median.
        assert_eq!(percentile(&samples[..19], 0.5), None);
        // p99 needs 1000 samples, p90 needs 100.
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&many, 0.99), Some(990.0));
        assert_eq!(percentile(&many[..999], 0.99), None);
        assert_eq!(percentile(&many[..100], 0.9), Some(90.0));
        assert_eq!(percentile(&many[..99], 0.9), None);
    }

    #[test]
    fn histogram_percentiles_follow_the_same_tail_rule() {
        let mut h = Histogram::default();
        for v in 1..=999u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(0.99), None, "989 is rank 990; only 9 beyond");
        h.record(1000);
        let p99 = h.percentile(0.99).expect("10 beyond the 990th of 1000");
        assert!((p99 - 990.0).abs() / 990.0 < 0.02, "p99 {p99}");
        let p50 = h.percentile(0.5).expect("plenty beyond the median");
        assert!((p50 - 500.0).abs() / 500.0 < 0.02, "p50 {p50}");
        assert_eq!(h.count(), 1000);
    }

    #[test]
    fn histogram_buckets_tile_the_line_without_gaps() {
        let mut next = 0;
        for i in 0..BUCKETS - 1 {
            let (lo, hi) = bucket_range(i);
            assert_eq!(lo, next, "bucket {i} starts where {} ended", i.saturating_sub(1));
            assert!(hi > lo);
            assert_eq!(bucket_of(lo), i);
            assert_eq!(bucket_of(hi - 1), i);
            next = hi;
        }
    }

    #[test]
    fn failed_ratio_divides_by_attempted() {
        // 3 of 12 attempted failed: the 9 that succeeded are not the base.
        assert_eq!(failed_ratio(3, 12), 0.25);
        assert_eq!(failed_ratio(0, 12), 0.0);
        assert_eq!(failed_ratio(12, 12), 1.0);
        assert_eq!(failed_ratio(0, 0), 0.0);
    }

    #[test]
    fn medians_and_skew() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(skew(&[1.0, 1.0, 1.0]), 1.0);
        assert_eq!(skew(&[3.0, 1.0, 2.0]), 1.5);
        assert_eq!(skew(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn log2_percentile_interpolates_inside_the_bucket() {
        // Bucket 3 = [4, 8): 20 samples there, the median falls halfway.
        let mut buckets = [0u64; 65];
        buckets[3] = 20;
        assert_eq!(tm_telemetry::metrics::bucket_lower_bound(3), 4);
        assert_eq!(log2_percentile(&buckets, 0.5), Some(6.0));
        assert_eq!(log2_percentile(&buckets, 0.9), None);
    }
}
