//! A fixed-size log-linear histogram of nanosecond durations.
//!
//! Values below 64 ns get one bucket each; above that every power of two
//! is split into 32 equal buckets, so a bucket is at most 1/32 (about 3%)
//! of its value wide. Quantiles interpolate linearly inside the bucket,
//! which keeps them continuous in the data instead of snapping to bucket
//! edges. Memory is fixed (about 15 KiB) however many values are
//! recorded, so a million-step VM run costs no more than a short one.

const EXACT: u64 = 64;
const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = EXACT as usize + (64 - 6) * SUB;

/// Counts of durations in log-linear buckets.
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

fn bucket(v: u64) -> usize {
    if v < EXACT {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let sub = ((v >> (e - SUB_BITS)) as usize) & (SUB - 1);
    EXACT as usize + (e as usize - 6) * SUB + sub
}

/// `(lower bound, width)` of bucket `i`.
fn bounds(i: usize) -> (f64, f64) {
    if i < EXACT as usize {
        return (i as f64, 1.0);
    }
    let e = (i - EXACT as usize) / SUB + 6;
    let sub = (i - EXACT as usize) % SUB;
    let width = (1u64 << (e - SUB_BITS as usize)) as f64;
    ((SUB + sub) as f64 * width, width)
}

impl Histogram {
    /// Records one value in nanoseconds.
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket(ns)] += 1;
        self.total += 1;
    }

    /// Number of values recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Adds every count of `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `q`-quantile (`0 < q < 1`) in nanoseconds, or 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q * self.total as f64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (below + c) as f64 >= rank {
                let (lo, width) = bounds(i);
                let into = ((rank - below as f64) / c as f64).clamp(0.0, 1.0);
                return lo + width * into;
            }
            below += c;
        }
        let (lo, width) = bounds(BUCKETS - 1);
        lo + width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_ordered() {
        let mut prev_end = 0.0;
        for i in 0..BUCKETS - 1 {
            let (lo, width) = bounds(i);
            assert_eq!(
                lo,
                prev_end,
                "bucket {i} starts where {} ends",
                i.max(1) - 1
            );
            prev_end = lo + width;
        }
        for v in [0, 1, 63, 64, 65, 127, 128, 1_000, 28_000, 1 << 40] {
            let (lo, width) = bounds(bucket(v));
            assert!(lo <= v as f64 && (v as f64) < lo + width, "{v}");
        }
    }

    #[test]
    fn quantiles_are_within_three_percent() {
        let mut h = Histogram::default();
        for v in 1..=10_000u64 {
            h.record(v * 10);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((p50 / 50_000.0 - 1.0).abs() < 0.03, "{p50}");
        assert!((p99 / 99_000.0 - 1.0).abs() < 0.03, "{p99}");
        assert_eq!(Histogram::default().quantile(0.5), 0.0);
    }
}
