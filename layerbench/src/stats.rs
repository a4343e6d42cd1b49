//! Exact order statistics and the windowed throughput meter.
//!
//! Every percentile the benchmark reports is computed from the raw
//! samples: either a sorted sample vector ([`quantile_sorted`]) or an
//! [`ExactHist`], which stores integer nanoseconds at 1 ns resolution
//! and therefore holds exactly the same multiset as the raw vector.
//! Quantiles interpolate linearly between adjacent order statistics
//! (the "inclusive" method of Python's `statistics.quantiles`).

use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// The `q`-quantile (`0 <= q <= 1`) of an ascending-sorted slice.
/// Panics on an empty slice: a metric with no samples is a bug.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let h = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = h.floor() as usize;
    let frac = h - lo as f64;
    match sorted.get(lo + 1) {
        Some(&hi) if frac > 0.0 => sorted[lo] + frac * (hi - sorted[lo]),
        _ => sorted[lo],
    }
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, 0.5)
}

/// Samples below this many nanoseconds (262 µs, above the stream's
/// p99) are counted in a dense array of 1 MiB; larger ones are kept raw.
const DENSE_NS: usize = 1 << 18;

/// The storage of the last dropped [`ExactHist`], for the next one. A
/// run makes one histogram per cluster lifetime, each on a new thread;
/// reusing one allocation keeps the benchmark's share of `rss_peak_mb`
/// fixed, instead of leaving freed copies in several allocator arenas.
static SPARE: Mutex<Option<(Vec<u32>, Vec<u64>)>> = Mutex::new(None);

/// An exact multiset of nanosecond samples. Only samples above
/// [`DENSE_NS`] grow it, by 8 bytes each.
pub struct ExactHist {
    dense: Vec<u32>,
    dense_count: u64,
    over: Vec<u64>,
}

impl ExactHist {
    pub fn new() -> Self {
        let spare = SPARE.lock().unwrap_or_else(PoisonError::into_inner).take();
        let (dense, over) = spare.unwrap_or_else(|| {
            let mut dense = vec![0u32; DENSE_NS];
            // Touch every page now, so the footprint is fixed from the start.
            for page in dense.chunks_mut(1024) {
                page[0] = std::hint::black_box(0);
            }
            (dense, Vec::new())
        });
        ExactHist {
            dense,
            dense_count: 0,
            over,
        }
    }

    pub fn record(&mut self, ns: u64) {
        match self.dense.get_mut(ns as usize) {
            Some(c) => {
                *c += 1;
                self.dense_count += 1;
            }
            None => self.over.push(ns),
        }
    }

    pub fn count(&self) -> u64 {
        self.dense_count + self.over.len() as u64
    }

    /// Sort the raw samples: call after the last [`ExactHist::record`]
    /// and before [`ExactHist::quantile`].
    pub fn seal(&mut self) {
        self.over.sort_unstable();
    }

    /// The `rank`-th smallest sample (0-based).
    fn nth(&self, rank: u64) -> u64 {
        if rank >= self.dense_count {
            return self.over[(rank - self.dense_count) as usize];
        }
        let mut seen = 0u64;
        for (ns, &c) in self.dense.iter().enumerate() {
            seen += u64::from(c);
            if seen > rank {
                return ns as u64;
            }
        }
        unreachable!("rank below dense_count")
    }

    /// The `q`-quantile in nanoseconds; `None` without samples.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        debug_assert!(self.over.is_sorted(), "quantile before seal");
        let h = q.clamp(0.0, 1.0) * (n - 1) as f64;
        let lo = h.floor() as u64;
        let frac = h - lo as f64;
        let x_lo = self.nth(lo) as f64;
        if frac == 0.0 || lo + 1 >= n {
            return Some(x_lo);
        }
        let x_hi = self.nth(lo + 1) as f64;
        Some(x_lo + frac * (x_hi - x_lo))
    }
}

impl Drop for ExactHist {
    fn drop(&mut self) {
        self.dense.fill(0);
        self.over.clear();
        let storage = (
            std::mem::take(&mut self.dense),
            std::mem::take(&mut self.over),
        );
        SPARE
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get_or_insert(storage);
    }
}

/// Throughput windows shorter than this are discarded.
const WINDOW: Duration = Duration::from_millis(500);

/// What one timed phase measured.
pub struct Measured {
    /// Operations completed in the phase.
    pub ops: u64,
    /// Median over whole windows of operations per second.
    pub ops_per_s: f64,
    /// Median over whole windows of payload bytes per second.
    pub bytes_per_s: f64,
    /// Number of whole windows.
    pub windows: usize,
    /// Per-operation latency samples.
    pub lat: ExactHist,
}

/// Counts completed operations and their payload per fixed wall-clock
/// window, and keeps every latency sample. Rates are reported as the
/// median window, so one preempted stretch of a run moves them little.
pub struct Meter {
    win_start: Instant,
    last: Instant,
    win_ops: u64,
    win_bytes: u64,
    ops_rates: Vec<f64>,
    byte_rates: Vec<f64>,
    ops: u64,
    lat: ExactHist,
}

impl Meter {
    pub fn new(start: Instant) -> Self {
        Meter {
            win_start: start,
            last: start,
            win_ops: 0,
            win_bytes: 0,
            ops_rates: Vec::new(),
            byte_rates: Vec::new(),
            ops: 0,
            lat: ExactHist::new(),
        }
    }

    /// One operation completed at `now`, after `lat_ns`, moving `bytes`.
    pub fn record(&mut self, now: Instant, lat_ns: u64, bytes: u64) {
        self.lat.record(lat_ns);
        self.ops += 1;
        self.win_ops += 1;
        self.win_bytes += bytes;
        self.last = now;
        let span = now.saturating_duration_since(self.win_start);
        if span >= WINDOW {
            let s = span.as_secs_f64();
            self.ops_rates.push(self.win_ops as f64 / s);
            self.byte_rates.push(self.win_bytes as f64 / s);
            self.win_start = now;
            self.win_ops = 0;
            self.win_bytes = 0;
        }
    }

    pub fn finish(mut self) -> Measured {
        // A phase shorter than one window still reports its rate.
        let span = self
            .last
            .saturating_duration_since(self.win_start)
            .as_secs_f64();
        if self.ops_rates.is_empty() && span > 0.0 {
            self.ops_rates.push(self.win_ops as f64 / span);
            self.byte_rates.push(self.win_bytes as f64 / span);
        }
        self.lat.seal();
        let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
        Measured {
            ops: self.ops,
            ops_per_s: med(&self.ops_rates),
            bytes_per_s: med(&self.byte_rates),
            windows: self.ops_rates.len(),
            lat: self.lat,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_known_inputs() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 0.5), 2.5);
        assert_eq!(quantile_sorted(&v, 1.0), 4.0);
        assert_eq!(quantile_sorted(&v, 0.25), 1.75);
        assert_eq!(quantile_sorted(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        // p99 of 0..=100 is exactly 99 (h = 0.99 * 100).
        let hundred: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&hundred, 0.99), 99.0);
    }

    #[test]
    fn quartiles_match_python_inclusive_method() {
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512],
        // n=4, method="inclusive") == [5.0, 24.0, 112.0]
        let v: Vec<f64> = (0..10).map(|i| f64::from(1u32 << i)).collect();
        assert_eq!(quantile_sorted(&v, 0.25), 5.0);
        assert_eq!(quantile_sorted(&v, 0.5), 24.0);
        assert_eq!(quantile_sorted(&v, 0.75), 112.0);
    }

    #[test]
    fn exact_hist_agrees_with_the_sorted_sample_vector() {
        // Samples on both sides of the dense/raw boundary, with repeats.
        let mut x = 12345u64;
        let mut raw = Vec::new();
        let mut h = ExactHist::new();
        for i in 0..5000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let ns = if i % 10 == 0 { x % 5_000_000 } else { x % 9000 };
            raw.push(ns as f64);
            h.record(ns);
        }
        h.seal();
        raw.sort_by(f64::total_cmp);
        assert_eq!(h.count(), 5000);
        for q in [0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
            assert_eq!(h.quantile(q), Some(quantile_sorted(&raw, q)), "q={q}");
        }
        assert_eq!(ExactHist::new().quantile(0.5), None);
    }

    #[test]
    fn meter_reports_the_median_window() {
        let t0 = Instant::now();
        let mut m = Meter::new(t0);
        // Three seconds holding 10, 30 and 20 ops of 100 bytes: six
        // half-second windows at 10, 10, 30, 30, 20 and 20 ops/s.
        for (w, n) in [10u64, 30, 20].into_iter().enumerate() {
            for i in 1..=n {
                let at = t0
                    + Duration::from_secs(w as u64)
                    + Duration::from_secs(1) * i as u32 / n as u32;
                m.record(at, 1000, 100);
            }
        }
        let r = m.finish();
        assert_eq!(r.ops, 60);
        assert_eq!(r.windows, 6);
        assert!((r.ops_per_s - 20.0).abs() < 1e-9, "{}", r.ops_per_s);
        assert!((r.bytes_per_s - 2000.0).abs() < 1e-6);
        assert_eq!(r.lat.quantile(0.5), Some(1000.0));
    }
}
