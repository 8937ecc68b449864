//! Latency samples, percentiles and process memory.

use std::time::Duration;

/// Samples that must lie beyond the tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// A set of timings in one unit.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// An empty sample set.
    pub fn new() -> Self {
        Samples(Vec::new())
    }

    /// Adds one value.
    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    /// Adds a duration in milliseconds.
    pub fn push_ms(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e3);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no sample was taken.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The median (`0.0` when empty).
    pub fn p50(&self) -> f64 {
        let v = self.sorted();
        match v.len() {
            0 => 0.0,
            n if n % 2 == 1 => v[n / 2],
            n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        }
    }

    /// The highest percentile with [`TAIL_BEYOND`] samples beyond it, as
    /// `(value, percentile)`: the `TAIL_BEYOND + 1`-th largest sample. A set
    /// too small for that reports its maximum as percentile 100.
    pub fn tail(&self) -> (f64, f64) {
        let v = self.sorted();
        let n = v.len();
        if n <= TAIL_BEYOND {
            return (v.last().copied().unwrap_or(0.0), 100.0);
        }
        let rank = n - TAIL_BEYOND;
        (v[rank - 1], 100.0 * rank as f64 / n as f64)
    }
}

impl From<Vec<f64>> for Samples {
    fn from(values: Vec<f64>) -> Self {
        Samples(values)
    }
}

/// Fields of `/proc/self/status`, in MiB.
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| {
            let rest = line.strip_prefix(field)?.strip_prefix(':')?;
            let kb: f64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0)
}

/// Peak resident set size since start or the last [`reset_peak_rss`].
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM")
}

/// Resets the kernel's peak-RSS mark to the current RSS, so later peaks
/// belong to later phases. Returns whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let s = Samples::from((1..=200).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.tail(), (190.0, 95.0));
        assert_eq!(s.p50(), 100.5);
        let small = Samples::from(vec![3.0, 1.0, 2.0]);
        assert_eq!(small.tail(), (3.0, 100.0));
    }
}
