//! Order statistics for the benchmark's reports.

/// Median of `values` (mean of the middle pair for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Samples that must lie strictly beyond a percentile's rank before the
/// percentile is reported.
pub const MIN_BEYOND: usize = 10;

/// A nearest-rank percentile together with the sample count behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// Percentile in `0..=100`.
    pub pct: u32,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// The value, or `None` when fewer than [`MIN_BEYOND`] samples lie
    /// beyond the percentile's rank (the percentile is unsupported).
    pub value: Option<f64>,
}

impl Percentile {
    /// The nearest-rank `pct`-th percentile of `samples`: the value at
    /// rank `ceil(pct / 100 * n)` of the sorted samples. It is reported
    /// only when at least [`MIN_BEYOND`] samples rank above it.
    pub fn of(samples: &[f64], pct: u32) -> Self {
        let n = samples.len();
        let rank = ((f64::from(pct) / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1));
        let value = (n >= rank + MIN_BEYOND).then(|| {
            let mut v = samples.to_vec();
            v.sort_by(f64::total_cmp);
            v[rank - 1]
        });
        Self {
            pct,
            samples: n,
            value,
        }
    }

    /// Human-readable form: the value with its unit and sample count, or
    /// an explicit `unsupported` marker.
    pub fn render(&self, unit: &str) -> String {
        match self.value {
            Some(v) => format!("{v:.3} {unit} (n={})", self.samples),
            None => format!(
                "unsupported (n={}, fewer than {MIN_BEYOND} samples beyond p{})",
                self.samples, self.pct
            ),
        }
    }
}
