//! Per-layer busy times and counts for one traced pass.
//!
//! The traced passes wrap each call into a layer's public functions in
//! [`Ledger::time`]. The wrapped calls never nest, so each layer's
//! summed duration is its self time.

use std::collections::BTreeMap;
use std::time::Instant;

/// Busy seconds and counts, keyed by per-layer metric name.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    values: BTreeMap<String, f64>,
}

impl Ledger {
    /// Runs `f`, adding its wall time to `layer`'s busy seconds.
    pub fn time<T>(&mut self, layer: &str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.add(layer, started.elapsed().as_secs_f64());
        out
    }

    /// Adds `by` to the value of `name`.
    pub fn add(&mut self, name: &str, by: f64) {
        *self.values.entry(name.to_owned()).or_insert(0.0) += by;
    }

    /// Sets `name` to `value`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_owned(), value);
    }

    /// The value of `name` (0 when never recorded).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// The value-wise mean of `ledgers` (a name missing from one counts
    /// as 0 there).
    pub fn mean(ledgers: &[Ledger]) -> Ledger {
        let mut out = Ledger::default();
        for l in ledgers {
            for (name, v) in &l.values {
                out.add(name, v / ledgers.len() as f64);
            }
        }
        out
    }
}
