//! NET — *Next Executing Tail* — Dynamo's hot-path predictor (§2).
//!
//! Dynamo selects likely-hot paths without counting them: a counter per
//! potential trace head (function entries and loop headers) ticks on each
//! arrival, and once a head becomes hot, the **next executing tail** —
//! the very next path starting there — is selected as *the* trace for
//! that head. NET is statistically likely to catch the hottest path, but
//! it commits to **one path per head**: when a head has several "warm"
//! paths instead of a single dominant one, whichever executes next wins,
//! and the rest are invisible. The paper argues this is exactly where
//! path *profiles* (PPP) beat path *sampling* — they see every warm path
//! and their relative weights (§2, §8.1).
//!
//! The predictor consumes the VM tracer's ordered path stream
//! ([`ppp_vm::Tracer::record_sequence`]).

use crate::accuracy::actual_hot_paths;
use crate::flow::FlowMetric;
use ppp_ir::{BlockId, FuncId, ModulePathProfile, PathKey};
use std::collections::HashMap;

/// NET configuration.
#[derive(Clone, Copy, Debug)]
pub struct NetConfig {
    /// Arrivals at a head before it is considered hot (Dynamo used ~50).
    pub hot_threshold: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self { hot_threshold: 50 }
    }
}

/// The online predictor.
#[derive(Clone, Debug, Default)]
pub struct NetPredictor {
    threshold: u64,
    counters: HashMap<(FuncId, BlockId), u64>,
    traces: HashMap<(FuncId, BlockId), PathKey>,
}

impl NetPredictor {
    /// Creates a predictor.
    pub fn new(config: NetConfig) -> Self {
        Self {
            threshold: config.hot_threshold.max(1),
            ..Self::default()
        }
    }

    /// Observes one completed path (in execution order).
    pub fn observe(&mut self, func: FuncId, key: &PathKey) {
        let head = (func, key.start);
        if self.traces.contains_key(&head) {
            return; // this head already selected its tail
        }
        let c = self.counters.entry(head).or_insert(0);
        *c += 1;
        if *c > self.threshold {
            // The head just became hot: this path is its next executing
            // tail, and the selection is final.
            self.traces.insert(head, key.clone());
        }
    }

    /// Feeds a whole recorded path stream.
    pub fn observe_stream<'a>(&mut self, stream: impl IntoIterator<Item = &'a (FuncId, PathKey)>) {
        for (f, k) in stream {
            self.observe(*f, k);
        }
    }

    /// The selected traces, one per hot head.
    pub fn traces(&self) -> impl Iterator<Item = (FuncId, &PathKey)> {
        self.traces.iter().map(|(&(f, _), k)| (f, k))
    }

    /// Number of selected traces.
    pub fn trace_count(&self) -> usize {
        self.traces.len()
    }
}

/// Fraction of actual hot-path flow covered by NET's selected traces —
/// comparable to a profiler's accuracy (§6.1), but NET is capped at one
/// path per head.
pub fn net_hot_flow_coverage(
    predictor: &NetPredictor,
    truth: &ModulePathProfile,
    metric: FlowMetric,
    hot_ratio: f64,
) -> f64 {
    let hot = actual_hot_paths(truth, metric, hot_ratio);
    if hot.is_empty() {
        return 1.0;
    }
    let selected: std::collections::HashSet<(FuncId, &PathKey)> = predictor.traces().collect();
    let denom: u64 = hot.iter().map(|h| h.flow).sum();
    let num: u64 = hot
        .iter()
        .filter(|h| selected.contains(&(h.func, &h.key)))
        .map(|h| h.flow)
        .sum();
    num as f64 / denom as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppp_ir::{EdgeRef, Function, FunctionBuilder, Reg};

    /// A function whose loop header (b1) has two iteration paths.
    fn two_path_loop() -> Function {
        let mut b = FunctionBuilder::new("f", 1);
        let hdr = b.new_block();
        let l = b.new_block();
        let r = b.new_block();
        let latch = b.new_block();
        let exit = b.new_block();
        b.jump(hdr);
        b.switch_to(hdr);
        b.branch(Reg(0), l, exit);
        b.switch_to(l);
        b.jump(latch);
        b.switch_to(r);
        b.jump(latch);
        b.switch_to(latch);
        b.jump(hdr);
        b.switch_to(exit);
        b.ret(None);
        b.finish()
    }

    fn key_a() -> PathKey {
        PathKey {
            start: BlockId(1),
            edges: vec![
                EdgeRef::new(BlockId(1), 0),
                EdgeRef::new(BlockId(2), 0),
                EdgeRef::new(BlockId(4), 0),
            ],
        }
    }

    fn key_b() -> PathKey {
        PathKey {
            start: BlockId(1),
            edges: vec![
                EdgeRef::new(BlockId(1), 1), // pretend another arm exists
            ],
        }
    }

    #[test]
    fn dominant_path_is_selected() {
        let mut net = NetPredictor::new(NetConfig { hot_threshold: 10 });
        let f = FuncId(0);
        for _ in 0..100 {
            net.observe(f, &key_a());
        }
        assert_eq!(net.trace_count(), 1);
        let (_, k) = net.traces().next().unwrap();
        assert_eq!(k, &key_a());
    }

    #[test]
    fn selection_is_first_tail_after_threshold() {
        // Alternating warm paths: whichever arrives right after the
        // threshold wins — the other is never represented.
        let mut net = NetPredictor::new(NetConfig { hot_threshold: 10 });
        let f = FuncId(0);
        for i in 0..100 {
            let k = if i % 2 == 0 { key_a() } else { key_b() };
            net.observe(f, &k);
        }
        assert_eq!(net.trace_count(), 1, "one trace per head, by design");
    }

    #[test]
    fn cold_heads_select_nothing() {
        let mut net = NetPredictor::new(NetConfig::default());
        let f = FuncId(0);
        for _ in 0..10 {
            net.observe(f, &key_a()); // below the default threshold of 50
        }
        assert_eq!(net.trace_count(), 0);
    }

    #[test]
    fn warm_paths_halve_net_coverage() {
        // Ground truth: two equally-warm iteration paths. NET covers one.
        let f = two_path_loop();
        let mut truth = ModulePathProfile::with_capacity(1);
        truth.func_mut(FuncId(0)).record(&f, key_a(), 500);
        truth.func_mut(FuncId(0)).record(
            &f,
            PathKey {
                start: BlockId(1),
                edges: vec![EdgeRef::new(BlockId(1), 0), EdgeRef::new(BlockId(2), 0)],
            },
            500,
        );
        let mut net = NetPredictor::new(NetConfig { hot_threshold: 10 });
        for _ in 0..60 {
            net.observe(FuncId(0), &key_a());
        }
        let cov = net_hot_flow_coverage(&net, &truth, FlowMetric::Branch, 0.0);
        assert!(cov < 0.8, "NET cannot see both warm paths: {cov}");
        assert!(cov > 0.0);
    }

    #[test]
    fn stream_api_matches_observe() {
        let stream = vec![(FuncId(0), key_a()); 60];
        let mut a = NetPredictor::new(NetConfig { hot_threshold: 10 });
        a.observe_stream(&stream);
        let mut b = NetPredictor::new(NetConfig { hot_threshold: 10 });
        for (f, k) in &stream {
            b.observe(*f, k);
        }
        assert_eq!(a.trace_count(), b.trace_count());
    }
}
