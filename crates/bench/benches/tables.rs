//! The paper-regeneration harness: running `cargo bench --bench tables`
//! executes the full 18-benchmark pipeline and prints every table and
//! figure of the paper's evaluation section (Tables 1–2, Figures 9–13).
//!
//! Control the workload scale with `PPP_SCALE` (default 0.3; the recorded
//! outputs in EXPERIMENTS.md use the default).

use ppp_repro::{all_reports, run_suite, PipelineOptions};

fn main() {
    // Criterion-style filter arguments are accepted and ignored; this
    // harness always regenerates everything.
    let scale = std::env::var("PPP_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.3);
    let options = PipelineOptions {
        scale,
        ablations: true,
        ..PipelineOptions::default()
    };
    eprintln!("[tables] regenerating all tables and figures at scale {scale}");
    let start = std::time::Instant::now();
    let runs = run_suite(&options).expect("every suite entry runs");
    println!("{}", all_reports(&runs));
    eprintln!("[tables] done in {:.1?}", start.elapsed());
}
