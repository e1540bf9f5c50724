//! Per-routine inspection of an instrumentation plan: which techniques
//! fired where, and what each routine's instrumentation looks like.

use crate::format::{pct, Table};
use crate::pipeline::PipelineOptions;
use ppp_core::{instrument_module, ProfilerConfig, SkipReason};
use ppp_workloads::{generate, SuiteEntry};

/// Renders a per-routine breakdown of `profiler`'s plan for `entry`'s
/// benchmark (after the usual optimize → profile pipeline phases).
pub fn inspect_benchmark(
    entry: &SuiteEntry,
    profiler: &ProfilerConfig,
    options: &PipelineOptions,
) -> String {
    let spec = entry.spec.clone().scaled(options.scale);
    let mut module = generate(&spec);
    ppp_opt::optimize_module(&mut module);
    ppp_core::normalize_module(&mut module);
    let (_, edges, _) = ppp_jit::traced(&module, options.seed, &spec.name).expect("benchmark runs");
    let plan = instrument_module(&module, Some(&edges), profiler);

    let mut t = Table::new([
        "Routine",
        "Blocks",
        "Paths(N)",
        "Cold edges",
        "Table",
        "SAC iters",
        "Disc.loops",
        "LC cov",
        "Status",
    ]);
    for fp in &plan.funcs {
        let f = module.function(fp.func);
        let status = match (&fp.skip_reason, fp.instrumented) {
            (Some(SkipReason::NeverExecuted), _) => "skip: never ran".to_owned(),
            (Some(SkipReason::HighCoverage(c)), _) => format!("skip: LC ({})", pct(*c)),
            (Some(SkipReason::AllObvious), _) => "skip: all obvious".to_owned(),
            (Some(SkipReason::NoCountedPaths), _) => "skip: all cold".to_owned(),
            (None, true) => "instrumented".to_owned(),
            (None, false) => "-".to_owned(),
        };
        let table = if !fp.instrumented {
            "-".to_owned()
        } else if fp.uses_hash {
            "hash 701x3".to_owned()
        } else {
            "array".to_owned()
        };
        t.row([
            f.name.clone(),
            f.blocks.len().to_string(),
            fp.n_paths.to_string(),
            format!(
                "{}/{}",
                fp.cold.iter().filter(|&&c| c).count(),
                fp.cold.len()
            ),
            table,
            fp.sac_iterations.to_string(),
            fp.disconnected_loops.to_string(),
            pct(fp.lc_coverage),
            status,
        ]);
    }
    format!(
        "{} plan for {} (scale {}): {} of {} routines instrumented, {} static prof insts\n{}",
        profiler.label(),
        spec.name,
        options.scale,
        plan.instrumented_count(),
        plan.funcs.len(),
        plan.static_prof_insts(),
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppp_workloads::spec2000_suite;

    #[test]
    fn inspect_renders_for_each_profiler() {
        let suite = spec2000_suite();
        let entry = suite.iter().find(|e| e.spec.name == "mcf").unwrap();
        let opts = PipelineOptions {
            scale: 0.02,
            ..PipelineOptions::default()
        };
        for config in [
            ProfilerConfig::pp(),
            ProfilerConfig::tpp(),
            ProfilerConfig::ppp(),
        ] {
            let out = inspect_benchmark(entry, &config, &opts);
            assert!(out.contains("main"));
            assert!(out.contains("Routine"));
            assert!(out.contains(&config.label()));
        }
    }
}
