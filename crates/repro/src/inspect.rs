//! Per-routine inspection of an instrumentation plan: which techniques
//! fired where, and what each routine's instrumentation looks like.

use crate::format::{pct, Table};
use crate::pipeline::{estimate_options, prepare_benchmark, PipelineError, PipelineOptions};
use ppp_core::{instrument_analyzed, ModuleAnalysis, ModulePlan, ProfilerConfig, SkipReason};
use ppp_workloads::SuiteEntry;

/// Renders a per-routine breakdown of the PP, TPP and PPP plans for
/// `entry`'s benchmark: the plans the pipeline instruments, made from
/// the prepared (inlined, unrolled, profiled) module and its guidance.
///
/// # Errors
///
/// As [`prepare_benchmark`].
pub fn inspect_benchmark(
    entry: &SuiteEntry,
    options: &PipelineOptions,
) -> Result<String, PipelineError> {
    let prep = prepare_benchmark(entry, options)?;
    let est_opts = estimate_options(&prep.truth, options);
    let analysis = ModuleAnalysis::new(&prep.module, Some(&prep.edges), options.metric, &est_opts);
    let mut out = String::new();
    for config in [
        ProfilerConfig::pp(),
        ProfilerConfig::tpp(),
        ProfilerConfig::ppp(),
    ] {
        let plan = instrument_analyzed(&analysis, &config);
        out += &render_plan(&prep.module, &plan, &prep.name, options.scale);
        out.push('\n');
    }
    Ok(out)
}

/// One plan's header line and per-routine table.
fn render_plan(module: &ppp_ir::Module, plan: &ModulePlan, name: &str, scale: f64) -> String {
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
        plan.config.label(),
        name,
        scale,
        plan.instrumented_count(),
        plan.funcs.len(),
        plan.static_prof_insts(),
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::run_benchmark;
    use ppp_workloads::spec2000_suite;

    #[test]
    fn inspect_renders_for_each_profiler() {
        let suite = spec2000_suite();
        let entry = suite.iter().find(|e| e.spec.name == "mcf").unwrap();
        let opts = PipelineOptions {
            scale: 0.02,
            ..PipelineOptions::default()
        };
        let out = inspect_benchmark(entry, &opts).expect("mcf prepares");
        assert!(out.contains("main"));
        assert!(out.contains("Routine"));
        let run = run_benchmark(entry, &opts).expect("mcf runs");
        for label in ["PP", "TPP", "PPP"] {
            let r = run.profiler(label).expect("a paper profiler");
            let header = format!(
                "{label} plan for mcf (scale 0.02): {} of ",
                r.instrumented_routines
            );
            let line = out
                .lines()
                .find(|l| l.starts_with(&header))
                .unwrap_or_else(|| panic!("{label}: no header {header:?} in\n{out}"));
            assert!(
                line.ends_with(&format!(
                    "routines instrumented, {} static prof insts",
                    r.static_prof_insts
                )),
                "{label}: {line}"
            );
        }
    }
}
