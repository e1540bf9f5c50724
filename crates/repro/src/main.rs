//! CLI entry: regenerate the paper's tables and figures.

use ppp_obs::json::{self, ToJson};
use ppp_repro::{
    all_reports, baseline_from_json, baseline_json, baseline_table, chaos_suite, chaos_table,
    check_suite, collect_baseline, compare_baselines, drift_json, drift_suite, drift_table, drive,
    drive_json, drive_table, fig10, fig11, fig12, fig13, fig9, inspect_benchmark, jit_gate,
    jit_json, jit_options, jit_suite, jit_table, predict_json, predict_suite, predict_table,
    regressions_json, regressions_table, run_suite, serve, table1, table2, top, trace_benchmark,
};
use ppp_repro::{ArgCursor, DriveOptions, PipelineOptions, Transport};
use ppp_workloads::SuiteEntry;

fn main() {
    // All diagnostics flow through the observation sink to stderr, so
    // stdout stays pure (JSON when asked) for every subcommand.
    ppp_obs::install_global(ppp_obs::ObsCtx::new(std::sync::Arc::new(
        ppp_obs::TextSink::stderr_verbose(),
    )));
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut options = PipelineOptions {
        ablations: true,
        ..PipelineOptions::default()
    };
    let mut wanted: Vec<String> = Vec::new();
    let mut inspect: Option<String> = None;
    // The benchmark subcommand — a suite sweep or `trace` — and the
    // benchmarks it names (one or a comma-separated list; `None` is the
    // whole suite). A run does one.
    let mut command: Option<(String, Option<String>)> = None;
    let mut serve_cmd = false;
    let mut top_cmd: Option<String> = None;
    let mut once = false;
    let mut flight_dir = "target/ppp-flight".to_owned();
    let mut addr = "127.0.0.1:7011".to_owned();
    let mut max_conns: usize = 64;
    let mut checkpoint_dir: Option<String> = None;
    let mut checkpoint_every: u64 = 64;
    let mut kill_after: Option<u64> = None;
    let mut shards: usize = 4;
    let mut repeats: usize = 2;
    let mut connect: Option<String> = None;
    let mut tcp = false;
    let mut scale_arg: Option<f64> = None;
    let mut out: Option<String> = None;
    let mut compare: Option<String> = None;
    let mut against: Option<String> = None;
    let mut threshold: f64 = 0.10;
    let mut seed: u64 = 701;
    let mut format = "text".to_owned();
    let mut generations: usize = 8;
    let mut hot_threshold: f64 = 0.0;
    let mut epsilon: f64 = 0.01;
    let mut cold = false;
    let mut cur = ArgCursor::new(args);
    while let Some(tok) = cur.next_token() {
        match tok.as_str() {
            "inspect" => inspect = Some(ok(cur.value("inspect", "a benchmark name"))),
            "lint" | "validate" | "chaos" | "drift" | "predict" | "bench" | "jit" | "drive"
            | "trace" => {
                if command.is_some() {
                    usage("give one subcommand at a time");
                }
                // A sweep's benchmark list is optional (default: the suite).
                let names = if tok == "trace" {
                    Some(ok(cur.value("trace", "a benchmark name")))
                } else {
                    cur.optional_name()
                };
                command = Some((tok.clone(), names));
            }
            "serve" => serve_cmd = true,
            "top" => top_cmd = Some(ok(cur.value("top", "host:port"))),
            "--once" => once = true,
            "--flight-dir" => flight_dir = ok(cur.value("--flight-dir", "a directory path")),
            "--addr" => addr = ok(cur.value("--addr", "host:port")),
            "--connect" => connect = Some(ok(cur.value("--connect", "host:port"))),
            "--tcp" => tcp = true,
            "--workers" => options.workers = ok(cur.parsed("--workers", "an integer")),
            "--shards" => shards = ok(cur.positive("--shards")),
            "--repeats" => repeats = ok(cur.positive("--repeats")),
            "--max-conns" => max_conns = ok(cur.parsed("--max-conns", "an integer")),
            "--checkpoint-dir" => {
                checkpoint_dir = Some(ok(cur.value("--checkpoint-dir", "a directory path")));
            }
            "--checkpoint-every" => {
                checkpoint_every = ok(cur.parsed("--checkpoint-every", "an integer"));
            }
            "--kill-after" => kill_after = Some(ok(cur.parsed("--kill-after", "a frame count"))),
            "--out" => out = Some(ok(cur.value("--out", "a file path"))),
            "--compare" => compare = Some(ok(cur.value("--compare", "a baseline file"))),
            "--against" => against = Some(ok(cur.value("--against", "a baseline file"))),
            "--threshold" => threshold = ok(cur.parsed("--threshold", "a number")),
            "--seed" => seed = ok(cur.parsed("--seed", "an integer")),
            "--format" => {
                format = ok(cur.value("--format", "text or json"));
                if format != "text" && format != "json" {
                    usage(&format!("unknown format {format:?}"));
                }
            }
            "--scale" => scale_arg = Some(ok(cur.parsed("--scale", "a number"))),
            "--generations" => generations = ok(cur.positive("--generations")),
            "--hot-threshold" => hot_threshold = ok(cur.parsed("--hot-threshold", "a number")),
            "--epsilon" => epsilon = ok(cur.parsed("--epsilon", "a number")),
            "--cold" => cold = true,
            "--quick" => scale_arg = Some(0.1),
            "--no-ablations" => options.ablations = false,
            "--help" | "-h" => usage(""),
            other if other.starts_with('-') => usage(&format!("unknown flag {other}")),
            report => wanted.push(report.to_owned()),
        }
    }
    if let Some(scale) = scale_arg {
        options.scale = scale;
    }
    let durability = checkpoint_dir
        .as_ref()
        .map(|dir| ppp_agg::DurOptions::new(dir, checkpoint_every));
    // The serve-tier commands fly with a recorder: the last N records
    // plus a metrics snapshot are dumped under --flight-dir on a panic,
    // a wire reject, or an abrupt server kill.
    let cmd = command.as_ref().map(|(cmd, _)| cmd.as_str());
    if serve_cmd || matches!(cmd, Some("drive" | "chaos")) {
        ppp_obs::install_flight(&flight_dir, ppp_obs::DEFAULT_FLIGHT_CAPACITY);
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let _ = ppp_obs::flight_dump("panic");
            previous(info);
        }));
    }
    if let Some(target) = top_cmd {
        let target: std::net::SocketAddr = target
            .parse()
            .unwrap_or_else(|_| usage(&format!("top: bad address {target:?}")));
        std::process::exit(match top(target, once) {
            Ok(()) => 0,
            Err(e) => failed(e),
        });
    }
    if serve_cmd {
        std::process::exit(run_serve(&addr, shards, max_conns, durability));
    }
    // bench, jit and trace run PP/TPP/PPP only (the Figure 9–13 set),
    // and the chaos-style `--seed` flag picks their VM seed.
    let seeded = PipelineOptions {
        ablations: false,
        seed,
        ..options
    };
    if let Some((cmd, only)) = &command {
        let only = only.as_deref();
        check_names(only);
        let out = out.as_deref();
        std::process::exit(match cmd.as_str() {
            "drive" => {
                let transport = match (&connect, tcp) {
                    (Some(addr), _) => match addr.parse() {
                        Ok(a) => Transport::Connect(a),
                        Err(_) => usage(&format!("--connect: bad address {addr:?}")),
                    },
                    (None, true) => Transport::Tcp,
                    (None, false) => Transport::InProc,
                };
                let drive_options = DriveOptions {
                    workers: options.workers.max(1),
                    shards,
                    repeats,
                    // The driver's sweet spot is lighter than the figure
                    // pipeline's: default to a small scale unless asked.
                    scale: scale_arg.unwrap_or(DriveOptions::default().scale),
                    seed,
                    transport,
                    checkpoint_dir: checkpoint_dir.as_ref().map(Into::into),
                    checkpoint_every,
                    kill_after,
                    ..DriveOptions::default()
                };
                run_drive(only, &format, out, &drive_options)
            }
            "jit" => {
                let mut jopts = jit_options(&seeded, generations, hot_threshold);
                jopts.epsilon = epsilon;
                jopts.cold_start = cold;
                run_jit_cmd(only, &format, out, &jopts, options.workers.max(1))
            }
            "bench" => run_bench(
                only,
                &format,
                out,
                compare.as_deref(),
                against.as_deref(),
                threshold,
                &seeded,
            ),
            "lint" | "validate" => run_checks(cmd == "validate", only, &format, out, &options),
            "chaos" => run_chaos(only, seed, &format, out, &options),
            "drift" => run_drift(only, seed, &format, out, &options),
            "predict" => run_predict(only, seed, &format, out, &options),
            "trace" => run_trace(only.expect("trace takes a name"), &format, out, &seeded),
            other => unreachable!("parsed above: {other}"),
        });
    }
    if let Some(name) = inspect {
        match inspect_benchmark(&entry(&name), &options) {
            Ok(out) => print!("{out}"),
            Err(e) => std::process::exit(failed(e)),
        }
        return;
    }
    if wanted.is_empty() {
        wanted.push("all".to_owned());
    }
    const REPORTS: [&str; 8] = [
        "table1", "table2", "fig9", "fig10", "fig11", "fig12", "fig13", "all",
    ];
    for w in &wanted {
        if !REPORTS.contains(&w.as_str()) {
            usage(&format!("unknown report {w}"));
        }
    }
    // fig13 is the only consumer of the ablations.
    if !wanted.iter().any(|w| w == "fig13" || w == "all") {
        options.ablations = false;
    } else if !options.ablations {
        usage("fig13 and all read the ablations; drop --no-ablations");
    }

    let runs = run_suite(&options).unwrap_or_else(|e| std::process::exit(failed(e)));
    let outs: Vec<String> = wanted
        .iter()
        .map(|w| match w.as_str() {
            "table1" => Ok(table1(&runs)),
            "table2" => Ok(table2(&runs)),
            "fig9" => fig9(&runs),
            "fig10" => fig10(&runs),
            "fig11" => fig11(&runs),
            "fig12" => fig12(&runs),
            "fig13" => fig13(&runs),
            "all" => all_reports(&runs),
            other => unreachable!("validated above: {other}"),
        })
        .collect::<Result<_, _>>()
        .unwrap_or_else(|e| std::process::exit(failed(e)));
    // The reports are a pure function of the scale, the seed and the
    // configuration set, so the output names them.
    println!(
        "ppp-repro reports: scale {}, VM seed {} ({:#x}), ablations {}",
        options.scale,
        options.seed,
        options.seed,
        if options.ablations { "on" } else { "off" }
    );
    for out in outs {
        println!("{out}");
    }
}

/// The one output path of every artifact-producing subcommand: writes
/// the JSON `doc` to `--out` when given, then prints `doc` under
/// `--format json` and `table()` otherwise. Returns `false` when the
/// file cannot be written.
fn emit(doc: &str, table: impl FnOnce() -> String, format: &str, out: Option<&str>) -> bool {
    if !write_out(doc, out) {
        return false;
    }
    match format {
        "json" => println!("{doc}"),
        _ => println!("{}", table()),
    }
    true
}

/// Writes the JSON `doc` to `--out` when given; `false` when the file
/// cannot be written.
fn write_out(doc: &str, out: Option<&str>) -> bool {
    if let Some(path) = out {
        if let Err(e) = std::fs::write(path, format!("{doc}\n")) {
            eprintln!("error: cannot write {path}: {e}");
            return false;
        }
    }
    true
}

/// The suite entry named `name`; an unknown name is a usage error. The
/// one benchmark-name check behind every subcommand.
fn entry(name: &str) -> SuiteEntry {
    ppp_workloads::spec2000_suite()
        .into_iter()
        .find(|e| e.spec.name == name)
        .unwrap_or_else(|| usage(&format!("unknown benchmark {name:?}")))
}

/// Exits with a usage error unless every name in `only` (one benchmark
/// or a comma-separated list, as every suite sweep takes) is a suite
/// benchmark.
fn check_names(only: Option<&str>) {
    for name in only.into_iter().flat_map(|n| n.split(',')) {
        entry(name);
    }
}

/// Runs (or diffs) perf baselines; returns the exit code (0 = clean,
/// 1 = regressions found, 2 = bad input).
#[allow(clippy::too_many_arguments)]
fn run_bench(
    only: Option<&str>,
    format: &str,
    out: Option<&str>,
    compare: Option<&str>,
    against: Option<&str>,
    threshold: f64,
    options: &PipelineOptions,
) -> i32 {
    let load = |path: &str| match std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|doc| baseline_from_json(&doc))
    {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            std::process::exit(2);
        }
    };
    let Some(old_path) = compare else {
        let baseline = collect_baseline(only, options);
        let doc = baseline_json(&baseline);
        return if emit(&doc, || baseline_table(&baseline), format, out) {
            0
        } else {
            2
        };
    };
    let old = load(old_path);
    let new = match against {
        Some(new_path) => load(new_path),
        None => collect_baseline(only, options),
    };
    let regs = match compare_baselines(&old, &new, threshold) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: baselines incomparable: {e}");
            return 2;
        }
    };
    // The exit code depends only on the cost-model regressions.
    let table = || regressions_table(&regs);
    if !emit(&regressions_json(&regs), table, format, out) {
        return 2;
    }
    i32::from(!regs.is_empty())
}

/// Runs the closed re-optimization loop over the suite (or one
/// benchmark); returns the exit code (0 = every benchmark reached
/// steady state with monotone cost, witness-clean generations, and
/// flow-conservative transfers; 1 = the convergence gate tripped; 2 =
/// the loop itself failed).
fn run_jit_cmd(
    only: Option<&str>,
    format: &str,
    out: Option<&str>,
    jopts: &ppp_jit::JitOptions,
    workers: usize,
) -> i32 {
    let outcomes = match jit_suite(only, jopts, workers) {
        Ok(o) => o,
        Err(e) => return failed(e),
    };
    if !emit(
        &jit_json(&outcomes, jopts),
        || jit_table(&outcomes),
        format,
        out,
    ) {
        return 2;
    }
    match jit_gate(&outcomes) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: jit convergence gate: {e}");
            1
        }
    }
}

/// Replays one benchmark with spans on and prints the breakdown — as a
/// text tree or (`--format json`) a schema-versioned span+metric
/// artifact, which `--out` receives either way; returns the exit code.
fn run_trace(name: &str, format: &str, out: Option<&str>, options: &PipelineOptions) -> i32 {
    match trace_benchmark(&entry(name), options) {
        Ok(trace) => {
            if emit(&trace.to_json(), || trace.text(), format, out) {
                0
            } else {
                2
            }
        }
        Err(e) => failed(e),
    }
}

/// Lints every pipeline-produced instrumentation plan or, with
/// `validate`, translation-validates the witnessed pipeline stages of
/// each benchmark; returns the exit code (0 = all clean: lint tolerates
/// info-level diagnostics, validation tolerates none). The suite runs
/// `--workers` at a time; once it is done the results are printed in
/// suite order, as text or (`--format json`) one JSON document, which
/// `--out` receives either way.
fn run_checks(
    validate: bool,
    only: Option<&str>,
    format: &str,
    out: Option<&str>,
    options: &PipelineOptions,
) -> i32 {
    let (group, item) = if validate {
        ("stages", "stage")
    } else {
        ("configs", "config")
    };
    let checked = check_suite(validate, only, options);
    let stream = format != "json";
    let mut dirty = false;
    let doc = json::array(|a| {
        for (name, checked) in &checked {
            let reports = match checked {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: {e}");
                    dirty = true;
                    continue;
                }
            };
            for (label, report) in reports {
                dirty |= if validate {
                    !report.is_empty()
                } else {
                    !report.is_clean()
                };
                if stream {
                    if report.is_empty() {
                        println!("{name}/{label}: clean");
                    } else {
                        println!("{name}/{label}:\n{report}");
                    }
                }
            }
            a.obj(|o| {
                o.field("benchmark", name)
                    .objs(group, reports, |o, (label, report)| {
                        o.field(item, label).field("report", report);
                    });
            });
        }
    });
    if !write_out(&doc, out) {
        return 2;
    }
    if !stream {
        println!("{doc}");
    }
    i32::from(dirty)
}

/// Sweeps every fault site across the suite (or one benchmark); returns
/// the exit code (0 = every scenario completed with no silent
/// degradation and lint-clean surviving guidance).
fn run_chaos(
    only: Option<&str>,
    seed: u64,
    format: &str,
    out: Option<&str>,
    options: &PipelineOptions,
) -> i32 {
    let outcomes = match chaos_suite(only, seed, options) {
        Ok(o) => o,
        Err(e) => return failed(e),
    };
    if !emit(&outcomes.to_json(), || chaos_table(&outcomes), format, out) {
        return 2;
    }
    i32::from(outcomes.iter().any(|o| !o.ok()))
}

/// Sweeps every version-drift scenario across the suite (or one
/// benchmark), measuring accuracy/coverage decay of profiles transferred
/// by `ppp-match`; returns the exit code (0 = every transfer
/// flow-conservative and the identity scenario lossless).
fn run_drift(
    only: Option<&str>,
    seed: u64,
    format: &str,
    out: Option<&str>,
    options: &PipelineOptions,
) -> i32 {
    let outcomes = match drift_suite(only, seed, options) {
        Ok(o) => o,
        Err(e) => return failed(e),
    };
    if !emit(
        &drift_json(&outcomes, seed),
        || drift_table(&outcomes),
        format,
        out,
    ) {
        return 2;
    }
    i32::from(outcomes.iter().any(|o| !o.ok()))
}

/// Scores `ppp-est` static estimates against measured profiles across
/// the suite (or one benchmark); returns the exit code (0 = every
/// estimate flow-conservative and the heuristics beat the uniform
/// baseline on enough benchmarks).
fn run_predict(
    only: Option<&str>,
    seed: u64,
    format: &str,
    out: Option<&str>,
    options: &PipelineOptions,
) -> i32 {
    let predict_options = PipelineOptions { seed, ..*options };
    let outcomes = match predict_suite(only, &predict_options) {
        Ok(o) => o,
        Err(e) => return failed(e),
    };
    if !emit(
        &predict_json(&outcomes, seed),
        || predict_table(&outcomes),
        format,
        out,
    ) {
        return 2;
    }
    i32::from(!ppp_repro::predict_gate(&outcomes))
}

/// Hosts a standalone aggregation server until the process is killed;
/// returns the exit code (2 = cannot bind).
fn run_serve(
    addr: &str,
    shards: usize,
    max_conns: usize,
    durability: Option<ppp_agg::DurOptions>,
) -> i32 {
    let durable = durability.is_some();
    let server = match serve(addr, shards, max_conns, durability) {
        Ok(s) => s,
        Err(e) => return failed(e),
    };
    println!(
        "ppp-agg listening on {} ({shards} shards{})",
        server.addr(),
        if durable { ", durable" } else { "" }
    );
    // Serve until killed; the accept loop runs on its own thread.
    loop {
        std::thread::park();
    }
}

/// Runs the parallel load driver; returns the exit code (0 = every
/// checked snapshot byte-identical and lint-clean, 1 = a check failed,
/// 2 = the drive itself failed).
fn run_drive(only: Option<&str>, format: &str, out: Option<&str>, options: &DriveOptions) -> i32 {
    let report = match drive(only, options) {
        Ok(r) => r,
        Err(e) => return failed(e),
    };
    if !emit(&drive_json(&report), || drive_table(&report), format, out) {
        return 2;
    }
    i32::from(!report.ok())
}

/// Reports a failed command on stderr; returns its exit code, 2.
fn failed(e: impl std::fmt::Display) -> i32 {
    eprintln!("error: {e}");
    2
}

/// Unwraps a parse result from the shared [`ArgCursor`]; the error
/// message is the usage message.
fn ok<T>(r: Result<T, String>) -> T {
    r.unwrap_or_else(|e| usage(&e))
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: ppp-repro [--scale X] [--quick] [--no-ablations] \
         [table1|table2|fig9|fig10|fig11|fig12|fig13|all] \
         | inspect <benchmark> | lint [bench[,bench...]] [--format text|json] [--out FILE] \
         | validate [bench[,bench...]] [--format text|json] [--out FILE] \
         | chaos [bench[,bench...]] [--seed S] [--workers N] [--format text|json] [--out FILE] \
         | drift [bench[,bench...]] [--seed S] [--workers N] [--format text|json] [--out FILE] \
         | predict [bench[,bench...]] [--seed S] [--workers N] [--format text|json] [--out FILE] \
         | bench [bench[,bench...]] [--format text|json] [--out FILE] \
         [--compare OLD.json [--against NEW.json]] [--threshold X] [--seed S] [--workers N] \
         | jit [bench[,bench...]] [--generations N] [--hot-threshold F] [--epsilon X] [--cold] \
         [--seed S] [--workers N] [--format text|json] [--out FILE] \
         | trace <benchmark> [--seed S] [--format text|json] [--out FILE] \
         | drive [bench[,bench...]] [--workers N] [--shards K] [--repeats R] \
         [--tcp | --connect HOST:PORT] [--seed S] [--out FILE] [--format text|json] \
         [--checkpoint-dir DIR] [--checkpoint-every N] [--kill-after FRAMES] \
         [--flight-dir DIR] \
         | serve [--addr HOST:PORT] [--shards K] [--max-conns N] \
         [--checkpoint-dir DIR] [--checkpoint-every N] [--flight-dir DIR] \
         | top HOST:PORT [--once]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
