//! `harmony-perfbench` — the repository's benchmark: end-to-end figures
//! from an untraced run and per-layer figures from a separate traced
//! run, over three workloads:
//!
//! * `eval_day` — Section IX's baseline/CBS/CBP comparison at default
//!   scale, each variant through `harmony::pipeline::run_variant`;
//! * `engine_10k` — an open-loop First-Fit replay on all 10,000 Table II
//!   machines, where all the time goes to the simulation engine;
//! * `harmonyd` — the real daemon binary on loopback, fed by a
//!   closed-loop writer and an open-loop poller.
//!
//! ```text
//! harmony-perfbench [--workload eval_day|engine_10k|harmonyd|all]
//!                   [--seed N] [--seconds S] [--trace 0|1]
//!                   [--harmonyd PATH]
//! ```
//!
//! Without `--trace`, each workload runs untraced and then traced, each
//! for `--seconds` (default 45, `BENCHMARK.json`'s `run_seconds`). The
//! human-readable report goes to stdout; the last stdout line is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. A full
//! result (provenance, sizes, checks, digests) and, for traced runs,
//! the span log land in the output directory.

mod daemon;
mod sims;
mod spans;
mod stats;
mod tele;

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use harmony_server::MetricsBody;

use crate::spans::SpanLog;
use crate::stats::{median, ratio, Metric};

/// The end-to-end metrics every workload reports from its untraced
/// run — `BENCHMARK.json`'s `end_to_end` list.
const E2E_METRICS: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("tasks_per_s", "1/s"),
    ("period_p50_ms", "ms"),
    ("period_p90_ms", "ms"),
];

/// The per-layer metrics every workload reports from its traced run —
/// `BENCHMARK.json`'s `per_layer` list. A layer a workload does not
/// exercise reads 0.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("trace_gen_s", "s"),
    ("kmeans_fit_s", "s"),
    ("kmeans_fit_calls", "count"),
    ("kmeans_classify_s", "s"),
    ("forecast_s", "s"),
    ("forecast_arima_share", "ratio"),
    ("queueing_s", "s"),
    ("lp_s", "s"),
    ("lp_solves", "count"),
    ("lp_pivots", "count"),
    ("lp_phase1_pivots", "count"),
    ("lp_warm_hit_ratio", "ratio"),
    ("rounding_s", "s"),
    ("ctl_decide_s", "s"),
    ("ctl_decide_calls", "count"),
    ("ctl_decide_p50_ms", "ms"),
    ("ctl_decide_p90_ms", "ms"),
    ("ctl_unattributed_s", "s"),
    ("sched_place_calls", "count"),
    ("sched_place_hits", "count"),
    ("sched_hit_ratio", "ratio"),
    ("sched_place_s", "s"),
    ("sim_run_s", "s"),
    ("sim_events", "count"),
    ("sim_self_s", "s"),
    ("sim_pending_peak", "count"),
    ("net_submit_p50_ms", "ms"),
    ("net_tick_p50_ms", "ms"),
    ("net_plan_p50_ms", "ms"),
    ("net_requests", "count"),
    ("server_handle_s", "s"),
    ("net_wait_s", "s"),
    ("poll_p50_ms", "ms"),
    ("poll_p90_ms", "ms"),
    ("poll_late_p90_ms", "ms"),
    ("svc_submit_s", "s"),
    ("svc_tick_s", "s"),
    ("state_commit_s", "s"),
    ("state_saves", "count"),
    ("state_bytes", "B"),
    ("trace_overhead_s", "s"),
];

const WORKLOADS: [&str; 3] = ["eval_day", "engine_10k", "harmonyd"];

/// Where results, span logs and temporary files go, relative to the
/// repository root.
pub const OUT_DIR: &str = ".bench_out";

/// How long one run measures unless `--seconds` says otherwise: the
/// `run_seconds` of `BENCHMARK.json`, the length its bounds were proven
/// at. Each workload and mode measures this long on its own.
const DEFAULT_SECONDS: f64 = 45.0;

/// A run keeps starting passes until it has measured this long, even
/// if `--seconds` asks for more, so it always exits well within three
/// minutes.
const MAX_MEASURE_SECS: f64 = 120.0;

const USAGE: &str = "usage: harmony-perfbench [--workload eval_day|engine_10k|harmonyd|all] \
[--seed N] [--seconds S] [--trace 0|1] [--harmonyd PATH]";

#[derive(Debug, Clone)]
pub struct RunOptions {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

/// The seed of a run's `i`-th trace; trace 0 uses the run's own seed.
pub fn sub_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add((i as u64) << 32)
}

/// Runs `pass(0)`, `pass(1)`, … until it has made at least `min_passes`
/// passes, a whole number of rounds of `round` passes, and `seconds` have
/// passed (or `MAX_MEASURE_SECS`). Whole rounds keep every kind of pass
/// equally weighted in the run's statistics.
pub fn cycle<T>(
    round: usize,
    min_passes: usize,
    seconds: f64,
    mut pass: impl FnMut(usize) -> T,
) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        out.push(pass(out.len()));
        let elapsed = start.elapsed().as_secs_f64();
        if out.len() % round == 0
            && out.len() >= min_passes
            && (elapsed >= seconds || elapsed >= MAX_MEASURE_SECS)
        {
            return out;
        }
    }
}

/// Named correctness checks; any failure makes the run incorrect.
#[derive(Debug, Default)]
pub struct Checks {
    results: Vec<(String, bool)>,
}

impl Checks {
    pub fn record(&mut self, ok: bool, name: impl Into<String>) {
        self.results.push((name.into(), ok));
    }

    fn failed(&self) -> usize {
        self.results.iter().filter(|(_, ok)| !ok).count()
    }
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub e2e: Vec<Metric>,
    pub layers: Vec<Metric>,
    pub ops: u64,
    pub ops_failed: u64,
    /// Tasks still pending when a simulation ended (in flight, not
    /// failed).
    pub unserved: u64,
    pub checks: Checks,
    pub digests: Vec<(String, u64)>,
    pub sizes: Vec<(&'static str, f64)>,
    /// Host seconds of every timed pass, in run order.
    pub pass_walls: Vec<f64>,
    pub spans: Option<SpanLog>,
}

/// The controller-stage layers, from pipeline stage timers and the
/// `lp.*` and `forecast.tier.*` counters.
pub fn stage_layers(t: &MetricsBody) -> Vec<Metric> {
    let stage = |name, key| {
        Metric::new(
            name,
            "s",
            tele::hist_sum(t, key),
            tele::hist_count(t, key) as usize,
        )
    };
    let count = |name, key| Metric::new(name, "count", tele::counter(t, key), 1);
    let tiers = tele::counter_prefix(t, "forecast.tier.");
    let solves = tele::counter(t, "lp.solves");
    vec![
        stage("kmeans_classify_s", "pipeline.classify_seconds"),
        stage("forecast_s", "pipeline.forecast_seconds"),
        Metric::new(
            "forecast_arima_share",
            "ratio",
            ratio(tele::counter(t, "forecast.tier.arima"), tiers),
            tiers as usize,
        ),
        stage("queueing_s", "pipeline.sizing_seconds"),
        stage("lp_s", "pipeline.lp_seconds"),
        count("lp_solves", "lp.solves"),
        count("lp_pivots", "lp.pivots"),
        count("lp_phase1_pivots", "lp.phase1_pivots"),
        Metric::new(
            "lp_warm_hit_ratio",
            "ratio",
            ratio(tele::counter(t, "lp.warm_start_hits"), solves),
            solves as usize,
        ),
        stage("rounding_s", "pipeline.rounding_seconds"),
    ]
}

/// Combines the layer sets of several traced passes metric by metric,
/// taking the median value.
pub fn median_layers(sets: &[Vec<Metric>]) -> Vec<Metric> {
    let Some(first) = sets.first() else {
        return Vec::new();
    };
    first
        .iter()
        .map(|m| {
            let values: Vec<f64> = sets
                .iter()
                .filter_map(|set| set.iter().find(|x| x.name == m.name).map(|x| x.value))
                .collect();
            Metric {
                value: median(&values),
                ..m.clone()
            }
        })
        .collect()
}

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    harmonyd: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
    let mut args = Args {
        workloads: WORKLOADS.to_vec(),
        seed: 2013,
        seconds: DEFAULT_SECONDS,
        trace: None,
        harmonyd: target.join("release").join("harmonyd"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workloads = match WORKLOADS.iter().find(|w| **w == name) {
                    Some(w) => vec![*w],
                    None if name == "all" => WORKLOADS.to_vec(),
                    None => return Err(format!("unknown workload `{name}`")),
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_owned());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                });
            }
            "--harmonyd" => args.harmonyd = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Provenance stamped on every result.
struct Provenance {
    git_rev: String,
    git_dirty: Option<bool>,
    nproc: usize,
    rustc: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    // Git must not find a repository above the checkout it runs in.
    let ceiling = std::env::current_dir().ok()?.parent()?.to_path_buf();
    let out = Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

impl Provenance {
    fn collect() -> Self {
        let git_rev = command_line("git", &["rev-parse", "--short=12", "HEAD"]);
        let git_dirty = git_rev.as_ref().and_then(|_| {
            command_line("git", &["status", "--porcelain", "--untracked-files=no"])
                .map(|s| !s.is_empty())
        });
        Provenance {
            git_rev: git_rev.unwrap_or_else(|| "none".to_owned()),
            git_dirty,
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_owned()),
        }
    }
}

/// JSON number text: every digit Rust's shortest round-trip form keeps.
fn num(v: f64) -> String {
    if v.is_finite() {
        // `+ 0.0` turns a -0 (an empty float sum) into 0.
        format!("{}", v + 0.0)
    } else {
        "0".to_owned()
    }
}

fn metric_json(value: f64, unit: &str) -> String {
    format!("{{\"value\":{},\"unit\":\"{unit}\"}}", num(value))
}

/// The metrics a run exports: the fixed list for its mode, in order,
/// with 0 for a layer the workload never touched.
fn exported(outcome: &Outcome, traced: bool) -> Vec<(&'static str, &'static str, f64)> {
    let (list, have) = if traced {
        (LAYER_METRICS, &outcome.layers)
    } else {
        (E2E_METRICS, &outcome.e2e)
    };
    list.iter()
        .map(|&(name, unit)| {
            let value = have
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            (name, unit, value)
        })
        .collect()
}

fn report(workload: &str, options: &RunOptions, prov: &Provenance, outcome: &Outcome) -> String {
    let mut s = String::new();
    let dirty = prov
        .git_dirty
        .map_or("unknown".to_owned(), |d| d.to_string());
    let _ = writeln!(
        s,
        "== {workload} seed={} traced={} rev={} dirty={dirty} nproc={} rustc=\"{}\"",
        options.seed,
        u8::from(options.traced),
        prov.git_rev,
        prov.nproc,
        prov.rustc
    );
    let sizes: Vec<String> = outcome
        .sizes
        .iter()
        .map(|(k, v)| format!("{k}={}", num(*v)))
        .collect();
    let _ = writeln!(s, "sizes: {}", sizes.join(" "));
    let walls: Vec<String> = outcome
        .pass_walls
        .iter()
        .map(|w| format!("{w:.3}"))
        .collect();
    let _ = writeln!(s, "pass_wall_s: {}", walls.join(" "));
    let metrics = if options.traced {
        &outcome.layers
    } else {
        &outcome.e2e
    };
    for m in metrics {
        let _ = writeln!(
            s,
            "  {:<22} {:>16.6} {:<6} n={}",
            m.name,
            m.value + 0.0,
            m.unit,
            m.samples
        );
    }
    let _ = writeln!(
        s,
        "ops={} ops_failed={} unserved_at_end={}",
        outcome.ops, outcome.ops_failed, outcome.unserved
    );
    for (name, ok) in &outcome.checks.results {
        if !ok {
            let _ = writeln!(s, "CHECK FAILED: {name}");
        }
    }
    let _ = writeln!(
        s,
        "checks: {} passed, {} failed",
        outcome.checks.results.len() - outcome.checks.failed(),
        outcome.checks.failed()
    );
    for (name, digest) in &outcome.digests {
        let _ = writeln!(s, "digest {name} {digest:016x}");
    }
    s
}

fn result_json(
    workload: &str,
    options: &RunOptions,
    prov: &Provenance,
    outcome: &Outcome,
) -> String {
    let metrics = |list: &[Metric]| -> String {
        list.iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\",\"samples\":{}}}",
                    m.name,
                    num(m.value),
                    m.unit,
                    m.samples
                )
            })
            .collect::<Vec<_>>()
            .join(",")
    };
    let sizes: Vec<String> = outcome
        .sizes
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", num(*v)))
        .collect();
    let checks: Vec<String> = outcome
        .checks
        .results
        .iter()
        .map(|(name, ok)| format!("{{\"check\":{:?},\"ok\":{ok}}}", name))
        .collect();
    let digests: Vec<String> = outcome
        .digests
        .iter()
        .map(|(k, d)| format!("\"{k}\":\"{d:016x}\""))
        .collect();
    format!(
        "{{\"workload\":\"{workload}\",\"seed\":{},\"seconds\":{},\"traced\":{},\"git_rev\":\"{}\",\
\"git_dirty\":{},\"nproc\":{},\"rustc\":{:?},\"sizes\":{{{}}},\"end_to_end\":{{{}}},\
\"per_layer\":{{{}}},\"ops\":{},\"ops_failed\":{},\"unserved_at_end\":{},\"checks\":[{}],\"digests\":{{{}}}}}\n",
        options.seed,
        num(options.seconds),
        options.traced,
        prov.git_rev,
        prov.git_dirty.map_or("null".to_owned(), |d| d.to_string()),
        prov.nproc,
        prov.rustc,
        sizes.join(","),
        metrics(&outcome.e2e),
        metrics(&outcome.layers),
        outcome.ops,
        outcome.ops_failed,
        outcome.unserved,
        checks.join(","),
        digests.join(","),
    )
}

fn run_workload(workload: &str, options: &RunOptions, harmonyd: &Path) -> Outcome {
    match workload {
        "eval_day" => sims::run(sims::SimWorkload::EvalDay, options),
        "engine_10k" => sims::run(sims::SimWorkload::Engine10k, options),
        _ => daemon::run(harmonyd, options),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("harmony-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workloads.contains(&"harmonyd") && !args.harmonyd.is_file() {
        eprintln!(
            "harmony-perfbench: no harmonyd binary at {} (build it with \
`cargo build --release -p harmony-server`, or pass --harmonyd)",
            args.harmonyd.display()
        );
        return ExitCode::from(2);
    }
    if let Err(e) = fs::create_dir_all(OUT_DIR) {
        eprintln!("harmony-perfbench: cannot create {}: {e}", OUT_DIR);
        return ExitCode::from(2);
    }
    let prov = Provenance::collect();
    let modes: Vec<bool> = args.trace.map_or(vec![false, true], |t| vec![t]);
    let single = args.workloads.len() == 1 && modes.len() == 1;

    let mut correct = true;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut exported_metrics = Vec::new();
    for &workload in &args.workloads {
        for &traced in &modes {
            let options = RunOptions {
                seed: args.seed,
                seconds: args.seconds,
                traced,
            };
            let outcome = run_workload(workload, &options, &args.harmonyd);
            print!("{}", report(workload, &options, &prov, &outcome));
            let stem = format!("{workload}-seed{}-trace{}", args.seed, u8::from(traced));
            let result_path = Path::new(OUT_DIR).join(format!("{stem}.json"));
            if let Err(e) = fs::write(
                &result_path,
                result_json(workload, &options, &prov, &outcome),
            ) {
                eprintln!(
                    "harmony-perfbench: cannot write {}: {e}",
                    result_path.display()
                );
            }
            if let Some(log) = &outcome.spans {
                let path = Path::new(OUT_DIR).join(format!("{stem}-spans.jsonl"));
                match log.write_jsonl(&path) {
                    Ok(()) => println!("spans: {} written to {}", log.len(), path.display()),
                    Err(e) => eprintln!("harmony-perfbench: cannot write {}: {e}", path.display()),
                }
            }
            let check_failures = outcome.checks.failed() as u64;
            correct &= check_failures == 0 && outcome.ops > 0;
            attempted += outcome.ops;
            failed += outcome.ops_failed + check_failures;
            for (name, unit, value) in exported(&outcome, traced) {
                let key = if single {
                    name.to_owned()
                } else {
                    format!("{workload}/{name}")
                };
                exported_metrics.push(format!("\"{key}\":{}", metric_json(value, unit)));
            }
        }
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        attempted.max(1),
        exported_metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
