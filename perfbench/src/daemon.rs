//! The `harmonyd` workload: the real daemon binary on loopback, driven
//! by one load-generator process over two connections.
//!
//! * The writer replays the evaluation trace period by period —
//!   `submit-observations` in 64-task frames, then `tick`, then
//!   `get-plan` — as a closed loop.
//! * The poller sends `status` and `get-plan` alternately on a fixed
//!   schedule — an open loop. Each poll is timed from when it was due,
//!   and how late the generator sent it is reported too.
//!
//! After the daemon shuts down, the identical state-changing request
//! sequence is replayed through an in-process `Service`: every `tick`
//! plan must match the daemon's, and the replay times
//! `Service::handle_deferred` and `PendingSave::commit` per verb. Each
//! traced pass runs a replay of its own.

use std::fs;
use std::io::{self, BufRead, BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use harmony::classify::{ClassifierConfig, TaskClassifier};
use harmony::{HarmonyConfig, OnlinePipeline, SolverBackend};
use harmony_model::{SimDuration, Task};
use harmony_server::state::{self, CatalogSpec, ObjectiveSpec};
use harmony_server::{Client, MetricsBody, Request, Response, Service};
use harmony_trace::Trace;

use crate::sims::eval_trace;
use crate::spans::{Span, SpanLog};
use crate::stats::{mean, median, ratio, Metric};
use crate::{cycle, sub_seed, tele, Checks, Outcome, RunOptions};

/// Control periods the writer replays per pass.
/// Past 24 periods of history the forecaster switches to ARIMA, so the
/// last quarter of a pass exercises it.
pub const PERIODS: usize = 32;
/// Tasks per `submit-observations` frame.
pub const FRAME_TASKS: usize = 64;
/// The poller's schedule: one request every this many milliseconds.
pub const POLL_INTERVAL_MS: u64 = 200;
/// Passes per run at least: two, so rounds and polls have enough
/// samples for a p90.
const MIN_PASSES: usize = 2;
/// How long a shut-down daemon may take to exit before it is killed.
const EXIT_GRACE: Duration = Duration::from_secs(30);

/// The daemon's defaults, mirrored by the in-process replay.
const CATALOG: &str = "table2";
const CATALOG_DIVISOR: usize = 100;

/// A spawned daemon; killed and reaped on drop if still running.
struct Daemon {
    child: Child,
    stdout: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Starts `harmonyd` and waits for its listening banner.
    fn boot(exe: &Path, trace: &Path, snapshot: &Path) -> io::Result<(Daemon, String)> {
        let mut child = Command::new(exe)
            .arg("--trace")
            .arg(trace)
            .arg("--snapshot")
            .arg(snapshot)
            .args(["--tick-secs", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other("harmonyd stdout not captured"));
        };
        let mut daemon = Daemon {
            child,
            stdout: None,
        };
        let mut reader = BufReader::new(stdout);
        let mut banner = String::new();
        reader.read_line(&mut banner)?;
        let addr = banner
            .trim()
            .strip_prefix("harmonyd listening on ")
            .map(str::to_owned)
            .ok_or_else(|| io::Error::other(format!("unexpected banner {banner:?}")))?;
        // Keep draining stdout so the daemon can never block on a full pipe.
        daemon.stdout = Some(std::thread::spawn(move || {
            let _ = io::copy(&mut reader, &mut io::sink());
        }));
        Ok((daemon, addr))
    }

    /// Waits for the daemon to exit after `shutdown`; kills it once
    /// the grace period runs out. Returns whether it exited cleanly.
    fn wait_exit(&mut self) -> bool {
        let deadline = Instant::now() + EXIT_GRACE;
        let clean = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status.success(),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break false;
                }
            }
        };
        if let Some(handle) = self.stdout.take() {
            let _ = handle.join();
        }
        clean
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(handle) = self.stdout.take() {
            let _ = handle.join();
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verb {
    Submit,
    Tick,
    Plan,
    Status,
}

impl Verb {
    fn span_name(self) -> &'static str {
        match self {
            Verb::Submit => "request_submit",
            Verb::Tick => "request_tick",
            Verb::Plan => "request_get_plan",
            Verb::Status => "request_status",
        }
    }
}

/// One client request as the load generator saw it.
#[derive(Debug, Clone)]
struct Sample {
    id: u64,
    verb: Verb,
    /// When it was due (the poller's schedule; the send time for the
    /// closed-loop writer).
    due: Instant,
    sent: Instant,
    done: Instant,
    ok: bool,
    round: Option<usize>,
}

impl Sample {
    fn service_secs(&self) -> f64 {
        self.done.duration_since(self.sent).as_secs_f64()
    }

    fn since_due_secs(&self) -> f64 {
        self.done.duration_since(self.due).as_secs_f64()
    }

    fn late_secs(&self) -> f64 {
        self.sent.duration_since(self.due).as_secs_f64()
    }
}

/// Sends one request, recording it; `Err` only on an I/O failure.
fn send(
    client: &mut Client,
    request: &Request,
    verb: Verb,
    id: u64,
    due: Instant,
    round: Option<usize>,
    samples: &mut Vec<Sample>,
) -> io::Result<Response> {
    let sent = Instant::now();
    let result = client.request(request);
    let done = Instant::now();
    let ok = matches!(&result, Ok(r) if !matches!(r, Response::Error { .. }));
    samples.push(Sample {
        id,
        verb,
        due,
        sent,
        done,
        ok,
        round,
    });
    result
}

/// The writer's state-changing requests of one period.
fn period_requests(tasks: &[Task]) -> Vec<Request> {
    let mut requests: Vec<Request> = tasks
        .chunks(FRAME_TASKS)
        .map(|frame| Request::SubmitObservations {
            tasks: frame.to_vec(),
        })
        .collect();
    requests.push(Request::Tick);
    requests
}

/// Splits the trace's first `PERIODS` control periods into the writer's
/// request sequence, one `Vec` per period.
fn script(trace: &Trace) -> Vec<Vec<Request>> {
    let period = HarmonyConfig::default().control_period.as_secs();
    (0..PERIODS)
        .map(|p| {
            let (lo, hi) = (p as f64 * period, (p + 1) as f64 * period);
            let tasks: Vec<Task> = trace
                .tasks()
                .iter()
                .filter(|t| t.arrival.as_secs() >= lo && t.arrival.as_secs() < hi)
                .cloned()
                .collect();
            period_requests(&tasks)
        })
        .collect()
}

/// Everything one pass measured.
#[derive(Debug, Default)]
struct PassResult {
    setup_secs: f64,
    generate_secs: f64,
    wall: f64,
    rounds: Vec<f64>,
    writer: Vec<Sample>,
    polls: Vec<Sample>,
    observations: u64,
    io_errors: u64,
    plans: Vec<String>,
    tele: Option<MetricsBody>,
    replay: Replay,
}

/// The in-process replay's figures.
#[derive(Debug, Default)]
struct Replay {
    fit_secs: f64,
    fit_calls: u64,
    submit_secs: f64,
    submits: usize,
    tick_secs: f64,
    ticks: usize,
    commit_secs: f64,
    saves: u64,
    bytes: u64,
    plans: Vec<String>,
}

fn plan_json(response: &Response) -> Option<String> {
    match response {
        Response::Ticked { plan, .. } => serde_json::to_string(plan).ok(),
        _ => None,
    }
}

/// A daemon booted on a freshly generated and written trace.
struct Booted {
    daemon: Daemon,
    addr: String,
    trace: Trace,
    trace_path: PathBuf,
    snapshot: PathBuf,
    /// Trace generation, file write and boot up to the banner.
    setup_secs: f64,
    generate_secs: f64,
}

fn boot(exe: &Path, dir: &Path, seed: u64) -> io::Result<Booted> {
    let trace_path = dir.join("trace.jsonl");
    let snapshot = dir.join("daemon-ckpt.json");
    for path in [&snapshot, &state::generation_path(&snapshot)] {
        let _ = fs::remove_file(path);
    }
    let start = Instant::now();
    let trace = eval_trace(seed);
    let generate_secs = start.elapsed().as_secs_f64();
    {
        let mut out = BufWriter::new(fs::File::create(&trace_path)?);
        trace
            .write_jsonl(&mut out)
            .map_err(|e| io::Error::other(e.to_string()))?;
        io::Write::flush(&mut out)?;
    }
    let (daemon, addr) = Daemon::boot(exe, &trace_path, &snapshot)?;
    let setup_secs = start.elapsed().as_secs_f64();
    Ok(Booted {
        daemon,
        addr,
        trace,
        trace_path,
        snapshot,
        setup_secs,
        generate_secs,
    })
}

/// Asks a daemon to shut down; true when it acknowledged and exited.
fn shut_down(client: &mut Client, daemon: &mut Daemon) -> bool {
    let acknowledged = matches!(
        client.request(&Request::Shutdown),
        Ok(Response::ShuttingDown)
    );
    daemon.wait_exit() && acknowledged
}

/// One pass against a booted daemon, then the in-process replay of the
/// same requests.
fn pass(booted: Booted, log: Option<&mut SpanLog>, checks: &mut Checks) -> io::Result<PassResult> {
    let Booted {
        mut daemon,
        addr,
        trace,
        trace_path,
        snapshot,
        setup_secs,
        generate_secs,
    } = booted;
    let mut result = PassResult {
        setup_secs,
        generate_secs,
        ..PassResult::default()
    };
    let script = script(&trace);
    let stop = AtomicBool::new(false);
    let mut writer = Client::connect(&addr)?;
    let pass_start = Instant::now();
    let poller = std::thread::scope(|scope| {
        let poller = scope.spawn(|| poll(&addr, &stop));
        let mut id = 0u64;
        for (p, requests) in script.iter().enumerate() {
            let round_start = Instant::now();
            let mut round_ok = true;
            for request in requests.iter().chain(std::iter::once(&Request::GetPlan)) {
                id += 1;
                let verb = match request {
                    Request::SubmitObservations { .. } => Verb::Submit,
                    Request::Tick => Verb::Tick,
                    _ => Verb::Plan,
                };
                let now = Instant::now();
                match send(
                    &mut writer,
                    request,
                    verb,
                    id,
                    now,
                    Some(p),
                    &mut result.writer,
                ) {
                    Ok(response) => {
                        if let Response::Submitted { .. } = response {
                            if let Request::SubmitObservations { tasks } = request {
                                result.observations += tasks.len() as u64;
                            }
                        }
                        if let Some(plan) = plan_json(&response) {
                            result.plans.push(plan);
                        }
                    }
                    Err(_) => {
                        result.io_errors += 1;
                        round_ok = false;
                        break;
                    }
                }
            }
            result.rounds.push(round_start.elapsed().as_secs_f64());
            if !round_ok {
                break;
            }
        }
        result.wall = pass_start.elapsed().as_secs_f64();
        stop.store(true, Ordering::SeqCst);
        poller.join()
    });
    match poller {
        Ok(Ok((polls, errors))) => {
            result.polls = polls;
            result.io_errors += errors;
        }
        _ => result.io_errors += 1,
    }

    if let Ok(Response::Metrics(body)) = writer.request(&Request::Metrics) {
        result.tele = Some(body);
    }
    checks.record(
        shut_down(&mut writer, &mut daemon),
        "harmonyd shuts down cleanly",
    );
    match state::load_with_recovery(&snapshot) {
        Ok((checkpoint, recovery)) => checks.record(
            recovery.is_empty() && checkpoint.state.ticks == PERIODS as u64,
            format!(
                "final checkpoint decodes with {PERIODS} ticks (got {}, {} recovery events)",
                checkpoint.state.ticks,
                recovery.len()
            ),
        ),
        Err(e) => checks.record(false, format!("final checkpoint decodes: {e}")),
    }

    result.replay = replay(
        &trace_path,
        &trace_path.with_file_name("inproc-ckpt.json"),
        &script,
    )?;
    checks.record(
        result.plans.len() == PERIODS && result.plans == result.replay.plans,
        "every tick plan equals the in-process Service's plan",
    );
    if let Some(log) = log {
        record_spans(log, pass_start, &result);
    }
    Ok(result)
}

/// The open-loop poller: `status` and `get-plan` alternately, one due
/// every `POLL_INTERVAL_MS`, until `stop`. Returns its samples and the
/// count of I/O failures.
fn poll(addr: &str, stop: &AtomicBool) -> io::Result<(Vec<Sample>, u64)> {
    let mut client = Client::connect(addr)?;
    let interval = Duration::from_millis(POLL_INTERVAL_MS);
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut errors = 0;
    for k in 0u64.. {
        let due = start + interval * u32::try_from(k).unwrap_or(u32::MAX);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let (request, verb) = if k % 2 == 0 {
            (Request::Status, Verb::Status)
        } else {
            (Request::GetPlan, Verb::Plan)
        };
        if send(&mut client, &request, verb, k, due, None, &mut samples).is_err() {
            errors += 1;
            break;
        }
    }
    Ok((samples, errors))
}

/// Replays the writer's state-changing requests through an in-process
/// `Service` built exactly as `harmonyd` builds its own, each request
/// round-tripped through the wire encoding first.
fn replay(trace_path: &Path, snapshot: &Path, script: &[Vec<Request>]) -> io::Result<Replay> {
    let _ = fs::remove_file(snapshot);
    let path = trace_path.to_string_lossy();
    let (trace, source) = state::load_source(Some(&path), "jsonl", 0, SimDuration::ZERO, None)
        .map_err(io::Error::other)?;
    let mut out = Replay::default();
    let classifier_config = ClassifierConfig::default();
    let start = Instant::now();
    let classifier = TaskClassifier::fit(trace.tasks(), &classifier_config)
        .map_err(|e| io::Error::other(e.to_string()))?;
    out.fit_secs = start.elapsed().as_secs_f64();
    out.fit_calls += 1;
    let catalog_spec = CatalogSpec {
        name: CATALOG.to_owned(),
        divisor: CATALOG_DIVISOR,
    };
    let catalog = catalog_spec.build().map_err(io::Error::other)?;
    let groups: Vec<_> = classifier.classes().iter().map(|c| c.group).collect();
    let objective = ObjectiveSpec::Energy.build(&catalog, &groups);
    let config = HarmonyConfig {
        lp_backend: SolverBackend::default(),
        ..Default::default()
    };
    let pipeline = OnlinePipeline::new(classifier, catalog, config, Default::default())
        .map_err(|e| io::Error::other(e.to_string()))?
        .with_objective(objective);
    let mut service = Service::new(
        pipeline,
        classifier_config,
        source,
        catalog_spec,
        ObjectiveSpec::Energy,
        Some(snapshot.to_path_buf()),
    );
    for request in script.iter().flatten() {
        let wire = serde_json::to_string(request).map_err(|e| io::Error::other(e.to_string()))?;
        let request: Request =
            serde_json::from_str(&wire).map_err(|e| io::Error::other(e.to_string()))?;
        let is_tick = matches!(request, Request::Tick);
        let start = Instant::now();
        let (response, save) = service.handle_deferred(request);
        let secs = start.elapsed().as_secs_f64();
        if is_tick {
            out.tick_secs += secs;
            out.ticks += 1;
            out.plans.extend(plan_json(&response));
        } else {
            out.submit_secs += secs;
            out.submits += 1;
        }
        if let Some(save) = save {
            out.saves += 1;
            out.bytes += save.bytes();
            let start = Instant::now();
            save.commit()?;
            out.commit_secs += start.elapsed().as_secs_f64();
        }
    }
    Ok(out)
}

fn record_spans(log: &mut SpanLog, pass_start: Instant, result: &PassResult) {
    let pass_id = log.next_id();
    let mut round_ids = Vec::new();
    for p in 0..result.rounds.len() {
        let in_round: Vec<&Sample> = result
            .writer
            .iter()
            .filter(|s| s.round == Some(p))
            .collect();
        if let (Some(first), Some(last)) = (in_round.first(), in_round.last()) {
            round_ids.push(log.record("round", Some(pass_id), first.sent, last.done));
        }
    }
    for s in &result.writer {
        let parent = s.round.and_then(|p| round_ids.get(p).copied());
        let id = log.next_id();
        log.push(Span {
            id,
            name: s.verb.span_name(),
            parent,
            start: s.sent,
            end: s.done,
            key: Some(s.id),
        });
    }
    let poller_id = log.next_id();
    for s in &result.polls {
        let id = log.next_id();
        log.push(Span {
            id,
            name: s.verb.span_name(),
            parent: Some(poller_id),
            start: s.due,
            end: s.done,
            key: Some(s.id),
        });
    }
    let end = pass_start + Duration::from_secs_f64(result.wall);
    log.push(Span {
        id: poller_id,
        name: "poller",
        parent: Some(pass_id),
        start: pass_start,
        end,
        key: None,
    });
    log.push(Span {
        id: pass_id,
        name: "pass",
        parent: None,
        start: pass_start,
        end,
        key: None,
    });
}

fn failures(result: &PassResult) -> u64 {
    result.io_errors
        + result
            .writer
            .iter()
            .chain(&result.polls)
            .filter(|s| !s.ok)
            .count() as u64
}

/// Boots a daemon and shuts it down at once, only to time set-up;
/// returns the set-up and trace-generation seconds.
fn boot_only(exe: &Path, dir: &Path, seed: u64, checks: &mut Checks) -> Option<(f64, f64)> {
    let booted = boot(exe, dir, seed).and_then(|mut b| {
        let mut client = Client::connect(&b.addr)?;
        let clean = shut_down(&mut client, &mut b.daemon);
        Ok((clean, b.setup_secs, b.generate_secs))
    });
    match booted {
        Ok((clean, setup, generate)) => {
            checks.record(clean, "harmonyd shuts down cleanly");
            Some((setup, generate))
        }
        Err(e) => {
            checks.record(false, format!("harmonyd boot failed: {e}"));
            None
        }
    }
}

pub fn run(exe: &Path, options: &RunOptions) -> Outcome {
    let mut outcome = Outcome::default();
    let dir = Path::new(crate::OUT_DIR).join(format!("harmonyd-{}", std::process::id()));
    if let Err(e) = fs::create_dir_all(&dir) {
        outcome
            .checks
            .record(false, format!("cannot create {}: {e}", dir.display()));
        return outcome;
    }
    let mut log = SpanLog::new(Instant::now());
    let mut plain_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut setup_secs = Vec::new();
    let mut generate_secs = Vec::new();
    let mut checks = Checks::default();
    // Untraced: pass `n` replays trace `n`, so the run's figures cover as
    // many traces as passes. Traced: an untraced and a traced pass replay
    // each trace in turn, so the overhead compares like with like.
    let round = if options.traced { 2 } else { 1 };
    let passes = cycle(round, MIN_PASSES, options.seconds, |n| {
        let traced = options.traced && n % 2 == 1;
        let seed = sub_seed(options.seed, n / round);
        // A second boot only times set-up: the daemon's classifier fit
        // makes set-up noisy, so it is sampled twice per pass.
        if let Some((setup, generate)) = boot_only(exe, &dir, seed, &mut checks) {
            setup_secs.push(setup);
            generate_secs.push(generate);
        }
        let result = boot(exe, &dir, seed)
            .and_then(|booted| pass(booted, traced.then_some(&mut log), &mut checks));
        (traced, result)
    });
    outcome.checks = checks;
    // Every pass counts towards `ops` and failures; layer figures come
    // from the traced passes only.
    let mut results = Vec::new();
    let mut clean = true;
    let passes_run = passes.len();
    for (traced, result) in passes {
        match result {
            Ok(r) => {
                setup_secs.push(r.setup_secs);
                generate_secs.push(r.generate_secs);
                outcome.ops += (r.writer.len() + r.polls.len()) as u64;
                outcome.ops_failed += failures(&r);
                clean &= failures(&r) == 0;
                if traced {
                    traced_walls.push(r.wall);
                } else {
                    plain_walls.push(r.wall);
                }
                if traced || !options.traced {
                    results.push(r);
                }
            }
            Err(e) => {
                outcome
                    .checks
                    .record(false, format!("harmonyd pass failed: {e}"));
                outcome.ops_failed += 1;
            }
        }
    }
    let _ = fs::remove_dir_all(&dir);
    outcome.checks.record(
        clean,
        "no response is an error, overloaded, or an I/O failure",
    );
    outcome.pass_walls = results.iter().map(|r| r.wall).collect();
    if results.is_empty() {
        return outcome;
    }
    outcome.e2e.push(Metric::new(
        "setup_s",
        "s",
        median(&setup_secs),
        setup_secs.len(),
    ));
    outcome.sizes = vec![
        ("periods", PERIODS as f64),
        ("frame_tasks", FRAME_TASKS as f64),
        ("poll_per_s", 1000.0 / POLL_INTERVAL_MS as f64),
        (
            "machines",
            (harmony_model::MachineCatalog::table2().total_machines() / CATALOG_DIVISOR) as f64,
        ),
        (
            "tasks_per_pass_mean",
            mean(
                &results
                    .iter()
                    .map(|r| r.observations as f64)
                    .collect::<Vec<_>>(),
            ),
        ),
        ("passes", results.len() as f64),
        ("traces", (passes_run / round) as f64),
    ];
    if options.traced {
        outcome.layers = crate::median_layers(&results.iter().map(layers).collect::<Vec<_>>());
        outcome.layers.push(Metric::new(
            "trace_gen_s",
            "s",
            median(&generate_secs),
            generate_secs.len(),
        ));
        outcome.layers.push(Metric::new(
            "trace_overhead_s",
            "s",
            median(&traced_walls) - median(&plain_walls),
            traced_walls.len(),
        ));
        outcome.spans = Some(log);
    } else {
        let rounds: Vec<f64> = results
            .iter()
            .flat_map(|r| r.rounds.iter().copied())
            .collect();
        let polls: Vec<f64> = results
            .iter()
            .flat_map(|r| r.polls.iter().map(Sample::since_due_secs))
            .collect();
        let late: Vec<f64> = results
            .iter()
            .flat_map(|r| r.polls.iter().map(Sample::late_secs))
            .collect();
        let walls: Vec<f64> = results.iter().map(|r| r.wall).collect();
        let throughputs: Vec<f64> = results
            .iter()
            .map(|r| ratio(r.observations as f64, r.wall))
            .collect();
        let obs_per_s = median(&throughputs);
        outcome.e2e.extend([
            Metric::new("wall_s", "s", median(&walls), walls.len()),
            Metric::new("tasks_per_s", "1/s", obs_per_s, results.len()),
            Metric::quantile_ms("period_p50_ms", &rounds, 0.5),
            Metric::quantile_ms("period_p90_ms", &rounds, 0.9),
            Metric::quantile_ms("round_p50_ms", &rounds, 0.5),
            Metric::quantile_ms("round_p90_ms", &rounds, 0.9),
            Metric::new("obs_per_s", "1/s", obs_per_s, results.len()),
            Metric::quantile_ms("poll_p50_ms", &polls, 0.5),
            Metric::quantile_ms("poll_p90_ms", &polls, 0.9),
            Metric::quantile_ms("poll_late_p90_ms", &late, 0.9),
            Metric::new(
                "poll_late_max_ms",
                "ms",
                late.iter().copied().fold(0.0, f64::max) * 1e3,
                late.len(),
            ),
        ]);
    }
    outcome
}

/// Per-layer figures of one traced pass.
fn layers(r: &PassResult) -> Vec<Metric> {
    let verb_secs = |verb: Verb| -> Vec<f64> {
        r.writer
            .iter()
            .filter(|s| s.verb == verb)
            .map(Sample::service_secs)
            .collect()
    };
    let polls: Vec<f64> = r.polls.iter().map(Sample::since_due_secs).collect();
    let late: Vec<f64> = r.polls.iter().map(Sample::late_secs).collect();
    let client_total: f64 = r
        .writer
        .iter()
        .chain(&r.polls)
        .map(Sample::service_secs)
        .sum();
    let requests = r.writer.len() + r.polls.len();
    let empty = MetricsBody::default();
    let body = r.tele.as_ref().unwrap_or(&empty);
    let handle = tele::hist_sum(body, "server.request_seconds");
    let mut out = vec![
        Metric::new(
            "kmeans_fit_s",
            "s",
            r.replay.fit_secs,
            r.replay.fit_calls as usize,
        ),
        Metric::new("kmeans_fit_calls", "count", r.replay.fit_calls as f64, 1),
        Metric::quantile_ms("net_submit_p50_ms", &verb_secs(Verb::Submit), 0.5),
        Metric::quantile_ms("net_tick_p50_ms", &verb_secs(Verb::Tick), 0.5),
        Metric::quantile_ms("net_plan_p50_ms", &verb_secs(Verb::Plan), 0.5),
        Metric::new("net_requests", "count", requests as f64, 1),
        Metric::new(
            "server_handle_s",
            "s",
            handle,
            tele::hist_count(body, "server.request_seconds") as usize,
        ),
        Metric::new("net_wait_s", "s", client_total - handle, requests),
        Metric::quantile_ms("poll_p50_ms", &polls, 0.5),
        Metric::quantile_ms("poll_p90_ms", &polls, 0.9),
        Metric::quantile_ms("poll_late_p90_ms", &late, 0.9),
        Metric::new("svc_submit_s", "s", r.replay.submit_secs, r.replay.submits),
        Metric::new("svc_tick_s", "s", r.replay.tick_secs, r.replay.ticks),
        Metric::new(
            "state_commit_s",
            "s",
            r.replay.commit_secs,
            r.replay.saves as usize,
        ),
        Metric::new("state_saves", "count", r.replay.saves as f64, 1),
        Metric::new(
            "state_bytes",
            "B",
            r.replay.bytes as f64,
            r.replay.saves as usize,
        ),
    ];
    out.extend(crate::stage_layers(body));
    out
}
