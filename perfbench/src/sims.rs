//! The in-process simulation workloads: `eval_day` (Section IX's
//! three-controller comparison) and `engine_10k` (an open-loop replay on
//! all 10,000 Table II machines).
//!
//! Layers are timed from outside: the `Controller` and `Scheduler`
//! trait objects handed to `Simulation::new`/`with_controller` are
//! wrapped, `TaskClassifier::fit` and `Simulation::run` are timed at the
//! call, and stage times come from the `count`/`sum` of telemetry the
//! program already records.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use harmony::classify::{ClassifierConfig, TaskClassifier};
use harmony::controllers::{
    BaselineController, CbpController, CbsController, QuotaScheduler, QuotaState,
};
use harmony::pipeline::{run_variant, Variant};
use harmony::{CbsObjective, HarmonyConfig, HarmonyError};
use harmony_model::{EnergyPrice, MachineCatalog, SimDuration, Task};
use harmony_server::MetricsBody;
use harmony_sim::{
    Cluster, ControlDecision, Controller, DegradationEvent, EnergyEfficientFirstFit, FirstFit,
    MachineId, Observation, Scheduler, SimReport, Simulation, SimulationConfig,
};
use harmony_trace::{Trace, TraceConfig, TraceGenerator};

use crate::spans::{Span, SpanLog};
use crate::stats::{mean, median, ratio, Metric};
use crate::{cycle, sub_seed, tele, Checks, Outcome, RunOptions};

/// Passes a run makes at least. Each pass runs a trace of its own, so
/// the run's medians are over as many traces as passes and one seed's
/// luck (k-means iterations, LP pivots) moves them less.
const MIN_PASSES: usize = 2;
/// Set-up samples each pass takes: timed generations of its trace.
const SETUP_REPEATS: usize = 3;

/// `eval_day`: the 1-day evaluation trace on Table II ÷ 10 (1,000
/// machines), 15-minute control period, horizon 4 — `evaluation_setup`
/// at default scale, which `fig21_26_controllers` runs.
pub const EVAL_SPAN_DAYS: f64 = 1.0;
pub const EVAL_CATALOG_DIVISOR: usize = 10;
pub const EVAL_PERIOD_MINS: f64 = 15.0;
pub const EVAL_HORIZON: usize = 4;

/// `engine_10k`: `sim_scale`'s 10k calibration shape — `google_like`
/// arrivals on 2-minute bins over 1.5 h, all 10,000 machines on,
/// First-Fit — at ×300 arrival rates, below the saturation cliff for
/// every seed (×400 saturates on most seeds).
pub const ENGINE_SPAN_HOURS: f64 = 1.5;
pub const ENGINE_RATE_MULTIPLIER: f64 = 300.0;
pub const ENGINE_BIN_MINS: f64 = 2.0;

pub fn eval_trace(seed: u64) -> Trace {
    TraceGenerator::new(
        TraceConfig::evaluation()
            .with_span(SimDuration::from_days(EVAL_SPAN_DAYS))
            .with_seed(seed),
    )
    .generate()
}

fn engine_trace(seed: u64) -> Trace {
    let mut config = TraceConfig::google_like()
        .with_span(SimDuration::from_hours(ENGINE_SPAN_HOURS))
        .with_seed(seed);
    for arrivals in &mut config.arrivals {
        arrivals.base_jobs_per_sec *= ENGINE_RATE_MULTIPLIER;
    }
    config.bin = SimDuration::from_mins(ENGINE_BIN_MINS);
    TraceGenerator::new(config).generate()
}

/// Generates the trace of `seed` `SETUP_REPEATS` times, recording the
/// start and end of each generation as a set-up sample, and returns it.
/// Each pass generates its trace just before it runs, so the set-up
/// samples spread over the run as the passes do.
fn generate_timed(
    generate: fn(u64) -> Trace,
    seed: u64,
    times: &mut Vec<(Instant, Instant)>,
) -> Trace {
    let mut timed = || {
        let start = Instant::now();
        let trace = std::hint::black_box(generate(seed));
        times.push((start, Instant::now()));
        trace
    };
    for _ in 1..SETUP_REPEATS {
        timed();
    }
    timed()
}

fn durations(times: &[(Instant, Instant)]) -> Vec<f64> {
    times
        .iter()
        .map(|(s, e)| e.duration_since(*s).as_secs_f64())
        .collect()
}

/// What the wrappers saw during one simulation run.
#[derive(Debug, Default)]
struct Probe {
    /// Host instants that close one period: each `decide` call, or each
    /// crossing of an arrival-bin edge.
    marks: Vec<Instant>,
    decides: Vec<(Instant, Instant)>,
    place_calls: u64,
    place_hits: u64,
    place_secs: f64,
}

type ProbeRef = Rc<RefCell<Probe>>;

/// Forwards every `Controller` method, timing `decide`.
#[derive(Debug)]
struct ProbedController {
    inner: Box<dyn Controller>,
    probe: ProbeRef,
}

impl Controller for ProbedController {
    fn control_period(&self) -> SimDuration {
        self.inner.control_period()
    }

    fn decide(&mut self, observation: &Observation<'_>) -> ControlDecision {
        let start = Instant::now();
        let decision = self.inner.decide(observation);
        let end = Instant::now();
        let mut probe = self.probe.borrow_mut();
        probe.marks.push(start);
        probe.decides.push((start, end));
        decision
    }

    fn take_degradations(&mut self) -> Vec<DegradationEvent> {
        self.inner.take_degradations()
    }
}

/// Forwards every `Scheduler` method. Traced, it counts and times each
/// `place` in aggregate (it runs millions of times per run); with a
/// bin width, it marks the first `place` of each arrival bin.
#[derive(Debug)]
struct ProbedScheduler {
    inner: Box<dyn Scheduler>,
    probe: ProbeRef,
    traced: bool,
    bin: Option<(f64, f64)>,
}

impl ProbedScheduler {
    fn new(
        inner: Box<dyn Scheduler>,
        probe: &ProbeRef,
        traced: bool,
        bin_secs: Option<f64>,
    ) -> Self {
        ProbedScheduler {
            inner,
            probe: Rc::clone(probe),
            traced,
            bin: bin_secs.map(|w| (w, w)),
        }
    }
}

impl Scheduler for ProbedScheduler {
    fn place(&mut self, task: &Task, cluster: &Cluster) -> Option<MachineId> {
        if let Some((width, edge)) = &mut self.bin {
            let arrival = task.arrival.as_secs();
            if arrival >= *edge {
                self.probe.borrow_mut().marks.push(Instant::now());
                *edge = (arrival / *width).floor() * *width + *width;
            }
        }
        if !self.traced {
            return self.inner.place(task, cluster);
        }
        let start = Instant::now();
        let placed = self.inner.place(task, cluster);
        let secs = start.elapsed().as_secs_f64();
        let mut probe = self.probe.borrow_mut();
        probe.place_calls += 1;
        probe.place_hits += u64::from(placed.is_some());
        probe.place_secs += secs;
        placed
    }

    fn on_placed(&mut self, task: &Task, machine: MachineId, cluster: &Cluster) {
        self.inner.on_placed(task, machine, cluster);
    }

    fn on_finished(&mut self, task: &Task, machine: MachineId, cluster: &Cluster) {
        self.inner.on_finished(task, machine, cluster);
    }
}

/// Per-layer tallies of one traced pass, summed over its simulations.
#[derive(Debug, Default)]
struct Tally {
    fit_secs: f64,
    fit_calls: u64,
    decide_secs: Vec<f64>,
    place_calls: u64,
    place_hits: u64,
    place_secs: f64,
    run_secs: f64,
}

/// One timed simulation: its report and what the probe saw.
struct ProbedRun {
    report: SimReport,
    /// Host seconds of each period, from `Simulation::run`'s start
    /// through every mark to its end.
    periods: Vec<f64>,
}

fn finish_run(
    sim: Simulation<'_>,
    probe: &ProbeRef,
    tally: &mut Tally,
    log: Option<(&mut SpanLog, u64)>,
) -> ProbedRun {
    let start = Instant::now();
    let report = sim.run();
    let end = Instant::now();
    let probe = std::mem::take(&mut *probe.borrow_mut());
    let mut edges = vec![start];
    edges.extend(probe.marks.iter().copied());
    edges.push(end);
    let periods = edges
        .windows(2)
        .map(|w| w[1].duration_since(w[0]).as_secs_f64())
        .collect();
    tally.run_secs += end.duration_since(start).as_secs_f64();
    tally.place_calls += probe.place_calls;
    tally.place_hits += probe.place_hits;
    tally.place_secs += probe.place_secs;
    for &(s, e) in &probe.decides {
        tally.decide_secs.push(e.duration_since(s).as_secs_f64());
    }
    if let Some((log, parent)) = log {
        let run_id = log.record("sim_run", Some(parent), start, end);
        for &(s, e) in &probe.decides {
            log.record("decide", Some(run_id), s, e);
        }
    }
    ProbedRun { report, periods }
}

/// The evaluation setup every `eval_day` simulation shares.
struct EvalSetup {
    catalog: MachineCatalog,
    harmony: HarmonyConfig,
    classifier: ClassifierConfig,
}

impl EvalSetup {
    fn new() -> Self {
        EvalSetup {
            catalog: MachineCatalog::table2().scaled(EVAL_CATALOG_DIVISOR),
            harmony: HarmonyConfig {
                control_period: SimDuration::from_mins(EVAL_PERIOD_MINS),
                horizon: EVAL_HORIZON,
                ..Default::default()
            },
            classifier: ClassifierConfig::default(),
        }
    }

    fn fit(
        &self,
        trace: &Trace,
        tally: &mut Tally,
        log: &mut Option<(&mut SpanLog, u64)>,
    ) -> Result<Rc<TaskClassifier>, HarmonyError> {
        let start = Instant::now();
        let classifier = TaskClassifier::fit(trace.tasks(), &self.classifier)?;
        let end = Instant::now();
        tally.fit_secs += end.duration_since(start).as_secs_f64();
        tally.fit_calls += 1;
        if let Some((log, parent)) = log {
            log.record("kmeans_fit", Some(*parent), start, end);
        }
        Ok(Rc::new(classifier))
    }

    /// `pipeline::run_variant` with the scheduler and controller wrapped:
    /// the same construction, objective and simulation configuration, so
    /// its report must serialize byte-identically to `run_variant`'s —
    /// checked in untraced and traced runs alike. It serves the period
    /// marks and the traced layers only; `wall_s` and the throughputs
    /// time `run_variant` itself.
    fn run_variant(
        &self,
        trace: &Trace,
        variant: Variant,
        traced: bool,
        tally: &mut Tally,
        mut log: Option<(&mut SpanLog, u64)>,
    ) -> Result<ProbedRun, HarmonyError> {
        let price = EnergyPrice::default();
        let sim_config = SimulationConfig::new(self.catalog.clone())
            .price(price.clone())
            .without_preemption();
        let period = self.harmony.control_period;
        let (scheduler, controller): (Box<dyn Scheduler>, Box<dyn Controller>) = match variant {
            Variant::Baseline => (
                Box::new(EnergyEfficientFirstFit::new(&Cluster::new(
                    self.catalog.clone(),
                ))),
                Box::new(BaselineController::new(period)),
            ),
            Variant::Cbs => {
                let classifier = self.fit(trace, tally, &mut log)?;
                let quota = Rc::new(RefCell::new(QuotaState::default()));
                let controller = CbsController::new(
                    Rc::clone(&classifier),
                    self.harmony.clone(),
                    price,
                    Rc::clone(&quota),
                )?
                .with_objective(CbsObjective::Energy);
                (
                    Box::new(QuotaScheduler::new(classifier, quota)),
                    Box::new(controller),
                )
            }
            Variant::Cbp => {
                let classifier = self.fit(trace, tally, &mut log)?;
                let controller = CbpController::new(classifier, self.harmony.clone(), price)?
                    .with_objective(CbsObjective::Energy);
                (
                    Box::new(EnergyEfficientFirstFit::new(&Cluster::new(
                        self.catalog.clone(),
                    ))),
                    Box::new(controller),
                )
            }
        };
        let probe = ProbeRef::default();
        let sim = Simulation::new(
            sim_config,
            trace,
            Box::new(ProbedScheduler::new(scheduler, &probe, traced, None)),
        )
        .with_controller(Box::new(ProbedController {
            inner: controller,
            probe: Rc::clone(&probe),
        }));
        Ok(finish_run(sim, &probe, tally, log))
    }
}

fn engine_config() -> SimulationConfig {
    SimulationConfig::new(MachineCatalog::table2()).all_machines_on()
}

/// Task conservation: every task of the trace is accounted for exactly
/// once at the end of the run.
fn conserved(report: &SimReport, tasks: usize) -> bool {
    report.tasks_completed
        + report.tasks_running_at_end
        + report.tasks_pending_at_end
        + report.tasks_unschedulable
        + report.tasks_failed
        == tasks
}

fn report_json(report: &SimReport) -> String {
    serde_json::to_string(report).unwrap_or_default()
}

fn sim_events(body: &MetricsBody) -> f64 {
    tele::counter_prefix(body, "sim.events.")
}

/// Whether two passes' reports serialize byte-identically, in order.
fn same_reports(a: &Reports, b: &Reports) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((_, x), (_, y))| report_json(x) == report_json(y))
}

/// The reports of one pass, named by variant, in run order.
type Reports = Vec<(&'static str, SimReport)>;

/// One untraced pass over one trace.
struct Pass {
    trace: usize,
    tasks: usize,
    /// Host seconds of the pass through the program's own entry points.
    wall: f64,
    reports: Reports,
    events: f64,
    /// Host seconds of each period, from the wrapped copy on the passes
    /// that ran it.
    periods: Vec<f64>,
    /// Whether the wrapped copy's reports equal `reports` byte for
    /// byte, on the passes that ran it.
    copy_matches: Option<bool>,
}

/// Which simulation workload a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimWorkload {
    EvalDay,
    Engine10k,
}

impl SimWorkload {
    fn generator(self) -> fn(u64) -> Trace {
        match self {
            SimWorkload::EvalDay => eval_trace,
            SimWorkload::Engine10k => engine_trace,
        }
    }

    /// One pass over `trace`; traced when `log` is given.
    fn pass(
        self,
        setup: &EvalSetup,
        trace: &Trace,
        tally: &mut Tally,
        mut log: Option<&mut SpanLog>,
    ) -> Result<(Reports, Vec<f64>), HarmonyError> {
        let traced = log.is_some();
        let mut reports = Vec::new();
        let mut periods = Vec::new();
        let runs: Vec<(&'static str, &'static str, Option<Variant>)> = match self {
            SimWorkload::EvalDay => Variant::ALL
                .iter()
                .map(|&v| (v.name(), variant_span(v), Some(v)))
                .collect(),
            SimWorkload::Engine10k => vec![("first-fit", "replay", None)],
        };
        for (name, span_name, variant) in runs {
            let start = Instant::now();
            let id = log.as_deref_mut().map(SpanLog::next_id);
            let child_log = log.as_deref_mut().zip(id);
            let run = match variant {
                Some(v) => setup.run_variant(trace, v, traced, tally, child_log)?,
                None => {
                    let probe = ProbeRef::default();
                    let bin = SimDuration::from_mins(ENGINE_BIN_MINS).as_secs();
                    let scheduler =
                        ProbedScheduler::new(Box::new(FirstFit), &probe, traced, Some(bin));
                    let sim = Simulation::new(engine_config(), trace, Box::new(scheduler));
                    finish_run(sim, &probe, tally, child_log)
                }
            };
            if let (Some(l), Some(id)) = (log.as_deref_mut(), id) {
                let end = Instant::now();
                l.push(Span {
                    id,
                    name: span_name,
                    parent: None,
                    start,
                    end,
                    key: None,
                });
            }
            // A period's cost is summed over the variants that simulate
            // it, so one sample is what the comparison spends on one
            // control period.
            if periods.is_empty() {
                periods = run.periods;
            } else {
                periods
                    .iter_mut()
                    .zip(&run.periods)
                    .for_each(|(a, b)| *a += b);
            }
            reports.push((name, run.report));
        }
        Ok((reports, periods))
    }

    /// The same pass through the program's own entry points, with no
    /// wrapper at all: `run_variant` for `eval_day`, a bare `FirstFit`
    /// replay for `engine_10k`.
    fn plain_pass(self, setup: &EvalSetup, trace: &Trace) -> Result<Reports, HarmonyError> {
        match self {
            SimWorkload::EvalDay => Variant::ALL
                .iter()
                .map(|&v| {
                    run_variant(trace, &setup.catalog, &setup.harmony, &setup.classifier, v)
                        .map(|r| (v.name(), r))
                })
                .collect(),
            SimWorkload::Engine10k => {
                let report = Simulation::new(engine_config(), trace, Box::new(FirstFit)).run();
                Ok(vec![("first-fit", report)])
            }
        }
    }
}

fn variant_span(variant: Variant) -> &'static str {
    match variant {
        Variant::Baseline => "variant_baseline",
        Variant::Cbs => "variant_cbs",
        Variant::Cbp => "variant_cbp",
    }
}

/// Conservation on every report and a digest of each; returns the
/// digests in report order.
fn check_reports(
    checks: &mut Checks,
    trace_idx: usize,
    tasks: usize,
    reports: &[(&'static str, SimReport)],
) -> Vec<(String, u64)> {
    reports
        .iter()
        .map(|(name, report)| {
            checks.record(
                conserved(report, tasks),
                format!("trace {trace_idx} {name}: task conservation"),
            );
            (
                format!("trace{trace_idx}/{name}"),
                crate::stats::fnv1a64(report_json(report).as_bytes()),
            )
        })
        .collect()
}

pub fn run(workload: SimWorkload, options: &RunOptions) -> Outcome {
    let setup = EvalSetup::new();
    let mut outcome = Outcome::default();
    let mut setup_times = Vec::new();
    let tasks = if options.traced {
        traced_run(workload, &setup, &mut setup_times, options, &mut outcome)
    } else {
        let tasks = untraced_run(workload, &setup, &mut setup_times, options, &mut outcome);
        let setup_secs = durations(&setup_times);
        outcome.e2e.insert(
            0,
            Metric::new("setup_s", "s", median(&setup_secs), setup_secs.len()),
        );
        tasks
    };
    outcome.sizes = sizes(workload, &tasks, &setup);
    outcome
}

/// The run's sizes, given the task count of each trace it ran.
fn sizes(workload: SimWorkload, tasks: &[f64], setup: &EvalSetup) -> Vec<(&'static str, f64)> {
    let mut out = vec![
        ("traces", tasks.len() as f64),
        ("tasks_trace0", tasks.first().copied().unwrap_or(0.0)),
        ("tasks_mean", mean(tasks)),
    ];
    match workload {
        SimWorkload::EvalDay => out.extend([
            ("machines", setup.catalog.total_machines() as f64),
            ("periods", EVAL_SPAN_DAYS * 24.0 * 60.0 / EVAL_PERIOD_MINS),
            ("horizon", EVAL_HORIZON as f64),
        ]),
        SimWorkload::Engine10k => out.extend([
            ("machines", MachineCatalog::table2().total_machines() as f64),
            ("periods", ENGINE_SPAN_HOURS * 60.0 / ENGINE_BIN_MINS),
        ]),
    }
    out
}

/// Pass `n` generates trace `n` and runs it through the program's own
/// entry points, timed; every other pass runs it again through the
/// wrapped copy, whose controller and scheduler mark the periods.
/// Returns the task count of each trace run.
fn untraced_run(
    workload: SimWorkload,
    setup: &EvalSetup,
    setup_times: &mut Vec<(Instant, Instant)>,
    options: &RunOptions,
    outcome: &mut Outcome,
) -> Vec<f64> {
    let mut tally = Tally::default();
    let passes = cycle(1, MIN_PASSES, options.seconds, |n| {
        let trace = generate_timed(workload.generator(), sub_seed(options.seed, n), setup_times);
        harmony_telemetry::global().reset();
        let start = Instant::now();
        let reports = workload.plain_pass(setup, &trace);
        let wall = start.elapsed().as_secs_f64();
        let events = sim_events(&tele::global());
        reports.and_then(|reports| {
            let (periods, copy_matches) = if n % 2 == 0 {
                let (copy, periods) = workload.pass(setup, &trace, &mut tally, None)?;
                (periods, Some(same_reports(&reports, &copy)))
            } else {
                (Vec::new(), None)
            };
            Ok(Pass {
                trace: n,
                tasks: trace.len(),
                wall,
                reports,
                events,
                periods,
                copy_matches,
            })
        })
    });
    let mut ok = Vec::new();
    for pass in passes {
        match pass {
            Ok(p) => ok.push(p),
            Err(e) => {
                outcome.checks.record(false, format!("pass failed: {e}"));
                outcome.ops_failed += 1;
            }
        }
    }
    for pass in &ok {
        let digests = check_reports(&mut outcome.checks, pass.trace, pass.tasks, &pass.reports);
        outcome.digests.extend(digests);
        if let Some(same) = pass.copy_matches {
            outcome.checks.record(
                same,
                format!(
                    "trace {}: the wrapped copy's reports serialize byte-identically \
to the program's own",
                    pass.trace
                ),
            );
        }
        for (_, report) in &pass.reports {
            outcome.ops += pass.tasks as u64;
            outcome.ops_failed += (report.tasks_unschedulable + report.tasks_failed) as u64;
            outcome.unserved += report.tasks_pending_at_end as u64;
        }
    }
    outcome.pass_walls = ok.iter().map(|p| p.wall).collect();
    if ok.is_empty() {
        return Vec::new();
    }

    let walls: Vec<f64> = ok.iter().map(|p| p.wall).collect();
    let throughputs: Vec<f64> = ok
        .iter()
        .map(|p| ratio((p.tasks * p.reports.len()) as f64, p.wall))
        .collect();
    let periods: Vec<f64> = ok.iter().flat_map(|p| p.periods.iter().copied()).collect();
    let events_per_s: Vec<f64> = ok.iter().map(|p| ratio(p.events, p.wall)).collect();
    outcome.e2e.extend([
        Metric::new("wall_s", "s", median(&walls), walls.len()),
        Metric::new(
            "tasks_per_s",
            "1/s",
            median(&throughputs),
            throughputs.len(),
        ),
        Metric::quantile_ms("period_p50_ms", &periods, 0.5),
        Metric::quantile_ms("period_p90_ms", &periods, 0.9),
        Metric::new(
            "events_per_s",
            "1/s",
            median(&events_per_s),
            events_per_s.len(),
        ),
    ]);
    if workload == SimWorkload::EvalDay {
        for (variant, wh, delay) in [
            ("CBS", "cbs_wh_per_task", "cbs_delay_mean_s"),
            ("CBP", "cbp_wh_per_task", "cbp_delay_mean_s"),
        ] {
            let reports: Vec<&SimReport> = ok
                .iter()
                .filter_map(|p| {
                    p.reports
                        .iter()
                        .find(|(n, _)| *n == variant)
                        .map(|(_, r)| r)
                })
                .collect();
            let per_task: Vec<f64> = reports
                .iter()
                .map(|r| ratio(r.total_energy_wh, r.tasks_completed as f64))
                .collect();
            let delays: Vec<f64> = reports
                .iter()
                .map(|r| r.delay_stats_overall().mean)
                .collect();
            outcome
                .e2e
                .push(Metric::new(wh, "Wh", mean(&per_task), reports.len()));
            outcome
                .e2e
                .push(Metric::new(delay, "s", mean(&delays), reports.len()));
        }
    }
    ok.iter().map(|p| p.tasks as f64).collect()
}

/// Plain and traced passes over trace 0 alternate, so the tracing
/// overhead compares like with like. Returns trace 0's task count.
fn traced_run(
    workload: SimWorkload,
    setup: &EvalSetup,
    setup_times: &mut Vec<(Instant, Instant)>,
    options: &RunOptions,
    outcome: &mut Outcome,
) -> Vec<f64> {
    let mut plain_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut layer_sets: Vec<Vec<Metric>> = Vec::new();
    let started = Instant::now();
    let mut log = SpanLog::new(started);
    let mut tasks;
    loop {
        let trace = generate_timed(workload.generator(), options.seed, setup_times);
        tasks = trace.len();
        let start = Instant::now();
        let plain = workload.plain_pass(setup, &trace);
        plain_walls.push(start.elapsed().as_secs_f64());

        harmony_telemetry::global().reset();
        let mut tally = Tally::default();
        let start = Instant::now();
        let traced = workload.pass(setup, &trace, &mut tally, Some(&mut log));
        traced_walls.push(start.elapsed().as_secs_f64());
        let body = tele::global();

        match (plain, traced) {
            (Ok(plain), Ok((reports, _))) => {
                let digests = check_reports(&mut outcome.checks, 0, tasks, &reports);
                if outcome.digests.is_empty() {
                    outcome.digests = digests;
                }
                outcome.checks.record(
                    same_reports(&plain, &reports),
                    "traced reports serialize byte-identically to untraced ones",
                );
                for (_, report) in &reports {
                    outcome.ops += tasks as u64;
                    outcome.ops_failed += (report.tasks_unschedulable + report.tasks_failed) as u64;
                    outcome.unserved += report.tasks_pending_at_end as u64;
                }
                layer_sets.push(layers(&tally, &body));
            }
            (plain, traced) => {
                for e in [plain.err(), traced.err()].into_iter().flatten() {
                    outcome.checks.record(false, format!("pass failed: {e}"));
                }
                outcome.ops_failed += 1;
            }
        }
        if started.elapsed().as_secs_f64() >= options.seconds {
            break;
        }
    }
    outcome.pass_walls = traced_walls.clone();
    outcome.layers = crate::median_layers(&layer_sets);
    for &(start, end) in setup_times.iter() {
        log.record("trace_generate", None, start, end);
    }
    let gen_secs = durations(setup_times);
    outcome.layers.push(Metric::new(
        "trace_gen_s",
        "s",
        median(&gen_secs),
        gen_secs.len(),
    ));
    outcome.layers.push(Metric::new(
        "trace_overhead_s",
        "s",
        median(&traced_walls) - median(&plain_walls),
        traced_walls.len(),
    ));
    outcome.spans = Some(log);
    vec![tasks as f64]
}

/// Per-layer figures of one traced pass.
fn layers(tally: &Tally, body: &MetricsBody) -> Vec<Metric> {
    let decide_s: f64 = tally.decide_secs.iter().sum();
    let stage_s: f64 = [
        "pipeline.classify_seconds",
        "pipeline.forecast_seconds",
        "pipeline.sizing_seconds",
        "pipeline.lp_seconds",
        "pipeline.rounding_seconds",
    ]
    .iter()
    .map(|key| tele::hist_sum(body, key))
    .sum();
    let n = tally.decide_secs.len();
    let mut out = vec![
        Metric::new(
            "kmeans_fit_s",
            "s",
            tally.fit_secs,
            tally.fit_calls as usize,
        ),
        Metric::new("kmeans_fit_calls", "count", tally.fit_calls as f64, 1),
        Metric::new("ctl_decide_s", "s", decide_s, n),
        Metric::new("ctl_decide_calls", "count", n as f64, 1),
        Metric::quantile_ms("ctl_decide_p50_ms", &tally.decide_secs, 0.5),
        Metric::quantile_ms("ctl_decide_p90_ms", &tally.decide_secs, 0.9),
        Metric::new(
            "ctl_unattributed_s",
            "s",
            if n > 0 { decide_s - stage_s } else { 0.0 },
            n,
        ),
        Metric::new("sched_place_calls", "count", tally.place_calls as f64, 1),
        Metric::new("sched_place_hits", "count", tally.place_hits as f64, 1),
        Metric::new(
            "sched_hit_ratio",
            "ratio",
            ratio(tally.place_hits as f64, tally.place_calls as f64),
            tally.place_calls as usize,
        ),
        Metric::new(
            "sched_place_s",
            "s",
            tally.place_secs,
            tally.place_calls as usize,
        ),
        Metric::new("sim_run_s", "s", tally.run_secs, 1),
        Metric::new(
            "sim_self_s",
            "s",
            tally.run_secs - decide_s - tally.place_secs,
            1,
        ),
        Metric::new("sim_events", "count", sim_events(body), 1),
        Metric::new(
            "sim_pending_peak",
            "count",
            tele::gauge(body, "sim.pending_peak"),
            1,
        ),
    ];
    out.extend(crate::stage_layers(body));
    out
}
