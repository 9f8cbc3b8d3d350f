//! Differential test: the simulator's controllers and `harmonyd`'s
//! online pipeline run the same control period.
//!
//! A small trace runs through the simulator once under CBP and once
//! under CBS. A recording wrapper clones every period's
//! [`ControlInput`], the plan the controller actuated, and the
//! degradation events it reported. Replaying the recorded inputs into a
//! fresh [`OnlinePipeline`] built from the same classifier, catalog and
//! config must reproduce the plans and events exactly — once with the
//! default pivot budget, and once with a one-pivot budget that fails
//! every real solve and so walks the degradation ladder.

use std::cell::RefCell;
use std::rc::Rc;

use harmony::classify::{ClassifierConfig, TaskClassifier};
use harmony::controllers::{CbpController, CbsController, QuotaScheduler, QuotaState};
use harmony::rounding::IntegerPlan;
use harmony::{ControlInput, HarmonyConfig, OnlinePipeline};
use harmony_model::{EnergyPrice, MachineCatalog, SimDuration, SimTime, Task};
use harmony_sim::{
    Cluster, ControlDecision, Controller, DegradationEvent, DegradationKind,
    EnergyEfficientFirstFit, Observation, Scheduler, Simulation, SimulationConfig, TaskView,
};
use harmony_trace::{Trace, TraceConfig, TraceGenerator};

/// A simulator controller that reports the plan it last actuated.
trait Adapter: Controller {
    fn last_actuated(&self) -> Option<&IntegerPlan>;
}

impl Adapter for CbpController {
    fn last_actuated(&self) -> Option<&IntegerPlan> {
        CbpController::last_actuated(self)
    }
}

impl Adapter for CbsController {
    fn last_actuated(&self) -> Option<&IntegerPlan> {
        CbsController::last_actuated(self)
    }
}

/// An owned copy of one period's [`ControlInput`] and what the
/// controller did with it.
#[derive(Debug)]
struct Period {
    now: SimTime,
    arrived: Vec<Task>,
    pending: Vec<Task>,
    running: Vec<Task>,
    active: Vec<usize>,
    actuated: Option<IntegerPlan>,
}

impl Period {
    fn input(&self) -> ControlInput<'_> {
        ControlInput {
            now: self.now,
            arrived: TaskView::dense(&self.arrived),
            pending: TaskView::dense(&self.pending),
            running: TaskView::dense(&self.running),
            active: self.active.clone(),
        }
    }
}

#[derive(Debug, Default)]
struct Log {
    periods: Vec<Period>,
    events: Vec<DegradationEvent>,
}

#[derive(Debug)]
struct Recording<C> {
    inner: C,
    log: Rc<RefCell<Log>>,
}

impl<C: Adapter> Controller for Recording<C> {
    fn control_period(&self) -> SimDuration {
        self.inner.control_period()
    }

    fn decide(&mut self, observation: &Observation<'_>) -> ControlDecision {
        let input = ControlInput::from(observation);
        let decision = self.inner.decide(observation);
        self.log.borrow_mut().periods.push(Period {
            now: input.now,
            arrived: input.arrived.iter().cloned().collect(),
            pending: input.pending.iter().cloned().collect(),
            running: input.running.iter().cloned().collect(),
            active: input.active,
            actuated: self.inner.last_actuated().cloned(),
        });
        decision
    }

    fn take_degradations(&mut self) -> Vec<DegradationEvent> {
        let events = self.inner.take_degradations();
        self.log.borrow_mut().events.extend(events.iter().cloned());
        events
    }
}

struct Setup {
    trace: Trace,
    catalog: MachineCatalog,
    config: HarmonyConfig,
    classifier: Rc<TaskClassifier>,
}

fn setup(max_lp_pivots: usize) -> Setup {
    let trace = TraceGenerator::new(
        TraceConfig::small().with_span(SimDuration::from_hours(2.0)).with_seed(7),
    )
    .generate();
    let classifier = TaskClassifier::fit(
        trace.tasks(),
        &ClassifierConfig { k_per_group: Some([2, 2, 2]), ..Default::default() },
    )
    .unwrap();
    Setup {
        trace,
        catalog: MachineCatalog::table2().scaled(100),
        config: HarmonyConfig {
            horizon: 2,
            control_period: SimDuration::from_mins(10.0),
            max_lp_pivots,
            ..Default::default()
        },
        classifier: Rc::new(classifier),
    }
}

/// Runs the simulation with `controller` wrapped in a recorder.
fn record<C: Adapter + 'static>(s: &Setup, controller: C, scheduler: Box<dyn Scheduler>) -> Log {
    let log = Rc::new(RefCell::new(Log::default()));
    let recording = Recording { inner: controller, log: Rc::clone(&log) };
    let sim_config = SimulationConfig::new(s.catalog.clone()).without_preemption();
    Simulation::new(sim_config, &s.trace, scheduler).with_controller(Box::new(recording)).run();
    Rc::try_unwrap(log).unwrap().into_inner()
}

/// Replays the recorded inputs into a fresh online pipeline and checks
/// it actuates the same plans and reports the same events.
fn assert_replay_matches(s: &Setup, log: &Log) -> usize {
    let mut pipeline = OnlinePipeline::new(
        (*s.classifier).clone(),
        s.catalog.clone(),
        s.config.clone(),
        EnergyPrice::default(),
    )
    .unwrap();
    let mut events = Vec::new();
    for (i, period) in log.periods.iter().enumerate() {
        let plan = pipeline.tick(&period.input());
        assert_eq!(plan, period.actuated, "period {i} at {:?}", period.now);
        events.extend(pipeline.take_degradations());
    }
    assert_eq!(events, log.events);
    assert!(log.periods.len() >= 10, "only {} periods recorded", log.periods.len());
    assert!(
        log.periods.iter().any(|p| !p.running.is_empty()),
        "the occupied-container term must be exercised"
    );
    events.iter().filter(|e| !matches!(e.kind, DegradationKind::ForecastFallback { .. })).count()
}

fn cbp_and_cbs_replay(max_lp_pivots: usize) -> [usize; 2] {
    let s = setup(max_lp_pivots);
    let cbp =
        CbpController::new(Rc::clone(&s.classifier), s.config.clone(), EnergyPrice::default())
            .unwrap();
    let stock = EnergyEfficientFirstFit::new(&Cluster::new(s.catalog.clone()));
    let cbp_ladder = assert_replay_matches(&s, &record(&s, cbp, Box::new(stock)));

    let quota = Rc::new(RefCell::new(QuotaState::default()));
    let cbs = CbsController::new(
        Rc::clone(&s.classifier),
        s.config.clone(),
        EnergyPrice::default(),
        Rc::clone(&quota),
    )
    .unwrap();
    let scheduler = QuotaScheduler::new(Rc::clone(&s.classifier), quota);
    let cbs_ladder = assert_replay_matches(&s, &record(&s, cbs, Box::new(scheduler)));
    [cbp_ladder, cbs_ladder]
}

#[test]
fn simulator_and_daemon_run_the_same_period() {
    assert_eq!(cbp_and_cbs_replay(HarmonyConfig::default().max_lp_pivots), [0, 0]);
}

#[test]
fn simulator_and_daemon_walk_the_same_ladder() {
    let [cbp, cbs] = cbp_and_cbs_replay(1);
    assert!(cbp > 0 && cbs > 0, "a one-pivot budget must degrade: {cbp} / {cbs}");
}
