//! The two HARMONY controllers, thin adapters around
//! [`crate::control::ControlStep`].
//!
//! * **CBS** (Container-Based Scheduling, Section VII): provisioning and
//!   scheduling are coordinated — the controller publishes container
//!   quotas to a [`super::QuotaScheduler`].
//! * **CBP** (Container-Based Provisioning, Section VIII-B): the same
//!   provisioning pipeline, but the cluster's existing scheduler keeps
//!   running unmodified — "simplicity and practicality ... however, due
//!   to lack of control of the scheduler, CBP does not provide
//!   performance guarantee in terms of task scheduling delay."

use std::cell::RefCell;
use std::rc::Rc;

use harmony_model::{EnergyPrice, SimDuration};
use harmony_sim::{ControlDecision, Controller, DegradationEvent, Observation};

use crate::cbs::CbsObjective;
use crate::classify::TaskClassifier;
use crate::control::{ControlInput, ControlStep};
use crate::rounding::IntegerPlan;
use crate::{HarmonyConfig, HarmonyError};

use super::quota::QuotaState;

/// The CBP controller: HARMONY provisioning with the stock scheduler.
/// An adapter around [`ControlStep`]: it builds the period's
/// [`ControlInput`] from the [`Observation`] and holds capacity when the
/// step does.
#[derive(Debug)]
pub struct CbpController {
    classifier: Rc<TaskClassifier>,
    step: ControlStep,
    actuated: Option<IntegerPlan>,
}

impl CbpController {
    /// Builds the CBP controller; pair it with any stock
    /// [`harmony_sim::Scheduler`] (the paper's deployable configuration).
    ///
    /// # Errors
    ///
    /// See [`ControlStep::new`].
    pub fn new(
        classifier: Rc<TaskClassifier>,
        config: HarmonyConfig,
        price: EnergyPrice,
    ) -> Result<Self, HarmonyError> {
        let step = ControlStep::new(&classifier, config, price)?;
        Ok(CbpController { classifier, step, actuated: None })
    }

    /// Provisions under `objective` instead of the default energy
    /// objective.
    #[must_use]
    pub fn with_objective(mut self, objective: CbsObjective) -> Self {
        self.step = self.step.with_objective(objective);
        self
    }

    /// The control step (for inspection in tests/benches).
    pub fn step(&self) -> &ControlStep {
        &self.step
    }

    /// The plan the last period actuated; `None` before the first
    /// period and after a hold.
    pub fn last_actuated(&self) -> Option<&IntegerPlan> {
        self.actuated.as_ref()
    }

    fn actuate(
        &mut self,
        observation: &Observation<'_>,
        input: &ControlInput<'_>,
    ) -> ControlDecision {
        self.actuated = self.step.decide(&self.classifier, observation.cluster.catalog(), input);
        match &self.actuated {
            Some(plan) => ControlDecision::targets(plan.machines.clone()),
            None => ControlDecision::unchanged(observation.cluster),
        }
    }
}

impl Controller for CbpController {
    fn control_period(&self) -> SimDuration {
        self.step.config().control_period
    }

    fn decide(&mut self, observation: &Observation<'_>) -> ControlDecision {
        self.actuate(observation, &ControlInput::from(observation))
    }

    fn take_degradations(&mut self) -> Vec<DegradationEvent> {
        self.step.take_degradations()
    }
}

/// The CBS controller: HARMONY provisioning + quota-coordinated
/// scheduling. The same adapter as [`CbpController`], plus the quota
/// refresh that hands each actuated plan to the scheduler.
#[derive(Debug)]
pub struct CbsController {
    inner: CbpController,
    quota: Rc<RefCell<QuotaState>>,
}

impl CbsController {
    /// Builds the CBS controller; pair it with a
    /// [`super::QuotaScheduler`] sharing `quota` and the same
    /// classifier.
    ///
    /// # Errors
    ///
    /// See [`ControlStep::new`].
    pub fn new(
        classifier: Rc<TaskClassifier>,
        config: HarmonyConfig,
        price: EnergyPrice,
        quota: Rc<RefCell<QuotaState>>,
    ) -> Result<Self, HarmonyError> {
        Ok(CbsController { inner: CbpController::new(classifier, config, price)?, quota })
    }

    /// Provisions under `objective` instead of the default energy
    /// objective.
    #[must_use]
    pub fn with_objective(mut self, objective: CbsObjective) -> Self {
        self.inner = self.inner.with_objective(objective);
        self
    }

    /// The control step (for inspection in tests/benches).
    pub fn step(&self) -> &ControlStep {
        self.inner.step()
    }

    /// The plan the last period actuated; `None` before the first
    /// period and after a hold.
    pub fn last_actuated(&self) -> Option<&IntegerPlan> {
        self.inner.last_actuated()
    }
}

impl Controller for CbsController {
    fn control_period(&self) -> SimDuration {
        self.inner.control_period()
    }

    fn decide(&mut self, observation: &Observation<'_>) -> ControlDecision {
        let input = ControlInput::from(observation);
        let mut decision = self.inner.actuate(observation, &input);
        if let Some(plan) = &self.inner.actuated {
            let step = &self.inner.step;
            let orders = step.type_orders(observation.cluster.catalog());
            // Authoritative occupancy (with short→long relabeling) keeps
            // the ledger consistent with the plan's demand accounting.
            let occupied = step.occupied_per_class(&self.inner.classifier, &input);
            self.quota.borrow_mut().refresh(plan.quotas.clone(), orders, &occupied);
            // CBS owns the scheduler, so it may also re-pack running
            // containers to drain machines (Algorithm 1, lines 10-11).
            decision.repack = true;
        }
        decision
    }

    fn take_degradations(&mut self) -> Vec<DegradationEvent> {
        self.inner.take_degradations()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{ClassifierConfig, TaskClassifier};
    use harmony_model::{MachineCatalog, MachineTypeId, SimTime};
    use harmony_sim::{Cluster, TaskView};
    use harmony_trace::{TraceConfig, TraceGenerator};

    fn fixture() -> (Rc<TaskClassifier>, harmony_trace::Trace, HarmonyConfig) {
        let trace = TraceGenerator::new(TraceConfig::small().with_seed(33)).generate();
        let classifier = Rc::new(
            TaskClassifier::fit(
                trace.tasks(),
                &ClassifierConfig { k_per_group: Some([2, 2, 2]), ..Default::default() },
            )
            .unwrap(),
        );
        let config = HarmonyConfig {
            horizon: 2,
            control_period: SimDuration::from_mins(10.0),
            ..Default::default()
        };
        (classifier, trace, config)
    }

    #[test]
    fn cbp_decides_capacity_for_arrivals() {
        let (classifier, trace, config) = fixture();
        let mut ctl =
            CbpController::new(classifier, config, EnergyPrice::default()).unwrap();
        let cluster = Cluster::new(MachineCatalog::table2().scaled(100));
        let arrived: Vec<_> = trace.tasks()[..300].to_vec();
        let decision = ctl.decide(&Observation {
            now: SimTime::ZERO,
            cluster: &cluster,
            pending: TaskView::dense(&arrived),
            arrived_last_period: TaskView::dense(&arrived),
            running: TaskView::default(),
        });
        assert_eq!(decision.target_active.len(), 4);
        let total: usize = decision.target_active.iter().sum();
        assert!(total > 0, "pending demand must bring machines up: {decision:?}");
        assert_eq!(ctl.step().error_count(), 0);
    }

    #[test]
    fn cbs_publishes_quotas() {
        let (classifier, trace, config) = fixture();
        let quota = Rc::new(RefCell::new(QuotaState::default()));
        let mut ctl = CbsController::new(
            classifier.clone(),
            config,
            EnergyPrice::default(),
            quota.clone(),
        )
        .unwrap();
        let cluster = Cluster::new(MachineCatalog::table2().scaled(100));
        let arrived: Vec<_> = trace.tasks()[..300].to_vec();
        let _ = ctl.decide(&Observation {
            now: SimTime::ZERO,
            cluster: &cluster,
            pending: TaskView::dense(&arrived),
            arrived_last_period: TaskView::dense(&arrived),
            running: TaskView::default(),
        });
        // Some class has quota somewhere.
        let state = quota.borrow();
        let any = (0..classifier.classes().len()).any(|n| state.remaining(n) > 0.0);
        assert!(any, "CBS must publish nonzero quotas");
    }

    #[test]
    fn idle_cluster_with_no_arrivals_scales_down() {
        let (classifier, _, config) = fixture();
        let mut ctl =
            CbpController::new(classifier, config, EnergyPrice::default()).unwrap();
        let mut cluster = Cluster::new(MachineCatalog::table2().scaled(100));
        let (ids, ready) = cluster.power_on(MachineTypeId(0), 20, SimTime::ZERO);
        for id in ids {
            cluster.boot_complete(id, ready);
        }
        // Several empty periods: capacity should fall toward zero.
        let mut last_total = 20;
        for i in 0..4 {
            let decision = ctl.decide(&Observation {
                now: SimTime::from_secs(600.0 * i as f64),
                cluster: &cluster,
                pending: TaskView::default(),
                arrived_last_period: TaskView::default(),
                running: TaskView::default(),
            });
            last_total = decision.target_active.iter().sum();
        }
        assert!(last_total <= 2, "idle cluster should power down, got {last_total}");
        assert_eq!(ctl.step().error_count(), 0);
    }

    #[test]
    fn lp_failure_reuses_previous_plan_when_available() {
        let (classifier, trace, config) = fixture();
        let mut ctl = CbpController::new(classifier, config, EnergyPrice::default()).unwrap();
        let cluster = Cluster::new(MachineCatalog::table2().scaled(100));
        let arrived: Vec<_> = trace.tasks()[..300].to_vec();
        // First tick succeeds and caches a plan.
        let first = ctl.decide(&Observation {
            now: SimTime::ZERO,
            cluster: &cluster,
            pending: TaskView::dense(&arrived),
            arrived_last_period: TaskView::dense(&arrived),
            running: TaskView::default(),
        });
        assert_eq!(ctl.step().error_count(), 0);
        let _ = ctl.take_degradations();
        // Cripple the solver for the second tick.
        ctl.step.cripple_solver();
        let second = ctl.decide(&Observation {
            now: SimTime::from_secs(600.0),
            cluster: &cluster,
            pending: TaskView::dense(&arrived),
            arrived_last_period: TaskView::dense(&arrived),
            running: TaskView::default(),
        });
        let degradations = ctl.take_degradations();
        assert!(
            degradations
                .iter()
                .any(|d| matches!(d.kind, harmony_sim::DegradationKind::LpReusedPreviousPlan)),
            "expected plan reuse, got {degradations:?}"
        );
        assert_eq!(second.target_active, first.target_active, "reused plan re-actuates");
    }

    #[test]
    fn parallel_pipeline_plans_are_bit_identical_to_serial() {
        // Acceptance criterion for the parallel fan-out: the same
        // observation sequence must produce the same decisions for any
        // worker count, bit for bit.
        let (classifier, trace, config) = fixture();
        let run = |workers: Option<usize>| {
            let cfg = HarmonyConfig { pipeline_workers: workers, ..config.clone() };
            let mut ctl =
                CbpController::new(classifier.clone(), cfg, EnergyPrice::default()).unwrap();
            let cluster = Cluster::new(MachineCatalog::table2().scaled(100));
            let mut decisions = Vec::new();
            for i in 0..4 {
                let lo = (i * 150).min(trace.len());
                let hi = ((i + 1) * 150).min(trace.len());
                let chunk: Vec<_> = trace.tasks()[lo..hi].to_vec();
                decisions.push(ctl.decide(&Observation {
                    now: SimTime::from_secs(600.0 * i as f64),
                    cluster: &cluster,
                    pending: TaskView::dense(&chunk),
                    arrived_last_period: TaskView::dense(&chunk),
                    running: TaskView::default(),
                }));
            }
            assert_eq!(ctl.step().error_count(), 0);
            decisions
        };
        let serial = run(Some(1));
        for workers in [Some(2), Some(4), None] {
            assert_eq!(run(workers), serial, "workers={workers:?}");
        }
    }

    #[test]
    fn control_period_is_config_driven() {
        let (classifier, _, config) = fixture();
        let ctl = CbpController::new(classifier.clone(), config.clone(), EnergyPrice::default())
            .unwrap();
        assert_eq!(ctl.control_period(), config.control_period);
        let quota = Rc::new(RefCell::new(QuotaState::default()));
        let cbs = CbsController::new(classifier, config.clone(), EnergyPrice::default(), quota)
            .unwrap();
        assert_eq!(cbs.control_period(), config.control_period);
    }
}
