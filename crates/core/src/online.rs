//! The incremental (online) HARMONY pipeline behind `harmonyd`.
//!
//! [`crate::pipeline`] wires the controllers into the discrete-event
//! simulator for batch replays; this module wraps the same
//! [`ControlStep`] as a long-lived object that is fed one control period
//! of observations at a time — the shape a real cluster manager (or the
//! provisioning daemon) consumes. It holds no cluster reference: the
//! caller supplies each period's [`ControlInput`], so the simulator's
//! controllers and the daemon run the same period, degradation ladder
//! included (optimum → last solved plan → greedy → hold).
//!
//! The pipeline's mutable state is small and fully serializable
//! ([`OnlineState`]): arrival histories, the previous plan, the tick
//! counter, the error count, and any degradation events not yet drained
//! by a client. [`OnlinePipeline::state`] / [`OnlinePipeline::restore`]
//! are the daemon's checkpoint/restore hooks; restoring a state into a
//! freshly-built pipeline (same trace-fitted classifier, same config)
//! reproduces the exact plan sequence an uninterrupted pipeline would
//! have produced, which the server crate's end-to-end test asserts
//! through a `kill -9`.

use std::collections::BTreeMap;

use harmony_model::{EnergyPrice, MachineCatalog, SimTime, Task};
use harmony_sim::{DegradationEvent, TaskView};
use serde::value::{DeError, Value};
use serde::{Deserialize, Serialize};

use crate::cbs::CbsObjective;
use crate::classify::TaskClassifier;
use crate::control::{ControlInput, ControlStep};
use crate::rounding::IntegerPlan;
use crate::{HarmonyConfig, HarmonyError};

/// The serializable mutable state of an [`OnlinePipeline`] — everything
/// a checkpoint must carry so a restored pipeline continues the exact
/// decision sequence. The immutable parts (classifier, catalog, config)
/// are rebuilt deterministically from their sources and are not part of
/// this snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineState {
    /// Control ticks completed so far.
    pub ticks: u64,
    /// Ticks that failed the full pipeline and took a degradation rung.
    pub errors: usize,
    /// Per-class arrival-rate history (tasks/second).
    pub histories: Vec<Vec<f64>>,
    /// The last successfully-solved integer plan.
    pub last_plan: Option<IntegerPlan>,
    /// Degradation events not yet drained by a client.
    pub pending_events: Vec<DegradationEvent>,
    /// The previous period's optimal simplex basis. Checkpointed so a
    /// restored pipeline takes the same warm/cold solve path as an
    /// uninterrupted one — warm and cold solves may land on different
    /// (equal-objective) vertices, so dropping the basis across a
    /// restore would break bit-identical plan reproduction.
    pub lp_basis: Option<harmony_lp::Basis>,
    /// Cumulative first-step rental dollars actuated so far (stays 0.0
    /// under the energy objective).
    pub cost_dollars: f64,
}

impl Serialize for OnlineState {
    fn to_value(&self) -> Value {
        let mut map = BTreeMap::new();
        map.insert("ticks".to_owned(), self.ticks.to_value());
        map.insert("errors".to_owned(), self.errors.to_value());
        map.insert("histories".to_owned(), self.histories.to_value());
        map.insert("last_plan".to_owned(), self.last_plan.to_value());
        map.insert("pending_events".to_owned(), self.pending_events.to_value());
        map.insert("lp_basis".to_owned(), self.lp_basis.to_value());
        map.insert("cost_dollars".to_owned(), self.cost_dollars.to_value());
        Value::Object(map)
    }
}

impl Deserialize for OnlineState {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(OnlineState {
            ticks: u64::from_value(v.field("ticks")?)?,
            errors: usize::from_value(v.field("errors")?)?,
            histories: Vec::from_value(v.field("histories")?)?,
            last_plan: Option::from_value(v.field("last_plan")?)?,
            pending_events: Vec::from_value(v.field("pending_events")?)?,
            // Tolerate checkpoints written before warm starts existed.
            lp_basis: match v.field("lp_basis") {
                Ok(Value::Null) | Err(_) => None,
                Ok(other) => Some(Deserialize::from_value(other)?),
            },
            // Tolerate checkpoints written before the pricing subsystem.
            cost_dollars: match v.field("cost_dollars") {
                Ok(Value::Null) | Err(_) => 0.0,
                Ok(other) => f64::from_value(other)?,
            },
        })
    }
}

/// The long-lived online control pipeline: one [`OnlinePipeline::tick`]
/// per control period.
#[derive(Debug)]
pub struct OnlinePipeline {
    classifier: TaskClassifier,
    catalog: MachineCatalog,
    step: ControlStep,
    ticks: u64,
}

impl OnlinePipeline {
    /// Builds the pipeline from a fitted classifier and a machine
    /// catalog.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation and container-sizing errors.
    pub fn new(
        classifier: TaskClassifier,
        catalog: MachineCatalog,
        config: HarmonyConfig,
        price: EnergyPrice,
    ) -> Result<Self, HarmonyError> {
        let step = ControlStep::new(&classifier, config, price)?;
        Ok(OnlinePipeline { classifier, catalog, step, ticks: 0 })
    }

    /// Provisions under `objective` instead of the default energy
    /// objective.
    #[must_use]
    pub fn with_objective(mut self, objective: CbsObjective) -> Self {
        self.step = self.step.with_objective(objective);
        self
    }

    /// The machine catalog provisioned against.
    pub fn catalog(&self) -> &MachineCatalog {
        &self.catalog
    }

    /// The fitted classifier.
    pub fn classifier(&self) -> &TaskClassifier {
        &self.classifier
    }

    /// The control step: configuration, objective, spend, last solved
    /// plan, arrival histories, and degradations not yet drained.
    pub fn step(&self) -> &ControlStep {
        &self.step
    }

    /// Control ticks completed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// The logical clock: control periods completed × period length.
    pub fn now(&self) -> SimTime {
        SimTime::from_secs(self.ticks as f64 * self.step.config().control_period.as_secs())
    }

    /// Drains the degradation events accumulated since the last call.
    pub fn take_degradations(&mut self) -> Vec<DegradationEvent> {
        self.step.take_degradations()
    }

    /// The input `harmonyd` feeds each period: the submitted
    /// observations are both the period's arrivals and its backlog,
    /// nothing is known to be running, and the last solved plan (zero
    /// machines before the first) is the switching-cost baseline.
    pub fn input_from_observations<'a>(&self, observed: &'a [Task]) -> ControlInput<'a> {
        ControlInput {
            now: self.now(),
            arrived: TaskView::dense(observed),
            pending: TaskView::dense(observed),
            running: TaskView::default(),
            active: match self.step.last_plan() {
                Some(plan) => plan.machines.clone(),
                None => vec![0; self.catalog.len()],
            },
        }
    }

    /// One control period of [`ControlStep::decide`] against this
    /// pipeline's classifier and catalog. Returns the plan to actuate,
    /// or `None` when the period holds capacity (the ladder's last
    /// rung); either way the period counts as a tick.
    pub fn tick(&mut self, input: &ControlInput<'_>) -> Option<IntegerPlan> {
        let plan = self.step.decide(&self.classifier, &self.catalog, input);
        self.ticks += 1;
        plan
    }

    /// Snapshots the pipeline's mutable state for a checkpoint.
    pub fn state(&self) -> OnlineState {
        OnlineState {
            ticks: self.ticks,
            errors: self.step.error_count(),
            histories: self.step.monitor().histories().to_vec(),
            last_plan: self.step.last_plan().cloned(),
            pending_events: self.step.pending_degradations().to_vec(),
            lp_basis: self.step.lp_basis().cloned(),
            cost_dollars: self.step.cost_dollars(),
        }
    }

    /// Restores a checkpointed state into this (freshly-built) pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`HarmonyError::InvalidConfig`] when the snapshot's shape
    /// does not match this pipeline (class count, history bound, or plan
    /// dimensions) — a checkpoint from a different configuration must
    /// not be silently accepted.
    pub fn restore(&mut self, state: OnlineState) -> Result<(), HarmonyError> {
        if let Some(plan) = &state.last_plan {
            if plan.machines.len() != self.catalog.len() {
                return Err(HarmonyError::InvalidConfig {
                    reason: format!(
                        "checkpoint plan has {} machine types, catalog has {}",
                        plan.machines.len(),
                        self.catalog.len()
                    ),
                });
            }
            if plan.quotas.len() != self.catalog.len()
                || plan.quotas.iter().any(|q| q.len() != self.step.n_classes())
            {
                return Err(HarmonyError::InvalidConfig {
                    reason: "checkpoint plan quota dimensions do not match".into(),
                });
            }
        }
        let ticks = state.ticks;
        self.step.restore(state)?;
        self.ticks = ticks;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::ClassifierConfig;
    use harmony_sim::DegradationKind;
    use harmony_model::SimDuration;
    use harmony_trace::{TraceConfig, TraceGenerator};

    fn fixture() -> (OnlinePipeline, harmony_trace::Trace) {
        fixture_with(20_000)
    }

    fn fixture_with(max_lp_pivots: usize) -> (OnlinePipeline, harmony_trace::Trace) {
        let trace = TraceGenerator::new(TraceConfig::small().with_seed(33)).generate();
        let classifier = TaskClassifier::fit(
            trace.tasks(),
            &ClassifierConfig { k_per_group: Some([2, 2, 2]), ..Default::default() },
        )
        .unwrap();
        let config = HarmonyConfig {
            horizon: 2,
            control_period: SimDuration::from_mins(10.0),
            max_lp_pivots,
            ..Default::default()
        };
        let pipeline = OnlinePipeline::new(
            classifier,
            harmony_model::MachineCatalog::table2().scaled(100),
            config,
            EnergyPrice::default(),
        )
        .unwrap();
        (pipeline, trace)
    }

    /// One period fed the way `harmonyd` feeds it.
    fn tick(pipeline: &mut OnlinePipeline, observed: &[Task]) -> IntegerPlan {
        let input = pipeline.input_from_observations(observed);
        pipeline.tick(&input).expect("a period with a placeable backlog actuates a plan")
    }

    /// Feed the trace in fixed-size chunks, collecting each tick's plan.
    fn drive(pipeline: &mut OnlinePipeline, trace: &harmony_trace::Trace, chunks: usize) -> Vec<IntegerPlan> {
        (0..chunks)
            .map(|i| {
                let lo = (i * 150).min(trace.len());
                let hi = ((i + 1) * 150).min(trace.len());
                tick(pipeline, &trace.tasks()[lo..hi])
            })
            .collect()
    }

    #[test]
    fn tick_provisions_for_demand_and_advances_clock() {
        let (mut pipeline, trace) = fixture();
        assert_eq!(pipeline.now(), SimTime::ZERO);
        let plans = drive(&mut pipeline, &trace, 3);
        assert_eq!(pipeline.ticks(), 3);
        assert_eq!(pipeline.now(), SimTime::from_secs(3.0 * 600.0));
        assert_eq!(pipeline.step().error_count(), 0);
        let total: usize = plans[0].machines.iter().sum();
        assert!(total > 0, "arrivals must bring machines up: {plans:?}");
        assert!(pipeline.step().last_plan().is_some());
    }

    #[test]
    fn empty_ticks_scale_down() {
        let (mut pipeline, trace) = fixture();
        drive(&mut pipeline, &trace, 2);
        // Enough empty periods to flush the moving-average window (6).
        let mut last_total = usize::MAX;
        for _ in 0..8 {
            let plan = tick(&mut pipeline, &[]);
            last_total = plan.machines.iter().sum();
        }
        assert!(last_total <= 2, "idle pipeline should power down, got {last_total}");
    }

    #[test]
    fn restore_reproduces_plan_sequence() {
        let (mut uninterrupted, trace) = fixture();
        let full = drive(&mut uninterrupted, &trace, 6);

        // Run 3 ticks, checkpoint, rebuild, restore, run 3 more.
        let (mut first_half, _) = fixture();
        let mut prefix = drive(&mut first_half, &trace, 3);
        let snapshot = first_half.state();
        let text = serde_json::to_string(&snapshot).unwrap();
        let state: OnlineState = serde_json::from_str(&text).unwrap();
        assert_eq!(state, snapshot);

        let (mut second_half, _) = fixture();
        second_half.restore(state).unwrap();
        assert_eq!(second_half.ticks(), 3);
        for i in 3..6 {
            let lo = (i * 150).min(trace.len());
            let hi = ((i + 1) * 150).min(trace.len());
            prefix.push(tick(&mut second_half, &trace.tasks()[lo..hi]));
        }
        assert_eq!(prefix, full, "restored pipeline must reproduce the plan sequence");
    }

    #[test]
    fn failure_without_previous_plan_holds_at_zero() {
        // A failed first solve takes the greedy rung rather than holding
        // the daemon at zero capacity.
        let (mut pipeline, trace) = fixture_with(1);
        let plan = tick(&mut pipeline, &trace.tasks()[..150]);
        assert!(plan.machines.iter().sum::<usize>() > 0, "greedy serves the backlog");
        assert_eq!(pipeline.step().error_count(), 1);
        assert!(pipeline.step().last_plan().is_none(), "a greedy plan is not a solved plan");
        let events = pipeline.take_degradations();
        assert!(events.iter().any(|d| matches!(d.kind, DegradationKind::LpGreedyFallback)));
        assert!(pipeline.take_degradations().is_empty());
    }

    #[test]
    fn failure_with_previous_plan_reuses_it() {
        let (mut pipeline, trace) = fixture();
        let chunk = &trace.tasks()[..150];
        let first = tick(&mut pipeline, chunk);
        pipeline.step.cripple_solver();
        let second = tick(&mut pipeline, chunk);
        assert_eq!(second, first, "reused plan re-actuates");
        let events = pipeline.take_degradations();
        assert!(events
            .iter()
            .any(|d| matches!(d.kind, DegradationKind::LpReusedPreviousPlan)));
    }

    #[test]
    fn restore_rejects_mismatched_plan_shape() {
        let (mut pipeline, _) = fixture();
        let bad = OnlineState {
            ticks: 1,
            errors: 0,
            histories: vec![Vec::new(); pipeline.step().n_classes()],
            last_plan: Some(IntegerPlan { machines: vec![1], quotas: vec![vec![0]] }),
            pending_events: Vec::new(),
            lp_basis: None,
            cost_dollars: 0.0,
        };
        assert!(pipeline.restore(bad).is_err());
        let bad_classes = OnlineState {
            ticks: 0,
            errors: 0,
            histories: vec![Vec::new()],
            last_plan: None,
            pending_events: Vec::new(),
            lp_basis: None,
            cost_dollars: 0.0,
        };
        assert!(pipeline.restore(bad_classes).is_err());
    }

    #[test]
    fn checkpoint_without_lp_basis_field_still_loads() {
        // A checkpoint written before warm starts existed has no
        // lp_basis key; it must deserialize (to a cold-start basis).
        let (mut pipeline, trace) = fixture();
        drive(&mut pipeline, &trace, 2);
        let mut v = pipeline.state().to_value();
        if let Value::Object(map) = &mut v {
            map.remove("lp_basis");
        }
        let state = OnlineState::from_value(&v).unwrap();
        assert_eq!(state.lp_basis, None);
        assert_eq!(state.ticks, 2);
    }

    #[test]
    fn checkpoint_without_cost_dollars_field_still_loads() {
        // A checkpoint written before the pricing subsystem has no
        // cost_dollars key; it must deserialize (to zero spend).
        let (mut pipeline, trace) = fixture();
        drive(&mut pipeline, &trace, 2);
        let mut v = pipeline.state().to_value();
        if let Value::Object(map) = &mut v {
            map.remove("cost_dollars");
        }
        let state = OnlineState::from_value(&v).unwrap();
        assert_eq!(state.cost_dollars, 0.0);
        assert_eq!(state.ticks, 2);
    }

    #[test]
    fn dollar_objective_accrues_and_checkpoints_spend() {
        use crate::cbs::{CbsObjective, DollarCosts};
        use harmony_pricing::MarketPolicy;

        let (pipeline, trace) = fixture();
        let groups: Vec<_> =
            pipeline.classifier().classes().iter().map(|c| c.group).collect();
        let costs = DollarCosts::default_for(
            pipeline.catalog(),
            &groups,
            MarketPolicy::SpotAware,
            2013,
        );
        let (base, _) = fixture();
        let mut priced = base.with_objective(CbsObjective::Dollars(costs));
        drive(&mut priced, &trace, 3);
        assert_eq!(priced.step().error_count(), 0);
        assert!(
            priced.step().cost_dollars() > 0.0,
            "a served workload must accrue rental spend, got {}",
            priced.step().cost_dollars()
        );
        // The spend survives a checkpoint/restore round trip.
        let state = priced.state();
        assert_eq!(state.cost_dollars, priced.step().cost_dollars());
        let text = serde_json::to_string(&state).unwrap();
        let back: OnlineState = serde_json::from_str(&text).unwrap();
        assert_eq!(back, state);
        let (fresh, _) = fixture();
        let mut restored = fresh.with_objective(CbsObjective::Dollars(
            DollarCosts::default_for(
                priced.catalog(),
                &groups,
                MarketPolicy::SpotAware,
                2013,
            ),
        ));
        restored.restore(back).unwrap();
        assert_eq!(restored.step().cost_dollars(), priced.step().cost_dollars());
    }

    #[test]
    fn checkpoint_carries_the_warm_basis() {
        let (mut pipeline, trace) = fixture();
        drive(&mut pipeline, &trace, 2);
        let state = pipeline.state();
        assert!(state.lp_basis.is_some(), "a ticked pipeline must checkpoint its basis");
        let text = serde_json::to_string(&state).unwrap();
        let back: OnlineState = serde_json::from_str(&text).unwrap();
        assert_eq!(back, state);
    }
}
