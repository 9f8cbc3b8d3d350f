//! The HARMONY control period, implemented once.
//!
//! [`ControlStep`] runs one period of the paper's control loop (Section
//! VII, Algorithm 1): monitor → predict → size containers → CBS-RELAX →
//! round. The simulator's [`crate::controllers::CbsController`] and
//! [`crate::controllers::CbpController`] and the daemon's
//! [`crate::OnlinePipeline`] are thin adapters around it: each builds a
//! [`ControlInput`] from what it observes and actuates the
//! [`IntegerPlan`] that comes back.
//!
//! A period that fails the full pipeline walks one degradation ladder:
//! the optimum → the last solved plan → greedy per-class First-Fit →
//! hold, recording a [`DegradationEvent`] for whichever rung it took.

use harmony_model::{EnergyPrice, MachineCatalog, MachineTypeId, Resources, SimTime, TaskClassId};
use harmony_sim::{DegradationEvent, DegradationKind, Observation, TaskView};
use harmony_telemetry as telemetry;

use crate::cbs::{solve_cbs_relax_priced, CbsInputs, CbsObjective};
use crate::classify::TaskClassifier;
use crate::containers::ContainerManager;
use crate::monitor::ArrivalMonitor;
use crate::online::OnlineState;
use crate::rounding::{round_first_step, IntegerPlan};
use crate::{HarmonyConfig, HarmonyError};

/// What one control period observes.
#[derive(Debug, Clone)]
pub struct ControlInput<'a> {
    /// When the period closes.
    pub now: SimTime,
    /// Tasks that arrived during the period (the arrival-rate monitor
    /// input).
    pub arrived: TaskView<'a>,
    /// Unserved backlog: provisioned for immediately, on top of the
    /// forecast.
    pub pending: TaskView<'a>,
    /// Tasks executing on machines; their containers stay occupied
    /// across the whole horizon.
    pub running: TaskView<'a>,
    /// Machines active per type — the switching-cost baseline.
    pub active: Vec<usize>,
}

impl<'a> From<&Observation<'a>> for ControlInput<'a> {
    fn from(observation: &Observation<'a>) -> Self {
        ControlInput {
            now: observation.now,
            arrived: observation.arrived_last_period,
            pending: observation.pending,
            running: observation.running,
            active: observation.cluster.active_per_type(),
        }
    }
}

/// The state carried from one control period to the next, and the one
/// implementation of the period itself ([`ControlStep::decide`]).
#[derive(Debug)]
pub struct ControlStep {
    config: HarmonyConfig,
    manager: ContainerManager,
    monitor: ArrivalMonitor,
    price: EnergyPrice,
    objective: CbsObjective,
    /// The last successfully-solved integer plan, re-actuated when a
    /// solve fails (the ladder's second rung).
    last_plan: Option<IntegerPlan>,
    /// The previous period's optimal simplex basis; warm-starts the next
    /// CBS-RELAX solve. Cleared on solve failure so a corrupted state
    /// can never linger past one period.
    lp_basis: Option<harmony_lp::Basis>,
    errors: usize,
    /// Degradations accumulated since the caller last drained them.
    degradations: Vec<DegradationEvent>,
    /// Cumulative first-step rental dollars actuated so far (stays 0.0
    /// under the energy objective).
    cost_dollars: f64,
}

impl ControlStep {
    /// Builds the step for a fitted classifier.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation and container-sizing errors.
    pub fn new(
        classifier: &TaskClassifier,
        config: HarmonyConfig,
        price: EnergyPrice,
    ) -> Result<Self, HarmonyError> {
        config.validate()?;
        let manager = ContainerManager::new(classifier, &config)?;
        let monitor = ArrivalMonitor::new(
            classifier.classes().len(),
            config.control_period,
            config.history_len,
            config.arima_min_history,
        );
        Ok(ControlStep {
            config,
            manager,
            monitor,
            price,
            objective: CbsObjective::Energy,
            last_plan: None,
            lp_basis: None,
            errors: 0,
            degradations: Vec::new(),
            cost_dollars: 0.0,
        })
    }

    /// Provisions under `objective` instead of the default energy
    /// objective. Drops any carried warm-start basis — the dollar
    /// objective builds a different LP.
    #[must_use]
    pub fn with_objective(mut self, objective: CbsObjective) -> Self {
        self.objective = objective;
        self.lp_basis = None;
        self
    }

    /// The objective in effect.
    pub fn objective(&self) -> &CbsObjective {
        &self.objective
    }

    /// The configuration in effect.
    pub fn config(&self) -> &HarmonyConfig {
        &self.config
    }

    /// Number of task classes.
    pub fn n_classes(&self) -> usize {
        self.manager.n_classes()
    }

    /// Periods that failed the full pipeline and took a degradation rung.
    pub fn error_count(&self) -> usize {
        self.errors
    }

    /// The last successfully-solved plan, if any.
    pub fn last_plan(&self) -> Option<&IntegerPlan> {
        self.last_plan.as_ref()
    }

    /// The warm-start basis carried into the next solve, if any.
    pub fn lp_basis(&self) -> Option<&harmony_lp::Basis> {
        self.lp_basis.as_ref()
    }

    /// Cumulative first-step rental dollars actuated so far (0.0 under
    /// the energy objective).
    pub fn cost_dollars(&self) -> f64 {
        self.cost_dollars
    }

    /// The per-class arrival monitor.
    pub fn monitor(&self) -> &ArrivalMonitor {
        &self.monitor
    }

    /// Degradation events accumulated and not yet drained.
    pub fn pending_degradations(&self) -> &[DegradationEvent] {
        &self.degradations
    }

    /// Drains the degradation events accumulated since the last call.
    pub fn take_degradations(&mut self) -> Vec<DegradationEvent> {
        std::mem::take(&mut self.degradations)
    }

    /// Restores the checkpointed parts of `state` (everything but the
    /// tick counter, which the caller owns).
    ///
    /// # Errors
    ///
    /// Returns [`HarmonyError::InvalidConfig`] when the histories do not
    /// match this step's class count or history bound.
    pub(crate) fn restore(&mut self, state: OnlineState) -> Result<(), HarmonyError> {
        self.monitor.restore_histories(state.histories)?;
        self.errors = state.errors;
        self.last_plan = state.last_plan;
        self.degradations = state.pending_events;
        self.lp_basis = state.lp_basis;
        self.cost_dollars = state.cost_dollars;
        Ok(())
    }

    /// Forces the next solve to fail: drops the carried warm basis (which
    /// would let a near-identical re-solve finish in zero pivots) and
    /// cuts the pivot budget to one — lets adapter tests drive the
    /// degradation ladder.
    #[cfg(test)]
    pub(crate) fn cripple_solver(&mut self) {
        self.lp_basis = None;
        self.config.max_lp_pivots = 1;
    }

    /// One control period: records `input.arrived`, then solves for the
    /// plan to actuate, walking the degradation ladder on failure —
    /// optimum → last solved plan → greedy → hold. Returns `None` for
    /// hold: keep the current capacity.
    pub fn decide(
        &mut self,
        classifier: &TaskClassifier,
        catalog: &MachineCatalog,
        input: &ControlInput<'_>,
    ) -> Option<IntegerPlan> {
        let registry = telemetry::global();
        registry.counter("pipeline.ticks").inc();
        // The guard records the whole period even when a stage errors out.
        let _period_span = registry.timer("pipeline.period_seconds");
        let span = registry.timer("pipeline.classify_seconds");
        self.monitor.record_period(input.arrived, classifier);
        drop(span);
        let err = match self.solve(classifier, catalog, input) {
            Ok(plan) => {
                self.last_plan = Some(plan.clone());
                return Some(plan);
            }
            Err(err) => err,
        };
        self.errors += 1;
        // A failed solve may leave the carried basis stale relative to
        // whatever changed; force the next period cold.
        self.lp_basis = None;
        registry.counter("pipeline.errors").inc();
        let (kind, plan) = match &self.last_plan {
            Some(prev) => (DegradationKind::LpReusedPreviousPlan, Some(prev.clone())),
            None => match self.greedy_plan(classifier, catalog, input) {
                Some(greedy) => (DegradationKind::LpGreedyFallback, Some(greedy)),
                None => (DegradationKind::ControlHold, None),
            },
        };
        self.degradations.push(DegradationEvent { at: input.now, kind, detail: err.to_string() });
        plan
    }

    /// The full pipeline for one period (the ladder's first rung).
    fn solve(
        &mut self,
        classifier: &TaskClassifier,
        catalog: &MachineCatalog,
        input: &ControlInput<'_>,
    ) -> Result<IntegerPlan, HarmonyError> {
        let registry = telemetry::global();
        let n_classes = self.manager.n_classes();
        // Per-class forecast and sizing are pure per class; fan them out
        // over scoped workers. Plans are bit-identical for every worker
        // count (deterministic class-order merge).
        let workers = crate::par::effective_workers(self.config.pipeline_workers, n_classes);
        registry.gauge("pipeline.workers").set(workers as f64);

        let span = registry.timer("pipeline.forecast_seconds");
        let tiered = self.monitor.forecast_tiered_with_workers(self.config.horizon, workers);
        drop(span);
        for (n, class_fc) in tiered.iter().enumerate() {
            if let Some(reason) = &class_fc.degraded {
                self.degradations.push(DegradationEvent {
                    at: input.now,
                    kind: DegradationKind::ForecastFallback { class: n, tier: class_fc.tier },
                    detail: reason.clone(),
                });
            }
        }
        let rates: Vec<Vec<f64>> = tiered.into_iter().map(|c| c.rates).collect();

        let sizing_span = registry.timer("pipeline.sizing_seconds");
        // Pending backlog per class: must be served *now*, on top of the
        // predicted new arrivals.
        let mut backlog = vec![0.0f64; n_classes];
        for task in input.pending {
            backlog[classifier.initial_label(task).0] += 1.0;
        }
        // Occupied containers: tasks already executing keep their
        // container (and their host powered) until they finish. Their
        // true demand is known (they are placed), so they reserve at the
        // class mean rather than the Z-inflated container size: scale
        // the occupied count by mean/container per class.
        let occupied: Vec<f64> = self
            .occupied_per_class(classifier, input)
            .iter()
            .enumerate()
            .map(|(n, &count)| {
                let class = &classifier.classes()[n];
                let c = self.manager.container_size(TaskClassId(n));
                let ratio = (class.stats.mean_demand.cpu / c.cpu.max(1e-12))
                    .max(class.stats.mean_demand.mem / c.mem.max(1e-12))
                    .clamp(0.0, 1.0);
                count * ratio
            })
            .collect();

        let counts = self.manager.containers_for_rates(&rates, workers)?;
        let mut demand = vec![vec![0.0f64; n_classes]; self.config.horizon];
        for n in 0..n_classes {
            for (t, row) in demand.iter_mut().enumerate() {
                // Occupied containers persist across the horizon (the LP
                // may not power their hosts down; busy machines cannot be
                // powered off either). Backlog needs capacity from the
                // first period on.
                row[n] = counts[n][t] + occupied[n] + backlog[n];
            }
        }
        drop(sizing_span);

        let container_sizes: Vec<Resources> =
            (0..n_classes).map(|n| self.manager.container_size(TaskClassId(n))).collect();
        let utility: Vec<f64> =
            classifier.classes().iter().map(|c| self.config.utility_for(c.group)).collect();
        let initial: Vec<f64> = input.active.iter().map(|&m| m as f64).collect();
        let lp_span = registry.timer("pipeline.lp_seconds");
        let solve = solve_cbs_relax_priced(
            &CbsInputs {
                catalog,
                container_sizes: &container_sizes,
                utility_per_hour: &utility,
                demand: &demand,
                initial_active: &initial,
                price: &self.price,
                now: input.now,
            },
            &self.config,
            &self.objective,
            self.lp_basis.as_ref(),
        )?;
        drop(lp_span);
        // Carry the optimal basis into the next period's solve.
        self.lp_basis = Some(solve.basis);
        if let Some(cost) = &solve.cost {
            // The first step is what gets actuated, so that is the slice
            // that accrues into the running spend.
            self.cost_dollars += cost.first_step_rental_dollars;
            registry.gauge("cost.cumulative_dollars").set(self.cost_dollars);
        }
        let plan = solve.plan;
        Ok(registry.time("pipeline.rounding_seconds", || {
            round_first_step(&plan, catalog, &container_sizes)
        }))
    }

    /// Containers currently occupied per class. Labels use measured
    /// running time, exercising the short→long relabeling path of
    /// Section V.
    pub(crate) fn occupied_per_class(
        &self,
        classifier: &TaskClassifier,
        input: &ControlInput<'_>,
    ) -> Vec<f64> {
        let mut occupied = vec![0.0f64; self.manager.n_classes()];
        for task in input.running {
            let running_for = input.now.saturating_since(task.arrival);
            occupied[classifier.relabel(task, running_for).0] += 1.0;
        }
        occupied
    }

    /// Machine-type preference order per class: compatible types sorted
    /// by the marginal energy cost of hosting one container.
    pub(crate) fn type_orders(&self, catalog: &MachineCatalog) -> Vec<Vec<MachineTypeId>> {
        (0..self.manager.n_classes())
            .map(|n| {
                let size = self.manager.container_size(TaskClassId(n));
                let mut types: Vec<(MachineTypeId, f64)> = catalog
                    .iter()
                    .filter(|ty| size.fits_within(ty.capacity))
                    .map(|ty| {
                        let util = size.utilization_of(ty.capacity);
                        let watts = ty.power.alpha_watts.cpu * util.cpu
                            + ty.power.alpha_watts.mem * util.mem;
                        (ty.id, watts)
                    })
                    .collect();
                types.sort_by(|a, b| f64::total_cmp(&a.1, &b.1));
                types.into_iter().map(|(id, _)| id).collect()
            })
            .collect()
    }

    /// Emergency sizing for when the LP fails with no previous plan to
    /// reuse: count the containers each class needs *right now* (pending
    /// backlog plus running occupancy) and First-Fit them onto the
    /// population, opening machines lazily — cheapest compatible type
    /// first, most-constrained classes first so flexible small
    /// containers cannot starve the classes that only fit the big
    /// machines. Crude — no horizon, no optimality — but total and
    /// safe: the cluster stays provisioned while the optimizer is down.
    ///
    /// Returns `None` (→ hold) only when some class with demand cannot
    /// be hosted at all.
    fn greedy_plan(
        &self,
        classifier: &TaskClassifier,
        catalog: &MachineCatalog,
        input: &ControlInput<'_>,
    ) -> Option<IntegerPlan> {
        let n_classes = self.manager.n_classes();
        let mut need = vec![0usize; n_classes];
        for task in input.pending {
            need[classifier.initial_label(task).0] += 1;
        }
        for task in input.running {
            let running_for = input.now.saturating_since(task.arrival);
            need[classifier.relabel(task, running_for).0] += 1;
        }
        let orders = self.type_orders(catalog);
        // Most-constrained classes first; within a constraint level,
        // biggest containers first (First-Fit-Decreasing).
        let mut class_order: Vec<usize> = (0..n_classes).collect();
        class_order.sort_by(|&a, &b| {
            orders[a].len().cmp(&orders[b].len()).then(f64::total_cmp(
                &self.manager.container_size(TaskClassId(b)).sum_components(),
                &self.manager.container_size(TaskClassId(a)).sum_components(),
            ))
        });
        // Free space of machines opened so far, per type.
        let mut open: Vec<Vec<Resources>> = vec![Vec::new(); catalog.len()];
        let mut quotas = vec![vec![0usize; n_classes]; catalog.len()];
        for &n in &class_order {
            if need[n] == 0 {
                continue;
            }
            let size = self.manager.container_size(TaskClassId(n));
            let mut remaining = need[n];
            'types: for &ty in &orders[n] {
                // Fill leftover room on machines other classes opened.
                for slot in open[ty.0].iter_mut() {
                    while remaining > 0 && size.fits_within(*slot) {
                        *slot -= size;
                        quotas[ty.0][n] += 1;
                        remaining -= 1;
                    }
                    if remaining == 0 {
                        break 'types;
                    }
                }
                // Open fresh machines up to the type's population.
                let mt = catalog.machine_type(ty);
                while remaining > 0 && open[ty.0].len() < mt.count {
                    let mut slot = mt.capacity;
                    let before = remaining;
                    while remaining > 0 && size.fits_within(slot) {
                        slot -= size;
                        quotas[ty.0][n] += 1;
                        remaining -= 1;
                    }
                    open[ty.0].push(slot);
                    if remaining == before {
                        break; // a fresh machine fits none: give up on ty
                    }
                }
                if remaining == 0 {
                    break;
                }
            }
        }
        // Only a complete failure (demand exists, nothing placed) falls
        // through to hold; a plan serving most classes beats freezing a
        // possibly powered-down cluster.
        let total_need: usize = need.iter().sum();
        let total_placed: usize = quotas.iter().flatten().sum();
        let machines: Vec<usize> = open.iter().map(Vec::len).collect();
        (total_need == 0 || total_placed > 0).then_some(IntegerPlan { machines, quotas })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::ClassifierConfig;
    use harmony_model::{SimDuration, Task};
    use harmony_trace::{TraceConfig, TraceGenerator};

    fn fixture() -> (TaskClassifier, Vec<Task>, ControlStep, MachineCatalog) {
        let trace = TraceGenerator::new(TraceConfig::small().with_seed(33)).generate();
        let classifier = TaskClassifier::fit(
            trace.tasks(),
            &ClassifierConfig { k_per_group: Some([2, 2, 2]), ..Default::default() },
        )
        .unwrap();
        let config = HarmonyConfig {
            horizon: 2,
            control_period: SimDuration::from_mins(10.0),
            ..Default::default()
        };
        let step = ControlStep::new(&classifier, config, EnergyPrice::default()).unwrap();
        let tasks = trace.tasks()[..300].to_vec();
        (classifier, tasks, step, MachineCatalog::table2().scaled(100))
    }

    /// A period whose arrivals are also its backlog, on an idle cluster.
    fn input(tasks: &[Task], period: usize, n_types: usize) -> ControlInput<'_> {
        ControlInput {
            now: SimTime::from_secs(600.0 * period as f64),
            arrived: TaskView::dense(tasks),
            pending: TaskView::dense(tasks),
            running: TaskView::default(),
            active: vec![0; n_types],
        }
    }

    fn ladder_events(step: &mut ControlStep) -> Vec<DegradationKind> {
        step.take_degradations()
            .into_iter()
            .map(|d| d.kind)
            .filter(|k| !matches!(k, DegradationKind::ForecastFallback { .. }))
            .collect()
    }

    #[test]
    fn optimum_rung_actuates_the_solved_plan() {
        let (classifier, tasks, mut step, catalog) = fixture();
        let plan = step.decide(&classifier, &catalog, &input(&tasks, 0, catalog.len())).unwrap();
        assert!(plan.machines.iter().sum::<usize>() > 0, "backlog must bring machines up");
        assert_eq!(step.last_plan(), Some(&plan));
        assert_eq!(step.error_count(), 0);
        assert!(ladder_events(&mut step).is_empty());
    }

    #[test]
    fn previous_plan_rung_reuses_the_last_solved_plan() {
        let (classifier, tasks, mut step, catalog) = fixture();
        let first = step.decide(&classifier, &catalog, &input(&tasks, 0, catalog.len())).unwrap();
        // Cripple the solver for the second period. The carried warm
        // basis would let the near-identical re-solve finish in zero
        // pivots, so drop it to force the cold path into the budget.
        step.lp_basis = None;
        step.config.max_lp_pivots = 1;
        let second = step.decide(&classifier, &catalog, &input(&tasks, 1, catalog.len()));
        assert_eq!(second, Some(first), "the reused plan re-actuates");
        assert_eq!(ladder_events(&mut step), [DegradationKind::LpReusedPreviousPlan]);
        assert_eq!(step.error_count(), 1);
    }

    #[test]
    fn greedy_rung_serves_the_backlog_without_a_previous_plan() {
        let (classifier, tasks, mut step, catalog) = fixture();
        // A one-pivot budget makes every real instance hit the
        // iteration limit.
        step.config.max_lp_pivots = 1;
        let plan = step.decide(&classifier, &catalog, &input(&tasks, 0, catalog.len())).unwrap();
        assert!(plan.machines.iter().sum::<usize>() > 0, "greedy must provision the backlog");
        assert!(plan.quotas.iter().flatten().sum::<usize>() > 0);
        assert_eq!(ladder_events(&mut step), [DegradationKind::LpGreedyFallback]);
        assert!(step.last_plan().is_none(), "a greedy plan is not a solved plan");
        assert!(step.take_degradations().is_empty(), "drained");
    }

    #[test]
    fn hold_rung_when_greedy_can_place_nothing() {
        let (classifier, tasks, mut step, _) = fixture();
        // One machine type too small to host any container: demand
        // exists, but neither the LP nor greedy can place it.
        let mut tiny = MachineCatalog::table2().scaled(100).iter().next().unwrap().clone();
        tiny.capacity = Resources::new(1e-6, 1e-6);
        let catalog = MachineCatalog::new(vec![tiny]).unwrap();
        step.config.max_lp_pivots = 1;
        let plan = step.decide(&classifier, &catalog, &input(&tasks, 0, catalog.len()));
        assert_eq!(plan, None);
        assert_eq!(ladder_events(&mut step), [DegradationKind::ControlHold]);
        assert_eq!(step.error_count(), 1);
    }

    #[test]
    fn warm_basis_is_carried_and_cleared_on_failure() {
        let (classifier, tasks, mut step, catalog) = fixture();
        step.decide(&classifier, &catalog, &input(&tasks, 0, catalog.len())).unwrap();
        assert!(step.lp_basis().is_some(), "a successful solve must carry its basis");
        // Swap in a stale basis from an unrelated tiny LP, then cripple
        // the pivot budget: the warm install rejects the mismatched
        // shape, the cold fallback hits the budget and fails, and the
        // failure must clear the carried basis instead of keeping the
        // stale one around.
        let mut lp = harmony_lp::Problem::new(harmony_lp::Sense::Minimize);
        let x = lp.add_var("x", 0.0, f64::INFINITY, 1.0);
        lp.add_ge(vec![(x, 1.0)], 1.0);
        step.lp_basis = Some(lp.solve().unwrap().basis().clone());
        step.config.max_lp_pivots = 1;
        step.decide(&classifier, &catalog, &input(&tasks, 1, catalog.len()));
        assert!(step.lp_basis().is_none(), "a failed solve must drop the basis");
    }
}
