//! Request handling for `harmonyd`.
//!
//! A [`Service`] owns the [`OnlinePipeline`] plus the daemon-level
//! state around it: the buffer of submitted-but-unconsumed
//! observations, lifetime counters, and checkpoint provenance. Network
//! and ticker threads share one `Service` behind a lock and call
//! [`Service::handle_deferred`] / [`Service::tick_once`].
//!
//! # Checkpoints never write under the service lock
//!
//! State-mutating verbs checkpoint automatically, but the file write
//! must not happen while the caller holds the service lock — a slow
//! disk would serialize every other request behind it. So mutating
//! verbs return a [`PendingSave`]: the checkpoint is *rendered* under
//! the lock (cheap, pure) and *committed* after the guard drops.
//! Commits are ordered by a [`SaveGate`] serial allocated under the
//! lock, so two saves racing outside it can never regress the file to
//! older state.

use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use harmony::classify::ClassifierConfig;
use harmony::rounding::IntegerPlan;
use harmony::OnlinePipeline;
use harmony_model::Task;

use crate::protocol::{MetricsBody, Request, Response, StatusBody};
use crate::state::{
    self, CatalogSpec, Checkpoint, ClassifierSource, ObjectiveSpec, CHECKPOINT_VERSION,
};

/// Orders checkpoint commits that happen outside the service lock.
///
/// Serials are allocated under the service lock (so they follow state
/// order); [`PendingSave::commit`] takes the `committed` mutex across
/// the file write so a stale pending save can never overwrite a newer
/// checkpoint that already landed on disk.
#[derive(Debug, Default)]
pub struct SaveGate {
    next: AtomicU64,
    committed: Mutex<u64>,
}

/// A checkpoint rendered under the service lock, waiting to be written
/// to disk after the lock is released.
#[derive(Debug)]
pub struct PendingSave {
    text: String,
    path: PathBuf,
    serial: u64,
    /// Explicit `snapshot` requests surface write failures in the
    /// response; autosaves only log them.
    required: bool,
    gate: Arc<SaveGate>,
}

impl PendingSave {
    /// Size of the encoded checkpoint (what [`PendingSave::commit`]
    /// will report as bytes written).
    pub fn bytes(&self) -> u64 {
        self.text.len() as u64
    }

    /// Writes the checkpoint unless a newer one already committed
    /// (`Ok(None)`). Call this *after* dropping the service guard.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from the atomic write.
    pub fn commit(self) -> io::Result<Option<u64>> {
        let mut committed =
            self.gate.committed.lock().unwrap_or_else(PoisonError::into_inner);
        if self.serial <= *committed {
            return Ok(None);
        }
        let bytes = state::write_atomic(&self.text, &self.path)?;
        *committed = self.serial;
        Ok(Some(bytes))
    }

    /// Commits and folds the outcome into `response`: write failures
    /// replace the response for explicit snapshots and are logged (but
    /// do not fail the request) for autosaves.
    pub fn commit_into(self, response: Response) -> Response {
        let required = self.required;
        match self.commit() {
            Ok(_) => response,
            Err(e) if required => Response::internal(format!("snapshot failed: {e}")),
            Err(e) => {
                eprintln!("harmonyd: checkpoint failed: {e}");
                response
            }
        }
    }
}

/// The daemon's shared state: pipeline + observation buffer +
/// checkpoint provenance.
#[derive(Debug)]
pub struct Service {
    pipeline: OnlinePipeline,
    classifier_config: ClassifierConfig,
    source: ClassifierSource,
    catalog_spec: CatalogSpec,
    objective_spec: ObjectiveSpec,
    buffered: Vec<Task>,
    total_observations: u64,
    snapshot_path: Option<PathBuf>,
    save_gate: Arc<SaveGate>,
    // Watchdog bookkeeping: how often the background ticker had to be
    // restarted and why, surfaced via `status`. Deliberately not part
    // of the checkpoint — a restart wipes the slate.
    ticker_restarts: u64,
    ticker_last_error: Option<String>,
}

impl Service {
    /// Wraps a freshly built pipeline. `objective_spec` must be the
    /// recipe the pipeline's objective was built from, so checkpoints
    /// record how to rebuild it.
    pub fn new(
        pipeline: OnlinePipeline,
        classifier_config: ClassifierConfig,
        source: ClassifierSource,
        catalog_spec: CatalogSpec,
        objective_spec: ObjectiveSpec,
        snapshot_path: Option<PathBuf>,
    ) -> Self {
        Service {
            pipeline,
            classifier_config,
            source,
            catalog_spec,
            objective_spec,
            buffered: Vec::new(),
            total_observations: 0,
            snapshot_path,
            save_gate: Arc::new(SaveGate::default()),
            ticker_restarts: 0,
            ticker_last_error: None,
        }
    }

    /// Rebuilds a service from a checkpoint: refits the classifier from
    /// the recorded source (verifying the trace hash), rebuilds the
    /// catalog from its spec, and restores the pipeline state.
    ///
    /// # Errors
    ///
    /// Returns a message when the source cannot be reloaded, the
    /// catalog name is unknown, or the restored state is malformed.
    pub fn from_checkpoint(
        checkpoint: Checkpoint,
        snapshot_path: Option<PathBuf>,
    ) -> Result<Self, String> {
        let classifier = state::refit_classifier(&checkpoint.source, &checkpoint.classifier)?;
        let catalog = checkpoint.catalog.build()?;
        // The objective rebuilds from its recipe exactly like the
        // classifier: same catalog + same class groups + same seed give
        // the same price book and SLO curves.
        let groups: Vec<_> = classifier.classes().iter().map(|c| c.group).collect();
        let objective = checkpoint.objective.build(&catalog, &groups);
        let mut pipeline =
            OnlinePipeline::new(classifier, catalog, checkpoint.config, Default::default())
                .map_err(|e| format!("pipeline rebuild failed: {e}"))?
                .with_objective(objective);
        pipeline
            .restore(checkpoint.state)
            .map_err(|e| format!("state restore failed: {e}"))?;
        Ok(Service {
            pipeline,
            classifier_config: checkpoint.classifier,
            source: checkpoint.source,
            catalog_spec: checkpoint.catalog,
            objective_spec: checkpoint.objective,
            buffered: checkpoint.buffered,
            total_observations: checkpoint.total_observations,
            snapshot_path,
            save_gate: Arc::new(SaveGate::default()),
            ticker_restarts: 0,
            ticker_last_error: None,
        })
    }

    /// Records one watchdog-forced ticker restart for `status`.
    pub fn note_ticker_restart(&mut self, why: &str) {
        self.ticker_restarts += 1;
        self.ticker_last_error = Some(why.to_owned());
    }

    /// The underlying pipeline (read-only).
    pub fn pipeline(&self) -> &OnlinePipeline {
        &self.pipeline
    }

    /// Observations buffered for the next tick.
    pub fn buffered(&self) -> usize {
        self.buffered.len()
    }

    /// Where checkpoints go, if configured.
    pub fn snapshot_path(&self) -> Option<&PathBuf> {
        self.snapshot_path.as_ref()
    }

    /// Runs one control period over the buffered observations (see
    /// [`OnlinePipeline::input_from_observations`]), clears the buffer,
    /// and returns the plan the period actuated — `None` when it held
    /// capacity.
    pub fn tick_once(&mut self) -> Option<IntegerPlan> {
        let tasks = std::mem::take(&mut self.buffered);
        let input = self.pipeline.input_from_observations(&tasks);
        self.pipeline.tick(&input)
    }

    /// Snapshot of everything a restart needs.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            version: CHECKPOINT_VERSION,
            config: self.pipeline.step().config().clone(),
            classifier: self.classifier_config.clone(),
            source: self.source.clone(),
            catalog: self.catalog_spec.clone(),
            objective: self.objective_spec,
            state: self.pipeline.state(),
            buffered: self.buffered.clone(),
            total_observations: self.total_observations,
        }
    }

    /// Renders a checkpoint and allocates its commit serial. `Ok(None)`
    /// when no snapshot path is configured.
    fn make_pending(&self, required: bool) -> io::Result<Option<PendingSave>> {
        let Some(path) = self.snapshot_path.clone() else {
            return Ok(None);
        };
        let text = state::encode_checkpoint(&self.checkpoint())?;
        let serial = self.save_gate.next.fetch_add(1, Ordering::SeqCst) + 1;
        Ok(Some(PendingSave {
            text,
            path,
            serial,
            required,
            gate: Arc::clone(&self.save_gate),
        }))
    }

    /// Renders the current checkpoint for a deferred write (`None` when
    /// no snapshot path is configured, or — after logging — when the
    /// checkpoint fails to serialize). The caller commits it after
    /// releasing the service lock.
    pub fn pending_checkpoint(&self) -> Option<PendingSave> {
        match self.make_pending(false) {
            Ok(pending) => pending,
            Err(e) => {
                eprintln!("harmonyd: checkpoint failed: {e}");
                None
            }
        }
    }

    /// Renders and immediately commits a checkpoint (no-op returning
    /// `Ok(None)` when no snapshot path is configured, or when a newer
    /// checkpoint already committed). Prefer
    /// [`Service::pending_checkpoint`] when holding the service lock —
    /// this method writes the file inline.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from the atomic save.
    pub fn save_checkpoint(&self) -> io::Result<Option<u64>> {
        match self.make_pending(false)? {
            Some(pending) => pending.commit(),
            None => Ok(None),
        }
    }

    /// Builds the `status` response body. Public (rather than routed
    /// through [`Service::handle`]) so the network layer can answer
    /// `status` under a *read* lock even while sheddable verbs queue
    /// for the write lock.
    pub fn status_body(&self) -> StatusBody {
        StatusBody {
            ticks: self.pipeline.ticks(),
            now_secs: self.pipeline.now().as_secs(),
            errors: self.pipeline.step().error_count(),
            buffered: self.buffered.len(),
            total_observations: self.total_observations,
            n_classes: self.pipeline.step().n_classes(),
            machine_types: self.pipeline.catalog().len(),
            total_machines: self.pipeline.catalog().total_machines(),
            pending_events: self.pipeline.step().pending_degradations().len(),
            has_plan: self.pipeline.step().last_plan().is_some(),
            snapshot_path: self
                .snapshot_path
                .as_ref()
                .map(|p| p.display().to_string()),
            ticker_restarts: self.ticker_restarts,
            ticker_last_error: self.ticker_last_error.clone(),
        }
    }

    /// Executes one request without touching the filesystem. When the
    /// verb checkpoints (`submit-observations`, `tick`, `snapshot`),
    /// the rendered checkpoint comes back as a [`PendingSave`] the
    /// caller must commit *after* releasing the service lock. `Shutdown`
    /// returns [`Response::ShuttingDown`]; actually stopping the daemon
    /// is the caller's job.
    pub fn handle_deferred(&mut self, request: Request) -> (Response, Option<PendingSave>) {
        match request {
            Request::SubmitObservations { tasks } => {
                self.total_observations += tasks.len() as u64;
                self.buffered.extend(tasks);
                let response = Response::Submitted {
                    buffered: self.buffered.len(),
                    total: self.total_observations,
                };
                let save = self.pending_checkpoint();
                (response, save)
            }
            Request::GetPlan => (
                Response::Plan {
                    tick: self.pipeline.ticks(),
                    plan: self.pipeline.step().last_plan().cloned(),
                },
                None,
            ),
            Request::GetForecast { horizon } => {
                let horizon = horizon.unwrap_or(self.pipeline.step().config().horizon).max(1);
                // Forecasting allocates per class per step, so an
                // unbounded horizon is an allocation a client controls.
                // The configured MPC horizon is forecast every tick
                // anyway, so it is always allowed.
                let config = self.pipeline.step().config();
                let limit = config.history_len.max(config.horizon);
                if horizon > limit {
                    return (
                        Response::bad_request(format!(
                            "forecast horizon {horizon} exceeds the limit {limit}"
                        )),
                        None,
                    );
                }
                (
                    Response::Forecast {
                        horizon,
                        classes: self.pipeline.step().monitor().forecast_tiered(horizon),
                    },
                    None,
                )
            }
            Request::Status => (Response::Status(self.status_body()), None),
            // The network layer answers `metrics` lock-free before it
            // ever takes the service lock; routing it here would drag a
            // telemetry snapshot under the write lock for no reason.
            Request::Metrics => (
                Response::internal("metrics is served lock-free by the network layer"),
                None,
            ),
            Request::Tick => {
                let response = match self.tick_once() {
                    Some(plan) => Response::Ticked { tick: self.pipeline.ticks(), plan },
                    None => Response::internal("tick held capacity: no plan was actuated"),
                };
                (response, self.pending_checkpoint())
            }
            Request::DrainEvents => (
                Response::Events {
                    events: self.pipeline.take_degradations(),
                },
                None,
            ),
            Request::Snapshot => match self.make_pending(true) {
                Ok(Some(save)) => {
                    let response = Response::Snapshotted {
                        path: self
                            .snapshot_path
                            .as_ref()
                            .map(|p| p.display().to_string())
                            .unwrap_or_default(),
                        bytes: save.bytes(),
                    };
                    (response, Some(save))
                }
                Ok(None) => (
                    Response::bad_request(
                        "no snapshot path configured (start harmonyd with --snapshot)",
                    ),
                    None,
                ),
                Err(e) => (Response::internal(format!("snapshot failed: {e}")), None),
            },
            Request::Shutdown => (Response::ShuttingDown, None),
        }
    }

    /// [`Service::handle_deferred`] plus an immediate commit of any
    /// pending checkpoint — the convenience entry point for tests and
    /// single-threaded callers that do not hold a lock.
    pub fn handle(&mut self, request: Request) -> Response {
        if matches!(request, Request::Metrics) {
            return Response::Metrics(MetricsBody::from(
                &harmony_telemetry::global().snapshot(),
            ));
        }
        let (response, save) = self.handle_deferred(request);
        match save {
            Some(save) => save.commit_into(response),
            None => response,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ErrorKind;
    use harmony::classify::{ClassifierConfig, TaskClassifier};
    use harmony::HarmonyConfig;
    use harmony_model::{MachineCatalog, SimDuration};
    use harmony_sim::DegradationKind;

    fn test_service(snapshot: Option<PathBuf>) -> (Service, Vec<Task>) {
        test_service_with(snapshot, HarmonyConfig::default().max_lp_pivots)
    }

    fn test_service_with(snapshot: Option<PathBuf>, max_lp_pivots: usize) -> (Service, Vec<Task>) {
        // Build from the same source description a resume would refit
        // from, so checkpoint round-trips are exact.
        let span = SimDuration::from_hours(2.0);
        let (trace, source) =
            state::load_source(None, "jsonl", 33, span, None).unwrap();
        let classifier_config = ClassifierConfig {
            k_per_group: Some([2, 2, 2]),
            ..ClassifierConfig::default()
        };
        let classifier = TaskClassifier::fit(trace.tasks(), &classifier_config).unwrap();
        let config = HarmonyConfig {
            horizon: 2,
            control_period: SimDuration::from_mins(10.0),
            max_lp_pivots,
            ..HarmonyConfig::default()
        };
        let pipeline = OnlinePipeline::new(
            classifier,
            MachineCatalog::table2().scaled(100),
            config,
            Default::default(),
        )
        .unwrap();
        let spec = CatalogSpec { name: "table2".to_owned(), divisor: 100 };
        let tasks: Vec<Task> = trace.tasks().iter().take(200).cloned().collect();
        let service = Service::new(
            pipeline,
            classifier_config,
            source,
            spec,
            ObjectiveSpec::Energy,
            snapshot,
        );
        (service, tasks)
    }

    #[test]
    fn submit_then_tick_produces_a_plan() {
        let (mut service, tasks) = test_service(None);
        let n = tasks.len();
        let response = service.handle(Request::SubmitObservations { tasks });
        assert!(
            matches!(response, Response::Submitted { buffered, total } if buffered == n && total == n as u64)
        );
        let response = service.handle(Request::Tick);
        match response {
            Response::Ticked { tick, plan } => {
                assert_eq!(tick, 1);
                assert!(plan.machines.iter().sum::<usize>() > 0);
            }
            other => panic!("expected Ticked, got {other:?}"),
        }
        assert_eq!(service.buffered(), 0, "tick consumes the buffer");
        let response = service.handle(Request::GetPlan);
        assert!(matches!(response, Response::Plan { tick: 1, plan: Some(_) }));
    }

    #[test]
    fn status_reflects_state() {
        let (mut service, tasks) = test_service(None);
        let n = tasks.len();
        service.handle(Request::SubmitObservations { tasks });
        match service.handle(Request::Status) {
            Response::Status(body) => {
                assert_eq!(body.ticks, 0);
                assert_eq!(body.buffered, n);
                assert_eq!(body.total_observations, n as u64);
                assert!(!body.has_plan);
                assert!(body.snapshot_path.is_none());
                assert_eq!(body.ticker_restarts, 0);
                assert!(body.ticker_last_error.is_none());
            }
            other => panic!("expected Status, got {other:?}"),
        }
    }

    #[test]
    fn ticker_restarts_surface_in_status() {
        let (mut service, _) = test_service(None);
        service.note_ticker_restart("chaos: injected tick panic #1");
        service.note_ticker_restart("tick exceeded deadline");
        match service.handle(Request::Status) {
            Response::Status(body) => {
                assert_eq!(body.ticker_restarts, 2);
                assert_eq!(body.ticker_last_error.as_deref(), Some("tick exceeded deadline"));
            }
            other => panic!("expected Status, got {other:?}"),
        }
    }

    #[test]
    fn metrics_returns_live_counters() {
        let (mut service, tasks) = test_service(None);
        service.handle(Request::SubmitObservations { tasks });
        service.handle(Request::Tick);
        match service.handle(Request::Metrics) {
            Response::Metrics(body) => {
                // The tick above drove the pipeline, so its counters and
                // stage timings must be visible in the snapshot (≥, not
                // ==: the registry is shared with parallel tests).
                assert!(body.counters.get("pipeline.ticks").copied().unwrap_or(0) >= 1);
                assert!(body
                    .histograms
                    .iter()
                    .any(|h| h.name == "pipeline.period_seconds" && h.count >= 1));
                assert!(body
                    .histograms
                    .iter()
                    .any(|h| h.name == "pipeline.lp_seconds" && h.count >= 1));
            }
            other => panic!("expected Metrics, got {other:?}"),
        }
    }

    #[test]
    fn oversized_forecast_horizon_is_rejected() {
        let (mut service, _) = test_service(None);
        let huge = Request::GetForecast { horizon: Some(1_000_000_000_000_000) };
        match service.handle(huge) {
            Response::Error { kind: ErrorKind::BadRequest, message } => {
                assert!(message.contains("horizon"), "{message}");
            }
            other => panic!("expected bad-request, got {other:?}"),
        }
        // The service survives and keeps answering.
        assert!(matches!(service.handle(Request::Status), Response::Status(_)));
        let limit = service.pipeline().step().config().history_len;
        let ok = service.handle(Request::GetForecast { horizon: Some(limit) });
        assert!(matches!(ok, Response::Forecast { horizon, .. } if horizon == limit));
    }

    #[test]
    fn failed_first_tick_answers_with_the_greedy_plan() {
        // A one-pivot budget fails every real solve: with no previous
        // plan, the tick takes the greedy rung and answers with it.
        let (mut service, tasks) = test_service_with(None, 1);
        service.handle(Request::SubmitObservations { tasks });
        match service.handle(Request::Tick) {
            Response::Ticked { tick, plan } => {
                assert_eq!(tick, 1);
                assert!(plan.machines.iter().sum::<usize>() > 0, "greedy serves the backlog");
            }
            other => panic!("expected Ticked, got {other:?}"),
        }
        match service.handle(Request::DrainEvents) {
            Response::Events { events } => assert!(
                events.iter().any(|d| matches!(d.kind, DegradationKind::LpGreedyFallback)),
                "{events:?}"
            ),
            other => panic!("expected Events, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_without_path_is_an_error() {
        let (mut service, _) = test_service(None);
        assert!(matches!(service.handle(Request::Snapshot), Response::Error { .. }));
    }

    fn dollar_service(snapshot: Option<PathBuf>) -> (Service, Vec<Task>) {
        let span = SimDuration::from_hours(2.0);
        let (trace, source) = state::load_source(None, "jsonl", 33, span, None).unwrap();
        let classifier_config = ClassifierConfig {
            k_per_group: Some([2, 2, 2]),
            ..ClassifierConfig::default()
        };
        let classifier = TaskClassifier::fit(trace.tasks(), &classifier_config).unwrap();
        let config = HarmonyConfig {
            horizon: 2,
            control_period: SimDuration::from_mins(10.0),
            ..HarmonyConfig::default()
        };
        let spec = CatalogSpec { name: "table2-accel".to_owned(), divisor: 100 };
        let catalog = spec.build().unwrap();
        let objective_spec = ObjectiveSpec::Dollars { spot: true, seed: 2013 };
        let groups: Vec<_> = classifier.classes().iter().map(|c| c.group).collect();
        let objective = objective_spec.build(&catalog, &groups);
        let pipeline = OnlinePipeline::new(classifier, catalog, config, Default::default())
            .unwrap()
            .with_objective(objective);
        let tasks: Vec<Task> = trace.tasks().iter().take(200).cloned().collect();
        let service =
            Service::new(pipeline, classifier_config, source, spec, objective_spec, snapshot);
        (service, tasks)
    }

    #[test]
    fn dollar_checkpoint_resumes_spend_and_objective() {
        let dir = std::env::temp_dir()
            .join(format!("harmonyd-service-dollar-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("svc.json");

        let (mut service, tasks) = dollar_service(Some(path.clone()));
        for chunk in tasks.chunks(100) {
            service.handle(Request::SubmitObservations { tasks: chunk.to_vec() });
            service.handle(Request::Tick);
        }
        let spent = service.pipeline().step().cost_dollars();
        assert!(spent > 0.0, "dollar ticks must accrue rental spend");
        assert!(matches!(service.handle(Request::Snapshot), Response::Snapshotted { .. }));
        drop(service);

        let checkpoint = state::load(&path).unwrap();
        assert_eq!(checkpoint.objective, ObjectiveSpec::Dollars { spot: true, seed: 2013 });
        let resumed = Service::from_checkpoint(checkpoint, Some(path)).unwrap();
        assert_eq!(
            resumed.pipeline().step().cost_dollars(),
            spent,
            "resume must restore the cumulative spend exactly"
        );
        assert!(
            matches!(resumed.pipeline().step().objective(), harmony::CbsObjective::Dollars(_)),
            "resume must rebuild the dollar objective from its recipe"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_restores_identical_plan_sequence() {
        let dir = std::env::temp_dir()
            .join(format!("harmonyd-service-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("svc.json");

        let (mut uninterrupted, tasks) = test_service(None);
        let (mut original, _) = test_service(Some(path.clone()));
        let chunks: Vec<Vec<Task>> = tasks.chunks(40).map(<[Task]>::to_vec).collect();

        let mut expected = Vec::new();
        for chunk in &chunks {
            uninterrupted.handle(Request::SubmitObservations { tasks: chunk.clone() });
            uninterrupted.handle(Request::Tick);
            expected.push(uninterrupted.pipeline().step().last_plan().cloned());
        }

        let mut actual = Vec::new();
        for chunk in &chunks[..2] {
            original.handle(Request::SubmitObservations { tasks: chunk.clone() });
            original.handle(Request::Tick);
            actual.push(original.pipeline().step().last_plan().cloned());
        }
        assert!(matches!(original.handle(Request::Snapshot), Response::Snapshotted { .. }));
        drop(original);

        let checkpoint = state::load(&path).unwrap();
        let mut resumed = Service::from_checkpoint(checkpoint, Some(path.clone())).unwrap();
        assert_eq!(resumed.pipeline().ticks(), 2);
        for chunk in &chunks[2..] {
            resumed.handle(Request::SubmitObservations { tasks: chunk.clone() });
            resumed.handle(Request::Tick);
            actual.push(resumed.pipeline().step().last_plan().cloned());
        }
        assert_eq!(actual, expected, "resume must reproduce the plan sequence");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
