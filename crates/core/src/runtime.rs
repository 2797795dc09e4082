//! The end-to-end SHIFT runtime: per-frame loop combining context detection,
//! scheduling, dynamic model loading and execution on the simulated SoC.
//!
//! The per-stream half of the loop (context detection, scheduling, momentum,
//! outcome bookkeeping) lives in [`StreamAgent`], so it can be driven either
//! by [`ShiftRuntime`] — one stream owning one engine — or by
//! [`FleetRuntime`](crate::fleet::FleetRuntime), which multiplexes many
//! agents over one shared engine. `ShiftRuntime` is the single-stream
//! special case.

use crate::characterize::Characterization;
use crate::config::ShiftConfig;
use crate::context::ContextDetector;
use crate::graph::ConfidenceGraph;
use crate::loader::DynamicModelLoader;
use crate::scheduler::{CandidatePair, CandidateSet, Decision, Scheduler};
use crate::ShiftError;
use serde::{Deserialize, Serialize};
use shift_models::Detection;
use shift_soc::{ExecutionEngine, FaultInjector, FaultPlan, InferenceReport, SocError};
use shift_video::Frame;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Everything that happened while processing one frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrameOutcome {
    /// Index of the frame within its stream.
    pub frame_index: usize,
    /// The (model, accelerator) pair that executed the frame.
    pub pair: CandidatePair,
    /// The detection the model reported, if any.
    pub detection: Option<Detection>,
    /// The confidence of that detection (0 when nothing was detected).
    pub confidence: f64,
    /// IoU of the detection against ground truth (0 for misses).
    pub iou: f64,
    /// Whether the frame counts as a success (IoU >= 0.5).
    pub success: bool,
    /// End-to-end latency charged to the frame: scheduler overhead + any
    /// model-load time + inference latency, seconds.
    pub latency_s: f64,
    /// Energy charged to the frame, joules.
    pub energy_j: f64,
    /// Whether a model/accelerator swap (load) happened on this frame.
    pub swapped: bool,
    /// Whether a full re-scheduling pass ran on this frame.
    pub rescheduled: bool,
    /// The context-similarity score observed for this frame.
    pub similarity: f64,
}

/// The load cost (and swap flag) charged to one executed frame.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LoadCharge {
    /// Model-load time charged to the frame, seconds.
    pub time_s: f64,
    /// Model-load energy charged to the frame, joules.
    pub energy_j: f64,
    /// Whether the frame performed a model/accelerator swap.
    pub swapped: bool,
}

/// Whether the decided pair is unusable because of an injected fault on its
/// *own* resources — a dropped-out (administratively fenced) accelerator or
/// a squeezed pool — as opposed to a coincident thermal trip or peer memory
/// contention, which are not injected-fault exposure. Used to attribute the
/// resilience counters precisely while another, unrelated fault window
/// (e.g. a telemetry glitch) is active.
pub(crate) fn fault_on_decided_pair(engine: &ExecutionEngine, decided: CandidatePair) -> bool {
    engine.is_administratively_offline(decided.accelerator)
        || engine.memory_reservation(decided.accelerator) > 0.0
}

/// Whether `pair`'s model is already resident, or could fit its
/// accelerator's pool even when empty (accounting for any fault-injected
/// reservation). Degrade walks check this before `ensure_loaded`, whose
/// eviction loop would otherwise empty the pool on a doomed candidate
/// before reporting `OutOfMemory`.
pub(crate) fn can_ever_fit(engine: &ExecutionEngine, pair: CandidatePair) -> bool {
    if engine.is_loaded(pair.model, pair.accelerator) {
        return true;
    }
    let Some(spec) = engine.zoo().get(pair.model) else {
        return false;
    };
    engine
        .pool(pair.accelerator)
        .map(|pool| pool.can_ever_fit(spec.load.memory_mb))
        .unwrap_or(false)
}

/// Per-stream counters describing how a run observed and survived injected
/// platform faults. All zero on a healthy run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResilienceCounters {
    /// Frames processed while at least one fault was active on the platform.
    pub fault_frames: u64,
    /// Forced full re-scheduling passes taken because the gate-kept pair's
    /// accelerator was offline *while an injected fault was active*. The
    /// same survival path also fires for thermal trips, but those are not
    /// injected-fault exposure and are not counted.
    pub fault_replans: u64,
    /// Frames executed on a pair other than the one the scheduler decided
    /// because an injected fault sat on the decided pair's *own* resources —
    /// a dropped-out accelerator or a squeezed pool. (Degradation from
    /// ordinary memory contention — a fleet peer pin-blocking a pool — or a
    /// coincident thermal trip is not fault exposure and is deliberately not
    /// counted, even while an unrelated fault window is active.)
    pub degraded_frames: u64,
}

/// The per-stream half of the SHIFT loop: context detection, scheduling and
/// outcome bookkeeping for **one** video stream, without owning an engine.
///
/// [`ShiftRuntime`] pairs one agent with its own [`ExecutionEngine`];
/// [`FleetRuntime`](crate::fleet::FleetRuntime) multiplexes many agents over
/// a single shared engine. A frame flows through an agent in two phases:
/// [`decide`](Self::decide) produces the scheduling decision, the driver
/// loads the model and runs inference on whatever engine it manages, and
/// [`complete`](Self::complete) folds the execution report back into the
/// agent's state and produces the [`FrameOutcome`].
#[derive(Debug, Clone)]
pub struct StreamAgent {
    scheduler: Scheduler,
    detector: ContextDetector,
    current: CandidatePair,
    last_confidence: f64,
    last_detection: Option<Detection>,
    pending_load_time_s: f64,
    pending_load_energy_j: f64,
    pairs_used: BTreeSet<CandidatePair>,
    swap_count: u64,
}

impl StreamAgent {
    /// Builds an agent from an offline characterization and a configuration.
    /// The initial pair is selected but **not** loaded — the driver decides
    /// when and on which engine to make it resident (see
    /// [`charge_pending_load`](Self::charge_pending_load)).
    ///
    /// # Errors
    ///
    /// Returns [`ShiftError::EmptyCharacterization`] when the
    /// characterization has no samples and [`ShiftError::NoCandidatePairs`]
    /// when no model can run on any allowed accelerator.
    pub fn new(
        characterization: &Characterization,
        config: ShiftConfig,
    ) -> Result<Self, ShiftError> {
        let candidates = Self::candidate_set(characterization, &config)?;
        let graph = ConfidenceGraph::build(&characterization.samples, config.graph_config());
        Ok(Self::from_parts(config, candidates, Arc::new(graph)))
    }

    /// The graph-free half of [`StreamAgent::new`]: the candidate set an
    /// agent built for `config` would schedule over, with the same errors.
    pub(crate) fn candidate_set(
        characterization: &Characterization,
        config: &ShiftConfig,
    ) -> Result<CandidateSet, ShiftError> {
        if characterization.is_empty() {
            return Err(ShiftError::EmptyCharacterization);
        }
        CandidateSet::new(config, characterization)
    }

    /// Assembles an agent from a candidate set derived for `config`'s
    /// accelerators and knobs and a shared confidence graph built from
    /// `config.graph_config()`: bit-identical to [`StreamAgent::new`] on the
    /// same characterization, without rebuilding the graph.
    pub(crate) fn from_parts(
        config: ShiftConfig,
        candidates: CandidateSet,
        graph: Arc<ConfidenceGraph>,
    ) -> Self {
        let scheduler = Scheduler::from_parts(config, candidates, graph);
        let current = scheduler.initial_pair();
        Self {
            scheduler,
            detector: ContextDetector::new(),
            current,
            last_confidence: 0.0,
            last_detection: None,
            pending_load_time_s: 0.0,
            pending_load_energy_j: 0.0,
            pairs_used: BTreeSet::new(),
            swap_count: 0,
        }
    }

    /// The pair currently selected for execution.
    pub fn current_pair(&self) -> CandidatePair {
        self.current
    }

    /// The scheduler (for inspection in tests and ablations).
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// The configuration the agent was built with.
    pub fn config(&self) -> &ShiftConfig {
        self.scheduler.config()
    }

    /// Number of model/accelerator swaps performed so far.
    pub fn swap_count(&self) -> u64 {
        self.swap_count
    }

    /// Distinct (model, accelerator) pairs used so far.
    pub fn pairs_used(&self) -> usize {
        self.pairs_used.len()
    }

    /// Adds a load cost to be charged to the next processed frame (used for
    /// the initial model pre-load, which happens before any frame exists).
    pub fn charge_pending_load(&mut self, time_s: f64, energy_j: f64) {
        self.pending_load_time_s += time_s;
        self.pending_load_energy_j += energy_j;
    }

    /// Takes (and clears) the pending load cost accumulated so far.
    pub fn take_pending_load(&mut self) -> (f64, f64) {
        (
            std::mem::take(&mut self.pending_load_time_s),
            std::mem::take(&mut self.pending_load_energy_j),
        )
    }

    /// Phase one of a frame: computes the context similarity against the
    /// previous frame and runs the scheduling heuristic.
    pub fn decide(&mut self, frame: &Frame) -> Decision {
        let similarity = self
            .detector
            .similarity(frame, self.last_detection.map(|d| d.bbox).as_ref());
        self.scheduler
            .schedule(self.current, self.last_confidence, similarity)
    }

    /// Re-plans a frame after the driver observed that `decision`'s pair is
    /// unusable (its accelerator dropped out): runs the full re-scheduling
    /// pass of Algorithm 1 unconditionally, bypassing the similarity gate, so
    /// the driver gets a complete score ranking to degrade along. The context
    /// similarity already computed by [`decide`](Self::decide) is reused.
    pub fn replan(&mut self, decision: &Decision) -> Decision {
        self.scheduler
            .force_reschedule(self.current, self.last_confidence, decision.similarity)
    }

    /// Phase two of a frame: folds the executed pair, the inference report
    /// and the charged load cost back into the agent and produces the
    /// [`FrameOutcome`]. `pair` is the pair that actually executed (the fleet
    /// may have downgraded the decision under memory pressure);
    /// `queue_wait_s` is any cross-stream queueing delay charged on top.
    pub fn complete(
        &mut self,
        frame: &Frame,
        pair: CandidatePair,
        decision: &Decision,
        report: &InferenceReport,
        load: LoadCharge,
        queue_wait_s: f64,
    ) -> FrameOutcome {
        if load.swapped {
            self.swap_count += 1;
        }
        self.current = pair;
        self.pairs_used.insert(pair);

        let detection = report.result.detection;
        let confidence = report.result.confidence();
        let iou = report.result.iou_against(frame.truth.as_ref());

        self.detector
            .update(frame, detection.as_ref().map(|d| &d.bbox));
        self.last_confidence = confidence;
        self.last_detection = detection;

        let config = self.scheduler.config();
        FrameOutcome {
            frame_index: frame.index,
            pair,
            detection,
            confidence,
            iou,
            success: iou >= 0.5,
            latency_s: queue_wait_s + config.scheduler_overhead_s + load.time_s + report.latency_s,
            energy_j: config.scheduler_overhead_energy_j() + load.energy_j + report.energy_j,
            swapped: load.swapped,
            rescheduled: decision.rescheduled,
            similarity: decision.similarity,
        }
    }
}

/// The SHIFT runtime.
///
/// Construction performs the *online-side* setup only: the confidence graph
/// is built from a pre-computed [`Characterization`], the scheduler and the
/// dynamic model loader are initialized, and the initial model is pre-loaded
/// onto its accelerator (charged to the first frame).
///
/// Internally the runtime is one [`StreamAgent`] bound to its own engine and
/// loader; [`FleetRuntime`](crate::fleet::FleetRuntime) composes many agents
/// over one shared engine.
///
/// See the crate-level example for end-to-end usage.
#[derive(Debug, Clone)]
pub struct ShiftRuntime {
    engine: ExecutionEngine,
    loader: DynamicModelLoader,
    agent: StreamAgent,
    /// Optional scripted fault injector, advanced once per frame.
    injector: Option<FaultInjector>,
    resilience: ResilienceCounters,
}

impl ShiftRuntime {
    /// Builds a runtime from an engine, an offline characterization and a
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ShiftError::EmptyCharacterization`] when the
    /// characterization has no samples and [`ShiftError::NoCandidatePairs`]
    /// when no model can run on any allowed accelerator.
    pub fn new(
        engine: ExecutionEngine,
        characterization: &Characterization,
        config: ShiftConfig,
    ) -> Result<Self, ShiftError> {
        let agent = StreamAgent::new(characterization, config)?;
        let mut runtime = Self {
            engine,
            loader: DynamicModelLoader::new(),
            agent,
            injector: None,
            resilience: ResilienceCounters::default(),
        };
        // Make the initial model resident; its load cost is charged to the
        // first processed frame.
        let outcome = runtime
            .loader
            .ensure_loaded(&mut runtime.engine, runtime.agent.current_pair())
            .map_err(ShiftError::from)?;
        runtime
            .agent
            .charge_pending_load(outcome.load_time_s, outcome.load_energy_j);
        Ok(runtime)
    }

    /// Attaches a scripted fault plan: the injector is advanced once per
    /// processed frame (keyed on the frame index) and applies every fault
    /// through the engine's degradation surfaces. A zero-fault plan leaves
    /// every outcome bit-identical to a run without one.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.injector = Some(FaultInjector::new(plan));
        self
    }

    /// The fault injector, when a plan is attached.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.injector.as_ref()
    }

    /// Counters describing how the run observed and survived injected
    /// faults (all zero on a healthy run).
    pub fn resilience(&self) -> ResilienceCounters {
        self.resilience
    }

    /// The pair currently selected for execution.
    pub fn current_pair(&self) -> CandidatePair {
        self.agent.current_pair()
    }

    /// The scheduler (for inspection in tests and ablations).
    pub fn scheduler(&self) -> &Scheduler {
        self.agent.scheduler()
    }

    /// The execution engine (for inspecting telemetry).
    pub fn engine(&self) -> &ExecutionEngine {
        &self.engine
    }

    /// Number of model/accelerator swaps performed so far.
    pub fn swap_count(&self) -> u64 {
        self.agent.swap_count()
    }

    /// Number of full re-scheduling passes (Algorithm 1 decisions) performed
    /// so far. Frames where the NCC similarity gate kept the current model
    /// do not count, so on a stable scene this stays well below the frame
    /// count while a scene-cut burst drives it up.
    pub fn reschedule_count(&self) -> u64 {
        self.agent.scheduler().reschedule_count()
    }

    /// Distinct (model, accelerator) pairs used so far.
    pub fn pairs_used(&self) -> usize {
        self.agent.pairs_used()
    }

    /// Processes a single frame: advance any scripted faults, schedule
    /// (re-planning when the decided pair's accelerator dropped out),
    /// (re)load — degrading to the next-best loadable pair under memory
    /// pressure or dropout — run inference, update context history.
    ///
    /// # Errors
    ///
    /// Propagates unrecoverable loading and execution errors from the SoC
    /// simulator (a fault that leaves *no* candidate pair usable surfaces
    /// the decided pair's error).
    pub fn process_frame(&mut self, frame: &Frame) -> Result<FrameOutcome, ShiftError> {
        // --- Scripted platform faults land at the frame boundary. ---
        let mut fault_active = false;
        if let Some(injector) = self.injector.as_mut() {
            injector.advance(frame.index as u64, &mut self.engine);
            fault_active = injector.is_fault_active();
            if fault_active {
                self.resilience.fault_frames += 1;
            }
        }

        // --- Context detection and scheduling. ---
        let mut decision = self.agent.decide(frame);
        if !self.engine.is_online(decision.pair.accelerator) && decision.scores.is_empty() {
            // The similarity gate kept a pair whose accelerator is gone: run
            // the full Algorithm 1 pass so the load path below has a
            // complete score ranking to degrade along. When the decision
            // already carries scores (a natural re-schedule picked the
            // offline pair), re-running the pass would double-push the same
            // predictions into the momentum buffers — the existing ranking
            // is used as-is instead. The counter only attributes the re-plan
            // to the fault subsystem when the kept pair's own accelerator is
            // fault-dropped (a thermal trip triggers the same survival path
            // but is not injected-fault exposure, even while an unrelated
            // fault window is active).
            let dropped = fault_active
                && self
                    .engine
                    .is_administratively_offline(decision.pair.accelerator);
            decision = self.agent.replan(&decision);
            if dropped {
                self.resilience.fault_replans += 1;
            }
        }

        // --- Dynamic model loading (with fault degradation). ---
        let current = self.agent.current_pair();
        let (mut load_time, mut load_energy) = self.agent.take_pending_load();
        let (pair, charge) = self.acquire_pair(&decision, current)?;
        if pair != decision.pair
            && fault_active
            && fault_on_decided_pair(&self.engine, decision.pair)
        {
            self.resilience.degraded_frames += 1;
        }
        load_time += charge.time_s;
        load_energy += charge.energy_j;
        let swapped = pair != current || charge.swapped;

        // --- Inference. ---
        let report = self
            .engine
            .run_inference(pair.model, pair.accelerator, frame)?;

        // --- Bookkeeping for the next frame. ---
        let load = LoadCharge {
            time_s: load_time,
            energy_j: load_energy,
            swapped,
        };
        Ok(self
            .agent
            .complete(frame, pair, &decision, &report, load, 0.0))
    }

    /// Makes the decided pair — or, when it is offline or memory-blocked,
    /// the best loadable fallback — resident. Candidates are tried in score
    /// order, then the incumbent pair. On a healthy platform this reduces
    /// exactly to "load the decided pair", so healthy runs are bit-identical
    /// to the pre-fault-injection behaviour.
    fn acquire_pair(
        &mut self,
        decision: &Decision,
        current: CandidatePair,
    ) -> Result<(CandidatePair, LoadCharge), ShiftError> {
        if decision.pair == current
            && self.engine.is_loaded(current.model, current.accelerator)
            && self.engine.is_online(current.accelerator)
        {
            self.loader.touch(current);
            return Ok((current, LoadCharge::default()));
        }
        if let Some(charge) = self.try_load(decision.pair)? {
            return Ok((decision.pair, charge));
        }
        // The decided pair is unusable: walk the remaining candidates in
        // score order, then fall back to the incumbent.
        for pair in decision.fallback_candidates(current) {
            if let Some(charge) = self.try_load(pair)? {
                return Ok((pair, charge));
            }
        }
        // Nothing is loadable: surface the decided pair's real error.
        let outcome = self.loader.ensure_loaded(&mut self.engine, decision.pair)?;
        Ok((
            decision.pair,
            LoadCharge {
                time_s: outcome.load_time_s,
                energy_j: outcome.load_energy_j,
                swapped: outcome.loaded,
            },
        ))
    }

    /// Tries to make one candidate resident; `None` when the candidate is
    /// unusable right now (offline, incompatible, or memory-blocked).
    fn try_load(&mut self, pair: CandidatePair) -> Result<Option<LoadCharge>, ShiftError> {
        if !self.engine.is_online(pair.accelerator) {
            return Ok(None);
        }
        if !can_ever_fit(&self.engine, pair) {
            // A model that cannot fit the (possibly squeezed) pool even
            // empty would make `ensure_loaded` evict every resident model
            // before failing; skip it without touching the pool.
            return Ok(None);
        }
        match self.loader.ensure_loaded(&mut self.engine, pair) {
            Ok(outcome) => Ok(Some(LoadCharge {
                time_s: outcome.load_time_s,
                energy_j: outcome.load_energy_j,
                swapped: outcome.loaded,
            })),
            Err(
                SocError::OutOfMemory { .. }
                | SocError::IncompatiblePair { .. }
                | SocError::AcceleratorOffline(_),
            ) => Ok(None),
            Err(other) => Err(other.into()),
        }
    }

    /// Runs the runtime over an entire frame stream.
    ///
    /// # Errors
    ///
    /// Propagates the first error encountered while processing a frame.
    pub fn run<I>(&mut self, frames: I) -> Result<Vec<FrameOutcome>, ShiftError>
    where
        I: IntoIterator<Item = Frame>,
    {
        let mut outcomes = Vec::new();
        for frame in frames {
            outcomes.push(self.process_frame(&frame)?);
        }
        Ok(outcomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::characterize;
    use shift_models::{ModelId, ModelZoo, ResponseModel};
    use shift_soc::{AcceleratorId, Platform};
    use shift_video::{CharacterizationDataset, Scenario};

    fn runtime(config: ShiftConfig) -> ShiftRuntime {
        let engine = ExecutionEngine::new(
            Platform::xavier_nx_with_oak(),
            ModelZoo::standard(),
            ResponseModel::new(6),
        );
        let characterization = characterize(&engine, &CharacterizationDataset::generate(200, 12));
        ShiftRuntime::new(engine, &characterization, config).expect("runtime builds")
    }

    #[test]
    fn runtime_processes_a_short_scenario() {
        let mut rt = runtime(ShiftConfig::paper_defaults());
        let outcomes = rt
            .run(Scenario::scenario_3().with_num_frames(40).stream())
            .unwrap();
        assert_eq!(outcomes.len(), 40);
        for o in &outcomes {
            assert!(o.latency_s > 0.0);
            assert!(o.energy_j > 0.0);
            assert!((0.0..=1.0).contains(&o.iou));
            assert_eq!(o.success, o.iou >= 0.5);
        }
        assert!(rt.pairs_used() >= 1);
    }

    #[test]
    fn first_frame_carries_the_initial_load_cost() {
        let mut rt = runtime(ShiftConfig::paper_defaults());
        let frames: Vec<_> = Scenario::scenario_3().with_num_frames(5).stream().collect();
        let first = rt.process_frame(&frames[0]).unwrap();
        let second = rt.process_frame(&frames[1]).unwrap();
        assert!(
            first.latency_s > second.latency_s,
            "first frame pays the initial model load ({} vs {})",
            first.latency_s,
            second.latency_s
        );
    }

    #[test]
    fn easy_scenario_settles_on_a_cheap_model() {
        // Scenario 3 is a close-range hover on a plain background: after the
        // initial frames SHIFT should migrate away from the expensive
        // YoloV7-on-GPU configuration.
        let mut rt = runtime(ShiftConfig::paper_defaults());
        let outcomes = rt
            .run(Scenario::scenario_3().with_num_frames(120).stream())
            .unwrap();
        let later = &outcomes[60..];
        let yolo_full_gpu = later
            .iter()
            .filter(|o| o.pair.model == ModelId::YoloV7 && o.pair.accelerator == AcceleratorId::Gpu)
            .count();
        assert!(
            yolo_full_gpu < later.len(),
            "SHIFT should not stay pinned to YoloV7-on-GPU on an easy scenario"
        );
        let mean_energy: f64 = later.iter().map(|o| o.energy_j).sum::<f64>() / later.len() as f64;
        assert!(
            mean_energy < 1.9,
            "steady-state energy should drop below the YoloV7-GPU cost, got {mean_energy}"
        );
    }

    #[test]
    fn accuracy_is_maintained_on_easy_scenarios() {
        let mut rt = runtime(ShiftConfig::paper_defaults());
        let outcomes = rt
            .run(Scenario::scenario_3().with_num_frames(150).stream())
            .unwrap();
        let success_rate =
            outcomes.iter().filter(|o| o.success).count() as f64 / outcomes.len() as f64;
        assert!(
            success_rate > 0.6,
            "easy scenario success rate too low: {success_rate}"
        );
    }

    #[test]
    fn swaps_are_counted_and_bounded() {
        let mut rt = runtime(ShiftConfig::paper_defaults());
        let outcomes = rt
            .run(Scenario::scenario_1().with_num_frames(200).stream())
            .unwrap();
        let swaps = outcomes.iter().filter(|o| o.swapped).count() as u64;
        assert_eq!(swaps, rt.swap_count());
        assert!(
            swaps < outcomes.len() as u64 / 2,
            "swapping every other frame would defeat the similarity gate"
        );
    }

    #[test]
    fn scheduler_overhead_is_charged_every_frame() {
        let config = ShiftConfig::paper_defaults();
        let overhead = config.scheduler_overhead_s;
        let mut rt = runtime(config);
        let outcomes = rt
            .run(Scenario::scenario_3().with_num_frames(10).stream())
            .unwrap();
        for o in outcomes {
            assert!(o.latency_s >= overhead);
        }
    }

    #[test]
    fn empty_characterization_is_rejected() {
        let engine = ExecutionEngine::new(
            Platform::xavier_nx_with_oak(),
            ModelZoo::standard(),
            ResponseModel::new(6),
        );
        let empty = Characterization {
            traits: Default::default(),
            samples: Vec::new(),
        };
        let err = ShiftRuntime::new(engine, &empty, ShiftConfig::paper_defaults()).unwrap_err();
        assert_eq!(err, ShiftError::EmptyCharacterization);
    }

    #[test]
    fn determinism_across_identical_runs() {
        let a = {
            let mut rt = runtime(ShiftConfig::paper_defaults());
            rt.run(Scenario::scenario_2().with_num_frames(80).stream())
                .unwrap()
        };
        let b = {
            let mut rt = runtime(ShiftConfig::paper_defaults());
            rt.run(Scenario::scenario_2().with_num_frames(80).stream())
                .unwrap()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn multi_accelerator_usage_emerges() {
        let mut rt = runtime(ShiftConfig::paper_defaults());
        let outcomes = rt
            .run(Scenario::scenario_1().with_num_frames(300).stream())
            .unwrap();
        let non_gpu = outcomes
            .iter()
            .filter(|o| o.pair.accelerator != AcceleratorId::Gpu)
            .count();
        assert!(
            non_gpu > 0,
            "SHIFT should route at least some frames off the GPU"
        );
    }
}
