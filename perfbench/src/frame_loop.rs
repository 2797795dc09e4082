//! The single-stream SHIFT frame loop, driven from outside through each
//! layer's public functions so every call can sit inside its own span.
//!
//! It follows `ShiftRuntime::process_frame` step for step: fault injection,
//! context similarity, Algorithm 1, the forced re-plan when a gate-kept pair
//! dropped out, model loading with degradation, inference, bookkeeping.
//! Each layer is called exactly once per frame in the program's order (a
//! second similarity call would hit the image's cached NCC moments). The
//! workloads check its outcomes against the program's own bit for bit.

use crate::trace::Tracer;
use shift_core::scheduler::CandidatePair;
use shift_core::{
    Characterization, ConfidenceGraph, ContextDetector, Decision, DynamicModelLoader, FrameOutcome,
    LoadCharge, ResilienceCounters, Scheduler, ShiftConfig, ShiftError,
};
use shift_soc::{ExecutionEngine, FaultInjector, FaultPlan, SocError};
use shift_video::Frame;

/// One stream: an engine, a loader, a context detector and a scheduler.
pub struct TracedStream {
    engine: ExecutionEngine,
    loader: DynamicModelLoader,
    detector: ContextDetector,
    scheduler: Scheduler,
    config: ShiftConfig,
    injector: Option<FaultInjector>,
    current: CandidatePair,
    last_confidence: f64,
    last_detection: Option<shift_models::Detection>,
    pending: (f64, f64),
    id: u64,
    /// How the stream observed and survived injected faults.
    pub resilience: ResilienceCounters,
}

impl TracedStream {
    /// Builds the graph and scheduler, then pre-loads the initial pair (its
    /// cost is charged to the first frame), as `ShiftRuntime::new` does.
    pub fn new(
        engine: ExecutionEngine,
        characterization: &Characterization,
        config: ShiftConfig,
        plan: Option<FaultPlan>,
        id: u64,
        tracer: &mut Tracer,
    ) -> Result<Self, ShiftError> {
        if characterization.is_empty() {
            return Err(ShiftError::EmptyCharacterization);
        }
        let graph = tracer.span("graph.build", id, |_| {
            ConfidenceGraph::build(&characterization.samples, config.graph_config())
        });
        let scheduler = tracer.span("scheduler.new", id, |_| {
            Scheduler::new(config.clone(), characterization, graph)
        })?;
        let current = scheduler.initial_pair();
        let mut stream = Self {
            engine,
            loader: DynamicModelLoader::new(),
            detector: ContextDetector::new(),
            scheduler,
            config,
            injector: plan.map(FaultInjector::new),
            current,
            last_confidence: 0.0,
            last_detection: None,
            pending: (0.0, 0.0),
            id,
            resilience: ResilienceCounters::default(),
        };
        let open = tracer.enter("loader.ensure_loaded", id);
        let initial = stream.loader.ensure_loaded(&mut stream.engine, current);
        tracer.exit(open);
        let initial = initial?;
        stream.pending = (initial.load_time_s, initial.load_energy_j);
        Ok(stream)
    }

    /// Processes one frame.
    pub fn process_frame(
        &mut self,
        frame: &Frame,
        tracer: &mut Tracer,
    ) -> Result<FrameOutcome, ShiftError> {
        let id = self.id;
        let mut fault_active = false;
        if let Some(injector) = self.injector.as_mut() {
            let open = tracer.enter("fault.advance", id);
            injector.advance(frame.index as u64, &mut self.engine);
            tracer.exit(open);
            fault_active = injector.is_fault_active();
            if fault_active {
                self.resilience.fault_frames += 1;
            }
        }

        let bbox = self.last_detection.map(|d| d.bbox);
        let open = tracer.enter("context.similarity", id);
        let similarity = self.detector.similarity(frame, bbox.as_ref());
        tracer.exit(open);
        let open = tracer.enter("scheduler.schedule", id);
        let mut decision = self
            .scheduler
            .schedule(self.current, self.last_confidence, similarity);
        tracer.exit(open);
        if !self.engine.is_online(decision.pair.accelerator) && decision.scores.is_empty() {
            let dropped = fault_active
                && self
                    .engine
                    .is_administratively_offline(decision.pair.accelerator);
            let open = tracer.enter("scheduler.force_reschedule", id);
            decision =
                self.scheduler
                    .force_reschedule(self.current, self.last_confidence, similarity);
            tracer.exit(open);
            if dropped {
                self.resilience.fault_replans += 1;
            }
        }

        let current = self.current;
        let (mut load_time, mut load_energy) = std::mem::take(&mut self.pending);
        let (pair, charge) = self.acquire_pair(&decision, current, tracer)?;
        if pair != decision.pair
            && fault_active
            && (self
                .engine
                .is_administratively_offline(decision.pair.accelerator)
                || self.engine.memory_reservation(decision.pair.accelerator) > 0.0)
        {
            self.resilience.degraded_frames += 1;
        }
        load_time += charge.time_s;
        load_energy += charge.energy_j;
        let swapped = pair != current || charge.swapped;

        let open = tracer.enter("engine.run_inference", id);
        let report = self
            .engine
            .run_inference(pair.model, pair.accelerator, frame);
        tracer.exit(open);
        let report = report?;

        let detection = report.result.detection;
        let confidence = report.result.confidence();
        let iou = report.result.iou_against(frame.truth.as_ref());
        let open = tracer.enter("context.update", id);
        self.detector
            .update(frame, detection.as_ref().map(|d| &d.bbox));
        tracer.exit(open);
        self.current = pair;
        self.last_confidence = confidence;
        self.last_detection = detection;
        Ok(FrameOutcome {
            frame_index: frame.index,
            pair,
            detection,
            confidence,
            iou,
            success: iou >= 0.5,
            latency_s: self.config.scheduler_overhead_s + load_time + report.latency_s,
            energy_j: self.config.scheduler_overhead_energy_j() + load_energy + report.energy_j,
            swapped,
            rescheduled: decision.rescheduled,
            similarity: decision.similarity,
        })
    }

    /// Makes the decided pair (or the best loadable fallback) resident.
    fn acquire_pair(
        &mut self,
        decision: &Decision,
        current: CandidatePair,
        tracer: &mut Tracer,
    ) -> Result<(CandidatePair, LoadCharge), ShiftError> {
        if decision.pair == current
            && self.engine.is_loaded(current.model, current.accelerator)
            && self.engine.is_online(current.accelerator)
        {
            let open = tracer.enter("loader.touch", self.id);
            self.loader.touch(current);
            tracer.exit(open);
            return Ok((current, LoadCharge::default()));
        }
        if let Some(charge) = self.try_load(decision.pair, tracer)? {
            return Ok((decision.pair, charge));
        }
        for pair in decision.fallback_candidates(current) {
            if let Some(charge) = self.try_load(pair, tracer)? {
                return Ok((pair, charge));
            }
        }
        let outcome = self.load(decision.pair, tracer)?;
        Ok((decision.pair, outcome))
    }

    fn load(&mut self, pair: CandidatePair, tracer: &mut Tracer) -> Result<LoadCharge, SocError> {
        let open = tracer.enter("loader.ensure_loaded", self.id);
        let outcome = self.loader.ensure_loaded(&mut self.engine, pair);
        tracer.exit(open);
        outcome.map(|o| LoadCharge {
            time_s: o.load_time_s,
            energy_j: o.load_energy_j,
            swapped: o.loaded,
        })
    }

    /// `None` when the candidate is offline, can never fit its pool, or is
    /// memory-blocked or incompatible right now.
    fn try_load(
        &mut self,
        pair: CandidatePair,
        tracer: &mut Tracer,
    ) -> Result<Option<LoadCharge>, ShiftError> {
        if !self.engine.is_online(pair.accelerator) || !self.can_ever_fit(pair) {
            return Ok(None);
        }
        match self.load(pair, tracer) {
            Ok(charge) => Ok(Some(charge)),
            Err(
                SocError::OutOfMemory { .. }
                | SocError::IncompatiblePair { .. }
                | SocError::AcceleratorOffline(_),
            ) => Ok(None),
            Err(other) => Err(other.into()),
        }
    }

    fn can_ever_fit(&self, pair: CandidatePair) -> bool {
        if self.engine.is_loaded(pair.model, pair.accelerator) {
            return true;
        }
        let Some(spec) = self.engine.zoo().get(pair.model) else {
            return false;
        };
        self.engine
            .pool(pair.accelerator)
            .map(|pool| pool.can_ever_fit(spec.load.memory_mb))
            .unwrap_or(false)
    }

    /// Plays `frames` through the stream, one root span per frame around
    /// its rendering and processing.
    pub fn run(
        &mut self,
        mut frames: impl Iterator<Item = Frame>,
        tracer: &mut Tracer,
    ) -> Result<Vec<FrameOutcome>, ShiftError> {
        let mut outcomes = Vec::new();
        loop {
            let open = tracer.enter("runtime.frame", self.id);
            let Some(frame) = tracer.span("video.render", self.id, |_| frames.next()) else {
                tracer.exit(open);
                return Ok(outcomes);
            };
            let outcome = self.process_frame(&frame, tracer);
            tracer.exit(open);
            outcomes.push(outcome?);
        }
    }
}
