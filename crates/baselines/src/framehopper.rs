//! The FrameHopper-style frame-skipping baseline (Arefeen et al., DCOSS'22).
//!
//! FrameHopper processes only the frames that matter: when consecutive frames
//! are nearly identical it reuses the previous detection instead of running
//! the DNN. The paper cites this family of techniques as the "use a subset of
//! the data stream" alternative to multi-model scheduling and notes that
//! skipping data "often results in a significant compromise in accuracy";
//! this baseline lets the reproduction measure that compromise directly.
//!
//! The skip decision uses the same normalized cross-correlation primitive the
//! SHIFT scheduler uses for its context gate, so the two systems observe the
//! same signal and differ only in what they do with it.

use crate::Baseline;
use serde::{Deserialize, Serialize};
use shift_metrics::FrameRecord;
use shift_models::ModelId;
use shift_soc::{AcceleratorId, ExecutionEngine, SocError};
use shift_video::{frame_similarity, BoundingBox, Frame};

/// Latency charged for the skip decision (one frame-to-frame NCC), seconds.
pub const SKIP_CHECK_LATENCY_S: f64 = 0.002;

/// CPU power drawn while computing the skip decision, watts.
pub const SKIP_CHECK_POWER_W: f64 = 3.0;

/// FrameHopper configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FrameHopperConfig {
    /// The DNN run on processed (non-skipped) frames.
    pub model: ModelId,
    /// The accelerator the DNN runs on.
    pub accelerator: AcceleratorId,
    /// Frame similarity above which the current frame is skipped.
    pub skip_similarity_threshold: f64,
    /// Maximum consecutive skipped frames before the DNN is forced to run.
    pub max_consecutive_skips: usize,
}

impl FrameHopperConfig {
    /// The standard configuration: YoloV7 on the GPU, skip when consecutive
    /// frames correlate above 0.9, at most 4 skips in a row.
    pub fn standard() -> Self {
        Self {
            model: ModelId::YoloV7,
            accelerator: AcceleratorId::Gpu,
            skip_similarity_threshold: 0.90,
            max_consecutive_skips: 4,
        }
    }

    /// An aggressive configuration that skips more readily (lower threshold,
    /// longer skip runs) — cheaper and less accurate.
    pub fn aggressive() -> Self {
        Self {
            skip_similarity_threshold: 0.75,
            max_consecutive_skips: 8,
            ..Self::standard()
        }
    }
}

impl Default for FrameHopperConfig {
    fn default() -> Self {
        Self::standard()
    }
}

/// The FrameHopper runtime.
#[derive(Debug, Clone)]
pub struct FrameHopperRuntime {
    engine: ExecutionEngine,
    config: FrameHopperConfig,
    last_frame: Option<Frame>,
    last_detection: Option<BoundingBox>,
    consecutive_skips: usize,
    pending_load_time_s: f64,
    pending_load_energy_j: f64,
    processed_frames: u64,
    skipped_frames: u64,
}

impl FrameHopperRuntime {
    /// Creates the runtime and loads its DNN.
    ///
    /// # Errors
    ///
    /// Returns an error when the configured pair is incompatible.
    pub fn new(mut engine: ExecutionEngine, config: FrameHopperConfig) -> Result<Self, SocError> {
        let load = engine.load_model(config.model, config.accelerator)?;
        Ok(Self {
            engine,
            config,
            last_frame: None,
            last_detection: None,
            consecutive_skips: 0,
            pending_load_time_s: load.load_time_s,
            pending_load_energy_j: load.load_energy_j,
            processed_frames: 0,
            skipped_frames: 0,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> FrameHopperConfig {
        self.config
    }

    /// Number of frames on which the DNN ran.
    pub fn processed_frames(&self) -> u64 {
        self.processed_frames
    }

    /// Number of frames that were skipped.
    pub fn skipped_frames(&self) -> u64 {
        self.skipped_frames
    }

    fn should_skip(&self, frame: &Frame) -> bool {
        if self.consecutive_skips >= self.config.max_consecutive_skips {
            return false;
        }
        let (Some(last), Some(last_bbox)) = (&self.last_frame, &self.last_detection) else {
            return false;
        };
        let similarity = frame_similarity(&last.image, last_bbox, &frame.image, last_bbox);
        similarity >= self.config.skip_similarity_threshold
    }
}

impl Baseline for FrameHopperRuntime {
    fn engine_mut(&mut self) -> &mut ExecutionEngine {
        &mut self.engine
    }

    fn home_pair(&self) -> (ModelId, AcceleratorId) {
        (self.config.model, self.config.accelerator)
    }

    /// Processes one frame: skip it when consecutive frames are similar
    /// enough, otherwise run the DNN.
    fn process_frame(&mut self, frame: &Frame) -> Result<FrameRecord, SocError> {
        let load_time = std::mem::take(&mut self.pending_load_time_s);
        let load_energy = std::mem::take(&mut self.pending_load_energy_j);

        if self.should_skip(frame) {
            self.consecutive_skips += 1;
            self.skipped_frames += 1;
            let iou = match (self.last_detection, frame.truth) {
                (Some(detection), Some(truth)) => detection.iou(&truth),
                _ => 0.0,
            };
            self.last_frame = Some(frame.clone());
            return Ok(FrameRecord::new(
                frame.index,
                self.config.model,
                self.config.accelerator,
                iou,
                SKIP_CHECK_LATENCY_S + load_time,
                SKIP_CHECK_LATENCY_S * SKIP_CHECK_POWER_W + load_energy,
                false,
            ));
        }

        self.consecutive_skips = 0;
        self.processed_frames += 1;
        let report =
            self.engine
                .run_inference(self.config.model, self.config.accelerator, frame)?;
        let iou = report.result.iou_against(frame.truth.as_ref());
        self.last_detection = report.result.detection.map(|d| d.bbox);
        self.last_frame = Some(frame.clone());
        Ok(FrameRecord::new(
            frame.index,
            self.config.model,
            self.config.accelerator,
            iou,
            report.latency_s + SKIP_CHECK_LATENCY_S + load_time,
            report.energy_j + SKIP_CHECK_LATENCY_S * SKIP_CHECK_POWER_W + load_energy,
            false,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single::SingleModelRuntime;
    use shift_models::{ModelZoo, ResponseModel};
    use shift_soc::Platform;
    use shift_video::Scenario;

    fn engine() -> ExecutionEngine {
        ExecutionEngine::new(
            Platform::xavier_nx_with_oak(),
            ModelZoo::standard(),
            ResponseModel::new(23),
        )
    }

    #[test]
    fn skips_frames_on_a_stable_scene() {
        let mut hopper = FrameHopperRuntime::new(engine(), FrameHopperConfig::standard()).unwrap();
        let records = hopper
            .run(Scenario::scenario_3().with_num_frames(120).stream(), None)
            .unwrap();
        assert_eq!(records.len(), 120);
        assert!(
            hopper.skipped_frames() > 0,
            "hovering target should allow skips"
        );
        assert_eq!(
            hopper.skipped_frames() + hopper.processed_frames(),
            records.len() as u64
        );
    }

    #[test]
    fn never_exceeds_the_skip_budget() {
        let config = FrameHopperConfig {
            max_consecutive_skips: 2,
            skip_similarity_threshold: 0.0,
            ..FrameHopperConfig::standard()
        };
        let mut hopper = FrameHopperRuntime::new(engine(), config).unwrap();
        let records = hopper
            .run(Scenario::scenario_3().with_num_frames(60).stream(), None)
            .unwrap();
        // With a similarity threshold of 0 every skippable frame is skipped,
        // so the pattern must be at most 2 skips between detections.
        let mut consecutive = 0usize;
        for record in &records {
            if record.latency_s < 0.01 {
                consecutive += 1;
                assert!(consecutive <= 2, "skip budget violated");
            } else {
                consecutive = 0;
            }
        }
        assert!(hopper.processed_frames() >= 20);
    }

    #[test]
    fn saves_energy_but_loses_accuracy_vs_single_model_on_dynamic_scenes() {
        let scenario = Scenario::scenario_1().with_num_frames(300);
        let mut hopper =
            FrameHopperRuntime::new(engine(), FrameHopperConfig::aggressive()).unwrap();
        let hopper_records = hopper.run(scenario.clone().stream(), None).unwrap();
        let mut single =
            SingleModelRuntime::new(engine(), ModelId::YoloV7, AcceleratorId::Gpu).unwrap();
        let single_records = single.run(scenario.stream(), None).unwrap();

        let he: f64 = hopper_records.iter().map(|r| r.energy_j).sum();
        let se: f64 = single_records.iter().map(|r| r.energy_j).sum();
        assert!(he < se, "skipping must save energy ({he:.1} vs {se:.1} J)");

        let hi: f64 =
            hopper_records.iter().map(|r| r.iou).sum::<f64>() / hopper_records.len() as f64;
        let si: f64 =
            single_records.iter().map(|r| r.iou).sum::<f64>() / single_records.len() as f64;
        // Stale boxes cannot systematically beat per-frame detection; a small
        // tolerance absorbs the detector's own frame-to-frame jitter.
        assert!(
            hi <= si + 0.02,
            "reusing stale boxes ({hi:.3}) should not beat per-frame detection ({si:.3})"
        );
    }

    #[test]
    fn aggressive_config_skips_more_than_standard() {
        let scenario = Scenario::scenario_2().with_num_frames(200);
        let mut standard =
            FrameHopperRuntime::new(engine(), FrameHopperConfig::standard()).unwrap();
        let _ = standard.run(scenario.clone().stream(), None).unwrap();
        let mut aggressive =
            FrameHopperRuntime::new(engine(), FrameHopperConfig::aggressive()).unwrap();
        let _ = aggressive.run(scenario.stream(), None).unwrap();
        assert!(aggressive.skipped_frames() >= standard.skipped_frames());
    }

    #[test]
    fn first_frame_always_runs_the_detector() {
        let mut hopper = FrameHopperRuntime::new(engine(), FrameHopperConfig::standard()).unwrap();
        let frame = Scenario::scenario_3().stream().next().unwrap();
        let record = hopper.process_frame(&frame).unwrap();
        assert_eq!(hopper.processed_frames(), 1);
        assert_eq!(hopper.skipped_frames(), 0);
        assert!(record.latency_s > SKIP_CHECK_LATENCY_S);
    }

    #[test]
    fn stays_on_one_pair_and_never_swaps() {
        let mut hopper = FrameHopperRuntime::new(engine(), FrameHopperConfig::standard()).unwrap();
        let records = hopper
            .run(Scenario::scenario_4().with_num_frames(80).stream(), None)
            .unwrap();
        assert!(records.iter().all(|r| r.model == ModelId::YoloV7));
        assert!(records.iter().all(|r| r.accelerator == AcceleratorId::Gpu));
        assert!(records.iter().all(|r| !r.swapped));
    }
}
