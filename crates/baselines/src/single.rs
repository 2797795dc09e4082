//! Single-model baseline: one fixed (model, accelerator) pair for the whole
//! stream — the conventional deployment SHIFT is compared against.

use crate::Baseline;
use shift_metrics::FrameRecord;
use shift_models::ModelId;
use shift_soc::{AcceleratorId, ExecutionEngine, SocError};
use shift_video::Frame;

/// Runs a single object-detection model on a single accelerator for every
/// frame.
///
/// The model is loaded once up front; its load cost is charged to the first
/// frame, matching how the SHIFT runtime accounts for its initial load.
///
/// ```
/// use shift_baselines::{Baseline, SingleModelRuntime};
/// use shift_models::{ModelId, ModelZoo, ResponseModel};
/// use shift_soc::{AcceleratorId, ExecutionEngine, Platform};
/// use shift_video::Scenario;
///
/// let engine = ExecutionEngine::new(
///     Platform::xavier_nx_with_oak(),
///     ModelZoo::standard(),
///     ResponseModel::new(0),
/// );
/// let mut runtime = SingleModelRuntime::new(engine, ModelId::YoloV7Tiny, AcceleratorId::Gpu)?;
/// let records = runtime.run(Scenario::scenario_3().with_num_frames(10).stream(), None)?;
/// assert_eq!(records.len(), 10);
/// # Ok::<(), shift_soc::SocError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SingleModelRuntime {
    engine: ExecutionEngine,
    model: ModelId,
    accelerator: AcceleratorId,
    pending_load_time_s: f64,
    pending_load_energy_j: f64,
}

impl SingleModelRuntime {
    /// Creates the runtime and loads the model.
    ///
    /// # Errors
    ///
    /// Returns an error when the pair is incompatible or does not fit in
    /// memory.
    pub fn new(
        mut engine: ExecutionEngine,
        model: ModelId,
        accelerator: AcceleratorId,
    ) -> Result<Self, SocError> {
        let load = engine.load_model(model, accelerator)?;
        Ok(Self {
            engine,
            model,
            accelerator,
            pending_load_time_s: load.load_time_s,
            pending_load_energy_j: load.load_energy_j,
        })
    }
}

impl Baseline for SingleModelRuntime {
    fn engine_mut(&mut self) -> &mut ExecutionEngine {
        &mut self.engine
    }

    fn home_pair(&self) -> (ModelId, AcceleratorId) {
        (self.model, self.accelerator)
    }

    fn process_frame(&mut self, frame: &Frame) -> Result<FrameRecord, SocError> {
        let report = self
            .engine
            .run_inference(self.model, self.accelerator, frame)?;
        let load_time = std::mem::take(&mut self.pending_load_time_s);
        let load_energy = std::mem::take(&mut self.pending_load_energy_j);
        Ok(FrameRecord::new(
            frame.index,
            self.model,
            self.accelerator,
            report.result.iou_against(frame.truth.as_ref()),
            report.latency_s + load_time,
            report.energy_j + load_energy,
            false,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_models::{ModelZoo, ResponseModel};
    use shift_soc::Platform;
    use shift_video::Scenario;

    fn engine() -> ExecutionEngine {
        ExecutionEngine::new(
            Platform::xavier_nx_with_oak(),
            ModelZoo::standard(),
            ResponseModel::new(5),
        )
    }

    #[test]
    fn runs_every_frame_on_the_fixed_pair() {
        let mut rt =
            SingleModelRuntime::new(engine(), ModelId::YoloV7, AcceleratorId::Gpu).unwrap();
        let records = rt
            .run(Scenario::scenario_3().with_num_frames(30).stream(), None)
            .unwrap();
        assert_eq!(records.len(), 30);
        assert!(records.iter().all(|r| r.model == ModelId::YoloV7));
        assert!(records.iter().all(|r| r.accelerator == AcceleratorId::Gpu));
        assert!(records.iter().all(|r| !r.swapped));
        assert_eq!(rt.home_pair(), (ModelId::YoloV7, AcceleratorId::Gpu));
    }

    #[test]
    fn first_frame_includes_load_cost() {
        let mut rt =
            SingleModelRuntime::new(engine(), ModelId::YoloV7, AcceleratorId::Dla0).unwrap();
        let frames: Vec<_> = Scenario::scenario_3().with_num_frames(3).stream().collect();
        let first = rt.process_frame(&frames[0]).unwrap();
        let second = rt.process_frame(&frames[1]).unwrap();
        assert!(first.latency_s > second.latency_s);
        assert!(first.energy_j > second.energy_j);
    }

    #[test]
    fn incompatible_pair_fails_at_construction() {
        let err = SingleModelRuntime::new(engine(), ModelId::SsdResnet50, AcceleratorId::OakD)
            .unwrap_err();
        assert!(matches!(err, SocError::IncompatiblePair { .. }));
    }

    #[test]
    fn gpu_yolov7_energy_matches_table_i() {
        let mut rt =
            SingleModelRuntime::new(engine(), ModelId::YoloV7, AcceleratorId::Gpu).unwrap();
        let records = rt
            .run(Scenario::scenario_3().with_num_frames(50).stream(), None)
            .unwrap();
        // Skip the first frame (load cost) and average the rest; the result
        // should sit near the paper's 1.97 J per inference.
        let steady: Vec<_> = records.iter().skip(1).map(|r| r.energy_j).collect();
        let mean = steady.iter().sum::<f64>() / steady.len() as f64;
        assert!((mean - 1.97).abs() < 0.15, "mean energy {mean}");
    }

    #[test]
    fn stronger_model_has_higher_iou_than_weak_model() {
        let mut strong =
            SingleModelRuntime::new(engine(), ModelId::YoloV7, AcceleratorId::Gpu).unwrap();
        let mut weak =
            SingleModelRuntime::new(engine(), ModelId::SsdMobilenetV2Small, AcceleratorId::Gpu)
                .unwrap();
        let scenario = Scenario::scenario_5().with_num_frames(150);
        let strong_records = strong.run(scenario.clone().stream(), None).unwrap();
        let weak_records = weak.run(scenario.stream(), None).unwrap();
        let strong_iou: f64 =
            strong_records.iter().map(|r| r.iou).sum::<f64>() / strong_records.len() as f64;
        let weak_iou: f64 =
            weak_records.iter().map(|r| r.iou).sum::<f64>() / weak_records.len() as f64;
        assert!(
            strong_iou > weak_iou,
            "YoloV7 ({strong_iou:.3}) should beat MobilenetV2-320 ({weak_iou:.3}) on a hard scenario"
        );
    }
}
