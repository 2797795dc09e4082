//! Workload definitions shared by the experiments: which scenarios feed which
//! artifact, and the standard parameter sets.

use crate::table3::Methodology;
use crate::ExperimentContext;
use shift_core::{Knobs, ShiftConfig};
use shift_models::ModelId;
use shift_soc::AcceleratorId;
use shift_video::Scenario;

/// The SHIFT configuration used by Table III and Figures 3/4, matching the
/// parameters printed under Table III of the paper.
pub fn paper_shift_config() -> ShiftConfig {
    ShiftConfig::paper_defaults()
        .with_accuracy_goal(0.25)
        .with_momentum(30)
        .with_distance_threshold(0.5)
        .with_knobs(Knobs::new(1.0, 0.5, 0.5))
}

/// The single-model reference pair of the headline claims: YoloV7 on the GPU.
pub const REFERENCE_SINGLE_MODEL: (ModelId, AcceleratorId) = (ModelId::YoloV7, AcceleratorId::Gpu);

/// The methodologies the stress and chaos grids compare on every cell, in
/// row order: SHIFT, the strongest single-model baseline and the energy
/// oracle.
pub const GRID_METHODOLOGIES: [Methodology; 3] = [
    Methodology::Shift,
    Methodology::Marlin,
    Methodology::OracleEnergy,
];

/// The models plotted in Fig. 2 (per-model efficiency timelines). Restricted
/// to GPU-executable models, like the figure's "Single model object detection
/// efficiency on GPU".
pub const FIG2_MODELS: [ModelId; 5] = [
    ModelId::YoloV7,
    ModelId::YoloV7Tiny,
    ModelId::SsdResnet50,
    ModelId::SsdMobilenetV1,
    ModelId::SsdMobilenetV2,
];

/// The scenario behind Fig. 2 and Fig. 3 (Scenario 1), scaled by the context.
pub fn fig3_scenario(ctx: &ExperimentContext) -> Scenario {
    ctx.scaled(Scenario::scenario_1())
}

/// The scenario behind Fig. 4 (Scenario 2), scaled by the context.
pub fn fig4_scenario(ctx: &ExperimentContext) -> Scenario {
    ctx.scaled(Scenario::scenario_2())
}

/// The rows of Table I: the three representative models the paper lists with
/// CPU, GPU and GPU/DLA numbers.
pub const TABLE1_MODELS: [ModelId; 3] = [
    ModelId::YoloV7,
    ModelId::YoloV7Tiny,
    ModelId::SsdMobilenetV1,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_caption() {
        let c = paper_shift_config();
        assert_eq!(c.accuracy_goal, 0.25);
        assert_eq!(c.momentum, 30);
        assert_eq!(c.distance_threshold, 0.5);
        assert_eq!(c.knobs.accuracy, 1.0);
    }

    #[test]
    fn workload_scenarios_are_scaled() {
        let ctx = ExperimentContext::quick(5);
        assert!(fig3_scenario(&ctx).num_frames() < Scenario::scenario_1().num_frames());
        assert!(fig4_scenario(&ctx).num_frames() < Scenario::scenario_2().num_frames());
    }

    #[test]
    fn model_lists_are_consistent() {
        assert_eq!(TABLE1_MODELS.len(), 3);
        assert_eq!(FIG2_MODELS.len(), 5);
        assert_eq!(REFERENCE_SINGLE_MODEL.0, ModelId::YoloV7);
    }
}
