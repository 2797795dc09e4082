//! The headline claims of the paper's abstract/conclusion: "up to a 2.8x
//! reduction in latency and a 7.5x decrease in energy consumption, with only
//! a modest 0.97x reduction in successful frames and 0.97x reduction in
//! average IoU" compared to a state-of-the-art ODM (YoloV7) on the GPU.
//!
//! The "up to" ratios are per-scenario maxima; the 0.97x accuracy ratios are
//! averages over all scenarios.

use crate::workloads::{paper_shift_config, REFERENCE_SINGLE_MODEL};
use crate::{ExperimentContext, ExperimentError, Method};
use shift_metrics::{RunSummary, Table};

/// The measured headline ratios (SHIFT vs YoloV7-on-GPU).
#[derive(Debug, Clone, PartialEq)]
pub struct HeadlineRatios {
    /// Per-scenario energy improvement factors (reference energy / SHIFT
    /// energy); the paper reports the maximum as "up to 7.5x".
    pub energy_improvements: Vec<(String, f64)>,
    /// Per-scenario latency improvement factors; the paper reports "up to
    /// 2.8x".
    pub latency_improvements: Vec<(String, f64)>,
    /// Average IoU ratio (SHIFT / reference); the paper reports 0.97x.
    pub iou_ratio: f64,
    /// Average success-rate ratio (SHIFT / reference); the paper reports
    /// 0.97x.
    pub success_ratio: f64,
}

impl HeadlineRatios {
    /// The best (largest) energy improvement across scenarios.
    pub fn max_energy_improvement(&self) -> f64 {
        self.energy_improvements
            .iter()
            .map(|(_, v)| *v)
            .fold(0.0, f64::max)
    }

    /// The best (largest) latency improvement across scenarios.
    pub fn max_latency_improvement(&self) -> f64 {
        self.latency_improvements
            .iter()
            .map(|(_, v)| *v)
            .fold(0.0, f64::max)
    }
}

/// Runs SHIFT and the single-model reference over every scenario and computes
/// the headline ratios.
///
/// # Errors
///
/// Propagates execution failures.
pub fn compute(ctx: &ExperimentContext) -> Result<HeadlineRatios, ExperimentError> {
    let shift_method = Method::Shift(paper_shift_config());
    let (model, accelerator) = REFERENCE_SINGLE_MODEL;
    let reference_method = Method::Single(model, accelerator);
    let mut energy_improvements = Vec::new();
    let mut latency_improvements = Vec::new();
    let mut shift_summaries = Vec::new();
    let mut reference_summaries = Vec::new();
    for scenario in ctx.scenarios() {
        let shift_records = ctx.run(&shift_method, &scenario, None)?;
        let reference_records = ctx.run(&reference_method, &scenario, None)?;
        let shift = RunSummary::from_records("SHIFT", &shift_records);
        let reference = RunSummary::from_records("YoloV7 GPU", &reference_records);
        energy_improvements.push((
            scenario.name().to_string(),
            ratio(reference.mean_energy_j, shift.mean_energy_j),
        ));
        latency_improvements.push((
            scenario.name().to_string(),
            ratio(reference.mean_latency_s, shift.mean_latency_s),
        ));
        shift_summaries.push(shift);
        reference_summaries.push(reference);
    }
    let shift_avg = RunSummary::average("SHIFT", &shift_summaries);
    let reference_avg = RunSummary::average("YoloV7 GPU", &reference_summaries);
    Ok(HeadlineRatios {
        energy_improvements,
        latency_improvements,
        iou_ratio: ratio(shift_avg.mean_iou, reference_avg.mean_iou),
        success_ratio: ratio(shift_avg.success_rate, reference_avg.success_rate),
    })
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator <= 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Renders the headline-claim table.
///
/// # Errors
///
/// Propagates execution failures.
pub fn generate(ctx: &ExperimentContext) -> Result<Table, ExperimentError> {
    let ratios = compute(ctx)?;
    let mut table = Table::new(
        "Headline claims: SHIFT vs YoloV7 on the GPU",
        &["Metric", "Paper", "Measured"],
    );
    table.push_row(vec![
        "max energy improvement".into(),
        "7.5x".into(),
        format!("{:.1}x", ratios.max_energy_improvement()),
    ]);
    table.push_row(vec![
        "max latency improvement".into(),
        "2.8x".into(),
        format!("{:.1}x", ratios.max_latency_improvement()),
    ]);
    table.push_row(vec![
        "average IoU ratio".into(),
        "0.97x".into(),
        format!("{:.2}x", ratios.iou_ratio),
    ]);
    table.push_row(vec![
        "success-rate ratio".into(),
        "0.97x".into(),
        format!("{:.2}x", ratios.success_ratio),
    ]);
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_ratios() -> &'static HeadlineRatios {
        static RATIOS: std::sync::OnceLock<HeadlineRatios> = std::sync::OnceLock::new();
        RATIOS.get_or_init(|| compute(&ExperimentContext::quick(81)).expect("headline computes"))
    }

    #[test]
    fn shift_improves_energy_and_latency_over_the_reference() {
        let ratios = quick_ratios();
        assert_eq!(ratios.energy_improvements.len(), 6);
        assert!(
            ratios.max_energy_improvement() > 1.5,
            "SHIFT should save substantial energy vs YoloV7-GPU, got {:.2}x",
            ratios.max_energy_improvement()
        );
        // The latency margin is thin at the reduced quick scale (model-load
        // costs amortize over very few frames); the full-scale run reported
        // in EXPERIMENTS.md shows a much larger gap.
        assert!(
            ratios.max_latency_improvement() > 1.0,
            "SHIFT should reduce latency vs YoloV7-GPU, got {:.2}x",
            ratios.max_latency_improvement()
        );
    }

    #[test]
    fn accuracy_cost_is_modest() {
        let ratios = quick_ratios();
        assert!(
            ratios.iou_ratio > 0.8,
            "SHIFT should give up little IoU, ratio {:.2}",
            ratios.iou_ratio
        );
        assert!(
            ratios.success_ratio > 0.75,
            "SHIFT should give up little success rate, ratio {:.2}",
            ratios.success_ratio
        );
    }

    #[test]
    fn rendered_table_compares_paper_and_measured() {
        let ctx = ExperimentContext::quick(82);
        let table = generate(&ctx).unwrap();
        let md = table.to_markdown();
        assert!(md.contains("7.5x"));
        assert!(md.contains("Measured"));
        assert_eq!(table.row_count(), 4);
    }
}
