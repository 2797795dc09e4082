//! Fig. 2 — per-model detection efficiency (IoU per joule) over a continuous
//! test scenario, executed on the GPU.
//!
//! The figure's point is that the ranking of models *changes over time* as
//! the scene context changes: cheap models dominate the efficiency metric on
//! easy segments and collapse on hard ones.

use crate::workloads::{fig3_scenario, FIG2_MODELS};
use crate::{ExperimentContext, ExperimentError, Method};
use shift_metrics::{Table, Timeline};
use shift_models::ModelId;
use shift_soc::AcceleratorId;

/// Number of time buckets used when rendering the series as a table.
pub const BUCKETS: usize = 12;

/// The efficiency series of one model over the scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct EfficiencySeries {
    /// The model.
    pub model: ModelId,
    /// Bucketed mean IoU/J over the scenario (length [`BUCKETS`]).
    pub efficiency: Vec<f64>,
    /// Mean IoU/J over the whole scenario.
    pub mean_efficiency: f64,
}

/// Runs every Fig. 2 model over Scenario 1 on the GPU and computes the
/// bucketed efficiency series.
///
/// # Errors
///
/// Propagates execution failures.
pub fn compute(ctx: &ExperimentContext) -> Result<Vec<EfficiencySeries>, ExperimentError> {
    let scenario = fig3_scenario(ctx);
    let mut series = Vec::new();
    for &model in FIG2_MODELS.iter() {
        let records = ctx.run(&Method::Single(model, AcceleratorId::Gpu), &scenario, None)?;
        let timeline = Timeline::new(model.to_string(), records);
        let efficiency = timeline.bucketed(BUCKETS, |r| r.efficiency());
        let mean_efficiency = if timeline.is_empty() {
            0.0
        } else {
            timeline.efficiency_series().iter().sum::<f64>() / timeline.len() as f64
        };
        series.push(EfficiencySeries {
            model,
            efficiency,
            mean_efficiency,
        });
    }
    Ok(series)
}

/// Renders the Fig. 2 data table (one row per model, one column per time
/// bucket).
///
/// # Errors
///
/// Propagates execution failures.
pub fn generate(ctx: &ExperimentContext) -> Result<Table, ExperimentError> {
    let series = compute(ctx)?;
    let mut headers: Vec<String> = vec!["Model".to_string(), "Mean IoU/J".to_string()];
    headers.extend((0..BUCKETS).map(|b| format!("t{b}")));
    let header_refs: Vec<&str> = headers.iter().map(|h| h.as_str()).collect();
    let mut table = Table::new(
        "Fig. 2: per-model detection efficiency (IoU per joule) on the GPU over Scenario 1",
        &header_refs,
    );
    for s in series {
        let mut row = vec![s.model.to_string(), format!("{:.3}", s.mean_efficiency)];
        row.extend(s.efficiency.iter().map(|v| format!("{v:.2}")));
        table.push_row(row);
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_series() -> &'static Vec<EfficiencySeries> {
        static SERIES: std::sync::OnceLock<Vec<EfficiencySeries>> = std::sync::OnceLock::new();
        SERIES.get_or_init(|| compute(&ExperimentContext::quick(41)).expect("fig2 computes"))
    }

    #[test]
    fn every_fig2_model_has_a_series() {
        let series = quick_series();
        assert_eq!(series.len(), FIG2_MODELS.len());
        for s in series.iter() {
            assert_eq!(s.efficiency.len(), BUCKETS);
            assert!(s.efficiency.iter().all(|v| *v >= 0.0));
        }
    }

    #[test]
    fn cheap_models_are_more_efficient_on_average() {
        // IoU per joule strongly favours the small models (the paper's Fig. 2
        // shows YoloV7-Tiny far above YoloV7).
        let series = quick_series();
        let mean_of = |model: ModelId| {
            series
                .iter()
                .find(|s| s.model == model)
                .map(|s| s.mean_efficiency)
                .unwrap()
        };
        assert!(
            mean_of(ModelId::YoloV7Tiny) > mean_of(ModelId::YoloV7),
            "YoloV7-Tiny should deliver more IoU per joule than YoloV7"
        );
    }

    #[test]
    fn efficiency_varies_over_time() {
        // Scenario 1 crosses easy and hard segments; per-model efficiency
        // must not be flat.
        let series = quick_series();
        for s in series.iter() {
            let max = s
                .efficiency
                .iter()
                .cloned()
                .fold(f64::NEG_INFINITY, f64::max);
            let min = s.efficiency.iter().cloned().fold(f64::INFINITY, f64::min);
            assert!(
                max > min,
                "{}: efficiency series should vary over the scenario",
                s.model
            );
        }
    }

    #[test]
    fn rendered_table_has_bucket_columns() {
        let ctx = ExperimentContext::quick(42);
        let table = generate(&ctx).unwrap();
        assert_eq!(table.column_count(), BUCKETS + 2);
        assert_eq!(table.row_count(), FIG2_MODELS.len());
    }
}
