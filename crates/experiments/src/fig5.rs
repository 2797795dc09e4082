//! Fig. 5 — sensitivity analysis of the SHIFT parameters.
//!
//! The paper sweeps 1,860 parameter configurations and reports, for each of
//! the six parameters (accuracy / energy / latency knobs, accuracy threshold,
//! momentum, distance threshold), the correlation with the achieved mean
//! accuracy, energy and latency. We reproduce the sweep on a configurable
//! grid and compute Pearson correlations between each parameter and each
//! metric.

use crate::{ExperimentContext, ExperimentError, Method};
use shift_core::{Knobs, ShiftConfig};
use shift_metrics::{pearson_correlation, RunSummary, Table};
use shift_video::Scenario;

/// The six swept parameters, in the order plotted by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SweepParameter {
    /// Accuracy knob (W0).
    AccuracyKnob,
    /// Energy knob (W1).
    EnergyKnob,
    /// Latency knob (W2).
    LatencyKnob,
    /// Accuracy threshold (goal accuracy).
    AccuracyThreshold,
    /// Momentum (frames averaged per model prediction).
    Momentum,
    /// Confidence-graph distance threshold.
    DistanceThreshold,
}

impl SweepParameter {
    /// All parameters in plot order.
    pub const ALL: [SweepParameter; 6] = [
        SweepParameter::AccuracyKnob,
        SweepParameter::EnergyKnob,
        SweepParameter::LatencyKnob,
        SweepParameter::AccuracyThreshold,
        SweepParameter::Momentum,
        SweepParameter::DistanceThreshold,
    ];

    /// Human-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            SweepParameter::AccuracyKnob => "accuracy knob",
            SweepParameter::EnergyKnob => "energy knob",
            SweepParameter::LatencyKnob => "latency knob",
            SweepParameter::AccuracyThreshold => "accuracy threshold",
            SweepParameter::Momentum => "momentum",
            SweepParameter::DistanceThreshold => "distance threshold",
        }
    }
}

impl std::fmt::Display for SweepParameter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// The grid of values swept per parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepGrid {
    /// Accuracy-knob values.
    pub accuracy_knob: Vec<f64>,
    /// Energy-knob values.
    pub energy_knob: Vec<f64>,
    /// Latency-knob values.
    pub latency_knob: Vec<f64>,
    /// Accuracy-threshold values.
    pub accuracy_threshold: Vec<f64>,
    /// Momentum values.
    pub momentum: Vec<usize>,
    /// Distance-threshold values.
    pub distance_threshold: Vec<f64>,
}

impl SweepGrid {
    /// The full grid: 1,860 configurations, matching the count reported in
    /// the paper (7 x 3 x 3 knob settings minus the single all-zero-knob
    /// combination, times 3 accuracy thresholds, 2 momentum values and 5
    /// distance thresholds: 62 x 30 = 1,860).
    pub fn paper() -> Self {
        Self {
            accuracy_knob: vec![0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0],
            energy_knob: vec![0.0, 0.5, 1.0],
            latency_knob: vec![0.0, 0.5, 1.0],
            accuracy_threshold: vec![0.25, 0.5, 0.75],
            momentum: vec![5, 30],
            distance_threshold: vec![0.1, 0.25, 0.5, 0.75, 1.0],
        }
    }

    /// A reduced grid for tests and examples (48 configurations).
    pub fn quick() -> Self {
        Self {
            accuracy_knob: vec![0.25, 1.0],
            energy_knob: vec![0.0, 1.0],
            latency_knob: vec![0.0, 1.0],
            accuracy_threshold: vec![0.25, 0.5],
            momentum: vec![5, 30],
            distance_threshold: vec![0.25, 0.5],
        }
    }

    /// Enumerates every configuration of the grid, skipping degenerate
    /// settings where all three knobs are zero (the scheduler would have no
    /// objective).
    pub fn configurations(&self) -> Vec<ShiftConfig> {
        let mut configs = Vec::new();
        for &a in &self.accuracy_knob {
            for &e in &self.energy_knob {
                for &l in &self.latency_knob {
                    if a == 0.0 && e == 0.0 && l == 0.0 {
                        continue;
                    }
                    for &goal in &self.accuracy_threshold {
                        for &m in &self.momentum {
                            for &d in &self.distance_threshold {
                                configs.push(
                                    ShiftConfig::paper_defaults()
                                        .with_knobs(Knobs::new(a, e, l))
                                        .with_accuracy_goal(goal)
                                        .with_momentum(m)
                                        .with_distance_threshold(d),
                                );
                            }
                        }
                    }
                }
            }
        }
        configs
    }

    /// Number of configurations the grid expands to.
    pub fn len(&self) -> usize {
        self.configurations().len()
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The outcome of one swept configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// The configuration that was run.
    pub config: ShiftConfig,
    /// Mean IoU over the sweep workload.
    pub mean_iou: f64,
    /// Mean per-frame energy, joules.
    pub mean_energy_j: f64,
    /// Mean per-frame latency, seconds.
    pub mean_latency_s: f64,
}

/// Correlation of one parameter against the three metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensitivityRow {
    /// The parameter.
    pub parameter: SweepParameter,
    /// Pearson correlation with mean accuracy.
    pub accuracy_correlation: f64,
    /// Pearson correlation with mean energy.
    pub energy_correlation: f64,
    /// Pearson correlation with mean latency.
    pub latency_correlation: f64,
}

/// Runs the sweep: every configuration of `grid` over the sweep workload
/// (Scenario 1 and Scenario 2, scaled by the context). Configurations run as
/// cells on the deterministic parallel executor (`ctx.jobs()` workers) and
/// reduce in grid order, so the correlation table is identical for any
/// worker count.
///
/// # Errors
///
/// Propagates the first (lowest-indexed) execution failure.
pub fn sweep(
    ctx: &ExperimentContext,
    grid: &SweepGrid,
) -> Result<Vec<SweepPoint>, ExperimentError> {
    let configs = grid.configurations();
    let scenarios = [
        ctx.scaled(Scenario::scenario_1()),
        ctx.scaled(Scenario::scenario_2()),
    ];
    crate::executor::try_run_cells(ctx.jobs(), &configs, |_, config| {
        run_point(ctx, &scenarios, config.clone())
    })
}

fn run_point(
    ctx: &ExperimentContext,
    scenarios: &[Scenario],
    config: ShiftConfig,
) -> Result<SweepPoint, ExperimentError> {
    let method = Method::Shift(config.clone());
    let mut summaries = Vec::new();
    for scenario in scenarios {
        let records = ctx.run(&method, scenario, None)?;
        summaries.push(RunSummary::from_records(scenario.name(), &records));
    }
    let average = RunSummary::average("sweep", &summaries);
    Ok(SweepPoint {
        config,
        mean_iou: average.mean_iou,
        mean_energy_j: average.mean_energy_j,
        mean_latency_s: average.mean_latency_s,
    })
}

/// Computes the per-parameter correlations from a completed sweep.
pub fn sensitivity(points: &[SweepPoint]) -> Vec<SensitivityRow> {
    let value_of = |parameter: SweepParameter, config: &ShiftConfig| -> f64 {
        match parameter {
            SweepParameter::AccuracyKnob => config.knobs.accuracy,
            SweepParameter::EnergyKnob => config.knobs.energy,
            SweepParameter::LatencyKnob => config.knobs.latency,
            SweepParameter::AccuracyThreshold => config.accuracy_goal,
            SweepParameter::Momentum => config.momentum as f64,
            SweepParameter::DistanceThreshold => config.distance_threshold,
        }
    };
    let ious: Vec<f64> = points.iter().map(|p| p.mean_iou).collect();
    let energies: Vec<f64> = points.iter().map(|p| p.mean_energy_j).collect();
    let latencies: Vec<f64> = points.iter().map(|p| p.mean_latency_s).collect();
    SweepParameter::ALL
        .iter()
        .map(|&parameter| {
            let values: Vec<f64> = points
                .iter()
                .map(|p| value_of(parameter, &p.config))
                .collect();
            SensitivityRow {
                parameter,
                accuracy_correlation: pearson_correlation(&values, &ious),
                energy_correlation: pearson_correlation(&values, &energies),
                latency_correlation: pearson_correlation(&values, &latencies),
            }
        })
        .collect()
}

/// Runs the sweep on the given grid and renders the Fig. 5 correlation table.
///
/// # Errors
///
/// Propagates execution failures.
pub fn generate_with_grid(
    ctx: &ExperimentContext,
    grid: &SweepGrid,
) -> Result<Table, ExperimentError> {
    let points = sweep(ctx, grid)?;
    let rows = sensitivity(&points);
    let mut table = Table::new(
        format!(
            "Fig. 5: sensitivity of SHIFT to its parameters ({} configurations)",
            points.len()
        ),
        &[
            "Parameter",
            "Corr. with accuracy",
            "Corr. with energy",
            "Corr. with latency",
        ],
    );
    for row in rows {
        table.push_row(vec![
            row.parameter.to_string(),
            format!("{:+.3}", row.accuracy_correlation),
            format!("{:+.3}", row.energy_correlation),
            format!("{:+.3}", row.latency_correlation),
        ]);
    }
    Ok(table)
}

/// Runs the full paper-scale sweep (1,860 configurations).
///
/// # Errors
///
/// Propagates execution failures.
pub fn generate(ctx: &ExperimentContext) -> Result<Table, ExperimentError> {
    generate_with_grid(ctx, &SweepGrid::paper())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_has_1860_configurations() {
        assert_eq!(SweepGrid::paper().len(), 1860);
        assert!(!SweepGrid::paper().is_empty());
    }

    #[test]
    fn quick_grid_is_small() {
        let grid = SweepGrid::quick();
        assert!(grid.len() <= 64);
        // No degenerate all-zero-knob configuration survives.
        for config in grid.configurations() {
            assert!(config.knobs.accuracy + config.knobs.energy + config.knobs.latency > 0.0);
        }
    }

    fn quick_points() -> &'static Vec<SweepPoint> {
        static POINTS: std::sync::OnceLock<Vec<SweepPoint>> = std::sync::OnceLock::new();
        POINTS.get_or_init(|| {
            // An extra-small context: the sweep runs dozens of SHIFT
            // executions even on the quick grid.
            let ctx = ExperimentContext::with_options(
                71,
                shift_video::CharacterizationDataset::generate(120, 71),
                0.03,
            );
            let grid = SweepGrid {
                accuracy_knob: vec![0.25, 1.5],
                energy_knob: vec![0.0, 1.5],
                latency_knob: vec![0.5],
                accuracy_threshold: vec![0.25, 0.6],
                momentum: vec![5, 30],
                distance_threshold: vec![0.25, 0.75],
            };
            sweep(&ctx, &grid).expect("sweep runs")
        })
    }

    #[test]
    fn sweep_produces_one_point_per_configuration() {
        let points = quick_points();
        assert_eq!(points.len(), 32);
        for p in points.iter() {
            assert!(p.mean_iou >= 0.0 && p.mean_iou <= 1.0);
            assert!(p.mean_energy_j > 0.0);
            assert!(p.mean_latency_s > 0.0);
        }
    }

    #[test]
    fn energy_knob_correlates_negatively_with_energy() {
        // The paper: "By increasing the value of the energy or latency knob,
        // we observe a negative correlation with the actual ODM's energy and
        // latency".
        let rows = sensitivity(quick_points());
        let energy_row = rows
            .iter()
            .find(|r| r.parameter == SweepParameter::EnergyKnob)
            .unwrap();
        assert!(
            energy_row.energy_correlation < 0.05,
            "energy knob should not increase energy (corr {})",
            energy_row.energy_correlation
        );
    }

    #[test]
    fn sensitivity_has_one_row_per_parameter() {
        let rows = sensitivity(quick_points());
        assert_eq!(rows.len(), 6);
        for row in rows {
            assert!(row.accuracy_correlation.abs() <= 1.0);
            assert!(row.energy_correlation.abs() <= 1.0);
            assert!(row.latency_correlation.abs() <= 1.0);
        }
    }

    #[test]
    fn parameter_labels_are_unique() {
        let labels: std::collections::BTreeSet<_> =
            SweepParameter::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), 6);
    }
}
