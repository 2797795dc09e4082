//! Table III — the paper's main result: SHIFT vs Marlin vs the three Oracles
//! averaged over the six evaluation scenarios.

use crate::workloads::paper_shift_config;
use crate::{ExperimentContext, ExperimentError, Method};
use shift_baselines::{MarlinConfig, OracleObjective};
use shift_metrics::{RunSummary, Table};
use shift_video::Scenario;

/// The methodologies compared in Table III, in row order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Methodology {
    /// Marlin with YoloV7.
    Marlin,
    /// Marlin with YoloV7-Tiny.
    MarlinTiny,
    /// SHIFT with the paper's default parameters.
    Shift,
    /// Oracle optimizing energy.
    OracleEnergy,
    /// Oracle optimizing accuracy.
    OracleAccuracy,
    /// Oracle optimizing latency.
    OracleLatency,
}

impl Methodology {
    /// All methodologies in the row order of Table III.
    pub const ALL: [Methodology; 6] = [
        Methodology::Marlin,
        Methodology::MarlinTiny,
        Methodology::Shift,
        Methodology::OracleEnergy,
        Methodology::OracleAccuracy,
        Methodology::OracleLatency,
    ];

    /// The label printed in the table.
    pub fn label(&self) -> &'static str {
        match self {
            Methodology::Marlin => "Marlin",
            Methodology::MarlinTiny => "Marlin Tiny",
            Methodology::Shift => "SHIFT",
            Methodology::OracleEnergy => "Oracle E",
            Methodology::OracleAccuracy => "Oracle A",
            Methodology::OracleLatency => "Oracle L",
        }
    }

    /// The configured [`Method`] this row runs.
    pub fn method(self) -> Method {
        match self {
            Methodology::Marlin => Method::Marlin(MarlinConfig::standard()),
            Methodology::MarlinTiny => Method::Marlin(MarlinConfig::tiny()),
            Methodology::Shift => Method::Shift(paper_shift_config()),
            Methodology::OracleEnergy => Method::Oracle(OracleObjective::Energy),
            Methodology::OracleAccuracy => Method::Oracle(OracleObjective::Accuracy),
            Methodology::OracleLatency => Method::Oracle(OracleObjective::Latency),
        }
    }
}

impl std::fmt::Display for Methodology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Full Table III results: one averaged summary per methodology plus the
/// per-scenario summaries they were averaged from.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Results {
    /// Averaged (over scenarios) summary per methodology, in row order.
    pub summaries: Vec<RunSummary>,
    /// Per-methodology, per-scenario summaries.
    pub per_scenario: Vec<(Methodology, Vec<RunSummary>)>,
    /// Fractional mean pairs-used per methodology (Table III prints e.g. 4.3).
    pub mean_pairs_used: Vec<(Methodology, f64)>,
}

impl Table3Results {
    /// The averaged summary of one methodology.
    pub fn summary(&self, methodology: Methodology) -> Option<&RunSummary> {
        self.summaries
            .iter()
            .find(|s| s.label == methodology.label())
    }
}

/// Runs every methodology over every evaluation scenario. The whole
/// `(methodology, scenario)` grid runs as cells on the deterministic parallel
/// executor (`ctx.jobs()` workers); each run owns an independent engine, and
/// the index-ordered reduction keeps the table identical for any worker
/// count.
///
/// # Errors
///
/// Propagates the first (lowest-indexed) failure from any run.
pub fn compute(ctx: &ExperimentContext) -> Result<Table3Results, ExperimentError> {
    let scenarios = ctx.scenarios();
    let cells: Vec<(Methodology, &Scenario)> = Methodology::ALL
        .iter()
        .flat_map(|&methodology| scenarios.iter().map(move |s| (methodology, s)))
        .collect();
    let summaries =
        crate::executor::try_run_cells(ctx.jobs(), &cells, |_, &(methodology, scenario)| {
            ctx.run(&methodology.method(), scenario, None)
                .map(|records| {
                    RunSummary::from_records(
                        format!("{} / {}", methodology.label(), scenario.name()),
                        &records,
                    )
                })
        })?;
    let mut per_scenario = Vec::new();
    for (chunk, &methodology) in summaries
        .chunks(scenarios.len())
        .zip(Methodology::ALL.iter())
    {
        per_scenario.push((methodology, chunk.to_vec()));
    }

    let mut summaries = Vec::new();
    let mut mean_pairs_used = Vec::new();
    for (methodology, scenario_summaries) in &per_scenario {
        summaries.push(RunSummary::average(methodology.label(), scenario_summaries));
        mean_pairs_used.push((
            *methodology,
            RunSummary::mean_pairs_used(scenario_summaries),
        ));
    }
    Ok(Table3Results {
        summaries,
        per_scenario,
        mean_pairs_used,
    })
}

/// Renders Table III.
///
/// # Errors
///
/// Propagates failures from [`compute`].
pub fn generate(ctx: &ExperimentContext) -> Result<Table, ExperimentError> {
    let results = compute(ctx)?;
    Ok(Table::from_summaries(
        "Table III: average runtime performance of continuous object detection",
        &results.summaries,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_results() -> &'static Table3Results {
        // Computed once and shared across tests: each test only needs the
        // relative ordering of methods, not an independent run.
        static RESULTS: std::sync::OnceLock<Table3Results> = std::sync::OnceLock::new();
        RESULTS.get_or_init(|| {
            let ctx = ExperimentContext::quick(21);
            compute(&ctx).expect("table 3 computes")
        })
    }

    #[test]
    fn all_methodologies_are_present() {
        let results = quick_results();
        assert_eq!(results.summaries.len(), 6);
        assert_eq!(results.per_scenario.len(), 6);
        for (_, per_scenario) in &results.per_scenario {
            assert_eq!(per_scenario.len(), 6, "six scenarios per methodology");
        }
        for methodology in Methodology::ALL {
            assert!(results.summary(methodology).is_some());
        }
    }

    #[test]
    fn shift_beats_marlin_on_energy() {
        let results = quick_results();
        let shift = results.summary(Methodology::Shift).unwrap();
        let marlin = results.summary(Methodology::Marlin).unwrap();
        assert!(
            shift.mean_energy_j < marlin.mean_energy_j,
            "SHIFT energy {} should be below Marlin energy {}",
            shift.mean_energy_j,
            marlin.mean_energy_j
        );
    }

    #[test]
    fn shift_uses_non_gpu_accelerators_marlin_does_not() {
        let results = quick_results();
        let shift = results.summary(Methodology::Shift).unwrap();
        let marlin = results.summary(Methodology::Marlin).unwrap();
        assert_eq!(marlin.non_gpu_fraction, 0.0, "Marlin is GPU-only");
        assert!(
            shift.non_gpu_fraction > 0.2,
            "SHIFT should offload a substantial share of frames, got {}",
            shift.non_gpu_fraction
        );
    }

    #[test]
    fn oracle_accuracy_has_the_best_iou_and_most_swaps() {
        let results = quick_results();
        let oracle_a = results.summary(Methodology::OracleAccuracy).unwrap();
        for methodology in Methodology::ALL {
            let summary = results.summary(methodology).unwrap();
            assert!(
                oracle_a.mean_iou >= summary.mean_iou - 1e-9,
                "Oracle A IoU {} should dominate {} ({})",
                oracle_a.mean_iou,
                methodology,
                summary.mean_iou
            );
        }
        let shift = results.summary(Methodology::Shift).unwrap();
        assert!(oracle_a.model_swaps > shift.model_swaps);
    }

    #[test]
    fn oracle_energy_is_the_energy_floor() {
        let results = quick_results();
        let oracle_e = results.summary(Methodology::OracleEnergy).unwrap();
        let shift = results.summary(Methodology::Shift).unwrap();
        let marlin = results.summary(Methodology::Marlin).unwrap();
        assert!(oracle_e.mean_energy_j <= shift.mean_energy_j + 1e-9);
        assert!(oracle_e.mean_energy_j <= marlin.mean_energy_j + 1e-9);
    }

    #[test]
    fn shift_iou_stays_close_to_marlin() {
        // The paper reports SHIFT giving up only ~3% IoU vs Marlin/YoloV7.
        let results = quick_results();
        let shift = results.summary(Methodology::Shift).unwrap();
        let marlin = results.summary(Methodology::Marlin).unwrap();
        assert!(
            shift.mean_iou > marlin.mean_iou - 0.12,
            "SHIFT IoU {} should stay within ~0.1 of Marlin {}",
            shift.mean_iou,
            marlin.mean_iou
        );
    }

    #[test]
    fn rendered_table_contains_every_method() {
        let ctx = ExperimentContext::quick(22);
        let table = generate(&ctx).unwrap();
        let md = table.to_markdown();
        for methodology in Methodology::ALL {
            assert!(md.contains(methodology.label()), "missing {methodology}");
        }
    }
}
