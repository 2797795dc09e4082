//! Generalization check on the extended scenario set.
//!
//! The paper evaluates on six recorded videos. The reproduction adds three
//! synthetic extension scenarios (orbit, figure-eight, station-hold — see
//! `shift_video::Scenario::extended_evaluation_set`) that were *not* used to
//! tune anything, and re-runs the Table III comparison over them alone. If
//! SHIFT's advantage only existed on the six scenarios its parameters were
//! chosen for, this table would show it; preserving the Table III ordering on
//! unseen scenarios is the reproduction's generalization evidence.

use crate::table3::Methodology;
use crate::{ExperimentContext, ExperimentError};
use shift_metrics::{RunSummary, Table};
use shift_video::Scenario;

/// The three extension scenarios, scaled by the context.
pub fn extension_scenarios(ctx: &ExperimentContext) -> Vec<Scenario> {
    vec![
        ctx.scaled(Scenario::scenario_7_orbit()),
        ctx.scaled(Scenario::scenario_8_figure_eight()),
        ctx.scaled(Scenario::scenario_9_station_hold()),
    ]
}

/// The Table III rows re-run on the extension scenarios, in row order.
const METHODOLOGIES: [Methodology; 5] = [
    Methodology::Marlin,
    Methodology::MarlinTiny,
    Methodology::Shift,
    Methodology::OracleEnergy,
    Methodology::OracleAccuracy,
];

/// Runs SHIFT, Marlin and the energy/accuracy Oracles over the extension
/// scenarios and returns one averaged summary per methodology.
///
/// # Errors
///
/// Propagates execution failures.
pub fn compute(ctx: &ExperimentContext) -> Result<Vec<RunSummary>, ExperimentError> {
    let scenarios = extension_scenarios(ctx);
    METHODOLOGIES
        .iter()
        .map(|methodology| {
            let label = methodology.label();
            let rows = scenarios
                .iter()
                .map(|scenario| {
                    let records = ctx.run(&methodology.method(), scenario, None)?;
                    Ok(RunSummary::from_records(
                        format!("{label} / {}", scenario.name()),
                        &records,
                    ))
                })
                .collect::<Result<Vec<_>, ExperimentError>>()?;
            Ok(RunSummary::average(label, &rows))
        })
        .collect()
}

/// Renders the extended-scenario comparison as a table.
///
/// # Errors
///
/// Propagates failures from [`compute`].
pub fn generate(ctx: &ExperimentContext) -> Result<Table, ExperimentError> {
    let summaries = compute(ctx)?;
    Ok(Table::from_summaries(
        "Generalization: Table III methods on the three unseen extension scenarios",
        &summaries,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_ordering_generalizes_to_unseen_scenarios() {
        let ctx = ExperimentContext::quick(83);
        let summaries = compute(&ctx).unwrap();
        assert_eq!(summaries.len(), 5);
        let by_label = |label: &str| summaries.iter().find(|s| s.label == label).unwrap();
        let shift = by_label("SHIFT");
        let marlin = by_label("Marlin");
        let oracle_e = by_label("Oracle E");
        let oracle_a = by_label("Oracle A");
        // The Table III shape must hold on scenarios nothing was tuned on.
        assert!(shift.mean_energy_j < marlin.mean_energy_j);
        assert!(shift.mean_iou > marlin.mean_iou - 0.12);
        assert!(oracle_e.mean_energy_j <= shift.mean_energy_j + 1e-9);
        assert!(oracle_a.mean_iou >= shift.mean_iou - 1e-9);
        assert_eq!(marlin.non_gpu_fraction, 0.0);
        assert!(shift.non_gpu_fraction > 0.2);
    }

    #[test]
    fn extension_scenarios_are_scaled_by_the_context() {
        let ctx = ExperimentContext::quick(84);
        let scenarios = extension_scenarios(&ctx);
        assert_eq!(scenarios.len(), 3);
        for scenario in &scenarios {
            assert!(scenario.num_frames() >= 30);
            assert!(scenario.num_frames() < 200);
        }
    }

    #[test]
    fn rendered_table_lists_all_methods() {
        let ctx = ExperimentContext::quick(85);
        let table = generate(&ctx).unwrap();
        let md = table.to_markdown();
        for label in ["SHIFT", "Marlin", "Oracle E", "Oracle A"] {
            assert!(md.contains(label), "missing {label}");
        }
    }
}
