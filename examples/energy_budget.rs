//! Energy budgeting: show how the scheduler knobs trade accuracy against
//! energy on the same scenario — the tunability argument of the paper's
//! sensitivity analysis, demonstrated end to end.
//!
//! ```text
//! cargo run --release -p shift-experiments --example energy_budget
//! ```

use shift_core::{Knobs, ShiftConfig};
use shift_experiments::{ExperimentContext, Method};
use shift_metrics::{RunSummary, Table};
use shift_video::Scenario;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ctx = ExperimentContext::quick(99);
    let scenario = ctx.scaled(Scenario::scenario_1());

    let presets: [(&str, Knobs); 4] = [
        ("accuracy-first", Knobs::accuracy_first()),
        ("paper defaults", Knobs::paper_defaults()),
        ("energy saver", Knobs::energy_saver()),
        ("low latency", Knobs::low_latency()),
    ];

    let mut summaries = Vec::new();
    for (label, knobs) in presets {
        let config = ShiftConfig::paper_defaults().with_knobs(knobs);
        let records = ctx.run(&Method::Shift(config), &scenario, None)?;
        summaries.push(RunSummary::from_records(label, &records));
    }

    let table = Table::from_summaries(
        "Knob presets on scenario 1 (smaller energy = longer flight time)",
        &summaries,
    );
    println!("{}", table.to_text());

    let accuracy_first = &summaries[0];
    let energy_saver = &summaries[2];
    println!(
        "energy saver uses {:.0}% of the accuracy-first energy at {:.0}% of its IoU",
        100.0 * energy_saver.mean_energy_j / accuracy_first.mean_energy_j.max(1e-9),
        100.0 * energy_saver.mean_iou / accuracy_first.mean_iou.max(1e-9),
    );
    Ok(())
}
