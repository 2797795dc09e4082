//! Drone pursuit: compare SHIFT against the conventional single-model
//! deployment and against Marlin on the hardest outdoor scenario
//! (long-range surveillance over busy terrain).
//!
//! ```text
//! cargo run --release -p shift-experiments --example drone_pursuit
//! ```

use shift_baselines::{MarlinConfig, OracleObjective};
use shift_experiments::workloads::paper_shift_config;
use shift_experiments::{ExperimentContext, Method};
use shift_metrics::{RunSummary, Table};
use shift_models::ModelId;
use shift_soc::AcceleratorId;
use shift_video::Scenario;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A reduced-scale context keeps the example under a few seconds; pass a
    // different scale through ExperimentContext::new for full-length runs.
    let ctx = ExperimentContext::quick(2024);
    let scenario = ctx.scaled(Scenario::scenario_5());
    println!(
        "scenario: {} ({} frames, {})",
        scenario.name(),
        scenario.num_frames(),
        scenario.environment()
    );

    let mut summaries = Vec::new();

    // The conventional deployment: the strongest model, pinned to the GPU.
    let single = ctx.run(
        &Method::Single(ModelId::YoloV7, AcceleratorId::Gpu),
        &scenario,
        None,
    )?;
    summaries.push(RunSummary::from_records("YoloV7 on GPU", &single));

    // Marlin: DNN + tracker alternation, still GPU-only.
    let marlin = ctx.run(&Method::Marlin(MarlinConfig::standard()), &scenario, None)?;
    summaries.push(RunSummary::from_records("Marlin", &marlin));

    // SHIFT: context-aware multi-model, multi-accelerator scheduling.
    let shift = ctx.run(&Method::Shift(paper_shift_config()), &scenario, None)?;
    summaries.push(RunSummary::from_records("SHIFT", &shift));

    // The accuracy Oracle: the paper's performance ceiling.
    let oracle = ctx.run(&Method::Oracle(OracleObjective::Accuracy), &scenario, None)?;
    summaries.push(RunSummary::from_records("Oracle A", &oracle));

    let table = Table::from_summaries("Drone pursuit (scenario 5)", &summaries);
    println!("\n{}", table.to_text());

    let reference = &summaries[0];
    let shift_summary = &summaries[2];
    println!(
        "SHIFT vs YoloV7-GPU:  {:.1}x energy, {:.1}x latency, {:.2}x IoU",
        reference.mean_energy_j / shift_summary.mean_energy_j.max(1e-9),
        reference.mean_latency_s / shift_summary.mean_latency_s.max(1e-9),
        shift_summary.mean_iou / reference.mean_iou.max(1e-9),
    );
    Ok(())
}
