//! Platform power modes and model quantization: the two "single-model" levers
//! an integrator usually reaches for first, measured against SHIFT's
//! multi-model scheduling on the same scenario.
//!
//! ```text
//! cargo run --release -p shift-experiments --example power_and_precision
//! ```

use shift_experiments::workloads::{paper_shift_config, REFERENCE_SINGLE_MODEL};
use shift_experiments::{ExperimentContext, Method};
use shift_metrics::{run_efficiency, RunSummary, Table};
use shift_models::{ModelZoo, Precision, ResponseModel};
use shift_soc::{ExecutionEngine, PowerMode};
use shift_video::Scenario;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ctx = ExperimentContext::quick(55);
    let scenario = ctx.scaled(Scenario::scenario_2());
    let (model, accelerator) = REFERENCE_SINGLE_MODEL;
    let single = Method::Single(model, accelerator);
    let mut summaries = Vec::new();

    // Lever 1: DVFS power modes with the stock FP32 model.
    for mode in PowerMode::ALL {
        let engine = ctx.engine().with_power_mode(mode);
        let records = ctx.run_on(engine, &single, &scenario, None)?;
        summaries.push(RunSummary::from_records(
            format!("{model} FP32 @{mode}"),
            &records,
        ));
    }

    // Lever 2: quantization in the default 15 W mode.
    for precision in [Precision::Fp16, Precision::Int8] {
        let zoo = ModelZoo::standard().with_precision(precision);
        let engine =
            ExecutionEngine::new(ctx.platform().clone(), zoo, ResponseModel::new(ctx.seed()));
        let records = ctx.run_on(engine, &single, &scenario, None)?;
        summaries.push(RunSummary::from_records(
            format!("{model} {precision} @15W"),
            &records,
        ));
    }

    // SHIFT with neither lever: multi-model scheduling alone.
    let shift_records = ctx.run(&Method::Shift(paper_shift_config()), &scenario, None)?;
    summaries.push(RunSummary::from_records(
        "SHIFT FP32 @15W (multi-model)",
        &shift_records,
    ));

    let table = Table::from_summaries(
        "Single-model levers (DVFS, quantization) vs multi-model scheduling (scenario 2)",
        &summaries,
    );
    println!("{}", table.to_text());

    let best = summaries
        .iter()
        .max_by(|a, b| run_efficiency(a).partial_cmp(&run_efficiency(b)).unwrap())
        .expect("at least one summary");
    println!(
        "most efficient configuration: {} ({:.3} IoU per joule)",
        best.label,
        run_efficiency(best)
    );
    Ok(())
}
