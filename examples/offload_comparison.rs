//! Offloading vs on-board scheduling: reproduce the paper's argument that
//! "offloading is not a viable option due to the latency overhead associated
//! with remote processing" by running SHIFT next to a Glimpse-style
//! edge-server pipeline over three link qualities.
//!
//! ```text
//! cargo run --release -p shift-experiments --example offload_comparison
//! ```

use shift_baselines::{Baseline, OffloadConfig, OffloadRuntime};
use shift_experiments::workloads::paper_shift_config;
use shift_experiments::{ExperimentContext, Method};
use shift_metrics::{accuracy_energy_frontier, RunSummary, Table};
use shift_video::Scenario;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ctx = ExperimentContext::quick(77);
    let scenario = ctx.scaled(Scenario::scenario_1());

    let mut summaries = Vec::new();

    let shift_records = ctx.run(&Method::Shift(paper_shift_config()), &scenario, None)?;
    summaries.push(RunSummary::from_records("SHIFT (on-board)", &shift_records));

    let links: [(&str, OffloadConfig); 3] = [
        ("Offload over Wi-Fi", OffloadConfig::wifi()),
        ("Offload over cellular", OffloadConfig::cellular()),
        ("Offload over degraded link", OffloadConfig::degraded()),
    ];
    for (label, config) in links {
        let mut runtime = OffloadRuntime::new(ctx.engine(), config)?;
        let records = runtime.run(scenario.stream(), None)?;
        let stats = runtime.stats();
        println!(
            "{label}: {} frames offloaded, {} fallback, {} tracked, {} blind",
            stats.offloaded_frames, stats.fallback_frames, stats.tracked_frames, stats.blind_frames
        );
        summaries.push(RunSummary::from_records(label, &records));
    }

    let table = Table::from_summaries(
        "On-board multi-model scheduling vs edge-server offloading (scenario 1)",
        &summaries,
    );
    println!("\n{}", table.to_text());

    println!("Accuracy-energy frontier (client-side energy only):");
    for point in accuracy_energy_frontier(&summaries) {
        println!(
            "  {:<28} IoU {:.3}  energy {:.3} J/frame  {}",
            point.label,
            point.mean_iou,
            point.mean_energy_j,
            if point.pareto_optimal {
                "pareto-optimal"
            } else {
                "dominated"
            }
        );
    }
    Ok(())
}
