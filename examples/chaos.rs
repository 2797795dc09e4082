//! Chaos walkthrough: SHIFT surviving scripted platform faults.
//!
//! Where `quickstart.rs` runs on a healthy SoC, this example scripts a
//! deterministic fault plan — a GPU dropout, a thermal DVFS clamp and a
//! memory squeeze — attaches it to a SHIFT runtime, and prints how the
//! scheduler degrades and recovers: the per-frame pair trace around each
//! fault window plus the run's resilience counters.
//!
//! ```text
//! cargo run --release --example chaos
//! ```

use shift_core::{characterize, ShiftConfig, ShiftRuntime};
use shift_models::{ModelZoo, ResponseModel};
use shift_soc::{ExecutionEngine, FaultPlan, FaultSpec, Platform};
use shift_video::{CharacterizationDataset, Scenario};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The usual offline setup: platform, zoo, characterization.
    let engine = ExecutionEngine::new(
        Platform::xavier_nx_with_oak(),
        ModelZoo::standard(),
        ResponseModel::new(11),
    );
    println!("characterizing the model zoo...");
    let characterization = characterize(&engine, &CharacterizationDataset::generate(300, 11));

    // 2. A scripted fault plan over the scenario's frame clock. `mixed`
    //    scripts one of everything: an accelerator dropout, a 10 W DVFS
    //    clamp, a GPU memory squeeze and a telemetry glitch — all windows
    //    are a pure function of (seed, spec), so this run replays
    //    bit-for-bit.
    let scenario = Scenario::scenario_1().with_num_frames(400);
    let plan = FaultPlan::generate(11, &FaultSpec::mixed(scenario.num_frames() as u64));
    println!("\nfault plan ({} windows):", plan.len());
    for window in plan.windows() {
        println!(
            "  frames {:>3}..{:>3}  {}",
            window.start_frame, window.end_frame, window.kind
        );
    }

    // 3. Attach the plan and run. The runtime re-plans when its accelerator
    //    drops out and degrades to the next-best loadable pair under
    //    pressure; faults recover on their scripted edges.
    let mut runtime = ShiftRuntime::new(engine, &characterization, ShiftConfig::paper_defaults())?
        .with_fault_plan(plan.clone());
    let outcomes = runtime.run(scenario.stream())?;

    // 4. Show the pair trace around each fault window: the frame before the
    //    injection, the first frame inside, and the first frame after
    //    recovery.
    println!("\npair trace around each fault window:");
    for window in plan.windows() {
        let frame_at = |index: u64| outcomes.get(index as usize);
        if let (Some(before), Some(inside)) = (
            frame_at(window.start_frame.saturating_sub(1)),
            frame_at(window.start_frame),
        ) {
            println!("  {}:", window.kind);
            println!("    before  f{:<4} {}", before.frame_index, before.pair);
            println!("    inside  f{:<4} {}", inside.frame_index, inside.pair);
            if let Some(after) = frame_at(window.end_frame) {
                println!("    after   f{:<4} {}", after.frame_index, after.pair);
            }
        }
    }

    // 5. The resilience counters summarize the whole run.
    let counters = runtime.resilience();
    let mean_iou = outcomes.iter().map(|o| o.iou).sum::<f64>() / outcomes.len() as f64;
    println!("\nframes:            {}", outcomes.len());
    println!("fault frames:      {}", counters.fault_frames);
    println!("forced re-plans:   {}", counters.fault_replans);
    println!("degraded frames:   {}", counters.degraded_frames);
    println!("mean IoU:          {mean_iou:.3}");
    Ok(())
}
