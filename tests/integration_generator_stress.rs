//! Integration tests for the generated-scenario stress layer: the NCC
//! context-similarity gate regression and the sweep's accuracy-goal
//! contract.

use shift_core::{characterize, ShiftConfig, ShiftRuntime};
use shift_experiments::stress::{self, StressOptions};
use shift_experiments::workloads::GRID_METHODOLOGIES;
use shift_experiments::ExperimentContext;
use shift_models::{ModelZoo, ResponseModel};
use shift_soc::{ExecutionEngine, Platform};
use shift_video::generator::{ScenarioGenerator, ScenarioSpec};
use shift_video::{CharacterizationDataset, Scenario};

fn runtime_for(seed: u64) -> ShiftRuntime {
    let engine = ExecutionEngine::new(
        Platform::xavier_nx_with_oak(),
        ModelZoo::standard(),
        ResponseModel::new(seed),
    );
    let characterization = characterize(&engine, &CharacterizationDataset::generate(200, seed));
    ShiftRuntime::new(engine, &characterization, ShiftConfig::paper_defaults())
        .expect("runtime builds")
}

/// Frame indices at which the active background segment changes — the scene
/// cuts the renderer turns into abrupt texture swaps.
fn cut_frames(scenario: &Scenario) -> Vec<usize> {
    (1..scenario.num_frames())
        .filter(|&i| {
            scenario.background_index_at(scenario.time_of(i))
                != scenario.background_index_at(scenario.time_of(i - 1))
        })
        .collect()
}

/// On a generated stable scene the NCC gate keeps the current model for most
/// frames: the runtime's decision counter stays measurably below the frame
/// count.
#[test]
fn ncc_gate_suppresses_rescheduling_on_a_stable_scene() {
    let scenario = ScenarioGenerator::new(2024)
        .generate(&ScenarioSpec::stable_scene(), 0)
        .with_num_frames(150);
    let mut runtime = runtime_for(9);
    let outcomes = runtime.run(scenario.stream()).expect("run completes");
    let reschedules = runtime.reschedule_count();
    assert_eq!(
        reschedules,
        outcomes.iter().filter(|o| o.rescheduled).count() as u64,
        "the runtime counter must agree with the per-frame flags"
    );
    assert!(
        reschedules <= outcomes.len() as u64 / 2,
        "stable scene: expected the similarity gate to hold on most frames, \
         but {reschedules} of {} frames re-scheduled",
        outcomes.len()
    );
}

/// On a generated scene-cut-burst scenario every cut defeats the NCC gate:
/// the frame right at each background change re-schedules.
#[test]
fn scene_cut_bursts_defeat_the_ncc_gate_at_every_cut() {
    let scenario = ScenarioGenerator::new(2024)
        .generate(&ScenarioSpec::scene_cut_burst(), 0)
        .with_num_frames(200);
    let cuts = cut_frames(&scenario);
    assert!(cuts.len() >= 6, "burst class must produce real cuts");

    let mut runtime = runtime_for(9);
    let outcomes = runtime.run(scenario.stream()).expect("run completes");
    for &cut in &cuts {
        assert!(
            outcomes[cut].rescheduled,
            "frame {cut} sits on a scene cut but the gate kept the model \
             (similarity {})",
            outcomes[cut].similarity
        );
    }
    assert!(
        runtime.reschedule_count() >= cuts.len() as u64,
        "every cut must contribute a re-scheduling pass"
    );
}

/// The cut-burst scenario re-schedules strictly more often than the stable
/// scene under the same runtime configuration — the gate is doing the
/// discriminating, not the scheduler defaults.
#[test]
fn cut_bursts_reschedule_more_than_stable_scenes() {
    let generator = ScenarioGenerator::new(77);
    let stable = generator
        .generate(&ScenarioSpec::stable_scene(), 1)
        .with_num_frames(150);
    let bursty = generator
        .generate(&ScenarioSpec::scene_cut_burst(), 1)
        .with_num_frames(150);
    let count = |scenario: &Scenario| {
        let mut runtime = runtime_for(11);
        runtime.run(scenario.stream()).expect("run completes");
        runtime.reschedule_count()
    };
    let stable_count = count(&stable);
    let bursty_count = count(&bursty);
    assert!(
        bursty_count > stable_count,
        "cut bursts ({bursty_count}) must out-reschedule a stable scene ({stable_count})"
    );
}

/// Acceptance contract of the stress sweep: every SHIFT run across the
/// generated difficulty grid meets its class's accuracy goal, and the sweep
/// covers every class with every method.
#[test]
fn stress_sweep_meets_every_accuracy_goal_across_the_grid() {
    let ctx = ExperimentContext::quick(52);
    let breakdown = stress::sweep(&ctx, &StressOptions::smoke()).expect("sweep runs");
    let (met, total) = breakdown.goal_attainment("SHIFT");
    assert!(total > 0);
    assert_eq!(met, total, "every SHIFT run must meet its accuracy goal");
    for methodology in GRID_METHODOLOGIES {
        assert!(
            breakdown
                .rows()
                .iter()
                .any(|r| r.method == methodology.label()),
            "missing method {methodology}"
        );
    }
    let classes: std::collections::BTreeSet<_> =
        breakdown.rows().iter().map(|r| r.class.clone()).collect();
    assert_eq!(
        classes.len(),
        shift_video::ScenarioLibrary::standard().len(),
        "the sweep must cover every workload class"
    );
}
