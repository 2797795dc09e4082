//! Integration tests comparing SHIFT against the baselines — the qualitative
//! orderings that must hold for the reproduction to tell the same story as
//! the paper's Table III.

use shift_baselines::{MarlinConfig, OracleObjective};
use shift_experiments::workloads::paper_shift_config;
use shift_experiments::{ExperimentContext, Method};
use shift_metrics::RunSummary;
use shift_models::ModelId;
use shift_soc::AcceleratorId;
use shift_video::Scenario;
use std::sync::OnceLock;

struct BaselineRuns {
    shift: RunSummary,
    marlin: RunSummary,
    single_yolo_gpu: RunSummary,
    oracle_energy: RunSummary,
    oracle_accuracy: RunSummary,
    oracle_latency: RunSummary,
}

fn runs() -> &'static BaselineRuns {
    static RUNS: OnceLock<BaselineRuns> = OnceLock::new();
    RUNS.get_or_init(|| {
        let ctx = ExperimentContext::quick(31);
        let mut shift = Vec::new();
        let mut marlin = Vec::new();
        let mut single = Vec::new();
        let mut oracle_e = Vec::new();
        let mut oracle_a = Vec::new();
        let mut oracle_l = Vec::new();
        for scenario in [
            Scenario::scenario_1(),
            Scenario::scenario_3(),
            Scenario::scenario_5(),
        ] {
            let scenario = ctx.scaled(scenario);
            let summarize = |label: &str, records: &[shift_metrics::FrameRecord]| {
                RunSummary::from_records(label, records)
            };
            shift.push(summarize(
                "SHIFT",
                &ctx.run(&Method::Shift(paper_shift_config()), &scenario, None)
                    .expect("shift runs"),
            ));
            marlin.push(summarize(
                "Marlin",
                &ctx.run(&Method::Marlin(MarlinConfig::standard()), &scenario, None)
                    .expect("marlin runs"),
            ));
            single.push(summarize(
                "YoloV7 GPU",
                &ctx.run(
                    &Method::Single(ModelId::YoloV7, AcceleratorId::Gpu),
                    &scenario,
                    None,
                )
                .expect("single runs"),
            ));
            oracle_e.push(summarize(
                "Oracle E",
                &ctx.run(&Method::Oracle(OracleObjective::Energy), &scenario, None)
                    .expect("oracle runs"),
            ));
            oracle_a.push(summarize(
                "Oracle A",
                &ctx.run(&Method::Oracle(OracleObjective::Accuracy), &scenario, None)
                    .expect("oracle runs"),
            ));
            oracle_l.push(summarize(
                "Oracle L",
                &ctx.run(&Method::Oracle(OracleObjective::Latency), &scenario, None)
                    .expect("oracle runs"),
            ));
        }
        BaselineRuns {
            shift: RunSummary::average("SHIFT", &shift),
            marlin: RunSummary::average("Marlin", &marlin),
            single_yolo_gpu: RunSummary::average("YoloV7 GPU", &single),
            oracle_energy: RunSummary::average("Oracle E", &oracle_e),
            oracle_accuracy: RunSummary::average("Oracle A", &oracle_a),
            oracle_latency: RunSummary::average("Oracle L", &oracle_l),
        }
    })
}

#[test]
fn shift_saves_energy_against_the_single_model_reference() {
    let runs = runs();
    assert!(
        runs.shift.mean_energy_j < runs.single_yolo_gpu.mean_energy_j,
        "SHIFT energy {:.3} J should be below YoloV7-GPU {:.3} J",
        runs.shift.mean_energy_j,
        runs.single_yolo_gpu.mean_energy_j
    );
}

#[test]
fn shift_keeps_accuracy_close_to_the_reference() {
    // The paper reports a 0.97x IoU ratio; allow a looser band at test scale.
    let runs = runs();
    assert!(
        runs.shift.mean_iou > runs.single_yolo_gpu.mean_iou * 0.8,
        "SHIFT IoU {:.3} dropped too far below the reference {:.3}",
        runs.shift.mean_iou,
        runs.single_yolo_gpu.mean_iou
    );
}

#[test]
fn shift_offloads_work_from_the_gpu_while_marlin_cannot() {
    let runs = runs();
    assert_eq!(runs.marlin.non_gpu_fraction, 0.0);
    assert_eq!(runs.single_yolo_gpu.non_gpu_fraction, 0.0);
    assert!(runs.shift.non_gpu_fraction > 0.2);
}

#[test]
fn oracles_bound_shift_from_above() {
    let runs = runs();
    assert!(runs.oracle_accuracy.mean_iou >= runs.shift.mean_iou - 1e-9);
    assert!(runs.oracle_energy.mean_energy_j <= runs.shift.mean_energy_j + 1e-9);
    assert!(runs.oracle_latency.mean_latency_s <= runs.shift.mean_latency_s + 1e-9);
}

#[test]
fn oracles_swap_far_more_than_shift() {
    let runs = runs();
    assert!(
        runs.oracle_accuracy.model_swaps > runs.shift.model_swaps,
        "Oracle A swaps {} should exceed SHIFT swaps {}",
        runs.oracle_accuracy.model_swaps,
        runs.shift.model_swaps
    );
    assert!(runs.oracle_accuracy.pairs_used >= runs.shift.pairs_used);
}

#[test]
fn marlin_tracks_between_detections_and_saves_energy_on_easy_scenes() {
    let ctx = ExperimentContext::quick(37);
    let scenario = ctx.scaled(Scenario::scenario_3());
    let marlin = RunSummary::from_records(
        "Marlin",
        &ctx.run(&Method::Marlin(MarlinConfig::standard()), &scenario, None)
            .expect("marlin runs"),
    );
    let single = RunSummary::from_records(
        "YoloV7 GPU",
        &ctx.run(
            &Method::Single(ModelId::YoloV7, AcceleratorId::Gpu),
            &scenario,
            None,
        )
        .expect("single runs"),
    );
    assert!(
        marlin.mean_energy_j < single.mean_energy_j,
        "on an easy indoor hover the tracker should absorb frames"
    );
}
