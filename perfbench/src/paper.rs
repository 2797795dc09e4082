//! `paper-scenarios`: the six evaluation scenarios at full length under the
//! paper's configuration, each on its own `ShiftRuntime` (Xavier NX +
//! OAK-D, healthy platform), over several scenario seeds per round.

use crate::common::{
    calibration, characterize_s, derive, engine, graph_build_s, measured_setup, same_facts,
    sim_facts, timed_rounds, write_trace, Args, Facts, Outcome, SETUP_REPS,
};
use crate::frame_loop::TracedStream;
use crate::stats::{self, median, SessionSlo, SimFrames};
use crate::trace::Tracer;
use shift_core::fleet::{FleetBuilder, StreamSpec};
use shift_core::service::{DeadlineClass, ServicePolicy};
use shift_core::{FrameOutcome, ShiftConfig, ShiftRuntime};
use shift_experiments::workloads::paper_shift_config;
use shift_experiments::ExperimentContext;
use shift_video::Scenario;
use std::time::Instant;

/// Passes over the six scenarios in one round, each on its own seeds.
const PASSES: u64 = 4;

/// One stream of a round: a scenario and its detector response seed.
struct Stream {
    scenario: Scenario,
    response: u64,
}

/// The round's streams: pass `p` re-seeds every evaluation scenario and the
/// detector responses from `(seed, p)`.
fn round_streams(seed: u64) -> Vec<Stream> {
    (0..PASSES)
        .flat_map(|p| {
            let salt = derive(seed, p);
            Scenario::evaluation_set().into_iter().map(move |s| {
                let reseed = s.seed().wrapping_add(salt);
                Stream {
                    scenario: s.with_seed(reseed),
                    response: salt,
                }
            })
        })
        .collect()
}

/// One round's per-scenario outcomes, in scenario order.
type RoundOutcomes = Vec<Result<Vec<FrameOutcome>, String>>;

/// One round through `ShiftRuntime::run`, one runtime per stream.
fn untraced_round(
    ctx: &ExperimentContext,
    config: &ShiftConfig,
    streams: &[Stream],
) -> RoundOutcomes {
    streams
        .iter()
        .map(|stream| {
            let engine = engine(ctx, ctx.platform().clone(), stream.response);
            ShiftRuntime::new(engine, ctx.characterization(), config.clone())
                .and_then(|mut runtime| runtime.run(stream.scenario.stream()))
                .map_err(|e| e.to_string())
        })
        .collect()
}

fn traced_round(
    ctx: &ExperimentContext,
    config: &ShiftConfig,
    streams: &[Stream],
    tracer: &mut Tracer,
) -> RoundOutcomes {
    streams
        .iter()
        .enumerate()
        .map(|(id, stream)| {
            let id = id as u64;
            let traced = tracer.span("runtime.build", id, |t| {
                let engine = engine(ctx, ctx.platform().clone(), stream.response);
                TracedStream::new(engine, ctx.characterization(), config.clone(), None, id, t)
            });
            traced
                .and_then(|mut s| s.run(stream.scenario.stream(), tracer))
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// Folds a round into its facts; failed scenarios count all their frames
/// as failed.
fn round_facts(
    streams: &[Stream],
    round: &RoundOutcomes,
    problems: &mut Vec<String>,
    report: &mut Vec<String>,
) -> Result<(Facts, u64), String> {
    let budget_s = ServicePolicy::defaults().budget_s(DeadlineClass::Standard);
    let mut sim = SimFrames::default();
    let mut sessions = Vec::new();
    let (mut full_passes, mut swaps, mut failed) = (0u64, 0u64, 0u64);
    for (stream, outcomes) in streams.iter().zip(round) {
        let scenario = &stream.scenario;
        match outcomes {
            Ok(outcomes) => {
                for o in outcomes {
                    sim.push(o.iou, o.latency_s, o.energy_j);
                    full_passes += u64::from(o.rescheduled);
                    swaps += u64::from(o.swapped);
                }
                sessions.push(SessionSlo {
                    admitted: true,
                    shed: false,
                    budget_s,
                    latencies_s: outcomes.iter().map(|o| o.latency_s).collect(),
                });
            }
            Err(e) => {
                let frames = scenario.num_frames() as u64;
                sim.push_failed(frames);
                failed += frames;
                problems.push(format!("{}: {e}", scenario.name()));
            }
        }
    }
    let mut facts = Facts::new();
    sim_facts(&sim, &mut facts, report)?;
    facts.insert("slo_met_share".into(), stats::slo_met_share(&sessions));
    facts.insert("scheduler.full_passes".into(), full_passes as f64);
    facts.insert("loader.swaps".into(), swaps as f64);
    Ok((facts, failed))
}

fn frames_of(round: &RoundOutcomes) -> u64 {
    round.iter().flatten().map(|o| o.len() as u64).sum()
}

/// The output check: a one-stream `FleetRuntime` reproduces
/// `ShiftRuntime::run` bit for bit on one scenario. Returns mismatching
/// frames.
fn fleet_of_one_check(
    ctx: &ExperimentContext,
    config: &ShiftConfig,
    stream: &Stream,
    reference: &[FrameOutcome],
    problems: &mut Vec<String>,
) -> u64 {
    let scenario = &stream.scenario;
    let fleet = FleetBuilder::new(
        engine(ctx, ctx.platform().clone(), stream.response),
        ctx.characterization(),
    )
    .stream(StreamSpec::new("check", scenario.clone(), config.clone()))
    .build()
    .and_then(|mut f| f.run_to_completion());
    match fleet {
        Ok(frames) => {
            let mismatched = frames
                .iter()
                .zip(reference)
                .filter(|(f, r)| &f.outcome != *r)
                .count()
                + frames.len().abs_diff(reference.len());
            if mismatched > 0 {
                problems.push(format!(
                    "one-stream fleet differs from ShiftRuntime on {} in {mismatched} frames",
                    scenario.name()
                ));
            }
            mismatched as u64
        }
        Err(e) => {
            problems.push(format!("one-stream fleet on {}: {e}", scenario.name()));
            reference.len() as u64
        }
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let config = paper_shift_config();
    let (ctx, setup_s) = measured_setup(SETUP_REPS, calibration);
    let streams = round_streams(args.seed);

    let untraced_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut first: Option<RoundOutcomes> = None;
    let mut reference: Option<Facts> = None;
    let mut rates = Vec::new();
    let mut report = Vec::new();
    timed_rounds(
        untraced_seconds,
        2,
        || Ok(untraced_round(&ctx, &config, &streams)),
        |secs, round| {
            let mut lines = Vec::new();
            let (facts, failed) = round_facts(&streams, &round, &mut out.problems, &mut lines)?;
            out.attempted += facts["frames_attempted"] as u64;
            out.failed += failed;
            rates.push(frames_of(&round) as f64 / secs);
            match &reference {
                None => {
                    report = lines;
                    reference = Some(facts);
                    first = Some(round);
                }
                Some(r) => {
                    let label = format!("round {}", rates.len());
                    same_facts(&label, r, &facts, &mut out.problems)
                }
            }
            Ok(())
        },
    )?;
    let reference = reference.expect("at least two rounds");
    let first = first.expect("at least two rounds");
    out.report.extend(report);
    out.report.push(format!(
        "{} untraced rounds of {} scenarios, {} frames each: {:.0} input frames/s (median of {:.0?})",
        rates.len(),
        streams.len(),
        reference["frames_attempted"],
        median(&rates),
        rates
    ));

    // Output check, outside the timed phase.
    let k = (args.seed % 6) as usize;
    if let Ok(reference_outcomes) = &first[k] {
        out.attempted += reference_outcomes.len() as u64;
        out.failed += fleet_of_one_check(
            &ctx,
            &config,
            &streams[k],
            reference_outcomes,
            &mut out.problems,
        );
    }

    if args.trace {
        out.set(
            "characterize_s",
            characterize_s(&ctx, &[ctx.platform().clone()]),
        );
        out.set(
            "graph.build_s",
            graph_build_s(ctx.characterization(), &config),
        );

        let mut tracer = Tracer::new();
        let t = Instant::now();
        let traced = traced_round(&ctx, &config, &streams, &mut tracer);
        let traced_s = t.elapsed().as_secs_f64();
        let mut lines = Vec::new();
        let (facts, failed) = round_facts(&streams, &traced, &mut out.problems, &mut lines)?;
        out.attempted += facts["frames_attempted"] as u64;
        out.failed += failed;
        same_facts("traced vs untraced", &reference, &facts, &mut out.problems);
        let mismatched: usize = first
            .iter()
            .zip(&traced)
            .map(|(a, b)| match (a, b) {
                (Ok(a), Ok(b)) => {
                    a.iter().zip(b).filter(|(x, y)| x != y).count() + a.len().abs_diff(b.len())
                }
                _ => 0,
            })
            .sum();
        if mismatched > 0 {
            out.failed += mismatched as u64;
            out.problems.push(format!(
                "traced frame loop differs from ShiftRuntime::run in {mismatched} frames"
            ));
        }
        let frames = frames_of(&traced);
        out.set_trace(&tracer, 0, traced_s);
        out.set_overhead(median(&rates), frames as f64 / traced_s);
        let totals = tracer.totals(0);
        let calls = |name: &str| totals.get(name).map_or(0, |t| t.calls) as f64;
        out.set("trace.frames", frames as f64);
        out.set("video.frames", frames as f64);
        out.set("context.calls", calls("context.similarity"));
        let decisions = calls("scheduler.schedule");
        out.set("scheduler.decisions", decisions);
        out.set("scheduler.full_passes", facts["scheduler.full_passes"]);
        out.set(
            "scheduler.gate_keep_share",
            1.0 - facts["scheduler.full_passes"] / decisions,
        );
        out.set("loader.loads", facts["loader.swaps"]);
        out.set("engine.inferences", calls("engine.run_inference"));
        write_trace(args, &tracer, &mut out);
    } else {
        out.set_end_to_end(setup_s, median(&rates), &reference)?;
    }
    out.facts = reference;
    Ok(out)
}
