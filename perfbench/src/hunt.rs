//! `fault-hunt`: the coverage-guided adversarial hunt at full sizing
//! (budget 96, pool 16, 240-frame cap) on the calibration context, as
//! `repro -- hunt` runs it, plus a seeded fault grid: every standard
//! workload class under every standard fault preset, with scenario and
//! fault seeds drawn from the run's `--seed`.
//!
//! The timed rounds call `hunt` and `entry_records` themselves. Once per
//! run, outside the timed phase, the hunt is replayed from outside
//! (`Corpus::seed`, `Mutator::mutate`, the greedy minimizer over
//! `shrink_candidates`) so the run can count its frames and fold their
//! simulated outcomes; the replay's findings CSV must equal `hunt`'s, and
//! every finding's evaluation must equal `evaluate_entry`'s.

use crate::common::{
    calibration, characterize_s, derive, graph_build_s, measured_setup, same_facts, sim_facts,
    timed_rounds, write_trace, Args, Facts, Outcome, SETUP_REPS,
};
use crate::frame_loop::TracedStream;
use crate::stats::{self, median, SessionSlo, SimFrames};
use crate::trace::Tracer;
use shift_core::service::{DeadlineClass, ServicePolicy};
use shift_core::ResilienceCounters;
use shift_experiments::search::{
    entry_records, entry_size, evaluate_entry, hunt, shrink_candidates, CaseEvaluation,
    ContextKind, Corpus, CorpusCase, FailureSignal, HuntEntry, HuntOptions, HuntOutcome, Mutator,
    SignalKind,
};
use shift_experiments::workloads::paper_shift_config;
use shift_experiments::{outcome_to_record, ExperimentContext};
use shift_metrics::{FrameRecord, HuntReport, HuntRow, ResilienceRow, ScenarioRow};
use shift_soc::{FaultPlan, FaultSpec};
use shift_video::{ScenarioGenerator, ScenarioLibrary};
use std::collections::BTreeSet;
use std::time::Instant;

/// What one hunt accumulated over every evaluation.
#[derive(Default)]
struct HuntRun {
    sim: SimFrames,
    sessions: Vec<SessionSlo>,
    swaps: u64,
    evaluations: u64,
    minimize_evaluations: u64,
    rounds: u64,
    shrink_steps: u64,
    csv: String,
    /// Each reported finding's minimized entry, signal and evaluation.
    findings: Vec<(HuntEntry, SignalKind, CaseEvaluation)>,
    loop_s: f64,
    minimize_s: f64,
    /// Traced runs only: full passes and fault survival counters.
    full_passes: u64,
    resilience: ResilienceCounters,
}

impl HuntRun {
    /// Folds one evaluated entry's records.
    fn fold(&mut self, records: &[FrameRecord]) {
        for r in records {
            self.sim.push(r.iou, r.latency_s, r.energy_j);
            self.swaps += u64::from(r.swapped);
        }
        self.sessions.push(SessionSlo {
            admitted: true,
            shed: false,
            budget_s: ServicePolicy::defaults().budget_s(DeadlineClass::Standard),
            latencies_s: records.iter().map(|r| r.latency_s).collect(),
        });
    }

    /// The deterministic facts of the hunt.
    fn facts(&self, report: &mut Vec<String>) -> Result<Facts, String> {
        let mut facts = Facts::new();
        sim_facts(&self.sim, &mut facts, report)?;
        facts.insert("slo_met_share".into(), stats::slo_met_share(&self.sessions));
        for (name, value) in [
            ("hunt.evaluations", self.evaluations),
            ("hunt.rounds", self.rounds),
            ("hunt.findings", self.findings.len() as u64),
            ("hunt.shrink_steps", self.shrink_steps),
            ("hunt.minimize_evaluations", self.minimize_evaluations),
            ("hunt.csv_bytes", self.csv.len() as u64),
            ("loader.loads", self.swaps),
        ] {
            facts.insert(name.into(), value as f64);
        }
        Ok(facts)
    }
}

/// How one entry is evaluated.
#[derive(Clone, Copy, PartialEq)]
enum Path {
    /// `entry_records` itself: the frame path `evaluate_entry` runs.
    Program,
    /// The traced frame loop.
    Traced,
}

/// Evaluates one entry and reduces it exactly as `evaluate_entry` does.
fn evaluate(
    ctx: &ExperimentContext,
    entry: &HuntEntry,
    path: Path,
    tracer: &mut Tracer,
    run: &mut HuntRun,
) -> Result<CaseEvaluation, String> {
    let id = run.evaluations + run.minimize_evaluations;
    let root = tracer.enter("hunt.evaluate", id);
    let result = match path {
        Path::Program => entry_records(ctx, entry)
            .map(|records| (records, FaultPlan::generate(entry.fault_seed, &entry.fault)))
            .map_err(|e| e.to_string()),
        Path::Traced => traced_records(ctx, entry, id, tracer, run),
    };
    let result = result.map(|(records, plan)| {
        run.fold(&records);
        tracer.span("metrics.reduce", id, |_| reduce(entry, &plan, &records))
    });
    tracer.exit(root);
    result
}

fn traced_records(
    ctx: &ExperimentContext,
    entry: &HuntEntry,
    id: u64,
    tracer: &mut Tracer,
    run: &mut HuntRun,
) -> Result<(Vec<FrameRecord>, FaultPlan), String> {
    let scenario = tracer.span("video.generate", id, |_| {
        ScenarioGenerator::new(entry.scenario_seed).generate(&entry.scenario, entry.replica)
    });
    let plan = tracer.span("fault.plan", id, |_| {
        FaultPlan::generate(entry.fault_seed, &entry.fault)
    });
    let config = paper_shift_config().with_accuracy_goal(entry.scenario.accuracy_goal);
    let open = tracer.enter("runtime.build", id);
    let stream = TracedStream::new(
        ctx.engine(),
        ctx.characterization(),
        config,
        Some(plan.clone()),
        id,
        tracer,
    );
    tracer.exit(open);
    let mut stream = stream.map_err(|e| e.to_string())?;
    let outcomes = stream
        .run(scenario.stream(), tracer)
        .map_err(|e| e.to_string())?;
    run.full_passes += outcomes.iter().filter(|o| o.rescheduled).count() as u64;
    let r = stream.resilience;
    run.resilience.fault_frames += r.fault_frames;
    run.resilience.fault_replans += r.fault_replans;
    run.resilience.degraded_frames += r.degraded_frames;
    Ok((outcomes.iter().map(outcome_to_record).collect(), plan))
}

/// `evaluate_entry`'s reduction of one run's records.
fn reduce(entry: &HuntEntry, plan: &FaultPlan, records: &[FrameRecord]) -> CaseEvaluation {
    let scenario_name = format!(
        "{}-s{}-r{}",
        entry.scenario.name, entry.scenario_seed, entry.replica
    );
    let fault_flags: Vec<bool> = (0..records.len())
        .map(|frame| plan.active_at(frame as u64))
        .collect();
    let recovery_edges: Vec<usize> = plan
        .recovery_frames()
        .into_iter()
        .filter(|&edge| (edge as usize) < records.len())
        .map(|edge| edge as usize)
        .collect();
    let goal = entry.scenario.accuracy_goal;
    let scenario_row = ScenarioRow::from_records(
        scenario_name.clone(),
        entry.scenario.name.clone(),
        entry.scenario.difficulty.label(),
        entry.scenario.environment.to_string(),
        "SHIFT",
        goal,
        records,
    );
    let resilience_row = ResilienceRow::from_records(
        "hunt",
        scenario_name,
        "SHIFT",
        goal,
        records,
        &fault_flags,
        &recovery_edges,
    );
    let frames = records.len();
    let share = |count: usize| {
        if frames == 0 {
            0.0
        } else {
            count as f64 / frames as f64
        }
    };
    let blind_frame_fraction = share(records.iter().filter(|r| r.iou == 0.0).count());
    let replans_per_kframe = if frames == 0 {
        0.0
    } else {
        scenario_row.model_swaps as f64 * 1000.0 / frames as f64
    };
    let fault_drop = if resilience_row.fault_frames < 8 {
        0.0
    } else {
        resilience_row.success_outside_fault - resilience_row.success_in_fault
    };
    let magnitudes = [
        goal - scenario_row.mean_iou,
        replans_per_kframe,
        blind_frame_fraction,
        fault_drop,
    ];
    let signals = [0, 1, 2, 3].map(|i| FailureSignal {
        kind: SignalKind::ALL[i],
        magnitude: magnitudes[i],
    });
    CaseEvaluation {
        fault_windows: plan.len(),
        scenario_row,
        resilience_row,
        blind_frame_fraction,
        replans_per_kframe,
        signals,
    }
}

/// The hunt: the coverage-guided loop, the greedy minimizer and the
/// findings report, step for step as `hunt` runs them.
fn hunt_loop(
    ctx: &ExperimentContext,
    options: &HuntOptions,
    path: Path,
    tracer: &mut Tracer,
) -> Result<HuntRun, String> {
    let mut run = HuntRun::default();
    let t = Instant::now();
    let loop_span = tracer.enter("hunt.loop", 0);
    let mutator = Mutator::new(ctx.seed());
    let mut corpus = Corpus::seed(ctx, options.max_frames);
    let mut found: Vec<(HuntEntry, SignalKind)> = Vec::new();
    let mut evaluations = 0;
    let mut rounds = 0;
    let mut result = Ok(());
    while result.is_ok() && evaluations < options.budget && found.len() < options.max_findings {
        let pool = options.pool.min(options.budget - evaluations).max(1);
        let mutants: Vec<HuntEntry> = tracer.span("hunt.mutate", rounds as u64, |_| {
            (0..pool)
                .map(|slot| {
                    let parent = &corpus.entries()[(rounds * options.pool + slot) % corpus.len()];
                    mutator.mutate(parent, rounds as u64, slot as u64, options.max_frames)
                })
                .collect()
        });
        for entry in &mutants {
            let evaluation = evaluate(ctx, entry, path, tracer, &mut run);
            run.evaluations += 1;
            let evaluation = match evaluation {
                Ok(e) => e,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            };
            for signal in evaluation.fired() {
                let signature = evaluation.signature(entry, signal);
                if corpus.extend_coverage(signature) && found.len() < options.max_findings {
                    corpus.push(entry.clone());
                    found.push((entry.clone(), signal.kind));
                }
            }
        }
        evaluations += mutants.len();
        rounds += 1;
    }
    tracer.exit(loop_span);
    result?;
    run.rounds = rounds as u64;
    run.loop_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut minimized = Vec::new();
    for (entry, kind) in &found {
        let open = tracer.enter("hunt.minimize", minimized.len() as u64);
        let result = minimize(ctx, entry, *kind, path, tracer, &mut run);
        tracer.exit(open);
        minimized.push(result?);
    }
    run.minimize_s = t.elapsed().as_secs_f64();

    let mut seen = BTreeSet::new();
    let mut report = HuntReport::new();
    for (entry, evaluation, kind, original_size, shrink_steps) in minimized {
        if !seen.insert(evaluation.signature(&entry, evaluation.signal(kind))) {
            continue;
        }
        let signal = evaluation.signal(kind);
        let s = &entry.scenario;
        report.push(HuntRow {
            finding: run.findings.len(),
            signal: kind.label().to_string(),
            magnitude: signal.magnitude,
            threshold: kind.threshold(),
            scenario: s.name.clone(),
            difficulty: s.difficulty.label().to_string(),
            family: s.family.to_string(),
            weather: s.weather.to_string(),
            environment: s.environment.to_string(),
            frames: evaluation.scenario_row.frames,
            fault_windows: evaluation.fault_windows,
            fault_frames: evaluation.resilience_row.fault_frames,
            accuracy_goal: s.accuracy_goal,
            mean_iou: evaluation.scenario_row.mean_iou,
            goal_gap: s.accuracy_goal - evaluation.scenario_row.mean_iou,
            replans_per_kframe: evaluation.replans_per_kframe,
            blind_frame_fraction: evaluation.blind_frame_fraction,
            degraded_fault_fraction: evaluation.resilience_row.degraded_fault_fraction,
            scenario_seed: entry.scenario_seed,
            replica: entry.replica,
            fault_seed: entry.fault_seed,
            original_size,
            minimized_size: entry_size(&entry),
            shrink_steps,
        });
        run.shrink_steps += shrink_steps as u64;
        run.findings.push((entry, kind, evaluation));
    }
    run.csv = report.to_csv();
    Ok(run)
}

type Minimized = (HuntEntry, CaseEvaluation, SignalKind, u64, usize);

/// The greedy minimizer: accept the first shrink candidate that still
/// fires `kind`, until none does.
fn minimize(
    ctx: &ExperimentContext,
    entry: &HuntEntry,
    kind: SignalKind,
    path: Path,
    tracer: &mut Tracer,
    run: &mut HuntRun,
) -> Result<Minimized, String> {
    let original_size = entry_size(entry);
    let mut current = entry.clone();
    let evaluation = evaluate(ctx, &current, path, tracer, run);
    run.minimize_evaluations += 1;
    let mut evaluation = evaluation?;
    let mut shrink_steps = 0;
    if evaluation.signal(kind).fires() {
        'shrinking: loop {
            for candidate in shrink_candidates(&current) {
                let candidate_eval = evaluate(ctx, &candidate, path, tracer, run);
                run.minimize_evaluations += 1;
                let candidate_eval = candidate_eval?;
                if candidate_eval.signal(kind).fires() {
                    current = candidate;
                    evaluation = candidate_eval;
                    shrink_steps += 1;
                    continue 'shrinking;
                }
            }
            break;
        }
    }
    Ok((current, evaluation, kind, original_size, shrink_steps))
}

/// The output checks on a hunt's findings: each minimized entry still fires
/// its signal through `evaluate_entry`, with exactly the hunt's evaluation,
/// and its corpus case round-trips through the codec.
fn check_findings(ctx: &ExperimentContext, run: &HuntRun, problems: &mut Vec<String>) -> u64 {
    let mut failed = 0;
    for (index, (entry, kind, evaluation)) in run.findings.iter().enumerate() {
        let mut fail = |why: String| {
            problems.push(format!("finding {index}: {why}"));
            failed += 1;
        };
        match evaluate_entry(ctx, entry) {
            Ok(replayed) => {
                if !replayed.signal(*kind).fires() {
                    fail(format!("{} no longer fires", kind.label()));
                }
                if &replayed != evaluation {
                    fail("evaluate_entry's evaluation differs from the hunt's".to_string());
                }
            }
            Err(e) => fail(format!("evaluate_entry: {e}")),
        }
        let case = CorpusCase {
            entry: entry.clone(),
            signal: *kind,
            magnitude: evaluation.signal(*kind).magnitude,
            context: ContextKind::of(ctx),
            context_seed: ctx.seed(),
        };
        match CorpusCase::decode(&case.encode()) {
            Ok(decoded) if decoded == case => {}
            Ok(_) => fail("corpus case changes through encode/decode".to_string()),
            Err(e) => fail(format!("corpus case does not decode: {e}")),
        }
    }
    failed
}

/// The seeded fault grid: every standard workload class at the hunt's
/// frame cap under every standard fault preset.
fn fault_grid(seed: u64, max_frames: usize) -> Vec<HuntEntry> {
    let presets: [fn(u64) -> FaultSpec; 5] = [
        FaultSpec::none,
        FaultSpec::dropout_storm,
        FaultSpec::mixed,
        FaultSpec::thermal_brownout,
        FaultSpec::memory_crunch,
    ];
    let mut grid = Vec::new();
    for (index, spec) in ScenarioLibrary::standard().specs().iter().enumerate() {
        for (p, preset) in presets.iter().enumerate() {
            let cell = (index * presets.len() + p) as u64;
            grid.push(HuntEntry {
                scenario: spec.clone().with_frames(max_frames, max_frames),
                fault: preset(max_frames as u64),
                scenario_seed: derive(seed, cell),
                replica: index as u64,
                fault_seed: derive(seed, 1 << 20 | cell),
            });
        }
    }
    grid
}

/// Each grid entry's records, or why it failed.
type GridRecords = Vec<Result<Vec<FrameRecord>, String>>;

/// The grid's records through `entry_records`, or through the traced frame
/// loop when a traced run asks.
fn grid_records(
    ctx: &ExperimentContext,
    grid: &[HuntEntry],
    path: Path,
    tracer: &mut Tracer,
    run: &mut HuntRun,
) -> GridRecords {
    grid.iter()
        .enumerate()
        .map(|(index, entry)| {
            let id = (1 << 32) | index as u64;
            tracer.span("grid.evaluate", id, |t| match path {
                Path::Program => entry_records(ctx, entry).map_err(|e| e.to_string()),
                Path::Traced => traced_records(ctx, entry, id, t, run).map(|(records, _)| records),
            })
        })
        .collect()
}

/// Folds the grid's records into `run` (frames of a failed entry count as
/// failed), returning the failed frames.
fn fold_grid(
    grid: &[HuntEntry],
    records: &GridRecords,
    run: &mut HuntRun,
    problems: &mut Vec<String>,
) -> u64 {
    let mut failed = 0;
    for (entry, records) in grid.iter().zip(records) {
        match records {
            Ok(records) => run.fold(records),
            Err(e) => {
                let frames = entry.scenario.frames.1 as u64;
                run.sim.push_failed(frames);
                failed += frames;
                problems.push(format!("grid entry {}: {e}", entry.scenario.name));
            }
        }
    }
    failed
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let options = HuntOptions::full();
    let (ctx, setup_s) = measured_setup(SETUP_REPS, calibration);
    let grid = fault_grid(args.seed, options.max_frames);

    // The hunt's frames, counted by replaying it (checked against `hunt`
    // below); the timed rounds then run `hunt` and the grid themselves.
    let mut replay = hunt_loop(&ctx, &options, Path::Program, &mut Tracer::disabled())?;
    let hunt_frames = replay.sim.attempted;

    let untraced_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut first: Option<(HuntOutcome, GridRecords)> = None;
    let mut rates = Vec::new();
    timed_rounds(
        untraced_seconds,
        2,
        || {
            let outcome = hunt(&ctx, &options).map_err(|e| e.to_string())?;
            let records = grid_records(
                &ctx,
                &grid,
                Path::Program,
                &mut Tracer::disabled(),
                &mut HuntRun::default(),
            );
            Ok((outcome, records))
        },
        |secs, (outcome, records)| {
            let frames: u64 = records.iter().flatten().map(|r| r.len() as u64).sum();
            rates.push((hunt_frames + frames) as f64 / secs);
            out.attempted +=
                hunt_frames + grid.iter().map(|e| e.scenario.frames.1 as u64).sum::<u64>();
            match &first {
                None => first = Some((outcome, records)),
                Some((o, r)) => {
                    if o != &outcome || r != &records {
                        out.problems
                            .push(format!("round {} differs from round 1", rates.len()));
                    }
                }
            }
            Ok(())
        },
    )?;
    let (outcome, records) = first.expect("at least two rounds");
    out.failed += fold_grid(&grid, &records, &mut replay, &mut out.problems);
    let facts = replay.facts(&mut out.report)?;
    out.report.push(format!(
        "{} untraced rounds of the hunt ({} evaluations, {hunt_frames} frames) and a {}-entry fault grid: {:.0} input frames/s (median of {:.0?})",
        rates.len(),
        replay.evaluations + replay.minimize_evaluations,
        grid.len(),
        median(&rates),
        rates
    ));
    out.report.push(format!(
        "{} findings after {} loop rounds, {} shrink steps",
        replay.findings.len(),
        replay.rounds,
        replay.shrink_steps
    ));

    // Output checks, outside the timed phase.
    out.attempted += replay.findings.len() as u64 + 1;
    if replay.csv != outcome.report.to_csv() {
        out.failed += 1;
        out.problems
            .push("replayed findings CSV differs from hunt()'s".to_string());
    }
    out.failed += check_findings(&ctx, &replay, &mut out.problems);

    if args.trace {
        let mut tracer = Tracer::new();
        let t = Instant::now();
        let mut traced = hunt_loop(&ctx, &options, Path::Traced, &mut tracer)?;
        let traced_records = grid_records(&ctx, &grid, Path::Traced, &mut tracer, &mut traced);
        let traced_s = t.elapsed().as_secs_f64();
        out.failed += fold_grid(&grid, &traced_records, &mut traced, &mut out.problems);
        out.attempted += traced.sim.attempted;
        same_facts(
            "traced vs untraced",
            &facts,
            &traced.facts(&mut Vec::new())?,
            &mut out.problems,
        );
        if traced.csv != replay.csv || traced_records != records {
            out.failed += 1;
            out.problems
                .push("traced frame loop differs from entry_records".to_string());
        }
        let frames = traced.sim.attempted as f64;
        out.set_trace(&tracer, 0, traced_s);
        out.set_overhead(median(&rates), frames / traced_s);
        for name in [
            "hunt.evaluations",
            "hunt.rounds",
            "hunt.findings",
            "hunt.shrink_steps",
            "hunt.minimize_evaluations",
            "loader.loads",
        ] {
            out.set(name, facts[name]);
        }
        let totals = tracer.totals(0);
        let calls = |name: &str| totals.get(name).map_or(0, |t| t.calls) as f64;
        out.set("trace.frames", frames);
        out.set("video.frames", frames);
        out.set("context.calls", calls("context.similarity"));
        let decisions = calls("scheduler.schedule");
        out.set("scheduler.decisions", decisions);
        out.set("scheduler.full_passes", traced.full_passes as f64);
        out.set(
            "scheduler.gate_keep_share",
            1.0 - traced.full_passes as f64 / decisions,
        );
        out.set("engine.inferences", calls("engine.run_inference"));
        out.set("fault.fault_frames", traced.resilience.fault_frames as f64);
        out.set(
            "fault.forced_replans",
            traced.resilience.fault_replans as f64,
        );
        out.set(
            "fault.degraded_frames",
            traced.resilience.degraded_frames as f64,
        );
        out.set("hunt.loop_s", traced.loop_s);
        out.set("hunt.minimize_s", traced.minimize_s);
        out.set(
            "characterize_s",
            characterize_s(&ctx, &[ctx.platform().clone()]),
        );
        out.set(
            "graph.build_s",
            graph_build_s(ctx.characterization(), &paper_shift_config()),
        );
        write_trace(args, &tracer, &mut out);
    } else {
        out.set_end_to_end(setup_s, median(&rates), &facts)?;
    }
    out.facts = facts;
    Ok(out)
}
