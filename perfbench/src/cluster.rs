//! `cluster-diurnal`: the diurnal session trace replayed against cluster
//! sizes 1 to 8 sharing one set of per-class characterizations.
//!
//! The trace's shape (arrival ticks, roster picks, goals, deadline classes,
//! detaches) is the calibration seed's, as `repro -- cluster` replays it;
//! the run's `--seed` re-seeds every session's video and, per cluster size,
//! the nodes' detector responses. Each size is driven
//! with the builder calls `run_size` makes, so the run can read the
//! cluster's session records, migrations and frame outcomes; a check
//! replays the unmodified trace through `run_size` itself and through this
//! path and requires equal capacity rows.

use crate::common::{
    calibration, characterize_s, derive, engine, graph_build_s, measured_setup, same_facts,
    sim_facts, timed_rounds, write_trace, Args, Facts, Outcome, SETUP_REPS,
};
use crate::stats::{self, median, SessionSlo, SimFrames};
use crate::trace::Tracer;
use shift_core::cluster::{ClusterBuilder, ClusterFrameOutcome, ClusterPolicy, ClusterScheduler};
use shift_core::fleet::StreamHandle;
use shift_core::service::DeadlineClass;
use shift_core::{Characterization, ShiftConfig, StreamAgent};
use shift_experiments::cluster::{
    class_characterizations, diurnal_trace, node_classes, run_size, ClusterOptions,
    ClusterTraceEntry, ClusterTraceOp, MAX_CLUSTER_SIZE,
};
use shift_experiments::ExperimentContext;
use shift_metrics::ClusterCapacityRow;
use shift_soc::DeviceClass;
use std::collections::BTreeMap;
use std::time::Instant;

/// What every size shares: the calibration context, its per-class
/// characterizations and the trace sizing.
struct Setup {
    ctx: ExperimentContext,
    chars: BTreeMap<DeviceClass, Characterization>,
    options: ClusterOptions,
}

/// The diurnal trace with every session's video re-seeded by `salt`
/// (`None` keeps the trace exactly as `run_size` replays it).
fn seeded_trace(
    ctx: &ExperimentContext,
    options: &ClusterOptions,
    salt: Option<u64>,
) -> Vec<ClusterTraceEntry> {
    let mut trace = diurnal_trace(ctx, options);
    if let Some(salt) = salt {
        for entry in &mut trace {
            if let ClusterTraceOp::Attach(request) = &mut entry.op {
                let reseed = request.scenario.seed().wrapping_add(salt);
                request.scenario = request.scenario.clone().with_seed(reseed);
            }
        }
    }
    trace
}

/// One size's finished cluster, as the timed phase leaves it.
struct SizeRun {
    cluster: ClusterScheduler,
    outcomes: Vec<ClusterFrameOutcome>,
    deadlines: Vec<DeadlineClass>,
    row: ClusterCapacityRow,
    run_s: f64,
}

/// Replays `trace` against a cluster of `size` nodes with the calls
/// `run_size` makes, reducing it to the same capacity row.
fn run_one_size(
    setup: &Setup,
    size: usize,
    trace: Vec<ClusterTraceEntry>,
    response: Option<u64>,
    tracer: &mut Tracer,
) -> Result<SizeRun, String> {
    let id = size as u64;
    let root = tracer.enter("cluster.size", id);
    let result = run_one_size_inner(setup, size, trace, response, tracer, id);
    tracer.exit(root);
    result
}

fn run_one_size_inner(
    setup: &Setup,
    size: usize,
    trace: Vec<ClusterTraceEntry>,
    response: Option<u64>,
    tracer: &mut Tracer,
    id: u64,
) -> Result<SizeRun, String> {
    let Setup {
        ctx,
        chars,
        options,
    } = setup;
    let classes = node_classes(size);
    let mut cluster = tracer
        .span("cluster.build", id, |_| {
            let mut builder = ClusterBuilder::new()
                .policy(
                    ClusterPolicy::defaults()
                        .with_rebalance(options.rebalance_period, options.rebalance_gap),
                )
                .execution_mode(ctx.execution_mode());
            for &class in &classes {
                let engine = match response {
                    Some(seed) => engine(ctx, class.platform(), seed),
                    None => ctx.engine_on(class.platform()),
                };
                builder = builder.node(class, engine, chars[&class].clone());
            }
            builder.build()
        })
        .map_err(|e| e.to_string())?;
    let mut deadlines = Vec::new();
    tracer.span("cluster.schedule", id, |_| {
        for entry in trace {
            match entry.op {
                ClusterTraceOp::Attach(request) => {
                    deadlines.push(request.deadline);
                    cluster.schedule_attach(entry.tick, *request);
                }
                ClusterTraceOp::Detach(session) => cluster.schedule_detach(entry.tick, session),
            }
        }
    });
    let t = Instant::now();
    let outcomes = tracer
        .span("cluster.run", id, |_| cluster.run_until_idle())
        .map_err(|e| e.to_string())?;
    let run_s = t.elapsed().as_secs_f64();
    let row = tracer.span("metrics.reduce", id, |_| {
        let latencies: Vec<f64> = outcomes.iter().map(|o| o.inner.outcome.latency_s).collect();
        let energy_j: f64 = outcomes.iter().map(|o| o.inner.outcome.energy_j).sum();
        let sessions = cluster.sessions();
        let admitted = sessions.iter().filter(|s| s.rejected.is_none()).count();
        let labels: Vec<&str> = classes.iter().map(|c| c.label()).collect();
        ClusterCapacityRow::from_run(
            size,
            labels.join("+"),
            sessions.len(),
            admitted,
            sessions.len() - admitted,
            sessions.iter().filter(|s| s.shed).count(),
            cluster.migrations().len(),
            &latencies,
            energy_j,
        )
    });
    Ok(SizeRun {
        cluster,
        outcomes,
        deadlines,
        row,
        run_s,
    })
}

/// One round: every size against the run's trace.
fn round(setup: &Setup, salt: u64, tracer: &mut Tracer) -> Vec<Result<SizeRun, String>> {
    (1..=MAX_CLUSTER_SIZE)
        .map(|size| {
            let trace = tracer.span("cluster.trace", size as u64, |_| {
                seeded_trace(&setup.ctx, &setup.options, Some(salt))
            });
            let response = Some(derive(salt, size as u64));
            run_one_size(setup, size, trace, response, tracer)
        })
        .collect()
}

/// A round's facts, checks and SLO accounting, read after its timing.
struct Folded {
    facts: Facts,
    frames: u64,
    offered: u64,
    failed: u64,
    run_s: Vec<f64>,
}

fn fold(
    runs: &[Result<SizeRun, String>],
    options: &ClusterOptions,
    problems: &mut Vec<String>,
    report: &mut Vec<String>,
) -> Result<Folded, String> {
    let mut facts = Facts::new();
    let mut sim = SimFrames::default();
    let mut sessions = Vec::new();
    let mut folded = Folded {
        facts: Facts::new(),
        frames: 0,
        offered: 0,
        failed: 0,
        run_s: Vec::new(),
    };
    let add = |facts: &mut Facts, name: &str, value: f64| {
        *facts.entry(name.to_string()).or_default() += value;
    };
    for (size, run) in (1..=MAX_CLUSTER_SIZE).zip(runs) {
        let run = match run {
            Ok(run) => run,
            Err(e) => {
                problems.push(format!("size {size}: {e}"));
                folded.offered += options.sessions as u64;
                folded.failed += options.sessions as u64;
                continue;
            }
        };
        let cluster = &run.cluster;
        let r = &run.row;
        for (name, value) in [
            ("admitted", r.admitted as f64),
            ("rejected", r.rejected as f64),
            ("shed", r.shed as f64),
            ("migrations", r.migrations as f64),
            ("frames", r.frames as f64),
            ("energy_j", r.energy_j),
            ("p50_latency_s", r.p50_latency_s),
            ("p99_latency_s", r.p99_latency_s),
        ] {
            facts.insert(format!("row.size{size}.{name}"), value);
        }
        folded.run_s.push(run.run_s);

        let records = cluster.sessions();
        let offered = run.deadlines.len();
        folded.offered += offered as u64;
        let admitted = records.iter().filter(|s| s.rejected.is_none()).count();
        let rejected = records.iter().filter(|s| s.rejected.is_some()).count();
        if records.len() != offered || admitted + rejected != offered {
            problems.push(format!(
                "size {size}: {admitted} admitted + {rejected} rejected != {offered} offered"
            ));
            folded.failed += offered as u64;
        }
        let mut by_name: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for o in &run.outcomes {
            let f = &o.inner.outcome;
            sim.push(f.iou, f.latency_s, f.energy_j);
            add(
                &mut facts,
                "scheduler.full_passes",
                f64::from(u8::from(f.rescheduled)),
            );
            add(&mut facts, "loader.loads", f64::from(u8::from(f.swapped)));
            let name = cluster
                .node(o.node)
                .fleet()
                .stream(StreamHandle::from_index(o.inner.stream))
                .name()
                .to_string();
            by_name.entry(name).or_default().push(f.latency_s);
        }
        folded.frames += run.outcomes.len() as u64;
        let policy = cluster.policy().service;
        for (record, deadline) in records.iter().zip(&run.deadlines) {
            let latencies = by_name.remove(&record.name).unwrap_or_default();
            if latencies.len() != record.frames {
                problems.push(format!(
                    "size {size}: session {} delivered {} frames, its record says {}",
                    record.name,
                    latencies.len(),
                    record.frames
                ));
                folded.failed += 1;
            }
            let admitted = record.rejected.is_none();
            add(
                &mut facts,
                "service.degraded",
                f64::from(u8::from(
                    admitted && record.admitted_goal < record.requested_goal - 1e-12,
                )),
            );
            sessions.push(SessionSlo {
                admitted,
                shed: record.shed,
                budget_s: policy.budget_s(*deadline),
                latencies_s: latencies,
            });
        }
        if !by_name.is_empty() {
            problems.push(format!(
                "size {size}: frames of unknown sessions {:?}",
                by_name.keys()
            ));
            folded.failed += 1;
        }
        for m in cluster.migrations() {
            if m.from == m.to {
                problems.push(format!(
                    "size {size}: session {} migrated from node {} to itself",
                    m.session, m.to
                ));
                folded.failed += 1;
            }
        }
        for node in 0..cluster.node_count() {
            let service = cluster.node(node);
            add(
                &mut facts,
                "fleet.stream_polls",
                service.fleet().stream_polls() as f64,
            );
            add(&mut facts, "fleet.ticks", service.ticks() as f64);
            add(
                &mut facts,
                "service.attach_probes",
                service.sessions().len() as f64,
            );
        }
        add(&mut facts, "service.admitted", admitted as f64);
        add(&mut facts, "service.rejected", rejected as f64);
        add(
            &mut facts,
            "service.shed",
            records.iter().filter(|s| s.shed).count() as f64,
        );
        add(
            &mut facts,
            "cluster.migrations",
            cluster.migrations().len() as f64,
        );
    }
    sim_facts(&sim, &mut facts, report)?;
    let slo = stats::slo_met_share(&sessions);
    report.push(format!(
        "slo_met_share {slo:.4} over {} offered sessions ({MAX_CLUSTER_SIZE} sizes)",
        sessions.len()
    ));
    facts.insert("slo_met_share".into(), slo);
    folded.facts = facts;
    Ok(folded)
}

/// The output check that ties this path to the program's: the unmodified
/// trace through `run_size` and through [`run_one_size`] gives equal rows.
fn run_size_check(setup: &Setup, size: usize, problems: &mut Vec<String>) -> u64 {
    let trace = seeded_trace(&setup.ctx, &setup.options, None);
    let ours = run_one_size(setup, size, trace, None, &mut Tracer::disabled());
    let theirs = run_size(&setup.ctx, size, &setup.options, &setup.chars);
    match (ours, theirs) {
        (Ok(ours), Ok(theirs)) if ours.row == theirs.row => 0,
        (Ok(_), Ok(_)) => {
            problems.push(format!("size {size}: replay rows differ from run_size's"));
            1
        }
        (Err(e), _) => {
            problems.push(format!("size {size} replay: {e}"));
            1
        }
        (_, Err(e)) => {
            problems.push(format!("run_size({size}): {e}"));
            1
        }
    }
}

/// Host microseconds of one `StreamAgent::new` on `characterization`, the
/// unit cost of one admission ladder rung (median of five).
fn agent_build_us(characterization: &Characterization) -> f64 {
    measured_setup(5, || {
        StreamAgent::new(characterization, ShiftConfig::paper_defaults())
    })
    .1 * 1e6
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let options = ClusterOptions::full();
    let salt = derive(args.seed, 0xC1A5);
    let (setup, setup_s) = measured_setup(SETUP_REPS, || {
        let ctx = calibration();
        let chars = class_characterizations(&ctx);
        Setup {
            ctx,
            chars,
            options,
        }
    });
    let Setup { ctx, chars, .. } = &setup;

    let untraced_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut reference: Option<Facts> = None;
    let mut rates = Vec::new();
    let mut report = Vec::new();
    timed_rounds(
        untraced_seconds,
        2,
        || Ok(round(&setup, salt, &mut Tracer::disabled())),
        |secs, runs| {
            let mut lines = Vec::new();
            let folded = fold(&runs, &options, &mut out.problems, &mut lines)?;
            out.attempted += folded.offered;
            out.failed += folded.failed;
            rates.push(folded.frames as f64 / secs);
            match &reference {
                None => {
                    report = lines;
                    reference = Some(folded.facts);
                }
                Some(r) => same_facts(
                    &format!("round {}", rates.len()),
                    r,
                    &folded.facts,
                    &mut out.problems,
                ),
            }
            Ok(())
        },
    )?;
    let reference = reference.expect("at least two rounds");
    out.report.extend(report);
    out.report.push(format!(
        "{} untraced rounds of sizes 1-{MAX_CLUSTER_SIZE}, {} frames each: {:.0} input frames/s (median of {:.0?})",
        rates.len(),
        reference["frames_attempted"],
        median(&rates),
        rates
    ));

    let check_size = 1 + (args.seed % MAX_CLUSTER_SIZE as u64) as usize;
    out.attempted += options.sessions as u64;
    out.failed += run_size_check(&setup, check_size, &mut out.problems);

    if args.trace {
        let mut tracer = Tracer::new();
        let t = Instant::now();
        let runs = round(&setup, salt, &mut tracer);
        let traced_s = t.elapsed().as_secs_f64();
        let folded = fold(&runs, &options, &mut out.problems, &mut Vec::new())?;
        out.attempted += folded.offered;
        out.failed += folded.failed;
        same_facts(
            "traced vs untraced",
            &reference,
            &folded.facts,
            &mut out.problems,
        );
        let frames = folded.frames as f64;
        out.set_trace(&tracer, 0, traced_s);
        out.set_overhead(median(&rates), frames / traced_s);
        out.set("trace.frames", frames);
        out.set("video.frames", frames);
        for name in [
            "scheduler.full_passes",
            "loader.loads",
            "fleet.stream_polls",
            "fleet.ticks",
            "service.attach_probes",
            "service.admitted",
            "service.rejected",
            "service.shed",
            "service.degraded",
            "cluster.migrations",
        ] {
            out.set(name, folded.facts[name]);
        }
        out.set(
            "cluster.probes_per_attach",
            folded.facts["service.attach_probes"] / folded.offered as f64,
        );
        let totals = tracer.totals(0);
        out.set(
            "cluster.build_s",
            totals.get("cluster.build").map_or(0.0, |t| t.total_s),
        );
        out.set("cluster.run_s", folded.run_s.iter().sum());
        const SIZE_NAMES: [&str; MAX_CLUSTER_SIZE] = [
            "cluster.size1.run_s",
            "cluster.size2.run_s",
            "cluster.size3.run_s",
            "cluster.size4.run_s",
            "cluster.size5.run_s",
            "cluster.size6.run_s",
            "cluster.size7.run_s",
            "cluster.size8.run_s",
        ];
        for (name, secs) in SIZE_NAMES.iter().zip(&folded.run_s) {
            out.set(name, *secs);
        }
        for (class, name) in DeviceClass::ALL.into_iter().zip([
            "service.agent_build_us.nx",
            "service.agent_build_us.oak-d",
            "service.agent_build_us.gpu-rich",
        ]) {
            out.set(name, agent_build_us(&chars[&class]));
        }
        let mut platforms = vec![ctx.platform().clone()];
        platforms.extend(DeviceClass::ALL.iter().map(|c| c.platform()));
        out.set("characterize_s", characterize_s(ctx, &platforms));
        out.set(
            "graph.build_s",
            graph_build_s(ctx.characterization(), &ShiftConfig::paper_defaults()),
        );
        write_trace(args, &tracer, &mut out);
    } else {
        out.set_end_to_end(setup_s, median(&rates), &reference)?;
    }
    out.facts = reference;
    Ok(out)
}
