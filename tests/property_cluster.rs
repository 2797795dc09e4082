//! Cluster-scheduler properties at the workspace tier.
//!
//! The multi-SoC cluster layer carries three contracts this suite locks
//! from the outside, through the same public surface `repro -- cluster`
//! uses:
//!
//! 1. **Determinism**: the `CLUSTER_capacity.csv` artifact is byte-identical
//!    for any `--jobs` worker count and under DES vs `--lockstep` —
//!    placement, migration and admission decisions are pure functions of
//!    cluster state, never of scheduling order on the host.
//! 2. **Liveness of rebalancing**: the seeded diurnal trace actually drives
//!    live migrations on multi-node clusters — the rebalancer is exercised,
//!    not dead code behind an unreachable threshold.
//! 3. **Conservation**: migration moves a session, it never loses or
//!    duplicates one — ledger counts agree with per-node session counts and
//!    every processed frame is attributed to exactly one session.

use shift_core::cluster::{ClusterBuilder, ClusterPolicy};
use shift_core::{
    AttachRequest, DeadlineClass, ExecutionMode, FleetBuilder, GraphConfig, ServicePolicy,
    SessionEvent, SessionRequest, ShiftConfig,
};
use shift_experiments::cluster::{
    self, class_characterizations, diurnal_trace, node_classes, ClusterOptions, ClusterTraceOp,
};
use shift_experiments::ExperimentContext;
use shift_video::Scenario;

/// Builds a cluster of `size` nodes, replays the diurnal trace into it and
/// runs it to idle — the same replay `run_size` performs, but keeping the
/// scheduler for inspection.
fn replay(
    ctx: &ExperimentContext,
    size: usize,
    options: &ClusterOptions,
) -> (shift_core::ClusterScheduler, usize) {
    let characterizations = class_characterizations(ctx);
    let mut builder = ClusterBuilder::new()
        .policy(
            ClusterPolicy::defaults()
                .with_rebalance(options.rebalance_period, options.rebalance_gap),
        )
        .execution_mode(ctx.execution_mode());
    for class in node_classes(size) {
        builder = builder.node(
            class,
            ctx.engine_on(class.platform()),
            characterizations[&class].clone(),
        );
    }
    let mut scheduler = builder.build().expect("cluster builds");
    for entry in diurnal_trace(ctx, options) {
        match entry.op {
            ClusterTraceOp::Attach(request) => {
                scheduler.schedule_attach(entry.tick, *request);
            }
            ClusterTraceOp::Detach(id) => scheduler.schedule_detach(entry.tick, id),
        }
    }
    let outcomes = scheduler.run_until_idle().expect("cluster run succeeds");
    (scheduler, outcomes.len())
}

#[test]
fn capacity_csv_replays_byte_identically_across_jobs_and_modes() {
    let options = ClusterOptions::smoke();
    let run = |jobs: usize, mode: ExecutionMode| {
        let ctx = ExperimentContext::quick(2024)
            .with_jobs(jobs)
            .with_execution_mode(mode);
        cluster::artifact(&ctx, &options)
            .expect("cluster artifact generates")
            .csv
            .into_bytes()
    };
    let reference = run(1, ExecutionMode::EventDriven);
    assert!(!reference.is_empty());
    for jobs in [2, 4, 8] {
        assert_eq!(
            reference,
            run(jobs, ExecutionMode::EventDriven),
            "--jobs {jobs} must not change a byte of the capacity CSV"
        );
    }
    for jobs in [1, 8] {
        assert_eq!(
            reference,
            run(jobs, ExecutionMode::Lockstep),
            "--lockstep at --jobs {jobs} must not change a byte of the capacity CSV"
        );
    }
}

#[test]
fn diurnal_trace_exercises_a_live_migration() {
    // The artifact's own reduction must report rebalancing work somewhere in
    // the 1→8 sweep: parse the migrations column straight out of the CSV the
    // way a downstream consumer would.
    let ctx = ExperimentContext::quick(2024);
    let options = ClusterOptions::smoke();
    let artifact = cluster::artifact(&ctx, &options).expect("cluster artifact generates");
    let migrations: usize = artifact
        .csv
        .lines()
        .skip(1)
        .map(|line| {
            line.split(',')
                .nth(6)
                .expect("migrations column present")
                .parse::<usize>()
                .expect("migrations column is a count")
        })
        .sum();
    assert!(
        migrations >= 1,
        "the diurnal trace must drive at least one live migration across the sweep"
    );
    // And the scheduler-level record agrees: a multi-node replay produces
    // well-formed migration records (distinct source/destination, in-bounds
    // nodes, a real transfer charge).
    let (scheduler, _) = replay(&ctx, 4, &options);
    assert!(
        !scheduler.migrations().is_empty(),
        "the 4-node replay must migrate at least once"
    );
    for record in scheduler.migrations() {
        assert_ne!(record.from, record.to, "a migration changes nodes");
        assert!(record.from < scheduler.node_count());
        assert!(record.to < scheduler.node_count());
        assert!(record.transfer_s > 0.0, "state transfer takes time");
        assert!(record.transfer_j > 0.0, "state transfer costs energy");
    }
}

#[test]
fn migration_conserves_sessions_and_frames() {
    let ctx = ExperimentContext::quick(2024);
    let options = ClusterOptions::smoke();
    for size in [2, 4] {
        let (scheduler, total_frames) = replay(&ctx, size, &options);
        let sessions = scheduler.sessions();
        // Every offered session has exactly one ledger record.
        assert_eq!(sessions.len(), options.sessions);
        // The cluster ledger and the per-node services agree on who is
        // attached — no session was lost or duplicated by a migration.
        let node_total: usize = (0..scheduler.node_count())
            .map(|i| scheduler.node(i).active_sessions())
            .sum();
        assert_eq!(
            scheduler.attached_sessions(),
            node_total,
            "ledger and node session counts must agree (size {size})"
        );
        // Every processed frame is attributed to exactly one session, and
        // migrated sessions carry their pre-move frames with them.
        let attributed: usize = sessions.iter().map(|s| s.frames).sum();
        assert_eq!(
            attributed, total_frames,
            "frame attribution must conserve across migrations (size {size})"
        );
    }
}

#[test]
fn admission_builds_one_graph_per_node_and_config() {
    // Admission probes are graph-free, and a node's streams share one
    // confidence graph per graph configuration, however many sessions attach
    // or migrate in.
    let ctx = ExperimentContext::quick(2024);
    let options = ClusterOptions::smoke();
    let mut configs: Vec<GraphConfig> = Vec::new();
    for entry in diurnal_trace(&ctx, &options) {
        if let ClusterTraceOp::Attach(request) = entry.op {
            let config = request.config.graph_config();
            if !configs.contains(&config) {
                configs.push(config);
            }
        }
    }
    let (scheduler, _) = replay(&ctx, 4, &options);
    assert!(!scheduler.migrations().is_empty(), "migrations attach too");
    let mut attached = 0;
    for node in 0..scheduler.node_count() {
        let service = scheduler.node(node);
        let admitted = service
            .sessions()
            .iter()
            .filter(|s| s.rejected.is_none())
            .count();
        attached += admitted;
        assert!(
            service.graph_builds() <= configs.len(),
            "node {node} built {} graphs for {} graph configurations",
            service.graph_builds(),
            configs.len()
        );
        assert_eq!(
            service.graph_builds() == 0,
            admitted == 0,
            "node {node}: a graph is built exactly when a session attaches"
        );
    }
    assert!(
        attached > scheduler.node_count(),
        "some node must attach more than one session for sharing to matter"
    );

    // A refused attach walks the whole ladder and builds nothing.
    let engine = ctx.engine();
    let mut service = FleetBuilder::new(engine, ctx.characterization())
        .build_service(ServicePolicy::defaults().with_budgets(0.0, 0.0))
        .expect("service builds");
    let attach = |goal: f64, deadline: DeadlineClass, config: ShiftConfig| {
        SessionRequest::Attach(AttachRequest::new(
            "s",
            Scenario::scenario_3().with_num_frames(10),
            config.with_accuracy_goal(goal),
            deadline,
        ))
    };
    let refused = service.submit(attach(
        0.9,
        DeadlineClass::Interactive,
        ShiftConfig::paper_defaults(),
    ));
    assert!(
        matches!(refused, SessionEvent::Rejected { .. }),
        "{refused:?}"
    );
    assert_eq!(
        service.graph_builds(),
        0,
        "a rejected attach builds no graph"
    );
    // Admitted sessions share the graph of their configuration.
    for (goal, threshold, builds) in [(0.3, 0.5, 1), (0.2, 0.5, 1), (0.3, 0.25, 2)] {
        let config = ShiftConfig::paper_defaults().with_distance_threshold(threshold);
        let event = service.submit(attach(goal, DeadlineClass::Batch, config));
        assert!(matches!(event, SessionEvent::Admitted { .. }), "{event:?}");
        assert_eq!(service.graph_builds(), builds);
    }
}
