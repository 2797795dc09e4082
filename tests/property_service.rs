//! Session-API properties at the workspace tier.
//!
//! The fleet-as-a-service redesign carries two contracts this suite locks
//! from the outside, through the same public surface `repro -- serve` uses:
//!
//! 1. **Compat**: a fixed-set [`FleetService`] run is bit-identical to the
//!    batch `FleetRuntime::run_to_completion` it replaced, in both execution
//!    modes — the batch path survives as a shim over the service core.
//! 2. **Determinism**: a seeded attach/detach churn trace replays
//!    byte-identically for any `--jobs` worker count and under DES vs
//!    `--lockstep` — admission decisions are pure functions of fleet state,
//!    never of scheduling order on the host.
//!
//! Plus the admission-control vocabulary end to end: reject-at-capacity,
//! the degrade offer, and shed-under-overload.
//!
//! [`FleetService`]: shift_core::FleetService

use proptest::prelude::*;
use shift_core::{
    AttachRequest, CandidateSet, DeadlineClass, ExecutionMode, FleetBuilder, FleetConfig, Knobs,
    RejectReason, ServicePolicy, SessionEvent, SessionRequest, ShiftConfig, StreamAgent,
};
use shift_experiments::serve::{self, ServeOptions};
use shift_experiments::{fleet, ExperimentContext};
use shift_soc::AcceleratorId;
use shift_video::Scenario;
use std::sync::OnceLock;

/// A config pinned to the GPU, so saturation tests reason about one queue.
fn gpu_only() -> ShiftConfig {
    ShiftConfig::paper_defaults().with_allowed_accelerators(vec![AcceleratorId::Gpu])
}

/// Mean per-frame latency of the pair a solo GPU-only session schedules.
fn solo_gpu_latency(ctx: &ExperimentContext) -> f64 {
    let agent = StreamAgent::new(ctx.characterization(), gpu_only().with_accuracy_goal(0.25))
        .expect("a GPU-only agent is schedulable");
    let pair = agent.current_pair();
    ctx.characterization()
        .traits_of(pair.model)
        .expect("scheduled model is characterized")
        .stats_on(pair.accelerator)
        .expect("scheduled accelerator is characterized")
        .mean_latency_s
}

#[test]
fn fixed_set_service_matches_the_batch_runtime_in_both_modes() {
    for mode in [ExecutionMode::EventDriven, ExecutionMode::Lockstep] {
        let ctx = ExperimentContext::quick(2024).with_execution_mode(mode);
        let specs = fleet::stream_specs(&ctx, 3);
        let mut batch = FleetBuilder::new(ctx.engine(), ctx.characterization())
            .config(FleetConfig::round_robin())
            .streams(specs.clone())
            .execution_mode(mode)
            .build()
            .expect("batch fleet builds");
        let batch_outcomes = batch.run_to_completion().expect("batch run succeeds");
        let mut service = FleetBuilder::new(ctx.engine(), ctx.characterization())
            .config(FleetConfig::round_robin())
            .streams(specs)
            .execution_mode(mode)
            .build_service(ServicePolicy::defaults())
            .expect("service builds");
        let service_outcomes = service.run_until_idle().expect("service run succeeds");
        assert_eq!(
            format!("{service_outcomes:?}").into_bytes(),
            format!("{batch_outcomes:?}").into_bytes(),
            "fixed-set service must replay the batch runtime bit for bit ({mode:?})"
        );
        assert_eq!(service.fleet().makespan_s(), batch.makespan_s());
    }
}

#[test]
fn seeded_churn_trace_replays_byte_identically_across_jobs_and_modes() {
    let options = ServeOptions::smoke();
    let run = |jobs: usize, mode: ExecutionMode| {
        let ctx = ExperimentContext::quick(2024)
            .with_jobs(jobs)
            .with_execution_mode(mode);
        serve::artifact(&ctx, &options)
            .expect("serve artifact generates")
            .csv
            .into_bytes()
    };
    let reference = run(1, ExecutionMode::EventDriven);
    assert!(!reference.is_empty());
    for jobs in [2, 4, 8] {
        assert_eq!(
            reference,
            run(jobs, ExecutionMode::EventDriven),
            "--jobs {jobs} must not change a byte of the session CSV"
        );
    }
    for jobs in [1, 8] {
        assert_eq!(
            reference,
            run(jobs, ExecutionMode::Lockstep),
            "--lockstep at --jobs {jobs} must not change a byte of the session CSV"
        );
    }
}

#[test]
fn admission_rejects_an_interactive_request_at_capacity() {
    let ctx = ExperimentContext::quick(2024);
    let solo = solo_gpu_latency(&ctx);
    // The standard budget fits exactly one session; the interactive budget
    // can never fit even a solo run. Shedding is off so the verdict is a
    // plain reject, not an eviction.
    let policy = ServicePolicy::defaults()
        .with_budgets(solo * 0.5, solo * 1.5)
        .with_shedding(false);
    let mut service = FleetBuilder::new(ctx.engine(), ctx.characterization())
        .build_service(policy)
        .expect("service builds");
    let attach = |name: &str, deadline: DeadlineClass| {
        SessionRequest::Attach(AttachRequest::new(
            name,
            Scenario::scenario_1().with_num_frames(30),
            gpu_only().with_accuracy_goal(0.25),
            deadline,
        ))
    };
    let first = service.submit(attach("first", DeadlineClass::Standard));
    assert!(matches!(first, SessionEvent::Admitted { .. }), "{first:?}");
    let second = service.submit(attach("second", DeadlineClass::Interactive));
    let SessionEvent::Rejected { reason, .. } = second else {
        panic!("expected a capacity reject, got {second:?}");
    };
    assert_eq!(reason, RejectReason::Saturated);
    // Batch has no latency budget, so capacity never turns it away.
    let third = service.submit(attach("third", DeadlineClass::Batch));
    assert!(matches!(third, SessionEvent::Admitted { .. }), "{third:?}");
    assert_eq!(service.active_sessions(), 2);
}

#[test]
fn admission_offers_a_degraded_goal_instead_of_rejecting() {
    let ctx = ExperimentContext::quick(2024);
    let mut service = FleetBuilder::new(ctx.engine(), ctx.characterization())
        .build_service(ServicePolicy::defaults())
        .expect("service builds");
    // No characterized pair delivers 0.95 mean IoU; the ladder must walk
    // down and offer what the platform can actually serve.
    let event = service.submit(SessionRequest::Attach(AttachRequest::new(
        "greedy",
        Scenario::scenario_3().with_num_frames(8),
        ShiftConfig::paper_defaults().with_accuracy_goal(0.95),
        DeadlineClass::Standard,
    )));
    let SessionEvent::Admitted {
        requested_goal,
        admitted_goal,
        ..
    } = event
    else {
        panic!("expected a degrade offer, got {event:?}");
    };
    assert_eq!(requested_goal, 0.95);
    assert!(
        admitted_goal < requested_goal,
        "goal must be degraded, got {admitted_goal}"
    );
    let records = service.sessions();
    assert!(records[0].degraded());
}

#[test]
fn overload_shedding_evicts_a_degraded_lower_priority_session() {
    let ctx = ExperimentContext::quick(2024);
    let solo = solo_gpu_latency(&ctx);
    // One session fits the standard budget on the GPU.
    let policy = ServicePolicy::defaults().with_budgets(solo * 1.5, solo * 1.5);
    let mut service = FleetBuilder::new(ctx.engine(), ctx.characterization())
        .build_service(policy)
        .expect("service builds");
    // A batch session admitted at a degraded goal: the designated victim.
    let batch = service.submit(SessionRequest::Attach(AttachRequest::new(
        "degraded-batch",
        Scenario::scenario_1().with_num_frames(30),
        gpu_only().with_accuracy_goal(0.95),
        DeadlineClass::Batch,
    )));
    let SessionEvent::Admitted {
        session: victim, ..
    } = batch
    else {
        panic!("{batch:?}");
    };
    // A standard request saturates the budget; shedding evicts the batch
    // session rather than bouncing the higher-priority arrival.
    let standard = service.submit(SessionRequest::Attach(AttachRequest::new(
        "standard",
        Scenario::scenario_1().with_num_frames(30),
        gpu_only().with_accuracy_goal(0.25),
        DeadlineClass::Standard,
    )));
    assert!(
        matches!(standard, SessionEvent::Admitted { .. }),
        "{standard:?}"
    );
    assert_eq!(service.active_sessions(), 1);
    let records = service.sessions();
    assert!(records[0].shed, "the degraded batch session was shed");
    let shed_events: Vec<_> = service
        .drain_events()
        .into_iter()
        .filter(|(_, e)| matches!(e, SessionEvent::Shed { session, .. } if *session == victim))
        .collect();
    assert_eq!(
        shed_events.len(),
        1,
        "exactly one shed event for the victim"
    );
}

#[test]
fn detach_after_transactional_shed_answers_unknown_session() {
    let ctx = ExperimentContext::quick(2024);
    let solo = solo_gpu_latency(&ctx);
    let policy = ServicePolicy::defaults().with_budgets(solo * 1.5, solo * 1.5);
    let mut service = FleetBuilder::new(ctx.engine(), ctx.characterization())
        .build_service(policy)
        .expect("service builds");
    // Same shed setup as above: a degraded batch victim evicted by a
    // saturating standard arrival.
    let batch = service.submit(SessionRequest::Attach(AttachRequest::new(
        "degraded-batch",
        Scenario::scenario_1().with_num_frames(30),
        gpu_only().with_accuracy_goal(0.95),
        DeadlineClass::Batch,
    )));
    let SessionEvent::Admitted {
        session: victim, ..
    } = batch
    else {
        panic!("{batch:?}");
    };
    let standard = service.submit(SessionRequest::Attach(AttachRequest::new(
        "standard",
        Scenario::scenario_1().with_num_frames(30),
        gpu_only().with_accuracy_goal(0.25),
        DeadlineClass::Standard,
    )));
    let SessionEvent::Admitted {
        session: survivor, ..
    } = standard
    else {
        panic!("{standard:?}");
    };
    assert!(service.sessions()[0].shed, "the batch session was shed");
    // A detach of the shed session — immediate or scheduled for a future
    // tick — must answer UnknownSession: the transactional shed already
    // released its stream, and the id is never reused.
    let immediate = service.submit(SessionRequest::Detach(victim));
    assert!(
        matches!(immediate, SessionEvent::UnknownSession { session } if session == victim),
        "immediate detach of a shed session must be unknown, got {immediate:?}"
    );
    service.drain_events();
    service.schedule(5, SessionRequest::Detach(victim));
    service.run_until_idle().expect("service run succeeds");
    let unknown: Vec<_> = service
        .drain_events()
        .into_iter()
        .filter(
            |(_, e)| matches!(e, SessionEvent::UnknownSession { session } if *session == victim),
        )
        .collect();
    assert_eq!(
        unknown.len(),
        1,
        "scheduled detach of a shed session must log exactly one UnknownSession"
    );
    // The survivor is untouched by the bogus detach: it ran to completion
    // as a normal, never-detached session.
    let records = service.sessions();
    let record = records
        .iter()
        .find(|r| r.session == survivor)
        .expect("survivor has a record");
    assert!(!record.shed && record.detached_tick.is_none());
    assert_eq!(record.frames, 30, "the survivor processed every frame");
}

/// Every accelerator a request may allow, in a fixed order for subset masks.
const ACCELERATORS: [AcceleratorId; 5] = [
    AcceleratorId::Cpu,
    AcceleratorId::Gpu,
    AcceleratorId::Dla0,
    AcceleratorId::Dla1,
    AcceleratorId::OakD,
];

fn quick_context() -> &'static ExperimentContext {
    static CONTEXT: OnceLock<ExperimentContext> = OnceLock::new();
    CONTEXT.get_or_init(|| ExperimentContext::quick(2024))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Admission probes the graph-free candidate set instead of building a
    /// `StreamAgent` per ladder rung, so the set must be exactly what the
    /// agent would schedule over: the same pairs in the same order, and the
    /// same initial pair, for any goal, accelerator subset and knobs. An
    /// empty subset fails both ways with the same error.
    #[test]
    fn graph_free_candidate_set_matches_the_agent(
        goal in 0.0..1.0f64,
        mask in 0usize..32,
        accuracy in 0.0..3.0f64,
        energy in 0.0..3.0f64,
        latency in 0.0..3.0f64,
    ) {
        let allowed: Vec<AcceleratorId> = ACCELERATORS
            .iter()
            .enumerate()
            .filter(|(bit, _)| mask >> bit & 1 == 1)
            .map(|(_, &accelerator)| accelerator)
            .collect();
        let config = ShiftConfig::paper_defaults()
            .with_accuracy_goal(goal)
            .with_allowed_accelerators(allowed)
            .with_knobs(Knobs::new(accuracy, energy, latency));
        let characterization = quick_context().characterization();
        let set = CandidateSet::new(&config, characterization);
        match (set, StreamAgent::new(characterization, config)) {
            (Ok(set), Ok(agent)) => {
                prop_assert_eq!(set.pairs(), agent.scheduler().candidate_pairs());
                prop_assert_eq!(set.initial_pair(), agent.current_pair());
            }
            (Err(set), Err(agent)) => prop_assert_eq!(set, agent),
            (set, agent) => prop_assert!(
                false,
                "candidate set {:?} disagrees with agent {:?}",
                set.map(|s| s.pairs().len()),
                agent.map(|a| a.current_pair())
            ),
        }
    }
}
