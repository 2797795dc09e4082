//! What every workload shares: arguments, the timed loop, set-up timing,
//! the exact-repeat gate, the metric catalogue and the result line.

use crate::stats::{self, SimFrames};
use crate::trace::{layer_self_times, NameTotals, Tracer};
use shift_core::{Characterization, ConfidenceGraph, ShiftConfig};
use shift_experiments::ExperimentContext;
use shift_models::ResponseModel;
use shift_soc::{ExecutionEngine, Platform};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Length of the timed phase, seconds.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
}

/// Seed of the calibration every run shares: the offline characterization
/// the scheduler is built from, and the diurnal trace's shape (`repro`'s
/// default seed). A run's own `--seed` generates its inputs only: videos,
/// the detector's per-frame response draws and the hunt's mutation stream.
pub const CALIBRATION_SEED: u64 = 2024;

/// The shared calibration context, single-threaded.
pub fn calibration() -> ExperimentContext {
    ExperimentContext::new(CALIBRATION_SEED).with_jobs(1)
}

/// Set-up repetitions per run; the median is reported.
pub const SETUP_REPS: usize = 25;

/// A fresh engine on `platform` with the calibration's zoo and a detector
/// response model seeded by `response_seed`: the per-frame detection draws
/// are part of a run's generated input.
pub fn engine(ctx: &ExperimentContext, platform: Platform, response_seed: u64) -> ExecutionEngine {
    ExecutionEngine::new(
        platform,
        ctx.zoo().clone(),
        ResponseModel::new(response_seed),
    )
}

/// A well-mixed 64-bit value derived from `seed` and `salt` (splitmix64).
pub fn derive(seed: u64, salt: u64) -> u64 {
    let mut x = seed ^ salt.rotate_left(32);
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// End-to-end metrics, printed by untraced runs: (name, unit).
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("input_frames_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("sim_energy_mj_per_frame", "mJ"),
    ("sim_latency_p50_ms", "ms"),
    ("sim_latency_tail_ms", "ms"),
    ("success_rate", "share"),
    ("mean_iou", "IoU"),
    ("slo_met_share", "share"),
];

/// Per-layer metrics, printed by traced runs: (name, unit). A layer the
/// workload's outside-in trace cannot reach reports 0.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("video.frames", "count"),
    ("video.render_s", "s"),
    ("context.calls", "count"),
    ("context.similarity_s", "s"),
    ("scheduler.decisions", "count"),
    ("scheduler.full_passes", "count"),
    ("scheduler.gate_keep_share", "share"),
    ("scheduler.decide_s", "s"),
    ("loader.loads", "count"),
    ("loader.load_s", "s"),
    ("engine.inferences", "count"),
    ("engine.inference_s", "s"),
    ("fault.fault_frames", "count"),
    ("fault.forced_replans", "count"),
    ("fault.degraded_frames", "count"),
    ("characterize_s", "s"),
    ("graph.build_s", "s"),
    ("fleet.stream_polls", "count"),
    ("fleet.ticks", "count"),
    ("service.attach_probes", "count"),
    ("service.admitted", "count"),
    ("service.rejected", "count"),
    ("service.shed", "count"),
    ("service.degraded", "count"),
    ("service.agent_build_us.nx", "us"),
    ("service.agent_build_us.oak-d", "us"),
    ("service.agent_build_us.gpu-rich", "us"),
    ("cluster.build_s", "s"),
    ("cluster.run_s", "s"),
    ("cluster.size1.run_s", "s"),
    ("cluster.size2.run_s", "s"),
    ("cluster.size3.run_s", "s"),
    ("cluster.size4.run_s", "s"),
    ("cluster.size5.run_s", "s"),
    ("cluster.size6.run_s", "s"),
    ("cluster.size7.run_s", "s"),
    ("cluster.size8.run_s", "s"),
    ("cluster.migrations", "count"),
    ("cluster.probes_per_attach", "ratio"),
    ("hunt.evaluations", "count"),
    ("hunt.rounds", "count"),
    ("hunt.findings", "count"),
    ("hunt.shrink_steps", "count"),
    ("hunt.minimize_evaluations", "count"),
    ("hunt.loop_s", "s"),
    ("hunt.minimize_s", "s"),
    ("trace.spans", "count"),
    ("trace.timed_s", "s"),
    ("trace.coverage_share", "share"),
    ("trace.overhead_share", "share"),
    ("trace.top_layer_self_share", "share"),
    ("trace.untraced_frames_per_s", "1/s"),
    ("trace.traced_frames_per_s", "1/s"),
    ("trace.frames", "count"),
];

/// Deterministic facts of one round (counts and simulated outcomes). They
/// must repeat exactly across rounds, runs and the traced run.
pub type Facts = BTreeMap<String, f64>;

/// Renders facts exactly (shortest round-trip float text).
pub fn render_facts(facts: &Facts) -> String {
    let mut out = String::new();
    for (name, value) in facts {
        let _ = writeln!(out, "{name} = {value:?}");
    }
    out
}

/// Records a nondeterminism problem when `other` differs from `reference`.
pub fn same_facts(label: &str, reference: &Facts, other: &Facts, problems: &mut Vec<String>) {
    if reference == other {
        return;
    }
    let a = render_facts(reference);
    let b = render_facts(other);
    let first = a
        .lines()
        .zip(b.lines())
        .find(|(x, y)| x != y)
        .map(|(x, y)| format!("{x} vs {y}"))
        .unwrap_or_else(|| "different fact sets".to_string());
    problems.push(format!("nondeterminism ({label}): {first}"));
}

/// Adds the simulated end-to-end facts of `sim` (all but the SLO share).
pub fn sim_facts(
    sim: &SimFrames,
    facts: &mut Facts,
    report: &mut Vec<String>,
) -> Result<(), String> {
    let sorted = sim.sorted_latencies();
    let n = sorted.len();
    if stats::beyond(990, n) < stats::MIN_BEYOND {
        return Err(format!("only {n} latency samples: p99 needs 10 beyond it"));
    }
    let tail = stats::tail_percentile(n).expect("p99 qualifies");
    report.push(format!(
        "sim latency over {n} frame samples: p50 {:.3} ms, p99 {:.3} ms, mean of the slowest 5% {:.3} ms; highest percentile with >= {} samples beyond it: p{} = {:.3} ms",
        stats::percentile(&sorted, 500) * 1e3,
        stats::percentile(&sorted, 990) * 1e3,
        stats::tail_mean(&sorted, 950) * 1e3,
        stats::MIN_BEYOND,
        tail as f64 / 10.0,
        stats::percentile(&sorted, tail) * 1e3,
    ));
    facts.insert("sim_energy_mj_per_frame".into(), sim.energy_mj_per_frame());
    facts.insert(
        "sim_latency_p50_ms".into(),
        stats::percentile(&sorted, 500) * 1e3,
    );
    facts.insert(
        "sim_latency_p99_ms".into(),
        stats::percentile(&sorted, 990) * 1e3,
    );
    facts.insert(
        "sim_latency_tail_ms".into(),
        stats::tail_mean(&sorted, 950) * 1e3,
    );
    facts.insert("sim_latency_samples".into(), n as f64);
    facts.insert("success_rate".into(), sim.success_rate());
    facts.insert("mean_iou".into(), sim.mean_iou());
    facts.insert("frames_attempted".into(), sim.attempted as f64);
    Ok(())
}

/// Runs `round` until `seconds` have passed and at least `min_rounds` ran,
/// handing each result and its host seconds to `fold` outside the timing.
/// Stops at the first error.
pub fn timed_rounds<R>(
    seconds: f64,
    min_rounds: usize,
    mut round: impl FnMut() -> Result<R, String>,
    mut fold: impl FnMut(f64, R) -> Result<(), String>,
) -> Result<(), String> {
    let start = Instant::now();
    let mut done = 0;
    while done < min_rounds || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let r = round()?;
        fold(t.elapsed().as_secs_f64(), r)?;
        done += 1;
    }
    Ok(())
}

/// Runs the set-up `reps` times; returns the last result and the median
/// host seconds.
pub fn measured_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), stats::median(&times))
}

/// Host seconds of characterizing the context's validation set on each of
/// `platforms` (median of three, summed over platforms).
pub fn characterize_s(ctx: &ExperimentContext, platforms: &[Platform]) -> f64 {
    platforms
        .iter()
        .map(|p| measured_setup(3, || ctx.characterize_on(p.clone())).1)
        .sum()
}

/// Host seconds of one confidence-graph build over `characterization`
/// (median of five).
pub fn graph_build_s(characterization: &Characterization, config: &ShiftConfig) -> f64 {
    measured_setup(5, || {
        ConfidenceGraph::build(&characterization.samples, config.graph_config())
    })
    .1
}

/// Writes every span of `tracer` as CSV next to the benchmark binary.
pub fn write_trace(args: &Args, tracer: &Tracer, out: &mut Outcome) {
    let written = std::env::current_exe()
        .map_err(|e| e.to_string())
        .and_then(|exe| {
            let dir = exe
                .parent()
                .ok_or("benchmark binary has no directory")?
                .join("perfbench-traces");
            std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
            let path = dir.join(format!("{}-seed{}.csv", args.workload, args.seed));
            std::fs::write(&path, tracer.to_csv()).map_err(|e| e.to_string())?;
            Ok(path)
        });
    match written {
        Ok(path) => out
            .report
            .push(format!("spans written to {}", path.display())),
        Err(e) => out.problems.push(format!("writing the trace: {e}")),
    }
}

/// Peak resident memory of this process, MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Everything a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored or failed an output check.
    pub failed: u64,
    /// Failed checks and nondeterminism, one line each.
    pub problems: Vec<String>,
    /// Human-readable report lines.
    pub report: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// The facts the cross-run repeat gate compares.
    pub facts: Facts,
}

impl Outcome {
    /// Sets a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Copies the per-layer timings of a trace into the metrics and names
    /// the top layer by self time. `timed_s` is the traced phase's host
    /// time, `from` the first span of that phase.
    pub fn set_trace(&mut self, tracer: &Tracer, from: usize, timed_s: f64) {
        let totals = tracer.totals(from);
        for (metric, names) in [
            ("video.render_s", &["video.render"][..]),
            ("context.similarity_s", &["context.similarity"]),
            (
                "scheduler.decide_s",
                &["scheduler.schedule", "scheduler.force_reschedule"],
            ),
            ("loader.load_s", &["loader.ensure_loaded", "loader.touch"]),
            ("engine.inference_s", &["engine.run_inference"]),
        ] {
            let spans: Vec<&NameTotals> = names.iter().filter_map(|n| totals.get(n)).collect();
            if !spans.is_empty() {
                self.set(
                    metric,
                    spans.iter().map(|t| t.total_s).fold(0.0, |a, b| a + b),
                );
            }
        }
        self.set("trace.spans", (tracer.len() - from) as f64);
        self.set("trace.timed_s", timed_s);
        self.set("trace.coverage_share", tracer.root_time_s(from) / timed_s);
        let layers = layer_self_times(&totals);
        self.report.push(format!(
            "traced phase {timed_s:.3} s, {} spans, roots cover {:.1}%",
            tracer.len() - from,
            100.0 * tracer.root_time_s(from) / timed_s
        ));
        self.report.push("layer self time:".to_string());
        for (layer, self_s) in &layers {
            self.report.push(format!(
                "  {layer:<10} {self_s:>9.4} s  {:>5.1}%",
                100.0 * self_s / timed_s
            ));
        }
        if let Some((top, self_s)) = layers.first() {
            self.report.push(format!("top layer by self time: {top}"));
            self.set("trace.top_layer_self_share", self_s / timed_s);
        }
        self.report
            .push("spans by name (calls, total s, self s):".to_string());
        for (name, t) in &totals {
            self.report.push(format!(
                "  {name:<28} {:>9} {:>10.4} {:>10.4}",
                t.calls, t.total_s, t.self_s
            ));
        }
    }

    /// Sets the end-to-end metrics of an untraced run from its set-up time,
    /// its throughput and its round facts.
    pub fn set_end_to_end(
        &mut self,
        setup_s: f64,
        frames_per_s: f64,
        facts: &Facts,
    ) -> Result<(), String> {
        self.set("setup_s", setup_s);
        self.set("input_frames_per_s", frames_per_s);
        self.set("peak_rss_mb", peak_rss_mb()?);
        for name in [
            "sim_energy_mj_per_frame",
            "sim_latency_p50_ms",
            "sim_latency_tail_ms",
            "success_rate",
            "mean_iou",
            "slo_met_share",
        ] {
            self.set(name, facts[name]);
        }
        Ok(())
    }

    /// Records the traced run's throughput against the untraced rounds'.
    pub fn set_overhead(&mut self, untraced_fps: f64, traced_fps: f64) {
        self.set("trace.untraced_frames_per_s", untraced_fps);
        self.set("trace.traced_frames_per_s", traced_fps);
        self.set("trace.overhead_share", 1.0 - traced_fps / untraced_fps);
        self.report.push(format!(
            "tracing overhead: {:.1}% ({traced_fps:.0} vs {untraced_fps:.0} input frames/s untraced)",
            100.0 * (1.0 - traced_fps / untraced_fps)
        ));
    }

    /// Checks the facts against earlier runs of the same binary, workload and
    /// seed, prints the report and the result line, and returns the exit code.
    pub fn finish(mut self, args: &Args) -> i32 {
        if let Err(e) = repeat_gate(args, &self.facts) {
            self.problems.push(e);
        }
        let catalogue: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
        for name in self.metrics.keys() {
            if !catalogue.iter().any(|(n, _)| n == name) {
                self.problems
                    .push(format!("metric {name} is not in the catalogue"));
            }
        }
        let mut json = String::new();
        let mut unreached = Vec::new();
        for (name, unit) in catalogue {
            let value = match self.metrics.get(*name) {
                Some(&v) => v,
                None if args.trace => {
                    unreached.push(*name);
                    0.0
                }
                None => {
                    self.problems
                        .push(format!("metric {name} was not measured"));
                    0.0
                }
            };
            if !value.is_finite() {
                self.problems.push(format!("metric {name} is {value}"));
            }
            let value = if value.is_finite() { value } else { 0.0 };
            if !json.is_empty() {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        if !unreached.is_empty() {
            self.report.push(format!(
                "not reached by this workload's trace (reported as 0): {}",
                unreached.join(", ")
            ));
        }
        self.failed += self.problems.len() as u64;
        self.failed = self.failed.min(self.attempted.max(1));
        let correct = self.problems.is_empty() && self.failed == 0;
        println!(
            "workload {} seed {} trace {}",
            args.workload,
            args.seed,
            u8::from(args.trace)
        );
        for line in &self.report {
            println!("{line}");
        }
        for problem in &self.problems {
            println!("FAILED: {problem}");
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.attempted.max(1),
            self.failed
        );
        if correct {
            0
        } else {
            1
        }
    }
}

/// The fingerprint directory: next to the benchmark binary, inside the
/// build directory.
fn fingerprint_path(args: &Args) -> Result<std::path::PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let bytes = std::fs::read(&exe).map_err(|e| e.to_string())?;
    // FNV-1a over the binary: a rebuilt program gets fresh fingerprints.
    let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    let dir = exe
        .parent()
        .ok_or("benchmark binary has no directory")?
        .join("perfbench-fingerprints");
    Ok(dir.join(format!(
        "{}-seed{}-{hash:016x}.txt",
        args.workload, args.seed
    )))
}

/// Compares `facts` with what an earlier run of the same binary, workload
/// and seed recorded (traced or not), and records them when new.
fn repeat_gate(args: &Args, facts: &Facts) -> Result<(), String> {
    let path = fingerprint_path(args)?;
    let text = render_facts(facts);
    match std::fs::read_to_string(&path) {
        Ok(earlier) if earlier == text => Ok(()),
        Ok(earlier) => {
            let first = earlier
                .lines()
                .zip(text.lines())
                .find(|(x, y)| x != y)
                .map(|(x, y)| format!("{x} vs {y}"))
                .unwrap_or_else(|| "different fact sets".to_string());
            Err(format!(
                "nondeterminism across runs of seed {}: {first}",
                args.seed
            ))
        }
        Err(_) => {
            let dir = path.parent().expect("fingerprint file has a directory");
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
            std::fs::write(&path, text).map_err(|e| e.to_string())
        }
    }
}
