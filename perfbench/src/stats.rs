//! The benchmark's own metric math: percentiles with their sample rule,
//! per-frame simulated outcomes and the session SLO share.

/// Tail percentiles the report may name, in tenths of a percent, highest
/// first (integer ranks keep `ceil` exact).
const TAIL_CANDIDATES: [u64; 6] = [999, 990, 950, 900, 750, 500];

/// Fewest samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `pm` (tenths of a percent) among `n`
/// sorted samples.
fn rank(pm: u64, n: usize) -> usize {
    (((pm * n as u64).div_ceil(1000)) as usize).clamp(1, n)
}

/// Samples that lie beyond percentile `pm` (tenths of a percent) of `n`
/// samples.
pub fn beyond(pm: u64, n: usize) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(pm, n)
    }
}

/// Nearest-rank percentile `pm` (tenths of a percent) of `sorted`
/// (ascending, non-empty).
pub fn percentile(sorted: &[f64], pm: u64) -> f64 {
    sorted[rank(pm, sorted.len()) - 1]
}

/// Mean of the samples from the nearest-rank percentile `pm` up: for 950,
/// the mean latency of the slowest 5%. Unlike the percentile itself it
/// moves when any tail sample moves, not only the one at the rank.
pub fn tail_mean(sorted: &[f64], pm: u64) -> f64 {
    let tail = &sorted[rank(pm, sorted.len()) - 1..];
    tail.iter().sum::<f64>() / tail.len() as f64
}

/// The highest tail percentile (tenths of a percent) with at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when even the median has
/// fewer.
pub fn tail_percentile(n: usize) -> Option<u64> {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .find(|&p| beyond(p, n) >= MIN_BEYOND)
}

/// Median of host-time samples (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Simulated per-frame outcomes of one round, folded in frame order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimFrames {
    /// Frames the round attempted, failed ones included.
    pub attempted: u64,
    /// Energy charged to the frames that ran, joules.
    pub energy_j: f64,
    /// Latency of every frame that ran, seconds.
    pub latencies_s: Vec<f64>,
    /// Frames with IoU >= 0.5.
    pub successes: u64,
    /// Sum of per-frame IoU.
    pub iou_sum: f64,
}

impl SimFrames {
    /// Folds one frame that ran.
    pub fn push(&mut self, iou: f64, latency_s: f64, energy_j: f64) {
        self.attempted += 1;
        self.energy_j += energy_j;
        self.latencies_s.push(latency_s);
        self.successes += u64::from(iou >= 0.5);
        self.iou_sum += iou;
    }

    /// Counts `frames` attempted frames that produced no outcome.
    pub fn push_failed(&mut self, frames: u64) {
        self.attempted += frames;
    }

    /// Simulated energy per attempted frame, millijoules.
    pub fn energy_mj_per_frame(&self) -> f64 {
        self.energy_j * 1000.0 / self.attempted.max(1) as f64
    }

    /// Share of attempted frames that succeeded.
    pub fn success_rate(&self) -> f64 {
        self.successes as f64 / self.attempted.max(1) as f64
    }

    /// Mean IoU over attempted frames (a failed frame scores 0).
    pub fn mean_iou(&self) -> f64 {
        self.iou_sum / self.attempted.max(1) as f64
    }

    /// The latency samples, ascending.
    pub fn sorted_latencies(&self) -> Vec<f64> {
        let mut v = self.latencies_s.clone();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// What one offered session delivered, for the SLO share.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSlo {
    /// Admitted by some node.
    pub admitted: bool,
    /// Evicted by overload shedding.
    pub shed: bool,
    /// Its class's per-frame latency budget, seconds (infinite for batch).
    pub budget_s: f64,
    /// Latency of every frame it was delivered, seconds.
    pub latencies_s: Vec<f64>,
}

impl SessionSlo {
    /// Admitted, not shed, and its delivered p99 frame latency is within
    /// budget. A session delivered no frame has no p99 and misses.
    pub fn met(&self) -> bool {
        if !self.admitted || self.shed || self.latencies_s.is_empty() {
            return false;
        }
        let mut v = self.latencies_s.clone();
        v.sort_by(f64::total_cmp);
        percentile(&v, 990) <= self.budget_s
    }
}

/// Share of offered sessions that met their SLO; refused and shed sessions
/// count as missed.
pub fn slo_met_share(sessions: &[SessionSlo]) -> f64 {
    if sessions.is_empty() {
        return 0.0;
    }
    sessions.iter().filter(|s| s.met()).count() as f64 / sessions.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_is_the_highest_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), Some(999));
        assert_eq!(tail_percentile(9_999), Some(990));
        assert_eq!(tail_percentile(1_000), Some(990));
        assert_eq!(tail_percentile(999), Some(950));
        assert_eq!(tail_percentile(200), Some(950));
        assert_eq!(tail_percentile(100), Some(900));
        assert_eq!(tail_percentile(20), Some(500));
        assert_eq!(tail_percentile(19), None);
        for n in [20, 57, 100, 999, 1000, 4396, 12_345] {
            let p = tail_percentile(n).unwrap();
            assert!(beyond(p, n) >= MIN_BEYOND);
            if let Some(&higher) = TAIL_CANDIDATES.iter().rev().find(|&&c| c > p) {
                assert!(
                    beyond(higher, n) < MIN_BEYOND,
                    "n={n}: p{higher} also qualifies"
                );
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 500), 500.0);
        assert_eq!(percentile(&v, 990), 990.0);
        assert_eq!(beyond(990, 1000), 10);
        assert_eq!(tail_mean(&v, 990), 995.0);
        let mut plateau = vec![1.0; 990];
        plateau.extend(vec![5.0; 20]);
        assert_eq!(percentile(&plateau, 990), 5.0);
        plateau[1009] = 16.0;
        assert_eq!(
            percentile(&plateau, 990),
            5.0,
            "the percentile sits on the plateau"
        );
        assert!(
            tail_mean(&plateau, 990) > 5.0,
            "the tail mean sees the slowest sample"
        );
        assert_eq!(percentile(&[7.0], 990), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    fn session(admitted: bool, shed: bool, budget_s: f64, latencies_s: Vec<f64>) -> SessionSlo {
        SessionSlo {
            admitted,
            shed,
            budget_s,
            latencies_s,
        }
    }

    #[test]
    fn refused_and_shed_sessions_count_as_missed() {
        let fast = vec![0.01; 100];
        let sessions = [
            session(true, false, 0.05, fast.clone()),
            session(false, false, 0.05, Vec::new()),
            session(true, true, 0.05, fast.clone()),
            session(true, false, f64::INFINITY, vec![9.0; 100]),
        ];
        assert!(sessions[0].met());
        assert!(!sessions[1].met(), "refused");
        assert!(!sessions[2].met(), "shed, even with fast frames");
        assert!(sessions[3].met(), "batch has no budget");
        assert_eq!(slo_met_share(&sessions), 0.5);
    }

    #[test]
    fn slo_uses_the_delivered_p99_against_the_budget() {
        let mut latencies = vec![0.01; 99];
        latencies.push(1.0);
        assert!(session(true, false, 0.05, latencies.clone()).met());
        latencies.push(1.0);
        assert!(!session(true, false, 0.05, latencies).met());
        assert!(!session(true, false, 0.05, Vec::new()).met(), "no frames");
    }

    #[test]
    fn per_frame_energy_uses_frames_attempted_as_its_base() {
        let mut sim = SimFrames::default();
        sim.push(0.8, 0.02, 0.3);
        sim.push(0.2, 0.03, 0.1);
        assert!((sim.energy_mj_per_frame() - 200.0).abs() < 1e-9);
        sim.push_failed(2);
        assert_eq!(sim.attempted, 4);
        assert!((sim.energy_mj_per_frame() - 100.0).abs() < 1e-9);
        assert_eq!(sim.success_rate(), 0.25);
        assert!((sim.mean_iou() - 0.25).abs() < 1e-12);
        assert_eq!(sim.latencies_s.len(), 2, "failed frames have no latency");
    }
}
