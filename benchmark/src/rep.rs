//! What one repetition of a workload produces.

use crate::report::Metric;

/// The simulated outcome of one repetition. It is a pure function of the
/// seed and the workload size, so repetitions, traced runs and (on
/// `dc_churn`) worker-thread counts must all reproduce it bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Mean simulated goodput per connection or transfer, Mb/s.
    pub goodput_mbps: f64,
    /// Simulated completion times of finished flows or transfers, ms.
    pub fct_ms: Vec<f64>,
    /// Operations attempted (flows or transfers).
    pub attempted: u64,
    /// Operations failed (see each workload's definition).
    pub failed: u64,
    /// Determinism digest over the public statistics.
    pub digest: u64,
}

/// One repetition: run-phase wall time, the simulated outcome, failed
/// correctness checks and, in traced runs, the layer metrics.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Wall time of the run phase, s.
    pub run_s: f64,
    /// Simulated application payload delivered, bytes.
    pub delivered_bytes: u64,
    pub sim: SimOutcome,
    /// Descriptions of violated correctness checks; empty when all hold.
    pub violations: Vec<String>,
    /// Per-layer metrics (traced repetitions only).
    pub layers: Vec<Metric>,
    /// Simulated seconds in run-phase slices that fired no events, and the
    /// wall seconds those slices took (sliced repetitions only).
    pub idle_sim_s: f64,
    pub idle_wall_s: f64,
}

impl Rep {
    /// Application payload delivered per host wall-second of the run
    /// phase, MB/s.
    pub fn delivered_mb_per_s(&self) -> f64 {
        crate::report::ratio(self.delivered_bytes as f64 / 1e6, self.run_s)
    }
}
