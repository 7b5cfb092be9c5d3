//! Layer probes parameterised by what a workload measured: the event queue
//! at the workload's peak pending count, the SACK scoreboard at its mean
//! window, and the MPTCP controller at its subflow count.

use mptcp_cc::{AlgorithmKind, CcDriver, SubflowSnapshot};
use mptcp_netsim::{queue_churn, scoreboard_churn, QueueBackend, ScoreboardKind};
use std::hint::black_box;
use std::time::Instant;

/// Median of three timed passes, in ns per operation.
fn median_of_3(mut pass: impl FnMut() -> f64) -> f64 {
    let mut v = [pass(), pass(), pass()];
    v.sort_by(f64::total_cmp);
    v[1]
}

/// `queue_churn` on the timer wheel holding `pending` events: ns per
/// pop-then-push.
pub fn queue_ns_per_op(pending: u64, ops: u64) -> f64 {
    let pending = pending.max(1) as usize;
    median_of_3(|| {
        queue_churn(QueueBackend::TimerWheel, pending, ops).as_nanos() as f64 / ops as f64
    })
}

/// `scoreboard_churn` on the bitmap scoreboard at `window` packets: ns per
/// scoreboard operation.
pub fn scoreboard_ns_per_op(window: u64, ops: u64) -> f64 {
    median_of_3(|| {
        scoreboard_churn(ScoreboardKind::Bitmap, window, ops).as_nanos() as f64 / ops as f64
    })
}

/// One congestion-avoidance ACK through the MPTCP `CcDriver` with
/// `subflows` subflows: ns per ACK.
pub fn cc_ns_per_ack(subflows: usize, acks: u64) -> f64 {
    let subs: Vec<SubflowSnapshot> = (0..subflows)
        .map(|i| SubflowSnapshot::new(4.0 + i as f64 * 7.3, 0.0002 + i as f64 * 0.00005))
        .collect();
    let mut controller = AlgorithmKind::Mptcp.build_cc(subflows);
    median_of_3(|| {
        let mut acc = 0.0_f64;
        let start = Instant::now();
        match &mut controller {
            CcDriver::Pure(cc) => {
                for i in 0..acks {
                    acc += cc.increase_per_ack(i as usize % subflows, black_box(&subs));
                }
            }
            CcDriver::Stateful(cc) => {
                for i in 0..acks {
                    let now = i as f64 * 1e-5;
                    acc += cc
                        .on_ack(i as usize % subflows, black_box(&subs), now, false)
                        .grow;
                }
            }
        }
        let ns = start.elapsed().as_nanos() as f64;
        black_box(acc);
        ns / acks as f64
    })
}
