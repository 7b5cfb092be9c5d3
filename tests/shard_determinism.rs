//! Cross-thread determinism of the sharded engine: the same simulation,
//! fault schedule and horizon must produce a **bit-identical history**
//! under any worker-thread count.
//!
//! The sharded engine (DESIGN.md §3.2f) synchronizes shards with
//! conservative-lookahead epoch barriers; within an epoch, shards process
//! events concurrently and exchange boundary-crossing packets through
//! per-pair mailboxes that are drained in fixed shard order. If any of
//! that machinery leaked thread-schedule nondeterminism — a mailbox
//! drained in arrival order, a digest merged in completion order, a
//! lookahead rounded differently off a racing clock — these properties
//! would catch it: each randomized fault schedule is replayed at
//! `jobs = 1` (the serial reference), `2`, and an oversubscribed top
//! count, and every replay must agree on the merged [`DetDigest`] *and*
//! on every connection's full stats digest.
//!
//! The flow-churn property adds the arena lifecycle to the mix: flows
//! arriving and *retiring* mid-run mean window recycling — and the
//! free-list order it depends on — must itself be schedule-independent.
//!
//! Case count scales with `MPTCP_CHAOS_CASES` (default 6 so `cargo test`
//! stays quick; the nightly CI job raises it). The top worker count
//! defaults to 8 and can be swept with `MPTCP_SHARD_JOBS` — the nightly
//! job runs a thread-count matrix over it.

use mptcp_bench::datacenter::dc_link;
use mptcp_cc::AlgorithmKind;
use mptcp_netsim::{ConnectionSpec, DetDigest, FaultPlan, ShardedSimulator, SimTime};
use mptcp_topology::{FatTree, ShardedDualHomed, Torus};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const HORIZON: SimTime = SimTime::from_secs(30);

fn chaos_cases() -> u32 {
    std::env::var("MPTCP_CHAOS_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(6)
}

/// Worker counts to compare: 1 (the serial reference) and 2 always, plus a
/// top count that deliberately oversubscribes small hosts — the barrier
/// protocol must not care. CI's thread-count matrix sweeps the top count
/// via `MPTCP_SHARD_JOBS`.
fn jobs_matrix() -> [usize; 3] {
    let top =
        std::env::var("MPTCP_SHARD_JOBS").ok().and_then(|v| v.parse().ok()).unwrap_or(8);
    [1, 2, top.max(2)]
}

/// Everything a replay must reproduce: the engine's merged state digest
/// and each connection's full `ConnectionStats` digest (the stats struct
/// has no `PartialEq` by design — the digest covers every field), plus
/// delivered counts so a mismatch prints something human-readable.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Outcome {
    merged_digest: u64,
    conn_digests: Vec<u64>,
    delivered: Vec<u64>,
}

fn outcome(sim: &ShardedSimulator, conns: &[usize]) -> Outcome {
    Outcome {
        merged_digest: sim.det_digest(),
        conn_digests: conns.iter().map(|&c| sim.connection_stats(c).digest_value()).collect(),
        delivered: conns.iter().map(|&c| sim.connection_stats(c).data_delivered).collect(),
    }
}

/// Fig. 8's five-link torus, sharded three ways, under a randomized fault
/// schedule on all five bottleneck links.
fn run_torus(seed: u64, fault_seed: u64, jobs: usize) -> Outcome {
    let mut sim = ShardedSimulator::new(seed, 3);
    let t = Torus::build_sharded(&mut sim, [1000.0; 5], AlgorithmKind::Mptcp);
    sim.install_fault_plan(&FaultPlan::randomized(fault_seed, &t.links, HORIZON));
    sim.set_jobs(jobs);
    sim.run_until(HORIZON);
    outcome(&sim, &t.flows)
}

/// The §5 dual-homed server, sharded two ways: one bulk multipath client
/// spanning both shards plus a finite single-path download on the slower
/// link, with faults on both access links.
fn run_dual_homed(seed: u64, fault_seed: u64, pkts: u64, jobs: usize) -> Outcome {
    let mut sim = ShardedSimulator::new(seed, 2);
    let d = ShardedDualHomed::build(&mut sim, [12.0, 4.0], SimTime::from_millis(10), 25);
    let mp = d.add_multipath_client(&mut sim, AlgorithmKind::Mptcp, SimTime::ZERO);
    let sp = d.add_single_path_transfer(&mut sim, 1, pkts, SimTime::from_millis(500));
    sim.install_fault_plan(&FaultPlan::randomized(fault_seed, &d.links, HORIZON));
    sim.set_jobs(jobs);
    sim.run_until(HORIZON);
    outcome(&sim, &[mp, sp])
}

/// Randomized mid-run flow churn on a pod-sharded FatTree k = 4 under the
/// arena's first-class lifecycle mode: finite 2-subflow flows arrive at
/// random times across the first 2 s, complete, and retire (freeing their
/// hot windows for recycling) while later flows are still arriving. The
/// replay must agree not just on the digests but on the merged arena
/// reuse count — window recycling order is part of the history.
fn run_churn(seed: u64, arrival_seed: u64, flows: usize, jobs: usize) -> (Outcome, Vec<u64>, u64) {
    let mut sim = ShardedSimulator::new(seed, 3);
    sim.set_flow_lifecycle(true);
    let ft = FatTree::build_sharded(&mut sim, 4, dc_link());
    let hosts = ft.host_count();
    let mut rng = StdRng::seed_from_u64(arrival_seed);
    let mut conns = Vec::with_capacity(flows);
    let mut sizes = Vec::with_capacity(flows);
    for _ in 0..flows {
        let src = rng.gen_range(0..hosts);
        let mut dst = rng.gen_range(0..hosts - 1);
        if dst >= src {
            dst += 1;
        }
        let pkts = rng.gen_range(2u64..40);
        let start = SimTime::from_micros(rng.gen_range(0u64..2_000_000));
        let mut spec = ConnectionSpec::sized(AlgorithmKind::Mptcp, pkts).start(start);
        for p in ft.random_paths(src, dst, 2, &mut rng) {
            spec = spec.path(p);
        }
        conns.push(sim.add_connection(spec));
        sizes.push(pkts);
    }
    sim.set_jobs(jobs);
    // 2.5 s horizon: the last arrival lands by 2 s, service time on these
    // short flows is milliseconds, and the ~150 ms retirement grace still
    // fits with margin — so every flow both finishes *and* retires. The
    // 2 s arrival window is >10× the grace, so early windows recycle into
    // late arrivals mid-run.
    sim.run_until(SimTime::from_millis(2_500));
    (outcome(&sim, &conns), sizes, sim.arena_hot_reuses())
}

/// Sparse arrivals on a pod-sharded FatTree k = 4 with flow lifecycle
/// on: a dozen short flows spread over 4 s leave the fabric idle for
/// almost all of the run, so most 10 µs lookahead windows fire nothing.
/// `step` splits the run into `run_until` calls of that length.
fn run_sparse(seed: u64, jobs: usize, step: Option<SimTime>) -> u64 {
    let mut sim = ShardedSimulator::new(seed, 4);
    sim.set_flow_lifecycle(true);
    let ft = FatTree::build_sharded(&mut sim, 4, dc_link());
    let hosts = ft.host_count();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5BA25E);
    for _ in 0..12 {
        let src = rng.gen_range(0..hosts);
        let mut dst = rng.gen_range(0..hosts - 1);
        if dst >= src {
            dst += 1;
        }
        let pkts = rng.gen_range(2u64..40);
        let start = SimTime::from_micros(rng.gen_range(0u64..4_000_000));
        let mut spec = ConnectionSpec::sized(AlgorithmKind::Mptcp, pkts).start(start);
        for p in ft.random_paths(src, dst, 2, &mut rng) {
            spec = spec.path(p);
        }
        sim.add_connection(spec);
    }
    sim.set_jobs(jobs);
    let horizon = SimTime::from_secs(5);
    match step {
        None => sim.run_until(horizon),
        Some(step) => {
            let mut t = SimTime::ZERO;
            while t < horizon {
                t = (t + step).min(horizon);
                sim.run_until(t);
            }
        }
    }
    for c in 0..sim.connection_count() {
        let stats = sim.connection_stats(c);
        assert!(stats.finished_at.is_some(), "sparse flow {c} did not finish: {stats:?}");
    }
    sim.det_digest()
}

/// Golden digests of [`run_sparse`], recorded before the epoch loop
/// learned to skip empty windows. Unlike the `jobs`-equality properties,
/// these constants catch a skip bug that changes the history identically
/// at every worker count.
#[test]
fn sparse_fattree_digests_are_pinned() {
    const GOLDEN: [(u64, u64); 2] = [(3, 0xd4f6_56de_1217_724e), (19, 0x1b18_561f_79a2_5f51)];
    for (seed, want) in GOLDEN {
        for jobs in [1, 2] {
            for step in [None, Some(SimTime::from_millis(700))] {
                let got = run_sparse(seed, jobs, step);
                assert_eq!(got, want, "seed {seed}, jobs {jobs}, step {step:?}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(chaos_cases()))]

    #[test]
    fn sharded_torus_history_is_independent_of_worker_count(
        seed in 1u64..u32::MAX as u64,
        fault_seed in 0u64..u32::MAX as u64,
    ) {
        let reference = run_torus(seed, fault_seed, 1);
        prop_assert!(
            reference.delivered.iter().sum::<u64>() > 0,
            "degenerate schedule delivered nothing: {reference:?}"
        );
        for jobs in jobs_matrix() {
            let replay = run_torus(seed, fault_seed, jobs);
            prop_assert_eq!(
                &reference,
                &replay,
                "torus history diverged at jobs={} (seed={}, fault_seed={})",
                jobs,
                seed,
                fault_seed
            );
        }
    }

    #[test]
    fn sharded_dual_homed_history_is_independent_of_worker_count(
        seed in 1u64..u32::MAX as u64,
        fault_seed in 0u64..u32::MAX as u64,
        pkts in 500u64..4_000,
    ) {
        let reference = run_dual_homed(seed, fault_seed, pkts, 1);
        for jobs in jobs_matrix() {
            let replay = run_dual_homed(seed, fault_seed, pkts, jobs);
            prop_assert_eq!(
                &reference,
                &replay,
                "dual-homed history diverged at jobs={} (seed={}, fault_seed={}, pkts={})",
                jobs,
                seed,
                fault_seed,
                pkts
            );
        }
    }

    #[test]
    fn sharded_flow_churn_history_is_independent_of_worker_count(
        seed in 1u64..u32::MAX as u64,
        arrival_seed in 0u64..u32::MAX as u64,
    ) {
        let (reference, sizes, reuses) = run_churn(seed, arrival_seed, 60, 1);
        // Exactly-once accounting on the serial reference: every finite
        // flow finished before the horizon and each of its data packets
        // was delivered exactly once — retirement must not strand or
        // double-count in-flight data.
        for (i, (&got, &want)) in reference.delivered.iter().zip(&sizes).enumerate() {
            prop_assert_eq!(
                got, want,
                "flow {} delivered {} of {} packets exactly-once (seed={}, arrival_seed={})",
                i, got, want, seed, arrival_seed
            );
        }
        // The schedule must actually churn: early flows retire while late
        // ones arrive, so recycled windows get re-tenanted mid-run.
        prop_assert!(
            reuses > 0,
            "schedule produced no window recycling (seed={seed}, arrival_seed={arrival_seed})"
        );
        for jobs in jobs_matrix() {
            let (replay, _, replay_reuses) = run_churn(seed, arrival_seed, 60, jobs);
            prop_assert_eq!(
                &reference,
                &replay,
                "churn history diverged at jobs={} (seed={}, arrival_seed={})",
                jobs,
                seed,
                arrival_seed
            );
            prop_assert_eq!(
                reuses,
                replay_reuses,
                "arena recycling diverged at jobs={} (seed={}, arrival_seed={})",
                jobs,
                seed,
                arrival_seed
            );
        }
    }
}
