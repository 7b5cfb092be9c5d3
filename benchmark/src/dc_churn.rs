//! `dc_churn`: the sharded FatTree under an open loop of short flows.
//!
//! A FatTree k = 16 (1024 hosts) is partitioned by pod over 8 shards with
//! flow lifecycle on, so finished flows retire and their arena windows are
//! recycled. Flows arrive as an `AlternatingPoisson` process whose light
//! phase leaves the fabric nearly idle and whose heavy phase keeps
//! hundreds of flows in flight; sizes are Pareto (the paper's shape and
//! scale); each flow is a 2-subflow MPTCP connection between hosts in
//! different pods, so every path crosses shards.

use crate::netlayers;
use crate::rep::{Rep, SimOutcome};
use crate::report::{mean, ratio, Metric};
use crate::trace::Tracer;
use mptcp_cc::AlgorithmKind;
use mptcp_netsim::{ConnectionSpec, LinkSpec, ShardedSimulator, SimTime};
use mptcp_topology::FatTree;
use mptcp_workload::{AlternatingPoisson, ParetoSizes};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Workload size.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// FatTree switch port count.
    pub k: usize,
    /// Shards the world is partitioned into.
    pub shards: usize,
    /// Subflows per flow.
    pub subflows: usize,
    /// Arrival process; phase A (light) comes first.
    pub arrivals: AlternatingPoisson,
    /// Arrivals are generated in `[0, arrival_span)`.
    pub arrival_span: SimTime,
    /// Flow sizes.
    pub sizes: ParetoSizes,
    /// Simulated horizon; a flow unfinished by then fails.
    pub horizon: SimTime,
    /// Slice length of the traced run's sliced `run_until`.
    pub slice: SimTime,
}

impl Config {
    pub fn standard() -> Self {
        Self {
            k: 16,
            shards: 8,
            subflows: 2,
            arrivals: AlternatingPoisson {
                rate_a: 400.0,
                rate_b: 10_000.0,
                phase: SimTime::from_millis(60),
            },
            arrival_span: SimTime::from_millis(360),
            sizes: ParetoSizes {
                max_bytes: 1e6,
                ..ParetoSizes::paper_mean_200kb()
            },
            horizon: SimTime::from_millis(3500),
            slice: SimTime::from_millis(1),
        }
    }

    /// A small instance for the benchmark's own tests.
    #[cfg(test)]
    pub fn tiny() -> Self {
        Self {
            k: 8,
            shards: 4,
            subflows: 2,
            arrivals: AlternatingPoisson {
                rate_a: 400.0,
                rate_b: 4_000.0,
                phase: SimTime::from_millis(10),
            },
            arrival_span: SimTime::from_millis(40),
            sizes: ParetoSizes {
                max_bytes: 2e5,
                ..ParetoSizes::paper_mean_200kb()
            },
            horizon: SimTime::from_millis(1300),
            slice: SimTime::from_millis(1),
        }
    }
}

/// The §4 link: 100 Mb/s, 10 µs propagation, 100-packet buffer.
fn dc_link() -> LinkSpec {
    LinkSpec::mbps(100.0, SimTime::from_micros(10), 100)
}

/// A built world: topology and every flow admitted.
struct World {
    sim: ShardedSimulator,
    core: Vec<usize>,
    /// Each flow's size, packets.
    sizes: Vec<u64>,
}

fn build(cfg: &Config, seed: u64, tr: &mut Tracer) -> World {
    let mut sim = ShardedSimulator::new(seed, cfg.shards);
    sim.set_flow_lifecycle(true);
    let ft = tr.span("topology.build", 0, |_| {
        FatTree::build_sharded(&mut sim, cfg.k, dc_link())
    });
    let hosts = ft.host_count();
    let pod = hosts / cfg.k;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00c4_0121);
    let arrivals = tr.span("workload.alternating_poisson", 0, |_| {
        cfg.arrivals
            .generate(cfg.arrival_span, &cfg.sizes, &mut rng)
    });
    let mut sizes = Vec::with_capacity(arrivals.len());
    for (i, a) in arrivals.iter().enumerate() {
        // Source anywhere; destination in another pod.
        let src = rng.gen_range(0..hosts);
        let dst = (src + pod * rng.gen_range(1..cfg.k - 1) + rng.gen_range(0..pod)) % hosts;
        let paths = tr.span("topology.random_paths", i as u64, |_| {
            ft.random_paths(src, dst, cfg.subflows, &mut rng)
        });
        let mut spec = ConnectionSpec::sized(AlgorithmKind::Mptcp, a.size_pkts).start(a.start);
        for p in paths {
            spec = spec.path(p);
        }
        tr.span("netsim.add_connection", i as u64, |_| {
            sim.add_connection(spec)
        });
        sizes.push(a.size_pkts);
    }
    World {
        sim,
        core: ft.core_links(),
        sizes,
    }
}

/// Wall time of one set-up alone, s.
pub fn setup_s(cfg: &Config, seed: u64) -> f64 {
    let started = Instant::now();
    let world = build(cfg, seed, &mut Tracer::off());
    let s = started.elapsed().as_secs_f64();
    drop(world);
    s
}

/// One repetition at `jobs` worker threads. With `sliced`, the run phase
/// advances in `cfg.slice` steps and records per-slice events and wall
/// time (the history is the same either way). With `tr` enabled, also
/// fills the layer metrics.
pub fn rep(cfg: &Config, seed: u64, jobs: usize, sliced: bool, tr: &mut Tracer) -> Rep {
    let World {
        mut sim,
        core,
        sizes,
    } = build(cfg, seed, tr);
    sim.set_jobs(jobs);

    let run_started = Instant::now();
    let mut slices: Vec<(u64, f64)> = Vec::new();
    // Allocation counter once the first light and heavy phases have grown
    // the arena to its working size.
    let steady_from = cfg.arrivals.phase + cfg.arrivals.phase;
    let mut hot_allocs_at_steady = 0;
    if sliced {
        let mut t = SimTime::ZERO;
        while t < cfg.horizon {
            t = (t + cfg.slice).min(cfg.horizon);
            let before = sim.perf().events_fired;
            let started = Instant::now();
            tr.span("netsim.run_until", slices.len() as u64, |_| {
                sim.run_until(t)
            });
            slices.push((
                sim.perf().events_fired - before,
                started.elapsed().as_secs_f64(),
            ));
            if t == steady_from {
                hot_allocs_at_steady = sim.perf().hot_allocs;
            }
        }
    } else {
        sim.run_until(cfg.horizon);
    }
    let run_s = run_started.elapsed().as_secs_f64();

    let conns: Vec<_> = (0..sim.connection_count())
        .map(|c| sim.connection_stats(c))
        .collect();
    let perf = sim.perf();
    let mut violations = Vec::new();
    if !perf.is_consistent() {
        violations.push(format!("dc_churn SimPerf inconsistent: {perf:?}"));
    }
    let mut fct_ms = Vec::new();
    let mut goodput = Vec::new();
    let mut failed = 0;
    for (id, (c, &size)) in conns.iter().zip(&sizes).enumerate() {
        let Some(fct) = c.completion_time() else {
            failed += 1;
            continue;
        };
        fct_ms.push(fct.as_secs_f64() * 1e3);
        goodput.push(c.data_throughput_bps(cfg.horizon) / 1e6);
        // Exactly once: every packet delivered, and every duplicate arrival
        // is the second copy of a reinjected packet (a subflow declared
        // potentially failed has its in-flight data reinjected, and the
        // original copy may still arrive).
        if c.data_delivered != size || c.dup_data_arrivals > c.reinjections_sent {
            violations.push(format!(
                "dc_churn flow {id}: delivered {} of {size} packets, {} duplicate arrivals \
                 for {} reinjections",
                c.data_delivered, c.dup_data_arrivals, c.reinjections_sent
            ));
        }
    }
    let sim_out = SimOutcome {
        goodput_mbps: mean(&goodput),
        fct_ms,
        attempted: conns.len() as u64,
        failed,
        digest: sim.det_digest(),
    };

    let (idle_sim_s, idle_wall_s) = slices
        .iter()
        .filter(|(ev, _)| *ev == 0)
        .fold((0.0, 0.0), |(s, w), (_, wall)| {
            (s + cfg.slice.as_secs_f64(), w + wall)
        });
    let mut layers = Vec::new();
    if tr.enabled() {
        netlayers::setup_layers(tr, "workload.alternating_poisson", &mut layers);
        let links: Vec<_> = (0..sim.link_count())
            .map(|l| (sim.link_stats(l), sim.link_spec(l).rate_bps))
            .collect();
        netlayers::run_layers(
            &perf,
            run_s,
            perf.hot_allocs - hot_allocs_at_steady,
            &slices,
            &conns,
            &links,
            &core,
            cfg.horizon.as_secs_f64(),
            &mut layers,
        );
        layers.push(Metric::new(
            "arena.hot_slots_peak",
            sim.arena_hot_slots() as f64,
            "count",
        ));
        layers.push(Metric::new(
            "arena.reuse_share",
            ratio(sim.arena_hot_reuses() as f64, conns.len() as f64),
            "share",
        ));
        layers.push(Metric::new("cc.subflows", cfg.subflows as f64, "count"));
        layers.push(Metric::new(
            "cc.ns_per_ack",
            crate::micro::cc_ns_per_ack(cfg.subflows, 1_000_000),
            "ns",
        ));
    }
    Rep {
        run_s,
        delivered_bytes: netlayers::delivered_bytes(&conns),
        sim: sim_out,
        violations,
        layers,
        idle_sim_s,
        idle_wall_s,
    }
}
