//! `dc_bulk`: the §4 FatTree on the serial `Simulator`, TP1 permutation
//! traffic of long-lived multipath flows, core links failing mid-run.
//!
//! Every host sends to one other host (a random permutation without fixed
//! points) over `subflows` random shortest paths, for the whole run. A
//! fixed fault plan takes two core links down and browns out two more, so
//! loss recovery and reinjection run as well as congestion avoidance.
//!
//! Long-lived flows never complete, so this workload's completion times
//! are those of consecutive `block_pkts`-packet blocks of each stream
//! after the warm-up: a block completes at the end of the first run slice
//! in which the connection has delivered it.

use crate::netlayers;
use crate::rep::{Rep, SimOutcome};
use crate::report::{mean, Metric};
use crate::trace::Tracer;
use mptcp_cc::AlgorithmKind;
use mptcp_netsim::{ConnectionSpec, FaultPlan, LinkId, LinkSpec, SimTime, Simulator};
use mptcp_topology::FatTree;
use mptcp_workload::random_permutation_pairs;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Workload size.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// FatTree switch port count (k = 8 is the paper's 128 hosts).
    pub k: usize,
    /// Subflows per connection.
    pub subflows: usize,
    /// Packets per completion-time block.
    pub block_pkts: u64,
    /// Simulated length of the run.
    pub horizon: SimTime,
    /// Start of the measurement window (link counters reset here).
    pub warmup: SimTime,
    /// Run slice: block completions are observed at slice ends.
    pub slice: SimTime,
}

impl Config {
    pub fn standard() -> Self {
        Self {
            k: 8,
            subflows: 8,
            block_pkts: 500,
            horizon: SimTime::from_millis(1000),
            warmup: SimTime::from_millis(100),
            slice: SimTime::from_millis(1),
        }
    }

    /// A small instance for the benchmark's own tests.
    #[cfg(test)]
    pub fn tiny() -> Self {
        Self {
            k: 4,
            subflows: 4,
            block_pkts: 100,
            horizon: SimTime::from_millis(200),
            warmup: SimTime::from_millis(20),
            slice: SimTime::from_millis(1),
        }
    }
}

/// The §4 link: 100 Mb/s, 10 µs propagation, 100-packet buffer.
fn dc_link() -> LinkSpec {
    LinkSpec::mbps(100.0, SimTime::from_micros(10), 100)
}

/// Two core links down for three quarters of the run (long enough for
/// their subflows to back off twice, be declared potentially failed and
/// have their data reinjected), two more browned out to a fifth of their
/// rate for 40% of it; the same links for every seed.
fn fault_plan(core: &[LinkId], horizon: SimTime) -> FaultPlan {
    let at = |f: f64| SimTime::from_secs_f64(horizon.as_secs_f64() * f);
    let pick = |i: usize| core[(i * 37) % core.len()];
    FaultPlan::new()
        .outage(pick(1), at(0.15), at(0.9))
        .outage(pick(2), at(0.15), at(0.9))
        .brownout(pick(3), at(0.4), at(0.8), 0.2)
        .brownout(pick(4), at(0.4), at(0.8), 0.2)
}

/// Block bookkeeping of one connection.
#[derive(Debug, Clone, Copy, Default)]
struct Blocks {
    delivered_at_warmup: u64,
    /// Packets delivered at the end of the previous slice.
    delivered: u64,
    next_end: u64,
    /// When the current block started, s.
    started_at: f64,
}

/// A built world: topology, fault plan and every connection admitted.
struct World {
    sim: Simulator,
    core: Vec<LinkId>,
}

fn build(cfg: &Config, seed: u64, tr: &mut Tracer) -> World {
    let mut sim = Simulator::new(seed);
    let ft = tr.span("topology.build", 0, |_| {
        FatTree::build(&mut sim, cfg.k, dc_link())
    });
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00d0_b01c);
    let hosts = ft.host_count();
    let pairs = tr.span("workload.random_permutation_pairs", 0, |_| {
        random_permutation_pairs(hosts, &mut rng)
    });
    let core = ft.core_links();
    sim.install_fault_plan(&fault_plan(&core, cfg.horizon));
    for (i, &(s, d)) in pairs.iter().enumerate() {
        let paths = tr.span("topology.random_paths", i as u64, |_| {
            ft.random_paths(s, d, cfg.subflows, &mut rng)
        });
        let mut spec = ConnectionSpec::bulk(AlgorithmKind::Mptcp);
        for p in paths {
            spec = spec.path(p);
        }
        tr.span("netsim.add_connection", i as u64, |_| {
            sim.add_connection(spec)
        });
    }
    World { sim, core }
}

/// Wall time of one set-up alone, s.
pub fn setup_s(cfg: &Config, seed: u64) -> f64 {
    let started = Instant::now();
    let world = build(cfg, seed, &mut Tracer::off());
    let s = started.elapsed().as_secs_f64();
    drop(world);
    s
}

/// One repetition. With `tr` enabled, also fills the layer metrics.
pub fn rep(cfg: &Config, seed: u64, tr: &mut Tracer) -> Rep {
    let World { mut sim, core } = build(cfg, seed, tr);

    // Run phase in fixed slices; block completions are read at slice ends.
    let run_started = Instant::now();
    let n = sim.connection_count();
    let mut blocks = vec![Blocks::default(); n];
    let mut fct_ms = Vec::new();
    let mut slices: Vec<(u64, f64)> = Vec::new();
    let mut hot_allocs_at_warmup = 0;
    let mut t = SimTime::ZERO;
    while t < cfg.horizon {
        t = (t + cfg.slice).min(cfg.horizon);
        if tr.enabled() {
            let events_before = sim.perf().events_fired;
            let started = Instant::now();
            tr.span("netsim.run_until", slices.len() as u64, |_| {
                sim.run_until(t)
            });
            slices.push((
                sim.perf().events_fired - events_before,
                started.elapsed().as_secs_f64(),
            ));
        } else {
            sim.run_until(t);
        }
        if t == cfg.warmup {
            sim.reset_link_stats();
            hot_allocs_at_warmup = sim.perf().hot_allocs;
            for (c, b) in blocks.iter_mut().enumerate() {
                let delivered = sim.connection_stats(c).data_delivered;
                *b = Blocks {
                    delivered_at_warmup: delivered,
                    delivered,
                    next_end: delivered + cfg.block_pkts,
                    started_at: t.as_secs_f64(),
                };
            }
        } else if t > cfg.warmup {
            // A block ends where the slice's delivery, taken as linear
            // over the slice, crosses its last packet.
            let (t1, len) = (t.as_secs_f64(), cfg.slice.as_secs_f64());
            for (c, b) in blocks.iter_mut().enumerate() {
                let delivered = sim.connection_stats(c).data_delivered;
                while delivered >= b.next_end {
                    let share =
                        (b.next_end - b.delivered) as f64 / (delivered - b.delivered) as f64;
                    let end = t1 - len + share * len;
                    fct_ms.push((end - b.started_at) * 1e3);
                    b.started_at = end;
                    b.next_end += cfg.block_pkts;
                }
                b.delivered = delivered;
            }
        }
    }
    let run_s = run_started.elapsed().as_secs_f64();

    let conns: Vec<_> = (0..sim.connection_count())
        .map(|c| sim.connection_stats(c))
        .collect();
    let links: Vec<_> = (0..sim.link_count()).map(|l| sim.link_stats(l)).collect();
    let perf = sim.perf();
    let window_s = (cfg.horizon - cfg.warmup).as_secs_f64();
    let goodput: Vec<f64> = conns
        .iter()
        .zip(&blocks)
        .map(|(c, b)| {
            let pkts = c.data_delivered - b.delivered_at_warmup;
            (pkts * u64::from(c.packet_size)) as f64 * 8.0 / window_s / 1e6
        })
        .collect();
    // A connection fails if it delivered nothing over the window.
    let failed = goodput.iter().filter(|&&g| g <= 0.0).count() as u64;
    let mut violations = Vec::new();
    if !perf.is_consistent() {
        violations.push(format!("dc_bulk SimPerf inconsistent: {perf:?}"));
    }
    let sim_out = SimOutcome {
        goodput_mbps: mean(&goodput),
        fct_ms,
        attempted: conns.len() as u64,
        failed,
        digest: netlayers::stats_digest(&conns, &links),
    };

    let mut layers = Vec::new();
    if tr.enabled() {
        netlayers::setup_layers(tr, "workload.random_permutation_pairs", &mut layers);
        let rated: Vec<_> = (0..links.len())
            .map(|l| (links[l], sim.link_spec(l).rate_bps))
            .collect();
        netlayers::run_layers(
            &perf,
            run_s,
            perf.hot_allocs - hot_allocs_at_warmup,
            &slices,
            &conns,
            &rated,
            &core,
            window_s,
            &mut layers,
        );
        layers.push(Metric::new(
            "arena.hot_slots_peak",
            sim.arena_hot_slots() as f64,
            "count",
        ));
        layers.push(Metric::new(
            "arena.reuse_share",
            crate::report::ratio(sim.arena_hot_reuses() as f64, conns.len() as f64),
            "share",
        ));
        let window = netlayers::mean_open_window(&conns);
        layers.push(Metric::new(
            "queue.pending",
            perf.peak_pending as f64,
            "count",
        ));
        layers.push(Metric::new(
            "queue.ns_per_op",
            crate::micro::queue_ns_per_op(perf.peak_pending, 1_000_000),
            "ns",
        ));
        layers.push(Metric::new("scoreboard.window", window as f64, "pkts"));
        layers.push(Metric::new(
            "scoreboard.ns_per_op",
            crate::micro::scoreboard_ns_per_op(window, 2_000_000),
            "ns",
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
        idle_sim_s: 0.0,
        idle_wall_s: 0.0,
    }
}
