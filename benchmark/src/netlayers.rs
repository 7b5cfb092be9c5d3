//! Layer metrics both packet-level workloads read from the simulator's
//! public counters.

use crate::report::{mean, quantile, ratio, Metric};
use crate::trace::Tracer;
use mptcp_netsim::{ConnectionStats, DetDigest, DigestWriter, LinkStats, SimPerf};

/// Digest of every connection's and link's public statistics, in id order.
pub fn stats_digest(conns: &[ConnectionStats], links: &[LinkStats]) -> u64 {
    let mut w = DigestWriter::new();
    for c in conns {
        c.det_digest(&mut w);
    }
    for l in links {
        for v in [
            l.offered,
            l.dropped_queue,
            l.dropped_random,
            l.dropped_down,
            l.transmitted,
            l.bytes,
        ] {
            w.write_u64(v);
        }
    }
    w.finish()
}

/// Application payload delivered, bytes.
pub fn delivered_bytes(conns: &[ConnectionStats]) -> u64 {
    conns
        .iter()
        .map(|c| c.data_delivered * u64::from(c.packet_size))
        .sum()
}

/// Set-up layers: topology build and path selection, workload generation
/// and per-connection admission.
pub fn setup_layers(tr: &Tracer, generate_span: &str, out: &mut Vec<Metric>) {
    out.push(Metric::new(
        "topology.build_s",
        tr.total("topology.build").0,
        "s",
    ));
    out.push(Metric::new(
        "topology.paths_s",
        tr.total("topology.random_paths").0,
        "s",
    ));
    out.push(Metric::new(
        "workload.generate_s",
        tr.total(generate_span).0,
        "s",
    ));
    let admit_us: Vec<f64> = tr
        .durations_s("netsim.add_connection")
        .iter()
        .map(|s| s * 1e6)
        .collect();
    out.push(Metric::new(
        "netsim.add_connection_us.mean",
        mean(&admit_us),
        "us",
    ));
    out.push(Metric::new(
        "netsim.add_connection_us.p99",
        quantile(&admit_us, 0.99),
        "us",
    ));
    out.push(Metric::new(
        "netsim.add_connection.count",
        admit_us.len() as f64,
        "count",
    ));
}

/// Engine, link, TCP and MPTCP layers over a finished run.
///
/// `slices` holds `(events fired, wall s)` for every fixed sim-time slice
/// of the run phase; `core` lists the core-link indices into `links`;
/// `window_s` is the simulated span `links` were counted over.
#[allow(clippy::too_many_arguments)]
pub fn run_layers(
    perf: &SimPerf,
    run_wall_s: f64,
    hot_allocs_steady: u64,
    slices: &[(u64, f64)],
    conns: &[ConnectionStats],
    links: &[(LinkStats, f64)],
    core: &[usize],
    window_s: f64,
    out: &mut Vec<Metric>,
) {
    let delivered_pkts: u64 = conns.iter().map(ConnectionStats::delivered_pkts).sum();
    let events = perf.events_fired as f64;
    out.push(Metric::new("netsim.events", events, "count"));
    out.push(Metric::new(
        "netsim.events_per_s",
        ratio(events, run_wall_s),
        "1/s",
    ));
    out.push(Metric::new(
        "netsim.delivered_pkts",
        delivered_pkts as f64,
        "count",
    ));
    out.push(Metric::new(
        "netsim.events_per_delivered_pkt",
        ratio(events, delivered_pkts as f64),
        "events/pkt",
    ));
    out.push(Metric::new(
        "netsim.stale_event_share",
        ratio(perf.events_cancelled as f64, events),
        "share",
    ));
    out.push(Metric::new(
        "netsim.peak_pending",
        perf.peak_pending as f64,
        "count",
    ));
    out.push(Metric::new(
        "netsim.hot_allocs_steady",
        hot_allocs_steady as f64,
        "count",
    ));
    let busy_ms: Vec<f64> = slices
        .iter()
        .filter(|(ev, _)| *ev > 0)
        .map(|(_, wall)| wall * 1e3)
        .collect();
    out.push(Metric::new(
        "netsim.busy_slice_ms.p50",
        quantile(&busy_ms, 0.5),
        "ms",
    ));
    out.push(Metric::new(
        "netsim.busy_slice_ms.p99",
        quantile(&busy_ms, 0.99),
        "ms",
    ));
    out.push(Metric::new(
        "netsim.busy_slices",
        busy_ms.len() as f64,
        "count",
    ));

    let offered: u64 = links.iter().map(|(l, _)| l.offered).sum();
    let dropped: u64 = links.iter().map(|(l, _)| l.dropped()).sum();
    out.push(Metric::new(
        "link.drop_share",
        ratio(dropped as f64, offered as f64),
        "share",
    ));
    out.push(Metric::new("link.offered", offered as f64, "count"));
    let core_util: Vec<f64> = core
        .iter()
        .map(|&i| {
            let (stats, rate) = &links[i];
            ratio(stats.bytes as f64 * 8.0, rate * window_s)
        })
        .collect();
    out.push(Metric::new(
        "link.core_utilization",
        mean(&core_util),
        "share",
    ));

    let subflows = conns.iter().flat_map(|c| &c.subflows);
    let (mut sent, mut retx, mut timeouts, mut recoveries) = (0u64, 0u64, 0u64, 0u64);
    for s in subflows {
        sent += s.sent_pkts;
        retx += s.retransmits;
        timeouts += s.timeouts;
        recoveries += s.fast_recoveries;
    }
    out.push(Metric::new(
        "tcp.retransmit_share",
        ratio(retx as f64, sent as f64),
        "share",
    ));
    out.push(Metric::new("tcp.sent_pkts", sent as f64, "count"));
    out.push(Metric::new("tcp.timeouts", timeouts as f64, "count"));
    out.push(Metric::new(
        "tcp.fast_recoveries",
        recoveries as f64,
        "count",
    ));
    let reinjections: u64 = conns.iter().map(|c| c.reinjections_sent).sum();
    out.push(Metric::new(
        "mptcp.reinjections",
        reinjections as f64,
        "count",
    ));
}

/// Mean congestion window over the subflows of connections still running,
/// in packets (the scoreboard probe's window); 8 when none is running.
pub fn mean_open_window(conns: &[ConnectionStats]) -> u64 {
    let windows: Vec<f64> = conns
        .iter()
        .filter(|c| c.finished_at.is_none())
        .flat_map(|c| c.subflows.iter().map(|s| s.cwnd))
        .collect();
    if windows.is_empty() {
        8
    } else {
        (mean(&windows).round() as u64).max(8)
    }
}
