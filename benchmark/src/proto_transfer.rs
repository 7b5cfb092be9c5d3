//! `proto_transfer`: a closed loop of sequential transfers through the §6
//! protocol stack.
//!
//! Each transfer builds a fresh client/server `Endpoint` pair joined by
//! three `Wire`s with unequal delays, loss and jitter (so segments are lost
//! and reordered), pushes a Pareto-sized payload through it and checks that
//! the server read it back byte for byte. The next transfer starts only
//! when the previous one completed. The world is stepped by this module's
//! copy of `Harness::step`, so every `on_segment`, `poll` and wire
//! send/receive call can be timed.

use crate::rep::{Rep, SimOutcome};
use crate::report::{mean, ratio, Metric};
use crate::trace::Tracer;
use mptcp_netsim::DigestWriter;
use mptcp_proto::{Endpoint, EndpointConfig, Micros, Segment, Wire, WireFault};
use mptcp_workload::ParetoSizes;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Workload size.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Transfers per repetition.
    pub transfers: usize,
    /// Payload sizes in bytes (`packet_size` 1).
    pub sizes: ParetoSizes,
    /// Harness tick, µs.
    pub tick: Micros,
    /// A transfer not complete after this many ticks fails.
    pub max_ticks: u64,
}

impl Config {
    pub fn standard() -> Self {
        Self {
            transfers: 1500,
            sizes: ParetoSizes {
                max_bytes: 1e6,
                packet_size: 1,
                ..ParetoSizes::with_mean(100_000.0, 1.5)
            },
            tick: 100,
            max_ticks: 300_000,
        }
    }

    /// A small instance for the benchmark's own tests.
    #[cfg(test)]
    pub fn tiny() -> Self {
        Self {
            transfers: 12,
            sizes: ParetoSizes {
                max_bytes: 1e5,
                packet_size: 1,
                ..ParetoSizes::with_mean(20_000.0, 1.5)
            },
            tick: 100,
            max_ticks: 300_000,
        }
    }
}

/// SplitMix64 finaliser: independent seeds for wires, keys and payloads.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Overwrite `out` with `len` pseudo-random payload bytes. One buffer is
/// reused across a repetition's transfers, so the peak resident set does
/// not depend on the allocator's history of large payloads.
fn fill_payload(seed: u64, len: usize, out: &mut Vec<u8>) {
    let mut state = mix(seed) | 1;
    out.clear();
    while out.len() < len {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        out.extend_from_slice(&state.to_le_bytes());
    }
    out.truncate(len);
}

/// Three unequal paths: short and jittery, medium and lossy, long and
/// nearly clean. Each transfer draws its one-way delays from 1.5–2.5 ms,
/// 4–6 ms and 9–15 ms.
fn wires(seed: u64) -> Vec<Wire> {
    let delay = |salt: u64, lo: Micros, hi: Micros| lo + mix(seed ^ salt) % (hi - lo + 1);
    vec![
        Wire::new(delay(11, 1_500, 2_500), mix(seed ^ 1))
            .with_fault(WireFault::Loss(0.01))
            .with_fault(WireFault::Jitter(1_000)),
        Wire::new(delay(12, 4_000, 6_000), mix(seed ^ 2))
            .with_fault(WireFault::Loss(0.02))
            .with_fault(WireFault::Jitter(3_000)),
        Wire::new(delay(13, 9_000, 15_000), mix(seed ^ 3)).with_fault(WireFault::Loss(0.005)),
    ]
}

/// Counters summed over a repetition's transfers.
#[derive(Debug, Default)]
struct Totals {
    carried: u64,
    dropped: u64,
    retransmits: u64,
    timeouts: u64,
    reinjections: u64,
}

struct World {
    client: Endpoint,
    server: Endpoint,
    wires: Vec<Wire>,
    now: Micros,
}

impl World {
    /// `Harness::step`: deliver due segments, then poll both endpoints.
    fn step(&mut self, tick: Micros, tr: &mut Tracer, captured: &mut Vec<Segment>) {
        self.now += tick;
        let now = self.now;
        for (i, wire) in self.wires.iter_mut().enumerate() {
            for seg in tr.call("proto.wire.recv", || wire.recv_a(now)) {
                tr.call("proto.on_segment", || self.client.on_segment(now, i, seg));
            }
            for seg in tr.call("proto.wire.recv", || wire.recv_b(now)) {
                tr.call("proto.on_segment", || self.server.on_segment(now, i, seg));
            }
        }
        let sending = [true, false];
        for from_client in sending {
            let ep = if from_client {
                &mut self.client
            } else {
                &mut self.server
            };
            let out = tr.call("proto.poll", || ep.poll(now));
            for (sub, seg) in out {
                if tr.enabled() && captured.len() < 50_000 && (self.now / tick).is_multiple_of(4) {
                    captured.push(seg.clone());
                }
                let wire = &mut self.wires[sub];
                if from_client {
                    tr.call("proto.wire.send", || wire.send_a(now, seg));
                } else {
                    tr.call("proto.wire.send", || wire.send_b(now, seg));
                }
            }
        }
    }
}

/// Push `data` from client to server (`Harness::transfer`); returns the
/// completion time in µs, or `None` if `max_ticks` ran out, and whether
/// every byte read matched.
fn transfer(
    w: &mut World,
    data: &[u8],
    cfg: &Config,
    tr: &mut Tracer,
    captured: &mut Vec<Segment>,
) -> (Option<Micros>, bool) {
    let mut written = 0;
    let mut read = 0;
    let mut exact = true;
    let mut buf = [0u8; 4096];
    let mut closed = false;
    for _ in 0..cfg.max_ticks {
        if written < data.len() {
            written += w.client.write(&data[written..]);
        } else if !closed {
            w.client.close();
            closed = true;
        }
        w.step(cfg.tick, tr, captured);
        loop {
            let n = w.server.read(&mut buf);
            if n == 0 {
                break;
            }
            exact &= data.get(read..read + n) == Some(&buf[..n]);
            read += n;
        }
        if closed && w.server.at_eof() && w.client.send_complete() {
            return (Some(w.now), exact && read == data.len());
        }
    }
    (None, exact)
}

/// Transfer `i`'s seed: wires, connection key and payload derive from it.
fn transfer_seed(seed: u64, i: usize) -> u64 {
    mix(seed ^ mix(i as u64))
}

/// The client/server pair and wires of one transfer.
fn endpoints(tseed: u64) -> (Endpoint, Endpoint, Vec<Wire>) {
    let cfg = EndpointConfig::default();
    (
        Endpoint::client(cfg, 3, tseed),
        Endpoint::server(cfg, 3, tseed),
        wires(tseed),
    )
}

/// Wall time of one set-up alone (every transfer's endpoints and wires,
/// built and dropped in turn), s.
pub fn setup_s(cfg: &Config, seed: u64) -> f64 {
    let mut total = 0.0;
    for i in 0..cfg.transfers {
        let started = Instant::now();
        let world = endpoints(transfer_seed(seed, i));
        total += started.elapsed().as_secs_f64();
        drop(world);
    }
    total
}

/// One repetition. With `tr` enabled, also fills the layer metrics.
pub fn rep(cfg: &Config, seed: u64, tr: &mut Tracer) -> Rep {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0070_2070);
    let sizes: Vec<usize> = tr.span("workload.pareto_sizes", 0, |_| {
        (0..cfg.transfers)
            .map(|_| cfg.sizes.sample_pkts(&mut rng) as usize)
            .collect()
    });

    let mut run_s = 0.0;
    let mut delivered = 0u64;
    let mut totals = Totals::default();
    let mut fct_ms = Vec::with_capacity(cfg.transfers);
    let mut goodput = Vec::with_capacity(cfg.transfers);
    let mut failed = 0;
    let mut violations = Vec::new();
    let mut captured = Vec::new();
    let mut digest = DigestWriter::new();
    let mut data = Vec::with_capacity(cfg.sizes.max_bytes as usize + 8);
    for (i, &size) in sizes.iter().enumerate() {
        let id = i as u64;
        let tseed = transfer_seed(seed, i);
        fill_payload(tseed, size, &mut data);
        tr.span("proto.transfer", id, |tr| {
            let (client, server, wires) = tr.span("proto.setup", id, |_| endpoints(tseed));
            let mut w = World {
                client,
                server,
                wires,
                now: 0,
            };

            let run_started = Instant::now();
            let (done, exact) = transfer(&mut w, &data, cfg, tr, &mut captured);
            run_s += run_started.elapsed().as_secs_f64();

            match done {
                Some(us) => {
                    delivered += size as u64;
                    fct_ms.push(us as f64 / 1e3);
                    goodput.push(size as f64 * 8.0 / us as f64);
                }
                None => failed += 1,
            }
            if !exact {
                violations.push(format!(
                    "proto transfer {i}: payload of {size} bytes not byte-exact"
                ));
            }
            for wire in &w.wires {
                totals.carried += wire.carried;
                totals.dropped += wire.dropped;
            }
            for ep in [&w.client, &w.server] {
                let st = ep.stats();
                totals.reinjections += st.reinjections_total as u64;
                for s in &st.subflows {
                    totals.retransmits += s.retransmits;
                    totals.timeouts += s.timeouts;
                }
            }
            for v in [
                size as u64,
                done.unwrap_or(u64::MAX),
                totals.carried,
                totals.dropped,
                totals.retransmits,
            ] {
                digest.write_u64(v);
            }
        });
    }

    let mut layers = Vec::new();
    if tr.enabled() {
        let n = cfg.transfers as f64;
        let ns_per = |name: &str| {
            let (t, calls) = tr.total(name);
            ratio(t * 1e9, calls as f64)
        };
        layers.push(Metric::new(
            "workload.generate_s",
            tr.total("workload.pareto_sizes").0,
            "s",
        ));
        layers.push(Metric::new("proto.transfers", n, "count"));
        layers.push(Metric::new(
            "proto.setup_us",
            ratio(tr.total("proto.setup").0 * 1e6, n),
            "us",
        ));
        layers.push(Metric::new(
            "proto.on_segment_ns",
            ns_per("proto.on_segment"),
            "ns",
        ));
        layers.push(Metric::new(
            "proto.on_segment.calls",
            tr.total("proto.on_segment").1 as f64,
            "count",
        ));
        layers.push(Metric::new("proto.poll_ns", ns_per("proto.poll"), "ns"));
        layers.push(Metric::new(
            "proto.poll.calls",
            tr.total("proto.poll").1 as f64,
            "count",
        ));
        let wire_s = tr.total("proto.wire.send").0 + tr.total("proto.wire.recv").0;
        layers.push(Metric::new(
            "proto.wire_ns",
            ratio(wire_s * 1e9, totals.carried as f64),
            "ns",
        ));
        layers.push(Metric::new("proto.codec_ns", codec_ns(&captured), "ns"));
        layers.push(Metric::new(
            "proto.codec.segments",
            captured.len() as f64,
            "count",
        ));
        layers.push(Metric::new(
            "proto.segments_per_transfer",
            ratio(totals.carried as f64, n),
            "count",
        ));
        let retx_share = ratio(totals.retransmits as f64, totals.carried as f64);
        layers.push(Metric::new("proto.retransmit_share", retx_share, "share"));
        layers.push(Metric::new(
            "link.drop_share",
            ratio(totals.dropped as f64, totals.carried as f64),
            "share",
        ));
        layers.push(Metric::new("link.offered", totals.carried as f64, "count"));
        layers.push(Metric::new("tcp.retransmit_share", retx_share, "share"));
        layers.push(Metric::new("tcp.sent_pkts", totals.carried as f64, "count"));
        layers.push(Metric::new("tcp.timeouts", totals.timeouts as f64, "count"));
        layers.push(Metric::new(
            "mptcp.reinjections",
            totals.reinjections as f64,
            "count",
        ));
        layers.push(Metric::new("cc.subflows", 3.0, "count"));
        layers.push(Metric::new(
            "cc.ns_per_ack",
            crate::micro::cc_ns_per_ack(3, 1_000_000),
            "ns",
        ));
    }
    Rep {
        run_s,
        delivered_bytes: delivered,
        sim: SimOutcome {
            goodput_mbps: mean(&goodput),
            fct_ms,
            attempted: cfg.transfers as u64,
            failed,
            digest: digest.finish(),
        },
        violations,
        layers,
        idle_sim_s: 0.0,
        idle_wall_s: 0.0,
    }
}

/// `Segment::encode` + `Segment::decode` over the captured segment mix, ns
/// per segment (median of three passes); each round trip must reproduce
/// the segment's encoding.
fn codec_ns(segments: &[Segment]) -> f64 {
    if segments.is_empty() {
        return 0.0;
    }
    let mut passes = [0.0; 3];
    for pass in &mut passes {
        let started = Instant::now();
        let mut bytes = 0usize;
        for seg in segments {
            let wire = seg.encode();
            let back = Segment::decode(&wire).expect("captured segments decode");
            bytes += std::hint::black_box(back.payload.len());
        }
        std::hint::black_box(bytes);
        *pass = started.elapsed().as_nanos() as f64 / segments.len() as f64;
    }
    passes.sort_by(f64::total_cmp);
    passes[1]
}
