//! Host speed of the §6 protocol endpoint.
//!
//! Runs fixed-seed `Harness::transfer`s through a client/server pair over
//! three lossy, jittery wires (handshake, segment codec, DSS mapping,
//! reassembly, data-ACKs, retransmission and reinjection all run), checks
//! every payload byte for byte, and records the achieved payload rate as
//! `proto_micro/transfer` in `BENCH_sim.json`. `bytes_per_sec` is a
//! throughput field, so `cargo xtask bench-check` gates it like the
//! simulator rates. `MPTCP_QUICK` divides the number of transfers.

use mptcp_bench::report::{host_cores, merge_bench_sim, Record};
use mptcp_bench::{quick_factor, quick_mode};
use mptcp_proto::{EndpointConfig, Harness, Wire, WireFault};

const TRANSFERS: u64 = 400;
const PAYLOAD_BYTES: usize = 250_000;

/// Three unequal paths: short and jittery, medium, lossy and jittery, long
/// and nearly clean.
fn wires(seed: u64) -> Vec<Wire> {
    vec![
        Wire::new(2_000, seed * 3 + 1)
            .with_fault(WireFault::Loss(0.01))
            .with_fault(WireFault::Jitter(1_000)),
        Wire::new(5_000, seed * 3 + 2)
            .with_fault(WireFault::Loss(0.02))
            .with_fault(WireFault::Jitter(3_000)),
        Wire::new(12_000, seed * 3 + 3).with_fault(WireFault::Loss(0.005)),
    ]
}

fn main() {
    let transfers = (TRANSFERS / quick_factor().unwrap_or(1)).max(1);
    let data: Vec<u8> = (0..PAYLOAD_BYTES)
        .map(|i| (i * 7 + i / 251) as u8)
        .collect();
    let mut secs = 0.0;
    for seed in 0..transfers {
        let mut h = Harness::new(EndpointConfig::default(), wires(seed), seed);
        let start = mptcp_netsim::wall_clock();
        let got = h.transfer(&data, 1_000_000);
        secs += start.elapsed().as_secs_f64();
        assert!(
            got.as_deref() == Some(&data[..]),
            "transfer {seed} not byte-exact"
        );
    }
    let bytes = transfers as f64 * PAYLOAD_BYTES as f64;
    let rate = bytes / secs;
    println!(
        "proto_micro: {transfers} transfers of {PAYLOAD_BYTES} B in {secs:.3} s = {:.1} MB/s",
        rate / 1e6
    );
    merge_bench_sim(
        "proto_micro/",
        &[Record::new("proto_micro/transfer")
            .field("transfers", transfers)
            .field("bytes", bytes)
            .field("bytes_per_sec", rate)
            .field("host_cores", host_cores())
            .field("quick", quick_mode())],
    );
}
