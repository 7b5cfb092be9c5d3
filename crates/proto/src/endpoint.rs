//! The MPTCP endpoint: the §6 design, executable.
//!
//! An [`Endpoint`] is one side of a multipath connection. It is entirely
//! poll-based: the caller feeds arriving segments in with
//! [`Endpoint::on_segment`] and collects segments to transmit with
//! [`Endpoint::poll`]; time is a number the caller advances. The design
//! points follow §6 exactly:
//!
//! * subflow sequence numbers (per subflow, in bytes) drive loss detection
//!   and fast retransmission;
//! * every payload is mapped into the data stream by a 64-bit data
//!   sequence number in a DSS option;
//! * the receive buffer is a **single shared pool**, and the advertised
//!   window is measured from the **data-level** cumulative ACK (the
//!   per-subflow alternative is implemented behind
//!   [`RecvBufferMode::PerSubflow`] purely so its deadlock can be
//!   demonstrated in tests);
//! * data ACKs are explicit, in options, on every segment;
//! * after a subflow's retransmission timer fires, its unacknowledged data
//!   is **reinjected** on another subflow, so a dead path cannot stall the
//!   stream.

use crate::path::{PathEndpoint, PathEvent, PathFlags, PathManager};
use crate::segment::{MptcpOption, SegFlags, Segment};
use crate::Micros;
use mptcp_cc::{AlgorithmKind, CcDriver, SubflowSnapshot};
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Which side initiates subflows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Initiates the connection and all additional subflows.
    Client,
    /// Accepts the connection.
    Server,
}

/// Receive-buffer accounting mode (§6 "Flow Control": "Two choices seem
/// feasible…"). `Shared` is the paper's chosen design; `PerSubflow` is the
/// rejected one, kept so the deadlock is demonstrable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvBufferMode {
    /// "a single buffer pool is maintained at the receiver, and its
    /// occupancy is signalled relative to the data sequence space".
    Shared,
    /// "separate buffer pools are maintained at the receiver for each
    /// subflow" — suffers deadlock when one subflow stalls.
    PerSubflow,
}

/// Endpoint configuration.
#[derive(Debug, Clone, Copy)]
pub struct EndpointConfig {
    /// Maximum payload bytes per segment.
    pub mss: usize,
    /// Send-buffer capacity, bytes (data kept until data-level ACK).
    pub send_buf: usize,
    /// Receive-buffer capacity, bytes (total for `Shared`; per subflow for
    /// `PerSubflow`).
    pub recv_buf: usize,
    /// Buffer accounting mode.
    pub recv_mode: RecvBufferMode,
    /// Congestion-control algorithm for the subflow windows.
    pub algorithm: AlgorithmKind,
    /// Reinject timed-out data on other subflows.
    pub reinject: bool,
    /// Minimum retransmission timeout, µs.
    pub min_rto: Micros,
    /// Initial congestion window, in MSS units.
    pub initial_cwnd: f64,
}

impl Default for EndpointConfig {
    fn default() -> Self {
        Self {
            mss: 1200,
            send_buf: 64 * 1024,
            recv_buf: 64 * 1024,
            recv_mode: RecvBufferMode::Shared,
            algorithm: AlgorithmKind::Mptcp,
            reinject: true,
            min_rto: 200_000,
            initial_cwnd: 2.0,
        }
    }
}

/// Diagnostic snapshot of one subflow (see [`Endpoint::stats`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubflowStats {
    /// Handshake completed.
    pub established: bool,
    /// Congestion window, bytes.
    pub cwnd_bytes: f64,
    /// Smoothed RTT, µs (None before the first sample).
    pub srtt_us: Option<f64>,
    /// Unacknowledged bytes outstanding.
    pub bytes_in_flight: u32,
    /// Retransmissions performed.
    pub retransmits: u64,
    /// Retransmission timeouts suffered.
    pub timeouts: u64,
    /// In repeated RTO backoff: probing only, no new data mappings.
    pub potentially_failed: bool,
    /// Negotiated at backup priority: warm but carrying no data while any
    /// non-backup subflow is healthy.
    pub backup: bool,
    /// Torn down by the path manager (may be rejoined later).
    pub closed: bool,
    /// Data payload bytes ever mapped onto this subflow.
    pub data_bytes_sent: u64,
}

/// Diagnostic snapshot of a connection (see [`Endpoint::stats`]).
#[derive(Debug, Clone, PartialEq)]
pub struct EndpointStats {
    /// Handshake outcome (None = unresolved; Some(false) = fallback).
    pub mp_enabled: Option<bool>,
    /// Data bytes mapped onto subflows so far.
    pub data_sent: u64,
    /// Peer's data-level cumulative ACK.
    pub data_acked: u64,
    /// In-order data bytes received.
    pub data_received: u64,
    /// Bytes waiting in the send buffer.
    pub send_buffered: usize,
    /// In-order bytes the application has not read yet.
    pub recv_buffered: usize,
    /// Bytes held out of order awaiting reassembly.
    pub recv_out_of_order: usize,
    /// Reinjections waiting for a subflow with window space.
    pub reinjections_queued: usize,
    /// Distinct data ranges ever reinjected.
    pub reinjections_total: usize,
    /// Zero-window persist probes sent.
    pub persist_probes: u64,
    /// Times the failover state machine moved data onto backup subflows
    /// (every non-backup subflow potentially failed).
    pub backup_activations: u64,
    /// Distinct `ADD_ADDR` advertisements transmitted.
    pub addr_advertised: u64,
    /// Subflows that completed a join handshake (initial joins included).
    pub subflows_joined: u64,
    /// Subflows torn down by the path manager.
    pub subflows_closed: u64,
    /// Most recent failover latency: µs from the first unanswered primary
    /// RTO to data moving onto a backup subflow.
    pub failover_latency_us: Option<Micros>,
    /// Per-subflow snapshots.
    pub subflows: Vec<SubflowStats>,
}

/// A segment the sender still holds for possible retransmission.
#[derive(Debug, Clone)]
struct SentSeg {
    sub_seq: u32,
    data_seq: u64,
    payload: Vec<u8>,
    sent_at: Micros,
    retransmitted: bool,
    /// A FIN occupies one subflow sequence number and is retransmitted by
    /// the same machinery as data.
    is_fin: bool,
}

impl SentSeg {
    /// Subflow sequence space this segment occupies.
    fn seq_len(&self) -> u32 {
        if self.is_fin {
            1
        } else {
            self.payload.len() as u32
        }
    }
}

/// Per-subflow state.
#[derive(Debug)]
struct Subflow {
    established: bool,
    syn_sent: bool,
    /// Backup priority (negotiated in the `MP_JOIN` backup bit).
    backup: bool,
    /// Torn down by the path manager; stays closed until rejoined.
    closed: bool,
    /// Client-side: initiate a join on this subflow when possible.
    want_join: bool,
    /// Data payload bytes ever mapped onto this subflow (diagnostics; the
    /// backup-semantics tests assert this stays zero while primaries are
    /// healthy).
    data_bytes_sent: u64,
    /// When the last SYN / SYN-ACK went out (they are retransmitted on a
    /// fixed timer until the handshake completes — a lost SYN must not
    /// wedge the connection).
    syn_sent_at: Micros,
    // --- sender ---
    snd_next: u32,
    snd_una: u32,
    inflight: VecDeque<SentSeg>,
    dup_acks: u32,
    in_recovery: bool,
    recovery_point: u32,
    cwnd_bytes: f64,
    ssthresh_bytes: f64,
    srtt_us: Option<f64>,
    rttvar_us: f64,
    rto_us: Micros,
    rto_deadline: Option<Micros>,
    /// Peer's advertised window as last seen on this subflow (meaning
    /// depends on the receive mode).
    peer_window: u32,
    /// Consecutive RTOs with no forward progress. Two or more marks the
    /// subflow "potentially failed": it keeps probing with retransmissions
    /// but receives no new data mappings until an ACK arrives.
    rto_backoffs: u32,
    retransmits: u64,
    timeouts: u64,
    // --- receiver (subflow level) ---
    rcv_next: u32,
    /// Received subflow byte ranges beyond `rcv_next` (start → end).
    rcv_ranges: BTreeMap<u32, u32>,
    ack_pending: bool,
    /// Bytes held in the receive buffer attributed to this subflow
    /// (PerSubflow mode accounting).
    held_bytes: usize,
}

impl Subflow {
    fn new(cfg: &EndpointConfig) -> Self {
        Self {
            established: false,
            syn_sent: false,
            backup: false,
            closed: false,
            want_join: true,
            data_bytes_sent: 0,
            syn_sent_at: 0,
            snd_next: 0,
            snd_una: 0,
            inflight: VecDeque::new(),
            dup_acks: 0,
            in_recovery: false,
            recovery_point: 0,
            cwnd_bytes: cfg.initial_cwnd * cfg.mss as f64,
            ssthresh_bytes: f64::INFINITY,
            srtt_us: None,
            rttvar_us: 0.0,
            rto_us: 1_000_000,
            rto_deadline: None,
            peer_window: u32::MAX,
            rto_backoffs: 0,
            retransmits: 0,
            timeouts: 0,
            rcv_next: 0,
            rcv_ranges: BTreeMap::new(),
            ack_pending: false,
            held_bytes: 0,
        }
    }

    fn bytes_in_flight(&self) -> u32 {
        self.snd_next.wrapping_sub(self.snd_una)
    }

    fn rtt_sample(&mut self, sample_us: f64, min_rto: Micros) {
        match self.srtt_us {
            None => {
                self.srtt_us = Some(sample_us);
                self.rttvar_us = sample_us / 2.0;
            }
            Some(s) => {
                self.rttvar_us = 0.75 * self.rttvar_us + 0.25 * (s - sample_us).abs();
                self.srtt_us = Some(0.875 * s + 0.125 * sample_us);
            }
        }
        let rto = self.srtt_us.unwrap() + 4.0 * self.rttvar_us;
        self.rto_us = (rto as Micros).max(min_rto);
    }

    /// Record an incoming subflow byte range; returns whether `rcv_next`
    /// advanced (in-order progress).
    fn receive_range(&mut self, start: u32, len: u32) -> bool {
        if len == 0 {
            return false;
        }
        let end = start.wrapping_add(len);
        // Transfers in this userspace model stay < 4 GiB; compare directly.
        if end <= self.rcv_next {
            return false; // old duplicate
        }
        let start = start.max(self.rcv_next);
        self.rcv_ranges
            .entry(start)
            .and_modify(|e| *e = (*e).max(end))
            .or_insert(end);
        let before = self.rcv_next;
        // Merge contiguous ranges starting at rcv_next.
        while let Some((&s, &e)) = self.rcv_ranges.range(..=self.rcv_next).next_back() {
            self.rcv_ranges.remove(&s);
            if e > self.rcv_next {
                self.rcv_next = e;
            }
        }
        self.rcv_next != before
    }
}

/// One side of a multipath connection. See the module docs.
pub struct Endpoint {
    cfg: EndpointConfig,
    role: Role,
    key: u64,
    /// `None` until the handshake resolves; then whether MPTCP is in use
    /// (false = fallback to regular TCP on subflow 0).
    mp_enabled: Option<bool>,
    subs: Vec<Subflow>,
    cc: CcDriver,

    // --- data-level send state ---
    send_buf: VecDeque<u8>,
    /// Data seq of `send_buf[0]` (oldest un-data-acked byte).
    snd_data_base: u64,
    /// Next data seq to map onto a subflow.
    snd_data_next: u64,
    /// Peer's data-level cumulative ACK.
    data_acked: u64,
    /// Data ranges to reinject on another subflow (after a subflow RTO):
    /// `(data_seq, payload, is_fin)`.
    reinject_queue: VecDeque<(u64, Vec<u8>, bool)>,
    fin_queued: bool,
    /// Data sequence number the FIN occupies, once first sent.
    fin_seq: Option<u64>,
    /// Data sequence numbers already reinjected once (avoid duplicates).
    reinjected: std::collections::BTreeSet<u64>,

    // --- data-level receive state ---
    /// Next data seq expected in order.
    rcv_data_next: u64,
    /// Out-of-order data held (data_seq → (arrival subflow, bytes)).
    recv_ooo: BTreeMap<u64, (usize, Vec<u8>)>,
    /// Retransmissions produced during ACK processing, flushed by `poll`.
    pending_out: Vec<(usize, Segment)>,
    /// Scratch list of the subflows `poll` may map data onto.
    usable: Vec<usize>,
    /// In-order data not yet read by the application.
    recv_app: VecDeque<u8>,
    /// FIFO attribution of buffered bytes to subflows (PerSubflow mode).
    recv_attribution: VecDeque<(usize, usize)>,
    /// Data seq of the peer's FIN, once seen.
    peer_fin: Option<u64>,

    // --- zero-window persist (RFC 9293 §3.8.6.1) ---
    /// Armed when data is queued but every subflow is flow-control-blocked
    /// with nothing in flight: no ACK can ever arrive to reopen the window
    /// (the reopening window update is a pure ACK, which is never
    /// retransmitted), so without this timer a single lost window update
    /// would deadlock the connection.
    persist_deadline: Option<Micros>,
    /// Zero-window probes sent (diagnostics).
    persist_probes: u64,

    // --- path management & failover (graceful-degradation state machine:
    // active → degraded → failover → recovered) ---
    /// Endpoint table, subflow limit and advertisement retransmit state.
    path: PathManager,
    /// Data is currently carried by backup subflows (failover state).
    backup_active: bool,
    /// When the primaries stopped making progress: stamped at the first
    /// unanswered primary RTO, cleared by any primary cumulative ACK.
    primary_down_since: Option<Micros>,
    /// Most recent failover latency (µs from `primary_down_since` to the
    /// first poll that moved data onto a backup).
    failover_latency_us: Option<Micros>,
    /// Times the failover state machine activated the backups.
    backup_activations: u64,
    /// Subflows that completed a join handshake.
    subflows_joined: u64,
    /// Subflows torn down by the path manager.
    subflows_closed: u64,

    /// Total application bytes received in order (diagnostics).
    pub total_received: u64,
}

impl Endpoint {
    /// Create a client endpoint with `n_subflows` paths.
    pub fn client(cfg: EndpointConfig, n_subflows: usize, key: u64) -> Self {
        Self::new(cfg, Role::Client, n_subflows, key)
    }

    /// Create a server endpoint able to accept `n_subflows` paths.
    pub fn server(cfg: EndpointConfig, n_subflows: usize, key: u64) -> Self {
        Self::new(cfg, Role::Server, n_subflows, key)
    }

    fn new(cfg: EndpointConfig, role: Role, n_subflows: usize, key: u64) -> Self {
        assert!(n_subflows >= 1, "need at least one subflow");
        assert!(cfg.mss > 0 && cfg.send_buf >= cfg.mss && cfg.recv_buf >= cfg.mss);
        let cc = cfg.algorithm.build_cc(n_subflows);
        let mut path = PathManager::new(n_subflows);
        for i in 0..n_subflows {
            path.add_endpoint(PathEndpoint {
                addr_id: i as u8,
                flags: PathFlags { subflow: true, ..Default::default() },
            });
        }
        Self {
            cfg,
            role,
            key,
            mp_enabled: None,
            subs: (0..n_subflows).map(|_| Subflow::new(&cfg)).collect(),
            cc,
            send_buf: VecDeque::new(),
            snd_data_base: 0,
            snd_data_next: 0,
            data_acked: 0,
            reinject_queue: VecDeque::new(),
            fin_queued: false,
            fin_seq: None,
            reinjected: std::collections::BTreeSet::new(),
            rcv_data_next: 0,
            recv_ooo: BTreeMap::new(),
            pending_out: Vec::new(),
            usable: Vec::new(),
            recv_app: VecDeque::new(),
            recv_attribution: VecDeque::new(),
            peer_fin: None,
            persist_deadline: None,
            persist_probes: 0,
            path,
            backup_active: false,
            primary_down_since: None,
            failover_latency_us: None,
            backup_activations: 0,
            subflows_joined: 0,
            subflows_closed: 0,
            total_received: 0,
        }
    }

    // ------------------------------------------------------------------
    // Application interface
    // ------------------------------------------------------------------

    /// Queue application data; returns how many bytes were accepted
    /// (bounded by send-buffer space). Data is retained until the peer's
    /// data-level cumulative ACK covers it.
    pub fn write(&mut self, data: &[u8]) -> usize {
        assert!(!self.fin_queued, "write after close");
        let space = self.cfg.send_buf.saturating_sub(self.send_buf.len());
        let n = space.min(data.len());
        self.send_buf.extend(&data[..n]);
        n
    }

    /// Signal end of stream once all queued data has been sent.
    pub fn close(&mut self) {
        self.fin_queued = true;
    }

    /// Read in-order received data into `buf`; returns bytes read.
    pub fn read(&mut self, buf: &mut [u8]) -> usize {
        let n = buf.len().min(self.recv_app.len());
        if n == 0 {
            return 0;
        }
        let (head, tail) = ring_range(&self.recv_app, 0, n);
        buf[..head.len()].copy_from_slice(head);
        buf[head.len()..n].copy_from_slice(tail);
        self.recv_app.drain(..n);
        // Window update: if reading reopened a window that had closed below
        // one MSS, tell the peer — otherwise a sender blocked on a zero
        // window would deadlock (TCP's window-update rule). The window only
        // grows while reading, so it crossed one MSS overall exactly when
        // one release step crossed it.
        let (cap, mss) = (self.cfg.recv_buf, self.cfg.mss as u32);
        let reopened = |held_before: usize, held_after: usize| {
            window_left(cap, held_before) < mss && window_left(cap, held_after) >= mss
        };
        let shared = self.cfg.recv_mode == RecvBufferMode::Shared;
        if shared && reopened(self.recv_app.len() + n, self.recv_app.len()) {
            for s in self.subs.iter_mut().filter(|s| s.established) {
                s.ack_pending = true;
            }
        }
        // Release attribution FIFO (PerSubflow accounting).
        let mut remaining = n;
        while remaining > 0 {
            let Some((sub, len)) = self.recv_attribution.front_mut() else { break };
            let take = remaining.min(*len);
            *len -= take;
            remaining -= take;
            let s = &mut self.subs[*sub];
            let held_before = s.held_bytes;
            s.held_bytes -= take;
            if !shared && s.established && reopened(held_before, s.held_bytes) {
                s.ack_pending = true;
            }
            if *len == 0 {
                self.recv_attribution.pop_front();
            }
        }
        n
    }

    /// Whether the peer closed and every byte has been read.
    pub fn at_eof(&self) -> bool {
        self.peer_fin.is_some_and(|f| self.rcv_data_next > f) && self.recv_app.is_empty()
    }

    /// Whether everything written (and the FIN, if closed) has been
    /// data-acknowledged by the peer. The FIN occupies one data sequence
    /// number, so "acknowledged" is observable.
    pub fn send_complete(&self) -> bool {
        let data_done = self.send_buf.is_empty() && self.snd_data_next == self.snd_data_base;
        let fin_done =
            !self.fin_queued || self.fin_seq.is_some_and(|f| self.data_acked > f);
        data_done && fin_done
    }

    /// Whether the connection fell back to regular TCP (options stripped).
    pub fn is_fallback(&self) -> bool {
        self.mp_enabled == Some(false)
    }

    /// Whether subflow `i` completed its handshake.
    pub fn subflow_established(&self, i: usize) -> bool {
        self.subs[i].established
    }

    /// Data-level cumulative ACK received from the peer.
    pub fn peer_data_acked(&self) -> u64 {
        self.data_acked
    }

    /// Retransmission counters per subflow (diagnostics).
    pub fn subflow_retransmits(&self, i: usize) -> (u64, u64) {
        (self.subs[i].retransmits, self.subs[i].timeouts)
    }

    // ------------------------------------------------------------------
    // Path management (the `ip mptcp` endpoint surface)
    // ------------------------------------------------------------------

    /// The connection's path manager (endpoint table, subflow limit,
    /// advertisement state).
    pub fn path_manager(&self) -> &PathManager {
        &self.path
    }

    /// Whether data is currently carried by backup subflows (the failover
    /// state of the graceful-degradation machine).
    pub fn backup_active(&self) -> bool {
        self.backup_active
    }

    /// Mark subflow `sub` as backup priority before it joins: its `MP_JOIN`
    /// will carry the backup bit and it will carry no data while any
    /// non-backup subflow is healthy.
    pub fn set_backup(&mut self, sub: usize, backup: bool) {
        self.subs[sub].backup = backup;
        self.path.add_endpoint(PathEndpoint {
            addr_id: sub as u8,
            flags: PathFlags { subflow: true, backup, ..Default::default() },
        });
    }

    /// Stop subflow `sub` from joining automatically; it joins only when
    /// the peer advertises the address or [`Endpoint::join_subflow`] is
    /// called.
    pub fn defer_join(&mut self, sub: usize) {
        assert!(sub > 0, "the initial subflow cannot be deferred");
        self.subs[sub].want_join = false;
    }

    /// Client-side: initiate (or re-initiate) a join on subflow `sub` at
    /// the given priority.
    pub fn join_subflow(&mut self, sub: usize, backup: bool) {
        assert!(sub > 0 && sub < self.subs.len(), "unknown subflow {sub}");
        let s = &mut self.subs[sub];
        s.closed = false;
        s.want_join = true;
        s.backup = backup;
        s.syn_sent = false; // SYN promptly on the next poll
    }

    /// Advertise local address `addr_id` to the peer via `ADD_ADDR`
    /// (retransmitted until echoed). The peer joins it at the given
    /// priority, subject to its subflow limit.
    pub fn advertise_addr(&mut self, addr_id: u8, backup: bool) {
        self.path.add_endpoint(PathEndpoint {
            addr_id,
            flags: PathFlags { signal: true, subflow: true, backup, ..Default::default() },
        });
        self.path.advertise(addr_id, backup);
    }

    /// Withdraw address `addr_id`: tear the local subflow down (stranded
    /// in-flight data is reinjected exactly once) and signal `REMOVE_ADDR`
    /// so the peer tears its side down too.
    pub fn withdraw_addr(&mut self, addr_id: u8) {
        self.path.withdraw(addr_id);
        self.teardown_subflow(addr_id as usize);
    }

    /// Tear down subflow `sub` and notify the peer (equivalent to
    /// [`Endpoint::withdraw_addr`] with the subflow's address id).
    pub fn close_subflow(&mut self, sub: usize) {
        assert!(sub < self.subs.len(), "unknown subflow {sub}");
        self.withdraw_addr(sub as u8);
    }

    /// Graceful teardown: strand this subflow's unacknowledged in-flight
    /// data into the reinjection queue (each data range requeued at most
    /// once per teardown; the receiver's data-level reassembly discards
    /// any copy that still arrives twice), silence its timers, and mark it
    /// closed. The subflow sequence space is *not* rolled back: a later
    /// rejoin resumes at `snd_next`, carried as the SYN's sequence number,
    /// and the peer jumps its receive cursor forward — so segments from
    /// the old incarnation can never alias new data.
    fn teardown_subflow(&mut self, sub: usize) {
        if sub == 0 || sub >= self.subs.len() {
            return; // the initial subflow carries the connection
        }
        if self.subs[sub].closed {
            return; // idempotent (duplicate REMOVE_ADDR)
        }
        let was_established = self.subs[sub].established;
        let s = &mut self.subs[sub];
        let stranded: Vec<SentSeg> = s.inflight.drain(..).collect();
        s.snd_una = s.snd_next;
        s.established = false;
        s.syn_sent = false;
        s.want_join = false;
        s.closed = true;
        s.rto_deadline = None;
        s.rto_backoffs = 0;
        s.dup_acks = 0;
        s.in_recovery = false;
        s.ack_pending = false;
        s.rto_us = 1_000_000;
        s.cwnd_bytes = self.cfg.initial_cwnd * self.cfg.mss as f64;
        s.ssthresh_bytes = f64::INFINITY;
        if was_established {
            self.subflows_closed += 1;
        }
        if self.mp_enabled == Some(true) {
            for h in stranded {
                let len = (h.payload.len() as u64).max(1);
                if h.data_seq + len <= self.data_acked {
                    continue; // already data-acked: nothing to save
                }
                if self.reinject_queue.iter().any(|(d, _, _)| *d == h.data_seq) {
                    continue; // already queued once
                }
                self.reinjected.insert(h.data_seq);
                self.reinject_queue.push_back((h.data_seq, h.payload, h.is_fin));
            }
        }
    }

    /// A diagnostic snapshot of the connection.
    pub fn stats(&self) -> EndpointStats {
        EndpointStats {
            mp_enabled: self.mp_enabled,
            data_sent: self.snd_data_next,
            data_acked: self.data_acked,
            data_received: self.total_received,
            send_buffered: self.send_buf.len(),
            recv_buffered: self.recv_app.len(),
            recv_out_of_order: self.recv_ooo.values().map(|(_, v)| v.len()).sum(),
            reinjections_queued: self.reinject_queue.len(),
            reinjections_total: self.reinjected.len(),
            persist_probes: self.persist_probes,
            backup_activations: self.backup_activations,
            addr_advertised: self.path.addr_advertised(),
            subflows_joined: self.subflows_joined,
            subflows_closed: self.subflows_closed,
            failover_latency_us: self.failover_latency_us,
            subflows: self
                .subs
                .iter()
                .map(|s| SubflowStats {
                    established: s.established,
                    cwnd_bytes: s.cwnd_bytes,
                    srtt_us: s.srtt_us,
                    bytes_in_flight: s.bytes_in_flight(),
                    retransmits: s.retransmits,
                    timeouts: s.timeouts,
                    potentially_failed: s.rto_backoffs >= mptcp_cc::POTENTIALLY_FAILED_RTO_BACKOFFS,
                    backup: s.backup,
                    closed: s.closed,
                    data_bytes_sent: s.data_bytes_sent,
                })
                .collect(),
        }
    }

    // ------------------------------------------------------------------
    // Receive-buffer accounting
    // ------------------------------------------------------------------

    /// Advertised window for segments sent on subflow `sub`.
    ///
    /// * `Shared` (the paper's design): capacity minus in-order unread
    ///   bytes, measured **from the data-level cumulative ACK**. Data held
    ///   out of order lives *inside* this allowance, so a retransmission of
    ///   the missing data at the cumulative point is always admissible —
    ///   this is exactly what makes the design deadlock-free (§6).
    /// * `PerSubflow` (the rejected design): capacity minus the bytes this
    ///   subflow has delivered that the application has not read, measured
    ///   from the *subflow* ACK. A stalled sibling subflow lets this
    ///   allowance fill up with data beyond the stream hole, wedging the
    ///   connection.
    fn advertised_window(&self, sub: usize) -> u32 {
        match self.cfg.recv_mode {
            RecvBufferMode::Shared => window_left(self.cfg.recv_buf, self.recv_app.len()),
            RecvBufferMode::PerSubflow => {
                window_left(self.cfg.recv_buf, self.subs[sub].held_bytes)
            }
        }
    }

    /// Whether an arriving payload is within the window this receiver has
    /// advertised (a segment beyond it is dropped as the network would drop
    /// it; the admission rule is the crux of the §6 deadlock argument).
    fn admissible(&self, sub: usize, seg: &Segment, len: usize) -> bool {
        if len == 0 {
            return true;
        }
        match self.cfg.recv_mode {
            RecvBufferMode::Shared => {
                let Some((Some(dseq), _)) = seg.dss() else {
                    // Fallback mode: the subflow stream is the data stream.
                    let end = seg.subflow_seq as u64 + len as u64;
                    return end
                        <= self.rcv_data_next + self.advertised_window(sub) as u64;
                };
                dseq + (len as u64)
                    <= self.rcv_data_next + self.advertised_window(sub) as u64
            }
            RecvBufferMode::PerSubflow => {
                let end = seg.subflow_seq.wrapping_add(len as u32);
                end as u64
                    <= self.subs[sub].rcv_next as u64 + self.advertised_window(sub) as u64
            }
        }
    }

    // ------------------------------------------------------------------
    // Segment ingestion
    // ------------------------------------------------------------------

    /// Process a segment arriving on subflow `sub` at time `now`.
    pub fn on_segment(&mut self, now: Micros, sub: usize, seg: Segment) {
        assert!(sub < self.subs.len(), "unknown subflow {sub}");
        if seg.flags.syn {
            self.on_syn(sub, &seg);
            // SYN segments may still carry an ACK (SYN-ACK) but no data.
            if seg.flags.ack {
                self.on_subflow_ack(now, sub, &seg);
            }
            return;
        }
        if !self.subs[sub].established {
            return; // segment on a dead subflow
        }
        if seg.flags.ack {
            self.on_subflow_ack(now, sub, &seg);
        }
        if let Some((_, Some(dack))) = seg.dss() {
            self.on_data_ack(dack);
        }
        // Path-manager options (only meaningful with MPTCP in use; in
        // fallback mode a stray advertisement is ignored, keeping the
        // connection a plain TCP stream).
        if self.mp_enabled == Some(true) {
            for i in 0..seg.options.len() {
                let opt = seg.options[i];
                self.on_path_option(&opt);
            }
        }
        if !seg.payload.is_empty() || seg.flags.fin {
            self.on_data(sub, &seg);
        }
    }

    /// Act on one received `ADD_ADDR`/`REMOVE_ADDR` (other options are
    /// ignored by the path manager).
    fn on_path_option(&mut self, opt: &MptcpOption) {
        let Some(ev) = self.path.on_option(opt) else { return };
        match ev {
            PathEvent::Join { addr_id, backup } => {
                let i = addr_id as usize;
                // Joins are client-initiated in this model; the server just
                // echoes the advertisement.
                if !matches!(self.role, Role::Client) || i == 0 || i >= self.subs.len() {
                    return;
                }
                if self.subs[i].established {
                    self.subs[i].backup = backup; // priority update only
                    return;
                }
                let live = self
                    .subs
                    .iter()
                    .filter(|s| !s.closed && (s.established || s.want_join))
                    .count();
                let already_joining = self.subs[i].want_join && !self.subs[i].closed;
                if !already_joining && live >= self.path.subflow_limit() {
                    return; // at the per-connection subflow limit
                }
                self.join_subflow(i, backup);
            }
            PathEvent::Close { addr_id } => {
                self.teardown_subflow(addr_id as usize);
            }
        }
    }

    fn on_syn(&mut self, sub: usize, seg: &Segment) {
        let capable = seg
            .options
            .iter()
            .any(|o| matches!(o, MptcpOption::MpCapable { .. }));
        let join = seg.options.iter().find_map(|o| match o {
            MptcpOption::MpJoin { token, backup } => Some((*token, *backup)),
            _ => None,
        });
        match self.role {
            Role::Server => {
                if sub == 0 && !seg.flags.ack {
                    // First-subflow SYN: capability negotiation.
                    self.mp_enabled = Some(capable);
                    self.subs[0].established = true;
                    self.subs[0].ack_pending = true; // triggers SYN-ACK in poll
                    self.subs[0].syn_sent = false; // we owe a SYN-ACK
                } else if !seg.flags.ack {
                    // Additional-subflow SYN: must join with the right token
                    // and multipath must be enabled.
                    if self.mp_enabled == Some(true) && join.map(|(t, _)| t) == Some(self.key) {
                        let was_established = self.subs[sub].established;
                        let live = self.subs.iter().filter(|s| s.established).count();
                        if !was_established && live >= self.path.subflow_limit() {
                            return; // at the per-connection subflow limit
                        }
                        let s = &mut self.subs[sub];
                        if !was_established {
                            // (Re)join: the SYN carries the peer's resumed
                            // sequence number as its ISN; jump the receive
                            // cursor forward so segments from a previous
                            // incarnation can never alias new data.
                            if s.rcv_next < seg.subflow_seq {
                                s.rcv_next = seg.subflow_seq;
                            }
                            let cut = s.rcv_next;
                            s.rcv_ranges.retain(|_, e| *e > cut);
                        }
                        s.closed = false;
                        s.backup = join.map(|(_, b)| b).unwrap_or(false);
                        s.established = true;
                        s.ack_pending = true;
                        // A duplicate join SYN means our SYN-ACK was lost:
                        // emit another.
                        s.syn_sent = false;
                        if !was_established {
                            self.subflows_joined += 1;
                        }
                    }
                    // else: silently ignore (subflow never establishes).
                }
            }
            Role::Client => {
                if seg.flags.ack && self.subs[sub].syn_sent && !self.subs[sub].established {
                    // SYN-ACK.
                    if sub == 0 {
                        self.mp_enabled = Some(capable);
                    }
                    if sub == 0 || capable || join.is_some() {
                        let s = &mut self.subs[sub];
                        // Forward-only receive-cursor jump (rejoin; see the
                        // server side above).
                        if s.rcv_next < seg.subflow_seq {
                            s.rcv_next = seg.subflow_seq;
                        }
                        let cut = s.rcv_next;
                        s.rcv_ranges.retain(|_, e| *e > cut);
                        s.established = true;
                        if sub > 0 {
                            self.subflows_joined += 1;
                        }
                    }
                }
            }
        }
    }

    fn on_subflow_ack(&mut self, now: Micros, sub: usize, seg: &Segment) {
        let s = &mut self.subs[sub];
        s.peer_window = seg.window;
        let ack = seg.subflow_ack;
        if ack > s.snd_una {
            // Cumulative advance: RTT sample (Karn) from the newest fully
            // acked segment, drop acked segments, exit/continue recovery.
            let mut sample: Option<f64> = None;
            while let Some(front) = s.inflight.front() {
                let end = front.sub_seq.wrapping_add(front.seq_len());
                if end <= ack {
                    if !front.retransmitted {
                        sample = Some((now - front.sent_at) as f64);
                    }
                    s.inflight.pop_front();
                } else {
                    break;
                }
            }
            let newly = ack.wrapping_sub(s.snd_una);
            s.snd_una = ack;
            s.dup_acks = 0;
            s.rto_backoffs = 0;
            if let Some(us) = sample {
                s.rtt_sample(us, self.cfg.min_rto);
            } else if let Some(srtt) = s.srtt_us {
                // Cumulative progress collapses exponential RTO backoff even
                // when Karn's rule yields no sample (RFC 6298 §5.7): without
                // this, a subflow recovering from a long outage retransmits
                // its stranded window one segment per backed-off RTO (up to
                // 60 s each) and the connection is wedged for minutes.
                s.rto_us = ((srtt + 4.0 * s.rttvar_us) as Micros).max(self.cfg.min_rto);
            }
            let retransmit_head = if s.in_recovery {
                if s.snd_una >= s.recovery_point {
                    s.in_recovery = false;
                    false
                } else {
                    true // NewReno partial ACK
                }
            } else {
                false
            };
            // Window growth (not during recovery).
            if !s.in_recovery {
                let mss = self.cfg.mss as f64;
                let acked_pkts = newly as f64 / mss;
                match &mut self.cc {
                    CcDriver::Pure(cc) => {
                        let s = &mut self.subs[sub];
                        if s.cwnd_bytes < s.ssthresh_bytes {
                            s.cwnd_bytes += newly as f64; // slow start
                        } else {
                            let snaps = snapshots_of(&self.subs, mss);
                            let inc_pkts = cc.increase_per_ack(sub, &snaps);
                            self.subs[sub].cwnd_bytes += inc_pkts * acked_pkts * mss;
                        }
                    }
                    CcDriver::Stateful(cc) => {
                        // The stateful contract is per-ACKed-*packet*, so a
                        // cumulative advance of N·mss bytes is fed through
                        // `on_ack` in up-to-one-packet steps, each with a
                        // fresh snapshot (the hooks fire in slow start too:
                        // base-RTT filters and hybrid slow start watch
                        // every ACK).
                        let floor_bytes = cc.min_window() * mss;
                        let now_s = now as f64 / 1e6;
                        let mut remaining = acked_pkts;
                        while remaining > 0.0 {
                            let step = remaining.min(1.0);
                            let snaps = snapshots_of(&self.subs, mss);
                            let s = &mut self.subs[sub];
                            let in_ss = s.cwnd_bytes < s.ssthresh_bytes;
                            let act = cc.on_ack(sub, &snaps, now_s, in_ss);
                            s.cwnd_bytes += act.grow * step * mss;
                            if act.grow < 0.0 && s.cwnd_bytes < floor_bytes {
                                // Delay-based shrinks must not dig below
                                // the probing floor.
                                s.cwnd_bytes = floor_bytes;
                            }
                            if act.exit_slow_start && in_ss {
                                // Hybrid/Vegas slow-start exit: pin
                                // ssthresh to the current window.
                                s.ssthresh_bytes = s.cwnd_bytes.max(2.0 * mss);
                            }
                            remaining -= step;
                        }
                    }
                }
            }
            let s = &mut self.subs[sub];
            s.rto_deadline =
                if s.inflight.is_empty() { None } else { Some(now + s.rto_us) };
            if retransmit_head {
                self.retransmit_first_unacked(now, sub);
            }
            // In fallback mode the subflow stream *is* the data stream, so
            // the subflow cumulative ACK doubles as the data ACK.
            if self.is_fallback() && sub == 0 {
                self.on_data_ack(ack as u64);
            }
            // A primary making forward progress resets the failure clock
            // (the failover state machine's "recovered" edge is taken in
            // poll_data once the primary is usable again).
            if !self.subs[sub].backup {
                self.primary_down_since = None;
            }
        } else if ack == s.snd_una
            && seg.payload.is_empty()
            && !s.inflight.is_empty()
        {
            s.dup_acks += 1;
            if s.dup_acks == 3 && !s.in_recovery {
                // Fast retransmit + coupled multiplicative decrease (the
                // loss-epoch hook for stateful controllers).
                let snaps = self.snapshots();
                let mss = self.cfg.mss as f64;
                let new_pkts = self.cc.clamped_window_after_loss(sub, &snaps, now as f64 / 1e6);
                let s = &mut self.subs[sub];
                s.in_recovery = true;
                s.recovery_point = s.snd_next;
                s.cwnd_bytes = new_pkts * mss;
                s.ssthresh_bytes = s.cwnd_bytes.max(2.0 * mss);
                self.retransmit_first_unacked(now, sub);
            }
        }
    }

    fn on_data_ack(&mut self, dack: u64) {
        if dack > self.data_acked {
            self.data_acked = dack;
        }
        // Release send-buffer bytes the peer has at the data level (the
        // FIN's data sequence number lies past the buffer, hence the cap).
        let acked = self.data_acked.saturating_sub(self.snd_data_base);
        let k = acked.min(self.send_buf.len() as u64);
        self.send_buf.drain(..k as usize);
        self.snd_data_base += k;
        // Drop reinjections that are no longer needed (a FIN occupies one
        // data sequence number).
        self.reinject_queue
            .retain(|(seq, data, _)| seq + (data.len() as u64).max(1) > self.data_acked);
    }

    fn on_data(&mut self, sub: usize, seg: &Segment) {
        let len = seg.payload.len();
        // Buffer admission control: a receiver out of window drops the
        // payload as if the network had lost it — but it still owes the
        // peer an ACK carrying the current window (RFC 9293 §3.10.7.4:
        // an unacceptable segment elicits an ACK). Without this, a
        // zero-window probe could never learn that the window reopened.
        if !self.admissible(sub, seg, len) {
            self.subs[sub].ack_pending = true;
            return;
        }
        // Subflow-level bookkeeping → drives the peer's loss detection.
        // A FIN consumes one subflow sequence number, like real TCP.
        let sub_len = len as u32 + u32::from(seg.flags.fin);
        let advanced = self.subs[sub].receive_range(seg.subflow_seq, sub_len);
        let _ = advanced;
        self.subs[sub].ack_pending = true;

        // Data-level reassembly.
        if let Some((Some(dseq), _)) = seg.dss() {
            if len > 0 {
                self.insert_data(sub, dseq, &seg.payload);
            }
            if seg.flags.fin {
                let fin_seq = dseq + len as u64;
                self.peer_fin = Some(self.peer_fin.map_or(fin_seq, |f| f.max(fin_seq)));
            }
        } else if self.is_fallback() && sub == 0 {
            // Fallback: the subflow stream *is* the data stream.
            if len > 0 {
                self.insert_data(sub, seg.subflow_seq as u64, &seg.payload);
            }
            if seg.flags.fin {
                self.peer_fin = Some(seg.subflow_seq as u64 + len as u64);
            }
        }
        // The FIN occupies one data sequence number: consume it once all
        // preceding data has been delivered, so the data ACK covers it.
        if self.peer_fin == Some(self.rcv_data_next) {
            self.rcv_data_next += 1;
        }
    }

    fn insert_data(&mut self, sub: usize, dseq: u64, payload: &[u8]) {
        let end = dseq + payload.len() as u64;
        if end <= self.rcv_data_next {
            return; // stale duplicate (e.g. a reinjected copy)
        }
        // Clip any prefix we already have.
        let skip = self.rcv_data_next.saturating_sub(dseq) as usize;
        let dseq = dseq + skip as u64;
        let payload = &payload[skip.min(payload.len())..];
        if payload.is_empty() {
            return;
        }
        if dseq == self.rcv_data_next {
            self.recv_app.extend(payload);
            self.recv_attribution.push_back((sub, payload.len()));
            self.subs[sub].held_bytes += payload.len();
            self.rcv_data_next += payload.len() as u64;
            self.total_received += payload.len() as u64;
            // Drain contiguous out-of-order data. Its buffer charge was
            // taken at insert time; only the attribution FIFO entry and the
            // cumulative counters move here.
            while let Some((&s, _)) = self.recv_ooo.iter().next() {
                if s > self.rcv_data_next {
                    break;
                }
                let (s, (src, v)) = self.recv_ooo.pop_first().expect("peeked");
                let skip = (self.rcv_data_next - s) as usize;
                if skip < v.len() {
                    let rest = &v[skip..];
                    self.recv_app.extend(rest);
                    self.recv_attribution.push_back((src, rest.len()));
                    self.rcv_data_next += rest.len() as u64;
                    self.total_received += rest.len() as u64;
                    // The charge for the skipped (duplicate) prefix is
                    // released now.
                    self.subs[src].held_bytes -= skip;
                } else {
                    self.subs[src].held_bytes -= v.len();
                }
            }
        } else if let std::collections::btree_map::Entry::Vacant(e) = self.recv_ooo.entry(dseq) {
            // Out-of-order bytes occupy the buffer from arrival; charge the
            // arrival subflow now and release when drained or read.
            self.subs[sub].held_bytes += payload.len();
            e.insert((sub, payload.to_vec()));
        }
    }

    // ------------------------------------------------------------------
    // Transmission
    // ------------------------------------------------------------------

    /// Collect segments to transmit at time `now`. Also fires due
    /// retransmission timers.
    pub fn poll(&mut self, now: Micros) -> Vec<(usize, Segment)> {
        let mut out: Vec<(usize, Segment)> = Vec::new();
        self.poll_handshake(now, &mut out);
        self.poll_path(now, &mut out);
        self.poll_timers(now, &mut out);
        self.poll_data(now, &mut out);
        self.poll_persist(now, &mut out);
        self.poll_acks(&mut out);
        out
    }

    /// Retransmission interval for SYN / SYN-ACK segments.
    const SYN_RTO: Micros = 500_000;

    /// The earliest timer deadline, if any (for event-driven harnesses):
    /// a harness that polls at every segment arrival and at this time
    /// never misses a retransmission. Covers the subflow RTOs, the persist
    /// timer, the client's SYN / join-SYN retransmits, and the path
    /// manager's advertisement retransmits and owed echoes (those only
    /// once a subflow can carry them, so the deadline is never one that
    /// `poll` cannot act on).
    pub fn next_deadline(&self) -> Option<Micros> {
        let syn = self
            .subs
            .iter()
            .filter(|s| self.role == Role::Client && s.syn_sent && !s.established)
            .map(|s| s.syn_sent_at + Self::SYN_RTO);
        let can_signal = self.mp_enabled == Some(true)
            && self.subs.iter().any(|s| s.established && !s.closed);
        let path = self.path.next_deadline().filter(|_| can_signal);
        self.subs
            .iter()
            .filter_map(|s| s.rto_deadline)
            .chain(self.persist_deadline)
            .chain(syn)
            .chain(path)
            .min()
    }

    /// Zero-window persist timer. After `poll_data`, if the connection
    /// still has work queued but *nothing in flight on any subflow*, no ACK
    /// will ever arrive: the peer's window-reopening update is a pure ACK
    /// and pure ACKs are not retransmitted, so its loss would wedge the
    /// connection forever. Arm a timer; when it fires, force one byte of
    /// data out past the flow-control limit. The probe either gets accepted
    /// (the window really had reopened) or is dropped by the receiver's
    /// admission control — which still elicits an ACK carrying the current
    /// window. Either way the probe sits in `inflight`, so the ordinary RTO
    /// machinery provides the exponential persist backoff for free.
    fn poll_persist(&mut self, now: Micros, out: &mut Vec<(usize, Segment)>) {
        if self.mp_enabled.is_none() {
            return; // handshake unresolved; SYN timers own liveness
        }
        let unsent = (self.snd_data_base + self.send_buf.len() as u64)
            .saturating_sub(self.snd_data_next);
        let work = unsent > 0 || !self.reinject_queue.is_empty();
        let idle = self.subs.iter().all(|s| s.inflight.is_empty());
        // Probe on a healthy primary when one exists; fall back to any
        // established subflow (a lone backup is better than deadlock).
        let Some(sub) = self
            .subs
            .iter()
            .position(|s| s.established && !s.closed && !s.backup)
            .or_else(|| self.subs.iter().position(|s| s.established && !s.closed))
        else {
            return;
        };
        if !(work && idle) {
            self.persist_deadline = None;
            return;
        }
        match self.persist_deadline {
            None => self.persist_deadline = Some(now + self.subs[sub].rto_us),
            Some(d) if d <= now => {
                self.persist_deadline = None;
                self.persist_probes += 1;
                if unsent > 0 {
                    let off = (self.snd_data_next - self.snd_data_base) as usize;
                    let byte = self.send_buf[off];
                    let dseq = self.snd_data_next;
                    self.snd_data_next += 1;
                    self.transmit_mapped(now, sub, dseq, vec![byte], false, out);
                } else if let Some((dseq, data, is_fin)) = self.reinject_queue.pop_front() {
                    // A stranded reinjection with nothing in flight is the
                    // same trap: force it out on the probe subflow.
                    self.transmit_mapped(now, sub, dseq, data, is_fin, out);
                }
            }
            Some(_) => {}
        }
    }

    fn poll_handshake(&mut self, now: Micros, out: &mut Vec<(usize, Segment)>) {
        // A SYN is (re)sent when never sent, or when unanswered for
        // SYN_RTO (a lost handshake segment must not wedge the subflow).
        let needs_syn = |s: &Subflow| {
            !s.established && (!s.syn_sent || now >= s.syn_sent_at + Self::SYN_RTO)
        };
        match self.role {
            Role::Client => {
                // First subflow SYN.
                if needs_syn(&self.subs[0]) {
                    self.subs[0].syn_sent = true;
                    self.subs[0].syn_sent_at = now;
                    out.push((
                        0,
                        Segment {
                            flags: SegFlags { syn: true, ..Default::default() },
                            options: vec![MptcpOption::MpCapable { key: self.key }],
                            window: self.advertised_window(0),
                            ..Segment::new()
                        },
                    ));
                }
                // Joins once multipath is confirmed. A join SYN carries the
                // subflow's resumed sequence number as its ISN so a rejoin
                // after teardown cannot alias the old incarnation.
                if self.mp_enabled == Some(true) {
                    for i in 1..self.subs.len() {
                        if self.subs[i].want_join
                            && !self.subs[i].closed
                            && needs_syn(&self.subs[i])
                        {
                            self.subs[i].syn_sent = true;
                            self.subs[i].syn_sent_at = now;
                            out.push((
                                i,
                                Segment {
                                    flags: SegFlags { syn: true, ..Default::default() },
                                    subflow_seq: self.subs[i].snd_next,
                                    options: vec![MptcpOption::MpJoin {
                                        token: self.key,
                                        backup: self.subs[i].backup,
                                    }],
                                    window: self.advertised_window(i),
                                    ..Segment::new()
                                },
                            ));
                        }
                    }
                }
            }
            Role::Server => {
                // SYN-ACK replies are produced in poll_acks (ack_pending on
                // a just-established subflow that hasn't SYN-ACKed yet).
                for i in 0..self.subs.len() {
                    if self.subs[i].established && !self.subs[i].syn_sent {
                        self.subs[i].syn_sent = true;
                        self.subs[i].syn_sent_at = now;
                        let mut options = Vec::new();
                        if self.mp_enabled == Some(true) {
                            options.push(if i == 0 {
                                MptcpOption::MpCapable { key: self.key }
                            } else {
                                MptcpOption::MpJoin {
                                    token: self.key,
                                    backup: self.subs[i].backup,
                                }
                            });
                        }
                        out.push((
                            i,
                            Segment {
                                flags: SegFlags { syn: true, ack: true, fin: false },
                                subflow_seq: self.subs[i].snd_next,
                                subflow_ack: self.subs[i].rcv_next,
                                options,
                                window: self.advertised_window(i),
                                ..Segment::new()
                            },
                        ));
                        self.subs[i].ack_pending = false;
                    }
                }
            }
        }
    }

    /// Emit due path-manager signaling: owed `ADD_ADDR`/`REMOVE_ADDR`
    /// echoes plus unacknowledged advertisements (first transmission or
    /// [`crate::path::ADVERT_RTO`] retransmit), carried on a pure ACK on
    /// the first open subflow.
    fn poll_path(&mut self, now: Micros, out: &mut Vec<(usize, Segment)>) {
        if self.mp_enabled != Some(true) || !self.path.has_pending() {
            return;
        }
        let Some(sub) = self.subs.iter().position(|s| s.established && !s.closed) else {
            return; // no carrier yet; advertisements stay queued
        };
        let mut options = self.path.due_options(now);
        if options.is_empty() {
            return;
        }
        options.push(MptcpOption::Dss { data_seq: None, data_ack: Some(self.rcv_data_next) });
        let window = self.advertised_window(sub);
        let s = &mut self.subs[sub];
        s.ack_pending = false; // this segment is itself an ACK
        out.push((
            sub,
            Segment {
                subflow_seq: s.snd_next,
                subflow_ack: s.rcv_next,
                flags: SegFlags { ack: true, ..Default::default() },
                window,
                options,
                payload: Vec::new(),
            },
        ));
    }

    fn poll_timers(&mut self, now: Micros, out: &mut Vec<(usize, Segment)>) {
        for sub in 0..self.subs.len() {
            let due = self.subs[sub]
                .rto_deadline
                .is_some_and(|d| d <= now);
            if !due {
                continue;
            }
            let s = &mut self.subs[sub];
            if s.inflight.is_empty() {
                s.rto_deadline = None;
                continue;
            }
            s.timeouts += 1;
            s.rto_backoffs += 1;
            s.rto_us = (s.rto_us * 2).min(60_000_000);
            s.rto_deadline = Some(now + s.rto_us);
            // Failure clock for the failover state machine: stamped at the
            // first unanswered primary RTO, cleared by primary progress.
            let is_primary = !s.backup;
            if is_primary && !self.backup_active && self.primary_down_since.is_none() {
                self.primary_down_since = Some(now);
            }
            // Collapse to one MSS, slow-start back (standard RTO response).
            // The threshold level comes from the controller: halving for
            // the pure rules (as before), the per-controller loss rule for
            // stateful ones — which is also their loss-epoch hook (CUBIC's
            // w_max, OLIA's counters must see RTO losses too).
            let mss = self.cfg.mss as f64;
            let level_pkts = match &mut self.cc {
                CcDriver::Pure(_) => self.subs[sub].cwnd_bytes / mss / 2.0,
                CcDriver::Stateful(cc) => {
                    let snaps = snapshots_of(&self.subs, mss);
                    cc.clamped_window_after_loss(sub, &snaps, now as f64 / 1e6)
                }
            };
            let s = &mut self.subs[sub];
            s.ssthresh_bytes = (level_pkts * mss).max(2.0 * mss);
            s.cwnd_bytes = mss;
            s.in_recovery = false;
            s.dup_acks = 0;
            for seg in &mut s.inflight {
                seg.retransmitted = true; // Karn
            }
            // Queue everything this subflow still holds for reinjection on
            // another subflow — a dead path must not stall the stream (§6).
            // Each data range is reinjected at most once; the receiver's
            // data-level reassembly discards whichever copy arrives second.
            // Only meaningful with MPTCP in use: in fallback mode there is
            // no DSS mapping, so a reinjected copy (with a fresh subflow
            // sequence number) would corrupt the stream.
            if self.cfg.reinject && self.mp_enabled == Some(true) && self.subs.len() > 1 {
                let pending: Vec<(u64, Vec<u8>, bool)> = self.subs[sub]
                    .inflight
                    .iter()
                    .filter(|h| {
                        h.data_seq + (h.payload.len() as u64).max(1) > self.data_acked
                            && !self.reinjected.contains(&h.data_seq)
                    })
                    .map(|h| (h.data_seq, h.payload.clone(), h.is_fin))
                    .collect();
                for (dseq, data, is_fin) in pending {
                    self.reinjected.insert(dseq);
                    self.reinject_queue.push_back((dseq, data, is_fin));
                }
            }
            out.extend(self.retransmit_head(now, sub));
        }
    }

    /// Retransmit from ACK-processing context: buffered until the next
    /// `poll`, which keeps segment emission on a single channel.
    fn retransmit_first_unacked(&mut self, now: Micros, sub: usize) {
        let seg = self.retransmit_head(now, sub);
        self.pending_out.extend(seg);
    }

    /// Rebuild the oldest unacknowledged segment of `sub` for
    /// retransmission (`None` when nothing is in flight).
    fn retransmit_head(&mut self, now: Micros, sub: usize) -> Option<(usize, Segment)> {
        let window = self.advertised_window(sub);
        let dack = if self.mp_enabled == Some(true) {
            Some(self.rcv_data_next)
        } else {
            None
        };
        let s = &mut self.subs[sub];
        let seg = s.inflight.front_mut()?;
        seg.sent_at = now;
        seg.retransmitted = true;
        s.retransmits += 1;
        let mut options = Vec::new();
        if self.mp_enabled == Some(true) {
            options.push(MptcpOption::Dss { data_seq: Some(seg.data_seq), data_ack: dack });
        }
        Some((
            sub,
            Segment {
                subflow_seq: seg.sub_seq,
                subflow_ack: s.rcv_next,
                flags: SegFlags { ack: true, fin: seg.is_fin, syn: false },
                window,
                options,
                payload: seg.payload.clone(),
            },
        ))
    }

    fn poll_data(&mut self, now: Micros, out: &mut Vec<(usize, Segment)>) {
        // Flush retransmissions queued from ACK processing first.
        out.append(&mut self.pending_out);
        if self.mp_enabled.is_none() {
            return; // handshake not finished
        }
        // The usable-subflow list lives in a buffer the endpoint keeps, so
        // a poll allocates nothing once it has grown to the subflow count.
        let mut usable = std::mem::take(&mut self.usable);
        usable.clear();
        if self.is_fallback() {
            usable.push(0);
        } else {
            // A subflow in repeated RTO backoff is "potentially failed":
            // it keeps probing via its own retransmissions, but gets no
            // new data mappings and no reinjections until it recovers.
            let healthy = |s: &Subflow| {
                s.established
                    && !s.closed
                    && s.rto_backoffs < mptcp_cc::POTENTIALLY_FAILED_RTO_BACKOFFS
            };
            usable.extend((0..self.subs.len()).filter(|&i| {
                !self.subs[i].backup && healthy(&self.subs[i])
            }));
            if !usable.is_empty() {
                // Recovered: a primary is usable, warm backups stand down.
                self.backup_active = false;
            } else {
                // Failover: every non-backup subflow is potentially failed
                // or closed, so data moves onto the warm backups.
                usable.extend((0..self.subs.len()).filter(|&i| {
                    self.subs[i].backup && healthy(&self.subs[i])
                }));
                if !usable.is_empty() && !self.backup_active {
                    self.backup_active = true;
                    self.backup_activations += 1;
                    self.failover_latency_us =
                        Some(now - self.primary_down_since.unwrap_or(now));
                }
            }
        }
        if !usable.is_empty() {
            self.send_on(now, &usable, out);
        }
        self.usable = usable;
    }

    /// Map reinjections, new data and the FIN onto the `usable` subflows.
    fn send_on(&mut self, now: Micros, usable: &[usize], out: &mut Vec<(usize, Segment)>) {
        // Reinjections take priority: send each on the least-loaded usable
        // subflow with window space.
        while let Some((dseq, data, is_fin)) = self.reinject_queue.pop_front() {
            let Some(&sub) = usable
                .iter()
                .find(|&&i| {
                    (self.subs[i].bytes_in_flight() as f64) + (data.len() as f64)
                        <= self.subs[i].cwnd_bytes
                })
            else {
                self.reinject_queue.push_front((dseq, data, is_fin));
                break;
            };
            self.transmit_mapped(now, sub, dseq, data, is_fin, out);
        }
        // New data, striped round-robin over subflows with window space.
        loop {
            let mut progressed = false;
            for &sub in usable {
                let mss = self.cfg.mss;
                let s = &self.subs[sub];
                let cwnd_space =
                    s.cwnd_bytes - s.bytes_in_flight() as f64 >= 1.0;
                // Peer flow control: in Shared mode the window is measured
                // from the peer's data-level cumulative ACK; in PerSubflow
                // mode from the subflow ACK.
                let fc_ok = match self.cfg.recv_mode {
                    RecvBufferMode::Shared => {
                        self.snd_data_next < self.data_acked + s.peer_window as u64
                    }
                    RecvBufferMode::PerSubflow => {
                        s.bytes_in_flight() < s.peer_window
                    }
                };
                let unsent = (self.snd_data_base + self.send_buf.len() as u64)
                    .saturating_sub(self.snd_data_next);
                if !cwnd_space || !fc_ok || unsent == 0 {
                    continue;
                }
                let fc_room = match self.cfg.recv_mode {
                    RecvBufferMode::Shared => {
                        (self.data_acked + s.peer_window as u64)
                            .saturating_sub(self.snd_data_next)
                    }
                    RecvBufferMode::PerSubflow => {
                        (s.peer_window - s.bytes_in_flight()) as u64
                    }
                };
                let len = (mss as u64).min(unsent).min(fc_room) as usize;
                if len == 0 {
                    continue;
                }
                let off = (self.snd_data_next - self.snd_data_base) as usize;
                let (head, tail) = ring_range(&self.send_buf, off, len);
                let mut data = Vec::with_capacity(len);
                data.extend_from_slice(head);
                data.extend_from_slice(tail);
                let dseq = self.snd_data_next;
                self.snd_data_next += len as u64;
                self.transmit_mapped(now, sub, dseq, data, false, out);
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
        // FIN once everything is mapped. The FIN occupies one subflow
        // sequence number and is retransmitted by the normal RTO machinery
        // like any data segment, so its loss cannot wedge the teardown.
        let all_mapped =
            self.snd_data_next == self.snd_data_base + self.send_buf.len() as u64;
        if self.fin_queued && all_mapped && self.fin_seq.is_none() {
            let fin_seq = *self.fin_seq.get_or_insert(self.snd_data_next);
            let sub = usable[0];
            let window = self.advertised_window(sub);
            let mut options = Vec::new();
            if self.mp_enabled == Some(true) {
                options.push(MptcpOption::Dss {
                    data_seq: Some(fin_seq),
                    data_ack: Some(self.rcv_data_next),
                });
            }
            let s = &mut self.subs[sub];
            let sub_seq = s.snd_next;
            s.snd_next = s.snd_next.wrapping_add(1);
            s.inflight.push_back(SentSeg {
                sub_seq,
                data_seq: fin_seq,
                payload: Vec::new(),
                sent_at: now,
                retransmitted: false,
                is_fin: true,
            });
            if s.rto_deadline.is_none() {
                s.rto_deadline = Some(now + s.rto_us);
            }
            out.push((
                sub,
                Segment {
                    subflow_seq: sub_seq,
                    subflow_ack: s.rcv_next,
                    flags: SegFlags { ack: true, fin: true, syn: false },
                    window,
                    options,
                    payload: Vec::new(),
                },
            ));
        }
    }

    fn transmit_mapped(
        &mut self,
        now: Micros,
        sub: usize,
        dseq: u64,
        data: Vec<u8>,
        is_fin: bool,
        out: &mut Vec<(usize, Segment)>,
    ) {
        let window = self.advertised_window(sub);
        let dack = self.rcv_data_next;
        let mp = self.mp_enabled == Some(true);
        let s = &mut self.subs[sub];
        let sub_seq = s.snd_next;
        let seq_len = if is_fin { 1 } else { data.len() as u32 };
        s.snd_next = s.snd_next.wrapping_add(seq_len);
        s.data_bytes_sent += data.len() as u64;
        s.inflight.push_back(SentSeg {
            sub_seq,
            data_seq: dseq,
            payload: data.clone(),
            sent_at: now,
            retransmitted: false,
            is_fin,
        });
        if s.rto_deadline.is_none() {
            s.rto_deadline = Some(now + s.rto_us);
        }
        let mut options = Vec::new();
        if mp {
            options.push(MptcpOption::Dss { data_seq: Some(dseq), data_ack: Some(dack) });
        }
        out.push((
            sub,
            Segment {
                subflow_seq: sub_seq,
                subflow_ack: s.rcv_next,
                flags: SegFlags { ack: true, fin: is_fin, syn: false },
                window,
                options,
                payload: data,
            },
        ));
    }

    fn poll_acks(&mut self, out: &mut Vec<(usize, Segment)>) {
        for sub in 0..self.subs.len() {
            if !self.subs[sub].established || !self.subs[sub].ack_pending {
                continue;
            }
            let window = self.advertised_window(sub);
            let mut options = Vec::new();
            if self.mp_enabled == Some(true) {
                options.push(MptcpOption::Dss {
                    data_seq: None,
                    data_ack: Some(self.rcv_data_next),
                });
            }
            let s = &mut self.subs[sub];
            s.ack_pending = false;
            out.push((
                sub,
                Segment {
                    subflow_seq: s.snd_next,
                    subflow_ack: s.rcv_next,
                    flags: SegFlags { ack: true, ..Default::default() },
                    window,
                    options,
                    payload: Vec::new(),
                },
            ));
        }
    }

    fn snapshots(&self) -> Vec<SubflowSnapshot> {
        snapshots_of(&self.subs, self.cfg.mss as f64)
    }
}

/// Congestion-control snapshots of every subflow. A free function (not a
/// method) so ACK processing can call it while the controller field is
/// mutably borrowed. Closed subflows are marked inactive: they must not
/// count toward live-path weights (EWTCP's equal split, OLIA/BALIA's path
/// sums).
fn snapshots_of(subs: &[Subflow], mss: f64) -> Vec<SubflowSnapshot> {
    subs.iter()
        .map(|s| {
            SubflowSnapshot::new(
                (s.cwnd_bytes / mss).max(1e-6),
                s.srtt_us.unwrap_or(100_000.0) / 1e6,
            )
            .active(!s.closed)
        })
        .collect()
}

/// Receive window left in a buffer of `cap` bytes holding `held`.
fn window_left(cap: usize, held: usize) -> u32 {
    cap.saturating_sub(held) as u32
}

/// Bytes `off..off + len` of a ring buffer as at most two contiguous
/// slices (the second is empty unless the range straddles the wrap).
fn ring_range(buf: &VecDeque<u8>, off: usize, len: usize) -> (&[u8], &[u8]) {
    let (a, b) = buf.as_slices();
    if off >= a.len() {
        let off = off - a.len();
        (&b[off..off + len], &[])
    } else if off + len <= a.len() {
        (&a[off..off + len], &[])
    } else {
        (&a[off..], &b[..off + len - a.len()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (Endpoint, Endpoint) {
        let cfg = EndpointConfig::default();
        (Endpoint::client(cfg, 2, 7), Endpoint::server(cfg, 2, 7))
    }

    /// Shuttle every pending segment between the two endpoints once.
    fn exchange(now: Micros, a: &mut Endpoint, b: &mut Endpoint) {
        for (sub, seg) in a.poll(now) {
            b.on_segment(now, sub, seg);
        }
        for (sub, seg) in b.poll(now) {
            a.on_segment(now, sub, seg);
        }
    }

    #[test]
    fn handshake_establishes_all_subflows() {
        let (mut c, mut s) = pair();
        for t in 1..6 {
            exchange(t * 1000, &mut c, &mut s);
        }
        assert!(c.subflow_established(0) && c.subflow_established(1));
        assert!(s.subflow_established(0) && s.subflow_established(1));
        assert!(!c.is_fallback());
    }

    #[test]
    fn stripped_capability_triggers_fallback() {
        let (mut c, mut s) = pair();
        // Deliver the client's SYN with its options removed.
        let mut syns = c.poll(1000);
        assert_eq!(syns.len(), 1, "only the first subflow SYNs initially");
        let (sub, mut syn) = syns.remove(0);
        syn.options.clear();
        s.on_segment(1000, sub, syn);
        for t in 2..6 {
            exchange(t * 1000, &mut c, &mut s);
        }
        assert!(c.is_fallback() && s.is_fallback());
        assert!(!c.subflow_established(1), "no join after fallback");
    }

    #[test]
    fn join_with_wrong_token_is_ignored() {
        let cfg = EndpointConfig::default();
        let mut c = Endpoint::client(cfg, 2, 7);
        let mut s = Endpoint::server(cfg, 2, 1234); // different key
        for t in 1..8 {
            exchange(t * 1000, &mut c, &mut s);
        }
        // Subflow 0 negotiates MP (keys aren't checked on MP_CAPABLE in
        // this model) but the join token mismatch kills subflow 1.
        assert!(!s.subflow_established(1), "server must reject a bad join token");
    }

    #[test]
    fn write_respects_send_buffer_capacity() {
        let (mut c, _s) = pair();
        let big = vec![0u8; 1_000_000];
        let n = c.write(&big);
        assert_eq!(n, EndpointConfig::default().send_buf);
        assert_eq!(c.write(&big), 0, "buffer full");
    }

    #[test]
    fn data_flows_after_handshake_and_data_acks_free_the_buffer() {
        let (mut c, mut s) = pair();
        for t in 1..4 {
            exchange(t * 1000, &mut c, &mut s);
        }
        let data = vec![9u8; 5_000];
        assert_eq!(c.write(&data), 5_000);
        for t in 4..40 {
            exchange(t * 1000, &mut c, &mut s);
        }
        let mut buf = [0u8; 8_192];
        let n = s.read(&mut buf);
        assert_eq!(n, 5_000);
        assert!(buf[..n].iter().all(|&b| b == 9));
        assert_eq!(c.peer_data_acked(), 5_000, "data ACK must cover the stream");
        assert!(c.write(&vec![1u8; 1_000]) > 0, "buffer space freed");
    }

    /// Single subflow, a 2-MSS shared receive buffer, and a 10 kB stream:
    /// the sender must fill the window, stall, and resume cleanly when the
    /// application drains the buffer.
    fn small_window_pair() -> (Endpoint, Endpoint) {
        let cfg = EndpointConfig {
            mss: 1000,
            send_buf: 10_000,
            recv_buf: 2_000,
            initial_cwnd: 2.0,
            ..Default::default()
        };
        (Endpoint::client(cfg, 1, 7), Endpoint::server(cfg, 1, 7))
    }

    /// Drive a `small_window_pair` to the zero-window stall: 2 000 bytes
    /// buffered at the receiver, nothing in flight, 8 000 still queued.
    fn fill_to_zero_window(c: &mut Endpoint, s: &mut Endpoint) {
        for t in 1..4 {
            exchange(t * 1000, c, s);
        }
        assert_eq!(c.write(&vec![8u8; 10_000]), 10_000);
        for t in 4..50 {
            exchange(t * 1000, c, s);
        }
        assert_eq!(s.stats().recv_buffered, 2_000, "receive buffer must be full");
        assert_eq!(c.peer_data_acked(), 2_000);
        assert_eq!(c.stats().subflows[0].bytes_in_flight, 0, "all copies acked");
        assert_eq!(c.stats().send_buffered, 8_000);
    }

    #[test]
    fn zero_window_fill_drain_resume() {
        let (mut c, mut s) = small_window_pair();
        fill_to_zero_window(&mut c, &mut s);
        // Drain; the reader's window update lets the sender resume at once.
        let mut buf = [0u8; 4096];
        let mut total = s.read(&mut buf);
        assert_eq!(total, 2_000);
        for t in 50..1500 {
            exchange(t * 1000, &mut c, &mut s);
            total += s.read(&mut buf);
        }
        assert_eq!(total, 10_000, "stream must complete after the drain");
        assert_eq!(
            c.stats().persist_probes,
            0,
            "window update arrived promptly; no probe should have fired"
        );
    }

    #[test]
    fn lost_window_update_does_not_deadlock() {
        let (mut c, mut s) = small_window_pair();
        fill_to_zero_window(&mut c, &mut s);
        let mut buf = [0u8; 4096];
        let mut total = s.read(&mut buf);
        assert_eq!(total, 2_000);
        // The window-update ACK is a pure ACK: lose it. Pre-persist-timer,
        // this wedged the connection forever (sender flow-control-blocked
        // with an empty inflight has no timer left to fire).
        let lost = s.poll(50 * 1000);
        assert!(
            lost.iter().any(|(_, seg)| seg.flags.ack && seg.payload.is_empty()),
            "the drain must have produced a window update to lose: {lost:?}"
        );
        for t in 51..3000 {
            exchange(t * 1000, &mut c, &mut s);
            total += s.read(&mut buf);
        }
        assert_eq!(total, 10_000, "persist probe must rescue the transfer");
        assert!(
            c.stats().persist_probes >= 1,
            "recovery must have come from the zero-window probe"
        );
    }

    #[test]
    fn striping_uses_both_subflows() {
        let (mut c, mut s) = pair();
        for t in 1..4 {
            exchange(t * 1000, &mut c, &mut s);
        }
        c.write(&vec![3u8; 40_000]);
        let mut used = [false, false];
        for t in 4..200 {
            for (sub, seg) in c.poll(t * 1000) {
                if !seg.payload.is_empty() {
                    used[sub] = true;
                }
                s.on_segment(t * 1000, sub, seg);
            }
            for (sub, seg) in s.poll(t * 1000) {
                c.on_segment(t * 1000, sub, seg);
            }
            let mut buf = [0u8; 4096];
            while s.read(&mut buf) > 0 {}
        }
        assert!(used[0] && used[1], "data must be striped over both subflows: {used:?}");
    }

    #[test]
    fn lost_segment_is_fast_retransmitted() {
        let (mut c, mut s) = pair();
        for t in 1..4 {
            exchange(t * 1000, &mut c, &mut s);
        }
        c.write(&vec![5u8; 30_000]);
        let mut dropped_one = false;
        for t in 4..3000 {
            for (sub, seg) in c.poll(t * 1000) {
                // Drop the first data segment on subflow 0 only.
                if !dropped_one && sub == 0 && !seg.payload.is_empty() {
                    dropped_one = true;
                    continue;
                }
                s.on_segment(t * 1000, sub, seg);
            }
            for (sub, seg) in s.poll(t * 1000) {
                c.on_segment(t * 1000, sub, seg);
            }
            let mut buf = [0u8; 4096];
            while s.read(&mut buf) > 0 {}
        }
        let (retx, _) = c.subflow_retransmits(0);
        assert!(dropped_one);
        assert!(retx >= 1, "the hole must be retransmitted");
        assert_eq!(s.total_received, 30_000, "stream completes despite the drop");
    }

    #[test]
    fn fin_is_retransmitted_after_rto_until_acked() {
        let (mut c, mut s) = pair();
        for t in 1..4 {
            exchange(t * 1000, &mut c, &mut s);
        }
        c.close();
        // First FIN is lost (we just don't deliver it).
        let out = c.poll(10_000);
        assert!(out.iter().any(|(_, seg)| seg.flags.fin), "FIN emitted");
        assert!(!c.send_complete(), "FIN unacked");
        // After the retransmission timeout the FIN is re-sent and this
        // time delivered (it occupies a subflow sequence number, so the
        // ordinary RTO machinery owns it).
        let mut seen_fin_again = false;
        for t in 0..10 {
            let now = 1_200_000 + t * 100_000;
            for (sub, seg) in c.poll(now) {
                seen_fin_again |= seg.flags.fin;
                s.on_segment(now, sub, seg);
            }
            for (sub, seg) in s.poll(now) {
                c.on_segment(now, sub, seg);
            }
        }
        assert!(seen_fin_again, "FIN must be retransmitted");
        assert!(c.send_complete(), "FIN data-acked");
        assert!(s.at_eof());
    }

    #[test]
    fn stale_data_duplicates_are_discarded() {
        let (mut c, mut s) = pair();
        for t in 1..4 {
            exchange(t * 1000, &mut c, &mut s);
        }
        c.write(&vec![8u8; 2_000]);
        // Capture and deliver the data twice.
        let mut captured = Vec::new();
        for t in 4..20 {
            for (sub, seg) in c.poll(t * 1000) {
                if !seg.payload.is_empty() {
                    captured.push((sub, seg.clone()));
                }
                s.on_segment(t * 1000, sub, seg);
            }
            for (sub, seg) in s.poll(t * 1000) {
                c.on_segment(t * 1000, sub, seg);
            }
        }
        let before = s.total_received;
        for (sub, seg) in captured {
            s.on_segment(21_000, sub, seg);
        }
        assert_eq!(s.total_received, before, "duplicates must not re-deliver");
    }

    #[test]
    fn stats_reflect_connection_state() {
        let (mut c, mut s) = pair();
        for t in 1..4 {
            exchange(t * 1000, &mut c, &mut s);
        }
        c.write(&vec![1u8; 10_000]);
        for t in 4..60 {
            exchange(t * 1000, &mut c, &mut s);
        }
        let mut buf = [0u8; 16_384];
        let n = s.read(&mut buf);
        let cs = c.stats();
        let ss = s.stats();
        assert_eq!(cs.mp_enabled, Some(true));
        assert_eq!(cs.data_sent, 10_000);
        assert_eq!(cs.data_acked, 10_000);
        assert_eq!(ss.data_received, 10_000);
        assert_eq!(n, 10_000);
        assert_eq!(ss.recv_buffered, 0, "read drained the buffer");
        assert_eq!(cs.subflows.len(), 2);
        assert!(cs.subflows.iter().all(|f| f.established && !f.potentially_failed));
    }

    /// Bytes `0..n` of a deterministic, non-periodic test stream.
    fn stream(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 7 + i / 251) as u8).collect()
    }

    /// Event-driven harness: both endpoints are polled only when a segment
    /// arrives or a `next_deadline()` falls due. The client's first SYN is
    /// lost, so only the SYN retransmit timer can start the connection.
    #[test]
    fn next_deadline_drives_a_transfer_after_a_lost_first_syn() {
        use crate::wire::Wire;
        let cfg = EndpointConfig::default();
        let (mut c, mut s) = (Endpoint::client(cfg, 2, 7), Endpoint::server(cfg, 2, 7));
        let mut wires = [Wire::new(3_000, 1), Wire::new(5_000, 2)];
        let data = stream(100_000);
        let (mut written, mut got) = (0, Vec::new());
        let mut buf = [0u8; 4096];
        let mut syn_dropped = false;
        let mut now: Micros = 0;
        for _ in 0..100_000 {
            for (i, w) in wires.iter_mut().enumerate() {
                for seg in w.recv_a(now) {
                    c.on_segment(now, i, seg);
                }
                for seg in w.recv_b(now) {
                    s.on_segment(now, i, seg);
                }
            }
            if written < data.len() {
                written += c.write(&data[written..]);
                if written == data.len() {
                    c.close();
                }
            }
            for (sub, seg) in c.poll(now) {
                if !syn_dropped && seg.flags.syn {
                    syn_dropped = true;
                    continue;
                }
                wires[sub].send_a(now, seg);
            }
            for (sub, seg) in s.poll(now) {
                wires[sub].send_b(now, seg);
            }
            while let n @ 1.. = s.read(&mut buf) {
                got.extend_from_slice(&buf[..n]);
            }
            if s.at_eof() && c.send_complete() {
                break;
            }
            let next = wires
                .iter()
                .filter_map(Wire::next_delivery)
                .chain(c.next_deadline())
                .chain(s.next_deadline())
                .min();
            let Some(next) = next else { break };
            now = next.max(now);
        }
        assert!(syn_dropped);
        assert!(s.at_eof() && c.send_complete(), "transfer stalled at {now} µs");
        assert_eq!(got, data);
        assert!(now >= Endpoint::SYN_RTO, "the SYN retransmit started the connection");
    }

    /// Small rings whose sizes are not multiples of the MSS, partial
    /// data-ACKs (the reader drains slowly) and partial reads make both
    /// `VecDeque`s wrap many times. Every data segment must carry exactly
    /// the written bytes at its DSS sequence number — including segments
    /// copied from both halves of a wrapped send buffer — and reads of 1,
    /// odd and 4096 bytes must return the exact stream, across the wrap too.
    #[test]
    fn ring_wrap_around_preserves_payloads() {
        let cfg = EndpointConfig {
            mss: 100,
            send_buf: 1_037,
            recv_buf: 733,
            ..Default::default()
        };
        let (mut c, mut s) = (Endpoint::client(cfg, 2, 7), Endpoint::server(cfg, 2, 7));
        let data = stream(60_000);
        let (mut written, mut got) = (0, Vec::new());
        let (mut straddling_segments, mut straddling_reads) = (0, 0);
        let read_sizes = [1usize, 7, 4096, 333, 1, 99];
        let mut buf = [0u8; 4096];
        for t in 1..20_000u64 {
            let now = t * 1000;
            if written < data.len() {
                written += c.write(&data[written..]);
            }
            // The send ring's wrap point in data sequence space, if wrapped
            // (`poll` only reads the send buffer, so it holds for the poll).
            let (head, tail) = c.send_buf.as_slices();
            let wrap = (!tail.is_empty()).then(|| c.snd_data_base + head.len() as u64);
            for (sub, seg) in c.poll(now) {
                if let (Some((Some(dseq), _)), false) = (seg.dss(), seg.payload.is_empty()) {
                    let (lo, hi) = (dseq as usize, dseq as usize + seg.payload.len());
                    assert_eq!(seg.payload, data[lo..hi], "payload at data seq {dseq}");
                    if wrap.is_some_and(|w| dseq < w && w < hi as u64) {
                        straddling_segments += 1;
                    }
                }
                s.on_segment(now, sub, seg);
            }
            for (sub, seg) in s.poll(now) {
                c.on_segment(now, sub, seg);
            }
            let want = read_sizes[t as usize % read_sizes.len()];
            let (head, tail) = s.recv_app.as_slices();
            if !tail.is_empty() && want.min(s.recv_app.len()) > head.len() {
                straddling_reads += 1;
            }
            let n = s.read(&mut buf[..want]);
            got.extend_from_slice(&buf[..n]);
            if got.len() == data.len() {
                break;
            }
        }
        assert_eq!(got, data, "reads must return the exact stream");
        assert!(straddling_segments > 0, "no segment straddled the send-ring wrap");
        assert!(straddling_reads > 0, "no read straddled the receive-ring wrap");
    }

    #[test]
    #[should_panic]
    fn write_after_close_panics() {
        let (mut c, _s) = pair();
        c.close();
        c.write(b"late");
    }

    #[test]
    #[should_panic]
    fn unknown_subflow_index_panics() {
        let (mut c, _s) = pair();
        c.on_segment(0, 5, Segment::new());
    }
}
