//! The discrete-event core: a binary-heap event queue over a virtual clock.
//!
//! Four event classes live on one timeline — crash/recover (class 0),
//! message deliveries (class 1) and timers (class 2) — totally ordered by
//! `(time, class, sequence)`.  The class ordering encodes the causality
//! conventions the round scheduler implies: at an equal timestamp, node
//! up/down state changes first, then deliveries, then timers (a timer armed
//! "R ticks after the hellos" must observe every delivery of its own tick,
//! exactly as [`SyncNetwork::run_protocol`] fires a node's due timers after
//! that node's deliveries of the same time).
//!
//! Everything is deterministic: one seeded RNG drives loss and latency
//! draws, the sequence counter breaks timestamp ties in scheduling order,
//! and the optional [`TraceEvent`] log makes replay equality testable.
//!
//! [`SyncNetwork::run_protocol`]: rspan_distributed::SyncNetwork::run_protocol

use crate::model::{AsimConfig, VTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rspan_distributed::transport::{
    BufferedTransport, Outgoing, PendingOps, ProtocolNode, Transport, WireSize,
};
use rspan_graph::{sorted_insert, sorted_remove, Adjacency, Node};
use rspan_obs::{DropCause, ObsEvent, ObsHandle};
use rspan_telemetry::{Counter, Gauge, Hist, Span, TelemetryHandle};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Event class: crash/recover — processed first at equal timestamps.
const CLASS_NODE: u8 = 0;
/// Event class: message delivery.
const CLASS_DELIVER: u8 = 1;
/// Event class: timer firing — processed last at equal timestamps.
const CLASS_TIMER: u8 = 2;
/// Trace-only class: a transmit-time drop (loss exhaustion, missing link,
/// Byzantine suppression).  Never queued — drops happen at the sender's
/// radio, so the record is stamped at the sending instant.
const CLASS_DROP: u8 = 3;

enum EventKind<M> {
    Crash(Node),
    Recover(Node),
    Deliver {
        from: Node,
        to: Node,
        /// Virtual time the logical message left the sender's radio —
        /// `delivery time − sent` is the observed end-to-end latency
        /// (retransmission backoff included).
        sent: VTime,
        msg: M,
    },
    Timer {
        node: Node,
        token: u32,
    },
}

struct Event<M> {
    time: VTime,
    class: u8,
    seq: u64,
    kind: EventKind<M>,
}

impl<M> Event<M> {
    #[inline]
    fn key(&self) -> (VTime, u8, u64) {
        (self.time, self.class, self.seq)
    }
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    /// Reversed key order: the `BinaryHeap` is a max-heap, so "greatest"
    /// must mean "earliest".
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// One processed event, in the deterministic replay log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time the event was processed at.
    pub time: VTime,
    /// Event class (0 = crash/recover, 1 = delivery, 2 = timer,
    /// 3 = transmit-time drop).
    pub class: u8,
    /// The node the event acted on (receiver for deliveries and drops).
    pub node: Node,
    /// Class-specific detail: sender for deliveries and drops, token for
    /// timers, 0/1 for crash/recover.
    pub aux: u32,
    /// Wire bytes of the frame (deliveries and drops; 0 otherwise).
    pub bytes: u64,
    /// Disposition of the frame: [`DropCause::None`] for consumed
    /// deliveries and non-frame events, otherwise why it went nowhere —
    /// channel loss, receiver down, missing link, Byzantine suppression, or
    /// the receiving protocol's own rejection (dedup / MAC / stale replay).
    pub cause: DropCause,
}

/// Aggregate accounting of one simulation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AsimStats {
    /// Events processed (deliveries, timers, crash/recover).
    pub events: u64,
    /// Transmission attempts, including link-layer retransmissions (a
    /// broadcast to `d` neighbors counts `d`, matching the sync simulator).
    pub transmissions: u64,
    /// Messages delivered to an alive receiver.
    pub delivered: u64,
    /// Messages lost after exhausting their retransmission budget.
    pub dropped_loss: u64,
    /// Messages that arrived while the receiver was crashed.
    pub dropped_down: u64,
    /// Unicasts whose link no longer existed at send time.
    pub dropped_no_link: u64,
    /// Bytes across all transmission attempts ([`WireSize`] estimate).
    pub bytes_sent: u64,
    /// Bytes across delivered messages.
    pub bytes_delivered: u64,
    /// Per-node transmission attempts.
    pub per_node_sent: Vec<u64>,
    /// Per-node delivered messages.
    pub per_node_delivered: Vec<u64>,
    /// Run-length delivery timeline: `(tick, messages delivered at tick)`,
    /// ticks ascending, zero ticks omitted.  The async counterpart of
    /// [`rspan_distributed::RunStats::messages_per_round`].
    pub delivered_at: Vec<(VTime, u64)>,
    /// Transmissions a Byzantine fault hook suppressed before they entered
    /// the link (selective drops by a faulty sender, not channel loss).
    pub byz_suppressed: u64,
    /// Transmissions a Byzantine fault hook rewrote in the sender's radio
    /// (forged, equivocated or replayed frames that then travelled normally).
    pub byz_rewritten: u64,
}

impl AsimStats {
    fn new(n: usize) -> Self {
        AsimStats {
            per_node_sent: vec![0; n],
            per_node_delivered: vec![0; n],
            ..AsimStats::default()
        }
    }

    /// Messages that entered the network (delivered or dropped for any reason).
    pub fn logical_messages(&self) -> u64 {
        self.delivered + self.dropped_loss + self.dropped_down + self.dropped_no_link
    }
}

/// What a [`FaultHook`] decided about one outgoing transmission.
pub enum FaultVerdict<M> {
    /// Transmit the frame unmodified (every honest sender's verdict).
    Pass,
    /// Suppress the frame: it never enters the link (distinct from channel
    /// loss — no retransmission happens, and no loss draw is consumed).
    Drop,
    /// Transmit this frame instead (forgery, equivocation, replay).
    Replace(M),
}

/// Wire-level Byzantine fault injection: inspects every transmission at the
/// sender's radio, *before* the loss and latency draws, and may suppress or
/// rewrite it.  The hook draws its randomness from its own seeded stream so
/// installing one never perturbs the channel draws — a faulty run and its
/// honest baseline stay draw-for-draw comparable under the same sim seed
/// (the RNG-decoupling idiom the churn driver uses for crash draws).
pub trait FaultHook<M> {
    /// The verdict for one `from → to` transmission of `msg`.
    fn intercept(&mut self, from: Node, to: Node, msg: &M, rng: &mut SmallRng) -> FaultVerdict<M>;
}

/// Stream-decoupling offset for the fault hook's RNG (cf. the churn
/// driver's `^ 0xCAFE_F00D` crash stream).
const FAULT_SEED_OFFSET: u64 = 0xB12A_17E5_FA01_75ED;

struct FaultState<M> {
    hook: Box<dyn FaultHook<M>>,
    rng: SmallRng,
}

/// The deterministic discrete-event network simulator.
///
/// Owns one [`ProtocolNode`] per node, the (mutable, churn-able) adjacency,
/// the event queue and the virtual clock.  Use [`AsyncNetwork::start`] +
/// [`AsyncNetwork::run_to_quiescence`] for a one-shot protocol execution, or
/// drive windows with [`AsyncNetwork::run_until`] / [`AsyncNetwork::inject`]
/// to interleave topology churn on the same timeline (see `crate::churn`).
pub struct AsyncNetwork<P: ProtocolNode> {
    nodes: Vec<P>,
    /// Sorted per-node neighbor lists (the live topology).
    neighbors: Vec<Vec<Node>>,
    alive: Vec<bool>,
    heap: BinaryHeap<Event<P::Msg>>,
    /// Queued deliveries + timers (excludes scheduled crash/recover events):
    /// the quiescence signal for protocol activity.
    protocol_pending: usize,
    now: VTime,
    seq: u64,
    rng: SmallRng,
    cfg: AsimConfig,
    stats: AsimStats,
    trace: Vec<TraceEvent>,
    pending: PendingOps<P::Msg>,
    bcast_scratch: Vec<Node>,
    fault: Option<FaultState<P::Msg>>,
    /// Observability sink: per-frame deliver/drop events with wave metadata
    /// flow here when attached (independent of [`AsimConfig::record_trace`]).
    obs: ObsHandle,
    tel: TelemetryHandle,
}

/// The live-telemetry counter charged for a dropped frame (`None` only for
/// [`DropCause::None`], which is not a drop).
fn drop_counter(cause: DropCause) -> Option<Counter> {
    match cause {
        DropCause::None => None,
        DropCause::Loss => Some(Counter::SimDropLoss),
        DropCause::Down => Some(Counter::SimDropDown),
        DropCause::NoLink => Some(Counter::SimDropNoLink),
        DropCause::Suppressed => Some(Counter::SimDropSuppressed),
        DropCause::Dedup => Some(Counter::SimDropDedup),
        DropCause::MacReject => Some(Counter::SimDropMacReject),
        DropCause::Stale => Some(Counter::SimDropStale),
    }
}

impl<P: ProtocolNode> AsyncNetwork<P>
where
    P::Msg: WireSize,
{
    /// Builds a simulator over any adjacency (CSR graph, dynamic overlay,
    /// …), materialising sorted neighbor lists once — the same construction
    /// as [`rspan_distributed::SyncNetwork::new`].
    pub fn from_adjacency<A, F>(graph: &A, cfg: AsimConfig, mut make_node: F) -> Self
    where
        A: Adjacency + ?Sized,
        F: FnMut(Node) -> P,
    {
        cfg.validate();
        let neighbors = rspan_graph::sorted_neighbor_lists(graph);
        let n = neighbors.len();
        AsyncNetwork {
            nodes: (0..n as Node).map(&mut make_node).collect(),
            neighbors,
            alive: vec![true; n],
            heap: BinaryHeap::new(),
            protocol_pending: 0,
            now: 0,
            seq: 0,
            rng: SmallRng::seed_from_u64(cfg.seed),
            stats: AsimStats::new(n),
            trace: Vec::new(),
            cfg,
            pending: PendingOps::default(),
            bcast_scratch: Vec::new(),
            fault: None,
            obs: ObsHandle::off(),
            tel: TelemetryHandle::off(),
        }
    }

    /// Attaches an observability recorder: every frame delivery and drop is
    /// emitted through it with byte size, cause and wave metadata, stamped
    /// on the simulator's virtual clock (which the handle's shared clock
    /// tracks).  The default handle is off and costs one branch per site.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.obs = obs;
    }

    /// Installs a live telemetry handle: the event loop counts events,
    /// transmissions, deliveries and drops by cause, tracks the heap depth
    /// ([`Gauge::SimHeapDepth`] / [`Hist::HeapDepth`]) and wraps
    /// [`AsyncNetwork::run_until`] / [`AsyncNetwork::run_to_quiescence`] in
    /// [`Span::SimRun`] timers.  The default handle is off and costs one
    /// branch per site — virtual-time behaviour is identical either way.
    pub fn set_telemetry(&mut self, tel: TelemetryHandle) {
        self.tel = tel;
    }

    /// Installs a Byzantine [`FaultHook`] on every transmission.  The hook's
    /// RNG is seeded from the simulator seed through a fixed offset, so a
    /// faulty run is exactly as replay-deterministic as an honest one.
    pub fn set_fault_hook(&mut self, hook: Box<dyn FaultHook<P::Msg>>) {
        let seed = self.cfg.seed ^ FAULT_SEED_OFFSET;
        self.fault = Some(FaultState {
            hook,
            rng: SmallRng::seed_from_u64(seed),
        });
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.nodes.len()
    }

    /// Current virtual time (the timestamp of the last processed event, or
    /// the last [`AsyncNetwork::advance_to`] deadline).
    pub fn now(&self) -> VTime {
        self.now
    }

    /// Whether node `v` is currently up.
    pub fn is_alive(&self, v: Node) -> bool {
        self.alive[v as usize]
    }

    /// Scheduled events not yet processed (including crash/recover).
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// Queued protocol events — deliveries and timers — not yet processed.
    /// Zero means the network is *message-quiescent* even if externally
    /// scheduled crash/recover events are still pending on the timeline.
    pub fn protocol_pending(&self) -> usize {
        self.protocol_pending
    }

    /// Accounting so far.
    pub fn stats(&self) -> &AsimStats {
        &self.stats
    }

    /// Consumes the simulator, returning its accounting.
    pub fn into_stats(self) -> AsimStats {
        self.stats
    }

    /// The replay log (empty unless [`AsimConfig::record_trace`] is set).
    pub fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }

    /// Shared view of node `v`'s protocol state.
    pub fn node(&self, v: Node) -> &P {
        &self.nodes[v as usize]
    }

    /// Mutable access to node `v`'s protocol state *without* a transport —
    /// for out-of-band state arming (e.g. waving a crashed node's repair
    /// state); use [`AsyncNetwork::inject`] when the node should also send.
    pub fn node_mut(&mut self, v: Node) -> &mut P {
        &mut self.nodes[v as usize]
    }

    /// All node states, in id order.
    pub fn nodes(&self) -> &[P] {
        &self.nodes
    }

    /// Consumes the simulator, returning the node states.
    pub fn into_nodes(self) -> Vec<P> {
        self.nodes
    }

    /// Consumes the simulator, returning the node states and the accounting.
    pub fn into_nodes_and_stats(self) -> (Vec<P>, AsimStats) {
        (self.nodes, self.stats)
    }

    /// Sorted live neighbor list of `v`.
    pub fn neighbors_of(&self, v: Node) -> &[Node] {
        &self.neighbors[v as usize]
    }

    fn push(&mut self, time: VTime, class: u8, kind: EventKind<P::Msg>) {
        debug_assert!(time >= self.now, "scheduling into the past");
        if class != CLASS_NODE {
            self.protocol_pending += 1;
        }
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Event {
            time,
            class,
            seq,
            kind,
        });
        self.tel.gauge_add(Gauge::SimHeapDepth, 1);
    }

    /// Calls `on_start` on every alive node (node-id order) at the current
    /// virtual time.
    pub fn start(&mut self) {
        for v in 0..self.n() as Node {
            if self.alive[v as usize] {
                self.callback(v, |node, net| node.on_start(net));
            }
        }
    }

    /// Schedules node `v` to crash at time `at` (messages and timers
    /// reaching it while down are dropped).
    pub fn schedule_crash(&mut self, at: VTime, v: Node) {
        self.push(at, CLASS_NODE, EventKind::Crash(v));
    }

    /// Schedules node `v` to come back up at time `at`
    /// ([`ProtocolNode::on_recover`] fires).
    pub fn schedule_recover(&mut self, at: VTime, v: Node) {
        self.push(at, CLASS_NODE, EventKind::Recover(v));
    }

    /// Flips the presence of link `{u, v}` in the live topology, effective
    /// immediately (in-flight deliveries are not recalled — a radio frame
    /// already in the air arrives regardless).
    pub fn set_link(&mut self, u: Node, v: Node, present: bool) {
        assert_ne!(u, v, "self loops are not links");
        if present {
            sorted_insert(&mut self.neighbors[u as usize], v);
            sorted_insert(&mut self.neighbors[v as usize], u);
        } else {
            let ok = sorted_remove(&mut self.neighbors[u as usize], v)
                && sorted_remove(&mut self.neighbors[v as usize], u);
            assert!(ok, "removing absent link ({u}, {v})");
        }
    }

    /// Runs `f` on node `v` with a live transport at the current time, then
    /// flushes its sends/timers onto the event queue — how external drivers
    /// (churn, repair-wave origination) act on the timeline.
    pub fn inject<F>(&mut self, v: Node, f: F)
    where
        F: FnOnce(&mut P, &mut dyn Transport<P::Msg>),
    {
        self.callback(v, f);
    }

    /// Runs one node callback with a buffered transport and flushes the
    /// requests it produced.
    fn callback<F>(&mut self, v: Node, f: F)
    where
        F: FnOnce(&mut P, &mut dyn Transport<P::Msg>),
    {
        let mut ops = std::mem::take(&mut self.pending);
        {
            let mut net = BufferedTransport {
                me: v,
                now: self.now,
                neighbors: &self.neighbors[v as usize],
                ops: &mut ops,
            };
            f(&mut self.nodes[v as usize], &mut net);
        }
        self.flush(v, &mut ops);
        self.pending = ops;
    }

    /// Converts buffered sends/timers into scheduled events.
    fn flush(&mut self, from: Node, ops: &mut PendingOps<P::Msg>) {
        for (delay, token) in ops.timers.drain(..) {
            self.push(
                self.now + delay,
                CLASS_TIMER,
                EventKind::Timer { node: from, token },
            );
        }
        for out in ops.sends.drain(..) {
            match out {
                Outgoing::Unicast(to, msg) => {
                    if self.neighbors[from as usize].binary_search(&to).is_ok() {
                        self.transmit(from, to, msg);
                    } else {
                        self.stats.dropped_no_link += 1;
                        self.record_drop(from, to, &msg, DropCause::NoLink);
                    }
                }
                Outgoing::Broadcast(msg) => {
                    let mut targets = std::mem::take(&mut self.bcast_scratch);
                    targets.clear();
                    targets.extend_from_slice(&self.neighbors[from as usize]);
                    for &w in &targets {
                        self.transmit(from, w, msg.clone());
                    }
                    self.bcast_scratch = targets;
                }
            }
        }
    }

    /// Records a frame that went nowhere: a trace entry (class
    /// [`CLASS_DROP`] for transmit-time drops, the delivery entry's `cause`
    /// otherwise) plus an [`ObsEvent::Drop`] when a recorder is attached.
    fn record_drop(&mut self, from: Node, to: Node, msg: &P::Msg, cause: DropCause) {
        let bytes = msg.wire_bytes();
        if self.cfg.record_trace {
            self.trace.push(TraceEvent {
                time: self.now,
                class: CLASS_DROP,
                node: to,
                aux: from,
                bytes,
                cause,
            });
        }
        if self.obs.on() {
            self.obs.emit_at(
                self.now,
                ObsEvent::Drop {
                    from,
                    to,
                    bytes,
                    cause,
                    meta: msg.meta(),
                },
            );
        }
        if let Some(c) = drop_counter(cause) {
            self.tel.incr(c);
        }
    }

    /// One logical message: draws the lossy attempts, schedules the delivery
    /// of the first successful one (attempt `k` launches `k · retry_timeout`
    /// ticks after the first), or drops after the retransmission budget.
    fn transmit(&mut self, from: Node, to: Node, msg: P::Msg) {
        // Byzantine interception happens in the sender's radio, before the
        // channel: suppressed frames consume no loss/latency draws, and
        // rewritten frames travel like any other.
        let verdict = match self.fault.as_mut() {
            Some(fault) => fault.hook.intercept(from, to, &msg, &mut fault.rng),
            None => FaultVerdict::Pass,
        };
        let msg = match verdict {
            FaultVerdict::Pass => msg,
            FaultVerdict::Drop => {
                self.stats.byz_suppressed += 1;
                self.record_drop(from, to, &msg, DropCause::Suppressed);
                return;
            }
            FaultVerdict::Replace(forged) => {
                self.stats.byz_rewritten += 1;
                forged
            }
        };
        let bytes = msg.wire_bytes();
        let mut attempt: u32 = 0;
        loop {
            self.stats.transmissions += 1;
            self.stats.per_node_sent[from as usize] += 1;
            self.stats.bytes_sent += bytes;
            self.tel.incr(Counter::SimTransmissions);
            self.tel.add(Counter::SimBytesSent, bytes);
            let lost = self.cfg.loss > 0.0 && self.rng.gen_range(0.0..1.0) < self.cfg.loss;
            if !lost {
                let drawn = self.cfg.latency.sample(&mut self.rng);
                let latency = self
                    .cfg
                    .adversary
                    .delay(from, to, self.stats.transmissions, drawn);
                let at = self.now + VTime::from(attempt) * self.cfg.retry_timeout + latency;
                let sent = self.now;
                self.push(
                    at,
                    CLASS_DELIVER,
                    EventKind::Deliver {
                        from,
                        to,
                        sent,
                        msg,
                    },
                );
                return;
            }
            if attempt >= self.cfg.max_retries {
                self.stats.dropped_loss += 1;
                self.record_drop(from, to, &msg, DropCause::Loss);
                return;
            }
            attempt += 1;
        }
    }

    /// Processes the earliest pending event.  Returns `false` when the
    /// queue is empty.
    fn step(&mut self) -> bool {
        let Some(ev) = self.heap.pop() else {
            return false;
        };
        debug_assert!(ev.time >= self.now, "event queue went backwards");
        if ev.class != CLASS_NODE {
            self.protocol_pending -= 1;
        }
        self.now = ev.time;
        if self.obs.on() {
            self.obs.set_now(ev.time);
        }
        self.stats.events += 1;
        if self.tel.on() {
            self.tel.incr(Counter::SimEvents);
            self.tel.gauge_add(Gauge::SimHeapDepth, -1);
            // Depth at pop time, counting the event just taken.
            self.tel
                .observe(Hist::HeapDepth, self.heap.len() as u64 + 1);
        }
        if self.cfg.record_trace {
            let (node, aux, bytes) = match &ev.kind {
                EventKind::Crash(v) => (*v, 0, 0),
                EventKind::Recover(v) => (*v, 1, 0),
                EventKind::Deliver { from, to, msg, .. } => (*to, *from, msg.wire_bytes()),
                EventKind::Timer { node, token } => (*node, *token, 0),
            };
            self.trace.push(TraceEvent {
                time: ev.time,
                class: ev.class,
                node,
                aux,
                bytes,
                cause: DropCause::None,
            });
        }
        match ev.kind {
            EventKind::Crash(v) => {
                self.alive[v as usize] = false;
            }
            EventKind::Recover(v) => {
                self.alive[v as usize] = true;
                self.callback(v, |node, net| node.on_recover(net));
            }
            EventKind::Deliver {
                from,
                to,
                sent,
                msg,
            } => {
                if !self.alive[to as usize] {
                    self.stats.dropped_down += 1;
                    self.tel.incr(Counter::SimDropDown);
                    if self.cfg.record_trace {
                        if let Some(last) = self.trace.last_mut() {
                            last.cause = DropCause::Down;
                        }
                    }
                    if self.obs.on() {
                        self.obs.emit(ObsEvent::Drop {
                            from,
                            to,
                            bytes: msg.wire_bytes(),
                            cause: DropCause::Down,
                            meta: msg.meta(),
                        });
                    }
                } else {
                    self.stats.delivered += 1;
                    self.stats.per_node_delivered[to as usize] += 1;
                    self.stats.bytes_delivered += msg.wire_bytes();
                    self.tel.incr(Counter::SimDelivered);
                    self.tel.add(Counter::SimBytesDelivered, msg.wire_bytes());
                    match self.stats.delivered_at.last_mut() {
                        Some((t, count)) if *t == ev.time => *count += 1,
                        _ => self.stats.delivered_at.push((ev.time, 1)),
                    }
                    // Remember this delivery's trace slot: the callback's
                    // own sends may append transmit-drop entries behind it.
                    let slot = self.trace.len().checked_sub(1);
                    self.callback(to, |node, net| node.on_message(net, from, &msg));
                    // The receiving protocol's own disposition (advisory):
                    // a consumed frame stays `None`; dedup / MAC-reject /
                    // stale-replay rejections get attributed in the trace
                    // and recorder even though transport-level delivery
                    // succeeded.
                    let cause = self.nodes[to as usize].last_rx();
                    if let Some(c) = drop_counter(cause) {
                        self.tel.incr(c);
                    }
                    if cause != DropCause::None && self.cfg.record_trace {
                        if let Some(entry) = slot.and_then(|i| self.trace.get_mut(i)) {
                            entry.cause = cause;
                        }
                    }
                    if self.obs.on() {
                        let bytes = msg.wire_bytes();
                        let meta = msg.meta();
                        if cause == DropCause::None {
                            self.obs.emit(ObsEvent::Deliver {
                                from,
                                to,
                                bytes,
                                latency: ev.time - sent,
                                meta,
                            });
                        } else {
                            self.obs.emit(ObsEvent::Drop {
                                from,
                                to,
                                bytes,
                                cause,
                                meta,
                            });
                        }
                    }
                }
            }
            EventKind::Timer { node, token } => {
                if self.alive[node as usize] {
                    self.callback(node, |n, net| n.on_timer(net, token));
                }
            }
        }
        true
    }

    /// Processes every event with `time ≤ deadline`; later events stay
    /// queued (in-flight messages carry across churn windows).  Returns the
    /// number of events processed.
    pub fn run_until(&mut self, deadline: VTime) -> u64 {
        let mut span = self.tel.span(Span::SimRun);
        let mut processed = 0;
        while let Some(ev) = self.heap.peek() {
            if ev.time > deadline {
                break;
            }
            self.step();
            processed += 1;
        }
        span.add_items(processed);
        processed
    }

    /// Moves the clock forward to `t` without processing anything (events
    /// before `t` must already be drained).  No-op if the clock is past `t`.
    pub fn advance_to(&mut self, t: VTime) {
        debug_assert!(
            self.heap.peek().is_none_or(|ev| ev.time >= t),
            "advancing over unprocessed events"
        );
        self.now = self.now.max(t);
        if self.obs.on() {
            self.obs.set_now(self.now);
        }
    }

    /// Processes events until the queue drains or `max_events` have been
    /// processed in this call.  Returns `true` iff the queue drained (the
    /// network is quiescent).
    pub fn run_to_quiescence(&mut self, max_events: u64) -> bool {
        let mut span = self.tel.span(Span::SimRun);
        for processed in 0..max_events {
            if !self.step() {
                span.add_items(processed);
                return true;
            }
        }
        span.add_items(max_events);
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LatencyModel;
    use rspan_graph::generators::structured::{cycle_graph, path_graph, star_graph};
    use std::collections::HashSet;

    /// `(origin, remaining ttl)` flood token.
    #[derive(Clone, Copy, Debug)]
    struct Token(Node, u32);

    impl WireSize for Token {
        fn wire_bytes(&self) -> u64 {
            8
        }
    }

    /// The sync simulator's toy TTL flood, as a message-driven node.
    struct Flood {
        ttl: u32,
        seen: HashSet<Node>,
    }

    impl ProtocolNode for Flood {
        type Msg = Token;

        fn on_start(&mut self, net: &mut dyn Transport<Self::Msg>) {
            self.seen.insert(net.me());
            net.send(Outgoing::Broadcast(Token(net.me(), self.ttl)));
        }

        fn on_message(&mut self, net: &mut dyn Transport<Self::Msg>, _from: Node, msg: &Self::Msg) {
            let Token(origin, ttl) = *msg;
            if self.seen.insert(origin) && ttl > 1 {
                net.send(Outgoing::Broadcast(Token(origin, ttl - 1)));
            }
        }

        fn is_done(&self) -> bool {
            true
        }
    }

    fn flood_net(graph: &rspan_graph::CsrGraph, cfg: AsimConfig, ttl: u32) -> AsyncNetwork<Flood> {
        AsyncNetwork::from_adjacency(graph, cfg, |_| Flood {
            ttl,
            seen: HashSet::new(),
        })
    }

    #[test]
    fn unit_latency_flood_reaches_exactly_the_ball() {
        let g = path_graph(9);
        let mut net = flood_net(&g, AsimConfig::default(), 3);
        net.start();
        assert!(net.run_to_quiescence(100_000));
        let mut seen0: Vec<Node> = net.node(0).seen.iter().copied().collect();
        seen0.sort_unstable();
        assert_eq!(seen0, vec![0, 1, 2, 3]);
        assert_eq!(net.node(4).seen.len(), 7);
        // TTL 3 quiesces by tick 4 (last forwards arrive, nothing new).
        assert!(net.now() <= 4);
        assert_eq!(net.stats().dropped_loss, 0);
        assert_eq!(net.stats().logical_messages(), net.stats().delivered);
    }

    #[test]
    fn full_loss_drops_everything_after_retries() {
        let g = star_graph(4);
        let cfg = AsimConfig {
            loss: 1.0,
            max_retries: 2,
            ..AsimConfig::default()
        };
        let mut net = flood_net(&g, cfg, 2);
        net.start();
        assert!(net.run_to_quiescence(10_000));
        let s = net.stats();
        // Every node broadcast once (2m transmissions worth of logical
        // messages), each attempted 1 + 2 retries, all lost.
        assert_eq!(s.delivered, 0);
        assert_eq!(s.dropped_loss, 2 * g.m() as u64);
        assert_eq!(s.transmissions, 3 * 2 * g.m() as u64);
        assert_eq!(s.bytes_delivered, 0);
        // Each node's own seen-set still contains itself.
        assert!(net.nodes().iter().all(|f| f.seen.len() == 1));
    }

    #[test]
    fn crashed_receiver_drops_in_flight_messages() {
        let g = path_graph(3); // 0 - 1 - 2
        let mut net = flood_net(&g, AsimConfig::default(), 3);
        net.schedule_crash(0, 1);
        net.start();
        assert!(net.run_to_quiescence(10_000));
        // Node 1 was down from t=0: everything to it dropped, so node 2
        // never hears origin 0 (the only path runs through 1).
        assert!(!net.node(2).seen.contains(&0));
        assert!(net.stats().dropped_down >= 2);
        assert!(!net.is_alive(1));
    }

    #[test]
    fn recovery_fires_on_recover_and_revives_delivery() {
        #[derive(Clone, Copy)]
        struct Ping(#[allow(dead_code)] Node);
        impl WireSize for Ping {
            fn wire_bytes(&self) -> u64 {
                4
            }
        }
        struct Beacon {
            got: Vec<Node>,
            recovered: bool,
        }
        impl ProtocolNode for Beacon {
            type Msg = Ping;
            fn on_start(&mut self, net: &mut dyn Transport<Ping>) {
                net.send(Outgoing::Broadcast(Ping(net.me())));
                net.set_timer(6, 7); // beacon again later
            }
            fn on_message(&mut self, _net: &mut dyn Transport<Ping>, from: Node, _msg: &Ping) {
                self.got.push(from);
            }
            fn on_timer(&mut self, net: &mut dyn Transport<Ping>, _token: u32) {
                net.send(Outgoing::Broadcast(Ping(net.me())));
            }
            fn on_recover(&mut self, _net: &mut dyn Transport<Ping>) {
                self.recovered = true;
            }
            fn is_done(&self) -> bool {
                true
            }
        }
        let g = path_graph(2);
        let mut net: AsyncNetwork<Beacon> =
            AsyncNetwork::from_adjacency(&g, AsimConfig::default(), |_| Beacon {
                got: Vec::new(),
                recovered: false,
            });
        net.schedule_crash(0, 1);
        net.schedule_recover(3, 1);
        net.start();
        assert!(net.run_to_quiescence(10_000));
        // The t=1 beacon was dropped (node 1 down), the t=6-timer beacon
        // arrives after recovery.
        assert!(net.node(1).recovered);
        assert_eq!(net.node(1).got, vec![0]);
        assert_eq!(net.stats().dropped_down, 1);
    }

    #[test]
    fn link_churn_redirects_broadcasts() {
        let g = path_graph(3);
        let mut net = flood_net(&g, AsimConfig::default(), 1);
        net.set_link(1, 2, false);
        net.set_link(0, 2, true);
        net.start();
        assert!(net.run_to_quiescence(10_000));
        // With TTL 1, seen-sets are exactly closed neighborhoods of the
        // *churned* topology.
        assert_eq!(net.node(2).seen, HashSet::from([0, 2]));
        assert_eq!(net.node(1).seen, HashSet::from([0, 1]));
        assert_eq!(net.node(0).seen, HashSet::from([0, 1, 2]));
    }

    #[test]
    fn latency_spread_still_delivers_everything() {
        let g = cycle_graph(12);
        for latency in [
            LatencyModel::Uniform { lo: 1, hi: 5 },
            LatencyModel::HeavyTailed {
                min: 1,
                alpha: 1.3,
                cap: 20,
            },
        ] {
            let cfg = AsimConfig {
                latency,
                seed: 77,
                ..AsimConfig::default()
            };
            let mut net = flood_net(&g, cfg, 3);
            net.start();
            assert!(net.run_to_quiescence(100_000));
            assert_eq!(net.stats().delivered, net.stats().transmissions);
            // Everyone hears its 3-ball eventually (no loss): on a cycle
            // that is 7 origins.
            assert!(net.nodes().iter().all(|f| f.seen.len() == 7));
            assert!(net.now() > 3, "latency spread should stretch the clock");
        }
    }

    #[test]
    fn same_seed_same_trace() {
        let g = cycle_graph(10);
        let cfg = AsimConfig {
            latency: LatencyModel::Uniform { lo: 1, hi: 4 },
            loss: 0.3,
            max_retries: 1,
            seed: 1234,
            record_trace: true,
            ..AsimConfig::default()
        };
        let run = |cfg: AsimConfig| {
            let mut net = flood_net(&g, cfg, 4);
            net.schedule_crash(2, 3);
            net.schedule_recover(5, 3);
            net.start();
            assert!(net.run_to_quiescence(100_000));
            (net.trace().to_vec(), net.stats().clone())
        };
        let (trace_a, stats_a) = run(cfg.clone());
        let (trace_b, stats_b) = run(cfg.clone());
        assert_eq!(trace_a, trace_b);
        assert_eq!(stats_a, stats_b);
        assert!(!trace_a.is_empty());
        let (trace_c, _) = run(AsimConfig { seed: 4321, ..cfg });
        assert_ne!(trace_a, trace_c, "different seed should reorder events");
    }

    #[test]
    fn run_until_leaves_future_events_queued() {
        let g = path_graph(6);
        let cfg = AsimConfig {
            latency: LatencyModel::Constant(3),
            ..AsimConfig::default()
        };
        let mut net = flood_net(&g, cfg, 5);
        net.start();
        net.run_until(3);
        assert!(net.pending() > 0, "hops beyond tick 3 still in flight");
        let before = net.stats().delivered;
        assert!(net.run_to_quiescence(100_000));
        assert!(net.stats().delivered > before);
    }
}
