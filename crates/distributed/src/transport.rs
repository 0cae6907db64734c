//! The scheduler-agnostic protocol substrate: [`ProtocolNode`] state machines
//! talking to a [`Transport`].
//!
//! The paper's protocols are defined per node — *receive a message, update
//! state, send messages* — and nothing in that definition depends on **when**
//! messages arrive.  This module captures exactly that contract, and
//! [`ProtocolNode`] is the only node interface each of the three schedulers
//! runs:
//!
//! * the synchronous LOCAL-model rounds of
//!   [`crate::sim::SyncNetwork::run_protocol`] (every message takes exactly
//!   one round; all nodes step in lock-step),
//! * the asynchronous discrete-event simulator of the `rspan-asim` crate
//!   (per-link latency draws, Bernoulli loss with bounded retransmission,
//!   crash/recover churn), where each delivery is its own event on a virtual
//!   timeline, and
//! * the per-node worker threads of the `rspan-net` crate, over in-process
//!   queues or loopback TCP sockets, on a monotonic wall clock.
//!
//! A node never sees the scheduler: it receives `on_start` / `on_message` /
//! `on_timer` / `on_recover` callbacks and talks back through the
//! [`Transport`] handed to it — sending to neighbors and arming timers in
//! *abstract time units* (one unit = one synchronous round = one virtual
//! clock tick).  With unit latency and no loss the two simulators are
//! observably identical; the `rspan-asim` lockstep property tests pin that
//! equivalence bit-for-bit.

use rspan_graph::Node;
use rspan_obs::{DropCause, FrameMeta};

/// Outgoing transmission request produced by a node.
#[derive(Clone, Debug)]
pub enum Outgoing<M> {
    /// Send to one specific neighbor.
    Unicast(Node, M),
    /// Send to every current neighbor.
    Broadcast(M),
}

/// What a protocol node can do to the network: the scheduler-side interface.
///
/// Every scheduler hands a `Transport` to every callback.  Time is abstract:
/// [`Transport::now`] counts synchronous rounds under `SyncNetwork` and
/// virtual clock ticks under `rspan-asim`; with unit latency the two agree.
/// Real-time backends (rspan-net) map a monotonic wall clock onto the same
/// contract — see [`Transport::now`].
pub trait Transport<M> {
    /// The node this transport belongs to.
    fn me(&self) -> Node;

    /// Current abstract time (round number / virtual tick).
    ///
    /// **Contract for real-time backends:** `now()` must be derived from a
    /// *monotonic* clock (`std::time::Instant`, never wall-of-day time),
    /// expressed in fixed-width ticks since transport start, and must be
    /// non-decreasing across consecutive calls observed by any one node.
    /// Protocol nodes only ever compare `now()` values and add
    /// [`Transport::set_timer`] delays to them, so the tick width is the
    /// backend's choice; it must merely be consistent between `now()` and
    /// the delay arithmetic of `set_timer`.
    fn now(&self) -> u64;

    /// The node's *current* neighbor list, sorted.  Under topology churn
    /// this reflects the live adjacency, not the protocol-start snapshot.
    fn neighbors(&self) -> &[Node];

    /// Queues a transmission.  Delivery timing (and whether it is delivered
    /// at all) is the scheduler's business.
    fn send(&mut self, out: Outgoing<M>);

    /// Arms a timer that fires [`ProtocolNode::on_timer`] with `token` after
    /// `delay` time units.  `delay` must be at least 1: zero-delay timers
    /// would make the round/event schedulers diverge.
    fn set_timer(&mut self, delay: u64, token: u32);
}

/// Per-node protocol state machine, scheduler-agnostic.
///
/// Implementations must be deterministic functions of the callback sequence:
/// given the same deliveries in the same order at the same times, a node must
/// produce the same sends.  That is what makes the simulators replayable and
/// the sync/async equivalence testable.
pub trait ProtocolNode {
    /// Message type exchanged by the protocol.
    type Msg: Clone;

    /// Called once when the protocol starts (time 0).
    fn on_start(&mut self, net: &mut dyn Transport<Self::Msg>);

    /// Called for every delivered message.
    fn on_message(&mut self, net: &mut dyn Transport<Self::Msg>, from: Node, msg: &Self::Msg);

    /// Called when a timer armed via [`Transport::set_timer`] fires.
    fn on_timer(&mut self, net: &mut dyn Transport<Self::Msg>, token: u32) {
        let _ = (net, token);
    }

    /// Called when the node comes back up after a crash (asynchronous
    /// scheduler only; messages and timers that targeted the node while it
    /// was down have been dropped).
    fn on_recover(&mut self, net: &mut dyn Transport<Self::Msg>) {
        let _ = net;
    }

    /// Whether this node has finished its protocol work — advisory, used for
    /// termination statistics ([`crate::sim::RunStats::all_done`]); the
    /// schedulers stop on quiescence regardless.
    fn is_done(&self) -> bool;

    /// Disposition of the most recent [`ProtocolNode::on_message`] delivery:
    /// [`DropCause::None`] when the frame was consumed, otherwise why it was
    /// discarded (flood dedup, stale epoch, MAC reject, …).  Queried by the
    /// asynchronous scheduler *after* the callback to attribute deliveries in
    /// its replay trace and observability events; purely advisory, so the
    /// default of "always consumed" keeps existing protocols working
    /// unchanged.
    fn last_rx(&self) -> DropCause {
        DropCause::None
    }
}

/// Wire-size model for protocol messages, used by the asynchronous
/// simulator's byte accounting.  Sizes are *estimates of a reasonable
/// encoding* (4-byte node ids), not of the in-memory Rust representation.
pub trait WireSize {
    /// Serialized size of this message in bytes.
    fn wire_bytes(&self) -> u64;

    /// Observability metadata the frame already carries on the wire: its
    /// kind, repair-wave identity `(origin, epoch)` and remaining TTL.  The
    /// default is unattributed, so message types that predate the
    /// wave-causality index need no changes.
    fn meta(&self) -> FrameMeta {
        FrameMeta::default()
    }
}

/// Send/timer requests buffered during one callback, drained by the
/// scheduler afterwards.  Every scheduler reuses these buffers across
/// callbacks, so steady-state rounds allocate nothing here.
#[derive(Debug)]
pub struct PendingOps<M> {
    /// Transmission requests, in emission order.
    pub sends: Vec<Outgoing<M>>,
    /// Timer requests as `(delay, token)` pairs, in emission order.
    pub timers: Vec<(u64, u32)>,
}

impl<M> Default for PendingOps<M> {
    fn default() -> Self {
        PendingOps {
            sends: Vec::new(),
            timers: Vec::new(),
        }
    }
}

impl<M> PendingOps<M> {
    /// Drops buffered requests, keeping capacity.
    pub fn clear(&mut self) {
        self.sends.clear();
        self.timers.clear();
    }
}

/// The one [`Transport`] implementation every scheduler uses: callbacks
/// write into a [`PendingOps`] buffer the scheduler interprets afterwards
/// (rounds for `SyncNetwork`, heap events for `rspan-asim`, frames and a
/// timer wheel for the `rspan-net` workers).
pub struct BufferedTransport<'a, M> {
    /// Node the callback runs on.
    pub me: Node,
    /// Abstract time of the callback.
    pub now: u64,
    /// The node's current (sorted) neighbor list.
    pub neighbors: &'a [Node],
    /// Where send/timer requests accumulate.
    pub ops: &'a mut PendingOps<M>,
}

impl<M> Transport<M> for BufferedTransport<'_, M> {
    fn me(&self) -> Node {
        self.me
    }

    fn now(&self) -> u64 {
        self.now
    }

    fn neighbors(&self) -> &[Node] {
        self.neighbors
    }

    fn send(&mut self, out: Outgoing<M>) {
        self.ops.sends.push(out);
    }

    fn set_timer(&mut self, delay: u64, token: u32) {
        assert!(delay >= 1, "zero-delay timers are not schedulable");
        self.ops.timers.push((delay, token));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;

    impl ProtocolNode for Echo {
        type Msg = u32;
        fn on_start(&mut self, net: &mut dyn Transport<u32>) {
            net.send(Outgoing::Broadcast(7));
            net.set_timer(3, 1);
        }
        fn on_message(&mut self, net: &mut dyn Transport<u32>, from: Node, msg: &u32) {
            net.send(Outgoing::Unicast(from, msg + 1));
        }
        fn is_done(&self) -> bool {
            true
        }
    }

    #[test]
    fn buffered_transport_records_requests() {
        let mut ops = PendingOps::default();
        let neighbors = [1 as Node, 2];
        let mut t = BufferedTransport {
            me: 0,
            now: 5,
            neighbors: &neighbors,
            ops: &mut ops,
        };
        assert_eq!(t.me(), 0);
        assert_eq!(t.now(), 5);
        assert_eq!(t.neighbors(), &[1, 2]);
        let mut node = Echo;
        node.on_start(&mut t);
        node.on_message(&mut t, 2, &9);
        assert_eq!(ops.sends.len(), 2);
        assert_eq!(ops.timers, vec![(3, 1)]);
        assert!(matches!(ops.sends[1], Outgoing::Unicast(2, 10)));
        ops.clear();
        assert!(ops.sends.is_empty() && ops.timers.is_empty());
    }

    #[test]
    #[should_panic(expected = "zero-delay")]
    fn zero_delay_timer_panics() {
        let mut ops: PendingOps<u32> = PendingOps::default();
        let mut t = BufferedTransport {
            me: 0,
            now: 0,
            neighbors: &[],
            ops: &mut ops,
        };
        t.set_timer(0, 0);
    }
}
