//! The in-process multi-threaded backend and the node worker loop both
//! backends share.
//!
//! One OS thread per node runs [`Worker`]: it owns the protocol state,
//! drains an mpsc inbound queue of [`NodeCmd`]s, runs protocol callbacks
//! against a [`BufferedTransport`] (the same callback-buffering idiom the
//! simulators use), posts the buffered sends through a backend-specific
//! [`Wire`], and drives `on_timer` off a node-local timer wheel keyed to the
//! shared monotonic [`TickClock`].  The only thing that differs between the
//! threaded and TCP backends is the `Wire`: in-process delivery clones the
//! message straight into the peer's inbound queue; TCP encodes it onto a
//! socket (see [`crate::tcp`]).

use crate::clock::TickClock;
use crate::quiesce::InFlight;
use rspan_distributed::transport::{BufferedTransport, Outgoing, PendingOps, WireSize};
use rspan_distributed::ProtocolNode;
use rspan_graph::Node;
use rspan_telemetry::{Counter, Hist, TelemetryHandle};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One unit of work on a node's inbound queue.  Every enqueued command holds
/// one [`InFlight`] token except `Stop`, which is only sent once the cluster
/// is quiescent.
pub enum NodeCmd<P: ProtocolNode> {
    /// A protocol frame from a peer (`sent_nanos` on the cluster clock).
    Deliver {
        /// Sending node.
        from: Node,
        /// The decoded protocol message.
        msg: P::Msg,
        /// [`TickClock::elapsed_nanos`] at send time.
        sent_nanos: u64,
    },
    /// Run a closure against the protocol state and its transport (the
    /// harness's equivalent of `AsyncNetwork::inject` — wave arming, state
    /// probes).
    Inject(InjectFn<P>),
    /// Flip a local link up or down (the harness mirrors engine topology
    /// changes onto every worker's neighbor list, as the simulators do via
    /// `set_link`).
    SetLink {
        /// The other endpoint.
        peer: Node,
        /// Present after the flip?
        up: bool,
    },
    /// Terminate the worker loop and hand the protocol state back.
    Stop,
}

/// A boxed injection closure, run on the worker thread against its host.
pub type InjectFn<P> = Box<dyn FnOnce(&mut dyn ProtocolHost<P>) + Send>;

/// The callback shape [`ProtocolHost::with_node`] runs: the node state plus
/// a live transport buffering into the worker's outbound path.
pub type NodeFn<'a, P> =
    dyn FnMut(&mut P, &mut dyn rspan_distributed::Transport<<P as ProtocolNode>::Msg>) + 'a;

/// What an injected closure sees: the node plus a live transport.  (A trait
/// object rather than a plain closure pair so `NodeCmd` stays object-safe
/// over the borrowed transport.)
pub trait ProtocolHost<P: ProtocolNode> {
    /// Runs `f` with the node state and a transport buffering into this
    /// worker's outbound path.
    fn with_node(&mut self, f: &mut NodeFn<'_, P>);
}

/// Backend-specific frame delivery.  `post` is called by the worker after a
/// callback returns, once per receiving peer, with the in-flight token for
/// the frame already acquired.  It runs on the worker's thread and may
/// block there (TCP writes the socket and backs off on errors).
pub trait Wire<P: ProtocolNode>: Send {
    /// Delivers one frame to `to`'s inbound path.
    fn post(&mut self, to: Node, from: Node, msg: &P::Msg, sent_nanos: u64);
}

/// In-process delivery: clone the message into the peer's mpsc queue.
pub struct ChanWire<P: ProtocolNode> {
    peers: Vec<Sender<NodeCmd<P>>>,
}

impl<P: ProtocolNode> Wire<P> for ChanWire<P>
where
    P::Msg: Clone + Send + 'static,
{
    fn post(&mut self, to: Node, from: Node, msg: &P::Msg, sent_nanos: u64) {
        self.peers[to as usize]
            .send(NodeCmd::Deliver {
                from,
                msg: msg.clone(),
                sent_nanos,
            })
            .expect("peer worker hung up before quiescence");
    }
}

/// The per-node worker: protocol state, inbound queue, timer wheel, wire.
pub struct Worker<P: ProtocolNode, W: Wire<P>> {
    me: Node,
    node: P,
    rx: Receiver<NodeCmd<P>>,
    wire: W,
    /// Current sorted neighbor list (updated by `SetLink`).
    neighbors: Vec<Node>,
    clock: Arc<TickClock>,
    inflight: Arc<InFlight>,
    tel: TelemetryHandle,
    /// Pending timers as `Reverse((due_tick, token))`.
    timers: BinaryHeap<Reverse<(u64, u32)>>,
    ops: PendingOps<P::Msg>,
}

impl<P, W> Worker<P, W>
where
    P: ProtocolNode + Send + 'static,
    P::Msg: WireSize,
    W: Wire<P> + 'static,
{
    /// Assembles a worker from its parts (used by both backends; `neighbors`
    /// must already be sorted).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        me: Node,
        node: P,
        rx: Receiver<NodeCmd<P>>,
        wire: W,
        neighbors: Vec<Node>,
        clock: Arc<TickClock>,
        inflight: Arc<InFlight>,
        tel: TelemetryHandle,
    ) -> Self {
        debug_assert!(neighbors.windows(2).all(|w| w[0] < w[1]));
        Worker {
            me,
            node,
            rx,
            wire,
            neighbors,
            clock,
            inflight,
            tel,
            timers: BinaryHeap::new(),
            ops: PendingOps::default(),
        }
    }

    /// Runs one protocol callback against the buffered transport, then
    /// interprets the buffered sends and timer requests.
    fn run_callback(
        &mut self,
        f: impl FnOnce(&mut P, &mut dyn rspan_distributed::Transport<P::Msg>),
    ) {
        let now = self.clock.now_ticks();
        let mut t = BufferedTransport {
            me: self.me,
            now,
            neighbors: &self.neighbors,
            ops: &mut self.ops,
        };
        f(&mut self.node, &mut t);
        // Interpret sends: acquire the frame's token *before* posting so the
        // counter can never dip to zero while follow-on work exists (the
        // worker still holds the token of the command being processed).
        let sends = std::mem::take(&mut self.ops.sends);
        let timers = std::mem::take(&mut self.ops.timers);
        for out in &sends {
            match out {
                Outgoing::Unicast(to, msg) => self.post_one(*to, msg),
                Outgoing::Broadcast(msg) => {
                    // Broadcast targets the *current* neighbor list (the
                    // Transport contract under churn); the list cannot change
                    // while this worker interprets its own callback.
                    for i in 0..self.neighbors.len() {
                        let to = self.neighbors[i];
                        self.post_one(to, msg);
                    }
                }
            }
        }
        // Interpret timers: each armed timer holds a token until it fires
        // and its `on_timer` completes.
        for &(delay, token) in &timers {
            self.inflight.up();
            self.timers.push(Reverse((now + delay, token)));
        }
        // Hand the buffers back so their capacity is reused.
        self.ops.sends = sends;
        self.ops.timers = timers;
        self.ops.clear();
    }

    fn post_one(&mut self, to: Node, msg: &P::Msg) {
        self.inflight.up();
        self.tel.incr(Counter::NetFramesSent);
        self.tel.add(Counter::NetBytesSent, msg.wire_bytes());
        self.wire.post(to, self.me, msg, self.clock.elapsed_nanos());
    }

    /// Fires every timer whose deadline has passed.
    fn fire_due_timers(&mut self) {
        while let Some(&Reverse((due, token))) = self.timers.peek() {
            if Instant::now() < self.clock.deadline(due) {
                break;
            }
            self.timers.pop();
            self.run_callback(|node, t| node.on_timer(t, token));
            self.inflight.down();
        }
    }

    /// The worker loop: drain commands, fire timers, stop on `Stop`.
    /// Returns the final protocol state.
    pub(crate) fn run(mut self) -> P {
        loop {
            self.fire_due_timers();
            let cmd = match self.timers.peek() {
                Some(&Reverse((due, _))) => {
                    let deadline = self.clock.deadline(due);
                    let wait = deadline.saturating_duration_since(Instant::now());
                    match self.rx.recv_timeout(wait) {
                        Ok(cmd) => cmd,
                        Err(RecvTimeoutError::Timeout) => continue,
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                }
                None => match self.rx.recv() {
                    Ok(cmd) => cmd,
                    Err(_) => break,
                },
            };
            match cmd {
                NodeCmd::Deliver {
                    from,
                    msg,
                    sent_nanos,
                } => {
                    self.tel.incr(Counter::NetFramesRecv);
                    self.tel.add(Counter::NetBytesRecv, msg.wire_bytes());
                    let latency = self.clock.elapsed_nanos().saturating_sub(sent_nanos);
                    self.tel.observe(Hist::NetLatencyNs, latency);
                    self.run_callback(|node, t| node.on_message(t, from, &msg));
                    self.inflight.down();
                }
                NodeCmd::Inject(f) => {
                    f(&mut self);
                    self.inflight.down();
                }
                NodeCmd::SetLink { peer, up } => {
                    if up {
                        if let Err(i) = self.neighbors.binary_search(&peer) {
                            self.neighbors.insert(i, peer);
                        }
                    } else if let Ok(i) = self.neighbors.binary_search(&peer) {
                        self.neighbors.remove(i);
                    }
                    self.inflight.down();
                }
                NodeCmd::Stop => break,
            }
        }
        self.node
    }
}

impl<P, W> ProtocolHost<P> for Worker<P, W>
where
    P: ProtocolNode + Send + 'static,
    P::Msg: WireSize,
    W: Wire<P> + 'static,
{
    fn with_node(&mut self, f: &mut NodeFn<'_, P>) {
        self.run_callback(|node, t| f(node, t));
    }
}

/// A running cluster of node workers (either backend): the controller-side
/// handle the churn harness drives.
pub struct Cluster<P: ProtocolNode> {
    senders: Vec<Sender<NodeCmd<P>>>,
    handles: Vec<JoinHandle<P>>,
    inflight: Arc<InFlight>,
    clock: Arc<TickClock>,
    /// Backend teardown hook (TCP: shutdown flag + accept-thread joins).
    teardown: Option<Box<dyn FnOnce() + Send>>,
}

/// Stack size for node worker threads.  Protocol state lives on the heap;
/// callbacks only need shallow frames, and small stacks keep a 256-node
/// cluster cheap on memory.
pub const WORKER_STACK: usize = 256 * 1024;

impl<P> Cluster<P>
where
    P: ProtocolNode + Send + 'static,
    P::Msg: WireSize + Clone + Send + 'static,
{
    /// Spawns the in-process multi-threaded backend over `neighbors` (index
    /// = node id, lists need not be sorted; they are sorted here).
    pub fn spawn_threaded<F>(
        neighbors: Vec<Vec<Node>>,
        mut make_node: F,
        tick: Duration,
        tel: TelemetryHandle,
    ) -> Self
    where
        F: FnMut(Node) -> P,
    {
        let n = neighbors.len();
        let clock = Arc::new(TickClock::new(tick));
        let inflight = Arc::new(InFlight::new(tel.clone()));
        let (senders, receivers): (Vec<_>, Vec<_>) =
            (0..n).map(|_| std::sync::mpsc::channel()).unzip();
        let mut handles = Vec::with_capacity(n);
        for (v, rx) in receivers.into_iter().enumerate() {
            let mut nbrs = neighbors[v].clone();
            nbrs.sort_unstable();
            let worker: Worker<P, ChanWire<P>> = Worker {
                me: v as Node,
                node: make_node(v as Node),
                rx,
                wire: ChanWire {
                    peers: senders.clone(),
                },
                neighbors: nbrs,
                clock: Arc::clone(&clock),
                inflight: Arc::clone(&inflight),
                tel: tel.clone(),
                timers: BinaryHeap::new(),
                ops: PendingOps::default(),
            };
            handles.push(
                std::thread::Builder::new()
                    .name(format!("rspan-node-{v}"))
                    .stack_size(WORKER_STACK)
                    .spawn(move || worker.run())
                    .expect("spawn node worker"),
            );
        }
        Cluster {
            senders,
            handles,
            inflight,
            clock,
            teardown: None,
        }
    }
}

impl<P: ProtocolNode> Cluster<P>
where
    P: Send + 'static,
{
    /// Internal constructor for backends that build their own workers
    /// (TCP).
    pub(crate) fn from_parts(
        senders: Vec<Sender<NodeCmd<P>>>,
        handles: Vec<JoinHandle<P>>,
        inflight: Arc<InFlight>,
        clock: Arc<TickClock>,
        teardown: Option<Box<dyn FnOnce() + Send>>,
    ) -> Self {
        Cluster {
            senders,
            handles,
            inflight,
            clock,
            teardown,
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.senders.len()
    }

    /// The shared cluster clock.
    pub fn clock(&self) -> &Arc<TickClock> {
        &self.clock
    }

    /// The shared in-flight counter.
    pub fn inflight(&self) -> &Arc<InFlight> {
        &self.inflight
    }

    /// Runs `f` against node `v`'s state and transport on its own thread
    /// (asynchronously; the closure's sends take effect like any callback).
    pub fn inject<F>(&self, v: Node, f: F)
    where
        F: FnOnce(&mut P, &mut dyn rspan_distributed::Transport<P::Msg>) + Send + 'static,
    {
        self.inflight.up();
        self.senders[v as usize]
            .send(NodeCmd::Inject(Box::new(
                move |host: &mut dyn ProtocolHost<P>| {
                    let mut slot = Some(f);
                    host.with_node(&mut |node, t| {
                        if let Some(f) = slot.take() {
                            f(node, t);
                        }
                    });
                },
            )))
            .expect("worker hung up");
    }

    /// Delivers `on_start` to every node (token-held, so a subsequent
    /// [`Cluster::wait_quiesce`] covers the start-up exchange).
    pub fn start_all(&self) {
        for v in 0..self.senders.len() {
            self.inject(v as Node, |node, t| node.on_start(t));
        }
    }

    /// Mirrors one topology flip onto both endpoints' neighbor lists.
    pub fn set_link(&self, u: Node, v: Node, up: bool) {
        self.inflight.up();
        self.senders[u as usize]
            .send(NodeCmd::SetLink { peer: v, up })
            .expect("worker hung up");
        self.inflight.up();
        self.senders[v as usize]
            .send(NodeCmd::SetLink { peer: u, up })
            .expect("worker hung up");
    }

    /// Blocks until the cluster is message-quiescent (see [`InFlight`]).
    pub fn wait_quiesce(&self, timeout: Duration) -> bool {
        self.inflight.wait_quiet(timeout)
    }

    /// Stops every worker and returns the final protocol states in id
    /// order.  Call only after [`Cluster::wait_quiesce`]; any still-queued
    /// command ahead of `Stop` is processed first (per-node FIFO).
    pub fn shutdown(mut self) -> Vec<P> {
        for tx in &self.senders {
            // A worker whose channel already hung up has panicked; surface
            // that through the join below instead of here.
            let _ = tx.send(NodeCmd::Stop);
        }
        let nodes: Vec<P> = self
            .handles
            .drain(..)
            .map(|h| h.join().expect("node worker panicked"))
            .collect();
        if let Some(teardown) = self.teardown.take() {
            teardown();
        }
        nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rspan_distributed::transport::Outgoing;
    use rspan_distributed::Transport;

    /// Fixed-size test message (a local type so `WireSize` can be
    /// implemented here).
    #[derive(Clone, Copy)]
    struct Ping(u32);

    impl WireSize for Ping {
        fn wire_bytes(&self) -> u64 {
            4
        }
    }

    /// Counts received values; sets a timer on start and flips `done` when
    /// it fires.
    struct Echo {
        seen: u32,
        timer_fired: bool,
    }

    impl ProtocolNode for Echo {
        type Msg = Ping;

        fn on_start(&mut self, net: &mut dyn Transport<Ping>) {
            net.send(Outgoing::Broadcast(Ping(1)));
            net.set_timer(2, 7);
        }

        fn on_message(&mut self, _net: &mut dyn Transport<Ping>, _from: Node, msg: &Ping) {
            self.seen += msg.0;
        }

        fn on_timer(&mut self, _net: &mut dyn Transport<Ping>, token: u32) {
            assert_eq!(token, 7);
            self.timer_fired = true;
        }

        fn is_done(&self) -> bool {
            self.timer_fired
        }
    }

    #[test]
    fn threaded_cluster_exchanges_and_times_out() {
        // Triangle topology: every node hears two broadcasts.
        let neighbors = vec![vec![1, 2], vec![0, 2], vec![0, 1]];
        let cluster: Cluster<Echo> = Cluster::spawn_threaded(
            neighbors,
            |_| Echo {
                seen: 0,
                timer_fired: false,
            },
            Duration::from_millis(5),
            TelemetryHandle::off(),
        );
        cluster.start_all();
        assert!(cluster.wait_quiesce(Duration::from_secs(10)));
        let nodes = cluster.shutdown();
        for node in &nodes {
            assert_eq!(node.seen, 2);
            assert!(node.timer_fired, "timer wheel must drive on_timer");
        }
    }

    #[test]
    fn set_link_updates_broadcast_targets() {
        let neighbors = vec![vec![1, 2], vec![0], vec![0]];
        let cluster: Cluster<Echo> = Cluster::spawn_threaded(
            neighbors,
            |_| Echo {
                seen: 0,
                timer_fired: true, // no timers in this test
            },
            Duration::from_millis(1),
            TelemetryHandle::off(),
        );
        // Drop {0,2}: node 2 must no longer hear node 0's broadcasts.
        cluster.set_link(0, 2, false);
        assert!(cluster.wait_quiesce(Duration::from_secs(5)));
        cluster.inject(0, |_node, t| t.send(Outgoing::Broadcast(Ping(5))));
        assert!(cluster.wait_quiesce(Duration::from_secs(5)));
        let nodes = cluster.shutdown();
        assert_eq!(nodes[1].seen, 5);
        assert_eq!(nodes[2].seen, 0);
    }
}
