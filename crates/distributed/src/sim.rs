//! A synchronous message-passing simulator (LOCAL model with explicit
//! messages).
//!
//! The paper's algorithms are *local*: every node decides which edges to add
//! to the remote-spanner from knowledge of its `(r − 1 + β)`-hop neighborhood
//! only, with no coordination between decisions, in a constant number of
//! communication rounds (`2r − 1 + 2β` for Algorithm 3).  The simulator makes
//! that claim checkable: nodes exchange messages with their graph neighbors in
//! synchronous rounds, and the harness counts rounds and transmissions.
//!
//! The synchronous rounds substitute the asynchronous radio network of a real
//! ad-hoc deployment (see DESIGN.md, substitution note): what matters for the
//! paper's claims is *what information can reach a node in how many rounds*,
//! which the synchronous model captures exactly.  When the asynchronous
//! regime itself is the object of study — lossy links, latency spread, crash
//! churn — the same [`ProtocolNode`] state machines run unchanged on the
//! `rspan-asim` discrete-event simulator instead.  [`SyncNetwork::run_protocol`]
//! is the reference the `rspan-asim` lockstep property tests hold that
//! scheduler to.

use crate::transport::{BufferedTransport, Outgoing, PendingOps, ProtocolNode};
use rspan_graph::{Adjacency, Node};

/// Transcript of a [`SyncNetwork`] run, where a *round* is one synchronous
/// message exchange.  The `rspan-asim` event scheduler keeps the same
/// accounting per virtual clock tick (its `AsimStats::delivered_at`); with
/// unit latency and no loss the two transcripts are identical —
/// property-tested in `rspan-asim`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunStats {
    /// Number of rounds executed.
    pub rounds: u32,
    /// Total point-to-point transmissions (a broadcast to `d` neighbors counts `d`).
    pub messages: u64,
    /// Transmissions per round.  A round kept alive only by a pending timer
    /// records 0.
    pub messages_per_round: Vec<u64>,
    /// Whether every node reported `is_done` when the run stopped.
    pub all_done: bool,
}

/// The synchronous network simulator over a fixed communication topology.
pub struct SyncNetwork {
    /// Sorted neighbor list of every node.
    neighbors: Vec<Vec<Node>>,
}

impl SyncNetwork {
    /// Creates a simulator over any adjacency — a CSR snapshot, or the
    /// [`rspan_graph::DynamicGraph`] a live [`rspan_engine::RspanEngine`]
    /// owns — by materialising the sorted neighbor lists once.
    pub fn new<A: Adjacency + ?Sized>(graph: &A) -> Self {
        SyncNetwork {
            neighbors: rspan_graph::sorted_neighbor_lists(graph),
        }
    }

    /// Number of nodes in the communication topology.
    pub fn n(&self) -> usize {
        self.neighbors.len()
    }

    /// Runs one [`ProtocolNode`] instance per node under the synchronous
    /// round policy until no message is in flight and no timer is armed, or
    /// until `max_rounds` rounds ran.  Returns the per-node final states and
    /// the run stats.
    ///
    /// * [`ProtocolNode::on_start`] runs at time 0.
    /// * What the nodes send at time `r` is round `r`: it is delivered at
    ///   time `r + 1`, each inbox in sender-ascending order (emission order
    ///   within one sender).
    /// * After a node's deliveries, its timers due at that time fire in
    ///   arming order — the event scheduler's deliveries-before-timers order
    ///   at equal timestamps.
    /// * A round without sends still runs while any timer is armed, and
    ///   records 0 messages.
    ///
    /// Panics if a node unicasts to a non-neighbor.
    pub fn run_protocol<P, F>(&self, make_node: F, max_rounds: u32) -> (Vec<P>, RunStats)
    where
        P: ProtocolNode,
        F: FnMut(Node) -> P,
    {
        let n = self.n();
        let mut nodes: Vec<P> = (0..n as Node).map(make_node).collect();
        // Per node, reused across rounds: the requests of its latest
        // callbacks, its armed timers as `(fire_time, token)` in arming
        // order, and its inbox as `(sender, payload)`.
        let mut ops: Vec<PendingOps<P::Msg>> = (0..n).map(|_| PendingOps::default()).collect();
        let mut timers: Vec<Vec<(u64, u32)>> = vec![Vec::new(); n];
        let mut inboxes: Vec<Vec<(Node, P::Msg)>> = (0..n).map(|_| Vec::new()).collect();
        let mut due: Vec<u32> = Vec::new();
        for (u, node) in nodes.iter_mut().enumerate() {
            node.on_start(&mut BufferedTransport {
                me: u as Node,
                now: 0,
                neighbors: &self.neighbors[u],
                ops: &mut ops[u],
            });
            arm(&mut timers[u], &mut ops[u].timers, 0);
        }
        let mut stats = RunStats {
            rounds: 0,
            messages: 0,
            messages_per_round: Vec::new(),
            all_done: false,
        };
        for round in 0..max_rounds {
            let mut sent = 0u64;
            for (u, node_ops) in ops.iter_mut().enumerate() {
                for out in node_ops.sends.drain(..) {
                    match out {
                        Outgoing::Unicast(to, m) => {
                            assert!(
                                self.neighbors[u].binary_search(&to).is_ok(),
                                "node {u} attempted to send to non-neighbor {to}"
                            );
                            sent += 1;
                            inboxes[to as usize].push((u as Node, m));
                        }
                        Outgoing::Broadcast(m) => {
                            for &w in &self.neighbors[u] {
                                sent += 1;
                                inboxes[w as usize].push((u as Node, m.clone()));
                            }
                        }
                    }
                }
            }
            if sent == 0 && timers.iter().all(Vec::is_empty) {
                break;
            }
            stats.rounds = round + 1;
            stats.messages += sent;
            stats.messages_per_round.push(sent);
            let now = u64::from(round) + 1;
            for (u, node) in nodes.iter_mut().enumerate() {
                let mut net = BufferedTransport {
                    me: u as Node,
                    now,
                    neighbors: &self.neighbors[u],
                    ops: &mut ops[u],
                };
                for (from, m) in inboxes[u].drain(..) {
                    node.on_message(&mut net, from, &m);
                }
                // Timers these callbacks arm join the list only afterwards;
                // their delay is at least 1, so none of them is due now.
                due.clear();
                timers[u].retain(|&(fire, token)| {
                    let fires = fire <= now;
                    if fires {
                        due.push(token);
                    }
                    !fires
                });
                for &token in &due {
                    node.on_timer(&mut net, token);
                }
                arm(&mut timers[u], &mut ops[u].timers, now);
            }
        }
        stats.all_done = nodes.iter().all(|p| p.is_done());
        (nodes, stats)
    }
}

/// Moves the timer requests of callbacks run at `now` onto the node's armed
/// list as absolute fire times.
fn arm(armed: &mut Vec<(u64, u32)>, requested: &mut Vec<(u64, u32)>, now: u64) {
    armed.extend(
        requested
            .drain(..)
            .map(|(delay, token)| (now + delay, token)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Transport;
    use rspan_graph::generators::structured::{cycle_graph, path_graph, star_graph};
    use std::collections::HashSet;

    /// Toy protocol: every node floods a token with a TTL and marks itself
    /// done when its `ttl`-unit deadline fires (every origin within `ttl`
    /// hops has arrived by then); used to validate the simulator's delivery
    /// and accounting.
    struct Flood {
        ttl: u32,
        seen: HashSet<Node>,
        done: bool,
    }

    impl ProtocolNode for Flood {
        type Msg = (Node, u32); // (origin, remaining ttl)

        fn on_start(&mut self, net: &mut dyn Transport<Self::Msg>) {
            self.seen.insert(net.me());
            net.send(Outgoing::Broadcast((net.me(), self.ttl)));
            net.set_timer(u64::from(self.ttl), 0);
        }

        fn on_message(&mut self, net: &mut dyn Transport<Self::Msg>, _from: Node, msg: &Self::Msg) {
            let (origin, ttl) = *msg;
            if self.seen.insert(origin) && ttl > 1 {
                net.send(Outgoing::Broadcast((origin, ttl - 1)));
            }
        }

        fn on_timer(&mut self, _net: &mut dyn Transport<Self::Msg>, _token: u32) {
            self.done = true;
        }

        fn is_done(&self) -> bool {
            self.done
        }
    }

    fn flood(ttl: u32) -> impl FnMut(Node) -> Flood {
        move |_u| Flood {
            ttl,
            seen: HashSet::new(),
            done: false,
        }
    }

    #[test]
    fn flooding_with_ttl_reaches_exactly_the_ball() {
        let g = path_graph(9);
        let net = SyncNetwork::new(&g);
        let (states, stats) = net.run_protocol(flood(3), 100);
        // Node 0 must have seen origins within distance 3: {0,1,2,3}.
        let seen0: Vec<Node> = {
            let mut v: Vec<Node> = states[0].seen.iter().copied().collect();
            v.sort_unstable();
            v
        };
        assert_eq!(seen0, vec![0, 1, 2, 3]);
        // Node 4 (center) sees 1..=7.
        assert_eq!(states[4].seen.len(), 7);
        assert!(stats.rounds <= 4);
        assert!(stats.all_done);
        assert!(stats.messages > 0);
        assert_eq!(stats.messages_per_round.len(), stats.rounds as usize);
    }

    #[test]
    fn ttl_one_is_just_neighbor_discovery() {
        let g = star_graph(6);
        let net = SyncNetwork::new(&g);
        let (states, stats) = net.run_protocol(flood(1), 10);
        // The hub hears every leaf; each leaf hears only the hub.
        assert_eq!(states[0].seen.len(), 6);
        assert_eq!(states[3].seen.len(), 2);
        // Round 1: 2m messages (every node broadcasts once); round 2 nothing.
        assert_eq!(stats.messages_per_round[0], 2 * g.m() as u64);
        assert!(stats.rounds <= 2);
    }

    #[test]
    fn message_counts_on_cycle() {
        let g = cycle_graph(10);
        let net = SyncNetwork::new(&g);
        let (_, stats) = net.run_protocol(flood(2), 10);
        // Round 1: every node broadcasts to 2 neighbors = 20 messages.
        assert_eq!(stats.messages_per_round[0], 20);
        // Round 2: every node forwards the 2 fresh origins it just heard.
        assert_eq!(stats.messages_per_round[1], 40);
        assert!(stats.rounds >= 2);
    }

    #[test]
    fn owned_topology_runs_identically_to_csr() {
        // The same protocol over the same topology must produce the same
        // transcript whether the neighbor lists come from a CSR snapshot or
        // from a dynamic overlay.
        let g = path_graph(9);
        let mut dynamic = rspan_graph::DynamicGraph::new(cycle_graph(9));
        dynamic.remove_edge(0, 8); // cycle minus one edge = the same path
        let (states_csr, stats_csr) = SyncNetwork::new(&g).run_protocol(flood(3), 100);
        let (states_dyn, stats_dyn) = SyncNetwork::new(&dynamic).run_protocol(flood(3), 100);
        assert_eq!(stats_csr, stats_dyn);
        for (a, b) in states_csr.iter().zip(&states_dyn) {
            assert_eq!(a.seen, b.seen);
        }
    }

    #[test]
    fn max_rounds_cuts_off_runaway_protocols() {
        let g = cycle_graph(30);
        let net = SyncNetwork::new(&g);
        let (_, stats) = net.run_protocol(flood(1000), 3);
        assert_eq!(stats.rounds, 3);
        assert!(!stats.all_done);
    }

    /// What happened to a [`Recorder`], in callback order.
    #[derive(Debug, PartialEq, Eq)]
    enum Seen {
        Message { now: u64, from: Node },
        Timer { now: u64, token: u32 },
    }

    /// Arms `timers` as `(delay, token)` at start, optionally broadcasts at
    /// start, and broadcasts once more when the timer with `send_on` fires;
    /// records every delivery and timer with its time.
    struct Recorder {
        timers: Vec<(u64, u32)>,
        hello: bool,
        send_on: Option<u32>,
        log: Vec<Seen>,
    }

    impl ProtocolNode for Recorder {
        type Msg = ();

        fn on_start(&mut self, net: &mut dyn Transport<()>) {
            if self.hello {
                net.send(Outgoing::Broadcast(()));
            }
            for &(delay, token) in &self.timers {
                net.set_timer(delay, token);
            }
        }

        fn on_message(&mut self, net: &mut dyn Transport<()>, from: Node, _msg: &()) {
            self.log.push(Seen::Message {
                now: net.now(),
                from,
            });
        }

        fn on_timer(&mut self, net: &mut dyn Transport<()>, token: u32) {
            self.log.push(Seen::Timer {
                now: net.now(),
                token,
            });
            if self.send_on == Some(token) {
                net.send(Outgoing::Broadcast(()));
            }
        }

        fn is_done(&self) -> bool {
            true
        }
    }

    #[test]
    fn deliveries_come_before_timers_due_at_the_same_time() {
        // Every node says hello at time 0 and arms tokens 7 then 3 for time
        // 1, when the hellos arrive: the hub must see both leaves' hellos
        // (sender-ascending) before either timer, and the timers in arming
        // order, not token order.
        let g = star_graph(3);
        let (nodes, stats) = SyncNetwork::new(&g).run_protocol(
            |_| Recorder {
                timers: vec![(1, 7), (1, 3)],
                hello: true,
                send_on: None,
                log: Vec::new(),
            },
            10,
        );
        assert_eq!(
            nodes[0].log,
            vec![
                Seen::Message { now: 1, from: 1 },
                Seen::Message { now: 1, from: 2 },
                Seen::Timer { now: 1, token: 7 },
                Seen::Timer { now: 1, token: 3 },
            ]
        );
        assert_eq!(stats.messages_per_round, vec![4]);
    }

    #[test]
    fn an_armed_timer_keeps_silent_rounds_alive() {
        // Nothing is sent until a timer fires at time 3; the rounds before
        // it must still run, recording 0 messages, or the timer is stranded.
        let g = path_graph(3);
        let recorder = |timers: Vec<(u64, u32)>| {
            move |_| Recorder {
                timers: timers.clone(),
                hello: false,
                send_on: Some(1),
                log: Vec::new(),
            }
        };
        let (nodes, stats) = SyncNetwork::new(&g).run_protocol(recorder(vec![(3, 1)]), 10);
        assert_eq!(stats.messages_per_round, vec![0, 0, 0, 4]);
        assert_eq!(stats.rounds, 4);
        assert_eq!(
            nodes[1].log,
            vec![
                Seen::Timer { now: 3, token: 1 },
                Seen::Message { now: 4, from: 0 },
                Seen::Message { now: 4, from: 2 },
            ]
        );
        // With no timer armed, a silent protocol runs no round at all.
        let (_, idle) = SyncNetwork::new(&g).run_protocol(recorder(Vec::new()), 10);
        assert_eq!(idle.rounds, 0);
        assert!(idle.messages_per_round.is_empty());
    }

    struct Stray;

    impl ProtocolNode for Stray {
        type Msg = ();
        fn on_start(&mut self, net: &mut dyn Transport<()>) {
            if net.me() == 0 {
                net.send(Outgoing::Unicast(2, ()));
            }
        }
        fn on_message(&mut self, _net: &mut dyn Transport<()>, _from: Node, _msg: &()) {}
        fn is_done(&self) -> bool {
            true
        }
    }

    #[test]
    #[should_panic(expected = "non-neighbor")]
    fn unicast_to_a_non_neighbor_panics() {
        SyncNetwork::new(&path_graph(3)).run_protocol(|_| Stray, 10);
    }
}
