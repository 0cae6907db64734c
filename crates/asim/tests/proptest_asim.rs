//! Seeded property tests for the asynchronous simulator.
//!
//! * **Lockstep equivalence** — with unit latency and zero loss the event
//!   scheduler must reproduce the synchronous round scheduler *exactly*:
//!   bit-identical per-node tree/spanner state, the same number of virtual
//!   rounds, and the same per-round delivery counts.  This pins the
//!   `Transport`/`ProtocolNode` abstraction: one protocol implementation,
//!   two scheduling policies, no drift.
//! * **Crash/recover safety** — a dirty node that is down when its §2.3
//!   repair wave begins re-floods on recovery and the network reconverges,
//!   at message cost proportional to the dirty balls.
//! * **Replay determinism** — same seed + same config ⇒ identical event
//!   trace, under loss, heavy-tailed latency and crashes simultaneously.

use rspan_asim::{
    run_remspan_protocol_async, Adversary, AsimConfig, AsyncNetwork, LatencyModel, VTime,
};
use rspan_distributed::{restabilise_flood, run_remspan_protocol, RepairNode};
use rspan_domtree::TreeAlgo;
use rspan_engine::{RspanEngine, TopologyChange};
use rspan_graph::generators::er::gnp_connected;
use rspan_graph::generators::structured::{cycle_graph, grid_graph, path_graph, petersen};
use rspan_graph::generators::udg::uniform_udg;
use rspan_graph::{CsrGraph, Node};
use std::collections::HashSet;

/// Sync `messages_per_round` expressed on the async delivery timeline: the
/// round-`r` sends are the tick-`r + 1` deliveries.  Rounds kept alive only
/// by a pending timer record 0 sends; the async timeline omits empty ticks.
fn rounds_as_ticks(messages_per_round: &[u64]) -> Vec<(VTime, u64)> {
    messages_per_round
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .map(|(r, &c)| (r as VTime + 1, c))
        .collect()
}

#[test]
fn lockstep_full_protocol_matches_sync_bit_for_bit() {
    let graphs: Vec<(String, CsrGraph)> = vec![
        // path2/path4 are the deadline-stranding regression: their floods
        // die before high-radius compute timers fire, so both schedulers
        // must keep the clock alive for pending deadlines identically.
        ("path2".into(), path_graph(2)),
        ("path4".into(), path_graph(4)),
        ("cycle12".into(), cycle_graph(12)),
        ("grid5x5".into(), grid_graph(5, 5)),
        ("petersen".into(), petersen()),
        ("gnp60".into(), gnp_connected(60, 0.08, 3)),
        ("udg100".into(), uniform_udg(100, 5.0, 1.0, 9).graph),
    ];
    let strategies = [
        TreeAlgo::KGreedy { k: 1 },
        TreeAlgo::KGreedy { k: 2 },
        TreeAlgo::KMis { k: 2 },
        TreeAlgo::Mis { r: 2 },
        TreeAlgo::Greedy { r: 3, beta: 1 },
    ];
    for (name, g) in &graphs {
        for strategy in strategies {
            let sync = run_remspan_protocol(g, strategy);
            let net = run_remspan_protocol_async(g, strategy, AsimConfig::lockstep(1), 10_000_000);
            let ctx = format!("{name} / {strategy:?}");

            // Same number of virtual rounds...
            assert_eq!(
                net.now(),
                u64::from(sync.stats.rounds),
                "{ctx}: virtual end time diverged from the round count"
            );
            // ...the same messages in each of them...
            assert_eq!(
                net.stats().delivered_at,
                rounds_as_ticks(&sync.stats.messages_per_round),
                "{ctx}: per-round delivery profile diverged"
            );
            assert_eq!(net.stats().delivered, sync.stats.messages, "{ctx}");
            assert_eq!(net.stats().transmissions, sync.stats.messages, "{ctx}");
            assert_eq!(
                net.stats().logical_messages(),
                net.stats().delivered,
                "{ctx}"
            );

            // ...and bit-identical protocol outcomes: every node computed the
            // same tree and learned the same incident spanner edges.
            let mut async_spanner: HashSet<(Node, Node)> = HashSet::new();
            for u in 0..g.n() as Node {
                let a = net.node(u);
                // The sync run consumed its states into the spanner, so
                // compare against a fresh sync execution's per-node states.
                async_spanner.extend(a.tree_edges().iter().map(|&(x, y)| ord(x, y)));
                assert!(a.has_computed(), "{ctx}: node {u} never computed");
            }
            let sync_spanner: HashSet<(Node, Node)> =
                sync.spanner.edges().map(|(x, y)| ord(x, y)).collect();
            assert_eq!(async_spanner, sync_spanner, "{ctx}: spanner diverged");

            let async_incident: Vec<usize> = net
                .nodes()
                .iter()
                .map(|s| s.incident_spanner_edges().len())
                .collect();
            assert_eq!(
                async_incident, sync.incident_edge_counts,
                "{ctx}: incident-edge knowledge diverged"
            );
        }
    }
}

fn ord(a: Node, b: Node) -> (Node, Node) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

#[test]
fn lockstep_repair_flood_matches_sync_bit_for_bit() {
    for seed in [3u64, 11, 21] {
        let inst = uniform_udg(120, 5.0, 1.0, seed);
        let mut engine = RspanEngine::new(inst.graph.clone(), TreeAlgo::KGreedy { k: 2 });
        let (eu, ev) = inst.graph.edges().next().unwrap();
        let batch = [TopologyChange::RemoveEdge(eu, ev)];
        let delta = engine.commit(&batch);
        let radius = engine.dirty_radius();
        let sync = restabilise_flood(&engine, &delta);

        let dirty: HashSet<Node> = delta.recomputed.iter().copied().collect();
        let mut net: AsyncNetwork<RepairNode> =
            AsyncNetwork::from_adjacency(engine.graph(), AsimConfig::lockstep(seed), |u| {
                let mut node = RepairNode::new(radius);
                node.begin_wave(
                    delta.epoch,
                    dirty.contains(&u).then(|| engine.tree_edges(u).to_vec()),
                );
                node
            });
        net.start();
        assert!(net.run_to_quiescence(10_000_000));

        assert_eq!(net.now(), u64::from(sync.stats.rounds), "seed {seed}");
        assert_eq!(net.stats().delivered, sync.stats.messages, "seed {seed}");
        assert_eq!(
            net.stats().delivered_at,
            rounds_as_ticks(&sync.stats.messages_per_round),
            "seed {seed}"
        );
        let async_refreshed: Vec<usize> = net
            .nodes()
            .iter()
            .map(|s| s.refreshed_link_state_count())
            .collect();
        assert_eq!(
            async_refreshed, sync.refreshed_link_state_counts,
            "seed {seed}: refreshed-link-state coverage diverged"
        );
        let async_incident: Vec<usize> = net
            .nodes()
            .iter()
            .map(|s| s.incident_update_count())
            .collect();
        assert_eq!(
            async_incident, sync.incident_update_counts,
            "seed {seed}: incident-update knowledge diverged"
        );
    }
}

/// Bounded-hop ball in the graph described by sorted adjacency lists,
/// optionally routing around one excluded (crashed) node.
fn ball_via(
    neighbors: &[Vec<Node>],
    src: Node,
    radius: u32,
    excluded: Option<Node>,
) -> HashSet<Node> {
    let mut seen = HashSet::from([src]);
    let mut frontier = vec![src];
    for _ in 0..radius {
        let mut next = Vec::new();
        for &u in &frontier {
            for &v in &neighbors[u as usize] {
                if Some(v) != excluded && seen.insert(v) {
                    next.push(v);
                }
            }
        }
        frontier = next;
    }
    seen
}

#[test]
fn crashed_dirty_node_refloods_on_recovery_and_network_reconverges() {
    let inst = uniform_udg(100, 5.0, 1.0, 17);
    let mut engine = RspanEngine::new(inst.graph.clone(), TreeAlgo::KGreedy { k: 2 });
    let (eu, ev) = inst.graph.edges().next().unwrap();
    let batch = [TopologyChange::RemoveEdge(eu, ev)];
    let delta = engine.commit(&batch);
    let radius = engine.dirty_radius();
    assert!(
        delta.recomputed.len() >= 2,
        "need several dirty nodes for the scenario"
    );
    let x = delta.recomputed[0]; // the node that crashes mid-stabilisation
    let recover_at: VTime = u64::from(radius) + 5; // after the first wave drains

    let mut net: AsyncNetwork<RepairNode> =
        AsyncNetwork::from_adjacency(engine.graph(), AsimConfig::lockstep(17), |_| {
            RepairNode::new(radius)
        });
    let adjacency: Vec<Vec<Node>> = (0..net.n() as Node)
        .map(|u| net.neighbors_of(u).to_vec())
        .collect();
    net.schedule_crash(0, x);
    net.schedule_recover(recover_at, x);
    net.run_until(0); // crash takes effect before origination
    assert!(!net.is_alive(x));
    for &d in &delta.recomputed {
        let tree = engine.tree_edges(d).to_vec();
        if d == x {
            // Crashed: arm the wave only; it originates in on_recover.
            net.node_mut(x).begin_wave(delta.epoch, Some(tree));
        } else {
            net.inject(d, |node, t| {
                node.begin_wave(delta.epoch, Some(tree));
                node.originate(t);
            });
        }
    }
    assert!(net.run_to_quiescence(10_000_000));

    // The network reconverged: the late re-flood propagated like a fresh
    // wave, and everything drained shortly after recovery.
    assert!(net.is_alive(x));
    assert!(net.node(x).has_refreshed(delta.epoch, x));
    assert!(net.now() >= recover_at, "recovery flood must happen");
    assert!(
        net.now() <= recover_at + u64::from(radius) + 1,
        "re-flood must quiesce within its TTL: ended at {}",
        net.now()
    );

    for v in 0..net.n() as Node {
        if v == x {
            continue;
        }
        // x's own (late) flood runs over the fully-alive network: coverage
        // is exactly its radius-ball.
        let in_x_ball = ball_via(&adjacency, x, radius, None).contains(&v);
        assert_eq!(
            net.node(v).has_refreshed(delta.epoch, x),
            in_x_ball,
            "node {v} vs crashed origin {x}"
        );
        // The other origins flooded while x was down: anything reachable
        // without routing through x must still have been covered, and
        // nothing outside the plain ball can be.
        for &d in &delta.recomputed {
            if d == x {
                continue;
            }
            if ball_via(&adjacency, d, radius, Some(x)).contains(&v) {
                assert!(
                    net.node(v).has_refreshed(delta.epoch, d),
                    "node {v} lost origin {d}'s flood although a path avoided the crash"
                );
            }
            if !ball_via(&adjacency, d, radius, None).contains(&v) {
                assert!(
                    !net.node(v).has_refreshed(delta.epoch, d),
                    "node {v} heard origin {d} from beyond the TTL radius"
                );
            }
        }
    }

    // Message cost stays proportional to the dirty balls: far below a full
    // protocol re-run on the same topology.
    let csr = engine.to_csr();
    let full = run_remspan_protocol(&csr, TreeAlgo::KGreedy { k: 2 });
    assert!(
        net.stats().delivered < full.stats.messages / 2,
        "incremental {} vs full {}",
        net.stats().delivered,
        full.stats.messages
    );
    // The only losses are deliveries into the crashed node.
    assert_eq!(net.stats().dropped_loss, 0);
    assert!(net.stats().dropped_down > 0, "x was down mid-flood");
}

#[test]
fn replay_full_protocol_trace_is_identical_per_seed() {
    let g = gnp_connected(50, 0.1, 7);
    let cfg = AsimConfig {
        latency: LatencyModel::HeavyTailed {
            min: 1,
            alpha: 1.4,
            cap: 24,
        },
        loss: 0.25,
        max_retries: 2,
        retry_timeout: 3,
        seed: 2024,
        record_trace: true,
        adversary: Adversary::None,
    };
    let run = |cfg: AsimConfig| {
        let mut net = AsyncNetwork::from_adjacency(&g, cfg, |_| {
            rspan_distributed::RemSpanNode::new(TreeAlgo::KGreedy { k: 2 })
        });
        net.schedule_crash(3, 5);
        net.schedule_recover(11, 5);
        net.start();
        assert!(net.run_to_quiescence(10_000_000));
        (net.trace().to_vec(), net.stats().clone(), net.now())
    };
    let (trace_a, stats_a, end_a) = run(cfg.clone());
    let (trace_b, stats_b, end_b) = run(cfg.clone());
    assert!(!trace_a.is_empty());
    assert_eq!(trace_a, trace_b, "same seed must replay the same trace");
    assert_eq!(stats_a, stats_b);
    assert_eq!(end_a, end_b);
    assert!(stats_a.dropped_loss > 0, "25% loss must drop something");

    // Schema of the enriched trace: deliveries carry the frame's wire size,
    // transmit-time drops carry a structured cause, and the stats and trace
    // agree on how many frames were lost.
    let loss_drops = trace_a
        .iter()
        .filter(|e| e.class == 3 && e.cause == rspan_asim::DropCause::Loss)
        .count() as u64;
    assert_eq!(
        loss_drops, stats_a.dropped_loss,
        "trace/stats loss mismatch"
    );
    for ev in &trace_a {
        match ev.class {
            1 => {
                assert!(ev.bytes > 0, "delivery with no wire size: {ev:?}");
                // A frame delivered into a live node was not dropped.
            }
            3 => assert_ne!(
                ev.cause,
                rspan_asim::DropCause::None,
                "transmit-time drop without a cause: {ev:?}"
            ),
            _ => assert_eq!(ev.bytes, 0, "non-frame event carries bytes: {ev:?}"),
        }
    }

    let (trace_c, _, _) = run(AsimConfig { seed: 4048, ..cfg });
    assert_ne!(trace_a, trace_c, "a different seed must reorder the run");
}

#[test]
fn loss_degrades_coverage_gracefully_not_catastrophically() {
    // Under mild loss with retransmission the protocol still computes on
    // most nodes; the simulator quantifies the deficit instead of hiding it.
    let g = uniform_udg(150, 6.0, 1.0, 23).graph;
    let lossless = run_remspan_protocol_async(
        &g,
        TreeAlgo::KGreedy { k: 2 },
        AsimConfig::lockstep(1),
        10_000_000,
    );
    let lossy_cfg = AsimConfig {
        loss: 0.1,
        max_retries: 2,
        ..AsimConfig::lockstep(1)
    };
    let lossy = run_remspan_protocol_async(&g, TreeAlgo::KGreedy { k: 2 }, lossy_cfg, 10_000_000);
    let computed = |net: &AsyncNetwork<rspan_distributed::RemSpanNode>| {
        net.nodes().iter().filter(|n| n.has_computed()).count()
    };
    assert_eq!(computed(&lossless), g.n());
    let lossy_computed = computed(&lossy);
    assert!(
        lossy_computed > g.n() * 8 / 10,
        "retransmission should hold coverage: {lossy_computed}/{}",
        g.n()
    );
    // Loss can only shrink the collected link-state views, never grow them.
    let coverage = |net: &AsyncNetwork<rspan_distributed::RemSpanNode>| {
        net.nodes()
            .iter()
            .map(|n| n.link_state_count())
            .sum::<usize>()
    };
    let (full, degraded) = (coverage(&lossless), coverage(&lossy));
    assert!(full > 0);
    assert!(
        degraded <= full,
        "lossy coverage {degraded} exceeded lossless {full}"
    );
    assert!(lossy.stats().dropped_loss > 0);
    assert!(
        lossy.stats().transmissions > lossy.stats().logical_messages(),
        "retries must show up in the attempt count"
    );
}
