//! The full RemSpan construction protocol ([`RemSpanNode`]) on live
//! threads: hello beacons, TTL-bounded link-state floods, a real timer
//! deadline driving the tree computation, tree-advert floods — and a final
//! per-node state identical to the synchronous-round reference.
//!
//! The tick is deliberately coarse (50 ms): floods cross loopback in
//! microseconds, so every node's `radius`-tick computation deadline fires
//! with exactly the same `radius`-hop knowledge the round-synchronous
//! simulator gives it, and the computed trees match bit for bit.

use rspan_distributed::{run_remspan_protocol, ProtocolNode, RemSpanNode};
use rspan_domtree::TreeAlgo;
use rspan_graph::generators::udg::uniform_udg;
use rspan_graph::{Adjacency, Node};
use rspan_net::{spawn_tcp, Cluster};
use rspan_telemetry::TelemetryHandle;
use std::time::Duration;

const STRATEGY: TreeAlgo = TreeAlgo::KGreedy { k: 2 };

fn adjacency_lists(graph: &impl Adjacency) -> Vec<Vec<Node>> {
    let mut lists = vec![Vec::new(); graph.num_nodes()];
    for (v, list) in lists.iter_mut().enumerate() {
        graph.for_each_neighbor(v as Node, &mut |u| list.push(u));
    }
    lists
}

fn assert_matches_sync_reference(graph: &rspan_graph::CsrGraph, nodes: &[RemSpanNode]) {
    let reference = run_remspan_protocol(graph, STRATEGY);
    for (v, node) in nodes.iter().enumerate() {
        assert!(node.is_done(), "node {v} must finish the protocol");
        assert!(node.has_computed(), "node {v} must pass its deadline");
    }
    for (v, (node, want)) in nodes
        .iter()
        .zip(&reference.incident_edge_counts)
        .enumerate()
    {
        assert_eq!(
            node.incident_spanner_edges().len(),
            *want,
            "node {v}'s learned incident spanner edges must match the \
             synchronous reference"
        );
    }
}

#[test]
fn remspan_protocol_runs_on_live_threads() {
    let inst = uniform_udg(48, 5.0, 1.0, 7);
    let neighbors = adjacency_lists(&inst.graph);
    let cluster: Cluster<RemSpanNode> = Cluster::spawn_threaded(
        neighbors,
        |_| RemSpanNode::new(STRATEGY),
        Duration::from_millis(50),
        TelemetryHandle::off(),
    );
    cluster.start_all();
    // Quiescence here includes the timer wheel: the counter only reaches
    // zero once every node's computation deadline fired and its tree-advert
    // flood drained.
    assert!(cluster.wait_quiesce(Duration::from_secs(60)));
    let nodes = cluster.shutdown();
    assert_matches_sync_reference(&inst.graph, &nodes);
}

#[test]
fn remspan_protocol_runs_over_tcp_sockets() {
    let inst = uniform_udg(16, 5.0, 1.0, 9);
    let neighbors = adjacency_lists(&inst.graph);
    let cluster: Cluster<RemSpanNode> = spawn_tcp(
        neighbors,
        |_| RemSpanNode::new(STRATEGY),
        Duration::from_millis(50),
        TelemetryHandle::off(),
    );
    cluster.start_all();
    assert!(cluster.wait_quiesce(Duration::from_secs(60)));
    let nodes = cluster.shutdown();
    assert_matches_sync_reference(&inst.graph, &nodes);
}
