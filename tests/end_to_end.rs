//! Integration tests spanning the whole workspace: build each construction on
//! several graph families, verify every paper guarantee with the independent
//! checkers, and confirm that the distributed protocol, the LOCAL-view
//! computation and the centralized construction all agree.

use remote_spanners::core::{
    epsilon_remote_spanner, epsilon_remote_spanner_greedy, exact_remote_spanner,
    k_connecting_remote_spanner, k_mis_remote_spanner, spanner_stats,
    two_connecting_remote_spanner, verify_k_connecting, verify_remote_stretch,
};
use remote_spanners::distributed::run_remspan_protocol;
use remote_spanners::domtree::{
    dom_tree_greedy, dom_tree_k_greedy, dom_tree_k_mis, dom_tree_mis, is_dominating_tree,
    is_k_connecting_dominating_tree, TreeAlgo,
};
use remote_spanners::graph::generators::{
    complete_bipartite, cycle_graph, gnp_connected, grid_graph, hypercube_graph, petersen,
    uniform_udg,
};
use remote_spanners::graph::CsrGraph;

/// The graph families every end-to-end test sweeps over.
fn families() -> Vec<(String, CsrGraph)> {
    vec![
        ("cycle-15".into(), cycle_graph(15)),
        ("grid-6x6".into(), grid_graph(6, 6)),
        ("petersen".into(), petersen()),
        ("hypercube-4".into(), hypercube_graph(4)),
        ("K(3,5)".into(), complete_bipartite(3, 5)),
        ("gnp-70".into(), gnp_connected(70, 0.07, 11)),
        ("udg-150".into(), uniform_udg(150, 4.0, 1.0, 11).graph),
    ]
}

#[test]
fn every_construction_satisfies_its_guarantee_on_every_family() {
    for (name, g) in families() {
        for built in [
            exact_remote_spanner(&g),
            k_connecting_remote_spanner(&g, 2),
            k_connecting_remote_spanner(&g, 3),
            epsilon_remote_spanner(&g, 1.0),
            epsilon_remote_spanner(&g, 0.5),
            epsilon_remote_spanner(&g, 1.0 / 3.0),
            epsilon_remote_spanner_greedy(&g, 0.5),
            two_connecting_remote_spanner(&g),
            k_mis_remote_spanner(&g, 3),
        ] {
            let report = verify_remote_stretch(&built.spanner, &built.guarantee);
            assert!(
                report.holds(),
                "{name} / {}: {} violations (worst {:?})",
                built.name,
                report.violations,
                report.worst_violation
            );
            // Basic sanity of the statistics layer.
            let stats = spanner_stats(&built.spanner);
            assert_eq!(stats.spanner_edges, built.num_edges());
            assert!(stats.spanner_edges <= stats.input_edges);
        }
    }
}

#[test]
fn k_connecting_guarantees_hold_on_small_families() {
    // Exhaustive flow-based verification is expensive; restrict to the small
    // fixed families where every pair can be checked.
    for (name, g) in [
        ("cycle-12".to_string(), cycle_graph(12)),
        ("petersen".to_string(), petersen()),
        ("K(3,5)".to_string(), complete_bipartite(3, 5)),
        ("grid-4x5".to_string(), grid_graph(4, 5)),
        ("gnp-30".to_string(), gnp_connected(30, 0.2, 5)),
    ] {
        for k in [1usize, 2, 3] {
            let built = k_connecting_remote_spanner(&g, k);
            let report = verify_k_connecting(&built.spanner, &built.guarantee);
            assert!(
                report.holds(),
                "{name}: Theorem 2 k={k} violated ({:?})",
                report.worst
            );
        }
        let built = two_connecting_remote_spanner(&g);
        let report = verify_k_connecting(&built.spanner, &built.guarantee);
        assert!(
            report.holds(),
            "{name}: Theorem 3 violated ({:?})",
            report.worst
        );
    }
}

#[test]
fn per_node_trees_satisfy_their_definitions_on_every_family() {
    for (name, g) in families() {
        for u in g.nodes().step_by(3) {
            let t1 = dom_tree_greedy(&g, u, 3, 1);
            assert!(is_dominating_tree(&g, &t1, 3, 1), "{name}: Alg 1 at {u}");
            let t2 = dom_tree_mis(&g, u, 3);
            assert!(is_dominating_tree(&g, &t2, 3, 1), "{name}: Alg 2 at {u}");
            let t4 = dom_tree_k_greedy(&g, u, 2);
            assert!(
                is_k_connecting_dominating_tree(&g, &t4, 0, 2),
                "{name}: Alg 4 at {u}"
            );
            let t5 = dom_tree_k_mis(&g, u, 2);
            assert!(
                is_k_connecting_dominating_tree(&g, &t5, 1, 2),
                "{name}: Alg 5 at {u}"
            );
        }
    }
}

#[test]
fn distributed_protocol_reproduces_every_centralized_construction() {
    for (name, g) in [
        ("grid-6x6".to_string(), grid_graph(6, 6)),
        ("gnp-60".to_string(), gnp_connected(60, 0.08, 21)),
        ("udg-120".to_string(), uniform_udg(120, 4.0, 1.0, 21).graph),
    ] {
        for (strategy, central) in [
            (TreeAlgo::KGreedy { k: 1 }, exact_remote_spanner(&g).spanner),
            (
                TreeAlgo::KGreedy { k: 2 },
                k_connecting_remote_spanner(&g, 2).spanner,
            ),
            (
                TreeAlgo::Mis { r: 3 },
                epsilon_remote_spanner(&g, 0.5).spanner,
            ),
            (
                TreeAlgo::KMis { k: 2 },
                two_connecting_remote_spanner(&g).spanner,
            ),
        ] {
            let run = run_remspan_protocol(&g, strategy);
            assert_eq!(
                run.spanner.edge_set(),
                central.edge_set(),
                "{name}: protocol with {strategy:?} diverged from the centralized result"
            );
            assert!(run.stats.rounds <= strategy.expected_rounds() + 1);
        }
    }
}

#[test]
fn spanner_edge_counts_are_ordered_by_strength() {
    // More connectivity (larger k) can only require more edges; the exact
    // (1,0) construction is at least as large as nothing and at most the graph.
    for (_, g) in families() {
        let e1 = exact_remote_spanner(&g).num_edges();
        let e2 = k_connecting_remote_spanner(&g, 2).num_edges();
        let e3 = k_connecting_remote_spanner(&g, 3).num_edges();
        assert!(e1 <= e2 && e2 <= e3, "k-connecting sizes not monotone");
        assert!(e3 <= g.m());
        // Coarser ε keeps no more edges than the full graph and the exact RS
        // keeps at least a dominating structure when distance-2 pairs exist.
        let eps1 = epsilon_remote_spanner(&g, 1.0).num_edges();
        assert!(eps1 <= g.m());
    }
}

#[test]
fn isolated_nodes_and_tiny_graphs_are_handled() {
    let empty = CsrGraph::empty(4);
    let built = exact_remote_spanner(&empty);
    assert_eq!(built.num_edges(), 0);
    assert!(verify_remote_stretch(&built.spanner, &built.guarantee).holds());

    let single_edge = CsrGraph::from_edges(5, &[(0, 1)]);
    for built in [
        exact_remote_spanner(&single_edge),
        two_connecting_remote_spanner(&single_edge),
        epsilon_remote_spanner(&single_edge, 0.5),
    ] {
        assert!(verify_remote_stretch(&built.spanner, &built.guarantee).holds());
    }

    let run = run_remspan_protocol(&empty, TreeAlgo::KGreedy { k: 1 });
    assert_eq!(run.spanner.num_edges(), 0);
    assert!(run.stats.all_done);
}
