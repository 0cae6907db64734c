//! Integration tests for the operational side: greedy link-state routing over
//! remote-spanners and incremental restabilisation after topology changes —
//! the two behaviours the paper's introduction and §2.3 promise.

use remote_spanners::core::{
    advertisement_cost, epsilon_remote_spanner, exact_remote_spanner, full_topology,
    two_connecting_remote_spanner, verify_remote_stretch,
};
use remote_spanners::distributed::{
    apply_change, greedy_route, measure_routing, DeltaRouter, RouteOutcome, RoutingTables,
    TopologyChange, TreeStrategy,
};
use remote_spanners::engine::RspanEngine;
use remote_spanners::graph::generators::{gnp_connected, grid_graph, uniform_udg};
use remote_spanners::graph::{CsrGraph, Node};

fn all_ordered_pairs(g: &CsrGraph) -> Vec<(Node, Node)> {
    let mut out = Vec::new();
    for s in g.nodes() {
        for t in g.nodes() {
            if s != t {
                out.push((s, t));
            }
        }
    }
    out
}

#[test]
fn greedy_routing_respects_every_guarantee() {
    let g = uniform_udg(140, 4.0, 1.0, 3).graph;
    let pairs = all_ordered_pairs(&g);
    for (built, allowed_mult) in [
        (full_topology(&g), 1.0),
        (exact_remote_spanner(&g), 1.0),
        (epsilon_remote_spanner(&g, 0.5), 1.5),
        (two_connecting_remote_spanner(&g), 2.0),
    ] {
        let report = measure_routing(&built.spanner, &pairs);
        assert_eq!(report.failed, 0, "{}: undelivered packets", built.name);
        assert!(
            report.max_stretch <= allowed_mult + 1e-9,
            "{}: routing stretch {} above {}",
            built.name,
            report.max_stretch,
            allowed_mult
        );
        assert!(report.mean_stretch >= 1.0 - 1e-12);
    }
}

#[test]
fn remote_spanners_reduce_advertisement_cost_on_dense_networks() {
    let g = uniform_udg(250, 4.0, 1.0, 5).graph; // dense: ~ n/5 neighbors each
    let full = full_topology(&g);
    let sparse = exact_remote_spanner(&g);
    let (full_adv, _) = advertisement_cost(&full.spanner);
    let (sparse_adv, _) = advertisement_cost(&sparse.spanner);
    assert!(
        sparse_adv * 1.5 < full_adv,
        "expected a clear advertisement saving ({sparse_adv:.1} vs {full_adv:.1} links/node)"
    );
}

#[test]
fn routing_individual_outcomes_are_well_formed() {
    let g = grid_graph(6, 6);
    let built = exact_remote_spanner(&g);
    for &(s, t) in &[(0u32, 35u32), (5, 30), (0, 0)] {
        match greedy_route(&built.spanner, s, t) {
            RouteOutcome::Delivered(path) => {
                assert_eq!(path[0], s);
                assert_eq!(*path.last().unwrap(), t);
                for w in path.windows(2) {
                    assert!(g.has_edge(w[0], w[1]), "hop {:?} is not a link", w);
                }
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }
}

#[test]
fn restabilisation_after_changes_stays_correct_and_local() {
    let strategies = [
        TreeStrategy::KGreedy { k: 1 },
        TreeStrategy::KGreedy { k: 2 },
        TreeStrategy::KMis { k: 2 },
    ];
    for seed in [3u64, 4] {
        let g = gnp_connected(70, 0.07, seed);
        let (eu, ev) = g.edges().nth(seed as usize % g.m()).unwrap();
        let change = TopologyChange::RemoveEdge(eu, ev);
        let g2 = apply_change(&g, change);
        for strategy in strategies {
            let mut engine = RspanEngine::new(g.clone(), strategy.algo());
            let delta = engine.commit(&[change]);
            // The incremental result must still be a valid remote-spanner of
            // the new graph (checked against the strategy's implied guarantee:
            // at least (2, 1), which every strategy here satisfies).
            let loose = remote_spanners::core::StretchGuarantee {
                alpha: 2.0,
                beta: 1.0,
                k: 1,
            };
            assert!(
                verify_remote_stretch(&engine.spanner_on(&g2), &loose).holds(),
                "seed {seed}, {strategy:?}: restabilised spanner invalid"
            );
            assert!(delta.recomputed_fraction(g.n()) <= 1.0);
            assert!(!delta.recomputed.is_empty());
        }
    }
}

#[test]
fn churn_session_routes_correctly_through_repaired_tables() {
    // End-to-end: one caller-held engine + router absorbs a stream of
    // changes; after every round the repaired tables must equal a
    // from-scratch build and still deliver packets along shortest H_u paths.
    let g = uniform_udg(80, 4.0, 1.0, 11).graph;
    let strategy = TreeStrategy::KGreedy { k: 2 };
    let mut engine = RspanEngine::new(g.clone(), strategy.algo());
    let mut router = DeltaRouter::new(&engine);
    let mut reference = g.clone();
    let edges: Vec<(Node, Node)> = g.edges().take(4).collect();
    for (round, &(u, v)) in edges.iter().enumerate() {
        let change = TopologyChange::RemoveEdge(u, v);
        let delta = engine.commit(&[change]);
        let stats = router.apply(&engine, &[change], &delta);
        assert_eq!(delta.epoch, round as u64 + 1);
        assert!(stats.rows_recomputed >= 2);
        reference = apply_change(&reference, change);
        let full = RoutingTables::build(&engine.spanner_on(&reference));
        assert_eq!(
            router.tables(),
            &full,
            "round {round}: session tables diverged from a from-scratch build"
        );
    }
    // Spot-check forwarding against true shortest-path lower bounds.
    for s in [0u32, 17, 42] {
        for t in [5u32, 63, 79] {
            if s == t {
                continue;
            }
            if let Some(path) = router.forward(s, t) {
                let d = router.table_distance(s, t).unwrap();
                assert!(path.len() as u32 - 1 <= d);
            }
        }
    }
}

#[test]
fn long_lived_engine_matches_a_fresh_engine_per_change() {
    // Commits on a caller-held engine (overlay, tree caches and scratch
    // pools reused across changes) must agree with rebuilding a fresh
    // engine before every change, change for change.
    let g = gnp_connected(60, 0.08, 21);
    let strategy = TreeStrategy::KGreedy { k: 1 };
    let mut engine = RspanEngine::new(g.clone(), strategy.algo());
    let mut current = g.clone();
    let edges: Vec<(Node, Node)> = g.edges().take(3).collect();
    for &(u, v) in &edges {
        let change = TopologyChange::RemoveEdge(u, v);
        let next = apply_change(&current, change);
        let mut fresh = RspanEngine::new(current.clone(), strategy.algo());
        let fresh_delta = fresh.commit(&[change]);
        let delta = engine.commit(&[change]);
        let session_edges: Vec<(Node, Node)> = engine.spanner_on(&next).edges().collect();
        let fresh_edges: Vec<(Node, Node)> = fresh.spanner_on(&next).edges().collect();
        assert_eq!(session_edges, fresh_edges);
        let mut recomputed = delta.recomputed.clone();
        recomputed.sort_unstable();
        let mut fresh_recomputed = fresh_delta.recomputed.clone();
        fresh_recomputed.sort_unstable();
        assert_eq!(recomputed, fresh_recomputed);
        current = next;
    }
}

#[test]
fn repeated_changes_converge_to_the_from_scratch_construction() {
    let strategy = TreeStrategy::KGreedy { k: 1 };
    let g0 = gnp_connected(50, 0.1, 13);
    // Apply three successive changes, restabilising after each, and compare
    // with building from scratch on the final graph.
    let mut current = g0.clone();
    let mut changes = Vec::new();
    // remove two existing edges and add one new pair
    let e: Vec<(Node, Node)> = current.edges().take(2).collect();
    changes.push(TopologyChange::RemoveEdge(e[0].0, e[0].1));
    changes.push(TopologyChange::RemoveEdge(e[1].0, e[1].1));
    'outer: for u in current.nodes() {
        for v in current.nodes() {
            if u < v && !current.has_edge(u, v) {
                changes.push(TopologyChange::AddEdge(u, v));
                break 'outer;
            }
        }
    }
    let mut engine = RspanEngine::new(current.clone(), strategy.algo());
    let mut spanner_edges: Option<Vec<(Node, Node)>> = None;
    for change in changes {
        let next = apply_change(&current, change);
        engine.commit(&[change]);
        spanner_edges = Some(engine.spanner_on(&next).edges().collect());
        current = next;
    }
    let from_scratch = remote_spanners::core::rem_span(&current, |g, u| strategy.build_tree(g, u));
    let scratch_edges: Vec<(Node, Node)> = from_scratch.edges().collect();
    assert_eq!(spanner_edges.unwrap(), scratch_edges);
}
