//! Multipoint relays (MPR), the OLSR notion the paper generalises.
//!
//! Section 1.2 observes that the multipoint relays of OLSR are exactly
//! `(2, 0)`-dominating trees (their union forms a `(1, 0)`-remote-spanner) and
//! that the *k-coverage* extension corresponds to k-connecting
//! `(2, 0)`-dominating trees.  This module exposes that correspondence with
//! the routing-protocol vocabulary: a relay set is a subset of `N(u)` covering
//! the two-hop neighborhood.

use crate::kgreedy::{dom_tree_k_greedy_with_scratch, dom_tree_k_greedy_with_set};
use crate::scratch::DomScratch;
use rspan_graph::{bfs_distances_bounded, Adjacency, EpochFlags, Node};

/// Computes a multipoint-relay set of `u` with coverage parameter `k`
/// (`k = 1` is the classical OLSR MPR set) using the greedy heuristic of
/// Algorithm 4.
pub fn mpr_set<A>(graph: &A, u: Node, k: usize) -> Vec<Node>
where
    A: Adjacency + ?Sized,
{
    dom_tree_k_greedy_with_set(graph, u, k).1
}

/// Pooled form of [`mpr_set`]: the relay slice borrows from `scratch` and
/// stays valid until the next build on the same scratch.
pub fn mpr_set_with_scratch<'s, A>(
    graph: &A,
    u: Node,
    k: usize,
    scratch: &'s mut DomScratch,
) -> &'s [Node]
where
    A: Adjacency + ?Sized,
{
    dom_tree_k_greedy_with_scratch(graph, u, k, scratch).1
}

/// Checks the k-coverage MPR property: every strict two-hop neighbor of `u`
/// is adjacent to at least `k` relays, or to all of its common neighbors with
/// `u` if it has fewer than `k`.
///
/// Common-neighbor membership is tested against a neighbor bitmap
/// ([`EpochFlags`]), so the check costs `O(Σ deg(v))` over the two-hop nodes
/// instead of the `O(deg(v) · deg(u))` a linear scan of `N(u)` would.
pub fn is_valid_mpr_set<A>(graph: &A, u: Node, relays: &[Node], k: usize) -> bool
where
    A: Adjacency + ?Sized,
{
    let n = graph.num_nodes();
    let mut is_relay = EpochFlags::new();
    is_relay.begin(n);
    for &x in relays {
        if !graph.contains_edge(u, x) {
            return false; // relays must be neighbors of u
        }
        is_relay.set(x);
    }
    let mut is_neighbor = EpochFlags::new();
    is_neighbor.begin(n);
    graph.for_each_neighbor(u, &mut |w| {
        is_neighbor.set(w);
    });
    let dist = bfs_distances_bounded(graph, u, 2);
    for v in 0..n as Node {
        if dist[v as usize] != Some(2) {
            continue;
        }
        let mut covered = 0usize;
        let mut common = 0usize;
        graph.for_each_neighbor(v, &mut |w| {
            if is_neighbor.test(w) {
                common += 1;
                if is_relay.test(w) {
                    covered += 1;
                }
            }
        });
        if covered < k.min(common) {
            return false;
        }
    }
    true
}

/// Total number of relay selections over all nodes of the graph — the
/// quantity whose expectation is analysed in the paper's reference \[14\] and
/// which drives the `O(n^{4/3})` bound of Theorem 2.  Runs on a single pooled
/// scratch across all nodes.
pub fn total_mpr_selections<A>(graph: &A, k: usize) -> usize
where
    A: Adjacency + ?Sized,
{
    let mut scratch = DomScratch::new();
    (0..graph.num_nodes() as Node)
        .map(|u| mpr_set_with_scratch(graph, u, k, &mut scratch).len())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rspan_graph::generators::er::gnp_connected;
    use rspan_graph::generators::structured::{cycle_graph, grid_graph, petersen};
    use rspan_graph::generators::udg::uniform_udg;

    #[test]
    fn greedy_mpr_sets_are_valid() {
        for g in [cycle_graph(12), grid_graph(4, 6), petersen()] {
            for k in 1..=3usize {
                for u in g.nodes() {
                    let relays = mpr_set(&g, u, k);
                    assert!(is_valid_mpr_set(&g, u, &relays, k), "node {u} k={k}");
                }
            }
        }
    }

    #[test]
    fn pooled_mpr_matches_allocating() {
        let g = gnp_connected(50, 0.12, 6);
        let mut scratch = DomScratch::new();
        for k in 1..=3usize {
            for u in g.nodes() {
                let pooled = mpr_set_with_scratch(&g, u, k, &mut scratch).to_vec();
                assert_eq!(pooled, mpr_set(&g, u, k), "u={u} k={k}");
            }
        }
    }

    #[test]
    fn validity_checker_rejects_bad_sets() {
        let g = cycle_graph(8);
        // Empty set cannot cover the two-hop neighbors.
        assert!(!is_valid_mpr_set(&g, 0, &[], 1));
        // A non-neighbor is rejected outright.
        assert!(!is_valid_mpr_set(&g, 0, &[4], 1));
        // The full neighborhood always works.
        assert!(is_valid_mpr_set(&g, 0, &[1, 7], 1));
        // One neighbor covers only one of the two 2-hop nodes.
        assert!(!is_valid_mpr_set(&g, 0, &[1], 1));
    }

    #[test]
    fn udg_relay_totals_are_subquadratic() {
        let inst = uniform_udg(300, 5.0, 1.0, 4);
        let g = &inst.graph;
        let total = total_mpr_selections(g, 1);
        let total_degree: usize = g.nodes().map(|u| g.degree(u)).sum();
        assert!(total < total_degree / 2, "{total} vs {total_degree}");
    }

    #[test]
    fn relay_totals_monotone_in_k() {
        let g = gnp_connected(60, 0.12, 2);
        let t1 = total_mpr_selections(&g, 1);
        let t2 = total_mpr_selections(&g, 2);
        let t3 = total_mpr_selections(&g, 3);
        assert!(t1 <= t2 && t2 <= t3);
    }
}
