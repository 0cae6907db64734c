//! Classical-spanner baselines the paper compares against (Table 1, §1.2).
//!
//! * the **full topology** (every edge — what plain link-state routing
//!   advertises),
//! * the **greedy `(2k−1, 0)`-spanner** of Althöfer et al., the textbook
//!   construction with `O(n^{1+1/k})` edges,
//! * a **Baswana–Sen style clustering spanner**, the standard near-linear-time
//!   randomized `(2k−1, 0)`-spanner, standing in for the `(k, k−1)`-spanner
//!   of reference \[2\] in Table 1 (see DESIGN.md for the substitution note),
//! * a **BFS-tree spanner**, the extreme sparsity/stretch trade-off point.
//!
//! Section 1.2 of the paper notes that every `(α, β)`-spanner is also an
//! `(α, β)`-remote-spanner and even an `(α, β − α + 1)`-remote-spanner;
//! [`spanner_as_remote_guarantee`] encodes that conversion so the baselines
//! can be verified with the same remote-stretch checker as the paper's
//! constructions.

mod baswana_sen;
mod greedy_spanner;

pub use baswana_sen::baswana_sen_spanner;
pub use greedy_spanner::greedy_spanner;

use crate::strategies::{BuiltSpanner, StretchGuarantee};
use rspan_graph::{bfs_tree, CsrGraph, EdgeSet, Subgraph};

/// The full topology: every edge of `G` (the baseline of plain link-state
/// routing / OSPF).  Stretch `(1, 0)` trivially.
pub fn full_topology(graph: &CsrGraph) -> BuiltSpanner<'_> {
    BuiltSpanner {
        spanner: Subgraph::full(graph),
        guarantee: StretchGuarantee {
            alpha: 1.0,
            beta: 0.0,
            k: 1,
        },
        name: "full topology".to_string(),
        radius: 0,
        tree_beta: 0,
    }
}

/// A BFS-tree spanner rooted at node 0 (plus one tree per connected
/// component): `n − c` edges, unbounded multiplicative stretch in general.
pub fn bfs_tree_spanner(graph: &CsrGraph) -> BuiltSpanner<'_> {
    let mut edges = EdgeSet::empty(graph);
    let comps = rspan_graph::connected_components(graph);
    let num_comps = comps.iter().copied().max().map(|c| c + 1).unwrap_or(0);
    let mut root_of = vec![None; num_comps];
    for v in graph.nodes() {
        let c = comps[v as usize];
        if root_of[c].is_none() {
            root_of[c] = Some(v);
        }
    }
    for root in root_of.into_iter().flatten() {
        let tree = bfs_tree(graph, root);
        for v in graph.nodes() {
            if let Some(p) = tree.parent[v as usize] {
                edges.insert(graph.edge_id(p, v).expect("BFS tree edge exists"));
            }
        }
    }
    BuiltSpanner {
        spanner: Subgraph::new(graph, edges),
        guarantee: StretchGuarantee {
            // A BFS tree preserves distances from its root only; as a general
            // spanner its stretch is bounded by the tree diameter.  We record
            // the trivial guarantee "stretch at most n" for table reporting.
            alpha: graph.n().max(1) as f64,
            beta: 0.0,
            k: 1,
        },
        name: "BFS-tree spanner".to_string(),
        radius: 0,
        tree_beta: 0,
    }
}

/// Converts a regular spanner guarantee into the remote-spanner guarantee it
/// implies: an `(α, β)`-spanner is an `(α, β − α + 1)`-remote-spanner for
/// `α ≥ 1` (walk one hop toward the target for free, then use the spanner
/// stretch from that neighbor).
pub fn spanner_as_remote_guarantee(spanner_guarantee: &StretchGuarantee) -> StretchGuarantee {
    StretchGuarantee {
        alpha: spanner_guarantee.alpha,
        beta: spanner_guarantee.beta - spanner_guarantee.alpha + 1.0,
        k: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{verify_plain_stretch, verify_remote_stretch};
    use rspan_graph::generators::er::gnp_connected;
    use rspan_graph::generators::structured::{cycle_graph, grid_graph};
    use rspan_graph::is_connected;

    #[test]
    fn full_topology_has_all_edges_and_exact_stretch() {
        let g = grid_graph(4, 4);
        let b = full_topology(&g);
        assert_eq!(b.num_edges(), g.m());
        assert!(verify_plain_stretch(&b.spanner, &b.guarantee).holds());
        assert!(verify_remote_stretch(&b.spanner, &b.guarantee).holds());
    }

    #[test]
    fn bfs_tree_spanner_is_spanning_and_sparse() {
        let g = gnp_connected(60, 0.08, 2);
        let b = bfs_tree_spanner(&g);
        assert_eq!(b.num_edges(), g.n() - 1);
        let t = b.spanner.to_graph();
        assert!(is_connected(&t));
        assert!(verify_plain_stretch(&b.spanner, &b.guarantee).holds());
    }

    #[test]
    fn bfs_tree_spanner_handles_disconnected_graphs() {
        let g = rspan_graph::CsrGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let b = bfs_tree_spanner(&g);
        assert_eq!(b.num_edges(), 4);
    }

    #[test]
    fn remote_guarantee_conversion() {
        let s = StretchGuarantee {
            alpha: 3.0,
            beta: 0.0,
            k: 1,
        };
        let r = spanner_as_remote_guarantee(&s);
        assert_eq!(r.alpha, 3.0);
        assert_eq!(r.beta, -2.0);
        // Sanity on a concrete graph: the cycle itself as its own spanner.
        let g = cycle_graph(9);
        let b = full_topology(&g);
        let conv = spanner_as_remote_guarantee(&b.guarantee);
        assert!(verify_remote_stretch(&b.spanner, &conv).holds());
    }
}
