//! Topology changes and local restabilisation.
//!
//! Section 2.3 notes that the RemSpan protocol can run periodically and that
//! after a topology change the computed spanner stabilises after one period
//! plus two floodings up to distance `r − 1 + β`: only nodes within that
//! distance of the changed link can see a different neighborhood, so only they
//! need to recompute their dominating trees.
//!
//! The incremental recomputation itself lives in [`rspan_engine`]: the
//! simulator and the engine share that one code path.  A churn stream is
//! committed straight to a caller-held [`rspan_engine::RspanEngine`]
//! (`commit` / `commit_parallel`), whose [`rspan_engine::SpannerDelta`]
//! feeds a [`crate::delta::DeltaRouter`]; the `rspan-session` crate's
//! `Session` (sync scheduler, `Repair::Delta`) bundles the two.  The
//! one-shot [`apply_change`] convenience ([`TopologyChange`] is re-exported
//! from the engine) materialises a fresh CSR per call by design: never loop
//! over it on a hot path.

pub use rspan_engine::TopologyChange;
use rspan_graph::{CsrGraph, DynamicGraph};

/// Applies a change to a graph, returning the new graph.
/// Panics if an added edge already exists or a removed edge does not.
///
/// This is a *convenience wrapper* for one-off edits: it routes through a
/// [`DynamicGraph`] overlay and compacts straight back to CSR, so it still
/// costs `O(n + m)` per call.  Do not use it in hot churn loops — feed
/// batches to [`rspan_engine::RspanEngine::commit`] (or mutate one
/// [`DynamicGraph`]) instead.
pub fn apply_change(graph: &CsrGraph, change: TopologyChange) -> CsrGraph {
    let mut overlay = DynamicGraph::new(graph.clone());
    change.apply_to(&mut overlay);
    overlay.into_csr()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::TreeStrategy;
    use rspan_core::{rem_span, verify_remote_stretch, StretchGuarantee};
    use rspan_engine::RspanEngine;
    use rspan_graph::generators::er::gnp_connected;
    use rspan_graph::generators::structured::{cycle_graph, grid_graph};
    use rspan_graph::generators::udg::uniform_udg;

    fn exact() -> StretchGuarantee {
        StretchGuarantee {
            alpha: 1.0,
            beta: 0.0,
            k: 1,
        }
    }

    #[test]
    fn apply_change_add_and_remove() {
        let g = cycle_graph(6);
        let g2 = apply_change(&g, TopologyChange::AddEdge(0, 3));
        assert!(g2.has_edge(0, 3));
        assert_eq!(g2.m(), g.m() + 1);
        let g3 = apply_change(&g2, TopologyChange::RemoveEdge(0, 3));
        assert_eq!(g3, g);
        assert_eq!(TopologyChange::AddEdge(1, 2).endpoints(), (1, 2));
    }

    #[test]
    #[should_panic]
    fn adding_existing_edge_panics() {
        let g = cycle_graph(5);
        let _ = apply_change(&g, TopologyChange::AddEdge(0, 1));
    }

    #[test]
    #[should_panic]
    fn removing_missing_edge_panics() {
        let g = cycle_graph(5);
        let _ = apply_change(&g, TopologyChange::RemoveEdge(0, 2));
    }

    #[test]
    fn restabilised_spanner_matches_full_recomputation() {
        let strategy = TreeStrategy::KGreedy { k: 1 };
        for seed in [1u64, 2, 3] {
            let g = gnp_connected(60, 0.08, seed);
            // Pick an existing edge to remove and a missing pair to add.
            let (eu, ev) = g.edges().next().unwrap();
            let mut add = None;
            'outer: for u in g.nodes() {
                for v in g.nodes() {
                    if u < v && !g.has_edge(u, v) {
                        add = Some((u, v));
                        break 'outer;
                    }
                }
            }
            for change in [
                TopologyChange::RemoveEdge(eu, ev),
                TopologyChange::AddEdge(add.unwrap().0, add.unwrap().1),
            ] {
                let g2 = apply_change(&g, change);
                let mut engine = RspanEngine::new(g.clone(), strategy.algo());
                engine.commit(&[change]);
                let incremental = engine.spanner_on(&g2);
                let full = rem_span(&g2, |g, u| strategy.build_tree(g, u));
                assert_eq!(
                    incremental.edge_set(),
                    full.edge_set(),
                    "seed {seed} change {change:?}"
                );
                assert!(verify_remote_stretch(&incremental, &exact()).holds());
            }
        }
    }

    #[test]
    fn repair_is_local_in_a_large_sparse_graph() {
        let inst = uniform_udg(800, 12.0, 1.0, 9);
        let g = &inst.graph;
        let (eu, ev) = g.edges().next().unwrap();
        let change = TopologyChange::RemoveEdge(eu, ev);
        let strategy = TreeStrategy::KGreedy { k: 2 };
        let mut engine = RspanEngine::new(g.clone(), strategy.algo());
        let delta = engine.commit(&[change]);
        let fraction = delta.recomputed_fraction(g.n());
        assert!(
            fraction < 0.25,
            "repair touched {:.0}% of the nodes",
            fraction * 100.0
        );
        assert!(!delta.recomputed.is_empty());
        assert!(delta.recomputed.contains(&eu));
    }

    #[test]
    fn grid_edge_addition_keeps_validity() {
        let g = grid_graph(6, 6);
        let change = TopologyChange::AddEdge(0, 35);
        let g2 = apply_change(&g, change);
        let strategy = TreeStrategy::Mis { r: 3 };
        let mut engine = RspanEngine::new(g.clone(), strategy.algo());
        engine.commit(&[change]);
        let full = rem_span(&g2, |g, u| strategy.build_tree(g, u));
        assert_eq!(engine.spanner_on(&g2).edge_set(), full.edge_set());
    }
}
