//! Algorithm 3 of the paper: `RemSpan_{r,β}` — the remote-spanner is the
//! union of one dominating tree per node.
//!
//! The distributed algorithm has every node learn its `(r − 1 + β)`-hop
//! neighborhood, compute a dominating tree for itself locally, and advertise
//! the tree; the spanner is the union of the advertised trees.  Centrally this
//! is simply a loop over nodes.  The drivers:
//!
//! * [`rem_span_algo`] — sequential union of per-node trees built through
//!   **one** pooled [`DomScratch`] for all `n` roots: no per-node `O(n)`
//!   allocation, cost proportional to the sum of the per-node neighborhood
//!   sizes (the paper's *locality = speed* claim made literal),
//! * [`rem_span_algo_parallel`] — the same union with dynamic node chunks
//!   over `std::thread` scoped workers; each worker owns a private scratch
//!   and a private [`EdgeSet`], merged once per worker with the word-level
//!   [`EdgeSet::union_with`] after the scope — **no lock anywhere**, and the
//!   result is identical to the sequential driver because edge-set union is
//!   commutative,
//! * [`rem_span_local_algo`] — each tree is computed on the node's *local
//!   view* only (what it could actually learn in the LOCAL model, extracted
//!   through the pooled [`local_view_into`]) and translated back, which
//!   checks the paper's locality claim: no global knowledge or coordination
//!   between node decisions is needed,
//! * [`rem_span`] / [`rem_span_local`] — the generic closure-based
//!   equivalents, kept for callers that plug in custom tree builders (they
//!   allocate one tree per node).

use rspan_domtree::{DomScratch, DominatingTree, TreeAlgo};
use rspan_graph::{
    local_view_into, resolve_threads, CsrGraph, EdgeSet, LocalView, Node, Subgraph,
    TraversalScratch,
};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Nodes claimed per fetch of the shared work counter in the parallel
/// driver: large enough to keep contention negligible, small enough to
/// balance irregular per-node tree costs.
const NODE_CHUNK: usize = 64;

/// Builds the remote-spanner `H = ⋃_u T_u` sequentially with one pooled
/// scratch across all `n` per-node trees.
pub fn rem_span_algo(graph: &CsrGraph, algo: TreeAlgo) -> Subgraph<'_> {
    let mut edges = EdgeSet::empty(graph);
    let mut scratch = DomScratch::with_capacity(graph.n());
    for u in graph.nodes() {
        let tree = algo.build_with_scratch(graph, u, &mut scratch);
        debug_assert_eq!(tree.root(), u);
        tree.for_each_edge_id(graph, |e| {
            edges.insert(e);
        });
    }
    Subgraph::new(graph, edges)
}

/// Builds the remote-spanner with per-node trees computed on `threads` worker
/// threads (0 = available parallelism).  The scoped workers claim
/// `NODE_CHUNK`-sized chunks of nodes from an atomic counter; each owns a
/// private [`DomScratch`] and a private [`EdgeSet`], and the worker sets are
/// merged after the scope ends through the *sharded* word-level union
/// ([`EdgeSet::union_with_all`]): the merge itself fans the bit words back
/// out across the same worker count, so combining `t` per-worker sets costs
/// one parallel pass over the words instead of `t` sequential ones — **no
/// mutex is acquired anywhere**, in particular not in the per-node loop.
/// The result equals [`rem_span_algo`] exactly because edge-set union is
/// associative and commutative.
pub fn rem_span_algo_parallel(graph: &CsrGraph, algo: TreeAlgo, threads: usize) -> Subgraph<'_> {
    let threads = resolve_threads(threads);
    let n = graph.n();
    if threads <= 1 || n < 64 {
        return rem_span_algo(graph, algo);
    }
    let counter = AtomicUsize::new(0);
    let counter = &counter;
    let locals: Vec<EdgeSet> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut scratch = DomScratch::with_capacity(n);
                    let mut local = EdgeSet::empty(graph);
                    loop {
                        let start = counter.fetch_add(NODE_CHUNK, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        for u in start..(start + NODE_CHUNK).min(n) {
                            let tree = algo.build_with_scratch(graph, u as Node, &mut scratch);
                            tree.for_each_edge_id(graph, |e| {
                                local.insert(e);
                            });
                        }
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("spanner worker thread panicked"))
            .collect()
    });
    let mut edges = EdgeSet::empty(graph);
    edges.union_with_all(&locals, threads);
    Subgraph::new(graph, edges)
}

/// Builds the remote-spanner with each tree computed on the node's local view
/// of radius `knowledge_radius` (the `r − 1 + β` of Algorithm 3), exactly as
/// a LOCAL-model node would, then translated back to global edges.  View
/// extraction and tree construction both run on pooled scratch.
pub fn rem_span_local_algo(
    graph: &CsrGraph,
    knowledge_radius: u32,
    algo: TreeAlgo,
) -> Subgraph<'_> {
    let mut edges = EdgeSet::empty(graph);
    let mut view_scratch = TraversalScratch::with_capacity(graph.n());
    let mut tree_scratch = DomScratch::new();
    for u in graph.nodes() {
        let view = local_view_into(graph, u, knowledge_radius, &mut view_scratch);
        let tree = algo.build_with_scratch(&view.graph, view.center_local(), &mut tree_scratch);
        debug_assert_eq!(view.local_to_global(tree.root()), u);
        tree.for_each_edge(|p, c| {
            let (gp, gc) = (view.local_to_global(p), view.local_to_global(c));
            let e = graph
                .edge_id(gp, gc)
                .expect("local tree edge must exist globally");
            edges.insert(e);
        });
    }
    Subgraph::new(graph, edges)
}

/// Builds the remote-spanner `H = ⋃_u T_u` sequentially from an arbitrary
/// per-node strategy closure.
///
/// `strategy(g, u)` must return a dominating tree for `u` whose edges are
/// edges of `g`.  Prefer [`rem_span_algo`] for the paper's constructions —
/// it pools all per-node working state.
pub fn rem_span<'g, F>(graph: &'g CsrGraph, strategy: F) -> Subgraph<'g>
where
    F: Fn(&CsrGraph, Node) -> DominatingTree,
{
    let mut edges = EdgeSet::empty(graph);
    for u in graph.nodes() {
        let tree = strategy(graph, u);
        debug_assert_eq!(tree.root(), u);
        tree.for_each_edge_id(graph, |e| {
            edges.insert(e);
        });
    }
    Subgraph::new(graph, edges)
}

/// Closure-based LOCAL-model driver: `strategy(view)` receives the local view
/// and must return a dominating tree of `view.graph` rooted at the view's
/// center.  View extraction runs on a pooled scratch.
pub fn rem_span_local<'g, F>(
    graph: &'g CsrGraph,
    knowledge_radius: u32,
    strategy: F,
) -> Subgraph<'g>
where
    F: Fn(&LocalView) -> DominatingTree,
{
    let mut edges = EdgeSet::empty(graph);
    let mut view_scratch = TraversalScratch::with_capacity(graph.n());
    for u in graph.nodes() {
        let view = local_view_into(graph, u, knowledge_radius, &mut view_scratch);
        let tree = strategy(&view);
        debug_assert_eq!(view.local_to_global(tree.root()), u);
        tree.for_each_edge(|p, c| {
            let (gp, gc) = (view.local_to_global(p), view.local_to_global(c));
            let e = graph
                .edge_id(gp, gc)
                .expect("local tree edge must exist globally");
            edges.insert(e);
        });
    }
    Subgraph::new(graph, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rspan_domtree::{dom_tree_greedy, dom_tree_k_greedy, dom_tree_mis};
    use rspan_graph::generators::er::gnp_connected;
    use rspan_graph::generators::structured::{cycle_graph, grid_graph, petersen};
    use rspan_graph::generators::udg::uniform_udg;

    #[test]
    fn union_contains_every_tree_edge() {
        let g = grid_graph(5, 5);
        let h = rem_span(&g, |g, u| dom_tree_greedy(g, u, 2, 0));
        for u in g.nodes() {
            let t = dom_tree_greedy(&g, u, 2, 0);
            for (p, c) in t.edges() {
                assert!(
                    h.has_edge(p, c),
                    "tree edge ({p},{c}) missing from the union"
                );
            }
        }
    }

    #[test]
    fn pooled_algo_driver_matches_closure_driver() {
        let g = gnp_connected(120, 0.06, 21);
        for (algo, closure) in [
            (
                TreeAlgo::KGreedy { k: 2 },
                Box::new(|g: &CsrGraph, u: Node| dom_tree_k_greedy(g, u, 2))
                    as Box<dyn Fn(&CsrGraph, Node) -> DominatingTree>,
            ),
            (
                TreeAlgo::Mis { r: 3 },
                Box::new(|g: &CsrGraph, u: Node| dom_tree_mis(g, u, 3)),
            ),
            (
                TreeAlgo::Greedy { r: 3, beta: 1 },
                Box::new(|g: &CsrGraph, u: Node| dom_tree_greedy(g, u, 3, 1)),
            ),
        ] {
            let pooled = rem_span_algo(&g, algo);
            let classic = rem_span(&g, closure);
            assert_eq!(pooled.edge_set(), classic.edge_set(), "{algo:?}");
        }
    }

    #[test]
    fn parallel_equals_sequential() {
        let g = gnp_connected(150, 0.05, 3);
        let seq = rem_span(&g, |g, u| dom_tree_k_greedy(g, u, 2));
        // pooled drivers agree with the closure driver
        let pooled_seq = rem_span_algo(&g, TreeAlgo::KGreedy { k: 2 });
        let pooled_par = rem_span_algo_parallel(&g, TreeAlgo::KGreedy { k: 2 }, 4);
        assert_eq!(seq.edge_set(), pooled_seq.edge_set());
        assert_eq!(seq.edge_set(), pooled_par.edge_set());
        // small graphs take the sequential fallback path
        let small = cycle_graph(10);
        let a = rem_span_algo(&small, TreeAlgo::Mis { r: 2 });
        let b = rem_span_algo_parallel(&small, TreeAlgo::Mis { r: 2 }, 8);
        assert_eq!(a.edge_set(), b.edge_set());
    }

    #[test]
    fn local_view_computation_matches_global_for_depth_one_trees() {
        // Algorithm 4 trees only need the 1-hop-neighborhood-of-neighbors
        // knowledge (radius 1 lists + which of their neighbors exist), i.e.
        // knowledge radius 1 suffices for a (2,0) tree.
        let inst = uniform_udg(150, 4.0, 1.0, 9);
        let g = &inst.graph;
        let global = rem_span_algo(g, TreeAlgo::KGreedy { k: 1 });
        let local = rem_span_local_algo(g, 1, TreeAlgo::KGreedy { k: 1 });
        assert_eq!(global.num_edges(), local.num_edges());
        assert_eq!(global.edge_set(), local.edge_set());
    }

    #[test]
    fn local_view_computation_matches_global_for_mis_trees() {
        // Algorithm 2 with radius r needs knowledge radius r (it inspects
        // distances up to r and neighbors of ring nodes).
        let g = gnp_connected(80, 0.06, 17);
        let r = 3u32;
        let global = rem_span_algo(&g, TreeAlgo::Mis { r });
        let local = rem_span_local(&g, r, |view| {
            dom_tree_mis(&view.graph, view.center_local(), r)
        });
        assert_eq!(global.edge_set(), local.edge_set());
        let local_pooled = rem_span_local_algo(&g, r, TreeAlgo::Mis { r });
        assert_eq!(global.edge_set(), local_pooled.edge_set());
    }

    #[test]
    fn spanner_is_subset_of_graph() {
        let g = petersen();
        let h = rem_span_algo(&g, TreeAlgo::Greedy { r: 3, beta: 1 });
        assert!(h.num_edges() <= g.m());
        for (u, v) in h.edges() {
            assert!(g.has_edge(u, v));
        }
    }

    #[test]
    fn empty_graph_and_isolated_nodes() {
        let g = CsrGraph::empty(5);
        let h = rem_span_algo(&g, TreeAlgo::Greedy { r: 2, beta: 0 });
        assert_eq!(h.num_edges(), 0);
    }
}
