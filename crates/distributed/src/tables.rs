//! Precomputed next-hop routing tables over the augmented views `H_u`.
//!
//! [`crate::routing::greedy_route`] recomputes distances at every hop, which
//! is convenient for measurements but not how a router works: a link-state
//! router computes its whole table once per topology change and then forwards
//! by table lookup.  [`RoutingTables`] materialises, for every node `u`, the
//! next hop toward every destination according to distances in `H_u` — the
//! per-node computation each router would run locally after flooding — and
//! lets the harnesses check that table-driven forwarding realises exactly the
//! routes the greedy per-hop rule produces.

use rspan_graph::{bfs_distances, Adjacency, CsrGraph, Node, Subgraph};

/// Next-hop tables for every node of a spanner's parent graph.
///
/// Two tables are `==` exactly when every `(source, destination)` entry —
/// next hop and recorded distance — matches; the incremental
/// [`crate::delta::DeltaRouter`] uses this to pin its repairs bit-identical
/// to a from-scratch [`RoutingTables::build`].
#[derive(Debug, PartialEq, Eq)]
pub struct RoutingTables {
    pub(crate) n: usize,
    /// `next[u * n + v]` = next hop from `u` toward `v`, or `Node::MAX` when
    /// `v` is unreachable from `u` in `H_u` (or `v == u`).
    pub(crate) next: Vec<Node>,
    /// `dist[u * n + v]` = `d_{H_u}(u, v)` (`u32::MAX` when unreachable).
    pub(crate) dist: Vec<u32>,
}

impl Clone for RoutingTables {
    fn clone(&self) -> Self {
        RoutingTables {
            n: self.n,
            next: self.next.clone(),
            dist: self.dist.clone(),
        }
    }

    /// Copies into the existing allocations when the node counts match —
    /// the session layer re-snapshots `n × n` tables at every quiescent
    /// churn boundary, which must not reallocate tens of megabytes.
    fn clone_from(&mut self, source: &Self) {
        self.n = source.n;
        self.next.clone_from(&source.next);
        self.dist.clone_from(&source.dist);
    }
}

pub(crate) const NO_HOP: Node = Node::MAX;
pub(crate) const UNREACH: u32 = u32::MAX;

/// Fills row `u` of a routing table: one *canonical-hop BFS* from `u` over
/// `view` (which must present `H_u`).  The row slices are reset to their
/// sentinels first, so the same routine serves both the from-scratch build
/// and the in-place repair of a stale row; `queue` is a reusable BFS buffer.
///
/// The next hop recorded for `v` is the **canonical** one: the smallest
/// first hop over *all* shortest `u → v` paths in `H_u`, computed by folding
/// `hop(v) = min over predecessors p of hop(p)` into the BFS (every
/// predecessor of `v` is dequeued before `v`, so the min is final by then).
/// Alongside it, `support_row[v]` counts how many predecessors realise that
/// minimum.  Together the three arrays make every entry — and its
/// sensitivity to an edge flip — a pure function of the `H_u` *metric*, with
/// no dependence on neighbor iteration order or BFS tie-breaking: that is
/// what lets [`crate::delta::DeltaRouter`] decide *exactly*, from O(1) row
/// reads, whether a spanner flip changes a row.
pub(crate) fn fill_row<A: Adjacency + ?Sized>(
    view: &A,
    u: Node,
    queue: &mut Vec<Node>,
    next_row: &mut [Node],
    dist_row: &mut [u32],
    support_row: &mut [u32],
) {
    next_row.fill(NO_HOP);
    dist_row.fill(UNREACH);
    support_row.fill(0);
    queue.clear();
    dist_row[u as usize] = 0;
    queue.push(u);
    let mut head = 0usize;
    while head < queue.len() {
        let w = queue[head];
        head += 1;
        let dw = dist_row[w as usize];
        let hw = next_row[w as usize];
        view.for_each_neighbor(w, &mut |v| {
            let dv = &mut dist_row[v as usize];
            if *dv == UNREACH {
                *dv = dw + 1;
                // A depth-1 node is its own first hop; deeper nodes inherit.
                next_row[v as usize] = if w == u { v } else { hw };
                support_row[v as usize] = 1;
                queue.push(v);
            } else if *dv == dw + 1 && w != u {
                let hv = &mut next_row[v as usize];
                if hw < *hv {
                    *hv = hw;
                    support_row[v as usize] = 1;
                } else if hw == *hv {
                    support_row[v as usize] += 1;
                }
            }
        });
    }
}

impl RoutingTables {
    /// Computes the tables for every source node with a *canonical-hop BFS
    /// sweep*: for each `u`, one BFS from `u` over `H_u` records distances
    /// and, folded into the same edge scans, the canonical next hop toward
    /// every destination (the smallest first hop over all shortest paths —
    /// see `fill_row`).  Total cost is `O(n · (n + m_{H_u}))`: `n` sweeps,
    /// each touching every `H_u` edge a constant number of times, with one
    /// pooled queue buffer shared by all sweeps.
    pub fn build(spanner: &Subgraph<'_>) -> Self {
        let graph: &CsrGraph = spanner.parent();
        let n = graph.n();
        let mut next = vec![NO_HOP; n * n];
        let mut dist = vec![UNREACH; n * n];
        // The build has no later repairs to decide, so the per-destination
        // support counts land in one reusable row buffer.
        let mut support = vec![0u32; n];
        let mut queue = Vec::with_capacity(n);
        for u in graph.nodes() {
            let view = spanner.augmented(u);
            let row = u as usize * n;
            fill_row(
                &view,
                u,
                &mut queue,
                &mut next[row..row + n],
                &mut dist[row..row + n],
                &mut support,
            );
        }
        RoutingTables { n, next, dist }
    }

    /// Next hop from `u` toward `v` (`None` if unreachable or `u == v`).
    pub fn next_hop(&self, u: Node, v: Node) -> Option<Node> {
        let h = self.next[u as usize * self.n + v as usize];
        if h == NO_HOP {
            None
        } else {
            Some(h)
        }
    }

    /// `d_{H_u}(u, v)` as recorded in the table.
    pub fn table_distance(&self, u: Node, v: Node) -> Option<u32> {
        let d = self.dist[u as usize * self.n + v as usize];
        if d == UNREACH {
            None
        } else {
            Some(d)
        }
    }

    /// Forwards a packet from `s` to `t` by table lookups at every hop.
    /// Returns the realised path, or `None` if some router has no entry or a
    /// loop longer than `n` hops appears.
    pub fn forward(&self, s: Node, t: Node) -> Option<Vec<Node>> {
        let mut path = vec![s];
        let mut cur = s;
        for _ in 0..=self.n {
            if cur == t {
                return Some(path);
            }
            let hop = self.next_hop(cur, t)?;
            path.push(hop);
            cur = hop;
        }
        None
    }

    /// Total number of table entries a node must store, averaged over nodes
    /// (reachable destinations only) — a memory-cost figure for the routing
    /// experiment.
    pub fn mean_entries_per_node(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let filled = self.next.iter().filter(|&&h| h != NO_HOP).count();
        filled as f64 / self.n as f64
    }

    /// Number of *rows* (source nodes) on which the two tables disagree in
    /// any entry — the routing-table staleness figure the session layer
    /// records while repair waves are still in flight.  Panics if the tables
    /// route different node counts.
    pub fn rows_differing(&self, other: &Self) -> usize {
        assert_eq!(self.n, other.n, "tables cover different node sets");
        (0..self.n).filter(|&u| self.row_differs(other, u)).count()
    }

    /// Whether row `u` (source node) disagrees between the two tables in any
    /// entry — the per-row probe behind [`RoutingTables::rows_differing`],
    /// used by the observability layer to track *which* rows are stale and
    /// for how long.  Panics if the tables route different node counts.
    pub fn row_differs(&self, other: &Self, u: usize) -> bool {
        assert_eq!(self.n, other.n, "tables cover different node sets");
        let n = self.n;
        let row = u * n;
        self.next[row..row + n] != other.next[row..row + n]
            || self.dist[row..row + n] != other.dist[row..row + n]
    }
}

/// Convenience: checks that table-driven forwarding delivers every connected
/// pair with a route no longer than the table's own `d_{H_u}` estimate and no
/// shorter than the true shortest path in `G`.
pub fn tables_are_consistent(spanner: &Subgraph<'_>) -> bool {
    let graph = spanner.parent();
    let tables = RoutingTables::build(spanner);
    for s in graph.nodes() {
        let d_g = bfs_distances(graph, s);
        for t in graph.nodes() {
            if s == t {
                continue;
            }
            match (tables.table_distance(s, t), tables.forward(s, t)) {
                (Some(d), Some(path)) => {
                    let hops = (path.len() - 1) as u32;
                    let dg = d_g[t as usize].expect("table reached an unreachable node?");
                    if hops > d || hops < dg {
                        return false;
                    }
                }
                (None, None) => {}
                // A recorded distance without a deliverable route (or vice
                // versa) is an inconsistency.
                _ => return false,
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use rspan_core::{exact_remote_spanner, two_connecting_remote_spanner};
    use rspan_graph::generators::er::gnp_connected;
    use rspan_graph::generators::structured::{cycle_graph, grid_graph};
    use rspan_graph::generators::udg::uniform_udg;
    use rspan_graph::Subgraph;

    #[test]
    fn tables_on_full_graph_are_shortest_paths() {
        let g = grid_graph(4, 5);
        let h = Subgraph::full(&g);
        let tables = RoutingTables::build(&h);
        for s in g.nodes() {
            let d = bfs_distances(&g, s);
            for t in g.nodes() {
                assert_eq!(tables.table_distance(s, t), d[t as usize]);
                if s != t {
                    let path = tables.forward(s, t).unwrap();
                    assert_eq!(path.len() as u32 - 1, d[t as usize].unwrap());
                }
            }
        }
        assert!(tables_are_consistent(&h));
    }

    #[test]
    fn tables_on_exact_remote_spanner_route_optimally() {
        for g in [
            cycle_graph(11),
            gnp_connected(50, 0.1, 7),
            uniform_udg(100, 4.0, 1.0, 7).graph,
        ] {
            let built = exact_remote_spanner(&g);
            let tables = RoutingTables::build(&built.spanner);
            let ok = g.nodes().all(|s| {
                let d = bfs_distances(&g, s);
                g.nodes().all(|t| {
                    s == t
                        || tables
                            .forward(s, t)
                            .map(|p| p.len() as u32 - 1 == d[t as usize].unwrap())
                            .unwrap_or(false)
                })
            });
            assert!(
                ok,
                "table routing over the (1,0)-remote-spanner must be optimal"
            );
            assert!(tables_are_consistent(&built.spanner));
        }
    }

    #[test]
    fn tables_consistent_on_theorem_3_spanner() {
        let g = uniform_udg(90, 4.0, 1.0, 13).graph;
        let built = two_connecting_remote_spanner(&g);
        assert!(tables_are_consistent(&built.spanner));
    }

    #[test]
    fn empty_spanner_tables_have_only_neighbor_entries() {
        let g = cycle_graph(8);
        let h = Subgraph::empty(&g);
        let tables = RoutingTables::build(&h);
        // From node 0, only the two neighbors are reachable in H_0.
        assert_eq!(tables.table_distance(0, 1), Some(1));
        assert_eq!(tables.table_distance(0, 4), None);
        assert_eq!(tables.next_hop(0, 4), None);
        assert!(tables.forward(0, 4).is_none());
        assert!(tables.mean_entries_per_node() >= 2.0);
        assert!(tables_are_consistent(&h));
    }

    #[test]
    fn next_hop_is_a_graph_neighbor() {
        let g = gnp_connected(40, 0.12, 3);
        let built = exact_remote_spanner(&g);
        let tables = RoutingTables::build(&built.spanner);
        for s in g.nodes() {
            for t in g.nodes() {
                if let Some(h) = tables.next_hop(s, t) {
                    assert!(g.has_edge(s, h), "next hop {h} is not a neighbor of {s}");
                }
            }
        }
    }
}
