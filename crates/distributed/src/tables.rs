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

use rspan_engine::{RspanEngine, SpannerDelta};
use rspan_graph::{
    bfs_distances, sorted_insert, sorted_remove, Adjacency, CsrGraph, EpochFlags, Node, Subgraph,
};

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
/// `view` (which must present `H_u`).  Nodes at depth `limit` are recorded
/// but not expanded; `UNREACH` fills the whole row.  The row is not reset:
/// every node the BFS can reach must hold the sentinels (`NO_HOP`,
/// `UNREACH`, 0) on entry.  The reached nodes are left in `queue`, source
/// first, so a caller can reset exactly those afterwards.
///
/// The next hop recorded for `v` is the **canonical** one: the smallest
/// first hop over *all* shortest `u → v` paths in `H_u`, computed by folding
/// `hop(v) = min over predecessors p of hop(p)` into the BFS (every
/// predecessor of `v` is dequeued before `v`, so the min is final by then —
/// which is also why a depth-truncated fill is exact up to `limit`).
/// Alongside it, `support_row[v]` counts how many predecessors realise that
/// minimum.  Together the three arrays make every entry — and its
/// sensitivity to an edge flip — a pure function of the `H_u` *metric*, with
/// no dependence on neighbor iteration order or BFS tie-breaking: that is
/// what lets [`row_survives`] decide *exactly*, from O(1) row reads, whether
/// a spanner flip changes a row.
pub(crate) fn fill_row<A: Adjacency + ?Sized>(
    view: &A,
    u: Node,
    limit: u32,
    queue: &mut Vec<Node>,
    next_row: &mut [Node],
    dist_row: &mut [u32],
    support_row: &mut [u32],
) {
    queue.clear();
    dist_row[u as usize] = 0;
    queue.push(u);
    let mut head = 0usize;
    while head < queue.len() {
        let w = queue[head];
        head += 1;
        let dw = dist_row[w as usize];
        if dw == limit {
            continue; // frontier nodes are recorded, not expanded
        }
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

/// Whether a commit's spanner `flips` (`(x, y, added)`, adds first, as
/// [`collect_flips`] lists them) leave row `u` — its pre-flip `next`, `dist`
/// and `support` columns — unchanged.  Survival is decided **exactly** by
/// O(1) reads of the row itself (the row *is* the precomputed reverse-BFS
/// from the flipped endpoints), and a surviving row's `support` is updated
/// in place, so it equals a fresh fill over the post-flip `H_u`.  With
/// `lo`/`hi` the endpoints ordered by `dist` from `u`:
///
/// * **`dist(x) == dist(y)`** (including both unreachable): an edge between
///   equal-depth endpoints lies on no shortest path from `u` and creates
///   none, and neither endpoint is a predecessor of the other.  Skip.
/// * **Added edge, `Δdist == 1`**: no distance changes, but `hi` gains `lo`
///   as a predecessor.  `hop(lo) < hop(hi)`: the canonical hop improves —
///   changed.  `hop(lo) == hop(hi)`: nothing changes except `hi`'s support,
///   incremented in place.  `hop(lo) > hop(hi)`: skip.
/// * **Added edge, `Δdist ≥ 2`** or exactly one endpoint reachable:
///   distances (or reachability) genuinely change.  Changed.
/// * **Removed edge** (a present edge forces `Δdist ≤ 1`): `hi` loses
///   predecessor `lo`.  `hop(lo) > hop(hi)`: `lo` never realised the
///   canonical hop — skip.  `hop(lo) == hop(hi)` with support ≥ 2: another
///   predecessor realises the same hop, so distance and hop both survive;
///   decrement the support in place and skip.  Support 1: the hop (or, if
///   `lo` was the only predecessor, the distance) was inherited through the
///   removed edge — changed.
/// * **A flip incident to `u`**: `H_u` contains *all* of `u`'s incident
///   `G`-edges, so a spanner flip of an edge at `u` never changes `H_u`
///   while the edge exists in `G`.  Skip.  (A topology change `{a, b}`
///   changes rows `a` and `b` directly; the routers refill or drop those
///   rows themselves.)
///
/// Every skip is provably change-free and every `false` provably changes
/// the row (a smaller distance, a smaller or forced-larger hop), so the
/// predicate marks exactly the truly affected rows.  Multiple flips per
/// commit compose: the in-place support upkeep keeps a skipped row's
/// entries exact after each flip, so evaluating the next flip against it
/// stays sound.  It returns at the first changing flip, leaving `support`
/// partly updated; the caller then refills or drops the row.
pub(crate) fn row_survives(
    u: Node,
    flips: &[(Node, Node, bool)],
    next: &[Node],
    dist: &[u32],
    support: &mut [u32],
) -> bool {
    for &(x, y, is_add) in flips {
        if u == x || u == y {
            continue;
        }
        let (dx, dy) = (dist[x as usize], dist[y as usize]);
        if dx == dy {
            continue;
        }
        let (lo, hi, dlo, dhi) = if dx < dy {
            (x, y, dx, dy)
        } else {
            (y, x, dy, dx)
        };
        let (hop_lo, hop_hi) = (next[lo as usize], next[hi as usize]);
        if is_add {
            if dhi != UNREACH && dhi - dlo == 1 {
                if hop_lo > hop_hi {
                    continue; // hi's canonical hop already beats lo's
                }
                if hop_lo == hop_hi {
                    support[hi as usize] += 1; // one more predecessor realises it
                    continue;
                }
            }
        } else {
            if hop_lo > hop_hi {
                continue; // lo never realised hi's canonical hop
            }
            debug_assert_eq!(
                hop_lo, hop_hi,
                "a predecessor's hop can never beat its successor's"
            );
            if support[hi as usize] >= 2 {
                support[hi as usize] -= 1; // another predecessor keeps hop and distance
                continue;
            }
        }
        return false;
    }
    true
}

/// Lists a delta's spanner flips as `(x, y, added)` in the order
/// [`row_survives`] takes them: adds first, then removals, each in delta
/// order.
pub(crate) fn collect_flips(delta: &SpannerDelta, flips: &mut Vec<(Node, Node, bool)>) {
    flips.clear();
    flips.extend(delta.added.iter().map(|&(x, y)| (x, y, true)));
    flips.extend(delta.removed.iter().map(|&(x, y)| (x, y, false)));
}

/// Asserts that `delta` is the commit right after a router's `epoch` and
/// that `engine` is the engine that produced it, so a missed delta panics
/// rather than silently serving stale routes.
pub(crate) fn assert_next_delta(epoch: u64, engine: &RspanEngine, delta: &SpannerDelta) {
    assert_eq!(
        delta.epoch,
        epoch + 1,
        "router missed a delta (have epoch {epoch}, got {})",
        delta.epoch
    );
    assert_eq!(
        engine.epoch(),
        delta.epoch,
        "delta does not match the engine's current epoch"
    );
}

/// The augmented view `H_u` over a [`SpannerAdj`]'s lists plus the source's
/// incident edges: for `w != u`, the spanner neighbors of `w` with `u`
/// merged in when `{u, w} ∈ G`; for the source, all of `u`'s `G`-neighbors.
struct SparseView<'r> {
    spanner_adj: &'r [Vec<Node>],
    /// The source's `G`-neighborhood, sorted.
    src_neighbors: &'r [Node],
    /// Membership flags for `src_neighbors`.
    src_adj: &'r EpochFlags,
    source: Node,
}

impl Adjacency for SparseView<'_> {
    fn num_nodes(&self) -> usize {
        self.spanner_adj.len()
    }

    #[inline]
    fn for_each_neighbor(&self, w: Node, f: &mut dyn FnMut(Node)) {
        if w == self.source {
            for &v in self.src_neighbors {
                f(v);
            }
            return;
        }
        let list = &self.spanner_adj[w as usize];
        if self.src_adj.test(w) {
            // Merge the source into the sorted spanner list (once: the edge
            // may also be a spanner edge).
            let source = self.source;
            let mut inserted = false;
            for &v in list {
                if !inserted && source < v {
                    f(source);
                    inserted = true;
                }
                if v == source {
                    inserted = true;
                }
                f(v);
            }
            if !inserted {
                f(source);
            }
        } else {
            for &v in list {
                f(v);
            }
        }
    }
}

/// A router's own copy of the spanner — sorted per-node neighbor lists kept
/// in step with the engine's deltas — plus the scratch one `H_u` fill needs.
/// As an [`Adjacency`] it is the pure spanner.
pub(crate) struct SpannerAdj {
    lists: Vec<Vec<Node>>,
    src_neighbors: Vec<Node>,
    src_adj: EpochFlags,
    queue: Vec<Node>,
}

impl SpannerAdj {
    /// The engine's current spanner.
    pub(crate) fn new(engine: &RspanEngine) -> Self {
        let n = engine.graph().n();
        let mut lists: Vec<Vec<Node>> = vec![Vec::new(); n];
        for (u, v) in engine.spanner_pairs() {
            lists[u as usize].push(v);
            lists[v as usize].push(u);
        }
        for list in &mut lists {
            list.sort_unstable();
        }
        SpannerAdj {
            lists,
            src_neighbors: Vec::new(),
            src_adj: EpochFlags::new(),
            queue: Vec::with_capacity(n),
        }
    }

    /// The sorted neighbor lists.
    pub(crate) fn lists(&self) -> &[Vec<Node>] {
        &self.lists
    }

    /// Moves the lists to the spanner after `delta`.
    pub(crate) fn apply(&mut self, delta: &SpannerDelta) {
        for &(x, y) in &delta.removed {
            let ok = sorted_remove(&mut self.lists[x as usize], y)
                && sorted_remove(&mut self.lists[y as usize], x);
            assert!(
                ok,
                "spanner adjacency is missing the removed edge ({x}, {y})"
            );
        }
        for &(x, y) in &delta.added {
            sorted_insert(&mut self.lists[x as usize], y);
            sorted_insert(&mut self.lists[y as usize], x);
        }
    }

    /// [`fill_row`] for source `u` over `H_u`: these lists plus `u`'s
    /// incident edges in the engine's live topology.  Returns the reached
    /// nodes, source first.
    pub(crate) fn fill(
        &mut self,
        engine: &RspanEngine,
        u: Node,
        limit: u32,
        next: &mut [Node],
        dist: &mut [u32],
        support: &mut [u32],
    ) -> &[Node] {
        let src_neighbors = &mut self.src_neighbors;
        src_neighbors.clear();
        engine
            .graph()
            .for_each_neighbor(u, &mut |v| src_neighbors.push(v));
        self.src_adj.begin(self.lists.len());
        for &v in &self.src_neighbors {
            self.src_adj.set(v);
        }
        let view = SparseView {
            spanner_adj: &self.lists,
            src_neighbors: &self.src_neighbors,
            src_adj: &self.src_adj,
            source: u,
        };
        fill_row(&view, u, limit, &mut self.queue, next, dist, support);
        &self.queue
    }
}

impl Adjacency for SpannerAdj {
    fn num_nodes(&self) -> usize {
        self.lists.len()
    }

    #[inline]
    fn for_each_neighbor(&self, u: Node, f: &mut dyn FnMut(Node)) {
        for &v in &self.lists[u as usize] {
            f(v);
        }
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
            support.fill(0);
            fill_row(
                &view,
                u,
                UNREACH,
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

/// Every row of `spanner`'s tables with its support column, each filled by
/// a fresh `fill_row` over `H_u`: the oracle the repair tests compare with.
#[cfg(test)]
pub(crate) fn fresh_rows(spanner: &Subgraph<'_>) -> (Vec<Node>, Vec<u32>, Vec<u32>) {
    let n = spanner.parent().n();
    let mut next = vec![NO_HOP; n * n];
    let mut dist = vec![UNREACH; n * n];
    let mut support = vec![0; n * n];
    let mut queue = Vec::new();
    for u in 0..n {
        let row = u * n..(u + 1) * n;
        fill_row(
            &spanner.augmented(u as Node),
            u as Node,
            UNREACH,
            &mut queue,
            &mut next[row.clone()],
            &mut dist[row.clone()],
            &mut support[row],
        );
    }
    (next, dist, support)
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

    /// Toggles each edge of `G` into or out of the spanner, one at a time:
    /// for every row whose source is not a flip endpoint, `row_survives`
    /// keeps the row exactly when a fresh fill leaves every hop and distance
    /// unchanged, and a kept row's in-place support equals the fresh one.
    #[test]
    fn row_survives_is_exact_in_both_directions() {
        let (mut kept, mut recounted, mut changed) = (0usize, 0usize, 0usize);
        for seed in [1u64, 2, 3] {
            let g = gnp_connected(30, 0.15, seed);
            let n = g.n();
            let mut spanner = exact_remote_spanner(&g).spanner;
            let (next, dist, support) = fresh_rows(&spanner);
            for (x, y) in g.edges() {
                let e = g.edge_id(x, y).expect("an edge of G");
                let added = spanner.edge_set_mut().insert(e);
                if !added {
                    spanner.edge_set_mut().remove(e);
                }
                let (next_after, dist_after, support_after) = fresh_rows(&spanner);
                if added {
                    spanner.edge_set_mut().remove(e);
                } else {
                    spanner.edge_set_mut().insert(e);
                }
                for u in g.nodes().filter(|&u| u != x && u != y) {
                    let row = u as usize * n..(u as usize + 1) * n;
                    let unchanged = next[row.clone()] == next_after[row.clone()]
                        && dist[row.clone()] == dist_after[row.clone()];
                    let mut kept_support = support[row.clone()].to_vec();
                    let survives = row_survives(
                        u,
                        &[(x, y, added)],
                        &next[row.clone()],
                        &dist[row.clone()],
                        &mut kept_support,
                    );
                    let context = format!("seed {seed}, flip ({x}, {y}, added {added}), row {u}");
                    assert_eq!(survives, unchanged, "{context}");
                    if survives {
                        assert_eq!(kept_support, support_after[row.clone()], "{context}");
                        kept += 1;
                        recounted += usize::from(kept_support != support[row]);
                    } else {
                        changed += 1;
                    }
                }
            }
        }
        // Both answers and the in-place support upkeep must be exercised.
        assert!(kept > 0 && changed > 0 && recounted > 0);
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
