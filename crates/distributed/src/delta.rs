//! Delta-driven routing-table repair: the consumer side of the engine's
//! **batch → commit → delta** pipeline.
//!
//! [`crate::tables::RoutingTables::build`] recomputes all `n` rows from
//! scratch at `O(n · (n + m))` after *every* topology change — even though
//! [`rspan_engine::RspanEngine::commit`] already emits the exact
//! [`SpannerDelta`] (which edges entered or left the spanner) that bounds
//! what can have changed.  [`DeltaRouter`] closes that gap: it owns a
//! [`RoutingTables`] and repairs it in place, recomputing **only the rows a
//! flip can actually affect**, with the repaired table pinned *bit-identical*
//! to a from-scratch rebuild.
//!
//! # Which rows can a flip affect?
//!
//! Row `u` records, per destination `v`, the distance `d_{H_u}(u, v)`, the
//! *canonical* next hop (smallest first hop over all shortest paths,
//! `tables::fill_row`) and that hop's *support* — how many
//! predecessors of `v` realise it.  All three are pure functions of the
//! `H_u` metric, so whether a flipped spanner edge `{x, y}` changes row `u`
//! is decided **exactly** by O(1) reads of the row itself — the table *is*
//! the precomputed reverse-BFS from the flipped endpoints.  With `lo`/`hi`
//! the endpoints ordered by `dist` from `u`:
//!
//! * **`dist(x) == dist(y)`** (including both unreachable): an edge between
//!   equal-depth endpoints lies on no shortest path from `u` and creates
//!   none, and neither endpoint is a predecessor of the other.  Skip.
//! * **Added edge, `Δdist == 1`**: no distance changes, but `hi` gains `lo`
//!   as a predecessor.  `hop(lo) < hop(hi)`: the canonical hop improves —
//!   recompute.  `hop(lo) == hop(hi)`: nothing changes except `hi`'s
//!   support, incremented in place.  `hop(lo) > hop(hi)`: skip.
//! * **Added edge, `Δdist ≥ 2`** or exactly one endpoint reachable:
//!   distances (or reachability) genuinely change.  Recompute.
//! * **Removed edge** (a present edge forces `Δdist ≤ 1`): `hi` loses
//!   predecessor `lo`.  `hop(lo) > hop(hi)`: `lo` never realised the
//!   canonical hop — skip.  `hop(lo) == hop(hi)` with support ≥ 2: another
//!   predecessor realises the same hop, so distance and hop both survive;
//!   decrement the support in place and skip.  Support 1: the hop (or, if
//!   `lo` was the only predecessor, the distance) was inherited through the
//!   removed edge — recompute.
//! * **Topology change `{a, b}`**: `H_u` contains *all* of `u`'s incident
//!   `G`-edges, so a plain link flip affects exactly rows `a` and `b` —
//!   always recomputed.  Conversely, a spanner flip of an edge incident to
//!   `u` never changes `H_u` while the edge exists in `G` (it stays present
//!   through `u`'s own incident set), so rows `x` and `y` are skipped in the
//!   spanner pass.
//!
//! Every skip is provably change-free and every mark provably changes the
//! row (a smaller distance, a smaller or forced-larger hop), so the marked
//! set equals the truly-affected set.  Multiple flips per commit compose:
//! the in-place support maintenance keeps a skipped row's entries exact
//! after each flip, so evaluating the next flip against it stays sound, and
//! a marked row is rebuilt once from the final state.
//!
//! The flip scan is **batched row-major**: all of a commit's flips (adds
//! first, then removals, in delta order) are evaluated row by row in a
//! single pass over the table, so each row's column entries are pulled
//! through the cache once per commit instead of once per flip, and a row
//! stops at its first marking flip.  Because rows are independent and the
//! per-row flip order is preserved, the batched pass marks exactly the rows
//! the one-scan-per-flip order would (the in-place support updates only ever
//! feed later flips of the *same* row).  On top of the scan, each repair
//! sweep runs over the router's own **sparse spanner adjacency** (sorted
//! per-node spanner neighbor lists maintained from the deltas), touching
//! `O(m_{H_u})` edges instead of filtering all of `G`'s like the
//! from-scratch build does.  The canonical entries are iteration-order
//! independent, so the sparse sweep still lands bit-identical.

use crate::tables::{fill_row, RoutingTables, NO_HOP, UNREACH};
use rspan_engine::{RspanEngine, SpannerDelta, TopologyChange};
use rspan_graph::{sorted_insert, sorted_remove, Adjacency, EpochFlags, Node};
use rspan_obs::{ObsEvent, ObsHandle};
use rspan_telemetry::{Counter, Hist, Span, TelemetryHandle};
use std::time::Instant;

/// The augmented view `H_u` assembled from the router's own spanner
/// adjacency plus the source's incident edges (provided by the caller per
/// row): for `w != u`, the spanner neighbors of `w` with `u` merged in when
/// `{u, w} ∈ G`; for the source, all of `u`'s `G`-neighbors.
pub(crate) struct SparseView<'r> {
    pub(crate) n: usize,
    pub(crate) spanner_adj: &'r [Vec<Node>],
    /// The source's `G`-neighborhood, sorted.
    pub(crate) src_neighbors: &'r [Node],
    /// Membership flags for `src_neighbors`.
    pub(crate) src_adj: &'r EpochFlags,
    pub(crate) source: Node,
}

impl Adjacency for SparseView<'_> {
    fn num_nodes(&self) -> usize {
        self.n
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

    fn degree_hint(&self, w: Node) -> usize {
        self.spanner_adj[w as usize].len() + 1
    }

    fn contains_edge(&self, w: Node, v: Node) -> bool {
        if w == self.source {
            self.src_adj.test(v)
        } else if v == self.source {
            self.src_adj.test(w)
        } else {
            self.spanner_adj[w as usize].binary_search(&v).is_ok()
        }
    }
}

/// What one [`DeltaRouter::apply`] did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RepairStats {
    /// Router epoch after the repair (mirrors the consumed delta's epoch).
    pub epoch: u64,
    /// Rows recomputed by this repair.
    pub rows_recomputed: usize,
    /// Topology changes in the consumed batch.
    pub batch_changes: usize,
    /// Spanner edges that entered or left (the flips scanned against every
    /// row).
    pub spanner_flips: usize,
}

impl RepairStats {
    /// Fraction of rows this repair had to recompute.
    pub fn repaired_fraction(&self, n: usize) -> f64 {
        self.rows_recomputed as f64 / n.max(1) as f64
    }
}

/// Long-lived owner of [`RoutingTables`], repaired incrementally from engine
/// commits; see the module docs for the affected-row analysis.
///
/// Lifecycle: build once from an engine ([`DeltaRouter::new`]), then call
/// [`DeltaRouter::apply`] with every `(batch, delta)` pair the engine
/// commits, *in order* — epochs are checked, so a missed delta panics rather
/// than silently serving stale routes.
pub struct DeltaRouter {
    n: usize,
    epoch: u64,
    tables: RoutingTables,
    /// `support[u * n + v]` = how many predecessors of `v` realise `v`'s
    /// canonical hop in row `u` (0 for the source and unreached nodes).
    support: Vec<u32>,
    /// Sorted spanner neighbor lists, maintained from the deltas — the
    /// sparse substrate every repair sweep runs on.
    spanner_adj: Vec<Vec<Node>>,
    queue: Vec<Node>,
    src_neighbors: Vec<Node>,
    src_adj: EpochFlags,
    affected: EpochFlags,
    affected_rows: Vec<Node>,
    /// The commit's spanner flips flattened for the batched row-major scan:
    /// `(x, y, is_add)`, adds first, both groups in delta order.
    flips: Vec<(Node, Node, bool)>,
    tel: TelemetryHandle,
    obs: ObsHandle,
}

impl DeltaRouter {
    /// Builds the full tables for the engine's *current* spanner and
    /// topology (one sweep per node, same result as
    /// [`RoutingTables::build`] on a compacted snapshot).
    pub fn new(engine: &RspanEngine) -> Self {
        let n = engine.graph().n();
        let mut spanner_adj: Vec<Vec<Node>> = vec![Vec::new(); n];
        for (u, v) in engine.spanner_pairs() {
            spanner_adj[u as usize].push(v);
            spanner_adj[v as usize].push(u);
        }
        for list in &mut spanner_adj {
            list.sort_unstable();
        }
        let mut router = DeltaRouter {
            n,
            epoch: engine.epoch(),
            tables: RoutingTables {
                n,
                next: vec![NO_HOP; n * n],
                dist: vec![UNREACH; n * n],
            },
            support: vec![0; n * n],
            spanner_adj,
            queue: Vec::with_capacity(n),
            src_neighbors: Vec::new(),
            src_adj: EpochFlags::new(),
            affected: EpochFlags::new(),
            affected_rows: Vec::new(),
            flips: Vec::new(),
            tel: TelemetryHandle::off(),
            obs: ObsHandle::off(),
        };
        for u in 0..n as Node {
            router.fill(engine, u);
        }
        router
    }

    /// Recomputes row `u` over the sparse spanner adjacency, with the
    /// source's incident edges read from the engine's live topology.
    fn fill(&mut self, engine: &RspanEngine, u: Node) {
        let n = self.n;
        self.src_neighbors.clear();
        engine
            .graph()
            .for_each_neighbor(u, &mut |v| self.src_neighbors.push(v));
        self.src_adj.begin(n);
        for &v in &self.src_neighbors {
            self.src_adj.set(v);
        }
        let view = SparseView {
            n,
            spanner_adj: &self.spanner_adj,
            src_neighbors: &self.src_neighbors,
            src_adj: &self.src_adj,
            source: u,
        };
        let row = u as usize * n;
        fill_row(
            &view,
            u,
            &mut self.queue,
            &mut self.tables.next[row..row + n],
            &mut self.tables.dist[row..row + n],
            &mut self.support[row..row + n],
        );
    }

    /// Installs a live telemetry handle: every repair records wall-clock
    /// spans ([`Span::RepairSweep`] / [`Span::RepairFill`]), router counters
    /// and a [`Hist::RepairNs`] sample.  Never consulted on the off handle —
    /// repairs stay branch-for-branch identical.
    pub fn set_telemetry(&mut self, tel: TelemetryHandle) {
        self.tel = tel;
    }

    /// Attaches a deterministic event trace: every repair emits one
    /// [`ObsEvent::Repair`] recording how many rows the batch marked
    /// directly, how many the flip scan marked, how many the scan proved
    /// unaffected and how many were recomputed.  Off by default.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.obs = obs;
    }

    /// Engine epoch the tables currently reflect.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The maintained next-hop tables (always consistent with the last
    /// applied delta).
    pub fn tables(&self) -> &RoutingTables {
        &self.tables
    }

    /// Number of nodes routed.
    pub fn n(&self) -> usize {
        self.n
    }

    fn mark(&mut self, u: Node) {
        if self.affected.set(u) {
            self.affected_rows.push(u);
        }
    }

    /// Consumes one engine commit — the batch it absorbed and the
    /// [`SpannerDelta`] it emitted — and repairs exactly the affected rows.
    ///
    /// `engine` must be the engine that produced `delta` (post-commit), and
    /// deltas must arrive in epoch order; both are asserted.  The stored
    /// telemetry and obs handles instrument the repair
    /// ([`DeltaRouter::set_telemetry`], [`DeltaRouter::set_obs`]).
    pub fn apply(
        &mut self,
        engine: &RspanEngine,
        batch: &[TopologyChange],
        delta: &SpannerDelta,
    ) -> RepairStats {
        let repair_start = self.tel.on().then(Instant::now);
        assert_eq!(
            delta.epoch,
            self.epoch + 1,
            "router missed a delta (have epoch {}, got {})",
            self.epoch,
            delta.epoch
        );
        assert_eq!(
            engine.epoch(),
            delta.epoch,
            "delta does not match the engine's current epoch"
        );
        let n = self.n;
        self.affected.begin(n);
        self.affected_rows.clear();

        // A link flip changes H_a and H_b directly (their incident sets).
        for change in batch {
            let (a, b) = change.endpoints();
            self.mark(a);
            self.mark(b);
        }
        let marked_batch = self.affected_rows.len();
        // Spanner flips: O(1) column reads per (row, flip) decide who
        // recomputes — exactly (see the module docs), with the in-place
        // support updates keeping skipped rows correct for the next flip of
        // the same row.  The scan is batched row-major: one pass over the
        // table evaluates every flip against a row while its entries are
        // cache-resident, stopping at the first marking flip, instead of
        // one full table pass per flip.
        self.flips.clear();
        self.flips
            .extend(delta.added.iter().map(|&(x, y)| (x, y, true)));
        self.flips
            .extend(delta.removed.iter().map(|&(x, y)| (x, y, false)));
        let mut span = self.tel.span(Span::RepairSweep);
        span.add_items(self.flips.len() as u64);
        if !self.flips.is_empty() {
            for u in 0..n as Node {
                if self.affected.test(u) {
                    continue;
                }
                let row = u as usize * n;
                for fi in 0..self.flips.len() {
                    let (x, y, is_add) = self.flips[fi];
                    if u == x || u == y {
                        continue;
                    }
                    let dx = self.tables.dist[row + x as usize];
                    let dy = self.tables.dist[row + y as usize];
                    if dx == dy {
                        continue;
                    }
                    let (lo, hi) = if dx < dy { (x, y) } else { (y, x) };
                    let hop_lo = self.tables.next[row + lo as usize];
                    let hop_hi = self.tables.next[row + hi as usize];
                    if is_add {
                        let (dlo, dhi) = if dx < dy { (dx, dy) } else { (dy, dx) };
                        if dhi != UNREACH && dhi - dlo == 1 {
                            if hop_lo > hop_hi {
                                continue; // hi's canonical hop already beats lo's
                            }
                            if hop_lo == hop_hi {
                                // One more predecessor realises the same hop.
                                self.support[row + hi as usize] += 1;
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
                        let support = &mut self.support[row + hi as usize];
                        if *support >= 2 {
                            *support -= 1; // another predecessor keeps hop and distance
                            continue;
                        }
                    }
                    self.mark(u);
                    break; // later flips cannot unmark; the row rebuilds once
                }
            }
        }
        drop(span);

        // Update the sparse spanner adjacency, then rebuild the marked rows
        // over the post-flip structure.
        for &(x, y) in &delta.removed {
            let ok = sorted_remove(&mut self.spanner_adj[x as usize], y)
                && sorted_remove(&mut self.spanner_adj[y as usize], x);
            assert!(
                ok,
                "spanner adjacency is missing the removed edge ({x}, {y})"
            );
        }
        for &(x, y) in &delta.added {
            sorted_insert(&mut self.spanner_adj[x as usize], y);
            sorted_insert(&mut self.spanner_adj[y as usize], x);
        }
        let mut span = self.tel.span(Span::RepairFill);
        let rows = std::mem::take(&mut self.affected_rows);
        for &u in &rows {
            self.fill(engine, u);
        }
        span.add_items(rows.len() as u64);
        drop(span);
        self.affected_rows = rows;
        if self.obs.on() {
            self.obs.emit(ObsEvent::Repair {
                epoch: delta.epoch,
                marked_batch: marked_batch as u32,
                marked_flips: (self.affected_rows.len() - marked_batch) as u32,
                skipped: (n - self.affected_rows.len()) as u32,
                repaired: self.affected_rows.len() as u32,
                flips: self.flips.len() as u32,
            });
        }
        if let Some(start) = repair_start {
            self.tel.incr(Counter::RouterRepairs);
            self.tel
                .add(Counter::RouterRepairedRows, self.affected_rows.len() as u64);
            self.tel.add(Counter::RouterFlips, self.flips.len() as u64);
            self.tel.add(
                Counter::RouterSkippedRows,
                (n - self.affected_rows.len()) as u64,
            );
            self.tel
                .observe(Hist::RepairNs, start.elapsed().as_nanos() as u64);
        }
        self.epoch = delta.epoch;
        RepairStats {
            epoch: self.epoch,
            rows_recomputed: self.affected_rows.len(),
            batch_changes: batch.len(),
            spanner_flips: delta.added.len() + delta.removed.len(),
        }
    }

    /// Next hop from `u` toward `v` (`None` if unreachable or `u == v`).
    pub fn next_hop(&self, u: Node, v: Node) -> Option<Node> {
        self.tables.next_hop(u, v)
    }

    /// `d_{H_u}(u, v)` as recorded in the maintained table.
    pub fn table_distance(&self, u: Node, v: Node) -> Option<u32> {
        self.tables.table_distance(u, v)
    }

    /// Forwards a packet from `s` to `t` by table lookups at every hop.
    pub fn forward(&self, s: Node, t: Node) -> Option<Vec<Node>> {
        self.tables.forward(s, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rspan_domtree::TreeAlgo;
    use rspan_graph::generators::er::gnp_connected;
    use rspan_graph::generators::structured::{cycle_graph, grid_graph};

    fn assert_matches_full_build(router: &DeltaRouter, engine: &RspanEngine, context: &str) {
        let csr = engine.to_csr();
        let spanner = engine.spanner_on(&csr);
        let full = RoutingTables::build(&spanner);
        assert_eq!(router.tables(), &full, "{context}");
    }

    #[test]
    fn fresh_router_matches_from_scratch_build() {
        for g in [cycle_graph(9), grid_graph(4, 5), gnp_connected(40, 0.1, 3)] {
            let engine = RspanEngine::new(g, TreeAlgo::KGreedy { k: 2 });
            let router = DeltaRouter::new(&engine);
            assert_matches_full_build(&router, &engine, "initial build");
        }
    }

    #[test]
    fn repair_tracks_single_flips_bit_identically() {
        let g = gnp_connected(50, 0.08, 5);
        let mut engine = RspanEngine::new(g.clone(), TreeAlgo::KGreedy { k: 1 });
        let mut router = DeltaRouter::new(&engine);
        let (eu, ev) = g.edges().next().unwrap();
        for change in [
            TopologyChange::RemoveEdge(eu, ev),
            TopologyChange::AddEdge(eu, ev),
        ] {
            let batch = [change];
            let delta = engine.commit(&batch);
            let stats = router.apply(&engine, &batch, &delta);
            assert_eq!(stats.epoch, engine.epoch());
            assert!(stats.rows_recomputed >= 2, "endpoint rows always repair");
            assert_matches_full_build(&router, &engine, "after flip");
        }
    }

    #[test]
    fn empty_commit_repairs_nothing() {
        let mut engine = RspanEngine::new(grid_graph(5, 5), TreeAlgo::Mis { r: 2 });
        let mut router = DeltaRouter::new(&engine);
        let delta = engine.commit(&[]);
        let stats = router.apply(&engine, &[], &delta);
        assert_eq!(stats.rows_recomputed, 0);
        assert_eq!(stats.repaired_fraction(25), 0.0);
        assert_matches_full_build(&router, &engine, "empty commit");
    }

    #[test]
    #[should_panic(expected = "missed a delta")]
    fn skipping_a_delta_panics() {
        let mut engine = RspanEngine::new(cycle_graph(8), TreeAlgo::KGreedy { k: 1 });
        let mut router = DeltaRouter::new(&engine);
        engine.commit(&[]); // epoch 1, never given to the router
        let batch = [TopologyChange::AddEdge(0, 4)];
        let delta = engine.commit(&batch); // epoch 2
        router.apply(&engine, &batch, &delta);
    }

    #[test]
    fn observed_apply_matches_plain_and_attributes_rows() {
        use rspan_obs::ObsConfig;
        let g = gnp_connected(50, 0.08, 5);
        let algo = TreeAlgo::KGreedy { k: 1 };
        let mut engine_a = RspanEngine::new(g.clone(), algo);
        let mut engine_b = RspanEngine::new(g.clone(), algo);
        let mut plain = DeltaRouter::new(&engine_a);
        let mut observed = DeltaRouter::new(&engine_b);
        let obs = ObsHandle::mem(ObsConfig::default());
        let tel = TelemetryHandle::enabled();
        observed.set_obs(obs.clone());
        observed.set_telemetry(tel.clone());
        let (eu, ev) = g.edges().next().unwrap();
        let batch = [TopologyChange::RemoveEdge(eu, ev)];
        let delta_a = engine_a.commit(&batch);
        let delta_b = engine_b.commit(&batch);
        assert_eq!(delta_a, delta_b);
        let stats_plain = plain.apply(&engine_a, &batch, &delta_a);
        let stats_obs = observed.apply(&engine_b, &batch, &delta_b);
        assert_eq!(stats_plain, stats_obs, "observation changed the repair");
        assert_eq!(plain.tables(), observed.tables());
        let report = obs.take_report().expect("recorder attached");
        assert_eq!(report.lines.len(), 1);
        let line = &report.lines[0];
        assert!(line.contains("\"kind\":\"repair\""), "{line}");
        assert!(line.contains(&format!("\"repaired\":{}", stats_obs.rows_recomputed)));
        let snap = tel.snapshot().expect("telemetry enabled");
        let fill = snap.span(Span::RepairFill);
        assert_eq!(
            (fill.calls, fill.items),
            (1, stats_obs.rows_recomputed as u64)
        );
        assert_eq!(snap.span(Span::RepairSweep).calls, 1);
    }

    #[test]
    fn routing_through_repaired_tables_stays_consistent() {
        let g = gnp_connected(40, 0.1, 9);
        let mut engine = RspanEngine::new(g.clone(), TreeAlgo::KGreedy { k: 2 });
        let mut router = DeltaRouter::new(&engine);
        let (eu, ev) = g.edges().nth(3).unwrap();
        let batch = [TopologyChange::RemoveEdge(eu, ev)];
        let delta = engine.commit(&batch);
        router.apply(&engine, &batch, &delta);
        for t in 0..router.n() as Node {
            if t == 0 {
                continue;
            }
            match (router.table_distance(0, t), router.forward(0, t)) {
                (Some(d), Some(path)) => {
                    assert!(path.len() as u32 - 1 <= d);
                    assert_eq!(path[0], 0);
                    assert_eq!(*path.last().unwrap(), t);
                    assert_eq!(router.next_hop(0, t), Some(path[1]));
                }
                (None, None) => {}
                other => panic!("inconsistent table entries for (0, {t}): {other:?}"),
            }
        }
    }
}
