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
//! *canonical* next hop (smallest first hop over all shortest paths) and
//! that hop's *support* — how many predecessors of `v` realise it — all
//! filled by one canonical-hop BFS, `tables::fill_row`.  A topology change
//! `{a, b}` changes rows `a` and `b` directly (their incident sets), so
//! those are always recomputed.  Whether a spanner flip changes any other
//! row is decided **exactly** by O(1) reads of the row itself, with its
//! support kept current in place: the predicate `tables::row_survives`,
//! which the compact router's row cache runs too, and whose doc comment
//! carries the argument.  So the marked set equals the truly-affected set,
//! and a marked row is rebuilt once from the final state.
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

use crate::tables::{
    assert_next_delta, collect_flips, row_survives, RoutingTables, SpannerAdj, NO_HOP, UNREACH,
};
use rspan_engine::{RspanEngine, SpannerDelta, TopologyChange};
use rspan_graph::{EpochFlags, Node};
use rspan_obs::{ObsEvent, ObsHandle};
use rspan_telemetry::{Counter, Hist, Span, TelemetryHandle};
use std::time::Instant;

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
    /// The spanner, maintained from the deltas — the sparse substrate every
    /// repair sweep runs on.
    spanner: SpannerAdj,
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
        let mut router = DeltaRouter {
            n,
            epoch: engine.epoch(),
            tables: RoutingTables {
                n,
                next: vec![NO_HOP; n * n],
                dist: vec![UNREACH; n * n],
            },
            support: vec![0; n * n],
            spanner: SpannerAdj::new(engine),
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
        let row = u as usize * self.n..(u as usize + 1) * self.n;
        let next = &mut self.tables.next[row.clone()];
        let dist = &mut self.tables.dist[row.clone()];
        let support = &mut self.support[row];
        next.fill(NO_HOP);
        dist.fill(UNREACH);
        support.fill(0);
        self.spanner.fill(engine, u, UNREACH, next, dist, support);
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
        assert_next_delta(self.epoch, engine, delta);
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
        // Spanner flips: O(1) column reads per (row, flip) decide exactly
        // who recomputes (`row_survives`), with the in-place support updates
        // keeping skipped rows correct for the next flip of the same row.
        // The scan is batched row-major: one pass over the table evaluates
        // every flip against a row while its entries are cache-resident,
        // stopping at the first marking flip, instead of one full table pass
        // per flip.
        collect_flips(delta, &mut self.flips);
        let mut span = self.tel.span(Span::RepairSweep);
        span.add_items(self.flips.len() as u64);
        if !self.flips.is_empty() {
            for u in 0..n as Node {
                if self.affected.test(u) {
                    continue;
                }
                let row = u as usize * n..(u as usize + 1) * n;
                if !row_survives(
                    u,
                    &self.flips,
                    &self.tables.next[row.clone()],
                    &self.tables.dist[row.clone()],
                    &mut self.support[row],
                ) {
                    self.mark(u);
                }
            }
        }
        drop(span);

        // Rebuild the marked rows over the post-flip spanner.
        self.spanner.apply(delta);
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
    use crate::tables::fresh_rows;
    use rspan_domtree::TreeAlgo;
    use rspan_graph::generators::er::gnp_connected;
    use rspan_graph::generators::structured::{cycle_graph, grid_graph};

    /// The tables must equal a from-scratch build, and the support column —
    /// which every later flip decision reads — a fresh fill, row by row.
    fn assert_matches_full_build(router: &DeltaRouter, engine: &RspanEngine, context: &str) {
        let csr = engine.to_csr();
        let spanner = engine.spanner_on(&csr);
        let full = RoutingTables::build(&spanner);
        assert_eq!(router.tables(), &full, "{context}");
        let (_, _, support) = fresh_rows(&spanner);
        let n = router.n();
        for u in 0..n {
            let row = u * n..(u + 1) * n;
            assert_eq!(
                router.support[row.clone()],
                support[row],
                "{context}: support of row {u}"
            );
        }
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
    fn support_stays_exact_under_multi_flip_link_flaps() {
        use rspan_engine::{ChurnScenario, LinkFlapScenario};
        let g = gnp_connected(60, 0.08, 11);
        let mut engine = RspanEngine::new(g.clone(), TreeAlgo::KGreedy { k: 2 });
        let mut router = DeltaRouter::new(&engine);
        let mut scenario = LinkFlapScenario::new(&g, 3.0, 11);
        let mut multi_flip = 0usize;
        for round in 0..12 {
            let batch = scenario.next_batch(engine.graph());
            let delta = engine.commit(&batch);
            multi_flip += usize::from(delta.added.len() + delta.removed.len() >= 2);
            router.apply(&engine, &batch, &delta);
            assert_matches_full_build(&router, &engine, &format!("round {round}"));
        }
        assert!(multi_flip > 0, "no commit flipped two spanner edges");
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
