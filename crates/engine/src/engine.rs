//! The incremental remote-spanner maintenance engine.
//!
//! Section 2.3 of the paper observes that after a topology change only nodes
//! within distance `r − 1 + β` of the flipped link can see a different
//! `(r − 1 + β)`-hop neighborhood — every other node's dominating tree is
//! *provably unchanged*.  [`RspanEngine`] turns that observation into a
//! long-lived service:
//!
//! * it **owns the topology** as a [`DynamicGraph`] (CSR base + sorted
//!   overlay, `O(deg)` per link flip, amortised compaction),
//! * it **caches every node's dominating-tree contribution** (the tree's
//!   edge list), so a batch commit recomputes at most the *dirty ball* —
//!   the union of `(r − 1 + β)`-balls around the changed endpoints in the
//!   old and new topology, cut down under `KGreedy` to the roots whose tree
//!   can see the batch — and leaves all other cached trees untouched,
//! * it **refcounts spanner edges** across the per-node trees and emits a
//!   [`SpannerDelta`] per commit: exactly the edges that entered or left the
//!   spanner, with an epoch number, instead of a full edge set.
//!
//! Per-commit cost is `O(Σ |ball| + Σ_{dirty} tree-build)` instead of the
//! `O(n + m)` rebuild plus `O(n)` tree builds of a full recomputation — the
//! same *locality = speed* argument the traversal scratch pools made for the
//! static construction, now applied to churn.
//!
//! # Correctness of the dirty ball
//!
//! A node `u`'s tree is a deterministic function of its radius-`R` local
//! view (`R = r − 1 + β`, [`TreeAlgo::knowledge_radius`]): the builders only
//! inspect distances up to `max(r, R)` from `u` — which are determined by
//! edges with an endpoint within distance `R` of `u` — and the neighbor
//! lists of nodes within distance `R`.  An edge flip `{a, b}` can therefore
//! change `u`'s tree only if `a` or `b` lies within distance `R` of `u`
//! before or after the batch, i.e. `u ∈ B_old(a, R) ∪ B_old(b, R) ∪
//! B_new(a, R) ∪ B_new(b, R)`.  Marking those four balls per change (two
//! pooled bounded BFS sweeps per endpoint) yields a conservative dirty set;
//! the engine-vs-full-recompute property test pins the result bit-identical
//! to [`rem_span_algo`] on the final graph.
//!
//! [`TreeAlgo::KGreedy`] (Algorithm 4) sees less than its ball.  Its tree of
//! `u` reads only `N(u)` in sorted order, the distance-2 set `D₂(u)` and the
//! edges between `N(u)` and `D₂(u)`: edges inside `N(u)` and edges with no
//! end in `N(u)` never enter its coverage counts.  A non-endpoint's
//! adjacency is the same before and after the batch, so a change `{a, b}`
//! with `u ∉ {a, b}` is visible to `u` only if exactly one of `a`, `b` is a
//! neighbour of `u`.  Under `KGreedy` the mark phase therefore also flags
//! every batch endpoint and, per change, the symmetric difference of the
//! two ends' sorted neighbour lists (post-batch lists; they differ from the
//! pre-batch ones only in other endpoints, which are flagged anyway).  Only
//! the flagged roots are retired, rebuilt and installed; every other marked
//! root keeps its cached tree and its refcounts.  The other algorithms
//! rebuild the whole ball.  [`SpannerDelta::recomputed`] still reports the
//! whole ball, so wave origins and ball-row repairs downstream do not move.
//!
//! # Thread locality
//!
//! An engine is a plain mutable owner like every scratch pool in this
//! workspace: `Send` but not shared.  Hold one engine per thread/shard and
//! merge emitted deltas downstream; never hand one engine to two concurrent
//! committers.
//!
//! [`rem_span_algo`]: ../rspan_core/fn.rem_span_algo.html

use crate::change::TopologyChange;
use rspan_domtree::{DomScratch, TreeAlgo};
use rspan_graph::{
    bfs_into, resolve_threads, Adjacency, CsrGraph, DynamicGraph, EdgeSet, EpochFlags, Node,
    Subgraph, TraversalScratch,
};
use rspan_obs::{ObsEvent, ObsHandle};
use rspan_telemetry::{Counter, Hist, Span, TelemetryHandle};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::time::Instant;

/// Multiply-xorshift hasher for packed `(u, v)` pair keys — the refcount map
/// is on the commit hot path and the generic SipHash costs more than the
/// probe it guards.
#[derive(Clone, Default)]
pub struct PairHasher(u64);

impl Hasher for PairHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    #[inline]
    fn write_u64(&mut self, x: u64) {
        let mut h = (x ^ self.0).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 29;
        self.0 = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }
}

type PairMap<V> = HashMap<u64, V, BuildHasherDefault<PairHasher>>;

/// Packs an unordered node pair into one map key (shared with the scenario
/// layer's per-batch bookkeeping).
#[inline]
pub(crate) fn pack(u: Node, v: Node) -> u64 {
    let (a, b) = if u < v { (u, v) } else { (v, u) };
    (u64::from(a) << 32) | u64::from(b)
}

#[inline]
fn unpack(key: u64) -> (Node, Node) {
    ((key >> 32) as Node, key as Node)
}

/// Default overlay fraction above which a commit compacts the topology back
/// into a fresh CSR base.
pub const DEFAULT_COMPACT_FRACTION: f64 = 0.25;

/// The net spanner change produced by one [`RspanEngine::commit`].
///
/// Applying `removed` then `added` to the pre-commit spanner edge set yields
/// the post-commit spanner exactly (both lists are sorted and disjoint).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpannerDelta {
    /// Engine epoch this delta advanced the spanner to (the initial build is
    /// epoch 0; the first commit emits epoch 1).
    pub epoch: u64,
    /// Edges that entered the spanner, as `(u, v)` pairs with `u < v`, sorted.
    pub added: Vec<(Node, Node)>,
    /// Edges that left the spanner, as `(u, v)` pairs with `u < v`, sorted.
    pub removed: Vec<(Node, Node)>,
    /// The dirty ball, sorted: every node whose tree may have changed, and
    /// the wave origins; a superset of the rebuilt trees.
    pub recomputed: Vec<Node>,
    /// Whether this commit folded the topology overlay back into CSR.
    pub compacted: bool,
}

impl SpannerDelta {
    /// Whether the commit left the spanner unchanged.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Fraction of nodes in the dirty ball: every node whose tree may have
    /// changed, and the wave origins; a superset of the rebuilt trees.
    pub fn recomputed_fraction(&self, n: usize) -> f64 {
        self.recomputed.len() as f64 / n.max(1) as f64
    }
}

/// Long-lived incremental maintenance engine; see the module docs.
pub struct RspanEngine {
    graph: DynamicGraph,
    algo: TreeAlgo,
    epoch: u64,
    compact_fraction: f64,
    /// Cached tree contribution per root: the tree's `(parent, child)` edges.
    trees: Vec<Vec<(Node, Node)>>,
    /// Refcount per spanner edge: in how many cached trees it appears.
    counts: PairMap<u32>,
    /// Pairs touched by the current commit → were they present pre-commit?
    touched: PairMap<bool>,
    dom: DomScratch,
    sweep: TraversalScratch,
    dirty: EpochFlags,
    dirty_list: Vec<Node>,
    /// Endpoints already swept in the current `mark_balls` pass (a batch from
    /// e.g. a join/leave scenario repeats one endpoint across many changes).
    endpoint_seen: EpochFlags,
    /// Under [`TreeAlgo::KGreedy`], the marked roots whose tree can see the
    /// batch (see the module docs); only these are rebuilt.
    visible: EpochFlags,
    /// The sorted neighbour lists of one change's two ends, merged into
    /// `visible`.
    ends: [Vec<Node>; 2],
    /// Rebuild work list of the current commit: `(root, edge buffer)` per
    /// dirty node.  Kept on the engine so the spine allocation amortises
    /// across commits (the edge buffers themselves rotate through `trees`).
    work: Vec<RebuildItem>,
    /// One pooled [`DomScratch`] per parallel-commit worker, grown on demand
    /// and reused across commits — the per-shard pool of
    /// [`RspanEngine::commit_parallel`].
    par_dom: Vec<DomScratch>,
    /// Live wall-clock telemetry (counters, commit histogram, per-worker
    /// phase spans).  Off by default; it is `Sync`, so rebuild workers
    /// record into it directly.
    tel: TelemetryHandle,
    /// Deterministic event trace: one [`ObsEvent::Commit`] per commit.
    /// Off by default.
    obs: ObsHandle,
}

/// Dirty nodes per work-chunk claimed by a parallel-commit worker: small
/// enough to balance irregular tree costs, large enough that the chunk
/// distribution stays coarse.  The parallel path sorts the rebuild items by
/// root id first, so each chunk — and each worker's contiguous block of
/// chunks — scans adjacent CSR rows.
const DIRTY_CHUNK: usize = 16;

/// One rebuild work item: a dirty root and the edge buffer its new tree is
/// written into (rotated through the engine's tree cache).
type RebuildItem = (Node, Vec<(Node, Node)>);

impl RspanEngine {
    /// Builds the engine over an initial topology: one full pass computes and
    /// caches every node's dominating tree (epoch 0).  Compaction uses
    /// [`DEFAULT_COMPACT_FRACTION`].
    pub fn new(graph: CsrGraph, algo: TreeAlgo) -> Self {
        Self::with_compaction(graph, algo, DEFAULT_COMPACT_FRACTION)
    }

    /// Like [`RspanEngine::new`] with an explicit compaction policy: after a
    /// commit whose overlay exceeds `compact_fraction · m(base)`, the overlay
    /// is folded back into a fresh CSR base.
    pub fn with_compaction(graph: CsrGraph, algo: TreeAlgo, compact_fraction: f64) -> Self {
        assert!(
            compact_fraction > 0.0,
            "compaction fraction must be positive"
        );
        let n = graph.n();
        let mut engine = RspanEngine {
            graph: DynamicGraph::new(graph),
            algo,
            epoch: 0,
            compact_fraction,
            trees: vec![Vec::new(); n],
            counts: PairMap::default(),
            touched: PairMap::default(),
            dom: DomScratch::with_capacity(n),
            sweep: TraversalScratch::with_capacity(n),
            dirty: EpochFlags::new(),
            dirty_list: Vec::new(),
            endpoint_seen: EpochFlags::new(),
            visible: EpochFlags::new(),
            ends: [Vec::new(), Vec::new()],
            work: Vec::new(),
            par_dom: Vec::new(),
            tel: TelemetryHandle::off(),
            obs: ObsHandle::off(),
        };
        for u in 0..n as Node {
            let mut edges = std::mem::take(&mut engine.trees[u as usize]);
            let tree = engine
                .algo
                .build_with_scratch(&engine.graph, u, &mut engine.dom);
            debug_assert_eq!(tree.root(), u);
            tree.for_each_edge(|p, c| edges.push((p, c)));
            for &(p, c) in &edges {
                *engine.counts.entry(pack(p, c)).or_insert(0) += 1;
            }
            engine.trees[u as usize] = edges;
        }
        engine
    }

    /// Engine epoch: 0 after the initial build, incremented by every commit.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Attaches a live telemetry handle: commits count into the sharded
    /// registry (the marked ball into [`Counter::EngineDirtyNodes`], the
    /// trees actually rebuilt into [`Counter::EngineTreesRebuilt`]), the
    /// commit wall time feeds [`Hist::CommitNs`], each commit phase records
    /// one span ([`Span::Mark`] → [`Span::Compact`]) and every rebuild
    /// worker records its own busy time as a [`Span::Rebuild`] span.
    /// Telemetry is wall-clock only — deltas, spanner state and obs event
    /// logs stay bit-identical with it attached (property-tested).
    pub fn set_telemetry(&mut self, tel: TelemetryHandle) {
        self.tel = tel;
    }

    /// Attaches a deterministic event trace: every commit emits one
    /// [`ObsEvent::Commit`] summary at the handle's current virtual time
    /// (the scheduler that owns the clock advances it).  With the off
    /// handle — the default — no event is built.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.obs = obs;
    }

    /// The tree algorithm every node runs.
    pub fn algo(&self) -> TreeAlgo {
        self.algo
    }

    /// The dirty-ball radius `r − 1 + β` a commit floods around each changed
    /// endpoint.
    pub fn dirty_radius(&self) -> u32 {
        self.algo.knowledge_radius()
    }

    /// The current topology.
    pub fn graph(&self) -> &DynamicGraph {
        &self.graph
    }

    /// Number of edges currently in the spanner.
    pub fn spanner_len(&self) -> usize {
        self.counts.len()
    }

    /// Whether `{u, v}` is currently a spanner edge.
    pub fn contains_spanner_edge(&self, u: Node, v: Node) -> bool {
        self.counts.contains_key(&pack(u, v))
    }

    /// The cached tree contribution of `root` as `(parent, child)` edges.
    pub fn tree_edges(&self, root: Node) -> &[(Node, Node)] {
        &self.trees[root as usize]
    }

    /// Current spanner edges as sorted `(u, v)` pairs with `u < v`.
    pub fn spanner_pairs(&self) -> Vec<(Node, Node)> {
        let mut out: Vec<(Node, Node)> = self.counts.keys().map(|&k| unpack(k)).collect();
        out.sort_unstable();
        out
    }

    /// Materialises the current topology as a standalone CSR snapshot.
    pub fn to_csr(&self) -> CsrGraph {
        self.graph.to_csr()
    }

    /// Exports the current spanner as a [`Subgraph`] of `host`, which must
    /// have the same topology as [`RspanEngine::graph`] (e.g. the result of
    /// [`RspanEngine::to_csr`]).  Panics if a spanner edge is not a host edge.
    pub fn spanner_on<'g>(&self, host: &'g CsrGraph) -> Subgraph<'g> {
        assert_eq!(host.n(), self.graph.n(), "host has a different node set");
        let mut edges = EdgeSet::empty(host);
        for &key in self.counts.keys() {
            let (u, v) = unpack(key);
            let e = host
                .edge_id(u, v)
                .unwrap_or_else(|| panic!("spanner edge ({u}, {v}) is not an edge of the host"));
            edges.insert(e);
        }
        Subgraph::new(host, edges)
    }

    /// Absorbs a batch of topology changes and incrementally restores the
    /// spanner invariant, returning the net [`SpannerDelta`].
    ///
    /// The batch is applied sequentially, so it must be *internally valid*:
    /// an `AddEdge` must be absent and a `RemoveEdge` present at its position
    /// in the batch (panics otherwise, matching `apply_change`).  Cost is
    /// proportional to the dirty ball, not to `n + m`.
    pub fn commit(&mut self, batch: &[TopologyChange]) -> SpannerDelta {
        self.commit_parallel(batch, 1)
    }

    /// Like [`RspanEngine::commit`], but rebuilds the trees that can change
    /// on `threads` scoped worker threads (0 = available parallelism), each
    /// with its own pooled [`DomScratch`].
    ///
    /// The rebuild items are sorted by root id and cut into
    /// `DIRTY_CHUNK`-node chunks, and each worker takes one *contiguous
    /// block* of chunks — its roots cover an adjacent CSR id range, so the
    /// neighbor scans of one worker stay in nearby cache lines instead of
    /// the scattered residues a round-robin chunk deal produces.  Each
    /// worker writes finished tree edge lists into its own disjoint work
    /// slots, so the rebuild needs **no lock**.  The refcount merge of the
    /// per-shard contributions runs in the sequential install phase: unlike
    /// the full-build drivers, whose per-worker [`EdgeSet`]s merge with the
    /// word-level sharded union, a commit must track *counts* (and spanner
    /// pairs may live in the overlay, outside the base CSR's edge-id
    /// space), so the merge goes through the pair-keyed refcount map
    /// instead.  Every tree is a deterministic function of `(graph, root)`,
    /// and the retire decrements all land before any install increment, so
    /// the merged counts, the `touched` presence snapshot and hence the
    /// delta are independent of the install iteration order — the result —
    /// spanner, delta, epoch — is **bit-identical** to the sequential
    /// [`RspanEngine::commit`] at any thread count (property-tested at 2,
    /// 4 and 8 workers).
    ///
    /// Instrumentation comes from the stored handles: with telemetry
    /// attached ([`RspanEngine::set_telemetry`]) each phase is timed once
    /// into its span — the rebuild **inside each worker**, so
    /// [`Span::Rebuild`] sums worker busy time — and with an obs handle
    /// attached ([`RspanEngine::set_obs`]) the commit emits one
    /// [`ObsEvent::Commit`].  Off handles cost one branch per site, with no
    /// clock read or allocation (the on ≡ off property tests pin this).
    pub fn commit_parallel(&mut self, batch: &[TopologyChange], threads: usize) -> SpannerDelta {
        let commit_start = self.tel.on().then(Instant::now);
        let threads = resolve_threads(threads);
        let n = self.graph.n();
        let radius = self.dirty_radius();
        self.epoch += 1;
        self.dirty.begin(n);
        self.dirty_list.clear();
        self.touched.clear();

        // Dirty balls in the pre-batch topology.
        let mut span = self.tel.span(Span::Mark);
        self.mark_balls(batch, radius);
        // Apply the batch (validates each change).
        for change in batch {
            change.apply_to(&mut self.graph);
        }
        // Dirty balls in the post-batch topology.
        self.mark_balls(batch, radius);
        let only_visible = matches!(self.algo, TreeAlgo::KGreedy { .. });
        if only_visible {
            self.flag_visible(batch);
        }
        span.add_items(self.dirty_list.len() as u64);
        drop(span);

        // Phase 1 — retire: pull every dirty tree that can change out of the
        // cache and undo its refcount contribution, snapshotting each pair's
        // pre-commit presence on first touch (a pair being decremented is
        // necessarily present; increments later only snapshot pairs whose
        // count is 0, i.e. pairs no retired tree held — so the
        // all-decrements-first phasing records exactly the same pre-commit
        // presence the interleaved sequential sweep did).  A kept tree is
        // the one a rebuild would produce, so its refcounts stay as they are.
        let mut span = self.tel.span(Span::Retire);
        let mut work = std::mem::take(&mut self.work);
        work.clear();
        for i in 0..self.dirty_list.len() {
            let u = self.dirty_list[i];
            if only_visible && !self.visible.test(u) {
                continue;
            }
            let mut edges = std::mem::take(&mut self.trees[u as usize]);
            for &(p, c) in &edges {
                let key = pack(p, c);
                self.touched.entry(key).or_insert(true);
                let cnt = self
                    .counts
                    .get_mut(&key)
                    .expect("cached tree edge must be refcounted");
                *cnt -= 1;
                if *cnt == 0 {
                    self.counts.remove(&key);
                }
            }
            edges.clear();
            work.push((u, edges));
        }
        span.add_items(work.len() as u64);
        drop(span);

        // Phase 2 — rebuild: recompute exactly the retired trees, sharded
        // across workers when the dirty set is worth the fan-out.  Each
        // worker times itself (the telemetry shards are `Sync`), so the
        // Rebuild span is Σ worker busy ns, not the scope's wall time.
        if threads > 1 && work.len() >= 2 * DIRTY_CHUNK {
            while self.par_dom.len() < threads {
                self.par_dom.push(DomScratch::with_capacity(n));
            }
            // Sort by root id so each worker's contiguous block of chunks
            // scans an adjacent CSR id range.  Bit-identity is unaffected:
            // trees are functions of (graph, root) and the install phase's
            // refcount merge is iteration-order independent (all retire
            // decrements happened above, before any install increment).
            work.sort_unstable_by_key(|(u, _)| *u);
            let graph = &self.graph;
            let algo = self.algo;
            let tel = &self.tel;
            let mut buckets: Vec<Vec<&mut [RebuildItem]>> =
                (0..threads).map(|_| Vec::new()).collect();
            let block = work.len().div_ceil(DIRTY_CHUNK).div_ceil(threads);
            for (i, chunk) in work.chunks_mut(DIRTY_CHUNK).enumerate() {
                buckets[i / block].push(chunk);
            }
            std::thread::scope(|scope| {
                for (bucket, dom) in buckets.into_iter().zip(self.par_dom.iter_mut()) {
                    scope.spawn(move || {
                        let mut span = tel.span(Span::Rebuild);
                        for chunk in bucket {
                            for (u, edges) in chunk.iter_mut() {
                                let tree = algo.build_with_scratch(graph, *u, dom);
                                debug_assert_eq!(tree.root(), *u);
                                tree.for_each_edge(|p, c| edges.push((p, c)));
                            }
                            span.add_items(chunk.len() as u64);
                        }
                    });
                }
            });
        } else {
            let mut span = self.tel.span(Span::Rebuild);
            for (u, edges) in work.iter_mut() {
                let tree = self.algo.build_with_scratch(&self.graph, *u, &mut self.dom);
                debug_assert_eq!(tree.root(), *u);
                tree.for_each_edge(|p, c| edges.push((p, c)));
            }
            span.add_items(work.len() as u64);
        }

        // Phase 3 — install: merge the per-shard contributions back into the
        // refcounted spanner, in `dirty_list` order.
        let mut span = self.tel.span(Span::Install);
        for (u, edges) in work.iter_mut() {
            for &(p, c) in edges.iter() {
                let key = pack(p, c);
                let entry = self.counts.entry(key).or_insert(0);
                if *entry == 0 {
                    self.touched.entry(key).or_insert(false);
                }
                *entry += 1;
            }
            self.trees[*u as usize] = std::mem::take(edges);
        }
        let rebuilt = work.len();
        self.work = work;
        span.add_items(rebuilt as u64);
        drop(span);

        // Net delta: pairs whose presence flipped across the commit.
        let mut span = self.tel.span(Span::Delta);
        let mut added = Vec::new();
        let mut removed = Vec::new();
        for (&key, &pre) in &self.touched {
            let post = self.counts.contains_key(&key);
            match (pre, post) {
                (false, true) => added.push(unpack(key)),
                (true, false) => removed.push(unpack(key)),
                _ => {}
            }
        }
        added.sort_unstable();
        removed.sort_unstable();
        let mut recomputed = self.dirty_list.clone();
        recomputed.sort_unstable();
        span.add_items((added.len() + removed.len()) as u64);
        drop(span);

        // Amortised compaction keeps neighbor scans near CSR speed.
        let compacted = self.graph.should_compact(self.compact_fraction);
        if compacted {
            let mut span = self.tel.span(Span::Compact);
            self.graph.compact();
            span.add_items(1);
        }

        if self.obs.on() {
            self.obs.emit(ObsEvent::Commit {
                epoch: self.epoch,
                batch: batch.len() as u32,
                dirty: recomputed.len() as u32,
                added: added.len() as u32,
                removed: removed.len() as u32,
            });
        }
        if let Some(t0) = commit_start {
            self.tel.incr(Counter::EngineCommits);
            self.tel
                .add(Counter::EngineBatchChanges, batch.len() as u64);
            self.tel
                .add(Counter::EngineDirtyNodes, recomputed.len() as u64);
            self.tel.add(Counter::EngineTreesRebuilt, rebuilt as u64);
            self.tel
                .observe(Hist::CommitNs, t0.elapsed().as_nanos() as u64);
        }

        SpannerDelta {
            epoch: self.epoch,
            added,
            removed,
            recomputed,
            compacted,
        }
    }

    /// Marks the radius-`radius` ball around every changed endpoint in the
    /// *current* topology as dirty — one bounded BFS per *distinct* endpoint.
    fn mark_balls(&mut self, batch: &[TopologyChange], radius: u32) {
        self.endpoint_seen.begin(self.graph.n());
        for change in batch {
            let (a, b) = change.endpoints();
            for endpoint in [a, b] {
                if !self.endpoint_seen.set(endpoint) {
                    continue;
                }
                bfs_into(&self.graph, endpoint, radius, &mut self.sweep);
                for &v in self.sweep.visited() {
                    if self.dirty.set(v) {
                        self.dirty_list.push(v);
                    }
                }
            }
        }
    }

    /// Flags the roots whose [`TreeAlgo::KGreedy`] tree can see the batch:
    /// every endpoint, and every node adjacent to exactly one end of some
    /// change — one merge of the two ends' sorted neighbour lists a change,
    /// in the post-batch topology.
    fn flag_visible(&mut self, batch: &[TopologyChange]) {
        self.visible.begin(self.graph.n());
        let [na, nb] = &mut self.ends;
        for change in batch {
            let (a, b) = change.endpoints();
            self.visible.set(a);
            self.visible.set(b);
            na.clear();
            nb.clear();
            self.graph.for_each_neighbor(a, &mut |v| na.push(v));
            self.graph.for_each_neighbor(b, &mut |v| nb.push(v));
            let (mut i, mut j) = (0, 0);
            while i < na.len() && j < nb.len() {
                match na[i].cmp(&nb[j]) {
                    Ordering::Less => {
                        self.visible.set(na[i]);
                        i += 1;
                    }
                    Ordering::Greater => {
                        self.visible.set(nb[j]);
                        j += 1;
                    }
                    Ordering::Equal => {
                        i += 1;
                        j += 1;
                    }
                }
            }
            for &v in na[i..].iter().chain(&nb[j..]) {
                self.visible.set(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rspan_graph::generators::er::gnp_connected;
    use rspan_graph::generators::structured::{cycle_graph, grid_graph};

    #[test]
    fn pack_unpack_roundtrip() {
        for (u, v) in [(0u32, 1u32), (7, 3), (1_000_000, 2)] {
            let (a, b) = unpack(pack(u, v));
            assert!(a < b);
            assert_eq!(pack(a, b), pack(u, v));
        }
    }

    #[test]
    fn initial_build_matches_union_of_trees() {
        let g = grid_graph(5, 5);
        let algo = TreeAlgo::KGreedy { k: 2 };
        let engine = RspanEngine::new(g.clone(), algo);
        assert_eq!(engine.epoch(), 0);
        let mut scratch = DomScratch::new();
        let mut expect: Vec<(Node, Node)> = Vec::new();
        for u in g.nodes() {
            let tree = algo.build_with_scratch(&g, u, &mut scratch);
            tree.for_each_edge(|p, c| expect.push(if p < c { (p, c) } else { (c, p) }));
        }
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(engine.spanner_pairs(), expect);
        assert_eq!(engine.spanner_len(), expect.len());
        for &(u, v) in &expect {
            assert!(engine.contains_spanner_edge(u, v));
            assert!(engine.contains_spanner_edge(v, u));
        }
    }

    #[test]
    fn empty_commit_is_a_no_op_with_epoch_bump() {
        let mut engine = RspanEngine::new(cycle_graph(8), TreeAlgo::Mis { r: 2 });
        let before = engine.spanner_pairs();
        let delta = engine.commit(&[]);
        assert_eq!(delta.epoch, 1);
        assert!(delta.is_empty());
        assert!(delta.recomputed.is_empty());
        assert_eq!(engine.spanner_pairs(), before);
    }

    #[test]
    fn removed_topology_edges_leave_the_spanner() {
        let g = gnp_connected(50, 0.1, 4);
        let mut engine = RspanEngine::new(g.clone(), TreeAlgo::KGreedy { k: 1 });
        let (u, v) = g.edges().next().unwrap();
        let delta = engine.commit(&[TopologyChange::RemoveEdge(u, v)]);
        assert!(!engine.contains_spanner_edge(u, v));
        assert!(!engine.graph().has_edge(u, v));
        assert!(delta.recomputed.contains(&u) && delta.recomputed.contains(&v));
        // every remaining spanner edge is still a topology edge
        for (a, b) in engine.spanner_pairs() {
            assert!(engine.graph().has_edge(a, b));
        }
    }

    #[test]
    fn spanner_on_exports_the_same_edge_set() {
        let g = grid_graph(4, 6);
        let mut engine = RspanEngine::new(g, TreeAlgo::Greedy { r: 2, beta: 0 });
        engine.commit(&[TopologyChange::AddEdge(0, 23)]);
        let csr = engine.to_csr();
        let sub = engine.spanner_on(&csr);
        let mut pairs: Vec<(Node, Node)> = sub.edges().collect();
        pairs.sort_unstable();
        assert_eq!(pairs, engine.spanner_pairs());
    }

    #[test]
    fn commit_reports_compaction_per_policy() {
        let g = cycle_graph(12);
        let mut eager = RspanEngine::with_compaction(g.clone(), TreeAlgo::KGreedy { k: 1 }, 0.01);
        let delta = eager.commit(&[TopologyChange::AddEdge(0, 6)]);
        assert!(delta.compacted);
        assert_eq!(eager.graph().overlay_edges(), 0);
        let mut lazy = RspanEngine::with_compaction(g, TreeAlgo::KGreedy { k: 1 }, 10.0);
        let delta = lazy.commit(&[TopologyChange::AddEdge(0, 6)]);
        assert!(!delta.compacted);
        assert_eq!(lazy.graph().overlay_edges(), 1);
    }

    #[test]
    fn parallel_commit_is_bit_identical_to_sequential() {
        let g = gnp_connected(300, 0.03, 11);
        let algo = TreeAlgo::KGreedy { k: 2 };
        let mut seq = RspanEngine::new(g.clone(), algo);
        let mut par = RspanEngine::new(g, algo);
        // A batch big enough to actually engage the sharded rebuild.
        let edges: Vec<(Node, Node)> = seq.graph().base().edges().take(12).collect();
        let batch: Vec<TopologyChange> = edges
            .into_iter()
            .map(|(u, v)| TopologyChange::RemoveEdge(u, v))
            .collect();
        let d_seq = seq.commit(&batch);
        let d_par = par.commit_parallel(&batch, 4);
        assert_eq!(d_seq, d_par, "delta diverged under sharded rebuild");
        assert_eq!(seq.spanner_pairs(), par.spanner_pairs());
        for u in 0..seq.graph().n() as Node {
            assert_eq!(seq.tree_edges(u), par.tree_edges(u), "tree cache of {u}");
        }
    }

    #[test]
    fn observed_commit_matches_plain_and_profiles_phases() {
        use rspan_obs::ObsConfig;
        let g = gnp_connected(60, 0.08, 5);
        let algo = TreeAlgo::KGreedy { k: 2 };
        let mut plain = RspanEngine::new(g.clone(), algo);
        let mut observed = RspanEngine::new(g.clone(), algo);
        let obs = ObsHandle::mem(ObsConfig::default());
        let tel = TelemetryHandle::enabled();
        observed.set_obs(obs.clone());
        observed.set_telemetry(tel.clone());
        let (u, v) = g.edges().next().unwrap();
        let batch = [TopologyChange::RemoveEdge(u, v)];
        obs.set_now(3);
        let d_plain = plain.commit(&batch);
        let d_obs = observed.commit(&batch);
        assert_eq!(d_plain, d_obs, "observation changed the commit result");
        assert_eq!(plain.spanner_pairs(), observed.spanner_pairs());
        let snap = tel.snapshot().expect("telemetry enabled");
        for span in [Span::Mark, Span::Retire, Span::Rebuild, Span::Install] {
            assert_eq!(snap.span(span).calls, 1, "one {span:?} span per commit");
        }
        assert_eq!(snap.span(Span::Mark).items, d_obs.recomputed.len() as u64);
        let report = obs.take_report().expect("recorder attached");
        assert_eq!(report.commits, 1);
        assert_eq!(report.lines.len(), 1);
        assert!(report.lines[0].starts_with("{\"t\":3,\"kind\":\"commit\",\"epoch\":1,"));
    }

    #[test]
    fn parallel_observed_commit_folds_worker_rebuild_time() {
        use rspan_obs::ObsConfig;
        let g = gnp_connected(300, 0.03, 11);
        let algo = TreeAlgo::KGreedy { k: 2 };
        let mut plain = RspanEngine::new(g.clone(), algo);
        let mut instrumented = RspanEngine::new(g, algo);
        let tel = TelemetryHandle::enabled();
        let obs = ObsHandle::mem(ObsConfig::default());
        instrumented.set_telemetry(tel.clone());
        instrumented.set_obs(obs.clone());
        let edges: Vec<(Node, Node)> = plain.graph().base().edges().take(12).collect();
        let batch: Vec<TopologyChange> = edges
            .into_iter()
            .map(|(u, v)| TopologyChange::RemoveEdge(u, v))
            .collect();
        let d_plain = plain.commit(&batch);
        let d_inst = instrumented.commit_parallel(&batch, 4);
        // Telemetry + observation never perturb the deterministic result.
        assert_eq!(d_plain, d_inst, "instrumentation changed the commit");
        assert_eq!(plain.spanner_pairs(), instrumented.spanner_pairs());
        let snap = tel.snapshot().expect("telemetry enabled");
        let span = snap.span(Span::Rebuild);
        // One span per engaged worker, folded across the workers' shards,
        // covering every rebuilt tree exactly once.
        assert!(
            span.calls >= 2,
            "parallel rebuild engaged {} workers",
            span.calls
        );
        assert_eq!(span.items, snap.counter(Counter::EngineTreesRebuilt));
        assert!(span.items <= d_inst.recomputed.len() as u64);
        assert_eq!(snap.span(Span::Mark).calls, 1);
        assert_eq!(snap.counter(Counter::EngineCommits), 1);
        assert_eq!(
            snap.counter(Counter::EngineDirtyNodes),
            d_inst.recomputed.len() as u64
        );
        assert_eq!(snap.hist(Hist::CommitNs).count, 1);
        let report = obs.take_report().expect("recorder attached");
        assert_eq!(report.commits, 1);
        let dirty = format!("\"dirty\":{},", d_inst.recomputed.len());
        assert!(report.lines[0].contains(&dirty), "{}", report.lines[0]);
    }

    #[test]
    fn kgreedy_keeps_the_tree_of_a_node_adjacent_to_both_ends() {
        // 0 is adjacent to both 1 and 2, so losing (1, 2) is invisible to
        // its KGreedy tree: 0 is in the marked ball {0..=4} but keeps its
        // cached tree, while 3 and 4 each see exactly one end.  KMis marks
        // the radius-2 ball, every node, and rebuilds all of it.
        let g = CsrGraph::from_edges(6, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (0, 5)]);
        let batch = [TopologyChange::RemoveEdge(1, 2)];
        for (algo, marked, rebuilt) in [
            (TreeAlgo::KGreedy { k: 2 }, 5, 4),
            (TreeAlgo::KMis { k: 2 }, 6, 6),
        ] {
            let mut engine = RspanEngine::new(g.clone(), algo);
            let tel = TelemetryHandle::enabled();
            engine.set_telemetry(tel.clone());
            let delta = engine.commit(&batch);
            assert_eq!(delta.recomputed.len(), marked, "{algo:?}");
            let snap = tel.snapshot().expect("telemetry enabled");
            assert_eq!(snap.counter(Counter::EngineDirtyNodes), marked as u64);
            assert_eq!(
                snap.counter(Counter::EngineTreesRebuilt),
                rebuilt,
                "{algo:?}"
            );
            assert_eq!(snap.span(Span::Rebuild).items, rebuilt, "{algo:?}");
            let csr = engine.to_csr();
            let mut scratch = DomScratch::new();
            for u in 0..6 {
                let mut fresh = Vec::new();
                let tree = algo.build_with_scratch(&csr, u, &mut scratch);
                tree.for_each_edge(|p, c| fresh.push((p, c)));
                assert_eq!(engine.tree_edges(u), fresh, "{algo:?}: tree of {u}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn invalid_batch_panics() {
        let mut engine = RspanEngine::new(cycle_graph(5), TreeAlgo::KGreedy { k: 1 });
        engine.commit(&[TopologyChange::AddEdge(0, 1)]);
    }
}
