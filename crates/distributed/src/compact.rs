//! Compact routing: ball-local exact tables + landmark/tree routing,
//! breaking the `O(n²)` routing-state wall of [`crate::tables`].
//!
//! The dense [`crate::tables::RoutingTables`] keep `O(n)` state per node and
//! dominate every benchmark past a few thousand nodes.  The paper's own
//! structure is the way out: each node already maintains its radius-`R` ball
//! (`R = r − 1 + β`, the engine's dirty radius) and the spanner's dominating
//! trees, so [`CompactRouter`] stores, per node,
//!
//! * **ball rows** — exact canonical next hops for every destination within
//!   distance `R` in `H_u` (a truncated `tables::fill_row` BFS over the
//!   same sparse `H_u` view the delta repair sweeps use).  A BFS prefix is
//!   exact: every depth-`d ≤ R` node is discovered at its true distance, and
//!   its canonical hop is final once all depth-`d − 1` predecessors have
//!   been expanded — so entries with `dist ≤ R` are *bit-identical* to the
//!   corresponding full-row entries;
//! * **landmark trees** — a small landmark set (a stride sample of the node
//!   ids plus the minimum node of every spanner component, so every
//!   reachable target has a reachable landmark), each carrying one BFS tree
//!   over the **pure spanner** adjacency: depths and canonical (minimum-id)
//!   parents.  Far targets resolve a *home landmark* (closest by tree
//!   distance) and route up/down its tree: walking the target up to one
//!   level below the current node decides descend-vs-ascend statelessly at
//!   every hop, in at most the target's landmark distance;
//! * an **LRU row cache** for hot destinations: [`CompactRouter::exact_next_hop`]
//!   materialises a full canonical row on demand (the scratch-pool epoch
//!   idiom — epoch-stamped slots, sentinel slot map), and each commit
//!   invalidates cached rows with the *same* O(1)-per-flip predicate
//!   [`crate::delta::DeltaRouter`] proves exact, so surviving rows never go
//!   stale.
//!
//! Per-node state is `Õ(ball + landmarks)`:
//! `12·|ball| + 8·L + 12·cache_capacity` bytes instead of the dense `8n`.
//!
//! # Delivery and stretch
//!
//! [`CompactRouter::forward`] first walks ball hops while the target is
//! ball-visible (each such hop strictly decreases `d_{H_w}(w, dst)`: the
//! shortest-path suffix avoids `w`, lies in the spanner plus the *next*
//! node's incident edges, hence stays ball-visible at smaller distance), and
//! otherwise climbs/descends the home-landmark tree (strictly decreasing
//! tree distance).  Both regimes are loop-free and the ball regime can only
//! shortcut the tree route, so the hop count is bounded by
//! `d_T(src, ℓ*) + d_T(ℓ*, dst)` — the classical landmark bound.  Measured
//! stretch against true graph distances is what the bench and the session's
//! `stretch_p50/p99` metrics report.
//!
//! # Incremental repair
//!
//! Per engine commit ([`CompactRouter::apply`]):
//!
//! * **ball rows** rebuild for the conservative dirty set
//!   `delta.recomputed ∪ ⋃ ball_G(endpoint, R)` over all spanner-flip
//!   endpoints (post-commit topology; `d_G ≤ d_{H_u}` makes the `G`-ball a
//!   superset of every affected `H_u`-ball, and reachability lost through a
//!   batch removal is already covered by `recomputed`, which contains the
//!   pre-commit dirty balls of every batch endpoint);
//! * **landmark trees** are functions of the pure spanner, so link-only
//!   commits skip them entirely; otherwise each flip is tested against each
//!   tree with an O(1) predicate (mirroring the delta-router row predicate:
//!   an equal-depth flip, an added non-improving predecessor, or a removed
//!   non-parent predecessor provably leaves depths and canonical parents
//!   unchanged), and a tree some flip does change is repaired in place
//!   (dynamic BFS in the Even–Shiloach / Ramalingam–Reps style): only nodes
//!   whose depth or canonical parent changes are moved, bit-identical to a
//!   rebuild.  Newly elected landmarks get a fresh BFS tree;
//! * **cached rows** run the exact delta-router flip predicate (with
//!   in-place support maintenance) and drop only the rows a flip actually
//!   changes, plus the rows of batch endpoints.

use crate::delta::SparseView;
use crate::tables::{fill_row, NO_HOP, UNREACH};
use rspan_engine::{RspanEngine, SpannerDelta, TopologyChange};
use rspan_graph::{
    bfs_into, connected_components, sorted_insert, sorted_remove, Adjacency, EpochFlags, Node,
    TraversalScratch,
};
use rspan_obs::{ObsEvent, ObsHandle};
use rspan_telemetry::{Counter, Gauge, Hist, Span, TelemetryHandle};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Pure-spanner adjacency view (no incident-edge augmentation) — the
/// substrate landmark trees and components are computed on.
struct SpannerOnly<'a> {
    n: usize,
    adj: &'a [Vec<Node>],
}

impl Adjacency for SpannerOnly<'_> {
    fn num_nodes(&self) -> usize {
        self.n
    }

    #[inline]
    fn for_each_neighbor(&self, u: Node, f: &mut dyn FnMut(Node)) {
        for &v in &self.adj[u as usize] {
            f(v);
        }
    }

    fn degree_hint(&self, u: Node) -> usize {
        self.adj[u as usize].len()
    }

    fn contains_edge(&self, u: Node, v: Node) -> bool {
        self.adj[u as usize].binary_search(&v).is_ok()
    }
}

/// Configuration for [`CompactRouter`] (and the session's `Repair::Local`).
///
/// Kept `Copy + Eq` (no floats) so it can ride inside session enums; the
/// stretch *bound* is a property of the measurement, not the router.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LocalConfig {
    /// Target landmark count for the stride sample; `0` means `⌈√n⌉`.
    /// The per-spanner-component minimum nodes are always added on top so
    /// every reachable destination has a reachable landmark.
    pub landmarks: usize,
    /// LRU row-cache capacity in full rows; `0` disables caching (exact
    /// queries then refill one persistent scratch row per call).
    pub cache_capacity: usize,
}

impl Default for LocalConfig {
    fn default() -> Self {
        LocalConfig {
            landmarks: 0,
            cache_capacity: 32,
        }
    }
}

/// Row-cache traffic counters (monotonic since construction).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Exact queries answered from a cached row.
    pub hits: u64,
    /// Exact queries that had to materialise a row.
    pub misses: u64,
    /// Rows evicted by LRU pressure.
    pub evictions: u64,
    /// Full rows materialised (misses, counted per fill).
    pub materialized: u64,
}

/// What one [`CompactRouter::apply`] did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LocalRepairStats {
    /// Router epoch after the repair (mirrors the consumed delta's epoch).
    pub epoch: u64,
    /// Ball rows rebuilt.
    pub ball_rows: usize,
    /// Landmark trees repaired or built (changed by a flip, or newly
    /// elected).
    pub landmark_trees: usize,
    /// Cached rows dropped by the flip predicate or batch endpoints.
    pub cache_invalidated: usize,
    /// Topology changes in the consumed batch.
    pub batch_changes: usize,
    /// Spanner edges that entered or left.
    pub spanner_flips: usize,
}

/// One exact ball entry: destination, canonical next hop, `H_u` distance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct BallEntry {
    dst: Node,
    hop: Node,
    dist: u32,
}

/// One landmark's BFS tree over the pure spanner: distances and canonical
/// (minimum-id) parents.  Whether a hop descends or ascends is read off an
/// ancestor walk ([`tree_hop`]), so re-parenting a subtree touches only the
/// nodes whose depth or parent changed.
struct LandmarkTree {
    root: Node,
    dist: Vec<u32>,
    parent: Vec<Node>,
}

impl LandmarkTree {
    fn empty(root: Node) -> Self {
        LandmarkTree {
            root,
            dist: Vec::new(),
            parent: Vec::new(),
        }
    }
}

/// Scratch for [`rebuild_tree`] and [`repair_tree`], pooled on the router.
#[derive(Default)]
struct TreeScratch {
    /// BFS queue of a build; the parent fix-up list of a repair.
    queue: Vec<Node>,
    /// `(depth, node)` min-heap: repair candidates by old depth, then the
    /// unit-weight Dijkstra frontier.
    heap: BinaryHeap<Reverse<(u32, Node)>>,
    /// Nodes whose depth a repair rewrote, each once, with the old depth.
    moved: Vec<(Node, u32)>,
    moved_seen: EpochFlags,
    fix_seen: EpochFlags,
}

impl TreeScratch {
    /// Lowers `v`'s depth to `d` if that is shorter, recording `v`'s depth
    /// before the repair and queueing it for the Dijkstra.
    fn lower(&mut self, dist: &mut [u32], v: Node, d: u32) {
        if d < dist[v as usize] {
            if self.moved_seen.set(v) {
                self.moved.push((v, dist[v as usize]));
            }
            dist[v as usize] = d;
            self.heap.push(Reverse((d, v)));
        }
    }
}

/// Builds `tree` from scratch over `adj`: a canonical-parent BFS (every
/// predecessor of `v` is dequeued before `v` is expanded, so the min-id fold
/// is final by then).
fn rebuild_tree(tree: &mut LandmarkTree, adj: &[Vec<Node>], queue: &mut Vec<Node>) {
    let n = adj.len();
    tree.dist.clear();
    tree.dist.resize(n, UNREACH);
    tree.parent.clear();
    tree.parent.resize(n, NO_HOP);
    queue.clear();
    tree.dist[tree.root as usize] = 0;
    queue.push(tree.root);
    let mut head = 0usize;
    while head < queue.len() {
        let w = queue[head];
        head += 1;
        let dw = tree.dist[w as usize];
        for &v in &adj[w as usize] {
            let dv = &mut tree.dist[v as usize];
            if *dv == UNREACH {
                *dv = dw + 1;
                tree.parent[v as usize] = w;
                queue.push(v);
            } else if *dv == dw + 1 && w < tree.parent[v as usize] {
                tree.parent[v as usize] = w;
            }
        }
    }
}

/// Repairs `tree` in place for the spanner `flips` (`(x, y, added)`), `adj`
/// being the post-flip adjacency, so that it equals [`rebuild_tree`] over
/// `adj`.  Returns `false`, touching nothing, when no flip can change the
/// tree.
///
/// 1. *Seed* each flip on the pre-flip tree, by depth, lower end `lo`,
///    higher end `hi`: a removed parent edge makes `hi` a candidate for a
///    depth increase; an added edge spanning more than one level (or
///    reaching an unreachable `hi`) shortens a path, and one between
///    adjacent levels with `lo < parent[hi]` gives `hi` a smaller parent.
///    Equal depths and every other flip change nothing.
/// 2. *Increases*: in increasing old depth, a candidate with no neighbour
///    left one level up loses its depth, and its tree children become
///    candidates.  Every node not invalidated keeps a path no longer than
///    before.
/// 3. *Decreases*: each invalidated node restarts one past its best
///    neighbour, each added edge relaxes its far end, and a unit-weight
///    Dijkstra settles the new depths in increasing order.  The first node
///    on a new shortest path whose old depth was wrong is reached by one of
///    these seeds, so every settled depth is exact.
/// 4. *Canonical parents* are recomputed (smallest neighbour one level up)
///    for every node whose depth changed, their neighbours, and every flip
///    endpoint: no other node's set of candidate parents changed.
fn repair_tree(
    tree: &mut LandmarkTree,
    adj: &[Vec<Node>],
    flips: &[(Node, Node, bool)],
    s: &mut TreeScratch,
) -> bool {
    let n = adj.len();
    s.heap.clear();
    let mut seeded = false;
    for &(x, y, is_add) in flips {
        let (dx, dy) = (tree.dist[x as usize], tree.dist[y as usize]);
        if dx == dy {
            // Equal depth (or both unreachable): on no tree path, no
            // predecessor relation, child sets unchanged.
            continue;
        }
        let (lo, hi, dlo, dhi) = if dx < dy {
            (x, y, dx, dy)
        } else {
            (y, x, dy, dx)
        };
        let adjacent_levels = dhi != UNREACH && dhi - dlo == 1;
        if is_add {
            // A shortcut, or an improving predecessor; a non-improving
            // extra predecessor changes nothing.
            seeded |= !adjacent_levels || lo < tree.parent[hi as usize];
        } else if adjacent_levels {
            if tree.parent[hi as usize] == lo {
                seeded = true; // the canonical parent edge is gone
                s.heap.push(Reverse((dhi, hi)));
            }
        } else {
            // A present tree edge forces Δ ≤ 1 with both ends reachable;
            // anything else is a bookkeeping bug — rebuild defensively.
            rebuild_tree(tree, adj, &mut s.queue);
            return true;
        }
    }
    if !seeded {
        return false;
    }
    let LandmarkTree { root, dist, parent } = tree;

    // Increases.  Candidates pop in increasing old depth and only push
    // children one level deeper, so every node one level up is final.
    s.moved.clear();
    s.moved_seen.begin(n);
    while let Some(Reverse((d, v))) = s.heap.pop() {
        let list = &adj[v as usize];
        if dist[v as usize] != d || list.iter().any(|&u| dist[u as usize] == d - 1) {
            continue; // already invalidated, or still supported
        }
        dist[v as usize] = UNREACH;
        s.moved_seen.set(v);
        s.moved.push((v, d));
        for &c in list {
            if parent[c as usize] == v {
                s.heap.push(Reverse((d + 1, c)));
            }
        }
    }

    // Decreases and re-attachment.  Every tentative depth is the length of
    // a real path, so relaxation only lowers it toward the exact one.
    for i in 0..s.moved.len() {
        let v = s.moved[i].0;
        let best = adj[v as usize].iter().map(|&u| dist[u as usize]).min();
        if let Some(best) = best.filter(|&d| d != UNREACH) {
            s.lower(dist, v, best + 1);
        }
    }
    for &(x, y, is_add) in flips {
        if is_add {
            for (from, to) in [(x, y), (y, x)] {
                let d = dist[from as usize];
                if d != UNREACH {
                    s.lower(dist, to, d + 1);
                }
            }
        }
    }
    while let Some(Reverse((d, v))) = s.heap.pop() {
        if d == dist[v as usize] {
            for &w in &adj[v as usize] {
                s.lower(dist, w, d + 1);
            }
        }
    }

    // Canonical parents.
    s.fix_seen.begin(n);
    s.queue.clear();
    for &(v, old) in &s.moved {
        if dist[v as usize] != old {
            for u in std::iter::once(v).chain(adj[v as usize].iter().copied()) {
                if s.fix_seen.set(u) {
                    s.queue.push(u);
                }
            }
        }
    }
    for &(x, y, _) in flips {
        for u in [x, y] {
            if s.fix_seen.set(u) {
                s.queue.push(u);
            }
        }
    }
    for &v in &s.queue {
        if v == *root {
            continue;
        }
        let dv = dist[v as usize];
        parent[v as usize] = if dv == UNREACH {
            NO_HOP
        } else {
            *adj[v as usize]
                .iter()
                .find(|&&u| dist[u as usize] == dv - 1)
                .expect("a reachable non-root node has a neighbour one level up")
        };
    }
    true
}

/// Next hop from `w` toward `dst` along `tree` (both reachable in the tree,
/// `w != dst`): the child of `w` on the tree path when `dst` lies below `w`,
/// `parent[w]` otherwise.  Walks `dst` up to depth `dist[w] + 1`, at most
/// `dist[dst]` steps.
fn tree_hop(tree: &LandmarkTree, w: Node, dst: Node) -> Node {
    let dw = tree.dist[w as usize];
    let mut a = dst;
    let mut da = tree.dist[dst as usize];
    if da > dw {
        while da > dw + 1 {
            a = tree.parent[a as usize];
            da -= 1;
        }
        if tree.parent[a as usize] == w {
            return a;
        }
    }
    tree.parent[w as usize]
}

/// One cached full row: the canonical next hops, distances and supports of a
/// hot source, epoch-stamped for the LRU bookkeeping.
struct RowSlot {
    src: Node,
    last_used: u64,
    epoch: u64,
    next: Vec<Node>,
    dist: Vec<u32>,
    support: Vec<u32>,
}

const NO_SLOT: u32 = u32::MAX;

/// The epoch-stamped LRU row cache: `slot_of` maps a source to its slot (or
/// the `NO_SLOT` sentinel), slots are recycled through `free` so repeated
/// materialisation never reallocates rows.
struct RowCache {
    cap: usize,
    tick: u64,
    slot_of: Vec<u32>,
    slots: Vec<RowSlot>,
    free: Vec<RowSlot>,
    /// Persistent scratch row used when `cap == 0`.
    scratch: Option<RowSlot>,
    stats: CacheStats,
}

impl RowCache {
    fn new(n: usize, cap: usize) -> Self {
        RowCache {
            cap,
            tick: 0,
            slot_of: vec![NO_SLOT; n],
            slots: Vec::new(),
            free: Vec::new(),
            scratch: None,
            stats: CacheStats::default(),
        }
    }

    fn blank_slot(&mut self, n: usize) -> RowSlot {
        let mut slot = self.free.pop().unwrap_or_else(|| RowSlot {
            src: NO_HOP,
            last_used: 0,
            epoch: 0,
            next: vec![NO_HOP; n],
            dist: vec![UNREACH; n],
            support: vec![0; n],
        });
        slot.next.resize(n, NO_HOP);
        slot.dist.resize(n, UNREACH);
        slot.support.resize(n, 0);
        slot
    }

    fn drop_slot(&mut self, idx: usize) {
        let slot = self.slots.swap_remove(idx);
        self.slot_of[slot.src as usize] = NO_SLOT;
        if idx < self.slots.len() {
            let moved = self.slots[idx].src;
            self.slot_of[moved as usize] = idx as u32;
        }
        self.free.push(slot);
    }
}

/// Compact routing state: exact ball rows, landmark trees and an LRU cache
/// of materialised full rows, all repaired incrementally from engine commits
/// (see the module docs for the structure and the correctness arguments).
///
/// Lifecycle mirrors [`crate::delta::DeltaRouter`]: build once from an
/// engine, then feed every `(batch, delta)` pair in epoch order.
pub struct CompactRouter {
    n: usize,
    epoch: u64,
    radius: u32,
    cfg: LocalConfig,
    /// Sorted spanner neighbor lists, maintained from the deltas.
    spanner_adj: Vec<Vec<Node>>,
    /// Per-node exact ball rows, sorted by destination.
    balls: Vec<Vec<BallEntry>>,
    /// Current landmark set, sorted ascending.
    landmarks: Vec<Node>,
    /// Trees aligned with `landmarks`.
    trees: Vec<LandmarkTree>,
    cache: RowCache,
    // Scratch pools (epoch-stamped where flag-shaped).
    queue: Vec<Node>,
    tree_scratch: TreeScratch,
    tmp_next: Vec<Node>,
    tmp_dist: Vec<u32>,
    src_neighbors: Vec<Node>,
    src_adj: EpochFlags,
    sweep: TraversalScratch,
    dirty: EpochFlags,
    dirty_list: Vec<Node>,
    endpoint_seen: EpochFlags,
    flips: Vec<(Node, Node, bool)>,
    spare_trees: Vec<LandmarkTree>,
    /// Wall time spent materialising rows since the last commit (measured
    /// only with telemetry on), flushed into [`Span::Materialize`] at the
    /// next [`CompactRouter::apply`].
    pending_materialize_ns: u64,
    /// Cache counters at the last commit, for per-commit event deltas.
    cache_mark: CacheStats,
    tel: TelemetryHandle,
    obs: ObsHandle,
    /// Cache population at the last telemetry flush, for the gauge delta.
    cache_entries_mark: i64,
}

impl CompactRouter {
    /// Builds the compact state for the engine's *current* spanner and
    /// topology: every ball row, the landmark set and all landmark trees.
    pub fn new(engine: &RspanEngine, cfg: LocalConfig) -> Self {
        let n = engine.graph().n();
        let mut spanner_adj: Vec<Vec<Node>> = vec![Vec::new(); n];
        for (u, v) in engine.spanner_pairs() {
            spanner_adj[u as usize].push(v);
            spanner_adj[v as usize].push(u);
        }
        for list in &mut spanner_adj {
            list.sort_unstable();
        }
        let mut router = CompactRouter {
            n,
            epoch: engine.epoch(),
            radius: engine.dirty_radius().max(1),
            cfg,
            spanner_adj,
            balls: vec![Vec::new(); n],
            landmarks: Vec::new(),
            trees: Vec::new(),
            cache: RowCache::new(n, cfg.cache_capacity),
            queue: Vec::with_capacity(n),
            tree_scratch: TreeScratch::default(),
            tmp_next: vec![NO_HOP; n],
            tmp_dist: vec![UNREACH; n],
            src_neighbors: Vec::new(),
            src_adj: EpochFlags::new(),
            sweep: TraversalScratch::with_capacity(n),
            dirty: EpochFlags::new(),
            dirty_list: Vec::new(),
            endpoint_seen: EpochFlags::new(),
            flips: Vec::new(),
            spare_trees: Vec::new(),
            pending_materialize_ns: 0,
            cache_mark: CacheStats::default(),
            tel: TelemetryHandle::off(),
            obs: ObsHandle::off(),
            cache_entries_mark: 0,
        };
        for u in 0..n as Node {
            router.fill_ball(engine, u);
        }
        router.elect_landmarks();
        let roots = router.landmarks.clone();
        for root in roots {
            let mut tree = router.spare_tree(root);
            rebuild_tree(
                &mut tree,
                &router.spanner_adj,
                &mut router.tree_scratch.queue,
            );
            router.trees.push(tree);
        }
        router
    }

    /// Installs a live telemetry handle: repairs record wall-clock spans
    /// ([`Span::BallRepair`] / [`Span::LandmarkRepair`] /
    /// [`Span::Materialize`]), compact + cache counters, the
    /// [`Gauge::CacheEntries`] population and a [`Hist::RepairNs`] sample.
    /// Never consulted on the off handle.
    pub fn set_telemetry(&mut self, tel: TelemetryHandle) {
        self.tel = tel;
    }

    /// Attaches a deterministic event trace: every repair emits one
    /// [`ObsEvent::LocalRepair`] summarising the rebuilt ball rows, the
    /// repaired or built landmark trees and the cache traffic since the last
    /// commit.  Off by default.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.obs = obs;
    }

    /// Engine epoch the compact state currently reflects.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of nodes routed.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Ball radius (`r − 1 + β`, the engine's dirty radius).
    pub fn radius(&self) -> u32 {
        self.radius
    }

    /// The current landmark set, sorted ascending.
    pub fn landmarks(&self) -> &[Node] {
        &self.landmarks
    }

    /// Cache traffic counters (monotonic).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats
    }

    /// Total ball entries across all nodes.
    pub fn ball_entries(&self) -> usize {
        self.balls.iter().map(Vec::len).sum()
    }

    /// Total compact routing state in bytes: ball entries (12 B each),
    /// landmark trees (8 B per node per tree) and the row cache at
    /// capacity (12 B per destination per slot).
    pub fn state_bytes(&self) -> usize {
        self.ball_entries() * 12
            + self.trees.len() * self.n * 8
            + self.cfg.cache_capacity * self.n * 12
    }

    /// Tree distance from `dst` to its home landmark (`None` if no landmark
    /// reaches `dst`, i.e. `dst` is isolated from every component minimum —
    /// impossible for reachable pairs).
    pub fn landmark_distance(&self, dst: Node) -> Option<u32> {
        self.home_landmark(dst)
            .map(|h| self.trees[h].dist[dst as usize])
    }

    /// Index (into [`CompactRouter::landmarks`]) of `dst`'s home landmark:
    /// the closest by tree distance, ties to the smallest landmark id.
    pub fn home_landmark(&self, dst: Node) -> Option<usize> {
        let mut best: Option<(u32, usize)> = None;
        for (i, tree) in self.trees.iter().enumerate() {
            let d = tree.dist[dst as usize];
            if d != UNREACH && best.is_none_or(|(bd, _)| d < bd) {
                best = Some((d, i));
            }
        }
        best.map(|(_, i)| i)
    }

    /// Exact ball lookup: the canonical next hop from `u` toward `v` when
    /// `v` lies within `u`'s radius-`R` ball in `H_u`.
    pub fn ball_hop(&self, u: Node, v: Node) -> Option<Node> {
        let row = &self.balls[u as usize];
        row.binary_search_by_key(&v, |e| e.dst)
            .ok()
            .map(|i| row[i].hop)
    }

    /// Compact next hop from `u` toward `v`: the exact ball entry when `v`
    /// is ball-visible, otherwise one step along `v`'s home-landmark tree.
    /// `None` when `u == v` or no landmark connects the pair.
    ///
    /// Deliberately cache-independent (`&self`): the hop sequence — and so
    /// the measured stretch — never depends on which rows happen to be hot.
    pub fn next_hop(&self, u: Node, v: Node) -> Option<Node> {
        if u == v {
            return None;
        }
        if let Some(hop) = self.ball_hop(u, v) {
            return Some(hop);
        }
        let home = self.home_landmark(v)?;
        let tree = &self.trees[home];
        if tree.dist[u as usize] == UNREACH {
            return None;
        }
        Some(tree_hop(tree, u, v))
    }

    /// Forwards a packet from `s` to `t` hop by hop (ball hops while `t` is
    /// ball-visible, home-landmark tree hops otherwise), resolving the home
    /// landmark once.  Returns the full path, or `None` if unreachable.
    pub fn forward(&self, s: Node, t: Node) -> Option<Vec<Node>> {
        if s == t {
            return Some(vec![s]);
        }
        let home = self.home_landmark(t)?;
        let tree = &self.trees[home];
        if tree.dist[s as usize] == UNREACH {
            return None;
        }
        let mut path = vec![s];
        let mut w = s;
        let limit = 2 * self.n + 2;
        while w != t {
            let hop = match self.ball_hop(w, t) {
                Some(hop) => hop,
                None => tree_hop(tree, w, t),
            };
            path.push(hop);
            w = hop;
            assert!(
                path.len() <= limit,
                "compact forwarding failed to terminate from {s} to {t}"
            );
        }
        Some(path)
    }

    /// Exact canonical next hop from `u` toward `v`, answered from `u`'s
    /// cached row (materialised on demand through the LRU cache).  Matches
    /// the dense-table entry bit for bit.
    ///
    /// `engine` must be the engine this router tracks, at the same epoch.
    pub fn exact_next_hop(&mut self, engine: &RspanEngine, u: Node, v: Node) -> Option<Node> {
        if u == v {
            return None;
        }
        let hop = self.with_row(engine, u, |row| row.next[v as usize]);
        (hop != NO_HOP).then_some(hop)
    }

    /// Exact `d_{H_u}(u, v)` from `u`'s cached row.
    pub fn exact_distance(&mut self, engine: &RspanEngine, u: Node, v: Node) -> Option<u32> {
        if u == v {
            return Some(0);
        }
        let d = self.with_row(engine, u, |row| row.dist[v as usize]);
        (d != UNREACH).then_some(d)
    }

    /// Consumes one engine commit and repairs the compact state.
    ///
    /// With telemetry attached ([`CompactRouter::set_telemetry`]) ball-row
    /// rebuilds and landmark-tree repairs are timed into [`Span::BallRepair`] /
    /// [`Span::LandmarkRepair`], and the wall time query-path
    /// materialisation accumulated since the last commit is flushed into
    /// [`Span::Materialize`].  With an obs handle attached
    /// ([`CompactRouter::set_obs`]) a deterministic
    /// [`ObsEvent::LocalRepair`] summarises the repair plus the cache
    /// traffic since the last commit.
    pub fn apply(
        &mut self,
        engine: &RspanEngine,
        batch: &[TopologyChange],
        delta: &SpannerDelta,
    ) -> LocalRepairStats {
        let repair_start = self.tel.on().then(Instant::now);
        assert_eq!(
            delta.epoch,
            self.epoch + 1,
            "compact router missed a delta (have epoch {}, got {})",
            self.epoch,
            delta.epoch
        );
        assert_eq!(
            engine.epoch(),
            delta.epoch,
            "delta does not match the engine's current epoch"
        );
        let n = self.n;
        self.flips.clear();
        self.flips
            .extend(delta.added.iter().map(|&(x, y)| (x, y, true)));
        self.flips
            .extend(delta.removed.iter().map(|&(x, y)| (x, y, false)));

        // Cached rows: the exact delta-router predicate against the
        // pre-flip rows decides survival; batch endpoints always drop
        // (their incident sets changed).
        let cache_invalidated = self.invalidate_cache(batch);

        // Only now mutate the spanner adjacency to the post-commit state.
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

        // Ball rows: delta.recomputed already covers every node whose local
        // structures the engine touched (including pre-commit balls of
        // batch endpoints); add the post-commit G-balls of flip endpoints,
        // a superset of every H_u-ball containing a flipped edge.
        self.dirty.begin(n);
        self.dirty_list.clear();
        for &u in &delta.recomputed {
            if self.dirty.set(u) {
                self.dirty_list.push(u);
            }
        }
        self.endpoint_seen.begin(n);
        for fi in 0..self.flips.len() {
            let (x, y, _) = self.flips[fi];
            for endpoint in [x, y] {
                if !self.endpoint_seen.set(endpoint) {
                    continue;
                }
                bfs_into(engine.graph(), endpoint, self.radius, &mut self.sweep);
                for i in 0..self.sweep.num_visited() {
                    let v = self.sweep.visited()[i];
                    if self.dirty.set(v) {
                        self.dirty_list.push(v);
                    }
                }
            }
        }
        let mut span = self.tel.span(Span::BallRepair);
        let dirty_rows = std::mem::take(&mut self.dirty_list);
        for &u in &dirty_rows {
            self.fill_ball(engine, u);
        }
        self.dirty_list = dirty_rows;
        let ball_rows = self.dirty_list.len();
        span.add_items(ball_rows as u64);
        drop(span);

        // Landmark set + trees: pure functions of the spanner, so only a
        // spanner flip touches them.  Re-elect (component structure may have
        // changed), repair kept trees in place, build trees of new
        // landmarks, retire trees of demoted landmarks into the spare pool.
        let mut span = self.tel.span(Span::LandmarkRepair);
        let mut trees_touched = 0usize;
        if !self.flips.is_empty() {
            let old_landmarks = std::mem::take(&mut self.landmarks);
            let mut old_trees: Vec<Option<LandmarkTree>> = std::mem::take(&mut self.trees)
                .into_iter()
                .map(Some)
                .collect();
            self.elect_landmarks();
            let landmarks = std::mem::take(&mut self.landmarks);
            for &root in &landmarks {
                let kept = old_landmarks
                    .binary_search(&root)
                    .ok()
                    .and_then(|i| old_trees[i].take());
                let tree = match kept {
                    Some(mut tree) => {
                        if repair_tree(
                            &mut tree,
                            &self.spanner_adj,
                            &self.flips,
                            &mut self.tree_scratch,
                        ) {
                            trees_touched += 1;
                        }
                        tree
                    }
                    None => {
                        trees_touched += 1;
                        let mut tree = self.spare_tree(root);
                        rebuild_tree(&mut tree, &self.spanner_adj, &mut self.tree_scratch.queue);
                        tree
                    }
                };
                self.trees.push(tree);
            }
            self.landmarks = landmarks;
            self.spare_trees.extend(old_trees.into_iter().flatten());
        }
        span.add_items(trees_touched as u64);
        drop(span);

        let s = self.cache.stats;
        let m = self.cache_mark;
        // Rows materialise one by one on the query path, so their time is
        // accumulated there and recorded here as one span per commit.
        let materialized = s.materialized - m.materialized;
        if materialized > 0 {
            self.tel
                .span_record(Span::Materialize, self.pending_materialize_ns, materialized);
        }
        if let Some(start) = repair_start {
            self.tel.incr(Counter::CompactRepairs);
            self.tel.add(Counter::CompactBallRows, ball_rows as u64);
            self.tel
                .add(Counter::CompactTreesRebuilt, trees_touched as u64);
            self.tel.add(Counter::CacheHits, s.hits - m.hits);
            self.tel.add(Counter::CacheMisses, s.misses - m.misses);
            self.tel.add(Counter::CacheMaterialized, materialized);
            self.tel
                .add(Counter::CacheEvictions, s.evictions - m.evictions);
            let entries = self.cache.slots.len() as i64;
            self.tel
                .gauge_add(Gauge::CacheEntries, entries - self.cache_entries_mark);
            self.cache_entries_mark = entries;
            self.tel
                .observe(Hist::RepairNs, start.elapsed().as_nanos() as u64);
        }
        if self.obs.on() {
            self.obs.emit(ObsEvent::LocalRepair {
                epoch: delta.epoch,
                ball_rows: ball_rows as u32,
                landmark_trees: trees_touched as u32,
                landmarks: self.landmarks.len() as u32,
                cache_dropped: cache_invalidated as u32,
                cache_hits: (s.hits - m.hits) as u32,
                cache_misses: (s.misses - m.misses) as u32,
                cache_evictions: (s.evictions - m.evictions) as u32,
            });
        }
        self.pending_materialize_ns = 0;
        self.cache_mark = self.cache.stats;
        self.epoch = delta.epoch;
        LocalRepairStats {
            epoch: self.epoch,
            ball_rows,
            landmark_trees: trees_touched,
            cache_invalidated,
            batch_changes: batch.len(),
            spanner_flips: self.flips.len(),
        }
    }

    /// Rebuilds `u`'s ball row: a radius-truncated canonical-hop BFS over
    /// `H_u` (same fold as [`fill_row`]; nodes at depth `R` are recorded but
    /// not expanded, which is exactly when their canonical hops are final).
    fn fill_ball(&mut self, engine: &RspanEngine, u: Node) {
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
        let radius = self.radius;
        self.queue.clear();
        self.tmp_dist[u as usize] = 0;
        self.queue.push(u);
        let mut head = 0usize;
        while head < self.queue.len() {
            let w = self.queue[head];
            head += 1;
            let dw = self.tmp_dist[w as usize];
            if dw == radius {
                continue; // frontier nodes are recorded, not expanded
            }
            let hw = self.tmp_next[w as usize];
            let tmp_dist = &mut self.tmp_dist;
            let tmp_next = &mut self.tmp_next;
            let queue = &mut self.queue;
            view.for_each_neighbor(w, &mut |v| {
                let dv = &mut tmp_dist[v as usize];
                if *dv == UNREACH {
                    *dv = dw + 1;
                    tmp_next[v as usize] = if w == u { v } else { hw };
                    queue.push(v);
                } else if *dv == dw + 1 && w != u {
                    let hv = &mut tmp_next[v as usize];
                    if hw < *hv {
                        *hv = hw;
                    }
                }
            });
        }
        let row = &mut self.balls[u as usize];
        row.clear();
        for &v in self.queue.iter() {
            if v != u {
                row.push(BallEntry {
                    dst: v,
                    hop: self.tmp_next[v as usize],
                    dist: self.tmp_dist[v as usize],
                });
            }
        }
        row.sort_unstable_by_key(|e| e.dst);
        // Restore the sentinel invariant on the dense scratch arrays.
        for &v in self.queue.iter() {
            self.tmp_dist[v as usize] = UNREACH;
            self.tmp_next[v as usize] = NO_HOP;
        }
    }

    /// Elects the landmark set for the current spanner: a stride sample of
    /// `max(cfg.landmarks, ⌈√n⌉ when 0)` node ids plus the minimum node of
    /// every spanner component (so every reachable target resolves a home).
    fn elect_landmarks(&mut self) {
        let n = self.n;
        self.landmarks.clear();
        let target = if self.cfg.landmarks > 0 {
            self.cfg.landmarks
        } else {
            (n as f64).sqrt().ceil() as usize
        }
        .clamp(1, n.max(1));
        let stride = (n / target).max(1);
        let mut u = 0usize;
        while u < n {
            self.landmarks.push(u as Node);
            u += stride;
        }
        let comp = connected_components(&SpannerOnly {
            n,
            adj: &self.spanner_adj,
        });
        // Component ids are assigned in node order, so the first node seen
        // with a given id is that component's minimum.
        let mut next_comp = 0usize;
        for (v, &c) in comp.iter().enumerate() {
            if c == next_comp {
                self.landmarks.push(v as Node);
                next_comp += 1;
            }
        }
        self.landmarks.sort_unstable();
        self.landmarks.dedup();
    }

    fn spare_tree(&mut self, root: Node) -> LandmarkTree {
        match self.spare_trees.pop() {
            Some(mut tree) => {
                tree.root = root;
                tree
            }
            None => LandmarkTree::empty(root),
        }
    }

    /// Drops cached rows a flip actually changes (exact predicate, with
    /// in-place support maintenance on survivors) plus batch endpoints'
    /// rows.  Runs against the pre-flip adjacency/rows.
    fn invalidate_cache(&mut self, batch: &[TopologyChange]) -> usize {
        let mut dropped = 0usize;
        for change in batch {
            let (a, b) = change.endpoints();
            for u in [a, b] {
                let slot = self.cache.slot_of[u as usize];
                if slot != NO_SLOT {
                    self.cache.drop_slot(slot as usize);
                    dropped += 1;
                }
            }
        }
        if self.flips.is_empty() {
            return dropped;
        }
        let mut si = 0usize;
        while si < self.cache.slots.len() {
            let u = self.cache.slots[si].src;
            let mut marked = false;
            for fi in 0..self.flips.len() {
                let (x, y, is_add) = self.flips[fi];
                if u == x || u == y {
                    continue; // H_u keeps the edge through u's incident set
                }
                let slot = &mut self.cache.slots[si];
                let dx = slot.dist[x as usize];
                let dy = slot.dist[y as usize];
                if dx == dy {
                    continue;
                }
                let (lo, hi) = if dx < dy { (x, y) } else { (y, x) };
                let hop_lo = slot.next[lo as usize];
                let hop_hi = slot.next[hi as usize];
                if is_add {
                    let (dlo, dhi) = if dx < dy { (dx, dy) } else { (dy, dx) };
                    if dhi != UNREACH && dhi - dlo == 1 {
                        if hop_lo > hop_hi {
                            continue;
                        }
                        if hop_lo == hop_hi {
                            slot.support[hi as usize] += 1;
                            continue;
                        }
                    }
                } else {
                    if hop_lo > hop_hi {
                        continue;
                    }
                    let support = &mut slot.support[hi as usize];
                    if *support >= 2 {
                        *support -= 1;
                        continue;
                    }
                }
                marked = true;
                break;
            }
            if marked {
                self.cache.drop_slot(si);
                dropped += 1;
            } else {
                si += 1;
            }
        }
        dropped
    }

    /// Runs `f` against `u`'s full row, materialising it through the cache
    /// (or the persistent scratch row when caching is disabled).
    fn with_row<T>(&mut self, engine: &RspanEngine, u: Node, f: impl FnOnce(&RowSlot) -> T) -> T {
        assert_eq!(
            engine.epoch(),
            self.epoch,
            "exact query against an engine at a different epoch"
        );
        let n = self.n;
        self.cache.tick += 1;
        let tick = self.cache.tick;
        if self.cache.cap == 0 {
            self.cache.stats.misses += 1;
            let mut slot = self.cache.scratch.take().unwrap_or_else(|| RowSlot {
                src: NO_HOP,
                last_used: 0,
                epoch: 0,
                next: vec![NO_HOP; n],
                dist: vec![UNREACH; n],
                support: vec![0; n],
            });
            self.materialize_into(engine, u, &mut slot, tick);
            let out = f(&slot);
            self.cache.scratch = Some(slot);
            return out;
        }
        let si = self.cache.slot_of[u as usize];
        if si != NO_SLOT {
            let slot = &mut self.cache.slots[si as usize];
            debug_assert_eq!(slot.src, u);
            debug_assert_eq!(slot.epoch, self.epoch, "stale cached row survived a commit");
            slot.last_used = tick;
            self.cache.stats.hits += 1;
            return f(&self.cache.slots[si as usize]);
        }
        self.cache.stats.misses += 1;
        if self.cache.slots.len() >= self.cache.cap {
            let victim = self
                .cache
                .slots
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(i, _)| i)
                .expect("cache capacity is positive");
            self.cache.drop_slot(victim);
            self.cache.stats.evictions += 1;
        }
        let mut slot = self.cache.blank_slot(n);
        self.materialize_into(engine, u, &mut slot, tick);
        let idx = self.cache.slots.len() as u32;
        self.cache.slot_of[u as usize] = idx;
        self.cache.slots.push(slot);
        f(&self.cache.slots[idx as usize])
    }

    /// Fills `slot` with `u`'s exact canonical row (the same sparse sweep
    /// [`crate::delta::DeltaRouter`] runs), stamping it with the current
    /// epoch and, with telemetry on, accumulating wall time for
    /// [`Span::Materialize`].
    fn materialize_into(&mut self, engine: &RspanEngine, u: Node, slot: &mut RowSlot, tick: u64) {
        let start = self.tel.on().then(Instant::now);
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
        fill_row(
            &view,
            u,
            &mut self.queue,
            &mut slot.next,
            &mut slot.dist,
            &mut slot.support,
        );
        slot.src = u;
        slot.epoch = self.epoch;
        slot.last_used = tick;
        self.cache.stats.materialized += 1;
        if let Some(start) = start {
            self.pending_materialize_ns += start.elapsed().as_nanos() as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::DeltaRouter;
    use crate::tables::RoutingTables;
    use rspan_domtree::TreeAlgo;
    use rspan_graph::generators::er::gnp_connected;
    use rspan_graph::generators::structured::{cycle_graph, grid_graph};

    /// Every ball entry must equal the corresponding dense-table entry, and
    /// every dense entry within the radius must appear in the ball.
    fn assert_balls_match_tables(router: &CompactRouter, tables: &RoutingTables, context: &str) {
        let n = router.n();
        for u in 0..n as Node {
            let mut in_ball = 0usize;
            for v in 0..n as Node {
                if v == u {
                    continue;
                }
                match (router.ball_hop(u, v), tables.table_distance(u, v)) {
                    (Some(hop), Some(d)) => {
                        assert!(d <= router.radius(), "{context}: ball entry beyond radius");
                        assert_eq!(Some(hop), tables.next_hop(u, v), "{context}: ({u}, {v})");
                        in_ball += 1;
                    }
                    (None, Some(d)) => {
                        assert!(
                            d > router.radius(),
                            "{context}: missing ball entry ({u},{v})"
                        );
                    }
                    (None, None) => {}
                    (Some(_), None) => panic!("{context}: ball entry for unreachable ({u},{v})"),
                }
            }
            assert_eq!(in_ball, router.balls[u as usize].len(), "{context}");
        }
    }

    fn dense_tables(engine: &RspanEngine) -> RoutingTables {
        let csr = engine.to_csr();
        let spanner = engine.spanner_on(&csr);
        RoutingTables::build(&spanner)
    }

    #[test]
    fn fresh_balls_match_dense_tables() {
        for g in [cycle_graph(9), grid_graph(4, 5), gnp_connected(40, 0.1, 3)] {
            for algo in [TreeAlgo::KGreedy { k: 2 }, TreeAlgo::Mis { r: 2 }] {
                let engine = RspanEngine::new(g.clone(), algo);
                let router = CompactRouter::new(&engine, LocalConfig::default());
                let tables = dense_tables(&engine);
                assert_balls_match_tables(&router, &tables, "fresh build");
            }
        }
    }

    #[test]
    fn forward_delivers_every_connected_pair() {
        let g = gnp_connected(60, 0.08, 11);
        let engine = RspanEngine::new(g, TreeAlgo::KGreedy { k: 2 });
        let router = CompactRouter::new(&engine, LocalConfig::default());
        for s in [0 as Node, 13, 31, 59] {
            for t in 0..router.n() as Node {
                let path = router.forward(s, t).expect("connected instance");
                assert_eq!(path[0], s);
                assert_eq!(*path.last().unwrap(), t);
                if s != t {
                    assert_eq!(router.next_hop(s, t), Some(path[1]));
                }
            }
        }
    }

    #[test]
    fn repair_tracks_flips_and_stays_exact() {
        let g = gnp_connected(50, 0.08, 5);
        let mut engine = RspanEngine::new(g.clone(), TreeAlgo::KGreedy { k: 1 });
        let mut router = CompactRouter::new(&engine, LocalConfig::default());
        let (eu, ev) = g.edges().next().unwrap();
        for change in [
            TopologyChange::RemoveEdge(eu, ev),
            TopologyChange::AddEdge(eu, ev),
        ] {
            let batch = [change];
            let delta = engine.commit(&batch);
            let stats = router.apply(&engine, &batch, &delta);
            assert_eq!(stats.epoch, engine.epoch());
            let tables = dense_tables(&engine);
            assert_balls_match_tables(&router, &tables, "after flip");
        }
    }

    #[test]
    fn exact_queries_match_delta_router_and_hit_the_cache() {
        let g = gnp_connected(50, 0.08, 7);
        let engine = RspanEngine::new(g, TreeAlgo::KGreedy { k: 2 });
        let dense = DeltaRouter::new(&engine);
        let mut router = CompactRouter::new(
            &engine,
            LocalConfig {
                landmarks: 0,
                cache_capacity: 4,
            },
        );
        for u in [3 as Node, 3, 17, 3] {
            for v in 0..router.n() as Node {
                assert_eq!(
                    router.exact_next_hop(&engine, u, v),
                    dense.next_hop(u, v),
                    "({u}, {v})"
                );
                assert_eq!(
                    router.exact_distance(&engine, u, v),
                    dense.table_distance(u, v),
                    "({u}, {v})"
                );
            }
        }
        let stats = router.cache_stats();
        assert!(stats.hits > 0, "repeated sources must hit");
        assert_eq!(stats.materialized, stats.misses);
        assert_eq!(stats.misses, 2, "two distinct sources, capacity 4");
    }

    #[test]
    fn lru_evicts_and_cache_disabled_matches() {
        let g = gnp_connected(40, 0.1, 9);
        let engine = RspanEngine::new(g, TreeAlgo::KGreedy { k: 2 });
        let mut cached = CompactRouter::new(
            &engine,
            LocalConfig {
                landmarks: 0,
                cache_capacity: 2,
            },
        );
        let mut uncached = CompactRouter::new(
            &engine,
            LocalConfig {
                landmarks: 0,
                cache_capacity: 0,
            },
        );
        for u in 0..8 as Node {
            for v in [1 as Node, 20, 39] {
                assert_eq!(
                    cached.exact_next_hop(&engine, u, v),
                    uncached.exact_next_hop(&engine, u, v)
                );
            }
        }
        assert!(cached.cache_stats().evictions > 0, "capacity 2, 8 sources");
        assert_eq!(uncached.cache_stats().hits, 0);
    }

    #[test]
    fn state_is_sublinear_versus_dense() {
        let g = gnp_connected(300, 0.02, 21);
        let engine = RspanEngine::new(g, TreeAlgo::KGreedy { k: 2 });
        let router = CompactRouter::new(&engine, LocalConfig::default());
        let dense_bytes = 300usize * 300 * 8;
        assert!(
            router.state_bytes() < dense_bytes,
            "compact {} >= dense {}",
            router.state_bytes(),
            dense_bytes
        );
    }

    #[test]
    fn observed_apply_matches_plain_and_emits_local_repair() {
        use rspan_obs::ObsConfig;
        let g = gnp_connected(50, 0.08, 5);
        let algo = TreeAlgo::KGreedy { k: 1 };
        let mut engine_a = RspanEngine::new(g.clone(), algo);
        let mut engine_b = RspanEngine::new(g.clone(), algo);
        let mut plain = CompactRouter::new(&engine_a, LocalConfig::default());
        let mut observed = CompactRouter::new(&engine_b, LocalConfig::default());
        let obs = ObsHandle::mem(ObsConfig::default());
        let tel = TelemetryHandle::enabled();
        observed.set_obs(obs.clone());
        observed.set_telemetry(tel.clone());
        // Query-path materialisations before the commit are flushed into
        // one Materialize span by the next apply.
        for v in 1..4 {
            assert_eq!(
                plain.exact_next_hop(&engine_a, 0, v),
                observed.exact_next_hop(&engine_b, 0, v)
            );
        }
        let (eu, ev) = g.edges().next().unwrap();
        let batch = [TopologyChange::RemoveEdge(eu, ev)];
        let delta_a = engine_a.commit(&batch);
        let delta_b = engine_b.commit(&batch);
        assert_eq!(delta_a, delta_b);
        let stats_plain = plain.apply(&engine_a, &batch, &delta_a);
        let stats_obs = observed.apply(&engine_b, &batch, &delta_b);
        assert_eq!(stats_plain, stats_obs, "observation changed the repair");
        let report = obs.take_report().expect("recorder attached");
        assert_eq!(report.lines.len(), 1);
        assert!(report.lines[0].contains("\"kind\":\"local_repair\""));
        let snap = tel.snapshot().expect("telemetry enabled");
        let ball = snap.span(Span::BallRepair);
        assert_eq!((ball.calls, ball.items), (1, stats_obs.ball_rows as u64));
        assert_eq!(snap.span(Span::LandmarkRepair).calls, 1);
        let materialize = snap.span(Span::Materialize);
        assert_eq!((materialize.calls, materialize.items), (1, 1));
    }

    /// Fresh canonical-parent BFS trees over the engine's own spanner, one
    /// per landmark of `router`: the oracle every repaired tree must equal.
    fn assert_trees_match_rebuild(router: &CompactRouter, engine: &RspanEngine, context: &str) {
        let n = router.n();
        let mut adj: Vec<Vec<Node>> = vec![Vec::new(); n];
        for (u, v) in engine.spanner_pairs() {
            adj[u as usize].push(v);
            adj[v as usize].push(u);
        }
        adj.iter_mut().for_each(|list| list.sort_unstable());
        let mut queue = Vec::new();
        assert_eq!(router.trees.len(), router.landmarks.len(), "{context}");
        for (tree, &root) in router.trees.iter().zip(&router.landmarks) {
            assert_eq!(tree.root, root, "{context}");
            let mut fresh = LandmarkTree::empty(root);
            rebuild_tree(&mut fresh, &adj, &mut queue);
            assert_eq!(
                tree.dist, fresh.dist,
                "{context}: depths of landmark {root}"
            );
            assert_eq!(
                tree.parent, fresh.parent,
                "{context}: parents of landmark {root}"
            );
        }
    }

    /// Keeps the changes of `batch` that are valid in sequence against
    /// `graph`: interleaved scenario families break each other's
    /// bookkeeping, and the engine takes only valid batches.
    fn valid_subset(
        graph: &rspan_graph::DynamicGraph,
        batch: Vec<TopologyChange>,
    ) -> Vec<TopologyChange> {
        let mut tracker = graph.clone();
        batch
            .into_iter()
            .filter(|change| {
                let (u, v) = change.endpoints();
                let ok = match change {
                    TopologyChange::AddEdge(..) => !tracker.has_edge(u, v),
                    TopologyChange::RemoveEdge(..) => tracker.has_edge(u, v),
                };
                if ok {
                    change.apply_to(&mut tracker);
                }
                ok
            })
            .collect()
    }

    #[test]
    fn repaired_trees_equal_a_fresh_bfs_under_interleaved_churn() {
        use rspan_engine::{ChurnScenario, JoinLeaveScenario, LinkFlapScenario, MobilityScenario};
        use rspan_graph::generators::udg::uniform_udg;
        let cfg = LocalConfig {
            landmarks: 24,
            cache_capacity: 0,
        };
        let (mut lost_reach, mut new_landmarks, mut decreases) = (0usize, 0usize, 0usize);
        for seed in [31u64, 32, 33] {
            let inst = uniform_udg(90, 5.0, 1.0, seed);
            let mut engine = RspanEngine::new(inst.graph.clone(), TreeAlgo::KGreedy { k: 2 });
            let mut router = CompactRouter::new(&engine, cfg);
            assert_trees_match_rebuild(&router, &engine, "fresh build");
            let mut scenarios: Vec<Box<dyn ChurnScenario>> = vec![
                Box::new(LinkFlapScenario::new(&inst.graph, 3.0, seed)),
                Box::new(MobilityScenario::from_udg(&inst, 3, 0.2, seed ^ 0x5EED)),
                Box::new(JoinLeaveScenario::new(inst.graph.clone(), 2, seed ^ 0x101E)),
            ];
            for round in 0..24 {
                let before: Vec<(Node, Vec<u32>)> = router
                    .trees
                    .iter()
                    .map(|t| (t.root, t.dist.clone()))
                    .collect();
                let scenario = &mut scenarios[round % 3];
                let batch = valid_subset(engine.graph(), scenario.next_batch(engine.graph()));
                let delta = engine.commit(&batch);
                router.apply(&engine, &batch, &delta);
                assert_trees_match_rebuild(&router, &engine, &format!("seed {seed} round {round}"));
                for (tree, &root) in router.trees.iter().zip(&router.landmarks) {
                    let Some((_, old)) = before.iter().find(|(r, _)| *r == root) else {
                        new_landmarks += 1;
                        continue;
                    };
                    for (&was, &now) in old.iter().zip(&tree.dist) {
                        lost_reach += usize::from(was != UNREACH && now == UNREACH);
                        decreases += usize::from(now < was);
                    }
                }
            }
        }
        // The stream must reach the hard cases, or the oracle proves little.
        assert!(lost_reach > 0, "no node became unreachable in a kept tree");
        assert!(new_landmarks > 0, "no landmark was newly elected");
        assert!(decreases > 0, "no depth decreased through an added edge");
    }

    #[test]
    fn cut_and_shortcut_into_the_orphaned_subtree_in_one_batch() {
        // Root 0 on the path 0-1-2-3-4-5 with a branch 0-6-7.  One batch
        // cuts the tree edge (1, 2), orphaning {2, 3, 4, 5}, adds the
        // shortcut (7, 4) into that subtree and cuts (4, 5) so 5 is lost.
        let edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 6), (6, 7)];
        let mut adj: Vec<Vec<Node>> = vec![Vec::new(); 8];
        for &(u, v) in &edges {
            sorted_insert(&mut adj[u as usize], v);
            sorted_insert(&mut adj[v as usize], u);
        }
        let mut scratch = TreeScratch::default();
        let mut tree = LandmarkTree::empty(0);
        rebuild_tree(&mut tree, &adj, &mut scratch.queue);
        assert_eq!(tree.dist, [0, 1, 2, 3, 4, 5, 1, 2]);

        // An equal-depth edge and a non-improving predecessor change nothing.
        let quiet = [(1, 6, true), (2, 6, true)];
        for &(x, y, _) in &quiet {
            sorted_insert(&mut adj[x as usize], y);
            sorted_insert(&mut adj[y as usize], x);
        }
        let (dist, parent) = (tree.dist.clone(), tree.parent.clone());
        assert!(!repair_tree(&mut tree, &adj, &quiet, &mut scratch));
        assert_eq!((&tree.dist, &tree.parent), (&dist, &parent));
        for &(x, y, _) in &quiet {
            sorted_remove(&mut adj[x as usize], y);
            sorted_remove(&mut adj[y as usize], x);
        }

        // A smaller predecessor moves no depth, only 7's parent.
        let improve = [(1, 7, true)];
        sorted_insert(&mut adj[1], 7);
        sorted_insert(&mut adj[7], 1);
        assert!(repair_tree(&mut tree, &adj, &improve, &mut scratch));
        assert_eq!(tree.dist, dist);
        assert_eq!(tree.parent[7], 1);

        let flips = [(4, 7, true), (1, 2, false), (4, 5, false)];
        for &(x, y, added) in &flips {
            if added {
                sorted_insert(&mut adj[x as usize], y);
                sorted_insert(&mut adj[y as usize], x);
            } else {
                sorted_remove(&mut adj[x as usize], y);
                sorted_remove(&mut adj[y as usize], x);
            }
        }
        assert!(repair_tree(&mut tree, &adj, &flips, &mut scratch));
        assert_eq!(tree.dist, [0, 1, 5, 4, 3, UNREACH, 1, 2]);
        assert_eq!(tree.parent, [NO_HOP, 0, 3, 4, 7, NO_HOP, 0, 1]);
        let mut fresh = LandmarkTree::empty(0);
        rebuild_tree(&mut fresh, &adj, &mut scratch.queue);
        assert_eq!((tree.dist, tree.parent), (fresh.dist, fresh.parent));
    }

    #[test]
    #[should_panic(expected = "missed a delta")]
    fn skipping_a_delta_panics() {
        let mut engine = RspanEngine::new(cycle_graph(8), TreeAlgo::KGreedy { k: 1 });
        let mut router = CompactRouter::new(&engine, LocalConfig::default());
        engine.commit(&[]);
        let batch = [TopologyChange::AddEdge(0, 4)];
        let delta = engine.commit(&batch);
        router.apply(&engine, &batch, &delta);
    }
}
