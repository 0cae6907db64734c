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
//!   parents.  Every node also carries a *label*: the index and tree
//!   distance of its *home landmark* (closest by tree distance, ties to the
//!   smallest landmark id), so a far target's home is one array read.  Far
//!   targets route up/down their home landmark's tree: the target's
//!   ancestor one level below the current node decides descend-vs-ascend
//!   statelessly at every hop.  [`CompactRouter::next_hop`] walks the
//!   target up to that ancestor, at most the target's landmark distance;
//!   [`CompactRouter::forward`] resolves the target's ancestor chain once,
//!   so each of its tree hops is one lookup;
//! * an **LRU row cache** for hot destinations: [`CompactRouter::exact_next_hop`]
//!   materialises a full canonical row on demand (the scratch-pool epoch
//!   idiom — epoch-stamped slots, sentinel slot map), and each commit
//!   invalidates cached rows with the exact O(1)-per-flip predicate
//!   `tables::row_survives` that [`crate::delta::DeltaRouter`] runs on its
//!   dense rows, so surviving rows never go stale.
//!
//! Per-node state is `Õ(ball + landmarks)`:
//! `12·|ball| + 8·L + 8 + 12·cache_capacity` bytes instead of the dense `8n`.
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
//!   batch removal is already covered by `recomputed`, the engine's whole
//!   marked ball — not just its rebuilt trees — which contains the
//!   pre-commit dirty balls of every batch endpoint);
//! * the **landmark set** is re-elected only when the flips can change the
//!   spanner's components.  An added flip `(x, y)` merges two components
//!   only if `y` is unreachable in `x`'s home tree before the repair (each
//!   tree spans its landmark's whole component, and every component holds
//!   its minimum as a landmark).  A removed flip splits one only if a
//!   bidirectional BFS from `x` and `y` over the post-flip spanner fails to
//!   meet; it stops as soon as either frontier empties.  When no added flip
//!   crosses components and the ends of every removed flip stay connected,
//!   every pre-flip edge joins one post-flip component and every post-flip
//!   edge one pre-flip component, so the partition — and with it the set —
//!   is unchanged and `connected_components` is skipped;
//! * **landmark trees** are functions of the pure spanner, so link-only
//!   commits skip them entirely; otherwise each flip is tested against each
//!   tree with an O(1) predicate (mirroring the delta-router row predicate:
//!   an equal-depth flip, an added non-improving predecessor, or a removed
//!   non-parent predecessor provably leaves depths and canonical parents
//!   unchanged), and a tree some flip does change is repaired in place
//!   (dynamic BFS in the Even–Shiloach / Ramalingam–Reps style): only nodes
//!   whose depth or canonical parent changes are moved, bit-identical to a
//!   rebuild.  Newly elected landmarks get a fresh BFS tree;
//! * **labels** follow the tree repairs: a node whose depth changed in some
//!   tree is folded into its label in O(1) (a smaller distance, or an equal
//!   one from a smaller landmark index, takes the label over), and only a
//!   node whose home tree got deeper or lost it is rescanned over all
//!   trees, once, after every tree is repaired.  A changed landmark set (its
//!   indices shift) or a defensive tree rebuild relabels every node in one
//!   tree-major pass;
//! * **cached rows** run the exact flip predicate `tables::row_survives`
//!   (with in-place support maintenance) and drop only the rows a flip
//!   actually changes, plus the rows of batch endpoints; survivors are
//!   stamped with the new epoch.

use crate::tables::{assert_next_delta, collect_flips, row_survives, SpannerAdj, NO_HOP, UNREACH};
use rspan_engine::{RspanEngine, SpannerDelta, TopologyChange};
use rspan_graph::{bfs_into, connected_components, EpochFlags, Node, TraversalScratch};
use rspan_obs::{ObsEvent, ObsHandle};
use rspan_telemetry::{Counter, Gauge, Hist, Span, TelemetryHandle};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

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
    /// queries then refill one pooled row per call).
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
/// (minimum-id) parents.  Whether a hop descends or ascends is read off the
/// target's ancestors ([`tree_hop`], [`chain_hop`]), so re-parenting a
/// subtree touches only the nodes whose depth or parent changed.
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

/// A node's home landmark: its tree distance and its index into the
/// landmark set.  Fields compare in that order, so the smallest label over
/// all trees is the home under the tie rule: smallest distance, then
/// smallest index, which is the smallest landmark id.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Label {
    dist: u32,
    home: u32,
}

impl Label {
    /// No tree reaches the node.
    const NONE: Label = Label {
        dist: UNREACH,
        home: u32::MAX,
    };
}

/// What [`repair_tree`] did to a tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TreeRepair {
    /// No flip can change the tree; nothing was touched.
    Unchanged,
    /// Repaired in place: the scratch's `moved` list holds every node whose
    /// depth was rewritten, with its depth before the repair.
    InPlace,
    /// Rebuilt from scratch: a flip contradicted the tree's bookkeeping.
    Rebuilt,
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

/// Scratch for [`Meet::connected`], pooled on the router: per side, the
/// nodes reached and their BFS queue.
#[derive(Default)]
struct Meet {
    seen: [EpochFlags; 2],
    queue: [Vec<Node>; 2],
}

impl Meet {
    /// Whether `x` and `y` are connected in `adj`: a BFS from each end that
    /// always expands the side with fewer queued nodes, until the two meet
    /// or one side's queue empties — that side then holds its whole
    /// component, which the other end is not in.
    fn connected(&mut self, adj: &[Vec<Node>], x: Node, y: Node) -> bool {
        let mut head = [0usize; 2];
        for (side, source) in [x, y].into_iter().enumerate() {
            self.seen[side].begin(adj.len());
            self.seen[side].set(source);
            self.queue[side].clear();
            self.queue[side].push(source);
        }
        loop {
            let side = usize::from(self.queue[1].len() - head[1] < self.queue[0].len() - head[0]);
            let Some(&w) = self.queue[side].get(head[side]) else {
                return false;
            };
            head[side] += 1;
            for &v in &adj[w as usize] {
                if self.seen[1 - side].test(v) {
                    return true;
                }
                if self.seen[side].set(v) {
                    self.queue[side].push(v);
                }
            }
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
/// `adj`, and reports which way it went ([`TreeRepair`]).
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
) -> TreeRepair {
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
            return TreeRepair::Rebuilt;
        }
    }
    if !seeded {
        return TreeRepair::Unchanged;
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
    TreeRepair::InPlace
}

/// Next hop from `w` toward `dst` along `tree` (both reachable in the tree,
/// `w != dst`): the child of `w` on the tree path when `dst` lies below `w`,
/// `parent[w]` otherwise.  Walks `dst` up to depth `dist[w] + 1`, at most
/// `dist[dst]` steps; [`chain_hop`] is the same hop with that walk done
/// once per route.
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

/// `dst`'s ancestors in `tree` by depth: `chain[d]` is the one at depth
/// `d`, from the root to `dst` itself (`dst` reachable in the tree).
fn ancestor_chain(tree: &LandmarkTree, dst: Node) -> Vec<Node> {
    let mut chain = vec![NO_HOP; tree.dist[dst as usize] as usize + 1];
    let mut a = dst;
    for slot in chain.iter_mut().rev() {
        *slot = a;
        a = tree.parent[a as usize];
    }
    chain
}

/// [`tree_hop`] toward the last node of `chain`, that node's
/// [`ancestor_chain`]: the ancestor one level below `w` is one lookup.
fn chain_hop(tree: &LandmarkTree, chain: &[Node], w: Node) -> Node {
    let dw = tree.dist[w as usize];
    if (dw as usize) < chain.len() - 1 {
        let a = chain[dw as usize + 1];
        if tree.parent[a as usize] == w {
            return a;
        }
    }
    tree.parent[w as usize]
}

/// The landmark set, one tree per landmark and every node's [`Label`],
/// kept in step with the spanner by [`Landmarks::update`].
struct Landmarks {
    /// Landmark ids, sorted ascending.
    roots: Vec<Node>,
    /// Trees aligned with `roots`.
    trees: Vec<LandmarkTree>,
    /// Per node, its home among `trees`.
    labels: Vec<Label>,
    /// Retired trees, recycled for newly elected landmarks.
    spare: Vec<LandmarkTree>,
    scratch: TreeScratch,
    meet: Meet,
    /// Nodes whose home tree got deeper or lost them during an update.
    rescan: Vec<Node>,
}

impl Landmarks {
    /// A tree per root over `adj`, and every node labelled.
    fn new(roots: Vec<Node>, adj: &[Vec<Node>]) -> Self {
        let mut landmarks = Landmarks {
            roots: Vec::new(),
            trees: Vec::new(),
            labels: vec![Label::NONE; adj.len()],
            spare: Vec::new(),
            scratch: TreeScratch::default(),
            meet: Meet::default(),
            rescan: Vec::new(),
        };
        landmarks.update(roots, adj, &[]);
        landmarks
    }

    /// `v`'s home: its index into the landmark set and its tree distance.
    fn home(&self, v: Node) -> Option<(usize, u32)> {
        let label = self.labels[v as usize];
        (label.dist != UNREACH).then_some((label.home as usize, label.dist))
    }

    /// Moves to the landmark set `roots` over the post-flip adjacency `adj`:
    /// kept trees are repaired in place for `flips`, new landmarks get a
    /// fresh tree, demoted ones retire theirs into the spare pool, and every
    /// node is relabelled (indices shift with the set).  An unchanged set is
    /// a [`Landmarks::repair`].  Returns the trees repaired or built.
    fn update(
        &mut self,
        roots: Vec<Node>,
        adj: &[Vec<Node>],
        flips: &[(Node, Node, bool)],
    ) -> usize {
        if roots == self.roots {
            return self.repair(adj, flips);
        }
        let old_roots = std::mem::replace(&mut self.roots, roots);
        let mut old_trees: Vec<Option<LandmarkTree>> = std::mem::take(&mut self.trees)
            .into_iter()
            .map(Some)
            .collect();
        let mut touched = 0usize;
        for i in 0..self.roots.len() {
            let root = self.roots[i];
            let kept = old_roots
                .binary_search(&root)
                .ok()
                .and_then(|j| old_trees[j].take());
            let tree = match kept {
                Some(mut tree) => {
                    let repair = repair_tree(&mut tree, adj, flips, &mut self.scratch);
                    touched += usize::from(repair != TreeRepair::Unchanged);
                    tree
                }
                None => {
                    touched += 1;
                    let mut tree = match self.spare.pop() {
                        Some(mut tree) => {
                            tree.root = root;
                            tree
                        }
                        None => LandmarkTree::empty(root),
                    };
                    rebuild_tree(&mut tree, adj, &mut self.scratch.queue);
                    tree
                }
            };
            self.trees.push(tree);
        }
        self.spare.extend(old_trees.into_iter().flatten());
        self.relabel_all();
        touched
    }

    /// Repairs every tree in place for `flips` over the post-flip adjacency
    /// `adj`, keeping the landmark set.  Labels follow the in-place repairs
    /// node by node; a defensive rebuild relabels every node.  Returns the
    /// trees repaired.
    fn repair(&mut self, adj: &[Vec<Node>], flips: &[(Node, Node, bool)]) -> usize {
        let mut trees = std::mem::take(&mut self.trees);
        self.rescan.clear();
        let mut relabel = false;
        let mut touched = 0usize;
        for (i, tree) in trees.iter_mut().enumerate() {
            match repair_tree(tree, adj, flips, &mut self.scratch) {
                TreeRepair::Unchanged => {}
                TreeRepair::InPlace => {
                    touched += 1;
                    if !relabel {
                        self.follow(i, tree);
                    }
                }
                TreeRepair::Rebuilt => {
                    touched += 1;
                    relabel = true;
                }
            }
        }
        self.trees = trees;
        if relabel {
            self.relabel_all();
        } else {
            self.relabel_rescans();
        }
        touched
    }

    /// Whether `flips` keep the spanner's components, so the elected set
    /// stands (see the module docs).  Runs before the repair: an added flip
    /// is tested on the pre-flip home tree of one end, a removed one by a
    /// bidirectional BFS over the post-flip adjacency `adj`.
    fn keeps_components(&mut self, adj: &[Vec<Node>], flips: &[(Node, Node, bool)]) -> bool {
        let crosses = |&(x, y, added): &(Node, Node, bool)| {
            added
                && self
                    .trees
                    .get(self.labels[x as usize].home as usize)
                    .is_none_or(|home| home.dist[y as usize] == UNREACH)
        };
        !flips.iter().any(crosses)
            && flips
                .iter()
                .all(|&(x, y, added)| added || self.meet.connected(adj, x, y))
    }

    /// Folds tree `i`'s in-place repair (the scratch's `moved` nodes) into
    /// the labels, O(1) a node: a smaller label from this tree takes over,
    /// and a node whose home is this tree and got deeper, or lost it, is
    /// queued for a rescan.  Only the home tree can invalidate a label: any
    /// other tree was at least as far, so its change matters only if it now
    /// is nearer.  Only a node's home from before the update can queue it
    /// (a tree that takes a label over is being followed, once), so a node
    /// is queued at most once an update.
    fn follow(&mut self, i: usize, tree: &LandmarkTree) {
        let home = i as u32;
        for &(v, old) in &self.scratch.moved {
            let dist = tree.dist[v as usize];
            let label = &mut self.labels[v as usize];
            if label.home == home && dist > old {
                self.rescan.push(v);
            } else if (Label { dist, home }) < *label {
                *label = Label { dist, home };
            }
        }
    }

    /// Relabels the queued nodes, each by a scan over all trees.
    fn relabel_rescans(&mut self) {
        for &v in &self.rescan {
            let mut best = Label::NONE;
            for (i, tree) in self.trees.iter().enumerate() {
                let dist = tree.dist[v as usize];
                if dist < best.dist {
                    best = Label {
                        dist,
                        home: i as u32,
                    };
                }
            }
            self.labels[v as usize] = best;
        }
    }

    /// Relabels every node in one tree-major pass: trees in index order
    /// and a strict `<` keep the smallest index among the closest.
    fn relabel_all(&mut self) {
        self.labels.fill(Label::NONE);
        for (i, tree) in self.trees.iter().enumerate() {
            for (label, &dist) in self.labels.iter_mut().zip(&tree.dist) {
                if dist < label.dist {
                    *label = Label {
                        dist,
                        home: i as u32,
                    };
                }
            }
        }
    }
}

/// The landmark set for `spanner`: a stride sample of `target` node ids
/// (`⌈√n⌉` when 0) plus the minimum node of every spanner component (so
/// every reachable target resolves a home), sorted ascending.
fn elect_landmarks(spanner: &SpannerAdj, target: usize) -> Vec<Node> {
    let n = spanner.lists().len();
    let target = if target > 0 {
        target
    } else {
        (n as f64).sqrt().ceil() as usize
    }
    .clamp(1, n.max(1));
    let stride = (n / target).max(1);
    let mut landmarks: Vec<Node> = (0..n).step_by(stride).map(|u| u as Node).collect();
    let comp = connected_components(spanner);
    // Component ids are assigned in node order, so the first node seen with
    // a given id is that component's minimum.
    let mut next_comp = 0usize;
    for (v, &c) in comp.iter().enumerate() {
        if c == next_comp {
            landmarks.push(v as Node);
            next_comp += 1;
        }
    }
    landmarks.sort_unstable();
    landmarks.dedup();
    landmarks
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
            stats: CacheStats::default(),
        }
    }

    /// A pooled (or new) slot with its rows at the sentinels.
    fn blank_slot(&mut self, n: usize) -> RowSlot {
        match self.free.pop() {
            Some(mut slot) => {
                slot.next.fill(NO_HOP);
                slot.dist.fill(UNREACH);
                slot.support.fill(0);
                slot
            }
            None => RowSlot {
                src: NO_HOP,
                last_used: 0,
                epoch: 0,
                next: vec![NO_HOP; n],
                dist: vec![UNREACH; n],
                support: vec![0; n],
            },
        }
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
    /// The spanner, maintained from the deltas.
    spanner: SpannerAdj,
    /// Per-node exact ball rows, sorted by destination.
    balls: Vec<Vec<BallEntry>>,
    landmarks: Landmarks,
    cache: RowCache,
    // Scratch pools (epoch-stamped where flag-shaped).
    /// Ball-fill rows, at the sentinels between fills.
    tmp_next: Vec<Node>,
    tmp_dist: Vec<u32>,
    tmp_support: Vec<u32>,
    sweep: TraversalScratch,
    dirty: EpochFlags,
    dirty_list: Vec<Node>,
    endpoint_seen: EpochFlags,
    flips: Vec<(Node, Node, bool)>,
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
    /// Landmark elections run by `apply`.
    #[cfg(test)]
    elections: usize,
}

impl CompactRouter {
    /// Builds the compact state for the engine's *current* spanner and
    /// topology: every ball row, the landmark set, all landmark trees and
    /// every node's label.
    pub fn new(engine: &RspanEngine, cfg: LocalConfig) -> Self {
        let n = engine.graph().n();
        let spanner = SpannerAdj::new(engine);
        let landmarks = Landmarks::new(elect_landmarks(&spanner, cfg.landmarks), spanner.lists());
        let mut router = CompactRouter {
            n,
            epoch: engine.epoch(),
            radius: engine.dirty_radius().max(1),
            cfg,
            spanner,
            balls: vec![Vec::new(); n],
            landmarks,
            cache: RowCache::new(n, cfg.cache_capacity),
            tmp_next: vec![NO_HOP; n],
            tmp_dist: vec![UNREACH; n],
            tmp_support: vec![0; n],
            sweep: TraversalScratch::with_capacity(n),
            dirty: EpochFlags::new(),
            dirty_list: Vec::new(),
            endpoint_seen: EpochFlags::new(),
            flips: Vec::new(),
            pending_materialize_ns: 0,
            cache_mark: CacheStats::default(),
            tel: TelemetryHandle::off(),
            obs: ObsHandle::off(),
            cache_entries_mark: 0,
            #[cfg(test)]
            elections: 0,
        };
        for u in 0..n as Node {
            router.fill_ball(engine, u);
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
        &self.landmarks.roots
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
    /// landmark trees (8 B per node per tree), the per-node home labels
    /// (8 B each) and the row cache at capacity (12 B per destination per
    /// slot).
    pub fn state_bytes(&self) -> usize {
        self.ball_entries() * 12
            + self.landmarks.trees.len() * self.n * 8
            + self.n * 8
            + self.cfg.cache_capacity * self.n * 12
    }

    /// Tree distance from `dst` to its home landmark (`None` if no landmark
    /// reaches `dst`, i.e. `dst` is isolated from every component minimum —
    /// impossible for reachable pairs).  One read of `dst`'s label.
    pub fn landmark_distance(&self, dst: Node) -> Option<u32> {
        self.landmarks.home(dst).map(|(_, d)| d)
    }

    /// Index (into [`CompactRouter::landmarks`]) of `dst`'s home landmark:
    /// the closest by tree distance, ties to the smallest landmark id.  One
    /// read of `dst`'s label, which every repair keeps current.
    pub fn home_landmark(&self, dst: Node) -> Option<usize> {
        self.landmarks.home(dst).map(|(h, _)| h)
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
        let (home, _) = self.landmarks.home(v)?;
        let tree = &self.landmarks.trees[home];
        if tree.dist[u as usize] == UNREACH {
            return None;
        }
        Some(tree_hop(tree, u, v))
    }

    /// Forwards a packet from `s` to `t` hop by hop (ball hops while `t` is
    /// ball-visible, home-landmark tree hops otherwise).  The home landmark
    /// and `t`'s ancestor chain in its tree are resolved once, so each tree
    /// hop is one lookup and answers as [`CompactRouter::next_hop`] would.
    /// Returns the full path, or `None` if unreachable.
    pub fn forward(&self, s: Node, t: Node) -> Option<Vec<Node>> {
        if s == t {
            return Some(vec![s]);
        }
        let (home, dt) = self.landmarks.home(t)?;
        let tree = &self.landmarks.trees[home];
        let ds = tree.dist[s as usize];
        if ds == UNREACH {
            return None;
        }
        let chain = ancestor_chain(tree, t);
        // The landmark bound d_T(s, ℓ*) + d_T(ℓ*, t) caps the hops.
        let mut path = Vec::with_capacity(ds as usize + dt as usize + 1);
        path.push(s);
        let mut w = s;
        let limit = 2 * self.n + 2;
        while w != t {
            let hop = match self.ball_hop(w, t) {
                Some(hop) => hop,
                None => chain_hop(tree, &chain, w),
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
        assert_next_delta(self.epoch, engine, delta);
        let n = self.n;
        collect_flips(delta, &mut self.flips);

        // Cached rows: the exact flip predicate against the pre-flip rows
        // decides survival; batch endpoints always drop (their incident
        // sets changed).
        let cache_invalidated = self.invalidate_cache(batch, delta.epoch);

        // Only now move the spanner adjacency to the post-commit state.
        self.spanner.apply(delta);

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

        // Landmark set, trees and labels: pure functions of the spanner, so
        // only a spanner flip touches them.  The set is re-elected only when
        // the flips can change the spanner's components; trees and labels
        // are repaired in place either way.
        let mut span = self.tel.span(Span::LandmarkRepair);
        let adj = self.spanner.lists();
        let trees_touched = if self.flips.is_empty() {
            0
        } else if self.landmarks.keeps_components(adj, &self.flips) {
            self.landmarks.repair(adj, &self.flips)
        } else {
            #[cfg(test)]
            {
                self.elections += 1;
            }
            let roots = elect_landmarks(&self.spanner, self.cfg.landmarks);
            self.landmarks.update(roots, adj, &self.flips)
        };
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
                landmarks: self.landmarks.roots.len() as u32,
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

    /// Rebuilds `u`'s ball row: a `fill_row` over `H_u` truncated at the
    /// radius (nodes at depth `R` are recorded but not expanded, which is
    /// exactly when their canonical hops are final).
    fn fill_ball(&mut self, engine: &RspanEngine, u: Node) {
        let reached = self.spanner.fill(
            engine,
            u,
            self.radius,
            &mut self.tmp_next,
            &mut self.tmp_dist,
            &mut self.tmp_support,
        );
        let row = &mut self.balls[u as usize];
        row.clear();
        for &v in &reached[1..] {
            row.push(BallEntry {
                dst: v,
                hop: self.tmp_next[v as usize],
                dist: self.tmp_dist[v as usize],
            });
        }
        row.sort_unstable_by_key(|e| e.dst);
        // Restore the sentinels on the dense scratch rows.
        for &v in reached {
            self.tmp_next[v as usize] = NO_HOP;
            self.tmp_dist[v as usize] = UNREACH;
            self.tmp_support[v as usize] = 0;
        }
    }

    /// Drops cached rows a flip actually changes (exact predicate, with
    /// in-place support maintenance on survivors) plus batch endpoints'
    /// rows, and stamps the survivors with the commit's `epoch`.  Runs
    /// against the pre-flip adjacency/rows.
    fn invalidate_cache(&mut self, batch: &[TopologyChange], epoch: u64) -> usize {
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
        let mut si = 0usize;
        while si < self.cache.slots.len() {
            let slot = &mut self.cache.slots[si];
            if row_survives(
                slot.src,
                &self.flips,
                &slot.next,
                &slot.dist,
                &mut slot.support,
            ) {
                slot.epoch = epoch;
                si += 1;
            } else {
                self.cache.drop_slot(si);
                dropped += 1;
            }
        }
        dropped
    }

    /// Runs `f` against `u`'s full row, materialising it through the cache
    /// on a miss: the same sparse sweep [`crate::delta::DeltaRouter`] runs,
    /// into a pooled slot stamped with the current epoch (returned to the
    /// pool at once when caching is disabled).  With telemetry on, the fill
    /// time accumulates for [`Span::Materialize`].
    fn with_row<T>(&mut self, engine: &RspanEngine, u: Node, f: impl FnOnce(&RowSlot) -> T) -> T {
        assert_eq!(
            engine.epoch(),
            self.epoch,
            "exact query against an engine at a different epoch"
        );
        self.cache.tick += 1;
        let tick = self.cache.tick;
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
        if self.cache.cap > 0 && self.cache.slots.len() >= self.cache.cap {
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
        let start = self.tel.on().then(Instant::now);
        let mut slot = self.cache.blank_slot(self.n);
        self.spanner.fill(
            engine,
            u,
            UNREACH,
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
        if self.cache.cap == 0 {
            let out = f(&slot);
            self.cache.free.push(slot);
            return out;
        }
        let idx = self.cache.slots.len() as u32;
        self.cache.slot_of[u as usize] = idx;
        self.cache.slots.push(slot);
        f(&self.cache.slots[idx as usize])
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
    use rspan_graph::{sorted_insert, sorted_remove, CsrGraph};

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
    fn cached_rows_that_survive_a_commit_answer_exactly() {
        let g = gnp_connected(60, 0.08, 7);
        let mut engine = RspanEngine::new(g.clone(), TreeAlgo::KGreedy { k: 2 });
        let mut router = CompactRouter::new(
            &engine,
            LocalConfig {
                landmarks: 0,
                cache_capacity: 64,
            },
        );
        let n = router.n() as Node;
        for u in 0..n {
            router.exact_next_hop(&engine, u, (u + 1) % n);
        }
        let (eu, ev) = g.edges().next().unwrap();
        let batch = [TopologyChange::RemoveEdge(eu, ev)];
        let delta = engine.commit(&batch);
        let stats = router.apply(&engine, &batch, &delta);
        assert!(stats.spanner_flips > 0, "the removal must flip the spanner");
        assert!(
            stats.cache_invalidated < n as usize,
            "some cached rows must survive the flip"
        );
        let before = router.cache_stats();
        let dense = DeltaRouter::new(&engine);
        for u in 0..n {
            for v in 0..n {
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
        // Each dropped row refills once; every survivor answers from the
        // cache.
        let after = router.cache_stats();
        assert_eq!(after.misses - before.misses, stats.cache_invalidated as u64);
        assert_eq!(after.evictions, 0);
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
        let adj = SpannerAdj::new(engine);
        let mut queue = Vec::new();
        let landmarks = &router.landmarks;
        assert_eq!(landmarks.trees.len(), landmarks.roots.len(), "{context}");
        for (tree, &root) in landmarks.trees.iter().zip(&landmarks.roots) {
            assert_eq!(tree.root, root, "{context}");
            let mut fresh = LandmarkTree::empty(root);
            rebuild_tree(&mut fresh, adj.lists(), &mut queue);
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

    /// The label oracle: `v`'s home by a scan over every tree, smallest
    /// distance then smallest index (`None` where no tree reaches `v`).
    fn scanned_home(landmarks: &Landmarks, v: Node) -> Option<(usize, u32)> {
        let dists = landmarks.trees.iter().map(|tree| tree.dist[v as usize]);
        dists
            .enumerate()
            .filter(|&(_, d)| d != UNREACH)
            .min_by_key(|&(i, d)| (d, i))
    }

    /// Every node's label, through the router's public reads, against
    /// [`scanned_home`].
    fn assert_labels_match_scan(router: &CompactRouter, context: &str) {
        for v in 0..router.n() as Node {
            let home = scanned_home(&router.landmarks, v);
            assert_eq!(
                router.home_landmark(v),
                home.map(|(i, _)| i),
                "{context}: home landmark of {v}"
            );
            assert_eq!(
                router.landmark_distance(v),
                home.map(|(_, d)| d),
                "{context}: landmark distance of {v}"
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
        // Label traffic: commits that changed the landmark set, and labels
        // that moved to another landmark or rose, on commits that kept it.
        let (mut set_changes, mut label_moves, mut label_rises) = (0usize, 0usize, 0usize);
        // Commits with a spanner flip that re-elected the landmark set, and
        // those that kept it without a component pass.
        let (mut elected, mut kept) = (0usize, 0usize);
        for seed in [31u64, 32, 33] {
            let inst = uniform_udg(90, 5.0, 1.0, seed);
            let mut engine = RspanEngine::new(inst.graph.clone(), TreeAlgo::KGreedy { k: 2 });
            let mut router = CompactRouter::new(&engine, cfg);
            assert_trees_match_rebuild(&router, &engine, "fresh build");
            assert_labels_match_scan(&router, "fresh build");
            let mut scenarios: Vec<Box<dyn ChurnScenario>> = vec![
                Box::new(LinkFlapScenario::new(&inst.graph, 3.0, seed)),
                Box::new(MobilityScenario::from_udg(&inst, 3, 0.2, seed ^ 0x5EED)),
                Box::new(JoinLeaveScenario::new(inst.graph.clone(), 2, seed ^ 0x101E)),
            ];
            for round in 0..24 {
                let trees = &router.landmarks.trees;
                let before: Vec<(Node, Vec<u32>)> =
                    trees.iter().map(|t| (t.root, t.dist.clone())).collect();
                let roots_before = router.landmarks().to_vec();
                let labels_before = labels(&router);
                let scenario = &mut scenarios[round % 3];
                let batch = valid_subset(engine.graph(), scenario.next_batch(engine.graph()));
                let delta = engine.commit(&batch);
                let elections = router.elections;
                router.apply(&engine, &batch, &delta);
                if !delta.is_empty() {
                    let ran = router.elections - elections;
                    elected += ran;
                    kept += 1 - ran;
                }
                let context = format!("seed {seed} round {round}");
                assert_trees_match_rebuild(&router, &engine, &context);
                assert_labels_match_scan(&router, &context);
                if router.landmarks() != roots_before {
                    set_changes += 1;
                } else {
                    for (was, now) in labels_before.iter().zip(labels(&router)) {
                        let (Some((was_root, was_d)), Some((now_root, now_d))) = (*was, now) else {
                            continue;
                        };
                        label_moves += usize::from(was_root != now_root);
                        label_rises += usize::from(now_d > was_d);
                    }
                }
                let landmarks = &router.landmarks;
                for (tree, &root) in landmarks.trees.iter().zip(&landmarks.roots) {
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
        assert!(set_changes > 0, "no commit changed the landmark set");
        assert!(label_moves > 0, "no label moved to another landmark");
        assert!(label_rises > 0, "no label's distance rose");
        assert!(elected > 0, "no commit re-elected the landmark set");
        assert!(kept > 0, "no flip commit kept the landmark set");
    }

    /// Every node's home as (landmark id, tree distance).
    fn labels(router: &CompactRouter) -> Vec<Option<(Node, u32)>> {
        (0..router.n() as Node)
            .map(|v| {
                let home = router.home_landmark(v)?;
                Some((router.landmarks()[home], router.landmark_distance(v)?))
            })
            .collect()
    }

    /// Toggles the spanner edge `(x, y)` in `adj` and moves `landmarks`
    /// along, keeping the landmark set.
    fn flip(adj: &mut [Vec<Node>], landmarks: &mut Landmarks, x: Node, y: Node, add: bool) {
        if add {
            sorted_insert(&mut adj[x as usize], y);
            sorted_insert(&mut adj[y as usize], x);
        } else {
            sorted_remove(&mut adj[x as usize], y);
            sorted_remove(&mut adj[y as usize], x);
        }
        let roots = landmarks.roots.clone();
        landmarks.update(roots, adj, &[(x, y, add)]);
    }

    #[test]
    fn labels_keep_the_tie_rule_through_flips_and_chain_hops_match_the_walk() {
        // The path 0-1-2-3-4 with landmarks 0 and 4 (indices 0 and 1).
        let mut adj: Vec<Vec<Node>> = vec![Vec::new(); 5];
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 4)] {
            sorted_insert(&mut adj[u as usize], v);
            sorted_insert(&mut adj[v as usize], u);
        }
        let mut lm = Landmarks::new(vec![0, 4], &adj);
        let check = |lm: &Landmarks, context: &str| {
            for v in 0..5 {
                assert_eq!(lm.home(v), scanned_home(lm, v), "{context}: label of {v}");
            }
            for tree in &lm.trees {
                for dst in 0..5 {
                    let chain = ancestor_chain(tree, dst);
                    for w in (0..5).filter(|&w| w != dst) {
                        assert_eq!(
                            chain_hop(tree, &chain, w),
                            tree_hop(tree, w, dst),
                            "{context}: hop {w} -> {dst} in the tree of {}",
                            tree.root
                        );
                    }
                }
            }
        };
        check(&lm, "fresh");
        // 2 is two hops from both landmarks: the smaller id wins.
        assert_eq!(lm.home(2), Some((0, 2)));

        // (2, 4) brings landmark 4 strictly closer: an O(1) overwrite.
        flip(&mut adj, &mut lm, 2, 4, true);
        check(&lm, "after adding (2, 4)");
        assert_eq!(lm.home(2), Some((1, 1)));
        assert!(lm.rescan.is_empty());
        // Removing it deepens 2 in its home tree: one rescan, back to the tie.
        flip(&mut adj, &mut lm, 2, 4, false);
        check(&lm, "after removing (2, 4)");
        assert_eq!(lm.home(2), Some((0, 2)));
        assert_eq!(lm.rescan, [2]);

        // (0, 3) ties 3 between its home 4 and landmark 0: the smaller
        // index takes the label over in O(1), and loses it on the removal.
        assert_eq!(lm.home(3), Some((1, 1)));
        flip(&mut adj, &mut lm, 0, 3, true);
        check(&lm, "after adding (0, 3)");
        assert_eq!(lm.home(3), Some((0, 1)));
        assert!(lm.rescan.is_empty());
        flip(&mut adj, &mut lm, 0, 3, false);
        check(&lm, "after removing (0, 3)");
        assert_eq!(lm.home(3), Some((1, 1)));
        assert_eq!(lm.rescan, [3]);
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
        assert_eq!(
            repair_tree(&mut tree, &adj, &quiet, &mut scratch),
            TreeRepair::Unchanged
        );
        assert_eq!((&tree.dist, &tree.parent), (&dist, &parent));
        for &(x, y, _) in &quiet {
            sorted_remove(&mut adj[x as usize], y);
            sorted_remove(&mut adj[y as usize], x);
        }

        // A smaller predecessor moves no depth, only 7's parent.
        let improve = [(1, 7, true)];
        sorted_insert(&mut adj[1], 7);
        sorted_insert(&mut adj[7], 1);
        assert_eq!(
            repair_tree(&mut tree, &adj, &improve, &mut scratch),
            TreeRepair::InPlace
        );
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
        assert_eq!(
            repair_tree(&mut tree, &adj, &flips, &mut scratch),
            TreeRepair::InPlace
        );
        assert_eq!(tree.dist, [0, 1, 5, 4, 3, UNREACH, 1, 2]);
        assert_eq!(tree.parent, [NO_HOP, 0, 3, 4, 7, NO_HOP, 0, 1]);
        let mut fresh = LandmarkTree::empty(0);
        rebuild_tree(&mut fresh, &adj, &mut scratch.queue);
        assert_eq!((tree.dist, tree.parent), (fresh.dist, fresh.parent));
    }

    #[test]
    fn landmarks_are_re_elected_only_when_components_change() {
        // Two triangles {0, 1, 2} and {3, 4, 5} joined by the bridge (2, 3),
        // with pendants that keep every triangle edge in the spanner once
        // the bridge is gone.  One stride landmark (0) plus the minimum of
        // each spanner component.
        let g = CsrGraph::from_edges(
            10,
            &[
                (0, 1),
                (0, 2),
                (1, 2),
                (2, 3),
                (3, 4),
                (3, 5),
                (4, 5),
                (0, 6),
                (1, 7),
                (4, 8),
                (5, 9),
            ],
        );
        let cfg = LocalConfig {
            landmarks: 1,
            cache_capacity: 0,
        };
        let mut engine = RspanEngine::new(g, TreeAlgo::KGreedy { k: 2 });
        assert!(
            engine.contains_spanner_edge(2, 3),
            "the bridge is a spanner edge"
        );
        let mut router = CompactRouter::new(&engine, cfg);
        assert_eq!(router.landmarks(), [0]);
        let mut commit = |batch: &[TopologyChange], context: &str| {
            let elections = router.elections;
            let delta = engine.commit(batch);
            assert!(!delta.is_empty(), "{context}: the spanner must flip");
            router.apply(&engine, batch, &delta);
            assert_trees_match_rebuild(&router, &engine, context);
            assert_labels_match_scan(&router, context);
            let fresh = CompactRouter::new(&engine, cfg);
            assert_eq!(router.landmarks(), fresh.landmarks(), "{context}");
            (router.landmarks().to_vec(), router.elections - elections)
        };
        // Losing the bridge splits the spanner: 3 becomes a minimum.
        let cut = commit(&[TopologyChange::RemoveEdge(2, 3)], "bridge removed");
        assert_eq!(cut, (vec![0, 3], 1));
        // Restoring it merges them again: 3 is demoted.
        let joined = commit(&[TopologyChange::AddEdge(2, 3)], "bridge restored");
        assert_eq!(joined, (vec![0], 1));
        // (0, 1) leaves the spanner but 0-2-1 remains: no election.
        let detour = commit(&[TopologyChange::RemoveEdge(0, 1)], "detour kept");
        assert!(!engine.contains_spanner_edge(0, 1));
        assert_eq!(detour, (vec![0], 0));
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
