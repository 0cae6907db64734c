//! Seeded property tests pinning the engine to the static construction.
//!
//! The load-bearing invariant: after an *arbitrary interleaved sequence* of
//! add/remove batches, the engine's spanner is **bit-identical** to a full
//! `rem_span_algo` recomputation on the final graph — the dirty-ball
//! recomputation may never change the result, only its cost.  The union
//! alone would miss a stale cached tree whose edges other trees also hold,
//! so every root's cached tree is also checked against a fresh build.  A
//! second invariant checks the emitted deltas compose: replaying them over
//! the initial spanner reproduces the final spanner exactly.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rspan_core::rem_span_algo;
use rspan_domtree::{DomScratch, TreeAlgo};
use rspan_engine::{RspanEngine, SpannerDelta, TopologyChange};
use rspan_graph::generators::er::gnp_connected;
use rspan_graph::generators::udg::uniform_udg;
use rspan_graph::{DynamicGraph, Node};
use rspan_telemetry::{Counter, TelemetryHandle};
use std::collections::HashSet;

/// Generates one valid batch of random edge toggles against `tracker`,
/// applying it to the tracker as it goes (each pair toggles at most once).
fn random_batch(
    tracker: &mut DynamicGraph,
    rng: &mut SmallRng,
    max_changes: usize,
) -> Vec<TopologyChange> {
    let n = tracker.n() as Node;
    let mut batch = Vec::new();
    let mut touched: HashSet<(Node, Node)> = HashSet::new();
    let size = rng.gen_range(0..=max_changes);
    while batch.len() < size {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v {
            continue;
        }
        let key = if u < v { (u, v) } else { (v, u) };
        if !touched.insert(key) {
            continue;
        }
        let change = if tracker.has_edge(u, v) {
            TopologyChange::RemoveEdge(u, v)
        } else {
            TopologyChange::AddEdge(u, v)
        };
        change.apply_to(tracker);
        batch.push(change);
    }
    batch
}

/// Asserts the engine's spanner equals a full recomputation on its current
/// topology, bit for bit (same `EdgeSet` over the compacted snapshot).
fn assert_matches_full_recompute(engine: &RspanEngine, context: &str) {
    let csr = engine.to_csr();
    let full = rem_span_algo(&csr, engine.algo());
    let incremental = engine.spanner_on(&csr);
    assert_eq!(
        incremental.edge_set(),
        full.edge_set(),
        "{context}: incremental spanner diverged from full recompute"
    );
}

/// Asserts every root's cached tree equals a fresh build on the engine's
/// current topology, edge for edge and in build order.
fn assert_tree_cache_matches_fresh_builds(engine: &RspanEngine, context: &str) {
    let csr = engine.to_csr();
    let algo = engine.algo();
    let mut scratch = DomScratch::new();
    let mut fresh = Vec::new();
    for u in 0..csr.n() as Node {
        fresh.clear();
        let tree = algo.build_with_scratch(&csr, u, &mut scratch);
        tree.for_each_edge(|p, c| fresh.push((p, c)));
        assert_eq!(
            engine.tree_edges(u),
            fresh.as_slice(),
            "{context}: cached tree of {u} is stale"
        );
    }
}

fn algos() -> Vec<TreeAlgo> {
    vec![
        TreeAlgo::KGreedy { k: 2 },
        TreeAlgo::Mis { r: 2 },
        TreeAlgo::Greedy { r: 3, beta: 1 },
        TreeAlgo::KMis { k: 2 },
    ]
}

#[test]
fn interleaved_batches_stay_bit_identical_to_full_recompute() {
    for algo in algos() {
        for seed in [11u64, 12, 13] {
            let start = gnp_connected(70, 0.06, seed);
            let mut tracker = DynamicGraph::new(start.clone());
            let mut engine = RspanEngine::new(start, algo);
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xC0FFEE);
            assert_matches_full_recompute(&engine, &format!("{algo:?} seed {seed} initial"));
            for round in 0..8 {
                let batch = random_batch(&mut tracker, &mut rng, 6);
                let delta = engine.commit(&batch);
                assert_eq!(delta.epoch, round + 1);
                let context = format!(
                    "{algo:?} seed {seed} round {round} ({} changes)",
                    batch.len()
                );
                assert_matches_full_recompute(&engine, &context);
                assert_tree_cache_matches_fresh_builds(&engine, &context);
            }
            // and the engine's topology tracked the reference overlay
            assert_eq!(engine.to_csr(), tracker.to_csr());
        }
    }
}

#[test]
fn kgreedy_tree_cache_matches_fresh_builds_under_flaps_and_mobility() {
    // Unit-disk graphs have many common neighbours, so many marked roots
    // are adjacent to both ends of a change and keep their cached tree.
    use rspan_engine::{ChurnScenario, LinkFlapScenario, MobilityScenario};
    let mut skipped_commits = 0usize;
    for k in 1..=3usize {
        for seed in [51u64, 52] {
            let inst = uniform_udg(150, 5.0, 1.0, seed);
            let scenarios: Vec<Box<dyn ChurnScenario>> = vec![
                Box::new(LinkFlapScenario::new(&inst.graph, 4.0, seed)),
                Box::new(MobilityScenario::from_udg(&inst, 4, 0.25, seed ^ 0x5EED)),
            ];
            for mut scenario in scenarios {
                let algo = TreeAlgo::KGreedy { k };
                let mut engine = RspanEngine::new(inst.graph.clone(), algo);
                let tel = TelemetryHandle::enabled();
                engine.set_telemetry(tel.clone());
                let (mut dirty, mut rebuilt) = (0u64, 0u64);
                for round in 0..10 {
                    let batch = scenario.next_batch(engine.graph());
                    engine.commit(&batch);
                    let context =
                        format!("{algo:?} seed {seed} {} round {round}", scenario.label());
                    assert_tree_cache_matches_fresh_builds(&engine, &context);
                    let snap = tel.snapshot().expect("telemetry enabled");
                    let now_dirty = snap.counter(Counter::EngineDirtyNodes);
                    let now_rebuilt = snap.counter(Counter::EngineTreesRebuilt);
                    assert!(now_rebuilt - rebuilt <= now_dirty - dirty, "{context}");
                    skipped_commits += usize::from(now_rebuilt - rebuilt < now_dirty - dirty);
                    (dirty, rebuilt) = (now_dirty, now_rebuilt);
                }
                assert_matches_full_recompute(&engine, scenario.label());
            }
        }
    }
    // Non-vacuity: some commit kept a marked root's cached tree.
    assert!(skipped_commits > 0, "no commit skipped a marked root");
}

#[test]
fn parallel_commits_stay_bit_identical_to_sequential_commits() {
    // Satellite invariant of the sharded rebuild: over arbitrary interleaved
    // batches, a parallel-committing engine emits the same deltas, caches the
    // same trees, and holds the same spanner as a sequential one — for every
    // thread count, including ones far above the dirty-chunk parallelism.
    for algo in [TreeAlgo::KGreedy { k: 2 }, TreeAlgo::Mis { r: 2 }] {
        for seed in [3u64, 4] {
            let start = gnp_connected(120, 0.05, seed);
            let mut tracker = DynamicGraph::new(start.clone());
            let mut seq = RspanEngine::new(start.clone(), algo);
            let mut par2 = RspanEngine::new(start.clone(), algo);
            let mut par8 = RspanEngine::new(start, algo);
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xAB5E);
            for round in 0..8 {
                let batch = random_batch(&mut tracker, &mut rng, 10);
                let d_seq = seq.commit(&batch);
                let d_par2 = par2.commit_parallel(&batch, 2);
                let d_par8 = par8.commit_parallel(&batch, 8);
                assert_eq!(d_seq, d_par2, "{algo:?} seed {seed} round {round} (2)");
                assert_eq!(d_seq, d_par8, "{algo:?} seed {seed} round {round} (8)");
                assert_eq!(seq.spanner_pairs(), par2.spanner_pairs());
                assert_eq!(seq.spanner_pairs(), par8.spanner_pairs());
            }
            for u in 0..seq.graph().n() as Node {
                assert_eq!(seq.tree_edges(u), par2.tree_edges(u));
                assert_eq!(seq.tree_edges(u), par8.tree_edges(u));
            }
            assert_matches_full_recompute(&par8, &format!("{algo:?} seed {seed} parallel"));
        }
    }
}

#[test]
fn udg_churn_stays_bit_identical_with_eager_compaction() {
    // A compaction fraction of ~0 forces a base rebuild on every commit:
    // compaction must be invisible to the spanner state.
    let inst = uniform_udg(150, 5.0, 1.0, 21);
    let algo = TreeAlgo::KGreedy { k: 1 };
    let mut tracker = DynamicGraph::new(inst.graph.clone());
    let mut engine = RspanEngine::with_compaction(inst.graph.clone(), algo, 1e-9);
    let mut rng = SmallRng::seed_from_u64(99);
    for round in 0..10 {
        let batch = random_batch(&mut tracker, &mut rng, 5);
        let delta = engine.commit(&batch);
        if !batch.is_empty() {
            assert!(delta.compacted, "round {round} skipped eager compaction");
            assert_eq!(engine.graph().overlay_edges(), 0);
        }
        assert_matches_full_recompute(&engine, &format!("round {round}"));
    }
}

#[test]
fn replaying_deltas_reproduces_the_final_spanner() {
    for seed in [5u64, 6] {
        let start = gnp_connected(60, 0.07, seed);
        let algo = TreeAlgo::Mis { r: 2 };
        let mut tracker = DynamicGraph::new(start.clone());
        let mut engine = RspanEngine::new(start, algo);
        let mut spanner: HashSet<(Node, Node)> = engine.spanner_pairs().into_iter().collect();
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(7919));
        let mut deltas: Vec<SpannerDelta> = Vec::new();
        for _ in 0..10 {
            let batch = random_batch(&mut tracker, &mut rng, 4);
            deltas.push(engine.commit(&batch));
        }
        for delta in &deltas {
            for &(u, v) in &delta.removed {
                assert!(
                    spanner.remove(&(u, v)),
                    "seed {seed} epoch {}: removed edge ({u},{v}) was absent",
                    delta.epoch
                );
            }
            for &(u, v) in &delta.added {
                assert!(
                    spanner.insert((u, v)),
                    "seed {seed} epoch {}: added edge ({u},{v}) was present",
                    delta.epoch
                );
            }
        }
        let mut replayed: Vec<(Node, Node)> = spanner.into_iter().collect();
        replayed.sort_unstable();
        assert_eq!(replayed, engine.spanner_pairs(), "seed {seed}");
    }
}

#[test]
fn scenario_streams_keep_the_engine_consistent() {
    use rspan_engine::{ChurnScenario, JoinLeaveScenario, LinkFlapScenario, MobilityScenario};
    let inst = uniform_udg(100, 5.0, 1.0, 31);
    let algo = TreeAlgo::KGreedy { k: 2 };
    let mut scenarios: Vec<Box<dyn ChurnScenario>> = vec![
        Box::new(LinkFlapScenario::new(&inst.graph, 3.0, 41)),
        Box::new(MobilityScenario::from_udg(&inst, 4, 0.25, 42)),
        Box::new(JoinLeaveScenario::new(inst.graph.clone(), 3, 43)),
    ];
    for scenario in &mut scenarios {
        let mut engine = RspanEngine::new(inst.graph.clone(), algo);
        let mut total_changes = 0usize;
        for _ in 0..6 {
            let batch = scenario.next_batch(engine.graph());
            total_changes += batch.len();
            engine.commit(&batch);
        }
        assert!(
            total_changes > 0,
            "{}: scenario generated no churn",
            scenario.label()
        );
        assert_matches_full_recompute(&engine, scenario.label());
    }
}

#[test]
fn restabilise_rides_the_engine_code_path() {
    // The distributed dynamics wrapper and a directly-held engine must agree.
    let g = gnp_connected(50, 0.09, 77);
    let (u, v) = g.edges().next().unwrap();
    let algo = TreeAlgo::KGreedy { k: 1 };
    let mut engine = RspanEngine::new(g.clone(), algo);
    let delta = engine.commit(&[TopologyChange::RemoveEdge(u, v)]);
    let mut overlay = DynamicGraph::new(g.clone());
    overlay.remove_edge(u, v);
    let g2 = overlay.into_csr();
    let full = rem_span_algo(&g2, algo);
    assert_eq!(engine.spanner_on(&g2).edge_set(), full.edge_set());
    assert!(delta.recomputed.contains(&u));
}
