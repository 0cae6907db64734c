//! Seeded property tests pinning the delta-driven routing layer.
//!
//! The load-bearing invariant: after an *arbitrary interleaved stream* of
//! churn batches — Poisson link flaps, unit-disk mobility and whole-node
//! join/leave, all feeding one long-lived engine — the [`DeltaRouter`]'s
//! repaired tables are **bit-identical** (every next hop, every recorded
//! distance) to a from-scratch [`RoutingTables::build`] on the engine's
//! current spanner.  The affected-row analysis may never change a route,
//! only skip provably-unchanged rows.

use rspan_distributed::{DeltaRouter, RoutingTables, TreeStrategy};
use rspan_engine::{
    ChurnScenario, JoinLeaveScenario, LinkFlapScenario, MobilityScenario, RspanEngine,
};
use rspan_graph::generators::udg::uniform_udg;

fn assert_router_matches_full_build(router: &DeltaRouter, engine: &RspanEngine, context: &str) {
    let csr = engine.to_csr();
    let full = RoutingTables::build(&engine.spanner_on(&csr));
    assert_eq!(
        router.tables(),
        &full,
        "{context}: repaired tables diverged from a from-scratch build"
    );
}

/// Clips a proposed batch to the changes that are valid against the live
/// topology, sequentially.  Needed because interleaving scenario families
/// breaks the invariants each family assumes when it alone drives the graph
/// (join/leave tracks its own active set); the router invariant under test is
/// about arbitrary *valid* batches.
fn valid_subset(
    graph: &rspan_graph::DynamicGraph,
    batch: Vec<rspan_engine::TopologyChange>,
) -> Vec<rspan_engine::TopologyChange> {
    let mut tracker = graph.clone();
    batch
        .into_iter()
        .filter(|change| {
            let (u, v) = change.endpoints();
            let ok = match change {
                rspan_engine::TopologyChange::AddEdge(..) => !tracker.has_edge(u, v),
                rspan_engine::TopologyChange::RemoveEdge(..) => tracker.has_edge(u, v),
            };
            if ok {
                change.apply_to(&mut tracker);
            }
            ok
        })
        .collect()
}

/// One round-robin pass over the three scenario families, all mutating the
/// same engine+router pair — the interleaving the issue asks to pin.
fn churn_mix(
    inst: &rspan_graph::generators::udg::UnitDiskInstance,
    seed: u64,
) -> Vec<Box<dyn ChurnScenario>> {
    vec![
        Box::new(LinkFlapScenario::new(&inst.graph, 3.0, seed)),
        Box::new(MobilityScenario::from_udg(inst, 3, 0.2, seed ^ 0x5EED)),
        Box::new(JoinLeaveScenario::new(inst.graph.clone(), 2, seed ^ 0x101E)),
    ]
}

#[test]
fn repaired_tables_stay_bit_identical_under_interleaved_churn() {
    for (strategy, seed) in [
        (TreeStrategy::KGreedy { k: 2 }, 17u64),
        (TreeStrategy::KGreedy { k: 1 }, 18),
        (TreeStrategy::Mis { r: 2 }, 19),
    ] {
        let inst = uniform_udg(90, 5.0, 1.0, seed);
        let mut engine = RspanEngine::new(inst.graph.clone(), strategy.algo());
        let mut router = DeltaRouter::new(&engine);
        assert_router_matches_full_build(&router, &engine, "initial");
        let mut scenarios = churn_mix(&inst, seed);
        let mut total_changes = 0usize;
        let mut total_repaired = 0usize;
        for round in 0..9 {
            // Interleave: rotate through flap / mobility / join-leave.
            let scenario = &mut scenarios[round % 3];
            let batch = valid_subset(engine.graph(), scenario.next_batch(engine.graph()));
            total_changes += batch.len();
            let delta = engine.commit(&batch);
            let stats = router.apply(&engine, &batch, &delta);
            total_repaired += stats.rows_recomputed;
            assert_router_matches_full_build(
                &router,
                &engine,
                &format!(
                    "{strategy:?} seed {seed} round {round} ({}, {} changes)",
                    scenario.label(),
                    batch.len()
                ),
            );
        }
        assert!(total_changes > 0, "{strategy:?}: no churn generated");
        assert!(
            total_repaired < 9 * inst.graph.n(),
            "{strategy:?}: repair never skipped a row"
        );
    }
}

#[test]
fn churn_session_carries_engine_and_router_through_rounds() {
    let inst = uniform_udg(80, 5.0, 1.0, 33);
    let strategy = TreeStrategy::KGreedy { k: 2 };
    let mut engine = RspanEngine::new(inst.graph.clone(), strategy.algo());
    let mut router = DeltaRouter::new(&engine);
    let mut flap = LinkFlapScenario::new(&inst.graph, 4.0, 7);
    for round in 0..6 {
        let batch = flap.next_batch(engine.graph());
        let delta = engine.commit_parallel(&batch, 4);
        let stats = router.apply(&engine, &batch, &delta);
        assert_eq!(delta.epoch, round + 1);
        assert_eq!(stats.epoch, router.epoch());
        assert_eq!(stats.batch_changes, batch.len());
        assert_router_matches_full_build(&router, &engine, &format!("session round {round}"));
    }
}
