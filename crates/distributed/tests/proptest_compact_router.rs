//! Seeded property tests pinning the compact-routing layer.
//!
//! The load-bearing invariants, held through an *arbitrary interleaved
//! stream* of churn batches (Poisson link flaps, unit-disk mobility,
//! whole-node join/leave, all feeding one long-lived engine):
//!
//! * **delivery** — [`CompactRouter::forward`] reaches the destination for
//!   every sampled pair the dense tables consider connected, and never
//!   claims a route for a disconnected pair;
//! * **stretch** — every delivered route stays within the configured
//!   stretch bound of the true spanner distance recorded by the dense
//!   [`RoutingTables`] (the bench asserts the same bound against graph
//!   distances at scale);
//! * **exactness** — cached exact queries ([`CompactRouter::exact_next_hop`])
//!   are bit-identical to the dense tables' canonical next hops, and a
//!   cache-enabled router answers exactly like a cache-disabled one;
//! * **repair** — the router repaired commit by commit answers every
//!   landmark and routing query exactly like one built fresh from the same
//!   engine state.

use rspan_distributed::{CompactRouter, LocalConfig, RoutingTables};
use rspan_engine::{
    ChurnScenario, JoinLeaveScenario, LinkFlapScenario, MobilityScenario, RspanEngine,
    TopologyChange,
};
use rspan_graph::generators::udg::uniform_udg;
use rspan_graph::Node;

/// The bound the routes are held to (hops vs dense table distance); the
/// landmark scheme guarantees `d_T(s, ℓ*) + d_T(ℓ*, t)`, so with the dense
/// landmark set configured below a constant multiple holds on these small
/// well-connected instances.
const STRETCH_BOUND: f64 = 4.0;

/// A denser-than-default landmark set so the configured stretch bound has
/// slack on 90-node instances (the default `⌈√n⌉` is tuned for scale, not
/// for tiny graphs).
fn test_config() -> LocalConfig {
    LocalConfig {
        landmarks: 24,
        cache_capacity: 8,
    }
}

/// Clips a proposed batch to the changes valid against the live topology,
/// sequentially — interleaving scenario families breaks each family's own
/// bookkeeping assumptions, and the invariants under test are about
/// arbitrary *valid* batches.
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

/// Delivery, stretch and exactness of one router state against the dense
/// tables of the same engine state.
fn assert_compact_invariants(router: &mut CompactRouter, engine: &RspanEngine, context: &str) {
    let csr = engine.to_csr();
    let dense = RoutingTables::build(&engine.spanner_on(&csr));
    let n = engine.graph().n() as Node;
    for s in 0..n {
        for t in 0..n {
            let exact = dense.table_distance(s, t);
            if s == t {
                continue;
            }
            // Exactness: the cached-row query is bit-identical to the
            // dense canonical next hop.
            assert_eq!(
                router.exact_next_hop(engine, s, t),
                dense.next_hop(s, t),
                "{context}: exact query diverged from dense tables at ({s}, {t})"
            );
            match exact {
                None => assert!(
                    router.forward(s, t).is_none(),
                    "{context}: forwarded across a disconnected pair ({s}, {t})"
                ),
                Some(d) => {
                    // Delivery: the compact route reaches t...
                    let path = router
                        .forward(s, t)
                        .unwrap_or_else(|| panic!("{context}: no route for ({s}, {t})"));
                    assert_eq!(*path.last().expect("non-empty"), t, "{context}");
                    // ...within the configured stretch of the dense
                    // table distance.
                    let hops = (path.len() - 1) as f64;
                    assert!(
                        hops <= (d as f64 * STRETCH_BOUND).max(1.0),
                        "{context}: route ({s}, {t}) took {hops} hops vs distance {d}"
                    );
                }
            }
        }
    }
}

#[test]
fn compact_router_delivers_within_stretch_under_interleaved_churn() {
    for seed in [21u64, 22, 23] {
        let inst = uniform_udg(90, 5.0, 1.0, seed);
        let algo = rspan_domtree::TreeAlgo::KGreedy { k: 2 };
        let mut engine = RspanEngine::new(inst.graph.clone(), algo);
        let mut router = CompactRouter::new(&engine, test_config());
        assert_compact_invariants(&mut router, &engine, "initial");
        let mut scenarios = churn_mix(&inst, seed);
        for round in 0..9 {
            let scenario = &mut scenarios[round % 3];
            let batch = valid_subset(engine.graph(), scenario.next_batch(engine.graph()));
            let delta = engine.commit(&batch);
            router.apply(&engine, &batch, &delta);
            assert_compact_invariants(&mut router, &engine, &format!("seed {seed} round {round}"));
        }
    }
}

#[test]
fn cache_enabled_answers_exactly_like_cache_disabled() {
    // Same engine, two routers: a caching one under LRU pressure (capacity
    // far below the query spread) and an uncached one.  Every exact query
    // must agree at every churn step — the cache may only change *when*
    // rows are materialised, never what they contain.
    let seed = 29u64;
    let inst = uniform_udg(80, 5.0, 1.0, seed);
    let algo = rspan_domtree::TreeAlgo::KGreedy { k: 2 };
    let mut engine = RspanEngine::new(inst.graph.clone(), algo);
    let mut cached = CompactRouter::new(
        &engine,
        LocalConfig {
            cache_capacity: 3,
            ..test_config()
        },
    );
    let mut uncached = CompactRouter::new(
        &engine,
        LocalConfig {
            cache_capacity: 0,
            ..test_config()
        },
    );
    let mut scenarios = churn_mix(&inst, seed);
    for round in 0..9 {
        let scenario = &mut scenarios[round % 3];
        let batch = valid_subset(engine.graph(), scenario.next_batch(engine.graph()));
        let delta = engine.commit(&batch);
        cached.apply(&engine, &batch, &delta);
        uncached.apply(&engine, &batch, &delta);
        let n = engine.graph().n() as Node;
        for s in 0..n {
            for t in 0..n {
                assert_eq!(
                    cached.exact_next_hop(&engine, s, t),
                    uncached.exact_next_hop(&engine, s, t),
                    "round {round}: cache changed an exact answer at ({s}, {t})"
                );
                assert_eq!(
                    cached.exact_distance(&engine, s, t),
                    uncached.exact_distance(&engine, s, t),
                    "round {round}: cache changed an exact distance at ({s}, {t})"
                );
            }
        }
        assert!(
            cached.cache_stats().evictions > 0 || round < 1,
            "round {round}: LRU pressure never materialised — the property is vacuous"
        );
    }
}

#[test]
fn repaired_router_answers_like_a_fresh_build_under_interleaved_churn() {
    for seed in [21u64, 22, 23] {
        let inst = uniform_udg(90, 5.0, 1.0, seed);
        let algo = rspan_domtree::TreeAlgo::KGreedy { k: 2 };
        let mut engine = RspanEngine::new(inst.graph.clone(), algo);
        let mut router = CompactRouter::new(&engine, test_config());
        let mut scenarios = churn_mix(&inst, seed);
        for round in 0..18 {
            let scenario = &mut scenarios[round % 3];
            let batch = valid_subset(engine.graph(), scenario.next_batch(engine.graph()));
            let delta = engine.commit(&batch);
            router.apply(&engine, &batch, &delta);
            let fresh = CompactRouter::new(&engine, test_config());
            let context = format!("seed {seed} round {round}");
            assert_eq!(router.landmarks(), fresh.landmarks(), "{context}");
            let n = engine.graph().n() as Node;
            for t in 0..n {
                assert_eq!(
                    router.home_landmark(t),
                    fresh.home_landmark(t),
                    "{context}: home landmark of {t}"
                );
                assert_eq!(
                    router.landmark_distance(t),
                    fresh.landmark_distance(t),
                    "{context}: landmark distance of {t}"
                );
                for s in 0..n {
                    assert_eq!(
                        router.next_hop(s, t),
                        fresh.next_hop(s, t),
                        "{context}: next hop ({s}, {t})"
                    );
                    assert_eq!(
                        router.forward(s, t),
                        fresh.forward(s, t),
                        "{context}: route ({s}, {t})"
                    );
                }
            }
        }
    }
}
