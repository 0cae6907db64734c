//! # remote-spanners
//!
//! A Rust reproduction of *Jacquet & Viennot, "Remote-Spanners: What to Know
//! beyond Neighbors"* (INRIA RR-6679, IPPS 2009).
//!
//! A sub-graph `H` of an unweighted graph `G` (same node set) is an
//! **(α, β)-remote-spanner** if for every pair of nonadjacent nodes `u, v`,
//! `d_{H_u}(u, v) ≤ α·d_G(u, v) + β`, where `H_u` is `H` augmented with every
//! edge of `G` incident to `u` — the knowledge a router always has about its
//! own neighbors.  The notion extends to multi-connectivity by measuring the
//! minimum total length of `k` internally-vertex-disjoint paths.
//!
//! This facade crate re-exports the workspace crates:
//!
//! * [`graph`] — CSR graphs, BFS, balls, sub-graph views, generators,
//! * [`metric`] — doubling metrics, Poisson point processes, unit-ball graphs,
//! * [`flow`] — vertex-disjoint path distances `d^k`,
//! * [`domtree`] — dominating trees (Algorithms 1, 2, 4, 5),
//! * [`core`] — remote-spanner constructions (Theorems 1, 2, 3), verification
//!   and classical baselines,
//! * [`engine`] — incremental spanner maintenance under churn (dynamic
//!   topology overlay, dirty-ball recomputation, spanner deltas),
//! * [`distributed`] — LOCAL-model protocol, greedy link-state routing,
//!   topology dynamics,
//! * [`asim`] — deterministic discrete-event asynchronous simulation (lossy
//!   links, latency models, crash-recovery churn) over the same protocol
//!   state machines,
//! * [`session`] — the typed builder API fronting all of the above: one
//!   [`Session`](session::Session) owns the engine, router and scheduler,
//!   and every [`SpannerAlgo`](session::SpannerAlgo) names a construction.
//!
//! ## Quick start
//!
//! Build a spanner once with a [`session::SpannerAlgo`], or maintain one
//! under churn with the [`session::Session`] builder:
//!
//! ```
//! use remote_spanners::prelude::*;
//!
//! // A random unit-disk graph (the paper's ad-hoc network model).
//! let instance = udg_with_density(200, 10.0, 42);
//!
//! // Theorem 2 with k = 1: a (1, 0)-remote-spanner — exact distances are
//! // preserved from every node's augmented view.
//! let built = SpannerAlgo::Exact.build(&instance.graph).unwrap();
//! assert!(built.num_edges() <= instance.graph.m());
//! assert!(verify_remote_stretch(&built.spanner, &built.guarantee).holds());
//!
//! // The same construction maintained under link-flap churn, with next-hop
//! // tables repaired incrementally from every commit's spanner delta.
//! let scenario = LinkFlapScenario::new(&instance.graph, 2.0, 7);
//! let mut session = Session::builder(instance.graph)
//!     .algo(SpannerAlgo::Exact)
//!     .churn(scenario)
//!     .routing(Repair::Delta)
//!     .build()
//!     .unwrap();
//! let metrics = session.run(5).unwrap();
//! assert_eq!(metrics.rounds, 5);
//! ```

pub use rspan_asim as asim;
pub use rspan_core as core;
pub use rspan_distributed as distributed;
pub use rspan_domtree as domtree;
pub use rspan_engine as engine;
pub use rspan_flow as flow;
pub use rspan_graph as graph;
pub use rspan_metric as metric;
pub use rspan_session as session;

/// Convenience re-exports of the most commonly used items.
///
/// The session layer (`Session`, `SpannerAlgo`, …) is the primary public
/// API; the per-layer items below it remain exported for callers that need
/// to hold the pieces directly.
pub mod prelude {
    // The typed session facade: the one entry point over construction,
    // churn, routing repair and both schedulers.
    pub use rspan_session::{
        Broadcast, ByzMetrics, Metrics, Repair, RspanError, Scheduler, Session, SessionBuilder,
        SpannerAlgo, StepReport,
    };
    // Constructions and verification (prefer `SpannerAlgo`; the free
    // constructors remain the bit-identical building blocks).
    pub use rspan_core::{
        baswana_sen_spanner, bfs_tree_spanner, epsilon_remote_spanner, exact_remote_spanner,
        full_topology, greedy_spanner, k_connecting_remote_spanner, rem_span_algo, spanner_stats,
        two_connecting_remote_spanner, verify_k_connecting, verify_plain_stretch,
        verify_remote_stretch, BuiltSpanner, SpannerStats, StretchGuarantee,
    };
    // Incremental maintenance under churn.
    pub use rspan_engine::{
        ChurnScenario, JoinLeaveScenario, LinkFlapScenario, MobilityScenario, RspanEngine,
        SpannerDelta, TopologyChange,
    };
    // Distributed execution: routing, tables, delta repair, protocol.
    pub use rspan_distributed::{
        greedy_route, measure_routing, restabilise_flood, run_remspan_protocol, DeltaRouter,
        ProtocolNode, RepairStats, RoutingTables, RunStats, Transport,
    };
    // Asynchronous event-driven simulation and adversarial fault injection.
    pub use rspan_asim::{
        run_repair_churn, Adversary, AsimConfig, AsimStats, AsyncChurnConfig, AsyncNetwork,
        ByzBehaviour, FaultPlan, LatencyModel,
    };
    // Dominating trees.
    pub use rspan_domtree::{
        dom_tree_greedy, dom_tree_k_greedy, dom_tree_k_mis, dom_tree_mis, is_dominating_tree,
        is_k_connecting_dominating_tree, DomScratch, DominatingTree, TreeAlgo,
    };
    // Flows and disjoint paths.
    pub use rspan_flow::{dk_distance, min_sum_disjoint_paths, pair_vertex_connectivity};
    // Graphs, generators, metrics.
    pub use rspan_graph::generators::{
        gnp, gnp_connected, grid_graph, poisson_udg, udg_with_density, uniform_udg,
    };
    pub use rspan_graph::{CsrGraph, EdgeSet, GraphBuilder, Node, Subgraph, TraversalScratch};
    pub use rspan_metric::{uniform_points, unit_ball_graph, EuclideanMetric, Point};
}
