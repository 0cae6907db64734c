//! # rspan-core — remote-spanners
//!
//! The primary contribution of *Jacquet & Viennot, "Remote-Spanners: What to
//! Know beyond Neighbors"*: constructions and verification of sub-graphs `H`
//! of an unweighted graph `G` such that distances are preserved up to
//! `(α, β)` stretch **once the source node's own neighborhood is added back**
//! (`d_{H_u}(u, v) ≤ α·d_G(u, v) + β` with `H_u = H ∪ {uv : v ∈ N_G(u)}`),
//! including the multi-connectivity (k-connecting) generalisation.
//!
//! Entry points:
//!
//! * [`strategies`] — the paper's Theorem 1 ([`epsilon_remote_spanner`]),
//!   Theorem 2 ([`k_connecting_remote_spanner`], [`exact_remote_spanner`]) and
//!   Theorem 3 ([`two_connecting_remote_spanner`]) constructions,
//! * [`remspan`] — the generic `RemSpan` driver (union of per-node dominating
//!   trees), sequential, thread-parallel and LOCAL-view variants,
//! * [`verify`] / [`kverify`] — definition-level stretch checkers,
//! * [`baselines`] — classical spanners (greedy `(2k−1)`-spanner,
//!   Baswana–Sen, BFS tree, full topology) for the comparison tables,
//! * [`stats`] — spanner size and advertisement-cost statistics.

#![warn(missing_docs)]

pub mod baselines;
pub mod everify;
pub mod kverify;
pub mod remspan;
pub mod stats;
pub mod strategies;
pub mod verify;

pub use baselines::{
    baswana_sen_spanner, bfs_tree_spanner, full_topology, greedy_spanner,
    spanner_as_remote_guarantee,
};
pub use everify::{verify_k_edge_connecting, verify_k_edge_connecting_pairs, EdgeKStretchReport};
pub use kverify::{
    all_nonadjacent_pairs, sample_nonadjacent_pairs, verify_k_connecting,
    verify_k_connecting_pairs, KStretchReport, KStretchSample,
};
pub use remspan::{
    rem_span, rem_span_algo, rem_span_algo_parallel, rem_span_local, rem_span_local_algo,
};
pub use stats::{advertisement_cost, spanner_degree, spanner_stats, SpannerStats};
pub use strategies::{
    effective_epsilon, epsilon_radius, epsilon_remote_spanner, epsilon_remote_spanner_greedy,
    epsilon_remote_spanner_threads, exact_remote_spanner, k_connecting_remote_spanner,
    k_connecting_remote_spanner_threads, k_mis_remote_spanner, two_connecting_remote_spanner,
    two_connecting_remote_spanner_threads, BuiltSpanner, StretchGuarantee,
};
pub use verify::{
    verify_plain_stretch, verify_remote_stretch, verify_remote_stretch_on, StretchReport,
    StretchSample,
};
