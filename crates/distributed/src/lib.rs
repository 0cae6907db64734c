//! # rspan-distributed — LOCAL-model execution of the paper's algorithms
//!
//! The paper's constructions are *distributed*: each node learns a bounded
//! neighborhood through message exchange, decides locally which edges to add,
//! and the spanner is the union of those independent decisions.  This crate
//! makes that executable:
//!
//! * [`transport`] — the scheduler-agnostic protocol substrate: per-node
//!   [`transport::ProtocolNode`] state machines talking to a
//!   [`transport::Transport`], shared between the synchronous round
//!   scheduler here and the asynchronous event scheduler in `rspan-asim`,
//! * [`sim`] — a synchronous message-passing simulator with round and
//!   transmission accounting (the substitute for a real ad-hoc radio network,
//!   see DESIGN.md) — one scheduling policy over the shared node machines,
//! * [`protocol`] — the `RemSpan_{r,β}` protocol of Algorithm 3 as a per-node
//!   state machine (hello, link-state flooding, local tree computation, tree
//!   advertisement), finishing in `2r − 1 + 2β` rounds, plus the §2.3
//!   [`protocol::RepairNode`] stabilisation floods,
//! * [`routing`] — greedy link-state routing on the augmented views `H_u`,
//!   the application the paper's introduction motivates, and [`tables`] —
//!   the precomputed next-hop tables a real router would use,
//! * [`delta`] — the [`DeltaRouter`]: long-lived routing tables repaired
//!   incrementally from the engine's per-commit [`rspan_engine::SpannerDelta`]s
//!   (the batch → commit → delta → table-repair pipeline),
//! * [`compact`] — the [`CompactRouter`]: sublinear per-node routing state
//!   (exact ball-local rows + landmark/tree routing + an LRU cache of
//!   materialised rows), same delta-driven repair pipeline,
//! * [`dynamics`] — topology changes and local restabilisation, rewired on
//!   top of the incremental `rspan-engine` so the simulator and the engine
//!   share one dirty-ball recomputation code path,
//! * [`rb`] — Byzantine tolerance: the [`rb::RbNode`] reliable-broadcast
//!   wrapper delivers repair waves to the inner node only after an
//!   authenticated echo quorum, so up to `f` forging / equivocating /
//!   suppressing peers (with `n > 3f`) cannot break honest agreement.

#![warn(missing_docs)]

pub mod compact;
pub mod delta;
pub mod dynamics;
pub mod protocol;
pub mod rb;
pub mod routing;
pub mod sim;
pub mod tables;
pub mod transport;

pub use compact::{CacheStats, CompactRouter, LocalConfig, LocalRepairStats};
pub use delta::{DeltaRouter, RepairStats};
pub use dynamics::{apply_change, TopologyChange};
pub use protocol::{
    restabilise_flood, run_remspan_protocol, DistributedRun, IncrementalRun, RemSpanMsg,
    RemSpanNode, RepairMsg, RepairNode, TreeStrategy, WaveNode,
};
pub use rb::{Auth, Fnv64, RbMsg, RbNode, RbPayload, RbStats, SeededAuth};
pub use routing::{
    greedy_route, greedy_route_with_scratch, measure_routing, RouteOutcome, RoutingReport,
};
pub use sim::{NodeState, RunStats, SyncNetwork};
pub use tables::{tables_are_consistent, RoutingTables};
pub use transport::{
    BufferedTransport, Envelope, Outgoing, PendingOps, ProtocolNode, Transport, WireSize,
};
