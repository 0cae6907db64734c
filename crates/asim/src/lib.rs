//! # rspan-asim — the asynchronous execution layer
//!
//! The paper specifies its distributed construction in synchronized rounds,
//! and [`SyncNetwork::run_protocol`] executes exactly that model.  Real
//! OLSR-style wireless networks are asynchronous: frames are delayed by
//! contention, reordered, lost, and nodes crash and recover.  This crate is
//! a **deterministic discrete-event simulator** for that regime, running the
//! *same* [`ProtocolNode`] state machines the round scheduler runs —
//! [`ProtocolNode`] is the one node interface of the round scheduler, this
//! event scheduler and the `rspan-net` live workers.
//!
//! * [`sim`] — the event core: a binary-heap queue over a virtual clock,
//!   with crash/recover, delivery and timer events totally ordered by
//!   `(time, class, seq)`; per-node message and byte accounting; an optional
//!   replay trace.
//! * [`model`] — link models: constant / uniform / heavy-tailed latency,
//!   Bernoulli loss with bounded link-layer retransmission.
//! * [`churn`] — engine-driven topology churn on the same timeline:
//!   [`rspan_engine::RspanEngine`] commits, epoch-stamped §2.3 repair waves,
//!   crash/recovery interleaving, per-round convergence accounting.
//! * [`byz`] — Byzantine fault plans: wire-level injectors (forge /
//!   equivocate / suppress / replay) installed as [`FaultHook`]s on the
//!   network, plus the honest-agreement acceptance check.  Combined with
//!   the [`Adversary`] schedulers in [`model`] this is the crate's
//!   adversarial test harness.
//!
//! ## Determinism
//!
//! Same seed + same config ⇒ identical event trace (property-tested): all
//! tie-breaks are explicit (`(time, class, seq)`), all randomness flows from
//! seeded [`rand::rngs::SmallRng`] streams, and node state machines are
//! deterministic functions of their callback sequence.  With unit latency
//! and zero loss the event schedule *is* the synchronous round schedule:
//! the equivalence is pinned bit-for-bit against [`SyncNetwork::run_protocol`]
//! in `tests/proptest_asim.rs`.
//!
//! [`SyncNetwork::run_protocol`]: rspan_distributed::SyncNetwork::run_protocol
//! [`ProtocolNode`]: rspan_distributed::ProtocolNode

#![warn(missing_docs)]

pub mod byz;
pub mod churn;
pub mod model;
pub mod sim;

pub use byz::{
    honest_agreement, AgreementReport, ByzBehaviour, FaultPlan, RbFaultInjector,
    RepairFaultInjector,
};
pub use churn::{
    run_repair_churn, AsyncChurnConfig, AsyncChurnRun, BoundaryInfo, CommittedRound,
    RepairChurnDriver, RoundReport,
};
pub use model::{Adversary, AsimConfig, LatencyModel, VTime};
pub use rspan_obs::DropCause;
pub use sim::{AsimStats, AsyncNetwork, FaultHook, FaultVerdict, TraceEvent};

use rspan_distributed::{RemSpanNode, TreeAlgo};
use rspan_graph::CsrGraph;

/// Runs the full RemSpan protocol ([`RemSpanNode`]) on the event scheduler
/// until quiescence: the asynchronous counterpart of
/// [`rspan_distributed::run_remspan_protocol`].
///
/// Under loss or latency spread a node's collection deadline can fire before
/// its whole `R`-ball reported, so the computed trees may degrade — that
/// degradation (and its message cost) is what the returned network's states
/// and [`AsimStats`] measure.
pub fn run_remspan_protocol_async(
    graph: &CsrGraph,
    algo: TreeAlgo,
    cfg: AsimConfig,
    max_events: u64,
) -> AsyncNetwork<RemSpanNode> {
    let mut net = AsyncNetwork::from_adjacency(graph, cfg, |_| RemSpanNode::new(algo));
    net.start();
    assert!(
        net.run_to_quiescence(max_events),
        "protocol did not quiesce within {max_events} events"
    );
    net
}
