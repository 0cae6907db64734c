//! Real transport backends for the stabilisation protocol: the
//! [`rspan_distributed::Transport`] / [`rspan_distributed::ProtocolNode`]
//! seam on live OS threads and loopback TCP sockets.
//!
//! Everything else in this workspace drives the protocol under
//! deterministic simulators (`SyncNetwork` rounds, the `rspan-asim` virtual
//! clock).  This crate is the credibility jump to *real* concurrency:
//!
//! * [`worker`] — the in-process multi-threaded backend: one OS thread per
//!   node, an mpsc inbound queue each, a monotonic [`clock::TickClock`]
//!   mapping `Instant` onto the abstract `now()` tick contract, and a
//!   per-node timer wheel driving `on_timer`.
//! * [`tcp`] — the TCP loopback backend: every node binds a listener on
//!   `127.0.0.1`, frames are length-prefixed ([`codec::WireCodec`], byte
//!   layouts exactly matching `WireSize::wire_bytes`), each worker writes
//!   its outbound frames itself on one `TCP_NODELAY` socket per peer with
//!   reconnect-on-error, and inbound frames arrive through an accept loop
//!   plus per-connection framed reader threads.
//! * [`quiesce`] — message-quiescence detection: a process-wide in-flight
//!   counter where every queued command, wire frame and pending timer holds
//!   one token; zero ⟺ the cluster is quiescent, and the release that
//!   reaches zero wakes the waiting harness.
//! * [`cluster`] — [`cluster::NetCluster`]: the loopback churn harness that
//!   replays the same seeded engine commits the simulators use and runs the
//!   §2.3 repair waves to quiescence on either backend, producing an end
//!   state bit-identical to the `rspan-asim` reference for the same seed,
//!   topology and churn (see [`RepairNode::with_monotone`] for why
//!   real-time arrival races do not perturb it).
//!
//! [`RepairNode::with_monotone`]: rspan_distributed::RepairNode::with_monotone

#![warn(missing_docs)]

pub mod clock;
pub mod cluster;
pub mod codec;
pub mod quiesce;
pub mod tcp;
pub mod worker;

pub use clock::TickClock;
pub use cluster::{
    repair_end_state, NetBackend, NetChurnConfig, NetChurnRun, NetCluster, NetRoundReport,
    NodeEndState,
};
pub use codec::WireCodec;
pub use quiesce::InFlight;
pub use tcp::spawn_tcp;
pub use worker::{Cluster, NodeCmd};
