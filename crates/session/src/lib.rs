//! # rspan-session — one typed builder API over the whole pipeline
//!
//! The workspace grew four loosely coupled layers — spanner construction
//! (`rspan-core`), incremental maintenance (`rspan-engine`), routing repair
//! (`rspan-distributed`) and two protocol schedulers (`rspan-distributed` /
//! `rspan-asim`) — and every caller re-wired the engine → router → scheduler
//! glue by hand, with positional-argument constructors and panics on bad
//! input.  This crate is the single, hard-to-misuse entry point:
//!
//! * [`SpannerAlgo`] names every construction (the paper's Theorems 1–3,
//!   their ablations, and the classical baselines) behind one
//!   [`SpannerAlgo::build`] returning the spanner with its
//!   [`StretchGuarantee`](rspan_core::StretchGuarantee);
//! * [`Session::builder`] assembles a churn pipeline — algorithm, scenario,
//!   routing policy, scheduler — validating everything up front into a
//!   structured [`RspanError`] instead of panicking in an inner layer;
//! * [`Session`] owns the engine, router and protocol driver, exposes
//!   [`Session::step`] / [`Session::run`], and snapshots one uniform
//!   [`Metrics`] shape across every configuration (spanner stats, repair
//!   stats, asim message/byte accounting, and the async routing-table
//!   staleness counter).
//!
//! Every configuration is property-tested **bit-identical** to the
//! hand-wired pipeline it replaces: the algorithms against their free
//! constructors, sync sessions against an engine and a
//! [`DeltaRouter`](rspan_distributed::DeltaRouter) stepped by hand, async
//! sessions against [`rspan_asim::run_repair_churn`].
//!
//! ## Quick start
//!
//! ```
//! use rspan_session::{Repair, Scheduler, Session, SpannerAlgo};
//! use rspan_engine::LinkFlapScenario;
//! use rspan_graph::generators::udg_with_density;
//!
//! let instance = udg_with_density(120, 10.0, 42);
//! let scenario = LinkFlapScenario::new(&instance.graph, 2.0, 7);
//!
//! let mut session = Session::builder(instance.graph)
//!     .algo(SpannerAlgo::KConnecting { k: 2 })
//!     .churn(scenario)
//!     .routing(Repair::Delta)
//!     .scheduler(Scheduler::Sync)
//!     .build()
//!     .expect("valid configuration");
//!
//! for _ in 0..5 {
//!     let report = session.step().expect("scenario is configured");
//!     assert_eq!(report.repair.is_some(), true); // tables repaired in step
//! }
//! let metrics = session.finish();
//! assert_eq!(metrics.rounds, 5);
//! println!("{}", metrics.to_json());
//! ```

#![warn(missing_docs)]

mod algo;
mod error;
mod metrics;
mod net_runner;
mod session;

pub use algo::SpannerAlgo;
pub use error::RspanError;
pub use metrics::{AsyncMetrics, ByzMetrics, LocalMetrics, Metrics, RepairTotals, StalenessStats};
pub use net_runner::{NetRunReport, NetRunner};
pub use rspan_distributed::{CompactRouter, LocalConfig, LocalRepairStats};
pub use rspan_obs::{ObsConfig, ObsReport};
pub use rspan_telemetry::{TelemetryHandle, TelemetrySnapshot};
pub use session::{Broadcast, Repair, Scheduler, Session, SessionBuilder, StepReport};
