//! The typed session builder: one entry point over the whole pipeline.
//!
//! A [`Session`] owns every piece the workspace's churn pipelines used to
//! wire by hand — the incremental [`RspanEngine`], an optional
//! [`DeltaRouter`], an optional churn scenario, and one of two protocol
//! schedulers — behind a builder that validates the configuration up front
//! and returns [`RspanError`] instead of panicking deep in a layer.
//!
//! Every configuration is pinned **bit-identical** to the hand-wired
//! pipeline it replaces (property-tested): a sync session steps exactly like
//! an engine commit followed by a [`DeltaRouter::apply`], an async session
//! replays [`rspan_asim::run_repair_churn`]'s event timeline, and the
//! initial build equals the [`SpannerAlgo`]'s free constructor.

use crate::algo::SpannerAlgo;
use crate::error::RspanError;
use crate::metrics::{
    AsyncMetrics, ByzMetrics, LocalMetrics, Metrics, RepairTotals, StalenessStats,
};
use rspan_asim::{
    honest_agreement, AsimConfig, AsimStats, AsyncChurnConfig, BoundaryInfo, CommittedRound,
    FaultPlan, RbFaultInjector, RepairChurnDriver, RepairFaultInjector, RoundReport, VTime,
};
use rspan_core::{spanner_stats, SpannerStats, StretchGuarantee};
use rspan_distributed::rb::{RbNode, RbStats, SeededAuth};
use rspan_distributed::{
    CompactRouter, DeltaRouter, LocalConfig, LocalRepairStats, RepairNode, RoutingTables,
    TopologyChange,
};
use rspan_engine::{ChurnScenario, RspanEngine, SpannerDelta};
use rspan_graph::{bfs_into, CsrGraph, Node, Subgraph, TraversalScratch};
use rspan_obs::{ObsConfig, ObsEvent, ObsHandle, ObsReport};
use rspan_telemetry::{Histogram, TelemetryHandle, TelemetrySnapshot};
use std::collections::HashMap;

/// XOR-folded into the simulator seed to derive the [`SeededAuth`] master
/// key, so the MAC keys and the event draws come from decoupled streams.
const AUTH_SEED_XOR: u64 = 0x0A17_5EED_C0DE_B00C;

/// How the session maintains routing state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Repair {
    /// No routing tables: the session maintains the spanner only.
    #[default]
    None,
    /// A [`DeltaRouter`]: next-hop tables repaired incrementally from every
    /// commit's [`SpannerDelta`] (bit-identical to a from-scratch rebuild).
    Delta,
    /// A [`CompactRouter`]: sublinear per-node state — exact ball-local
    /// rows, landmark/tree routing for far targets, and an LRU cache of
    /// on-demand materialised exact rows ([`Session::exact_next_hop`]) —
    /// repaired incrementally from every commit's [`SpannerDelta`].
    Local(LocalConfig),
}

/// Which protocol scheduler drives stabilisation.
#[derive(Clone, Debug, PartialEq)]
pub enum Scheduler {
    /// The synchronous round model: commits apply instantly.
    Sync,
    /// The deterministic discrete-event simulator of `rspan-asim`: commits
    /// land on a virtual timeline and epoch-stamped repair waves propagate
    /// under the configured latency/loss/crash model while later churn
    /// arrives.
    Async(AsimConfig),
}

/// How repair waves are broadcast under the async scheduler.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Broadcast {
    /// The paper's trusting TTL flood: every relayed frame is believed.  A
    /// single Byzantine forger on a relay path corrupts honest agreement.
    #[default]
    Plain,
    /// Authenticated echo-quorum reliable broadcast
    /// ([`rspan_distributed::rb::RbNode`]): payloads are delivered to the
    /// inner protocol only after `2f + 1` witnesses, tolerating up to `f`
    /// Byzantine nodes (requires `n > 3f`).  `f = 0` degenerates exactly to
    /// [`Broadcast::Plain`] — no witness frames go on the wire at all.
    Reliable {
        /// Byzantine nodes the echo quorums must tolerate.
        f: usize,
    },
}

impl Broadcast {
    /// Stable label for metrics/benchmark rows: `plain` or `reliable_f{f}`.
    pub fn label(&self) -> String {
        match self {
            Broadcast::Plain => "plain".into(),
            Broadcast::Reliable { f } => format!("reliable_f{f}"),
        }
    }
}

/// What one [`Session::step`] / [`Session::commit`] did.
#[derive(Clone, Debug)]
pub struct StepReport {
    /// Zero-based index of the round this report describes.
    pub step: usize,
    /// The spanner delta the engine's commit emitted.
    pub delta: SpannerDelta,
    /// The routing repair performed from that delta, when delta routing is
    /// configured.
    pub repair: Option<rspan_distributed::RepairStats>,
    /// The compact-routing repair performed from that delta, when
    /// [`Repair::Local`] is configured.
    pub local_repair: Option<LocalRepairStats>,
    /// The async scheduler's per-round transcript entry (its `quiesced_at`
    /// is filled at the *next* boundary), `None` under the sync scheduler.
    pub round: Option<RoundReport>,
}

/// The async scheduler's driver, one variant per [`Broadcast`] mode: the
/// same churn timeline over plain [`RepairNode`] floods or over
/// [`RbNode`]-wrapped reliable broadcast.
enum AsyncDriver {
    Plain(RepairChurnDriver<RepairNode>),
    Reliable(RepairChurnDriver<RbNode<RepairNode, SeededAuth>>),
}

impl AsyncDriver {
    fn begin_round(&mut self) -> BoundaryInfo {
        match self {
            AsyncDriver::Plain(d) => d.begin_round(),
            AsyncDriver::Reliable(d) => d.begin_round(),
        }
    }

    fn commit_round(
        &mut self,
        engine: &mut RspanEngine,
        scenario: &mut dyn ChurnScenario,
    ) -> CommittedRound {
        match self {
            AsyncDriver::Plain(d) => d.commit_round(engine, scenario),
            AsyncDriver::Reliable(d) => d.commit_round(engine, scenario),
        }
    }

    fn stats(&self) -> &AsimStats {
        match self {
            AsyncDriver::Plain(d) => d.stats(),
            AsyncDriver::Reliable(d) => d.stats(),
        }
    }

    fn rounds(&self) -> &[RoundReport] {
        match self {
            AsyncDriver::Plain(d) => d.rounds(),
            AsyncDriver::Reliable(d) => d.rounds(),
        }
    }

    fn now(&self) -> VTime {
        match self {
            AsyncDriver::Plain(d) => d.now(),
            AsyncDriver::Reliable(d) => d.now(),
        }
    }

    fn dirty_total(&self) -> usize {
        match self {
            AsyncDriver::Plain(d) => d.dirty_total(),
            AsyncDriver::Reliable(d) => d.dirty_total(),
        }
    }

    /// Sums the reliable-broadcast accounting and sweeps honest agreement
    /// over the live nodes' accepted-digest maps.
    fn byz_counters(&self, plan: &FaultPlan) -> (RbStats, usize, usize) {
        match self {
            AsyncDriver::Plain(d) => {
                let (checks, violations) = agreement_over(d.nodes().iter(), plan);
                (RbStats::default(), checks, violations)
            }
            AsyncDriver::Reliable(d) => {
                let mut rb = RbStats::default();
                for node in d.nodes() {
                    rb.absorb(node.stats());
                }
                let (checks, violations) =
                    agreement_over(d.nodes().iter().map(RbNode::inner), plan);
                (rb, checks, violations)
            }
        }
    }
}

/// Sweeps [`honest_agreement`] over both accepted-digest maps (link state
/// and tree adverts) of the repair nodes, skipping the plan's Byzantine
/// set.
fn agreement_over<'a>(
    nodes: impl Iterator<Item = &'a RepairNode>,
    plan: &FaultPlan,
) -> (usize, usize) {
    let nodes: Vec<&RepairNode> = nodes.collect();
    let byz = plan.byzantine_nodes();
    let ls: Vec<&HashMap<(u64, Node), u64>> =
        nodes.iter().map(|n| n.accepted_link_state()).collect();
    let ta: Vec<&HashMap<(u64, Node), u64>> =
        nodes.iter().map(|n| n.accepted_tree_adverts()).collect();
    let a = honest_agreement(&ls, &byz);
    let b = honest_agreement(&ta, &byz);
    (a.checks + b.checks, a.violations + b.violations)
}

struct AsyncState {
    /// `None` once [`Session::finish`] has drained the timeline.
    driver: Option<AsyncDriver>,
    /// The validated configuration the driver was built from (kept here so
    /// the metrics snapshot outlives the driver).
    cfg: AsyncChurnConfig,
    broadcast: Broadcast,
    faults: FaultPlan,
    finished: Option<rspan_asim::AsyncChurnRun>,
    /// The Byzantine section frozen by [`Session::finish`] (the driver and
    /// its nodes are gone afterwards).
    byz_final: Option<ByzMetrics>,
}

impl AsyncState {
    /// Whether the snapshot carries a Byzantine section at all.
    fn byz_section_wanted(&self) -> bool {
        self.broadcast != Broadcast::Plain || self.faults.is_active()
    }

    /// Assembles the Byzantine section from the wrapper/injector counters
    /// and an agreement sweep.
    fn byz_metrics(&self, rb: RbStats, checks: usize, violations: usize) -> ByzMetrics {
        let stats = match (&self.finished, &self.driver) {
            (Some(run), _) => &run.stats,
            (None, Some(driver)) => driver.stats(),
            (None, None) => unreachable!("a session is either live or finished"),
        };
        ByzMetrics {
            broadcast: self.broadcast.label(),
            fault_plan: self.faults.label(),
            byz_nodes: self.faults.byzantine.len(),
            init_sent: rb.init_sent,
            echo_sent: rb.echo_sent,
            ready_sent: rb.ready_sent,
            relayed: rb.relayed,
            rb_delivered: rb.delivered,
            rejected_mac: rb.rejected_mac,
            rejected_stale: rb.rejected_stale,
            suppressed_inner: rb.suppressed_inner,
            byz_suppressed: stats.byz_suppressed,
            byz_rewritten: stats.byz_rewritten,
            agreement_checks: checks,
            agreement_violations: violations,
        }
    }

    /// The Byzantine section: the frozen final snapshot after
    /// [`Session::finish`], a live sweep over the driver's nodes before.
    fn byz_snapshot(&self) -> Option<ByzMetrics> {
        if !self.byz_section_wanted() {
            return None;
        }
        if let Some(byz) = &self.byz_final {
            return Some(byz.clone());
        }
        let driver = self
            .driver
            .as_ref()
            .expect("a session is either live or finished");
        let (rb, checks, violations) = driver.byz_counters(&self.faults);
        Some(self.byz_metrics(rb, checks, violations))
    }

    /// Snapshots the timeline (live driver or finished run) together with
    /// the configuration slice.
    fn snapshot(&self) -> AsyncMetrics {
        let (stats, rounds, final_time, dirty_total, drained) = match (&self.finished, &self.driver)
        {
            (Some(run), _) => (
                run.stats.clone(),
                run.rounds.clone(),
                run.final_time,
                run.dirty_total,
                Some(run.drained),
            ),
            (None, Some(driver)) => (
                driver.stats().clone(),
                driver.rounds().to_vec(),
                driver.now(),
                driver.dirty_total(),
                None,
            ),
            (None, None) => unreachable!("a session is either live or finished"),
        };
        AsyncMetrics {
            stats,
            rounds,
            final_time,
            dirty_total,
            drained,
            churn_interval: self.cfg.churn_interval,
            latency: self.cfg.sim.latency.label(),
            adversary: self.cfg.sim.adversary.label(),
            loss: self.cfg.sim.loss,
            max_retries: self.cfg.sim.max_retries,
            crash_prob: self.cfg.crash_prob,
        }
    }
}

enum Mode {
    Sync,
    Async(Box<AsyncState>),
}

/// The session's owned routing state, one variant per [`Repair`] mode.
enum RouterState {
    None,
    Delta(Box<DeltaRouter>),
    Local(Box<CompactRouter>),
}

impl RouterState {
    fn delta(&self) -> Option<&DeltaRouter> {
        match self {
            RouterState::Delta(router) => Some(router),
            _ => None,
        }
    }
}

/// Running totals of [`LocalRepairStats`] across the session's commits.
#[derive(Clone, Debug, Default)]
struct LocalTotals {
    ball_rows: usize,
    trees_rebuilt: usize,
    cache_invalidated: usize,
}

/// Percentiles over the recorded stretch samples (ratio × 1000 fixed
/// point), via the shared exact [`Histogram`] (nearest-rank, the same
/// estimator every other percentile in the workspace uses); `NaN` triple
/// when nothing was sampled.
fn stretch_quantiles(millis: &[u64]) -> (f64, f64, f64) {
    if millis.is_empty() {
        return (f64::NAN, f64::NAN, f64::NAN);
    }
    let mut hist = Histogram::default();
    for &v in millis {
        hist.push(v);
    }
    let s = hist.summary();
    (
        s.p50 as f64 / 1000.0,
        s.p99 as f64 / 1000.0,
        s.max as f64 / 1000.0,
    )
}

struct StalenessState {
    /// Router tables as of the last quiescent churn boundary — what
    /// converged distributed nodes still hold.
    snapshot: RoutingTables,
    stats: StalenessStats,
    /// Per-row open staleness episode: the boundary time the row was first
    /// observed stale, `None` while the row agrees with the snapshot.
    /// Maintained only when an observability recorder is attached — episode
    /// durations live in the [`ObsReport`], never in [`Metrics`], so
    /// observing cannot perturb the scalar staleness counters.
    stale_since: Vec<Option<VTime>>,
}

/// Builder for a [`Session`]; see [`Session::builder`].
///
/// Defaults: [`SpannerAlgo::Exact`], no churn scenario, [`Repair::None`],
/// [`Scheduler::Sync`], sequential commits, no staleness measurement.
pub struct SessionBuilder {
    graph: CsrGraph,
    algo: SpannerAlgo,
    churn: Option<Box<dyn ChurnScenario>>,
    routing: Repair,
    scheduler: Scheduler,
    threads: usize,
    measure_staleness: bool,
    churn_interval: VTime,
    crash_prob: f64,
    downtime: VTime,
    max_events: u64,
    broadcast: Broadcast,
    faults: FaultPlan,
    observe: Option<ObsConfig>,
    telemetry: TelemetryHandle,
    /// Async-only setters the caller invoked, so `build()` can reject them
    /// under the sync scheduler instead of silently ignoring them.
    async_only_set: Vec<&'static str>,
    /// Whether `threads(..)` was invoked (sync-only; rejected under async).
    threads_set: bool,
}

impl SessionBuilder {
    /// The spanner construction to build and maintain.  Must be one of the
    /// incremental (tree-backed) variants; the whole-graph baselines build
    /// once via [`SpannerAlgo::build`] and cannot ride an engine.
    pub fn algo(mut self, algo: SpannerAlgo) -> Self {
        self.algo = algo;
        self
    }

    /// Gives the session a churn scenario to draw per-round batches from
    /// ([`Session::step`]).  Without one, drive batches explicitly through
    /// [`Session::commit`].
    pub fn churn(mut self, scenario: impl ChurnScenario + 'static) -> Self {
        self.churn = Some(Box::new(scenario));
        self
    }

    /// Like [`SessionBuilder::churn`] for an already-boxed scenario.
    pub fn churn_boxed(mut self, scenario: Box<dyn ChurnScenario>) -> Self {
        self.churn = Some(scenario);
        self
    }

    /// Routing-table maintenance policy.
    pub fn routing(mut self, routing: Repair) -> Self {
        self.routing = routing;
        self
    }

    /// Stabilisation scheduler.
    pub fn scheduler(mut self, scheduler: Scheduler) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Worker threads for the sync scheduler's dirty-tree rebuilds
    /// (0 = available parallelism).  Sync scheduler only: the async
    /// scheduler always commits sequentially, matching
    /// [`rspan_asim::run_repair_churn`], so `build()` rejects this under
    /// [`Scheduler::Async`] instead of silently ignoring it.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self.threads_set = true;
        self
    }

    /// Records the routing-table staleness counter: at every churn boundary
    /// where the previous repair wave is still in flight, counts the rows on
    /// which the live [`DeltaRouter`] disagrees with the tables as of the
    /// last quiescent boundary.  Requires [`Repair::Delta`] and the async
    /// scheduler.
    pub fn measure_staleness(mut self, measure: bool) -> Self {
        self.measure_staleness = measure;
        self
    }

    /// Virtual ticks between scenario commits under the async scheduler.
    pub fn churn_interval(mut self, ticks: VTime) -> Self {
        self.churn_interval = ticks;
        self.async_only_set.push("churn_interval(..)");
        self
    }

    /// Probability that an async churn boundary also crashes one random
    /// node, and the ticks it stays down.
    pub fn crash(mut self, prob: f64, downtime: VTime) -> Self {
        self.crash_prob = prob;
        self.downtime = downtime;
        self.async_only_set.push("crash(..)");
        self
    }

    /// Safety cutoff on processed events for the async final drain.
    pub fn max_events(mut self, max_events: u64) -> Self {
        self.max_events = max_events;
        self.async_only_set.push("max_events(..)");
        self
    }

    /// How repair waves are broadcast: the paper's trusting TTL flood
    /// ([`Broadcast::Plain`], the default) or authenticated echo-quorum
    /// reliable broadcast ([`Broadcast::Reliable`]).  Async scheduler only —
    /// the sync round model has no wire to defend.
    pub fn broadcast(mut self, broadcast: Broadcast) -> Self {
        self.broadcast = broadcast;
        self.async_only_set.push("broadcast(..)");
        self
    }

    /// Attaches the deterministic observability recorder ([`ObsConfig`]):
    /// engine commit records, router repair attribution, per-frame
    /// deliver/drop events with wave-level causality, RB quorum progress
    /// and per-row staleness episodes all flow into one [`ObsReport`],
    /// retrieved via [`Session::finish_observed`].  Works under both
    /// schedulers; recorder-off sessions are bit-identical to unobserved
    /// ones (property-tested), and the same seed + config yields a
    /// byte-identical JSONL export.
    pub fn observe(mut self, cfg: ObsConfig) -> Self {
        self.observe = Some(cfg);
        self
    }

    /// Attaches a live telemetry handle
    /// ([`rspan_telemetry::TelemetryHandle::enabled`]): every layer the
    /// session drives gets a clone — engine commit phases, router repair
    /// spans and counters, the async simulator's event loop and RB quorum
    /// progress all land in the shared lock-free registry, folded on demand
    /// through [`Session::telemetry`].  Telemetry measures wall-clock
    /// reality and never feeds [`Metrics`] or the obs event log: a session
    /// with telemetry enabled is bit-identical to one without
    /// (property-tested).  The default (off) handle costs one branch per
    /// site.
    pub fn telemetry(mut self, tel: TelemetryHandle) -> Self {
        self.telemetry = tel;
        self
    }

    /// Marks nodes Byzantine for the run ([`FaultPlan`]): their
    /// transmissions are forged, equivocated, suppressed or replayed at the
    /// wire, under both broadcast modes.  `build()` validates the plan
    /// ([`FaultPlan::check`]) into [`RspanError::InvalidFaults`] instead of
    /// panicking.  Async scheduler only.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self.async_only_set.push("faults(..)");
        self
    }

    /// Validates the whole configuration and assembles the session: one full
    /// spanner build (plus one full table build under [`Repair::Delta`]);
    /// everything after is incremental.
    pub fn build(self) -> Result<Session, RspanError> {
        self.algo.check()?;
        let Some(tree_algo) = self.algo.tree_algo() else {
            return Err(RspanError::AlgoNotIncremental {
                algo: self.algo.label(),
            });
        };
        let guarantee = self
            .algo
            .guarantee()
            .expect("incremental constructions always know their guarantee");

        let async_cfg = match &self.scheduler {
            Scheduler::Sync => {
                if self.measure_staleness {
                    return Err(RspanError::IncompatibleOptions {
                        reason: "staleness measurement needs the async scheduler \
                                 (synchronous tables are never stale)"
                            .into(),
                    });
                }
                if !self.async_only_set.is_empty() {
                    return Err(RspanError::IncompatibleOptions {
                        reason: format!(
                            "{} configured, but the scheduler is Sync — these options \
                             only drive the async event timeline \
                             (Scheduler::Async(AsimConfig))",
                            self.async_only_set.join(", ")
                        ),
                    });
                }
                None
            }
            Scheduler::Async(sim) => {
                if self.churn.is_none() {
                    return Err(RspanError::MissingChurn {
                        feature: "the async scheduler",
                    });
                }
                if self.threads_set {
                    return Err(RspanError::IncompatibleOptions {
                        reason: "threads(..) configured, but the async scheduler always \
                                 commits sequentially (matching run_repair_churn's \
                                 event timeline)"
                            .into(),
                    });
                }
                if self.measure_staleness && self.routing != Repair::Delta {
                    return Err(RspanError::IncompatibleOptions {
                        reason: "staleness measurement compares DeltaRouter tables; \
                                 configure routing(Repair::Delta)"
                            .into(),
                    });
                }
                sim.check()
                    .map_err(|reason| RspanError::InvalidSim { reason })?;
                let n = self.graph.n();
                self.faults
                    .check(n)
                    .map_err(|reason| RspanError::InvalidFaults { reason })?;
                if let Broadcast::Reliable { f } = self.broadcast {
                    if f > 0 && n <= 3 * f {
                        return Err(RspanError::InvalidFaults {
                            reason: format!("echo quorums need n > 3f (n = {n}, f = {f})"),
                        });
                    }
                    if self.faults.byzantine.len() > f {
                        return Err(RspanError::InvalidFaults {
                            reason: format!(
                                "{} nodes marked Byzantine but Broadcast::Reliable only \
                                 tolerates f = {f}",
                                self.faults.byzantine.len()
                            ),
                        });
                    }
                }
                let cfg = AsyncChurnConfig {
                    sim: sim.clone(),
                    churn_interval: self.churn_interval,
                    rounds: 0, // the session decides how many rounds to drive
                    crash_prob: self.crash_prob,
                    downtime: self.downtime,
                    max_events: self.max_events,
                };
                cfg.check()
                    .map_err(|reason| RspanError::InvalidChurn { reason })?;
                Some(cfg)
            }
        };

        let obs = match self.observe {
            Some(obs_cfg) => ObsHandle::mem(obs_cfg),
            None => ObsHandle::off(),
        };
        let tel = self.telemetry;
        let mut engine = RspanEngine::new(self.graph, tree_algo);
        engine.set_telemetry(tel.clone());
        engine.set_obs(obs.clone());
        let router = match self.routing {
            Repair::None => RouterState::None,
            Repair::Delta => {
                let mut router = Box::new(DeltaRouter::new(&engine));
                router.set_telemetry(tel.clone());
                router.set_obs(obs.clone());
                RouterState::Delta(router)
            }
            Repair::Local(cfg) => {
                let mut router = Box::new(CompactRouter::new(&engine, cfg));
                router.set_telemetry(tel.clone());
                router.set_obs(obs.clone());
                RouterState::Local(router)
            }
        };
        let mode = match async_cfg {
            None => Mode::Sync,
            Some(cfg) => {
                let driver = match self.broadcast {
                    Broadcast::Plain => {
                        let mut driver = RepairChurnDriver::new(&engine, cfg.clone());
                        if self.faults.is_active() {
                            driver.set_fault_hook(Box::new(RepairFaultInjector::new(
                                self.faults.clone(),
                            )));
                        }
                        driver.set_obs(obs.clone());
                        driver.set_telemetry(tel.clone());
                        AsyncDriver::Plain(driver)
                    }
                    Broadcast::Reliable { f } => {
                        let radius = engine.dirty_radius();
                        let n = engine.graph().n();
                        // f = 0: plain-flood reach, bit-identical to Plain.
                        // f > 0: witness frames must span the network for
                        // quorums to fill, so the relay TTL covers it all.
                        let ttl = if f == 0 { radius.max(1) } else { n as u32 };
                        let auth = SeededAuth::new(cfg.sim.seed ^ AUTH_SEED_XOR);
                        let node_auth = auth.clone();
                        let node_obs = obs.clone();
                        let node_tel = tel.clone();
                        let mut driver =
                            RepairChurnDriver::with_nodes(&engine, cfg.clone(), |_| {
                                let mut node = RbNode::new(
                                    RepairNode::new(radius),
                                    node_auth.clone(),
                                    f,
                                    n,
                                    ttl,
                                );
                                node.set_obs(node_obs.clone());
                                node.set_telemetry(node_tel.clone());
                                node
                            });
                        if self.faults.is_active() {
                            driver.set_fault_hook(Box::new(RbFaultInjector::new(
                                self.faults.clone(),
                                auth,
                            )));
                        }
                        driver.set_obs(obs.clone());
                        driver.set_telemetry(tel.clone());
                        AsyncDriver::Reliable(driver)
                    }
                };
                let state = AsyncState {
                    driver: Some(driver),
                    cfg,
                    broadcast: self.broadcast,
                    faults: self.faults,
                    finished: None,
                    byz_final: None,
                };
                Mode::Async(Box::new(state))
            }
        };
        let staleness = if self.measure_staleness {
            let RouterState::Delta(delta_router) = &router else {
                unreachable!("validated above: staleness requires Repair::Delta")
            };
            Some(StalenessState {
                snapshot: delta_router.tables().clone(),
                stats: StalenessStats::default(),
                stale_since: vec![None; engine.graph().n()],
            })
        } else {
            None
        };
        Ok(Session {
            obs,
            tel,
            algo_label: self.algo.label(),
            algo: self.algo,
            guarantee,
            initial_n: engine.graph().n(),
            initial_m: engine.graph().m(),
            engine,
            router,
            scenario: self.churn,
            threads: self.threads,
            mode,
            staleness,
            rounds: 0,
            batch_changes: 0,
            dirty_total: 0,
            spanner_flips: 0,
            repair_totals: match self.routing {
                Repair::Delta => Some(RepairTotals::default()),
                _ => None,
            },
            local_totals: matches!(self.routing, Repair::Local(_)).then(LocalTotals::default),
            stretch_millis: Vec::new(),
        })
    }
}

/// One handle over the whole **build → churn → commit → repair →
/// stabilise** pipeline; construct with [`Session::builder`].
///
/// Drive it with [`Session::step`] (scenario-drawn rounds) or
/// [`Session::commit`] (explicit batches, sync scheduler only), snapshot
/// uniform [`Metrics`] at any point, and [`Session::finish`] to drain the
/// async timeline and take the final snapshot.
pub struct Session {
    algo: SpannerAlgo,
    algo_label: String,
    guarantee: StretchGuarantee,
    /// Nodes/edges of the *initial* topology: the workload-instance
    /// identity benchmark rows key on, stable under churn.
    initial_n: usize,
    initial_m: usize,
    engine: RspanEngine,
    router: RouterState,
    scenario: Option<Box<dyn ChurnScenario>>,
    threads: usize,
    mode: Mode,
    /// Observability sink (off unless [`SessionBuilder::observe`] was
    /// configured); every layer the session drives holds a clone.
    obs: ObsHandle,
    /// Live telemetry registry (off unless [`SessionBuilder::telemetry`]
    /// was configured); every layer the session drives holds a clone.
    tel: TelemetryHandle,
    staleness: Option<StalenessState>,
    rounds: usize,
    batch_changes: usize,
    dirty_total: usize,
    spanner_flips: usize,
    repair_totals: Option<RepairTotals>,
    local_totals: Option<LocalTotals>,
    /// Measured compact-forwarding stretch samples, as ratio × 1000 fixed
    /// point ([`Session::sample_local_stretch`]).
    stretch_millis: Vec<u64>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("algo", &self.algo_label)
            .field("n", &self.engine.graph().n())
            .field("m", &self.engine.graph().m())
            .field("epoch", &self.engine.epoch())
            .field("rounds", &self.rounds)
            .field(
                "routing",
                &match self.router {
                    RouterState::None => "none",
                    RouterState::Delta(_) => "delta",
                    RouterState::Local(_) => "local",
                },
            )
            .field(
                "scheduler",
                &match self.mode {
                    Mode::Sync => "sync",
                    Mode::Async(_) => "async",
                },
            )
            .finish_non_exhaustive()
    }
}

impl Session {
    /// Starts a builder over the initial topology.
    pub fn builder(graph: CsrGraph) -> SessionBuilder {
        let defaults = AsyncChurnConfig::default();
        SessionBuilder {
            graph,
            algo: SpannerAlgo::Exact,
            churn: None,
            routing: Repair::None,
            scheduler: Scheduler::Sync,
            threads: 1,
            measure_staleness: false,
            churn_interval: defaults.churn_interval,
            crash_prob: defaults.crash_prob,
            downtime: defaults.downtime,
            max_events: defaults.max_events,
            broadcast: Broadcast::Plain,
            faults: FaultPlan::none(),
            observe: None,
            telemetry: TelemetryHandle::off(),
            async_only_set: Vec::new(),
            threads_set: false,
        }
    }

    /// Drives one churn round drawn from the owned scenario: under the sync
    /// scheduler a batch → commit → repair step (exactly an engine commit
    /// followed by a [`DeltaRouter::apply`]), under the async scheduler one
    /// churn boundary on the event timeline (exactly a
    /// [`rspan_asim::run_repair_churn`] round).
    pub fn step(&mut self) -> Result<StepReport, RspanError> {
        if self.scenario.is_none() {
            return Err(RspanError::MissingChurn { feature: "step()" });
        }
        match &self.mode {
            Mode::Sync => {
                let batch = {
                    let scenario = self.scenario.as_mut().expect("checked above");
                    scenario.next_batch(self.engine.graph())
                };
                Ok(self.commit_sync(&batch))
            }
            Mode::Async(_) => self.step_async(),
        }
    }

    /// Commits an explicit batch under the sync scheduler (the form the
    /// benchmark harnesses use so they can draw batches outside the timed
    /// region).  Errors under the async scheduler, which owns its timeline.
    pub fn commit(&mut self, batch: &[TopologyChange]) -> Result<StepReport, RspanError> {
        match &self.mode {
            Mode::Sync => Ok(self.commit_sync(batch)),
            Mode::Async(_) => Err(RspanError::Unsupported {
                reason: "the async scheduler owns the event timeline; drive it with step()".into(),
            }),
        }
    }

    fn commit_sync(&mut self, batch: &[TopologyChange]) -> StepReport {
        // Under the sync scheduler the round index is the virtual clock.
        if self.obs.on() {
            self.obs.set_now(self.rounds as VTime);
        }
        let delta = self.engine.commit_parallel(batch, self.threads);
        let (repair, local_repair) = match &mut self.router {
            RouterState::None => (None, None),
            RouterState::Delta(router) => (Some(router.apply(&self.engine, batch, &delta)), None),
            RouterState::Local(router) => (None, Some(router.apply(&self.engine, batch, &delta))),
        };
        self.absorb(batch.len(), &delta, repair.as_ref(), local_repair.as_ref());
        StepReport {
            step: self.rounds - 1,
            delta,
            repair,
            local_repair,
            round: None,
        }
    }

    fn step_async(&mut self) -> Result<StepReport, RspanError> {
        let Session {
            mode,
            engine,
            router,
            scenario,
            staleness,
            obs,
            ..
        } = self;
        let Mode::Async(state) = mode else {
            unreachable!("step_async called on a sync session");
        };
        let Some(driver) = state.driver.as_mut() else {
            return Err(RspanError::Unsupported {
                reason: "the session is finished; the event timeline is drained".into(),
            });
        };
        let boundary = driver.begin_round();
        // Staleness is observable exactly here: the previous window has been
        // drained, nothing new is committed yet.
        if let Some(st) = staleness {
            let RouterState::Delta(delta_router) = &*router else {
                unreachable!("staleness requires Repair::Delta (validated at build)")
            };
            let tables = delta_router.tables();
            match boundary.prev_quiesced {
                None => {}
                Some(true) => {
                    // The wave drained: distributed state caught up with the
                    // router.  Close every open staleness episode, then
                    // re-snapshot.
                    st.stats.checks += 1;
                    if obs.on() {
                        for (row, since) in st.stale_since.iter_mut().enumerate() {
                            if let Some(s) = since.take() {
                                obs.emit_at(
                                    boundary.at,
                                    ObsEvent::StaleRow {
                                        row: row as Node,
                                        since: s,
                                        ticks: boundary.at - s,
                                        censored: false,
                                    },
                                );
                            }
                        }
                    }
                    st.snapshot.clone_from(tables);
                }
                Some(false) => {
                    st.stats.checks += 1;
                    st.stats.inflight_checks += 1;
                    let stale = st.snapshot.rows_differing(tables);
                    st.stats.stale_rows_total += stale;
                    st.stats.stale_rows_max = st.stats.stale_rows_max.max(stale);
                    // Per-row episodes (recorder only; the scalar counters
                    // above are identical with or without a recorder): a row
                    // opens when first seen stale, closes when it stops
                    // differing at a later boundary.
                    if obs.on() {
                        for row in 0..st.stale_since.len() {
                            let differs = st.snapshot.row_differs(tables, row);
                            let since = &mut st.stale_since[row];
                            match (differs, since.is_some()) {
                                (true, false) => *since = Some(boundary.at),
                                (false, true) => {
                                    let s = since.take().expect("checked is_some");
                                    obs.emit_at(
                                        boundary.at,
                                        ObsEvent::StaleRow {
                                            row: row as Node,
                                            since: s,
                                            ticks: boundary.at - s,
                                            censored: false,
                                        },
                                    );
                                }
                                _ => {}
                            }
                        }
                    }
                }
            }
        }
        let committed = driver.commit_round(
            engine,
            scenario
                .as_mut()
                .expect("step() checked the scenario exists")
                .as_mut(),
        );
        let (repair, local_repair) = match router {
            RouterState::None => (None, None),
            RouterState::Delta(r) => (
                Some(r.apply(engine, &committed.batch, &committed.delta)),
                None,
            ),
            RouterState::Local(r) => (
                None,
                Some(r.apply(engine, &committed.batch, &committed.delta)),
            ),
        };
        self.absorb(
            committed.batch.len(),
            &committed.delta,
            repair.as_ref(),
            local_repair.as_ref(),
        );
        Ok(StepReport {
            step: self.rounds - 1,
            delta: committed.delta,
            repair,
            local_repair,
            round: Some(committed.report),
        })
    }

    fn absorb(
        &mut self,
        batch_len: usize,
        delta: &SpannerDelta,
        repair: Option<&rspan_distributed::RepairStats>,
        local_repair: Option<&LocalRepairStats>,
    ) {
        self.rounds += 1;
        self.batch_changes += batch_len;
        self.dirty_total += delta.recomputed.len();
        self.spanner_flips += delta.added.len() + delta.removed.len();
        if let (Some(totals), Some(stats)) = (&mut self.repair_totals, repair) {
            totals.rows_recomputed += stats.rows_recomputed;
            totals.repairs += 1;
        }
        if let (Some(totals), Some(stats)) = (&mut self.local_totals, local_repair) {
            totals.ball_rows += stats.ball_rows;
            totals.trees_rebuilt += stats.landmark_trees;
            totals.cache_invalidated += stats.cache_invalidated;
        }
    }

    /// Drives `rounds` steps and returns the resulting snapshot.
    pub fn run(&mut self, rounds: usize) -> Result<Metrics, RspanError> {
        for _ in 0..rounds {
            self.step()?;
        }
        Ok(self.metrics())
    }

    /// Applies the final-window rule to the async timeline (the last round
    /// is held to the same convergence window as every other), drains the
    /// remaining events, performs the final staleness check, and returns the
    /// final snapshot.  A sync session just snapshots.
    pub fn finish(self) -> Metrics {
        self.finish_observed().0
    }

    /// Like [`Session::finish`], additionally handing back the
    /// [`ObsReport`] when [`SessionBuilder::observe`] was configured:
    /// aggregated histograms (per-wave deliveries/bytes, frame latencies,
    /// staleness-episode durations), drop attribution, and the
    /// deterministic JSONL event log ([`ObsReport::to_jsonl`]).
    pub fn finish_observed(mut self) -> (Metrics, Option<ObsReport>) {
        self.drain();
        let metrics = self.metrics();
        let report = self.obs.take_report();
        (metrics, report)
    }

    /// The shared body of [`Session::finish`] / [`Session::finish_observed`].
    fn drain(&mut self) {
        if let Mode::Async(state) = &mut self.mode {
            if let Some(driver) = state.driver.take() {
                let byz_wanted = state.byz_section_wanted();
                let (run, byz_parts) = match driver {
                    AsyncDriver::Plain(d) => {
                        let (run, nodes) = d.finish_with_nodes();
                        let parts = byz_wanted.then(|| {
                            let (checks, violations) = agreement_over(nodes.iter(), &state.faults);
                            (RbStats::default(), checks, violations)
                        });
                        (run, parts)
                    }
                    AsyncDriver::Reliable(d) => {
                        let (run, nodes) = d.finish_with_nodes();
                        let parts = byz_wanted.then(|| {
                            let mut rb = RbStats::default();
                            for node in &nodes {
                                rb.absorb(node.stats());
                            }
                            let (checks, violations) =
                                agreement_over(nodes.iter().map(RbNode::inner), &state.faults);
                            (rb, checks, violations)
                        });
                        (run, parts)
                    }
                };
                if let (Some(st), RouterState::Delta(router)) = (&mut self.staleness, &self.router)
                {
                    let still_inflight = run
                        .rounds
                        .last()
                        .is_some_and(|last| last.quiesced_at.is_none());
                    if let Some(last) = run.rounds.last() {
                        st.stats.checks += 1;
                        if last.quiesced_at.is_none() {
                            st.stats.inflight_checks += 1;
                            let stale = st.snapshot.rows_differing(router.tables());
                            st.stats.stale_rows_total += stale;
                            st.stats.stale_rows_max = st.stats.stale_rows_max.max(stale);
                        }
                    }
                    // Close every still-open staleness episode at the end of
                    // the timeline: an episode whose row still differs while
                    // the final wave never drained is right-censored (the
                    // repair was never observed landing).
                    if self.obs.on() {
                        let tables = router.tables();
                        for (row, since) in st.stale_since.iter_mut().enumerate() {
                            if let Some(s) = since.take() {
                                let censored =
                                    still_inflight && st.snapshot.row_differs(tables, row);
                                self.obs.emit_at(
                                    run.final_time,
                                    ObsEvent::StaleRow {
                                        row: row as Node,
                                        since: s,
                                        ticks: run.final_time.saturating_sub(s),
                                        censored,
                                    },
                                );
                            }
                        }
                    }
                }
                state.finished = Some(run);
                state.byz_final = byz_parts
                    .map(|(rb, checks, violations)| state.byz_metrics(rb, checks, violations));
            }
        }
    }

    /// The uniform snapshot of everything the session has done so far.
    pub fn metrics(&self) -> Metrics {
        let (asim, byz) = match &self.mode {
            Mode::Sync => (None, None),
            Mode::Async(state) => (Some(state.snapshot()), state.byz_snapshot()),
        };
        let local = match (&self.router, &self.local_totals) {
            (RouterState::Local(router), Some(totals)) => {
                let n = router.n().max(1) as f64;
                let cache = router.cache_stats();
                let (stretch_p50, stretch_p99, stretch_max) =
                    stretch_quantiles(&self.stretch_millis);
                Some(LocalMetrics {
                    landmarks: router.landmarks().len(),
                    ball_radius: router.radius(),
                    state_bytes: router.state_bytes(),
                    state_bytes_per_node: router.state_bytes() as f64 / n,
                    ball_entries_mean: router.ball_entries() as f64 / n,
                    cache_hits: cache.hits,
                    cache_misses: cache.misses,
                    cache_evictions: cache.evictions,
                    rows_materialized: cache.materialized,
                    ball_rows_repaired: totals.ball_rows,
                    landmark_trees_rebuilt: totals.trees_rebuilt,
                    cache_invalidated: totals.cache_invalidated,
                    stretch_samples: self.stretch_millis.len(),
                    stretch_p50,
                    stretch_p99,
                    stretch_max,
                })
            }
            _ => None,
        };
        Metrics {
            algo: self.algo_label.clone(),
            guarantee: self.guarantee,
            scenario: self.scenario.as_ref().map(|s| s.label().to_string()),
            n: self.initial_n,
            m: self.initial_m,
            epoch: self.engine.epoch(),
            spanner_edges: self.engine.spanner_len(),
            rounds: self.rounds,
            batch_changes: self.batch_changes,
            dirty_total: self.dirty_total,
            spanner_flips: self.spanner_flips,
            repair: self.repair_totals.clone(),
            local,
            asim,
            staleness: self.staleness.as_ref().map(|s| s.stats.clone()),
            byz,
        }
    }

    /// Folds the live telemetry registry into a consistent
    /// [`TelemetrySnapshot`] — `None` unless [`SessionBuilder::telemetry`]
    /// installed an enabled handle.  Deliberately *not* part of
    /// [`Session::metrics`]: telemetry measures wall-clock reality, and the
    /// [`Metrics`] snapshot stays bit-identical with it on or off.
    pub fn telemetry(&self) -> Option<TelemetrySnapshot> {
        self.tel.snapshot()
    }

    /// The spanner algorithm this session maintains.
    pub fn algo(&self) -> &SpannerAlgo {
        &self.algo
    }

    /// The construction's proved stretch guarantee.
    pub fn guarantee(&self) -> StretchGuarantee {
        self.guarantee
    }

    /// The owned engine (topology + spanner state).
    pub fn engine(&self) -> &RspanEngine {
        &self.engine
    }

    /// The owned router, when [`Repair::Delta`] is configured.
    pub fn router(&self) -> Option<&DeltaRouter> {
        self.router.delta()
    }

    /// The maintained next-hop tables, when [`Repair::Delta`] is configured.
    pub fn tables(&self) -> Option<&RoutingTables> {
        self.router.delta().map(DeltaRouter::tables)
    }

    /// The owned compact router, when [`Repair::Local`] is configured.
    pub fn local_router(&self) -> Option<&CompactRouter> {
        match &self.router {
            RouterState::Local(router) => Some(router),
            _ => None,
        }
    }

    /// Exact canonical next hop from `u` towards `v` through the compact
    /// router's LRU row cache (materialising the full row on a miss).
    /// `None` when [`Repair::Local`] is not configured, `u == v`, or `v` is
    /// unreachable from `u`.
    pub fn exact_next_hop(&mut self, u: Node, v: Node) -> Option<Node> {
        let RouterState::Local(router) = &mut self.router else {
            return None;
        };
        router.exact_next_hop(&self.engine, u, v)
    }

    /// Samples the measured stretch of compact forwarding against true graph
    /// distances: up to `samples` distinct connected pairs are drawn from a
    /// deterministic SplitMix64 stream seeded with `seed`, each is routed
    /// with [`CompactRouter::forward`], and `hops / d_G(s, t)` lands in the
    /// snapshot's `stretch_p50`/`stretch_p99`/`stretch_max`
    /// ([`LocalMetrics`]).  Returns the number of pairs recorded; `0`
    /// (recording nothing) unless [`Repair::Local`] is configured.
    pub fn sample_local_stretch(&mut self, samples: usize, seed: u64) -> usize {
        let RouterState::Local(router) = &self.router else {
            return 0;
        };
        let n = self.engine.graph().n();
        if n < 2 || samples == 0 {
            return 0;
        }
        let mut scratch = TraversalScratch::with_capacity(n);
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut taken = 0;
        // Rejection sampling over (s, t): bound the draw count so a heavily
        // disconnected topology terminates instead of spinning.
        let mut attempts = samples.saturating_mul(20);
        while taken < samples && attempts > 0 {
            attempts -= 1;
            let s = (next() % n as u64) as Node;
            let t = (next() % n as u64) as Node;
            if s == t {
                continue;
            }
            let Some(path) = router.forward(s, t) else {
                continue;
            };
            bfs_into(self.engine.graph(), s, u32::MAX, &mut scratch);
            let Some(d) = scratch.dist(t) else {
                continue;
            };
            let hops = (path.len() - 1) as u64;
            self.stretch_millis.push((hops * 1000).div_ceil(d as u64));
            taken += 1;
        }
        taken
    }

    /// Materialises the current topology as a CSR snapshot.
    pub fn to_csr(&self) -> CsrGraph {
        self.engine.to_csr()
    }

    /// The current spanner as a sub-graph of `host` (a CSR snapshot of the
    /// current topology, e.g. from [`Session::to_csr`]).
    pub fn spanner_on<'g>(&self, host: &'g CsrGraph) -> Subgraph<'g> {
        self.engine.spanner_on(host)
    }

    /// Size/degree statistics of the current spanner.
    pub fn spanner_stats(&self) -> SpannerStats {
        let csr = self.to_csr();
        spanner_stats(&self.engine.spanner_on(&csr))
    }
}
