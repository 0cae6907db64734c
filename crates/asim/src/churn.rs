//! Churn on the event timeline: engine commits, stabilisation floods and
//! crash/recover interleaved on one virtual clock.
//!
//! Every `churn_interval` ticks one scenario batch ([`ChurnScenario`]) is
//! committed to the caller's [`RspanEngine`]; the commit's dirty nodes
//! originate a §2.3 repair wave ([`rspan_distributed::RepairNode`], stamped
//! with the commit epoch) while messages from earlier waves may still be in
//! flight — the asynchronous regime the synchronous
//! [`rspan_distributed::restabilise_flood`] cannot express.  Optionally a
//! random node crashes at each churn instant and recovers `downtime` ticks
//! later, re-originating its pending wave on recovery.
//!
//! Convergence accounting: a round is *converged* when no protocol event
//! (delivery or timer) is pending at the next churn instant — externally
//! scheduled recover events do not count, and the final round is held to
//! the same window rule.  Its `quiesced_at` is the time of the last
//! processed event — virtual stabilisation latency under the configured
//! loss/latency/crash regime.

use crate::model::{AsimConfig, VTime};
use crate::sim::{AsimStats, AsyncNetwork, FaultHook};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rspan_distributed::transport::WireSize;
use rspan_distributed::{RepairNode, WaveNode};
use rspan_engine::{ChurnScenario, RspanEngine, SpannerDelta, TopologyChange};
use rspan_graph::Node;
use rspan_obs::{ObsEvent, ObsHandle, WaveId};
use rspan_telemetry::TelemetryHandle;

/// Configuration of one asynchronous churn run.
#[derive(Clone, Debug)]
pub struct AsyncChurnConfig {
    /// Link/clock model of the underlying simulator.
    pub sim: AsimConfig,
    /// Virtual ticks between scenario commits.
    pub churn_interval: VTime,
    /// Number of churn rounds to drive.
    pub rounds: usize,
    /// Probability that a churn instant also crashes one random node.
    pub crash_prob: f64,
    /// Ticks a crashed node stays down.
    pub downtime: VTime,
    /// Safety cutoff on processed events for the final drain.
    pub max_events: u64,
}

impl Default for AsyncChurnConfig {
    fn default() -> Self {
        AsyncChurnConfig {
            sim: AsimConfig::default(),
            churn_interval: 8,
            rounds: 20,
            crash_prob: 0.0,
            downtime: 12,
            max_events: 20_000_000,
        }
    }
}

impl AsyncChurnConfig {
    /// Checks the configuration, returning a description of the first
    /// problem instead of panicking (the session builder's validation path).
    pub fn check(&self) -> Result<(), String> {
        self.sim.check()?;
        if self.churn_interval < 1 {
            return Err("churn interval must be >= 1 tick".into());
        }
        if !(0.0..=1.0).contains(&self.crash_prob) {
            return Err("crash probability out of [0, 1]".into());
        }
        Ok(())
    }
}

/// Per-churn-round transcript.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundReport {
    /// Round index.
    pub round: usize,
    /// Virtual time of the commit.
    pub at: VTime,
    /// Topology changes in the round's batch.
    pub batch_len: usize,
    /// The commit's dirty ball (the wave originators), a superset of the
    /// trees it rebuilt.
    pub dirty: usize,
    /// Spanner edges that entered or left.
    pub spanner_flips: usize,
    /// Node crashed at this churn instant, if any.
    pub crashed: Option<Node>,
    /// Time the network quiesced, if it drained before the next commit
    /// (`None` = the wave was still in flight when new churn arrived).
    pub quiesced_at: Option<VTime>,
}

impl RoundReport {
    /// Stabilisation latency in ticks, for converged rounds.
    pub fn convergence_ticks(&self) -> Option<VTime> {
        self.quiesced_at.map(|q| q.saturating_sub(self.at))
    }
}

/// Transcript of a whole asynchronous churn run.
#[derive(Debug, PartialEq)]
pub struct AsyncChurnRun {
    /// One report per churn round.
    pub rounds: Vec<RoundReport>,
    /// Simulator accounting over the whole timeline.
    pub stats: AsimStats,
    /// Virtual time of the last processed event.
    pub final_time: VTime,
    /// Total dirty nodes across all commits.
    pub dirty_total: usize,
    /// Whether the final drain completed within the event budget.
    pub drained: bool,
}

impl AsyncChurnRun {
    /// Rounds whose repair wave drained before the next churn instant.
    pub fn converged_rounds(&self) -> usize {
        self.rounds
            .iter()
            .filter(|r| r.quiesced_at.is_some())
            .count()
    }

    /// Mean stabilisation latency over the converged rounds, in ticks.
    pub fn mean_convergence_ticks(&self) -> f64 {
        let (sum, count) = self
            .rounds
            .iter()
            .filter_map(RoundReport::convergence_ticks)
            .fold((0u64, 0u64), |(s, c), t| (s + t, c + 1));
        if count == 0 {
            f64::NAN
        } else {
            sum as f64 / count as f64
        }
    }
}

/// What [`RepairChurnDriver::begin_round`] observed at the churn boundary,
/// *before* the round's commit: the boundary time, whether the previous
/// round's wave had drained by then, and the node crashed at this instant
/// (if the crash draw fired).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BoundaryInfo {
    /// Virtual time of the boundary (= the upcoming commit instant).
    pub at: VTime,
    /// Whether the previous round quiesced before this boundary; `None` on
    /// the first round (there is no previous wave).
    pub prev_quiesced: Option<bool>,
    /// Node crashed at this churn instant, if any.
    pub crashed: Option<Node>,
}

/// One committed churn round: the per-round transcript plus the batch the
/// scenario drew and the [`SpannerDelta`] the engine emitted — everything a
/// downstream consumer (e.g. a routing-table repairer) needs to follow the
/// commit.
#[derive(Clone, Debug)]
pub struct CommittedRound {
    /// The transcript entry pushed for this round (`quiesced_at` is still
    /// `None`; it is filled at the *next* boundary).
    pub report: RoundReport,
    /// The topology changes the scenario drew for this round.
    pub batch: Vec<TopologyChange>,
    /// The spanner delta the engine's commit emitted.
    pub delta: SpannerDelta,
}

/// The stepping core of [`run_repair_churn`]: one churn round at a time on
/// the asynchronous event timeline, split at the churn boundary so callers
/// (the session layer) can observe the network *between* draining the
/// previous round's window and committing the next batch — the instant
/// routing-table staleness is measurable.
///
/// Protocol per round: [`RepairChurnDriver::begin_round`] (drain to the
/// boundary, record the previous round's convergence, draw and apply the
/// crash/recover pair) then [`RepairChurnDriver::commit_round`] (draw the
/// batch, commit it, mirror link flips onto the live adjacency, originate
/// the epoch-stamped repair wave).  [`RepairChurnDriver::finish`] applies
/// the same window rule to the final round and drains the queue.
///
/// [`run_repair_churn`] is the one-shot wrapper; driving the phases by hand
/// produces the *identical* event timeline (property-tested).
///
/// The driver is generic over the [`WaveNode`] it floods with: the default
/// [`RepairNode`] is the plain trusting flood, and
/// `RepairChurnDriver<RbNode<RepairNode, _>>` (via
/// [`RepairChurnDriver::with_nodes`]) runs the same churn timeline under
/// reliable broadcast.
pub struct RepairChurnDriver<P: WaveNode = RepairNode>
where
    P::Msg: WireSize,
{
    sim: AsyncNetwork<P>,
    crash_rng: SmallRng,
    cfg: AsyncChurnConfig,
    rounds: Vec<RoundReport>,
    dirty_total: usize,
    n: usize,
    /// Crash drawn by the current `begin_round`, consumed by `commit_round`.
    pending_crash: Option<Node>,
    mid_round: bool,
    /// Observability sink: the driver advances its clock to each churn
    /// instant and emits wave starts (the simulator gets its own clone for
    /// frame events).
    obs: ObsHandle,
}

impl RepairChurnDriver<RepairNode> {
    /// Builds the event simulator over the engine's live adjacency with the
    /// default plain [`RepairNode`] flood.  The `rounds` field of `cfg` is
    /// ignored — the caller decides how many rounds to drive.  Panics on a
    /// degenerate configuration ([`AsyncChurnConfig::check`] is the
    /// non-panicking form).
    pub fn new(engine: &RspanEngine, cfg: AsyncChurnConfig) -> Self {
        let radius = engine.dirty_radius();
        Self::with_nodes(engine, cfg, |_| RepairNode::new(radius))
    }
}

impl<P: WaveNode> RepairChurnDriver<P>
where
    P::Msg: WireSize,
{
    /// Builds the event simulator over the engine's live adjacency with a
    /// caller-chosen [`WaveNode`] per node (the reliable-broadcast entry
    /// point).  Panics on a degenerate configuration.
    pub fn with_nodes<F>(engine: &RspanEngine, cfg: AsyncChurnConfig, make_node: F) -> Self
    where
        F: FnMut(Node) -> P,
    {
        if let Err(e) = cfg.check() {
            panic!("{e}");
        }
        let n = engine.graph().n();
        let sim: AsyncNetwork<P> =
            AsyncNetwork::from_adjacency(engine.graph(), cfg.sim.clone(), make_node);
        // Crash draws come from their own stream so enabling crashes does
        // not perturb the loss/latency draw sequence of the link model.
        let crash_rng = SmallRng::seed_from_u64(cfg.sim.seed ^ 0xCAFE_F00D_u64);
        RepairChurnDriver {
            sim,
            crash_rng,
            cfg,
            rounds: Vec::new(),
            dirty_total: 0,
            n,
            pending_crash: None,
            mid_round: false,
            obs: ObsHandle::off(),
        }
    }

    /// Installs a Byzantine [`FaultHook`] on the underlying simulator's
    /// transmissions (see [`AsyncNetwork::set_fault_hook`]).
    pub fn set_fault_hook(&mut self, hook: Box<dyn FaultHook<P::Msg>>) {
        self.sim.set_fault_hook(hook);
    }

    /// Attaches an observability recorder: the driver advances the
    /// handle's virtual clock to each churn instant and emits per-commit
    /// [`ObsEvent::WaveStart`] events (one per dirty originator, keyed by
    /// the commit epoch), and the underlying simulator gets a clone for
    /// per-frame deliver/drop events on the same clock.  The engine's
    /// commit record comes from the engine's own handle: attach the same
    /// one with [`RspanEngine::set_obs`] to put it on this timeline.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.sim.set_obs(obs.clone());
        self.obs = obs;
    }

    /// Installs a live telemetry handle on the underlying simulator's event
    /// loop (see [`AsyncNetwork::set_telemetry`]).
    pub fn set_telemetry(&mut self, tel: TelemetryHandle) {
        self.sim.set_telemetry(tel);
    }

    /// Mutable access to node `v`'s protocol state, out of band (e.g. to
    /// attach per-node observability after construction).
    pub fn node_mut(&mut self, v: Node) -> &mut P {
        self.sim.node_mut(v)
    }

    /// The protocol nodes, in id order (e.g. for agreement checks mid-run).
    pub fn nodes(&self) -> &[P] {
        self.sim.nodes()
    }

    /// Rounds committed so far.
    pub fn round(&self) -> usize {
        self.rounds.len()
    }

    /// Per-round transcripts so far (the last entry's `quiesced_at` is
    /// filled at the next boundary).
    pub fn rounds(&self) -> &[RoundReport] {
        &self.rounds
    }

    /// Total dirty nodes across all commits so far.
    pub fn dirty_total(&self) -> usize {
        self.dirty_total
    }

    /// The simulator's accounting so far.
    pub fn stats(&self) -> &AsimStats {
        self.sim.stats()
    }

    /// Current virtual time.
    pub fn now(&self) -> VTime {
        self.sim.now()
    }

    /// Drains the previous round's window up to this round's churn boundary,
    /// records whether the previous wave converged, and applies this
    /// instant's crash draw.  Must alternate with
    /// [`RepairChurnDriver::commit_round`].
    pub fn begin_round(&mut self) -> BoundaryInfo {
        assert!(!self.mid_round, "begin_round called twice without a commit");
        self.mid_round = true;
        let at = self.rounds.len() as VTime * self.cfg.churn_interval;
        // Drain the window belonging to the previous round; whatever is
        // still queued past `at` keeps flying across the boundary.  A round
        // converged iff no *protocol* event (delivery or timer) is pending
        // at the boundary — an externally scheduled recover event further
        // out does not count as in-flight stabilisation traffic.
        self.sim.run_until(at);
        let mut prev_quiesced = None;
        if let Some(prev) = self.rounds.last_mut() {
            prev.quiesced_at = (self.sim.protocol_pending() == 0).then(|| self.sim.now());
            prev_quiesced = Some(prev.quiesced_at.is_some());
        }

        // Crash/recover: scheduled and immediately processed, so a dirty
        // node crashed at the churn instant misses its origination and
        // re-floods on recovery instead.
        let mut crashed = None;
        if self.cfg.crash_prob > 0.0 && self.crash_rng.gen_range(0.0..1.0) < self.cfg.crash_prob {
            let v = self.crash_rng.gen_range(0..self.n as u64) as Node;
            if self.sim.is_alive(v) {
                self.sim.schedule_crash(at, v);
                self.sim.schedule_recover(at + self.cfg.downtime, v);
                self.sim.run_until(at); // take the crash into effect now
                crashed = Some(v);
            }
        }
        self.sim.advance_to(at);
        self.pending_crash = crashed;
        BoundaryInfo {
            at,
            prev_quiesced,
            crashed,
        }
    }

    /// Commits one churn round: draws the batch, commits it to the engine,
    /// mirrors the link flips onto the live adjacency and originates the
    /// commit's epoch-stamped repair wave (alive dirty nodes flood now,
    /// crashed ones on recovery).
    pub fn commit_round(
        &mut self,
        engine: &mut RspanEngine,
        scenario: &mut dyn ChurnScenario,
    ) -> CommittedRound {
        assert!(self.mid_round, "commit_round requires begin_round first");
        self.mid_round = false;
        let round = self.rounds.len();
        let at = round as VTime * self.cfg.churn_interval;
        // Commit the round's churn and mirror it onto the live adjacency.
        // An engine sharing this handle emits its commit record at the
        // boundary's virtual time.
        let batch = scenario.next_batch(engine.graph());
        if self.obs.on() {
            self.obs.set_now(at);
        }
        let delta = engine.commit(&batch);
        for change in &batch {
            match *change {
                TopologyChange::AddEdge(u, v) => self.sim.set_link(u, v, true),
                TopologyChange::RemoveEdge(u, v) => self.sim.set_link(u, v, false),
            }
        }
        // Arm this commit's wave; alive dirty nodes originate now, crashed
        // ones on recovery.
        self.dirty_total += delta.recomputed.len();
        for &d in &delta.recomputed {
            let tree = engine.tree_edges(d).to_vec();
            if self.obs.on() {
                self.obs.emit(ObsEvent::WaveStart {
                    wave: WaveId {
                        origin: d,
                        epoch: delta.epoch,
                    },
                });
            }
            if self.sim.is_alive(d) {
                let epoch = delta.epoch;
                self.sim.inject(d, |node, net| {
                    node.arm_wave(epoch, Some(tree));
                    node.fire_wave(net);
                });
            } else {
                self.sim.node_mut(d).arm_wave(delta.epoch, Some(tree));
            }
        }
        let report = RoundReport {
            round,
            at,
            batch_len: batch.len(),
            dirty: delta.recomputed.len(),
            spanner_flips: delta.added.len() + delta.removed.len(),
            crashed: self.pending_crash.take(),
            quiesced_at: None,
        };
        self.rounds.push(report.clone());
        CommittedRound {
            report,
            batch,
            delta,
        }
    }

    /// Applies the window rule to the final round (quiescent by the next
    /// would-be churn instant), drains the remaining queue, and returns the
    /// full transcript.
    pub fn finish(self) -> AsyncChurnRun {
        self.finish_with_nodes().0
    }

    /// Like [`RepairChurnDriver::finish`], additionally handing back the
    /// final node states — what end-of-run honest-agreement checks and
    /// reliable-broadcast accounting read.
    pub fn finish_with_nodes(mut self) -> (AsyncChurnRun, Vec<P>) {
        assert!(!self.mid_round, "finish called between begin and commit");
        // The final round is held to the same window rule as every other
        // round; the unbounded drain afterwards only completes the
        // accounting.
        self.sim
            .run_until(self.rounds.len() as VTime * self.cfg.churn_interval);
        if let Some(last) = self.rounds.last_mut() {
            last.quiesced_at = (self.sim.protocol_pending() == 0).then(|| self.sim.now());
        }
        let drained = self.sim.run_to_quiescence(self.cfg.max_events);
        let final_time = self.sim.now();
        let (nodes, stats) = self.sim.into_nodes_and_stats();
        let run = AsyncChurnRun {
            rounds: self.rounds,
            final_time,
            dirty_total: self.dirty_total,
            drained,
            stats,
        };
        (run, nodes)
    }
}

/// Drives `scenario` against `engine` for `cfg.rounds` commits on one
/// asynchronous event timeline, stabilising each commit with an epoch-
/// stamped [`RepairNode`] wave, and returns the full transcript.
///
/// The engine is the topology/spanner authority; the simulator mirrors its
/// link flips ([`AsyncNetwork::set_link`]) so floods run over the live
/// adjacency.  The run is deterministic: scenario, engine and simulator all
/// draw from seeded streams.
///
/// This is the one-shot wrapper over [`RepairChurnDriver`]; the session
/// layer drives the same phases round by round and is pinned bit-identical.
pub fn run_repair_churn<S: ChurnScenario>(
    engine: &mut RspanEngine,
    scenario: &mut S,
    cfg: &AsyncChurnConfig,
) -> AsyncChurnRun {
    let mut driver = RepairChurnDriver::new(engine, cfg.clone());
    for _ in 0..cfg.rounds {
        driver.begin_round();
        driver.commit_round(engine, scenario);
    }
    driver.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LatencyModel;
    use rspan_domtree::TreeAlgo;
    use rspan_engine::LinkFlapScenario;
    use rspan_graph::generators::udg::uniform_udg;

    fn small_engine(seed: u64) -> (RspanEngine, LinkFlapScenario) {
        let inst = uniform_udg(80, 5.0, 1.0, seed);
        let scenario = LinkFlapScenario::new(&inst.graph, 2.0, seed + 4);
        let engine = RspanEngine::new(inst.graph, TreeAlgo::KGreedy { k: 2 });
        (engine, scenario)
    }

    #[test]
    fn zero_loss_churn_converges_every_round() {
        let (mut engine, mut scenario) = small_engine(31);
        let cfg = AsyncChurnConfig {
            churn_interval: 16, // comfortably above radius + 1
            rounds: 10,
            ..AsyncChurnConfig::default()
        };
        let run = run_repair_churn(&mut engine, &mut scenario, &cfg);
        assert!(run.drained);
        assert_eq!(run.rounds.len(), 10);
        assert_eq!(run.converged_rounds(), 10);
        assert!(run.mean_convergence_ticks() <= 16.0);
        assert_eq!(run.stats.dropped_loss, 0);
        assert!(run.stats.delivered > 0);
        assert!(run.dirty_total > 0);
    }

    #[test]
    fn loss_costs_retransmissions_and_can_defer_convergence() {
        let (mut engine, mut scenario) = small_engine(32);
        let cfg = AsyncChurnConfig {
            sim: AsimConfig {
                loss: 0.4,
                max_retries: 2,
                ..AsimConfig::default()
            },
            churn_interval: 8,
            rounds: 8,
            ..AsyncChurnConfig::default()
        };
        let run = run_repair_churn(&mut engine, &mut scenario, &cfg);
        assert!(run.drained);
        assert!(run.stats.dropped_loss > 0, "40% loss must drop something");
        assert!(
            run.stats.transmissions > run.stats.logical_messages(),
            "retries must inflate the attempt count"
        );
    }

    #[test]
    fn churn_runs_are_deterministic() {
        let run_once = || {
            let (mut engine, mut scenario) = small_engine(33);
            let cfg = AsyncChurnConfig {
                sim: AsimConfig {
                    latency: LatencyModel::HeavyTailed {
                        min: 1,
                        alpha: 1.5,
                        cap: 16,
                    },
                    loss: 0.2,
                    max_retries: 1,
                    seed: 99,
                    ..AsimConfig::default()
                },
                crash_prob: 0.5,
                rounds: 6,
                ..AsyncChurnConfig::default()
            };
            let run = run_repair_churn(&mut engine, &mut scenario, &cfg);
            (
                run.stats.clone(),
                run.final_time,
                run.rounds
                    .iter()
                    .map(|r| (r.batch_len, r.dirty, r.crashed, r.quiesced_at))
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(run_once(), run_once());
    }
}
