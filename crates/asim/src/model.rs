//! Link models and simulator configuration: latency distributions, Bernoulli
//! loss with bounded retransmission, adversarial schedulers, and the virtual
//! clock's unit.

use rand::rngs::SmallRng;
use rand::Rng;
use rspan_graph::Node;

/// Virtual time, in abstract clock ticks.  One tick is the synchronous
/// round length: a constant-latency-1, zero-loss simulation reproduces the
/// [`rspan_distributed::SyncNetwork::run_protocol`] round schedule exactly.
pub type VTime = u64;

/// Per-transmission latency distribution of a link.
///
/// All models draw integer tick counts `≥ 1` (a message can never arrive at
/// the instant it was sent — that would let effect precede cause at equal
/// timestamps).
#[derive(Clone, Debug, PartialEq)]
pub enum LatencyModel {
    /// Every transmission takes exactly this many ticks.
    Constant(VTime),
    /// Uniform over `lo..=hi` ticks.
    Uniform {
        /// Minimum latency (inclusive, ≥ 1).
        lo: VTime,
        /// Maximum latency (inclusive).
        hi: VTime,
    },
    /// Discretised bounded Pareto: `min / U^{1/alpha}` rounded and clamped
    /// to `[min, cap]`.  Small `alpha` (e.g. 1.0–1.5) gives the occasional
    /// very slow delivery that wireless contention produces.
    HeavyTailed {
        /// Scale (and minimum) latency in ticks (≥ 1).
        min: VTime,
        /// Tail exponent (> 0; smaller = heavier tail).
        alpha: f64,
        /// Hard clamp so a single draw cannot stall the virtual clock.
        cap: VTime,
    },
}

impl LatencyModel {
    /// Checks the model parameters, returning a description of the first
    /// problem instead of panicking (the session builder's validation path).
    pub fn check(&self) -> Result<(), String> {
        match *self {
            LatencyModel::Constant(c) => {
                if c < 1 {
                    return Err("latency must be >= 1 tick".into());
                }
            }
            LatencyModel::Uniform { lo, hi } => {
                if lo < 1 {
                    return Err("latency must be >= 1 tick".into());
                }
                if lo > hi {
                    return Err("empty uniform latency range".into());
                }
            }
            LatencyModel::HeavyTailed { min, alpha, cap } => {
                if min < 1 {
                    return Err("latency must be >= 1 tick".into());
                }
                if min > cap {
                    return Err("heavy-tail cap below its minimum".into());
                }
                if alpha <= 0.0 {
                    return Err("tail exponent must be positive".into());
                }
            }
        }
        Ok(())
    }

    /// Panics if the model parameters are degenerate.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }

    /// Draws one latency in ticks.
    pub fn sample(&self, rng: &mut SmallRng) -> VTime {
        match *self {
            LatencyModel::Constant(c) => c,
            LatencyModel::Uniform { lo, hi } => rng.gen_range(lo..=hi),
            LatencyModel::HeavyTailed { min, alpha, cap } => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                let x = min as f64 / u.powf(1.0 / alpha);
                (x.round() as VTime).clamp(min, cap)
            }
        }
    }

    /// Short label for benchmark tables.
    pub fn label(&self) -> String {
        match *self {
            LatencyModel::Constant(c) => format!("const_{c}"),
            LatencyModel::Uniform { lo, hi } => format!("uniform_{lo}_{hi}"),
            LatencyModel::HeavyTailed { min, alpha, cap } => {
                format!("pareto_{min}_a{alpha:.1}_cap{cap}")
            }
        }
    }
}

/// An adversarial scheduler: a *deterministic* worst-case delay policy
/// stacked on top of the random [`LatencyModel`] draw.  The asynchronous
/// model lets the scheduler pick any admissible delivery order; random
/// latency explores a benign sample of that space, while these policies
/// steer deliveries towards the orders that hurt the repair waves most —
/// the ROADMAP's "adversarial schedulers" item.
///
/// The extra delay is a pure function of the link, the transmission index
/// and the base draw (no RNG consumed), so an adversarial run stays
/// replay-deterministic and its random-draw stream stays aligned with the
/// baseline run under the same seed.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum Adversary {
    /// No adversary: the latency model alone (the random baseline).
    #[default]
    None,
    /// Worst-case-link delay: a fixed (hash-selected) half of the links
    /// runs `factor×` slower, so every wave crosses a consistently slow
    /// cut instead of averaging out.
    WorstLink {
        /// Multiplier applied to the slow links' latency draws (≥ 2).
        factor: VTime,
    },
    /// Laggard node: every frame from or to one node is delayed by `lag`
    /// extra ticks — the node quorums and floods keep waiting for.
    Laggard {
        /// The straggling node.
        node: Node,
        /// Extra ticks on each of its transmissions (≥ 1).
        lag: VTime,
    },
    /// Wave-splitting reordering: every other transmission is delayed by
    /// `stretch` ticks, tearing each flood wave into an early and a late
    /// half so frames from different waves interleave maximally.
    WaveSplit {
        /// Extra ticks on the delayed half (≥ 1).
        stretch: VTime,
    },
}

impl Adversary {
    /// Checks the policy parameters, returning a description of the first
    /// problem instead of panicking (the session builder's validation path).
    pub fn check(&self) -> Result<(), String> {
        match *self {
            Adversary::None => {}
            Adversary::WorstLink { factor } => {
                if factor < 2 {
                    return Err("worst-link factor must be >= 2 (1 is no adversary)".into());
                }
            }
            Adversary::Laggard { lag, .. } => {
                if lag < 1 {
                    return Err("laggard lag must be >= 1 tick".into());
                }
            }
            Adversary::WaveSplit { stretch } => {
                if stretch < 1 {
                    return Err("wave-split stretch must be >= 1 tick".into());
                }
            }
        }
        Ok(())
    }

    /// The delivery delay after the adversary's interference: `base` is the
    /// latency model's draw, `seq` the global transmission index.
    pub fn delay(&self, from: Node, to: Node, seq: u64, base: VTime) -> VTime {
        match *self {
            Adversary::None => base,
            Adversary::WorstLink { factor } => {
                // Undirected link hash: both directions of a link are slow
                // together, like a congested physical channel.
                let (a, b) = if from <= to { (from, to) } else { (to, from) };
                let h = ((u64::from(a) << 32) | u64::from(b)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                if h & (1 << 63) != 0 {
                    base.saturating_mul(factor)
                } else {
                    base
                }
            }
            Adversary::Laggard { node, lag } => {
                if from == node || to == node {
                    base.saturating_add(lag)
                } else {
                    base
                }
            }
            Adversary::WaveSplit { stretch } => {
                if seq & 1 == 1 {
                    base.saturating_add(stretch)
                } else {
                    base
                }
            }
        }
    }

    /// Short label for benchmark tables.
    pub fn label(&self) -> String {
        match *self {
            Adversary::None => "none".into(),
            Adversary::WorstLink { factor } => format!("worst_link_x{factor}"),
            Adversary::Laggard { node, lag } => format!("laggard_{node}_lag{lag}"),
            Adversary::WaveSplit { stretch } => format!("wave_split_{stretch}"),
        }
    }
}

/// Configuration of one asynchronous simulation.
///
/// Determinism guarantee: the whole run — event order, loss draws, latency
/// draws — is a pure function of the configuration, the initial topology,
/// the node state machines, and the scheduled external events.  Same seed +
/// same config ⇒ identical event trace (the replay property test pins this).
#[derive(Clone, Debug, PartialEq)]
pub struct AsimConfig {
    /// Per-transmission latency model.
    pub latency: LatencyModel,
    /// Bernoulli per-transmission loss probability in `[0, 1]`.
    pub loss: f64,
    /// Link-layer retransmissions after a lost attempt (0 = no retries; a
    /// message is dropped on the first loss).
    pub max_retries: u32,
    /// Ticks between retransmission attempts.
    pub retry_timeout: VTime,
    /// Seed of the simulator's RNG (loss and latency draws).
    pub seed: u64,
    /// Record a [`crate::sim::TraceEvent`] per processed event (costs
    /// memory on long runs; enable for replay/debug).
    pub record_trace: bool,
    /// Deterministic worst-case delay policy on top of the latency draws.
    pub adversary: Adversary,
}

impl Default for AsimConfig {
    fn default() -> Self {
        AsimConfig {
            latency: LatencyModel::Constant(1),
            loss: 0.0,
            max_retries: 0,
            retry_timeout: 2,
            seed: 0x5eed,
            record_trace: false,
            adversary: Adversary::None,
        }
    }
}

impl AsimConfig {
    /// Checks the configuration, returning a description of the first
    /// problem instead of panicking (the session builder's validation path).
    pub fn check(&self) -> Result<(), String> {
        self.latency.check()?;
        if !(0.0..=1.0).contains(&self.loss) {
            return Err("loss probability out of [0, 1]".into());
        }
        if self.retry_timeout < 1 {
            return Err("retry timeout must be >= 1 tick".into());
        }
        self.adversary.check()?;
        Ok(())
    }

    /// Panics if the configuration is degenerate.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }

    /// Synchronous-equivalent configuration: unit latency, no loss.  With
    /// this config the event scheduler reproduces the rounds of
    /// [`SyncNetwork::run_protocol`] exactly (property-tested).
    ///
    /// [`SyncNetwork::run_protocol`]: rspan_distributed::SyncNetwork::run_protocol
    pub fn lockstep(seed: u64) -> Self {
        AsimConfig {
            seed,
            ..AsimConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn samples_respect_bounds() {
        let mut rng = SmallRng::seed_from_u64(9);
        for model in [
            LatencyModel::Constant(3),
            LatencyModel::Uniform { lo: 1, hi: 5 },
            LatencyModel::HeavyTailed {
                min: 1,
                alpha: 1.2,
                cap: 40,
            },
        ] {
            model.validate();
            let (lo, hi) = match model {
                LatencyModel::Constant(c) => (c, c),
                LatencyModel::Uniform { lo, hi } => (lo, hi),
                LatencyModel::HeavyTailed { min, cap, .. } => (min, cap),
            };
            for _ in 0..2_000 {
                let s = model.sample(&mut rng);
                assert!((lo..=hi).contains(&s), "{model:?} drew {s}");
            }
        }
    }

    #[test]
    fn heavy_tail_actually_spreads() {
        let mut rng = SmallRng::seed_from_u64(11);
        let model = LatencyModel::HeavyTailed {
            min: 1,
            alpha: 1.1,
            cap: 64,
        };
        let draws: Vec<VTime> = (0..4_000).map(|_| model.sample(&mut rng)).collect();
        let slow = draws.iter().filter(|&&d| d >= 8).count();
        let fast = draws.iter().filter(|&&d| d == 1).count();
        assert!(slow > 40, "tail too light: {slow}");
        assert!(fast > 1_000, "body too thin: {fast}");
    }

    #[test]
    #[should_panic(expected = "latency must be >= 1")]
    fn zero_latency_rejected() {
        LatencyModel::Constant(0).validate();
    }

    #[test]
    fn adversaries_delay_deterministically_and_only_where_claimed() {
        let worst = Adversary::WorstLink { factor: 3 };
        worst.check().unwrap();
        // Direction-independent, repeatable, and either 1× or factor×.
        for (a, b) in [(0u32, 1u32), (2, 5), (7, 3)] {
            let d = worst.delay(a, b, 0, 4);
            assert_eq!(d, worst.delay(b, a, 9, 4));
            assert!(d == 4 || d == 12, "drew {d}");
        }
        // Some link must actually be slow.
        assert!((0u32..20).any(|v| worst.delay(v, v + 1, 0, 1) == 3));

        let lag = Adversary::Laggard { node: 3, lag: 5 };
        lag.check().unwrap();
        assert_eq!(lag.delay(3, 1, 0, 2), 7);
        assert_eq!(lag.delay(1, 3, 0, 2), 7);
        assert_eq!(lag.delay(1, 2, 0, 2), 2);

        let split = Adversary::WaveSplit { stretch: 6 };
        split.check().unwrap();
        assert_eq!(split.delay(0, 1, 0, 1), 1);
        assert_eq!(split.delay(0, 1, 1, 1), 7);

        assert!(Adversary::WorstLink { factor: 1 }.check().is_err());
        assert!(Adversary::Laggard { node: 0, lag: 0 }.check().is_err());
        assert!(Adversary::WaveSplit { stretch: 0 }.check().is_err());
        assert_eq!(Adversary::None.delay(0, 1, 5, 9), 9);
    }

    #[test]
    fn adversary_labels_are_stable() {
        assert_eq!(Adversary::None.label(), "none");
        assert_eq!(Adversary::WorstLink { factor: 3 }.label(), "worst_link_x3");
        assert_eq!(
            Adversary::Laggard { node: 4, lag: 8 }.label(),
            "laggard_4_lag8"
        );
        assert_eq!(Adversary::WaveSplit { stretch: 6 }.label(), "wave_split_6");
        let cfg = AsimConfig {
            adversary: Adversary::WaveSplit { stretch: 0 },
            ..AsimConfig::default()
        };
        assert!(
            cfg.check().is_err(),
            "config check must cover the adversary"
        );
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(LatencyModel::Constant(1).label(), "const_1");
        assert_eq!(
            LatencyModel::Uniform { lo: 1, hi: 4 }.label(),
            "uniform_1_4"
        );
        assert!(LatencyModel::HeavyTailed {
            min: 1,
            alpha: 1.5,
            cap: 32
        }
        .label()
        .starts_with("pareto_1"));
    }
}
