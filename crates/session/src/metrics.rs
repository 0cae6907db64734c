//! The uniform metrics snapshot every session configuration emits.
//!
//! One struct covers all four pipeline shapes — static build, synchronous
//! churn, churn + delta routing, asynchronous event-driven repair — with the
//! sections that do not apply left `None`.  [`Metrics::to_json`] serializes
//! to the flat object shape the `BENCH_*.json` baselines use, so a session
//! row and a hand-written harness row are interchangeable (the bench
//! harness composes its rows from [`Metrics::json_fields`] plus its own
//! timing fields, and `bench_gate` pins the result's key set).

use rspan_asim::{AsimStats, RoundReport, VTime};
use rspan_core::StretchGuarantee;
use rspan_distributed::RunStats;

/// Totals of the incremental routing-table repairs a session performed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RepairTotals {
    /// Rows recomputed across all repairs.
    pub rows_recomputed: usize,
    /// Repairs applied (equals the committed rounds when routing is on).
    pub repairs: usize,
}

/// Totals of the per-commit §2.3 synchronous restabilisation floods.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FloodTotals {
    /// Protocol rounds across all floods.
    pub rounds: u64,
    /// Point-to-point transmissions across all floods.
    pub messages: u64,
}

impl FloodTotals {
    /// Folds one flood's [`RunStats`] into the totals.
    pub fn absorb(&mut self, stats: &RunStats) {
        self.rounds += u64::from(stats.rounds);
        self.messages += stats.messages;
    }
}

/// Routing-table staleness observed while repair waves were in flight: at
/// each churn boundary where the previous wave had **not** quiesced, the
/// session counts the rows on which the live [`rspan_distributed::DeltaRouter`]
/// (the post-commit truth) disagrees with the tables as of the last quiescent
/// boundary (what converged distributed nodes still hold).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StalenessStats {
    /// Churn boundaries inspected.
    pub checks: usize,
    /// Boundaries where the previous wave was still in flight.
    pub inflight_checks: usize,
    /// Stale rows summed over the in-flight boundaries.
    pub stale_rows_total: usize,
    /// Largest single-boundary stale-row count.
    pub stale_rows_max: usize,
}

/// The compact-routing section of the snapshot, present iff
/// [`Repair::Local`](crate::Repair::Local) is configured: per-node state
/// accounting, row-cache traffic, repair totals and (when
/// [`crate::Session::sample_local_stretch`] ran) the measured stretch
/// distribution of compact forwarding against true graph distances.
#[derive(Clone, Debug, PartialEq)]
pub struct LocalMetrics {
    /// Current landmark-set size.
    pub landmarks: usize,
    /// Ball radius (`r − 1 + β`).
    pub ball_radius: u32,
    /// Total compact routing state in bytes (balls + trees + cache).
    pub state_bytes: usize,
    /// State bytes divided by `n` — the sublinearity headline.
    pub state_bytes_per_node: f64,
    /// Mean exact ball entries per node.
    pub ball_entries_mean: f64,
    /// Row-cache hits across all exact queries.
    pub cache_hits: u64,
    /// Row-cache misses (each materialises a row).
    pub cache_misses: u64,
    /// LRU evictions.
    pub cache_evictions: u64,
    /// Full rows materialised on demand.
    pub rows_materialized: u64,
    /// Ball rows rebuilt across all repairs.
    pub ball_rows_repaired: usize,
    /// Landmark trees repaired or built across all repairs.
    pub landmark_trees_rebuilt: usize,
    /// Cached rows invalidated across all repairs.
    pub cache_invalidated: usize,
    /// Stretch samples taken (0 when never sampled).
    pub stretch_samples: usize,
    /// Median measured stretch (compact hops / true distance); `NaN` when
    /// unsampled (serialized as the `-1.0` sentinel).
    pub stretch_p50: f64,
    /// 99th-percentile measured stretch (`NaN` when unsampled).
    pub stretch_p99: f64,
    /// Largest measured stretch (`NaN` when unsampled).
    pub stretch_max: f64,
}

impl LocalMetrics {
    /// Cache hit rate over all exact queries (`NaN` when no queries ran).
    pub fn cache_hit_rate(&self) -> f64 {
        self.cache_hits as f64 / (self.cache_hits + self.cache_misses) as f64
    }
}

/// The asynchronous scheduler's section of the snapshot: simulator
/// accounting plus the per-round convergence transcript.
#[derive(Clone, Debug, PartialEq)]
pub struct AsyncMetrics {
    /// Simulator accounting (deliveries, drops, retransmissions, bytes).
    pub stats: AsimStats,
    /// Per-churn-round transcript (the last round's `quiesced_at` is only
    /// final after [`crate::Session::finish`]).
    pub rounds: Vec<RoundReport>,
    /// Virtual time of the last processed event.
    pub final_time: VTime,
    /// Total dirty nodes across all commits.
    pub dirty_total: usize,
    /// Whether the final drain completed within the event budget
    /// (`None` until [`crate::Session::finish`]).
    pub drained: Option<bool>,
    /// Ticks between scenario commits.
    pub churn_interval: VTime,
    /// Latency model label.
    pub latency: String,
    /// Scheduler adversary label (`"none"` for the random baseline).
    pub adversary: String,
    /// Bernoulli per-transmission loss probability.
    pub loss: f64,
    /// Link-layer retransmission budget.
    pub max_retries: u32,
    /// Per-boundary crash probability.
    pub crash_prob: f64,
}

impl AsyncMetrics {
    /// Rounds whose repair wave drained before the next churn instant.
    pub fn converged_rounds(&self) -> usize {
        self.rounds
            .iter()
            .filter(|r| r.quiesced_at.is_some())
            .count()
    }

    /// Mean stabilisation latency over the converged rounds, in ticks
    /// (`NaN` when no round converged).
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

/// The Byzantine / reliable-broadcast section of the snapshot: broadcast
/// mode, fault plan, the wrapper's message accounting summed over all
/// nodes, the fault injector's wire counters, and the honest-agreement
/// check over accepted wave digests.
///
/// Present iff the async scheduler runs with
/// [`Broadcast::Reliable`](crate::Broadcast::Reliable) or an active
/// [`FaultPlan`](rspan_asim::FaultPlan) — the configurations where "did the
/// honest nodes agree, and what did it cost" is the question.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ByzMetrics {
    /// Broadcast mode label: `plain` or `reliable_f{f}`.
    pub broadcast: String,
    /// Fault-plan label ([`rspan_asim::FaultPlan::label`]): `honest` or
    /// e.g. `f2_forge3_replay7`.
    pub fault_plan: String,
    /// Nodes marked Byzantine.
    pub byz_nodes: usize,
    /// `Init` frames originated (reliable broadcast only; 0 under plain).
    pub init_sent: u64,
    /// `Echo` witness frames sent.
    pub echo_sent: u64,
    /// `Ready` commitment frames sent.
    pub ready_sent: u64,
    /// Frames relayed onward in the dedup flood.
    pub relayed: u64,
    /// Payloads delivered to inner protocol nodes after a ready quorum.
    pub rb_delivered: u64,
    /// Frames rejected for a bad MAC (tampered relays).
    pub rejected_mac: u64,
    /// Frames rejected as stale replays (outside the epoch retain window).
    pub rejected_stale: u64,
    /// Inner forward-sends suppressed by the wrapper (RB owns relaying).
    pub suppressed_inner: u64,
    /// Transmissions the fault injector silently dropped.
    pub byz_suppressed: u64,
    /// Transmissions the fault injector rewrote in flight.
    pub byz_rewritten: u64,
    /// `(wave key, honest acceptor)` pairs the agreement sweep inspected.
    pub agreement_checks: usize,
    /// Inspected pairs that disagreed with the reference digest.
    pub agreement_violations: usize,
}

impl ByzMetrics {
    /// Whether every honest acceptance agreed (the Byzantine-tolerance
    /// acceptance criterion).
    pub fn agreement_ok(&self) -> bool {
        self.agreement_violations == 0
    }

    /// Witness-frame amplification relative to the payload-bearing `Init`
    /// floods: `(echo_sent + ready_sent) / max(init_sent + relayed, 1)` —
    /// the price of tolerating `f` forgers (`0.0` under plain flooding).
    pub fn amplification(&self) -> f64 {
        let base = (self.init_sent + self.relayed).max(1);
        (self.echo_sent + self.ready_sent) as f64 / base as f64
    }
}

/// The uniform snapshot: what one session did, across every configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct Metrics {
    /// Stable label of the spanner algorithm ([`crate::SpannerAlgo::label`]).
    pub algo: String,
    /// The construction's proved stretch guarantee.
    pub guarantee: StretchGuarantee,
    /// Label of the owned churn scenario, if any.
    pub scenario: Option<String>,
    /// Nodes of the session's *initial* topology (the workload-instance
    /// identity benchmark rows key on — stable under churn; read the
    /// current topology off the engine).
    pub n: usize,
    /// Edges of the initial topology (see [`Metrics::n`]).
    pub m: usize,
    /// Engine epoch (commits absorbed; the initial build is epoch 0).
    pub epoch: u64,
    /// Current spanner edge count.
    pub spanner_edges: usize,
    /// Churn rounds driven through [`crate::Session::step`] /
    /// [`crate::Session::commit`].
    pub rounds: usize,
    /// Topology changes across all batches.
    pub batch_changes: usize,
    /// Dirty (recomputed) nodes across all commits.
    pub dirty_total: usize,
    /// Spanner edges that entered or left across all commits.
    pub spanner_flips: usize,
    /// Routing-repair totals (present iff delta routing is configured).
    pub repair: Option<RepairTotals>,
    /// Compact-routing section (present iff local routing is configured).
    pub local: Option<LocalMetrics>,
    /// Synchronous flood totals (present iff per-commit floods are on).
    pub flood: Option<FloodTotals>,
    /// Asynchronous scheduler section (present iff the async scheduler is
    /// configured).
    pub asim: Option<AsyncMetrics>,
    /// Staleness section (present iff staleness measurement is on).
    pub staleness: Option<StalenessStats>,
    /// Byzantine / reliable-broadcast section (present iff the async
    /// scheduler runs with reliable broadcast or an active fault plan).
    pub byz: Option<ByzMetrics>,
}

/// Formats an `f64` the way the bench JSON does: finite values with two
/// decimals, non-finite as `-1.0` (the "no data" sentinel, since JSON has no
/// NaN).
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.2}")
    } else {
        "-1.0".to_string()
    }
}

/// Escapes a label for embedding inside a JSON string literal: backslashes
/// and double quotes are escaped, control characters become `\u00XX`.
/// Labels are normally tame identifiers, but scenario names are caller-
/// supplied strings and must not be able to break the row out of its field.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

impl Metrics {
    /// The snapshot as the *fields* of a flat JSON object — `"key": value`
    /// pairs joined by `", "`, without the surrounding braces — so harnesses
    /// can splice in their own fields (timings, workload family) and stay
    /// bit-compatible with the `BENCH_*.json` row shape.
    pub fn json_fields(&self) -> String {
        let mut fields: Vec<String> = Vec::new();
        if let Some(scenario) = &self.scenario {
            fields.push(format!("\"scenario\": \"{}\"", json_escape(scenario)));
        }
        fields.push(format!("\"algo\": \"{}\"", json_escape(&self.algo)));
        fields.push(format!("\"n\": {}", self.n));
        fields.push(format!("\"m\": {}", self.m));
        fields.push(format!("\"epoch\": {}", self.epoch));
        fields.push(format!("\"spanner_edges\": {}", self.spanner_edges));
        fields.push(format!("\"rounds\": {}", self.rounds));
        fields.push(format!("\"batch_changes\": {}", self.batch_changes));
        fields.push(format!("\"dirty_total\": {}", self.dirty_total));
        fields.push(format!("\"spanner_flips\": {}", self.spanner_flips));
        if let Some(repair) = &self.repair {
            fields.push(format!("\"rows_recomputed\": {}", repair.rows_recomputed));
            fields.push(format!("\"repairs\": {}", repair.repairs));
        }
        if let Some(local) = &self.local {
            fields.push(format!("\"landmarks\": {}", local.landmarks));
            fields.push(format!("\"ball_radius\": {}", local.ball_radius));
            fields.push(format!("\"state_bytes\": {}", local.state_bytes));
            fields.push(format!(
                "\"state_bytes_per_node\": {}",
                json_f64(local.state_bytes_per_node)
            ));
            fields.push(format!(
                "\"ball_entries_mean\": {}",
                json_f64(local.ball_entries_mean)
            ));
            fields.push(format!("\"cache_hits\": {}", local.cache_hits));
            fields.push(format!("\"cache_misses\": {}", local.cache_misses));
            fields.push(format!("\"cache_evictions\": {}", local.cache_evictions));
            fields.push(format!(
                "\"rows_materialized\": {}",
                local.rows_materialized
            ));
            fields.push(format!(
                "\"cache_hit_rate\": {}",
                json_f64(local.cache_hit_rate())
            ));
            fields.push(format!(
                "\"ball_rows_repaired\": {}",
                local.ball_rows_repaired
            ));
            fields.push(format!(
                "\"landmark_trees_rebuilt\": {}",
                local.landmark_trees_rebuilt
            ));
            fields.push(format!(
                "\"cache_invalidated\": {}",
                local.cache_invalidated
            ));
            fields.push(format!("\"stretch_samples\": {}", local.stretch_samples));
            fields.push(format!("\"stretch_p50\": {}", json_f64(local.stretch_p50)));
            fields.push(format!("\"stretch_p99\": {}", json_f64(local.stretch_p99)));
            fields.push(format!("\"stretch_max\": {}", json_f64(local.stretch_max)));
        }
        if let Some(flood) = &self.flood {
            fields.push(format!("\"flood_rounds\": {}", flood.rounds));
            fields.push(format!("\"flood_messages\": {}", flood.messages));
        }
        if let Some(asim) = &self.asim {
            let s = &asim.stats;
            let dropped = s.dropped_loss + s.dropped_down + s.dropped_no_link;
            fields.push(format!("\"churn_interval\": {}", asim.churn_interval));
            fields.push(format!("\"latency\": \"{}\"", json_escape(&asim.latency)));
            fields.push(format!(
                "\"adversary\": \"{}\"",
                json_escape(&asim.adversary)
            ));
            fields.push(format!("\"loss\": {:.2}", asim.loss));
            fields.push(format!("\"max_retries\": {}", asim.max_retries));
            fields.push(format!("\"crash_prob\": {:.2}", asim.crash_prob));
            fields.push(format!("\"converged_rounds\": {}", asim.converged_rounds()));
            fields.push(format!(
                "\"mean_convergence_ticks\": {}",
                json_f64(asim.mean_convergence_ticks())
            ));
            fields.push(format!("\"final_virtual_time\": {}", asim.final_time));
            fields.push(format!("\"delivered\": {}", s.delivered));
            fields.push(format!("\"dropped\": {dropped}"));
            fields.push(format!("\"dropped_loss\": {}", s.dropped_loss));
            fields.push(format!("\"dropped_down\": {}", s.dropped_down));
            fields.push(format!("\"transmissions\": {}", s.transmissions));
            fields.push(format!("\"bytes_delivered\": {}", s.bytes_delivered));
            fields.push(format!("\"events\": {}", s.events));
        }
        if let Some(st) = &self.staleness {
            fields.push(format!("\"staleness_checks\": {}", st.checks));
            fields.push(format!(
                "\"staleness_inflight_checks\": {}",
                st.inflight_checks
            ));
            fields.push(format!("\"stale_rows_total\": {}", st.stale_rows_total));
            fields.push(format!("\"stale_rows_max\": {}", st.stale_rows_max));
        }
        if let Some(byz) = &self.byz {
            fields.push(format!(
                "\"broadcast\": \"{}\"",
                json_escape(&byz.broadcast)
            ));
            fields.push(format!(
                "\"fault_plan\": \"{}\"",
                json_escape(&byz.fault_plan)
            ));
            fields.push(format!("\"byz_nodes\": {}", byz.byz_nodes));
            fields.push(format!("\"rb_init_sent\": {}", byz.init_sent));
            fields.push(format!("\"rb_echo_sent\": {}", byz.echo_sent));
            fields.push(format!("\"rb_ready_sent\": {}", byz.ready_sent));
            fields.push(format!("\"rb_relayed\": {}", byz.relayed));
            fields.push(format!("\"rb_delivered\": {}", byz.rb_delivered));
            fields.push(format!("\"rb_rejected_mac\": {}", byz.rejected_mac));
            fields.push(format!("\"rb_rejected_stale\": {}", byz.rejected_stale));
            fields.push(format!("\"rb_suppressed_inner\": {}", byz.suppressed_inner));
            fields.push(format!("\"byz_suppressed\": {}", byz.byz_suppressed));
            fields.push(format!("\"byz_rewritten\": {}", byz.byz_rewritten));
            fields.push(format!(
                "\"rb_amplification\": {}",
                json_f64(byz.amplification())
            ));
            fields.push(format!("\"agreement_checks\": {}", byz.agreement_checks));
            fields.push(format!(
                "\"agreement_violations\": {}",
                byz.agreement_violations
            ));
        }
        fields.join(", ")
    }

    /// The snapshot as one flat JSON object.
    pub fn to_json(&self) -> String {
        format!("{{{}}}", self.json_fields())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_f64_sentinels() {
        assert_eq!(json_f64(1.25), "1.25");
        assert_eq!(json_f64(f64::NAN), "-1.0");
        assert_eq!(json_f64(f64::INFINITY), "-1.0");
    }

    #[test]
    fn json_escape_neutralises_adversarial_labels() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape(r#"a"b"#), r#"a\"b"#);
        assert_eq!(json_escape(r"a\b"), r"a\\b");
        assert_eq!(json_escape("a\nb\tc"), "a\\u000ab\\u0009c");
        // A label trying to break out of its field and inject a sibling key
        // stays one (escaped) string.
        let hostile = r#"x", "agreement_violations": 0, "y": "z"#;
        let escaped = json_escape(hostile);
        assert!(!escaped.contains(r#"x", "#), "unescaped quote survived");
        assert_eq!(escaped, r#"x\", \"agreement_violations\": 0, \"y\": \"z"#);
    }

    #[test]
    fn metrics_with_hostile_scenario_label_stay_parseable() {
        let metrics = Metrics {
            algo: "exact".into(),
            guarantee: StretchGuarantee {
                alpha: 1.0,
                beta: 0.0,
                k: 1,
            },
            scenario: Some(r#"flap"2.0\x"#.into()),
            n: 4,
            m: 3,
            epoch: 0,
            spanner_edges: 3,
            rounds: 0,
            batch_changes: 0,
            dirty_total: 0,
            spanner_flips: 0,
            repair: None,
            local: None,
            flood: None,
            asim: None,
            staleness: None,
            byz: None,
        };
        let json = metrics.to_json();
        assert!(json.contains(r#""scenario": "flap\"2.0\\x""#));
        // Balanced quotes: an even count means no string leaks out.
        let unescaped = json.replace("\\\"", "");
        assert_eq!(unescaped.matches('"').count() % 2, 0);
    }
}
