//! # rspan-obs — deterministic observability for the reproduction stack
//!
//! Every layer of the workspace — the incremental engine, the delta router,
//! the discrete-event simulator and the reliable-broadcast wrapper — can
//! answer *how much* (stale rows, amplification factors, repaired rows) but
//! not *which wave paid for it*.  This crate is the deterministic event
//! trace that closes that gap:
//!
//! * a cheap [`ObsHandle`] that every layer can clone and store, keyed on
//!   **virtual time**; the default handle is *off* and every
//!   instrumentation site is behind an inlined [`ObsHandle::on`] check, so
//!   recorder-off runs execute the exact pre-instrumentation code path with
//!   zero extra allocations;
//! * a **wave-causality model**: the §2.3 repair floods already stamp every
//!   frame with `(origin, epoch)`, surfaced here as [`WaveId`] inside a
//!   [`FrameMeta`] that transports expose via `WireSize::meta()`.  The
//!   recorder attributes every delivery, drop, quorum transition and
//!   staleness episode to the wave that caused it;
//! * a structured [`DropCause`] shared between the simulator's trace and the
//!   protocol layers (`ProtocolNode::last_rx()`), so loss, crash, dedup,
//!   MAC-reject and Byzantine suppression are distinguishable in one enum;
//! * an in-memory recorder behind every enabled handle: a JSONL event log
//!   (one self-describing object per line, fields in a fixed order — same
//!   seed and config reproduce a **byte-identical** trace) plus aggregated
//!   [`Histogram`]s (per-event latency, per-wave delivery counts and bytes,
//!   per-row staleness durations), drained into an [`ObsReport`].
//!
//! ## Determinism contract
//!
//! Events carry only deterministic values (virtual timestamps, counts, node
//! and wave ids, byte sizes).  Wall-clock measurement lives in
//! `rspan-telemetry` alone, so nothing nondeterministic can reach the event
//! log, which is what makes the byte-identical replay property testable.

#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, MutexGuard};

/// Node identifier, mirrored from the graph substrate.
pub type Node = rspan_graph::Node;

/// Virtual timestamp (simulator ticks, or round index under the synchronous
/// scheduler).
pub type VTime = u64;

/// Identity of one §2.3 repair flood: the originating node together with the
/// engine epoch it repairs.  Already present in every repair frame on the
/// wire, so causality needs no wire-format change.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WaveId {
    /// Node that originated the flood.
    pub origin: Node,
    /// Engine epoch the flood repairs.
    pub epoch: u64,
}

/// What kind of frame a wave-carrying message is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum FrameKind {
    /// §2.3 link-state repair flood.
    LinkState,
    /// §2.3 tree advertisement flood.
    TreeAdvert,
    /// Reliable-broadcast INIT frame.
    RbInit,
    /// Reliable-broadcast ECHO witness frame.
    RbEcho,
    /// Reliable-broadcast READY witness frame.
    RbReady,
    /// Any other protocol message.
    #[default]
    Other,
}

impl FrameKind {
    /// Stable lowercase label used in the JSONL export.
    pub fn label(self) -> &'static str {
        match self {
            FrameKind::LinkState => "link_state",
            FrameKind::TreeAdvert => "tree_advert",
            FrameKind::RbInit => "rb_init",
            FrameKind::RbEcho => "rb_echo",
            FrameKind::RbReady => "rb_ready",
            FrameKind::Other => "other",
        }
    }
}

/// Frame-level metadata a transport can expose without changing its wire
/// format.  The default (returned by the provided `WireSize::meta()`) carries
/// no wave attribution.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct FrameMeta {
    /// Frame kind, [`FrameKind::Other`] when unattributed.
    pub kind: FrameKind,
    /// Wave the frame belongs to, if it carries one.
    pub wave: Option<WaveId>,
    /// Remaining flood TTL carried by the frame (0 when not TTL-limited).
    pub ttl: u32,
}

/// Why a frame failed to take effect — shared between the simulator's replay
/// trace (wire-level causes) and the protocol layers' receive dispositions
/// (`ProtocolNode::last_rx()`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum DropCause {
    /// Delivered and consumed — not a drop.
    #[default]
    None = 0,
    /// Bernoulli link loss exhausted its retransmission budget.
    Loss,
    /// Receiver was crashed at delivery time.
    Down,
    /// Link vanished before an un-targeted send could resolve.
    NoLink,
    /// A Byzantine fault hook suppressed the frame.
    Suppressed,
    /// Receiver had already seen this frame (flood dedup, or a duplicate /
    /// equivocating reliable-broadcast signature).
    Dedup,
    /// Reliable-broadcast MAC verification failed.
    MacReject,
    /// Frame's epoch fell outside the receiver's retain window.
    Stale,
}

/// Number of distinct [`DropCause`] values (array-indexing bound).
pub const DROP_CAUSES: usize = 8;

impl DropCause {
    /// Stable lowercase label used in the JSONL export.
    pub fn label(self) -> &'static str {
        match self {
            DropCause::None => "none",
            DropCause::Loss => "loss",
            DropCause::Down => "down",
            DropCause::NoLink => "no_link",
            DropCause::Suppressed => "suppressed",
            DropCause::Dedup => "dedup",
            DropCause::MacReject => "mac_reject",
            DropCause::Stale => "stale",
        }
    }

    /// All values, in `repr` order (for report assembly).
    pub fn all() -> [DropCause; DROP_CAUSES] {
        [
            DropCause::None,
            DropCause::Loss,
            DropCause::Down,
            DropCause::NoLink,
            DropCause::Suppressed,
            DropCause::Dedup,
            DropCause::MacReject,
            DropCause::Stale,
        ]
    }
}

/// One observable occurrence, keyed on virtual time by the caller.  `Copy`
/// with no owned data, so constructing one on the off path (which never
/// happens — sites are guarded by [`ObsHandle::on`]) could not allocate
/// anyway.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObsEvent {
    /// A repair flood was originated (or re-armed on a crashed node).
    WaveStart {
        /// Identity of the flood.
        wave: WaveId,
    },
    /// A frame was delivered and dispatched to its receiver.
    Deliver {
        /// Sender.
        from: Node,
        /// Receiver.
        to: Node,
        /// Serialized frame size.
        bytes: u64,
        /// Virtual ticks between send and delivery.
        latency: VTime,
        /// Frame attribution.
        meta: FrameMeta,
    },
    /// A frame was dropped (or delivered but discarded by the receiver).
    Drop {
        /// Sender.
        from: Node,
        /// Receiver.
        to: Node,
        /// Serialized frame size.
        bytes: u64,
        /// Why the frame failed to take effect.
        cause: DropCause,
        /// Frame attribution.
        meta: FrameMeta,
    },
    /// The engine committed a batch.
    Commit {
        /// Engine epoch after the commit.
        epoch: u64,
        /// Number of topology changes in the batch.
        batch: u32,
        /// Dirty-ball size (nodes recomputed).
        dirty: u32,
        /// Spanner edges added by the delta.
        added: u32,
        /// Spanner edges removed by the delta.
        removed: u32,
    },
    /// The delta router repaired its tables after a commit.
    Repair {
        /// Engine epoch the repair follows.
        epoch: u64,
        /// Rows marked directly by batch endpoints.
        marked_batch: u32,
        /// Rows marked by the spanner flip scan.
        marked_flips: u32,
        /// Flip/row combinations the scan proved unaffected (skipped).
        skipped: u32,
        /// Rows actually recomputed.
        repaired: u32,
        /// Spanner flips processed.
        flips: u32,
    },
    /// The compact router repaired its ball rows, landmark trees and row
    /// cache after a commit.  Cache counters are deltas since the previous
    /// commit — deterministic because the query stream is.
    LocalRepair {
        /// Engine epoch the repair follows.
        epoch: u64,
        /// Ball rows rebuilt.
        ball_rows: u32,
        /// Landmark trees repaired or built (changed by a flip, or newly
        /// elected).
        landmark_trees: u32,
        /// Landmark-set size after the repair.
        landmarks: u32,
        /// Cached rows dropped by the flip predicate or batch endpoints.
        cache_dropped: u32,
        /// Cache hits since the previous commit.
        cache_hits: u32,
        /// Cache misses (materialisations) since the previous commit.
        cache_misses: u32,
        /// LRU evictions since the previous commit.
        cache_evictions: u32,
    },
    /// A reliable-broadcast instance reached its echo quorum on a node.
    QuorumEcho {
        /// The node whose instance progressed.
        node: Node,
        /// Wave (payload origin + epoch) of the instance.
        wave: WaveId,
        /// Payload slot within the wave.
        slot: u64,
    },
    /// A reliable-broadcast instance delivered to the inner protocol.
    QuorumDeliver {
        /// The node whose instance delivered.
        node: Node,
        /// Wave (payload origin + epoch) of the instance.
        wave: WaveId,
        /// Payload slot within the wave.
        slot: u64,
    },
    /// A routing-table row's staleness episode closed: the row first lagged
    /// the post-commit tables at `since` and stopped lagging now.
    StaleRow {
        /// The row (destination node).
        row: Node,
        /// Virtual time the row first went stale.
        since: VTime,
        /// Episode length in virtual ticks.
        ticks: u64,
        /// True when the run ended with the episode still open.
        censored: bool,
    },
}

/// A cheap, cloneable, **`Send`** handle to a shared in-memory recorder — or
/// nothing.
///
/// The default handle is **off**: [`ObsHandle::on`] returns `false`, every
/// emit is a no-op behind a single branch, and no allocation or lock occurs.
/// Layers store one handle (`set_obs`, next to `set_telemetry`) and guard
/// any event-construction work with `if obs.on() { .. }`.
///
/// The handle also carries the **current virtual time**: the scheduler that
/// owns the clock calls [`ObsHandle::set_now`] and every layer below emits
/// with [`ObsHandle::emit`] without threading timestamps through call
/// signatures.
#[derive(Clone, Default)]
pub struct ObsHandle {
    inner: Option<Arc<Mutex<MemRecorder>>>,
}

impl ObsHandle {
    /// The off handle (same as `Default`).
    pub fn off() -> Self {
        ObsHandle { inner: None }
    }

    /// A handle over a fresh in-memory recorder with the given
    /// configuration.
    pub fn mem(cfg: ObsConfig) -> Self {
        ObsHandle {
            inner: Some(Arc::new(Mutex::new(MemRecorder {
                cfg,
                ..MemRecorder::default()
            }))),
        }
    }

    /// Whether a recorder is attached.  Inlined so the off path costs one
    /// predictable branch.
    #[inline(always)]
    pub fn on(&self) -> bool {
        self.inner.is_some()
    }

    /// The locked recorder, or `None` when off.
    #[inline]
    fn rec(&self) -> Option<MutexGuard<'_, MemRecorder>> {
        self.inner
            .as_ref()
            .map(|i| i.lock().expect("obs recorder poisoned"))
    }

    /// Advances the shared virtual clock.  No-op when off.
    #[inline]
    pub fn set_now(&self, t: VTime) {
        if let Some(mut rec) = self.rec() {
            rec.now = t;
        }
    }

    /// Records an event at the shared clock's current time.  No-op when off.
    #[inline]
    pub fn emit(&self, ev: ObsEvent) {
        if let Some(mut rec) = self.rec() {
            let t = rec.now;
            rec.event(t, &ev);
        }
    }

    /// Records an event at an explicit virtual time (also advances the
    /// shared clock so later [`ObsHandle::emit`] calls stay monotone).
    #[inline]
    pub fn emit_at(&self, t: VTime, ev: ObsEvent) {
        if let Some(mut rec) = self.rec() {
            rec.now = t;
            rec.event(t, &ev);
        }
    }

    /// Drains the attached recorder into its report, if any.
    pub fn take_report(&self) -> Option<ObsReport> {
        self.rec().map(|mut rec| rec.report())
    }
}

/// Configuration for the recorder behind [`ObsHandle::mem`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObsConfig {
    /// Record the full JSONL event log.  Aggregated histograms are always
    /// collected; disabling the log keeps long runs bounded in memory.
    pub events: bool,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig { events: true }
    }
}

/// Exact-value histogram and its nearest-rank summary, shared with (and now
/// owned by) `rspan-telemetry` — the deterministic counterpart of that
/// crate's lock-free log-linear `AtomicHistogram`.  Re-exported here so every
/// existing `rspan_obs::Histogram` user keeps compiling unchanged.
pub use rspan_telemetry::{HistSummary, Histogram};

/// Per-wave aggregate kept by the recorder.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct WaveStats {
    delivered: u64,
    bytes: u64,
    dropped: u64,
}

/// Structured result of a recording run: the JSONL log plus deterministic
/// aggregates.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ObsReport {
    /// JSONL event lines, in emission order (empty when
    /// [`ObsConfig::events`] was false).
    pub lines: Vec<String>,
    /// Total frames delivered and consumed.
    pub delivered: u64,
    /// Total frames dropped or discarded, any cause.
    pub dropped: u64,
    /// Drop counts by cause (nonzero causes only, `repr` order).
    pub drops_by_cause: Vec<(DropCause, u64)>,
    /// Distinct waves observed.
    pub waves: u64,
    /// Distribution of consumed deliveries per wave.
    pub wave_deliveries: HistSummary,
    /// Distribution of bytes delivered per wave.
    pub wave_bytes: HistSummary,
    /// Delivery-latency distribution in virtual ticks.
    pub latency: HistSummary,
    /// Per-row staleness-duration distribution in virtual ticks.
    pub stale_ticks: HistSummary,
    /// Staleness episodes still open when the run ended.
    pub stale_censored: u64,
    /// Echo quorums reached across all reliable-broadcast instances.
    pub quorum_echoes: u64,
    /// Reliable-broadcast deliveries to inner protocols.
    pub quorum_delivers: u64,
    /// Engine commits observed.
    pub commits: u64,
    /// Compact-router repairs observed.
    pub local_repairs: u64,
}

impl ObsReport {
    /// The JSONL log as one string (one event object per line, trailing
    /// newline when non-empty).  Byte-identical across runs with the same
    /// seed and configuration.
    pub fn to_jsonl(&self) -> String {
        if self.lines.is_empty() {
            return String::new();
        }
        let mut out = self.lines.join("\n");
        out.push('\n');
        out
    }

    /// Deterministic aggregates in the flat `"key": value` shape the
    /// session's `Metrics::json_fields` uses, for embedding in BENCH rows.
    pub fn json_fields(&self) -> String {
        let lat = summary_fields(&self.latency, "obs_latency");
        let stale = self.stale_ticks_fields();
        format!(
            "\"obs_events\": {}, \"obs_waves\": {}, \"obs_delivered\": {}, \
             \"obs_dropped\": {}, \"obs_quorum_echoes\": {}, \
             \"obs_quorum_delivers\": {}, {lat}, {stale}",
            self.lines.len(),
            self.waves,
            self.delivered,
            self.dropped,
            self.quorum_echoes,
            self.quorum_delivers,
        )
    }

    /// The staleness-duration fields appended to BENCH staleness rows.
    pub fn stale_ticks_fields(&self) -> String {
        format!(
            "\"stale_ticks_count\": {}, \"stale_ticks_p50\": {}, \
             \"stale_ticks_p99\": {}, \"stale_ticks_max\": {}",
            self.stale_ticks.count,
            self.stale_ticks.p50,
            self.stale_ticks.p99,
            self.stale_ticks.max,
        )
    }
}

fn summary_fields(s: &HistSummary, prefix: &str) -> String {
    format!(
        "\"{prefix}_count\": {}, \"{prefix}_p50\": {}, \"{prefix}_p99\": {}, \
         \"{prefix}_max\": {}",
        s.count, s.p50, s.p99, s.max,
    )
}

// ---------------------------------------------------------------------------
// Trace lint
// ---------------------------------------------------------------------------

/// The keys an event line of `kind` carries besides `t` and `kind`, or
/// `None` for a kind the recorder never renders.
fn trace_keys(kind: &str) -> Option<&'static [&'static str]> {
    Some(match kind {
        "commit" => &["epoch", "batch", "dirty", "added", "removed"],
        "deliver" => &["from", "to", "bytes", "latency", "frame"],
        "drop" => &["from", "to", "bytes", "cause", "frame"],
        "repair" => &[
            "epoch",
            "marked_batch",
            "marked_flips",
            "skipped",
            "repaired",
            "flips",
        ],
        "local_repair" => &[
            "epoch",
            "ball_rows",
            "landmark_trees",
            "landmarks",
            "cache_dropped",
            "cache_hits",
            "cache_misses",
            "cache_evictions",
        ],
        "wave_start" => &["origin", "epoch"],
        "quorum_echo" | "quorum_deliver" => &["node", "origin", "epoch", "slot"],
        "stale_row" => &["row", "since", "ticks", "censored"],
        _ => return None,
    })
}

/// Splits one flat JSON object into `(key, raw value)` pairs, string values
/// still quoted; `None` unless every value is a string, bool or number.
fn flat_fields(line: &str) -> Option<Vec<(&str, &str)>> {
    let mut rest = line.strip_prefix('{')?.strip_suffix('}')?;
    let mut fields = Vec::new();
    loop {
        let (key, after) = rest.strip_prefix('"')?.split_once("\":")?;
        let len = match after.strip_prefix('"') {
            Some(s) => s.find('"')? + 2,
            None => after.find(',').unwrap_or(after.len()),
        };
        let (value, tail) = after.split_at(len);
        let scalar = value.starts_with('"')
            || value == "true"
            || value == "false"
            || value.parse::<f64>().is_ok();
        if !scalar {
            return None;
        }
        fields.push((key, value));
        match tail.strip_prefix(',') {
            Some(next) => rest = next,
            None if tail.is_empty() => return Some(fields),
            None => return None,
        }
    }
}

/// Validates the JSONL event log of one recorded run, as
/// [`ObsReport::to_jsonl`] renders it: at least one line; every line a flat
/// object of a known `kind` with `t` and that kind's keys; `t`
/// non-decreasing; `commit` epochs consecutive from 1; each `local_repair`
/// on the latest commit's epoch; each `wave_start` of a committed epoch;
/// and every other event that names a wave `(origin, epoch)` naming a
/// started one.  Returns the first violation.  The sibling of
/// `rspan_telemetry::lint_prometheus`.
///
/// Byzantine runs can break the last rule legitimately: a replaying node
/// re-stamps frames with an older epoch, naming waves that never started.
pub fn lint_trace(jsonl: &str) -> Result<(), String> {
    if jsonl.is_empty() {
        return Err("empty trace".into());
    }
    let mut last_t = 0u64;
    let mut epoch = 0u64;
    let mut waves = BTreeSet::new();
    for (lineno, line) in jsonl.lines().enumerate() {
        let fail = |what: String| format!("line {}: {what}: {line}", lineno + 1);
        let fields = flat_fields(line).ok_or_else(|| fail("not a flat JSON object".into()))?;
        let get = |key: &str| fields.iter().find(|(k, _)| *k == key).map(|&(_, v)| v);
        let num = |key: &str| {
            get(key)
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| fail(format!("\"{key}\" is not a count")))
        };
        let kind = get("kind")
            .and_then(|v| v.strip_prefix('"')?.strip_suffix('"'))
            .ok_or_else(|| fail("no kind".into()))?;
        let keys = trace_keys(kind).ok_or_else(|| fail(format!("unknown kind {kind:?}")))?;
        if let Some(key) = ["t"].iter().chain(keys).find(|k| get(k).is_none()) {
            return Err(fail(format!("{kind} without {key:?}")));
        }
        let t = num("t")?;
        if t < last_t {
            return Err(fail(format!("t went back from {last_t}")));
        }
        last_t = t;
        match kind {
            "commit" => {
                let e = num("epoch")?;
                if e != epoch + 1 {
                    return Err(fail(format!("commit skipped from epoch {epoch}")));
                }
                epoch = e;
            }
            "local_repair" if num("epoch")? != epoch => {
                return Err(fail(format!("repair off the current epoch {epoch}")));
            }
            "wave_start" => {
                let e = num("epoch")?;
                if e == 0 || e > epoch {
                    return Err(fail(format!("wave of an uncommitted epoch (at {epoch})")));
                }
                waves.insert((num("origin")?, e));
            }
            _ if get("origin").is_some() => {
                let wave = (num("origin")?, num("epoch")?);
                if !waves.contains(&wave) {
                    return Err(fail(format!("wave {wave:?} never started")));
                }
            }
            _ => {}
        }
    }
    Ok(())
}

/// The recorder behind an enabled [`ObsHandle`]: in-memory JSONL log plus
/// aggregates.
#[derive(Default)]
struct MemRecorder {
    cfg: ObsConfig,
    /// The shared virtual clock ([`ObsHandle::set_now`]).
    now: VTime,
    lines: Vec<String>,
    delivered: u64,
    drops: [u64; DROP_CAUSES],
    latency: Histogram,
    stale: Histogram,
    stale_censored: u64,
    quorum_echoes: u64,
    quorum_delivers: u64,
    commits: u64,
    local_repairs: u64,
    waves: BTreeMap<(u64, Node), WaveStats>,
}

impl MemRecorder {
    fn wave_entry(&mut self, wave: WaveId) -> &mut WaveStats {
        self.waves.entry((wave.epoch, wave.origin)).or_default()
    }

    fn render(t: VTime, ev: &ObsEvent) -> String {
        fn meta_fields(meta: &FrameMeta) -> String {
            match meta.wave {
                Some(w) => format!(
                    ",\"frame\":\"{}\",\"origin\":{},\"epoch\":{},\"ttl\":{}",
                    meta.kind.label(),
                    w.origin,
                    w.epoch,
                    meta.ttl
                ),
                None => format!(",\"frame\":\"{}\"", meta.kind.label()),
            }
        }
        match ev {
            ObsEvent::WaveStart { wave } => format!(
                "{{\"t\":{t},\"kind\":\"wave_start\",\"origin\":{},\"epoch\":{}}}",
                wave.origin, wave.epoch
            ),
            ObsEvent::Deliver {
                from,
                to,
                bytes,
                latency,
                meta,
            } => format!(
                "{{\"t\":{t},\"kind\":\"deliver\",\"from\":{from},\"to\":{to},\
                 \"bytes\":{bytes},\"latency\":{latency}{}}}",
                meta_fields(meta)
            ),
            ObsEvent::Drop {
                from,
                to,
                bytes,
                cause,
                meta,
            } => format!(
                "{{\"t\":{t},\"kind\":\"drop\",\"from\":{from},\"to\":{to},\
                 \"bytes\":{bytes},\"cause\":\"{}\"{}}}",
                cause.label(),
                meta_fields(meta)
            ),
            ObsEvent::Commit {
                epoch,
                batch,
                dirty,
                added,
                removed,
            } => format!(
                "{{\"t\":{t},\"kind\":\"commit\",\"epoch\":{epoch},\"batch\":{batch},\
                 \"dirty\":{dirty},\"added\":{added},\"removed\":{removed}}}"
            ),
            ObsEvent::Repair {
                epoch,
                marked_batch,
                marked_flips,
                skipped,
                repaired,
                flips,
            } => format!(
                "{{\"t\":{t},\"kind\":\"repair\",\"epoch\":{epoch},\
                 \"marked_batch\":{marked_batch},\"marked_flips\":{marked_flips},\
                 \"skipped\":{skipped},\"repaired\":{repaired},\"flips\":{flips}}}"
            ),
            ObsEvent::LocalRepair {
                epoch,
                ball_rows,
                landmark_trees,
                landmarks,
                cache_dropped,
                cache_hits,
                cache_misses,
                cache_evictions,
            } => format!(
                "{{\"t\":{t},\"kind\":\"local_repair\",\"epoch\":{epoch},\
                 \"ball_rows\":{ball_rows},\"landmark_trees\":{landmark_trees},\
                 \"landmarks\":{landmarks},\"cache_dropped\":{cache_dropped},\
                 \"cache_hits\":{cache_hits},\"cache_misses\":{cache_misses},\
                 \"cache_evictions\":{cache_evictions}}}"
            ),
            ObsEvent::QuorumEcho { node, wave, slot } => format!(
                "{{\"t\":{t},\"kind\":\"quorum_echo\",\"node\":{node},\
                 \"origin\":{},\"epoch\":{},\"slot\":{slot}}}",
                wave.origin, wave.epoch
            ),
            ObsEvent::QuorumDeliver { node, wave, slot } => format!(
                "{{\"t\":{t},\"kind\":\"quorum_deliver\",\"node\":{node},\
                 \"origin\":{},\"epoch\":{},\"slot\":{slot}}}",
                wave.origin, wave.epoch
            ),
            ObsEvent::StaleRow {
                row,
                since,
                ticks,
                censored,
            } => format!(
                "{{\"t\":{t},\"kind\":\"stale_row\",\"row\":{row},\"since\":{since},\
                 \"ticks\":{ticks},\"censored\":{censored}}}"
            ),
        }
    }

    fn event(&mut self, t: VTime, ev: &ObsEvent) {
        if self.cfg.events {
            self.lines.push(Self::render(t, ev));
        }
        match ev {
            ObsEvent::WaveStart { wave } => {
                self.wave_entry(*wave);
            }
            ObsEvent::Deliver {
                bytes,
                latency,
                meta,
                ..
            } => {
                self.delivered += 1;
                self.latency.push(*latency);
                if let Some(w) = meta.wave {
                    let entry = self.wave_entry(w);
                    entry.delivered += 1;
                    entry.bytes += bytes;
                }
            }
            ObsEvent::Drop { cause, meta, .. } => {
                self.drops[*cause as usize] += 1;
                if let Some(w) = meta.wave {
                    self.wave_entry(w).dropped += 1;
                }
            }
            ObsEvent::Commit { .. } => self.commits += 1,
            ObsEvent::Repair { .. } => {}
            ObsEvent::LocalRepair { .. } => self.local_repairs += 1,
            ObsEvent::QuorumEcho { .. } => self.quorum_echoes += 1,
            ObsEvent::QuorumDeliver { .. } => self.quorum_delivers += 1,
            ObsEvent::StaleRow {
                ticks, censored, ..
            } => {
                self.stale.push(*ticks);
                if *censored {
                    self.stale_censored += 1;
                }
            }
        }
    }

    fn report(&mut self) -> ObsReport {
        let mut wave_deliveries = Histogram::default();
        let mut wave_bytes = Histogram::default();
        for stats in self.waves.values() {
            wave_deliveries.push(stats.delivered);
            wave_bytes.push(stats.bytes);
        }
        let drops_by_cause: Vec<(DropCause, u64)> = DropCause::all()
            .into_iter()
            .filter(|&c| self.drops[c as usize] > 0)
            .map(|c| (c, self.drops[c as usize]))
            .collect();
        ObsReport {
            lines: std::mem::take(&mut self.lines),
            delivered: self.delivered,
            dropped: self.drops.iter().sum::<u64>() - self.drops[DropCause::None as usize],
            drops_by_cause,
            waves: self.waves.len() as u64,
            wave_deliveries: wave_deliveries.summary(),
            wave_bytes: wave_bytes.summary(),
            latency: self.latency.summary(),
            stale_ticks: self.stale.summary(),
            stale_censored: self.stale_censored,
            quorum_echoes: self.quorum_echoes,
            quorum_delivers: self.quorum_delivers,
            commits: self.commits,
            local_repairs: self.local_repairs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave(origin: Node, epoch: u64) -> WaveId {
        WaveId { origin, epoch }
    }

    #[test]
    fn off_handle_is_inert() {
        let obs = ObsHandle::default();
        assert!(!obs.on());
        obs.set_now(7);
        obs.emit(ObsEvent::WaveStart { wave: wave(1, 2) });
        assert!(obs.take_report().is_none());
    }

    #[test]
    fn histogram_nearest_rank_percentiles() {
        let mut h = Histogram::default();
        for v in 1..=100u64 {
            h.push(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50, 50);
        assert_eq!(s.p99, 99);
        assert_eq!(s.max, 100);
        assert_eq!(Histogram::default().summary(), HistSummary::default());
        let mut one = Histogram::default();
        one.push(42);
        let s = one.summary();
        assert_eq!((s.p50, s.p99, s.max), (42, 42, 42));
    }

    #[test]
    fn mem_recorder_aggregates_and_renders() {
        let obs = ObsHandle::mem(ObsConfig::default());
        let w = wave(3, 1);
        obs.emit_at(0, ObsEvent::WaveStart { wave: w });
        obs.emit_at(
            2,
            ObsEvent::Deliver {
                from: 3,
                to: 4,
                bytes: 28,
                latency: 2,
                meta: FrameMeta {
                    kind: FrameKind::LinkState,
                    wave: Some(w),
                    ttl: 3,
                },
            },
        );
        obs.emit_at(
            3,
            ObsEvent::Drop {
                from: 3,
                to: 5,
                bytes: 28,
                cause: DropCause::Loss,
                meta: FrameMeta {
                    kind: FrameKind::LinkState,
                    wave: Some(w),
                    ttl: 3,
                },
            },
        );
        obs.emit_at(
            4,
            ObsEvent::StaleRow {
                row: 9,
                since: 1,
                ticks: 3,
                censored: false,
            },
        );
        let report = obs.take_report().expect("recorder attached");
        assert_eq!(report.lines.len(), 4);
        assert_eq!(
            report.lines[0],
            "{\"t\":0,\"kind\":\"wave_start\",\"origin\":3,\"epoch\":1}"
        );
        assert_eq!(
            report.lines[1],
            "{\"t\":2,\"kind\":\"deliver\",\"from\":3,\"to\":4,\"bytes\":28,\
             \"latency\":2,\"frame\":\"link_state\",\"origin\":3,\"epoch\":1,\"ttl\":3}"
        );
        assert_eq!(report.delivered, 1);
        assert_eq!(report.dropped, 1);
        assert_eq!(report.drops_by_cause, vec![(DropCause::Loss, 1)]);
        assert_eq!(report.waves, 1);
        assert_eq!(report.wave_deliveries.max, 1);
        assert_eq!(report.wave_bytes.max, 28);
        assert_eq!(report.stale_ticks.count, 1);
        assert_eq!(report.stale_ticks.p50, 3);
        // Every line parses as a flat JSON object (no nested quoting bugs).
        for line in &report.lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert_eq!(line.matches('{').count(), 1, "{line}");
        }
    }

    #[test]
    fn identical_event_streams_render_identically() {
        let run = || {
            let obs = ObsHandle::mem(ObsConfig::default());
            for t in 0..50u64 {
                obs.emit_at(
                    t,
                    ObsEvent::Deliver {
                        from: (t % 7) as Node,
                        to: (t % 5) as Node,
                        bytes: 20 + t,
                        latency: t % 3,
                        meta: FrameMeta {
                            kind: FrameKind::TreeAdvert,
                            wave: Some(wave((t % 4) as Node, t / 10)),
                            ttl: 2,
                        },
                    },
                );
            }
            obs.take_report().expect("recorder attached").to_jsonl()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.ends_with('\n'));
    }

    #[test]
    fn events_off_keeps_aggregates() {
        let obs = ObsHandle::mem(ObsConfig { events: false });
        obs.emit_at(
            1,
            ObsEvent::QuorumEcho {
                node: 2,
                wave: wave(1, 1),
                slot: 0,
            },
        );
        let report = obs.take_report().expect("recorder attached");
        assert!(report.lines.is_empty());
        assert_eq!(report.quorum_echoes, 1);
        assert_eq!(report.to_jsonl(), "");
    }

    /// One run as the recorder renders it: a commit, its local repair, a
    /// wave with a delivery, an unattributed drop and an echo quorum, a
    /// stale row, then the next commit.
    fn run_trace() -> String {
        let obs = ObsHandle::mem(ObsConfig::default());
        let w = wave(3, 1);
        let meta = FrameMeta {
            kind: FrameKind::LinkState,
            wave: Some(w),
            ttl: 3,
        };
        let commit = |epoch| ObsEvent::Commit {
            epoch,
            batch: 2,
            dirty: 5,
            added: 1,
            removed: 0,
        };
        obs.emit_at(0, commit(1));
        obs.emit(ObsEvent::LocalRepair {
            epoch: 1,
            ball_rows: 4,
            landmark_trees: 1,
            landmarks: 2,
            cache_dropped: 0,
            cache_hits: 0,
            cache_misses: 0,
            cache_evictions: 0,
        });
        obs.emit(ObsEvent::WaveStart { wave: w });
        obs.emit_at(
            2,
            ObsEvent::Deliver {
                from: 3,
                to: 4,
                bytes: 28,
                latency: 2,
                meta,
            },
        );
        obs.emit_at(
            2,
            ObsEvent::Drop {
                from: 4,
                to: 5,
                bytes: 9,
                cause: DropCause::Loss,
                meta: FrameMeta::default(),
            },
        );
        obs.emit_at(
            3,
            ObsEvent::QuorumEcho {
                node: 4,
                wave: w,
                slot: 0,
            },
        );
        obs.emit_at(
            4,
            ObsEvent::StaleRow {
                row: 9,
                since: 1,
                ticks: 3,
                censored: false,
            },
        );
        obs.emit_at(5, commit(2));
        obs.take_report().expect("recorder attached").to_jsonl()
    }

    #[test]
    fn recorded_runs_lint_clean() {
        lint_trace(&run_trace()).expect("a recorded run must lint clean");
    }

    #[test]
    fn lint_rejects_malformed_traces() {
        let run = run_trace();
        let with = |line: &str| lint_trace(&format!("{run}{line}\n"));
        assert_eq!(lint_trace(""), Err("empty trace".into()));
        // One line appended to a clean run per violation class, with the
        // words its message must carry.
        for (line, why) in [
            ("not json", "not a flat JSON object"),
            (r#"{"t":5,"kind":"teleport"}"#, "unknown kind"),
            (
                r#"{"t":5,"kind":"wave_start","origin":3}"#,
                "without \"epoch\"",
            ),
            (
                r#"{"kind":"wave_start","origin":3,"epoch":2}"#,
                "without \"t\"",
            ),
            (
                r#"{"t":4,"kind":"wave_start","origin":3,"epoch":2}"#,
                "t went back",
            ),
            (
                r#"{"t":6,"kind":"commit","epoch":4,"batch":1,"dirty":1,"added":0,"removed":0}"#,
                "commit skipped",
            ),
            (
                r#"{"t":6,"kind":"local_repair","epoch":1,"ball_rows":0,"landmark_trees":0,"landmarks":2,"cache_dropped":0,"cache_hits":0,"cache_misses":0,"cache_evictions":0}"#,
                "off the current epoch",
            ),
            (
                r#"{"t":6,"kind":"wave_start","origin":1,"epoch":3}"#,
                "uncommitted epoch",
            ),
            (
                r#"{"t":6,"kind":"deliver","from":1,"to":2,"bytes":9,"latency":1,"frame":"tree_advert","origin":1,"epoch":2,"ttl":1}"#,
                "never started",
            ),
            (
                r#"{"t":6,"kind":"quorum_deliver","node":2,"origin":1,"epoch":2,"slot":0}"#,
                "never started",
            ),
        ] {
            let err = with(line).expect_err(line);
            assert!(err.contains(why), "{line}: {err}");
        }
        // The same frame passes once its wave has started.
        assert!(with(
            "{\"t\":6,\"kind\":\"wave_start\",\"origin\":1,\"epoch\":2}\n\
             {\"t\":6,\"kind\":\"quorum_deliver\",\"node\":2,\"origin\":1,\"epoch\":2,\"slot\":0}"
        )
        .is_ok());
    }

    #[test]
    fn emit_tracks_shared_clock() {
        let obs = ObsHandle::mem(ObsConfig::default());
        obs.set_now(5);
        obs.emit(ObsEvent::WaveStart { wave: wave(0, 1) });
        obs.emit_at(9, ObsEvent::WaveStart { wave: wave(1, 1) });
        obs.emit(ObsEvent::WaveStart { wave: wave(2, 1) });
        let report = obs.take_report().expect("recorder attached");
        assert!(report.lines[0].starts_with("{\"t\":5,"));
        assert!(report.lines[1].starts_with("{\"t\":9,"));
        assert!(report.lines[2].starts_with("{\"t\":9,"));
    }
}
