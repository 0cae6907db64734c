//! # rspan-telemetry — lock-free live telemetry for the concurrent era
//!
//! `rspan-obs` records *deterministic* traces keyed on virtual time and
//! keeps wall-clock data out of the replayable channel.  This crate is the
//! workspace's only wall-clock instrument: an always-on-capable, **`Sync`**,
//! lock-free metrics runtime whose spans work from inside the
//! `std::thread::scope` workers of `commit_parallel` —
//!
//! * a static registry of **sharded atomic counters and gauges**: one
//!   cache-line-padded shard per worker thread (round-robin thread→shard
//!   assignment), `Relaxed` `fetch_add` on the hot path, folded on read —
//!   folds taken after a `join` are exact (no lost increments);
//! * **log-linear atomic-bucket histograms** (16 sub-buckets per power-of-two
//!   octave, exact below 16, relative error ≤ 1/16 above) with nearest-rank
//!   p50/p99 estimation, an atomic max, and an exact sum;
//! * RAII [`SpanTimer`] phase timers that work from *inside* parallel workers
//!   and future transport threads, accumulating calls / wall-ns / items per
//!   [`Span`];
//! * a **disabled path pinned to zero overhead**: the off handle is one
//!   `Option` branch per call site — no `Instant::now()`, no allocation, no
//!   atomics (enforced by a counting-allocator test, like the obs off path);
//! * [`TelemetrySnapshot`] folds with flat `json_fields()` (the
//!   `Metrics::json_fields` shape) and a Prometheus-style text exposition
//!   ([`TelemetrySnapshot::render_prometheus`], checked by
//!   [`lint_prometheus`]).
//!
//! ## Determinism contract
//!
//! Telemetry measures wall-clock reality and therefore **never** feeds the
//! deterministic channels: `Metrics`, obs event logs and BENCH deterministic
//! keys are bit-identical with telemetry enabled or disabled (property-tested
//! in `rspan-session`).  The only shared type is the exact [`Histogram`],
//! which `rspan-obs` re-exports — it is deterministic by construction.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Exact histogram (shared with rspan-obs; deterministic channel)
// ---------------------------------------------------------------------------

/// Exact-value histogram: stores every sample, sorts at summary time.
/// Deterministic (no binning drift) and cheap at the scales the recorders
/// see.  `rspan-obs` re-exports this type — it used to live there.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    samples: Vec<u64>,
}

impl Histogram {
    /// Adds one sample.
    pub fn push(&mut self, v: u64) {
        self.samples.push(v);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Sorted-copy summary with nearest-rank percentiles.
    pub fn summary(&self) -> HistSummary {
        if self.samples.is_empty() {
            return HistSummary::default();
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let rank = |p: f64| -> u64 {
            let idx = ((p * sorted.len() as f64).ceil() as usize).max(1) - 1;
            sorted[idx.min(sorted.len() - 1)]
        };
        HistSummary {
            count: sorted.len() as u64,
            p50: rank(0.50),
            p99: rank(0.99),
            max: *sorted.last().expect("non-empty"),
        }
    }
}

/// Nearest-rank percentile summary of a [`Histogram`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistSummary {
    /// Number of samples.
    pub count: u64,
    /// Median (nearest-rank).
    pub p50: u64,
    /// 99th percentile (nearest-rank).
    pub p99: u64,
    /// Largest sample.
    pub max: u64,
}

// ---------------------------------------------------------------------------
// Metric identifier enums
// ---------------------------------------------------------------------------

/// A monotonically increasing event count.  The fixed set keeps the registry
/// a flat array (no name interning, no hashing on the hot path).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Counter {
    /// Engine: batches committed.
    EngineCommits = 0,
    /// Engine: topology changes across all committed batches.
    EngineBatchChanges,
    /// Engine: nodes marked dirty (the dirty ball, a superset of the
    /// rebuilt trees).
    EngineDirtyNodes,
    /// Engine: dominator trees actually rebuilt (the parallel-worker unit of
    /// work).
    EngineTreesRebuilt,
    /// Delta router: repair passes run (one per commit).
    RouterRepairs,
    /// Delta router: table rows recomputed.
    RouterRepairedRows,
    /// Delta router: spanner flips processed by the sweep.
    RouterFlips,
    /// Delta router: flip/row combinations proven unaffected and skipped.
    RouterSkippedRows,
    /// Compact router: repair passes run (one per commit).
    CompactRepairs,
    /// Compact router: ball-local rows rebuilt.
    CompactBallRows,
    /// Compact router: landmark trees repaired or built.
    CompactTreesRebuilt,
    /// Compact router: row-cache hits on the query path.
    CacheHits,
    /// Compact router: row-cache misses on the query path.
    CacheMisses,
    /// Compact router: full rows materialised on demand.
    CacheMaterialized,
    /// Compact router: LRU evictions.
    CacheEvictions,
    /// Simulator: events processed by the discrete-event loop.
    SimEvents,
    /// Simulator: wire transmissions (including lossy retries).
    SimTransmissions,
    /// Simulator: frames delivered to a live receiver.
    SimDelivered,
    /// Simulator: bytes handed to the wire.
    SimBytesSent,
    /// Simulator: bytes delivered to live receivers.
    SimBytesDelivered,
    /// Simulator: frames dropped by link loss after the retry budget.
    SimDropLoss,
    /// Simulator: frames dropped because the receiver was crashed.
    SimDropDown,
    /// Simulator: frames dropped because the link vanished.
    SimDropNoLink,
    /// Simulator: frames suppressed by a Byzantine fault hook.
    SimDropSuppressed,
    /// Simulator: frames discarded by receiver dedup.
    SimDropDedup,
    /// Simulator: frames rejected by MAC verification.
    SimDropMacReject,
    /// Simulator: frames outside the receiver's epoch retain window.
    SimDropStale,
    /// Reliable broadcast: echo quorums reached.
    RbEchoQuorums,
    /// Reliable broadcast: payloads delivered to inner protocols.
    RbDelivers,
    /// Real transport: frames enqueued for the wire (both backends).
    NetFramesSent,
    /// Real transport: frames delivered to protocol nodes.
    NetFramesRecv,
    /// Real transport: payload bytes enqueued for the wire (`WireSize`).
    NetBytesSent,
    /// Real transport: payload bytes delivered to protocol nodes.
    NetBytesRecv,
    /// Real transport: TCP reconnect attempts after a worker's connect or
    /// write to a peer failed.
    NetReconnects,
    /// Real transport: frames a TCP reader rejected (oversize, undecodable
    /// or with a forged sender).
    NetFramesRejected,
}

/// Number of distinct [`Counter`] values (array-indexing bound).
pub const COUNTERS: usize = 35;

impl Counter {
    /// Stable snake_case label used in expositions (`rspan_<label>_total`).
    pub fn label(self) -> &'static str {
        match self {
            Counter::EngineCommits => "engine_commits",
            Counter::EngineBatchChanges => "engine_batch_changes",
            Counter::EngineDirtyNodes => "engine_dirty_nodes",
            Counter::EngineTreesRebuilt => "engine_trees_rebuilt",
            Counter::RouterRepairs => "router_repairs",
            Counter::RouterRepairedRows => "router_repaired_rows",
            Counter::RouterFlips => "router_flips",
            Counter::RouterSkippedRows => "router_skipped_rows",
            Counter::CompactRepairs => "compact_repairs",
            Counter::CompactBallRows => "compact_ball_rows",
            Counter::CompactTreesRebuilt => "compact_trees_rebuilt",
            Counter::CacheHits => "cache_hits",
            Counter::CacheMisses => "cache_misses",
            Counter::CacheMaterialized => "cache_materialized",
            Counter::CacheEvictions => "cache_evictions",
            Counter::SimEvents => "sim_events",
            Counter::SimTransmissions => "sim_transmissions",
            Counter::SimDelivered => "sim_delivered",
            Counter::SimBytesSent => "sim_bytes_sent",
            Counter::SimBytesDelivered => "sim_bytes_delivered",
            Counter::SimDropLoss => "sim_drop_loss",
            Counter::SimDropDown => "sim_drop_down",
            Counter::SimDropNoLink => "sim_drop_no_link",
            Counter::SimDropSuppressed => "sim_drop_suppressed",
            Counter::SimDropDedup => "sim_drop_dedup",
            Counter::SimDropMacReject => "sim_drop_mac_reject",
            Counter::SimDropStale => "sim_drop_stale",
            Counter::RbEchoQuorums => "rb_echo_quorums",
            Counter::RbDelivers => "rb_delivers",
            Counter::NetFramesSent => "net_frames_sent",
            Counter::NetFramesRecv => "net_frames_recv",
            Counter::NetBytesSent => "net_bytes_sent",
            Counter::NetBytesRecv => "net_bytes_recv",
            Counter::NetReconnects => "net_reconnects",
            Counter::NetFramesRejected => "net_frames_rejected",
        }
    }

    /// One-line HELP text for the exposition.
    pub fn help(self) -> &'static str {
        match self {
            Counter::EngineCommits => "Engine batches committed",
            Counter::EngineBatchChanges => "Topology changes committed",
            Counter::EngineDirtyNodes => "Nodes marked dirty by commits",
            Counter::EngineTreesRebuilt => "Dominator trees rebuilt",
            Counter::RouterRepairs => "Delta-router repair passes",
            Counter::RouterRepairedRows => "Routing rows recomputed",
            Counter::RouterFlips => "Spanner flips processed",
            Counter::RouterSkippedRows => "Flip/row pairs proven unaffected",
            Counter::CompactRepairs => "Compact-router repair passes",
            Counter::CompactBallRows => "Ball-local rows rebuilt",
            Counter::CompactTreesRebuilt => "Landmark trees repaired or built",
            Counter::CacheHits => "Row-cache hits",
            Counter::CacheMisses => "Row-cache misses",
            Counter::CacheMaterialized => "Rows materialised on demand",
            Counter::CacheEvictions => "Row-cache LRU evictions",
            Counter::SimEvents => "Discrete events processed",
            Counter::SimTransmissions => "Wire transmissions",
            Counter::SimDelivered => "Frames delivered",
            Counter::SimBytesSent => "Bytes handed to the wire",
            Counter::SimBytesDelivered => "Bytes delivered",
            Counter::SimDropLoss => "Frames dropped: link loss",
            Counter::SimDropDown => "Frames dropped: receiver down",
            Counter::SimDropNoLink => "Frames dropped: link vanished",
            Counter::SimDropSuppressed => "Frames dropped: Byzantine suppression",
            Counter::SimDropDedup => "Frames dropped: receiver dedup",
            Counter::SimDropMacReject => "Frames dropped: MAC reject",
            Counter::SimDropStale => "Frames dropped: stale epoch",
            Counter::RbEchoQuorums => "Echo quorums reached",
            Counter::RbDelivers => "Reliable-broadcast deliveries",
            Counter::NetFramesSent => "Real-transport frames sent",
            Counter::NetFramesRecv => "Real-transport frames received",
            Counter::NetBytesSent => "Real-transport payload bytes sent",
            Counter::NetBytesRecv => "Real-transport payload bytes received",
            Counter::NetReconnects => "Real-transport TCP reconnects",
            Counter::NetFramesRejected => "Real-transport frames rejected by a reader",
        }
    }

    /// All values, in `repr` order (for snapshot assembly).
    pub fn all() -> [Counter; COUNTERS] {
        [
            Counter::EngineCommits,
            Counter::EngineBatchChanges,
            Counter::EngineDirtyNodes,
            Counter::EngineTreesRebuilt,
            Counter::RouterRepairs,
            Counter::RouterRepairedRows,
            Counter::RouterFlips,
            Counter::RouterSkippedRows,
            Counter::CompactRepairs,
            Counter::CompactBallRows,
            Counter::CompactTreesRebuilt,
            Counter::CacheHits,
            Counter::CacheMisses,
            Counter::CacheMaterialized,
            Counter::CacheEvictions,
            Counter::SimEvents,
            Counter::SimTransmissions,
            Counter::SimDelivered,
            Counter::SimBytesSent,
            Counter::SimBytesDelivered,
            Counter::SimDropLoss,
            Counter::SimDropDown,
            Counter::SimDropNoLink,
            Counter::SimDropSuppressed,
            Counter::SimDropDedup,
            Counter::SimDropMacReject,
            Counter::SimDropStale,
            Counter::RbEchoQuorums,
            Counter::RbDelivers,
            Counter::NetFramesSent,
            Counter::NetFramesRecv,
            Counter::NetBytesSent,
            Counter::NetBytesRecv,
            Counter::NetReconnects,
            Counter::NetFramesRejected,
        ]
    }
}

/// An instantaneous level, updated by signed deltas (sharded; the fold sums
/// per-shard signed totals, so any thread can move the level).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Gauge {
    /// Simulator: pending events in the priority heap.
    SimHeapDepth = 0,
    /// Compact router: rows currently resident in the LRU cache.
    CacheEntries,
    /// Real transport: frames enqueued but not yet processed (must fold to
    /// zero at quiescence).
    NetQueueDepth,
}

/// Number of distinct [`Gauge`] values (array-indexing bound).
pub const GAUGES: usize = 3;

impl Gauge {
    /// Stable snake_case label used in expositions (`rspan_<label>`).
    pub fn label(self) -> &'static str {
        match self {
            Gauge::SimHeapDepth => "sim_heap_depth",
            Gauge::CacheEntries => "cache_entries",
            Gauge::NetQueueDepth => "net_queue_depth",
        }
    }

    /// One-line HELP text for the exposition.
    pub fn help(self) -> &'static str {
        match self {
            Gauge::SimHeapDepth => "Pending events in the simulator heap",
            Gauge::CacheEntries => "Rows resident in the row cache",
            Gauge::NetQueueDepth => "Real-transport frames in flight",
        }
    }

    /// All values, in `repr` order (for snapshot assembly).
    pub fn all() -> [Gauge; GAUGES] {
        [
            Gauge::SimHeapDepth,
            Gauge::CacheEntries,
            Gauge::NetQueueDepth,
        ]
    }
}

/// A profiled wall-clock span: the engine commit phases, the router repair
/// phases and the simulator's event loop.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[repr(u8)]
pub enum Span {
    /// Engine: dirty-ball BFS marking around batch endpoints.
    #[default]
    Mark = 0,
    /// Engine: retiring the dirty trees that can change.
    Retire,
    /// Engine: rebuilding the retired trees (per-worker busy time).
    Rebuild,
    /// Engine: installing the rebuilt trees.
    Install,
    /// Engine: assembling the spanner delta.
    Delta,
    /// Engine: adjacency compaction.
    Compact,
    /// Router: the batched flip scan marking affected rows.
    RepairSweep,
    /// Router: refilling the marked rows.
    RepairFill,
    /// Compact router: rebuilding dirty ball-local rows.
    BallRepair,
    /// Compact router: re-electing landmarks and rebuilding dirty trees.
    LandmarkRepair,
    /// Compact router: on-demand full-row materialisation.
    Materialize,
    /// Simulator: the discrete-event run loop.
    SimRun,
}

/// Number of distinct [`Span`] values (array-indexing bound).
pub const SPANS: usize = 12;

impl Span {
    /// Stable snake_case label used in expositions.
    pub fn label(self) -> &'static str {
        match self {
            Span::Mark => "mark",
            Span::Retire => "retire",
            Span::Rebuild => "rebuild",
            Span::Install => "install",
            Span::Delta => "delta",
            Span::Compact => "compact",
            Span::RepairSweep => "repair_sweep",
            Span::RepairFill => "repair_fill",
            Span::BallRepair => "ball_repair",
            Span::LandmarkRepair => "landmark_repair",
            Span::Materialize => "materialize",
            Span::SimRun => "sim_run",
        }
    }

    /// All values, in `repr` order (for snapshot assembly).
    pub fn all() -> [Span; SPANS] {
        [
            Span::Mark,
            Span::Retire,
            Span::Rebuild,
            Span::Install,
            Span::Delta,
            Span::Compact,
            Span::RepairSweep,
            Span::RepairFill,
            Span::BallRepair,
            Span::LandmarkRepair,
            Span::Materialize,
            Span::SimRun,
        ]
    }

    /// Engine commit spans, in pipeline order.
    pub fn commit_spans() -> [Span; 6] {
        [
            Span::Mark,
            Span::Retire,
            Span::Rebuild,
            Span::Install,
            Span::Delta,
            Span::Compact,
        ]
    }

    /// Router repair spans (delta and compact), in pipeline order.
    pub fn repair_spans() -> [Span; 5] {
        [
            Span::RepairSweep,
            Span::RepairFill,
            Span::BallRepair,
            Span::LandmarkRepair,
            Span::Materialize,
        ]
    }
}

/// A live wall-clock distribution kept in a lock-free log-linear histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Hist {
    /// Simulator heap depth sampled at every event pop.
    HeapDepth = 0,
    /// Wall nanoseconds per engine commit.
    CommitNs,
    /// Wall nanoseconds per router repair pass (delta + compact).
    RepairNs,
    /// Real transport: send-to-receive latency in wall nanoseconds.
    NetLatencyNs,
}

/// Number of distinct [`Hist`] values (array-indexing bound).
pub const HISTS: usize = 4;

impl Hist {
    /// Stable snake_case label used in expositions.
    pub fn label(self) -> &'static str {
        match self {
            Hist::HeapDepth => "heap_depth",
            Hist::CommitNs => "commit_ns",
            Hist::RepairNs => "repair_ns",
            Hist::NetLatencyNs => "net_latency_ns",
        }
    }

    /// One-line HELP text for the exposition.
    pub fn help(self) -> &'static str {
        match self {
            Hist::HeapDepth => "Simulator heap depth at event pop",
            Hist::CommitNs => "Wall nanoseconds per engine commit",
            Hist::RepairNs => "Wall nanoseconds per repair pass",
            Hist::NetLatencyNs => "Real-transport send-to-receive wall nanoseconds",
        }
    }

    /// All values, in `repr` order (for snapshot assembly).
    pub fn all() -> [Hist; HISTS] {
        [
            Hist::HeapDepth,
            Hist::CommitNs,
            Hist::RepairNs,
            Hist::NetLatencyNs,
        ]
    }
}

// ---------------------------------------------------------------------------
// Log-linear bucket mapping
// ---------------------------------------------------------------------------

/// Buckets in an `AtomicHistogram`: values below 16 get exact unit buckets,
/// larger values get 16 sub-buckets per power-of-two octave up to `u64::MAX`
/// (octaves 4..=63), bounding relative error by 1/16.
pub const HIST_BUCKETS: usize = 16 + 60 * 16;

/// Maps a value to its log-linear bucket index.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < 16 {
        v as usize
    } else {
        let m = 63 - v.leading_zeros() as usize;
        (m - 3) * 16 + ((v >> (m - 4)) & 15) as usize
    }
}

/// Lower bound of a bucket (its representative value; exact below 16).
#[inline]
fn bucket_lo(idx: usize) -> u64 {
    if idx < 16 {
        idx as u64
    } else {
        let m = (idx / 16 + 3) as u32;
        let sub = (idx % 16) as u64;
        (1u64 << m) | (sub << (m - 4))
    }
}

/// Inclusive upper bound of a bucket (the `le` label in the exposition).
#[inline]
fn bucket_hi(idx: usize) -> u64 {
    if idx + 1 >= HIST_BUCKETS {
        u64::MAX
    } else {
        bucket_lo(idx + 1) - 1
    }
}

/// Lock-free log-linear histogram: one atomic counter per bucket plus an
/// atomic sum and `fetch_max` maximum.  Not sharded — bucket increments are
/// already single atomics and spatially spread by value.
struct AtomicHistogram {
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    max: AtomicU64,
}

impl AtomicHistogram {
    fn new() -> Self {
        AtomicHistogram {
            buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    #[inline]
    fn observe(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistSnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = counts.iter().sum();
        let quantile = |p: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let rank = ((p * count as f64).ceil() as u64).max(1);
            let mut cum = 0u64;
            for (i, &c) in counts.iter().enumerate() {
                cum += c;
                if cum >= rank {
                    return bucket_lo(i);
                }
            }
            bucket_lo(HIST_BUCKETS - 1)
        };
        let p50 = quantile(0.50);
        let p99 = quantile(0.99);
        // Cumulative non-empty prefix for the exposition: every bucket up to
        // the last non-zero one, as (inclusive upper bound, cumulative count).
        let last = counts.iter().rposition(|&c| c > 0);
        let mut buckets = Vec::new();
        if let Some(last) = last {
            let mut cum = 0u64;
            for (i, &c) in counts.iter().enumerate().take(last + 1) {
                cum += c;
                if c > 0 || i == last {
                    buckets.push((bucket_hi(i), cum));
                }
            }
        }
        HistSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            p50,
            p99,
            buckets,
        }
    }
}

/// Folded view of one `AtomicHistogram`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Exact sum of all observed values.
    pub sum: u64,
    /// Exact maximum observed value.
    pub max: u64,
    /// Nearest-rank median estimate (bucket lower bound; ≤ 1/16 low).
    pub p50: u64,
    /// Nearest-rank 99th-percentile estimate (bucket lower bound; ≤ 1/16 low).
    pub p99: u64,
    /// Cumulative `(inclusive upper bound, cumulative count)` rows for the
    /// non-empty bucket prefix (exposition form; `+Inf` is implied).
    pub buckets: Vec<(u64, u64)>,
}

// ---------------------------------------------------------------------------
// Sharded registry
// ---------------------------------------------------------------------------

/// Number of counter/gauge/span shards.  Power of two; threads are assigned
/// round-robin, so up to 16 workers never contend on a cache line.
pub const SHARDS: usize = 16;

/// One cache-line-aligned shard: a thread's private slice of every counter,
/// gauge and span accumulator.  Alignment keeps two shards from sharing a
/// line; within a shard only one thread writes (two if assignments wrap).
#[repr(align(64))]
struct Shard {
    counters: Vec<AtomicU64>,
    gauges: Vec<AtomicU64>,
    span_calls: Vec<AtomicU64>,
    span_ns: Vec<AtomicU64>,
    span_items: Vec<AtomicU64>,
}

impl Shard {
    fn new() -> Self {
        let zeros = |n: usize| (0..n).map(|_| AtomicU64::new(0)).collect();
        Shard {
            counters: zeros(COUNTERS),
            gauges: zeros(GAUGES),
            span_calls: zeros(SPANS),
            span_ns: zeros(SPANS),
            span_items: zeros(SPANS),
        }
    }
}

/// The shared metric store behind an enabled [`TelemetryHandle`].
struct Registry {
    shards: Vec<Shard>,
    hists: Vec<AtomicHistogram>,
}

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Lazily assigned round-robin shard id; `usize::MAX` marks unassigned.
    // Const-initialised so first touch never allocates.
    static SHARD_ID: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

/// This thread's shard index (assigned round-robin on first use).
#[inline]
fn shard_id() -> usize {
    SHARD_ID.with(|c| {
        let id = c.get();
        if id != usize::MAX {
            return id;
        }
        let id = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) & (SHARDS - 1);
        c.set(id);
        id
    })
}

impl Registry {
    fn new() -> Self {
        Registry {
            shards: (0..SHARDS).map(|_| Shard::new()).collect(),
            hists: (0..HISTS).map(|_| AtomicHistogram::new()).collect(),
        }
    }

    #[inline]
    fn shard(&self) -> &Shard {
        &self.shards[shard_id()]
    }

    fn fold_counter(&self, c: Counter) -> u64 {
        self.shards
            .iter()
            .map(|s| s.counters[c as usize].load(Ordering::Relaxed))
            .sum()
    }

    fn fold_gauge(&self, g: Gauge) -> i64 {
        self.shards
            .iter()
            .map(|s| s.gauges[g as usize].load(Ordering::Relaxed))
            .fold(0u64, u64::wrapping_add) as i64
    }

    fn fold_span(&self, sp: Span) -> SpanRow {
        let i = sp as usize;
        let mut row = SpanRow {
            span: sp,
            calls: 0,
            wall_ns: 0,
            items: 0,
        };
        for s in &self.shards {
            row.calls += s.span_calls[i].load(Ordering::Relaxed);
            row.wall_ns += s.span_ns[i].load(Ordering::Relaxed);
            row.items += s.span_items[i].load(Ordering::Relaxed);
        }
        row
    }
}

// ---------------------------------------------------------------------------
// Handle
// ---------------------------------------------------------------------------

/// A cheap, cloneable, **`Send + Sync`** handle to a shared `Registry` — or
/// nothing.  The default handle is off: every operation is a single `Option`
/// branch, with no time sources, atomics or allocation on the off path.
#[derive(Clone, Default)]
pub struct TelemetryHandle {
    inner: Option<Arc<Registry>>,
}

impl TelemetryHandle {
    /// The off handle (same as `Default`).
    pub fn off() -> Self {
        TelemetryHandle { inner: None }
    }

    /// A fresh enabled handle with its own registry.
    pub fn enabled() -> Self {
        TelemetryHandle {
            inner: Some(Arc::new(Registry::new())),
        }
    }

    /// Whether a registry is attached.  Inlined so the off path costs one
    /// predictable branch.
    #[inline(always)]
    pub fn on(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds to a counter on this thread's shard.  No-op when off.
    #[inline]
    pub fn add(&self, c: Counter, v: u64) {
        if let Some(reg) = &self.inner {
            reg.shard().counters[c as usize].fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Increments a counter by one.  No-op when off.
    #[inline]
    pub fn incr(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Moves a gauge by a signed delta on this thread's shard.  No-op when
    /// off.
    #[inline]
    pub fn gauge_add(&self, g: Gauge, delta: i64) {
        if let Some(reg) = &self.inner {
            reg.shard().gauges[g as usize].fetch_add(delta as u64, Ordering::Relaxed);
        }
    }

    /// Records one value into a log-linear histogram.  No-op when off.
    #[inline]
    pub fn observe(&self, h: Hist, v: u64) {
        if let Some(reg) = &self.inner {
            reg.hists[h as usize].observe(v);
        }
    }

    /// Starts an RAII span timer.  When off, the timer is inert — in
    /// particular `Instant::now()` is never called.
    #[inline]
    pub fn span(&self, sp: Span) -> SpanTimer {
        SpanTimer {
            live: self
                .inner
                .as_ref()
                .map(|reg| (Arc::clone(reg), sp, Instant::now())),
            items: 0,
        }
    }

    /// Records an already-measured span, for work timed piecewise and
    /// flushed later (the compact router's query-path materialisation).
    /// No-op when off.
    #[inline]
    pub fn span_record(&self, sp: Span, wall_ns: u64, items: u64) {
        if let Some(reg) = &self.inner {
            let shard = reg.shard();
            shard.span_calls[sp as usize].fetch_add(1, Ordering::Relaxed);
            shard.span_ns[sp as usize].fetch_add(wall_ns, Ordering::Relaxed);
            shard.span_items[sp as usize].fetch_add(items, Ordering::Relaxed);
        }
    }

    /// Folds every shard into a point-in-time snapshot, or `None` when off.
    /// Folds race with concurrent writers benignly (monotone counts); folds
    /// taken after joining all writers are exact.
    pub fn snapshot(&self) -> Option<TelemetrySnapshot> {
        let reg = self.inner.as_ref()?;
        Some(TelemetrySnapshot {
            counters: Counter::all().map(|c| reg.fold_counter(c)),
            gauges: Gauge::all().map(|g| reg.fold_gauge(g)),
            spans: Span::all().map(|sp| reg.fold_span(sp)),
            hists: Hist::all().map(|h| reg.hists[h as usize].snapshot()),
        })
    }
}

/// RAII wall-clock timer for one [`Span`]: measures from construction to
/// drop, then records calls/ns/items into the owning thread's shard.  Safe to
/// use inside `std::thread::scope` workers.
pub struct SpanTimer {
    live: Option<(Arc<Registry>, Span, Instant)>,
    items: u64,
}

impl SpanTimer {
    /// Attributes units of work to this span (reported as `items`).
    #[inline]
    pub fn add_items(&mut self, items: u64) {
        if self.live.is_some() {
            self.items += items;
        }
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        if let Some((reg, sp, start)) = self.live.take() {
            let ns = start.elapsed().as_nanos() as u64;
            let shard = reg.shard();
            shard.span_calls[sp as usize].fetch_add(1, Ordering::Relaxed);
            shard.span_ns[sp as usize].fetch_add(ns, Ordering::Relaxed);
            shard.span_items[sp as usize].fetch_add(self.items, Ordering::Relaxed);
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshot + expositions
// ---------------------------------------------------------------------------

/// Folded per-span accumulator row.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanRow {
    /// The span.
    pub span: Span,
    /// Number of recorded spans.
    pub calls: u64,
    /// Total wall-clock nanoseconds.
    pub wall_ns: u64,
    /// Total units of work attributed.
    pub items: u64,
}

/// A point-in-time fold of every metric in a registry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Counter totals, indexed by `Counter as usize`.
    pub counters: [u64; COUNTERS],
    /// Gauge levels, indexed by `Gauge as usize`.
    pub gauges: [i64; GAUGES],
    /// Span accumulators, indexed by `Span as usize`.
    pub spans: [SpanRow; SPANS],
    /// Histogram folds, indexed by `Hist as usize`.
    pub hists: [HistSnapshot; HISTS],
}

// Derived `Default` requires `[u64; N]: Default`, which std only provides
// for N ≤ 32; spell it out so the counter count can keep growing.
impl Default for TelemetrySnapshot {
    fn default() -> Self {
        TelemetrySnapshot {
            counters: [0; COUNTERS],
            gauges: [0; GAUGES],
            spans: [SpanRow::default(); SPANS],
            hists: std::array::from_fn(|_| HistSnapshot::default()),
        }
    }
}

impl TelemetrySnapshot {
    /// One counter's total.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// One gauge's level.
    pub fn gauge(&self, g: Gauge) -> i64 {
        self.gauges[g as usize]
    }

    /// One span's accumulator row.
    pub fn span(&self, sp: Span) -> SpanRow {
        self.spans[sp as usize]
    }

    /// One histogram's fold.
    pub fn hist(&self, h: Hist) -> &HistSnapshot {
        &self.hists[h as usize]
    }

    /// Total wall nanoseconds across the engine commit spans.
    pub fn commit_wall_ns(&self) -> u64 {
        Span::commit_spans()
            .iter()
            .map(|&sp| self.span(sp).wall_ns)
            .sum()
    }

    /// Total wall nanoseconds across the router repair spans.
    pub fn repair_wall_ns(&self) -> u64 {
        Span::repair_spans()
            .iter()
            .map(|&sp| self.span(sp).wall_ns)
            .sum()
    }

    /// Total wall nanoseconds inside the simulator run loop.
    pub fn sim_wall_ns(&self) -> u64 {
        self.span(Span::SimRun).wall_ns
    }

    /// Flat `"key": value` rendering in the `Metrics::json_fields` shape:
    /// every counter and gauge (`tel_` prefix), per-span wall ns, and
    /// count/p50/p99/max per histogram.  Wall-clock values are
    /// nondeterministic by nature — these fields never feed deterministic
    /// BENCH keys.
    pub fn json_fields(&self) -> String {
        let mut out = String::new();
        for c in Counter::all() {
            push_field(&mut out, &format!("tel_{}", c.label()), self.counter(c));
        }
        for g in Gauge::all() {
            if !out.is_empty() {
                out.push_str(", ");
            }
            out.push_str(&format!("\"tel_{}\": {}", g.label(), self.gauge(g)));
        }
        for sp in Span::all() {
            let row = self.span(sp);
            push_field(&mut out, &format!("tel_{}_calls", sp.label()), row.calls);
            push_field(
                &mut out,
                &format!("tel_{}_wall_ns", sp.label()),
                row.wall_ns,
            );
        }
        for h in Hist::all() {
            let hs = self.hist(h);
            push_field(&mut out, &format!("tel_{}_count", h.label()), hs.count);
            push_field(&mut out, &format!("tel_{}_p50", h.label()), hs.p50);
            push_field(&mut out, &format!("tel_{}_p99", h.label()), hs.p99);
            push_field(&mut out, &format!("tel_{}_max", h.label()), hs.max);
        }
        out
    }

    /// Prometheus text exposition: counters as `rspan_<label>_total`, gauges
    /// as `rspan_<label>`, spans as labelled `rspan_span_*` families, and
    /// histograms as `_bucket`/`_sum`/`_count` with cumulative `le` rows.
    /// [`lint_prometheus`] accepts the output by construction.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for c in Counter::all() {
            let name = format!("rspan_{}_total", c.label());
            out.push_str(&format!("# HELP {name} {}\n", c.help()));
            out.push_str(&format!("# TYPE {name} counter\n"));
            out.push_str(&format!("{name} {}\n", self.counter(c)));
        }
        for g in Gauge::all() {
            let name = format!("rspan_{}", g.label());
            out.push_str(&format!("# HELP {name} {}\n", g.help()));
            out.push_str(&format!("# TYPE {name} gauge\n"));
            out.push_str(&format!("{name} {}\n", self.gauge(g)));
        }
        for (family, unit) in [
            ("rspan_span_calls_total", "calls"),
            ("rspan_span_wall_ns_total", "wall ns"),
            ("rspan_span_items_total", "items"),
        ] {
            out.push_str(&format!(
                "# HELP {family} Profiled span {unit} by span label\n"
            ));
            out.push_str(&format!("# TYPE {family} counter\n"));
            for sp in Span::all() {
                let row = self.span(sp);
                let v = match unit {
                    "calls" => row.calls,
                    "wall ns" => row.wall_ns,
                    _ => row.items,
                };
                out.push_str(&format!("{family}{{span=\"{}\"}} {v}\n", sp.label()));
            }
        }
        for h in Hist::all() {
            let name = format!("rspan_{}", h.label());
            let hs = self.hist(h);
            out.push_str(&format!("# HELP {name} {}\n", h.help()));
            out.push_str(&format!("# TYPE {name} histogram\n"));
            for &(le, cum) in &hs.buckets {
                out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cum}\n"));
            }
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", hs.count));
            out.push_str(&format!("{name}_sum {}\n", hs.sum));
            out.push_str(&format!("{name}_count {}\n", hs.count));
        }
        out
    }
}

fn push_field(out: &mut String, key: &str, v: u64) {
    if !out.is_empty() {
        out.push_str(", ");
    }
    out.push_str(&format!("\"{key}\": {v}"));
}

// ---------------------------------------------------------------------------
// Exposition lint
// ---------------------------------------------------------------------------

/// Validates a Prometheus text exposition: metric-name syntax, a non-empty
/// HELP text and a `counter`/`gauge`/`histogram` TYPE preceding every
/// family's first sample, numeric (non-NaN) sample values, counter samples
/// named `*_total` and non-negative, histogram bucket rows cumulative with
/// increasing `le` ending in `+Inf`, and `_count` equal to the `+Inf`
/// bucket.  Returns the first violation.
pub fn lint_prometheus(text: &str) -> Result<(), String> {
    use std::collections::BTreeMap;
    let name_ok = |name: &str| {
        !name.is_empty()
            && name.chars().enumerate().all(|(i, ch)| {
                ch == '_' || ch.is_ascii_alphabetic() || (i > 0 && ch.is_ascii_digit())
            })
    };
    // Family name -> its TYPE, once declared.
    let mut helped: BTreeMap<&str, Option<&str>> = BTreeMap::new();
    let mut hist_buckets: BTreeMap<String, Vec<(f64, u64)>> = BTreeMap::new();
    let mut hist_count: BTreeMap<String, u64> = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let ln = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest.split_once(' ').unwrap_or((rest, ""));
            if !name_ok(name) {
                return Err(format!("line {ln}: bad HELP metric name {name:?}"));
            }
            if help.trim().is_empty() {
                return Err(format!("line {ln}: empty HELP text for {name:?}"));
            }
            helped.entry(name).or_insert(None);
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().unwrap_or("");
            let kind = it.next().unwrap_or("");
            if !helped.contains_key(name) {
                return Err(format!("line {ln}: TYPE before HELP for {name:?}"));
            }
            if !matches!(kind, "counter" | "gauge" | "histogram") {
                return Err(format!("line {ln}: unknown TYPE {kind:?}"));
            }
            helped.insert(name, Some(kind));
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        // Sample line: name[{labels}] value
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {ln}: no sample value"))?;
        let value: f64 = value
            .parse()
            .ok()
            .filter(|v: &f64| !v.is_nan())
            .ok_or_else(|| format!("line {ln}: non-numeric value {value:?}"))?;
        let (name, labels) = match series.split_once('{') {
            Some((n, l)) => (
                n,
                Some(
                    l.strip_suffix('}')
                        .ok_or_else(|| format!("line {ln}: unterminated labels"))?,
                ),
            ),
            None => (series, None),
        };
        if !name_ok(name) {
            return Err(format!("line {ln}: bad metric name {name:?}"));
        }
        // The family owning this sample must have HELP+TYPE: exact name, or
        // the base name for histogram suffixes.
        let base = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suf| name.strip_suffix(suf))
            .filter(|base| helped.contains_key(*base));
        let family = base.unwrap_or(name);
        match helped.get(family) {
            Some(Some("counter")) if !name.ends_with("_total") || value < 0.0 => {
                return Err(format!(
                    "line {ln}: counter {name:?} must end in _total and be non-negative"
                ))
            }
            Some(Some(_)) => {}
            Some(None) => return Err(format!("line {ln}: {family:?} has HELP but no TYPE")),
            None => {
                return Err(format!(
                    "line {ln}: sample for {family:?} without HELP/TYPE"
                ))
            }
        }
        if name.ends_with("_bucket") {
            let labels = labels.ok_or_else(|| format!("line {ln}: bucket without le"))?;
            let le = labels
                .split(',')
                .find_map(|kv| kv.trim().strip_prefix("le=\""))
                .and_then(|v| v.strip_suffix('"'))
                .ok_or_else(|| format!("line {ln}: bucket without le label"))?;
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse()
                    .map_err(|_| format!("line {ln}: bad le value {le:?}"))?
            };
            hist_buckets
                .entry(family.to_string())
                .or_default()
                .push((le, value as u64));
        } else if name.ends_with("_count") && base.is_some() {
            hist_count.insert(family.to_string(), value as u64);
        }
    }
    for (family, rows) in &hist_buckets {
        let mut prev_le = f64::NEG_INFINITY;
        let mut prev_cum = 0u64;
        for &(le, cum) in rows {
            if le <= prev_le {
                return Err(format!("{family}: le values not increasing"));
            }
            if cum < prev_cum {
                return Err(format!("{family}: bucket counts not cumulative"));
            }
            prev_le = le;
            prev_cum = cum;
        }
        let Some(&(last_le, last_cum)) = rows.last() else {
            continue;
        };
        if last_le != f64::INFINITY {
            return Err(format!("{family}: bucket rows do not end with +Inf"));
        }
        match hist_count.get(family) {
            Some(&c) if c == last_cum => {}
            Some(&c) => return Err(format!("{family}: _count {c} != +Inf bucket {last_cum}")),
            None => return Err(format!("{family}: histogram without _count")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_mapping_roundtrips() {
        // Exact below 16, and every value lands in a bucket whose bounds
        // contain it with ≤ 1/16 relative width.
        for v in 0..16u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lo(v as usize), v);
        }
        let mut v = 1u64;
        for _ in 0..630 {
            let idx = bucket_index(v);
            let (lo, hi) = (bucket_lo(idx), bucket_hi(idx));
            assert!(lo <= v && v <= hi, "v={v} idx={idx} lo={lo} hi={hi}");
            if v >= 16 {
                assert!(hi - lo < lo / 8 + 1, "bucket too wide at v={v}");
            }
            v = v.wrapping_mul(3).wrapping_add(7) % (1 << 40);
        }
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
        assert_eq!(bucket_hi(HIST_BUCKETS - 1), u64::MAX);
        // Bucket lower bounds are strictly increasing (no overlap, no gaps
        // beyond the le chain).
        for idx in 1..HIST_BUCKETS {
            assert!(bucket_lo(idx) > bucket_lo(idx - 1), "idx={idx}");
        }
    }

    #[test]
    fn off_handle_is_inert() {
        let tel = TelemetryHandle::off();
        assert!(!tel.on());
        tel.add(Counter::SimEvents, 5);
        tel.gauge_add(Gauge::SimHeapDepth, 3);
        tel.observe(Hist::HeapDepth, 9);
        let mut t = tel.span(Span::Rebuild);
        t.add_items(10);
        drop(t);
        tel.span_record(Span::Mark, 100, 1);
        assert!(tel.snapshot().is_none());
    }

    #[test]
    fn counters_gauges_and_spans_fold() {
        let tel = TelemetryHandle::enabled();
        for _ in 0..10 {
            tel.incr(Counter::EngineCommits);
        }
        tel.add(Counter::SimBytesSent, 1000);
        tel.gauge_add(Gauge::SimHeapDepth, 8);
        tel.gauge_add(Gauge::SimHeapDepth, -3);
        tel.span_record(Span::RepairSweep, 500, 7);
        tel.span_record(Span::RepairSweep, 250, 3);
        let snap = tel.snapshot().expect("enabled");
        assert_eq!(snap.counter(Counter::EngineCommits), 10);
        assert_eq!(snap.counter(Counter::SimBytesSent), 1000);
        assert_eq!(snap.gauge(Gauge::SimHeapDepth), 5);
        let row = snap.span(Span::RepairSweep);
        assert_eq!((row.calls, row.wall_ns, row.items), (2, 750, 10));
        assert_eq!(snap.repair_wall_ns(), 750);
        assert_eq!(snap.commit_wall_ns(), 0);
    }

    #[test]
    fn span_timer_records_on_drop() {
        let tel = TelemetryHandle::enabled();
        {
            let mut t = tel.span(Span::SimRun);
            t.add_items(42);
        }
        let row = tel.snapshot().expect("enabled").span(Span::SimRun);
        assert_eq!(row.calls, 1);
        assert_eq!(row.items, 42);
    }

    #[test]
    fn histogram_tracks_count_sum_max_and_quantile_bounds() {
        let tel = TelemetryHandle::enabled();
        let mut exact = Histogram::default();
        let mut v = 1u64;
        for _ in 0..5000 {
            v = v
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let sample = v >> 40; // ~24-bit values
            tel.observe(Hist::CommitNs, sample);
            exact.push(sample);
        }
        let snap = tel.snapshot().expect("enabled");
        let hs = snap.hist(Hist::CommitNs);
        let es = exact.summary();
        assert_eq!(hs.count, es.count);
        assert_eq!(hs.max, es.max);
        // The log-linear estimate is the bucket lower bound of the exact
        // nearest-rank sample: within 1/16 below, never above.
        for (approx, exact) in [(hs.p50, es.p50), (hs.p99, es.p99)] {
            assert!(approx <= exact, "approx {approx} > exact {exact}");
            assert!(
                exact <= approx + approx / 16 + 1,
                "approx {approx} too far below exact {exact}"
            );
        }
    }

    #[test]
    fn exact_histogram_nearest_rank_percentiles() {
        let mut h = Histogram::default();
        for v in 1..=100u64 {
            h.push(v);
        }
        let s = h.summary();
        assert_eq!((s.count, s.p50, s.p99, s.max), (100, 50, 99, 100));
        assert_eq!(Histogram::default().summary(), HistSummary::default());
        let mut one = Histogram::default();
        one.push(42);
        let s = one.summary();
        assert_eq!((s.p50, s.p99, s.max), (42, 42, 42));
    }

    #[test]
    fn prometheus_exposition_lints_clean() {
        let tel = TelemetryHandle::enabled();
        tel.incr(Counter::SimEvents);
        tel.gauge_add(Gauge::CacheEntries, 12);
        tel.observe(Hist::HeapDepth, 3);
        tel.observe(Hist::HeapDepth, 900);
        tel.span_record(Span::Mark, 1000, 2);
        let snap = tel.snapshot().expect("enabled");
        let text = snap.render_prometheus();
        lint_prometheus(&text).expect("exposition must lint clean");
        assert!(text.contains("rspan_sim_events_total 1"));
        assert!(text.contains("rspan_cache_entries 12"));
        assert!(text.contains("rspan_heap_depth_count 2"));
        assert!(text.contains("rspan_span_wall_ns_total{span=\"mark\"} 1000"));
        assert!(text.contains("rspan_heap_depth_bucket{le=\"+Inf\"} 2"));
        // The series the smoke runs' health depends on are all exported.
        for series in [
            "rspan_engine_commits_total ",
            "rspan_sim_events_total ",
            "rspan_sim_delivered_total ",
            "rspan_span_calls_total{span=\"sim_run\"} ",
            "rspan_sim_heap_depth ",
            "rspan_net_frames_sent_total ",
            "rspan_net_frames_recv_total ",
            "rspan_net_bytes_sent_total ",
            "rspan_net_bytes_recv_total ",
            "rspan_net_queue_depth ",
            "rspan_net_latency_ns_count ",
        ] {
            assert!(
                text.lines().any(|line| line.starts_with(series)),
                "{series:?} not exported"
            );
        }
    }

    #[test]
    fn lint_rejects_malformed_expositions() {
        assert!(lint_prometheus("rspan_x_total 1\n").is_err()); // no HELP/TYPE
        assert!(lint_prometheus("# HELP x h\nx 1\n").is_err()); // no TYPE
        assert!(lint_prometheus("# HELP x h\n# TYPE x counter\nx nan?\n").is_err());
        assert!(lint_prometheus(
            "# HELP h h\n# TYPE h histogram\n\
             h_bucket{le=\"5\"} 3\nh_bucket{le=\"2\"} 4\n\
             h_bucket{le=\"+Inf\"} 4\nh_sum 9\nh_count 4\n"
        )
        .is_err()); // le not increasing
        assert!(lint_prometheus(
            "# HELP h h\n# TYPE h histogram\n\
             h_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 4\nh_sum 9\nh_count 9\n"
        )
        .is_err()); // count mismatch
        assert!(lint_prometheus(
            "# HELP h h\n# TYPE h histogram\n\
             h_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 4\nh_sum 9\nh_count 4\n"
        )
        .is_ok());
    }

    #[test]
    fn lint_enforces_counter_conventions() {
        let counter =
            |name: &str, v: &str| format!("# HELP {name} h\n# TYPE {name} counter\n{name} {v}\n");
        assert!(lint_prometheus(&counter("x_total", "0")).is_ok());
        assert!(lint_prometheus(&counter("x", "1")).is_err()); // no _total suffix
        assert!(lint_prometheus(&counter("x_total", "-1")).is_err()); // negative
        assert!(lint_prometheus(&counter("x_total", "NaN")).is_err());
        // Gauges may go negative; only counters are monotone.
        assert!(lint_prometheus("# HELP g h\n# TYPE g gauge\ng -3\n").is_ok());
        // Every family needs HELP text and one of the three rendered types.
        assert!(lint_prometheus("# HELP g\n# TYPE g gauge\ng 1\n").is_err());
        assert!(lint_prometheus("# HELP s h\n# TYPE s summary\ns 1\n").is_err());
    }

    #[test]
    fn json_fields_are_flat_and_parseable() {
        let tel = TelemetryHandle::enabled();
        tel.incr(Counter::RbDelivers);
        let snap = tel.snapshot().expect("enabled");
        let fields = snap.json_fields();
        let wrapped = format!("{{{fields}}}");
        // Flat object: every key tel_-prefixed, balanced quoting.
        assert_eq!(wrapped.matches('{').count(), 1);
        assert!(fields.contains("\"tel_rb_delivers\": 1"));
        assert_eq!(fields.matches('"').count() % 2, 0);
    }
}
