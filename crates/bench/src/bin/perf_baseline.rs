//! Perf trajectory baselines: `BENCH_remspan.json`, `BENCH_engine.json`,
//! `BENCH_routing.json`, `BENCH_async.json`, `BENCH_byz.json` and
//! `BENCH_net.json`.
//!
//! Six workloads, selectable from the command line:
//!
//! * **remspan** — `rem_span` (k-greedy strategy, k = 2) on constant-density
//!   uniform unit-disk graphs, in three configurations: `seed_alloc` (the
//!   per-node-allocating closure path the seed shipped), `pooled_seq` (one
//!   epoch-stamped `DomScratch` across all n trees) and `pooled_par` (the
//!   lock-free chunked parallel driver).  Emits median ns-per-node figures
//!   plus the pooled/seed speedup.
//! * **engine_churn** — the incremental engine under link-flap churn: each
//!   round flips `Poisson(n/200)` links (≈ 1% of the nodes see a link event),
//!   and the same round is restabilised twice — once by
//!   `RspanEngine::commit` (dirty-ball recomputation) and once by the full
//!   pipeline (materialise the CSR snapshot + `rem_span_algo` from scratch).
//!   The two timings are interleaved round by round, the spanners are
//!   asserted identical every round, every cached tree is asserted equal to
//!   a fresh build on the final topology, and the medians plus their ratio
//!   land in the JSON.
//! * **routing_churn** — two families in `BENCH_routing.json`, told apart by
//!   the `workload` key:
//!   * `routing_churn`, the full batch → commit → delta → table-repair
//!     pipeline under the same link-flap regime: per round, one engine
//!     commits sequentially and one in parallel (deltas asserted identical,
//!     and a forced multi-thread commit cross-checked on top), then the
//!     delta feeds a long-lived `DeltaRouter` whose incremental repair is
//!     timed against a from-scratch `RoutingTables::build` on the same
//!     round — with the repaired tables asserted **bit-identical** to the
//!     full rebuild every round;
//!   * `route_local`, compact routing (`Repair::Local`) under the same
//!     regime: ball-local exact rows + landmark/tree forwarding + the LRU
//!     row cache, repaired per commit.  Rows record per-node state bytes
//!     against the dense `O(n)`-per-node tables, cache traffic from a hot
//!     exact-query loop, and measured stretch percentiles against true
//!     graph distances (asserted within [`STRETCH_BOUND`]); at `n ≤ 4000`
//!     the cached exact rows are additionally asserted identical to a dense
//!     `RoutingTables::build`, and at every `n` each node's repaired
//!     home-landmark label to a freshly built router's.  The n = 100 000
//!     row is the table-wall headline: sublinear state where the dense
//!     build no longer fits the benchmark budget.
//! * **async_churn** — the `rspan-asim` event simulator driving §2.3 repair
//!   waves under four scenario families: a **loss sweep** (link-flap churn,
//!   Bernoulli loss with bounded retransmission), a **latency sweep** (UDG
//!   mobility churn under constant / uniform / heavy-tailed link latency),
//!   a **crash-recover** regime (join-leave churn plus node crashes), and a
//!   **staleness** pair (delta routing + the session's staleness counter:
//!   rows where converged distributed state lags the post-commit tables
//!   while repair waves are in flight, under fast vs heavy-tailed links).
//!   Each row records convergence (rounds that quiesced before the next
//!   commit, mean stabilisation ticks), delivered/dropped message and byte
//!   counts, and wall-time per simulated event.
//! * **byz_churn** — the Byzantine robustness trajectory: reliable-broadcast
//!   **amplification** against plain flooding on an honest network (with the
//!   `f = 0` wrapper pinned wire-silent), honest-**agreement** under a mixed
//!   Byzantine cohort (forge / equivocate / suppress / replay) where the
//!   echo-quorum rows must close every check and the plain rows record the
//!   divergence, and convergence under the scheduler **adversary** models
//!   (worst-case links, laggard node, wave splitting) vs the random baseline.
//! * **net_cluster** — the same repair protocol on live OS threads and on
//!   TCP loopback sockets (`rspan-net`), its wall-clock convergence against
//!   the asim virtual-time prediction, with the end state asserted
//!   bit-identical to asim's on every row.
//!
//! Every workload runs through the `rspan-session` façade (`Session` /
//! `SpannerAlgo`) or the `rspan-net` cluster harness, both property-tested
//! bit-identical to the hand-wired pipelines these baselines were first
//! recorded on; rows are composed from `Metrics::json_fields()` plus the
//! harness's own timing fields, so the session snapshot and the
//! `BENCH_*.json` shape stay in lock-step.
//!
//! Each family's invariants are `assert!`ed before its row is written
//! (agreement, stretch bound, end state, counter relations), so a row that
//! exists passed them and its `true` flags are literals.  `bench_gate` then
//! diffs every deterministic key against the committed baselines.
//!
//! Usage:
//!   `perf_baseline [remspan|engine_churn|routing_churn|async_churn|
//!                   byz_churn|net_cluster|all]
//!                  [--quick] [--seed N] [--json PATH] [--trace-out PATH]
//!                  [--telemetry-out PATH]`
//!
//! `--quick` runs a small smoke configuration (CI keeps the binaries from
//! rotting); `--seed` makes every workload reproducible from the command
//! line (default 3 — graphs draw from `seed`, churn scenarios from
//! `seed + 4`, the event simulator from `seed + 9`; the defaults reproduce
//! the recorded baselines exactly); `--json` overrides the output path and
//! is only valid with a single workload.  `--trace-out` (async_churn, and
//! the route_local rows of routing_churn) additionally runs those rows with
//! the `rspan-obs` recorder on and writes their deterministic JSONL traces
//! to `PATH`, each under a `"kind": "run"` header naming its workload,
//! family and seed; every run's trace must pass `rspan_obs::lint_trace`,
//! or the binary exits 1 without writing the file.  Default JSON paths are
//! the `BENCH_*.json` names above, in the working directory.
//! `--telemetry-out` writes the final fold of the process-wide
//! `rspan-telemetry` registry (every session this binary builds shares one
//! enabled handle) as Prometheus text exposition — what a scrape endpoint
//! would serve if this process were long-lived — and exits nonzero if
//! `lint_prometheus` rejects it.
//!
//! Every row carries uniform run metadata — `workload`, `seed`, `wall_ms`,
//! `threads` (the effective worker count of the row's timed commits) and
//! `routing` (`none` / `delta` / `local`) — alongside its family-specific
//! figures.  On top of that, every row stamps the phase wall-times the
//! telemetry spans attribute to its slice of the run — `wall_commit_ms`
//! (engine commit phases), `wall_repair_ms` (router repair) and
//! `wall_sim_ms` (the event-simulator loop) — folded as pre/post snapshot
//! deltas of the shared registry.  Like `wall_ms`, these are wall-clock and
//! nondeterministic; the bench gate never diffs them numerically.

use rspan_asim::{
    Adversary, AsimConfig, AsyncChurnConfig, ByzBehaviour, FaultPlan, LatencyModel,
    RepairChurnDriver, VTime,
};
use rspan_bench::scaled_density_udg;
use rspan_core::{rem_span, rem_span_algo};
use rspan_distributed::{CompactRouter, RoutingTables};
use rspan_domtree::{dom_tree_k_greedy, DomScratch, TreeAlgo};
use rspan_engine::{
    ChurnScenario, JoinLeaveScenario, LinkFlapScenario, MobilityScenario, RspanEngine,
    TopologyChange,
};
use rspan_graph::generators::udg::udg_with_density;
use rspan_graph::{CsrGraph, Node};
use rspan_net::{repair_end_state, NetBackend, NetChurnConfig, NetCluster};
use rspan_session::{
    Broadcast, LocalConfig, ObsConfig, ObsReport, Repair, Scheduler, Session, SpannerAlgo,
    StepReport, TelemetryHandle, TelemetrySnapshot,
};
use rspan_telemetry::Hist;
use std::sync::OnceLock;
use std::time::Instant;

/// Churn scenarios draw from an offset stream so `--seed N` varies graph and
/// churn together while the default (3) reproduces the recorded baselines
/// (graph seed 3, scenario seed 7).
const SCENARIO_SEED_OFFSET: u64 = 4;
/// The event simulator's loss/latency stream offset.
const SIM_SEED_OFFSET: u64 = 9;
/// Measured-stretch ceiling the `route_local` rows assert: compact
/// forwarding must stay within this factor of true graph distance at p99.
const STRETCH_BOUND: f64 = 4.0;

/// One process-wide enabled telemetry registry: every session this binary
/// builds shares it, each row folds a pre/post snapshot delta into its
/// `wall_commit_ms` / `wall_repair_ms` / `wall_sim_ms` keys, and
/// `--telemetry-out` renders the final fold as Prometheus exposition.
fn telemetry() -> &'static TelemetryHandle {
    static TEL: OnceLock<TelemetryHandle> = OnceLock::new();
    TEL.get_or_init(TelemetryHandle::enabled)
}

/// Folds the shared registry (always enabled in this binary).
fn tel_snapshot() -> TelemetrySnapshot {
    telemetry().snapshot().expect("registry enabled")
}

/// The per-row phase wall-time keys: milliseconds the telemetry spans
/// attribute to engine commits, routing repair and the event simulator
/// since the `pre` fold.  Wall-clock and therefore nondeterministic — the
/// bench gate treats `wall_*` keys as presence-only, never as regressions.
fn phase_wall_fields(pre: &TelemetrySnapshot) -> String {
    let post = tel_snapshot();
    let ms = |pre_ns: u64, post_ns: u64| post_ns.saturating_sub(pre_ns) as f64 / 1e6;
    format!(
        "\"wall_commit_ms\": {:.3}, \"wall_repair_ms\": {:.3}, \"wall_sim_ms\": {:.3}",
        ms(pre.commit_wall_ns(), post.commit_wall_ns()),
        ms(pre.repair_wall_ns(), post.repair_wall_ns()),
        ms(pre.sim_wall_ns(), post.sim_wall_ns()),
    )
}

/// Runs one sync `session.commit` and returns its report with the wall
/// nanoseconds of its engine commit and its routing repair, read as the
/// change in the shared registry's `commit_ns` / `repair_ns` histogram sums
/// across the call (the repair is 0 without routing).
fn timed_commit(session: &mut Session, batch: &[TopologyChange]) -> (StepReport, u64, u64) {
    let pre = tel_snapshot();
    let report = session.commit(batch).expect("sync session");
    let post = tel_snapshot();
    let ns = |h: Hist| post.hist(h).sum - pre.hist(h).sum;
    (report, ns(Hist::CommitNs), ns(Hist::RepairNs))
}

/// Splices the phase wall-time keys into a finished row object.
fn with_phase_fields(row: String, pre: &TelemetrySnapshot) -> String {
    let body = row.strip_suffix('}').expect("row is a JSON object");
    format!("{body}, {}}}", phase_wall_fields(pre))
}

/// The worker count `threads(0)` resolves to — what a row whose timed
/// commits run auto-parallel records in its `threads` metadata key.
fn effective_threads() -> usize {
    std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1)
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Times the three remspan configurations in interleaved rounds (seed,
/// pooled, parallel, repeat) so slow machine drift — background load,
/// frequency scaling — hits all three equally instead of biasing whichever
/// ran last.  Returns the median ns of each plus the edge counts of the last
/// round.
#[allow(clippy::type_complexity)]
fn interleaved_medians(
    reps: usize,
    mut seed: impl FnMut() -> usize,
    mut pooled: impl FnMut() -> usize,
    mut par: impl FnMut() -> usize,
) -> ((f64, usize), (f64, usize), (f64, usize)) {
    let mut t = [
        Vec::with_capacity(reps),
        Vec::with_capacity(reps),
        Vec::with_capacity(reps),
    ];
    let mut edges = [0usize; 3];
    for _ in 0..reps {
        for (slot, f) in [
            (0usize, &mut seed as &mut dyn FnMut() -> usize),
            (1, &mut pooled),
            (2, &mut par),
        ] {
            let start = Instant::now();
            edges[slot] = f();
            t[slot].push(start.elapsed().as_nanos() as f64);
        }
    }
    let [ts, tp, tr] = t;
    (
        (median(ts), edges[0]),
        (median(tp), edges[1]),
        (median(tr), edges[2]),
    )
}

fn write_json(out_path: &str, bench: &str, unit: &str, rows: &[String]) {
    let json = format!(
        "{{\n  \"bench\": \"{bench}\",\n  \"unit\": \"{unit}\",\n  \"rows\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    std::fs::write(out_path, &json).expect("write baseline json");
    println!("wrote {out_path}");
}

/// Appends one observed run's JSONL to the `--trace-out` lines under a
/// `run` header naming its workload, family and seed.  Exits 1, before any
/// trace is written, if `lint_trace` rejects the run.
fn push_run_trace(lines: &mut Vec<String>, workload: &str, family: &str, seed: u64, r: ObsReport) {
    if let Err(violation) = rspan_obs::lint_trace(&r.to_jsonl()) {
        eprintln!("{workload} {family} trace (seed {seed}) is malformed: {violation}");
        std::process::exit(1);
    }
    lines.push(format!(
        "{{\"t\":0,\"kind\":\"run\",\"workload\":\"{workload}\",\
         \"family\":\"{family}\",\"seed\":{seed}}}"
    ));
    lines.extend(r.lines);
}

/// Writes the collected `--trace-out` lines, if any were asked for.
fn write_trace(trace_out: Option<&str>, trace: Option<Vec<String>>) {
    if let (Some(path), Some(lines)) = (trace_out, trace) {
        let mut out = lines.join("\n");
        out.push('\n');
        std::fs::write(path, out).expect("write trace jsonl");
        println!("wrote {path} ({} events)", lines.len());
    }
}

fn remspan_workload(quick: bool, seed: u64, out_path: &str) {
    let algo = SpannerAlgo::KConnecting { k: 2 };
    let sizes: &[(usize, usize)] = if quick {
        &[(300, 3)]
    } else {
        &[(500, 11), (2000, 9), (8000, 5)]
    };
    let mut rows = Vec::new();
    for &(n, reps) in sizes {
        let w = scaled_density_udg(n, 12.0, seed);
        let g: &CsrGraph = &w.graph;

        let pre = tel_snapshot();
        let row_start = Instant::now();
        let ((seed_ns, seed_edges), (pooled_ns, pooled_edges), (par_ns, _)) = interleaved_medians(
            reps,
            || rem_span(g, |g, u| dom_tree_k_greedy(g, u, 2)).num_edges(),
            || algo.build(g).expect("valid algorithm").num_edges(),
            || {
                algo.build_threads(g, 0)
                    .expect("valid algorithm")
                    .num_edges()
            },
        );

        assert_eq!(
            seed_edges, pooled_edges,
            "pooled driver changed the spanner at n={n}"
        );
        let par = algo.build_threads(g, 0).expect("valid algorithm");
        let seq = algo.build(g).expect("valid algorithm");
        assert_eq!(
            par.spanner.edge_set(),
            seq.spanner.edge_set(),
            "parallel driver diverged from sequential at n={n}"
        );

        let speedup = seed_ns / pooled_ns;
        let row = format!(
            concat!(
                "    {{\"workload\": \"remspan\", \"seed\": {}, \"wall_ms\": {:.1}, ",
                "\"threads\": {}, \"routing\": \"none\", ",
                "\"n\": {}, \"m\": {}, \"strategy\": \"kgreedy_k2\", ",
                "\"seed_alloc_ns_per_node\": {:.0}, \"pooled_seq_ns_per_node\": {:.0}, ",
                "\"pooled_par_ns_per_node\": {:.0}, \"pooled_speedup\": {:.2}, ",
                "\"parallel_matches_sequential\": true}}"
            ),
            seed,
            row_start.elapsed().as_secs_f64() * 1e3,
            effective_threads(),
            n,
            g.m(),
            seed_ns / n as f64,
            pooled_ns / n as f64,
            par_ns / n as f64,
            speedup,
        );
        println!(
            "n={n:>5}  seed {:>9.0} ns/node   pooled {:>9.0} ns/node   par {:>9.0} ns/node   speedup {speedup:.2}x",
            seed_ns / n as f64,
            pooled_ns / n as f64,
            par_ns / n as f64,
        );
        rows.push(with_phase_fields(row, &pre));
    }
    write_json(out_path, "rem_span", "ns_per_node_median", &rows);
}

fn engine_churn_workload(quick: bool, seed: u64, out_path: &str) {
    let algo = TreeAlgo::KGreedy { k: 2 };
    let sizes: &[(usize, usize)] = if quick {
        &[(300, 6)]
    } else {
        &[(1000, 25), (4000, 25)]
    };
    let mut rows = Vec::new();
    for &(n, rounds) in sizes {
        let w = scaled_density_udg(n, 12.0, seed);
        // ~1% of the nodes experience a link event per round: each flip
        // touches two endpoints, so flip n/200 links on average.
        let mean_flaps = (n as f64 / 200.0).max(1.0);
        let mut scenario = LinkFlapScenario::new(&w.graph, mean_flaps, seed + SCENARIO_SEED_OFFSET);
        // Engine-only session (no routing): batches are drawn outside the
        // timed region, so the commit timing covers exactly the engine.
        let mut session = Session::builder(w.graph.clone())
            .algo(SpannerAlgo::KConnecting { k: 2 })
            .telemetry(telemetry().clone())
            .build()
            .expect("valid engine-only configuration");

        let mut inc_ns = Vec::with_capacity(rounds);
        let mut full_ns = Vec::with_capacity(rounds);
        let mut batch_total = 0usize;
        let pre = tel_snapshot();
        let row_start = Instant::now();
        for round in 0..rounds {
            let batch = scenario.next_batch(session.engine().graph());
            batch_total += batch.len();

            // Interleaved: the incremental commit and the full pipeline
            // restabilise the *same* round, back to back.
            let (_, commit_ns, _) = timed_commit(&mut session, &batch);
            inc_ns.push(commit_ns as f64);

            let start = Instant::now();
            let csr = session.to_csr();
            let full = rem_span_algo(&csr, algo);
            full_ns.push(start.elapsed().as_nanos() as f64);

            assert_eq!(
                session.spanner_on(&csr).edge_set(),
                full.edge_set(),
                "incremental spanner diverged from full recompute at n={n} round={round}"
            );
        }
        // The spanner check above sees only the union of the trees; every
        // cached tree, kept or rebuilt, must also equal a fresh build.
        let csr = session.to_csr();
        let mut scratch = DomScratch::new();
        let mut fresh = Vec::new();
        for u in 0..n as Node {
            fresh.clear();
            let tree = algo.build_with_scratch(&csr, u, &mut scratch);
            tree.for_each_edge(|p, c| fresh.push((p, c)));
            assert_eq!(
                session.engine().tree_edges(u),
                fresh.as_slice(),
                "cached tree of {u} diverged from a fresh build at n={n}"
            );
        }
        let dirty_total = session.metrics().dirty_total;
        let inc = median(inc_ns);
        let full = median(full_ns);
        let speedup = full / inc;
        let dirty_fraction = dirty_total as f64 / (rounds * n) as f64;
        let row = format!(
            concat!(
                "    {{\"workload\": \"engine_churn\", \"seed\": {}, \"wall_ms\": {:.1}, ",
                "\"threads\": 1, \"routing\": \"none\", ",
                "\"n\": {}, \"m\": {}, \"strategy\": \"kgreedy_k2\", \"rounds\": {}, ",
                "\"mean_flaps_per_round\": {:.1}, \"mean_batch_len\": {:.1}, ",
                "\"mean_dirty_fraction\": {:.4}, \"incremental_commit_ns\": {:.0}, ",
                "\"full_recompute_ns\": {:.0}, \"incremental_speedup\": {:.2}, ",
                "\"matches_full_recompute\": true}}"
            ),
            seed,
            row_start.elapsed().as_secs_f64() * 1e3,
            n,
            w.graph.m(),
            rounds,
            mean_flaps,
            batch_total as f64 / rounds as f64,
            dirty_fraction,
            inc,
            full,
            speedup,
        );
        println!(
            "n={n:>5}  commit {:>10.0} ns   full {:>11.0} ns   dirty {:>5.1}%   speedup {speedup:.2}x",
            inc,
            full,
            dirty_fraction * 100.0,
        );
        rows.push(with_phase_fields(row, &pre));
    }
    write_json(out_path, "engine_churn", "ns_per_commit_median", &rows);
}

fn routing_churn_rows(quick: bool, seed: u64) -> Vec<String> {
    let sizes: &[(usize, usize)] = if quick {
        &[(400, 4)]
    } else {
        &[(2000, 8), (4000, 4)]
    };
    let mut rows = Vec::new();
    for &(n, rounds) in sizes {
        let w = scaled_density_udg(n, 12.0, seed);
        // Same churn regime as engine_churn: ~1% of the nodes see a link
        // event per round.
        let mean_flaps = (n as f64 / 200.0).max(1.0);
        let mut scenario = LinkFlapScenario::new(&w.graph, mean_flaps, seed + SCENARIO_SEED_OFFSET);
        // Three sessions absorb the same batches: sequential commit + delta
        // routing (both timed by `timed_commit`), an auto-threaded
        // parallel commit (timed), and a forced multi-thread commit that
        // cross-checks the sharded rebuild even on single-core machines
        // (untimed).
        let spanner_algo = SpannerAlgo::KConnecting { k: 2 };
        let mut session_seq = Session::builder(w.graph.clone())
            .algo(spanner_algo.clone())
            .routing(Repair::Delta)
            .threads(1)
            .telemetry(telemetry().clone())
            .build()
            .expect("valid routing configuration");
        let mut session_par = Session::builder(w.graph.clone())
            .algo(spanner_algo.clone())
            .threads(0)
            .telemetry(telemetry().clone())
            .build()
            .expect("valid engine-only configuration");
        let mut session_forced = Session::builder(w.graph.clone())
            .algo(spanner_algo.clone())
            .threads(4)
            .telemetry(telemetry().clone())
            .build()
            .expect("valid engine-only configuration");

        let mut seq_ns = Vec::with_capacity(rounds);
        let mut par_ns = Vec::with_capacity(rounds);
        let mut repair_ns = Vec::with_capacity(rounds);
        let mut full_ns = Vec::with_capacity(rounds);
        let mut batch_total = 0usize;
        let mut flips_total = 0usize;
        let mut repaired_total = 0usize;
        let pre = tel_snapshot();
        let row_start = Instant::now();
        for round in 0..rounds {
            let batch = scenario.next_batch(session_seq.engine().graph());
            batch_total += batch.len();

            let (report, commit_ns, table_repair_ns) = timed_commit(&mut session_seq, &batch);
            seq_ns.push(commit_ns as f64);

            let (report_par, commit_ns, _) = timed_commit(&mut session_par, &batch);
            par_ns.push(commit_ns as f64);

            let report_forced = session_forced.commit(&batch).expect("sync session");
            assert_eq!(
                report.delta, report_par.delta,
                "parallel commit delta diverged at n={n} round={round}"
            );
            assert_eq!(
                report.delta, report_forced.delta,
                "forced 4-thread commit delta diverged at n={n} round={round}"
            );
            flips_total += report.delta.added.len() + report.delta.removed.len();

            // Interleaved: incremental repair (already timed inside the
            // commit) and full table rebuild restore the *same* round, back
            // to back.
            let stats = report.repair.expect("delta routing configured");
            repair_ns.push(table_repair_ns as f64);
            repaired_total += stats.rows_recomputed;

            let start = Instant::now();
            let csr = session_seq.to_csr();
            let full = RoutingTables::build(&session_seq.spanner_on(&csr));
            full_ns.push(start.elapsed().as_nanos() as f64);

            assert_eq!(
                session_seq.tables().expect("delta routing configured"),
                &full,
                "repaired tables diverged from full rebuild at n={n} round={round}"
            );
        }
        let seq = median(seq_ns);
        let par = median(par_ns);
        let repair = median(repair_ns);
        let full = median(full_ns);
        let commit_speedup = seq / par;
        let repair_speedup = full / repair;
        let repaired_fraction = repaired_total as f64 / (rounds * n) as f64;
        let row = format!(
            concat!(
                "    {{\"workload\": \"routing_churn\", \"seed\": {}, \"wall_ms\": {:.1}, ",
                "\"threads\": {}, \"routing\": \"delta\", ",
                "\"n\": {}, \"m\": {}, \"strategy\": \"kgreedy_k2\", \"rounds\": {}, ",
                "\"mean_batch_len\": {:.1}, \"mean_spanner_flips\": {:.1}, ",
                "\"mean_repaired_row_fraction\": {:.4}, ",
                "\"seq_commit_ns\": {:.0}, \"par_commit_ns\": {:.0}, ",
                "\"parallel_commit_speedup\": {:.2}, \"parallel_matches_sequential\": true, ",
                "\"table_repair_ns\": {:.0}, \"full_table_build_ns\": {:.0}, ",
                "\"table_repair_speedup\": {:.2}, \"tables_match_full_rebuild\": true}}"
            ),
            seed,
            row_start.elapsed().as_secs_f64() * 1e3,
            effective_threads(),
            n,
            w.graph.m(),
            rounds,
            batch_total as f64 / rounds as f64,
            flips_total as f64 / rounds as f64,
            repaired_fraction,
            seq,
            par,
            commit_speedup,
            repair,
            full,
            repair_speedup,
        );
        println!(
            "n={n:>5}  commit seq {seq:>10.0} ns  par {par:>10.0} ns ({commit_speedup:.2}x)   \
             repair {repair:>10.0} ns  full build {full:>11.0} ns ({repair_speedup:.2}x, \
             {:.1}% rows)",
            repaired_fraction * 100.0,
        );
        rows.push(with_phase_fields(row, &pre));
    }
    rows
}

/// The compact-routing trajectory: `Repair::Local` sessions under the same
/// link-flap regime, measuring per-node state against the dense tables,
/// cache traffic, repair time and measured stretch; exact queries verified
/// bit-identical to a dense `RoutingTables::build` at small `n`, and every
/// node's home-landmark label equal to a freshly built router's at every `n`.
fn route_local_rows(quick: bool, seed: u64, mut trace: Option<&mut Vec<String>>) -> Vec<String> {
    // (n, churn rounds, stretch samples)
    let sizes: &[(usize, usize, usize)] = if quick {
        &[(400, 4, 60)]
    } else {
        &[(2000, 8, 300), (4000, 4, 300), (100_000, 2, 120)]
    };
    let mut rows = Vec::new();
    for &(n, rounds, samples) in sizes {
        let w = scaled_density_udg(n, 12.0, seed);
        let mean_flaps = (n as f64 / 200.0).max(1.0);
        let mut scenario = LinkFlapScenario::new(&w.graph, mean_flaps, seed + SCENARIO_SEED_OFFSET);
        let mut builder = Session::builder(w.graph.clone())
            .algo(SpannerAlgo::KConnecting { k: 2 })
            .routing(Repair::Local(LocalConfig::default()))
            .threads(1)
            .telemetry(telemetry().clone());
        if trace.is_some() {
            builder = builder.observe(ObsConfig { events: true });
        }
        let mut session = builder
            .build()
            .expect("valid compact-routing configuration");

        let mut repair_ns = Vec::with_capacity(rounds);
        let pre = tel_snapshot();
        let row_start = Instant::now();
        for _ in 0..rounds {
            let batch = scenario.next_batch(session.engine().graph());
            let (report, _, local_repair_ns) = timed_commit(&mut session, &batch);
            assert!(
                report.local_repair.is_some(),
                "local routing configured but no compact repair ran"
            );
            repair_ns.push(local_repair_ns as f64);
        }

        // Hot exact-query traffic so the cache counters mean something: a
        // few sources query a revisited destination set repeatedly (first
        // pass misses and materialises, later passes hit).
        let stride = (n / 64).max(1);
        let hot: Vec<Node> = (0..n).step_by(stride).take(64).map(|v| v as Node).collect();
        for _ in 0..3 {
            for s in 0..4u32.min(n as u32) {
                for &d in &hot {
                    session.exact_next_hop(s, d);
                }
            }
        }

        let sampled = session.sample_local_stretch(samples, seed ^ 0x57E7);

        // Exact verification against the dense tables — small n only (the
        // dense O(n²) build is the wall this family exists to break).
        let tables_match = n <= 4000;
        if tables_match {
            let csr = session.to_csr();
            let tables = RoutingTables::build(&session.spanner_on(&csr));
            for u in (0..n).step_by((n / 32).max(1)) {
                let u = u as Node;
                for v in 0..n as Node {
                    assert_eq!(
                        session.exact_next_hop(u, v),
                        tables.next_hop(u, v),
                        "exact query diverged from dense tables at ({u}, {v}), n={n}"
                    );
                }
            }
        }

        let metrics = session.metrics();
        let local = metrics.local.clone().expect("local routing configured");
        assert_eq!(local.stretch_samples, sampled, "sampler count drifted");
        assert!(
            local.stretch_p99 <= STRETCH_BOUND,
            "stretch p99 {} exceeded the configured bound {STRETCH_BOUND} at n={n}",
            local.stretch_p99
        );
        let dense_bytes_per_node = 12.0 * n as f64; // hop + dist + support
        let state_fraction = local.state_bytes_per_node / dense_bytes_per_node;
        assert!(
            local.state_bytes > 0 && local.landmarks > 0,
            "route_local n={n}: state_bytes {} and landmarks {} must be > 0",
            local.state_bytes,
            local.landmarks
        );
        // Sub-dense per-node state is the point of this family.
        assert!(
            state_fraction < 1.0,
            "route_local n={n}: state_fraction_of_dense {state_fraction} must be < 1"
        );
        let repair = median(repair_ns);
        let row = format!(
            "    {{\"workload\": \"route_local\", \"seed\": {seed}, \"wall_ms\": {:.1}, \
             \"threads\": 1, \"routing\": \"local\", \"strategy\": \"kgreedy_k2\", {}, \
             \"local_repair_ns\": {:.0}, \"dense_bytes_per_node\": {:.0}, \
             \"state_fraction_of_dense\": {:.4}, \"stretch_bound\": {STRETCH_BOUND:.1}, \
             \"stretch_within_bound\": true{}}}",
            row_start.elapsed().as_secs_f64() * 1e3,
            metrics.json_fields(),
            repair,
            dense_bytes_per_node,
            state_fraction,
            if tables_match {
                ", \"tables_match\": true"
            } else {
                ""
            },
        );
        println!(
            "n={n:>6}  state {:>7.0} B/node ({:>5.1}% of dense)  landmarks {:>4}  \
             repair {:>10.0} ns   cache hit {:>5.1}%   stretch p50 {:.2} p99 {:.2}",
            local.state_bytes_per_node,
            100.0 * state_fraction,
            local.landmarks,
            repair,
            100.0 * local.cache_hit_rate(),
            local.stretch_p50,
            local.stretch_p99,
        );
        // The labels the repairs kept, against a fresh build's, on every
        // node.
        let router = session.local_router().expect("local routing configured");
        let fresh = CompactRouter::new(session.engine(), LocalConfig::default());
        for v in 0..n as Node {
            assert_eq!(
                (router.home_landmark(v), router.landmark_distance(v)),
                (fresh.home_landmark(v), fresh.landmark_distance(v)),
                "route_local n={n}: the repaired label of {v} diverged from a fresh build"
            );
        }
        rows.push(with_phase_fields(row, &pre));
        if let Some(lines) = trace.as_deref_mut() {
            let (_, report) = session.finish_observed();
            let r = report.expect("observed session produces a report");
            push_run_trace(lines, "route_local", "local", seed, r);
        }
    }
    rows
}

/// Writes `BENCH_routing.json`: the dense delta-repair family
/// (`routing_churn`) plus the compact-routing family (`route_local`) in one
/// file, distinguished row by row through the `workload` key.  With
/// `--trace-out`, the route_local rows also dump their deterministic
/// commit/local-repair JSONL.
fn routing_workload(quick: bool, seed: u64, out_path: &str, trace_out: Option<&str>) {
    let mut trace: Option<Vec<String>> = trace_out.map(|_| Vec::new());
    let mut rows = routing_churn_rows(quick, seed);
    rows.extend(route_local_rows(quick, seed, trace.as_mut()));
    write_json(out_path, "routing", "per_family_medians", &rows);
    write_trace(trace_out, trace);
}

/// Per-family knobs of one async row beyond the simulator config.
struct AsyncRowCfg {
    churn_interval: VTime,
    rounds: usize,
    crash_prob: f64,
    downtime: VTime,
    /// Delta routing + the session staleness counter (the "staleness"
    /// family); the other families run router-free like the recorded
    /// baselines.
    staleness: bool,
}

/// One async-simulation configuration: runs the scenario to completion
/// through a `Session` and renders its JSON row from the uniform metrics
/// snapshot plus the harness's wall-clock timing.  Staleness rows run with
/// the `rspan-obs` recorder on (the episode histogram needs it); any row
/// also turns it on when `trace` collects JSONL for `--trace-out`.
#[allow(clippy::too_many_arguments)]
fn async_row<S: ChurnScenario + 'static>(
    family: &str,
    graph: &CsrGraph,
    scenario: S,
    algo: SpannerAlgo,
    sim: AsimConfig,
    row_cfg: &AsyncRowCfg,
    seed: u64,
    trace: Option<&mut Vec<String>>,
) -> String {
    let mut builder = Session::builder(graph.clone())
        .algo(algo)
        .churn(scenario)
        .scheduler(Scheduler::Async(sim))
        .churn_interval(row_cfg.churn_interval)
        .crash(row_cfg.crash_prob, row_cfg.downtime)
        .telemetry(telemetry().clone());
    if row_cfg.staleness {
        builder = builder.routing(Repair::Delta).measure_staleness(true);
    }
    if row_cfg.staleness || trace.is_some() {
        builder = builder.observe(ObsConfig {
            events: trace.is_some(),
        });
    }
    let mut session = builder.build().expect("valid async configuration");
    let pre = tel_snapshot();
    let start = Instant::now();
    session.run(row_cfg.rounds).expect("scenario configured");
    let (metrics, report) = session.finish_observed();
    let wall_ns = start.elapsed().as_nanos() as f64;
    let asim = metrics.asim.as_ref().expect("async session");
    assert_eq!(
        asim.drained,
        Some(true),
        "async run exhausted its event budget"
    );
    let s = &asim.stats;
    let dropped = s.dropped_loss + s.dropped_down + s.dropped_no_link;
    assert!(
        s.delivered + dropped <= s.transmissions,
        "async {family} row: delivered {} + dropped {dropped} > transmissions {}",
        s.delivered,
        s.transmissions
    );
    assert!(
        asim.converged_rounds() <= metrics.rounds,
        "async {family} row: converged_rounds {} > rounds {}",
        asim.converged_rounds(),
        metrics.rounds
    );
    let events = s.events.max(1);
    // Staleness rows carry the per-row stale-duration histogram (how many
    // virtual ticks each routing row stayed stale before repair caught up).
    let stale_hist = match (&report, row_cfg.staleness) {
        (Some(r), true) => {
            let st = metrics.staleness.as_ref().expect("staleness measured");
            let h = &r.stale_ticks;
            assert!(
                st.inflight_checks <= st.checks && st.stale_rows_max <= metrics.n,
                "async staleness row: inflight_checks {} <= checks {} and \
                 stale_rows_max {} <= n {} must hold",
                st.inflight_checks,
                st.checks,
                st.stale_rows_max,
                metrics.n
            );
            assert!(
                h.p50 <= h.p99 && h.p99 <= h.max,
                "async staleness row: stale ticks p50 {} <= p99 {} <= max {} must hold",
                h.p50,
                h.p99,
                h.max
            );
            format!(", {}", r.stale_ticks_fields())
        }
        _ => String::new(),
    };
    // The async scheduler always commits sequentially (validated at build).
    let routing = if row_cfg.staleness { "delta" } else { "none" };
    let row = format!(
        "    {{\"workload\": \"async_churn\", \"seed\": {seed}, \"wall_ms\": {:.1}, \
         \"threads\": 1, \"routing\": \"{routing}\", \
         \"family\": \"{family}\", {}{stale_hist}, \"wall_ns_per_event\": {:.0}}}",
        wall_ns / 1e6,
        metrics.json_fields(),
        wall_ns / events as f64,
    );
    let row = with_phase_fields(row, &pre);
    if let Some(lines) = trace {
        let r = report.expect("observed session produces a report");
        push_run_trace(lines, "async_churn", family, seed, r);
    }
    println!(
        "{family:>9}  {:<20} loss {:.2} crash {:.2}  conv {:>2}/{:<2} ({:>5.1} ticks)  \
         delivered {:>8}  dropped {:>6}  {:>6.0} ns/event{}",
        asim.latency,
        asim.loss,
        asim.crash_prob,
        asim.converged_rounds(),
        row_cfg.rounds,
        asim.mean_convergence_ticks(),
        s.delivered,
        dropped,
        wall_ns / events as f64,
        match &metrics.staleness {
            Some(st) => format!(
                "  stale rows {} over {} in-flight boundaries",
                st.stale_rows_total, st.inflight_checks
            ),
            None => String::new(),
        },
    );
    row
}

fn async_churn_workload(quick: bool, seed: u64, out_path: &str, trace_out: Option<&str>) {
    let algo = SpannerAlgo::KConnecting { k: 2 };
    let (n, rounds) = if quick { (300, 6) } else { (1500, 30) };
    let inst = udg_with_density(n, 12.0, seed);
    let scenario_seed = seed + SCENARIO_SEED_OFFSET;
    let sim_seed = seed + SIM_SEED_OFFSET;
    // Same churn regime as the other workloads: ~1% of the nodes see a link
    // event per round.
    let mean_flaps = (n as f64 / 200.0).max(1.0);
    let base_sim = AsimConfig {
        seed: sim_seed,
        ..AsimConfig::default()
    };
    let base_row = AsyncRowCfg {
        churn_interval: 16,
        rounds,
        crash_prob: 0.0,
        downtime: 12,
        staleness: false,
    };
    let mut rows = Vec::new();
    let mut trace: Option<Vec<String>> = trace_out.map(|_| Vec::new());

    // Family 1 — loss sweep: link-flap churn, constant latency, bounded
    // link-layer retransmission.
    for &loss in &[0.0, 0.05, 0.2] {
        let sim = AsimConfig {
            loss,
            max_retries: 2,
            retry_timeout: 2,
            ..base_sim.clone()
        };
        rows.push(async_row(
            "loss",
            &inst.graph,
            LinkFlapScenario::new(&inst.graph, mean_flaps, scenario_seed),
            algo.clone(),
            sim,
            &base_row,
            seed,
            trace.as_mut(),
        ));
    }

    // Family 2 — latency sweep: mobility churn, zero loss, spreading link
    // delays from lock-step to heavy-tailed.
    let movers = (n / 100).max(1);
    for latency in [
        LatencyModel::Constant(1),
        LatencyModel::Uniform { lo: 1, hi: 4 },
        LatencyModel::HeavyTailed {
            min: 1,
            alpha: 1.5,
            cap: 32,
        },
    ] {
        let sim = AsimConfig {
            latency,
            ..base_sim.clone()
        };
        rows.push(async_row(
            "latency",
            &inst.graph,
            MobilityScenario::from_udg(&inst, movers, inst.radius * 0.25, scenario_seed),
            algo.clone(),
            sim,
            &base_row,
            seed,
            trace.as_mut(),
        ));
    }

    // Family 3 — crash-recover: join-leave churn plus random node crashes
    // with recovery re-floods.
    let toggles = (n / 200).max(1);
    for &crash_prob in &[0.3, 0.7] {
        rows.push(async_row(
            "crash",
            &inst.graph,
            JoinLeaveScenario::new(inst.graph.clone(), toggles, scenario_seed),
            algo.clone(),
            base_sim.clone(),
            &AsyncRowCfg {
                crash_prob,
                downtime: 24,
                ..base_row
            },
            seed,
            trace.as_mut(),
        ));
    }

    // Family 4 — routing-table staleness: delta routing rides the same
    // link-flap churn while the session counts, at every churn boundary
    // with a wave still in flight, the rows on which converged distributed
    // state lags the post-commit tables.  Fast links quiesce inside the
    // (shortened) window; heavy-tailed links leave waves in flight and
    // accumulate stale rows — the measurement half of the ROADMAP's "async
    // routing-table staleness" lever.
    for latency in [
        LatencyModel::Constant(1),
        LatencyModel::HeavyTailed {
            min: 2,
            alpha: 1.2,
            cap: 48,
        },
    ] {
        let sim = AsimConfig {
            latency,
            ..base_sim.clone()
        };
        rows.push(async_row(
            "staleness",
            &inst.graph,
            LinkFlapScenario::new(&inst.graph, mean_flaps, scenario_seed),
            algo.clone(),
            sim,
            &AsyncRowCfg {
                churn_interval: 8,
                staleness: true,
                ..base_row
            },
            seed,
            trace.as_mut(),
        ));
    }

    write_json(out_path, "async_churn", "per_run_totals", &rows);
    write_trace(trace_out, trace);
}

/// Per-row knobs of one Byzantine-churn configuration.
struct ByzRowCfg {
    broadcast: Broadcast,
    faults: FaultPlan,
    rounds: usize,
}

/// One Byzantine-churn configuration: link-flap churn through a `Session`
/// with the chosen broadcast layer, fault plan and scheduler adversary; the
/// row is the uniform metrics snapshot (including the `byz` section) plus
/// wall-clock timing.
fn byz_row(
    family: &str,
    graph: &CsrGraph,
    seed: u64,
    scenario_seed: u64,
    mean_flaps: f64,
    sim: AsimConfig,
    cfg: &ByzRowCfg,
) -> (String, rspan_session::Metrics) {
    let mut session = Session::builder(graph.clone())
        .algo(SpannerAlgo::KConnecting { k: 2 })
        .churn(LinkFlapScenario::new(graph, mean_flaps, scenario_seed))
        .scheduler(Scheduler::Async(sim))
        .churn_interval(48)
        .broadcast(cfg.broadcast)
        .faults(cfg.faults.clone())
        .telemetry(telemetry().clone())
        .build()
        .expect("valid byzantine configuration");
    let pre = tel_snapshot();
    let start = Instant::now();
    session.run(cfg.rounds).expect("scenario configured");
    let metrics = session.finish();
    let wall_ns = start.elapsed().as_nanos() as f64;
    let asim = metrics.asim.as_ref().expect("async session");
    let events = asim.stats.events.max(1);
    let row = format!(
        "    {{\"workload\": \"byz_churn\", \"seed\": {seed}, \"wall_ms\": {:.1}, \
         \"threads\": 1, \"routing\": \"none\", \
         \"family\": \"{family}\", {}, \"wall_ns_per_event\": {:.0}}}",
        wall_ns / 1e6,
        metrics.json_fields(),
        wall_ns / events as f64,
    );
    let row = with_phase_fields(row, &pre);
    let (label, agreement) = match &metrics.byz {
        Some(b) => (
            format!("{:<12} faults {:<22}", b.broadcast, b.fault_plan),
            format!(
                "agree {}/{} (mac rejects {})",
                b.agreement_checks - b.agreement_violations,
                b.agreement_checks,
                b.rejected_mac
            ),
        ),
        None => (
            format!("{:<12}", "plain"),
            String::from("agreement unmeasured"),
        ),
    };
    println!(
        "{family:>13}  {label}  conv {:>2}/{:<2} ({:>5.1} ticks)  delivered {:>8}  {agreement}  {:>6.0} ns/event",
        asim.converged_rounds(),
        cfg.rounds,
        asim.mean_convergence_ticks(),
        asim.stats.delivered,
        wall_ns / events as f64,
    );
    (row, metrics)
}

/// `byz_churn` — the Byzantine robustness trajectory, three families:
///
/// * **amplification** — honest network, plain flooding vs the `f = 0`
///   wrapper (pinned wire-silent) vs `f = 2` echo quorums: what the
///   authenticated witness traffic costs on the same topology, churn and
///   latency draws.
/// * **agreement** — a mixed fault plan (forger, equivocator, suppressor,
///   replayer) against plain flooding and against `Reliable { f }`: the
///   reliable rows must close every honest-agreement check, the plain rows
///   record how far unauthenticated flooding diverges.
/// * **adversary** — the same reliable configuration under the scheduler
///   adversaries (worst-case links, laggard node, wave splitting) vs the
///   random-latency baseline: convergence degradation without any fault.
fn byz_churn_workload(quick: bool, seed: u64, out_path: &str) {
    let (n, rounds) = if quick { (40, 3) } else { (80, 6) };
    let inst = udg_with_density(n, 10.0, seed);
    let scenario_seed = seed + SCENARIO_SEED_OFFSET;
    let sim_seed = seed + SIM_SEED_OFFSET;
    let mean_flaps = (n as f64 / 200.0).max(1.0);
    let base_sim = AsimConfig {
        seed: sim_seed,
        latency: LatencyModel::Uniform { lo: 1, hi: 3 },
        ..AsimConfig::default()
    };
    let honest = |rounds| ByzRowCfg {
        broadcast: Broadcast::Plain,
        faults: FaultPlan::none(),
        rounds,
    };
    let mut rows = Vec::new();

    // Family 1 — amplification: honest network, increasing broadcast
    // strength on identical topology/churn/latency draws.
    for broadcast in [
        Broadcast::Plain,
        Broadcast::Reliable { f: 0 },
        Broadcast::Reliable { f: 2 },
    ] {
        let cfg = ByzRowCfg {
            broadcast,
            ..honest(rounds)
        };
        let (row, metrics) = byz_row(
            "amplification",
            &inst.graph,
            seed,
            scenario_seed,
            mean_flaps,
            base_sim.clone(),
            &cfg,
        );
        if let Broadcast::Reliable { f: 0 } = broadcast {
            let byz = metrics.byz.as_ref().expect("byz section present");
            assert_eq!(byz.echo_sent, 0, "f = 0 must stay wire-silent");
            assert_eq!(byz.ready_sent, 0, "f = 0 must stay wire-silent");
        }
        rows.push(row);
    }

    // Family 2 — agreement: a mixed Byzantine cohort (n > 3f) against
    // unauthenticated flooding and against echo quorums.
    let plan = FaultPlan {
        f: 4,
        byzantine: vec![
            (5, ByzBehaviour::Forge),
            (11, ByzBehaviour::Equivocate),
            (17, ByzBehaviour::Suppress),
            (23, ByzBehaviour::Replay),
        ],
        seed: sim_seed,
    };
    for broadcast in [Broadcast::Plain, Broadcast::Reliable { f: 4 }] {
        let cfg = ByzRowCfg {
            broadcast,
            faults: plan.clone(),
            rounds,
        };
        let (row, metrics) = byz_row(
            "agreement",
            &inst.graph,
            seed,
            scenario_seed,
            mean_flaps,
            base_sim.clone(),
            &cfg,
        );
        let byz = metrics.byz.as_ref().expect("byz section present");
        if matches!(broadcast, Broadcast::Reliable { .. }) {
            // Echo quorums close every honest-agreement check while the MAC
            // layer visibly rejects the injected tampering.
            assert!(
                byz.agreement_ok(),
                "echo quorums must preserve honest agreement"
            );
            assert!(
                byz.rejected_mac > 0 && byz.rb_delivered > 0,
                "reliable agreement row: rb_rejected_mac {} and rb_delivered {} must be > 0",
                byz.rejected_mac,
                byz.rb_delivered
            );
        } else {
            // Unauthenticated flooding loses honest agreement under the
            // same fault plan.
            assert!(
                byz.agreement_violations > 0,
                "plain agreement row: agreement_violations must be > 0"
            );
        }
        rows.push(row);
    }

    // Family 3 — adversary: scheduler-level worst cases against the random
    // baseline, honest nodes, reliable broadcast (the regime the quorum
    // timing actually has to survive).
    for adversary in [
        Adversary::None,
        Adversary::WorstLink { factor: 6 },
        Adversary::Laggard { node: 0, lag: 12 },
        Adversary::WaveSplit { stretch: 8 },
    ] {
        let sim = AsimConfig {
            adversary,
            ..base_sim.clone()
        };
        let cfg = ByzRowCfg {
            broadcast: Broadcast::Reliable { f: 2 },
            ..honest(rounds)
        };
        let (row, _) = byz_row(
            "adversary",
            &inst.graph,
            seed,
            scenario_seed,
            mean_flaps,
            sim,
            &cfg,
        );
        rows.push(row);
    }

    write_json(out_path, "byz_churn", "per_run_totals", &rows);
}

/// Writes `BENCH_net.json`: the real-transport cluster family.  Each row
/// runs the same seeded churn (link flaps, ~1% of nodes per round) once on
/// live OS threads and once over TCP loopback sockets, records the
/// **wall-clock** convergence time per round, and validates the end state
/// against the asim reference for the identical world — so the figure says
/// "this is what the virtual-time prediction costs on real concurrency",
/// with the bit-identity check inline rather than on faith.
///
/// The graphs are sparser than the simulator families (degree ≈ 6, not 12):
/// the TCP backend spawns a reader thread per live direction, and bounding
/// the per-row thread count keeps the n = 256 row comfortable.
///
/// Wall-clock keys (`wall_*`) and the physical frame/byte counts
/// (`net_*`: relay counts under monotone acceptance depend on arrival
/// order) are nondeterministic; the bench gate treats both as
/// presence-only for this file.  `dirty_total`, the asim virtual-time
/// prediction and the two validation booleans replay from seeds.
fn net_cluster_workload(quick: bool, seed: u64, out_path: &str) {
    let sizes: &[usize] = if quick { &[16] } else { &[16, 64, 256] };
    let rounds = if quick { 3 } else { 5 };
    let mut rows = Vec::new();
    for &n in sizes {
        let w = udg_with_density(n, 6.0, seed);
        let mean_flaps = (n as f64 / 200.0).max(1.0);
        let fresh_world = || {
            (
                RspanEngine::new(w.graph.clone(), TreeAlgo::KGreedy { k: 2 }),
                LinkFlapScenario::new(&w.graph, mean_flaps, seed + SCENARIO_SEED_OFFSET),
            )
        };

        // The asim reference: identical world under unit latency, zero loss,
        // zero crashes.  Yields the predicted virtual convergence time and
        // the end state the live runs must reproduce bit for bit.
        let (mut engine, mut scenario) = fresh_world();
        let cfg = AsyncChurnConfig {
            churn_interval: 16,
            rounds,
            ..AsyncChurnConfig::default()
        };
        let mut driver = RepairChurnDriver::new(&engine, cfg);
        for _ in 0..rounds {
            driver.begin_round();
            driver.commit_round(&mut engine, &mut scenario);
        }
        let (asim_run, asim_nodes) = driver.finish_with_nodes();
        assert!(asim_run.drained, "asim reference must drain");
        let reference = repair_end_state(&asim_nodes);
        let asim_ticks = asim_run.mean_convergence_ticks();
        let m = w.graph.m();

        for backend in [NetBackend::Threaded, NetBackend::Tcp] {
            let (mut engine, mut scenario) = fresh_world();
            let harness = NetCluster::new(NetChurnConfig {
                backend,
                quiesce_timeout: std::time::Duration::from_secs(120),
                telemetry: telemetry().clone(),
                ..NetChurnConfig::default()
            });
            let pre = tel_snapshot();
            let start = Instant::now();
            let (run, nodes) = harness.run(&mut engine, &mut scenario, rounds);
            let wall_ns = start.elapsed().as_nanos() as f64;
            let converged = run.fully_converged();
            let state_matches = repair_end_state(&nodes) == reference;
            assert!(
                converged,
                "net cluster failed to quiesce (n={n}, {backend:?})"
            );
            assert!(
                state_matches,
                "net end state diverged from asim (n={n}, {backend:?})"
            );
            let post = tel_snapshot();
            let d = |c| post.counter(c).saturating_sub(pre.counter(c));
            use rspan_telemetry::Counter;
            assert!(
                d(Counter::NetFramesSent) > 0 && d(Counter::NetFramesRecv) > 0,
                "net row (n={n}, {backend:?}): net_frames_sent {} and net_frames_recv {} \
                 must be > 0",
                d(Counter::NetFramesSent),
                d(Counter::NetFramesRecv)
            );
            let row = format!(
                "    {{\"workload\": \"net_cluster\", \"seed\": {seed}, \"wall_ms\": {:.1}, \
                 \"threads\": {n}, \"routing\": \"none\", \
                 \"backend\": \"{}\", \"n\": {n}, \"m\": {m}, \"rounds\": {rounds}, \
                 \"dirty_total\": {}, \"converged\": {converged}, \
                 \"state_matches_asim\": {state_matches}, \
                 \"asim_mean_convergence_ticks\": {asim_ticks:.3}, \
                 \"wall_convergence_ms\": {:.3}, \"wall_round_mean_ms\": {:.3}, \
                 \"net_frames_sent\": {}, \"net_frames_recv\": {}, \
                 \"net_bytes_sent\": {}, \"net_reconnects\": {}}}",
                wall_ns / 1e6,
                backend.label(),
                run.dirty_total,
                run.wall_ns_total as f64 / 1e6,
                run.wall_ns_total as f64 / 1e6 / rounds as f64,
                d(Counter::NetFramesSent),
                d(Counter::NetFramesRecv),
                d(Counter::NetBytesSent),
                d(Counter::NetReconnects),
            );
            rows.push(with_phase_fields(row, &pre));
        }
    }
    write_json(out_path, "net_cluster", "wall_convergence_ms", &rows);
}

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    Remspan,
    EngineChurn,
    RoutingChurn,
    AsyncChurn,
    ByzChurn,
    NetCluster,
    All,
}

fn usage() -> ! {
    eprintln!(
        "usage: perf_baseline [remspan|engine_churn|routing_churn|async_churn|byz_churn|\
         net_cluster|all] [--quick] [--seed N] [--json PATH] [--trace-out PATH] \
         [--telemetry-out PATH]"
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = Workload::All;
    let mut quick = false;
    let mut seed = 3u64;
    let mut json: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut telemetry_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "remspan" => workload = Workload::Remspan,
            "engine_churn" => workload = Workload::EngineChurn,
            "routing_churn" => workload = Workload::RoutingChurn,
            "async_churn" => workload = Workload::AsyncChurn,
            "byz_churn" => workload = Workload::ByzChurn,
            "net_cluster" => workload = Workload::NetCluster,
            "all" => workload = Workload::All,
            "--quick" => quick = true,
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--json" => json = Some(args.next().unwrap_or_else(|| usage())),
            "--trace-out" => trace_out = Some(args.next().unwrap_or_else(|| usage())),
            "--telemetry-out" => telemetry_out = Some(args.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    if json.is_some() && workload == Workload::All {
        eprintln!(
            "--json requires a single workload (remspan, engine_churn, routing_churn, \
             async_churn, byz_churn or net_cluster)"
        );
        std::process::exit(2);
    }
    if trace_out.is_some() && !matches!(workload, Workload::AsyncChurn | Workload::RoutingChurn) {
        eprintln!("--trace-out requires the async_churn or routing_churn workload");
        std::process::exit(2);
    }
    match workload {
        Workload::Remspan => {
            remspan_workload(quick, seed, json.as_deref().unwrap_or("BENCH_remspan.json"))
        }
        Workload::EngineChurn => {
            engine_churn_workload(quick, seed, json.as_deref().unwrap_or("BENCH_engine.json"))
        }
        Workload::RoutingChurn => routing_workload(
            quick,
            seed,
            json.as_deref().unwrap_or("BENCH_routing.json"),
            trace_out.as_deref(),
        ),
        Workload::AsyncChurn => async_churn_workload(
            quick,
            seed,
            json.as_deref().unwrap_or("BENCH_async.json"),
            trace_out.as_deref(),
        ),
        Workload::ByzChurn => {
            byz_churn_workload(quick, seed, json.as_deref().unwrap_or("BENCH_byz.json"))
        }
        Workload::NetCluster => {
            net_cluster_workload(quick, seed, json.as_deref().unwrap_or("BENCH_net.json"))
        }
        Workload::All => {
            remspan_workload(quick, seed, "BENCH_remspan.json");
            engine_churn_workload(quick, seed, "BENCH_engine.json");
            routing_workload(quick, seed, "BENCH_routing.json", None);
            async_churn_workload(quick, seed, "BENCH_async.json", None);
            byz_churn_workload(quick, seed, "BENCH_byz.json");
            net_cluster_workload(quick, seed, "BENCH_net.json");
        }
    }
    // The final fold across everything the selected workloads ran, in
    // Prometheus text exposition format — what a scrape endpoint would
    // serve if this process were long-lived.  The file is written either
    // way, so a malformed exposition can be inspected.
    if let Some(path) = telemetry_out {
        let exposition = tel_snapshot().render_prometheus();
        std::fs::write(&path, &exposition).expect("write telemetry exposition");
        println!("wrote {path}");
        if let Err(violation) = rspan_telemetry::lint_prometheus(&exposition) {
            eprintln!("{path}: malformed Prometheus exposition: {violation}");
            std::process::exit(1);
        }
    }
}
