//! `flap_local`: stationary Poisson link flaps through `RspanEngine::commit`
//! and `CompactRouter::apply` (the write phase), then a fixed read mix of
//! `next_hop`, `forward` and `exact_next_hop` (the read phase).
//!
//! Landmark-tree rebuilds dominate the write phase and the reads walk the
//! same trees, so a repair change that slows lookups, or the reverse, shows
//! inside this one workload: `converge_ms` times the write phase and
//! `changes_per_s` the whole round.

use crate::inputs::{Batches, FlapBack};
use crate::stats::{mean, median, percentile, ratio};
use crate::trace::{Tracer, SETUP_ROUND};
use crate::{metric, span_ms_per_round, span_total, Args, LoopProbe, Pass, PassOut, SEGMENTS};
use rand::rngs::SmallRng;
use rand::Rng;
use rspan_core::rem_span_algo;
use rspan_distributed::{CompactRouter, LocalConfig};
use rspan_domtree::TreeAlgo;
use rspan_engine::{RspanEngine, TopologyChange};
use rspan_graph::generators::udg::udg_with_density;
use rspan_graph::{bfs_distances, connected_components, CsrGraph, Node};
use rspan_telemetry::{Span, TelemetryHandle};
use std::hint::black_box;
use std::time::Instant;

const N: usize = 5000;
const DEGREE: f64 = 12.0;
const ALGO: TreeAlgo = TreeAlgo::KGreedy { k: 2 };
const WARMUP_ROUNDS: usize = 2;
/// Read mix per round, sized so the read phase takes about as long as the
/// write phase.
const NEXT_HOP_QUERIES: usize = 60_000;
const FORWARD_QUERIES: usize = 6_000;
const EXACT_SOURCES: usize = 4;
const HOT_SET: usize = 64;
const EXACT_PASSES: usize = 40;
/// Check sample: router answers against a fresh build, and forward stretch.
const CHECK_PAIRS: usize = 4096;
const CHECK_EXACT_SOURCES: usize = 8;
const STRETCH_SOURCES: usize = 40;
const STRETCH_TARGETS: usize = 50;
/// Bound on the sample's p99 stretch, as the repository's compact-routing
/// tests and `perf_baseline` assert it.  Landmark routing bounds a path by
/// `d_T(s, l) + d_T(l, t)`, not by a multiple of `d(s, t)`, so single
/// close pairs may exceed it.
const STRETCH_P99_BOUND: f64 = 4.0;

/// The read mix, the same in every segment.
struct Queries {
    next_hop_pairs: Vec<(Node, Node)>,
    forward_pairs: Vec<(Node, Node)>,
    exact_sources: Vec<Node>,
    hot: Vec<Node>,
}

/// One segment's graph and its churn.
struct Topology {
    graph: CsrGraph,
    batches: Batches<FlapBack>,
}

fn pairs(rng: &mut SmallRng, count: usize) -> Vec<(Node, Node)> {
    (0..count)
        .map(|_| {
            let u = rng.gen_range(0..N as Node);
            let v = (u + rng.gen_range(1..N as Node)) % N as Node;
            (u, v)
        })
        .collect()
}

fn nodes(rng: &mut SmallRng, count: usize) -> Vec<Node> {
    (0..count).map(|_| rng.gen_range(0..N as Node)).collect()
}

impl Topology {
    fn generate(seed: u64) -> Self {
        let graph = udg_with_density(N, DEGREE, seed).graph;
        // n/400 links down a round, each back the round after: n/200 link
        // events a round, about 1% of the nodes.
        let flaps = FlapBack::new(&graph, N as f64 / 400.0, seed + 4);
        let batches = Batches::new(flaps, &graph, Vec::new());
        Topology { graph, batches }
    }
}

impl Queries {
    fn generate(seed: u64) -> Self {
        let mut rng = crate::stream(seed, 1);
        Queries {
            next_hop_pairs: pairs(&mut rng, NEXT_HOP_QUERIES),
            forward_pairs: pairs(&mut rng, FORWARD_QUERIES),
            exact_sources: nodes(&mut rng, EXACT_SOURCES),
            hot: nodes(&mut rng, HOT_SET),
        }
    }

    fn lookups_per_round(&self) -> u64 {
        (self.next_hop_pairs.len()
            + self.forward_pairs.len()
            + EXACT_PASSES * self.exact_sources.len() * self.hot.len()) as u64
    }
}

struct World {
    engine: RspanEngine,
    router: CompactRouter,
}

/// What one round measured.
struct Round {
    changes: usize,
    dirty: usize,
    flips: usize,
    ball_rows: usize,
    trees_rebuilt: usize,
    landmarks: usize,
    write_s: f64,
    next_hop_s: f64,
    forward_s: f64,
    exact_s: f64,
    forward_hops: u64,
    /// Queries answered without a route; failures if the graph connects
    /// the pair.
    unrouted: Vec<(Node, Node)>,
}

fn round(world: &mut World, queries: &Queries, batch: &[TopologyChange], tr: &mut Tracer) -> Round {
    let World { engine, router } = world;
    let mut unrouted = Vec::new();
    let id = tr.open("round");
    let t0 = Instant::now();
    let delta = tr.span("engine.commit", 1, || engine.commit(batch));
    let stats = tr.span("compact.apply", 1, || router.apply(engine, batch, &delta));
    let t1 = Instant::now();
    tr.span(
        "compact.next_hop",
        queries.next_hop_pairs.len() as u64,
        || {
            for &(u, v) in &queries.next_hop_pairs {
                if black_box(router.next_hop(u, v)).is_none() {
                    unrouted.push((u, v));
                }
            }
        },
    );
    let t2 = Instant::now();
    let forward_hops = tr.span(
        "compact.forward",
        queries.forward_pairs.len() as u64,
        || {
            let mut hops = 0u64;
            for &(s, t) in &queries.forward_pairs {
                match black_box(router.forward(s, t)) {
                    Some(path) => hops += path.len() as u64 - 1,
                    None => unrouted.push((s, t)),
                }
            }
            hops
        },
    );
    let t3 = Instant::now();
    let exact_calls = (EXACT_PASSES * queries.exact_sources.len() * queries.hot.len()) as u64;
    tr.span("compact.exact_next_hop", exact_calls, || {
        for _ in 0..EXACT_PASSES {
            for &s in &queries.exact_sources {
                for &d in &queries.hot {
                    if s != d && black_box(router.exact_next_hop(engine, s, d)).is_none() {
                        unrouted.push((s, d));
                    }
                }
            }
        }
    });
    let t4 = Instant::now();
    tr.close(id, 1);
    let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
    Round {
        changes: batch.len(),
        dirty: delta.recomputed.len(),
        flips: stats.spanner_flips,
        ball_rows: stats.ball_rows,
        trees_rebuilt: stats.landmark_trees,
        landmarks: router.landmarks().len(),
        write_s: secs(t0, t1),
        next_hop_s: secs(t1, t2),
        forward_s: secs(t2, t3),
        exact_s: secs(t3, t4),
        forward_hops,
        unrouted,
    }
}

/// Builds the world from a segment's topology and runs the warm-up rounds;
/// returns it with the engine and router build times.
fn setup(
    topo: &mut Topology,
    queries: &Queries,
    tr: &mut Tracer,
    tel: &TelemetryHandle,
) -> (World, f64, f64) {
    let graph = topo.graph.clone();
    let t0 = Instant::now();
    let mut engine = tr.span("engine.new", 1, || RspanEngine::new(graph, ALGO));
    let t1 = Instant::now();
    let mut router = tr.span("compact.new", 1, || {
        CompactRouter::new(&engine, LocalConfig::default())
    });
    let t2 = Instant::now();
    engine.set_telemetry(tel.clone());
    router.set_telemetry(tel.clone());
    let mut world = World { engine, router };
    for w in 0..WARMUP_ROUNDS {
        let batch = topo.batches.get(w).to_vec();
        round(&mut world, queries, &batch, tr);
    }
    let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
    (world, secs(t0, t1), secs(t1, t2))
}

pub fn pass(args: &Args, tracing: bool) -> Result<PassOut, String> {
    let queries = Queries::generate(args.seed);
    let mut draws = crate::stream(args.seed, 3);
    let mut tr = if tracing { Tracer::on() } else { Tracer::off() };
    let tel = if tracing {
        TelemetryHandle::enabled()
    } else {
        TelemetryHandle::off()
    };
    let mut p = Pass::default();
    let (mut engine_build, mut router_build) = (Vec::new(), Vec::new());
    let mut changed_trees = 0usize;
    let mut repair_ms: (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    let (mut hits, mut misses, mut materialized) = (0u64, 0u64, 0u64);
    let mut rounds: Vec<Round> = Vec::new();
    let mut world = None;
    let mut edges = 0;
    for k in 0..SEGMENTS {
        // Drawn here, outside the timed rounds, so only one segment's
        // inputs are resident at a time.
        let mut topo = Topology::generate(draws.next_u64());
        edges += topo.graph.m();
        let w = p.set_up(&mut world, || {
            let (w, engine_s, router_s) = setup(&mut topo, &queries, &mut tr, &tel);
            engine_build.push(engine_s);
            router_build.push(router_s);
            w
        });

        // Traced pass only: a mirror of every cached tree, to count the
        // recomputed roots whose tree actually changed.
        let mut mirror: Vec<Vec<(Node, Node)>> = if tracing {
            (0..N as Node)
                .map(|r| w.engine.tree_edges(r).to_vec())
                .collect()
        } else {
            Vec::new()
        };
        let cache0 = w.router.cache_stats();
        let mut last_tel = tel.snapshot();
        let mut timed = 0;
        let probe = LoopProbe::start(&mut p);
        while !p.segment_done(args.seconds, k) {
            let batch = topo.batches.get(WARMUP_ROUNDS + timed).to_vec();
            tr.set_round(rounds.len() as i64);
            let r = round(w, &queries, &batch, &mut tr);
            tr.set_round(SETUP_ROUND);
            // Convergence is the write phase; the change rate is charged the
            // whole round, so a slower read phase moves a bounded metric too.
            let round_s = r.write_s + r.next_hop_s + r.forward_s + r.exact_s;
            p.record_round(r.changes, r.write_s, round_s, round_s);
            p.tally.record(true);
            let failed = if r.unrouted.is_empty() {
                0
            } else {
                let comp = connected_components(w.engine.graph());
                r.unrouted
                    .iter()
                    .filter(|&&(u, v)| comp[u as usize] == comp[v as usize])
                    .count()
            };
            p.tally.add(queries.lookups_per_round(), failed as u64);
            if tracing {
                for (root, old) in mirror.iter_mut().enumerate() {
                    let now = w.engine.tree_edges(root as Node);
                    if now != old.as_slice() {
                        changed_trees += 1;
                        *old = now.to_vec();
                    }
                }
                let snap = tel.snapshot();
                if let (Some(a), Some(b)) = (&last_tel, &snap) {
                    let ms = |sp| (b.span(sp).wall_ns - a.span(sp).wall_ns) as f64 / 1e6;
                    repair_ms.0.push(ms(Span::LandmarkRepair));
                    repair_ms.1.push(ms(Span::BallRepair));
                }
                last_tel = snap;
            }
            rounds.push(r);
            timed += 1;
        }
        probe.finish(&mut p);
        let cache = w.router.cache_stats();
        hits += cache.hits - cache0.hits;
        misses += cache.misses - cache0.misses;
        materialized += cache.materialized - cache0.materialized;
    }
    let mut world = world.expect("a set-up world");
    let state_bytes = world.router.state_bytes() as f64 / N as f64;

    let stretch = check(&mut world, args.seed)?;
    let stretch_p99 = percentile(&stretch, 99.0).ok_or("stretch sample too small for p99")?;
    if stretch_p99 > STRETCH_P99_BOUND {
        return Err(format!(
            "flap_local: forward stretch p99 {stretch_p99} exceeds {STRETCH_P99_BOUND}"
        ));
    }

    let sum = |f: fn(&Round) -> f64| rounds.iter().map(f).sum::<f64>();
    let read_s = sum(|r| r.next_hop_s + r.forward_s + r.exact_s);
    let workload_e2e = vec![
        metric(
            "lookups_per_s",
            "1/s",
            ratio(
                (queries.lookups_per_round() as usize * rounds.len()) as f64,
                read_s,
            ),
        ),
        metric("state_bytes_per_node", "B", state_bytes),
        metric("stretch_p99", "ratio", stretch_p99),
    ];
    let mut layer = Vec::new();
    if tracing {
        let changes = sum(|r| r.changes as f64);
        let dirty = sum(|r| r.dirty as f64);
        let per_call = |name: &str, scale: f64| {
            let (ns, calls) = span_total(&tr, name);
            ratio(ns, calls) / scale
        };
        let apply = span_ms_per_round(&tr, &["compact.apply"]);
        let (hits, misses) = (hits as f64, misses as f64);
        layer = vec![
            metric("engine.build_s", "s", median(&engine_build).unwrap_or(0.0)),
            metric(
                "engine.commit_ms_p50",
                "ms",
                median(&span_ms_per_round(&tr, &["engine.commit"])).unwrap_or(0.0),
            ),
            metric("engine.dirty_per_change", "count", ratio(dirty, changes)),
            metric(
                "engine.flips_per_change",
                "count",
                ratio(sum(|r| r.flips as f64), changes),
            ),
            metric(
                "engine.changed_tree_ratio",
                "ratio",
                ratio(changed_trees as f64, dirty),
            ),
            metric("compact.build_s", "s", median(&router_build).unwrap_or(0.0)),
            metric("compact.apply_ms_p50", "ms", median(&apply).unwrap_or(0.0)),
            metric(
                "compact.apply_ms_p90",
                "ms",
                percentile(&apply, 90.0).ok_or("too few rounds for compact.apply_ms_p90")?,
            ),
            metric(
                "compact.landmark_repair_ms_p50",
                "ms",
                median(&repair_ms.0).unwrap_or(0.0),
            ),
            metric(
                "compact.ball_repair_ms_p50",
                "ms",
                median(&repair_ms.1).unwrap_or(0.0),
            ),
            metric(
                "compact.trees_rebuilt_ratio",
                "ratio",
                ratio(sum(|r| r.trees_rebuilt as f64), sum(|r| r.landmarks as f64)),
            ),
            metric(
                "compact.ball_rows_per_commit",
                "count",
                mean(
                    &rounds
                        .iter()
                        .map(|r| r.ball_rows as f64)
                        .collect::<Vec<_>>(),
                ),
            ),
            metric(
                "compact.next_hop_ns",
                "ns",
                per_call("compact.next_hop", 1.0),
            ),
            metric("compact.forward_us", "us", per_call("compact.forward", 1e3)),
            metric(
                "compact.exact_ns",
                "ns",
                per_call("compact.exact_next_hop", 1.0),
            ),
            metric(
                "compact.cache_hit_ratio",
                "ratio",
                ratio(hits, hits + misses),
            ),
            metric(
                "compact.rows_materialized_per_round",
                "count",
                ratio(materialized as f64, rounds.len() as f64),
            ),
            metric(
                "compact.forward_hops_mean",
                "count",
                ratio(
                    sum(|r| r.forward_hops as f64),
                    (rounds.len() * queries.forward_pairs.len()) as f64,
                ),
            ),
            metric(
                "compact.landmarks",
                "count",
                mean(
                    &rounds
                        .iter()
                        .map(|r| r.landmarks as f64)
                        .collect::<Vec<_>>(),
                ),
            ),
        ];
    }
    Ok(PassOut {
        pass: p,
        tracer: tr,
        workload_e2e,
        layer,
        diagnostics: vec![
            ("n", N as f64),
            ("m_mean", edges as f64 / SEGMENTS as f64),
            ("rounds", rounds.len() as f64),
            ("lookups_per_round", queries.lookups_per_round() as f64),
            ("landmarks_end", world.router.landmarks().len() as f64),
        ],
    })
}

/// Checks the final state outside the timed loop: the spanner equals a
/// full recompute, the repaired router answers like a fresh one, and every
/// forward path on a connected pair reaches its target.  Returns the
/// measured stretch of the sample.
fn check(world: &mut World, seed: u64) -> Result<Vec<f64>, String> {
    let World { engine, router } = world;
    let csr = engine.to_csr();
    let mut full: Vec<(Node, Node)> = rem_span_algo(&csr, ALGO).edges().collect();
    full.sort_unstable();
    if engine.spanner_pairs() != full {
        return Err("flap_local: spanner differs from a full rem_span_algo recompute".into());
    }
    let mut fresh = CompactRouter::new(engine, LocalConfig::default());
    let mut rng = crate::stream(seed, 2);
    for (u, v) in pairs(&mut rng, CHECK_PAIRS) {
        if router.next_hop(u, v) != fresh.next_hop(u, v) {
            return Err(format!(
                "flap_local: next_hop({u}, {v}) differs from a fresh router"
            ));
        }
    }
    for s in nodes(&mut rng, CHECK_EXACT_SOURCES) {
        for v in 0..N as Node {
            if router.exact_next_hop(engine, s, v) != fresh.exact_next_hop(engine, s, v) {
                return Err(format!(
                    "flap_local: exact_next_hop({s}, {v}) differs from a fresh router"
                ));
            }
        }
    }
    // Pairs the graph connects, STRETCH_TARGETS per source at most.
    let mut stretch = Vec::new();
    while stretch.len() < STRETCH_SOURCES * STRETCH_TARGETS {
        let s = rng.gen_range(0..N as Node);
        let dist = bfs_distances(&csr, s);
        for _ in 0..STRETCH_TARGETS {
            let t = rng.gen_range(0..N as Node);
            let Some(d) = dist[t as usize].filter(|&d| d > 0) else {
                continue;
            };
            let path = router
                .forward(s, t)
                .ok_or(format!("flap_local: forward({s}, {t}) found no route"))?;
            if path.first() != Some(&s) || path.last() != Some(&t) {
                return Err(format!(
                    "flap_local: forward({s}, {t}) ended off its target"
                ));
            }
            stretch.push((path.len() - 1) as f64 / d as f64);
        }
    }
    Ok(stretch)
}
