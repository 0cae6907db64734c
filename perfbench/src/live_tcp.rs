//! `live_tcp`: link flaps on a TCP loopback cluster of `rspan-net` workers,
//! driven in the order `NetCluster::run` uses: commit, mirror the flips with
//! `set_link`, `wait_quiesce`, `inject` the repair wave on every recomputed
//! root, `wait_quiesce`.
//!
//! Framing, writer queues, sockets, reader threads and the quiescence poll
//! make up nearly the whole round; engine work is negligible.
//!
//! A 32-node graph's round cost depends on its shape, so every segment of
//! the loop (see [`SEGMENTS`]) draws its own seeded graph and runs its own
//! cluster: the figures describe the graph family, not one draw from it.

use crate::inputs::{Batches, Replay};
use crate::stats::{median, percentile, ratio};
use crate::trace::{Tracer, SETUP_ROUND};
use crate::{metric, span_ms_per_round, span_total, sys, Args, LoopProbe, Pass, PassOut, SEGMENTS};
use rand::rngs::SmallRng;
use rand::Rng;
use rspan_asim::{AsyncChurnConfig, RepairChurnDriver};
use rspan_core::rem_span_algo;
use rspan_distributed::{RepairNode, WaveNode};
use rspan_domtree::TreeAlgo;
use rspan_engine::{LinkFlapScenario, RspanEngine, TopologyChange};
use rspan_graph::generators::udg::udg_with_density;
use rspan_graph::{connected_components, CsrGraph, Node};
use rspan_net::{repair_end_state, spawn_tcp, Cluster};
use rspan_telemetry::{Counter, Hist, TelemetryHandle, TelemetrySnapshot};
use std::time::{Duration, Instant};

const N: usize = 32;
const DEGREE: f64 = 6.0;
/// Edge counts the topology is drawn within: the middle of the 32-node,
/// degree-6 unit-disk distribution (its quartiles are 69 and 83 edges).
const EDGES: std::ops::RangeInclusive<usize> = 72..=78;
/// A mean of 3 flaps leaves 5% of rounds empty; a mean of 1 leaves 37%
/// and makes the median bimodal.
const MEAN_FLAPS: f64 = 3.0;
const ALGO: TreeAlgo = TreeAlgo::KGreedy { k: 2 };
/// Cluster clock tick, as `NetChurnConfig` sets it.
const TICK: Duration = Duration::from_micros(100);
/// A round that has not quiesced by then has failed.
const QUIESCE_TIMEOUT: Duration = Duration::from_secs(5);

/// Two warm-up batches that remove, then restore, a set of edges whose
/// endpoints' 1-balls (the engine's dirty radius) cover every node with a
/// link.  Every such node is recomputed in both rounds and broadcasts its
/// wave to all its neighbours, so after the second round every link of the
/// graph has carried a frame and every lazy connection is open.
fn cover_batches(graph: &CsrGraph) -> Vec<Vec<TopologyChange>> {
    let mut covered = vec![false; graph.n()];
    let mut edges = Vec::new();
    for v in 0..graph.n() as Node {
        let Some(&w) = graph.neighbors(v).first() else {
            continue; // isolated: no link to warm
        };
        if covered[v as usize] {
            continue;
        }
        edges.push((v.min(w), v.max(w)));
        for x in [v, w] {
            covered[x as usize] = true;
            for &y in graph.neighbors(x) {
                covered[y as usize] = true;
            }
        }
    }
    let remove = edges.iter().map(|&(u, v)| TopologyChange::RemoveEdge(u, v));
    let restore = edges.iter().map(|&(u, v)| TopologyChange::AddEdge(u, v));
    vec![remove.collect(), restore.collect()]
}

const WARMUP_ROUNDS: usize = 2;

/// One topology of the run and its churn.
struct Inputs {
    graph: CsrGraph,
    neighbors: Vec<Vec<Node>>,
    batches: Batches<LinkFlapScenario>,
}

impl Inputs {
    /// The next topology from `draws`: a seeded unit-disk graph, redrawn
    /// until it is connected and its edge count lies in [`EDGES`].  At 32
    /// nodes the edge count spreads by ±10% between draws and the round
    /// cost follows it.
    fn generate(draws: &mut SmallRng) -> Self {
        let graph = loop {
            let graph = udg_with_density(N, DEGREE, draws.next_u64()).graph;
            if EDGES.contains(&graph.m()) && connected_components(&graph).iter().all(|&c| c == 0) {
                break graph;
            }
        };
        let flaps = LinkFlapScenario::new(&graph, MEAN_FLAPS, draws.next_u64());
        let batches = Batches::new(flaps, &graph, cover_batches(&graph));
        let neighbors = (0..N as Node)
            .map(|v| graph.neighbors(v).to_vec())
            .collect();
        Inputs {
            graph,
            neighbors,
            batches,
        }
    }
}

struct World {
    engine: RspanEngine,
    cluster: Cluster<RepairNode>,
}

/// What one round measured.
struct Round {
    changes: usize,
    converge_s: f64,
    link_phase_s: f64,
    wave_phase_s: f64,
    converged: bool,
}

fn round(world: &mut World, batch: &[TopologyChange], tr: &mut Tracer) -> Round {
    let World { engine, cluster } = world;
    let id = tr.open("round");
    let t0 = Instant::now();
    let delta = tr.span("engine.commit", 1, || engine.commit(batch));
    let t1 = Instant::now();
    tr.span("net.set_link", batch.len() as u64, || {
        for change in batch {
            match *change {
                TopologyChange::AddEdge(u, v) => cluster.set_link(u, v, true),
                TopologyChange::RemoveEdge(u, v) => cluster.set_link(u, v, false),
            }
        }
    });
    let links_ok = tr.span("net.wait_quiesce", 1, || {
        cluster.wait_quiesce(QUIESCE_TIMEOUT)
    });
    let t2 = Instant::now();
    let epoch = delta.epoch;
    tr.span("net.inject", delta.recomputed.len() as u64, || {
        for &d in &delta.recomputed {
            let tree = engine.tree_edges(d).to_vec();
            cluster.inject(d, move |node, net| {
                node.arm_wave(epoch, Some(tree));
                node.fire_wave(net);
            });
        }
    });
    let waves_ok = tr.span("net.wait_quiesce", 1, || {
        cluster.wait_quiesce(QUIESCE_TIMEOUT)
    });
    let t3 = Instant::now();
    tr.close(id, 1);
    let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
    Round {
        changes: batch.len(),
        converge_s: secs(t0, t3),
        link_phase_s: secs(t1, t2),
        wave_phase_s: secs(t2, t3),
        converged: links_ok && waves_ok,
    }
}

/// Builds the world and runs the warm-up rounds; returns it with the spawn
/// time.
fn setup(
    inputs: &mut Inputs,
    tr: &mut Tracer,
    tel: &TelemetryHandle,
) -> Result<(World, f64), String> {
    let graph = inputs.graph.clone();
    let neighbors = inputs.neighbors.clone();
    let engine = tr.span("engine.new", 1, || RspanEngine::new(graph, ALGO));
    let radius = engine.dirty_radius();
    let t0 = Instant::now();
    let cluster = tr.span("net.spawn_tcp", 1, || {
        spawn_tcp(
            neighbors,
            |_| RepairNode::with_monotone(radius),
            TICK,
            tel.clone(),
        )
    });
    let spawn_s = t0.elapsed().as_secs_f64();
    let mut world = World { engine, cluster };
    for w in 0..WARMUP_ROUNDS {
        let batch = inputs.batches.get(w).to_vec();
        if !round(&mut world, &batch, tr).converged {
            return Err("live_tcp: a warm-up round did not quiesce".into());
        }
    }
    Ok((world, spawn_s))
}

/// Stops a cluster and hands back its node states.
fn stop(cluster: Cluster<RepairNode>, tr: &mut Tracer) -> Result<Vec<RepairNode>, String> {
    if !tr.span("net.wait_quiesce", 1, || {
        cluster.wait_quiesce(QUIESCE_TIMEOUT)
    }) {
        return Err("live_tcp: the cluster did not quiesce before shutdown".into());
    }
    Ok(tr.span("net.shutdown", 1, || cluster.shutdown()))
}

/// Checks one topology's run outside the timed loop: the cluster drains,
/// its end state equals an asim reference run of the same batches, and the
/// spanner equals a full recompute.
fn check(inputs: &mut Inputs, world: World, batches: usize, tr: &mut Tracer) -> Result<(), String> {
    let World { engine, cluster } = world;
    let nodes = stop(cluster, tr)?;
    let mut reference = RspanEngine::new(inputs.graph.clone(), ALGO);
    let mut driver = RepairChurnDriver::new(
        &reference,
        AsyncChurnConfig {
            churn_interval: 16,
            ..AsyncChurnConfig::default()
        },
    );
    let mut replay = Replay::default();
    for i in 0..batches {
        driver.begin_round();
        replay.next = inputs.batches.get(i).to_vec();
        driver.commit_round(&mut reference, &mut replay);
    }
    let (run, reference_nodes) = driver.finish_with_nodes();
    if !run.drained || repair_end_state(&nodes) != repair_end_state(&reference_nodes) {
        return Err("live_tcp: end state differs from the asim reference run".into());
    }
    let mut full: Vec<(Node, Node)> = rem_span_algo(&engine.to_csr(), ALGO).edges().collect();
    full.sort_unstable();
    if engine.spanner_pairs() != full || reference.spanner_pairs() != full {
        return Err("live_tcp: spanner differs from a full rem_span_algo recompute".into());
    }
    Ok(())
}

/// Telemetry counters summed over the timed rounds of every topology.
#[derive(Default)]
struct Counted {
    frames: f64,
    bytes: f64,
    reconnects: f64,
}

impl Counted {
    fn add(&mut self, before: &Option<TelemetrySnapshot>, after: &Option<TelemetrySnapshot>) {
        if let (Some(a), Some(b)) = (before, after) {
            let counter = |c| (b.counter(c) - a.counter(c)) as f64;
            self.frames += counter(Counter::NetFramesSent);
            self.bytes += counter(Counter::NetBytesRecv);
            self.reconnects += counter(Counter::NetReconnects);
        }
    }
}

pub fn pass(args: &Args, tracing: bool) -> Result<PassOut, String> {
    let mut draws = crate::stream(args.seed, 3);
    let mut inputs: Vec<Inputs> = (0..SEGMENTS)
        .map(|_| Inputs::generate(&mut draws))
        .collect();
    let mut tr = if tracing { Tracer::on() } else { Tracer::off() };
    let tel = if tracing {
        TelemetryHandle::enabled()
    } else {
        TelemetryHandle::off()
    };
    let mut p = Pass::default();
    let mut spawn = Vec::new();
    let mut rounds: Vec<Round> = Vec::new();
    let mut counted = Counted::default();
    let mut threads = 0.0;
    for (k, topo) in inputs.iter_mut().enumerate() {
        let t0 = Instant::now();
        let (mut world, spawn_s) = setup(topo, &mut tr, &tel)?;
        p.setup_s.push(t0.elapsed().as_secs_f64());
        spawn.push(spawn_s);

        let mut timed = 0;
        let tel0 = tel.snapshot();
        let probe = LoopProbe::start(&mut p);
        while !p.segment_done(args.seconds, k) {
            let batch = topo.batches.get(WARMUP_ROUNDS + timed).to_vec();
            tr.set_round(rounds.len() as i64);
            let r = round(&mut world, &batch, &mut tr);
            tr.set_round(SETUP_ROUND);
            p.record_round(r.changes, r.converge_s, r.converge_s, r.converge_s);
            p.tally.record(r.converged);
            rounds.push(r);
            timed += 1;
        }
        probe.finish(&mut p);
        counted.add(&tel0, &tel.snapshot());
        threads = sys::threads();
        check(topo, world, WARMUP_ROUNDS + timed, &mut tr)?;
    }
    let tel_end = tel.snapshot();

    let changes = rounds.iter().map(|r| r.changes).sum::<usize>() as f64;
    let mut layer = Vec::new();
    if let Some(t1) = &tel_end {
        let ms = |f: fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
        let wave = ms(|r| r.wave_phase_s * 1e3);
        let (set_ns, set_calls) = span_total(&tr, "net.set_link");
        let (inject_ns, inject_calls) = span_total(&tr, "net.inject");
        let latency = t1.hist(Hist::NetLatencyNs);
        layer = vec![
            metric("engine.build_s", "s", median(&build_s(&tr)).unwrap_or(0.0)),
            metric(
                "engine.commit_ms_p50",
                "ms",
                median(&span_ms_per_round(&tr, &["engine.commit"])).unwrap_or(0.0),
            ),
            metric("net.spawn_s", "s", median(&spawn).unwrap_or(0.0)),
            metric(
                "net.link_phase_ms_p50",
                "ms",
                median(&ms(|r| r.link_phase_s * 1e3)).unwrap_or(0.0),
            ),
            metric("net.wave_phase_ms_p50", "ms", median(&wave).unwrap_or(0.0)),
            metric(
                "net.wave_phase_ms_p90",
                "ms",
                percentile(&wave, 90.0).ok_or("too few rounds for net.wave_phase_ms_p90")?,
            ),
            metric(
                "net.enqueue_us_mean",
                "us",
                ratio(set_ns + inject_ns, set_calls + inject_calls) / 1e3,
            ),
            metric(
                "net.quiesce_wait_ms_p50",
                "ms",
                median(&span_ms_per_round(&tr, &["net.wait_quiesce"])).unwrap_or(0.0),
            ),
            metric(
                "net.frames_per_change",
                "count",
                ratio(counted.frames, changes),
            ),
            metric("net.frame_latency_us_p50", "us", latency.p50 as f64 / 1e3),
            metric("net.frame_latency_us_p99", "us", latency.p99 as f64 / 1e3),
            metric("net.reconnects", "count", counted.reconnects),
            metric("net.threads", "count", threads),
            metric("wave_bytes_per_change", "B", ratio(counted.bytes, changes)),
        ];
    }
    let empty = rounds.iter().filter(|r| r.changes == 0).count();
    let edges: usize = inputs.iter().map(|t| t.graph.m()).sum();
    Ok(PassOut {
        pass: p,
        tracer: tr,
        workload_e2e: Vec::new(),
        layer,
        diagnostics: vec![
            ("n", N as f64),
            ("topologies", SEGMENTS as f64),
            ("m_mean", edges as f64 / SEGMENTS as f64),
            ("rounds", rounds.len() as f64),
            ("empty_rounds", empty as f64),
        ],
    })
}

/// `RspanEngine::new` times of the set-ups, in seconds.
fn build_s(tr: &Tracer) -> Vec<f64> {
    tr.spans()
        .iter()
        .filter(|s| s.name == "engine.new")
        .map(|s| s.dur_ns() as f64 / 1e9)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rspan_graph::DynamicGraph;

    #[test]
    fn cover_batches_dirty_every_linked_node_and_restore_the_graph() {
        for seed in 0..20 {
            let graph = udg_with_density(N, DEGREE, seed).graph;
            let batches = cover_batches(&graph);
            let mut engine = RspanEngine::new(graph.clone(), ALGO);
            for batch in &batches {
                let delta = engine.commit(batch);
                for v in 0..N as Node {
                    if !graph.neighbors(v).is_empty() {
                        assert!(
                            delta.recomputed.contains(&v),
                            "seed {seed}: node {v} stays cold"
                        );
                    }
                }
            }
            let mut g = DynamicGraph::new(graph.clone());
            for change in batches.iter().flatten() {
                change.apply_to(&mut g);
            }
            assert_eq!(g.to_csr(), graph);
        }
    }
}
