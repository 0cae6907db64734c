//! `mobile_asim`: unit-disk mobility through `RepairChurnDriver` — each
//! round one engine commit plus its §2.3 repair wave of plain `RepairNode`s
//! on the asim event loop, under latency spread, loss and retransmission.
//!
//! The engine and the event loop split the round about evenly and there
//! are no threads and no router; ticks, bytes and events are exact counts.
//!
//! Round cost follows the graph and its movers, so every segment of the
//! loop (see [`SEGMENTS`]) draws its own seeded instance: the figures
//! describe the instance family, not one draw from it.

use crate::inputs::{Batches, Replay};
use crate::stats::{median, percentile, ratio};
use crate::trace::{Tracer, SETUP_ROUND};
use crate::{metric, span_ms_per_round, span_total, Args, LoopProbe, Pass, PassOut, SEGMENTS};
use rand::Rng;
use rspan_asim::{AsimConfig, AsimStats, AsyncChurnConfig, LatencyModel, RepairChurnDriver};
use rspan_core::rem_span_algo;
use rspan_domtree::TreeAlgo;
use rspan_engine::{MobilityScenario, RspanEngine};
use rspan_graph::generators::udg::{udg_with_density, UnitDiskInstance};
use rspan_graph::Node;
use rspan_telemetry::{Counter, Hist, TelemetryHandle, TelemetrySnapshot};
use std::time::Instant;

const N: usize = 3000;
const DEGREE: f64 = 12.0;
const MOVERS: usize = N / 100;
const ALGO: TreeAlgo = TreeAlgo::KGreedy { k: 2 };
const WARMUP_ROUNDS: usize = 2;

fn churn_config(seed: u64) -> AsyncChurnConfig {
    AsyncChurnConfig {
        sim: AsimConfig {
            latency: LatencyModel::Uniform { lo: 1, hi: 4 },
            loss: 0.05,
            max_retries: 2,
            seed: seed + 9,
            ..AsimConfig::default()
        },
        churn_interval: 16,
        ..AsyncChurnConfig::default()
    }
}

/// One segment's instance and its churn.
struct Inputs {
    seed: u64,
    inst: UnitDiskInstance,
    batches: Batches<MobilityScenario>,
}

impl Inputs {
    fn generate(seed: u64) -> Self {
        let inst = udg_with_density(N, DEGREE, seed);
        let mobility = MobilityScenario::from_udg(&inst, MOVERS, inst.radius / 4.0, seed + 4);
        let batches = Batches::new(mobility, &inst.graph, Vec::new());
        Inputs {
            seed,
            inst,
            batches,
        }
    }
}

struct World {
    engine: RspanEngine,
    driver: RepairChurnDriver,
    replay: Replay,
}

/// What one round measured.
struct Round {
    changes: usize,
    dirty: usize,
    flips: usize,
    converge_s: f64,
    ticks: Option<u64>,
}

/// Commits one pre-drawn batch and drains its wave up to the next churn
/// boundary.  Starts and ends at a boundary (after `begin_round`).
fn round(world: &mut World, batch: Vec<rspan_engine::TopologyChange>, tr: &mut Tracer) -> Round {
    let World {
        engine,
        driver,
        replay,
    } = world;
    replay.next = batch;
    let id = tr.open("round");
    let t0 = Instant::now();
    let committed = tr.span("asim.commit_round", 1, || {
        driver.commit_round(engine, replay)
    });
    tr.span("asim.begin_round", 1, || driver.begin_round());
    let converge_s = t0.elapsed().as_secs_f64();
    tr.close(id, 1);
    let report = driver.rounds().last().expect("a committed round");
    Round {
        changes: committed.batch.len(),
        dirty: report.dirty,
        flips: report.spanner_flips,
        converge_s,
        ticks: report.convergence_ticks(),
    }
}

/// Builds the world and runs the warm-up rounds; returns it with the engine
/// and driver build times.
fn setup(inputs: &mut Inputs, tr: &mut Tracer, tel: &TelemetryHandle) -> (World, f64, f64) {
    let graph = inputs.inst.graph.clone();
    let t0 = Instant::now();
    let mut engine = tr.span("engine.new", 1, || RspanEngine::new(graph, ALGO));
    let t1 = Instant::now();
    let mut driver = tr.span("asim.new", 1, || {
        RepairChurnDriver::new(&engine, churn_config(inputs.seed))
    });
    let t2 = Instant::now();
    engine.set_telemetry(tel.clone());
    driver.set_telemetry(tel.clone());
    tr.span("asim.begin_round", 1, || driver.begin_round());
    let mut world = World {
        engine,
        driver,
        replay: Replay::default(),
    };
    for w in 0..WARMUP_ROUNDS {
        let batch = inputs.batches.get(w).to_vec();
        round(&mut world, batch, tr);
    }
    let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
    (world, secs(t0, t1), secs(t1, t2))
}

/// Checks a segment's world outside the timed loop: the event loop drains
/// and the spanner equals a full recompute.
fn check(world: World, tr: &mut Tracer) -> Result<(), String> {
    let World {
        mut engine,
        mut driver,
        mut replay,
    } = world;
    // An empty batch closes the last boundary.
    tr.span("asim.commit_round", 1, || {
        driver.commit_round(&mut engine, &mut replay)
    });
    let (run, _) = tr.span("asim.finish_with_nodes", 1, || driver.finish_with_nodes());
    if !run.drained {
        return Err("mobile_asim: the event loop did not drain".into());
    }
    let csr = engine.to_csr();
    let mut full: Vec<(Node, Node)> = rem_span_algo(&csr, ALGO).edges().collect();
    full.sort_unstable();
    if engine.spanner_pairs() != full {
        return Err("mobile_asim: spanner differs from a full rem_span_algo recompute".into());
    }
    Ok(())
}

fn dropped(s: &AsimStats) -> u64 {
    s.dropped_loss + s.dropped_down + s.dropped_no_link
}

/// Event-loop counts summed over the timed rounds of every segment; the
/// registry's only in the traced pass.
#[derive(Default)]
struct Counted {
    events: f64,
    retransmissions: f64,
    drops: f64,
    bytes: f64,
    delivered: f64,
    dedup: f64,
}

impl Counted {
    fn add(
        &mut self,
        s0: &AsimStats,
        s1: &AsimStats,
        t0: &Option<TelemetrySnapshot>,
        t1: &Option<TelemetrySnapshot>,
    ) {
        let logical = (s1.logical_messages() - s0.logical_messages()) as f64;
        self.events += (s1.events - s0.events) as f64;
        self.retransmissions += (s1.transmissions - s0.transmissions) as f64 - logical;
        self.drops += (dropped(s1) - dropped(s0)) as f64;
        self.bytes += (s1.bytes_delivered - s0.bytes_delivered) as f64;
        if let (Some(a), Some(b)) = (t0, t1) {
            let counter = |c| (b.counter(c) - a.counter(c)) as f64;
            self.delivered += counter(Counter::SimDelivered);
            self.dedup += counter(Counter::SimDropDedup);
        }
    }
}

pub fn pass(args: &Args, tracing: bool) -> Result<PassOut, String> {
    let mut draws = crate::stream(args.seed, 3);
    let mut tr = if tracing { Tracer::on() } else { Tracer::off() };
    let tel = if tracing {
        TelemetryHandle::enabled()
    } else {
        TelemetryHandle::off()
    };
    let mut p = Pass::default();
    let (mut engine_build, mut driver_build) = (Vec::new(), Vec::new());
    let mut changed_trees = 0usize;
    let mut commit_ms = Vec::new();
    let mut rounds: Vec<Round> = Vec::new();
    let mut counted = Counted::default();
    let mut world = None;
    let mut edges = 0;
    for k in 0..SEGMENTS {
        // Drawn here, outside the timed rounds, so only one segment's
        // inputs are resident at a time.
        let mut segment = Inputs::generate(draws.next_u64());
        edges += segment.inst.graph.m();
        let w = p.set_up(&mut world, || {
            let (w, engine_s, driver_s) = setup(&mut segment, &mut tr, &tel);
            engine_build.push(engine_s);
            driver_build.push(driver_s);
            w
        });

        let mut mirror: Vec<Vec<(Node, Node)>> = if tracing {
            (0..N as Node)
                .map(|r| w.engine.tree_edges(r).to_vec())
                .collect()
        } else {
            Vec::new()
        };
        let stats0 = w.driver.stats().clone();
        let tel0 = tel.snapshot();
        let mut last_tel = tel.snapshot();
        let mut timed = 0;
        let probe = LoopProbe::start(&mut p);
        while !p.segment_done(args.seconds, k) {
            let batch = segment.batches.get(WARMUP_ROUNDS + timed).to_vec();
            tr.set_round(rounds.len() as i64);
            let r = round(w, batch, &mut tr);
            tr.set_round(SETUP_ROUND);
            p.record_round(r.changes, r.converge_s, r.converge_s, r.converge_s);
            p.tally.record(r.ticks.is_some());
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
                    commit_ms.push((b.commit_wall_ns() - a.commit_wall_ns()) as f64 / 1e6);
                }
                last_tel = snap;
            }
            rounds.push(r);
            timed += 1;
        }
        probe.finish(&mut p);
        counted.add(&stats0, w.driver.stats(), &tel0, &tel.snapshot());
        check(world.take().expect("a set-up world"), &mut tr)?;
    }
    let tel_end = tel.snapshot();

    let sum = |f: fn(&Round) -> usize| rounds.iter().map(f).sum::<usize>() as f64;
    let changes = sum(|r| r.changes);
    let ticks: Vec<f64> = rounds
        .iter()
        .filter_map(|r| r.ticks)
        .map(|t| t as f64)
        .collect();
    let workload_e2e = vec![
        metric("converge_ticks_p50", "ticks", median(&ticks).unwrap_or(0.0)),
        metric(
            "converge_ticks_p90",
            "ticks",
            percentile(&ticks, 90.0).ok_or("too few converged rounds for converge_ticks_p90")?,
        ),
        metric("wave_bytes_per_change", "B", ratio(counted.bytes, changes)),
    ];
    let mut layer = Vec::new();
    if let Some(t1) = &tel_end {
        let Counted {
            events,
            retransmissions,
            drops,
            delivered,
            dedup,
            ..
        } = counted;
        let drain = span_ms_per_round(&tr, &["asim.begin_round"]);
        layer = vec![
            metric("engine.build_s", "s", median(&engine_build).unwrap_or(0.0)),
            metric(
                "engine.commit_ms_p50",
                "ms",
                median(&commit_ms).unwrap_or(0.0),
            ),
            metric(
                "engine.dirty_per_change",
                "count",
                ratio(sum(|r| r.dirty), changes),
            ),
            metric(
                "engine.flips_per_change",
                "count",
                ratio(sum(|r| r.flips), changes),
            ),
            metric(
                "engine.changed_tree_ratio",
                "ratio",
                ratio(changed_trees as f64, sum(|r| r.dirty)),
            ),
            metric("asim.build_s", "s", median(&driver_build).unwrap_or(0.0)),
            metric("asim.drain_ms_p50", "ms", median(&drain).unwrap_or(0.0)),
            metric(
                "asim.commit_round_ms_p50",
                "ms",
                median(&span_ms_per_round(&tr, &["asim.commit_round"])).unwrap_or(0.0),
            ),
            metric("asim.events_per_change", "count", ratio(events, changes)),
            metric(
                "asim.events_per_s",
                "1/s",
                ratio(events, span_total(&tr, "asim.begin_round").0 / 1e9),
            ),
            metric(
                "asim.retransmissions_per_change",
                "count",
                ratio(retransmissions, changes),
            ),
            metric("asim.drops_per_change", "count", ratio(drops, changes)),
            metric(
                "asim.useful_delivery_ratio",
                "ratio",
                ratio(delivered - dedup, delivered),
            ),
            metric(
                "asim.heap_depth_p99",
                "count",
                t1.hist(Hist::HeapDepth).p99 as f64,
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
        ],
    })
}
