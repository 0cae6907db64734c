//! End-state equivalence: the real-transport cluster must finish churn with
//! **bit-identical** per-node protocol state to the `rspan-asim` reference
//! for the same topology, churn scenario and seed.
//!
//! Equality is on canonicalised node-local knowledge ([`repair_end_state`]):
//! refreshed wave sets, incident spanner-edge updates and the content
//! digests of every accepted flood.  Physical arrival order differs wildly
//! between a virtual-time event queue and 64 preempting OS threads; the
//! monotone relay rule ([`RepairNode::with_monotone`]) plus the harness's
//! per-phase quiescence barriers make the fixpoint independent of it.
//!
//! [`RepairNode::with_monotone`]: rspan_distributed::RepairNode::with_monotone

use rspan_asim::{AsyncChurnConfig, RepairChurnDriver};
use rspan_domtree::TreeAlgo;
use rspan_engine::{LinkFlapScenario, RspanEngine};
use rspan_graph::generators::udg::uniform_udg;
use rspan_net::{repair_end_state, NetBackend, NetChurnConfig, NetCluster, NodeEndState};

const ROUNDS: usize = 6;

/// Same seeded world both runs replay: graph, scenario, engine.
fn world(n: usize, seed: u64) -> (RspanEngine, LinkFlapScenario) {
    let inst = uniform_udg(n, 5.0, 1.0, seed);
    let scenario = LinkFlapScenario::new(&inst.graph, 2.0, seed + 4);
    let engine = RspanEngine::new(inst.graph, TreeAlgo::KGreedy { k: 2 });
    (engine, scenario)
}

/// The asim reference end state: the canonical first-copy driver under
/// unit latency, zero loss, zero crashes.
fn asim_end_state(n: usize, seed: u64) -> Vec<NodeEndState> {
    let (mut engine, mut scenario) = world(n, seed);
    let cfg = AsyncChurnConfig {
        churn_interval: 16, // comfortably above radius + 1: every round drains
        rounds: ROUNDS,
        ..AsyncChurnConfig::default()
    };
    let mut driver = RepairChurnDriver::new(&engine, cfg);
    for _ in 0..ROUNDS {
        driver.begin_round();
        driver.commit_round(&mut engine, &mut scenario);
    }
    let (run, nodes) = driver.finish_with_nodes();
    assert!(run.drained, "asim reference must drain");
    assert_eq!(
        run.converged_rounds(),
        ROUNDS,
        "asim reference must converge every round"
    );
    repair_end_state(&nodes)
}

/// The real-transport end state on the given backend.
fn net_end_state(n: usize, seed: u64, backend: NetBackend) -> Vec<NodeEndState> {
    let (mut engine, mut scenario) = world(n, seed);
    let harness = NetCluster::new(NetChurnConfig {
        backend,
        ..NetChurnConfig::default()
    });
    let (run, nodes) = harness.run(&mut engine, &mut scenario, ROUNDS);
    assert!(
        run.fully_converged(),
        "net cluster must quiesce every round ({backend:?}, seed {seed})"
    );
    assert!(run.dirty_total > 0, "churn must actually dirty nodes");
    repair_end_state(&nodes)
}

#[test]
fn threaded_end_state_matches_asim_across_seeds() {
    // 64 live OS threads per run, three independent seeds.
    for seed in [11, 12, 13] {
        let reference = asim_end_state(64, seed);
        let real = net_end_state(64, seed, NetBackend::Threaded);
        assert_eq!(
            real, reference,
            "threaded end state diverged from asim at seed {seed}"
        );
    }
}

#[test]
fn tcp_end_state_matches_asim_smoke() {
    // 16 nodes, every protocol frame over a real loopback socket.
    let reference = asim_end_state(16, 21);
    let real = net_end_state(16, 21, NetBackend::Tcp);
    assert_eq!(real, reference, "tcp end state diverged from asim");
}

#[test]
fn queue_depth_gauge_reads_zero_at_quiescence() {
    use rspan_telemetry::{Counter, Gauge, Hist, TelemetryHandle};
    let tel = TelemetryHandle::enabled();
    let (mut engine, mut scenario) = world(32, 5);
    let harness = NetCluster::new(NetChurnConfig {
        telemetry: tel.clone(),
        ..NetChurnConfig::default()
    });
    let (run, _nodes) = harness.run(&mut engine, &mut scenario, 3);
    assert!(run.fully_converged());
    let snap = tel.snapshot().unwrap();
    assert_eq!(
        snap.gauge(Gauge::NetQueueDepth),
        0,
        "no frame, command or timer may be outstanding after shutdown"
    );
    assert!(snap.counter(Counter::NetFramesSent) > 0);
    assert_eq!(
        snap.counter(Counter::NetFramesSent),
        snap.counter(Counter::NetFramesRecv),
        "in-process delivery loses nothing"
    );
    assert!(snap.counter(Counter::NetBytesSent) > 0);
    assert!(snap.counter(Counter::NetBytesRecv) > 0);
    assert!(
        snap.hist(Hist::NetLatencyNs).count > 0,
        "every received frame records its latency"
    );
}
