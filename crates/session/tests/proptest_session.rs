//! Property tests pinning every `Session` configuration **bit-identical** to
//! the hand-wired pipeline it replaces:
//!
//! * each [`SpannerAlgo`] variant against its free constructor,
//! * sync churn + delta repair against an [`RspanEngine`] and a
//!   [`DeltaRouter`] stepped by hand,
//! * async repair churn against [`run_repair_churn`],
//!
//! plus builder-validation coverage (structured errors instead of panics),
//! staleness-counter semantics, and the metrics JSON shape the `BENCH_*.json`
//! rows are built from.

use rspan_asim::{
    run_repair_churn, Adversary, AsimConfig, AsyncChurnConfig, ByzBehaviour, FaultPlan,
    LatencyModel,
};
use rspan_core::{
    baswana_sen_spanner, epsilon_remote_spanner, epsilon_remote_spanner_greedy,
    exact_remote_spanner, full_topology, greedy_spanner, k_connecting_remote_spanner,
    k_mis_remote_spanner, two_connecting_remote_spanner,
};
use rspan_distributed::DeltaRouter;
use rspan_domtree::TreeAlgo;
use rspan_engine::{ChurnScenario, JoinLeaveScenario, LinkFlapScenario, RspanEngine};
use rspan_graph::generators::udg_with_density;
use rspan_graph::Node;
use rspan_session::{Broadcast, ObsConfig, Repair, RspanError, Scheduler, Session, SpannerAlgo};

fn sorted(mut pairs: Vec<(Node, Node)>) -> Vec<(Node, Node)> {
    pairs.sort_unstable();
    pairs
}

// ---------------------------------------------------------------------------
// SpannerAlgo ≡ free constructors
// ---------------------------------------------------------------------------

#[test]
fn algo_build_bit_identical_to_free_constructors() {
    for seed in [3u64, 11] {
        let inst = udg_with_density(90, 9.0, seed);
        let g = &inst.graph;
        let cases: Vec<(SpannerAlgo, rspan_core::BuiltSpanner<'_>)> = vec![
            (SpannerAlgo::Exact, exact_remote_spanner(g)),
            (
                SpannerAlgo::KConnecting { k: 2 },
                k_connecting_remote_spanner(g, 2),
            ),
            (
                SpannerAlgo::Epsilon { eps: 0.5 },
                epsilon_remote_spanner(g, 0.5),
            ),
            (
                SpannerAlgo::EpsilonGreedy { eps: 0.5 },
                epsilon_remote_spanner_greedy(g, 0.5),
            ),
            (SpannerAlgo::TwoConnecting, two_connecting_remote_spanner(g)),
            (SpannerAlgo::KMis { k: 3 }, k_mis_remote_spanner(g, 3)),
            (SpannerAlgo::GreedySpanner { k: 2 }, greedy_spanner(g, 2)),
            (
                SpannerAlgo::BaswanaSen { k: 2, seed: 5 },
                baswana_sen_spanner(g, 2, 5),
            ),
            (SpannerAlgo::FullTopology, full_topology(g)),
        ];
        for (algo, direct) in cases {
            let built = algo.build(g).expect("valid parameters");
            assert_eq!(
                built.spanner.edge_set(),
                direct.spanner.edge_set(),
                "{algo:?} diverged from its constructor (seed {seed})"
            );
            assert_eq!(built.guarantee, direct.guarantee, "{algo:?}");
            assert_eq!(built.name, direct.name, "{algo:?}");
            if let Some(g2) = algo.guarantee() {
                assert_eq!(g2, direct.guarantee, "{algo:?} metadata guarantee");
            }
            // The parallel driver stays bit-identical too.
            let par = algo.build_threads(g, 4).expect("valid parameters");
            assert_eq!(par.spanner.edge_set(), direct.spanner.edge_set());
        }
    }
}

#[test]
fn session_initial_build_matches_algo_constructor() {
    let inst = udg_with_density(100, 10.0, 4);
    let direct = SpannerAlgo::KConnecting { k: 2 }
        .build(&inst.graph)
        .unwrap();
    let session = Session::builder(inst.graph.clone())
        .algo(SpannerAlgo::KConnecting { k: 2 })
        .build()
        .unwrap();
    let csr = session.to_csr();
    assert_eq!(
        session.spanner_on(&csr).edge_set(),
        direct.spanner.edge_set()
    );
    assert_eq!(session.guarantee(), direct.guarantee);
}

// ---------------------------------------------------------------------------
// Sync scheduler ≡ hand-wired engine + router
// ---------------------------------------------------------------------------

#[test]
fn sync_session_bit_identical_to_churn_session() {
    for (seed, threads) in [(1u64, 1usize), (2, 4), (9, 0)] {
        let inst = udg_with_density(120, 10.0, seed);
        let strategy = TreeAlgo::KGreedy { k: 2 };

        let mut hand = RspanEngine::new(inst.graph.clone(), strategy);
        let mut hand_router = DeltaRouter::new(&hand);
        let mut hand_scenario = LinkFlapScenario::new(&inst.graph, 2.5, seed + 100);

        let mut session = Session::builder(inst.graph.clone())
            .algo(SpannerAlgo::KConnecting { k: 2 })
            .churn(LinkFlapScenario::new(&inst.graph, 2.5, seed + 100))
            .routing(Repair::Delta)
            .scheduler(Scheduler::Sync)
            .threads(threads)
            .build()
            .unwrap();

        for round in 0..12 {
            let batch = hand_scenario.next_batch(hand.graph());
            let hand_delta = hand.commit_parallel(&batch, threads);
            let hand_stats = hand_router.apply(&hand, &batch, &hand_delta);
            let report = session.step().expect("scenario configured");
            assert_eq!(
                report.delta, hand_delta,
                "delta diverged seed {seed} round {round}"
            );
            assert_eq!(
                report.repair.as_ref(),
                Some(&hand_stats),
                "repair stats diverged seed {seed} round {round}"
            );
            assert_eq!(
                session.tables().unwrap(),
                hand_router.tables(),
                "tables diverged seed {seed} round {round}"
            );
            assert_eq!(
                sorted(session.engine().spanner_pairs()),
                sorted(hand.spanner_pairs()),
                "spanner diverged seed {seed} round {round}"
            );
        }
        let metrics = session.metrics();
        assert_eq!(metrics.rounds, 12);
        assert_eq!(metrics.epoch, 12);
        assert!(metrics.repair.is_some());
        assert!(metrics.asim.is_none());
    }
}

// ---------------------------------------------------------------------------
// Async scheduler ≡ run_repair_churn
// ---------------------------------------------------------------------------

fn async_cfg(seed: u64, rounds: usize) -> AsyncChurnConfig {
    AsyncChurnConfig {
        sim: AsimConfig {
            latency: LatencyModel::HeavyTailed {
                min: 1,
                alpha: 1.5,
                cap: 16,
            },
            loss: 0.2,
            max_retries: 1,
            seed: seed ^ 0xA51C,
            ..AsimConfig::default()
        },
        churn_interval: 8,
        rounds,
        crash_prob: 0.5,
        downtime: 12,
        max_events: 20_000_000,
    }
}

#[test]
fn async_session_bit_identical_to_run_repair_churn() {
    for seed in [31u64, 32] {
        let inst = udg_with_density(80, 9.0, seed);
        let cfg = async_cfg(seed, 8);

        // Hand-wired pipeline: bare engine + the one-shot driver.
        let mut engine = RspanEngine::new(inst.graph.clone(), TreeAlgo::KGreedy { k: 2 });
        let mut scenario = LinkFlapScenario::new(&inst.graph, 2.0, seed + 4);
        let run = run_repair_churn(&mut engine, &mut scenario, &cfg);

        // The same configuration through the session builder.
        let mut session = Session::builder(inst.graph.clone())
            .algo(SpannerAlgo::KConnecting { k: 2 })
            .churn(LinkFlapScenario::new(&inst.graph, 2.0, seed + 4))
            .scheduler(Scheduler::Async(cfg.sim.clone()))
            .churn_interval(cfg.churn_interval)
            .crash(cfg.crash_prob, cfg.downtime)
            .max_events(cfg.max_events)
            .build()
            .unwrap();
        session.run(cfg.rounds).unwrap();
        let metrics = session.finish();

        let asim = metrics.asim.expect("async session");
        assert_eq!(
            asim.stats, run.stats,
            "simulator accounting diverged, seed {seed}"
        );
        assert_eq!(
            asim.rounds, run.rounds,
            "round transcripts diverged, seed {seed}"
        );
        assert_eq!(asim.final_time, run.final_time);
        assert_eq!(asim.dirty_total, run.dirty_total);
        assert_eq!(asim.drained, Some(run.drained));
        assert_eq!(metrics.dirty_total, run.dirty_total);
    }
}

#[test]
fn async_session_engine_state_matches_hand_wired_engine() {
    let inst = udg_with_density(70, 9.0, 44);
    let cfg = AsyncChurnConfig {
        rounds: 6,
        churn_interval: 16,
        ..AsyncChurnConfig::default()
    };
    let mut engine = RspanEngine::new(inst.graph.clone(), TreeAlgo::KGreedy { k: 2 });
    let mut scenario = JoinLeaveScenario::new(inst.graph.clone(), 2, 77);
    let _ = run_repair_churn(&mut engine, &mut scenario, &cfg);

    let mut session = Session::builder(inst.graph.clone())
        .algo(SpannerAlgo::KConnecting { k: 2 })
        .churn(JoinLeaveScenario::new(inst.graph.clone(), 2, 77))
        .scheduler(Scheduler::Async(cfg.sim.clone()))
        .churn_interval(cfg.churn_interval)
        .build()
        .unwrap();
    session.run(cfg.rounds).unwrap();
    assert_eq!(
        sorted(session.engine().spanner_pairs()),
        sorted(engine.spanner_pairs())
    );
    assert_eq!(session.engine().epoch(), engine.epoch());
}

// ---------------------------------------------------------------------------
// Staleness counter
// ---------------------------------------------------------------------------

#[test]
fn lockstep_fast_waves_are_never_stale() {
    let inst = udg_with_density(80, 9.0, 21);
    let mut session = Session::builder(inst.graph.clone())
        .algo(SpannerAlgo::KConnecting { k: 2 })
        .churn(LinkFlapScenario::new(&inst.graph, 2.0, 5))
        .routing(Repair::Delta)
        .scheduler(Scheduler::Async(AsimConfig::lockstep(9)))
        .churn_interval(16) // comfortably above the wave TTL
        .measure_staleness(true)
        .build()
        .unwrap();
    session.run(8).unwrap();
    let metrics = session.finish();
    let st = metrics.staleness.expect("staleness measurement configured");
    assert!(st.checks > 0);
    assert_eq!(
        st.inflight_checks, 0,
        "lock-step waves drain inside a round"
    );
    assert_eq!(st.stale_rows_total, 0);
}

#[test]
fn slow_waves_record_staleness() {
    let inst = udg_with_density(80, 9.0, 22);
    let mut session = Session::builder(inst.graph.clone())
        .algo(SpannerAlgo::KConnecting { k: 2 })
        .churn(LinkFlapScenario::new(&inst.graph, 3.0, 6))
        .routing(Repair::Delta)
        .scheduler(Scheduler::Async(AsimConfig {
            latency: LatencyModel::Constant(6),
            seed: 10,
            ..AsimConfig::default()
        }))
        .churn_interval(2) // new churn arrives long before a wave can drain
        .measure_staleness(true)
        .build()
        .unwrap();
    session.run(10).unwrap();
    // The tables themselves are the post-commit truth the whole time.
    let csr = session.to_csr();
    let full = rspan_distributed::RoutingTables::build(&session.spanner_on(&csr));
    assert_eq!(session.tables().unwrap(), &full);
    let metrics = session.finish();
    let st = metrics.staleness.expect("staleness measurement configured");
    assert!(
        st.inflight_checks > 0,
        "slow waves must still be in flight at churn boundaries"
    );
    assert!(
        st.stale_rows_total > 0,
        "in-flight repairs must leave stale rows"
    );
    assert!(st.stale_rows_max <= inst.graph.n());
}

// ---------------------------------------------------------------------------
// Byzantine tolerance: reliable broadcast, fault plans, agreement
// ---------------------------------------------------------------------------

#[test]
fn reliable_f0_bit_identical_to_plain_flooding() {
    // Broadcast::Reliable { f: 0 } puts no witness frames on the wire at
    // all, so the whole run — spanner evolution, routing tables, round
    // transcript, message timing — must match plain flooding exactly.
    for seed in [5u64, 13] {
        let inst = udg_with_density(50, 9.0, seed);
        let run = |broadcast: Broadcast| {
            let mut session = Session::builder(inst.graph.clone())
                .algo(SpannerAlgo::KConnecting { k: 2 })
                .churn(LinkFlapScenario::new(&inst.graph, 2.0, seed + 1))
                .routing(Repair::Delta)
                .scheduler(Scheduler::Async(AsimConfig::lockstep(seed ^ 0x51)))
                .churn_interval(16)
                .broadcast(broadcast)
                .build()
                .unwrap();
            session.run(6).unwrap();
            let spanner = sorted(session.engine().spanner_pairs());
            let tables = session.tables().unwrap().clone();
            (spanner, tables, session.finish())
        };
        let (spanner_p, tables_p, plain) = run(Broadcast::Plain);
        let (spanner_r, tables_r, reliable) = run(Broadcast::Reliable { f: 0 });
        assert_eq!(spanner_p, spanner_r, "spanner diverged, seed {seed}");
        assert_eq!(tables_p, tables_r, "tables diverged, seed {seed}");
        let (ap, ar) = (plain.asim.unwrap(), reliable.asim.unwrap());
        assert_eq!(ap.rounds, ar.rounds, "round transcripts diverged");
        assert_eq!(ap.stats.delivered, ar.stats.delivered);
        assert_eq!(ap.stats.transmissions, ar.stats.transmissions);
        assert_eq!(ap.final_time, ar.final_time);
        // The wrapper still accounts its section: f = 0 sends no witnesses.
        let byz = reliable.byz.expect("reliable broadcast has a byz section");
        assert_eq!(byz.echo_sent, 0);
        assert_eq!(byz.ready_sent, 0);
        assert!(byz.rb_delivered > 0);
        assert!(byz.agreement_ok());
        assert!(plain.byz.is_none(), "plain + no faults has no byz section");
    }
}

fn byz_async_cfg(seed: u64, adversary: Adversary) -> AsimConfig {
    AsimConfig {
        latency: LatencyModel::Uniform { lo: 1, hi: 3 },
        seed,
        adversary,
        ..AsimConfig::default()
    }
}

fn mixed_fault_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        f: 4,
        byzantine: vec![
            (3, ByzBehaviour::Forge),
            (8, ByzBehaviour::Equivocate),
            (14, ByzBehaviour::Suppress),
            (19, ByzBehaviour::Replay),
        ],
        seed,
    }
}

/// Runs one Byzantine churn session and returns its metrics.
fn byz_run(seed: u64, broadcast: Broadcast, adversary: Adversary) -> rspan_session::Metrics {
    let inst = udg_with_density(26, 8.0, seed);
    let mut session = Session::builder(inst.graph.clone())
        .algo(SpannerAlgo::KConnecting { k: 2 })
        .churn(LinkFlapScenario::new(&inst.graph, 2.0, seed + 9))
        .scheduler(Scheduler::Async(byz_async_cfg(seed ^ 0xB1, adversary)))
        .churn_interval(24)
        .broadcast(broadcast)
        .faults(mixed_fault_plan(seed))
        .build()
        .unwrap();
    session.run(5).unwrap();
    session.finish()
}

#[test]
fn honest_nodes_agree_under_byzantine_faults_with_reliable_broadcast() {
    // The headline property: n > 3f, f nodes forging / equivocating /
    // suppressing / replaying — every honest node still accepts identical
    // wave digests under reliable broadcast, while the same plan corrupts
    // plain flooding (the undefended paper protocol).
    let mut plain_violations = 0;
    for seed in [2u64, 7, 11] {
        let reliable = byz_run(seed, Broadcast::Reliable { f: 4 }, Adversary::None);
        let byz = reliable.byz.expect("byz section present");
        assert_eq!(
            byz.agreement_violations, 0,
            "reliable broadcast must keep honest nodes in agreement, seed {seed}"
        );
        assert!(byz.agreement_checks > 0, "the sweep inspected acceptances");
        assert!(
            byz.rejected_mac > 0,
            "tampered relays must be caught by the MAC, seed {seed}"
        );
        assert!(byz.echo_sent > 0 && byz.ready_sent > 0);
        assert!(byz.byz_rewritten > 0 && byz.byz_suppressed > 0);

        let plain = byz_run(seed, Broadcast::Plain, Adversary::None);
        let pbyz = plain.byz.expect("faults are active");
        assert!(pbyz.agreement_checks > 0);
        plain_violations += pbyz.agreement_violations;
    }
    assert!(
        plain_violations > 0,
        "the same fault plan must corrupt plain flooding somewhere across the seeds"
    );
}

#[test]
fn byzantine_runs_replay_deterministically() {
    // Same seed + same fault plan + same adversarial scheduler ⇒ the whole
    // metrics snapshot (stats, transcripts, agreement, rejections) is
    // identical.
    for adversary in [
        Adversary::None,
        Adversary::WorstLink { factor: 3 },
        Adversary::Laggard { node: 4, lag: 5 },
        Adversary::WaveSplit { stretch: 2 },
    ] {
        let a = byz_run(21, Broadcast::Reliable { f: 4 }, adversary.clone());
        let b = byz_run(21, Broadcast::Reliable { f: 4 }, adversary.clone());
        assert_eq!(a, b, "replay diverged under {adversary:?}");
    }
}

#[test]
fn adversarial_schedulers_delay_convergence() {
    // The worst-case-link adversary only re-prices latency draws — the
    // draw streams stay aligned — so the run stays deterministic but the
    // waves take longer to drain than under the honest scheduler.
    let inst = udg_with_density(40, 9.0, 17);
    let run = |adversary: Adversary| {
        let mut session = Session::builder(inst.graph.clone())
            .algo(SpannerAlgo::KConnecting { k: 2 })
            .churn(LinkFlapScenario::new(&inst.graph, 2.0, 3))
            .scheduler(Scheduler::Async(AsimConfig {
                latency: LatencyModel::Uniform { lo: 1, hi: 4 },
                seed: 40,
                adversary,
                ..AsimConfig::default()
            }))
            .churn_interval(40)
            .build()
            .unwrap();
        session.run(6).unwrap();
        let m = session.finish();
        m.asim.unwrap().mean_convergence_ticks()
    };
    let baseline = run(Adversary::None);
    let worst = run(Adversary::WorstLink { factor: 6 });
    assert!(
        baseline.is_finite() && worst.is_finite(),
        "both runs must converge within the window"
    );
    assert!(
        worst > baseline,
        "slowing the worst-case links must delay convergence \
         (baseline {baseline}, adversarial {worst})"
    );
}

// ---------------------------------------------------------------------------
// Builder validation: structured errors, no panics
// ---------------------------------------------------------------------------

#[test]
fn builder_rejects_bad_configurations_with_structured_errors() {
    let g = || udg_with_density(40, 8.0, 1).graph;
    let flap = |graph: &rspan_graph::CsrGraph| LinkFlapScenario::new(graph, 1.0, 2);

    // Algorithm parameter out of range.
    let err = Session::builder(g())
        .algo(SpannerAlgo::Epsilon { eps: 0.0 })
        .build()
        .unwrap_err();
    assert!(matches!(err, RspanError::InvalidAlgo { .. }), "{err}");

    // Baselines have no incremental form.
    let err = Session::builder(g())
        .algo(SpannerAlgo::BaswanaSen { k: 3, seed: 1 })
        .build()
        .unwrap_err();
    assert!(
        matches!(err, RspanError::AlgoNotIncremental { .. }),
        "{err}"
    );

    // Async scheduler needs a scenario.
    let err = Session::builder(g())
        .scheduler(Scheduler::Async(AsimConfig::default()))
        .build()
        .unwrap_err();
    assert!(matches!(err, RspanError::MissingChurn { .. }), "{err}");

    // Degenerate simulator configuration.
    let graph = g();
    let err = Session::builder(graph.clone())
        .churn(flap(&graph))
        .scheduler(Scheduler::Async(AsimConfig {
            loss: 2.0,
            ..AsimConfig::default()
        }))
        .build()
        .unwrap_err();
    assert!(matches!(err, RspanError::InvalidSim { .. }), "{err}");

    // Degenerate churn driving configuration.
    let graph = g();
    let err = Session::builder(graph.clone())
        .churn(flap(&graph))
        .scheduler(Scheduler::Async(AsimConfig::default()))
        .churn_interval(0)
        .build()
        .unwrap_err();
    assert!(matches!(err, RspanError::InvalidChurn { .. }), "{err}");

    // Staleness needs the async scheduler + delta routing.
    let err = Session::builder(g())
        .measure_staleness(true)
        .build()
        .unwrap_err();
    assert!(
        matches!(err, RspanError::IncompatibleOptions { .. }),
        "{err}"
    );
    let graph = g();
    let err = Session::builder(graph.clone())
        .churn(flap(&graph))
        .scheduler(Scheduler::Async(AsimConfig::default()))
        .measure_staleness(true)
        .build()
        .unwrap_err();
    assert!(
        matches!(err, RspanError::IncompatibleOptions { .. }),
        "{err}"
    );

    // Async-only knobs are rejected (not silently ignored) under Sync.
    let graph = g();
    let err = Session::builder(graph.clone())
        .churn(flap(&graph))
        .crash(0.7, 24)
        .build()
        .unwrap_err();
    assert!(
        matches!(err, RspanError::IncompatibleOptions { .. }),
        "{err}"
    );
    assert!(err.to_string().contains("crash"), "{err}");
    let err = Session::builder(g()).churn_interval(4).build().unwrap_err();
    assert!(
        matches!(err, RspanError::IncompatibleOptions { .. }),
        "{err}"
    );

    // Threaded commits are a sync-scheduler option (the async timeline
    // always commits sequentially, matching run_repair_churn).
    let graph = g();
    let err = Session::builder(graph.clone())
        .churn(flap(&graph))
        .scheduler(Scheduler::Async(AsimConfig::default()))
        .threads(8)
        .build()
        .unwrap_err();
    assert!(
        matches!(err, RspanError::IncompatibleOptions { .. }),
        "{err}"
    );
    assert!(err.to_string().contains("threads"), "{err}");

    // Byzantine knobs are async-only too.
    let err = Session::builder(g())
        .broadcast(Broadcast::Reliable { f: 1 })
        .build()
        .unwrap_err();
    assert!(
        matches!(err, RspanError::IncompatibleOptions { .. }),
        "{err}"
    );
    assert!(err.to_string().contains("broadcast"), "{err}");
    let err = Session::builder(g())
        .faults(FaultPlan {
            f: 1,
            byzantine: vec![(0, ByzBehaviour::Forge)],
            seed: 1,
        })
        .build()
        .unwrap_err();
    assert!(
        matches!(err, RspanError::IncompatibleOptions { .. }),
        "{err}"
    );

    // Fault-plan misconfiguration must never panic: quorum arithmetic
    // (n > 3f), node range, duplicates, over-marking.
    let byz_builder = |plan: FaultPlan, broadcast: Broadcast| {
        let graph = g();
        let scenario = flap(&graph);
        Session::builder(graph)
            .churn(scenario)
            .scheduler(Scheduler::Async(AsimConfig::default()))
            .faults(plan)
            .broadcast(broadcast)
            .build()
    };
    // n = 40 here, so f = 14 breaks n > 3f.
    let err = byz_builder(
        FaultPlan {
            f: 14,
            byzantine: vec![],
            seed: 0,
        },
        Broadcast::Plain,
    )
    .unwrap_err();
    assert!(matches!(err, RspanError::InvalidFaults { .. }), "{err}");
    assert!(err.to_string().contains("n > 3f"), "{err}");
    let err = byz_builder(
        FaultPlan {
            f: 1,
            byzantine: vec![(99, ByzBehaviour::Forge)],
            seed: 0,
        },
        Broadcast::Plain,
    )
    .unwrap_err();
    assert!(matches!(err, RspanError::InvalidFaults { .. }), "{err}");
    let err = byz_builder(
        FaultPlan {
            f: 2,
            byzantine: vec![(1, ByzBehaviour::Forge), (1, ByzBehaviour::Replay)],
            seed: 0,
        },
        Broadcast::Plain,
    )
    .unwrap_err();
    assert!(matches!(err, RspanError::InvalidFaults { .. }), "{err}");
    // More nodes marked than Broadcast::Reliable tolerates.
    let err = byz_builder(
        FaultPlan {
            f: 2,
            byzantine: vec![(1, ByzBehaviour::Forge), (2, ByzBehaviour::Forge)],
            seed: 0,
        },
        Broadcast::Reliable { f: 1 },
    )
    .unwrap_err();
    assert!(matches!(err, RspanError::InvalidFaults { .. }), "{err}");
    // Reliable quorums themselves need n > 3f even with an empty plan.
    let err = byz_builder(FaultPlan::none(), Broadcast::Reliable { f: 14 }).unwrap_err();
    assert!(matches!(err, RspanError::InvalidFaults { .. }), "{err}");
    // A consistent plan builds.
    byz_builder(
        FaultPlan {
            f: 2,
            byzantine: vec![(1, ByzBehaviour::Forge), (2, ByzBehaviour::Suppress)],
            seed: 0,
        },
        Broadcast::Reliable { f: 2 },
    )
    .unwrap();

    // Explicit commits are a sync-scheduler operation.
    let graph = g();
    let mut session = Session::builder(graph.clone())
        .churn(flap(&graph))
        .scheduler(Scheduler::Async(AsimConfig::default()))
        .build()
        .unwrap();
    let err = session.commit(&[]).unwrap_err();
    assert!(matches!(err, RspanError::Unsupported { .. }), "{err}");

    // step() without a scenario.
    let mut session = Session::builder(g()).build().unwrap();
    let err = session.step().unwrap_err();
    assert!(matches!(err, RspanError::MissingChurn { .. }), "{err}");
}

// ---------------------------------------------------------------------------
// Observability: recorder on ⇒ same run; same seed ⇒ same JSONL
// ---------------------------------------------------------------------------

/// Runs one session — sync or async, optionally under Byzantine faults —
/// with or without the recorder, and returns everything the run computed:
/// the spanner, the routing tables, the metrics, and the observation report.
fn observed_run(
    seed: u64,
    scheduler: Scheduler,
    byz: bool,
    observe: bool,
) -> (
    Vec<(Node, Node)>,
    rspan_distributed::RoutingTables,
    rspan_session::Metrics,
    Option<rspan_session::ObsReport>,
) {
    let n = if byz { 26 } else { 60 };
    let inst = udg_with_density(n, 8.5, seed);
    let mut builder = Session::builder(inst.graph.clone())
        .algo(SpannerAlgo::KConnecting { k: 2 })
        .churn(LinkFlapScenario::new(&inst.graph, 2.0, seed + 9))
        .routing(Repair::Delta);
    let async_sched = matches!(scheduler, Scheduler::Async(_));
    builder = builder.scheduler(scheduler);
    if async_sched {
        builder = builder
            .churn_interval(8)
            .crash(0.4, 10)
            .measure_staleness(true);
    }
    if byz {
        builder = builder
            .broadcast(Broadcast::Reliable { f: 4 })
            .faults(mixed_fault_plan(seed));
    }
    if observe {
        builder = builder.observe(ObsConfig::default());
    }
    let mut session = builder.build().unwrap();
    session.run(5).unwrap();
    let spanner = sorted(session.engine().spanner_pairs());
    let tables = session.tables().unwrap().clone();
    let (metrics, report) = session.finish_observed();
    (spanner, tables, metrics, report)
}

#[test]
fn observe_on_is_bit_identical_to_observe_off() {
    // Turning the recorder on must not perturb the run: spanner evolution,
    // routing tables and the full Metrics snapshot stay bit-identical across
    // both schedulers, under crash churn and under Byzantine faults.
    for seed in [7u64, 23] {
        let cases: Vec<(&str, Scheduler, bool)> = vec![
            ("sync", Scheduler::Sync, false),
            (
                "async",
                Scheduler::Async(AsimConfig {
                    latency: LatencyModel::Uniform { lo: 1, hi: 3 },
                    loss: 0.15,
                    max_retries: 1,
                    seed: seed ^ 0x0B5,
                    ..AsimConfig::default()
                }),
                false,
            ),
            (
                "byz",
                Scheduler::Async(byz_async_cfg(seed ^ 0x0B5, Adversary::None)),
                true,
            ),
        ];
        for (label, sched, byz) in cases {
            let (sp_off, tb_off, m_off, r_off) = observed_run(seed, sched.clone(), byz, false);
            let (sp_on, tb_on, m_on, r_on) = observed_run(seed, sched, byz, true);
            assert!(r_off.is_none(), "off run must produce no report");
            let report = r_on.expect("observed run must produce a report");
            assert_eq!(sp_off, sp_on, "{label}: spanner diverged, seed {seed}");
            assert_eq!(tb_off, tb_on, "{label}: tables diverged, seed {seed}");
            assert_eq!(m_off, m_on, "{label}: metrics diverged, seed {seed}");
            assert!(!report.lines.is_empty(), "{label}: recorder saw no events");
            if label != "sync" {
                assert!(report.delivered > 0, "{label}: no deliveries observed");
                assert!(report.waves > 0, "{label}: no waves observed");
            }
        }
    }
}

/// Everything a telemetry-identity run must agree on: spanner edges,
/// routing tables, the Metrics snapshot, the obs JSONL export, plus the
/// telemetry fold itself (None on the off run).
type TelemetryRun = (
    Vec<(Node, Node)>,
    rspan_distributed::RoutingTables,
    rspan_session::Metrics,
    Option<String>,
    Option<rspan_session::TelemetrySnapshot>,
);

fn telemetry_run(seed: u64, scheduler: Scheduler, telemetry: bool) -> TelemetryRun {
    use rspan_session::TelemetryHandle;
    let inst = udg_with_density(60, 8.5, seed);
    let mut builder = Session::builder(inst.graph.clone())
        .algo(SpannerAlgo::KConnecting { k: 2 })
        .churn(LinkFlapScenario::new(&inst.graph, 2.0, seed + 9))
        .routing(Repair::Delta)
        .observe(ObsConfig::default());
    let async_sched = matches!(scheduler, Scheduler::Async(_));
    builder = builder.scheduler(scheduler);
    if async_sched {
        builder = builder
            .churn_interval(8)
            .crash(0.4, 10)
            .measure_staleness(true);
    }
    let handle = telemetry.then(TelemetryHandle::enabled);
    if let Some(tel) = &handle {
        builder = builder.telemetry(tel.clone());
    }
    let mut session = builder.build().unwrap();
    session.run(5).unwrap();
    let spanner = sorted(session.engine().spanner_pairs());
    let tables = session.tables().unwrap().clone();
    assert_eq!(
        session.telemetry().is_some(),
        telemetry,
        "Session::telemetry() mirrors the installed handle"
    );
    let (metrics, report) = session.finish_observed();
    let jsonl = report.map(|r| r.to_jsonl());
    // Snapshot after the final drain so queue-level gauges have settled.
    let snapshot = handle.and_then(|h| h.snapshot());
    (spanner, tables, metrics, jsonl, snapshot)
}

#[test]
fn telemetry_on_is_bit_identical_to_telemetry_off() {
    // Telemetry measures wall-clock reality and must never leak into the
    // deterministic channels: with the registry enabled, spanner evolution,
    // routing tables, the full Metrics snapshot and the obs JSONL export all
    // stay bit-identical, under both schedulers — while the registry itself
    // demonstrably saw the run.
    use rspan_telemetry::{Counter, Span};
    for seed in [11u64, 29] {
        let cases: Vec<(&str, Scheduler)> = vec![
            ("sync", Scheduler::Sync),
            (
                "async",
                Scheduler::Async(AsimConfig {
                    latency: LatencyModel::Uniform { lo: 1, hi: 3 },
                    loss: 0.15,
                    max_retries: 1,
                    seed: seed ^ 0x7E1,
                    ..AsimConfig::default()
                }),
            ),
        ];
        for (label, sched) in cases {
            let (sp_off, tb_off, m_off, j_off, t_off) = telemetry_run(seed, sched.clone(), false);
            let (sp_on, tb_on, m_on, j_on, t_on) = telemetry_run(seed, sched, true);
            assert!(t_off.is_none(), "off run must fold no snapshot");
            let snap = t_on.expect("enabled run must fold a snapshot");
            assert_eq!(sp_off, sp_on, "{label}: spanner diverged, seed {seed}");
            assert_eq!(tb_off, tb_on, "{label}: tables diverged, seed {seed}");
            assert_eq!(m_off, m_on, "{label}: metrics diverged, seed {seed}");
            assert_eq!(j_off, j_on, "{label}: obs JSONL diverged, seed {seed}");
            assert_eq!(
                snap.counter(Counter::EngineCommits),
                5,
                "{label}: every commit lands in the registry"
            );
            assert!(
                snap.counter(Counter::RouterRepairs) >= 5,
                "{label}: every repair lands in the registry"
            );
            assert!(
                snap.span(Span::Mark).calls > 0,
                "{label}: commit phases recorded"
            );
            if label == "async" {
                assert!(
                    snap.counter(Counter::SimEvents) > 0,
                    "async: event loop recorded"
                );
                assert!(
                    snap.counter(Counter::SimDelivered) > 0,
                    "async: deliveries recorded"
                );
                assert!(
                    snap.span(Span::SimRun).calls > 0,
                    "async: the event loop ran under its span"
                );
                assert!(
                    snap.counter(Counter::SimTransmissions) >= snap.counter(Counter::SimDelivered),
                    "async: transmissions bound deliveries"
                );
                assert_eq!(
                    snap.gauge(rspan_telemetry::Gauge::SimHeapDepth),
                    0,
                    "async: a drained timeline leaves no queued events"
                );
            }
        }
    }
}

#[test]
fn observed_jsonl_replays_byte_identical() {
    // Same seed + same config ⇒ the exported JSONL trace is byte-identical,
    // across both schedulers and under Byzantine faults.
    for (label, sched, byz) in [
        ("sync", Scheduler::Sync, false),
        (
            "async",
            Scheduler::Async(AsimConfig {
                latency: LatencyModel::HeavyTailed {
                    min: 1,
                    alpha: 1.5,
                    cap: 12,
                },
                loss: 0.2,
                max_retries: 1,
                seed: 0x5EED,
                ..AsimConfig::default()
            }),
            false,
        ),
        (
            "byz",
            Scheduler::Async(byz_async_cfg(0x5EED, Adversary::WaveSplit { stretch: 2 })),
            true,
        ),
    ] {
        let (_, _, _, r1) = observed_run(19, sched.clone(), byz, true);
        let (_, _, _, r2) = observed_run(19, sched, byz, true);
        let (a, b) = (r1.unwrap(), r2.unwrap());
        let (ja, jb) = (a.to_jsonl(), b.to_jsonl());
        assert!(!ja.is_empty(), "{label}: empty trace");
        assert_eq!(ja, jb, "{label}: JSONL replay diverged");
        assert_eq!(a.lines.len(), ja.lines().count(), "{label}: line count");
        if byz {
            // A replaying node re-stamps frames with an older epoch, so the
            // trace may name waves that never started: check only that
            // timestamps are monotone non-decreasing down the file.
            let mut last = 0u64;
            for line in ja.lines() {
                let t = line
                    .strip_prefix("{\"t\":")
                    .and_then(|rest| rest.split(',').next())
                    .and_then(|s| s.parse::<u64>().ok())
                    .unwrap_or_else(|| panic!("{label}: malformed line {line}"));
                assert!(t >= last, "{label}: time went backwards at {line}");
                last = t;
            }
        } else {
            rspan_obs::lint_trace(&ja).unwrap_or_else(|e| panic!("{label}: {e}"));
        }
    }
}

// ---------------------------------------------------------------------------
// Metrics JSON shape: what the BENCH_*.json rows are built from
// ---------------------------------------------------------------------------

fn assert_has_keys(json: &str, keys: &[&str]) {
    for key in keys {
        assert!(
            json.contains(&format!("\"{key}\":")),
            "metrics JSON missing key `{key}`: {json}"
        );
    }
}

#[test]
fn metrics_json_shape_matches_bench_validators() {
    // Async session: must provide every BENCH_async.json row field except
    // the harness-owned `family` and `wall_ns_per_event`.
    let inst = udg_with_density(60, 9.0, 8);
    let mut session = Session::builder(inst.graph.clone())
        .algo(SpannerAlgo::KConnecting { k: 2 })
        .churn(LinkFlapScenario::new(&inst.graph, 1.5, 3))
        .routing(Repair::Delta)
        .scheduler(Scheduler::Async(AsimConfig::lockstep(4)))
        .churn_interval(16)
        .measure_staleness(true)
        .build()
        .unwrap();
    session.run(4).unwrap();
    let json = session.finish().to_json();
    assert_has_keys(
        &json,
        &[
            "scenario",
            "n",
            "m",
            "rounds",
            "churn_interval",
            "latency",
            "loss",
            "max_retries",
            "crash_prob",
            "dirty_total",
            "converged_rounds",
            "mean_convergence_ticks",
            "final_virtual_time",
            "delivered",
            "dropped",
            "dropped_loss",
            "dropped_down",
            "transmissions",
            "bytes_delivered",
            "events",
            // The staleness section (new BENCH_async.json family).
            "staleness_checks",
            "staleness_inflight_checks",
            "stale_rows_total",
            "stale_rows_max",
        ],
    );
    assert!(json.starts_with('{') && json.ends_with('}'));

    // Sync session with routing: the engine/routing churn row fields.
    let mut session = Session::builder(inst.graph.clone())
        .algo(SpannerAlgo::KConnecting { k: 2 })
        .churn(LinkFlapScenario::new(&inst.graph, 1.5, 3))
        .routing(Repair::Delta)
        .build()
        .unwrap();
    session.run(4).unwrap();
    let json = session.finish().to_json();
    assert_has_keys(
        &json,
        &[
            "algo",
            "n",
            "m",
            "epoch",
            "spanner_edges",
            "rounds",
            "batch_changes",
            "dirty_total",
            "spanner_flips",
            "rows_recomputed",
            "repairs",
        ],
    );

    // Byzantine session: the BENCH_byz.json row fields.
    let inst = udg_with_density(26, 8.0, 12);
    let mut session = Session::builder(inst.graph.clone())
        .algo(SpannerAlgo::KConnecting { k: 2 })
        .churn(LinkFlapScenario::new(&inst.graph, 1.5, 3))
        .scheduler(Scheduler::Async(AsimConfig::lockstep(6)))
        .churn_interval(24)
        .broadcast(Broadcast::Reliable { f: 2 })
        .faults(FaultPlan {
            f: 2,
            byzantine: vec![(3, ByzBehaviour::Forge), (9, ByzBehaviour::Suppress)],
            seed: 1,
        })
        .build()
        .unwrap();
    session.run(3).unwrap();
    let json = session.finish().to_json();
    assert_has_keys(
        &json,
        &[
            "broadcast",
            "fault_plan",
            "byz_nodes",
            "rb_init_sent",
            "rb_echo_sent",
            "rb_ready_sent",
            "rb_relayed",
            "rb_delivered",
            "rb_rejected_mac",
            "rb_rejected_stale",
            "rb_suppressed_inner",
            "byz_suppressed",
            "byz_rewritten",
            "rb_amplification",
            "agreement_checks",
            "agreement_violations",
        ],
    );
    assert!(json.contains("\"broadcast\": \"reliable_f2\""), "{json}");
    assert!(
        json.contains("\"fault_plan\": \"f2_forge3_suppress9\""),
        "{json}"
    );
}

#[test]
fn session_local_routing_matches_hand_wired_compact_router() {
    // The session façade (Repair::Local) must behave exactly like the
    // hand-wired engine + CompactRouter pair: same repairs, same routes,
    // same exact answers, and a stretch sample that lands in the metrics.
    use rspan_graph::generators::udg::uniform_udg;
    use rspan_session::{CompactRouter, LocalConfig};

    let seed = 31u64;
    let cfg = LocalConfig {
        landmarks: 24,
        cache_capacity: 8,
    };
    let inst = uniform_udg(90, 5.0, 1.0, seed);
    let mut session = Session::builder(inst.graph.clone())
        .algo(SpannerAlgo::KConnecting { k: 2 })
        .churn(LinkFlapScenario::new(&inst.graph, 3.0, seed))
        .routing(Repair::Local(cfg))
        .build()
        .expect("valid configuration");
    let algo = TreeAlgo::KGreedy { k: 2 };
    let mut engine = RspanEngine::new(inst.graph.clone(), algo);
    let mut router = CompactRouter::new(&engine, cfg);
    let mut hand_scenario = LinkFlapScenario::new(&inst.graph, 3.0, seed);
    for round in 0..6 {
        let batch = hand_scenario.next_batch(engine.graph());
        let delta = engine.commit(&batch);
        let hand = router.apply(&engine, &batch, &delta);
        let report = session.step().expect("scenario configured");
        assert_eq!(report.delta, delta, "round {round}: engine diverged");
        assert_eq!(
            report.local_repair.expect("local routing configured"),
            hand,
            "round {round}: session repair diverged from hand-wired"
        );
    }
    let n = engine.graph().n() as Node;
    for s in (0..n).step_by(7) {
        for t in 0..n {
            assert_eq!(
                session
                    .local_router()
                    .expect("local routing configured")
                    .forward(s, t),
                router.forward(s, t),
                "session route diverged at ({s}, {t})"
            );
            assert_eq!(
                session.exact_next_hop(s, t),
                router.exact_next_hop(&engine, s, t),
                "session exact query diverged at ({s}, {t})"
            );
        }
    }
    let sampled = session.sample_local_stretch(40, seed);
    assert!(sampled > 0, "stretch sampler found no connected pairs");
    let metrics = session.metrics();
    let local = metrics.local.expect("local section present");
    assert_eq!(local.stretch_samples, sampled);
    assert!(local.stretch_p50 >= 1.0, "stretch below 1 is impossible");
    assert!(
        local.stretch_p99 <= 4.0,
        "p99 {} exceeds the configured bound",
        local.stretch_p99
    );
    assert!(local.state_bytes > 0 && local.landmarks > 0);
}
