//! Pins the JSONL trace of three small observed sessions byte for byte
//! against `tests/golden/`, so a change that alters every run alike (which a
//! run-vs-run replay test cannot see) fails.  The sessions cover the event
//! families: sync `Repair::Delta`, sync `Repair::Local` (`local_repair`),
//! and async with loss and crash churn.  On a mismatch the produced trace is
//! written where the failure says; if the change is intended, review it and
//! copy it over the golden file.

use rspan_asim::{AsimConfig, LatencyModel};
use rspan_engine::LinkFlapScenario;
use rspan_graph::generators::udg_with_density;
use rspan_session::{LocalConfig, ObsConfig, Repair, Scheduler, Session, SpannerAlgo};
use std::path::Path;

const SEED: u64 = 19;

/// Runs one observed 30-node session for three rounds; returns its JSONL.
fn trace(repair: Repair, scheduler: Scheduler) -> String {
    let inst = udg_with_density(30, 8.5, SEED);
    let async_sched = matches!(scheduler, Scheduler::Async(_));
    let mut builder = Session::builder(inst.graph.clone())
        .algo(SpannerAlgo::KConnecting { k: 2 })
        .churn(LinkFlapScenario::new(&inst.graph, 2.0, SEED + 9))
        .routing(repair)
        .scheduler(scheduler)
        .observe(ObsConfig::default());
    if async_sched {
        builder = builder
            .churn_interval(8)
            .crash(0.4, 10)
            .measure_staleness(true);
    }
    let mut session = builder.build().expect("valid configuration");
    session.run(3).expect("scenario is configured");
    let (_, report) = session.finish_observed();
    report.expect("recorder attached").to_jsonl()
}

#[test]
fn traces_match_golden_files() {
    let lossy = Scheduler::Async(AsimConfig {
        latency: LatencyModel::Uniform { lo: 1, hi: 3 },
        loss: 0.15,
        max_retries: 1,
        seed: SEED ^ 0x0B5,
        ..AsimConfig::default()
    });
    for (name, repair, scheduler) in [
        ("sync_delta.jsonl", Repair::Delta, Scheduler::Sync),
        (
            "sync_local.jsonl",
            Repair::Local(LocalConfig::default()),
            Scheduler::Sync,
        ),
        ("async_loss_crash.jsonl", Repair::Delta, lossy),
    ] {
        let actual = trace(repair, scheduler);
        let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(name);
        let expected = std::fs::read_to_string(&golden).unwrap_or_default();
        if actual != expected {
            let produced = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
            std::fs::write(&produced, &actual).expect("write the produced trace");
            let same = expected
                .lines()
                .zip(actual.lines())
                .take_while(|(e, a)| e == a);
            panic!(
                "{name}: trace differs from {} at line {}; produced trace at {}",
                golden.display(),
                same.count() + 1,
                produced.display(),
            );
        }
    }
}
