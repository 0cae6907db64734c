//! End-to-end benchmark of the remote-spanner pipeline.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <flap_local|mobile_asim|live_tcp> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run generates its inputs from the seed and drives a closed churn
//! loop for the given seconds through the layers' public calls, in
//! [`SEGMENTS`] segments that each set the workload up afresh (the median
//! set-up is `setup_s`).  It checks the state against an independent
//! reference and prints one JSON line last.  With `--trace 0`
//! that line carries the end-to-end metrics of an untraced pass; with
//! `--trace 1` it carries the per-layer metrics of a second, traced pass
//! (spans around every layer call plus the program's telemetry registry),
//! and the span trace is written as JSONL.  A failed check exits 1 without
//! printing a result.  See `perfbench/README.md`.

mod flap_local;
mod inputs;
mod live_tcp;
mod mobile_asim;
mod stats;
mod sys;
mod trace;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use stats::{median, percentile, Tally};
use std::ops::Range;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::{self_times, Tracer};

/// One reported figure.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// End-to-end metrics: every workload reports each of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("converge_ms_p50", "ms"),
    ("converge_ms_p90", "ms"),
    ("changes_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run.  A workload that does not exercise
/// a layer reports its metrics as 0.  The first group holds the end-to-end
/// figures that exist on one or two workloads only.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lookups_per_s", "1/s"),
    ("converge_ticks_p50", "ticks"),
    ("converge_ticks_p90", "ticks"),
    ("wave_bytes_per_change", "B"),
    ("state_bytes_per_node", "B"),
    ("stretch_p99", "ratio"),
    ("fail_ratio", "ratio"),
    ("engine.build_s", "s"),
    ("engine.commit_ms_p50", "ms"),
    ("engine.dirty_per_change", "count"),
    ("engine.flips_per_change", "count"),
    ("engine.changed_tree_ratio", "ratio"),
    ("compact.build_s", "s"),
    ("compact.apply_ms_p50", "ms"),
    ("compact.apply_ms_p90", "ms"),
    ("compact.landmark_repair_ms_p50", "ms"),
    ("compact.ball_repair_ms_p50", "ms"),
    ("compact.trees_rebuilt_ratio", "ratio"),
    ("compact.ball_rows_per_commit", "count"),
    ("compact.next_hop_ns", "ns"),
    ("compact.forward_us", "us"),
    ("compact.exact_ns", "ns"),
    ("compact.cache_hit_ratio", "ratio"),
    ("compact.rows_materialized_per_round", "count"),
    ("compact.forward_hops_mean", "count"),
    ("compact.landmarks", "count"),
    ("asim.build_s", "s"),
    ("asim.drain_ms_p50", "ms"),
    ("asim.commit_round_ms_p50", "ms"),
    ("asim.events_per_change", "count"),
    ("asim.events_per_s", "1/s"),
    ("asim.retransmissions_per_change", "count"),
    ("asim.drops_per_change", "count"),
    ("asim.useful_delivery_ratio", "ratio"),
    ("asim.heap_depth_p99", "count"),
    ("net.spawn_s", "s"),
    ("net.link_phase_ms_p50", "ms"),
    ("net.wave_phase_ms_p50", "ms"),
    ("net.wave_phase_ms_p90", "ms"),
    ("net.enqueue_us_mean", "us"),
    ("net.quiesce_wait_ms_p50", "ms"),
    ("net.frames_per_change", "count"),
    ("net.frame_latency_us_p50", "us"),
    ("net.frame_latency_us_p99", "us"),
    ("net.reconnects", "count"),
    ("net.threads", "count"),
    ("proc.cpu_ms_per_change", "ms"),
    ("proc.rss_growth_mb", "MB"),
    ("proc.unattributed_ms", "ms"),
    ("proc.attributed_share", "ratio"),
    ("proc.trace_overhead", "ratio"),
];

/// Command-line arguments.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// What one pass (set-up plus churn loop) measured, in the shape every
/// workload shares.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall time of each set-up repetition: build from the generated inputs
    /// plus the warm-up rounds.
    pub setup_s: Vec<f64>,
    /// Per timed round: batch entering the engine to correct routing state.
    pub converge_ms: Vec<f64>,
    /// Per timed round: topology changes and the wall time
    /// `changes_per_s` divides them by.
    pub change_rounds: Vec<(u64, f64)>,
    /// Host steal counter after each timed round.
    pub steal_after: Vec<u64>,
    /// The segments of the churn loop, one per [`LoopProbe::start`]: the
    /// first timed round of each and the steal counter before it.  Host
    /// noise is screened within each segment, so a workload that cycles
    /// through several topologies keeps rounds of every one, and steal
    /// during the untimed set-ups and checks between segments is charged
    /// to no slice.
    pub segments: Vec<(usize, u64)>,
    /// Topology changes in the timed rounds.
    pub changes: u64,
    /// Wall time of the whole churn loop (all round spans).
    pub loop_s: f64,
    pub tally: Tally,
    pub cpu_ms: f64,
    pub rss_after_setup_mb: f64,
    pub rss_end_mb: f64,
    /// Peak RSS after the first [`MIN_SEGMENT_ROUNDS`] timed rounds.
    pub peak_rss_mb: f64,
}

/// Timed rounds every loop runs: enough that the quiet half of the slices
/// alone holds a reportable p90.
pub const MIN_ROUNDS: usize = 2 * 10 * stats::MIN_TAIL;

/// Segments every churn loop is cut into.  Each one draws its own seeded
/// graph and churn, sets its world up afresh and runs an equal share of the
/// loop's seconds, so the set-ups are sampled across the whole run, as the
/// rounds are, and the state a world accrues never depends on how fast
/// earlier rounds ran.
pub const SEGMENTS: usize = 10;

/// Timed rounds every segment runs at least.  `peak_rss_mb` is read after
/// the first segment's: a fixed amount of work, because protocol state
/// grows with every round and a faster program, which fits more rounds
/// into a segment, must not be charged for the state they add.
pub const MIN_SEGMENT_ROUNDS: usize = MIN_ROUNDS / SEGMENTS;

/// Set-up time every segment of `flap_local` and `mobile_asim` repeats its
/// set-up for (at least once): a build of under 0.1 s swings by ±20% from
/// one repetition to the next, so each segment takes several.
pub const SEGMENT_SETUP_SECONDS: f64 = 0.25;

impl Pass {
    pub fn rounds(&self) -> usize {
        self.converge_ms.len()
    }

    /// Whether a segment that has set up `reps` times so far may start its
    /// rounds.
    pub fn setup_done(&self, reps: usize) -> bool {
        let recent = &self.setup_s[self.setup_s.len() - reps..];
        reps > 0 && recent.iter().sum::<f64>() >= SEGMENT_SETUP_SECONDS
    }

    /// Sets a segment's world up with `build`, dropping the one before it
    /// first, and again until [`Pass::setup_done`]; times each set-up.
    pub fn set_up<'w, W>(
        &mut self,
        world: &'w mut Option<W>,
        mut build: impl FnMut() -> W,
    ) -> &'w mut W {
        let mut reps = 0;
        while !self.setup_done(reps) {
            drop(world.take());
            let t0 = Instant::now();
            *world = Some(build());
            self.setup_s.push(t0.elapsed().as_secs_f64());
            reps += 1;
        }
        world.as_mut().expect("a set-up world")
    }

    /// Whether segment `k` of [`SEGMENTS`] has measured enough: at least
    /// [`MIN_SEGMENT_ROUNDS`] rounds and its share of `seconds` of round
    /// time; the last one runs on until the loop holds [`MIN_ROUNDS`].
    pub fn segment_done(&self, seconds: f64, k: usize) -> bool {
        let start = self.segments.last().map_or(0, |&(start, _)| start);
        let share = seconds * (k + 1) as f64 / SEGMENTS as f64;
        self.rounds() - start >= MIN_SEGMENT_ROUNDS
            && self.loop_s >= share
            && (k + 1 < SEGMENTS || self.rounds() >= MIN_ROUNDS)
    }

    /// Records one timed round: `changes` topology changes, correct state
    /// `converge_s` after the batch entered the engine, `change_s` of wall
    /// time charged to the changes and `round_s` for the whole round.
    pub fn record_round(&mut self, changes: usize, converge_s: f64, change_s: f64, round_s: f64) {
        self.converge_ms.push(converge_s * 1e3);
        self.change_rounds.push((changes as u64, change_s));
        self.steal_after.push(sys::steal_ticks());
        self.changes += changes as u64;
        self.loop_s += round_s;
        if self.rounds() == MIN_SEGMENT_ROUNDS {
            self.peak_rss_mb = sys::peak_rss_mb();
        }
    }

    /// The timed rounds of each segment of the loop.
    fn segment_rounds(&self) -> impl Iterator<Item = (Range<usize>, u64)> + '_ {
        let ends = (self.segments.iter().skip(1).map(|&(start, _)| start)).chain([self.rounds()]);
        (self.segments.iter().zip(ends)).map(|(&(start, steal), end)| (start..end, steal))
    }

    /// The slices of timed rounds the host left alone: each segment of the
    /// loop is cut into [`stats::SLICES`] and screened on its own (see
    /// [`stats::quiet_slices`]).
    pub fn quiet_slices(&self) -> Vec<Range<usize>> {
        let mut kept = Vec::new();
        for (rounds, steal_before) in self.segment_rounds() {
            let steal = &self.steal_after[rounds.clone()];
            let slices = stats::quiet_slices(steal, steal_before, stats::SLICES);
            kept.extend((slices.into_iter()).map(|r| r.start + rounds.start..r.end + rounds.start));
        }
        kept
    }

    /// Host steal ticks during the timed rounds.
    pub fn loop_steal(&self) -> u64 {
        (self.segment_rounds())
            .filter(|(rounds, _)| !rounds.is_empty())
            .map(|(rounds, before)| self.steal_after[rounds.end - 1] - before)
            .sum()
    }

    /// Median over the quiet slices of changes per second.
    pub fn changes_per_s(&self) -> f64 {
        stats::median_rate(&self.change_rounds, &self.quiet_slices())
    }

    fn end_to_end(&self) -> Result<Vec<Metric>, String> {
        let converge: Vec<f64> = (self.quiet_slices().into_iter())
            .flat_map(|r| self.converge_ms[r].iter().copied())
            .collect();
        let p90 = percentile(&converge, 90.0).ok_or(format!(
            "{} quiet timed rounds are too few for converge_ms_p90",
            converge.len()
        ))?;
        Ok(vec![
            metric("setup_s", "s", median(&self.setup_s).ok_or("no set-up")?),
            metric("converge_ms_p50", "ms", median(&converge).unwrap_or(0.0)),
            metric("converge_ms_p90", "ms", p90),
            metric("changes_per_s", "1/s", self.changes_per_s()),
            metric("peak_rss_mb", "MB", self.peak_rss_mb),
        ])
    }
}

/// Samples the process around each segment of the churn loop:
/// [`LoopProbe::finish`] adds the segment's CPU time and refreshes the
/// resident memory.
pub struct LoopProbe {
    cpu_ms: f64,
}

impl LoopProbe {
    /// Starts a segment of the churn loop.
    pub fn start(pass: &mut Pass) -> Self {
        if pass.rounds() == 0 {
            pass.rss_after_setup_mb = sys::rss_mb();
        }
        pass.segments.push((pass.rounds(), sys::steal_ticks()));
        LoopProbe {
            cpu_ms: sys::cpu_ms(),
        }
    }

    pub fn finish(self, pass: &mut Pass) {
        pass.cpu_ms += sys::cpu_ms() - self.cpu_ms;
        pass.rss_end_mb = sys::rss_mb();
    }
}

/// Per-layer metrics every workload shares: the process figures of the
/// untraced pass and the span attribution of the traced one.
pub fn common_layer_metrics(base: &Pass, traced: &Pass, tracer: &Tracer) -> Vec<Metric> {
    let spans = tracer.spans();
    let selfs = self_times(spans);
    let (mut round_ns, mut harness_ns, mut rounds) = (0u64, 0u64, 0u64);
    for (s, &own) in spans.iter().zip(&selfs) {
        if s.name == "round" && s.round >= 0 {
            round_ns += s.dur_ns();
            harness_ns += own;
            rounds += 1;
        }
    }
    vec![
        metric("fail_ratio", "ratio", base.tally.fail_ratio()),
        metric(
            "proc.cpu_ms_per_change",
            "ms",
            stats::ratio(base.cpu_ms, base.changes as f64),
        ),
        metric(
            "proc.rss_growth_mb",
            "MB",
            base.rss_end_mb - base.rss_after_setup_mb,
        ),
        metric(
            "proc.unattributed_ms",
            "ms",
            stats::ratio(harness_ns as f64 / 1e6, rounds as f64),
        ),
        metric(
            "proc.attributed_share",
            "ratio",
            1.0 - stats::ratio(harness_ns as f64, round_ns as f64),
        ),
        metric(
            "proc.trace_overhead",
            "ratio",
            stats::ratio(base.changes_per_s(), traced.changes_per_s()) - 1.0,
        ),
    ]
}

/// Summed span time per round of spans named `name`, as ms samples.
pub fn span_ms_per_round(tracer: &Tracer, names: &[&str]) -> Vec<f64> {
    let mut per_round: std::collections::BTreeMap<i64, u64> = Default::default();
    for s in tracer.spans() {
        if s.round >= 0 && names.contains(&s.name) {
            *per_round.entry(s.round).or_default() += s.dur_ns();
        }
    }
    per_round.values().map(|&ns| ns as f64 / 1e6).collect()
}

/// Total span time (ns) and calls of spans named `name` in the churn loop.
pub fn span_total(tracer: &Tracer, name: &str) -> (f64, f64) {
    tracer
        .spans()
        .iter()
        .filter(|s| s.round >= 0 && s.name == name)
        .fold((0.0, 0.0), |(ns, calls), s| {
            (ns + s.dur_ns() as f64, calls + s.calls as f64)
        })
}

/// A seeded random stream for one purpose (`tag`) of a run's inputs.
pub fn stream(seed: u64, tag: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// What one pass of a workload returns.
pub struct PassOut {
    pub pass: Pass,
    /// The spans of a traced pass (empty when untraced).
    pub tracer: Tracer,
    /// End-to-end figures that only this workload has, reported among the
    /// per-layer metrics of a traced run (taken from its untraced pass).
    pub workload_e2e: Vec<Metric>,
    /// Per-layer metrics (traced pass only).
    pub layer: Vec<Metric>,
    /// Input sizes and round counts.
    pub diagnostics: Vec<(&'static str, f64)>,
}

/// A workload's result: the figures for the final JSON line, the
/// workload's own end-to-end figures and diagnostics for the lines before
/// it.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    pub workload_e2e: Vec<Metric>,
    pub diagnostics: Vec<(&'static str, f64)>,
}

/// Runs the untraced pass and, with `--trace 1`, the traced pass after it;
/// writes the traced pass's spans as JSONL.
fn drive(args: &Args, pass: fn(&Args, bool) -> Result<PassOut, String>) -> Result<Outcome, String> {
    let mut base = pass(args, false)?;
    let loop_steal = base.pass.loop_steal();
    base.diagnostics
        .push(("loop_steal_ticks", loop_steal as f64));
    let quiet = base.pass.quiet_slices().len();
    base.diagnostics.push(("quiet_slices", quiet as f64));
    if !args.trace {
        return Ok(Outcome {
            tally: base.pass.tally,
            metrics: base.pass.end_to_end()?,
            workload_e2e: base.workload_e2e,
            diagnostics: base.diagnostics,
        });
    }
    let traced = pass(args, true)?;
    let path = PathBuf::from(format!(
        ".bench_trace/{}-seed{}.jsonl",
        args.workload, args.seed
    ));
    let header = format!(
        "{{\"kind\":\"header\",\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"rounds\":{}}}",
        args.workload,
        args.seed,
        args.seconds,
        traced.pass.rounds()
    );
    traced
        .tracer
        .write_jsonl(&path, &header)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    let mut metrics = common_layer_metrics(&base.pass, &traced.pass, &traced.tracer);
    metrics.extend(base.workload_e2e.iter().cloned());
    metrics.extend(traced.layer);
    let mut tally = base.pass.tally;
    tally.add(traced.pass.tally.attempted, traced.pass.tally.failed);
    let mut diagnostics = traced.diagnostics;
    diagnostics.push(("trace_spans", traced.tracer.spans().len() as f64));
    Ok(Outcome {
        tally,
        metrics,
        workload_e2e: base.workload_e2e,
        diagnostics,
    })
}

/// Orders `metrics` like `spec`, fills layers the workload does not
/// exercise with 0 and rejects anything outside the spec.
fn complete(spec: &[(&'static str, &'static str)], metrics: Vec<Metric>) -> Vec<Metric> {
    for m in &metrics {
        assert!(
            spec.iter()
                .any(|&(name, unit)| name == m.name && unit == m.unit),
            "metric {} [{}] is not in the benchmark's list",
            m.name,
            m.unit
        );
    }
    spec.iter()
        .map(|&(name, unit)| {
            metrics
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or(metric(name, unit, 0.0))
        })
        .collect()
}

/// `metrics` as the body of a JSON object of `{"value", "unit"}` pairs.
fn metrics_json(metrics: &[Metric]) -> Result<String, String> {
    let mut fields = Vec::new();
    for m in metrics {
        assert!(stats::valid_name(m.name) && stats::valid_unit(m.unit));
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite ({})", m.name, m.value));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(fields.join(", "))
}

fn result_line(outcome: &Outcome) -> Result<String, String> {
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.tally.attempted,
        outcome.tally.failed,
        metrics_json(&outcome.metrics)?
    ))
}

fn run(args: &Args) -> Result<(), String> {
    let steal_before = sys::steal_ticks();
    let calib_before = sys::calibration_ms();
    let pass = match args.workload.as_str() {
        "flap_local" => flap_local::pass,
        "mobile_asim" => mobile_asim::pass,
        "live_tcp" => live_tcp::pass,
        other => {
            return Err(format!(
                "unknown workload {other} (flap_local, mobile_asim, live_tcp)"
            ))
        }
    };
    let mut outcome = drive(args, pass)?;
    if outcome.tally.attempted == 0 {
        return Err("no operation was attempted".into());
    }
    let spec = if args.trace { PER_LAYER } else { END_TO_END };
    outcome.metrics = complete(spec, std::mem::take(&mut outcome.metrics));
    let calib_after = sys::calibration_ms();
    // After the passes, so its table never shows in the workload's peak RSS.
    let memory_calib = sys::memory_calibration_ms();
    let mut diag = vec![
        ("seed", args.seed as f64),
        ("seconds", args.seconds),
        ("cpus", sys::cpus() as f64),
        ("steal_ticks", (sys::steal_ticks() - steal_before) as f64),
        ("calibration_ms_before", calib_before),
        ("calibration_ms_after", calib_after),
        ("memory_calibration_ms", memory_calib),
    ];
    diag.extend(&outcome.diagnostics);
    let diag: Vec<String> = diag.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    let workload_line = metrics_json(&outcome.workload_e2e)?;
    let line = result_line(&outcome)?;
    println!(
        "{{\"diagnostics\": {{\"workload\": \"{}\", \"trace\": {}, {}}}}}",
        args.workload,
        args.trace,
        diag.join(", ")
    );
    println!("{{\"workload_end_to_end\": {{{workload_line}}}}}");
    println!("{line}");
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args(&[
            "--workload",
            "flap_local",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("flap_local", 7, 10.0, true)
        );
        assert!(args(&[
            "--workload",
            "x",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "x",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(args(&["--seed", "1", "--seconds", "1"]).is_err());
    }

    #[test]
    fn metric_lists_follow_the_grammar_and_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                stats::valid_name(name) && stats::valid_unit(unit),
                "{name} [{unit}]"
            );
            assert!(seen.insert(name), "{name} listed twice");
        }
    }

    /// `BENCHMARK.json` at the repository root must list exactly the
    /// metrics this program prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_metric_lists() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{key}\"")).expect(key);
            let body = &json[start..];
            let body = &body[..body.find(']').expect("array end")];
            body.split('{')
                .skip(1)
                .map(|obj| {
                    let field = |f: &str| {
                        let at = obj.find(&format!("\"{f}\"")).expect(f) + f.len() + 2;
                        let rest = &obj[at..];
                        let open = rest.find('"').expect("value") + 1;
                        let close = open + rest[open..].find('"').expect("value end");
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), owned(END_TO_END));
        assert_eq!(section("per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn complete_fills_unexercised_layers_with_zero() {
        let out = complete(END_TO_END, vec![metric("changes_per_s", "1/s", 4.5)]);
        assert_eq!(out.len(), END_TO_END.len());
        assert_eq!(out[3], metric("changes_per_s", "1/s", 4.5));
        assert_eq!(out[0], metric("setup_s", "s", 0.0));
    }

    #[test]
    fn each_segment_is_screened_on_its_own() {
        // Two segments of 20 rounds.  The host steals 5 ticks in round 3,
        // and 100 in the untimed gap between the segments, which no slice
        // is charged for.
        let mut p = Pass::default();
        let mut steal = 0;
        for i in 0..40 {
            if i % 20 == 0 {
                steal += 100 * (i / 20);
                p.segments.push((i as usize, steal));
            }
            steal += 5 * u64::from(i == 3);
            p.converge_ms.push(1.0);
            p.steal_after.push(steal);
        }
        let kept = p.quiet_slices();
        assert_eq!(kept.len(), 19);
        assert!(!kept.contains(&(2..4)));
        assert_eq!((&kept[9], &kept[18]), (&(20..22), &(38..40)));
        assert_eq!(p.loop_steal(), 5);
    }

    #[test]
    fn a_segment_sets_up_at_least_once_and_for_its_time() {
        // Earlier segments' set-ups do not count toward this one's.
        let long = SEGMENT_SETUP_SECONDS;
        let mut p = Pass {
            setup_s: vec![long; 3],
            ..Pass::default()
        };
        assert!(!p.setup_done(0));
        let short = long / 4.0;
        for _ in 0..3 {
            p.setup_s.push(short);
            assert!(!p.setup_done(p.setup_s.len() - 3));
        }
        p.setup_s.push(short + 1e-9);
        assert!(p.setup_done(4));
        p.setup_s.push(2.0 * long);
        assert!(p.setup_done(1));
    }

    #[test]
    fn a_segment_runs_its_share_and_its_rounds() {
        let seconds = 10.0;
        let mut p = Pass::default();
        let rounds = |p: &mut Pass, n: usize, each_s: f64| {
            for _ in 0..n {
                p.converge_ms.push(1.0);
                p.steal_after.push(0);
                p.loop_s += each_s;
            }
        };
        // Segment 0 owes 1 s and MIN_SEGMENT_ROUNDS rounds, whichever is
        // later.
        p.segments.push((0, 0));
        rounds(&mut p, MIN_SEGMENT_ROUNDS - 1, 1.0);
        assert!(!p.segment_done(seconds, 0));
        rounds(&mut p, 1, 0.0);
        assert!(p.segment_done(seconds, 0));
        // The last segment runs to the loop's seconds and MIN_ROUNDS.
        p.segments.push((p.rounds(), 0));
        rounds(&mut p, MIN_SEGMENT_ROUNDS, 0.0);
        assert!(p.loop_s >= seconds);
        assert!(!p.segment_done(seconds, SEGMENTS - 1));
        let missing = MIN_ROUNDS - p.rounds();
        rounds(&mut p, missing, 0.0);
        assert!(p.segment_done(seconds, SEGMENTS - 1));
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let outcome = Outcome {
            tally: Tally {
                attempted: 12,
                failed: 1,
            },
            metrics: vec![metric("setup_s", "s", 0.8127)],
            workload_e2e: Vec::new(),
            diagnostics: Vec::new(),
        };
        assert_eq!(
            result_line(&outcome).expect("finite"),
            "{\"correct\": true, \"attempted\": 12, \"failed\": 1, \
             \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        let bad = Outcome {
            metrics: vec![metric("setup_s", "s", f64::NAN)],
            ..outcome
        };
        assert!(result_line(&bad).is_err());
    }
}
