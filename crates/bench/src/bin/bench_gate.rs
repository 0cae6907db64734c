//! `bench_gate` — the BENCH regression gate.
//!
//! Diffs freshly generated `BENCH_*.json` files against committed baselines
//! and fails (exit 1) on any regression, so CI catches both *determinism*
//! drift (a seeded figure changed without a baseline update) and *schema*
//! drift (a row gained or lost a key) the moment they land.  It is the one
//! BENCH validator: CI runs the `perf_baseline` smokes, then this gate.
//!
//! The gate knows nothing about workload families.  Their invariants
//! (agreement, stretch bound, end state equal to asim, counter relations)
//! are asserted by `perf_baseline` before it writes a row, so a row that
//! exists already passed them; the exact diff below then pins the header,
//! the row count, every row's key set and every deterministic value.
//!
//! The comparison policy follows the split `perf_baseline` documents:
//!
//! * **Deterministic keys** — everything replayed from seeds (`n`, `m`,
//!   counters, stretch percentiles, the `Metrics::json_fields` snapshot) —
//!   must match **exactly**, numbers and strings alike.
//! * **Timing keys** — wall-clock figures (`wall_*`, `*_ns`, `*_ns_*`,
//!   `*_ms`, `*_speedup`) are nondeterministic by nature.  Under `--quick`
//!   (the CI mode, where machines vary wildly) they are checked for
//!   presence and sanity only (finite, non-negative — zero included, since
//!   rows print `wall_ms` to 0.1 ms and a fast row can round down to it);
//!   otherwise they must stay within a relative tolerance (default 0.5,
//!   i.e. ±50%) of the baseline — the actual perf-regression tripwire for
//!   same-machine runs.
//! * **Environment keys** (`threads`) record the machine, not the
//!   workload — presence and type only.
//!
//! Rows are matched by index inside each file; a row-count or key-set
//! mismatch is itself a failure (regenerate the baselines when the schema
//! intentionally moves).  The parser is hand-rolled over the flat shape
//! `write_json` emits — no external JSON dependency.
//!
//! Usage:
//!   `bench_gate [--quick] [--baseline DIR] [--current DIR] [--tolerance F]`
//!
//! Defaults: baselines from `bench/baselines/quick`, current files from the
//! working directory (where `perf_baseline` writes them), tolerance 0.5.
//! Every `BENCH_*.json` present in the baseline directory is compared; a
//! missing current file is a failure.

use std::process::ExitCode;

// ---------------------------------------------------------------------------
// Minimal JSON — just enough for the flat shape `perf_baseline` writes.
// ---------------------------------------------------------------------------

/// A parsed JSON value.  BENCH rows only ever hold the scalar variants;
/// arrays/objects appear solely at the document level (`rows`).
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Arr(_) => "array",
            Value::Obj(_) => "object",
        }
    }

    fn render(&self) -> String {
        match self {
            Value::Null => "null".into(),
            Value::Bool(b) => b.to_string(),
            Value::Num(x) => x.to_string(),
            Value::Str(s) => format!("\"{s}\""),
            Value::Arr(_) => "<array>".into(),
            Value::Obj(_) => "<object>".into(),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            s: text.as_bytes(),
            i: 0,
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
        self.s
            .get(self.i)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        let got = self.peek()?;
        if got != c {
            return Err(format!(
                "expected '{}' at byte {}, found '{}'",
                c as char, self.i, got as char
            ));
        }
        self.i += 1;
        Ok(())
    }

    fn expect_word(&mut self, word: &str) -> Result<(), String> {
        self.peek()?;
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(())
        } else {
            Err(format!("expected '{word}' at byte {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Value::Str(self.string()?)),
            b't' => {
                self.expect_word("true")?;
                Ok(Value::Bool(true))
            }
            b'f' => {
                self.expect_word("false")?;
                Ok(Value::Bool(false))
            }
            b'n' => {
                self.expect_word("null")?;
                Ok(Value::Null)
            }
            _ => self.number(),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.i += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek()? {
                b',' => self.i += 1,
                b'}' => {
                    self.i += 1;
                    return Ok(Value::Obj(fields));
                }
                c => return Err(format!("expected ',' or '}}', found '{}'", c as char)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.i += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.i += 1,
                b']' => {
                    self.i += 1;
                    return Ok(Value::Arr(items));
                }
                c => return Err(format!("expected ',' or ']', found '{}'", c as char)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let c = *self
                .s
                .get(self.i)
                .ok_or_else(|| "unterminated string".to_string())?;
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self
                        .s
                        .get(self.i)
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.i += 1;
                    out.push(match esc {
                        b'n' => '\n',
                        b't' => '\t',
                        other => other as char,
                    });
                }
                other => out.push(other as char),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        self.peek()?;
        let start = self.i;
        while self.i < self.s.len()
            && matches!(
                self.s[self.i],
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
            )
        {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii number");
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("malformed number '{text}' at byte {start}"))
    }
}

fn parse_json(text: &str) -> Result<Value, String> {
    let mut p = Parser::new(text);
    let v = p.value()?;
    while p.i < p.s.len() && p.s[p.i].is_ascii_whitespace() {
        p.i += 1;
    }
    if p.i != p.s.len() {
        return Err(format!("trailing data at byte {}", p.i));
    }
    Ok(v)
}

// ---------------------------------------------------------------------------
// BENCH document shape.
// ---------------------------------------------------------------------------

/// One parsed BENCH file: the bench/unit header plus flat rows whose field
/// order is preserved (the baselines are committed, so order is stable and
/// the diff report reads in file order).
struct BenchDoc {
    bench: String,
    unit: String,
    rows: Vec<Vec<(String, Value)>>,
}

fn parse_bench(text: &str) -> Result<BenchDoc, String> {
    let Value::Obj(top) = parse_json(text)? else {
        return Err("top level is not an object".into());
    };
    let field = |key: &str| {
        top.iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing top-level key \"{key}\""))
    };
    let Value::Str(bench) = field("bench")? else {
        return Err("\"bench\" is not a string".into());
    };
    let Value::Str(unit) = field("unit")? else {
        return Err("\"unit\" is not a string".into());
    };
    let Value::Arr(raw_rows) = field("rows")? else {
        return Err("\"rows\" is not an array".into());
    };
    let mut rows = Vec::with_capacity(raw_rows.len());
    for (idx, row) in raw_rows.iter().enumerate() {
        let Value::Obj(fields) = row else {
            return Err(format!("row {idx} is not an object"));
        };
        for (key, v) in fields {
            if matches!(v, Value::Arr(_) | Value::Obj(_) | Value::Null) {
                return Err(format!(
                    "row {idx} key \"{key}\" is {} — BENCH rows are flat scalars",
                    v.type_name()
                ));
            }
        }
        rows.push(fields.clone());
    }
    Ok(BenchDoc {
        bench: bench.clone(),
        unit: unit.clone(),
        rows,
    })
}

// ---------------------------------------------------------------------------
// Comparison policy.
// ---------------------------------------------------------------------------

/// Wall-clock keys: medians of `Instant`-timed regions, their speedup
/// ratios, and the telemetry span wall-times.  Everything else in a BENCH
/// row replays from seeds and must match bit-for-bit.
fn is_timing_key(key: &str) -> bool {
    key.starts_with("wall_")
        || key.ends_with("_ms")
        || key.ends_with("_ns")
        || key.contains("_ns_")
        || key.ends_with("_speedup")
}

/// Keys that record the machine, not the workload — checked for presence
/// and type only (a 4-core CI runner must pass against an 8-core baseline).
fn is_env_key(key: &str) -> bool {
    key == "threads"
}

/// The real-transport file: its rows time OS threads and TCP sockets, so
/// *every* timing key is machine noise even on a same-machine full run, and
/// the `net_`-prefixed frame/byte/reconnect counts depend on physical
/// arrival order (monotone relays re-fire when a better copy lands).  Both
/// are presence-and-sanity only, quick or not; the deterministic keys
/// (`dirty_total`, `converged`, `state_matches_asim`, the asim virtual-time
/// prediction) still gate exactly.
fn is_net_file(name: &str) -> bool {
    name == "BENCH_net.json"
}

/// Physical transport counters in the net file (nondeterministic counts).
fn is_net_counter_key(key: &str) -> bool {
    key.starts_with("net_")
}

fn rel_close(a: f64, b: f64, tol: f64) -> bool {
    let denom = a.abs().max(b.abs()).max(1e-9);
    (a - b).abs() <= tol * denom
}

/// Appends one failure line per divergence between a baseline and a current
/// document; an empty result means the file passes the gate.
fn compare_docs(
    name: &str,
    base: &BenchDoc,
    cur: &BenchDoc,
    quick: bool,
    tol: f64,
    failures: &mut Vec<String>,
) {
    if base.bench != cur.bench || base.unit != cur.unit {
        failures.push(format!(
            "{name}: header changed — baseline ({}, {}), current ({}, {})",
            base.bench, base.unit, cur.bench, cur.unit
        ));
        return;
    }
    if base.rows.len() != cur.rows.len() {
        failures.push(format!(
            "{name}: row count changed — baseline {}, current {}",
            base.rows.len(),
            cur.rows.len()
        ));
        return;
    }
    for (idx, (brow, crow)) in base.rows.iter().zip(&cur.rows).enumerate() {
        let find = |row: &'_ [(String, Value)], key: &str| {
            row.iter().find(|(k, _)| k == key).map(|(_, v)| v).cloned()
        };
        for (key, bval) in brow {
            let Some(cval) = find(crow, key) else {
                failures.push(format!(
                    "{name} row {idx}: key \"{key}\" missing from current"
                ));
                continue;
            };
            compare_value(name, idx, key, bval, &cval, quick, tol, failures);
        }
        for (key, _) in crow {
            if find(brow, key).is_none() {
                failures.push(format!(
                    "{name} row {idx}: key \"{key}\" not in baseline — regenerate baselines"
                ));
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn compare_value(
    name: &str,
    idx: usize,
    key: &str,
    bval: &Value,
    cval: &Value,
    quick: bool,
    tol: f64,
    failures: &mut Vec<String>,
) {
    if std::mem::discriminant(bval) != std::mem::discriminant(cval) {
        failures.push(format!(
            "{name} row {idx} key \"{key}\": type changed — baseline {}, current {}",
            bval.type_name(),
            cval.type_name()
        ));
        return;
    }
    if is_env_key(key) {
        return;
    }
    let net_file = is_net_file(name);
    if net_file && is_net_counter_key(key) {
        if let Value::Num(c) = cval {
            if !c.is_finite() || *c < 0.0 {
                failures.push(format!(
                    "{name} row {idx} key \"{key}\": current counter {c} is not a sane count"
                ));
            }
        }
        return;
    }
    if is_timing_key(key) {
        if let (Value::Num(b), Value::Num(c)) = (bval, cval) {
            if !c.is_finite() || *c < 0.0 {
                failures.push(format!(
                    "{name} row {idx} key \"{key}\": current timing {c} is not a sane wall figure"
                ));
            } else if !quick && !net_file && !rel_close(*b, *c, tol) {
                failures.push(format!(
                    "{name} row {idx} key \"{key}\": timing drifted beyond ±{:.0}% — \
                     baseline {b}, current {c}",
                    tol * 100.0
                ));
            }
        }
        return;
    }
    if bval != cval {
        failures.push(format!(
            "{name} row {idx} key \"{key}\": deterministic value changed — baseline {}, current {}",
            bval.render(),
            cval.render()
        ));
    }
}

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

fn usage() -> ! {
    eprintln!("usage: bench_gate [--quick] [--baseline DIR] [--current DIR] [--tolerance F]");
    std::process::exit(2);
}

fn load(path: &std::path::Path) -> Result<BenchDoc, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_bench(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    let mut baseline_dir = String::from("bench/baselines/quick");
    let mut current_dir = String::from(".");
    let mut quick = false;
    let mut tolerance = 0.5f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--baseline" => baseline_dir = args.next().unwrap_or_else(|| usage()),
            "--current" => current_dir = args.next().unwrap_or_else(|| usage()),
            "--tolerance" => {
                tolerance = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            _ => usage(),
        }
    }

    let mut names: Vec<String> = match std::fs::read_dir(&baseline_dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            .collect(),
        Err(e) => {
            eprintln!("bench_gate: cannot read baseline dir {baseline_dir}: {e}");
            return ExitCode::from(2);
        }
    };
    names.sort();
    if names.is_empty() {
        eprintln!("bench_gate: no BENCH_*.json baselines under {baseline_dir}");
        return ExitCode::from(2);
    }

    let mut failures = Vec::new();
    for name in &names {
        let base = std::path::Path::new(&baseline_dir).join(name);
        let cur = std::path::Path::new(&current_dir).join(name);
        match (load(&base), load(&cur)) {
            (Ok(b), Ok(c)) => {
                let before = failures.len();
                compare_docs(name, &b, &c, quick, tolerance, &mut failures);
                if failures.len() == before {
                    let keys: usize = b.rows.iter().map(|r| r.len()).sum();
                    println!("{name}: {} rows, {keys} keys — OK", b.rows.len());
                }
            }
            (Err(e), _) | (_, Err(e)) => failures.push(e),
        }
    }

    if failures.is_empty() {
        println!(
            "bench gate passed: {} files against {baseline_dir}{}",
            names.len(),
            if quick {
                " (quick: timing presence-only)"
            } else {
                ""
            }
        );
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("FAIL {f}");
        }
        eprintln!("bench gate failed: {} regression(s)", failures.len());
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------------
// Tests.
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "bench": "engine_churn",
  "unit": "ns_per_commit_median",
  "rows": [
    {"workload": "engine_churn", "seed": 3, "wall_ms": 46.9, "threads": 8,
     "routing": "none", "n": 300, "incremental_commit_ns": 9240,
     "incremental_speedup": 776.24, "matches_full_recompute": true,
     "wall_commit_ms": 1.297, "wall_repair_ms": 0.000}
  ]
}
"#;

    fn doc() -> BenchDoc {
        parse_bench(SAMPLE).expect("sample parses")
    }

    /// Replaces the first occurrence of `from` in the sample and reparses.
    fn doc_with(from: &str, to: &str) -> BenchDoc {
        parse_bench(&SAMPLE.replacen(from, to, 1)).expect("edited sample parses")
    }

    fn gate(base: &BenchDoc, cur: &BenchDoc, quick: bool) -> Vec<String> {
        let mut failures = Vec::new();
        compare_docs("BENCH_test.json", base, cur, quick, 0.5, &mut failures);
        failures
    }

    #[test]
    fn parses_the_flat_bench_shape() {
        let d = doc();
        assert_eq!(d.bench, "engine_churn");
        assert_eq!(d.unit, "ns_per_commit_median");
        assert_eq!(d.rows.len(), 1);
        let row = &d.rows[0];
        assert_eq!(
            row[0],
            ("workload".into(), Value::Str("engine_churn".into()))
        );
        assert!(row.contains(&("n".into(), Value::Num(300.0))));
        assert!(row.contains(&("matches_full_recompute".into(), Value::Bool(true))));
    }

    #[test]
    fn rejects_nested_rows_and_trailing_garbage() {
        assert!(parse_bench(r#"{"bench": "x", "unit": "u", "rows": [{"a": [1]}]}"#).is_err());
        assert!(parse_bench("{} trailing").is_err());
        assert!(parse_bench(r#"{"bench": "x", "unit": "u"}"#).is_err());
    }

    #[test]
    fn timing_key_classification_matches_the_emitted_schema() {
        for timing in [
            "wall_ms",
            "wall_commit_ms",
            "wall_repair_ms",
            "wall_sim_ms",
            "wall_ns_per_event",
            "seed_alloc_ns_per_node",
            "incremental_commit_ns",
            "full_table_build_ns",
            "local_repair_ns",
            "pooled_speedup",
            "parallel_commit_speedup",
        ] {
            assert!(is_timing_key(timing), "{timing} must be timing");
        }
        for det in [
            "n",
            "m",
            "seed",
            "rounds",
            "workload",
            "routing",
            "strategy",
            "mean_dirty_fraction",
            "stretch_p99",
            "delivered",
            "stale_ticks_p50",
            "dense_bytes_per_node",
            "state_fraction_of_dense",
        ] {
            assert!(!is_timing_key(det), "{det} must be deterministic");
        }
        assert!(is_env_key("threads"));
    }

    #[test]
    fn identical_docs_pass() {
        assert!(gate(&doc(), &doc(), true).is_empty());
        assert!(gate(&doc(), &doc(), false).is_empty());
    }

    #[test]
    fn deterministic_drift_fails_exactly() {
        let cur = doc_with("\"n\": 300", "\"n\": 301");
        let failures = gate(&doc(), &cur, true);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("\"n\""), "{failures:?}");
    }

    #[test]
    fn timing_drift_is_presence_only_in_quick_but_gated_full() {
        // 9240 → 30000 ns is a > 50% regression.
        let cur = doc_with(
            "\"incremental_commit_ns\": 9240",
            "\"incremental_commit_ns\": 30000",
        );
        assert!(
            gate(&doc(), &cur, true).is_empty(),
            "quick ignores timing drift"
        );
        let failures = gate(&doc(), &cur, false);
        assert_eq!(failures.len(), 1);
        assert!(
            failures[0].contains("incremental_commit_ns"),
            "{failures:?}"
        );
        // Within ±50% passes in full mode too.
        let near = doc_with(
            "\"incremental_commit_ns\": 9240",
            "\"incremental_commit_ns\": 11000",
        );
        assert!(gate(&doc(), &near, false).is_empty());
    }

    #[test]
    fn insane_timing_fails_even_in_quick() {
        let cur = doc_with("\"wall_commit_ms\": 1.297", "\"wall_commit_ms\": -1.0");
        assert_eq!(gate(&doc(), &cur, true).len(), 1);
    }

    #[test]
    fn net_file_timing_and_counters_are_presence_only_even_in_full_mode() {
        const NET: &str = r#"{
  "bench": "net_cluster",
  "unit": "wall_convergence_ms",
  "rows": [
    {"workload": "net_cluster", "seed": 3, "wall_ms": 120.0, "threads": 16,
     "routing": "none", "backend": "threaded", "n": 16, "dirty_total": 9,
     "converged": true, "state_matches_asim": true,
     "wall_convergence_ms": 40.5, "net_frames_sent": 812, "net_bytes_sent": 31000}
  ]
}
"#;
        let base = parse_bench(NET).unwrap();
        // Wall times drift 10x and the frame count drifts: still passes,
        // even outside --quick.
        let cur =
            parse_bench(&NET.replacen("40.5", "405.0", 1).replacen("812", "12000", 1)).unwrap();
        let mut failures = Vec::new();
        compare_docs("BENCH_net.json", &base, &cur, false, 0.5, &mut failures);
        assert!(failures.is_empty(), "{failures:?}");
        // But deterministic keys still gate exactly — a converged=false or
        // a state mismatch is a regression.
        let bad = parse_bench(&NET.replacen(
            "\"state_matches_asim\": true",
            "\"state_matches_asim\": false",
            1,
        ))
        .unwrap();
        let mut failures = Vec::new();
        compare_docs("BENCH_net.json", &base, &bad, false, 0.5, &mut failures);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("state_matches_asim"), "{failures:?}");
        // The same timing drift in any other file still trips the full gate.
        let mut failures = Vec::new();
        compare_docs(
            "BENCH_other.json",
            &base,
            &parse_bench(&NET.replacen("40.5", "405.0", 1)).unwrap(),
            false,
            0.5,
            &mut failures,
        );
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("wall_convergence_ms"), "{failures:?}");
    }

    #[test]
    fn environment_keys_only_need_presence() {
        let cur = doc_with("\"threads\": 8", "\"threads\": 4");
        assert!(gate(&doc(), &cur, true).is_empty());
        assert!(gate(&doc(), &cur, false).is_empty());
    }

    #[test]
    fn key_set_changes_fail_both_ways() {
        let missing = doc_with(", \"wall_repair_ms\": 0.000", "");
        let failures = gate(&doc(), &missing, true);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("missing from current"), "{failures:?}");
        let failures = gate(&missing, &doc(), true);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("not in baseline"), "{failures:?}");
    }

    #[test]
    fn row_count_and_header_changes_fail() {
        let mut extra = doc();
        extra.rows.push(extra.rows[0].clone());
        assert_eq!(gate(&doc(), &extra, true).len(), 1);
        let mut renamed = doc();
        renamed.unit = "other".into();
        assert_eq!(gate(&doc(), &renamed, true).len(), 1);
    }

    #[test]
    fn type_changes_fail() {
        let cur = doc_with("\"routing\": \"none\"", "\"routing\": 0");
        let failures = gate(&doc(), &cur, true);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("type changed"), "{failures:?}");
    }
}
