//! Smoke test: every workload at `--scale smoke`, untraced and traced.
//! Checks that each run emits exactly the metrics `BENCHMARK.json`
//! declares, with their units, that answer checks ran and passed, that
//! the result line round-trips through the JSON codec, and that a wrong
//! answer makes the run fail.

use mob_workload_bench::diff::Spec;
use mob_workload_bench::json::Json;
use mob_workload_bench::workloads::NAMES;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn spec() -> Spec {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Spec::load(&path).expect("BENCHMARK.json parses")
}

/// A scratch directory per test, under the target directory.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn bench(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mob-bench"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("mob-bench runs")
}

fn run(dir: &Path, workload: &str, trace: bool, extra: &[&str]) -> Output {
    let mut args = vec![
        "run",
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "0.2",
        "--scale",
        "smoke",
        "--trace",
        if trace { "1" } else { "0" },
        "--out",
        "out.jsonl",
    ];
    args.extend_from_slice(extra);
    bench(dir, &args)
}

fn last_line(out: &Output) -> String {
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout.lines().last().unwrap_or_default().to_string()
}

#[test]
fn every_workload_emits_every_declared_metric() {
    let spec = spec();
    let dir = scratch("smoke-all");
    for trace in [false, true] {
        let declared = if trace {
            &spec.per_layer
        } else {
            &spec.end_to_end
        };
        for w in NAMES {
            let out = run(&dir, w, trace, &[]);
            assert!(
                out.status.success(),
                "{w} trace={trace}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let line = last_line(&out);
            let doc = Json::parse(&line).expect("result line is JSON");
            assert_eq!(doc.to_string(), line, "result line round-trips");
            let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(doc.get("correct"), Some(&Json::Bool(true)), "{w}");
            assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(0.0), "{w}");
            assert!(doc.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            let metrics = doc.get("metrics").and_then(Json::as_obj).unwrap();
            assert_eq!(metrics.len(), declared.len(), "{w} trace={trace}");
            for m in declared {
                let got = metrics
                    .get(&m.name)
                    .unwrap_or_else(|| panic!("{w} trace={trace}: {} missing", m.name));
                assert_eq!(
                    got.get("unit").and_then(Json::as_str),
                    Some(m.unit.as_str())
                );
                let v = got.get("value").and_then(Json::as_f64).unwrap();
                assert!(v.is_finite(), "{w}: {} = {v}", m.name);
                // End-to-end metrics and per-layer times are never 0.
                if !trace || m.unit == "ns" {
                    assert!(v > 0.0, "{w} trace={trace}: {} = {v}", m.name);
                }
            }
        }
    }
    // Every run appended a full record, and every run checked answers.
    let records = std::fs::read_to_string(dir.join("out.jsonl")).unwrap();
    let records: Vec<Json> = records.lines().map(|l| Json::parse(l).unwrap()).collect();
    assert_eq!(records.len(), 2 * NAMES.len());
    for r in &records {
        assert!(r.get("checks").and_then(Json::as_f64).unwrap() > 0.0, "{r}");
        assert_eq!(
            r.get("host_cores").and_then(Json::as_f64).map(|c| c >= 1.0),
            Some(true)
        );
        // The time metrics as measured, before scaling to the reference
        // host speed, and the probe times that scaled them.
        assert!(r.get("pace_median_ns").and_then(Json::as_f64).unwrap() > 0.0);
        let wall = r.get("wall").expect("wall-clock values");
        for m in [
            "setup_s",
            "op_p50_ms",
            "op_tail_ms",
            "ops_per_s",
            "query_p50_ms",
        ] {
            assert!(wall.get(m).and_then(Json::as_f64).unwrap() > 0.0, "{m}");
        }
    }
    // The records feed `diff`: a set compared with itself never regresses.
    let path = dir.join("out.jsonl");
    let spec_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let path = path.to_str().unwrap();
    let out = bench(
        &dir,
        &["diff", path, path, "--spec", spec_path.to_str().unwrap()],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn traced_layers_account_for_the_operation() {
    let dir = scratch("smoke-accounting");
    let out = run(&dir, "live-ingest", true, &[]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(dir.join("out.jsonl")).unwrap();
    let record = Json::parse(text.lines().next().unwrap()).unwrap();
    let layers = record.get("loop_layers").expect("loop layer totals");
    let total = |name: &str| {
        layers
            .get(name)
            .and_then(|l| l.get("total"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    // Tick: append + seal + commit + maintenance. Fresh read: relation
    // open, then per probe plan + the rest of the scan.
    let parts: f64 = [
        "ingest.append",
        "ingest.seal",
        "durable.commit",
        "maint.tick",
        "rel.open",
        "plan",
        "scan.self",
    ]
    .iter()
    .map(|l| total(l))
    .sum();
    let ops = record.get("traced_op_ns").and_then(Json::as_f64).unwrap();
    let share = parts / ops;
    assert!(
        (0.9..=1.0).contains(&share),
        "layers cover {share} of the operation time"
    );
}

#[test]
fn a_wrong_answer_fails_the_run() {
    let dir = scratch("smoke-wrong");
    let out = run(&dir, "track-probe", false, &["--inject-wrong-answer"]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = Json::parse(&last_line(&out)).unwrap();
    assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
    assert!(doc.get("failed").and_then(Json::as_f64).unwrap() >= 1.0);
}

#[test]
fn bad_arguments_print_no_result() {
    let dir = scratch("smoke-args");
    for args in [
        &["run", "--workload", "no-such", "--seed", "1"][..],
        &["run", "--workload", "fleet-mix"],
        &["frobnicate"],
    ] {
        let out = bench(&dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
