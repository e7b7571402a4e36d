//! Smoke-size runs of every workload through the benchmark's binary.
//!
//! Each test runs in a directory of its own under Cargo's target tmpdir,
//! so parallel tests never share scratch or trace directories.

use ccured_perfbench::json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_ccured-perfbench");

fn workdir(name: &str) -> PathBuf {
    let d = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{name}"));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn command(dir: &Path, workload: &str, seed: u64, trace: bool) -> Command {
    let mut c = Command::new(BIN);
    c.current_dir(dir).args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        "0.5",
        "--trace",
        if trace { "1" } else { "0" },
        "--smoke",
    ]);
    c
}

/// The result line of a finished run, checked for the contract's shape.
fn result(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "exit {:?}\nstdout:\n{stdout}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let j = Json::parse(last).expect("the last line is JSON");
    let Json::Obj(fields) = &j else {
        panic!("result is not an object: {last}")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        j.get("correct").and_then(Json::as_bool),
        Some(true),
        "{stdout}"
    );
    assert!(j.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    assert!(
        stdout.contains("host.runqueue_wait_ms="),
        "every run prints its run-queue wait: {stdout}"
    );
    j
}

fn metric_names(j: &Json) -> Vec<String> {
    match j.get("metrics") {
        Some(Json::Obj(m)) => m.iter().map(|(k, _)| k.clone()).collect(),
        _ => panic!("no metrics object"),
    }
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let j = Json::parse(&text).expect("BENCHMARK.json parses");
    let Some(Json::Arr(items)) = j.get(section) else {
        panic!("BENCHMARK.json has no {section}")
    };
    items
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Json::as_str).unwrap().to_string(),
                m.get("unit").and_then(Json::as_str).unwrap().to_string(),
            )
        })
        .collect()
}

/// Every metric a run prints is declared in `section` with the same unit.
fn assert_declared(j: &Json, section: &str) {
    let decl = declared(section);
    let Some(Json::Obj(metrics)) = j.get("metrics") else {
        panic!("no metrics")
    };
    for (name, m) in metrics {
        let unit = m.get("unit").and_then(Json::as_str).unwrap();
        assert!(
            decl.iter().any(|(n, u)| n == name && u == unit),
            "{name} ({unit}) is not declared in BENCHMARK.json {section}"
        );
        assert!(
            m.get("value").and_then(Json::as_f64).is_some(),
            "{name} has no value"
        );
    }
}

/// The names of the metrics a run printed, sorted.
fn sorted_names(j: &Json) -> Vec<String> {
    let mut names = metric_names(j);
    names.sort();
    names
}

/// The names declared in one section of `BENCHMARK.json`, sorted.
fn declared_names(section: &str) -> Vec<String> {
    let mut names: Vec<String> = declared(section).into_iter().map(|(n, _)| n).collect();
    names.sort();
    names
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    let dir = workdir("e2e");
    for workload in ccured_perfbench::WORKLOADS {
        let out = command(&dir, workload, 7, false).output().unwrap();
        let j = result(&out);
        assert_declared(&j, "end_to_end");
        assert_eq!(sorted_names(&j), declared_names("end_to_end"), "{workload}");
    }
    assert!(
        !dir.join(".perfbench-tmp").exists(),
        "scratch directories were left behind"
    );
}

#[test]
fn traced_runs_report_every_per_layer_metric_and_write_spans() {
    let dir = workdir("traced");
    for workload in ccured_perfbench::WORKLOADS {
        let out = command(&dir, workload, 3, true).output().unwrap();
        let j = result(&out);
        assert_declared(&j, "per_layer");
        assert_eq!(sorted_names(&j), declared_names("per_layer"), "{workload}");
    }
    let traces: Vec<PathBuf> = std::fs::read_dir(dir.join(".perfbench-traces"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(traces.len(), ccured_perfbench::WORKLOADS.len());
    for t in traces {
        let text = std::fs::read_to_string(&t).unwrap();
        let spans: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert!(!spans.is_empty(), "{}", t.display());
        for s in &spans {
            for key in ["id", "parent", "name", "start_ns", "end_ns"] {
                assert!(s.get(key).is_some(), "{}: span without {key}", t.display());
            }
        }
        // Every span of one serve request carries the same request id.
        let with_req = spans.iter().filter(|s| s.get("req").is_some()).count();
        assert!(with_req > 0, "serve spans carry request ids");
    }
}

#[test]
fn two_instances_run_at_once_without_clashing() {
    let dir = workdir("parallel");
    let spawn = |seed| {
        command(&dir, "plain", seed, false)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap()
    };
    let (mut a, mut b) = (spawn(1), spawn(2));
    // Watch the scratch root until both runs have ended: at some instant
    // it must hold two run directories side by side.
    let root = dir.join(".perfbench-tmp");
    let mut most = 0;
    while a.try_wait().unwrap().is_none() || b.try_wait().unwrap().is_none() {
        let live = std::fs::read_dir(&root).map_or(0, |d| d.count());
        most = most.max(live);
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let (a, b) = (a.wait_with_output().unwrap(), b.wait_with_output().unwrap());
    result(&a);
    result(&b);
    assert_eq!(
        most, 2,
        "the two runs never held scratch directories at once"
    );
    assert!(!root.exists(), "scratch directories were left behind");
}

#[test]
fn serve_counts_each_unanswered_non_utf8_request_as_failed() {
    use ccured_perfbench::{corpus, SERVE_ROUNDS};
    let dir = workdir("failed-share");
    let j = result(&command(&dir, "plain", 4, false).output().unwrap());
    let attempted = j.get("attempted").and_then(Json::as_f64).unwrap();
    let failed = j.get("failed").and_then(Json::as_f64).unwrap();
    // A round is a pass of the cure corpus, a pass of the run corpus and
    // `SERVE_ROUNDS` serve rounds of one request per unit plus one
    // non-UTF-8 request, and runs stop at a round boundary.
    let round = (corpus::cure_corpus(4, true).len()
        + corpus::run_corpus(4, true).len()
        + SERVE_ROUNDS * (corpus::serve_corpus(true).len() + 1)) as f64;
    assert_eq!(
        attempted % round,
        0.0,
        "{attempted} is whole rounds of {round}"
    );
    let bad_sent = attempted / round * SERVE_ROUNDS as f64;
    // Each non-UTF-8 request either got no reply and failed, or got exactly
    // one reply and did not; the daemon treats all of them alike.
    assert!(
        failed == 0.0 || failed == bad_sent,
        "{failed} failed of {bad_sent} non-UTF-8 requests"
    );
}

#[test]
fn usage_errors_exit_2_without_a_result() {
    let dir = workdir("usage");
    for args in [
        vec![
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "plain",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "plain",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
    ] {
        let out = Command::new(BIN)
            .current_dir(&dir)
            .args(&args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
