//! The benchmark command end to end: the result line it prints, the
//! metric names it promises in `BENCHMARK.json`, and that a wrong byte
//! fails it.

use std::path::PathBuf;
use std::process::{Command, Output};

fn perfbench(args: &str, dir: &str) -> Output {
    let cwd = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(dir);
    std::fs::create_dir_all(&cwd).expect("test directory");
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args.split_whitespace())
        .current_dir(cwd)
        .output()
        .expect("run perfbench")
}

fn last_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .unwrap_or_default()
        .to_string()
}

/// `"name": "..."` values of one top-level array of BENCHMARK.json.
fn names_in(json: &str, array: &str) -> Vec<String> {
    let start = json.find(&format!("\"{array}\"")).expect("array present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

#[test]
fn metric_names_match_benchmark_json() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .arg("--list-metrics")
        .output()
        .expect("run perfbench");
    let listed = String::from_utf8_lossy(&out.stdout).to_string();
    for array in ["end_to_end", "per_layer"] {
        let printed: Vec<String> = listed
            .lines()
            .filter_map(|l| l.strip_prefix(&format!("{array} ")))
            .map(|l| l.split(' ').next().unwrap().to_string())
            .collect();
        assert_eq!(names_in(&json, array), printed, "{array}");
    }
}

#[test]
fn a_clean_run_prints_one_result_line_with_every_metric() {
    let out = perfbench(
        "--workload read-hot --seed 3 --seconds 1 --trace 1",
        "clean",
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = last_line(&out);
    assert!(
        line.starts_with("{\"correct\":true,\"attempted\":"),
        "{line}"
    );
    assert!(line.contains("\"failed\":0,"), "{line}");
    let list = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .arg("--list-metrics")
        .output()
        .expect("run perfbench");
    for l in String::from_utf8_lossy(&list.stdout).lines() {
        if let Some(rest) = l.strip_prefix("per_layer ") {
            let name = rest.split(' ').next().unwrap();
            assert!(
                line.contains(&format!("\"{name}\":{{\"value\":")),
                "{name} missing"
            );
        }
    }
}

#[test]
fn ingest_runs_clean_and_reads_back_what_it_wrote() {
    let out = perfbench("--workload ingest --seed 4 --seconds 1 --trace 0", "ingest");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = last_line(&out);
    assert!(
        line.contains("\"correct\":true") && line.contains("\"put_p50_ms\""),
        "{line}"
    );
}

#[test]
fn a_corrupted_served_byte_fails_the_run() {
    let out = perfbench(
        "--workload read-hot --seed 5 --seconds 1 --trace 0 --corrupt-get 7",
        "corrupt",
    );
    assert_eq!(out.status.code(), Some(1));
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
    assert!(String::from_utf8_lossy(&out.stderr).contains("wrong bytes"));
}

#[test]
fn bad_arguments_are_refused() {
    let out = perfbench("--workload sideways --seed 1 --seconds 1 --trace 0", "args");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
