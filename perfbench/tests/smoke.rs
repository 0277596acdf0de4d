//! Tiny-scale smoke test of the benchmark: every workload end to end,
//! untraced and traced. Each run must pass its own checks, fail no
//! operation, and print every metric `BENCHMARK.json` declares.

use std::path::Path;
use std::process::Command;

/// The `name`s listed under `key` in the repository's `BENCHMARK.json`.
fn declared(key: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside perfbench/");
    let start = text
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("{key} missing"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("list closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

/// Every workload the benchmark runs; `BENCHMARK.json` gates a subset.
const ALL_WORKLOADS: [&str; 4] = ["serve_warm", "batch_cold", "batch_warm", "ingest_mixed"];

/// Wall-clock metrics the untraced table prints without gating them.
const PRINTED: [&str; 4] = ["qps", "query_p50_us", "query_p99_us", "ingest_rows_per_s"];

/// Runs one workload at tiny scale; returns its standard output.
fn run(workload: &str, trace: &str) -> String {
    let cwd = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    std::fs::create_dir_all(&cwd).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", trace, "--rows", "3000"])
        .current_dir(&cwd)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

#[test]
fn every_workload_prints_every_metric_and_passes_its_checks() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    assert!(e2e.contains(&"setup_s".to_string()) && !layers.is_empty());
    let workloads = declared("workloads");
    assert!(workloads
        .iter()
        .all(|w| ALL_WORKLOADS.contains(&w.as_str())));
    for workload in ALL_WORKLOADS {
        for (trace, names) in [("0", &e2e), ("1", &layers)] {
            let stdout = run(workload, trace);
            let result = stdout.lines().last().expect("a result line");
            assert!(
                result.starts_with("{\"correct\":true,") && result.contains("\"failed\":0,"),
                "{workload} trace {trace}: {result}"
            );
            for name in names {
                assert!(
                    result.contains(&format!("\"{name}\":{{\"value\":")),
                    "{workload} trace {trace} lacks {name}: {result}"
                );
            }
            let metrics = result.matches("\"value\":").count();
            assert_eq!(
                metrics,
                names.len(),
                "{workload} trace {trace}: extra metrics"
            );
            if trace == "0" {
                for name in PRINTED {
                    assert!(
                        stdout
                            .lines()
                            .any(|l| l.split_whitespace().next() == Some(name)),
                        "{workload} does not print {name}:\n{stdout}"
                    );
                }
            }
        }
    }
}
