//! Runs the benchmark in `--quick` mode and holds what it prints against
//! `BENCHMARK.json`: every declared name is printed exactly once per
//! workload with its unit, nothing undeclared is printed, and the metric
//! table compiled into the binary says what the declaration says.

use nvmetro_benchmark::json::{self, Value};
use nvmetro_benchmark::spec;
use std::collections::BTreeSet;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_nvmetro-benchmark");

fn declaration() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{key} missing in {v:?}"))
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn list<'a>(decl: &'a Value, key: &str) -> &'a [Value] {
    decl.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("{key} missing"))
}

#[test]
fn declaration_matches_the_compiled_metric_table() {
    let decl = declaration();
    let keys: Vec<&str> = decl.as_obj().unwrap().keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    for (key, table, with_bound) in [
        ("end_to_end", &spec::END_TO_END[..], true),
        ("per_layer", &spec::PER_LAYER[..], false),
    ] {
        let declared = list(&decl, key);
        assert_eq!(declared.len(), table.len(), "{key}");
        for (d, s) in declared.iter().zip(table) {
            assert_eq!(str_of(d, "name"), s.name);
            assert_eq!(str_of(d, "unit"), s.unit, "{}", s.name);
            assert_eq!(str_of(d, "better"), s.better, "{}", s.name);
            assert!(valid_name(s.name), "{}", s.name);
            let fields = d.as_obj().unwrap().len();
            if with_bound {
                let bound = d.get("bound").and_then(Value::as_f64).unwrap();
                assert_eq!(bound, s.bound, "{}", s.name);
                assert!(bound > 0.0 && bound <= 0.25, "{}", s.name);
                assert_eq!(fields, 4, "{}", s.name);
            } else {
                assert_eq!(fields, 3, "{}", s.name);
            }
        }
    }
    assert!(spec::END_TO_END
        .iter()
        .any(|s| s.name == "setup_s" && s.unit == "s"));
    let names: BTreeSet<&str> = spec::END_TO_END
        .iter()
        .chain(&spec::PER_LAYER)
        .map(|s| s.name)
        .chain(list(&decl, "workloads").iter().map(|w| str_of(w, "name")))
        .collect();
    assert_eq!(
        names.len(),
        spec::END_TO_END.len() + spec::PER_LAYER.len() + list(&decl, "workloads").len(),
        "a name is used twice"
    );
}

/// One child run; returns its `metric` lines and its result line.
fn run(workload: &str, trace: &str) -> (Vec<Value>, Value) {
    let out = Command::new(BIN)
        .args([
            "--workload",
            workload,
            "--trace",
            trace,
            "--seed",
            "7",
            "--quick",
        ])
        .args(["--out-dir", env!("CARGO_TARGET_TMPDIR")])
        .output()
        .expect("benchmark binary runs");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{text}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let metrics = text
        .lines()
        .filter_map(|l| l.strip_prefix("metric "))
        .map(|l| json::parse(l).expect("metric line is JSON"))
        .collect();
    let last = json::parse(text.lines().last().unwrap()).expect("result line is JSON");
    (metrics, last)
}

#[test]
fn quick_run_prints_exactly_what_is_declared() {
    let decl = declaration();
    let workloads: Vec<&str> = list(&decl, "workloads")
        .iter()
        .map(|w| str_of(w, "name"))
        .collect();
    assert_eq!(
        workloads,
        [
            "fast_4k",
            "kernel_rw_128k",
            "notify_xts_4k",
            "fleet_hot_256",
            "threads_fast_4k"
        ]
    );
    for w in &workloads {
        assert!(valid_name(w));
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (metrics, last) = run(w, trace);
            let declared = list(&decl, key);
            let printed: Vec<&str> = metrics.iter().map(|m| str_of(m, "name")).collect();
            let want: Vec<&str> = declared.iter().map(|d| str_of(d, "name")).collect();
            assert_eq!(
                printed, want,
                "{w} trace {trace}: names, once each, in order"
            );
            for (m, d) in metrics.iter().zip(declared) {
                let name = str_of(m, "name");
                assert_eq!(str_of(m, "workload"), *w);
                assert_eq!(str_of(m, "unit"), str_of(d, "unit"), "{name}");
                assert!(
                    ["wall", "virtual", "count"].contains(&str_of(m, "clock")),
                    "{name}"
                );
                for field in ["n", "median", "q1", "q3"] {
                    let v = m.get(field).and_then(Value::as_f64);
                    assert!(v.is_some_and(f64::is_finite), "{name}.{field}");
                }
            }

            let keys: Vec<&str> = last.as_obj().unwrap().keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(last.get("correct").and_then(Value::as_bool), Some(true));
            assert_eq!(last.get("failed").and_then(Value::as_f64), Some(0.0));
            assert!(last.get("attempted").and_then(Value::as_f64).unwrap() >= 1000.0);
            let result = last.get("metrics").and_then(Value::as_obj).unwrap();
            assert_eq!(result.len(), declared.len(), "{w} trace {trace}");
            for d in declared {
                let m = &result[str_of(d, "name")];
                assert_eq!(m.as_obj().unwrap().len(), 2);
                assert_eq!(str_of(m, "unit"), str_of(d, "unit"));
                assert!(m.get("value").and_then(Value::as_f64).is_some());
            }
        }
    }
}

#[test]
fn suite_runs_every_workload_and_rejects_bad_arguments() {
    let out = Command::new(BIN)
        .args([
            "--quick",
            "--seed",
            "3",
            "--out-dir",
            env!("CARGO_TARGET_TMPDIR"),
        ])
        .output()
        .unwrap();
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{text}");
    for w in [
        "fast_4k",
        "kernel_rw_128k",
        "notify_xts_4k",
        "fleet_hot_256",
        "threads_fast_4k",
    ] {
        assert_eq!(
            text.matches(&format!("workload={w} ")).count(),
            2,
            "{w}: one untraced and one traced run"
        );
    }
    for bad in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["--frobnicate"],
    ] {
        let out = Command::new(BIN).args(bad).output().unwrap();
        assert!(!out.status.success(), "{bad:?}");
        assert!(out.stdout.is_empty(), "{bad:?} must not print a result");
    }
}
