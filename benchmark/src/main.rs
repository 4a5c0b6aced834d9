//! The repository's benchmark. See `benchmark/README.md`.
//!
//! `--workload W --seed N --seconds S --trace 0|1` runs one workload in
//! this process and ends with one JSON result line. Without `--workload`
//! the binary runs all five workloads, each in a child of itself, both
//! untraced and traced; `--check-repeat` does that twice and holds the two
//! sets of medians against the benchmark's own bounds.

use nvmetro_benchmark::json::{self, Value};
use nvmetro_benchmark::measure::{self, Opts, RunOutput};
use nvmetro_benchmark::rigs::Workload;
use nvmetro_benchmark::spec::{self, Spec};
use nvmetro_benchmark::stats::Summary;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    check_repeat: bool,
    out_dir: PathBuf,
}

const USAGE: &str =
    "usage: nvmetro-benchmark [--workload NAME --trace 0|1] [--seed N] [--seconds S] \
[--quick] [--check-repeat] [--out-dir DIR]
workloads: fast_4k kernel_rw_128k notify_xts_4k fleet_hot_256 threads_fast_4k";

fn parse_args() -> Result<Args, String> {
    // Run from the repository root the traces land beside the package;
    // run from the package itself (cargo test) they land in ./out.
    let default_out = if std::path::Path::new("benchmark/Cargo.toml").exists() {
        "benchmark/out"
    } else {
        "out"
    };
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        quick: false,
        check_repeat: false,
        out_dir: PathBuf::from(default_out),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                a.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out-dir" => a.out_dir = PathBuf::from(value()?),
            "--quick" => a.quick = true,
            "--check-repeat" => a.check_repeat = true,
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(a)
}

fn metric_line(w: Workload, s: &Spec, v: &Summary) -> String {
    format!(
        "metric {{\"name\": {}, \"workload\": {}, \"unit\": {}, \"clock\": {}, \"better\": {}, \"n\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}}}",
        json::quote(s.name),
        json::quote(w.name()),
        json::quote(s.unit),
        json::quote(s.clock.name()),
        json::quote(s.better),
        v.n,
        json::num(v.median),
        json::num(v.q1),
        json::num(v.q3),
    )
}

/// Driver mode: one workload in this process. The last line of standard
/// output is the result object.
fn run_one(a: &Args, w: Workload) -> ExitCode {
    let opts = Opts {
        workload: w,
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        quick: a.quick,
        out_dir: a.out_dir.clone(),
    };
    let out: RunOutput = match measure::measure(&opts) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("nvmetro-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# nvmetro-benchmark workload={} seed={} seconds={} trace={} quick={} rounds={} requests_per_round={} threads={} nproc={}",
        w.name(),
        a.seed,
        a.seconds,
        a.trace as u8,
        a.quick,
        out.rounds,
        w.requests(a.quick),
        if w.threaded() { 2 } else { 1 },
        nproc,
    );
    println!(
        "# attempted={} failed={} fail_share={}",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    let list = |f: &dyn Fn(&(f64, f64)) -> String| -> String {
        out.host_rounds.iter().map(f).collect::<Vec<_>>().join(",")
    };
    println!(
        "# raw_host_ns_per_req_by_round={}",
        list(&|r| format!("{:.1}", r.0))
    );
    println!("# slowdown_by_round={}", list(&|r| format!("{:.3}", r.1)));
    if let Some(v) = &out.virt {
        // Percentiles of simulated latency sit on a few exact values that
        // many seeds share, so they are printed here and the declared
        // metrics are the mean and the mean of the slowest 1%.
        println!("# virt_p50_us={} virt_p99_us={}", v.p50_us, v.p99_us);
    }
    if let Some(top) = &out.top_layer {
        println!("# top_layer_by_self_time={top}");
    }
    for (s, v) in &out.metrics {
        println!("{}", metric_line(w, s, v));
    }
    for v in &out.violations {
        println!("# VIOLATION {v}");
        eprintln!("nvmetro-benchmark: {}: {v}", w.name());
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(s, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(s.name),
                json::num(v.median),
                json::quote(s.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// What a child run printed, keyed by metric name.
struct ChildRun {
    ok: bool,
    metrics: BTreeMap<String, Summary>,
}

/// Runs one workload in a child of this binary, so that `peak_rss_mib` is
/// that workload's alone, and echoes its report.
fn run_child(a: &Args, w: Workload, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        w.name(),
        "--trace",
        if trace { "1" } else { "0" },
    ])
    .args(["--seed", &a.seed.to_string()])
    .args(["--seconds", &a.seconds.to_string()])
    .arg("--out-dir")
    .arg(&a.out_dir);
    if a.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("spawning the child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut metrics = BTreeMap::new();
    for line in text.lines() {
        let Some(body) = line.strip_prefix("metric ") else {
            if line.starts_with('#') {
                println!("{line}");
            }
            continue;
        };
        let v = json::parse(body)?;
        let field = |k: &str| {
            v.get(k)
                .and_then(Value::as_f64)
                .ok_or(format!("metric line lacks {k}"))
        };
        let name = v
            .get("name")
            .and_then(Value::as_str)
            .ok_or("metric line lacks name")?;
        let s = Summary {
            n: field("n")? as usize,
            median: field("median")?,
            q1: field("q1")?,
            q3: field("q3")?,
        };
        let sp = spec::find(name).ok_or(format!("child printed undeclared metric {name}"))?;
        println!(
            "  {:<34} {:>16.4} {:<8} [{:<7}] n={:<3} q1={:.4} q3={:.4}",
            name,
            s.median,
            sp.unit,
            sp.clock.name(),
            s.n,
            s.q1,
            s.q3
        );
        metrics.insert(name.to_string(), s);
    }
    let last = text.lines().last().unwrap_or("");
    let correct = json::parse(last)
        .ok()
        .and_then(|v| v.get("correct").and_then(Value::as_bool))
        .unwrap_or(false);
    if !out.status.success() || !correct {
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
    }
    Ok(ChildRun {
        ok: out.status.success() && correct,
        metrics,
    })
}

type SuiteResult = BTreeMap<(&'static str, String), Summary>;

/// All five workloads, untraced then traced, one child each, one at a time.
fn run_suite(a: &Args) -> Result<(bool, SuiteResult), String> {
    let mut ok = true;
    let mut all = SuiteResult::new();
    for w in Workload::ALL {
        for trace in [false, true] {
            let child = run_child(a, w, trace)?;
            ok &= child.ok;
            for (name, s) in child.metrics {
                all.insert((w.name(), name), s);
            }
        }
    }
    Ok((ok, all))
}

/// Two sets of runs of the same code: every end-to-end metric must agree
/// within its own bound, and what is deterministic for a seed exactly.
fn check_repeat(a: &Args) -> Result<bool, String> {
    println!("## set A");
    let (ok_a, set_a) = run_suite(a)?;
    println!("## set B");
    let (ok_b, set_b) = run_suite(a)?;
    let mut ok = ok_a && ok_b;
    println!("## repeat check: metric, workload, A, B, B/A, bound, verdict");
    for ((w, name), sa) in &set_a {
        let sp = spec::find(name).expect("children print declared metrics only");
        let Some(sb) = set_b.get(&(*w, name.clone())) else {
            return Err(format!("set B lacks {name} on {w}"));
        };
        let threaded = Workload::from_name(w).is_some_and(Workload::threaded);
        let e2e = spec::END_TO_END.iter().any(|s| s.name == sp.name);
        let exact = sp.exact && (e2e || !threaded);
        let (x, y) = (sa.median, sb.median);
        let worse = match sp.better {
            "higher" => (x - y) / x.abs().max(f64::MIN_POSITIVE),
            _ => (y - x) / x.abs().max(f64::MIN_POSITIVE),
        };
        let verdict = if exact {
            if x == y {
                "exact"
            } else {
                ok = false;
                "NOT EXACT"
            }
        } else if e2e {
            // Either set may be the worse one.
            if worse.abs() <= sp.bound {
                "within bound"
            } else {
                ok = false;
                "OUT OF BOUND"
            }
        } else {
            "-"
        };
        if e2e || verdict == "NOT EXACT" {
            println!(
                "{:<18} {:<16} {:>14.4} {:>14.4} {:>8.4} {:>6} {}",
                name,
                w,
                x,
                y,
                if x == 0.0 { 1.0 } else { y / x },
                if e2e {
                    format!("{}", sp.bound)
                } else {
                    "-".into()
                },
                verdict
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Some(w) = args.workload {
        return run_one(&args, w);
    }
    let result = if args.check_repeat {
        check_repeat(&args)
    } else {
        run_suite(&args).map(|(ok, _)| ok)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("nvmetro-benchmark: a workload failed its checks");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("nvmetro-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
