//! One run of one workload: a warm-up round, then rounds until the time
//! budget is spent, then the metrics, the correctness verdict and the
//! guards that make the benchmark fail itself rather than mislead.

use crate::gen::Virt;
use crate::json;
use crate::micro;
use crate::rigs::Workload;
use crate::run::{round, Counts, Round, Traced};
use crate::spec::{self, Spec};
use crate::stats::{summarize, Summary};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// About 1000 requests per round and two rounds: checks the plumbing,
    /// not the numbers, so the timing guards are off.
    pub quick: bool,
    pub out_dir: PathBuf,
}

pub struct RunOutput {
    pub rounds: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Guards and oracle checks that did not hold.
    pub violations: Vec<String>,
    pub metrics: Vec<(&'static Spec, Summary)>,
    /// Every timed round in the order they ran: `host_ns_per_req` as the
    /// clock read it, and the slowdown it was divided by.
    pub host_rounds: Vec<(f64, f64)>,
    /// Virtual-time results of the seed (the executor replay's on threads).
    pub virt: Option<Virt>,
    /// Layer with the largest traced self time.
    pub top_layer: Option<&'static str>,
}

impl RunOutput {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }
}

/// Share of the parent's gen time or budget the guards tolerate.
const MAX_GEN_SHARE: f64 = 0.20;
const MAX_BUDGET_GAP: f64 = 0.15;
const MIN_ROUTE_SHARE: f64 = 0.99;

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// On the single-thread workloads a seed fixes every simulated event, so
/// every round must repeat the first one's virtual results and counters.
fn check_repeats(o: &Opts, rounds: &[&Round], violations: &mut Vec<String>) {
    if o.workload.threaded() {
        return;
    }
    let first = rounds[0];
    for (i, r) in rounds.iter().enumerate().skip(1) {
        if r.completed != first.completed
            || r.virt.map(|v| v.fingerprint) != first.virt.map(|v| v.fingerprint)
        {
            violations.push(format!(
                "round {i}: virtual-time results differ from round 0"
            ));
        }
        if r.counts != first.counts {
            violations.push(format!(
                "round {i}: exact counters differ from round 0: {:?} vs {:?}",
                r.counts, first.counts
            ));
        }
    }
}

fn round_log(rounds: &[Round]) -> Vec<(f64, f64)> {
    rounds
        .iter()
        .map(|r| (r.raw_host_ns_per_req(), r.slowdown))
        .collect()
}

fn tally(rounds: &[&Round]) -> (u64, u64) {
    rounds
        .iter()
        .fold((0, 0), |(a, f), r| (a + r.attempted, f + r.failed))
}

pub fn measure(o: &Opts) -> Result<RunOutput, String> {
    if o.trace {
        per_layer(o)
    } else {
        end_to_end(o)
    }
}

fn end_to_end(o: &Opts) -> Result<RunOutput, String> {
    let warm = round(o.workload, o.seed, o.quick, false)?;
    let begin = Instant::now();
    let mut timed = Vec::new();
    let min = if o.quick { 2 } else { 3 };
    while timed.len() < min || !(o.quick || begin.elapsed().as_secs_f64() >= o.seconds) {
        timed.push(round(o.workload, o.seed, o.quick, false)?);
    }

    let mut all: Vec<&Round> = vec![&warm];
    all.extend(&timed);
    let mut violations = Vec::new();
    check_repeats(o, &all, &mut violations);
    // The threaded deployment's clock is scaled wall time, so its virtual
    // numbers would measure the scheduler. It reports the virtual-time
    // results of the same rig and request stream under the executor.
    let replay = if o.workload.threaded() {
        Some(round(Workload::Fast4k, o.seed, o.quick, false)?)
    } else {
        None
    };
    all.extend(&replay);
    let (attempted, failed) = tally(&all);
    let virt = replay
        .as_ref()
        .unwrap_or(&warm)
        .virt
        .expect("executor rounds have virtual results");

    let host: Vec<f64> = timed.iter().map(Round::host_ns_per_req).collect();
    let setup: Vec<f64> = timed.iter().map(Round::setup_s_at_nominal).collect();
    let same = |v: f64| Summary {
        n: timed.len(),
        median: v,
        q1: v,
        q3: v,
    };
    let values = [
        summarize(&host),
        same(virt.kiops),
        same(virt.mean_us),
        same(virt.tail1_us),
        summarize(&setup),
        same(peak_rss_mib()),
    ];
    Ok(RunOutput {
        rounds: timed.len(),
        attempted,
        failed,
        violations,
        metrics: spec::END_TO_END.iter().zip(values).collect(),
        host_rounds: round_log(&timed),
        virt: Some(virt),
        top_layer: None,
    })
}

/// The per-layer metrics of one traced round. `base` is the untraced
/// `host_ns_per_req` of the same run.
fn layer_values(w: Workload, r: &Round, base: f64) -> (BTreeMap<&'static str, f64>, &'static str) {
    let t: &Traced = r.traced.as_ref().expect("traced round");
    let c: Counts = r.counts.unwrap_or_default();
    // Dividing wall time by requests x slowdown gives time per request at
    // the machine's nominal speed, like the untraced base it is held to.
    let req = r.completed.max(1) as f64 * r.slowdown;
    let router_req = r.router_reqs.max(1) as f64 * r.slowdown;
    let serial = t.serial_layers(w.threaded());
    let (gen, core, device) = (t.layer("gen"), t.layer("core"), t.layer("device"));

    // Time the driving thread spent taking samples, then what its actors'
    // calls cover; the rest of the drive loop is the executor's.
    let tracing_ns: f64 = serial.iter().map(|(_, p)| p.tracing_ns(&t.costs)).sum();
    let actors_ns: f64 = serial
        .iter()
        .map(|(_, p)| p.poll_ns() + p.next_event_ns())
        .sum();
    let available_ns = (r.wall_ns as f64 - tracing_ns).max(0.0);
    let executor_ns = (available_ns - actors_ns).max(0.0);
    // The actors' polls run inside the drive loop, so together they cannot
    // have taken longer than it did. Under contention a sampled poll reads
    // slower than the unsampled ones around it; when that makes the
    // estimates overshoot, they are scaled to fit.
    let fit = if actors_ns > available_ns {
        available_ns / actors_ns
    } else {
        1.0
    };
    // On real threads the router has its thread, and its wall time, to itself.
    let fit_core = if w.threaded() { 1.0 } else { fit };
    let mut selfs: Vec<(&'static str, f64)> = serial
        .iter()
        .map(|(l, p)| (*l, p.self_ns() * fit))
        .collect();
    selfs.push(("kernel", core.child_ns() * fit_core));
    selfs.push(("sim", executor_ns));
    let self_sum: f64 = selfs.iter().map(|(_, ns)| ns).sum();
    let top = selfs
        .iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .map_or("", |(l, _)| *l);

    // On real threads the driving thread spins while the router thread
    // works; only the guest's polls that did something are harness work.
    let gen_ns = fit
        * if w.threaded() {
            gen.busy_poll_ns()
        } else {
            gen.self_ns()
        };
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let polls: u64 = serial.iter().map(|(_, p)| p.polls).sum();
    let v = BTreeMap::from([
        (
            "core.router_poll_ns_per_req",
            (core.poll_ns() - core.child_ns()) * fit_core / router_req,
        ),
        ("core.router_idle_poll_share", core.idle_share()),
        (
            "kernel.path_ns_per_req",
            core.child_ns() * fit_core / router_req,
        ),
        ("device.ssd_poll_ns_per_req", device.poll_ns() * fit / req),
        ("device.ssd_idle_poll_share", device.idle_share()),
        (
            "functions.uif_poll_ns_per_req",
            t.layer("functions").poll_ns() * fit / req,
        ),
        (
            "insight.watchdog_ns_per_req",
            t.layer("insight").poll_ns() * fit / req,
        ),
        (
            "blackbox.recorder_ns_per_req",
            t.layer("blackbox").poll_ns() * fit / req,
        ),
        ("sim.executor_ns_per_req", executor_ns / req),
        (
            "sim.polls_per_req",
            polls as f64 / r.completed.max(1) as f64,
        ),
        ("gen.self_ns_per_req", gen_ns / req),
        ("gen.self_share", gen_ns / self_sum.max(1.0)),
        ("gen.fail_share", ratio(r.failed, r.attempted)),
        ("trace.overhead_frac", (r.host_ns_per_req() - base) / base),
        (
            "trace.budget_gap_frac",
            (self_sum / req - base).abs() / base,
        ),
        ("core.route_fast_share", ratio(c.sent_hq, c.accepted)),
        ("core.route_kernel_share", ratio(c.sent_kq, c.accepted)),
        ("core.route_notify_share", ratio(c.sent_nq, c.accepted)),
        (
            "core.classifier_runs_per_req",
            ratio(c.classifier_runs, c.accepted),
        ),
        ("core.cqes_per_flush", ratio(c.completed, c.cq_batches)),
        (
            "core.cq_notifies_per_req",
            ratio(c.cq_notifies, c.completed),
        ),
        ("core.table_high_water", c.table_high_water as f64),
        ("core.retries_per_req", ratio(c.retries, c.accepted)),
        ("core.aborts", c.aborts as f64),
        (
            "vbpf.memo_hit_share",
            ratio(c.memo_hits, c.memo_hits + c.memo_misses),
        ),
        (
            "fleet.coalesced_share",
            ratio(c.coalesced_reads, c.accepted),
        ),
        ("fleet.device_ios_per_req", ratio(c.device_ios, c.completed)),
        (
            "fleet.throttled_share",
            ratio(c.sched_throttled, c.accepted),
        ),
        (
            "fleet.preemptions_per_kreq",
            ratio(c.sched_preemptions, c.accepted) * 1e3,
        ),
        (
            "telemetry.events_per_req",
            ratio(c.telemetry_events, c.completed),
        ),
        ("telemetry.dropped_events", t.dropped_events as f64),
        (
            "device.bytes_moved_per_req",
            if w.moves_data() {
                ratio(r.bytes, r.completed)
            } else {
                0.0
            },
        ),
    ]);
    (v, top)
}

fn per_layer(o: &Opts) -> Result<RunOutput, String> {
    let w = o.workload;
    let warm = round(w, o.seed, o.quick, false)?;
    let begin = Instant::now();
    // Untraced and traced rounds alternate, and each traced round is held
    // against the untraced one just before it: on a shared machine the
    // speed drifts over seconds, and neighbours drift together. The
    // micro-timings take the last fifth of the budget.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let min_pairs = if o.quick { 1 } else { 2 };
    loop {
        plain.push(round(w, o.seed, o.quick, false)?);
        traced.push(round(w, o.seed, o.quick, true)?);
        let spent = o.quick || begin.elapsed().as_secs_f64() >= 0.8 * o.seconds;
        if traced.len() >= min_pairs && spent {
            break;
        }
    }
    let micro = micro::all(o.quick);

    // Tracing must not change what the rig does: traced and untraced
    // rounds are held to the same virtual results and counters.
    let mut all: Vec<&Round> = vec![&warm];
    all.extend(&plain);
    all.extend(&traced);
    let mut violations = Vec::new();
    check_repeats(o, &all, &mut violations);
    let (attempted, failed) = tally(&all);

    let mut series: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut top = "";
    for (p, r) in plain.iter().zip(&traced) {
        let (values, t) = layer_values(w, r, p.host_ns_per_req());
        top = t;
        for (k, v) in values {
            series.entry(k).or_default().push(v);
        }
    }
    let mut by_name: BTreeMap<&'static str, Summary> =
        series.iter().map(|(k, v)| (*k, summarize(v))).collect();
    by_name.extend(micro);
    let metrics: Vec<(&'static Spec, Summary)> = spec::PER_LAYER
        .iter()
        .map(|s| {
            (
                s,
                *by_name
                    .get(s.name)
                    .expect("every per-layer metric is computed"),
            )
        })
        .collect();

    let route = w.route_metric();
    if by_name[route].median < MIN_ROUTE_SHARE {
        violations.push(format!(
            "{route} = {} < {MIN_ROUTE_SHARE}",
            by_name[route].median
        ));
    }
    // The timing guards trip on the lower quartile: an estimate that is
    // really off is off in every round, a noisy neighbour is not. On real
    // threads the guest's polls include the cross-core ring hand-off the
    // workload exists to measure, and the budget covers one thread only.
    if !o.quick && !w.threaded() {
        for (name, max, what) in [
            ("gen.self_share", MAX_GEN_SHARE, "the harness dominates"),
            (
                "trace.budget_gap_frac",
                MAX_BUDGET_GAP,
                "layer self times do not add up to the untraced run",
            ),
        ] {
            if by_name[name].q1 > max {
                violations.push(format!(
                    "{name}: lower quartile {:.3} > {max}: {what}",
                    by_name[name].q1
                ));
            }
        }
    }
    if let Some(last) = traced.last() {
        let base = plain.last().map_or(0.0, Round::host_ns_per_req);
        write_trace(o, last, base).map_err(|e| format!("writing the trace: {e}"))?;
    }
    Ok(RunOutput {
        rounds: traced.len(),
        attempted,
        failed,
        violations,
        metrics,
        host_rounds: round_log(&traced),
        virt: warm.virt,
        top_layer: Some(top),
    })
}

/// The last traced round's spans, as kept in memory during the round.
fn write_trace(o: &Opts, r: &Round, base: f64) -> std::io::Result<()> {
    use std::io::Write;
    let t = r.traced.as_ref().expect("traced round");
    std::fs::create_dir_all(&o.out_dir)?;
    let path = o.out_dir.join(format!("trace_{}.json", o.workload.name()));
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        f,
        "{{\"workload\": {}, \"seed\": {}, \"requests\": {}, \"wall_ns\": {}, \"slowdown\": {}, \"untraced_host_ns_per_req\": {}, \"sample_gap\": {}, \"timer_pair_ns\": {}, \"spans\": [",
        json::quote(o.workload.name()),
        o.seed,
        r.completed,
        r.wall_ns,
        json::num(r.slowdown),
        json::num(base),
        o.workload.sample_gap(),
        json::num(t.costs.pair_ns),
    )?;
    for (i, s) in t.spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            f,
            "{}{{\"layer\": {}, \"op\": {}, \"seq\": {}, \"start_ns\": {}, \"dur_ns\": {}, \"sweep\": {}, \"parent\": {}}}",
            if i == 0 { "" } else { "," },
            json::quote(s.layer),
            json::quote(s.op),
            s.seq,
            s.start_ns,
            s.dur_ns,
            s.sweep,
            parent
        )?;
    }
    writeln!(f, "]}}")?;
    f.flush()
}
