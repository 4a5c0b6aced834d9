//! Adaptive datapath smoke: the two acceptance bars for the hybrid
//! busy-poll⇄park engine, written to `BENCH_adaptive.json` for CI.
//!
//! * **Idle burn** — under a sparse trickle (one read every 1 ms) a
//!   governor-run shard parks between requests and burns a small
//!   fraction of the CPU an always-spinning shard does (and under 5%
//!   of the wall clock outright).
//! * **Loaded tail** — at a sustained QD-32×4 closed loop the governor
//!   never leaves spin mode, so its read p99 stays within 5% of the
//!   always-spin engine: adaptivity costs nothing when there is work.
//!
//! ```sh
//! cargo run --release -p nvmetro-bench --bin adaptive_smoke
//! ```

use nvmetro_core::classify::Classifier;
use nvmetro_core::engine::{EngineVm, QueueBinding, RouterBuilder};
use nvmetro_core::policy::{EnginePolicy, PollPolicy};
use nvmetro_core::{passthrough_program, Partition};
use nvmetro_device::{CompletionMode, SimSsd, SsdConfig};
use nvmetro_mem::GuestMemory;
use nvmetro_nvme::{CqConsumer, CqPair, SqPair, SqProducer, SubmissionEntry};
use nvmetro_sim::cost::CostModel;
use nvmetro_sim::{Actor, Executor, Ns, Progress, MS, US};
use nvmetro_stats::Histogram;
use nvmetro_telemetry::{Metric, Percentiles, Telemetry};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const QUEUE_PAIRS: usize = 4;
const QD: usize = 32;
const CAPACITY_LBAS: u64 = 1 << 20;
const TRICKLE_PERIOD: Ns = 1_000 * US;

/// A device fast enough that the router, not the flash, saturates first.
fn fast_device_cost() -> CostModel {
    CostModel {
        ssd_channels: 64,
        ssd_read_lat: 5_000,
        ssd_cmd_overhead: 150,
        ssd_cmd_overhead_write: 300,
        ssd_jitter: 0.0,
        ..Default::default()
    }
}

/// Shared counters one generator exposes to the harness.
#[derive(Default)]
struct LoadStats {
    completed: AtomicU64,
    latency: Mutex<Histogram>,
}

/// Closed-loop read generator over one queue pair until `deadline`.
struct Load {
    name: String,
    sq: SqProducer,
    cq: CqConsumer,
    qd: usize,
    outstanding: usize,
    deadline: Ns,
    next_cid: u16,
    lba: u64,
    submit_ts: HashMap<u16, Ns>,
    stats: Arc<LoadStats>,
}

impl Load {
    fn new(name: String, sq: SqProducer, cq: CqConsumer, qd: usize, deadline: Ns) -> Self {
        Load {
            name,
            sq,
            cq,
            qd,
            outstanding: 0,
            deadline,
            next_cid: 0,
            lba: 0,
            submit_ts: HashMap::new(),
            stats: Arc::new(LoadStats::default()),
        }
    }
}

impl Actor for Load {
    fn name(&self) -> &str {
        &self.name
    }

    fn poll(&mut self, now: Ns) -> Progress {
        let mut progressed = false;
        while let Some(cqe) = self.cq.pop() {
            self.outstanding -= 1;
            self.stats.completed.fetch_add(1, Ordering::Relaxed);
            if let Some(t) = self.submit_ts.remove(&cqe.cid) {
                self.stats.latency.lock().unwrap().record(now - t);
            }
            progressed = true;
        }
        if now < self.deadline {
            while self.outstanding < self.qd {
                let mut cmd = SubmissionEntry::read(1, self.lba, 1, 0x1000, 0);
                cmd.cid = self.next_cid;
                if self.sq.push(cmd).is_err() {
                    break;
                }
                self.submit_ts.insert(self.next_cid, now);
                self.next_cid = self.next_cid.wrapping_add(1);
                self.lba = (self.lba + 8) % (CAPACITY_LBAS - 8);
                self.outstanding += 1;
                progressed = true;
            }
        }
        if progressed {
            Progress::Busy
        } else {
            Progress::Idle
        }
    }

    fn next_event(&self) -> Option<Ns> {
        None
    }
}

/// Sparse generator: one read every [`TRICKLE_PERIOD`] until `deadline`
/// — long quiet gaps where an adaptive shard should park and an
/// always-spinning one keeps burning its core.
struct Trickle {
    sq: SqProducer,
    cq: CqConsumer,
    deadline: Ns,
    next_submit: Ns,
    next_cid: u16,
    completed: u64,
}

impl Actor for Trickle {
    fn name(&self) -> &str {
        "trickle"
    }

    fn poll(&mut self, now: Ns) -> Progress {
        let mut progressed = false;
        while self.cq.pop().is_some() {
            self.completed += 1;
            progressed = true;
        }
        if now >= self.next_submit && self.next_submit < self.deadline {
            let mut cmd = SubmissionEntry::read(1, (self.next_cid as u64) * 8, 1, 0x1000, 0);
            cmd.cid = self.next_cid;
            if self.sq.push(cmd).is_ok() {
                self.next_cid = self.next_cid.wrapping_add(1);
                self.next_submit += TRICKLE_PERIOD;
                progressed = true;
            }
        }
        if progressed {
            Progress::Busy
        } else {
            Progress::Idle
        }
    }

    fn next_event(&self) -> Option<Ns> {
        (self.next_submit < self.deadline).then_some(self.next_submit)
    }
}

struct Rig {
    ex: Executor,
    telemetry: Telemetry,
}

/// One-shard engine over `queue_pairs` fast-path groups under `policy`,
/// wired into an executor with the given per-queue generator.
fn build_rig(
    policy: EnginePolicy,
    cost: CostModel,
    queue_pairs: usize,
    mut make_load: impl FnMut(usize, SqProducer, CqConsumer) -> Box<dyn Actor>,
) -> Rig {
    let telemetry = Telemetry::enabled();
    let mut ssd = SimSsd::new(
        "ssd",
        SsdConfig {
            capacity_lbas: CAPACITY_LBAS,
            cost: cost.clone(),
            move_data: false,
            seed: 7,
            ..Default::default()
        },
    );
    let mem = Arc::new(GuestMemory::new(1 << 20));
    let mut ex = Executor::new();
    let mut queues = Vec::new();
    for qp in 0..queue_pairs {
        let (vsq_p, vsq_c) = SqPair::new(256);
        let (vcq_p, vcq_c) = CqPair::new(256);
        let (hsq_p, hsq_c) = SqPair::new(256);
        let (hcq_p, hcq_c) = CqPair::new(256);
        ssd.add_queue(hsq_c, hcq_p, mem.clone(), CompletionMode::Polled);
        queues.push(QueueBinding {
            vsqs: vec![vsq_c],
            vcqs: vec![vcq_p],
            hsq: hsq_p,
            hcq: hcq_c,
            kernel: None,
            notify: None,
            classifier: Classifier::Bpf(passthrough_program()),
        });
        ex.add(make_load(qp, vsq_p, vcq_c));
    }
    let engine = RouterBuilder::new("router")
        .cost(cost)
        .policy(policy)
        .table_capacity(4096)
        .telemetry(&telemetry)
        .vm(EngineVm {
            vm_id: 0,
            mem,
            partition: Partition::whole(CAPACITY_LBAS),
            queues,
        })
        .build();
    engine.run_virtual(&mut ex);
    ex.add(Box::new(ssd));
    Rig { ex, telemetry }
}

struct IdleResult {
    router_cpu: Ns,
    duration: Ns,
    parks: u64,
    wakes: u64,
}

/// Router CPU over a sparse-trickle window. The spin baseline models a
/// worker that never parks (idle timeout stretched past every gap); the
/// adaptive run lets the governor walk spin → yield → parked.
fn run_idle(adaptive: bool, window: Ns) -> IdleResult {
    let mut cost = fast_device_cost();
    let policy = if adaptive {
        EnginePolicy::new().poll(PollPolicy::adaptive())
    } else {
        // Always-spin baseline: the legacy idle-timeout model parks after
        // `adaptive_idle_timeout`; stretching it past the window makes the
        // shard burn its core through every gap, i.e. a busy-poll worker.
        cost.adaptive_idle_timeout = window;
        EnginePolicy::new()
    };
    let mut rig = build_rig(policy, cost, 1, |_, sq, cq| {
        Box::new(Trickle {
            sq,
            cq,
            deadline: window,
            next_submit: TRICKLE_PERIOD,
            next_cid: 0,
            completed: 0,
        })
    });
    let report = rig.ex.run(u64::MAX);
    let snap = rig.telemetry.snapshot();
    IdleResult {
        router_cpu: report.cpu_of("router"),
        duration: report.duration.max(1),
        parks: snap.get(Metric::ShardParks),
        wakes: snap.get(Metric::ShardWakes),
    }
}

struct LoadedResult {
    p99_ns: u64,
    completed: u64,
}

/// Completed reads and read p99 for a closed-loop run under `policy`.
fn run_loaded(policy: EnginePolicy, window: Ns) -> LoadedResult {
    let mut stats = Vec::new();
    let mut rig = build_rig(policy, fast_device_cost(), QUEUE_PAIRS, |qp, sq, cq| {
        let load = Load::new(format!("load-{qp}"), sq, cq, QD, window);
        stats.push(load.stats.clone());
        Box::new(load)
    });
    rig.ex.run(u64::MAX);
    let mut completed = 0u64;
    let mut hist = Histogram::new();
    for s in &stats {
        completed += s.completed.load(Ordering::Relaxed);
        hist.merge(&s.latency.lock().unwrap());
    }
    LoadedResult {
        p99_ns: Percentiles::of(&hist).p99,
        completed,
    }
}

fn main() {
    let window = std::env::var("NVMETRO_BENCH_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(40)
        * MS;

    // Bar 1: idle burn.
    let spin_idle = run_idle(false, window);
    let adaptive_idle = run_idle(true, window);
    let idle_duty = adaptive_idle.router_cpu as f64 / adaptive_idle.duration as f64;
    println!(
        "idle: spin_cpu={}ns adaptive_cpu={}ns duty={:.4} parks={} wakes={}",
        spin_idle.router_cpu,
        adaptive_idle.router_cpu,
        idle_duty,
        adaptive_idle.parks,
        adaptive_idle.wakes
    );
    assert!(
        adaptive_idle.parks >= 1,
        "the trickle never parked the shard"
    );
    assert!(
        adaptive_idle.wakes >= 1,
        "a parked shard never woke for a doorbell"
    );
    assert!(
        adaptive_idle.router_cpu * 10 <= spin_idle.router_cpu,
        "parked idle burn {}ns not well under spin burn {}ns",
        adaptive_idle.router_cpu,
        spin_idle.router_cpu
    );
    assert!(
        idle_duty < 0.05,
        "idle duty cycle {idle_duty:.4} above the 5% bar"
    );

    // Bar 2: loaded tail.
    let spin_loaded = run_loaded(EnginePolicy::new(), window);
    let adaptive_loaded = run_loaded(EnginePolicy::new().poll(PollPolicy::adaptive()), window);
    let p99_ratio = adaptive_loaded.p99_ns as f64 / spin_loaded.p99_ns.max(1) as f64;
    println!(
        "loaded: spin p99={}ns adaptive p99={}ns ratio={:.3} ({} / {} reads)",
        spin_loaded.p99_ns,
        adaptive_loaded.p99_ns,
        p99_ratio,
        spin_loaded.completed,
        adaptive_loaded.completed
    );
    assert!(
        p99_ratio <= 1.05,
        "adaptive loaded p99 {p99_ratio:.3}x exceeds the 1.05x bar"
    );

    let json = format!(
        "{{\n  \"duration_ms\": {},\n  \"idle_spin_cpu_ns\": {},\n  \"idle_adaptive_cpu_ns\": {},\n  \"idle_duty\": {:.6},\n  \"idle_parks\": {},\n  \"idle_wakes\": {},\n  \"loaded_spin_p99_ns\": {},\n  \"loaded_adaptive_p99_ns\": {},\n  \"loaded_p99_ratio\": {:.4}\n}}\n",
        window / MS,
        spin_idle.router_cpu,
        adaptive_idle.router_cpu,
        idle_duty,
        adaptive_idle.parks,
        adaptive_idle.wakes,
        spin_loaded.p99_ns,
        adaptive_loaded.p99_ns,
        p99_ratio
    );
    std::fs::write("BENCH_adaptive.json", &json).expect("write BENCH_adaptive.json");
    println!("{json}");
    println!("adaptive smoke OK");
}
