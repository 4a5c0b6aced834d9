//! Rounds: one freshly built rig, set up, then driven for a fixed number
//! of requests. End-to-end numbers come from untraced rounds; a traced
//! round adds the per-layer probes and reads the public counters.

use crate::gen::Virt;
use crate::rigs::{Rig, ThreadRig, Workload, FLEET_TENANTS, PART_OFFSET, THREAD_TIME_SCALE};
use crate::speed::Gauge;
use crate::timed::{Probe, Probed, Span, TraceCosts, TraceCtx};
use nvmetro_core::router::{Router, RouterStats};
use nvmetro_sim::{Actor, Ns, Progress};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Public counters of a rig, as deltas over the timed section. Everything
/// here repeats exactly for a seed on the single-thread workloads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub accepted: u64,
    pub classifier_runs: u64,
    pub sent_hq: u64,
    pub sent_kq: u64,
    pub sent_nq: u64,
    pub completed: u64,
    pub errors: u64,
    pub retries: u64,
    pub aborts: u64,
    pub cq_notifies: u64,
    pub cq_batches: u64,
    pub coalesced_reads: u64,
    pub sched_throttled: u64,
    pub sched_preemptions: u64,
    pub memo_hits: u64,
    pub memo_misses: u64,
    pub device_ios: u64,
    pub telemetry_events: u64,
    /// A peak, not a delta.
    pub table_high_water: u64,
}

impl Counts {
    fn add_router(&mut self, r: &mut Router, slots: usize) {
        let s: RouterStats = r.stats();
        self.accepted += s.accepted;
        self.classifier_runs += s.classifier_runs;
        self.sent_hq += s.sent_hq;
        self.sent_kq += s.sent_kq;
        self.sent_nq += s.sent_nq;
        self.completed += s.completed;
        self.errors += s.errors;
        self.retries += s.retries;
        self.aborts += s.aborts;
        self.cq_notifies += s.cq_notifies;
        self.cq_batches += s.cq_batches;
        self.coalesced_reads += s.coalesced_reads;
        self.sched_throttled += s.sched_throttled;
        self.sched_preemptions += s.sched_preemptions;
        self.table_high_water = self.table_high_water.max(r.high_water() as u64);
        for slot in 0..slots {
            if let Some(vm) = r.classifier_mut(slot).bpf_vm_mut() {
                let m = vm.memo_stats();
                self.memo_hits += m.hits;
                self.memo_misses += m.misses;
            }
        }
    }

    fn since(mut self, before: &Counts) -> Counts {
        self.accepted -= before.accepted;
        self.classifier_runs -= before.classifier_runs;
        self.sent_hq -= before.sent_hq;
        self.sent_kq -= before.sent_kq;
        self.sent_nq -= before.sent_nq;
        self.completed -= before.completed;
        self.errors -= before.errors;
        self.retries -= before.retries;
        self.aborts -= before.aborts;
        self.cq_notifies -= before.cq_notifies;
        self.cq_batches -= before.cq_batches;
        self.coalesced_reads -= before.coalesced_reads;
        self.sched_throttled -= before.sched_throttled;
        self.sched_preemptions -= before.sched_preemptions;
        self.memo_hits -= before.memo_hits;
        self.memo_misses -= before.memo_misses;
        self.device_ios -= before.device_ios;
        self.telemetry_events -= before.telemetry_events;
        self
    }
}

/// Queue groups bound to each shard (round-robin in bind order).
fn slots_per_shard(w: Workload, shards: usize) -> usize {
    match w {
        Workload::FleetHot256 => FLEET_TENANTS / shards,
        _ => 1,
    }
}

fn read_counts(rig: &Rig, w: Workload) -> Counts {
    let mut c = Counts::default();
    let slots = slots_per_shard(w, rig.routers.len());
    for r in &rig.routers {
        c.add_router(&mut r.borrow_mut().inner, slots);
    }
    c.device_ios = rig.ssd.borrow().inner.ios_served();
    c.telemetry_events = rig.telemetry.recorded_total();
    c
}

/// Probes of a traced round, one per layer (shards merged).
#[derive(Clone, Debug, Default)]
pub struct Traced {
    layers: BTreeMap<&'static str, Probe>,
    /// What tracing itself cost, per sample and per poll.
    pub costs: TraceCosts,
    pub dropped_events: u64,
    pub spans: Vec<Span>,
}

impl Traced {
    fn add(&mut self, actor: &mut dyn Probed) {
        self.layers
            .entry(actor.layer())
            .or_default()
            .merge(actor.probe());
        self.spans.extend(actor.take_spans());
    }

    /// The probe of `layer`; empty if the workload has no such actor.
    pub fn layer(&self, layer: &str) -> Probe {
        self.layers.get(layer).cloned().unwrap_or_default()
    }

    /// Layers polled by the thread that drives the guest, with their
    /// probes. On real threads the router runs elsewhere, in parallel.
    pub fn serial_layers(&self, threaded: bool) -> Vec<(&'static str, &Probe)> {
        self.layers
            .iter()
            .filter(|(l, _)| !(threaded && **l == "core"))
            .map(|(l, p)| (*l, p))
            .collect()
    }
}

#[derive(Clone, Debug)]
pub struct Round {
    /// Rig build, classifier verify and compile, prefill, warm-up section.
    pub setup_s: f64,
    /// Requests attempted and failed, warm-up section included.
    pub attempted: u64,
    pub failed: u64,
    /// Requests the timed section completed.
    pub completed: u64,
    pub bytes: u64,
    pub wall_ns: u64,
    /// How much slower than nominal the machine ran around this round;
    /// see [`crate::speed`]. Wall-clock results are divided by it.
    pub slowdown: f64,
    pub virt: Option<Virt>,
    /// `None` for an untraced threaded round: the pool gives nothing back.
    pub counts: Option<Counts>,
    /// Requests `counts` and the router's probe cover: the timed section's,
    /// and on real threads the warm-up's too (nobody can reach into the
    /// router's thread between the two sections).
    pub router_reqs: u64,
    pub traced: Option<Traced>,
}

impl Round {
    /// Wall time of the drive loop per request, as the clock read it.
    pub fn raw_host_ns_per_req(&self) -> f64 {
        self.wall_ns as f64 / self.completed.max(1) as f64
    }

    /// The same at the machine's nominal speed.
    pub fn host_ns_per_req(&self) -> f64 {
        self.raw_host_ns_per_req() / self.slowdown
    }

    pub fn setup_s_at_nominal(&self) -> f64 {
        self.setup_s / self.slowdown
    }
}

/// Compares up to 64 blocks spread over the data set with the store.
fn spot_check_disk(rig: &Rig, w: Workload) -> u64 {
    let guest = rig.guest.borrow();
    let Some(plan) = guest.inner.data() else {
        return 0;
    };
    let nlb = (plan.block_bytes() / nvmetro_nvme::LBA_SIZE) as u64;
    let stride = (plan.blocks() / 64).max(1);
    (0..plan.blocks())
        .step_by(stride as usize)
        .filter(|&b| {
            let want = Rig::expected_on_disk(w, plan.expected_block(b), b);
            rig.store.read_vec(PART_OFFSET + b * nlb, nlb as u32) != want
        })
        .count() as u64
}

fn collect_traced(rig: &Rig, ctx: &TraceCtx) -> Traced {
    let mut t = Traced {
        costs: ctx.costs,
        dropped_events: rig.telemetry.snapshot().dropped_events,
        ..Default::default()
    };
    for p in &rig.probes {
        t.add(&mut *p.borrow_mut());
    }
    t.spans.sort_by_key(|s| s.start_ns);
    t
}

/// One round of a single-thread workload under the executor.
pub fn virtual_round(w: Workload, seed: u64, quick: bool, traced: bool) -> Result<Round, String> {
    let ctx = traced.then(|| TraceCtx::new(w.sample_gap()));
    let t_setup = Instant::now();
    let mut rig = Rig::build(w, seed, quick, ctx.clone());
    rig.prefill(w)?;
    let now = rig.ex.now();
    rig.guest.borrow_mut().inner.arm(w.warmup(quick), now);
    rig.ex.run(u64::MAX);
    let warm = rig.guest.borrow_mut().inner.finish();
    let setup_s = t_setup.elapsed().as_secs_f64();

    let before = read_counts(&rig, w);
    rig.probes.iter().for_each(|p| p.borrow_mut().reset());
    let now = rig.ex.now();
    rig.guest.borrow_mut().inner.arm(w.requests(quick), now);
    rig.ex.run(u64::MAX);
    let section = rig.guest.borrow_mut().inner.finish();
    let counts = read_counts(&rig, w).since(&before);
    let disk_mismatch = spot_check_disk(&rig, w);
    let traced = ctx.map(|c| collect_traced(&rig, &c));
    Ok(Round {
        setup_s,
        attempted: warm.attempted + section.attempted,
        failed: warm.fails.total() + section.fails.total() + disk_mismatch,
        completed: section.completed,
        bytes: section.bytes,
        wall_ns: section.wall_ns,
        slowdown: 1.0,
        virt: Some(section.virt),
        counts: Some(counts),
        router_reqs: section.completed,
        traced,
    })
}

/// Drives the guest and the device model from the calling thread against
/// the scaled wall clock until the armed section is done.
fn drive(rig: &mut ThreadRig, start: Instant) {
    let mut idle_streak = 0u32;
    let limit = start.elapsed() + Duration::from_secs(60);
    while !rig.guest.inner.done() {
        let elapsed = start.elapsed();
        if elapsed > limit {
            return; // lost completions: the ledger reports them as missing
        }
        let now = (elapsed.as_nanos() as f64 * THREAD_TIME_SCALE) as Ns;
        let busy = rig.guest.poll(now) == Progress::Busy;
        let busy = (rig.ssd.poll(now) == Progress::Busy) | busy;
        // On one core the router thread only runs if this one lets go.
        idle_streak = if busy { 0 } else { idle_streak + 1 };
        if idle_streak > 256 {
            std::thread::yield_now();
        }
    }
}

/// One round of the threaded workload: the calling thread drives the
/// guest and the device model, the router shard runs on its own thread.
pub fn thread_round(w: Workload, seed: u64, quick: bool, traced: bool) -> Result<Round, String> {
    let ctx = traced.then(|| TraceCtx::new(w.sample_gap()));
    let t_setup = Instant::now();
    let mut rig = ThreadRig::build(w, seed, quick, ctx.clone());
    let start = Instant::now();
    rig.guest.inner.arm(w.warmup(quick), 0);
    drive(&mut rig, start);
    let warm = rig.guest.inner.finish();
    let setup_s = t_setup.elapsed().as_secs_f64();

    rig.guest.reset();
    rig.ssd.reset();
    let now = (start.elapsed().as_nanos() as f64 * THREAD_TIME_SCALE) as Ns;
    rig.guest.inner.arm(w.requests(quick), now);
    drive(&mut rig, start);
    let (mut guest, mut ssd, router) = rig.stop();
    let section = guest.inner.finish();
    let mut counts = None;
    let mut traced_out = None;
    if let (Some(mut router), Some(ctx)) = (router, ctx) {
        let mut c = Counts::default();
        c.add_router(&mut router.inner, 1);
        c.device_ios = ssd.inner.ios_served();
        counts = Some(c);
        let mut t = Traced {
            costs: ctx.costs,
            ..Default::default()
        };
        t.add(&mut guest);
        t.add(&mut ssd);
        t.add(&mut router);
        t.spans.sort_by_key(|s| s.start_ns);
        traced_out = Some(t);
    }
    Ok(Round {
        setup_s,
        attempted: warm.attempted + section.attempted,
        failed: warm.fails.total() + section.fails.total(),
        completed: section.completed,
        bytes: section.bytes,
        wall_ns: section.wall_ns,
        slowdown: 1.0,
        virt: None,
        counts,
        router_reqs: warm.completed + section.completed,
        traced: traced_out,
    })
}

pub fn round(w: Workload, seed: u64, quick: bool, traced: bool) -> Result<Round, String> {
    if w.threaded() {
        // The gauge runs on one thread and says little about two threads
        // handing rings across cores: compensating by it doubled this
        // workload's run-to-run spread, so its numbers stay as read.
        return thread_round(w, seed, quick, traced);
    }
    let gauge = Gauge::start();
    let mut r = virtual_round(w, seed, quick, traced)?;
    r.slowdown = gauge.finish();
    Ok(r)
}
