//! The fleet rig: a thousands-of-VMs virtual-time consolidation run.
//!
//! One [`run_fleet`] call builds a complete rig — a sharded router with
//! the fleet scheduler and cross-VM read-coalescing window from
//! `nvmetro-fleet`, one single-queue-group VM per tenant (so 1024 tenants
//! means 1024 VM queue groups bound through the engine), one shared
//! simulated SSD, the insight stall watchdog, and optionally the
//! insight→governor feedback loop — then drives it with heavy-tailed
//! per-tenant load shaped by [`crate::arrivals`]:
//!
//! * tenant *rates* follow a Zipf(θ) split (a few whales, a long tail),
//! * each tenant's *arrivals* are bursty (bounded-Pareto gaps),
//! * a configurable fraction of reads lands on a small shared hot set
//!   (the common base-image blocks that make cross-VM coalescing pay),
//!   the rest on the tenant's private stripe.
//!
//! The run is open-loop with a per-tenant outstanding cap; after the
//! load deadline every in-flight request drains, so at the end
//! `completed == submitted` holds *iff* the datapath delivered exactly
//! one terminal completion per command. The report cross-checks that
//! guest-side invariant against insight's span reconstruction
//! (duplicate-terminal count, completed-span coverage) — the
//! exactly-once proof the coalescing fan-out must not break.

use crate::arrivals::{seeded_permutation, zipf_weights, HeavyTailArrivals};
use nvmetro_core::classify::Classifier;
use nvmetro_core::engine::{EngineVm, QueueBinding, RouterBuilder};
use nvmetro_core::policy::EnginePolicy;
use nvmetro_core::{passthrough_program, Partition};
use nvmetro_device::{CompletionMode, SimSsd, SsdConfig};
use nvmetro_fleet::{
    CoalesceConfig, FeedbackConfig, FleetConfig, GovernorView, InsightFeedback, RateLimit,
    TenantGovernor,
};
use nvmetro_insight::{StallWatchdog, WatchdogConfig};
use nvmetro_mem::GuestMemory;
use nvmetro_nvme::{CqConsumer, CqPair, SqPair, SqProducer, SubmissionEntry};
use nvmetro_sim::cost::CostModel;
use nvmetro_sim::{Actor, Executor, Ns, Progress, SimRng, MS, SEC, US};
use nvmetro_stats::Histogram;
use nvmetro_telemetry::{Metric, Percentiles, Telemetry, TelemetryConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Blocks per read; hot-set reads are slot-aligned so identical
/// `(slba, nlb)` keys recur across tenants and coalesce.
const NLB: u32 = 8;

/// Knobs for one fleet run. `Default` is the full-scale rig: 1024
/// tenants (≥ 1000 VM queue groups), 4 shards, scheduler + coalescing +
/// feedback on, spans kept for the exactly-once check.
#[derive(Clone, Debug)]
pub struct FleetOptions {
    /// Tenant (VM) count; one queue group each.
    pub tenants: usize,
    /// Router shards.
    pub shards: usize,
    /// Load-generation window (virtual ns); in-flight requests drain
    /// past it.
    pub duration: Ns,
    /// Master seed (rig layout, per-tenant arrival streams, device).
    pub seed: u64,
    /// Aggregate offered arrival rate across all tenants (IOPS).
    pub total_iops: f64,
    /// Zipf skew of the per-tenant rate split.
    pub theta: f64,
    /// Per-tenant outstanding cap (arrivals past it are dropped, as an
    /// open-loop generator's queue would overflow).
    pub cap: usize,
    /// Slots in the shared hot set (each `NLB` blocks).
    pub hot_slots: u64,
    /// Probability a read targets the hot set instead of the tenant's
    /// private stripe.
    pub hot_fraction: f64,
    /// Enable the per-tenant DRR/token-bucket scheduler.
    pub fleet: bool,
    /// Per-tenant token-bucket rate; `None` = weights only, no pacing.
    pub rate_iops: Option<u64>,
    /// Enable the cross-VM read-coalescing window.
    pub coalesce: bool,
    /// Enable the insight→governor feedback loop.
    pub feedback: bool,
    /// Keep spans in the health log for the exactly-once check.
    pub keep_spans: bool,
    /// Device parallelism (concurrent flash operations). The default is
    /// generous so the router and scheduler shape the outcome; benches
    /// that want a device-bound rig (where coalescing buys throughput,
    /// not just occupancy) turn it down.
    pub device_channels: usize,
    /// Device flash read latency (ns).
    pub device_read_lat: Ns,
    /// Engine datapath policy (poll governor, batch bound). The default
    /// keeps the legacy always-spin engine so calibrated fleet figures are
    /// unchanged; a 1000-VM rig with mostly-idle tenants is exactly where
    /// `PollPolicy::adaptive()` pays.
    pub policy: EnginePolicy,
}

impl Default for FleetOptions {
    fn default() -> Self {
        FleetOptions {
            tenants: 1024,
            shards: 4,
            duration: 20 * MS,
            seed: 0xF1EE7,
            total_iops: 2_000_000.0,
            theta: 1.1,
            cap: 4,
            hot_slots: 64,
            hot_fraction: 0.5,
            fleet: true,
            rate_iops: None,
            coalesce: true,
            feedback: true,
            keep_spans: true,
            device_channels: 64,
            device_read_lat: 5_000,
            policy: EnginePolicy::new(),
        }
    }
}

/// What one [`run_fleet`] call produced.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// Tenants in the run (== VM queue groups bound).
    pub tenants: usize,
    /// Reads submitted by all guests.
    pub submitted: u64,
    /// Completions popped by all guests.
    pub completed: u64,
    /// Completions that carried an error status.
    pub errors: u64,
    /// Guest-observed completion rate over the load window.
    pub iops: f64,
    /// Median guest latency (ns).
    pub p50_ns: u64,
    /// p99 guest latency (ns).
    pub p99_ns: u64,
    /// Commands the device actually served (`Metric::DeviceIos`).
    pub device_ios: u64,
    /// Duplicate reads parked as coalescing followers.
    pub coalesced: u64,
    /// Completions fanned out to followers.
    pub fanned_out: u64,
    /// Admissions denied by empty token buckets.
    pub throttled: u64,
    /// DRR deficit exhaustions.
    pub preemptions: u64,
    /// Per-tenant completions, indexed by tenant id.
    pub per_tenant_completed: Vec<u64>,
    /// Per-tenant offered-load weight, indexed by tenant id.
    pub per_tenant_weight: Vec<f64>,
    /// Governor state at the end of the run.
    pub governor: Vec<GovernorView>,
    /// Tighten/relax actions the feedback loop took.
    pub feedback_actions: usize,
    /// Spans the watchdog saw complete (0 when spans are off).
    pub span_completed: u64,
    /// Spans that received more than one terminal event — must be 0.
    pub duplicate_terminals: u64,
    /// Trace events lost to ring overflow (poisons span coverage).
    pub drain_missed: u64,
    /// The exactly-once verdict: every submitted command completed
    /// exactly once, confirmed by span reconstruction when available.
    pub exactly_once: bool,
}

impl FleetReport {
    /// Jain fairness index over per-tenant *weight-normalized* service:
    /// 1.0 means every tenant got throughput exactly proportional to its
    /// offered load; 1/n means one tenant got everything.
    pub fn jain_fairness(&self) -> f64 {
        let shares: Vec<f64> = self
            .per_tenant_completed
            .iter()
            .zip(&self.per_tenant_weight)
            .filter(|(_, w)| **w > 0.0)
            .map(|(c, w)| *c as f64 / w)
            .collect();
        let n = shares.len() as f64;
        let sum: f64 = shares.iter().sum();
        let sq: f64 = shares.iter().map(|x| x * x).sum();
        if sq == 0.0 {
            return 0.0;
        }
        sum * sum / (n * sq)
    }
}

/// Shared counters one tenant load exposes to the harness.
#[derive(Default)]
struct LoadStats {
    submitted: AtomicU64,
    completed: AtomicU64,
    errors: AtomicU64,
    latency: Mutex<Histogram>,
}

/// Open-loop, capped, heavy-tailed read generator for one tenant.
struct TenantLoad {
    name: String,
    sq: SqProducer,
    cq: CqConsumer,
    arrivals: HeavyTailArrivals,
    rng: SimRng,
    deadline: Ns,
    done: bool,
    cap: usize,
    outstanding: usize,
    next_cid: u16,
    submit_ts: HashMap<u16, Ns>,
    hot_slots: u64,
    hot_fraction: f64,
    private_base: u64,
    private_slots: u64,
    stats: Arc<LoadStats>,
}

impl Actor for TenantLoad {
    fn name(&self) -> &str {
        &self.name
    }

    fn poll(&mut self, now: Ns) -> Progress {
        let mut progressed = false;
        while let Some(cqe) = self.cq.pop() {
            self.outstanding -= 1;
            self.stats.completed.fetch_add(1, Ordering::Relaxed);
            if cqe.status().is_error() {
                self.stats.errors.fetch_add(1, Ordering::Relaxed);
            }
            if let Some(t) = self.submit_ts.remove(&cqe.cid) {
                self.stats.latency.lock().unwrap().record(now - t);
            }
            progressed = true;
        }
        if self.done {
            return if progressed {
                Progress::Busy
            } else {
                Progress::Idle
            };
        }
        while self.arrivals.next_at() <= now {
            if now >= self.deadline {
                self.done = true;
                break;
            }
            // An arrival past the cap is dropped, not queued: the
            // generator stays open-loop instead of turning into a
            // closed-loop backlog.
            if self.outstanding < self.cap {
                let slot = if self.rng.chance(self.hot_fraction) {
                    self.rng.below(self.hot_slots)
                } else {
                    self.private_base + self.rng.below(self.private_slots)
                };
                let mut cmd = SubmissionEntry::read(1, slot * NLB as u64, NLB, 0x1000, 0);
                cmd.cid = self.next_cid;
                if self.sq.push(cmd).is_ok() {
                    self.submit_ts.insert(self.next_cid, now);
                    self.next_cid = self.next_cid.wrapping_add(1);
                    self.outstanding += 1;
                    self.stats.submitted.fetch_add(1, Ordering::Relaxed);
                    progressed = true;
                }
            }
            self.arrivals.advance();
        }
        if progressed {
            Progress::Busy
        } else {
            Progress::Idle
        }
    }

    fn next_event(&self) -> Option<Ns> {
        if self.done {
            None
        } else {
            Some(self.arrivals.next_at().min(self.deadline))
        }
    }
}

/// By default a device fast enough that the router and scheduler, not
/// the flash, shape the outcome — the same trick the sharding smoke
/// uses; [`FleetOptions::device_channels`] dials contention back in.
fn fleet_device_cost(opts: &FleetOptions) -> CostModel {
    CostModel {
        ssd_channels: opts.device_channels,
        ssd_read_lat: opts.device_read_lat,
        ssd_cmd_overhead: 150,
        ssd_cmd_overhead_write: 300,
        ssd_jitter: 0.0,
        ..Default::default()
    }
}

/// Builds, runs, and tears down one fleet rig. See the module docs.
pub fn run_fleet(opts: &FleetOptions) -> FleetReport {
    assert!(opts.tenants > 0 && opts.shards > 0);
    let telemetry = Telemetry::with_config(TelemetryConfig {
        trace_capacity: 1 << 16,
    });
    let cost = fleet_device_cost(opts);
    let private_slots = 64u64;
    let capacity_lbas = (opts.hot_slots + opts.tenants as u64 * private_slots + 16) * NLB as u64;

    let mut ssd = SimSsd::new(
        "ssd",
        SsdConfig {
            capacity_lbas,
            cost: cost.clone(),
            move_data: false,
            seed: opts.seed ^ 0x55D,
            ..Default::default()
        },
    );
    ssd.attach_telemetry(telemetry.register_worker_named("ssd"));
    let mem = Arc::new(GuestMemory::new(1 << 20));

    // Zipf rate split, permuted so the whales land on seed-dependent ids.
    let mut layout_rng = SimRng::new(opts.seed);
    let ranks = seeded_permutation(opts.tenants, &mut layout_rng);
    let zipf = zipf_weights(opts.tenants, opts.theta);
    let weights: Vec<f64> = (0..opts.tenants).map(|t| zipf[ranks[t]]).collect();

    let governor = TenantGovernor::new();
    let mut ex = Executor::new();
    let mut builder = RouterBuilder::new("router")
        .cost(cost)
        .shards(opts.shards)
        .policy(opts.policy)
        .table_capacity(4096)
        .telemetry(&telemetry);
    if opts.fleet {
        let mut cfg = FleetConfig {
            governor: governor.clone(),
            ..Default::default()
        };
        if let Some(iops) = opts.rate_iops {
            cfg = cfg.default_rate(RateLimit::per_second(iops));
        }
        builder = builder.fleet(cfg);
    }
    if opts.coalesce {
        builder = builder.coalesce(CoalesceConfig::default());
    }

    let mut stats = Vec::with_capacity(opts.tenants);
    for (tenant, weight) in weights.iter().enumerate().take(opts.tenants) {
        let (vsq_p, vsq_c) = SqPair::new(256);
        let (vcq_p, vcq_c) = CqPair::new(256);
        let (hsq_p, hsq_c) = SqPair::new(256);
        let (hcq_p, hcq_c) = CqPair::new(256);
        ssd.add_queue(hsq_c, hcq_p, mem.clone(), CompletionMode::Polled);
        builder = builder.vm(EngineVm {
            vm_id: tenant as u32,
            mem: mem.clone(),
            // Every tenant sees the whole namespace: the hot set is a
            // shared read-only base image, which is what makes cross-VM
            // coalescing legal and profitable.
            partition: Partition::whole(capacity_lbas),
            queues: vec![QueueBinding {
                vsqs: vec![vsq_c],
                vcqs: vec![vcq_p],
                hsq: hsq_p,
                hcq: hcq_c,
                kernel: None,
                notify: None,
                classifier: Classifier::Bpf(passthrough_program()),
            }],
        });

        // Mean gap from this tenant's Zipf share of the aggregate rate,
        // clamped so tail tenants still send a few requests per run.
        let rate = (opts.total_iops * weight).max(50.0);
        let mean_gap = SEC as f64 / rate;
        let load = TenantLoad {
            name: format!("tenant-{tenant}"),
            sq: vsq_p,
            cq: vcq_c,
            arrivals: HeavyTailArrivals::new(
                opts.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(tenant as u64 + 1)),
                mean_gap,
                1.5,
            ),
            rng: SimRng::new(opts.seed ^ (tenant as u64) << 17),
            deadline: opts.duration,
            done: false,
            cap: opts.cap,
            outstanding: 0,
            next_cid: 0,
            submit_ts: HashMap::new(),
            hot_slots: opts.hot_slots,
            hot_fraction: opts.hot_fraction,
            private_base: opts.hot_slots + tenant as u64 * private_slots,
            private_slots,
            stats: Arc::new(LoadStats::default()),
        };
        stats.push(load.stats.clone());
        ex.add(Box::new(load));
    }

    let engine = builder.build();
    engine.run_virtual(&mut ex);
    ex.add(Box::new(ssd));

    let (watchdog, health) = StallWatchdog::new(
        &telemetry,
        WatchdogConfig {
            interval: 200 * US,
            keep_spans: opts.keep_spans,
            ..Default::default()
        },
    );
    ex.add(Box::new(watchdog));

    let mut feedback_log = None;
    if opts.feedback {
        let (fb, log) =
            InsightFeedback::new(health.clone(), governor.clone(), FeedbackConfig::default());
        feedback_log = Some(log);
        ex.add(Box::new(fb));
    }

    let report = ex.run(u64::MAX);

    let mut submitted = 0u64;
    let mut completed = 0u64;
    let mut errors = 0u64;
    let mut hist = Histogram::new();
    let mut per_tenant = Vec::with_capacity(opts.tenants);
    for s in &stats {
        let c = s.completed.load(Ordering::Relaxed);
        submitted += s.submitted.load(Ordering::Relaxed);
        completed += c;
        errors += s.errors.load(Ordering::Relaxed);
        per_tenant.push(c);
        hist.merge(&s.latency.lock().unwrap());
    }

    let snap = telemetry.snapshot();
    let span_stats = health.stats();
    let drain_missed = health.drain_missed();
    let spans_ok = !opts.keep_spans
        || (drain_missed == 0
            && span_stats.duplicate_terminals == 0
            && span_stats.spans_completed == completed);
    let pct = Percentiles::of(&hist);
    FleetReport {
        tenants: opts.tenants,
        submitted,
        completed,
        errors,
        iops: completed as f64 * SEC as f64 / report.duration.max(1) as f64,
        p50_ns: pct.p50,
        p99_ns: pct.p99,
        device_ios: snap.get(Metric::DeviceIos),
        coalesced: snap.get(Metric::CoalescedReads),
        fanned_out: snap.get(Metric::CoalesceFanout),
        throttled: snap.get(Metric::ThrottleApplied),
        preemptions: snap.get(Metric::SchedulerPreemptions),
        per_tenant_completed: per_tenant,
        per_tenant_weight: weights,
        governor: governor.snapshot(),
        feedback_actions: feedback_log.map_or(0, |l| l.actions().len()),
        span_completed: span_stats.spans_completed,
        duplicate_terminals: span_stats.duplicate_terminals,
        drain_missed,
        exactly_once: submitted == completed && spans_ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small rig end-to-end: everything completes exactly once, the
    /// hot set actually coalesces, and the report's books balance.
    #[test]
    fn small_fleet_runs_to_completion_exactly_once() {
        let opts = FleetOptions {
            tenants: 32,
            shards: 2,
            duration: 5 * MS,
            total_iops: 400_000.0,
            ..Default::default()
        };
        let r = run_fleet(&opts);
        assert!(
            r.submitted > 1_000,
            "rig too idle: {} submitted",
            r.submitted
        );
        assert_eq!(r.completed, r.submitted);
        assert_eq!(r.errors, 0);
        assert!(r.exactly_once, "exactly-once violated: {r:?}");
        assert!(r.coalesced > 0, "hot-set duplicates should coalesce: {r:?}");
        assert_eq!(r.fanned_out, r.coalesced, "every follower must fan out");
        assert_eq!(
            r.device_ios + r.coalesced,
            r.completed,
            "each completion is either a device I/O or a fanned-out follower"
        );
        let jain = r.jain_fairness();
        assert!(jain > 0.0 && jain <= 1.0 + 1e-9, "jain {jain} out of range");
    }

    /// Coalescing off ⇒ no followers, and the device serves every read.
    #[test]
    fn coalescing_off_means_no_followers() {
        let opts = FleetOptions {
            tenants: 16,
            shards: 1,
            duration: 2 * MS,
            total_iops: 200_000.0,
            coalesce: false,
            feedback: false,
            ..Default::default()
        };
        let r = run_fleet(&opts);
        assert_eq!(r.coalesced, 0);
        assert_eq!(r.fanned_out, 0);
        assert_eq!(r.device_ios, r.completed);
        assert!(r.exactly_once, "exactly-once violated: {r:?}");
    }
}
