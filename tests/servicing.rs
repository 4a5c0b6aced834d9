//! Live servicing integration: quiesce → snapshot → restore with
//! exactly-once completions under seeded chaos, online resharding under
//! QD-128 fleet load, hot VM attach/detach, and the stats/generation
//! regressions that ride along.
//!
//! The invariants under test:
//!
//! * **Exactly-once across a restore** — a mid-flight snapshot quarantines
//!   every outstanding tag under the old generation and replays the
//!   request under the new one; the guest sees exactly one answer per
//!   command, proven per-CID and by span reconstruction.
//! * **Epoch fencing** — a completion produced by the pre-snapshot engine
//!   can never satisfy a post-restore request: it lands on the
//!   quarantined old-generation tag and is dropped as epoch-late.
//! * **Elastic resharding** — `shards: N→M` under load loses and
//!   duplicates nothing, and per-tenant throttle cells carry over.
//! * **Hot attach/detach** — tenants come and go on a running engine
//!   without another tenant's queues so much as moving slots.
//!
//! Like `chaos.rs`, the `CHAOS_SEED` environment variable appends an
//! extra seed to the fixed matrix so CI can sweep seeds.

use nvmetro::core::classify::{verdict_bits, Classifier, NativeClassifier, RequestCtx, Verdict};
use nvmetro::core::engine::{Engine, EngineVm, QueueBinding, RouterBuilder};
use nvmetro::core::{passthrough_program, Partition, RecoveryConfig, ServiceError, ServiceState};
use nvmetro::device::{CompletionMode, SimSsd, SsdConfig};
use nvmetro::faults::{CmdClass, FaultAction, FaultPlan, FaultRule, FaultSite};
use nvmetro::fleet::{FleetConfig, RateLimit, TenantGovernor, TenantSpec, FULL_RATE};
use nvmetro::insight::{StallWatchdog, WatchdogConfig};
use nvmetro::mem::GuestMemory;
use nvmetro::nvme::{CqConsumer, CqPair, SqPair, SqProducer, SubmissionEntry};
use nvmetro::sim::cost::CostModel;
use nvmetro::sim::{Actor, Ns, MS, US};
use nvmetro::telemetry::{Metric, Telemetry};
use std::collections::HashMap;
use std::sync::Arc;

/// Everything to the fast path.
struct AlwaysFast;
impl NativeClassifier for AlwaysFast {
    fn classify(&mut self, _ctx: &mut RequestCtx) -> Verdict {
        Verdict(verdict_bits::SEND_HQ | verdict_bits::WILL_COMPLETE_HQ)
    }
}

/// Deterministic cost model: no device jitter.
fn deterministic_cost() -> CostModel {
    CostModel {
        ssd_jitter: 0.0,
        ..Default::default()
    }
}

/// One queue group's plumbing: rings built, host pair registered on the
/// device, guest ends returned.
fn queue_group(
    ssd: &mut SimSsd,
    mem: &Arc<GuestMemory>,
    native: bool,
) -> (QueueBinding, SqProducer, CqConsumer) {
    let (vsq_p, vsq_c) = SqPair::new(256);
    let (vcq_p, vcq_c) = CqPair::new(256);
    let (hsq_p, hsq_c) = SqPair::new(256);
    let (hcq_p, hcq_c) = CqPair::new(256);
    ssd.add_queue(hsq_c, hcq_p, mem.clone(), CompletionMode::Polled);
    let classifier = if native {
        Classifier::Native(Box::new(AlwaysFast))
    } else {
        Classifier::Bpf(passthrough_program())
    };
    let binding = QueueBinding {
        vsqs: vec![vsq_c],
        vcqs: vec![vcq_p],
        hsq: hsq_p,
        hcq: hcq_c,
        kernel: None,
        notify: None,
        classifier,
    };
    (binding, vsq_p, vcq_c)
}

/// Engine over `queue_pairs` groups on one VM, driven by hand (the
/// servicing API consumes the engine, so no executor).
#[allow(clippy::type_complexity)]
fn build_rig(
    shards: usize,
    queue_pairs: usize,
    cost: CostModel,
    faults: FaultPlan,
    recovery: Option<RecoveryConfig>,
    telemetry: &Telemetry,
) -> (Engine, SimSsd, Vec<(SqProducer, CqConsumer)>) {
    let mut ssd = SimSsd::new(
        "ssd",
        SsdConfig {
            capacity_lbas: 1 << 20,
            cost: cost.clone(),
            move_data: false,
            seed: 11,
            faults,
            ..Default::default()
        },
    );
    let mem = Arc::new(GuestMemory::new(1 << 20));
    let mut guest_ends = Vec::new();
    let mut queues = Vec::new();
    for _ in 0..queue_pairs {
        let (binding, sq, cq) = queue_group(&mut ssd, &mem, true);
        queues.push(binding);
        guest_ends.push((sq, cq));
    }
    let mut builder = RouterBuilder::new("router")
        .cost(cost)
        .shards(shards)
        .table_capacity(2048)
        .telemetry(telemetry)
        .vm(EngineVm {
            vm_id: 0,
            mem,
            partition: Partition::whole(1 << 20),
            queues,
        });
    if let Some(cfg) = recovery {
        builder = builder.recovery(cfg);
    }
    (builder.build(), ssd, guest_ends)
}

/// The fixed seed matrix plus an optional `CHAOS_SEED` from the env.
fn seeds() -> Vec<u64> {
    let mut s = vec![0x00C0_FFEE, 0x00BE_EF01, 0x005E_ED42];
    if let Ok(v) = std::env::var("CHAOS_SEED") {
        if let Ok(n) = v.trim().parse::<u64>() {
            s.push(n);
        }
    }
    s
}

/// Mid-flight snapshot under seeded device chaos (media errors, stalls,
/// dropped completions), serialized through the byte format, restored
/// into a fresh engine: every command is answered exactly once — per-CID
/// on every queue pair and by span reconstruction (no span ever sees two
/// terminals; every guest CQE maps to exactly one completed span).
#[test]
fn snapshot_restore_mid_chaos_is_exactly_once() {
    const N: u16 = 40;
    const QPS: usize = 4;
    for seed in seeds() {
        for shards in [1usize, 4] {
            let telemetry = Telemetry::enabled();
            let plan = FaultPlan::new(seed)
                .rule(
                    FaultRule::new(FaultSite::Device, FaultAction::DropCompletion)
                        .classes(CmdClass::Read.bit())
                        .max_hits(2),
                )
                .rule(
                    FaultRule::new(FaultSite::Device, FaultAction::MediaError { dnr: false })
                        .classes(CmdClass::Read.bit())
                        .probability(0.1),
                )
                .rule(
                    FaultRule::new(FaultSite::Device, FaultAction::Stall(150 * US))
                        .classes(CmdClass::Read.bit())
                        .probability(0.1),
                );
            let (mut engine, mut ssd, guest_ends) = build_rig(
                shards,
                QPS,
                deterministic_cost(),
                plan,
                Some(RecoveryConfig {
                    cmd_timeout: 20 * MS,
                    max_retries: 4,
                    backoff_base: 20 * US,
                    backoff_max: 200 * US,
                    breaker_threshold: 1_000,
                    breaker_cooldown: 2 * MS,
                    zombie_linger: 5 * MS,
                }),
                &telemetry,
            );
            let (mut watchdog, health) = StallWatchdog::new(
                &telemetry,
                WatchdogConfig {
                    interval: 100 * US,
                    keep_spans: true,
                    ..Default::default()
                },
            );
            for (qp, (sq, _)) in guest_ends.iter().enumerate() {
                for i in 0..N {
                    let mut cmd =
                        SubmissionEntry::read(1, (qp as u64 * 8192) + i as u64 * 8, 8, 0x1000, 0);
                    cmd.cid = i;
                    sq.push(cmd).unwrap();
                }
            }
            let mut counts: Vec<HashMap<u16, u32>> = vec![HashMap::new(); QPS];
            let mut delivered = 0u64;
            let mut now: Ns = 0;
            let pump = |engine: &mut Engine,
                        ssd: &mut SimSsd,
                        watchdog: &mut StallWatchdog,
                        counts: &mut Vec<HashMap<u16, u32>>,
                        delivered: &mut u64,
                        now: Ns| {
                engine.poll_all(now);
                ssd.poll(now);
                watchdog.poll(now);
                for (qp, (_, cq)) in guest_ends.iter().enumerate() {
                    while let Some(cqe) = cq.pop() {
                        *counts[qp].entry(cqe.cid).or_insert(0) += 1;
                        *delivered += 1;
                    }
                }
            };

            // Phase 1: run hot, then quiesce with a deadline short enough
            // that the chaos (20 ms drop-recovery, 150 us stalls) cannot
            // drain — the snapshot must happen mid-flight.
            while now < 100 * US {
                pump(
                    &mut engine,
                    &mut ssd,
                    &mut watchdog,
                    &mut counts,
                    &mut delivered,
                    now,
                );
                now += 5 * US;
            }
            engine.begin_quiesce();
            let quiesce_deadline = now + 100 * US;
            while now < quiesce_deadline && !engine.quiesced() {
                pump(
                    &mut engine,
                    &mut ssd,
                    &mut watchdog,
                    &mut counts,
                    &mut delivered,
                    now,
                );
                now += 5 * US;
            }
            assert!(
                engine.live_in_flight() > 0,
                "seed {seed:#x} shards {shards}: rig drained before the snapshot"
            );

            // Snapshot, push through the byte format, restore fresh.
            let (state, parts) = engine.snapshot(now);
            assert!(!state.requests.is_empty(), "seed {seed:#x} shards {shards}");
            let state = ServiceState::from_bytes(&state.to_bytes()).expect("round trip");
            let mut engine = Engine::restore(parts, &state, now).unwrap();
            assert_eq!(engine.generation(), 2);

            // Phase 2: run the restored engine to completion.
            let total = (QPS as u64) * N as u64;
            while delivered < total && now < 500 * MS {
                pump(
                    &mut engine,
                    &mut ssd,
                    &mut watchdog,
                    &mut counts,
                    &mut delivered,
                    now,
                );
                now += 5 * US;
            }
            // Let the watchdog take its final drains: the loop above exits
            // the instant the last CQE pops, possibly mid-interval.
            for _ in 0..5 {
                now += 100 * US;
                engine.poll_all(now);
                watchdog.poll(now);
            }
            for (qp, c) in counts.iter().enumerate() {
                assert_eq!(
                    c.len(),
                    N as usize,
                    "seed {seed:#x} shards {shards}: queue pair {qp} must answer every cid"
                );
                for (cid, n) in c {
                    assert_eq!(
                        *n, 1,
                        "seed {seed:#x} shards {shards}: qp {qp} cid {cid} answered {n} times"
                    );
                }
            }
            let stats = engine.stats();
            assert_eq!(
                stats.total.completed, total,
                "seed {seed:#x} shards {shards}: carried + post-restore counters must agree"
            );
            let snap = telemetry.snapshot();
            assert!(
                snap.get(Metric::ReplayedRequests) >= 1,
                "seed {seed:#x} shards {shards}: a mid-flight snapshot must replay something"
            );
            assert_eq!(snap.get(Metric::SnapshotsTaken), 1);
            assert_eq!(snap.get(Metric::Restores), 1);
            // Span reconstruction agrees: replays open fresh spans, the
            // old attempt's span stays open without a terminal, and every
            // guest CQE is exactly one completed span.
            let s = health.stats();
            assert_eq!(
                health.drain_missed(),
                0,
                "seed {seed:#x} shards {shards}: ring overflow poisons the proof"
            );
            assert_eq!(
                s.duplicate_terminals, 0,
                "seed {seed:#x} shards {shards}: a span saw two terminals"
            );
            assert_eq!(
                s.spans_completed, delivered,
                "seed {seed:#x} shards {shards}: span coverage mismatch: {s:?}"
            );
        }
    }
}

/// Satellite 2 regression: a completion minted by the pre-snapshot engine
/// arrives after the restore carrying the old tag. It must land on the
/// old-generation quarantine and be dropped as epoch-late — never
/// delivered to the guest a second time, never matched to whatever now
/// owns the tag.
#[test]
fn stale_generation_completion_never_satisfies_restored_request() {
    let telemetry = Telemetry::enabled();
    // One read stalls inside the device for 2 ms — long past the snapshot
    // point — and then completes carrying its pre-snapshot CID (the old
    // engine's tag).
    let plan = FaultPlan::new(7).rule(
        FaultRule::new(FaultSite::Device, FaultAction::Stall(2 * MS))
            .classes(CmdClass::Read.bit())
            .max_hits(1),
    );
    let (mut engine, mut ssd, guest_ends) =
        build_rig(1, 1, deterministic_cost(), plan, None, &telemetry);
    let (sq, cq) = &guest_ends[0];
    let mut cmd = SubmissionEntry::read(1, 0, 8, 0x1000, 0);
    cmd.cid = 0;
    sq.push(cmd).unwrap();

    let mut counts: HashMap<u16, u32> = HashMap::new();
    let mut now: Ns = 0;
    while now < 100 * US {
        engine.poll_all(now);
        ssd.poll(now);
        while let Some(cqe) = cq.pop() {
            *counts.entry(cqe.cid).or_insert(0) += 1;
        }
        now += 5 * US;
    }
    engine.begin_quiesce();
    engine.poll_all(now);
    assert_eq!(
        engine.live_in_flight(),
        1,
        "the stalled read must still be in flight at the snapshot"
    );
    let (state, parts) = engine.snapshot(now);
    assert_eq!(state.requests.len(), 1);
    let mut engine = Engine::restore(parts, &state, now).unwrap();

    // The restored engine admits fresh traffic right away.
    for i in 1..8u16 {
        let mut cmd = SubmissionEntry::read(1, i as u64 * 8, 8, 0x1000, 0);
        cmd.cid = i;
        sq.push(cmd).unwrap();
    }
    // Run well past the 2 ms stall: the replay and the new reads answer
    // the guest; the stale leg arrives at ~2 ms on the old tag and must
    // be fenced by the generation check, not delivered a second time.
    while now < 5 * MS {
        engine.poll_all(now);
        ssd.poll(now);
        while let Some(cqe) = cq.pop() {
            *counts.entry(cqe.cid).or_insert(0) += 1;
        }
        now += 5 * US;
    }
    assert_eq!(counts.len(), 8, "every cid must be answered");
    for (cid, n) in &counts {
        assert_eq!(*n, 1, "cid {cid} answered {n} times");
    }
    let stats = engine.stats();
    assert_eq!(
        stats.total.epoch_late_drops, 1,
        "the stale leg must be dropped as epoch-late, not swallowed silently"
    );
    let snap = telemetry.snapshot();
    assert_eq!(snap.get(Metric::EpochLateDrops), 1);
    assert_eq!(snap.get(Metric::ReplayedRequests), 1);
}

/// Closed-loop (or paced) reader driven by hand; counts per-CID answers.
struct Driver {
    sq: SqProducer,
    cq: CqConsumer,
    qd: usize,
    period: Ns,
    next_at: Ns,
    outstanding: usize,
    next_cid: u16,
    submitted: u64,
    counts: HashMap<u16, u32>,
    lba_base: u64,
}

impl Driver {
    fn new(sq: SqProducer, cq: CqConsumer, qd: usize, period: Ns, lba_base: u64) -> Self {
        Driver {
            sq,
            cq,
            qd,
            period,
            next_at: 0,
            outstanding: 0,
            next_cid: 0,
            submitted: 0,
            counts: HashMap::new(),
            lba_base,
        }
    }

    fn submit_one(&mut self) -> bool {
        let mut cmd = SubmissionEntry::read(
            1,
            self.lba_base + (self.next_cid as u64 % 64) * 8,
            8,
            0x1000,
            0,
        );
        cmd.cid = self.next_cid;
        if self.sq.push(cmd).is_err() {
            return false;
        }
        self.next_cid = self.next_cid.wrapping_add(1);
        self.outstanding += 1;
        self.submitted += 1;
        true
    }

    /// Reap completions; submit while `open` and under queue depth.
    fn pump(&mut self, now: Ns, open: bool) {
        while let Some(cqe) = self.cq.pop() {
            self.outstanding -= 1;
            *self.counts.entry(cqe.cid).or_insert(0) += 1;
        }
        if !open {
            return;
        }
        if self.period == 0 {
            while self.outstanding < self.qd && self.submit_one() {}
        } else {
            while self.next_at <= now {
                if self.outstanding < self.qd {
                    self.submit_one();
                }
                self.next_at += self.period;
            }
        }
    }

    fn settled(&self) -> bool {
        self.outstanding == 0
    }

    fn assert_exactly_once(&self, who: &str) {
        assert!(self.submitted > 0, "{who} never submitted");
        assert_eq!(
            self.counts.len() as u64,
            self.submitted,
            "{who}: lost completions"
        );
        for (cid, n) in &self.counts {
            assert_eq!(*n, 1, "{who}: cid {cid} answered {n} times");
        }
    }
}

/// Satellite 4: online resharding 2→4 and 4→2 under QD-128 noisy-neighbor
/// fleet load. Every outstanding tag completes on its old shard or is
/// replayed on its new one — never both — and the per-tenant governor
/// cells (throttle knob, admission counters) carry across both reshards.
#[test]
fn online_reshard_under_fleet_load_is_exactly_once() {
    const VICTIM: u32 = 0;
    const AGGRESSOR: u32 = 1;
    let telemetry = Telemetry::enabled();
    let cost = deterministic_cost();
    let mut ssd = SimSsd::new(
        "ssd",
        SsdConfig {
            capacity_lbas: 1 << 20,
            cost: cost.clone(),
            move_data: false,
            seed: 11,
            ..Default::default()
        },
    );
    let mem = Arc::new(GuestMemory::new(1 << 20));
    let governor = TenantGovernor::new();
    let fleet_cfg = FleetConfig {
        governor: governor.clone(),
        ..Default::default()
    }
    .tenant(TenantSpec {
        tenant: VICTIM,
        weight: 1,
        rate: None,
    })
    .tenant(TenantSpec {
        tenant: AGGRESSOR,
        weight: 1,
        // A bucket generous at full rate; the 500‰ throttle below halves
        // its effective refill, which the QD-128 flood must then hit.
        rate: Some(RateLimit {
            iops: 400_000,
            burst: 32,
        }),
    });
    let mut builder = RouterBuilder::new("router")
        .cost(cost)
        .shards(2)
        .table_capacity(2048)
        .telemetry(&telemetry)
        .fleet(fleet_cfg);
    let mut drivers = Vec::new();
    for vm in [VICTIM, AGGRESSOR] {
        let mut queues = Vec::new();
        let mut ends = Vec::new();
        for _ in 0..2 {
            let (binding, sq, cq) = queue_group(&mut ssd, &mem, false);
            queues.push(binding);
            ends.push((sq, cq));
        }
        builder = builder.vm(EngineVm {
            vm_id: vm,
            mem: mem.clone(),
            partition: Partition::whole(1 << 20),
            queues,
        });
        for (sq, cq) in ends {
            // The aggressor floods at QD-64 per pair (128 per tenant);
            // the victim paces one read per 50 us per pair.
            drivers.push(if vm == AGGRESSOR {
                Driver::new(sq, cq, 64, 0, 1 << 14)
            } else {
                Driver::new(sq, cq, 4, 50 * US, 0)
            });
        }
    }
    let mut engine = builder.build();
    assert_eq!(engine.shard_count(), 2);

    let stop = 3 * MS;
    let mut now: Ns = 0;
    while now < MS {
        engine.poll_all(now);
        ssd.poll(now);
        for d in drivers.iter_mut() {
            d.pump(now, now < stop);
        }
        now += 2 * US;
    }
    // The control plane throttles the aggressor (as the insight feedback
    // loop would); the cell must survive both reshards.
    governor.set_throttle(AGGRESSOR, 500);
    let admitted_before = governor.cell(AGGRESSOR).admitted();
    assert!(admitted_before > 0, "aggressor was never admitted");

    let mut engine = engine.reshard(4, now).unwrap();
    assert_eq!(engine.shard_count(), 4);
    assert_eq!(engine.generation(), 2);
    while now < 2 * MS {
        engine.poll_all(now);
        ssd.poll(now);
        for d in drivers.iter_mut() {
            d.pump(now, now < stop);
        }
        now += 2 * US;
    }
    let admitted_mid = governor.cell(AGGRESSOR).admitted();
    assert!(
        admitted_mid > admitted_before,
        "admission counters must keep growing in the same cell after 2→4"
    );
    assert_eq!(
        governor.throttle_of(AGGRESSOR),
        500,
        "throttle cell lost in 2→4 reshard"
    );

    let mut engine = engine.reshard(2, now).unwrap();
    assert_eq!(engine.shard_count(), 2);
    assert_eq!(engine.generation(), 3);
    // Run past the submission window, then drain everything outstanding.
    while now < 100 * MS && !(now >= stop && drivers.iter().all(|d| d.settled())) {
        engine.poll_all(now);
        ssd.poll(now);
        for d in drivers.iter_mut() {
            d.pump(now, now < stop);
        }
        now += 2 * US;
    }

    for (i, d) in drivers.iter().enumerate() {
        d.assert_exactly_once(&format!("driver {i}"));
    }
    assert_eq!(
        governor.throttle_of(AGGRESSOR),
        500,
        "throttle cell lost in 4→2 reshard"
    );
    assert_eq!(governor.throttle_of(VICTIM), FULL_RATE);
    let snap = telemetry.snapshot();
    assert_eq!(snap.get(Metric::Reshards), 2);
    assert!(
        snap.get(Metric::ReplayedRequests) >= 1,
        "QD-128 load must have tags in flight across a reshard"
    );
    assert!(
        governor.cell(AGGRESSOR).throttled() > 0,
        "a 500‰ throttle under flood must deny admissions"
    );
    // Per-tenant state is visible at the engine level after resharding.
    let stats = engine.stats();
    assert!(stats.tenants.iter().any(|t| t.view.tenant == AGGRESSOR));
}

/// Tentpole (c): hot VM attach/detach on a running engine. A new tenant
/// attaches mid-run and does I/O; detaching it while busy is refused;
/// after pause + drain it detaches cleanly, its queue groups come back
/// intact, and it can re-attach later — all while the resident tenant's
/// traffic never stops or duplicates.
#[test]
fn hot_attach_detach_leaves_neighbors_undisturbed() {
    let telemetry = Telemetry::enabled();
    let cost = deterministic_cost();
    let mut ssd = SimSsd::new(
        "ssd",
        SsdConfig {
            capacity_lbas: 1 << 20,
            cost: cost.clone(),
            move_data: false,
            seed: 5,
            ..Default::default()
        },
    );
    let mem = Arc::new(GuestMemory::new(1 << 20));
    let mut queues = Vec::new();
    let mut ends = Vec::new();
    for _ in 0..2 {
        let (binding, sq, cq) = queue_group(&mut ssd, &mem, true);
        queues.push(binding);
        ends.push((sq, cq));
    }
    let mut engine = RouterBuilder::new("router")
        .cost(cost)
        .shards(2)
        .table_capacity(1024)
        .telemetry(&telemetry)
        .vm(EngineVm {
            vm_id: 0,
            mem: mem.clone(),
            partition: Partition::whole(1 << 20),
            queues,
        })
        .build();
    let mut resident: Vec<Driver> = ends
        .into_iter()
        .map(|(sq, cq)| Driver::new(sq, cq, 8, 0, 0))
        .collect();

    // Unknown VMs are refused by every per-VM verb.
    assert_eq!(engine.pause_vm(9).unwrap_err(), ServiceError::UnknownVm(9));
    match engine.detach_vm(9) {
        Err(e) => assert_eq!(e, ServiceError::UnknownVm(9)),
        Ok(_) => panic!("detaching an unknown VM must be refused"),
    }

    let stop = 2 * MS;
    let mut now: Ns = 0;
    while now < 500 * US {
        engine.poll_all(now);
        ssd.poll(now);
        for d in resident.iter_mut() {
            d.pump(now, now < stop);
        }
        now += 2 * US;
    }
    let resident_before_attach: u64 = resident.iter().map(|d| d.counts.len() as u64).sum();
    assert!(resident_before_attach > 0, "resident tenant too idle");

    // Hot attach: VM 1 joins the running engine with one queue group.
    let (binding, g_sq, g_cq) = queue_group(&mut ssd, &mem, true);
    let placements = engine.attach_vm(EngineVm {
        vm_id: 1,
        mem: mem.clone(),
        partition: Partition::whole(1 << 20),
        queues: vec![binding],
    });
    assert_eq!(placements.len(), 1);
    let mut newcomer = Driver::new(g_sq, g_cq, 8, 0, 1 << 12);

    while now < MS {
        engine.poll_all(now);
        ssd.poll(now);
        for d in resident.iter_mut() {
            d.pump(now, now < stop);
        }
        newcomer.pump(now, true);
        now += 2 * US;
    }
    assert!(
        !newcomer.counts.is_empty(),
        "attached VM never saw a completion"
    );

    // Detach while busy is refused: the newcomer keeps QD-8 in flight.
    match engine.detach_vm(1) {
        Err(e) => assert_eq!(e, ServiceError::VmBusy(1)),
        Ok(_) => panic!("detaching a busy VM must be refused"),
    }

    // Pause admission for VM 1 only, drain it, then detach for real.
    engine.pause_vm(1).unwrap();
    while now < 10 * MS && !engine.vm_quiesced(1) {
        engine.poll_all(now);
        ssd.poll(now);
        for d in resident.iter_mut() {
            d.pump(now, now < stop);
        }
        newcomer.pump(now, false);
        now += 2 * US;
    }
    assert!(engine.vm_quiesced(1), "paused VM never drained");
    let departed = engine.detach_vm(1).unwrap();
    assert_eq!(departed.vm_id, 1);
    assert_eq!(departed.queues.len(), 1);
    assert!(newcomer.settled());
    newcomer.assert_exactly_once("newcomer");

    // The resident tenant kept flowing through attach, pause, and detach.
    let during = now;
    while now < 100 * MS && !(now >= stop && resident.iter().all(|d| d.settled())) {
        engine.poll_all(now);
        ssd.poll(now);
        for d in resident.iter_mut() {
            d.pump(now, now < stop);
        }
        now += 2 * US;
    }
    let _ = during;
    for (i, d) in resident.iter().enumerate() {
        d.assert_exactly_once(&format!("resident pair {i}"));
        assert!(
            d.counts.len() as u64 > resident_before_attach / 4,
            "resident pair {i} stalled during servicing"
        );
    }

    // Round trip: the departed VM re-attaches and does I/O again.
    let placements = engine.attach_vm(departed);
    assert_eq!(placements.len(), 1);
    let reopen = now + 200 * US;
    while now < reopen || !newcomer.settled() {
        engine.poll_all(now);
        ssd.poll(now);
        newcomer.pump(now, now < reopen);
        now += 2 * US;
        assert!(now < 200 * MS, "re-attached VM never completed");
    }
    newcomer.assert_exactly_once("re-attached newcomer");

    let snap = telemetry.snapshot();
    assert_eq!(snap.get(Metric::VmAttaches), 2);
    assert_eq!(snap.get(Metric::VmDetaches), 1);
}

/// Satellite 1 regression: `Engine::stats` reads each shard once —
/// counters, occupancy, high-water, and breaker states all describe the
/// same instant — and pre-restore totals are carried so the aggregate
/// never goes backwards across servicing operations.
#[test]
fn engine_stats_are_one_pass_and_carry_across_restore() {
    const N: u16 = 32;
    let telemetry = Telemetry::enabled();
    let (mut engine, mut ssd, guest_ends) = build_rig(
        2,
        2,
        deterministic_cost(),
        FaultPlan::none(),
        Some(RecoveryConfig::default()),
        &telemetry,
    );
    for (qp, (sq, _)) in guest_ends.iter().enumerate() {
        for i in 0..N {
            let mut cmd = SubmissionEntry::read(1, (qp as u64 * 4096) + i as u64 * 8, 8, 0x1000, 0);
            cmd.cid = i;
            sq.push(cmd).unwrap();
        }
    }
    // Admit and dispatch without letting the device answer: the station
    // costs mean ingress work applies a few polls into virtual time.
    for i in 0..40u64 {
        engine.poll_all(i * 5 * US);
    }
    let stats = engine.stats();
    assert!(stats.occupancy > 0, "nothing in flight after admission");
    assert_eq!(
        stats.occupancy,
        engine.live_in_flight(),
        "occupancy and live in-flight must come from the same instant"
    );
    // High-water is a per-shard peak (occupancy sums across shards), so
    // with the load split two ways it must be at least half.
    assert!(stats.high_water >= stats.occupancy / 2);
    assert_eq!(
        stats.breakers.len(),
        2,
        "one breaker per bound queue group under recovery"
    );
    assert!(stats.breakers.iter().all(|b| !b.open));
    assert_eq!(stats.per_shard.len(), 2);

    // Drain, snapshot, restore: totals and peaks carry over. (Time
    // continues past the admission polls above — never backwards.)
    let mut now: Ns = 200 * US;
    let mut delivered = 0u64;
    while delivered < 2 * N as u64 && now < 100 * MS {
        engine.poll_all(now);
        ssd.poll(now);
        for (_, cq) in guest_ends.iter() {
            while cq.pop().is_some() {
                delivered += 1;
            }
        }
        now += 5 * US;
    }
    assert_eq!(delivered, 2 * N as u64);
    let before = engine.stats();
    assert_eq!(before.total.completed, 2 * N as u64);
    let high_water = before.high_water;
    assert!(high_water > 0);

    let (state, parts) = engine.snapshot(now);
    let engine = Engine::restore(parts, &state, now).unwrap();
    let after = engine.stats();
    assert_eq!(
        after.total.completed,
        2 * N as u64,
        "restored engine must carry pre-restore completion totals"
    );
    assert_eq!(
        after.high_water, high_water,
        "restored engine must carry the pre-restore table peak"
    );
    assert_eq!(after.occupancy, 0, "drained snapshot restores empty");
}

/// Doorbell re-bind (ISSUE 14): a VM detached with commands still queued
/// in its VSQ and attached to another engine is visited on that engine's
/// first poll. The commands rang the old shard's page while the VM was
/// paused and again, into nobody's page, while it was detached; binding
/// rings the new shard's bell for a ring that arrives non-empty.
#[test]
fn detached_vm_with_queued_commands_is_visited_on_first_poll_elsewhere() {
    for seed in seeds() {
        let queued = 1 + (seed % 23) as u16;
        let telemetry = Telemetry::disabled();
        let (mut engine_a, mut ssd, ends) = build_rig(
            1,
            1,
            deterministic_cost(),
            FaultPlan::none(),
            None,
            &telemetry,
        );
        let (sq, cq) = &ends[0];
        // Paused, the VM's VSQ fills while its shard looks away.
        engine_a.pause_vm(0).unwrap();
        for i in 0..queued / 2 {
            let mut cmd = SubmissionEntry::read(1, i as u64 * 8, 8, 0x1000, 0);
            cmd.cid = i;
            sq.push(cmd).unwrap();
        }
        for step in 0..10 {
            engine_a.poll_all(step * 5 * US);
        }
        assert_eq!(
            sq.len(),
            (queued / 2) as usize,
            "a paused VM is not drained"
        );
        let vm = engine_a.detach_vm(0).unwrap();
        // Detached, more arrive: nobody is bound to hear them.
        for i in queued / 2..queued {
            let mut cmd = SubmissionEntry::read(1, i as u64 * 8, 8, 0x1000, 0);
            cmd.cid = i;
            sq.push(cmd).unwrap();
        }

        // Another engine, other shard count, the VM behind three others.
        let mem = Arc::new(GuestMemory::new(1 << 20));
        let mut builder = RouterBuilder::new("router-b")
            .cost(deterministic_cost())
            .shards(2);
        for id in 1..4 {
            let (binding, _, _) = queue_group(&mut ssd, &mem, true);
            builder = builder.vm(EngineVm {
                vm_id: id,
                mem: mem.clone(),
                partition: Partition::whole(1 << 20),
                queues: vec![binding],
            });
        }
        let mut engine_b = builder.build();
        engine_b.attach_vm(vm);
        let mut now = 100 * US;
        engine_b.poll_all(now);
        assert!(
            sq.is_empty(),
            "seed {seed:#x}: {queued} queued commands must be fetched by the first poll"
        );
        let mut counts: HashMap<u16, u32> = HashMap::new();
        while counts.len() < queued as usize && now < 50 * MS {
            now += 5 * US;
            engine_b.poll_all(now);
            ssd.poll(now);
            while let Some(cqe) = cq.pop() {
                *counts.entry(cqe.cid).or_insert(0) += 1;
            }
        }
        assert_eq!(counts.len(), queued as usize, "seed {seed:#x}");
        assert!(counts.values().all(|&n| n == 1), "seed {seed:#x}");
    }
}

/// Doorbell re-bind (ISSUE 14): `reshard` 2→4→2 with commands landing
/// between each snapshot and its restore — when no shard is bound to the
/// rings — strands nothing.
#[test]
fn pushes_between_snapshot_and_restore_are_not_stranded() {
    const QPS: usize = 6;
    for seed in seeds() {
        let telemetry = Telemetry::disabled();
        let (mut engine, mut ssd, ends) = build_rig(
            2,
            QPS,
            deterministic_cost(),
            FaultPlan::none(),
            None,
            &telemetry,
        );
        let mut next_cid = [0u16; QPS];
        let mut counts: Vec<HashMap<u16, u32>> = vec![HashMap::new(); QPS];
        let mut rng = nvmetro::sim::SimRng::new(seed);
        let mut push_some = |next_cid: &mut [u16; QPS]| {
            for (qp, (sq, _)) in ends.iter().enumerate() {
                for _ in 0..rng.below(5) {
                    let mut cmd = SubmissionEntry::read(
                        1,
                        qp as u64 * 8192 + next_cid[qp] as u64,
                        8,
                        0x1000,
                        0,
                    );
                    cmd.cid = next_cid[qp];
                    sq.push(cmd).unwrap();
                    next_cid[qp] += 1;
                }
            }
        };
        let mut now: Ns = 0;
        for shards in [4usize, 2] {
            push_some(&mut next_cid);
            // Quiesce and drain, so the only work that crosses the
            // snapshot is what lands in the VSQs after it.
            for _ in 0..(4 + seed % 16) {
                engine.poll_all(now);
                ssd.poll(now);
                now += 5 * US;
            }
            engine.begin_quiesce();
            while !engine.quiesced() {
                engine.poll_all(now);
                ssd.poll(now);
                now += 5 * US;
                assert!(now < 50 * MS, "seed {seed:#x}: quiesce never drained");
            }
            let (state, parts) = engine.snapshot(now);
            // The old shards are gone and the new ones not built: these
            // ring pages nobody polls.
            push_some(&mut next_cid);
            engine = Engine::restore_with_shards(parts, &state, shards, now).unwrap();
            assert_eq!(engine.shard_count(), shards);
            // Only the restored engine's own polls from here: whatever it
            // fetches, it was told of by the re-bind.
            for _ in 0..8 {
                engine.poll_all(now);
                ssd.poll(now);
                now += 5 * US;
            }
            for (qp, (sq, _)) in ends.iter().enumerate() {
                assert!(
                    sq.is_empty(),
                    "seed {seed:#x} → {shards} shards: queue pair {qp} stranded {} commands",
                    sq.len()
                );
            }
        }
        let total: usize = next_cid.iter().map(|&n| n as usize).sum();
        let mut delivered = 0;
        while delivered < total && now < 100 * MS {
            engine.poll_all(now);
            ssd.poll(now);
            for (qp, (_, cq)) in ends.iter().enumerate() {
                while let Some(cqe) = cq.pop() {
                    *counts[qp].entry(cqe.cid).or_insert(0) += 1;
                    delivered += 1;
                }
            }
            now += 5 * US;
        }
        for (qp, c) in counts.iter().enumerate() {
            assert_eq!(
                c.len(),
                next_cid[qp] as usize,
                "seed {seed:#x}: queue pair {qp} lost completions"
            );
            assert!(c.values().all(|&n| n == 1), "seed {seed:#x}: qp {qp}");
        }
    }
}
