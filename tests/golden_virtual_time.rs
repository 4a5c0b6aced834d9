//! Virtual time is pinned.
//!
//! Which queues a poll looks at is host work; what a run *does* — who is
//! admitted when, what the device sees in what order, when each guest gets
//! its answer — must not depend on it. The three rigs below hash the
//! `(vm, cid, completion time)` sequence their guests observe. The pinned
//! values were generated at commit dc44463, where every poll walked every
//! ring of the shard; the doorbell page (ISSUE 14) visits only the rings
//! that rang and has to land on the same hashes.

use nvmetro::core::classify::{verdict_bits, Classifier, NativeClassifier, RequestCtx, Verdict};
use nvmetro::core::engine::{Engine, EngineVm, QueueBinding, RouterBuilder};
use nvmetro::core::{EnginePolicy, Partition, PollPolicy};
use nvmetro::device::{CompletionMode, SimSsd, SsdConfig};
use nvmetro::fleet::{CoalesceConfig, FleetConfig, RateLimit, TenantSpec};
use nvmetro::mem::GuestMemory;
use nvmetro::nvme::{CqConsumer, CqPair, SqPair, SqProducer, SubmissionEntry};
use nvmetro::sim::{Actor, Executor, Ns, Progress, SimRng, MS, US};
use nvmetro::telemetry::{Metric, Telemetry};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// Everything to the fast path.
struct AlwaysFast;
impl NativeClassifier for AlwaysFast {
    fn classify(&mut self, _ctx: &mut RequestCtx) -> Verdict {
        Verdict(verdict_bits::SEND_HQ | verdict_bits::WILL_COMPLETE_HQ)
    }
}

/// FNV-1a over the completions in the order the guests saw them.
#[derive(Default)]
struct Trace {
    hash: u64,
    completions: u64,
}

impl Trace {
    fn note(&mut self, vm: u32, cid: u16, at: Ns) {
        if self.completions == 0 {
            self.hash = 0xcbf2_9ce4_8422_2325;
        }
        let mut bytes = [0u8; 14];
        bytes[..4].copy_from_slice(&vm.to_le_bytes());
        bytes[4..6].copy_from_slice(&cid.to_le_bytes());
        bytes[6..].copy_from_slice(&at.to_le_bytes());
        for b in bytes {
            self.hash = (self.hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.completions += 1;
    }
}

/// One queue group's rings: the host pair registered on the device, the
/// router's ends as a binding, the guest's ends returned.
fn queue_group(ssd: &mut SimSsd, mem: &Arc<GuestMemory>) -> (QueueBinding, SqProducer, CqConsumer) {
    let (vsq_p, vsq_c) = SqPair::new(256);
    let (vcq_p, vcq_c) = CqPair::new(256);
    let (hsq_p, hsq_c) = SqPair::new(256);
    let (hcq_p, hcq_c) = CqPair::new(256);
    ssd.add_queue(hsq_c, hcq_p, mem.clone(), CompletionMode::Polled);
    let binding = QueueBinding {
        vsqs: vec![vsq_c],
        vcqs: vec![vcq_p],
        hsq: hsq_p,
        hcq: hcq_c,
        kernel: None,
        notify: None,
        classifier: Classifier::Native(Box::new(AlwaysFast)),
    };
    (binding, vsq_p, vcq_c)
}

fn ssd(seed: u64) -> SimSsd {
    SimSsd::new(
        "ssd",
        SsdConfig {
            capacity_lbas: 1 << 24,
            move_data: false,
            seed,
            ..Default::default()
        },
    )
}

/// A seeded reader on one queue pair: closed loop at depth `qd`, or with
/// `mean_gap > 0` an open loop of exponential gaps capped at `qd` in
/// flight. Reads 4 KiB from `slots` aligned slots starting at `base`.
struct Guest {
    vm: u32,
    sq: SqProducer,
    cq: CqConsumer,
    qd: usize,
    mean_gap: f64,
    next_at: Ns,
    deadline: Ns,
    outstanding: usize,
    next_cid: u16,
    rng: SimRng,
    base: u64,
    slots: u64,
    trace: Rc<RefCell<Trace>>,
}

impl Guest {
    fn submit(&mut self) -> bool {
        let lba = (self.base + self.rng.below(self.slots)) * 8;
        let mut cmd = SubmissionEntry::read(1, lba, 8, 0x1000, 0);
        cmd.cid = self.next_cid;
        if self.sq.push(cmd).is_err() {
            return false;
        }
        self.next_cid = self.next_cid.wrapping_add(1);
        self.outstanding += 1;
        true
    }

    fn step(&mut self, now: Ns) -> bool {
        let mut progressed = false;
        while let Some(cqe) = self.cq.pop() {
            self.trace.borrow_mut().note(self.vm, cqe.cid, now);
            self.outstanding -= 1;
            progressed = true;
        }
        while now < self.deadline && self.outstanding < self.qd {
            if self.mean_gap > 0.0 {
                if now < self.next_at {
                    break;
                }
                self.next_at = now + 1 + self.rng.exp(self.mean_gap) as Ns;
            }
            if !self.submit() {
                break;
            }
            progressed = true;
        }
        progressed
    }
}

impl Actor for Guest {
    fn name(&self) -> &str {
        "guest"
    }

    fn poll(&mut self, now: Ns) -> Progress {
        if self.step(now) {
            Progress::Busy
        } else {
            Progress::Idle
        }
    }

    fn next_event(&self) -> Option<Ns> {
        (self.mean_gap > 0.0 && self.next_at < self.deadline).then_some(self.next_at)
    }
}

/// 256 tenants on 4 shards under the fleet scheduler with coalescing and
/// telemetry on: most tenants trickle, eight flood against a token bucket
/// (throttled), eight flood against the DRR quantum alone (preempted).
#[test]
fn fleet_256_tenants_4_shards_matches_the_full_scan() {
    const TENANTS: u32 = 256;
    let telemetry = Telemetry::enabled();
    let mem = Arc::new(GuestMemory::new(1 << 20));
    let mut ssd = ssd(0x51);
    let mut fleet = FleetConfig::default().quantum(2);
    for tenant in 0..8 {
        fleet = fleet.tenant(TenantSpec {
            tenant,
            weight: 1,
            rate: Some(RateLimit {
                iops: 40_000,
                burst: 4,
            }),
        });
    }
    let mut builder = RouterBuilder::new("router")
        .shards(4)
        .table_capacity(4096)
        .telemetry(&telemetry)
        .fleet(fleet)
        .coalesce(CoalesceConfig::default());
    let trace = Rc::new(RefCell::new(Trace::default()));
    let mut ex = Executor::new();
    let mut rng = SimRng::new(0xf1ee7);
    for vm in 0..TENANTS {
        let (binding, sq, cq) = queue_group(&mut ssd, &mem);
        builder = builder.vm(EngineVm {
            vm_id: vm,
            mem: mem.clone(),
            partition: Partition::whole(1 << 24),
            queues: vec![binding],
        });
        let flooder = vm < 16;
        ex.add(Box::new(Guest {
            vm,
            sq,
            cq,
            qd: if flooder { 24 } else { 4 },
            mean_gap: if flooder {
                0.0
            } else {
                (200 * US + rng.below(2 * MS)) as f64
            },
            next_at: rng.below(500 * US),
            deadline: 10 * MS,
            outstanding: 0,
            next_cid: 0,
            rng: SimRng::new(0x9000 + vm as u64),
            // Half the reads hit a 32-slot set every tenant shares.
            base: if vm % 2 == 0 {
                0
            } else {
                1024 + vm as u64 * 64
            },
            slots: if vm % 2 == 0 { 32 } else { 64 },
            trace: trace.clone(),
        }));
    }
    let engine = builder.build();
    engine.run_virtual(&mut ex);
    ex.add(Box::new(ssd));
    ex.run(20 * MS);
    let snap = telemetry.snapshot();
    assert!(snap.get(Metric::ThrottleApplied) > 0);
    assert!(snap.get(Metric::SchedulerPreemptions) > 0);
    assert!(snap.get(Metric::CoalescedReads) > 0);
    let t = trace.borrow();
    assert_eq!(
        (t.completions, t.hash),
        (FLEET_GOLDEN.0, FLEET_GOLDEN.1),
        "fleet run diverged from the full-scan router"
    );
}

/// One VM, four queue groups on two shards, QD 32 each (128 in all), a
/// batch of 8 so drains keep hitting their bound, device jitter on.
#[test]
fn sharded_qd128_matches_the_full_scan() {
    let mem = Arc::new(GuestMemory::new(1 << 20));
    let mut ssd = ssd(0x52);
    let trace = Rc::new(RefCell::new(Trace::default()));
    let mut ex = Executor::new();
    let mut queues = Vec::new();
    for group in 0..4u32 {
        let (binding, sq, cq) = queue_group(&mut ssd, &mem);
        queues.push(binding);
        ex.add(Box::new(Guest {
            vm: group,
            sq,
            cq,
            qd: 32,
            mean_gap: 0.0,
            next_at: 0,
            deadline: 4 * MS,
            outstanding: 0,
            next_cid: 0,
            rng: SimRng::new(0x7000 + group as u64),
            base: group as u64 * 4096,
            slots: 4096,
            trace: trace.clone(),
        }));
    }
    let engine = RouterBuilder::new("router")
        .shards(2)
        .policy(EnginePolicy {
            batch: 8,
            ..Default::default()
        })
        .vm(EngineVm {
            vm_id: 0,
            mem,
            partition: Partition::whole(1 << 24),
            queues,
        })
        .build();
    engine.run_virtual(&mut ex);
    ex.add(Box::new(ssd));
    ex.run(10 * MS);
    let t = trace.borrow();
    assert_eq!(
        (t.completions, t.hash),
        (SHARDED_GOLDEN.0, SHARDED_GOLDEN.1),
        "sharded QD-128 run diverged from the full-scan router"
    );
}

/// One VM on a governed (adaptive-poll) shard, driven by hand in 5 µs
/// steps: a shard-wide admission quiesce from 200 µs to 400 µs, a pause
/// of the VM alone from 600 µs to 700 µs, then a drain.
#[test]
fn one_vm_with_a_quiesce_in_the_middle_matches_the_full_scan() {
    let mem = Arc::new(GuestMemory::new(1 << 20));
    let mut ssd = ssd(0x53);
    let (binding, sq, cq) = queue_group(&mut ssd, &mem);
    let mut engine: Engine = RouterBuilder::new("router")
        .policy(EnginePolicy {
            poll: PollPolicy::adaptive(),
            ..Default::default()
        })
        .vm(EngineVm {
            vm_id: 7,
            mem,
            partition: Partition::whole(1 << 24),
            queues: vec![binding],
        })
        .build();
    let trace = Rc::new(RefCell::new(Trace::default()));
    let mut guest = Guest {
        vm: 7,
        sq,
        cq,
        qd: 16,
        mean_gap: 0.0,
        next_at: 0,
        deadline: MS,
        outstanding: 0,
        next_cid: 0,
        rng: SimRng::new(0x5eed),
        base: 0,
        slots: 1 << 16,
        trace: trace.clone(),
    };
    let mut now: Ns = 0;
    while now < 2 * MS {
        match now / US {
            200 => engine.begin_quiesce(),
            400 => engine.resume_admission(),
            600 => engine.pause_vm(7).expect("vm 7 is bound"),
            700 => engine.resume_vm(7).expect("vm 7 is bound"),
            _ => {}
        }
        guest.step(now);
        engine.poll_all(now);
        ssd.poll(now);
        now += 5 * US;
    }
    assert_eq!(guest.outstanding, 0, "the run must drain");
    assert!(engine.stats().total.completed > 100);
    let t = trace.borrow();
    assert_eq!(
        (t.completions, t.hash),
        (QUIESCE_GOLDEN.0, QUIESCE_GOLDEN.1),
        "quiesced run diverged from the full-scan router"
    );
}

/// `(completions, hash)` of each rig at commit dc44463.
const FLEET_GOLDEN: (u64, u64) = (5731, 8455549642560598981);
const SHARDED_GOLDEN: (u64, u64) = (944, 1149594259184332807);
const QUIESCE_GOLDEN: (u64, u64) = (147, 15527889743866568180);
