//! Adaptive-datapath integration: the poll governor's park/wake cycle
//! against live doorbells, exactly-once delivery with parking enabled,
//! and the policy's survival through servicing (snapshot bytes, restore,
//! reshard).
//!
//! The invariants under test:
//!
//! * **A parked shard never sleeps through a doorbell** — the moment work
//!   is visible on a parked shard's queues, `next_event_all` reports a
//!   wakeup deadline, so a manual-drive loop (or the executor) wakes it
//!   within the modeled wakeup latency instead of stalling forever.
//! * **Park/wake loses and reorders nothing** — across seeded arrival
//!   patterns with long idle gaps, the adaptive engine delivers exactly
//!   the same completion sequence as the always-spin engine.
//! * **Policy round-trips through servicing** — the `EnginePolicy` an
//!   engine was built with survives `ServiceState::to_bytes`/`from_bytes`
//!   and governs the restored engine, including across a 2→4 reshard.

use nvmetro::core::classify::{verdict_bits, Classifier, NativeClassifier, RequestCtx, Verdict};
use nvmetro::core::engine::{Engine, EngineVm, QueueBinding, RouterBuilder};
use nvmetro::core::policy::{EnginePolicy, PollPolicy};
use nvmetro::core::{Partition, PollMode, ServiceState};
use nvmetro::device::{CompletionMode, SimSsd, SsdConfig};
use nvmetro::mem::GuestMemory;
use nvmetro::nvme::{CqConsumer, CqPair, SqPair, SqProducer, SubmissionEntry};
use nvmetro::sim::cost::CostModel;
use nvmetro::sim::{Actor, Ns, MS, US};
use nvmetro::telemetry::{Metric, Telemetry};
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

/// One fast-path queue group plus its guest-side ends.
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

/// Single-VM engine over `queue_pairs` groups under `policy`.
#[allow(clippy::type_complexity)]
fn build_rig(
    shards: usize,
    queue_pairs: usize,
    policy: EnginePolicy,
    telemetry: &Telemetry,
) -> (Engine, SimSsd, Vec<(SqProducer, CqConsumer)>) {
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
    let mut guest_ends = Vec::new();
    let mut queues = Vec::new();
    for _ in 0..queue_pairs {
        let (binding, sq, cq) = queue_group(&mut ssd, &mem);
        queues.push(binding);
        guest_ends.push((sq, cq));
    }
    let engine = RouterBuilder::new("router")
        .cost(cost)
        .shards(shards)
        .policy(policy)
        .table_capacity(2048)
        .telemetry(telemetry)
        .vm(EngineVm {
            vm_id: 0,
            mem,
            partition: Partition::whole(1 << 20),
            queues,
        })
        .build();
    (engine, ssd, guest_ends)
}

/// Drives engine + device at `now`, draining the guest CQ into `out`.
fn pump(engine: &mut Engine, ssd: &mut SimSsd, cq: &CqConsumer, out: &mut Vec<u16>, now: Ns) {
    engine.poll_all(now);
    ssd.poll(now);
    while let Some(cqe) = cq.pop() {
        assert!(!cqe.status().is_error());
        out.push(cqe.cid);
    }
}

#[test]
fn parked_shard_never_sleeps_through_a_doorbell() {
    let telemetry = Telemetry::enabled();
    let policy = EnginePolicy::new().poll(PollPolicy::Adaptive {
        idle_spin: 8 * US,
        park_after: 64 * US,
    });
    let (mut engine, mut ssd, mut ends) = build_rig(1, 1, policy, &telemetry);
    let (sq, cq) = ends.pop().unwrap();
    let mut done = Vec::new();

    // Warm up: complete one read so the shard has seen work.
    let mut cmd = SubmissionEntry::read(1, 0, 8, 0x1000, 0);
    cmd.cid = 0;
    sq.push(cmd).unwrap();
    let mut now: Ns = 0;
    while done.is_empty() {
        pump(&mut engine, &mut ssd, &cq, &mut done, now);
        now += US;
        assert!(now < 10 * MS, "warm-up read never completed");
    }

    // Go idle until the governor parks the shard.
    while engine.stats().poll_modes[0] != PollMode::Parked {
        now += 5 * US;
        pump(&mut engine, &mut ssd, &cq, &mut done, now);
        assert!(now < 10 * MS, "shard never parked while idle");
    }
    // A parked shard with nothing visible schedules nothing: idle costs
    // zero virtual CPU and zero spurious wakeups.
    assert_eq!(engine.next_event_all(), None);

    // Ring the doorbell while parked. The wakeup deadline must appear in
    // next_event_all *without* any poll happening first — that is the
    // regression: a drive loop sleeping on next_event_all wakes up.
    let rang_at = now + 30 * US;
    let mut cmd = SubmissionEntry::read(1, 64, 8, 0x1000, 0);
    cmd.cid = 1;
    sq.push(cmd).unwrap();
    let wake = engine
        .next_event_all()
        .expect("parked shard with a pending doorbell must schedule a wakeup");
    assert!(
        wake <= rang_at + deterministic_cost().adaptive_wakeup,
        "wakeup {wake} too far past the doorbell at {rang_at}"
    );

    // Sleep-until-next-event drive: no fixed-step polling allowed.
    now = rang_at;
    for _ in 0..10_000 {
        if done.len() == 2 {
            break;
        }
        let ev = match (engine.next_event_all(), ssd.next_event()) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => now + US,
        };
        now = now.max(ev).max(now + 1);
        pump(&mut engine, &mut ssd, &cq, &mut done, now);
    }
    assert_eq!(done, vec![0, 1], "doorbell read must complete after a wake");
    assert!(
        now < rang_at + MS,
        "wake latency blew up: completed at {now} for a doorbell at {rang_at}"
    );
    let snap = telemetry.snapshot();
    assert!(snap.get(Metric::ShardParks) >= 1, "no park observed");
    assert!(snap.get(Metric::ShardWakes) >= 1, "no wake observed");
}

#[test]
fn park_wake_never_loses_or_reorders_completions() {
    const N: u16 = 300;
    // Seeded arrival patterns with long idle gaps (forcing park/wake
    // cycles) must deliver the identical completion sequence the
    // always-spin engine delivers.
    for seed in [0x00C0_FFEEu64, 0x00BE_EF01, 0x005E_ED42] {
        let mut sequences = Vec::new();
        for adaptive in [false, true] {
            let telemetry = Telemetry::enabled();
            let policy = if adaptive {
                EnginePolicy::new().poll(PollPolicy::adaptive())
            } else {
                EnginePolicy::new()
            };
            let (mut engine, mut ssd, mut ends) = build_rig(1, 1, policy, &telemetry);
            let (sq, cq) = ends.pop().unwrap();
            let mut done = Vec::new();
            let mut now: Ns = 0;
            let mut rng = seed | 1;
            for i in 0..N {
                // xorshift gaps: mostly back-to-back, every ~8th arrival
                // preceded by a long idle gap that outlives park_after.
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                let gap = if rng % 8 == 0 { 200 * US } else { 2 * US };
                now += gap;
                // A long gap really is quiet: first let the in-flight
                // tail drain (a poll that still finds due work counts
                // as busy and blocks parking), then poll once late in
                // the gap with nothing pending — that idle visit is
                // where the governor measures the quiet spell and
                // parks. The spin engine runs the same drive, keeping
                // the two completion sequences comparable.
                if gap > 100 * US {
                    let mut t = now - gap;
                    for _ in 0..10_000 {
                        let ev = match (engine.next_event_all(), ssd.next_event()) {
                            (Some(a), Some(b)) => Some(a.min(b)),
                            (a, b) => a.or(b),
                        };
                        match ev {
                            Some(ev) if ev < now - US => {
                                t = t.max(ev).max(t + 1);
                                pump(&mut engine, &mut ssd, &cq, &mut done, t);
                            }
                            _ => break,
                        }
                    }
                    pump(&mut engine, &mut ssd, &cq, &mut done, now - US);
                }
                let mut cmd = SubmissionEntry::read(1, i as u64 * 8, 8, 0x1000, 0);
                cmd.cid = i;
                sq.push(cmd).unwrap();
                pump(&mut engine, &mut ssd, &cq, &mut done, now);
            }
            // Drain: sleep-until-next-event like a real drive loop.
            for _ in 0..100_000 {
                if done.len() == N as usize {
                    break;
                }
                let ev = match (engine.next_event_all(), ssd.next_event()) {
                    (Some(a), Some(b)) => a.min(b),
                    (Some(a), None) => a,
                    (None, Some(b)) => b,
                    (None, None) => now + US,
                };
                now = now.max(ev).max(now + 1);
                pump(&mut engine, &mut ssd, &cq, &mut done, now);
            }
            assert_eq!(
                done.len(),
                N as usize,
                "seed {seed:#x} adaptive={adaptive}: lost completions"
            );
            if adaptive {
                let snap = telemetry.snapshot();
                assert!(
                    snap.get(Metric::ShardParks) >= 1,
                    "seed {seed:#x}: the gap pattern must actually park the shard"
                );
            }
            sequences.push(done);
        }
        assert_eq!(
            sequences[0], sequences[1],
            "seed {seed:#x}: adaptive engine reordered completions vs spin"
        );
    }
}

#[test]
fn policy_survives_snapshot_bytes_restore_and_reshard() {
    let telemetry = Telemetry::enabled();
    let policy = EnginePolicy::new()
        .poll(PollPolicy::Adaptive {
            idle_spin: 8 * US,
            park_after: 64 * US,
        })
        .batch(16);
    let (mut engine, mut ssd, ends) = build_rig(2, 4, policy, &telemetry);
    assert_eq!(engine.policy(), &policy);
    assert_eq!(engine.stats().batch_sizes, [16; 2]);

    // Some traffic on every queue pair, then quiesce.
    for (qp, (sq, _)) in ends.iter().enumerate() {
        for i in 0..8u16 {
            let mut cmd = SubmissionEntry::read(1, qp as u64 * 4096 + i as u64 * 8, 8, 0x1000, 0);
            cmd.cid = i;
            sq.push(cmd).unwrap();
        }
    }
    let mut now: Ns = 0;
    let mut delivered = 0usize;
    let pump_all = |engine: &mut Engine, ssd: &mut SimSsd, now: Ns, delivered: &mut usize| {
        engine.poll_all(now);
        ssd.poll(now);
        for (_, cq) in &ends {
            while let Some(cqe) = cq.pop() {
                assert!(!cqe.status().is_error());
                *delivered += 1;
            }
        }
    };
    engine.begin_quiesce();
    while !engine.quiesced() {
        now += US;
        pump_all(&mut engine, &mut ssd, now, &mut delivered);
        assert!(now < 100 * MS, "quiesce never converged");
    }

    // Snapshot → bytes → parse: the policy is in the blob.
    let (state, parts) = engine.snapshot(now);
    assert_eq!(state.policy, policy);
    let bytes = state.to_bytes();
    let state = ServiceState::from_bytes(&bytes).expect("blob round-trips");
    assert_eq!(state.policy, policy);

    // Restore 2 → 4 shards: the snapshot's policy governs every shard of
    // the new engine.
    let mut engine = Engine::restore_with_shards(parts, &state, 4, now).expect("reshard restore");
    assert_eq!(engine.policy(), &policy);
    let stats = engine.stats();
    assert_eq!(stats.poll_modes.len(), 4);
    assert_eq!(stats.batch_sizes, [16; 4]);

    // The restored engine still serves I/O under the restored policy.
    engine.resume_admission();
    for (qp, (sq, _)) in ends.iter().enumerate() {
        let mut cmd = SubmissionEntry::read(1, qp as u64 * 4096, 8, 0x1000, 0);
        cmd.cid = 100;
        sq.push(cmd).unwrap();
    }
    let before = delivered;
    while delivered < before + ends.len() {
        now += US;
        pump_all(&mut engine, &mut ssd, now, &mut delivered);
        assert!(now < 200 * MS, "post-restore reads never completed");
    }
}
