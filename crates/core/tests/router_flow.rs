//! End-to-end router tests: VM queues → router → classifier → paths →
//! completion, in virtual time.

use nvmetro_core::classify::{
    classifier_verifier_config, ctx_offsets, verdict_bits, Classifier, NativeClassifier,
    RequestCtx, Verdict,
};
use nvmetro_core::router::{KernelPath, NotifyBinding, Router, VmBinding};
use nvmetro_core::uif::{Uif, UifDisposition, UifRequest, UifRunner};
use nvmetro_core::{passthrough_program, Partition, VirtualController, VmConfig};
use nvmetro_device::{CompletionMode, SimSsd, SsdConfig};
use nvmetro_nvme::{CqPair, SqPair, Status, SubmissionEntry};
use nvmetro_sim::cost::CostModel;
use nvmetro_sim::Executor;
use std::sync::Arc;

struct Rig {
    ex: Executor,
    guest_sq: nvmetro_nvme::SqProducer,
    guest_cq: nvmetro_nvme::CqConsumer,
    mem: Arc<nvmetro_mem::GuestMemory>,
    store: Arc<nvmetro_device::BlockStore>,
}

/// Builds a single-VM rig: guest queues → router → device, with the given
/// classifier and optional notify-path UIF.
fn build_rig(classifier: Classifier, uif: Option<Box<dyn Uif>>, partition: Partition) -> Rig {
    let cost = CostModel::default();
    let mut ssd = SimSsd::new(
        "ssd",
        SsdConfig {
            capacity_lbas: 1 << 20,
            ..Default::default()
        },
    );
    let store = ssd.store();

    let mut vc = VirtualController::new(VmConfig {
        id: 0,
        mem_bytes: 1 << 26,
        queue_pairs: 1,
        queue_depth: 256,
        partition,
    });
    let mem = vc.memory();
    let (guest_sq, guest_cq) = vc.take_guest_queue(0);
    let (vsqs, vcqs) = vc.take_router_queues();

    // Fast path queues.
    let (hsq_p, hsq_c) = SqPair::new(256);
    let (hcq_p, hcq_c) = CqPair::new(256);
    ssd.add_queue(hsq_c, hcq_p, mem.clone(), CompletionMode::Polled);

    let mut router = Router::new("router", cost.clone(), 1024);
    let mut ex = Executor::new();

    let notify = if let Some(uif) = uif {
        let (nsq_p, nsq_c) = SqPair::new(256);
        let (ncq_p, ncq_c) = CqPair::new(256);
        // UIF backend queue pair on the same device.
        let (bsq_p, bsq_c) = SqPair::new(256);
        let (bcq_p, bcq_c) = CqPair::new(256);
        let host_mem = Arc::new(nvmetro_mem::GuestMemory::new(1 << 26));
        ssd.add_queue(bsq_c, bcq_p, host_mem.clone(), CompletionMode::Polled);
        let runner = UifRunner::new(
            "uif",
            cost.clone(),
            nsq_c,
            ncq_p,
            mem.clone(),
            (bsq_p, bcq_c),
            host_mem,
            uif,
            2,
            true,
        );
        ex.add(Box::new(runner));
        Some(NotifyBinding {
            nsq: nsq_p,
            ncq: ncq_c,
        })
    } else {
        None
    };

    router.bind_vm(VmBinding {
        vm_id: 0,
        mem: mem.clone(),
        partition,
        vsqs,
        vcqs,
        hsq: hsq_p,
        hcq: hcq_c,
        kernel: None,
        notify,
        classifier,
    });
    ex.add(Box::new(router));
    ex.add(Box::new(ssd));
    Rig {
        ex,
        guest_sq,
        guest_cq,
        mem,
        store,
    }
}

fn whole() -> Partition {
    Partition::whole(1 << 20)
}

fn write_cmd(rig: &Rig, slba: u64, data: &[u8]) -> SubmissionEntry {
    let gpa = rig.mem.alloc(data.len());
    rig.mem.write(gpa, data);
    let (p1, p2) = nvmetro_mem::build_prps(&rig.mem, gpa, data.len());
    SubmissionEntry::write(1, slba, (data.len() / 512) as u32, p1, p2)
}

fn read_cmd(rig: &Rig, slba: u64, len: usize) -> (SubmissionEntry, u64) {
    let gpa = rig.mem.alloc(len);
    let (p1, p2) = nvmetro_mem::build_prps(&rig.mem, gpa, len);
    (
        SubmissionEntry::read(1, slba, (len / 512) as u32, p1, p2),
        gpa,
    )
}

#[test]
fn passthrough_write_read_round_trip() {
    let mut rig = build_rig(Classifier::Bpf(passthrough_program()), None, whole());
    let data = vec![0x5Au8; 1024];
    let mut w = write_cmd(&rig, 100, &data);
    w.cid = 1;
    rig.guest_sq.push(w).unwrap();
    rig.ex.run(u64::MAX);
    let cqe = rig.guest_cq.pop().expect("write completion");
    assert_eq!(cqe.cid, 1);
    assert_eq!(cqe.status(), Status::SUCCESS);
    assert_eq!(rig.store.read_vec(100, 2), data);

    let (mut r, gpa) = read_cmd(&rig, 100, 1024);
    r.cid = 2;
    rig.guest_sq.push(r).unwrap();
    rig.ex.run(u64::MAX);
    let cqe = rig.guest_cq.pop().expect("read completion");
    assert_eq!(cqe.cid, 2);
    assert_eq!(rig.mem.read_vec(gpa, 1024), data);
}

#[test]
fn qd1_latency_matches_device_plus_router_costs() {
    let mut rig = build_rig(Classifier::Bpf(passthrough_program()), None, whole());
    let (cmd, _) = read_cmd(&rig, 0, 512);
    rig.guest_sq.push(cmd).unwrap();
    let report = rig.ex.run(u64::MAX);
    let cost = CostModel::default();
    let min = cost.ssd_read_lat / 2;
    let max = cost.ssd_read_lat * 2;
    assert!(
        report.duration > min && report.duration < max,
        "completion at {} should be near device latency {}",
        report.duration,
        cost.ssd_read_lat
    );
}

#[test]
fn lba_translating_classifier_mediates_commands() {
    // Classifier adds a partition offset to every LBA (Section III-C's
    // direct-mediation example) — written in vbpf.
    use nvmetro_vbpf::isa::*;
    let mut b = nvmetro_vbpf::ProgramBuilder::new();
    b.ldx(SIZE_DW, R2, R1, ctx_offsets::SLBA)
        .add64_imm(R2, 5000)
        .stx(SIZE_DW, R1, ctx_offsets::SLBA, R2)
        .lddw(R0, verdict_bits::SEND_HQ | verdict_bits::WILL_COMPLETE_HQ)
        .exit();
    let (insns, maps) = b.build();
    let vm = nvmetro_vbpf::Vm::new(
        nvmetro_vbpf::verify(insns, maps, &classifier_verifier_config()).unwrap(),
    );
    let mut rig = build_rig(Classifier::Bpf(vm), None, whole());
    let data = vec![0x77u8; 512];
    rig.guest_sq.push(write_cmd(&rig, 10, &data)).unwrap();
    rig.ex.run(u64::MAX);
    assert_eq!(rig.guest_cq.pop().unwrap().status(), Status::SUCCESS);
    // Data landed at the *translated* LBA.
    assert_eq!(rig.store.read_vec(5010, 1), data);
    assert!(rig.store.read_vec(10, 1).iter().all(|&b| b == 0));
}

#[test]
fn partition_bounds_are_enforced_by_the_router() {
    // Passthrough classifier does NOT translate; the guest's raw LBA lands
    // outside its partition and the router must reject it even though the
    // classifier said SEND_HQ.
    let partition = Partition {
        lba_offset: 1000,
        lba_count: 100,
    };
    let mut rig = build_rig(Classifier::Bpf(passthrough_program()), None, partition);
    let (cmd, _) = read_cmd(&rig, 5, 512); // physical LBA 5 < 1000
    rig.guest_sq.push(cmd).unwrap();
    rig.ex.run(u64::MAX);
    assert_eq!(
        rig.guest_cq.pop().unwrap().status(),
        Status::LBA_OUT_OF_RANGE
    );
}

#[test]
fn complete_verdict_short_circuits_without_touching_device() {
    struct Reject;
    impl NativeClassifier for Reject {
        fn classify(&mut self, _ctx: &mut RequestCtx) -> Verdict {
            Verdict(Status::INVALID_OPCODE.0 as u64 | verdict_bits::COMPLETE)
        }
    }
    let mut rig = build_rig(Classifier::Native(Box::new(Reject)), None, whole());
    let (cmd, _) = read_cmd(&rig, 0, 512);
    rig.guest_sq.push(cmd).unwrap();
    let report = rig.ex.run(u64::MAX);
    assert_eq!(rig.guest_cq.pop().unwrap().status(), Status::INVALID_OPCODE);
    // No device round trip: the run is much shorter than a device read.
    assert!(report.duration < CostModel::default().ssd_read_lat / 2);
}

#[test]
fn classifier_with_no_action_fails_closed() {
    struct Lost;
    impl NativeClassifier for Lost {
        fn classify(&mut self, _ctx: &mut RequestCtx) -> Verdict {
            Verdict(0)
        }
    }
    let mut rig = build_rig(Classifier::Native(Box::new(Lost)), None, whole());
    let (cmd, _) = read_cmd(&rig, 0, 512);
    rig.guest_sq.push(cmd).unwrap();
    rig.ex.run(u64::MAX);
    assert_eq!(rig.guest_cq.pop().unwrap().status(), Status::PATH_ERROR);
}

/// A UIF that uppercases data on writes before passing it to disk itself,
/// and a classifier that routes writes through it — exercising the notify
/// path, backend io_uring writes, and asynchronous responses.
struct XorUif {
    key: u8,
    offset: u64,
}

impl Uif for XorUif {
    fn work(&mut self, req: &mut UifRequest<'_>) -> UifDisposition {
        match req.opcode() {
            Some(nvmetro_nvme::NvmOpcode::Write) => {
                let mut data = match req.read_guest() {
                    Ok(data) => data,
                    Err(status) => return UifDisposition::Respond(status),
                };
                for b in &mut data {
                    *b ^= self.key;
                }
                let slba = req.cmd.slba() + self.offset;
                let nlb = req.cmd.nlb();
                let tag = req.tag;
                req.io().write(slba, nlb, Some(&data), tag as u64);
                UifDisposition::Async
            }
            Some(nvmetro_nvme::NvmOpcode::Read) => {
                // In-place transform of data the device already delivered.
                let done = req.modify_guest(|data| {
                    for b in data {
                        *b ^= self.key;
                    }
                });
                match done {
                    Ok(()) => UifDisposition::Respond(Status::SUCCESS),
                    Err(status) => UifDisposition::Respond(status),
                }
            }
            _ => UifDisposition::Respond(Status::INVALID_OPCODE),
        }
    }
}

/// Classifier mirroring Listing 1: reads go device-then-UIF (hook), writes
/// go to the UIF which finishes them (WILL_COMPLETE_NQ).
struct ListingOneClassifier;

impl NativeClassifier for ListingOneClassifier {
    fn classify(&mut self, ctx: &mut RequestCtx) -> Verdict {
        use verdict_bits::*;
        match ctx.current_hook() {
            nvmetro_core::HOOK_VSQ => match ctx.opcode() {
                0x02 => Verdict(SEND_HQ | HOOK_HCQ),
                0x01 => Verdict(SEND_NQ | WILL_COMPLETE_NQ),
                _ => Verdict(SEND_HQ | WILL_COMPLETE_HQ),
            },
            nvmetro_core::HOOK_HCQ => {
                if ctx.error().is_error() {
                    Verdict(ctx.error().0 as u64 | COMPLETE)
                } else {
                    Verdict(SEND_NQ | WILL_COMPLETE_NQ)
                }
            }
            _ => Verdict(Status::INTERNAL.0 as u64 | COMPLETE),
        }
    }
}

#[test]
fn notify_path_transforms_writes_and_reads() {
    let key = 0xA5;
    let mut rig = build_rig(
        Classifier::Native(Box::new(ListingOneClassifier)),
        Some(Box::new(XorUif { key, offset: 0 })),
        whole(),
    );
    let plain = vec![0x10u8; 512];
    let mut w = write_cmd(&rig, 77, &plain);
    w.cid = 5;
    rig.guest_sq.push(w).unwrap();
    rig.ex.run(u64::MAX);
    assert_eq!(rig.guest_cq.pop().unwrap().status(), Status::SUCCESS);
    // On disk: transformed (the UIF wrote it through its own backend queue).
    let on_disk = rig.store.read_vec(77, 1);
    assert!(on_disk.iter().all(|&b| b == 0x10 ^ key));

    // Read back: device delivers ciphertext, UIF untransforms in place.
    let (mut r, gpa) = read_cmd(&rig, 77, 512);
    r.cid = 6;
    rig.guest_sq.push(r).unwrap();
    rig.ex.run(u64::MAX);
    assert_eq!(rig.guest_cq.pop().unwrap().status(), Status::SUCCESS);
    assert_eq!(rig.mem.read_vec(gpa, 512), plain);
}

#[test]
fn multicast_completes_only_when_all_targets_finish() {
    // Writes go to BOTH the device and the UIF (mirror-style):
    // WILL_COMPLETE on both paths.
    struct Mirror;
    impl NativeClassifier for Mirror {
        fn classify(&mut self, ctx: &mut RequestCtx) -> Verdict {
            use verdict_bits::*;
            if ctx.opcode() == 0x01 {
                Verdict(SEND_HQ | SEND_NQ | WILL_COMPLETE_HQ | WILL_COMPLETE_NQ)
            } else {
                Verdict(SEND_HQ | WILL_COMPLETE_HQ)
            }
        }
    }
    // The UIF mirrors writes to a shifted LBA region on the same disk.
    let mut rig = build_rig(
        Classifier::Native(Box::new(Mirror)),
        Some(Box::new(XorUif {
            key: 0, // pure copy
            offset: 500_000,
        })),
        whole(),
    );
    let data = vec![0xEEu8; 512];
    rig.guest_sq.push(write_cmd(&rig, 42, &data)).unwrap();
    rig.ex.run(u64::MAX);
    let cqe = rig.guest_cq.pop().expect("completed after both legs");
    assert_eq!(cqe.status(), Status::SUCCESS);
    // Both replicas present.
    assert_eq!(rig.store.read_vec(42, 1), data);
    assert_eq!(rig.store.read_vec(500_042, 1), data);
}

#[test]
fn device_error_propagates_through_hook() {
    // Read beyond the device: classifier's HOOK_HCQ sees the error and
    // forwards it (line 8 of Listing 1).
    let mut rig = build_rig(
        Classifier::Native(Box::new(ListingOneClassifier)),
        Some(Box::new(XorUif { key: 1, offset: 0 })),
        Partition::whole(u64::MAX), // let the router pass it through
    );
    let (cmd, _) = read_cmd(&rig, (1 << 20) + 5, 512); // beyond capacity
    rig.guest_sq.push(cmd).unwrap();
    rig.ex.run(u64::MAX);
    assert_eq!(
        rig.guest_cq.pop().unwrap().status(),
        Status::LBA_OUT_OF_RANGE
    );
}

#[test]
fn on_the_fly_classifier_replacement() {
    let kernel_none: Option<Box<dyn KernelPath>> = None;
    drop(kernel_none); // silence unused-trait-import style lints

    struct RejectAll;
    impl NativeClassifier for RejectAll {
        fn classify(&mut self, _ctx: &mut RequestCtx) -> Verdict {
            Verdict(Status::INVALID_OPCODE.0 as u64 | verdict_bits::COMPLETE)
        }
    }

    // Build a rig, run one I/O through passthrough, then hot-swap the
    // classifier and observe the behavior change without any rebind.
    let cost = CostModel::default();
    let mut ssd = SimSsd::new("ssd", SsdConfig::default());
    let mut vc = VirtualController::new(VmConfig {
        mem_bytes: 1 << 24,
        ..Default::default()
    });
    let mem = vc.memory();
    let (guest_sq, guest_cq) = vc.take_guest_queue(0);
    let (vsqs, vcqs) = vc.take_router_queues();
    let (hsq_p, hsq_c) = SqPair::new(64);
    let (hcq_p, hcq_c) = CqPair::new(64);
    ssd.add_queue(hsq_c, hcq_p, mem.clone(), CompletionMode::Polled);
    let mut router = Router::new("router", cost, 64);
    let vm = router.bind_vm(VmBinding {
        vm_id: 0,
        mem: mem.clone(),
        partition: Partition::whole(1 << 31),
        vsqs,
        vcqs,
        hsq: hsq_p,
        hcq: hcq_c,
        kernel: None,
        notify: None,
        classifier: Classifier::Bpf(passthrough_program()),
    });
    *router.classifier_mut(vm) = Classifier::Native(Box::new(RejectAll));

    let mut ex = Executor::new();
    ex.add(Box::new(router));
    ex.add(Box::new(ssd));
    guest_sq.push(SubmissionEntry::flush(1)).unwrap();
    ex.run(u64::MAX);
    assert_eq!(guest_cq.pop().unwrap().status(), Status::INVALID_OPCODE);
}

#[test]
fn a_replaced_classifier_mediates_with_its_own_footprint() {
    // The router keeps each installed classifier's write footprint. After a
    // request has run under passthrough (which writes nothing), a swap to a
    // translating classifier must have its LBA write copied back, not
    // dropped under the old, empty footprint.
    use nvmetro_sim::Actor;
    let mut ssd = SimSsd::new("ssd", SsdConfig::default());
    let store = ssd.store();
    let mut vc = VirtualController::new(VmConfig {
        mem_bytes: 1 << 24,
        ..Default::default()
    });
    let mem = vc.memory();
    let (guest_sq, guest_cq) = vc.take_guest_queue(0);
    let (vsqs, vcqs) = vc.take_router_queues();
    let (hsq_p, hsq_c) = SqPair::new(64);
    let (hcq_p, hcq_c) = CqPair::new(64);
    ssd.add_queue(hsq_c, hcq_p, mem.clone(), CompletionMode::Polled);
    let mut router = Router::new("router", CostModel::default(), 64);
    let vm = router.bind_vm(VmBinding {
        vm_id: 0,
        mem: mem.clone(),
        partition: Partition::whole(1 << 31),
        vsqs,
        vcqs,
        hsq: hsq_p,
        hcq: hcq_c,
        kernel: None,
        notify: None,
        classifier: Classifier::Bpf(passthrough_program()),
    });
    let mut now = 0;
    let mut write = |router: &mut Router, fill: u8| {
        let gpa = mem.alloc(512);
        mem.write(gpa, &[fill; 512]);
        guest_sq
            .push(SubmissionEntry::write(1, 10, 1, gpa, 0))
            .unwrap();
        // Driven by hand: the router stays reachable between requests.
        loop {
            now += 1_000;
            assert!(now < 1_000_000_000, "request never completed");
            router.poll(now);
            ssd.poll(now);
            if let Some(cqe) = guest_cq.pop() {
                assert_eq!(cqe.status(), Status::SUCCESS);
                return;
            }
        }
    };
    write(&mut router, 0x11);
    *router.classifier_mut(vm) = Classifier::Bpf(nvmetro_core::offset_program(5000));
    write(&mut router, 0x22);
    assert_eq!(store.read_vec(10, 1), vec![0x11; 512]);
    assert_eq!(store.read_vec(5010, 1), vec![0x22; 512]);
}
