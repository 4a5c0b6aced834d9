//! End-to-end tests of the paper's two storage functions over the full
//! NVMetro stack in virtual time: guest queues → router → vbpf classifier
//! → fast/notify paths → device(s) → UIF backend I/O.

use nvmetro_core::classify::Classifier;
use nvmetro_core::router::{NotifyBinding, Router, VmBinding};
use nvmetro_core::uif::UifRunner;
use nvmetro_core::{Partition, VirtualController, VmConfig};
use nvmetro_crypto::Xts;
use nvmetro_device::{BlockStore, CompletionMode, SimSsd, SsdConfig, Transport};
use nvmetro_functions::{
    build_encryptor_classifier, build_replicator_classifier, CryptoBackend, EncryptorUif,
    ReplicatorUif,
};
use nvmetro_mem::GuestMemory;
use nvmetro_nvme::{CqPair, SqPair, Status, SubmissionEntry};
use nvmetro_sim::cost::CostModel;
use nvmetro_sim::{Actor as _, Executor};
use std::sync::Arc;

const PART_OFFSET: u64 = 10_000;

struct Rig {
    ex: Executor,
    guest_sq: nvmetro_nvme::SqProducer,
    guest_cq: nvmetro_nvme::CqConsumer,
    mem: Arc<GuestMemory>,
    primary: Arc<BlockStore>,
    secondary: Option<Arc<BlockStore>>,
}

enum Function {
    Encryptor(CryptoBackend),
    Replicator,
}

fn build(function: Function) -> Rig {
    build_with(function, true)
}

/// `build` with the primary device's `move_data` chosen: a device that
/// moves no bytes completes commands without walking their PRPs.
fn build_with(function: Function, device_moves_data: bool) -> Rig {
    let cost = CostModel::default();
    let mut ssd = SimSsd::new(
        "ssd",
        SsdConfig {
            capacity_lbas: 1 << 20,
            move_data: device_moves_data,
            ..Default::default()
        },
    );
    let primary = ssd.store();

    let mut vc = VirtualController::new(VmConfig {
        id: 0,
        mem_bytes: 1 << 26,
        queue_pairs: 1,
        queue_depth: 256,
        partition: Partition {
            lba_offset: PART_OFFSET,
            lba_count: 100_000,
        },
    });
    let mem = vc.memory();
    let (guest_sq, guest_cq) = vc.take_guest_queue(0);
    let (vsqs, vcqs) = vc.take_router_queues();

    let (hsq_p, hsq_c) = SqPair::new(256);
    let (hcq_p, hcq_c) = CqPair::new(256);
    ssd.add_queue(hsq_c, hcq_p, mem.clone(), CompletionMode::Polled);

    let (nsq_p, nsq_c) = SqPair::new(256);
    let (ncq_p, ncq_c) = CqPair::new(256);
    let (bsq_p, bsq_c) = SqPair::new(256);
    let (bcq_p, bcq_c) = CqPair::new(256);
    let host_mem = Arc::new(GuestMemory::new(1 << 28));

    let mut ex = Executor::new();
    let mut secondary = None;

    let (classifier, uif, workers): (Classifier, Box<dyn nvmetro_core::Uif>, usize) = match function
    {
        Function::Encryptor(backend) => {
            // UIF backend writes ciphertext to the SAME device.
            ssd.add_queue(bsq_c, bcq_p, host_mem.clone(), CompletionMode::Polled);
            (
                Classifier::Bpf(build_encryptor_classifier(PART_OFFSET)),
                Box::new(EncryptorUif::new(backend, PART_OFFSET)),
                2,
            )
        }
        Function::Replicator => {
            // UIF backend goes to the REMOTE device over NVMe-oF.
            let mut remote = SimSsd::new(
                "remote",
                SsdConfig {
                    capacity_lbas: 1 << 20,
                    transport: Some(Transport {
                        one_way: 10_000,
                        per_byte: 0.1,
                    }),
                    ..Default::default()
                },
            );
            secondary = Some(remote.store());
            remote.add_queue(bsq_c, bcq_p, host_mem.clone(), CompletionMode::Polled);
            ex.add(Box::new(remote));
            (
                Classifier::Bpf(build_replicator_classifier(PART_OFFSET)),
                Box::new(ReplicatorUif::new()),
                1,
            )
        }
    };

    let runner = UifRunner::new(
        "uif",
        cost.clone(),
        nsq_c,
        ncq_p,
        mem.clone(),
        (bsq_p, bcq_c),
        host_mem,
        uif,
        workers,
        true,
    );
    ex.add(Box::new(runner));

    let mut router = Router::new("router", cost, 1024);
    router.bind_vm(VmBinding {
        vm_id: 0,
        mem: mem.clone(),
        partition: Partition {
            lba_offset: PART_OFFSET,
            lba_count: 100_000,
        },
        vsqs,
        vcqs,
        hsq: hsq_p,
        hcq: hcq_c,
        kernel: None,
        notify: Some(NotifyBinding {
            nsq: nsq_p,
            ncq: ncq_c,
        }),
        classifier,
    });
    ex.add(Box::new(router));
    ex.add(Box::new(ssd));

    Rig {
        ex,
        guest_sq,
        guest_cq,
        mem,
        primary,
        secondary,
    }
}

/// Pushes one command, runs the rig dry and returns the status of the one
/// CQE it must have produced.
fn guest_submit(rig: &mut Rig, cmd: SubmissionEntry) -> Status {
    rig.guest_sq.push(cmd).unwrap();
    rig.ex.run(u64::MAX);
    let cqe = rig.guest_cq.pop().expect("a completion");
    assert_eq!(cqe.cid, cmd.cid);
    assert!(rig.guest_cq.pop().is_none(), "exactly one CQE");
    cqe.status()
}

fn guest_write(rig: &mut Rig, slba: u64, data: &[u8], cid: u16) {
    let gpa = rig.mem.alloc(data.len());
    rig.mem.write(gpa, data);
    let (p1, p2) = nvmetro_mem::build_prps(&rig.mem, gpa, data.len());
    let mut cmd = SubmissionEntry::write(1, slba, (data.len() / 512) as u32, p1, p2);
    cmd.cid = cid;
    assert_eq!(guest_submit(rig, cmd), Status::SUCCESS);
}

fn guest_read(rig: &mut Rig, slba: u64, len: usize, cid: u16) -> Vec<u8> {
    let gpa = rig.mem.alloc(len);
    let (p1, p2) = nvmetro_mem::build_prps(&rig.mem, gpa, len);
    let mut cmd = SubmissionEntry::read(1, slba, (len / 512) as u32, p1, p2);
    cmd.cid = cid;
    assert_eq!(guest_submit(rig, cmd), Status::SUCCESS);
    rig.mem.read_vec(gpa, len)
}

#[test]
fn encryption_round_trip_with_ciphertext_on_disk() {
    let key = vec![0x42u8; 64];
    let mut rig = build(Function::Encryptor(CryptoBackend::Xts(Box::new(Xts::new(
        &key,
    )))));
    let plain: Vec<u8> = (0..2048).map(|i| (i % 251) as u8).collect();
    guest_write(&mut rig, 100, &plain, 1);

    // On-disk bytes (at the translated physical LBA) are ciphertext...
    let on_disk = rig.primary.read_vec(PART_OFFSET + 100, 4);
    assert_ne!(on_disk, plain);
    // ...and exactly the dm-crypt-compatible XTS layout, tweaked by the
    // guest-relative sector number.
    let mut expect = plain.clone();
    Xts::new(&key).encrypt_sectors(100, &mut expect);
    assert_eq!(on_disk, expect);

    // Reading back through the function decrypts transparently.
    assert_eq!(guest_read(&mut rig, 100, 2048, 2), plain);
}

#[test]
fn encryption_sgx_variant_matches_plain_format() {
    let key = vec![0x42u8; 64];
    let mut rig = build(Function::Encryptor(CryptoBackend::Sgx(Box::new(
        nvmetro_crypto::SgxEnclave::create(&key, true),
    ))));
    let plain = vec![0xA1u8; 512];
    guest_write(&mut rig, 7, &plain, 1);
    let mut expect = plain.clone();
    Xts::new(&key).encrypt_sectors(7, &mut expect);
    assert_eq!(rig.primary.read_vec(PART_OFFSET + 7, 1), expect);
    assert_eq!(guest_read(&mut rig, 7, 512, 2), plain);
}

#[test]
fn encrypted_disk_readable_by_dm_crypt_stack() {
    // Interop: write through NVMetro's encryptor, read through the
    // simulated Linux dm-crypt (the paper claims dm-crypt compatibility).
    let key = vec![0x13u8; 64];
    let mut rig = build(Function::Encryptor(CryptoBackend::Xts(Box::new(Xts::new(
        &key,
    )))));
    let plain: Vec<u8> = (0..1024).map(|i| (i * 7 % 256) as u8).collect();
    guest_write(&mut rig, 200, &plain, 1);

    // Mount the same store under a dm-crypt stack at the same offset.
    let mut ssd2 = SimSsd::with_store(
        "ssd2",
        SsdConfig {
            capacity_lbas: 1 << 20,
            ..Default::default()
        },
        rig.primary.clone(),
    );
    let guest2 = Arc::new(GuestMemory::new(1 << 24));
    let (sq_p, sq_c) = SqPair::new(64);
    let (cq_p, cq_c) = CqPair::new(64);
    let dm = nvmetro_kernel::KernelDm::new(
        CostModel::default(),
        nvmetro_kernel::DmConfig::Crypt {
            offset: PART_OFFSET,
            key: Some(key),
        },
        vec![(sq_p, cq_c)],
        guest2.clone(),
    );
    ssd2.add_queue(sq_c, cq_p, dm.host_memory(), CompletionMode::Interrupt);
    let mut dm = dm;
    let gpa = guest2.alloc(1024);
    let (p1, p2) = nvmetro_mem::build_prps(&guest2, gpa, 1024);
    dm.submit(
        nvmetro_kernel::DmRequest {
            user: 1,
            write: false,
            slba: 200,
            nlb: 2,
            prp1: p1,
            prp2: p2,
        },
        0,
    );
    let mut out = Vec::new();
    let mut now = 0;
    while out.is_empty() {
        dm.poll(now);
        ssd2.poll(now);
        dm.poll(now);
        dm.take_done(&mut out);
        if out.is_empty() {
            now = [dm.next_event(), ssd2.next_event()]
                .into_iter()
                .flatten()
                .min()
                .expect("work pending");
        }
    }
    assert_eq!(out[0].1, Status::SUCCESS);
    assert_eq!(guest2.read_vec(gpa, 1024), plain);
}

/// LBAs a guest of the 100 000-block partition may not touch: just past
/// the end, straddling the end, and far enough up that the classifier's
/// `slba += offset` wraps to a physical LBA below the partition.
const BAD_LBAS: [(u64, u32); 3] = [(100_005, 1), (99_999, 2), (u64::MAX - 10, 1)];

/// The encryptor's writes leave the router on the notify path only, and
/// the UIF writes the classifier-translated LBA through its own backend
/// queue: the router's isolation check has to cover that path too, or
/// ciphertext lands outside the partition (and `u64::MAX - 10` underflows
/// the UIF's tweak arithmetic).
#[test]
fn encryptor_refuses_writes_outside_the_partition() {
    for (cid, (slba, nlb)) in BAD_LBAS.into_iter().enumerate() {
        let mut rig = build(Function::Encryptor(CryptoBackend::Xts(Box::new(Xts::new(
            &[0x42u8; 64],
        )))));
        let data = vec![0x5Au8; nlb as usize * 512];
        let gpa = rig.mem.alloc(data.len());
        rig.mem.write(gpa, &data);
        let (p1, p2) = nvmetro_mem::build_prps(&rig.mem, gpa, data.len());
        let mut cmd = SubmissionEntry::write(1, slba, nlb, p1, p2);
        cmd.cid = cid as u16;
        assert_eq!(guest_submit(&mut rig, cmd), Status::LBA_OUT_OF_RANGE);
        assert_eq!(rig.primary.resident_blocks(), 0, "nothing written");
    }
}

#[test]
fn encryptor_refuses_reads_outside_the_partition() {
    for (cid, (slba, nlb)) in BAD_LBAS.into_iter().enumerate() {
        let mut rig = build(Function::Encryptor(CryptoBackend::Xts(Box::new(Xts::new(
            &[0x42u8; 64],
        )))));
        // A neighbour's data on both sides of the partition.
        rig.primary
            .write_blocks(PART_OFFSET - 16, &[0xEE; 16 * 512]);
        rig.primary
            .write_blocks(PART_OFFSET + 100_000, &[0xEE; 16 * 512]);
        let len = nlb as usize * 512;
        let gpa = rig.mem.alloc(len);
        rig.mem.write(gpa, &vec![0x77u8; len]);
        let (p1, p2) = nvmetro_mem::build_prps(&rig.mem, gpa, len);
        let mut cmd = SubmissionEntry::read(1, slba, nlb, p1, p2);
        cmd.cid = cid as u16;
        assert_eq!(guest_submit(&mut rig, cmd), Status::LBA_OUT_OF_RANGE);
        assert_eq!(
            rig.mem.read_vec(gpa, len),
            vec![0x77u8; len],
            "nothing read"
        );
    }
}

/// A command whose PRP1 is 0 names no guest page. Whichever of the
/// device and the UIF walks it first answers `INVALID_FIELD`, exactly
/// once, and nothing reaches the disk.
fn null_prp_is_refused(mut rig: Rig, cmd: SubmissionEntry) {
    let resident = rig.primary.resident_blocks();
    assert_eq!(guest_submit(&mut rig, cmd), Status::INVALID_FIELD);
    assert_eq!(rig.primary.resident_blocks(), resident, "nothing written");
    if let Some(secondary) = &rig.secondary {
        assert_eq!(secondary.resident_blocks(), 0, "nothing mirrored");
    }
}

fn xts_encryptor() -> Function {
    Function::Encryptor(CryptoBackend::Xts(Box::new(Xts::new(&[0x42u8; 64]))))
}

#[test]
fn encryptor_refuses_a_write_with_a_null_prp() {
    null_prp_is_refused(
        build(xts_encryptor()),
        SubmissionEntry::write(1, 100, 8, 0, 0),
    );
}

/// A read goes to the device first; a device that walks the PRPs refuses
/// it there, so this device moves no bytes and the UIF's decrypt step is
/// the first to walk them.
#[test]
fn encryptor_refuses_a_read_with_a_null_prp() {
    let rig = build_with(xts_encryptor(), false);
    null_prp_is_refused(rig, SubmissionEntry::read(1, 100, 8, 0, 0));
}

#[test]
fn replicator_refuses_a_write_with_a_null_prp() {
    null_prp_is_refused(
        build(Function::Replicator),
        SubmissionEntry::write(1, 55, 2, 0, 0),
    );
}

#[test]
fn replication_mirrors_writes_and_reads_locally() {
    let mut rig = build(Function::Replicator);
    let data: Vec<u8> = (0..1024).map(|i| (i % 239) as u8).collect();
    guest_write(&mut rig, 55, &data, 1);

    // Both replicas hold the data at the translated LBA.
    assert_eq!(rig.primary.read_vec(PART_OFFSET + 55, 2), data);
    assert_eq!(
        rig.secondary
            .as_ref()
            .unwrap()
            .read_vec(PART_OFFSET + 55, 2),
        data,
        "synchronous mirror: secondary must be durable at completion"
    );

    // Reads are served locally: the remote store's content is irrelevant.
    assert_eq!(guest_read(&mut rig, 55, 1024, 2), data);
}

#[test]
fn replication_write_latency_includes_remote_leg() {
    let mut rig = build(Function::Replicator);
    let data = vec![1u8; 512];
    let gpa = rig.mem.alloc(512);
    rig.mem.write(gpa, &data);
    let (p1, p2) = nvmetro_mem::build_prps(&rig.mem, gpa, 512);
    rig.guest_sq
        .push(SubmissionEntry::write(1, 0, 1, p1, p2))
        .unwrap();
    let report = rig.ex.run(u64::MAX);
    assert!(rig.guest_cq.pop().is_some());
    let local_only = CostModel::default().ssd_write_lat;
    assert!(
        report.duration > local_only + 20_000,
        "write at {} must wait out the 2x10us fabric RTT",
        report.duration
    );
}

#[test]
fn replication_reads_do_not_touch_the_remote() {
    let mut rig = build(Function::Replicator);
    guest_write(&mut rig, 9, &vec![9u8; 512], 1);
    // Poison the remote replica; reads must still return local data.
    rig.secondary
        .as_ref()
        .unwrap()
        .write_blocks(PART_OFFSET + 9, &[0xFF; 512]);
    assert_eq!(guest_read(&mut rig, 9, 512, 2), vec![9u8; 512]);
}
