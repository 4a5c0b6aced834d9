//! The virtual NVMe controller NVMetro exposes to each VM.
//!
//! "Our solution operates in the hypervisor, and presents itself as a
//! virtual NVMe controller in each concerned VM ... in accordance with the
//! NVMe protocol, i.e. all VMs supporting NVMe work with NVMetro by default
//! without guest modifications" (§III-A). The controller owns the VM's
//! virtual queue pairs (VSQ/VCQ), serves the admin command set the guest
//! driver needs for bring-up, and records the namespace partition this VM
//! is attached to.

use nvmetro_mem::GuestMemory;
use nvmetro_nvme::{
    AdminOpcode, CompletionEntry, CqConsumer, CqProducer, QueuePair, SqConsumer, SqProducer,
    Status, SubmissionEntry,
};
use nvmetro_telemetry::{Metric, TelemetryHandle};
use std::sync::Arc;

/// A contiguous LBA range of the backing namespace assigned to one VM.
/// The router enforces it on every fast-path command regardless of what the
/// classifier did (isolation, §III-B).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Partition {
    /// First LBA of the partition on the physical namespace.
    pub lba_offset: u64,
    /// Length in LBAs.
    pub lba_count: u64,
}

impl Partition {
    /// A partition covering a whole device of `capacity` LBAs.
    pub fn whole(capacity: u64) -> Self {
        Partition {
            lba_offset: 0,
            lba_count: capacity,
        }
    }

    /// True if `slba..slba+nlb` (in *physical* LBAs) stays inside.
    pub fn contains(&self, slba: u64, nlb: u32) -> bool {
        slba >= self.lba_offset
            && slba
                .checked_add(nlb as u64)
                .is_some_and(|end| end <= self.lba_offset + self.lba_count)
    }
}

/// Static configuration of one VM's virtual controller.
#[derive(Clone, Debug)]
pub struct VmConfig {
    /// VM identifier (used in classifier contexts and reports).
    pub id: u32,
    /// Guest memory size in bytes.
    pub mem_bytes: u64,
    /// Number of I/O queue pairs (NVMe parallelism is preserved, §III-A).
    pub queue_pairs: usize,
    /// Depth of each queue.
    pub queue_depth: usize,
    /// Backing partition on the physical namespace.
    pub partition: Partition,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            id: 0,
            mem_bytes: 6 << 30, // the paper's 6 GB VMs
            queue_pairs: 1,
            queue_depth: 1024,
            partition: Partition::whole(1 << 31),
        }
    }
}

struct GuestEnd {
    sq: Option<SqProducer>,
    cq: Option<CqConsumer>,
}

struct RouterEnd {
    sq: Option<SqConsumer>,
    cq: Option<CqProducer>,
}

/// One VM's virtual NVMe controller.
pub struct VirtualController {
    cfg: VmConfig,
    mem: Arc<GuestMemory>,
    guest_ends: Vec<GuestEnd>,
    router_ends: Vec<RouterEnd>,
    telemetry: TelemetryHandle,
}

impl VirtualController {
    /// Creates the controller, its guest memory, and all queue pairs.
    pub fn new(cfg: VmConfig) -> Self {
        let mem = Arc::new(GuestMemory::new(cfg.mem_bytes));
        let mut guest_ends = Vec::with_capacity(cfg.queue_pairs);
        let mut router_ends = Vec::with_capacity(cfg.queue_pairs);
        for _ in 0..cfg.queue_pairs {
            let qp = QueuePair::new(cfg.queue_depth);
            guest_ends.push(GuestEnd {
                sq: Some(qp.sq_prod),
                cq: Some(qp.cq_cons),
            });
            router_ends.push(RouterEnd {
                sq: Some(qp.sq_cons),
                cq: Some(qp.cq_prod),
            });
        }
        VirtualController {
            cfg,
            mem,
            guest_ends,
            router_ends,
            telemetry: TelemetryHandle::disabled(),
        }
    }

    /// Attaches a telemetry worker handle (see `nvmetro-telemetry`).
    pub fn attach_telemetry(&mut self, handle: TelemetryHandle) {
        self.telemetry = handle;
    }

    /// The VM's configuration.
    pub fn config(&self) -> &VmConfig {
        &self.cfg
    }

    /// The VM's guest-physical memory.
    pub fn memory(&self) -> Arc<GuestMemory> {
        self.mem.clone()
    }

    /// Takes the guest-side ends of queue pair `i` (what the guest NVMe
    /// driver holds). Panics if taken twice.
    pub fn take_guest_queue(&mut self, i: usize) -> (SqProducer, CqConsumer) {
        let end = &mut self.guest_ends[i];
        (
            end.sq.take().expect("guest SQ already taken"),
            end.cq.take().expect("guest CQ already taken"),
        )
    }

    /// Takes the router-side ends of all queue pairs (consumed when the VM
    /// is bound to a router).
    pub fn take_router_queues(&mut self) -> (Vec<SqConsumer>, Vec<CqProducer>) {
        let mut sqs = Vec::new();
        let mut cqs = Vec::new();
        for end in &mut self.router_ends {
            sqs.push(end.sq.take().expect("router SQ already taken"));
            cqs.push(end.cq.take().expect("router CQ already taken"));
        }
        (sqs, cqs)
    }

    /// Serves one admin command synchronously (admin queues are far off the
    /// data path; the paper's router only mediates I/O queues).
    pub fn handle_admin(&self, cmd: &SubmissionEntry) -> CompletionEntry {
        self.telemetry.count(Metric::AdminCmds);
        let op = match AdminOpcode::from_u8(cmd.opcode) {
            Some(op) => op,
            None => return CompletionEntry::new(cmd.cid, Status::INVALID_OPCODE),
        };
        match op {
            AdminOpcode::Identify => {
                // CNS in CDW10: 0 = namespace, 1 = controller.
                let cns = cmd.cdw10 & 0xFF;
                let mut data = vec![0u8; 4096];
                match cns {
                    0 => {
                        // Identify Namespace: NSZE/NCAP/NUSE = partition size.
                        let sz = self.cfg.partition.lba_count;
                        data[0..8].copy_from_slice(&sz.to_le_bytes());
                        data[8..16].copy_from_slice(&sz.to_le_bytes());
                        data[16..24].copy_from_slice(&sz.to_le_bytes());
                        // LBA format 0: 512-byte blocks (LBADS = 9).
                        data[128 + 2] = 9;
                    }
                    1 => {
                        data[4..12].copy_from_slice(b"NVMETRO0"); // serial
                        data[24..31].copy_from_slice(b"NVMetro"); // model
                        data[512] = 0x66; // SQES: 64-byte SQEs, required and max
                        data[513] = 0x44; // CQES: 16-byte CQEs, required and max
                        data[516..520].copy_from_slice(&1u32.to_le_bytes()); // NN
                    }
                    _ => {
                        return CompletionEntry::new(cmd.cid, Status::INVALID_FIELD);
                    }
                }
                // The guest picks `prp1`: a null page or a buffer that leaves
                // guest memory is refused before anything is written.
                let fits = cmd
                    .prp1
                    .checked_add(data.len() as u64)
                    .is_some_and(|end| end <= self.mem.size());
                if cmd.prp1 == 0 || !fits {
                    return CompletionEntry::new(cmd.cid, Status::INVALID_FIELD);
                }
                self.mem.write(cmd.prp1, &data);
                CompletionEntry::new(cmd.cid, Status::SUCCESS)
            }
            AdminOpcode::CreateSq | AdminOpcode::CreateCq => {
                // Queue pairs are provisioned at attach time; accept
                // creation of any provisioned qid, reject beyond.
                let qid = (cmd.cdw10 & 0xFFFF) as usize;
                if qid >= 1 && qid <= self.cfg.queue_pairs {
                    CompletionEntry::new(cmd.cid, Status::SUCCESS)
                } else {
                    CompletionEntry::new(cmd.cid, Status::INVALID_FIELD)
                }
            }
            AdminOpcode::DeleteSq | AdminOpcode::DeleteCq => {
                CompletionEntry::new(cmd.cid, Status::SUCCESS)
            }
            AdminOpcode::SetFeatures | AdminOpcode::GetFeatures => {
                // Feature 0x07: number of queues.
                let fid = cmd.cdw10 & 0xFF;
                if fid == 0x07 {
                    let mut cqe = CompletionEntry::new(cmd.cid, Status::SUCCESS);
                    let n = (self.cfg.queue_pairs as u32 - 1) & 0xFFFF;
                    cqe.result = n | (n << 16);
                    cqe
                } else {
                    CompletionEntry::new(cmd.cid, Status::SUCCESS)
                }
            }
            AdminOpcode::GetLogPage => CompletionEntry::new(cmd.cid, Status::SUCCESS),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> VmConfig {
        VmConfig {
            id: 1,
            mem_bytes: 1 << 24,
            queue_pairs: 2,
            queue_depth: 64,
            partition: Partition {
                lba_offset: 1000,
                lba_count: 5000,
            },
        }
    }

    #[test]
    fn partition_containment() {
        let p = Partition {
            lba_offset: 100,
            lba_count: 50,
        };
        assert!(p.contains(100, 50));
        assert!(p.contains(120, 10));
        assert!(!p.contains(99, 1));
        assert!(!p.contains(149, 2));
        assert!(!p.contains(u64::MAX, 1));
    }

    #[test]
    fn queue_ends_connect_guest_to_router() {
        let mut vc = VirtualController::new(small_cfg());
        let (gsq, gcq) = vc.take_guest_queue(0);
        let (rsqs, rcqs) = vc.take_router_queues();
        gsq.push(SubmissionEntry::flush(1)).unwrap();
        let (cmd, _) = rsqs[0].pop().unwrap();
        assert_eq!(cmd.opcode, 0);
        rcqs[0]
            .push(CompletionEntry::new(cmd.cid, Status::SUCCESS))
            .unwrap();
        assert!(gcq.pop().is_some());
        // Queue pair 1 is independent.
        assert!(rsqs[1].pop().is_none());
    }

    #[test]
    #[should_panic(expected = "already taken")]
    fn double_take_panics() {
        let mut vc = VirtualController::new(small_cfg());
        let _ = vc.take_guest_queue(0);
        let _ = vc.take_guest_queue(0);
    }

    #[test]
    fn identify_controller_fields_sit_at_their_spec_offsets() {
        let vc = VirtualController::new(small_cfg());
        let mem = vc.memory();
        let buf = mem.alloc(4096);
        let cmd = SubmissionEntry {
            opcode: AdminOpcode::Identify as u8,
            cdw10: 1, // CNS 1: controller
            prp1: buf,
            ..Default::default()
        };
        assert_eq!(vc.handle_admin(&cmd).status(), Status::SUCCESS);
        let page = mem.read_vec(buf, 4096);
        // NVMe base spec, Identify Controller data structure.
        assert_eq!(&page[4..12], b"NVMETRO0", "SN");
        assert_eq!(&page[24..31], b"NVMetro", "MN");
        assert_eq!(page[72..76], [0; 4], "RAB and IEEE OUI stay zero");
        assert_eq!(page[512], 0x66, "SQES");
        assert_eq!(page[513], 0x44, "CQES");
        assert_eq!(
            u32::from_le_bytes(page[516..520].try_into().unwrap()),
            1,
            "NN"
        );
    }

    #[test]
    fn identify_namespace_reports_partition_size() {
        let vc = VirtualController::new(small_cfg());
        let mem = vc.memory();
        let buf = mem.alloc(4096);
        let cmd = SubmissionEntry {
            opcode: AdminOpcode::Identify as u8,
            cid: 9,
            cdw10: 0, // CNS 0: namespace
            prp1: buf,
            ..Default::default()
        };
        let cqe = vc.handle_admin(&cmd);
        assert_eq!(cqe.status(), Status::SUCCESS);
        assert_eq!(cqe.cid, 9);
        let nsze = u64::from_le_bytes(mem.read_vec(buf, 8).try_into().unwrap());
        assert_eq!(nsze, 5000, "guest sees only its partition");
    }

    #[test]
    fn identify_controller_reports_model() {
        let vc = VirtualController::new(small_cfg());
        let mem = vc.memory();
        let buf = mem.alloc(4096);
        let cmd = SubmissionEntry {
            opcode: AdminOpcode::Identify as u8,
            cdw10: 1,
            prp1: buf,
            ..Default::default()
        };
        let cqe = vc.handle_admin(&cmd);
        assert_eq!(cqe.status(), Status::SUCCESS);
        let id = mem.read_vec(buf, 4096);
        assert_eq!(&id[4..12], b"NVMETRO0");
    }

    #[test]
    fn identify_past_guest_memory_is_refused_without_writing() {
        let vc = VirtualController::new(small_cfg());
        let mem = vc.memory();
        let size = mem.size();
        let resident = mem.resident_pages();
        for prp1 in [1 << 40, size - 4095, size, u64::MAX - 100] {
            for cns in [0, 1] {
                let cmd = SubmissionEntry {
                    opcode: AdminOpcode::Identify as u8,
                    cid: 7,
                    cdw10: cns,
                    prp1,
                    ..Default::default()
                };
                let cqe = vc.handle_admin(&cmd);
                assert_eq!(cqe.status(), Status::INVALID_FIELD, "prp1 {prp1:#x}");
                assert_eq!(cqe.cid, 7);
                assert_eq!(mem.resident_pages(), resident, "prp1 {prp1:#x} wrote");
            }
        }
        // The last whole page of guest memory is still a valid buffer.
        let cmd = SubmissionEntry {
            opcode: AdminOpcode::Identify as u8,
            cdw10: 1,
            prp1: size - 4096,
            ..Default::default()
        };
        assert_eq!(vc.handle_admin(&cmd).status(), Status::SUCCESS);
        assert_eq!(&mem.read_vec(size - 4096, 4096)[4..12], b"NVMETRO0");
    }

    #[test]
    fn create_queue_validates_qid() {
        let vc = VirtualController::new(small_cfg());
        let mut cmd = SubmissionEntry {
            opcode: AdminOpcode::CreateSq as u8,
            cdw10: 1,
            ..Default::default()
        };
        assert_eq!(vc.handle_admin(&cmd).status(), Status::SUCCESS);
        cmd.cdw10 = 99;
        assert_eq!(vc.handle_admin(&cmd).status(), Status::INVALID_FIELD);
    }

    #[test]
    fn set_features_num_queues_reflects_config() {
        let vc = VirtualController::new(small_cfg());
        let cmd = SubmissionEntry {
            opcode: AdminOpcode::SetFeatures as u8,
            cdw10: 0x07,
            ..Default::default()
        };
        let cqe = vc.handle_admin(&cmd);
        assert_eq!(cqe.status(), Status::SUCCESS);
        // 2 queue pairs -> 0-based count 1 in both halves.
        assert_eq!(cqe.result, 1 | (1 << 16));
    }

    #[test]
    fn unknown_admin_opcode_rejected() {
        let vc = VirtualController::new(small_cfg());
        let cmd = SubmissionEntry {
            opcode: 0xEE,
            ..Default::default()
        };
        assert_eq!(vc.handle_admin(&cmd).status(), Status::INVALID_OPCODE);
    }
}
