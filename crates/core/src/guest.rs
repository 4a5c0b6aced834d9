//! A minimal guest-side NVMe driver.
//!
//! NVMetro's compatibility claim is that "all VMs supporting NVMe work
//! with NVMetro by default without guest modifications" (§III-A). This
//! module is the guest half of that contract: the initialization sequence
//! a real NVMe driver performs against the virtual controller — identify
//! the controller, negotiate queue counts, read the namespace geometry,
//! create I/O queues — plus a simple synchronous I/O API on top.
//!
//! Examples and tests use it to prove a stock driver bring-up works
//! against [`VirtualController`](crate::controller::VirtualController)
//! end to end.

use crate::controller::VirtualController;
use nvmetro_mem::GuestMemory;
use nvmetro_nvme::{AdminOpcode, CqConsumer, SqProducer, Status, SubmissionEntry, LBA_SIZE};
use std::sync::Arc;

/// Controller/namespace facts learned during bring-up.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GuestInfo {
    /// Controller serial number (trimmed).
    pub serial: String,
    /// Namespace size in logical blocks.
    pub nsze: u64,
    /// Logical block size in bytes (from the LBA format descriptor).
    pub lba_size: usize,
    /// I/O queue pairs granted by Set Features.
    pub queue_pairs: usize,
}

/// Errors during bring-up or I/O.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GuestError {
    /// An admin command failed with the given status.
    Admin(Status),
    /// An I/O command failed with the given status.
    Io(Status),
}

impl std::fmt::Display for GuestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for GuestError {}

/// The guest driver: performs bring-up, then offers synchronous
/// read/write/flush over one I/O queue pair.
pub struct GuestDriver {
    mem: Arc<GuestMemory>,
    info: GuestInfo,
    sq: SqProducer,
    cq: CqConsumer,
    next_cid: u16,
}

impl GuestDriver {
    /// Runs the standard initialization sequence against `vc` and takes
    /// ownership of I/O queue pair 0.
    pub fn initialize(vc: &mut VirtualController) -> Result<Self, GuestError> {
        let mem = vc.memory();
        let admin = |vc: &VirtualController, cmd: &SubmissionEntry| -> Result<u32, GuestError> {
            let cqe = vc.handle_admin(cmd);
            if cqe.status().is_error() {
                return Err(GuestError::Admin(cqe.status()));
            }
            Ok(cqe.result)
        };

        // 1. Identify Controller (CNS 1).
        let idbuf = mem.alloc(4096);
        let cmd = SubmissionEntry {
            opcode: AdminOpcode::Identify as u8,
            cdw10: 1,
            prp1: idbuf,
            ..Default::default()
        };
        admin(vc, &cmd)?;
        let id = mem.read_vec(idbuf, 4096);
        let serial = String::from_utf8_lossy(&id[4..24])
            .trim_end_matches(['\0', ' '])
            .to_string();

        // 2. Set Features: number of queues (feature 0x07).
        let cmd = SubmissionEntry {
            opcode: AdminOpcode::SetFeatures as u8,
            cdw10: 0x07,
            ..Default::default()
        };
        let granted = admin(vc, &cmd)?;
        let queue_pairs = ((granted & 0xFFFF) + 1) as usize;

        // 3. Identify Namespace (CNS 0).
        let cmd = SubmissionEntry {
            opcode: AdminOpcode::Identify as u8,
            cdw10: 0,
            prp1: idbuf,
            nsid: 1,
            ..Default::default()
        };
        admin(vc, &cmd)?;
        let ns = mem.read_vec(idbuf, 4096);
        let nsze = u64::from_le_bytes(ns[0..8].try_into().unwrap());
        let lbads = ns[128 + 2];
        let lba_size = 1usize << lbads;

        // 4. Create CQ then SQ for queue pair 1 (qid 1).
        let cmd = SubmissionEntry {
            opcode: AdminOpcode::CreateCq as u8,
            cdw10: 1,
            ..Default::default()
        };
        admin(vc, &cmd)?;
        let cmd = SubmissionEntry {
            opcode: AdminOpcode::CreateSq as u8,
            cdw10: 1,
            ..Default::default()
        };
        admin(vc, &cmd)?;

        // 5. Take the guest ends of the created pair.
        let (sq, cq) = vc.take_guest_queue(0);
        Ok(GuestDriver {
            mem,
            info: GuestInfo {
                serial,
                nsze,
                lba_size,
                queue_pairs,
            },
            sq,
            cq,
            next_cid: 0,
        })
    }

    /// Facts learned during bring-up.
    pub fn info(&self) -> &GuestInfo {
        &self.info
    }

    /// The VM memory (to share with the serving stack).
    pub fn memory(&self) -> Arc<GuestMemory> {
        self.mem.clone()
    }

    fn submit(&mut self, mut cmd: SubmissionEntry) -> u16 {
        let cid = self.next_cid;
        self.next_cid = self.next_cid.wrapping_add(1);
        cmd.cid = cid;
        self.sq.push(cmd).expect("guest SQ full");
        cid
    }

    /// Polls for one completion, calling `advance` between polls to drive
    /// whatever executes the stack (virtual-time executor step or a
    /// yield in real-thread mode).
    pub fn wait(&mut self, cid: u16, mut advance: impl FnMut()) -> Result<(), GuestError> {
        for _ in 0..10_000_000u64 {
            if let Some(cqe) = self.cq.pop() {
                assert_eq!(cqe.cid, cid, "out-of-order completion at QD1");
                if cqe.status().is_error() {
                    return Err(GuestError::Io(cqe.status()));
                }
                return Ok(());
            }
            advance();
        }
        panic!("I/O never completed");
    }

    /// Synchronous write of whole blocks at `slba`.
    pub fn write(
        &mut self,
        slba: u64,
        data: &[u8],
        advance: impl FnMut(),
    ) -> Result<(), GuestError> {
        assert_eq!(data.len() % LBA_SIZE, 0);
        let gpa = self.mem.alloc(data.len());
        self.mem.write(gpa, data);
        let (p1, p2) = nvmetro_mem::build_prps(&self.mem, gpa, data.len());
        let cmd = SubmissionEntry::write(1, slba, (data.len() / LBA_SIZE) as u32, p1, p2);
        let cid = self.submit(cmd);
        self.wait(cid, advance)
    }

    /// Synchronous read of `nlb` blocks at `slba`.
    pub fn read(
        &mut self,
        slba: u64,
        nlb: u32,
        advance: impl FnMut(),
    ) -> Result<Vec<u8>, GuestError> {
        let len = nlb as usize * LBA_SIZE;
        let gpa = self.mem.alloc(len);
        let (p1, p2) = nvmetro_mem::build_prps(&self.mem, gpa, len);
        let cmd = SubmissionEntry::read(1, slba, nlb, p1, p2);
        let cid = self.submit(cmd);
        self.wait(cid, advance)?;
        Ok(self.mem.read_vec(gpa, len))
    }

    /// Synchronous flush.
    pub fn flush(&mut self, advance: impl FnMut()) -> Result<(), GuestError> {
        let cid = self.submit(SubmissionEntry::flush(1));
        self.wait(cid, advance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::Classifier;
    use crate::controller::{Partition, VmConfig};
    use crate::passthrough_program;
    use crate::router::{Router, VmBinding};
    use nvmetro_device::{CompletionMode, SimSsd, SsdConfig};
    use nvmetro_nvme::{CqPair, SqPair};
    use nvmetro_sim::cost::CostModel;
    use nvmetro_sim::{Actor, Ns};

    #[test]
    fn stock_bring_up_sequence_succeeds() {
        let mut vc = VirtualController::new(VmConfig {
            mem_bytes: 1 << 24,
            queue_pairs: 2,
            partition: Partition {
                lba_offset: 0,
                lba_count: 12_345,
            },
            ..Default::default()
        });
        let driver = GuestDriver::initialize(&mut vc).expect("bring-up");
        let info = driver.info();
        assert_eq!(info.serial, "NVMETRO0");
        assert_eq!(info.nsze, 12_345, "geometry reflects the partition");
        assert_eq!(info.lba_size, 512);
        assert_eq!(info.queue_pairs, 2);
    }

    #[test]
    fn driver_io_through_the_full_stack() {
        let mut ssd = SimSsd::new(
            "ssd",
            SsdConfig {
                capacity_lbas: 1 << 16,
                ..Default::default()
            },
        );
        let mut vc = VirtualController::new(VmConfig {
            mem_bytes: 1 << 24,
            ..Default::default()
        });
        let mut driver = GuestDriver::initialize(&mut vc).expect("bring-up");
        let mem = driver.memory();
        let (vsqs, vcqs) = vc.take_router_queues();
        let (hsq_p, hsq_c) = SqPair::new(64);
        let (hcq_p, hcq_c) = CqPair::new(64);
        ssd.add_queue(hsq_c, hcq_p, mem.clone(), CompletionMode::Polled);
        let mut router = Router::new("router", CostModel::default(), 64);
        router.bind_vm(VmBinding {
            vm_id: 0,
            mem,
            partition: Partition::whole(1 << 16),
            vsqs,
            vcqs,
            hsq: hsq_p,
            hcq: hcq_c,
            kernel: None,
            notify: None,
            classifier: Classifier::Bpf(passthrough_program()),
        });
        // Step the stack manually as the driver's `advance` closure.
        let mut clock: Ns = 0;
        let mut actors: Vec<Box<dyn Actor>> = vec![Box::new(router), Box::new(ssd)];
        let mut advance = move || {
            for a in actors.iter_mut() {
                a.poll(clock);
            }
            let next = actors.iter().filter_map(|a| a.next_event()).min();
            if let Some(t) = next {
                if t > clock {
                    clock = t;
                }
            } else {
                clock += 1_000;
            }
        };
        let payload = vec![0xC3u8; 1024];
        driver.write(40, &payload, &mut advance).expect("write");
        let got = driver.read(40, 2, &mut advance).expect("read");
        assert_eq!(got, payload);
        driver.flush(&mut advance).expect("flush");
    }

    #[test]
    fn io_errors_surface_as_guest_errors() {
        let mut ssd = SimSsd::new(
            "ssd",
            SsdConfig {
                capacity_lbas: 100,
                ..Default::default()
            },
        );
        let mut vc = VirtualController::new(VmConfig {
            mem_bytes: 1 << 24,
            ..Default::default()
        });
        let mut driver = GuestDriver::initialize(&mut vc).unwrap();
        let mem = driver.memory();
        let (vsqs, vcqs) = vc.take_router_queues();
        let (hsq_p, hsq_c) = SqPair::new(64);
        let (hcq_p, hcq_c) = CqPair::new(64);
        ssd.add_queue(hsq_c, hcq_p, mem.clone(), CompletionMode::Polled);
        let mut router = Router::new("router", CostModel::default(), 64);
        router.bind_vm(VmBinding {
            vm_id: 0,
            mem,
            partition: Partition::whole(1 << 30),
            vsqs,
            vcqs,
            hsq: hsq_p,
            hcq: hcq_c,
            kernel: None,
            notify: None,
            classifier: Classifier::Bpf(passthrough_program()),
        });
        let mut clock: Ns = 0;
        let mut actors: Vec<Box<dyn Actor>> = vec![Box::new(router), Box::new(ssd)];
        let mut advance = move || {
            for a in actors.iter_mut() {
                a.poll(clock);
            }
            if let Some(t) = actors.iter().filter_map(|a| a.next_event()).min() {
                clock = clock.max(t);
            } else {
                clock += 1_000;
            }
        };
        // Read far beyond the 100-LBA device.
        let err = driver.read(1 << 20, 1, &mut advance).unwrap_err();
        assert_eq!(err, GuestError::Io(Status::LBA_OUT_OF_RANGE));
    }
}
