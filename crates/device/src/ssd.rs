//! The multi-queue SSD model.

use crate::store::BlockStore;
use nvmetro_faults::{CmdClass, FaultAction, FaultInjector, FaultPlan, FaultSite};
use nvmetro_mem::{prp_segments, GuestMemory};
use nvmetro_nvme::{
    BellPage, CompletionEntry, CqProducer, NvmOpcode, SqConsumer, Status, SubmissionEntry, LBA_SIZE,
};
use nvmetro_sim::cost::CostModel;
use nvmetro_sim::{Actor, CpuMode, Ns, Progress, SimRng, US};
use nvmetro_telemetry::{Metric, PathKind, Stage, TelemetryHandle};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// How completions on a queue reach their consumer: polled CQs cost the
/// device nothing host-side; interrupt-mode queues charge the host an IRQ
/// delivery cost and add injection latency (device passthrough, vhost).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompletionMode {
    /// Consumer busy-polls the CQ (NVMetro, MDev, SPDK).
    Polled,
    /// Completion raises a host interrupt.
    Interrupt,
}

/// Optional NVMe-over-Fabrics transport in front of the device (the
/// replication experiments' Infiniband link).
#[derive(Clone, Copy, Debug)]
pub struct Transport {
    /// One-way latency of the fabric.
    pub one_way: Ns,
    /// Per-byte wire cost (ns/B).
    pub per_byte: f64,
}

/// Device configuration.
#[derive(Clone, Debug)]
pub struct SsdConfig {
    /// Capacity in logical blocks.
    pub capacity_lbas: u64,
    /// Calibrated service-time model.
    pub cost: CostModel,
    /// Move real bytes between guest memory and the block store. Figure
    /// harnesses disable this (latency comes from the model either way);
    /// functional tests and examples enable it.
    pub move_data: bool,
    /// Jitter seed.
    pub seed: u64,
    /// NVMe-oF hop, if this device is remote.
    pub transport: Option<Transport>,
    /// Failure injection: seeded fault plan consulted once per command
    /// (the device acts on its `FaultSite::Device` rules). Replaces the
    /// old bare `fail_rate` probability — see
    /// [`FaultPlan::media_fail_rate`] for the equivalent plan.
    pub faults: FaultPlan,
}

impl Default for SsdConfig {
    fn default() -> Self {
        SsdConfig {
            // 1 TB-class drive: 2^31 LBAs of 512 B.
            capacity_lbas: 1 << 31,
            cost: CostModel::default(),
            move_data: true,
            seed: 0x5517,
            transport: None,
            faults: FaultPlan::none(),
        }
    }
}

/// Identifies a registered queue pair on the device.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueueHandle(pub u16);

struct DeviceQueue {
    sq: SqConsumer,
    cq: CqProducer,
    mem: Arc<GuestMemory>,
    mode: CompletionMode,
}

struct Pending {
    finish: Ns,
    seq: u64,
    queue: usize,
    cqe: CompletionEntry,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.finish == other.finish && self.seq == other.seq
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.finish, self.seq).cmp(&(other.finish, other.seq))
    }
}

/// The simulated SSD. A poll services the registered queues whose doorbell
/// rang (one bit per queue in the device's [`BellPage`]); command
/// completions are scheduled through a two-stage model: one of
/// `ssd_channels` parallel NAND channels plus a shared bandwidth stage, so
/// both QD-1 latency and saturated throughput match the calibration.
pub struct SimSsd {
    name: String,
    cfg: SsdConfig,
    store: Arc<BlockStore>,
    queues: Vec<DeviceQueue>,
    /// Bit `q` is rung by the producer of `queues[q].sq`.
    bells: BellPage,
    /// Queues whose CQ `post_due` pushed to and has yet to ring.
    cq_unrung: Vec<usize>,
    channels: Vec<Ns>,
    bw_until: Ns,
    pending: BinaryHeap<Reverse<Pending>>,
    seq: u64,
    rng: SimRng,
    injector: FaultInjector,
    cq_blocked_until: Ns,
    charged: Ns,
    ios_served: u64,
    telemetry: TelemetryHandle,
}

/// Coarse fault-plan class of a (possibly unrecognized) opcode.
fn class_of(op: Option<NvmOpcode>) -> CmdClass {
    match op {
        None => CmdClass::Admin,
        Some(NvmOpcode::Flush) => CmdClass::Flush,
        Some(NvmOpcode::Read) | Some(NvmOpcode::Compare) => CmdClass::Read,
        Some(NvmOpcode::Write) | Some(NvmOpcode::WriteUncorrectable) => CmdClass::Write,
        Some(NvmOpcode::WriteZeroes) | Some(NvmOpcode::DatasetManagement) => CmdClass::Management,
    }
}

impl SimSsd {
    /// Creates a device with its own fresh [`BlockStore`].
    pub fn new(name: &str, cfg: SsdConfig) -> Self {
        let store = Arc::new(BlockStore::new(cfg.capacity_lbas));
        Self::with_store(name, cfg, store)
    }

    /// Creates a device over an existing store (e.g. shared inspection).
    pub fn with_store(name: &str, cfg: SsdConfig, store: Arc<BlockStore>) -> Self {
        let channels = vec![0; cfg.cost.ssd_channels];
        let seed = cfg.seed;
        let injector = cfg.faults.injector(FaultSite::Device);
        SimSsd {
            name: name.to_string(),
            cfg,
            store,
            queues: Vec::new(),
            bells: BellPage::new(),
            cq_unrung: Vec::new(),
            channels,
            bw_until: 0,
            pending: BinaryHeap::new(),
            seq: 0,
            rng: SimRng::new(seed),
            injector,
            cq_blocked_until: 0,
            charged: 0,
            ios_served: 0,
            telemetry: TelemetryHandle::disabled(),
        }
    }

    /// Attaches a telemetry worker handle (see `nvmetro-telemetry`). Device
    /// events carry no VM identity (the device sees only tags), so they are
    /// emitted with `VM_ANY` and correlated by tag + time window.
    pub fn attach_telemetry(&mut self, handle: TelemetryHandle) {
        self.telemetry = handle;
    }

    /// The device's content store.
    pub fn store(&self) -> Arc<BlockStore> {
        self.store.clone()
    }

    /// Registers a host queue pair (an HSQ/HCQ in the paper's terms). The
    /// guest memory is what PRP pointers in commands on this queue resolve
    /// against.
    pub fn add_queue(
        &mut self,
        sq: SqConsumer,
        cq: CqProducer,
        mem: Arc<GuestMemory>,
        mode: CompletionMode,
    ) -> QueueHandle {
        let index = self.queues.len();
        sq.bind_bell(&self.bells.bell(index));
        self.queues.push(DeviceQueue { sq, cq, mem, mode });
        QueueHandle(index as u16)
    }

    /// Total I/O commands fully served.
    pub fn ios_served(&self) -> u64 {
        self.ios_served
    }

    fn schedule(&mut self, queue: usize, cqe: CompletionEntry, finish: Ns) {
        // Interrupt-driven consumers see completions only after interrupt
        // delivery/injection (passthrough's +18% median latency in Fig. 4).
        let finish = match self.queues[queue].mode {
            CompletionMode::Interrupt => finish + self.cfg.cost.guest_irq_inject,
            CompletionMode::Polled => finish,
        };
        self.pending.push(Reverse(Pending {
            finish,
            seq: self.seq,
            queue,
            cqe,
        }));
        self.seq += 1;
    }

    fn jitter(&mut self, base: Ns) -> Ns {
        let j = self.cfg.cost.ssd_jitter;
        if j <= 0.0 {
            return base;
        }
        let f = self.rng.range_f64(1.0 - j, 1.0 + j);
        (base as f64 * f) as Ns
    }

    /// Computes the completion time of a media command issued at `now`.
    fn service_finish(&mut self, now: Ns, write: bool, bytes: usize) -> Ns {
        // Stage 1: a parallel channel.
        let ch_cost = self.jitter(self.cfg.cost.ssd_channel_cost(write, bytes));
        let (idx, free_at) = self
            .channels
            .iter()
            .copied()
            .enumerate()
            .min_by_key(|&(_, t)| t)
            .expect("device has channels");
        let ch_start = free_at.max(now);
        let ch_finish = ch_start + ch_cost;
        self.channels[idx] = ch_finish;
        // Stage 2: shared internal bandwidth.
        let bw_cost = self.cfg.cost.ssd_bandwidth_cost(write, bytes);
        let bw_start = self.bw_until.max(now);
        let bw_finish = bw_start + bw_cost;
        self.bw_until = bw_finish;
        let mut finish = ch_finish.max(bw_finish);
        // NVMe-oF hop: request out + response back, data in one direction.
        if let Some(t) = self.cfg.transport {
            finish += 2 * t.one_way + (bytes as f64 * t.per_byte) as Ns;
        }
        finish
    }

    /// Completion time of a faulted command: full service time for media
    /// transfers (a real drive exhausts internal retries first), a
    /// write-latency beat for everything else.
    fn fault_finish(&mut self, now: Ns, class: CmdClass, cmd: &SubmissionEntry) -> Ns {
        match class {
            CmdClass::Read | CmdClass::Write => {
                let bytes = cmd.nlb() as usize * LBA_SIZE;
                self.service_finish(now, class == CmdClass::Write, bytes)
            }
            _ => now + self.jitter(self.cfg.cost.ssd_write_lat),
        }
    }

    fn process_cmd(&mut self, queue: usize, cmd: SubmissionEntry, now: Ns) {
        let opcode = NvmOpcode::from_u8(cmd.opcode);
        let class = class_of(opcode);
        let mut now = now;
        let fault = if self.injector.is_active() {
            let f = self.injector.decide(now, class);
            if f.is_some() {
                self.telemetry.count(Metric::FaultsInjected);
            }
            f
        } else {
            None
        };
        match fault {
            None => {}
            Some(FaultAction::Stall(d)) => {
                // The drive sits on the command before servicing it.
                now += d;
            }
            Some(FaultAction::CqPressure(d)) => {
                // Completions (this one included) are held back while the
                // host-side CQ stays full.
                self.cq_blocked_until = self.cq_blocked_until.max(now + d);
            }
            Some(FaultAction::DropCompletion) => {
                // The drive does the work but the completion is lost:
                // writes still land (a re-issue is idempotent) and no CQE
                // is ever posted, so only a host-side deadline recovers
                // the tag.
                if self.cfg.move_data {
                    if let Some(op) = opcode {
                        let slba = cmd.slba();
                        let nlb = cmd.nlb();
                        if matches!(op, NvmOpcode::Read | NvmOpcode::Write | NvmOpcode::Compare)
                            && self.store.in_range(slba, nlb)
                        {
                            let bytes = nlb as usize * LBA_SIZE;
                            let _ = self.dma(queue, &cmd, op, slba, bytes);
                        }
                    }
                }
                return;
            }
            Some(FaultAction::CorruptPayload) => {
                // The end-to-end guard detects the corruption before any
                // data moves, so a retry sees clean state on both sides.
                let finish = self.fault_finish(now, class, &cmd);
                self.schedule(
                    queue,
                    CompletionEntry::new(cmd.cid, Status::GUARD_CHECK),
                    finish,
                );
                return;
            }
            Some(FaultAction::MediaError { dnr }) => {
                let status = match class {
                    CmdClass::Write => Status::WRITE_FAULT,
                    CmdClass::Read => Status::UNRECOVERED_READ,
                    _ => Status::INTERNAL,
                };
                let status = if dnr { status.with_dnr() } else { status };
                let finish = self.fault_finish(now, class, &cmd);
                self.schedule(queue, CompletionEntry::new(cmd.cid, status), finish);
                return;
            }
            Some(FaultAction::LinkOutage) => {
                // Not meaningful inside the drive; surface as a path error.
                self.schedule(
                    queue,
                    CompletionEntry::new(cmd.cid, Status::PATH_ERROR),
                    now + 5 * US,
                );
                return;
            }
        }
        let op = match opcode {
            Some(op) => op,
            None => {
                self.schedule(
                    queue,
                    CompletionEntry::new(cmd.cid, Status::INVALID_OPCODE),
                    now + 5 * US,
                );
                return;
            }
        };
        match op {
            NvmOpcode::Flush => {
                // Drain the (modeled) write cache.
                let finish = now + self.jitter(self.cfg.cost.ssd_write_lat);
                self.schedule(
                    queue,
                    CompletionEntry::new(cmd.cid, Status::SUCCESS),
                    finish,
                );
            }
            NvmOpcode::Read | NvmOpcode::Write | NvmOpcode::Compare => {
                let slba = cmd.slba();
                let nlb = cmd.nlb();
                if !self.store.in_range(slba, nlb) {
                    self.schedule(
                        queue,
                        CompletionEntry::new(cmd.cid, Status::LBA_OUT_OF_RANGE),
                        now + 5 * US,
                    );
                    return;
                }
                let bytes = nlb as usize * LBA_SIZE;
                let is_write = op == NvmOpcode::Write;
                let mut status = Status::SUCCESS;
                if self.cfg.move_data {
                    status = self.dma(queue, &cmd, op, slba, bytes);
                }
                let finish = self.service_finish(now, is_write, bytes);
                self.schedule(queue, CompletionEntry::new(cmd.cid, status), finish);
            }
            NvmOpcode::WriteZeroes | NvmOpcode::DatasetManagement => {
                let slba = cmd.slba();
                let nlb = cmd.nlb();
                if !self.store.in_range(slba, nlb) {
                    self.schedule(
                        queue,
                        CompletionEntry::new(cmd.cid, Status::LBA_OUT_OF_RANGE),
                        now + 5 * US,
                    );
                    return;
                }
                if self.cfg.move_data {
                    self.store.deallocate(slba, nlb);
                }
                let finish = now + self.jitter(self.cfg.cost.ssd_write_lat / 2);
                self.schedule(
                    queue,
                    CompletionEntry::new(cmd.cid, Status::SUCCESS),
                    finish,
                );
            }
            NvmOpcode::WriteUncorrectable => {
                let finish = now + self.jitter(self.cfg.cost.ssd_write_lat);
                self.schedule(
                    queue,
                    CompletionEntry::new(cmd.cid, Status::SUCCESS),
                    finish,
                );
            }
        }
    }

    /// Moves data between guest memory and the block store.
    fn dma(
        &mut self,
        queue: usize,
        cmd: &SubmissionEntry,
        op: NvmOpcode,
        slba: u64,
        bytes: usize,
    ) -> Status {
        let mem = self.queues[queue].mem.clone();
        let segs = match prp_segments(&mem, cmd.prp1, cmd.prp2, bytes) {
            Ok(s) => s,
            Err(_) => return Status::INVALID_FIELD,
        };
        match op {
            NvmOpcode::Write => {
                let mut data = Vec::with_capacity(bytes);
                for (gpa, len) in segs {
                    data.extend(mem.read_vec(gpa, len));
                }
                self.store.write_blocks(slba, &data);
                Status::SUCCESS
            }
            NvmOpcode::Read => {
                let data = self.store.read_vec(slba, (bytes / LBA_SIZE) as u32);
                let mut off = 0;
                for (gpa, len) in segs {
                    mem.write(gpa, &data[off..off + len]);
                    off += len;
                }
                Status::SUCCESS
            }
            NvmOpcode::Compare => {
                let disk = self.store.read_vec(slba, (bytes / LBA_SIZE) as u32);
                let mut host = Vec::with_capacity(bytes);
                for (gpa, len) in segs {
                    host.extend(mem.read_vec(gpa, len));
                }
                if disk == host {
                    Status::SUCCESS
                } else {
                    Status::new(nvmetro_nvme::StatusCodeType::MediaError, 0x85)
                }
            }
            _ => Status::SUCCESS,
        }
    }

    /// Posts completions due by `now`; returns whether any were posted.
    fn post_due(&mut self, now: Ns) -> bool {
        if now < self.cq_blocked_until {
            // Injected CQ-full pressure: nothing drains until it lifts.
            return false;
        }
        let mut progressed = false;
        while let Some(Reverse(p)) = self.pending.peek() {
            if p.finish > now {
                break;
            }
            let Reverse(p) = self.pending.pop().expect("peeked");
            let q = &self.queues[p.queue];
            match q.cq.push_quiet(p.cqe) {
                Ok(()) => {
                    self.cq_unrung.push(p.queue);
                    if q.mode == CompletionMode::Interrupt {
                        self.charged += self.cfg.cost.ssd_irq_cost;
                    }
                    self.ios_served += 1;
                    self.telemetry.count(Metric::DeviceIos);
                    self.telemetry.tag_event(
                        p.finish,
                        p.cqe.cid,
                        Stage::DeviceService,
                        PathKind::Fast,
                    );
                    progressed = true;
                }
                Err(cqe) => {
                    // CQ full: retry shortly. The consumer will drain it.
                    let retry_at = now + US;
                    self.schedule(p.queue, cqe, retry_at);
                    break;
                }
            }
        }
        // One ring per CQ this pass posted to, however many CQEs it got.
        if progressed {
            self.cq_unrung.sort_unstable();
            self.cq_unrung.dedup();
            for queue in self.cq_unrung.drain(..) {
                self.queues[queue].cq.ring();
            }
        }
        progressed
    }

    /// Services the submission queues whose doorbell rang, in queue order;
    /// returns whether any command was fetched. Each queue is drained dry,
    /// so none keeps its bell.
    fn fetch_rung(&mut self, now: Ns) -> bool {
        if !self.bells.any() {
            return false;
        }
        let mut fetched = false;
        for w in 0..self.bells.words() {
            let mut bits = self.bells.take(w);
            while bits != 0 {
                let qi = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                while let Some((cmd, _)) = self.queues[qi].sq.pop() {
                    self.process_cmd(qi, cmd, now);
                    fetched = true;
                }
            }
        }
        fetched
    }
}

impl Actor for SimSsd {
    fn name(&self) -> &str {
        &self.name
    }

    fn poll(&mut self, now: Ns) -> Progress {
        let posted = self.post_due(now);
        let fetched = self.fetch_rung(now);
        if posted || fetched {
            Progress::Busy
        } else {
            Progress::Idle
        }
    }

    fn next_event(&self) -> Option<Ns> {
        self.pending
            .peek()
            .map(|Reverse(p)| p.finish.max(self.cq_blocked_until))
    }

    fn charged(&self) -> Ns {
        self.charged
    }

    fn cpu_mode(&self) -> CpuMode {
        // The device itself is hardware; only IRQ delivery costs host CPU.
        CpuMode::EventDriven
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmetro_nvme::{CqPair, SqPair};

    fn small_cfg() -> SsdConfig {
        SsdConfig {
            capacity_lbas: 100_000,
            ..Default::default()
        }
    }

    struct Rig {
        ssd: SimSsd,
        sq: nvmetro_nvme::SqProducer,
        cq: nvmetro_nvme::CqConsumer,
        mem: Arc<GuestMemory>,
    }

    fn rig(cfg: SsdConfig) -> Rig {
        let mut ssd = SimSsd::new("ssd", cfg);
        let (sqp, sqc) = SqPair::new(256);
        let (cqp, cqc) = CqPair::new(256);
        let mem = Arc::new(GuestMemory::new(1 << 26));
        ssd.add_queue(sqc, cqp, mem.clone(), CompletionMode::Polled);
        Rig {
            ssd,
            sq: sqp,
            cq: cqc,
            mem,
        }
    }

    /// Polls the ssd forward in virtual time until a completion appears.
    fn run_until_completion(r: &mut Rig, mut now: Ns) -> (CompletionEntry, Ns) {
        for _ in 0..1000 {
            r.ssd.poll(now);
            if let Some(cqe) = r.cq.pop() {
                return (cqe, now);
            }
            now = r.ssd.next_event().expect("work must be pending");
        }
        panic!("no completion");
    }

    #[test]
    fn write_then_read_round_trips_data() {
        let mut r = rig(small_cfg());
        let data: Vec<u8> = (0..1024).map(|i| (i % 200) as u8).collect();
        let gpa = r.mem.alloc(1024);
        r.mem.write(gpa, &data);
        let (p1, p2) = nvmetro_mem::build_prps(&r.mem, gpa, 1024);
        r.sq.push(SubmissionEntry::write(1, 50, 2, p1, p2)).unwrap();
        let (cqe, t) = run_until_completion(&mut r, 0);
        assert_eq!(cqe.status(), Status::SUCCESS);

        let out_gpa = r.mem.alloc(1024);
        let (p1, p2) = nvmetro_mem::build_prps(&r.mem, out_gpa, 1024);
        r.sq.push(SubmissionEntry::read(1, 50, 2, p1, p2)).unwrap();
        let (cqe, _) = run_until_completion(&mut r, t);
        assert_eq!(cqe.status(), Status::SUCCESS);
        assert_eq!(r.mem.read_vec(out_gpa, 1024), data);
    }

    #[test]
    fn read_latency_is_in_the_calibrated_band() {
        let mut r = rig(small_cfg());
        let gpa = r.mem.alloc(512);
        let (p1, p2) = nvmetro_mem::build_prps(&r.mem, gpa, 512);
        r.sq.push(SubmissionEntry::read(1, 0, 1, p1, p2)).unwrap();
        r.ssd.poll(0);
        let finish = r.ssd.next_event().unwrap();
        let lat = CostModel::default().ssd_read_lat;
        assert!(
            finish > lat / 2 && finish < lat * 2,
            "QD1 512B read latency {finish} vs base {lat}"
        );
    }

    #[test]
    fn out_of_range_read_fails() {
        let mut r = rig(small_cfg());
        let gpa = r.mem.alloc(512);
        let (p1, p2) = nvmetro_mem::build_prps(&r.mem, gpa, 512);
        r.sq.push(SubmissionEntry::read(1, 99_999_999, 1, p1, p2))
            .unwrap();
        let (cqe, _) = run_until_completion(&mut r, 0);
        assert_eq!(cqe.status(), Status::LBA_OUT_OF_RANGE);
    }

    #[test]
    fn unknown_opcode_fails() {
        let mut r = rig(small_cfg());
        let mut cmd = SubmissionEntry::flush(1);
        cmd.opcode = 0x7F;
        r.sq.push(cmd).unwrap();
        let (cqe, _) = run_until_completion(&mut r, 0);
        assert_eq!(cqe.status(), Status::INVALID_OPCODE);
    }

    #[test]
    fn flush_and_write_zeroes_succeed() {
        let mut r = rig(small_cfg());
        r.sq.push(SubmissionEntry::flush(1)).unwrap();
        let (cqe, t) = run_until_completion(&mut r, 0);
        assert_eq!(cqe.status(), Status::SUCCESS);

        // Write data then zero it via WriteZeroes.
        let store = r.ssd.store();
        store.write_blocks(7, &[0xAB; 512]);
        let mut wz = SubmissionEntry::read(1, 7, 1, 0, 0);
        wz.opcode = NvmOpcode::WriteZeroes as u8;
        r.sq.push(wz).unwrap();
        let (cqe, _) = run_until_completion(&mut r, t);
        assert_eq!(cqe.status(), Status::SUCCESS);
        assert!(store.read_vec(7, 1).iter().all(|&b| b == 0));
    }

    #[test]
    fn parallel_commands_overlap_on_channels() {
        // 8 QD-8 reads must finish much sooner than 8x the QD-1 latency.
        let mut r = rig(small_cfg());
        let gpa = r.mem.alloc(512 * 8);
        for i in 0..8 {
            let (p1, p2) = nvmetro_mem::build_prps(&r.mem, gpa + i * 512, 512);
            r.sq.push(SubmissionEntry::read(1, i, 1, p1, p2)).unwrap();
        }
        r.ssd.poll(0);
        let mut last_finish = 0;
        let mut done = 0;
        let mut now;
        while done < 8 {
            now = r.ssd.next_event().expect("pending");
            r.ssd.poll(now);
            while r.cq.pop().is_some() {
                done += 1;
                last_finish = now;
            }
        }
        let qd1 = CostModel::default().ssd_read_lat;
        assert!(
            last_finish < qd1 * 3,
            "8 parallel reads took {last_finish}, expected ~1x-2x QD1 ({qd1})"
        );
    }

    #[test]
    fn bandwidth_stage_limits_large_sequential_reads() {
        // Saturate with 128K reads; throughput must be bandwidth-bound
        // (~3 GB/s), not channel-bound.
        let cfg = SsdConfig {
            move_data: false,
            ..small_cfg()
        };
        let mut r = rig(cfg);
        let n = 64;
        for i in 0..n {
            r.sq.push(SubmissionEntry::read(1, i * 256, 256, 0x1000, 0))
                .unwrap();
        }
        r.ssd.poll(0);
        let mut done = 0;
        let mut now = 0;
        while done < n {
            now = r.ssd.next_event().expect("pending");
            r.ssd.poll(now);
            while r.cq.pop().is_some() {
                done += 1;
            }
        }
        let bytes = n as f64 * 131072.0;
        let gbs = bytes / now as f64;
        assert!(gbs > 2.0 && gbs < 5.0, "128K sequential read {gbs} GB/s");
    }

    #[test]
    fn transport_adds_remote_latency() {
        let mut local = rig(small_cfg());
        let remote_cfg = SsdConfig {
            transport: Some(Transport {
                one_way: 10 * US,
                per_byte: 0.1,
            }),
            ..small_cfg()
        };
        let mut remote = rig(remote_cfg);
        for r in [&mut local, &mut remote] {
            let gpa = r.mem.alloc(512);
            let (p1, p2) = nvmetro_mem::build_prps(&r.mem, gpa, 512);
            r.sq.push(SubmissionEntry::read(1, 0, 1, p1, p2)).unwrap();
            r.ssd.poll(0);
        }
        let lf = local.ssd.next_event().unwrap();
        let rf = remote.ssd.next_event().unwrap();
        assert!(
            rf > lf + 15 * US,
            "remote ({rf}) must pay the fabric RTT over local ({lf})"
        );
    }

    #[test]
    fn interrupt_mode_charges_host_cpu() {
        let mut ssd = SimSsd::new("ssd", small_cfg());
        let (sqp, sqc) = SqPair::new(16);
        let (cqp, cqc) = CqPair::new(16);
        let mem = Arc::new(GuestMemory::new(1 << 20));
        ssd.add_queue(sqc, cqp, mem, CompletionMode::Interrupt);
        sqp.push(SubmissionEntry::flush(1)).unwrap();
        ssd.poll(0);
        let t = ssd.next_event().unwrap();
        ssd.poll(t);
        assert!(cqc.pop().is_some());
        assert!(ssd.charged() > 0, "IRQ must cost host CPU");
        assert_eq!(ssd.ios_served(), 1);
    }

    #[test]
    fn fault_plan_media_rate_fails_reads_and_writes() {
        let cfg = SsdConfig {
            faults: nvmetro_faults::FaultPlan::media_fail_rate(0xBAD, 1.0),
            ..small_cfg()
        };
        let mut r = rig(cfg);
        let gpa = r.mem.alloc(512);
        let (p1, p2) = nvmetro_mem::build_prps(&r.mem, gpa, 512);
        r.sq.push(SubmissionEntry::read(1, 0, 1, p1, p2)).unwrap();
        let (cqe, t) = run_until_completion(&mut r, 0);
        assert_eq!(cqe.status(), Status::UNRECOVERED_READ);
        r.sq.push(SubmissionEntry::write(1, 0, 1, p1, p2)).unwrap();
        let (cqe, t) = run_until_completion(&mut r, t);
        assert_eq!(cqe.status(), Status::WRITE_FAULT);
        // Flush is outside MEDIA_CLASSES and must be untouched.
        r.sq.push(SubmissionEntry::flush(1)).unwrap();
        let (cqe, _) = run_until_completion(&mut r, t);
        assert_eq!(cqe.status(), Status::SUCCESS);
    }

    #[test]
    fn fault_plan_reaches_flush_and_admin_commands() {
        use nvmetro_faults::{CmdClass, FaultAction, FaultPlan, FaultRule, FaultSite};
        let plan = FaultPlan::new(0x11).rule(
            FaultRule::new(FaultSite::Device, FaultAction::MediaError { dnr: true })
                .classes(CmdClass::Flush.bit() | CmdClass::Admin.bit()),
        );
        let mut r = rig(SsdConfig {
            faults: plan,
            ..small_cfg()
        });
        r.sq.push(SubmissionEntry::flush(1)).unwrap();
        let (cqe, t) = run_until_completion(&mut r, 0);
        assert_eq!(cqe.status().without_dnr(), Status::INTERNAL);
        assert!(cqe.status().dnr(), "plan asked for DNR");
        // Unrecognized opcodes classify as admin and fault the same way.
        let mut cmd = SubmissionEntry::flush(2);
        cmd.opcode = 0x7F;
        r.sq.push(cmd).unwrap();
        let (cqe, t) = run_until_completion(&mut r, t);
        assert!(cqe.status().dnr());
        // Reads are outside the mask and still succeed.
        let gpa = r.mem.alloc(512);
        let (p1, p2) = nvmetro_mem::build_prps(&r.mem, gpa, 512);
        r.sq.push(SubmissionEntry::read(1, 0, 1, p1, p2)).unwrap();
        let (cqe, _) = run_until_completion(&mut r, t);
        assert_eq!(cqe.status(), Status::SUCCESS);
    }

    #[test]
    fn stall_fault_delays_completion() {
        use nvmetro_faults::{FaultAction, FaultPlan, FaultRule, FaultSite};
        let stall = 2_000_000; // 2 ms, far above any service time
        let plan = FaultPlan::new(0x22)
            .rule(FaultRule::new(FaultSite::Device, FaultAction::Stall(stall)).max_hits(1));
        let mut r = rig(SsdConfig {
            faults: plan,
            move_data: false,
            ..small_cfg()
        });
        r.sq.push(SubmissionEntry::read(1, 0, 1, 0x1000, 0))
            .unwrap();
        r.ssd.poll(0);
        let finish = r.ssd.next_event().unwrap();
        assert!(finish >= stall, "stalled command finished at {finish}");
    }

    #[test]
    fn dropped_completion_never_posts() {
        use nvmetro_faults::{FaultAction, FaultPlan, FaultRule, FaultSite};
        let plan = FaultPlan::new(0x33)
            .rule(FaultRule::new(FaultSite::Device, FaultAction::DropCompletion).max_hits(1));
        let mut r = rig(SsdConfig {
            faults: plan,
            move_data: false,
            ..small_cfg()
        });
        r.sq.push(SubmissionEntry::read(1, 0, 1, 0x1000, 0))
            .unwrap();
        r.ssd.poll(0);
        assert_eq!(r.ssd.next_event(), None, "dropped command must vanish");
        assert!(r.cq.pop().is_none());
        // The next command (cap exhausted) completes normally.
        r.sq.push(SubmissionEntry::read(1, 0, 1, 0x1000, 0))
            .unwrap();
        let (cqe, _) = run_until_completion(&mut r, 0);
        assert_eq!(cqe.status(), Status::SUCCESS);
    }

    #[test]
    fn cq_pressure_holds_completions_until_it_lifts() {
        use nvmetro_faults::{FaultAction, FaultPlan, FaultRule, FaultSite};
        let hold = 5_000_000; // 5 ms
        let plan = FaultPlan::new(0x44)
            .rule(FaultRule::new(FaultSite::Device, FaultAction::CqPressure(hold)).max_hits(1));
        let mut r = rig(SsdConfig {
            faults: plan,
            move_data: false,
            ..small_cfg()
        });
        r.sq.push(SubmissionEntry::read(1, 0, 1, 0x1000, 0))
            .unwrap();
        r.ssd.poll(0);
        let next = r.ssd.next_event().unwrap();
        assert!(next >= hold, "CQ must stay blocked until pressure lifts");
        r.ssd.poll(next - 1);
        assert!(r.cq.pop().is_none(), "nothing drains while blocked");
        r.ssd.poll(next);
        assert!(r.cq.pop().is_some(), "completion flows once unblocked");
    }

    #[test]
    fn corrupt_payload_surfaces_guard_check_and_preserves_data() {
        use nvmetro_faults::{CmdClass, FaultAction, FaultPlan, FaultRule, FaultSite};
        let plan = FaultPlan::new(0x55).rule(
            FaultRule::new(FaultSite::Device, FaultAction::CorruptPayload)
                .classes(CmdClass::Write.bit())
                .max_hits(1),
        );
        let mut r = rig(SsdConfig {
            faults: plan,
            ..small_cfg()
        });
        let store = r.ssd.store();
        store.write_blocks(9, &[0x77; 512]);
        let gpa = r.mem.alloc(512);
        r.mem.write(gpa, &[0x12; 512]);
        let (p1, p2) = nvmetro_mem::build_prps(&r.mem, gpa, 512);
        r.sq.push(SubmissionEntry::write(1, 9, 1, p1, p2)).unwrap();
        let (cqe, t) = run_until_completion(&mut r, 0);
        assert_eq!(cqe.status(), Status::GUARD_CHECK);
        assert!(
            store.read_vec(9, 1).iter().all(|&b| b == 0x77),
            "guarded write must not land"
        );
        // Retry (cap exhausted) lands cleanly.
        r.sq.push(SubmissionEntry::write(1, 9, 1, p1, p2)).unwrap();
        let (cqe, _) = run_until_completion(&mut r, t);
        assert_eq!(cqe.status(), Status::SUCCESS);
        assert!(store.read_vec(9, 1).iter().all(|&b| b == 0x12));
    }

    #[test]
    fn compare_detects_mismatch() {
        let mut r = rig(small_cfg());
        let store = r.ssd.store();
        store.write_blocks(3, &[0x11; 512]);
        let gpa = r.mem.alloc(512);
        r.mem.write(gpa, &[0x22; 512]);
        let (p1, p2) = nvmetro_mem::build_prps(&r.mem, gpa, 512);
        let mut cmd = SubmissionEntry::read(1, 3, 1, p1, p2);
        cmd.opcode = NvmOpcode::Compare as u8;
        r.sq.push(cmd).unwrap();
        let (cqe, _) = run_until_completion(&mut r, 0);
        assert!(cqe.status().is_error());
    }
}
