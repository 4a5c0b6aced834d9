//! Block layer + device-mapper pipeline.

use nvmetro_crypto::Xts;
use nvmetro_faults::{CmdClass, FaultAction, FaultInjector};
use nvmetro_mem::{prp_segments, GuestMemory, PAGE_SIZE};
use nvmetro_nvme::{CqConsumer, SqProducer, Status, SubmissionEntry, LBA_SIZE};
use nvmetro_sim::cost::CostModel;
use nvmetro_sim::{Ns, Station};
use nvmetro_telemetry::{Metric, TelemetryHandle};
use std::collections::HashMap;
use std::sync::Arc;

/// Which device-mapper target sits on the block layer.
pub enum DmConfig {
    /// Plain block device (no DM).
    None,
    /// `dm-linear`: remap LBAs by a fixed offset.
    Linear {
        /// LBA offset added before hitting the device.
        offset: u64,
    },
    /// `dm-crypt` (aes-xts-plain64): encrypt on write via bounce buffers,
    /// decrypt in place on read. Sector tweaks use pre-remap LBAs, so
    /// ciphertext is compatible with NVMetro's encryption UIF.
    Crypt {
        /// LBA offset of the crypt device on the backing disk.
        offset: u64,
        /// XTS key (32 or 64 bytes); `None` models costs without real
        /// data transformation (virtual-time figure runs).
        key: Option<Vec<u8>>,
    },
    /// `dm-mirror` (dm-raid1): duplicate writes to device ports 0 and 1,
    /// read from the primary (port 0).
    Mirror {
        /// LBA offset on both legs.
        offset: u64,
    },
}

/// A request entering the kernel stack.
#[derive(Clone, Copy, Debug)]
pub struct DmRequest {
    /// Caller's identifier, returned on completion.
    pub user: u64,
    /// True for writes.
    pub write: bool,
    /// Starting LBA (pre-remap, i.e. as the guest sees it).
    pub slba: u64,
    /// Blocks.
    pub nlb: u32,
    /// Guest data pointer (PRP1).
    pub prp1: u64,
    /// Guest data pointer (PRP2).
    pub prp2: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stage {
    Block,
    CryptWork,
    WriteSerial,
}

#[derive(Clone, Copy)]
struct Io {
    req: DmRequest,
    stage: Stage,
    /// After device completion of a crypt read, decrypt before finishing.
    post_decrypt: bool,
}

struct Track {
    req: DmRequest,
    legs: u8,
    status: Status,
    post_decrypt: bool,
    bounce: Option<Bounce>,
}

struct Bounce {
    base: u64,
    prp1: u64,
    prp2: u64,
    pages: usize,
}

struct Port {
    sq: SqProducer,
    cq: CqConsumer,
}

/// The kernel block/DM pipeline (see crate docs).
pub struct KernelDm {
    cost: CostModel,
    config: DmConfig,
    block: Station<Io>,
    crypt: Station<Io>,
    serial: Station<Io>,
    ports: Vec<Port>,
    guest_mem: Arc<GuestMemory>,
    host_mem: Arc<GuestMemory>,
    pool: HashMap<usize, Vec<Bounce>>,
    xts: Option<Xts>,
    in_flight: HashMap<u16, Track>,
    next_cid: u16,
    done: Vec<(u64, Status)>,
    charged_extra: Ns,
    faults: FaultInjector,
    telemetry: TelemetryHandle,
}

impl KernelDm {
    /// Builds the pipeline over one or two device ports
    /// (`(sq, cq)` pairs registered on the backing devices).
    pub fn new(
        cost: CostModel,
        config: DmConfig,
        ports: Vec<(SqProducer, CqConsumer)>,
        guest_mem: Arc<GuestMemory>,
    ) -> Self {
        if matches!(config, DmConfig::Mirror { .. }) {
            assert!(ports.len() >= 2, "dm-mirror needs two device ports");
        } else {
            assert!(!ports.is_empty(), "need at least one device port");
        }
        let xts = match &config {
            DmConfig::Crypt { key: Some(k), .. } => Some(Xts::new(k)),
            _ => None,
        };
        let crypt_workers = cost.dmcrypt_workers.max(1);
        KernelDm {
            cost,
            config,
            block: Station::new(1),
            crypt: Station::new(crypt_workers),
            serial: Station::new(1),
            ports: ports.into_iter().map(|(sq, cq)| Port { sq, cq }).collect(),
            guest_mem,
            host_mem: Arc::new(GuestMemory::new(1 << 32)),
            pool: HashMap::new(),
            xts: None.or(xts),
            in_flight: HashMap::new(),
            next_cid: 0,
            done: Vec::new(),
            charged_extra: 0,
            faults: FaultInjector::off(),
            telemetry: TelemetryHandle::disabled(),
        }
    }

    /// Arms a fault injector (the `KernelDm` site of a seeded fault plan):
    /// matching rules fire at submit time, before the block layer.
    pub fn set_faults(&mut self, injector: FaultInjector) {
        self.faults = injector;
    }

    /// Attaches a telemetry worker handle; injected faults are counted as
    /// `Metric::FaultsInjected`.
    pub fn attach_telemetry(&mut self, handle: TelemetryHandle) {
        self.telemetry = handle;
    }

    /// Faults injected into this stack so far.
    pub fn faults_injected(&self) -> u64 {
        self.faults.injected()
    }

    /// Memory object backing crypt bounce buffers (the device port for
    /// writes must resolve PRPs against this when crypt is active).
    pub fn host_memory(&self) -> Arc<GuestMemory> {
        self.host_mem.clone()
    }

    /// Submits a request into the stack.
    pub fn submit(&mut self, req: DmRequest, now: Ns) {
        let mut stall: Ns = 0;
        if self.faults.is_active() {
            let class = if req.write {
                CmdClass::Write
            } else {
                CmdClass::Read
            };
            if let Some(action) = self.faults.decide(now, class) {
                self.telemetry.count(Metric::FaultsInjected);
                match action {
                    // Swallowed inside the stack: no completion will ever
                    // surface — only a router deadline can recover it.
                    FaultAction::DropCompletion => return,
                    FaultAction::MediaError { dnr } => {
                        let st = if req.write {
                            Status::WRITE_FAULT
                        } else {
                            Status::UNRECOVERED_READ
                        };
                        self.done
                            .push((req.user, if dnr { st.with_dnr() } else { st }));
                        return;
                    }
                    FaultAction::CorruptPayload => {
                        self.done.push((req.user, Status::GUARD_CHECK));
                        return;
                    }
                    FaultAction::LinkOutage => {
                        self.done.push((req.user, Status::PATH_ERROR));
                        return;
                    }
                    // A hung kernel queue: the request sits in the block
                    // stage for the stall before normal processing.
                    FaultAction::Stall(d) | FaultAction::CqPressure(d) => stall = d,
                }
            }
        }
        let extra = match self.config {
            DmConfig::Mirror { .. } => self.cost.dmmirror_request,
            _ => 0,
        };
        self.block.push(
            Io {
                req,
                stage: Stage::Block,
                post_decrypt: false,
            },
            self.cost.block_layer + extra + stall,
            now,
        );
    }

    /// Cost of the DM target's single-threaded bookkeeping stage for one
    /// request, if the configured target has one.
    fn serial_cost(&self, nlb: u32) -> Option<Ns> {
        let bytes = nlb as usize * LBA_SIZE;
        match self.config {
            DmConfig::Crypt { .. } => Some(
                self.cost.dmcrypt_io_serial
                    + (bytes as f64 * self.cost.dmcrypt_serial_per_byte) as Ns,
            ),
            DmConfig::Mirror { .. } => Some(
                self.cost.dmmirror_io_serial
                    + (bytes as f64 * self.cost.dmmirror_serial_per_byte) as Ns,
            ),
            _ => None,
        }
    }

    fn offset(&self) -> u64 {
        match self.config {
            DmConfig::None => 0,
            DmConfig::Linear { offset }
            | DmConfig::Crypt { offset, .. }
            | DmConfig::Mirror { offset } => offset,
        }
    }

    fn alloc_bounce(&mut self, bytes: usize) -> Bounce {
        let pages = bytes.div_ceil(PAGE_SIZE).max(1);
        if let Some(b) = self.pool.get_mut(&pages).and_then(|v| v.pop()) {
            return b;
        }
        let base = self.host_mem.alloc(pages * PAGE_SIZE);
        let (prp1, prp2) = if pages == 1 {
            (base, 0)
        } else if pages == 2 {
            (base, base + PAGE_SIZE as u64)
        } else {
            let list = self.host_mem.alloc(PAGE_SIZE);
            for i in 1..pages {
                self.host_mem
                    .write_u64(list + ((i - 1) * 8) as u64, base + (i * PAGE_SIZE) as u64);
            }
            (base, list)
        };
        Bounce {
            base,
            prp1,
            prp2,
            pages,
        }
    }

    fn read_guest(&self, req: &DmRequest) -> Option<Vec<u8>> {
        let len = req.nlb as usize * LBA_SIZE;
        let segs = prp_segments(&self.guest_mem, req.prp1, req.prp2, len).ok()?;
        let mut out = Vec::with_capacity(len);
        for (gpa, l) in segs {
            out.extend(self.guest_mem.read_vec(gpa, l));
        }
        Some(out)
    }

    fn write_guest(&self, req: &DmRequest, data: &[u8]) {
        if let Ok(segs) = prp_segments(&self.guest_mem, req.prp1, req.prp2, data.len()) {
            let mut off = 0;
            for (gpa, l) in segs {
                self.guest_mem.write(gpa, &data[off..off + l]);
                off += l;
            }
        }
    }

    /// Forwards an I/O to device port(s); for crypt writes the data has
    /// already been encrypted into `bounce`; crypt reads get a bounce
    /// buffer here so the device DMA lands in host memory before
    /// decryption (dm-crypt's bounce-page behavior). A request whose
    /// remapped range does not fit below `u64::MAX` completes with
    /// `LBA_OUT_OF_RANGE` and sends nothing.
    fn forward_to_device(&mut self, io: Io, bounce: Option<Bounce>) {
        let Some(phys) = io
            .req
            .slba
            .checked_add(self.offset())
            .filter(|p| p.checked_add(io.req.nlb as u64).is_some())
        else {
            if let Some(b) = bounce {
                self.pool.entry(b.pages).or_default().push(b);
            }
            self.done.push((io.req.user, Status::LBA_OUT_OF_RANGE));
            return;
        };
        let bounce = if bounce.is_none() && io.post_decrypt && self.xts.is_some() {
            Some(self.alloc_bounce(io.req.nlb as usize * LBA_SIZE))
        } else {
            bounce
        };
        let legs: u8 = match (&self.config, io.req.write) {
            (DmConfig::Mirror { .. }, true) => 2,
            _ => 1,
        };
        let cid = self.alloc_cid();
        let (prp1, prp2) = bounce
            .as_ref()
            .map(|b| (b.prp1, b.prp2))
            .unwrap_or((io.req.prp1, io.req.prp2));
        let mut cmd = if io.req.write {
            SubmissionEntry::write(1, phys, io.req.nlb, prp1, prp2)
        } else {
            SubmissionEntry::read(1, phys, io.req.nlb, prp1, prp2)
        };
        cmd.cid = cid;
        self.in_flight.insert(
            cid,
            Track {
                req: io.req,
                legs,
                status: Status::SUCCESS,
                post_decrypt: io.post_decrypt,
                bounce,
            },
        );
        if legs == 2 {
            self.ports[0].sq.push(cmd).expect("primary port full");
            self.ports[1].sq.push(cmd).expect("secondary port full");
        } else {
            self.ports[0].sq.push(cmd).expect("device port full");
        }
    }

    fn alloc_cid(&mut self) -> u16 {
        // Linear scan from next_cid: in-flight counts are far below 64K.
        loop {
            let cid = self.next_cid;
            self.next_cid = self.next_cid.wrapping_add(1);
            if !self.in_flight.contains_key(&cid) {
                return cid;
            }
        }
    }

    /// Advances the pipeline; completed user requests accumulate
    /// internally (drain with [`KernelDm::take_done`]).
    pub fn poll(&mut self, now: Ns) {
        // Block layer output: DM targets with a single-threaded stage
        // (crypt's kcryptd_io/write bounce, dm-raid1's mirror thread) go
        // through `serial` first; everything else heads for the device.
        while let Some((io, t)) = self.block.pop_done_timed(now) {
            match self.serial_cost(io.req.nlb) {
                Some(cost) => self.serial.push(
                    Io {
                        stage: Stage::WriteSerial,
                        ..io
                    },
                    cost,
                    t,
                ),
                None => self.forward_to_device(io, None),
            }
        }
        // Serialized-stage output.
        while let Some((io, t)) = self.serial.pop_done_timed(now) {
            match (&self.config, io.req.write) {
                (DmConfig::Crypt { .. }, true) => {
                    // Writes: encrypt on a kcryptd worker, then submit.
                    let cost = self.cost.dmcrypt_request
                        + self.cost.xts_cost(io.req.nlb as usize * LBA_SIZE, false);
                    self.crypt.push(
                        Io {
                            stage: Stage::CryptWork,
                            ..io
                        },
                        cost,
                        t,
                    );
                }
                (DmConfig::Crypt { .. }, false) => {
                    // Reads: device first, decrypt after.
                    self.forward_to_device(
                        Io {
                            post_decrypt: true,
                            ..io
                        },
                        None,
                    );
                }
                _ => self.forward_to_device(io, None),
            }
        }
        // Crypt workers output.
        while let Some((io, _t)) = self.crypt.pop_done_timed(now) {
            match io.stage {
                Stage::CryptWork => {
                    // Encrypt guest data into a bounce buffer and submit.
                    let bounce = if self.xts.is_some() {
                        let bytes = io.req.nlb as usize * LBA_SIZE;
                        let bounce = self.alloc_bounce(bytes);
                        if let Some(mut data) = self.read_guest(&io.req) {
                            if let Some(xts) = &self.xts {
                                xts.encrypt_sectors(io.req.slba, &mut data);
                            }
                            self.host_mem.write(bounce.base, &data);
                        }
                        Some(bounce)
                    } else {
                        None
                    };
                    self.forward_to_device(io, bounce);
                }
                _ => {
                    // Post-read decrypt finished: complete to the caller.
                    self.done.push((io.req.user, Status::SUCCESS));
                }
            }
        }
        // Device completions.
        for p in 0..self.ports.len() {
            while let Some(cqe) = self.ports[p].cq.pop() {
                let Some(track) = self.in_flight.get_mut(&cqe.cid) else {
                    continue;
                };
                track.legs -= 1;
                if cqe.status().is_error() && !track.status.is_error() {
                    track.status = cqe.status();
                }
                if track.legs > 0 {
                    continue;
                }
                let track = self.in_flight.remove(&cqe.cid).expect("present");
                if track.post_decrypt && !track.status.is_error() {
                    // Decrypt the bounce data into the guest, charging a
                    // crypt worker for the XTS work.
                    if let (Some(xts), Some(b)) = (&self.xts, &track.bounce) {
                        let bytes = track.req.nlb as usize * LBA_SIZE;
                        let mut data = self.host_mem.read_vec(b.base, bytes);
                        xts.decrypt_sectors(track.req.slba, &mut data);
                        self.write_guest(&track.req, &data);
                    }
                    if let Some(b) = track.bounce {
                        self.pool.entry(b.pages).or_default().push(b);
                    }
                    let cost = self.cost.dmcrypt_request
                        + self.cost.xts_cost(track.req.nlb as usize * LBA_SIZE, false);
                    self.crypt.push(
                        Io {
                            req: track.req,
                            stage: Stage::Block,
                            post_decrypt: false,
                        },
                        cost,
                        now,
                    );
                } else {
                    if let Some(b) = track.bounce {
                        self.pool.entry(b.pages).or_default().push(b);
                    }
                    self.done.push((track.req.user, track.status));
                }
            }
        }
    }

    /// Drains completed `(user, status)` pairs into `out`.
    pub fn take_done(&mut self, out: &mut Vec<(u64, Status)>) {
        out.append(&mut self.done);
    }

    /// Earliest internally-scheduled event.
    pub fn next_event(&self) -> Option<Ns> {
        [
            self.block.next_event(),
            self.crypt.next_event(),
            self.serial.next_event(),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    /// Host CPU consumed by the stack.
    pub fn charged(&self) -> Ns {
        self.block.charged() + self.crypt.charged() + self.serial.charged() + self.charged_extra
    }

    /// Requests currently inside the pipeline or at the device.
    pub fn in_flight(&self) -> usize {
        self.block.in_flight()
            + self.crypt.in_flight()
            + self.serial.in_flight()
            + self.in_flight.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmetro_device::{CompletionMode, SimSsd, SsdConfig};
    use nvmetro_nvme::{CqPair, SqPair};
    use nvmetro_sim::Actor;

    struct Rig {
        dm: KernelDm,
        ssd: SimSsd,
        remote: Option<SimSsd>,
        guest: Arc<GuestMemory>,
    }

    fn rig(config_for: impl FnOnce() -> DmConfig, mirror: bool) -> Rig {
        let cost = CostModel::default();
        let mut ssd = SimSsd::new(
            "ssd",
            SsdConfig {
                capacity_lbas: 1 << 20,
                ..Default::default()
            },
        );
        let guest = Arc::new(GuestMemory::new(1 << 26));
        let mut ports = Vec::new();
        let config = config_for();

        // Build the stack with a placeholder host mem; then register ports.
        // Crypt writes carry bounce-buffer PRPs, so the port must resolve
        // against the stack's host memory; plain ports resolve guest PRPs.
        let needs_bounce = matches!(config, DmConfig::Crypt { key: Some(_), .. });

        let (sq_p, sq_c) = SqPair::new(256);
        let (cq_p, cq_c) = CqPair::new(256);
        ports.push((sq_p, cq_c));
        let mut remote = None;
        let mut remote_ports = Vec::new();
        if mirror {
            #[allow(unused_mut)]
            let mut r = SimSsd::new(
                "remote",
                SsdConfig {
                    capacity_lbas: 1 << 20,
                    transport: Some(nvmetro_device::Transport {
                        one_way: 10_000,
                        per_byte: 0.1,
                    }),
                    ..Default::default()
                },
            );
            let (rsq_p, rsq_c) = SqPair::new(256);
            let (rcq_p, rcq_c) = CqPair::new(256);
            ports.push((rsq_p, rcq_c));
            remote_ports.push((rsq_c, rcq_p));
            remote = Some(r.store()).map(|_| r);
        }
        let dm = KernelDm::new(cost, config, ports, guest.clone());
        let mem_for_port: Arc<GuestMemory> = if needs_bounce {
            dm.host_memory()
        } else {
            guest.clone()
        };
        ssd.add_queue(sq_c, cq_p, mem_for_port.clone(), CompletionMode::Interrupt);
        if let (Some(r), Some((rsq_c, rcq_p))) = (&mut remote, remote_ports.pop()) {
            r.add_queue(rsq_c, rcq_p, mem_for_port, CompletionMode::Interrupt);
        }
        Rig {
            dm,
            ssd,
            remote,
            guest,
        }
    }

    fn run(rig: &mut Rig, out: &mut Vec<(u64, Status)>, until_count: usize) {
        let mut now = 0;
        for _ in 0..100_000 {
            rig.dm.poll(now);
            rig.ssd.poll(now);
            if let Some(r) = &mut rig.remote {
                r.poll(now);
            }
            rig.dm.take_done(out);
            if out.len() >= until_count {
                return;
            }
            let next = [
                rig.dm.next_event(),
                rig.ssd.next_event(),
                rig.remote.as_ref().and_then(|r| r.next_event()),
            ]
            .into_iter()
            .flatten()
            .min();
            match next {
                Some(t) => now = t.max(now),
                None => now += 1_000,
            }
        }
        panic!(
            "pipeline stalled with {} of {} done",
            out.len(),
            until_count
        );
    }

    fn make_req(rig: &Rig, user: u64, write: bool, slba: u64, data: &[u8]) -> (DmRequest, u64) {
        let gpa = rig.guest.alloc(data.len());
        if write {
            rig.guest.write(gpa, data);
        }
        let (p1, p2) = nvmetro_mem::build_prps(&rig.guest, gpa, data.len());
        (
            DmRequest {
                user,
                write,
                slba,
                nlb: (data.len() / LBA_SIZE) as u32,
                prp1: p1,
                prp2: p2,
            },
            gpa,
        )
    }

    #[test]
    fn plain_block_write_read() {
        let mut r = rig(|| DmConfig::None, false);
        let data = vec![0x3Cu8; 1024];
        let (w, _) = make_req(&r, 1, true, 10, &data);
        r.dm.submit(w, 0);
        let mut out = Vec::new();
        run(&mut r, &mut out, 1);
        assert_eq!(out[0], (1, Status::SUCCESS));
        assert_eq!(r.ssd.store().read_vec(10, 2), data);

        let (rd, gpa) = make_req(&r, 2, false, 10, &vec![0u8; 1024]);
        r.dm.submit(rd, 0);
        out.clear();
        run(&mut r, &mut out, 1);
        assert_eq!(r.guest.read_vec(gpa, 1024), data);
    }

    #[test]
    fn linear_remaps_lbas() {
        let mut r = rig(|| DmConfig::Linear { offset: 7000 }, false);
        let data = vec![0x44u8; 512];
        let (w, _) = make_req(&r, 1, true, 3, &data);
        r.dm.submit(w, 0);
        let mut out = Vec::new();
        run(&mut r, &mut out, 1);
        assert_eq!(r.ssd.store().read_vec(7003, 1), data);
        assert!(r.ssd.store().read_vec(3, 1).iter().all(|&b| b == 0));
    }

    #[test]
    fn linear_refuses_a_remap_past_u64_max() {
        let mut r = rig(|| DmConfig::Linear { offset: 8 }, false);
        let (w, _) = make_req(&r, 1, true, u64::MAX - 3, &[0x44u8; 512]);
        r.dm.submit(w, 0);
        let mut out = Vec::new();
        run(&mut r, &mut out, 1);
        assert_eq!(out, vec![(1, Status::LBA_OUT_OF_RANGE)]);
        // Let the device serve anything it was sent.
        for _ in 0..100 {
            let Some(t) = r.ssd.next_event() else { break };
            r.ssd.poll(t);
        }
        assert_eq!(r.ssd.ios_served(), 0, "the device saw no command");
        assert_eq!(r.ssd.store().resident_blocks(), 0);
    }

    #[test]
    fn crypt_writes_ciphertext_and_reads_plaintext() {
        let key = vec![9u8; 64];
        let key2 = key.clone();
        let mut r = rig(
            move || DmConfig::Crypt {
                offset: 0,
                key: Some(key2),
            },
            false,
        );
        let plain = vec![0x21u8; 512];
        let (w, _) = make_req(&r, 1, true, 5, &plain);
        r.dm.submit(w, 0);
        let mut out = Vec::new();
        run(&mut r, &mut out, 1);
        assert_eq!(out[0].1, Status::SUCCESS);
        // On-disk bytes must be the XTS ciphertext, not plaintext.
        let on_disk = r.ssd.store().read_vec(5, 1);
        assert_ne!(on_disk, plain);
        let mut expect = plain.clone();
        Xts::new(&key).encrypt_sectors(5, &mut expect);
        assert_eq!(on_disk, expect, "dm-crypt-compatible ciphertext layout");

        // Read back decrypts in place.
        let (rd, gpa) = make_req(&r, 2, false, 5, &vec![0u8; 512]);
        r.dm.submit(rd, 0);
        out.clear();
        run(&mut r, &mut out, 1);
        assert_eq!(r.guest.read_vec(gpa, 512), plain);
    }

    #[test]
    fn mirror_duplicates_writes_and_reads_primary() {
        let mut r = rig(|| DmConfig::Mirror { offset: 0 }, true);
        let data = vec![0x66u8; 512];
        let (w, _) = make_req(&r, 1, true, 20, &data);
        r.dm.submit(w, 0);
        let mut out = Vec::new();
        run(&mut r, &mut out, 1);
        assert_eq!(out[0].1, Status::SUCCESS);
        assert_eq!(r.ssd.store().read_vec(20, 1), data);
        assert_eq!(
            r.remote.as_ref().unwrap().store().read_vec(20, 1),
            data,
            "secondary replica must match"
        );
        // Reads only touch the primary.
        let before = r.remote.as_ref().unwrap().ios_served();
        let (rd, _) = make_req(&r, 2, false, 20, &vec![0u8; 512]);
        r.dm.submit(rd, 0);
        out.clear();
        run(&mut r, &mut out, 1);
        assert_eq!(r.remote.as_ref().unwrap().ios_served(), before);
    }

    #[test]
    fn mirror_write_waits_for_slower_remote_leg() {
        let mut r = rig(|| DmConfig::Mirror { offset: 0 }, true);
        let (w, _) = make_req(&r, 1, true, 0, &vec![1u8; 512]);
        r.dm.submit(w, 0);
        let mut out = Vec::new();
        // Step manually to find completion time.
        let mut now = 0;
        while out.is_empty() {
            r.dm.poll(now);
            r.ssd.poll(now);
            r.remote.as_mut().unwrap().poll(now);
            // Device completions posted this step feed the DM pipeline.
            r.dm.poll(now);
            r.dm.take_done(&mut out);
            if out.is_empty() {
                now = [
                    r.dm.next_event(),
                    r.ssd.next_event(),
                    r.remote.as_ref().and_then(|x| x.next_event()),
                ]
                .into_iter()
                .flatten()
                .min()
                .expect("pending work");
            }
        }
        // Completion must be at least the remote RTT later than a purely
        // local write could finish.
        assert!(
            now >= 20_000,
            "mirror completion at {now} ignored the remote leg"
        );
    }

    #[test]
    fn crypt_charges_more_cpu_than_plain() {
        let mut plain = rig(|| DmConfig::None, false);
        let mut crypt = rig(
            || DmConfig::Crypt {
                offset: 0,
                key: None,
            },
            false,
        );
        for r in [&mut plain, &mut crypt] {
            let (w, _) = make_req(r, 1, true, 0, &vec![0u8; 4096]);
            r.dm.submit(w, 0);
            let mut out = Vec::new();
            run(r, &mut out, 1);
        }
        assert!(
            crypt.dm.charged() > plain.dm.charged() + 1_000,
            "crypt {} vs plain {}",
            crypt.dm.charged(),
            plain.dm.charged()
        );
    }

    #[test]
    fn fault_plan_fails_and_drops_requests_at_the_dm_site() {
        use nvmetro_faults::{FaultPlan, FaultRule, FaultSite};
        let mut r = rig(|| DmConfig::None, false);
        r.dm.set_faults(
            FaultPlan::new(0xD31)
                .rule(
                    FaultRule::new(FaultSite::KernelDm, FaultAction::MediaError { dnr: false })
                        .classes(CmdClass::Write.bit())
                        .max_hits(1),
                )
                .rule(
                    FaultRule::new(FaultSite::KernelDm, FaultAction::DropCompletion)
                        .classes(CmdClass::Read.bit())
                        .max_hits(1),
                )
                .injector(FaultSite::KernelDm),
        );
        // First write hits the media-error rule: immediate error, device
        // untouched.
        let (w, _) = make_req(&r, 1, true, 0, &vec![0x11u8; 512]);
        r.dm.submit(w, 0);
        let mut out = Vec::new();
        r.dm.take_done(&mut out);
        assert_eq!(out, vec![(1, Status::WRITE_FAULT)]);
        assert_eq!(r.dm.in_flight(), 0, "failed request never entered");
        // First read is swallowed: nothing completes, nothing in flight.
        let (rd, _) = make_req(&r, 2, false, 0, &vec![0u8; 512]);
        r.dm.submit(rd, 0);
        out.clear();
        r.dm.take_done(&mut out);
        assert!(out.is_empty());
        assert_eq!(r.dm.in_flight(), 0);
        assert_eq!(r.dm.faults_injected(), 2);
        // Both rules exhausted: the next write goes through normally.
        let data = vec![0x22u8; 512];
        let (w2, _) = make_req(&r, 3, true, 4, &data);
        r.dm.submit(w2, 0);
        out.clear();
        run(&mut r, &mut out, 1);
        assert_eq!(out, vec![(3, Status::SUCCESS)]);
        assert_eq!(r.ssd.store().read_vec(4, 1), data);
    }

    #[test]
    fn pipeline_tracks_in_flight() {
        let mut r = rig(|| DmConfig::None, false);
        assert_eq!(r.dm.in_flight(), 0);
        let (w, _) = make_req(&r, 1, true, 0, &vec![0u8; 512]);
        r.dm.submit(w, 0);
        assert!(r.dm.in_flight() > 0);
        let mut out = Vec::new();
        run(&mut r, &mut out, 1);
        assert_eq!(r.dm.in_flight(), 0);
    }
}
