//! The userspace I/O function (UIF) framework (§III-D).
//!
//! A UIF is the userspace half of a storage function: it maps the notify
//! queues (NSQ/NCQ) into its address space, polls for requests exported by
//! the router, reads/writes the VM's data pages, and answers with a status
//! code — or performs its own backend disk I/O first (the paper's UIFs use
//! `io_uring`) and answers asynchronously.
//!
//! The framework mirrors the paper's 1.1 kLoC C++ library: it owns queue
//! setup, adaptive polling, NVMe command parsing, guest page access and
//! io_uring-style backend submission, so a concrete [`Uif`] (see
//! `nvmetro-functions`) only implements `work`.

use nvmetro_faults::{CmdClass, FaultAction, FaultInjector};
use nvmetro_mem::{prp_segments, GuestMemory, PAGE_SIZE};
use nvmetro_nvme::{
    CompletionEntry, CqConsumer, CqProducer, NvmOpcode, SqConsumer, SqProducer, Status,
    SubmissionEntry, LBA_SIZE,
};
use nvmetro_sim::cost::CostModel;
use nvmetro_sim::{Actor, CpuMode, Ns, Progress, Station};
use nvmetro_telemetry::{Metric, PathKind, Stage, TelemetryHandle};
use std::collections::HashMap;
use std::sync::Arc;

/// What a UIF decided about a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UifDisposition {
    /// Respond to the router immediately with this status
    /// (`return false; /* respond with status */` in Listing 2).
    Respond(Status),
    /// The UIF issued asynchronous backend I/O and will respond when it
    /// completes (`return true; /* asynchronous response later */`).
    Async,
}

/// A storage function's userspace half.
pub trait Uif: Send {
    /// Handles one request exported over the notify path. `req` gives
    /// parsed command fields, guest data access, and the backend I/O
    /// handle.
    fn work(&mut self, req: &mut UifRequest<'_>) -> UifDisposition;

    /// Called when a backend I/O submitted through [`UifIoHandle`]
    /// completes; returns `Some((tag, status))` to answer the original
    /// request now.
    fn backend_done(&mut self, ticket: u64, status: Status) -> Option<(u16, Status)> {
        Some((ticket as u16, status))
    }

    /// Virtual-time CPU cost of `work` for this command (e.g. XTS cost for
    /// an encryptor). Defaults to the framework's per-request overhead only.
    fn work_cost(&self, cmd: &SubmissionEntry, cost: &CostModel) -> Ns {
        let _ = cmd;
        let _ = cost;
        0
    }

    /// Autonomous background work, called once per runner poll even when no
    /// request arrived: replica resync, link probing, housekeeping timers.
    /// Returns `true` if the UIF made progress (keeps the runner busy).
    fn tick(&mut self, io: &mut UifIoHandle<'_>, now: Ns) -> bool {
        let _ = io;
        let _ = now;
        false
    }

    /// Next virtual time at which [`Uif::tick`] has scheduled work (e.g. a
    /// link probe); merged into the runner's wakeup so the executor keeps
    /// advancing virtual time toward it even when the guest has gone quiet.
    fn next_event(&self) -> Option<Ns> {
        None
    }
}

/// A parsed request handed to [`Uif::work`].
pub struct UifRequest<'a> {
    /// The (router-mediated) command; `cid` is the routing tag.
    pub cmd: SubmissionEntry,
    /// Routing tag to echo in asynchronous responses.
    pub tag: u16,
    /// Virtual time at which the framework handed the request to `work`
    /// (lets fault-aware UIFs consult time-windowed fault plans).
    pub now: Ns,
    mem: &'a GuestMemory,
    io: &'a mut UifIo,
    transfer_data: bool,
}

impl<'a> UifRequest<'a> {
    /// NVM opcode of the request, if recognized.
    pub fn opcode(&self) -> Option<NvmOpcode> {
        self.cmd.nvm_opcode()
    }

    /// Request length in bytes.
    pub fn data_len(&self) -> usize {
        self.cmd.data_len()
    }

    /// The guest pages the request's PRPs name for `len` bytes. The PRPs
    /// come from the guest and nothing upstream walks them, so a bad one
    /// is answered as the device answers it: `INVALID_FIELD`.
    fn guest_segments(&self, len: usize) -> Result<Vec<(u64, usize)>, Status> {
        prp_segments(self.mem, self.cmd.prp1, self.cmd.prp2, len).map_err(|_| Status::INVALID_FIELD)
    }

    /// Gathers the request's guest data pages (empty in no-data
    /// performance runs).
    pub fn read_guest(&self) -> Result<Vec<u8>, Status> {
        if !self.transfer_data {
            return Ok(Vec::new());
        }
        let len = self.data_len();
        let mut out = Vec::with_capacity(len);
        for (gpa, l) in self.guest_segments(len)? {
            out.extend(self.mem.read_vec(gpa, l));
        }
        Ok(out)
    }

    /// Scatters `data` back into the request's guest pages.
    pub fn write_guest(&self, data: &[u8]) -> Result<(), Status> {
        if !self.transfer_data {
            return Ok(());
        }
        let mut off = 0;
        for (gpa, l) in self.guest_segments(data.len())? {
            self.mem.write(gpa, &data[off..off + l]);
            off += l;
        }
        Ok(())
    }

    /// Applies `f` to the guest data and writes it back (e.g. decryption
    /// of ciphertext the device already delivered, as in Listing 2's
    /// `do_read`). In place for the guest, not for the host: the data is
    /// gathered with [`UifRequest::read_guest`] (a `Vec` per PRP segment,
    /// copied into one buffer) and scattered with
    /// [`UifRequest::write_guest`]. `f` does not run when the PRPs are
    /// bad.
    pub fn modify_guest(&self, f: impl FnOnce(&mut [u8])) -> Result<(), Status> {
        if !self.transfer_data {
            return Ok(());
        }
        let mut data = self.read_guest()?;
        f(&mut data);
        self.write_guest(&data)
    }

    /// The backend I/O handle (io_uring in the paper).
    pub fn io(&mut self) -> UifIoHandle<'_> {
        UifIoHandle { io: self.io }
    }
}

/// Borrowed access to the backend I/O engine from inside `work`.
pub struct UifIoHandle<'a> {
    io: &'a mut UifIo,
}

impl<'a> UifIoHandle<'a> {
    /// Submits an asynchronous write of `nlb` blocks at `slba`; `data`
    /// (when present) is copied into a pooled host buffer first.
    /// `ticket` comes back in [`Uif::backend_done`].
    pub fn write(&mut self, slba: u64, nlb: u32, data: Option<&[u8]>, ticket: u64) {
        self.io.submit(NvmOpcode::Write, slba, nlb, data, ticket);
    }

    /// Submits an asynchronous read (data lands in a pooled buffer and is
    /// discarded; used for prefetch/scrub-style functions).
    pub fn read(&mut self, slba: u64, nlb: u32, ticket: u64) {
        self.io.submit(NvmOpcode::Read, slba, nlb, None, ticket);
    }

    /// Submits a flush.
    pub fn flush(&mut self, ticket: u64) {
        self.io.submit(NvmOpcode::Flush, 0, 1, None, ticket);
    }
}

/// Pooled host buffer: a contiguous host-memory region plus prebuilt PRPs.
struct HostBuffer {
    prp1: u64,
    prp2: u64,
    base: u64,
    pages: usize,
}

/// io_uring-style backend I/O engine over the UIF's own device queue pair.
struct UifIo {
    sq: SqProducer,
    cq: CqConsumer,
    host_mem: Arc<GuestMemory>,
    pool: HashMap<usize, Vec<HostBuffer>>,
    in_flight: HashMap<u16, (u64, Option<HostBuffer>)>,
    next_cid: u16,
    charged: Ns,
    io_cost: Ns,
    transfer_data: bool,
    submitted: u64,
}

impl UifIo {
    fn alloc_buffer(&mut self, bytes: usize) -> HostBuffer {
        let pages = bytes.div_ceil(PAGE_SIZE).max(1);
        if let Some(buf) = self.pool.get_mut(&pages).and_then(|v| v.pop()) {
            return buf;
        }
        // Fresh region: data pages followed by one PRP-list page.
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
        HostBuffer {
            prp1,
            prp2,
            base,
            pages,
        }
    }

    fn submit(&mut self, op: NvmOpcode, slba: u64, nlb: u32, data: Option<&[u8]>, ticket: u64) {
        let cid = self.next_cid;
        self.next_cid = self.next_cid.wrapping_add(1);
        let bytes = nlb as usize * LBA_SIZE;
        let buffer = if op == NvmOpcode::Flush || !self.transfer_data {
            None
        } else {
            let buf = self.alloc_buffer(bytes);
            if let Some(data) = data {
                self.host_mem.write(buf.base, data);
            }
            Some(buf)
        };
        let mut cmd = match op {
            NvmOpcode::Flush => SubmissionEntry::flush(1),
            _ => {
                let (prp1, prp2) = buffer
                    .as_ref()
                    .map(|b| (b.prp1, b.prp2))
                    .unwrap_or((0x1000, 0));
                if op == NvmOpcode::Write {
                    SubmissionEntry::write(1, slba, nlb, prp1, prp2)
                } else {
                    SubmissionEntry::read(1, slba, nlb, prp1, prp2)
                }
            }
        };
        cmd.cid = cid;
        self.in_flight.insert(cid, (ticket, buffer));
        self.charged += self.io_cost;
        self.submitted += 1;
        self.sq
            .push(cmd)
            .expect("UIF backend queue sized for max in-flight");
    }

    fn poll(&mut self, out: &mut Vec<(u64, Status)>) {
        while let Some(cqe) = self.cq.pop() {
            if let Some((ticket, buffer)) = self.in_flight.remove(&cqe.cid) {
                if let Some(buf) = buffer {
                    self.pool.entry(buf.pages).or_default().push(buf);
                }
                out.push((ticket, cqe.status()));
            }
        }
    }
}

/// Runs one UIF against one VM's notify queues — the framework's event
/// loop with adaptive polling ("switch between active polling and
/// OS-assisted waiting depending on the activity level", §III-D).
pub struct UifRunner {
    name: String,
    cost: CostModel,
    nsq: SqConsumer,
    ncq: CqProducer,
    guest_mem: Arc<GuestMemory>,
    uif: Box<dyn Uif>,
    work: Station<SubmissionEntry>,
    io: UifIo,
    io_out: Vec<(u64, Status)>,
    transfer_data: bool,
    requests: u64,
    responses: u64,
    telemetry: TelemetryHandle,
    faults: FaultInjector,
}

/// Fault class of an NVM opcode at the UIF dispatch site.
fn fault_class(op: Option<NvmOpcode>) -> CmdClass {
    match op {
        Some(op) if op.is_read() => CmdClass::Read,
        Some(op) if op.is_write() => CmdClass::Write,
        Some(NvmOpcode::Flush) => CmdClass::Flush,
        Some(_) => CmdClass::Management,
        None => CmdClass::Admin,
    }
}

impl UifRunner {
    /// Creates a runner.
    ///
    /// * `nsq`/`ncq` — UIF-side ends of the notify queues;
    /// * `guest_mem` — the served VM's memory (mapped into the UIF);
    /// * `backend` — producer/consumer ends of the UIF's own queue pair on
    ///   a backing device (its io_uring file);
    /// * `workers` — parallel worker threads (the paper's encryptor uses 2,
    ///   its SGX variant 1 + a switchless thread);
    /// * `transfer_data` — move real bytes (functional mode) or model costs
    ///   only (virtual-time figure runs).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: &str,
        cost: CostModel,
        nsq: SqConsumer,
        ncq: CqProducer,
        guest_mem: Arc<GuestMemory>,
        backend: (SqProducer, CqConsumer),
        host_mem: Arc<GuestMemory>,
        uif: Box<dyn Uif>,
        workers: usize,
        transfer_data: bool,
    ) -> Self {
        let io_cost = cost.io_uring_op;
        UifRunner {
            name: name.to_string(),
            cost,
            nsq,
            ncq,
            guest_mem,
            uif,
            work: Station::new(workers.max(1)),
            io: UifIo {
                sq: backend.0,
                cq: backend.1,
                host_mem,
                pool: HashMap::new(),
                in_flight: HashMap::new(),
                next_cid: 0,
                charged: 0,
                io_cost,
                transfer_data,
                submitted: 0,
            },
            io_out: Vec::new(),
            transfer_data,
            requests: 0,
            responses: 0,
            telemetry: TelemetryHandle::disabled(),
            faults: FaultInjector::off(),
        }
    }

    /// Attaches a telemetry worker handle (see `nvmetro-telemetry`).
    pub fn attach_telemetry(&mut self, handle: TelemetryHandle) {
        self.telemetry = handle;
    }

    /// Arms a fault injector (the `UifDispatch` site of a seeded fault
    /// plan): matching rules fire as requests are accepted from the NSQ,
    /// before the function's `work` runs.
    pub fn set_faults(&mut self, injector: FaultInjector) {
        self.faults = injector;
    }

    /// Requests received from the router so far.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Responses posted back to the router so far.
    pub fn responses(&self) -> u64 {
        self.responses
    }

    /// Backend I/Os submitted (io_uring operations).
    pub fn backend_ios(&self) -> u64 {
        self.io.submitted
    }

    fn respond(&mut self, tag: u16, status: Status, now: Ns) {
        self.ncq
            .push(CompletionEntry::new(tag, status))
            .expect("NCQ sized to NSQ depth");
        self.responses += 1;
        self.telemetry.count(Metric::UifResponses);
        self.telemetry
            .tag_event(now, tag, Stage::UifService, PathKind::Notify);
    }
}

impl Actor for UifRunner {
    fn name(&self) -> &str {
        &self.name
    }

    fn poll(&mut self, now: Ns) -> Progress {
        let mut progressed = false;
        // 1. Accept new notify-path requests into the worker station.
        while let Some((cmd, _)) = self.nsq.pop() {
            self.requests += 1;
            self.telemetry.count(Metric::UifRequests);
            let mut stall: Ns = 0;
            if self.faults.is_active() {
                if let Some(action) = self.faults.decide(now, fault_class(cmd.nvm_opcode())) {
                    self.telemetry.count(Metric::FaultsInjected);
                    match action {
                        // Lost on the notify path: the router's deadline is
                        // the only thing that can recover this request.
                        FaultAction::DropCompletion => {
                            progressed = true;
                            continue;
                        }
                        FaultAction::MediaError { dnr } => {
                            let st = match cmd.nvm_opcode() {
                                Some(op) if op.is_write() => Status::WRITE_FAULT,
                                Some(op) if op.is_read() => Status::UNRECOVERED_READ,
                                _ => Status::INTERNAL,
                            };
                            self.respond(cmd.cid, if dnr { st.with_dnr() } else { st }, now);
                            progressed = true;
                            continue;
                        }
                        FaultAction::CorruptPayload => {
                            self.respond(cmd.cid, Status::GUARD_CHECK, now);
                            progressed = true;
                            continue;
                        }
                        FaultAction::LinkOutage => {
                            self.respond(cmd.cid, Status::PATH_ERROR, now);
                            progressed = true;
                            continue;
                        }
                        // A wedged worker: the request waits out the stall
                        // before service.
                        FaultAction::Stall(d) | FaultAction::CqPressure(d) => stall = d,
                    }
                }
            }
            let cost = self.cost.uif_request + stall + self.uif.work_cost(&cmd, &self.cost);
            self.work.push(cmd, cost, now);
            progressed = true;
        }
        // 2. Complete worked requests.
        while let Some((cmd, _t)) = self.work.pop_done_timed(now) {
            let tag = cmd.cid;
            let submitted_before = self.io.submitted;
            let mut req = UifRequest {
                cmd,
                tag,
                now,
                mem: &self.guest_mem,
                io: &mut self.io,
                transfer_data: self.transfer_data,
            };
            let disposition = self.uif.work(&mut req);
            self.telemetry
                .add(Metric::UifBackendIos, self.io.submitted - submitted_before);
            match disposition {
                UifDisposition::Respond(status) => self.respond(tag, status, now),
                UifDisposition::Async => {}
            }
            progressed = true;
        }
        // 3. Reap backend completions.
        self.io_out.clear();
        self.io.poll(&mut self.io_out);
        let done: Vec<(u64, Status)> = self.io_out.drain(..).collect();
        for (ticket, status) in done {
            if let Some((tag, st)) = self.uif.backend_done(ticket, status) {
                self.respond(tag, st, now);
            }
            progressed = true;
        }
        // 4. Give the function its background slice (resync, link probes).
        let mut handle = UifIoHandle { io: &mut self.io };
        if self.uif.tick(&mut handle, now) {
            progressed = true;
        }
        if progressed {
            Progress::Busy
        } else {
            Progress::Idle
        }
    }

    fn next_event(&self) -> Option<Ns> {
        match (self.work.next_event(), self.uif.next_event()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn charged(&self) -> Ns {
        self.work.charged() + self.io.charged
    }

    fn cpu_mode(&self) -> CpuMode {
        CpuMode::Adaptive {
            idle_timeout: self.cost.adaptive_idle_timeout,
        }
    }
}
