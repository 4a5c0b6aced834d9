//! The NVMetro I/O router.
//!
//! The router shadows each VM's virtual queues (VSQ/VCQ), invokes the VM's
//! classifier at every decision point, and forwards commands over the fast
//! path (device HSQ/HCQ), the kernel path, or the notify path (UIF
//! NSQ/NCQ). It implements the paper's §III-C mechanics:
//!
//! * **iterative routing** — hooks re-invoke the classifier when a chosen
//!   path completes, forming a per-request state machine;
//! * **multicast** — a verdict may name several paths; the request then
//!   completes only when all of them have finished (used by mirroring);
//! * **direct mediation** — classifier writes to the context's writable
//!   window are copied back into the forwarded command (LBA translation);
//! * **isolation** — the router re-checks the VM's partition bounds on
//!   every fast-path and notify-path send, whatever the classifier did;
//! * **shared worker** — one router serves many VMs round-robin and tracks
//!   per-VM activity (its CPU mode is adaptive polling).
//!
//! Only the 64-byte command block moves between queues; data pages stay in
//! guest memory.

use crate::adaptive::{GovernorCounters, PollGovernor, PollMode};
use crate::classify::{
    path_bits, verdict_bits, Classifier, MediatedFields, NativeClassifier, RequestCtx, Verdict,
    HOOK_HCQ, HOOK_KCQ, HOOK_NCQ, HOOK_VSQ,
};
use crate::controller::Partition;
use crate::policy::{EnginePolicy, PollPolicy};
use crate::recovery::{BreakerSnap, CircuitBreaker, Gate, RecoveryConfig};
use crate::routing::{RequestState, RoutingTable};
use nvmetro_fleet::{
    Admit, CoalesceConfig, CoalesceStats, CoalesceWindow, FleetConfig, Join, TenantScheduler,
    TenantView,
};
use nvmetro_mem::GuestMemory;
use nvmetro_nvme::{
    BellPage, CompletionEntry, CqConsumer, CqPair, CqProducer, SqConsumer, SqPair, SqProducer,
    Status, SubmissionEntry,
};
use nvmetro_sim::cost::CostModel;
use nvmetro_sim::{Actor, CpuMode, Ns, Progress, Station, MS, US};
use nvmetro_telemetry::{Depth, Metric, PathKind, Route, Segment, Stage, TelemetryHandle, Tier};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// The kernel path a VM's requests may be routed through (implemented by
/// `nvmetro-kernel` as a block-layer + device-mapper stack).
pub trait KernelPath: Send {
    /// Submits a translated request tagged `tag` at virtual time `now`.
    fn submit(&mut self, tag: u16, cmd: SubmissionEntry, now: Ns);
    /// Drains finished requests into `out` as `(tag, status)` pairs.
    fn poll(&mut self, now: Ns, out: &mut Vec<(u16, Status)>);
    /// Earliest future completion, if any work is in flight.
    fn next_event(&self) -> Option<Ns>;
    /// Host CPU consumed by this path so far.
    fn charged(&self) -> Ns;
}

/// The notify path's router-side queue ends.
pub struct NotifyBinding {
    /// Notify submission queue toward the UIF.
    pub nsq: SqProducer,
    /// Notify completion queue back from the UIF.
    pub ncq: CqConsumer,
}

/// Everything the router needs to serve one VM.
pub struct VmBinding {
    /// VM identifier (classifier context field).
    pub vm_id: u32,
    /// The VM's guest memory (not touched by the router itself; recorded
    /// for diagnostics and symmetry with real IOMMU bindings).
    pub mem: Arc<GuestMemory>,
    /// Partition bounds enforced on every fast-path send.
    pub partition: Partition,
    /// Router-side ends of the VM's virtual queues.
    pub vsqs: Vec<SqConsumer>,
    /// Router-side ends of the VM's virtual completion queues.
    pub vcqs: Vec<CqProducer>,
    /// Fast path: producer end of this VM's host submission queue.
    pub hsq: SqProducer,
    /// Fast path: consumer end of this VM's host completion queue.
    pub hcq: CqConsumer,
    /// Optional kernel path.
    pub kernel: Option<Box<dyn KernelPath>>,
    /// Optional notify path (UIF).
    pub notify: Option<NotifyBinding>,
    /// The VM's installed I/O classifier.
    pub classifier: Classifier,
}

/// Router counters exposed for tests and reports.
#[derive(Clone, Copy, Debug, Default)]
pub struct RouterStats {
    /// Commands accepted from VSQs.
    pub accepted: u64,
    /// Classifier invocations (all hooks).
    pub classifier_runs: u64,
    /// Commands forwarded to the fast path.
    pub sent_hq: u64,
    /// Commands forwarded to the kernel path.
    pub sent_kq: u64,
    /// Commands forwarded to the notify path.
    pub sent_nq: u64,
    /// Requests sent to more than one target at once.
    pub multicasts: u64,
    /// Completions delivered to VCQs.
    pub completed: u64,
    /// Requests finished with an error status.
    pub errors: u64,
    /// Completions that no longer matched a tracked request.
    pub spurious: u64,
    /// Re-dispatches after a retryable failure (recovery engine).
    pub retries: u64,
    /// Deadline-expired attempts aborted NVMe-style.
    pub aborts: u64,
    /// Fast-path sends the circuit breaker diverted to the kernel path.
    pub failovers: u64,
    /// Completions dropped from the bounded VCQ retry buffer.
    pub vcq_retry_drops: u64,
    /// Completions that arrived after their attempt was aborted.
    pub late_completions: u64,
    /// Guest doorbell notifies issued for coalesced VCQ flushes: one per
    /// (vm, vsq) group per flush, however many CQEs the flush carried.
    pub cq_notifies: u64,
    /// Coalesced VCQ flushes (at most one per poll).
    pub cq_batches: u64,
    /// Cross-VM duplicate reads parked as coalescing followers instead of
    /// being dispatched (fleet coalescing window).
    pub coalesced_reads: u64,
    /// Follower completions fanned out from coalescing leaders' terminal
    /// completions.
    pub coalesce_fanout: u64,
    /// Admissions denied by a tenant's token bucket (fleet scheduler).
    pub sched_throttled: u64,
    /// Tenant drain visits cut short by DRR deficit exhaustion (fleet
    /// scheduler).
    pub sched_preemptions: u64,
    /// Requests re-admitted by a servicing restore/reshard and dispatched
    /// as a fresh attempt (new tag, new generation).
    pub replayed: u64,
    /// Completions dropped because their slot carried an older engine
    /// generation than the router's — pre-snapshot legs answering a
    /// post-restore engine (never delivered to the guest).
    pub epoch_late_drops: u64,
}

impl RouterStats {
    /// Adds another shard's counters into this one (used by the engine's
    /// aggregated view).
    pub fn merge(&mut self, other: &RouterStats) {
        self.accepted += other.accepted;
        self.classifier_runs += other.classifier_runs;
        self.sent_hq += other.sent_hq;
        self.sent_kq += other.sent_kq;
        self.sent_nq += other.sent_nq;
        self.multicasts += other.multicasts;
        self.completed += other.completed;
        self.errors += other.errors;
        self.spurious += other.spurious;
        self.retries += other.retries;
        self.aborts += other.aborts;
        self.failovers += other.failovers;
        self.vcq_retry_drops += other.vcq_retry_drops;
        self.late_completions += other.late_completions;
        self.cq_notifies += other.cq_notifies;
        self.cq_batches += other.cq_batches;
        self.coalesced_reads += other.coalesced_reads;
        self.coalesce_fanout += other.coalesce_fanout;
        self.sched_throttled += other.sched_throttled;
        self.sched_preemptions += other.sched_preemptions;
        self.replayed += other.replayed;
        self.epoch_late_drops += other.epoch_late_drops;
    }
}

enum Work {
    Ingress {
        vm: usize,
        vsq: u16,
        cmd: SubmissionEntry,
    },
    PathDone {
        vm: usize,
        path: u8,
        tag: u16,
        status: Status,
    },
}

/// Recovery timer kinds, ordered within the shared timer heap.
const TIMER_DEADLINE: u8 = 0;
const TIMER_REAP: u8 = 1;

/// A recovery timer: fires at `.0` for request `(tag, seq)` of VM `.3`.
type Timer = (Ns, u16, u64, u16, u8);
/// A pending re-dispatch: at `.0`, replay request `(tag, seq)` of VM `.3`.
type RetryEntry = (Ns, u16, u64, u16);

/// Sets bit `i` of a slot bitmap shaped like the shard's doorbell page.
fn set_bit(map: &mut [u64], i: usize) {
    map[i / 64] |= 1 << (i % 64);
}

/// The lowest set bit of `map` at or above `from`.
fn next_set(map: &[u64], from: usize) -> Option<usize> {
    let mut w = from / 64;
    let mut bits = *map.get(w)? & (!0 << (from % 64));
    loop {
        if bits != 0 {
            return Some(w * 64 + bits.trailing_zeros() as usize);
        }
        w += 1;
        bits = *map.get(w)?;
    }
}

/// Default per-queue batch: entries drained per SQ visit and the unit of
/// CQ doorbell coalescing (the paper's "process multiple requests per
/// poll" discipline).
pub const DEFAULT_BATCH: usize = 32;

/// The I/O router actor. One router instance is one worker thread in the
/// paper's deployment; several VMs share it round-robin.
pub struct Router {
    name: String,
    cost: CostModel,
    vms: Vec<VmBinding>,
    table: RoutingTable,
    station: Station<Work>,
    kernel_out: Vec<(u16, Status)>,
    batch: usize,
    cq_batch: Vec<(usize, u16, CompletionEntry)>,
    vcq_retry: Vec<(usize, u16, CompletionEntry)>,
    vcq_retry_cap: usize,
    last_poll: Ns,
    stats: RouterStats,
    scratch: RequestCtx,
    telemetry: TelemetryHandle,
    recovery: Option<RecoveryConfig>,
    breakers: Vec<CircuitBreaker>,
    timers: BinaryHeap<Reverse<Timer>>,
    retryq: BinaryHeap<Reverse<RetryEntry>>,
    next_seq: u64,
    /// The shard's doorbell page: bit `slot` is rung by the producers of
    /// that VM slot's VSQs, HCQ and NCQ, so a poll visits only the slots
    /// that rang. Between polls a slot with a non-empty HCQ or NCQ, or a
    /// non-empty VSQ behind open admission gates, always has its bit set.
    bells: BellPage,
    /// Slots visited on every poll whatever their bell says (a bitmap
    /// shaped like `bells`): a kernel path has no ring to ring from, and
    /// queue groups sharing a scheduler slot end each other's DRR visits.
    always: Vec<u64>,
    /// The visit set of the poll in progress (scratch, shaped like `bells`).
    rung: Vec<u64>,
    /// `(slot, path)` per command pushed to an HSQ / NSQ and not yet rung:
    /// a poll rings each such queue once when its work is applied, next to
    /// the coalesced VCQ flush, so a burst costs its consumer one bell.
    unrung: Vec<(usize, u8)>,
    /// Slots bound with a kernel path, in bind order.
    kernel_slots: Vec<usize>,
    /// Fleet-mode per-tenant admission scheduler (None = FIFO drain).
    fleet: Option<TenantScheduler>,
    /// VM-binding index → scheduler slot, parallel to `vms`.
    fleet_slots: Vec<usize>,
    /// Rotating start index for the scheduled VSQ drain, so tenant visit
    /// order itself is fair across rounds.
    drain_cursor: usize,
    /// Earliest time deferred (throttled/preempted) backlog should be
    /// re-examined; merged into `next_event`.
    sched_recheck: Option<Ns>,
    /// Cross-VM read coalescing window (None = no coalescing).
    coalesce: Option<CoalesceWindow>,
    /// Engine generation this shard admits under. Bumped by every
    /// restore/reshard; a completion landing on a slot with an older
    /// generation is an epoch-late straggler and is quarantined.
    generation: u32,
    /// Shard-wide admission gate (live servicing quiesce): while false, no
    /// VSQ is drained but completions, timers, and retries keep running so
    /// in-flight work converges.
    admitting: bool,
    /// Per-VM-slot liveness, parallel to `vms`. A detached slot holds an
    /// inert tombstone binding and is skipped by ingest and views.
    vm_active: Vec<bool>,
    /// Per-VM-slot admission gate (hot detach pauses one tenant's VSQs
    /// without disturbing anyone else's).
    vm_admitting: Vec<bool>,
    /// Station work items queued per VM slot (parallel to `vms`): lets
    /// `vm_quiesced` answer per-tenant without requiring the whole
    /// station to be empty.
    vm_work: Vec<usize>,
    /// Poll governor (None = unconditional busy-poll, the legacy mode).
    governor: Option<PollGovernor>,
    /// Per-VM-slot arrival tracking, parallel to `vms`: timestamp of the
    /// last VSQ drain that produced work and the EWMA of the gaps between
    /// them. The hottest queue's EWMA feeds the governor's park decision.
    arrivals: Vec<(Ns, Ns)>,
    /// The smallest live EWMA in `arrivals`; `None` when a gap changed
    /// since it was computed.
    min_gap: Option<Option<Ns>>,
    /// Wakeup latency owed to the first station push after a park exit.
    pending_wake_debt: Ns,
    /// Stage-coverage audit (debug builds only): sequence numbers that
    /// already emitted their terminal `VcqComplete`, to debug-assert that
    /// no request terminates twice.
    #[cfg(debug_assertions)]
    finished_seqs: std::collections::HashSet<u64>,
}

impl Router {
    /// Creates an empty router served by one worker thread, as in the
    /// paper's scalability evaluation; `table_capacity` bounds concurrent
    /// in-flight requests.
    pub fn new(name: &str, cost: CostModel, table_capacity: usize) -> Self {
        Router {
            name: name.to_string(),
            cost,
            vms: Vec::new(),
            table: RoutingTable::new(table_capacity),
            station: Station::new(1),
            kernel_out: Vec::new(),
            batch: DEFAULT_BATCH,
            cq_batch: Vec::new(),
            vcq_retry: Vec::new(),
            vcq_retry_cap: 2 * table_capacity,
            last_poll: 0,
            stats: RouterStats::default(),
            scratch: RequestCtx::empty(),
            telemetry: TelemetryHandle::disabled(),
            recovery: None,
            breakers: Vec::new(),
            timers: BinaryHeap::new(),
            retryq: BinaryHeap::new(),
            next_seq: 0,
            bells: BellPage::new(),
            always: Vec::new(),
            rung: Vec::new(),
            unrung: Vec::new(),
            kernel_slots: Vec::new(),
            fleet: None,
            fleet_slots: Vec::new(),
            drain_cursor: 0,
            sched_recheck: None,
            coalesce: None,
            generation: 1,
            admitting: true,
            vm_active: Vec::new(),
            vm_admitting: Vec::new(),
            vm_work: Vec::new(),
            governor: None,
            arrivals: Vec::new(),
            min_gap: Some(None),
            pending_wake_debt: 0,
            #[cfg(debug_assertions)]
            finished_seqs: std::collections::HashSet::new(),
        }
    }

    /// Trace-event generation for a request sequence number: nonzero (0
    /// is reserved for "unknown"), wrapping, distinct for any 255
    /// consecutive reuses of a routing-table slot.
    #[inline]
    fn gen_of(seq: u64) -> u8 {
        (seq % 255) as u8 + 1
    }

    /// Turns the recovery engine on: per-command deadlines with NVMe-style
    /// abort, bounded retry with exponential backoff for retryable
    /// statuses, and a per-VM circuit breaker that fails fast-path sends
    /// over to the kernel path (configured via `RouterBuilder::recovery`).
    /// Without it the router surfaces every fault to the guest verbatim.
    pub(crate) fn configure_recovery(&mut self, cfg: RecoveryConfig) {
        self.breakers = self
            .vms
            .iter()
            .map(|_| CircuitBreaker::new(cfg.breaker_threshold, cfg.breaker_cooldown))
            .collect();
        self.recovery = Some(cfg);
    }

    /// The VM's fast-path circuit breaker, when recovery is on.
    pub fn breaker(&self, vm: usize) -> Option<&CircuitBreaker> {
        self.breakers.get(vm)
    }

    /// `(vm_id, breaker)` for every live bound VM, in bind order (used by
    /// the engine's aggregated stats). Detached tombstone slots are
    /// skipped.
    pub(crate) fn breaker_view(&self) -> impl Iterator<Item = (u32, &CircuitBreaker)> {
        self.vms
            .iter()
            .map(|v| v.vm_id)
            .zip(self.breakers.iter())
            .zip(self.vm_active.iter())
            .filter(|&(_, &active)| active)
            .map(|(pair, _)| pair)
    }

    /// Feeds one failure to a VM's breaker, counting the Closed→Open
    /// transition (the watchdog's flap detector consumes that counter).
    fn breaker_failure(&mut self, vm: usize, t: Ns) {
        let was_open = self.breakers[vm].is_open();
        self.breakers[vm].on_failure(t);
        if !was_open && self.breakers[vm].is_open() {
            self.telemetry.count(Metric::BreakerOpens);
        }
    }

    /// Whether the recovery engine is configured.
    pub fn recovery_enabled(&self) -> bool {
        self.recovery.is_some()
    }

    /// Attaches a telemetry handle (from `Telemetry::register_worker`, via
    /// `RouterBuilder::telemetry`). The default is a disabled handle, which
    /// costs one branch per instrumentation point.
    pub(crate) fn configure_telemetry(&mut self, handle: TelemetryHandle) {
        self.telemetry = handle;
    }

    /// Applies the engine's typed policy to this shard: poll governor on
    /// or off, and the batch bound (configured via
    /// `RouterBuilder::policy`).
    pub(crate) fn configure_policy(&mut self, policy: &EnginePolicy) {
        self.batch = policy.batch.max(1);
        self.governor = match policy.poll {
            PollPolicy::Spin => None,
            PollPolicy::Adaptive {
                idle_spin,
                park_after,
            } => Some(PollGovernor::new(
                idle_spin,
                park_after,
                self.cost.adaptive_wakeup,
            )),
        };
    }

    /// The shard's current poll mode (Spin without a governor).
    pub fn poll_mode(&self) -> PollMode {
        self.governor.as_ref().map_or(PollMode::Spin, |g| g.mode())
    }

    /// Virtual CPU the governor has burned spinning/yielding while idle
    /// (0 without a governor: the executor accounts idle burn instead).
    pub fn governor_burn(&self) -> Ns {
        self.governor.as_ref().map_or(0, |g| g.burn())
    }

    /// Whether any guest-visible work is already waiting in this shard's
    /// queues: device/notify completions to reap, or (gates permitting)
    /// undrained VSQ entries. This is the doorbell a parked shard must
    /// not sleep through.
    fn doorbell_pending(&self) -> bool {
        // Only a slot whose bell is set can hold any of this (see `bells`).
        for w in 0..self.bells.words() {
            let mut bits = self.bells.peek(w);
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let vm = &self.vms[i];
                if !self.vm_active[i] {
                    continue;
                }
                if !vm.hcq.is_empty() {
                    return true;
                }
                if vm.notify.as_ref().is_some_and(|n| !n.ncq.is_empty()) {
                    return true;
                }
                if self.admitting && self.vm_admitting[i] && vm.vsqs.iter().any(|q| !q.is_empty()) {
                    return true;
                }
            }
        }
        false
    }

    /// Consumes the wakeup latency owed by the last park exit (applied to
    /// the first station push of the waking poll).
    fn take_wake_debt(&mut self) -> Ns {
        std::mem::take(&mut self.pending_wake_debt)
    }

    /// Folds a produced-work observation into the slot's arrival EWMA.
    fn note_arrival(&mut self, vm: usize, now: Ns) {
        let (last, gap) = &mut self.arrivals[vm];
        let g = now.saturating_sub(*last);
        if *last != 0 && g > 0 {
            *gap = if *gap == 0 { g } else { (*gap * 7 + g) / 8 };
            self.min_gap = None;
        }
        *last = now;
    }

    /// The hottest live queue's arrival-gap EWMA (None before any queue
    /// has two observations). Walks the slots only after a gap changed.
    fn min_arrival_gap(&mut self) -> Option<Ns> {
        if let Some(min) = self.min_gap {
            return min;
        }
        let min = self
            .arrivals
            .iter()
            .zip(&self.vm_active)
            .filter(|&(&(_, gap), &active)| active && gap > 0)
            .map(|(&(_, gap), _)| gap)
            .min();
        self.min_gap = Some(min);
        min
    }

    /// Turns the fleet scheduler on: the VSQ drain switches from
    /// unconditional FIFO visit order to weighted deficit-round-robin over
    /// tenants with token-bucket admission (configured via
    /// `RouterBuilder::fleet`). Completion drains are never scheduled —
    /// throttling a tenant's completions would only hold table slots
    /// hostage.
    pub(crate) fn configure_fleet(&mut self, cfg: &FleetConfig) {
        let mut sched = TenantScheduler::new(cfg);
        self.fleet_slots.clear();
        for vm in 0..self.vms.len() {
            let slot = sched.slot(self.vms[vm].vm_id);
            self.note_fleet_slot(vm, slot);
        }
        self.fleet = Some(sched);
    }

    /// Records that VM binding `vm` (the next one) is scheduled through
    /// scheduler slot `slot`. Bindings that share a scheduler slot (queue
    /// groups of one tenant on one shard) are visited on every poll: one's
    /// `end_visit` can forfeit the deficit the other earned, so the visits
    /// one sees depend on the other.
    fn note_fleet_slot(&mut self, vm: usize, slot: usize) {
        debug_assert_eq!(vm, self.fleet_slots.len());
        if let Some(first) = self.fleet_slots.iter().position(|&s| s == slot) {
            set_bit(&mut self.always, first);
            set_bit(&mut self.always, vm);
        }
        self.fleet_slots.push(slot);
    }

    /// Turns cross-VM read coalescing on (configured via
    /// `RouterBuilder::coalesce`).
    pub(crate) fn configure_coalesce(&mut self, cfg: CoalesceConfig) {
        self.coalesce = Some(CoalesceWindow::new(cfg));
    }

    /// Per-tenant scheduler state on this shard (empty without fleet
    /// mode), sorted by tenant id.
    pub fn fleet_view(&self) -> Vec<TenantView> {
        self.fleet.as_ref().map(|f| f.view()).unwrap_or_default()
    }

    /// Coalescing-window counters, when coalescing is on.
    pub fn coalesce_stats(&self) -> Option<CoalesceStats> {
        self.coalesce.as_ref().map(|w| w.stats())
    }

    /// The configured per-queue batch bound.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Binds a VM; returns its index.
    pub fn bind_vm(&mut self, binding: VmBinding) -> usize {
        let slot = self.vms.len();
        // Every ring this shard consumes for the slot rings one bell.
        // Binding rings it at once for a ring that arrives non-empty (a VM
        // detached with commands queued, a restore), so the first poll
        // visits the slot.
        let bell = self.bells.bell(slot);
        self.always.resize(self.bells.words(), 0);
        self.rung.resize(self.bells.words(), 0);
        for vsq in &binding.vsqs {
            vsq.bind_bell(&bell);
        }
        binding.hcq.bind_bell(&bell);
        if let Some(n) = &binding.notify {
            n.ncq.bind_bell(&bell);
        }
        if binding.kernel.is_some() {
            set_bit(&mut self.always, slot);
            self.kernel_slots.push(slot);
        }
        if let Some(f) = self.fleet.as_mut() {
            let fleet_slot = f.slot(binding.vm_id);
            self.note_fleet_slot(slot, fleet_slot);
        }
        self.vms.push(binding);
        let cfg = self.recovery.unwrap_or_default();
        self.breakers.push(CircuitBreaker::new(
            cfg.breaker_threshold,
            cfg.breaker_cooldown,
        ));
        self.vm_active.push(true);
        self.vm_admitting.push(true);
        self.vm_work.push(0);
        self.arrivals.push((0, 0));
        self.vms.len() - 1
    }

    /// Router counters.
    pub fn stats(&self) -> RouterStats {
        self.stats
    }

    /// Peak concurrent in-flight requests.
    pub fn high_water(&self) -> usize {
        self.table.high_water()
    }

    /// Access to a bound VM's classifier (host-side configuration of
    /// classifier maps, on-the-fly classifier replacement).
    pub fn classifier_mut(&mut self, vm: usize) -> &mut Classifier {
        &mut self.vms[vm].classifier
    }

    /// Queues one path completion on the station.
    fn push_path_done(&mut self, vm: usize, path: u8, tag: u16, status: Status, now: Ns) {
        let cost = self.completion_cost(tag, path) + self.take_wake_debt();
        self.vm_work[vm] += 1;
        self.station.push(
            Work::PathDone {
                vm,
                path,
                tag,
                status,
            },
            cost,
            now,
        );
    }

    /// Queues one fetched guest command on the station.
    fn push_ingress(&mut self, vm: usize, vsq: usize, cmd: SubmissionEntry, now: Ns) {
        let cost = self.cost.router_cmd + self.cost.classifier_run + self.take_wake_debt();
        self.vm_work[vm] += 1;
        self.station.push(
            Work::Ingress {
                vm,
                vsq: vsq as u16,
                cmd,
            },
            cost,
            now,
        );
    }

    fn ingest(&mut self, now: Ns) -> bool {
        // The poll's visit set: the bells that rang since the last poll,
        // plus the slots that have no bell. An idle poll is one load per
        // page word.
        let rang = self.bells.any() || self.always.iter().any(|&w| w != 0);
        let mut any = false;
        if rang {
            for w in 0..self.bells.words() {
                self.rung[w] = self.bells.take(w) | self.always[w];
            }
            let mut from = 0;
            while let Some(vm) = next_set(&self.rung, from) {
                from = vm + 1;
                any |= self.ingest_slot(vm, now);
            }
        }
        if self.fleet.is_some() && self.admitting {
            any |= self.drain_vsqs_scheduled(now, rang);
        }
        if any && self.telemetry.enabled() {
            self.telemetry
                .depth(Depth::TableOccupancy, self.table.in_flight() as u64);
        }
        any
    }

    /// One visited slot's share of `ingest`: completions of every path,
    /// then (outside fleet mode) its new guest commands.
    fn ingest_slot(&mut self, vm: usize, now: Ns) -> bool {
        if !self.vm_active[vm] {
            return false; // detached tombstone: nothing to drain
        }
        let batch = self.batch;
        let mut any = false;
        // A ring left non-empty keeps its bell; a drain loop that ran its
        // full bound cannot tell, so it keeps it too.
        let mut leftover = false;
        // Fast-path completions (bounded: leftovers keep the poll Busy,
        // so the next visit continues where this one stopped).
        let mut reaped = 0;
        while reaped < batch {
            let Some(cqe) = self.vms[vm].hcq.pop() else {
                break;
            };
            self.push_path_done(vm, path_bits::HQ, cqe.cid, cqe.status(), now);
            reaped += 1;
        }
        any |= reaped > 0;
        leftover |= reaped == batch;
        // Kernel-path completions.
        if let Some(kernel) = self.vms[vm].kernel.as_mut() {
            let mut done = std::mem::take(&mut self.kernel_out);
            done.clear();
            kernel.poll(now, &mut done);
            for &(tag, status) in &done {
                self.push_path_done(vm, path_bits::KQ, tag, status, now);
            }
            any |= !done.is_empty();
            self.kernel_out = done;
        }
        // Notify-path completions.
        if self.vms[vm].notify.is_some() {
            let mut reaped = 0;
            while reaped < batch {
                let Some(cqe) = self.vms[vm].notify.as_ref().and_then(|n| n.ncq.pop()) else {
                    break;
                };
                self.push_path_done(vm, path_bits::NQ, cqe.cid, cqe.status(), now);
                reaped += 1;
            }
            any |= reaped > 0;
            leftover |= reaped == batch;
        }
        // New guest commands (after completions: frees table slots). Each
        // SQ visit drains at most `batch` entries, so one flooding queue
        // cannot starve its neighbours: the round-robin moves on and
        // returns once every other queue has had its turn. In fleet mode
        // admission is the scheduler's call instead — see
        // `drain_vsqs_scheduled`. Quiesce (shard-wide or per-VM) stops
        // exactly here: completions above keep draining, and reopening
        // the gate rings the bell for whatever queued up behind it.
        if self.fleet.is_none() && self.admitting && self.vm_admitting[vm] {
            let mut vm_drained = 0u64;
            for vsq in 0..self.vms[vm].vsqs.len() {
                let mut drained = 0u64;
                while drained < batch as u64 {
                    let Some((cmd, _)) = self.vms[vm].vsqs[vsq].pop() else {
                        break;
                    };
                    self.push_ingress(vm, vsq, cmd, now);
                    drained += 1;
                }
                leftover |= drained == batch as u64;
                if drained > 0 {
                    self.telemetry.depth(Depth::SqBurst, drained);
                    vm_drained += drained;
                }
            }
            if vm_drained > 0 {
                any = true;
                self.note_arrival(vm, now);
            }
        }
        if leftover {
            self.bells.ring(vm);
        }
        any
    }

    /// Fleet-mode VSQ drain: one DRR round over the tenants of this poll's
    /// visit set, visit order rotating round to round. Admission of each
    /// command is gated by the tenant's deficit (weighted share of the
    /// round) and token bucket (rate + burst, scaled by the governor's
    /// throttle knob); a denial skips the tenant's remaining queues for
    /// this round. Deferred backlog arms `sched_recheck` so `next_event`
    /// keeps virtual time moving even when every other actor has gone
    /// quiet.
    ///
    /// A tenant outside the visit set had empty queues at its last visit,
    /// which forfeited its deficit, and quantum grants are applied by
    /// `admit`: visiting it would change nothing in the scheduler.
    fn drain_vsqs_scheduled(&mut self, now: Ns, rang: bool) -> bool {
        let n = self.vms.len();
        if n == 0 {
            return false;
        }
        // The round and the cursor advance once per poll, visits or not.
        let start = self.drain_cursor % n;
        self.drain_cursor = self.drain_cursor.wrapping_add(1);
        self.sched_recheck = None;
        self.fleet.as_mut().expect("fleet mode").new_round();
        if !rang {
            return false;
        }
        let mut any = false;
        let mut sched = self.fleet.take().expect("fleet mode");
        // Ascending from the cursor, then the wrap.
        let mut from = start;
        while let Some(vm) = next_set(&self.rung, from) {
            from = vm + 1;
            any |= self.drain_tenant(&mut sched, vm, now);
        }
        from = 0;
        while let Some(vm) = next_set(&self.rung, from).filter(|&vm| vm < start) {
            from = vm + 1;
            any |= self.drain_tenant(&mut sched, vm, now);
        }
        self.fleet = Some(sched);
        any
    }

    /// One tenant's visit of the DRR round.
    fn drain_tenant(&mut self, sched: &mut TenantScheduler, vm: usize, now: Ns) -> bool {
        if !self.vm_active[vm] || !self.vm_admitting[vm] {
            return false; // detached or individually quiesced tenant
        }
        let batch = self.batch as u64;
        let slot = self.fleet_slots[vm];
        let mut served = 0u64;
        let mut denied = false;
        let mut bound_hit = false;
        'vm_queues: for vsq in 0..self.vms[vm].vsqs.len() {
            let mut drained = 0u64;
            while drained < batch {
                if self.vms[vm].vsqs[vsq].is_empty() {
                    break;
                }
                let recheck = match sched.admit(slot, now) {
                    Admit::Granted => None,
                    Admit::Throttled => {
                        self.stats.sched_throttled += 1;
                        self.telemetry.count(Metric::ThrottleApplied);
                        Some(sched.next_token_at(slot, now))
                    }
                    Admit::Exhausted => {
                        self.stats.sched_preemptions += 1;
                        self.telemetry.count(Metric::SchedulerPreemptions);
                        // The next DRR round happens on the next poll;
                        // schedule one in case the rig is otherwise idle.
                        Some(now + US)
                    }
                };
                if let Some(at) = recheck {
                    self.sched_recheck = Some(self.sched_recheck.map_or(at, |r| r.min(at)));
                    denied = true;
                    break 'vm_queues;
                }
                let (cmd, _) = self.vms[vm].vsqs[vsq].pop().expect("checked non-empty");
                self.push_ingress(vm, vsq, cmd, now);
                drained += 1;
                served += 1;
            }
            bound_hit |= drained == batch;
            if drained > 0 {
                self.telemetry.depth(Depth::SqBurst, drained);
            }
        }
        // Every queue loop that stopped short of the bound stopped on an
        // empty queue; only a loop that ran the bound has to look again.
        let backlog_empty =
            !denied && (!bound_hit || self.vms[vm].vsqs.iter().all(|q| q.is_empty()));
        sched.end_visit(slot, backlog_empty);
        if !backlog_empty {
            self.bells.ring(vm);
        }
        if served > 0 {
            self.telemetry.depth(Depth::TenantServed, served);
            self.note_arrival(vm, now);
        }
        served > 0
    }

    fn completion_cost(&self, tag: u16, path: u8) -> Ns {
        let classify = self
            .table
            .get(tag)
            .map(|s| s.hooks & path != 0)
            .unwrap_or(false);
        self.cost.router_cmd
            + if classify {
                self.cost.classifier_run
            } else {
                0
            }
    }

    fn apply(&mut self, work: Work, t: Ns) {
        let (Work::Ingress { vm, .. } | Work::PathDone { vm, .. }) = work;
        self.vm_work[vm] = self.vm_work[vm].saturating_sub(1);
        match work {
            Work::Ingress { vm, vsq, cmd } => self.apply_ingress(vm, vsq, cmd, t),
            Work::PathDone {
                vm,
                path,
                tag,
                status,
            } => self.apply_path_done(vm, path, tag, status, t),
        }
    }

    fn apply_ingress(&mut self, vm: usize, vsq: u16, cmd: SubmissionEntry, t: Ns) {
        self.stats.accepted += 1;
        self.telemetry.count(Metric::Accepted);
        self.next_seq += 1;
        let state = RequestState {
            vm: self.vms[vm].vm_id,
            slot: vm as u16,
            vsq,
            guest_cid: cmd.cid,
            cmd,
            pending: 0,
            hooks: 0,
            will_complete: 0,
            status: Status::SUCCESS,
            user_tag: 0,
            accepted_at: t,
            sent_paths: 0,
            dispatched_at: 0,
            serviced_at: 0,
            seq: self.next_seq,
            retries: 0,
            deadline: 0,
            dispatch_send: 0,
            dispatch_hooks: 0,
            dispatch_wc: 0,
            orphaned: 0,
            zombie: false,
            first_fault_at: 0,
            generation: self.generation,
        };
        let tag = match self.table.insert(state) {
            Some(tag) => tag,
            None => {
                // Routing table exhausted: fail the request (the guest sees
                // a transient internal error, like a controller under
                // resource pressure).
                let cqe = CompletionEntry::new(cmd.cid, Status::INTERNAL);
                // post_vcq counts the error; counting it here too used to
                // double-book `stats.errors` for table-full rejections.
                self.post_vcq(vm, vsq, cqe, t);
                return;
            }
        };
        self.telemetry.request_event(
            t,
            self.vms[vm].vm_id,
            vsq,
            tag,
            Self::gen_of(self.next_seq),
            Stage::VsqFetch,
            PathKind::None,
        );
        let verdict = self.run_classifier(vm, tag, HOOK_VSQ, Status::SUCCESS, t);
        self.route(vm, tag, verdict, t);
    }

    fn apply_path_done(&mut self, vm: usize, path: u8, tag: u16, status: Status, t: Ns) {
        // Epoch fence (servicing): a slot admitted under an older engine
        // generation is a pre-snapshot attempt whose guest answer comes
        // (or came) from the replay. Its legs are dropped here however the
        // shard is configured — recovery on or off — so a stale completion
        // can never satisfy, or corrupt, a post-restore command.
        if let Some(state) = self.table.get(tag) {
            if state.generation != self.generation {
                let state = self.table.get_mut(tag).expect("present");
                state.orphaned &= !path;
                let drained = state.pending == 0 && state.orphaned == 0;
                self.stats.late_completions += 1;
                self.stats.epoch_late_drops += 1;
                self.telemetry.count(Metric::LateCompletions);
                self.telemetry.count(Metric::EpochLateDrops);
                if drained {
                    self.table.remove(tag);
                }
                return;
            }
        }
        if self.recovery.is_some() {
            let Some(state) = self.table.get(tag) else {
                self.stats.spurious += 1;
                self.telemetry.count(Metric::Spurious);
                return;
            };
            if state.zombie || state.orphaned & path != 0 {
                // A leg abandoned by an abort finally reported in. Drop it
                // as late — the guest already has its answer — and reclaim
                // the quarantined slot once every leg is accounted for.
                let state = self.table.get_mut(tag).expect("present");
                state.orphaned &= !path;
                let drained = state.zombie && state.pending == 0 && state.orphaned == 0;
                self.stats.late_completions += 1;
                self.telemetry.count(Metric::LateCompletions);
                if drained {
                    self.table.remove(tag);
                }
                return;
            }
            if state.pending & path == 0 {
                // Duplicate completion for a live request (e.g. the same
                // path answering twice): ignore it rather than double-
                // finishing the request.
                self.stats.spurious += 1;
                self.telemetry.count(Metric::Spurious);
                return;
            }
            // Feed the fast-path breaker from real device outcomes.
            if path == path_bits::HQ {
                if status.is_error() {
                    self.breaker_failure(vm, t);
                } else {
                    self.breakers[vm].on_success();
                }
            }
        }
        let (hooked, vm_id, vsq, seq) = {
            let Some(state) = self.table.get_mut(tag) else {
                self.stats.spurious += 1;
                self.telemetry.count(Metric::Spurious);
                return;
            };
            state.pending &= !path;
            state.serviced_at = t;
            if status.is_error() {
                if !state.status.is_error() {
                    state.status = status;
                }
                if state.first_fault_at == 0 {
                    state.first_fault_at = t;
                }
            }
            (state.hooks & path != 0, state.vm, state.vsq, state.seq)
        };
        if hooked {
            // One-shot hook: consume it, then let the classifier decide the
            // next leg of the state machine.
            self.table.get_mut(tag).expect("still present").hooks &= !path;
            self.telemetry.count(Metric::HookReentries);
            self.telemetry.request_event(
                t,
                vm_id,
                vsq,
                tag,
                Self::gen_of(seq),
                Stage::HookReentry,
                Self::path_kind(path),
            );
            let hook_id = match path {
                path_bits::HQ => HOOK_HCQ,
                path_bits::KQ => HOOK_KCQ,
                _ => HOOK_NCQ,
            };
            let verdict = self.run_classifier(vm, tag, hook_id, status, t);
            self.route(vm, tag, verdict, t);
            return;
        }
        let state = self.table.get_mut(tag).expect("still present");
        let wc = state.will_complete & path != 0;
        if state.pending == 0 && (wc || state.will_complete == 0) {
            let final_status = state.status;
            self.finish(vm, tag, final_status, t);
        }
        // Otherwise: a multicast leg finished but others are outstanding —
        // wait for them.
    }

    /// Telemetry path annotation for a path bit.
    fn path_kind(path: u8) -> PathKind {
        match path {
            path_bits::HQ => PathKind::Fast,
            path_bits::KQ => PathKind::Kernel,
            path_bits::NQ => PathKind::Notify,
            _ => PathKind::None,
        }
    }

    fn run_classifier(&mut self, vm: usize, tag: u16, hook: u32, error: Status, t: Ns) -> Verdict {
        self.stats.classifier_runs += 1;
        self.telemetry.count(Metric::ClassifierRuns);
        let state = self.table.get(tag).expect("request tracked");
        let (vm_id, vsq, seq) = (state.vm, state.vsq, state.seq);
        // Zero-copy marshalling: refill the router's scratch context in
        // place instead of constructing a fresh buffer per invocation.
        self.scratch.fill(
            hook,
            self.vms[vm].vm_id,
            state.vsq,
            &state.cmd,
            error,
            state.user_tag,
        );
        let started = self.telemetry.enabled().then(std::time::Instant::now);
        let outcome = self.vms[vm].classifier.run_tiered(&mut self.scratch, t);
        if let Some(tier) = outcome.tier {
            let (metric, tier) = match tier {
                nvmetro_vbpf::Tier::Interp => (Metric::ClassifierInterp, Tier::Interp),
                nvmetro_vbpf::Tier::Compiled => (Metric::ClassifierCompiled, Tier::Compiled),
            };
            self.telemetry.count(metric);
            if let Some(started) = started {
                self.telemetry
                    .tier_latency(tier, started.elapsed().as_nanos() as u64);
            }
        }
        self.telemetry.request_event(
            t,
            vm_id,
            vsq,
            tag,
            Self::gen_of(seq),
            Stage::Classified,
            PathKind::None,
        );
        // Direct mediation: copy back only the fields the verifier proved
        // the classifier can write (everything, for native classifiers).
        let dirty = outcome.dirty;
        if dirty != MediatedFields::NONE {
            let state = self.table.get_mut(tag).expect("request tracked");
            if dirty.contains(MediatedFields::SLBA) {
                state.cmd.set_slba(self.scratch.slba());
            }
            if dirty.contains(MediatedFields::NLB) {
                let nlb = self.scratch.nlb().clamp(1, 0x1_0000);
                state.cmd.cdw12 = (state.cmd.cdw12 & !0xFFFF) | (nlb - 1);
            }
            if dirty.contains(MediatedFields::USER_TAG) {
                state.user_tag = self.scratch.user_tag();
            }
        }
        outcome.verdict
    }

    fn route(&mut self, vm: usize, tag: u16, verdict: Verdict, t: Ns) {
        if verdict.complete() {
            self.finish(vm, tag, verdict.status(), t);
            return;
        }
        let send = verdict.send_mask();
        if send == 0 {
            // A verdict that neither completes nor routes is a classifier
            // bug; fail closed.
            self.finish(vm, tag, Status::PATH_ERROR, t);
            return;
        }
        if self.coalesce.is_some() && self.try_coalesce(vm, tag, verdict) {
            // Parked as a follower of an in-flight duplicate read: no
            // dispatch; the leader's terminal completion fans out to it.
            return;
        }
        self.dispatch(
            vm,
            tag,
            send,
            verdict.hook_mask(),
            verdict.will_complete_mask(),
            t,
        );
    }

    /// Offers a request to the cross-VM coalescing window. Only pristine
    /// single-fast-path reads are eligible: no hooks, no multicast, no
    /// prior dispatch or retry — anything else keeps its own device
    /// command and its own fault-handling state machine. Returns true if
    /// the request was parked as a follower (it must not be dispatched).
    fn try_coalesce(&mut self, vm: usize, tag: u16, verdict: Verdict) -> bool {
        const NVM_READ: u8 = 0x02;
        let state = self.table.get(tag).expect("tracked");
        if state.cmd.opcode != NVM_READ
            || verdict.send_mask() != path_bits::HQ
            || verdict.hook_mask() != 0
            || verdict.will_complete_mask() != path_bits::HQ
            || state.sent_paths != 0
            || state.pending != 0
            || state.retries != 0
        {
            return false;
        }
        // The key is the post-mediation (physical) range, so two VMs whose
        // classifiers translate different guest LBAs to the same physical
        // blocks do coalesce, and identical guest LBAs in disjoint
        // partitions do not.
        let (slba, nlb) = (state.cmd.slba(), state.cmd.nlb());
        // Followers skip dispatch() and with it the fast-path isolation
        // check; re-check partition bounds here so a request can only ever
        // coalesce onto data its own VM is allowed to read.
        if !self.vms[vm].partition.contains(slba, nlb) {
            return false; // dispatch() rejects it with LBA_OUT_OF_RANGE
        }
        let win = self.coalesce.as_mut().expect("coalesce checked by caller");
        match win.try_join(slba, nlb, vm, tag) {
            Join::Follower(_leader) => {
                self.stats.coalesced_reads += 1;
                self.telemetry.count(Metric::CoalescedReads);
                true
            }
            // Leaders dispatch normally; the window watches their tag.
            // Bypass (window bounds hit) degrades to plain dispatch.
            Join::Leader | Join::Bypass => false,
        }
    }

    /// Fans a coalescing leader's terminal status out to its parked
    /// followers: each gets its own guest CQE with the leader's status,
    /// exactly once (`resolve` retires the key and is idempotent, and
    /// followers were never dispatched, so no path completion, retry, or
    /// timer can ever touch them again).
    fn resolve_coalesced(&mut self, tag: u16, status: Status, t: Ns) {
        let followers = match self.coalesce.as_mut() {
            Some(win) => win.resolve(tag),
            None => return,
        };
        if followers.is_empty() {
            return;
        }
        self.stats.coalesce_fanout += followers.len() as u64;
        self.telemetry
            .add(Metric::CoalesceFanout, followers.len() as u64);
        // The leader's slot is still resident (`finish` removes it after
        // this fan-out), so its generation is readable for the causal link.
        let leader_gen = self.table.get(tag).map_or(0, |s| Self::gen_of(s.seq));
        for w in followers {
            // Stamp the follower with its leader before the follower's own
            // terminal event, so the link lands on the still-open span.
            if let Some(f) = self.table.get(w.tag) {
                self.telemetry.link_event(
                    t,
                    f.vm,
                    f.vsq,
                    w.tag,
                    Self::gen_of(f.seq),
                    Stage::LinkFanout,
                    tag,
                    leader_gen,
                );
            }
            self.finish(w.vm, w.tag, status, t);
        }
    }

    /// Sends a request down a set of paths. Retries replay this with the
    /// masks of the latest dispatch, so a re-dispatched command re-arms
    /// exactly the state machine the classifier asked for.
    fn dispatch(&mut self, vm: usize, tag: u16, send: u8, hooks: u8, wc: u8, t: Ns) {
        let (mut send, mut hooks, mut wc) = (send, hooks, wc);
        // Circuit breaker: consecutive device faults divert fast-path
        // sends to the kernel path (when the VM has one) until a
        // half-open probe restores the device.
        if self.recovery.is_some()
            && send & path_bits::HQ != 0
            && self.vms[vm].kernel.is_some()
            && self.breakers[vm].gate(t) == Gate::Deny
        {
            send = (send & !path_bits::HQ) | path_bits::KQ;
            if hooks & path_bits::HQ != 0 {
                hooks = (hooks & !path_bits::HQ) | path_bits::KQ;
            }
            if wc & path_bits::HQ != 0 {
                wc = (wc & !path_bits::HQ) | path_bits::KQ;
            }
            self.stats.failovers += 1;
            self.telemetry.count(Metric::Failovers);
            let state = self.table.get(tag).expect("tracked");
            self.telemetry.request_event(
                t,
                state.vm,
                state.vsq,
                tag,
                Self::gen_of(state.seq),
                Stage::Failover,
                PathKind::Kernel,
            );
        }
        if send.count_ones() > 1 {
            self.stats.multicasts += 1;
            self.telemetry.count(Metric::Multicasts);
        }
        // Isolation: the fast path reaches real hardware, and a UIF on the
        // notify path writes the classifier-translated LBA through its own
        // backend queue, so partition bounds are enforced here for both,
        // not trusted to the classifier. (A kernel-path classifier leaves
        // the LBA alone: the dm target translates on its own side.)
        if send & (path_bits::HQ | path_bits::NQ) != 0 {
            let state = self.table.get(tag).expect("tracked");
            let (slba, nlb) = (state.cmd.slba(), state.cmd.nlb());
            let has_lba = state.cmd.has_data() || matches!(state.cmd.opcode, 0x08 | 0x09);
            if has_lba && !self.vms[vm].partition.contains(slba, nlb) {
                self.finish(vm, tag, Status::LBA_OUT_OF_RANGE, t);
                return;
            }
        }
        let state = self.table.get_mut(tag).expect("tracked");
        state.hooks |= hooks;
        state.will_complete |= wc;
        state.sent_paths |= send;
        state.dispatch_send = send;
        state.dispatch_hooks = hooks;
        state.dispatch_wc = wc;
        // A retry reclaims any path it re-dispatches on: the next
        // completion on that path is attributed to the new attempt.
        state.orphaned &= !send;
        if state.dispatched_at == 0 {
            state.dispatched_at = t;
        }
        let (vm_id, vsq, gen) = (state.vm, state.vsq, Self::gen_of(state.seq));
        let mut fwd = state.cmd;
        fwd.cid = tag;
        if send & path_bits::HQ != 0 {
            self.table.get_mut(tag).expect("tracked").pending |= path_bits::HQ;
            self.stats.sent_hq += 1;
            self.telemetry.count(Metric::SentFast);
            self.telemetry.request_event(
                t,
                vm_id,
                vsq,
                tag,
                gen,
                Stage::Dispatched,
                PathKind::Fast,
            );
            if self.vms[vm].hsq.push_quiet(fwd).is_err() {
                self.path_unavailable(vm, tag, path_bits::HQ, t);
                return;
            }
            self.unrung.push((vm, path_bits::HQ));
        }
        if send & path_bits::KQ != 0 {
            self.table.get_mut(tag).expect("tracked").pending |= path_bits::KQ;
            self.stats.sent_kq += 1;
            self.telemetry.count(Metric::SentKernel);
            self.telemetry.request_event(
                t,
                vm_id,
                vsq,
                tag,
                gen,
                Stage::Dispatched,
                PathKind::Kernel,
            );
            match self.vms[vm].kernel.as_mut() {
                Some(k) => k.submit(tag, fwd, t),
                None => {
                    self.path_unavailable(vm, tag, path_bits::KQ, t);
                    return;
                }
            }
        }
        if send & path_bits::NQ != 0 {
            self.table.get_mut(tag).expect("tracked").pending |= path_bits::NQ;
            self.stats.sent_nq += 1;
            self.telemetry.count(Metric::SentNotify);
            self.telemetry.request_event(
                t,
                vm_id,
                vsq,
                tag,
                gen,
                Stage::Dispatched,
                PathKind::Notify,
            );
            let pushed = match self.vms[vm].notify.as_mut() {
                Some(n) => n.nsq.push_quiet(fwd).is_ok(),
                None => false,
            };
            if pushed {
                self.unrung.push((vm, path_bits::NQ));
            } else {
                self.path_unavailable(vm, tag, path_bits::NQ, t);
            }
        }
        // Arm the per-dispatch deadline: if any leg is still out when it
        // fires, the attempt is aborted NVMe-style.
        if let Some(cfg) = self.recovery {
            if cfg.cmd_timeout > 0 {
                if let Some(state) = self.table.get_mut(tag) {
                    if state.pending != 0 && !state.zombie {
                        let deadline = t + cfg.cmd_timeout;
                        state.deadline = deadline;
                        self.timers.push(Reverse((
                            deadline,
                            tag,
                            state.seq,
                            vm as u16,
                            TIMER_DEADLINE,
                        )));
                    }
                }
            }
        }
    }

    /// Rings each HSQ and NSQ that `dispatch` pushed to since the last
    /// call, once: a poll's worth of commands costs the device's (or the
    /// UIF's) doorbell page one RMW per queue, not one per command.
    fn ring_sent(&mut self) {
        self.unrung.sort_unstable();
        self.unrung.dedup();
        for (vm, path) in self.unrung.drain(..) {
            let vm = &self.vms[vm];
            match (path, &vm.notify) {
                (path_bits::NQ, Some(n)) => n.nsq.ring(),
                _ => vm.hsq.ring(),
            }
        }
    }

    /// A target queue was missing or full: fail the request. Outstanding
    /// legs on other paths will be dropped as spurious when they return.
    fn path_unavailable(&mut self, vm: usize, tag: u16, path: u8, t: Ns) {
        let state = self.table.get_mut(tag).expect("tracked");
        state.pending &= !path;
        self.finish(vm, tag, Status::PATH_ERROR, t);
    }

    /// Schedules a re-dispatch when the failure is worth retrying. Returns
    /// whether the retry was taken (the request stays tracked).
    fn try_retry(&mut self, vm: usize, tag: u16, status: Status, t: Ns) -> bool {
        let cfg = match self.recovery {
            Some(cfg) => cfg,
            None => return false,
        };
        let Some(state) = self.table.get(tag) else {
            return false;
        };
        if state.zombie
            || !status.is_retryable()
            || state.dispatch_send == 0
            || state.pending != 0
            || state.retries >= cfg.max_retries
        {
            return false;
        }
        let state = self.table.get_mut(tag).expect("present");
        state.retries += 1;
        if state.first_fault_at == 0 {
            state.first_fault_at = t;
        }
        // Fresh attempt: forget the latched error and the old deadline.
        state.status = Status::SUCCESS;
        state.deadline = 0;
        let (vm_id, vsq, seq, attempt) = (state.vm, state.vsq, state.seq, state.retries);
        let at = t + cfg.backoff(attempt);
        self.retryq.push(Reverse((at, tag, seq, vm as u16)));
        self.stats.retries += 1;
        self.telemetry.count(Metric::Retries);
        self.telemetry.request_event(
            t,
            vm_id,
            vsq,
            tag,
            Self::gen_of(seq),
            Stage::Retry,
            PathKind::None,
        );
        true
    }

    fn finish(&mut self, vm: usize, tag: u16, status: Status, t: Ns) {
        if self.try_retry(vm, tag, status, t) {
            return;
        }
        // This is a *terminal* answer (retries are exhausted or not
        // applicable): if the tag led a coalesced read, its parked
        // followers inherit exactly the status this guest is about to see
        // — including aborts and post-failover statuses.
        if self.coalesce.is_some() {
            self.resolve_coalesced(tag, status, t);
        }
        if let Some(cfg) = self.recovery {
            if let Some(state) = self.table.get(tag) {
                if state.zombie {
                    // The guest already has this request's CQE; the slot
                    // only lingers to quarantine the tag.
                    return;
                }
                if state.pending | state.orphaned != 0 {
                    // Legs are still in flight (abort, or a path failure
                    // mid-multicast). Answer the guest now but quarantine
                    // the tag until every leg drains or the reaper fires,
                    // so a late completion can never be misattributed to a
                    // reused slot.
                    let snapshot = state.clone();
                    let state = self.table.get_mut(tag).expect("present");
                    state.zombie = true;
                    state.orphaned |= state.pending;
                    state.pending = 0;
                    state.hooks = 0;
                    state.deadline = 0;
                    self.emit_finish_telemetry(&snapshot, tag, t);
                    self.timers.push(Reverse((
                        t + cfg.zombie_linger,
                        tag,
                        snapshot.seq,
                        vm as u16,
                        TIMER_REAP,
                    )));
                    let cqe = CompletionEntry::new(snapshot.guest_cid, status);
                    self.post_vcq(vm, snapshot.vsq, cqe, t);
                    return;
                }
            }
        }
        let state = match self.table.remove(tag) {
            Some(s) => s,
            None => {
                self.stats.spurious += 1;
                self.telemetry.count(Metric::Spurious);
                return;
            }
        };
        self.emit_finish_telemetry(&state, tag, t);
        let cqe = CompletionEntry::new(state.guest_cid, status);
        self.post_vcq(vm, state.vsq, cqe, t);
    }

    fn emit_finish_telemetry(&mut self, state: &RequestState, tag: u16, t: Ns) {
        // Stage-coverage audit: every request that was observed at
        // VsqFetch must reach its terminal VcqComplete exactly once (a
        // retry re-uses the same seq — it is the same request).
        #[cfg(debug_assertions)]
        debug_assert!(
            self.finished_seqs.insert(state.seq),
            "request seq {} (vm {} vsq {} tag {}) emitted a second terminal event",
            state.seq,
            state.vm,
            state.vsq,
            tag
        );
        if self.telemetry.enabled() {
            self.telemetry.request_event(
                t,
                state.vm,
                state.vsq,
                tag,
                Self::gen_of(state.seq),
                Stage::VcqComplete,
                PathKind::None,
            );
            // Attribute latency to the heaviest path the request touched
            // (notify > kernel > fast); requests the router completed
            // without dispatching have no route.
            let route = if state.sent_paths & path_bits::NQ != 0 {
                Some(Route::Notify)
            } else if state.sent_paths & path_bits::KQ != 0 {
                Some(Route::Kernel)
            } else if state.sent_paths & path_bits::HQ != 0 {
                Some(Route::Fast)
            } else {
                None
            };
            if let Some(route) = route {
                self.telemetry
                    .route_latency(route, t.saturating_sub(state.accepted_at));
            }
            if state.dispatched_at != 0 {
                self.telemetry.segment(
                    Segment::IngressToDispatch,
                    state.dispatched_at.saturating_sub(state.accepted_at),
                );
                if state.serviced_at != 0 {
                    self.telemetry.segment(
                        Segment::DispatchToService,
                        state.serviced_at.saturating_sub(state.dispatched_at),
                    );
                    self.telemetry.segment(
                        Segment::ServiceToComplete,
                        t.saturating_sub(state.serviced_at),
                    );
                }
            }
            if state.first_fault_at != 0 {
                // Recovery latency: first observed fault to final answer.
                self.telemetry.segment(
                    Segment::FaultToRecovery,
                    t.saturating_sub(state.first_fault_at),
                );
            }
        }
    }

    /// Queues a guest CQE for the end-of-poll coalesced flush. Everything a
    /// poll completes is posted in one ring write per (vm, vsq) with a
    /// single doorbell notify per group — the paper's interrupt-coalescing
    /// discipline — instead of one notify per CQE.
    fn post_vcq(&mut self, vm: usize, vsq: u16, cqe: CompletionEntry, _t: Ns) {
        self.stats.completed += 1;
        self.telemetry.count(Metric::Completed);
        if cqe.status().is_error() {
            self.stats.errors += 1;
            self.telemetry.count(Metric::Errors);
        }
        self.cq_batch.push((vm, vsq, cqe));
    }

    /// Flushes the poll's batched CQEs into the guest VCQs: entries stay in
    /// completion order, a full or already-backlogged (vm, vsq) parks the
    /// rest of its entries in the retry buffer (never overtaking), and each
    /// group that received entries gets exactly one notify.
    fn flush_cq_batch(&mut self) -> bool {
        if self.cq_batch.is_empty() {
            return false;
        }
        let entries: Vec<(usize, u16, CompletionEntry)> = self.cq_batch.drain(..).collect();
        self.stats.cq_batches += 1;
        self.telemetry.count(Metric::CqBatches);
        self.telemetry.depth(Depth::CqBatch, entries.len() as u64);
        let mut notified: Vec<(usize, u16)> = Vec::new();
        let mut blocked: Vec<(usize, u16)> = Vec::new();
        for (vm, vsq, cqe) in entries {
            // Never overtake completions already parked for this (vm, vsq):
            // pushing directly while earlier CQEs wait would reorder them.
            if blocked.contains(&(vm, vsq))
                || self.vcq_retry.iter().any(|&(v, q, _)| v == vm && q == vsq)
            {
                self.buffer_vcq_retry(vm, vsq, cqe);
                continue;
            }
            match self.vms[vm].vcqs[vsq as usize].push(cqe) {
                Ok(()) => {
                    if !notified.contains(&(vm, vsq)) {
                        notified.push((vm, vsq));
                    }
                }
                Err(cqe) => {
                    // VCQ full: retry on a later poll (the guest is
                    // reaping).
                    blocked.push((vm, vsq));
                    self.buffer_vcq_retry(vm, vsq, cqe);
                }
            }
        }
        self.stats.cq_notifies += notified.len() as u64;
        self.telemetry
            .add(Metric::CqNotifies, notified.len() as u64);
        true
    }

    fn buffer_vcq_retry(&mut self, vm: usize, vsq: u16, cqe: CompletionEntry) {
        if self.vcq_retry.len() >= self.vcq_retry_cap {
            // A guest that never reaps can otherwise grow this without
            // bound; drop (counted) rather than leak.
            self.stats.vcq_retry_drops += 1;
            self.telemetry.count(Metric::VcqRetryDrops);
            return;
        }
        self.vcq_retry.push((vm, vsq, cqe));
    }

    /// Fires due recovery timers: deadline expiries abort the attempt
    /// (retry may then resurrect it), reap timers reclaim quarantined
    /// zombie slots whose legs never reported back.
    fn fire_timers(&mut self, now: Ns) -> bool {
        let mut progressed = false;
        while let Some(&Reverse((at, ..))) = self.timers.peek() {
            if at > now {
                break;
            }
            let Reverse((_, tag, seq, vm, kind)) = self.timers.pop().expect("peeked");
            let vm = vm as usize;
            let Some(state) = self.table.get(tag) else {
                continue;
            };
            if state.seq != seq {
                continue; // slot was reused; stale timer
            }
            match kind {
                TIMER_DEADLINE => {
                    if state.zombie || state.deadline == 0 || state.deadline > now {
                        continue; // superseded by a retry or later dispatch
                    }
                    if state.pending == 0 {
                        continue; // everything reported in time
                    }
                    self.stats.aborts += 1;
                    self.telemetry.count(Metric::Aborts);
                    let state = self.table.get_mut(tag).expect("present");
                    let hq_was_pending = state.pending & path_bits::HQ != 0;
                    if state.first_fault_at == 0 {
                        state.first_fault_at = now;
                    }
                    // Abandon the in-flight legs; their completions (if
                    // they ever arrive) are dropped as late.
                    state.orphaned |= state.pending;
                    state.pending = 0;
                    state.hooks = 0;
                    state.deadline = 0;
                    let (vm_id, vsq) = (state.vm, state.vsq);
                    self.telemetry.request_event(
                        now,
                        vm_id,
                        vsq,
                        tag,
                        Self::gen_of(seq),
                        Stage::Abort,
                        PathKind::None,
                    );
                    if hq_was_pending {
                        self.breaker_failure(vm, now);
                    }
                    // ABORTED is retryable, so finish() re-dispatches the
                    // command unless retries are exhausted.
                    self.finish(vm, tag, Status::ABORTED, now);
                    progressed = true;
                }
                _ => {
                    // TIMER_REAP: reclaim a zombie slot whose abandoned
                    // legs never completed (e.g. dropped completions).
                    if state.zombie {
                        self.table.remove(tag);
                        progressed = true;
                    }
                }
            }
        }
        progressed
    }

    /// Re-dispatches requests whose retry backoff has elapsed.
    fn fire_retries(&mut self, now: Ns) -> bool {
        let mut progressed = false;
        while let Some(&Reverse((at, ..))) = self.retryq.peek() {
            if at > now {
                break;
            }
            let Reverse((_, tag, seq, vm)) = self.retryq.pop().expect("peeked");
            let vm = vm as usize;
            let Some(state) = self.table.get(tag) else {
                continue;
            };
            if state.seq != seq || state.zombie || state.pending != 0 {
                continue;
            }
            let (send, hooks, wc) = (state.dispatch_send, state.dispatch_hooks, state.dispatch_wc);
            self.dispatch(vm, tag, send, hooks, wc, now);
            progressed = true;
        }
        progressed
    }
}

/// Quarantine linger for restored tags on shards without a recovery
/// config (with one, its `zombie_linger` is used instead).
const DEFAULT_ZOMBIE_LINGER: Ns = 50 * MS;

/// A detached slot's placeholder classifier: a stray invocation (which
/// should never happen — detached slots are skipped by ingest) completes
/// immediately with an internal error instead of routing anywhere.
struct TombstoneClassifier;

impl NativeClassifier for TombstoneClassifier {
    fn classify(&mut self, _ctx: &mut RequestCtx) -> Verdict {
        Verdict(verdict_bits::COMPLETE | Status::INTERNAL.0 as u64)
    }
}

/// One-pass snapshot of a shard's observable state: counters, table
/// marks, breaker states, and tenant views collected together, so an
/// aggregated view can never pair counters from one instant with breaker
/// state from another.
pub struct ShardSnapshot {
    /// The shard's counters.
    pub stats: RouterStats,
    /// Peak routing-table occupancy.
    pub high_water: usize,
    /// Current routing-table occupancy (incl. quarantined tags).
    pub in_flight: usize,
    /// `(vm_id, open, opens)` per live VM slot (empty when recovery is
    /// off).
    pub breakers: Vec<(u32, bool, u64)>,
    /// Per-tenant scheduler views (empty without fleet mode).
    pub tenants: Vec<TenantView>,
    /// The shard's poll mode at the snapshot instant (Spin without a
    /// governor).
    pub poll_mode: PollMode,
    /// The shard's batch bound.
    pub batch: usize,
}

/// Everything one shard contributes to a servicing snapshot, extracted by
/// [`Router::into_service`].
pub struct RouterExport {
    /// Highest request sequence number this shard issued.
    pub next_seq: u64,
    /// The shard's lifetime counters.
    pub stats: RouterStats,
    /// Peak routing-table occupancy.
    pub high_water: usize,
    /// `(vm_slot, tag, state)` for every live routing-table entry.
    pub entries: Vec<(usize, u16, RequestState)>,
    /// `(tag, at)` for every still-valid retry-backoff entry.
    pub retries: Vec<(u16, Ns)>,
    /// Undelivered guest CQEs as `(vm_slot, vsq, cqe)`, oldest first.
    pub cqes: Vec<(usize, u16, CompletionEntry)>,
    /// Breaker snapshot per VM slot (parallel to the shard's bind order).
    pub breakers: Vec<BreakerSnap>,
}

/// Live-servicing surface: quiesce gates, drain predicates, snapshot
/// extraction, and restore injection. The engine drives these; they are
/// exposed on the shard so manual-poll rigs can exercise them too.
impl Router {
    /// Engine generation this shard admits under.
    pub fn generation(&self) -> u32 {
        self.generation
    }

    pub(crate) fn set_generation(&mut self, generation: u32) {
        self.generation = generation;
    }

    /// Raises the sequence floor so replayed requests never reuse a
    /// pre-snapshot sequence number.
    pub(crate) fn set_next_seq(&mut self, seq: u64) {
        self.next_seq = self.next_seq.max(seq);
    }

    /// Opens/closes the shard-wide admission gate. Closed, the shard
    /// drains no VSQ but keeps processing completions, timers, and
    /// retries — the quiesce protocol's "stop admitting, keep converging".
    pub fn set_admitting(&mut self, on: bool) {
        self.admitting = on;
        if on {
            // Polls behind the closed gate took VSQ bells without draining.
            for slot in 0..self.vms.len() {
                self.bells.ring(slot);
            }
        }
    }

    /// Whether the shard-wide admission gate is open.
    pub fn admitting(&self) -> bool {
        self.admitting
    }

    /// Gates one VM slot's admission (hot detach quiesces a single tenant
    /// without touching anyone else's queues).
    pub(crate) fn set_vm_admitting(&mut self, slot: usize, on: bool) {
        self.vm_admitting[slot] = on;
        if on {
            // As in `set_admitting`, for one slot.
            self.bells.ring(slot);
        }
    }

    /// In-flight requests that still owe their guest an answer
    /// (quarantined zombie tags excluded — their guests were answered).
    pub fn live_in_flight(&self) -> usize {
        self.table.iter().filter(|(_, s)| !s.zombie).count()
    }

    /// True once every admitted request has answered its guest and no
    /// work is parked inside the shard. Quarantined tags and undelivered
    /// VCQ retries do not block a drain: both are serialized by the
    /// snapshot.
    pub fn is_drained(&self) -> bool {
        self.live_in_flight() == 0 && self.station.is_empty() && self.cq_batch.is_empty()
    }

    /// Whether `slot` has fully drained: no station work queued for it
    /// and no live table entry admitted through it (detach safety; other
    /// tenants' backlogs don't matter here).
    pub(crate) fn vm_quiesced(&self, slot: usize) -> bool {
        self.vm_work[slot] == 0
            && !self
                .table
                .iter()
                .any(|(_, s)| s.slot as usize == slot && !s.zombie)
    }

    /// One-pass observable snapshot (see [`ShardSnapshot`]).
    pub fn stats_snapshot(&self) -> ShardSnapshot {
        let breakers = if self.recovery.is_some() {
            self.breaker_view()
                .map(|(vm_id, b)| (vm_id, b.is_open(), b.opens()))
                .collect()
        } else {
            Vec::new()
        };
        ShardSnapshot {
            stats: self.stats,
            high_water: self.table.high_water(),
            in_flight: self.table.in_flight(),
            breakers,
            tenants: self.fleet_view(),
            poll_mode: self.poll_mode(),
            batch: self.batch,
        }
    }

    /// Consumes the shard into its serializable remains plus the VM
    /// bindings to rebind (`None` marks a detached tombstone slot).
    ///
    /// Station work still queued is force-applied first — accepted
    /// commands either dispatch (and serialize as in-flight) or complete
    /// (and serialize as undelivered CQEs); nothing is lost to the
    /// snapshot.
    pub(crate) fn into_service(mut self) -> (RouterExport, Vec<Option<VmBinding>>) {
        while let Some((work, t)) = self.station.pop_done_timed(Ns::MAX) {
            self.apply(work, t);
        }
        self.ring_sent();
        self.flush_cq_batch();
        let entries: Vec<(usize, u16, RequestState)> = self
            .table
            .iter()
            .map(|(tag, s)| (s.slot as usize, tag, s.clone()))
            .collect();
        // The retry heap keeps stale entries by design (seq-checked on
        // fire); only entries that still name a live, waiting request are
        // worth carrying.
        let retries: Vec<(u16, Ns)> = self
            .retryq
            .iter()
            .filter_map(|&Reverse((at, tag, seq, _))| {
                let s = self.table.get(tag)?;
                (s.seq == seq && !s.zombie && s.pending == 0).then_some((tag, at))
            })
            .collect();
        let cqes: Vec<(usize, u16, CompletionEntry)> = self.vcq_retry.drain(..).collect();
        let export = RouterExport {
            next_seq: self.next_seq,
            stats: self.stats,
            high_water: self.table.high_water(),
            entries,
            retries,
            cqes,
            breakers: self.breakers.iter().map(|b| b.save()).collect(),
        };
        let active = self.vm_active;
        let vms = self
            .vms
            .into_iter()
            .zip(active)
            .map(|(v, live)| live.then_some(v))
            .collect();
        (export, vms)
    }

    /// Pins a pre-snapshot request at its old tag as a quarantined zombie
    /// carrying its **old** generation. The guest's answer comes from the
    /// replayed attempt (or already came, for snapshot-time zombies); this
    /// slot exists so the old engine's in-flight legs — which carry this
    /// CID — land on an old-generation entry and are dropped as epoch-late
    /// stragglers instead of touching whatever reuses the tag. A reap
    /// timer bounds the quarantine. Fails (false) if the tag is taken.
    pub(crate) fn inject_quarantine(&mut self, tag: u16, saved: &RequestState, now: Ns) -> bool {
        let linger = self
            .recovery
            .map(|c| c.zombie_linger)
            .unwrap_or(DEFAULT_ZOMBIE_LINGER);
        if let Some(existing) = self.table.get_mut(tag) {
            // Resharding down can land two old shards' quarantines on the
            // same tag of one new shard. Both groups' stale legs will
            // arrive here carrying this CID; merging the orphan masks
            // keeps the tag pinned until every leg is accounted for.
            if existing.zombie && existing.generation != self.generation {
                existing.orphaned |= saved.pending | saved.orphaned;
                return true;
            }
            return false;
        }
        let mut state = saved.clone();
        state.orphaned |= state.pending;
        state.pending = 0;
        state.hooks = 0;
        state.will_complete = 0;
        state.deadline = 0;
        state.zombie = true;
        let seq = state.seq;
        if !self.table.insert_at(tag, state) {
            return false;
        }
        self.timers
            .push(Reverse((now + linger, tag, seq, 0, TIMER_REAP)));
        true
    }

    /// Re-admits a snapshotted request as a fresh attempt: new tag, new
    /// sequence, **current** generation. The replay re-dispatches the
    /// masks of the request's latest dispatch (or a plain fast-path read
    /// for a parked coalesce follower that never dispatched); a saved
    /// backoff (`retry_at`) is honoured instead of dispatching at once.
    /// Exactly-once holds because the pre-snapshot attempt's legs land on
    /// the quarantined old tag, never here.
    pub(crate) fn inject_replay(
        &mut self,
        slot: usize,
        saved: &RequestState,
        old_tag: u16,
        retry_at: Option<Ns>,
        now: Ns,
    ) {
        let (send, hooks, wc) = if saved.dispatch_send != 0 {
            (saved.dispatch_send, saved.dispatch_hooks, saved.dispatch_wc)
        } else {
            (path_bits::HQ, 0, path_bits::HQ)
        };
        self.next_seq += 1;
        let seq = self.next_seq;
        let state = RequestState {
            vm: self.vms[slot].vm_id,
            slot: slot as u16,
            vsq: saved.vsq,
            guest_cid: saved.guest_cid,
            cmd: saved.cmd,
            pending: 0,
            hooks: 0,
            will_complete: 0,
            status: Status::SUCCESS,
            user_tag: saved.user_tag,
            accepted_at: now,
            sent_paths: 0,
            dispatched_at: 0,
            serviced_at: 0,
            seq,
            retries: saved.retries,
            deadline: 0,
            dispatch_send: 0,
            dispatch_hooks: 0,
            dispatch_wc: 0,
            orphaned: 0,
            zombie: false,
            first_fault_at: 0,
            generation: self.generation,
        };
        let vsq = saved.vsq;
        let tag = match self.table.insert(state) {
            Some(tag) => tag,
            None => {
                // Table exhausted on the restore target (e.g. resharding
                // down concentrated too many groups): surface a transient
                // internal error rather than silently dropping the guest's
                // command.
                let cqe = CompletionEntry::new(saved.guest_cid, Status::INTERNAL);
                self.post_vcq(slot, vsq, cqe, now);
                return;
            }
        };
        self.stats.replayed += 1;
        self.telemetry.count(Metric::ReplayedRequests);
        let (vm_id, gen) = (self.vms[slot].vm_id, Self::gen_of(seq));
        // A replay opens a *new* span: VsqFetch starts it (the old span's
        // trace lives in the pre-snapshot engine), Replayed marks why and
        // names the pre-snapshot attempt (old tag + generation) so the
        // trace forest can stitch both attempts into one tree.
        self.telemetry
            .request_event(now, vm_id, vsq, tag, gen, Stage::VsqFetch, PathKind::None);
        self.telemetry.link_event(
            now,
            vm_id,
            vsq,
            tag,
            gen,
            Stage::Replayed,
            old_tag,
            Self::gen_of(saved.seq),
        );
        match retry_at {
            Some(at) if at > now => {
                let state = self.table.get_mut(tag).expect("just inserted");
                state.dispatch_send = send;
                state.dispatch_hooks = hooks;
                state.dispatch_wc = wc;
                self.retryq.push(Reverse((at, tag, seq, slot as u16)));
            }
            _ => {
                self.dispatch(slot, tag, send, hooks, wc, now);
                // Outside a poll: the device must hear of it now.
                self.ring_sent();
            }
        }
    }

    /// Re-buffers an undelivered pre-snapshot guest CQE; the poll loop's
    /// retry path delivers it in order. Not re-counted — its request was
    /// counted completed before the snapshot.
    pub(crate) fn requeue_vcq(&mut self, slot: usize, vsq: u16, cqe: CompletionEntry) {
        self.vcq_retry.push((slot, vsq, cqe));
    }

    /// Restores one VM slot's circuit breaker from a snapshot.
    pub(crate) fn restore_breaker(&mut self, slot: usize, snap: &BreakerSnap) {
        if let Some(b) = self.breakers.get_mut(slot) {
            b.restore(snap);
        }
    }

    /// Swaps `slot`'s binding for an inert tombstone and returns the real
    /// binding. The caller guarantees the slot is quiesced
    /// ([`Router::vm_quiesced`]). The tombstone keeps every other
    /// binding's slot index stable, so no other tenant's queues move.
    /// Quarantined zombie tags of the departed VM are left to their reap
    /// timers — the reap path never touches the binding.
    pub(crate) fn detach_slot(&mut self, slot: usize) -> VmBinding {
        self.vm_active[slot] = false;
        self.vm_admitting[slot] = false;
        self.min_gap = None;
        if self.vms[slot].kernel.is_some() {
            self.kernel_slots.retain(|&s| s != slot);
            self.always[slot / 64] &= !(1 << (slot % 64));
        }
        // Parked completions for the departing binding are undeliverable
        // once its queues leave; drop them, counted.
        let before = self.vcq_retry.len();
        self.vcq_retry.retain(|&(v, _, _)| v != slot);
        let dropped = (before - self.vcq_retry.len()) as u64;
        self.stats.vcq_retry_drops += dropped;
        let old = &self.vms[slot];
        let tombstone = VmBinding {
            vm_id: u32::MAX,
            mem: old.mem.clone(),
            partition: old.partition,
            vsqs: Vec::new(),
            vcqs: Vec::new(),
            hsq: SqPair::new(2).0,
            hcq: CqPair::new(2).1,
            kernel: None,
            notify: None,
            classifier: Classifier::Native(Box::new(TombstoneClassifier)),
        };
        std::mem::replace(&mut self.vms[slot], tombstone)
    }
}

impl Actor for Router {
    fn name(&self) -> &str {
        &self.name
    }

    fn poll(&mut self, now: Ns) -> Progress {
        self.last_poll = now;
        // Governor prologue: account idle burn since the previous poll
        // and, if parked with work already visible, take the doorbell
        // kick now so this very poll drains it (the wakeup latency rides
        // on the first station push as wake debt).
        let doorbell = self.governor.is_some() && self.doorbell_pending();
        let mut gov_debt = 0;
        let gov_before: Option<GovernorCounters> = self.governor.as_mut().map(|g| {
            let before = g.counters();
            g.begin_poll(now);
            if doorbell {
                g.doorbell_wake(now);
            }
            gov_debt = g.take_wake_debt();
            before
        });
        self.pending_wake_debt += gov_debt;
        let mut progressed = false;
        // Retry any VCQ posts that found the queue full — in submission
        // order per (vm, vsq): once a queue refuses an entry, later
        // entries for the same queue stay parked behind it, so the guest
        // never sees completions reordered by VCQ pressure.
        if !self.vcq_retry.is_empty() {
            let retries: Vec<_> = self.vcq_retry.drain(..).collect();
            let mut blocked: Vec<(usize, u16)> = Vec::new();
            let mut notified: Vec<(usize, u16)> = Vec::new();
            for (vm, vsq, cqe) in retries {
                if blocked.contains(&(vm, vsq)) {
                    self.vcq_retry.push((vm, vsq, cqe));
                    continue;
                }
                if let Err(cqe) = self.vms[vm].vcqs[vsq as usize].push(cqe) {
                    blocked.push((vm, vsq));
                    self.vcq_retry.push((vm, vsq, cqe));
                } else {
                    if !notified.contains(&(vm, vsq)) {
                        notified.push((vm, vsq));
                    }
                    progressed = true;
                }
            }
            // A replay round is one coalesced ring write per queue too.
            self.stats.cq_notifies += notified.len() as u64;
            self.telemetry
                .add(Metric::CqNotifies, notified.len() as u64);
        }
        // Timers and retries run unconditionally: even with recovery off, a
        // servicing restore can arm quarantine reap timers and carried-over
        // retry backoffs on this shard.
        progressed |= self.fire_timers(now);
        progressed |= self.fire_retries(now);
        progressed |= self.ingest(now);
        while let Some((work, t)) = self.station.pop_done_timed(now) {
            self.apply(work, t);
            progressed = true;
        }
        // Doorbell coalescing: everything this poll dispatched rings each
        // touched HSQ/NSQ once, and everything it completed goes out in one
        // flush, one notify per touched (vm, vsq).
        self.ring_sent();
        progressed |= self.flush_cq_batch();
        // Governor epilogue: walk the Spin → Yield → Parked ladder (or
        // rewind to Spin on progress) and surface what changed.
        if let Some(before) = gov_before {
            let queue_gap = self.min_arrival_gap();
            let g = self.governor.as_mut().expect("checked");
            if let Some(gap) = queue_gap {
                g.note_queue_gap(gap);
            }
            g.end_poll(now, progressed);
            // A non-doorbell wake (recovery timer, internal event) owes
            // its debt to the next poll's first work.
            self.pending_wake_debt += self.governor.as_mut().expect("checked").take_wake_debt();
            let after = self.governor.as_ref().expect("checked").counters();
            let transitions = after.transitions - before.transitions;
            if transitions > 0 {
                self.telemetry.add(Metric::PollModeTransitions, transitions);
            }
            if after.parks > before.parks {
                self.telemetry
                    .add(Metric::ShardParks, after.parks - before.parks);
                self.telemetry
                    .tag_event(now, 0, Stage::ShardPark, PathKind::None);
            }
            if after.wakes > before.wakes {
                self.telemetry
                    .add(Metric::ShardWakes, after.wakes - before.wakes);
                self.telemetry
                    .tag_event(now, 0, Stage::ShardWake, PathKind::None);
            }
        }
        if progressed {
            Progress::Busy
        } else {
            Progress::Idle
        }
    }

    fn next_event(&self) -> Option<Ns> {
        let mut next = self.station.next_event();
        for &slot in &self.kernel_slots {
            if let Some(k) = self.vms[slot].kernel.as_ref().and_then(|k| k.next_event()) {
                next = Some(next.map_or(k, |n| n.min(k)));
            }
        }
        if !self.vcq_retry.is_empty() {
            let retry = self.last_poll + US;
            next = Some(next.map_or(retry, |n| n.min(retry)));
        }
        // Recovery wake-ups: deadlines/reaps and backoff expiries must
        // advance virtual time even when every other actor is idle (a
        // dropped completion leaves nothing else scheduled).
        if let Some(&Reverse((at, ..))) = self.timers.peek() {
            next = Some(next.map_or(at, |n| n.min(at)));
        }
        if let Some(&Reverse((at, ..))) = self.retryq.peek() {
            next = Some(next.map_or(at, |n| n.min(at)));
        }
        // Fleet-scheduler wake-up: backlog deferred by a token bucket or
        // deficit preemption must be revisited even if every guest is
        // quietly waiting on its completions.
        if let Some(at) = self.sched_recheck {
            next = Some(next.map_or(at, |n| n.min(at)));
        }
        // Parked-shard wakeup deadline: with work already visible in a
        // queue, the doorbell kick lands one wakeup latency after the
        // last poll. Without this a manually driven engine
        // (`next_event_all` loops, thread-drain on stop) would sleep
        // through the doorbell.
        if let Some(g) = &self.governor {
            if let Some(at) = g.next_wake(self.doorbell_pending()) {
                next = Some(next.map_or(at, |n| n.min(at)));
            }
        }
        next
    }

    fn charged(&self) -> Ns {
        let kernel: Ns = self
            .kernel_slots
            .iter()
            .filter_map(|&s| self.vms[s].kernel.as_ref().map(|k| k.charged()))
            .sum();
        let governor: Ns = self.governor.as_ref().map_or(0, |g| g.burn());
        self.station.charged() + kernel + governor
    }

    fn cpu_mode(&self) -> CpuMode {
        if self.governor.is_some() {
            // The governor self-charges its spin/yield burn into
            // `charged` and parked time is free, so the executor should
            // add nothing of its own.
            CpuMode::EventDriven
        } else {
            CpuMode::Adaptive {
                idle_timeout: self.cost.adaptive_idle_timeout,
            }
        }
    }
}
