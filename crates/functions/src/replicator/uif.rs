//! The mirroring UIF.
//!
//! "The UIF then forwards the write request to the secondary disk using
//! io_uring. The mirroring process is synchronous" (§IV-B). The UIF's
//! backend queue pair is registered on the *remote* NVMe-oF device, so a
//! forwarded write pays the fabric round trip; the router completes the
//! guest request only when this leg and the local fast-path leg both
//! report success.
//!
//! # Degraded mode
//!
//! A mirror whose remote leg dies must not take guest writes down with
//! it: the primary leg is still durable. When the replica link fails —
//! either a [`FaultSite::ReplicaLink`] rule from a seeded fault plan or a
//! real error from the remote device — the UIF enters *degraded mode*:
//!
//! 1. it keeps acknowledging guest writes immediately (primary-only),
//! 2. logs each unreplicated region in a dirty log (coalesced by LBA),
//! 3. probes the link on a fixed cadence, and
//! 4. once the link heals, replays the dirty log as resync writes and
//!    exits degraded mode when the log drains.
//!
//! Enter/exit transitions and resync traffic are counted via
//! `Metric::DegradedEnters` / `DegradedExits` / `ResyncWrites`.

use nvmetro_core::uif::{Uif, UifDisposition, UifIoHandle, UifRequest};
use nvmetro_faults::{CmdClass, FaultInjector, FaultPlan, FaultSite};
use nvmetro_nvme::{NvmOpcode, Status, SubmissionEntry};
use nvmetro_sim::cost::CostModel;
use nvmetro_sim::{Ns, MS};
use nvmetro_telemetry::{Metric, TelemetryHandle};
use std::collections::{BTreeMap, HashMap};

/// Resync tickets carry this bit so [`Uif::backend_done`] can tell them
/// apart from guest-forwarded writes (which must answer the router).
const RESYNC_BIT: u64 = 1 << 63;

/// How often a degraded replicator probes the link / pumps resync.
const PROBE_INTERVAL: Ns = 2 * MS;

/// Max resync writes in flight at once — keeps recovery traffic from
/// starving foreground I/O on the remote leg.
const RESYNC_BATCH: usize = 4;

/// A write the remote leg has not confirmed yet (or a logged dirty
/// region awaiting resync): enough to replay it later.
#[derive(Clone)]
struct PendingWrite {
    slba: u64,
    nlb: u32,
    payload: Vec<u8>,
}

/// The replication UIF: forwards writes to the secondary, degrading to
/// primary-only service (with a dirty log and later resync) when the
/// replica leg fails.
pub struct ReplicatorUif {
    forwarded: u64,
    telemetry: TelemetryHandle,
    faults: FaultInjector,
    /// Remote leg considered down; writes are logged, not forwarded.
    degraded: bool,
    /// Latest virtual time seen by `work`/`tick` — `backend_done` has no
    /// clock of its own, so transitions it triggers use this.
    clock: Ns,
    degraded_since: Ns,
    /// Unreplicated regions keyed by `slba` (last write wins per key).
    dirty: BTreeMap<u64, PendingWrite>,
    /// ticket -> (guest tag when this answers the router, the write).
    in_flight: HashMap<u64, (Option<u16>, PendingWrite)>,
    next_ticket: u64,
    next_probe: Ns,
    resync_in_flight: usize,
    degraded_enters: u64,
    degraded_exits: u64,
    resync_writes: u64,
}

impl Default for ReplicatorUif {
    fn default() -> Self {
        Self::new()
    }
}

impl ReplicatorUif {
    /// Creates the UIF with a healthy link and no fault plan.
    pub fn new() -> Self {
        ReplicatorUif {
            forwarded: 0,
            telemetry: TelemetryHandle::disabled(),
            faults: FaultInjector::off(),
            degraded: false,
            clock: 0,
            degraded_since: 0,
            dirty: BTreeMap::new(),
            in_flight: HashMap::new(),
            next_ticket: 0,
            next_probe: 0,
            resync_in_flight: 0,
            degraded_enters: 0,
            degraded_exits: 0,
            resync_writes: 0,
        }
    }

    /// Attaches a telemetry worker handle; counts forwarded writes as
    /// `Metric::ReplicaWrites` plus the degraded-mode counters.
    pub fn with_telemetry(mut self, handle: TelemetryHandle) -> Self {
        self.telemetry = handle;
        self
    }

    /// Arms the `ReplicaLink` site of a seeded fault plan: matching rules
    /// fail forwarded writes as if the fabric link had dropped.
    pub fn with_faults(mut self, plan: &FaultPlan) -> Self {
        self.faults = plan.injector(FaultSite::ReplicaLink);
        self
    }

    /// Writes forwarded to the secondary so far (resync replays included).
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }

    /// Currently serving primary-only with an un-resynced remote leg?
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Regions logged dirty and not yet resynced.
    pub fn dirty_regions(&self) -> usize {
        self.dirty.len()
    }

    /// Times the UIF entered / exited degraded mode.
    pub fn degraded_transitions(&self) -> (u64, u64) {
        (self.degraded_enters, self.degraded_exits)
    }

    /// Resync writes replayed to the recovered leg so far.
    pub fn resynced(&self) -> u64 {
        self.resync_writes
    }

    fn enter_degraded(&mut self, now: Ns) {
        if !self.degraded {
            self.degraded = true;
            self.degraded_since = now;
            self.degraded_enters += 1;
            self.next_probe = now + PROBE_INTERVAL;
            self.telemetry.count(Metric::DegradedEnters);
        }
    }

    fn log_dirty(&mut self, w: PendingWrite) {
        // Last write wins per start-LBA; overlapping partial rewrites of a
        // different length are kept as separate regions (replay order over
        // a BTreeMap is ascending, matching submission order well enough
        // for a mirror where the primary already holds the truth).
        self.dirty.insert(w.slba, w);
    }

    fn exit_degraded_if_clean(&mut self) {
        if self.degraded && self.dirty.is_empty() && self.resync_in_flight == 0 {
            self.degraded = false;
            self.degraded_exits += 1;
            self.telemetry.count(Metric::DegradedExits);
        }
    }
}

impl Uif for ReplicatorUif {
    fn work(&mut self, req: &mut UifRequest<'_>) -> UifDisposition {
        match req.opcode() {
            Some(NvmOpcode::Write) => {
                let data = match req.read_guest() {
                    Ok(data) => data,
                    Err(status) => return UifDisposition::Respond(status),
                };
                let write = PendingWrite {
                    slba: req.cmd.slba(),
                    nlb: req.cmd.nlb(),
                    payload: data,
                };
                let now = req.now;
                self.clock = self.clock.max(now);
                // A fault-plan hit on the replica link means the forward
                // would never arrive: treat it as an immediate leg failure.
                if self.faults.decide(now, CmdClass::Write).is_some() {
                    self.telemetry.count(Metric::FaultsInjected);
                    self.enter_degraded(now);
                }
                if self.degraded {
                    // Primary-only service: acknowledge now, replay later.
                    self.log_dirty(write);
                    return UifDisposition::Respond(Status::SUCCESS);
                }
                self.forwarded += 1;
                self.telemetry.count(Metric::ReplicaWrites);
                let ticket = self.next_ticket;
                self.next_ticket += 1;
                let payload = if write.payload.is_empty() {
                    None
                } else {
                    Some(&write.payload[..])
                };
                req.io().write(write.slba, write.nlb, payload, ticket);
                self.in_flight.insert(ticket, (Some(req.tag), write));
                UifDisposition::Async
            }
            // The classifier filters reads out before they reach us; answer
            // defensively if one slips through.
            _ => UifDisposition::Respond(Status::INVALID_OPCODE),
        }
    }

    fn backend_done(&mut self, ticket: u64, status: Status) -> Option<(u16, Status)> {
        let (tag, write) = self.in_flight.remove(&ticket)?;
        let resync = ticket & RESYNC_BIT != 0;
        if resync {
            self.resync_in_flight -= 1;
        }
        if status.is_error() {
            // Leg failure mid-flight: the region is unreplicated — log it
            // and degrade. The guest write still succeeded on the primary,
            // so the router-visible answer stays SUCCESS.
            self.log_dirty(write);
            self.enter_degraded(self.clock);
            return tag.map(|t| (t, Status::SUCCESS));
        }
        self.exit_degraded_if_clean();
        tag.map(|t| (t, Status::SUCCESS))
    }

    fn tick(&mut self, io: &mut UifIoHandle<'_>, now: Ns) -> bool {
        self.clock = self.clock.max(now);
        if !self.degraded || now < self.next_probe {
            return false;
        }
        self.next_probe = now + PROBE_INTERVAL;
        // Probe: would a write clear the link right now? A fault-plan hit
        // means the outage persists — back off until the next probe.
        if self.faults.decide(now, CmdClass::Write).is_some() {
            self.telemetry.count(Metric::FaultsInjected);
            return true;
        }
        // Link looks healthy: pump a bounded batch of resync writes.
        let mut progressed = false;
        while self.resync_in_flight < RESYNC_BATCH {
            let Some((&slba, _)) = self.dirty.iter().next() else {
                break;
            };
            let write = self.dirty.remove(&slba).expect("key just observed");
            let ticket = RESYNC_BIT | self.next_ticket;
            self.next_ticket += 1;
            let payload = if write.payload.is_empty() {
                None
            } else {
                Some(&write.payload[..])
            };
            io.write(write.slba, write.nlb, payload, ticket);
            self.in_flight.insert(ticket, (None, write));
            self.resync_in_flight += 1;
            self.resync_writes += 1;
            self.forwarded += 1;
            self.telemetry.count(Metric::ResyncWrites);
            progressed = true;
        }
        self.exit_degraded_if_clean();
        progressed
    }

    fn next_event(&self) -> Option<Ns> {
        // While degraded the probe timer must drive virtual time forward
        // even after the guest goes idle, or resync would never finish and
        // the executor would quiesce with a dirty log.
        self.degraded.then_some(self.next_probe)
    }

    fn work_cost(&self, _cmd: &SubmissionEntry, _cost: &CostModel) -> Ns {
        // Pure forwarding: only the framework's per-request overhead and
        // the io_uring submission cost (both charged by the runner).
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmetro_faults::{FaultAction, FaultRule};

    #[test]
    fn counts_forwarded_writes() {
        // Counter behavior is observable without a full rig; routing
        // integration is covered by the crate-level tests.
        let uif = ReplicatorUif::new();
        assert_eq!(uif.forwarded(), 0);
        assert!(!uif.degraded());
    }

    #[test]
    fn work_cost_is_negligible() {
        let uif = ReplicatorUif::new();
        let cmd = SubmissionEntry::write(1, 0, 256, 0, 0);
        assert_eq!(uif.work_cost(&cmd, &CostModel::default()), 0);
    }

    #[test]
    fn backend_error_degrades_but_still_answers_success() {
        let mut uif = ReplicatorUif::new();
        uif.in_flight.insert(
            7,
            (
                Some(42),
                PendingWrite {
                    slba: 0x100,
                    nlb: 8,
                    payload: Vec::new(),
                },
            ),
        );
        let answer = uif.backend_done(7, Status::WRITE_FAULT);
        assert_eq!(answer, Some((42, Status::SUCCESS)));
        assert!(uif.degraded());
        assert_eq!(uif.dirty_regions(), 1);
        assert_eq!(uif.degraded_transitions(), (1, 0));
    }

    #[test]
    fn dirty_log_coalesces_rewrites_of_the_same_region() {
        let mut uif = ReplicatorUif::new();
        for payload in [vec![1u8; 8], vec![2u8; 8]] {
            uif.log_dirty(PendingWrite {
                slba: 0x40,
                nlb: 1,
                payload,
            });
        }
        assert_eq!(uif.dirty_regions(), 1);
        assert_eq!(uif.dirty[&0x40].payload, vec![2u8; 8]);
    }

    #[test]
    fn outage_rule_trips_degraded_mode_on_first_decide() {
        let plan = FaultPlan::new(9).rule(
            FaultRule::new(FaultSite::ReplicaLink, FaultAction::LinkOutage)
                .classes(CmdClass::Write.bit()),
        );
        let mut uif = ReplicatorUif::new().with_faults(&plan);
        assert!(uif.faults.decide(0, CmdClass::Write).is_some());
        uif.enter_degraded(0);
        assert!(uif.degraded());
        // Window-free rules never heal: probes keep backing off.
        assert!(uif.faults.decide(5 * MS, CmdClass::Write).is_some());
    }
}
