//! Live servicing: versioned serializable state for the whole datapath.
//!
//! A running [`Engine`](crate::engine::Engine) can be quiesced, snapshotted
//! into a [`ServiceState`], and restored into a *fresh* engine — possibly
//! with a different shard count (online resharding) — without losing or
//! duplicating a single guest completion. The snapshot captures everything
//! the paper's router accumulates at runtime: in-flight tag tables,
//! retry/backoff ledgers, circuit-breaker states, undelivered guest CQEs,
//! and the fleet governor's per-tenant throttle cells.
//!
//! The byte format is an in-repo wire encoding (no external serialization
//! deps): little-endian fixed-width integers behind a magic + version
//! header, with an FNV-1a checksum trailer so a truncated or bit-flipped
//! snapshot is rejected instead of restored. Versioning rules: the header
//! version is bumped on any layout change, and `from_bytes` refuses
//! versions it does not know — a servicing blob is either understood
//! exactly or not at all.

use crate::policy::{EnginePolicy, PollPolicy};
use crate::recovery::BreakerSnap;
use crate::router::RouterStats;
use crate::routing::RequestState;
use nvmetro_nvme::{Status, SubmissionEntry};

/// Magic prefix of every serialized [`ServiceState`].
pub const SERVICE_MAGIC: [u8; 4] = *b"NVMS";
/// Current layout version (v2 added the [`EnginePolicy`] block after the
/// shard count; v3 cut that block to the poll policy and the batch bound.
/// Older blobs are refused, not guessed at).
pub const SERVICE_VERSION: u16 = 3;

/// Why a servicing operation or deserialization failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// The blob does not start with [`SERVICE_MAGIC`].
    BadMagic,
    /// The blob's layout version is not understood.
    BadVersion(u16),
    /// The blob ended before the structure it promised.
    Truncated,
    /// The checksum trailer does not match the payload.
    BadChecksum,
    /// The blob parsed but its contents are inconsistent.
    Corrupt(&'static str),
    /// The restore target does not match the snapshot (queue-group list
    /// diverged between snapshot and restore).
    Mismatch(&'static str),
    /// The named VM is not bound to the engine.
    UnknownVm(u32),
    /// The VM still has work in flight; pause it and drain first.
    VmBusy(u32),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::BadMagic => write!(f, "not a service-state blob (bad magic)"),
            ServiceError::BadVersion(v) => write!(f, "unknown service-state version {v}"),
            ServiceError::Truncated => write!(f, "service-state blob truncated"),
            ServiceError::BadChecksum => write!(f, "service-state checksum mismatch"),
            ServiceError::Corrupt(what) => write!(f, "service-state corrupt: {what}"),
            ServiceError::Mismatch(what) => write!(f, "restore target mismatch: {what}"),
            ServiceError::UnknownVm(vm) => write!(f, "vm {vm} is not bound"),
            ServiceError::VmBusy(vm) => write!(f, "vm {vm} still has I/O in flight"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<wire::Error> for ServiceError {
    fn from(e: wire::Error) -> Self {
        match e {
            wire::Error::Truncated => ServiceError::Truncated,
            wire::Error::NonUtf8 => ServiceError::Corrupt("non-utf8 string"),
        }
    }
}

/// Little-endian wire primitives (in-repo; no external deps), shared by
/// the NVMS snapshot and the blackbox NVBB bundle formats.
pub mod wire {
    /// Why a [`Reader`] could not produce the value asked for.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum Error {
        /// The input ended before the value being read.
        Truncated,
        /// A string's bytes are not UTF-8.
        NonUtf8,
    }

    /// Appends little-endian values to a growing byte buffer.
    #[derive(Default)]
    pub struct Writer {
        buf: Vec<u8>,
    }

    impl Writer {
        pub fn new() -> Self {
            Writer::default()
        }
        pub fn u8(&mut self, v: u8) {
            self.buf.push(v);
        }
        pub fn u16(&mut self, v: u16) {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
        pub fn u32(&mut self, v: u32) {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
        pub fn u64(&mut self, v: u64) {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
        pub fn bytes(&mut self, v: &[u8]) {
            self.buf.extend_from_slice(v);
        }
        /// A `u16` length prefix, then that many bytes (longer strings
        /// are cut at `u16::MAX`).
        pub fn str(&mut self, s: &str) {
            let b = s.as_bytes();
            self.u16(b.len().min(u16::MAX as usize) as u16);
            self.bytes(&b[..b.len().min(u16::MAX as usize)]);
        }
        pub fn as_slice(&self) -> &[u8] {
            &self.buf
        }
        pub fn into_bytes(self) -> Vec<u8> {
            self.buf
        }
    }

    /// Reads little-endian values back, refusing to run past the end.
    pub struct Reader<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        pub fn new(buf: &'a [u8]) -> Self {
            Reader { buf, pos: 0 }
        }
        fn take(&mut self, n: usize) -> Result<&'a [u8], Error> {
            if self.pos + n > self.buf.len() {
                return Err(Error::Truncated);
            }
            let s = &self.buf[self.pos..self.pos + n];
            self.pos += n;
            Ok(s)
        }
        pub fn u8(&mut self) -> Result<u8, Error> {
            Ok(self.take(1)?[0])
        }
        pub fn u16(&mut self) -> Result<u16, Error> {
            Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
        }
        pub fn u32(&mut self) -> Result<u32, Error> {
            Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
        }
        pub fn u64(&mut self) -> Result<u64, Error> {
            Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
        }
        /// What [`Writer::str`] wrote.
        pub fn str(&mut self) -> Result<String, Error> {
            let len = self.u16()? as usize;
            String::from_utf8(self.take(len)?.to_vec()).map_err(|_| Error::NonUtf8)
        }
        pub fn remaining(&self) -> usize {
            self.buf.len() - self.pos
        }
    }
}

/// FNV-1a 64 over the payload; the integrity trailer of the byte formats.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One queue group's identity, in bind order (the restore side rebinds
/// these round-robin onto the new shard set in exactly this order).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SavedGroup {
    /// Owning VM id.
    pub vm_id: u32,
    /// Index of the group within its VM.
    pub queue_group: u32,
}

/// One in-flight (or quarantined) request, pinned to the tag its old shard
/// stamped on the forwarded command.
#[derive(Clone, Debug)]
pub struct SavedRequest {
    /// Global queue-group ordinal (index into [`ServiceState::groups`]).
    pub group: u32,
    /// Routing-table tag = command CID on every internal queue.
    pub tag: u16,
    /// The full request state, including its admission generation.
    pub state: RequestState,
}

/// A retry-backoff ledger entry: request `(group, tag)` re-dispatches at
/// absolute virtual time `at`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SavedRetry {
    /// Global queue-group ordinal of the owning request.
    pub group: u32,
    /// The request's routing-table tag at snapshot time.
    pub tag: u16,
    /// Absolute fire time of the pending re-dispatch.
    pub at: u64,
}

/// A guest CQE that was completed but not yet delivered (VCQ full or
/// mid-flush at snapshot time). Re-buffered verbatim on restore — it was
/// already counted as completed, so delivery must not double-count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SavedCqe {
    /// Global queue-group ordinal.
    pub group: u32,
    /// VCQ index within the group.
    pub vsq: u16,
    /// Guest command identifier.
    pub cid: u16,
    /// Packed NVMe status (phase bit excluded).
    pub status: u16,
}

/// One queue group's circuit-breaker state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SavedBreaker {
    /// Global queue-group ordinal.
    pub group: u32,
    /// The flattened breaker state machine.
    pub snap: BreakerSnap,
}

/// One tenant's governor cell: throttle knob plus admission counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SavedTenant {
    /// Tenant (VM) id.
    pub tenant: u32,
    /// Throttle scale in permille.
    pub throttle_permille: u32,
    /// Requests admitted so far (all shards).
    pub admitted: u64,
    /// Token-bucket denials so far (all shards).
    pub throttled: u64,
}

/// The versioned, serializable state of a quiesced engine.
///
/// Produced by `Engine::snapshot`, consumed by `Engine::restore` (same or
/// different shard count). `to_bytes`/`from_bytes` round-trip it through
/// the in-repo byte format for on-disk or over-the-wire transport.
#[derive(Clone, Debug)]
pub struct ServiceState {
    /// Engine generation the snapshot was taken under; the restored engine
    /// runs at `generation + 1` and quarantines completions from earlier
    /// generations.
    pub generation: u32,
    /// Shard count at snapshot time (informational; restore may differ).
    pub shards: u32,
    /// The datapath policy the engine ran under (poll governor, batch
    /// bound). The restore side applies it to the new
    /// engine, so tenants keep the policy they were admitted with across
    /// snapshot/restore and reshard.
    pub policy: EnginePolicy,
    /// Highest request sequence number issued by any shard; the restored
    /// shards continue from here so trace generations never collide.
    pub next_seq: u64,
    /// Lifetime counters up to the snapshot (including totals carried from
    /// earlier restores); the restored engine reports these plus whatever
    /// its fresh shards accumulate.
    pub carried: RouterStats,
    /// Peak routing-table occupancy up to the snapshot.
    pub carried_high_water: u64,
    /// Every bound queue group, in bind order.
    pub groups: Vec<SavedGroup>,
    /// Every live routing-table entry (in-flight, retry-waiting, and
    /// quarantined-zombie requests).
    pub requests: Vec<SavedRequest>,
    /// The retry-backoff ledger (pending re-dispatch times).
    pub retries: Vec<SavedRetry>,
    /// Undelivered guest CQEs.
    pub cqes: Vec<SavedCqe>,
    /// Per-queue-group circuit-breaker states (empty when recovery is
    /// off).
    pub breakers: Vec<SavedBreaker>,
    /// Per-tenant governor cells (empty when fleet mode is off).
    pub tenants: Vec<SavedTenant>,
}

/// Bounds a parsed count so a corrupt length prefix cannot ask for
/// gigabytes before the checksum is consulted.
const MAX_COUNT: u32 = 1 << 24;

fn write_cmd(w: &mut wire::Writer, c: &SubmissionEntry) {
    w.u8(c.opcode);
    w.u8(c.flags);
    w.u16(c.cid);
    w.u32(c.nsid);
    w.u32(c.cdw2);
    w.u32(c.cdw3);
    w.u64(c.mptr);
    w.u64(c.prp1);
    w.u64(c.prp2);
    w.u32(c.cdw10);
    w.u32(c.cdw11);
    w.u32(c.cdw12);
    w.u32(c.cdw13);
    w.u32(c.cdw14);
    w.u32(c.cdw15);
}

fn read_cmd(r: &mut wire::Reader) -> Result<SubmissionEntry, ServiceError> {
    Ok(SubmissionEntry {
        opcode: r.u8()?,
        flags: r.u8()?,
        cid: r.u16()?,
        nsid: r.u32()?,
        cdw2: r.u32()?,
        cdw3: r.u32()?,
        mptr: r.u64()?,
        prp1: r.u64()?,
        prp2: r.u64()?,
        cdw10: r.u32()?,
        cdw11: r.u32()?,
        cdw12: r.u32()?,
        cdw13: r.u32()?,
        cdw14: r.u32()?,
        cdw15: r.u32()?,
    })
}

fn write_request(w: &mut wire::Writer, s: &RequestState) {
    w.u32(s.vm);
    w.u16(s.slot);
    w.u16(s.vsq);
    w.u16(s.guest_cid);
    write_cmd(w, &s.cmd);
    w.u8(s.pending);
    w.u8(s.hooks);
    w.u8(s.will_complete);
    w.u16(s.status.0);
    w.u64(s.user_tag);
    w.u64(s.accepted_at);
    w.u8(s.sent_paths);
    w.u64(s.dispatched_at);
    w.u64(s.serviced_at);
    w.u64(s.seq);
    w.u32(s.retries);
    w.u64(s.deadline);
    w.u8(s.dispatch_send);
    w.u8(s.dispatch_hooks);
    w.u8(s.dispatch_wc);
    w.u8(s.orphaned);
    w.u8(s.zombie as u8);
    w.u64(s.first_fault_at);
    w.u32(s.generation);
}

fn read_request(r: &mut wire::Reader) -> Result<RequestState, ServiceError> {
    Ok(RequestState {
        vm: r.u32()?,
        slot: r.u16()?,
        vsq: r.u16()?,
        guest_cid: r.u16()?,
        cmd: read_cmd(r)?,
        pending: r.u8()?,
        hooks: r.u8()?,
        will_complete: r.u8()?,
        status: Status(r.u16()?),
        user_tag: r.u64()?,
        accepted_at: r.u64()?,
        sent_paths: r.u8()?,
        dispatched_at: r.u64()?,
        serviced_at: r.u64()?,
        seq: r.u64()?,
        retries: r.u32()?,
        deadline: r.u64()?,
        dispatch_send: r.u8()?,
        dispatch_hooks: r.u8()?,
        dispatch_wc: r.u8()?,
        orphaned: r.u8()?,
        zombie: r.u8()? != 0,
        first_fault_at: r.u64()?,
        generation: r.u32()?,
    })
}

fn write_stats(w: &mut wire::Writer, s: &RouterStats) {
    for v in [
        s.accepted,
        s.classifier_runs,
        s.sent_hq,
        s.sent_kq,
        s.sent_nq,
        s.multicasts,
        s.completed,
        s.errors,
        s.spurious,
        s.retries,
        s.aborts,
        s.failovers,
        s.vcq_retry_drops,
        s.late_completions,
        s.cq_notifies,
        s.cq_batches,
        s.coalesced_reads,
        s.coalesce_fanout,
        s.sched_throttled,
        s.sched_preemptions,
        s.replayed,
        s.epoch_late_drops,
    ] {
        w.u64(v);
    }
}

fn read_stats(r: &mut wire::Reader) -> Result<RouterStats, ServiceError> {
    Ok(RouterStats {
        accepted: r.u64()?,
        classifier_runs: r.u64()?,
        sent_hq: r.u64()?,
        sent_kq: r.u64()?,
        sent_nq: r.u64()?,
        multicasts: r.u64()?,
        completed: r.u64()?,
        errors: r.u64()?,
        spurious: r.u64()?,
        retries: r.u64()?,
        aborts: r.u64()?,
        failovers: r.u64()?,
        vcq_retry_drops: r.u64()?,
        late_completions: r.u64()?,
        cq_notifies: r.u64()?,
        cq_batches: r.u64()?,
        coalesced_reads: r.u64()?,
        coalesce_fanout: r.u64()?,
        sched_throttled: r.u64()?,
        sched_preemptions: r.u64()?,
        replayed: r.u64()?,
        epoch_late_drops: r.u64()?,
    })
}

// Policy wire block: the poll kind byte, its two parameters (zero for
// `Spin`), then the batch bound, so every v3 blob has the same
// policy-block length whichever poll policy is in force.
fn write_policy(w: &mut wire::Writer, p: &EnginePolicy) {
    let (kind, a, b) = match p.poll {
        PollPolicy::Spin => (0, 0, 0),
        PollPolicy::Adaptive {
            idle_spin,
            park_after,
        } => (1, idle_spin, park_after),
    };
    w.u8(kind);
    w.u64(a);
    w.u64(b);
    w.u64(p.batch as u64);
}

fn read_policy(r: &mut wire::Reader) -> Result<EnginePolicy, ServiceError> {
    let kind = r.u8()?;
    let (a, b) = (r.u64()?, r.u64()?);
    let poll = match kind {
        0 => PollPolicy::Spin,
        1 => PollPolicy::Adaptive {
            idle_spin: a,
            park_after: b,
        },
        _ => return Err(ServiceError::Corrupt("unknown poll policy")),
    };
    let batch = (r.u64()? as usize).max(1);
    Ok(EnginePolicy { poll, batch })
}

fn read_count(r: &mut wire::Reader) -> Result<usize, ServiceError> {
    let n = r.u32()?;
    if n > MAX_COUNT {
        return Err(ServiceError::Corrupt("count out of bounds"));
    }
    Ok(n as usize)
}

impl ServiceState {
    /// Serializes into the versioned byte format (magic + version header,
    /// little-endian payload, FNV-1a checksum trailer).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = wire::Writer::new();
        w.bytes(&SERVICE_MAGIC);
        w.u16(SERVICE_VERSION);
        w.u32(self.generation);
        w.u32(self.shards);
        write_policy(&mut w, &self.policy);
        w.u64(self.next_seq);
        write_stats(&mut w, &self.carried);
        w.u64(self.carried_high_water);
        w.u32(self.groups.len() as u32);
        for g in &self.groups {
            w.u32(g.vm_id);
            w.u32(g.queue_group);
        }
        w.u32(self.requests.len() as u32);
        for q in &self.requests {
            w.u32(q.group);
            w.u16(q.tag);
            write_request(&mut w, &q.state);
        }
        w.u32(self.retries.len() as u32);
        for t in &self.retries {
            w.u32(t.group);
            w.u16(t.tag);
            w.u64(t.at);
        }
        w.u32(self.cqes.len() as u32);
        for c in &self.cqes {
            w.u32(c.group);
            w.u16(c.vsq);
            w.u16(c.cid);
            w.u16(c.status);
        }
        w.u32(self.breakers.len() as u32);
        for b in &self.breakers {
            w.u32(b.group);
            w.u8(b.snap.state);
            w.u64(b.snap.until);
            w.u32(b.snap.consecutive_failures);
            w.u64(b.snap.opens);
        }
        w.u32(self.tenants.len() as u32);
        for t in &self.tenants {
            w.u32(t.tenant);
            w.u32(t.throttle_permille);
            w.u64(t.admitted);
            w.u64(t.throttled);
        }
        let checksum = fnv1a(w.as_slice());
        w.u64(checksum);
        w.into_bytes()
    }

    /// Parses a blob produced by [`ServiceState::to_bytes`], rejecting bad
    /// magic, unknown versions, truncation, and checksum mismatches.
    pub fn from_bytes(bytes: &[u8]) -> Result<ServiceState, ServiceError> {
        if bytes.len() < SERVICE_MAGIC.len() + 2 + 8 {
            return Err(ServiceError::Truncated);
        }
        if bytes[..4] != SERVICE_MAGIC {
            return Err(ServiceError::BadMagic);
        }
        let (payload, trailer) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(trailer.try_into().unwrap());
        if fnv1a(payload) != stored {
            return Err(ServiceError::BadChecksum);
        }
        let mut r = wire::Reader::new(&payload[4..]);
        let version = r.u16()?;
        if version != SERVICE_VERSION {
            return Err(ServiceError::BadVersion(version));
        }
        let generation = r.u32()?;
        let shards = r.u32()?;
        let policy = read_policy(&mut r)?;
        let next_seq = r.u64()?;
        let carried = read_stats(&mut r)?;
        let carried_high_water = r.u64()?;
        let mut groups = Vec::new();
        for _ in 0..read_count(&mut r)? {
            groups.push(SavedGroup {
                vm_id: r.u32()?,
                queue_group: r.u32()?,
            });
        }
        let mut requests = Vec::new();
        for _ in 0..read_count(&mut r)? {
            let group = r.u32()?;
            let tag = r.u16()?;
            let state = read_request(&mut r)?;
            if group as usize >= groups.len() {
                return Err(ServiceError::Corrupt("request group out of range"));
            }
            requests.push(SavedRequest { group, tag, state });
        }
        let mut retries = Vec::new();
        for _ in 0..read_count(&mut r)? {
            retries.push(SavedRetry {
                group: r.u32()?,
                tag: r.u16()?,
                at: r.u64()?,
            });
        }
        let mut cqes = Vec::new();
        for _ in 0..read_count(&mut r)? {
            let c = SavedCqe {
                group: r.u32()?,
                vsq: r.u16()?,
                cid: r.u16()?,
                status: r.u16()?,
            };
            if c.group as usize >= groups.len() {
                return Err(ServiceError::Corrupt("cqe group out of range"));
            }
            cqes.push(c);
        }
        let mut breakers = Vec::new();
        for _ in 0..read_count(&mut r)? {
            breakers.push(SavedBreaker {
                group: r.u32()?,
                snap: BreakerSnap {
                    state: r.u8()?,
                    until: r.u64()?,
                    consecutive_failures: r.u32()?,
                    opens: r.u64()?,
                },
            });
        }
        let mut tenants = Vec::new();
        for _ in 0..read_count(&mut r)? {
            tenants.push(SavedTenant {
                tenant: r.u32()?,
                throttle_permille: r.u32()?,
                admitted: r.u64()?,
                throttled: r.u64()?,
            });
        }
        if r.remaining() != 0 {
            return Err(ServiceError::Corrupt("trailing bytes"));
        }
        Ok(ServiceState {
            generation,
            shards,
            policy,
            next_seq,
            carried,
            carried_high_water,
            groups,
            requests,
            retries,
            cqes,
            breakers,
            tenants,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state() -> ServiceState {
        let carried = RouterStats {
            accepted: 1234,
            completed: 1200,
            retries: 7,
            epoch_late_drops: 2,
            ..Default::default()
        };
        let cmd = SubmissionEntry::read(1, 0x40, 8, 0, 0);
        let req = RequestState {
            vm: 3,
            slot: 1,
            vsq: 2,
            guest_cid: 77,
            cmd,
            pending: 0b001,
            hooks: 0,
            will_complete: 0b001,
            status: Status::SUCCESS,
            user_tag: 42,
            accepted_at: 100,
            sent_paths: 0b001,
            dispatched_at: 110,
            serviced_at: 0,
            seq: 991,
            retries: 1,
            deadline: 5000,
            dispatch_send: 0b001,
            dispatch_hooks: 0,
            dispatch_wc: 0b001,
            orphaned: 0,
            zombie: false,
            first_fault_at: 0,
            generation: 4,
        };
        ServiceState {
            generation: 4,
            shards: 2,
            policy: EnginePolicy {
                poll: PollPolicy::Adaptive {
                    idle_spin: 8_000,
                    park_after: 64_000,
                },
                batch: 16,
            },
            next_seq: 1000,
            carried,
            carried_high_water: 96,
            groups: vec![
                SavedGroup {
                    vm_id: 3,
                    queue_group: 0,
                },
                SavedGroup {
                    vm_id: 9,
                    queue_group: 0,
                },
            ],
            requests: vec![SavedRequest {
                group: 0,
                tag: 17,
                state: req,
            }],
            retries: vec![SavedRetry {
                group: 0,
                tag: 17,
                at: 7777,
            }],
            cqes: vec![SavedCqe {
                group: 1,
                vsq: 0,
                cid: 5,
                status: Status::SUCCESS.0,
            }],
            breakers: vec![SavedBreaker {
                group: 0,
                snap: BreakerSnap {
                    state: BreakerSnap::OPEN,
                    until: 123456,
                    consecutive_failures: 4,
                    opens: 2,
                },
            }],
            tenants: vec![SavedTenant {
                tenant: 3,
                throttle_permille: 500,
                admitted: 88,
                throttled: 12,
            }],
        }
    }

    #[test]
    fn byte_format_round_trips() {
        let s = sample_state();
        let bytes = s.to_bytes();
        let r = ServiceState::from_bytes(&bytes).expect("round trip");
        assert_eq!(r.generation, 4);
        assert_eq!(r.shards, 2);
        assert_eq!(r.policy, s.policy);
        assert_eq!(r.next_seq, 1000);
        assert_eq!(r.carried.accepted, 1234);
        assert_eq!(r.carried.epoch_late_drops, 2);
        assert_eq!(r.carried_high_water, 96);
        assert_eq!(r.groups, s.groups);
        assert_eq!(r.requests.len(), 1);
        let q = &r.requests[0];
        assert_eq!((q.group, q.tag), (0, 17));
        assert_eq!(q.state.seq, 991);
        assert_eq!(q.state.cmd.slba(), 0x40);
        assert_eq!(q.state.cmd.nlb(), 8);
        assert_eq!(q.state.generation, 4);
        assert_eq!(r.retries, s.retries);
        assert_eq!(r.cqes, s.cqes);
        assert_eq!(r.breakers[0].snap.until, 123456);
        assert_eq!(r.tenants, s.tenants);
    }

    /// The NVMS v2 bytes of the v2 layout's sample state (adaptive poll,
    /// auto batch, affine placement, two workers): a layout this version
    /// no longer reads.
    const GOLDEN_V2_HEX: &str = "\
         4e564d530200040000000200000001401f00000000000000fa00000000000001\
         0400000000000000000100000000000001020000000000000004000000000000\
         000100000000000000b0040000000000000200000000000000e8030000000000\
         00d2040000000000000000000000000000000000000000000000000000000000\
         0000000000000000000000000000000000b00400000000000000000000000000\
         0000000000000000000700000000000000000000000000000000000000000000\
         0000000000000000000000000000000000000000000000000000000000000000\
         0000000000000000000000000000000000000000000000000000000000000000\
         0000000000000000000200000000000000600000000000000002000000030000\
         000000000009000000000000000100000000000000110003000000010002004d\
         0002000000010000000000000000000000000000000000000000000000000000\
         0000000000000000004000000000000000070000000000000000000000000000\
         0001000100002a000000000000006400000000000000016e0000000000000000\
         00000000000000df030000000000000100000088130000000000000100010000\
         00000000000000000400000001000000000000001100611e0000000000000100\
         00000100000000000500000001000000000000000140e2010000000000040000\
         0002000000000000000100000003000000f401000058000000000000000c0000\
         0000000000d1097f33a54541e0\
         ";

    /// The NVMS v3 bytes of `sample_state()`: a change that moves them needs
    /// a `SERVICE_VERSION` bump, not a new golden.
    const GOLDEN_V3_HEX: &str = "\
         4e564d530300040000000200000001401f00000000000000fa00000000000010\
         00000000000000e803000000000000d204000000000000000000000000000000\
         00000000000000000000000000000000000000000000000000000000000000b0\
         0400000000000000000000000000000000000000000000070000000000000000\
         0000000000000000000000000000000000000000000000000000000000000000\
         0000000000000000000000000000000000000000000000000000000000000000\
         0000000000000000000000000000000000000000000000020000000000000060\
         0000000000000002000000030000000000000009000000000000000100000000\
         000000110003000000010002004d000200000001000000000000000000000000\
         0000000000000000000000000000000000000000000000400000000000000007\
         00000000000000000000000000000001000100002a0000000000000064000000\
         00000000016e000000000000000000000000000000df03000000000000010000\
         0088130000000000000100010000000000000000000004000000010000000000\
         00001100611e0000000000000100000001000000000005000000010000000000\
         00000140e20100000000000400000002000000000000000100000003000000f4\
         01000058000000000000000c0000000000000044a3cdcc2591307e\
         ";

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn v3_bytes_match_the_committed_golden() {
        let golden = unhex(GOLDEN_V3_HEX);
        assert_eq!(sample_state().to_bytes(), golden);
        let back = ServiceState::from_bytes(&golden).expect("golden decodes");
        assert_eq!(back.to_bytes(), golden);
    }

    #[test]
    fn v2_golden_is_refused_with_a_version_error() {
        assert_eq!(
            ServiceState::from_bytes(&unhex(GOLDEN_V2_HEX)).unwrap_err(),
            ServiceError::BadVersion(2)
        );
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample_state().to_bytes();
        bytes[0] = b'X';
        assert_eq!(
            ServiceState::from_bytes(&bytes).unwrap_err(),
            ServiceError::BadMagic
        );
    }

    #[test]
    fn unknown_version_is_rejected() {
        let mut bytes = sample_state().to_bytes();
        // Flip the version field, then re-stamp the checksum so version
        // checking (not the checksum) does the rejecting.
        bytes[4] = 0xFF;
        let n = bytes.len();
        let sum = fnv1a(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            ServiceState::from_bytes(&bytes).unwrap_err(),
            ServiceError::BadVersion(0xFF)
        );
    }

    #[test]
    fn truncation_is_rejected() {
        let bytes = sample_state().to_bytes();
        for cut in [0usize, 3, 8, bytes.len() / 2, bytes.len() - 1] {
            let r = ServiceState::from_bytes(&bytes[..cut]);
            assert!(r.is_err(), "truncation at {cut} must fail");
        }
    }

    #[test]
    fn bit_flips_are_rejected() {
        let clean = sample_state().to_bytes();
        for pos in [6usize, 20, clean.len() / 2, clean.len() - 9] {
            let mut bytes = clean.clone();
            bytes[pos] ^= 0x40;
            assert_eq!(
                ServiceState::from_bytes(&bytes).unwrap_err(),
                ServiceError::BadChecksum,
                "bit flip at {pos} must fail the checksum"
            );
        }
    }
}
