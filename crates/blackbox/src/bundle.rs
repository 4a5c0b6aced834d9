//! The postmortem dump bundle: a self-contained, versioned, checksummed
//! record of the recorder's rolling window at the moment a trigger fired.
//!
//! The byte format is built from the servicing `ServiceState` wire
//! primitives (`nvmetro_core::servicing::wire`) in the same shape: a 4-byte
//! magic (`NVBB`), a little-endian version word, the payload, and an
//! FNV-1a-64 trailer over everything before it. [`DumpBundle::to_json`]
//! renders the same content as one JSON object for tooling, and
//! [`report`](crate::report) reconstructs a human-readable incident
//! timeline from the bundle alone — no live engine required.

use nvmetro_core::servicing::{fnv1a, wire};
use nvmetro_insight::export::esc;
use nvmetro_insight::{BreakerGauge, EngineGauges, TenantGauge};
use nvmetro_telemetry::{Metric, Ns, PathKind, Route, Stage, TraceEvent};
use std::fmt::Write as _;

/// Magic prefix of every serialized dump bundle.
pub const BUNDLE_MAGIC: [u8; 4] = *b"NVBB";
/// Current bundle layout version (v2 renumbered the [`Metric`] ids that
/// counter deltas carry as a `u8`; v1 blobs are refused, not mis-decoded).
pub const BUNDLE_VERSION: u16 = 2;

/// Why bundle deserialization failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BundleError {
    /// The blob does not start with [`BUNDLE_MAGIC`].
    BadMagic,
    /// The blob's layout version is not understood.
    BadVersion(u16),
    /// The blob ended before the structure it promised.
    Truncated,
    /// The checksum trailer does not match the payload.
    BadChecksum,
    /// The blob parsed but its contents are inconsistent.
    Corrupt(&'static str),
}

impl std::fmt::Display for BundleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BundleError::BadMagic => write!(f, "not a blackbox bundle (bad magic)"),
            BundleError::BadVersion(v) => write!(f, "unknown blackbox bundle version {v}"),
            BundleError::Truncated => write!(f, "blackbox bundle truncated"),
            BundleError::BadChecksum => write!(f, "blackbox bundle checksum mismatch"),
            BundleError::Corrupt(what) => write!(f, "blackbox bundle corrupt: {what}"),
        }
    }
}

impl std::error::Error for BundleError {}

impl From<wire::Error> for BundleError {
    fn from(e: wire::Error) -> Self {
        match e {
            wire::Error::Truncated => BundleError::Truncated,
            wire::Error::NonUtf8 => BundleError::Corrupt("non-utf8 string"),
        }
    }
}

/// A servicing lifecycle operation, derived from counter deltas.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServicingOp {
    /// `SnapshotsTaken` moved.
    Snapshot,
    /// `Restores` moved.
    Restore,
    /// `Reshards` moved.
    Reshard,
    /// `VmAttaches` moved.
    Attach,
    /// `VmDetaches` moved.
    Detach,
}

impl ServicingOp {
    /// Stable lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            ServicingOp::Snapshot => "snapshot",
            ServicingOp::Restore => "restore",
            ServicingOp::Reshard => "reshard",
            ServicingOp::Attach => "vm_attach",
            ServicingOp::Detach => "vm_detach",
        }
    }

    const ALL: [ServicingOp; 5] = [
        ServicingOp::Snapshot,
        ServicingOp::Restore,
        ServicingOp::Reshard,
        ServicingOp::Attach,
        ServicingOp::Detach,
    ];
}

/// What fired a dump.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TriggerReason {
    /// An explicit `Engine::dump()` / `Blackbox::dump_now` call.
    Manual,
    /// A queue stayed stalled for `ticks` consecutive watchdog reports.
    StallPersisted {
        /// Router shard (worker id) owning the stalled queue.
        worker: u16,
        /// Owning VM.
        vm: u32,
        /// Virtual submission queue.
        vsq: u16,
        /// Consecutive stalled reports.
        ticks: u32,
        /// Virtual time the stall streak started.
        since: Ns,
    },
    /// A route burned its SLO budget for `ticks` consecutive reports.
    SloBurnPersisted {
        /// The route over budget.
        route: Route,
        /// Consecutive over-budget reports.
        ticks: u32,
        /// Latest burn rate in permille (1000 = exactly at budget).
        burn_permille: u32,
    },
    /// The circuit breaker opened (`delta` opens since the last tick).
    BreakerOpened {
        /// Opens observed in the window.
        delta: u64,
    },
    /// The span assembler observed duplicate terminal completions — an
    /// exactly-once violation on the datapath.
    DuplicateTerminal {
        /// Violations observed so far.
        count: u64,
    },
}

/// One recorded flight-recorder entry.
#[derive(Clone, Debug, PartialEq)]
pub struct BoxEvent {
    /// Virtual time of the entry.
    pub at: Ns,
    /// What happened.
    pub kind: BoxKind,
}

/// The recorder's event vocabulary: high-signal datapath occurrences only.
#[derive(Clone, Debug, PartialEq)]
pub enum BoxKind {
    /// A rare-stage trace event (abort/retry/failover/replay, shard
    /// park/wake, causal link fan-out) copied from the telemetry rings.
    Trace(TraceEvent),
    /// Watchdog verdict: a queue stalled.
    Stalled {
        /// Router shard (worker id) owning the queue.
        worker: u16,
        /// Owning VM.
        vm: u32,
        /// Virtual submission queue.
        vsq: u16,
        /// In-flight requests on the queue.
        open: u32,
        /// Age of the oldest in-flight request.
        oldest_age_ns: Ns,
    },
    /// Watchdog verdict: a stalled queue recovered.
    Recovered {
        /// Router shard (worker id) owning the queue.
        worker: u16,
        /// Owning VM.
        vm: u32,
        /// Virtual submission queue.
        vsq: u16,
    },
    /// Watchdog verdict: the breaker is flapping.
    BreakerFlap {
        /// Opens in the offending window.
        opens: u64,
    },
    /// Watchdog verdict: a route is over its SLO error budget.
    SloBurn {
        /// The route over budget.
        route: Route,
        /// Burn rate in permille (1000 = exactly at budget).
        burn_permille: u32,
    },
    /// A fleet feedback throttle decision.
    Throttle {
        /// Tenant (VM) id.
        tenant: u32,
        /// New throttle scale in permille (1000 = unthrottled).
        permille: u32,
        /// True for tighten, false for relax.
        tighten: bool,
    },
    /// A servicing lifecycle operation (from counter deltas).
    Servicing {
        /// Which operation.
        op: ServicingOp,
        /// How many this tick.
        count: u64,
    },
    /// Periodic counter checkpoint: only the metrics that moved since the
    /// previous checkpoint, as `(metric, delta)` pairs.
    Checkpoint {
        /// Sparse counter deltas.
        deltas: Vec<(Metric, u64)>,
    },
    /// A dump trigger fired.
    Trigger(TriggerReason),
}

/// The active engine policy, rendered to strings so the bundle stays
/// self-contained (no core types on the wire).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PolicySummary {
    /// Poll policy rendering (e.g. `spin`, `adaptive(idle_spin=…)`).
    pub poll: String,
    /// Batch rendering (e.g. `fixed(32)`; bundles from engines that had
    /// the auto-tuner may hold `auto(4..256)`).
    pub batch: String,
    /// Placement rendering: `round_robin` from current engines, which
    /// number shards instead of pinning them.
    pub placement: String,
    /// Worker threads per shard station: 1 from current engines.
    pub workers: u32,
}

/// One incomplete span resident at dump time — the requests that were
/// still in flight when the incident fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResidueSpan {
    /// Router shard (worker id) that owned the request.
    pub shard: u16,
    /// Owning VM.
    pub vm: u32,
    /// Virtual submission queue.
    pub vsq: u16,
    /// Routing-table tag.
    pub tag: u16,
    /// Router-stamped generation.
    pub gen: u8,
    /// When the span opened.
    pub start_ns: Ns,
    /// Latest event observed on the span.
    pub last_ns: Ns,
    /// The last lifecycle stage the span reached.
    pub last_stage: Stage,
}

/// The self-contained postmortem bundle.
#[derive(Clone, Debug, PartialEq)]
pub struct DumpBundle {
    /// What fired the dump.
    pub reason: TriggerReason,
    /// Virtual time of the dump.
    pub at: Ns,
    /// Rolling-window horizon the timeline was trimmed to.
    pub window_ns: Ns,
    /// Ring entries evicted before this dump (older history lost).
    pub evicted: u64,
    /// Timeline entries inside the window, oldest first.
    pub timeline: Vec<BoxEvent>,
    /// Datapath counters at dump time, indexed by `Metric as usize`.
    pub counters: [u64; Metric::COUNT],
    /// Latest-fed per-shard engine gauges, if any were fed.
    pub gauges: Option<EngineGauges>,
    /// Latest-fed active engine policy, if fed.
    pub policy: Option<PolicySummary>,
    /// Requests still in flight at dump time.
    pub residue: Vec<ResidueSpan>,
}

fn stage_from(v: u8) -> Result<Stage, BundleError> {
    Stage::ALL
        .get(v as usize)
        .copied()
        .ok_or(BundleError::Corrupt("bad stage"))
}

fn path_from(v: u8) -> Result<PathKind, BundleError> {
    match v {
        0 => Ok(PathKind::None),
        1 => Ok(PathKind::Fast),
        2 => Ok(PathKind::Kernel),
        3 => Ok(PathKind::Notify),
        _ => Err(BundleError::Corrupt("bad path kind")),
    }
}

fn route_from(v: u8) -> Result<Route, BundleError> {
    Route::ALL
        .get(v as usize)
        .copied()
        .ok_or(BundleError::Corrupt("bad route"))
}

fn metric_from(v: u8) -> Result<Metric, BundleError> {
    Metric::ALL
        .get(v as usize)
        .copied()
        .ok_or(BundleError::Corrupt("bad metric"))
}

/// Poll-mode gauge names are interned; unknown names round-trip as `"?"`.
fn poll_mode_from(v: u8) -> &'static str {
    match v {
        0 => "spin",
        1 => "yield",
        2 => "parked",
        _ => "?",
    }
}

fn poll_mode_code(name: &str) -> u8 {
    match name {
        "spin" => 0,
        "yield" => 1,
        "parked" => 2,
        _ => 255,
    }
}

fn write_reason(w: &mut wire::Writer, r: &TriggerReason) {
    match r {
        TriggerReason::Manual => w.u8(0),
        TriggerReason::StallPersisted {
            worker,
            vm,
            vsq,
            ticks,
            since,
        } => {
            w.u8(1);
            w.u16(*worker);
            w.u32(*vm);
            w.u16(*vsq);
            w.u32(*ticks);
            w.u64(*since);
        }
        TriggerReason::SloBurnPersisted {
            route,
            ticks,
            burn_permille,
        } => {
            w.u8(2);
            w.u8(*route as u8);
            w.u32(*ticks);
            w.u32(*burn_permille);
        }
        TriggerReason::BreakerOpened { delta } => {
            w.u8(3);
            w.u64(*delta);
        }
        TriggerReason::DuplicateTerminal { count } => {
            w.u8(4);
            w.u64(*count);
        }
    }
}

fn read_reason(r: &mut wire::Reader) -> Result<TriggerReason, BundleError> {
    Ok(match r.u8()? {
        0 => TriggerReason::Manual,
        1 => TriggerReason::StallPersisted {
            worker: r.u16()?,
            vm: r.u32()?,
            vsq: r.u16()?,
            ticks: r.u32()?,
            since: r.u64()?,
        },
        2 => TriggerReason::SloBurnPersisted {
            route: route_from(r.u8()?)?,
            ticks: r.u32()?,
            burn_permille: r.u32()?,
        },
        3 => TriggerReason::BreakerOpened { delta: r.u64()? },
        4 => TriggerReason::DuplicateTerminal { count: r.u64()? },
        _ => return Err(BundleError::Corrupt("bad trigger reason")),
    })
}

fn write_event(w: &mut wire::Writer, e: &BoxEvent) {
    w.u64(e.at);
    match &e.kind {
        BoxKind::Trace(t) => {
            w.u8(0);
            w.u64(t.ts_ns);
            w.u32(t.vm);
            w.u16(t.vsq);
            w.u16(t.tag);
            w.u16(t.worker);
            w.u8(t.gen);
            w.u8(t.stage as u8);
            w.u8(t.path as u8);
            w.u16(t.link_tag);
            w.u8(t.link_gen);
        }
        BoxKind::Stalled {
            worker,
            vm,
            vsq,
            open,
            oldest_age_ns,
        } => {
            w.u8(1);
            w.u16(*worker);
            w.u32(*vm);
            w.u16(*vsq);
            w.u32(*open);
            w.u64(*oldest_age_ns);
        }
        BoxKind::Recovered { worker, vm, vsq } => {
            w.u8(2);
            w.u16(*worker);
            w.u32(*vm);
            w.u16(*vsq);
        }
        BoxKind::BreakerFlap { opens } => {
            w.u8(3);
            w.u64(*opens);
        }
        BoxKind::SloBurn {
            route,
            burn_permille,
        } => {
            w.u8(4);
            w.u8(*route as u8);
            w.u32(*burn_permille);
        }
        BoxKind::Throttle {
            tenant,
            permille,
            tighten,
        } => {
            w.u8(5);
            w.u32(*tenant);
            w.u32(*permille);
            w.u8(*tighten as u8);
        }
        BoxKind::Servicing { op, count } => {
            w.u8(6);
            w.u8(*op as u8);
            w.u64(*count);
        }
        BoxKind::Checkpoint { deltas } => {
            w.u8(7);
            w.u8(deltas.len().min(255) as u8);
            for (m, d) in deltas.iter().take(255) {
                w.u8(*m as u8);
                w.u64(*d);
            }
        }
        BoxKind::Trigger(reason) => {
            w.u8(8);
            write_reason(w, reason);
        }
    }
}

fn read_event(r: &mut wire::Reader) -> Result<BoxEvent, BundleError> {
    let at = r.u64()?;
    let kind = match r.u8()? {
        0 => BoxKind::Trace(TraceEvent {
            ts_ns: r.u64()?,
            vm: r.u32()?,
            vsq: r.u16()?,
            tag: r.u16()?,
            worker: r.u16()?,
            gen: r.u8()?,
            stage: stage_from(r.u8()?)?,
            path: path_from(r.u8()?)?,
            link_tag: r.u16()?,
            link_gen: r.u8()?,
        }),
        1 => BoxKind::Stalled {
            worker: r.u16()?,
            vm: r.u32()?,
            vsq: r.u16()?,
            open: r.u32()?,
            oldest_age_ns: r.u64()?,
        },
        2 => BoxKind::Recovered {
            worker: r.u16()?,
            vm: r.u32()?,
            vsq: r.u16()?,
        },
        3 => BoxKind::BreakerFlap { opens: r.u64()? },
        4 => BoxKind::SloBurn {
            route: route_from(r.u8()?)?,
            burn_permille: r.u32()?,
        },
        5 => BoxKind::Throttle {
            tenant: r.u32()?,
            permille: r.u32()?,
            tighten: r.u8()? != 0,
        },
        6 => BoxKind::Servicing {
            op: *ServicingOp::ALL
                .get(r.u8()? as usize)
                .ok_or(BundleError::Corrupt("bad servicing op"))?,
            count: r.u64()?,
        },
        7 => {
            let n = r.u8()? as usize;
            let mut deltas = Vec::with_capacity(n);
            for _ in 0..n {
                deltas.push((metric_from(r.u8()?)?, r.u64()?));
            }
            BoxKind::Checkpoint { deltas }
        }
        8 => BoxKind::Trigger(read_reason(r)?),
        _ => return Err(BundleError::Corrupt("bad event kind")),
    };
    Ok(BoxEvent { at, kind })
}

impl DumpBundle {
    /// Serializes the bundle: magic, version, payload, FNV-1a-64 trailer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = wire::Writer::new();
        w.bytes(&BUNDLE_MAGIC);
        w.u16(BUNDLE_VERSION);
        write_reason(&mut w, &self.reason);
        w.u64(self.at);
        w.u64(self.window_ns);
        w.u64(self.evicted);
        w.u16(Metric::COUNT as u16);
        for c in &self.counters {
            w.u64(*c);
        }
        match &self.policy {
            None => w.u8(0),
            Some(p) => {
                w.u8(1);
                w.str(&p.poll);
                w.str(&p.batch);
                w.str(&p.placement);
                w.u32(p.workers);
            }
        }
        match &self.gauges {
            None => w.u8(0),
            Some(g) => {
                w.u8(1);
                w.u16(g.poll_modes.len() as u16);
                for m in &g.poll_modes {
                    w.u8(poll_mode_code(m));
                }
                w.u16(g.batch_sizes.len() as u16);
                for b in &g.batch_sizes {
                    w.u32(*b as u32);
                }
                w.u16(g.shard_cores.len() as u16);
                for c in &g.shard_cores {
                    w.u32(*c as u32);
                }
                w.u32(g.occupancy as u32);
                w.u32(g.high_water as u32);
                w.u16(g.tenants.len() as u16);
                for t in &g.tenants {
                    w.u16(t.shard as u16);
                    w.u32(t.tenant);
                    w.u32(t.throttle_permille);
                    w.u64(t.deficit);
                    w.u64(t.admitted);
                    w.u64(t.throttled);
                }
                w.u16(g.breakers.len() as u16);
                for b in &g.breakers {
                    w.u16(b.shard as u16);
                    w.u32(b.vm);
                    w.u8(b.open as u8);
                    w.u64(b.opens);
                }
            }
        }
        w.u32(self.timeline.len() as u32);
        for e in &self.timeline {
            write_event(&mut w, e);
        }
        w.u32(self.residue.len() as u32);
        for s in &self.residue {
            w.u16(s.shard);
            w.u32(s.vm);
            w.u16(s.vsq);
            w.u16(s.tag);
            w.u8(s.gen);
            w.u64(s.start_ns);
            w.u64(s.last_ns);
            w.u8(s.last_stage as u8);
        }
        let checksum = fnv1a(w.as_slice());
        w.u64(checksum);
        w.into_bytes()
    }

    /// Parses and verifies a serialized bundle.
    pub fn from_bytes(bytes: &[u8]) -> Result<DumpBundle, BundleError> {
        if bytes.len() < BUNDLE_MAGIC.len() + 2 + 8 {
            return Err(BundleError::Truncated);
        }
        if bytes[..4] != BUNDLE_MAGIC {
            return Err(BundleError::BadMagic);
        }
        let (payload, trailer) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(trailer.try_into().unwrap());
        if fnv1a(payload) != stored {
            return Err(BundleError::BadChecksum);
        }
        let mut r = wire::Reader::new(&payload[4..]);
        let version = r.u16()?;
        if version != BUNDLE_VERSION {
            return Err(BundleError::BadVersion(version));
        }
        let reason = read_reason(&mut r)?;
        let at = r.u64()?;
        let window_ns = r.u64()?;
        let evicted = r.u64()?;
        let n_counters = r.u16()? as usize;
        if n_counters > Metric::COUNT {
            return Err(BundleError::Corrupt("counter count"));
        }
        let mut counters = [0u64; Metric::COUNT];
        for c in counters.iter_mut().take(n_counters) {
            *c = r.u64()?;
        }
        let policy = match r.u8()? {
            0 => None,
            1 => Some(PolicySummary {
                poll: r.str()?,
                batch: r.str()?,
                placement: r.str()?,
                workers: r.u32()?,
            }),
            _ => return Err(BundleError::Corrupt("policy presence flag")),
        };
        let gauges = match r.u8()? {
            0 => None,
            1 => {
                let n = r.u16()? as usize;
                let mut poll_modes = Vec::with_capacity(n);
                for _ in 0..n {
                    poll_modes.push(poll_mode_from(r.u8()?));
                }
                let n = r.u16()? as usize;
                let mut batch_sizes = Vec::with_capacity(n);
                for _ in 0..n {
                    batch_sizes.push(r.u32()? as usize);
                }
                let n = r.u16()? as usize;
                let mut shard_cores = Vec::with_capacity(n);
                for _ in 0..n {
                    shard_cores.push(r.u32()? as usize);
                }
                let occupancy = r.u32()? as usize;
                let high_water = r.u32()? as usize;
                let n = r.u16()? as usize;
                let mut tenants = Vec::with_capacity(n);
                for _ in 0..n {
                    tenants.push(TenantGauge {
                        shard: r.u16()? as usize,
                        tenant: r.u32()?,
                        throttle_permille: r.u32()?,
                        deficit: r.u64()?,
                        admitted: r.u64()?,
                        throttled: r.u64()?,
                    });
                }
                let n = r.u16()? as usize;
                let mut breakers = Vec::with_capacity(n);
                for _ in 0..n {
                    breakers.push(BreakerGauge {
                        shard: r.u16()? as usize,
                        vm: r.u32()?,
                        open: r.u8()? != 0,
                        opens: r.u64()?,
                    });
                }
                Some(EngineGauges {
                    poll_modes,
                    batch_sizes,
                    shard_cores,
                    occupancy,
                    high_water,
                    tenants,
                    breakers,
                })
            }
            _ => return Err(BundleError::Corrupt("gauges presence flag")),
        };
        let n = r.u32()? as usize;
        let mut timeline = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            timeline.push(read_event(&mut r)?);
        }
        let n = r.u32()? as usize;
        let mut residue = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            residue.push(ResidueSpan {
                shard: r.u16()?,
                vm: r.u32()?,
                vsq: r.u16()?,
                tag: r.u16()?,
                gen: r.u8()?,
                start_ns: r.u64()?,
                last_ns: r.u64()?,
                last_stage: stage_from(r.u8()?)?,
            });
        }
        if r.remaining() != 0 {
            return Err(BundleError::Corrupt("trailing payload"));
        }
        Ok(DumpBundle {
            reason,
            at,
            window_ns,
            evicted,
            timeline,
            counters,
            gauges,
            policy,
            residue,
        })
    }

    /// Renders the bundle as one JSON object (hand-rolled, validated by
    /// `insight::export::validate_json` in tests).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push('{');
        let _ = write!(
            out,
            "\"version\":{BUNDLE_VERSION},\"at_ns\":{},\"window_ns\":{},\"evicted\":{},",
            self.at, self.window_ns, self.evicted
        );
        out.push_str("\"reason\":");
        reason_json(&mut out, &self.reason);
        out.push(',');
        out.push_str("\"counters\":{");
        let mut first = true;
        for m in Metric::ALL {
            let v = self.counters[m as usize];
            if v == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\"{}\":{v}", m.name());
        }
        out.push_str("},");
        match &self.policy {
            None => out.push_str("\"policy\":null,"),
            Some(p) => {
                let _ = write!(
                    out,
                    "\"policy\":{{\"poll\":\"{}\",\"batch\":\"{}\",\"placement\":\"{}\",\
                     \"workers\":{}}},",
                    esc(&p.poll),
                    esc(&p.batch),
                    esc(&p.placement),
                    p.workers
                );
            }
        }
        match &self.gauges {
            None => out.push_str("\"gauges\":null,"),
            Some(g) => {
                out.push_str("\"gauges\":{\"shards\":[");
                for i in 0..g.poll_modes.len() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(
                        out,
                        "{{\"shard\":{i},\"poll_mode\":\"{}\",\"batch\":{},\"core\":{}}}",
                        g.poll_modes[i],
                        g.batch_sizes.get(i).copied().unwrap_or(0),
                        g.shard_cores.get(i).copied().unwrap_or(0)
                    );
                }
                let _ = write!(
                    out,
                    "],\"occupancy\":{},\"high_water\":{},\"tenants\":[",
                    g.occupancy, g.high_water
                );
                for (i, t) in g.tenants.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(
                        out,
                        "{{\"shard\":{},\"tenant\":{},\"throttle_permille\":{},\
                         \"admitted\":{},\"throttled\":{}}}",
                        t.shard, t.tenant, t.throttle_permille, t.admitted, t.throttled
                    );
                }
                out.push_str("],\"breakers\":[");
                for (i, b) in g.breakers.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(
                        out,
                        "{{\"shard\":{},\"vm\":{},\"open\":{},\"opens\":{}}}",
                        b.shard, b.vm, b.open, b.opens
                    );
                }
                out.push_str("]},");
            }
        }
        out.push_str("\"timeline\":[");
        for (i, e) in self.timeline.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            event_json(&mut out, e);
        }
        out.push_str("],\"residue\":[");
        for (i, s) in self.residue.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"shard\":{},\"vm\":{},\"vsq\":{},\"tag\":{},\"gen\":{},\
                 \"start_ns\":{},\"last_ns\":{},\"last_stage\":\"{}\"}}",
                s.shard,
                s.vm,
                s.vsq,
                s.tag,
                s.gen,
                s.start_ns,
                s.last_ns,
                s.last_stage.name()
            );
        }
        out.push_str("]}");
        out
    }
}

fn reason_json(out: &mut String, r: &TriggerReason) {
    match r {
        TriggerReason::Manual => out.push_str("{\"kind\":\"manual\"}"),
        TriggerReason::StallPersisted {
            worker,
            vm,
            vsq,
            ticks,
            since,
        } => {
            let _ = write!(
                out,
                "{{\"kind\":\"stall_persisted\",\"shard\":{worker},\"vm\":{vm},\"vsq\":{vsq},\
                 \"ticks\":{ticks},\"since_ns\":{since}}}"
            );
        }
        TriggerReason::SloBurnPersisted {
            route,
            ticks,
            burn_permille,
        } => {
            let _ = write!(
                out,
                "{{\"kind\":\"slo_burn_persisted\",\"route\":\"{}\",\"ticks\":{ticks},\
                 \"burn_permille\":{burn_permille}}}",
                route.name()
            );
        }
        TriggerReason::BreakerOpened { delta } => {
            let _ = write!(out, "{{\"kind\":\"breaker_opened\",\"delta\":{delta}}}");
        }
        TriggerReason::DuplicateTerminal { count } => {
            let _ = write!(out, "{{\"kind\":\"duplicate_terminal\",\"count\":{count}}}");
        }
    }
}

fn event_json(out: &mut String, e: &BoxEvent) {
    let _ = write!(out, "{{\"at_ns\":{},", e.at);
    match &e.kind {
        BoxKind::Trace(t) => {
            let _ = write!(
                out,
                "\"kind\":\"trace\",\"stage\":\"{}\",\"vm\":{},\"vsq\":{},\"tag\":{},\
                 \"gen\":{},\"shard\":{},\"path\":\"{}\"",
                t.stage.name(),
                t.vm,
                t.vsq,
                t.tag,
                t.gen,
                t.worker,
                t.path.name()
            );
            if t.link_gen != 0 {
                let _ = write!(
                    out,
                    ",\"link_tag\":{},\"link_gen\":{}",
                    t.link_tag, t.link_gen
                );
            }
        }
        BoxKind::Stalled {
            worker,
            vm,
            vsq,
            open,
            oldest_age_ns,
        } => {
            let _ = write!(
                out,
                "\"kind\":\"stalled\",\"shard\":{worker},\"vm\":{vm},\"vsq\":{vsq},\
                 \"open\":{open},\"oldest_age_ns\":{oldest_age_ns}"
            );
        }
        BoxKind::Recovered { worker, vm, vsq } => {
            let _ = write!(
                out,
                "\"kind\":\"recovered\",\"shard\":{worker},\"vm\":{vm},\"vsq\":{vsq}"
            );
        }
        BoxKind::BreakerFlap { opens } => {
            let _ = write!(out, "\"kind\":\"breaker_flap\",\"opens\":{opens}");
        }
        BoxKind::SloBurn {
            route,
            burn_permille,
        } => {
            let _ = write!(
                out,
                "\"kind\":\"slo_burn\",\"route\":\"{}\",\"burn_permille\":{burn_permille}",
                route.name()
            );
        }
        BoxKind::Throttle {
            tenant,
            permille,
            tighten,
        } => {
            let _ = write!(
                out,
                "\"kind\":\"throttle\",\"tenant\":{tenant},\"permille\":{permille},\
                 \"tighten\":{tighten}"
            );
        }
        BoxKind::Servicing { op, count } => {
            let _ = write!(
                out,
                "\"kind\":\"servicing\",\"op\":\"{}\",\"count\":{count}",
                op.name()
            );
        }
        BoxKind::Checkpoint { deltas } => {
            out.push_str("\"kind\":\"checkpoint\",\"deltas\":{");
            for (i, (m, d)) in deltas.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":{d}", m.name());
            }
            out.push('}');
        }
        BoxKind::Trigger(reason) => {
            out.push_str("\"kind\":\"trigger\",\"reason\":");
            reason_json(out, reason);
        }
    }
    out.push('}');
}

fn ms(ns: Ns) -> f64 {
    ns as f64 / 1_000_000.0
}

/// Reconstructs a human-readable incident timeline from a bundle alone:
/// the trigger (with the fault's site and time window when the reason
/// names one), the active policy and per-shard gauges, the counters that
/// moved, the recorded timeline, and the requests left in flight.
pub fn report(bundle: &DumpBundle) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== blackbox incident report ==");
    let (site, window_start) = match &bundle.reason {
        TriggerReason::Manual => {
            let _ = writeln!(out, "trigger: explicit dump request");
            (None, None)
        }
        TriggerReason::StallPersisted {
            worker,
            vm,
            vsq,
            ticks,
            since,
        } => {
            let _ = writeln!(
                out,
                "trigger: queue stalled on shard {worker} vm {vm} vsq {vsq} for {ticks} \
                 consecutive watchdog ticks (since {:.3} ms)",
                ms(*since)
            );
            (
                Some(format!("shard {worker} vm {vm} vsq {vsq}")),
                Some(*since),
            )
        }
        TriggerReason::SloBurnPersisted {
            route,
            ticks,
            burn_permille,
        } => {
            let _ = writeln!(
                out,
                "trigger: route {} over SLO budget for {ticks} consecutive ticks \
                 (burn {:.2}x)",
                route.name(),
                *burn_permille as f64 / 1000.0
            );
            (Some(format!("route {}", route.name())), None)
        }
        TriggerReason::BreakerOpened { delta } => {
            let _ = writeln!(out, "trigger: circuit breaker opened ({delta} opens)");
            // The breaker gauges name the open (shard, vm) cell.
            let site = bundle.gauges.as_ref().and_then(|g| {
                g.breakers
                    .iter()
                    .find(|b| b.open)
                    .map(|b| format!("shard {} vm {}", b.shard, b.vm))
            });
            (site, None)
        }
        TriggerReason::DuplicateTerminal { count } => {
            let _ = writeln!(
                out,
                "trigger: {count} duplicate terminal completion(s) — exactly-once violation"
            );
            (None, None)
        }
    };
    let start = window_start.unwrap_or_else(|| bundle.at.saturating_sub(bundle.window_ns));
    let _ = writeln!(
        out,
        "dumped at {:.3} ms; window {:.3}..{:.3} ms ({} timeline entries, {} evicted)",
        ms(bundle.at),
        ms(start),
        ms(bundle.at),
        bundle.timeline.len(),
        bundle.evicted
    );
    if let Some(site) = &site {
        let _ = writeln!(out, "fault site: {site}");
    }

    if let Some(p) = &bundle.policy {
        let _ = writeln!(
            out,
            "policy: poll={} batch={} placement={} workers={}",
            p.poll, p.batch, p.placement, p.workers
        );
    }
    if let Some(g) = &bundle.gauges {
        let _ = writeln!(
            out,
            "gauges: occupancy {} (high water {})",
            g.occupancy, g.high_water
        );
        for i in 0..g.poll_modes.len() {
            let _ = writeln!(
                out,
                "  shard {i}: {} batch={} core={}",
                g.poll_modes[i],
                g.batch_sizes.get(i).copied().unwrap_or(0),
                g.shard_cores.get(i).copied().unwrap_or(0)
            );
        }
        for t in &g.tenants {
            if t.throttle_permille < 1000 || t.throttled > 0 {
                let _ = writeln!(
                    out,
                    "  tenant {} (shard {}): throttle {}‰, {} throttled",
                    t.tenant, t.shard, t.throttle_permille, t.throttled
                );
            }
        }
        for b in &g.breakers {
            if b.open || b.opens > 0 {
                let _ = writeln!(
                    out,
                    "  breaker shard {} vm {}: {} ({} opens)",
                    b.shard,
                    b.vm,
                    if b.open { "OPEN" } else { "closed" },
                    b.opens
                );
            }
        }
    }

    let interesting = [
        Metric::Accepted,
        Metric::Completed,
        Metric::Errors,
        Metric::Retries,
        Metric::Aborts,
        Metric::Failovers,
        Metric::BreakerOpens,
        Metric::StallsDetected,
        Metric::ReplayedRequests,
        Metric::ThrottleApplied,
    ];
    let mut line = String::from("counters:");
    for m in interesting {
        let _ = write!(line, " {}={}", m.name(), bundle.counters[m as usize]);
    }
    let _ = writeln!(out, "{line}");

    let _ = writeln!(out, "timeline:");
    for e in &bundle.timeline {
        let _ = write!(out, "  {:>10.3} ms  ", ms(e.at));
        match &e.kind {
            BoxKind::Trace(t) => {
                let _ = write!(
                    out,
                    "{} vm {} vsq {} tag {} gen {} (shard {})",
                    t.stage.name(),
                    t.vm,
                    t.vsq,
                    t.tag,
                    t.gen,
                    t.worker
                );
                if t.link_gen != 0 {
                    let _ = write!(out, " -> tag {} gen {}", t.link_tag, t.link_gen);
                }
            }
            BoxKind::Stalled {
                worker,
                vm,
                vsq,
                open,
                oldest_age_ns,
            } => {
                let _ = write!(
                    out,
                    "STALL shard {worker} vm {vm} vsq {vsq}: {open} open, oldest {:.3} ms",
                    ms(*oldest_age_ns)
                );
            }
            BoxKind::Recovered { worker, vm, vsq } => {
                let _ = write!(out, "recovered shard {worker} vm {vm} vsq {vsq}");
            }
            BoxKind::BreakerFlap { opens } => {
                let _ = write!(out, "breaker flapping ({opens} opens in window)");
            }
            BoxKind::SloBurn {
                route,
                burn_permille,
            } => {
                let _ = write!(
                    out,
                    "SLO burn on {}: {:.2}x budget",
                    route.name(),
                    *burn_permille as f64 / 1000.0
                );
            }
            BoxKind::Throttle {
                tenant,
                permille,
                tighten,
            } => {
                let _ = write!(
                    out,
                    "{} tenant {tenant} to {permille}‰",
                    if *tighten { "tighten" } else { "relax" }
                );
            }
            BoxKind::Servicing { op, count } => {
                let _ = write!(out, "servicing: {} x{count}", op.name());
            }
            BoxKind::Checkpoint { deltas } => {
                let _ = write!(out, "checkpoint:");
                for (m, d) in deltas {
                    let _ = write!(out, " +{} {d}", m.name());
                }
            }
            BoxKind::Trigger(_) => {
                let _ = write!(out, "TRIGGER fired");
            }
        }
        out.push('\n');
    }

    if bundle.residue.is_empty() {
        let _ = writeln!(out, "residue: none (no requests in flight at dump)");
    } else {
        let _ = writeln!(
            out,
            "residue ({} requests in flight):",
            bundle.residue.len()
        );
        for s in &bundle.residue {
            let _ = writeln!(
                out,
                "  shard {} vm {} vsq {} tag {} gen {}: open since {:.3} ms, \
                 age {:.3} ms, last stage {}",
                s.shard,
                s.vm,
                s.vsq,
                s.tag,
                s.gen,
                ms(s.start_ns),
                ms(bundle.at.saturating_sub(s.start_ns)),
                s.last_stage.name()
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DumpBundle {
        let mut counters = [0u64; Metric::COUNT];
        counters[Metric::Accepted as usize] = 100;
        counters[Metric::Completed as usize] = 97;
        counters[Metric::Aborts as usize] = 3;
        DumpBundle {
            reason: TriggerReason::StallPersisted {
                worker: 1,
                vm: 3,
                vsq: 0,
                ticks: 4,
                since: 12_000_000,
            },
            at: 14_000_000,
            window_ns: 10_000_000,
            evicted: 7,
            timeline: vec![
                BoxEvent {
                    at: 12_000_000,
                    kind: BoxKind::Checkpoint {
                        deltas: vec![(Metric::Accepted, 50), (Metric::Completed, 49)],
                    },
                },
                BoxEvent {
                    at: 12_100_000,
                    kind: BoxKind::Trace(TraceEvent {
                        ts_ns: 12_100_000,
                        vm: 3,
                        vsq: 0,
                        tag: 17,
                        gen: 4,
                        worker: 1,
                        stage: Stage::Abort,
                        path: PathKind::None,
                        link_tag: 0,
                        link_gen: 0,
                    }),
                },
                BoxEvent {
                    at: 12_500_000,
                    kind: BoxKind::Stalled {
                        worker: 1,
                        vm: 3,
                        vsq: 0,
                        open: 5,
                        oldest_age_ns: 900_000,
                    },
                },
                BoxEvent {
                    at: 13_000_000,
                    kind: BoxKind::Throttle {
                        tenant: 3,
                        permille: 500,
                        tighten: true,
                    },
                },
                BoxEvent {
                    at: 13_500_000,
                    kind: BoxKind::Servicing {
                        op: ServicingOp::Snapshot,
                        count: 1,
                    },
                },
                BoxEvent {
                    at: 14_000_000,
                    kind: BoxKind::Trigger(TriggerReason::StallPersisted {
                        worker: 1,
                        vm: 3,
                        vsq: 0,
                        ticks: 4,
                        since: 12_000_000,
                    }),
                },
            ],
            counters,
            gauges: Some(EngineGauges {
                poll_modes: vec!["spin", "parked"],
                batch_sizes: vec![8, 32],
                shard_cores: vec![0, 1],
                occupancy: 5,
                high_water: 61,
                tenants: vec![TenantGauge {
                    shard: 1,
                    tenant: 3,
                    throttle_permille: 500,
                    deficit: 2,
                    admitted: 40,
                    throttled: 6,
                }],
                breakers: vec![BreakerGauge {
                    shard: 1,
                    vm: 3,
                    open: true,
                    opens: 2,
                }],
            }),
            policy: Some(PolicySummary {
                poll: "adaptive(idle_spin=5000ns, park_after=50000ns)".into(),
                batch: "auto(4..256)".into(),
                placement: "round_robin".into(),
                workers: 1,
            }),
            residue: vec![ResidueSpan {
                shard: 1,
                vm: 3,
                vsq: 0,
                tag: 17,
                gen: 4,
                start_ns: 11_900_000,
                last_ns: 12_100_000,
                last_stage: Stage::Abort,
            }],
        }
    }

    #[test]
    fn bundle_round_trips_through_bytes() {
        let b = sample();
        let bytes = b.to_bytes();
        assert_eq!(&bytes[..4], b"NVBB");
        let back = DumpBundle::from_bytes(&bytes).expect("round trip");
        assert_eq!(back, b);
    }

    #[test]
    fn corruption_is_detected() {
        let b = sample();
        let bytes = b.to_bytes();
        assert_eq!(
            DumpBundle::from_bytes(&bytes[..10]),
            Err(BundleError::Truncated)
        );
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(DumpBundle::from_bytes(&bad), Err(BundleError::BadMagic));
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0xff;
        assert_eq!(
            DumpBundle::from_bytes(&flipped),
            Err(BundleError::BadChecksum)
        );
        // A version we don't understand — a future one, or v1 with its old
        // metric numbering — is refused, not guessed at (the checksum must
        // be re-stamped for the version check to be reached).
        for version in [9u8, 1] {
            let mut other = bytes.clone();
            other[4] = version;
            let n = other.len() - 8;
            let sum = fnv1a(&other[..n]);
            other[n..].copy_from_slice(&sum.to_le_bytes());
            assert_eq!(
                DumpBundle::from_bytes(&other),
                Err(BundleError::BadVersion(version as u16))
            );
        }
    }

    #[test]
    fn json_rendering_is_valid() {
        let json = sample().to_json();
        nvmetro_insight::validate_json(&json).expect("valid JSON");
        assert!(json.contains("\"stall_persisted\""));
        assert!(json.contains("\"checkpoint\""));
        assert!(json.contains("\"residue\""));
    }

    #[test]
    fn report_names_fault_site_and_window() {
        let text = report(&sample());
        assert!(text.contains("shard 1 vm 3 vsq 0"));
        assert!(text.contains("fault site: shard 1 vm 3 vsq 0"));
        assert!(text.contains("window 12.000..14.000 ms"));
        assert!(text.contains("STALL"));
        assert!(text.contains("residue"));
        assert!(text.contains("tag 17 gen 4"));
    }
}
