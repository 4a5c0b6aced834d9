//! Trace event schema: what happened to a request, where, and when.
//!
//! Every instrumentation point in the datapath emits one fixed-size
//! [`TraceEvent`]. Events are correlated by `(vm, vsq, tag)` — the router's
//! routing-table tag is carried as the command CID on every internal queue,
//! so the same triple identifies one request from VSQ fetch to VCQ
//! completion. Components below the router (device, kernel stack, UIF) only
//! see the tag; they emit events with `vm == VM_ANY` and the snapshot's
//! lifecycle reassembly matches them to the owning request by tag within
//! the request's accept..complete time window.

/// Nanosecond timestamp. Virtual-time runs pass the DES clock's `now`;
/// real-thread runs pass an OS monotonic clock reading. The subsystem never
/// reads a clock itself, so both modes trace identically.
pub type Ns = u64;

/// Sentinel VM id for events emitted below the router, where only the
/// routing tag is known.
pub const VM_ANY: u32 = u32::MAX;

/// Lifecycle stage a request has reached when an event is emitted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Stage {
    /// The router popped the command from a guest VSQ.
    VsqFetch = 0,
    /// A classifier returned a verdict at some hook.
    Classified = 1,
    /// The command was sent down a path (one event per path bit).
    Dispatched = 2,
    /// The physical device posted the command's completion.
    DeviceService = 3,
    /// The kernel block/DM stack completed the command.
    KernelService = 4,
    /// A userspace I/O function handled the notify-path request.
    UifService = 5,
    /// A path completion re-entered a classifier hook.
    HookReentry = 6,
    /// The CQE was posted to the guest VCQ.
    VcqComplete = 7,
    /// The router aborted the command after its deadline expired.
    Abort = 8,
    /// The router re-dispatched the command after a retryable failure.
    Retry = 9,
    /// The breaker diverted a fast-path send to the kernel path.
    Failover = 10,
    /// The request was re-dispatched on a fresh engine after a
    /// snapshot/restore or reshard (servicing replay, new generation).
    Replayed = 11,
    /// A shard's poll governor parked it (event-driven sleep, ~0 CPU).
    /// Shard lifecycle, not request lifecycle: emitted with `VM_ANY` and
    /// tag 0, never matched to a span.
    ShardPark = 12,
    /// A parked shard was kicked awake; the gap to the preceding
    /// [`Stage::ShardPark`] plus the wakeup latency is what insight
    /// attributes to adaptive polling.
    ShardWake = 13,
    /// Causal link: a coalescing follower's completion was fanned out
    /// from a leader's terminal completion. Emitted on the *follower's*
    /// identity with `link_tag`/`link_gen` naming the leader request on
    /// the same worker; insight's trace forest stitches the two spans
    /// into one logical tree.
    LinkFanout = 14,
}

impl Stage {
    /// All stages, in lifecycle order (recovery stages last).
    pub const ALL: [Stage; 15] = [
        Stage::VsqFetch,
        Stage::Classified,
        Stage::Dispatched,
        Stage::DeviceService,
        Stage::KernelService,
        Stage::UifService,
        Stage::HookReentry,
        Stage::VcqComplete,
        Stage::Abort,
        Stage::Retry,
        Stage::Failover,
        Stage::Replayed,
        Stage::ShardPark,
        Stage::ShardWake,
        Stage::LinkFanout,
    ];

    /// Stable lowercase name for tables and JSON export.
    pub fn name(&self) -> &'static str {
        match self {
            Stage::VsqFetch => "vsq_fetch",
            Stage::Classified => "classified",
            Stage::Dispatched => "dispatched",
            Stage::DeviceService => "device_service",
            Stage::KernelService => "kernel_service",
            Stage::UifService => "uif_service",
            Stage::HookReentry => "hook_reentry",
            Stage::VcqComplete => "vcq_complete",
            Stage::Abort => "abort",
            Stage::Retry => "retry",
            Stage::Failover => "failover",
            Stage::Replayed => "replayed",
            Stage::ShardPark => "shard_park",
            Stage::ShardWake => "shard_wake",
            Stage::LinkFanout => "link_fanout",
        }
    }
}

/// Which datapath a stage refers to (for `Dispatched`/service/re-entry
/// events); `None` for path-agnostic stages.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum PathKind {
    /// Not tied to a specific path.
    None = 0,
    /// Fast path: hardware queue straight to the device.
    Fast = 1,
    /// Kernel path: host block layer / device mapper.
    Kernel = 2,
    /// Notify path: userspace I/O function over NSQ/NCQ.
    Notify = 3,
}

impl PathKind {
    /// Stable lowercase name for tables and JSON export.
    pub fn name(&self) -> &'static str {
        match self {
            PathKind::None => "-",
            PathKind::Fast => "fast",
            PathKind::Kernel => "kernel",
            PathKind::Notify => "notify",
        }
    }
}

/// The route a completed request is attributed to for latency accounting:
/// the "heaviest" path it touched (notify > kernel > fast).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Route {
    /// Device hardware queues only.
    Fast = 0,
    /// Touched the kernel path.
    Kernel = 1,
    /// Touched the notify path (UIF).
    Notify = 2,
}

impl Route {
    /// Number of routes.
    pub const COUNT: usize = 3;
    /// All routes in index order.
    pub const ALL: [Route; 3] = [Route::Fast, Route::Kernel, Route::Notify];

    /// Stable lowercase name for tables and JSON export.
    pub fn name(&self) -> &'static str {
        match self {
            Route::Fast => "fast",
            Route::Kernel => "kernel",
            Route::Notify => "notify",
        }
    }
}

/// Stage-to-stage segment of a request's lifetime, each with its own
/// duration histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Segment {
    /// VSQ fetch (+classification) until the first path dispatch.
    IngressToDispatch = 0,
    /// First dispatch until the last path reported service done.
    DispatchToService = 1,
    /// Last service completion until the CQE hit the VCQ.
    ServiceToComplete = 2,
    /// First observed fault (error status, deadline expiry) until the
    /// request finally completed — the recovery latency.
    FaultToRecovery = 3,
}

impl Segment {
    /// Number of segments.
    pub const COUNT: usize = 4;
    /// All segments in lifecycle order.
    pub const ALL: [Segment; 4] = [
        Segment::IngressToDispatch,
        Segment::DispatchToService,
        Segment::ServiceToComplete,
        Segment::FaultToRecovery,
    ];

    /// Stable lowercase name for tables and JSON export.
    pub fn name(&self) -> &'static str {
        match self {
            Segment::IngressToDispatch => "ingress_to_dispatch",
            Segment::DispatchToService => "dispatch_to_service",
            Segment::ServiceToComplete => "service_to_complete",
            Segment::FaultToRecovery => "fault_to_recovery",
        }
    }
}

/// Occupancy-style distributions recorded by the datapath: how deep a
/// queue was when it was visited, how many entries a batch carried. Unlike
/// [`Segment`] these are counts, not durations, but they share the same
/// per-shard histogram machinery.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Depth {
    /// Entries drained from one VSQ in one visit (≤ the shard's batch).
    SqBurst = 0,
    /// CQEs posted to guest VCQs per coalesced flush (per doorbell ring).
    CqBatch = 1,
    /// Routing-table occupancy sampled after each ingest pass.
    TableOccupancy = 2,
    /// Requests admitted for one tenant in one fleet-scheduler visit
    /// (the realised per-round share under DRR + token buckets).
    TenantServed = 3,
}

impl Depth {
    /// Number of depth series.
    pub const COUNT: usize = 4;
    /// All depth series in index order.
    pub const ALL: [Depth; 4] = [
        Depth::SqBurst,
        Depth::CqBatch,
        Depth::TableOccupancy,
        Depth::TenantServed,
    ];

    /// Stable lowercase name for tables and JSON export.
    pub fn name(&self) -> &'static str {
        match self {
            Depth::SqBurst => "sq_burst",
            Depth::CqBatch => "cq_batch",
            Depth::TableOccupancy => "table_occupancy",
            Depth::TenantServed => "tenant_served",
        }
    }
}

/// One fixed-size trace record. 24 bytes; the ring stores these by value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// When the stage was reached (virtual or OS nanoseconds).
    pub ts_ns: Ns,
    /// Owning VM id, or [`VM_ANY`] below the router.
    pub vm: u32,
    /// Virtual submission queue index within the VM (0 below the router).
    pub vsq: u16,
    /// Router routing-table tag (carried as CID on internal queues).
    pub tag: u16,
    /// Registration index of the worker whose ring holds this event
    /// (stamped by the handle; identifies the shard for router events).
    pub worker: u16,
    /// Request generation: disambiguates reuse of the same routing-table
    /// tag across requests. Router-side events carry a nonzero value
    /// derived from the request's per-router sequence number; `0` means
    /// "unknown" (below-router emitters only see the tag).
    pub gen: u8,
    /// Lifecycle stage reached.
    pub stage: Stage,
    /// Path the stage refers to, if any.
    pub path: PathKind,
    /// Causal link: the routing-table tag of a *related* request this
    /// event points at (the coalesce leader for [`Stage::LinkFanout`],
    /// the pre-snapshot predecessor for [`Stage::Replayed`]). `0` with
    /// `link_gen == 0` means "no link".
    pub link_tag: u16,
    /// Generation of the linked request (disambiguates `link_tag` reuse,
    /// same encoding as `gen`). `0` means "no link".
    pub link_gen: u8,
}

impl Default for TraceEvent {
    fn default() -> Self {
        TraceEvent {
            ts_ns: 0,
            vm: VM_ANY,
            vsq: 0,
            tag: 0,
            worker: 0,
            gen: 0,
            stage: Stage::VsqFetch,
            path: PathKind::None,
            link_tag: 0,
            link_gen: 0,
        }
    }
}
