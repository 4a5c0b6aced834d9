//! NVMetro core — the paper's primary contribution.
//!
//! NVMetro presents itself to each VM as a virtual NVMe controller and
//! routes every guest I/O request over one of three paths (§III):
//!
//! * the **fast path** straight to the physical device's host queues
//!   (HSQ/HCQ),
//! * the **kernel path** through the host's block/device-mapper stack, and
//! * the **notify path** to a userspace I/O function (UIF) over notify
//!   queues (NSQ/NCQ).
//!
//! Path selection is made per request — possibly several times during the
//! request's lifetime — by a sandboxed [classifier](classify) (eBPF in the
//! paper, [`nvmetro-vbpf`](nvmetro_vbpf) here) invoked by the
//! [I/O router](router) at hook points. The router tracks each in-flight
//! request in a [routing table](routing), supports multicast to several
//! targets, and performs direct mediation (classifier-driven command
//! rewriting such as LBA translation) with partition bounds enforced by the
//! router itself.
//!
//! The [`uif`] module is the userspace-I/O-function framework of §III-D:
//! notify-queue polling with adaptive backoff, NVMe command parsing, guest
//! data-page access, and an io_uring-style asynchronous backend for UIFs
//! that issue their own disk I/O.
//!
//! Components are poll-driven [`nvmetro_sim::Actor`]s: the same router and
//! UIF run under the virtual-time executor (benchmarks) and on real OS
//! threads ([`threading`], used by the examples).

pub mod adaptive;
pub mod classify;
pub mod controller;
pub mod engine;
pub mod guest;
pub mod policy;
pub mod recovery;
pub mod router;
pub mod routing;
pub mod servicing;
pub mod threading;
pub mod uif;

pub use adaptive::{GovernorCounters, PollGovernor, PollMode};
pub use classify::{
    offset_program, partition_offset_program, passthrough_program, Classifier, ClassifyOutcome,
    MediatedFields, NativeClassifier, RequestCtx, Verdict, CTX_SIZE, HOOK_HCQ, HOOK_KCQ, HOOK_NCQ,
    HOOK_VSQ,
};
pub use controller::{Partition, VirtualController, VmConfig};
pub use engine::{
    BreakerState, Engine, EngineParts, EngineStats, EngineVm, Placement, QueueBinding,
    RouterBuilder, TenantState,
};
pub use guest::{GuestDriver, GuestError, GuestInfo};
pub use policy::{EnginePolicy, PollPolicy};
pub use recovery::{BreakerSnap, CircuitBreaker, Gate, RecoveryConfig};
pub use router::{KernelPath, Router, RouterStats, ShardSnapshot, VmBinding};
pub use routing::RoutingTable;
pub use servicing::{
    SavedBreaker, SavedCqe, SavedGroup, SavedRequest, SavedRetry, SavedTenant, ServiceError,
    ServiceState, SERVICE_MAGIC, SERVICE_VERSION,
};
pub use uif::{Uif, UifDisposition, UifIoHandle, UifRequest, UifRunner};
