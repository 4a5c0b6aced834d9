//! Sharded lock-free metric counters.
//!
//! Each registered worker gets its own cacheline-padded cell of relaxed
//! atomics, so hot-path increments never bounce a line between cores; the
//! snapshot path sums across shards. Latency histograms live behind a
//! per-shard mutex that is uncontended on the hot path (only that worker
//! records into it) and is taken across shards only at snapshot time.

use crate::event::{Depth, Route, Segment};
use nvmetro_stats::Histogram;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Every counter the datapath exports, one fixed slot per variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Metric {
    /// Commands accepted from guest VSQs.
    Accepted = 0,
    /// Classifier program executions (all hooks).
    ClassifierRuns = 1,
    /// Commands sent to the device hardware queue.
    SentFast = 2,
    /// Commands sent to the kernel path.
    SentKernel = 3,
    /// Commands sent to the notify path.
    SentNotify = 4,
    /// Commands sent to more than one path at once.
    Multicasts = 5,
    /// CQEs posted back to guest VCQs.
    Completed = 6,
    /// Requests completed with an error status.
    Errors = 7,
    /// Spurious/unmatched completions observed.
    Spurious = 8,
    /// I/Os the physical device serviced.
    DeviceIos = 9,
    /// I/Os the kernel block/DM stack serviced.
    KernelIos = 10,
    /// Notify-path requests handed to a UIF.
    UifRequests = 11,
    /// UIF responses returned over the NCQ.
    UifResponses = 12,
    /// Backend I/Os issued by UIFs.
    UifBackendIos = 13,
    /// Completions that re-entered a classifier hook.
    HookReentries = 14,
    /// Admin commands served by a virtual controller.
    AdminCmds = 15,
    /// Encrypt/decrypt operations performed by the encryption function.
    CryptoOps = 16,
    /// Writes the replication function forwarded to the secondary.
    ReplicaWrites = 17,
    /// Faults injected by an active fault plan (all sites).
    FaultsInjected = 18,
    /// Commands re-dispatched by the router after a retryable failure.
    Retries = 19,
    /// Commands aborted by the router after missing their deadline.
    Aborts = 20,
    /// Fast-path commands failed over to the kernel path by the breaker.
    Failovers = 21,
    /// Completions dropped from the bounded VCQ retry buffer.
    VcqRetryDrops = 22,
    /// Completions that arrived after their command was aborted.
    LateCompletions = 23,
    /// Times the replicator entered degraded mode (leg down).
    DegradedEnters = 24,
    /// Times the replicator exited degraded mode (resync drained).
    DegradedExits = 25,
    /// Dirty regions replayed to a recovered replica leg.
    ResyncWrites = 26,
    /// Guest doorbell notifies issued for coalesced VCQ flushes (one per
    /// (vm, vsq) group per flush, however many CQEs the flush carried).
    CqNotifies = 27,
    /// Coalesced VCQ flushes performed (one per poll that posted CQEs).
    CqBatches = 28,
    /// Retired: counted classifier invocations per vbpf engine, and vbpf
    /// has one engine now, so nothing increments it. The ID stays because
    /// NVBB lays the counter block out by [`Metric`] index.
    ClassifierInterp = 29,
    /// Retired with [`Metric::ClassifierInterp`].
    ClassifierCompiled = 30,
    /// Circuit-breaker transitions into the Open state.
    BreakerOpens = 31,
    /// Stall-watchdog observation ticks performed.
    WatchdogTicks = 32,
    /// Queues the watchdog flagged as stalled (nonempty, no progress).
    StallsDetected = 33,
    /// Stalled queues the watchdog later observed making progress again.
    StallsCleared = 34,
    /// Breaker flap episodes (repeated opens within adjacent watchdog
    /// windows) flagged by the watchdog.
    BreakerFlaps = 35,
    /// Completed requests that exceeded their route's SLO objective.
    SloViolations = 36,
    /// Duplicate cross-VM reads parked as coalescing followers instead of
    /// being dispatched to the device.
    CoalescedReads = 37,
    /// Follower completions fanned out from a coalescing leader's
    /// terminal completion.
    CoalesceFanout = 38,
    /// Admissions the fleet scheduler denied because the tenant's token
    /// bucket was empty (throttle applied to the tenant's traffic —
    /// including buckets tightened by the insight feedback loop).
    ThrottleApplied = 39,
    /// Tenant drain-loop preemptions: the fleet scheduler cut a tenant's
    /// round short because its DRR deficit ran dry with work still queued.
    SchedulerPreemptions = 40,
    /// Live-servicing snapshots taken of a quiesced engine.
    SnapshotsTaken = 41,
    /// Engines restored from a servicing snapshot.
    Restores = 42,
    /// Online reshard operations (shard count changed under load).
    Reshards = 43,
    /// Unanswered in-flight requests re-dispatched on a restored engine.
    ReplayedRequests = 44,
    /// Completions from a pre-snapshot engine generation dropped at the
    /// quarantine instead of re-entering a live request's state machine.
    EpochLateDrops = 45,
    /// VMs hot-attached to a running engine.
    VmAttaches = 46,
    /// VMs hot-detached from a running engine.
    VmDetaches = 47,
    /// Poll-governor mode changes (Spin→Yield, Yield→Parked, any wake).
    PollModeTransitions = 48,
    /// Shards entering Parked (event-driven sleep, ~0 CPU).
    ShardParks = 49,
    /// Parked shards kicked awake (doorbell/notify or internal timer).
    ShardWakes = 50,
    /// Retired: counted batch auto-tuner moves, and the auto-tuner is
    /// gone, so nothing increments it. It stays as the last ID because
    /// [`Metric::COUNT`] sizes the NVBB counter block.
    BatchRetunes = 51,
}

impl Metric {
    /// Number of metric slots.
    pub const COUNT: usize = 52;

    /// All metrics in slot order.
    pub const ALL: [Metric; Metric::COUNT] = [
        Metric::Accepted,
        Metric::ClassifierRuns,
        Metric::SentFast,
        Metric::SentKernel,
        Metric::SentNotify,
        Metric::Multicasts,
        Metric::Completed,
        Metric::Errors,
        Metric::Spurious,
        Metric::DeviceIos,
        Metric::KernelIos,
        Metric::UifRequests,
        Metric::UifResponses,
        Metric::UifBackendIos,
        Metric::HookReentries,
        Metric::AdminCmds,
        Metric::CryptoOps,
        Metric::ReplicaWrites,
        Metric::FaultsInjected,
        Metric::Retries,
        Metric::Aborts,
        Metric::Failovers,
        Metric::VcqRetryDrops,
        Metric::LateCompletions,
        Metric::DegradedEnters,
        Metric::DegradedExits,
        Metric::ResyncWrites,
        Metric::CqNotifies,
        Metric::CqBatches,
        Metric::ClassifierInterp,
        Metric::ClassifierCompiled,
        Metric::BreakerOpens,
        Metric::WatchdogTicks,
        Metric::StallsDetected,
        Metric::StallsCleared,
        Metric::BreakerFlaps,
        Metric::SloViolations,
        Metric::CoalescedReads,
        Metric::CoalesceFanout,
        Metric::ThrottleApplied,
        Metric::SchedulerPreemptions,
        Metric::SnapshotsTaken,
        Metric::Restores,
        Metric::Reshards,
        Metric::ReplayedRequests,
        Metric::EpochLateDrops,
        Metric::VmAttaches,
        Metric::VmDetaches,
        Metric::PollModeTransitions,
        Metric::ShardParks,
        Metric::ShardWakes,
        Metric::BatchRetunes,
    ];

    /// Stable snake_case name for tables and JSON export.
    pub fn name(&self) -> &'static str {
        match self {
            Metric::Accepted => "accepted",
            Metric::ClassifierRuns => "classifier_runs",
            Metric::SentFast => "sent_fast",
            Metric::SentKernel => "sent_kernel",
            Metric::SentNotify => "sent_notify",
            Metric::Multicasts => "multicasts",
            Metric::Completed => "completed",
            Metric::Errors => "errors",
            Metric::Spurious => "spurious",
            Metric::DeviceIos => "device_ios",
            Metric::KernelIos => "kernel_ios",
            Metric::UifRequests => "uif_requests",
            Metric::UifResponses => "uif_responses",
            Metric::UifBackendIos => "uif_backend_ios",
            Metric::HookReentries => "hook_reentries",
            Metric::AdminCmds => "admin_cmds",
            Metric::CryptoOps => "crypto_ops",
            Metric::ReplicaWrites => "replica_writes",
            Metric::FaultsInjected => "faults_injected",
            Metric::Retries => "retries",
            Metric::Aborts => "aborts",
            Metric::Failovers => "failovers",
            Metric::VcqRetryDrops => "vcq_retry_drops",
            Metric::LateCompletions => "late_completions",
            Metric::DegradedEnters => "degraded_enters",
            Metric::DegradedExits => "degraded_exits",
            Metric::ResyncWrites => "resync_writes",
            Metric::CqNotifies => "cq_notifies",
            Metric::CqBatches => "cq_batches",
            Metric::ClassifierInterp => "classifier_interp",
            Metric::ClassifierCompiled => "classifier_compiled",
            Metric::BreakerOpens => "breaker_opens",
            Metric::WatchdogTicks => "watchdog_ticks",
            Metric::StallsDetected => "stalls_detected",
            Metric::StallsCleared => "stalls_cleared",
            Metric::BreakerFlaps => "breaker_flaps",
            Metric::SloViolations => "slo_violations",
            Metric::CoalescedReads => "coalesced_reads",
            Metric::CoalesceFanout => "coalesce_fanout",
            Metric::ThrottleApplied => "throttle_applied",
            Metric::SchedulerPreemptions => "scheduler_preemptions",
            Metric::SnapshotsTaken => "snapshots_taken",
            Metric::Restores => "restores",
            Metric::Reshards => "reshards",
            Metric::ReplayedRequests => "replayed_requests",
            Metric::EpochLateDrops => "epoch_late_drops",
            Metric::VmAttaches => "vm_attaches",
            Metric::VmDetaches => "vm_detaches",
            Metric::PollModeTransitions => "poll_mode_transitions",
            Metric::ShardParks => "shard_parks",
            Metric::ShardWakes => "shard_wakes",
            Metric::BatchRetunes => "batch_retunes",
        }
    }
}

pub(crate) struct ShardHists {
    pub route: [Histogram; Route::COUNT],
    pub segment: [Histogram; Segment::COUNT],
    pub depth: [Histogram; Depth::COUNT],
}

impl ShardHists {
    fn new() -> Self {
        ShardHists {
            route: std::array::from_fn(|_| Histogram::new()),
            segment: std::array::from_fn(|_| Histogram::new()),
            depth: std::array::from_fn(|_| Histogram::new()),
        }
    }
}

/// One worker's private metric cell. Aligned out to its own cache line so
/// two workers' relaxed increments never share a line.
#[repr(align(128))]
pub(crate) struct Shard {
    counters: [AtomicU64; Metric::COUNT],
    hists: Mutex<ShardHists>,
}

impl Shard {
    pub(crate) fn new() -> Self {
        Shard {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            hists: Mutex::new(ShardHists::new()),
        }
    }

    #[inline]
    pub(crate) fn add(&self, m: Metric, n: u64) {
        self.counters[m as usize].fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_route(&self, route: Route, ns: u64) {
        self.hists.lock().unwrap().route[route as usize].record(ns);
    }

    #[inline]
    pub(crate) fn record_segment(&self, seg: Segment, ns: u64) {
        self.hists.lock().unwrap().segment[seg as usize].record(ns);
    }

    #[inline]
    pub(crate) fn record_depth(&self, d: Depth, value: u64) {
        self.hists.lock().unwrap().depth[d as usize].record(value);
    }

    pub(crate) fn counter(&self, m: Metric) -> u64 {
        self.counters[m as usize].load(Ordering::Relaxed)
    }

    pub(crate) fn merge_hists_into(
        &self,
        route: &mut [Histogram; Route::COUNT],
        segment: &mut [Histogram; Segment::COUNT],
        depth: &mut [Histogram; Depth::COUNT],
    ) {
        let h = self.hists.lock().unwrap();
        for (dst, src) in route.iter_mut().zip(h.route.iter()) {
            dst.merge(src);
        }
        for (dst, src) in segment.iter_mut().zip(h.segment.iter()) {
            dst.merge(src);
        }
        for (dst, src) in depth.iter_mut().zip(h.depth.iter()) {
            dst.merge(src);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_counts_and_reads_back() {
        let s = Shard::new();
        s.add(Metric::Accepted, 3);
        s.add(Metric::Accepted, 2);
        s.add(Metric::Errors, 1);
        assert_eq!(s.counter(Metric::Accepted), 5);
        assert_eq!(s.counter(Metric::Errors), 1);
        assert_eq!(s.counter(Metric::Completed), 0);
    }

    #[test]
    fn shard_is_cacheline_padded() {
        assert_eq!(std::mem::align_of::<Shard>(), 128);
    }

    #[test]
    fn histograms_merge_across_shards() {
        let a = Shard::new();
        let b = Shard::new();
        a.record_route(Route::Fast, 100);
        b.record_route(Route::Fast, 300);
        b.record_segment(Segment::DispatchToService, 50);
        a.record_depth(Depth::CqBatch, 4);
        let mut route: [Histogram; Route::COUNT] = std::array::from_fn(|_| Histogram::new());
        let mut seg: [Histogram; Segment::COUNT] = std::array::from_fn(|_| Histogram::new());
        let mut depth: [Histogram; Depth::COUNT] = std::array::from_fn(|_| Histogram::new());
        a.merge_hists_into(&mut route, &mut seg, &mut depth);
        b.merge_hists_into(&mut route, &mut seg, &mut depth);
        assert_eq!(route[Route::Fast as usize].count(), 2);
        assert_eq!(route[Route::Fast as usize].min(), 100);
        assert_eq!(seg[Segment::DispatchToService as usize].count(), 1);
        assert_eq!(depth[Depth::CqBatch as usize].max(), 4);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = Metric::ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Metric::COUNT);
    }
}
