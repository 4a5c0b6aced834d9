//! # nvmetro-telemetry
//!
//! Unified request-lifecycle tracing and metrics for the NVMetro datapath.
//!
//! The paper's claims are statements about *where time and CPU go* as a
//! request moves VSQ → classifier → {fast, kernel, notify} path → VCQ.
//! This crate makes that visible without slowing the path down:
//!
//! * **Lifecycle tracing** — every stage emits a fixed-size [`TraceEvent`]
//!   into a lock-free ring ([`TraceRing`]); a request's journey is
//!   reassembled from the ring by `(vm, vsq, tag)`.
//! * **Sharded metrics** — each worker registers for its own
//!   cacheline-padded cell of relaxed atomic counters ([`Metric`]),
//!   summed only at snapshot time.
//! * **Latency histograms** — VSQ→VCQ latency split by [`Route`] and
//!   stage-segment durations ([`Segment`]), merged across shards with
//!   `Histogram::merge`.
//! * **Snapshots** — [`TelemetrySnapshot`] renders as a human table, CSV,
//!   or JSON.
//!
//! ## Clock discipline
//!
//! The subsystem never reads a clock. Every instrumentation point takes an
//! explicit nanosecond timestamp, so virtual-time runs pass the DES `now`
//! and real-thread runs pass an OS monotonic reading — tracing behaves
//! identically in both modes.
//!
//! ## Cost when disabled
//!
//! [`Telemetry::disabled`] (the default everywhere) hands out handles whose
//! instrumentation methods are a single `Option` branch — no atomics, no
//! allocation, no clock reads. `benchmark/` records both paths
//! (`telemetry.emit_disabled_ns` and `telemetry.emit_ns`).

mod event;
mod metrics;
pub mod percentile;
mod ring;
mod snapshot;

pub use event::{Depth, Ns, PathKind, Route, Segment, Stage, TraceEvent, VM_ANY};
pub use metrics::Metric;
pub use percentile::Percentiles;
pub use ring::TraceRing;
pub use snapshot::{lifecycle_table, RequestKey, TelemetrySnapshot};

use metrics::Shard;
use nvmetro_stats::Histogram;
use std::sync::{Arc, Mutex};

/// Registry configuration.
#[derive(Clone, Copy, Debug)]
pub struct TelemetryConfig {
    /// Per-worker trace-ring capacity in events (rounded up to a power of
    /// two). Every registered worker gets its own ring of this size.
    pub trace_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            trace_capacity: 4096,
        }
    }
}

struct Worker {
    name: String,
    ring: Arc<TraceRing>,
    shard: Arc<Shard>,
}

struct Inner {
    workers: Mutex<Vec<Worker>>,
    ring_capacity: usize,
}

/// A reader's position across every worker's trace ring, for incremental
/// [`Telemetry::drain`]. Create with [`Telemetry::cursor`]; one cursor per
/// consumer (the watchdog owns one, an exporter another). Grows lazily as
/// workers register after the cursor was created.
#[derive(Clone, Debug, Default)]
pub struct TraceCursor {
    next: Vec<u64>,
}

impl TraceCursor {
    /// Total tickets this cursor has moved past across all rings (drained
    /// or counted missed). Equals [`Telemetry::recorded_total`] exactly
    /// when nothing new has been published since the last drain.
    pub fn consumed(&self) -> u64 {
        self.next.iter().sum()
    }
}

/// The telemetry registry. Clone-able; all clones share the same ring and
/// shard list. A disabled registry (the default) costs nothing.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Telemetry {
    /// A registry that records nothing; its handles compile down to one
    /// branch per instrumentation call.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// An enabled registry with the default configuration.
    pub fn enabled() -> Self {
        Self::with_config(TelemetryConfig::default())
    }

    /// An enabled registry with an explicit configuration.
    pub fn with_config(cfg: TelemetryConfig) -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                workers: Mutex::new(Vec::new()),
                ring_capacity: cfg.trace_capacity,
            })),
        }
    }

    /// Whether this registry records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Registers one anonymous worker; see [`Telemetry::register_worker_named`].
    pub fn register_worker(&self) -> TelemetryHandle {
        self.register_worker_named("worker")
    }

    /// Registers one worker (router shard, device, UIF runner, ...) and
    /// returns its private handle: a cacheline-padded counter shard plus a
    /// private trace ring, so hot-path pushes never contend across workers.
    /// The worker's registration index is stamped into every event it
    /// emits (`TraceEvent::worker`), and `name` labels it in snapshots and
    /// trace exports. On a disabled registry this returns a disabled
    /// handle. Registration is cold-path; call it at rig-build time.
    pub fn register_worker_named(&self, name: &str) -> TelemetryHandle {
        match &self.inner {
            None => TelemetryHandle::disabled(),
            Some(inner) => {
                let shard = Arc::new(Shard::new());
                let ring = Arc::new(TraceRing::new(inner.ring_capacity));
                let mut workers = inner.workers.lock().unwrap();
                let id = workers.len() as u16;
                workers.push(Worker {
                    name: name.to_string(),
                    ring: ring.clone(),
                    shard: shard.clone(),
                });
                TelemetryHandle {
                    shard: Some(shard),
                    ring: Some(ring),
                    worker: id,
                }
            }
        }
    }

    /// Sums every counter across all shards without touching histograms or
    /// rings — cheap enough for a periodic observer to call every tick.
    pub fn counters(&self) -> [u64; Metric::COUNT] {
        let mut counters = [0u64; Metric::COUNT];
        if let Some(inner) = &self.inner {
            for w in inner.workers.lock().unwrap().iter() {
                for m in Metric::ALL {
                    counters[m as usize] += w.shard.counter(m);
                }
            }
        }
        counters
    }

    /// Sums one counter across all shards — three atomic loads per worker,
    /// for observers that watch a single metric at high frequency.
    pub fn counter(&self, m: Metric) -> u64 {
        match &self.inner {
            None => 0,
            Some(inner) => inner
                .workers
                .lock()
                .unwrap()
                .iter()
                .map(|w| w.shard.counter(m))
                .sum(),
        }
    }

    /// Total events ever published across all workers' rings (including
    /// any lost to wrap) — one relaxed load per ring. Compared against
    /// [`TraceCursor::consumed`] this tells a consumer whether anything
    /// new awaits a drain without touching slot storage.
    pub fn recorded_total(&self) -> u64 {
        match &self.inner {
            None => 0,
            Some(inner) => inner
                .workers
                .lock()
                .unwrap()
                .iter()
                .map(|w| w.ring.recorded())
                .sum(),
        }
    }

    /// Registered worker names, in registration (worker-id) order.
    pub fn worker_names(&self) -> Vec<String> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => inner
                .workers
                .lock()
                .unwrap()
                .iter()
                .map(|w| w.name.clone())
                .collect(),
        }
    }

    /// A fresh drain cursor positioned at the start of every ring.
    pub fn cursor(&self) -> TraceCursor {
        TraceCursor::default()
    }

    /// Incrementally drains all workers' rings into `out` (events appended
    /// in per-ring order; stable-sort by `ts_ns` if a global order is
    /// needed) and advances the cursor. Returns the number of events lost
    /// between drains to ring wrap. A consumer that drains faster than any
    /// single ring wraps sees every event exactly once.
    pub fn drain(&self, cursor: &mut TraceCursor, out: &mut Vec<TraceEvent>) -> u64 {
        let inner = match &self.inner {
            None => return 0,
            Some(inner) => inner,
        };
        let mut missed = 0;
        let workers = inner.workers.lock().unwrap();
        if cursor.next.len() < workers.len() {
            cursor.next.resize(workers.len(), 0);
        }
        for (w, next) in workers.iter().zip(cursor.next.iter_mut()) {
            missed += w.ring.drain(next, out);
        }
        missed
    }

    /// Zero-copy variant of [`Telemetry::drain`]: invokes the visitor once
    /// per event (per-ring order, no intermediate buffer) and advances the
    /// cursor. Returns events lost to ring wrap, as [`Telemetry::drain`].
    pub fn drain_with(&self, cursor: &mut TraceCursor, mut f: impl FnMut(TraceEvent)) -> u64 {
        let inner = match &self.inner {
            None => return 0,
            Some(inner) => inner,
        };
        let mut missed = 0;
        let workers = inner.workers.lock().unwrap();
        if cursor.next.len() < workers.len() {
            cursor.next.resize(workers.len(), 0);
        }
        for (w, next) in workers.iter().zip(cursor.next.iter_mut()) {
            missed += w.ring.drain_with(next, &mut f);
        }
        missed
    }

    /// Stage-filtered variant of [`Telemetry::drain_with`]: only events
    /// whose stage bit is set in `mask` (`1 << (stage as u32)`) reach the
    /// visitor; the rest are consumed at the cost of a one-byte peek. See
    /// [`TraceRing::drain_stages`].
    pub fn drain_stages(
        &self,
        cursor: &mut TraceCursor,
        mask: u32,
        mut f: impl FnMut(TraceEvent),
    ) -> u64 {
        let inner = match &self.inner {
            None => return 0,
            Some(inner) => inner,
        };
        let mut missed = 0;
        let workers = inner.workers.lock().unwrap();
        if cursor.next.len() < workers.len() {
            cursor.next.resize(workers.len(), 0);
        }
        for (w, next) in workers.iter().zip(cursor.next.iter_mut()) {
            missed += w.ring.drain_stages(next, mask, &mut f);
        }
        missed
    }

    /// Aggregates counters and histograms across all shards and copies
    /// every worker's trace ring (merged, stably ordered by timestamp). A
    /// disabled registry returns an empty snapshot.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let inner = match &self.inner {
            None => return TelemetrySnapshot::empty(),
            Some(inner) => inner,
        };
        let mut counters = [0u64; Metric::COUNT];
        let mut route: [Histogram; Route::COUNT] = std::array::from_fn(|_| Histogram::new());
        let mut segment: [Histogram; Segment::COUNT] = std::array::from_fn(|_| Histogram::new());
        let mut depth: [Histogram; Depth::COUNT] = std::array::from_fn(|_| Histogram::new());
        let mut events = Vec::new();
        let mut workers_out = Vec::new();
        let mut ring_dropped = Vec::new();
        for w in inner.workers.lock().unwrap().iter() {
            for m in Metric::ALL {
                counters[m as usize] += w.shard.counter(m);
            }
            w.shard
                .merge_hists_into(&mut route, &mut segment, &mut depth);
            events.extend(w.ring.snapshot());
            workers_out.push(w.name.clone());
            ring_dropped.push(w.ring.dropped());
        }
        // Stable: per-ring ticket order breaks timestamp ties, so one
        // worker's same-instant events keep their emission order.
        events.sort_by_key(|e| e.ts_ns);
        TelemetrySnapshot {
            counters,
            route_latency: route,
            segments: segment,
            depths: depth,
            events,
            dropped_events: ring_dropped.iter().sum(),
            workers: workers_out,
            ring_dropped,
        }
    }
}

/// One worker's instrumentation handle. Counter increments go to the
/// worker's private shard; trace events go to the worker's private ring,
/// stamped with its worker id. All methods are no-ops (one branch) on a
/// disabled handle.
#[derive(Clone, Default)]
pub struct TelemetryHandle {
    shard: Option<Arc<Shard>>,
    ring: Option<Arc<TraceRing>>,
    worker: u16,
}

impl TelemetryHandle {
    /// A handle that records nothing.
    pub fn disabled() -> Self {
        TelemetryHandle {
            shard: None,
            ring: None,
            worker: 0,
        }
    }

    /// Whether this handle records anything. Callers can use this to skip
    /// building event arguments that are themselves costly.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.ring.is_some()
    }

    /// This worker's registration index (0 on a disabled handle).
    #[inline]
    pub fn worker_id(&self) -> u16 {
        self.worker
    }

    /// Increments a counter by one.
    #[inline]
    pub fn count(&self, m: Metric) {
        self.add(m, 1);
    }

    /// Increments a counter by `n`.
    #[inline]
    pub fn add(&self, m: Metric, n: u64) {
        if let Some(shard) = &self.shard {
            shard.add(m, n);
        }
    }

    /// Emits one lifecycle trace event (generation unknown).
    #[inline]
    pub fn event(&self, ts_ns: Ns, vm: u32, vsq: u16, tag: u16, stage: Stage, path: PathKind) {
        self.request_event(ts_ns, vm, vsq, tag, 0, stage, path);
    }

    /// Emits one lifecycle trace event carrying the request generation —
    /// the router's tag-reuse disambiguator (nonzero; see
    /// [`TraceEvent::gen`]).
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn request_event(
        &self,
        ts_ns: Ns,
        vm: u32,
        vsq: u16,
        tag: u16,
        gen: u8,
        stage: Stage,
        path: PathKind,
    ) {
        if let Some(ring) = &self.ring {
            ring.push(TraceEvent {
                ts_ns,
                vm,
                vsq,
                tag,
                worker: self.worker,
                gen,
                stage,
                path,
                link_tag: 0,
                link_gen: 0,
            });
        }
    }

    /// Emits one lifecycle trace event that *links* this request to a
    /// related one (`link_tag`/`link_gen`): the coalesce leader for
    /// [`Stage::LinkFanout`], the pre-snapshot predecessor for
    /// [`Stage::Replayed`]. Insight's trace forest resolves the link into
    /// a parent/child edge of one logical request tree.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn link_event(
        &self,
        ts_ns: Ns,
        vm: u32,
        vsq: u16,
        tag: u16,
        gen: u8,
        stage: Stage,
        link_tag: u16,
        link_gen: u8,
    ) {
        if let Some(ring) = &self.ring {
            ring.push(TraceEvent {
                ts_ns,
                vm,
                vsq,
                tag,
                worker: self.worker,
                gen,
                stage,
                path: PathKind::None,
                link_tag,
                link_gen,
            });
        }
    }

    /// Emits a below-router event (device/kernel/UIF), which only knows the
    /// routing tag.
    #[inline]
    pub fn tag_event(&self, ts_ns: Ns, tag: u16, stage: Stage, path: PathKind) {
        self.event(ts_ns, VM_ANY, 0, tag, stage, path);
    }

    /// Records one completed request's VSQ→VCQ latency under its route.
    #[inline]
    pub fn route_latency(&self, route: Route, ns: u64) {
        if let Some(shard) = &self.shard {
            shard.record_route(route, ns);
        }
    }

    /// Records one stage-segment duration.
    #[inline]
    pub fn segment(&self, seg: Segment, ns: u64) {
        if let Some(shard) = &self.shard {
            shard.record_segment(seg, ns);
        }
    }

    /// Records one occupancy/batch-size sample (queue depth at a visit,
    /// CQEs per coalesced flush, ...).
    #[inline]
    pub fn depth(&self, d: Depth, value: u64) {
        if let Some(shard) = &self.shard {
            shard.record_depth(d, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        let h = t.register_worker();
        assert!(!h.enabled());
        h.count(Metric::Accepted);
        h.event(1, 0, 0, 0, Stage::VsqFetch, PathKind::None);
        h.route_latency(Route::Fast, 100);
        h.segment(Segment::IngressToDispatch, 10);
        let s = t.snapshot();
        assert_eq!(s.get(Metric::Accepted), 0);
        assert!(s.events.is_empty());
    }

    #[test]
    fn default_handle_is_disabled() {
        let h = TelemetryHandle::default();
        assert!(!h.enabled());
    }

    #[test]
    fn counters_aggregate_across_workers() {
        let t = Telemetry::enabled();
        let a = t.register_worker();
        let b = t.register_worker();
        a.count(Metric::Accepted);
        a.add(Metric::Accepted, 4);
        b.add(Metric::Accepted, 10);
        b.count(Metric::DeviceIos);
        let s = t.snapshot();
        assert_eq!(s.get(Metric::Accepted), 15);
        assert_eq!(s.get(Metric::DeviceIos), 1);
    }

    #[test]
    fn events_and_latency_reach_snapshot() {
        let t = Telemetry::with_config(TelemetryConfig { trace_capacity: 16 });
        let h = t.register_worker();
        h.event(100, 3, 0, 9, Stage::VsqFetch, PathKind::None);
        h.event(110, 3, 0, 9, Stage::Dispatched, PathKind::Kernel);
        h.tag_event(150, 9, Stage::KernelService, PathKind::Kernel);
        h.event(160, 3, 0, 9, Stage::VcqComplete, PathKind::None);
        h.route_latency(Route::Kernel, 60);
        h.segment(Segment::DispatchToService, 40);
        let s = t.snapshot();
        assert_eq!(s.events.len(), 4);
        assert_eq!(s.route_hist(Route::Kernel).count(), 1);
        assert_eq!(s.route_hist(Route::Kernel).max(), 60);
        assert_eq!(s.segment_hist(Segment::DispatchToService).max(), 40);
        let stages = s.lifecycle_stages(3, 0, 9);
        assert_eq!(
            stages,
            vec![
                Stage::VsqFetch,
                Stage::Dispatched,
                Stage::KernelService,
                Stage::VcqComplete
            ]
        );
    }

    #[test]
    fn clones_share_state() {
        let t = Telemetry::enabled();
        let t2 = t.clone();
        let h = t.register_worker();
        h.count(Metric::Completed);
        assert_eq!(t2.snapshot().get(Metric::Completed), 1);
    }

    #[test]
    fn per_worker_rings_merge_sorted_and_stamp_worker_ids() {
        let t = Telemetry::with_config(TelemetryConfig { trace_capacity: 16 });
        let a = t.register_worker_named("router.0");
        let b = t.register_worker_named("ssd");
        assert_eq!(a.worker_id(), 0);
        assert_eq!(b.worker_id(), 1);
        a.request_event(100, 0, 0, 7, 3, Stage::VsqFetch, PathKind::None);
        b.tag_event(150, 7, Stage::DeviceService, PathKind::Fast);
        a.request_event(200, 0, 0, 7, 3, Stage::VcqComplete, PathKind::None);
        let s = t.snapshot();
        assert_eq!(s.workers, vec!["router.0".to_string(), "ssd".to_string()]);
        assert_eq!(s.ring_dropped, vec![0, 0]);
        let ts: Vec<u64> = s.events.iter().map(|e| e.ts_ns).collect();
        assert_eq!(ts, vec![100, 150, 200]);
        assert_eq!(s.events[0].worker, 0);
        assert_eq!(s.events[0].gen, 3);
        assert_eq!(s.events[1].worker, 1);
        assert_eq!(s.events[1].gen, 0);
    }

    #[test]
    fn drain_covers_all_rings_and_late_registrations() {
        let t = Telemetry::with_config(TelemetryConfig { trace_capacity: 8 });
        let a = t.register_worker();
        let mut cur = t.cursor();
        let mut out = Vec::new();
        a.event(10, 0, 0, 1, Stage::VsqFetch, PathKind::None);
        assert_eq!(t.drain(&mut cur, &mut out), 0);
        assert_eq!(out.len(), 1);
        // A worker registered after the cursor was created is still seen.
        let b = t.register_worker();
        b.tag_event(20, 1, Stage::DeviceService, PathKind::Fast);
        a.event(30, 0, 0, 1, Stage::VcqComplete, PathKind::None);
        assert_eq!(t.drain(&mut cur, &mut out), 0);
        assert_eq!(out.len(), 3);
        // Overrun one ring: drain reports the loss.
        for i in 0..20 {
            a.event(40 + i, 0, 0, 2, Stage::VsqFetch, PathKind::None);
        }
        let missed = t.drain(&mut cur, &mut out);
        assert_eq!(missed, 12);
        assert_eq!(out.len(), 11);
        let disabled = Telemetry::disabled();
        let mut dcur = disabled.cursor();
        assert_eq!(disabled.drain(&mut dcur, &mut out), 0);
    }

    #[test]
    fn counters_only_path_matches_snapshot() {
        let t = Telemetry::enabled();
        let a = t.register_worker();
        let b = t.register_worker();
        a.add(Metric::Accepted, 3);
        b.add(Metric::BreakerOpens, 2);
        let c = t.counters();
        assert_eq!(c[Metric::Accepted as usize], 3);
        assert_eq!(c[Metric::BreakerOpens as usize], 2);
        assert_eq!(t.snapshot().get(Metric::BreakerOpens), 2);
        assert_eq!(Telemetry::disabled().counters(), [0u64; Metric::COUNT]);
    }
}
