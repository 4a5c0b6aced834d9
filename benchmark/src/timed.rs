//! Benchmark-side tracing: every actor handed to the executor or to a
//! thread is wrapped in [`Timed`], which in a traced round records sampled
//! spans around the calls into the layer's public `Actor` functions. No
//! file outside this package changes, so each layer is timed from outside.
//!
//! Timing every poll costs more than the polls (two clock reads around a
//! 20-60 ns poll), so a traced round of the fast workloads times one poll
//! in 64 on average, chosen by poll index (the same polls every run), and
//! scales the sampled time by the exact poll count. An unsampled poll pays
//! one counter increment and one compare. Where a request costs tens of
//! microseconds the polls are few, uneven and dear, and every one is timed.

use nvmetro_core::router::KernelPath;
use nvmetro_nvme::{Status, SubmissionEntry};
use nvmetro_sim::{Actor, CpuMode, Ns, Progress};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Spans kept per actor and round; later samples only feed the sums.
const SPAN_CAP: usize = 4096;

/// One recorded span. Under the executor every sweep polls every actor
/// once, so an actor's `sweep`-th poll belongs to executor sweep `sweep`,
/// which is what ties the spans of one sweep together. `parent` is the
/// sequence number of the enclosing span of the parent layer (kernel-path
/// calls inside a router poll).
#[derive(Clone, Debug)]
pub struct Span {
    pub layer: &'static str,
    pub op: &'static str,
    pub seq: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub sweep: u64,
    pub parent: Option<u64>,
}

/// What tracing itself costs, measured once per process.
#[derive(Clone, Copy, Debug, Default)]
pub struct TraceCosts {
    /// What a timed interval around no work reads.
    pub inner_ns: f64,
    /// What taking one timed sample costs the thread that takes it.
    pub pair_ns: f64,
    /// What counting one poll that is not sampled costs.
    pub poll_ns: f64,
}

/// What one traced round shares between its wrappers.
pub struct TraceCtx {
    epoch: Instant,
    pub costs: TraceCosts,
    /// Mean number of polls between two timed ones; 1 times every poll.
    pub sample_gap: u64,
}

impl TraceCtx {
    pub fn new(sample_gap: u64) -> Arc<Self> {
        static COSTS: OnceLock<TraceCosts> = OnceLock::new();
        Self::with_costs(*COSTS.get_or_init(calibrate), sample_gap)
    }

    fn with_costs(costs: TraceCosts, sample_gap: u64) -> Arc<Self> {
        assert!(sample_gap >= 1);
        Arc::new(TraceCtx {
            epoch: Instant::now(),
            costs,
            sample_gap,
        })
    }
}

/// Measures the tracing itself on an actor that does nothing, through the
/// same wrapper the rigs use: what a sample reads when there is no work,
/// what taking it costs, and what counting an unsampled poll costs.
/// Medians over batches, so one preemption does not skew them.
fn calibrate() -> TraceCosts {
    struct Nop(u64);
    impl Actor for Nop {
        fn name(&self) -> &str {
            "nop"
        }
        fn poll(&mut self, _now: Ns) -> Progress {
            self.0 = std::hint::black_box(self.0 + 1);
            Progress::Idle
        }
        fn next_event(&self) -> Option<Ns> {
            None
        }
    }
    const POLLS: u64 = 20_000;
    // Per poll: (wall cost, mean sampled reading).
    let per_poll = |wrap: &dyn Fn() -> Timed<Nop>| -> (f64, f64) {
        let (mut wall, mut read) = (Vec::new(), Vec::new());
        for _ in 0..15 {
            let mut t = wrap();
            let t0 = Instant::now();
            for i in 0..POLLS {
                std::hint::black_box(t.poll(i));
            }
            wall.push(t0.elapsed().as_nanos() as f64 / POLLS as f64);
            let p = t.probe();
            read.push(if p.poll.n == 0 {
                0.0
            } else {
                p.poll.ns / p.poll.n as f64
            });
        }
        (
            crate::stats::summarize(&wall).median,
            crate::stats::summarize(&read).median,
        )
    };
    let zero = || Some(TraceCtx::with_costs(TraceCosts::default(), 64));
    let (bare, _) = per_poll(&|| Timed::new(Nop(0), "nop", 0, None));
    let (counted, _) = per_poll(&|| {
        let mut t = Timed::new(Nop(0), "nop", 0, zero());
        t.next_sample = u64::MAX; // count, never sample
        t
    });
    let (sampled, reading) = per_poll(&|| Timed::new(Nop(0), "nop", 0, zero()).every_poll());
    TraceCosts {
        inner_ns: reading,
        pair_ns: (sampled - bare).max(0.0),
        poll_ns: (counted - bare).max(0.0),
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Acc {
    n: u64,
    ns: f64,
}

/// Counts and sampled times of one wrapped actor over one round.
#[derive(Clone, Debug, Default)]
pub struct Probe {
    pub polls: u64,
    pub next_events: u64,
    /// Timed samples taken, the children's included.
    pub pairs: u64,
    /// All sampled polls; those that made progress; child calls inside
    /// sampled polls; sampled `next_event` calls.
    poll: Acc,
    busy: Acc,
    child: Acc,
    next: Acc,
}

impl Probe {
    fn scaled(&self, sampled_ns: f64) -> f64 {
        if self.poll.n == 0 {
            0.0
        } else {
            sampled_ns / self.poll.n as f64 * self.polls as f64
        }
    }

    /// Estimated time inside `poll`, children included.
    pub fn poll_ns(&self) -> f64 {
        self.scaled(self.poll.ns)
    }

    /// Estimated time inside the polls that made progress.
    pub fn busy_poll_ns(&self) -> f64 {
        self.scaled(self.busy.ns)
    }

    /// Estimated time of child-layer calls made from inside `poll`.
    pub fn child_ns(&self) -> f64 {
        self.scaled(self.child.ns)
    }

    /// Estimated time inside `next_event`.
    pub fn next_event_ns(&self) -> f64 {
        if self.next.n == 0 {
            0.0
        } else {
            self.next.ns / self.next.n as f64 * self.next_events as f64
        }
    }

    /// The layer's self time: its calls minus what its children cover.
    pub fn self_ns(&self) -> f64 {
        self.poll_ns() + self.next_event_ns() - self.child_ns()
    }

    /// What tracing this actor cost its thread.
    pub fn tracing_ns(&self, costs: &TraceCosts) -> f64 {
        self.pairs as f64 * costs.pair_ns + (self.polls + self.next_events) as f64 * costs.poll_ns
    }

    /// Share of the sampled polls that made no progress. The sample is
    /// fixed by poll index, so under the executor this repeats exactly.
    pub fn idle_share(&self) -> f64 {
        if self.poll.n == 0 {
            0.0
        } else {
            1.0 - self.busy.n as f64 / self.poll.n as f64
        }
    }

    pub fn merge(&mut self, o: &Probe) {
        self.polls += o.polls;
        self.next_events += o.next_events;
        self.pairs += o.pairs;
        for (a, b) in [
            (&mut self.poll, &o.poll),
            (&mut self.busy, &o.busy),
            (&mut self.child, &o.child),
            (&mut self.next, &o.next),
        ] {
            a.n += b.n;
            a.ns += b.ns;
        }
    }
}

/// Hand-off between a traced parent poll and the child layer it calls
/// into (the kernel path lives inside the router, out of the executor's
/// sight). The child times its calls only while the parent is being
/// sampled, so its spans nest inside the parent's.
#[derive(Default)]
pub struct ChildCtx {
    active: AtomicBool,
    parent_seq: AtomicU64,
    ns: AtomicU64,
    pairs: AtomicU64,
    seq: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl ChildCtx {
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("no span writer panicked"))
    }
}

/// Deterministic gaps between timed calls: uniform in `1..2 * mean`.
struct Gaps {
    state: u64,
    mean: u64,
}

impl Gaps {
    fn new(stream: u64, mean: u64) -> Self {
        Gaps {
            state: 0x9E37_79B9_7F4A_7C15 ^ stream.wrapping_mul(0xA24B_AED4_963E_E407),
            mean,
        }
    }

    fn next(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        1 + (self.state >> 33) % (2 * self.mean - 1)
    }
}

/// What a round reads back from a wrapped actor, whatever it wraps.
pub trait Probed {
    fn layer(&self) -> &'static str;
    fn probe(&self) -> &Probe;
    /// Forgets what was recorded so far (set-up and warm-up traffic).
    fn reset(&mut self);
    fn take_spans(&mut self) -> Vec<Span>;
}

impl<A: Actor> Probed for Timed<A> {
    fn layer(&self) -> &'static str {
        self.layer
    }

    fn probe(&self) -> &Probe {
        &self.probe
    }

    fn reset(&mut self) {
        self.next_sample -= self.probe.polls;
        self.next_event_sample -= self.probe.next_events;
        self.probe = Probe::default();
        self.spans.clear();
        if let Some(c) = &self.child {
            c.take_spans();
        }
    }

    fn take_spans(&mut self) -> Vec<Span> {
        let mut out = std::mem::take(&mut self.spans);
        if let Some(c) = &self.child {
            out.extend(c.take_spans());
        }
        out
    }
}

/// An actor plus, in a traced round, the probe that times it. Untraced, a
/// poll costs one predictable branch more than the bare actor's.
pub struct Timed<A> {
    pub inner: A,
    layer: &'static str,
    trace: Option<Arc<TraceCtx>>,
    child: Option<Arc<ChildCtx>>,
    gaps: Gaps,
    /// Index of the next poll, and of the next `next_event`, to time.
    next_sample: u64,
    next_event_sample: u64,
    seq: u64,
    probe: Probe,
    spans: Vec<Span>,
}

impl<A: Actor> Timed<A> {
    /// Wraps `inner` as layer `layer`; `trace` is `None` in untraced rounds.
    /// `stream` decorrelates the sampling of different actors.
    pub fn new(inner: A, layer: &'static str, stream: u64, trace: Option<Arc<TraceCtx>>) -> Self {
        let mut gaps = Gaps::new(stream, trace.as_ref().map_or(1, |t| t.sample_gap));
        Timed {
            inner,
            layer,
            trace,
            child: None,
            next_sample: gaps.next(),
            next_event_sample: gaps.next(),
            gaps,
            seq: 0,
            probe: Probe::default(),
            spans: Vec::new(),
        }
    }

    /// Times every poll instead of a sample: for actors whose cost sits in
    /// rare heavy polls (the periodic watchdog and recorder ticks), which a
    /// sample would mostly miss.
    pub fn every_poll(mut self) -> Self {
        self.gaps.mean = 1;
        self.next_sample = 1;
        self
    }

    /// This actor calls into a child layer that reports through `ctx`.
    pub fn with_child(mut self, ctx: Arc<ChildCtx>) -> Self {
        self.child = Some(ctx);
        self
    }

    /// Books one timed call that read `raw_ns`; returns the call's own
    /// time, children included.
    fn record(&mut self, op: &'static str, t0: Instant, raw_ns: u64) -> f64 {
        let trace = self.trace.clone().expect("only traced wrappers sample");
        let costs = &trace.costs;
        let (child_raw, child_pairs) = match &self.child {
            Some(c) => {
                c.active.store(false, Ordering::Relaxed);
                (
                    c.ns.swap(0, Ordering::Relaxed) as f64,
                    c.pairs.swap(0, Ordering::Relaxed),
                )
            }
            None => (0.0, 0),
        };
        // The interval holds the timer's own reading and every child
        // sample taken inside it; neither is the layer's work.
        let child_ns = (child_raw - child_pairs as f64 * costs.inner_ns).max(0.0);
        let own =
            (raw_ns as f64 - costs.inner_ns - child_pairs as f64 * costs.pair_ns).max(child_ns);
        self.probe.pairs += 1 + child_pairs;
        self.probe.child.n += 1;
        self.probe.child.ns += child_ns;
        if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                layer: self.layer,
                op,
                seq: self.seq,
                start_ns: t0.duration_since(trace.epoch).as_nanos() as u64,
                dur_ns: raw_ns,
                sweep: self.probe.polls,
                parent: None,
            });
        }
        self.seq += 1;
        own
    }

    #[inline(never)]
    fn sampled_poll(&mut self, now: Ns) -> Progress {
        self.next_sample += self.gaps.next();
        if let Some(c) = &self.child {
            c.parent_seq.store(self.seq, Ordering::Relaxed);
            c.active.store(true, Ordering::Relaxed);
        }
        let t0 = Instant::now();
        let progress = self.inner.poll(now);
        let raw = t0.elapsed().as_nanos() as u64;
        let own = self.record("poll", t0, raw);
        self.probe.poll.n += 1;
        self.probe.poll.ns += own;
        if progress == Progress::Busy {
            self.probe.busy.n += 1;
            self.probe.busy.ns += own;
        }
        progress
    }

    #[inline(never)]
    fn sampled_next_event(&mut self) -> Option<Ns> {
        self.next_event_sample += self.gaps.next();
        let t0 = Instant::now();
        let next = self.inner.next_event();
        let raw = t0.elapsed().as_nanos() as u64;
        let own = self.record("next_event", t0, raw);
        self.probe.next.n += 1;
        self.probe.next.ns += own;
        next
    }

    /// `Actor::next_event` takes `&self`; the probe needs `&mut self`.
    fn next_event_mut(&mut self) -> Option<Ns> {
        if self.trace.is_none() {
            return self.inner.next_event();
        }
        self.probe.next_events += 1;
        if self.probe.next_events == self.next_event_sample {
            self.sampled_next_event()
        } else {
            self.inner.next_event()
        }
    }
}

impl<A: Actor> Actor for Timed<A> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    #[inline]
    fn poll(&mut self, now: Ns) -> Progress {
        if self.trace.is_none() {
            return self.inner.poll(now);
        }
        self.probe.polls += 1;
        if self.probe.polls == self.next_sample {
            self.sampled_poll(now)
        } else {
            self.inner.poll(now)
        }
    }

    /// Not timed through this path: only the thread drain calls it.
    fn next_event(&self) -> Option<Ns> {
        self.inner.next_event()
    }

    fn charged(&self) -> Ns {
        self.inner.charged()
    }

    fn cpu_mode(&self) -> CpuMode {
        self.inner.cpu_mode()
    }
}

/// The single-thread deployment's handle: the executor owns one clone's
/// box, the benchmark keeps another to arm the generator between sections
/// and to read public stats after the run.
pub struct Shared<A> {
    name: String,
    cell: Rc<RefCell<Timed<A>>>,
}

impl<A: Actor> Shared<A> {
    pub fn new(timed: Timed<A>) -> Self {
        Shared {
            name: timed.name().to_string(),
            cell: Rc::new(RefCell::new(timed)),
        }
    }

    pub fn handle(&self) -> Rc<RefCell<Timed<A>>> {
        self.cell.clone()
    }
}

impl<A: Actor> Actor for Shared<A> {
    fn name(&self) -> &str {
        &self.name
    }

    #[inline]
    fn poll(&mut self, now: Ns) -> Progress {
        self.cell.borrow_mut().poll(now)
    }

    fn next_event(&self) -> Option<Ns> {
        self.cell.borrow_mut().next_event_mut()
    }

    fn charged(&self) -> Ns {
        self.cell.borrow().charged()
    }

    fn cpu_mode(&self) -> CpuMode {
        self.cell.borrow().cpu_mode()
    }
}

/// The kernel path behind the public `KernelPath` trait, timed as a child
/// of the router poll that calls it.
pub struct TimedKernel<K> {
    inner: K,
    trace: Option<Arc<TraceCtx>>,
    ctx: Arc<ChildCtx>,
}

impl<K: KernelPath> TimedKernel<K> {
    pub fn new(inner: K, trace: Option<Arc<TraceCtx>>, ctx: Arc<ChildCtx>) -> Self {
        TimedKernel { inner, trace, ctx }
    }

    #[inline]
    fn timed<R>(&mut self, op: &'static str, f: impl FnOnce(&mut K) -> R) -> R {
        let Some(trace) = &self.trace else {
            return f(&mut self.inner);
        };
        if !self.ctx.active.load(Ordering::Relaxed) {
            return f(&mut self.inner);
        }
        let t0 = Instant::now();
        let out = f(&mut self.inner);
        let raw = t0.elapsed().as_nanos() as u64;
        self.ctx.ns.fetch_add(raw, Ordering::Relaxed);
        self.ctx.pairs.fetch_add(1, Ordering::Relaxed);
        let mut spans = self.ctx.spans.lock().expect("no span writer panicked");
        if spans.len() < SPAN_CAP {
            spans.push(Span {
                layer: "kernel",
                op,
                seq: self.ctx.seq.fetch_add(1, Ordering::Relaxed),
                start_ns: t0.duration_since(trace.epoch).as_nanos() as u64,
                dur_ns: raw,
                sweep: 0,
                parent: Some(self.ctx.parent_seq.load(Ordering::Relaxed)),
            });
        }
        out
    }
}

impl<K: KernelPath> KernelPath for TimedKernel<K> {
    fn submit(&mut self, tag: u16, cmd: SubmissionEntry, now: Ns) {
        self.timed("submit", |k| k.submit(tag, cmd, now))
    }

    fn poll(&mut self, now: Ns, out: &mut Vec<(u16, Status)>) {
        self.timed("poll", |k| k.poll(now, out))
    }

    fn next_event(&self) -> Option<Ns> {
        self.inner.next_event()
    }

    fn charged(&self) -> Ns {
        self.inner.charged()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Flip(u64);
    impl Actor for Flip {
        fn name(&self) -> &str {
            "flip"
        }
        fn poll(&mut self, _now: Ns) -> Progress {
            self.0 += 1;
            if self.0.is_multiple_of(4) {
                Progress::Busy
            } else {
                Progress::Idle
            }
        }
        fn next_event(&self) -> Option<Ns> {
            None
        }
    }

    #[test]
    fn sampling_is_fixed_by_poll_index_and_counts_are_exact() {
        let run = || {
            let mut t = Timed::new(Flip(0), "x", 3, Some(TraceCtx::new(64)));
            for i in 0..10_000 {
                t.poll(i);
            }
            let sweeps: Vec<u64> = t.take_spans().iter().map(|s| s.sweep).collect();
            (
                t.probe().polls,
                t.probe().pairs,
                t.probe().idle_share(),
                sweeps,
            )
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b);
        assert_eq!(a.0, 10_000);
        // One poll in 64 on average, three in four of them idle.
        assert!((100..220).contains(&a.1), "{} samples", a.1);
        assert!((0.6..0.9).contains(&a.2), "idle share {}", a.2);
    }

    #[test]
    fn reset_keeps_the_sampling_schedule_running() {
        let mut t = Timed::new(Flip(0), "x", 3, Some(TraceCtx::new(64)));
        for i in 0..1_000 {
            t.poll(i);
        }
        t.reset();
        for i in 0..6_400 {
            t.poll(i);
        }
        assert_eq!(t.probe().polls, 6_400);
        assert!((50..150).contains(&t.probe().pairs), "{}", t.probe().pairs);
    }

    #[test]
    fn untraced_wrapper_records_nothing() {
        let mut t = Timed::new(Flip(0), "x", 0, None);
        for i in 0..100 {
            t.poll(i);
        }
        assert_eq!(t.probe().polls, 0);
        assert_eq!(t.inner.0, 100);
    }
}
