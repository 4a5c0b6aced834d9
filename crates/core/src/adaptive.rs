//! The self-tuning poll governor.
//!
//! A per-shard, allocation-free state machine fed from the router's poll
//! loop; it does not read the global telemetry registry (which may be
//! disabled) but tracks arrival gaps locally.
//!
//! The **governor** ([`PollGovernor`]) reproduces the paper's adaptive
//! polling (busy-poll ⇄ epoll): a shard spins at full rate for a window
//! after its last work, decays to a duty-cycled yield loop, and finally
//! parks — an event-driven sleep charged at ~0 CPU whose end is a
//! doorbell kick modelled as a wakeup deadline. Arrival EWMAs pull the
//! park point in when the observed inter-arrival gap says the queues have
//! truly gone quiet.

use nvmetro_sim::Ns;

/// One shard's poll mode, as reported in `EngineStats`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PollMode {
    /// Full-rate busy polling.
    Spin,
    /// Duty-cycled polling (spin_loop/yield regime): ~1/8 of a core.
    Yield,
    /// Event-driven sleep: ~0 CPU, woken by doorbell/notify.
    Parked,
}

impl PollMode {
    /// Stable lower-case name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            PollMode::Spin => "spin",
            PollMode::Yield => "yield",
            PollMode::Parked => "parked",
        }
    }
}

/// Monotonic governor counters; the router diffs snapshots around a poll
/// to emit telemetry deltas.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GovernorCounters {
    /// Every mode change (Spin→Yield, Yield→Parked, any wake).
    pub transitions: u64,
    /// Entries into Parked.
    pub parks: u64,
    /// Exits from Parked.
    pub wakes: u64,
}

/// CPU fraction of a core the Yield regime burns (1/`YIELD_DUTY`).
const YIELD_DUTY: Ns = 8;

/// Multiple of the arrival-gap EWMA after which a gap counts as "the
/// queue went idle" and the shard may park early.
const PARK_EWMA_FACTOR: Ns = 16;

/// The busy-poll ⇄ park state machine for one shard.
pub struct PollGovernor {
    idle_spin: Ns,
    park_after: Ns,
    wakeup_cost: Ns,
    mode: PollMode,
    /// Timestamp of the last poll that made progress.
    last_busy: Ns,
    /// Idle burn has been accounted up to here (monotonic).
    charged_to: Ns,
    /// Accumulated virtual CPU spent spinning/yielding while idle.
    burn: Ns,
    /// EWMA of the gap between successive busy polls.
    ewma_gap: Ns,
    /// Pending wakeup latency, charged to the first work after a wake.
    wake_debt: Ns,
    counters: GovernorCounters,
}

impl PollGovernor {
    /// A governor in Spin mode at t=0.
    pub fn new(idle_spin: Ns, park_after: Ns, wakeup_cost: Ns) -> Self {
        PollGovernor {
            idle_spin: idle_spin.max(1),
            park_after: park_after.max(idle_spin.max(1)),
            wakeup_cost,
            mode: PollMode::Spin,
            last_busy: 0,
            charged_to: 0,
            burn: 0,
            ewma_gap: 0,
            wake_debt: 0,
            counters: GovernorCounters::default(),
        }
    }

    /// Current mode.
    pub fn mode(&self) -> PollMode {
        self.mode
    }

    /// Virtual CPU burned spinning/yielding while idle, to date.
    pub fn burn(&self) -> Ns {
        self.burn
    }

    /// Counter snapshot.
    pub fn counters(&self) -> GovernorCounters {
        self.counters
    }

    /// Idle span after which the shard parks: the configured `park_after`
    /// bound, pulled in to `PARK_EWMA_FACTOR ×` the arrival EWMA once the
    /// observed rate shows a gap this long means "gone idle" — a loaded
    /// shard keeps spinning through its own jitter, a drained one parks
    /// without waiting out the full bound.
    fn effective_park(&self) -> Ns {
        if self.ewma_gap == 0 {
            // No cadence observed yet: only the configured bound applies.
            return self.park_after;
        }
        self.ewma_gap
            .saturating_mul(PARK_EWMA_FACTOR)
            .clamp(self.idle_spin, self.park_after)
    }

    /// Charges idle burn for the wall-clock since the previous poll,
    /// piecewise by regime: full rate inside the spin window, 1/8 inside
    /// the yield window, nothing while parked. Call at the top of every
    /// poll.
    pub fn begin_poll(&mut self, now: Ns) {
        let start = self.charged_to.max(self.last_busy);
        if now <= start {
            return;
        }
        let spin_end = self.last_busy.saturating_add(self.idle_spin);
        let park_at = self.last_busy.saturating_add(self.effective_park());
        let overlap = |a: Ns, b: Ns| b.min(now).saturating_sub(a.max(start));
        self.burn += overlap(self.last_busy, spin_end);
        self.burn += overlap(spin_end, park_at) / YIELD_DUTY;
        self.charged_to = now;
        // A leaping executor can jump straight from the last busy poll
        // to this one with no idle poll in between: reify the mode
        // transitions the idle span implies, so the parks telemetry
        // observes (and the wake debt a doorbell past the park point
        // owes) match the burn just charged. Only the descent happens
        // here; wakes go through `doorbell_wake` or the progressed arm
        // of `end_poll`.
        let idle = now.saturating_sub(self.last_busy);
        let target = if idle >= self.effective_park() {
            PollMode::Parked
        } else if idle >= self.idle_spin {
            PollMode::Yield
        } else {
            PollMode::Spin
        };
        let rank = |m: PollMode| match m {
            PollMode::Spin => 0,
            PollMode::Yield => 1,
            PollMode::Parked => 2,
        };
        if rank(target) > rank(self.mode) {
            self.counters.transitions += 1;
            if target == PollMode::Parked {
                self.counters.parks += 1;
            }
            self.mode = target;
        }
    }

    /// A doorbell/notify kick observed while parked: wake immediately and
    /// owe the wakeup latency to the first piece of work this poll.
    pub fn doorbell_wake(&mut self, _now: Ns) {
        if self.mode != PollMode::Parked {
            return;
        }
        self.mode = PollMode::Spin;
        self.wake_debt = self.wakeup_cost;
        self.counters.wakes += 1;
        self.counters.transitions += 1;
    }

    /// Consumes the pending wakeup latency (applied by the router to the
    /// first station push after a wake).
    pub fn take_wake_debt(&mut self) -> Ns {
        std::mem::take(&mut self.wake_debt)
    }

    /// Adopts the hottest queue's per-queue arrival-gap EWMA as the
    /// governor's cadence estimate. The router tracks arrivals per queue
    /// group and passes the minimum; it is a cleaner signal than busy-poll
    /// gaps (a poll can be busy reaping completions long after arrivals
    /// stopped).
    pub fn note_queue_gap(&mut self, gap: Ns) {
        if gap > 0 {
            self.ewma_gap = gap;
        }
    }

    /// Ends a poll: progress rewinds to Spin (a park exit here — e.g. a
    /// recovery timer firing — counts as a wake too); an idle poll walks
    /// the Spin → Yield → Parked ladder by time since the last progress.
    pub fn end_poll(&mut self, now: Ns, progressed: bool) {
        if progressed {
            if self.mode == PollMode::Parked {
                self.counters.wakes += 1;
                self.wake_debt = self.wakeup_cost;
            }
            if self.mode != PollMode::Spin {
                self.counters.transitions += 1;
                self.mode = PollMode::Spin;
            }
            let gap = now.saturating_sub(self.last_busy);
            if gap > 0 {
                self.ewma_gap = (self.ewma_gap.saturating_mul(7) + gap) / 8;
            }
            self.last_busy = now;
            return;
        }
        let idle = now.saturating_sub(self.last_busy);
        let next = if idle >= self.effective_park() {
            PollMode::Parked
        } else if idle >= self.idle_spin {
            PollMode::Yield
        } else {
            PollMode::Spin
        };
        if next != self.mode {
            // The ladder only descends here; wakes go through
            // `doorbell_wake` or the progressed arm above.
            self.counters.transitions += 1;
            if next == PollMode::Parked {
                self.counters.parks += 1;
            }
            self.mode = next;
        }
    }

    /// The wakeup deadline a parked shard owes `next_event`: if work is
    /// already visible (`doorbell_pending`), the kick lands one wakeup
    /// latency after the last poll — without this, a manually driven
    /// engine (`next_event_all` loops) would sleep through the doorbell.
    pub fn next_wake(&self, doorbell_pending: bool) -> Option<Ns> {
        if self.mode == PollMode::Parked && doorbell_pending {
            Some(self.charged_to.saturating_add(self.wakeup_cost))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmetro_sim::US;

    #[test]
    fn governor_walks_spin_yield_park_and_burns_accordingly() {
        let mut g = PollGovernor::new(8 * US, 64 * US, 4 * US);
        // Busy at t=0 anchors last_busy.
        g.begin_poll(0);
        g.end_poll(0, true);
        assert_eq!(g.mode(), PollMode::Spin);
        // 4 µs idle: still spinning, full burn.
        g.begin_poll(4 * US);
        g.end_poll(4 * US, false);
        assert_eq!(g.mode(), PollMode::Spin);
        assert_eq!(g.burn(), 4 * US);
        // 20 µs idle: yield regime; burn = 8 full + 12/8 duty-cycled.
        g.begin_poll(20 * US);
        g.end_poll(20 * US, false);
        assert_eq!(g.mode(), PollMode::Yield);
        assert_eq!(g.burn(), 8 * US + 12 * US / 8);
        // 100 µs idle: parked; nothing accrues beyond the park point.
        g.begin_poll(100 * US);
        g.end_poll(100 * US, false);
        assert_eq!(g.mode(), PollMode::Parked);
        let parked_burn = g.burn();
        assert_eq!(parked_burn, 8 * US + 56 * US / 8);
        g.begin_poll(10_000 * US);
        g.end_poll(10_000 * US, false);
        assert_eq!(g.burn(), parked_burn, "parked time is free");
        assert_eq!(g.counters().parks, 1);
        assert_eq!(g.counters().transitions, 2);
    }

    #[test]
    fn doorbell_wake_charges_debt_and_counts() {
        let mut g = PollGovernor::new(US, 2 * US, 4 * US);
        g.end_poll(0, true);
        g.begin_poll(100 * US);
        g.end_poll(100 * US, false);
        assert_eq!(g.mode(), PollMode::Parked);
        assert_eq!(g.next_wake(false), None, "no doorbell, no deadline");
        assert_eq!(g.next_wake(true), Some(100 * US + 4 * US));
        g.doorbell_wake(104 * US);
        assert_eq!(g.mode(), PollMode::Spin);
        assert_eq!(g.take_wake_debt(), 4 * US);
        assert_eq!(g.take_wake_debt(), 0, "debt is consumed once");
        assert_eq!(g.counters().wakes, 1);
    }

    #[test]
    fn ewma_pulls_park_point_in_when_flow_stops() {
        let mut g = PollGovernor::new(8 * US, 64 * US, 4 * US);
        // Arrivals every 2 µs drive the EWMA down.
        for i in 1..=64u64 {
            let t = i * 2 * US;
            g.begin_poll(t);
            g.end_poll(t, true);
        }
        // A 40 µs lull with a 2 µs EWMA: 16×2 = 32 µs ≥ idle_spin, so the
        // shard parks *earlier* than the 64 µs bound once the gap clearly
        // exceeds the typical arrival cadence.
        let base = 64 * 2 * US;
        g.begin_poll(base + 40 * US);
        g.end_poll(base + 40 * US, false);
        assert_eq!(g.mode(), PollMode::Parked);
        // ...but stays up through gaps within the cadence.
        let mut g2 = PollGovernor::new(8 * US, 64 * US, 4 * US);
        for i in 1..=64u64 {
            let t = i * 2 * US;
            g2.begin_poll(t);
            g2.end_poll(t, true);
        }
        g2.begin_poll(base + 6 * US);
        g2.end_poll(base + 6 * US, false);
        assert_eq!(g2.mode(), PollMode::Spin, "6 µs is within spin window");
    }
}
