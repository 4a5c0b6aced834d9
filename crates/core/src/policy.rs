//! The typed datapath policy surface.
//!
//! [`EnginePolicy`] holds the two datapath axes a shard is configured
//! with:
//!
//! * [`PollPolicy`] — how a shard spends idle cycles. `Spin` is the
//!   legacy unconditional busy-poll; `Adaptive` runs the poll governor
//!   (Spin → Yield → Parked as the shard goes idle, doorbell-kicked back),
//!   the busy-poll ⇄ epoll switch the paper's router and UIFs use.
//! * `batch` — the per-SQ-visit drain bound and CQ-coalescing unit.
//!
//! Policies are plain `Copy` data: they travel through `EngineSpec` into
//! every shard and survive `ServiceState` snapshot/restore/reshard.

use crate::router::DEFAULT_BATCH;
use nvmetro_sim::{Ns, US};

/// How a shard spends cycles when its queues go quiet.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PollPolicy {
    /// Unconditional busy-poll (the pre-policy behaviour, and the
    /// default): lowest latency, idle shards keep burning their core.
    #[default]
    Spin,
    /// The poll governor: spin for `idle_spin` after the last arrival,
    /// then duty-cycle (yield) until `park_after`, then park — an
    /// event-driven sleep that costs ~0 CPU and is ended by the next
    /// doorbell/notify kick (modelled as a wakeup deadline in
    /// `next_event`). Per-queue arrival EWMAs pull the park point earlier
    /// when the observed rate says the queue has truly gone idle.
    Adaptive {
        /// Full-rate spin window after the last observed work.
        idle_spin: Ns,
        /// Upper bound on time-to-park after the last observed work.
        park_after: Ns,
    },
}

impl PollPolicy {
    /// The adaptive preset: spin 8 µs, park by 64 µs.
    pub fn adaptive() -> Self {
        PollPolicy::Adaptive {
            idle_spin: 8 * US,
            park_after: 64 * US,
        }
    }
}

/// The engine's complete datapath policy: one value, threaded through
/// `RouterBuilder::policy`, `EngineSpec`, and `ServiceState`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EnginePolicy {
    /// Idle-cycle behaviour per shard.
    pub poll: PollPolicy,
    /// Entries drained per SQ visit and CQEs coalesced per doorbell, per
    /// shard (a shard treats 0 as 1).
    pub batch: usize,
}

impl Default for EnginePolicy {
    fn default() -> Self {
        EnginePolicy {
            poll: PollPolicy::default(),
            batch: DEFAULT_BATCH,
        }
    }
}

impl EnginePolicy {
    /// The defaults: spin and [`DEFAULT_BATCH`] — bit-for-bit the
    /// pre-policy engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the poll policy.
    pub fn poll(mut self, poll: PollPolicy) -> Self {
        self.poll = poll;
        self
    }

    /// Sets the batch bound.
    pub fn batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_reproduce_legacy_knobs() {
        let p = EnginePolicy::default();
        assert_eq!(p.poll, PollPolicy::Spin);
        assert_eq!(p.batch, DEFAULT_BATCH);
    }
}
