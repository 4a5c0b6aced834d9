//! Per-tenant admission scheduling for a router shard's drain loop.
//!
//! Each shard owns one [`TenantScheduler`]. Per poll round the router asks
//! it, tenant by tenant, whether the next guest submission may be
//! admitted. Two mechanisms compose:
//!
//! * **Weighted deficit round-robin** — every round each backlogged
//!   tenant's deficit grows by `quantum × weight`; admitting a request
//!   spends one unit. A tenant whose deficit runs dry is preempted for the
//!   round, so a flooding VM cannot monopolise the drain loop no matter
//!   how deep its VSQs are. Deficit carries over while backlogged (classic
//!   DRR) and resets when the tenant's queues drain empty.
//! * **Token-bucket admission** — tenants with a configured
//!   [`RateLimit`] additionally spend one token per request, refilled at
//!   `iops` per second up to `burst`. The effective rate is scaled by the
//!   tenant's [`TenantGovernor`](crate::TenantGovernor) throttle knob, so
//!   the insight feedback loop can tighten a noisy tenant's bucket at run
//!   time without touching the shard.
//!
//! The scheduler is deliberately clock-driven rather than event-driven:
//! refill is computed lazily from elapsed virtual time on each admission
//! attempt, in integer arithmetic (`period = 1s / effective_iops`), so it
//! is deterministic under the virtual-time executor.

use crate::governor::{TenantCell, TenantGovernor, FULL_RATE};
use nvmetro_sim::{Ns, SEC};
use std::collections::HashMap;
use std::sync::Arc;

/// Token-bucket rate limit: sustained `iops` with up to `burst` tokens
/// banked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RateLimit {
    /// Sustained admissions per second.
    pub iops: u64,
    /// Maximum banked tokens (bucket depth).
    pub burst: u64,
}

impl RateLimit {
    /// A limit of `iops` sustained with a quarter-second burst bank
    /// (minimum 8 tokens).
    pub fn per_second(iops: u64) -> Self {
        RateLimit {
            iops,
            burst: (iops / 4).max(8),
        }
    }
}

/// Per-tenant scheduling parameters.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// Tenant (VM) id.
    pub tenant: u32,
    /// DRR weight; deficit grows by `quantum × weight` per round.
    pub weight: u32,
    /// Optional token-bucket admission limit.
    pub rate: Option<RateLimit>,
}

/// Configuration for the fleet scheduler, shared by every shard of an
/// engine. Cloning is cheap; the embedded governor is a shared handle, so
/// all shards built from one config feed the same control plane.
#[derive(Clone)]
pub struct FleetConfig {
    /// Base DRR quantum (requests per round at weight 1).
    pub quantum: u32,
    /// Weight for tenants without an explicit [`TenantSpec`].
    pub default_weight: u32,
    /// Rate limit for tenants without an explicit [`TenantSpec`].
    pub default_rate: Option<RateLimit>,
    /// Explicit per-tenant overrides.
    pub tenants: Vec<TenantSpec>,
    /// Shared control plane (throttle knobs + admission counters).
    pub governor: TenantGovernor,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            quantum: 8,
            default_weight: 1,
            default_rate: None,
            tenants: Vec::new(),
            governor: TenantGovernor::new(),
        }
    }
}

impl FleetConfig {
    /// Sets the base DRR quantum.
    pub fn quantum(mut self, quantum: u32) -> Self {
        self.quantum = quantum.max(1);
        self
    }

    /// Sets the default rate limit for tenants without an override.
    pub fn default_rate(mut self, rate: RateLimit) -> Self {
        self.default_rate = Some(rate);
        self
    }

    /// Adds an explicit per-tenant override.
    pub fn tenant(mut self, spec: TenantSpec) -> Self {
        self.tenants.push(spec);
        self
    }
}

/// Outcome of one admission attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admit {
    /// Request admitted; deficit and (if limited) one token were spent.
    Granted,
    /// Token bucket empty: the tenant is over its (possibly throttled)
    /// rate. Retry next poll.
    Throttled,
    /// DRR deficit exhausted: the tenant used up its share of this round
    /// and is preempted in favour of other tenants.
    Exhausted,
}

/// Rounds of unspent quantum a backlogged tenant may bank. Bounds the
/// post-idle burst the same way `burst` bounds the token bank.
const DEFICIT_BANK_ROUNDS: u64 = 4;

struct TenantState {
    tenant: u32,
    weight: u32,
    deficit: u64,
    /// Round this tenant last received its quantum grant.
    granted_round: u64,
    rate: Option<RateLimit>,
    tokens: u64,
    last_refill: Ns,
    cell: Arc<TenantCell>,
    admitted: u64,
    throttled: u64,
    preempted: u64,
}

/// Point-in-time view of one tenant's scheduler state on one shard, for
/// `EngineStats`.
#[derive(Clone, Copy, Debug)]
pub struct TenantView {
    /// Tenant (VM) id.
    pub tenant: u32,
    /// DRR weight.
    pub weight: u32,
    /// Unspent DRR deficit (requests).
    pub deficit: u64,
    /// Tokens remaining in the bucket (`u64::MAX` when unlimited).
    pub tokens: u64,
    /// Configured rate limit, if any.
    pub rate: Option<RateLimit>,
    /// Governor throttle scale in permille (1000 = unthrottled).
    pub throttle_permille: u32,
    /// Requests admitted on this shard.
    pub admitted: u64,
    /// Token denials on this shard.
    pub throttled: u64,
    /// Round preemptions on this shard.
    pub preempted: u64,
}

/// One shard's per-tenant admission scheduler. See the module docs.
pub struct TenantScheduler {
    quantum: u32,
    default_weight: u32,
    default_rate: Option<RateLimit>,
    overrides: HashMap<u32, (u32, Option<RateLimit>)>,
    governor: TenantGovernor,
    states: Vec<TenantState>,
    index: HashMap<u32, usize>,
    round: u64,
}

impl TenantScheduler {
    /// Builds a shard scheduler from the shared fleet configuration.
    pub fn new(cfg: &FleetConfig) -> Self {
        let overrides = cfg
            .tenants
            .iter()
            .map(|t| (t.tenant, (t.weight.max(1), t.rate)))
            .collect();
        TenantScheduler {
            quantum: cfg.quantum.max(1),
            default_weight: cfg.default_weight.max(1),
            default_rate: cfg.default_rate,
            overrides,
            governor: cfg.governor.clone(),
            states: Vec::new(),
            index: HashMap::new(),
            round: 0,
        }
    }

    /// The shared control plane this scheduler reports to.
    pub fn governor(&self) -> &TenantGovernor {
        &self.governor
    }

    /// Resolves (registering on first sight) the scheduler slot for a
    /// tenant. Slots are stable for the scheduler's lifetime.
    pub fn slot(&mut self, tenant: u32) -> usize {
        if let Some(&i) = self.index.get(&tenant) {
            return i;
        }
        let (weight, rate) = self
            .overrides
            .get(&tenant)
            .copied()
            .unwrap_or((self.default_weight, self.default_rate));
        let cell = self.governor.cell(tenant);
        let tokens = rate.map_or(0, |r| r.burst.max(1));
        let i = self.states.len();
        self.states.push(TenantState {
            tenant,
            weight,
            deficit: 0,
            granted_round: 0,
            rate,
            tokens,
            last_refill: 0,
            cell,
            admitted: 0,
            throttled: 0,
            preempted: 0,
        });
        self.index.insert(tenant, i);
        i
    }

    /// Starts a new DRR round. Quantum grants are applied lazily on the
    /// first admission attempt of each tenant in the round.
    pub fn new_round(&mut self) {
        self.round += 1;
    }

    /// Asks to admit one request for the tenant in `slot` at virtual time
    /// `now`. Call only when the tenant actually has a request queued.
    pub fn admit(&mut self, slot: usize, now: Ns) -> Admit {
        let quantum = self.quantum as u64;
        let s = &mut self.states[slot];
        if s.granted_round != self.round {
            s.granted_round = self.round;
            let grant = quantum * s.weight as u64;
            s.deficit = (s.deficit + grant).min(grant * DEFICIT_BANK_ROUNDS);
        }
        if s.deficit == 0 {
            s.preempted += 1;
            return Admit::Exhausted;
        }
        if let Some(rate) = s.rate {
            refill(s, rate, now);
            if s.tokens == 0 {
                s.throttled += 1;
                s.cell.note_throttled();
                return Admit::Throttled;
            }
            s.tokens -= 1;
        }
        s.deficit -= 1;
        s.admitted += 1;
        s.cell.note_admitted();
        Admit::Granted
    }

    /// Earliest virtual time `slot`'s bucket will hold a token again —
    /// the router's wake-up hint after a [`Admit::Throttled`] denial.
    /// Returns `now` when tokens are already available or the tenant is
    /// unlimited. Computed with the *current* throttle scale; a later
    /// relaxation only makes the hint conservative (early), never late.
    pub fn next_token_at(&self, slot: usize, now: Ns) -> Ns {
        let s = &self.states[slot];
        let Some(rate) = s.rate else {
            return now;
        };
        if s.tokens > 0 {
            return now;
        }
        let permille = s.cell.throttle().clamp(1, FULL_RATE) as u64;
        let eff_iops = (rate.iops * permille / FULL_RATE as u64).max(1);
        let period = (SEC / eff_iops).max(1);
        (s.last_refill + period).max(now)
    }

    /// Ends the round's visit to `slot`. `drained_empty` means every VSQ
    /// of the tenant is now empty: per classic DRR, an un-backlogged
    /// tenant forfeits its unspent deficit (it keeps banked tokens).
    pub fn end_visit(&mut self, slot: usize, drained_empty: bool) {
        if drained_empty {
            self.states[slot].deficit = 0;
        }
    }

    /// Per-tenant state view for stats surfaces, sorted by tenant id.
    pub fn view(&self) -> Vec<TenantView> {
        let mut out: Vec<TenantView> = self
            .states
            .iter()
            .map(|s| TenantView {
                tenant: s.tenant,
                weight: s.weight,
                deficit: s.deficit,
                tokens: if s.rate.is_some() { s.tokens } else { u64::MAX },
                rate: s.rate,
                throttle_permille: s.cell.throttle(),
                admitted: s.admitted,
                throttled: s.throttled,
                preempted: s.preempted,
            })
            .collect();
        out.sort_by_key(|v| v.tenant);
        out
    }
}

/// Lazily refills the token bucket from elapsed virtual time. Integer
/// period accounting: one token every `1s / effective_iops`, where the
/// effective rate is the configured rate scaled by the governor throttle.
/// `last_refill` advances by whole periods only, so fractional credit is
/// never lost.
fn refill(s: &mut TenantState, rate: RateLimit, now: Ns) {
    let permille = s.cell.throttle().clamp(1, FULL_RATE) as u64;
    let eff_iops = (rate.iops * permille / FULL_RATE as u64).max(1);
    let period = (SEC / eff_iops).max(1);
    if now <= s.last_refill {
        return;
    }
    let earned = (now - s.last_refill) / period;
    if earned == 0 {
        return;
    }
    let burst = rate.burst.max(1);
    if s.tokens + earned >= burst {
        s.tokens = burst;
        // Bucket is full: further banking is forfeited, restart the clock.
        s.last_refill = now;
    } else {
        s.tokens += earned;
        s.last_refill += earned * period;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmetro_sim::MS;

    fn sched_with(tenants: Vec<TenantSpec>) -> TenantScheduler {
        let cfg = FleetConfig {
            quantum: 4,
            tenants,
            ..FleetConfig::default()
        };
        TenantScheduler::new(&cfg)
    }

    #[test]
    fn drr_preempts_after_quantum_and_carries_deficit() {
        let mut s = sched_with(vec![
            TenantSpec {
                tenant: 0,
                weight: 1,
                rate: None,
            },
            TenantSpec {
                tenant: 1,
                weight: 2,
                rate: None,
            },
        ]);
        let a = s.slot(0);
        let b = s.slot(1);
        s.new_round();
        let mut got_a = 0;
        while s.admit(a, 0) == Admit::Granted {
            got_a += 1;
        }
        let mut got_b = 0;
        while s.admit(b, 0) == Admit::Granted {
            got_b += 1;
        }
        assert_eq!(got_a, 4); // quantum × weight 1
        assert_eq!(got_b, 8); // quantum × weight 2
                              // Still backlogged (end_visit not drained-empty): deficit banks
                              // into the next round, capped at DEFICIT_BANK_ROUNDS grants.
        s.end_visit(a, false);
        s.new_round();
        assert_eq!(s.admit(a, 0), Admit::Granted);
    }

    #[test]
    fn drained_tenant_forfeits_deficit() {
        let mut s = sched_with(vec![]);
        let a = s.slot(9);
        s.new_round();
        assert_eq!(s.admit(a, 0), Admit::Granted);
        s.end_visit(a, true);
        let v = &s.view()[0];
        assert_eq!(v.deficit, 0);
        assert_eq!(v.tenant, 9);
    }

    #[test]
    fn token_bucket_paces_to_rate_and_honors_throttle() {
        // 1000 IOPS, burst 2 → one token per millisecond.
        let mut s = sched_with(vec![TenantSpec {
            tenant: 3,
            weight: 100, // deficit never the binding constraint here
            rate: Some(RateLimit {
                iops: 1000,
                burst: 2,
            }),
        }]);
        let slot = s.slot(3);
        s.new_round();
        assert_eq!(s.admit(slot, 0), Admit::Granted);
        assert_eq!(s.admit(slot, 0), Admit::Granted);
        assert_eq!(s.admit(slot, 0), Admit::Throttled);
        assert_eq!(s.admit(slot, MS - 1), Admit::Throttled);
        assert_eq!(s.admit(slot, MS), Admit::Granted);
        // Throttle to half rate: next token takes 2 ms.
        s.governor().set_throttle(3, 500);
        assert_eq!(s.admit(slot, MS + MS), Admit::Throttled);
        assert_eq!(s.admit(slot, MS + 2 * MS), Admit::Granted);
        let v = &s.view()[0];
        assert_eq!(v.throttle_permille, 500);
        assert!(v.throttled >= 3);
    }

    /// The router's doorbell page lets a drain round skip tenants whose
    /// queues were empty at their last visit. That must be invisible to
    /// the scheduler: over random arrivals, weights, rate limits and
    /// throttle changes, a drain that visits every tenant every round and
    /// one that visits only tenants with a set bell (set by an arrival,
    /// kept by a visit that left backlog) hold identical state after
    /// every round.
    #[test]
    fn visiting_only_backlogged_tenants_leaves_identical_state() {
        const TENANTS: usize = 24;
        const BATCH: u32 = 6;
        for seed in 0..40u64 {
            let mut rng = nvmetro_sim::SimRng::new(0xbe11 + seed);
            let specs: Vec<TenantSpec> = (0..TENANTS as u32)
                .map(|tenant| TenantSpec {
                    tenant,
                    weight: 1 + rng.below(3) as u32,
                    rate: rng.chance(0.4).then(|| RateLimit {
                        iops: 20_000 + rng.below(200_000),
                        burst: 1 + rng.below(6),
                    }),
                })
                .collect();
            let build = || {
                let mut s = TenantScheduler::new(&FleetConfig {
                    quantum: 2,
                    tenants: specs.clone(),
                    ..FleetConfig::default()
                });
                let slots: Vec<usize> = (0..TENANTS as u32).map(|t| s.slot(t)).collect();
                (s, slots)
            };
            let (mut all, slots) = build();
            let (mut rung_only, _) = build();
            let mut queued = [[0u32; TENANTS]; 2];
            let mut bell = [false; TENANTS];
            let mut now: Ns = 0;
            // One tenant's visit, as the router's drain makes it.
            let visit = |s: &mut TenantScheduler, slot: usize, queued: &mut u32, now: Ns| {
                let mut denied = false;
                for _ in 0..BATCH {
                    if *queued == 0 {
                        break;
                    }
                    if s.admit(slot, now) != Admit::Granted {
                        denied = true;
                        break;
                    }
                    *queued -= 1;
                }
                let drained_empty = !denied && *queued == 0;
                s.end_visit(slot, drained_empty);
                drained_empty
            };
            for round in 0..400 {
                now += 1 + rng.below(30_000);
                for t in 0..TENANTS {
                    // Mostly idle tenants, a few bursty ones.
                    if rng.chance(if t < 4 { 0.6 } else { 0.05 }) {
                        let n = 1 + rng.below(12) as u32;
                        queued[0][t] += n;
                        queued[1][t] += n;
                        bell[t] = true;
                    }
                }
                if round % 50 == 49 {
                    // Both schedulers read their own governor's knob.
                    let permille = 100 + rng.below(900) as u32;
                    let t = rng.below(TENANTS as u64) as u32;
                    all.governor().set_throttle(t, permille);
                    rung_only.governor().set_throttle(t, permille);
                }
                let start = round % TENANTS;
                all.new_round();
                rung_only.new_round();
                for k in 0..TENANTS {
                    let t = (start + k) % TENANTS;
                    visit(&mut all, slots[t], &mut queued[0][t], now);
                    if std::mem::take(&mut bell[t]) {
                        bell[t] = !visit(&mut rung_only, slots[t], &mut queued[1][t], now);
                    }
                }
                assert_eq!(queued[0], queued[1], "seed {seed} round {round}");
                let (a, b) = (all.view(), rung_only.view());
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(
                        (
                            x.tenant,
                            x.deficit,
                            x.tokens,
                            x.admitted,
                            x.throttled,
                            x.preempted
                        ),
                        (
                            y.tenant,
                            y.deficit,
                            y.tokens,
                            y.admitted,
                            y.throttled,
                            y.preempted
                        ),
                        "seed {seed} round {round}"
                    );
                }
            }
            assert!(all.view().iter().any(|v| v.preempted > 0), "seed {seed}");
        }
    }

    #[test]
    fn burst_caps_idle_banking() {
        let mut s = sched_with(vec![TenantSpec {
            tenant: 1,
            weight: 100,
            rate: Some(RateLimit {
                iops: 1000,
                burst: 4,
            }),
        }]);
        let slot = s.slot(1);
        s.new_round();
        // Drain the initial bank...
        while s.admit(slot, 0) == Admit::Granted {}
        // ...then a full idle second earns 1000 periods but banks only 4.
        let mut granted = 0;
        while s.admit(slot, SEC) == Admit::Granted {
            granted += 1;
        }
        assert_eq!(granted, 4);
    }
}
