//! Bridges the live engine into the recorder's neutral data model: the
//! gauge/policy converters and the [`EngineDump`] extension trait behind
//! explicit `Engine::dump()`.
//!
//! The insight crate sits below core in the dependency order, so its
//! [`EngineGauges`] cannot be built there from an `EngineStats`; this
//! module owns that conversion instead.

use crate::bundle::{DumpBundle, PolicySummary, TriggerReason};
use crate::recorder::Blackbox;
use nvmetro_core::{Engine, EnginePolicy, EngineStats, PollPolicy};
use nvmetro_insight::{BreakerGauge, EngineGauges, TenantGauge};
use nvmetro_sim::Ns;
use nvmetro_telemetry::Telemetry;

/// Converts a live [`EngineStats`] snapshot into the neutral per-shard
/// gauge set the dump bundle (and Prometheus export) carries.
pub fn engine_gauges(stats: &EngineStats) -> EngineGauges {
    EngineGauges {
        poll_modes: stats.poll_modes.iter().map(|m| m.name()).collect(),
        batch_sizes: stats.batch_sizes.clone(),
        // Shards are not pinned: shard i reports core i, as the
        // round-robin numbering the NVBB gauge block records always did.
        shard_cores: (0..stats.batch_sizes.len()).collect(),
        occupancy: stats.occupancy,
        high_water: stats.high_water,
        tenants: stats
            .tenants
            .iter()
            .map(|t| TenantGauge {
                shard: t.shard,
                tenant: t.view.tenant,
                throttle_permille: t.view.throttle_permille,
                deficit: t.view.deficit,
                admitted: t.view.admitted,
                throttled: t.view.throttled,
            })
            .collect(),
        breakers: stats
            .breakers
            .iter()
            .map(|b| BreakerGauge {
                shard: b.shard,
                vm: b.vm_id,
                open: b.open,
                opens: b.opens,
            })
            .collect(),
    }
}

/// Renders the active [`EnginePolicy`] to the bundle's string form. The
/// bundle's `placement` and `workers` fields keep the values every engine
/// runs with: round-robin shard numbering and one worker per shard.
pub fn policy_summary(p: &EnginePolicy) -> PolicySummary {
    PolicySummary {
        poll: match p.poll {
            PollPolicy::Spin => "spin".to_string(),
            PollPolicy::Adaptive {
                idle_spin,
                park_after,
            } => format!("adaptive(idle_spin={idle_spin}ns, park_after={park_after}ns)"),
        },
        batch: format!("fixed({})", p.batch),
        placement: "round_robin".to_string(),
        workers: 1,
    }
}

/// Explicit postmortem dumps off a live engine: feeds the engine's
/// current gauges and policy into the recorder ring, then produces a
/// [`DumpBundle`] with [`TriggerReason::Manual`].
pub trait EngineDump {
    /// Captures a manual dump bundle at virtual time `now`.
    fn dump(&self, bb: &Blackbox, telemetry: &Telemetry, now: Ns) -> DumpBundle;
}

impl EngineDump for Engine {
    fn dump(&self, bb: &Blackbox, telemetry: &Telemetry, now: Ns) -> DumpBundle {
        bb.feed_gauges(engine_gauges(&self.stats()));
        bb.feed_policy(policy_summary(self.policy()));
        bb.dump_now(telemetry, TriggerReason::Manual, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_summary_renders_each_variant() {
        let p = EnginePolicy::default();
        let s = policy_summary(&p);
        assert_eq!(s.poll, "spin");
        assert_eq!(s.placement, "round_robin");
        assert_eq!(s.workers, 1);

        let p = EnginePolicy {
            poll: PollPolicy::Adaptive {
                idle_spin: 8_000,
                park_after: 64_000,
            },
            batch: 16,
        };
        let s = policy_summary(&p);
        assert!(s.poll.starts_with("adaptive("));
        assert_eq!(s.batch, "fixed(16)");
    }
}
