//! The sharded datapath engine and its builder.
//!
//! The paper sizes the router as "worker threads" (plural): a production
//! deployment gives each VM one VSQ/VCQ pair per vCPU and spreads the queue
//! pairs over a pool of router shards, each pinned to its own core. This
//! module is that deployment's front door:
//!
//! * [`RouterBuilder`] is the one typed, ordered construction path for the
//!   datapath: shards, batch, recovery, telemetry and VM bindings in a
//!   single fluent chain (the old `Router` setter sprawl is gone);
//! * [`EngineVm`] describes a VM as a set of [`QueueBinding`] queue groups
//!   (per-vCPU queues); groups are partitioned round-robin across shards in
//!   bind order, so `group g → shard g % shards` — deterministic, and a
//!   single-group VM on a single-shard engine reproduces the legacy
//!   one-router layout bit for bit;
//! * [`Engine`] owns the shards and offers the two deployment modes as one
//!   decision point: [`Engine::run_virtual`] hands every shard to the
//!   discrete-event executor, [`Engine::spawn_threads`] puts each shard on
//!   its own OS thread behind a [`Pool`];
//! * [`EngineStats`] merges per-shard counters and breaker states so
//!   callers stop reaching into shard internals.
//!
//! Shards share nothing on the hot path: each has its own routing table,
//! classifier instances, circuit breakers, retry/timer state, and telemetry
//! worker cell — the scaling claim of the sharded design.

use crate::adaptive::PollMode;
use crate::classify::Classifier;
use crate::controller::Partition;
use crate::policy::EnginePolicy;
use crate::recovery::RecoveryConfig;
use crate::router::{KernelPath, NotifyBinding, Router, RouterStats, VmBinding};
use crate::servicing::{
    SavedBreaker, SavedCqe, SavedGroup, SavedRequest, SavedRetry, SavedTenant, ServiceError,
    ServiceState,
};
use crate::threading::Pool;
use nvmetro_fleet::{CoalesceConfig, FleetConfig, TenantView};
use nvmetro_mem::GuestMemory;
use nvmetro_nvme::{CompletionEntry, CqConsumer, CqProducer, SqConsumer, SqProducer, Status};
use nvmetro_sim::cost::CostModel;
use nvmetro_sim::{Actor, Executor, Ns, Progress};
use nvmetro_telemetry::{Metric, Telemetry, TelemetryHandle};
use std::collections::HashMap;
use std::sync::Arc;

/// One shard-assignable queue group of a VM: a set of virtual queues plus
/// the group's private path endpoints and classifier instance. A VM with
/// per-vCPU queues binds one group per vCPU; each group lands on exactly
/// one shard, so nothing in it is ever shared across threads.
pub struct QueueBinding {
    /// Router-side ends of the group's virtual submission queues.
    pub vsqs: Vec<SqConsumer>,
    /// Router-side ends of the group's virtual completion queues.
    pub vcqs: Vec<CqProducer>,
    /// Fast path: producer end of the group's host submission queue.
    pub hsq: SqProducer,
    /// Fast path: consumer end of the group's host completion queue.
    pub hcq: CqConsumer,
    /// Optional kernel path.
    pub kernel: Option<Box<dyn KernelPath>>,
    /// Optional notify path (UIF).
    pub notify: Option<NotifyBinding>,
    /// The group's classifier instance (per-shard: no cross-shard state).
    pub classifier: Classifier,
}

/// A VM as the engine sees it: identity, memory, partition bounds, and one
/// or more queue groups to spread across shards.
pub struct EngineVm {
    /// VM identifier (classifier context field).
    pub vm_id: u32,
    /// The VM's guest memory.
    pub mem: Arc<GuestMemory>,
    /// Partition bounds enforced on every fast-path send.
    pub partition: Partition,
    /// The VM's queue groups, in queue-pair order.
    pub queues: Vec<QueueBinding>,
}

/// A legacy single-queue-group binding is a VM with one group — the whole
/// VM lands on one shard, exactly the pre-sharding layout.
impl From<VmBinding> for EngineVm {
    fn from(b: VmBinding) -> Self {
        EngineVm {
            vm_id: b.vm_id,
            mem: b.mem,
            partition: b.partition,
            queues: vec![QueueBinding {
                vsqs: b.vsqs,
                vcqs: b.vcqs,
                hsq: b.hsq,
                hcq: b.hcq,
                kernel: b.kernel,
                notify: b.notify,
                classifier: b.classifier,
            }],
        }
    }
}

/// Where one queue group ended up: which shard, and at which VM slot
/// within that shard (the index `Router::breaker`/`classifier_mut` take).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Placement {
    /// Owning VM id.
    pub vm_id: u32,
    /// Index of the queue group within its VM, in bind order.
    pub queue_group: usize,
    /// Shard the group was assigned to.
    pub shard: usize,
    /// VM slot within that shard.
    pub slot: usize,
}

/// Typed construction path for the sharded datapath.
///
/// ```ignore
/// let engine = RouterBuilder::new("router")
///     .cost(cost)
///     .shards(4)
///     .table_capacity(4096)
///     .recovery(RecoveryConfig::default())
///     .telemetry(&telemetry)
///     .vm(binding)
///     .build();
/// ```
pub struct RouterBuilder {
    name: String,
    cost: CostModel,
    shards: usize,
    policy: EnginePolicy,
    table_capacity: usize,
    recovery: Option<RecoveryConfig>,
    telemetry: Telemetry,
    fleet: Option<FleetConfig>,
    coalesce: Option<CoalesceConfig>,
    vms: Vec<EngineVm>,
}

impl RouterBuilder {
    /// Starts a builder with the defaults: one shard, the default
    /// [`EnginePolicy`] (always-spin polling, the default batch), a
    /// 1024-entry routing table, no recovery, disabled telemetry.
    pub fn new(name: &str) -> Self {
        RouterBuilder {
            name: name.to_string(),
            cost: CostModel::default(),
            shards: 1,
            policy: EnginePolicy::default(),
            table_capacity: 1024,
            recovery: None,
            telemetry: Telemetry::disabled(),
            fleet: None,
            coalesce: None,
            vms: Vec::new(),
        }
    }

    /// Calibration constants for the shards' station costs.
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Number of router shards (≥ 1). Queue groups are partitioned across
    /// them round-robin in bind order.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// The engine's datapath policy in one typed value: poll governor and
    /// batch bound. The policy survives servicing snapshot/restore and
    /// reshard.
    pub fn policy(mut self, policy: EnginePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Per-shard routing-table capacity (bounds concurrent in-flight
    /// requests per shard).
    pub fn table_capacity(mut self, capacity: usize) -> Self {
        self.table_capacity = capacity;
        self
    }

    /// Turns the recovery engine on for every shard (deadline abort,
    /// bounded retry, per-VM circuit breakers).
    pub fn recovery(mut self, cfg: RecoveryConfig) -> Self {
        self.recovery = Some(cfg);
        self
    }

    /// Registers one telemetry worker per shard from this registry. A
    /// disabled registry (the default) costs one branch per probe.
    pub fn telemetry(mut self, registry: &Telemetry) -> Self {
        self.telemetry = registry.clone();
        self
    }

    /// Turns the fleet scheduler on for every shard: the VSQ drain
    /// switches from FIFO visit order to weighted deficit-round-robin
    /// over tenants with token-bucket admission. All shards share the
    /// config's [`TenantGovernor`](nvmetro_fleet::TenantGovernor), so one
    /// control plane sees (and throttles) every shard.
    pub fn fleet(mut self, cfg: FleetConfig) -> Self {
        self.fleet = Some(cfg);
        self
    }

    /// Turns cross-VM read coalescing on for every shard: concurrent
    /// duplicate fast-path reads (same post-mediation LBA range) issue one
    /// device command and fan the completion out. Note coalescing works
    /// *within* a shard — requests meet in its routing table — so tenants
    /// sharing a dataset coalesce best when their queue groups land on the
    /// same shard.
    pub fn coalesce(mut self, cfg: CoalesceConfig) -> Self {
        self.coalesce = Some(cfg);
        self
    }

    /// Adds a VM. Accepts a full [`EngineVm`] (multi-queue) or a legacy
    /// [`VmBinding`] (one queue group).
    pub fn vm(mut self, vm: impl Into<EngineVm>) -> Self {
        self.vms.push(vm.into());
        self
    }

    /// Builds the shards and partitions every queue group across them.
    pub fn build(self) -> Engine {
        let spec = EngineSpec {
            name: self.name,
            cost: self.cost,
            shards: self.shards,
            policy: self.policy,
            table_capacity: self.table_capacity,
            recovery: self.recovery,
            telemetry: self.telemetry,
            fleet: self.fleet,
            coalesce: self.coalesce,
        };
        Engine::assemble(spec, self.vms, 1)
    }
}

/// Everything needed to build the engine's shards again from scratch —
/// the builder's knobs, minus the (unclonable) VM bindings. A servicing
/// restore re-runs shard construction from this, possibly with a
/// different shard count.
#[derive(Clone)]
pub(crate) struct EngineSpec {
    name: String,
    cost: CostModel,
    shards: usize,
    pub(crate) policy: EnginePolicy,
    table_capacity: usize,
    recovery: Option<RecoveryConfig>,
    telemetry: Telemetry,
    fleet: Option<FleetConfig>,
    coalesce: Option<CoalesceConfig>,
}

/// Per-VM breaker state as seen from outside the shards.
#[derive(Clone, Copy, Debug)]
pub struct BreakerState {
    /// Shard the breaker lives on.
    pub shard: usize,
    /// Owning VM id.
    pub vm_id: u32,
    /// Whether the breaker is currently open (fast path denied).
    pub open: bool,
    /// Times the breaker has opened so far.
    pub opens: u64,
}

/// One tenant's fleet-scheduler state on one shard, as surfaced by
/// [`EngineStats`]: who is being limited, and why (tokens gone, deficit
/// spent, or a feedback throttle in force).
#[derive(Clone, Copy, Debug)]
pub struct TenantState {
    /// Shard the scheduler slot lives on.
    pub shard: usize,
    /// Scheduler view: tenant id, weight, deficit, tokens remaining,
    /// configured rate, throttle scale, and admission counters.
    pub view: TenantView,
}

/// Aggregated view over every shard: merged counters, per-shard
/// breakdowns, breaker states, per-tenant scheduler state, and table
/// high-water marks.
#[derive(Clone, Debug, Default)]
pub struct EngineStats {
    /// Field-wise sum of every shard's counters.
    pub total: RouterStats,
    /// Each shard's own counters, in shard order.
    pub per_shard: Vec<RouterStats>,
    /// Every (shard, VM) circuit breaker, in shard-then-slot order (empty
    /// when recovery is off).
    pub breakers: Vec<BreakerState>,
    /// Every (shard, tenant) fleet-scheduler slot, in shard-then-tenant
    /// order (empty when fleet mode is off).
    pub tenants: Vec<TenantState>,
    /// Highest routing-table occupancy any shard reached (across restores:
    /// includes the pre-snapshot peak carried by servicing).
    pub high_water: usize,
    /// Requests currently occupying routing-table slots across all shards
    /// (incl. quarantined tags), read in the same pass as the counters and
    /// breaker states.
    pub occupancy: usize,
    /// Each shard's poll-governor mode at snapshot time, in shard order
    /// ([`PollMode::Spin`] everywhere when the poll policy is `Spin`).
    pub poll_modes: Vec<PollMode>,
    /// Each shard's batch bound, in shard order.
    pub batch_sizes: Vec<usize>,
}

impl EngineStats {
    /// Whether any shard's breaker for `vm_id` is currently open.
    pub fn breaker_open(&self, vm_id: u32) -> bool {
        self.breakers.iter().any(|b| b.vm_id == vm_id && b.open)
    }

    /// Total breaker opens for `vm_id` across shards.
    pub fn breaker_opens(&self, vm_id: u32) -> u64 {
        self.breakers
            .iter()
            .filter(|b| b.vm_id == vm_id)
            .map(|b| b.opens)
            .sum()
    }

    /// Whether any shard's scheduler currently has `vm_id` throttled
    /// below full rate.
    pub fn tenant_throttled(&self, vm_id: u32) -> bool {
        self.tenants
            .iter()
            .any(|t| t.view.tenant == vm_id && t.view.throttle_permille < nvmetro_fleet::FULL_RATE)
    }

    /// Requests admitted for `vm_id` across all shards.
    pub fn tenant_admitted(&self, vm_id: u32) -> u64 {
        self.tenants
            .iter()
            .filter(|t| t.view.tenant == vm_id)
            .map(|t| t.view.admitted)
            .sum()
    }

    /// Renders the per-tenant scheduler table (one row per shard×tenant):
    /// weight, deficit, tokens, throttle, and admission counters — the
    /// snapshot view of who is being limited and why.
    pub fn tenant_table(&self) -> String {
        let mut out = String::from(
            "shard tenant weight deficit tokens throttle admitted throttled preempted\n",
        );
        for t in &self.tenants {
            let tokens = if t.view.tokens == u64::MAX {
                "-".to_string()
            } else {
                t.view.tokens.to_string()
            };
            out.push_str(&format!(
                "{:>5} {:>6} {:>6} {:>7} {:>6} {:>7}‰ {:>8} {:>9} {:>9}\n",
                t.shard,
                t.view.tenant,
                t.view.weight,
                t.view.deficit,
                tokens,
                t.view.throttle_permille,
                t.view.admitted,
                t.view.throttled,
                t.view.preempted,
            ));
        }
        out
    }
}

/// The sharded datapath: a pool of [`Router`] shards plus the record of
/// where every queue group landed, the spec to rebuild the shards from
/// (servicing), and the counters carried over from pre-restore epochs.
pub struct Engine {
    shards: Vec<Router>,
    placements: Vec<Placement>,
    spec: EngineSpec,
    /// Global queue-group counter: hot attach continues the round-robin
    /// where the last bind left off instead of restarting at shard 0.
    next_group: usize,
    /// Engine generation (starts at 1; restore/reshard bump it).
    generation: u32,
    /// Lifetime counters accumulated by pre-restore epochs; `stats()`
    /// reports these plus what the current shards have seen.
    carried: RouterStats,
    /// Peak table occupancy across pre-restore epochs.
    carried_high_water: usize,
    /// Telemetry worker for engine-level servicing events (snapshots,
    /// restores, reshards, attach/detach).
    svc: TelemetryHandle,
}

/// The non-serializable remains of a snapshotted engine: the construction
/// spec plus the live queue endpoints, one [`VmBinding`] per queue group
/// in the snapshot's group order. Hand them to [`Engine::restore`] (or
/// [`Engine::restore_with_shards`]) together with the [`ServiceState`].
pub struct EngineParts {
    spec: EngineSpec,
    bindings: Vec<VmBinding>,
}

impl EngineParts {
    /// Queue groups held, in the snapshot's group order.
    pub fn group_count(&self) -> usize {
        self.bindings.len()
    }
}

impl Engine {
    /// Builds shards from `spec` and binds `vms` round-robin — the single
    /// construction path shared by [`RouterBuilder::build`] and the
    /// servicing restore.
    fn assemble(spec: EngineSpec, vms: Vec<EngineVm>, generation: u32) -> Engine {
        let shard_count = spec.shards;
        let shards: Vec<Router> = (0..shard_count)
            .map(|i| {
                // A single-shard engine keeps the bare name so CPU reports
                // and existing expectations (`cpu_of("router")`) line up.
                let name = if shard_count == 1 {
                    spec.name.clone()
                } else {
                    format!("{}.{}", spec.name, i)
                };
                let mut r = Router::new(&name, spec.cost.clone(), spec.table_capacity);
                r.configure_policy(&spec.policy);
                // Named registration: the worker id stamped into this
                // shard's trace events maps back to the shard name in
                // snapshots and trace exports (one Chrome "process" per
                // shard).
                r.configure_telemetry(spec.telemetry.register_worker_named(&name));
                if let Some(cfg) = spec.recovery {
                    r.configure_recovery(cfg);
                }
                if let Some(cfg) = &spec.fleet {
                    r.configure_fleet(cfg);
                }
                if let Some(cfg) = spec.coalesce {
                    r.configure_coalesce(cfg);
                }
                r.set_generation(generation);
                r
            })
            .collect();
        let svc = spec.telemetry.register_worker_named("servicing");
        let mut engine = Engine {
            shards,
            placements: Vec::new(),
            spec,
            next_group: 0,
            generation,
            carried: RouterStats::default(),
            carried_high_water: 0,
            svc,
        };
        for vm in vms {
            engine.bind_engine_vm(vm);
        }
        engine
    }

    /// Binds every queue group of `vm`, continuing the engine's global
    /// round-robin. Returns how many groups were bound.
    fn bind_engine_vm(&mut self, vm: EngineVm) -> usize {
        let EngineVm {
            vm_id,
            mem,
            partition,
            queues,
        } = vm;
        let shard_count = self.shards.len();
        let mut bound = 0;
        for (queue_group, q) in queues.into_iter().enumerate() {
            let shard = self.next_group % shard_count;
            self.next_group += 1;
            let slot = self.shards[shard].bind_vm(VmBinding {
                vm_id,
                mem: mem.clone(),
                partition,
                vsqs: q.vsqs,
                vcqs: q.vcqs,
                hsq: q.hsq,
                hcq: q.hcq,
                kernel: q.kernel,
                notify: q.notify,
                classifier: q.classifier,
            });
            self.placements.push(Placement {
                vm_id,
                queue_group,
                shard,
                slot,
            });
            bound += 1;
        }
        bound
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Read access to one shard.
    pub fn shard(&self, i: usize) -> &Router {
        &self.shards[i]
    }

    /// Mutable access to one shard (classifier map updates, ...).
    pub fn shard_mut(&mut self, i: usize) -> &mut Router {
        &mut self.shards[i]
    }

    /// Where every queue group landed, in bind order.
    pub fn placements(&self) -> &[Placement] {
        &self.placements
    }

    /// Aggregated counters, breaker states, occupancy, and high-water
    /// marks. Each shard contributes one [`ShardSnapshot`] taken in a
    /// single pass, so a shard's counters, its table marks, and its
    /// breaker states all describe the same instant — the old
    /// field-by-field reads could pair counters with breaker state from a
    /// different poll.
    ///
    /// [`ShardSnapshot`]: crate::router::ShardSnapshot
    pub fn stats(&self) -> EngineStats {
        let mut stats = EngineStats::default();
        stats.total.merge(&self.carried);
        stats.high_water = self.carried_high_water;
        for (i, shard) in self.shards.iter().enumerate() {
            let snap = shard.stats_snapshot();
            stats.total.merge(&snap.stats);
            stats.per_shard.push(snap.stats);
            stats.high_water = stats.high_water.max(snap.high_water);
            stats.occupancy += snap.in_flight;
            for (vm_id, open, opens) in snap.breakers {
                stats.breakers.push(BreakerState {
                    shard: i,
                    vm_id,
                    open,
                    opens,
                });
            }
            for view in snap.tenants {
                stats.tenants.push(TenantState { shard: i, view });
            }
            stats.poll_modes.push(snap.poll_mode);
            stats.batch_sizes.push(snap.batch);
        }
        stats
    }

    /// The datapath policy the engine was built with (survives servicing:
    /// a restored or resharded engine reports the snapshot's policy).
    pub fn policy(&self) -> &EnginePolicy {
        &self.spec.policy
    }

    /// Virtual-time deployment: hands every shard to the discrete-event
    /// executor. The executor owns them for the rest of the run.
    pub fn run_virtual(self, ex: &mut Executor) {
        for shard in self.shards {
            ex.add(Box::new(shard));
        }
    }

    /// Real-thread deployment: each shard gets its own OS thread. The
    /// returned [`Pool`] accepts companion actors (device, UIF runners)
    /// and stops the whole deployment as one unit.
    pub fn spawn_threads(self, time_scale: f64) -> Pool {
        let mut pool = Pool::new(time_scale);
        for shard in self.shards {
            pool.spawn(shard);
        }
        pool
    }

    /// Dissolves the engine into its shards (tests that drive a shard's
    /// poll loop by hand).
    pub fn into_shards(self) -> Vec<Router> {
        self.shards
    }

    // ------------------------------------------------------------------
    // Live servicing: quiesce / snapshot / restore, hot attach/detach,
    // online resharding.
    // ------------------------------------------------------------------

    /// Current engine generation (starts at 1; every restore or reshard
    /// bumps it — requests admitted under older generations can never be
    /// satisfied by their stale completions).
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// Closes every shard's admission gate: no new guest command is
    /// drained, while completions, recovery timers, and retries keep
    /// running so in-flight work converges. The quiesce protocol's first
    /// step; drive the rig until [`Engine::quiesced`] or a deadline, then
    /// [`Engine::snapshot`] — anything still in flight is quarantined and
    /// replayed by the restore.
    pub fn begin_quiesce(&mut self) {
        for s in &mut self.shards {
            s.set_admitting(false);
        }
    }

    /// Reopens admission on every shard (a quiesce that decided not to
    /// snapshot after all).
    pub fn resume_admission(&mut self) {
        for s in &mut self.shards {
            s.set_admitting(true);
        }
    }

    /// True once every shard has drained: all admitted requests have
    /// answered their guests and no internal work is queued. Quarantined
    /// zombie tags don't block this — they are serialized by the snapshot.
    pub fn quiesced(&self) -> bool {
        self.shards.iter().all(|s| s.is_drained())
    }

    /// Live (guest-answer-owing) requests across all shards.
    pub fn live_in_flight(&self) -> usize {
        self.shards.iter().map(|s| s.live_in_flight()).sum()
    }

    /// Polls every shard once at `now`; true if any made progress
    /// (manual-drive harnesses: quiesce loops, servicing tests).
    pub fn poll_all(&mut self, now: Ns) -> bool {
        let mut any = false;
        for s in &mut self.shards {
            any |= matches!(s.poll(now), Progress::Busy);
        }
        any
    }

    /// Earliest future event any shard has scheduled, in one pass:
    /// station completions, recovery timers/retries, fleet scheduler
    /// rechecks, **and parked-shard wakeup deadlines** — a shard that the
    /// poll governor parked while guest work is visible on its doorbells
    /// reports `park_instant + wakeup_cost` from its own `next_event`, so
    /// a manual-drive loop sleeping until `next_event_all` can never sleep
    /// through a doorbell.
    pub fn next_event_all(&self) -> Option<Ns> {
        self.shards.iter().filter_map(|s| s.next_event()).min()
    }

    /// Consumes the (ideally quiesced) engine into a serializable
    /// [`ServiceState`] plus the non-serializable [`EngineParts`]. Station
    /// work still queued inside a shard is force-applied first, so every
    /// accepted command is either serialized as in-flight or as an
    /// undelivered CQE — nothing is lost. In-flight requests are
    /// serialized with their tags and dispatch masks; the restore pins
    /// quarantines at the old tags and replays the requests under a new
    /// generation, which is what makes a mid-flight snapshot safe.
    pub fn snapshot(self, _now: Ns) -> (ServiceState, EngineParts) {
        self.svc.count(Metric::SnapshotsTaken);
        // Group ordinal = index into `placements` (bind order). Map each
        // shard's VM slots back to ordinals; slots without a placement are
        // detached tombstones and contribute nothing.
        let mut slot_to_group: Vec<HashMap<usize, usize>> = vec![HashMap::new(); self.shards.len()];
        for (g, p) in self.placements.iter().enumerate() {
            slot_to_group[p.shard].insert(p.slot, g);
        }
        let groups: Vec<SavedGroup> = self
            .placements
            .iter()
            .map(|p| SavedGroup {
                vm_id: p.vm_id,
                queue_group: p.queue_group as u32,
            })
            .collect();
        let tenants: Vec<SavedTenant> = self
            .spec
            .fleet
            .as_ref()
            .map(|f| {
                f.governor
                    .snapshot()
                    .into_iter()
                    .map(|v| SavedTenant {
                        tenant: v.tenant,
                        throttle_permille: v.throttle_permille,
                        admitted: v.admitted,
                        throttled: v.throttled,
                    })
                    .collect()
            })
            .unwrap_or_default();
        let recovery_on = self.spec.recovery.is_some();
        let mut carried = self.carried;
        let mut carried_high_water = self.carried_high_water;
        let mut next_seq = 0u64;
        let mut requests = Vec::new();
        let mut retries = Vec::new();
        let mut cqes = Vec::new();
        let mut breakers = Vec::new();
        let mut bindings: Vec<Option<VmBinding>> = Vec::new();
        bindings.resize_with(groups.len(), || None);
        for (shard_idx, shard) in self.shards.into_iter().enumerate() {
            let (export, vms) = shard.into_service();
            carried.merge(&export.stats);
            carried_high_water = carried_high_water.max(export.high_water);
            next_seq = next_seq.max(export.next_seq);
            // Tag → owning slot, for attributing retry entries to groups.
            let mut tag_slot: HashMap<u16, usize> = HashMap::new();
            for (slot, tag, state) in export.entries {
                let Some(&g) = slot_to_group[shard_idx].get(&slot) else {
                    continue; // lingering quarantine of a detached VM
                };
                tag_slot.insert(tag, slot);
                requests.push(SavedRequest {
                    group: g as u32,
                    tag,
                    state,
                });
            }
            for (tag, at) in export.retries {
                let Some(&g) = tag_slot
                    .get(&tag)
                    .and_then(|slot| slot_to_group[shard_idx].get(slot))
                else {
                    continue;
                };
                retries.push(SavedRetry {
                    group: g as u32,
                    tag,
                    at,
                });
            }
            for (slot, vsq, cqe) in export.cqes {
                let Some(&g) = slot_to_group[shard_idx].get(&slot) else {
                    continue;
                };
                cqes.push(SavedCqe {
                    group: g as u32,
                    vsq,
                    cid: cqe.cid,
                    status: cqe.status().0,
                });
            }
            if recovery_on {
                for (slot, snap) in export.breakers.into_iter().enumerate() {
                    let Some(&g) = slot_to_group[shard_idx].get(&slot) else {
                        continue;
                    };
                    breakers.push(SavedBreaker {
                        group: g as u32,
                        snap,
                    });
                }
            }
            for (slot, binding) in vms.into_iter().enumerate() {
                let (Some(binding), Some(&g)) = (binding, slot_to_group[shard_idx].get(&slot))
                else {
                    continue;
                };
                bindings[g] = Some(binding);
            }
        }
        let state = ServiceState {
            generation: self.generation,
            shards: self.spec.shards as u32,
            policy: self.spec.policy,
            next_seq,
            carried,
            carried_high_water: carried_high_water as u64,
            groups,
            requests,
            retries,
            cqes,
            breakers,
            tenants,
        };
        let parts = EngineParts {
            spec: self.spec,
            bindings: bindings
                .into_iter()
                .map(|b| b.expect("every placement has a live binding"))
                .collect(),
        };
        (state, parts)
    }

    /// Restores a fresh engine from a snapshot at the snapshot's shard
    /// count. See [`Engine::restore_with_shards`].
    pub fn restore(
        parts: EngineParts,
        state: &ServiceState,
        now: Ns,
    ) -> Result<Engine, ServiceError> {
        let shards = parts.spec.shards;
        Self::restore_with_shards(parts, state, shards, now)
    }

    /// Restores a fresh engine from a snapshot onto `shards` shards
    /// (online resharding when it differs from the snapshot's count).
    ///
    /// Queue groups are rebound round-robin in their saved order. The new
    /// engine runs at `state.generation + 1`; for every saved request
    /// with legs still in flight, the old tag is pinned as an
    /// old-generation quarantine on the group's **new** owner shard (that
    /// shard now polls the group's completion queues, so the stale legs
    /// arrive there), and every request whose guest was not yet answered
    /// is replayed as a fresh attempt. Exactly-once: the stale leg can
    /// only hit the quarantine (dropped as epoch-late), the guest's
    /// answer can only come from the replay.
    pub fn restore_with_shards(
        mut parts: EngineParts,
        state: &ServiceState,
        shards: usize,
        now: Ns,
    ) -> Result<Engine, ServiceError> {
        if parts.bindings.len() != state.groups.len() {
            return Err(ServiceError::Mismatch("queue-group count"));
        }
        for (b, g) in parts.bindings.iter().zip(&state.groups) {
            if b.vm_id != g.vm_id {
                return Err(ServiceError::Mismatch("queue-group vm identity"));
            }
        }
        parts.spec.shards = shards.max(1);
        // The snapshot's policy is authoritative: a restore on a different
        // host (or after a reshard) keeps the poll/batch policy
        // the tenant was admitted under.
        parts.spec.policy = state.policy;
        let generation = state.generation.wrapping_add(1).max(1);
        let mut engine = Engine::assemble(parts.spec, Vec::new(), generation);
        // Rebind each group round-robin, preserving its saved identity.
        let shard_count = engine.shards.len();
        for (g, binding) in parts.bindings.into_iter().enumerate() {
            let shard = engine.next_group % shard_count;
            engine.next_group += 1;
            let vm_id = binding.vm_id;
            let slot = engine.shards[shard].bind_vm(binding);
            engine.placements.push(Placement {
                vm_id,
                queue_group: state.groups[g].queue_group as usize,
                shard,
                slot,
            });
        }
        engine.carried = state.carried;
        engine.carried_high_water = state.carried_high_water as usize;
        for s in &mut engine.shards {
            s.set_next_seq(state.next_seq);
        }
        // Per-tenant governor cells (throttle knob + admission counters)
        // carry over; a fresh governor instance starts where the old one
        // stopped, a shared instance sees idempotent writes.
        if let Some(f) = &engine.spec.fleet {
            for t in &state.tenants {
                f.governor
                    .restore_cell(t.tenant, t.throttle_permille, t.admitted, t.throttled);
            }
        }
        for b in &state.breakers {
            if let Some(p) = engine.placements.get(b.group as usize).copied() {
                engine.shards[p.shard].restore_breaker(p.slot, &b.snap);
            }
        }
        // Quarantines first: they pin exact tags, so they must win every
        // slot they need before replays allocate freely around them.
        for q in &state.requests {
            let p = engine.placements[q.group as usize];
            if q.state.pending | q.state.orphaned != 0 {
                engine.shards[p.shard].inject_quarantine(q.tag, &q.state, now);
            }
        }
        let retry_at: HashMap<(u32, u16), u64> = state
            .retries
            .iter()
            .map(|r| ((r.group, r.tag), r.at))
            .collect();
        for q in &state.requests {
            if q.state.zombie {
                continue; // guest was answered before the snapshot
            }
            let p = engine.placements[q.group as usize];
            let at = retry_at.get(&(q.group, q.tag)).copied();
            engine.shards[p.shard].inject_replay(p.slot, &q.state, q.tag, at, now);
        }
        for c in &state.cqes {
            let p = engine.placements[c.group as usize];
            engine.shards[p.shard].requeue_vcq(
                p.slot,
                c.vsq,
                CompletionEntry::new(c.cid, Status(c.status)),
            );
        }
        engine.svc.count(Metric::Restores);
        Ok(engine)
    }

    /// Online resharding: snapshot + restore onto `shards` shards in one
    /// step. Every queue group is rebound round-robin; every outstanding
    /// tag either completed on its old shard before the snapshot or is
    /// replayed on its new one — never both (the old tag is quarantined
    /// under the old generation).
    pub fn reshard(self, shards: usize, now: Ns) -> Result<Engine, ServiceError> {
        let (state, parts) = self.snapshot(now);
        let engine = Self::restore_with_shards(parts, &state, shards, now)?;
        engine.svc.count(Metric::Reshards);
        Ok(engine)
    }

    /// Hot-attaches a VM to the running engine: its queue groups continue
    /// the engine's global round-robin placement; no existing binding
    /// moves and no other tenant's queues are touched. Returns the new
    /// placements.
    pub fn attach_vm(&mut self, vm: impl Into<EngineVm>) -> Vec<Placement> {
        let start = self.placements.len();
        self.bind_engine_vm(vm.into());
        self.svc.count(Metric::VmAttaches);
        self.placements[start..].to_vec()
    }

    /// Closes admission for one VM's queue groups only (hot detach step
    /// 1); every other tenant keeps flowing. `Err` if the VM is unknown.
    pub fn pause_vm(&mut self, vm_id: u32) -> Result<(), ServiceError> {
        self.set_vm_admission(vm_id, false)
    }

    /// Reopens admission for one VM's queue groups.
    pub fn resume_vm(&mut self, vm_id: u32) -> Result<(), ServiceError> {
        self.set_vm_admission(vm_id, true)
    }

    fn set_vm_admission(&mut self, vm_id: u32, on: bool) -> Result<(), ServiceError> {
        let mut found = false;
        for p in &self.placements {
            if p.vm_id == vm_id {
                self.shards[p.shard].set_vm_admitting(p.slot, on);
                found = true;
            }
        }
        if found {
            Ok(())
        } else {
            Err(ServiceError::UnknownVm(vm_id))
        }
    }

    /// Whether every admitted request of `vm_id` has answered its guest
    /// and no work for it is queued inside any shard (detach safety).
    pub fn vm_quiesced(&self, vm_id: u32) -> bool {
        self.placements
            .iter()
            .filter(|p| p.vm_id == vm_id)
            .all(|p| self.shards[p.shard].vm_quiesced(p.slot))
    }

    /// Hot-detaches a quiesced VM, returning its queue groups (in
    /// queue-group order) for migration or teardown. The VM's slots stay
    /// behind as inert tombstones so no other binding's slot index moves;
    /// lingering zombie quarantines of the departed VM are reaped by
    /// their timers. Call [`Engine::pause_vm`] and drain first — a VM
    /// with work in flight is refused with [`ServiceError::VmBusy`].
    pub fn detach_vm(&mut self, vm_id: u32) -> Result<EngineVm, ServiceError> {
        let mut placs: Vec<Placement> = self
            .placements
            .iter()
            .copied()
            .filter(|p| p.vm_id == vm_id)
            .collect();
        if placs.is_empty() {
            return Err(ServiceError::UnknownVm(vm_id));
        }
        if !self.vm_quiesced(vm_id) {
            return Err(ServiceError::VmBusy(vm_id));
        }
        placs.sort_by_key(|p| p.queue_group);
        let mut queues = Vec::new();
        let mut identity: Option<(Arc<GuestMemory>, Partition)> = None;
        for p in &placs {
            let b = self.shards[p.shard].detach_slot(p.slot);
            identity.get_or_insert_with(|| (b.mem.clone(), b.partition));
            queues.push(QueueBinding {
                vsqs: b.vsqs,
                vcqs: b.vcqs,
                hsq: b.hsq,
                hcq: b.hcq,
                kernel: b.kernel,
                notify: b.notify,
                classifier: b.classifier,
            });
        }
        self.placements.retain(|p| p.vm_id != vm_id);
        self.svc.count(Metric::VmDetaches);
        let (mem, partition) = identity.expect("at least one placement");
        Ok(EngineVm {
            vm_id,
            mem,
            partition,
            queues,
        })
    }
}
