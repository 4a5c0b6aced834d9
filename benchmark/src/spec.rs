//! The metrics the benchmark prints: name, unit, the clock that produced
//! the number, direction, and for end-to-end metrics the regression bound.
//! `BENCHMARK.json` at the repository root declares the same names, units,
//! directions and bounds; `tests/quick.rs` holds the two together.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Host time, `std::time::Instant`.
    Wall,
    /// Simulated time out of the cost model; deterministic for a seed.
    Virtual,
    /// A count or a ratio of counts.
    Count,
}

impl Clock {
    pub fn name(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Virtual => "virtual",
            Clock::Count => "count",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end: share of the parent's median the metric may worsen by.
    pub bound: f64,
    /// Repeats exactly for a seed on the single-thread workloads.
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: &'static str,
    bound: f64,
) -> Spec {
    Spec {
        name,
        unit,
        clock,
        better,
        bound,
        exact: matches!(clock, Clock::Virtual),
    }
}

const fn wall(name: &'static str, unit: &'static str) -> Spec {
    Spec {
        name,
        unit,
        clock: Clock::Wall,
        better: "lower",
        bound: 0.0,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: &'static str) -> Spec {
    Spec {
        name,
        unit,
        clock: Clock::Count,
        better,
        bound: 0.0,
        exact: true,
    }
}

/// Printed with `--trace 0`, measured with tracing off.
pub const END_TO_END: [Spec; 6] = [
    e2e("host_ns_per_req", "ns", Clock::Wall, "lower", 0.25),
    e2e("virt_kiops", "kIOPS", Clock::Virtual, "higher", 0.07),
    e2e("virt_mean_us", "us", Clock::Virtual, "lower", 0.03),
    e2e("virt_tail1_us", "us", Clock::Virtual, "lower", 0.06),
    e2e("setup_s", "s", Clock::Wall, "lower", 0.25),
    e2e("peak_rss_mib", "MiB", Clock::Count, "lower", 0.10),
];

/// Printed with `--trace 1`. Traced timings first, then the isolated
/// micro-timings, then the counts read from public stats.
pub const PER_LAYER: [Spec; 48] = [
    wall("core.router_poll_ns_per_req", "ns"),
    count("core.router_idle_poll_share", "fraction", "lower"),
    wall("kernel.path_ns_per_req", "ns"),
    wall("device.ssd_poll_ns_per_req", "ns"),
    count("device.ssd_idle_poll_share", "fraction", "lower"),
    wall("functions.uif_poll_ns_per_req", "ns"),
    wall("insight.watchdog_ns_per_req", "ns"),
    wall("blackbox.recorder_ns_per_req", "ns"),
    wall("sim.executor_ns_per_req", "ns"),
    count("sim.polls_per_req", "count", "lower"),
    wall("gen.self_ns_per_req", "ns"),
    wall("gen.self_share", "fraction"),
    count("gen.fail_share", "fraction", "lower"),
    wall("trace.overhead_frac", "fraction"),
    wall("trace.budget_gap_frac", "fraction"),
    wall("nvme.sq_push_pop_ns", "ns"),
    wall("nvme.cq_push_pop_ns", "ns"),
    wall("mem.prp_walk_4k_ns", "ns"),
    wall("mem.prp_walk_128k_ns", "ns"),
    wall("mem.copy_128k_ns", "ns"),
    wall("vbpf.interp_ns", "ns"),
    wall("vbpf.compiled_ns", "ns"),
    wall("vbpf.memo_hit_ns", "ns"),
    wall("core.classify_tiered_ns", "ns"),
    wall("vbpf.verify_us", "us"),
    wall("core.table_insert_remove_ns", "ns"),
    wall("fleet.sched_admit_ns", "ns"),
    wall("fleet.coalesce_join_resolve_ns", "ns"),
    wall("telemetry.emit_ns", "ns"),
    wall("telemetry.emit_disabled_ns", "ns"),
    wall("crypto.xts_4k_ns", "ns"),
    count("core.route_fast_share", "fraction", "higher"),
    count("core.route_kernel_share", "fraction", "higher"),
    count("core.route_notify_share", "fraction", "higher"),
    count("core.classifier_runs_per_req", "count", "lower"),
    count("core.cqes_per_flush", "count", "higher"),
    count("core.cq_notifies_per_req", "count", "lower"),
    count("core.table_high_water", "count", "lower"),
    count("core.retries_per_req", "count", "lower"),
    count("core.aborts", "count", "lower"),
    count("vbpf.memo_hit_share", "fraction", "higher"),
    count("fleet.coalesced_share", "fraction", "higher"),
    count("fleet.device_ios_per_req", "count", "lower"),
    count("fleet.throttled_share", "fraction", "lower"),
    count("fleet.preemptions_per_kreq", "count", "lower"),
    count("telemetry.events_per_req", "count", "lower"),
    count("telemetry.dropped_events", "count", "lower"),
    count("device.bytes_moved_per_req", "count", "lower"),
];

pub fn find(name: &str) -> Option<&'static Spec> {
    END_TO_END.iter().chain(&PER_LAYER).find(|s| s.name == name)
}
