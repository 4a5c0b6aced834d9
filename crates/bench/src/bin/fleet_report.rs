//! Fleet acceptance report: the thousands-of-VMs rig with per-tenant
//! QoS scheduling and cross-VM read coalescing, written to
//! `BENCH_fleet.json` for CI.
//!
//! Three arms on an identical device-bound rig (same seed, same
//! Zipf-skewed bursty offered load):
//!
//! * `coalesce=off` — scheduler only: the baseline the coalescing win is
//!   measured against;
//! * `coalesce=on` — the full fleet datapath;
//! * plus the full-scale (1024 tenants, router-bound) run whose Jain
//!   fairness index and exactly-once verdict are reported.
//!
//! Bars enforced here:
//! * the rig binds >= 1000 VM queue groups and finishes exactly-once
//!   (guest books balanced, span reconstruction agreeing);
//! * coalescing on a device-bound hot set wins >= 1.2x guest IOPS;
//! * coalescing cuts device-queue occupancy (served commands) by
//!   >= 20% at equal offered load;
//! * weight-normalized Jain fairness >= 0.5 across the active fleet;
//! * an idle `Router::poll` of a shard with 1024 bound queue groups costs
//!   at most 4x one with 16 (wall clock): the doorbell page makes an idle
//!   poll one load per 64 groups, where a scan of every ring was linear
//!   (about 64x).
//!
//! ```sh
//! cargo run --release -p nvmetro-bench --bin fleet_report
//! ```

use nvmetro_core::classify::Classifier;
use nvmetro_core::engine::{EngineVm, QueueBinding, RouterBuilder};
use nvmetro_core::{passthrough_program, Partition};
use nvmetro_fleet::{CoalesceConfig, FleetConfig};
use nvmetro_mem::GuestMemory;
use nvmetro_nvme::{CqPair, SqPair};
use nvmetro_sim::{Actor, MS, SEC};
use nvmetro_workloads::{run_fleet, FleetOptions, FleetReport};
use std::sync::Arc;
use std::time::Instant;

/// Host nanoseconds of one idle `Router::poll` on a fleet-mode shard with
/// `groups` single-queue VMs bound and nothing queued anywhere: the best
/// of five timed passes, so a preempted pass does not set the number.
fn idle_poll_ns(groups: usize) -> f64 {
    const POLLS: u64 = 200_000;
    let mem = Arc::new(GuestMemory::new(1 << 20));
    let mut builder = RouterBuilder::new("router")
        .table_capacity(4096)
        .fleet(FleetConfig::default())
        .coalesce(CoalesceConfig::default());
    // The far ends stay alive (and silent) for the length of the timing.
    let mut far_ends = Vec::with_capacity(groups);
    for vm in 0..groups {
        let (vsq_p, vsq_c) = SqPair::new(32);
        let (vcq_p, vcq_c) = CqPair::new(32);
        let (hsq_p, hsq_c) = SqPair::new(32);
        let (hcq_p, hcq_c) = CqPair::new(32);
        builder = builder.vm(EngineVm {
            vm_id: vm as u32,
            mem: mem.clone(),
            partition: Partition::whole(1 << 20),
            queues: vec![QueueBinding {
                vsqs: vec![vsq_c],
                vcqs: vec![vcq_p],
                hsq: hsq_p,
                hcq: hcq_c,
                kernel: None,
                notify: None,
                classifier: Classifier::Bpf(passthrough_program()),
            }],
        });
        far_ends.push((vsq_p, vcq_c, hsq_c, hcq_p));
    }
    let mut shard = builder.build().into_shards().pop().expect("one shard");
    let mut now = 0;
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let started = Instant::now();
        for _ in 0..POLLS {
            now += 1;
            std::hint::black_box(shard.poll(std::hint::black_box(now)));
        }
        best = best.min(started.elapsed().as_nanos() as f64 / POLLS as f64);
    }
    assert_eq!(shard.stats().accepted, 0, "the shard was meant to idle");
    best
}

fn arm_json(label: &str, r: &FleetReport) -> String {
    format!(
        "    {{\"arm\": \"{}\", \"tenants\": {}, \"submitted\": {}, \"completed\": {}, \"iops\": {:.0}, \"p50_ns\": {}, \"p99_ns\": {}, \"device_ios\": {}, \"coalesced\": {}, \"fanned_out\": {}, \"throttled\": {}, \"preemptions\": {}, \"feedback_actions\": {}, \"exactly_once\": {}}}",
        label,
        r.tenants,
        r.submitted,
        r.completed,
        r.iops,
        r.p50_ns,
        r.p99_ns,
        r.device_ios,
        r.coalesced,
        r.fanned_out,
        r.throttled,
        r.preemptions,
        r.feedback_actions,
        r.exactly_once,
    )
}

fn main() {
    let duration = std::env::var("NVMETRO_BENCH_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(20)
        * MS;

    // Arms 1+2: a device-bound hot-set rig — few channels, most reads on
    // the shared base image — where coalescing must buy throughput, not
    // just occupancy. Modest tenant count keeps the contrast crisp.
    let contended = FleetOptions {
        tenants: 256,
        shards: 4,
        duration,
        total_iops: 1_200_000.0,
        hot_fraction: 0.8,
        hot_slots: 32,
        cap: 8,
        device_channels: 4,
        device_read_lat: 10_000,
        feedback: false, // no throttling: both arms see identical load
        keep_spans: false,
        ..Default::default()
    };
    let off = run_fleet(&FleetOptions {
        coalesce: false,
        ..contended.clone()
    });
    let on = run_fleet(&contended);
    println!(
        "coalesce=off iops={:.0} p99={}ns device_ios={}",
        off.iops, off.p99_ns, off.device_ios
    );
    println!(
        "coalesce=on  iops={:.0} p99={}ns device_ios={} coalesced={}",
        on.iops, on.p99_ns, on.device_ios, on.coalesced
    );
    assert!(off.exactly_once && on.exactly_once, "books must balance");

    let iops_win = on.iops / off.iops.max(1.0);
    // Device-queue occupancy: commands the device had to serve per guest
    // completion — the fan-out directly removes device work.
    let occ_off = off.device_ios as f64 / off.completed.max(1) as f64;
    let occ_on = on.device_ios as f64 / on.completed.max(1) as f64;
    let occupancy_cut = 1.0 - occ_on / occ_off.max(f64::MIN_POSITIVE);

    // Arm 3: the full-scale fleet — >= 1000 VM queue groups, scheduler +
    // coalescing + feedback on, spans kept for the exactly-once proof.
    let fleet = run_fleet(&FleetOptions {
        duration,
        ..Default::default()
    });
    let fairness = fleet.jain_fairness();
    println!(
        "fleet tenants={} iops={:.0} p99={}ns coalesced={} throttled={} jain={:.3} exactly_once={}",
        fleet.tenants,
        fleet.iops,
        fleet.p99_ns,
        fleet.coalesced,
        fleet.throttled,
        fairness,
        fleet.exactly_once
    );

    // Wall clock: what an idle poll costs as bound queue groups grow.
    let idle = [16, 256, 1024].map(idle_poll_ns);
    let idle_ratio = idle[2] / idle[0];
    println!(
        "idle poll: {:.1} ns @16 groups, {:.1} ns @256, {:.1} ns @1024 ({idle_ratio:.2}x)",
        idle[0], idle[1], idle[2]
    );

    let json = format!
(
        "{{\n  \"duration_ms\": {},\n  \"offered_iops\": {:.0},\n  \"results\": [\n{},\n{},\n{}\n  ],\n  \"coalesce_iops_win\": {:.3},\n  \"device_occupancy_cut\": {:.3},\n  \"fairness_jain\": {:.4},\n  \"fleet_queue_groups\": {},\n  \"fleet_exactly_once\": {},\n  \"idle_poll\": {{\"clock\": \"wall\", \"unit\": \"ns\", \"groups_16\": {:.1}, \"groups_256\": {:.1}, \"groups_1024\": {:.1}, \"ratio_1024_to_16\": {:.2}}}\n}}\n",
        duration / MS,
        contended.total_iops,
        arm_json("coalesce_off", &off),
        arm_json("coalesce_on", &on),
        arm_json("fleet_full_scale", &fleet),
        iops_win,
        occupancy_cut,
        fairness,
        fleet.tenants,
        fleet.exactly_once,
        idle[0],
        idle[1],
        idle[2],
        idle_ratio,
    );
    std::fs::write("BENCH_fleet.json", &json).expect("write BENCH_fleet.json");
    println!("{json}");

    assert!(
        fleet.tenants >= 1000,
        "full-scale rig must bind >= 1000 VM queue groups"
    );
    assert!(fleet.exactly_once, "full-scale rig lost or doubled I/O");
    assert!(
        fleet.submitted as f64 > duration as f64 / SEC as f64 * 100_000.0,
        "full-scale rig too idle to mean anything"
    );
    assert!(
        iops_win >= 1.2,
        "coalescing IOPS win {iops_win:.2}x below the 1.2x bar"
    );
    assert!(
        occupancy_cut >= 0.2,
        "device occupancy cut {occupancy_cut:.2} below the 20% bar"
    );
    assert!(
        fairness >= 0.5,
        "Jain fairness {fairness:.3} below the 0.5 bar"
    );
    assert!(
        idle_ratio <= 4.0,
        "idle poll at 1024 groups is {idle_ratio:.2}x the 16-group poll, above the 4x bar"
    );
    println!(
        "fleet report OK: {iops_win:.2}x IOPS win, {:.0}% occupancy cut, jain {fairness:.3}",
        occupancy_cut * 100.0
    );
}
