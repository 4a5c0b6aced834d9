//! Isolated micro-timings of the layers' public functions: the median
//! over batches of back-to-back calls. They say what one operation costs
//! with warm caches and nothing else running, which is a floor for the
//! layer's share of a request, not that share.

use crate::rigs::PART_OFFSET;
use crate::rng::Rng;
use crate::speed::Gauge;
use crate::stats::{summarize, Summary};
use nvmetro_core::classify::{Classifier, RequestCtx, HOOK_VSQ};
use nvmetro_core::offset_program;
use nvmetro_core::routing::{RequestState, RoutingTable};
use nvmetro_crypto::Xts;
use nvmetro_fleet::{CoalesceConfig, CoalesceWindow, FleetConfig, TenantScheduler};
use nvmetro_functions::build_encryptor_classifier;
use nvmetro_mem::{build_prps, prp_segments, GuestMemory};
use nvmetro_nvme::{CompletionEntry, CqPair, SqPair, Status, SubmissionEntry};
use nvmetro_telemetry::{PathKind, Stage, Telemetry, TelemetryHandle};
use std::hint::black_box;
use std::time::Instant;

/// Nanoseconds per call at the machine's nominal speed: the median over
/// `batches` of `calls` calls each.
fn time(batches: usize, calls: usize, mut f: impl FnMut()) -> Summary {
    for _ in 0..calls.min(1_000) {
        f(); // warm caches and lazy state
    }
    let gauge = Gauge::start();
    let per_call: Vec<f64> = (0..batches)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..calls {
                f();
            }
            t0.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    let slowdown = gauge.finish();
    let s = summarize(&per_call);
    Summary {
        n: s.n,
        median: s.median / slowdown,
        q1: s.q1 / slowdown,
        q3: s.q3 / slowdown,
    }
}

/// Every micro-timing, as `(metric name, summary)`. Cheap calls run
/// 100 000 to a batch; calls that take microseconds run fewer, so that a
/// batch stays in the tens of milliseconds.
pub fn all(quick: bool) -> Vec<(&'static str, Summary)> {
    let batches = if quick { 2 } else { 5 };
    let scale = |calls: usize| if quick { (calls / 100).max(10) } else { calls };
    let mut out = Vec::new();
    let mut rng = Rng::new(0x006d_1c70);

    let (sq_p, sq_c) = SqPair::new(1024);
    let cmd = SubmissionEntry::read(1, 1000, 8, 0x1000, 0);
    out.push((
        "nvme.sq_push_pop_ns",
        time(batches, scale(100_000), || {
            sq_p.push(black_box(cmd)).expect("ring has room");
            black_box(sq_c.pop());
        }),
    ));
    let (cq_p, cq_c) = CqPair::new(1024);
    let cqe = CompletionEntry::new(1, Status::SUCCESS);
    out.push((
        "nvme.cq_push_pop_ns",
        time(batches, scale(100_000), || {
            cq_p.push(black_box(cqe)).expect("ring has room");
            black_box(cq_c.pop());
        }),
    ));

    let mem = GuestMemory::new(1 << 26);
    for (name, len, calls) in [
        ("mem.prp_walk_4k_ns", 4096usize, 100_000),
        ("mem.prp_walk_128k_ns", 128 * 1024, 20_000),
    ] {
        let gpa = mem.alloc(len);
        let (p1, p2) = build_prps(&mem, gpa, len);
        out.push((
            name,
            time(batches, scale(calls), || {
                black_box(prp_segments(&mem, black_box(p1), p2, len).expect("valid PRPs"));
            }),
        ));
    }
    let gpa = mem.alloc(128 * 1024);
    let mut buf = vec![0x5au8; 128 * 1024];
    out.push((
        "mem.copy_128k_ns",
        time(batches, scale(2_000), || {
            mem.write(gpa, black_box(&buf));
            mem.read(gpa, black_box(&mut buf));
        }),
    ));

    // The classifier of `fast_4k`, one tier at a time.
    let mut ctx = RequestCtx::new(HOOK_VSQ, 0, 0, &cmd, Status::SUCCESS, 0);
    let mut interp = offset_program(PART_OFFSET);
    out.push((
        "vbpf.interp_ns",
        time(batches, scale(100_000), || {
            ctx.set_slba(1000);
            black_box(interp.run_interp(ctx.bytes_mut()).expect("verified"));
        }),
    ));
    let mut compiled = offset_program(PART_OFFSET);
    compiled.set_memo_capacity(0);
    out.push((
        "vbpf.compiled_ns",
        time(batches, scale(100_000), || {
            ctx.set_slba(1000);
            black_box(compiled.run(ctx.bytes_mut()).expect("verified"));
        }),
    ));
    let mut memo = offset_program(PART_OFFSET);
    out.push((
        "vbpf.memo_hit_ns",
        time(batches, scale(100_000), || {
            ctx.set_slba(1000);
            black_box(memo.run(ctx.bytes_mut()).expect("verified"));
        }),
    ));
    // As the router calls it on `fast_4k`: random LBAs, so the memo misses.
    let mut tiered = Classifier::Bpf(offset_program(PART_OFFSET));
    out.push((
        "core.classify_tiered_ns",
        time(batches, scale(100_000), || {
            ctx.set_slba(rng.below(1 << 24));
            black_box(tiered.run_tiered(&mut ctx, 0));
        }),
    ));
    let verify = time(batches, scale(1_000), || {
        black_box(build_encryptor_classifier(black_box(PART_OFFSET)));
    });
    out.push((
        "vbpf.verify_us",
        Summary {
            n: verify.n,
            median: verify.median / 1e3,
            q1: verify.q1 / 1e3,
            q3: verify.q3 / 1e3,
        },
    ));

    let mut table = RoutingTable::new(1024);
    let state = RequestState {
        vm: 0,
        slot: 0,
        vsq: 0,
        guest_cid: 1,
        cmd,
        pending: 0,
        hooks: 0,
        will_complete: 0,
        status: Status::SUCCESS,
        user_tag: 0,
        accepted_at: 0,
        sent_paths: 0,
        dispatched_at: 0,
        serviced_at: 0,
        seq: 0,
        retries: 0,
        deadline: 0,
        dispatch_send: 0,
        dispatch_hooks: 0,
        dispatch_wc: 0,
        orphaned: 0,
        zombie: false,
        first_fault_at: 0,
        generation: 1,
    };
    out.push((
        "core.table_insert_remove_ns",
        time(batches, scale(100_000), || {
            let tag = table
                .insert(black_box(state.clone()))
                .expect("table has room");
            black_box(table.remove(tag));
        }),
    ));

    // One admission on a 256-tenant scheduler, as the drain loop asks.
    let mut sched = TenantScheduler::new(&FleetConfig::default());
    let slots: Vec<usize> = (0..256).map(|t| sched.slot(t)).collect();
    let mut next = 0usize;
    out.push((
        "fleet.sched_admit_ns",
        time(batches, scale(100_000), || {
            if next == 0 {
                sched.new_round();
            }
            black_box(sched.admit(slots[next], 0));
            sched.end_visit(slots[next], true);
            next = (next + 1) % slots.len();
        }),
    ));
    // A leader, one duplicate that joins it, and the fan-out.
    let mut window = CoalesceWindow::new(CoalesceConfig::default());
    out.push((
        "fleet.coalesce_join_resolve_ns",
        time(batches, scale(100_000), || {
            let slba = rng.below(64) * 8;
            black_box(window.try_join(slba, 8, 0, 1));
            black_box(window.try_join(slba, 8, 1, 2));
            black_box(window.resolve(1));
        }),
    ));

    let registry = Telemetry::enabled();
    for (name, handle) in [
        ("telemetry.emit_ns", registry.register_worker()),
        ("telemetry.emit_disabled_ns", TelemetryHandle::disabled()),
    ] {
        let mut ts = 0u64;
        out.push((
            name,
            time(batches, scale(100_000), || {
                ts += 1;
                black_box(&handle).request_event(ts, 0, 0, 1, 1, Stage::Classified, PathKind::None);
            }),
        ));
    }

    let xts = Xts::new(&[0x42; 64]);
    let mut page = vec![0x5au8; 4096];
    let mut sector = 0u64;
    out.push((
        "crypto.xts_4k_ns",
        time(batches, scale(200), || {
            sector += 8;
            xts.encrypt_sectors(sector, black_box(&mut page));
        }),
    ));
    out
}
