//! Classifier execution-engine ablation: native Rust vs pre-decoded
//! compiled ops vs fetch/decode interpreter, written to
//! `BENCH_classifier.json` for CI.
//!
//! The workload is the paper's partition-offset mediation classifier:
//! dispatch on the opcode, bounds-check the I/O against the partition
//! length, add the partition base to the starting LBA, write it back, take
//! the fast path. Every engine runs the same verified program against the
//! same context; the harness restores the mutated `slba` bytes before each
//! invocation so every iteration classifies the same in-partition request.
//!
//! Acceptance bar (enforced here, run by ci.sh): compiled ≥ 2x
//! interpreter ops/s.
//!
//! ```sh
//! cargo run --release -p nvmetro-bench --bin classifier_ablation
//! ```

use nvmetro_core::classify::{partition_offset_program, verdict_bits, RequestCtx, HOOK_VSQ};
use nvmetro_nvme::{NvmOpcode, Status, SubmissionEntry};
use std::hint::black_box;
use std::time::{Duration, Instant};

const LBA_OFFSET: u64 = 0x10_0000;
const PART_NLB: u64 = 0x8_0000;
const BASE_SLBA: u64 = 0x1234;
const SLBA_OFF: usize = 16;
const BATCH: usize = 4096;

/// Runs `f` in batches until `budget` elapses; returns (iters, ops/s).
fn measure(budget: Duration, mut f: impl FnMut()) -> (u64, f64) {
    // Warm up caches and branch predictors outside the measured window.
    for _ in 0..BATCH {
        f();
    }
    let start = Instant::now();
    let mut iters = 0u64;
    loop {
        for _ in 0..BATCH {
            f();
        }
        iters += BATCH as u64;
        if start.elapsed() >= budget {
            break;
        }
    }
    (iters, iters as f64 / start.elapsed().as_secs_f64())
}

fn fresh_ctx() -> RequestCtx {
    let cmd = SubmissionEntry::read(1, BASE_SLBA, 8, 0x1000, 0);
    RequestCtx::new(HOOK_VSQ, 0, 0, &cmd, Status::SUCCESS, 0)
}

/// Restores the slba bytes the classifier mutates, so every iteration
/// classifies the same logical request.
fn reset_slba(ctx: &mut [u8]) {
    ctx[SLBA_OFF..SLBA_OFF + 8].copy_from_slice(&BASE_SLBA.to_le_bytes());
}

/// Keeps the faster of two `(iters, ops/s)` samples. Engine throughputs
/// are estimated as best-of-N interleaved rounds: on a shared machine
/// transient slowdowns (frequency scaling, co-tenants) only ever
/// subtract speed, so the max over rounds is the robust estimator and
/// interleaving keeps a slow phase from biasing one engine's ratio.
fn keep_best(best: &mut (u64, f64), sample: (u64, f64)) {
    if sample.1 > best.1 {
        *best = sample;
    }
}

fn main() {
    let budget = Duration::from_millis(
        std::env::var("NVMETRO_BENCH_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(60),
    );
    const ROUNDS: usize = 5;
    let expect = verdict_bits::SEND_HQ | verdict_bits::WILL_COMPLETE_HQ;

    let mut native_ctx = fresh_ctx();
    let mut interp_vm = partition_offset_program(LBA_OFFSET, PART_NLB);
    let mut interp_ctx = fresh_ctx();
    let mut compiled_vm = partition_offset_program(LBA_OFFSET, PART_NLB);
    assert!(compiled_vm.is_compiled(), "partition program must compile");
    let mut compiled_ctx = fresh_ctx();

    let mut native = (0u64, 0f64);
    let mut interp = (0u64, 0f64);
    let mut compiled = (0u64, 0f64);
    for _ in 0..ROUNDS {
        // Native baseline: the same mediation hand-written in Rust.
        let ctx = &mut native_ctx;
        keep_best(
            &mut native,
            measure(budget, || {
                reset_slba(black_box(ctx.bytes_mut()));
                let op = ctx.opcode();
                let v = if op == NvmOpcode::Read as u8 || op == NvmOpcode::Write as u8 {
                    let (slba, nlb) = (ctx.slba(), ctx.nlb() as u64);
                    if slba + nlb > PART_NLB {
                        verdict_bits::COMPLETE | Status::LBA_OUT_OF_RANGE.0 as u64
                    } else {
                        ctx.set_slba(slba + LBA_OFFSET);
                        expect
                    }
                } else {
                    expect
                };
                assert_eq!(black_box(v), expect);
            }),
        );

        // Interpreter: fetch/decode loop.
        let (vm, ctx) = (&mut interp_vm, &mut interp_ctx);
        keep_best(
            &mut interp,
            measure(budget, || {
                reset_slba(ctx.bytes_mut());
                let v = vm.run_interp(ctx.bytes_mut()).expect("interp run");
                assert_eq!(black_box(v), expect);
            }),
        );

        // Compiled engine: pre-decoded op array.
        let (vm, ctx) = (&mut compiled_vm, &mut compiled_ctx);
        keep_best(
            &mut compiled,
            measure(budget, || {
                reset_slba(ctx.bytes_mut());
                let v = vm.run(ctx.bytes_mut()).expect("compiled run");
                assert_eq!(black_box(v), expect);
            }),
        );
    }
    let (native_iters, native_ops) = native;
    let (interp_iters, interp_ops) = interp;
    let (compiled_iters, compiled_ops) = compiled;
    for ctx in [&native_ctx, &interp_ctx, &compiled_ctx] {
        assert_eq!(ctx.slba(), BASE_SLBA + LBA_OFFSET);
    }

    let compiled_x = compiled_ops / interp_ops;
    println!(
        "native={native_ops:.0} ops/s ({native_iters} iters)\n\
         interp={interp_ops:.0} ops/s ({interp_iters} iters)\n\
         compiled={compiled_ops:.0} ops/s ({compiled_iters} iters, {compiled_x:.2}x interp)"
    );

    let json = format!(
        "{{\n  \"workload\": \"partition_offset_classifier\",\n  \"duration_ms\": {},\n  \"tiers\": {{\n    \"native\": {{\"iters\": {}, \"ops_per_sec\": {:.0}}},\n    \"interp\": {{\"iters\": {}, \"ops_per_sec\": {:.0}}},\n    \"compiled\": {{\"iters\": {}, \"ops_per_sec\": {:.0}}}\n  }},\n  \"compiled_vs_interp\": {:.3}\n}}\n",
        budget.as_millis(),
        native_iters,
        native_ops,
        interp_iters,
        interp_ops,
        compiled_iters,
        compiled_ops,
        compiled_x,
    );
    std::fs::write("BENCH_classifier.json", &json).expect("write BENCH_classifier.json");
    println!("{json}");

    assert!(
        compiled_x >= 2.0,
        "compiled engine {compiled_x:.2}x below the 2x acceptance bar"
    );
    println!("classifier ablation OK: compiled {compiled_x:.2}x");
}
