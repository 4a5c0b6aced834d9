//! Differential property test: the compiled engine (pre-decoded op
//! array) must be observationally identical to the fetch/decode
//! interpreter on every verified program.
//!
//! Strategy: generate seeded random programs through [`ProgramBuilder`]
//! from a constrained grammar (scalar ALU, in-bounds ctx loads,
//! writable-window ctx stores, stack spill/reload, forward branch
//! diamonds, canonical helper sequences), rejection-sample them through
//! the verifier, then run the same program in two fresh Vms — one through
//! `run()` (compiled where it applies), one pinned to `run_interp()` — and
//! demand identical verdicts, identical `ExecError`s, identical mediated
//! ctx bytes, identical map state, and identical trace logs. Tiny budgets
//! exercise `BudgetExceeded` parity (including the dead-store weight
//! accounting); truncated contexts exercise the per-invocation interpreter
//! fallback.

use nvmetro_vbpf::builder::ProgramBuilder;
use nvmetro_vbpf::interp::helpers;
use nvmetro_vbpf::isa::*;
use nvmetro_vbpf::{verify, MapDef, VerifierConfig, Vm, VmConfig};

const CTX_SIZE: usize = 48;
const WRITE_LO: usize = 16;

/// xorshift64* — deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

const SIZES: [u8; 4] = [SIZE_B, SIZE_H, SIZE_W, SIZE_DW];
const ALU_OPS: [u8; 12] = [
    ALU_ADD, ALU_SUB, ALU_MUL, ALU_DIV, ALU_OR, ALU_AND, ALU_LSH, ALU_RSH, ALU_MOD, ALU_XOR,
    ALU_MOV, ALU_ARSH,
];
const COND_OPS: [u8; 11] = [
    JMP_JEQ, JMP_JNE, JMP_JGT, JMP_JGE, JMP_JLT, JMP_JLE, JMP_JSET, JMP_JSGT, JMP_JSGE, JMP_JSLT,
    JMP_JSLE,
];
/// Registers the generator is allowed to treat as scalar scratch
/// (R1 holds the ctx pointer, R6 its saved copy, R10 the frame pointer).
const SCRATCH: [Reg; 7] = [R0, R2, R3, R4, R5, R7, R8];

fn size_bytes(size: u8) -> usize {
    match size {
        SIZE_B => 1,
        SIZE_H => 2,
        SIZE_W => 4,
        _ => 8,
    }
}

/// Emits one random program. Returns the instruction/map lists ready for
/// the verifier (which may still reject some — the caller
/// rejection-samples).
fn gen_program(rng: &mut Rng) -> (Vec<Insn>, Vec<MapDef>) {
    let mut b = ProgramBuilder::new();
    let map = b.declare_map(MapDef {
        value_size: 8,
        max_entries: 4,
    });
    b.mov64(R6, R1); // ctx pointer survives helper clobbers
    let mut scalars: Vec<Reg> = vec![];
    let mut stack_init: Vec<i16> = vec![]; // initialized dword slots (offsets from R10)
    let steps = 4 + rng.below(14);
    for _ in 0..steps {
        match rng.below(12) {
            0 => {
                let dst = rng.pick(&SCRATCH);
                b.mov64_imm(dst, rng.next() as i32);
                if !scalars.contains(&dst) {
                    scalars.push(dst);
                }
            }
            1 if !scalars.is_empty() => {
                let dst = rng.pick(&scalars);
                b.alu64_imm(rng.pick(&ALU_OPS), dst, rng.next() as i32);
            }
            2 if scalars.len() >= 2 => {
                let dst = rng.pick(&scalars);
                let src = rng.pick(&scalars);
                b.alu64(rng.pick(&ALU_OPS), dst, src);
            }
            3 if !scalars.is_empty() => {
                let dst = rng.pick(&scalars);
                b.alu32_imm(rng.pick(&ALU_OPS), dst, rng.next() as i32);
            }
            4 => {
                // Aligned in-bounds ctx load.
                let size = rng.pick(&SIZES);
                let s = size_bytes(size);
                let off = (rng.below((CTX_SIZE / s) as u64) as usize * s) as i16;
                let dst = rng.pick(&SCRATCH);
                b.ldx(size, dst, R6, off);
                if !scalars.contains(&dst) {
                    scalars.push(dst);
                }
            }
            5 if !scalars.is_empty() => {
                // Aligned store into the writable ctx window.
                let size = rng.pick(&SIZES);
                let s = size_bytes(size);
                let slots = ((CTX_SIZE - WRITE_LO) / s) as u64;
                let off = (WRITE_LO + rng.below(slots) as usize * s) as i16;
                let src = rng.pick(&scalars);
                b.stx(size, R6, off, src);
            }
            6 => {
                let size = rng.pick(&SIZES);
                let s = size_bytes(size);
                let slots = ((CTX_SIZE - WRITE_LO) / s) as u64;
                let off = (WRITE_LO + rng.below(slots) as usize * s) as i16;
                b.st_imm(size, R6, off, rng.next() as i32);
            }
            7 if !scalars.is_empty() => {
                // Stack spill; remember the slot so later loads read
                // initialized memory only.
                let off = -8 * (1 + rng.below(8) as i16);
                let src = rng.pick(&scalars);
                b.stx(SIZE_DW, R10, off, src);
                if !stack_init.contains(&off) {
                    stack_init.push(off);
                }
            }
            8 if !stack_init.is_empty() => {
                let off = rng.pick(&stack_init);
                let dst = rng.pick(&SCRATCH);
                b.ldx(SIZE_DW, dst, R10, off);
                if !scalars.contains(&dst) {
                    scalars.push(dst);
                }
            }
            9 if !scalars.is_empty() => {
                // Forward branch diamond over a couple of ALU fillers.
                let l = b.new_label();
                let reg = rng.pick(&scalars);
                let op = rng.pick(&COND_OPS);
                if scalars.len() >= 2 && rng.below(2) == 0 {
                    let other = rng.pick(&scalars);
                    b.jmp_reg(op, reg, other, l);
                } else {
                    b.jmp_imm(op, reg, rng.next() as i32, l);
                }
                for _ in 0..=rng.below(2) {
                    let dst = rng.pick(&scalars);
                    b.alu64_imm(rng.pick(&ALU_OPS), dst, rng.next() as i32);
                }
                b.bind(l);
            }
            10 => {
                // Canonical map_lookup + null check; key may be out of
                // range to exercise the null path. Optionally writes the
                // value back (making the program impure).
                let key = rng.below(6) as i32;
                let skip = b.new_label();
                b.st_imm(SIZE_W, R10, -4, key)
                    .mov64_imm(R1, map as i32)
                    .mov64(R2, R10)
                    .add64_imm(R2, -4)
                    .call(helpers::MAP_LOOKUP)
                    .jmp_imm(JMP_JEQ, R0, 0, skip)
                    .ldx(SIZE_DW, R7, R0, 0);
                if rng.below(3) == 0 {
                    b.add64_imm(R7, 1).stx(SIZE_DW, R0, 0, R7);
                }
                b.bind(skip);
                b.mov64_imm(R0, rng.next() as i32);
                scalars.retain(|r| !(R1..=R5).contains(r) && *r != R7);
                if !scalars.contains(&R0) {
                    scalars.push(R0);
                }
            }
            11 => {
                // Impure helpers: ktime / prandom / trace.
                match rng.below(3) {
                    0 => {
                        b.call(helpers::KTIME_NS);
                    }
                    1 => {
                        b.call(helpers::PRANDOM_U32);
                    }
                    _ => {
                        b.mov64_imm(R1, rng.next() as i32).call(helpers::TRACE);
                    }
                }
                scalars.retain(|r| !(R1..=R5).contains(r));
                if !scalars.contains(&R0) {
                    scalars.push(R0);
                }
            }
            _ => {}
        }
    }
    // R0 must hold a scalar verdict at exit.
    if scalars.contains(&R0) && rng.below(2) == 0 {
        // keep whatever computation landed in R0
    } else if let Some(&r) = scalars.iter().find(|&&r| r != R0) {
        b.mov64(R0, r);
    } else {
        b.mov64_imm(R0, rng.next() as i32);
    }
    b.exit();
    b.build()
}

fn build_vm(insns: &[Insn], maps: &[MapDef], cfg: VmConfig) -> Option<Vm> {
    let vcfg = VerifierConfig {
        ctx_size: CTX_SIZE,
        ctx_writable: WRITE_LO..CTX_SIZE,
    };
    verify(insns.to_vec(), maps.to_vec(), &vcfg)
        .ok()
        .map(|p| Vm::with_config(p, cfg))
}

fn random_ctx(rng: &mut Rng) -> [u8; CTX_SIZE] {
    let mut ctx = [0u8; CTX_SIZE];
    for chunk in ctx.chunks_mut(8) {
        // Small byte values keep comparisons/branches interesting.
        let v = rng.next() & 0x0F0F_0F0F_0F0F_0F0F;
        chunk.copy_from_slice(&v.to_le_bytes()[..chunk.len()]);
    }
    ctx
}

/// Asserts that the tiered Vm `a` and the interpreter-pinned Vm `b`
/// agree on one invocation over `ctx`: result (verdict or error),
/// mediated ctx bytes.
fn assert_one_run(a: &mut Vm, b: &mut Vm, ctx: &[u8], label: &str) {
    let mut ca = ctx.to_vec();
    let mut cb = ctx.to_vec();
    let ra = a.run(&mut ca);
    let rb = b.run_interp(&mut cb);
    assert_eq!(
        ra,
        rb,
        "{label}: verdict/error diverged\n{}",
        a.program().disasm()
    );
    assert_eq!(
        ca,
        cb,
        "{label}: mediated ctx bytes diverged\n{}",
        a.program().disasm()
    );
}

/// Asserts that all externally observable Vm state matches after a batch
/// of runs: map contents and trace logs.
fn assert_state(a: &Vm, b: &Vm, maps: &[MapDef], label: &str) {
    for (i, def) in maps.iter().enumerate() {
        for k in 0..def.max_entries {
            assert_eq!(
                a.map(i).get(k),
                b.map(i).get(k),
                "{label}: map {i} slot {k} diverged\n{}",
                a.program().disasm()
            );
        }
    }
    assert_eq!(a.trace_log(), b.trace_log(), "{label}: trace logs diverged");
}

#[test]
fn random_programs_agree_across_tiers() {
    let mut rng = Rng::new(0x5EED_0001);
    let mut verified = 0u32;
    let mut compiled = 0u32;
    for seed in 0..300 {
        let (insns, maps) = gen_program(&mut rng);
        let cfg = VmConfig::default();
        let Some(mut a) = build_vm(&insns, &maps, cfg) else {
            continue;
        };
        let mut b = build_vm(&insns, &maps, cfg).expect("same program verifies twice");
        verified += 1;
        compiled += a.is_compiled() as u32;
        a.set_time(123_456);
        b.set_time(123_456);
        // Pre-seed one map slot so lookup paths see data.
        a.map_mut(0).set_u64(1, 0xAA55).unwrap();
        b.map_mut(0).set_u64(1, 0xAA55).unwrap();

        for i in 0..6 {
            let ctx = random_ctx(&mut rng);
            assert_one_run(&mut a, &mut b, &ctx, &format!("seed {seed} run {i}"));
        }
        assert_state(&a, &b, &maps, &format!("seed {seed}"));
        assert_eq!(a.invocations(), b.invocations(), "seed {seed}");
    }
    // The generator must actually exercise both engines, not degenerate.
    assert!(verified >= 150, "only {verified}/300 programs verified");
    assert!(compiled >= 100, "only {compiled} programs compiled");
}

#[test]
fn random_programs_agree_on_budget_exhaustion() {
    let mut rng = Rng::new(0x5EED_0002);
    let mut checked = 0u32;
    for seed in 0..120 {
        let (insns, maps) = gen_program(&mut rng);
        let n = insns.len() as u64;
        let ctx = random_ctx(&mut rng);
        for budget in [1, n / 2, n.saturating_sub(1), n, n + 2] {
            let cfg = VmConfig {
                max_insns: budget,
                ..VmConfig::default()
            };
            let Some(mut a) = build_vm(&insns, &maps, cfg) else {
                continue;
            };
            let mut b = build_vm(&insns, &maps, cfg).expect("verifies twice");
            a.set_time(9);
            b.set_time(9);
            checked += 1;
            assert_one_run(
                &mut a,
                &mut b,
                &ctx,
                &format!("seed {seed} budget {budget}"),
            );
            assert_state(&a, &b, &maps, &format!("seed {seed} budget {budget}"));
        }
    }
    assert!(checked >= 200, "only {checked} budget cases checked");
}

#[test]
fn random_programs_agree_on_truncated_ctx() {
    let mut rng = Rng::new(0x5EED_0003);
    let mut checked = 0u32;
    for seed in 0..120 {
        let (insns, maps) = gen_program(&mut rng);
        let cfg = VmConfig::default();
        let Some(mut a) = build_vm(&insns, &maps, cfg) else {
            continue;
        };
        let mut b = build_vm(&insns, &maps, cfg).expect("verifies twice");
        a.set_time(7);
        b.set_time(7);
        checked += 1;
        let full = random_ctx(&mut rng);
        for len in [0usize, 8, 17, 33, CTX_SIZE] {
            let mut ca = full[..len].to_vec();
            let mut cb = full[..len].to_vec();
            let ra = a.run(&mut ca);
            let rb = b.run_interp(&mut cb);
            assert_eq!(ra, rb, "seed {seed} len {len}\n{}", a.program().disasm());
            assert_eq!(ca, cb, "seed {seed} len {len}");
        }
        assert_state(&a, &b, &maps, &format!("seed {seed}"));
    }
    assert!(checked >= 60, "only {checked} truncation cases checked");
}
