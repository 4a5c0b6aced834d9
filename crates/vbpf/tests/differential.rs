//! Property test: no program the verifier accepts faults in the
//! interpreter.
//!
//! Strategy: generate seeded random programs through [`ProgramBuilder`]
//! from a constrained grammar (scalar ALU, ctx loads, writable-window ctx
//! stores, occasional ctx accesses the verifier must reject, stack
//! spill/reload, forward branch diamonds, canonical helper sequences),
//! rejection-sample them through the verifier, and run every accepted
//! program. On a full-size ctx it must return `Ok` and leave every byte
//! outside its verified write footprint as it was, with that footprint
//! inside the writable window (the router copies back exactly the
//! mediated fields the footprint names). A budget below the program
//! length may end in `BudgetExceeded`; one at or above it never does. A
//! truncated ctx may end in `OutOfBounds`, never in a panic.

use nvmetro_vbpf::builder::ProgramBuilder;
use nvmetro_vbpf::interp::helpers;
use nvmetro_vbpf::isa::*;
use nvmetro_vbpf::{verify, ExecError, MapDef, VerifierConfig, Vm, VmConfig};

/// Verified programs checked per run.
const PROGRAMS: u32 = 10_000;

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
        match rng.below(13) {
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
            12 => {
                // An aligned ctx access anywhere in, or just past, the
                // verified ctx: a load past `CTX_SIZE` or a store outside
                // the writable window must be rejected by the verifier.
                let size = rng.pick(&SIZES);
                let s = size_bytes(size);
                let off = (rng.below(((CTX_SIZE + 8) / s) as u64) as usize * s) as i16;
                let reg = rng.pick(&SCRATCH);
                if rng.below(2) == 0 || !scalars.contains(&reg) {
                    b.ldx(size, reg, R6, off);
                    if !scalars.contains(&reg) {
                        scalars.push(reg);
                    }
                } else {
                    b.stx(size, R6, off, reg);
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

/// Asserts that `after` differs from `before` only inside the program's
/// verified ctx write footprint.
fn assert_within_footprint(vm: &Vm, before: &[u8], after: &[u8], label: &str) {
    let writes = vm.program().ctx_writes();
    for (i, (a, b)) in before.iter().zip(after).enumerate() {
        let covered = writes.iter().any(|&(s, e)| (s..e).contains(&i));
        assert!(
            a == b || covered,
            "{label}: ctx byte {i} changed outside the footprint {writes:?}\n{:?}",
            vm.program()
        );
    }
}

/// Runs one verified program through every check; `vm` runs with the
/// default budget.
fn check_program(mut vm: Vm, insns: &[Insn], maps: &[MapDef], rng: &mut Rng, label: &str) {
    let program = vm.program();
    for &(s, e) in program.ctx_writes() {
        assert!(
            WRITE_LO <= s && e <= CTX_SIZE,
            "{label}: footprint {s}..{e} leaves the writable window\n{program:?}"
        );
    }
    vm.set_time(123_456);
    // Pre-seed one map slot so lookup paths see data.
    vm.map_mut(0).set_u64(1, 0xAA55).unwrap();

    // A full ctx: always Ok, and only the footprint changes.
    for i in 0..3 {
        let before = random_ctx(rng);
        let mut ctx = before;
        let r = vm.run(&mut ctx);
        assert!(r.is_ok(), "{label} run {i}: {r:?}\n{:?}", vm.program());
        assert_within_footprint(&vm, &before, &ctx, &format!("{label} run {i}"));
    }

    // A budget below the length may run out; one at the length never does.
    let n = insns.len() as u64;
    for budget in [rng.below(n), n] {
        let cfg = VmConfig {
            max_insns: budget,
            ..VmConfig::default()
        };
        let mut tight = build_vm(insns, maps, cfg).expect("same program verifies twice");
        let r = tight.run(&mut random_ctx(rng));
        let ok = if budget < n {
            matches!(r, Ok(_) | Err(ExecError::BudgetExceeded))
        } else {
            r.is_ok()
        };
        assert!(
            ok,
            "{label} budget {budget}/{n}: {r:?}\n{:?}",
            tight.program()
        );
    }

    // A truncated ctx: Ok or OutOfBounds, still only the footprint changes.
    let full = random_ctx(rng);
    let len = rng.below(CTX_SIZE as u64) as usize;
    let mut ctx = full[..len].to_vec();
    let r = vm.run(&mut ctx);
    assert!(
        matches!(r, Ok(_) | Err(ExecError::OutOfBounds { .. })),
        "{label} ctx len {len}: {r:?}\n{:?}",
        vm.program()
    );
    assert_within_footprint(&vm, &full[..len], &ctx, &format!("{label} ctx len {len}"));
}

#[test]
fn verified_programs_never_fault() {
    let mut rng = Rng::new(0x5EED_0001);
    let (mut verified, mut generated) = (0u32, 0u32);
    while verified < PROGRAMS {
        generated += 1;
        // The generator must keep producing verifiable programs.
        assert!(
            generated <= 4 * PROGRAMS,
            "only {verified}/{generated} programs verified"
        );
        let (insns, maps) = gen_program(&mut rng);
        let Some(vm) = build_vm(&insns, &maps, VmConfig::default()) else {
            continue;
        };
        verified += 1;
        check_program(vm, &insns, &maps, &mut rng, &format!("program {generated}"));
    }
}
