//! The vbpf fast engine: verified bytecode → pre-decoded op array.
//!
//! The interpreter pays for generality on every instruction: opcode
//! decode, operand extraction, tagged-address resolution, and runtime
//! bounds checks. A *verified* program does not need any of that repeated
//! per request — the verifier already proved that every ctx/stack access
//! has a unique constant offset ([`crate::verifier::AccessFact`]). This
//! module lowers verified bytecode into a dense [`Op`] array with
//! operands resolved and constant offsets bounds-checked once, at compile
//! time, then lets [`crate::interp::Vm`] run it with a tight dispatch
//! loop (no decode, no tag resolution, direct slicing).
//!
//! Two classic optimizations run over the lowered ops, both restricted to
//! shapes whose safety is easy to argue:
//!
//! * **Constant folding** — straight-line only (knowledge is dropped at
//!   join points), seeded with the two pointers whose values are fixed by
//!   the ABI (`R1 = CTX_BASE`, `R10 = STACK_BASE + STACK_SIZE`). Folding
//!   uses the *interpreter's* ALU ([`crate::interp::alu_value`]), so a
//!   folded constant is by construction the value the interpreter would
//!   have computed.
//! * **Dead-store elimination** — a single backward liveness pass (valid
//!   because jumps are forward-only) removes register moves and stack
//!   stores whose results are never observed. Helper calls conservatively
//!   use R1–R5 and *every* stack byte, so nothing a helper could read is
//!   ever considered dead.
//!
//! **Budget parity.** The interpreter charges one budget unit per
//! executed instruction and fails with `BudgetExceeded` when the budget
//! hits zero. Each compiled op carries a `weight`: 1 plus the number of
//! eliminated instructions folded into it (always the instructions
//! *immediately preceding* it in program order). An op is only removable
//! when its successor is not a jump target, which guarantees no path can
//! enter a removed run in the middle — so charging the folded weight at
//! the retained op reproduces the interpreter's budget accounting
//! exactly, including *where* the budget runs out (removed ops have no
//! observable side effects, so the truncated prefix the interpreter would
//! have executed is indistinguishable).
//!
//! Anything this module cannot prove out — missing access facts, ALU or
//! jump opcodes the interpreter would reject at runtime, the `trace`
//! helper (kept on the interpreter so its log reflects real pc-by-pc
//! execution) — makes [`compile`] return `None`, and the Vm falls back to
//! the interpreter. The two engines must agree instruction for instruction;
//! `tests/differential.rs` enforces this over random verified programs.

use crate::interp::{alu_value, helpers, CTX_BASE, STACK_BASE};
use crate::isa::*;
use crate::verifier::AccessFact;
use crate::Program;

/// A pre-decoded operation. Ctx/stack offsets are absolute, proven
/// in-bounds at compile time (given the entry check `ctx.len() >=
/// min_ctx`); `Dyn` forms keep runtime tagged-address resolution for
/// map-value pointers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Op {
    MovImm {
        dst: u8,
        v: u64,
    },
    AluImm {
        aluop: u8,
        is64: bool,
        dst: u8,
        imm: u64,
    },
    AluReg {
        aluop: u8,
        is64: bool,
        dst: u8,
        src: u8,
    },
    LdCtx {
        dst: u8,
        off: u16,
        size: u8,
    },
    LdStack {
        dst: u8,
        off: u16,
        size: u8,
    },
    StCtxReg {
        src: u8,
        off: u16,
        size: u8,
    },
    StCtxImm {
        off: u16,
        size: u8,
        v: u64,
    },
    StStackReg {
        src: u8,
        off: u16,
        size: u8,
    },
    StStackImm {
        off: u16,
        size: u8,
        v: u64,
    },
    LdDyn {
        dst: u8,
        src: u8,
        off: i16,
        size: u8,
    },
    StDynReg {
        dst: u8,
        src: u8,
        off: i16,
        size: u8,
    },
    StDynImm {
        dst: u8,
        off: i16,
        size: u8,
        v: u64,
    },
    Ja {
        target: u32,
    },
    Branch {
        jmpop: u8,
        use_reg: bool,
        dst: u8,
        src: u8,
        imm: u64,
        target: u32,
    },
    Call {
        helper: u32,
    },
    Exit,
    // Superinstructions produced by the peephole pass ([`fuse`]): each
    // covers a two-op idiom so the hot dispatch loop takes one iteration
    // where the 1:1 lowering took two. Every fused pair's first half
    // writes only registers — see `fuse` for why that makes mid-pair
    // budget exhaustion unobservable.
    /// Load a ctx field into `dst`, then compare-and-branch on it — the
    /// opcode/hook dispatch idiom. `dst` stays written (later compares
    /// may re-test it).
    LdCtxBranchImm {
        dst: u8,
        off: u16,
        size: u8,
        jmpop: u8,
        imm: u64,
        target: u32,
    },
    /// Three-address ALU: `dst = a op b` (from `mov dst, a; dst op= b`).
    AluRegReg {
        aluop: u8,
        is64: bool,
        dst: u8,
        a: u8,
        b: u8,
    },
    /// `dst op= imm`, then store `dst` to ctx — the LBA-translate idiom.
    AluImmStCtx {
        aluop: u8,
        is64: bool,
        dst: u8,
        imm: u64,
        off: u16,
        size: u8,
    },
    /// Set the verdict and return — every classifier's epilogue.
    MovImmExit {
        v: u64,
    },
}

/// A compiled program: dense ops plus parallel per-op metadata.
#[derive(Clone, Debug)]
pub(crate) struct CompiledProgram {
    pub(crate) ops: Vec<Op>,
    /// Budget units charged per op (1 + eliminated predecessors).
    pub(crate) weights: Vec<u32>,
    /// Original pc per op, for error attribution parity.
    pub(crate) pcs: Vec<u32>,
    /// Minimum ctx length the precomputed offsets are valid for; shorter
    /// contexts fall back to the interpreter.
    pub(crate) min_ctx: usize,
    /// True when some retained op touches the stack frame (stack
    /// loads/stores, or helper calls, which may read any stack byte).
    /// When false the executor skips allocating and zeroing the 512-byte
    /// frame entirely — the program cannot observe the difference.
    pub(crate) uses_stack: bool,
    /// Sum of all op weights. Verified programs are DAGs (the verifier
    /// rejects backward jumps), so every op executes at most once and
    /// this is a sound upper bound on any execution's budget charge:
    /// when the configured budget covers it, the executor skips per-op
    /// budget accounting with identical observable behavior.
    pub(crate) total_weight: u64,
}

/// Lowers a verified program; `None` means "run this one interpreted".
pub(crate) fn compile(program: &Program) -> Option<CompiledProgram> {
    let insns = &program.insns;
    let n = insns.len();
    let analysis = &program.analysis;
    if n == 0 || analysis.access.len() != n {
        return None;
    }

    let mut ops = Vec::with_capacity(n);
    let mut is_join = vec![false; n];
    let mut min_ctx = 0usize;
    for (pc, insn) in insns.iter().enumerate() {
        let op = lower(insn, pc, analysis.access[pc], &mut min_ctx)?;
        if let Op::Ja { target } | Op::Branch { target, .. } = op {
            is_join[target as usize] = true;
        }
        ops.push(op);
    }

    const_fold(&mut ops, &is_join);
    let removed = dead_stores(&ops, &is_join);

    // Compact: drop removed ops, folding their weight into the next
    // retained op, and remap jump targets.
    let mut index_map = vec![0u32; n];
    let mut out_ops = Vec::with_capacity(n);
    let mut weights = Vec::with_capacity(n);
    let mut pcs = Vec::with_capacity(n);
    let mut pending = 0u32;
    for i in 0..n {
        index_map[i] = out_ops.len() as u32;
        if removed[i] {
            pending += 1;
            continue;
        }
        out_ops.push(ops[i]);
        weights.push(1 + pending);
        pcs.push(i as u32);
        pending = 0;
    }
    // The last instruction is exit or a jump (FallsOffEnd), never removed.
    debug_assert_eq!(pending, 0);
    for op in &mut out_ops {
        if let Op::Ja { target } | Op::Branch { target, .. } = op {
            *target = index_map[*target as usize];
        }
    }
    fuse(&mut out_ops, &mut weights, &mut pcs);
    // Computed after dead-store elimination: a program whose only stack
    // traffic was dead stores needs no frame at all. Dynamic (map-value)
    // accesses never resolve to the stack — the verifier proved their
    // pointers are map values. (Fusion neither adds nor removes stack
    // traffic, so running this after it is equivalent.)
    let uses_stack = out_ops.iter().any(|op| {
        matches!(
            op,
            Op::LdStack { .. } | Op::StStackReg { .. } | Op::StStackImm { .. } | Op::Call { .. }
        )
    });
    let total_weight = weights.iter().map(|&w| w as u64).sum();
    Some(CompiledProgram {
        ops: out_ops,
        weights,
        pcs,
        min_ctx,
        uses_stack,
        total_weight,
    })
}

/// Peephole superinstruction fusion over the compacted ops. A pair may
/// fuse only when:
///
/// * the second op is not a jump target — no path may enter the pair in
///   the middle — and
/// * the first op writes only registers, so if the budget runs out
///   between the two halves, the interpreter's truncated prefix and the
///   fused op's "charge both up front, then fail" differ only in dead
///   register state: the run ends in `BudgetExceeded` either way with
///   identical ctx/map/stack contents.
///
/// The fused op carries both halves' weights and reports the first
/// half's pc on error (the only fallible half with a distinct error,
/// `AluImmStCtx`'s ALU step, *is* the first half).
fn fuse(ops: &mut Vec<Op>, weights: &mut Vec<u32>, pcs: &mut Vec<u32>) {
    let n = ops.len();
    let mut is_target = vec![false; n];
    for op in ops.iter() {
        if let Op::Ja { target } | Op::Branch { target, .. } = op {
            is_target[*target as usize] = true;
        }
    }
    let mut keep = vec![true; n];
    let mut i = 0;
    while i + 1 < n {
        if is_target[i + 1] {
            i += 1;
            continue;
        }
        let fused = match (ops[i], ops[i + 1]) {
            (
                Op::LdCtx { dst, off, size },
                Op::Branch {
                    jmpop,
                    use_reg: false,
                    dst: bdst,
                    imm,
                    target,
                    ..
                },
            ) if bdst == dst => Some(Op::LdCtxBranchImm {
                dst,
                off,
                size,
                jmpop,
                imm,
                target,
            }),
            (
                Op::AluReg {
                    aluop: ALU_MOV,
                    is64: true,
                    dst,
                    src: a,
                },
                Op::AluReg {
                    aluop,
                    is64,
                    dst: d2,
                    src: b,
                },
                // `b == dst` would read the mov's result instead of the
                // pre-mov register; don't fuse that shape.
            ) if d2 == dst && b != dst => Some(Op::AluRegReg {
                aluop,
                is64,
                dst,
                a,
                b,
            }),
            (
                Op::AluImm {
                    aluop,
                    is64,
                    dst,
                    imm,
                },
                Op::StCtxReg { src, off, size },
            ) if src == dst => Some(Op::AluImmStCtx {
                aluop,
                is64,
                dst,
                imm,
                off,
                size,
            }),
            (Op::MovImm { dst, v }, Op::Exit) if dst == R0 => Some(Op::MovImmExit { v }),
            _ => None,
        };
        if let Some(f) = fused {
            ops[i] = f;
            weights[i] += weights[i + 1];
            keep[i + 1] = false;
            i += 2;
        } else {
            i += 1;
        }
    }
    // Compact and remap jump targets a second time.
    let mut map = vec![0u32; n];
    let mut kept = 0u32;
    for (i, &k) in keep.iter().enumerate() {
        map[i] = kept;
        kept += k as u32;
    }
    let mut j = 0usize;
    for i in 0..n {
        if keep[i] {
            ops[j] = ops[i];
            weights[j] = weights[i];
            pcs[j] = pcs[i];
            j += 1;
        }
    }
    ops.truncate(j);
    weights.truncate(j);
    pcs.truncate(j);
    for op in ops.iter_mut() {
        if let Op::Ja { target } | Op::Branch { target, .. } | Op::LdCtxBranchImm { target, .. } =
            op
        {
            *target = map[*target as usize];
        }
    }
}

/// 1:1 lowering of one instruction; `None` rejects the whole program.
fn lower(insn: &Insn, pc: usize, fact: Option<AccessFact>, min_ctx: &mut usize) -> Option<Op> {
    let class = insn.class();
    match class {
        CLASS_ALU64 | CLASS_ALU => {
            let is64 = class == CLASS_ALU64;
            let aluop = insn.op & 0xF0;
            let use_reg = insn.op & 0x08 == SRC_X;
            if !matches!(
                aluop,
                ALU_ADD
                    | ALU_SUB
                    | ALU_MUL
                    | ALU_DIV
                    | ALU_OR
                    | ALU_AND
                    | ALU_LSH
                    | ALU_RSH
                    | ALU_NEG
                    | ALU_MOD
                    | ALU_XOR
                    | ALU_MOV
                    | ALU_ARSH
            ) {
                // The interpreter would raise BadOpcode at runtime; keep
                // that behavior by not compiling the program.
                return None;
            }
            Some(if aluop == ALU_MOV && !use_reg {
                let v = insn.imm as u64;
                Op::MovImm {
                    dst: insn.dst,
                    v: if is64 { v } else { v & 0xFFFF_FFFF },
                }
            } else if aluop == ALU_NEG {
                // NEG ignores its source operand in the interpreter.
                Op::AluImm {
                    aluop,
                    is64,
                    dst: insn.dst,
                    imm: 0,
                }
            } else if use_reg {
                Op::AluReg {
                    aluop,
                    is64,
                    dst: insn.dst,
                    src: insn.src,
                }
            } else {
                Op::AluImm {
                    aluop,
                    is64,
                    dst: insn.dst,
                    imm: insn.imm as u64,
                }
            })
        }
        CLASS_LD => {
            if !insn.is_lddw() {
                return None;
            }
            Some(Op::MovImm {
                dst: insn.dst,
                v: insn.imm as u64,
            })
        }
        CLASS_LDX => {
            let size = insn.access_size();
            match fact? {
                AccessFact::Ctx { off } => {
                    *min_ctx = (*min_ctx).max(off + size);
                    Some(Op::LdCtx {
                        dst: insn.dst,
                        off: off as u16,
                        size: size as u8,
                    })
                }
                AccessFact::Stack { off } => {
                    if off + size > STACK_SIZE {
                        return None;
                    }
                    Some(Op::LdStack {
                        dst: insn.dst,
                        off: off as u16,
                        size: size as u8,
                    })
                }
                AccessFact::MapValue => Some(Op::LdDyn {
                    dst: insn.dst,
                    src: insn.src,
                    off: insn.off,
                    size: size as u8,
                }),
            }
        }
        CLASS_ST | CLASS_STX => {
            let size = insn.access_size();
            let is_stx = class == CLASS_STX;
            match fact? {
                AccessFact::Ctx { off } => {
                    *min_ctx = (*min_ctx).max(off + size);
                    Some(if is_stx {
                        Op::StCtxReg {
                            src: insn.src,
                            off: off as u16,
                            size: size as u8,
                        }
                    } else {
                        Op::StCtxImm {
                            off: off as u16,
                            size: size as u8,
                            v: insn.imm as u64,
                        }
                    })
                }
                AccessFact::Stack { off } => {
                    if off + size > STACK_SIZE {
                        return None;
                    }
                    Some(if is_stx {
                        Op::StStackReg {
                            src: insn.src,
                            off: off as u16,
                            size: size as u8,
                        }
                    } else {
                        Op::StStackImm {
                            off: off as u16,
                            size: size as u8,
                            v: insn.imm as u64,
                        }
                    })
                }
                AccessFact::MapValue => Some(if is_stx {
                    Op::StDynReg {
                        dst: insn.dst,
                        src: insn.src,
                        off: insn.off,
                        size: size as u8,
                    }
                } else {
                    Op::StDynImm {
                        dst: insn.dst,
                        off: insn.off,
                        size: size as u8,
                        v: insn.imm as u64,
                    }
                }),
            }
        }
        CLASS_JMP => {
            // Match on the op *family* only, exactly like the interpreter
            // (the verifier is stricter about stray low bits; runtime
            // parity is with the interpreter).
            let jmpop = insn.op & 0xF0;
            let target = (pc as i64 + 1 + insn.off as i64) as u32;
            match jmpop {
                JMP_EXIT => Some(Op::Exit),
                JMP_CALL => {
                    let helper = insn.imm as u32;
                    if helper == helpers::TRACE {
                        // Keep traced programs on the interpreter so the
                        // trace log reflects real pc-by-pc execution.
                        return None;
                    }
                    Some(Op::Call { helper })
                }
                JMP_JA => Some(Op::Ja { target }),
                JMP_JEQ | JMP_JNE | JMP_JGT | JMP_JGE | JMP_JLT | JMP_JLE | JMP_JSET | JMP_JSGT
                | JMP_JSGE | JMP_JSLT | JMP_JSLE => Some(Op::Branch {
                    jmpop,
                    use_reg: insn.op & 0x08 == SRC_X,
                    dst: insn.dst,
                    src: insn.src,
                    imm: insn.imm as u64,
                    target,
                }),
                // Unassigned jump families are a runtime BadOpcode in the
                // interpreter; fall back so the error is reproduced.
                _ => None,
            }
        }
        _ => None,
    }
}

/// Straight-line constant propagation. Register knowledge is dropped at
/// join points (except R10, which is structurally read-only) and after
/// helper calls (which clobber R0–R5).
fn const_fold(ops: &mut [Op], is_join: &[bool]) {
    let mut regs: [Option<u64>; NUM_REGS] = [None; NUM_REGS];
    regs[R1 as usize] = Some(CTX_BASE);
    regs[R10 as usize] = Some(STACK_BASE + STACK_SIZE as u64);
    for i in 0..ops.len() {
        if is_join[i] {
            let r10 = regs[R10 as usize];
            regs = [None; NUM_REGS];
            regs[R10 as usize] = r10;
        }
        // First rewrite register-operand forms whose source is known into
        // immediate forms.
        match ops[i] {
            Op::AluReg {
                aluop,
                is64,
                dst,
                src,
            } => {
                if let Some(b) = regs[src as usize] {
                    ops[i] = if aluop == ALU_MOV {
                        Op::MovImm {
                            dst,
                            v: if is64 { b } else { b & 0xFFFF_FFFF },
                        }
                    } else {
                        Op::AluImm {
                            aluop,
                            is64,
                            dst,
                            imm: b,
                        }
                    };
                }
            }
            Op::StCtxReg { src, off, size } => {
                if let Some(v) = regs[src as usize] {
                    ops[i] = Op::StCtxImm { off, size, v };
                }
            }
            Op::StStackReg { src, off, size } => {
                if let Some(v) = regs[src as usize] {
                    ops[i] = Op::StStackImm { off, size, v };
                }
            }
            Op::StDynReg {
                dst,
                src,
                off,
                size,
            } => {
                if let Some(v) = regs[src as usize] {
                    ops[i] = Op::StDynImm { dst, off, size, v };
                }
            }
            Op::Branch {
                jmpop,
                use_reg: true,
                dst,
                src,
                imm: _,
                target,
            } => {
                // A register compare against a known constant becomes an
                // immediate compare, freeing the feeder (often a lddw of
                // a partition bound) for dead-store elimination.
                if let Some(b) = regs[src as usize] {
                    ops[i] = Op::Branch {
                        jmpop,
                        use_reg: false,
                        dst,
                        src,
                        imm: b,
                        target,
                    };
                }
            }
            _ => {}
        }
        // Then fold and update what we know about the register file.
        match ops[i] {
            Op::MovImm { dst, v } => regs[dst as usize] = Some(v),
            Op::AluImm {
                aluop,
                is64,
                dst,
                imm,
            } => {
                let folded = regs[dst as usize].and_then(|a| alu_value(aluop, is64, a, imm));
                if let Some(v) = folded {
                    ops[i] = Op::MovImm { dst, v };
                }
                regs[dst as usize] = folded;
            }
            Op::AluReg { dst, .. }
            | Op::LdCtx { dst, .. }
            | Op::LdStack { dst, .. }
            | Op::LdDyn { dst, .. } => regs[dst as usize] = None,
            Op::Call { .. } => {
                for r in regs.iter_mut().take(R5 as usize + 1) {
                    *r = None;
                }
            }
            _ => {}
        }
    }
}

const STACK_WORDS: usize = STACK_SIZE / 64;

fn stack_bits(off: u16, size: u8) -> impl Iterator<Item = (usize, u64)> {
    (off as usize..off as usize + size as usize).map(|b| (b / 64, 1u64 << (b % 64)))
}

/// Backward liveness over registers and byte-granular stack slots; one
/// pass suffices because all jumps are forward. Returns which ops to
/// remove. An op is removable only if it has no observable effect (dead
/// register def or dead stack store, and cannot trap) *and* its
/// fall-through successor is not a jump target (budget parity; see the
/// module docs).
fn dead_stores(ops: &[Op], is_join: &[bool]) -> Vec<bool> {
    let n = ops.len();
    let mut live_regs = vec![0u16; n + 1];
    let mut live_stack = vec![[0u64; STACK_WORDS]; n + 1];
    let mut removed = vec![false; n];
    let bit = |r: u8| 1u16 << r;
    for i in (0..n).rev() {
        // Live-out: union over successors (all have index > i).
        let (mut lr, mut ls) = match ops[i] {
            Op::Ja { target } => (live_regs[target as usize], live_stack[target as usize]),
            Op::Exit => (0u16, [0u64; STACK_WORDS]),
            Op::Branch { target, .. } => {
                let lr = live_regs[i + 1] | live_regs[target as usize];
                let mut ls = live_stack[i + 1];
                for (w, t) in ls.iter_mut().zip(live_stack[target as usize].iter()) {
                    *w |= t;
                }
                (lr, ls)
            }
            _ => (live_regs[i + 1], live_stack[i + 1]),
        };

        let dead = match ops[i] {
            Op::MovImm { dst, .. }
            | Op::AluImm { dst, .. }
            | Op::AluReg { dst, .. }
            | Op::LdCtx { dst, .. }
            | Op::LdStack { dst, .. } => lr & bit(dst) == 0,
            Op::StStackReg { off, size, .. } | Op::StStackImm { off, size, .. } => {
                stack_bits(off, size).all(|(w, m)| ls[w] & m == 0)
            }
            // Ctx/map stores and helper calls are observable; dynamic
            // loads can trap. Never removed.
            _ => false,
        };
        if dead && !is_join[i + 1] {
            removed[i] = true;
            live_regs[i] = lr;
            live_stack[i] = ls;
            continue;
        }

        // Transfer: live-in = (live-out − defs) ∪ uses.
        match ops[i] {
            Op::MovImm { dst, .. } => lr &= !bit(dst),
            Op::AluImm { dst, .. } => lr |= bit(dst), // def ∪ use of dst
            Op::AluReg {
                aluop, dst, src, ..
            } => {
                if aluop == ALU_MOV {
                    lr &= !bit(dst);
                } // else dst is both def and use
                lr |= bit(src);
            }
            Op::LdCtx { dst, .. } => lr &= !bit(dst),
            Op::LdStack { dst, off, size } => {
                lr &= !bit(dst);
                for (w, m) in stack_bits(off, size) {
                    ls[w] |= m;
                }
            }
            Op::LdDyn { dst, src, .. } => {
                lr &= !bit(dst);
                lr |= bit(src);
            }
            Op::StCtxReg { src, .. } => lr |= bit(src),
            Op::StCtxImm { .. } => {}
            Op::StStackReg { src, off, size } => {
                for (w, m) in stack_bits(off, size) {
                    ls[w] &= !m;
                }
                lr |= bit(src);
            }
            Op::StStackImm { off, size, .. } => {
                for (w, m) in stack_bits(off, size) {
                    ls[w] &= !m;
                }
            }
            Op::StDynReg { dst, src, .. } => lr |= bit(dst) | bit(src),
            Op::StDynImm { dst, .. } => lr |= bit(dst),
            Op::Call { .. } => {
                // Helpers def R0–R5; use R1–R5 plus, conservatively,
                // every initialized stack byte (keys/values may point
                // anywhere into the frame).
                lr &= !0x3F;
                lr |= 0x3E;
                ls = [!0u64; STACK_WORDS];
            }
            Op::Ja { .. } => {}
            Op::Branch {
                use_reg, dst, src, ..
            } => {
                lr |= bit(dst);
                if use_reg {
                    lr |= bit(src);
                }
            }
            Op::Exit => lr |= bit(R0),
            Op::LdCtxBranchImm { .. }
            | Op::AluRegReg { .. }
            | Op::AluImmStCtx { .. }
            | Op::MovImmExit { .. } => {
                unreachable!("superinstructions are fused after dead-store elimination")
            }
        }
        live_regs[i] = lr;
        live_stack[i] = ls;
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::verifier::{verify, VerifierConfig};

    fn cfg() -> VerifierConfig {
        VerifierConfig {
            ctx_size: 64,
            ctx_writable: 16..32,
        }
    }

    fn build(b: ProgramBuilder) -> Program {
        let (insns, maps) = b.build();
        verify(insns, maps, &cfg()).expect("program must verify")
    }

    /// The partition-offset classifier shape: pointer setup and the lddw
    /// constants fold away, then fusion packs the translate/store and
    /// verdict/exit pairs — a 3-superinstruction body with total weight
    /// equal to the original instruction count.
    #[test]
    fn offset_classifier_folds_to_dense_body() {
        let mut b = ProgramBuilder::new();
        b.ldx(SIZE_DW, R2, R1, 16)
            .lddw(R3, 4096)
            .alu64(ALU_ADD, R2, R3)
            .stx(SIZE_DW, R1, 16, R2)
            .lddw(R0, 0x11)
            .exit();
        let p = build(b);
        let n = p.len() as u32;
        let c = compile(&p).expect("compiles");
        assert_eq!(c.weights.iter().sum::<u32>(), n, "budget parity");
        assert_eq!(
            c.ops,
            vec![
                Op::LdCtx {
                    dst: R2,
                    off: 16,
                    size: 8
                },
                Op::AluImmStCtx {
                    aluop: ALU_ADD,
                    is64: true,
                    dst: R2,
                    imm: 4096,
                    off: 16,
                    size: 8
                },
                Op::MovImmExit { v: 0x11 },
            ]
        );
        assert_eq!(c.min_ctx, 24);
    }

    #[test]
    fn constant_store_folds_to_imm_form() {
        let mut b = ProgramBuilder::new();
        b.mov64_imm(R2, 3)
            .add64_imm(R2, 4)
            .stx(SIZE_W, R1, 16, R2)
            .mov64_imm(R0, 0)
            .exit();
        let p = build(b);
        let c = compile(&p).expect("compiles");
        assert!(c.ops.contains(&Op::StCtxImm {
            off: 16,
            size: 4,
            v: 7
        }));
        // The mov/add chain is dead once the store is an immediate, and
        // the mov r0/exit epilogue fuses into one superinstruction.
        assert_eq!(c.ops.len(), 2);
        assert_eq!(c.weights.iter().sum::<u32>(), p.len() as u32);
    }

    #[test]
    fn dead_stack_store_eliminated_but_live_one_kept() {
        let mut b = ProgramBuilder::new();
        b.st_imm(SIZE_DW, R10, -8, 1) // dead: never read
            .st_imm(SIZE_DW, R10, -16, 2) // live: reloaded below
            .ldx(SIZE_DW, R0, R10, -16)
            .exit();
        let p = build(b);
        let c = compile(&p).expect("compiles");
        assert!(!c
            .ops
            .iter()
            .any(|o| matches!(o, Op::StStackImm { v: 1, .. } | Op::StStackReg { .. })));
        assert!(c.ops.contains(&Op::StStackImm {
            off: STACK_SIZE as u16 - 16,
            size: 8,
            v: 2
        }));
        assert_eq!(c.weights.iter().sum::<u32>(), p.len() as u32);
    }

    #[test]
    fn stack_stores_before_helper_calls_are_never_dead() {
        use crate::maps::MapDef;
        let mut b = ProgramBuilder::new();
        let m = b.declare_map(MapDef {
            value_size: 8,
            max_entries: 4,
        });
        let is_null = b.new_label();
        b.st_imm(SIZE_W, R10, -4, 0)
            .mov64_imm(R1, m as i32)
            .mov64(R2, R10)
            .add64_imm(R2, -4)
            .call(helpers::MAP_LOOKUP)
            .jmp_imm(JMP_JEQ, R0, 0, is_null)
            .ldx(SIZE_DW, R0, R0, 0)
            .exit();
        b.bind(is_null);
        b.mov64_imm(R0, 0).exit();
        let p = build(b);
        let c = compile(&p).expect("compiles");
        // The key store at fp-4 feeds the helper: must survive.
        assert!(c
            .ops
            .iter()
            .any(|o| matches!(o, Op::StStackImm { v: 0, size: 4, .. })));
        assert_eq!(c.weights.iter().sum::<u32>(), p.len() as u32);
    }

    #[test]
    fn join_targets_block_removal_of_predecessor() {
        // r2 = 9 is dead (r2 rewritten on both paths before use), but its
        // successor is a branch whose fall-through leads to a join — the
        // op right after it is the branch, and the join target is the
        // exit block. Build a case where the dead def sits immediately
        // before a join target and verify it is kept (weight parity).
        let mut b = ProgramBuilder::new();
        let join = b.new_label();
        b.ldx(SIZE_W, R3, R1, 0)
            .mov64_imm(R0, 1)
            .jmp_imm(JMP_JEQ, R3, 0, join)
            .mov64_imm(R2, 9); // dead, but next insn is the join target
        b.bind(join);
        b.exit();
        let p = build(b);
        let c = compile(&p).expect("compiles");
        // mov r2, 9 must NOT be folded into the join-target exit: a taken
        // branch would then over-pay for an instruction it skipped.
        assert!(c.ops.contains(&Op::MovImm { dst: R2, v: 9 }));
        assert_eq!(c.weights.iter().sum::<u32>(), p.len() as u32);
        assert!(c.weights.iter().all(|&w| w == 1));
    }

    /// All four superinstruction shapes fuse on the canonical classifier
    /// layout, with jump targets remapped and both halves' weights
    /// charged on the fused op.
    #[test]
    fn fusion_packs_classifier_idioms() {
        let mut b = ProgramBuilder::new();
        let skip = b.new_label();
        b.ldx(SIZE_B, R2, R1, 0)
            .jmp_imm(JMP_JEQ, R2, 7, skip)
            .ldx(SIZE_DW, R3, R1, 16)
            .mov64(R4, R3)
            .alu64(ALU_ADD, R4, R3)
            .add64_imm(R4, 5)
            .stx(SIZE_DW, R1, 16, R4)
            .lddw(R0, 1)
            .exit();
        b.bind(skip);
        b.lddw(R0, 2).exit();
        let p = build(b);
        let c = compile(&p).expect("compiles");
        assert_eq!(
            c.ops,
            vec![
                Op::LdCtxBranchImm {
                    dst: R2,
                    off: 0,
                    size: 1,
                    jmpop: JMP_JEQ,
                    imm: 7,
                    target: 5
                },
                Op::LdCtx {
                    dst: R3,
                    off: 16,
                    size: 8
                },
                Op::AluRegReg {
                    aluop: ALU_ADD,
                    is64: true,
                    dst: R4,
                    a: R3,
                    b: R3
                },
                Op::AluImmStCtx {
                    aluop: ALU_ADD,
                    is64: true,
                    dst: R4,
                    imm: 5,
                    off: 16,
                    size: 8
                },
                Op::MovImmExit { v: 1 },
                Op::MovImmExit { v: 2 },
            ]
        );
        assert_eq!(
            c.weights.iter().sum::<u32>(),
            p.len() as u32,
            "budget parity"
        );
        assert_eq!(c.weights, vec![2, 1, 2, 2, 2, 2]);
    }

    #[test]
    fn fusion_blocked_when_second_half_is_a_jump_target() {
        let mut b = ProgramBuilder::new();
        let done = b.new_label();
        b.ldx(SIZE_W, R2, R1, 0)
            .lddw(R0, 1)
            .jmp_imm(JMP_JEQ, R2, 0, done)
            .lddw(R0, 2);
        b.bind(done);
        b.exit();
        let p = build(b);
        let c = compile(&p).expect("compiles");
        // `exit` is a join target: a taken branch must still be able to
        // land on it alone, so `mov r0, 2; exit` is NOT fused.
        assert!(c.ops.contains(&Op::MovImm { dst: R0, v: 2 }));
        assert!(c.ops.contains(&Op::Exit));
        assert_eq!(c.weights.iter().sum::<u32>(), p.len() as u32);
    }

    #[test]
    fn trace_programs_fall_back_to_interpreter() {
        let mut b = ProgramBuilder::new();
        b.mov64_imm(R1, 7).call(helpers::TRACE).exit();
        let p = build(b);
        assert!(compile(&p).is_none());
    }
}
