//! The vbpf interpreter.
//!
//! Executes verified programs over a byte-buffer context. Pointer values are
//! *tagged virtual addresses* (context / stack / map-value spaces), so a
//! classifier never holds a real host pointer; every access is re-checked at
//! runtime as defense in depth behind the verifier, mirroring how Linux
//! pairs its verifier with runtime bounds where cheap.

use crate::compile::{compile, CompiledProgram, Op};
use crate::isa::*;
use crate::maps::ArrayMap;
use crate::Program;

/// Helper function identifiers callable from programs.
pub mod helpers {
    /// `map_lookup(map_idx, key_ptr) -> value_ptr | 0`
    pub const MAP_LOOKUP: u32 = 1;
    /// `map_update(map_idx, key_ptr, value_ptr) -> 0 | u64::MAX`
    pub const MAP_UPDATE: u32 = 2;
    /// `ktime_ns() -> ns` — virtual time injected by the host.
    pub const KTIME_NS: u32 = 3;
    /// `prandom_u32() -> r`
    pub const PRANDOM_U32: u32 = 4;
    /// `trace(value) -> 0` — records a value for debugging/tests.
    pub const TRACE: u32 = 5;
}

pub(crate) const CTX_BASE: u64 = 0x1000_0000_0000_0000;
pub(crate) const STACK_BASE: u64 = 0x2000_0000_0000_0000;

/// Width of the runtime register file. The ISA has [`NUM_REGS`] (11)
/// registers; executing over a 16-slot array lets the compiled engine's
/// accessors mask indices (`r & 15`) instead of bounds-checking them —
/// the verifier guarantees register numbers are in range, so the masked
/// and checked forms are observably identical.
const REG_FILE: usize = 16;

/// Masked register read for the compiled dispatch loop.
#[inline(always)]
fn reg(regs: &[u64; REG_FILE], r: u8) -> u64 {
    regs[(r & 15) as usize]
}

/// Masked register write slot for the compiled dispatch loop.
#[inline(always)]
fn reg_mut(regs: &mut [u64; REG_FILE], r: u8) -> &mut u64 {
    &mut regs[(r & 15) as usize]
}
const MAP_BASE: u64 = 0x3000_0000_0000_0000;
const MAP_IDX_SHIFT: u32 = 40;
const MAP_OFF_MASK: u64 = (1 << MAP_IDX_SHIFT) - 1;

/// Which execution engine answered an invocation (see
/// [`Vm::run_with_tier`]). The router surfaces per-engine counters and
/// latency histograms through telemetry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// Fetch/decode interpreter: the fallback for programs the compiler
    /// rejects and for undersized contexts.
    Interp,
    /// Pre-decoded op array ([`crate::compile`]).
    Compiled,
}

/// Runtime execution failures (should be unreachable for verified programs
/// run with a context at least as large as the verified `ctx_size`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// A memory access fell outside its region.
    OutOfBounds { pc: usize },
    /// An opcode the interpreter does not implement.
    BadOpcode { pc: usize },
    /// The instruction budget was exhausted.
    BudgetExceeded,
    /// A call to an unknown helper.
    BadHelper { pc: usize },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for ExecError {}

/// Interpreter tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct VmConfig {
    /// Maximum instructions per invocation (forward-only control flow makes
    /// this a formality, but it guards interpreter bugs).
    pub max_insns: u64,
    /// Seed for the `prandom_u32` helper.
    pub prandom_seed: u64,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            max_insns: 1 << 20,
            prandom_seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

/// What [`Vm::memo_stats`] returns; deleted with it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    pub hits: u64,
    pub misses: u64,
}

/// An instantiated program: bytecode plus its maps and helper state.
///
/// The router keeps one `Vm` per installed classifier; maps persist across
/// invocations (that is how classifiers keep per-VM configuration such as
/// partition LBA offsets).
pub struct Vm {
    program: Program,
    compiled: Option<CompiledProgram>,
    maps: Vec<ArrayMap>,
    time_ns: u64,
    rng: u64,
    trace: Vec<u64>,
    cfg: VmConfig,
    invocations: u64,
}

impl Vm {
    /// Instantiates a verified program with zero-filled maps.
    pub fn new(program: Program) -> Self {
        Self::with_config(program, VmConfig::default())
    }

    /// Instantiates with explicit configuration.
    pub fn with_config(program: Program, cfg: VmConfig) -> Self {
        let maps = program.maps.iter().map(|d| ArrayMap::new(*d)).collect();
        let compiled = compile(&program);
        Vm {
            program,
            compiled,
            maps,
            time_ns: 0,
            rng: cfg.prandom_seed | 1,
            trace: Vec::new(),
            cfg,
            invocations: 0,
        }
    }

    /// No-op: `benchmark/` is the only caller and the next `benchmark` PR deletes it.
    pub fn set_memo_capacity(&mut self, _capacity: usize) {}

    /// All zero: `benchmark/` is the only caller and the next `benchmark` PR deletes it.
    pub fn memo_stats(&self) -> MemoStats {
        MemoStats::default()
    }

    /// The verified program this Vm executes.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// True when the pre-decoded compiled engine is available.
    pub fn is_compiled(&self) -> bool {
        self.compiled.is_some()
    }

    /// Sets the virtual time returned by the `ktime_ns` helper.
    pub fn set_time(&mut self, ns: u64) {
        self.time_ns = ns;
    }

    /// Host-side access to a map (e.g. to configure an LBA offset).
    pub fn map(&self, idx: usize) -> &ArrayMap {
        &self.maps[idx]
    }

    /// Host-side mutable access to a map.
    pub fn map_mut(&mut self, idx: usize) -> &mut ArrayMap {
        &mut self.maps[idx]
    }

    /// Values recorded by the `trace` helper (bounded to 1024).
    pub fn trace_log(&self) -> &[u64] {
        &self.trace
    }

    /// Number of completed invocations.
    pub fn invocations(&self) -> u64 {
        self.invocations
    }

    /// Runs the program over `ctx`; returns R0 (the routing verdict).
    ///
    /// Uses the compiled engine when it applies and the interpreter
    /// otherwise; use [`Vm::run_with_tier`] to observe which one ran, or
    /// [`Vm::run_interp`] to force the interpreter.
    pub fn run(&mut self, ctx: &mut [u8]) -> Result<u64, ExecError> {
        self.run_with_tier(ctx).map(|(v, _)| v)
    }

    /// Runs the program and reports which execution engine answered.
    #[inline]
    pub fn run_with_tier(&mut self, ctx: &mut [u8]) -> Result<(u64, Tier), ExecError> {
        match &self.compiled {
            // The compile-time bounds proofs assumed at least the
            // verified ctx footprint; an undersized context takes the
            // interpreter, which reproduces its exact behavior (possibly
            // OutOfBounds).
            Some(c) if ctx.len() >= c.min_ctx => {
                self.run_compiled(ctx).map(|v| (v, Tier::Compiled))
            }
            _ => self.run_interp(ctx).map(|v| (v, Tier::Interp)),
        }
    }

    /// Executes the pre-decoded op array. Caller guarantees
    /// `self.compiled` is present and `ctx.len() >= min_ctx`.
    #[inline]
    fn run_compiled(&mut self, ctx: &mut [u8]) -> Result<u64, ExecError> {
        let mut regs = [0u64; REG_FILE];
        regs[R1 as usize] = CTX_BASE;
        regs[R10 as usize] = STACK_BASE + STACK_SIZE as u64;
        let mut budget = self.cfg.max_insns;
        let cp: *const CompiledProgram = self.compiled.as_ref().expect("compiled engine present");
        // SAFETY: `cp` borrows from self.compiled, which nothing in this
        // loop mutates (helper calls touch maps/rng/trace only); the raw
        // pointer avoids aliasing with `&mut self` for those calls.
        let cp: &CompiledProgram = unsafe { &*cp };
        // Programs with no retained stack op cannot observe the frame:
        // skip the 512-byte zeroing (a large share of short classifiers'
        // per-invocation cost) and hand the arms an empty slice.
        let mut frame = std::mem::MaybeUninit::<[u8; STACK_SIZE]>::uninit();
        let stack: &mut [u8] = if cp.uses_stack {
            frame.write([0u8; STACK_SIZE])
        } else {
            &mut []
        };
        let ops = &cp.ops[..];
        let weights = &cp.weights[..];
        let pcs = &cp.pcs[..];
        // DAG programs (the verifier rejects backward jumps) charge at
        // most `total_weight`; when the budget covers that, per-op
        // accounting cannot fail and is skipped entirely.
        let check_budget = budget < cp.total_weight;
        let mut i = 0usize;
        loop {
            if check_budget {
                // Budget parity with the interpreter: an op's weight is
                // itself plus the eliminated instructions folded into it.
                let w = weights[i] as u64;
                if budget < w {
                    return Err(ExecError::BudgetExceeded);
                }
                budget -= w;
            }
            // SAFETY: `i` is always in bounds — it starts at 0 (a
            // verified program has at least its exit), branch/ja targets
            // were validated and remapped during compilation, and
            // fall-through `i + 1` is only reachable from non-terminal
            // ops (the verifier's falls-off-end check makes the last op
            // an exit or jump).
            match *unsafe { ops.get_unchecked(i) } {
                Op::MovImm { dst, v } => *reg_mut(&mut regs, dst) = v,
                Op::AluImm {
                    aluop,
                    is64,
                    dst,
                    imm,
                } => {
                    let a = reg(&regs, dst);
                    // `lower` validated the opcode, so `None` (and the
                    // lazily built error) is unreachable here.
                    *reg_mut(&mut regs, dst) =
                        alu_value(aluop, is64, a, imm).ok_or_else(|| ExecError::BadOpcode {
                            pc: pcs[i] as usize,
                        })?;
                }
                Op::AluReg {
                    aluop,
                    is64,
                    dst,
                    src,
                } => {
                    let a = reg(&regs, dst);
                    let b = reg(&regs, src);
                    *reg_mut(&mut regs, dst) =
                        alu_value(aluop, is64, a, b).ok_or_else(|| ExecError::BadOpcode {
                            pc: pcs[i] as usize,
                        })?;
                }
                Op::LdCtx { dst, off, size } => {
                    *reg_mut(&mut regs, dst) = load_le(ctx, off as usize, size as usize);
                }
                Op::LdStack { dst, off, size } => {
                    *reg_mut(&mut regs, dst) = load_le(stack, off as usize, size as usize);
                }
                Op::StCtxReg { src, off, size } => {
                    let v = reg(&regs, src);
                    store_le(ctx, off as usize, size as usize, v);
                }
                Op::StCtxImm { off, size, v } => {
                    store_le(ctx, off as usize, size as usize, v);
                }
                Op::StStackReg { src, off, size } => {
                    let v = reg(&regs, src);
                    store_le(stack, off as usize, size as usize, v);
                }
                Op::StStackImm { off, size, v } => {
                    store_le(stack, off as usize, size as usize, v);
                }
                Op::LdDyn {
                    dst,
                    src,
                    off,
                    size,
                } => {
                    let addr = reg(&regs, src).wrapping_add(off as i64 as u64);
                    *reg_mut(&mut regs, dst) =
                        self.mem_read(ctx, stack, addr, size as usize, pcs[i] as usize)?;
                }
                Op::StDynReg {
                    dst,
                    src,
                    off,
                    size,
                } => {
                    let addr = reg(&regs, dst).wrapping_add(off as i64 as u64);
                    let v = reg(&regs, src);
                    self.mem_write(ctx, stack, addr, size as usize, v, pcs[i] as usize)?;
                }
                Op::StDynImm { dst, off, size, v } => {
                    let addr = reg(&regs, dst).wrapping_add(off as i64 as u64);
                    self.mem_write(ctx, stack, addr, size as usize, v, pcs[i] as usize)?;
                }
                Op::Call { helper } => {
                    self.call_helper(ctx, stack, &mut regs, helper, pcs[i] as usize)?;
                }
                Op::Ja { target } => {
                    i = target as usize;
                    continue;
                }
                Op::Branch {
                    jmpop,
                    use_reg,
                    dst,
                    src,
                    imm,
                    target,
                } => {
                    let a = reg(&regs, dst);
                    let b = if use_reg { reg(&regs, src) } else { imm };
                    let taken = branch_taken(jmpop, a, b).ok_or_else(|| ExecError::BadOpcode {
                        pc: pcs[i] as usize,
                    })?;
                    i = if taken { target as usize } else { i + 1 };
                    continue;
                }
                Op::Exit => {
                    self.invocations += 1;
                    return Ok(regs[R0 as usize]);
                }
                Op::LdCtxBranchImm {
                    dst,
                    off,
                    size,
                    jmpop,
                    imm,
                    target,
                } => {
                    let v = load_le(ctx, off as usize, size as usize);
                    *reg_mut(&mut regs, dst) = v;
                    let taken =
                        branch_taken(jmpop, v, imm).ok_or_else(|| ExecError::BadOpcode {
                            pc: pcs[i] as usize,
                        })?;
                    i = if taken { target as usize } else { i + 1 };
                    continue;
                }
                Op::AluRegReg {
                    aluop,
                    is64,
                    dst,
                    a,
                    b,
                } => {
                    let av = reg(&regs, a);
                    let bv = reg(&regs, b);
                    *reg_mut(&mut regs, dst) =
                        alu_value(aluop, is64, av, bv).ok_or_else(|| ExecError::BadOpcode {
                            pc: pcs[i] as usize,
                        })?;
                }
                Op::AluImmStCtx {
                    aluop,
                    is64,
                    dst,
                    imm,
                    off,
                    size,
                } => {
                    let a = reg(&regs, dst);
                    let v = alu_value(aluop, is64, a, imm).ok_or_else(|| ExecError::BadOpcode {
                        pc: pcs[i] as usize,
                    })?;
                    *reg_mut(&mut regs, dst) = v;
                    store_le(ctx, off as usize, size as usize, v);
                }
                Op::MovImmExit { v } => {
                    self.invocations += 1;
                    return Ok(v);
                }
            }
            i += 1;
        }
    }

    /// Runs the program on the fetch/decode interpreter, bypassing the
    /// compiled engine (used as the fallback and by the differential
    /// tests/benches as the reference executor).
    pub fn run_interp(&mut self, ctx: &mut [u8]) -> Result<u64, ExecError> {
        let mut regs = [0u64; REG_FILE];
        let mut stack = [0u8; STACK_SIZE];
        regs[R1 as usize] = CTX_BASE;
        regs[R10 as usize] = STACK_BASE + STACK_SIZE as u64;
        let mut pc = 0usize;
        let mut budget = self.cfg.max_insns;
        let insns: *const [Insn] = &self.program.insns[..];
        // SAFETY: `insns` borrows from self.program which is not mutated
        // during the loop; raw pointer avoids aliasing with &mut self for
        // helper calls.
        let insns: &[Insn] = unsafe { &*insns };
        loop {
            if budget == 0 {
                return Err(ExecError::BudgetExceeded);
            }
            budget -= 1;
            let insn = insns.get(pc).copied().ok_or(ExecError::BadOpcode { pc })?;
            let class = insn.class();
            match class {
                CLASS_ALU64 | CLASS_ALU => {
                    exec_alu(&mut regs, insn, class == CLASS_ALU64, pc)?;
                    pc += 1;
                }
                CLASS_LD => {
                    if !insn.is_lddw() {
                        return Err(ExecError::BadOpcode { pc });
                    }
                    regs[insn.dst as usize] = insn.imm as u64;
                    pc += 1;
                }
                CLASS_LDX => {
                    let addr = regs[insn.src as usize].wrapping_add(insn.off as i64 as u64);
                    let v = self.mem_read(ctx, &stack, addr, insn.access_size(), pc)?;
                    regs[insn.dst as usize] = v;
                    pc += 1;
                }
                CLASS_ST | CLASS_STX => {
                    let addr = regs[insn.dst as usize].wrapping_add(insn.off as i64 as u64);
                    let v = if class == CLASS_STX {
                        regs[insn.src as usize]
                    } else {
                        insn.imm as u64
                    };
                    self.mem_write(ctx, &mut stack, addr, insn.access_size(), v, pc)?;
                    pc += 1;
                }
                CLASS_JMP => {
                    let jmpop = insn.op & 0xF0;
                    match jmpop {
                        JMP_EXIT => {
                            self.invocations += 1;
                            return Ok(regs[R0 as usize]);
                        }
                        JMP_CALL => {
                            self.call_helper(ctx, &mut stack, &mut regs, insn.imm as u32, pc)?;
                            pc += 1;
                        }
                        _ => {
                            let a = regs[insn.dst as usize];
                            let b = if insn.op & 0x08 == SRC_X {
                                regs[insn.src as usize]
                            } else {
                                insn.imm as u64
                            };
                            let taken =
                                branch_taken(jmpop, a, b).ok_or(ExecError::BadOpcode { pc })?;
                            pc = if taken {
                                (pc as i64 + 1 + insn.off as i64) as usize
                            } else {
                                pc + 1
                            };
                        }
                    }
                }
                _ => return Err(ExecError::BadOpcode { pc }),
            }
        }
    }

    fn mem_read(
        &self,
        ctx: &[u8],
        stack: &[u8],
        addr: u64,
        size: usize,
        pc: usize,
    ) -> Result<u64, ExecError> {
        let bytes = self.resolve(ctx, stack, addr, size, pc)?;
        let mut v = [0u8; 8];
        v[..size].copy_from_slice(bytes);
        Ok(u64::from_le_bytes(v))
    }

    fn resolve<'b>(
        &'b self,
        ctx: &'b [u8],
        stack: &'b [u8],
        addr: u64,
        size: usize,
        pc: usize,
    ) -> Result<&'b [u8], ExecError> {
        let oob = ExecError::OutOfBounds { pc };
        if addr >= MAP_BASE {
            let rel = addr - MAP_BASE;
            let map = (rel >> MAP_IDX_SHIFT) as usize;
            let off = (rel & MAP_OFF_MASK) as usize;
            let m = self.maps.get(map).ok_or(oob)?;
            m.get(0).ok_or(oob)?;
            let total = m.def().value_size * m.def().max_entries as usize;
            if off + size > total {
                return Err(oob);
            }
            // Flat view across slots; lookups always return slot-aligned
            // pointers and the verifier bounds offsets within a value.
            let key = (off / m.def().value_size) as u32;
            let within = off % m.def().value_size;
            let slot = m.get(key).ok_or(oob)?;
            if within + size > slot.len() {
                return Err(oob);
            }
            Ok(&slot[within..within + size])
        } else if addr >= STACK_BASE {
            let off = (addr - STACK_BASE) as usize;
            // `stack.len()`, not STACK_SIZE: a compiled program with no
            // retained stack op runs on an empty frame, and the verifier
            // guarantees it never forms a stack-tagged address anyway.
            if off + size > stack.len() {
                return Err(oob);
            }
            Ok(&stack[off..off + size])
        } else if addr >= CTX_BASE {
            let off = (addr - CTX_BASE) as usize;
            if off + size > ctx.len() {
                return Err(oob);
            }
            Ok(&ctx[off..off + size])
        } else {
            Err(oob)
        }
    }

    fn mem_write(
        &mut self,
        ctx: &mut [u8],
        stack: &mut [u8],
        addr: u64,
        size: usize,
        value: u64,
        pc: usize,
    ) -> Result<(), ExecError> {
        let oob = ExecError::OutOfBounds { pc };
        let bytes = value.to_le_bytes();
        if addr >= MAP_BASE {
            let rel = addr - MAP_BASE;
            let map = (rel >> MAP_IDX_SHIFT) as usize;
            let off = (rel & MAP_OFF_MASK) as usize;
            let m = self.maps.get_mut(map).ok_or(oob)?;
            let vsize = m.def().value_size;
            let key = (off / vsize) as u32;
            let within = off % vsize;
            let slot = m.get_mut(key).ok_or(oob)?;
            if within + size > slot.len() {
                return Err(oob);
            }
            slot[within..within + size].copy_from_slice(&bytes[..size]);
            Ok(())
        } else if addr >= STACK_BASE {
            let off = (addr - STACK_BASE) as usize;
            if off + size > stack.len() {
                return Err(oob);
            }
            stack[off..off + size].copy_from_slice(&bytes[..size]);
            Ok(())
        } else if addr >= CTX_BASE {
            let off = (addr - CTX_BASE) as usize;
            if off + size > ctx.len() {
                return Err(oob);
            }
            ctx[off..off + size].copy_from_slice(&bytes[..size]);
            Ok(())
        } else {
            Err(oob)
        }
    }

    fn call_helper(
        &mut self,
        ctx: &mut [u8],
        stack: &mut [u8],
        regs: &mut [u64; REG_FILE],
        helper: u32,
        pc: usize,
    ) -> Result<(), ExecError> {
        let r0 = match helper {
            helpers::MAP_LOOKUP => {
                let map_idx = regs[R1 as usize] as usize;
                let key = self.mem_read(ctx, stack, regs[R2 as usize], 4, pc)? as u32;
                match self.maps.get(map_idx) {
                    Some(m) if key < m.def().max_entries => {
                        MAP_BASE
                            + ((map_idx as u64) << MAP_IDX_SHIFT)
                            + (key as usize * m.def().value_size) as u64
                    }
                    _ => 0,
                }
            }
            helpers::MAP_UPDATE => {
                let map_idx = regs[R1 as usize] as usize;
                let key = self.mem_read(ctx, stack, regs[R2 as usize], 4, pc)? as u32;
                let vsize = match self.maps.get(map_idx) {
                    Some(m) => m.def().value_size,
                    None => return Err(ExecError::BadHelper { pc }),
                };
                let mut value = vec![0u8; vsize];
                for (i, b) in value.iter_mut().enumerate() {
                    *b =
                        self.mem_read(ctx, stack, regs[R3 as usize].wrapping_add(i as u64), 1, pc)?
                            as u8;
                }
                match self.maps.get_mut(map_idx).unwrap().update(key, &value) {
                    Ok(()) => 0,
                    Err(_) => u64::MAX,
                }
            }
            helpers::KTIME_NS => self.time_ns,
            helpers::PRANDOM_U32 => {
                // xorshift64*
                self.rng ^= self.rng << 13;
                self.rng ^= self.rng >> 7;
                self.rng ^= self.rng << 17;
                (self.rng.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) & 0xFFFF_FFFF
            }
            helpers::TRACE => {
                if self.trace.len() < 1024 {
                    self.trace.push(regs[R1 as usize]);
                }
                0
            }
            _ => return Err(ExecError::BadHelper { pc }),
        };
        regs[R0 as usize] = r0;
        // Clobber caller-saved registers like the real calling convention.
        for r in R1..=R5 {
            regs[r as usize] = 0;
        }
        Ok(())
    }
}

fn exec_alu(
    regs: &mut [u64; REG_FILE],
    insn: Insn,
    is64: bool,
    pc: usize,
) -> Result<(), ExecError> {
    let aluop = insn.op & 0xF0;
    let b = if insn.op & 0x08 == SRC_X {
        regs[insn.src as usize]
    } else {
        insn.imm as u64
    };
    let a = regs[insn.dst as usize];
    regs[insn.dst as usize] = alu_value(aluop, is64, a, b).ok_or(ExecError::BadOpcode { pc })?;
    Ok(())
}

/// The single source of ALU semantics, shared by the interpreter, the
/// compiled engine's dispatch loop, and the compiler's constant folder
/// (so a folded constant is bit-identical to what execution would have
/// produced). `None` means an undefined ALU family (`BadOpcode` at
/// runtime, "don't fold" at compile time).
#[inline(always)]
pub(crate) fn alu_value(aluop: u8, is64: bool, a: u64, b: u64) -> Option<u64> {
    let (a32, b32) = (a as u32, b as u32);
    let v = if is64 {
        match aluop {
            ALU_ADD => a.wrapping_add(b),
            ALU_SUB => a.wrapping_sub(b),
            ALU_MUL => a.wrapping_mul(b),
            ALU_DIV => a.checked_div(b).unwrap_or(0),
            ALU_MOD => {
                if b == 0 {
                    a
                } else {
                    a % b
                }
            }
            ALU_OR => a | b,
            ALU_AND => a & b,
            ALU_XOR => a ^ b,
            ALU_LSH => a.wrapping_shl((b & 63) as u32),
            ALU_RSH => a.wrapping_shr((b & 63) as u32),
            ALU_ARSH => ((a as i64) >> (b & 63)) as u64,
            ALU_NEG => (a as i64).wrapping_neg() as u64,
            ALU_MOV => b,
            _ => return None,
        }
    } else {
        let v32: u32 = match aluop {
            ALU_ADD => a32.wrapping_add(b32),
            ALU_SUB => a32.wrapping_sub(b32),
            ALU_MUL => a32.wrapping_mul(b32),
            ALU_DIV => a32.checked_div(b32).unwrap_or(0),
            ALU_MOD => {
                if b32 == 0 {
                    a32
                } else {
                    a32 % b32
                }
            }
            ALU_OR => a32 | b32,
            ALU_AND => a32 & b32,
            ALU_XOR => a32 ^ b32,
            ALU_LSH => a32.wrapping_shl(b32 & 31),
            ALU_RSH => a32.wrapping_shr(b32 & 31),
            ALU_ARSH => ((a32 as i32) >> (b32 & 31)) as u32,
            ALU_NEG => (a32 as i32).wrapping_neg() as u32,
            ALU_MOV => b32,
            _ => return None,
        };
        v32 as u64
    };
    Some(v)
}

/// Branch predicate shared by both execution engines; `None` means an
/// undefined jump family (`BadOpcode` at runtime).
#[inline(always)]
pub(crate) fn branch_taken(jmpop: u8, a: u64, b: u64) -> Option<bool> {
    Some(match jmpop {
        JMP_JA => true,
        JMP_JEQ => a == b,
        JMP_JNE => a != b,
        JMP_JGT => a > b,
        JMP_JGE => a >= b,
        JMP_JLT => a < b,
        JMP_JLE => a <= b,
        JMP_JSET => a & b != 0,
        JMP_JSGT => (a as i64) > b as i64,
        JMP_JSGE => (a as i64) >= b as i64,
        JMP_JSLT => (a as i64) < (b as i64),
        JMP_JSLE => (a as i64) <= b as i64,
        _ => return None,
    })
}

/// Little-endian load of `size` bytes (1/2/4/8) at a compile-time-proved
/// in-bounds offset — the zero-cost replacement for the interpreter's
/// tagged-address resolve on the compiled fast path.
#[inline(always)]
pub(crate) fn load_le(buf: &[u8], off: usize, size: usize) -> u64 {
    match size {
        1 => buf[off] as u64,
        2 => u16::from_le_bytes(buf[off..off + 2].try_into().unwrap()) as u64,
        4 => u32::from_le_bytes(buf[off..off + 4].try_into().unwrap()) as u64,
        _ => u64::from_le_bytes(buf[off..off + 8].try_into().unwrap()),
    }
}

/// Little-endian store counterpart of [`load_le`].
#[inline(always)]
pub(crate) fn store_le(buf: &mut [u8], off: usize, size: usize, v: u64) {
    match size {
        1 => buf[off] = v as u8,
        2 => buf[off..off + 2].copy_from_slice(&(v as u16).to_le_bytes()),
        4 => buf[off..off + 4].copy_from_slice(&(v as u32).to_le_bytes()),
        _ => buf[off..off + 8].copy_from_slice(&v.to_le_bytes()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::maps::MapDef;
    use crate::verifier::{verify, VerifierConfig};

    fn compile(b: ProgramBuilder, ctx_size: usize, writable: std::ops::Range<usize>) -> Vm {
        let (insns, maps) = b.build();
        let cfg = VerifierConfig {
            ctx_size,
            ctx_writable: writable,
        };
        Vm::new(verify(insns, maps, &cfg).expect("program must verify"))
    }

    #[test]
    fn returns_immediate() {
        let mut b = ProgramBuilder::new();
        b.mov64_imm(R0, 42).exit();
        let mut vm = compile(b, 16, 0..0);
        assert_eq!(vm.run(&mut [0u8; 16]).unwrap(), 42);
        assert_eq!(vm.invocations(), 1);
    }

    #[test]
    fn reads_context_fields() {
        let mut b = ProgramBuilder::new();
        b.ldx(SIZE_W, R0, R1, 4).exit();
        let mut vm = compile(b, 16, 0..0);
        let mut ctx = [0u8; 16];
        ctx[4..8].copy_from_slice(&0xAB_CDu32.to_le_bytes());
        assert_eq!(vm.run(&mut ctx).unwrap(), 0xAB_CD);
    }

    #[test]
    fn writes_context_window() {
        let mut b = ProgramBuilder::new();
        b.mov64_imm(R0, 0).st_imm(SIZE_DW, R1, 8, 0x55).exit();
        let mut vm = compile(b, 16, 8..16);
        let mut ctx = [0u8; 16];
        vm.run(&mut ctx).unwrap();
        assert_eq!(u64::from_le_bytes(ctx[8..16].try_into().unwrap()), 0x55);
    }

    #[test]
    fn arithmetic_32bit_zero_extends() {
        let mut b = ProgramBuilder::new();
        b.lddw(R0, 0xFFFF_FFFF_FFFF_FFFF)
            .alu32_imm(ALU_ADD, R0, 1)
            .exit();
        let mut vm = compile(b, 8, 0..0);
        // 32-bit add wraps to 0 and clears the upper half.
        assert_eq!(vm.run(&mut [0u8; 8]).unwrap(), 0);
    }

    #[test]
    fn division_by_zero_register_yields_zero() {
        let mut b = ProgramBuilder::new();
        b.mov64_imm(R0, 100)
            .mov64_imm(R2, 0)
            .alu64(ALU_DIV, R0, R2)
            .exit();
        let mut vm = compile(b, 8, 0..0);
        assert_eq!(vm.run(&mut [0u8; 8]).unwrap(), 0);
    }

    #[test]
    fn modulo_by_zero_keeps_dividend() {
        let mut b = ProgramBuilder::new();
        b.mov64_imm(R0, 7)
            .mov64_imm(R2, 0)
            .alu64(ALU_MOD, R0, R2)
            .exit();
        let mut vm = compile(b, 8, 0..0);
        assert_eq!(vm.run(&mut [0u8; 8]).unwrap(), 7);
    }

    #[test]
    fn branches_select_paths() {
        // return ctx[0] >= 10 ? 1 : 2
        let mut b = ProgramBuilder::new();
        let ge = b.new_label();
        b.ldx(SIZE_B, R2, R1, 0)
            .jmp_imm(JMP_JGE, R2, 10, ge)
            .mov64_imm(R0, 2)
            .exit();
        b.bind(ge);
        b.mov64_imm(R0, 1).exit();
        let mut vm = compile(b, 8, 0..0);
        let mut lo = [5u8, 0, 0, 0, 0, 0, 0, 0];
        let mut hi = [55u8, 0, 0, 0, 0, 0, 0, 0];
        assert_eq!(vm.run(&mut lo).unwrap(), 2);
        assert_eq!(vm.run(&mut hi).unwrap(), 1);
    }

    #[test]
    fn signed_comparisons() {
        // return (i64)ctx[0..8] < -1 ? 1 : 0
        let mut b = ProgramBuilder::new();
        let neg = b.new_label();
        b.ldx(SIZE_DW, R2, R1, 0)
            .jmp_imm(JMP_JSLT, R2, -1, neg)
            .mov64_imm(R0, 0)
            .exit();
        b.bind(neg);
        b.mov64_imm(R0, 1).exit();
        let mut vm = compile(b, 8, 0..0);
        let mut ctx = (-100i64).to_le_bytes();
        assert_eq!(vm.run(&mut ctx).unwrap(), 1);
        let mut ctx = 100i64.to_le_bytes();
        assert_eq!(vm.run(&mut ctx).unwrap(), 0);
    }

    #[test]
    fn stack_spill_and_reload() {
        let mut b = ProgramBuilder::new();
        b.mov64_imm(R2, 1234)
            .stx(SIZE_DW, R10, -16, R2)
            .ldx(SIZE_DW, R0, R10, -16)
            .exit();
        let mut vm = compile(b, 8, 0..0);
        assert_eq!(vm.run(&mut [0u8; 8]).unwrap(), 1234);
    }

    #[test]
    fn map_state_persists_across_invocations() {
        // counter: v = map[0]; map[0] = v + 1; return v
        let mut b = ProgramBuilder::new();
        let m = b.declare_map(MapDef {
            value_size: 8,
            max_entries: 1,
        });
        let is_null = b.new_label();
        b.st_imm(SIZE_W, R10, -4, 0)
            .mov64_imm(R1, m as i32)
            .mov64(R2, R10)
            .add64_imm(R2, -4)
            .call(helpers::MAP_LOOKUP)
            .jmp_imm(JMP_JEQ, R0, 0, is_null)
            .ldx(SIZE_DW, R6, R0, 0)
            .mov64(R2, R6)
            .add64_imm(R2, 1)
            .stx(SIZE_DW, R0, 0, R2)
            .mov64(R0, R6)
            .exit();
        b.bind(is_null);
        b.lddw(R0, u64::MAX).exit();
        let mut vm = compile(b, 8, 0..0);
        let mut ctx = [0u8; 8];
        assert_eq!(vm.run(&mut ctx).unwrap(), 0);
        assert_eq!(vm.run(&mut ctx).unwrap(), 1);
        assert_eq!(vm.run(&mut ctx).unwrap(), 2);
        // Host sees the same state.
        assert_eq!(vm.map(0).get_u64(0), Some(3));
    }

    #[test]
    fn host_configured_map_read_by_program() {
        let mut b = ProgramBuilder::new();
        let m = b.declare_map(MapDef {
            value_size: 8,
            max_entries: 2,
        });
        let is_null = b.new_label();
        b.st_imm(SIZE_W, R10, -4, 1)
            .mov64_imm(R1, m as i32)
            .mov64(R2, R10)
            .add64_imm(R2, -4)
            .call(helpers::MAP_LOOKUP)
            .jmp_imm(JMP_JEQ, R0, 0, is_null)
            .ldx(SIZE_DW, R0, R0, 0)
            .exit();
        b.bind(is_null);
        b.mov64_imm(R0, 0).exit();
        let mut vm = compile(b, 8, 0..0);
        vm.map_mut(0).set_u64(1, 0xBEEF).unwrap();
        assert_eq!(vm.run(&mut [0u8; 8]).unwrap(), 0xBEEF);
    }

    #[test]
    fn ktime_helper_returns_injected_time() {
        let mut b = ProgramBuilder::new();
        b.call(helpers::KTIME_NS).exit();
        let mut vm = compile(b, 8, 0..0);
        vm.set_time(987_654);
        assert_eq!(vm.run(&mut [0u8; 8]).unwrap(), 987_654);
    }

    #[test]
    fn trace_helper_records_values() {
        let mut b = ProgramBuilder::new();
        b.mov64_imm(R1, 77).call(helpers::TRACE).exit();
        let mut vm = compile(b, 8, 0..0);
        vm.run(&mut [0u8; 8]).unwrap();
        assert_eq!(vm.trace_log(), &[77]);
    }

    #[test]
    fn prandom_is_deterministic_per_seed() {
        let build = || {
            let mut b = ProgramBuilder::new();
            b.call(helpers::PRANDOM_U32).exit();
            b
        };
        let mut a = compile(build(), 8, 0..0);
        let mut b2 = compile(build(), 8, 0..0);
        assert_eq!(
            a.run(&mut [0u8; 8]).unwrap(),
            b2.run(&mut [0u8; 8]).unwrap()
        );
    }

    #[test]
    fn runtime_rechecks_ctx_bounds() {
        // Verified against ctx_size=16 but run with an 8-byte ctx: the
        // runtime bound must catch it (defense in depth).
        let mut b = ProgramBuilder::new();
        b.ldx(SIZE_DW, R0, R1, 8).exit();
        let mut vm = compile(b, 16, 0..0);
        let mut small = [0u8; 8];
        assert!(matches!(
            vm.run(&mut small),
            Err(ExecError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn map_update_helper_round_trips() {
        let mut b = ProgramBuilder::new();
        let m = b.declare_map(MapDef {
            value_size: 8,
            max_entries: 2,
        });
        // key=0 at fp-4; value buffer at fp-16 = 0x1122; call update; ret 0
        b.st_imm(SIZE_W, R10, -4, 0)
            .st_imm(SIZE_DW, R10, -16, 0x1122)
            .mov64_imm(R1, m as i32)
            .mov64(R2, R10)
            .add64_imm(R2, -4)
            .mov64(R3, R10)
            .add64_imm(R3, -16)
            .call(helpers::MAP_UPDATE)
            .exit();
        let mut vm = compile(b, 8, 0..0);
        assert_eq!(vm.run(&mut [0u8; 8]).unwrap(), 0);
        assert_eq!(vm.map(0).get_u64(0), Some(0x1122));
    }

    #[test]
    fn trace_program_falls_back_to_interp_tier() {
        let mut b = ProgramBuilder::new();
        b.mov64_imm(R1, 9).call(helpers::TRACE).exit();
        let mut vm = compile(b, 8, 0..0);
        assert!(!vm.is_compiled());
        let (v, tier) = vm.run_with_tier(&mut [0u8; 8]).unwrap();
        assert_eq!((v, tier), (0, Tier::Interp));
        assert_eq!(vm.trace_log(), &[9]);
    }

    #[test]
    fn short_ctx_falls_back_to_interp_per_invocation() {
        // Verified at ctx_size 16; the compiled tier's bounds proofs only
        // hold for ctx >= min_ctx, so an 8-byte ctx must take the
        // interpreter and reproduce its OutOfBounds.
        let mut b = ProgramBuilder::new();
        b.ldx(SIZE_DW, R0, R1, 8).exit();
        let mut vm = compile(b, 16, 0..0);
        assert!(vm.is_compiled());
        let mut small = [0u8; 8];
        assert!(matches!(
            vm.run_with_tier(&mut small),
            Err(ExecError::OutOfBounds { .. })
        ));
        let mut full = [0u8; 16];
        full[8..].copy_from_slice(&0xABu64.to_le_bytes());
        assert_eq!(vm.run_with_tier(&mut full).unwrap().0, 0xAB);
    }

    #[test]
    fn short_ctx_under_a_helper_key_read_fails_alike_in_both_engines() {
        // The map key is read by the helper straight from ctx[32..36] and
        // MAP_UPDATE's value from ctx[40..48]: no compiled op carries those
        // offsets, so the compiled engine runs and the helper's own bounds
        // check must fail exactly as interpreted, leaving the same map and
        // ctx bytes behind.
        let build = |helper: u32| {
            let mut b = ProgramBuilder::new();
            let m = b.declare_map(MapDef {
                value_size: 8,
                max_entries: 4,
            });
            b.mov64(R2, R1)
                .add64_imm(R2, 32)
                .mov64(R3, R1)
                .add64_imm(R3, 40)
                .mov64_imm(R1, m as i32)
                .call(helper)
                .mov64_imm(R0, 0)
                .exit();
            b
        };
        for (helper, needs) in [(helpers::MAP_LOOKUP, 36), (helpers::MAP_UPDATE, 48)] {
            let mut vm = compile(build(helper), 48, 0..0);
            let mut interp = compile(build(helper), 48, 0..0);
            assert!(vm.is_compiled());
            for len in [32usize, 34, 36, 40, 44, 47, 48] {
                let mut ctx_a: Vec<u8> = (0..48).collect();
                ctx_a[32..36].copy_from_slice(&1u32.to_le_bytes()); // key 1
                ctx_a.truncate(len);
                let mut ctx_b = ctx_a.clone();
                let a = vm.run_with_tier(&mut ctx_a);
                let b = interp.run_interp(&mut ctx_b);
                assert_eq!(a.map(|(v, _)| v), b, "helper {helper} ctx len {len}");
                assert_eq!(b.is_err(), len < needs, "helper {helper} ctx len {len}");
                assert_eq!(ctx_a, ctx_b, "helper {helper} ctx len {len}");
                assert_eq!(vm.map(0).get_u64(1), interp.map(0).get_u64(1));
                let stored = helper == helpers::MAP_UPDATE && len >= needs;
                let want = u64::from_le_bytes([40, 41, 42, 43, 44, 45, 46, 47]);
                assert_eq!(vm.map(0).get_u64(1), Some(if stored { want } else { 0 }));
            }
        }
    }

    #[test]
    fn budget_parity_between_tiers_with_dse() {
        // A program with a fold-away body: the compiled tier charges the
        // removed instructions to their successor's weight, so the exact
        // budget at which BudgetExceeded appears matches the interpreter.
        let build = || {
            let mut b = ProgramBuilder::new();
            b.mov64_imm(R2, 1)
                .mov64_imm(R3, 2)
                .alu64(ALU_ADD, R2, R3)
                .mov64(R0, R2)
                .exit();
            b
        };
        let n = 5u64; // instruction count of the program above
        for budget in [n - 1, n] {
            let cfg = VmConfig {
                max_insns: budget,
                ..VmConfig::default()
            };
            let (insns, maps) = build().build();
            let vcfg = VerifierConfig {
                ctx_size: 8,
                ctx_writable: 0..0,
            };
            let program = verify(insns, maps, &vcfg).unwrap();
            let mut tiered = Vm::with_config(program, cfg);
            assert!(tiered.is_compiled());
            let (insns, maps) = build().build();
            let program = verify(insns, maps, &vcfg).unwrap();
            let mut interp = Vm::with_config(program, cfg);
            let a = tiered.run_with_tier(&mut [0u8; 8]).map(|(v, _)| v);
            let b = interp.run_interp(&mut [0u8; 8]);
            assert_eq!(a, b, "budget {budget}");
        }
    }

    #[test]
    fn compiled_tier_matches_interp_on_branchy_program() {
        let build = || {
            let mut b = ProgramBuilder::new();
            let hi = b.new_label();
            b.ldx(SIZE_W, R2, R1, 0)
                .jmp_imm(JMP_JGT, R2, 100, hi)
                .alu64_imm(ALU_MUL, R2, 3)
                .mov64(R0, R2)
                .exit();
            b.bind(hi);
            b.alu64_imm(ALU_RSH, R2, 2).mov64(R0, R2).exit();
            b
        };
        for seed in [0u32, 7, 100, 101, 0xFFFF_FFFF] {
            let mut tiered = compile(build(), 8, 0..0);
            let mut interp = compile(build(), 8, 0..0);
            let mut c1 = [0u8; 8];
            c1[..4].copy_from_slice(&seed.to_le_bytes());
            let mut c2 = c1;
            let (v, tier) = tiered.run_with_tier(&mut c1).unwrap();
            assert_eq!(tier, Tier::Compiled);
            assert_eq!(v, interp.run_interp(&mut c2).unwrap(), "seed {seed}");
            assert_eq!(c1, c2);
        }
    }
}
