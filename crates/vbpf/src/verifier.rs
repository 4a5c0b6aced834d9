//! Static verification of vbpf programs.
//!
//! Mirrors the Linux eBPF verifier's contract (§II-B): before a classifier
//! is allowed anywhere near the I/O path, we prove by abstract
//! interpretation that it
//!
//! * never reads an uninitialized register or stack slot,
//! * only dereferences pointers it legitimately holds (context, stack,
//!   map values), always in bounds and naturally aligned,
//! * only writes the context window the host declared writable
//!   (direct mediation, §III-C),
//! * calls helpers with correctly-typed arguments,
//! * and terminates: all jumps are forward, so execution length is bounded
//!   by program length (pre-5.3 Linux semantics; see DESIGN.md §8).
//!
//! Null-ability of `map_lookup` results is tracked and refined through
//! equality branches, exactly like the kernel's `PTR_TO_MAP_VALUE_OR_NULL`.

use crate::isa::*;
use crate::maps::MapDef;
use crate::Program;

/// Maximum program length in instructions.
pub const MAX_INSNS: usize = 4096;

/// Host-supplied contract the program is verified against.
#[derive(Clone, Debug)]
pub struct VerifierConfig {
    /// Size of the context buffer passed in R1.
    pub ctx_size: usize,
    /// Byte range of the context the program may write (direct mediation
    /// window); reads are allowed anywhere in `0..ctx_size`.
    pub ctx_writable: std::ops::Range<usize>,
}

impl VerifierConfig {
    /// A config for a read-only context of `ctx_size` bytes.
    pub fn read_only(ctx_size: usize) -> Self {
        VerifierConfig {
            ctx_size,
            ctx_writable: 0..0,
        }
    }
}

/// Why verification rejected a program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyError {
    /// Program empty or longer than [`MAX_INSNS`].
    BadProgramSize,
    /// A jump leaves the program or goes backward.
    BadJump { pc: usize },
    /// An instruction can never be reached.
    UnreachableCode { pc: usize },
    /// Use of an uninitialized register.
    UninitRegister { pc: usize, reg: Reg },
    /// Read of uninitialized stack bytes.
    UninitStack { pc: usize },
    /// Out-of-bounds or misaligned memory access.
    BadAccess { pc: usize },
    /// Write to read-only memory (context outside the writable window,
    /// or the frame pointer).
    ReadOnly { pc: usize },
    /// Arithmetic on incompatible types (e.g. multiplying pointers).
    BadAluType { pc: usize },
    /// Division or modulo by a zero immediate.
    DivByZeroImm { pc: usize },
    /// Shift amount out of range.
    BadShift { pc: usize },
    /// Unknown opcode.
    BadOpcode { pc: usize },
    /// Unknown helper or badly-typed helper arguments.
    BadHelperCall { pc: usize },
    /// A map index is not a known constant or out of range.
    BadMapRef { pc: usize },
    /// Dereference of a possibly-null map value before a null check.
    PossiblyNullDeref { pc: usize },
    /// Program can fall off the end without `exit`.
    FallsOffEnd,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for VerifyError {}

/// Sorts and merges overlapping/adjacent `(start, end)` byte ranges.
fn coalesce(ranges: &mut Vec<(usize, usize)>) {
    ranges.sort_unstable();
    let mut out: Vec<(usize, usize)> = Vec::new();
    for &(s, e) in ranges.iter() {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    *ranges = out;
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RType {
    Uninit,
    Scalar { known: Option<u64> },
    CtxPtr { off: i64 },
    StackPtr { off: i64 },
    MapValue { map: u32, off: i64 },
    MaybeNullMapValue { map: u32 },
}

impl RType {
    fn scalar() -> Self {
        RType::Scalar { known: None }
    }
    fn is_init(&self) -> bool {
        !matches!(self, RType::Uninit)
    }
}

#[derive(Clone, PartialEq, Eq)]
struct State {
    regs: [RType; NUM_REGS],
    /// Byte-granular initialization tracking of the 512-byte stack;
    /// index 0 is the deepest byte (R10 - 512).
    stack_init: [bool; STACK_SIZE],
}

impl State {
    fn entry() -> Self {
        let mut regs = [RType::Uninit; NUM_REGS];
        regs[R1 as usize] = RType::CtxPtr { off: 0 };
        regs[R10 as usize] = RType::StackPtr { off: 0 };
        State {
            regs,
            stack_init: [false; STACK_SIZE],
        }
    }

    fn merge(&self, other: &State) -> State {
        let mut regs = [RType::Uninit; NUM_REGS];
        for (r, (&a, &b)) in regs.iter_mut().zip(self.regs.iter().zip(other.regs.iter())) {
            *r = match (a, b) {
                (a, b) if a == b => a,
                (RType::Scalar { .. }, RType::Scalar { .. }) => RType::scalar(),
                _ => RType::Uninit,
            };
        }
        let mut stack_init = [false; STACK_SIZE];
        for (s, (&a, &b)) in stack_init
            .iter_mut()
            .zip(self.stack_init.iter().zip(other.stack_init.iter()))
        {
            *s = a && b;
        }
        State { regs, stack_init }
    }
}

struct Verifier<'a> {
    insns: &'a [Insn],
    cfg: &'a VerifierConfig,
    maps: &'a [MapDef],
    states: Vec<Option<State>>,
    /// `(start, end)` byte ranges of every ctx store, coalesced on success.
    ctx_writes: Vec<(usize, usize)>,
}

/// Verifies a program against `cfg` and `maps`; on success returns the
/// executable [`Program`].
pub fn verify(
    insns: Vec<Insn>,
    maps: Vec<MapDef>,
    cfg: &VerifierConfig,
) -> Result<Program, VerifyError> {
    if insns.is_empty() || insns.len() > MAX_INSNS {
        return Err(VerifyError::BadProgramSize);
    }
    let mut v = Verifier {
        insns: &insns,
        cfg,
        maps: &maps,
        states: vec![None; insns.len()],
        ctx_writes: Vec::new(),
    };
    v.run()?;
    let mut ctx_writes = v.ctx_writes;
    coalesce(&mut ctx_writes);
    Ok(Program {
        insns,
        maps,
        ctx_writes,
    })
}

impl<'a> Verifier<'a> {
    fn run(&mut self) -> Result<(), VerifyError> {
        // Structural pre-pass: register numbers must be valid, and register
        // writes must not target the frame pointer.
        for (pc, insn) in self.insns.iter().enumerate() {
            if insn.dst as usize >= NUM_REGS || insn.src as usize >= NUM_REGS {
                return Err(VerifyError::BadOpcode { pc });
            }
            let writes_dst_reg = matches!(insn.class(), CLASS_LDX | CLASS_LD);
            if writes_dst_reg && insn.dst == R10 {
                return Err(VerifyError::ReadOnly { pc });
            }
        }
        self.states[0] = Some(State::entry());
        // Forward-only control flow lets us verify in a single in-order
        // pass: every predecessor of pc has index < pc.
        for pc in 0..self.insns.len() {
            let state = match self.states[pc].clone() {
                Some(s) => s,
                None => return Err(VerifyError::UnreachableCode { pc }),
            };
            self.step(pc, state)?;
        }
        Ok(())
    }

    fn flow_to(&mut self, pc: usize, target: usize, state: State) -> Result<(), VerifyError> {
        if target >= self.insns.len() {
            return Err(VerifyError::BadJump { pc });
        }
        if target <= pc {
            return Err(VerifyError::BadJump { pc });
        }
        self.states[target] = Some(match self.states[target].take() {
            Some(existing) => existing.merge(&state),
            None => state,
        });
        Ok(())
    }

    fn fall_through(&mut self, pc: usize, state: State) -> Result<(), VerifyError> {
        if pc + 1 >= self.insns.len() {
            return Err(VerifyError::FallsOffEnd);
        }
        self.states[pc + 1] = Some(match self.states[pc + 1].take() {
            Some(existing) => existing.merge(&state),
            None => state,
        });
        Ok(())
    }

    fn check_init(&self, pc: usize, st: &State, reg: Reg) -> Result<(), VerifyError> {
        if !st.regs[reg as usize].is_init() {
            return Err(VerifyError::UninitRegister { pc, reg });
        }
        Ok(())
    }

    /// Checks a memory access through `ptr` at `off` of `size` bytes.
    /// Returns Ok(()) if in-bounds, aligned, and (for reads) initialized.
    fn check_access(
        &self,
        pc: usize,
        st: &State,
        ptr: RType,
        off: i64,
        size: usize,
        write: bool,
    ) -> Result<(), VerifyError> {
        match ptr {
            RType::CtxPtr { off: base } => {
                let a = base + off;
                if a < 0 || (a as usize) + size > self.cfg.ctx_size {
                    return Err(VerifyError::BadAccess { pc });
                }
                if !(a as usize).is_multiple_of(size) {
                    return Err(VerifyError::BadAccess { pc });
                }
                if write {
                    let w = &self.cfg.ctx_writable;
                    if (a as usize) < w.start || (a as usize) + size > w.end {
                        return Err(VerifyError::ReadOnly { pc });
                    }
                }
                Ok(())
            }
            RType::StackPtr { off: base } => {
                let a = base + off; // relative to R10 (top); valid [-512, 0)
                if a < -(STACK_SIZE as i64) || a + size as i64 > 0 {
                    return Err(VerifyError::BadAccess { pc });
                }
                if !write {
                    let start = (a + STACK_SIZE as i64) as usize;
                    if !st.stack_init[start..start + size].iter().all(|&b| b) {
                        return Err(VerifyError::UninitStack { pc });
                    }
                }
                Ok(())
            }
            RType::MapValue { map, off: base } => {
                let vsize = self.maps[map as usize].value_size as i64;
                let a = base + off;
                if a < 0 || a + size as i64 > vsize {
                    return Err(VerifyError::BadAccess { pc });
                }
                Ok(())
            }
            RType::MaybeNullMapValue { .. } => Err(VerifyError::PossiblyNullDeref { pc }),
            _ => Err(VerifyError::BadAccess { pc }),
        }
    }

    fn mark_stack_written(st: &mut State, base: i64, off: i64, size: usize) {
        let a = (base + off + STACK_SIZE as i64) as usize;
        st.stack_init[a..a + size]
            .iter_mut()
            .for_each(|b| *b = true);
    }

    /// Checks that `reg` points at `size` readable bytes (helper argument).
    fn check_readable(
        &self,
        pc: usize,
        st: &State,
        reg: Reg,
        size: usize,
    ) -> Result<(), VerifyError> {
        let t = st.regs[reg as usize];
        // Natural-alignment requirement applies per access, not to helper
        // buffers — check byte-wise.
        match t {
            RType::StackPtr { off } => {
                if off < -(STACK_SIZE as i64) || off + size as i64 > 0 {
                    return Err(VerifyError::BadHelperCall { pc });
                }
                let start = (off + STACK_SIZE as i64) as usize;
                if !st.stack_init[start..start + size].iter().all(|&b| b) {
                    return Err(VerifyError::UninitStack { pc });
                }
                Ok(())
            }
            RType::CtxPtr { off } => {
                if off < 0 || off as usize + size > self.cfg.ctx_size {
                    return Err(VerifyError::BadHelperCall { pc });
                }
                Ok(())
            }
            RType::MapValue { map, off } => {
                let vsize = self.maps[map as usize].value_size as i64;
                if off < 0 || off + size as i64 > vsize {
                    return Err(VerifyError::BadHelperCall { pc });
                }
                Ok(())
            }
            _ => Err(VerifyError::BadHelperCall { pc }),
        }
    }

    fn step(&mut self, pc: usize, mut st: State) -> Result<(), VerifyError> {
        let insn = self.insns[pc];
        let class = insn.class();
        match class {
            CLASS_ALU | CLASS_ALU64 => {
                self.step_alu(pc, &mut st, insn)?;
                self.fall_through(pc, st)
            }
            CLASS_LD => {
                if !insn.is_lddw() {
                    return Err(VerifyError::BadOpcode { pc });
                }
                st.regs[insn.dst as usize] = RType::Scalar {
                    known: Some(insn.imm as u64),
                };
                self.fall_through(pc, st)
            }
            CLASS_LDX => {
                let size = insn.access_size();
                let ptr = st.regs[insn.src as usize];
                self.check_access(pc, &st, ptr, insn.off as i64, size, false)?;
                st.regs[insn.dst as usize] = RType::scalar();
                self.fall_through(pc, st)
            }
            CLASS_ST | CLASS_STX => {
                let size = insn.access_size();
                let ptr = st.regs[insn.dst as usize];
                if class == CLASS_STX {
                    self.check_init(pc, &st, insn.src)?;
                }
                self.check_access(pc, &st, ptr, insn.off as i64, size, true)?;
                match ptr {
                    RType::CtxPtr { off: base } => {
                        let a = (base + insn.off as i64) as usize;
                        self.ctx_writes.push((a, a + size));
                    }
                    RType::StackPtr { off: base } => {
                        Self::mark_stack_written(&mut st, base, insn.off as i64, size);
                    }
                    _ => {}
                }
                self.fall_through(pc, st)
            }
            CLASS_JMP => self.step_jmp(pc, st, insn),
            _ => Err(VerifyError::BadOpcode { pc }),
        }
    }

    fn step_alu(&self, pc: usize, st: &mut State, insn: Insn) -> Result<(), VerifyError> {
        let aluop = insn.op & 0xF0;
        let is64 = insn.class() == CLASS_ALU64;
        let use_reg = insn.op & 0x08 == SRC_X;
        if insn.dst as usize >= NUM_REGS - 1 {
            // R10 is read-only.
            return Err(VerifyError::ReadOnly { pc });
        }
        let src_val: Option<u64> = if use_reg {
            self.check_init(pc, st, insn.src)?;
            match st.regs[insn.src as usize] {
                RType::Scalar { known } => known,
                _ if aluop == ALU_MOV => None, // handled below
                RType::CtxPtr { .. }
                | RType::StackPtr { .. }
                | RType::MapValue { .. }
                | RType::MaybeNullMapValue { .. } => {
                    // Pointer as a source only allowed for MOV (copy) —
                    // handled below; arithmetic with pointer source only for
                    // ADD with scalar dst is NOT allowed (keep it simple).
                    None
                }
                RType::Uninit => unreachable!(),
            }
        } else {
            Some(insn.imm as u64)
        };

        if aluop == ALU_MOV {
            st.regs[insn.dst as usize] = if use_reg {
                if !is64 {
                    // mov32 truncates; only scalars allowed.
                    match st.regs[insn.src as usize] {
                        RType::Scalar { known } => RType::Scalar {
                            known: known.map(|v| v & 0xFFFF_FFFF),
                        },
                        _ => return Err(VerifyError::BadAluType { pc }),
                    }
                } else {
                    st.regs[insn.src as usize]
                }
            } else {
                RType::Scalar {
                    known: Some(if is64 {
                        insn.imm as u64
                    } else {
                        (insn.imm as u64) & 0xFFFF_FFFF
                    }),
                }
            };
            return Ok(());
        }

        if aluop == ALU_NEG {
            match st.regs[insn.dst as usize] {
                RType::Scalar { known } => {
                    st.regs[insn.dst as usize] = RType::Scalar {
                        known: known.map(|v| (v as i64).wrapping_neg() as u64),
                    };
                    return Ok(());
                }
                RType::Uninit => return Err(VerifyError::UninitRegister { pc, reg: insn.dst }),
                _ => return Err(VerifyError::BadAluType { pc }),
            }
        }

        self.check_init(pc, st, insn.dst)?;

        if matches!(aluop, ALU_DIV | ALU_MOD) && !use_reg && insn.imm == 0 {
            return Err(VerifyError::DivByZeroImm { pc });
        }
        if matches!(aluop, ALU_LSH | ALU_RSH | ALU_ARSH) && !use_reg {
            let limit = if is64 { 64 } else { 32 };
            if insn.imm < 0 || insn.imm >= limit {
                return Err(VerifyError::BadShift { pc });
            }
        }

        let dst_t = st.regs[insn.dst as usize];
        let src_is_scalar = if use_reg {
            matches!(st.regs[insn.src as usize], RType::Scalar { .. })
        } else {
            true
        };

        // Pointer arithmetic: ADD/SUB of a known or unknown scalar onto a
        // pointer, 64-bit only. Unknown offsets are rejected on pointers
        // (all classifier offsets are constant).
        match dst_t {
            RType::Scalar { known } => {
                if use_reg && !src_is_scalar {
                    return Err(VerifyError::BadAluType { pc });
                }
                let newv = match (known, src_val) {
                    (Some(a), Some(b)) => eval_alu(aluop, is64, a, b),
                    _ => None,
                };
                st.regs[insn.dst as usize] = RType::Scalar { known: newv };
                Ok(())
            }
            RType::CtxPtr { off } | RType::StackPtr { off } if is64 => {
                if !matches!(aluop, ALU_ADD | ALU_SUB) || !src_is_scalar {
                    return Err(VerifyError::BadAluType { pc });
                }
                let delta = src_val.ok_or(VerifyError::BadAluType { pc })? as i64;
                let delta = if aluop == ALU_SUB { -delta } else { delta };
                st.regs[insn.dst as usize] = match dst_t {
                    RType::CtxPtr { .. } => RType::CtxPtr { off: off + delta },
                    _ => RType::StackPtr { off: off + delta },
                };
                Ok(())
            }
            RType::MapValue { map, off } if is64 => {
                if !matches!(aluop, ALU_ADD | ALU_SUB) || !src_is_scalar {
                    return Err(VerifyError::BadAluType { pc });
                }
                let delta = src_val.ok_or(VerifyError::BadAluType { pc })? as i64;
                let delta = if aluop == ALU_SUB { -delta } else { delta };
                st.regs[insn.dst as usize] = RType::MapValue {
                    map,
                    off: off + delta,
                };
                Ok(())
            }
            _ => Err(VerifyError::BadAluType { pc }),
        }
    }

    fn step_jmp(&mut self, pc: usize, mut st: State, insn: Insn) -> Result<(), VerifyError> {
        let jmpop = insn.op & 0xF0;
        match jmpop {
            JMP_EXIT if insn.op == CLASS_JMP | JMP_EXIT => {
                match st.regs[R0 as usize] {
                    RType::Scalar { .. } => Ok(()),
                    RType::Uninit => Err(VerifyError::UninitRegister { pc, reg: R0 }),
                    // Returning a pointer would leak it to the host; the
                    // router interprets R0 as a verdict bitmask.
                    _ => Err(VerifyError::BadAluType { pc }),
                }
            }
            JMP_CALL if insn.op == CLASS_JMP | JMP_CALL => {
                self.check_call(pc, &mut st, insn.imm as u32)?;
                self.fall_through(pc, st)
            }
            JMP_JA => {
                let target = pc as i64 + 1 + insn.off as i64;
                if target < 0 {
                    return Err(VerifyError::BadJump { pc });
                }
                self.flow_to(pc, target as usize, st)
            }
            _ => {
                let use_reg = insn.op & 0x08 == SRC_X;
                self.check_init(pc, &st, insn.dst)?;
                if use_reg {
                    self.check_init(pc, &st, insn.src)?;
                }
                let dst_t = st.regs[insn.dst as usize];
                // Only scalars may be compared, except the null check on a
                // possibly-null map value against immediate 0.
                let null_check = matches!(dst_t, RType::MaybeNullMapValue { .. })
                    && !use_reg
                    && insn.imm == 0
                    && matches!(jmpop, JMP_JEQ | JMP_JNE);
                if !null_check {
                    let ok_dst = matches!(dst_t, RType::Scalar { .. });
                    let ok_src =
                        !use_reg || matches!(st.regs[insn.src as usize], RType::Scalar { .. });
                    if !ok_dst || !ok_src {
                        return Err(VerifyError::BadAluType { pc });
                    }
                }
                let target = pc as i64 + 1 + insn.off as i64;
                if target < 0 {
                    return Err(VerifyError::BadJump { pc });
                }
                let mut taken = st.clone();
                let mut fall = st;
                if null_check {
                    if let RType::MaybeNullMapValue { map } = dst_t {
                        let (null_state, nonnull_state) = if jmpop == JMP_JEQ {
                            (&mut taken, &mut fall)
                        } else {
                            (&mut fall, &mut taken)
                        };
                        null_state.regs[insn.dst as usize] = RType::Scalar { known: Some(0) };
                        nonnull_state.regs[insn.dst as usize] = RType::MapValue { map, off: 0 };
                    }
                }
                self.flow_to(pc, target as usize, taken)?;
                self.fall_through(pc, fall)
            }
        }
    }

    fn known_const(st: &State, reg: Reg) -> Option<u64> {
        match st.regs[reg as usize] {
            RType::Scalar { known } => known,
            _ => None,
        }
    }

    fn check_call(&mut self, pc: usize, st: &mut State, helper: u32) -> Result<(), VerifyError> {
        use crate::interp::helpers::*;
        let ret = match helper {
            MAP_LOOKUP => {
                let map = Self::known_const(st, R1).ok_or(VerifyError::BadMapRef { pc })? as usize;
                if map >= self.maps.len() {
                    return Err(VerifyError::BadMapRef { pc });
                }
                self.check_readable(pc, st, R2, 4)?;
                RType::MaybeNullMapValue { map: map as u32 }
            }
            MAP_UPDATE => {
                let map = Self::known_const(st, R1).ok_or(VerifyError::BadMapRef { pc })? as usize;
                if map >= self.maps.len() {
                    return Err(VerifyError::BadMapRef { pc });
                }
                let value_size = self.maps[map].value_size;
                self.check_readable(pc, st, R2, 4)?;
                self.check_readable(pc, st, R3, value_size)?;
                RType::scalar()
            }
            KTIME_NS | PRANDOM_U32 => RType::scalar(),
            TRACE => {
                self.check_init(pc, st, R1)?;
                RType::scalar()
            }
            _ => return Err(VerifyError::BadHelperCall { pc }),
        };
        // Helper calls clobber the caller-saved registers.
        for r in R1..=R5 {
            st.regs[r as usize] = RType::Uninit;
        }
        st.regs[R0 as usize] = ret;
        Ok(())
    }
}

fn eval_alu(aluop: u8, is64: bool, a: u64, b: u64) -> Option<u64> {
    let (a, b) = if is64 {
        (a, b)
    } else {
        (a & 0xFFFF_FFFF, b & 0xFFFF_FFFF)
    };
    let v = match aluop {
        ALU_ADD => a.wrapping_add(b),
        ALU_SUB => a.wrapping_sub(b),
        ALU_MUL => a.wrapping_mul(b),
        ALU_DIV => a.checked_div(b).unwrap_or(0),
        ALU_MOD => a.checked_rem(b).unwrap_or(a),
        ALU_OR => a | b,
        ALU_AND => a & b,
        ALU_XOR => a ^ b,
        ALU_LSH => a.wrapping_shl(b as u32),
        ALU_RSH => {
            if is64 {
                a.wrapping_shr(b as u32)
            } else {
                ((a as u32).wrapping_shr(b as u32)) as u64
            }
        }
        ALU_ARSH => {
            if is64 {
                ((a as i64).wrapping_shr(b as u32)) as u64
            } else {
                (((a as u32) as i32).wrapping_shr(b as u32)) as u64
            }
        }
        _ => return None,
    };
    Some(if is64 { v } else { v & 0xFFFF_FFFF })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    fn cfg() -> VerifierConfig {
        VerifierConfig {
            ctx_size: 64,
            ctx_writable: 16..32,
        }
    }

    fn check(b: ProgramBuilder) -> Result<Program, VerifyError> {
        let (insns, maps) = b.build();
        verify(insns, maps, &cfg())
    }

    #[test]
    fn trivial_return_verifies() {
        let mut b = ProgramBuilder::new();
        b.mov64_imm(R0, 1).exit();
        assert!(check(b).is_ok());
    }

    #[test]
    fn empty_program_rejected() {
        assert_eq!(
            verify(vec![], vec![], &cfg()).unwrap_err(),
            VerifyError::BadProgramSize
        );
    }

    #[test]
    fn uninitialized_r0_at_exit_rejected() {
        let mut b = ProgramBuilder::new();
        b.exit();
        assert_eq!(
            check(b).unwrap_err(),
            VerifyError::UninitRegister { pc: 0, reg: R0 }
        );
    }

    #[test]
    fn uninit_register_use_rejected() {
        let mut b = ProgramBuilder::new();
        b.mov64(R0, R6).exit(); // R6 never written
        assert!(matches!(
            check(b).unwrap_err(),
            VerifyError::UninitRegister { reg: R6, .. }
        ));
    }

    #[test]
    fn ctx_read_in_bounds_ok() {
        let mut b = ProgramBuilder::new();
        b.ldx(SIZE_W, R0, R1, 8).exit();
        assert!(check(b).is_ok());
    }

    #[test]
    fn ctx_read_out_of_bounds_rejected() {
        let mut b = ProgramBuilder::new();
        b.ldx(SIZE_DW, R0, R1, 60).exit(); // 60+8 > 64
        assert_eq!(check(b).unwrap_err(), VerifyError::BadAccess { pc: 0 });
    }

    #[test]
    fn misaligned_ctx_read_rejected() {
        let mut b = ProgramBuilder::new();
        b.ldx(SIZE_W, R0, R1, 2).exit();
        assert_eq!(check(b).unwrap_err(), VerifyError::BadAccess { pc: 0 });
    }

    #[test]
    fn ctx_write_inside_window_ok() {
        let mut b = ProgramBuilder::new();
        b.mov64_imm(R0, 0).st_imm(SIZE_DW, R1, 16, 5).exit();
        assert!(check(b).is_ok());
    }

    #[test]
    fn ctx_write_outside_window_rejected() {
        let mut b = ProgramBuilder::new();
        b.mov64_imm(R0, 0).st_imm(SIZE_DW, R1, 0, 5).exit();
        assert_eq!(check(b).unwrap_err(), VerifyError::ReadOnly { pc: 1 });
    }

    #[test]
    fn stack_read_before_write_rejected() {
        let mut b = ProgramBuilder::new();
        b.ldx(SIZE_DW, R0, R10, -8).exit();
        assert_eq!(check(b).unwrap_err(), VerifyError::UninitStack { pc: 0 });
    }

    #[test]
    fn stack_write_then_read_ok() {
        let mut b = ProgramBuilder::new();
        b.st_imm(SIZE_DW, R10, -8, 42)
            .ldx(SIZE_DW, R0, R10, -8)
            .exit();
        assert!(check(b).is_ok());
    }

    #[test]
    fn stack_overflow_rejected() {
        let mut b = ProgramBuilder::new();
        b.mov64_imm(R0, 0)
            .st_imm(SIZE_DW, R10, -(STACK_SIZE as i16) - 8, 1)
            .exit();
        assert_eq!(check(b).unwrap_err(), VerifyError::BadAccess { pc: 1 });
    }

    #[test]
    fn stack_underflow_rejected() {
        let mut b = ProgramBuilder::new();
        b.mov64_imm(R0, 0).st_imm(SIZE_DW, R10, 0, 1).exit();
        assert_eq!(check(b).unwrap_err(), VerifyError::BadAccess { pc: 1 });
    }

    #[test]
    fn scalar_deref_rejected() {
        let mut b = ProgramBuilder::new();
        b.mov64_imm(R2, 0x1000).ldx(SIZE_W, R0, R2, 0).exit();
        assert_eq!(check(b).unwrap_err(), VerifyError::BadAccess { pc: 1 });
    }

    #[test]
    fn backward_jump_rejected_at_verify_level() {
        // Hand-build a backward jump (the builder also refuses them).
        let insns = vec![
            Insn {
                op: CLASS_ALU64 | SRC_K | ALU_MOV,
                dst: R0,
                src: 0,
                off: 0,
                imm: 0,
            },
            Insn {
                op: CLASS_JMP | JMP_JA,
                dst: 0,
                src: 0,
                off: -2,
                imm: 0,
            },
        ];
        assert_eq!(
            verify(insns, vec![], &cfg()).unwrap_err(),
            VerifyError::BadJump { pc: 1 }
        );
    }

    #[test]
    fn jump_out_of_program_rejected() {
        let insns = vec![Insn {
            op: CLASS_JMP | JMP_JA,
            dst: 0,
            src: 0,
            off: 5,
            imm: 0,
        }];
        assert_eq!(
            verify(insns, vec![], &cfg()).unwrap_err(),
            VerifyError::BadJump { pc: 0 }
        );
    }

    #[test]
    fn fall_off_end_rejected() {
        let mut b = ProgramBuilder::new();
        b.mov64_imm(R0, 1);
        assert_eq!(check(b).unwrap_err(), VerifyError::FallsOffEnd);
    }

    #[test]
    fn unreachable_code_rejected() {
        let mut b = ProgramBuilder::new();
        let end = b.new_label();
        b.mov64_imm(R0, 1).ja(end).mov64_imm(R0, 2); // unreachable
        b.bind(end);
        b.exit();
        assert!(matches!(
            check(b).unwrap_err(),
            VerifyError::UnreachableCode { pc: 2 }
        ));
    }

    #[test]
    fn div_by_zero_imm_rejected() {
        let mut b = ProgramBuilder::new();
        b.mov64_imm(R0, 10).alu64_imm(ALU_DIV, R0, 0).exit();
        assert_eq!(check(b).unwrap_err(), VerifyError::DivByZeroImm { pc: 1 });
    }

    #[test]
    fn oversized_shift_rejected() {
        let mut b = ProgramBuilder::new();
        b.mov64_imm(R0, 1).alu64_imm(ALU_LSH, R0, 64).exit();
        assert_eq!(check(b).unwrap_err(), VerifyError::BadShift { pc: 1 });
    }

    #[test]
    fn pointer_multiplication_rejected() {
        let mut b = ProgramBuilder::new();
        b.mov64(R2, R1)
            .alu64_imm(ALU_MUL, R2, 2)
            .mov64_imm(R0, 0)
            .exit();
        assert_eq!(check(b).unwrap_err(), VerifyError::BadAluType { pc: 1 });
    }

    #[test]
    fn pointer_arithmetic_then_access_checks_bounds() {
        let mut b = ProgramBuilder::new();
        b.mov64(R2, R1)
            .add64_imm(R2, 8)
            .ldx(SIZE_W, R0, R2, 0)
            .exit();
        assert!(check(b).is_ok());

        let mut b2 = ProgramBuilder::new();
        b2.mov64(R2, R1)
            .add64_imm(R2, 64)
            .ldx(SIZE_W, R0, R2, 0)
            .exit();
        assert_eq!(check(b2).unwrap_err(), VerifyError::BadAccess { pc: 2 });
    }

    #[test]
    fn returning_pointer_rejected() {
        let mut b = ProgramBuilder::new();
        b.mov64(R0, R1).exit();
        assert_eq!(check(b).unwrap_err(), VerifyError::BadAluType { pc: 1 });
    }

    #[test]
    fn writing_r10_rejected() {
        let mut b = ProgramBuilder::new();
        b.mov64_imm(R10 as Reg, 0).exit();
        assert_eq!(check(b).unwrap_err(), VerifyError::ReadOnly { pc: 0 });
    }

    #[test]
    fn map_lookup_requires_null_check() {
        let mut b = ProgramBuilder::new();
        let m = b.declare_map(MapDef {
            value_size: 8,
            max_entries: 4,
        });
        b.st_imm(SIZE_W, R10, -4, 0)
            .mov64_imm(R1, m as i32)
            .mov64(R2, R10)
            .add64_imm(R2, -4)
            .call(crate::interp::helpers::MAP_LOOKUP)
            .ldx(SIZE_DW, R0, R0, 0) // deref without null check!
            .exit();
        assert_eq!(
            check(b).unwrap_err(),
            VerifyError::PossiblyNullDeref { pc: 5 }
        );
    }

    #[test]
    fn map_lookup_with_null_check_verifies() {
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
            .call(crate::interp::helpers::MAP_LOOKUP)
            .jmp_imm(JMP_JEQ, R0, 0, is_null)
            .ldx(SIZE_DW, R0, R0, 0)
            .exit();
        b.bind(is_null);
        b.mov64_imm(R0, 0).exit();
        assert!(check(b).is_ok());
    }

    #[test]
    fn map_value_bounds_enforced() {
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
            .call(crate::interp::helpers::MAP_LOOKUP)
            .jmp_imm(JMP_JEQ, R0, 0, is_null)
            .ldx(SIZE_DW, R3, R0, 8) // one past the end of the value
            .mov64_imm(R0, 0)
            .exit();
        b.bind(is_null);
        b.mov64_imm(R0, 0).exit();
        assert_eq!(check(b).unwrap_err(), VerifyError::BadAccess { pc: 6 });
    }

    #[test]
    fn unknown_helper_rejected() {
        let mut b = ProgramBuilder::new();
        b.mov64_imm(R0, 0).call(999).exit();
        assert_eq!(check(b).unwrap_err(), VerifyError::BadHelperCall { pc: 1 });
    }

    #[test]
    fn nonconstant_map_index_rejected() {
        let mut b = ProgramBuilder::new();
        let _m = b.declare_map(MapDef {
            value_size: 8,
            max_entries: 4,
        });
        b.st_imm(SIZE_W, R10, -4, 0)
            .ldx(SIZE_W, R1, R1, 0) // map index from ctx: not a constant
            .mov64(R2, R10)
            .add64_imm(R2, -4)
            .call(crate::interp::helpers::MAP_LOOKUP)
            .mov64_imm(R0, 0)
            .exit();
        assert_eq!(check(b).unwrap_err(), VerifyError::BadMapRef { pc: 4 });
    }

    #[test]
    fn helper_clobbers_arg_registers() {
        let mut b = ProgramBuilder::new();
        b.mov64_imm(R3, 7)
            .call(crate::interp::helpers::KTIME_NS)
            .mov64(R0, R3) // R3 is dead after the call
            .exit();
        assert!(matches!(
            check(b).unwrap_err(),
            VerifyError::UninitRegister { reg: R3, .. }
        ));
    }

    #[test]
    fn branch_merge_degrades_conflicting_types_to_uninit() {
        let mut b = ProgramBuilder::new();
        let else_l = b.new_label();
        let join = b.new_label();
        b.ldx(SIZE_W, R0, R1, 0)
            .jmp_imm(JMP_JEQ, R0, 0, else_l)
            .mov64(R2, R1) // R2 = pointer on this path
            .ja(join);
        b.bind(else_l);
        b.mov64_imm(R2, 5); // R2 = scalar on that path
        b.bind(join);
        // R2 has conflicting types: any use must fail.
        b.ldx(SIZE_W, R0, R2, 0).exit();
        assert!(matches!(
            check(b).unwrap_err(),
            VerifyError::UninitRegister { reg: R2, .. } | VerifyError::BadAccess { .. }
        ));
    }

    #[test]
    fn program_of_max_size_accepted_and_over_rejected() {
        let mut insns = Vec::new();
        for _ in 0..MAX_INSNS - 2 {
            insns.push(Insn {
                op: CLASS_ALU64 | SRC_K | ALU_MOV,
                dst: R0,
                src: 0,
                off: 0,
                imm: 1,
            });
        }
        insns.push(Insn {
            op: CLASS_ALU64 | SRC_K | ALU_MOV,
            dst: R0,
            src: 0,
            off: 0,
            imm: 1,
        });
        insns.push(Insn {
            op: CLASS_JMP | JMP_EXIT,
            dst: 0,
            src: 0,
            off: 0,
            imm: 0,
        });
        assert!(verify(insns.clone(), vec![], &cfg()).is_ok());
        insns.push(insns[0]);
        assert_eq!(
            verify(insns, vec![], &cfg()).unwrap_err(),
            VerifyError::BadProgramSize
        );
    }
}
