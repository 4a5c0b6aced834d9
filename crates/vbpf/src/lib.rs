//! vbpf — a sandboxed eBPF-subset virtual machine.
//!
//! NVMetro injects custom routing logic into the host kernel as eBPF
//! classifiers: programs that are *statically verified* before they are
//! allowed to run, then executed at every routing decision point
//! (§II-B, §III-C). This crate is that substrate, built from scratch:
//!
//! * [`isa`] — the eBPF instruction set (ALU64/ALU32, jumps, memory
//!   accesses, `lddw`, helper calls) with the real 8-byte wire encoding;
//! * [`builder`] — a label-based assembler for writing programs in Rust
//!   (the encryptor/replicator classifiers in `nvmetro-functions` use it);
//! * [`verifier`] — an abstract interpreter enforcing the kernel's safety
//!   contract: no uninitialized reads, all memory accesses provably in
//!   bounds, helper argument types respected, guaranteed termination —
//!   and, as a byproduct, the program's ctx write footprint
//!   ([`Program::ctx_writes`]);
//! * [`interp`] — the one execution engine: an interpreter with bounds
//!   re-checks as defense in depth, helper functions, and an instruction
//!   budget. `tests/differential.rs` checks that no program the verifier
//!   accepts faults in it;
//! * [`maps`] — array maps shared between classifier invocations (used for
//!   per-request state and configuration, like Linux BPF maps).
//!
//! Divergences from Linux eBPF are documented in `DESIGN.md` §8: programs
//! are interpreted, not JIT-compiled, there is no BTF, and termination is
//! guaranteed by rejecting backward jumps (pre-5.3 Linux semantics) rather
//! than by bounded-loop analysis.

#![forbid(unsafe_code)]

pub mod builder;
pub mod interp;
pub mod isa;
pub mod maps;
pub mod verifier;

pub use builder::{Label, ProgramBuilder};
pub use interp::{ExecError, Vm, VmConfig};
pub use isa::{Insn, Reg};
pub use maps::{ArrayMap, MapDef};
pub use verifier::{verify, VerifierConfig, VerifyError};

/// A verified, executable vbpf program.
///
/// Can only be constructed through [`verify`], mirroring the kernel's rule
/// that unverified bytecode never runs.
#[derive(Debug)]
pub struct Program {
    pub(crate) insns: Vec<Insn>,
    pub(crate) maps: Vec<MapDef>,
    pub(crate) ctx_writes: Vec<(usize, usize)>,
}

impl Program {
    /// Number of instructions (after `lddw` pairing).
    pub fn len(&self) -> usize {
        self.insns.len()
    }

    /// True for the trivial empty program (never verifiable).
    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }

    /// Sorted, coalesced `(start, end)` byte ranges of every context
    /// write the program can make (direct mediation footprint).
    pub fn ctx_writes(&self) -> &[(usize, usize)] {
        &self.ctx_writes
    }
}
