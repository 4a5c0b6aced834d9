//! The I/O classifier ABI.
//!
//! A classifier is invoked with a fixed-layout context describing the
//! request and the lifecycle point (`current_hook`), and returns a 64-bit
//! *verdict* combining routing flags with an optional NVMe status — exactly
//! the contract of Listing 1 in the paper (`SEND_HQ | HOOK_HCQ`,
//! `ctx->error | COMPLETE`, ...). Classifiers may also rewrite the
//! writable window of the context (starting LBA, block count, scratch tag):
//! that is *direct mediation*, which the router copies back into the
//! forwarded command.
//!
//! Two classifier kinds exist: verified vbpf bytecode (the paper's eBPF
//! path) and native Rust (`NativeClassifier`, used for tests and ablations
//! comparing interpretation cost).

use nvmetro_nvme::{Status, SubmissionEntry};
use nvmetro_vbpf::{verifier::VerifierConfig, ProgramBuilder, Vm};

/// Size of the classifier context buffer in bytes.
pub const CTX_SIZE: usize = 48;
/// Start of the writable (direct-mediation) window within the context.
pub const CTX_WRITABLE_START: usize = 16;

/// Hook identifiers — the lifecycle points at which a classifier runs.
pub const HOOK_VSQ: u32 = 0;
/// Device (fast-path) completion hook.
pub const HOOK_HCQ: u32 = 1;
/// Notify-path (UIF) completion hook.
pub const HOOK_NCQ: u32 = 2;
/// Kernel-path completion hook.
pub const HOOK_KCQ: u32 = 3;

// Context field offsets (kept in sync with `RequestCtx` accessors).
const OFF_HOOK: usize = 0;
const OFF_VM: usize = 4;
const OFF_OPCODE: usize = 8;
const OFF_CID: usize = 10;
const OFF_NSID: usize = 12;
const OFF_SLBA: usize = 16;
const OFF_NLB: usize = 24;
const OFF_ERROR: usize = 28;
const OFF_QID: usize = 30;
const OFF_TAG: usize = 32;

/// Routing verdict bit assignments (bits 0..16 carry an NVMe status).
pub mod verdict_bits {
    /// Forward to the fast path (device HSQ).
    pub const SEND_HQ: u64 = 1 << 16;
    /// Forward to the kernel path.
    pub const SEND_KQ: u64 = 1 << 17;
    /// Forward to the notify path (UIF NSQ).
    pub const SEND_NQ: u64 = 1 << 18;
    /// Re-invoke the classifier when the fast path completes.
    pub const HOOK_HCQ: u64 = 1 << 19;
    /// Re-invoke the classifier when the kernel path completes.
    pub const HOOK_KCQ: u64 = 1 << 20;
    /// Re-invoke the classifier when the notify path completes.
    pub const HOOK_NCQ: u64 = 1 << 21;
    /// Complete the request to the VM when the fast path finishes.
    pub const WILL_COMPLETE_HQ: u64 = 1 << 22;
    /// Complete the request to the VM when the kernel path finishes.
    pub const WILL_COMPLETE_KQ: u64 = 1 << 23;
    /// Complete the request to the VM when the notify path finishes.
    pub const WILL_COMPLETE_NQ: u64 = 1 << 24;
    /// Complete immediately with the status in bits 0..16.
    pub const COMPLETE: u64 = 1 << 25;
}

/// A decoded routing verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Verdict(pub u64);

impl Verdict {
    /// The embedded NVMe status (meaningful with [`Verdict::complete`]).
    pub fn status(self) -> Status {
        Status((self.0 & 0xFFFF) as u16)
    }

    /// True if the request should be completed immediately.
    pub fn complete(self) -> bool {
        self.0 & verdict_bits::COMPLETE != 0
    }

    /// Bitmask of paths to forward to (bit 0 = HQ, 1 = KQ, 2 = NQ).
    pub fn send_mask(self) -> u8 {
        (((self.0 & verdict_bits::SEND_HQ) >> 16)
            | ((self.0 & verdict_bits::SEND_KQ) >> 16)
            | ((self.0 & verdict_bits::SEND_NQ) >> 16)) as u8
    }

    /// Bitmask of paths whose completion re-invokes the classifier.
    pub fn hook_mask(self) -> u8 {
        ((self.0 >> 19) & 0x7) as u8
    }

    /// Bitmask of paths whose completion finishes the request.
    pub fn will_complete_mask(self) -> u8 {
        ((self.0 >> 22) & 0x7) as u8
    }
}

/// Path bit positions within the masks above.
pub mod path_bits {
    /// Fast path (device).
    pub const HQ: u8 = 1 << 0;
    /// Kernel path.
    pub const KQ: u8 = 1 << 1;
    /// Notify path (UIF).
    pub const NQ: u8 = 1 << 2;
}

/// A typed view over the classifier context buffer.
pub struct RequestCtx {
    buf: [u8; CTX_SIZE],
}

impl RequestCtx {
    /// An all-zero context, suitable as a reusable per-shard scratch buffer
    /// to be populated with [`RequestCtx::fill`] before each invocation.
    pub fn empty() -> Self {
        RequestCtx {
            buf: [0u8; CTX_SIZE],
        }
    }

    /// Builds a context for a fresh request arriving on a VSQ.
    pub fn new(
        hook: u32,
        vm: u32,
        qid: u16,
        cmd: &SubmissionEntry,
        error: Status,
        user_tag: u64,
    ) -> Self {
        let mut ctx = RequestCtx::empty();
        ctx.fill(hook, vm, qid, cmd, error, user_tag);
        ctx
    }

    /// Re-populates this context in place (zero-copy reuse of a scratch
    /// buffer). Every field is overwritten, including the spare tail bytes,
    /// so a reused buffer is indistinguishable from a fresh one.
    pub fn fill(
        &mut self,
        hook: u32,
        vm: u32,
        qid: u16,
        cmd: &SubmissionEntry,
        error: Status,
        user_tag: u64,
    ) {
        let buf = &mut self.buf;
        buf[OFF_HOOK..OFF_HOOK + 4].copy_from_slice(&hook.to_le_bytes());
        buf[OFF_VM..OFF_VM + 4].copy_from_slice(&vm.to_le_bytes());
        buf[OFF_OPCODE] = cmd.opcode;
        buf[OFF_OPCODE + 1] = cmd.flags;
        buf[OFF_CID..OFF_CID + 2].copy_from_slice(&cmd.cid.to_le_bytes());
        buf[OFF_NSID..OFF_NSID + 4].copy_from_slice(&cmd.nsid.to_le_bytes());
        buf[OFF_SLBA..OFF_SLBA + 8].copy_from_slice(&cmd.slba().to_le_bytes());
        buf[OFF_NLB..OFF_NLB + 4].copy_from_slice(&cmd.nlb().to_le_bytes());
        buf[OFF_ERROR..OFF_ERROR + 2].copy_from_slice(&error.0.to_le_bytes());
        buf[OFF_QID..OFF_QID + 2].copy_from_slice(&qid.to_le_bytes());
        buf[OFF_TAG..OFF_TAG + 8].copy_from_slice(&user_tag.to_le_bytes());
        buf[OFF_TAG + 8..CTX_SIZE].fill(0);
    }

    /// The raw context bytes (what a vbpf classifier sees).
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }

    /// Lifecycle hook this invocation runs at.
    pub fn current_hook(&self) -> u32 {
        u32::from_le_bytes(self.buf[OFF_HOOK..OFF_HOOK + 4].try_into().unwrap())
    }

    /// The VM the request came from.
    pub fn vm(&self) -> u32 {
        u32::from_le_bytes(self.buf[OFF_VM..OFF_VM + 4].try_into().unwrap())
    }

    /// NVMe opcode of the request.
    pub fn opcode(&self) -> u8 {
        self.buf[OFF_OPCODE]
    }

    /// Guest command identifier.
    pub fn cid(&self) -> u16 {
        u16::from_le_bytes(self.buf[OFF_CID..OFF_CID + 2].try_into().unwrap())
    }

    /// Namespace the request targets.
    pub fn nsid(&self) -> u32 {
        u32::from_le_bytes(self.buf[OFF_NSID..OFF_NSID + 4].try_into().unwrap())
    }

    /// Starting LBA (writable: direct mediation).
    pub fn slba(&self) -> u64 {
        u64::from_le_bytes(self.buf[OFF_SLBA..OFF_SLBA + 8].try_into().unwrap())
    }

    /// Rewrites the starting LBA.
    pub fn set_slba(&mut self, v: u64) {
        self.buf[OFF_SLBA..OFF_SLBA + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Number of logical blocks (writable).
    pub fn nlb(&self) -> u32 {
        u32::from_le_bytes(self.buf[OFF_NLB..OFF_NLB + 4].try_into().unwrap())
    }

    /// Rewrites the block count.
    pub fn set_nlb(&mut self, v: u32) {
        self.buf[OFF_NLB..OFF_NLB + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Status delivered by the path that just completed (hook invocations).
    pub fn error(&self) -> Status {
        Status(u16::from_le_bytes(
            self.buf[OFF_ERROR..OFF_ERROR + 2].try_into().unwrap(),
        ))
    }

    /// Queue the request arrived on.
    pub fn qid(&self) -> u16 {
        u16::from_le_bytes(self.buf[OFF_QID..OFF_QID + 2].try_into().unwrap())
    }

    /// Classifier scratch value, persisted across hooks of one request.
    pub fn user_tag(&self) -> u64 {
        u64::from_le_bytes(self.buf[OFF_TAG..OFF_TAG + 8].try_into().unwrap())
    }

    /// Sets the scratch value.
    pub fn set_user_tag(&mut self, v: u64) {
        self.buf[OFF_TAG..OFF_TAG + 8].copy_from_slice(&v.to_le_bytes());
    }
}

/// Context field offsets for classifier authors (vbpf `ldx`/`stx`).
pub mod ctx_offsets {
    /// `current_hook: u32`.
    pub const HOOK: i16 = 0;
    /// `vm_id: u32`.
    pub const VM: i16 = 4;
    /// `opcode: u8`.
    pub const OPCODE: i16 = 8;
    /// `cid: u16`.
    pub const CID: i16 = 10;
    /// `nsid: u32`.
    pub const NSID: i16 = 12;
    /// `slba: u64` (writable).
    pub const SLBA: i16 = 16;
    /// `nlb: u32` (writable).
    pub const NLB: i16 = 24;
    /// `error: u16`.
    pub const ERROR: i16 = 28;
    /// `qid: u16`.
    pub const QID: i16 = 30;
    /// `user_tag: u64` (writable).
    pub const USER_TAG: i16 = 32;
}

/// The verifier contract classifiers are checked against: full context
/// readable, mediation window writable.
pub fn classifier_verifier_config() -> VerifierConfig {
    VerifierConfig {
        ctx_size: CTX_SIZE,
        ctx_writable: CTX_WRITABLE_START..CTX_SIZE,
    }
}

/// A classifier implemented in Rust instead of vbpf (tests, ablations).
pub trait NativeClassifier: Send {
    /// Returns the routing verdict for this invocation; may mutate the
    /// context's writable fields for direct mediation.
    fn classify(&mut self, ctx: &mut RequestCtx) -> Verdict;
}

/// Bitmask of direct-mediation context fields a classifier may have
/// written, derived from the verifier's context write-set. The router only
/// copies the flagged fields back into the forwarded command, so a
/// classifier that never touches (say) the block count costs nothing on
/// the NLB write-back path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MediatedFields(u8);

impl MediatedFields {
    /// No mediated field was written.
    pub const NONE: MediatedFields = MediatedFields(0);
    /// The starting LBA (`slba`, bytes 16..24).
    pub const SLBA: MediatedFields = MediatedFields(1 << 0);
    /// The block count (`nlb`, bytes 24..28).
    pub const NLB: MediatedFields = MediatedFields(1 << 1);
    /// The scratch tag (`user_tag`, bytes 32..40).
    pub const USER_TAG: MediatedFields = MediatedFields(1 << 2);

    /// Every mediated field — the conservative answer for native
    /// classifiers, whose writes the verifier cannot see.
    pub fn all() -> MediatedFields {
        MediatedFields(MediatedFields::SLBA.0 | MediatedFields::NLB.0 | MediatedFields::USER_TAG.0)
    }

    /// Whether `field` is set in this mask.
    pub fn contains(self, field: MediatedFields) -> bool {
        self.0 & field.0 == field.0
    }

    /// Union of two masks.
    pub fn union(self, other: MediatedFields) -> MediatedFields {
        MediatedFields(self.0 | other.0)
    }

    /// The dirty mask implied by a verifier context write-set: a field is
    /// dirty iff some verified store overlaps its byte range.
    pub fn from_ctx_writes(writes: &[(usize, usize)]) -> MediatedFields {
        const FIELDS: [(usize, usize, MediatedFields); 3] = [
            (OFF_SLBA, OFF_SLBA + 8, MediatedFields::SLBA),
            (OFF_NLB, OFF_NLB + 4, MediatedFields::NLB),
            (OFF_TAG, OFF_TAG + 8, MediatedFields::USER_TAG),
        ];
        let mut dirty = MediatedFields::NONE;
        for &(start, end) in writes {
            for (lo, hi, field) in FIELDS {
                if start < hi && end > lo {
                    dirty = dirty.union(field);
                }
            }
        }
        dirty
    }
}

/// Everything one classifier invocation produced: the routing verdict and
/// which mediated fields the router must copy back.
#[derive(Clone, Copy, Debug)]
pub struct ClassifyOutcome {
    /// The routing verdict.
    pub verdict: Verdict,
    /// Mediated fields the classifier may have rewritten.
    pub dirty: MediatedFields,
}

/// An installed classifier.
// One Classifier lives in each VM binding for the life of the VM and is
// only ever moved at install time; boxing the (large, hot) `Vm` variant
// would buy nothing but a pointer chase on every classify call.
#[allow(clippy::large_enum_variant)]
pub enum Classifier {
    /// Verified vbpf bytecode (the paper's deployed configuration), run
    /// by the vbpf interpreter.
    Bpf(Vm),
    /// Native Rust (zero interpretation cost; ablation baseline).
    Native(Box<dyn NativeClassifier>),
}

impl Classifier {
    /// Runs the classifier at virtual time `now`.
    pub fn run(&mut self, ctx: &mut RequestCtx, now: u64) -> Verdict {
        match self {
            Classifier::Bpf(vm) => {
                vm.set_time(now);
                let r = vm
                    .run(ctx.bytes_mut())
                    .expect("verified classifier must not trap");
                Verdict(r)
            }
            Classifier::Native(n) => n.classify(ctx),
        }
    }

    /// The mediated fields this classifier can write: the verifier's
    /// footprint for vbpf, every field for native code. It is fixed for
    /// the life of the installed program, so the router derives it once
    /// per install rather than per call.
    pub fn footprint(&self) -> MediatedFields {
        match self {
            Classifier::Bpf(vm) => MediatedFields::from_ctx_writes(vm.program().ctx_writes()),
            Classifier::Native(_) => MediatedFields::all(),
        }
    }

    /// Runs the classifier and reports its footprint alongside the
    /// verdict, for callers that keep no footprint of their own.
    pub fn run_tiered(&mut self, ctx: &mut RequestCtx, now: u64) -> ClassifyOutcome {
        ClassifyOutcome {
            verdict: self.run(ctx, now),
            dirty: self.footprint(),
        }
    }

    /// Host-side access to a vbpf classifier's map (configuration).
    pub fn bpf_vm_mut(&mut self) -> Option<&mut Vm> {
        match self {
            Classifier::Bpf(vm) => Some(vm),
            Classifier::Native(_) => None,
        }
    }
}

/// Builds the "dummy" classifier of the basic evaluation (§V-B): every
/// command goes straight to the device and completes from there —
/// `return SEND_HQ | WILL_COMPLETE_HQ;` — as real verified bytecode.
pub fn passthrough_program() -> Vm {
    let mut b = ProgramBuilder::new();
    b.lddw(
        nvmetro_vbpf::isa::R0,
        verdict_bits::SEND_HQ | verdict_bits::WILL_COMPLETE_HQ,
    )
    .exit();
    let (insns, maps) = b.build();
    Vm::new(
        nvmetro_vbpf::verify(insns, maps, &classifier_verifier_config())
            .expect("passthrough classifier verifies"),
    )
}

/// Builds a classifier that translates LBAs by a constant partition offset
/// then takes the fast path — the per-VM classifier of the scalability
/// evaluation (Fig. 5), where each VM owns a partition of a shared
/// namespace.
pub fn offset_program(lba_offset: u64) -> Vm {
    use nvmetro_vbpf::isa::*;
    let mut b = ProgramBuilder::new();
    b.ldx(SIZE_DW, R2, R1, ctx_offsets::SLBA)
        .lddw(R3, lba_offset)
        .alu64(ALU_ADD, R2, R3)
        .stx(SIZE_DW, R1, ctx_offsets::SLBA, R2)
        .lddw(R0, verdict_bits::SEND_HQ | verdict_bits::WILL_COMPLETE_HQ)
        .exit();
    let (insns, maps) = b.build();
    Vm::new(
        nvmetro_vbpf::verify(insns, maps, &classifier_verifier_config())
            .expect("offset classifier verifies"),
    )
}

/// The paper's full partition-offset mediation classifier (§III-C): I/O
/// commands get their starting LBA bounds-checked against the partition
/// length and translated by the partition base; everything past the
/// partition completes immediately with `LBA_OUT_OF_RANGE`; non-I/O
/// commands pass through untouched. This is the representative
/// direct-mediation workload.
pub fn partition_offset_program(lba_offset: u64, part_nlb: u64) -> Vm {
    use nvmetro_vbpf::isa::*;
    let mut b = ProgramBuilder::new();
    let io = b.new_label();
    let reject = b.new_label();
    let ok = verdict_bits::SEND_HQ | verdict_bits::WILL_COMPLETE_HQ;
    b.ldx(SIZE_B, R2, R1, ctx_offsets::OPCODE)
        .jmp_imm(JMP_JEQ, R2, nvmetro_nvme::NvmOpcode::Read as i32, io)
        .jmp_imm(JMP_JEQ, R2, nvmetro_nvme::NvmOpcode::Write as i32, io)
        // Non-I/O (flush, admin passthrough): fast path, no mediation.
        .lddw(R0, ok)
        .exit();
    b.bind(io);
    b.ldx(SIZE_DW, R3, R1, ctx_offsets::SLBA)
        .ldx(SIZE_W, R4, R1, ctx_offsets::NLB)
        .mov64(R5, R3)
        .alu64(ALU_ADD, R5, R4)
        .lddw(R6, part_nlb)
        .jmp_reg(JMP_JGT, R5, R6, reject)
        .lddw(R7, lba_offset)
        .alu64(ALU_ADD, R3, R7)
        .stx(SIZE_DW, R1, ctx_offsets::SLBA, R3)
        .lddw(R0, ok)
        .exit();
    b.bind(reject);
    b.lddw(
        R0,
        verdict_bits::COMPLETE | Status::LBA_OUT_OF_RANGE.0 as u64,
    )
    .exit();
    let (insns, maps) = b.build();
    Vm::new(
        nvmetro_vbpf::verify(insns, maps, &classifier_verifier_config())
            .expect("partition-offset classifier verifies"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offset_program_translates() {
        let mut cls = Classifier::Bpf(offset_program(12345));
        let cmd = SubmissionEntry::read(1, 10, 1, 0, 0);
        let mut ctx = RequestCtx::new(HOOK_VSQ, 0, 0, &cmd, Status::SUCCESS, 0);
        let v = cls.run(&mut ctx, 0);
        assert_eq!(ctx.slba(), 12355);
        assert_eq!(v.send_mask(), path_bits::HQ);
    }

    #[test]
    fn partition_program_translates_in_bounds_io() {
        let mut cls = Classifier::Bpf(partition_offset_program(0x1000, 0x8000));
        let cmd = SubmissionEntry::write(1, 10, 8, 0, 0);
        let mut ctx = RequestCtx::new(HOOK_VSQ, 0, 0, &cmd, Status::SUCCESS, 0);
        let v = cls.run(&mut ctx, 0);
        assert_eq!(ctx.slba(), 0x1000 + 10);
        assert_eq!(v.send_mask(), path_bits::HQ);
        assert!(!v.complete());
    }

    #[test]
    fn partition_program_rejects_out_of_range() {
        // end = 10 + 8 = 18 > partition length 16.
        let mut cls = Classifier::Bpf(partition_offset_program(0x1000, 16));
        let cmd = SubmissionEntry::read(1, 10, 8, 0, 0);
        let mut ctx = RequestCtx::new(HOOK_VSQ, 0, 0, &cmd, Status::SUCCESS, 0);
        let v = cls.run(&mut ctx, 0);
        assert!(v.complete());
        assert_eq!(v.status(), Status::LBA_OUT_OF_RANGE);
        assert_eq!(ctx.slba(), 10, "rejected command must not be mediated");
    }

    #[test]
    fn partition_program_passes_non_io_untouched() {
        let mut cls = Classifier::Bpf(partition_offset_program(0x1000, 0x8000));
        let cmd = SubmissionEntry::flush(1);
        let mut ctx = RequestCtx::new(HOOK_VSQ, 0, 0, &cmd, Status::SUCCESS, 0);
        let before = ctx.bytes_mut().to_vec();
        let v = cls.run(&mut ctx, 0);
        assert_eq!(v.send_mask(), path_bits::HQ);
        assert_eq!(ctx.bytes_mut(), &before[..]);
    }

    fn sample_cmd() -> SubmissionEntry {
        SubmissionEntry::read(1, 0x1234, 8, 0x1000, 0)
    }

    #[test]
    fn ctx_round_trips_command_fields() {
        let cmd = sample_cmd();
        let ctx = RequestCtx::new(HOOK_VSQ, 3, 2, &cmd, Status::SUCCESS, 99);
        assert_eq!(ctx.current_hook(), HOOK_VSQ);
        assert_eq!(ctx.vm(), 3);
        assert_eq!(ctx.qid(), 2);
        assert_eq!(ctx.opcode(), 0x02);
        assert_eq!(ctx.nsid(), 1);
        assert_eq!(ctx.slba(), 0x1234);
        assert_eq!(ctx.nlb(), 8);
        assert_eq!(ctx.user_tag(), 99);
        assert!(!ctx.error().is_error());
    }

    #[test]
    fn mediation_fields_are_writable() {
        let cmd = sample_cmd();
        let mut ctx = RequestCtx::new(HOOK_VSQ, 0, 0, &cmd, Status::SUCCESS, 0);
        ctx.set_slba(777);
        ctx.set_nlb(2);
        ctx.set_user_tag(0xAB);
        assert_eq!(ctx.slba(), 777);
        assert_eq!(ctx.nlb(), 2);
        assert_eq!(ctx.user_tag(), 0xAB);
    }

    #[test]
    fn verdict_decodes_masks() {
        use verdict_bits::*;
        let v = Verdict(SEND_HQ | SEND_NQ | HOOK_HCQ | WILL_COMPLETE_NQ);
        assert_eq!(v.send_mask(), path_bits::HQ | path_bits::NQ);
        assert_eq!(v.hook_mask(), path_bits::HQ);
        assert_eq!(v.will_complete_mask(), path_bits::NQ);
        assert!(!v.complete());
    }

    #[test]
    fn verdict_complete_carries_status() {
        let v = Verdict(Status::LBA_OUT_OF_RANGE.0 as u64 | verdict_bits::COMPLETE);
        assert!(v.complete());
        assert_eq!(v.status(), Status::LBA_OUT_OF_RANGE);
    }

    #[test]
    fn passthrough_program_verifies_and_routes_to_device() {
        let mut vm = passthrough_program();
        let cmd = sample_cmd();
        let mut ctx = RequestCtx::new(HOOK_VSQ, 0, 0, &cmd, Status::SUCCESS, 0);
        let verdict = Verdict(vm.run(ctx.bytes_mut()).unwrap());
        assert_eq!(verdict.send_mask(), path_bits::HQ);
        assert_eq!(verdict.will_complete_mask(), path_bits::HQ);
        assert!(!verdict.complete());
    }

    #[test]
    fn bpf_classifier_reads_ctx_through_abi_offsets() {
        // A classifier that returns the opcode it observed — proving the
        // byte layout matches the documented offsets.
        let mut b = ProgramBuilder::new();
        b.ldx(
            nvmetro_vbpf::isa::SIZE_B,
            nvmetro_vbpf::isa::R0,
            nvmetro_vbpf::isa::R1,
            ctx_offsets::OPCODE,
        )
        .exit();
        let (insns, maps) = b.build();
        let vm = Vm::new(nvmetro_vbpf::verify(insns, maps, &classifier_verifier_config()).unwrap());
        let mut cls = Classifier::Bpf(vm);
        let cmd = sample_cmd();
        let mut ctx = RequestCtx::new(HOOK_VSQ, 0, 0, &cmd, Status::SUCCESS, 0);
        let verdict = cls.run(&mut ctx, 0);
        assert_eq!(verdict.0, 0x02);
    }

    #[test]
    fn bpf_classifier_can_mediate_slba() {
        // Rewrite slba += 1000 via the writable window (LBA translation).
        use nvmetro_vbpf::isa::*;
        let mut b = ProgramBuilder::new();
        b.ldx(SIZE_DW, R2, R1, ctx_offsets::SLBA)
            .add64_imm(R2, 1000)
            .stx(SIZE_DW, R1, ctx_offsets::SLBA, R2)
            .lddw(R0, verdict_bits::SEND_HQ | verdict_bits::WILL_COMPLETE_HQ)
            .exit();
        let (insns, maps) = b.build();
        let vm = Vm::new(nvmetro_vbpf::verify(insns, maps, &classifier_verifier_config()).unwrap());
        let mut cls = Classifier::Bpf(vm);
        let cmd = sample_cmd();
        let mut ctx = RequestCtx::new(HOOK_VSQ, 0, 0, &cmd, Status::SUCCESS, 0);
        cls.run(&mut ctx, 0);
        assert_eq!(ctx.slba(), 0x1234 + 1000);
    }

    #[test]
    fn classifier_cannot_write_readonly_ctx_fields() {
        // Attempting to overwrite the opcode (outside the writable window)
        // must be rejected at verification time.
        use nvmetro_vbpf::isa::*;
        let mut b = ProgramBuilder::new();
        b.mov64_imm(R0, 0)
            .st_imm(SIZE_B, R1, ctx_offsets::OPCODE, 0x01)
            .exit();
        let (insns, maps) = b.build();
        assert!(nvmetro_vbpf::verify(insns, maps, &classifier_verifier_config()).is_err());
    }

    #[test]
    fn fill_reuses_scratch_without_leaking_prior_state() {
        let cmd_a = SubmissionEntry::read(1, 0x1234, 8, 0x1000, 0);
        let cmd_b = SubmissionEntry::read(2, 0x9, 1, 0x2000, 0);
        let mut scratch = RequestCtx::empty();
        scratch.fill(HOOK_VSQ, 3, 2, &cmd_a, Status::SUCCESS, 0xDEAD_BEEF);
        scratch.set_user_tag(u64::MAX);
        scratch.set_slba(u64::MAX);
        scratch.fill(HOOK_HCQ, 1, 0, &cmd_b, Status::LBA_OUT_OF_RANGE, 7);
        let fresh = RequestCtx::new(HOOK_HCQ, 1, 0, &cmd_b, Status::LBA_OUT_OF_RANGE, 7);
        assert_eq!(scratch.buf, fresh.buf);
    }

    #[test]
    fn mediated_fields_derive_from_write_set() {
        // slba-only store → only SLBA is dirty.
        let w = MediatedFields::from_ctx_writes(&[(16, 24)]);
        assert!(w.contains(MediatedFields::SLBA));
        assert!(!w.contains(MediatedFields::NLB));
        assert!(!w.contains(MediatedFields::USER_TAG));
        // A single byte poked into the middle of nlb still dirties it.
        let w = MediatedFields::from_ctx_writes(&[(26, 27)]);
        assert!(w.contains(MediatedFields::NLB));
        // A store spanning slba+nlb dirties both.
        let w = MediatedFields::from_ctx_writes(&[(20, 26)]);
        assert!(w.contains(MediatedFields::SLBA) && w.contains(MediatedFields::NLB));
        // Writes to error/qid (28..32) touch no mediated field.
        assert_eq!(
            MediatedFields::from_ctx_writes(&[(28, 32)]),
            MediatedFields::NONE
        );
    }

    #[test]
    fn run_tiered_reports_dirty_fields() {
        let mut cls = Classifier::Bpf(offset_program(1000));
        let cmd = sample_cmd();
        let mut ctx = RequestCtx::new(HOOK_VSQ, 0, 0, &cmd, Status::SUCCESS, 0);
        let out = cls.run_tiered(&mut ctx, 0);
        assert!(out.dirty.contains(MediatedFields::SLBA));
        assert!(!out.dirty.contains(MediatedFields::NLB));
        assert!(!out.dirty.contains(MediatedFields::USER_TAG));
        assert_eq!(ctx.slba(), 0x1234 + 1000);
    }

    #[test]
    fn passthrough_marks_nothing_dirty() {
        let mut cls = Classifier::Bpf(passthrough_program());
        let cmd = sample_cmd();
        let mut ctx = RequestCtx::new(HOOK_VSQ, 0, 0, &cmd, Status::SUCCESS, 0);
        let out = cls.run_tiered(&mut ctx, 0);
        assert_eq!(out.dirty, MediatedFields::NONE);
    }

    #[test]
    fn native_classifier_runs() {
        struct Always(u64);
        impl NativeClassifier for Always {
            fn classify(&mut self, _ctx: &mut RequestCtx) -> Verdict {
                Verdict(self.0)
            }
        }
        let mut c = Classifier::Native(Box::new(Always(verdict_bits::COMPLETE)));
        let cmd = sample_cmd();
        let mut ctx = RequestCtx::new(HOOK_VSQ, 0, 0, &cmd, Status::SUCCESS, 0);
        assert!(c.run(&mut ctx, 0).complete());
        assert!(c.bpf_vm_mut().is_none());
    }
}
