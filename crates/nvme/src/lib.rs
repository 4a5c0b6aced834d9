//! NVMe protocol substrate.
//!
//! Implements the parts of the NVM Express specification that NVMetro's
//! queue shadowing depends on: 64-byte submission entries, 16-byte
//! completion entries with phase bits, status codes, the NVM and admin
//! opcode sets, and lock-free single-producer/single-consumer queue pairs
//! with doorbells — the VSQ/VCQ, HSQ/HCQ and NSQ/NCQ of the paper are all
//! instances of these rings.
//!
//! Only the 64-byte command block ever moves through a queue; data pages
//! stay in guest memory and are referenced by PRP pointers (§III-C).

mod cmd;
mod queue;
mod status;

pub use cmd::{AdminOpcode, NvmOpcode, SubmissionEntry};
pub use queue::{
    Bell, BellPage, CachePadded, CqConsumer, CqPair, CqProducer, QueuePair, SqConsumer, SqPair,
    SqProducer,
};
pub use status::{CompletionEntry, Status, StatusCodeType};

/// Logical block size used throughout the reproduction (the paper's fio
/// runs use 512 B blocks as the smallest unit).
pub const LBA_SIZE: usize = 512;

/// Maximum queue entries supported per queue (the spec allows 64K).
pub const MAX_QUEUE_ENTRIES: usize = 65_536;
