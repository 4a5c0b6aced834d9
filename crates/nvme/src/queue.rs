//! Lock-free NVMe queue rings.
//!
//! Each queue is a lockless single-producer/single-consumer ring buffer, as
//! in the NVMe specification ("each queue is a lockless producer-consumer
//! ring buffer", §II-A): the producer owns the tail doorbell, the consumer
//! owns the head doorbell, and no synchronization beyond one release store
//! and one acquire load per operation is needed. Completion queues
//! additionally carry the spec's *phase tag*: a bit that flips on every ring
//! wrap, letting a poller detect new entries without reading the doorbell.
//!
//! The same ring type backs every queue in the system: guest-visible
//! VSQ/VCQ, device-facing HSQ/HCQ, and the notify-path NSQ/NCQ mapped into
//! UIF address space.
//!
//! # Doorbell pages
//!
//! A consumer of many rings (a router shard, the SSD model) does not read
//! every ring's indices to find the few with work. It owns a [`BellPage`]:
//! one bit per ring group, 64 to a cache line, in the manner of the NVMe
//! shadow-doorbell buffer. The consumer end binds each ring to a [`Bell`]
//! of its page; the producer sets that bit after publishing the tail; the
//! consumer takes the set bits of a word in one operation and visits only
//! those rings. The protocol, with the ordering each step needs:
//!
//! 1. **Producer: publish, then ring.** `tail.store(Release)`, then
//!    `word.fetch_or(bit, AcqRel)`. The RMW's release half orders the tail
//!    store before the bit. The RMW cannot be skipped when the bit "looks
//!    set": a load of the word may be satisfied before the earlier tail
//!    store has left the store buffer (store→load reordering, which x86
//!    allows too), so the consumer can take the bit, find the old tail,
//!    and clear the only bell the new entry would ever have had. An RMW
//!    always acts on the latest value of the word, so it lands either
//!    before the consumer's take (which then sees the new tail) or after
//!    it (and leaves the bit set for the next poll).
//! 2. **Consumer: take, drain, re-ring leftovers.** An idle check is one
//!    `load(Relaxed)` per word — stale reads only delay, the value publishes
//!    nothing. A non-zero word is taken with `swap(0, AcqRel)`: its acquire
//!    half pairs with step 1, so every rung ring's tail is visible to the
//!    drain that follows. A ring the consumer leaves non-empty (batch
//!    bound, closed gate) gets its own bit set again by the consumer.
//! 3. **Re-bind** (a ring moves to another consumer's page while its
//!    producer may be pushing): the binder swaps the ring's bell
//!    (`AcqRel`), performs a no-op `fetch_or(0, AcqRel)` on the *old* word,
//!    then rings the new bell if the ring is non-empty. The producer
//!    re-reads the bell after its RMW and rings again if it changed. The
//!    two RMWs on the old word are ordered by its modification order: if
//!    the producer's came first the binder's acquires it and sees the tail
//!    (so the binder rings); otherwise the producer's acquires the binder's
//!    and sees the new bell (so the producer rings). Binding a ring that
//!    was never bound has no old word to meet on: do it before the producer
//!    end starts pushing from another thread.
//!
//! `tests/bell_protocol.rs` checks steps 1-3 over every interleaving of a
//! small model and under real threads.

use crate::cmd::SubmissionEntry;
use crate::status::CompletionEntry;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Pads a value out to its own cache line (128 bytes covers the spatial
/// prefetcher pairing lines on modern x86) so the head and tail doorbells
/// never false-share.
#[repr(align(128))]
#[derive(Debug, Default)]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps `value` in cache-line-aligned padding.
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

/// One word of a doorbell page: 64 bells on a cache line of their own, so
/// producers of different words never false-share.
type BellWord = CachePadded<AtomicU64>;

/// Bells per page word.
const BELLS_PER_WORD: usize = 64;

/// One bit of a [`BellPage`]: what a consumer binds its rings to.
#[derive(Clone)]
pub struct Bell {
    word: Arc<BellWord>,
    bit: u32,
}

impl Bell {
    /// Sets the bit (see the module docs, step 1).
    fn ring(&self) {
        self.word.fetch_or(1 << self.bit, Ordering::AcqRel);
    }

    /// The bell as one pointer: the word's address with the bit index in
    /// the low bits its 128-byte alignment leaves free.
    fn packed(&self) -> *mut BellWord {
        Arc::as_ptr(&self.word)
            .cast_mut()
            .map_addr(|a| a | self.bit as usize)
    }
}

/// Splits a packed bell into its word and the bit's mask.
///
/// # Safety
/// `packed` came from [`Bell::packed`] and the word it names stays
/// allocated for `'a`.
unsafe fn unpack<'a>(packed: *mut BellWord) -> (&'a BellWord, u64) {
    let bit = packed.addr() & (BELLS_PER_WORD - 1);
    let word = packed.map_addr(|a| a & !(std::mem::align_of::<BellWord>() - 1));
    // SAFETY: the caller guarantees the word is live; it is only ever
    // accessed atomically.
    (unsafe { &*word }, 1 << bit)
}

/// A consumer's dense doorbell page: one bit per ring group, 64 per cache
/// line (see the module docs). Words are added as bells are asked for and
/// never move, so growing the page re-binds nothing.
#[derive(Default)]
pub struct BellPage {
    words: Vec<Arc<BellWord>>,
}

impl BellPage {
    /// An empty page.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bell for `bit`, growing the page to hold it.
    pub fn bell(&mut self, bit: usize) -> Bell {
        let word = bit / BELLS_PER_WORD;
        while self.words.len() <= word {
            self.words
                .push(Arc::new(CachePadded::new(AtomicU64::new(0))));
        }
        Bell {
            word: self.words[word].clone(),
            bit: (bit % BELLS_PER_WORD) as u32,
        }
    }

    /// Words in the page (64 bells each).
    pub fn words(&self) -> usize {
        self.words.len()
    }

    /// The consumer sets one of its own bits: a ring it left non-empty.
    #[inline]
    pub fn ring(&self, bit: usize) {
        self.words[bit / BELLS_PER_WORD].fetch_or(1 << (bit % BELLS_PER_WORD), Ordering::AcqRel);
    }

    /// Takes the set bits of one word (module docs, step 2): one relaxed
    /// load when nothing rang, a swap otherwise.
    #[inline]
    pub fn take(&self, word: usize) -> u64 {
        let w = &self.words[word];
        if w.load(Ordering::Relaxed) == 0 {
            return 0;
        }
        w.swap(0, Ordering::AcqRel)
    }

    /// Whether any bell of the page is set: one relaxed load per word, the
    /// whole of an idle poll's look at its rings.
    #[inline]
    pub fn any(&self) -> bool {
        self.words
            .iter()
            .fold(0, |set, w| set | w.load(Ordering::Relaxed))
            != 0
    }

    /// The set bits of one word, left in place (a parked consumer asking
    /// whether anything rang).
    #[inline]
    pub fn peek(&self, word: usize) -> u64 {
        self.words[word].load(Ordering::Acquire)
    }
}

/// A ring's bell binding: set by the consumer end, read by the producer
/// end on every ring.
struct BellSlot {
    /// [`Bell::packed`] of the bound bell; null while unbound.
    bound: AtomicPtr<BellWord>,
    /// Every word this ring was ever bound to. A producer may have loaded
    /// `bound` just before a re-bind replaced it, so a word is freed only
    /// with the ring.
    keep: Mutex<KeptWords>,
}

/// The first binding sits inline: binding allocates nothing until a ring
/// is re-bound.
#[derive(Default)]
struct KeptWords {
    first: Option<Arc<BellWord>>,
    later: Vec<Arc<BellWord>>,
}

impl BellSlot {
    fn new() -> Self {
        BellSlot {
            bound: AtomicPtr::new(std::ptr::null_mut()),
            keep: Mutex::default(),
        }
    }

    /// Producer side, after publishing the tail (module docs, steps 1, 3).
    #[inline]
    fn ring(&self) {
        let mut bound = self.bound.load(Ordering::Acquire);
        while !bound.is_null() {
            // SAFETY: `bound` was stored by `bind`, which put the word in
            // `keep` first, and `keep` only grows while the ring lives.
            let (word, mask) = unsafe { unpack(bound) };
            word.fetch_or(mask, Ordering::AcqRel);
            // Re-bound while ringing: the entry must reach the new page.
            let now = self.bound.load(Ordering::Acquire);
            if now == bound {
                break;
            }
            bound = now;
        }
    }

    /// Consumer side: points the ring at `bell` and returns once a
    /// concurrent producer is certain to see it (module docs, step 3).
    fn bind(&self, bell: &Bell) {
        let mut keep = self
            .keep
            .lock()
            .expect("bell slot lock is never held across a panic");
        if keep.first.is_none() {
            keep.first = Some(bell.word.clone());
        } else {
            keep.later.push(bell.word.clone());
        }
        let old = self.bound.swap(bell.packed(), Ordering::AcqRel);
        if !old.is_null() {
            // SAFETY: `old` was stored by an earlier `bind`; see `ring`.
            let (word, _) = unsafe { unpack(old) };
            // Sets nothing: an RMW for a producer ringing `old` to meet.
            word.fetch_or(0, Ordering::AcqRel);
        }
    }
}

struct Ring<T> {
    entries: Box<[UnsafeCell<T>]>,
    /// Consumer index (free-running); the "head doorbell".
    head: CachePadded<AtomicU32>,
    /// Producer index (free-running); the "tail doorbell".
    tail: CachePadded<AtomicU32>,
    mask: u32,
    /// The consumer's doorbell for this ring, inline: no allocation per
    /// bound ring.
    bell: BellSlot,
}

// SAFETY: the ring is SPSC by construction — the producer handle is the only
// writer of `tail` and of entries in `[head, tail)`'s complement, and the
// consumer handle is the only writer of `head`. Entry slots are handed off
// with release/acquire pairs on the indices, so a slot is never accessed
// concurrently from both sides. The bell slot is an atomic and a mutex.
unsafe impl<T: Send> Sync for Ring<T> {}
unsafe impl<T: Send> Send for Ring<T> {}

impl<T: Default + Copy> Ring<T> {
    fn new(depth: usize) -> Arc<Self> {
        assert!(
            depth.is_power_of_two() && (2..=crate::MAX_QUEUE_ENTRIES).contains(&depth),
            "queue depth must be a power of two in [2, 64K]"
        );
        let entries: Vec<UnsafeCell<T>> =
            (0..depth).map(|_| UnsafeCell::new(T::default())).collect();
        Arc::new(Ring {
            entries: entries.into_boxed_slice(),
            head: CachePadded::new(AtomicU32::new(0)),
            tail: CachePadded::new(AtomicU32::new(0)),
            mask: (depth - 1) as u32,
            bell: BellSlot::new(),
        })
    }

    /// Consumer side: binds the ring to `bell` and rings it if entries are
    /// already queued, so the new consumer's first poll finds them.
    fn bind_bell(&self, bell: &Bell) {
        self.bell.bind(bell);
        if !self.is_empty() {
            bell.ring();
        }
    }

    fn capacity(&self) -> usize {
        self.entries.len()
    }

    fn len(&self) -> usize {
        let tail = self.tail.load(Ordering::Acquire);
        let head = self.head.load(Ordering::Acquire);
        tail.wrapping_sub(head) as usize
    }

    /// Producer side: push one entry; `Err` when full.
    fn push(&self, value: T) -> Result<u32, T> {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) as usize == self.capacity() {
            return Err(value);
        }
        // SAFETY: slot `tail` is not visible to the consumer until the
        // release store below, and only this (single) producer writes it.
        unsafe {
            *self.entries[(tail & self.mask) as usize].get() = value;
        }
        self.tail.store(tail.wrapping_add(1), Ordering::Release);
        Ok(tail)
    }

    /// Consumer side: pop one entry with its ring index; `None` when empty.
    fn pop(&self) -> Option<(T, u32)> {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        // SAFETY: the acquire load of `tail` synchronizes with the
        // producer's release store, making slot `head` readable; only this
        // (single) consumer reads-and-releases slots.
        let value = unsafe { *self.entries[(head & self.mask) as usize].get() };
        self.head.store(head.wrapping_add(1), Ordering::Release);
        Some((value, head))
    }

    fn is_empty(&self) -> bool {
        self.head.load(Ordering::Acquire) == self.tail.load(Ordering::Acquire)
    }
}

// ---------------------------------------------------------------------------
// Submission queues
// ---------------------------------------------------------------------------

/// Creates a submission queue of `depth` entries, returning its two ends.
pub struct SqPair;

impl SqPair {
    /// Builds the producer/consumer handle pair for a new SQ. Returns the
    /// two ends rather than `Self` by design, like a channel constructor.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(depth: usize) -> (SqProducer, SqConsumer) {
        let ring = Ring::<SubmissionEntry>::new(depth);
        (SqProducer { ring: ring.clone() }, SqConsumer { ring })
    }
}

/// The host-side (or guest-side) writer of a submission queue.
pub struct SqProducer {
    ring: Arc<Ring<SubmissionEntry>>,
}

impl SqProducer {
    /// Submits a command and rings the consumer's bell; `Err(cmd)` when
    /// the queue is full.
    #[inline]
    pub fn push(&self, cmd: SubmissionEntry) -> Result<(), SubmissionEntry> {
        self.push_quiet(cmd)?;
        self.ring();
        Ok(())
    }

    /// Submits a command without ringing: a producer that pushes several
    /// commands in one pass follows them with one [`SqProducer::ring`].
    #[inline]
    pub fn push_quiet(&self, cmd: SubmissionEntry) -> Result<(), SubmissionEntry> {
        self.ring.push(cmd).map(|_| ())
    }

    /// Rings the consumer's bell, if the consumer bound one.
    #[inline]
    pub fn ring(&self) {
        self.ring.bell.ring();
    }

    /// Entries currently queued.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when no commands are queued.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Queue capacity in entries.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }
}

/// The consumer end of a submission queue (the router for VSQs, the device
/// for HSQs, a UIF for NSQs).
pub struct SqConsumer {
    ring: Arc<Ring<SubmissionEntry>>,
}

impl SqConsumer {
    /// Takes the next command, with the SQ head index it occupied.
    pub fn pop(&self) -> Option<(SubmissionEntry, u16)> {
        self.ring.pop().map(|(e, idx)| (e, idx as u16))
    }

    /// True when no commands are waiting. Reads both ring indices: a
    /// consumer of many queues asks its [`BellPage`] first.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Binds this queue to a bell of the consumer's page, replacing any
    /// earlier binding, and rings it if commands are already waiting.
    pub fn bind_bell(&self, bell: &Bell) {
        self.ring.bind_bell(bell);
    }

    /// Entries currently queued.
    pub fn len(&self) -> usize {
        self.ring.len()
    }
}

// ---------------------------------------------------------------------------
// Completion queues
// ---------------------------------------------------------------------------

/// Creates a completion queue of `depth` entries, returning its two ends.
pub struct CqPair;

impl CqPair {
    /// Builds the producer/consumer handle pair for a new CQ. Returns the
    /// two ends rather than `Self` by design, like a channel constructor.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(depth: usize) -> (CqProducer, CqConsumer) {
        let ring = Ring::<CompletionEntry>::new(depth);
        (CqProducer { ring: ring.clone() }, CqConsumer { ring })
    }
}

/// The completion-posting end (device, router, or UIF).
pub struct CqProducer {
    ring: Arc<Ring<CompletionEntry>>,
}

impl CqProducer {
    /// Posts a completion and rings the consumer's bell; `Err(entry)` when
    /// the CQ is full.
    #[inline]
    pub fn push(&self, entry: CompletionEntry) -> Result<(), CompletionEntry> {
        self.push_quiet(entry)?;
        self.ring();
        Ok(())
    }

    /// Rings the consumer's bell, if the consumer bound one.
    #[inline]
    pub fn ring(&self) {
        self.ring.bell.ring();
    }

    /// Posts a completion without ringing (follow a pass of these with one
    /// [`CqProducer::ring`]), stamping the spec's phase tag from the ring
    /// position; `Err(entry)` when the CQ is full.
    #[inline]
    pub fn push_quiet(&self, mut entry: CompletionEntry) -> Result<(), CompletionEntry> {
        let tail = self.ring.tail.load(Ordering::Relaxed);
        // Phase starts at 1 on the first pass and flips every wrap.
        let pass = tail / (self.ring.capacity() as u32);
        entry.set_phase(pass.is_multiple_of(2));
        self.ring.push(entry).map(|_| ()).map_err(|mut e| {
            e.set_phase(false);
            e
        })
    }

    /// Entries currently posted but not yet reaped.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when every posted completion has been reaped.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }
}

/// The completion-reaping end (guest driver for VCQs, router for HCQ/NCQ).
pub struct CqConsumer {
    ring: Arc<Ring<CompletionEntry>>,
}

impl CqConsumer {
    /// Reaps the next completion, if any.
    pub fn pop(&self) -> Option<CompletionEntry> {
        let head = self.ring.head.load(Ordering::Relaxed);
        let expected_phase = (head / (self.ring.capacity() as u32)).is_multiple_of(2);
        let (entry, _) = self.ring.pop()?;
        // Protocol invariant: the posted phase must match what a pure
        // phase-polling consumer would expect at this position.
        debug_assert_eq!(
            entry.phase(),
            expected_phase,
            "completion phase tag out of sync"
        );
        Some(entry)
    }

    /// True when no completions are pending — used by pollers.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Binds this queue to a bell of the consumer's page, replacing any
    /// earlier binding, and rings it if completions are already pending.
    pub fn bind_bell(&self, bell: &Bell) {
        self.ring.bind_bell(bell);
    }

    /// Entries currently pending.
    pub fn len(&self) -> usize {
        self.ring.len()
    }
}

/// A submission/completion queue pair as created by the admin
/// `CreateSq`/`CreateCq` commands — the unit NVMetro shadows per guest queue.
pub struct QueuePair {
    /// Producer end of the SQ (kept by the submitter).
    pub sq_prod: SqProducer,
    /// Consumer end of the SQ (kept by the servicer).
    pub sq_cons: SqConsumer,
    /// Producer end of the CQ (kept by the servicer).
    pub cq_prod: CqProducer,
    /// Consumer end of the CQ (kept by the submitter).
    pub cq_cons: CqConsumer,
}

impl QueuePair {
    /// Creates a queue pair with SQ and CQ of the same depth.
    pub fn new(depth: usize) -> Self {
        let (sq_prod, sq_cons) = SqPair::new(depth);
        let (cq_prod, cq_cons) = CqPair::new(depth);
        QueuePair {
            sq_prod,
            sq_cons,
            cq_prod,
            cq_cons,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::status::Status;

    #[test]
    fn sq_push_pop_round_trip() {
        let (prod, cons) = SqPair::new(8);
        let cmd = SubmissionEntry::read(1, 100, 4, 0x1000, 0);
        prod.push(cmd).unwrap();
        assert_eq!(prod.len(), 1);
        let (got, idx) = cons.pop().unwrap();
        assert_eq!(got, cmd);
        assert_eq!(idx, 0);
        assert!(cons.pop().is_none());
    }

    #[test]
    fn sq_rejects_when_full() {
        let (prod, cons) = SqPair::new(4);
        for i in 0..4 {
            prod.push(SubmissionEntry::read(1, i, 1, 0, 0)).unwrap();
        }
        assert!(prod.push(SubmissionEntry::flush(1)).is_err());
        cons.pop().unwrap();
        // One slot freed: push succeeds again.
        prod.push(SubmissionEntry::flush(1)).unwrap();
    }

    #[test]
    fn fifo_order_across_wraps() {
        let (prod, cons) = SqPair::new(4);
        let mut expect = 0u64;
        for round in 0..10u64 {
            for i in 0..3 {
                prod.push(SubmissionEntry::read(1, round * 3 + i, 1, 0, 0))
                    .unwrap();
            }
            for _ in 0..3 {
                let (e, _) = cons.pop().unwrap();
                assert_eq!(e.slba(), expect);
                expect += 1;
            }
        }
    }

    #[test]
    fn cq_phase_flips_on_wrap() {
        let (prod, cons) = CqPair::new(4);
        // First pass: phase 1.
        for i in 0..4 {
            prod.push(CompletionEntry::new(i, Status::SUCCESS)).unwrap();
        }
        for _ in 0..4 {
            assert!(cons.pop().unwrap().phase());
        }
        // Second pass: phase 0.
        for i in 0..4 {
            prod.push(CompletionEntry::new(i, Status::SUCCESS)).unwrap();
        }
        for _ in 0..4 {
            assert!(!cons.pop().unwrap().phase());
        }
        // Third pass: phase 1 again.
        prod.push(CompletionEntry::new(0, Status::SUCCESS)).unwrap();
        assert!(cons.pop().unwrap().phase());
    }

    #[test]
    fn cq_preserves_status() {
        let (prod, cons) = CqPair::new(8);
        prod.push(CompletionEntry::new(3, Status::LBA_OUT_OF_RANGE))
            .unwrap();
        let e = cons.pop().unwrap();
        assert_eq!(e.cid, 3);
        assert_eq!(e.status(), Status::LBA_OUT_OF_RANGE);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_depth_panics() {
        let _ = SqPair::new(3);
    }

    #[test]
    fn cross_thread_spsc_stress() {
        let (prod, cons) = SqPair::new(64);
        const N: u64 = 20_000;
        let producer = std::thread::spawn(move || {
            let mut sent = 0u64;
            while sent < N {
                let cmd = SubmissionEntry::read(1, sent, 1, 0, 0);
                if prod.push(cmd).is_ok() {
                    sent += 1;
                } else {
                    std::hint::spin_loop();
                }
            }
        });
        let mut expect = 0u64;
        while expect < N {
            if let Some((e, _)) = cons.pop() {
                assert_eq!(e.slba(), expect, "order violated");
                expect += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        producer.join().unwrap();
    }

    #[test]
    fn cross_thread_cq_stress_keeps_phase_consistent() {
        let (prod, cons) = CqPair::new(32);
        const N: u32 = 20_000;
        let producer = std::thread::spawn(move || {
            let mut sent = 0u32;
            while sent < N {
                let e = CompletionEntry::new((sent % 65_536) as u16, Status::SUCCESS);
                if prod.push(e).is_ok() {
                    sent += 1;
                } else {
                    std::hint::spin_loop();
                }
            }
        });
        let mut got = 0u32;
        while got < N {
            if let Some(e) = cons.pop() {
                assert_eq!(e.cid as u32, got % 65_536);
                got += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        producer.join().unwrap();
    }

    #[test]
    fn queue_pair_bundles_working_ends() {
        let qp = QueuePair::new(16);
        qp.sq_prod.push(SubmissionEntry::flush(1)).unwrap();
        let (cmd, _) = qp.sq_cons.pop().unwrap();
        qp.cq_prod
            .push(CompletionEntry::new(cmd.cid, Status::SUCCESS))
            .unwrap();
        assert_eq!(qp.cq_cons.pop().unwrap().status(), Status::SUCCESS);
    }
}
