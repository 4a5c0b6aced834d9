//! No lost doorbell and no overwritten slot, checked two ways (the protocol
//! is laid out in the `queue` module docs).
//!
//! 1. An exhaustive walk of a small model: a capacity-2 ring whose slot
//!    contents are modelled, one producer making three pushes (so the third
//!    finds its cached head saying "full") against a consumer making two
//!    polls (batch bound one or two), optionally re-binding the ring to a
//!    second page in between. Each end keeps its copy of the other end's
//!    index as the shipped ring does (step 4). The rules are x86-TSO: plain
//!    stores sit in a per-thread FIFO store buffer until a nondeterministic
//!    flush, loads read the own buffer first, RMWs drain the buffer and act
//!    on memory. Plain interleaving (sequential consistency) would not do:
//!    the reason the producer may not skip its RMW when the bit "looks set"
//!    is a load overtaking an earlier store, which only a store buffer
//!    shows. The walk proves the shipped protocol never strands an entry
//!    without its bell and never lands a slot store on an entry the
//!    consumer has not read, and that each of five tempting shortcuts breaks
//!    one of the two.
//! 2. The real rings under real threads: 4 producers over 64 rings and a
//!    consumer that looks only at the page, then one ring re-bound between
//!    two pages while its producer runs. A lost doorbell is a hang, caught
//!    by a deadline.

use nvmetro_nvme::{BellPage, SqConsumer, SqPair, SubmissionEntry};
use std::collections::HashSet;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// The model
// ---------------------------------------------------------------------------

/// How the model's producer rings.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Producer {
    /// Publish the tail, RMW the bell, re-read the binding (as shipped).
    Shipped,
    /// Skips the RMW when a load shows the bit already set.
    SkipWhenSet,
    /// Never re-reads the binding after ringing.
    NoRecheck,
}

/// Which consumer program the model runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Consumer {
    /// Two polls of page 0.
    TwoPolls,
    /// Poll page 0, re-bind the ring to page 1, poll page 1.
    Rebind,
    /// As `Rebind`, but the binder never looks at the ring after the swap.
    RebindNoCheck,
}

/// How the model's producer uses its copy of the head.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Push {
    /// Reload the head when the copy says full, write the slot only once
    /// there is room (as shipped).
    Shipped,
    /// Writes the slot first and only then reloads a head whose copy says
    /// full; gives up if the ring really is full.
    WriteBeforeRefresh,
}

/// How the model's consumer uses its copy of the tail.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Pop {
    /// Reload the tail when the copy says empty; `None` only after that
    /// fresh load (as shipped).
    Shipped,
    /// Loads the tail once at the start of a poll, before looking at the
    /// bell, and answers `None` from that copy without reloading.
    StaleCopy,
}

const CAP: u8 = 2;
const PUSHES: u8 = 3;

/// A plain store waiting in the producer's buffer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Store {
    Tail(u8),
    /// `(slot, entry)`: entries are numbered from 1.
    Slot(u8, u8),
}

/// Shared memory plus both threads' registers and store buffers. `word[p]`
/// is the ring's bit in page `p`; `binding` is the page the ring is bound
/// to.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct State {
    tail: u8,
    head: u8,
    /// The entry number each slot last received (0: never written).
    slot: [u8; CAP as usize],
    /// Whether each slot holds a landed entry the consumer has not read.
    unread: [bool; CAP as usize],
    word: [bool; 2],
    binding: u8,
    /// A slot store landed on an unread entry, or the consumer read a slot
    /// that did not hold the entry it was popping.
    corrupt: bool,
    /// The producer's buffered stores, oldest first.
    p_buffer: Vec<Store>,
    /// The consumer's buffered head stores, oldest first.
    c_buffer: Vec<u8>,
    // Producer registers.
    p_pc: u8,
    p_pushed: u8,
    p_seen: u8,
    /// The producer's copy of the head.
    p_head: u8,
    /// The third push found the ring full after its reload.
    p_gave_up: bool,
    // Consumer registers.
    c_pc: u8,
    c_polls: u8,
    c_popped: u8,
    c_head: u8,
    /// The consumer's copy of the tail.
    c_tail: u8,
}

impl State {
    /// A producer store reaching memory.
    fn land(&mut self, store: Store) {
        match store {
            Store::Tail(t) => self.tail = t,
            Store::Slot(i, entry) => {
                let i = i as usize;
                self.corrupt |= self.unread[i];
                self.slot[i] = entry;
                self.unread[i] = true;
            }
        }
    }

    /// Producer RMW: its buffer drains first.
    fn drain_producer(&mut self) {
        for store in std::mem::take(&mut self.p_buffer) {
            self.land(store);
        }
    }

    /// Consumer RMW: its buffer drains first.
    fn drain_consumer(&mut self) {
        if let Some(&head) = self.c_buffer.last() {
            self.head = head;
        }
        self.c_buffer.clear();
    }
}

/// Producer program counter values.
mod p {
    pub const CHECK: u8 = 0;
    pub const REFRESH: u8 = 1;
    pub const WRITE: u8 = 2;
    pub const PUBLISH: u8 = 3;
    pub const LOAD_BINDING: u8 = 4;
    pub const PEEK: u8 = 5;
    pub const RING: u8 = 6;
    pub const RECHECK: u8 = 7;
    pub const DONE: u8 = 8;
}

/// Consumer program counter values.
mod c {
    pub const LOAD_TAIL: u8 = 0;
    pub const IDLE_CHECK: u8 = 1;
    pub const TAKE: u8 = 2;
    pub const POP: u8 = 3;
    pub const READ: u8 = 4;
    pub const NEXT: u8 = 5;
    pub const SWAP_BINDING: u8 = 6;
    pub const BIND_CHECK: u8 = 7;
    pub const DONE: u8 = 8;
}

struct Model {
    producer: Producer,
    consumer: Consumer,
    push: Push,
    pop: Pop,
    /// Entries a poll pops at most.
    batch: u8,
}

/// What a walk found.
struct Walk {
    states: usize,
    /// Final states (both threads done, buffers drained) in which an entry
    /// is queued and the bell of the page the ring is bound to is clear —
    /// an entry no later poll would ever find.
    lost: Vec<State>,
    /// States in which a slot was overwritten unread or misread.
    corrupt: Vec<State>,
    /// Whether some schedule had the third push succeed after its reload.
    refreshed_and_pushed: bool,
    /// Whether some schedule had the third push find the ring full.
    found_full: bool,
}

impl Model {
    fn shipped(consumer: Consumer, batch: u8) -> Self {
        Model {
            producer: Producer::Shipped,
            consumer,
            push: Push::Shipped,
            pop: Pop::Shipped,
            batch,
        }
    }

    /// The page the consumer polls: page 1 once it has re-bound.
    fn page(&self, s: &State) -> usize {
        (self.consumer != Consumer::TwoPolls && s.c_polls >= 1) as usize
    }

    /// Where each poll starts.
    fn poll_start(&self) -> u8 {
        match self.pop {
            Pop::Shipped => c::IDLE_CHECK,
            Pop::StaleCopy => c::LOAD_TAIL,
        }
    }

    /// Every state one step away: a producer step, a consumer step, or
    /// either store buffer draining its oldest store.
    fn successors(&self, s: &State) -> Vec<State> {
        let mut out = Vec::new();
        if let Some(&store) = s.p_buffer.first() {
            let mut n = s.clone();
            n.p_buffer.remove(0);
            n.land(store);
            out.push(n);
        }
        if let Some(&head) = s.c_buffer.first() {
            let mut n = s.clone();
            n.c_buffer.remove(0);
            n.head = head;
            out.push(n);
        }
        if let Some(n) = self.producer_step(s) {
            out.push(n);
        }
        if let Some(n) = self.consumer_step(s) {
            out.push(n);
        }
        out
    }

    fn producer_step(&self, s: &State) -> Option<State> {
        let mut n = s.clone();
        // The copy says full: the next slot may still hold an unread entry.
        let copy_full = s.p_pushed - s.p_head == CAP;
        match s.p_pc {
            p::CHECK => {
                n.p_pc = match (copy_full, self.push) {
                    (false, _) | (true, Push::WriteBeforeRefresh) => p::WRITE,
                    (true, Push::Shipped) => p::REFRESH,
                };
            }
            p::REFRESH => {
                // A plain load of the consumer's head.
                if s.p_pushed - s.head == CAP {
                    n.p_gave_up = true;
                    n.p_pc = p::DONE;
                } else {
                    n.p_head = s.head;
                    n.p_pc = match self.push {
                        Push::Shipped => p::WRITE,
                        Push::WriteBeforeRefresh => p::PUBLISH,
                    };
                }
            }
            p::WRITE => {
                n.p_buffer
                    .push(Store::Slot(s.p_pushed % CAP, s.p_pushed + 1));
                n.p_pc = if copy_full {
                    p::REFRESH // only the mutant writes on a full copy
                } else {
                    p::PUBLISH
                };
            }
            p::PUBLISH => {
                n.p_buffer.push(Store::Tail(s.p_pushed + 1));
                n.p_pushed += 1;
                n.p_pc = p::LOAD_BINDING;
            }
            p::LOAD_BINDING => {
                n.p_seen = s.binding;
                n.p_pc = if self.producer == Producer::SkipWhenSet {
                    p::PEEK
                } else {
                    p::RING
                };
            }
            p::PEEK => {
                // A plain load: it does not wait for the buffered tail.
                n.p_pc = if s.word[s.p_seen as usize] {
                    p::RECHECK
                } else {
                    p::RING
                };
            }
            p::RING => {
                n.drain_producer();
                n.word[s.p_seen as usize] = true;
                n.p_pc = p::RECHECK;
            }
            p::RECHECK => {
                if self.producer != Producer::NoRecheck && s.binding != s.p_seen {
                    n.p_seen = s.binding;
                    n.p_pc = p::RING;
                } else if s.p_pushed < PUSHES {
                    n.p_pc = p::CHECK;
                } else {
                    n.p_pc = p::DONE;
                }
            }
            _ => return None,
        }
        Some(n)
    }

    fn consumer_step(&self, s: &State) -> Option<State> {
        let mut n = s.clone();
        let page = self.page(s);
        match s.c_pc {
            c::LOAD_TAIL => {
                n.c_tail = s.tail;
                n.c_pc = c::IDLE_CHECK;
            }
            c::IDLE_CHECK => {
                n.c_pc = if s.word[page] { c::TAKE } else { c::NEXT };
            }
            c::TAKE => {
                n.drain_consumer();
                n.word[page] = false;
                n.c_popped = 0;
                n.c_pc = c::POP;
            }
            c::POP => {
                if s.c_tail != s.c_head {
                    n.c_pc = c::READ;
                } else if self.pop == Pop::StaleCopy || s.tail == s.c_head {
                    n.c_pc = c::NEXT; // saw it empty: the bell stays clear
                } else {
                    n.c_tail = s.tail;
                    n.c_pc = c::READ;
                }
            }
            c::READ => {
                let i = (s.c_head % CAP) as usize;
                n.corrupt |= s.slot[i] != s.c_head + 1;
                n.unread[i] = false;
                n.c_head += 1;
                n.c_buffer.push(n.c_head);
                n.c_popped += 1;
                n.c_pc = c::POP;
                if n.c_popped == self.batch {
                    // A drain that ran its bound cannot tell whether more
                    // is queued, so it keeps the bell: an RMW.
                    n.drain_consumer();
                    n.word[page] = true;
                    n.c_pc = c::NEXT;
                }
            }
            c::NEXT => {
                n.c_polls += 1;
                n.c_pc = match (self.consumer, n.c_polls) {
                    (Consumer::TwoPolls, 1) => self.poll_start(),
                    (Consumer::TwoPolls, _) => c::DONE,
                    (_, 1) => c::SWAP_BINDING,
                    (_, _) => c::DONE,
                };
            }
            c::SWAP_BINDING => {
                // The swap and the no-op RMW on the old word: one step.
                n.drain_consumer();
                n.binding = 1;
                n.c_pc = if self.consumer == Consumer::RebindNoCheck {
                    self.poll_start()
                } else {
                    c::BIND_CHECK
                };
            }
            c::BIND_CHECK => {
                // Reads both indices, as the ring's own `is_empty` does.
                if s.c_head != s.tail {
                    n.drain_consumer();
                    n.word[1] = true;
                }
                n.c_pc = self.poll_start();
            }
            _ => return None,
        }
        Some(n)
    }

    /// Walks every reachable state.
    fn explore(&self) -> Walk {
        let start = State {
            tail: 0,
            head: 0,
            slot: [0; CAP as usize],
            unread: [false; CAP as usize],
            word: [false; 2],
            binding: 0,
            corrupt: false,
            p_buffer: Vec::new(),
            c_buffer: Vec::new(),
            p_pc: p::CHECK,
            p_pushed: 0,
            p_seen: 0,
            p_head: 0,
            p_gave_up: false,
            c_pc: self.poll_start(),
            c_polls: 0,
            c_popped: 0,
            c_head: 0,
            c_tail: 0,
        };
        let mut walk = Walk {
            states: 0,
            lost: Vec::new(),
            corrupt: Vec::new(),
            refreshed_and_pushed: false,
            found_full: false,
        };
        let mut seen = HashSet::new();
        let mut stack = vec![start];
        while let Some(s) = stack.pop() {
            if !seen.insert(s.clone()) {
                continue;
            }
            walk.refreshed_and_pushed |= s.p_pushed == PUSHES;
            walk.found_full |= s.p_gave_up;
            if s.corrupt {
                walk.corrupt.push(s.clone());
            }
            let next = self.successors(&s);
            if next.is_empty() {
                assert_eq!((s.p_pc, s.c_pc), (p::DONE, c::DONE), "deadlock: {s:?}");
                if s.head != s.tail && !s.word[s.binding as usize] {
                    walk.lost.push(s);
                }
            }
            stack.extend(next);
        }
        walk.states = seen.len();
        walk
    }
}

#[test]
fn shipped_protocol_strands_and_overwrites_nothing_in_any_schedule() {
    for consumer in [Consumer::TwoPolls, Consumer::Rebind] {
        for batch in [1, 2] {
            let walk = Model::shipped(consumer, batch).explore();
            assert!(
                walk.states > 100,
                "{consumer:?}/{batch}: the walk must branch"
            );
            assert!(
                walk.lost.is_empty(),
                "{consumer:?}/{batch}: lost doorbell in {:?}",
                walk.lost
            );
            assert!(
                walk.corrupt.is_empty(),
                "{consumer:?}/{batch}: slot overwritten or misread in {:?}",
                walk.corrupt
            );
            // Both answers of the producer's reload are reached: the
            // consumer freed a slot in time, or it had not.
            assert!(
                walk.refreshed_and_pushed && walk.found_full,
                "{consumer:?}/{batch}: the walk must reach both sides of a full copy"
            );
        }
    }
}

#[test]
fn skipping_the_rmw_when_the_bit_looks_set_loses_a_doorbell() {
    // The load of the word overtakes the buffered tail store: the consumer
    // takes the bit, reads the old tail, and nobody rings for the new one.
    let walk = Model {
        producer: Producer::SkipWhenSet,
        ..Model::shipped(Consumer::TwoPolls, 2)
    }
    .explore();
    assert!(
        !walk.lost.is_empty(),
        "the checker must catch the unsound skip"
    );
}

#[test]
fn a_rebind_needs_both_the_recheck_and_the_binders_look() {
    for (producer, consumer) in [
        (Producer::NoRecheck, Consumer::Rebind),
        (Producer::Shipped, Consumer::RebindNoCheck),
    ] {
        let walk = Model {
            producer,
            ..Model::shipped(consumer, 2)
        }
        .explore();
        assert!(
            !walk.lost.is_empty(),
            "{producer:?}/{consumer:?}: dropping a half of the re-bind handshake must lose a bell"
        );
    }
}

#[test]
fn a_pop_that_answers_none_from_a_stale_copy_strands_an_entry() {
    // The copy was loaded before the bell was taken: the producer published
    // and rang in between, the take cleared that bell, and the drain saw
    // "empty" without looking at the tail again.
    let walk = Model {
        pop: Pop::StaleCopy,
        ..Model::shipped(Consumer::TwoPolls, 2)
    }
    .explore();
    assert!(
        !walk.lost.is_empty(),
        "the checker must catch a None given from a stale copy"
    );
}

#[test]
fn a_push_that_writes_before_refreshing_a_full_copy_overwrites_an_unread_slot() {
    let walk = Model {
        push: Push::WriteBeforeRefresh,
        ..Model::shipped(Consumer::TwoPolls, 2)
    }
    .explore();
    assert!(
        !walk.corrupt.is_empty(),
        "the checker must catch a slot written before the reload"
    );
}

// ---------------------------------------------------------------------------
// The real rings
// ---------------------------------------------------------------------------

const DEADLINE: Duration = Duration::from_secs(120);

fn entry(ring: usize, seq: u64) -> SubmissionEntry {
    SubmissionEntry::read(ring as u32, seq, 1, 0, 0)
}

/// Pops at most `bound` entries, checking each is the ring's next in
/// order; true when the bound was hit (the ring may hold more).
fn drain(cons: &SqConsumer, ring: usize, next: &mut u64, bound: usize) -> bool {
    for _ in 0..bound {
        let Some((e, _)) = cons.pop() else {
            return false;
        };
        assert_eq!(
            (e.nsid as usize, e.slba()),
            (ring, *next),
            "out of order or duplicated"
        );
        *next += 1;
    }
    true
}

#[test]
fn four_producers_sixty_four_rings_every_entry_seen_exactly_once() {
    const RINGS: usize = 64;
    const PRODUCERS: usize = 4;
    const PER_RING: u64 = 16_384; // 64 × 16384 = 2^20 pushes
    let mut page = BellPage::new();
    let mut producers: Vec<Vec<_>> = (0..PRODUCERS).map(|_| Vec::new()).collect();
    let mut consumers = Vec::new();
    for ring in 0..RINGS {
        let (prod, cons) = SqPair::new(32);
        cons.bind_bell(&page.bell(ring));
        producers[ring % PRODUCERS].push((ring, prod));
        consumers.push(cons);
    }
    std::thread::scope(|scope| {
        for rings in producers {
            scope.spawn(move || {
                for seq in 0..PER_RING {
                    for (ring, prod) in &rings {
                        while prod.push(entry(*ring, seq)).is_err() {
                            std::thread::yield_now();
                        }
                    }
                }
            });
        }
        // The consumer never reads a ring index unless the page says so.
        let started = Instant::now();
        let mut next = [0u64; RINGS];
        let mut seen = 0u64;
        while seen < RINGS as u64 * PER_RING {
            assert!(
                started.elapsed() < DEADLINE,
                "lost doorbell: {seen} entries seen, the rest never rang"
            );
            let mut bits = page.take(0);
            if bits == 0 {
                std::thread::yield_now();
            }
            while bits != 0 {
                let ring = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let before = next[ring];
                if drain(&consumers[ring], ring, &mut next[ring], 8) {
                    page.ring(ring);
                }
                seen += next[ring] - before;
            }
        }
        assert_eq!(next, [PER_RING; RINGS]);
    });
    // Bells may outlast their entries (a drain that ran its bound, a ring
    // that landed after the pop); entries never outlast their bell.
    assert!(consumers.iter().all(|c| c.is_empty()));
}

#[test]
fn a_ring_rebound_under_a_running_producer_strands_nothing() {
    const N: u64 = 200_000;
    let mut pages = [BellPage::new(), BellPage::new()];
    let bells = [pages[0].bell(3), pages[1].bell(5)];
    let (prod, cons) = SqPair::new(64);
    cons.bind_bell(&bells[0]);
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for seq in 0..N {
                while prod.push(entry(0, seq)).is_err() {
                    std::thread::yield_now();
                }
            }
        });
        let started = Instant::now();
        let mut next = 0u64;
        let mut bound_to = 0;
        let mut polls = 0u64;
        while next < N {
            assert!(
                started.elapsed() < DEADLINE,
                "lost doorbell across a re-bind: stuck at {next}"
            );
            // Every so often the ring moves to the other page; from then
            // on only that page is looked at.
            polls += 1;
            if polls.is_multiple_of(64) {
                bound_to ^= 1;
                cons.bind_bell(&bells[bound_to]);
            }
            if pages[bound_to].take(0) == 0 {
                std::thread::yield_now();
                continue;
            }
            if drain(&cons, 0, &mut next, 16) {
                pages[bound_to].ring([3, 5][bound_to]);
            }
        }
    });
    assert!(cons.is_empty());
}
