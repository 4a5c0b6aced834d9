//! No lost doorbell, checked two ways (the protocol is laid out in the
//! `queue` module docs).
//!
//! 1. An exhaustive walk of a small model: one producer making two pushes
//!    against a consumer making two polls (batch bound one or two),
//!    optionally re-binding the ring to a second page in between, under
//!    x86-TSO rules — plain stores sit
//!    in a per-thread store buffer until a nondeterministic flush, loads
//!    read the own buffer first, RMWs drain the buffer and act on memory.
//!    Plain interleaving (sequential consistency) would not do: the reason
//!    the producer may not skip its RMW when the bit "looks set" is a load
//!    overtaking an earlier store, which only a store buffer shows. The
//!    walk proves the shipped protocol never strands an entry without its
//!    bell, and that each of three tempting shortcuts does.
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

/// Which producer the model runs.
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

const PUSHES: u8 = 2;

/// Shared memory plus both threads' registers. `word[p]` is the ring's
/// bit in page `p`; `binding` is the page the ring is bound to.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct State {
    tail: u8,
    head: u8,
    word: [bool; 2],
    binding: u8,
    /// The producer's buffered tail store, if not yet flushed.
    buffered_tail: Option<u8>,
    // Producer registers.
    p_pc: u8,
    p_pushed: u8,
    p_seen: u8,
    // Consumer registers.
    c_pc: u8,
    c_polls: u8,
    c_popped: u8,
}

/// Producer program counter values.
mod p {
    pub const PUBLISH: u8 = 0;
    pub const LOAD_BINDING: u8 = 1;
    pub const PEEK: u8 = 2;
    pub const RING: u8 = 3;
    pub const RECHECK: u8 = 4;
    pub const DONE: u8 = 5;
}

/// Consumer program counter values.
mod c {
    pub const IDLE_CHECK: u8 = 0;
    pub const TAKE: u8 = 1;
    pub const DRAIN: u8 = 2;
    pub const NEXT: u8 = 3;
    pub const SWAP_BINDING: u8 = 4;
    pub const BIND_CHECK: u8 = 5;
    pub const DONE: u8 = 6;
}

struct Model {
    producer: Producer,
    consumer: Consumer,
    /// Entries a poll pops at most.
    batch: u8,
}

impl Model {
    /// The page the consumer polls: page 1 once it has re-bound.
    fn page(&self, s: &State) -> usize {
        (self.consumer != Consumer::TwoPolls && s.c_polls >= 1) as usize
    }

    /// Every state one step away: a producer step, a consumer step, or the
    /// producer's store buffer draining.
    fn successors(&self, s: &State) -> Vec<State> {
        let mut out = Vec::new();
        if let Some(t) = s.buffered_tail {
            let mut n = s.clone();
            n.tail = t;
            n.buffered_tail = None;
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
        match s.p_pc {
            p::PUBLISH => {
                // A second store to the same location replaces the first
                // in the buffer: it would reach memory in order anyway.
                n.buffered_tail = Some(s.p_pushed + 1);
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
                // RMW: the store buffer drains first.
                if let Some(t) = n.buffered_tail.take() {
                    n.tail = t;
                }
                n.word[s.p_seen as usize] = true;
                n.p_pc = p::RECHECK;
            }
            p::RECHECK => {
                if self.producer != Producer::NoRecheck && s.binding != s.p_seen {
                    n.p_seen = s.binding;
                    n.p_pc = p::RING;
                } else if s.p_pushed < PUSHES {
                    n.p_pc = p::PUBLISH;
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
            c::IDLE_CHECK => {
                n.c_pc = if s.word[page] { c::TAKE } else { c::NEXT };
            }
            c::TAKE => {
                n.word[page] = false;
                n.c_popped = 0;
                n.c_pc = c::DRAIN;
            }
            c::DRAIN => {
                if s.head == s.tail {
                    n.c_pc = c::NEXT; // saw it empty: the bell stays clear
                } else {
                    n.head += 1;
                    n.c_popped += 1;
                    if n.c_popped == self.batch {
                        // A drain that ran its bound cannot tell whether
                        // more is queued, so it keeps the bell.
                        n.word[page] = true;
                        n.c_pc = c::NEXT;
                    }
                }
            }
            c::NEXT => {
                n.c_polls += 1;
                n.c_pc = match (self.consumer, n.c_polls) {
                    (Consumer::TwoPolls, 1) => c::IDLE_CHECK,
                    (Consumer::TwoPolls, _) => c::DONE,
                    (_, 1) => c::SWAP_BINDING,
                    (_, _) => c::DONE,
                };
            }
            c::SWAP_BINDING => {
                // The swap and the no-op RMW on the old word: the consumer
                // buffers no stores in this model, so one step.
                n.binding = 1;
                n.c_pc = if self.consumer == Consumer::RebindNoCheck {
                    c::IDLE_CHECK
                } else {
                    c::BIND_CHECK
                };
            }
            c::BIND_CHECK => {
                if s.head != s.tail {
                    n.word[1] = true;
                }
                n.c_pc = c::IDLE_CHECK;
            }
            _ => return None,
        }
        Some(n)
    }

    /// Walks every reachable state; returns how many there were and the
    /// final states (both threads done, buffer drained) in which an entry
    /// is queued and the bell of the page the ring is bound to is clear —
    /// an entry no later poll would ever find.
    fn explore(&self) -> (usize, Vec<State>) {
        let start = State {
            tail: 0,
            head: 0,
            word: [false; 2],
            binding: 0,
            buffered_tail: None,
            p_pc: p::PUBLISH,
            p_pushed: 0,
            p_seen: 0,
            c_pc: c::IDLE_CHECK,
            c_polls: 0,
            c_popped: 0,
        };
        let mut seen = HashSet::new();
        let mut stack = vec![start];
        let mut lost = Vec::new();
        while let Some(s) = stack.pop() {
            if !seen.insert(s.clone()) {
                continue;
            }
            let next = self.successors(&s);
            if next.is_empty() {
                assert_eq!((s.p_pc, s.c_pc), (p::DONE, c::DONE), "deadlock: {s:?}");
                if s.head != s.tail && !s.word[s.binding as usize] {
                    lost.push(s);
                }
            }
            stack.extend(next);
        }
        (seen.len(), lost)
    }
}

#[test]
fn shipped_protocol_loses_no_doorbell_in_any_schedule() {
    for consumer in [Consumer::TwoPolls, Consumer::Rebind] {
        for batch in [1, 2] {
            let (states, lost) = Model {
                producer: Producer::Shipped,
                consumer,
                batch,
            }
            .explore();
            assert!(states > 100, "{consumer:?}/{batch}: the walk must branch");
            assert!(
                lost.is_empty(),
                "{consumer:?}/{batch}: lost doorbell in {lost:?}"
            );
        }
    }
}

#[test]
fn skipping_the_rmw_when_the_bit_looks_set_loses_a_doorbell() {
    // The load of the word overtakes the buffered tail store: the consumer
    // takes the bit, reads the old tail, and nobody rings for the new one.
    let (_, lost) = Model {
        producer: Producer::SkipWhenSet,
        consumer: Consumer::TwoPolls,
        batch: 2,
    }
    .explore();
    assert!(!lost.is_empty(), "the checker must catch the unsound skip");
}

#[test]
fn a_rebind_needs_both_the_recheck_and_the_binders_look() {
    for (producer, consumer) in [
        (Producer::NoRecheck, Consumer::Rebind),
        (Producer::Shipped, Consumer::RebindNoCheck),
    ] {
        let (_, lost) = Model {
            producer,
            consumer,
            batch: 2,
        }
        .explore();
        assert!(
            !lost.is_empty(),
            "{producer:?}/{consumer:?}: dropping a half of the re-bind handshake must lose a bell"
        );
    }
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
