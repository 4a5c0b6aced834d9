//! The benchmark's own guest: one actor driving every guest queue of a
//! rig from `--seed`, closed loop or open loop, with the correctness
//! ledger built in. It does not reuse `nvmetro-workloads`, so a change to
//! that crate cannot change the load the benchmark offers.
//!
//! Correctness: every submission occupies one CID slot; a CQE for a slot
//! that is not in flight is a duplicate, a slot still in flight at the end
//! is a missing completion, an error status is a failure, and where data
//! moves every read is compared with the pattern the ledger expects.

use crate::rng::{derive, Rng};
use nvmetro_mem::{build_prps, GuestMemory, PAGE_SIZE};
use nvmetro_nvme::{CqConsumer, SqProducer, SubmissionEntry, LBA_SIZE};
use nvmetro_sim::{Actor, Ns, Progress, SEC};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// LBAs per 4 KiB.
pub const LBAS_4K: u32 = (PAGE_SIZE / LBA_SIZE) as u32;

/// Open-loop load shape: Zipf rate split over tenants, bounded-Pareto gaps.
#[derive(Clone, Copy, Debug)]
pub struct OpenLoop {
    /// Offered rate over all tenants, per virtual second.
    pub total_iops: f64,
    pub zipf_theta: f64,
    pub pareto_alpha: f64,
    /// Outstanding requests a tenant may have; an arrival past it is
    /// refused and counts as failed.
    pub cap: usize,
    /// 4 KiB slots every tenant shares.
    pub hot_slots: u64,
    /// 4 KiB slots private to each tenant.
    pub private_slots: u64,
    /// Share of reads that go to the shared hot set.
    pub hot_share: f64,
}

#[derive(Clone, Copy, Debug)]
pub enum Pacing {
    /// Each queue keeps `qd` requests in flight.
    Closed {
        qd: usize,
    },
    Open(OpenLoop),
}

#[derive(Clone, Debug)]
pub struct GuestCfg {
    pub seed: u64,
    /// LBAs per request.
    pub nlb: u32,
    pub write_share: f64,
    /// Closed loop: request-sized blocks in the addressed span.
    pub blocks: u64,
    pub pacing: Pacing,
}

/// Why requests did not end in exactly one good completion.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Fails {
    pub error_status: u64,
    pub duplicate: u64,
    pub missing: u64,
    pub mismatch: u64,
    pub refused: u64,
}

impl Fails {
    pub fn total(&self) -> u64 {
        self.error_status + self.duplicate + self.missing + self.mismatch + self.refused
    }
}

/// Simulated-time results of a section; deterministic for a seed.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Virt {
    /// Requests completed per simulated millisecond.
    pub kiops: f64,
    /// Completion latency (open loop: from the due time), mean.
    pub mean_us: f64,
    /// Mean latency of the slowest 1% of the requests.
    pub tail1_us: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    /// Hash over every latency and the simulated duration.
    pub fingerprint: u64,
}

impl Virt {
    /// `latencies` in simulated ns, in completion order; reordered.
    fn of(latencies: &mut [u64], virt_ns: Ns) -> Virt {
        let mut fingerprint = 0xcbf2_9ce4_8422_2325u64 ^ virt_ns;
        for &l in latencies.iter() {
            fingerprint = (fingerprint ^ l).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let n = latencies.len();
        if n == 0 {
            return Virt {
                fingerprint,
                ..Default::default()
            };
        }
        let us = |ns: f64| ns / 1e3;
        let mean_us = us(latencies.iter().sum::<u64>() as f64 / n as f64);
        // Nearest-rank percentiles by selection: no full sort of a million
        // samples between rounds. Selecting rank p99 also partitions the
        // slowest 1% behind it.
        let rank = |p: f64| ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
        let p50_us = us(*latencies.select_nth_unstable(rank(0.50)).1 as f64);
        let (_, p99, above) = latencies.select_nth_unstable(rank(0.99));
        Virt {
            kiops: n as f64 / virt_ns.max(1) as f64 * 1e6,
            mean_us,
            tail1_us: us((*p99 + above.iter().sum::<u64>()) as f64 / (above.len() + 1) as f64),
            p50_us,
            p99_us: us(*p99 as f64),
            fingerprint,
        }
    }
}

/// What one armed section of a run produced.
#[derive(Clone, Debug, Default)]
pub struct Section {
    pub attempted: u64,
    pub submitted: u64,
    pub completed: u64,
    pub fails: Fails,
    /// Wall time from the first SQ push to the last VCQ pop.
    pub wall_ns: u64,
    pub virt: Virt,
    /// Payload bytes of completed requests.
    pub bytes: u64,
}

/// One latency buffer for the whole process: a guest borrows it when it is
/// built and hands it back when it is dropped. A round of a million
/// requests needs 8 MB of samples; allocating and freeing that every round
/// leaves the allocator in one of two states from run to run, and
/// `peak_rss_mib` with it.
static LATENCY_POOL: Mutex<Vec<u64>> = Mutex::new(Vec::new());

struct Buf {
    gpa: u64,
    prp1: u64,
    prp2: u64,
}

#[derive(Default)]
struct Slot {
    in_flight: bool,
    write: bool,
    due: Ns,
    block: u64,
    version: u32,
}

struct Queue {
    sq: SqProducer,
    cq: CqConsumer,
    slots: Vec<Slot>,
    free: Vec<u16>,
    bufs: Vec<Buf>,
    outstanding: usize,
    /// Open loop only.
    tenant: Option<Tenant>,
}

struct Tenant {
    ops: Rng,
    gaps: Rng,
    pareto_xm: f64,
    pareto_cap: f64,
    next_due: Ns,
    private_base: u64,
    listed: bool,
}

/// Expected contents of the data set, for the workloads that move bytes.
pub struct DataPlan {
    mem: Arc<GuestMemory>,
    seed: u64,
    filler: Box<[u8; PAGE_SIZE]>,
    versions: Vec<u32>,
    busy: Vec<bool>,
    pages_per_block: usize,
}

impl DataPlan {
    pub fn new(mem: Arc<GuestMemory>, seed: u64, blocks: u64, nlb: u32) -> Self {
        assert_eq!(nlb % LBAS_4K, 0, "data workloads move whole pages");
        let mut rng = Rng::new(derive(seed, 0xF111));
        let mut filler = Box::new([0u8; PAGE_SIZE]);
        for chunk in filler.chunks_exact_mut(8) {
            chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
        }
        DataPlan {
            mem,
            seed,
            filler,
            versions: vec![0; blocks as usize],
            busy: vec![false; blocks as usize],
            pages_per_block: (nlb / LBAS_4K) as usize,
        }
    }

    pub fn blocks(&self) -> u64 {
        self.versions.len() as u64
    }

    pub fn block_bytes(&self) -> usize {
        self.pages_per_block * PAGE_SIZE
    }

    pub fn version(&self, block: u64) -> u32 {
        self.versions[block as usize]
    }

    /// Page `page` of `block` at `version`: seeded filler with a tag at
    /// the head of every sector naming the sector and the version, so a
    /// misplaced, stale or torn sector cannot compare equal.
    pub fn expected_page(&self, block: u64, version: u32, page: usize, out: &mut [u8; PAGE_SIZE]) {
        out.copy_from_slice(&self.filler[..]);
        let first_lba = (block * self.pages_per_block as u64 + page as u64) * LBAS_4K as u64;
        for s in 0..LBAS_4K as u64 {
            let mut tag = self.seed ^ (first_lba + s).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            tag = (tag ^ (version as u64) << 40).rotate_left(29) ^ 0xA5A5_5A5A_C3C3_3C3C;
            let at = s as usize * LBA_SIZE;
            out[at..at + 8].copy_from_slice(&tag.to_le_bytes());
        }
    }

    /// The whole block at its current version.
    pub fn expected_block(&self, block: u64) -> Vec<u8> {
        let mut out = vec![0u8; self.block_bytes()];
        let mut page = [0u8; PAGE_SIZE];
        for p in 0..self.pages_per_block {
            self.expected_page(block, self.version(block), p, &mut page);
            out[p * PAGE_SIZE..(p + 1) * PAGE_SIZE].copy_from_slice(&page);
        }
        out
    }

    fn fill(&self, buf: &Buf, block: u64, version: u32) {
        let mut page = [0u8; PAGE_SIZE];
        for p in 0..self.pages_per_block {
            self.expected_page(block, version, p, &mut page);
            self.mem.write(buf.gpa + (p * PAGE_SIZE) as u64, &page);
        }
    }

    /// Overwrites the head of every page, so a read that moved nothing
    /// cannot pass on what the buffer held before.
    fn poison(&self, buf: &Buf) {
        for p in 0..self.pages_per_block {
            self.mem.write(buf.gpa + (p * PAGE_SIZE) as u64, &[0xDB; 8]);
        }
    }

    fn verify(&self, buf: &Buf, block: u64, version: u32) -> bool {
        let mut want = [0u8; PAGE_SIZE];
        let mut got = [0u8; PAGE_SIZE];
        (0..self.pages_per_block).all(|p| {
            self.expected_page(block, version, p, &mut want);
            self.mem.read(buf.gpa + (p * PAGE_SIZE) as u64, &mut got);
            want == got
        })
    }
}

/// The guest actor. See the module docs.
pub struct Guest {
    cfg: GuestCfg,
    queues: Vec<Queue>,
    rng: Rng,
    data: Option<DataPlan>,
    /// Open loop: next arrival per tenant, and tenants with completions due.
    arrivals: BinaryHeap<Reverse<(Ns, u32)>>,
    reap_list: Vec<u32>,
    /// Sequential write of every block (set-up of the encrypted data set).
    prefill_cursor: Option<u64>,
    target: u64,
    out: Section,
    /// Completion latencies of the section, in simulated ns.
    latencies: Vec<u64>,
    first_push: Option<(Instant, Ns)>,
    last_pop: Option<(Instant, Ns)>,
}

impl Guest {
    /// `ends` are the guest-side ends of every queue pair, in tenant order.
    /// With `data`, every CID slot gets its own buffer and real PRP list.
    pub fn new(cfg: GuestCfg, ends: Vec<(SqProducer, CqConsumer)>, data: Option<DataPlan>) -> Self {
        let depth = match &cfg.pacing {
            Pacing::Closed { qd } => *qd,
            Pacing::Open(o) => o.cap,
        };
        let weights = match &cfg.pacing {
            Pacing::Open(o) => zipf_shares(ends.len(), o.zipf_theta, cfg.seed),
            Pacing::Closed { .. } => Vec::new(),
        };
        let bytes = cfg.nlb as usize * LBA_SIZE;
        let queues = ends
            .into_iter()
            .enumerate()
            .map(|(i, (sq, cq))| {
                assert!(sq.capacity() >= depth, "guest SQ shallower than the depth");
                let bufs = match &data {
                    Some(plan) => (0..depth)
                        .map(|_| {
                            let gpa = plan.mem.alloc(bytes);
                            let (prp1, prp2) = build_prps(&plan.mem, gpa, bytes);
                            Buf { gpa, prp1, prp2 }
                        })
                        .collect(),
                    None => Vec::new(),
                };
                let tenant = match &cfg.pacing {
                    Pacing::Open(o) => {
                        // Tail tenants still send a little.
                        let rate = (o.total_iops * weights[i]).max(50.0);
                        let mean = SEC as f64 / rate;
                        Some(Tenant {
                            ops: Rng::new(derive(cfg.seed, 0x1000 + i as u64)),
                            gaps: Rng::new(derive(cfg.seed, 0x2000_0000 + i as u64)),
                            pareto_xm: mean * (o.pareto_alpha - 1.0) / o.pareto_alpha,
                            pareto_cap: mean * 50.0,
                            next_due: 0,
                            private_base: o.hot_slots + i as u64 * o.private_slots,
                            listed: false,
                        })
                    }
                    Pacing::Closed { .. } => None,
                };
                Queue {
                    sq,
                    cq,
                    slots: (0..depth).map(|_| Slot::default()).collect(),
                    free: (0..depth as u16).rev().collect(),
                    bufs,
                    outstanding: 0,
                    tenant,
                }
            })
            .collect();
        Guest {
            rng: Rng::new(derive(cfg.seed, 1)),
            cfg,
            queues,
            data,
            arrivals: BinaryHeap::new(),
            reap_list: Vec::new(),
            prefill_cursor: None,
            target: 0,
            out: Section::default(),
            latencies: std::mem::take(&mut *LATENCY_POOL.lock().expect("no holder panicked")),
            first_push: None,
            last_pop: None,
        }
    }

    pub fn data(&self) -> Option<&DataPlan> {
        self.data.as_ref()
    }

    /// Arms a section of `n` requests starting at virtual time `now`.
    pub fn arm(&mut self, n: u64, now: Ns) {
        assert!(self.idle(), "previous section still in flight");
        self.target = n;
        self.latencies.clear();
        self.latencies.reserve(n as usize);
        self.out = Section::default();
        self.first_push = None;
        self.last_pop = None;
        self.prefill_cursor = None;
        if let Pacing::Open(o) = &self.cfg.pacing {
            let alpha = o.pareto_alpha;
            self.arrivals.clear();
            for (i, q) in self.queues.iter_mut().enumerate() {
                let t = q.tenant.as_mut().expect("open loop");
                // The first arrival is one gap in, which also spreads the
                // tenants out.
                t.next_due = now + pareto_gap(t, alpha);
                self.arrivals.push(Reverse((t.next_due, i as u32)));
            }
        }
    }

    /// Arms one write of every block in order (closed loop, data only).
    pub fn arm_prefill(&mut self, now: Ns) {
        let blocks = self
            .data
            .as_ref()
            .expect("prefill needs a data plan")
            .blocks();
        self.arm(blocks, now);
        self.prefill_cursor = Some(0);
    }

    fn idle(&self) -> bool {
        self.queues.iter().all(|q| q.outstanding == 0)
    }

    /// True once every request of the section was attempted and answered.
    pub fn done(&self) -> bool {
        self.out.attempted == self.target && self.out.completed == self.out.submitted
    }

    /// Closes the section's books: slots still in flight are missing
    /// completions.
    pub fn finish(&mut self) -> Section {
        let mut out = std::mem::take(&mut self.out);
        out.fails.missing += self
            .queues
            .iter()
            .flat_map(|q| &q.slots)
            .filter(|s| s.in_flight)
            .count() as u64;
        let mut virt_ns = 0;
        if let (Some((w0, v0)), Some((w1, v1))) = (self.first_push, self.last_pop) {
            out.wall_ns = w1.duration_since(w0).as_nanos() as u64;
            virt_ns = v1 - v0;
        }
        out.virt = Virt::of(&mut self.latencies, virt_ns);
        out
    }

    fn reap(&mut self, qi: usize, now: Ns) -> bool {
        let mut any = false;
        while let Some(cqe) = self.queues[qi].cq.pop() {
            any = true;
            let q = &mut self.queues[qi];
            let cid = cqe.cid as usize;
            if cid >= q.slots.len() || !q.slots[cid].in_flight {
                self.out.fails.duplicate += 1;
                continue;
            }
            let slot = &mut q.slots[cid];
            slot.in_flight = false;
            q.outstanding -= 1;
            q.free.push(cid as u16);
            let ok = !cqe.status().is_error();
            if !ok {
                self.out.fails.error_status += 1;
            }
            if let Some(plan) = &mut self.data {
                plan.busy[slot.block as usize] = false;
                if ok && slot.write {
                    plan.versions[slot.block as usize] = slot.version;
                } else if ok && !plan.verify(&q.bufs[cid], slot.block, slot.version) {
                    self.out.fails.mismatch += 1;
                }
            }
            self.out.completed += 1;
            self.out.bytes += self.cfg.nlb as u64 * LBA_SIZE as u64;
            self.latencies.push(now - slot.due);
            if self.done() {
                self.last_pop = Some((Instant::now(), now));
            }
        }
        any
    }

    /// Pushes one request on queue `qi`, due at `due`. The caller has
    /// checked that a slot is free.
    fn submit(&mut self, qi: usize, write: bool, block: u64, due: Ns) {
        let nlb = self.cfg.nlb;
        let q = &mut self.queues[qi];
        let cid = q.free.pop().expect("caller checked for a free slot");
        let (prp1, prp2, version) = match &mut self.data {
            Some(plan) => {
                let buf = &q.bufs[cid as usize];
                plan.busy[block as usize] = true;
                let version = plan.versions[block as usize] + write as u32;
                if write {
                    plan.fill(buf, block, version);
                } else {
                    plan.poison(buf);
                }
                (buf.prp1, buf.prp2, version)
            }
            // No bytes move: every command points at one dummy page.
            None => (0x1000, 0, 0),
        };
        let slba = block * nlb as u64;
        let mut cmd = if write {
            SubmissionEntry::write(1, slba, nlb, prp1, prp2)
        } else {
            SubmissionEntry::read(1, slba, nlb, prp1, prp2)
        };
        cmd.cid = cid;
        if self.first_push.is_none() {
            self.first_push = Some((Instant::now(), due));
        }
        q.sq.push(cmd).expect("SQ is at least as deep as the slots");
        q.slots[cid as usize] = Slot {
            in_flight: true,
            write,
            due,
            block,
            version,
        };
        q.outstanding += 1;
        self.out.submitted += 1;
    }

    /// Closed loop: the next operation of the seeded stream.
    fn pick_closed(&mut self) -> (bool, u64) {
        if let Some(cursor) = &mut self.prefill_cursor {
            *cursor += 1;
            return (true, *cursor - 1);
        }
        let write = self.cfg.write_share > 0.0 && self.rng.chance(self.cfg.write_share);
        let mut block = self.rng.below(self.cfg.blocks);
        if let Some(plan) = &self.data {
            // A block with a request in flight has no single expected
            // content; draw again (rare: blocks far outnumber the depth).
            while plan.busy[block as usize] {
                block = self.rng.below(self.cfg.blocks);
            }
        }
        (write, block)
    }

    fn poll_closed(&mut self, now: Ns) -> bool {
        let mut any = false;
        for qi in 0..self.queues.len() {
            any |= self.reap(qi, now);
            while self.out.attempted < self.target && !self.queues[qi].free.is_empty() {
                let (write, block) = self.pick_closed();
                self.out.attempted += 1;
                self.submit(qi, write, block, now);
                any = true;
            }
        }
        any
    }

    fn poll_open(&mut self, now: Ns, o: &OpenLoop) -> bool {
        let mut any = false;
        let mut i = 0;
        while i < self.reap_list.len() {
            let qi = self.reap_list[i] as usize;
            any |= self.reap(qi, now);
            if self.queues[qi].outstanding == 0 {
                self.queues[qi].tenant.as_mut().expect("open loop").listed = false;
                self.reap_list.swap_remove(i);
            } else {
                i += 1;
            }
        }
        while self.out.attempted < self.target {
            let Some(&Reverse((due, qi))) = self.arrivals.peek() else {
                break;
            };
            if due > now {
                break;
            }
            self.arrivals.pop();
            let qi = qi as usize;
            self.out.attempted += 1;
            any = true;
            let t = self.queues[qi].tenant.as_mut().expect("open loop");
            let write = t.ops.chance(self.cfg.write_share);
            let slot = if !write && t.ops.chance(o.hot_share) {
                t.ops.below(o.hot_slots)
            } else {
                t.private_base + t.ops.below(o.private_slots)
            };
            t.next_due = due + pareto_gap(t, o.pareto_alpha);
            let next = t.next_due;
            if self.queues[qi].free.is_empty() {
                self.out.fails.refused += 1;
            } else {
                self.submit(qi, write, slot, due);
                let t = self.queues[qi].tenant.as_mut().expect("open loop");
                if !t.listed {
                    t.listed = true;
                    self.reap_list.push(qi as u32);
                }
            }
            self.arrivals.push(Reverse((next, qi as u32)));
        }
        any
    }
}

impl Drop for Guest {
    fn drop(&mut self) {
        *LATENCY_POOL.lock().expect("no holder panicked") = std::mem::take(&mut self.latencies);
    }
}

fn pareto_gap(t: &mut Tenant, alpha: f64) -> Ns {
    let u = 1.0 - t.gaps.f64();
    ((t.pareto_xm * u.powf(-1.0 / alpha)).min(t.pareto_cap) as Ns).max(1)
}

/// Zipf(θ) shares of the offered rate, dealt to tenants in a seeded order
/// so the heavy tenants are not always the first queues.
fn zipf_shares(n: usize, theta: f64, seed: u64) -> Vec<f64> {
    let mut w: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(theta)).collect();
    let sum: f64 = w.iter().sum();
    w.iter_mut().for_each(|x| *x /= sum);
    let mut rng = Rng::new(derive(seed, 0x21bf));
    for i in (1..n).rev() {
        w.swap(i, rng.below(i as u64 + 1) as usize);
    }
    w
}

impl Actor for Guest {
    fn name(&self) -> &str {
        "bench-guest"
    }

    fn poll(&mut self, now: Ns) -> Progress {
        let any = match self.cfg.pacing {
            Pacing::Closed { .. } => self.poll_closed(now),
            Pacing::Open(o) => self.poll_open(now, &o),
        };
        if any {
            Progress::Busy
        } else {
            Progress::Idle
        }
    }

    fn next_event(&self) -> Option<Ns> {
        if self.out.attempted == self.target {
            return None;
        }
        self.arrivals.peek().map(|&Reverse((due, _))| due)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmetro_nvme::{CompletionEntry, CqPair, SqPair, Status};

    fn closed(
        qd: usize,
        data: bool,
    ) -> (Guest, nvmetro_nvme::SqConsumer, nvmetro_nvme::CqProducer) {
        let (sq_p, sq_c) = SqPair::new(64);
        let (cq_p, cq_c) = CqPair::new(64);
        let cfg = GuestCfg {
            seed: 9,
            nlb: 8,
            write_share: 0.5,
            blocks: 128,
            pacing: Pacing::Closed { qd },
        };
        let plan = data.then(|| DataPlan::new(Arc::new(GuestMemory::new(1 << 22)), 9, 128, 8));
        (Guest::new(cfg, vec![(sq_p, cq_c)], plan), sq_c, cq_p)
    }

    #[test]
    fn ledger_counts_duplicates_errors_and_missing() {
        let (mut g, sq, cq) = closed(4, false);
        g.arm(6, 0);
        g.poll(0);
        let cids: Vec<u16> = std::iter::from_fn(|| sq.pop().map(|(c, _)| c.cid)).collect();
        assert_eq!(cids.len(), 4);
        cq.push(CompletionEntry::new(cids[0], Status::SUCCESS))
            .unwrap();
        cq.push(CompletionEntry::new(cids[0], Status::SUCCESS))
            .unwrap();
        cq.push(CompletionEntry::new(cids[1], Status::INTERNAL))
            .unwrap();
        g.poll(1_000);
        let s = g.finish();
        assert_eq!((s.attempted, s.completed), (6, 2));
        assert_eq!(s.fails.duplicate, 1);
        assert_eq!(s.fails.error_status, 1);
        // Two of the first four never answered, and the two refills neither.
        assert_eq!(s.fails.missing, 4);
        assert_eq!((s.virt.mean_us, s.virt.p99_us), (1.0, 1.0));
    }

    #[test]
    fn reads_of_unmoved_data_are_mismatches() {
        let (mut g, sq, cq) = closed(1, true);
        g.cfg.write_share = 0.0;
        g.arm(1, 0);
        g.poll(0);
        let (cmd, _) = sq.pop().unwrap();
        // Success without the device having written the buffer.
        cq.push(CompletionEntry::new(cmd.cid, Status::SUCCESS))
            .unwrap();
        g.poll(10);
        assert!(g.done());
        assert_eq!(g.finish().fails.mismatch, 1);
    }

    #[test]
    fn open_loop_refuses_past_the_cap_and_is_seeded() {
        let build = |seed| {
            let mut ends = Vec::new();
            let mut keep = Vec::new();
            for _ in 0..4 {
                let (sq_p, sq_c) = SqPair::new(8);
                let (cq_p, cq_c) = CqPair::new(8);
                ends.push((sq_p, cq_c));
                keep.push((sq_c, cq_p));
            }
            let cfg = GuestCfg {
                seed,
                nlb: 8,
                write_share: 0.1,
                blocks: 0,
                pacing: Pacing::Open(OpenLoop {
                    total_iops: 1e6,
                    zipf_theta: 1.1,
                    pareto_alpha: 1.5,
                    cap: 2,
                    hot_slots: 4,
                    private_slots: 4,
                    hot_share: 0.5,
                }),
            };
            (Guest::new(cfg, ends, None), keep)
        };
        let run = |seed| {
            let (mut g, keep) = build(seed);
            g.arm(50, 0);
            // Nothing ever completes, so all but cap x tenants are refused.
            while let Some(t) = g.next_event() {
                g.poll(t);
            }
            let lbas: Vec<u64> = keep
                .iter()
                .flat_map(|(sq, _)| std::iter::from_fn(|| sq.pop().map(|(c, _)| c.slba())))
                .collect();
            (g.finish(), lbas)
        };
        let (a, la) = run(5);
        let (b, lb) = run(5);
        let (_, lc) = run(6);
        assert_eq!(a.attempted, 50);
        assert_eq!(a.submitted, 8);
        assert_eq!(a.fails.refused, 42);
        assert_eq!(a.fails.missing, 8);
        assert_eq!((a.fails, &la), (b.fails, &lb));
        assert_ne!(la, lc);
    }
}
