//! Property-based tests over the core data structures and invariants.
//!
//! Each property is exercised over many seeded-random cases drawn from
//! [`SimRng`], so the suite is deterministic (no external proptest dep,
//! which the offline build environment cannot fetch) while still covering
//! a wide input space. A failing case prints its seed for replay.

use nvmetro::crypto::Xts;
use nvmetro::mem::{build_prps, prp_segments, GuestMemory};
use nvmetro::nvme::{CompletionEntry, CqPair, SqPair, Status, SubmissionEntry};
use nvmetro::sim::SimRng;
use nvmetro::stats::Histogram;
use nvmetro::vbpf::isa::Insn;

/// Runs `body` over `cases` independently-seeded random cases.
fn for_cases(cases: u64, mut body: impl FnMut(&mut SimRng)) {
    for seed in 0..cases {
        let mut rng = SimRng::new(0xA5A5_0000 + seed);
        body(&mut rng);
    }
}

/// SQ rings deliver every command exactly once, in order, across
/// arbitrary interleavings of pushes and pops.
#[test]
fn sq_ring_is_fifo_and_lossless() {
    for_cases(64, |rng| {
        let (prod, cons) = SqPair::new(16);
        let mut next_push = 0u64;
        let mut next_pop = 0u64;
        let ops = 1 + rng.below(199);
        for _ in 0..ops {
            if rng.chance(0.5) {
                let cmd = SubmissionEntry::read(1, next_push, 1, 0, 0);
                if prod.push(cmd).is_ok() {
                    next_push += 1;
                }
            } else if let Some((cmd, _)) = cons.pop() {
                assert_eq!(cmd.slba(), next_pop);
                next_pop += 1;
            }
        }
        // Drain and check completeness.
        while let Some((cmd, _)) = cons.pop() {
            assert_eq!(cmd.slba(), next_pop);
            next_pop += 1;
        }
        assert_eq!(next_pop, next_push);
    });
}

/// CQ phase tags always alternate correctly no matter the traffic.
#[test]
fn cq_phase_tag_tracks_wraps() {
    for_cases(64, |rng| {
        let (prod, cons) = CqPair::new(8);
        let mut popped = 0u64;
        let batches = 1 + rng.below(49);
        for _ in 0..batches {
            let batch = 1 + rng.below(7);
            for i in 0..batch {
                if prod
                    .push(CompletionEntry::new(i as u16, Status::SUCCESS))
                    .is_err()
                {
                    break;
                }
            }
            while let Some(e) = cons.pop() {
                // The phase of entry k (0-indexed) must be !(k/8 % 2 == 1).
                let expected = (popped / 8).is_multiple_of(2);
                assert_eq!(e.phase(), expected);
                popped += 1;
            }
        }
    });
}

/// XTS decrypt(encrypt(x)) == x for arbitrary sector-aligned data.
#[test]
fn xts_round_trips() {
    for_cases(32, |rng| {
        let key: Vec<u8> = (0..64).map(|_| rng.below(256) as u8).collect();
        let sectors = 1 + rng.below(4) as usize;
        let first = rng.below(1_000_000);
        let seed = rng.below(256) as u8;
        let xts = Xts::new(&key);
        let original: Vec<u8> = (0..sectors * 512)
            .map(|i| (i as u8).wrapping_mul(seed | 1))
            .collect();
        let mut buf = original.clone();
        xts.encrypt_sectors(first, &mut buf);
        assert_ne!(&buf, &original);
        xts.decrypt_sectors(first, &mut buf);
        assert_eq!(buf, original);
    });
}

/// PRP build + walk tiles the exact byte range, contiguously.
#[test]
fn prp_segments_tile_the_buffer() {
    for_cases(48, |rng| {
        let len = 1 + rng.below(299_999) as usize;
        let offset = rng.below(4096);
        let mem = GuestMemory::new(1 << 30);
        let base = mem.alloc(len + 4096);
        let gpa = base + (offset % 4096);
        let (p1, p2) = build_prps(&mem, gpa, len);
        let segs = prp_segments(&mem, p1, p2, len).unwrap();
        let total: usize = segs.iter().map(|(_, l)| l).sum();
        assert_eq!(total, len);
        let mut expect = gpa;
        for (addr, l) in segs {
            assert_eq!(addr, expect);
            expect = addr + l as u64;
        }
    });
}

/// Histogram quantiles are monotone and within the recorded range.
#[test]
fn histogram_quantiles_are_sane() {
    for_cases(64, |rng| {
        let n = 1 + rng.below(499) as usize;
        let samples: Vec<u64> = (0..n).map(|_| rng.below(10_000_000_000)).collect();
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let min = *samples.iter().min().unwrap();
        let max = *samples.iter().max().unwrap();
        let mut last = 0;
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let v = h.quantile(q);
            assert!(v >= last);
            assert!(v >= min && v <= max);
            last = v;
        }
        assert_eq!(h.count(), samples.len() as u64);
    });
}

/// `Histogram::merge` is exact: merging any random split of a sample set
/// must preserve the total count, sum, extrema, and report every quantile
/// identical to a histogram that recorded the whole set directly.
#[test]
fn histogram_merge_preserves_count_and_quantiles() {
    for_cases(64, |rng| {
        let n = 1 + rng.below(400) as usize;
        let samples: Vec<u64> = (0..n)
            .map(|_| {
                // Mix tiny exact-bucket values with large log-bucketed ones.
                if rng.chance(0.3) {
                    rng.below(64)
                } else {
                    rng.below(5_000_000_000)
                }
            })
            .collect();

        // Record the whole set directly.
        let mut whole = Histogram::new();
        for &s in &samples {
            whole.record(s);
        }

        // Record a random partition into up to 4 shards, then merge.
        let shard_count = 1 + rng.below(4) as usize;
        let mut shards: Vec<Histogram> = (0..shard_count).map(|_| Histogram::new()).collect();
        for &s in &samples {
            let which = rng.below(shard_count as u64) as usize;
            shards[which].record(s);
        }
        let mut merged = Histogram::new();
        for shard in &shards {
            merged.merge(shard);
        }

        assert_eq!(merged.count(), whole.count());
        assert_eq!(merged.min(), whole.min());
        assert_eq!(merged.max(), whole.max());
        assert_eq!(merged.mean(), whole.mean(), "sum must merge exactly");
        for q in [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            assert_eq!(
                merged.quantile(q),
                whole.quantile(q),
                "quantile {q} diverged after merge"
            );
        }
    });
}

/// The vbpf verifier never panics on arbitrary instruction streams —
/// it either accepts or returns a typed error (a crashing verifier
/// would be a kernel DoS in the real system).
#[test]
fn verifier_total_on_arbitrary_programs() {
    for_cases(128, |rng| {
        let len = 8 + rng.below(504) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
        let len = bytes.len() - bytes.len() % 8;
        if let Ok(insns) = Insn::decode_program(&bytes[..len]) {
            let cfg = nvmetro::vbpf::verifier::VerifierConfig {
                ctx_size: 48,
                ctx_writable: 16..48,
            };
            let _ = nvmetro::vbpf::verify(insns, vec![], &cfg);
        }
    });
}

/// Any program the verifier accepts runs to completion in the
/// interpreter without runtime errors (the safety contract).
#[test]
fn verified_programs_execute_safely() {
    for_cases(128, |rng| {
        let len = 8 + rng.below(248) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
        let len = bytes.len() - bytes.len() % 8;
        if let Ok(insns) = Insn::decode_program(&bytes[..len]) {
            let cfg = nvmetro::vbpf::verifier::VerifierConfig {
                ctx_size: 48,
                ctx_writable: 16..48,
            };
            if let Ok(prog) = nvmetro::vbpf::verify(insns, vec![], &cfg) {
                let mut vm = nvmetro::vbpf::Vm::new(prog);
                let mut ctx = [0u8; 48];
                assert!(vm.run(&mut ctx).is_ok(), "verified program trapped");
            }
        }
    });
}

/// lsmkv agrees with an in-memory reference model under arbitrary
/// operation sequences (including flush-inducing volumes).
#[test]
fn lsmkv_matches_reference_model() {
    use lsmkv::{DbConfig, LsmKv, MemStorage};
    use std::collections::HashMap;
    for_cases(24, |rng| {
        let mut db = LsmKv::create(
            MemStorage::new(64 << 20),
            DbConfig {
                memtable_bytes: 1 << 10,
                l0_limit: 2,
                wal_bytes: 1 << 20,
            },
        );
        let mut model: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
        let ops = 1 + rng.below(299);
        for _ in 0..ops {
            let op = rng.below(3);
            let key_n = rng.below(200);
            let key = format!("k{key_n:05}").into_bytes();
            match op {
                0 => {
                    let val = vec![rng.below(256) as u8; 24];
                    db.put(&key, &val);
                    model.insert(key, val);
                }
                1 => {
                    db.delete(&key);
                    model.remove(&key);
                }
                _ => {
                    assert_eq!(db.get(&key), model.get(&key).cloned());
                }
            }
        }
        for (key, val) in &model {
            assert_eq!(db.get(key), Some(val.clone()));
        }
    });
}

/// XTS ciphertext is pinned, not assumed: an FNV-1a digest over the
/// ciphertext of a fixed key × first-sector × length matrix, generated at
/// commit 80e42e6 by the textbook cipher, before the AES-NI engine
/// existed. The benchmark checks ciphertext with the same `Xts` it
/// measures, so only a value from outside the change can catch a cipher
/// that is wrong but self-consistent. Decryption is pinned through it:
/// each ciphertext must decrypt back to its plaintext.
#[test]
fn xts_ciphertext_matches_the_parent_commit() {
    use nvmetro::core::servicing::fnv1a;
    let mut rng = SimRng::new(0x1619_2007);
    let mut bytes = |n: usize| -> Vec<u8> { (0..n).map(|_| rng.next_u64() as u8).collect() };
    let mut digest = 0u64;
    for key_len in [32, 64] {
        for _ in 0..2 {
            let xts = Xts::new(&bytes(key_len));
            // The last row is a 128 KiB request that ends on sector
            // `u64::MAX` without passing it.
            for (first, lengths) in [
                (0, &[1, 2, 8][..]),
                (1, &[1, 2, 8]),
                (0x0123_4567_89ab_cdef, &[1, 2, 8]),
                (u64::MAX - 255, &[1, 2, 8, 256]),
            ] {
                for &sectors in lengths {
                    let plain = bytes(sectors * 512);
                    let mut buf = plain.clone();
                    xts.encrypt_sectors(first, &mut buf);
                    digest = fnv1a(&[digest.to_le_bytes(), fnv1a(&buf).to_le_bytes()].concat());
                    xts.decrypt_sectors(first, &mut buf);
                    assert_eq!(buf, plain, "key {key_len} first {first:#x} × {sectors}");
                }
            }
        }
    }
    assert_eq!(digest, 0x93e1_5e61_5d7a_36ec, "digest {digest:#018x}");
}
