//! XTS mode (IEEE 1619) with dm-crypt-compatible `plain64` sector tweaks.
//!
//! XTS is the standard mode for disk encryption: each 512-byte sector is
//! encrypted under a tweak derived from its sector number, so identical
//! plaintext at different LBAs yields different ciphertext while staying
//! length-preserving and random-access. `aes-xts-plain64` (what both the
//! paper's UIF and dm-crypt use) takes the sector number as a little-endian
//! 64-bit value in the 128-bit tweak block.
//!
//! Each data unit runs on the engine [`Aes::new`] selected for the data
//! key: on AES-NI through [`crate::ni`]'s unit routine, eight blocks in
//! flight; otherwise through the block-at-a-time loop below, which is also
//! the reference the hardware routine is tested against.

use crate::aes::Aes;

/// Disk sector size — XTS data unit, matching the 512 B LBA size.
pub const SECTOR_SIZE: usize = 512;

/// An XTS-AES cipher bound to a data key and a tweak key.
#[derive(Clone)]
pub struct Xts {
    data: Aes,
    tweak: Aes,
}

impl Xts {
    /// Creates an XTS cipher from a double-length key: the first half is
    /// the data key, the second half the tweak key (32 bytes total for
    /// XTS-AES-128, 64 for XTS-AES-256 — dm-crypt's default).
    pub fn new(key: &[u8]) -> Self {
        Self::with_engine(key, Aes::new)
    }

    /// The same cipher held to the portable engine, for the tests that
    /// compare the two.
    #[cfg(test)]
    fn portable(key: &[u8]) -> Self {
        Self::with_engine(key, Aes::portable)
    }

    fn with_engine(key: &[u8], aes: fn(&[u8]) -> Aes) -> Self {
        assert!(
            key.len() == 32 || key.len() == 64,
            "XTS key must be 32 or 64 bytes, got {}",
            key.len()
        );
        let half = key.len() / 2;
        Xts {
            data: aes(&key[..half]),
            tweak: aes(&key[half..]),
        }
    }

    /// Computes the initial tweak block for a sector (`plain64` IV).
    fn initial_tweak(&self, sector: u64) -> [u8; 16] {
        let mut t = [0u8; 16];
        t[..8].copy_from_slice(&sector.to_le_bytes());
        self.tweak.encrypt_block(&mut t);
        t
    }

    /// Multiplies the tweak by alpha (x) in GF(2^128), per IEEE 1619.
    fn mul_alpha(t: &mut [u8; 16]) {
        let mut carry = 0u8;
        for b in t.iter_mut() {
            let new_carry = *b >> 7;
            *b = (*b << 1) | carry;
            carry = new_carry;
        }
        if carry != 0 {
            t[0] ^= 0x87;
        }
    }

    fn process_sector(&self, sector: u64, buf: &mut [u8], encrypt: bool) {
        debug_assert_eq!(buf.len() % 16, 0);
        let mut t = self.initial_tweak(sector);
        #[cfg(target_arch = "x86_64")]
        if let Some(ni) = self.data.ni() {
            let t = u128::from_le_bytes(t);
            return if encrypt {
                ni.xts_unit::<true>(self.data.enc_keys(), t, buf)
            } else {
                ni.xts_unit::<false>(self.data.dec_keys(), t, buf)
            };
        }
        for chunk in buf.chunks_exact_mut(16) {
            let mut block = [0u8; 16];
            block.copy_from_slice(chunk);
            for i in 0..16 {
                block[i] ^= t[i];
            }
            if encrypt {
                self.data.encrypt_block(&mut block);
            } else {
                self.data.decrypt_block(&mut block);
            }
            for i in 0..16 {
                block[i] ^= t[i];
            }
            chunk.copy_from_slice(&block);
            Self::mul_alpha(&mut t);
        }
    }

    /// Encrypts `data` in place; must be a whole number of sectors, the
    /// first of which is `first_sector` (consecutive sectors follow, and
    /// wrap past `u64::MAX` as `plain64`'s 64-bit counter does).
    pub fn encrypt_sectors(&self, first_sector: u64, data: &mut [u8]) {
        assert_eq!(
            data.len() % SECTOR_SIZE,
            0,
            "data must be sector aligned ({} bytes given)",
            data.len()
        );
        for (i, sector_buf) in data.chunks_exact_mut(SECTOR_SIZE).enumerate() {
            self.process_sector(first_sector.wrapping_add(i as u64), sector_buf, true);
        }
    }

    /// Decrypts `data` in place (inverse of [`Xts::encrypt_sectors`]).
    pub fn decrypt_sectors(&self, first_sector: u64, data: &mut [u8]) {
        assert_eq!(
            data.len() % SECTOR_SIZE,
            0,
            "data must be sector aligned ({} bytes given)",
            data.len()
        );
        for (i, sector_buf) in data.chunks_exact_mut(SECTOR_SIZE).enumerate() {
            self.process_sector(first_sector.wrapping_add(i as u64), sector_buf, false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmetro_sim::SimRng;

    /// Both engines, by constructor: the one the CPU selects and the
    /// portable one. Every test below runs on each.
    const ENGINES: [fn(&[u8]) -> Xts; 2] = [Xts::new, Xts::portable];

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn ieee1619_vector_1_first_blocks() {
        // IEEE 1619-2007 XTS-AES-128 Vector 1: all-zero keys, sector 0,
        // all-zero plaintext.
        for xts in ENGINES.map(|new| new(&[0u8; 32])) {
            let mut data = vec![0u8; 32];
            // The vector's data unit is 32 bytes, smaller than a disk
            // sector, so drive the sector routine directly.
            xts.process_sector(0, &mut data, true);
            assert_eq!(
                data,
                hex("917cf69ebd68b2ec9b9fe9a3eadda692cd43d2f59598ed858c02c2652fbf922e")
            );
        }
    }

    #[test]
    fn round_trip_single_sector() {
        let key: Vec<u8> = (0..64).collect();
        for xts in ENGINES.map(|new| new(&key)) {
            let original: Vec<u8> = (0..SECTOR_SIZE).map(|i| (i % 251) as u8).collect();
            let mut buf = original.clone();
            xts.encrypt_sectors(7, &mut buf);
            assert_ne!(buf, original);
            xts.decrypt_sectors(7, &mut buf);
            assert_eq!(buf, original);
        }
    }

    #[test]
    fn round_trip_multi_sector_run() {
        let key: Vec<u8> = (0..64).map(|i| i as u8 ^ 0x5A).collect();
        for xts in ENGINES.map(|new| new(&key)) {
            let original: Vec<u8> = (0..8 * SECTOR_SIZE).map(|i| (i % 13) as u8).collect();
            let mut buf = original.clone();
            xts.encrypt_sectors(1000, &mut buf);
            xts.decrypt_sectors(1000, &mut buf);
            assert_eq!(buf, original);
        }
    }

    #[test]
    fn same_plaintext_different_sectors_differs() {
        for xts in ENGINES.map(|new| new(&[7u8; 64])) {
            let mut a = vec![0xAAu8; SECTOR_SIZE];
            let mut b = vec![0xAAu8; SECTOR_SIZE];
            xts.encrypt_sectors(1, &mut a);
            xts.encrypt_sectors(2, &mut b);
            assert_ne!(a, b, "tweak must bind ciphertext to the sector number");
        }
    }

    #[test]
    fn decrypting_at_wrong_sector_fails_to_recover() {
        for xts in ENGINES.map(|new| new(&[9u8; 64])) {
            let original = vec![0x11u8; SECTOR_SIZE];
            let mut buf = original.clone();
            xts.encrypt_sectors(5, &mut buf);
            xts.decrypt_sectors(6, &mut buf);
            assert_ne!(buf, original);
        }
    }

    #[test]
    fn sector_independence_allows_random_access() {
        // Encrypting sectors [0..4) together equals encrypting each alone.
        let key: Vec<u8> = (100..164).map(|i| i as u8).collect();
        for xts in ENGINES.map(|new| new(&key)) {
            let original: Vec<u8> = (0..4 * SECTOR_SIZE).map(|i| (i / 7) as u8).collect();
            let mut together = original.clone();
            xts.encrypt_sectors(40, &mut together);
            for s in 0..4 {
                let mut alone = original[s * SECTOR_SIZE..(s + 1) * SECTOR_SIZE].to_vec();
                xts.encrypt_sectors(40 + s as u64, &mut alone);
                assert_eq!(
                    &together[s * SECTOR_SIZE..(s + 1) * SECTOR_SIZE],
                    &alone[..]
                );
            }
        }
    }

    /// `plain64` is a 64-bit counter: the unit after `u64::MAX` is 0. (The
    /// sum overflowed, and panicked a debug build, before it wrapped.)
    #[test]
    fn sector_numbers_wrap_past_u64_max() {
        for xts in ENGINES.map(|new| new(&[3u8; 64])) {
            let original: Vec<u8> = (0..3 * SECTOR_SIZE).map(|i| (i % 199) as u8).collect();
            let mut run = original.clone();
            xts.encrypt_sectors(u64::MAX - 1, &mut run);
            for (s, sector) in [u64::MAX - 1, u64::MAX, 0].into_iter().enumerate() {
                let mut alone = original[s * SECTOR_SIZE..(s + 1) * SECTOR_SIZE].to_vec();
                xts.encrypt_sectors(sector, &mut alone);
                assert_eq!(&run[s * SECTOR_SIZE..(s + 1) * SECTOR_SIZE], &alone[..]);
            }
            xts.decrypt_sectors(u64::MAX - 1, &mut run);
            assert_eq!(run, original);
        }
    }

    #[test]
    fn xts_128_and_256_keys_supported() {
        for new in ENGINES {
            let _ = new(&[1u8; 32]);
            let _ = new(&[1u8; 64]);
        }
    }

    #[test]
    #[should_panic(expected = "32 or 64")]
    fn bad_key_length_panics() {
        let _ = Xts::new(&[0u8; 48]);
    }

    #[test]
    #[should_panic(expected = "32 or 64")]
    fn bad_key_length_panics_on_the_portable_engine() {
        let _ = Xts::portable(&[0u8; 48]);
    }

    #[test]
    #[should_panic(expected = "sector aligned")]
    fn unaligned_data_panics() {
        let xts = Xts::new(&[0u8; 32]);
        let mut buf = vec![0u8; 100];
        xts.encrypt_sectors(0, &mut buf);
    }

    #[test]
    #[should_panic(expected = "sector aligned")]
    fn unaligned_data_panics_on_the_portable_engine() {
        let xts = Xts::portable(&[0u8; 32]);
        let mut buf = vec![0u8; 100];
        xts.decrypt_sectors(0, &mut buf);
    }

    #[test]
    fn mul_alpha_carries_into_reduction() {
        let mut t = [0u8; 16];
        t[15] = 0x80; // top bit set: multiplication must reduce
        Xts::mul_alpha(&mut t);
        assert_eq!(t[0], 0x87);
        assert_eq!(t[15], 0x00);
    }

    fn fill(rng: &mut SimRng, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            chunk.copy_from_slice(&rng.next_u64().to_le_bytes()[..chunk.len()]);
        }
    }

    /// The hardware engine against the textbook one, byte for byte, in
    /// both directions: both key sizes, 1-8 sectors and now and then a
    /// 128 KiB request, first sectors from all of `u64` and, one case in
    /// eight, within 8 of `u64::MAX` so the run wraps. On a host without
    /// AES-NI both sides are the portable engine and this checks nothing;
    /// `hardware_engine_is_selected_when_the_cpu_has_it` keeps a host
    /// with it from getting here on the fallback.
    #[test]
    fn hardware_engine_matches_the_portable_one() {
        const CASES: usize = 20_000;
        let mut rng = SimRng::new(0x1619_2007_0080_e42e);
        let mut key = [0u8; 64];
        let mut data = vec![0u8; 256 * SECTOR_SIZE];
        let mut reference = data.clone();
        for case in 0..CASES {
            let key = &mut key[..if rng.next_u64() & 1 == 0 { 32 } else { 64 }];
            fill(&mut rng, key);
            let (hw, sw) = (Xts::new(key), Xts::portable(key));
            let sectors = if case % 500 == 499 {
                256
            } else {
                1 + rng.next_u64() as usize % 8
            };
            let first = match rng.next_u64() % 8 {
                0 => u64::MAX - rng.next_u64() % 8,
                _ => rng.next_u64(),
            };
            let data = &mut data[..sectors * SECTOR_SIZE];
            let reference = &mut reference[..sectors * SECTOR_SIZE];
            fill(&mut rng, data);
            reference.copy_from_slice(data);
            let decrypt = rng.next_u64() & 1 == 0;
            if decrypt {
                hw.decrypt_sectors(first, data);
                sw.decrypt_sectors(first, reference);
            } else {
                hw.encrypt_sectors(first, data);
                sw.encrypt_sectors(first, reference);
            }
            assert!(
                data == reference,
                "case {case}: {}-byte key, {sectors} sectors from {first:#x}, decrypt {decrypt}",
                key.len()
            );
        }
    }

    /// If the CPU has AES-NI, `Xts::new` must be running on it: a host
    /// that fell back would pass every other test here (both engines
    /// would be the portable one) and report a slow number.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn hardware_engine_is_selected_when_the_cpu_has_it() {
        let detected = std::arch::is_x86_feature_detected!("aes");
        for key_len in [32, 64] {
            let xts = Xts::new(&vec![0u8; key_len]);
            assert_eq!(xts.data.ni().is_some(), detected);
            assert_eq!(xts.tweak.ni().is_some(), detected);
        }
        assert!(Xts::portable(&[0u8; 32]).data.ni().is_none());
    }
}
