//! AES block cipher (FIPS-197), supporting 128- and 256-bit keys, on one of
//! two engines chosen by the CPU, never by an option:
//!
//! * the **hardware engine** ([`crate::ni`]): AES-NI, what the paper's UIF
//!   runs. [`Aes::new`] selects it when `is_x86_feature_detected!("aes")`
//!   says so (x86_64 only) and keeps the proof of that in the key, so no
//!   block is ever processed on an instruction the CPU lacks;
//! * the **portable engine** (this file): a straightforward software
//!   implementation — S-box substitution, row shifts, GF(2^8) column
//!   mixing. It is the only engine on a host without AES-NI and the
//!   reference the hardware engine is tested against, which is why it is
//!   written for clarity and left alone.
//!
//! Key material is expanded once, into fixed arrays. `enc` holds the
//! FIPS-197 key schedule in round order. `dec` holds the keys of the
//! *equivalent inverse cipher* (FIPS-197 §5.3.5) in the order decryption
//! consumes them: `dec[0] = enc[rounds]`, `dec[i] =
//! InvMixColumns(enc[rounds - i])`, `dec[rounds] = enc[0]` — the order
//! `aesdec` wants. The portable engine decrypts with `enc` read backwards
//! and never looks at `dec`.
//!
//! Side channels: the portable engine indexes tables by secret bytes and
//! (`gmul`) branches on secret bits; the hardware engine is constant-time.
//! Choosing AES-NI whenever the CPU has it therefore gives no such property
//! up. A table-driven "fast portable" engine would widen the leak for
//! hosts no benchmark workload runs on; it is deliberately not here.

#[cfg(target_arch = "x86_64")]
use crate::ni::AesNi;

/// AES S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Inverse S-box, derived from [`SBOX`] at first use.
fn inv_sbox() -> &'static [u8; 256] {
    use std::sync::OnceLock;
    static INV: OnceLock<[u8; 256]> = OnceLock::new();
    INV.get_or_init(|| {
        let mut inv = [0u8; 256];
        for (i, &v) in SBOX.iter().enumerate() {
            inv[v as usize] = i as u8;
        }
        inv
    })
}

/// Multiply in GF(2^8) modulo x^8 + x^4 + x^3 + x + 1.
fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 != 0 {
            p ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= 0x1b;
        }
        b >>= 1;
    }
    p
}

/// Round keys of the largest supported key (AES-256: 14 rounds + 1).
const MAX_ROUND_KEYS: usize = 15;

/// An expanded AES key, usable for block encryption and decryption.
#[derive(Clone)]
pub struct Aes {
    /// Key schedule in round order; entries past `rounds` are unused.
    enc: [[u8; 16]; MAX_ROUND_KEYS],
    /// Equivalent-inverse-cipher keys in the order decryption uses them
    /// (see the module docs); read by the hardware engine only.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    dec: [[u8; 16]; MAX_ROUND_KEYS],
    rounds: usize,
    /// Present iff the CPU has AES-NI: the hardware engine's entry points
    /// are methods of this value, so they are unreachable without it.
    #[cfg(target_arch = "x86_64")]
    ni: Option<AesNi>,
}

impl Aes {
    /// Expands a 16-byte (AES-128) or 32-byte (AES-256) key and selects
    /// the engine: AES-NI if this CPU has it, the portable one otherwise.
    pub fn new(key: &[u8]) -> Self {
        Aes {
            #[cfg(target_arch = "x86_64")]
            ni: AesNi::detect(),
            ..Self::portable(key)
        }
    }

    /// Expands a key for the portable engine whatever the CPU has: what
    /// `new` returns on a host without AES-NI, and the reference the tests
    /// hold the hardware engine against.
    pub(crate) fn portable(key: &[u8]) -> Self {
        let (nk, rounds) = match key.len() {
            16 => (4usize, 10usize),
            32 => (8, 14),
            n => panic!("AES key must be 16 or 32 bytes, got {n}"),
        };
        let total_words = 4 * (rounds + 1);
        let mut w = [[0u8; 4]; 4 * MAX_ROUND_KEYS];
        for (word, bytes) in w.iter_mut().zip(key.chunks_exact(4)) {
            word.copy_from_slice(bytes);
        }
        let mut rcon = 1u8;
        for i in nk..total_words {
            let mut t = w[i - 1];
            if i % nk == 0 {
                t.rotate_left(1);
                for b in t.iter_mut() {
                    *b = SBOX[*b as usize];
                }
                t[0] ^= rcon;
                rcon = gmul(rcon, 2);
            } else if nk > 6 && i % nk == 4 {
                for b in t.iter_mut() {
                    *b = SBOX[*b as usize];
                }
            }
            let prev = w[i - nk];
            w[i] = [
                t[0] ^ prev[0],
                t[1] ^ prev[1],
                t[2] ^ prev[2],
                t[3] ^ prev[3],
            ];
        }
        let mut enc = [[0u8; 16]; MAX_ROUND_KEYS];
        for (rk, words) in enc.iter_mut().zip(w.chunks_exact(4)) {
            rk.copy_from_slice(words.as_flattened());
        }
        let mut dec = [[0u8; 16]; MAX_ROUND_KEYS];
        for (i, rk) in dec[..=rounds].iter_mut().enumerate() {
            *rk = enc[rounds - i];
        }
        for rk in &mut dec[1..rounds] {
            Self::inv_mix_columns(rk);
        }
        Aes {
            enc,
            dec,
            rounds,
            #[cfg(target_arch = "x86_64")]
            ni: None,
        }
    }

    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for i in 0..16 {
            state[i] ^= rk[i];
        }
    }

    fn sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = SBOX[*b as usize];
        }
    }

    fn inv_sub_bytes(state: &mut [u8; 16]) {
        let inv = inv_sbox();
        for b in state.iter_mut() {
            *b = inv[*b as usize];
        }
    }

    /// State is column-major: byte `r + 4c` is row r, column c.
    fn shift_rows(state: &mut [u8; 16]) {
        let s = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[r + 4 * c] = s[r + 4 * ((c + r) % 4)];
            }
        }
    }

    fn inv_shift_rows(state: &mut [u8; 16]) {
        let s = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[r + 4 * ((c + r) % 4)] = s[r + 4 * c];
            }
        }
    }

    fn mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [
                state[4 * c],
                state[4 * c + 1],
                state[4 * c + 2],
                state[4 * c + 3],
            ];
            state[4 * c] = gmul(col[0], 2) ^ gmul(col[1], 3) ^ col[2] ^ col[3];
            state[4 * c + 1] = col[0] ^ gmul(col[1], 2) ^ gmul(col[2], 3) ^ col[3];
            state[4 * c + 2] = col[0] ^ col[1] ^ gmul(col[2], 2) ^ gmul(col[3], 3);
            state[4 * c + 3] = gmul(col[0], 3) ^ col[1] ^ col[2] ^ gmul(col[3], 2);
        }
    }

    fn inv_mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [
                state[4 * c],
                state[4 * c + 1],
                state[4 * c + 2],
                state[4 * c + 3],
            ];
            state[4 * c] = gmul(col[0], 14) ^ gmul(col[1], 11) ^ gmul(col[2], 13) ^ gmul(col[3], 9);
            state[4 * c + 1] =
                gmul(col[0], 9) ^ gmul(col[1], 14) ^ gmul(col[2], 11) ^ gmul(col[3], 13);
            state[4 * c + 2] =
                gmul(col[0], 13) ^ gmul(col[1], 9) ^ gmul(col[2], 14) ^ gmul(col[3], 11);
            state[4 * c + 3] =
                gmul(col[0], 11) ^ gmul(col[1], 13) ^ gmul(col[2], 9) ^ gmul(col[3], 14);
        }
    }

    /// Encrypts one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        #[cfg(target_arch = "x86_64")]
        if let Some(ni) = self.ni {
            return ni.encrypt_block(self.enc_keys(), block);
        }
        Self::add_round_key(block, &self.enc[0]);
        for r in 1..self.rounds {
            Self::sub_bytes(block);
            Self::shift_rows(block);
            Self::mix_columns(block);
            Self::add_round_key(block, &self.enc[r]);
        }
        Self::sub_bytes(block);
        Self::shift_rows(block);
        Self::add_round_key(block, &self.enc[self.rounds]);
    }

    /// Decrypts one 16-byte block in place.
    pub fn decrypt_block(&self, block: &mut [u8; 16]) {
        #[cfg(target_arch = "x86_64")]
        if let Some(ni) = self.ni {
            return ni.decrypt_block(self.dec_keys(), block);
        }
        Self::add_round_key(block, &self.enc[self.rounds]);
        for r in (1..self.rounds).rev() {
            Self::inv_shift_rows(block);
            Self::inv_sub_bytes(block);
            Self::add_round_key(block, &self.enc[r]);
            Self::inv_mix_columns(block);
        }
        Self::inv_shift_rows(block);
        Self::inv_sub_bytes(block);
        Self::add_round_key(block, &self.enc[0]);
    }
}

/// What [`crate::xts`] hands the hardware engine.
#[cfg(target_arch = "x86_64")]
impl Aes {
    /// The hardware engine, if `new` selected it.
    pub(crate) fn ni(&self) -> Option<AesNi> {
        self.ni
    }

    /// The encryption round keys, first to last.
    pub(crate) fn enc_keys(&self) -> &[[u8; 16]] {
        &self.enc[..=self.rounds]
    }

    /// The equivalent-inverse-cipher round keys, first used to last.
    pub(crate) fn dec_keys(&self) -> &[[u8; 16]] {
        &self.dec[..=self.rounds]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both engines, by constructor: the one the CPU selects and the
    /// portable one. Every test below runs on each.
    const ENGINES: [fn(&[u8]) -> Aes; 2] = [Aes::new, Aes::portable];

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn fips197_aes128_known_answer() {
        // FIPS-197 Appendix C.1
        let key = hex("000102030405060708090a0b0c0d0e0f");
        for aes in ENGINES.map(|new| new(&key)) {
            let mut block: [u8; 16] = hex("00112233445566778899aabbccddeeff").try_into().unwrap();
            aes.encrypt_block(&mut block);
            assert_eq!(block.to_vec(), hex("69c4e0d86a7b0430d8cdb78070b4c55a"));
            aes.decrypt_block(&mut block);
            assert_eq!(block.to_vec(), hex("00112233445566778899aabbccddeeff"));
        }
    }

    #[test]
    fn fips197_aes256_known_answer() {
        // FIPS-197 Appendix C.3
        let key = hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
        for aes in ENGINES.map(|new| new(&key)) {
            let mut block: [u8; 16] = hex("00112233445566778899aabbccddeeff").try_into().unwrap();
            aes.encrypt_block(&mut block);
            assert_eq!(block.to_vec(), hex("8ea2b7ca516745bfeafc49904b496089"));
            aes.decrypt_block(&mut block);
            assert_eq!(block.to_vec(), hex("00112233445566778899aabbccddeeff"));
        }
    }

    #[test]
    fn encrypt_decrypt_round_trip_random_keys() {
        for seed in 0..8u8 {
            let key: Vec<u8> = (0..32).map(|i| i as u8 ^ seed.wrapping_mul(37)).collect();
            for aes in ENGINES.map(|new| new(&key)) {
                let original: [u8; 16] = core::array::from_fn(|i| (i as u8).wrapping_mul(seed | 1));
                let mut block = original;
                aes.encrypt_block(&mut block);
                assert_ne!(block, original, "ciphertext must differ");
                aes.decrypt_block(&mut block);
                assert_eq!(block, original);
            }
        }
    }

    #[test]
    #[should_panic(expected = "16 or 32 bytes")]
    fn bad_key_length_panics() {
        let _ = Aes::new(&[0u8; 24]); // AES-192 intentionally unsupported
    }

    #[test]
    #[should_panic(expected = "16 or 32 bytes")]
    fn bad_key_length_panics_on_the_portable_engine() {
        let _ = Aes::portable(&[0u8; 24]);
    }

    #[test]
    fn gmul_known_values() {
        assert_eq!(gmul(0x57, 0x83), 0xc1); // FIPS-197 §4.2 example
        assert_eq!(gmul(0x57, 0x13), 0xfe);
    }
}
