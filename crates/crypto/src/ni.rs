//! The hardware engine: AES rounds and the XTS data-unit routine on AES-NI.
//!
//! The one module of this crate with `unsafe` in it, for two reasons only.
//! *The instructions*: every routine that executes `aesenc`/`aesdec` is a
//! `#[target_feature(enable = "aes")]` function, reachable only through a
//! method of [`AesNi`], and an `AesNi` can only come from
//! [`AesNi::detect`], which asks the CPU. *The memory*: [`load`] and
//! [`store`] move 16 bytes through a raw pointer that was a `[u8; 16]`
//! reference a line earlier. Everything else (slicing a buffer into blocks,
//! the tweak chain, the round loop) is safe code.
//!
//! Round keys arrive as a slice of `rounds + 1` blocks in the order they
//! are used, for encryption the key schedule and for decryption the
//! equivalent-inverse-cipher keys (see [`crate::aes`]), so both directions
//! are the same loop around a different instruction.

use core::arch::x86_64::{
    __m128i, _mm_aesdec_si128, _mm_aesdeclast_si128, _mm_aesenc_si128, _mm_aesenclast_si128,
    _mm_loadu_si128, _mm_storeu_si128, _mm_xor_si128,
};

/// Blocks kept in flight through the AES unit: `aesenc` has a latency of
/// several cycles and a throughput of one or two per cycle, so one block
/// at a time leaves the pipeline mostly empty. Eight independent blocks
/// fill it, still fit the sixteen `xmm` registers with their round key,
/// and divide a 512-byte unit's 32 blocks.
const LANES: usize = 8;

/// Proof that this CPU executes AES-NI. Only [`AesNi::detect`] makes one.
#[derive(Clone, Copy)]
pub(crate) struct AesNi(());

impl AesNi {
    /// Asks the CPU (std caches the answer after the first call).
    pub(crate) fn detect() -> Option<AesNi> {
        std::arch::is_x86_feature_detected!("aes").then_some(AesNi(()))
    }

    /// Encrypts one block under the key schedule `keys`.
    pub(crate) fn encrypt_block(self, keys: &[[u8; 16]], block: &mut [u8; 16]) {
        // SAFETY: `self` exists, so `detect` saw the `aes` feature.
        unsafe { cipher_blocks::<true, 1>(keys, 0, core::array::from_mut(block)) };
    }

    /// Decrypts one block under the equivalent-inverse-cipher keys `keys`.
    pub(crate) fn decrypt_block(self, keys: &[[u8; 16]], block: &mut [u8; 16]) {
        // SAFETY: `self` exists, so `detect` saw the `aes` feature.
        unsafe { cipher_blocks::<false, 1>(keys, 0, core::array::from_mut(block)) };
    }

    /// Encrypts (`ENC`) or decrypts one XTS data unit in place: `tweak` is
    /// the unit's first tweak (its number, already encrypted under the
    /// tweak key) as a little-endian integer, `keys` the data key's round
    /// keys for the direction. Bytes past the last whole block are left
    /// alone.
    pub(crate) fn xts_unit<const ENC: bool>(self, keys: &[[u8; 16]], tweak: u128, unit: &mut [u8]) {
        // SAFETY: `self` exists, so `detect` saw the `aes` feature.
        unsafe { xts_unit::<ENC>(keys, tweak, unit) };
    }
}

fn load(block: &[u8; 16]) -> __m128i {
    // SAFETY: an unaligned load of the 16 bytes inside `block`.
    unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
}

fn store(block: &mut [u8; 16], v: __m128i) {
    // SAFETY: an unaligned store to the 16 bytes inside `block`.
    unsafe { _mm_storeu_si128(block.as_mut_ptr().cast(), v) }
}

/// Multiplies a tweak by α (x) in GF(2^128), IEEE 1619 §5.2: with the block
/// read as a little-endian integer, a shift left, and 0x87 (the low terms
/// of the modulus x^128 + x^7 + x^2 + x + 1) folded in when a bit falls off
/// the top — as a mask, not a branch.
fn mul_alpha(t: u128) -> u128 {
    (t << 1) ^ (((t as i128 >> 127) as u128) & 0x87)
}

/// Runs `N` consecutive blocks through the cipher together, block `i`
/// XORed before and after with `tweak · α^i` (XTS; a zero tweak is plain
/// AES), and returns the tweak of the block after them. The two tweak XORs
/// cost nothing extra: the first rides on the whitening key at the load,
/// the second on the last round key at the store (`aesenclast(x, k ^ t)`
/// is `aesenclast(x, k) ^ t`).
#[inline]
#[target_feature(enable = "aes")]
fn cipher_blocks<const ENC: bool, const N: usize>(
    keys: &[[u8; 16]],
    mut tweak: u128,
    blocks: &mut [[u8; 16]; N],
) -> u128 {
    let [first, middle @ .., last] = keys else {
        unreachable!("an expanded AES key has at least two round keys");
    };
    let (first, last) = (load(first), load(last));
    let mut tweaks = [first; N];
    let mut state = [first; N];
    for i in 0..N {
        tweaks[i] = load(&tweak.to_le_bytes());
        tweak = mul_alpha(tweak);
        state[i] = _mm_xor_si128(load(&blocks[i]), _mm_xor_si128(tweaks[i], first));
    }
    for key in middle {
        let key = load(key);
        for s in &mut state {
            *s = if ENC {
                _mm_aesenc_si128(*s, key)
            } else {
                _mm_aesdec_si128(*s, key)
            };
        }
    }
    for i in 0..N {
        let key = _mm_xor_si128(last, tweaks[i]);
        let out = if ENC {
            _mm_aesenclast_si128(state[i], key)
        } else {
            _mm_aesdeclast_si128(state[i], key)
        };
        store(&mut blocks[i], out);
    }
    tweak
}

#[target_feature(enable = "aes")]
fn xts_unit<const ENC: bool>(keys: &[[u8; 16]], mut tweak: u128, unit: &mut [u8]) {
    let (blocks, _) = unit.as_chunks_mut::<16>();
    let (groups, rest) = blocks.as_chunks_mut::<LANES>();
    for group in groups {
        tweak = cipher_blocks::<ENC, LANES>(keys, tweak, group);
    }
    for block in rest {
        tweak = cipher_blocks::<ENC, 1>(keys, tweak, core::array::from_mut(block));
    }
}
