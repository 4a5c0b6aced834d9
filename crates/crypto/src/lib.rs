//! Cryptography substrate for NVMetro's encryption storage function.
//!
//! The paper's encryption UIFs use "the standard XTS-AES algorithm and are
//! compatible with Linux's dm-crypt" (§IV-A). This crate implements that
//! stack from scratch:
//!
//! * [`aes`] — AES-128/256 block cipher (FIPS-197) on one of two engines:
//!   AES-NI, which the paper's UIFs run, when the CPU has it, and a
//!   portable software implementation otherwise;
//! * [`xts`] — XTS mode (IEEE 1619) with dm-crypt's `plain64` sector tweak,
//!   so NVMetro's encryptor and the simulated `dm-crypt` baseline produce
//!   byte-identical ciphertext;
//! * [`sgx`] — an Intel SGX enclave *simulation*: the data key is sealed
//!   inside an opaque enclave object that only exposes ECALLs, with call
//!   accounting for the switchless-call cost model (see `DESIGN.md`).
//!
//! The engine is chosen by `Aes::new` from what the CPU reports
//! (`is_x86_feature_detected!("aes")`, x86_64 only), never by an option:
//! the encryptor UIF, the `dm-crypt` baseline and the enclave all build
//! their cipher through `Xts::new` and all get the same one. On AES-NI an
//! XTS data unit goes through one routine with eight blocks in flight
//! (`ni`, the only module with `unsafe`); the portable engine is the
//! fallback and the reference that routine is tested against, byte for
//! byte. Virtual time still comes from `nvmetro-sim::cost`
//! (`xts_per_byte`); EXPERIMENTS.md, "Cipher: measured vs calibrated",
//! sets the measured ns/B of both engines beside it. `aes` has the layout
//! of the key material and the side-channel note.

pub mod aes;
#[cfg(target_arch = "x86_64")]
mod ni;
pub mod sgx;
pub mod xts;

pub use aes::Aes;
pub use sgx::{SgxEnclave, SgxStats};
pub use xts::{Xts, SECTOR_SIZE};
