//! The encryption UIF — Rust translation of Listing 2.
//!
//! Three tasks (§IV-A): (1) in-place decryption of ciphertext delivered by
//! the device; (2) encryption of guest plaintext into a temporary buffer;
//! (3) writing that ciphertext to disk through the framework's io_uring
//! backend. XTS sector tweaks use partition-relative LBAs (`data.lba()` in
//! the paper), while disk writes use physical LBAs (`data.disk_addr()`),
//! keeping the on-disk format byte-compatible with `dm-crypt`.

use nvmetro_core::uif::{Uif, UifDisposition, UifRequest};
use nvmetro_crypto::{SgxEnclave, Xts};
use nvmetro_nvme::{NvmOpcode, Status, SubmissionEntry};
use nvmetro_sim::cost::CostModel;
use nvmetro_sim::Ns;
use nvmetro_telemetry::{Metric, TelemetryHandle};

/// Where the encryption happens.
pub enum CryptoBackend {
    /// Plain in-process XTS-AES (the paper's "normal UIF").
    Xts(Box<Xts>),
    /// Key sealed in a (simulated) SGX enclave with switchless calls.
    Sgx(Box<SgxEnclave>),
    /// No real data transformation — virtual-time cost modeling only.
    ModelOnly {
        /// Whether to model SGX costs (EPC factor, thread budget).
        sgx: bool,
    },
}

impl CryptoBackend {
    fn is_sgx(&self) -> bool {
        matches!(
            self,
            CryptoBackend::Sgx(_) | CryptoBackend::ModelOnly { sgx: true }
        )
    }
}

/// The encryption UIF.
pub struct EncryptorUif {
    crypto: CryptoBackend,
    /// Physical LBA where this VM's partition starts; sector tweaks are
    /// computed relative to it.
    lba_offset: u64,
    writes: u64,
    reads: u64,
    telemetry: TelemetryHandle,
}

impl EncryptorUif {
    /// Creates the UIF; `lba_offset` must match the classifier's map
    /// configuration.
    pub fn new(crypto: CryptoBackend, lba_offset: u64) -> Self {
        EncryptorUif {
            crypto,
            lba_offset,
            writes: 0,
            reads: 0,
            telemetry: TelemetryHandle::disabled(),
        }
    }

    /// Attaches a telemetry worker handle; counts every sector
    /// transformation as `Metric::CryptoOps`.
    pub fn with_telemetry(mut self, handle: TelemetryHandle) -> Self {
        self.telemetry = handle;
        self
    }

    /// Requests decrypted so far.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Requests encrypted so far.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    fn decrypt(&mut self, sector: u64, data: &mut [u8]) {
        self.telemetry.count(Metric::CryptoOps);
        match &mut self.crypto {
            CryptoBackend::Xts(x) => x.decrypt_sectors(sector, data),
            CryptoBackend::Sgx(e) => e.ecall_decrypt(sector, data),
            CryptoBackend::ModelOnly { .. } => {}
        }
    }

    fn encrypt(&mut self, sector: u64, data: &mut [u8]) {
        self.telemetry.count(Metric::CryptoOps);
        match &mut self.crypto {
            CryptoBackend::Xts(x) => x.encrypt_sectors(sector, data),
            CryptoBackend::Sgx(e) => e.ecall_encrypt(sector, data),
            CryptoBackend::ModelOnly { .. } => {}
        }
    }
}

impl Uif for EncryptorUif {
    fn work(&mut self, req: &mut UifRequest<'_>) -> UifDisposition {
        // Already physical (classifier); the XTS tweak is the guest's view.
        // The router bounds every notify-path LBA to the partition, so only
        // a mis-wired offset can land below it.
        let disk_addr = req.cmd.slba();
        let Some(sector) = disk_addr.checked_sub(self.lba_offset) else {
            return UifDisposition::Respond(Status::LBA_OUT_OF_RANGE);
        };
        match req.opcode() {
            Some(NvmOpcode::Read) => {
                // uif::do_read: iterate blocks from the device, decrypt
                // in place, signal success.
                self.reads += 1;
                match req.modify_guest(|data| self.decrypt(sector, data)) {
                    Ok(()) => UifDisposition::Respond(Status::SUCCESS),
                    Err(status) => UifDisposition::Respond(status),
                }
            }
            Some(NvmOpcode::Write) => {
                // uif::do_write_async: encrypt into a temporary buffer,
                // write to disk with io_uring, respond when that finishes.
                self.writes += 1;
                let mut data = match req.read_guest() {
                    Ok(data) => data,
                    Err(status) => return UifDisposition::Respond(status),
                };
                self.encrypt(sector, &mut data);
                let nlb = req.cmd.nlb();
                let tag = req.tag;
                let payload = if data.is_empty() {
                    None
                } else {
                    Some(&data[..])
                };
                req.io().write(disk_addr, nlb, payload, tag as u64);
                UifDisposition::Async
            }
            _ => UifDisposition::Respond(Status::INVALID_OPCODE),
        }
    }

    fn work_cost(&self, cmd: &SubmissionEntry, cost: &CostModel) -> Ns {
        let mut c = cost.xts_cost(cmd.data_len(), self.crypto.is_sgx());
        // Non-switchless enclaves would also pay a ring transition; our
        // configuration uses switchless calls (1 worker + 1 switchless
        // thread), so only the EPC factor applies.
        if let CryptoBackend::Sgx(e) = &self.crypto {
            if !e.is_switchless() {
                c += cost.sgx_ecall;
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmetro_crypto::SECTOR_SIZE;

    #[test]
    fn model_only_backend_does_not_touch_data() {
        let mut uif = EncryptorUif::new(CryptoBackend::ModelOnly { sgx: false }, 0);
        let mut data = vec![7u8; SECTOR_SIZE];
        uif.encrypt(0, &mut data);
        assert!(data.iter().all(|&b| b == 7));
    }

    #[test]
    fn xts_and_sgx_backends_agree() {
        let key = [5u8; 64];
        let mut plain_uif = EncryptorUif::new(CryptoBackend::Xts(Box::new(Xts::new(&key))), 0);
        let mut sgx_uif = EncryptorUif::new(
            CryptoBackend::Sgx(Box::new(SgxEnclave::create(&key, true))),
            0,
        );
        let mut a = vec![3u8; SECTOR_SIZE];
        let mut b = a.clone();
        plain_uif.encrypt(9, &mut a);
        sgx_uif.encrypt(9, &mut b);
        assert_eq!(a, b, "both variants share the on-disk format");
    }

    #[test]
    fn work_cost_scales_with_size_and_sgx_epc() {
        let cost = CostModel::default();
        let plain = EncryptorUif::new(CryptoBackend::ModelOnly { sgx: false }, 0);
        let sgx = EncryptorUif::new(CryptoBackend::ModelOnly { sgx: true }, 0);
        let small = SubmissionEntry::write(1, 0, 8, 0, 0); // 4 KiB
        let large = SubmissionEntry::write(1, 0, 256, 0, 0); // 128 KiB
        assert!(plain.work_cost(&large, &cost) > plain.work_cost(&small, &cost));
        // EPC thrashing penalizes only large SGX buffers.
        assert_eq!(plain.work_cost(&small, &cost), sgx.work_cost(&small, &cost));
        assert!(sgx.work_cost(&large, &cost) > plain.work_cost(&large, &cost));
    }
}
