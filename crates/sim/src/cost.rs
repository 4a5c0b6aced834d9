//! Calibration constants for the virtual-time evaluation.
//!
//! This module is the **single home** of every modeled cost in the
//! reproduction. The paper's testbed (Dell R420, Samsung 970 EVO Plus,
//! Xeon E5-2420 v2, Infiniband link) is replaced by the constants below;
//! `EXPERIMENTS.md` records how well the resulting *relative* results track
//! the paper's figures. All times are virtual nanoseconds.
//!
//! Calibration anchors taken from the paper:
//!
//! * §V-B  NVMetro ≈ MDev ≈ SPDK ≈ passthrough throughput; QEMU 2.7x slower
//!   at 512B RR QD1, but fastest at 16K/QD128/1 job (+19..32%).
//! * Fig 4 latency at 10 kIOPS: passthrough +18.2%/+9.1% (interrupt
//!   forwarding), vhost +73.6%/+97.6%, QEMU 3.4x/4.1x, SPDK p99 writes
//!   5.9..18% below NVMetro.
//! * Fig 11 CPU: polling solutions ≈ +85% over passthrough at QD1/1 job,
//!   ≈ +26% at QD128/4 jobs; SPDK ≈ +56% at 512B/QD128/4 jobs.
//! * Fig 7/8 encryption and Fig 9/10 replication ratios (see those crates).

use crate::time::{Ns, US};

/// Every calibrated constant used by the simulated stacks.
///
/// `CostModel::default()` is the calibrated model; tests and ablations build
/// variants by mutating fields.
#[derive(Clone, Debug)]
pub struct CostModel {
    // ----- SSD (Samsung 970 EVO Plus 1TB class) -----
    /// Internal parallelism: concurrent NAND operations.
    pub ssd_channels: usize,
    /// Random/sequential read latency at the flash level, per operation.
    pub ssd_read_lat: Ns,
    /// Write latency into the SLC write cache, per operation.
    pub ssd_write_lat: Ns,
    /// Per-byte read transfer cost on the device's internal bus
    /// (ns per byte; 0.30 ns/B ≈ 3.3 GB/s).
    pub ssd_read_per_byte: f64,
    /// Per-byte write transfer cost (slightly slower than reads).
    pub ssd_write_per_byte: f64,
    /// Per-command controller overhead on the device's shared pipeline
    /// (fetch, parse, completion DMA) — what request merging amortizes.
    pub ssd_cmd_overhead: Ns,
    /// Per-command overhead for writes (higher: FTL mapping updates and
    /// SLC-cache bookkeeping; bounds small random-write IOPS).
    pub ssd_cmd_overhead_write: Ns,
    /// Relative jitter applied to each service time (uniform ±).
    pub ssd_jitter: f64,
    /// Interrupt delivery cost on the host when not polling.
    pub ssd_irq_cost: Ns,

    // ----- guest / VM -----
    /// Guest-side cost to build and submit one NVMe command (fio + guest
    /// block layer + driver), charged to the vCPU.
    pub guest_submit: Ns,
    /// Guest-side completion handling cost per I/O.
    pub guest_complete: Ns,
    /// Latency to inject a virtual interrupt into the guest and schedule
    /// its handler (paid by non-polling guests).
    pub guest_irq_inject: Ns,

    // ----- NVMetro router (and MDev-NVMe, which it extends) -----
    /// Router work per command hop: shadow-queue copy, routing-table
    /// bookkeeping, target queue post.
    pub router_cmd: Ns,
    /// One interpreted vbpf classifier invocation (verified bytecode).
    pub classifier_run: Ns,
    /// MDev-NVMe per-command mediation cost (LBA translation in-module).
    pub mdev_cmd: Ns,
    /// Router/UIF adaptive-polling idle timeout before parking on epoll.
    pub adaptive_idle_timeout: Ns,
    /// Wakeup penalty when a parked adaptive poller must be kicked.
    pub adaptive_wakeup: Ns,
    /// Notify-path post cost (NSQ doorbell + tracking).
    pub notify_post: Ns,
    /// UIF framework per-request overhead (parse, page mapping, NCQ post).
    pub uif_request: Ns,
    /// io_uring submission+completion overhead per I/O issued by a UIF.
    pub io_uring_op: Ns,

    // ----- vhost-scsi -----
    /// Guest virtio kick (vmexit + eventfd signal).
    pub virtio_kick: Ns,
    /// Waking the vhost worker kthread.
    pub vhost_wakeup: Ns,
    /// Per-request SCSI translation + virtio ring handling in the worker.
    pub vhost_request: Ns,
    /// Completion handling in the same vhost worker kthread (response ring
    /// update + interrupt signalling) — serializes with submissions.
    pub vhost_complete: Ns,
    /// Host kernel block-layer cost per request (bio alloc, merge, submit).
    pub block_layer: Ns,

    // ----- QEMU virtio-blk (io_uring backend) -----
    /// Trap + relay from KVM to the QEMU main loop / iothread.
    pub qemu_trap: Ns,
    /// Thread handoff (bottom half → iothread) wakeup latency.
    pub qemu_handoff: Ns,
    /// Per-request cost inside the iothread (virtio parse, io_uring sqe).
    pub qemu_request: Ns,
    /// Per-batch fixed cost (ring scan, io_uring_enter), amortized at
    /// high queue depth — this is why QEMU catches up at QD128.
    pub qemu_batch: Ns,
    /// Number of iothreads QEMU spreads requests across at high QD.
    pub qemu_iothreads: usize,
    /// QEMU iothread adaptive polling window (shorter than NVMetro's).
    pub qemu_poll_timeout: Ns,

    // ----- SPDK vhost-user -----
    /// Per-request cost in the SPDK reactor (userspace NVMe driver).
    pub spdk_request: Ns,
    /// Extra fixed CPU burned by SPDK hugepage/reactor housekeeping,
    /// expressed as additional always-busy reactors.
    pub spdk_reactors: usize,

    // ----- encryption -----
    /// XTS-AES throughput per crypto thread, ns per byte
    /// (0.45 ns/B ≈ 2.2 GB/s with AES-NI). Calibrated to the paper's
    /// figures, not taken from this host: `nvmetro-crypto` on AES-NI
    /// measures 0.20-0.26 ns/B here (EXPERIMENTS.md, "Cipher: measured vs
    /// calibrated"), the same order, and the constant stays as it is so
    /// that virtual time does not depend on the machine.
    pub xts_per_byte: f64,
    /// Fixed cost per encrypted/decrypted request (key schedule reuse,
    /// sector iteration setup).
    pub xts_per_request: Ns,
    /// dm-crypt kcryptd per-request overhead (workqueue bounce, bio clone).
    pub dmcrypt_request: Ns,
    /// dm-crypt single-threaded bookkeeping per request: bio cloning and
    /// the kcryptd_io/dmcrypt_write workqueue bounce (serializes the whole
    /// crypt device — the paper's dm-crypt throughput ceiling).
    pub dmcrypt_io_serial: Ns,
    /// Per-byte component of that serialized stage (page walking and
    /// per-sector bookkeeping at testbed-class clock speeds, ns/B).
    pub dmcrypt_serial_per_byte: f64,
    /// Number of kcryptd workers (bounded by the 4-core VM host side).
    pub dmcrypt_workers: usize,
    /// Worker threads in the non-SGX encryption UIF (paper: 2).
    pub uif_crypto_threads: usize,
    /// SGX: per-byte multiplier for large buffers that thrash the EPC.
    pub sgx_epc_factor: f64,
    /// SGX: buffer size beyond which the EPC factor applies.
    pub sgx_epc_threshold: usize,
    /// SGX: ECALL cost when *not* using switchless calls.
    pub sgx_ecall: Ns,

    // ----- replication -----
    /// One-way network latency of the NVMe-oF Infiniband link.
    pub nvmeof_one_way: Ns,
    /// Per-byte cost of the remote link (ns/B; 0.10 ≈ 10 GB/s IB FDR).
    pub nvmeof_per_byte: f64,
    /// Remote target per-request processing cost.
    pub nvmeof_request: Ns,
    /// dm-mirror (dm-raid1) per-request overhead incl. region locking.
    pub dmmirror_request: Ns,
    /// dm-mirror's single mirror kernel thread: region-lock bookkeeping and
    /// consistency tracking per request (the serialized stage behind the
    /// paper's +68..291% read gaps).
    pub dmmirror_io_serial: Ns,
    /// Per-byte component of the mirror thread's work (ns/B).
    pub dmmirror_serial_per_byte: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            ssd_channels: 12,
            ssd_read_lat: 58 * US,
            ssd_write_lat: 20 * US,
            ssd_read_per_byte: 0.30,
            ssd_write_per_byte: 0.31,
            ssd_cmd_overhead: 1_500,
            ssd_cmd_overhead_write: 3_300,
            ssd_jitter: 0.08,
            ssd_irq_cost: 900,

            guest_submit: 6_000,
            guest_complete: 5_000,
            guest_irq_inject: 10_500,

            router_cmd: 550,
            classifier_run: 260,
            mdev_cmd: 500,
            adaptive_idle_timeout: 8 * US,
            adaptive_wakeup: 4 * US,
            notify_post: 450,
            uif_request: 700,
            io_uring_op: 1_500,

            virtio_kick: 2_200,
            vhost_wakeup: 13_000,
            vhost_request: 4_000,
            vhost_complete: 2_500,
            block_layer: 2_200,

            qemu_trap: 2_500,
            qemu_handoff: 23_000,
            qemu_request: 1_400,
            qemu_batch: 7_000,
            qemu_iothreads: 4,
            qemu_poll_timeout: 18 * US,

            spdk_request: 450,
            spdk_reactors: 2,

            xts_per_byte: 0.45,
            xts_per_request: 400,
            dmcrypt_request: 2_600,
            dmcrypt_io_serial: 4_000,
            dmcrypt_serial_per_byte: 1.15,
            dmcrypt_workers: 4,
            uif_crypto_threads: 2,
            sgx_epc_factor: 2.1,
            sgx_epc_threshold: 8 * 1024,
            sgx_ecall: 8_000,

            nvmeof_one_way: 10 * US,
            nvmeof_per_byte: 0.10,
            nvmeof_request: 2_000,
            dmmirror_request: 2_400,
            dmmirror_io_serial: 15_000,
            dmmirror_serial_per_byte: 1.0,
        }
    }
}

impl CostModel {
    /// SSD service time for the NAND/channel stage of one operation.
    pub fn ssd_channel_cost(&self, write: bool, bytes: usize) -> Ns {
        let (lat, per_byte) = if write {
            (self.ssd_write_lat, self.ssd_write_per_byte)
        } else {
            (self.ssd_read_lat, self.ssd_read_per_byte)
        };
        lat + (bytes as f64 * per_byte * 0.25) as Ns
    }

    /// SSD service time for the shared-bandwidth stage of one operation.
    pub fn ssd_bandwidth_cost(&self, write: bool, bytes: usize) -> Ns {
        let (per_byte, overhead) = if write {
            (self.ssd_write_per_byte, self.ssd_cmd_overhead_write)
        } else {
            (self.ssd_read_per_byte, self.ssd_cmd_overhead)
        };
        overhead + (bytes as f64 * per_byte) as Ns
    }

    /// XTS-AES cost for one request of `bytes` on one crypto thread.
    /// `sgx` applies the EPC-thrash factor for large buffers.
    pub fn xts_cost(&self, bytes: usize, sgx: bool) -> Ns {
        let mut per_byte = self.xts_per_byte;
        if sgx && bytes > self.sgx_epc_threshold {
            per_byte *= self.sgx_epc_factor;
        }
        self.xts_per_request + (bytes as f64 * per_byte) as Ns
    }

    /// Remote-link transfer cost for `bytes` (one direction).
    pub fn nvmeof_transfer(&self, bytes: usize) -> Ns {
        self.nvmeof_one_way + (bytes as f64 * self.nvmeof_per_byte) as Ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_slower_than_writes_at_flash_level() {
        let m = CostModel::default();
        // NAND reads have higher latency than SLC-cached writes.
        assert!(m.ssd_channel_cost(false, 4096) > m.ssd_channel_cost(true, 4096));
    }

    #[test]
    fn bandwidth_cost_scales_linearly_past_fixed_overhead() {
        let m = CostModel::default();
        let small = m.ssd_bandwidth_cost(false, 4096) - m.ssd_cmd_overhead;
        let big = m.ssd_bandwidth_cost(false, 131072) - m.ssd_cmd_overhead;
        assert!(big >= small * 31 && big <= small * 33);
    }

    #[test]
    fn sgx_factor_only_applies_to_large_buffers() {
        let m = CostModel::default();
        assert_eq!(m.xts_cost(4096, false), m.xts_cost(4096, true));
        assert!(m.xts_cost(131072, true) > m.xts_cost(131072, false));
    }

    #[test]
    fn device_bandwidth_is_about_3gbs() {
        let m = CostModel::default();
        // 128 KiB sequential read, bandwidth-stage bound:
        let per_op = (m.ssd_bandwidth_cost(false, 131072) - m.ssd_cmd_overhead) as f64;
        let gbs = 131072.0 / per_op; // bytes per ns == GB/s
        assert!(gbs > 2.5 && gbs < 4.5, "modeled read bandwidth {gbs} GB/s");
    }

    #[test]
    fn remote_transfer_includes_rtt_component() {
        let m = CostModel::default();
        assert!(m.nvmeof_transfer(0) >= m.nvmeof_one_way);
        assert!(m.nvmeof_transfer(1 << 20) > m.nvmeof_transfer(0));
    }
}
