//! Sparse guest-physical memory.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Guest page size (x86-64, matching NVMe's memory page size default).
pub const PAGE_SIZE: usize = 4096;

const SHARDS: usize = 64;

/// A VM's guest-physical address space.
///
/// Pages are allocated lazily on first touch (zero-filled), so a "6 GB" VM
/// costs only what it actually uses. Access is sharded by page number: the
/// device model, router, and UIF threads can move data concurrently as long
/// as they target different pages — the same discipline real DMA follows.
pub struct GuestMemory {
    shards: Vec<Mutex<HashMap<u64, Box<[u8; PAGE_SIZE]>>>>,
    size: u64,
    /// Bump allocator cursor for [`GuestMemory::alloc`].
    next_alloc: AtomicU64,
}

impl GuestMemory {
    /// Creates an address space of `size` bytes (rounded up to a page).
    pub fn new(size: u64) -> Self {
        let size = size.div_ceil(PAGE_SIZE as u64) * PAGE_SIZE as u64;
        GuestMemory {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            size,
            next_alloc: AtomicU64::new(PAGE_SIZE as u64), // keep GPA 0 unmapped
        }
    }

    /// Total size of the address space in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Allocates a page-aligned guest buffer of `len` bytes and returns its
    /// guest-physical address. This stands in for the guest driver's DMA
    /// buffer allocation; it never reuses space.
    pub fn alloc(&self, len: usize) -> u64 {
        let len = (len.max(1)).div_ceil(PAGE_SIZE) * PAGE_SIZE;
        let gpa = self.next_alloc.fetch_add(len as u64, Ordering::Relaxed);
        assert!(
            gpa + len as u64 <= self.size,
            "guest memory exhausted: {gpa:#x} + {len:#x} > {:#x}",
            self.size
        );
        gpa
    }

    fn shard_for(&self, page: u64) -> &Mutex<HashMap<u64, Box<[u8; PAGE_SIZE]>>> {
        &self.shards[(page as usize) % SHARDS]
    }

    fn check_range(&self, gpa: u64, len: usize) {
        assert!(
            gpa.checked_add(len as u64)
                .is_some_and(|end| end <= self.size),
            "guest access out of bounds: {gpa:#x}+{len:#x} (size {:#x})",
            self.size
        );
    }

    /// Copies `data` into guest memory at `gpa` (may span pages).
    pub fn write(&self, gpa: u64, data: &[u8]) {
        self.check_range(gpa, data.len());
        let mut offset = 0usize;
        while offset < data.len() {
            let addr = gpa + offset as u64;
            let page = addr / PAGE_SIZE as u64;
            let in_page = (addr % PAGE_SIZE as u64) as usize;
            let chunk = (PAGE_SIZE - in_page).min(data.len() - offset);
            let mut shard = self.shard_for(page).lock().unwrap();
            let p = shard
                .entry(page)
                .or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
            p[in_page..in_page + chunk].copy_from_slice(&data[offset..offset + chunk]);
            offset += chunk;
        }
    }

    /// Copies guest memory at `gpa` into `out` (may span pages); untouched
    /// pages read as zeroes.
    pub fn read(&self, gpa: u64, out: &mut [u8]) {
        self.check_range(gpa, out.len());
        let mut offset = 0usize;
        while offset < out.len() {
            let addr = gpa + offset as u64;
            let page = addr / PAGE_SIZE as u64;
            let in_page = (addr % PAGE_SIZE as u64) as usize;
            let chunk = (PAGE_SIZE - in_page).min(out.len() - offset);
            let shard = self.shard_for(page).lock().unwrap();
            match shard.get(&page) {
                Some(p) => {
                    out[offset..offset + chunk].copy_from_slice(&p[in_page..in_page + chunk])
                }
                None => out[offset..offset + chunk].fill(0),
            }
            offset += chunk;
        }
    }

    /// Reads `len` bytes at `gpa` into a fresh vector.
    pub fn read_vec(&self, gpa: u64, len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        self.read(gpa, &mut v);
        v
    }

    /// Applies `f` to `len` bytes at `gpa` and writes the result back: a
    /// read-modify-write through one temporary buffer (one allocation, a
    /// copy out and a copy in), not a borrow of the guest's pages.
    pub fn modify(&self, gpa: u64, len: usize, f: impl FnOnce(&mut [u8])) {
        let mut buf = self.read_vec(gpa, len);
        f(&mut buf);
        self.write(gpa, &buf);
    }

    /// Reads a little-endian u64 (for PRP list entries).
    pub fn read_u64(&self, gpa: u64) -> u64 {
        let mut b = [0u8; 8];
        self.read(gpa, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian u64 (for PRP list entries).
    pub fn write_u64(&self, gpa: u64, v: u64) {
        self.write(gpa, &v.to_le_bytes());
    }

    /// Number of pages currently materialized (for tests/diagnostics).
    pub fn resident_pages(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lazily_materializes_pages() {
        let m = GuestMemory::new(1 << 30);
        assert_eq!(m.resident_pages(), 0);
        m.write(0x10_000, &[1, 2, 3]);
        assert_eq!(m.resident_pages(), 1);
    }

    #[test]
    fn write_read_round_trip() {
        let m = GuestMemory::new(1 << 20);
        let data: Vec<u8> = (0..=255).collect();
        m.write(0x2000, &data);
        assert_eq!(m.read_vec(0x2000, 256), data);
    }

    #[test]
    fn unmapped_memory_reads_zero() {
        let m = GuestMemory::new(1 << 20);
        assert!(m.read_vec(0x3000, 64).iter().all(|&b| b == 0));
    }

    #[test]
    fn cross_page_access_is_seamless() {
        let m = GuestMemory::new(1 << 20);
        let data: Vec<u8> = (0..PAGE_SIZE + 100).map(|i| (i % 251) as u8).collect();
        let gpa = PAGE_SIZE as u64 - 50; // straddles two page boundaries
        m.write(gpa, &data);
        assert_eq!(m.read_vec(gpa, data.len()), data);
    }

    #[test]
    fn alloc_returns_page_aligned_disjoint_regions() {
        let m = GuestMemory::new(1 << 24);
        let a = m.alloc(100);
        let b = m.alloc(PAGE_SIZE + 1);
        let c = m.alloc(1);
        assert_eq!(a % PAGE_SIZE as u64, 0);
        assert_eq!(b % PAGE_SIZE as u64, 0);
        assert!(b >= a + PAGE_SIZE as u64);
        assert!(c >= b + 2 * PAGE_SIZE as u64);
        assert_ne!(a, 0, "GPA 0 must stay unmapped");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_write_panics() {
        let m = GuestMemory::new(PAGE_SIZE as u64);
        m.write(PAGE_SIZE as u64 - 1, &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn alloc_beyond_size_panics() {
        let m = GuestMemory::new(4 * PAGE_SIZE as u64);
        let _ = m.alloc(16 * PAGE_SIZE);
    }

    #[test]
    fn modify_applies_in_place() {
        let m = GuestMemory::new(1 << 20);
        m.write(0x4000, &[1u8; 16]);
        m.modify(0x4000, 16, |b| b.iter_mut().for_each(|x| *x += 1));
        assert_eq!(m.read_vec(0x4000, 16), vec![2u8; 16]);
    }

    #[test]
    fn u64_round_trip() {
        let m = GuestMemory::new(1 << 20);
        m.write_u64(0x5000, 0xDEAD_BEEF_1234_5678);
        assert_eq!(m.read_u64(0x5000), 0xDEAD_BEEF_1234_5678);
    }

    #[test]
    fn concurrent_disjoint_writes() {
        use std::sync::Arc;
        let m = Arc::new(GuestMemory::new(1 << 24));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let m = m.clone();
            handles.push(std::thread::spawn(move || {
                let base = 0x100_000 * (t + 1);
                for i in 0..100u64 {
                    let gpa = base + i * 64;
                    m.write(gpa, &[t as u8; 64]);
                    assert_eq!(m.read_vec(gpa, 64), vec![t as u8; 64]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
