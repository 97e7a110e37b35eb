//! DMA attacks (§3.1).
//!
//! "An attacker could program a DMA-capable peripheral to manipulate the
//! DMA controller and read arbitrary memory regions… DMA attacks are
//! successful even when the mobile device is PIN-locked." The attacker
//! here does exactly that: walk physical memory through a DMA
//! controller, collecting everything readable. TrustZone range
//! protection (iRAM) and software-managed cache coherence (locked L2
//! ways) are the two defences §4.4 analyses.

use sentry_soc::{Soc, SocError};

/// Dump `len` bytes at `base` via DMA, in `chunk`-byte transfers.
/// Regions the controller cannot read (TrustZone-denied or unmapped) are
/// reported separately rather than aborting the sweep — a real attacker
/// skips errors and keeps scanning.
#[must_use]
pub fn dma_dump(soc: &mut Soc, base: u64, len: u64, chunk: usize) -> DmaDump {
    let mut data = Vec::new();
    let mut denied = Vec::new();
    let mut addr = base;
    let end = base + len;
    while addr < end {
        let n = chunk.min((end - addr) as usize);
        match soc.dma_read(0, addr, n) {
            Ok(bytes) => data.push((addr, bytes)),
            Err(SocError::DmaDenied { .. }) => denied.push(addr),
            Err(_) => {} // unmapped: skip
        }
        addr += n as u64;
    }
    DmaDump { data, denied }
}

/// The result of a DMA sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DmaDump {
    /// Readable regions: `(address, bytes)`.
    pub data: Vec<(u64, Vec<u8>)>,
    /// Addresses where TrustZone denied the transfer.
    pub denied: Vec<u64>,
}

impl DmaDump {
    /// Search the dump for a needle; returns hit addresses.
    #[must_use]
    pub fn search(&self, needle: &[u8]) -> Vec<u64> {
        let mut hits = Vec::new();
        for (base, bytes) in &self.data {
            for (off, w) in bytes.windows(needle.len()).enumerate() {
                if w == needle {
                    hits.push(base + off as u64);
                }
            }
        }
        hits
    }

    /// Total bytes successfully read.
    #[must_use]
    pub(crate) fn bytes_read(&self) -> u64 {
        self.data.iter().map(|(_, b)| b.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentry_soc::addr::{DRAM_BASE, IRAM_BASE, IRAM_SIZE};
    use sentry_soc::trustzone::ProtectedRange;

    #[test]
    fn dma_reads_plaintext_from_unprotected_dram() {
        let mut soc = Soc::tegra3_small();
        soc.mem_write(DRAM_BASE + 0x9000, b"credit card 4111")
            .unwrap();
        soc.cache_maintenance_flush(); // steady state
        let dump = dma_dump(&mut soc, DRAM_BASE + 0x8000, 0x4000, 4096);
        assert_eq!(dump.search(b"credit card 4111").len(), 1);
        assert!(dump.denied.is_empty());
    }

    #[test]
    fn dma_cannot_read_trustzone_protected_iram() {
        let mut soc = Soc::tegra3_small();
        let base = IRAM_BASE + sentry_soc::addr::IRAM_FIRMWARE_RESERVED;
        soc.mem_write(base, b"root key").unwrap();
        soc.in_secure_world(|soc| {
            assert!(soc.trustzone.protect(ProtectedRange {
                range: base..IRAM_BASE + IRAM_SIZE,
                deny_dma: true,
                deny_normal_cpu: false,
            }));
        });
        let dump = dma_dump(&mut soc, IRAM_BASE, IRAM_SIZE, 4096);
        assert!(dump.search(b"root key").is_empty());
        assert!(!dump.denied.is_empty(), "TrustZone must deny the sweep");
    }

    #[test]
    fn dma_sees_stale_dram_behind_locked_way() {
        use sentry_core::config::OnSocBackend;
        use sentry_core::onsoc::OnSocStore;
        let mut soc = Soc::tegra3_small();
        let mut store = OnSocStore::new(OnSocBackend::LockedL2 { max_ways: 1 }, &mut soc);
        let page = store.alloc_page(&mut soc).unwrap();
        soc.mem_write(page, b"decrypted page contents").unwrap();
        // DMA bypasses the cache entirely: the locked line's data never
        // appears.
        let dump = dma_dump(&mut soc, page, 4096, 4096);
        assert!(dump.search(b"decrypted page contents").is_empty());
        assert_eq!(dump.bytes_read(), 4096, "the window itself is readable");
    }

    #[test]
    fn sweep_skips_unmapped_holes() {
        let mut soc = Soc::tegra3_small();
        let end = DRAM_BASE + soc.dram.size();
        let dump = dma_dump(&mut soc, end - 4096, 8192, 4096);
        assert_eq!(dump.bytes_read(), 4096);
    }
}
