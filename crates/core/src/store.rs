//! [`StateStore`] implementations backed by simulated SoC memory.
//!
//! `sentry_crypto::TrackedAes` performs every state access through a
//! store; these adapters decide *where the bytes physically live* in the
//! simulation:
//!
//! * [`CachedSocStore`] — state at an on-SoC address (iRAM, or a
//!   locked-L2 window address whose lines are pinned in the cache).
//!   Accesses go through the normal routed path, so iRAM state never
//!   touches the bus and locked-way state always hits the cache. This is
//!   AES On SoC's store.
//! * [`UncachedSocStore`] — state in DRAM with accesses visible on the
//!   bus. This is the adversarial model of a *generic* AES whose working
//!   set has spilled to DRAM: a bus monitor sees every table lookup (the
//!   §3.1 access-pattern side channel).

use sentry_crypto::{StateStore, TableId};
use sentry_soc::Soc;

/// On-SoC-resident AES state (the safe placement).
pub struct CachedSocStore<'a> {
    soc: &'a mut Soc,
    base: u64,
}

impl<'a> CachedSocStore<'a> {
    /// A store whose byte 0 is physical address `base`.
    #[must_use]
    pub fn new(soc: &'a mut Soc, base: u64) -> Self {
        CachedSocStore { soc, base }
    }
}

impl StateStore for CachedSocStore<'_> {
    fn read(&mut self, offset: usize, buf: &mut [u8]) {
        self.soc
            .mem_read(self.base + offset as u64, buf)
            .expect("AES state region must be mapped");
    }

    fn write(&mut self, offset: usize, data: &[u8]) {
        self.soc
            .mem_write(self.base + offset as u64, data)
            .expect("AES state region must be mapped");
    }
}

/// DRAM-resident AES state with bus-visible accesses (the leaky
/// baseline the attacks exploit).
pub struct UncachedSocStore<'a> {
    soc: &'a mut Soc,
    base: u64,
}

impl<'a> UncachedSocStore<'a> {
    /// A store whose byte 0 is physical DRAM address `base`.
    #[must_use]
    pub fn new(soc: &'a mut Soc, base: u64) -> Self {
        UncachedSocStore { soc, base }
    }
}

impl StateStore for UncachedSocStore<'_> {
    fn read(&mut self, offset: usize, buf: &mut [u8]) {
        self.soc
            .mem_read_uncached(self.base + offset as u64, buf)
            .expect("AES state region must be mapped");
    }

    fn write(&mut self, offset: usize, data: &[u8]) {
        self.soc
            .mem_write_uncached(self.base + offset as u64, data)
            .expect("AES state region must be mapped");
    }

    fn note_table_access(&mut self, _table: TableId, _index: u8) {
        // Nothing extra: the uncached reads themselves are already
        // visible on the bus, which is the point.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentry_crypto::TrackedAes;
    use sentry_soc::addr::{DRAM_BASE, IRAM_BASE, IRAM_FIRMWARE_RESERVED};

    #[test]
    fn tracked_aes_runs_in_iram_without_bus_traffic() {
        let mut soc = Soc::tegra3_small();
        let base = IRAM_BASE + IRAM_FIRMWARE_RESERVED;
        let mut store = CachedSocStore::new(&mut soc, base);
        let aes = TrackedAes::init(&mut store, &[7u8; 16]).unwrap();
        let mut block = [0u8; 16];
        aes.encrypt_block(&mut store, &mut block);
        assert_eq!(soc.bus.reads() + soc.bus.writes(), 0);
        // And the ciphertext matches a plain implementation.
        let reference = sentry_crypto::Aes::new(&[7u8; 16]).unwrap();
        let mut expect = [0u8; 16];
        reference.encrypt_block(&mut expect);
        assert_eq!(block, expect);
    }

    #[test]
    fn uncached_store_is_visible_on_the_bus() {
        let mut soc = Soc::tegra3_small();
        let base = DRAM_BASE + (4 << 20);
        let mut store = UncachedSocStore::new(&mut soc, base);
        let aes = TrackedAes::init(&mut store, &[7u8; 16]).unwrap();
        let mut block = [0u8; 16];
        aes.encrypt_block(&mut store, &mut block);
        assert!(soc.bus.reads() > 100, "table lookups must cross the bus");
        // The key itself is now recoverable from raw DRAM.
        let mut dump = vec![0u8; 64];
        soc.dram.read(base, &mut dump);
        assert!(dump.windows(16).any(|w| w == [7u8; 16]));
    }
}
