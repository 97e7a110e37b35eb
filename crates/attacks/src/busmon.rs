//! Bus monitoring attacks (§3.1).
//!
//! A bus monitor is a passive probe on the memory bus: it sees every
//! transaction between the SoC and DRAM — addresses and data. Beyond
//! grepping traffic for secrets, it enables an access-pattern side
//! channel: AES implementations look up precomputed tables whose *entry
//! indices* are key-dependent, and "previous work has shown fast ways to
//! break AES if its state access patterns are known".
//!
//! The monitor here is an ordinary [`BusObserver`]; attaching it needs
//! physical access only.

use sentry_soc::bus::{BusObserver, BusOp, BusTransaction};
use std::sync::Arc;
use std::sync::Mutex;

/// A recording bus probe.
#[derive(Debug, Default)]
pub struct BusMonitor {
    log: Mutex<Vec<BusTransaction>>,
}

impl BusMonitor {
    /// Create a monitor and return the `Arc` to attach via
    /// [`sentry_soc::bus::Bus::attach`].
    #[must_use]
    pub fn attach_new(bus: &mut sentry_soc::bus::Bus) -> Arc<Self> {
        let mon = Arc::new(BusMonitor::default());
        bus.attach(mon.clone());
        mon
    }

    /// Number of recorded transactions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.log.lock().expect("bus monitor lock poisoned").len()
    }

    /// Whether nothing has been observed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.log
            .lock()
            .expect("bus monitor lock poisoned")
            .is_empty()
    }

    /// Clear the log (e.g., between experiment phases).
    pub fn clear(&self) {
        self.log.lock().expect("bus monitor lock poisoned").clear();
    }

    /// Search all observed data for a byte needle. Returns the addresses
    /// of transactions whose payload contained it.
    #[must_use]
    pub fn find_in_traffic(&self, needle: &[u8]) -> Vec<u64> {
        self.log
            .lock()
            .expect("bus monitor lock poisoned")
            .iter()
            .filter(|tx| tx.data.windows(needle.len()).any(|w| w == needle))
            .map(|tx| tx.addr)
            .collect()
    }

    /// Extract the access-pattern side channel: the sequence of entry
    /// indices read from a lookup table occupying
    /// `[table_base, table_base + entries * entry_size)`.
    #[must_use]
    pub fn table_access_indices(&self, table_base: u64, entries: u64, entry_size: u64) -> Vec<u8> {
        let end = table_base + entries * entry_size;
        self.log
            .lock()
            .expect("bus monitor lock poisoned")
            .iter()
            .filter(|tx| tx.op == BusOp::Read && tx.addr >= table_base && tx.addr < end)
            .map(|tx| ((tx.addr - table_base) / entry_size) as u8)
            .collect()
    }
}

impl BusObserver for BusMonitor {
    fn observe(&self, tx: &BusTransaction) {
        self.log
            .lock()
            .expect("bus monitor lock poisoned")
            .push(tx.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentry_core::store::{CachedSocStore, UncachedSocStore};
    use sentry_crypto::{AesStateLayout, KeySize, TrackedAes};
    use sentry_soc::addr::{DRAM_BASE, IRAM_BASE, IRAM_FIRMWARE_RESERVED};
    use sentry_soc::Soc;

    #[test]
    fn monitor_greps_secrets_from_dram_traffic() {
        let mut soc = Soc::tegra3_small();
        let mon = BusMonitor::attach_new(&mut soc.bus);
        soc.mem_write_uncached(DRAM_BASE + 0x100, b"PIN:4521")
            .unwrap();
        assert_eq!(mon.find_in_traffic(b"PIN:4521").len(), 1);
    }

    #[test]
    fn dram_aes_leaks_key_dependent_table_access_pattern() {
        // The side channel: with AES state in DRAM, the monitor sees
        // which Te entries each encryption touches, and the sequence
        // depends on the key.
        let trace_for_key = |key: [u8; 16]| {
            let mut soc = Soc::tegra3_small();
            let mon = BusMonitor::attach_new(&mut soc.bus);
            let base = DRAM_BASE + (4 << 20);
            let mut store = UncachedSocStore::new(&mut soc, base);
            let aes = TrackedAes::init(&mut store, &key).unwrap();
            mon.clear(); // ignore key-schedule traffic
            let mut block = [0u8; 16];
            aes.encrypt_block(&mut store, &mut block);
            let layout = AesStateLayout::for_key_size(KeySize::Aes128);
            let te_base = base + layout.component("2 Round Tables").offset as u64;
            mon.table_access_indices(te_base, 256, 4)
        };
        let a = trace_for_key([0u8; 16]);
        let b = trace_for_key([1u8; 16]);
        assert!(
            a.len() >= 9 * 16,
            "all main-round lookups observed: {}",
            a.len()
        );
        assert_ne!(a, b, "pattern must be key-dependent");
    }

    #[test]
    fn onsoc_aes_is_invisible_to_the_monitor() {
        let mut soc = Soc::tegra3_small();
        let mon = BusMonitor::attach_new(&mut soc.bus);
        let base = IRAM_BASE + IRAM_FIRMWARE_RESERVED;
        let mut store = CachedSocStore::new(&mut soc, base);
        let aes = TrackedAes::init(&mut store, &[9u8; 16]).unwrap();
        let mut block = *b"super secret txt";
        aes.encrypt_block(&mut store, &mut block);
        assert!(mon.is_empty(), "on-SoC AES must produce zero bus traffic");
        assert!(mon.find_in_traffic(b"super secret txt").is_empty());
    }

    #[test]
    fn clear_and_counters() {
        let mut soc = Soc::tegra3_small();
        let mon = BusMonitor::attach_new(&mut soc.bus);
        soc.mem_write_uncached(DRAM_BASE, &[1u8; 64]).unwrap();
        assert_eq!(mon.len(), 1);
        mon.clear();
        assert!(mon.is_empty());
    }
}
