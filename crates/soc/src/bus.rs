//! The external memory bus between the SoC and DRAM.
//!
//! Every DRAM transaction — cache line fills and write-backs, uncached
//! CPU accesses, and DMA transfers — crosses this bus, where an attacker
//! with physical access can attach a bus monitoring probe (§3.1). iRAM
//! and L2-cache traffic stays inside the SoC package and never appears
//! here; that asymmetry is the heart of Sentry's defence.

use std::sync::Arc;

/// Direction of a bus transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BusOp {
    /// DRAM → SoC (line fill, uncached load, DMA read).
    Read,
    /// SoC → DRAM (write-back, uncached store, DMA write).
    Write,
}

/// Who initiated a bus transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BusMaster {
    /// The CPU cluster via the L2 cache (line fills and write-backs).
    Cache,
    /// The CPU performing an uncached access.
    CpuUncached,
    /// A DMA controller.
    Dma,
    /// The crypto accelerator fetching/storing data.
    CryptoAccel,
}

/// One observable bus transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BusTransaction {
    /// Simulated time of the transaction, in nanoseconds.
    pub at_ns: u64,
    /// Direction.
    pub op: BusOp,
    /// Initiator.
    pub master: BusMaster,
    /// Physical DRAM address.
    pub addr: u64,
    /// The bytes on the wire.
    pub data: Vec<u8>,
}

/// A passive probe attached to the bus — the attacker's bus monitor, or
/// diagnostic instrumentation.
pub trait BusObserver: Send + Sync {
    /// Called for every transaction that crosses the bus.
    fn observe(&self, tx: &BusTransaction);
}

/// The memory bus: notifies observers and keeps traffic counters.
#[derive(Default)]
pub struct Bus {
    observers: Vec<Arc<dyn BusObserver>>,
    reads: u64,
    writes: u64,
    bytes_read: u64,
    bytes_written: u64,
}

impl std::fmt::Debug for Bus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bus")
            .field("observers", &self.observers.len())
            .field("reads", &self.reads)
            .field("writes", &self.writes)
            .field("bytes_read", &self.bytes_read)
            .field("bytes_written", &self.bytes_written)
            .finish()
    }
}

impl Bus {
    /// A bus with no observers attached.
    #[must_use]
    pub fn new() -> Self {
        Bus::default()
    }

    /// Attach a probe. Attaching requires only physical access to the
    /// board — no software privilege — which is why the threat model
    /// considers it (§3.1).
    pub fn attach(&mut self, observer: Arc<dyn BusObserver>) {
        self.observers.push(observer);
    }

    /// Record a transaction, notifying all observers.
    pub(crate) fn transact(
        &mut self,
        at_ns: u64,
        op: BusOp,
        master: BusMaster,
        addr: u64,
        data: &[u8],
    ) {
        match op {
            BusOp::Read => {
                self.reads += 1;
                self.bytes_read += data.len() as u64;
            }
            BusOp::Write => {
                self.writes += 1;
                self.bytes_written += data.len() as u64;
            }
        }
        if !self.observers.is_empty() {
            let tx = BusTransaction {
                at_ns,
                op,
                master,
                addr,
                data: data.to_vec(),
            };
            for obs in &self.observers {
                obs.observe(&tx);
            }
        }
    }

    /// Total read transactions.
    #[must_use]
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Total write transactions.
    #[must_use]
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Total bytes that crossed the bus toward the SoC.
    #[must_use]
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Total bytes that crossed the bus toward DRAM.
    #[must_use]
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[derive(Default)]
    struct Recorder {
        seen: Mutex<Vec<BusTransaction>>,
    }

    impl BusObserver for Recorder {
        fn observe(&self, tx: &BusTransaction) {
            self.seen
                .lock()
                .expect("recorder lock poisoned")
                .push(tx.clone());
        }
    }

    #[test]
    fn observers_see_all_traffic() {
        let mut bus = Bus::new();
        let rec = Arc::new(Recorder::default());
        bus.attach(rec.clone());
        bus.transact(
            10,
            BusOp::Write,
            BusMaster::Cache,
            0x8000_0000,
            b"secret-data",
        );
        bus.transact(20, BusOp::Read, BusMaster::Dma, 0x8000_0100, &[1, 2, 3]);
        let seen = rec.seen.lock().expect("recorder lock poisoned");
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0].data, b"secret-data");
        assert_eq!(seen[1].master, BusMaster::Dma);
    }

    #[test]
    fn counters_track_bytes_and_ops() {
        let mut bus = Bus::new();
        bus.transact(
            0,
            BusOp::Write,
            BusMaster::CpuUncached,
            0x8000_0000,
            &[0u8; 32],
        );
        bus.transact(0, BusOp::Read, BusMaster::Cache, 0x8000_0000, &[0u8; 64]);
        assert_eq!(bus.writes(), 1);
        assert_eq!(bus.reads(), 1);
        assert_eq!(bus.bytes_written(), 32);
        assert_eq!(bus.bytes_read(), 64);
    }
}
