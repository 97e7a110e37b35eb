//! The simulation clock and the calibrated cost model.
//!
//! All timing in the reproduction is *simulated time*: a deterministic
//! nanosecond counter advanced by the cost model below. The constants are
//! calibrated so the experiment harness reproduces the paper's measured
//! shapes (e.g., generic AES at ~21 MB/s on the Tegra 3 and ~45 MB/s on
//! the Nexus 4, Figure 11). Changing a constant rescales absolute numbers
//! but preserves the qualitative results, which is what EXPERIMENTS.md
//! asserts.

/// A deterministic nanosecond clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimClock {
    now_ns: u64,
}

impl SimClock {
    /// A clock starting at zero.
    #[must_use]
    pub fn new() -> Self {
        SimClock::default()
    }

    /// Current simulated time in nanoseconds.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Advance the clock by `ns` nanoseconds.
    pub fn advance(&mut self, ns: u64) {
        self.now_ns = self.now_ns.saturating_add(ns);
    }

    /// Overwrite the current time.
    ///
    /// Exists for cost-model substitution: a caller that performs memory
    /// traffic through the simulated hierarchy but has a *calibrated*
    /// end-to-end cost for the whole operation (e.g., the kernel's
    /// freed-page zeroing thread, measured at 4.014 GB/s in the paper)
    /// rolls back the per-access charges and applies its own. Use
    /// sparingly and document each call site.
    pub fn set_now_ns(&mut self, ns: u64) {
        self.now_ns = ns;
    }
}

/// Calibrated per-operation costs, in nanoseconds.
///
/// Each field documents the paper measurement it is calibrated against.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// L2 cache hit (CPU load/store served by the PL310), per 32-byte
    /// line touched. Calibrated with `aes_block_compute_ns` so table-
    /// driven AES with cache-resident state runs at the platform's
    /// generic-AES throughput (Figure 11).
    pub cache_hit_ns: u64,
    /// DRAM line fill / write-back over the bus, per 32-byte line.
    /// Roughly 60 ns on a Cortex-A9 class memory system.
    pub dram_line_ns: u64,
    /// iRAM access, per 32-byte span. On-SoC SRAM is slower than an L2
    /// hit but far faster than DRAM; the paper found AES On SoC in iRAM
    /// within 1% of generic AES (Figure 11, right).
    pub iram_access_ns: u64,
    /// Fixed arithmetic cost of one AES block (the non-memory part of 10
    /// rounds on one core).
    pub aes_block_compute_ns: u64,
    /// Taking a page fault into the kernel and returning (trap,
    /// handler dispatch, PTE update, TLB maintenance).
    pub page_fault_ns: u64,
    /// One context switch (register spill/restore and scheduler pass).
    pub(crate) context_switch_ns: u64,
    /// Programming the PL310 (lockdown register write, sync).
    pub(crate) cache_op_ns: u64,
    /// Full L2 clean-and-invalidate, per way flushed.
    pub(crate) cache_flush_way_ns: u64,
    /// memcpy of one 4 KiB page between on-SoC memory and DRAM.
    pub page_copy_ns: u64,
    /// Rate of the kernel's freed-page zeroing thread in bytes per
    /// second. Measured in the paper at 4.014 GB/s on the Nexus 4 (§7).
    pub(crate) zeroing_bytes_per_sec: f64,
}

impl CostModel {
    /// Costs calibrated for the NVIDIA Tegra 3 development board
    /// (quad Cortex-A9 @ 1.2 GHz): generic AES ≈ 21 MB/s (Figure 11,
    /// right).
    #[must_use]
    pub fn tegra3() -> Self {
        CostModel {
            cache_hit_ns: 2,
            dram_line_ns: 60,
            iram_access_ns: 3,
            aes_block_compute_ns: 750,
            page_fault_ns: 9_000,
            context_switch_ns: 12_000,
            cache_op_ns: 300,
            cache_flush_way_ns: 25_000,
            page_copy_ns: 2_600,
            zeroing_bytes_per_sec: 2.0e9,
        }
    }

    /// Costs calibrated for the Google Nexus 4 (quad Krait @ 1.5 GHz):
    /// generic AES ≈ 45 MB/s in user space (Figure 11, left).
    #[must_use]
    pub(crate) fn nexus4() -> Self {
        CostModel {
            cache_hit_ns: 1,
            dram_line_ns: 45,
            iram_access_ns: 2,
            aes_block_compute_ns: 350,
            // End-to-end cost of one Android page fault through Sentry's
            // modified handler (trap, dispatch, PTE/TLB maintenance,
            // crypto setup). Calibrated so Figure 3's on-demand
            // decryption overheads land at the paper's 0.2–4.3%.
            page_fault_ns: 100_000,
            context_switch_ns: 8_000,
            cache_op_ns: 250,
            cache_flush_way_ns: 20_000,
            page_copy_ns: 1_400,
            zeroing_bytes_per_sec: 4.014e9,
        }
    }

    /// Simulated time for software AES over `bytes`: per 16-byte block,
    /// the arithmetic plus four state accesses of `state_access_ns` each
    /// (a cache hit for DRAM-backed or locked-L2 state, an iRAM access
    /// for iRAM-resident state). Every engine and lane charges this.
    #[must_use]
    pub fn aes_ns(&self, bytes: u64, state_access_ns: u64) -> u64 {
        (bytes / 16) * (self.aes_block_compute_ns + 4 * state_access_ns)
    }

    /// Simulated time to zero `bytes` with the kernel zeroing thread.
    #[must_use]
    pub fn zeroing_ns(&self, bytes: u64) -> u64 {
        (bytes as f64 / self.zeroing_bytes_per_sec * 1e9) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances() {
        let mut c = SimClock::new();
        assert_eq!(c.now_ns(), 0);
        c.advance(1_000);
        c.advance(500);
        assert_eq!(c.now_ns(), 1_500);
    }

    #[test]
    fn clock_saturates_instead_of_overflowing() {
        let mut c = SimClock::new();
        c.advance(u64::MAX);
        c.advance(10);
        assert_eq!(c.now_ns(), u64::MAX);
    }

    #[test]
    fn zeroing_rate_matches_paper_measurement() {
        // 1 GiB at 4.014 GB/s is about a quarter of a second.
        let m = CostModel::nexus4();
        let ns = m.zeroing_ns(1 << 30);
        let secs = ns as f64 / 1e9;
        assert!((0.2..0.3).contains(&secs), "got {secs}");
    }

    #[test]
    fn nexus_is_faster_than_tegra() {
        // The paper notes the Nexus 4 is "much faster" than the Tegra
        // board (Figure 11).
        let t = CostModel::tegra3();
        let n = CostModel::nexus4();
        assert!(n.aes_block_compute_ns < t.aes_block_compute_ns);
        assert!(n.dram_line_ns < t.dram_line_ns);
    }
}
