//! On-SoC internal SRAM (iRAM).
//!
//! A small amount of SRAM on the SoC whose primary role is holding
//! peripheral firmware runtime state (§4.1). Sentry repurposes the
//! non-reserved portion as attack-proof storage: iRAM traffic never
//! crosses the external memory bus, and the boot firmware zeroes it on
//! every power-on reset, so cold boot recovers nothing.
//!
//! Physically, SRAM *does* exhibit data remanence — it decays more slowly
//! than DRAM (§4.1 cites Cakir et al. and Skorobogatov) — which is why
//! the firmware zeroing step is essential. The model keeps both effects
//! separate so experiments can show what an attacker would recover if a
//! vendor shipped firmware without the zeroing step.

use crate::addr::{IRAM_BASE, IRAM_FIRMWARE_RESERVED, IRAM_SIZE};
use crate::rng::DetRng;

/// SRAM remanence: retention is high over short power cuts.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SramRemanence {
    /// Decay time constant in seconds at room temperature. SRAM retains
    /// data for tens of seconds (longer when cold).
    pub(crate) tau_secs: f64,
}

impl Default for SramRemanence {
    fn default() -> Self {
        SramRemanence { tau_secs: 30.0 }
    }
}

impl SramRemanence {
    /// Cell survival probability after `seconds` without power.
    #[must_use]
    pub(crate) fn survival(&self, seconds: f64) -> f64 {
        (-seconds / self.tau_secs).exp()
    }
}

/// The 256 KiB on-SoC SRAM.
#[derive(Debug, Clone)]
pub struct Iram {
    bytes: Vec<u8>,
    remanence: SramRemanence,
    rng: DetRng,
    /// When true (the default, matching the paper's Tegra 3), writes to
    /// the firmware-reserved low 64 KiB are rejected as device-crashing.
    pub(crate) enforce_firmware_reservation: bool,
}

impl Iram {
    /// Create zeroed iRAM with a deterministic decay seed.
    #[must_use]
    pub(crate) fn new(seed: u64) -> Self {
        Iram {
            bytes: vec![0u8; IRAM_SIZE as usize],
            remanence: SramRemanence::default(),
            rng: DetRng::new(seed),
            enforce_firmware_reservation: true,
        }
    }

    /// True if `addr..addr+len` lies within iRAM.
    #[must_use]
    pub(crate) fn contains(&self, addr: u64, len: usize) -> bool {
        addr >= IRAM_BASE && addr + len as u64 <= IRAM_BASE + IRAM_SIZE
    }

    /// True if the span overlaps the firmware-reserved low 64 KiB.
    #[must_use]
    pub(crate) fn in_firmware_region(&self, addr: u64, len: usize) -> bool {
        addr < IRAM_BASE + IRAM_FIRMWARE_RESERVED && addr + len as u64 > IRAM_BASE
    }

    /// Read iRAM. iRAM accesses never touch the external bus.
    ///
    /// # Panics
    ///
    /// Panics if the span falls outside iRAM; the SoC router validates
    /// addresses first.
    pub(crate) fn read(&self, addr: u64, buf: &mut [u8]) {
        assert!(self.contains(addr, buf.len()), "iRAM read out of range");
        let off = (addr - IRAM_BASE) as usize;
        buf.copy_from_slice(&self.bytes[off..off + buf.len()]);
    }

    /// Write iRAM.
    ///
    /// Returns `false` (and writes nothing) if the write touches the
    /// firmware-reserved region while enforcement is on — the caller
    /// surfaces this as [`crate::SocError::IramFirmwareRegion`].
    ///
    /// # Panics
    ///
    /// Panics if the span falls outside iRAM.
    #[must_use]
    pub(crate) fn write(&mut self, addr: u64, data: &[u8]) -> bool {
        assert!(self.contains(addr, data.len()), "iRAM write out of range");
        if self.enforce_firmware_reservation && self.in_firmware_region(addr, data.len()) {
            return false;
        }
        let off = (addr - IRAM_BASE) as usize;
        self.bytes[off..off + data.len()].copy_from_slice(data);
        true
    }

    /// Apply SRAM decay for a power cut of `seconds`. (Firmware zeroing
    /// on the subsequent boot is modelled separately in
    /// [`crate::firmware`].)
    pub(crate) fn apply_power_loss(&mut self, seconds: f64) {
        let survival = self.remanence.survival(seconds);
        // Collect decayed cells first to avoid borrowing `bytes` while
        // sampling.
        for i in (0..self.bytes.len()).step_by(8) {
            if self.rng.next_f64() >= survival {
                let end = (i + 8).min(self.bytes.len());
                self.rng.fill(&mut self.bytes[i..end]);
            }
        }
    }

    /// Zero the entire iRAM (the boot firmware's power-on duty, §4.1).
    pub fn zeroize(&mut self) {
        self.bytes.fill(0);
    }

    /// Borrow the full contents (used by cold-boot attack dumps).
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Count non-overlapping aligned occurrences of an 8-byte pattern.
    #[must_use]
    pub fn count_pattern(&self, pattern: &[u8; 8]) -> u64 {
        self.bytes
            .chunks_exact(8)
            .filter(|cell| cell == pattern)
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_above_firmware_region() {
        let mut iram = Iram::new(1);
        let addr = IRAM_BASE + IRAM_FIRMWARE_RESERVED;
        assert!(iram.write(addr, b"hello"));
        let mut buf = [0u8; 5];
        iram.read(addr, &mut buf);
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn firmware_region_writes_are_rejected() {
        let mut iram = Iram::new(1);
        assert!(!iram.write(IRAM_BASE, b"boom"));
        assert!(!iram.write(IRAM_BASE + IRAM_FIRMWARE_RESERVED - 2, b"boom"));
    }

    #[test]
    fn sram_retains_across_short_cuts_but_decays_eventually() {
        let mut iram = Iram::new(3);
        let base = IRAM_BASE + IRAM_FIRMWARE_RESERVED;
        for i in 0..1000u64 {
            assert!(iram.write(base + i * 8, b"SENTRYOK"));
        }
        iram.apply_power_loss(2.0);
        let after_2s = iram.count_pattern(b"SENTRYOK");
        // SRAM decays slowly: ~94% survives 2 seconds.
        assert!(after_2s > 900, "after 2s: {after_2s}");
        iram.apply_power_loss(300.0);
        let after_long = iram.count_pattern(b"SENTRYOK");
        assert!(after_long < 10, "after long cut: {after_long}");
    }

    #[test]
    fn zeroize_clears_everything() {
        let mut iram = Iram::new(5);
        assert!(iram.write(IRAM_BASE + IRAM_FIRMWARE_RESERVED, &[0xFFu8; 128]));
        iram.zeroize();
        assert!(iram.as_bytes().iter().all(|&b| b == 0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_read_panics() {
        let iram = Iram::new(0);
        let mut buf = [0u8; 4];
        iram.read(IRAM_BASE + IRAM_SIZE - 2, &mut buf);
    }
}
