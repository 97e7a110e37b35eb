//! The simulated physical address map.
//!
//! Loosely modelled on the Tegra 3: iRAM sits in a low window, DRAM in a
//! high one. Everything in the workspace addresses memory through these
//! constants, so the map is defined exactly once.

use std::ops::Range;

/// Base physical address of on-SoC iRAM.
pub const IRAM_BASE: u64 = 0x4000_0000;

/// Total iRAM size: 256 KiB, as on the paper's Tegra 3 board.
pub const IRAM_SIZE: u64 = 256 * 1024;

/// Size of the firmware-reserved low region of iRAM. The paper's
/// prototype found the first 64 KiB in use by the tablet's firmware;
/// overwriting it crashes the device (§4.5).
pub const IRAM_FIRMWARE_RESERVED: u64 = 64 * 1024;

/// Base physical address of DRAM.
pub const DRAM_BASE: u64 = 0x8000_0000;

/// Page size used throughout the simulation (ARM small page).
pub const PAGE_SIZE: u64 = 4096;

/// The iRAM physical address range.
#[must_use]
pub(crate) fn iram_range() -> Range<u64> {
    IRAM_BASE..IRAM_BASE + IRAM_SIZE
}

/// The DRAM physical address range for a given DRAM size.
#[must_use]
pub(crate) fn dram_range(dram_size: u64) -> Range<u64> {
    DRAM_BASE..DRAM_BASE + dram_size
}

/// Classification of a physical address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Region {
    /// On-SoC internal SRAM.
    Iram,
    /// Off-SoC DRAM.
    Dram,
    /// Not backed by any memory.
    Unmapped,
}

/// Classify a physical address for a device with `dram_size` bytes of
/// DRAM.
#[must_use]
pub(crate) fn classify(addr: u64, dram_size: u64) -> Region {
    if iram_range().contains(&addr) {
        Region::Iram
    } else if dram_range(dram_size).contains(&addr) {
        Region::Dram
    } else {
        Region::Unmapped
    }
}

/// Check that an access of `len` bytes starting at `addr` stays within a
/// single region, returning that region.
#[must_use]
pub(crate) fn classify_span(addr: u64, len: u64, dram_size: u64) -> Region {
    if len == 0 {
        return classify(addr, dram_size);
    }
    let first = classify(addr, dram_size);
    let last = classify(addr + len - 1, dram_size);
    if first == last {
        first
    } else {
        Region::Unmapped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DRAM: u64 = 64 * 1024 * 1024;

    #[test]
    fn classify_boundaries() {
        assert_eq!(classify(IRAM_BASE, DRAM), Region::Iram);
        assert_eq!(classify(IRAM_BASE + IRAM_SIZE - 1, DRAM), Region::Iram);
        assert_eq!(classify(IRAM_BASE + IRAM_SIZE, DRAM), Region::Unmapped);
        assert_eq!(classify(DRAM_BASE, DRAM), Region::Dram);
        assert_eq!(classify(DRAM_BASE + DRAM - 1, DRAM), Region::Dram);
        assert_eq!(classify(DRAM_BASE + DRAM, DRAM), Region::Unmapped);
        assert_eq!(classify(0, DRAM), Region::Unmapped);
    }

    #[test]
    fn classify_span_rejects_straddles() {
        assert_eq!(
            classify_span(IRAM_BASE + IRAM_SIZE - 4, 8, DRAM),
            Region::Unmapped
        );
        assert_eq!(classify_span(DRAM_BASE, 4096, DRAM), Region::Dram);
        assert_eq!(classify_span(IRAM_BASE, 0, DRAM), Region::Iram);
    }

    #[test]
    fn firmware_reservation_is_a_quarter_of_iram() {
        assert_eq!(IRAM_FIRMWARE_RESERVED * 4, IRAM_SIZE);
    }
}
