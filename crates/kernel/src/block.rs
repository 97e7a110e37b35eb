//! Block devices.
//!
//! The dm-crypt experiments (Figure 9) run over "an in-memory disk
//! partition of 450 MB" — a RAM disk — so that the measurement isolates
//! encryption cost from flash latency. [`RamDisk`] models that device:
//! native storage with a calibrated streaming rate and per-request setup
//! cost.

use crate::error::KernelError;
use sentry_soc::SimClock;

/// Sector size in bytes.
pub const SECTOR_SIZE: usize = 512;

/// A sector-addressed block device.
pub trait BlockDevice {
    /// Device capacity in sectors.
    fn num_sectors(&self) -> u64;

    /// Read whole sectors starting at `sector`.
    ///
    /// # Errors
    ///
    /// [`KernelError::BlockOutOfRange`] if the span exceeds the device.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is not a whole number of sectors.
    fn read_sectors(
        &mut self,
        sector: u64,
        buf: &mut [u8],
        clock: &mut SimClock,
    ) -> Result<(), KernelError>;

    /// Write whole sectors starting at `sector`.
    ///
    /// # Errors
    ///
    /// [`KernelError::BlockOutOfRange`] if the span exceeds the device.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not a whole number of sectors.
    fn write_sectors(
        &mut self,
        sector: u64,
        data: &[u8],
        clock: &mut SimClock,
    ) -> Result<(), KernelError>;
}

/// An in-memory disk.
#[derive(Debug, Clone)]
pub struct RamDisk {
    data: Vec<u8>,
    /// Streaming rate, bytes per second.
    pub(crate) bytes_per_sec: f64,
    /// Fixed per-request cost, nanoseconds (request queuing, completion).
    pub(crate) request_ns: u64,
}

impl RamDisk {
    /// A RAM disk of `sectors` sectors, calibrated to a memcpy-bound
    /// in-memory partition.
    #[must_use]
    pub fn new(sectors: u64) -> Self {
        RamDisk {
            data: vec![0u8; sectors as usize * SECTOR_SIZE],
            bytes_per_sec: 800.0e6,
            request_ns: 2_000,
        }
    }

    fn check(&self, sector: u64, len: usize) -> Result<(), KernelError> {
        assert!(len.is_multiple_of(SECTOR_SIZE), "whole sectors only");
        let end = sector
            .checked_mul(SECTOR_SIZE as u64)
            .and_then(|s| s.checked_add(len as u64));
        match end {
            Some(end) if end <= self.data.len() as u64 => Ok(()),
            _ => Err(KernelError::BlockOutOfRange { sector }),
        }
    }

    fn charge(&self, len: usize, clock: &mut SimClock) {
        clock.advance(self.request_ns + (len as f64 / self.bytes_per_sec * 1e9) as u64);
    }
}

impl BlockDevice for RamDisk {
    fn num_sectors(&self) -> u64 {
        (self.data.len() / SECTOR_SIZE) as u64
    }

    fn read_sectors(
        &mut self,
        sector: u64,
        buf: &mut [u8],
        clock: &mut SimClock,
    ) -> Result<(), KernelError> {
        self.check(sector, buf.len())?;
        let off = sector as usize * SECTOR_SIZE;
        buf.copy_from_slice(&self.data[off..off + buf.len()]);
        self.charge(buf.len(), clock);
        Ok(())
    }

    fn write_sectors(
        &mut self,
        sector: u64,
        data: &[u8],
        clock: &mut SimClock,
    ) -> Result<(), KernelError> {
        self.check(sector, data.len())?;
        let off = sector as usize * SECTOR_SIZE;
        self.data[off..off + data.len()].copy_from_slice(data);
        self.charge(data.len(), clock);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut disk = RamDisk::new(128);
        let mut clock = SimClock::new();
        let data = vec![0xAB; SECTOR_SIZE * 2];
        disk.write_sectors(3, &data, &mut clock).unwrap();
        let mut buf = vec![0u8; SECTOR_SIZE * 2];
        disk.read_sectors(3, &mut buf, &mut clock).unwrap();
        assert_eq!(buf, data);
        assert!(clock.now_ns() > 0);
    }

    #[test]
    fn out_of_range_is_rejected() {
        let mut disk = RamDisk::new(4);
        let mut clock = SimClock::new();
        let mut buf = vec![0u8; SECTOR_SIZE];
        assert!(matches!(
            disk.read_sectors(4, &mut buf, &mut clock),
            Err(KernelError::BlockOutOfRange { sector: 4 })
        ));
        // Overflow-safe check.
        assert!(disk
            .read_sectors(u64::MAX / 256, &mut buf, &mut clock)
            .is_err());
    }

    #[test]
    #[should_panic(expected = "whole sectors")]
    fn partial_sectors_panic() {
        let mut disk = RamDisk::new(4);
        let mut clock = SimClock::new();
        let mut buf = vec![0u8; 100];
        let _ = disk.read_sectors(0, &mut buf, &mut clock);
    }

    #[test]
    fn timing_scales_with_size() {
        let mut disk = RamDisk::new(4096);
        let mut c1 = SimClock::new();
        let mut c2 = SimClock::new();
        let small = vec![0u8; SECTOR_SIZE];
        let large = vec![0u8; SECTOR_SIZE * 64];
        disk.write_sectors(0, &small, &mut c1).unwrap();
        disk.write_sectors(0, &large, &mut c2).unwrap();
        assert!(c2.now_ns() > c1.now_ns());
    }
}
