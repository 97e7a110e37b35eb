//! DMA controllers and the UART loopback debug port.
//!
//! DMA peripherals transfer data to and from physical memory without CPU
//! cooperation. Two properties matter to Sentry:
//!
//! * **DMA bypasses the L2 cache.** On these SoCs, cache coherence for
//!   DMA is handled in software (§4.4), so a DMA read returns whatever is
//!   in DRAM — *not* dirty data held in (locked) cache lines. This is
//!   both how the paper validated PL310 write-back behaviour (§4.2) and
//!   why locked-cache storage is immune to DMA attacks.
//! * **DMA reaches iRAM like any other memory** unless TrustZone range
//!   protection intervenes (§4.4).
//!
//! The [`UartDebugPort`] reproduces the validation apparatus of §4.2: a
//! high-speed serial controller's debugging port that loops back all data
//! written to it, letting the experimenter DMA physical memory out and
//! read the bytes over the serial line.

use crate::addr::{self, Region};
use crate::bus::{BusMaster, BusOp};
use crate::cache::MemPath;
use crate::error::SocError;
use crate::iram::Iram;
use crate::trustzone::TrustZone;

/// A DMA controller that can be programmed to move bytes between
/// physical memory and a device.
///
/// Programming a controller requires no CPU privilege beyond access to
/// its MMIO registers, which is why a malicious peripheral (Firewire-
/// style attack, §3.1) can use it even on a PIN-locked device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DmaController {
    /// Controller index (a device may have several).
    pub(crate) id: u8,
}

impl DmaController {
    /// Read `len` bytes of physical memory, bypassing the L2 cache.
    ///
    /// # Errors
    ///
    /// * [`SocError::DmaDenied`] if TrustZone protects any byte of the
    ///   span from DMA.
    /// * [`SocError::Unmapped`] if the span is not backed by DRAM or
    ///   iRAM.
    pub(crate) fn read_phys(
        &self,
        addr: u64,
        len: usize,
        tz: &TrustZone,
        iram: &Iram,
        path: &mut MemPath<'_>,
    ) -> Result<Vec<u8>, SocError> {
        if !tz.dma_allowed(addr, len as u64) {
            return Err(SocError::DmaDenied { addr });
        }
        let mut buf = vec![0u8; len];
        match addr::classify_span(addr, len as u64, path.dram.size()) {
            Region::Dram => {
                path.dram.read(addr, &mut buf);
                path.clock
                    .advance(path.costs.dram_line_ns * (len as u64 / 32 + 1));
                path.bus
                    .transact(path.clock.now_ns(), BusOp::Read, BusMaster::Dma, addr, &buf);
                Ok(buf)
            }
            Region::Iram => {
                // iRAM DMA stays on-SoC: no external bus transaction.
                iram.read(addr, &mut buf);
                path.clock
                    .advance(path.costs.iram_access_ns * (len as u64 / 32 + 1));
                Ok(buf)
            }
            Region::Unmapped => Err(SocError::Unmapped { addr, len }),
        }
    }

    /// Write bytes to physical memory, bypassing the L2 cache.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DmaController::read_phys`]; additionally
    /// [`SocError::IramFirmwareRegion`] for writes into reserved iRAM.
    pub(crate) fn write_phys(
        &self,
        addr: u64,
        data: &[u8],
        tz: &TrustZone,
        iram: &mut Iram,
        path: &mut MemPath<'_>,
    ) -> Result<(), SocError> {
        if !tz.dma_allowed(addr, data.len() as u64) {
            return Err(SocError::DmaDenied { addr });
        }
        match addr::classify_span(addr, data.len() as u64, path.dram.size()) {
            Region::Dram => {
                path.dram.write(addr, data);
                path.clock
                    .advance(path.costs.dram_line_ns * (data.len() as u64 / 32 + 1));
                path.bus.transact(
                    path.clock.now_ns(),
                    BusOp::Write,
                    BusMaster::Dma,
                    addr,
                    data,
                );
                Ok(())
            }
            Region::Iram => {
                if iram.write(addr, data) {
                    path.clock
                        .advance(path.costs.iram_access_ns * (data.len() as u64 / 32 + 1));
                    Ok(())
                } else {
                    Err(SocError::IramFirmwareRegion { addr })
                }
            }
            Region::Unmapped => Err(SocError::Unmapped {
                addr,
                len: data.len(),
            }),
        }
    }
}

/// The UART controller's loopback debugging port (§4.2).
///
/// Writing to the port stores the bytes in its FIFO; reading the serial
/// line returns them. The paper used this to get DMA-read memory out of
/// the device: "we modified the driver to DMA data to this debugging
/// port and then read the serial port to output its contents."
#[derive(Debug, Clone, Default)]
pub struct UartDebugPort {
    fifo: Vec<u8>,
}

impl UartDebugPort {
    /// An empty loopback port.
    #[must_use]
    pub(crate) fn new() -> Self {
        UartDebugPort::default()
    }

    /// DMA `len` bytes from physical memory into the port — the §4.2
    /// experiment's outbound half.
    ///
    /// # Errors
    ///
    /// Propagates the DMA errors of [`DmaController::read_phys`].
    pub(crate) fn dma_from_memory(
        &mut self,
        ctrl: &DmaController,
        addr: u64,
        len: usize,
        tz: &TrustZone,
        iram: &Iram,
        path: &mut MemPath<'_>,
    ) -> Result<(), SocError> {
        let data = ctrl.read_phys(addr, len, tz, iram, path)?;
        self.fifo.extend_from_slice(&data);
        Ok(())
    }

    /// Read everything looped back so far, draining the FIFO.
    pub fn read_serial(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.fifo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{DRAM_BASE, IRAM_BASE, IRAM_FIRMWARE_RESERVED};
    use crate::bus::Bus;
    use crate::clock::{CostModel, SimClock};
    use crate::dram::{Dram, RemanenceModel};
    use crate::trustzone::{ProtectedRange, World};

    struct Fix {
        dram: Dram,
        bus: Bus,
        clock: SimClock,
        costs: CostModel,
        iram: Iram,
        tz: TrustZone,
    }

    fn fix() -> Fix {
        Fix {
            dram: Dram::new(16 * 1024 * 1024, RemanenceModel::default(), 1),
            bus: Bus::new(),
            clock: SimClock::new(),
            costs: CostModel::tegra3(),
            iram: Iram::new(2),
            tz: TrustZone::new([0u8; 32]),
        }
    }

    macro_rules! path {
        ($f:expr) => {
            &mut MemPath {
                dram: &mut $f.dram,
                bus: &mut $f.bus,
                clock: &mut $f.clock,
                costs: &$f.costs,
            }
        };
    }

    #[test]
    fn dma_reads_dram_directly() {
        let mut f = fix();
        f.dram.write(DRAM_BASE + 0x100, b"plaintext");
        let ctrl = DmaController { id: 0 };
        let data = ctrl
            .read_phys(DRAM_BASE + 0x100, 9, &f.tz, &f.iram, path!(f))
            .unwrap();
        assert_eq!(&data, b"plaintext");
        assert!(f.bus.reads() > 0, "DRAM DMA crosses the bus");
    }

    #[test]
    fn dma_reads_iram_without_bus_traffic() {
        let mut f = fix();
        let addr = IRAM_BASE + IRAM_FIRMWARE_RESERVED;
        assert!(f.iram.write(addr, b"iram-secret"));
        let ctrl = DmaController { id: 0 };
        let data = ctrl.read_phys(addr, 11, &f.tz, &f.iram, path!(f)).unwrap();
        assert_eq!(&data, b"iram-secret");
        assert_eq!(f.bus.reads(), 0, "iRAM DMA is on-SoC");
    }

    #[test]
    fn trustzone_blocks_dma_to_protected_iram() {
        let mut f = fix();
        let addr = IRAM_BASE + IRAM_FIRMWARE_RESERVED;
        assert!(f.iram.write(addr, b"key"));
        f.tz.switch_world(World::Secure);
        assert!(f.tz.protect(ProtectedRange {
            range: addr..addr + 4096,
            deny_dma: true,
            deny_normal_cpu: false,
        }));
        f.tz.switch_world(World::Normal);
        let ctrl = DmaController { id: 0 };
        let err = ctrl
            .read_phys(addr, 3, &f.tz, &f.iram, path!(f))
            .unwrap_err();
        assert_eq!(err, SocError::DmaDenied { addr });
    }

    #[test]
    fn uart_loopback_returns_dmaed_bytes() {
        let mut f = fix();
        f.dram.write(DRAM_BASE, b"0xFF pattern here");
        let ctrl = DmaController { id: 1 };
        let mut uart = UartDebugPort::new();
        uart.dma_from_memory(&ctrl, DRAM_BASE, 17, &f.tz, &f.iram, path!(f))
            .unwrap();
        assert_eq!(uart.read_serial(), b"0xFF pattern here");
        assert!(uart.read_serial().is_empty(), "FIFO drains on read");
    }

    #[test]
    fn unmapped_dma_errors() {
        let mut f = fix();
        let ctrl = DmaController { id: 0 };
        let err = ctrl
            .read_phys(0x100, 4, &f.tz, &f.iram, path!(f))
            .unwrap_err();
        assert!(matches!(err, SocError::Unmapped { .. }));
    }

    #[test]
    fn dma_write_to_reserved_iram_fails() {
        let mut f = fix();
        let ctrl = DmaController { id: 0 };
        let err = ctrl
            .write_phys(IRAM_BASE, b"x", &f.tz, &mut f.iram, path!(f))
            .unwrap_err();
        assert!(matches!(err, SocError::IramFirmwareRegion { .. }));
    }
}
