//! The SoC façade: routing, permission checks, and the power/boot cycle.
//!
//! [`Soc`] wires the substrate together the way a real interconnect does:
//!
//! * CPU accesses to DRAM go through the L2 cache and (on miss or
//!   write-back) across the observable bus;
//! * CPU accesses to iRAM stay on-SoC — never on the bus, never cached
//!   in L2;
//! * DMA masters bypass the cache entirely and are checked against
//!   TrustZone range protections;
//! * the PL310 lockdown registers are programmable only from the
//!   TrustZone secure world, and only on platforms whose firmware
//!   enables cache locking (the Tegra 3 but not the Nexus 4, §7);
//! * power events decay DRAM/iRAM and re-run the signed boot ROM.

use crate::accel::{AccelQueue, CryptoAccel};
use crate::addr::{self, Region};
use crate::bus::Bus;
use crate::cache::{MemPath, Pl310};
use crate::clock::{CostModel, SimClock};
use crate::cpu::Cpu;
use crate::dma::{DmaController, UartDebugPort};
use crate::dram::{Dram, PowerEvent, RemanenceModel};
use crate::error::SocError;
use crate::failpoint::{Failpoints, FaultAction};
use crate::firmware::{BootReport, BootRom, FirmwareImage, ManufacturerKey};
use crate::iram::Iram;
use crate::trustzone::{TrustZone, World};

/// The two hardware platforms of the paper's prototypes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Platform {
    /// NVIDIA Tegra 3 development board: firmware access, cache locking
    /// available, no power instrumentation.
    Tegra3,
    /// Google Nexus 4: locked firmware (no cache locking, no TrustZone
    /// access for third parties), crypto accelerator, retail power
    /// characteristics.
    Nexus4,
}

impl Platform {
    /// Whether the platform's firmware allows programming the PL310
    /// lockdown registers ("this feature is often disabled by firmware",
    /// §1; the paper could enable it only on the Tegra 3).
    #[must_use]
    pub(crate) fn cache_locking_available(self) -> bool {
        matches!(self, Platform::Tegra3)
    }

    /// The calibrated cost model for this platform.
    #[must_use]
    pub(crate) fn cost_model(self) -> CostModel {
        match self {
            Platform::Tegra3 => CostModel::tegra3(),
            Platform::Nexus4 => CostModel::nexus4(),
        }
    }

    /// DRAM size of the paper's device (1 GB Tegra 3, 2 GB Nexus 4).
    #[must_use]
    pub(crate) fn dram_size(self) -> u64 {
        match self {
            Platform::Tegra3 => 1 << 30,
            Platform::Nexus4 => 2 << 30,
        }
    }
}

/// Configuration for building a [`Soc`].
#[derive(Debug, Clone)]
pub struct SocConfig {
    /// Which hardware platform to model.
    pub platform: Platform,
    /// DRAM size in bytes (page aligned). Defaults to the platform's
    /// retail size; tests often shrink it.
    pub dram_size: u64,
    /// DRAM remanence calibration.
    pub remanence: RemanenceModel,
    /// Seed for deterministic decay sampling.
    pub seed: u64,
    /// The device-unique TrustZone fuse value.
    pub fuse: [u8; 32],
}

impl SocConfig {
    /// A configuration for `platform` with its retail DRAM size.
    #[must_use]
    pub fn new(platform: Platform) -> Self {
        SocConfig {
            platform,
            dram_size: platform.dram_size(),
            remanence: RemanenceModel::default(),
            seed: 0xC01D_B007,
            fuse: [0xA5u8; 32],
        }
    }

    /// Shrink DRAM (useful for fast tests; storage is sparse either way).
    #[must_use]
    pub fn with_dram_size(mut self, size: u64) -> Self {
        self.dram_size = size;
        self
    }

    /// Use a specific decay seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// The assembled SoC.
#[derive(Debug)]
pub struct Soc {
    /// Which platform this SoC models.
    pub platform: Platform,
    /// Off-SoC DRAM.
    pub dram: Dram,
    /// On-SoC SRAM.
    pub iram: Iram,
    /// The PL310 L2 cache.
    pub cache: Pl310,
    /// The external memory bus.
    pub bus: Bus,
    /// The simulation clock.
    pub clock: SimClock,
    /// Calibrated costs.
    pub costs: CostModel,
    /// The CPU core state.
    pub cpu: Cpu,
    /// TrustZone state.
    pub trustzone: TrustZone,
    /// The crypto accelerator (Nexus 4 only; present but unused on
    /// Tegra in the paper's experiments).
    pub accel: CryptoAccel,
    /// Asynchronous descriptor queue in front of the accelerator. Split
    /// from [`Soc::accel`] so callers can submit against the engine's
    /// current power state while mutating the queue.
    pub accel_queue: AccelQueue,
    /// The UART loopback debug port.
    pub uart: UartDebugPort,
    /// The deterministic fault-injection plane (off by default).
    pub failpoints: Failpoints,
    boot_rom: BootRom,
    firmware: FirmwareImage,
}

impl Soc {
    /// Build a powered-on, freshly booted SoC.
    #[must_use]
    pub fn new(config: SocConfig) -> Self {
        let key = ManufacturerKey(0x5EED_F00D_CAFE_0001);
        let firmware = key.sign(b"vendor low-level firmware v1", true);
        Soc {
            platform: config.platform,
            dram: Dram::new(config.dram_size, config.remanence, config.seed),
            iram: Iram::new(config.seed ^ 0x1BA0),
            cache: Pl310::new(),
            bus: Bus::new(),
            clock: SimClock::new(),
            costs: config.platform.cost_model(),
            cpu: Cpu::new(),
            trustzone: TrustZone::new(config.fuse),
            accel: CryptoAccel::nexus4(),
            accel_queue: AccelQueue::new(),
            uart: UartDebugPort::new(),
            failpoints: Failpoints::default(),
            boot_rom: BootRom::new(key),
            firmware,
        }
    }

    /// Evaluate the named failpoint. With the plane off (the default)
    /// this is one branch; in record mode it counts the hit; armed, it
    /// injects the planned [`FaultAction`] here:
    ///
    /// * [`FaultAction::PowerCut`] — optionally applies the simulated
    ///   power event to DRAM (and, for SoC-power-cutting events,
    ///   remanence decay to iRAM), then fails with
    ///   [`SocError::PowerLost`]. The caller's transition dies on the
    ///   spot, exactly like a battery pull.
    /// * [`FaultAction::CryptError`] — fails with
    ///   [`SocError::CryptFault`].
    /// * [`FaultAction::AbortBatch`] — fails with
    ///   [`SocError::BatchAborted`].
    /// * [`FaultAction::AccelWedge`] / [`FaultAction::AccelCorrupt`] /
    ///   [`FaultAction::AccelSlow`] — stage the misbehaviour against
    ///   the next descriptor submitted to [`Soc::accel_queue`] and
    ///   return `Ok`: the submit succeeds, and the fault only becomes
    ///   observable at the (watchdog-guarded) wait.
    /// * [`FaultAction::DiskError`] — fails with
    ///   [`SocError::DeviceFault`]; the caller may retry after backoff.
    /// * [`FaultAction::DiskStall`] — advances the simulation clock by
    ///   the stall and returns `Ok` (a latency spike, not a failure).
    ///
    /// # Errors
    ///
    /// The injected fault, when the armed plan fires at this hit.
    #[inline]
    pub fn failpoint(&mut self, site: &'static str) -> Result<(), SocError> {
        if !self.failpoints.is_enabled() {
            return Ok(());
        }
        match self.failpoints.hit(site) {
            None => Ok(()),
            Some(FaultAction::PowerCut { decay }) => {
                if let Some(event) = decay {
                    self.dram.apply_power_event(event);
                    match event {
                        PowerEvent::WarmReboot => {}
                        PowerEvent::ReflashTap => self.iram.apply_power_loss(0.2),
                        PowerEvent::HardReset { seconds } => self.iram.apply_power_loss(seconds),
                    }
                }
                Err(SocError::PowerLost { site })
            }
            Some(FaultAction::CryptError) => Err(SocError::CryptFault { site }),
            Some(FaultAction::AbortBatch) => Err(SocError::BatchAborted { site }),
            Some(FaultAction::TamperDramBit { addr, bit }) => {
                // Active attacker: flip one DRAM bit behind the cache's
                // back and let execution continue. Only DRAM can be
                // disturbed this way; tamper plans aimed elsewhere
                // (iRAM is on-SoC and out of reach) are no-ops.
                if addr::classify_span(addr, 1, self.dram.size()) == Region::Dram {
                    let mut byte = [0u8];
                    self.dram.read(addr, &mut byte);
                    byte[0] ^= 1 << (bit & 7);
                    self.dram.write(addr, &byte);
                    self.cache.invalidate_line(addr);
                }
                Ok(())
            }
            Some(FaultAction::AccelWedge { wedge_ns }) => {
                self.accel_queue
                    .inject_next_op_fault(crate::accel::OpFault::Wedge { wedge_ns });
                Ok(())
            }
            Some(FaultAction::AccelCorrupt) => {
                self.accel_queue
                    .inject_next_op_fault(crate::accel::OpFault::Corrupt);
                Ok(())
            }
            Some(FaultAction::AccelSlow { factor }) => {
                self.accel_queue
                    .inject_next_op_fault(crate::accel::OpFault::Slow { factor });
                Ok(())
            }
            Some(FaultAction::DiskError) => Err(SocError::DeviceFault { site }),
            Some(FaultAction::DiskStall { stall_ns }) => {
                self.clock.advance(stall_ns);
                Ok(())
            }
        }
    }

    /// Convenience: a Tegra 3 with a small DRAM for tests.
    #[must_use]
    pub fn tegra3_small() -> Self {
        Soc::new(SocConfig::new(Platform::Tegra3).with_dram_size(64 << 20))
    }

    /// Convenience: a Nexus 4 with a small DRAM for tests.
    #[must_use]
    pub fn nexus4_small() -> Self {
        Soc::new(SocConfig::new(Platform::Nexus4).with_dram_size(64 << 20))
    }

    fn validate(&self, addr: u64, len: usize, write: bool) -> Result<Region, SocError> {
        let region = addr::classify_span(addr, len as u64, self.dram.size());
        if region == Region::Unmapped {
            return Err(SocError::Unmapped { addr, len });
        }
        if !self.trustzone.cpu_allowed(addr, len as u64) {
            return Err(SocError::SecureWorldOnly { addr });
        }
        if write
            && region == Region::Iram
            && self.iram.enforce_firmware_reservation
            && self.iram.in_firmware_region(addr, len)
        {
            return Err(SocError::IramFirmwareRegion { addr });
        }
        Ok(region)
    }

    /// CPU read of physical memory through the normal (cached) path.
    ///
    /// # Errors
    ///
    /// [`SocError::Unmapped`] or [`SocError::SecureWorldOnly`].
    pub fn mem_read(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), SocError> {
        match self.validate(addr, buf.len(), false)? {
            Region::Iram => {
                self.iram.read(addr, buf);
                self.clock
                    .advance(self.costs.iram_access_ns * (buf.len() as u64 / 32 + 1));
                Ok(())
            }
            Region::Dram => {
                let Soc {
                    dram,
                    bus,
                    clock,
                    costs,
                    cache,
                    ..
                } = self;
                let mut path = MemPath {
                    dram,
                    bus,
                    clock,
                    costs,
                };
                cache.read(addr, buf, &mut path);
                Ok(())
            }
            Region::Unmapped => unreachable!("validated above"),
        }
    }

    /// CPU write of physical memory through the normal (cached) path.
    ///
    /// # Errors
    ///
    /// [`SocError::Unmapped`], [`SocError::SecureWorldOnly`], or
    /// [`SocError::IramFirmwareRegion`].
    pub fn mem_write(&mut self, addr: u64, data: &[u8]) -> Result<(), SocError> {
        match self.validate(addr, data.len(), true)? {
            Region::Iram => {
                let ok = self.iram.write(addr, data);
                debug_assert!(ok, "reservation checked in validate");
                self.clock
                    .advance(self.costs.iram_access_ns * (data.len() as u64 / 32 + 1));
                Ok(())
            }
            Region::Dram => {
                self.failpoint("dram.write")?;
                let Soc {
                    dram,
                    bus,
                    clock,
                    costs,
                    cache,
                    ..
                } = self;
                let mut path = MemPath {
                    dram,
                    bus,
                    clock,
                    costs,
                };
                cache.write(addr, data, &mut path);
                Ok(())
            }
            Region::Unmapped => unreachable!("validated above"),
        }
    }

    /// CPU write that bypasses the cache (device/strongly-ordered
    /// mapping). DRAM targets hit memory immediately and are visible on
    /// the bus; used e.g. for kernel data structures that must reach
    /// DRAM, which is exactly what makes them attackable.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Soc::mem_write`].
    pub fn mem_write_uncached(&mut self, addr: u64, data: &[u8]) -> Result<(), SocError> {
        match self.validate(addr, data.len(), true)? {
            Region::Iram => {
                let ok = self.iram.write(addr, data);
                debug_assert!(ok, "reservation checked in validate");
                Ok(())
            }
            Region::Dram => {
                self.dram.write(addr, data);
                self.clock
                    .advance(self.costs.dram_line_ns * (data.len() as u64 / 32 + 1));
                self.bus.transact(
                    self.clock.now_ns(),
                    crate::bus::BusOp::Write,
                    crate::bus::BusMaster::CpuUncached,
                    addr,
                    data,
                );
                Ok(())
            }
            Region::Unmapped => unreachable!("validated above"),
        }
    }

    /// CPU read that bypasses the cache. See [`Soc::mem_write_uncached`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Soc::mem_read`].
    pub fn mem_read_uncached(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), SocError> {
        match self.validate(addr, buf.len(), false)? {
            Region::Iram => {
                self.iram.read(addr, buf);
                Ok(())
            }
            Region::Dram => {
                self.dram.read(addr, buf);
                self.clock
                    .advance(self.costs.dram_line_ns * (buf.len() as u64 / 32 + 1));
                self.bus.transact(
                    self.clock.now_ns(),
                    crate::bus::BusOp::Read,
                    crate::bus::BusMaster::CpuUncached,
                    addr,
                    buf,
                );
                Ok(())
            }
            Region::Unmapped => unreachable!("validated above"),
        }
    }

    /// Program a DMA controller to read physical memory (bypassing the
    /// L2 cache). Any peripheral can do this — no TrustZone world check,
    /// only range protection.
    ///
    /// # Errors
    ///
    /// See `DmaController::read_phys`.
    pub fn dma_read(&mut self, controller: u8, addr: u64, len: usize) -> Result<Vec<u8>, SocError> {
        let Soc {
            dram,
            bus,
            clock,
            costs,
            iram,
            trustzone,
            ..
        } = self;
        let mut path = MemPath {
            dram,
            bus,
            clock,
            costs,
        };
        DmaController { id: controller }.read_phys(addr, len, trustzone, iram, &mut path)
    }

    /// Program a DMA controller to write physical memory.
    ///
    /// # Errors
    ///
    /// See `DmaController::write_phys`.
    pub fn dma_write(&mut self, controller: u8, addr: u64, data: &[u8]) -> Result<(), SocError> {
        let Soc {
            dram,
            bus,
            clock,
            costs,
            iram,
            trustzone,
            ..
        } = self;
        let mut path = MemPath {
            dram,
            bus,
            clock,
            costs,
        };
        DmaController { id: controller }.write_phys(addr, data, trustzone, iram, &mut path)
    }

    /// DMA a span of physical memory to the UART loopback debug port
    /// (the §4.2 validation harness).
    ///
    /// # Errors
    ///
    /// See `DmaController::read_phys`.
    pub fn dma_to_uart(&mut self, addr: u64, len: usize) -> Result<(), SocError> {
        let Soc {
            dram,
            bus,
            clock,
            costs,
            iram,
            trustzone,
            uart,
            ..
        } = self;
        let mut path = MemPath {
            dram,
            bus,
            clock,
            costs,
        };
        uart.dma_from_memory(
            &DmaController { id: 0 },
            addr,
            len,
            trustzone,
            iram,
            &mut path,
        )
    }

    fn require_secure(&self, op: &'static str) -> Result<(), SocError> {
        if self.trustzone.world() == World::Secure {
            Ok(())
        } else {
            Err(SocError::RequiresSecureWorld { op })
        }
    }

    fn require_cache_locking(&self) -> Result<(), SocError> {
        if self.platform.cache_locking_available() {
            Ok(())
        } else {
            Err(SocError::CacheLockingUnavailable)
        }
    }

    /// Program the PL310 allocation ("enable way") mask. Secure world
    /// only; unavailable where firmware disables cache locking.
    ///
    /// # Errors
    ///
    /// [`SocError::RequiresSecureWorld`] or
    /// [`SocError::CacheLockingUnavailable`].
    pub fn set_cache_alloc_mask(&mut self, mask: u8) -> Result<(), SocError> {
        self.require_cache_locking()?;
        self.require_secure("pl310 lockdown")?;
        self.clock.advance(self.costs.cache_op_ns);
        self.cache.set_alloc_mask(mask);
        Ok(())
    }

    /// Program the OS-side flush way-mask (§4.5). This is kernel data,
    /// not a secure register, so no world check.
    pub fn set_cache_flush_mask(&mut self, mask: u8) {
        self.clock.advance(self.costs.cache_op_ns);
        self.cache.set_flush_mask(mask);
    }

    /// The patched Linux flush path: clean and invalidate the ways
    /// selected by the flush mask.
    pub fn cache_maintenance_flush(&mut self) {
        let Soc {
            dram,
            bus,
            clock,
            costs,
            cache,
            ..
        } = self;
        let mut path = MemPath {
            dram,
            bus,
            clock,
            costs,
        };
        cache.maintenance_flush(&mut path);
    }

    /// The *unpatched* full flush, which spills and unlocks locked ways
    /// (§4.2's discovered hazard). Kept for the experiments that
    /// demonstrate why the OS change is necessary.
    pub fn cache_flush_all_raw(&mut self) {
        let Soc {
            dram,
            bus,
            clock,
            costs,
            cache,
            ..
        } = self;
        let mut path = MemPath {
            dram,
            bus,
            clock,
            costs,
        };
        cache.flush_all_raw(&mut path);
    }

    /// Deliver a pending preemption: spill the register file to the
    /// process's kernel stack at `stack_addr` — in DRAM, through the
    /// cache, eventually visible to memory attacks. Returns whether a
    /// context switch happened.
    ///
    /// # Errors
    ///
    /// Propagates memory errors from the stack write.
    pub fn deliver_preemption(&mut self, stack_addr: u64) -> Result<bool, SocError> {
        if let Some(regs) = self.cpu.take_preemption() {
            let mut bytes = Vec::with_capacity(regs.len() * 4);
            for r in regs {
                bytes.extend_from_slice(&r.to_le_bytes());
            }
            self.mem_write(stack_addr, &bytes)?;
            self.clock.advance(self.costs.context_switch_ns);
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Apply a power event and reboot through the signed firmware.
    ///
    /// This is the cold-boot attack surface: after the call, DRAM holds
    /// whatever survived decay, and iRAM/L2 hold zeroes (power loss with
    /// genuine firmware) or their prior contents (warm reboot).
    ///
    /// # Errors
    ///
    /// [`SocError::BadFirmwareSignature`] if the installed firmware does
    /// not verify: an attacker with flash access replaced the image, and
    /// the boot ROM refuses it (§4.3).
    pub fn power_cycle(&mut self, event: PowerEvent) -> Result<BootReport, SocError> {
        self.dram.apply_power_event(event);
        let power_was_lost = match event {
            PowerEvent::WarmReboot => false,
            PowerEvent::ReflashTap => {
                self.iram.apply_power_loss(0.2);
                true
            }
            PowerEvent::HardReset { seconds } => {
                self.iram.apply_power_loss(seconds);
                true
            }
        };
        self.cpu = Cpu::new();
        self.trustzone.switch_world(World::Normal);
        self.boot_rom.boot(
            &self.firmware,
            power_was_lost,
            &mut self.iram,
            &mut self.cache,
        )
    }

    /// Run `f` with TrustZone switched to the secure world, restoring
    /// the previous world afterwards.
    pub fn in_secure_world<T>(&mut self, f: impl FnOnce(&mut Soc) -> T) -> T {
        let prev = self.trustzone.world();
        self.trustzone.switch_world(World::Secure);
        let out = f(self);
        self.trustzone.switch_world(prev);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{DRAM_BASE, IRAM_BASE, IRAM_FIRMWARE_RESERVED};

    #[test]
    fn cached_dram_roundtrip() {
        let mut soc = Soc::tegra3_small();
        soc.mem_write(DRAM_BASE + 100, b"hello").unwrap();
        let mut buf = [0u8; 5];
        soc.mem_read(DRAM_BASE + 100, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn iram_roundtrip_never_touches_bus() {
        let mut soc = Soc::tegra3_small();
        let addr = IRAM_BASE + IRAM_FIRMWARE_RESERVED + 64;
        soc.mem_write(addr, b"onsoc").unwrap();
        let mut buf = [0u8; 5];
        soc.mem_read(addr, &mut buf).unwrap();
        assert_eq!(&buf, b"onsoc");
        assert_eq!(soc.bus.reads() + soc.bus.writes(), 0);
    }

    #[test]
    fn firmware_iram_region_is_protected() {
        let mut soc = Soc::tegra3_small();
        let err = soc.mem_write(IRAM_BASE + 10, b"crash").unwrap_err();
        assert!(matches!(err, SocError::IramFirmwareRegion { .. }));
    }

    #[test]
    fn cache_lockdown_requires_secure_world_and_tegra() {
        let mut soc = Soc::tegra3_small();
        assert!(matches!(
            soc.set_cache_alloc_mask(0x01),
            Err(SocError::RequiresSecureWorld { .. })
        ));
        soc.in_secure_world(|soc| soc.set_cache_alloc_mask(0x01).unwrap());
        assert_eq!(soc.cache.alloc_mask(), 0x01);

        let mut nexus = Soc::nexus4_small();
        assert!(matches!(
            nexus.in_secure_world(|soc| soc.set_cache_alloc_mask(0x01)),
            Err(SocError::CacheLockingUnavailable)
        ));
    }

    #[test]
    fn warm_reboot_keeps_iram_cold_boot_zeroes_it() {
        let mut soc = Soc::tegra3_small();
        let addr = IRAM_BASE + IRAM_FIRMWARE_RESERVED;
        soc.mem_write(addr, b"SENTRYOK").unwrap();

        let report = soc.power_cycle(PowerEvent::WarmReboot).unwrap();
        assert!(!report.zeroed_on_soc_memory);
        let mut buf = [0u8; 8];
        soc.mem_read(addr, &mut buf).unwrap();
        assert_eq!(&buf, b"SENTRYOK");

        let report = soc.power_cycle(PowerEvent::ReflashTap).unwrap();
        assert!(report.zeroed_on_soc_memory);
        soc.mem_read(addr, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 8]);
    }

    #[test]
    fn preemption_spills_registers_to_dram() {
        let mut soc = Soc::tegra3_small();
        soc.cpu.set_reg(0, 0xAABBCCDD);
        soc.cpu.request_preemption();
        let stack = DRAM_BASE + 0x5000;
        assert!(soc.deliver_preemption(stack).unwrap());
        // The spill is now (cached) DRAM state; flush and look at raw DRAM.
        soc.cache_maintenance_flush();
        let mut raw = [0u8; 4];
        soc.dram.read(stack, &mut raw);
        assert_eq!(u32::from_le_bytes(raw), 0xAABBCCDD);
    }

    #[test]
    fn dma_bypasses_cache() {
        let mut soc = Soc::tegra3_small();
        // Write through the cache; the dirty line has not reached DRAM.
        soc.mem_write(DRAM_BASE + 0x2000, b"cached-only").unwrap();
        let via_dma = soc.dma_read(0, DRAM_BASE + 0x2000, 11).unwrap();
        assert_eq!(via_dma, vec![0u8; 11], "DMA must see stale DRAM");
    }

    #[test]
    fn doctored_firmware_fails_next_boot() {
        let mut soc = Soc::tegra3_small();
        let evil = FirmwareImage {
            image: b"no zeroing".to_vec(),
            zeroes_on_boot: false,
            signature: 0xDEAD,
        };
        // An attacker with flash access replaces the image unverified;
        // the boot ROM checks the signature at the next power cycle.
        soc.firmware = evil;
        assert!(matches!(
            soc.power_cycle(PowerEvent::ReflashTap),
            Err(SocError::BadFirmwareSignature)
        ));
    }

    #[test]
    fn unmapped_access_is_rejected() {
        let mut soc = Soc::tegra3_small();
        let mut buf = [0u8; 4];
        assert!(matches!(
            soc.mem_read(0x100, &mut buf),
            Err(SocError::Unmapped { .. })
        ));
    }
}
