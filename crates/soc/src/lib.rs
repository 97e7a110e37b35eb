//! A simulated ARM System-on-Chip substrate for the Sentry reproduction.
//!
//! The paper's prototypes run on an NVIDIA Tegra 3 development board and a
//! Google Nexus 4. This crate stands in for that hardware with a
//! functional simulation of every component Sentry's security argument
//! touches:
//!
//! * [`dram`] — off-SoC DRAM with a data-remanence model (cold boot
//!   attacks read what survives a power event);
//! * [`iram`] — 256 KiB of on-SoC SRAM, the first 64 KiB reserved by
//!   firmware (overwriting it "crashes the tablet", §4.5);
//! * [`cache`] — a PL310-style shared L2 cache (1 MiB, 8 ways of 128 KiB,
//!   32-byte lines) with lockdown-by-way, a flush way-mask, and write-back
//!   behaviour matching the validation experiments of §4.2;
//! * [`bus`] — the CPU–DRAM memory bus; every DRAM transaction is routed
//!   through it and can be observed (bus-monitoring attacks);
//! * [`dma`] — DMA controllers that bypass the L2 cache and are subject to
//!   TrustZone range protection, plus the UART loopback debug port used to
//!   validate PL310 behaviour;
//! * [`trustzone`] — secure/normal worlds, protected ranges, and the
//!   secure hardware fuse used to derive the persistent root key;
//! * [`cpu`] — a register file whose context switches spill registers to a
//!   DRAM stack unless interrupts are disabled (the leak AES On SoC's IRQ
//!   discipline prevents);
//! * [`firmware`] — the signed boot ROM that zeroes iRAM and resets the L2
//!   cache on power-on reset;
//! * [`accel`] — the Nexus 4 crypto accelerator timing model, including
//!   the frequency down-scaling observed while the phone is locked;
//! * [`clock`] — a deterministic nanosecond clock and the calibrated cost
//!   model that turns simulated memory traffic into time.
//!
//! The [`soc::Soc`] façade wires these together and exposes the memory
//! routing a real SoC's interconnect performs: CPU accesses go through the
//! L2 cache to DRAM (observable on the bus) or directly to iRAM (never on
//! the bus); DMA goes straight to DRAM/iRAM, bypassing the cache.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accel;
pub mod addr;
pub mod bus;
pub mod cache;
pub mod clock;
pub mod cpu;
pub mod dma;
pub mod dram;
pub mod error;
pub mod failpoint;
pub mod firmware;
pub mod iram;
pub mod rng;
pub mod soc;
pub mod trustzone;

pub use addr::{DRAM_BASE, IRAM_BASE, IRAM_SIZE, PAGE_SIZE};
pub use clock::{CostModel, SimClock};
pub use error::SocError;
pub use failpoint::{Failpoints, FaultAction, FaultPlan};
pub use soc::{Platform, Soc, SocConfig};
