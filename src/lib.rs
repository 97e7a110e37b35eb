//! Umbrella crate for the Sentry reproduction.
//!
//! Re-exports every sub-crate of the workspace so examples and downstream
//! users can depend on a single crate. See the individual crates for
//! full documentation:
//!
//! * [`soc`] — the simulated ARM SoC substrate (DRAM, iRAM, PL310 L2
//!   cache, bus, DMA, TrustZone, firmware).
//! * [`crypto`] — from-scratch AES with state-placement tracking.
//! * [`kernel`] — the minimal OS model (processes, paging, dm-crypt).
//! * [`core`] — Sentry itself: on-SoC storage, AES On SoC, encrypted
//!   DRAM, the lock/unlock lifecycle, and background execution.
//! * [`attacks`] — cold boot, bus monitoring, and DMA attacks.
//! * [`energy`] — the energy/battery model.
//! * [`workloads`] — app, filebench, and kernel-compile workload models.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use sentry_attacks as attacks;
pub use sentry_core as core;
pub use sentry_crypto as crypto;
pub use sentry_energy as energy;
pub use sentry_kernel as kernel;
pub use sentry_soc as soc;
pub use sentry_workloads as workloads;

/// The README's Rust snippets, compiled as `no_run` doctests so that a
/// snippet naming a removed API fails `cargo test`.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
