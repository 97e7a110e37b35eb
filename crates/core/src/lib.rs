//! Sentry: protecting data on smartphones and tablets from memory
//! attacks.
//!
//! This crate is the reproduction's implementation of the paper's primary
//! contribution. Sentry keeps users' sensitive data off DRAM — where
//! cold-boot, bus-monitoring, and DMA attacks can read it — by combining
//! four mechanisms:
//!
//! 1. **On-SoC storage** ([`onsoc`]): an allocator over iRAM and over
//!    locked L2 cache ways, using the PL310 lock/unlock sequences of
//!    §4.5 (flush → enable one way → warm with data → re-enable the
//!    rest) and the patched flush paths that spare locked ways.
//! 2. **AES On SoC** ([`aes_onsoc`]): an AES whose entire state — key,
//!    round keys, round tables, S-boxes, input block — lives in on-SoC
//!    storage, with compute sections run under IRQ-disable + register-
//!    zeroing discipline (§6). Registered with the kernel Crypto API at
//!    high priority so dm-crypt and other legacy consumers pick it up
//!    transparently (§7).
//! 3. **Encrypted DRAM** ([`encdram`]): a page-fault-driven pager that
//!    keeps the memory pages of background applications encrypted in
//!    DRAM, decrypting them *in place* inside locked cache ways on
//!    page-in and re-encrypting on page-out (§5, Figure 1).
//! 4. **The lock/unlock lifecycle** ([`lifecycle`]): encrypt the memory
//!    of sensitive applications when the screen locks (after draining
//!    the freed-page zeroing thread), decrypt on demand as pages are
//!    touched after unlock, eagerly decrypt DMA regions, and skip pages
//!    shared with non-sensitive apps (§2, §7).
//!
//! Root keys ([`keys`]) never live in DRAM: the volatile key is
//! generated on-SoC at each boot, and the persistent key is derived from
//! the user password and the TrustZone-guarded hardware fuse.
//!
//! # Example
//!
//! ```
//! use sentry_core::{Sentry, SentryConfig};
//! use sentry_kernel::Kernel;
//! use sentry_soc::Soc;
//!
//! # fn main() -> Result<(), sentry_core::SentryError> {
//! let kernel = Kernel::new(Soc::tegra3_small());
//! let mut sentry = Sentry::new(kernel, SentryConfig::tegra3_locked_l2(2))?;
//! let app = sentry.kernel.spawn("mail");
//! sentry.mark_sensitive(app)?;
//! sentry.write(app, 0x1000, b"the user's mail spool")?;
//! sentry.on_lock()?;   // memory now ciphertext in DRAM
//! sentry.on_unlock()?; // decrypted on demand from here on
//! let mut buf = [0u8; 21];
//! sentry.read(app, 0x1000, &mut buf)?;
//! assert_eq!(&buf, b"the user's mail spool");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aes_onsoc;
pub mod config;
pub mod device;
pub mod encdram;
pub mod error;
pub mod health;
pub mod integrity;
pub mod keys;
pub mod lifecycle;
pub mod onsoc;
pub mod pressure;
pub mod store;
pub mod transition;
pub mod txn;

pub use config::{OnSocBackend, PageCipherMode, SentryConfig};
pub use device::DeviceAgent;
pub use error::SentryError;
pub use health::{FailureKind, HealthGovernor, HealthState, HealthStats, RetryStats};
pub use integrity::QuarantinedPage;
pub use lifecycle::{DeviceState, DeviceStats, RecoveryReport, Sentry};
pub use pressure::{PressureLevel, PressureStats};
pub use txn::{CommitTagger, TxnJournal, TxnOp};
