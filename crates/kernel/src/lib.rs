//! A minimal operating-system model over the simulated SoC.
//!
//! Sentry is implemented as OS changes (the paper modifies the Linux page
//! fault handler, the L2 flush paths, the Crypto API, and dm-crypt), so
//! the reproduction needs an OS to change. This crate provides the
//! smallest kernel that exposes the right seams:
//!
//! * [`process`]/[`pagetable`] — processes with per-page PTEs carrying
//!   the ARM `young` bit, an `encrypted` bit, and a backing location
//!   (DRAM frame, on-SoC page);
//! * [`fault`] — accesses to non-young/non-present pages surface as
//!   [`fault::PageFault`]s that a pager (Sentry's encrypted-DRAM pager,
//!   or the built-in demand-zero pager) resolves;
//! * [`frames`] — the physical frame allocator, whose *freed* queue feeds
//!   the zeroing thread (freed pages of sensitive apps may hold secrets,
//!   §7);
//! * [`zero_thread`] — the kernel thread that zeroes freed pages at the
//!   paper's measured 4.014 GB/s;
//! * [`crypto_api`] — a Linux-CryptoAPI-like cipher registry with
//!   priorities; Sentry registers AES On SoC *above* the generic AES so
//!   legacy consumers (dm-crypt) pick it up transparently (§7);
//! * [`block`]/[`dmcrypt`]/[`bufcache`]/[`vfs`] — the storage stack the
//!   dm-crypt experiments (Figure 9) run on;
//! * [`offload`] — the one accelerator offload path (fallback ladder,
//!   bounce-window staging, watchdog, CPU fallback) that dm-crypt reads
//!   and Sentry's decrypt batches share;
//! * [`sched`] — a round-robin scheduler with the unschedulable queue
//!   Sentry parks encrypted foreground apps in while the device is
//!   locked.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod bufcache;
pub mod crypto_api;
pub mod dmcrypt;
pub mod error;
pub mod fault;
pub mod frames;
pub mod kernel;
pub mod layout;
pub mod offload;
pub mod pagetable;
pub mod process;
pub mod sched;
pub mod vfs;
pub mod zero_thread;

pub use error::KernelError;
pub use fault::{FaultResolution, PageFault};
pub use kernel::Kernel;
pub use process::Pid;
