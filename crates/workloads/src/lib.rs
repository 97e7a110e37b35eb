//! Workload models driving the paper's evaluation (§8).
//!
//! Each module models one family of workloads from the evaluation and
//! drives the *real* Sentry machinery (page tables, faults, the pager,
//! AES On SoC) with synthetic-but-calibrated access patterns:
//!
//! * [`apps`] — the four Android applications (Contacts, Google Maps,
//!   Twitter, the ServeStream MP3 app) whose lock/resume/runtime
//!   behaviour produces Figures 2–5;
//! * [`background`] — the three Linux applications (alpine, vlock,
//!   xmms2) run in the background on the locked Tegra prototype,
//!   producing Figures 6–8;
//! * [`filebench`] — the randread/randrw filebench workloads over
//!   dm-crypt, producing Figure 9;
//! * [`kernelbuild`] — the `make -j 5` Linux-kernel-compilation model
//!   under reduced effective cache, producing Figure 10;
//! * [`fleet`] — beyond the paper: N independent device stacks driven
//!   by a seeded heavy-traffic event stream (lock/unlock churn,
//!   background paging, dm-crypt bursts, power cuts, tampers), one
//!   device at a time, with aggregated percentile metrics and a
//!   partitioned simulated makespan.
//!
//! The footprint numbers (resident megabytes, DMA-region sizes, script
//! durations) come from the paper's text where stated (e.g., DMA regions
//! of 1 MB for Contacts, 3 MB for Twitter, 15 MB for Google Maps) and
//! are otherwise chosen so the reproduced figures match the published
//! shapes; EXPERIMENTS.md records both.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod apps;
pub mod background;
pub mod filebench;
pub mod fleet;
pub mod kernelbuild;

pub use ablation::{lazy_vs_eager, sweep_locked_ways};
pub use apps::{app_catalog, run_app_cycle};
pub use background::{background_catalog, run_background, BackgroundSpec};
pub use filebench::{run_filebench, CryptoSetup, FilebenchSpec, Workload};
pub use fleet::{
    run_device, run_fleet, EventMix, FleetConfig, FleetEvent, FleetReport, LatencySamples,
};
pub use kernelbuild::compile_minutes;
