//! Sentry configuration.

pub use sentry_crypto::{PageCipherMode, PipelineConfig};

/// Which on-SoC storage backs Sentry's secrets (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnSocBackend {
    /// iRAM: the 192 KiB of on-SoC SRAM not reserved by firmware.
    /// Available on both prototype platforms.
    Iram,
    /// Locked L2 cache ways: up to `max_ways` of the 8 ways (128 KiB
    /// each). Requires firmware access (Tegra 3 only).
    LockedL2 {
        /// Maximum ways Sentry may lock (1–7; one way must remain for
        /// the rest of the system).
        max_ways: usize,
    },
}

/// Tuning for the unlock-latency engine: fault-cluster readahead plus
/// the background decrypt sweeper (see `Sentry::handle_fault` and
/// `Sentry::sweep`).
///
/// The paper decrypts on demand after unlock and "decrypts the rest in
/// the background" (§7); this config controls both halves. The default
/// (a cluster of one page, no sweep budget) makes every first touch a
/// full single-page fault→decrypt round trip, the pre-readahead
/// behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadaheadConfig {
    /// Pages decrypted per fault: the faulting page plus its spatially
    /// adjacent encrypted neighbours in the same aligned window, in one
    /// batched kernel call. `1` degenerates to single-page faulting.
    pub(crate) cluster_pages: usize,
    /// Pages the background sweeper drains per scheduler tick. `0`
    /// disables sweeping.
    pub(crate) sweep_budget_pages: usize,
}

impl Default for ReadaheadConfig {
    fn default() -> Self {
        ReadaheadConfig {
            cluster_pages: 1,
            sweep_budget_pages: 0,
        }
    }
}

impl ReadaheadConfig {
    /// A configuration with the given cluster size and a sweep budget
    /// of 32 pages per tick.
    #[must_use]
    pub fn with_cluster(cluster_pages: usize) -> Self {
        ReadaheadConfig {
            cluster_pages: cluster_pages.max(1),
            sweep_budget_pages: 32,
        }
    }

    /// Builder: set the sweeper's per-tick page budget.
    #[must_use]
    pub fn sweep_budget(mut self, pages: usize) -> Self {
        self.sweep_budget_pages = pages;
        self
    }
}

/// Tuning for the authenticated-DRAM integrity plane: per-page CMAC
/// tags in an on-SoC tag store, verified on every decrypt path, with
/// poisoned pages quarantined instead of decrypted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntegrityConfig {
    /// Master switch. When false no tags are computed or stored and
    /// every decrypt path behaves exactly as before the integrity plane
    /// existed (confidentiality-only encrypted DRAM).
    pub enabled: bool,
}

impl Default for IntegrityConfig {
    fn default() -> Self {
        IntegrityConfig { enabled: true }
    }
}

impl IntegrityConfig {
    /// A disabled integrity plane (confidentiality-only DRAM, the
    /// paper's original behaviour).
    #[must_use]
    pub(crate) fn disabled() -> Self {
        IntegrityConfig { enabled: false }
    }
}

/// Full Sentry configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SentryConfig {
    /// Where secrets live on the SoC.
    pub(crate) backend: OnSocBackend,
    /// The device's cores as the bulk lock/unlock path sees them: a
    /// DRAM-side crypt batch of `pages` pages runs on
    /// `parallel_workers.min(pages)` lanes and is charged the serial AES
    /// cost divided by that count; the host still runs it on the calling
    /// thread. Each lane models one core's register-resident AES context
    /// derived from the volatile root key. `1` (the default) is the
    /// paper's serial prototype: one call into the registered cipher
    /// engine, cycle-identical to dispatching pages one at a time. AES
    /// On SoC itself always stays single-lane — its state page cannot be
    /// replicated — so only the bulk DRAM transitions take more lanes.
    pub parallel_workers: usize,
    /// Unlock-latency tuning: fault-cluster readahead and the background
    /// decrypt sweeper.
    pub(crate) readahead: ReadaheadConfig,
    /// Authenticated-DRAM integrity plane tuning.
    pub integrity: IntegrityConfig,
    /// Per-page cipher mode for every page/sector crypt path: the pager,
    /// the lock batch, dm-crypt, readahead, and the sweeper.
    /// CBC is the paper's mode; XTS and CTR fill every bitsliced lane on
    /// encrypt as well as decrypt (see `sentry_crypto::modes`).
    pub(crate) cipher_mode: PageCipherMode,
    /// Asynchronous crypt-pipeline switch: keystream precompute for the
    /// dm-crypt read path and accelerator-queue routing for lifecycle
    /// decrypt batches (see `sentry_crypto::pipeline`). Disabled by
    /// default — the paper's fully inline behaviour.
    pub(crate) pipeline: PipelineConfig,
    /// Whether sensitive apps may run in the background while locked
    /// (requires the encrypted-DRAM pager; the paper's Tegra prototype).
    /// Without it, sensitive apps are parked unschedulable on lock (the
    /// Nexus 4 prototype).
    pub(crate) background_support: bool,
    /// Optional cap on the pager's on-SoC page slots. `Some(1)` plus the
    /// AES state page reproduces the paper's minimum-footprint
    /// configuration — "the minimum amount of on-SoC memory required to
    /// implement Sentry is only two pages" (§7) — at the cost of very
    /// frequent page faults.
    pub slot_limit: Option<usize>,
}

impl SentryConfig {
    /// The paper's Tegra 3 configuration: locked L2 cache ways and full
    /// background support.
    ///
    /// # Panics
    ///
    /// Panics if `max_ways` is 0 or 8 — at least one way must stay
    /// unlocked for the rest of the system (§4.5).
    #[must_use]
    pub fn tegra3_locked_l2(max_ways: usize) -> Self {
        assert!((1..=7).contains(&max_ways), "lockable ways must be 1..=7");
        SentryConfig {
            backend: OnSocBackend::LockedL2 { max_ways },
            parallel_workers: 1,
            readahead: ReadaheadConfig::default(),
            integrity: IntegrityConfig::default(),
            cipher_mode: PageCipherMode::Cbc,
            pipeline: PipelineConfig::default(),
            background_support: true,
            slot_limit: None,
        }
    }

    /// A Tegra 3 configuration using iRAM instead of cache locking.
    #[must_use]
    pub fn tegra3_iram() -> Self {
        SentryConfig {
            backend: OnSocBackend::Iram,
            parallel_workers: 1,
            readahead: ReadaheadConfig::default(),
            integrity: IntegrityConfig::default(),
            cipher_mode: PageCipherMode::Cbc,
            pipeline: PipelineConfig::default(),
            background_support: true,
            slot_limit: None,
        }
    }

    /// The paper's Nexus 4 configuration: iRAM key storage, no cache
    /// locking (locked firmware), no background support — sensitive apps
    /// are parked while the device is locked.
    #[must_use]
    pub fn nexus4() -> Self {
        SentryConfig {
            backend: OnSocBackend::Iram,
            parallel_workers: 1,
            readahead: ReadaheadConfig::default(),
            integrity: IntegrityConfig::default(),
            cipher_mode: PageCipherMode::Cbc,
            pipeline: PipelineConfig::default(),
            background_support: false,
            slot_limit: None,
        }
    }

    /// Cap the pager's on-SoC page slots (see
    /// [`SentryConfig::slot_limit`]).
    #[must_use]
    pub fn with_slot_limit(mut self, slots: usize) -> Self {
        self.slot_limit = Some(slots);
        self
    }

    /// Set the modelled lock/unlock lanes (see
    /// [`SentryConfig::parallel_workers`]); `0` counts as `1`.
    #[must_use]
    pub fn with_parallel_workers(mut self, workers: usize) -> Self {
        self.parallel_workers = workers.max(1);
        self
    }

    /// Set the unlock-latency tuning (see [`ReadaheadConfig`]).
    #[must_use]
    pub fn with_readahead(mut self, readahead: ReadaheadConfig) -> Self {
        self.readahead = readahead;
        self
    }

    /// Set the per-page cipher mode (see [`PageCipherMode`]).
    #[must_use]
    pub fn with_cipher_mode(mut self, mode: PageCipherMode) -> Self {
        self.cipher_mode = mode;
        self
    }

    /// Set the asynchronous crypt-pipeline switch (see
    /// [`PipelineConfig`]).
    #[must_use]
    pub fn with_pipeline(mut self, pipeline: PipelineConfig) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Shorthand: turn the integrity plane off (confidentiality-only
    /// encrypted DRAM, the paper's original behaviour).
    #[must_use]
    pub fn without_integrity(mut self) -> Self {
        self.integrity = IntegrityConfig::disabled();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_prototypes() {
        let t = SentryConfig::tegra3_locked_l2(2);
        assert_eq!(t.backend, OnSocBackend::LockedL2 { max_ways: 2 });
        assert!(t.background_support);
        let n = SentryConfig::nexus4();
        assert_eq!(n.backend, OnSocBackend::Iram);
        assert!(!n.background_support);
    }

    #[test]
    #[should_panic(expected = "lockable ways")]
    fn locking_all_eight_ways_is_rejected() {
        let _ = SentryConfig::tegra3_locked_l2(8);
    }
}
