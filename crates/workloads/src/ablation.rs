//! Ablation studies of Sentry's design choices (DESIGN.md's list).
//!
//! These go beyond the paper's figures to quantify the trade-offs its
//! design discussion argues qualitatively:
//!
//! * **locked-way budget** (§4.5 "increasing performance overhead as
//!   additional ways are locked" vs more on-SoC slots for paging);
//! * **lazy vs eager unlock decryption** (§7's on-demand choice).
//!
//! §6.1's table-driven vs tableless AES trade-off is a host wall-clock
//! measurement, so it lives with the other host timings in the bench
//! crate (`exp_all`'s `ablation_tables` section), not here.

use crate::background::{run_background, BackgroundSpec};
use sentry_core::{Sentry, SentryConfig, SentryError};
use sentry_energy::{AesVariant, EnergyModel};
use sentry_kernel::Kernel;
use sentry_soc::addr::PAGE_SIZE;
use sentry_soc::Soc;

/// One point of the locked-way sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaySweepPoint {
    /// Ways locked for Sentry.
    pub ways: usize,
    /// Kernel time of the background run, seconds.
    pub kernel_secs: f64,
    /// Pager faults taken.
    pub faults: u64,
    /// Predicted system-wide kernel-compile time at this budget,
    /// minutes (the cost side of the trade-off, Figure 10).
    pub compile_minutes: f64,
}

/// Sweep the locked-way budget for a thrash-prone background app: more
/// ways help the app but slow the rest of the system.
///
/// # Errors
///
/// Propagates Sentry errors.
pub fn sweep_locked_ways(spec: &BackgroundSpec) -> Result<Vec<WaySweepPoint>, SentryError> {
    let mut out = Vec::new();
    for ways in 1..=7usize {
        let r = run_background(spec, (ways * 128) as u64)?;
        out.push(WaySweepPoint {
            ways,
            kernel_secs: r.kernel_secs,
            faults: r.faults,
            compile_minutes: crate::kernelbuild::compile_minutes(ways),
        });
    }
    Ok(out)
}

/// Result of one unlock-strategy run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnlockStrategyResult {
    /// Time until the user's first interaction completes, seconds.
    pub time_to_interactive_secs: f64,
    /// Total bytes decrypted before the device re-locked.
    pub bytes_decrypted: u64,
    /// Crypto energy spent for the whole cycle, joules.
    pub joules: f64,
}

/// Compare lazy (paper) vs eager unlock decryption for a user who
/// touches only `touched_pages` of an `app_pages`-page app before
/// re-locking.
///
/// # Errors
///
/// Propagates Sentry errors.
pub fn lazy_vs_eager(
    app_pages: u64,
    touched_pages: u64,
) -> Result<(UnlockStrategyResult, UnlockStrategyResult), SentryError> {
    assert!(touched_pages <= app_pages);
    let energy = EnergyModel::nexus4();
    let run = |eager: bool| -> Result<UnlockStrategyResult, SentryError> {
        let kernel = Kernel::new(Soc::new(
            sentry_soc::SocConfig::new(sentry_soc::Platform::Nexus4).with_dram_size(128 << 20),
        ));
        let mut sentry = Sentry::new(kernel, SentryConfig::nexus4())?;
        let pid = sentry.kernel.spawn("app");
        sentry.mark_sensitive(pid)?;
        let fill = vec![0x42u8; PAGE_SIZE as usize];
        for vpn in 0..app_pages {
            sentry.write(pid, vpn * PAGE_SIZE, &fill)?;
        }
        sentry.on_lock()?;

        let t0 = sentry.kernel.soc.clock.now_ns();
        sentry.on_unlock()?;
        if eager {
            // Strawman: decrypt everything before the user sees the
            // home screen.
            let all: Vec<u64> = (0..app_pages).collect();
            sentry.touch_pages(pid, &all)?;
        }
        // The user's first interaction: touch the working pages.
        let touched: Vec<u64> = (0..touched_pages).collect();
        sentry.touch_pages(pid, &touched)?;
        let tti = (sentry.kernel.soc.clock.now_ns() - t0) as f64 / 1e9;

        let bytes = sentry.stats.ondemand_bytes;
        Ok(UnlockStrategyResult {
            time_to_interactive_secs: tti,
            bytes_decrypted: bytes,
            joules: energy.crypt_joules(AesVariant::CryptoApi, bytes),
        })
    };
    Ok((run(false)?, run(true)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::background::background_catalog;

    #[test]
    fn more_ways_help_the_app_but_cost_the_system() {
        let alpine = background_catalog()
            .into_iter()
            .find(|s| s.name == "alpine")
            .unwrap();
        let sweep = sweep_locked_ways(&alpine).unwrap();
        assert_eq!(sweep.len(), 7);
        // App-side: kernel time is non-increasing in ways (more slots).
        for pair in sweep.windows(2) {
            assert!(
                pair[1].kernel_secs <= pair[0].kernel_secs * 1.02,
                "{pair:?}"
            );
        }
        // System-side: compile time is strictly increasing.
        for pair in sweep.windows(2) {
            assert!(pair[1].compile_minutes > pair[0].compile_minutes);
        }
        // The knee: 2 ways (256 KB) thrash alpine, 4 ways do not.
        assert!(sweep[1].faults > 4 * sweep[3].faults);
    }

    #[test]
    fn lazy_wins_when_usage_is_brief() {
        // The §7 rationale: users often "unlock their phones, engage in
        // just a few interactions, and re-lock".
        let (lazy, eager) = lazy_vs_eager(256, 8).unwrap();
        assert!(
            lazy.time_to_interactive_secs * 5.0 < eager.time_to_interactive_secs,
            "lazy {} vs eager {}",
            lazy.time_to_interactive_secs,
            eager.time_to_interactive_secs
        );
        assert!(lazy.joules < eager.joules / 5.0);
        assert!(lazy.bytes_decrypted < eager.bytes_decrypted);
    }

    #[test]
    fn lazy_and_eager_converge_when_everything_is_touched() {
        let (lazy, eager) = lazy_vs_eager(64, 64).unwrap();
        let ratio = eager.time_to_interactive_secs / lazy.time_to_interactive_secs;
        assert!((0.9..1.4).contains(&ratio), "ratio {ratio}");
        assert_eq!(lazy.bytes_decrypted, eager.bytes_decrypted);
    }
}
