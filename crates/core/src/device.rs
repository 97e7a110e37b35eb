//! The device-level lock-screen agent: PIN unlock, deep lock, and
//! suspend/resume cycles.
//!
//! §1 of the paper frames the setting: smartphones are rarely powered
//! off; they sleep with RAM refreshed and offer *PIN-unlock*, entering a
//! *deep-lock* state after a few wrong PINs to stop brute force. Sentry
//! hooks the screen-lock transitions ("Secure On Suspend", §7):
//! encrypt-on-lock when the screen turns off, decrypt-on-demand after a
//! successful PIN entry.
//!
//! [`DeviceAgent`] models that surface so experiments can drive whole
//! days of realistic use (the paper's 150 unlock cycles/day) through the
//! real Sentry machinery and measure the aggregate cost.

use crate::error::SentryError;
use crate::lifecycle::{LockReport, Sentry, UnlockReport};
use sentry_energy::{AesVariant, EnergyModel};

/// Screen/lock state of the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ScreenState {
    /// Screen on, user authenticated.
    Unlocked,
    /// Screen locked; a correct PIN unlocks.
    Locked,
    /// Too many wrong PINs: only a factory reset recovers the device
    /// (which wipes user data — the paper's footnote 1).
    DeepLocked,
}

/// Outcome of a PIN attempt.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum UnlockOutcome {
    /// Correct PIN; the device unlocked (report attached).
    Unlocked(UnlockReport),
    /// Wrong PIN; `remaining` attempts before deep lock.
    WrongPin {
        /// Attempts left before deep lock.
        remaining: u32,
    },
    /// The device is deep-locked; PIN entry is refused.
    DeepLocked,
}

/// One simulated day of usage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DayReport {
    /// Lock/unlock cycles performed.
    pub cycles: u32,
    /// Total bytes encrypted across all locks.
    pub bytes_encrypted: u64,
    /// Total bytes decrypted across all unlocks (eager + on demand).
    pub bytes_decrypted: u64,
    /// Total energy spent on Sentry's cryptography, joules.
    pub joules: f64,
    /// Fraction of the battery consumed.
    pub battery_fraction: f64,
}

/// The lock-screen agent wrapping a [`Sentry`] system.
#[derive(Debug)]
pub struct DeviceAgent {
    /// The underlying Sentry system.
    pub(crate) sentry: Sentry,
    pin: String,
    failed_attempts: u32,
    max_attempts: u32,
    screen: ScreenState,
}

impl DeviceAgent {
    /// Wrap `sentry` with a PIN and the standard 5-attempt deep-lock
    /// threshold.
    #[must_use]
    pub fn new(sentry: Sentry, pin: impl Into<String>) -> Self {
        DeviceAgent {
            sentry,
            pin: pin.into(),
            failed_attempts: 0,
            max_attempts: 5,
            screen: ScreenState::Unlocked,
        }
    }

    /// The screen turns off (idle timeout or power button): Sentry
    /// encrypts sensitive memory and the device suspends.
    ///
    /// # Errors
    ///
    /// Propagates Sentry errors; locking a deep-locked or already
    /// locked device is a no-op returning a default report.
    pub(crate) fn lock_screen(&mut self) -> Result<LockReport, SentryError> {
        if self.screen != ScreenState::Unlocked {
            return Ok(LockReport::default());
        }
        let report = self.sentry.on_lock()?;
        self.screen = ScreenState::Locked;
        Ok(report)
    }

    /// A PIN entry on the lock screen.
    ///
    /// # Errors
    ///
    /// Propagates Sentry errors from the unlock path.
    pub(crate) fn try_unlock(&mut self, pin: &str) -> Result<UnlockOutcome, SentryError> {
        match self.screen {
            ScreenState::DeepLocked => Ok(UnlockOutcome::DeepLocked),
            ScreenState::Unlocked => Ok(UnlockOutcome::Unlocked(UnlockReport::default())),
            ScreenState::Locked => {
                if pin == self.pin {
                    let report = self.sentry.on_unlock()?;
                    self.failed_attempts = 0;
                    self.screen = ScreenState::Unlocked;
                    Ok(UnlockOutcome::Unlocked(report))
                } else {
                    self.failed_attempts += 1;
                    if self.failed_attempts >= self.max_attempts {
                        self.screen = ScreenState::DeepLocked;
                        Ok(UnlockOutcome::DeepLocked)
                    } else {
                        Ok(UnlockOutcome::WrongPin {
                            remaining: self.max_attempts - self.failed_attempts,
                        })
                    }
                }
            }
        }
    }

    /// Simulate a day: `cycles` lock/unlock pairs where each unlock is
    /// followed by touching `resume_vpns` of process `pid` (the user
    /// glancing at their app). Returns the aggregate cost.
    ///
    /// # Errors
    ///
    /// Propagates Sentry errors.
    pub fn simulate_day(
        &mut self,
        pid: u32,
        resume_vpns: &[u64],
        cycles: u32,
    ) -> Result<DayReport, SentryError> {
        let energy = EnergyModel::nexus4();
        let mut bytes_encrypted = 0u64;
        let mut bytes_decrypted = 0u64;
        for _ in 0..cycles {
            let lock = self.lock_screen()?;
            bytes_encrypted += lock.bytes_encrypted;
            let before = self.sentry.stats.ondemand_bytes;
            match self.try_unlock(&self.pin.clone())? {
                UnlockOutcome::Unlocked(report) => {
                    self.sentry.touch_pages(pid, resume_vpns)?;
                    bytes_decrypted +=
                        report.eager_bytes_decrypted + (self.sentry.stats.ondemand_bytes - before);
                }
                other => unreachable!("correct PIN must unlock, got {other:?}"),
            }
        }
        let joules = energy.crypt_joules(AesVariant::CryptoApi, bytes_encrypted)
            + energy.crypt_joules(AesVariant::CryptoApi, bytes_decrypted);
        Ok(DayReport {
            cycles,
            bytes_encrypted,
            bytes_decrypted,
            joules,
            battery_fraction: joules / energy.battery_joules,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SentryConfig;
    use sentry_kernel::Kernel;
    use sentry_soc::addr::PAGE_SIZE;
    use sentry_soc::dram::PowerEvent;
    use sentry_soc::Soc;

    fn agent() -> (DeviceAgent, u32) {
        let kernel = Kernel::new(Soc::nexus4_small());
        let mut sentry = Sentry::new(kernel, SentryConfig::nexus4()).unwrap();
        let pid = sentry.kernel.spawn("banking-app");
        sentry.mark_sensitive(pid).unwrap();
        for vpn in 0..8u64 {
            sentry
                .write(pid, vpn * PAGE_SIZE, &[vpn as u8; PAGE_SIZE as usize])
                .unwrap();
        }
        (DeviceAgent::new(sentry, "4521"), pid)
    }

    #[test]
    fn correct_pin_unlocks_wrong_pin_counts_down() {
        let (mut agent, _) = agent();
        agent.lock_screen().unwrap();
        assert_eq!(agent.screen, ScreenState::Locked);
        assert!(matches!(
            agent.try_unlock("0000").unwrap(),
            UnlockOutcome::WrongPin { remaining: 4 }
        ));
        assert!(matches!(
            agent.try_unlock("4521").unwrap(),
            UnlockOutcome::Unlocked(_)
        ));
        assert_eq!(agent.screen, ScreenState::Unlocked);
    }

    #[test]
    fn five_wrong_pins_deep_lock_the_device() {
        let (mut agent, _) = agent();
        agent.lock_screen().unwrap();
        for _ in 0..4 {
            let out = agent.try_unlock("9999").unwrap();
            assert!(matches!(out, UnlockOutcome::WrongPin { .. }));
        }
        assert_eq!(agent.try_unlock("9999").unwrap(), UnlockOutcome::DeepLocked);
        // Even the correct PIN is refused now.
        assert_eq!(agent.try_unlock("4521").unwrap(), UnlockOutcome::DeepLocked);
        assert_eq!(agent.screen, ScreenState::DeepLocked);
    }

    #[test]
    fn a_deep_locked_device_reflashes_to_no_user_data() {
        // §3.1 fn. 1: unlocking a deep-locked device "requires device
        // reflashing which wipes all user data".
        let (mut agent, _) = agent();
        agent.lock_screen().unwrap();
        for _ in 0..5 {
            let _ = agent.try_unlock("9999").unwrap();
        }
        assert_eq!(agent.screen, ScreenState::DeepLocked);
        let soc = &mut agent.sentry.kernel.soc;
        soc.power_cycle(PowerEvent::ReflashTap).unwrap();
        assert!(
            soc.iram.as_bytes().iter().all(|&b| b == 0),
            "the firmware zeroes the on-SoC key state"
        );
        soc.cache_maintenance_flush();
        for (_addr, frame) in soc.dram.iter_frames() {
            for vpn in 1..8u8 {
                assert!(
                    !frame.windows(64).any(|w| w == [vpn; 64]),
                    "user data wiped"
                );
            }
        }
    }

    #[test]
    fn memory_stays_ciphertext_while_pin_locked() {
        let (mut agent, _) = agent();
        agent.lock_screen().unwrap();
        agent.sentry.kernel.soc.cache_maintenance_flush();
        for (_addr, frame) in agent.sentry.kernel.soc.dram.iter_frames() {
            assert!(!frame.windows(64).any(|w| w == [3u8; 64]));
        }
    }

    #[test]
    fn a_day_of_150_cycles_costs_about_the_paper_headline() {
        // The paper: ~2% of battery per day at 150 unlocks to protect
        // one application. Our 8-page app is tiny, so scale-check the
        // rate instead: joules grow linearly in bytes cycled.
        let (mut agent, pid) = agent();
        let day = agent.simulate_day(pid, &[0, 1, 2], 150).unwrap();
        assert_eq!(day.cycles, 150);
        // Lazy decryption pays forward: pages never touched between
        // unlock and re-lock stay encrypted, and the 3 touched pages are
        // only read. The first full lock (8 pages) encrypts pages just
        // written, so their first decrypt is in place and the second
        // lock re-encrypts them; from then on they go back to the
        // ciphertext they kept and no cycle encrypts anything — "Sentry
        // saves energy and time in the case when users unlock their
        // phones, engage in just a few interactions, and re-lock their
        // phones" (§7).
        assert_eq!(day.bytes_encrypted, (8 + 3) * 4096);
        assert_eq!(day.bytes_decrypted, 150 * 3 * 4096);
        assert!(day.battery_fraction > 0.0 && day.battery_fraction < 0.01);
        // A Maps-sized app (48 MB lock / 38 MB unlock) would be ~1.9%:
        let energy = EnergyModel::nexus4();
        let maps_daily =
            energy.daily_battery_fraction(AesVariant::CryptoApi, 48 << 20, 38 << 20, 150);
        assert!((0.015..0.025).contains(&maps_daily));
    }

    #[test]
    fn locking_twice_is_idempotent() {
        let (mut agent, _) = agent();
        let first = agent.lock_screen().unwrap();
        assert!(first.bytes_encrypted > 0);
        let second = agent.lock_screen().unwrap();
        assert_eq!(second.bytes_encrypted, 0);
    }
}
