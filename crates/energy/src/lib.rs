//! The energy and battery model, calibrated to the paper's Nexus 4
//! measurements.
//!
//! The paper's energy results are driven by a handful of measured
//! constants: per-byte energy of each AES variant (Figure 12), the
//! freed-page zeroing cost (§7), the full-memory-encryption strawman
//! (70 J per 2 GB, §7), and the device battery. Everything else —
//! Figure 5's per-app lock/unlock energy, the "2% of battery per day at
//! 150 unlocks" headline — is arithmetic over those constants and the
//! byte counts produced by the simulation. This crate holds the
//! constants and the arithmetic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Which AES implementation is doing the work (Figure 12's bars).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AesVariant {
    /// OpenSSL AES in user space.
    OpenSslUser,
    /// The kernel Crypto API's software AES — also the cost of AES On
    /// SoC, which the paper found indistinguishable (<1%).
    CryptoApi,
    /// The hardware crypto accelerator at 4 KiB-page granularity.
    HwAccel,
}

/// Calibrated energy constants.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyModel {
    /// Battery capacity in joules. Nexus 4: 2100 mAh at 3.8 V ≈ 28.7 kJ.
    pub battery_joules: f64,
    /// System energy per byte for user-space OpenSSL AES (µJ/B).
    pub(crate) uj_per_byte_openssl: f64,
    /// System energy per byte for the kernel Crypto API AES (µJ/B).
    pub(crate) uj_per_byte_cryptoapi: f64,
    /// System energy per byte for hardware-accelerated AES on 4 KiB
    /// pages (µJ/B) — *higher* than the CPU because the down-scaled
    /// engine keeps the system awake longer (Figure 12).
    pub(crate) uj_per_byte_hw: f64,
    /// Aggregate full-device encryption rate with all four cores and the
    /// accelerator working (bytes/s) — the strawman of §7 ("encrypting
    /// 2 GB … takes over a minute").
    pub(crate) full_encrypt_bytes_per_sec: f64,
    /// Energy to encrypt the full 2 GB once (J, §7: "over 70 Joules").
    pub(crate) full_encrypt_joules_per_2gb: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel::nexus4()
    }
}

impl EnergyModel {
    /// The Nexus 4 calibration.
    #[must_use]
    pub fn nexus4() -> Self {
        EnergyModel {
            battery_joules: 2.1 * 3.8 * 3600.0, // 2100 mAh @ 3.8 V
            uj_per_byte_openssl: 0.030,
            uj_per_byte_cryptoapi: 0.040,
            uj_per_byte_hw: 0.110,
            full_encrypt_bytes_per_sec: 32.0e6,
            full_encrypt_joules_per_2gb: 70.0,
        }
    }

    /// Energy per byte of a variant, µJ.
    #[must_use]
    pub fn uj_per_byte(&self, variant: AesVariant) -> f64 {
        match variant {
            AesVariant::OpenSslUser => self.uj_per_byte_openssl,
            AesVariant::CryptoApi => self.uj_per_byte_cryptoapi,
            AesVariant::HwAccel => self.uj_per_byte_hw,
        }
    }

    /// Joules to encrypt or decrypt `bytes` with `variant`.
    #[must_use]
    pub fn crypt_joules(&self, variant: AesVariant, bytes: u64) -> f64 {
        bytes as f64 * self.uj_per_byte(variant) * 1e-6
    }

    /// Figure 5: energy of one lock/unlock cycle for an app that
    /// encrypts `lock_bytes` at lock and decrypts `unlock_bytes` at
    /// unlock, using `variant`.
    #[must_use]
    pub(crate) fn cycle_joules(
        &self,
        variant: AesVariant,
        lock_bytes: u64,
        unlock_bytes: u64,
    ) -> (f64, f64) {
        (
            self.crypt_joules(variant, lock_bytes),
            self.crypt_joules(variant, unlock_bytes),
        )
    }

    /// The paper's headline: daily battery fraction spent protecting an
    /// app, given lock/unlock byte counts and unlock cycles per day
    /// (150, citing Athonen & Moore).
    #[must_use]
    pub fn daily_battery_fraction(
        &self,
        variant: AesVariant,
        lock_bytes: u64,
        unlock_bytes: u64,
        cycles_per_day: u32,
    ) -> f64 {
        let (lock_j, unlock_j) = self.cycle_joules(variant, lock_bytes, unlock_bytes);
        f64::from(cycles_per_day) * (lock_j + unlock_j) / self.battery_joules
    }

    /// The §7 strawman: encrypt *all* of DRAM at every suspend.
    #[must_use]
    pub fn strawman(&self, dram_bytes: u64) -> Strawman {
        let joules =
            self.full_encrypt_joules_per_2gb * dram_bytes as f64 / (2.0 * (1u64 << 30) as f64);
        Strawman {
            seconds_per_encrypt: dram_bytes as f64 / self.full_encrypt_bytes_per_sec,
            joules_per_encrypt: joules,
            cycles_to_deplete: (self.battery_joules / joules) as u32,
        }
    }
}

/// Cost of the full-memory-encryption strawman.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Strawman {
    /// Wall-clock seconds per full encryption.
    pub seconds_per_encrypt: f64,
    /// Joules per full encryption.
    pub joules_per_encrypt: f64,
    /// Suspend/resume cycles until the battery is empty.
    pub cycles_to_deplete: u32,
}

/// Unlock cycles per day assumed by the paper (Athonen & Moore).
pub const CYCLES_PER_DAY: u32 = 150;

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1 << 20;

    #[test]
    fn strawman_matches_paper_numbers() {
        // §7: 2 GB takes over a minute, over 70 J, and depletes the
        // battery after only ~410 cycles.
        let m = EnergyModel::nexus4();
        let s = m.strawman(2 << 30);
        assert!(s.seconds_per_encrypt > 60.0, "{}", s.seconds_per_encrypt);
        assert!((s.joules_per_encrypt - 70.0).abs() < 1.0);
        assert!(
            (380..=430).contains(&s.cycles_to_deplete),
            "{}",
            s.cycles_to_deplete
        );
    }

    #[test]
    fn maps_cycle_energy_matches_figure_5() {
        // Figure 5: Google Maps encrypts 48 MB on lock, decrypts 38 MB
        // on unlock, consuming "up to 2.3 Joules" for the lock side.
        let m = EnergyModel::nexus4();
        let (lock_j, unlock_j) = m.cycle_joules(AesVariant::CryptoApi, 48 * MB, 38 * MB);
        assert!((1.5..2.4).contains(&lock_j), "lock {lock_j} J");
        assert!(unlock_j < lock_j);
    }

    #[test]
    fn daily_fraction_is_about_two_percent_for_maps() {
        // "Sentry will consume daily about 2% of a device's battery life
        //  to protect an application assuming the user locks and unlocks
        //  a phone 150 times a day."
        let m = EnergyModel::nexus4();
        let frac =
            m.daily_battery_fraction(AesVariant::CryptoApi, 48 * MB, 38 * MB, CYCLES_PER_DAY);
        assert!((0.01..0.03).contains(&frac), "fraction {frac}");
    }

    #[test]
    fn hw_is_least_efficient_per_byte() {
        // Figure 12's ordering.
        let m = EnergyModel::nexus4();
        assert!(m.uj_per_byte(AesVariant::OpenSslUser) < m.uj_per_byte(AesVariant::CryptoApi));
        assert!(m.uj_per_byte(AesVariant::CryptoApi) < m.uj_per_byte(AesVariant::HwAccel));
    }

    #[test]
    fn default_is_nexus4() {
        assert_eq!(EnergyModel::default(), EnergyModel::nexus4());
    }
}
