//! The boot ROM and signed low-level firmware.
//!
//! Two firmware behaviours underpin Sentry's cold-boot immunity (§4.3):
//!
//! 1. On every **power-on** reset, the low-level firmware zeroes iRAM and
//!    resets the PL310 (zeroing the L2 arrays). A warm OS reboot — no
//!    power loss — skips this, which is why Table 2 shows iRAM surviving
//!    warm reboots at 100% but any power loss at 0%.
//! 2. The boot ROM **verifies the firmware's signature** against the
//!    manufacturer's key, so an attacker cannot simply install firmware
//!    with the zeroing logic removed (§4.3's "one attack vector would be
//!    to replace this firmware").
//!
//! The signature scheme is a keyed mixing checksum — a stand-in for the
//! RSA verification real mask ROMs do; its only required property here is
//! that images not signed with the manufacturer key fail verification.

use crate::cache::Pl310;
use crate::error::SocError;
use crate::iram::Iram;

/// A firmware image with its manufacturer signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FirmwareImage {
    /// The firmware code/data (opaque to the simulation).
    pub(crate) image: Vec<u8>,
    /// Whether this image performs the iRAM/L2 zeroing duty. Genuine
    /// manufacturer firmware always does; the attack experiments build
    /// doctored images with this turned off.
    pub(crate) zeroes_on_boot: bool,
    /// The signature over `image` and `zeroes_on_boot`.
    pub(crate) signature: u64,
}

/// The manufacturer signing key (symmetric, for the model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ManufacturerKey(pub u64);

impl ManufacturerKey {
    /// Sign a firmware image.
    #[must_use]
    pub(crate) fn sign(&self, image: &[u8], zeroes_on_boot: bool) -> FirmwareImage {
        FirmwareImage {
            image: image.to_vec(),
            zeroes_on_boot,
            signature: checksum(self.0, image, zeroes_on_boot),
        }
    }
}

/// Keyed mixing checksum used as the model's signature primitive.
fn checksum(key: u64, image: &[u8], zeroes_on_boot: bool) -> u64 {
    let mut h = key ^ 0x9E37_79B9_7F4A_7C15;
    for &b in image {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01B3);
        h = h.rotate_left(17);
    }
    h ^ u64::from(zeroes_on_boot)
}

/// The mask boot ROM: holds the manufacturer's verification key.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BootRom {
    key: ManufacturerKey,
}

/// What a boot did, for experiment logging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BootReport {
    /// Whether this boot followed a power loss (cold) or was warm.
    pub(crate) power_was_lost: bool,
    /// Whether iRAM and the L2 cache were zeroed by firmware.
    pub(crate) zeroed_on_soc_memory: bool,
}

impl BootRom {
    /// A boot ROM trusting `key`.
    #[must_use]
    pub(crate) fn new(key: ManufacturerKey) -> Self {
        BootRom { key }
    }

    /// Verify and boot `firmware`.
    ///
    /// On a power-on (cold) boot with genuine firmware, iRAM is zeroed
    /// and the PL310 is reset. A warm reboot leaves both intact — the
    /// OS-reboot row of Table 2.
    ///
    /// # Errors
    ///
    /// [`SocError::BadFirmwareSignature`] if the image's signature does
    /// not verify; the device refuses to boot, so doctored firmware
    /// cannot disable the zeroing duty.
    pub(crate) fn boot(
        &self,
        firmware: &FirmwareImage,
        power_was_lost: bool,
        iram: &mut Iram,
        cache: &mut Pl310,
    ) -> Result<BootReport, SocError> {
        let expected = checksum(self.key.0, &firmware.image, firmware.zeroes_on_boot);
        if expected != firmware.signature {
            return Err(SocError::BadFirmwareSignature);
        }
        let mut zeroed = false;
        if power_was_lost && firmware.zeroes_on_boot {
            iram.zeroize();
            cache.power_on_reset();
            zeroed = true;
        } else if power_was_lost {
            // Hypothetical non-zeroing firmware (only reachable if signed
            // by the manufacturer): the hardware arrays keep whatever
            // survived decay.
            cache.power_on_reset();
        }
        Ok(BootReport {
            power_was_lost,
            zeroed_on_soc_memory: zeroed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{IRAM_BASE, IRAM_FIRMWARE_RESERVED};

    #[test]
    fn cold_boot_with_genuine_firmware_zeroes_iram() {
        let key = ManufacturerKey(0x1234);
        let rom = BootRom::new(key);
        let fw = key.sign(b"vendor blob", true);
        let mut iram = Iram::new(0);
        let mut cache = Pl310::new();
        assert!(iram.write(IRAM_BASE + IRAM_FIRMWARE_RESERVED, b"secret"));
        let report = rom.boot(&fw, true, &mut iram, &mut cache).unwrap();
        assert!(report.zeroed_on_soc_memory);
        assert!(iram.as_bytes().iter().all(|&b| b == 0));
    }

    #[test]
    fn warm_reboot_preserves_iram() {
        let key = ManufacturerKey(0x1234);
        let rom = BootRom::new(key);
        let fw = key.sign(b"vendor blob", true);
        let mut iram = Iram::new(0);
        let mut cache = Pl310::new();
        assert!(iram.write(IRAM_BASE + IRAM_FIRMWARE_RESERVED, b"secret"));
        let report = rom.boot(&fw, false, &mut iram, &mut cache).unwrap();
        assert!(!report.zeroed_on_soc_memory);
        let mut buf = [0u8; 6];
        iram.read(IRAM_BASE + IRAM_FIRMWARE_RESERVED, &mut buf);
        assert_eq!(&buf, b"secret");
    }

    #[test]
    fn tampered_firmware_is_rejected() {
        let key = ManufacturerKey(0x1234);
        let rom = BootRom::new(key);
        // Attacker takes genuine firmware and flips the zeroing flag.
        let mut fw = key.sign(b"vendor blob", true);
        fw.zeroes_on_boot = false;
        let mut iram = Iram::new(0);
        let mut cache = Pl310::new();
        let err = rom.boot(&fw, true, &mut iram, &mut cache).unwrap_err();
        assert_eq!(err, SocError::BadFirmwareSignature);
    }

    #[test]
    fn firmware_signed_with_wrong_key_is_rejected() {
        let rom = BootRom::new(ManufacturerKey(0x1234));
        let fw = ManufacturerKey(0xBEEF).sign(b"attacker blob", false);
        let mut iram = Iram::new(0);
        let mut cache = Pl310::new();
        assert!(rom.boot(&fw, true, &mut iram, &mut cache).is_err());
    }
}
