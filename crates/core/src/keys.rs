//! Root key management (§7, Bootstrapping).
//!
//! Sentry uses two AES root keys:
//!
//! * the **volatile root key** encrypts sensitive applications' memory
//!   pages; it is generated afresh at every boot and lives *only* on the
//!   SoC (an on-SoC page from the [`crate::onsoc::OnSocStore`]);
//! * the **persistent root key** encrypts on-disk state via dm-crypt; it
//!   is derived from a boot-time user password combined with the
//!   device-unique secret in a hardware fuse readable only from the
//!   TrustZone secure world.

use crate::error::SentryError;
use sentry_crypto::Aes;
use sentry_soc::rng::DetRng;
use sentry_soc::{Soc, SocError};

/// Length of a root key in bytes (AES-256).
pub(crate) const ROOT_KEY_LEN: usize = 32;

/// Iterations of the AES-based key-stretching loop.
pub(crate) const KDF_ITERATIONS: usize = 1000;

/// Handle to the volatile root key stored at an on-SoC address.
#[derive(Debug, Clone, Copy)]
pub struct VolatileRootKey {
    addr: u64,
}

impl VolatileRootKey {
    /// Generate a fresh volatile key into the on-SoC page at `addr`.
    ///
    /// `entropy` seeds the generator (a real device would use its TRNG).
    ///
    /// # Errors
    ///
    /// Propagates memory errors from the on-SoC write.
    pub(crate) fn generate(soc: &mut Soc, addr: u64, entropy: u64) -> Result<Self, SentryError> {
        let mut rng = DetRng::new(entropy ^ 0x5EED_5EED_5EED_5EED);
        let mut key = [0u8; ROOT_KEY_LEN];
        rng.fill(&mut key);
        soc.mem_write(addr, &key)?;
        Ok(VolatileRootKey { addr })
    }

    /// Read the key (for handing to the AES engine at lock time).
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn read(&self, soc: &mut Soc) -> Result<[u8; ROOT_KEY_LEN], SentryError> {
        let mut key = [0u8; ROOT_KEY_LEN];
        soc.mem_read(self.addr, &mut key)?;
        Ok(key)
    }
}

/// Derive the persistent root key from the user's boot-time password and
/// the TrustZone hardware fuse.
///
/// The derivation runs in the secure world (the fuse is unreadable
/// otherwise) and stretches the password with `KDF_ITERATIONS` AES
/// applications keyed by the fuse — a deliberately simple PBKDF stand-in
/// whose relevant property is that neither input alone suffices.
///
/// # Errors
///
/// [`SentryError::Soc`] if the fuse cannot be read.
pub fn derive_persistent_key(
    soc: &mut Soc,
    password: &str,
) -> Result<[u8; ROOT_KEY_LEN], SentryError> {
    let fuse = soc.in_secure_world(|soc| soc.trustzone.read_fuse());
    let fuse = fuse.ok_or(SentryError::Soc(SocError::RequiresSecureWorld {
        op: "read fuse",
    }))?;

    // Absorb the password into two 16-byte blocks.
    let mut block_a = [0u8; 16];
    let mut block_b = [0u8; 16];
    for (i, b) in password.bytes().enumerate() {
        block_a[i % 16] ^= b;
        block_b[(i * 7 + 3) % 16] ^= b.rotate_left((i % 8) as u32);
    }
    block_a[15] ^= password.len() as u8;

    // Stretch under two fuse-derived AES keys.
    let aes_lo = Aes::new(&fuse[..16]).expect("16-byte key");
    let aes_hi = Aes::new(&fuse[16..]).expect("16-byte key");
    for _ in 0..KDF_ITERATIONS {
        aes_lo.encrypt_block(&mut block_a);
        for (a, b) in block_b.iter_mut().zip(block_a.iter()) {
            *a ^= b;
        }
        aes_hi.encrypt_block(&mut block_b);
    }

    let mut key = [0u8; ROOT_KEY_LEN];
    key[..16].copy_from_slice(&block_a);
    key[16..].copy_from_slice(&block_b);
    Ok(key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentry_soc::addr::{IRAM_BASE, IRAM_FIRMWARE_RESERVED};
    use sentry_soc::dram::PowerEvent;

    fn key_addr() -> u64 {
        IRAM_BASE + IRAM_FIRMWARE_RESERVED
    }

    #[test]
    fn volatile_key_roundtrip() {
        let mut soc = Soc::tegra3_small();
        let vk = VolatileRootKey::generate(&mut soc, key_addr(), 7).unwrap();
        let k1 = vk.read(&mut soc).unwrap();
        assert_ne!(k1, [0u8; 32]);
        assert_eq!(vk.read(&mut soc).unwrap(), k1);
    }

    #[test]
    fn volatile_key_differs_across_boots() {
        let mut soc = Soc::tegra3_small();
        let vk1 = VolatileRootKey::generate(&mut soc, key_addr(), 1).unwrap();
        let k1 = vk1.read(&mut soc).unwrap();
        let vk2 = VolatileRootKey::generate(&mut soc, key_addr(), 2).unwrap();
        let k2 = vk2.read(&mut soc).unwrap();
        assert_ne!(k1, k2);
    }

    #[test]
    fn volatile_key_is_gone_after_power_loss() {
        let mut soc = Soc::tegra3_small();
        let vk = VolatileRootKey::generate(&mut soc, key_addr(), 7).unwrap();
        let key = vk.read(&mut soc).unwrap();
        soc.power_cycle(PowerEvent::ReflashTap).unwrap();
        let after = vk.read(&mut soc).unwrap();
        assert_ne!(after, key);
        assert_eq!(after, [0u8; 32], "firmware zeroed iRAM");
    }

    #[test]
    fn persistent_key_depends_on_password_and_fuse() {
        let mut soc = Soc::tegra3_small();
        let k1 = derive_persistent_key(&mut soc, "hunter2").unwrap();
        let k2 = derive_persistent_key(&mut soc, "hunter3").unwrap();
        assert_ne!(k1, k2, "password must matter");
        let k1_again = derive_persistent_key(&mut soc, "hunter2").unwrap();
        assert_eq!(k1, k1_again, "derivation is deterministic");

        // A different device (different fuse) derives a different key.
        let cfg = sentry_soc::SocConfig::new(sentry_soc::Platform::Tegra3).with_dram_size(64 << 20);
        let mut other = Soc::new(sentry_soc::SocConfig {
            fuse: [0x13u8; 32],
            ..cfg
        });
        let k3 = derive_persistent_key(&mut other, "hunter2").unwrap();
        assert_ne!(k1, k3, "fuse must matter");
    }

    #[test]
    fn derivation_leaves_normal_world() {
        let mut soc = Soc::tegra3_small();
        let _ = derive_persistent_key(&mut soc, "pw").unwrap();
        assert_eq!(soc.trustzone.world(), sentry_soc::trustzone::World::Normal);
    }
}
