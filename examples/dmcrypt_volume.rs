//! Securing persistent state: a dm-crypt volume whose key is derived
//! from the boot password + the TrustZone fuse, encrypted with AES On
//! SoC so the cryptographic state never reaches DRAM (§7, "Securing
//! Persistent State").
//!
//! ```text
//! cargo run --example dmcrypt_volume
//! ```

use sentry::core::aes_onsoc::build_engine;
use sentry::core::config::OnSocBackend;
use sentry::core::keys::derive_persistent_key;
use sentry::core::onsoc::OnSocStore;
use sentry::kernel::bufcache::{Volume, VolumeCrypto, CACHE_BLOCK};
use sentry::kernel::dmcrypt::DmCrypt;
use sentry::kernel::vfs::SimpleFs;
use sentry::kernel::Kernel;
use sentry::soc::Soc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut kernel = Kernel::new(Soc::tegra3_small());

    // Derive the persistent root key: user password + hardware fuse,
    // stretched inside the secure world.
    let key = derive_persistent_key(&mut kernel.soc, "correct horse battery staple")?;
    println!("persistent root key derived from password + TrustZone fuse");

    // Register AES On SoC; dm-crypt picks it up via CryptoAPI priority.
    let mut store = OnSocStore::new(OnSocBackend::LockedL2 { max_ways: 1 }, &mut kernel.soc);
    let engine = build_engine(&mut store, &mut kernel.soc, &key[..16])?;
    kernel.crypto.register(Box::new(engine));
    println!(
        "cipher registry (priority order): {:?}",
        kernel.crypto.listing()
    );

    // Mount an encrypted volume and use it through the file layer.
    let dm = DmCrypt::with_preferred_cipher();
    dm.set_key(&mut kernel.crypto, &mut kernel.soc, &key[..16])?;
    let mut vol = Volume::new(8192, VolumeCrypto::DmCrypt(dm), 256);
    let mut fs = SimpleFs::new();
    fs.create(&vol, "diary.txt", 64 * 1024)?;

    let mut block = vec![0u8; CACHE_BLOCK];
    block[..34].copy_from_slice(b"Dear diary, nobody must read this.");
    fs.write(
        &mut vol,
        &mut kernel.crypto,
        &mut kernel.soc,
        "diary.txt",
        0,
        &block,
        false,
    )?;

    let mut back = vec![0u8; CACHE_BLOCK];
    fs.read(
        &mut vol,
        &mut kernel.crypto,
        &mut kernel.soc,
        "diary.txt",
        0,
        &mut back,
        true,
    )?;
    assert_eq!(&back[..34], &block[..34]);
    println!("file round-trips through dm-crypt + AES On SoC");

    // The raw device holds ciphertext only.
    let mut clock = sentry::soc::SimClock::new();
    let mut raw = vec![0u8; 512];
    use sentry::kernel::block::BlockDevice;
    vol.disk.read_sectors(0, &mut raw, &mut clock)?;
    println!(
        "raw device bytes are ciphertext: {}",
        !raw.windows(10).any(|w| w == b"Dear diary")
    );

    // Same password next boot -> same key; wrong password -> wrong key.
    let again = derive_persistent_key(&mut kernel.soc, "correct horse battery staple")?;
    let wrong = derive_persistent_key(&mut kernel.soc, "hunter2")?;
    println!(
        "key derivation deterministic: {} / wrong password differs: {}",
        key == again,
        key != wrong
    );
    Ok(())
}
