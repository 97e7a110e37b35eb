//! The file-system buffer cache and the storage volume stack.
//!
//! Figure 9's first observation is that "the presence of the file system
//! buffer cache masks some of the performance overhead" of dm-crypt:
//! cached reads never touch the cipher, so `randread` shows no crypto
//! cost until direct I/O bypasses the cache. Writes, in contrast, must
//! reach the (encrypted) device, so `randrw` pays for encryption even
//! with the cache on.
//!
//! [`Volume`] stacks the pieces the way the Linux block layer does:
//! buffer cache → optional dm-crypt → block device, with a direct-I/O
//! switch that bypasses the cache.

use crate::block::{BlockDevice, RamDisk, SECTOR_SIZE};
use crate::crypto_api::CryptoApi;
use crate::dmcrypt::DmCrypt;
use crate::error::KernelError;
use sentry_soc::Soc;
use std::collections::{BTreeMap, HashMap};

/// Cache block size: 4 KiB (8 sectors), matching the page cache.
pub const CACHE_BLOCK: usize = 4096;
const SECTORS_PER_BLOCK: u64 = (CACHE_BLOCK / SECTOR_SIZE) as u64;

/// An LRU cache of device blocks.
#[derive(Debug, Default)]
pub struct BufferCache {
    capacity: usize,
    blocks: HashMap<u64, Vec<u8>>,
    stamps: HashMap<u64, u64>,
    by_stamp: BTreeMap<u64, u64>,
    next_stamp: u64,
    /// Cache hits served.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
}

impl BufferCache {
    /// A cache holding at most `capacity` blocks.
    #[must_use]
    pub(crate) fn new(capacity: usize) -> Self {
        BufferCache {
            capacity,
            ..BufferCache::default()
        }
    }

    fn touch(&mut self, block: u64) {
        if let Some(old) = self.stamps.insert(block, self.next_stamp) {
            self.by_stamp.remove(&old);
        }
        self.by_stamp.insert(self.next_stamp, block);
        self.next_stamp += 1;
    }

    /// Look up a block, refreshing its recency.
    pub(crate) fn get(&mut self, block: u64) -> Option<&Vec<u8>> {
        if self.blocks.contains_key(&block) {
            self.hits += 1;
            self.touch(block);
            self.blocks.get(&block)
        } else {
            self.misses += 1;
            None
        }
    }

    /// Insert a block, evicting the least-recently-used one if full.
    pub(crate) fn insert(&mut self, block: u64, data: Vec<u8>) {
        debug_assert_eq!(data.len(), CACHE_BLOCK);
        if self.capacity == 0 {
            return;
        }
        if !self.blocks.contains_key(&block) && self.blocks.len() >= self.capacity {
            if let Some((&stamp, &victim)) = self.by_stamp.iter().next() {
                self.by_stamp.remove(&stamp);
                self.stamps.remove(&victim);
                self.blocks.remove(&victim);
            }
        }
        self.blocks.insert(block, data);
        self.touch(block);
    }

    /// Discard everything.
    pub(crate) fn clear(&mut self) {
        self.blocks.clear();
        self.stamps.clear();
        self.by_stamp.clear();
    }
}

/// Crypto configuration of a volume.
// One `Volume` holds exactly one `VolumeCrypto`, so the size gap
// between the variants (the dm-crypt keystream cache is a few KiB)
// never multiplies across a collection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum VolumeCrypto {
    /// Plain device, no encryption ("No Crypto" bars of Figure 9).
    None,
    /// dm-crypt with the given mapping.
    DmCrypt(DmCrypt),
}

/// A mounted storage volume: buffer cache over (optionally) dm-crypt
/// over a RAM disk.
#[derive(Debug)]
pub struct Volume {
    /// The backing device.
    pub disk: RamDisk,
    /// Encryption layer.
    pub crypto: VolumeCrypto,
    /// The buffer cache.
    pub cache: BufferCache,
}

impl Volume {
    /// Create a volume of `sectors` sectors with a cache of
    /// `cache_blocks` blocks.
    #[must_use]
    pub fn new(sectors: u64, crypto: VolumeCrypto, cache_blocks: usize) -> Self {
        Volume {
            disk: RamDisk::new(sectors),
            crypto,
            cache: BufferCache::new(cache_blocks),
        }
    }

    /// Volume size in bytes.
    #[must_use]
    pub(crate) fn size(&self) -> u64 {
        self.disk.num_sectors() * SECTOR_SIZE as u64
    }

    /// Device-lock hook: zeroize any precomputed keystream held by the
    /// dm-crypt layer (key-equivalent material must not survive a lock
    /// transition) and drop the plaintext buffer cache.
    pub fn on_lock(&mut self) {
        if let VolumeCrypto::DmCrypt(dm) = &self.crypto {
            dm.zeroize_keystream();
        }
        self.cache.clear();
    }

    fn device_read(
        &mut self,
        api: &mut CryptoApi,
        soc: &mut Soc,
        sector: u64,
        buf: &mut [u8],
    ) -> Result<(), KernelError> {
        // Split-borrow the disk and the crypto layer (dm-crypt keeps
        // interior state — sector tags, the keystream cache — that must
        // persist across calls, so no clone).
        let Volume { disk, crypto, .. } = self;
        match crypto {
            VolumeCrypto::None => disk.read_sectors(sector, buf, &mut soc.clock),
            VolumeCrypto::DmCrypt(dm) => dm.read(api, soc, disk, sector, buf),
        }
    }

    fn device_write(
        &mut self,
        api: &mut CryptoApi,
        soc: &mut Soc,
        sector: u64,
        data: &[u8],
    ) -> Result<(), KernelError> {
        let Volume { disk, crypto, .. } = self;
        match crypto {
            VolumeCrypto::None => disk.write_sectors(sector, data, &mut soc.clock),
            VolumeCrypto::DmCrypt(dm) => dm.write(api, soc, disk, sector, data),
        }
    }

    /// Read `buf.len()` bytes at byte `offset`. With `direct_io` the
    /// buffer cache is bypassed entirely (the `O_DIRECT` runs of
    /// Figure 9).
    ///
    /// # Errors
    ///
    /// Propagates block/cipher errors; offsets must be block-aligned.
    ///
    /// # Panics
    ///
    /// Panics if `offset` or the length is not 4 KiB-aligned (filebench
    /// issues aligned I/O).
    pub fn read(
        &mut self,
        api: &mut CryptoApi,
        soc: &mut Soc,
        offset: u64,
        buf: &mut [u8],
        direct_io: bool,
    ) -> Result<(), KernelError> {
        assert!(
            offset.is_multiple_of(CACHE_BLOCK as u64),
            "block-aligned I/O only"
        );
        assert!(
            buf.len().is_multiple_of(CACHE_BLOCK),
            "block-aligned I/O only"
        );
        for (i, chunk) in buf.chunks_exact_mut(CACHE_BLOCK).enumerate() {
            let block = offset / CACHE_BLOCK as u64 + i as u64;
            if !direct_io {
                if let Some(cached) = self.cache.get(block) {
                    chunk.copy_from_slice(cached);
                    // Serving from the page cache costs a memcpy.
                    soc.clock.advance(soc.costs.page_copy_ns);
                    continue;
                }
            }
            self.device_read(api, soc, block * SECTORS_PER_BLOCK, chunk)?;
            if !direct_io {
                self.cache.insert(block, chunk.to_vec());
            }
        }
        Ok(())
    }

    /// Write `data` at byte `offset`. Writes are write-through: they
    /// update the cache copy (if resident) *and* go to the device, so
    /// encrypted volumes pay the cipher cost on every write — the
    /// `randrw` behaviour of Figure 9.
    ///
    /// # Errors
    ///
    /// Propagates block/cipher errors.
    ///
    /// # Panics
    ///
    /// Panics on unaligned I/O.
    pub fn write(
        &mut self,
        api: &mut CryptoApi,
        soc: &mut Soc,
        offset: u64,
        data: &[u8],
        direct_io: bool,
    ) -> Result<(), KernelError> {
        assert!(
            offset.is_multiple_of(CACHE_BLOCK as u64),
            "block-aligned I/O only"
        );
        assert!(
            data.len().is_multiple_of(CACHE_BLOCK),
            "block-aligned I/O only"
        );
        for (i, chunk) in data.chunks_exact(CACHE_BLOCK).enumerate() {
            let block = offset / CACHE_BLOCK as u64 + i as u64;
            if !direct_io {
                // Write-allocate: written blocks are hot (this is what
                // lets the paper's file-creation phase warm the cache).
                self.cache.insert(block, chunk.to_vec());
            }
            self.device_write(api, soc, block * SECTORS_PER_BLOCK, chunk)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crypto_api::GenericAesEngine;

    fn api_and_soc() -> (CryptoApi, Soc) {
        let mut api = CryptoApi::new();
        api.register(Box::new(GenericAesEngine::new(0)));
        (api, Soc::tegra3_small())
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = BufferCache::new(2);
        c.insert(1, vec![1u8; CACHE_BLOCK]);
        c.insert(2, vec![2u8; CACHE_BLOCK]);
        assert!(c.get(1).is_some()); // 1 becomes MRU
        c.insert(3, vec![3u8; CACHE_BLOCK]);
        assert!(c.get(2).is_none(), "2 was LRU and must be evicted");
        assert!(c.get(1).is_some());
        assert!(c.get(3).is_some());
    }

    #[test]
    fn cached_reads_skip_the_device() {
        let (mut api, mut soc) = api_and_soc();
        let mut vol = Volume::new(1024, VolumeCrypto::None, 64);
        let data = vec![0x11u8; CACHE_BLOCK];
        vol.write(&mut api, &mut soc, 0, &data, false).unwrap();
        let mut buf = vec![0u8; CACHE_BLOCK];
        vol.read(&mut api, &mut soc, 0, &mut buf, false).unwrap(); // miss, fills
        let misses_before = vol.cache.misses;
        vol.read(&mut api, &mut soc, 0, &mut buf, false).unwrap(); // hit
        assert_eq!(vol.cache.misses, misses_before);
        assert!(vol.cache.hits >= 1);
        assert_eq!(buf, data);
    }

    #[test]
    fn direct_io_bypasses_cache() {
        let (mut api, mut soc) = api_and_soc();
        let mut vol = Volume::new(1024, VolumeCrypto::None, 64);
        let data = vec![0x22u8; CACHE_BLOCK];
        vol.write(&mut api, &mut soc, 4096, &data, true).unwrap();
        assert!(vol.cache.blocks.is_empty());
        let mut buf = vec![0u8; CACHE_BLOCK];
        vol.read(&mut api, &mut soc, 4096, &mut buf, true).unwrap();
        assert!(vol.cache.blocks.is_empty());
        assert_eq!(buf, data);
    }

    #[test]
    fn encrypted_volume_roundtrips_and_stores_ciphertext() {
        let (mut api, mut soc) = api_and_soc();
        let dm = DmCrypt::with_preferred_cipher();
        dm.set_key(&mut api, &mut soc, &[3u8; 16]).unwrap();
        let mut vol = Volume::new(1024, VolumeCrypto::DmCrypt(dm), 64);
        let data = vec![0x33u8; CACHE_BLOCK];
        vol.write(&mut api, &mut soc, 0, &data, false).unwrap();
        let mut buf = vec![0u8; CACHE_BLOCK];
        vol.read(&mut api, &mut soc, 0, &mut buf, false).unwrap();
        assert_eq!(buf, data);
        // Raw device holds ciphertext.
        let mut clock = sentry_soc::SimClock::new();
        let mut raw = vec![0u8; CACHE_BLOCK];
        vol.disk.read_sectors(0, &mut raw, &mut clock).unwrap();
        assert_ne!(raw, data);
    }

    #[test]
    fn cached_read_is_cheaper_than_encrypted_device_read() {
        let (mut api, mut soc) = api_and_soc();
        let dm = DmCrypt::with_preferred_cipher();
        dm.set_key(&mut api, &mut soc, &[3u8; 16]).unwrap();
        let mut vol = Volume::new(1024, VolumeCrypto::DmCrypt(dm), 64);
        let data = vec![0x44u8; CACHE_BLOCK];
        vol.write(&mut api, &mut soc, 0, &data, false).unwrap();
        let mut buf = vec![0u8; CACHE_BLOCK];

        let t0 = soc.clock.now_ns();
        vol.read(&mut api, &mut soc, 0, &mut buf, true).unwrap();
        let direct_ns = soc.clock.now_ns() - t0;

        vol.read(&mut api, &mut soc, 0, &mut buf, false).unwrap(); // fill cache
        let t0 = soc.clock.now_ns();
        vol.read(&mut api, &mut soc, 0, &mut buf, false).unwrap(); // hit
        let cached_ns = soc.clock.now_ns() - t0;

        assert!(
            cached_ns * 5 < direct_ns,
            "cached {cached_ns} ns vs direct {direct_ns} ns"
        );
    }
}
