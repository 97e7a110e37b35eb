//! The asynchronous read-path crypt pipeline: CTR keystream precompute.
//!
//! CTR is the only page cipher mode whose per-byte work is independent of
//! the data: the keystream is `E_k(counter)` over a counter derived from
//! the sector number alone. That means a read path can compute the
//! keystream *before* the ciphertext arrives — while the simulated block
//! device "seeks" or while the crypto accelerator's DMA engine is busy —
//! and finish the decrypt with a cheap XOR once the bytes land. This
//! module provides the data structures for that overlap:
//!
//! * [`KeystreamCache`] — a per-volume, epoch-bound, **single-use** store
//!   of precomputed sector keystream. Entries are keyed by
//!   `(sector, epoch)` and removed on [`KeystreamCache::take`], so a
//!   keystream buffer can never be served twice; rotating the epoch
//!   (volume-key change, device lock) zeroizes every resident buffer
//!   before dropping it.
//! * [`PipelineConfig`] — the on/off switch shared by dm-crypt's read
//!   path and Sentry's readahead/sweeper batch routing.
//! * [`FallbackReason`] — the typed reasons a request stays on the
//!   inline CPU path instead of the accelerator queue, and
//!   [`FallbackCounts`], one counter per reason.
//!
//! # Residency model
//!
//! Keystream is key-equivalent material: XORing it with ciphertext
//! yields plaintext, so a keystream block in DRAM would be as damaging
//! as a leaked round key. The cache therefore models **on-SoC scratch**
//! (iRAM or a locked way): its buffers are host-memory state of the
//! simulation, never written through the simulated DRAM hierarchy, and
//! so die with power exactly like the volatile root key. The explicit
//! zeroize-on-lock is the software half of the discipline; the cold-boot
//! scan cell in `exp_read_overlap` verifies the hardware half (a power
//! cut finds no keystream anywhere in simulated DRAM).

use crate::batch::BlockCipherBatch;
use crate::modes::ctr_crypt;
use std::collections::HashMap;

/// Keystream cache capacity, in sectors. Oldest entries are zeroized
/// and evicted first.
pub const KEYSTREAM_SECTORS: usize = 128;

/// How many sectors past the end of the current request the precompute
/// lanes may run ahead (bounded lookahead keeps the on-SoC scratch
/// footprint small).
pub const PRECOMPUTE_AHEAD: usize = 64;

/// Runs shorter than this many units — a dm-crypt miss run in sectors,
/// a lifecycle decrypt batch in pages — skip the accelerator queue
/// (descriptor setup would dominate) and decrypt on the CPU.
pub const MIN_ACCEL_SECTORS: usize = 2;

/// The switch for the asynchronous read-path crypt pipeline. Its
/// geometry is fixed: [`KEYSTREAM_SECTORS`], [`PRECOMPUTE_AHEAD`] and
/// [`MIN_ACCEL_SECTORS`].
///
/// Disabled (the default), every consumer behaves exactly as if this
/// config did not exist: dm-crypt decrypts inline after the device wait
/// and lifecycle batches stay on the CPU engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Master switch for the overlapped dm-crypt read path.
    pub enabled: bool,
}

impl PipelineConfig {
    /// An enabled pipeline.
    #[must_use]
    pub fn enabled() -> Self {
        PipelineConfig { enabled: true }
    }
}

/// Why a request (or batch) stayed on the inline CPU path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FallbackReason {
    /// The pipeline is disabled by configuration.
    Disabled,
    /// The accelerator clock is down-scaled (device locked / suspending,
    /// paper §8.2) — queueing work would be slower than the CPU.
    AccelDownScaled,
    /// The selected cipher mode is serially chained (CBC): extent
    /// descriptors cannot be decrypted independently by the engine.
    UnsupportedCipherMode,
    /// The run was shorter than [`MIN_ACCEL_SECTORS`] units; descriptor
    /// setup would dominate.
    BelowThreshold,
    /// The health governor's circuit breaker is Open: the accelerator
    /// recently wedged, corrupted output, or timed out, so dispatch is
    /// routed straight to the CPU path until a half-open probe
    /// succeeds.
    BreakerOpen,
}

/// Requests (or batches) that stayed on the inline CPU path, per
/// [`FallbackReason`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FallbackCounts {
    /// [`FallbackReason::Disabled`]: the pipeline was disabled or
    /// unkeyed.
    pub(crate) disabled: u64,
    /// [`FallbackReason::AccelDownScaled`].
    pub down_scaled: u64,
    /// [`FallbackReason::UnsupportedCipherMode`].
    pub unsupported_mode: u64,
    /// [`FallbackReason::BelowThreshold`].
    pub below_threshold: u64,
    /// [`FallbackReason::BreakerOpen`].
    pub breaker_open: u64,
}

impl FallbackCounts {
    /// Count one fallback for `reason`.
    pub fn note(&mut self, reason: FallbackReason) {
        *match reason {
            FallbackReason::Disabled => &mut self.disabled,
            FallbackReason::AccelDownScaled => &mut self.down_scaled,
            FallbackReason::UnsupportedCipherMode => &mut self.unsupported_mode,
            FallbackReason::BelowThreshold => &mut self.below_threshold,
            FallbackReason::BreakerOpen => &mut self.breaker_open,
        } += 1;
    }

    /// Fallbacks across every reason.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.disabled
            + self.down_scaled
            + self.unsupported_mode
            + self.below_threshold
            + self.breaker_open
    }
}

/// Cumulative keystream-cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KeystreamStats {
    /// Sectors whose keystream was precomputed into the cache.
    pub precomputed: u64,
    /// Takes served from the cache (each consumed its entry).
    pub hits: u64,
    /// Takes that found no entry (or only a stale-epoch entry).
    pub misses: u64,
    /// Entries zeroized and evicted to make room (FIFO order).
    pub(crate) evicted: u64,
    /// Takes refused because the caller's epoch did not match the
    /// cache's — the stale entry is zeroized and dropped, never served.
    pub stale_epoch_denied: u64,
    /// Entries zeroized by explicit epoch rotation (key change or
    /// device lock).
    pub zeroized_on_rotate: u64,
}

/// A per-volume, epoch-bound, single-use cache of precomputed sector
/// keystream. See the module docs for the residency model.
#[derive(Debug, Clone)]
pub struct KeystreamCache {
    /// Bytes of keystream per entry (the sector size).
    unit: usize,
    /// Maximum resident entries.
    capacity: usize,
    /// Current key epoch; entries are bound to the epoch they were
    /// generated under and can only be taken under that same epoch.
    epoch: u64,
    entries: HashMap<u64, Vec<u8>>,
    /// Insertion order for FIFO eviction.
    order: Vec<u64>,
    /// Cumulative statistics.
    pub stats: KeystreamStats,
}

impl KeystreamCache {
    /// An empty cache of `capacity` entries of `unit` bytes each.
    #[must_use]
    pub fn new(unit: usize, capacity: usize) -> Self {
        KeystreamCache {
            unit,
            capacity,
            epoch: 0,
            entries: HashMap::new(),
            order: Vec::new(),
            stats: KeystreamStats::default(),
        }
    }

    /// The current key epoch.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Resident entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether keystream for `sector` is resident (without consuming it).
    #[must_use]
    pub fn contains(&self, sector: u64) -> bool {
        self.entries.contains_key(&sector)
    }

    /// Insert precomputed keystream for `sector`, evicting (zeroized)
    /// FIFO victims if full. Re-inserting an existing sector replaces
    /// (and zeroizes) the old buffer.
    ///
    /// # Panics
    ///
    /// Panics if `ks` is not exactly one unit long.
    pub fn insert(&mut self, sector: u64, ks: Vec<u8>) {
        assert_eq!(ks.len(), self.unit, "keystream must be one unit");
        if self.capacity == 0 {
            return;
        }
        if let Some(mut old) = self.entries.insert(sector, ks) {
            zeroize(&mut old);
            self.order.retain(|&s| s != sector);
        }
        self.order.push(sector);
        self.stats.precomputed += 1;
        while self.entries.len() > self.capacity {
            let victim = self.order.remove(0);
            if let Some(mut buf) = self.entries.remove(&victim) {
                zeroize(&mut buf);
                self.stats.evicted += 1;
            }
        }
    }

    /// Take the keystream for `(sector, epoch)`, **consuming** the entry
    /// — the single-use discipline. Returns `None` on a miss; a caller
    /// presenting a stale epoch never receives the entry (it is
    /// zeroized and dropped instead, and the denial is counted).
    pub fn take(&mut self, sector: u64, epoch: u64) -> Option<Vec<u8>> {
        match self.entries.remove(&sector) {
            Some(ks) if epoch == self.epoch => {
                self.order.retain(|&s| s != sector);
                self.stats.hits += 1;
                Some(ks)
            }
            Some(mut stale) => {
                zeroize(&mut stale);
                self.order.retain(|&s| s != sector);
                self.stats.stale_epoch_denied += 1;
                self.stats.misses += 1;
                None
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Rotate the key epoch: zeroize and drop every resident buffer,
    /// then bump the epoch so any in-flight consumer holding the old
    /// epoch can never hit. Called on volume-key change and on device
    /// lock.
    pub fn rotate_epoch(&mut self) {
        for (_, buf) in self.entries.iter_mut() {
            zeroize(buf);
            self.stats.zeroized_on_rotate += 1;
        }
        self.entries.clear();
        self.order.clear();
        self.epoch += 1;
    }
}

/// Best-effort zeroization of a keystream buffer before it is dropped.
fn zeroize(buf: &mut [u8]) {
    for b in buf.iter_mut() {
        // Volatile-ish: the value is read back below so the loop is not
        // a dead store even under aggressive optimisation of the model.
        *b = 0;
    }
    debug_assert!(buf.iter().all(|&b| b == 0));
}

/// Generate `len` bytes of CTR keystream starting at counter block `iv`
/// (encrypting zeroes is exactly the keystream).
#[must_use]
pub fn ctr_keystream<C: BlockCipherBatch>(cipher: &C, iv: &[u8; 16], len: usize) -> Vec<u8> {
    let mut ks = vec![0u8; len];
    ctr_crypt(cipher, iv, &mut ks);
    ks
}

/// XOR precomputed keystream into `data` in place — the cheap half of an
/// overlapped CTR decrypt.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn xor_keystream(data: &mut [u8], ks: &[u8]) {
    assert_eq!(data.len(), ks.len(), "keystream length mismatch");
    for (d, k) in data.iter_mut().zip(ks) {
        *d ^= *k;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitslice::BitslicedAes;
    use crate::modes::ctr_crypt;

    fn cache() -> KeystreamCache {
        KeystreamCache::new(512, 4)
    }

    #[test]
    fn take_is_single_use() {
        let mut c = cache();
        c.insert(7, vec![0xAB; 512]);
        assert!(c.contains(7));
        assert_eq!(c.take(7, 0), Some(vec![0xAB; 512]));
        // The entry was consumed: a second take under the same epoch
        // misses — keystream is never served twice.
        assert_eq!(c.take(7, 0), None);
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 1);
    }

    #[test]
    fn stale_epoch_is_denied_and_zeroized() {
        let mut c = cache();
        c.insert(3, vec![0x55; 512]);
        // Rotation happens between insert and take (lock transition).
        c.rotate_epoch();
        c.insert(3, vec![0x66; 512]);
        // A consumer still holding epoch 0 is denied the epoch-1 entry.
        assert_eq!(c.take(3, 0), None);
        assert_eq!(c.stats.stale_epoch_denied, 1);
        // And the stale entry was dropped, not kept for a retry.
        assert_eq!(c.take(3, 1), None);
    }

    #[test]
    fn rotate_epoch_zeroizes_and_clears() {
        let mut c = cache();
        c.insert(1, vec![0x11; 512]);
        c.insert(2, vec![0x22; 512]);
        c.rotate_epoch();
        assert!(c.is_empty());
        assert_eq!(c.epoch(), 1);
        assert_eq!(c.stats.zeroized_on_rotate, 2);
        assert_eq!(c.take(1, 1), None);
    }

    #[test]
    fn fifo_eviction_zeroizes_victims() {
        let mut c = cache();
        for s in 0..6u64 {
            c.insert(s, vec![s as u8; 512]);
        }
        assert_eq!(c.len(), 4);
        assert_eq!(c.stats.evicted, 2);
        assert!(!c.contains(0) && !c.contains(1));
        assert!(c.contains(5));
    }

    #[test]
    fn ctr_keystream_matches_ctr_crypt_of_zeroes() {
        let bits = BitslicedAes::new(&[0x5Eu8; 16]).unwrap();
        let iv = [0x13u8; 16];
        let ks = ctr_keystream(&bits, &iv, 512);
        let mut zeroes = vec![0u8; 512];
        ctr_crypt(&bits, &iv, &mut zeroes);
        assert_eq!(ks, zeroes);

        // XOR-applying the keystream decrypts exactly like ctr_crypt.
        let pt: Vec<u8> = (0..512).map(|i| (i * 7) as u8).collect();
        let mut ct = pt.clone();
        ctr_crypt(&bits, &iv, &mut ct);
        xor_keystream(&mut ct, &ks);
        assert_eq!(ct, pt);
    }

    #[test]
    fn config_builders() {
        assert!(PipelineConfig::enabled().enabled);
        assert!(!PipelineConfig::default().enabled);
    }
}
