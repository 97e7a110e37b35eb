//! dm-crypt: transparent block-level encryption.
//!
//! "At a high-level, dm-crypt makes three calls to an AES library, one to
//! set the encryption and decryption keys, and two calls to encrypt and
//! decrypt data" (§7). The module asks the kernel's Crypto API for its
//! cipher, so when Sentry registers AES On SoC at higher priority,
//! dm-crypt transparently stops leaking AES state to DRAM — no dm-crypt
//! changes needed beyond using the API.
//!
//! Per-sector IVs use the `plain64` convention (little-endian sector
//! number), as in stock Linux dm-crypt.
//!
//! On top of the paper's confidentiality-only design the mapping keeps a
//! per-sector authentication tag — CMAC over `plain64-IV ∥ ciphertext`
//! truncated to 64 bits, under a key derived from the volume key — so a
//! device (or the DMA path to it) that returns tampered or spliced
//! ciphertext is caught *before* the bytes are decrypted and handed to
//! the filesystem. Tags live in kernel memory, never on the device, and
//! sectors that were never written through this mapping pass through
//! unverified (there is nothing to compare against).
//!
//! With the read pipeline enabled, a CTR read precomputes sector
//! keystream under the device wait, finishes cached sectors with a XOR,
//! and hands the miss run to the accelerator through
//! [`crate::offload`] — the one offload path, shared with Sentry's
//! decrypt batches — while the CPU XORs the hits and precomputes
//! lookahead keystream.

use crate::block::{BlockDevice, SECTOR_SIZE};
use crate::crypto_api::{CipherEngine, CryptoApi};
use crate::error::KernelError;
use crate::offload::{offload, Offload, Outcome, Path};
use sentry_crypto::health::MAX_DISK_RETRIES;
use sentry_crypto::pipeline::{xor_keystream, FallbackCounts, KEYSTREAM_SECTORS, PRECOMPUTE_AHEAD};
use sentry_crypto::{
    Aes, Cmac, Direction, HealthGovernor, HealthState, HealthStats, KeystreamCache, KeystreamStats,
    PageCipher, PageCipherMode, PipelineConfig,
};
use sentry_soc::accel::WaitOutcome;
use sentry_soc::{Soc, SocError};
use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::Range;

/// Cumulative counters for the overlapped read path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadOverlapStats {
    /// Miss extents submitted to the accelerator queue.
    pub routed_extents: u64,
    /// Sectors decrypted via queued accelerator descriptors.
    pub routed_sectors: u64,
    /// Sectors decrypted inline on the CPU engine (fallbacks).
    pub inline_sectors: u64,
    /// Sectors finished by XOR of precomputed keystream.
    pub xor_sectors: u64,
    /// Nanoseconds the CPU stalled on accel completions.
    pub accel_stall_ns: u64,
    /// Requests whose miss run stayed on the CPU engine, per reason.
    pub fallback: FallbackCounts,
    /// Keystream precompute passes cut short by the pressure governor's
    /// fill cap (elective cache growth shed while on-SoC space is
    /// scarce).
    pub(crate) keystream_fill_capped: u64,
    /// Health-governor counters for this mapping (breaker trips, probes,
    /// watchdog timeouts, corrupt completions, abandoned and
    /// CPU-fallback bytes, disk retries), synced from the governor at
    /// snapshot time.
    pub health: HealthStats,
}

impl ReadOverlapStats {
    /// Total fallback events.
    #[must_use]
    pub fn fallbacks(&self) -> u64 {
        self.fallback.total()
    }
}

/// Per-volume state of the asynchronous read pipeline: the keystream
/// cache, the volume-keyed host cipher that fills it, and counters.
#[derive(Debug, Clone)]
pub(crate) struct ReadPipeline {
    cache: KeystreamCache,
    /// Pressure-governor fill cap: while set, precompute stops growing
    /// the cache past this many resident sectors (existing entries stay
    /// usable). `None` leaves the cache's own capacity in charge.
    fill_cap: Option<usize>,
    /// Host cipher under the volume key — same key the engine was
    /// given, so its CTR output is byte-identical to the engine's.
    /// `None` until `set_key` runs with the pipeline enabled.
    cipher: Option<PageCipher>,
    /// Cumulative counters.
    pub(crate) stats: ReadOverlapStats,
}

impl ReadPipeline {
    fn new() -> Self {
        ReadPipeline {
            cache: KeystreamCache::new(SECTOR_SIZE, KEYSTREAM_SECTORS),
            fill_cap: None,
            cipher: None,
            stats: ReadOverlapStats::default(),
        }
    }

    fn rekey(&mut self, key: &[u8]) {
        // Volume-key rotation: every cached keystream buffer was derived
        // from the old key — zeroize the lot and bump the epoch so no
        // in-flight consumer can hit.
        self.cache.rotate_epoch();
        self.cipher = PageCipher::new(key).ok();
    }

    /// Precompute keystream for the uncached sectors of `sectors`, in
    /// order, while `budget_ns` still covers one more sector at
    /// `ks_cost` each; stops early at the pressure governor's fill cap.
    /// Charges nothing — the caller decides what the time was hidden
    /// under. Returns how many sectors it precomputed.
    fn precompute(&mut self, sectors: Range<u64>, mut budget_ns: u64, ks_cost: u64) -> u64 {
        let Some(cipher) = &self.cipher else {
            return 0;
        };
        let mut filled = 0;
        for s in sectors {
            if self.cache.contains(s) {
                continue;
            }
            if budget_ns < ks_cost {
                break;
            }
            if self.fill_cap.is_some_and(|cap| self.cache.len() >= cap) {
                self.stats.keystream_fill_capped += 1;
                break;
            }
            budget_ns -= ks_cost;
            // CTR over zeroes is the keystream.
            let mut ks = vec![0u8; SECTOR_SIZE];
            let iv = [DmCrypt::sector_iv(s)];
            cipher.crypt(PageCipherMode::Ctr, Direction::Encrypt, &iv, &mut ks);
            self.cache.insert(s, ks);
            filled += 1;
        }
        filled
    }

    /// The overlapped read path. Under CTR, keystream is precomputed
    /// under the device wait just paid, and sectors with resident
    /// keystream finish with a XOR; the rest — every sector under the
    /// other modes — form the miss run, which goes through
    /// [`offload`](crate::offload): the accelerator queue while the CPU
    /// XORs the hits and precomputes lookahead keystream, or the CPU
    /// engine when the ladder vetoes it or the descriptor fails.
    fn read_overlapped(
        &mut self,
        engine: &mut dyn CipherEngine,
        soc: &mut Soc,
        health: &mut HealthGovernor,
        sector: u64,
        buf: &mut [u8],
        disk_wait_ns: u64,
    ) -> Result<(), KernelError> {
        // CBC chains serially and XTS has no data-independent keystream.
        let ctr = engine.mode() == PageCipherMode::Ctr;
        let end = sector + (buf.len() / SECTOR_SIZE) as u64;
        // One sector of keystream on the host cipher: the generic
        // engine's per-block charge.
        let ks_cost = soc.costs.aes_ns(SECTOR_SIZE as u64, soc.costs.cache_hit_ns);
        if ctr {
            // The CPU was idle while the device streamed, so keystream for
            // the request's leading uncached sectors comes free up to that
            // budget (the cost-substitution convention AES On SoC's
            // critical sections use).
            self.precompute(sector..end, disk_wait_ns, ks_cost);
        }
        // `take` consumes each entry — the single-use discipline.
        let epoch = self.cache.epoch();
        let mut hits = Vec::new();
        let mut misses = Vec::new();
        for (i, s) in (sector..end).enumerate() {
            match ctr.then(|| self.cache.take(s, epoch)).flatten() {
                Some(ks) => hits.push((i, ks)),
                None => misses.push(i),
            }
        }
        let keyed = self.cipher.is_some();
        let mut read = Overlap {
            p: self,
            engine,
            soc,
            health,
            buf,
            hits,
            ahead: end..end + PRECOMPUTE_AHEAD as u64,
            ks_cost,
        };
        if misses.is_empty() {
            read.run_ahead(None);
            return Ok(());
        }
        let mut gathered = Vec::with_capacity(misses.len() * SECTOR_SIZE);
        for &i in &misses {
            gathered.extend_from_slice(&read.buf[i * SECTOR_SIZE..(i + 1) * SECTOR_SIZE]);
        }
        let miss_ivs: Vec<[u8; 16]> = misses
            .iter()
            .map(|&i| DmCrypt::sector_iv(sector + i as u64))
            .collect();
        let (outcome, ()) = offload(&mut read, ctr, keyed, &miss_ivs, &mut gathered)?;
        let n = misses.len() as u64;
        let stats = &mut read.p.stats;
        match outcome {
            Outcome::Vetoed(reason) => {
                stats.fallback.note(reason);
                stats.inline_sectors += n;
            }
            Outcome::Retired(wait) => {
                stats.routed_extents += 1;
                stats.routed_sectors += n;
                stats.accel_stall_ns += wait.waited_ns();
                if !matches!(wait, WaitOutcome::Done { .. }) {
                    stats.inline_sectors += n;
                }
            }
        }
        for (&i, unit) in misses.iter().zip(gathered.chunks_exact(SECTOR_SIZE)) {
            read.buf[i * SECTOR_SIZE..(i + 1) * SECTOR_SIZE].copy_from_slice(unit);
        }
        Ok(())
    }
}

/// A dm-crypt mapping over a block device.
#[derive(Debug, Clone)]
pub struct DmCrypt {
    cipher: Option<String>,
    /// Sector MAC, derived from the volume key at `set_key`
    /// (`E_volumekey("SENTRY-DMCRYPT-1")`); `None` until a key is set.
    mac: RefCell<Option<Cmac>>,
    /// Recorded tag per absolute sector number.
    tags: RefCell<HashMap<u64, [u8; 8]>>,
    /// Asynchronous read pipeline; `None` (the default) keeps the
    /// historical inline behaviour.
    pipeline: RefCell<Option<ReadPipeline>>,
    /// Health governor for this mapping's accelerator dispatch and disk
    /// retries. Always on; flaky hardware degrades to the CPU path
    /// instead of hanging the read.
    health: RefCell<HealthGovernor>,
}

impl DmCrypt {
    /// A mapping that uses the Crypto API's *preferred* cipher — the
    /// paper's priority mechanism in action.
    #[must_use]
    pub fn with_preferred_cipher() -> Self {
        DmCrypt {
            cipher: None,
            mac: RefCell::new(None),
            tags: RefCell::new(HashMap::new()),
            pipeline: RefCell::new(None),
            health: RefCell::new(HealthGovernor::default()),
        }
    }

    /// A mapping pinned to a specific registered cipher (used by the
    /// baseline measurements).
    #[must_use]
    pub fn with_cipher(name: impl Into<String>) -> Self {
        DmCrypt {
            cipher: Some(name.into()),
            mac: RefCell::new(None),
            tags: RefCell::new(HashMap::new()),
            pipeline: RefCell::new(None),
            health: RefCell::new(HealthGovernor::default()),
        }
    }

    /// Snapshot of the governor's counters, folding any still-open
    /// degraded interval up to `now_ns` into `time_degraded_ns`.
    #[must_use]
    pub fn health_stats(&self, now_ns: u64) -> HealthStats {
        let mut h = self.health.borrow_mut();
        h.finalize(now_ns);
        h.stats
    }

    /// Current breaker state for this mapping's accelerator path.
    #[must_use]
    pub fn health_state(&self) -> HealthState {
        self.health.borrow().state()
    }

    /// Enable the asynchronous read pipeline (a disabled `config` turns
    /// it off). Call before `set_key` so the keystream precompute lanes
    /// get the volume key; enabling later leaves the pipeline keyless
    /// (reads fall back inline) until the next `set_key`.
    pub fn enable_pipeline(&self, config: PipelineConfig) {
        *self.pipeline.borrow_mut() = config.enabled.then(ReadPipeline::new);
    }

    /// Zeroize every cached keystream buffer and rotate the cache epoch.
    /// Called on device lock: keystream is key-equivalent material and
    /// must not survive a lock transition.
    pub fn zeroize_keystream(&self) {
        if let Some(p) = self.pipeline.borrow_mut().as_mut() {
            p.cache.rotate_epoch();
        }
    }

    /// Install (or clear) the pressure governor's keystream fill cap:
    /// while set, the precompute lanes stop growing the cache past `cap`
    /// resident sectors. Entries already cached keep serving hits —
    /// the cap sheds elective growth, it does not discard keystream.
    pub fn set_keystream_cap(&self, cap: Option<usize>) {
        if let Some(p) = self.pipeline.borrow_mut().as_mut() {
            p.fill_cap = cap;
        }
    }

    /// Snapshot of the pipeline counters, if the pipeline is enabled.
    #[must_use]
    pub fn pipeline_stats(&self) -> Option<(ReadOverlapStats, KeystreamStats)> {
        self.pipeline.borrow().as_ref().map(|p| {
            let mut stats = p.stats;
            stats.health = self.health.borrow().stats;
            (stats, p.cache.stats)
        })
    }

    /// Number of keystream sectors currently resident in the cache.
    #[must_use]
    pub fn keystream_resident(&self) -> usize {
        self.pipeline.borrow().as_ref().map_or(0, |p| p.cache.len())
    }

    /// The `plain64` IV for a sector.
    #[must_use]
    pub fn sector_iv(sector: u64) -> [u8; 16] {
        let mut iv = [0u8; 16];
        iv[..8].copy_from_slice(&sector.to_le_bytes());
        iv
    }

    fn engine<'a>(
        &self,
        api: &'a mut CryptoApi,
    ) -> Result<&'a mut (dyn CipherEngine + 'static), KernelError> {
        match &self.cipher {
            Some(name) => api.by_name_mut(name),
            None => api.preferred_mut(),
        }
    }

    /// Install the volume key (dm-crypt's one key-setting call).
    ///
    /// # Errors
    ///
    /// Propagates cipher lookup and key errors.
    pub fn set_key(
        &self,
        api: &mut CryptoApi,
        soc: &mut Soc,
        key: &[u8],
    ) -> Result<(), KernelError> {
        self.engine(api)?.set_key(soc, key)?;
        // Domain-separated sector-MAC key: encrypting a fixed label
        // under the volume key reuses the installed cipher family
        // without a second key-management path.
        let volume = Aes::new(key)?;
        let mut mk = *b"SENTRY-DMCRYPT-1";
        volume.encrypt_block(&mut mk);
        *self.mac.borrow_mut() = Some(Cmac::new(Aes::new(&mk)?));
        self.tags.borrow_mut().clear();
        if let Some(p) = self.pipeline.borrow_mut().as_mut() {
            p.rekey(key);
        }
        Ok(())
    }

    /// Read and decrypt whole sectors.
    ///
    /// # Errors
    ///
    /// Propagates block and cipher errors.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is not a whole number of sectors.
    pub fn read(
        &self,
        api: &mut CryptoApi,
        soc: &mut Soc,
        dev: &mut dyn BlockDevice,
        sector: u64,
        buf: &mut [u8],
    ) -> Result<(), KernelError> {
        assert!(buf.len().is_multiple_of(SECTOR_SIZE), "whole sectors only");
        let t0 = soc.clock.now_ns();
        // Transient device faults (injected at the "disk.read" site) get
        // a bounded retry budget with exponential sim-clock backoff; a
        // stall at the same site just inflates the disk wait.
        let mut attempt: u32 = 0;
        loop {
            match soc.failpoint("disk.read") {
                Ok(()) => {
                    dev.read_sectors(sector, buf, &mut soc.clock)?;
                    if attempt > 0 {
                        self.health.borrow_mut().stats.disk.recovered += 1;
                    }
                    break;
                }
                Err(e @ SocError::DeviceFault { .. }) => {
                    let mut h = self.health.borrow_mut();
                    h.stats.disk.attempts += 1;
                    attempt += 1;
                    if attempt > MAX_DISK_RETRIES {
                        h.stats.disk.exhausted += 1;
                        return Err(e.into());
                    }
                    let backoff = HealthGovernor::disk_backoff_ns(attempt);
                    drop(h);
                    soc.clock.advance(backoff);
                }
                Err(e) => return Err(e.into()),
            }
        }
        let disk_wait_ns = soc.clock.now_ns() - t0;
        let ivs: Vec<[u8; 16]> = (0..buf.len() / SECTOR_SIZE)
            .map(|i| Self::sector_iv(sector + i as u64))
            .collect();
        // Authenticate the raw ciphertext before any of it is decrypted:
        // a spliced or bit-flipped sector must fail closed, not hand the
        // filesystem plausible-looking garbage. The request's sectors are
        // MACed as one batch; the first mismatch in sector order fails.
        if let Some(mac) = self.mac.borrow().as_ref() {
            let tags = self.tags.borrow();
            let got = mac.mac_extents_trunc8(&ivs, buf, SECTOR_SIZE);
            for (s, got) in (sector..).zip(got) {
                let Some(&expected) = tags.get(&s) else {
                    continue; // never written through this mapping
                };
                if got != expected {
                    return Err(KernelError::SectorTamper {
                        sector: s,
                        tag_expected: expected,
                        tag_got: got,
                    });
                }
            }
        }
        let engine = self.engine(api)?;
        if let Some(p) = self.pipeline.borrow_mut().as_mut() {
            let health = &mut self.health.borrow_mut();
            return p.read_overlapped(engine, soc, health, sector, buf, disk_wait_ns);
        }
        // One extent call for the whole request: an engine with a batch
        // backend decrypts the sector run as a single block stream
        // instead of draining its pipeline at every 512-byte boundary.
        engine.crypt(soc, Direction::Decrypt, &ivs, buf)
    }

    /// Encrypt and write whole sectors.
    ///
    /// # Errors
    ///
    /// Propagates block and cipher errors.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not a whole number of sectors.
    pub fn write(
        &self,
        api: &mut CryptoApi,
        soc: &mut Soc,
        dev: &mut dyn BlockDevice,
        sector: u64,
        data: &[u8],
    ) -> Result<(), KernelError> {
        assert!(data.len().is_multiple_of(SECTOR_SIZE), "whole sectors only");
        let mut ct = data.to_vec();
        let ivs: Vec<[u8; 16]> = (0..data.len() / SECTOR_SIZE)
            .map(|i| Self::sector_iv(sector + i as u64))
            .collect();
        self.engine(api)?
            .crypt(soc, Direction::Encrypt, &ivs, &mut ct)?;
        // Record the tag before the ciphertext reaches the device, so
        // there is no window in which tampered bytes could be accepted.
        if let Some(mac) = self.mac.borrow().as_ref() {
            let got = mac.mac_extents_trunc8(&ivs, &ct, SECTOR_SIZE);
            self.tags.borrow_mut().extend((sector..).zip(got));
        }
        dev.write_sectors(sector, &ct, &mut soc.clock)
    }
}

/// One overlapped read while its miss run is offloaded.
struct Overlap<'r> {
    p: &'r mut ReadPipeline,
    engine: &'r mut dyn CipherEngine,
    soc: &'r mut Soc,
    health: &'r mut HealthGovernor,
    /// The whole request; hit sectors are finished in place.
    buf: &'r mut [u8],
    /// Request-relative index and single-use keystream of each hit.
    hits: Vec<(usize, Vec<u8>)>,
    /// The sectors a sequential reader asks for next.
    ahead: Range<u64>,
    /// CPU cost of one sector of keystream.
    ks_cost: u64,
}

impl Offload for Overlap<'_> {
    type Output = ();
    type Error = KernelError;

    fn parts(&mut self) -> (&mut Soc, &mut HealthGovernor) {
        (self.soc, self.health)
    }

    /// XOR-finish the hit sectors (zeroizing their keystream), then, if
    /// a descriptor is in flight, precompute lookahead keystream until
    /// the engine catches up.
    fn run_ahead(&mut self, until_ns: Option<u64>) {
        // Word-wide streaming through the cache.
        let xor_cost = (SECTOR_SIZE as u64 / 32) * self.soc.costs.cache_hit_ns;
        for (i, ks) in &mut self.hits {
            xor_keystream(&mut self.buf[*i * SECTOR_SIZE..(*i + 1) * SECTOR_SIZE], ks);
            self.soc.clock.advance(xor_cost);
            self.p.stats.xor_sectors += 1;
            ks.fill(0);
        }
        if let Some(until) = until_ns {
            let budget = until.saturating_sub(self.soc.clock.now_ns());
            let filled = self.p.precompute(self.ahead.clone(), budget, self.ks_cost);
            self.soc.clock.advance(filled * self.ks_cost);
        }
    }

    /// The engine's output is CTR under the same (key, sector IV) pairs
    /// as the volume's host cipher; the CPU fallback is the
    /// registered engine, so callers never see a fault.
    fn transform(
        &mut self,
        path: Path,
        ivs: &[[u8; 16]],
        buf: &mut [u8],
    ) -> Result<(), KernelError> {
        match path {
            Path::Accel => {
                let cipher = self.p.cipher.as_ref().expect("offloaded only when keyed");
                cipher.crypt(PageCipherMode::Ctr, Direction::Decrypt, ivs, buf);
                Ok(())
            }
            Path::Cpu => self.engine.crypt(self.soc, Direction::Decrypt, ivs, buf),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::RamDisk;
    use crate::crypto_api::GenericAesEngine;
    use sentry_soc::accel::AccelPowerState;

    fn setup() -> (CryptoApi, Soc, RamDisk, DmCrypt) {
        let mut api = CryptoApi::new();
        api.register(Box::new(GenericAesEngine::new(0)));
        let mut soc = Soc::tegra3_small();
        let dm = DmCrypt::with_preferred_cipher();
        dm.set_key(&mut api, &mut soc, &[9u8; 16]).unwrap();
        (api, soc, RamDisk::new(256), dm)
    }

    #[test]
    fn debug_never_prints_the_sector_mac_subkeys() {
        let (mut api, mut soc, mut disk, dm) = setup();
        // A 16-sector write runs the MAC's lanes too.
        let data = vec![0x5Au8; SECTOR_SIZE * 16];
        dm.write(&mut api, &mut soc, &mut disk, 0, &data).unwrap();
        let shown = format!("{dm:?}");
        let mac = dm.mac.borrow();
        let mac = mac.as_ref().unwrap();
        for secret in [mac.subkey1(), mac.subkey2()] {
            assert!(!shown.contains(&format!("{secret:?}")), "{shown}");
        }
    }

    #[test]
    fn batched_sector_tags_match_per_sector_tags() {
        let (mut api, mut soc, mut disk, dm) = setup();
        let data: Vec<u8> = (0..SECTOR_SIZE * 19).map(|i| (i * 3) as u8).collect();
        dm.write(&mut api, &mut soc, &mut disk, 4, &data).unwrap();
        let mut ct = vec![0u8; data.len()];
        let mut clock = sentry_soc::SimClock::new();
        disk.read_sectors(4, &mut ct, &mut clock).unwrap();
        let mac = dm.mac.borrow();
        let mac = mac.as_ref().unwrap();
        let tags = dm.tags.borrow();
        for (s, sector) in (4u64..).zip(ct.chunks_exact(SECTOR_SIZE)) {
            let one = mac.mac_parts_trunc8(&[&DmCrypt::sector_iv(s), sector]);
            assert_eq!(tags[&s], one, "sector {s}");
        }
    }

    #[test]
    fn roundtrip_through_encryption() {
        let (mut api, mut soc, mut disk, dm) = setup();
        let data = vec![0x5Au8; SECTOR_SIZE * 4];
        dm.write(&mut api, &mut soc, &mut disk, 10, &data).unwrap();
        let mut back = vec![0u8; data.len()];
        dm.read(&mut api, &mut soc, &mut disk, 10, &mut back)
            .unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn on_disk_bytes_are_ciphertext() {
        let (mut api, mut soc, mut disk, dm) = setup();
        let data = vec![0x5Au8; SECTOR_SIZE];
        dm.write(&mut api, &mut soc, &mut disk, 0, &data).unwrap();
        let mut raw = vec![0u8; SECTOR_SIZE];
        let mut clock = sentry_soc::SimClock::new();
        disk.read_sectors(0, &mut raw, &mut clock).unwrap();
        assert_ne!(raw, data, "device must hold ciphertext");
    }

    #[test]
    fn equal_sectors_encrypt_differently() {
        // plain64 IVs differ per sector, so identical plaintext sectors
        // yield different ciphertext.
        let (mut api, mut soc, mut disk, dm) = setup();
        let data = vec![0x77u8; SECTOR_SIZE * 2];
        dm.write(&mut api, &mut soc, &mut disk, 0, &data).unwrap();
        let mut raw = vec![0u8; SECTOR_SIZE * 2];
        let mut clock = sentry_soc::SimClock::new();
        disk.read_sectors(0, &mut raw, &mut clock).unwrap();
        assert_ne!(raw[..SECTOR_SIZE], raw[SECTOR_SIZE..]);
    }

    #[test]
    fn batched_requests_match_single_sector_requests() {
        // The on-disk format is per-sector CBC with plain64 IVs; a
        // multi-sector request must produce exactly the bytes that
        // sector-at-a-time requests would, so volumes stay readable
        // across request-size changes.
        let (mut api, mut soc, mut disk, dm) = setup();
        let data: Vec<u8> = (0..SECTOR_SIZE * 8).map(|i| (i * 7) as u8).collect();
        dm.write(&mut api, &mut soc, &mut disk, 4, &data).unwrap();
        let mut whole = vec![0u8; data.len()];
        dm.read(&mut api, &mut soc, &mut disk, 4, &mut whole)
            .unwrap();
        assert_eq!(whole, data);
        for (i, expect) in data.chunks_exact(SECTOR_SIZE).enumerate() {
            let mut one = vec![0u8; SECTOR_SIZE];
            dm.read(&mut api, &mut soc, &mut disk, 4 + i as u64, &mut one)
                .unwrap();
            assert_eq!(one, expect, "sector {i}");
        }
    }

    #[test]
    fn sector_iv_is_little_endian_sector_number() {
        let iv = DmCrypt::sector_iv(0x0102_0304);
        assert_eq!(iv[0], 0x04);
        assert_eq!(iv[3], 0x01);
        assert_eq!(&iv[8..], &[0u8; 8]);
    }

    #[test]
    fn tampered_sector_is_rejected_before_decrypt() {
        let (mut api, mut soc, mut disk, dm) = setup();
        let data = vec![0x42u8; SECTOR_SIZE * 2];
        dm.write(&mut api, &mut soc, &mut disk, 5, &data).unwrap();

        // Flip one ciphertext bit on the device behind dm-crypt's back.
        let mut raw = vec![0u8; SECTOR_SIZE];
        let mut clock = sentry_soc::SimClock::new();
        disk.read_sectors(6, &mut raw, &mut clock).unwrap();
        raw[100] ^= 0x08;
        disk.write_sectors(6, &raw, &mut clock).unwrap();

        let mut back = vec![0u8; SECTOR_SIZE * 2];
        let err = dm
            .read(&mut api, &mut soc, &mut disk, 5, &mut back)
            .unwrap_err();
        assert!(
            matches!(err, KernelError::SectorTamper { sector: 6, .. }),
            "{err}"
        );
        // The intact sector alone still reads fine.
        let mut one = vec![0u8; SECTOR_SIZE];
        dm.read(&mut api, &mut soc, &mut disk, 5, &mut one).unwrap();
        assert_eq!(one, data[..SECTOR_SIZE]);
    }

    #[test]
    fn spliced_sectors_are_rejected() {
        // Swapping two valid ciphertext sectors is caught because the
        // tag binds the sector number through the plain64 IV.
        let (mut api, mut soc, mut disk, dm) = setup();
        dm.write(&mut api, &mut soc, &mut disk, 0, &vec![1u8; SECTOR_SIZE])
            .unwrap();
        dm.write(&mut api, &mut soc, &mut disk, 1, &vec![2u8; SECTOR_SIZE])
            .unwrap();
        let mut clock = sentry_soc::SimClock::new();
        let (mut a, mut b) = (vec![0u8; SECTOR_SIZE], vec![0u8; SECTOR_SIZE]);
        disk.read_sectors(0, &mut a, &mut clock).unwrap();
        disk.read_sectors(1, &mut b, &mut clock).unwrap();
        disk.write_sectors(0, &b, &mut clock).unwrap();
        disk.write_sectors(1, &a, &mut clock).unwrap();

        let mut back = vec![0u8; SECTOR_SIZE];
        let err = dm
            .read(&mut api, &mut soc, &mut disk, 0, &mut back)
            .unwrap_err();
        assert!(matches!(err, KernelError::SectorTamper { sector: 0, .. }));
    }

    #[test]
    fn xts_mode_roundtrips_and_rejects_spliced_sectors() {
        // Under the XTS page cipher the per-sector tweak is the same
        // plain64 IV, so ciphertext moved between sectors decrypts under
        // the wrong tweak — and the sector CMAC (which binds the IV)
        // rejects it before decryption is even attempted.
        let (mut api, mut soc, mut disk, dm) = setup();
        api.preferred_mut()
            .unwrap()
            .set_mode(sentry_crypto::PageCipherMode::Xts)
            .unwrap();
        dm.set_key(&mut api, &mut soc, &[9u8; 16]).unwrap();

        let data: Vec<u8> = (0..SECTOR_SIZE * 2).map(|i| (i * 13) as u8).collect();
        dm.write(&mut api, &mut soc, &mut disk, 7, &data).unwrap();
        let mut back = vec![0u8; data.len()];
        dm.read(&mut api, &mut soc, &mut disk, 7, &mut back)
            .unwrap();
        assert_eq!(back, data, "XTS roundtrip through dm-crypt");

        // Swap the two valid ciphertext sectors behind dm-crypt's back.
        let mut clock = sentry_soc::SimClock::new();
        let (mut a, mut b) = (vec![0u8; SECTOR_SIZE], vec![0u8; SECTOR_SIZE]);
        disk.read_sectors(7, &mut a, &mut clock).unwrap();
        disk.read_sectors(8, &mut b, &mut clock).unwrap();
        disk.write_sectors(7, &b, &mut clock).unwrap();
        disk.write_sectors(8, &a, &mut clock).unwrap();

        let err = dm
            .read(&mut api, &mut soc, &mut disk, 7, &mut back)
            .unwrap_err();
        assert!(matches!(err, KernelError::SectorTamper { sector: 7, .. }));
    }

    #[test]
    fn unwritten_sectors_pass_through_unverified() {
        // No tag was ever recorded for sector 99, so reading it (e.g. a
        // filesystem probing unformatted space) is not a tamper event.
        let (mut api, mut soc, mut disk, dm) = setup();
        let mut back = vec![0u8; SECTOR_SIZE];
        dm.read(&mut api, &mut soc, &mut disk, 99, &mut back)
            .unwrap();
    }

    #[test]
    fn rekeying_drops_stale_tags() {
        let (mut api, mut soc, mut disk, dm) = setup();
        dm.write(&mut api, &mut soc, &mut disk, 0, &vec![7u8; SECTOR_SIZE])
            .unwrap();
        // New volume key: old ciphertext is unreadable anyway, and the
        // stale tags must not condemn sectors the new key never wrote.
        dm.set_key(&mut api, &mut soc, &[13u8; 16]).unwrap();
        let mut back = vec![0u8; SECTOR_SIZE];
        dm.read(&mut api, &mut soc, &mut disk, 0, &mut back)
            .unwrap();
    }

    #[test]
    fn overlapped_ctr_read_is_byte_identical_and_faster() {
        let (mut api, mut soc, mut disk, dm) = setup();
        api.preferred_mut()
            .unwrap()
            .set_mode(PageCipherMode::Ctr)
            .unwrap();
        dm.set_key(&mut api, &mut soc, &[9u8; 16]).unwrap();
        soc.accel.state = AccelPowerState::Awake;

        let nsect = 64usize;
        let data: Vec<u8> = (0..nsect * SECTOR_SIZE).map(|i| (i * 31) as u8).collect();
        dm.write(&mut api, &mut soc, &mut disk, 0, &data).unwrap();

        // Inline reference read.
        let mut inline = vec![0u8; data.len()];
        let t0 = soc.clock.now_ns();
        for chunk in 0..nsect / 16 {
            dm.read(
                &mut api,
                &mut soc,
                &mut disk,
                chunk as u64 * 16,
                &mut inline[chunk * 16 * SECTOR_SIZE..(chunk + 1) * 16 * SECTOR_SIZE],
            )
            .unwrap();
        }
        let inline_ns = soc.clock.now_ns() - t0;
        assert_eq!(inline, data);

        // Same volume, pipeline enabled.
        let pdm = DmCrypt::with_preferred_cipher();
        pdm.enable_pipeline(PipelineConfig::enabled());
        pdm.set_key(&mut api, &mut soc, &[9u8; 16]).unwrap();
        // set_key cleared the sector tags; rewrite so the MAC state is
        // consistent (bytes on disk are identical — CTR is keyed by
        // (key, sector) only).
        pdm.write(&mut api, &mut soc, &mut disk, 0, &data).unwrap();

        let mut overlapped = vec![0u8; data.len()];
        let t0 = soc.clock.now_ns();
        for chunk in 0..nsect / 16 {
            pdm.read(
                &mut api,
                &mut soc,
                &mut disk,
                chunk as u64 * 16,
                &mut overlapped[chunk * 16 * SECTOR_SIZE..(chunk + 1) * 16 * SECTOR_SIZE],
            )
            .unwrap();
        }
        let overlapped_ns = soc.clock.now_ns() - t0;
        assert_eq!(overlapped, data, "overlapped path is byte-identical");

        let (stats, ks) = pdm.pipeline_stats().unwrap();
        assert!(stats.routed_extents > 0, "{stats:?}");
        assert!(stats.xor_sectors > 0, "precomputed keystream was used");
        assert!(ks.hits > 0 && ks.precomputed > 0, "{ks:?}");
        assert!(
            overlapped_ns * 2 < inline_ns,
            "overlapped {overlapped_ns} ns vs inline {inline_ns} ns"
        );
    }

    #[test]
    fn down_scaled_accel_falls_back_inline_with_typed_reason() {
        let (mut api, mut soc, mut disk, _) = setup();
        api.preferred_mut()
            .unwrap()
            .set_mode(PageCipherMode::Ctr)
            .unwrap();
        let dm = DmCrypt::with_preferred_cipher();
        dm.enable_pipeline(PipelineConfig::enabled());
        dm.set_key(&mut api, &mut soc, &[9u8; 16]).unwrap();
        // Locked device: accel clock down-scaled (the Soc default).
        assert_eq!(soc.accel.state, AccelPowerState::DownScaled);

        let data = vec![0x3Cu8; SECTOR_SIZE * 16];
        dm.write(&mut api, &mut soc, &mut disk, 0, &data).unwrap();
        let mut back = vec![0u8; data.len()];
        dm.read(&mut api, &mut soc, &mut disk, 0, &mut back)
            .unwrap();
        assert_eq!(back, data);

        let (stats, _) = dm.pipeline_stats().unwrap();
        assert_eq!(stats.routed_extents, 0, "nothing queued while locked");
        assert!(stats.fallback.down_scaled > 0, "{stats:?}");
    }

    #[test]
    fn cbc_mode_falls_back_with_unsupported_mode_reason() {
        let (mut api, mut soc, mut disk, _) = setup();
        let dm = DmCrypt::with_preferred_cipher();
        dm.enable_pipeline(PipelineConfig::enabled());
        dm.set_key(&mut api, &mut soc, &[9u8; 16]).unwrap();
        soc.accel.state = AccelPowerState::Awake;

        let data = vec![0x11u8; SECTOR_SIZE * 8];
        dm.write(&mut api, &mut soc, &mut disk, 0, &data).unwrap();
        let mut back = vec![0u8; data.len()];
        dm.read(&mut api, &mut soc, &mut disk, 0, &mut back)
            .unwrap();
        assert_eq!(back, data);
        let (stats, _) = dm.pipeline_stats().unwrap();
        assert!(stats.fallback.unsupported_mode > 0);
        assert_eq!(stats.routed_extents, 0);
    }

    #[test]
    fn lock_zeroizes_keystream_and_rotates_epoch() {
        let (mut api, mut soc, mut disk, _) = setup();
        api.preferred_mut()
            .unwrap()
            .set_mode(PageCipherMode::Ctr)
            .unwrap();
        let dm = DmCrypt::with_preferred_cipher();
        dm.enable_pipeline(PipelineConfig::enabled());
        dm.set_key(&mut api, &mut soc, &[9u8; 16]).unwrap();
        soc.accel.state = AccelPowerState::Awake;

        let data = vec![0x77u8; SECTOR_SIZE * 32];
        dm.write(&mut api, &mut soc, &mut disk, 0, &data).unwrap();
        let mut back = vec![0u8; SECTOR_SIZE * 16];
        dm.read(&mut api, &mut soc, &mut disk, 0, &mut back)
            .unwrap();
        assert!(dm.keystream_resident() > 0, "lookahead filled the cache");

        dm.zeroize_keystream();
        assert_eq!(dm.keystream_resident(), 0, "lock leaves no keystream");
        let (_, ks) = dm.pipeline_stats().unwrap();
        assert!(ks.zeroized_on_rotate > 0);

        // Reads after the lock transition still work (epoch moved on).
        dm.read(&mut api, &mut soc, &mut disk, 16, &mut back)
            .unwrap();
        assert_eq!(back, data[16 * SECTOR_SIZE..32 * SECTOR_SIZE]);
    }

    #[test]
    fn keystream_cap_sheds_fill_without_breaking_reads() {
        let (mut api, mut soc, mut disk, _) = setup();
        api.preferred_mut()
            .unwrap()
            .set_mode(PageCipherMode::Ctr)
            .unwrap();
        let dm = DmCrypt::with_preferred_cipher();
        dm.enable_pipeline(PipelineConfig::enabled());
        dm.set_key(&mut api, &mut soc, &[9u8; 16]).unwrap();
        soc.accel.state = AccelPowerState::Awake;

        let data = vec![0x2Du8; SECTOR_SIZE * 32];
        dm.write(&mut api, &mut soc, &mut disk, 0, &data).unwrap();

        dm.set_keystream_cap(Some(2));
        let mut back = vec![0u8; SECTOR_SIZE * 16];
        dm.read(&mut api, &mut soc, &mut disk, 0, &mut back)
            .unwrap();
        assert_eq!(back, data[..16 * SECTOR_SIZE], "capped reads stay correct");
        assert!(
            dm.keystream_resident() <= 2,
            "cache never grows past the cap: {}",
            dm.keystream_resident()
        );
        let (stats, _) = dm.pipeline_stats().unwrap();
        assert!(stats.keystream_fill_capped > 0, "{stats:?}");

        // Relief: lifting the cap restores elective fill.
        dm.set_keystream_cap(None);
        dm.read(&mut api, &mut soc, &mut disk, 16, &mut back)
            .unwrap();
        assert_eq!(back, data[16 * SECTOR_SIZE..32 * SECTOR_SIZE]);
        assert!(
            dm.keystream_resident() > 2,
            "uncapped reads refill the cache"
        );
    }

    #[test]
    fn pinned_cipher_is_honoured() {
        let (mut api, mut soc, mut disk, _) = setup();
        let dm = DmCrypt::with_cipher("aes-cbc-generic");
        dm.set_key(&mut api, &mut soc, &[1u8; 16]).unwrap();
        let data = vec![1u8; SECTOR_SIZE];
        dm.write(&mut api, &mut soc, &mut disk, 0, &data).unwrap();
        let missing = DmCrypt::with_cipher("aes-none");
        assert!(missing.set_key(&mut api, &mut soc, &[1u8; 16]).is_err());
    }
}
