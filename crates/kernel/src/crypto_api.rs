//! A Linux-CryptoAPI-like cipher registry.
//!
//! The paper ports AES On SoC into the kernel's Crypto API and registers
//! it "with a higher priority than the default AES implementation. Thus,
//! if both the generic AES and our AES are loaded, the crypto system
//! will favor ours" (§7). Legacy consumers — dm-crypt here — ask the
//! registry for "aes-cbc" and transparently get the safe engine.
//!
//! The registry also records *where each engine's key material lives*,
//! which is what the attack experiments interrogate: the generic
//! software AES keeps its key schedule in kernel heap (DRAM), the
//! hardware accelerator in device registers fed over the bus, and AES On
//! SoC in iRAM or a locked cache way.
//!
//! Where the key lives and what a call costs are the only differences
//! between engines. Each has one data-path method,
//! [`CipherEngine::crypt`]: a direction, one IV per extent, and the
//! extents back-to-back in one buffer. A single page or sector is a
//! one-extent run, so every caller — dm-crypt, the lifecycle's batches,
//! a locked fault — reaches an engine through that one call.

use crate::error::KernelError;
use crate::layout::CRYPTO_KEYS_BASE;
use crate::offload;
use sentry_crypto::{Direction, PageCipher, PageCipherMode};
use sentry_soc::Soc;

/// Where an engine's sensitive key state resides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeyResidency {
    /// Kernel heap in DRAM — recoverable by memory attacks.
    Dram,
    /// On-SoC iRAM.
    Iram,
    /// A locked L2 cache way.
    LockedL2,
    /// Device registers of the crypto accelerator (on-chip, but data
    /// still crosses the bus).
    AccelRegisters,
}

/// A block cipher implementation registered with the kernel.
pub trait CipherEngine {
    /// Registry name, e.g. `"aes-cbc-generic"`.
    fn name(&self) -> &'static str;
    /// Selection priority; highest wins.
    fn priority(&self) -> i32;
    /// Where the key schedule lives.
    fn key_residency(&self) -> KeyResidency;
    /// Install a key.
    ///
    /// # Errors
    ///
    /// Implementation-specific; typically invalid key length.
    fn set_key(&mut self, soc: &mut Soc, key: &[u8]) -> Result<(), KernelError>;

    /// Select the page cipher mode for subsequent operations.
    ///
    /// The default implementation accepts only [`PageCipherMode::Cbc`] —
    /// the mode every engine has always implemented — so legacy engines
    /// stay correct without changes. Engines that implement the
    /// parallelizable modes override this.
    ///
    /// # Errors
    ///
    /// [`KernelError::UnsupportedCipherMode`] if the engine does not
    /// implement `mode`.
    fn set_mode(&mut self, mode: PageCipherMode) -> Result<(), KernelError> {
        if mode == PageCipherMode::Cbc {
            Ok(())
        } else {
            Err(KernelError::UnsupportedCipherMode {
                engine: self.name(),
                mode: mode.name(),
            })
        }
    }

    /// The currently selected page cipher mode.
    fn mode(&self) -> PageCipherMode {
        PageCipherMode::Cbc
    }

    /// Encrypt or decrypt, in place, a run of `ivs.len()` consecutive
    /// equal-sized extents laid out back-to-back in `data`, the `i`-th
    /// keyed from `ivs[i]` (its CBC IV, XTS tweak, or CTR counter base,
    /// per the selected mode). A single buffer is a one-extent run.
    ///
    /// This is every engine's one data-path call: a multi-sector dm-crypt
    /// request, a lifecycle batch or one page reaches the engine as one
    /// call, so the engine's [`PageCipher`] keeps its kernels full across
    /// unit boundaries. Output bytes are identical to one call per unit.
    ///
    /// # Errors
    ///
    /// Fails if no key is installed.
    ///
    /// # Panics
    ///
    /// Panics if `data` does not divide evenly into `ivs.len()` extents
    /// (an empty `ivs` requires an empty `data`).
    fn crypt(
        &mut self,
        soc: &mut Soc,
        direction: Direction,
        ivs: &[[u8; 16]],
        data: &mut [u8],
    ) -> Result<(), KernelError>;
}

/// The registry.
#[derive(Default)]
pub struct CryptoApi {
    engines: Vec<Box<dyn CipherEngine>>,
}

impl std::fmt::Debug for CryptoApi {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CryptoApi")
            .field(
                "engines",
                &self
                    .engines
                    .iter()
                    .map(|e| (e.name(), e.priority()))
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl CryptoApi {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        CryptoApi::default()
    }

    /// Register an engine.
    pub fn register(&mut self, engine: Box<dyn CipherEngine>) {
        self.engines.push(engine);
        self.engines
            .sort_by_key(|e| std::cmp::Reverse(e.priority()));
    }

    /// The preferred (highest-priority) engine.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoCipher`] if the registry is empty.
    pub fn preferred_mut(&mut self) -> Result<&mut (dyn CipherEngine + 'static), KernelError> {
        self.engines
            .first_mut()
            .map(|b| b.as_mut())
            .ok_or(KernelError::NoCipher)
    }

    /// Find an engine by name.
    ///
    /// # Errors
    ///
    /// [`KernelError::UnknownCipher`] if no engine has that name.
    pub(crate) fn by_name_mut(
        &mut self,
        name: &str,
    ) -> Result<&mut (dyn CipherEngine + 'static), KernelError> {
        self.engines
            .iter_mut()
            .find(|e| e.name() == name)
            .map(|b| b.as_mut())
            .ok_or_else(|| KernelError::UnknownCipher(name.to_string()))
    }

    /// Names and priorities of all registered engines, highest first.
    #[must_use]
    pub fn listing(&self) -> Vec<(&'static str, i32)> {
        self.engines
            .iter()
            .map(|e| (e.name(), e.priority()))
            .collect()
    }
}

/// The kernel's default software AES ("generic AES" in the paper's
/// figures): fast, but its key and expanded key schedule live in kernel
/// heap — i.e., DRAM — where every attack in the threat model can reach
/// them.
pub struct GenericAesEngine {
    /// Keyed once per [`CipherEngine::set_key`]; every mode runs through
    /// [`PageCipher::crypt`].
    cipher: Option<PageCipher>,
    /// Selected page cipher mode; all three are implemented.
    mode: PageCipherMode,
    /// DRAM slot index for this engine's key material.
    slot: u64,
}

impl std::fmt::Debug for GenericAesEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GenericAesEngine")
            .field("keyed", &self.cipher.is_some())
            .finish_non_exhaustive()
    }
}

impl GenericAesEngine {
    /// Default priority of the in-kernel generic AES.
    pub(crate) const PRIORITY: i32 = 100;

    /// Create an unkeyed engine using DRAM key slot `slot`.
    #[must_use]
    pub fn new(slot: u64) -> Self {
        GenericAesEngine {
            cipher: None,
            mode: PageCipherMode::Cbc,
            slot,
        }
    }

    /// The DRAM address where this engine's key material lives — what a
    /// cold-boot attacker greps for.
    #[must_use]
    pub(crate) fn key_material_addr(&self) -> u64 {
        CRYPTO_KEYS_BASE + self.slot * 4096
    }
}

impl CipherEngine for GenericAesEngine {
    fn name(&self) -> &'static str {
        "aes-cbc-generic"
    }

    fn priority(&self) -> i32 {
        Self::PRIORITY
    }

    fn key_residency(&self) -> KeyResidency {
        KeyResidency::Dram
    }

    fn set_key(&mut self, soc: &mut Soc, key: &[u8]) -> Result<(), KernelError> {
        let cipher = PageCipher::new(key).map_err(KernelError::InvalidKey)?;
        // The generic implementation's key and schedule live in kernel
        // heap: write them to DRAM, uncached (kernel heap lines get
        // evicted in steady state; modelling them as DRAM-resident is
        // what gives cold boot its Frost-style key recovery).
        let addr = self.key_material_addr();
        soc.mem_write_uncached(addr, key)?;
        let mut sched = Vec::with_capacity(cipher.schedule().enc_words().len() * 4);
        for w in cipher.schedule().enc_words() {
            sched.extend_from_slice(&w.to_be_bytes());
        }
        soc.mem_write_uncached(addr + 64, &sched)?;
        self.cipher = Some(cipher);
        Ok(())
    }

    fn set_mode(&mut self, mode: PageCipherMode) -> Result<(), KernelError> {
        self.mode = mode;
        Ok(())
    }

    fn mode(&self) -> PageCipherMode {
        self.mode
    }

    fn crypt(
        &mut self,
        soc: &mut Soc,
        direction: Direction,
        ivs: &[[u8; 16]],
        data: &mut [u8],
    ) -> Result<(), KernelError> {
        let cipher = self.cipher.as_ref().ok_or(KernelError::NoKeyInstalled {
            engine: self.name(),
        })?;
        cipher.crypt(self.mode, direction, ivs, data);
        // Generic AES state is cache-resident kernel heap.
        soc.clock
            .advance(soc.costs.aes_ns(data.len() as u64, soc.costs.cache_hit_ns));
        Ok(())
    }
}

/// The hardware crypto accelerator exposed as a kernel cipher. Slower
/// than the CPU for 4 KiB pages (Figure 11) and draws more energy
/// (Figure 12); its data path DMAs across the bus, so a bus monitor sees
/// every byte it processes. Implements all three page cipher modes —
/// the engine is a block-streaming device, the mode is descriptor
/// configuration — so the async read pipeline can queue CTR/XTS extents
/// against it.
pub struct AccelAesEngine {
    cipher: Option<PageCipher>,
    mode: PageCipherMode,
}

impl std::fmt::Debug for AccelAesEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AccelAesEngine")
            .field("keyed", &self.cipher.is_some())
            .field("mode", &self.mode)
            .finish_non_exhaustive()
    }
}

impl AccelAesEngine {
    /// Default priority (below the generic software AES: the paper's
    /// Android stack only uses the engine when asked explicitly).
    pub(crate) const PRIORITY: i32 = 50;

    /// Create an unkeyed accelerator engine.
    #[must_use]
    pub fn new() -> Self {
        AccelAesEngine {
            cipher: None,
            mode: PageCipherMode::Cbc,
        }
    }
}

impl Default for AccelAesEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl CipherEngine for AccelAesEngine {
    fn name(&self) -> &'static str {
        "aes-cbc-hw"
    }

    fn priority(&self) -> i32 {
        Self::PRIORITY
    }

    fn key_residency(&self) -> KeyResidency {
        KeyResidency::AccelRegisters
    }

    fn set_key(&mut self, _soc: &mut Soc, key: &[u8]) -> Result<(), KernelError> {
        self.cipher = Some(PageCipher::new(key).map_err(KernelError::InvalidKey)?);
        Ok(())
    }

    fn set_mode(&mut self, mode: PageCipherMode) -> Result<(), KernelError> {
        self.mode = mode;
        Ok(())
    }

    fn mode(&self) -> PageCipherMode {
        self.mode
    }

    /// Stage one accelerator operation — one descriptor for the whole
    /// extent run, so a multi-sector request pays setup once: stage the
    /// input through the bounce window of [`offload`] (bus-visible, with
    /// the `accel.dma` failpoint mid-transfer), transform `data` in
    /// place, write the result back, and charge the engine's calibrated
    /// duration.
    ///
    /// Timing note: the bounce-window DMA transactions advance the clock
    /// with generic bus costs; [`sentry_soc::clock::SimClock::set_now_ns`]
    /// then substitutes the accelerator's calibrated `op_duration_ns`
    /// (which already folds in descriptor setup and DMA streaming) for
    /// the whole operation, per the cost-substitution convention.
    fn crypt(
        &mut self,
        soc: &mut Soc,
        direction: Direction,
        ivs: &[[u8; 16]],
        data: &mut [u8],
    ) -> Result<(), KernelError> {
        let cipher = self.cipher.as_ref().ok_or(KernelError::NoKeyInstalled {
            engine: self.name(),
        })?;
        let t0 = soc.clock.now_ns();
        offload::stage(soc, data)?;
        cipher.crypt(self.mode, direction, ivs, data);
        offload::write_back(soc, data)?;
        soc.clock
            .set_now_ns(t0 + soc.accel.op_duration_ns(data.len() as u64));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_prefers_highest_priority() {
        let mut api = CryptoApi::new();
        api.register(Box::new(AccelAesEngine::new()));
        api.register(Box::new(GenericAesEngine::new(0)));
        assert_eq!(api.preferred_mut().unwrap().name(), "aes-cbc-generic");
        assert_eq!(
            api.listing(),
            vec![("aes-cbc-generic", 100), ("aes-cbc-hw", 50)]
        );
    }

    #[test]
    fn by_name_finds_engines() {
        let mut api = CryptoApi::new();
        api.register(Box::new(GenericAesEngine::new(0)));
        assert!(api.by_name_mut("aes-cbc-generic").is_ok());
        assert!(matches!(
            api.by_name_mut("nope"),
            Err(KernelError::UnknownCipher(_))
        ));
    }

    #[test]
    fn generic_engine_roundtrips_and_leaks_key_to_dram() {
        let mut soc = Soc::tegra3_small();
        let mut eng = GenericAesEngine::new(0);
        let key = [0x42u8; 16];
        eng.set_key(&mut soc, &key).unwrap();

        let mut data = vec![7u8; 64];
        let iv = [1u8; 16];
        eng.crypt(&mut soc, Direction::Encrypt, &[iv], &mut data)
            .unwrap();
        assert_ne!(data, vec![7u8; 64]);
        eng.crypt(&mut soc, Direction::Decrypt, &[iv], &mut data)
            .unwrap();
        assert_eq!(data, vec![7u8; 64]);

        // The raw key is now in DRAM, where attacks can find it.
        let mut found = vec![0u8; 16];
        soc.dram.read(eng.key_material_addr(), &mut found);
        assert_eq!(found, key);
        assert_eq!(eng.key_residency(), KeyResidency::Dram);
    }

    #[test]
    fn extent_paths_match_per_unit_paths() {
        // One call over a run of extents and one call per unit must agree
        // byte-for-byte, for both the generic engine and the accelerator
        // (one descriptor per call).
        let mut soc = Soc::tegra3_small();
        let key = [0x9Cu8; 32];
        let units = 8usize;
        let unit = 512usize;
        let ivs: Vec<[u8; 16]> = (0..units).map(|i| [i as u8 + 1; 16]).collect();
        let pt: Vec<u8> = (0..units * unit).map(|i| (i * 11) as u8).collect();

        let mut generic = GenericAesEngine::new(0);
        generic.set_key(&mut soc, &key).unwrap();
        let mut accel = AccelAesEngine::new();
        accel.set_key(&mut soc, &key).unwrap();

        let mut expect = pt.clone();
        for (iv, chunk) in ivs.iter().zip(expect.chunks_exact_mut(unit)) {
            generic
                .crypt(&mut soc, Direction::Encrypt, &[*iv], chunk)
                .unwrap();
        }

        let mut got = pt.clone();
        generic
            .crypt(&mut soc, Direction::Encrypt, &ivs, &mut got)
            .unwrap();
        assert_eq!(got, expect, "generic extent encrypt");
        generic
            .crypt(&mut soc, Direction::Decrypt, &ivs, &mut got)
            .unwrap();
        assert_eq!(got, pt, "generic extent decrypt");

        let mut hw = expect.clone();
        accel
            .crypt(&mut soc, Direction::Decrypt, &ivs, &mut hw)
            .unwrap();
        assert_eq!(hw, pt, "accel extent decrypt");

        // Degenerate case.
        generic
            .crypt(&mut soc, Direction::Encrypt, &[], &mut [])
            .unwrap();
    }

    #[test]
    fn generic_and_accel_engines_support_all_modes() {
        let mut soc = Soc::tegra3_small();
        let mut eng = GenericAesEngine::new(0);
        eng.set_key(&mut soc, &[0x31u8; 16]).unwrap();
        let iv = [0x77u8; 16];
        let pt: Vec<u8> = (0..4096).map(|i| (i * 3) as u8).collect();

        let mut per_mode = Vec::new();
        for mode in PageCipherMode::all() {
            eng.set_mode(mode).unwrap();
            assert_eq!(eng.mode(), mode);
            let mut data = pt.clone();
            eng.crypt(&mut soc, Direction::Encrypt, &[iv], &mut data)
                .unwrap();
            assert_ne!(data, pt, "{mode} encrypt is not a noop");
            per_mode.push(data.clone());
            eng.crypt(&mut soc, Direction::Decrypt, &[iv], &mut data)
                .unwrap();
            assert_eq!(data, pt, "{mode} round-trip");

            // A run of extents agrees with one call per unit.
            let ivs = [[1u8; 16], [2u8; 16]];
            let mut ext: Vec<u8> = pt.iter().chain(pt.iter()).copied().collect();
            eng.crypt(&mut soc, Direction::Encrypt, &ivs, &mut ext)
                .unwrap();
            let mut want = pt.clone();
            eng.crypt(&mut soc, Direction::Encrypt, &[ivs[1]], &mut want)
                .unwrap();
            assert_eq!(&ext[4096..], &want[..], "{mode} extent vs single");
            eng.crypt(&mut soc, Direction::Decrypt, &ivs, &mut ext)
                .unwrap();
            assert!(
                ext.chunks(4096).all(|c| c == &pt[..]),
                "{mode} extent round-trip"
            );
        }
        // The three modes produce three different ciphertexts.
        assert_ne!(per_mode[0], per_mode[1]);
        assert_ne!(per_mode[0], per_mode[2]);
        assert_ne!(per_mode[1], per_mode[2]);

        // The accelerator implements the same three modes and agrees
        // byte-for-byte with the software engine (only the cost model
        // differs) — a prerequisite for routing CTR/XTS extents through
        // the async queue.
        let mut hw = AccelAesEngine::new();
        hw.set_key(&mut soc, &[0x31u8; 16]).unwrap();
        for (mode, expect) in PageCipherMode::all().iter().zip(&per_mode) {
            hw.set_mode(*mode).unwrap();
            assert_eq!(hw.mode(), *mode);
            let mut data = pt.clone();
            hw.crypt(&mut soc, Direction::Encrypt, &[iv], &mut data)
                .unwrap();
            assert_eq!(&data, expect, "{mode} accel matches generic");
            hw.crypt(&mut soc, Direction::Decrypt, &[iv], &mut data)
                .unwrap();
            assert_eq!(data, pt, "{mode} accel round-trip");
        }
    }

    #[test]
    fn accel_data_path_is_bus_visible() {
        // The accelerator is a bus master: every operation stages its
        // input and result through the DMA bounce window, so a bus
        // monitor sees the traffic. The generic engine computes in the
        // CPU's cache domain and emits none.
        let mut soc = Soc::nexus4_small();
        let mut hw = AccelAesEngine::new();
        hw.set_key(&mut soc, &[6u8; 16]).unwrap();
        hw.set_mode(PageCipherMode::Ctr).unwrap();
        let mut page = vec![0xABu8; 4096];

        let before = soc.bus.bytes_written();
        hw.crypt(&mut soc, Direction::Decrypt, &[[3u8; 16]], &mut page)
            .unwrap();
        let accel_traffic = soc.bus.bytes_written() - before;
        assert!(
            accel_traffic >= 2 * 4096,
            "input + result DMA, got {accel_traffic} bytes"
        );

        let mut sw = GenericAesEngine::new(0);
        sw.set_key(&mut soc, &[6u8; 16]).unwrap();
        sw.set_mode(PageCipherMode::Ctr).unwrap();
        let before = soc.bus.bytes_written();
        sw.crypt(&mut soc, Direction::Decrypt, &[[3u8; 16]], &mut page)
            .unwrap();
        assert_eq!(
            soc.bus.bytes_written(),
            before,
            "generic path is bus-silent"
        );
    }

    #[test]
    fn encrypt_without_key_fails() {
        let mut soc = Soc::tegra3_small();
        let mut eng = GenericAesEngine::new(0);
        let mut data = vec![0u8; 16];
        assert!(eng
            .crypt(&mut soc, Direction::Encrypt, &[[0u8; 16]], &mut data)
            .is_err());
    }

    #[test]
    fn accel_engine_is_slower_per_page_than_generic() {
        let mut soc = Soc::nexus4_small();
        let mut hw = AccelAesEngine::new();
        let mut sw = GenericAesEngine::new(1);
        hw.set_key(&mut soc, &[1u8; 16]).unwrap();
        sw.set_key(&mut soc, &[1u8; 16]).unwrap();
        let mut page = vec![0u8; 4096];
        let iv = [0u8; 16];

        let t0 = soc.clock.now_ns();
        sw.crypt(&mut soc, Direction::Encrypt, &[iv], &mut page)
            .unwrap();
        let sw_ns = soc.clock.now_ns() - t0;

        let t0 = soc.clock.now_ns();
        hw.crypt(&mut soc, Direction::Encrypt, &[iv], &mut page)
            .unwrap();
        let hw_ns = soc.clock.now_ns() - t0;

        assert!(
            hw_ns > 2 * sw_ns,
            "hw {hw_ns} ns should be much slower than sw {sw_ns} ns on 4 KiB pages"
        );
    }
}
