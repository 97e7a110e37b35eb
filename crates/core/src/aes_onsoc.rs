//! AES On SoC: the cipher engine whose state never leaves the SoC.
//!
//! §6 of the paper. The engine owns one on-SoC page holding the complete
//! AES state (as laid out by `sentry_crypto::AesStateLayout` — the
//! regenerated Table 4), and runs every encryption through a
//! [`crate::store::CachedSocStore`], so key schedule, round tables, and
//! the in-flight block physically reside in iRAM or a locked cache way.
//! Where that state lives is the engine's only difference from generic
//! AES: CBC, XTS and CTR chain blocks through the same
//! `sentry_crypto::modes` dispatch every engine runs.
//!
//! Two disciplines from §6.2 are enforced around each operation:
//!
//! * **IRQ discipline** — compute runs between
//!   `onsoc_disable_irq()`/`onsoc_enable_irq()`
//!   ([`sentry_soc::cpu::Cpu::begin_critical`]/
//!   [`sentry_soc::cpu::Cpu::end_critical`]), so a context switch can
//!   never spill live registers to the DRAM stack, and all registers are
//!   zeroed before interrupts come back;
//! * **call discipline** — no procedure handling sensitive state takes
//!   more than the four register-passed AAPCS arguments, asserted via
//!   [`sentry_soc::cpu::Cpu::pass_args`].
//!
//! # Timing
//!
//! The functional work runs through the simulated memory hierarchy (that
//! is where the security properties come from), but the *time* charged
//! is the calibrated per-block cost — `CostModel::aes_ns`, the charge
//! every AES engine uses, with the state-access latency of the chosen
//! backend. This is what makes Figure 11's "AES On SoC adds <1%
//! overhead" reproducible rather than an artifact of simulator
//! constants.

use crate::error::SentryError;
use crate::store::CachedSocStore;
use sentry_crypto::modes::{crypt_extents, extent_unit};
use sentry_crypto::{
    Direction, InStore, PageCipher, PageCipherMode, TrackedAes, TrackedBitslicedAes,
};
use sentry_kernel::crypto_api::{CipherEngine, KeyResidency};
use sentry_kernel::KernelError;
use sentry_soc::Soc;

/// Registration priority — above the generic engine (100), so the
/// Crypto API transparently favours AES On SoC (§7).
pub(crate) const AES_ONSOC_PRIORITY: i32 = 300;

/// Which cipher implementation backs the on-SoC state page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OnSocCipherBackend {
    /// The paper's table-driven AES: fast scalar rounds, but 2.5 KiB of
    /// lookup tables must live (access-protected) in the on-SoC page.
    #[default]
    TableDriven,
    /// The batched bitsliced AES: S-box as a boolean circuit, no tables
    /// at all, so the access-protected row of Table 4 drops to zero and
    /// the store-access trace is data-independent.
    BitslicedTableFree,
}

/// The keyed tracked context — one variant per backend.
enum TrackedCtx {
    Table(TrackedAes),
    Bitsliced(TrackedBitslicedAes),
}

/// The AES On SoC cipher engine.
///
/// # Data-path fidelity
///
/// The engine's *state placement* is always fully simulated: key
/// expansion writes the key, round keys, and tables through the on-SoC
/// store, so attack experiments observe exactly where every state byte
/// lives. The *data path* (bulk pages and sectors in the selected
/// [`PageCipherMode`]) runs the one shared mode dispatch,
/// [`sentry_crypto::modes::crypt_extents`], over one of two kernels:
///
/// * the default fast path computes with a register-resident AES context
///   (plain Rust values modelling CPU-register computation — nothing in
///   simulated memory) and charges the calibrated per-block cost. This
///   keeps the macrobenchmarks, which push hundreds of megabytes
///   through the engine, tractable.
/// * [`AesOnSocEngine::set_full_simulation`] binds the tracked context
///   to the simulated store instead ([`sentry_crypto::InStore`]), so
///   every block's table lookups, round-key reads and in-flight bytes go
///   through it — ~50 simulated memory operations per byte. Security
///   tests use it to assert, e.g., that an entire encryption produces
///   zero bus traffic.
///
/// On both paths the running chain, tweak or counter stays in registers.
/// Both produce identical ciphertext, identical simulated time, and the
/// same failpoints and critical sections per call.
pub struct AesOnSocEngine {
    state_base: u64,
    residency: KeyResidency,
    backend: OnSocCipherBackend,
    tracked: Option<TrackedCtx>,
    /// The register-resident context of the fast data path, keyed once
    /// per [`CipherEngine::set_key`].
    native: Option<PageCipher>,
    /// Selected page cipher mode, run by the shared dispatch on both
    /// data paths.
    mode: PageCipherMode,
    full_sim: bool,
}

impl std::fmt::Debug for AesOnSocEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AesOnSocEngine")
            .field("state_base", &format_args!("{:#x}", self.state_base))
            .field("residency", &self.residency)
            .field("backend", &self.backend)
            .field("keyed", &self.tracked.is_some())
            .finish()
    }
}

impl AesOnSocEngine {
    /// Create an engine whose state page is the on-SoC page at
    /// `state_base` (allocated from a [`crate::onsoc::OnSocStore`]),
    /// with the matching residency for reporting and the cipher backend
    /// for the state page (see [`OnSocCipherBackend`]).
    #[must_use]
    pub(crate) fn with_backend(
        state_base: u64,
        residency: KeyResidency,
        backend: OnSocCipherBackend,
    ) -> Self {
        AesOnSocEngine {
            state_base,
            residency,
            backend,
            tracked: None,
            native: None,
            mode: PageCipherMode::Cbc,
            full_sim: false,
        }
    }

    /// Route every data-path state access through the simulated store
    /// (see the type-level docs). Slow; intended for security tests.
    pub fn set_full_simulation(&mut self, on: bool) {
        self.full_sim = on;
    }
}

impl CipherEngine for AesOnSocEngine {
    fn name(&self) -> &'static str {
        "aes-cbc-onsoc"
    }

    fn priority(&self) -> i32 {
        AES_ONSOC_PRIORITY
    }

    fn key_residency(&self) -> KeyResidency {
        self.residency
    }

    fn set_key(&mut self, soc: &mut Soc, key: &[u8]) -> Result<(), KernelError> {
        // Key expansion is itself sensitive compute: IRQ-disabled, and
        // the schedule is written through the on-SoC store.
        let was_enabled = soc.cpu.begin_critical();
        let t0 = soc.clock.now_ns();
        let tracked = {
            let mut store = CachedSocStore::new(soc, self.state_base);
            match self.backend {
                OnSocCipherBackend::TableDriven => TrackedAes::init(&mut store, key)
                    .map(TrackedCtx::Table)
                    .map_err(KernelError::InvalidKey)?,
                OnSocCipherBackend::BitslicedTableFree => {
                    TrackedBitslicedAes::init(&mut store, key)
                        .map(TrackedCtx::Bitsliced)
                        .map_err(KernelError::InvalidKey)?
                }
            }
        };
        let dt = soc.clock.now_ns() - t0;
        soc.cpu.end_critical(was_enabled, dt);
        self.tracked = Some(tracked);
        self.native = Some(PageCipher::new(key).map_err(KernelError::InvalidKey)?);
        Ok(())
    }

    fn set_mode(&mut self, mode: PageCipherMode) -> Result<(), KernelError> {
        self.mode = mode;
        Ok(())
    }

    fn mode(&self) -> PageCipherMode {
        self.mode
    }

    /// One engine call (`crypt.extent`): the whole run of extents in one
    /// critical section under the §6.2 disciplines (call discipline,
    /// then an IRQ-disabled section that zeroes the registers on exit),
    /// charging the calibrated AES cost for the backend's state-access
    /// latency. Under full simulation the shared mode dispatch runs over
    /// the tracked kernel on the on-SoC state page, and the calibrated
    /// cost replaces the per-access charges; otherwise the
    /// register-resident context runs it. The charge is linear in bytes,
    /// so the simulated time equals a per-unit loop's. An empty run opens
    /// no section.
    fn crypt(
        &mut self,
        soc: &mut Soc,
        direction: Direction,
        ivs: &[[u8; 16]],
        data: &mut [u8],
    ) -> Result<(), KernelError> {
        soc.failpoint("crypt.extent")?;
        if ivs.is_empty() {
            extent_unit(ivs, data); // rejects data without IVs
            return Ok(());
        }
        let (Some(tracked), Some(native)) = (&self.tracked, &self.native) else {
            return Err(KernelError::NoKeyInstalled {
                engine: self.name(),
            });
        };
        let state_access = match self.residency {
            KeyResidency::Iram => soc.costs.iram_access_ns,
            _ => soc.costs.cache_hit_ns,
        };
        let calibrated_ns = soc.costs.aes_ns(data.len() as u64, state_access);
        // Call discipline: the engine entry takes (state, iv, data, len)
        // — four register arguments, nothing on the stack.
        let spilled = soc.cpu.pass_args(&[0u32, 1, 2, 3]);
        debug_assert!(spilled.is_empty(), "no sensitive argument may spill");
        let was_enabled = soc.cpu.begin_critical();
        let t0 = soc.clock.now_ns();
        if self.full_sim {
            let mut store = CachedSocStore::new(soc, self.state_base);
            match tracked {
                TrackedCtx::Table(aes) => {
                    let aes = InStore::new(aes, &mut store);
                    crypt_extents(&aes, &aes, self.mode, direction, ivs, data);
                }
                TrackedCtx::Bitsliced(aes) => {
                    let aes = InStore::new(aes, &mut store);
                    crypt_extents(&aes, &aes, self.mode, direction, ivs, data);
                }
            }
        } else {
            native.crypt(self.mode, direction, ivs, data);
        }
        // Substitute the calibrated end-to-end cost for any per-access
        // simulation charges (see module docs).
        soc.clock.set_now_ns(t0 + calibrated_ns);
        soc.cpu.end_critical(was_enabled, calibrated_ns);
        Ok(())
    }
}

/// Convenience: allocate a state page from `store` and build a keyed
/// engine in one step.
///
/// # Errors
///
/// Propagates allocation and key errors.
pub fn build_engine(
    store: &mut crate::onsoc::OnSocStore,
    soc: &mut Soc,
    key: &[u8],
) -> Result<AesOnSocEngine, SentryError> {
    build_engine_with_backend(store, soc, key, OnSocCipherBackend::default())
}

/// [`build_engine`] with an explicit [`OnSocCipherBackend`].
///
/// # Errors
///
/// Propagates allocation and key errors.
pub fn build_engine_with_backend(
    store: &mut crate::onsoc::OnSocStore,
    soc: &mut Soc,
    key: &[u8],
    cipher_backend: OnSocCipherBackend,
) -> Result<AesOnSocEngine, SentryError> {
    let page = store.alloc_page(soc)?;
    let residency = match store.backend() {
        crate::config::OnSocBackend::Iram => KeyResidency::Iram,
        crate::config::OnSocBackend::LockedL2 { .. } => KeyResidency::LockedL2,
    };
    let mut engine = AesOnSocEngine::with_backend(page, residency, cipher_backend);
    engine.set_key(soc, key).map_err(SentryError::Kernel)?;
    Ok(engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OnSocBackend;
    use crate::onsoc::OnSocStore;
    use sentry_crypto::modes::cbc_encrypt;
    use sentry_crypto::Aes;

    fn engine(backend: OnSocBackend) -> (Soc, AesOnSocEngine) {
        let mut soc = Soc::tegra3_small();
        let mut store = OnSocStore::new(backend, &mut soc);
        let eng = build_engine(&mut store, &mut soc, &[0x42u8; 16]).unwrap();
        (soc, eng)
    }

    #[test]
    fn matches_plain_aes_cbc() {
        for backend in [OnSocBackend::Iram, OnSocBackend::LockedL2 { max_ways: 1 }] {
            let (mut soc, mut eng) = engine(backend);
            let iv = [9u8; 16];
            let mut data: Vec<u8> = (0..64u8).collect();
            eng.crypt(&mut soc, Direction::Encrypt, &[iv], &mut data)
                .unwrap();

            let reference = Aes::new(&[0x42u8; 16]).unwrap();
            let mut expect: Vec<u8> = (0..64u8).collect();
            cbc_encrypt(&reference, &iv, &mut expect);
            assert_eq!(data, expect, "{backend:?}");

            eng.crypt(&mut soc, Direction::Decrypt, &[iv], &mut data)
                .unwrap();
            assert_eq!(data, (0..64u8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn bitsliced_backend_matches_plain_aes_cbc() {
        // The table-free backend must be a drop-in: same ciphertext as
        // the table-driven one, in fast and full-simulation mode alike,
        // and the same calibrated time charge.
        let mut soc = Soc::tegra3_small();
        let mut store = OnSocStore::new(OnSocBackend::Iram, &mut soc);
        let mut eng = build_engine_with_backend(
            &mut store,
            &mut soc,
            &[0x42u8; 16],
            OnSocCipherBackend::BitslicedTableFree,
        )
        .unwrap();
        assert_eq!(eng.backend, OnSocCipherBackend::BitslicedTableFree);

        let reference = Aes::new(&[0x42u8; 16]).unwrap();
        let iv = [9u8; 16];
        let mut expect: Vec<u8> = (0..96u8).collect();
        cbc_encrypt(&reference, &iv, &mut expect);

        for full_sim in [false, true] {
            eng.set_full_simulation(full_sim);
            let mut data: Vec<u8> = (0..96u8).collect();
            eng.crypt(&mut soc, Direction::Encrypt, &[iv], &mut data)
                .unwrap();
            assert_eq!(data, expect, "full_sim={full_sim}");
            eng.crypt(&mut soc, Direction::Decrypt, &[iv], &mut data)
                .unwrap();
            assert_eq!(data, (0..96u8).collect::<Vec<_>>(), "full_sim={full_sim}");
        }
    }

    #[test]
    fn bitsliced_backend_generates_no_bus_traffic() {
        // Full simulation through the table-free tracked context: the
        // batch staging area, round keys, and every intermediate all
        // live in iRAM, and there are no tables to look up at all.
        let mut soc = Soc::tegra3_small();
        let mut store = OnSocStore::new(OnSocBackend::Iram, &mut soc);
        let mut eng = build_engine_with_backend(
            &mut store,
            &mut soc,
            &[0x42u8; 16],
            OnSocCipherBackend::BitslicedTableFree,
        )
        .unwrap();
        eng.set_full_simulation(true);
        let before = soc.bus.reads() + soc.bus.writes();
        let mut data = vec![1u8; 4096];
        eng.crypt(&mut soc, Direction::Encrypt, &[[0u8; 16]], &mut data)
            .unwrap();
        eng.crypt(&mut soc, Direction::Decrypt, &[[0u8; 16]], &mut data)
            .unwrap();
        let after = soc.bus.reads() + soc.bus.writes();
        assert_eq!(before, after, "AES state in iRAM never crosses the bus");
    }

    #[test]
    fn iram_engine_generates_no_bus_traffic() {
        // Full-simulation mode: every table lookup and round-key read of
        // the encryption goes through the simulated iRAM — and still no
        // transaction crosses the external bus.
        let (mut soc, mut eng) = engine(OnSocBackend::Iram);
        eng.set_full_simulation(true);
        let before = soc.bus.reads() + soc.bus.writes();
        let mut data = vec![1u8; 4096];
        eng.crypt(&mut soc, Direction::Encrypt, &[[0u8; 16]], &mut data)
            .unwrap();
        let after = soc.bus.reads() + soc.bus.writes();
        assert_eq!(before, after, "AES state in iRAM never crosses the bus");
    }

    #[test]
    fn fast_and_full_simulation_paths_agree() {
        let (mut soc, mut eng) = engine(OnSocBackend::Iram);
        let iv = [3u8; 16];
        let mut fast: Vec<u8> = (0..96u8).collect();
        eng.crypt(&mut soc, Direction::Encrypt, &[iv], &mut fast)
            .unwrap();
        let t_fast = soc.cpu.irq_disabled_ns;

        let (mut soc2, mut eng2) = engine(OnSocBackend::Iram);
        eng2.set_full_simulation(true);
        let mut full: Vec<u8> = (0..96u8).collect();
        eng2.crypt(&mut soc2, Direction::Encrypt, &[iv], &mut full)
            .unwrap();

        assert_eq!(fast, full, "identical ciphertext");
        assert_eq!(
            t_fast, soc2.cpu.irq_disabled_ns,
            "identical calibrated time charge"
        );
    }

    #[test]
    fn extent_runs_match_per_unit_calls_in_bytes_and_time() {
        // One call over a run of extents must produce the same bytes *and*
        // the same simulated time as one call per unit — the
        // calibrated charge is linear, so hoisting it into one critical
        // section must not perturb the clock.
        let unit = 4096usize;
        for units in [1usize, 3, 16, 21] {
            let ivs: Vec<[u8; 16]> = (0..units).map(|i| [(i + 1) as u8; 16]).collect();
            let pt: Vec<u8> = (0..units * unit).map(|i| (i * 13) as u8).collect();

            let (mut soc_a, mut eng_a) = engine(OnSocBackend::Iram);
            let mut per_unit = pt.clone();
            let t0 = soc_a.clock.now_ns();
            for (iv, chunk) in ivs.iter().zip(per_unit.chunks_exact_mut(unit)) {
                eng_a
                    .crypt(&mut soc_a, Direction::Encrypt, &[*iv], chunk)
                    .unwrap();
            }
            let per_unit_enc_ns = soc_a.clock.now_ns() - t0;

            let (mut soc_b, mut eng_b) = engine(OnSocBackend::Iram);
            let mut batched = pt.clone();
            let t0 = soc_b.clock.now_ns();
            eng_b
                .crypt(&mut soc_b, Direction::Encrypt, &ivs, &mut batched)
                .unwrap();
            let batched_enc_ns = soc_b.clock.now_ns() - t0;

            assert_eq!(batched, per_unit, "{units} units: ciphertext identical");
            assert_eq!(
                batched_enc_ns, per_unit_enc_ns,
                "{units} units: encrypt time identical"
            );

            let t0 = soc_b.clock.now_ns();
            eng_b
                .crypt(&mut soc_b, Direction::Decrypt, &ivs, &mut batched)
                .unwrap();
            let batched_dec_ns = soc_b.clock.now_ns() - t0;
            assert_eq!(batched, pt, "{units} units: extent decrypt roundtrips");
            assert_eq!(
                batched_dec_ns, batched_enc_ns,
                "{units} units: decrypt charge matches encrypt charge"
            );
        }
    }

    #[test]
    fn full_sim_extent_paths_agree_with_fast_path() {
        let unit = 512usize;
        let units = 5usize;
        let ivs: Vec<[u8; 16]> = (0..units).map(|i| [(i * 7 + 2) as u8; 16]).collect();
        let pt: Vec<u8> = (0..units * unit).map(|i| (i * 31) as u8).collect();

        let (mut soc_a, mut eng_a) = engine(OnSocBackend::Iram);
        let mut fast = pt.clone();
        eng_a
            .crypt(&mut soc_a, Direction::Encrypt, &ivs, &mut fast)
            .unwrap();

        let (mut soc_b, mut eng_b) = engine(OnSocBackend::Iram);
        eng_b.set_full_simulation(true);
        let mut full = pt.clone();
        eng_b
            .crypt(&mut soc_b, Direction::Encrypt, &ivs, &mut full)
            .unwrap();
        assert_eq!(fast, full, "fast and full-sim extent encrypt agree");

        eng_b
            .crypt(&mut soc_b, Direction::Decrypt, &ivs, &mut full)
            .unwrap();
        assert_eq!(full, pt, "full-sim extent decrypt roundtrips");
    }

    #[test]
    fn all_modes_roundtrip_and_fast_matches_full_sim() {
        // For every (cipher backend, mode): the fast register-resident
        // path and the fully simulated store-resident path must produce
        // identical ciphertext, and both must round-trip — including the
        // extent stream.
        use sentry_kernel::crypto_api::GenericAesEngine;
        let key = [0x42u8; 16];
        for cipher_backend in [
            OnSocCipherBackend::TableDriven,
            OnSocCipherBackend::BitslicedTableFree,
        ] {
            for mode in PageCipherMode::all() {
                let mut soc = Soc::tegra3_small();
                let mut store = OnSocStore::new(OnSocBackend::Iram, &mut soc);
                let mut eng =
                    build_engine_with_backend(&mut store, &mut soc, &key, cipher_backend).unwrap();
                eng.set_mode(mode).unwrap();
                assert_eq!(eng.mode(), mode);

                // The generic engine is the cross-implementation witness.
                let mut generic = GenericAesEngine::new(0);
                generic.set_key(&mut soc, &key).unwrap();
                generic.set_mode(mode).unwrap();

                let iv = [0x1Du8; 16];
                let pt: Vec<u8> = (0..4096).map(|i| (i * 7) as u8).collect();
                let mut expect = pt.clone();
                generic
                    .crypt(&mut soc, Direction::Encrypt, &[iv], &mut expect)
                    .unwrap();

                for full_sim in [false, true] {
                    eng.set_full_simulation(full_sim);
                    let mut data = pt.clone();
                    eng.crypt(&mut soc, Direction::Encrypt, &[iv], &mut data)
                        .unwrap();
                    assert_eq!(
                        data, expect,
                        "{cipher_backend:?}/{mode} full_sim={full_sim} encrypt"
                    );
                    eng.crypt(&mut soc, Direction::Decrypt, &[iv], &mut data)
                        .unwrap();
                    assert_eq!(
                        data, pt,
                        "{cipher_backend:?}/{mode} full_sim={full_sim} round-trip"
                    );
                }

                // Multi-extent runs on both data paths: the generic
                // engine's per-unit bytes, one simulated time, and no
                // bus traffic. Full simulation runs the shared dispatch
                // too, so its CBC-encrypt extents fill bitsliced lanes
                // across pages and every mode streams across extents.
                let ivs = [[3u8; 16], [4u8; 16], [5u8; 16]];
                let pt3: Vec<u8> = pt.iter().cycle().take(3 * 4096).copied().collect();
                let mut want = pt3.clone();
                for (iv, chunk) in ivs.iter().zip(want.chunks_exact_mut(4096)) {
                    generic
                        .crypt(&mut soc, Direction::Encrypt, &[*iv], chunk)
                        .unwrap();
                }
                let mut times = Vec::new();
                for full_sim in [false, true] {
                    let what = format!("{cipher_backend:?}/{mode} full_sim={full_sim} extents");
                    eng.set_full_simulation(full_sim);
                    let bus = soc.bus.reads() + soc.bus.writes();
                    let t0 = soc.clock.now_ns();
                    let mut ext = pt3.clone();
                    eng.crypt(&mut soc, Direction::Encrypt, &ivs, &mut ext)
                        .unwrap();
                    assert_eq!(ext, want, "{what}: encrypt");
                    eng.crypt(&mut soc, Direction::Decrypt, &ivs, &mut ext)
                        .unwrap();
                    assert_eq!(ext, pt3, "{what}: round-trip");
                    times.push(soc.clock.now_ns() - t0);
                    let traffic = soc.bus.reads() + soc.bus.writes() - bus;
                    assert_eq!(traffic, 0, "{what}: no bus traffic");
                }
                assert_eq!(
                    times[0], times[1],
                    "{cipher_backend:?}/{mode}: extent sim time"
                );
            }
        }
    }

    #[test]
    fn full_sim_extent_calls_take_the_fast_paths_failpoints_and_sections() {
        // A step-counted or site fault plan must see the same traffic on
        // both data paths: one `crypt.extent` hit and one IRQ section
        // per engine call, never one per unit. An empty run still passes
        // the site but opens no section.
        let ivs: Vec<[u8; 16]> = (0..4).map(|i| [(i * 5 + 1) as u8; 16]).collect();
        let pt: Vec<u8> = (0..4 * 512).map(|i| (i * 11) as u8).collect();
        for cipher_backend in [
            OnSocCipherBackend::TableDriven,
            OnSocCipherBackend::BitslicedTableFree,
        ] {
            for mode in PageCipherMode::all() {
                let observe = |full_sim: bool| {
                    let mut soc = Soc::tegra3_small();
                    let mut store = OnSocStore::new(OnSocBackend::Iram, &mut soc);
                    let mut eng = build_engine_with_backend(
                        &mut store,
                        &mut soc,
                        &[0x42u8; 16],
                        cipher_backend,
                    )
                    .unwrap();
                    eng.set_mode(mode).unwrap();
                    eng.set_full_simulation(full_sim);
                    soc.failpoints.record();
                    let sections = soc.cpu.critical_sections;
                    let mut data = pt.clone();
                    eng.crypt(&mut soc, Direction::Encrypt, &ivs, &mut data)
                        .unwrap();
                    eng.crypt(&mut soc, Direction::Decrypt, &ivs, &mut data)
                        .unwrap();
                    assert_eq!(data, pt, "{cipher_backend:?}/{mode} full_sim={full_sim}");
                    eng.crypt(&mut soc, Direction::Encrypt, &[], &mut [])
                        .unwrap();
                    let trace = soc.failpoints.trace().to_vec();
                    (trace, soc.cpu.critical_sections - sections)
                };
                let fast = observe(false);
                let sites: Vec<&str> = fast.0.iter().map(|&(site, _)| site).collect();
                assert_eq!(sites, ["crypt.extent"; 3], "one site per engine call");
                assert_eq!(fast.1, 2, "one section per non-empty engine call");
                assert_eq!(observe(true), fast, "{cipher_backend:?}/{mode}");
            }
        }
    }

    #[test]
    fn key_never_appears_in_dram_for_locked_l2() {
        let (soc, _eng) = engine(OnSocBackend::LockedL2 { max_ways: 1 });
        for (_addr, frame) in soc.dram.iter_frames() {
            assert!(
                !frame.windows(16).any(|w| w == [0x42u8; 16]),
                "key bytes leaked to DRAM"
            );
        }
    }

    #[test]
    fn operations_run_irq_disabled_and_zero_registers() {
        let (mut soc, mut eng) = engine(OnSocBackend::Iram);
        soc.cpu.request_preemption();
        let sections_before = soc.cpu.critical_sections;
        let mut data = vec![0u8; 4096];
        eng.crypt(&mut soc, Direction::Encrypt, &[[0u8; 16]], &mut data)
            .unwrap();
        assert!(soc.cpu.critical_sections > sections_before);
        assert!(soc.cpu.irq_disabled_ns > 0);
        // A preemption delivered after the section sees only zeroes.
        let spill = soc.cpu.take_preemption().unwrap();
        assert_eq!(spill, [0u32; 16]);
    }

    #[test]
    fn irq_section_duration_is_paper_scale() {
        // The paper reports ~160 µs of raised interrupts per section on
        // the Tegra 3; one 4 KiB page should land in that ballpark.
        let (mut soc, mut eng) = engine(OnSocBackend::Iram);
        let before = soc.cpu.irq_disabled_ns;
        let mut data = vec![0u8; 4096];
        eng.crypt(&mut soc, Direction::Encrypt, &[[0u8; 16]], &mut data)
            .unwrap();
        let section_us = (soc.cpu.irq_disabled_ns - before) as f64 / 1e3;
        assert!(
            (100.0..300.0).contains(&section_us),
            "IRQ-disabled section was {section_us} µs"
        );
    }

    #[test]
    fn onsoc_within_one_percent_of_generic() {
        // Figure 11 (right): AES On SoC adds negligible overhead versus
        // generic AES on the Tegra.
        use sentry_kernel::crypto_api::GenericAesEngine;
        let (mut soc, mut onsoc) = engine(OnSocBackend::LockedL2 { max_ways: 1 });
        let mut generic = GenericAesEngine::new(0);
        generic.set_key(&mut soc, &[0x42u8; 16]).unwrap();
        let mut data = vec![0u8; 64 * 1024];

        let t0 = soc.clock.now_ns();
        generic
            .crypt(&mut soc, Direction::Encrypt, &[[0u8; 16]], &mut data)
            .unwrap();
        let generic_ns = soc.clock.now_ns() - t0;

        let t0 = soc.clock.now_ns();
        onsoc
            .crypt(&mut soc, Direction::Encrypt, &[[0u8; 16]], &mut data)
            .unwrap();
        let onsoc_ns = soc.clock.now_ns() - t0;

        let overhead = onsoc_ns as f64 / generic_ns as f64 - 1.0;
        assert!(overhead.abs() < 0.01, "overhead {overhead:.4}");
    }

    #[test]
    fn unkeyed_engine_refuses_to_encrypt() {
        let mut soc = Soc::tegra3_small();
        let mut eng = AesOnSocEngine::with_backend(
            sentry_soc::addr::IRAM_BASE + 64 * 1024,
            KeyResidency::Iram,
            OnSocCipherBackend::default(),
        );
        let mut data = vec![0u8; 16];
        assert!(eng
            .crypt(&mut soc, Direction::Encrypt, &[[0u8; 16]], &mut data)
            .is_err());
    }
}
