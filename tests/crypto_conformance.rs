//! Cross-crate cryptographic conformance: every AES path in the
//! workspace (fast, reference, bitsliced, AES-NI, tracked, the host page
//! cipher on each kernel, the generic and accelerator kernel engines,
//! and AES On SoC in both backends) must produce identical bytes. On a
//! CPU without AES-NI its cases print a skip line and pass.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::sample::select;
use proptest::test_runner::TestCaseError;
use sentry::core::aes_onsoc::{build_engine_with_backend, OnSocCipherBackend};
use sentry::core::config::OnSocBackend;
use sentry::core::onsoc::OnSocStore;
use sentry::crypto::modes::{
    cbc_decrypt, cbc_encrypt, ctr_crypt, xts_decrypt, xts_encrypt, BlockCipher,
};
use sentry::crypto::{
    Aes, AesRef, AesStateLayout, BitslicedAes, BlockCipherBatch, Direction, InStore, KeySize,
    PageCipher, PageCipherMode, TrackedAes, VecStore,
};
use sentry::kernel::crypto_api::{AccelAesEngine, CipherEngine, GenericAesEngine};
use sentry::soc::Soc;
use Direction::{Decrypt, Encrypt};

fn opposite(direction: Direction) -> Direction {
    match direction {
        Encrypt => Decrypt,
        Decrypt => Encrypt,
    }
}

/// The AES-NI kernel under `aes`'s key, or `None` (with one skip line
/// per process) on a CPU without it.
#[cfg(target_arch = "x86_64")]
fn aes_ni(aes: &Aes) -> Option<sentry::crypto::aesni::AesNi> {
    let ni = sentry::crypto::aesni::AesNi::from_schedule(aes.schedule());
    if ni.is_none() {
        static SKIP: std::sync::Once = std::sync::Once::new();
        SKIP.call_once(|| eprintln!("skipped: this CPU has no AES-NI"));
    }
    ni
}

#[cfg(not(target_arch = "x86_64"))]
fn aes_ni(_: &Aes) -> Option<Aes> {
    None
}

/// The per-extent reference: each extent on its own through the
/// single-unit mode functions of one context (single-key XEX for XTS).
fn per_extent<C: BlockCipher + BlockCipherBatch>(
    cipher: &C,
    mode: PageCipherMode,
    direction: Direction,
    ivs: &[[u8; 16]],
    data: &[u8],
) -> Vec<u8> {
    let mut out = data.to_vec();
    let unit = data.len() / ivs.len();
    for (iv, chunk) in ivs.iter().zip(out.chunks_exact_mut(unit)) {
        match (mode, direction) {
            (PageCipherMode::Cbc, Encrypt) => cbc_encrypt(cipher, iv, chunk),
            (PageCipherMode::Cbc, _) => cbc_decrypt(cipher, iv, chunk),
            (PageCipherMode::Xts, Encrypt) => xts_encrypt(cipher, cipher, iv, chunk),
            (PageCipherMode::Xts, _) => xts_decrypt(cipher, cipher, iv, chunk),
            (PageCipherMode::Ctr, _) => ctr_crypt(cipher, iv, chunk),
        }
    }
    out
}

/// One extent request through a kernel engine.
fn through(
    engine: &mut dyn CipherEngine,
    soc: &mut Soc,
    direction: Direction,
    ivs: &[[u8; 16]],
    data: &[u8],
) -> Vec<u8> {
    let mut out = data.to_vec();
    engine.crypt(soc, direction, ivs, &mut out).unwrap();
    out
}

/// The same request one unit at a time, one engine call per unit.
fn per_unit(
    engine: &mut dyn CipherEngine,
    soc: &mut Soc,
    direction: Direction,
    ivs: &[[u8; 16]],
    data: &[u8],
) -> Vec<u8> {
    let mut out = data.to_vec();
    let unit = data.len() / ivs.len();
    for (iv, chunk) in ivs.iter().zip(out.chunks_exact_mut(unit)) {
        engine.crypt(soc, direction, &[*iv], chunk).unwrap();
    }
    out
}

/// Every page-cipher implementation in the workspace equals the
/// per-extent scalar reference for one mode, direction, extent count
/// and unit: the reference, bitsliced and AES-NI contexts, the host
/// page cipher on the detected and on the portable kernel, the tracked
/// context, the generic and accelerator kernel engines (extent and
/// per-unit entries), and AES On SoC on both on-SoC stores and both
/// cipher backends with the native and the fully simulated data path.
fn all_implementations_agree(
    key: &[u8],
    mode: PageCipherMode,
    direction: Direction,
    extents: usize,
    unit: usize,
    seed: u8,
) -> Result<(), TestCaseError> {
    let data: Vec<u8> = (0..extents * unit)
        .map(|i| (i as u8).wrapping_mul(31) ^ seed)
        .collect();
    let ivs: Vec<[u8; 16]> = (0..extents)
        .map(|i| {
            let mut iv = [seed; 16];
            iv[..8].copy_from_slice(&(i as u64).to_le_bytes());
            iv
        })
        .collect();
    let aes = Aes::new(key).unwrap();
    let expect = per_extent(&aes, mode, direction, &ivs, &data);
    // The reference inverts: the opposite direction restores the input.
    prop_assert_eq!(
        per_extent(&aes, mode, opposite(direction), &ivs, &expect),
        data.clone()
    );

    // Reference spec implementation and bitsliced backend, per extent.
    let reference = AesRef::new(key).unwrap();
    prop_assert_eq!(
        &per_extent(&reference, mode, direction, &ivs, &data),
        &expect,
        "reference"
    );
    let bits = BitslicedAes::from_schedule(aes.schedule());
    prop_assert_eq!(
        &per_extent(&bits, mode, direction, &ivs, &data),
        &expect,
        "bitsliced"
    );
    if let Some(ni) = aes_ni(&aes) {
        prop_assert_eq!(
            &per_extent(&ni, mode, direction, &ivs, &data),
            &expect,
            "aes-ni"
        );
    }

    // The host page cipher on each kernel, one call over every extent.
    let detected = PageCipher::new(key).unwrap();
    let portable = PageCipher::portable(key).unwrap();
    for cipher in [&detected, &portable] {
        let mut got = data.clone();
        cipher.crypt(mode, direction, &ivs, &mut got);
        prop_assert_eq!(&got, &expect, "{} page cipher", cipher.kernel_name());
    }

    // Tracked through a plain store, bound as a block cipher, per extent.
    let layout = AesStateLayout::for_key_size(KeySize::Aes128);
    let mut store = VecStore::new(layout.total_bytes());
    let tracked = TrackedAes::init(&mut store, key).unwrap();
    let tracked = InStore::new(&tracked, &mut store);
    prop_assert_eq!(
        &per_extent(&tracked, mode, direction, &ivs, &data),
        &expect,
        "tracked"
    );

    // The generic and accelerator kernel engines.
    let mut soc = Soc::tegra3_small();
    let mut generic = GenericAesEngine::new(0);
    let mut accel = AccelAesEngine::new();
    for (name, engine) in [
        ("generic", &mut generic as &mut dyn CipherEngine),
        ("accel", &mut accel as &mut dyn CipherEngine),
    ] {
        engine.set_mode(mode).unwrap();
        engine.set_key(&mut soc, key).unwrap();
        prop_assert_eq!(
            &through(engine, &mut soc, direction, &ivs, &data),
            &expect,
            "{} extent",
            name
        );
        prop_assert_eq!(
            &per_unit(engine, &mut soc, direction, &ivs, &data),
            &expect,
            "{} per unit",
            name
        );
    }

    // AES On SoC: both on-SoC stores, both cipher backends, native and
    // full simulation; the opposite direction inverts.
    for (backend, cipher_backend, full_sim) in [
        (OnSocBackend::Iram, OnSocCipherBackend::TableDriven, false),
        (
            OnSocBackend::LockedL2 { max_ways: 1 },
            OnSocCipherBackend::TableDriven,
            false,
        ),
        (
            OnSocBackend::Iram,
            OnSocCipherBackend::BitslicedTableFree,
            false,
        ),
        (OnSocBackend::Iram, OnSocCipherBackend::TableDriven, true),
        (
            OnSocBackend::Iram,
            OnSocCipherBackend::BitslicedTableFree,
            true,
        ),
    ] {
        let mut soc = Soc::tegra3_small();
        let mut os = OnSocStore::new(backend, &mut soc);
        let mut onsoc = build_engine_with_backend(&mut os, &mut soc, key, cipher_backend).unwrap();
        onsoc.set_mode(mode).unwrap();
        onsoc.set_full_simulation(full_sim);
        let got = through(&mut onsoc, &mut soc, direction, &ivs, &data);
        prop_assert_eq!(
            &got,
            &expect,
            "onsoc {:?}/{:?} full_sim={}",
            backend,
            cipher_backend,
            full_sim
        );
        let back = through(&mut onsoc, &mut soc, opposite(direction), &ivs, &got);
        prop_assert_eq!(
            &back,
            &data,
            "onsoc {:?}/{:?} full_sim={} inverts",
            backend,
            cipher_backend,
            full_sim
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    // Each mode draws over its 20 (direction, extents, unit) cells;
    // extent counts sit below, at and above the 16-lane batch width and
    // units are the dm-crypt sector and the page.
    #[test]
    fn all_implementations_agree_on_cbc(
        key in vec(any::<u8>(), 16..=16),
        direction in select(vec![Encrypt, Decrypt]),
        extents in select(vec![1usize, 2, 15, 16, 17]),
        unit in select(vec![512usize, 4096]),
        seed in any::<u8>(),
    ) {
        all_implementations_agree(&key, PageCipherMode::Cbc, direction, extents, unit, seed)?;
    }

    #[test]
    fn all_implementations_agree_on_xts(
        key in vec(any::<u8>(), 16..=16),
        direction in select(vec![Encrypt, Decrypt]),
        extents in select(vec![1usize, 2, 15, 16, 17]),
        unit in select(vec![512usize, 4096]),
        seed in any::<u8>(),
    ) {
        all_implementations_agree(&key, PageCipherMode::Xts, direction, extents, unit, seed)?;
    }

    #[test]
    fn all_implementations_agree_on_page_ctr(
        key in vec(any::<u8>(), 16..=16),
        direction in select(vec![Encrypt, Decrypt]),
        extents in select(vec![1usize, 2, 15, 16, 17]),
        unit in select(vec![512usize, 4096]),
        seed in any::<u8>(),
    ) {
        all_implementations_agree(&key, PageCipherMode::Ctr, direction, extents, unit, seed)?;
    }

    #[test]
    fn cbc_roundtrips_for_all_key_sizes(
        key_len in prop::sample::select(vec![16usize, 24, 32]),
        blocks in 1usize..32,
        key_seed in any::<u64>(),
    ) {
        let key: Vec<u8> = (0..key_len).map(|i| (key_seed >> (i % 8)) as u8 ^ i as u8).collect();
        let aes = Aes::new(&key).unwrap();
        let data: Vec<u8> = (0..blocks * 16).map(|i| i as u8).collect();
        let iv = [0x3Cu8; 16];
        let mut work = data.clone();
        cbc_encrypt(&aes, &iv, &mut work);
        prop_assert_ne!(&work, &data);
        cbc_decrypt(&aes, &iv, &mut work);
        prop_assert_eq!(&work, &data);
    }

    #[test]
    fn ctr_is_an_involution_for_any_length(
        len in 0usize..200,
        key in vec(any::<u8>(), 32..=32),
        counter in any::<u64>(),
    ) {
        let aes = Aes::new(&key).unwrap();
        let data: Vec<u8> = (0..len).map(|i| i as u8 ^ 0x5A).collect();
        // High half all ones, so a low half near the top wraps all 128 bits.
        let mut iv = [0xffu8; 16];
        iv[8..].copy_from_slice(&counter.to_be_bytes());
        let mut work = data.clone();
        ctr_crypt(&aes, &iv, &mut work);
        ctr_crypt(&aes, &iv, &mut work);
        prop_assert_eq!(work, data);
    }

    #[test]
    fn different_keys_give_unrelated_ciphertexts(a in any::<u64>(), b in any::<u64>()) {
        prop_assume!(a != b);
        let mut ka = [0u8; 16];
        ka[..8].copy_from_slice(&a.to_le_bytes());
        let mut kb = [0u8; 16];
        kb[..8].copy_from_slice(&b.to_le_bytes());
        let mut pa = [0u8; 16];
        let mut pb = [0u8; 16];
        Aes::new(&ka).unwrap().encrypt_block(&mut pa);
        Aes::new(&kb).unwrap().encrypt_block(&mut pb);
        prop_assert_ne!(pa, pb);
    }

    #[test]
    fn ecb_reveals_structure_cbc_hides_it(fill in any::<u8>()) {
        let aes = Aes::new(&[1u8; 16]).unwrap();
        let mut ecb = [fill; 64];
        for block in ecb.as_chunks_mut::<16>().0 {
            aes.encrypt_block(block);
        }
        prop_assert_eq!(&ecb[0..16], &ecb[16..32], "ECB leaks equal blocks");
        let mut cbc = vec![fill; 64];
        cbc_encrypt(&aes, &[2u8; 16], &mut cbc);
        prop_assert_ne!(&cbc[0..16], &cbc[16..32], "CBC hides equal blocks");
    }
}
