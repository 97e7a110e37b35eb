//! Property tests: every AES backend in the crate is byte-identical to
//! every other, across modes, batch boundaries, odd tails, and the
//! tracked (store-resident) variants.
//!
//! This is the safety net under the batch/bitslice layer: the pager,
//! dm-crypt, and the parallel lock path all run the host's AES-NI kernel
//! where the CPU has it and otherwise swap portable backends per
//! direction (scalar for chained encryption, bitsliced for data-parallel
//! decryption), so any divergence between backends would corrupt user
//! data, not just fail a benchmark. On a CPU without AES-NI its cases
//! print a skip line and pass.

use proptest::collection::vec;
use proptest::prelude::*;
use sentry_crypto::modes::{
    cbc_decrypt, cbc_decrypt_extents, cbc_encrypt, cbc_encrypt_extents, ctr_crypt,
    ctr_crypt_extents, xts_crypt_extents, xts_decrypt, xts_encrypt,
};
use sentry_crypto::{
    Aes, AesRef, AesStateLayout, BitslicedAes, Cmac, InStore, KeySize, TrackedAes,
    TrackedBitslicedAes, VecStore,
};

/// The AES-NI kernel under `aes`'s key, or `None` (with one skip line
/// per process) on a CPU without it.
#[cfg(target_arch = "x86_64")]
fn aes_ni(aes: &Aes) -> Option<sentry_crypto::aesni::AesNi> {
    let ni = sentry_crypto::aesni::AesNi::from_schedule(aes.schedule());
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

fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        vec(any::<u8>(), 16..=16),
        vec(any::<u8>(), 24..=24),
        vec(any::<u8>(), 32..=32),
    ]
}

fn iv_strategy() -> impl Strategy<Value = [u8; 16]> {
    (any::<u64>(), any::<u64>()).prop_map(|(a, b)| {
        let mut iv = [0u8; 16];
        iv[..8].copy_from_slice(&a.to_le_bytes());
        iv[8..].copy_from_slice(&b.to_le_bytes());
        iv
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// CBC over block-aligned buffers: encrypt with the table backend,
    /// decrypt with each of the four others — reference, bitsliced, and
    /// the two tracked variants — and recover the plaintext.
    #[test]
    fn cbc_roundtrips_across_all_backends(
        key in key_strategy(),
        iv in iv_strategy(),
        nblocks in 1usize..48,
        seed in any::<u8>(),
    ) {
        let pt: Vec<u8> = (0..nblocks * 16).map(|i| seed.wrapping_add((i * 37) as u8)).collect();
        let table = Aes::new(&key).unwrap();
        let mut ct = pt.clone();
        cbc_encrypt(&table, &iv, &mut ct);

        let reference = AesRef::new(&key).unwrap();
        let mut d = ct.clone();
        cbc_decrypt(&reference, &iv, &mut d);
        prop_assert_eq!(&d, &pt, "reference");

        let bits = BitslicedAes::from_schedule(table.schedule());
        let mut d = ct.clone();
        cbc_decrypt(&bits, &iv, &mut d);
        prop_assert_eq!(&d, &pt, "bitsliced");

        if let Some(ni) = aes_ni(&table) {
            let mut d = ct.clone();
            cbc_decrypt(&ni, &iv, &mut d);
            prop_assert_eq!(&d, &pt, "aes-ni");
            let mut e = pt.clone();
            cbc_encrypt(&ni, &iv, &mut e);
            prop_assert_eq!(&e, &ct, "aes-ni encrypt");
        }

        let key_size = KeySize::from_key_len(key.len()).unwrap();
        let mut store = VecStore::new(AesStateLayout::for_key_size(key_size).total_bytes());
        let tracked = TrackedAes::init(&mut store, &key).unwrap();
        let tracked = InStore::new(&tracked, &mut store);
        let mut d = ct.clone();
        cbc_decrypt(&tracked, &iv, &mut d);
        prop_assert_eq!(&d, &pt, "tracked table");

        let mut store = VecStore::new(AesStateLayout::bitsliced(key_size).total_bytes());
        let tracked_bits = TrackedBitslicedAes::init(&mut store, &key).unwrap();
        let tracked_bits = InStore::new(&tracked_bits, &mut store);
        let mut d = ct.clone();
        cbc_decrypt(&tracked_bits, &iv, &mut d);
        prop_assert_eq!(&d, &pt, "tracked bitsliced");
    }

    /// Tracked CBC *encryption* (both variants) matches the untracked
    /// table backend bit for bit.
    #[test]
    fn tracked_encryption_matches_untracked(
        key in key_strategy(),
        iv in iv_strategy(),
        nblocks in 1usize..40,
        seed in any::<u8>(),
    ) {
        let pt: Vec<u8> = (0..nblocks * 16).map(|i| seed.wrapping_add((i * 23) as u8)).collect();
        let table = Aes::new(&key).unwrap();
        let mut expect = pt.clone();
        cbc_encrypt(&table, &iv, &mut expect);

        let key_size = KeySize::from_key_len(key.len()).unwrap();
        let mut store = VecStore::new(AesStateLayout::for_key_size(key_size).total_bytes());
        let tracked = TrackedAes::init(&mut store, &key).unwrap();
        let tracked = InStore::new(&tracked, &mut store);
        let mut got = pt.clone();
        cbc_encrypt(&tracked, &iv, &mut got);
        prop_assert_eq!(&got, &expect, "tracked table");

        let mut store = VecStore::new(AesStateLayout::bitsliced(key_size).total_bytes());
        let tracked_bits = TrackedBitslicedAes::init(&mut store, &key).unwrap();
        let tracked_bits = InStore::new(&tracked_bits, &mut store);
        let mut got = pt.clone();
        cbc_encrypt(&tracked_bits, &iv, &mut got);
        prop_assert_eq!(&got, &expect, "tracked bitsliced");
    }

    /// XTS (single-key XEX, the engine construction): encrypt with the
    /// table backend, decrypt with every other backend — reference,
    /// bitsliced, and both tracked variants — and recover the plaintext;
    /// all backends also agree on the ciphertext byte for byte.
    #[test]
    fn xts_agrees_and_roundtrips_across_all_backends(
        key in key_strategy(),
        tweak in iv_strategy(),
        nblocks in 1usize..48,
        seed in any::<u8>(),
    ) {
        let pt: Vec<u8> = (0..nblocks * 16).map(|i| seed.wrapping_add((i * 29) as u8)).collect();
        let table = Aes::new(&key).unwrap();
        let mut ct = pt.clone();
        xts_encrypt(&table, &table, &tweak, &mut ct);

        let reference = AesRef::new(&key).unwrap();
        let mut other = pt.clone();
        xts_encrypt(&reference, &reference, &tweak, &mut other);
        prop_assert_eq!(&other, &ct, "reference encrypt");

        let bits = BitslicedAes::from_schedule(table.schedule());
        let mut other = pt.clone();
        xts_encrypt(&bits, &bits, &tweak, &mut other);
        prop_assert_eq!(&other, &ct, "bitsliced encrypt");

        let mut d = ct.clone();
        xts_decrypt(&bits, &bits, &tweak, &mut d);
        prop_assert_eq!(&d, &pt, "bitsliced decrypt");

        if let Some(ni) = aes_ni(&table) {
            let mut e = pt.clone();
            xts_encrypt(&ni, &ni, &tweak, &mut e);
            prop_assert_eq!(&e, &ct, "aes-ni encrypt");
            let mut d = ct.clone();
            xts_decrypt(&ni, &ni, &tweak, &mut d);
            prop_assert_eq!(&d, &pt, "aes-ni decrypt");
        }

        let key_size = KeySize::from_key_len(key.len()).unwrap();
        let mut store = VecStore::new(AesStateLayout::for_key_size(key_size).total_bytes());
        let tracked = TrackedAes::init(&mut store, &key).unwrap();
        let tracked = InStore::new(&tracked, &mut store);
        let mut d = ct.clone();
        xts_decrypt(&tracked, &tracked, &tweak, &mut d);
        prop_assert_eq!(&d, &pt, "tracked table decrypt");
        let mut e = pt.clone();
        xts_encrypt(&tracked, &tracked, &tweak, &mut e);
        prop_assert_eq!(&e, &ct, "tracked table encrypt");

        let mut store = VecStore::new(AesStateLayout::bitsliced(key_size).total_bytes());
        let tracked_bits = TrackedBitslicedAes::init(&mut store, &key).unwrap();
        let tracked_bits = InStore::new(&tracked_bits, &mut store);
        let mut d = ct.clone();
        xts_decrypt(&tracked_bits, &tracked_bits, &tweak, &mut d);
        prop_assert_eq!(&d, &pt, "tracked bitsliced decrypt");
        let mut e = pt.clone();
        xts_encrypt(&tracked_bits, &tracked_bits, &tweak, &mut e);
        prop_assert_eq!(&e, &ct, "tracked bitsliced encrypt");
    }

    /// Page-mode CTR (full 128-bit counter block): every backend,
    /// tracked and untracked, produces the same stream, including ragged
    /// tails, and applying it twice is the identity.
    #[test]
    fn page_ctr_agrees_across_all_backends(
        key in key_strategy(),
        iv in iv_strategy(),
        len in 1usize..700,
        seed in any::<u8>(),
    ) {
        let pt: Vec<u8> = (0..len).map(|i| seed.wrapping_add((i * 13) as u8)).collect();
        let table = Aes::new(&key).unwrap();
        let mut ct = pt.clone();
        ctr_crypt(&table, &iv, &mut ct);

        let reference = AesRef::new(&key).unwrap();
        let mut other = pt.clone();
        ctr_crypt(&reference, &iv, &mut other);
        prop_assert_eq!(&other, &ct, "reference");

        let bits = BitslicedAes::from_schedule(table.schedule());
        let mut other = pt.clone();
        ctr_crypt(&bits, &iv, &mut other);
        prop_assert_eq!(&other, &ct, "bitsliced");

        if let Some(ni) = aes_ni(&table) {
            let mut other = pt.clone();
            ctr_crypt(&ni, &iv, &mut other);
            prop_assert_eq!(&other, &ct, "aes-ni");
        }

        let key_size = KeySize::from_key_len(key.len()).unwrap();
        let mut store = VecStore::new(AesStateLayout::for_key_size(key_size).total_bytes());
        let tracked = TrackedAes::init(&mut store, &key).unwrap();
        let tracked = InStore::new(&tracked, &mut store);
        let mut other = pt.clone();
        ctr_crypt(&tracked, &iv, &mut other);
        prop_assert_eq!(&other, &ct, "tracked table");

        let mut store = VecStore::new(AesStateLayout::bitsliced(key_size).total_bytes());
        let tracked_bits = TrackedBitslicedAes::init(&mut store, &key).unwrap();
        let tracked_bits = InStore::new(&tracked_bits, &mut store);
        let mut other = pt.clone();
        ctr_crypt(&tracked_bits, &iv, &mut other);
        prop_assert_eq!(&other, &ct, "tracked bitsliced");

        // Involution.
        ctr_crypt(&table, &iv, &mut ct);
        prop_assert_eq!(&ct, &pt, "ctr twice is identity");
    }

    /// The cross-extent XTS and CTR streaming paths equal per-extent
    /// application for arbitrary unit sizes and counts.
    #[test]
    fn xts_and_ctr_extents_equal_per_extent(
        key in key_strategy(),
        unit_blocks in 1usize..9,
        units in 1usize..12,
        seed in any::<u8>(),
    ) {
        let unit = unit_blocks * 16;
        let table = Aes::new(&key).unwrap();
        let bits = BitslicedAes::from_schedule(table.schedule());
        let ivs: Vec<[u8; 16]> = (0..units)
            .map(|i| [seed.wrapping_add((i * 43) as u8); 16])
            .collect();
        let pt: Vec<u8> = (0..units * unit).map(|i| seed.wrapping_mul(5).wrapping_add(i as u8)).collect();

        let mut expect = pt.clone();
        for (iv, chunk) in ivs.iter().zip(expect.chunks_exact_mut(unit)) {
            xts_encrypt(&table, &table, iv, chunk);
        }
        let mut got = pt.clone();
        xts_crypt_extents(&bits, &bits, true, &ivs, &mut got);
        prop_assert_eq!(&got, &expect, "xts extents encrypt");
        xts_crypt_extents(&bits, &bits, false, &ivs, &mut got);
        prop_assert_eq!(&got, &pt, "xts extents round-trip");

        let mut expect = pt.clone();
        for (iv, chunk) in ivs.iter().zip(expect.chunks_exact_mut(unit)) {
            ctr_crypt(&table, iv, chunk);
        }
        let mut got = pt.clone();
        ctr_crypt_extents(&bits, &ivs, &mut got);
        prop_assert_eq!(&got, &expect, "ctr extents");
        ctr_crypt_extents(&bits, &ivs, &mut got);
        prop_assert_eq!(&got, &pt, "ctr extents round-trip");

        if let Some(ni) = aes_ni(&table) {
            let mut got = pt.clone();
            ctr_crypt_extents(&ni, &ivs, &mut got);
            prop_assert_eq!(&got, &expect, "aes-ni ctr extents");
            let mut expect = pt.clone();
            for (iv, chunk) in ivs.iter().zip(expect.chunks_exact_mut(unit)) {
                xts_encrypt(&table, &table, iv, chunk);
            }
            let mut got = pt.clone();
            xts_crypt_extents(&ni, &ni, true, &ivs, &mut got);
            prop_assert_eq!(&got, &expect, "aes-ni xts extents encrypt");
            xts_crypt_extents(&ni, &ni, false, &ivs, &mut got);
            prop_assert_eq!(&got, &pt, "aes-ni xts extents round-trip");
        }
    }

    /// The cross-extent batched decrypt equals per-extent decryption for
    /// arbitrary unit sizes, including units that straddle the kernel's
    /// scratch-chunk boundary.
    #[test]
    fn extent_decrypt_equals_per_extent(
        key in key_strategy(),
        unit_blocks in 1usize..9,
        units in 1usize..12,
        seed in any::<u8>(),
    ) {
        let unit = unit_blocks * 16;
        let table = Aes::new(&key).unwrap();
        let bits = BitslicedAes::from_schedule(table.schedule());
        let ivs: Vec<[u8; 16]> = (0..units)
            .map(|i| [seed.wrapping_add((i * 41) as u8); 16])
            .collect();
        let pt: Vec<u8> = (0..units * unit).map(|i| seed.wrapping_mul(3).wrapping_add(i as u8)).collect();
        let mut ct = pt.clone();
        for (iv, chunk) in ivs.iter().zip(ct.chunks_exact_mut(unit)) {
            cbc_encrypt(&table, iv, chunk);
        }
        let mut got = ct.clone();
        cbc_decrypt_extents(&bits, &ivs, &mut got);
        prop_assert_eq!(&got, &pt, "batched extents");
        if let Some(ni) = aes_ni(&table) {
            let mut got = ct.clone();
            cbc_decrypt_extents(&ni, &ivs, &mut got);
            prop_assert_eq!(&got, &pt, "aes-ni extents");
        }
        let mut per = ct;
        for (iv, chunk) in ivs.iter().zip(per.chunks_exact_mut(unit)) {
            cbc_decrypt(&table, iv, chunk);
        }
        prop_assert_eq!(&per, &pt, "per-extent");
    }

    /// The lane-filling batched *encrypt* equals per-extent serial CBC
    /// encryption for arbitrary unit sizes and counts — partial lane
    /// groups, single extents, and units spanning many batch rounds —
    /// and decrypting its output with a different backend round-trips.
    #[test]
    fn extent_encrypt_equals_per_extent(
        key in key_strategy(),
        unit_blocks in 1usize..9,
        units in 1usize..36,
        seed in any::<u8>(),
    ) {
        let unit = unit_blocks * 16;
        let table = Aes::new(&key).unwrap();
        let bits = BitslicedAes::from_schedule(table.schedule());
        let ivs: Vec<[u8; 16]> = (0..units)
            .map(|i| [seed.wrapping_add((i * 59) as u8); 16])
            .collect();
        let pt: Vec<u8> = (0..units * unit).map(|i| seed.wrapping_mul(7).wrapping_add(i as u8)).collect();

        let mut expect = pt.clone();
        for (iv, chunk) in ivs.iter().zip(expect.chunks_exact_mut(unit)) {
            cbc_encrypt(&table, iv, chunk);
        }
        let mut got = pt.clone();
        cbc_encrypt_extents(&bits, &ivs, &mut got);
        prop_assert_eq!(&got, &expect, "batched encrypt diverged from serial CBC");

        let mut back = got;
        cbc_decrypt_extents(&bits, &ivs, &mut back);
        prop_assert_eq!(&back, &pt, "extent round-trip");

        if let Some(ni) = aes_ni(&table) {
            let mut got = pt.clone();
            cbc_encrypt_extents(&ni, &ivs, &mut got);
            prop_assert_eq!(&got, &expect, "aes-ni lanes diverged from serial CBC");
        }
    }

    /// The batch CMAC equals per-message `mac_parts` over tweak ‖ body
    /// on the portable scalar chain: 0–40 messages, so the last lane
    /// group falls on both sides of the scalar crossover, with page-,
    /// sector-, empty- and odd-sized bodies (the last one ends in a
    /// partial block), through both the dispatching entry and the
    /// forced-lane entry, on the portable kernel and on the detected
    /// one.
    #[test]
    fn batch_cmac_equals_per_message(
        key in key_strategy(),
        count in 0usize..=40,
        unit in prop_oneof![Just(4096usize), Just(512), Just(0), 1usize..100],
        seed in any::<u8>(),
    ) {
        let cmac = Cmac::portable(Aes::new(&key).unwrap());
        let tweaks: Vec<[u8; 16]> = (0..count)
            .map(|i| [seed.wrapping_add((i * 61) as u8); 16])
            .collect();
        let data: Vec<u8> = (0..count * unit)
            .map(|i| seed.wrapping_mul(11).wrapping_add((i * 7) as u8))
            .collect();
        let expect: Vec<[u8; 16]> = (0..count)
            .map(|i| cmac.mac_parts(&[&tweaks[i], &data[i * unit..(i + 1) * unit]]))
            .collect();
        let short: Vec<[u8; 8]> = expect.iter().map(|t| t[..8].try_into().unwrap()).collect();
        for cmac in [cmac, Cmac::new(Aes::new(&key).unwrap())] {
            let kernel = cmac.kernel_name();
            prop_assert_eq!(&cmac.mac_extents(&tweaks, &data, unit), &expect, "{} mac_extents", kernel);
            prop_assert_eq!(&cmac.mac_extents_lanes(&tweaks, &data, unit), &expect, "{} lanes", kernel);
            prop_assert_eq!(&cmac.mac_extents_trunc8(&tweaks, &data, unit), &short, "{} trunc8", kernel);
            for i in 0..count {
                let one = cmac.mac_parts(&[&tweaks[i], &data[i * unit..(i + 1) * unit]]);
                prop_assert_eq!(&one, &expect[i], "{} mac_parts", kernel);
            }
        }
    }
}
