//! Identity tests for the chain-shaped data paths: the batch CMAC, the
//! lane-filling CBC encryption, and the XTS tweak and CTR counter
//! arithmetic of the extent streams and of the CTR tail.
//!
//! Each path is checked against a slower formulation that shares none of
//! its machinery: the batch CMAC against one `mac_parts` call per
//! message, the lanes against one serial CBC chain per extent, and the
//! XTS/CTR streams and CBC decryption against a byte-at-a-time tweak
//! doubling, counter increment and chaining XOR over the reference AES,
//! with extent heads inside the AES-NI stream's register groups. Every
//! path runs on the AES-NI kernel (where the CPU has it; a skip line
//! otherwise) and on the portable one. Pinned digests of the tracked
//! (AES On SoC) kernels' store traces, under the lanes and under the
//! streams, hold their accesses in place.

use sentry_crypto::modes::{
    cbc_decrypt_extents, cbc_encrypt, cbc_encrypt_extents, ctr_crypt, ctr_crypt_extents,
    xts_crypt_extents,
};
use sentry_crypto::{
    Aes, AesRef, AesStateLayout, BitslicedAes, BlockCipherBatch, Cmac, Direction, InStore, KeySize,
    PageCipher, PageCipherMode, TrackedAes, TrackedBitslicedAes, VecStore,
};

/// The AES-NI kernel under `aes`'s key, or `None` (with a skip line) on
/// a CPU without it.
#[cfg(target_arch = "x86_64")]
fn aes_ni(aes: &Aes) -> Option<sentry_crypto::aesni::AesNi> {
    let ni = sentry_crypto::aesni::AesNi::from_schedule(aes.schedule());
    if ni.is_none() {
        eprintln!("skipped: this CPU has no AES-NI");
    }
    ni
}

#[cfg(not(target_arch = "x86_64"))]
fn aes_ni(_: &Aes) -> Option<Aes> {
    None
}

/// The page key is the 32-byte root key, so AES-256 is the size to cover.
const KEY: [u8; 32] = [
    0x60, 0x3d, 0xeb, 0x10, 0x15, 0xca, 0x71, 0xbe, 0x2b, 0x73, 0xae, 0xf0, 0x85, 0x7d, 0x77, 0x81,
    0x1f, 0x35, 0x2c, 0x07, 0x3b, 0x61, 0x08, 0xd7, 0x2d, 0x98, 0x10, 0xa3, 0x09, 0x14, 0xdf, 0xf4,
];

/// `len` deterministic bytes, distinct per `salt`.
fn bytes(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31) ^ (i >> 8) as u8 ^ salt)
        .collect()
}

/// `n` distinct 16-byte IVs.
fn ivs(n: usize, salt: u8) -> Vec<[u8; 16]> {
    (0..n)
        .map(|i| {
            bytes(16, salt ^ (i as u8).wrapping_mul(59))
                .try_into()
                .unwrap()
        })
        .collect()
}

#[test]
fn mac_extents_equals_mac_parts_for_every_group_size() {
    // The reference is the portable kernel's one-message path, the
    // scalar table-driven chain.
    let scalar = Cmac::portable(Aes::new(&KEY).unwrap());
    let detected = Cmac::new(Aes::new(&KEY).unwrap());
    for unit in [16usize, 20, 512, 4096] {
        for n in 1..=33 {
            let tweaks = ivs(n, unit as u8);
            let data = bytes(n * unit, n as u8);
            let message = |i: usize| [&tweaks[i][..], &data[i * unit..(i + 1) * unit]];
            let want: Vec<[u8; 16]> = (0..n).map(|i| scalar.mac_parts(&message(i))).collect();
            for cmac in [&scalar, &detected] {
                let kernel = cmac.kernel_name();
                assert_eq!(
                    cmac.mac_extents(&tweaks, &data, unit),
                    want,
                    "{kernel}: {n} messages of 16 + {unit} bytes"
                );
                let one: Vec<[u8; 16]> = (0..n).map(|i| cmac.mac_parts(&message(i))).collect();
                assert_eq!(one, want, "{kernel}: mac_parts, 16 + {unit} bytes");
            }
        }
    }
}

#[test]
fn cbc_encrypt_extents_equals_one_chain_per_extent() {
    let aes = Aes::new(&KEY).unwrap();
    let bits = BitslicedAes::from_schedule(aes.schedule());
    let ni = aes_ni(&aes);
    let contexts = [
        PageCipher::new(&KEY).unwrap(),
        PageCipher::portable(&KEY).unwrap(),
    ];
    for unit in [16usize, 48, 512, 4096] {
        for n in 1..=33 {
            let ivs = ivs(n, unit as u8 ^ 0x33);
            let pt = bytes(n * unit, n as u8 ^ 0x44);
            let mut want = pt.clone();
            for (iv, extent) in ivs.iter().zip(want.chunks_exact_mut(unit)) {
                cbc_encrypt(&aes, iv, extent);
            }
            let mut got = pt.clone();
            cbc_encrypt_extents(&bits, &ivs, &mut got);
            assert_eq!(got, want, "bitsliced: {n} chains of {unit} bytes");
            if let Some(ni) = &ni {
                let mut got = pt.clone();
                cbc_encrypt_extents(ni, &ivs, &mut got);
                assert_eq!(got, want, "aes-ni: {n} chains of {unit} bytes");
            }
            for cipher in &contexts {
                let mut got = pt.clone();
                cipher.crypt(PageCipherMode::Cbc, Direction::Encrypt, &ivs, &mut got);
                let kernel = cipher.kernel_name();
                assert_eq!(
                    got, want,
                    "{kernel} page cipher: {n} chains of {unit} bytes"
                );
            }
        }
    }
}

/// The XTS tweak step one byte at a time (IEEE P1619: byte 0 holds the
/// lowest-order coefficients; the carry out of byte 15 feeds back as
/// 0x87).
fn double_bytewise(t: &mut [u8; 16]) {
    let mut carry = 0u8;
    for b in t.iter_mut() {
        let next = *b >> 7;
        *b = (*b << 1) | carry;
        carry = next;
    }
    if carry != 0 {
        t[0] ^= 0x87;
    }
}

/// The CTR counter step one byte at a time (big-endian over all 16
/// bytes, wrapping).
fn increment_bytewise(c: &mut [u8; 16]) {
    for b in c.iter_mut().rev() {
        *b = b.wrapping_add(1);
        if *b != 0 {
            break;
        }
    }
}

/// XTS over one extent, a block at a time on the reference AES.
fn xts_reference(aes: &AesRef, encrypt: bool, iv: &[u8; 16], extent: &mut [u8]) {
    let mut t = *iv;
    aes.encrypt_block(&mut t);
    for chunk in extent.chunks_exact_mut(16) {
        let block: &mut [u8; 16] = chunk.try_into().unwrap();
        block.iter_mut().zip(&t).for_each(|(b, k)| *b ^= k);
        if encrypt {
            aes.encrypt_block(block);
        } else {
            aes.decrypt_block(block);
        }
        block.iter_mut().zip(&t).for_each(|(b, k)| *b ^= k);
        double_bytewise(&mut t);
    }
}

/// CTR over one extent, a block at a time on the reference AES; a
/// ragged last chunk takes the head of the next keystream block.
fn ctr_reference(aes: &AesRef, iv: &[u8; 16], extent: &mut [u8]) {
    let mut counter = *iv;
    for chunk in extent.chunks_mut(16) {
        let mut ks = counter;
        aes.encrypt_block(&mut ks);
        chunk.iter_mut().zip(&ks).for_each(|(b, k)| *b ^= k);
        increment_bytewise(&mut counter);
    }
}

/// Counter starts whose increments carry where the stream changes
/// scratch chunk (every 32 blocks): a one-byte carry at block 33, a
/// carry out of the low 64 bits at block 35, and a wrap of all 128
/// bits at block 40 (and at block 1).
fn carrying_counters() -> Vec<[u8; 16]> {
    let below = |carry_at: u128, blocks: u128| carry_at.wrapping_sub(blocks).to_be_bytes();
    vec![
        below(1 << 8, 33),
        below(1 << 64, 35),
        below(0, 40),
        [0xff; 16],
    ]
}

#[test]
fn xts_and_ctr_extent_runs_carry_across_the_scratch_boundary() {
    let aes = Aes::new(&KEY).unwrap();
    let bits = BitslicedAes::from_schedule(aes.schedule());
    let ni = aes_ni(&aes);
    let reference = AesRef::new(&KEY).unwrap();
    // Extents of 40 and 48 blocks straddle the 32-block scratch chunk,
    // 3 and 33 blocks put extent heads on either side of it.
    for blocks in [3usize, 33, 40, 48, 256] {
        let unit = 16 * blocks;
        let starts = carrying_counters();
        let n = starts.len();
        let pt = bytes(n * unit, blocks as u8);

        let mut want = pt.clone();
        for (iv, extent) in starts.iter().zip(want.chunks_exact_mut(unit)) {
            ctr_reference(&reference, iv, extent);
        }
        let mut got = pt.clone();
        ctr_crypt_extents(&bits, &starts, &mut got);
        assert_eq!(got, want, "CTR, {n} extents of {blocks} blocks");
        if let Some(ni) = &ni {
            let mut got = pt.clone();
            ctr_crypt_extents(ni, &starts, &mut got);
            assert_eq!(got, want, "aes-ni CTR, {n} extents of {blocks} blocks");
        }

        for encrypt in [true, false] {
            let tweaks = ivs(n, blocks as u8);
            let mut want = pt.clone();
            for (iv, extent) in tweaks.iter().zip(want.chunks_exact_mut(unit)) {
                xts_reference(&reference, encrypt, iv, extent);
            }
            let mut got = pt.clone();
            xts_crypt_extents(&bits, &bits, encrypt, &tweaks, &mut got);
            assert_eq!(
                got, want,
                "XTS (encrypt: {encrypt}), {n} extents of {blocks} blocks"
            );
            if let Some(ni) = &ni {
                let mut got = pt.clone();
                xts_crypt_extents(ni, ni, encrypt, &tweaks, &mut got);
                assert_eq!(
                    got, want,
                    "aes-ni XTS (encrypt: {encrypt}), {n} extents of {blocks} blocks"
                );
            }
        }
    }
}

/// CBC decryption over one extent, a block at a time on the reference
/// AES.
fn cbc_decrypt_reference(aes: &AesRef, iv: &[u8; 16], extent: &mut [u8]) {
    let mut prev = *iv;
    for chunk in extent.chunks_exact_mut(16) {
        let block: &mut [u8; 16] = chunk.try_into().unwrap();
        let ct = *block;
        aes.decrypt_block(block);
        block.iter_mut().zip(&prev).for_each(|(b, p)| *b ^= p);
        prev = ct;
    }
}

#[test]
fn aesni_streams_restart_at_extent_heads_inside_a_lane_group() {
    // The AES-NI stream loop whitens eight blocks per register group;
    // extents of an odd number of blocks put extent heads at every lane
    // of a group, where the tweak, counter or chaining block restarts.
    let aes = Aes::new(&KEY).unwrap();
    let ni = aes_ni(&aes);
    let page = PageCipher::new(&KEY).unwrap();
    let reference = AesRef::new(&KEY).unwrap();
    const EXTENTS: usize = 11;
    for blocks in [1usize, 3, 5, 7, 9, 17] {
        let unit = 16 * blocks;
        let pt = bytes(EXTENTS * unit, blocks as u8 ^ 0x3c);
        let ivs = ivs(EXTENTS, blocks as u8);
        // Counters that carry out of the low 64 bits, or wrap all 128,
        // one to three blocks into their extent.
        let counters: Vec<[u8; 16]> = (0..EXTENTS as u128)
            .map(|i| {
                let before = 1 + i % 3;
                let at = if i % 2 == 0 { 1u128 << 64 } else { 0 };
                at.wrapping_sub(before).to_be_bytes()
            })
            .collect();
        let each = |starts: &[[u8; 16]], f: &dyn Fn(&[u8; 16], &mut [u8])| {
            let mut want = pt.clone();
            for (iv, extent) in starts.iter().zip(want.chunks_exact_mut(unit)) {
                f(iv, extent);
            }
            want
        };
        let what = format!("{EXTENTS} extents of {blocks} blocks");

        let want = each(&counters, &|iv, e| ctr_reference(&reference, iv, e));
        if let Some(ni) = &ni {
            let mut got = pt.clone();
            ctr_crypt_extents(ni, &counters, &mut got);
            assert_eq!(got, want, "aes-ni CTR, {what}");
        }
        for direction in [Direction::Encrypt, Direction::Decrypt] {
            let mut got = pt.clone();
            page.crypt(PageCipherMode::Ctr, direction, &counters, &mut got);
            assert_eq!(got, want, "page cipher CTR ({direction:?}), {what}");
        }

        for direction in [Direction::Encrypt, Direction::Decrypt] {
            let encrypt = direction == Direction::Encrypt;
            let want = each(&ivs, &|iv, e| xts_reference(&reference, encrypt, iv, e));
            if let Some(ni) = &ni {
                let mut got = pt.clone();
                xts_crypt_extents(ni, ni, encrypt, &ivs, &mut got);
                assert_eq!(got, want, "aes-ni XTS ({direction:?}), {what}");
            }
            let mut got = pt.clone();
            page.crypt(PageCipherMode::Xts, direction, &ivs, &mut got);
            assert_eq!(got, want, "page cipher XTS ({direction:?}), {what}");
        }

        let want = each(&ivs, &|iv, e| cbc_decrypt_reference(&reference, iv, e));
        if let Some(ni) = &ni {
            let mut got = pt.clone();
            cbc_decrypt_extents(ni, &ivs, &mut got);
            assert_eq!(got, want, "aes-ni CBC decrypt, {what}");
        }
        let mut got = pt.clone();
        page.crypt(PageCipherMode::Cbc, Direction::Decrypt, &ivs, &mut got);
        assert_eq!(got, want, "page cipher CBC decrypt, {what}");
    }
}

#[test]
fn ctr_tail_takes_the_counter_after_the_whole_blocks() {
    // Three whole blocks from 2^128 - 2 wrap the counter to 0 at the
    // third; the 5-byte tail then runs at counter 1 (`iv + 3`), not `iv`.
    let mut iv = [0xff; 16];
    iv[15] = 0xfe;
    let pt = bytes(3 * 16 + 5, 0x7c);
    let mut want = pt.clone();
    ctr_reference(&AesRef::new(&KEY).unwrap(), &iv, &mut want);

    let aes = Aes::new(&KEY).unwrap();
    let mut got = pt.clone();
    ctr_crypt(&aes, &iv, &mut got);
    assert_eq!(got, want, "table");

    let bits = BitslicedAes::from_schedule(aes.schedule());
    let mut got = pt.clone();
    ctr_crypt(&bits, &iv, &mut got);
    assert_eq!(got, want, "bitsliced");

    if let Some(ni) = aes_ni(&aes) {
        let mut got = pt.clone();
        ctr_crypt(&ni, &iv, &mut got);
        assert_eq!(got, want, "aes-ni");
    }

    let mut store = VecStore::new(AesStateLayout::for_key_size(KeySize::Aes256).total_bytes());
    let tracked = TrackedAes::init(&mut store, &KEY).unwrap();
    let mut got = pt.clone();
    ctr_crypt(&InStore::new(&tracked, &mut store), &iv, &mut got);
    assert_eq!(got, want, "tracked table");

    let mut store = VecStore::new(AesStateLayout::bitsliced(KeySize::Aes256).total_bytes());
    let tracked = TrackedBitslicedAes::init(&mut store, &KEY).unwrap();
    let mut got = pt;
    ctr_crypt(&InStore::new(&tracked, &mut store), &iv, &mut got);
    assert_eq!(got, want, "tracked bitsliced");
}

/// 64-bit FNV-1a.
fn fnv(data: &[u8]) -> u64 {
    data.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn tracked_lane_chains_keep_their_store_trace() {
    // Lane-filling CBC encryption through the table-free tracked kernel,
    // in partial and full lane groups. The digest covers the ciphertext and
    // every store access, whose count the on-SoC engine charges to the
    // sim clock.
    let layout = AesStateLayout::bitsliced(KeySize::Aes256);
    let mut digest = Vec::new();
    for (n, unit) in [(2usize, 48usize), (17, 512), (3, 4096)] {
        let mut store = VecStore::recording(&layout);
        let kernel = TrackedBitslicedAes::init(&mut store, &KEY).unwrap();
        let ivs = ivs(n, 0x5a);
        let mut data = bytes(n * unit, 0xa5);
        cbc_encrypt_extents(&InStore::new(&kernel, &mut store), &ivs, &mut data);
        digest.extend_from_slice(&fnv(&data).to_le_bytes());
        digest.extend_from_slice(&(store.touch_log.len() as u64).to_le_bytes());
        for &(offset, len, write) in &store.touch_log {
            digest.extend_from_slice(&(offset as u64).to_le_bytes());
            digest.extend_from_slice(&(len as u64).to_le_bytes());
            digest.push(u8::from(write));
        }
    }
    assert_eq!(fnv(&digest), 13_240_713_610_802_304_536);
}

/// Stream `stream` over `data`: XTS encryption, XTS decryption, CTR or
/// CBC decryption.
fn run_stream(cipher: &impl BlockCipherBatch, stream: u8, ivs: &[[u8; 16]], data: &mut [u8]) {
    match stream {
        0 => xts_crypt_extents(cipher, cipher, true, ivs, data),
        1 => xts_crypt_extents(cipher, cipher, false, ivs, data),
        2 => ctr_crypt_extents(cipher, ivs, data),
        _ => cbc_decrypt_extents(cipher, ivs, data),
    }
}

#[test]
fn tracked_streams_keep_their_store_trace() {
    // XTS both ways, CTR and CBC decryption through both tracked
    // kernels, over extents that end inside and across the stream's
    // scratch chunks. The digest covers the output and every store
    // access.
    let mut digest = Vec::new();
    let mut record = |data: &[u8], store: &VecStore| {
        digest.extend_from_slice(&fnv(data).to_le_bytes());
        digest.extend_from_slice(&(store.touch_log.len() as u64).to_le_bytes());
        for &(offset, len, write) in &store.touch_log {
            digest.extend_from_slice(&(offset as u64).to_le_bytes());
            digest.extend_from_slice(&(len as u64).to_le_bytes());
            digest.push(u8::from(write));
        }
    };
    for (n, unit) in [(3usize, 48usize), (5, 512), (2, 4096)] {
        let ivs = ivs(n, 0x6b);
        for stream in 0..4 {
            let mut store = VecStore::recording(&AesStateLayout::bitsliced(KeySize::Aes256));
            let kernel = TrackedBitslicedAes::init(&mut store, &KEY).unwrap();
            let mut data = bytes(n * unit, 0xb6 ^ stream);
            run_stream(&InStore::new(&kernel, &mut store), stream, &ivs, &mut data);
            record(&data, &store);

            let mut store = VecStore::recording(&AesStateLayout::for_key_size(KeySize::Aes256));
            let kernel = TrackedAes::init(&mut store, &KEY).unwrap();
            let mut data = bytes(n * unit, 0xb6 ^ stream);
            run_stream(&InStore::new(&kernel, &mut store), stream, &ivs, &mut data);
            record(&data, &store);
        }
    }
    assert_eq!(fnv(&digest), 14_809_192_482_619_420_300);
}
