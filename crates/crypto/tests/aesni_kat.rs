//! Known-answer tests for the AES-NI kernel: the FIPS-197 Appendix C
//! vectors for all three key sizes, block by block and in batches of
//! every lane count, and the NIST SP 800-38A CBC and CTR examples
//! through the mode layer and through a [`PageCipher`] on each kernel.
//!
//! The file builds on x86-64 only, where the kernel exists. On a CPU
//! without AES-NI the AES-NI cases print a skip line and pass, and the
//! page-cipher cases check the portable kernel alone.
#![cfg(target_arch = "x86_64")]

use sentry_crypto::aesni::AesNi;
use sentry_crypto::modes::{cbc_decrypt, cbc_encrypt, cbc_encrypt_extents, ctr_crypt, BlockCipher};
use sentry_crypto::{Aes, BlockCipherBatch, Direction, PageCipher, PageCipherMode};

fn hex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

fn block(s: &str) -> [u8; 16] {
    hex(s).try_into().unwrap()
}

/// The AES-NI kernel under `key`, or `None` after a skip line.
fn aes_ni(key: &[u8]) -> Option<AesNi> {
    let ni = AesNi::from_schedule(Aes::new(key).unwrap().schedule());
    if ni.is_none() {
        eprintln!("skipped: this CPU has no AES-NI");
    }
    ni
}

/// FIPS-197 Appendix C: one plaintext under the incrementing key of each
/// size.
const PT: &str = "00112233445566778899aabbccddeeff";
const APPENDIX_C: [(&str, &str); 3] = [
    (
        "000102030405060708090a0b0c0d0e0f",
        "69c4e0d86a7b0430d8cdb78070b4c55a",
    ),
    (
        "000102030405060708090a0b0c0d0e0f1011121314151617",
        "dda97ca4864cdfe06eaf70a0ec0d7191",
    ),
    (
        "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
        "8ea2b7ca516745bfeafc49904b496089",
    ),
];

#[test]
fn aes_ni_matches_fips_197_appendix_c() {
    for (key, ct) in APPENDIX_C {
        let Some(ni) = aes_ni(&hex(key)) else { return };
        let mut b = block(PT);
        ni.encrypt_block(&mut b);
        assert_eq!(b, block(ct), "encrypt, key {key}");
        ni.decrypt_block(&mut b);
        assert_eq!(b, block(PT), "decrypt, key {key}");
        // Every batch length up to two full lane groups and a tail.
        for n in 1..=17 {
            let mut batch = vec![block(PT); n];
            ni.encrypt_blocks(&mut batch);
            assert_eq!(batch, vec![block(ct); n], "{n}-block batch, key {key}");
            ni.decrypt_blocks(&mut batch);
            assert_eq!(batch, vec![block(PT); n], "{n}-block batch, key {key}");
        }
    }
}

/// SP 800-38A's four-block sample plaintext.
const SAMPLE: &str = concat!(
    "6bc1bee22e409f96e93d7e117393172a",
    "ae2d8a571e03ac9c9eb76fac45af8e51",
    "30c81c46a35ce411e5fbc1191a0a52ef",
    "f69f2445df4f9b17ad2b417be66c3710",
);
const KEY128: &str = "2b7e151628aed2a6abf7158809cf4f3c";
const KEY256: &str = "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4";

/// SP 800-38A F.2.1 and F.2.5: CBC-AES128 and CBC-AES256.
const CBC: [(&str, &str); 2] = [
    (
        KEY128,
        concat!(
            "7649abac8119b246cee98e9b12e9197d",
            "5086cb9b507219ee95db113a917678b2",
            "73bed6b8e3c1743b7116e69e22229516",
            "3ff1caa1681fac09120eca307586e1a7",
        ),
    ),
    (
        KEY256,
        concat!(
            "f58c4c04d6e5f1ba779eabfb5f7bfbd6",
            "9cfc4e967edb808d679f777bc6702c7d",
            "39f23369a9d9bacfa530e26304231461",
            "b2eb05e2c39be9fcda6c19078c6a9d1b",
        ),
    ),
];
const CBC_IV: &str = "000102030405060708090a0b0c0d0e0f";

/// SP 800-38A F.5.1 and F.5.5: CTR-AES128 and CTR-AES256.
const CTR: [(&str, &str); 2] = [
    (
        KEY128,
        concat!(
            "874d6191b620e3261bef6864990db6ce",
            "9806f66b7970fdff8617187bb9fffdff",
            "5ae4df3edbd5d35e5b4f09020db03eab",
            "1e031dda2fbe03d1792170a0f3009cee",
        ),
    ),
    (
        KEY256,
        concat!(
            "601ec313775789a5b7a7f504bbf3d228",
            "f443e3ca4d62b59aca84e990cacaf5c5",
            "2b0930daa23de94ce87017ba2d84988d",
            "dfc9c58db67aada613c2dd08457941a6",
        ),
    ),
];
const CTR_IV: &str = "f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff";

#[test]
fn aes_ni_matches_sp800_38a_cbc() {
    let iv = block(CBC_IV);
    for (key, ct) in CBC {
        let Some(ni) = aes_ni(&hex(key)) else { return };
        let mut data = hex(SAMPLE);
        cbc_encrypt(&ni, &iv, &mut data);
        assert_eq!(data, hex(ct), "scalar chain, key {key}");
        cbc_decrypt(&ni, &iv, &mut data);
        assert_eq!(data, hex(SAMPLE), "decrypt, key {key}");
        cbc_encrypt_extents(&ni, &[iv], &mut data);
        assert_eq!(data, hex(ct), "one-chain lane loop, key {key}");
    }
}

#[test]
fn aes_ni_matches_sp800_38a_ctr() {
    let iv = block(CTR_IV);
    for (key, ct) in CTR {
        let Some(ni) = aes_ni(&hex(key)) else { return };
        let mut data = hex(SAMPLE);
        ctr_crypt(&ni, &iv, &mut data);
        assert_eq!(data, hex(ct), "key {key}");
        ctr_crypt(&ni, &iv, &mut data);
        assert_eq!(data, hex(SAMPLE), "key {key}");
    }
}

#[test]
fn both_page_cipher_kernels_match_sp800_38a() {
    for (key, cbc_ct) in CBC {
        let key = hex(key);
        for cipher in [PageCipher::new(&key), PageCipher::portable(&key)] {
            let cipher = cipher.unwrap();
            let name = cipher.kernel_name();
            let mut data = hex(SAMPLE);
            let iv = [block(CBC_IV)];
            cipher.crypt(PageCipherMode::Cbc, Direction::Encrypt, &iv, &mut data);
            assert_eq!(data, hex(cbc_ct), "{name} CBC encrypt");
            cipher.crypt(PageCipherMode::Cbc, Direction::Decrypt, &iv, &mut data);
            assert_eq!(data, hex(SAMPLE), "{name} CBC decrypt");
        }
    }
    for (key, ctr_ct) in CTR {
        let key = hex(key);
        for cipher in [PageCipher::new(&key), PageCipher::portable(&key)] {
            let cipher = cipher.unwrap();
            let name = cipher.kernel_name();
            let mut data = hex(SAMPLE);
            let iv = [block(CTR_IV)];
            cipher.crypt(PageCipherMode::Ctr, Direction::Encrypt, &iv, &mut data);
            assert_eq!(data, hex(ctr_ct), "{name} CTR");
        }
    }
}

#[test]
fn the_selected_kernel_follows_the_cpu() {
    let ni = std::arch::is_x86_feature_detected!("aes");
    let want = if ni { "aesni" } else { "portable" };
    println!("host AES kernel: {want}");
    assert_eq!(PageCipher::new(&[1u8; 16]).unwrap().kernel_name(), want);
    assert_eq!(
        PageCipher::portable(&[1u8; 16]).unwrap().kernel_name(),
        "portable"
    );
}
