//! AES on the x86-64 AES-NI instructions: the host's untracked kernel.
//!
//! The simulated device charges AES at its calibrated cost whatever the
//! host runs, so the host is free to run the untracked contexts
//! ([`crate::modes::PageCipher`], [`crate::mac::Cmac`]) on the fastest
//! AES it has. [`AesNi`] is that kernel: one `aesenc`/`aesdec` per round,
//! up to eight independent blocks or chains interleaved so the
//! instruction's latency is hidden behind the other lanes.
//!
//! Safety. [`AesNi::from_schedule`] is the only constructor and returns
//! `None` unless the CPU reports the `aes` feature (`sse2` is part of the
//! x86-64 baseline), so holding an `AesNi` proves every
//! `#[target_feature(enable = "aes,sse2")]` function below may run. Each
//! `unsafe` block is either an unaligned load or store of a `&Block` or
//! one call into such a function from a method of an `AesNi`.
//!
//! The round keys come straight from the [`KeySchedule`]: the encryption
//! words as big-endian bytes, and the decryption words, which are
//! already in the equivalent-inverse-cipher order `aesdec` expects.

#![deny(
    clippy::undocumented_unsafe_blocks,
    clippy::multiple_unsafe_ops_per_block
)]

use std::arch::x86_64::{
    __m128i, _mm_aesdec_si128, _mm_aesdeclast_si128, _mm_aesenc_si128, _mm_aesenclast_si128,
    _mm_loadu_si128, _mm_set_epi64x, _mm_setzero_si128, _mm_storeu_si128, _mm_xor_si128,
};

use crate::batch::{BlockCipherBatch, Stream, Whitening};
use crate::block::Block;
use crate::key_schedule::KeySchedule;
use crate::modes::BlockCipher;

/// Blocks (or chains) one kernel call interleaves. Eight in-flight
/// `aesenc`s cover the instruction's latency on current cores.
const LANES: usize = 8;

/// Round keys of AES-256, the largest schedule.
const MAX_ROUND_KEYS: usize = 15;

/// An AES context on the AES-NI instructions.
#[derive(Clone)]
pub struct AesNi {
    rounds: usize,
    enc: [__m128i; MAX_ROUND_KEYS],
    dec: [__m128i; MAX_ROUND_KEYS],
}

impl std::fmt::Debug for AesNi {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print round-key material.
        f.debug_struct("AesNi")
            .field("rounds", &self.rounds)
            .finish_non_exhaustive()
    }
}

impl AesNi {
    /// Load `schedule`'s round keys, or `None` when this CPU has no
    /// AES-NI.
    #[must_use]
    pub fn from_schedule(schedule: &KeySchedule) -> Option<AesNi> {
        if !std::arch::is_x86_feature_detected!("aes") {
            return None;
        }
        let words = |w: &[u32]| -> [Block; MAX_ROUND_KEYS] {
            let mut keys = [[0u8; 16]; MAX_ROUND_KEYS];
            for (key, round) in keys.iter_mut().zip(w.chunks_exact(4)) {
                for (bytes, word) in key.chunks_exact_mut(4).zip(round) {
                    bytes.copy_from_slice(&word.to_be_bytes());
                }
            }
            keys
        };
        let (enc, dec) = (words(schedule.enc_words()), words(schedule.dec_words()));
        Some(AesNi {
            rounds: schedule.size().rounds(),
            // SAFETY: the `aes` feature was detected above.
            enc: unsafe { load_keys(&enc) },
            // SAFETY: the `aes` feature was detected above.
            dec: unsafe { load_keys(&dec) },
        })
    }

    /// The encryption round keys in use: `rounds + 1` of them.
    fn enc_keys(&self) -> &[__m128i] {
        &self.enc[..=self.rounds]
    }

    /// The decryption round keys in use: `rounds + 1` of them.
    fn dec_keys(&self) -> &[__m128i] {
        &self.dec[..=self.rounds]
    }
}

/// Unaligned load of one block.
#[target_feature(enable = "aes,sse2")]
fn load(block: &Block) -> __m128i {
    // SAFETY: `block` is 16 readable bytes and `loadu` has no alignment
    // requirement.
    unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
}

/// Unaligned store of one block.
#[target_feature(enable = "aes,sse2")]
fn store(value: __m128i, block: &mut Block) {
    // SAFETY: `block` is 16 writable bytes and `storeu` has no alignment
    // requirement.
    unsafe { _mm_storeu_si128(block.as_mut_ptr().cast(), value) }
}

/// The block whose little-endian bytes are `v`, built in registers.
#[target_feature(enable = "aes,sse2")]
#[inline]
fn load_u128(v: u128) -> __m128i {
    _mm_set_epi64x((v >> 64) as i64, v as i64)
}

#[target_feature(enable = "aes,sse2")]
fn load_keys(keys: &[Block; MAX_ROUND_KEYS]) -> [__m128i; MAX_ROUND_KEYS] {
    let mut out = [_mm_setzero_si128(); MAX_ROUND_KEYS];
    for (o, k) in out.iter_mut().zip(keys) {
        *o = load(k);
    }
    out
}

/// Encrypt `N` independent states, round by round across the lanes.
#[target_feature(enable = "aes,sse2")]
#[inline]
fn encrypt_lanes<const N: usize>(keys: &[__m128i], s: &mut [__m128i; N]) {
    let (first, rest) = keys.split_first().expect("a round key");
    let (last, middle) = rest.split_last().expect("a last round key");
    for x in s.iter_mut() {
        *x = _mm_xor_si128(*x, *first);
    }
    for k in middle {
        for x in s.iter_mut() {
            *x = _mm_aesenc_si128(*x, *k);
        }
    }
    for x in s.iter_mut() {
        *x = _mm_aesenclast_si128(*x, *last);
    }
}

/// Decrypt `N` independent states (the equivalent inverse cipher).
#[target_feature(enable = "aes,sse2")]
#[inline]
fn decrypt_lanes<const N: usize>(keys: &[__m128i], s: &mut [__m128i; N]) {
    let (first, rest) = keys.split_first().expect("a round key");
    let (last, middle) = rest.split_last().expect("a last round key");
    for x in s.iter_mut() {
        *x = _mm_xor_si128(*x, *first);
    }
    for k in middle {
        for x in s.iter_mut() {
            *x = _mm_aesdec_si128(*x, *k);
        }
    }
    for x in s.iter_mut() {
        *x = _mm_aesdeclast_si128(*x, *last);
    }
}

/// Transform one group of exactly `N` blocks in place.
#[target_feature(enable = "aes,sse2")]
#[inline]
fn crypt_group<const N: usize>(keys: &[__m128i], encrypt: bool, blocks: &mut [Block]) {
    let mut s = [_mm_setzero_si128(); N];
    for (x, b) in s.iter_mut().zip(blocks.iter()) {
        *x = load(b);
    }
    if encrypt {
        encrypt_lanes(keys, &mut s);
    } else {
        decrypt_lanes(keys, &mut s);
    }
    for (x, b) in s.iter().zip(blocks.iter_mut()) {
        store(*x, b);
    }
}

/// Transform every block in place, [`LANES`] at a time. The full groups
/// are arrays, so their loads and stores compile to straight register
/// moves rather than a copy through a stack buffer.
#[target_feature(enable = "aes,sse2")]
fn crypt_blocks(keys: &[__m128i], encrypt: bool, blocks: &mut [Block]) {
    let (groups, tail) = blocks.as_chunks_mut::<LANES>();
    for group in groups {
        crypt_group::<LANES>(keys, encrypt, group);
    }
    match tail.len() {
        1 => crypt_group::<1>(keys, encrypt, tail),
        2 => crypt_group::<2>(keys, encrypt, tail),
        3 => crypt_group::<3>(keys, encrypt, tail),
        4 => crypt_group::<4>(keys, encrypt, tail),
        5 => crypt_group::<5>(keys, encrypt, tail),
        6 => crypt_group::<6>(keys, encrypt, tail),
        7 => crypt_group::<7>(keys, encrypt, tail),
        _ => {}
    }
}

/// One group of exactly `N` chains through the lane loop of
/// [`BlockCipherBatch::encrypt_chains`]; `first` is the group's first
/// chain index. The chain values stay in registers from the first block
/// to the last.
#[target_feature(enable = "aes,sse2")]
#[inline]
fn chain_group<const N: usize, F>(
    keys: &[__m128i],
    first: usize,
    group: &mut [Block],
    blocks: usize,
    every_block: bool,
    feed: &mut F,
) where
    F: FnMut(usize, usize, Option<&Block>) -> Block,
{
    let mut s = [_mm_setzero_si128(); N];
    for (x, c) in s.iter_mut().zip(group.iter()) {
        *x = load(c);
    }
    let mut prev = [0u8; 16];
    for j in 0..blocks {
        for (lane, x) in s.iter_mut().enumerate() {
            let m = if every_block {
                store(*x, &mut prev);
                feed(first + lane, j, Some(&prev))
            } else {
                feed(first + lane, j, None)
            };
            *x = _mm_xor_si128(*x, load(&m));
        }
        encrypt_lanes(keys, &mut s);
    }
    for (x, c) in s.iter().zip(group.iter_mut()) {
        store(*x, c);
    }
}

/// The lane loop: every group of up to [`LANES`] chains runs with its
/// chain values in registers, dispatched to a lane count known at
/// compile time so the states never spill.
#[target_feature(enable = "aes,sse2")]
fn encrypt_chains<F>(
    keys: &[__m128i],
    chains: &mut [Block],
    blocks: usize,
    every_block: bool,
    feed: &mut F,
) where
    F: FnMut(usize, usize, Option<&Block>) -> Block,
{
    for (g, group) in chains.chunks_mut(LANES).enumerate() {
        let (k, first, b, e) = (keys, g * LANES, blocks, every_block);
        match group.len() {
            1 => chain_group::<1, F>(k, first, group, b, e, feed),
            2 => chain_group::<2, F>(k, first, group, b, e, feed),
            3 => chain_group::<3, F>(k, first, group, b, e, feed),
            4 => chain_group::<4, F>(k, first, group, b, e, feed),
            5 => chain_group::<5, F>(k, first, group, b, e, feed),
            6 => chain_group::<6, F>(k, first, group, b, e, feed),
            7 => chain_group::<7, F>(k, first, group, b, e, feed),
            _ => chain_group::<LANES, F>(k, first, group, b, e, feed),
        }
    }
}

/// One group of exactly `N` blocks of a stream (see
/// [`BlockCipherBatch::crypt_stream`]): every block is loaded once,
/// whitened, ciphered and whitened again in registers, and stored once.
/// `carry` is the ciphertext block the group's first block chains from
/// under CBC, and on return the group's last.
#[target_feature(enable = "aes,sse2")]
#[inline]
fn stream_group<const N: usize>(
    ni: &AesNi,
    stream: Stream,
    whitening: &mut Whitening<'_>,
    carry: &mut __m128i,
    group: &mut [Block],
) {
    let mut s = [_mm_setzero_si128(); N];
    match stream {
        Stream::Xts { encrypt } => {
            let mut tweaks = [_mm_setzero_si128(); N];
            for ((x, t), b) in s.iter_mut().zip(&mut tweaks).zip(group.iter()) {
                *t = load_u128(whitening.next_tweak());
                *x = _mm_xor_si128(load(b), *t);
            }
            if encrypt {
                encrypt_lanes(ni.enc_keys(), &mut s);
            } else {
                decrypt_lanes(ni.dec_keys(), &mut s);
            }
            for ((x, t), b) in s.iter().zip(&tweaks).zip(group.iter_mut()) {
                store(_mm_xor_si128(*x, *t), b);
            }
        }
        Stream::Ctr => {
            for x in s.iter_mut() {
                *x = load_u128(whitening.next_counter());
            }
            encrypt_lanes(ni.enc_keys(), &mut s);
            for (x, b) in s.iter().zip(group.iter_mut()) {
                store(_mm_xor_si128(*x, load(b)), b);
            }
        }
        Stream::CbcDecrypt => {
            let mut prev = [_mm_setzero_si128(); N];
            for ((x, p), b) in s.iter_mut().zip(&mut prev).zip(group.iter()) {
                *x = load(b);
                *p = whitening.next_head().map_or(*carry, |iv| load(iv));
                *carry = *x;
            }
            decrypt_lanes(ni.dec_keys(), &mut s);
            for ((x, p), b) in s.iter().zip(&prev).zip(group.iter_mut()) {
                store(_mm_xor_si128(*x, *p), b);
            }
        }
    }
}

/// The stream loop: every group of up to [`LANES`] blocks in registers,
/// dispatched to a lane count known at compile time.
#[target_feature(enable = "aes,sse2")]
fn crypt_stream(ni: &AesNi, stream: Stream, starts: &[Block], blocks: &mut [Block]) {
    let mut whitening = Whitening::new(starts, blocks.len());
    let mut carry = _mm_setzero_si128();
    let (w, c) = (&mut whitening, &mut carry);
    for group in blocks.chunks_mut(LANES) {
        match group.len() {
            1 => stream_group::<1>(ni, stream, w, c, group),
            2 => stream_group::<2>(ni, stream, w, c, group),
            3 => stream_group::<3>(ni, stream, w, c, group),
            4 => stream_group::<4>(ni, stream, w, c, group),
            5 => stream_group::<5>(ni, stream, w, c, group),
            6 => stream_group::<6>(ni, stream, w, c, group),
            7 => stream_group::<7>(ni, stream, w, c, group),
            _ => stream_group::<LANES>(ni, stream, w, c, group),
        }
    }
}

impl BlockCipher for AesNi {
    fn encrypt_block(&self, block: &mut Block) {
        // SAFETY: an `AesNi` exists only where `aes` was detected.
        unsafe { crypt_group::<1>(self.enc_keys(), true, std::slice::from_mut(block)) }
    }

    fn decrypt_block(&self, block: &mut Block) {
        // SAFETY: an `AesNi` exists only where `aes` was detected.
        unsafe { crypt_group::<1>(self.dec_keys(), false, std::slice::from_mut(block)) }
    }
}

impl BlockCipherBatch for AesNi {
    fn encrypt_blocks(&self, blocks: &mut [Block]) {
        // SAFETY: an `AesNi` exists only where `aes` was detected.
        unsafe { crypt_blocks(self.enc_keys(), true, blocks) }
    }

    fn decrypt_blocks(&self, blocks: &mut [Block]) {
        // SAFETY: an `AesNi` exists only where `aes` was detected.
        unsafe { crypt_blocks(self.dec_keys(), false, blocks) }
    }

    fn batch_width(&self) -> usize {
        LANES
    }

    fn encrypt_chains<F>(&self, chains: &mut [Block], blocks: usize, every_block: bool, mut feed: F)
    where
        F: FnMut(usize, usize, Option<&Block>) -> Block,
    {
        // SAFETY: an `AesNi` exists only where `aes` was detected.
        unsafe { encrypt_chains(self.enc_keys(), chains, blocks, every_block, &mut feed) }
    }

    fn crypt_stream(&self, stream: Stream, starts: &[Block], blocks: &mut [Block]) {
        // SAFETY: an `AesNi` exists only where `aes` was detected.
        unsafe { crypt_stream(self, stream, starts, blocks) }
    }
}
