//! AES on the x86-64 AES-NI instructions: the host's untracked kernel.
//!
//! The simulated device charges AES at its calibrated cost whatever the
//! host runs, so the host is free to run the untracked contexts
//! ([`crate::modes::PageCipher`], [`crate::mac::Cmac`]) on the fastest
//! AES it has. [`AesNi`] is that kernel: one `aesenc`/`aesdec` per round,
//! eight independent registers interleaved so the instruction's latency
//! is hidden behind the other lanes.
//!
//! Lane width. A register holds one block (128-bit lanes, on every
//! AES-NI CPU) or two (256-bit lanes, where the CPU also has VAES, AVX2
//! and VPCLMULQDQ: one `vaesenc` runs a round of two blocks).
//! [`AesNi::from_schedule`] picks the width once. The kernel has two
//! loops, each generic over the register (`Lane`): the stream loop,
//! under XTS, CTR, CBC decryption and independent blocks (the batch and
//! single-block calls), and the chain lanes under the batch CMAC and CBC
//! encryption. Each runs its full groups of eight registers (8 or 16
//! blocks or chains) at that width, and the rest on 128-bit lanes. CTR
//! alone holds to 128-bit lanes at either width: it serves only
//! dm-crypt's CTR volumes, and on 256-bit lanes sentrybench's
//! `dmcrypt_rw` host throughput spread across runs wider than on
//! 128-bit ones, some runs falling below the 128-bit kernel's.
//!
//! Streams. Each block goes through the rounds once, between an input and
//! an output whitening: XTS XORs the block's tweak in on both sides, CTR
//! enciphers the counter block and XORs the data in after, CBC decryption
//! XORs in the ciphertext block before (or the extent's IV), and
//! independent blocks take neither. `aesenclast` and `aesdeclast` end in
//! an XOR with their key, so the output whitening folds into the last
//! round key. CTR counter blocks are built in registers; CBC chaining
//! blocks are staged in memory a group at a time.
//!
//! XTS tweaks. Each register keeps its own blocks' tweaks. After a
//! group, every tweak steps to the tweak of the block one group later:
//! times x^8 (or x^16) in GF(2^128), which is a byte shift plus one
//! carry-less multiply of the bytes shifted out by 0x87. So no tweak
//! waits on the one before it. Only each extent's first group's worth of
//! blocks take their tweaks by serial doubling from the extent's start.
//!
//! Chains. A chain's blocks wait on each other, so the lane loop keeps
//! the XORs off that path: `aesenclast` ends in an XOR with its key, and
//! unless the feed needs each chain value, the next message block and
//! the first round key fold into the last round's key.
//!
//! Safety. [`AesNi::from_schedule`] is the only constructor. It returns
//! `None` unless the CPU reports `aes` and `pclmulqdq` (`sse2` is part of
//! the x86-64 baseline), and it picks 256-bit lanes only where the CPU
//! also reports `avx2`, `vaes` and `vpclmulqdq`. So holding an `AesNi`
//! proves the 128-bit instructions may run, and holding one with 256-bit
//! lanes proves the 256-bit ones may. Each `unsafe` block is one of two
//! things:
//!
//! * one instruction in a `Lane` method. A trait method cannot enable
//!   its features with `#[target_feature]`, so the module keeps the rule
//!   instead: the `__m128i` methods run only under an `AesNi`, and the
//!   `__m256i` methods only under one with 256-bit lanes. Outside the
//!   unit tests, which hold such an `AesNi`, that means inside the
//!   256-bit entry points (`stream_x256`, `chains_x256`), which only an
//!   `AesNi` with 256-bit lanes calls;
//! * one call into a `#[target_feature]` function from a method of an
//!   `AesNi` whose width allows it.
//!
//! The lane methods and the generic loops are `#[inline(always)]`, so
//! their instructions compile into the `#[target_feature]` function that
//! runs them, at the width it enables. The loops step arrays with `for`
//! rather than `[T; N]::map` and hold no closure that runs a lane
//! method: neither inlines there, and out of line each instruction
//! becomes a call.
//!
//! The round keys come straight from the [`KeySchedule`]: the encryption
//! words as big-endian bytes, and the decryption words, which are
//! already in the equivalent-inverse-cipher order `aesdec` expects.

#![deny(
    clippy::undocumented_unsafe_blocks,
    clippy::multiple_unsafe_ops_per_block
)]

use std::arch::x86_64::{
    __m128i, __m256i, _mm256_aesdec_epi128, _mm256_aesdeclast_epi128, _mm256_aesenc_epi128,
    _mm256_aesenclast_epi128, _mm256_broadcastsi128_si256, _mm256_bslli_epi128,
    _mm256_bsrli_epi128, _mm256_clmulepi64_epi128, _mm256_loadu_si256, _mm256_storeu_si256,
    _mm256_xor_si256, _mm_aesdec_si128, _mm_aesdeclast_si128, _mm_aesenc_si128,
    _mm_aesenclast_si128, _mm_bslli_si128, _mm_bsrli_si128, _mm_clmulepi64_si128, _mm_loadu_si128,
    _mm_storeu_si128, _mm_xor_si128,
};

use crate::batch::{BlockCipherBatch, Stream, Whitening};
use crate::block::Block;
use crate::key_schedule::KeySchedule;
use crate::modes::{xts_mul_alpha, BlockCipher};

/// Registers one kernel call interleaves. Eight in-flight `aesenc`s
/// cover the instruction's latency on current cores.
const LANES: usize = 8;

/// Round keys of AES-256, the largest schedule.
const MAX_ROUND_KEYS: usize = 15;

/// Blocks in the largest group: eight 256-bit registers.
const MAX_GROUP: usize = 2 * LANES;

/// x^128 reduced modulo the XTS polynomial x^128 + x^7 + x^2 + x + 1.
const POLY: Block = 0x87u128.to_le_bytes();

/// An AES context on the AES-NI instructions.
#[derive(Clone)]
pub struct AesNi {
    rounds: usize,
    enc: [__m128i; MAX_ROUND_KEYS],
    dec: [__m128i; MAX_ROUND_KEYS],
    /// Whether the stream loop and the chain lanes run their full groups
    /// on 256-bit lanes.
    wide: bool,
}

impl std::fmt::Debug for AesNi {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print round-key material.
        f.debug_struct("AesNi")
            .field("rounds", &self.rounds)
            .field("lane_bits", &self.lane_bits())
            .finish_non_exhaustive()
    }
}

impl AesNi {
    /// Load `schedule`'s round keys, or `None` when this CPU has no
    /// AES-NI (or no `pclmulqdq`). The lanes are 256 bits wide where the
    /// CPU has VAES, else 128.
    #[must_use]
    pub fn from_schedule(schedule: &KeySchedule) -> Option<AesNi> {
        AesNi::with_lanes(schedule, true)
    }

    /// [`AesNi::from_schedule`], held to 128-bit lanes unless `wide` is
    /// set: the unit tests reach the 128-bit loops through it on a CPU
    /// with VAES.
    fn with_lanes(schedule: &KeySchedule, wide: bool) -> Option<AesNi> {
        use std::arch::is_x86_feature_detected as has;
        if !(has!("aes") && has!("pclmulqdq")) {
            return None;
        }
        let wide = wide && has!("avx2") && has!("vaes") && has!("vpclmulqdq");
        let keys = |w: &[u32]| {
            let mut keys = [[[0u8; 16]]; MAX_ROUND_KEYS];
            for (key, round) in keys.iter_mut().zip(w.chunks_exact(4)) {
                for (bytes, word) in key[0].chunks_exact_mut(4).zip(round) {
                    bytes.copy_from_slice(&word.to_be_bytes());
                }
            }
            keys.map(|key| __m128i::load(&key))
        };
        Some(AesNi {
            rounds: schedule.size().rounds(),
            enc: keys(schedule.enc_words()),
            dec: keys(schedule.dec_words()),
            wide,
        })
    }

    /// Bits per lane register: 256 where the CPU has VAES, else 128.
    #[must_use]
    pub fn lane_bits(&self) -> u32 {
        if self.wide {
            256
        } else {
            128
        }
    }

    /// The round keys in use of one direction: `rounds + 1` of them.
    fn round_keys(&self, encrypt: bool) -> &[__m128i] {
        &(if encrypt { &self.enc } else { &self.dec })[..=self.rounds]
    }

    /// Every round key of one direction broadcast to each block of an
    /// `R` register; the first `rounds + 1` are in use.
    #[inline(always)]
    fn keys<R: Lane>(&self, encrypt: bool) -> [R; MAX_ROUND_KEYS] {
        let keys = if encrypt { &self.enc } else { &self.dec };
        let mut out = [R::splat(keys[0]); MAX_ROUND_KEYS];
        for (o, k) in out.iter_mut().zip(keys) {
            *o = R::splat(*k);
        }
        out
    }
}

/// A vector register of [`Lane::BLOCKS`] AES blocks side by side, and the
/// AES-NI operations on each block. Each method runs one or a few
/// instructions of its width; see the module's safety note for why they
/// may.
trait Lane: Copy {
    /// Blocks per register.
    const BLOCKS: usize;
    /// One register's blocks as they lie in memory.
    type Unit: Default + AsRef<[Block]> + AsMut<[Block]>;
    /// `blocks`, a whole number of registers' worth, as register units.
    fn units(blocks: &mut [Block]) -> &mut [Self::Unit];
    /// The register with `block` in every block.
    fn splat(block: __m128i) -> Self;
    fn load(unit: &Self::Unit) -> Self;
    fn store(self, unit: &mut Self::Unit);
    fn xor(self, other: Self) -> Self;
    fn enc(self, key: Self) -> Self;
    fn enc_last(self, key: Self) -> Self;
    fn dec(self, key: Self) -> Self;
    fn dec_last(self, key: Self) -> Self;
    /// Each block, an XTS tweak, stepped one group of [`LANES`] registers
    /// on: times x^(8·BLOCKS) in GF(2^128). The block shifts up `BLOCKS`
    /// bytes, and the bytes shifted out fold back in times x^128 = 0x87
    /// by one carry-less multiply.
    fn advance(self) -> Self;
}

impl Lane for __m128i {
    const BLOCKS: usize = 1;
    type Unit = [Block; 1];

    #[inline(always)]
    fn units(blocks: &mut [Block]) -> &mut [[Block; 1]] {
        blocks.as_chunks_mut().0
    }

    #[inline(always)]
    fn splat(block: __m128i) -> Self {
        block
    }

    #[inline(always)]
    fn load(unit: &[Block; 1]) -> Self {
        // SAFETY: `unit` is 16 readable bytes, `loadu` has no alignment
        // requirement, and `sse2` is the x86-64 baseline.
        unsafe { _mm_loadu_si128(unit.as_ptr().cast()) }
    }

    #[inline(always)]
    fn store(self, unit: &mut [Block; 1]) {
        // SAFETY: `unit` is 16 writable bytes, `storeu` has no alignment
        // requirement, and `sse2` is the x86-64 baseline.
        unsafe { _mm_storeu_si128(unit.as_mut_ptr().cast(), self) }
    }

    #[inline(always)]
    fn xor(self, other: Self) -> Self {
        // SAFETY: `sse2` is the x86-64 baseline.
        unsafe { _mm_xor_si128(self, other) }
    }

    #[inline(always)]
    fn enc(self, key: Self) -> Self {
        // SAFETY: runs under an `AesNi`, so the CPU has `aes`.
        unsafe { _mm_aesenc_si128(self, key) }
    }

    #[inline(always)]
    fn enc_last(self, key: Self) -> Self {
        // SAFETY: runs under an `AesNi`, so the CPU has `aes`.
        unsafe { _mm_aesenclast_si128(self, key) }
    }

    #[inline(always)]
    fn dec(self, key: Self) -> Self {
        // SAFETY: runs under an `AesNi`, so the CPU has `aes`.
        unsafe { _mm_aesdec_si128(self, key) }
    }

    #[inline(always)]
    fn dec_last(self, key: Self) -> Self {
        // SAFETY: runs under an `AesNi`, so the CPU has `aes`.
        unsafe { _mm_aesdeclast_si128(self, key) }
    }

    #[inline(always)]
    fn advance(self) -> Self {
        // SAFETY: `sse2` is the x86-64 baseline.
        let out = unsafe { _mm_bsrli_si128::<15>(self) };
        // SAFETY: runs under an `AesNi`, so the CPU has `pclmulqdq`.
        let folded = unsafe { _mm_clmulepi64_si128::<0x00>(out, Self::load(&[POLY])) };
        // SAFETY: `sse2` is the x86-64 baseline.
        unsafe { _mm_bslli_si128::<1>(self) }.xor(folded)
    }
}

impl Lane for __m256i {
    const BLOCKS: usize = 2;
    type Unit = [Block; 2];

    #[inline(always)]
    fn units(blocks: &mut [Block]) -> &mut [[Block; 2]] {
        let (units, rest) = blocks.as_chunks_mut();
        debug_assert!(rest.is_empty(), "a whole number of registers");
        units
    }

    #[inline(always)]
    fn splat(block: __m128i) -> Self {
        // SAFETY: runs under an `AesNi` with 256-bit lanes, so the CPU has
        // `avx2`.
        unsafe { _mm256_broadcastsi128_si256(block) }
    }

    #[inline(always)]
    fn load(unit: &[Block; 2]) -> Self {
        // SAFETY: `unit` is 32 readable bytes, `loadu` has no alignment
        // requirement, and this runs under an `AesNi` with 256-bit lanes,
        // so the CPU has `avx2`.
        unsafe { _mm256_loadu_si256(unit.as_ptr().cast()) }
    }

    #[inline(always)]
    fn store(self, unit: &mut [Block; 2]) {
        // SAFETY: `unit` is 32 writable bytes, `storeu` has no alignment
        // requirement, and this runs under an `AesNi` with 256-bit lanes,
        // so the CPU has `avx2`.
        unsafe { _mm256_storeu_si256(unit.as_mut_ptr().cast(), self) }
    }

    #[inline(always)]
    fn xor(self, other: Self) -> Self {
        // SAFETY: runs under an `AesNi` with 256-bit lanes, so the CPU has
        // `avx2`.
        unsafe { _mm256_xor_si256(self, other) }
    }

    #[inline(always)]
    fn enc(self, key: Self) -> Self {
        // SAFETY: runs under an `AesNi` with 256-bit lanes, so the CPU has
        // `vaes`.
        unsafe { _mm256_aesenc_epi128(self, key) }
    }

    #[inline(always)]
    fn enc_last(self, key: Self) -> Self {
        // SAFETY: runs under an `AesNi` with 256-bit lanes, so the CPU has
        // `vaes`.
        unsafe { _mm256_aesenclast_epi128(self, key) }
    }

    #[inline(always)]
    fn dec(self, key: Self) -> Self {
        // SAFETY: runs under an `AesNi` with 256-bit lanes, so the CPU has
        // `vaes`.
        unsafe { _mm256_aesdec_epi128(self, key) }
    }

    #[inline(always)]
    fn dec_last(self, key: Self) -> Self {
        // SAFETY: runs under an `AesNi` with 256-bit lanes, so the CPU has
        // `vaes`.
        unsafe { _mm256_aesdeclast_epi128(self, key) }
    }

    #[inline(always)]
    fn advance(self) -> Self {
        // SAFETY: runs under an `AesNi` with 256-bit lanes, so the CPU has
        // `avx2`.
        let out = unsafe { _mm256_bsrli_epi128::<14>(self) };
        let poly = Self::splat(__m128i::load(&[POLY]));
        // SAFETY: runs under an `AesNi` with 256-bit lanes, so the CPU has
        // `vpclmulqdq`.
        let folded = unsafe { _mm256_clmulepi64_epi128::<0x00>(out, poly) };
        // SAFETY: runs under an `AesNi` with 256-bit lanes, so the CPU has
        // `avx2`.
        unsafe { _mm256_bslli_epi128::<2>(self) }.xor(folded)
    }
}

/// One group of exactly `N` registers of chains through the lane loop
/// of [`BlockCipherBatch::encrypt_chains`]; `first` is the group's first
/// chain index. The chain values stay in registers from the first block
/// to the last.
///
/// `aesenclast` ends in an XOR with its key, so unless the feed needs the
/// chain value, the next message block and the first round key fold into
/// the last round's key: no XOR stands between one block's rounds and the
/// next's.
#[inline(always)]
fn chain_group<R: Lane, const N: usize, F>(
    keys: &[R],
    first: usize,
    group: &mut [R::Unit],
    blocks: usize,
    every_block: bool,
    feed: &mut F,
) where
    F: FnMut(usize, usize, Option<&Block>) -> Block,
{
    if blocks == 0 {
        return;
    }
    let (key0, rest) = keys.split_first().expect("a round key");
    let (last, middle) = rest.split_last().expect("a last round key");
    let mut s: [R; N] = std::array::from_fn(|i| R::load(&group[i]));
    for (r, x) in s.iter_mut().enumerate() {
        let lane = first + r * R::BLOCKS;
        *x = x.xor(chain_block(feed, lane, 0, every_block.then_some(*x), *key0));
    }
    for j in 1..=blocks {
        for k in middle {
            for x in s.iter_mut() {
                *x = x.enc(*k);
            }
        }
        for (r, x) in s.iter_mut().enumerate() {
            let lane = first + r * R::BLOCKS;
            *x = if j == blocks {
                x.enc_last(*last)
            } else if every_block {
                let out = x.enc_last(*last);
                out.xor(chain_block(feed, lane, j, Some(out), *key0))
            } else {
                x.enc_last(last.xor(chain_block(feed, lane, j, None, *key0)))
            };
        }
    }
    for (x, c) in s.iter().zip(group.iter_mut()) {
        x.store(c);
    }
}

/// Block `j` of the chains from `lane` on that one register holds,
/// whitened with `key0`. `prev` is their chain value entering it, which
/// the feed sees when it asks for every block's. The blocks go through
/// memory rather than a closure per block, which would not inline.
#[inline(always)]
fn chain_block<R: Lane, F>(feed: &mut F, lane: usize, j: usize, prev: Option<R>, key0: R) -> R
where
    F: FnMut(usize, usize, Option<&Block>) -> Block,
{
    let (mut chains, mut m) = (R::Unit::default(), R::Unit::default());
    if let Some(x) = prev {
        x.store(&mut chains);
    }
    for (h, b) in m.as_mut().iter_mut().enumerate() {
        *b = feed(lane + h, j, prev.map(|_| &chains.as_ref()[h]));
    }
    R::load(&m).xor(key0)
}

/// The lane loop: the full groups of [`LANES`] `R` registers of chains,
/// then the rest on 128-bit lanes, each group dispatched to a register
/// count known at compile time so the chain values never spill.
#[inline(always)]
fn encrypt_chains<R: Lane, F>(
    ni: &AesNi,
    chains: &mut [Block],
    blocks: usize,
    every_block: bool,
    feed: &mut F,
) where
    F: FnMut(usize, usize, Option<&Block>) -> Block,
{
    let group = LANES * R::BLOCKS;
    let whole = chains.len() - chains.len() % group;
    let (full, rest) = chains.split_at_mut(whole);
    let keys = ni.keys::<R>(true);
    for (g, units) in R::units(full).chunks_exact_mut(LANES).enumerate() {
        let k = &keys[..=ni.rounds];
        chain_group::<R, LANES, F>(k, g * group, units, blocks, every_block, feed);
    }
    for (g, units) in __m128i::units(rest).chunks_mut(LANES).enumerate() {
        let (k, first, b, e) = (ni.round_keys(true), whole + g * LANES, blocks, every_block);
        match units.len() {
            1 => chain_group::<__m128i, 1, F>(k, first, units, b, e, feed),
            2 => chain_group::<__m128i, 2, F>(k, first, units, b, e, feed),
            3 => chain_group::<__m128i, 3, F>(k, first, units, b, e, feed),
            4 => chain_group::<__m128i, 4, F>(k, first, units, b, e, feed),
            5 => chain_group::<__m128i, 5, F>(k, first, units, b, e, feed),
            6 => chain_group::<__m128i, 6, F>(k, first, units, b, e, feed),
            7 => chain_group::<__m128i, 7, F>(k, first, units, b, e, feed),
            _ => chain_group::<__m128i, LANES, F>(k, first, units, b, e, feed),
        }
    }
}

/// [`encrypt_chains`] on 128-bit lanes.
#[target_feature(enable = "aes,sse2")]
fn chains_x128<F>(ni: &AesNi, chains: &mut [Block], blocks: usize, every: bool, feed: &mut F)
where
    F: FnMut(usize, usize, Option<&Block>) -> Block,
{
    encrypt_chains::<__m128i, F>(ni, chains, blocks, every, feed);
}

/// [`encrypt_chains`] on 256-bit lanes.
#[target_feature(enable = "aes,sse2,avx2,vaes")]
fn chains_x256<F>(ni: &AesNi, chains: &mut [Block], blocks: usize, every: bool, feed: &mut F)
where
    F: FnMut(usize, usize, Option<&Block>) -> Block,
{
    encrypt_chains::<__m256i, F>(ni, chains, blocks, every, feed);
}

/// What the stream loop whitens each block with: a stream mode, or
/// nothing for independent blocks.
#[derive(Clone, Copy)]
enum Job {
    Blocks { encrypt: bool },
    Stream(Stream),
}

impl Job {
    /// Whether the rounds run the cipher forwards.
    fn encrypts(self) -> bool {
        matches!(
            self,
            Job::Blocks { encrypt: true }
                | Job::Stream(Stream::Xts { encrypt: true } | Stream::Ctr)
        )
    }
}

/// Exactly `N` registers of a stream, each block loaded once, ciphered
/// and stored once. Each register enters the rounds as its input and
/// leaves XORed with its output whitening, which folds into the last
/// round key (`aesenclast` and `aesdeclast` end in an XOR with their
/// key):
///
/// * XTS: the data XOR the tweak (`held[i]`), then the tweak;
/// * CTR: the counter block (`held[i]`), then the data;
/// * CBC decryption: the data, then the ciphertext block before it or
///   the extent's IV (`staged[i]`);
/// * independent blocks: the data, then zero.
#[inline(always)]
fn run_group<R: Lane, const N: usize>(
    keys: &[R],
    job: Job,
    held: &[R],
    staged: &[R::Unit],
    group: &mut [R::Unit],
) {
    let (first, rest) = keys.split_first().expect("a round key");
    let (last, middle) = rest.split_last().expect("a last round key");
    let (first, last, encrypt) = (*first, *last, job.encrypts());
    let mut s = [first; N];
    for (i, x) in s.iter_mut().enumerate() {
        *x = x.xor(match job {
            Job::Stream(Stream::Xts { .. }) => R::load(&group[i]).xor(held[i]),
            Job::Stream(Stream::Ctr) => held[i],
            Job::Stream(Stream::CbcDecrypt) | Job::Blocks { .. } => R::load(&group[i]),
        });
    }
    for k in middle {
        for x in s.iter_mut() {
            *x = if encrypt { x.enc(*k) } else { x.dec(*k) };
        }
    }
    for (i, (x, b)) in s.iter().zip(group.iter_mut()).enumerate() {
        let key = match job {
            Job::Stream(Stream::Xts { .. }) => last.xor(held[i]),
            Job::Stream(Stream::Ctr) => last.xor(R::load(b)),
            Job::Stream(Stream::CbcDecrypt) => last.xor(R::load(&staged[i])),
            Job::Blocks { .. } => last,
        };
        let out = if encrypt {
            x.enc_last(key)
        } else {
            x.dec_last(key)
        };
        out.store(b);
    }
}

/// The serial side of an XTS stream's tweaks, walked group by group:
/// each extent's first `group` blocks, which share no extent with the
/// block a group earlier, take their tweaks by doubling from the
/// extent's start. Every later block's tweak is the one a group earlier
/// stepped by [`Lane::advance`].
struct Heads<'a> {
    starts: std::slice::Iter<'a, Block>,
    per_extent: usize,
    /// Blocks per group.
    group: usize,
    /// The offset of the next block in its extent.
    offset: usize,
    /// The tweak of the next block [`Heads::seed`] reaches.
    next: u128,
}

impl Heads<'_> {
    /// Whether the next `group` blocks hold one to seed.
    #[inline(always)]
    fn any(&self) -> bool {
        self.offset < self.group || self.offset + self.group > self.per_extent
    }

    /// Overwrite `tweaks[i]`, the tweak of the `i`-th next block, wherever
    /// that block is among its extent's first `group`.
    fn seed(&mut self, tweaks: &mut [Block]) {
        let mut offset = self.offset;
        for tweak in tweaks {
            if offset == 0 {
                self.next = u128::from_le_bytes(*self.starts.next().expect("a start per extent"));
            }
            if offset < self.group {
                *tweak = self.next.to_le_bytes();
                self.next = xts_mul_alpha(self.next);
            }
            offset += 1;
            if offset == self.per_extent {
                offset = 0;
            }
        }
    }

    /// Move on past the next `blocks` blocks.
    #[inline(always)]
    fn skip(&mut self, blocks: usize) {
        self.offset += blocks;
        while self.offset >= self.per_extent {
            self.offset -= self.per_extent;
        }
    }
}

/// The register of the next [`Lane::BLOCKS`] CTR counter blocks. The
/// unit is local, so it compiles to register moves rather than stores
/// and a load that waits on them.
#[inline(always)]
fn counters<R: Lane>(whitening: &mut Whitening<'_>) -> R {
    let mut unit = R::Unit::default();
    for block in unit.as_mut() {
        *block = whitening.next_counter().to_le_bytes();
    }
    R::load(&unit)
}

/// Stage the whitening of the next `staged.len()` blocks, `data`, that
/// a stream keeps in memory: the blocks CBC decryption XORs in (the
/// extent's IV at its head, else the ciphertext block before, `carry`
/// for the first).
#[inline(always)]
fn stage(
    job: Job,
    whitening: &mut Whitening<'_>,
    carry: &mut Block,
    data: &[Block],
    staged: &mut [Block],
) {
    if let Job::Stream(Stream::CbcDecrypt) = job {
        let (last, before) = data.split_last().expect("a block to stage");
        staged[0] = std::mem::replace(carry, *last);
        staged[1..].copy_from_slice(before);
        for s in staged {
            if let Some(iv) = whitening.next_head() {
                *s = *iv;
            }
        }
    }
}

/// The stream loop (see the module docs): full groups of [`LANES`] `R`
/// registers, then the rest on 128-bit lanes. XTS tweaks step in
/// registers, re-seeded where an extent starts; CTR counter blocks are
/// built in registers; CBC chaining blocks are staged per group.
#[inline(always)]
fn stream<R: Lane>(ni: &AesNi, job: Job, starts: &[Block], blocks: &mut [Block]) {
    let xts = matches!(job, Job::Stream(Stream::Xts { .. }));
    let ctr = matches!(job, Job::Stream(Stream::Ctr));
    let group = LANES * R::BLOCKS;
    let mut heads = Heads {
        starts: starts.iter(),
        per_extent: blocks.len().checked_div(starts.len()).unwrap_or(0),
        group,
        offset: 0,
        next: 0,
    };
    let mut whitening = Whitening::new(starts, blocks.len());
    let mut carry = [0; 16];
    // The full groups' round keys are broadcast once per call.
    let keys = ni.keys::<R>(job.encrypts());
    let (keys, tail_keys) = (&keys[..=ni.rounds], ni.round_keys(job.encrypts()));
    // Every XTS and CTR lane is set before its first use.
    let mut held = [R::splat(__m128i::load(&[[0; 16]])); LANES];
    let mut staged = [[0u8; 16]; MAX_GROUP];
    let whole = blocks.len() - blocks.len() % group;
    let (full, tail) = blocks.split_at_mut(whole);
    for blocks in full.chunks_exact_mut(group) {
        let staged = &mut staged[..group];
        if xts {
            if heads.any() {
                for (t, unit) in held.iter().zip(R::units(staged).iter_mut()) {
                    t.store(unit);
                }
                heads.seed(staged);
                for (t, unit) in held.iter_mut().zip(R::units(staged).iter()) {
                    *t = R::load(unit);
                }
            }
            heads.skip(group);
        } else if ctr {
            for t in &mut held {
                *t = counters(&mut whitening);
            }
        } else {
            stage(job, &mut whitening, &mut carry, blocks, staged);
        }
        run_group::<R, LANES>(keys, job, &held, R::units(staged), R::units(blocks));
        if xts {
            for t in &mut held {
                *t = t.advance();
            }
        }
    }
    let n = tail.len();
    if n == 0 {
        return;
    }
    if xts {
        for (t, unit) in held.iter().zip(R::units(&mut staged[..group])) {
            t.store(unit);
        }
        heads.seed(&mut staged[..n]);
    } else {
        stage(job, &mut whitening, &mut carry, tail, &mut staged[..n]);
    }
    let staged = __m128i::units(&mut staged[..n]);
    for (units, s) in __m128i::units(tail)
        .chunks_mut(LANES)
        .zip(staged.chunks(LANES))
    {
        let mut t = [__m128i::load(&[[0; 16]]); LANES];
        for (t, unit) in t.iter_mut().zip(s) {
            *t = if ctr {
                counters(&mut whitening)
            } else {
                __m128i::load(unit)
            };
        }
        match units.len() {
            1 => run_group::<__m128i, 1>(tail_keys, job, &t, s, units),
            2 => run_group::<__m128i, 2>(tail_keys, job, &t, s, units),
            3 => run_group::<__m128i, 3>(tail_keys, job, &t, s, units),
            4 => run_group::<__m128i, 4>(tail_keys, job, &t, s, units),
            5 => run_group::<__m128i, 5>(tail_keys, job, &t, s, units),
            6 => run_group::<__m128i, 6>(tail_keys, job, &t, s, units),
            7 => run_group::<__m128i, 7>(tail_keys, job, &t, s, units),
            _ => run_group::<__m128i, LANES>(tail_keys, job, &t, s, units),
        }
    }
}

/// [`stream`] with the job a constant in each arm, so each job compiles
/// to its own loop with no branch on the job between the rounds.
#[inline(always)]
fn each_job<R: Lane>(ni: &AesNi, job: Job, starts: &[Block], blocks: &mut [Block]) {
    use Stream::{CbcDecrypt, Ctr, Xts};
    let (s, b) = (starts, blocks);
    match job {
        j @ Job::Blocks { encrypt: true } => stream::<R>(ni, j, s, b),
        j @ Job::Blocks { encrypt: false } => stream::<R>(ni, j, s, b),
        j @ Job::Stream(Xts { encrypt: true }) => stream::<R>(ni, j, s, b),
        j @ Job::Stream(Xts { encrypt: false }) => stream::<R>(ni, j, s, b),
        // CTR holds to 128-bit lanes at either width (see the module docs).
        j @ Job::Stream(Ctr) => stream::<__m128i>(ni, j, s, b),
        j @ Job::Stream(CbcDecrypt) => stream::<R>(ni, j, s, b),
    }
}

/// [`stream`] on 128-bit lanes.
#[target_feature(enable = "aes,sse2,pclmulqdq")]
fn stream_x128(ni: &AesNi, job: Job, starts: &[Block], blocks: &mut [Block]) {
    each_job::<__m128i>(ni, job, starts, blocks);
}

/// [`stream`] on 256-bit lanes.
#[target_feature(enable = "aes,sse2,pclmulqdq,avx2,vaes,vpclmulqdq")]
fn stream_x256(ni: &AesNi, job: Job, starts: &[Block], blocks: &mut [Block]) {
    each_job::<__m256i>(ni, job, starts, blocks);
}

impl AesNi {
    /// Run `job` over `blocks` through the stream loop at this kernel's
    /// lane width. A stream shorter than one 256-bit group runs wholly on
    /// 128-bit lanes at either width, so it takes the 128-bit entry and
    /// skips the wide one's set-up: a single block, or an XTS call's
    /// tweak bases.
    fn stream(&self, job: Job, starts: &[Block], blocks: &mut [Block]) {
        if self.wide && blocks.len() >= LANES * <__m256i as Lane>::BLOCKS {
            // SAFETY: `wide` is set only where `avx2`, `vaes` and
            // `vpclmulqdq` were detected, beside `aes` and `pclmulqdq`.
            unsafe { stream_x256(self, job, starts, blocks) }
        } else {
            // SAFETY: an `AesNi` exists only where `aes` and `pclmulqdq`
            // were detected.
            unsafe { stream_x128(self, job, starts, blocks) }
        }
    }
}

impl BlockCipher for AesNi {
    fn encrypt_block(&self, block: &mut Block) {
        self.encrypt_blocks(std::slice::from_mut(block));
    }

    fn decrypt_block(&self, block: &mut Block) {
        self.decrypt_blocks(std::slice::from_mut(block));
    }
}

impl BlockCipherBatch for AesNi {
    fn encrypt_blocks(&self, blocks: &mut [Block]) {
        self.stream(Job::Blocks { encrypt: true }, &[], blocks);
    }

    fn decrypt_blocks(&self, blocks: &mut [Block]) {
        self.stream(Job::Blocks { encrypt: false }, &[], blocks);
    }

    fn batch_width(&self) -> usize {
        LANES
    }

    fn encrypt_chains<F>(&self, chains: &mut [Block], blocks: usize, every_block: bool, mut feed: F)
    where
        F: FnMut(usize, usize, Option<&Block>) -> Block,
    {
        let (c, b, e, f) = (chains, blocks, every_block, &mut feed);
        if self.wide {
            // SAFETY: `wide` is set only where `avx2` and `vaes` were
            // detected, beside `aes`.
            unsafe { chains_x256(self, c, b, e, f) }
        } else {
            // SAFETY: an `AesNi` exists only where `aes` was detected.
            unsafe { chains_x128(self, c, b, e, f) }
        }
    }

    fn crypt_stream(&self, stream: Stream, starts: &[Block], blocks: &mut [Block]) {
        self.stream(Job::Stream(stream), starts, blocks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Aes;
    use std::collections::BTreeMap;

    /// The page key is the 32-byte root key, so AES-256 is the size to
    /// cover.
    const KEY: [u8; 32] = [
        0x60, 0x3d, 0xeb, 0x10, 0x15, 0xca, 0x71, 0xbe, 0x2b, 0x73, 0xae, 0xf0, 0x85, 0x7d, 0x77,
        0x81, 0x1f, 0x35, 0x2c, 0x07, 0x3b, 0x61, 0x08, 0xd7, 0x2d, 0x98, 0x10, 0xa3, 0x09, 0x14,
        0xdf, 0xf4,
    ];

    /// The portable reference and the AES-NI kernel at every lane width
    /// this CPU has (128 bits wherever it has AES-NI, 256 where it also
    /// has VAES), with a line saying which ran.
    fn kernels() -> (Aes, Vec<AesNi>) {
        let aes = Aes::new(&KEY).unwrap();
        let mut widths: Vec<AesNi> = [false, true]
            .into_iter()
            .filter_map(|wide| AesNi::with_lanes(aes.schedule(), wide))
            .collect();
        widths.dedup_by_key(|ni| ni.lane_bits());
        let bits: Vec<u32> = widths.iter().map(AesNi::lane_bits).collect();
        if bits.is_empty() {
            eprintln!("skipped: this CPU has no AES-NI");
        } else {
            eprintln!("aesni lane widths run: {bits:?}");
        }
        (aes, widths)
    }

    /// `n` deterministic blocks, distinct per `salt`.
    fn blocks(n: usize, salt: u64) -> Vec<Block> {
        let mut x = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                let mut b = [0u8; 16];
                for chunk in b.chunks_exact_mut(8) {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    chunk.copy_from_slice(&x.to_le_bytes());
                }
                b
            })
            .collect()
    }

    /// `stream` over one extent of `per` blocks from each of `starts` on
    /// every width, against the portable kernel.
    fn check_stream(aes: &Aes, widths: &[AesNi], stream: Stream, starts: &[Block], per: usize) {
        let extents = starts.len();
        let data = blocks(extents * per, !((extents * 1000 + per) as u64));
        let mut want = data.clone();
        BlockCipherBatch::crypt_stream(aes, stream, starts, &mut want);
        for ni in widths {
            let mut got = data.clone();
            ni.crypt_stream(stream, starts, &mut got);
            assert_eq!(
                got,
                want,
                "{stream:?} at {} bits, {extents} extents of {per} blocks",
                ni.lane_bits()
            );
        }
    }

    #[test]
    fn xts_streams_match_the_portable_kernel_at_every_width() {
        // Extents of 1-300 blocks put extent heads at every lane of a
        // group of 8 or 16 and leave tails of every length below 16.
        let (aes, widths) = kernels();
        for extents in [1, 2, 3, 7, 16, 17, 40] {
            for per in [
                1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 100, 255, 256, 257, 300,
            ] {
                let starts = blocks(extents, (extents * 1000 + per) as u64);
                for encrypt in [true, false] {
                    check_stream(&aes, &widths, Stream::Xts { encrypt }, &starts, per);
                }
            }
        }
    }

    #[test]
    fn streams_restart_at_extent_heads_inside_a_lane_group_at_every_width() {
        // Odd extents put heads at every lane of a register group, where
        // the tweak, counter or chaining block restarts. The counters
        // carry out of the low 64 bits, or wrap all 128, one to three
        // blocks into their extent.
        let (aes, widths) = kernels();
        for per in [1, 3, 5, 7, 9, 15, 17, 31, 33] {
            let starts = blocks(11, per as u64);
            let counters: Vec<Block> = (0..11u128)
                .map(|i| {
                    let at = if i % 2 == 0 { 1u128 << 64 } else { 0 };
                    at.wrapping_sub(1 + i % 3).to_be_bytes()
                })
                .collect();
            for (stream, starts) in [
                (Stream::Xts { encrypt: true }, &starts),
                (Stream::Xts { encrypt: false }, &starts),
                (Stream::Ctr, &counters),
                (Stream::CbcDecrypt, &starts),
            ] {
                check_stream(&aes, &widths, stream, starts, per);
            }
        }
    }

    #[test]
    fn ctr_counters_carry_across_registers_and_groups_and_wrap_at_every_width() {
        // A counter `k` below a carry out of the low 64 bits, or below
        // 2^128, carries or wraps between blocks `k - 1` and `k`: between
        // registers, between groups of 8 blocks and in the tail. CTR holds
        // to 128-bit lanes, so each kernel width runs it that way.
        let (aes, widths) = kernels();
        for k in 1..=33u128 {
            for top in [1u128 << 64, 0] {
                let start = top.wrapping_sub(k).to_be_bytes();
                check_stream(&aes, &widths, Stream::Ctr, &[start], 40);
                check_stream(&aes, &widths, Stream::Ctr, &[start, start, start], 19);
            }
        }
    }

    #[test]
    fn cbc_decryption_restarts_at_a_head_at_every_offset_of_a_group_at_every_width() {
        // Extents of 1-17 blocks, three groups of 16 and more, put an
        // extent head at every offset of a group and carry the chain from
        // the last block of one group into the next.
        let (aes, widths) = kernels();
        for per in 1..=17 {
            let starts = blocks(48 / per + 2, per as u64);
            check_stream(&aes, &widths, Stream::CbcDecrypt, &starts, per);
        }
    }

    #[test]
    fn independent_blocks_match_the_portable_kernel_at_every_width() {
        let (aes, widths) = kernels();
        for n in 0..=40 {
            let data = blocks(n, n as u64);
            let mut want = data.clone();
            aes.encrypt_blocks(&mut want);
            for ni in &widths {
                let bits = ni.lane_bits();
                let mut got = data.clone();
                ni.encrypt_blocks(&mut got);
                assert_eq!(got, want, "encrypt_blocks, {n} blocks at {bits} bits");
                ni.decrypt_blocks(&mut got);
                assert_eq!(got, data, "decrypt_blocks, {n} blocks at {bits} bits");
            }
        }
        for block in blocks(5, 41) {
            let mut want = block;
            aes.encrypt_block(&mut want);
            for ni in &widths {
                let mut got = block;
                BlockCipher::encrypt_block(ni, &mut got);
                assert_eq!(got, want, "encrypt_block at {} bits", ni.lane_bits());
                BlockCipher::decrypt_block(ni, &mut got);
                assert_eq!(got, block, "decrypt_block at {} bits", ni.lane_bits());
            }
        }
    }

    /// Final chain values, and the chain value each `(chain, block)`
    /// feed saw, of a lane loop over `chains` chains.
    type Chained = (Vec<Block>, BTreeMap<(usize, usize), Option<Block>>);

    fn chained<C: BlockCipherBatch>(cipher: &C, n: usize, blocks: usize, every: bool) -> Chained {
        let message = self::blocks(n * blocks, (n * 100 + blocks) as u64);
        let mut chains = self::blocks(n, n as u64);
        let mut seen = BTreeMap::new();
        cipher.encrypt_chains(&mut chains, blocks, every, |i, j, prev| {
            seen.insert((i, j), prev.copied());
            message[i * blocks + j]
        });
        (chains, seen)
    }

    #[test]
    fn chain_lanes_match_the_portable_kernel_at_every_width() {
        let (aes, widths) = kernels();
        for n in 1..=40 {
            for blocks in [0, 1, 2, 17] {
                for every in [false, true] {
                    let want = chained(&aes, n, blocks, every);
                    assert_eq!(want.1.len(), n * blocks);
                    for ni in &widths {
                        assert_eq!(
                            chained(ni, n, blocks, every),
                            want,
                            "{n} chains of {blocks} blocks at {} bits, every block {every}",
                            ni.lane_bits()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn the_tweak_step_is_a_group_of_doublings() {
        let (_, widths) = kernels();
        let doublings = |t: Block, k: usize| {
            let mut v = u128::from_le_bytes(t);
            for _ in 0..k {
                v = xts_mul_alpha(v);
            }
            v.to_le_bytes()
        };
        let mut tweaks = blocks(64, 7);
        tweaks.extend([[0xFF; 16], [0x80; 16], [0; 16], 1u128.to_le_bytes()]);
        tweaks.extend([(1u128 << 127).to_le_bytes(), (3u128 << 126).to_le_bytes()]);
        for ni in &widths {
            for pair in tweaks.chunks_exact(2) {
                let mut got = [pair[0], pair[1]];
                let k = if ni.lane_bits() == 256 {
                    <__m256i as Lane>::load(&got).advance().store(&mut got);
                    16
                } else {
                    for b in got.iter_mut().map(std::slice::from_mut) {
                        let one = &mut b.as_chunks_mut::<1>().0[0];
                        <__m128i as Lane>::load(one).advance().store(one);
                    }
                    8
                };
                assert_eq!(got, [doublings(pair[0], k), doublings(pair[1], k)]);
            }
        }
    }

    #[test]
    fn from_schedule_takes_256_bit_lanes_where_the_cpu_has_vaes() {
        let aes = Aes::new(&KEY).unwrap();
        let Some(ni) = AesNi::from_schedule(aes.schedule()) else {
            eprintln!("skipped: this CPU has no AES-NI");
            return;
        };
        let vaes = std::arch::is_x86_feature_detected!("vaes")
            && std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("vpclmulqdq");
        assert_eq!(ni.lane_bits(), if vaes { 256 } else { 128 });
        let narrow = AesNi::with_lanes(aes.schedule(), false).unwrap();
        assert_eq!(narrow.lane_bits(), 128);
    }
}
