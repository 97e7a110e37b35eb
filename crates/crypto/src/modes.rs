//! Block cipher modes of operation: CBC, XTS, and CTR.
//!
//! Sentry originally used CBC — the default AES mode on Android and Linux
//! at the time of the paper — for both the encrypted-DRAM pager and
//! dm-crypt. CBC *encryption* is serially chained, though: block `j`
//! cannot start until block `j-1` finishes, so a 16-lane bitsliced kernel
//! runs it one lane out of sixteen. [`xts_encrypt`]/[`xts_decrypt`]
//! (IEEE P1619) and [`ctr_crypt`] are the parallel per-page alternatives:
//! every block is independent given a cheap GF(2^128) tweak chain (XTS) or
//! a counter (CTR), so both directions fill every lane.
//!
//! Each mode's algorithm is written once, as a kernel over a run of
//! equal-sized extents laid out back to back, each under its own IV:
//! [`cbc_encrypt_extents`], [`cbc_decrypt_extents`], [`xts_crypt_extents`]
//! and [`ctr_crypt_extents`], plus the scalar CBC chain [`cbc_encrypt`].
//! The single-buffer calls ([`cbc_decrypt`], [`xts_encrypt`],
//! [`xts_decrypt`], [`ctr_crypt`]) are one-extent calls of those kernels.
//! The kernels take whole blocks — the pager works in 4 KiB pages,
//! dm-crypt in 512-byte sectors — and only [`ctr_crypt`] also takes a
//! ragged tail. The block loops under them belong to the cipher: CBC
//! encryption over several extents runs one chain per lane
//! ([`BlockCipherBatch::encrypt_chains`]), and CBC decryption, XTS and
//! CTR run as one stream of independent blocks
//! ([`BlockCipherBatch::crypt_stream`]), so a kernel that keeps the
//! whitening in registers (AES-NI) needs no mode code of its own here.
//! [`PageCipher`] is the keyed context the engines hold;
//! [`crypt_extents`] picks the kernel for each mode and direction, for
//! it and for AES On SoC's store-bound kernels alike.

use crate::batch::{BlockCipherBatch, Stream};
use crate::bitslice::BitslicedAes;
use crate::block::{Aes, AesRef, Block};
use crate::BLOCK_SIZE;
use std::sync::OnceLock;

/// The per-page cipher mode a Sentry engine runs.
///
/// Selected on `SentryConfig` and threaded through every producer and
/// consumer of page ciphertext: the kernel engines, the multi-lane lock
/// batch, the pager's extent streams, dm-crypt sectors, and the txn
/// journal's commit-tag scheme (non-chaining modes switch the tag from
/// "final CBC block" to the integrity CMAC, since the last XTS/CTR block
/// no longer depends on the whole page).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum PageCipherMode {
    /// AES-CBC: the paper's mode. Decryption is data-parallel, but the
    /// encryption chain keeps only one bitsliced lane busy per page.
    #[default]
    Cbc,
    /// AES-XTS (IEEE P1619): tweak = page IV, per-block tweak chain via
    /// GF(2^128) doubling. Parallel in both directions.
    Xts,
    /// Epoch-bound AES-CTR: the 16-byte page IV is the initial counter
    /// block, incremented big-endian per block. Parallel in both
    /// directions.
    Ctr,
}

impl PageCipherMode {
    /// Display name (bench tables, JSON).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PageCipherMode::Cbc => "cbc",
            PageCipherMode::Xts => "xts",
            PageCipherMode::Ctr => "ctr",
        }
    }

    /// Whether a page's last ciphertext block depends on every earlier
    /// plaintext block. True only for CBC; the txn journal's commit tag
    /// can use the final block directly when this holds and must fall
    /// back to a MAC otherwise.
    #[must_use]
    pub fn is_chaining(self) -> bool {
        matches!(self, PageCipherMode::Cbc)
    }

    /// All modes, in declaration order.
    #[must_use]
    pub fn all() -> [PageCipherMode; 3] {
        [
            PageCipherMode::Cbc,
            PageCipherMode::Xts,
            PageCipherMode::Ctr,
        ]
    }
}

impl std::fmt::Display for PageCipherMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Which way a page crypt transforms its data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Plaintext to ciphertext (device lock, page-out, disk write).
    Encrypt,
    /// Ciphertext to plaintext (device unlock, page-in, disk read).
    Decrypt,
}

/// One keyed page-cipher context: the host's untracked AES. The key is
/// expanded once, and the one schedule feeds whichever kernel the CPU
/// runs fastest.
///
/// The paper's three kernel ciphers (generic AES, the accelerator, and
/// AES On SoC) differ in where the key lives and what an operation
/// costs, not in the mode arithmetic; each holds one `PageCipher`, as do
/// the spill region's engine, the multi-lane lock batch, dm-crypt's
/// keystream context and every [`crate::mac::Cmac`]. The simulated
/// device charges its calibrated cost whatever runs here, so the kernel
/// choice moves host time only. [`crypt_extents`] is the one place a
/// page-cipher mode picks a kernel.
#[derive(Clone)]
pub struct PageCipher {
    /// The table-driven context: the schedule, one-off derivations and
    /// the portable kernel's serial chains.
    pub(crate) aes: Aes,
    pub(crate) kernel: HostKernel,
}

/// The kernel behind a [`PageCipher`], chosen once per key.
#[derive(Clone)]
pub(crate) enum HostKernel {
    /// AES-NI for every path: single chains, lanes and streams. Boxed,
    /// as its round keys are most of the context's size.
    #[cfg(target_arch = "x86_64")]
    AesNi(Box<crate::aesni::AesNi>),
    /// The table-driven chain plus a bitsliced context, built from the
    /// same schedule on first use, for lanes and streams.
    Portable(OnceLock<BitslicedAes>),
}

impl HostKernel {
    /// The hardware kernel for `schedule`, if this CPU has one.
    fn accelerated(schedule: &crate::key_schedule::KeySchedule) -> Option<HostKernel> {
        #[cfg(target_arch = "x86_64")]
        let kernel =
            crate::aesni::AesNi::from_schedule(schedule).map(|ni| HostKernel::AesNi(Box::new(ni)));
        #[cfg(not(target_arch = "x86_64"))]
        let kernel = {
            let _ = schedule;
            None
        };
        kernel
    }
}

impl std::fmt::Debug for PageCipher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("PageCipher")
            .field("size", &self.aes.key_size())
            .field("kernel", &self.kernel_name())
            .finish_non_exhaustive()
    }
}

impl PageCipher {
    /// Expand `key` once and load it into the fastest kernel this CPU
    /// has.
    ///
    /// # Errors
    ///
    /// Returns [`crate::KeyError::InvalidLength`] for keys that are not
    /// 16, 24, or 32 bytes.
    pub fn new(key: &[u8]) -> Result<Self, crate::KeyError> {
        Ok(PageCipher::from_aes(Aes::new(key)?, true))
    }

    /// [`PageCipher::new`] on the portable kernel (table-driven chain
    /// and bitsliced lanes) whatever the CPU has, so the fallback stays
    /// testable on a host with AES-NI.
    ///
    /// # Errors
    ///
    /// As [`PageCipher::new`].
    pub fn portable(key: &[u8]) -> Result<Self, crate::KeyError> {
        Ok(PageCipher::from_aes(Aes::new(key)?, false))
    }

    /// The one kernel selection: AES-NI when `detect` is set and the CPU
    /// has it, else the portable pair.
    pub(crate) fn from_aes(aes: Aes, detect: bool) -> Self {
        let kernel = detect
            .then(|| HostKernel::accelerated(aes.schedule()))
            .flatten()
            .unwrap_or_else(|| HostKernel::Portable(OnceLock::new()));
        PageCipher { aes, kernel }
    }

    /// The kernel this context runs: `"aesni"` or `"portable"`.
    #[must_use]
    pub fn kernel_name(&self) -> &'static str {
        match self.kernel {
            #[cfg(target_arch = "x86_64")]
            HostKernel::AesNi(_) => "aesni",
            HostKernel::Portable(_) => "portable",
        }
    }

    /// The expanded key schedule (the generic engine models it as kernel
    /// heap in DRAM).
    #[must_use]
    pub fn schedule(&self) -> &crate::key_schedule::KeySchedule {
        self.aes.schedule()
    }

    /// The portable kernel's bitsliced context, built on first use.
    pub(crate) fn bits<'a>(&'a self, cell: &'a OnceLock<BitslicedAes>) -> &'a BitslicedAes {
        cell.get_or_init(|| BitslicedAes::from_schedule(self.aes.schedule()))
    }

    /// Transform `ivs.len()` equal-sized extents laid out back to back in
    /// `data`, the `i`-th under `ivs[i]`, in place, with this context's
    /// kernel (see [`crypt_extents`]).
    ///
    /// # Panics
    ///
    /// Panics if `data` does not divide evenly into `ivs.len()`
    /// block-aligned extents (an empty `ivs` requires an empty `data`);
    /// see [`extent_unit`].
    pub fn crypt(
        &self,
        mode: PageCipherMode,
        direction: Direction,
        ivs: &[[u8; 16]],
        data: &mut [u8],
    ) {
        match &self.kernel {
            // A lone CBC chain runs on the lane loop too: it keeps the
            // chain value in a register, where the per-block scalar call
            // stores and reloads it.
            #[cfg(target_arch = "x86_64")]
            HostKernel::AesNi(ni)
                if (mode, direction) == (PageCipherMode::Cbc, Direction::Encrypt) =>
            {
                cbc_encrypt_extents(&**ni, ivs, data);
            }
            #[cfg(target_arch = "x86_64")]
            HostKernel::AesNi(ni) => crypt_extents(&**ni, &**ni, mode, direction, ivs, data),
            HostKernel::Portable(cell) => {
                crypt_extents(&self.aes, self.bits(cell), mode, direction, ivs, data);
            }
        }
    }
}

/// The one mode dispatch: transform `ivs.len()` equal-sized extents laid
/// out back to back in `data`, the `i`-th under `ivs[i]` (its CBC IV, XTS
/// tweak, or initial CTR counter block), in place.
///
/// `scalar` runs the one serial chain that has nothing to batch against;
/// `batch` runs everything else. [`PageCipher`] on the portable kernel
/// passes its table-driven and bitsliced contexts, and on AES-NI passes
/// that kernel as both (and sends a lone CBC chain to its lane loop);
/// AES On SoC's tracked data path passes its store-bound kernel
/// ([`crate::tracked::InStore`]) as both.
///
/// | mode | direction | extents | kernel |
/// |------|-----------|---------|--------|
/// | CBC  | encrypt   | 1       | `scalar`'s chain ([`cbc_encrypt`]) |
/// | CBC  | encrypt   | ≥ 2     | `batch`'s lane loop, one chain per lane ([`cbc_encrypt_extents`]) |
/// | CBC  | decrypt   | any     | `batch`'s stream loop ([`cbc_decrypt_extents`]) |
/// | XTS  | both      | any     | `batch`'s stream loop, single-key XEX ([`xts_crypt_extents`]) |
/// | CTR  | both      | any     | `batch`'s stream loop ([`ctr_crypt_extents`]) |
///
/// The lane loop is [`BlockCipherBatch::encrypt_chains`] and the stream
/// loop [`BlockCipherBatch::crypt_stream`]. On the portable kernel
/// `batch` is the bitsliced context, which streams 32 blocks per call
/// with the whitening staged in scratch; on AES-NI it is the AES-NI
/// kernel, which keeps eight chains, or eight blocks and their
/// whitening, in registers; on AES On SoC it is the tracked kernel,
/// which runs the trait's default loops.
///
/// Every choice is byte-identical to running each extent on its own
/// through the scalar context.
///
/// # Panics
///
/// Panics if `data` does not divide evenly into `ivs.len()`
/// block-aligned extents (an empty `ivs` requires an empty `data`);
/// see [`extent_unit`].
pub fn crypt_extents(
    scalar: &impl BlockCipher,
    batch: &impl BlockCipherBatch,
    mode: PageCipherMode,
    direction: Direction,
    ivs: &[[u8; 16]],
    data: &mut [u8],
) {
    match (mode, direction, ivs) {
        (PageCipherMode::Cbc, Direction::Encrypt, [iv]) => cbc_encrypt(scalar, iv, data),
        (PageCipherMode::Cbc, Direction::Encrypt, _) => cbc_encrypt_extents(batch, ivs, data),
        (PageCipherMode::Cbc, Direction::Decrypt, _) => cbc_decrypt_extents(batch, ivs, data),
        // Single-key XEX: the tweak cipher is the data cipher, so a
        // backend that owns one keyed context runs XTS too.
        (PageCipherMode::Xts, _, _) => {
            xts_crypt_extents(batch, batch, direction == Direction::Encrypt, ivs, data);
        }
        (PageCipherMode::Ctr, _, _) => ctr_crypt_extents(batch, ivs, data),
    }
}

/// A single-block cipher, the building block for the modes below.
///
/// Implemented by both the fast and the reference AES so the modes can be
/// cross-checked between them.
pub trait BlockCipher {
    /// Encrypt one 16-byte block in place.
    fn encrypt_block(&self, block: &mut Block);
    /// Decrypt one 16-byte block in place.
    fn decrypt_block(&self, block: &mut Block);
}

impl BlockCipher for Aes {
    fn encrypt_block(&self, block: &mut Block) {
        Aes::encrypt_block(self, block);
    }
    fn decrypt_block(&self, block: &mut Block) {
        Aes::decrypt_block(self, block);
    }
}

impl BlockCipher for AesRef {
    fn encrypt_block(&self, block: &mut Block) {
        AesRef::encrypt_block(self, block);
    }
    fn decrypt_block(&self, block: &mut Block) {
        AesRef::decrypt_block(self, block);
    }
}

/// Assert that `data` is a whole number of blocks.
///
/// # Panics
///
/// Panics if `data.len()` is not a multiple of 16. Sentry only ever
/// encrypts page- and sector-sized buffers, so a partial block indicates a
/// logic error rather than a recoverable condition.
fn check_aligned(data: &[u8]) {
    assert!(
        data.len().is_multiple_of(BLOCK_SIZE),
        "buffer length {} is not a multiple of the AES block size",
        data.len()
    );
}

/// XOR `mask` into `block`.
pub(crate) fn xor_block(block: &mut Block, mask: &Block) {
    *block = (u128::from_ne_bytes(*block) ^ u128::from_ne_bytes(*mask)).to_ne_bytes();
}

/// Validate the extent layout every `*_extents` kernel shares and return
/// the unit size: `data` holds `ivs.len()` equal-sized, block-aligned
/// extents back to back. Empty `ivs` (and then empty `data`) gives 0.
///
/// # Panics
///
/// Panics if `data` does not divide evenly into `ivs.len()` block-aligned
/// extents (an empty `ivs` requires an empty `data`).
pub fn extent_unit(ivs: &[[u8; 16]], data: &[u8]) -> usize {
    if ivs.is_empty() {
        assert!(data.is_empty(), "extent data without IVs");
        return 0;
    }
    assert!(
        data.len().is_multiple_of(ivs.len()),
        "data does not divide into {} extents",
        ivs.len()
    );
    let unit = data.len() / ivs.len();
    check_aligned(&data[..unit]);
    unit
}

/// Encrypt `data` in place in CBC mode with the given initialization
/// vector: the one serial chain, for a single extent with nothing to
/// batch against.
///
/// # Panics
///
/// Panics if `data` is not block-aligned.
pub fn cbc_encrypt<C: BlockCipher>(cipher: &C, iv: &Block, data: &mut [u8]) {
    check_aligned(data);
    let mut chain = *iv;
    for block in data.as_chunks_mut::<BLOCK_SIZE>().0 {
        xor_block(block, &chain);
        cipher.encrypt_block(block);
        chain = *block;
    }
}

/// CBC-encrypt a run of consecutive equal-sized extents laid out
/// back-to-back in `data`, the `i`-th chained from `ivs[i]`.
///
/// A single CBC encryption chain is inherently serial — block `j` cannot
/// start until block `j-1` is done. But the extents are independent
/// chains, so block position `j` of up to
/// [`BlockCipherBatch::batch_width`] extents goes through one kernel call
/// ([`BlockCipherBatch::encrypt_chains`]), keeping all 16 bitsliced lanes
/// busy. This is what lets the pager's lock-time sweep and the lock path
/// feed the bitsliced backend 16 pages' chains at once. A scalar backend
/// (width 1) runs [`cbc_encrypt`] per extent instead. Byte-identical to
/// encrypting each extent separately, for every backend.
///
/// # Panics
///
/// Panics if `data` does not divide evenly into `ivs.len()` block-aligned
/// extents (an empty `ivs` requires an empty `data`).
pub fn cbc_encrypt_extents<C: BlockCipherBatch>(cipher: &C, ivs: &[[u8; 16]], data: &mut [u8]) {
    let unit = extent_unit(ivs, data);
    if unit == 0 {
        return;
    }
    if cipher.batch_width() <= 1 {
        for (iv, extent) in ivs.iter().zip(data.chunks_exact_mut(unit)) {
            cbc_encrypt(cipher, iv, extent);
        }
        return;
    }
    let blocks = unit / BLOCK_SIZE;
    let (all, _) = data.as_chunks_mut::<BLOCK_SIZE>();
    let mut chains = ivs.to_vec();
    // The chain value handed in for block `j` is ciphertext block `j-1`:
    // store it, then hand over plaintext block `j`.
    cipher.encrypt_chains(&mut chains, blocks, true, |i, j, prev| {
        let k = i * blocks + j;
        if j > 0 {
            all[k - 1] = *prev.expect("every block");
        }
        all[k]
    });
    // Each chain's final output is its last ciphertext block.
    for (extent, last) in all.chunks_exact_mut(blocks).zip(&chains) {
        extent[blocks - 1] = *last;
    }
}

/// Decrypt `data` in place in CBC mode with the given initialization
/// vector: [`cbc_decrypt_extents`] over one extent.
///
/// # Panics
///
/// Panics if `data` is not block-aligned.
pub fn cbc_decrypt<C: BlockCipherBatch>(cipher: &C, iv: &Block, data: &mut [u8]) {
    cbc_decrypt_extents(cipher, std::slice::from_ref(iv), data);
}

/// CBC-decrypt a run of consecutive equal-sized extents laid out
/// back-to-back in `data`, the `i`-th chained from `ivs[i]`.
///
/// CBC decryption is data-parallel — `pt[i] = D(ct[i]) ^ ct[i-1]` needs
/// only a ciphertext block and its predecessor (or, at an extent head,
/// that extent's IV) — so the run is one stream
/// ([`BlockCipherBatch::crypt_stream`] with [`Stream::CbcDecrypt`]) that
/// crosses extent boundaries with no pipeline drain: a 512-byte dm-crypt
/// sector is 32 blocks, but a 4 KiB buffer cache block is 8 sectors
/// decrypted here as one 256-block stream. Byte-identical to the serial
/// formulation over each extent, for every backend.
///
/// # Panics
///
/// Panics if `data` does not divide evenly into `ivs.len()` block-aligned
/// extents (an empty `ivs` requires an empty `data`).
pub fn cbc_decrypt_extents<C: BlockCipherBatch>(cipher: &C, ivs: &[[u8; 16]], data: &mut [u8]) {
    extent_unit(ivs, data);
    cipher.crypt_stream(Stream::CbcDecrypt, ivs, data.as_chunks_mut().0);
}

/// Multiply an element of GF(2^128) by `x` (the XTS tweak step), using
/// the IEEE P1619 convention: byte 0 holds the lowest-order coefficients,
/// so the tweak block read as a little-endian `u128` is the polynomial.
/// The carry shifts out of byte 15's MSB and the reduction polynomial
/// `x^128 + x^7 + x^2 + x + 1` feeds back as `0x87` into byte 0.
pub(crate) fn xts_mul_alpha(t: u128) -> u128 {
    (t << 1) ^ ((t >> 127) * 0x87)
}

/// Encrypt `data` in place in XTS mode (IEEE P1619):
/// [`xts_crypt_extents`] over one extent.
///
/// `tweak` is the data unit's 16-byte tweak value (Sentry: the page IV;
/// dm-crypt: the sector IV), encrypted once under `tweak_cipher` to seed
/// the per-block GF(2^128) doubling chain. IEEE P1619 splits the key as
/// K1 ∥ K2 with independent schedules for data and tweak; Sentry's
/// engines pass the same cipher for both (XEX-style single-key XTS), so
/// the tracked full-simulation path — which owns exactly one keyed
/// context — stays byte-identical to the fast path.
///
/// # Panics
///
/// Panics if `data` is not block-aligned.
pub fn xts_encrypt<C: BlockCipherBatch>(
    cipher: &C,
    tweak_cipher: &impl BlockCipherBatch,
    tweak: &[u8; 16],
    data: &mut [u8],
) {
    xts_crypt_extents(
        cipher,
        tweak_cipher,
        true,
        std::slice::from_ref(tweak),
        data,
    );
}

/// Decrypt `data` in place in XTS mode. See [`xts_encrypt`]; the tweak
/// chain always uses the *encrypt* direction of `tweak_cipher`.
///
/// # Panics
///
/// Panics if `data` is not block-aligned.
pub fn xts_decrypt<C: BlockCipherBatch>(
    cipher: &C,
    tweak_cipher: &impl BlockCipherBatch,
    tweak: &[u8; 16],
    data: &mut [u8],
) {
    xts_crypt_extents(
        cipher,
        tweak_cipher,
        false,
        std::slice::from_ref(tweak),
        data,
    );
}

/// XTS over a run of consecutive equal-sized extents laid out
/// back-to-back in `data`, the `i`-th tweaked from `ivs[i]`; `encrypt`
/// picks the direction (the tweak chain is direction-agnostic).
///
/// The per-extent tweak bases are encrypted as one batched call; the
/// GF(2^128) tweak chain after them is serial but cipher-free (a shift
/// and a conditional XOR per block). Every block of every extent is then
/// independent, so the run is one stream
/// ([`BlockCipherBatch::crypt_stream`] with [`Stream::Xts`]) with no
/// pipeline drain at extent boundaries — a 512-byte dm-crypt sector is
/// only 32 blocks, but 8 sectors of a 4 KiB buffer cache block run here
/// as one 256-block stream. Byte-identical to ciphering each extent
/// separately.
///
/// # Panics
///
/// Panics if `data` does not divide evenly into `ivs.len()` block-aligned
/// extents (an empty `ivs` requires an empty `data`).
pub fn xts_crypt_extents<C: BlockCipherBatch>(
    cipher: &C,
    tweak_cipher: &impl BlockCipherBatch,
    encrypt: bool,
    ivs: &[[u8; 16]],
    data: &mut [u8],
) {
    if extent_unit(ivs, data) == 0 {
        return;
    }
    let mut bases: Vec<Block> = ivs.to_vec();
    tweak_cipher.encrypt_blocks(&mut bases);
    cipher.crypt_stream(Stream::Xts { encrypt }, &bases, data.as_chunks_mut().0);
}

/// Encrypt or decrypt `data` in place in CTR mode, treating the full
/// 16-byte `iv` as the initial counter block (incremented big-endian per
/// block, as in NIST SP 800-38A). The operations are identical.
///
/// This is the page-mode CTR driver: Sentry passes the same page IV
/// (`sentry_core::transition::page_iv`) it uses as the CBC IV and XTS
/// tweak, so the epoch discipline that prevents IV reuse across lock
/// cycles carries over unchanged. The whole blocks are
/// [`ctr_crypt_extents`] over one extent; a ragged 1–15-byte tail after
/// `n` whole blocks takes one more keystream block, at counter `iv + n`.
pub fn ctr_crypt<C: BlockCipherBatch>(cipher: &C, iv: &[u8; 16], data: &mut [u8]) {
    let whole = data.len() - data.len() % BLOCK_SIZE;
    let (body, tail) = data.split_at_mut(whole);
    ctr_crypt_extents(cipher, std::slice::from_ref(iv), body);
    if !tail.is_empty() {
        let counter = u128::from_be_bytes(*iv).wrapping_add((whole / BLOCK_SIZE) as u128);
        let mut ks = [counter.to_be_bytes()];
        cipher.encrypt_blocks(&mut ks);
        for (b, k) in tail.iter_mut().zip(ks[0]) {
            *b ^= k;
        }
    }
}

/// CTR over a run of consecutive equal-sized extents laid out
/// back-to-back in `data`, the `i`-th counting from `ivs[i]`
/// (encrypt and decrypt are the same operation).
///
/// The counter is the full 16-byte block read big-endian and incremented
/// over all 128 bits, wrapping at 2^128 (the NIST SP 800-38A standard
/// incrementing function). Keystream blocks are independent, so like
/// [`xts_crypt_extents`] the whole run is one stream
/// ([`BlockCipherBatch::crypt_stream`] with [`Stream::Ctr`]) with no
/// drain at extent boundaries. Byte-identical to calling [`ctr_crypt`]
/// on each extent separately.
///
/// # Panics
///
/// Panics if `data` does not divide evenly into `ivs.len()` block-aligned
/// extents (an empty `ivs` requires an empty `data`).
pub fn ctr_crypt_extents<C: BlockCipherBatch>(cipher: &C, ivs: &[[u8; 16]], data: &mut [u8]) {
    extent_unit(ivs, data);
    cipher.crypt_stream(Stream::Ctr, ivs, data.as_chunks_mut().0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Aes;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn cbc_matches_nist_sp800_38a_f2_1() {
        // NIST SP 800-38A F.2.1 CBC-AES128 encryption vectors.
        let key = hex("2b7e151628aed2a6abf7158809cf4f3c");
        let iv: Block = hex("000102030405060708090a0b0c0d0e0f").try_into().unwrap();
        let mut data = hex(concat!(
            "6bc1bee22e409f96e93d7e117393172a",
            "ae2d8a571e03ac9c9eb76fac45af8e51",
            "30c81c46a35ce411e5fbc1191a0a52ef",
            "f69f2445df4f9b17ad2b417be66c3710",
        ));
        let expected = hex(concat!(
            "7649abac8119b246cee98e9b12e9197d",
            "5086cb9b507219ee95db113a917678b2",
            "73bed6b8e3c1743b7116e69e22229516",
            "3ff1caa1681fac09120eca307586e1a7",
        ));
        let aes = Aes::new(&key).unwrap();
        cbc_encrypt(&aes, &iv, &mut data);
        assert_eq!(data, expected);
        cbc_decrypt(&aes, &iv, &mut data);
        assert_eq!(&data[..16], &hex("6bc1bee22e409f96e93d7e117393172a")[..]);

        // The bitsliced backend against the same published vectors.
        let bits = crate::bitslice::BitslicedAes::new(&key).unwrap();
        cbc_encrypt(&bits, &iv, &mut data);
        assert_eq!(data, expected);
        cbc_decrypt(&bits, &iv, &mut data);
        assert_eq!(&data[..16], &hex("6bc1bee22e409f96e93d7e117393172a")[..]);
    }

    #[test]
    fn cbc_hides_equal_blocks() {
        let aes = Aes::new(&[7u8; 16]).unwrap();
        let iv = [3u8; 16];
        let mut data = vec![0xABu8; 64];
        cbc_encrypt(&aes, &iv, &mut data);
        assert_ne!(&data[0..16], &data[16..32]);
    }

    #[test]
    fn ctr_handles_partial_blocks() {
        let aes = Aes::new(&[9u8; 16]).unwrap();
        let mut data = vec![0x5Au8; 21];
        let orig = data.clone();
        ctr_crypt(&aes, &[0u8; 16], &mut data);
        assert_ne!(data, orig);
        ctr_crypt(&aes, &[0u8; 16], &mut data);
        assert_eq!(data, orig);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn cbc_rejects_unaligned() {
        let aes = Aes::new(&[0u8; 16]).unwrap();
        let mut data = vec![0u8; 17];
        cbc_encrypt(&aes, &[0u8; 16], &mut data);
    }

    #[test]
    fn batched_modes_agree_across_backends() {
        use crate::bitslice::BitslicedAes;
        let key = [0x51u8; 16];
        let table = Aes::new(&key).unwrap();
        let reference = AesRef::new(&key).unwrap();
        let bitsliced = BitslicedAes::new(&key).unwrap();
        let iv = [0xA5u8; 16];
        // Lengths exercising full batches, odd tails, and sub-batch sizes.
        for nblocks in [1usize, 2, 7, 16, 31, 32, 33, 256] {
            let pt: Vec<u8> = (0..nblocks * BLOCK_SIZE).map(|i| (i * 31) as u8).collect();
            let mut ct = pt.clone();
            cbc_encrypt(&table, &iv, &mut ct);
            for (name, run) in [
                ("table", &mut {
                    let mut d = ct.clone();
                    cbc_decrypt(&table, &iv, &mut d);
                    d
                }),
                ("reference", &mut {
                    let mut d = ct.clone();
                    cbc_decrypt(&reference, &iv, &mut d);
                    d
                }),
                ("bitsliced", &mut {
                    let mut d = ct.clone();
                    cbc_decrypt(&bitsliced, &iv, &mut d);
                    d
                }),
            ] {
                assert_eq!(*run, pt, "cbc_decrypt[{name}] {nblocks} blocks");
            }
            // CTR: all backends must emit the same stream, including a
            // ragged tail.
            let mut a = pt.clone();
            a.truncate(nblocks * BLOCK_SIZE - 5);
            let mut b = a.clone();
            let mut c = a.clone();
            ctr_crypt(&table, &[9u8; 16], &mut a);
            ctr_crypt(&reference, &[9u8; 16], &mut b);
            ctr_crypt(&bitsliced, &[9u8; 16], &mut c);
            assert_eq!(a, b, "ctr table vs reference, {nblocks} blocks");
            assert_eq!(a, c, "ctr table vs bitsliced, {nblocks} blocks");
        }
    }

    #[test]
    fn extent_decrypt_matches_per_extent_decrypt() {
        use crate::bitslice::BitslicedAes;
        let key = [0x33u8; 32];
        let table = Aes::new(&key).unwrap();
        let bitsliced = BitslicedAes::from_schedule(table.schedule());
        // Unit sizes exercising sub-batch extents (1 and 2 blocks), the
        // dm-crypt sector (32 blocks), and units that straddle the
        // default stream loop's 32-block scratch chunks (3 blocks does).
        for (unit_blocks, units) in [(1usize, 5usize), (2, 9), (3, 23), (32, 8), (48, 3)] {
            let unit = unit_blocks * BLOCK_SIZE;
            let ivs: Vec<[u8; 16]> = (0..units).map(|i| [(i * 29 + 1) as u8; 16]).collect();
            let pt: Vec<u8> = (0..units * unit).map(|i| (i * 13 + 7) as u8).collect();
            let mut ct = pt.clone();
            for (iv, chunk) in ivs.iter().zip(ct.chunks_exact_mut(unit)) {
                cbc_encrypt(&table, iv, chunk);
            }
            for backend in ["table", "bitsliced"] {
                let mut got = ct.clone();
                match backend {
                    "table" => cbc_decrypt_extents(&table, &ivs, &mut got),
                    _ => cbc_decrypt_extents(&bitsliced, &ivs, &mut got),
                }
                assert_eq!(
                    got, pt,
                    "{backend}: {units} extents of {unit_blocks} blocks"
                );
            }
        }
        // Degenerate case: no extents.
        cbc_decrypt_extents(&table, &[], &mut []);
    }

    #[test]
    fn extent_encrypt_matches_per_extent_encrypt() {
        use crate::bitslice::BitslicedAes;
        let key = [0x44u8; 32];
        let table = Aes::new(&key).unwrap();
        let reference = AesRef::new(&key).unwrap();
        let bitsliced = BitslicedAes::from_schedule(table.schedule());
        // Extent counts below, at, and above the 16-lane batch width, and
        // unit sizes from one block up to a 4 KiB page.
        for (unit_blocks, units) in [(1usize, 3usize), (2, 16), (4, 17), (32, 33), (256, 5)] {
            let unit = unit_blocks * BLOCK_SIZE;
            let ivs: Vec<[u8; 16]> = (0..units).map(|i| [(i * 41 + 3) as u8; 16]).collect();
            let pt: Vec<u8> = (0..units * unit).map(|i| (i * 11 + 5) as u8).collect();
            let mut expect = pt.clone();
            for (iv, chunk) in ivs.iter().zip(expect.chunks_exact_mut(unit)) {
                cbc_encrypt(&table, iv, chunk);
            }
            for backend in ["table", "reference", "bitsliced"] {
                let mut got = pt.clone();
                match backend {
                    "table" => cbc_encrypt_extents(&table, &ivs, &mut got),
                    "reference" => cbc_encrypt_extents(&reference, &ivs, &mut got),
                    _ => cbc_encrypt_extents(&bitsliced, &ivs, &mut got),
                }
                assert_eq!(
                    got, expect,
                    "{backend}: {units} extents of {unit_blocks} blocks"
                );
            }
        }
        // Degenerate case: no extents.
        cbc_encrypt_extents(&table, &[], &mut []);
    }

    #[test]
    fn modes_agree_between_fast_and_reference() {
        let key = [0x42u8; 24];
        let fast = Aes::new(&key).unwrap();
        let reference = AesRef::new(&key).unwrap();
        let iv = [0x17u8; 16];
        let mut a = (0..96u8).collect::<Vec<_>>();
        let mut b = a.clone();
        cbc_encrypt(&fast, &iv, &mut a);
        cbc_encrypt(&reference, &iv, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn xts_mul_alpha_matches_p1619_convention() {
        let double = |t: [u8; 16]| xts_mul_alpha(u128::from_le_bytes(t)).to_le_bytes();
        // x * 1 = x: bit 1 of byte 0.
        let mut t = [0u8; 16];
        t[0] = 1;
        assert_eq!(double(t)[0], 2);
        // Carry out of byte 15's MSB reduces with 0x87 into byte 0.
        let mut t = [0u8; 16];
        t[15] = 0x80;
        let mut expect = [0u8; 16];
        expect[0] = 0x87;
        assert_eq!(double(t), expect);
        // Cross-byte carry: byte 0's MSB moves into byte 1's LSB.
        let mut t = [0u8; 16];
        t[0] = 0x80;
        let t = double(t);
        assert_eq!(t[0], 0);
        assert_eq!(t[1], 1);
    }

    #[test]
    fn xts_matches_ieee_p1619_vector_1() {
        // IEEE P1619 XTS-AES-128 Vector 1: all-zero keys, tweak 0,
        // 32 zero bytes of plaintext.
        let k1 = [0u8; 16];
        let k2 = [0u8; 16];
        let data_cipher = Aes::new(&k1).unwrap();
        let tweak_cipher = Aes::new(&k2).unwrap();
        let tweak = [0u8; 16];
        let mut data = vec![0u8; 32];
        let expected = hex(concat!(
            "917cf69ebd68b2ec9b9fe9a3eadda692",
            "cd43d2f59598ed858c02c2652fbf922e",
        ));
        xts_encrypt(&data_cipher, &tweak_cipher, &tweak, &mut data);
        assert_eq!(data, expected);
        xts_decrypt(&data_cipher, &tweak_cipher, &tweak, &mut data);
        assert_eq!(data, vec![0u8; 32]);

        // Same vector through the bitsliced backend.
        let bits = crate::bitslice::BitslicedAes::new(&k1).unwrap();
        let mut data = vec![0u8; 32];
        xts_encrypt(&bits, &tweak_cipher, &tweak, &mut data);
        assert_eq!(data, expected);
        xts_decrypt(&bits, &tweak_cipher, &tweak, &mut data);
        assert_eq!(data, vec![0u8; 32]);
    }

    #[test]
    fn xts_matches_ieee_p1619_vector_2() {
        // IEEE P1619 XTS-AES-128 Vector 2: distinct keys, nonzero tweak.
        let k1 = hex("11111111111111111111111111111111");
        let k2 = hex("22222222222222222222222222222222");
        let data_cipher = Aes::new(&k1).unwrap();
        let tweak_cipher = Aes::new(&k2).unwrap();
        let tweak: [u8; 16] = hex("33333333330000000000000000000000").try_into().unwrap();
        let mut data = vec![0x44u8; 32];
        let expected = hex(concat!(
            "c454185e6a16936e39334038acef838b",
            "fb186fff7480adc4289382ecd6d394f0",
        ));
        xts_encrypt(&data_cipher, &tweak_cipher, &tweak, &mut data);
        assert_eq!(data, expected);
        xts_decrypt(&data_cipher, &tweak_cipher, &tweak, &mut data);
        assert_eq!(data, vec![0x44u8; 32]);

        let bits = crate::bitslice::BitslicedAes::new(&k1).unwrap();
        let bits_tweak = crate::bitslice::BitslicedAes::new(&k2).unwrap();
        let mut data = vec![0x44u8; 32];
        xts_encrypt(&bits, &bits_tweak, &tweak, &mut data);
        assert_eq!(data, expected);
    }

    #[test]
    fn ctr_crypt_matches_nist_sp800_38a_f5_1() {
        // NIST SP 800-38A F.5.1 CTR-AES128, full 16-byte counter block.
        let key = hex("2b7e151628aed2a6abf7158809cf4f3c");
        let iv: [u8; 16] = hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff").try_into().unwrap();
        let mut data = hex(concat!(
            "6bc1bee22e409f96e93d7e117393172a",
            "ae2d8a571e03ac9c9eb76fac45af8e51",
            "30c81c46a35ce411e5fbc1191a0a52ef",
            "f69f2445df4f9b17ad2b417be66c3710",
        ));
        let expected = hex(concat!(
            "874d6191b620e3261bef6864990db6ce",
            "9806f66b7970fdff8617187bb9fffdff",
            "5ae4df3edbd5d35e5b4f09020db03eab",
            "1e031dda2fbe03d1792170a0f3009cee",
        ));
        let aes = Aes::new(&key).unwrap();
        let pt = data.clone();
        ctr_crypt(&aes, &iv, &mut data);
        assert_eq!(data, expected);
        ctr_crypt(&aes, &iv, &mut data);
        assert_eq!(data, pt);

        let bits = crate::bitslice::BitslicedAes::new(&key).unwrap();
        let mut data = pt.clone();
        ctr_crypt(&bits, &iv, &mut data);
        assert_eq!(data, expected);
    }

    #[test]
    fn ctr_crypt_carries_across_counter_byte_boundaries() {
        // An IV whose low bytes are near-overflow exercises the 128-bit
        // big-endian carry; both backends must agree.
        let key = [0x21u8; 16];
        let aes = Aes::new(&key).unwrap();
        let bits = crate::bitslice::BitslicedAes::from_schedule(aes.schedule());
        let mut iv = [0xFFu8; 16];
        iv[0] = 0x01;
        let pt: Vec<u8> = (0..20 * BLOCK_SIZE).map(|i| (i * 7) as u8).collect();
        let mut a = pt.clone();
        let mut b = pt.clone();
        ctr_crypt(&aes, &iv, &mut a);
        ctr_crypt(&bits, &iv, &mut b);
        assert_eq!(a, b);
        assert_ne!(a, pt);
        ctr_crypt(&aes, &iv, &mut a);
        assert_eq!(a, pt);
    }

    #[test]
    fn xts_roundtrips_across_backends_and_lengths() {
        let key = [0x7Eu8; 32];
        let table = Aes::new(&key).unwrap();
        let reference = AesRef::new(&key).unwrap();
        let bits = crate::bitslice::BitslicedAes::from_schedule(table.schedule());
        let tweak = [0x5Cu8; 16];
        // Single-key (XEX-style) XTS, as the Sentry engines run it.
        for nblocks in [1usize, 2, 15, 16, 31, 32, 33, 256] {
            let pt: Vec<u8> = (0..nblocks * BLOCK_SIZE).map(|i| (i * 13) as u8).collect();
            let mut ct = pt.clone();
            xts_encrypt(&table, &table, &tweak, &mut ct);
            assert_ne!(ct, pt);
            let mut r = ct.clone();
            xts_decrypt(&reference, &reference, &tweak, &mut r);
            assert_eq!(r, pt, "reference decrypts table output, {nblocks} blocks");
            let mut b = ct.clone();
            xts_decrypt(&bits, &bits, &tweak, &mut b);
            assert_eq!(b, pt, "bitsliced decrypts table output, {nblocks} blocks");
            // And each backend encrypts identically.
            let mut e = pt.clone();
            xts_encrypt(&bits, &bits, &tweak, &mut e);
            assert_eq!(e, ct, "bitsliced encrypt, {nblocks} blocks");
        }
    }

    #[test]
    fn xts_hides_equal_blocks_and_binds_the_tweak() {
        let aes = Aes::new(&[0x09u8; 16]).unwrap();
        let mut data = vec![0xABu8; 64];
        xts_encrypt(&aes, &aes, &[1u8; 16], &mut data);
        assert_ne!(&data[0..16], &data[16..32], "tweak chain hides structure");
        // Decrypting under a different tweak must not recover plaintext.
        let mut wrong = data.clone();
        xts_decrypt(&aes, &aes, &[2u8; 16], &mut wrong);
        assert_ne!(wrong, vec![0xABu8; 64]);
        xts_decrypt(&aes, &aes, &[1u8; 16], &mut data);
        assert_eq!(data, vec![0xABu8; 64]);
    }

    #[test]
    fn xts_extents_match_per_extent() {
        let key = [0x61u8; 16];
        let table = Aes::new(&key).unwrap();
        let bits = crate::bitslice::BitslicedAes::from_schedule(table.schedule());
        // Unit sizes exercising sub-batch extents, the dm-crypt sector
        // (32 blocks), and units straddling scratch-chunk boundaries.
        for (unit_blocks, units) in [(1usize, 5usize), (2, 9), (3, 23), (32, 8), (256, 3)] {
            let unit = unit_blocks * BLOCK_SIZE;
            let ivs: Vec<[u8; 16]> = (0..units).map(|i| [(i * 29 + 1) as u8; 16]).collect();
            let pt: Vec<u8> = (0..units * unit).map(|i| (i * 13 + 7) as u8).collect();
            let mut expect = pt.clone();
            for (iv, chunk) in ivs.iter().zip(expect.chunks_exact_mut(unit)) {
                xts_encrypt(&table, &table, iv, chunk);
            }
            for backend in ["table", "bitsliced"] {
                let mut got = pt.clone();
                match backend {
                    "table" => xts_crypt_extents(&table, &table, true, &ivs, &mut got),
                    _ => xts_crypt_extents(&bits, &bits, true, &ivs, &mut got),
                }
                assert_eq!(
                    got, expect,
                    "{backend} encrypt: {units} extents of {unit_blocks} blocks"
                );
                match backend {
                    "table" => xts_crypt_extents(&table, &table, false, &ivs, &mut got),
                    _ => xts_crypt_extents(&bits, &bits, false, &ivs, &mut got),
                }
                assert_eq!(
                    got, pt,
                    "{backend} decrypt: {units} extents of {unit_blocks} blocks"
                );
            }
        }
        // Degenerate case: no extents.
        xts_crypt_extents(&table, &table, true, &[], &mut []);
    }

    #[test]
    fn ctr_extents_match_per_extent() {
        let key = [0x73u8; 24];
        let table = Aes::new(&key).unwrap();
        let bits = crate::bitslice::BitslicedAes::from_schedule(table.schedule());
        for (unit_blocks, units) in [(1usize, 5usize), (3, 23), (32, 8), (256, 3)] {
            let unit = unit_blocks * BLOCK_SIZE;
            let ivs: Vec<[u8; 16]> = (0..units).map(|i| [(i * 43 + 5) as u8; 16]).collect();
            let pt: Vec<u8> = (0..units * unit).map(|i| (i * 17 + 3) as u8).collect();
            let mut expect = pt.clone();
            for (iv, chunk) in ivs.iter().zip(expect.chunks_exact_mut(unit)) {
                ctr_crypt(&table, iv, chunk);
            }
            for backend in ["table", "bitsliced"] {
                let mut got = pt.clone();
                match backend {
                    "table" => ctr_crypt_extents(&table, &ivs, &mut got),
                    _ => ctr_crypt_extents(&bits, &ivs, &mut got),
                }
                assert_eq!(
                    got, expect,
                    "{backend}: {units} extents of {unit_blocks} blocks"
                );
            }
        }
        ctr_crypt_extents(&table, &[], &mut []);
    }

    #[test]
    fn page_cipher_mode_names_and_chaining() {
        assert_eq!(PageCipherMode::default(), PageCipherMode::Cbc);
        assert_eq!(PageCipherMode::Cbc.to_string(), "cbc");
        assert_eq!(PageCipherMode::Xts.to_string(), "xts");
        assert_eq!(PageCipherMode::Ctr.to_string(), "ctr");
        assert!(PageCipherMode::Cbc.is_chaining());
        assert!(!PageCipherMode::Xts.is_chaining());
        assert!(!PageCipherMode::Ctr.is_chaining());
        assert_eq!(PageCipherMode::all().len(), 3);
    }
}
