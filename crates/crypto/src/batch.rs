//! Batched multi-block cipher interface.
//!
//! The paper's throughput-critical paths never encrypt one block at a
//! time: the pager moves 4 KiB pages (256 blocks), dm-crypt moves 512-byte
//! sectors (32 blocks), and the lock/unlock engine moves whole working
//! sets. [`BlockCipherBatch`] exposes that batch shape to the cipher so a
//! backend may amortize work across blocks — the bitsliced backend
//! ([`crate::bitslice::BitslicedAes`]) packs `PAR_BLOCKS` blocks into
//! bit planes and pays its pack/unpack cost once per batch.
//!
//! The scalar contexts implement the trait by looping, which keeps every
//! mode byte-identical across backends: a batch is *defined* as the
//! concatenation of independent single-block operations (chaining
//! belongs to [`crate::modes`] and to the two loops a backend may
//! specialize: the lane loop [`BlockCipherBatch::encrypt_chains`] and
//! the stream loop [`BlockCipherBatch::crypt_stream`]).

use crate::bitslice::{BitslicedAes, PAR_BLOCKS};
use crate::block::{Aes, AesRef, Block};
use crate::modes::{xor_block, xts_mul_alpha, BlockCipher};
use crate::BLOCK_SIZE;

/// Blocks per kernel call of the default stream loop: two bitsliced
/// batches, so the scratch stays on the stack (512 bytes).
const SCRATCH_BLOCKS: usize = 2 * PAR_BLOCKS;

/// The stream modes: each block of a run of extents is ciphered on its
/// own, between whitening XORs that depend only on the block's position
/// in its extent and the extent's start block (see
/// [`BlockCipherBatch::crypt_stream`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// XTS: the block is XORed with its tweak, enciphered (or
    /// deciphered), and XORed with the tweak again. The start block is
    /// the extent's encrypted tweak; each later tweak doubles the one
    /// before in GF(2^128).
    Xts {
        /// The cipher direction.
        encrypt: bool,
    },
    /// CTR: the block is XORed with the encryption of its counter block.
    /// The start block is the extent's first counter, read big-endian
    /// and incremented over all 128 bits.
    Ctr,
    /// CBC decryption: the block is deciphered and XORed with the
    /// ciphertext block before it, or with the start block (the
    /// extent's IV) at the extent's head.
    CbcDecrypt,
}

/// A stream's whitening, one block at a time: the extent heads, where
/// it restarts from the extent's start block, and the tweak or counter
/// it carries between them. The tweaks and counters come out as the
/// `u128` whose little-endian bytes are the block.
pub(crate) struct Whitening<'a> {
    starts: std::slice::Iter<'a, Block>,
    per_extent: usize,
    /// Blocks left in the current extent.
    left: usize,
    /// The tweak or counter of the next block.
    value: u128,
}

impl<'a> Whitening<'a> {
    /// The whitening of `blocks` blocks split evenly among
    /// `starts.len()` extents.
    pub(crate) fn new(starts: &'a [Block], blocks: usize) -> Whitening<'a> {
        Whitening {
            starts: starts.iter(),
            per_extent: blocks.checked_div(starts.len()).unwrap_or(0),
            left: 0,
            value: 0,
        }
    }

    /// Step one block: its extent's start block if it is the extent's
    /// head. A CBC stream needs only this.
    #[inline]
    pub(crate) fn next_head(&mut self) -> Option<&'a Block> {
        if self.left == 0 {
            self.left = self.per_extent - 1;
            self.starts.next()
        } else {
            self.left -= 1;
            None
        }
    }

    /// Step one block of an XTS stream: its tweak. The tweak read
    /// little-endian is the GF(2^128) element (IEEE P1619).
    #[inline]
    pub(crate) fn next_tweak(&mut self) -> u128 {
        if let Some(start) = self.next_head() {
            self.value = u128::from_le_bytes(*start);
        }
        let tweak = self.value;
        self.value = xts_mul_alpha(tweak);
        tweak
    }

    /// Step one block of a CTR stream: its counter block, which read
    /// big-endian is the counter.
    #[inline]
    pub(crate) fn next_counter(&mut self) -> u128 {
        if let Some(start) = self.next_head() {
            self.value = u128::from_be_bytes(*start);
        }
        let counter = self.value;
        self.value = counter.wrapping_add(1);
        counter.swap_bytes()
    }
}

/// A cipher that can encrypt or decrypt many independent blocks per call.
///
/// Implementations must produce output byte-identical to applying
/// [`BlockCipher::encrypt_block`] / [`BlockCipher::decrypt_block`] to each
/// block in order; callers may therefore pick whichever backend is fastest
/// without changing ciphertext.
pub trait BlockCipherBatch: BlockCipher {
    /// Encrypt every block in place (independent blocks, no chaining).
    fn encrypt_blocks(&self, blocks: &mut [Block]);

    /// Decrypt every block in place (independent blocks, no chaining).
    fn decrypt_blocks(&self, blocks: &mut [Block]);

    /// The batch size at which the backend reaches peak throughput.
    /// Callers sizing scratch buffers should round up to a multiple of
    /// this; `1` means the backend is inherently scalar.
    fn batch_width(&self) -> usize {
        1
    }

    /// The lane loop under every batch of independent CBC-style chains:
    /// [`crate::modes::cbc_encrypt_extents`] and the multi-message CMAC
    /// ([`crate::mac::Cmac::mac_extents`]).
    ///
    /// Every chain runs `blocks` blocks; chain `i` starts from
    /// `chains[i]`, and its block `j` enciphers the chain value XOR
    /// `feed(i, j, prev)`, the chain's message block `j`. `prev` is the
    /// chain value entering block `j` (the start value, or block `j - 1`'s
    /// output) when `every_block` is set, and `None` otherwise. On return
    /// `chains[i]` holds chain `i`'s last output block.
    ///
    /// Block position `j` of up to [`BlockCipherBatch::batch_width`]
    /// chains goes through one [`BlockCipherBatch::encrypt_blocks`] call.
    /// The tracked (AES On SoC) kernels run this default, whose per-step
    /// kernel calls are what their store trace charges. The AES-NI kernel
    /// overrides it to keep up to eight chains in registers from the
    /// first block to the last, and the bitsliced context (the portable
    /// fallback's lanes) to keep them in bit planes between steps.
    fn encrypt_chains<F>(&self, chains: &mut [Block], blocks: usize, every_block: bool, mut feed: F)
    where
        F: FnMut(usize, usize, Option<&Block>) -> Block,
        Self: Sized,
    {
        let width = self.batch_width().clamp(1, 2 * PAR_BLOCKS);
        let mut scratch = [[0u8; BLOCK_SIZE]; 2 * PAR_BLOCKS];
        for (g, group) in chains.chunks_mut(width).enumerate() {
            let n = group.len();
            for j in 0..blocks {
                for (lane, (s, chain)) in scratch.iter_mut().zip(group.iter()).enumerate() {
                    *s = feed(g * width + lane, j, every_block.then_some(chain));
                    xor_block(s, chain);
                }
                self.encrypt_blocks(&mut scratch[..n]);
                group.copy_from_slice(&scratch[..n]);
            }
        }
    }

    /// The stream loop under [`crate::modes::xts_crypt_extents`],
    /// [`crate::modes::ctr_crypt_extents`] and
    /// [`crate::modes::cbc_decrypt_extents`]: transform `blocks` in place
    /// as `starts.len()` equal-sized extents back to back, extent `i`
    /// whitened from `starts[i]` as `stream` says.
    ///
    /// Every block is independent once its whitening is known, so the
    /// stream runs across extent boundaries with no drain. The blocks go
    /// through the kernel 32 at a time (`SCRATCH_BLOCKS`), their tweaks,
    /// counters or chaining blocks staged in scratch beside them. The
    /// tracked (AES On SoC) kernels run this default, whose kernel calls
    /// are what their store trace charges, as does the bitsliced context.
    /// The AES-NI kernel overrides it to whiten eight registers (8 or 16
    /// blocks) at a time around the rounds.
    ///
    /// `blocks.len()` must be a multiple of `starts.len()`; the mode
    /// functions check it ([`crate::modes::extent_unit`]) before they
    /// call.
    fn crypt_stream(&self, stream: Stream, starts: &[Block], blocks: &mut [Block]) {
        // `mask[i]` whitens chunk block `i`; under CBC `mask[n]` carries
        // the chunk's last ciphertext block into the next chunk.
        let mut mask = [[0u8; BLOCK_SIZE]; SCRATCH_BLOCKS + 1];
        let mut whitening = Whitening::new(starts, blocks.len());
        for chunk in blocks.chunks_mut(SCRATCH_BLOCKS) {
            let n = chunk.len();
            match stream {
                Stream::Xts { encrypt } => {
                    for (block, m) in chunk.iter_mut().zip(&mut mask) {
                        *m = whitening.next_tweak().to_le_bytes();
                        xor_block(block, m);
                    }
                    if encrypt {
                        self.encrypt_blocks(chunk);
                    } else {
                        self.decrypt_blocks(chunk);
                    }
                }
                Stream::Ctr => {
                    for m in &mut mask[..n] {
                        *m = whitening.next_counter().to_le_bytes();
                    }
                    self.encrypt_blocks(&mut mask[..n]);
                }
                Stream::CbcDecrypt => {
                    mask[1..=n].copy_from_slice(chunk);
                    for m in &mut mask[..n] {
                        if let Some(iv) = whitening.next_head() {
                            *m = *iv;
                        }
                    }
                    self.decrypt_blocks(chunk);
                }
            }
            for (block, m) in chunk.iter_mut().zip(&mask) {
                xor_block(block, m);
            }
            mask[0] = mask[n];
        }
    }
}

impl BlockCipherBatch for Aes {
    fn encrypt_blocks(&self, blocks: &mut [Block]) {
        for block in blocks {
            self.encrypt_block(block);
        }
    }

    fn decrypt_blocks(&self, blocks: &mut [Block]) {
        for block in blocks {
            self.decrypt_block(block);
        }
    }
}

impl BlockCipherBatch for AesRef {
    fn encrypt_blocks(&self, blocks: &mut [Block]) {
        for block in blocks {
            self.encrypt_block(block);
        }
    }

    fn decrypt_blocks(&self, blocks: &mut [Block]) {
        for block in blocks {
            self.decrypt_block(block);
        }
    }
}

impl BlockCipherBatch for BitslicedAes {
    fn encrypt_blocks(&self, blocks: &mut [Block]) {
        BitslicedAes::encrypt_blocks(self, blocks);
    }

    fn decrypt_blocks(&self, blocks: &mut [Block]) {
        BitslicedAes::decrypt_blocks(self, blocks);
    }

    fn batch_width(&self) -> usize {
        PAR_BLOCKS
    }

    fn encrypt_chains<F>(&self, chains: &mut [Block], blocks: usize, every_block: bool, feed: F)
    where
        F: FnMut(usize, usize, Option<&Block>) -> Block,
    {
        BitslicedAes::encrypt_chains(self, chains, blocks, every_block, feed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_batch_equals_block_loop() {
        let aes = Aes::new(&[3u8; 16]).unwrap();
        let mut batch = [[0x11u8; 16], [0x22u8; 16], [0x33u8; 16]];
        let mut looped = batch;
        aes.encrypt_blocks(&mut batch);
        for b in looped.iter_mut() {
            aes.encrypt_block(b);
        }
        assert_eq!(batch, looped);
        aes.decrypt_blocks(&mut batch);
        assert_eq!(batch, [[0x11u8; 16], [0x22u8; 16], [0x33u8; 16]]);
    }

    #[test]
    fn widths() {
        assert_eq!(Aes::new(&[0u8; 16]).unwrap().batch_width(), 1);
        assert_eq!(
            BitslicedAes::new(&[0u8; 16]).unwrap().batch_width(),
            PAR_BLOCKS
        );
    }
}
