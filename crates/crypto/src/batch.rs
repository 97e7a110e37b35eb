//! Batched multi-block cipher interface.
//!
//! The paper's throughput-critical paths never encrypt one block at a
//! time: the pager moves 4 KiB pages (256 blocks), dm-crypt moves 512-byte
//! sectors (32 blocks), and the lock/unlock engine moves whole working
//! sets. [`BlockCipherBatch`] exposes that batch shape to the cipher so a
//! backend may amortize work across blocks — the bitsliced backend
//! ([`crate::bitslice::BitslicedAes`]) packs [`PAR_BLOCKS`] blocks into
//! bit planes and pays its pack/unpack cost once per batch.
//!
//! The scalar contexts implement the trait by looping, which keeps every
//! mode byte-identical across backends: a batch is *defined* as the
//! concatenation of independent single-block operations (chaining
//! belongs to [`crate::modes`] and to the lane loop
//! [`BlockCipherBatch::encrypt_chains`]).

use crate::bitslice::{BitslicedAes, PAR_BLOCKS};
use crate::block::{Aes, AesRef, Block};
use crate::modes::{xor_block, BlockCipher};
use crate::BLOCK_SIZE;

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
