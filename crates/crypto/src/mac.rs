//! CMAC (NIST SP 800-38B) over AES.
//!
//! The integrity plane of the Sentry reproduction authenticates encrypted
//! DRAM pages with a per-page MAC. Reusing AES as the MAC primitive means
//! no new cipher state has to live on-SoC: the CMAC subkeys derive from
//! one block encryption and the running CBC chain fits in registers, so
//! the MAC inherits the same leakage profile as the page cipher itself.
//!
//! The implementation is a straightforward transcription of SP 800-38B:
//!
//! * subkeys `K1 = dbl(E_K(0^128))`, `K2 = dbl(K1)` where `dbl` is
//!   doubling in GF(2^128) with the x^128 + x^7 + x^2 + x + 1 modulus;
//! * complete final block → XOR with `K1`; partial/empty final block →
//!   pad with `10…0` and XOR with `K2`;
//! * the tag is the final CBC state, optionally truncated (the on-SoC
//!   tag store keeps 64-bit tags to double its page capacity, which
//!   SP 800-38B §5.5 explicitly permits).
//!
//! Every message is one CBC chain, and a batch of messages of one shape
//! — [`Cmac::mac_extents`], a 16-byte tweak followed by one equal-sized
//! extent of a buffer each (IV ‖ page for the integrity plane and the
//! journal commit tags, IV ‖ sector for dm-crypt) — is a batch of
//! independent chains. Both run on the lane loop of the context's
//! [`PageCipher`], with byte-identical tags on either kernel:
//!
//! * on AES-NI every group of up to eight messages, a lone one included,
//!   keeps its chains in registers from the first block to the last;
//! * on the portable kernel block `j` of up to 16 messages goes through
//!   one call of the bitsliced kernel, and a group smaller than
//!   [`MIN_LANE_MESSAGES`] (a lone message from [`Cmac::mac_parts`], say)
//!   keeps the scalar table-driven chain, which is faster there.
//!
//! Verified against the NIST AES-128 CMAC examples.

use std::fmt;

use crate::batch::BlockCipherBatch;
use crate::bitslice::PAR_BLOCKS;
use crate::block::{Aes, Block};
use crate::modes::{xor_block, HostKernel, PageCipher};
use crate::BLOCK_SIZE;

/// The smallest group of messages the portable kernel runs on the
/// bitsliced lanes; a smaller group keeps the scalar chain. AES-NI runs
/// every group on its own lanes and ignores this.
///
/// One bitsliced call costs the same whether 1 or 16 of its lanes are
/// live, so a group of `n` messages runs at about `n/16` of the
/// full-width rate, while the table-driven scalar chain runs at about a
/// quarter of it. `exp_aes_kernels` measures the lane path against the
/// scalar chain over 4 KiB pages (`BENCH_aes_kernels.json`): 4.0×, 2.0×,
/// 1.04×, 0.76× and 0.49× at 16, 8, 4, 3 and 2 messages per group. Four
/// is the smallest group that beats the scalar chain; three loses to it.
/// The scalar chain's speed varies between processes on a shared host,
/// so the four-message ratio moves (0.75–1.34× over six runs); three
/// messages never reached 1×.
pub const MIN_LANE_MESSAGES: usize = 4;

/// Double a 128-bit value in GF(2^128) (the `dbl` of SP 800-38B §6.1).
fn dbl(block: &Block) -> Block {
    let mut out = [0u8; BLOCK_SIZE];
    let mut carry = 0u8;
    for i in (0..BLOCK_SIZE).rev() {
        let b = block[i];
        out[i] = (b << 1) | carry;
        carry = b >> 7;
    }
    if carry != 0 {
        out[BLOCK_SIZE - 1] ^= 0x87;
    }
    out
}

/// The 64-bit truncation of a tag (most-significant bytes first, per
/// SP 800-38B truncation).
fn trunc8(tag: &Block) -> [u8; 8] {
    tag[..8].try_into().expect("a tag has 8 leading bytes")
}

/// Assert that `data` holds exactly one `unit`-byte extent per tweak.
fn check_extents(tweaks: &[Block], data: &[u8], unit: usize) {
    assert_eq!(
        data.len(),
        tweaks.len() * unit,
        "batch MAC needs exactly one {unit}-byte extent per tweak ({} tweaks)",
        tweaks.len()
    );
}

/// Block `j` of a whole-block-aligned byte run.
fn block_at(bytes: &[u8], j: usize) -> Block {
    bytes[j * BLOCK_SIZE..(j + 1) * BLOCK_SIZE]
        .try_into()
        .expect("block")
}

/// A CMAC context: the AES key in its host [`PageCipher`], and the
/// subkeys.
///
/// The context borrows nothing and owns the cipher, so callers that
/// already hold an expanded AES key (e.g. the on-SoC engine) construct
/// one `Cmac` per key and reuse it for every page. On the portable
/// kernel the bitsliced context is built from the same key schedule on
/// the first lane-wide batch, once per key; a user that only ever MACs
/// one message at a time never pays for it.
#[derive(Clone)]
pub struct Cmac {
    cipher: PageCipher,
    k1: Block,
    k2: Block,
}

impl fmt::Debug for Cmac {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The subkeys are key material: `dbl` is invertible, so K1
        // reveals E_K(0). Print only what the cipher prints (its size
        // and kernel).
        f.debug_struct("Cmac")
            .field("cipher", &self.cipher)
            .finish_non_exhaustive()
    }
}

impl Cmac {
    /// Build a CMAC context on the fastest kernel this CPU has,
    /// deriving the two subkeys from `cipher`.
    pub fn new(cipher: Aes) -> Self {
        Cmac::with_cipher(PageCipher::from_aes(cipher, true))
    }

    /// [`Cmac::new`] on the portable kernel whatever the CPU has, so the
    /// fallback stays testable on a host with AES-NI.
    pub fn portable(cipher: Aes) -> Self {
        Cmac::with_cipher(PageCipher::from_aes(cipher, false))
    }

    fn with_cipher(cipher: PageCipher) -> Self {
        let mut l = [0u8; BLOCK_SIZE];
        cipher.aes.encrypt_block(&mut l);
        let k1 = dbl(&l);
        let k2 = dbl(&k1);
        Cmac { cipher, k1, k2 }
    }

    /// The kernel the chains run on: `"aesni"` or `"portable"`.
    #[must_use]
    pub fn kernel_name(&self) -> &'static str {
        self.cipher.kernel_name()
    }

    /// The first subkey (`K1`), exposed for known-answer tests.
    #[must_use]
    pub fn subkey1(&self) -> &Block {
        &self.k1
    }

    /// The second subkey (`K2`), exposed for known-answer tests.
    #[must_use]
    pub fn subkey2(&self) -> &Block {
        &self.k2
    }

    /// The input of a message's last cipher call before the chain value
    /// is folded in: its final block `tail` XOR `K1` when complete, else
    /// `tail ‖ 10…0` XOR `K2` (SP 800-38B step 4; an empty message has
    /// an empty, padded final block).
    fn last_block(&self, tail: &[u8]) -> Block {
        let mut out = [0u8; BLOCK_SIZE];
        out[..tail.len()].copy_from_slice(tail);
        if tail.len() == BLOCK_SIZE {
            xor_block(&mut out, &self.k1);
        } else {
            out[tail.len()] = 0x80;
            xor_block(&mut out, &self.k2);
        }
        out
    }

    /// Run `n` messages of `blocks` blocks each, `block(i, j)` being
    /// block `j` of message `i` (the last one pre-folded with its
    /// subkey), and return their tags. On the portable kernel a last
    /// group below [`MIN_LANE_MESSAGES`] keeps the scalar chain unless
    /// `all_lanes` is set.
    fn chains(
        &self,
        n: usize,
        blocks: usize,
        all_lanes: bool,
        mut block: impl FnMut(usize, usize) -> Block,
    ) -> Vec<Block> {
        let mut tags = vec![[0u8; BLOCK_SIZE]; n];
        let mut feed = |i: usize, j: usize, _: Option<&Block>| block(i, j);
        match &self.cipher.kernel {
            #[cfg(target_arch = "x86_64")]
            HostKernel::AesNi(ni) => ni.encrypt_chains(&mut tags, blocks, false, feed),
            HostKernel::Portable(cell) => {
                let rest = n % PAR_BLOCKS;
                let wide = if all_lanes || rest >= MIN_LANE_MESSAGES {
                    n
                } else {
                    n - rest
                };
                if wide > 0 {
                    let lanes = self.cipher.bits(cell);
                    lanes.encrypt_chains(&mut tags[..wide], blocks, false, &mut feed);
                }
                let scalar = &self.cipher.aes;
                scalar.encrypt_chains(&mut tags[wide..], blocks, false, |i, j, p| {
                    feed(wide + i, j, p)
                });
            }
        }
        tags
    }

    /// MAC a message supplied as a list of byte slices, treated as their
    /// concatenation: one chain. Returns the full 128-bit tag.
    ///
    /// The multi-part form lets the integrity plane prepend a 16-byte
    /// context tweak (derived from the page IV) to a ciphertext page
    /// without building the message itself.
    #[must_use]
    pub fn mac_parts(&self, parts: &[&[u8]]) -> Block {
        let msg = parts.concat();
        let blocks = msg.len().div_ceil(BLOCK_SIZE).max(1);
        let last = self.last_block(&msg[(blocks - 1) * BLOCK_SIZE..]);
        let tags = self.chains(1, blocks, false, |_, j| {
            if j + 1 == blocks {
                last
            } else {
                block_at(&msg, j)
            }
        });
        tags[0]
    }

    /// MAC a message and truncate the tag to 64 bits (most-significant
    /// bytes first, per SP 800-38B truncation).
    #[must_use]
    pub fn mac_parts_trunc8(&self, parts: &[&[u8]]) -> [u8; 8] {
        trunc8(&self.mac_parts(parts))
    }

    /// MAC a batch of messages: message `i` is `tweaks[i]` followed by
    /// the `i`-th `unit`-byte extent of `data`. Returns the full 128-bit
    /// tags in order, byte-identical to
    /// `mac_parts(&[&tweaks[i], extent_i])` for each message.
    ///
    /// On AES-NI every message runs on the lanes. On the portable kernel
    /// every full group of 16 messages, and a last group of at least
    /// [`MIN_LANE_MESSAGES`], runs on the bitsliced lanes; a smaller last
    /// group (a single page, say) keeps the scalar chain.
    ///
    /// # Panics
    ///
    /// Panics unless `data` holds exactly one `unit`-byte extent per
    /// tweak: a short buffer would leave the trailing messages without a
    /// tag.
    #[must_use]
    pub fn mac_extents(&self, tweaks: &[Block], data: &[u8], unit: usize) -> Vec<Block> {
        self.extent_chains(tweaks, data, unit, false)
    }

    /// [`Cmac::mac_extents`] truncated to 64-bit tags.
    ///
    /// # Panics
    ///
    /// As [`Cmac::mac_extents`].
    #[must_use]
    pub fn mac_extents_trunc8(&self, tweaks: &[Block], data: &[u8], unit: usize) -> Vec<[u8; 8]> {
        self.mac_extents(tweaks, data, unit)
            .iter()
            .map(trunc8)
            .collect()
    }

    /// [`Cmac::mac_extents`] with every group on the lanes, however
    /// small (on AES-NI the two are the same). Callers want
    /// [`Cmac::mac_extents`]; this entry exists so the portable
    /// crossover can be measured and tested.
    ///
    /// # Panics
    ///
    /// As [`Cmac::mac_extents`].
    #[must_use]
    pub fn mac_extents_lanes(&self, tweaks: &[Block], data: &[u8], unit: usize) -> Vec<Block> {
        self.extent_chains(tweaks, data, unit, true)
    }

    fn extent_chains(
        &self,
        tweaks: &[Block],
        data: &[u8],
        unit: usize,
        all_lanes: bool,
    ) -> Vec<Block> {
        check_extents(tweaks, data, unit);
        // Block 0 of a message is its tweak and block `j >= 1` is block
        // `j - 1` of its extent; the last block is pre-folded with its
        // subkey.
        let blocks = (BLOCK_SIZE + unit).div_ceil(BLOCK_SIZE);
        let extent = |i: usize| &data[i * unit..(i + 1) * unit];
        let lasts: Vec<Block> = tweaks
            .iter()
            .enumerate()
            .map(|(i, tweak)| match blocks {
                1 => self.last_block(tweak),
                _ => self.last_block(&extent(i)[(blocks - 2) * BLOCK_SIZE..]),
            })
            .collect();
        self.chains(tweaks.len(), blocks, all_lanes, |i, j| {
            if j + 1 == blocks {
                lasts[i]
            } else if j == 0 {
                tweaks[i]
            } else {
                block_at(extent(i), j - 1)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nist_cmac() -> Cmac {
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        Cmac::new(Aes::new(&key).unwrap())
    }

    /// The SP 800-38A sample plaintext the CMAC examples reuse.
    const MSG: [u8; 64] = [
        0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93, 0x17,
        0x2a, 0xae, 0x2d, 0x8a, 0x57, 0x1e, 0x03, 0xac, 0x9c, 0x9e, 0xb7, 0x6f, 0xac, 0x45, 0xaf,
        0x8e, 0x51, 0x30, 0xc8, 0x1c, 0x46, 0xa3, 0x5c, 0xe4, 0x11, 0xe5, 0xfb, 0xc1, 0x19, 0x1a,
        0x0a, 0x52, 0xef, 0xf6, 0x9f, 0x24, 0x45, 0xdf, 0x4f, 0x9b, 0x17, 0xad, 0x2b, 0x41, 0x7b,
        0xe6, 0x6c, 0x37, 0x10,
    ];

    #[test]
    fn nist_subkeys() {
        let c = nist_cmac();
        assert_eq!(
            c.subkey1(),
            &[
                0xfb, 0xee, 0xd6, 0x18, 0x35, 0x71, 0x33, 0x66, 0x7c, 0x85, 0xe0, 0x8f, 0x72, 0x36,
                0xa8, 0xde,
            ]
        );
        assert_eq!(
            c.subkey2(),
            &[
                0xf7, 0xdd, 0xac, 0x30, 0x6a, 0xe2, 0x66, 0xcc, 0xf9, 0x0b, 0xc1, 0x1e, 0xe4, 0x6d,
                0x51, 0x3b,
            ]
        );
    }

    #[test]
    fn nist_empty_message() {
        assert_eq!(
            nist_cmac().mac_parts(&[&[]]),
            [
                0xbb, 0x1d, 0x69, 0x29, 0xe9, 0x59, 0x37, 0x28, 0x7f, 0xa3, 0x7d, 0x12, 0x9b, 0x75,
                0x67, 0x46,
            ]
        );
    }

    /// The SP 800-38B AES-128 tags of `MSG[..16]`, `MSG[..40]` and `MSG`.
    const TAG_16: Block = [
        0x07, 0x0a, 0x16, 0xb4, 0x6b, 0x4d, 0x41, 0x44, 0xf7, 0x9b, 0xdd, 0x9d, 0xd0, 0x4a, 0x28,
        0x7c,
    ];
    const TAG_40: Block = [
        0xdf, 0xa6, 0x67, 0x47, 0xde, 0x9a, 0xe6, 0x30, 0x30, 0xca, 0x32, 0x61, 0x14, 0x97, 0xc8,
        0x27,
    ];
    const TAG_64: Block = [
        0x51, 0xf0, 0xbe, 0xbf, 0x7e, 0x3b, 0x9d, 0x92, 0xfc, 0x49, 0x74, 0x17, 0x79, 0x36, 0x3c,
        0xfe,
    ];

    #[test]
    fn nist_one_block() {
        assert_eq!(nist_cmac().mac_parts(&[&MSG[..16]]), TAG_16);
    }

    #[test]
    fn nist_partial_final_block() {
        assert_eq!(nist_cmac().mac_parts(&[&MSG[..40]]), TAG_40);
    }

    #[test]
    fn nist_four_blocks() {
        assert_eq!(nist_cmac().mac_parts(&[&MSG]), TAG_64);
    }

    #[test]
    fn nist_examples_through_the_batch_entry() {
        // Each example split as a 16-byte tweak plus an extent: no extent
        // (one complete block), a partial final block, and four blocks.
        // 17 copies fill one lane group and leave one for the scalar
        // chain.
        let c = nist_cmac();
        let tweak: Block = MSG[..16].try_into().unwrap();
        for (len, tag) in [(16usize, TAG_16), (40, TAG_40), (64, TAG_64)] {
            let unit = len - 16;
            let tweaks = vec![tweak; 17];
            let data = MSG[16..len].repeat(17);
            assert_eq!(
                c.mac_extents(&tweaks, &data, unit),
                vec![tag; 17],
                "{len} bytes"
            );
            let lanes = c.mac_extents_lanes(&tweaks[..3], &data[..3 * unit], unit);
            assert_eq!(lanes, vec![tag; 3], "{len} bytes, lanes below crossover");
            assert_eq!(
                c.mac_extents_trunc8(&tweaks[..1], &data[..unit], unit),
                vec![trunc8(&tag)]
            );
        }
        assert!(c.mac_extents(&[], &[], 4096).is_empty());
    }

    /// Whether the portable kernel's bitsliced context has been built
    /// (`None` when the context runs another kernel).
    fn lanes_built(c: &Cmac) -> Option<bool> {
        match &c.cipher.kernel {
            HostKernel::Portable(cell) => Some(cell.get().is_some()),
            #[cfg(target_arch = "x86_64")]
            HostKernel::AesNi(_) => None,
        }
    }

    #[test]
    fn the_lanes_are_built_on_the_first_lane_wide_group() {
        let c = Cmac::portable(nist_cmac().cipher.aes);
        let _ = c.mac_parts(&[&MSG]);
        let _ = c.mac_extents(&[[0u8; 16]; 3], &[0u8; 3 * 32], 32);
        assert_eq!(lanes_built(&c), Some(false), "three messages stay scalar");
        let _ = c.mac_extents(&[[0u8; 16]; 4], &[0u8; 4 * 32], 32);
        assert_eq!(lanes_built(&c), Some(true));
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn an_aes_ni_context_never_builds_the_bitsliced_lanes() {
        let c = nist_cmac();
        if c.kernel_name() != "aesni" {
            eprintln!("skipped: this CPU has no AES-NI");
            return;
        }
        for n in [1usize, 3, 4, 16, 17] {
            let _ = c.mac_extents(&vec![[0u8; 16]; n], &vec![0u8; n * 32], 32);
        }
        let _ = c.mac_extents_lanes(&[[0u8; 16]; 2], &[0u8; 2 * 32], 32);
        assert_eq!(lanes_built(&c), None, "no bitsliced context to build");
        let pages = PageCipher::new(&[7u8; 32]).unwrap();
        assert_eq!(pages.kernel_name(), "aesni");
        assert!(matches!(pages.kernel, HostKernel::AesNi(_)));
    }

    #[test]
    #[should_panic(expected = "exactly one 512-byte extent per tweak")]
    fn batch_rejects_a_short_buffer() {
        let c = nist_cmac();
        let _ = c.mac_extents(&[[0u8; 16]; 3], &[0u8; 2 * 512], 512);
    }

    #[test]
    fn debug_never_prints_the_subkeys() {
        let c = nist_cmac();
        let _ = c.mac_extents(&[[0u8; 16]; 16], &[0u8; 16 * 32], 32);
        let shown = format!("{c:?}");
        for secret in [c.subkey1(), c.subkey2()] {
            assert!(!shown.contains(&format!("{secret:?}")), "{shown}");
        }
    }

    #[test]
    fn parts_equal_contiguous() {
        let c = nist_cmac();
        assert_eq!(c.mac_parts(&[&MSG[..16], &MSG[16..]]), c.mac_parts(&[&MSG]));
        assert_eq!(
            c.mac_parts(&[&MSG[..7], &MSG[7..40]]),
            c.mac_parts(&[&MSG[..40]])
        );
        assert_eq!(c.mac_parts(&[&[], &MSG, &[]]), c.mac_parts(&[&MSG]));
    }

    #[test]
    fn trunc8_is_tag_prefix() {
        let c = nist_cmac();
        let full = c.mac_parts(&[&MSG]);
        assert_eq!(c.mac_parts_trunc8(&[&MSG]), full[..8]);
    }

    #[test]
    fn single_bit_flip_changes_tag() {
        let c = nist_cmac();
        let base = c.mac_parts(&[&MSG]);
        for byte in [0usize, 15, 16, 63] {
            for bit in 0..8u8 {
                let mut m = MSG;
                m[byte] ^= 1 << bit;
                assert_ne!(c.mac_parts(&[&m]), base, "flip at byte {byte} bit {bit}");
            }
        }
    }
}
