//! Single-block AES encryption and decryption.
//!
//! Two implementations are provided:
//!
//! * [`AesRef`] — a straight transcription of FIPS-197 (SubBytes,
//!   ShiftRows, MixColumns as separate steps). Slow, but obviously
//!   correct; used as the oracle for the fast path.
//! * [`Aes`] — the table-driven implementation Sentry actually runs, with
//!   the compact rotating T-tables described in [`crate::tables`]. This is
//!   the code whose *state placement* matters: when its tables and round
//!   keys live in DRAM it is the paper's "generic AES", and when they are
//!   confined to the SoC (see [`crate::tracked`]) it is "AES On SoC".

use crate::key_schedule::KeySchedule;
use crate::{sbox, tables, KeyError, KeySize, BLOCK_SIZE};

/// A 128-bit AES block.
pub(crate) type Block = [u8; BLOCK_SIZE];

/// Fast, table-driven AES context.
#[derive(Debug, Clone)]
pub struct Aes {
    schedule: KeySchedule,
}

impl Aes {
    /// Expand `key` and build an encryption/decryption context.
    ///
    /// # Errors
    ///
    /// Returns [`KeyError::InvalidLength`] for keys that are not 16, 24,
    /// or 32 bytes.
    pub fn new(key: &[u8]) -> Result<Self, KeyError> {
        Ok(Aes {
            schedule: KeySchedule::expand(key)?,
        })
    }

    /// The key size of this context.
    #[must_use]
    pub(crate) fn key_size(&self) -> KeySize {
        self.schedule.size()
    }

    /// Borrow the expanded key schedule.
    #[must_use]
    pub fn schedule(&self) -> &KeySchedule {
        &self.schedule
    }

    /// Encrypt a single 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut Block) {
        let rk = self.schedule.enc_words();
        match self.schedule.size() {
            KeySize::Aes128 => encrypt_rounds::<44>(rk.try_into().expect("44 words"), block),
            KeySize::Aes192 => encrypt_rounds::<52>(rk.try_into().expect("52 words"), block),
            KeySize::Aes256 => encrypt_rounds::<60>(rk.try_into().expect("60 words"), block),
        }
    }

    /// Decrypt a single 16-byte block in place (the equivalent inverse
    /// cipher, in the same shape as [`Aes::encrypt_block`]).
    pub(crate) fn decrypt_block(&self, block: &mut Block) {
        let rk = self.schedule.dec_words();
        match self.schedule.size() {
            KeySize::Aes128 => decrypt_rounds::<44>(rk.try_into().expect("44 words"), block),
            KeySize::Aes192 => decrypt_rounds::<52>(rk.try_into().expect("52 words"), block),
            KeySize::Aes256 => decrypt_rounds::<60>(rk.try_into().expect("60 words"), block),
        }
    }
}

// The scalar rounds hold the state as two u64 halves, columns 0‖1 and
// 2‖3 (column `c` big-endian, as FIPS-197 loads it), and take the round
// keys as a fixed-size array per key size. Every table index is then a
// shift-and-mask of a general-purpose register, and the round loop has
// a constant trip count with no bounds checks, so the chain stays in
// registers: four separate `u32` columns instead tempt LLVM's SLP
// vectorizer into packing them into one vector and fetching the 16
// lookups of a round with `vpgatherdd`, which is slower than scalar
// loads. The one rotating 1 KiB `Te`/`Td` table stays, so the on-SoC
// table accounting (Table 4) is unchanged.

/// Byte `n` (0 = least significant) of `x`, as a table index.
#[inline(always)]
fn byte(x: u64, n: u32) -> usize {
    ((x >> (8 * n)) & 0xff) as usize
}

/// Round key `round` as the two state halves it is XORed into.
#[inline(always)]
fn round_key<const W: usize>(rk: &[u32; W], round: usize) -> (u64, u64) {
    let k = &rk[4 * round..4 * round + 4];
    (
        (u64::from(k[0]) << 32) | u64::from(k[1]),
        (u64::from(k[2]) << 32) | u64::from(k[3]),
    )
}

fn load_halves(block: &Block) -> (u64, u64) {
    let (hi, lo) = block.split_at(8);
    (
        u64::from_be_bytes(hi.try_into().expect("8 bytes")),
        u64::from_be_bytes(lo.try_into().expect("8 bytes")),
    )
}

fn store_halves(hi: u64, lo: u64, block: &mut Block) {
    block[..8].copy_from_slice(&hi.to_be_bytes());
    block[8..].copy_from_slice(&lo.to_be_bytes());
}

/// Two output columns in one half: `(a << 32) | b`.
#[inline(always)]
fn join(a: u32, b: u32) -> u64 {
    (u64::from(a) << 32) | u64::from(b)
}

#[inline(always)]
fn encrypt_rounds<const W: usize>(rk: &[u32; W], block: &mut Block) {
    let te = tables::te();
    let sb = sbox::sbox();
    let rounds = W / 4 - 1;
    let (mut h, mut l) = load_halves(block);
    let (k0, k1) = round_key(rk, 0);
    h ^= k0;
    l ^= k1;

    // Output column `c` reads row 0 of column `c`, row 1 of `c + 1`, row
    // 2 of `c + 2` and row 3 of `c + 3`; column 0 is the top word of `h`
    // and row 0 the top byte of a column.
    let t = |i: usize, rot: u32| te[i].rotate_right(rot);
    let mix = |h: u64, l: u64| {
        let c0 = t(byte(h, 7), 0) ^ t(byte(h, 2), 8) ^ t(byte(l, 5), 16) ^ t(byte(l, 0), 24);
        let c1 = t(byte(h, 3), 0) ^ t(byte(l, 6), 8) ^ t(byte(l, 1), 16) ^ t(byte(h, 4), 24);
        let c2 = t(byte(l, 7), 0) ^ t(byte(l, 2), 8) ^ t(byte(h, 5), 16) ^ t(byte(h, 0), 24);
        let c3 = t(byte(l, 3), 0) ^ t(byte(h, 6), 8) ^ t(byte(h, 1), 16) ^ t(byte(l, 4), 24);
        (join(c0, c1), join(c2, c3))
    };
    for round in 1..rounds {
        let (m0, m1) = mix(h, l);
        let (k0, k1) = round_key(rk, round);
        (h, l) = (m0 ^ k0, m1 ^ k1);
    }
    // Final round: SubBytes + ShiftRows + AddRoundKey (no MixColumns).
    let s = |i: usize, n: u32| u32::from(sb[i]) << (8 * n);
    let last = |h: u64, l: u64| {
        let c0 = s(byte(h, 7), 3) | s(byte(h, 2), 2) | s(byte(l, 5), 1) | s(byte(l, 0), 0);
        let c1 = s(byte(h, 3), 3) | s(byte(l, 6), 2) | s(byte(l, 1), 1) | s(byte(h, 4), 0);
        let c2 = s(byte(l, 7), 3) | s(byte(l, 2), 2) | s(byte(h, 5), 1) | s(byte(h, 0), 0);
        let c3 = s(byte(l, 3), 3) | s(byte(h, 6), 2) | s(byte(h, 1), 1) | s(byte(l, 4), 0);
        (join(c0, c1), join(c2, c3))
    };
    let (m0, m1) = last(h, l);
    let (k0, k1) = round_key(rk, rounds);
    store_halves(m0 ^ k0, m1 ^ k1, block);
}

#[inline(always)]
fn decrypt_rounds<const W: usize>(rk: &[u32; W], block: &mut Block) {
    let td = tables::td();
    let isb = sbox::inv_sbox();
    let rounds = W / 4 - 1;
    let (mut h, mut l) = load_halves(block);
    let (k0, k1) = round_key(rk, 0);
    h ^= k0;
    l ^= k1;

    // InvShiftRows: output column `c` reads row 0 of column `c`, row 1
    // of `c + 3`, row 2 of `c + 2` and row 3 of `c + 1`.
    let t = |i: usize, rot: u32| td[i].rotate_right(rot);
    let mix = |h: u64, l: u64| {
        let c0 = t(byte(h, 7), 0) ^ t(byte(l, 2), 8) ^ t(byte(l, 5), 16) ^ t(byte(h, 0), 24);
        let c1 = t(byte(h, 3), 0) ^ t(byte(h, 6), 8) ^ t(byte(l, 1), 16) ^ t(byte(l, 4), 24);
        let c2 = t(byte(l, 7), 0) ^ t(byte(h, 2), 8) ^ t(byte(h, 5), 16) ^ t(byte(l, 0), 24);
        let c3 = t(byte(l, 3), 0) ^ t(byte(l, 6), 8) ^ t(byte(h, 1), 16) ^ t(byte(h, 4), 24);
        (join(c0, c1), join(c2, c3))
    };
    for round in 1..rounds {
        let (m0, m1) = mix(h, l);
        let (k0, k1) = round_key(rk, round);
        (h, l) = (m0 ^ k0, m1 ^ k1);
    }
    let s = |i: usize, n: u32| u32::from(isb[i]) << (8 * n);
    let last = |h: u64, l: u64| {
        let c0 = s(byte(h, 7), 3) | s(byte(l, 2), 2) | s(byte(l, 5), 1) | s(byte(h, 0), 0);
        let c1 = s(byte(h, 3), 3) | s(byte(h, 6), 2) | s(byte(l, 1), 1) | s(byte(l, 4), 0);
        let c2 = s(byte(l, 7), 3) | s(byte(h, 2), 2) | s(byte(h, 5), 1) | s(byte(l, 0), 0);
        let c3 = s(byte(l, 3), 3) | s(byte(l, 6), 2) | s(byte(h, 1), 1) | s(byte(h, 4), 0);
        (join(c0, c1), join(c2, c3))
    };
    let (m0, m1) = last(h, l);
    let (k0, k1) = round_key(rk, rounds);
    store_halves(m0 ^ k0, m1 ^ k1, block);
}

/// Reference AES: a direct transcription of the FIPS-197 round steps.
///
/// About two orders of magnitude slower than [`Aes`]. Exists as a
/// correctness oracle, and models the "sequential, no lookup tables"
/// implementation style the paper contrasts against (AESSE's first
/// version, 100x slowdown).
#[derive(Debug, Clone)]
pub struct AesRef {
    schedule: KeySchedule,
}

impl AesRef {
    /// Expand `key` and build a reference context.
    ///
    /// # Errors
    ///
    /// Returns [`KeyError::InvalidLength`] for invalid key lengths.
    pub fn new(key: &[u8]) -> Result<Self, KeyError> {
        Ok(AesRef {
            schedule: KeySchedule::expand(key)?,
        })
    }

    /// Encrypt a block in place using the spec's round steps.
    pub fn encrypt_block(&self, block: &mut Block) {
        let rounds = self.schedule.size().rounds();
        let rk = self.schedule.enc_words();
        add_round_key(block, &rk[0..4]);
        for round in 1..rounds {
            sub_bytes(block);
            shift_rows(block);
            mix_columns(block);
            add_round_key(block, &rk[4 * round..4 * round + 4]);
        }
        sub_bytes(block);
        shift_rows(block);
        add_round_key(block, &rk[4 * rounds..4 * rounds + 4]);
    }

    /// Decrypt a block in place using the spec's inverse round steps.
    pub fn decrypt_block(&self, block: &mut Block) {
        let rounds = self.schedule.size().rounds();
        let rk = self.schedule.enc_words();
        add_round_key(block, &rk[4 * rounds..4 * rounds + 4]);
        for round in (1..rounds).rev() {
            inv_shift_rows(block);
            inv_sub_bytes(block);
            add_round_key(block, &rk[4 * round..4 * round + 4]);
            inv_mix_columns(block);
        }
        inv_shift_rows(block);
        inv_sub_bytes(block);
        add_round_key(block, &rk[0..4]);
    }
}

// The state is kept in FIPS input order: byte index 4*c + r holds row r of
// column c.

fn add_round_key(block: &mut Block, rk: &[u32]) {
    for (c, word) in rk.iter().enumerate() {
        let bytes = word.to_be_bytes();
        for r in 0..4 {
            block[4 * c + r] ^= bytes[r];
        }
    }
}

fn sub_bytes(block: &mut Block) {
    for b in block.iter_mut() {
        *b = sbox::sub_byte(*b);
    }
}

fn inv_sub_bytes(block: &mut Block) {
    for b in block.iter_mut() {
        *b = sbox::inv_sub_byte(*b);
    }
}

fn shift_rows(block: &mut Block) {
    let orig = *block;
    for r in 1..4 {
        for c in 0..4 {
            block[4 * c + r] = orig[4 * ((c + r) % 4) + r];
        }
    }
}

fn inv_shift_rows(block: &mut Block) {
    let orig = *block;
    for r in 1..4 {
        for c in 0..4 {
            block[4 * ((c + r) % 4) + r] = orig[4 * c + r];
        }
    }
}

fn mix_columns(block: &mut Block) {
    use crate::gf::{mul3, xtime};
    for c in 0..4 {
        let col = [
            block[4 * c],
            block[4 * c + 1],
            block[4 * c + 2],
            block[4 * c + 3],
        ];
        block[4 * c] = xtime(col[0]) ^ mul3(col[1]) ^ col[2] ^ col[3];
        block[4 * c + 1] = col[0] ^ xtime(col[1]) ^ mul3(col[2]) ^ col[3];
        block[4 * c + 2] = col[0] ^ col[1] ^ xtime(col[2]) ^ mul3(col[3]);
        block[4 * c + 3] = mul3(col[0]) ^ col[1] ^ col[2] ^ xtime(col[3]);
    }
}

fn inv_mix_columns(block: &mut Block) {
    use crate::gf::mul;
    for c in 0..4 {
        let col = [
            block[4 * c],
            block[4 * c + 1],
            block[4 * c + 2],
            block[4 * c + 3],
        ];
        block[4 * c] = mul(col[0], 14) ^ mul(col[1], 11) ^ mul(col[2], 13) ^ mul(col[3], 9);
        block[4 * c + 1] = mul(col[0], 9) ^ mul(col[1], 14) ^ mul(col[2], 11) ^ mul(col[3], 13);
        block[4 * c + 2] = mul(col[0], 13) ^ mul(col[1], 9) ^ mul(col[2], 14) ^ mul(col[3], 11);
        block[4 * c + 3] = mul(col[0], 11) ^ mul(col[1], 13) ^ mul(col[2], 9) ^ mul(col[3], 14);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex16(s: &str) -> Block {
        let mut out = [0u8; 16];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap();
        }
        out
    }

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// FIPS-197 Appendix C known-answer vectors: same plaintext and the
    /// incrementing key for all three key sizes.
    const PT: &str = "00112233445566778899aabbccddeeff";
    const VECTORS: &[(&str, &str)] = &[
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
    fn fast_aes_matches_fips_appendix_c() {
        for (key, ct) in VECTORS {
            let aes = Aes::new(&hex(key)).unwrap();
            let mut block = hex16(PT);
            aes.encrypt_block(&mut block);
            assert_eq!(block, hex16(ct), "encrypt failed for key {key}");
            aes.decrypt_block(&mut block);
            assert_eq!(block, hex16(PT), "decrypt failed for key {key}");
        }
    }

    #[test]
    fn reference_aes_matches_fips_appendix_c() {
        for (key, ct) in VECTORS {
            let aes = AesRef::new(&hex(key)).unwrap();
            let mut block = hex16(PT);
            aes.encrypt_block(&mut block);
            assert_eq!(block, hex16(ct), "ref encrypt failed for key {key}");
            aes.decrypt_block(&mut block);
            assert_eq!(block, hex16(PT), "ref decrypt failed for key {key}");
        }
    }

    #[test]
    fn fips_appendix_b_worked_example() {
        let key = hex("2b7e151628aed2a6abf7158809cf4f3c");
        let aes = Aes::new(&key).unwrap();
        let mut block = hex16("3243f6a8885a308d313198a2e0370734");
        aes.encrypt_block(&mut block);
        assert_eq!(block, hex16("3925841d02dc09fbdc118597196a0b32"));
    }

    #[test]
    fn fast_and_reference_agree_on_random_inputs() {
        // Deterministic pseudo-random coverage across key sizes.
        let mut seed = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for ks in crate::KeySize::all() {
            let mut key = vec![0u8; ks.key_len()];
            for _ in 0..25 {
                for b in &mut key {
                    *b = next() as u8;
                }
                let fast = Aes::new(&key).unwrap();
                let reference = AesRef::new(&key).unwrap();
                let mut pt = [0u8; 16];
                for b in &mut pt {
                    *b = next() as u8;
                }
                let mut a = pt;
                let mut b = pt;
                fast.encrypt_block(&mut a);
                reference.encrypt_block(&mut b);
                assert_eq!(a, b, "{ks} encrypt divergence");
                fast.decrypt_block(&mut a);
                assert_eq!(a, pt, "{ks} roundtrip failure");
                reference.decrypt_block(&mut b);
                assert_eq!(b, pt);
            }
        }
    }

    #[test]
    fn shift_rows_inverse() {
        let mut block: Block = core::array::from_fn(|i| i as u8);
        let orig = block;
        shift_rows(&mut block);
        assert_ne!(block, orig);
        inv_shift_rows(&mut block);
        assert_eq!(block, orig);
    }

    #[test]
    fn mix_columns_inverse() {
        let mut block: Block = core::array::from_fn(|i| (31 * i + 7) as u8);
        let orig = block;
        mix_columns(&mut block);
        inv_mix_columns(&mut block);
        assert_eq!(block, orig);
    }

    #[test]
    fn mix_columns_spec_example() {
        // FIPS-197 / common test column: db 13 53 45 -> 8e 4d a1 bc.
        let mut block = [0u8; 16];
        block[0..4].copy_from_slice(&[0xdb, 0x13, 0x53, 0x45]);
        mix_columns(&mut block);
        assert_eq!(&block[0..4], &[0x8e, 0x4d, 0xa1, 0xbc]);
    }
}
