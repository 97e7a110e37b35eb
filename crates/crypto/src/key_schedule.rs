//! The AES key schedule (FIPS-197 section 5.2).
//!
//! Round keys are precomputed and cached — the optimization the paper calls
//! out in section 6.1: it speeds up encryption but *grows the secret state*
//! that must be kept on the SoC, since every round key is derived from the
//! original key.

use crate::{sbox, tables, KeyError, KeySize};

/// The Rcon constants: powers of 2 in GF(2^8), placed in the high byte.
///
/// The paper's Table 4 accounts 40 bytes for Rcon — ten 32-bit words, the
/// number needed by AES-128 (larger key sizes need fewer).
pub(crate) const RCON_WORDS: usize = 10;

/// Compute the Rcon table.
#[must_use]
pub(crate) fn compute_rcon() -> [u32; RCON_WORDS] {
    let mut rcon = [0u32; RCON_WORDS];
    let mut v = 1u8;
    for slot in &mut rcon {
        *slot = u32::from(v) << 24;
        v = crate::gf::xtime(v);
    }
    rcon
}

/// Rotate a word left by one byte (`RotWord`).
#[must_use]
pub(crate) fn rot_word(w: u32) -> u32 {
    w.rotate_left(8)
}

/// Substitute each byte of a word through the S-box (`SubWord`).
#[must_use]
pub(crate) fn sub_word(w: u32) -> u32 {
    let [a, b, c, d] = w.to_be_bytes();
    u32::from_be_bytes([
        sbox::sub_byte(a),
        sbox::sub_byte(b),
        sbox::sub_byte(c),
        sbox::sub_byte(d),
    ])
}

/// An expanded AES key schedule: encryption round keys plus the
/// InvMixColumns-transformed decryption round keys of the equivalent
/// inverse cipher.
#[derive(Clone)]
pub struct KeySchedule {
    size: KeySize,
    enc: Vec<u32>,
    dec: Vec<u32>,
}

impl std::fmt::Debug for KeySchedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print round-key material; that would be exactly the kind of
        // accidental secret spill Sentry exists to prevent.
        f.debug_struct("KeySchedule")
            .field("size", &self.size)
            .field("rounds", &self.size.rounds())
            .finish_non_exhaustive()
    }
}

impl KeySchedule {
    /// Expand a raw key into the full schedule.
    ///
    /// # Errors
    ///
    /// Returns [`KeyError::InvalidLength`] if the key is not 16, 24, or 32
    /// bytes long.
    pub fn expand(key: &[u8]) -> Result<Self, KeyError> {
        let size = KeySize::from_key_len(key.len())?;
        let enc = expand_enc(key, size);
        let dec = derive_dec(&enc, size);
        Ok(KeySchedule { size, enc, dec })
    }

    /// The key size this schedule was expanded from.
    #[must_use]
    pub(crate) fn size(&self) -> KeySize {
        self.size
    }

    /// Encryption round keys as words: `4 * (rounds + 1)` entries.
    #[must_use]
    pub fn enc_words(&self) -> &[u32] {
        &self.enc
    }

    /// Decryption round keys (equivalent inverse cipher ordering).
    #[must_use]
    pub(crate) fn dec_words(&self) -> &[u32] {
        &self.dec
    }
}

/// Expand the encryption round keys (FIPS-197 `KeyExpansion`).
fn expand_enc(key: &[u8], size: KeySize) -> Vec<u32> {
    let nk = size.nk();
    let total_words = 4 * (size.rounds() + 1);
    let rcon = compute_rcon();
    let mut w = Vec::with_capacity(total_words);
    for chunk in key.chunks_exact(4) {
        w.push(u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]));
    }
    for i in nk..total_words {
        let mut temp = w[i - 1];
        if i % nk == 0 {
            temp = sub_word(rot_word(temp)) ^ rcon[i / nk - 1];
        } else if nk > 6 && i % nk == 4 {
            temp = sub_word(temp);
        }
        w.push(w[i - nk] ^ temp);
    }
    w
}

/// Derive decryption round keys for the equivalent inverse cipher: reverse
/// the per-round order and apply InvMixColumns to all but the first and
/// last round keys.
fn derive_dec(enc: &[u32], size: KeySize) -> Vec<u32> {
    let rounds = size.rounds();
    let mut dec = Vec::with_capacity(enc.len());
    for round in 0..=rounds {
        let src = rounds - round;
        for col in 0..4 {
            let word = enc[4 * src + col];
            if round == 0 || round == rounds {
                dec.push(word);
            } else {
                dec.push(tables::inv_mix_column_word(word));
            }
        }
    }
    dec
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn rcon_matches_published_values() {
        let rcon = compute_rcon();
        let expected = [
            0x0100_0000u32,
            0x0200_0000,
            0x0400_0000,
            0x0800_0000,
            0x1000_0000,
            0x2000_0000,
            0x4000_0000,
            0x8000_0000,
            0x1b00_0000,
            0x3600_0000,
        ];
        assert_eq!(rcon, expected);
    }

    #[test]
    fn aes128_expansion_matches_fips_appendix_a1() {
        // FIPS-197 Appendix A.1 key: 2b7e1516 28aed2a6 abf71588 09cf4f3c.
        let key = hex("2b7e151628aed2a6abf7158809cf4f3c");
        let ks = KeySchedule::expand(&key).unwrap();
        let w = ks.enc_words();
        assert_eq!(w.len(), 44);
        assert_eq!(w[0], 0x2b7e_1516);
        assert_eq!(w[4], 0xa0fa_fe17);
        assert_eq!(w[10], 0x5935_807a);
        assert_eq!(w[43], 0xb663_0ca6);
    }

    #[test]
    fn aes192_expansion_matches_fips_appendix_a2() {
        let key = hex("8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b");
        let ks = KeySchedule::expand(&key).unwrap();
        let w = ks.enc_words();
        assert_eq!(w.len(), 52);
        assert_eq!(w[6], 0xfe0c_91f7);
        assert_eq!(w[51], 0x0100_2202);
    }

    #[test]
    fn aes256_expansion_matches_fips_appendix_a3() {
        let key = hex("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4");
        let ks = KeySchedule::expand(&key).unwrap();
        let w = ks.enc_words();
        assert_eq!(w.len(), 60);
        assert_eq!(w[8], 0x9ba3_5411);
        assert_eq!(w[59], 0x706c_631e);
    }

    #[test]
    fn dec_keys_first_equals_enc_last_round() {
        let key = hex("000102030405060708090a0b0c0d0e0f");
        let ks = KeySchedule::expand(&key).unwrap();
        let enc = ks.enc_words();
        let dec = ks.dec_words();
        assert_eq!(&dec[0..4], &enc[40..44]);
        assert_eq!(&dec[40..44], &enc[0..4]);
    }

    #[test]
    fn debug_never_leaks_round_keys() {
        let key = hex("000102030405060708090a0b0c0d0e0f");
        let ks = KeySchedule::expand(&key).unwrap();
        let dbg = format!("{ks:?}");
        assert!(!dbg.contains("2b7e"));
        assert!(dbg.contains("KeySchedule"));
    }
}
