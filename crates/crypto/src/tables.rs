//! The compact AES round tables ("T-tables").
//!
//! Table-driven AES folds SubBytes, ShiftRows, and MixColumns into four
//! 256-entry tables of 32-bit words per direction. Following the layout the
//! paper accounts for in Table 4 ("2 Round Tables, 2048 bytes"), we store
//! only *one* 1 KiB table per direction and derive the other three by
//! rotation, trading a rotate instruction per lookup for 3 KiB of state.
//! Keeping the table footprint small matters to Sentry: every byte of
//! access-protected state must fit on the SoC.

use crate::{gf, sbox};
use std::sync::OnceLock;

/// Number of entries in a round table.
pub(crate) const TABLE_ENTRIES: usize = 256;

/// Size in bytes of one round table (256 entries x 4 bytes).
pub const TABLE_BYTES: usize = TABLE_ENTRIES * 4;

/// Compute the forward round table `Te`.
///
/// `Te[x]` packs, most-significant byte first,
/// `(2*S[x], S[x], S[x], 3*S[x])` where `S` is the S-box and the products
/// are in GF(2^8). The tables used for columns 1-3 are byte rotations of
/// this one.
#[must_use]
pub(crate) fn compute_te() -> [u32; TABLE_ENTRIES] {
    let sb = sbox::sbox();
    let mut te = [0u32; TABLE_ENTRIES];
    for (x, slot) in te.iter_mut().enumerate() {
        let s = sb[x];
        let s2 = gf::xtime(s);
        let s3 = gf::mul3(s);
        *slot = (u32::from(s2) << 24) | (u32::from(s) << 16) | (u32::from(s) << 8) | u32::from(s3);
    }
    te
}

/// Compute the inverse round table `Td`.
///
/// `Td[x]` packs, most-significant byte first,
/// `(14*IS[x], 9*IS[x], 13*IS[x], 11*IS[x])` where `IS` is the inverse
/// S-box — i.e., InvMixColumns applied to the InvSubBytes output.
#[must_use]
pub(crate) fn compute_td() -> [u32; TABLE_ENTRIES] {
    let isb = sbox::inv_sbox();
    let mut td = [0u32; TABLE_ENTRIES];
    for (x, slot) in td.iter_mut().enumerate() {
        let e = isb[x];
        *slot = (u32::from(gf::mul(e, 14)) << 24)
            | (u32::from(gf::mul(e, 9)) << 16)
            | (u32::from(gf::mul(e, 13)) << 8)
            | u32::from(gf::mul(e, 11));
    }
    td
}

/// Shared, lazily-computed forward round table.
#[must_use]
pub fn te() -> &'static [u32; TABLE_ENTRIES] {
    static TE: OnceLock<[u32; TABLE_ENTRIES]> = OnceLock::new();
    TE.get_or_init(compute_te)
}

/// Shared, lazily-computed inverse round table.
#[must_use]
pub(crate) fn td() -> &'static [u32; TABLE_ENTRIES] {
    static TD: OnceLock<[u32; TABLE_ENTRIES]> = OnceLock::new();
    TD.get_or_init(compute_td)
}

/// Apply InvMixColumns to a single packed column word.
///
/// Used to derive the decryption round keys of the equivalent inverse
/// cipher from the encryption round keys.
#[must_use]
pub(crate) fn inv_mix_column_word(w: u32) -> u32 {
    let [a, b, c, d] = w.to_be_bytes();
    let m = |x: u8, y: u8, z: u8, t: u8| {
        gf::mul(x, 14) ^ gf::mul(y, 11) ^ gf::mul(z, 13) ^ gf::mul(t, 9)
    };
    u32::from_be_bytes([m(a, b, c, d), m(b, c, d, a), m(c, d, a, b), m(d, a, b, c)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn te_rotations_cover_all_mixcolumn_rows() {
        // Te rotated right by 8 must give the (3s, 2s, s, s) row, etc.
        let te = te();
        let sb = sbox::sbox();
        for x in 0..TABLE_ENTRIES {
            let s = sb[x];
            let s2 = gf::xtime(s);
            let s3 = gf::mul3(s);
            let t1 = te[x].rotate_right(8);
            assert_eq!(
                t1.to_be_bytes(),
                [s3, s2, s, s],
                "Te1 row mismatch at {x:#04x}"
            );
            let t3 = te[x].rotate_right(24);
            assert_eq!(t3.to_be_bytes(), [s, s, s3, s2]);
        }
    }

    #[test]
    fn td_composes_inv_sub_and_inv_mix() {
        let td = td();
        let isb = sbox::inv_sbox();
        for x in 0..TABLE_ENTRIES {
            let e = isb[x];
            // InvMixColumns of the column (e, 0, 0, 0).
            let expected = inv_mix_column_word(u32::from(e) << 24);
            assert_eq!(td[x], expected, "Td mismatch at {x:#04x}");
        }
    }

    #[test]
    fn inv_mix_column_word_matches_spec_example() {
        // MixColumns example from FIPS-197: column db 13 53 45 -> 8e 4d a1 bc.
        // So InvMixColumns must map it back.
        let mixed = u32::from_be_bytes([0x8e, 0x4d, 0xa1, 0xbc]);
        let original = u32::from_be_bytes([0xdb, 0x13, 0x53, 0x45]);
        assert_eq!(inv_mix_column_word(mixed), original);
    }

    #[test]
    fn table_sizes_match_paper_accounting() {
        // The paper's Table 4 counts "2 Round Tables" at 2048 bytes total.
        assert_eq!(2 * TABLE_BYTES, 2048);
    }
}
