//! The AES S-box and inverse S-box, computed from first principles.
//!
//! The S-box maps each byte to the affine transform of its multiplicative
//! inverse in GF(2^8). We compute it rather than hard-coding it, and the
//! test suite verifies the computed values against the FIPS-197 published
//! constants (spot-checked corners plus full-table invariants).
//!
//! In the paper's state classification (Table 4), the S-box and inverse
//! S-box are *access-protected* state: their contents are public, but the
//! sequence of indices an encryption touches leaks key material to a bus
//! monitor (Tromer, Osvik, Shamir — "Efficient cache attacks on AES").

use crate::gf;
use std::sync::OnceLock;

/// Size in bytes of one S-box table.
pub(crate) const SBOX_SIZE: usize = 256;

/// Apply the AES affine transformation to a byte (after inversion).
fn affine(q: u8) -> u8 {
    q ^ q.rotate_left(1) ^ q.rotate_left(2) ^ q.rotate_left(3) ^ q.rotate_left(4) ^ 0x63
}

/// Compute the forward S-box table.
#[must_use]
pub(crate) fn compute_sbox() -> [u8; SBOX_SIZE] {
    let mut table = [0u8; SBOX_SIZE];
    for (i, slot) in table.iter_mut().enumerate() {
        *slot = affine(gf::inv(i as u8));
    }
    table
}

/// Compute the inverse S-box table (used by decryption's InvSubBytes).
#[must_use]
pub(crate) fn compute_inv_sbox() -> [u8; SBOX_SIZE] {
    let sbox = compute_sbox();
    let mut inv = [0u8; SBOX_SIZE];
    for (i, &v) in sbox.iter().enumerate() {
        inv[v as usize] = i as u8;
    }
    inv
}

/// Shared, lazily-computed forward S-box.
///
/// The returned reference is to a process-wide table; callers that need
/// their state placement controlled (AES On SoC) must instead copy the
/// table into their [`crate::tracked::StateStore`].
#[must_use]
pub fn sbox() -> &'static [u8; SBOX_SIZE] {
    static SBOX: OnceLock<[u8; SBOX_SIZE]> = OnceLock::new();
    SBOX.get_or_init(compute_sbox)
}

/// Shared, lazily-computed inverse S-box.
#[must_use]
pub(crate) fn inv_sbox() -> &'static [u8; SBOX_SIZE] {
    static INV: OnceLock<[u8; SBOX_SIZE]> = OnceLock::new();
    INV.get_or_init(compute_inv_sbox)
}

/// Substitute one byte through the forward S-box.
#[must_use]
pub(crate) fn sub_byte(b: u8) -> u8 {
    sbox()[b as usize]
}

/// Substitute one byte through the inverse S-box.
#[must_use]
pub(crate) fn inv_sub_byte(b: u8) -> u8 {
    inv_sbox()[b as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Known values from the FIPS-197 Figure 7 S-box table.
    const KNOWN: &[(u8, u8)] = &[
        (0x00, 0x63),
        (0x01, 0x7C),
        (0x10, 0xCA),
        (0x53, 0xED),
        (0x7F, 0xD2),
        (0x80, 0xCD),
        (0xAA, 0xAC),
        (0xFF, 0x16),
    ];

    #[test]
    fn sbox_matches_published_constants() {
        let sb = sbox();
        for &(input, expected) in KNOWN {
            assert_eq!(sb[input as usize], expected, "sbox[{input:#04x}]");
        }
    }

    #[test]
    fn sbox_is_a_permutation() {
        let sb = sbox();
        let mut seen = [false; 256];
        for &v in sb.iter() {
            assert!(!seen[v as usize], "duplicate S-box output {v:#04x}");
            seen[v as usize] = true;
        }
    }

    #[test]
    fn inv_sbox_inverts_sbox() {
        let sb = sbox();
        let inv = inv_sbox();
        for i in 0..=255u8 {
            assert_eq!(inv[sb[i as usize] as usize], i);
            assert_eq!(sb[inv[i as usize] as usize], i);
        }
    }

    #[test]
    fn sbox_has_no_fixed_points() {
        // A classical design property of the AES S-box: S(a) != a and
        // S(a) != complement(a) for all a.
        let sb = sbox();
        for i in 0..=255u8 {
            assert_ne!(sb[i as usize], i);
            assert_ne!(sb[i as usize], !i);
        }
    }
}
