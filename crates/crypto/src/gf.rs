//! Arithmetic in GF(2^8), the finite field underlying AES.
//!
//! AES works in GF(2^8) with the reduction polynomial
//! `x^8 + x^4 + x^3 + x + 1` (0x11B). The paper's Table 4 notes that AES
//! implementations precompute "the exponentiation of 2 in a particular
//! field, such as GF(2^8)" into lookup tables whose *access patterns* are
//! sensitive even though their contents are public. This module provides
//! the primitive operations those tables are built from.

/// The AES reduction polynomial, minus the x^8 term (which is implicit in
/// the carry-out of a byte shift).
pub(crate) const REDUCTION_POLY: u8 = 0x1B;

/// Multiply an element of GF(2^8) by `x` (i.e., by 2), reducing modulo the
/// AES polynomial.
#[must_use]
pub(crate) fn xtime(a: u8) -> u8 {
    let shifted = a << 1;
    if a & 0x80 != 0 {
        shifted ^ REDUCTION_POLY
    } else {
        shifted
    }
}

/// Multiply two elements of GF(2^8) using the shift-and-add ("Russian
/// peasant") method.
#[must_use]
pub(crate) fn mul(a: u8, b: u8) -> u8 {
    let mut acc = 0u8;
    let mut a = a;
    let mut b = b;
    while b != 0 {
        if b & 1 != 0 {
            acc ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    acc
}

/// Compute the multiplicative inverse of `a` in GF(2^8).
///
/// The inverse of zero is defined to be zero, as in the AES S-box
/// construction. Uses exponentiation: `a^254 = a^-1` for nonzero `a`,
/// since the multiplicative group has order 255.
#[must_use]
pub(crate) fn inv(a: u8) -> u8 {
    if a == 0 {
        return 0;
    }
    // a^254 by square-and-multiply. 254 = 0b1111_1110.
    let mut result = 1u8;
    let mut base = a;
    let mut exp = 254u32;
    while exp > 0 {
        if exp & 1 != 0 {
            result = mul(result, base);
        }
        base = mul(base, base);
        exp >>= 1;
    }
    result
}

/// Multiply a GF(2^8) element by 3 (`{03}`), used by MixColumns.
#[must_use]
pub(crate) fn mul3(a: u8) -> u8 {
    xtime(a) ^ a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xtime_matches_spec_examples() {
        // FIPS-197 section 4.2.1 chain for {57}: x2 = AE, x4 = 47, x8 = 8E.
        assert_eq!(xtime(0x57), 0xAE);
        assert_eq!(xtime(0xAE), 0x47);
        assert_eq!(xtime(0x47), 0x8E);
        assert_eq!(xtime(0x8E), 0x07);
    }

    #[test]
    fn mul_matches_the_fips_example() {
        // FIPS-197 section 4.2: {57} x {83} = {c1}.
        assert_eq!(mul(0x57, 0x83), 0xC1);
    }

    #[test]
    fn mul_identity_and_zero() {
        for a in 0..=255u8 {
            assert_eq!(mul(a, 1), a);
            assert_eq!(mul(1, a), a);
            assert_eq!(mul(a, 0), 0);
            assert_eq!(mul(0, a), 0);
        }
    }

    #[test]
    fn mul_is_commutative() {
        for a in (0..=255u8).step_by(7) {
            for b in (0..=255u8).step_by(5) {
                assert_eq!(mul(a, b), mul(b, a));
            }
        }
    }

    #[test]
    fn mul_distributes_over_xor() {
        for a in (0..=255u8).step_by(11) {
            for b in (0..=255u8).step_by(13) {
                for c in (0..=255u8).step_by(17) {
                    assert_eq!(mul(a, b ^ c), mul(a, b) ^ mul(a, c));
                }
            }
        }
    }

    #[test]
    fn inv_is_involutive_inverse() {
        assert_eq!(inv(0), 0);
        for a in 1..=255u8 {
            let ai = inv(a);
            assert_eq!(mul(a, ai), 1, "a = {a:#x}, inv = {ai:#x}");
            assert_eq!(inv(ai), a);
        }
    }

    #[test]
    fn mul3_matches_mul() {
        for a in 0..=255u8 {
            assert_eq!(mul3(a), mul(a, 3));
        }
    }
}
