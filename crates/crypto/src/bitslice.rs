//! Bitsliced, table-free AES processing 16 blocks per invocation.
//!
//! The scalar [`crate::block::Aes`] walks T-tables with *data-dependent*
//! indices, which is why the paper must place 2 600 bytes of tables in
//! access-protected memory (Table 4). This module takes the opposite
//! approach, following Käsper & Schwabe (CHES 2009): the state of many
//! blocks is transposed into *bit planes* — word `i` holds bit `7-i` of
//! every state byte — and SubBytes becomes a fixed boolean circuit
//! (Boyar–Peralta, 113 gates) evaluated on whole words. There are **no
//! lookup tables at all**, so
//!
//! * every memory access touches a *data-independent* address, removing
//!   the cache/bus side channel the paper defends with access-protected
//!   placement, and
//! * throughput rises because each gate of the circuit operates on all
//!   packed blocks at once.
//!
//! The classic formulation packs 8 blocks into 128-bit registers; we widen
//! the same layout to 16 blocks (256 bit-lanes held as `[u64; 4]`) so the
//! straight-line gate code fills a 256-bit SIMD datapath when the target
//! supports one, and still vectorizes to pairs of 128-bit ops otherwise.
//!
//! Only whole-block *batches* benefit: CBC encryption is serially chained
//! and keeps using the scalar path. CBC **decryption** and CTR keystream
//! generation are data-parallel and are driven through
//! [`crate::batch::BlockCipherBatch`].
//!
//! Lane layout: lane `l = 64*c + 16*r + b` of bit-plane word `i` holds bit
//! `7-i` of state byte `(row r, column c)` of block `b`. Element `c` of
//! the `[u64; 4]` is therefore one AES state *column* across all 16
//! blocks, which makes ShiftRows an element permutation plus masks and
//! MixColumns a set of 16-bit rotations within each element.

use crate::block::Block;
use crate::key_schedule::KeySchedule;
use crate::modes::BlockCipher;
use crate::{KeyError, KeySize, BLOCK_SIZE};
use core::ops::{BitAnd, BitOr, BitXor, Not};

/// Number of blocks one bitsliced state packs (16 blocks = 256 lanes).
pub(crate) const PAR_BLOCKS: usize = 16;

/// One bit-plane word: 256 lanes as four 64-bit limbs.
///
/// Element `c` carries AES state column `c`; within an element, bits
/// `16*r..16*r+16` carry row `r` of the 16 packed blocks.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Bw(pub(crate) [u64; 4]);

impl Bw {
    pub(crate) const ZERO: Bw = Bw([0; 4]);
    pub(crate) const ONES: Bw = Bw([u64::MAX; 4]);

    /// Rotate the row index of every lane by `j` (row `r` reads row
    /// `r + j mod 4` of the same column). A 16-bit rotation within each
    /// element, because one element is exactly four 16-bit row groups.
    #[inline(always)]
    fn rot_rows(self, j: u32) -> Bw {
        let n = 16 * j;
        Bw([
            self.0[0].rotate_right(n),
            self.0[1].rotate_right(n),
            self.0[2].rotate_right(n),
            self.0[3].rotate_right(n),
        ])
    }
}

impl BitXor for Bw {
    type Output = Bw;
    #[inline(always)]
    fn bitxor(self, o: Bw) -> Bw {
        Bw([
            self.0[0] ^ o.0[0],
            self.0[1] ^ o.0[1],
            self.0[2] ^ o.0[2],
            self.0[3] ^ o.0[3],
        ])
    }
}

impl BitAnd for Bw {
    type Output = Bw;
    #[inline(always)]
    fn bitand(self, o: Bw) -> Bw {
        Bw([
            self.0[0] & o.0[0],
            self.0[1] & o.0[1],
            self.0[2] & o.0[2],
            self.0[3] & o.0[3],
        ])
    }
}

impl BitOr for Bw {
    type Output = Bw;
    #[inline(always)]
    fn bitor(self, o: Bw) -> Bw {
        Bw([
            self.0[0] | o.0[0],
            self.0[1] | o.0[1],
            self.0[2] | o.0[2],
            self.0[3] | o.0[3],
        ])
    }
}

impl Not for Bw {
    type Output = Bw;
    #[inline(always)]
    fn not(self) -> Bw {
        Bw([!self.0[0], !self.0[1], !self.0[2], !self.0[3]])
    }
}

/// Element type the boolean-circuit round functions operate on: either a
/// whole [`Bw`] (256 lanes) or a single `u64` limb (64 lanes).
///
/// The hot path evaluates the circuit one limb at a time — the S-box keeps
/// ~40 values live and four-limb values quadruple the spill traffic, while
/// the compiler happily re-vectorizes the short independent limb loop.
trait Lanes:
    Copy + BitXor<Output = Self> + BitAnd<Output = Self> + BitOr<Output = Self> + Not<Output = Self>
{
    /// All-ones constant (for the NOT gates of the affine layers).
    const ONES: Self;
    /// Rotate the row index of every lane by `j`.
    fn rot_rows(self, j: u32) -> Self;
}

impl Lanes for Bw {
    const ONES: Bw = Bw::ONES;
    #[inline(always)]
    fn rot_rows(self, j: u32) -> Bw {
        Bw::rot_rows(self, j)
    }
}

impl Lanes for u64 {
    const ONES: u64 = u64::MAX;
    #[inline(always)]
    fn rot_rows(self, j: u32) -> u64 {
        self.rotate_right(16 * j)
    }
}

// ---------------------------------------------------------------------------
// Packing: 16 blocks <-> 8 bit-plane words.
// ---------------------------------------------------------------------------

/// Swap the bits of `q[lo]` selected by `m << n` with the bits of `q[hi]`
/// selected by `m` (the classic SWAPMOVE primitive).
#[inline(always)]
fn swapmove(q: &mut [u64; 8], lo: usize, hi: usize, m: u64, n: u32) {
    let t = ((q[lo] >> n) ^ q[hi]) & m;
    q[hi] ^= t;
    q[lo] ^= t << n;
}

/// In-place 8×8 bit transpose across eight words: afterwards word `t` bit
/// `8j + k` equals the original word `k` bit `8j + t`. Involutive, so the
/// same network packs and unpacks.
#[inline(always)]
fn transpose8(q: &mut [u64; 8]) {
    const M1: u64 = 0x5555_5555_5555_5555;
    const M2: u64 = 0x3333_3333_3333_3333;
    const M4: u64 = 0x0f0f_0f0f_0f0f_0f0f;
    swapmove(q, 0, 1, M1, 1);
    swapmove(q, 2, 3, M1, 1);
    swapmove(q, 4, 5, M1, 1);
    swapmove(q, 6, 7, M1, 1);
    swapmove(q, 0, 2, M2, 2);
    swapmove(q, 1, 3, M2, 2);
    swapmove(q, 4, 6, M2, 2);
    swapmove(q, 5, 7, M2, 2);
    swapmove(q, 0, 4, M4, 4);
    swapmove(q, 1, 5, M4, 4);
    swapmove(q, 2, 6, M4, 4);
    swapmove(q, 3, 7, M4, 4);
}

/// Spread the four bytes of `v` to the even byte positions of a `u64`
/// (byte `r` of `v` lands at byte `2r`).
#[inline(always)]
fn spread(v: u32) -> u64 {
    let x = u64::from(v);
    let x = (x | (x << 16)) & 0x0000_FFFF_0000_FFFF;
    (x | (x << 8)) & 0x00FF_00FF_00FF_00FF
}

/// Inverse of [`spread`]: gather the even byte positions back into a `u32`.
#[inline(always)]
fn unspread(x: u64) -> u32 {
    let x = x & 0x00FF_00FF_00FF_00FF;
    let x = (x | (x >> 8)) & 0x0000_FFFF_0000_FFFF;
    ((x | (x >> 16)) & 0xFFFF_FFFF) as u32
}

/// Transpose 16 blocks into 8 bit-plane words (`s[i]` = bit `7-i`).
///
/// Per column `c`, the transpose network wants source byte `L(m)` (lane
/// `m = 16r + b`) at word `m & 7`, byte-index `m >> 3` — i.e. word `k`
/// alternates bytes of block `k` and block `k + 8` walking down the rows,
/// which is exactly a byte-interleave of the two blocks' column words.
pub(crate) fn pack16(blocks: &[Block; PAR_BLOCKS]) -> [Bw; 8] {
    let mut s = [Bw::ZERO; 8];
    for c in 0..4 {
        let mut col = [0u32; PAR_BLOCKS];
        for (b, v) in col.iter_mut().enumerate() {
            let bytes = &blocks[b][4 * c..4 * c + 4];
            *v = u32::from_le_bytes(bytes.try_into().expect("4-byte column"));
        }
        let mut q = [0u64; 8];
        for (k, w) in q.iter_mut().enumerate() {
            *w = spread(col[k]) | (spread(col[k + 8]) << 8);
        }
        transpose8(&mut q);
        for (t, w) in q.iter().enumerate() {
            s[7 - t].0[c] = *w;
        }
    }
    s
}

/// Inverse of [`pack16`].
pub(crate) fn unpack16(s: &[Bw; 8], blocks: &mut [Block; PAR_BLOCKS]) {
    for c in 0..4 {
        let mut q = [0u64; 8];
        for (t, w) in q.iter_mut().enumerate() {
            *w = s[7 - t].0[c];
        }
        transpose8(&mut q);
        for (k, w) in q.iter().enumerate() {
            let lo = unspread(*w);
            let hi = unspread(*w >> 8);
            blocks[k][4 * c..4 * c + 4].copy_from_slice(&lo.to_le_bytes());
            blocks[k + 8][4 * c..4 * c + 4].copy_from_slice(&hi.to_le_bytes());
        }
    }
}

// ---------------------------------------------------------------------------
// Round transformations.
// ---------------------------------------------------------------------------

const ROW0: u64 = 0xFFFF;
const ROW1: u64 = 0xFFFF << 16;
const ROW2: u64 = 0xFFFF << 32;
const ROW3: u64 = 0xFFFF << 48;

/// ShiftRows on one bit-plane word: column `c`, row `r` reads column
/// `(c + r) mod 4`, row `r`.
#[inline(always)]
fn shift_rows_word(w: Bw) -> Bw {
    let a = w.0;
    Bw([
        (a[0] & ROW0) | (a[1] & ROW1) | (a[2] & ROW2) | (a[3] & ROW3),
        (a[1] & ROW0) | (a[2] & ROW1) | (a[3] & ROW2) | (a[0] & ROW3),
        (a[2] & ROW0) | (a[3] & ROW1) | (a[0] & ROW2) | (a[1] & ROW3),
        (a[3] & ROW0) | (a[0] & ROW1) | (a[1] & ROW2) | (a[2] & ROW3),
    ])
}

/// InvShiftRows: column `c`, row `r` reads column `(c - r) mod 4`, row `r`.
#[inline(always)]
fn inv_shift_rows_word(w: Bw) -> Bw {
    let a = w.0;
    Bw([
        (a[0] & ROW0) | (a[3] & ROW1) | (a[2] & ROW2) | (a[1] & ROW3),
        (a[1] & ROW0) | (a[0] & ROW1) | (a[3] & ROW2) | (a[2] & ROW3),
        (a[2] & ROW0) | (a[1] & ROW1) | (a[0] & ROW2) | (a[3] & ROW3),
        (a[3] & ROW0) | (a[2] & ROW1) | (a[1] & ROW2) | (a[0] & ROW3),
    ])
}

#[inline(always)]
fn shift_rows(s: &mut [Bw; 8]) {
    for w in s.iter_mut() {
        *w = shift_rows_word(*w);
    }
}

#[inline(always)]
fn inv_shift_rows(s: &mut [Bw; 8]) {
    for w in s.iter_mut() {
        *w = inv_shift_rows_word(*w);
    }
}

/// Multiply every lane byte by `x` in GF(2^8) (`xtime`): a bit-plane
/// renaming plus three reduction XORs (0x1b = bits 0, 1, 3, 4). Index `i`
/// is MSB-first (plane `i` = bit `7-i`).
#[inline(always)]
fn xtime<L: Lanes>(a: &[L; 8]) -> [L; 8] {
    [
        a[1],
        a[2],
        a[3],
        a[4] ^ a[0],
        a[5] ^ a[0],
        a[6],
        a[7] ^ a[0],
        a[0],
    ]
}

/// MixColumns on the full bitsliced state.
///
/// With `t_r = a_r ^ a_{r+1}` the column transform is
/// `b_r = xtime(t_r) ^ a_r ^ t_r ^ t_{r+2}` — two row rotations and one
/// `xtime` per plane.
#[inline(always)]
fn mix_columns<L: Lanes>(s: &mut [L; 8]) {
    let mut t = *s;
    for i in 0..8 {
        t[i] = s[i] ^ s[i].rot_rows(1);
    }
    let xt = xtime(&t);
    for i in 0..8 {
        s[i] = xt[i] ^ s[i] ^ t[i] ^ t[i].rot_rows(2);
    }
}

/// InvMixColumns via the decomposition
/// `InvMC(a) = MC(a ^ 04·(a ^ a_{r+2}))` (coefficients 9/11/13/14 factor
/// through the forward matrix), avoiding a second full GF multiply tree.
#[inline(always)]
fn inv_mix_columns<L: Lanes>(s: &mut [L; 8]) {
    let mut u = *s;
    for i in 0..8 {
        u[i] = s[i] ^ s[i].rot_rows(2);
    }
    let x4 = xtime(&xtime(&u));
    for i in 0..8 {
        s[i] = s[i] ^ x4[i];
    }
    mix_columns(s);
}

#[inline(always)]
fn add_round_key(s: &mut [Bw; 8], rk: &[Bw; 8]) {
    for i in 0..8 {
        s[i] = s[i] ^ rk[i];
    }
}

// ---------------------------------------------------------------------------
// SubBytes as a boolean circuit.
// ---------------------------------------------------------------------------

/// Shared nonlinear middle section of the Boyar–Peralta S-box circuit
/// (the GF(2^8) inversion in their tower basis). Inputs are the 22 linear
/// signals `[u7, y1..y21]`; outputs are the 18 shared products `z0..z17`.
/// Both the forward and the inverse S-box reuse this section with
/// different linear layers around it.
#[inline(always)]
#[allow(clippy::many_single_char_names)]
fn sbox_middle<L: Lanes>(sig: &[L; 22]) -> [L; 18] {
    let [u7, y1, y2, y3, y4, y5, y6, y7, y8, y9, y10, y11, y12, y13, y14, y15, y16, y17, y18, y19, y20, y21] =
        *sig;
    let t2 = y12 & y15;
    let t3 = y3 & y6;
    let t4 = t3 ^ t2;
    let t5 = y4 & u7;
    let t6 = t5 ^ t2;
    let t7 = y13 & y16;
    let t8 = y5 & y1;
    let t9 = t8 ^ t7;
    let t10 = y2 & y7;
    let t11 = t10 ^ t7;
    let t12 = y9 & y11;
    let t13 = y14 & y17;
    let t14 = t13 ^ t12;
    let t15 = y8 & y10;
    let t16 = t15 ^ t12;
    let t17 = t4 ^ t14;
    let t18 = t6 ^ t16;
    let t19 = t9 ^ t14;
    let t20 = t11 ^ t16;
    let t21 = t17 ^ y20;
    let t22 = t18 ^ y19;
    let t23 = t19 ^ y21;
    let t24 = t20 ^ y18;
    let t25 = t21 ^ t22;
    let t26 = t21 & t23;
    let t27 = t24 ^ t26;
    let t28 = t25 & t27;
    let t29 = t28 ^ t22;
    let t30 = t23 ^ t24;
    let t31 = t22 ^ t26;
    let t32 = t31 & t30;
    let t33 = t32 ^ t24;
    let t34 = t23 ^ t33;
    let t35 = t27 ^ t33;
    let t36 = t24 & t35;
    let t37 = t36 ^ t34;
    let t38 = t27 ^ t36;
    let t39 = t29 & t38;
    let t40 = t25 ^ t39;
    let t41 = t40 ^ t37;
    let t42 = t29 ^ t33;
    let t43 = t29 ^ t40;
    let t44 = t33 ^ t37;
    let t45 = t42 ^ t41;
    [
        t44 & y15,
        t37 & y6,
        t33 & u7,
        t43 & y16,
        t40 & y1,
        t29 & y7,
        t42 & y11,
        t45 & y17,
        t41 & y10,
        t44 & y12,
        t37 & y3,
        t33 & y4,
        t43 & y13,
        t40 & y5,
        t29 & y2,
        t42 & y9,
        t45 & y14,
        t41 & y8,
    ]
}

/// Forward SubBytes: Boyar–Peralta top/bottom linear layers around
/// [`sbox_middle`]. `s[i]` is bit-plane `7-i` (so `s[0]` is `U0`, the MSB,
/// in the circuit's convention).
#[inline(always)]
fn sub_bytes<L: Lanes>(s: &mut [L; 8]) {
    let [u0, u1, u2, u3, u4, u5, u6, u7] = *s;
    let y14 = u3 ^ u5;
    let y13 = u0 ^ u6;
    let y9 = u0 ^ u3;
    let y8 = u0 ^ u5;
    let t0 = u1 ^ u2;
    let y1 = t0 ^ u7;
    let y4 = y1 ^ u3;
    let y12 = y13 ^ y14;
    let y2 = y1 ^ u0;
    let y5 = y1 ^ u6;
    let y3 = y5 ^ y8;
    let t1 = u4 ^ y12;
    let y15 = t1 ^ u5;
    let y20 = t1 ^ u1;
    let y6 = y15 ^ u7;
    let y10 = y15 ^ t0;
    let y11 = y20 ^ y9;
    let y7 = u7 ^ y11;
    let y17 = y10 ^ y11;
    let y19 = y10 ^ y8;
    let y16 = t0 ^ y11;
    let y21 = y13 ^ y16;
    let y18 = u0 ^ y16;
    let z = sbox_middle(&[
        u7, y1, y2, y3, y4, y5, y6, y7, y8, y9, y10, y11, y12, y13, y14, y15, y16, y17, y18, y19,
        y20, y21,
    ]);
    let [z0, z1, z2, z3, z4, z5, z6, z7, z8, z9, z10, z11, z12, z13, z14, z15, z16, z17] = z;
    let t46 = z15 ^ z16;
    let t47 = z10 ^ z11;
    let t48 = z5 ^ z13;
    let t49 = z9 ^ z10;
    let t50 = z2 ^ z12;
    let t51 = z2 ^ z5;
    let t52 = z7 ^ z8;
    let t53 = z0 ^ z3;
    let t54 = z6 ^ z7;
    let t55 = z16 ^ z17;
    let t56 = z12 ^ t48;
    let t57 = t50 ^ t53;
    let t58 = z4 ^ t46;
    let t59 = z3 ^ t54;
    let t60 = t46 ^ t57;
    let t61 = z14 ^ t57;
    let t62 = t52 ^ t58;
    let t63 = t49 ^ t58;
    let t64 = z4 ^ t59;
    let t65 = t61 ^ t62;
    let t66 = z1 ^ t63;
    let s0 = t59 ^ t63;
    let s6 = !(t56 ^ t62);
    let s7 = !(t48 ^ t60);
    let t67 = t64 ^ t65;
    let s3 = t53 ^ t66;
    let s4 = t51 ^ t66;
    let s5 = t47 ^ t65;
    let s1 = !(t64 ^ s3);
    let s2 = !(t55 ^ t67);
    *s = [s0, s1, s2, s3, s4, s5, s6, s7];
}

/// Inverse SubBytes: the same [`sbox_middle`] wrapped in linear layers
/// composed with the inverse affine transform. These layers were derived
/// mechanically over GF(2) from the forward circuit (compose the top layer
/// with `InvAffine` and the bottom layer with `A^-1`) and verified
/// exhaustively against the inverse S-box table; see the module tests.
#[inline(always)]
fn inv_sub_bytes<L: Lanes>(s: &mut [L; 8]) {
    let [x0, x1, x2, x3, x4, x5, x6, x7] = *s;
    let ones = L::ONES;
    let u7 = x0 ^ x2 ^ x5 ^ ones;
    let y1 = x3 ^ x4 ^ x7 ^ ones;
    let y2 = x1 ^ x4 ^ x6 ^ x7 ^ ones;
    let y3 = x0 ^ x3;
    let y4 = x1 ^ x3 ^ x6 ^ x7 ^ ones;
    let y5 = x1 ^ x3 ^ ones;
    let y6 = x0 ^ x1 ^ x3 ^ ones;
    let y7 = x1 ^ x2 ^ x3 ^ x6 ^ x7;
    let y8 = x0 ^ x1 ^ ones;
    let y9 = x3 ^ x4;
    let y10 = x0 ^ x1 ^ x4 ^ x7;
    let y11 = x0 ^ x1 ^ x3 ^ x5 ^ x6 ^ x7 ^ ones;
    let y12 = x0 ^ x1 ^ x6 ^ x7 ^ ones;
    let y13 = x3 ^ x4 ^ x6 ^ x7;
    let y14 = x0 ^ x1 ^ x3 ^ x4 ^ ones;
    let y15 = x1 ^ x2 ^ x3 ^ x5;
    let y16 = x1 ^ x2 ^ x4 ^ x6 ^ ones;
    let y17 = x3 ^ x4 ^ x5 ^ x6 ^ ones;
    let y18 = x2 ^ x3 ^ x4 ^ ones;
    let y19 = x4 ^ x7 ^ ones;
    let y20 = x0 ^ x1 ^ x4 ^ x5 ^ x6 ^ x7 ^ ones;
    let y21 = x1 ^ x2 ^ x3 ^ x7 ^ ones;
    let z = sbox_middle(&[
        u7, y1, y2, y3, y4, y5, y6, y7, y8, y9, y10, y11, y12, y13, y14, y15, y16, y17, y18, y19,
        y20, y21,
    ]);
    let [z0, z1, z2, z3, z4, z5, z6, z7, z8, z9, z10, z11, z12, z13, z14, z15, z16, z17] = z;
    let w0 = z3 ^ z5 ^ z6 ^ z8 ^ z12 ^ z13 ^ z15 ^ z16;
    let w1 = z1 ^ z2 ^ z3 ^ z4 ^ z6 ^ z8 ^ z9 ^ z10 ^ z13 ^ z14 ^ z15 ^ z17;
    let w2 = z1 ^ z2 ^ z3 ^ z4 ^ z6 ^ z8 ^ z10 ^ z11 ^ z12 ^ z14 ^ z15 ^ z16;
    let w3 = z0 ^ z2 ^ z6 ^ z8 ^ z12 ^ z13 ^ z15 ^ z16;
    let w4 = z0 ^ z2 ^ z4 ^ z5 ^ z6 ^ z7 ^ z10 ^ z11 ^ z12 ^ z13 ^ z15 ^ z17;
    let w5 = z0 ^ z1 ^ z4 ^ z5 ^ z6 ^ z8 ^ z12 ^ z13 ^ z15 ^ z16;
    let w6 = z3 ^ z4 ^ z6 ^ z7 ^ z12 ^ z13 ^ z15 ^ z16;
    let w7 = z9 ^ z11 ^ z15 ^ z17;
    *s = [w0, w1, w2, w3, w4, w5, w6, w7];
}

// ---------------------------------------------------------------------------
// Full cipher over one packed state.
// ---------------------------------------------------------------------------

/// Encrypt 16 packed blocks, fetching the bitsliced round key `r` through
/// `rk`. The closure indirection lets [`crate::tracked`] route every key
/// fetch through a [`crate::tracked::StateStore`] while sharing this exact
/// round flow.
pub(crate) fn encrypt16_with(
    rounds: usize,
    mut rk: impl FnMut(usize) -> [Bw; 8],
    blocks: &mut [Block; PAR_BLOCKS],
) {
    let mut s = pack16(blocks);
    add_round_key(&mut s, &rk(0));
    for round in 1..rounds {
        enc_round(&mut s, &rk(round));
    }
    enc_last_round(&mut s, &rk(rounds));
    unpack16(&s, blocks);
}

/// Decrypt 16 packed blocks using the *equivalent inverse cipher*: the
/// keys fetched through `rk` must come from
/// [`KeySchedule::dec_words`]-style schedules (rounds reversed,
/// InvMixColumns folded into the middle round keys).
pub(crate) fn decrypt16_with(
    rounds: usize,
    mut rk: impl FnMut(usize) -> [Bw; 8],
    blocks: &mut [Block; PAR_BLOCKS],
) {
    let mut s = pack16(blocks);
    add_round_key(&mut s, &rk(0));
    for round in 1..rounds {
        dec_round(&mut s, &rk(round));
    }
    dec_last_round(&mut s, &rk(rounds));
    unpack16(&s, blocks);
}

/// Fast path of [`encrypt16_with`] over a pre-bitsliced schedule slice
/// (`rks[r]` = round `r`), reading round keys in place instead of copying
/// them out of a closure.
#[inline]
pub(crate) fn encrypt16(rks: &[[Bw; 8]], blocks: &mut [Block; PAR_BLOCKS]) {
    let mut s = pack16(blocks);
    encrypt_planes(rks, &mut s);
    unpack16(&s, blocks);
}

/// One chain step on packed chain values: fold in the 16 message
/// blocks, then encipher. Kept out of line so the rounds compile once,
/// as in [`encrypt16`], rather than into every caller's feed loop.
#[inline(never)]
fn absorb16(rks: &[[Bw; 8]], s: &mut [Bw; 8], msgs: &[Block; PAR_BLOCKS]) {
    let m = pack16(msgs);
    for (plane, mp) in s.iter_mut().zip(&m) {
        *plane = *plane ^ *mp;
    }
    encrypt_planes(rks, s);
}

/// The rounds of [`encrypt16`] on an already packed state.
#[inline(always)]
fn encrypt_planes(rks: &[[Bw; 8]], s: &mut [Bw; 8]) {
    let rounds = rks.len() - 1;
    add_round_key(s, &rks[0]);
    for rk in &rks[1..rounds] {
        enc_round(s, rk);
    }
    enc_last_round(s, &rks[rounds]);
}

/// Fast path of [`decrypt16_with`] over a pre-bitsliced *equivalent
/// inverse* schedule slice.
#[inline]
pub(crate) fn decrypt16(rks: &[[Bw; 8]], blocks: &mut [Block; PAR_BLOCKS]) {
    let rounds = rks.len() - 1;
    let mut s = pack16(blocks);
    add_round_key(&mut s, &rks[0]);
    for rk in &rks[1..rounds] {
        dec_round(&mut s, rk);
    }
    dec_last_round(&mut s, &rks[rounds]);
    unpack16(&s, blocks);
}

/// Copy limb `e` of every plane out into a flat `[u64; 8]`.
#[inline(always)]
fn limb(s: &[Bw; 8], e: usize) -> [u64; 8] {
    [
        s[0].0[e], s[1].0[e], s[2].0[e], s[3].0[e], s[4].0[e], s[5].0[e], s[6].0[e], s[7].0[e],
    ]
}

/// One middle encryption round. ShiftRows is a byte permutation, so it
/// commutes with the byte-local SubBytes; doing it first as its own pass
/// leaves SubBytes, MixColumns, and AddRoundKey all *limb-local* (row
/// rotations never cross `[u64; 4]` elements), letting the limb loop run
/// the whole remainder of the round with 8 live words instead of 8×4.
/// (Folding ShiftRows into the limb gather instead was measured ~2.5×
/// slower: the cross-element reads break the loop's vectorizable shape.)
#[inline(always)]
fn enc_round(s: &mut [Bw; 8], rk: &[Bw; 8]) {
    shift_rows(s);
    for e in 0..4 {
        let mut l = limb(s, e);
        sub_bytes(&mut l);
        mix_columns(&mut l);
        for i in 0..8 {
            s[i].0[e] = l[i] ^ rk[i].0[e];
        }
    }
}

/// The final encryption round (no MixColumns).
#[inline(always)]
fn enc_last_round(s: &mut [Bw; 8], rk: &[Bw; 8]) {
    shift_rows(s);
    for e in 0..4 {
        let mut l = limb(s, e);
        sub_bytes(&mut l);
        for i in 0..8 {
            s[i].0[e] = l[i] ^ rk[i].0[e];
        }
    }
}

/// One middle round of the equivalent inverse cipher (InvShiftRows
/// commutes with InvSubBytes just like the forward pair).
#[inline(always)]
fn dec_round(s: &mut [Bw; 8], rk: &[Bw; 8]) {
    inv_shift_rows(s);
    for e in 0..4 {
        let mut l = limb(s, e);
        inv_sub_bytes(&mut l);
        inv_mix_columns(&mut l);
        for i in 0..8 {
            s[i].0[e] = l[i] ^ rk[i].0[e];
        }
    }
}

/// The final decryption round (no InvMixColumns).
#[inline(always)]
fn dec_last_round(s: &mut [Bw; 8], rk: &[Bw; 8]) {
    inv_shift_rows(s);
    for e in 0..4 {
        let mut l = limb(s, e);
        inv_sub_bytes(&mut l);
        for i in 0..8 {
            s[i].0[e] = l[i] ^ rk[i].0[e];
        }
    }
}

/// `SubWord` (FIPS-197 §5.2) evaluated through the Boyar–Peralta circuit
/// instead of an S-box table: the four bytes ride in lanes 0..4 of a
/// `u64`-plane state. Used by the table-free tracked key expansion, where
/// even key-schedule byte substitution must not index memory with
/// key-dependent addresses.
pub(crate) fn sub_word_circuit(w: u32) -> u32 {
    let bytes = w.to_be_bytes();
    let mut s = [0u64; 8];
    for (b, &byte) in bytes.iter().enumerate() {
        for (i, plane) in s.iter_mut().enumerate() {
            if byte >> (7 - i) & 1 != 0 {
                *plane |= 1 << b;
            }
        }
    }
    sub_bytes(&mut s);
    let mut out = [0u8; 4];
    for (b, o) in out.iter_mut().enumerate() {
        for (i, plane) in s.iter().enumerate() {
            *o |= (((plane >> b) & 1) as u8) << (7 - i);
        }
    }
    u32::from_be_bytes(out)
}

/// Broadcast one scalar round key (four big-endian columns, as stored by
/// [`KeySchedule`]) into bit planes: every block lane of column `c`, row
/// `r` receives bit `7-i` of key byte `4c + r`.
pub(crate) fn bitslice_round_key(words: &[u32]) -> [Bw; 8] {
    let mut out = [Bw::ZERO; 8];
    for (c, word) in words.iter().enumerate().take(4) {
        let bytes = word.to_be_bytes();
        for (r, byte) in bytes.iter().enumerate() {
            for (i, plane) in out.iter_mut().enumerate() {
                if byte >> (7 - i) & 1 != 0 {
                    plane.0[c] |= ROW0 << (16 * r);
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Public context.
// ---------------------------------------------------------------------------

/// A table-free bitsliced AES context with pre-bitsliced round keys.
///
/// Key expansion happens once at construction ([`BitslicedAes::new`]) or
/// is borrowed from an existing [`KeySchedule`]
/// ([`BitslicedAes::from_schedule`]) so per-operation paths never re-run
/// it — the "hoist key-schedule work to key-install time" rule.
#[derive(Clone)]
pub struct BitslicedAes {
    size: KeySize,
    enc: Vec<[Bw; 8]>,
    dec: Vec<[Bw; 8]>,
}

impl core::fmt::Debug for BitslicedAes {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print key material.
        f.debug_struct("BitslicedAes")
            .field("size", &self.size)
            .finish_non_exhaustive()
    }
}

impl BitslicedAes {
    /// Expand `key` and pre-bitslice both round-key schedules.
    ///
    /// # Errors
    ///
    /// Returns [`KeyError::InvalidLength`] for keys that are not 16, 24,
    /// or 32 bytes.
    pub fn new(key: &[u8]) -> Result<Self, KeyError> {
        Ok(Self::from_schedule(&KeySchedule::expand(key)?))
    }

    /// Build from an already-expanded schedule without re-running key
    /// expansion (engines that already hold an [`crate::Aes`] share its
    /// schedule).
    #[must_use]
    pub fn from_schedule(schedule: &KeySchedule) -> Self {
        let rounds = schedule.size().rounds();
        let enc = (0..=rounds)
            .map(|r| bitslice_round_key(&schedule.enc_words()[4 * r..4 * r + 4]))
            .collect();
        let dec = (0..=rounds)
            .map(|r| bitslice_round_key(&schedule.dec_words()[4 * r..4 * r + 4]))
            .collect();
        BitslicedAes {
            size: schedule.size(),
            enc,
            dec,
        }
    }

    /// Encrypt every block in place (ECB over the batch; modes layer the
    /// chaining). Any number of blocks is accepted; full 16-block chunks
    /// run packed, the tail runs through a zero-padded final state.
    pub(crate) fn encrypt_blocks(&self, blocks: &mut [Block]) {
        let (full, tail) = blocks.as_chunks_mut::<PAR_BLOCKS>();
        for chunk in full {
            encrypt16(&self.enc, chunk);
        }
        if !tail.is_empty() {
            let mut pad = [[0u8; BLOCK_SIZE]; PAR_BLOCKS];
            pad[..tail.len()].copy_from_slice(tail);
            encrypt16(&self.enc, &mut pad);
            tail.copy_from_slice(&pad[..tail.len()]);
        }
    }

    /// [`crate::batch::BlockCipherBatch::encrypt_chains`] with the 16
    /// chains of a group held in bit planes for the whole run.
    ///
    /// Packing is linear, so XORing a packed message block into the
    /// packed chain state equals packing their XOR: each step packs only
    /// the incoming message blocks, folds them into the planes, and runs
    /// the rounds. The planes are unpacked only where chain values must
    /// leave the lanes: before each later step when `every_block` asks
    /// for them, and once after the last step. On a host with AES-NI the
    /// page cipher and CMAC never build a bitsliced context, so this
    /// serves the portable fallback only.
    pub(crate) fn encrypt_chains<F>(
        &self,
        chains: &mut [Block],
        blocks: usize,
        every_block: bool,
        mut feed: F,
    ) where
        F: FnMut(usize, usize, Option<&Block>) -> Block,
    {
        for (g, group) in chains.chunks_mut(PAR_BLOCKS).enumerate() {
            let n = group.len();
            let mut values = [[0u8; BLOCK_SIZE]; PAR_BLOCKS];
            values[..n].copy_from_slice(group);
            let mut s = pack16(&values);
            let mut msgs = [[0u8; BLOCK_SIZE]; PAR_BLOCKS];
            for j in 0..blocks {
                if every_block && j > 0 {
                    unpack16(&s, &mut values);
                }
                for (lane, msg) in msgs[..n].iter_mut().enumerate() {
                    *msg = feed(
                        g * PAR_BLOCKS + lane,
                        j,
                        every_block.then_some(&values[lane]),
                    );
                }
                absorb16(&self.enc, &mut s, &msgs);
            }
            unpack16(&s, &mut values);
            group.copy_from_slice(&values[..n]);
        }
    }

    /// Decrypt every block in place (see [`BitslicedAes::encrypt_blocks`]).
    pub(crate) fn decrypt_blocks(&self, blocks: &mut [Block]) {
        let (full, tail) = blocks.as_chunks_mut::<PAR_BLOCKS>();
        for chunk in full {
            decrypt16(&self.dec, chunk);
        }
        if !tail.is_empty() {
            let mut pad = [[0u8; BLOCK_SIZE]; PAR_BLOCKS];
            pad[..tail.len()].copy_from_slice(tail);
            decrypt16(&self.dec, &mut pad);
            tail.copy_from_slice(&pad[..tail.len()]);
        }
    }
}

impl BlockCipher for BitslicedAes {
    /// Single-block encryption pads a 15-block-idle batch; it exists so
    /// the context satisfies [`BlockCipher`], but serial modes should
    /// prefer the scalar path.
    fn encrypt_block(&self, block: &mut Block) {
        let mut one = [*block];
        self.encrypt_blocks(&mut one);
        *block = one[0];
    }

    fn decrypt_block(&self, block: &mut Block) {
        let mut one = [*block];
        self.decrypt_blocks(&mut one);
        *block = one[0];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Aes, AesRef};
    use crate::sbox;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn hex16(s: &str) -> Block {
        hex(s).try_into().unwrap()
    }

    /// Evaluate a lane-wise transform on a single byte by packing it into
    /// lane 0 of every plane.
    fn byte_through(f: impl Fn(&mut [Bw; 8]), x: u8) -> u8 {
        let mut s = [Bw::ZERO; 8];
        for (i, plane) in s.iter_mut().enumerate() {
            if x >> (7 - i) & 1 != 0 {
                *plane = Bw::ONES;
            }
        }
        f(&mut s);
        let mut out = 0u8;
        for (i, plane) in s.iter().enumerate() {
            out |= ((plane.0[0] & 1) as u8) << (7 - i);
        }
        out
    }

    #[test]
    fn sbox_circuit_matches_table_exhaustively() {
        for x in 0..=255u8 {
            assert_eq!(byte_through(sub_bytes, x), sbox::sub_byte(x), "S({x:#04x})");
            assert_eq!(
                byte_through(inv_sub_bytes, x),
                sbox::inv_sub_byte(x),
                "S^-1({x:#04x})"
            );
        }
    }

    #[test]
    fn sub_word_circuit_matches_table_sub_word() {
        let mut w = 0x0123_4567u32;
        for _ in 0..64 {
            assert_eq!(
                sub_word_circuit(w),
                crate::key_schedule::sub_word(w),
                "{w:#010x}"
            );
            w = w.wrapping_mul(0x9E37_79B9).rotate_left(7) ^ 0xA5A5_5A5A;
        }
        assert_eq!(sub_word_circuit(0), crate::key_schedule::sub_word(0));
        assert_eq!(
            sub_word_circuit(u32::MAX),
            crate::key_schedule::sub_word(u32::MAX)
        );
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let mut blocks = [[0u8; BLOCK_SIZE]; PAR_BLOCKS];
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for b in blocks.iter_mut().flatten() {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *b = (x >> 33) as u8;
        }
        let s = pack16(&blocks);
        let mut back = [[0u8; BLOCK_SIZE]; PAR_BLOCKS];
        unpack16(&s, &mut back);
        assert_eq!(blocks, back);
    }

    /// FIPS-197 Appendix C known-answer vectors, all three key sizes, with
    /// the plaintext replicated across every lane of the batch.
    #[test]
    fn matches_fips_appendix_c() {
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
        for (key, ct) in VECTORS {
            let bs = BitslicedAes::new(&hex(key)).unwrap();
            let mut blocks = [hex16(PT); PAR_BLOCKS];
            bs.encrypt_blocks(&mut blocks);
            for b in &blocks {
                assert_eq!(*b, hex16(ct), "encrypt failed for key {key}");
            }
            bs.decrypt_blocks(&mut blocks);
            for b in &blocks {
                assert_eq!(*b, hex16(PT), "decrypt failed for key {key}");
            }
        }
    }

    #[test]
    fn agrees_with_reference_on_random_batches_and_tails() {
        let mut seed = 0xdead_beef_cafe_f00du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for ks in crate::KeySize::all() {
            let mut key = vec![0u8; ks.key_len()];
            for b in &mut key {
                *b = next() as u8;
            }
            let bs = BitslicedAes::new(&key).unwrap();
            let reference = AesRef::new(&key).unwrap();
            // Odd tails 1..=7, a full batch, and batch+tail shapes.
            for nblocks in [1usize, 2, 3, 4, 5, 6, 7, 15, 16, 17, 33, 40] {
                let mut blocks = vec![[0u8; BLOCK_SIZE]; nblocks];
                for b in blocks.iter_mut().flatten() {
                    *b = next() as u8;
                }
                let mut want = blocks.clone();
                for b in want.iter_mut() {
                    reference.encrypt_block(b);
                }
                let mut got = blocks.clone();
                bs.encrypt_blocks(&mut got);
                assert_eq!(got, want, "{ks} encrypt, {nblocks} blocks");
                bs.decrypt_blocks(&mut got);
                assert_eq!(got, blocks, "{ks} decrypt roundtrip, {nblocks} blocks");
            }
        }
    }

    #[test]
    fn from_schedule_matches_new_and_scalar() {
        let key = [0x42u8; 16];
        let aes = Aes::new(&key).unwrap();
        let bs = BitslicedAes::from_schedule(aes.schedule());
        let mut a = [[7u8; BLOCK_SIZE]; 3];
        let mut b = a;
        bs.encrypt_blocks(&mut a);
        for blk in b.iter_mut() {
            aes.encrypt_block(blk);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn single_block_cipher_impl_agrees() {
        let key = [9u8; 32];
        let bs = BitslicedAes::new(&key).unwrap();
        let aes = Aes::new(&key).unwrap();
        let mut a = *b"sixteen byte blk";
        let mut b = a;
        BlockCipher::encrypt_block(&bs, &mut a);
        aes.encrypt_block(&mut b);
        assert_eq!(a, b);
        BlockCipher::decrypt_block(&bs, &mut a);
        assert_eq!(&a, b"sixteen byte blk");
    }

    #[test]
    fn debug_never_prints_key_material() {
        let bs = BitslicedAes::new(&[0x5au8; 16]).unwrap();
        let dbg = format!("{bs:?}");
        assert!(!dbg.contains("enc"));
        assert!(!dbg.contains("dec"));
    }
}
