//! From-scratch implementation of the Advanced Encryption Standard
//! (FIPS-197) used by the Sentry reproduction.
//!
//! Sentry ("Protecting Data on Smartphones and Tablets from Memory
//! Attacks", ASPLOS 2015) cannot use a generic cryptographic library: a
//! generic library spills key schedules, stack temporaries, and lookup
//! tables into DRAM, where cold-boot, bus-monitoring, and DMA attacks can
//! observe them. This crate therefore provides AES in three forms, plus
//! the host's hardware kernel:
//!
//! 1. [`block::Aes`] — a fast, table-driven implementation operating on
//!    native memory. This models the *generic* (DRAM-resident) AES of the
//!    paper: OpenSSL AES in user space or the Linux Crypto API's software
//!    AES.
//! 2. [`block::AesRef`] — a slow, straight-from-the-spec reference used to
//!    cross-check the table-driven code.
//! 3. [`tracked::TrackedAes`] — an implementation whose *entire* state
//!    (key, round keys, round tables, S-boxes, input block, loop counters)
//!    lives inside a caller-provided [`tracked::StateStore`]. Backing the
//!    store with simulated iRAM or a locked L2 cache way yields the paper's
//!    *AES On SoC*; backing it with simulated DRAM reproduces the leaky
//!    baseline that bus monitors exploit.
//! 4. `aesni::AesNi` (x86-64 only) — the same cipher on the CPU's AES-NI
//!    instructions. It models nothing: the untracked host contexts
//!    ([`modes::PageCipher`], [`mac::Cmac`]) run on it wherever the CPU
//!    has it, so the reproduction runs faster while the simulated clock
//!    keeps charging the modelled cost. Without AES-NI they run the
//!    portable pair, [`block::Aes`] for lone chains and
//!    [`bitslice::BitslicedAes`] for lanes and streams.
//!
//! The [`state`] module gives a byte-accurate breakdown of AES state by
//! sensitivity class (secret / public / access-protected), regenerating
//! Table 4 of the paper.
//!
//! # Example
//!
//! ```
//! use sentry_crypto::block::Aes;
//! use sentry_crypto::modes::{cbc_decrypt, cbc_encrypt};
//!
//! # fn main() -> Result<(), sentry_crypto::KeyError> {
//! let aes = Aes::new(&[0u8; 16])?;
//! let mut data = *b"sixteen byte blk";
//! let iv = [0u8; 16];
//! cbc_encrypt(&aes, &iv, &mut data);
//! cbc_decrypt(&aes, &iv, &mut data);
//! assert_eq!(&data, b"sixteen byte blk");
//! # Ok(())
//! # }
//! ```

// `aesni` is the one module exempt from `unsafe_code`: see its docs for the
// safety argument. Every other module keeps the crate-wide denial.
#![deny(unsafe_code)]
#![warn(missing_docs)]

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
pub mod aesni;
pub mod batch;
pub mod bitslice;
pub mod block;
pub mod error;
mod gf;
pub mod health;
pub mod key_schedule;
pub mod mac;
pub mod modes;
pub mod pipeline;
pub mod sbox;
pub mod state;
pub mod tables;
pub mod tracked;

pub use batch::BlockCipherBatch;
pub use bitslice::BitslicedAes;
pub use block::{Aes, AesRef};
pub use error::KeyError;
pub use health::{FailureKind, HealthGovernor, HealthState, HealthStats, RetryStats};
pub use mac::Cmac;
pub use modes::{Direction, PageCipher, PageCipherMode};
pub use pipeline::{
    FallbackCounts, FallbackReason, KeystreamCache, KeystreamStats, PipelineConfig,
};
pub use state::{AesStateLayout, Sensitivity};
pub use tracked::{InStore, StateStore, TableId, TrackedAes, TrackedBitslicedAes, VecStore};

/// AES block size in bytes (fixed at 128 bits by FIPS-197).
pub(crate) const BLOCK_SIZE: usize = 16;

/// Supported AES key sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KeySize {
    /// 128-bit key, 10 rounds.
    Aes128,
    /// 192-bit key, 12 rounds.
    Aes192,
    /// 256-bit key, 14 rounds.
    Aes256,
}

impl KeySize {
    /// Key length in bytes.
    #[must_use]
    pub(crate) fn key_len(self) -> usize {
        match self {
            KeySize::Aes128 => 16,
            KeySize::Aes192 => 24,
            KeySize::Aes256 => 32,
        }
    }

    /// Number of rounds (`Nr` in FIPS-197).
    #[must_use]
    pub(crate) fn rounds(self) -> usize {
        match self {
            KeySize::Aes128 => 10,
            KeySize::Aes192 => 12,
            KeySize::Aes256 => 14,
        }
    }

    /// Number of 32-bit words in the key (`Nk` in FIPS-197).
    #[must_use]
    pub(crate) fn nk(self) -> usize {
        self.key_len() / 4
    }

    /// Determine the key size from a raw key length in bytes.
    ///
    /// # Errors
    ///
    /// Returns [`KeyError::InvalidLength`] if `len` is not 16, 24, or 32.
    pub fn from_key_len(len: usize) -> Result<Self, KeyError> {
        match len {
            16 => Ok(KeySize::Aes128),
            24 => Ok(KeySize::Aes192),
            32 => Ok(KeySize::Aes256),
            other => Err(KeyError::InvalidLength(other)),
        }
    }

    /// All supported key sizes, in increasing order.
    #[must_use]
    pub fn all() -> [KeySize; 3] {
        [KeySize::Aes128, KeySize::Aes192, KeySize::Aes256]
    }
}

impl std::fmt::Display for KeySize {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KeySize::Aes128 => write!(f, "AES-128"),
            KeySize::Aes192 => write!(f, "AES-192"),
            KeySize::Aes256 => write!(f, "AES-256"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_size_roundtrip() {
        for ks in KeySize::all() {
            assert_eq!(KeySize::from_key_len(ks.key_len()).unwrap(), ks);
        }
    }

    #[test]
    fn key_size_rejects_bad_lengths() {
        for len in [0, 1, 15, 17, 23, 25, 31, 33, 64] {
            assert!(KeySize::from_key_len(len).is_err());
        }
    }

    #[test]
    fn rounds_and_nk() {
        assert_eq!(KeySize::Aes128.rounds(), 10);
        assert_eq!(KeySize::Aes192.rounds(), 12);
        assert_eq!(KeySize::Aes256.rounds(), 14);
        assert_eq!(KeySize::Aes128.nk(), 4);
        assert_eq!(KeySize::Aes192.nk(), 6);
        assert_eq!(KeySize::Aes256.nk(), 8);
    }

    #[test]
    fn display_names() {
        assert_eq!(KeySize::Aes128.to_string(), "AES-128");
        assert_eq!(KeySize::Aes192.to_string(), "AES-192");
        assert_eq!(KeySize::Aes256.to_string(), "AES-256");
    }
}
