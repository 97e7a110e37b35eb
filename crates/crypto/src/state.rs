//! Byte-accurate accounting of AES state by sensitivity class.
//!
//! Section 6.1 of the paper classifies every piece of AES state as
//! *secret* (leaking it compromises the key or plaintext), *public*
//! (progress counters, the ciphertext), or *access-protected* (contents
//! public, but the *order of accesses* leaks key material — the lookup
//! tables). Table 4 then totals the bytes in each class to show how much
//! on-SoC storage AES On SoC needs.
//!
//! [`AesStateLayout`] regenerates that table for our implementation and
//! additionally assigns each component an offset inside a flat arena; the
//! [`crate::tracked::TrackedAes`] implementation places its state through
//! this layout, so the accounting here is the *actual* memory map of AES
//! On SoC, not documentation that can drift.

use crate::key_schedule::RCON_WORDS;
use crate::sbox::SBOX_SIZE;
use crate::tables::TABLE_BYTES;
use crate::{KeySize, BLOCK_SIZE};

/// Sensitivity classification of a piece of cipher state (paper §6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sensitivity {
    /// Leaking this state compromises the encryption directly
    /// (key, round keys, plaintext input block).
    Secret,
    /// Leaking this state is harmless (ciphertext, progress counters).
    Public,
    /// Contents are public but access *patterns* leak secrets
    /// (round tables, S-boxes, Rcon).
    AccessProtected,
}

impl std::fmt::Display for Sensitivity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Sensitivity::Secret => write!(f, "Secret"),
            Sensitivity::Public => write!(f, "Public"),
            Sensitivity::AccessProtected => write!(f, "Access-protected"),
        }
    }
}

/// One named component of AES state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateComponent {
    /// Human-readable name matching the paper's Table 4 rows.
    pub name: &'static str,
    /// Size in bytes in *this* implementation.
    pub bytes: usize,
    /// Size in bytes as reported in the paper's Table 4 (for comparison).
    /// `None` when the paper does not list the component.
    pub paper_bytes: Option<usize>,
    /// Sensitivity class.
    pub sensitivity: Sensitivity,
    /// Byte offset of this component inside a [`AesStateLayout`] arena.
    pub offset: usize,
}

/// The complete memory map of one AES context's state.
#[derive(Debug, Clone)]
pub struct AesStateLayout {
    components: Vec<StateComponent>,
    total: usize,
}

/// Round up to a 4-byte boundary so u32 table entries stay aligned.
fn align4(x: usize) -> usize {
    (x + 3) & !3
}

impl AesStateLayout {
    /// Build the layout for a given key size.
    #[must_use]
    pub fn for_key_size(key_size: KeySize) -> Self {
        let rounds = key_size.rounds();
        // Our schedule caches both encryption and decryption round keys
        // (the equivalent inverse cipher). The paper's figure (320 bytes
        // for AES-128) corresponds to a single OpenSSL AES_KEY-style
        // structure; we account for what we actually store.
        let round_key_bytes = 2 * 4 * (rounds + 1) * 4;
        let paper_round_keys = match key_size {
            KeySize::Aes128 => 320,
            KeySize::Aes192 => 368,
            KeySize::Aes256 => 416,
        };

        let specs: [(&'static str, usize, Option<usize>, Sensitivity); 9] = [
            ("Input block", BLOCK_SIZE, Some(16), Sensitivity::Secret),
            (
                "Key",
                key_size.key_len(),
                Some(key_size.key_len()),
                Sensitivity::Secret,
            ),
            ("Round Index", 1, Some(1), Sensitivity::Public),
            (
                "Round Keys",
                round_key_bytes,
                Some(paper_round_keys),
                Sensitivity::Secret,
            ),
            (
                "2 Round Tables",
                2 * TABLE_BYTES,
                Some(2048),
                Sensitivity::AccessProtected,
            ),
            (
                "2 S-box",
                2 * SBOX_SIZE,
                Some(512),
                Sensitivity::AccessProtected,
            ),
            (
                "Rcon",
                RCON_WORDS * 4,
                Some(40),
                Sensitivity::AccessProtected,
            ),
            ("Block Index", 1, Some(1), Sensitivity::Public),
            ("CBC block/ivec", BLOCK_SIZE, Some(16), Sensitivity::Public),
        ];

        let mut components = Vec::with_capacity(specs.len());
        let mut offset = 0usize;
        for (name, bytes, paper_bytes, sensitivity) in specs {
            offset = align4(offset);
            components.push(StateComponent {
                name,
                bytes,
                paper_bytes,
                sensitivity,
                offset,
            });
            offset += bytes;
        }
        AesStateLayout {
            components,
            total: align4(offset),
        }
    }

    /// Build the layout for the *table-free bitsliced* variant
    /// ([`crate::tracked::TrackedBitslicedAes`]).
    ///
    /// The bitsliced kernel evaluates SubBytes as a boolean circuit and
    /// derives Rcon arithmetically, so the three access-protected rows of
    /// Table 4 — 2 048 bytes of round tables, 512 bytes of S-boxes, and
    /// 40 bytes of Rcon — vanish from the state entirely: the
    /// access-protected footprint is **zero**. What grows instead is the
    /// public input slot, which holds a whole 16-block batch rather than
    /// one block. Round keys stay in the scalar column-word form (they are
    /// broadcast into bit planes in registers each round), so secret state
    /// is unchanged. `paper_bytes` is `None` throughout: the paper's
    /// Table 4 describes the OpenSSL layout and has no bitsliced column.
    #[must_use]
    pub fn bitsliced(key_size: KeySize) -> Self {
        let rounds = key_size.rounds();
        let round_key_bytes = 2 * 4 * (rounds + 1) * 4;
        let batch = crate::bitslice::PAR_BLOCKS * BLOCK_SIZE;

        let specs: [(&'static str, usize, Option<usize>, Sensitivity); 6] = [
            ("Input batch", batch, None, Sensitivity::Secret),
            ("Key", key_size.key_len(), None, Sensitivity::Secret),
            ("Round Index", 1, None, Sensitivity::Public),
            ("Round Keys", round_key_bytes, None, Sensitivity::Secret),
            ("Block Index", 1, None, Sensitivity::Public),
            ("CBC block/ivec", BLOCK_SIZE, None, Sensitivity::Public),
        ];

        let mut components = Vec::with_capacity(specs.len());
        let mut offset = 0usize;
        for (name, bytes, paper_bytes, sensitivity) in specs {
            offset = align4(offset);
            components.push(StateComponent {
                name,
                bytes,
                paper_bytes,
                sensitivity,
                offset,
            });
            offset += bytes;
        }
        AesStateLayout {
            components,
            total: align4(offset),
        }
    }

    /// All components, in arena order.
    #[must_use]
    pub fn components(&self) -> &[StateComponent] {
        &self.components
    }

    /// Total arena size in bytes (components plus alignment padding).
    #[must_use]
    pub fn total_bytes(&self) -> usize {
        self.total
    }

    /// Find a component by its Table 4 row name.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not one of the layout's component names; the
    /// set of names is fixed at compile time, so a miss is a programming
    /// error.
    #[must_use]
    pub fn component(&self, name: &str) -> &StateComponent {
        self.components
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("unknown AES state component {name:?}"))
    }

    /// Sum of component sizes in one sensitivity class (this
    /// implementation's sizes).
    #[must_use]
    pub fn total_for(&self, sensitivity: Sensitivity) -> usize {
        self.components
            .iter()
            .filter(|c| c.sensitivity == sensitivity)
            .map(|c| c.bytes)
            .sum()
    }

    /// Sum of the paper's component sizes in one sensitivity class.
    #[must_use]
    pub fn paper_total_for(&self, sensitivity: Sensitivity) -> usize {
        self.components
            .iter()
            .filter(|c| c.sensitivity == sensitivity)
            .filter_map(|c| c.paper_bytes)
            .sum()
    }

    /// Bytes that must live on the SoC: everything secret or
    /// access-protected (public state may safely live in DRAM).
    #[must_use]
    pub fn on_soc_bytes(&self) -> usize {
        self.total_for(Sensitivity::Secret) + self.total_for(Sensitivity::AccessProtected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table4_totals_reproduce() {
        // "the OpenSSL AES-128 implementation has 352 bytes of secret
        //  state, 2600 bytes of access-protected state, and 18 bytes of
        //  public state" (paper §6.1).
        let layout = AesStateLayout::for_key_size(KeySize::Aes128);
        assert_eq!(layout.paper_total_for(Sensitivity::Secret), 352);
        assert_eq!(layout.paper_total_for(Sensitivity::AccessProtected), 2600);
        assert_eq!(layout.paper_total_for(Sensitivity::Public), 18);
    }

    #[test]
    fn paper_per_component_sizes() {
        let layout = AesStateLayout::for_key_size(KeySize::Aes192);
        assert_eq!(layout.component("Key").paper_bytes, Some(24));
        assert_eq!(layout.component("Round Keys").paper_bytes, Some(368));
        let layout = AesStateLayout::for_key_size(KeySize::Aes256);
        assert_eq!(layout.component("Round Keys").paper_bytes, Some(416));
    }

    #[test]
    fn offsets_are_disjoint_and_aligned() {
        for ks in KeySize::all() {
            let layout = AesStateLayout::for_key_size(ks);
            let mut prev_end = 0usize;
            for c in layout.components() {
                assert!(c.offset % 4 == 0, "{} misaligned", c.name);
                assert!(c.offset >= prev_end, "{} overlaps predecessor", c.name);
                prev_end = c.offset + c.bytes;
            }
            assert!(layout.total_bytes() >= prev_end);
        }
    }

    #[test]
    fn arena_fits_in_one_page_for_aes128_tables_excluded() {
        // The paper's "minimum on-SoC memory" argument (§7) relies on AES
        // On SoC state fitting comfortably inside a single 4 KiB page.
        for ks in KeySize::all() {
            let layout = AesStateLayout::for_key_size(ks);
            assert!(
                layout.total_bytes() <= 4096,
                "{ks}: {} bytes exceeds a page",
                layout.total_bytes()
            );
        }
    }

    #[test]
    fn on_soc_bytes_excludes_public_state() {
        let layout = AesStateLayout::for_key_size(KeySize::Aes128);
        assert_eq!(
            layout.on_soc_bytes(),
            layout.total_for(Sensitivity::Secret) + layout.total_for(Sensitivity::AccessProtected)
        );
        assert!(layout.on_soc_bytes() < layout.total_bytes());
    }

    #[test]
    fn bitsliced_layout_has_zero_access_protected_state() {
        // The point of the table-free variant: all 2 600 access-protected
        // bytes of Table 4 disappear, so on-SoC placement only needs to
        // hold the secrets themselves.
        for ks in KeySize::all() {
            let table = AesStateLayout::for_key_size(ks);
            let bitsliced = AesStateLayout::bitsliced(ks);
            assert_eq!(bitsliced.total_for(Sensitivity::AccessProtected), 0);
            assert!(table.total_for(Sensitivity::AccessProtected) >= 2600);
            // Secret round-key state is identical; the only growth is the
            // 16-block input batch.
            assert_eq!(
                bitsliced.component("Round Keys").bytes,
                table.component("Round Keys").bytes
            );
            assert!(bitsliced.on_soc_bytes() < table.on_soc_bytes());
            assert!(bitsliced.total_bytes() <= 4096, "{ks} exceeds a page");
        }
    }

    #[test]
    fn bitsliced_layout_offsets_are_disjoint_and_aligned() {
        for ks in KeySize::all() {
            let layout = AesStateLayout::bitsliced(ks);
            let mut prev_end = 0usize;
            for c in layout.components() {
                assert!(c.offset % 4 == 0, "{} misaligned", c.name);
                assert!(c.offset >= prev_end, "{} overlaps predecessor", c.name);
                prev_end = c.offset + c.bytes;
            }
            assert!(layout.total_bytes() >= prev_end);
        }
    }

    #[test]
    fn access_protected_dominates_state() {
        // "the round tables alone account for an order of magnitude more
        //  state than the rest of the state variables combined" — check the
        //  qualitative claim for our layout too.
        let layout = AesStateLayout::for_key_size(KeySize::Aes128);
        let tables = layout.component("2 Round Tables").bytes;
        let rest: usize = layout
            .components()
            .iter()
            .filter(|c| c.name != "2 Round Tables" && c.sensitivity != Sensitivity::AccessProtected)
            .map(|c| c.bytes)
            .sum();
        assert!(tables > 4 * rest);
    }
}
