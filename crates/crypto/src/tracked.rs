//! Placement-tracked AES: every byte of cipher state lives in a
//! caller-provided store.
//!
//! This is the mechanism behind *AES On SoC* (paper §6.2). A generic AES
//! implementation keeps its key schedule, lookup tables, and intermediate
//! block in ordinary process memory — i.e., DRAM — where memory attacks
//! can read them and bus monitors can observe table access patterns.
//! [`TrackedAes`] instead performs every state access through a
//! [`StateStore`] supplied by the caller:
//!
//! * a [`VecStore`] models plain DRAM-resident state (and can record the
//!   table-access side channel the paper's bus-monitoring attack
//!   exploits);
//! * the `sentry-core` crate provides stores backed by simulated iRAM and
//!   locked L2 cache ways, which yields AES On SoC — no state ever
//!   reaches DRAM.
//!
//! Only function-local variables (which model CPU registers) hold secret
//! bytes transiently; the host integration is responsible for the paper's
//! two register-hygiene rules — running compute sections with interrupts
//! disabled and zeroing registers afterwards — which `sentry-core`
//! enforces via `sentry_soc::cpu::Cpu::begin_critical`.
//!
//! Neither [`TrackedAes`] nor the table-free [`TrackedBitslicedAes`] has
//! mode code of its own. [`InStore`] binds a context to its store as a
//! [`BlockCipher`]/[`BlockCipherBatch`], and the shared [`crate::modes`]
//! chain CBC, XTS and CTR over it through the one dispatch every engine
//! runs, [`crate::modes::crypt_extents`]. The running chain, tweak or
//! counter is public (Table 4's "CBC block/ivec" row) and stays in
//! locals, as on the fast path.

use crate::batch::BlockCipherBatch;
use crate::bitslice::PAR_BLOCKS;
use crate::block::Block;
use crate::key_schedule::compute_rcon;
use crate::modes::BlockCipher;
use crate::state::AesStateLayout;
use crate::{sbox, tables, KeyError, KeySize, BLOCK_SIZE};
use std::cell::RefCell;

/// Identifies which lookup table an access touched, for side-channel
/// analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TableId {
    /// The forward round table `Te`.
    Te,
    /// The inverse round table `Td`.
    Td,
    /// The forward S-box.
    SBox,
    /// The inverse S-box.
    InvSBox,
    /// The Rcon key-schedule constants.
    Rcon,
}

/// A recorded lookup-table access: the side-channel signal a bus monitor
/// extracts when AES state lives in DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AccessEvent {
    /// Which table was read.
    pub(crate) table: TableId,
    /// The index that was read — a function of key and data bytes.
    pub(crate) index: u8,
}

/// Backing storage for all AES state.
///
/// Implementations decide *where* the bytes live (a plain vector,
/// simulated DRAM, iRAM, a locked cache way) and may observe accesses.
pub trait StateStore {
    /// Read `buf.len()` bytes starting at `offset`.
    fn read(&mut self, offset: usize, buf: &mut [u8]);
    /// Write `data` starting at `offset`.
    fn write(&mut self, offset: usize, data: &[u8]);
    /// Called on every lookup-table access with the table and index.
    ///
    /// The default implementation ignores the event. Stores backed by
    /// observable memory (DRAM) should leave this as a no-op — the reads
    /// themselves are already visible — but analysis stores can record
    /// the sequence.
    fn note_table_access(&mut self, _table: TableId, _index: u8) {}
}

/// A [`StateStore`] backed by a plain `Vec<u8>`, optionally recording
/// table accesses.
#[derive(Debug, Clone, Default)]
pub struct VecStore {
    bytes: Vec<u8>,
    /// When true, every table access is appended to [`VecStore::events`]
    /// and every read/write to [`VecStore::touch_log`].
    pub(crate) record_accesses: bool,
    /// Recorded table accesses (empty unless `record_accesses`).
    pub(crate) events: Vec<AccessEvent>,
    /// Recorded `(offset, len, is_write)` of every store access — the
    /// address trace a bus monitor observes when the store lives in DRAM.
    /// Empty unless `record_accesses`.
    pub touch_log: Vec<(usize, usize, bool)>,
}

impl VecStore {
    /// Create a zeroed store of `len` bytes.
    #[must_use]
    pub fn new(len: usize) -> Self {
        VecStore {
            bytes: vec![0u8; len],
            ..VecStore::default()
        }
    }

    /// Create a store sized for `layout`, with access recording enabled.
    #[must_use]
    pub fn recording(layout: &AesStateLayout) -> Self {
        VecStore {
            bytes: vec![0u8; layout.total_bytes()],
            record_accesses: true,
            ..VecStore::default()
        }
    }
}

impl StateStore for VecStore {
    fn read(&mut self, offset: usize, buf: &mut [u8]) {
        if self.record_accesses {
            self.touch_log.push((offset, buf.len(), false));
        }
        buf.copy_from_slice(&self.bytes[offset..offset + buf.len()]);
    }

    fn write(&mut self, offset: usize, data: &[u8]) {
        if self.record_accesses {
            self.touch_log.push((offset, data.len(), true));
        }
        self.bytes[offset..offset + data.len()].copy_from_slice(data);
    }

    fn note_table_access(&mut self, table: TableId, index: u8) {
        if self.record_accesses {
            self.events.push(AccessEvent { table, index });
        }
    }
}

/// Offsets of each state component, resolved once from the layout.
#[derive(Debug, Clone, Copy)]
struct Offsets {
    input: usize,
    key: usize,
    round_index: usize,
    round_keys: usize,
    te: usize,
    td: usize,
    sbox: usize,
    inv_sbox: usize,
    rcon: usize,
    enc_words: usize,
}

/// AES whose entire state lives in a [`StateStore`].
///
/// Construction ([`TrackedAes::init`]) writes the lookup tables into the
/// store and runs the key schedule *through* the store, so even key
/// expansion leaves no trace outside it. All per-block temporaries are
/// locals, modelling CPU registers.
#[derive(Debug, Clone)]
pub struct TrackedAes {
    key_size: KeySize,
    offsets: Offsets,
}

impl TrackedAes {
    /// Initialize AES state inside `store` for `key`, using the arena
    /// layout for the key's size.
    ///
    /// # Errors
    ///
    /// Returns [`KeyError::InvalidLength`] for invalid key lengths.
    ///
    /// # Panics
    ///
    /// Panics if `store` is smaller than
    /// [`AesStateLayout::total_bytes`] for the key size.
    pub fn init<S: StateStore>(store: &mut S, key: &[u8]) -> Result<Self, KeyError> {
        let key_size = KeySize::from_key_len(key.len())?;
        let layout = AesStateLayout::for_key_size(key_size);
        let off = Offsets {
            input: layout.component("Input block").offset,
            key: layout.component("Key").offset,
            round_index: layout.component("Round Index").offset,
            round_keys: layout.component("Round Keys").offset,
            te: layout.component("2 Round Tables").offset,
            td: layout.component("2 Round Tables").offset + tables::TABLE_BYTES,
            sbox: layout.component("2 S-box").offset,
            inv_sbox: layout.component("2 S-box").offset + sbox::SBOX_SIZE,
            rcon: layout.component("Rcon").offset,
            enc_words: 4 * (key_size.rounds() + 1),
        };

        // Install the access-protected tables.
        for (i, &w) in tables::te().iter().enumerate() {
            store.write(off.te + 4 * i, &w.to_be_bytes());
        }
        for (i, &w) in tables::td().iter().enumerate() {
            store.write(off.td + 4 * i, &w.to_be_bytes());
        }
        store.write(off.sbox, sbox::sbox());
        store.write(off.inv_sbox, sbox::inv_sbox());
        for (i, &w) in compute_rcon().iter().enumerate() {
            store.write(off.rcon + 4 * i, &w.to_be_bytes());
        }

        // Install the key and expand the schedule through the store.
        store.write(off.key, key);
        let aes = TrackedAes {
            key_size,
            offsets: off,
        };
        aes.expand_key(store);
        Ok(aes)
    }

    fn read_u32<S: StateStore>(store: &mut S, offset: usize) -> u32 {
        let mut b = [0u8; 4];
        store.read(offset, &mut b);
        u32::from_be_bytes(b)
    }

    fn write_u32<S: StateStore>(store: &mut S, offset: usize, v: u32) {
        store.write(offset, &v.to_be_bytes());
    }

    fn sbox_lookup<S: StateStore>(&self, store: &mut S, index: u8) -> u8 {
        store.note_table_access(TableId::SBox, index);
        let mut b = [0u8; 1];
        store.read(self.offsets.sbox + index as usize, &mut b);
        b[0]
    }

    fn inv_sbox_lookup<S: StateStore>(&self, store: &mut S, index: u8) -> u8 {
        store.note_table_access(TableId::InvSBox, index);
        let mut b = [0u8; 1];
        store.read(self.offsets.inv_sbox + index as usize, &mut b);
        b[0]
    }

    fn te_lookup<S: StateStore>(&self, store: &mut S, index: u8) -> u32 {
        store.note_table_access(TableId::Te, index);
        Self::read_u32(store, self.offsets.te + 4 * index as usize)
    }

    fn td_lookup<S: StateStore>(&self, store: &mut S, index: u8) -> u32 {
        store.note_table_access(TableId::Td, index);
        Self::read_u32(store, self.offsets.td + 4 * index as usize)
    }

    fn rcon_lookup<S: StateStore>(&self, store: &mut S, index: usize) -> u32 {
        store.note_table_access(TableId::Rcon, index as u8);
        Self::read_u32(store, self.offsets.rcon + 4 * index)
    }

    fn rk_enc<S: StateStore>(&self, store: &mut S, word: usize) -> u32 {
        Self::read_u32(store, self.offsets.round_keys + 4 * word)
    }

    fn rk_dec<S: StateStore>(&self, store: &mut S, word: usize) -> u32 {
        Self::read_u32(
            store,
            self.offsets.round_keys + 4 * (self.offsets.enc_words + word),
        )
    }

    /// FIPS-197 key expansion, with all reads and writes routed through
    /// the store.
    fn expand_key<S: StateStore>(&self, store: &mut S) {
        let nk = self.key_size.nk();
        let total = self.offsets.enc_words;
        // Copy the raw key into the first Nk round-key words.
        for i in 0..nk {
            let mut b = [0u8; 4];
            store.read(self.offsets.key + 4 * i, &mut b);
            store.write(self.offsets.round_keys + 4 * i, &b);
        }
        for i in nk..total {
            let mut temp = self.rk_enc(store, i - 1);
            if i % nk == 0 {
                temp = temp.rotate_left(8);
                temp = self.sub_word(store, temp);
                temp ^= self.rcon_lookup(store, i / nk - 1);
            } else if nk > 6 && i % nk == 4 {
                temp = self.sub_word(store, temp);
            }
            let w = self.rk_enc(store, i - nk) ^ temp;
            Self::write_u32(store, self.offsets.round_keys + 4 * i, w);
        }
        // Equivalent-inverse-cipher decryption keys.
        let rounds = self.key_size.rounds();
        for round in 0..=rounds {
            let src = rounds - round;
            for col in 0..4 {
                let word = self.rk_enc(store, 4 * src + col);
                let out = if round == 0 || round == rounds {
                    word
                } else {
                    tables::inv_mix_column_word(word)
                };
                Self::write_u32(
                    store,
                    self.offsets.round_keys + 4 * (total + 4 * round + col),
                    out,
                );
            }
        }
    }

    fn sub_word<S: StateStore>(&self, store: &mut S, w: u32) -> u32 {
        let [a, b, c, d] = w.to_be_bytes();
        u32::from_be_bytes([
            self.sbox_lookup(store, a),
            self.sbox_lookup(store, b),
            self.sbox_lookup(store, c),
            self.sbox_lookup(store, d),
        ])
    }

    /// Encrypt the 16 bytes currently in the store's input block,
    /// in place.
    fn encrypt_in_store<S: StateStore>(&self, store: &mut S) {
        let rounds = self.key_size.rounds();
        let mut s = [0u32; 4];
        for (c, slot) in s.iter_mut().enumerate() {
            *slot = Self::read_u32(store, self.offsets.input + 4 * c) ^ self.rk_enc(store, c);
        }
        let mut t = [0u32; 4];
        for round in 1..rounds {
            store.write(self.offsets.round_index, &[round as u8]);
            for c in 0..4 {
                t[c] = self.te_lookup(store, (s[c] >> 24) as u8)
                    ^ self
                        .te_lookup(store, ((s[(c + 1) % 4] >> 16) & 0xff) as u8)
                        .rotate_right(8)
                    ^ self
                        .te_lookup(store, ((s[(c + 2) % 4] >> 8) & 0xff) as u8)
                        .rotate_right(16)
                    ^ self
                        .te_lookup(store, (s[(c + 3) % 4] & 0xff) as u8)
                        .rotate_right(24)
                    ^ self.rk_enc(store, 4 * round + c);
            }
            s = t;
        }
        store.write(self.offsets.round_index, &[rounds as u8]);
        for c in 0..4 {
            t[c] = (u32::from(self.sbox_lookup(store, (s[c] >> 24) as u8)) << 24)
                | (u32::from(self.sbox_lookup(store, ((s[(c + 1) % 4] >> 16) & 0xff) as u8)) << 16)
                | (u32::from(self.sbox_lookup(store, ((s[(c + 2) % 4] >> 8) & 0xff) as u8)) << 8)
                | u32::from(self.sbox_lookup(store, (s[(c + 3) % 4] & 0xff) as u8));
            t[c] ^= self.rk_enc(store, 4 * rounds + c);
        }
        for (c, word) in t.iter().enumerate() {
            Self::write_u32(store, self.offsets.input + 4 * c, *word);
        }
    }

    /// Decrypt the 16 bytes currently in the store's input block,
    /// in place.
    fn decrypt_in_store<S: StateStore>(&self, store: &mut S) {
        let rounds = self.key_size.rounds();
        let mut s = [0u32; 4];
        for (c, slot) in s.iter_mut().enumerate() {
            *slot = Self::read_u32(store, self.offsets.input + 4 * c) ^ self.rk_dec(store, c);
        }
        let mut t = [0u32; 4];
        for round in 1..rounds {
            store.write(self.offsets.round_index, &[round as u8]);
            for c in 0..4 {
                t[c] = self.td_lookup(store, (s[c] >> 24) as u8)
                    ^ self
                        .td_lookup(store, ((s[(c + 3) % 4] >> 16) & 0xff) as u8)
                        .rotate_right(8)
                    ^ self
                        .td_lookup(store, ((s[(c + 2) % 4] >> 8) & 0xff) as u8)
                        .rotate_right(16)
                    ^ self
                        .td_lookup(store, (s[(c + 1) % 4] & 0xff) as u8)
                        .rotate_right(24)
                    ^ self.rk_dec(store, 4 * round + c);
            }
            s = t;
        }
        store.write(self.offsets.round_index, &[rounds as u8]);
        for c in 0..4 {
            t[c] = (u32::from(self.inv_sbox_lookup(store, (s[c] >> 24) as u8)) << 24)
                | (u32::from(self.inv_sbox_lookup(store, ((s[(c + 3) % 4] >> 16) & 0xff) as u8))
                    << 16)
                | (u32::from(self.inv_sbox_lookup(store, ((s[(c + 2) % 4] >> 8) & 0xff) as u8))
                    << 8)
                | u32::from(self.inv_sbox_lookup(store, (s[(c + 1) % 4] & 0xff) as u8));
            t[c] ^= self.rk_dec(store, 4 * rounds + c);
        }
        for (c, word) in t.iter().enumerate() {
            Self::write_u32(store, self.offsets.input + 4 * c, *word);
        }
    }

    /// Encrypt one external block: load it into the store's input slot,
    /// encrypt, and copy the ciphertext back out.
    pub fn encrypt_block<S: StateStore>(&self, store: &mut S, block: &mut [u8; BLOCK_SIZE]) {
        store.write(self.offsets.input, block);
        self.encrypt_in_store(store);
        store.read(self.offsets.input, block);
    }

    /// Decrypt one external block through the store.
    pub(crate) fn decrypt_block<S: StateStore>(&self, store: &mut S, block: &mut [u8; BLOCK_SIZE]) {
        store.write(self.offsets.input, block);
        self.decrypt_in_store(store);
        store.read(self.offsets.input, block);
    }
}

/// Offsets of the table-free bitsliced layout's components.
#[derive(Debug, Clone, Copy)]
struct BitslicedOffsets {
    input: usize,
    key: usize,
    round_index: usize,
    round_keys: usize,
    /// Number of 32-bit words in one schedule side (enc or dec).
    enc_words: usize,
}

/// Batch capacity of the store's input slot, in bytes.
const BATCH_BYTES: usize = PAR_BLOCKS * BLOCK_SIZE;

/// Placement-tracked **table-free** AES: the batched bitsliced kernel
/// with every byte of persistent state in a caller-provided store.
///
/// This is the batched on-SoC data path: blocks move through the store's
/// 16-block input slot and round keys are fetched from the store each
/// round, so the store still decides *where* all state lives — but unlike
/// [`TrackedAes`] there are **no lookup tables at all**. SubBytes is the
/// Boyar–Peralta circuit (including inside key expansion, via
/// [`crate::bitslice`]'s circuit `SubWord`), Rcon is derived
/// arithmetically in registers, and every store access touches a
/// *data-independent* address. The bus-monitoring side channel that
/// forces Table 4's 2 600 access-protected bytes on-SoC simply has no
/// signal to read; see
/// [`AesStateLayout::bitsliced`][crate::state::AesStateLayout::bitsliced]
/// for the resulting accounting.
#[derive(Debug, Clone)]
pub struct TrackedBitslicedAes {
    key_size: KeySize,
    offsets: BitslicedOffsets,
}

impl TrackedBitslicedAes {
    /// Initialize table-free AES state inside `store` for `key`, using
    /// [`AesStateLayout::bitsliced`][crate::state::AesStateLayout::bitsliced].
    ///
    /// # Errors
    ///
    /// Returns [`KeyError::InvalidLength`] for invalid key lengths.
    ///
    /// # Panics
    ///
    /// Panics if `store` is smaller than the layout's total size.
    pub fn init<S: StateStore>(store: &mut S, key: &[u8]) -> Result<Self, KeyError> {
        let key_size = KeySize::from_key_len(key.len())?;
        let layout = AesStateLayout::bitsliced(key_size);
        let off = BitslicedOffsets {
            input: layout.component("Input batch").offset,
            key: layout.component("Key").offset,
            round_index: layout.component("Round Index").offset,
            round_keys: layout.component("Round Keys").offset,
            enc_words: 4 * (key_size.rounds() + 1),
        };
        store.write(off.key, key);
        let aes = TrackedBitslicedAes {
            key_size,
            offsets: off,
        };
        aes.expand_key(store);
        Ok(aes)
    }

    fn rk_word<S: StateStore>(&self, store: &mut S, word: usize) -> u32 {
        TrackedAes::read_u32(store, self.offsets.round_keys + 4 * word)
    }

    /// FIPS-197 key expansion through the store, with `SubWord` as a
    /// boolean circuit and Rcon recomputed in registers — no table state,
    /// no data-dependent addresses.
    fn expand_key<S: StateStore>(&self, store: &mut S) {
        let nk = self.key_size.nk();
        let total = self.offsets.enc_words;
        let rcon = compute_rcon();
        for i in 0..nk {
            let mut b = [0u8; 4];
            store.read(self.offsets.key + 4 * i, &mut b);
            store.write(self.offsets.round_keys + 4 * i, &b);
        }
        for i in nk..total {
            let mut temp = self.rk_word(store, i - 1);
            if i % nk == 0 {
                temp = crate::bitslice::sub_word_circuit(temp.rotate_left(8));
                temp ^= rcon[i / nk - 1];
            } else if nk > 6 && i % nk == 4 {
                temp = crate::bitslice::sub_word_circuit(temp);
            }
            let w = self.rk_word(store, i - nk) ^ temp;
            TrackedAes::write_u32(store, self.offsets.round_keys + 4 * i, w);
        }
        // Equivalent-inverse-cipher decryption keys (InvMixColumns is
        // arithmetic over GF(2^8), evaluated in registers).
        let rounds = self.key_size.rounds();
        for round in 0..=rounds {
            let src = rounds - round;
            for col in 0..4 {
                let word = self.rk_word(store, 4 * src + col);
                let out = if round == 0 || round == rounds {
                    word
                } else {
                    tables::inv_mix_column_word(word)
                };
                TrackedAes::write_u32(
                    store,
                    self.offsets.round_keys + 4 * (total + 4 * round + col),
                    out,
                );
            }
        }
    }

    /// Run `blocks` through the store one staged batch of
    /// [`PAR_BLOCKS`] at a time: stage the blocks in the input slot
    /// (always all of it, so the trace does not depend on the count),
    /// compute bitsliced in registers fetching each round key from the
    /// store, and read the result back out of the input slot.
    fn crypt_blocks<S: StateStore>(&self, store: &mut S, blocks: &mut [Block], decrypt: bool) {
        let off = self.offsets;
        let rounds = self.key_size.rounds();
        let side = if decrypt { off.enc_words } else { 0 };
        for chunk in blocks.chunks_mut(PAR_BLOCKS) {
            let mut staged = [0u8; BATCH_BYTES];
            staged[..chunk.len() * BLOCK_SIZE].copy_from_slice(chunk.as_flattened());
            store.write(off.input, &staged);

            let mut batch = [[0u8; BLOCK_SIZE]; PAR_BLOCKS];
            for (i, b) in batch.iter_mut().enumerate() {
                store.read(off.input + BLOCK_SIZE * i, b);
            }
            let rk = |r: usize| {
                store.write(off.round_index, &[r as u8]);
                let mut words = [0u32; 4];
                for (c, w) in words.iter_mut().enumerate() {
                    *w = TrackedAes::read_u32(store, off.round_keys + 4 * (side + 4 * r + c));
                }
                crate::bitslice::bitslice_round_key(&words)
            };
            if decrypt {
                crate::bitslice::decrypt16_with(rounds, rk, &mut batch);
            } else {
                crate::bitslice::encrypt16_with(rounds, rk, &mut batch);
            }
            for (i, b) in batch.iter().enumerate() {
                store.write(off.input + BLOCK_SIZE * i, b);
            }
            let mut out = [0u8; BATCH_BYTES];
            store.read(off.input, &mut out);
            let n = chunk.len() * BLOCK_SIZE;
            chunk.as_flattened_mut().copy_from_slice(&out[..n]);
        }
    }
}

/// A tracked context bound to the store its state lives in: the
/// [`BlockCipher`]/[`BlockCipherBatch`] backend through which the shared
/// [`crate::modes`] (and their one dispatch,
/// [`crate::modes::crypt_extents`]) run placement-tracked AES.
///
/// Every key, table and in-flight-block access goes through the store.
/// The modes hold only the running CBC chain, XTS tweak or CTR counter,
/// in locals that model CPU registers — the same place the fast data
/// path keeps them. The layouts' public "Block Index" and "CBC
/// block/ivec" rows stay as the paper's Table 4 accounting.
#[derive(Debug)]
pub struct InStore<'a, K, S> {
    kernel: &'a K,
    store: RefCell<&'a mut S>,
}

impl<'a, K, S> InStore<'a, K, S> {
    /// Bind `kernel` to `store`, the store it was initialised in.
    pub fn new(kernel: &'a K, store: &'a mut S) -> Self {
        InStore {
            kernel,
            store: RefCell::new(store),
        }
    }
}

/// The table-driven kernel is scalar: a batch is a loop of one-block
/// operations through the store's input block.
impl<S: StateStore> BlockCipher for InStore<'_, TrackedAes, S> {
    fn encrypt_block(&self, block: &mut Block) {
        self.kernel.encrypt_block(*self.store.borrow_mut(), block);
    }
    fn decrypt_block(&self, block: &mut Block) {
        self.kernel.decrypt_block(*self.store.borrow_mut(), block);
    }
}

impl<S: StateStore> BlockCipherBatch for InStore<'_, TrackedAes, S> {
    fn encrypt_blocks(&self, blocks: &mut [Block]) {
        blocks.iter_mut().for_each(|b| self.encrypt_block(b));
    }
    fn decrypt_blocks(&self, blocks: &mut [Block]) {
        blocks.iter_mut().for_each(|b| self.decrypt_block(b));
    }
}

/// The table-free kernel stages `PAR_BLOCKS` blocks per call; a single
/// block still runs (and is traced as) a whole staged batch.
impl<S: StateStore> BlockCipher for InStore<'_, TrackedBitslicedAes, S> {
    fn encrypt_block(&self, block: &mut Block) {
        self.encrypt_blocks(std::slice::from_mut(block));
    }
    fn decrypt_block(&self, block: &mut Block) {
        self.decrypt_blocks(std::slice::from_mut(block));
    }
}

impl<S: StateStore> BlockCipherBatch for InStore<'_, TrackedBitslicedAes, S> {
    fn encrypt_blocks(&self, blocks: &mut [Block]) {
        let mut store = self.store.borrow_mut();
        self.kernel.crypt_blocks(*store, blocks, false);
    }
    fn decrypt_blocks(&self, blocks: &mut [Block]) {
        let mut store = self.store.borrow_mut();
        self.kernel.crypt_blocks(*store, blocks, true);
    }
    fn batch_width(&self) -> usize {
        PAR_BLOCKS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Aes;
    use crate::modes::{self, Direction, PageCipherMode};

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn tracked_matches_fips_vectors() {
        let cases = [
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
        for (key, ct) in cases {
            let key = hex(key);
            let layout = AesStateLayout::for_key_size(KeySize::from_key_len(key.len()).unwrap());
            let mut store = VecStore::new(layout.total_bytes());
            let aes = TrackedAes::init(&mut store, &key).unwrap();
            let mut block: [u8; 16] = hex("00112233445566778899aabbccddeeff").try_into().unwrap();
            aes.encrypt_block(&mut store, &mut block);
            assert_eq!(block.to_vec(), hex(ct));
            aes.decrypt_block(&mut store, &mut block);
            assert_eq!(block.to_vec(), hex("00112233445566778899aabbccddeeff"));
        }
    }

    #[test]
    fn tracked_cbc_matches_fast_cbc() {
        let key = hex("2b7e151628aed2a6abf7158809cf4f3c");
        let iv = [0x11u8; 16];
        let mut data_a: Vec<u8> = (0..128u8).collect();
        let mut data_b = data_a.clone();

        let fast = Aes::new(&key).unwrap();
        modes::cbc_encrypt(&fast, &iv, &mut data_a);

        let layout = AesStateLayout::for_key_size(KeySize::Aes128);
        let mut store = VecStore::new(layout.total_bytes());
        let tracked = TrackedAes::init(&mut store, &key).unwrap();
        let tracked = InStore::new(&tracked, &mut store);
        modes::cbc_encrypt(&tracked, &iv, &mut data_b);

        assert_eq!(data_a, data_b);

        modes::cbc_decrypt(&tracked, &iv, &mut data_b);
        assert_eq!(data_b, (0..128u8).collect::<Vec<_>>());
    }

    #[test]
    fn tracked_xts_and_ctr_match_fast_modes() {
        // Both tracked variants must be byte-identical to the fast
        // single-key XEX/CTR paths — this is what lets the full-sim
        // on-SoC engine keep one keyed context per mode.
        let key = hex("2b7e151628aed2a6abf7158809cf4f3c");
        let fast = Aes::new(&key).unwrap();
        let tweak = [0x9Cu8; 16];

        let layout = AesStateLayout::for_key_size(KeySize::Aes128);
        let blayout = AesStateLayout::bitsliced(KeySize::Aes128);
        for nblocks in [1usize, 3, 15, 16, 17, 33] {
            let pt: Vec<u8> = (0..nblocks * 16).map(|i| (i * 41) as u8).collect();

            let mut want_xts = pt.clone();
            modes::xts_encrypt(&fast, &fast, &tweak, &mut want_xts);
            let mut want_ctr = pt.clone();
            modes::ctr_crypt(&fast, &tweak, &mut want_ctr);

            let mut store = VecStore::new(layout.total_bytes());
            let tracked = TrackedAes::init(&mut store, &key).unwrap();
            let tracked = InStore::new(&tracked, &mut store);
            let mut got = pt.clone();
            modes::xts_encrypt(&tracked, &tracked, &tweak, &mut got);
            assert_eq!(got, want_xts, "tracked xts_encrypt {nblocks} blocks");
            modes::xts_decrypt(&tracked, &tracked, &tweak, &mut got);
            assert_eq!(got, pt, "tracked xts_decrypt {nblocks} blocks");
            modes::ctr_crypt(&tracked, &tweak, &mut got);
            assert_eq!(got, want_ctr, "tracked ctr_crypt {nblocks} blocks");

            let mut bstore = VecStore::new(blayout.total_bytes());
            let btracked = TrackedBitslicedAes::init(&mut bstore, &key).unwrap();
            let btracked = InStore::new(&btracked, &mut bstore);
            let mut got = pt.clone();
            modes::xts_encrypt(&btracked, &btracked, &tweak, &mut got);
            assert_eq!(
                got, want_xts,
                "bitsliced tracked xts_encrypt {nblocks} blocks"
            );
            modes::xts_decrypt(&btracked, &btracked, &tweak, &mut got);
            assert_eq!(got, pt, "bitsliced tracked xts_decrypt {nblocks} blocks");
            modes::ctr_crypt(&btracked, &tweak, &mut got);
            assert_eq!(
                got, want_ctr,
                "bitsliced tracked ctr_crypt {nblocks} blocks"
            );
        }

        // CTR ragged tail: 40 bytes, both variants.
        let pt: Vec<u8> = (0..40).map(|i| (i * 7) as u8).collect();
        let mut want = pt.clone();
        modes::ctr_crypt(&fast, &tweak, &mut want);
        let mut store = VecStore::new(layout.total_bytes());
        let tracked = TrackedAes::init(&mut store, &key).unwrap();
        let mut got = pt.clone();
        modes::ctr_crypt(&InStore::new(&tracked, &mut store), &tweak, &mut got);
        assert_eq!(got, want, "tracked ctr ragged tail");
        let mut bstore = VecStore::new(blayout.total_bytes());
        let btracked = TrackedBitslicedAes::init(&mut bstore, &key).unwrap();
        let mut got = pt;
        modes::ctr_crypt(&InStore::new(&btracked, &mut bstore), &tweak, &mut got);
        assert_eq!(got, want, "bitsliced tracked ctr ragged tail");
    }

    #[test]
    fn key_material_is_confined_to_the_store() {
        // The raw key and the first expanded round key must appear in the
        // store (that is where they live) — this is what makes the store's
        // placement decide the security outcome.
        let key = hex("2b7e151628aed2a6abf7158809cf4f3c");
        let layout = AesStateLayout::for_key_size(KeySize::Aes128);
        let mut store = VecStore::new(layout.total_bytes());
        let _aes = TrackedAes::init(&mut store, &key).unwrap();
        let bytes = &store.bytes;
        let found = bytes.windows(key.len()).any(|w| w == key.as_slice());
        assert!(found, "key bytes must live inside the store");
    }

    #[test]
    fn table_accesses_are_recorded_and_key_dependent() {
        let layout = AesStateLayout::for_key_size(KeySize::Aes128);

        let run = |key: &[u8], pt: [u8; 16]| {
            let mut store = VecStore::recording(&layout);
            let aes = TrackedAes::init(&mut store, key).unwrap();
            store.events.clear(); // drop key-schedule accesses
            let mut block = pt;
            aes.encrypt_block(&mut store, &mut block);
            store.events
        };

        let a = run(&[0u8; 16], [0u8; 16]);
        let b = run(&[1u8; 16], [0u8; 16]);
        assert!(!a.is_empty());
        // Same plaintext, different key: the access trace differs. This is
        // the signal the paper's bus-monitoring side channel reads.
        assert_ne!(a, b);
        // 9 main rounds x 16 Te lookups + 16 final-round S-box lookups.
        let te_count = a.iter().filter(|e| e.table == TableId::Te).count();
        assert_eq!(te_count, 9 * 16);
        let sbox_count = a.iter().filter(|e| e.table == TableId::SBox).count();
        assert_eq!(sbox_count, 16);
    }

    #[test]
    fn bitsliced_tracked_matches_fips_vectors() {
        let cases = [
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
        for (key, ct) in cases {
            let key = hex(key);
            let layout = AesStateLayout::bitsliced(KeySize::from_key_len(key.len()).unwrap());
            let mut store = VecStore::new(layout.total_bytes());
            let aes = TrackedBitslicedAes::init(&mut store, &key).unwrap();
            let aes = InStore::new(&aes, &mut store);
            let mut block: [u8; 16] = hex("00112233445566778899aabbccddeeff").try_into().unwrap();
            aes.encrypt_block(&mut block);
            assert_eq!(block.to_vec(), hex(ct));
            aes.decrypt_block(&mut block);
            assert_eq!(block.to_vec(), hex("00112233445566778899aabbccddeeff"));
        }
    }

    #[test]
    fn bitsliced_tracked_cbc_matches_fast_cbc() {
        let key = hex("2b7e151628aed2a6abf7158809cf4f3c");
        let iv = [0x11u8; 16];
        let fast = Aes::new(&key).unwrap();
        let layout = AesStateLayout::bitsliced(KeySize::Aes128);
        // Lengths below, at, and across the 16-block batch boundary.
        for nblocks in [1usize, 3, 15, 16, 17, 33, 256] {
            let pt: Vec<u8> = (0..nblocks * 16).map(|i| (i * 37) as u8).collect();
            let mut want = pt.clone();
            modes::cbc_encrypt(&fast, &iv, &mut want);

            let mut store = VecStore::new(layout.total_bytes());
            let tracked = TrackedBitslicedAes::init(&mut store, &key).unwrap();
            let tracked = InStore::new(&tracked, &mut store);
            let mut got = pt.clone();
            modes::cbc_encrypt(&tracked, &iv, &mut got);
            assert_eq!(got, want, "cbc_encrypt {nblocks} blocks");
            modes::cbc_decrypt(&tracked, &iv, &mut got);
            assert_eq!(got, pt, "cbc_decrypt {nblocks} blocks");
        }
    }

    /// Every mode and direction of the shared dispatch over `extents`
    /// extents of `unit` bytes, through the table-free kernel in a
    /// recording store; returns the store.
    fn bitsliced_dispatch_store(key: &[u8], extents: usize, unit: usize, fill: u8) -> VecStore {
        let layout = AesStateLayout::bitsliced(KeySize::from_key_len(key.len()).unwrap());
        let mut store = VecStore::recording(&layout);
        let aes = TrackedBitslicedAes::init(&mut store, key).unwrap();
        let ivs: Vec<[u8; 16]> = (0..extents).map(|i| [fill ^ i as u8; 16]).collect();
        let mut data: Vec<u8> = (0..extents * unit).map(|i| fill ^ (i * 31) as u8).collect();
        let aes = InStore::new(&aes, &mut store);
        for mode in PageCipherMode::all() {
            for direction in [Direction::Encrypt, Direction::Decrypt] {
                modes::crypt_extents(&aes, &aes, mode, direction, &ivs, &mut data);
            }
        }
        store
    }

    #[test]
    fn bitsliced_tracked_makes_no_table_accesses() {
        // The whole point of the table-free variant: from key expansion
        // through bulk pages in every mode, not one lookup-table access
        // occurs — the bus-monitoring side channel has no signal.
        let store = bitsliced_dispatch_store(&[7u8; 32], 2, 4096, 0x5A);
        assert!(!store.touch_log.is_empty());
        assert!(
            store.events.is_empty(),
            "table-free AES must never touch a lookup table"
        );
    }

    #[test]
    fn bitsliced_tracked_address_trace_is_data_independent() {
        // Stronger than "no table accesses": the full (offset, len,
        // direction) trace of store traffic is identical for different
        // keys and different plaintexts, so even an attacker seeing every
        // address on the bus learns nothing. Contrast with TrackedAes,
        // whose Te-lookup offsets are key-dependent
        // (`table_accesses_are_recorded_and_key_dependent`). The runs are
        // multi-extent, through the shared dispatch: CBC encryption
        // fills lanes across extents, and every mode streams across
        // extent boundaries, in both directions.
        for (extents, unit) in [(1usize, 24 * 16), (3, 24 * 16), (17, 512)] {
            let a = bitsliced_dispatch_store(&[0u8; 16], extents, unit, 0x00).touch_log;
            let b = bitsliced_dispatch_store(&[0x5Au8; 16], extents, unit, 0xA7).touch_log;
            assert!(!a.is_empty());
            assert_eq!(
                a, b,
                "{extents}x{unit}: address trace must not depend on key or data"
            );
        }
    }

    #[test]
    fn bitsliced_tracked_key_is_confined_to_the_store() {
        let key = hex("2b7e151628aed2a6abf7158809cf4f3c");
        let layout = AesStateLayout::bitsliced(KeySize::Aes128);
        let mut store = VecStore::new(layout.total_bytes());
        let _aes = TrackedBitslicedAes::init(&mut store, &key).unwrap();
        let found = store.bytes.windows(key.len()).any(|w| w == key.as_slice());
        assert!(found, "key bytes must live inside the store");
    }
}
