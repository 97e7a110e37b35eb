//! Off-SoC DRAM with a data-remanence model.
//!
//! DRAM is where all the attacks of the paper's threat model aim: its
//! contents survive power events to varying degrees (cold boot), its
//! traffic crosses an exposed bus (bus monitoring), and DMA controllers
//! read it without CPU cooperation (DMA attacks).
//!
//! Storage is a frame table: one slot per 4 KiB frame, indexed by frame
//! number, each empty until its frame is first written. The table is
//! allocated zeroed (an empty slot is a null pointer), so an unwritten
//! frame costs one slot, and a 1–2 GB device whose experiments touch a
//! few megabytes costs a few megabytes plus its 2–4 MiB table. Every walk
//! over the populated frames ([`Dram::iter_frames`],
//! [`Dram::count_pattern`], `Dram::apply_power_event`) visits them in
//! ascending address order, whatever order they were written in.
//!
//! # Remanence model
//!
//! The paper measures remanence by filling memory with an 8-byte pattern,
//! applying a power event, and counting surviving pattern occurrences
//! (Table 2). We therefore model decay at 8-byte *cell* granularity: each
//! cell independently survives a power event with a probability drawn
//! from the calibrated [`RemanenceModel`]; non-surviving cells are
//! replaced with random bytes (partially decayed charge) — which is also
//! what makes recovered AES keys unusable when survival is low.

use crate::addr::{DRAM_BASE, PAGE_SIZE};
use crate::rng::DetRng;

/// Bytes per frame.
const FRAME: usize = PAGE_SIZE as usize;

/// A power event a device (and its DRAM) can be subjected to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PowerEvent {
    /// An OS reboot with no power loss: memory is untouched except for
    /// what the rebooting OS itself scribbles over.
    WarmReboot,
    /// Tapping the reset button — the short power disconnect used to
    /// reflash a device.
    ReflashTap,
    /// Holding reset: power is cut for `seconds`.
    HardReset {
        /// Duration of the power cut, in seconds.
        seconds: f64,
    },
}

/// Calibrated DRAM cell-survival probabilities (Table 2, DRAM column).
#[derive(Debug, Clone, PartialEq)]
pub struct RemanenceModel {
    /// Fraction of cells surviving a warm OS reboot (the rebooting OS
    /// overwrites a few percent of memory): 0.964 in the paper.
    pub warm_reboot: f64,
    /// Fraction surviving a reset-button tap: 0.975 in the paper.
    pub reflash_tap: f64,
    /// Fraction surviving a 2-second power cut at room temperature:
    /// 0.001 in the paper.
    pub hard_reset_2s: f64,
    /// Ambient temperature in °C. Cooling DRAM slows decay dramatically
    /// (the FROST household-freezer attack); the decay time constant
    /// roughly doubles per 10 °C of cooling below room temperature.
    pub temperature_c: f64,
}

impl Default for RemanenceModel {
    fn default() -> Self {
        RemanenceModel {
            warm_reboot: 0.964,
            reflash_tap: 0.975,
            hard_reset_2s: 0.001,
            temperature_c: 20.0,
        }
    }
}

impl RemanenceModel {
    /// Cell survival probability for a given power event.
    ///
    /// For hard resets the survival follows exponential decay in the
    /// power-off duration, with a time constant calibrated so that 2
    /// seconds at room temperature leaves `hard_reset_2s` of cells, and
    /// scaled by temperature (colder → slower decay).
    #[must_use]
    pub(crate) fn survival(&self, event: PowerEvent) -> f64 {
        match event {
            PowerEvent::WarmReboot => self.warm_reboot,
            PowerEvent::ReflashTap => self.reflash_tap,
            PowerEvent::HardReset { seconds } => {
                // decay: s(t) = exp(-t / tau); tau chosen so s(2s) at
                // room temperature equals hard_reset_2s.
                let tau_room = -2.0 / self.hard_reset_2s.ln();
                let cooling = (20.0 - self.temperature_c).max(0.0);
                let tau = tau_room * 2f64.powf(cooling / 10.0);
                (-seconds / tau).exp().clamp(0.0, 1.0)
            }
        }
    }
}

/// Frame-granular DRAM.
#[derive(Debug, Clone)]
pub struct Dram {
    size: u64,
    /// Frame `i` (at `DRAM_BASE + i * PAGE_SIZE`), or `None` while it
    /// has never been written.
    frames: Vec<Option<Box<[u8; FRAME]>>>,
    remanence: RemanenceModel,
    rng: DetRng,
}

impl Dram {
    /// Create `size` bytes of DRAM (must be page-aligned) with the given
    /// remanence model and deterministic decay seed.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not a multiple of the page size.
    #[must_use]
    pub fn new(size: u64, remanence: RemanenceModel, seed: u64) -> Self {
        assert!(
            size.is_multiple_of(PAGE_SIZE),
            "DRAM size must be page aligned"
        );
        Dram {
            size,
            frames: vec![None; (size / PAGE_SIZE) as usize],
            remanence,
            rng: DetRng::new(seed),
        }
    }

    /// Total DRAM size in bytes.
    #[must_use]
    pub fn size(&self) -> u64 {
        self.size
    }

    /// True if `addr..addr+len` lies within DRAM.
    #[must_use]
    pub(crate) fn contains(&self, addr: u64, len: usize) -> bool {
        addr >= DRAM_BASE && addr + len as u64 <= DRAM_BASE + self.size
    }

    /// The frame index and in-frame offset of `addr`.
    fn locate(addr: u64) -> (usize, usize) {
        let rel = addr - DRAM_BASE;
        ((rel / PAGE_SIZE) as usize, (rel % PAGE_SIZE) as usize)
    }

    /// Frame `index`, allocated zeroed on first write.
    fn frame_mut(&mut self, index: usize) -> &mut [u8; FRAME] {
        self.frames[index].get_or_insert_with(|| {
            vec![0u8; FRAME]
                .into_boxed_slice()
                .try_into()
                .expect("one frame")
        })
    }

    /// Read raw DRAM contents. Unwritten frames read as zero.
    ///
    /// This is the *physical* access used by the bus/cache and by DMA —
    /// higher layers never call it directly.
    ///
    /// # Panics
    ///
    /// Panics if the span falls outside DRAM; the caller (the SoC router)
    /// validates addresses first.
    pub fn read(&self, addr: u64, buf: &mut [u8]) {
        assert!(self.contains(addr, buf.len()), "DRAM read out of range");
        let mut done = 0usize;
        while done < buf.len() {
            let (index, off) = Self::locate(addr + done as u64);
            let n = (FRAME - off).min(buf.len() - done);
            match self.frames[index].as_deref() {
                Some(data) => buf[done..done + n].copy_from_slice(&data[off..off + n]),
                None => buf[done..done + n].fill(0),
            }
            done += n;
        }
    }

    /// Write raw DRAM contents, allocating frames as needed.
    ///
    /// # Panics
    ///
    /// Panics if the span falls outside DRAM.
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        assert!(self.contains(addr, data.len()), "DRAM write out of range");
        let mut done = 0usize;
        while done < data.len() {
            let (index, off) = Self::locate(addr + done as u64);
            let n = (FRAME - off).min(data.len() - done);
            self.frame_mut(index)[off..off + n].copy_from_slice(&data[done..done + n]);
            done += n;
        }
    }

    /// Read the `N`-byte line at `addr` into `line`: the cache's fill.
    /// A line never crosses a frame.
    ///
    /// # Panics
    ///
    /// Panics if the line falls outside DRAM or crosses a frame.
    pub(crate) fn read_line<const N: usize>(&self, addr: u64, line: &mut [u8; N]) {
        assert!(self.contains(addr, N), "DRAM read out of range");
        let (index, off) = Self::locate(addr);
        *line = match self.frames[index].as_deref() {
            Some(data) => data[off..off + N].try_into().expect("line within a frame"),
            None => [0; N],
        };
    }

    /// Write the `N`-byte line `line` at `addr`: the cache's write-back.
    /// A line never crosses a frame.
    ///
    /// # Panics
    ///
    /// Panics if the line falls outside DRAM or crosses a frame.
    pub(crate) fn write_line<const N: usize>(&mut self, addr: u64, line: &[u8; N]) {
        assert!(self.contains(addr, N), "DRAM write out of range");
        let (index, off) = Self::locate(addr);
        let dst: &mut [u8; N] = (&mut self.frame_mut(index)[off..off + N])
            .try_into()
            .expect("line within a frame");
        *dst = *line;
    }

    /// Apply a power event: every written 8-byte cell survives with the
    /// model's probability, otherwise it is replaced with random decay
    /// garbage.
    ///
    /// Determinism: frames are visited in ascending address order (the
    /// frame table's index order), and every cell of every populated
    /// frame draws from the seeded RNG exactly once, so two DRAMs with
    /// the same seed, same frame population, and same event sequence
    /// decay byte-identically. A certain-survival event (probability
    /// `>= 1.0`) is a no-op that leaves the RNG stream untouched.
    pub(crate) fn apply_power_event(&mut self, event: PowerEvent) {
        let survival = self.remanence.survival(event);
        if survival >= 1.0 {
            return;
        }
        for data in self.frames.iter_mut().flatten() {
            for cell in data.chunks_mut(8) {
                if self.rng.next_f64() >= survival {
                    self.rng.fill(cell);
                }
            }
        }
    }

    /// Iterate over all populated frames as `(base_addr, bytes)`, in
    /// ascending address order (deterministic — never hash order).
    pub fn iter_frames(&self) -> impl Iterator<Item = (u64, &[u8])> + '_ {
        self.frames.iter().zip(0u64..).filter_map(|(data, index)| {
            Some((DRAM_BASE + index * PAGE_SIZE, &data.as_deref()?[..]))
        })
    }

    /// Count non-overlapping 8-byte-aligned occurrences of `pattern` in
    /// all populated frames — the paper's remanence measurement (grep
    /// for the fill pattern and count).
    ///
    /// # Panics
    ///
    /// Panics if `pattern` is not exactly 8 bytes.
    #[must_use]
    pub fn count_pattern(&self, pattern: &[u8; 8]) -> u64 {
        self.frames
            .iter()
            .flatten()
            .flat_map(|data| data.chunks_exact(8))
            .filter(|cell| cell == pattern)
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> Dram {
        Dram::new(16 * 1024 * 1024, RemanenceModel::default(), 42)
    }

    #[test]
    fn read_of_unwritten_memory_is_zero() {
        let d = dram();
        let mut buf = [0xAAu8; 64];
        d.read(DRAM_BASE + 12345, &mut buf);
        assert_eq!(buf, [0u8; 64]);
    }

    #[test]
    fn write_read_roundtrip_across_frames() {
        let mut d = dram();
        let data: Vec<u8> = (0..8192).map(|i| (i % 251) as u8).collect();
        // Deliberately unaligned, spanning three frames.
        let addr = DRAM_BASE + PAGE_SIZE - 100;
        d.write(addr, &data);
        let mut back = vec![0u8; data.len()];
        d.read(addr, &mut back);
        assert_eq!(back, data);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn read_outside_dram_panics() {
        let d = dram();
        let mut buf = [0u8; 4];
        d.read(DRAM_BASE + d.size(), &mut buf);
    }

    #[test]
    fn warm_reboot_keeps_most_cells() {
        let mut d = dram();
        let pattern = *b"SENTRYOK";
        let cells = 100_000u64;
        for i in 0..cells {
            d.write(DRAM_BASE + i * 8, &pattern);
        }
        d.apply_power_event(PowerEvent::WarmReboot);
        let survived = d.count_pattern(&pattern) as f64 / cells as f64;
        assert!((survived - 0.964).abs() < 0.01, "survival {survived}");
    }

    #[test]
    fn two_second_reset_destroys_nearly_everything() {
        let mut d = dram();
        let pattern = *b"SENTRYOK";
        let cells = 100_000u64;
        for i in 0..cells {
            d.write(DRAM_BASE + i * 8, &pattern);
        }
        d.apply_power_event(PowerEvent::HardReset { seconds: 2.0 });
        let survived = d.count_pattern(&pattern) as f64 / cells as f64;
        assert!(survived < 0.005, "survival {survived}");
    }

    #[test]
    fn freezing_slows_decay() {
        let warm = RemanenceModel::default();
        let frozen = RemanenceModel {
            temperature_c: -15.0,
            ..RemanenceModel::default()
        };
        let event = PowerEvent::HardReset { seconds: 2.0 };
        assert!(frozen.survival(event) > 100.0 * warm.survival(event));
    }

    #[test]
    fn survival_decays_monotonically_with_time() {
        let m = RemanenceModel::default();
        let mut last = 1.0;
        for t in [0.1, 0.5, 1.0, 2.0, 5.0, 30.0] {
            let s = m.survival(PowerEvent::HardReset { seconds: t });
            assert!(s < last);
            last = s;
        }
    }

    #[test]
    fn iter_frames_yields_ascending_addresses() {
        let mut d = dram();
        // Populate out of address order.
        for frame in [9u64, 1, 5, 0, 3] {
            d.write(DRAM_BASE + frame * PAGE_SIZE, b"frame");
        }
        let addrs: Vec<u64> = d.iter_frames().map(|(a, _)| a).collect();
        let mut sorted = addrs.clone();
        sorted.sort_unstable();
        assert_eq!(addrs, sorted, "iteration must be address-ordered");
        assert_eq!(addrs.len(), 5);
    }

    #[test]
    fn same_seed_runs_produce_byte_identical_images() {
        // The fault-matrix repro contract: a (seed, schedule) pair fully
        // determines the post-event DRAM image, byte for byte — not just
        // the surviving pattern count.
        let run = || {
            let mut d = Dram::new(1024 * 1024, RemanenceModel::default(), 99);
            for i in 0..2000u64 {
                d.write(DRAM_BASE + i * 8, b"SENTRYOK");
            }
            d.apply_power_event(PowerEvent::ReflashTap);
            d.apply_power_event(PowerEvent::HardReset { seconds: 0.5 });
            d.iter_frames()
                .map(|(addr, bytes)| (addr, bytes.to_vec()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    /// The decay of a 64 MiB DRAM whose frames were written out of
    /// address order, the first and the last frame among them, pinned
    /// as one digest over every populated frame and the surviving
    /// pattern count: the frame store must visit frames in address
    /// order, or the decay stream lands on different cells.
    #[test]
    fn decay_digest_is_pinned() {
        let mut d = Dram::new(64 << 20, RemanenceModel::default(), 0x5eed);
        let last = d.size() / PAGE_SIZE - 1;
        for (i, frame) in [700u64, 3, last, 0, 9000, 1, last - 1, 42]
            .into_iter()
            .enumerate()
        {
            let base = DRAM_BASE + frame * PAGE_SIZE;
            for cell in 0..PAGE_SIZE / 8 {
                let pattern = if (cell + i as u64).is_multiple_of(3) {
                    *b"SENTRYOK"
                } else {
                    [i as u8; 8]
                };
                d.write(base + cell * 8, &pattern);
            }
        }
        // A span that runs from frame 9000 into frame 9001, and a
        // partial write into a fresh frame.
        d.write(DRAM_BASE + 9001 * PAGE_SIZE - 100, &[0x5Au8; 300]);
        d.write(DRAM_BASE + 5 * PAGE_SIZE + 17, b"partial");
        d.apply_power_event(PowerEvent::ReflashTap);
        d.apply_power_event(PowerEvent::HardReset { seconds: 0.5 });

        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut fnv = |data: &[u8]| {
            for &b in data {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for (addr, bytes) in d.iter_frames() {
            fnv(&addr.to_le_bytes());
            fnv(bytes);
        }
        fnv(&d.count_pattern(b"SENTRYOK").to_le_bytes());
        assert_eq!(h, 12_329_859_288_955_567_070);
    }

    #[test]
    fn decay_is_deterministic_for_a_seed() {
        let run = || {
            let mut d = Dram::new(1024 * 1024, RemanenceModel::default(), 7);
            for i in 0..1000u64 {
                d.write(DRAM_BASE + i * 8, b"SENTRYOK");
            }
            d.apply_power_event(PowerEvent::ReflashTap);
            d.count_pattern(b"SENTRYOK")
        };
        assert_eq!(run(), run());
    }
}
