//! A PL310-style shared L2 cache with lockdown by way.
//!
//! Cortex-A9 platforms manage their shared L2 through ARM's PL310 cache
//! controller, which supports locking portions of the cache so they are
//! never evicted — a feature aimed at real-time predictability that
//! Sentry repurposes for security (§4.2). The model implements:
//!
//! * 1 MiB, 8 ways × 128 KiB, 32-byte lines, physically indexed;
//! * an *allocation mask* ("enable way" commands): new lines allocate
//!   only into enabled ways, while valid lines in disabled ways still
//!   serve hits — exactly the behaviour the paper's locking sequence
//!   relies on;
//! * the validated write-back guarantee: locked (disabled) ways are never
//!   chosen for eviction, so their dirty lines never reach DRAM;
//! * a *flush way-mask* honoured by maintenance flushes — the OS-level
//!   change of §4.5 (the Linux L2 flush paths grew from 428 to 676 lines
//!   to pass this mask);
//! * the raw full flush, which — as the paper discovered experimentally —
//!   cleans, invalidates, *and unlocks* every way, spilling locked
//!   contents to DRAM; Sentry must never invoke it while ways are locked.
//!
//! All DRAM-side traffic (line fills, write-backs) is routed through the
//! [`crate::bus::Bus`], so a bus monitor sees exactly what a probe on the
//! memory bus would see.
//!
//! # Line storage
//!
//! Tags live in one array per set, so a lookup compares the set's eight
//! tags in one pass; the set's dirty bits are one `u8` mask beside them.
//! Each way also keeps a residency bitmap, one bit per set (64 words),
//! set exactly while that way's tag in the set is valid. Line data is
//! stored way-major: the line of `(set, way)` sits at
//! `way * NUM_SETS + set`, so the 128 lines of a page resident in one
//! way are contiguous.
//!
//! An access moves lines in runs. A hit's run extends over the following
//! sets whose same way holds the same tag. A miss's run extends over the
//! following sets that also miss and whose victim, under the rule every
//! miss uses (the lowest free enabled way, else the way after the set's
//! round-robin pointer), is the same way; each such set's pointer moves
//! as its own miss would move it. The run evicts, fills and puts on the
//! bus one line at a time, in set order, just as separate misses would.
//! A miss's run then goes on over the lines its way already holds, as a
//! hit's does. Either run's bytes move as one copy (a write sets the
//! run's dirty bits in one pass). A run stops at the span's end and at
//! set 4095, where the next line belongs to the next tag; a partial head
//! or tail line is a run of one at an offset. This is exact because a
//! line sits in at most one way: `allocate` runs only when `find`
//! missed. An access charges its hits to the clock in one sum, at the
//! first miss (whose eviction and fill stamp the bus with the clock) and
//! at its end, so every bus timestamp is what per-line charging would
//! give.
//!
//! A flush walks the set bits of each flushed way's bitmap in ascending
//! set order, so its cost follows the lines resident, not the 4096 sets,
//! and its write-backs go out in the order a scan of every set gives.

use crate::bus::{Bus, BusMaster, BusOp};
use crate::clock::{CostModel, SimClock};
use crate::dram::Dram;

/// Cache line size in bytes.
pub const LINE_SIZE: usize = 32;
/// Number of ways.
pub const NUM_WAYS: usize = 8;
/// Bytes per way (128 KiB).
pub const WAY_BYTES: usize = 128 * 1024;
/// Number of sets (`WAY_BYTES / LINE_SIZE`).
pub const NUM_SETS: usize = WAY_BYTES / LINE_SIZE;
/// Allocation/flush mask covering all ways.
pub const ALL_WAYS: u8 = 0xFF;

/// The DRAM-side path a cache transaction uses: memory, bus, clock, and
/// the cost model. Bundled so cache/DMA methods stay readable.
pub struct MemPath<'a> {
    /// The DRAM behind the cache.
    pub dram: &'a mut Dram,
    /// The external memory bus (observable).
    pub bus: &'a mut Bus,
    /// The simulation clock.
    pub clock: &'a mut SimClock,
    /// Calibrated operation costs.
    pub costs: &'a CostModel,
}

/// A line's payload.
type Line = [u8; LINE_SIZE];

/// The tag-array entry of an invalid line. Real tags are line addresses
/// divided by [`NUM_SETS`], so they never reach it.
const INVALID: u64 = u64::MAX;

/// One way's residency bitmap: bit `set % 64` of word `set / 64`.
type Residency = [u64; NUM_SETS / 64];

/// Running hit/miss/traffic statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Line accesses served from the cache.
    pub hits: u64,
    /// Line accesses that required a DRAM fill.
    pub misses: u64,
    /// Dirty lines written back to DRAM on eviction or flush.
    pub writebacks: u64,
    /// Accesses performed uncached (no way enabled for allocation).
    pub uncached: u64,
}

/// The PL310 L2 cache controller and its data arrays.
pub struct Pl310 {
    /// Per set, each way's tag, or [`INVALID`].
    tags: Vec<[u64; NUM_WAYS]>,
    /// Per set, bit `w` set = way `w`'s line is dirty.
    dirty: Vec<u8>,
    /// Line data, way-major (see [`Pl310::idx`]).
    lines: Vec<Line>,
    /// Per way, the sets whose tag for that way is valid.
    resident: Box<[Residency; NUM_WAYS]>,
    alloc_mask: u8,
    flush_mask: u8,
    victims: Vec<u8>,
    stats: CacheStats,
}

impl std::fmt::Debug for Pl310 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pl310")
            .field("alloc_mask", &format_args!("{:#010b}", self.alloc_mask))
            .field("flush_mask", &format_args!("{:#010b}", self.flush_mask))
            .field("stats", &self.stats)
            .finish()
    }
}

impl Default for Pl310 {
    fn default() -> Self {
        Self::new()
    }
}

impl Pl310 {
    /// A powered-on, empty cache with all ways enabled for allocation
    /// and flushing.
    #[must_use]
    pub fn new() -> Self {
        Pl310 {
            tags: vec![[INVALID; NUM_WAYS]; NUM_SETS],
            dirty: vec![0; NUM_SETS],
            lines: vec![[0; LINE_SIZE]; NUM_SETS * NUM_WAYS],
            resident: Box::new([[0; NUM_SETS / 64]; NUM_WAYS]),
            alloc_mask: ALL_WAYS,
            flush_mask: ALL_WAYS,
            victims: vec![0u8; NUM_SETS],
            stats: CacheStats::default(),
        }
    }

    /// The current allocation mask (bit `w` set = way `w` may receive new
    /// allocations). Programming this register requires the TrustZone
    /// secure world; the [`crate::soc::Soc`] façade enforces that.
    #[must_use]
    pub fn alloc_mask(&self) -> u8 {
        self.alloc_mask
    }

    /// Program the allocation mask (the PL310 "enable way" command).
    pub fn set_alloc_mask(&mut self, mask: u8) {
        self.alloc_mask = mask;
    }

    /// The flush way-mask honoured by [`Pl310::maintenance_flush`].
    #[must_use]
    pub fn flush_mask(&self) -> u8 {
        self.flush_mask
    }

    /// Program the flush way-mask (the OS-side lock bookkeeping of §4.5).
    pub fn set_flush_mask(&mut self, mask: u8) {
        self.flush_mask = mask;
    }

    /// Statistics so far.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn set_and_tag(addr: u64) -> (usize, u64) {
        let line_addr = addr / LINE_SIZE as u64;
        ((line_addr as usize) % NUM_SETS, line_addr / NUM_SETS as u64)
    }

    fn line_base(set: usize, tag: u64) -> u64 {
        (tag * NUM_SETS as u64 + set as u64) * LINE_SIZE as u64
    }

    /// Way-major: a way's lines are contiguous, in set order.
    fn idx(set: usize, way: usize) -> usize {
        way * NUM_SETS + set
    }

    /// Give `(set, way)` tag `tag` (or [`INVALID`]), keeping the way's
    /// residency bit in step.
    fn set_tag(&mut self, set: usize, way: usize, tag: u64) {
        self.tags[set][way] = tag;
        let (word, bit) = (set / 64, 1u64 << (set % 64));
        if tag == INVALID {
            self.resident[way][word] &= !bit;
        } else {
            self.resident[way][word] |= bit;
        }
    }

    /// The ways of `set` whose tag is `tag`, as a bit mask: one compare
    /// per way.
    fn ways_with(&self, set: usize, tag: u64) -> u32 {
        self.tags[set]
            .iter()
            .enumerate()
            .fold(0u32, |m, (w, &t)| m | u32::from(t == tag) << w)
    }

    /// The way of `set` holding `tag`: the lowest bit of its hit mask.
    fn find(&self, set: usize, tag: u64) -> Option<usize> {
        let hit = self.ways_with(set, tag);
        (hit != 0).then(|| hit.trailing_zeros() as usize)
    }

    /// Which way (if any) currently holds the line containing `addr`.
    #[must_use]
    pub fn lookup_way(&self, addr: u64) -> Option<usize> {
        let (set, tag) = Self::set_and_tag(addr);
        self.find(set, tag)
    }

    /// Number of valid lines currently resident in `way`.
    ///
    /// # Panics
    ///
    /// Panics if `way >= NUM_WAYS`.
    #[must_use]
    pub fn valid_lines_in_way(&self, way: usize) -> usize {
        assert!(way < NUM_WAYS);
        self.resident[way]
            .iter()
            .map(|word| word.count_ones() as usize)
            .sum()
    }

    /// CPU read of `buf.len()` bytes at `addr` through the cache.
    pub fn read(&mut self, addr: u64, buf: &mut [u8], path: &mut MemPath<'_>) {
        self.access(addr, AccessBuf::Read(buf), path);
    }

    /// CPU write of `data` at `addr` through the cache (write-allocate,
    /// write-back).
    pub fn write(&mut self, addr: u64, data: &[u8], path: &mut MemPath<'_>) {
        self.access(addr, AccessBuf::Write(data), path);
    }

    /// Walk the lines of `addr..addr + buf.len()` once, from the first
    /// line's set and tag on, one run of lines at a time.
    fn access(&mut self, addr: u64, mut buf: AccessBuf<'_, '_>, path: &mut MemPath<'_>) {
        let len = buf.len();
        let (mut set, mut tag) = Self::set_and_tag(addr);
        let mut line_off = (addr % LINE_SIZE as u64) as usize;
        let mut done = 0usize;
        let mut hits = 0u64;
        while done < len {
            // The span's lines left in this tag.
            let last = (line_off + len - done)
                .div_ceil(LINE_SIZE)
                .min(NUM_SETS - set);
            let (way, mut run) = match self.find(set, tag) {
                Some(w) => {
                    hits += 1;
                    (Some(w), 1)
                }
                None => {
                    // The miss's eviction and fill read the clock, so
                    // the hits before it are charged first.
                    self.charge_hits(&mut hits, path);
                    match self.allocate(set, tag, last, path) {
                        Some((w, filled)) => (Some(w), filled),
                        None => (None, 1),
                    }
                }
            };
            // The run goes on over every following line of the span that
            // the same way holds. A line sits in at most one way
            // (`allocate` runs only after `find` missed), so each of
            // those lines is a hit in this way.
            if let Some(way) = way {
                let resolved = run;
                while run < last && self.tags[set + run][way] == tag {
                    run += 1;
                }
                hits += (run - resolved) as u64;
            }
            let n = (run * LINE_SIZE - line_off).min(len - done);
            match (way, &mut buf) {
                // No way is allocatable: perform the access uncached,
                // directly against DRAM.
                (None, buf) => {
                    self.stats.uncached += 1;
                    Self::uncached_span(addr + done as u64, done, n, buf, path);
                }
                (Some(way), AccessBuf::Read(out)) => {
                    let lines = &self.lines[Self::idx(set, way)..][..run];
                    copy(
                        &mut out[done..done + n],
                        &lines.as_flattened()[line_off..][..n],
                    );
                }
                (Some(way), AccessBuf::Write(input)) => {
                    let lines = &mut self.lines[Self::idx(set, way)..][..run];
                    copy(
                        &mut lines.as_flattened_mut()[line_off..][..n],
                        &input[done..done + n],
                    );
                    for dirty in &mut self.dirty[set..set + run] {
                        *dirty |= 1 << way;
                    }
                }
            }
            done += n;
            line_off = 0;
            set += run;
            if set == NUM_SETS {
                set = 0;
                tag += 1;
            }
        }
        self.charge_hits(&mut hits, path);
    }

    /// Count `hits` and charge them to the clock as one sum, then zero
    /// it. `SimClock::advance` saturates, so the sum lands where
    /// per-hit charges would have.
    fn charge_hits(&mut self, hits: &mut u64, path: &mut MemPath<'_>) {
        self.stats.hits += *hits;
        path.clock.advance(*hits * path.costs.cache_hit_ns);
        *hits = 0;
    }

    /// The way a miss in `set` evicts, and whether the set's round-robin
    /// pointer moves to it: the lowest invalid enabled way if there is
    /// one, else the next enabled way after the pointer. `alloc_mask`
    /// must not be zero.
    fn victim(&self, set: usize) -> (usize, bool) {
        let free = self.ways_with(set, INVALID) & u32::from(self.alloc_mask);
        if free != 0 {
            return (free.trailing_zeros() as usize, false);
        }
        let mut v = self.victims[set] as usize;
        loop {
            v = (v + 1) % NUM_WAYS;
            if self.alloc_mask & (1 << v) != 0 {
                return (v, true);
            }
        }
    }

    /// Allocate the line of `set` that missed, and with it each of the
    /// next lines, up to `max` in all, that also misses and evicts the
    /// same way: evict each victim and fill its line from DRAM, in set
    /// order. Returns the way and the run's length, or `None` if no way
    /// is enabled.
    fn allocate(
        &mut self,
        set: usize,
        tag: u64,
        max: usize,
        path: &mut MemPath<'_>,
    ) -> Option<(usize, usize)> {
        if self.alloc_mask == 0 {
            self.stats.misses += 1;
            return None;
        }
        let (way, mut rotate) = self.victim(set);
        let mut base = Self::line_base(set, tag);
        let mut run = 0;
        loop {
            let s = set + run;
            if rotate {
                self.victims[s] = way as u8;
            }
            self.clean_line(s, way, path);
            let line = &mut self.lines[Self::idx(s, way)];
            if path.dram.contains(base, LINE_SIZE) {
                path.dram.read_line(base, line);
            } else {
                *line = [0; LINE_SIZE];
            }
            Self::line_on_bus(BusOp::Read, base, line, path);
            self.set_tag(s, way, tag);
            run += 1;
            base += LINE_SIZE as u64;
            if run == max || self.tags[s + 1].contains(&tag) {
                break;
            }
            let (next, next_rotate) = self.victim(s + 1);
            if next != way {
                break;
            }
            rotate = next_rotate;
        }
        self.stats.misses += run as u64;
        Some((way, run))
    }

    /// If `(set, way)` is dirty, write it back over the bus and clean
    /// it. Only a valid line is ever dirty.
    fn clean_line(&mut self, set: usize, way: usize, path: &mut MemPath<'_>) {
        let bit = 1u8 << way;
        if self.dirty[set] & bit != 0 {
            self.dirty[set] &= !bit;
            let base = Self::line_base(set, self.tags[set][way]);
            let line = &self.lines[Self::idx(set, way)];
            if path.dram.contains(base, LINE_SIZE) {
                path.dram.write_line(base, line);
            }
            Self::line_on_bus(BusOp::Write, base, line, path);
            self.stats.writebacks += 1;
        }
    }

    /// Charge one line's DRAM transfer and show it on the bus.
    fn line_on_bus(op: BusOp, base: u64, line: &Line, path: &mut MemPath<'_>) {
        path.clock.advance(path.costs.dram_line_ns);
        path.bus
            .transact(path.clock.now_ns(), op, BusMaster::Cache, base, line);
    }

    /// `buf[buf_off..buf_off + n]` straight to or from DRAM at `addr`.
    fn uncached_span(
        addr: u64,
        buf_off: usize,
        n: usize,
        buf: &mut AccessBuf<'_, '_>,
        path: &mut MemPath<'_>,
    ) {
        path.clock.advance(path.costs.dram_line_ns);
        let (op, data): (BusOp, &[u8]) = match buf {
            AccessBuf::Read(out) => {
                let out = &mut out[buf_off..buf_off + n];
                path.dram.read(addr, out);
                (BusOp::Read, out)
            }
            AccessBuf::Write(input) => {
                let input = &input[buf_off..buf_off + n];
                path.dram.write(addr, input);
                (BusOp::Write, input)
            }
        };
        path.bus
            .transact(path.clock.now_ns(), op, BusMaster::CpuUncached, addr, data);
    }

    /// Maintenance clean-and-invalidate of the ways selected by the flush
    /// way-mask. This is the *patched* Linux flush path: locked ways are
    /// excluded from the mask, so their contents stay resident.
    pub fn maintenance_flush(&mut self, path: &mut MemPath<'_>) {
        let mask = self.flush_mask;
        self.flush_ways(mask, path);
    }

    /// The raw hardware full flush: cleans and invalidates **all** ways
    /// and re-enables them for allocation — i.e., it unlocks every locked
    /// way, exactly the hazard the paper discovered in §4.2. Only the
    /// firmware/boot path and the "unpatched OS" experiments call this.
    pub fn flush_all_raw(&mut self, path: &mut MemPath<'_>) {
        self.flush_ways(ALL_WAYS, path);
        self.alloc_mask = ALL_WAYS;
    }

    fn flush_ways(&mut self, mask: u8, path: &mut MemPath<'_>) {
        for way in 0..NUM_WAYS {
            if mask & (1 << way) == 0 {
                continue;
            }
            path.clock.advance(path.costs.cache_flush_way_ns);
            for word in 0..NUM_SETS / 64 {
                let mut sets = self.resident[way][word];
                while sets != 0 {
                    let set = word * 64 + sets.trailing_zeros() as usize;
                    sets &= sets - 1;
                    self.clean_line(set, way, path);
                    self.set_tag(set, way, INVALID);
                }
            }
        }
    }

    /// Drop the line covering `addr` (if resident) **without**
    /// write-back. Models a DRAM-array disturbance behind the cache's
    /// back: the stale line is discarded so the next access refills from
    /// the (tampered) DRAM contents. Returns whether a line was dropped.
    pub fn invalidate_line(&mut self, addr: u64) -> bool {
        let (set, tag) = Self::set_and_tag(addr);
        match self.find(set, tag) {
            Some(way) => {
                self.set_tag(set, way, INVALID);
                self.dirty[set] &= !(1 << way);
                true
            }
            None => false,
        }
    }

    /// Power-on reset: invalidate everything *without* write-back (the
    /// arrays come up in an undefined state and firmware initializes
    /// them), and reset masks. Matches the firmware behaviour that makes
    /// locked-cache contents unrecoverable by cold boot (§4.3).
    pub fn power_on_reset(&mut self) {
        self.tags.fill([INVALID; NUM_WAYS]);
        self.dirty.fill(0);
        self.lines.fill([0; LINE_SIZE]);
        self.resident.fill([0; NUM_SETS / 64]);
        self.alloc_mask = ALL_WAYS;
        self.flush_mask = ALL_WAYS;
        self.victims.fill(0);
    }

    /// Dump the valid lines of a way as `(dram_addr, data)` pairs —
    /// used by tests and by "electron microscope"-class introspection
    /// that is explicitly out of the threat model.
    #[must_use]
    pub fn dump_way(&self, way: usize) -> Vec<(u64, [u8; LINE_SIZE])> {
        assert!(way < NUM_WAYS);
        self.tags
            .iter()
            .enumerate()
            .filter(|(_, t)| t[way] != INVALID)
            .map(|(set, t)| {
                (
                    Self::line_base(set, t[way]),
                    self.lines[Self::idx(set, way)],
                )
            })
            .collect()
    }
}

/// Copy `src` into `dst`, of the same length: one whole line as a
/// fixed-size move (short accesses move runs of one line, and a slice
/// copy of one would be a `memcpy` call), anything else as a slice copy.
fn copy(dst: &mut [u8], src: &[u8]) {
    match (<&mut Line>::try_from(&mut *dst), <&Line>::try_from(src)) {
        (Ok(dst), Ok(src)) => *dst = *src,
        _ => dst.copy_from_slice(src),
    }
}

enum AccessBuf<'a, 'b> {
    Read(&'a mut [u8]),
    Write(&'b [u8]),
}

impl AccessBuf<'_, '_> {
    fn len(&self) -> usize {
        match self {
            AccessBuf::Read(b) => b.len(),
            AccessBuf::Write(b) => b.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::DRAM_BASE;
    use crate::dram::RemanenceModel;

    fn fixture() -> (Pl310, Dram, Bus, SimClock, CostModel) {
        (
            Pl310::new(),
            Dram::new(16 * 1024 * 1024, RemanenceModel::default(), 1),
            Bus::new(),
            SimClock::new(),
            CostModel::tegra3(),
        )
    }

    macro_rules! path {
        ($dram:expr, $bus:expr, $clock:expr, $costs:expr) => {
            &mut MemPath {
                dram: &mut $dram,
                bus: &mut $bus,
                clock: &mut $clock,
                costs: &$costs,
            }
        };
    }

    #[test]
    fn cached_write_then_read_hits() {
        let (mut cache, mut dram, mut bus, mut clock, costs) = fixture();
        cache.write(DRAM_BASE, b"hello, cache", path!(dram, bus, clock, costs));
        let mut buf = [0u8; 12];
        cache.read(DRAM_BASE, &mut buf, path!(dram, bus, clock, costs));
        assert_eq!(&buf, b"hello, cache");
        assert!(cache.stats().hits >= 1);
    }

    #[test]
    fn dirty_data_not_in_dram_until_evicted() {
        let (mut cache, mut dram, mut bus, mut clock, costs) = fixture();
        cache.write(DRAM_BASE, b"secretpw", path!(dram, bus, clock, costs));
        // DRAM still has zeros: write-back cache.
        let mut raw = [0u8; 8];
        dram.read(DRAM_BASE, &mut raw);
        assert_eq!(raw, [0u8; 8]);
        // Flush pushes it out.
        cache.maintenance_flush(path!(dram, bus, clock, costs));
        dram.read(DRAM_BASE, &mut raw);
        assert_eq!(&raw, b"secretpw");
    }

    #[test]
    fn locked_way_lines_survive_eviction_pressure() {
        let (mut cache, mut dram, mut bus, mut clock, costs) = fixture();
        // Lock sequence from §4.5: flush, enable only way 0, warm it,
        // enable the last 7 ways.
        cache.maintenance_flush(path!(dram, bus, clock, costs));
        cache.set_alloc_mask(0b0000_0001);
        let locked_base = DRAM_BASE + 0x10_0000;
        cache.write(locked_base, &[0xFFu8; 64], path!(dram, bus, clock, costs));
        cache.set_alloc_mask(0b1111_1110);
        cache.set_flush_mask(0b1111_1110);

        assert_eq!(cache.lookup_way(locked_base), Some(0));

        // Thrash every set heavily through the other ways.
        for round in 0..16u64 {
            for set_step in 0..NUM_SETS as u64 {
                let addr = DRAM_BASE + (round * NUM_SETS as u64 + set_step) * LINE_SIZE as u64;
                cache.write(addr, &[round as u8], path!(dram, bus, clock, costs));
            }
        }
        // The locked line is still resident in way 0.
        assert_eq!(cache.lookup_way(locked_base), Some(0));
        // And its contents never reached DRAM.
        let mut raw = [0u8; 64];
        dram.read(locked_base, &mut raw);
        assert_eq!(raw, [0u8; 64]);
    }

    #[test]
    fn masked_flush_spares_locked_way_raw_flush_does_not() {
        let (mut cache, mut dram, mut bus, mut clock, costs) = fixture();
        cache.set_alloc_mask(0b0000_0001);
        let locked_base = DRAM_BASE + 0x20_0000;
        cache.write(locked_base, b"KEYMATRL", path!(dram, bus, clock, costs));
        cache.set_alloc_mask(0b1111_1110);
        cache.set_flush_mask(0b1111_1110);

        cache.maintenance_flush(path!(dram, bus, clock, costs));
        assert_eq!(
            cache.lookup_way(locked_base),
            Some(0),
            "masked flush must spare way 0"
        );

        // The raw full flush — the behaviour the paper validated on real
        // hardware — evicts and *unlocks* everything.
        cache.flush_all_raw(path!(dram, bus, clock, costs));
        assert_eq!(cache.lookup_way(locked_base), None);
        assert_eq!(cache.alloc_mask(), ALL_WAYS);
        let mut raw = [0u8; 8];
        dram.read(locked_base, &mut raw);
        assert_eq!(&raw, b"KEYMATRL", "raw flush spills locked data to DRAM");
    }

    #[test]
    fn hits_serve_from_disabled_ways() {
        let (mut cache, mut dram, mut bus, mut clock, costs) = fixture();
        cache.set_alloc_mask(0b0000_0001);
        let addr = DRAM_BASE + 0x30_0000;
        cache.write(addr, b"pinned!!", path!(dram, bus, clock, costs));
        cache.set_alloc_mask(0b1111_1110);
        // Reads and writes still hit way 0.
        let mut buf = [0u8; 8];
        cache.read(addr, &mut buf, path!(dram, bus, clock, costs));
        assert_eq!(&buf, b"pinned!!");
        cache.write(addr, b"pinned!2", path!(dram, bus, clock, costs));
        assert_eq!(cache.lookup_way(addr), Some(0));
    }

    #[test]
    fn no_enabled_ways_means_uncached() {
        let (mut cache, mut dram, mut bus, mut clock, costs) = fixture();
        cache.set_alloc_mask(0);
        cache.write(DRAM_BASE, b"uncached", path!(dram, bus, clock, costs));
        let mut raw = [0u8; 8];
        dram.read(DRAM_BASE, &mut raw);
        assert_eq!(&raw, b"uncached");
        assert!(cache.stats().uncached > 0);
        assert!(bus.writes() > 0);
    }

    #[test]
    fn power_on_reset_drops_contents_without_writeback() {
        let (mut cache, mut dram, mut bus, mut clock, costs) = fixture();
        cache.write(DRAM_BASE + 64, b"volatile", path!(dram, bus, clock, costs));
        cache.power_on_reset();
        assert_eq!(cache.lookup_way(DRAM_BASE + 64), None);
        let mut raw = [0u8; 8];
        dram.read(DRAM_BASE + 64, &mut raw);
        assert_eq!(raw, [0u8; 8], "power-on reset must not write back");
    }

    #[test]
    fn eviction_writes_cross_the_bus() {
        let (mut cache, mut dram, mut bus, mut clock, costs) = fixture();
        // Write more distinct lines mapping to the same set than there
        // are ways, forcing evictions.
        let set_stride = (NUM_SETS * LINE_SIZE) as u64;
        for i in 0..(NUM_WAYS as u64 + 2) {
            cache.write(
                DRAM_BASE + i * set_stride,
                &[i as u8; LINE_SIZE],
                path!(dram, bus, clock, costs),
            );
        }
        assert!(cache.stats().writebacks >= 2);
        assert!(bus.writes() >= 2);
    }

    #[test]
    fn unaligned_access_spanning_lines() {
        let (mut cache, mut dram, mut bus, mut clock, costs) = fixture();
        let addr = DRAM_BASE + LINE_SIZE as u64 - 5;
        let data: Vec<u8> = (0..80).collect();
        cache.write(addr, &data, path!(dram, bus, clock, costs));
        let mut buf = vec![0u8; 80];
        cache.read(addr, &mut buf, path!(dram, bus, clock, costs));
        assert_eq!(buf, data);
    }

    #[test]
    fn geometry_constants() {
        assert_eq!(NUM_WAYS * WAY_BYTES, 1024 * 1024);
        assert_eq!(NUM_SETS, 4096);
    }
}
