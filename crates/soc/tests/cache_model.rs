//! Model-based verification of the PL310 cache: under any interleaving
//! of cached accesses, mask changes, flushes, and DMA, the *CPU's view*
//! of memory must match a flat reference model, and architectural
//! invariants must hold.
//!
//! This is the test that makes the locked-way security results
//! trustworthy: if the functional cache disagreed with a flat memory on
//! ordinary accesses, "the secret never reached DRAM" could simply mean
//! "the simulation lost it".

use proptest::collection::vec;
use proptest::prelude::*;
use sentry_soc::addr::DRAM_BASE;
use sentry_soc::cache::ALL_WAYS;
use sentry_soc::Soc;
use std::collections::HashMap;

/// Operations the fuzzer interleaves.
#[derive(Debug, Clone)]
enum Op {
    Write { off: u64, byte: u8, len: u8 },
    Read { off: u64, len: u8 },
    MaintenanceFlush,
    SetAllocMask(u8),
    SetFlushMask(u8),
    DmaRead { off: u64, len: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let span = 512 * 1024u64; // 512 KB working window
    prop_oneof![
        4 => (0..span, any::<u8>(), 1u8..65).prop_map(|(off, byte, len)| Op::Write { off, byte, len }),
        4 => (0..span, 1u8..65).prop_map(|(off, len)| Op::Read { off, len }),
        1 => Just(Op::MaintenanceFlush),
        1 => (1u8..=255).prop_map(Op::SetAllocMask),
        1 => any::<u8>().prop_map(Op::SetFlushMask),
        1 => (0..span, 1u8..65).prop_map(|(off, len)| Op::DmaRead { off, len }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// The CPU's cached view always equals the flat reference model,
    /// regardless of masks, flushes, and concurrent DMA reads.
    #[test]
    fn cached_view_matches_flat_memory(ops in vec(op_strategy(), 1..120)) {
        let mut soc = Soc::tegra3_small();
        let mut reference: HashMap<u64, u8> = HashMap::new();

        for op in &ops {
            match *op {
                Op::Write { off, byte, len } => {
                    let data: Vec<u8> = (0..len).map(|i| byte.wrapping_add(i)).collect();
                    soc.mem_write(DRAM_BASE + off, &data).unwrap();
                    for (i, &b) in data.iter().enumerate() {
                        reference.insert(off + i as u64, b);
                    }
                }
                Op::Read { off, len } => {
                    let mut buf = vec![0u8; len as usize];
                    soc.mem_read(DRAM_BASE + off, &mut buf).unwrap();
                    for (i, &b) in buf.iter().enumerate() {
                        let expect = reference.get(&(off + i as u64)).copied().unwrap_or(0);
                        prop_assert_eq!(b, expect, "read mismatch at offset {}", off + i as u64);
                    }
                }
                Op::MaintenanceFlush => soc.cache_maintenance_flush(),
                Op::SetAllocMask(mask) => {
                    soc.in_secure_world(|soc| soc.set_cache_alloc_mask(mask)).unwrap();
                }
                Op::SetFlushMask(mask) => soc.set_cache_flush_mask(mask),
                Op::DmaRead { off, len } => {
                    // DMA may see stale data (that is the architecture);
                    // it must never *change* the CPU's view.
                    let _ = soc.dma_read(0, DRAM_BASE + off, len as usize);
                }
            }
        }

        // Final sweep: everything the reference knows must read back.
        for (&off, &byte) in &reference {
            let mut b = [0u8; 1];
            soc.mem_read(DRAM_BASE + off, &mut b).unwrap();
            prop_assert_eq!(b[0], byte, "final sweep at {}", off);
        }
    }

    /// After a full-mask maintenance flush, DRAM itself (as DMA sees it)
    /// agrees with the CPU view — the cache holds nothing dirty.
    #[test]
    fn full_flush_synchronizes_dram(ops in vec(op_strategy(), 1..60)) {
        let mut soc = Soc::tegra3_small();
        let mut reference: HashMap<u64, u8> = HashMap::new();
        for op in &ops {
            if let Op::Write { off, byte, len } = *op {
                let data: Vec<u8> = (0..len).map(|i| byte.wrapping_add(i)).collect();
                soc.mem_write(DRAM_BASE + off, &data).unwrap();
                for (i, &b) in data.iter().enumerate() {
                    reference.insert(off + i as u64, b);
                }
            }
        }
        soc.set_cache_flush_mask(ALL_WAYS);
        soc.cache_maintenance_flush();
        for (&off, &byte) in &reference {
            let via_dma = soc.dma_read(0, DRAM_BASE + off, 1).unwrap();
            prop_assert_eq!(via_dma[0], byte, "DRAM out of sync at {}", off);
        }
    }

    /// Lock-style pinning under fuzzing: data written while only one
    /// way is enabled, then excluded from allocation and flushing, is
    /// never visible to DMA no matter what traffic follows.
    #[test]
    fn pinned_lines_never_leak_under_fuzzing(
        ops in vec(op_strategy(), 1..80),
        secret_page in 0u64..8,
    ) {
        let mut soc = Soc::tegra3_small();
        // Manual lock sequence into way 0, window outside the fuzz span.
        let window = DRAM_BASE + (16 << 20) + secret_page * 4096;
        soc.cache_maintenance_flush();
        soc.in_secure_world(|soc| soc.set_cache_alloc_mask(0b0000_0001)).unwrap();
        let secret = [0xEEu8; 4096];
        soc.mem_write(window, &secret).unwrap();
        soc.in_secure_world(|soc| soc.set_cache_alloc_mask(0b1111_1110)).unwrap();
        soc.set_cache_flush_mask(0b1111_1110);

        for op in &ops {
            match *op {
                Op::Write { off, byte, len } => {
                    let data: Vec<u8> = (0..len).map(|i| byte.wrapping_add(i)).collect();
                    soc.mem_write(DRAM_BASE + off, &data).unwrap();
                }
                Op::Read { off, len } => {
                    let mut buf = vec![0u8; len as usize];
                    soc.mem_read(DRAM_BASE + off, &mut buf).unwrap();
                }
                Op::MaintenanceFlush => soc.cache_maintenance_flush(),
                // The fuzzer may *not* reprogram the lockdown masks here:
                // that is privileged state Sentry owns. DMA is fair game.
                Op::SetAllocMask(_) | Op::SetFlushMask(_) => {}
                Op::DmaRead { off, len } => {
                    let _ = soc.dma_read(0, DRAM_BASE + off, len as usize);
                }
            }
        }

        // The pinned data still reads back through the CPU...
        let mut buf = [0u8; 4096];
        soc.mem_read(window, &mut buf).unwrap();
        prop_assert_eq!(buf, secret);
        // ...and never reached DRAM.
        let via_dma = soc.dma_read(0, window, 4096).unwrap();
        prop_assert!(via_dma.iter().all(|&b| b != 0xEE), "pinned line leaked to DRAM");
    }
}

mod pinned_trace {
    //! The PL310 model's observable behaviour, pinned as digests over
    //! seeded traces: a change to how the cache stores or walks its
    //! lines must leave every hit, miss, write-back, bus transaction and
    //! clock charge exactly where it was.

    use sentry_soc::addr::{DRAM_BASE, PAGE_SIZE};
    use sentry_soc::bus::{Bus, BusMaster, BusObserver, BusOp, BusTransaction};
    use sentry_soc::cache::{MemPath, Pl310, ALL_WAYS, LINE_SIZE, NUM_SETS, NUM_WAYS, WAY_BYTES};
    use sentry_soc::dram::{Dram, RemanenceModel};
    use sentry_soc::{CostModel, SimClock};
    use std::collections::HashSet;
    use std::sync::{Arc, Mutex};

    /// Records every bus transaction in order.
    #[derive(Default)]
    struct Transcript(Mutex<Vec<BusTransaction>>);

    impl BusObserver for Transcript {
        fn observe(&self, tx: &BusTransaction) {
            self.0.lock().unwrap().push(tx.clone());
        }
    }

    /// 64-bit FNV-1a.
    struct Fnv(u64);

    impl Fnv {
        fn bytes(&mut self, data: &[u8]) {
            for &b in data {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        fn u64(&mut self, v: u64) {
            self.bytes(&v.to_le_bytes());
        }
    }

    /// What a trace leaves besides the cache: the clock and the bus's
    /// read and write counts and bytes.
    type Counters = [u64; 5];

    /// Run `steps` steps of a seeded trace, each one `step(step, r, ..)`
    /// with a fresh xorshift draw `r`, and digest what the trace left
    /// observable: whatever the steps hashed, then the stats, the clock,
    /// the masks, every bus transaction and every way's contents. The
    /// cache and the counters come back too, for the invariants. With
    /// `probed` false no transcript watches the bus, and the digest sees
    /// no transaction.
    fn digest(
        seed: u64,
        steps: usize,
        probed: bool,
        mut step: impl FnMut(usize, u64, &mut Pl310, &mut MemPath<'_>, &mut Fnv),
    ) -> (u64, Pl310, Counters) {
        let mut cache = Pl310::new();
        let mut dram = Dram::new(16 << 20, RemanenceModel::default(), 1);
        let mut bus = Bus::new();
        let mut clock = SimClock::new();
        let costs = CostModel::tegra3();
        let transcript = Arc::new(Transcript::default());
        if probed {
            bus.attach(transcript.clone());
        }
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);

        let mut state = seed;
        for i in 0..steps {
            let mut path = MemPath {
                dram: &mut dram,
                bus: &mut bus,
                clock: &mut clock,
                costs: &costs,
            };
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            step(i, state, &mut cache, &mut path, &mut h);
        }

        let stats = cache.stats();
        for v in [
            stats.hits,
            stats.misses,
            stats.writebacks,
            stats.uncached,
            clock.now_ns(),
            u64::from(cache.alloc_mask()),
            u64::from(cache.flush_mask()),
        ] {
            h.u64(v);
        }
        let txs = transcript.0.lock().unwrap();
        h.u64(txs.len() as u64);
        for tx in txs.iter() {
            h.u64(tx.at_ns);
            h.u64(u64::from(tx.op == BusOp::Write));
            h.u64(match tx.master {
                BusMaster::Cache => 0,
                BusMaster::CpuUncached => 1,
                BusMaster::Dma => 2,
                BusMaster::CryptoAccel => 3,
            });
            h.u64(tx.addr);
            h.bytes(&tx.data);
        }
        for way in 0..NUM_WAYS {
            h.u64(cache.valid_lines_in_way(way) as u64);
            for (base, data) in cache.dump_way(way) {
                h.u64(base);
                h.bytes(&data);
            }
        }
        let counters = [
            clock.now_ns(),
            bus.reads(),
            bus.writes(),
            bus.bytes_read(),
            bus.bytes_written(),
        ];
        (h.0, cache, counters)
    }

    /// Write `len` bytes derived from `step` at `at`, or read them and
    /// hash what came back.
    fn rw(
        write: bool,
        at: u64,
        len: usize,
        step: usize,
        cache: &mut Pl310,
        path: &mut MemPath<'_>,
        h: &mut Fnv,
    ) {
        if write {
            let data: Vec<u8> = (0..len).map(|i| (step + i) as u8).collect();
            cache.write(at, &data, path);
        } else {
            let mut buf = vec![0u8; len];
            cache.read(at, &mut buf, path);
            h.bytes(&buf);
        }
    }

    /// Short accesses: ten tags over 64 sets, so every set sees more
    /// lines than it has ways, and evictions, round-robin victims and
    /// write-backs all happen.
    fn line_trace_digest(seed: u64, steps: usize, probed: bool) -> (u64, Pl310, Counters) {
        let addr = |r: u64| {
            let tag = r % 10;
            let set = (r >> 8) % 64;
            let off = (r >> 16) % LINE_SIZE as u64;
            DRAM_BASE + (tag * NUM_SETS as u64 + set) * LINE_SIZE as u64 + off
        };
        digest(seed, steps, probed, |step, r, cache, path, h| {
            match r % 1000 {
                0..=799 => {
                    let len = 1 + (r >> 40) as usize % 80;
                    rw(r % 1000 < 400, addr(r >> 8), len, step, cache, path, h);
                }
                // Lockdown-style masks (one way, all but one, none, all) as
                // well as arbitrary ones.
                800..=879 => {
                    let masks = [0x01, 0xFE, 0x00, 0xFF, (r >> 16) as u8];
                    cache.set_alloc_mask(masks[(r >> 8) as usize % masks.len()]);
                }
                880..=939 => cache.set_flush_mask((r >> 8) as u8),
                940..=942 => cache.maintenance_flush(path),
                943 => cache.flush_all_raw(path),
                944..=998 => h.u64(u64::from(cache.invalidate_line(addr(r >> 8)))),
                _ => cache.power_on_reset(),
            }
        })
    }

    /// Page-granular traffic, the shape paging and page crypto produce:
    /// page-aligned 4 KiB and 8 KiB accesses over ten tags (so whole
    /// pages evict each other), unaligned spans of one to five lines,
    /// and spans that wrap from set 4095 to set 0 of the next tag.
    fn page_trace_digest(seed: u64, steps: usize, probed: bool) -> (u64, Pl310, Counters) {
        const TAGS: u64 = 10;
        // Three accesses in four go to a hot set of 48 pages, the rest
        // anywhere: hits, misses and evictions all stay common.
        let page = |r: u64| {
            let pages = if r & 3 == 0 {
                TAGS * WAY_BYTES as u64 / PAGE_SIZE
            } else {
                48
            };
            DRAM_BASE + ((r >> 2) % pages) * PAGE_SIZE
        };
        let line = |r: u64| DRAM_BASE + (r % ((TAGS - 1) * NUM_SETS as u64)) * LINE_SIZE as u64;
        digest(seed, steps, probed, |step, r, cache, path, h| {
            let write = (r >> 60) & 1 == 1;
            match r % 1000 {
                0..=549 => rw(
                    write,
                    page(r >> 8),
                    PAGE_SIZE as usize,
                    step,
                    cache,
                    path,
                    h,
                ),
                550..=619 => {
                    let at =
                        page(r >> 8).min(DRAM_BASE + (TAGS * WAY_BYTES as u64) - 2 * PAGE_SIZE);
                    rw(write, at, 2 * PAGE_SIZE as usize, step, cache, path, h);
                }
                620..=719 => {
                    let at = line(r >> 8) + (r >> 24) % LINE_SIZE as u64;
                    let len = 1 + (r >> 32) as usize % (5 * LINE_SIZE);
                    rw(write, at, len, step, cache, path, h);
                }
                // The last lines of one tag's set 4095 run on into set 0
                // of the next tag: a few lines, or a whole page.
                720..=769 => {
                    let tag = (r >> 8) % (TAGS - 1);
                    let back = 1 + (r >> 16) % (5 * LINE_SIZE as u64);
                    let at = DRAM_BASE + (tag + 1) * WAY_BYTES as u64 - back;
                    let len = if (r >> 40) & 1 == 1 {
                        PAGE_SIZE as usize
                    } else {
                        back as usize + 1 + (r >> 44) as usize % (2 * LINE_SIZE)
                    };
                    rw(write, at, len, step, cache, path, h);
                }
                770..=829 => {
                    let masks = [0x00, 0x01, 0xFE, 0xFF, (r >> 16) as u8];
                    cache.set_alloc_mask(masks[(r >> 8) as usize % masks.len()]);
                }
                830..=869 => cache.set_flush_mask((r >> 8) as u8),
                870..=879 => cache.maintenance_flush(path),
                880 => cache.flush_all_raw(path),
                881..=998 => h.u64(u64::from(cache.invalidate_line(line(r >> 8)))),
                _ => cache.power_on_reset(),
            }
        })
    }

    /// The digest the line-array layout produced; every later layout
    /// must reproduce it bit for bit.
    #[test]
    fn seeded_trace_digest_is_pinned() {
        assert_eq!(
            line_trace_digest(0x5eed_ca11_ab1e_0001, 6_000, true).0,
            1_257_832_023_198_736_023
        );
    }

    /// The digest the per-line walk produced on page-granular traffic;
    /// the single line walk with batched hit charges must reproduce it.
    #[test]
    fn seeded_page_trace_digest_is_pinned() {
        assert_eq!(
            page_trace_digest(0x5eed_ca11_ab1e_0002, 3_000, true).0,
            2_073_478_454_498_901_651
        );
    }

    /// An access moves the lines one way holds in consecutive sets as one
    /// run, which is exact only while a line address sits in at most one
    /// way: a second copy would make the run's way ambiguous.
    #[test]
    fn no_set_holds_a_tag_in_two_ways() {
        let (_, lines, _) = line_trace_digest(0x5eed_ca11_ab1e_0001, 6_000, true);
        let (_, pages, _) = page_trace_digest(0x5eed_ca11_ab1e_0002, 3_000, true);
        for (name, cache) in [("line trace", lines), ("page trace", pages)] {
            let mut seen = HashSet::new();
            for way in 0..NUM_WAYS {
                for (base, _) in cache.dump_way(way) {
                    assert!(seen.insert(base), "{name}: line {base:#x} in two ways");
                }
            }
            assert!(!seen.is_empty(), "{name}: the trace left lines resident");
        }
    }

    /// A probe only watches the bus: both seeded traces must end with
    /// the same stats, clock, bus counters and way contents without one
    /// as in the probed runs pinned above.
    #[test]
    fn seeded_traces_end_the_same_without_a_probe() {
        type Trace = fn(u64, usize, bool) -> (u64, Pl310, Counters);
        let traces: [(&str, Trace, u64, usize); 2] = [
            (
                "line trace",
                line_trace_digest,
                0x5eed_ca11_ab1e_0001,
                6_000,
            ),
            (
                "page trace",
                page_trace_digest,
                0x5eed_ca11_ab1e_0002,
                3_000,
            ),
        ];
        for (name, trace, seed, steps) in traces {
            let (_, probed, seen) = trace(seed, steps, true);
            let (_, quiet, counted) = trace(seed, steps, false);
            assert_eq!(seen, counted, "{name}: clock and bus counters");
            assert_eq!(probed.stats(), quiet.stats(), "{name}: stats");
            for way in 0..NUM_WAYS {
                assert_eq!(
                    probed.dump_way(way),
                    quiet.dump_way(way),
                    "{name}: way {way}"
                );
            }
        }
    }

    /// Each way's residency bitmap names exactly the sets whose tag for
    /// that way is valid: its popcount is the number of lines the tags
    /// hold, and a raw flush, which visits only the lines the bitmaps
    /// name, leaves no line behind.
    #[test]
    fn residency_bitmaps_agree_with_the_tags() {
        let (_, lines, _) = line_trace_digest(0x5eed_ca11_ab1e_0001, 6_000, true);
        let (_, pages, _) = page_trace_digest(0x5eed_ca11_ab1e_0002, 3_000, true);
        for (name, mut cache) in [("line trace", lines), ("page trace", pages)] {
            let mut resident = 0;
            for way in 0..NUM_WAYS {
                let held = cache.dump_way(way).len();
                assert_eq!(cache.valid_lines_in_way(way), held, "{name}: way {way}");
                resident += held;
            }
            assert!(resident > 0, "{name}: the trace left lines resident");
            let mut dram = Dram::new(16 << 20, RemanenceModel::default(), 1);
            let mut bus = Bus::new();
            let mut clock = SimClock::new();
            cache.flush_all_raw(&mut MemPath {
                dram: &mut dram,
                bus: &mut bus,
                clock: &mut clock,
                costs: &CostModel::tegra3(),
            });
            for way in 0..NUM_WAYS {
                assert!(
                    cache.dump_way(way).is_empty(),
                    "{name}: way {way} kept lines"
                );
                assert_eq!(cache.valid_lines_in_way(way), 0, "{name}: way {way}");
            }
        }
    }

    /// A cache, its memory path and a bus transcript, with a flat copy
    /// of every byte written, for the run-boundary tests.
    struct Rig {
        cache: Pl310,
        dram: Dram,
        bus: Bus,
        clock: SimClock,
        costs: CostModel,
        transcript: Arc<Transcript>,
        flat: Vec<u8>,
    }

    impl Rig {
        fn new() -> Rig {
            Rig::with(1 << 20, true)
        }

        /// A rig over `dram_bytes` of DRAM, with the transcript attached
        /// to the bus or not. The flat copy covers sixteen tags.
        fn with(dram_bytes: u64, probed: bool) -> Rig {
            let mut bus = Bus::new();
            let transcript = Arc::new(Transcript::default());
            if probed {
                bus.attach(transcript.clone());
            }
            Rig {
                cache: Pl310::new(),
                dram: Dram::new(dram_bytes, RemanenceModel::default(), 1),
                bus,
                clock: SimClock::new(),
                costs: CostModel::tegra3(),
                transcript,
                flat: vec![0; 16 * WAY_BYTES],
            }
        }

        fn path(&mut self) -> (&mut Pl310, MemPath<'_>) {
            let path = MemPath {
                dram: &mut self.dram,
                bus: &mut self.bus,
                clock: &mut self.clock,
                costs: &self.costs,
            };
            (&mut self.cache, path)
        }

        /// Write `len` bytes derived from `salt` at `DRAM_BASE + off`.
        fn write(&mut self, off: u64, len: usize, salt: u8) {
            let data: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(7) ^ salt).collect();
            let (cache, mut path) = self.path();
            cache.write(DRAM_BASE + off, &data, &mut path);
            self.flat[off as usize..][..len].copy_from_slice(&data);
        }

        /// Read `len` bytes at `DRAM_BASE + off` and check them against
        /// every byte written.
        fn read(&mut self, off: u64, len: usize) {
            let mut buf = vec![0u8; len];
            let (cache, mut path) = self.path();
            cache.read(DRAM_BASE + off, &mut buf, &mut path);
            assert!(
                buf == self.flat[off as usize..][..len],
                "read of {len} bytes at {off:#x}"
            );
        }

        fn flush(&mut self) {
            let (cache, mut path) = self.path();
            cache.maintenance_flush(&mut path);
        }

        /// Hits, misses, write-backs and the clock, then the transcript's
        /// length and digest.
        fn observed(&self) -> [u64; 6] {
            let stats = self.cache.stats();
            let txs = self.transcript.0.lock().unwrap();
            let mut h = Fnv(0xcbf2_9ce4_8422_2325);
            for tx in txs.iter() {
                h.u64(tx.at_ns);
                h.u64(u64::from(tx.op == BusOp::Write));
                h.u64(u64::from(tx.master == BusMaster::Cache));
                h.u64(tx.addr);
                h.bytes(&tx.data);
            }
            [
                stats.hits,
                stats.misses,
                stats.writebacks,
                self.clock.now_ns(),
                txs.len() as u64,
                h.0,
            ]
        }

        /// The way holding line `line` (counted from `DRAM_BASE`).
        fn way_of(&self, line: u64) -> Option<usize> {
            self.cache.lookup_way(DRAM_BASE + line * LINE_SIZE as u64)
        }

        /// What a run leaves whether or not a probe watches the bus:
        /// hits, misses, write-backs, the clock, the bus's four counters
        /// and a digest of DRAM and of every way's lines.
        fn totals(&self) -> [u64; 9] {
            let stats = self.cache.stats();
            let mut h = Fnv(0xcbf2_9ce4_8422_2325);
            for (base, frame) in self.dram.iter_frames() {
                h.u64(base);
                h.bytes(frame);
            }
            for way in 0..NUM_WAYS {
                h.u64(self.cache.valid_lines_in_way(way) as u64);
                for (base, data) in self.cache.dump_way(way) {
                    h.u64(base);
                    h.bytes(&data);
                }
            }
            [
                stats.hits,
                stats.misses,
                stats.writebacks,
                self.clock.now_ns(),
                self.bus.reads(),
                self.bus.writes(),
                self.bus.bytes_read(),
                self.bus.bytes_written(),
                h.0,
            ]
        }
    }

    /// Run `scenario` on a rig whose bus a probe watches and on one whose
    /// bus nobody watches: both must leave the same totals, and the probe
    /// must have seen every transaction the bus counted. Returns the
    /// probed rig.
    fn probed_and_not(dram_bytes: u64, scenario: impl Fn(&mut Rig)) -> Rig {
        let mut quiet = Rig::with(dram_bytes, false);
        scenario(&mut quiet);
        let mut probed = Rig::with(dram_bytes, true);
        scenario(&mut probed);
        assert_eq!(probed.totals(), quiet.totals(), "a bus probe moved the run");
        let seen = probed.transcript.0.lock().unwrap().len() as u64;
        assert_eq!(seen, probed.bus.reads() + probed.bus.writes());
        assert_eq!(quiet.transcript.0.lock().unwrap().len(), 0);
        probed
    }

    /// The observable figures below were produced by the per-line walk;
    /// moving runs of lines must reproduce them.
    #[test]
    fn a_page_split_between_a_locked_and_an_unlocked_way() {
        let mut rig = Rig::new();
        let page = 5 * PAGE_SIZE;
        let first = page / LINE_SIZE as u64;
        // Lock the first half of the page into way 0, and every fourth
        // line of the second half.
        rig.cache.set_alloc_mask(0b0000_0001);
        rig.write(page, PAGE_SIZE as usize / 2, 1);
        for line in (64..128).step_by(4) {
            rig.write(page + line * LINE_SIZE as u64, LINE_SIZE, line as u8);
        }
        // Way 0 also holds line 101's set for the next tag, so a way-0
        // run from line 100 must stop at the tag, not at an invalid line.
        let other = WAY_BYTES as u64 + page + 101 * LINE_SIZE as u64;
        rig.write(other, LINE_SIZE, 0x65);
        rig.cache.set_alloc_mask(0b1111_1110);
        rig.cache.set_flush_mask(0b1111_1110);
        // The rest of the page misses and fills way 1; then whole-page
        // and unaligned accesses hit, switching ways every few lines.
        rig.read(page, PAGE_SIZE as usize);
        rig.write(page, PAGE_SIZE as usize, 9);
        rig.read(page + 3, PAGE_SIZE as usize - 6);
        rig.write(page + 2000, 300, 17);
        rig.read(page, PAGE_SIZE as usize);
        for line in 0..128 {
            let locked = line < 64 || line % 4 == 0;
            let want = if locked { 0 } else { 1 };
            assert_eq!(rig.way_of(first + line), Some(want), "line {line}");
        }
        assert_eq!(
            rig.observed(),
            [474, 129, 0, 8_688, 129, 12_315_894_972_921_315_925]
        );
        // The masked flush writes back the unlocked way's 48 lines only.
        rig.flush();
        assert_eq!(
            rig.observed(),
            [474, 129, 48, 186_568, 177, 15_800_110_419_548_066_671]
        );
        assert_eq!(rig.way_of(first + 1), Some(0));
        assert_eq!(rig.way_of(first + 65), None);
        rig.read(page, PAGE_SIZE as usize);
        rig.read(other, LINE_SIZE);
    }

    #[test]
    fn reads_and_writes_that_start_and_end_mid_line() {
        let mut rig = Rig::new();
        let base = 7 * PAGE_SIZE;
        // Line 2 sits in locked way 0, so spans over it change way twice.
        rig.cache.set_alloc_mask(0b0000_0001);
        rig.write(base + 2 * LINE_SIZE as u64, LINE_SIZE, 3);
        rig.cache.set_alloc_mask(0b1111_1110);
        rig.write(base + 5, 3 * LINE_SIZE + 7, 4);
        rig.write(base + 40, 10, 5);
        rig.read(base + 13, 100);
        rig.read(base + 31, 2);
        rig.write(base + 4 * LINE_SIZE as u64 - 1, 1, 6);
        rig.read(base + 4 * LINE_SIZE as u64 - 1, 2);
        rig.write(base + 70, 3 * LINE_SIZE, 7);
        rig.read(base, 6 * LINE_SIZE);
        assert_eq!(
            rig.observed(),
            [19, 6, 0, 398, 6, 3_932_089_538_076_598_325]
        );
    }

    #[test]
    fn a_run_crossing_from_set_4095_into_set_0_of_the_next_tag() {
        let mut rig = Rig::new();
        let wrap = WAY_BYTES as u64;
        // Set 0 of the next tag is resident in way 0 before the span
        // arrives, set 4095 of this one is not.
        rig.write(wrap + 8, 16, 1);
        rig.write(wrap - 2 * LINE_SIZE as u64 - 3, 200, 2);
        rig.write(wrap - 2 * LINE_SIZE as u64 - 3, 200, 3);
        rig.read(wrap - 100, 300);
        rig.write(wrap - PAGE_SIZE / 2 - 5, PAGE_SIZE as usize, 4);
        rig.read(wrap - PAGE_SIZE / 2 - 5, PAGE_SIZE as usize);
        let last = wrap / LINE_SIZE as u64 - 1;
        assert_eq!(rig.way_of(last), Some(0));
        assert_eq!(rig.way_of(last + 1), Some(0));
        assert_eq!(
            rig.observed(),
            [157, 129, 0, 8_054, 129, 7_313_079_080_774_766_382]
        );
    }

    #[test]
    fn a_write_run_then_a_flush_writes_back_the_runs_lines() {
        let mut rig = Rig::new();
        let page = 9 * PAGE_SIZE;
        // A clean page fill, then a write over lines 10..=20 (starting
        // and ending mid-line) dirties exactly those lines.
        rig.read(page, PAGE_SIZE as usize);
        rig.write(page + 10 * LINE_SIZE as u64 + 4, 10 * LINE_SIZE + 20, 5);
        let before = rig.transcript.0.lock().unwrap().len();
        rig.flush();
        let txs = rig.transcript.0.lock().unwrap()[before..].to_vec();
        let lines: Vec<u64> = txs
            .iter()
            .map(|tx| {
                assert_eq!(tx.op, BusOp::Write);
                assert_eq!(tx.master, BusMaster::Cache);
                let off = (tx.addr - DRAM_BASE) as usize;
                assert_eq!(tx.data, rig.flat[off..][..LINE_SIZE]);
                (tx.addr - DRAM_BASE - page) / LINE_SIZE as u64
            })
            .collect();
        assert_eq!(lines, (10..=20).collect::<Vec<_>>());
        assert_eq!(
            rig.observed(),
            [11, 128, 11, 208_362, 139, 11_343_870_565_450_942_368]
        );
        rig.read(page, PAGE_SIZE as usize);
    }

    /// The miss-run figures below were produced by the per-line walk,
    /// one fill and one bus transaction per missed line; filling runs of
    /// lines must reproduce them, with a bus probe and without.
    #[test]
    fn a_miss_run_stops_at_a_hit() {
        let page = 3 * PAGE_SIZE;
        let first = page / LINE_SIZE as u64;
        let line = |n: u64| page + n * LINE_SIZE as u64;
        let rig = probed_and_not(1 << 20, |rig| {
            // Line 40 sits in way 3 and line 80 in way 0 before the page
            // arrives, so the page's misses into way 0 run around them.
            rig.cache.set_alloc_mask(0b0000_1000);
            rig.write(line(40), LINE_SIZE, 1);
            rig.cache.set_alloc_mask(ALL_WAYS);
            rig.read(line(80) + 4, 8);
            rig.write(page + 5, PAGE_SIZE as usize - 10, 2);
            rig.read(page, PAGE_SIZE as usize);
        });
        for n in 0..128 {
            let want = if n == 40 { 3 } else { 0 };
            assert_eq!(rig.way_of(first + n), Some(want), "line {n}");
        }
        assert_eq!(
            rig.observed(),
            [130, 128, 0, 7_940, 128, 15_960_359_413_156_030_287]
        );
    }

    #[test]
    fn a_miss_run_stops_where_round_robin_picks_another_way() {
        // DRAM ends one page past the page at `off` in the ninth tag, so
        // the read of that tag below runs out of DRAM mid-span.
        let off = 2 * PAGE_SIZE;
        let way = WAY_BYTES as u64;
        let dram = 8 * way + off + PAGE_SIZE;
        let rig = probed_and_not(dram, |rig| {
            // Eight tags fill every way of the two pages' sets, tag `k`
            // in way `k`, all dirty.
            for tag in 0..8 {
                rig.write(tag * way + off, 2 * PAGE_SIZE as usize, tag as u8);
            }
            // A tenth tag (outside DRAM) takes round-robin way 1 in the
            // sets of lines 70 and 100, moving their pointers to way 1.
            for n in [70, 100] {
                rig.read(9 * way + off + n * LINE_SIZE as u64, 4);
            }
            // The ninth tag's half-page-offset span evicts way 1 except
            // at lines 70 and 100, where the pointers pick way 2; its
            // last 64 lines lie past the end of DRAM.
            rig.read(8 * way + off + PAGE_SIZE / 2, PAGE_SIZE as usize);
            rig.read(off, 2 * PAGE_SIZE as usize);
        });
        let first = (8 * way + off) / LINE_SIZE as u64;
        for n in 64..192 {
            let want = if n == 70 || n == 100 { 2 } else { 1 };
            assert_eq!(rig.way_of(first + n), Some(want), "line {n}");
        }
        assert_eq!(
            rig.observed(),
            [256, 2_178, 130, 138_992, 2_308, 3_848_066_806_785_756_961]
        );
    }

    #[test]
    fn a_one_way_allocation_mask_keeps_each_sets_round_robin_pointer() {
        let off = 6 * PAGE_SIZE;
        let way = WAY_BYTES as u64;
        let rig = probed_and_not(2 << 20, |rig| {
            // Eight clean pages, tag `k` in way `k`, then lines 30..60 of
            // each dirty, and way 2's lines 10..=20 dropped (clean).
            for tag in 0..8 {
                rig.write(tag * way + off, PAGE_SIZE as usize, tag as u8);
            }
            rig.flush();
            for tag in 0..8 {
                rig.read(tag * way + off, PAGE_SIZE as usize);
                rig.write(tag * way + off + 30 * LINE_SIZE as u64, 30 * LINE_SIZE, 9);
            }
            for n in 10..=20 {
                let (cache, _) = rig.path();
                assert!(cache.invalidate_line(DRAM_BASE + 2 * way + off + n * LINE_SIZE as u64));
            }
            // The lock sequence's warm: only way 2 allocates. Lines
            // 10..=20 take it free, the rest by round robin, which moves
            // those sets' pointers to way 2; way 2's dirty lines go back.
            rig.cache.set_alloc_mask(0b0000_0100);
            rig.write(8 * way + off, PAGE_SIZE as usize, 0xFF);
            // With every way enabled again the pointers show: way 3
            // after way 2, way 1 where the free way was taken.
            rig.cache.set_alloc_mask(ALL_WAYS);
            rig.read(9 * way + off, PAGE_SIZE as usize);
            rig.read(8 * way + off, PAGE_SIZE as usize);
        });
        let warm = (8 * way + off) / LINE_SIZE as u64;
        let next = (9 * way + off) / LINE_SIZE as u64;
        for n in 0..128 {
            assert_eq!(rig.way_of(warm + n), Some(2), "warm line {n}");
            let want = if (10..=20).contains(&n) { 1 } else { 3 };
            assert_eq!(rig.way_of(next + n), Some(want), "line {n}");
        }
        assert_eq!(
            rig.observed(),
            [
                368,
                2_304,
                1_084,
                404_016,
                3_388,
                16_638_791_714_764_581_749
            ]
        );
    }

    #[test]
    fn a_miss_run_writes_back_its_dirty_victims_in_set_order() {
        let page = 11 * PAGE_SIZE;
        let next = WAY_BYTES as u64 + page;
        let rig = probed_and_not(1 << 20, |rig| {
            // Way 0 holds the page clean, lines 10..=20 dirty; the next
            // tag's page then evicts all 128 lines from way 0.
            rig.cache.set_alloc_mask(0b0000_0001);
            rig.read(page, PAGE_SIZE as usize);
            rig.write(page + 10 * LINE_SIZE as u64 + 4, 10 * LINE_SIZE + 20, 5);
            rig.write(next + 1, PAGE_SIZE as usize - 2, 6);
        });
        let txs = rig.transcript.0.lock().unwrap();
        let run = &txs[128..];
        let mut want = Vec::new();
        for n in 0..128u64 {
            if (10..=20).contains(&n) {
                want.push((BusOp::Write, page + n * LINE_SIZE as u64));
            }
            want.push((BusOp::Read, next + n * LINE_SIZE as u64));
        }
        let got: Vec<(BusOp, u64)> = run.iter().map(|tx| (tx.op, tx.addr - DRAM_BASE)).collect();
        assert_eq!(got, want);
        let line_ns = rig.costs.dram_line_ns;
        for pair in run.windows(2) {
            assert_eq!(pair[1].at_ns, pair[0].at_ns + line_ns, "one line apart");
        }
        for tx in run.iter().filter(|tx| tx.op == BusOp::Write) {
            let at = (tx.addr - DRAM_BASE) as usize;
            assert_eq!(tx.data, rig.flat[at..][..LINE_SIZE]);
        }
        drop(txs);
        assert_eq!(
            rig.observed(),
            [11, 256, 11, 16_042, 267, 12_783_733_793_650_565_670]
        );
    }

    #[test]
    fn a_miss_run_crossing_from_set_4095_into_set_0_of_the_next_tag() {
        let way = WAY_BYTES as u64;
        let span = |tag: u64| tag * way - PAGE_SIZE / 2 - 3;
        let rig = probed_and_not(1 << 20, |rig| {
            // Way 1 alone takes a span across the first wrap, then the
            // same sets of the next wrap evict it, dirty, on both sides.
            rig.cache.set_alloc_mask(0b0000_0010);
            rig.write(span(1), PAGE_SIZE as usize + 6, 1);
            rig.write(span(2), PAGE_SIZE as usize + 6, 2);
            // With every way enabled the first span misses into free
            // way 0, across the wrap.
            rig.cache.set_alloc_mask(ALL_WAYS);
            rig.read(span(1), PAGE_SIZE as usize + 6);
            rig.write(span(1) + 100, PAGE_SIZE as usize, 3);
            rig.flush();
            rig.read(span(2), PAGE_SIZE as usize + 6);
        });
        let last = way / LINE_SIZE as u64 - 1;
        assert_eq!(rig.way_of(last), None);
        assert_eq!(rig.way_of(2 * (last + 1) - 1), Some(0));
        assert_eq!(rig.way_of(2 * (last + 1)), Some(0));
        assert_eq!(
            rig.observed(),
            [126, 523, 389, 254_972, 912, 3_712_150_970_382_743_367]
        );
    }
}
