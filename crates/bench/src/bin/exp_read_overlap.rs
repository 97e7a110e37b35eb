//! Read-overlap experiment: the async crypt pipeline on the filebench
//! read path.
//!
//! Three cells:
//!
//! 1. **Latency** — the filebench read personalities (seqread and
//!    randread, direct I/O) run over CTR-mode dm-crypt twice: inline
//!    (the paper's read path — wait for the device, then decrypt on the
//!    CPU) and overlapped (keystream precomputed into the on-SoC cache
//!    while the device seeks and the accelerator queue crunches miss
//!    runs, CPU finishing cache hits with a XOR). The overlapped mean
//!    per-op latency must be at least `MIN_SPEEDUP`× lower, with a
//!    byte-identical FNV digest.
//! 2. **Discipline** — keystream is single-use (hits never exceed
//!    precomputed sectors, stale-epoch takes are denied, never served)
//!    and the device-lock hook zeroizes every resident sector.
//! 3. **Cold boot** — a power cut at the `accel.dma` failpoint mid
//!    operation freezes the DRAM image; an attacker scan must find
//!    neither keystream nor plaintext anywhere in DRAM or iRAM (the
//!    bounce window holds only staged ciphertext).
//!
//! Results print as tables and land in `BENCH_read_overlap.json`. With
//! `--enforce`, a speedup below `MIN_SPEEDUP`, a digest mismatch, any
//! keystream-discipline violation, or any cold-boot hit fails the run.

use sentry_attacks::coldboot::{dump_dram, dump_iram, search};
use sentry_bench::json::{rounded, write_bench, Json};
use sentry_bench::print_table;
use sentry_core::config::{PageCipherMode, PipelineConfig};
use sentry_crypto::pipeline::ctr_keystream;
use sentry_crypto::BitslicedAes;
use sentry_kernel::block::{RamDisk, SECTOR_SIZE};
use sentry_kernel::crypto_api::{CryptoApi, GenericAesEngine};
use sentry_kernel::dmcrypt::DmCrypt;
use sentry_soc::accel::AccelPowerState;
use sentry_soc::addr::IRAM_BASE;
use sentry_soc::{FaultAction, FaultPlan, Soc};
use sentry_workloads::filebench::{run_read_overlap, FilebenchSpec, ReadOverlapResult, Workload};

/// Enforced floor on the inline/overlapped mean-latency ratio.
const MIN_SPEEDUP: f64 = 1.5;

/// Volume key for the cold-boot cell (the scan derives the expected
/// keystream from it).
const KEY: [u8; 16] = [0xD3; 16];

/// One latency comparison: a workload run inline and overlapped.
struct LatencyCell {
    name: &'static str,
    inline: ReadOverlapResult,
    overlapped: ReadOverlapResult,
}

impl LatencyCell {
    fn speedup(&self) -> f64 {
        self.inline.mean_read_ns / self.overlapped.mean_read_ns
    }

    fn identical(&self) -> bool {
        self.inline.digest == self.overlapped.digest
    }
}

fn latency_cell(name: &'static str, workload: Workload) -> LatencyCell {
    let spec = FilebenchSpec::new(workload, true);
    let inline = run_read_overlap(&spec, None).expect("inline run");
    let overlapped =
        run_read_overlap(&spec, Some(PipelineConfig::enabled())).expect("overlapped run");
    LatencyCell {
        name,
        inline,
        overlapped,
    }
}

/// What the cold-boot cell found in the frozen image.
struct ColdBootCell {
    /// The power cut actually fired mid-DMA (the cell is vacuous
    /// otherwise).
    killed: bool,
    /// 32-byte keystream windows found anywhere in DRAM or iRAM.
    keystream_hits: usize,
    /// Plaintext sentinel windows found anywhere in DRAM or iRAM.
    plaintext_hits: usize,
}

/// Kill the power at the `accel.dma` failpoint mid read and scan the
/// frozen image the way a cold-boot attacker would.
fn cold_boot_cell() -> ColdBootCell {
    let mut api = CryptoApi::new();
    api.register(Box::new(GenericAesEngine::new(0)));
    api.preferred_mut()
        .expect("engine")
        .set_mode(PageCipherMode::Ctr)
        .expect("CTR mode");
    let mut soc = Soc::tegra3_small();
    soc.accel.state = AccelPowerState::Awake;
    let dm = DmCrypt::with_preferred_cipher();
    dm.enable_pipeline(PipelineConfig::enabled());
    dm.set_key(&mut api, &mut soc, &KEY).expect("set key");
    let mut disk = RamDisk::new(2048);

    let sentinel = b"SENTRY-READ-OVERLAP-PLAINTEXT-SENTINEL..";
    let data: Vec<u8> = sentinel
        .iter()
        .copied()
        .cycle()
        .take(32 * SECTOR_SIZE)
        .collect();
    dm.write(&mut api, &mut soc, &mut disk, 0, &data)
        .expect("write");
    dm.write(&mut api, &mut soc, &mut disk, 512, &data)
        .expect("write far range");

    // Prime the pipeline on one range, then kill the power at the DMA
    // staging of a cold range (guaranteed miss run → guaranteed
    // `accel.dma` hit).
    let mut buf = vec![0u8; 16 * SECTOR_SIZE];
    dm.read(&mut api, &mut soc, &mut disk, 0, &mut buf)
        .expect("priming read");
    soc.failpoints.arm(FaultPlan::at_site(
        "accel.dma",
        0,
        FaultAction::PowerCut { decay: None },
    ));
    let killed = dm
        .read(&mut api, &mut soc, &mut disk, 512, &mut buf)
        .is_err();
    soc.failpoints.disarm();

    // Attacker scan of the frozen image: every byte of DRAM plus iRAM.
    let mut dump = dump_dram(&mut soc);
    dump.push((IRAM_BASE, dump_iram(&soc)));
    let bits = BitslicedAes::new(&KEY).expect("key schedule");
    let mut keystream_hits = 0;
    for sector in 0..1024u64 {
        let ks = ctr_keystream(&bits, &DmCrypt::sector_iv(sector), 64);
        keystream_hits += search(&dump, &ks[..32]).len();
    }
    let plaintext_hits = search(&dump, &sentinel[..32]).len();
    ColdBootCell {
        killed,
        keystream_hits,
        plaintext_hits,
    }
}

#[allow(clippy::too_many_lines)]
fn main() {
    let enforce = std::env::args().any(|a| a == "--enforce");

    let cells = [
        latency_cell("seqread/direct", Workload::SeqRead),
        latency_cell("randread/direct", Workload::RandRead),
    ];

    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.name.to_string(),
                format!("{:.1}", c.inline.mean_read_ns / 1000.0),
                format!("{:.1}", c.overlapped.mean_read_ns / 1000.0),
                format!("{:.2}x", c.speedup()),
                if c.identical() { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    print_table(
        "Mean read latency — inline vs overlapped (CTR dm-crypt)",
        &[
            "Workload",
            "Inline (us)",
            "Overlapped (us)",
            "Speedup",
            "Identical",
        ],
        &rows,
    );

    let disc_rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            let (stats, ks) = c.overlapped.pipeline.expect("pipeline stats");
            vec![
                c.name.to_string(),
                ks.precomputed.to_string(),
                ks.hits.to_string(),
                ks.stale_epoch_denied.to_string(),
                stats.routed_extents.to_string(),
                stats.fallbacks().to_string(),
                c.overlapped.keystream_resident_after_lock.to_string(),
            ]
        })
        .collect();
    print_table(
        "Keystream discipline",
        &[
            "Workload",
            "Precomputed",
            "Hits",
            "Stale denied",
            "Routed extents",
            "Fallbacks",
            "Resident after lock",
        ],
        &disc_rows,
    );

    let cold = cold_boot_cell();
    print_table(
        "Cold-boot scan after power cut at accel.dma",
        &["Killed mid-DMA", "Keystream hits", "Plaintext hits"],
        &[vec![
            cold.killed.to_string(),
            cold.keystream_hits.to_string(),
            cold.plaintext_hits.to_string(),
        ]],
    );

    let cell_json: Json = cells
        .iter()
        .map(|c| {
            let (stats, ks) = c.overlapped.pipeline.expect("pipeline stats");
            Json::obj()
                .field("workload", c.name)
                .field("ops", c.overlapped.ops)
                .field("bytes", c.overlapped.bytes)
                .field("inline_mean_ns", rounded(c.inline.mean_read_ns, 1))
                .field("overlapped_mean_ns", rounded(c.overlapped.mean_read_ns, 1))
                .field("speedup", rounded(c.speedup(), 3))
                .field("identical", c.identical())
                .field("keystream_precomputed", ks.precomputed)
                .field("keystream_hits", ks.hits)
                .field("keystream_stale_denied", ks.stale_epoch_denied)
                .field("routed_extents", stats.routed_extents)
                .field("routed_sectors", stats.routed_sectors)
                .field("inline_sectors", stats.inline_sectors)
                .field("fallbacks", stats.fallbacks())
                .field("accel_stall_ns", stats.accel_stall_ns)
                .field(
                    "resident_after_lock",
                    c.overlapped.keystream_resident_after_lock,
                )
        })
        .collect();
    let cold_json = Json::obj()
        .field("killed_mid_dma", cold.killed)
        .field("keystream_hits", cold.keystream_hits)
        .field("plaintext_hits", cold.plaintext_hits);
    write_bench(
        "BENCH_read_overlap.json",
        &Json::obj()
            .field("experiment", "read_overlap")
            .field("min_speedup", MIN_SPEEDUP)
            .field("cells", cell_json)
            .field("cold_boot", cold_json),
    );

    if enforce {
        let mut failed = false;
        for c in &cells {
            if c.speedup() < MIN_SPEEDUP {
                eprintln!(
                    "FAIL [{}]: overlapped speedup {:.2}x below {MIN_SPEEDUP:.1}x",
                    c.name,
                    c.speedup()
                );
                failed = true;
            }
            if !c.identical() {
                eprintln!(
                    "FAIL [{}]: overlapped read returned different bytes \
                     (digest {:#x} vs {:#x})",
                    c.name, c.overlapped.digest, c.inline.digest
                );
                failed = true;
            }
            let (_, ks) = c.overlapped.pipeline.expect("pipeline stats");
            if ks.hits > ks.precomputed {
                eprintln!(
                    "FAIL [{}]: {} keystream hits exceed {} precomputed sectors — \
                     a buffer was served twice",
                    c.name, ks.hits, ks.precomputed
                );
                failed = true;
            }
            if c.overlapped.keystream_resident_after_lock != 0 {
                eprintln!(
                    "FAIL [{}]: {} keystream sectors survived the device lock",
                    c.name, c.overlapped.keystream_resident_after_lock
                );
                failed = true;
            }
        }
        if !cold.killed {
            eprintln!("FAIL: the accel.dma power cut never fired — cold-boot cell is vacuous");
            failed = true;
        }
        if cold.keystream_hits > 0 || cold.plaintext_hits > 0 {
            eprintln!(
                "FAIL: cold-boot scan found {} keystream and {} plaintext windows",
                cold.keystream_hits, cold.plaintext_hits
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        let worst = cells
            .iter()
            .map(LatencyCell::speedup)
            .fold(f64::INFINITY, f64::min);
        println!(
            "enforce: byte-identical overlap, worst speedup {worst:.2}x >= {MIN_SPEEDUP:.1}x, \
             keystream single-use, zeroized on lock, cold-boot scan clean"
        );
    }
}
