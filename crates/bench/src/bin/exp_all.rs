//! Regenerate the paper's evaluation in one process: Tables 1–4,
//! Figures 2–12 and the §4–§9 side studies, one function per section,
//! run in [`SECTIONS`] order. A failing section panics the process.
//!
//! DESIGN.md's experiment index and EXPERIMENTS.md name the section
//! behind each table or figure. The experiments CI runs by name
//! (`exp_fleet`, `exp_degraded`, `exp_pressure` and seven more) keep
//! their own binaries, `--enforce` gates and `BENCH_*.json` files.

use std::time::Instant;

use sentry_attacks::busmon::BusMonitor;
use sentry_attacks::coldboot::{self, remanence_trial};
use sentry_attacks::matrix;
use sentry_attacks::related::RegisterOnlyAes;
use sentry_attacks::threat_model::{AttackClass, Scope};
use sentry_bench::{mb, pct, print_table, secs};
use sentry_core::aes_onsoc::build_engine;
use sentry_core::config::OnSocBackend;
use sentry_core::onsoc::OnSocStore;
use sentry_core::store::{CachedSocStore, UncachedSocStore};
use sentry_core::{DeviceAgent, Sentry, SentryConfig};
use sentry_crypto::{Aes, AesRef, AesStateLayout, Direction, KeySize, Sensitivity, TrackedAes};
use sentry_energy::{AesVariant, EnergyModel, CYCLES_PER_DAY};
use sentry_kernel::crypto_api::{CipherEngine, GenericAesEngine};
use sentry_kernel::Kernel;
use sentry_soc::accel::AccelPowerState;
use sentry_soc::addr::{DRAM_BASE, IRAM_BASE, IRAM_FIRMWARE_RESERVED, PAGE_SIZE};
use sentry_soc::dram::{PowerEvent, RemanenceModel};
use sentry_soc::{Platform, Soc, SocConfig};
use sentry_workloads::kernelbuild::figure10_series;
use sentry_workloads::{
    app_catalog, background_catalog, lazy_vs_eager, run_app_cycle, run_background, run_filebench,
    sweep_locked_ways, CryptoSetup, FilebenchSpec, Workload,
};

/// Every section, in the order the evaluation prints them.
const SECTIONS: &[(&str, fn())] = &[
    ("table1", table1),
    ("table2", table2),
    ("table3", table3),
    ("table4", table4),
    ("fig2to5", fig2to5),
    ("fig6to8", fig6to8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("pl310_validate", pl310_validate),
    ("strawman", strawman),
    ("zeroing", zeroing),
    ("ablation_ways", ablation_ways),
    ("ablation_lazy", ablation_lazy),
    ("ablation_tables", ablation_tables),
    ("freezer", freezer),
    ("sidechannel", sidechannel),
    ("related_work", related_work),
    ("daily_battery", daily_battery),
];

fn main() {
    for (name, section) in SECTIONS {
        println!("\n────────────────────────────── {name} ──────────────────────────────");
        section();
    }
}

/// Table 1: summary of the threat model.
fn table1() {
    let rows: Vec<Vec<String>> = AttackClass::all()
        .into_iter()
        .map(|class| match class.scope() {
            Scope::InScope => vec![
                class.name().to_string(),
                "IN SCOPE".into(),
                "implemented: see crates/attacks".into(),
            ],
            Scope::OutOfScope(why) => {
                vec![class.name().to_string(), "out of scope".into(), why.into()]
            }
        })
        .collect();
    print_table(
        "Table 1: summary of the threat model",
        &["Attack class", "Scope", "Rationale / status"],
        &rows,
    );
}

/// Table 2: iRAM (SRAM) and DRAM data remanence on a commodity tablet.
/// Methodology (§4.1): fill memory with an 8-byte pattern, apply each of
/// the three reset types five times, and report the average fraction of
/// pattern cells preserved.
fn table2() {
    let rows = coldboot::table2(5, 0xC01D).expect("remanence trials run");
    let paper = [("100%", "96.4%"), ("0%", "97.5%"), ("0%", "0.1%")];
    let table: Vec<Vec<String>> = rows
        .iter()
        .zip(paper.iter())
        .map(|((label, iram, dram), (p_iram, p_dram))| {
            vec![
                label.clone(),
                pct(*iram),
                (*p_iram).to_string(),
                pct(*dram),
                (*p_dram).to_string(),
            ]
        })
        .collect();
    print_table(
        "Table 2: data remanence after power events (5-trial average)",
        &[
            "Memory Preserved",
            "iRAM",
            "iRAM(paper)",
            "DRAM",
            "DRAM(paper)",
        ],
        &table,
    );
}

/// Table 3: security analysis of the storage alternatives. Mounts each
/// in-scope attack (cold boot, bus monitoring, DMA) against a secret in
/// iRAM and in locked L2 as in the paper's table, plus undefended DRAM
/// as the baseline every cell is implicitly compared against.
fn table3() {
    let reports = matrix::table3().expect("attack matrix runs");
    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            vec![
                r.attack.clone(),
                r.target.clone(),
                if r.recovered { "RECOVERED" } else { "Safe" }.to_string(),
                r.evidence.clone(),
            ]
        })
        .collect();
    print_table(
        "Table 3: attacks vs storage alternatives (paper: iRAM and locked L2 are Safe against all three)",
        &["Attack", "Storage", "Outcome", "Evidence"],
        &rows,
    );
}

/// Table 4: the AES state in bytes by sensitivity class, from the
/// memory layout AES On SoC actually uses, beside the paper's counts.
/// The round-key cache stores both the encryption and the decryption
/// schedule (the equivalent inverse cipher), so "Round Keys" is larger
/// than the paper's OpenSSL-style accounting.
fn table4() {
    let layouts: Vec<AesStateLayout> = KeySize::all()
        .iter()
        .map(|ks| AesStateLayout::for_key_size(*ks))
        .collect();

    let mut rows = Vec::new();
    for component in layouts[0].components() {
        let mut row = vec![component.name.to_string()];
        for layout in &layouts {
            let c = layout.component(component.name);
            row.push(format!(
                "{}{}",
                c.bytes,
                c.paper_bytes
                    .filter(|&p| p != c.bytes)
                    .map(|p| format!(" (paper {p})"))
                    .unwrap_or_default()
            ));
        }
        row.push(component.sensitivity.to_string());
        rows.push(row);
    }
    print_table(
        "Table 4: AES state in bytes",
        &["Component", "AES-128", "AES-192", "AES-256", "Sensitivity"],
        &rows,
    );

    println!("\nTotals (AES-128):");
    let l128 = &layouts[0];
    for s in [
        Sensitivity::Secret,
        Sensitivity::AccessProtected,
        Sensitivity::Public,
    ] {
        println!(
            "  {s:<17} ours {:>5} B   paper {:>5} B",
            l128.total_for(s),
            l128.paper_total_for(s)
        );
    }
    println!(
        "  On-SoC footprint: {} B (fits one 4 KiB page: {})",
        l128.on_soc_bytes(),
        l128.total_bytes() <= 4096
    );
}

/// Figures 2–5 from one lock/unlock cycle per app.
///
/// - Figure 2, unlock (resume): the time to resume and the MB decrypted
///   (eager DMA regions + on-demand resume set). Paper: ~0.2 s for
///   Contacts up to ~1.5 s/38 MB for Maps, "roughly proportional to the
///   amount of data to be decrypted".
/// - Figure 3, runtime: the scripted tasks right after unlock, decrypting
///   the remaining pages on demand. Paper: Contacts 4.3%, Maps 1.2%,
///   Twitter 1.3%, MP3 0.2%.
/// - Figure 4, lock: encrypt-on-lock, 0.7–2 s per app, proportional to
///   the MB encrypted (up to 48 MB for Maps).
/// - Figure 5, energy: joules per side of the cycle; at 150 cycles a day
///   protecting an app costs about 2% of the battery.
fn fig2to5() {
    let cycles: Vec<_> = app_catalog()
        .into_iter()
        .map(|app| {
            let r = run_app_cycle(&app).expect("cycle runs");
            (app, r)
        })
        .collect();

    let rows: Vec<Vec<String>> = cycles
        .iter()
        .map(|(_, r)| vec![r.name.to_string(), secs(r.resume_secs), mb(r.resume_mb)])
        .collect();
    print_table(
        "Figure 2: device-unlock (resume) overhead",
        &["App", "Time (s)", "MB decrypted"],
        &rows,
    );

    let paper = [4.3, 1.2, 1.3, 0.2];
    let rows: Vec<Vec<String>> = cycles
        .iter()
        .zip(paper.iter())
        .map(|((app, r), paper_pct)| {
            vec![
                r.name.to_string(),
                secs(r.runtime_overhead * app.script_secs),
                mb(r.runtime_mb),
                pct(r.runtime_overhead),
                format!("{paper_pct}%"),
            ]
        })
        .collect();
    print_table(
        "Figure 3: runtime overhead during scripted tasks",
        &["App", "Added time (s)", "MB decrypted", "Overhead", "Paper"],
        &rows,
    );

    let rows: Vec<Vec<String>> = cycles
        .iter()
        .map(|(_, r)| vec![r.name.to_string(), secs(r.lock_secs), mb(r.lock_mb)])
        .collect();
    print_table(
        "Figure 4: device-lock (encrypt) overhead",
        &["App", "Time (s)", "MB encrypted"],
        &rows,
    );

    let energy = EnergyModel::nexus4();
    let mut rows = Vec::new();
    let mut worst_daily = 0.0f64;
    for (app, r) in &cycles {
        let daily = energy.daily_battery_fraction(
            AesVariant::CryptoApi,
            (r.lock_mb * 1048576.0) as u64,
            app.resume_bytes,
            CYCLES_PER_DAY,
        );
        worst_daily = worst_daily.max(daily);
        rows.push(vec![
            r.name.to_string(),
            format!("{:.2}", r.lock_joules),
            format!("{:.2}", r.unlock_joules),
            format!("{:.2}%", daily * 100.0),
        ]);
    }
    print_table(
        "Figure 5: lock/unlock energy (paper: up to 2.3 J; ~2%/day at 150 cycles)",
        &[
            "App",
            "Encrypt-on-Lock (J)",
            "Decrypt-on-Unlock (J)",
            "Daily battery",
        ],
        &rows,
    );
    println!(
        "\nWorst-case daily battery to protect one app: {:.2}%",
        worst_daily * 100.0
    );
}

/// Figures 6–8: alpine, vlock and xmms2 in the background of the locked
/// Tegra prototype with 256 KB and 512 KB of locked L2, against the
/// no-Sentry baseline. Paper: alpine is 2.74x slower with 256 KB; xmms2
/// keeps a 48% overhead even with 512 KB.
fn fig6to8() {
    for spec in background_catalog() {
        let base = run_background(&spec, 0).expect("baseline runs");
        let small = run_background(&spec, 256).expect("256 KB runs");
        let large = run_background(&spec, 512).expect("512 KB runs");
        let rows = vec![
            vec![
                "Without Sentry".to_string(),
                secs(base.kernel_secs),
                "1.00x".to_string(),
                base.faults.to_string(),
            ],
            vec![
                "With Sentry (256KB)".to_string(),
                secs(small.kernel_secs),
                format!("{:.2}x", small.kernel_secs / base.kernel_secs),
                small.faults.to_string(),
            ],
            vec![
                "With Sentry (512KB)".to_string(),
                secs(large.kernel_secs),
                format!("{:.2}x", large.kernel_secs / base.kernel_secs),
                large.faults.to_string(),
            ],
        ];
        print_table(
            &format!("Figures 6-8: background computation, {}", spec.name),
            &[
                "Configuration",
                "Time in kernel (s)",
                "Factor",
                "Pager faults",
            ],
            &rows,
        );
    }
}

/// Figure 9: dm-crypt throughput under filebench randread and randrw,
/// cached and with direct I/O, for {No Crypto, Generic AES, Sentry}.
/// Paper: the buffer cache masks encryption for randread, direct I/O
/// exposes it, randrw loses about half its throughput to encryption
/// even cached, and Sentry tracks generic AES closely.
fn fig9() {
    for workload in [Workload::RandRead, Workload::RandRw] {
        for direct in [false, true] {
            let spec = FilebenchSpec::new(workload, direct);
            let rows: Vec<Vec<String>> = [
                CryptoSetup::NoCrypto,
                CryptoSetup::GenericAes,
                CryptoSetup::Sentry,
            ]
            .iter()
            .map(|&crypto| {
                let r = run_filebench(&spec, crypto).expect("filebench runs");
                vec![
                    crypto.to_string(),
                    format!("{:.1}", r.mb_per_sec),
                    r.cache_hits.to_string(),
                ]
            })
            .collect();
            print_table(
                &format!(
                    "Figure 9: {workload}{}",
                    if direct { " (direct I/O)" } else { "" }
                ),
                &["Setup", "MB/s", "Cache hits"],
                &rows,
            );
        }
    }
}

/// Figure 10: Linux kernel compile time vs locked cache ways. Paper:
/// 14.41 minutes with no way locked, 14.53 with one (<1%).
fn fig10() {
    let rows: Vec<Vec<String>> = figure10_series()
        .iter()
        .map(|(ways, minutes)| {
            let locked_kb = ways * 128;
            vec![
                ways.to_string(),
                format!("{locked_kb} KB"),
                format!("{minutes:.2}"),
            ]
        })
        .collect();
    print_table(
        "Figure 10: `make -j 5` Linux kernel compile vs locked ways (paper: 14.41 min at 0, 14.53 at 1)",
        &["Locked ways", "Locked cache", "Minutes"],
        &rows,
    );
}

/// Pages per Figure 11 measurement (1 MB of 4 KiB pages).
const FIG11_PAGES: usize = 256;
/// Syscall plus CryptoAPI dispatch per page.
const KERNEL_CROSSING_NS: u64 = 12_000;

/// Sim-clock MB/s of `engine` encrypting [`FIG11_PAGES`] pages, with
/// `extra_per_page_ns` charged before each.
fn fig11_measure(soc: &mut Soc, engine: &mut dyn CipherEngine, extra_per_page_ns: u64) -> f64 {
    let mut page = vec![0xA5u8; 4096];
    let iv = [0u8; 16];
    let t0 = soc.clock.now_ns();
    for _ in 0..FIG11_PAGES {
        soc.clock.advance(extra_per_page_ns);
        engine
            .crypt(soc, Direction::Encrypt, &[iv], &mut page)
            .expect("keyed engine");
    }
    let secs = (soc.clock.now_ns() - t0) as f64 / 1e9;
    (FIG11_PAGES * 4096) as f64 / secs / 1e6
}

/// Figure 11: AES throughput on 4 KiB pages. Left (Nexus 4): user-space
/// OpenSSL, the kernel Crypto API and the accelerator, which is slower
/// on 4 KiB pages (per-operation setup, down-scaled clock while locked;
/// 4x faster awake). Right (Tegra 3): generic AES vs AES On SoC in a
/// locked L2 way and in iRAM, both within 1% of generic.
fn fig11() {
    let mut soc = Soc::nexus4_small();
    let mut user = GenericAesEngine::new(0);
    user.set_key(&mut soc, &[1u8; 16]).expect("16-byte key");
    let user_mb = fig11_measure(&mut soc, &mut user, 0);
    let kernel_mb = fig11_measure(&mut soc, &mut user, KERNEL_CROSSING_NS);
    let hw_locked = soc.accel.throughput_mb_s(4096);
    soc.accel.state = AccelPowerState::Awake;
    let hw_awake = soc.accel.throughput_mb_s(4096);

    print_table(
        "Figure 11 (left): Nexus 4 AES throughput, 4 KiB pages",
        &["Implementation", "MB/s", "Paper ballpark"],
        &[
            vec![
                "Generic AES (user)".into(),
                format!("{user_mb:.1}"),
                "~45".into(),
            ],
            vec![
                "Generic AES (in kernel)".into(),
                format!("{kernel_mb:.1}"),
                "~40".into(),
            ],
            vec![
                "Crypto Hardware (locked)".into(),
                format!("{hw_locked:.1}"),
                "~10".into(),
            ],
            vec![
                "Crypto Hardware (awake)".into(),
                format!("{hw_awake:.1}"),
                "4x locked".into(),
            ],
        ],
    );

    let mut soc = Soc::tegra3_small();
    let mut generic = GenericAesEngine::new(0);
    generic.set_key(&mut soc, &[1u8; 16]).expect("16-byte key");
    let generic_mb = fig11_measure(&mut soc, &mut generic, 0);

    let mut store = OnSocStore::new(OnSocBackend::LockedL2 { max_ways: 1 }, &mut soc);
    let mut locked = build_engine(&mut store, &mut soc, &[1u8; 16]).expect("way locks");
    let locked_mb = fig11_measure(&mut soc, &mut locked, 0);

    let mut soc = Soc::tegra3_small();
    let mut store = OnSocStore::new(OnSocBackend::Iram, &mut soc);
    let mut iram = build_engine(&mut store, &mut soc, &[1u8; 16]).expect("iRAM page");
    let iram_mb = fig11_measure(&mut soc, &mut iram, 0);

    print_table(
        "Figure 11 (right): Tegra 3 AES throughput, 4 KiB pages (paper: AES On SoC within 1% of generic)",
        &["Implementation", "MB/s", "vs generic"],
        &[
            vec!["Generic AES".into(), format!("{generic_mb:.1}"), "1.000".into()],
            vec![
                "AES_On_SoC (Locked L2)".into(),
                format!("{locked_mb:.1}"),
                format!("{:.3}", locked_mb / generic_mb),
            ],
            vec![
                "AES_On_SoC (iRAM)".into(),
                format!("{iram_mb:.1}"),
                format!("{:.3}", iram_mb / generic_mb),
            ],
        ],
    );
}

/// Figure 12: energy per byte of the AES variants on the Nexus 4. The
/// accelerator is the least efficient at 4 KiB pages: the down-scaled
/// engine is slow, so the system stays awake longer per byte.
fn fig12() {
    let m = EnergyModel::nexus4();
    let rows: Vec<Vec<String>> = [
        ("OpenSSL", AesVariant::OpenSslUser, "~0.03"),
        ("CryptoAPI", AesVariant::CryptoApi, "~0.04"),
        ("HW Accelerated", AesVariant::HwAccel, "~0.11"),
    ]
    .iter()
    .map(|(name, v, paper)| {
        vec![
            (*name).to_string(),
            format!("{:.3}", m.uj_per_byte(*v)),
            (*paper).to_string(),
        ]
    })
    .collect();
    print_table(
        "Figure 12: energy per byte (µJ/B), 4 KiB pages",
        &["Implementation", "µJ/byte", "Paper"],
        &rows,
    );
}

/// The §4.2 PL310 validation. (1) An 8-byte pattern written to a locked
/// way never reaches DRAM: DMA through the UART loopback debug port does
/// not find it. (2) An unpatched full flush unlocks the ways and writes
/// the pattern back, the hazard behind the masked-flush OS change (428 →
/// 676 lines in Linux).
fn pl310_validate() {
    let mut soc = Soc::tegra3_small();
    let mut store = OnSocStore::new(OnSocBackend::LockedL2 { max_ways: 1 }, &mut soc);
    let page = store.alloc_page(&mut soc).expect("way locks");

    let pattern = *b"\x7E\x57\xC0\xDE\xBA\x5E\xBA\x11";
    soc.mem_write(page, &pattern).expect("write to locked way");

    // Experiment 1: DMA the backing DRAM out through the UART loopback.
    soc.dma_to_uart(page, 64).expect("uart dma");
    let observed = soc.uart.read_serial();
    let leaked = observed.windows(8).any(|w| w == pattern);
    println!("[1] locked-way write-back check:");
    println!("    pattern in DRAM via DMA/UART: {leaked} (expected: false)");
    assert!(!leaked, "PL310 model must not write back locked lines");

    // Masked maintenance flush (the patched OS): still safe.
    soc.cache_maintenance_flush();
    soc.dma_to_uart(page, 64).expect("uart dma");
    let leaked = soc.uart.read_serial().windows(8).any(|w| w == pattern);
    println!("[2] after masked maintenance flush: leaked = {leaked} (expected: false)");
    assert!(!leaked);

    // Experiment 2: the raw full flush unlocks and spills.
    soc.cache_flush_all_raw();
    soc.dma_to_uart(page, 64).expect("uart dma");
    let leaked = soc.uart.read_serial().windows(8).any(|w| w == pattern);
    println!("[3] after RAW full flush (unpatched OS): leaked = {leaked} (expected: true)");
    println!(
        "    alloc mask after raw flush: {:#010b} (all ways unlocked)",
        soc.cache.alloc_mask()
    );
    assert!(leaked, "raw flush must demonstrate the hazard");

    println!("\nValidation matches §4.2: locked ways never write back; a full\nunmasked flush unlocks them — hence Sentry's masked flush paths.");
}

/// The §7 full-memory-encryption strawman: encrypting all of DRAM at
/// every suspend took the paper over a minute and over 70 J per 2 GB,
/// emptying the battery in ~410 cycles — the case for selective
/// encryption.
fn strawman() {
    let m = EnergyModel::nexus4();
    let rows: Vec<Vec<String>> = [1u64 << 30, 2 << 30, 4 << 30]
        .iter()
        .map(|&bytes| {
            let s = m.strawman(bytes);
            vec![
                format!("{} GB", bytes >> 30),
                format!("{:.1}", s.seconds_per_encrypt),
                format!("{:.1}", s.joules_per_encrypt),
                s.cycles_to_deplete.to_string(),
            ]
        })
        .collect();
    print_table(
        "§7 strawman: full-memory encryption per suspend (paper @2GB: >60 s, >70 J, 410 cycles)",
        &["DRAM", "Seconds", "Joules", "Cycles to empty battery"],
        &rows,
    );
    println!("\nHardware trend: DRAM keeps growing while battery does not —\nselective encryption is the only sustainable design.");
}

/// The §7 freed-page zeroing the lock path waits for. Paper: 4.014 GB/s
/// and 2.8 µJ/MB on the Nexus 4, negligible, which justifies the
/// barrier.
fn zeroing() {
    let mut kernel = Kernel::new(Soc::new(
        SocConfig::new(Platform::Nexus4).with_dram_size(512 << 20),
    ));
    let mut rows = Vec::new();
    for mbytes in [1u64, 16, 64] {
        let frames = mbytes * 256;
        for _ in 0..frames {
            let f = kernel.frames.alloc().expect("pool has room");
            kernel.frames.free(f);
        }
        let ns = kernel.drain_zero_thread().expect("drain runs");
        let gb_s = (frames * 4096) as f64 / (ns as f64 / 1e9) / 1e9;
        rows.push(vec![
            format!("{mbytes} MB"),
            format!("{:.3}", ns as f64 / 1e6),
            format!("{gb_s:.3}"),
            format!("{:.2}", kernel.zero_thread.stats.joules * 1e6),
        ]);
    }
    print_table(
        "§7 freed-page zeroing (paper: 4.014 GB/s, 2.8 µJ/MB)",
        &["Freed", "Drain (ms)", "GB/s", "Total µJ"],
        &rows,
    );
}

/// Ablation of the §4.5 trade-off: more locked ways give the pager more
/// on-SoC slots (fewer faults for the background app) but shrink the
/// cache for everything else (Figure 10's compile cost).
fn ablation_ways() {
    let alpine = background_catalog()
        .into_iter()
        .find(|s| s.name == "alpine")
        .expect("alpine in catalog");
    let sweep = sweep_locked_ways(&alpine).expect("sweep runs");
    let rows: Vec<Vec<String>> = sweep
        .iter()
        .map(|p| {
            vec![
                p.ways.to_string(),
                format!("{} KB", p.ways * 128),
                secs(p.kernel_secs),
                p.faults.to_string(),
                format!("{:.2}", p.compile_minutes),
            ]
        })
        .collect();
    print_table(
        "Ablation: locked ways vs alpine background time vs system compile cost",
        &[
            "Ways",
            "On-SoC budget",
            "alpine kernel (s)",
            "Pager faults",
            "Compile (min)",
        ],
        &rows,
    );
    println!("\nThe knee: alpine stops thrashing once its working set fits\n(~512 KB); further ways only cost the rest of the system.");
}

/// Ablation of §7's lazy (on-demand) unlock decryption against eager,
/// for a 1 MB interaction on apps of several sizes: users "unlock their
/// phones, engage in just a few interactions, and re-lock".
fn ablation_lazy() {
    let mut rows = Vec::new();
    for app_mb in [8u64, 32, 64] {
        let app_pages = app_mb * 256;
        let touched = 256; // the user reads ~1 MB then re-locks
        let (lazy, eager) = lazy_vs_eager(app_pages, touched).expect("runs");
        rows.push(vec![
            format!("{app_mb} MB"),
            secs(lazy.time_to_interactive_secs),
            secs(eager.time_to_interactive_secs),
            format!("{:.1}", lazy.bytes_decrypted as f64 / 1048576.0),
            format!("{:.1}", eager.bytes_decrypted as f64 / 1048576.0),
            format!("{:.2}", lazy.joules),
            format!("{:.2}", eager.joules),
        ]);
    }
    print_table(
        "Ablation: lazy vs eager decrypt-on-unlock (user touches 1 MB then re-locks)",
        &[
            "App size",
            "lazy TTI (s)",
            "eager TTI (s)",
            "lazy MB",
            "eager MB",
            "lazy J",
            "eager J",
        ],
        &rows,
    );
    println!("\nLazy wins by the app-size factor on both latency and energy — the\npaper's on-demand design choice.");
}

/// The table-driven vs tableless AES trade-off: on-SoC state bytes
/// against host-measured relative speed.
struct AesTradeoff {
    /// Access-protected state of the table-driven implementation, bytes.
    table_state_bytes: usize,
    /// Access-protected state of the tableless reference, bytes
    /// (S-boxes only).
    tableless_state_bytes: usize,
    /// Host-measured slowdown of the tableless implementation (>1).
    tableless_slowdown: f64,
}

/// Measure the trade-off on the host clock.
fn aes_table_tradeoff() -> AesTradeoff {
    let key = [7u8; 16];
    let fast = Aes::new(&key).expect("16-byte key");
    let slow = AesRef::new(&key).expect("16-byte key");
    let mut block = [0u8; 16];

    // Best-of-N trials: the minimum is robust against scheduler noise
    // when the suite runs many test threads on few cores.
    let iters = 5_000;
    let trials = 5;
    let mut measure = |encrypt: &mut dyn FnMut(&mut [u8; 16])| -> u128 {
        encrypt(&mut block); // warm-up (page in tables/code)
        (0..trials)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..iters {
                    encrypt(&mut block);
                }
                t.elapsed().as_nanos().max(1)
            })
            .min()
            .expect("at least one trial")
    };
    let fast_ns = measure(&mut |b| fast.encrypt_block(b));
    let slow_ns = measure(&mut |b| slow.encrypt_block(b));

    AesTradeoff {
        // Te + Td + S + IS + Rcon.
        table_state_bytes: 2048 + 512 + 40,
        // S + IS + Rcon only.
        tableless_state_bytes: 512 + 40,
        tableless_slowdown: slow_ns as f64 / fast_ns as f64,
    }
}

/// Ablation of §6.1's "a faster AES implementation requires more secure
/// storage": the table-driven AES keeps 2.6 KB of access-protected
/// lookup state on the SoC; the tableless reference needs only the
/// S-boxes but is much slower (AESSE: ~100x tableless, 6x with tables).
fn ablation_tables() {
    let t = aes_table_tradeoff();
    print_table(
        "Ablation: table-driven vs tableless AES (host-measured)",
        &["Variant", "Access-protected state (B)", "Relative speed"],
        &[
            vec![
                "T-table (ours / OpenSSL-style)".into(),
                t.table_state_bytes.to_string(),
                "1.0x".into(),
            ],
            vec![
                "Tableless reference (spec steps)".into(),
                t.tableless_state_bytes.to_string(),
                format!("{:.1}x slower", t.tableless_slowdown),
            ],
        ],
    );
    println!(
        "\nBuying {:.1}x speed costs {} extra on-SoC bytes — cheap against a\n128 KB way, decisive for register-only schemes like AESSE/TRESOR,\nwhich is why they cannot protect the access-pattern state (§9.1).",
        t.tableless_slowdown,
        t.table_state_bytes - t.tableless_state_bytes
    );
}

/// Extension: FROST's household-freezer cold boot (cited in §1/§3).
/// Cooling slows DRAM decay across a reset, but the signed firmware
/// zeroes iRAM at power-on whatever the temperature.
fn freezer() {
    let mut rows = Vec::new();
    for temp_c in [20.0, 5.0, -15.0] {
        for secs in [0.5, 2.0, 10.0] {
            let cfg = SocConfig::new(Platform::Tegra3).with_dram_size(64 << 20);
            let mut soc = Soc::new(SocConfig {
                remanence: RemanenceModel {
                    temperature_c: temp_c,
                    ..RemanenceModel::default()
                },
                ..cfg
            });
            let out = remanence_trial(&mut soc, PowerEvent::HardReset { seconds: secs }, 50_000)
                .expect("trial runs");
            rows.push(vec![
                format!("{temp_c:.0} °C"),
                format!("{secs:.1} s"),
                pct(out.dram_fraction),
                pct(out.iram_fraction),
            ]);
        }
    }
    print_table(
        "Extension: cooled cold boot (FROST) — DRAM survival vs temperature",
        &[
            "Temperature",
            "Power-off",
            "DRAM preserved",
            "iRAM preserved",
        ],
        &rows,
    );
    println!("\nA freezer rescues DRAM contents across multi-second resets —\nbut iRAM still reads 0%: the signed firmware zeroes it at power-on,\nindependent of physics. On-SoC storage defeats FROST.");
}

/// The Te-table lookup indices a bus monitor sees while tracked AES
/// with its state in DRAM encrypts one block under `key`.
fn dram_lookup_trace(key: [u8; 16]) -> Vec<u8> {
    let mut soc = Soc::tegra3_small();
    let mon = BusMonitor::attach_new(&mut soc.bus);
    let base = DRAM_BASE + (4 << 20);
    let mut store = UncachedSocStore::new(&mut soc, base);
    let aes = TrackedAes::init(&mut store, &key).expect("16-byte key");
    mon.clear();
    let mut block = [0u8; 16];
    aes.encrypt_block(&mut store, &mut block);
    let layout = AesStateLayout::for_key_size(KeySize::Aes128);
    let te_base = base + layout.component("2 Round Tables").offset as u64;
    mon.table_access_indices(te_base, 256, 4)
}

/// Extension: the §3.1 bus-monitoring side channel, "the order in which
/// the table entries are accessed can reveal secret information". With
/// the AES state in DRAM a bus monitor sees key-dependent lookup
/// indices; with AES On SoC it sees nothing.
fn sidechannel() {
    let trace_a = dram_lookup_trace([0u8; 16]);
    let trace_b = dram_lookup_trace([1u8; 16]);
    let differing = trace_a
        .iter()
        .zip(trace_b.iter())
        .filter(|(a, b)| a != b)
        .count();

    let mut soc = Soc::tegra3_small();
    let mon = BusMonitor::attach_new(&mut soc.bus);
    let base = IRAM_BASE + IRAM_FIRMWARE_RESERVED;
    let mut store = CachedSocStore::new(&mut soc, base);
    let aes = TrackedAes::init(&mut store, &[0u8; 16]).expect("16-byte key");
    let mut block = [0u8; 16];
    aes.encrypt_block(&mut store, &mut block);
    let onsoc_observed = mon.len();

    print_table(
        "Side channel: Te-table lookup indices observable by a bus monitor",
        &["AES state placement", "Lookups observed", "Key-dependent?"],
        &[
            vec![
                "DRAM (generic AES)".into(),
                trace_a.len().to_string(),
                format!("{differing}/{} indices differ across keys", trace_a.len()),
            ],
            vec![
                "On-SoC (AES On SoC)".into(),
                onsoc_observed.to_string(),
                "nothing to correlate".into(),
            ],
        ],
    );
    println!(
        "\nFirst 16 observed indices, key A: {:?}",
        &trace_a[..16.min(trace_a.len())]
    );
    println!(
        "First 16 observed indices, key B: {:?}",
        &trace_b[..16.min(trace_b.len())]
    );
    println!("\nTromer-Osvik-Shamir-style key recovery needs exactly these traces;\nprior register-only schemes (AESSE/TRESOR/Simmons) leave the tables\nin DRAM and remain exposed (§9.1). AES On SoC does not.");
}

/// §9.1 head to head: register-only AES (AESSE/TRESOR/Simmons style)
/// defeats cold boot but leaves its lookup tables in DRAM, where a bus
/// monitor reads the per-round indices; AES On SoC protects both.
fn related_work() {
    const TABLE_REGION: u64 = DRAM_BASE + (36 << 20);
    const KEY: [u8; 16] = [0xABu8; 16];

    let mut soc = Soc::tegra3_small();
    let tresor = RegisterOnlyAes::install(&mut soc, TABLE_REGION, &KEY).expect("installs");
    let mon = BusMonitor::attach_new(&mut soc.bus);
    let mut block = [0u8; 16];
    tresor.encrypt_block(&mut soc, &mut block);
    let tresor_lookups = mon.table_access_indices(TABLE_REGION, 256, 4).len();
    soc.power_cycle(PowerEvent::ReflashTap).expect("reboots");
    let tresor_keys = coldboot::find_aes128_key_schedules(&coldboot::dump_dram(&mut soc)).len();

    let mut soc = Soc::tegra3_small();
    let mut store = OnSocStore::new(OnSocBackend::LockedL2 { max_ways: 1 }, &mut soc);
    let mut onsoc = build_engine(&mut store, &mut soc, &KEY).expect("keys");
    onsoc.set_full_simulation(true);
    let mon = BusMonitor::attach_new(&mut soc.bus);
    let mut data = [0u8; 16];
    onsoc
        .crypt(&mut soc, Direction::Encrypt, &[[0u8; 16]], &mut data)
        .expect("encrypts");
    let onsoc_observed = mon.len();
    soc.power_cycle(PowerEvent::ReflashTap).expect("reboots");
    let onsoc_keys = coldboot::find_aes128_key_schedules(&coldboot::dump_dram(&mut soc)).len();

    print_table(
        "§9.1: register-only AES (AESSE/TRESOR) vs AES On SoC",
        &[
            "Scheme",
            "Keys via cold boot",
            "Table lookups on bus / block",
            "Verdict",
        ],
        &[
            vec![
                "register-only (TRESOR-style)".into(),
                tresor_keys.to_string(),
                tresor_lookups.to_string(),
                "cold boot: safe; bus monitor: BROKEN".into(),
            ],
            vec![
                "AES On SoC (Sentry)".into(),
                onsoc_keys.to_string(),
                onsoc_observed.to_string(),
                "safe against both".into(),
            ],
        ],
    );
    println!("\n\"To us, it is unclear how to extend these solutions to safeguard the\nvoluminous access-protected state\" — 2.6 KB of tables do not fit in\ndebug registers; they do fit in a locked cache way.");
}

/// The paper's headline measured end to end: "Sentry consumes about 2%
/// of a device's battery life to protect an application assuming the
/// user unlocks the device 150 times a day". A [`DeviceAgent`] drives
/// 150 lock → PIN-unlock → glance cycles through the full machinery for
/// a Maps-sized app, beside the analytic bound.
fn daily_battery() {
    let kernel = Kernel::new(Soc::new(
        SocConfig::new(Platform::Nexus4).with_dram_size(256 << 20),
    ));
    let mut sentry = Sentry::new(kernel, SentryConfig::nexus4()).expect("sentry installs");
    let pid = sentry.kernel.spawn("maps");
    sentry.mark_sensitive(pid).expect("pid exists");

    // A Maps-sized app: 48 MB resident; each glance touches ~6 MB.
    let pages = 48 * 256u64;
    let fill = vec![0x5Au8; PAGE_SIZE as usize];
    for vpn in 0..pages {
        sentry.write(pid, vpn * PAGE_SIZE, &fill).expect("populate");
    }
    let glance: Vec<u64> = (0..6 * 256u64).collect();

    let mut agent = DeviceAgent::new(sentry, "4521");
    let day = agent
        .simulate_day(pid, &glance, CYCLES_PER_DAY)
        .expect("day simulates");

    let energy = EnergyModel::nexus4();
    let analytic =
        energy.daily_battery_fraction(AesVariant::CryptoApi, 48 << 20, 38 << 20, CYCLES_PER_DAY);

    print_table(
        "Daily battery cost of protecting one app (150 lock/unlock cycles)",
        &["Quantity", "Value"],
        &[
            vec!["cycles".into(), day.cycles.to_string()],
            vec![
                "GB encrypted / day".into(),
                format!("{:.2}", day.bytes_encrypted as f64 / 1e9),
            ],
            vec![
                "GB decrypted / day".into(),
                format!("{:.2}", day.bytes_decrypted as f64 / 1e9),
            ],
            vec!["energy (J)".into(), format!("{:.1}", day.joules)],
            vec![
                "battery / day (measured)".into(),
                format!("{:.2}%", day.battery_fraction * 100.0),
            ],
            vec![
                "battery / day (paper's conservative bound)".into(),
                format!("{:.2}%", analytic * 100.0),
            ],
        ],
    );
    println!("\nMeasured is below the bound because lazy decryption means untouched\npages stay encrypted across cycles — they are never re-encrypted.");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_buy_speed_for_state() {
        let t = aes_table_tradeoff();
        assert!(t.table_state_bytes > 4 * t.tableless_state_bytes);
        assert!(
            t.tableless_slowdown > 2.0,
            "reference must be much slower, got {:.1}x",
            t.tableless_slowdown
        );
    }
}
