//! AES kernel comparison: scalar table-driven vs batched bitsliced.
//!
//! Three views of the two software AES backends:
//!
//! * **Host throughput** — MiB/s over 4 KiB pages (each page its own
//!   CBC/XTS/CTR stream, as in the pager) for {CBC-encrypt,
//!   CBC-decrypt, XTS-encrypt, XTS-decrypt, CTR} × {table, bitsliced}.
//!   CBC decryption, XTS (both directions), and CTR are data-parallel,
//!   so the bitsliced backend runs them 16 blocks per kernel call; CBC
//!   encryption is serially chained and shows the bitsliced backend at
//!   its worst (one block occupying a 16-lane kernel). The XTS-encrypt
//!   over CBC-encrypt ratio is the cliff the per-page XTS mode
//!   removes from the lock path.
//! * **Table 4 accounting** — the on-SoC state arena of the tracked
//!   variant of each backend, by sensitivity class. The table-driven
//!   variant must access-protect its 2.5 KiB of lookup tables; the
//!   bitsliced variant computes SubBytes as a boolean circuit and has
//!   *zero* access-protected bytes.
//! * **Simulated on-SoC engine time** — per-4 KiB-page simulated cost of
//!   the generic (DRAM-state) engine and AES On SoC with each backend,
//!   confirming the backend swap does not perturb the calibrated model.
//! * **CMAC over IV ‖ page** — the scalar chain one page at a time
//!   (`Cmac::mac_parts_trunc8`) against the batch CMAC on the bitsliced
//!   lanes (`Cmac::mac_extents_lanes`) in groups of 16, 8, 4, 3 and 2
//!   pages. A bitsliced call costs the same with 1 or 16 lanes live, so
//!   these rows locate the group size below which the scalar chain wins
//!   — the source of `sentry_crypto::mac::MIN_LANE_MESSAGES`.
//!
//! Results print as tables and land in `BENCH_aes_kernels.json`. With
//! `--enforce`, the process exits non-zero unless (a) bitsliced
//! CBC-decrypt at least matches the scalar baseline — the CI regression
//! gate for the batch kernels (a `target-cpu=native` run shows ~3.0×;
//! the gate only demands parity so feature-poor CI hosts do not flap) —
//! (b) bitsliced XTS page-encrypt runs at least 8× bitsliced
//! CBC-encrypt, the gate proving the lane-filling mode removed the
//! encrypt cliff (a native run shows ~15×), and (c) the batch CMAC over
//! full groups of 16 pages runs at least 2× the scalar chain
//! (`cmac_batch16_over_scalar`, ~4.0× measured).

use std::hint::black_box;
use std::time::Instant;

use sentry_bench::print_table;
use sentry_core::aes_onsoc::{build_engine_with_backend, OnSocCipherBackend};
use sentry_core::config::OnSocBackend;
use sentry_core::onsoc::OnSocStore;
use sentry_crypto::mac::MIN_LANE_MESSAGES;
use sentry_crypto::modes::{cbc_decrypt, cbc_encrypt, ctr_crypt, xts_decrypt, xts_encrypt};
use sentry_crypto::{Aes, AesStateLayout, BitslicedAes, Cmac, Direction, KeySize, Sensitivity};
use sentry_kernel::crypto_api::{CipherEngine, GenericAesEngine};
use sentry_soc::Soc;

const PAGE: usize = 4096;
const PAGES: usize = 64;
const REPS: usize = 11;
const KEY: [u8; 32] = [0x6Bu8; 32];
/// Pages per CMAC pass: divisible by every measured group size, so each
/// group runs full.
const CMAC_PAGES: usize = 48;
/// CMAC group sizes measured on the bitsliced lanes.
const CMAC_GROUPS: [usize; 5] = [16, 8, 4, 3, 2];

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    CbcEnc,
    CbcDec,
    XtsEnc,
    XtsDec,
    Ctr,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::CbcEnc => "cbc_enc",
            Mode::CbcDec => "cbc_dec",
            Mode::XtsEnc => "xts_enc",
            Mode::XtsDec => "xts_dec",
            Mode::Ctr => "ctr",
        }
    }
    fn all() -> [Mode; 5] {
        [
            Mode::CbcEnc,
            Mode::CbcDec,
            Mode::XtsEnc,
            Mode::XtsDec,
            Mode::Ctr,
        ]
    }
}

fn run_pages(aes: &Aes, bits: &BitslicedAes, bitsliced: bool, mode: Mode, buf: &mut [u8]) {
    for (i, page) in buf.chunks_exact_mut(PAGE).enumerate() {
        let iv = [i as u8; 16];
        match (mode, bitsliced) {
            // CBC encryption is serially chained; both backends go
            // through the same serial driver, so this row measures the
            // single-block cost of each backend.
            (Mode::CbcEnc, false) => cbc_encrypt(aes, &iv, page),
            (Mode::CbcEnc, true) => cbc_encrypt(bits, &iv, page),
            (Mode::CbcDec, false) => cbc_decrypt(aes, &iv, page),
            (Mode::CbcDec, true) => cbc_decrypt(bits, &iv, page),
            // XTS fills the lanes in both directions: the tweak chain is
            // computed up front, every block is independent after it.
            (Mode::XtsEnc, false) => xts_encrypt(aes, aes, &iv, page),
            (Mode::XtsEnc, true) => xts_encrypt(bits, bits, &iv, page),
            (Mode::XtsDec, false) => xts_decrypt(aes, aes, &iv, page),
            (Mode::XtsDec, true) => xts_decrypt(bits, bits, &iv, page),
            (Mode::Ctr, false) => ctr_crypt(aes, &iv, page),
            (Mode::Ctr, true) => ctr_crypt(bits, &iv, page),
        }
    }
}

/// MiB/s of `run` over `bytes`, taken from the fastest repetition.
/// Timing noise on a shared builder is one-sided — scheduler steal and
/// frequency dips only ever *slow* a rep, never speed one up — so the
/// minimum elapsed time is the most stable estimate of the kernel's
/// actual cost (a median still flaps when more than half the reps land
/// inside a noisy window, which the enforce ratios cannot tolerate).
fn fastest_mib_s(bytes: usize, mut run: impl FnMut()) -> f64 {
    let mut best = u64::MAX;
    for rep in 0..=REPS {
        let t0 = Instant::now();
        run();
        let elapsed = t0.elapsed().as_nanos() as u64;
        if rep > 0 {
            // First pass is warm-up (page faults, cache fill).
            best = best.min(elapsed);
        }
    }
    bytes as f64 / (1 << 20) as f64 / (best as f64 * 1e-9)
}

/// MiB/s of one backend × mode over the page set.
fn host_mib_s(aes: &Aes, bits: &BitslicedAes, bitsliced: bool, mode: Mode) -> f64 {
    let mut buf: Vec<u8> = (0..PAGES * PAGE).map(|i| (i * 31) as u8).collect();
    fastest_mib_s(PAGES * PAGE, || {
        run_pages(aes, bits, bitsliced, mode, &mut buf);
    })
}

/// MiB/s of CMAC-trunc8 over IV ‖ page across `CMAC_PAGES` pages: the
/// scalar chain one page at a time (`group == None`), or the bitsliced
/// lanes `group` pages per batch call.
fn cmac_mib_s(cmac: &Cmac, group: Option<usize>) -> f64 {
    let buf: Vec<u8> = (0..CMAC_PAGES * PAGE).map(|i| (i * 29) as u8).collect();
    let ivs: Vec<[u8; 16]> = (0..CMAC_PAGES).map(|i| [i as u8; 16]).collect();
    fastest_mib_s(CMAC_PAGES * PAGE, || match group {
        None => {
            for (iv, page) in ivs.iter().zip(buf.chunks_exact(PAGE)) {
                black_box(cmac.mac_parts_trunc8(&[iv, page]));
            }
        }
        Some(g) => {
            for (iv, pages) in ivs.chunks(g).zip(buf.chunks(g * PAGE)) {
                black_box(cmac.mac_extents_lanes(iv, pages, PAGE));
            }
        }
    })
}

struct Accounting {
    variant: &'static str,
    secret: usize,
    access_protected: usize,
    public: usize,
    arena: usize,
}

fn accounting(key_size: KeySize) -> [Accounting; 2] {
    let mk = |variant, layout: &AesStateLayout| Accounting {
        variant,
        secret: layout.total_for(Sensitivity::Secret),
        access_protected: layout.total_for(Sensitivity::AccessProtected),
        public: layout.total_for(Sensitivity::Public),
        arena: layout.total_bytes(),
    };
    [
        mk("table_driven", &AesStateLayout::for_key_size(key_size)),
        mk("bitsliced_table_free", &AesStateLayout::bitsliced(key_size)),
    ]
}

/// Simulated ns to CBC-encrypt one 4 KiB page through a kernel engine.
fn sim_page_ns(engine: &mut dyn CipherEngine, soc: &mut Soc) -> u64 {
    let mut page = vec![0u8; PAGE];
    let t0 = soc.clock.now_ns();
    engine
        .crypt(soc, Direction::Encrypt, &[[0u8; 16]], &mut page)
        .expect("keyed engine encrypts");
    soc.clock.now_ns() - t0
}

fn main() {
    let enforce = std::env::args().any(|a| a == "--enforce");

    let aes = Aes::new(&KEY).expect("valid key length");
    let bits = BitslicedAes::from_schedule(aes.schedule());

    // Host throughput sweep.
    let mut host: Vec<(&'static str, &'static str, f64)> = Vec::new();
    for mode in Mode::all() {
        for bitsliced in [false, true] {
            let backend = if bitsliced { "bitsliced" } else { "table" };
            host.push((
                backend,
                mode.name(),
                host_mib_s(&aes, &bits, bitsliced, mode),
            ));
        }
    }
    let thr = |backend: &str, mode: Mode| {
        host.iter()
            .find(|(b, m, _)| *b == backend && *m == mode.name())
            .map(|&(_, _, v)| v)
            .expect("swept")
    };
    let rows: Vec<Vec<String>> = Mode::all()
        .iter()
        .map(|&mode| {
            let t = thr("table", mode);
            let b = thr("bitsliced", mode);
            vec![
                mode.name().to_string(),
                format!("{t:.1}"),
                format!("{b:.1}"),
                format!("{:.2}x", b / t),
            ]
        })
        .collect();
    print_table(
        "Host AES kernels over 4 KiB pages (MiB/s, fastest rep)",
        &["Mode", "Table", "Bitsliced", "Bitsliced/Table"],
        &rows,
    );

    // CMAC: the scalar chain against the lanes at each group size.
    let cmac = Cmac::new(aes.clone());
    let cmac_scalar = cmac_mib_s(&cmac, None);
    let cmac_lanes: Vec<(usize, f64)> = CMAC_GROUPS
        .iter()
        .map(|&g| (g, cmac_mib_s(&cmac, Some(g))))
        .collect();
    let mut cmac_rows = vec![vec![
        "scalar, 1 page per call".to_string(),
        format!("{cmac_scalar:.1}"),
        "1.00x".to_string(),
    ]];
    cmac_rows.extend(cmac_lanes.iter().map(|&(g, v)| {
        let path = if g >= MIN_LANE_MESSAGES {
            "lanes"
        } else {
            "lanes (scalar in use)"
        };
        vec![
            format!("{path}, {g} pages per call"),
            format!("{v:.1}"),
            format!("{:.2}x", v / cmac_scalar),
        ]
    }));
    print_table(
        "Host CMAC over IV ‖ 4 KiB page (MiB/s, fastest rep)",
        &["Path", "MiB/s", "Over scalar"],
        &cmac_rows,
    );

    // Table 4 accounting for the tracked variants.
    let key_size = KeySize::Aes256;
    let acct = accounting(key_size);
    let acct_rows: Vec<Vec<String>> = acct
        .iter()
        .map(|a| {
            vec![
                a.variant.to_string(),
                a.secret.to_string(),
                a.access_protected.to_string(),
                a.public.to_string(),
                a.arena.to_string(),
            ]
        })
        .collect();
    print_table(
        "On-SoC state arena by sensitivity (AES-256, bytes)",
        &["Variant", "Secret", "Access-protected", "Public", "Arena"],
        &acct_rows,
    );

    // Simulated engine cost per page, DRAM-state vs on-SoC per backend.
    let mut soc = Soc::tegra3_small();
    let mut generic = GenericAesEngine::new(0);
    generic.set_key(&mut soc, &KEY).expect("generic keys");
    let mut store = OnSocStore::new(OnSocBackend::Iram, &mut soc).expect("iram store");
    let mut onsoc_table =
        build_engine_with_backend(&mut store, &mut soc, &KEY, OnSocCipherBackend::TableDriven)
            .expect("onsoc table engine");
    let mut onsoc_bits = build_engine_with_backend(
        &mut store,
        &mut soc,
        &KEY,
        OnSocCipherBackend::BitslicedTableFree,
    )
    .expect("onsoc bitsliced engine");
    let sim = [
        ("generic_dram", sim_page_ns(&mut generic, &mut soc)),
        ("onsoc_table", sim_page_ns(&mut onsoc_table, &mut soc)),
        ("onsoc_bitsliced", sim_page_ns(&mut onsoc_bits, &mut soc)),
    ];
    let sim_rows: Vec<Vec<String>> = sim
        .iter()
        .map(|&(name, ns)| vec![name.to_string(), format!("{:.3}", ns as f64 * 1e-3)])
        .collect();
    print_table(
        "Simulated engine cost per 4 KiB page (µs)",
        &["Engine", "Page µs"],
        &sim_rows,
    );

    // JSON.
    let host_json: Vec<String> = host
        .iter()
        .map(|(b, m, v)| {
            format!("    {{\"backend\": \"{b}\", \"mode\": \"{m}\", \"mib_s\": {v:.1}}}")
        })
        .collect();
    let acct_json: Vec<String> = acct
        .iter()
        .map(|a| {
            format!(
                "    {{\"variant\": \"{}\", \"secret\": {}, \"access_protected\": {}, \
                 \"public\": {}, \"arena\": {}}}",
                a.variant, a.secret, a.access_protected, a.public, a.arena
            )
        })
        .collect();
    let sim_json: Vec<String> = sim
        .iter()
        .map(|&(name, ns)| format!("    {{\"engine\": \"{name}\", \"page_ns\": {ns}}}"))
        .collect();
    let cmac_json: Vec<String> = std::iter::once(format!(
        "    {{\"path\": \"scalar\", \"group\": 1, \"mib_s\": {cmac_scalar:.1}}}"
    ))
    .chain(cmac_lanes.iter().map(|&(g, v)| {
        format!(
            "    {{\"path\": \"lanes\", \"group\": {g}, \"mib_s\": {v:.1}, \
             \"over_scalar\": {:.2}}}",
            v / cmac_scalar
        )
    }))
    .collect();
    let cmac16_ratio = cmac_lanes[0].1 / cmac_scalar;
    let dec_ratio = thr("bitsliced", Mode::CbcDec) / thr("table", Mode::CbcDec);
    let xts_enc_ratio = thr("bitsliced", Mode::XtsEnc) / thr("bitsliced", Mode::CbcEnc);
    let json = format!(
        "{{\n  \"experiment\": \"aes_kernels\",\n  \"page_bytes\": {PAGE},\n  \
         \"pages\": {PAGES},\n  \"reps\": {REPS},\n  \
         \"cbc_dec_bitsliced_over_table\": {dec_ratio:.2},\n  \
         \"xts_enc_over_cbc_enc\": {xts_enc_ratio:.2},\n  \
         \"cmac_batch16_over_scalar\": {cmac16_ratio:.2},\n  \
         \"cmac_min_lane_messages\": {MIN_LANE_MESSAGES},\n  \
         \"host\": [\n{}\n  ],\n  \"cmac\": [\n{}\n  ],\n  \"table4\": [\n{}\n  ],\n  \
         \"sim\": [\n{}\n  ]\n}}\n",
        host_json.join(",\n"),
        cmac_json.join(",\n"),
        acct_json.join(",\n"),
        sim_json.join(",\n"),
    );
    std::fs::write("BENCH_aes_kernels.json", &json).expect("write BENCH_aes_kernels.json");
    println!("\nwrote BENCH_aes_kernels.json");

    if enforce {
        assert!(
            acct[1].access_protected == 0,
            "bitsliced variant must have zero access-protected state"
        );
        if dec_ratio < 1.0 {
            eprintln!(
                "FAIL: bitsliced CBC-decrypt regressed below the scalar-table \
                 baseline ({dec_ratio:.2}x)"
            );
            std::process::exit(1);
        }
        println!("enforce: bitsliced CBC-decrypt at {dec_ratio:.2}x of scalar — ok");
        // The tentpole gate: page encryption through the lane-filling
        // XTS mode must run at least 8x the serially chained CBC
        // encryption on the same bitsliced backend (a native run shows
        // ~15x; 8x leaves headroom for noisy CI hosts).
        if xts_enc_ratio < 8.0 {
            eprintln!(
                "FAIL: bitsliced XTS page-encrypt at only {xts_enc_ratio:.2}x of \
                 bitsliced CBC-encrypt (gate: >= 8x)"
            );
            std::process::exit(1);
        }
        println!("enforce: bitsliced XTS-encrypt at {xts_enc_ratio:.2}x of CBC-encrypt — ok");
        // The batch CMAC gate: 16 pages per call on the bitsliced lanes
        // must run at least 2x the scalar chain (~4.0x measured).
        if cmac16_ratio < 2.0 {
            eprintln!(
                "FAIL: batch CMAC over 16 pages at only {cmac16_ratio:.2}x of the \
                 scalar chain (gate: >= 2x)"
            );
            std::process::exit(1);
        }
        println!("enforce: batch CMAC (16 pages) at {cmac16_ratio:.2}x of scalar — ok");
    }
}
