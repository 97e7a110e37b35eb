//! AES kernel comparison: scalar table-driven, batched bitsliced, and
//! the host's AES-NI kernel.
//!
//! Four views of the AES backends:
//!
//! * **Host throughput** — MiB/s over 4 KiB pages (each page its own
//!   CBC/XTS/CTR stream, as in the pager) for {CBC-encrypt,
//!   CBC-decrypt, XTS-encrypt, XTS-decrypt, CTR} × {table, bitsliced}.
//!   CBC decryption, XTS (both directions), and CTR are data-parallel,
//!   so the bitsliced backend runs them 16 blocks per kernel call; CBC
//!   encryption is serially chained and shows the bitsliced backend at
//!   its worst (one block occupying a 16-lane kernel). The XTS-encrypt
//!   over CBC-encrypt ratio is the cliff the per-page XTS mode
//!   removes from the lock path. CBC encryption over 16 pages' chains at
//!   once (the lock path's lane-filling form) gets a row per batched
//!   kernel, and where the CPU has AES-NI every mode gets an `aesni` row:
//!   the kernel `PageCipher` and `Cmac` run on such a host. An `aesni`
//!   `blocks` row runs the raw kernel (`encrypt_blocks`, no mode) over
//!   the same pages through the same stream loop, at the same lane width
//!   (256 bits with VAES), and each `aesni` CBC-decrypt, XTS and CTR row
//!   records its throughput over that row (`over_blocks`): the share of
//!   the raw kernel's speed the mode's whitening leaves. The raw kernel
//!   and these four rows take turns, one repetition each, so each ratio
//!   compares repetitions run side by side.
//! * **Table 4 accounting** — the on-SoC state arena of the tracked
//!   variant of each backend, by sensitivity class. The table-driven
//!   variant must access-protect its 2.5 KiB of lookup tables; the
//!   bitsliced variant computes SubBytes as a boolean circuit and has
//!   *zero* access-protected bytes.
//! * **Simulated on-SoC engine time** — per-4 KiB-page simulated cost of
//!   the generic (DRAM-state) engine and AES On SoC with each backend,
//!   confirming the backend swap does not perturb the calibrated model.
//! * **CMAC over IV ‖ page** — the portable scalar chain one page at a
//!   time (`Cmac::mac_parts_trunc8`) against the batch CMAC on the
//!   bitsliced lanes (`Cmac::mac_extents_lanes`) in groups of 16, 8, 4, 3
//!   and 2 pages. A bitsliced call costs the same with 1 or 16 lanes
//!   live, so these rows locate the group size below which the scalar
//!   chain wins — the source of `sentry_crypto::mac::MIN_LANE_MESSAGES`,
//!   which only the portable kernel consults. The AES-NI lanes get rows
//!   at groups of 1, 2, 4, 8, 16 and 32: a group of 16 fills the eight
//!   256-bit registers of a CPU with VAES, and 32 runs two such groups.
//!
//! The table-driven kernel runs at one of two speeds per process on a
//! shared host, so one process's ratios are not stable. The host rows are
//! therefore measured in [`RUNS`] child processes (the binary re-executes
//! itself with the internal `--one-round` flag, one child at a time), and
//! every row and ratio is reported as the median and the min–max over the
//! runs. Results print as tables and land in `BENCH_aes_kernels.json`.
//!
//! With `--enforce`, the process exits non-zero unless, on the medians,
//! (a) bitsliced CBC-decrypt at least matches the scalar baseline — the
//! CI regression gate for the batch kernels (a `target-cpu=native` run
//! shows ~3.0×; the gate only demands parity so feature-poor CI hosts do
//! not flap) — (b) bitsliced XTS page-encrypt runs at least 8× bitsliced
//! CBC-encrypt, the gate proving the lane-filling mode removed the
//! encrypt cliff (a native run shows ~15×), (c) the batch CMAC over full
//! groups of 16 pages runs at least 2× the scalar chain
//! (`cmac_batch16_over_scalar`, ~4.0× measured), (d) where AES-NI is
//! detected, every batched `aesni` row at least matches its bitsliced
//! row and the AES-NI CMAC over two pages per call runs at least 1.5×
//! one page per call (`cmac/aesni/2` over `cmac/aesni/1`, ~2× measured):
//! the premise of a locked fault's one two-page MAC loop, (e) where
//! AES-NI is detected, XTS encryption and decryption and CBC decryption
//! run at least 0.8 of the raw kernel at the same lane width
//! (`over_blocks`): each lane steps its own tweaks and the CBC chaining
//! blocks are staged a group at a time, so the whitening stays off the
//! rounds' path, and (f) where the AES-NI lanes
//! are 256 bits wide (VAES), the CMAC over 16 pages per call runs at
//! least 1.2× 8 pages per call (`cmac/aesni/16` over `cmac/aesni/8`).
//! `host_kernel` names the kernel and, for AES-NI, its lane width in bits
//! (`aesni/256`).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

use sentry_bench::json::{rounded, write_bench, Json};
use sentry_bench::print_table;
use sentry_core::aes_onsoc::{build_engine_with_backend, OnSocCipherBackend};
use sentry_core::config::OnSocBackend;
use sentry_core::onsoc::OnSocStore;
use sentry_crypto::mac::MIN_LANE_MESSAGES;
use sentry_crypto::modes::{
    cbc_decrypt, cbc_encrypt, cbc_encrypt_extents, ctr_crypt, xts_decrypt, xts_encrypt, BlockCipher,
};
use sentry_crypto::{
    Aes, AesStateLayout, BitslicedAes, BlockCipherBatch, Cmac, Direction, KeySize, PageCipher,
    Sensitivity,
};
use sentry_kernel::crypto_api::{CipherEngine, GenericAesEngine};
use sentry_soc::Soc;

const PAGE: usize = 4096;
const PAGES: usize = 64;
const REPS: usize = 11;
/// Child processes the host rows are measured in.
const RUNS: usize = 5;
/// The internal flag a child runs under: one round of host rows, printed
/// as `key value` lines.
const ONE_ROUND: &str = "--one-round";
const KEY: [u8; 32] = [0x6Bu8; 32];
/// Pages per CMAC pass: divisible by every measured group size, so each
/// group runs full.
const CMAC_PAGES: usize = 96;
/// CMAC group sizes measured on the bitsliced lanes.
const CMAC_GROUPS: [usize; 5] = [16, 8, 4, 3, 2];
/// CMAC group sizes measured on the AES-NI lanes.
const AESNI_CMAC_GROUPS: [usize; 6] = [1, 2, 4, 8, 16, 32];
/// Pages whose CBC chains one lane-filling call encrypts.
const CHAINS: usize = 16;

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// No mode: independent blocks through `encrypt_blocks`.
    Blocks,
    CbcEnc,
    CbcDec,
    XtsEnc,
    XtsDec,
    Ctr,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Blocks => "blocks",
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

/// Every row's key: `backend/mode/chains` for the mode rows (`chains`
/// is 1 except for CBC encryption over [`CHAINS`] pages at once), and
/// `cmac/path/group` for the CMAC rows.
fn mode_key(backend: &str, mode: Mode, chains: usize) -> String {
    format!("{backend}/{}/{chains}", mode.name())
}

fn cmac_key(path: &str, group: usize) -> String {
    format!("cmac/{path}/{group}")
}

/// Run `mode` over every page of `buf` on `kernel`, one page per call;
/// CBC encryption goes through the scalar chain driver, so that row
/// measures the kernel's single-block cost.
fn run_pages<C: BlockCipher + BlockCipherBatch>(kernel: &C, mode: Mode, buf: &mut [u8]) {
    for (i, page) in buf.chunks_exact_mut(PAGE).enumerate() {
        let iv = [i as u8; 16];
        match mode {
            Mode::Blocks => kernel.encrypt_blocks(page.as_chunks_mut().0),
            Mode::CbcEnc => cbc_encrypt(kernel, &iv, page),
            Mode::CbcDec => cbc_decrypt(kernel, &iv, page),
            // XTS fills the lanes in both directions: the tweak chain is
            // computed up front, every block is independent after it.
            Mode::XtsEnc => xts_encrypt(kernel, kernel, &iv, page),
            Mode::XtsDec => xts_decrypt(kernel, kernel, &iv, page),
            Mode::Ctr => ctr_crypt(kernel, &iv, page),
        }
    }
}

/// CBC-encrypt every page of `buf`, `chains` pages' chains per call of
/// the lane loop.
fn run_chains<C: BlockCipherBatch>(kernel: &C, chains: usize, buf: &mut [u8]) {
    for (c, pages) in buf.chunks_mut(chains * PAGE).enumerate() {
        let ivs: Vec<[u8; 16]> = (0..pages.len() / PAGE)
            .map(|i| [(c * chains + i) as u8; 16])
            .collect();
        cbc_encrypt_extents(kernel, &ivs, pages);
    }
}

/// MiB/s over `bytes` of each of `N` rows, `run(i)` running row `i`,
/// each taken from its fastest repetition. Timing noise on a shared
/// builder is one-sided — scheduler steal and frequency dips only ever
/// *slow* a rep, never speed one up — so the minimum elapsed time is the
/// most stable estimate of the kernel's actual cost within one process.
/// The rows take turns, one repetition each, so a change in the host's
/// load falls on every row at once rather than on one row alone.
fn fastest_mib_s<const N: usize>(bytes: usize, mut run: impl FnMut(usize)) -> [f64; N] {
    let mut best = [u64::MAX; N];
    for rep in 0..=REPS {
        for (i, best) in best.iter_mut().enumerate() {
            let t0 = Instant::now();
            run(i);
            let elapsed = t0.elapsed().as_nanos() as u64;
            if rep > 0 {
                // First pass is warm-up (page faults, cache fill).
                *best = (*best).min(elapsed);
            }
        }
    }
    best.map(|best| bytes as f64 / (1 << 20) as f64 / (best as f64 * 1e-9))
}

/// MiB/s of each of `N` rows over the page set, `run(i, pages)` running
/// row `i`, their repetitions interleaved.
fn pages_mib_s<const N: usize>(mut run: impl FnMut(usize, &mut [u8])) -> [f64; N] {
    let mut buf: Vec<u8> = (0..PAGES * PAGE).map(|i| (i * 31) as u8).collect();
    fastest_mib_s(PAGES * PAGE, |i| run(i, &mut buf))
}

/// MiB/s of CMAC-trunc8 over IV ‖ page across `CMAC_PAGES` pages: one
/// page per `mac_parts` call (`group == None`), or `group` pages per
/// lane call.
fn cmac_mib_s(cmac: &Cmac, group: Option<usize>) -> f64 {
    let buf: Vec<u8> = (0..CMAC_PAGES * PAGE).map(|i| (i * 29) as u8).collect();
    let ivs: Vec<[u8; 16]> = (0..CMAC_PAGES).map(|i| [i as u8; 16]).collect();
    let [mib_s] = fastest_mib_s(CMAC_PAGES * PAGE, |_| match group {
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
    });
    mib_s
}

/// The AES-NI kernel under `aes`'s key, where the CPU has it.
#[cfg(target_arch = "x86_64")]
fn aes_ni(aes: &Aes) -> Option<sentry_crypto::aesni::AesNi> {
    sentry_crypto::aesni::AesNi::from_schedule(aes.schedule())
}

#[cfg(not(target_arch = "x86_64"))]
fn aes_ni(_: &Aes) -> Option<Aes> {
    None
}

/// Bits per AES-NI lane register (256 with VAES), where the CPU has
/// AES-NI.
#[cfg(target_arch = "x86_64")]
fn aesni_lane_bits(aes: &Aes) -> Option<u32> {
    aes_ni(aes).map(|ni| ni.lane_bits())
}

#[cfg(not(target_arch = "x86_64"))]
fn aesni_lane_bits(_: &Aes) -> Option<u32> {
    None
}

/// One round of every host row, in this process.
fn one_round() -> Vec<(String, f64)> {
    let aes = Aes::new(&KEY).expect("valid key length");
    let bits = BitslicedAes::from_schedule(aes.schedule());
    let mut rows = Vec::new();
    for mode in Mode::all() {
        let [table] = pages_mib_s(|_, b| run_pages(&aes, mode, b));
        rows.push((mode_key("table", mode, 1), table));
        let [bitsliced] = pages_mib_s(|_, b| run_pages(&bits, mode, b));
        rows.push((mode_key("bitsliced", mode, 1), bitsliced));
    }
    let [chains] = pages_mib_s(|_, b| run_chains(&bits, CHAINS, b));
    rows.push((mode_key("bitsliced", Mode::CbcEnc, CHAINS), chains));
    let portable = Cmac::portable(aes.clone());
    rows.push((cmac_key("scalar", 1), cmac_mib_s(&portable, None)));
    for g in CMAC_GROUPS {
        rows.push((cmac_key("lanes", g), cmac_mib_s(&portable, Some(g))));
    }
    if let Some(ni) = aes_ni(&aes) {
        // A lone CBC chain runs on the one-chain lane loop, as
        // `PageCipher` runs it.
        for chains in [1, CHAINS] {
            let [mib_s] = pages_mib_s(|_, b| run_chains(&ni, chains, b));
            rows.push((mode_key("aesni", Mode::CbcEnc, chains), mib_s));
        }
        // The raw kernel and the stream modes take turns, so each
        // stream's `over_blocks` compares repetitions run side by side.
        let streams = [
            Mode::Blocks,
            Mode::CbcDec,
            Mode::XtsEnc,
            Mode::XtsDec,
            Mode::Ctr,
        ];
        let mib_s: [f64; 5] = pages_mib_s(|i, b| run_pages(&ni, streams[i], b));
        for (mode, mib_s) in streams.into_iter().zip(mib_s) {
            rows.push((mode_key("aesni", mode, 1), mib_s));
        }
        let cmac = Cmac::new(aes.clone());
        assert_eq!(cmac.kernel_name(), "aesni");
        for g in AESNI_CMAC_GROUPS {
            rows.push((cmac_key("aesni", g), cmac_mib_s(&cmac, Some(g))));
        }
    }
    rows
}

/// Median and range of one row or ratio over the runs.
#[derive(Clone, Copy)]
struct Spread {
    median: f64,
    min: f64,
    max: f64,
}

impl Spread {
    fn of(mut values: Vec<f64>) -> Spread {
        values.sort_by(f64::total_cmp);
        let n = values.len();
        let median = if n % 2 == 1 {
            values[n / 2]
        } else {
            (values[n / 2 - 1] + values[n / 2]) / 2.0
        };
        Spread {
            median,
            min: values[0],
            max: values[n - 1],
        }
    }

    /// `median (min–max)` with `digits` decimals.
    fn show(self, digits: usize) -> String {
        format!(
            "{:.digits$} ({:.digits$}–{:.digits$})",
            self.median, self.min, self.max
        )
    }

    /// Each value rounded to the `digits` decimals the file states.
    fn rounded(self, digits: usize) -> Spread {
        Spread {
            median: rounded(self.median, digits),
            min: rounded(self.min, digits),
            max: rounded(self.max, digits),
        }
    }
}

impl From<Spread> for Json {
    fn from(s: Spread) -> Json {
        Json::obj()
            .field("median", s.median)
            .field("min", s.min)
            .field("max", s.max)
    }
}

/// The host rows of every run, by key.
struct Runs(Vec<BTreeMap<String, f64>>);

impl Runs {
    /// Measure [`RUNS`] rounds, each in a fresh child process.
    fn measure() -> Runs {
        let exe = std::env::current_exe().expect("own executable");
        Runs(
            (0..RUNS)
                .map(|_| {
                    let out = Command::new(&exe)
                        .arg(ONE_ROUND)
                        .output()
                        .expect("run a measurement round");
                    assert!(out.status.success(), "a measurement round failed");
                    String::from_utf8(out.stdout)
                        .expect("utf-8 rows")
                        .lines()
                        .map(|line| {
                            let (key, value) = line.split_once(' ').expect("`key value`");
                            (key.to_string(), value.parse().expect("a number"))
                        })
                        .collect()
                })
                .collect(),
        )
    }

    fn has(&self, key: &str) -> bool {
        self.0[0].contains_key(key)
    }

    fn row(&self, key: &str) -> Spread {
        Spread::of(self.0.iter().map(|run| run[key]).collect())
    }

    /// `num / den`, taken within each run.
    fn ratio(&self, num: &str, den: &str) -> Spread {
        Spread::of(self.0.iter().map(|run| run[num] / run[den]).collect())
    }
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

/// The batched rows AES-NI must at least match: each `aesni` row and
/// the bitsliced row it replaces on the host.
fn parity_pairs() -> Vec<(String, String)> {
    let mut pairs = vec![(
        mode_key("aesni", Mode::CbcEnc, CHAINS),
        mode_key("bitsliced", Mode::CbcEnc, CHAINS),
    )];
    for mode in [Mode::CbcDec, Mode::XtsEnc, Mode::XtsDec, Mode::Ctr] {
        pairs.push((mode_key("aesni", mode, 1), mode_key("bitsliced", mode, 1)));
    }
    for g in AESNI_CMAC_GROUPS
        .into_iter()
        .filter(|g| CMAC_GROUPS.contains(g))
    {
        pairs.push((cmac_key("aesni", g), cmac_key("lanes", g)));
    }
    pairs
}

fn main() {
    if std::env::args().any(|a| a == ONE_ROUND) {
        for (key, value) in one_round() {
            println!("{key} {value}");
        }
        return;
    }
    let enforce = std::env::args().any(|a| a == "--enforce");
    let lane_bits = aesni_lane_bits(&Aes::new(&KEY).expect("valid key length"));
    let host_kernel = match PageCipher::new(&KEY)
        .expect("valid key length")
        .kernel_name()
    {
        "aesni" => format!("aesni/{}", lane_bits.expect("an AES-NI kernel")),
        name => name.to_string(),
    };
    let runs = Runs::measure();
    let aesni = runs.has(&mode_key("aesni", Mode::Ctr, 1));

    // Host throughput.
    let mut mode_rows: Vec<(&str, Mode, usize)> = Vec::new();
    if aesni {
        mode_rows.push(("aesni", Mode::Blocks, 1));
    }
    for mode in Mode::all() {
        mode_rows.push(("table", mode, 1));
        mode_rows.push(("bitsliced", mode, 1));
        if aesni {
            mode_rows.push(("aesni", mode, 1));
        }
    }
    mode_rows.push(("bitsliced", Mode::CbcEnc, CHAINS));
    if aesni {
        mode_rows.push(("aesni", Mode::CbcEnc, CHAINS));
    }
    // The AES-NI stream modes over the raw kernel on the same pages.
    let blocks = mode_key("aesni", Mode::Blocks, 1);
    let over_blocks = |backend: &str, mode: Mode| {
        let stream = matches!(mode, Mode::CbcDec | Mode::XtsEnc | Mode::XtsDec | Mode::Ctr);
        (backend == "aesni" && stream).then(|| runs.ratio(&mode_key(backend, mode, 1), &blocks))
    };
    let table_rows: Vec<Vec<String>> = mode_rows
        .iter()
        .map(|&(backend, mode, chains)| {
            vec![
                mode.name().to_string(),
                chains.to_string(),
                backend.to_string(),
                runs.row(&mode_key(backend, mode, chains)).show(1),
                over_blocks(backend, mode).map_or_else(String::new, |r| r.show(2)),
            ]
        })
        .collect();
    print_table(
        &format!("Host AES kernels over 4 KiB pages (MiB/s, fastest rep; median (min–max) of {RUNS} processes)"),
        &["Mode", "Chains", "Kernel", "MiB/s", "Over blocks"],
        &table_rows,
    );

    // CMAC: the scalar chain against the lanes at each group size.
    let scalar = cmac_key("scalar", 1);
    let mut cmac_rows = vec![vec![
        "scalar, 1 page per call".to_string(),
        runs.row(&scalar).show(1),
        "1.00x".to_string(),
    ]];
    cmac_rows.extend(CMAC_GROUPS.iter().map(|&g| {
        let path = if g >= MIN_LANE_MESSAGES {
            "lanes"
        } else {
            "lanes (scalar in use)"
        };
        vec![
            format!("{path}, {g} pages per call"),
            runs.row(&cmac_key("lanes", g)).show(1),
            runs.ratio(&cmac_key("lanes", g), &scalar).show(2),
        ]
    }));
    if aesni {
        cmac_rows.extend(AESNI_CMAC_GROUPS.iter().map(|&g| {
            vec![
                format!("aesni, {g} pages per call"),
                runs.row(&cmac_key("aesni", g)).show(1),
                runs.ratio(&cmac_key("aesni", g), &scalar).show(2),
            ]
        }));
    }
    print_table(
        "Host CMAC over IV ‖ 4 KiB page (MiB/s, fastest rep; median (min–max))",
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
    let mut store = OnSocStore::new(OnSocBackend::Iram, &mut soc);
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

    // The gate ratios, each taken within a run.
    let dec_ratio = runs.ratio(
        &mode_key("bitsliced", Mode::CbcDec, 1),
        &mode_key("table", Mode::CbcDec, 1),
    );
    let xts_enc_ratio = runs.ratio(
        &mode_key("bitsliced", Mode::XtsEnc, 1),
        &mode_key("bitsliced", Mode::CbcEnc, 1),
    );
    let cmac16_ratio = runs.ratio(&cmac_key("lanes", 16), &scalar);
    let parity: Vec<(String, String, Spread)> = if aesni {
        parity_pairs()
            .into_iter()
            .map(|(ni, bits)| {
                let r = runs.ratio(&ni, &bits);
                (ni, bits, r)
            })
            .collect()
    } else {
        Vec::new()
    };

    let host_json: Json = mode_rows
        .iter()
        .map(|&(backend, mode, chains)| {
            let key = mode_key(backend, mode, chains);
            let mut row = Json::obj()
                .field("backend", backend)
                .field("mode", mode.name())
                .field("chains", chains)
                .field("mib_s", runs.row(&key).rounded(1));
            if let Some((_, _, r)) = parity.iter().find(|(ni, _, _)| *ni == key) {
                row = row.field("over_bitsliced", r.rounded(2));
            }
            if let Some(r) = over_blocks(backend, mode) {
                row = row.field("over_blocks", r.rounded(2));
            }
            row
        })
        .collect();
    let acct_json: Json = acct
        .iter()
        .map(|a| {
            Json::obj()
                .field("variant", a.variant)
                .field("secret", a.secret)
                .field("access_protected", a.access_protected)
                .field("public", a.public)
                .field("arena", a.arena)
        })
        .collect();
    let sim_json: Json = sim
        .iter()
        .map(|&(name, ns)| Json::obj().field("engine", name).field("page_ns", ns))
        .collect();
    let mut cmac_json = vec![Json::obj()
        .field("path", "scalar")
        .field("group", 1u64)
        .field("mib_s", runs.row(&scalar).rounded(1))];
    let aesni_groups: &[usize] = if aesni { &AESNI_CMAC_GROUPS } else { &[] };
    for (path, g) in CMAC_GROUPS
        .iter()
        .map(|&g| ("lanes", g))
        .chain(aesni_groups.iter().map(|&g| ("aesni", g)))
    {
        let key = cmac_key(path, g);
        let mut row = Json::obj()
            .field("path", path)
            .field("group", g)
            .field("mib_s", runs.row(&key).rounded(1))
            .field("over_scalar", runs.ratio(&key, &scalar).rounded(2));
        if let Some((_, _, r)) = parity.iter().find(|(ni, _, _)| *ni == key) {
            row = row.field("over_lanes", r.rounded(2));
        }
        cmac_json.push(row);
    }
    println!("\nhost AES kernel: {host_kernel}");
    write_bench(
        "BENCH_aes_kernels.json",
        &Json::obj()
            .field("experiment", "aes_kernels")
            .field("host_kernel", host_kernel.as_str())
            .field("page_bytes", PAGE)
            .field("pages", PAGES)
            .field("reps", REPS)
            .field("runs", RUNS)
            .field("cbc_dec_bitsliced_over_table", dec_ratio.rounded(2))
            .field("xts_enc_over_cbc_enc", xts_enc_ratio.rounded(2))
            .field("cmac_batch16_over_scalar", cmac16_ratio.rounded(2))
            .field("cmac_min_lane_messages", MIN_LANE_MESSAGES)
            .field("host", host_json)
            .field("cmac", cmac_json)
            .field("table4", acct_json)
            .field("sim", sim_json),
    );

    if enforce {
        assert!(
            acct[1].access_protected == 0,
            "bitsliced variant must have zero access-protected state"
        );
        let (dec, xts, cmac16) = (dec_ratio.median, xts_enc_ratio.median, cmac16_ratio.median);
        if dec < 1.0 {
            eprintln!(
                "FAIL: bitsliced CBC-decrypt regressed below the scalar-table \
                 baseline (median {dec:.2}x)"
            );
            std::process::exit(1);
        }
        println!("enforce: bitsliced CBC-decrypt at {dec:.2}x of scalar — ok");
        // The tentpole gate: page encryption through the lane-filling
        // XTS mode must run at least 8x the serially chained CBC
        // encryption on the same bitsliced backend (a native run shows
        // ~15x; 8x leaves headroom for noisy CI hosts).
        if xts < 8.0 {
            eprintln!(
                "FAIL: bitsliced XTS page-encrypt at only {xts:.2}x of \
                 bitsliced CBC-encrypt (median; gate: >= 8x)"
            );
            std::process::exit(1);
        }
        println!("enforce: bitsliced XTS-encrypt at {xts:.2}x of CBC-encrypt — ok");
        // The batch CMAC gate: 16 pages per call on the bitsliced lanes
        // must run at least 2x the scalar chain (~4.0x measured).
        if cmac16 < 2.0 {
            eprintln!(
                "FAIL: batch CMAC over 16 pages at only {cmac16:.2}x of the \
                 scalar chain (median; gate: >= 2x)"
            );
            std::process::exit(1);
        }
        println!("enforce: batch CMAC (16 pages) at {cmac16:.2}x of scalar — ok");
        // The AES-NI parity gate: the kernel the host runs must not be
        // slower than the bitsliced kernel it replaces on any batched
        // path.
        for (ni, bits, r) in &parity {
            if r.median < 1.0 {
                eprintln!(
                    "FAIL: {ni} at only {:.2}x of {bits} (median; gate: >= 1x)",
                    r.median
                );
                std::process::exit(1);
            }
        }
        if aesni {
            println!("enforce: every batched aesni row at least matches its bitsliced row — ok");
            // The pair gate: two CMAC chains in one AES-NI lane loop must
            // run at least 1.5x one chain (~2x measured), which is why a
            // locked fault MACs its victim and its incoming page in one
            // call.
            let pair = runs
                .ratio(&cmac_key("aesni", 2), &cmac_key("aesni", 1))
                .median;
            if pair < 1.5 {
                eprintln!(
                    "FAIL: AES-NI CMAC over 2 pages per call at only {pair:.2}x of \
                     1 page per call (median; gate: >= 1.5x)"
                );
                std::process::exit(1);
            }
            println!("enforce: AES-NI CMAC (2 pages) at {pair:.2}x of 1 page — ok");
            // The stream gate: with each lane stepping its own tweaks and
            // the CBC chaining blocks staged a group at a time, the
            // whitening does not hold a stream at half the raw kernel
            // (XTS 0.46 with serial tweaks; XTS 0.78-0.93 on 128-bit
            // lanes, and XTS 0.84 and CBC 0.89-0.96 on 256-bit lanes,
            // with the raw kernel at the same width, measured on a quiet
            // host; a neighbour's load takes both to 0.65-0.8).
            for mode in [Mode::CbcDec, Mode::XtsEnc, Mode::XtsDec] {
                let r = over_blocks("aesni", mode).expect("an AES-NI stream row");
                if r.median < 0.8 {
                    eprintln!(
                        "FAIL: AES-NI {} at only {:.2} of the raw kernel (median; gate: >= 0.8)",
                        mode.name(),
                        r.median
                    );
                    std::process::exit(1);
                }
                println!(
                    "enforce: AES-NI {} at {:.2} of the raw kernel — ok",
                    mode.name(),
                    r.median
                );
            }
        }
        if lane_bits == Some(256) {
            // The wide-lane gate: 16 CMAC chains fill eight 256-bit
            // registers, 8 chains only eight 128-bit ones.
            let wide = runs
                .ratio(&cmac_key("aesni", 16), &cmac_key("aesni", 8))
                .median;
            if wide < 1.2 {
                eprintln!(
                    "FAIL: AES-NI CMAC over 16 pages per call at only {wide:.2}x of \
                     8 pages per call on 256-bit lanes (median; gate: >= 1.2x)"
                );
                std::process::exit(1);
            }
            println!("enforce: AES-NI CMAC (16 pages) at {wide:.2}x of 8 pages — ok");
        }
    }
}
