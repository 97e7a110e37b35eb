//! Figure 11: AES throughput microbenchmarks (4 KiB pages).
//!
//! Left (Nexus 4): user-space OpenSSL AES, the kernel Crypto API AES,
//! and the hardware accelerator — which is *slower* on 4 KiB pages
//! because of per-operation setup cost and the down-scaled clock while
//! the phone is locked (4x faster fully awake).
//!
//! Right (Tegra 3): generic AES vs AES On SoC in a locked L2 way and in
//! iRAM — both within 1% of generic.

use sentry_bench::print_table;
use sentry_core::aes_onsoc::build_engine;
use sentry_core::config::OnSocBackend;
use sentry_core::onsoc::OnSocStore;
use sentry_crypto::Direction;
use sentry_kernel::crypto_api::{CipherEngine, GenericAesEngine};
use sentry_soc::accel::AccelPowerState;
use sentry_soc::Soc;

const PAGES: usize = 256; // 1 MB of 4 KiB pages per measurement
const KERNEL_CROSSING_NS: u64 = 12_000; // syscall + CryptoAPI dispatch per page

fn measure(soc: &mut Soc, engine: &mut dyn CipherEngine, extra_per_page_ns: u64) -> f64 {
    let mut page = vec![0xA5u8; 4096];
    let iv = [0u8; 16];
    let t0 = soc.clock.now_ns();
    for _ in 0..PAGES {
        soc.clock.advance(extra_per_page_ns);
        engine
            .crypt(soc, Direction::Encrypt, &[iv], &mut page)
            .expect("keyed engine");
    }
    let secs = (soc.clock.now_ns() - t0) as f64 / 1e9;
    (PAGES * 4096) as f64 / secs / 1e6
}

fn main() {
    // ---- Nexus 4 (Figure 11, left).
    let mut soc = Soc::nexus4_small();
    let mut user = GenericAesEngine::new(0);
    user.set_key(&mut soc, &[1u8; 16]).unwrap();
    let user_mb = measure(&mut soc, &mut user, 0);
    let kernel_mb = measure(&mut soc, &mut user, KERNEL_CROSSING_NS);
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

    // ---- Tegra 3 (Figure 11, right).
    let mut soc = Soc::tegra3_small();
    let mut generic = GenericAesEngine::new(0);
    generic.set_key(&mut soc, &[1u8; 16]).unwrap();
    let generic_mb = measure(&mut soc, &mut generic, 0);

    let mut store = OnSocStore::new(OnSocBackend::LockedL2 { max_ways: 1 }, &mut soc);
    let mut locked = build_engine(&mut store, &mut soc, &[1u8; 16]).unwrap();
    let locked_mb = measure(&mut soc, &mut locked, 0);

    let mut soc = Soc::tegra3_small();
    let mut store = OnSocStore::new(OnSocBackend::Iram, &mut soc);
    let mut iram = build_engine(&mut store, &mut soc, &[1u8; 16]).unwrap();
    let iram_mb = measure(&mut soc, &mut iram, 0);

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
