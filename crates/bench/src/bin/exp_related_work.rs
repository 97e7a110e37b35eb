//! §9.1 head-to-head: register-only AES (AESSE/TRESOR/Simmons style)
//! vs AES On SoC, against the full attack suite.
//!
//! Register-only schemes defeat cold boot (no key material in DRAM)
//! but leave the lookup tables — the access-protected state — in
//! ordinary memory, so a bus monitor recovers the per-round lookup
//! indices that cache-attack literature turns into keys. AES On SoC
//! protects both classes of state.

use sentry_attacks::busmon::BusMonitor;
use sentry_attacks::coldboot;
use sentry_attacks::related::RegisterOnlyAes;
use sentry_bench::print_table;
use sentry_core::aes_onsoc::build_engine;
use sentry_core::config::OnSocBackend;
use sentry_core::onsoc::OnSocStore;
use sentry_crypto::Direction;
use sentry_kernel::crypto_api::CipherEngine;
use sentry_soc::addr::DRAM_BASE;
use sentry_soc::dram::PowerEvent;
use sentry_soc::Soc;

const TABLE_REGION: u64 = DRAM_BASE + (36 << 20);
const KEY: [u8; 16] = [0xABu8; 16];

fn main() {
    // --- Register-only scheme.
    let mut soc = Soc::tegra3_small();
    let tresor = RegisterOnlyAes::install(&mut soc, TABLE_REGION, &KEY).expect("installs");
    let mon = BusMonitor::attach_new(&mut soc.bus);
    let mut block = [0u8; 16];
    tresor.encrypt_block(&mut soc, &mut block);
    let tresor_lookups = mon.table_access_indices(TABLE_REGION, 256, 4).len();
    soc.power_cycle(PowerEvent::ReflashTap).expect("reboots");
    let tresor_keys = coldboot::find_aes128_key_schedules(&coldboot::dump_dram(&mut soc)).len();

    // --- AES On SoC.
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
