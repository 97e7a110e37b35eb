//! The §4.2 PL310 validation experiments.
//!
//! 1. Write an 8-byte random pattern (that never otherwise appears in
//!    DRAM) to an address mapped into a locked cache way, then DMA-read
//!    the DRAM behind it via the UART loopback debug port: the pattern
//!    must not appear — the hardware never writes locked lines back.
//! 2. Flush the entire cache the *unpatched* way: the pattern appears
//!    in DRAM and the ways unlock — the discovered hazard that motivated
//!    the masked-flush OS change (428 → 676 lines in Linux).

use sentry_core::config::OnSocBackend;
use sentry_core::onsoc::OnSocStore;
use sentry_soc::Soc;

fn main() {
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
