//! Properties of the modelled lock lanes: the worker count models the
//! device's cores and must never show up in the bytes. Each test drives
//! whole `Sentry` lock/unlock cycles; the lanes change only the
//! simulated AES charge.

use proptest::prelude::*;
use sentry::core::{Sentry, SentryConfig};
use sentry::crypto::PageCipherMode;
use sentry::kernel::Kernel;
use sentry::soc::Soc;

const PAGE: usize = 4096;

fn pages_from_seed(count: usize, seed: u64) -> Vec<u8> {
    (0..count * PAGE)
        .map(|b| {
            (seed as u8)
                .wrapping_mul(7)
                .wrapping_add((b / PAGE * 131 + b % PAGE) as u8)
        })
        .collect()
}

/// Every DRAM frame, after a cache flush.
fn dram_image(s: &mut Sentry) -> Vec<(u64, Vec<u8>)> {
    s.kernel.soc.cache_maintenance_flush();
    s.kernel
        .soc
        .dram
        .iter_frames()
        .map(|(addr, frame)| (addr, frame.to_vec()))
        .collect()
}

/// What one lock, unlock and sweep of a working set left behind.
#[derive(Debug, PartialEq)]
struct Cycle {
    /// Every DRAM frame while locked.
    locked: Vec<(u64, Vec<u8>)>,
    /// Every DRAM frame once the sweeper decrypted the set in one batch.
    swept: Vec<(u64, Vec<u8>)>,
    /// Lanes the lock batch was charged over.
    lock_lanes: usize,
    /// Simulated lock latency.
    lock_ns: u64,
}

/// Lock `plain` under `mode` on `workers` lanes, unlock, decrypt every
/// page in one sweep batch (the decrypt lanes) and check that the app
/// reads `plain` back.
fn cycle(plain: &[u8], mode: PageCipherMode, workers: usize) -> Cycle {
    let pages = plain.len() / PAGE;
    let mut s = Sentry::new(
        Kernel::new(Soc::tegra3_small()),
        SentryConfig::tegra3_locked_l2(2)
            .with_cipher_mode(mode)
            .with_parallel_workers(workers),
    )
    .unwrap();
    let pid = s.kernel.spawn("app");
    s.mark_sensitive(pid).unwrap();
    s.write(pid, 0, plain).unwrap();
    let lock = s.on_lock().unwrap();
    assert_eq!(lock.batch_pages as usize, pages, "one lock batch");
    let locked = dram_image(&mut s);
    s.on_unlock().unwrap();
    assert_eq!(s.sweep(pages).unwrap().pages, pages, "one sweep batch");
    let swept = dram_image(&mut s);
    let mut back = vec![0u8; plain.len()];
    s.read(pid, 0, &mut back).unwrap();
    assert_eq!(back, plain, "{workers} workers under {mode} lost bytes");
    Cycle {
        locked,
        swept,
        lock_lanes: lock.workers_used,
        lock_ns: lock.duration_ns,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    #[test]
    fn every_worker_count_produces_identical_ciphertext(
        pages in 1usize..33,
        seed in any::<u64>(),
    ) {
        let plain = pages_from_seed(pages, seed);
        for mode in PageCipherMode::all() {
            let reference = cycle(&plain, mode, 1);
            prop_assert_eq!(reference.lock_lanes, 1);
            for workers in [2usize, 4, 8] {
                let got = cycle(&plain, mode, workers);
                prop_assert_eq!(got.lock_lanes, workers.min(pages));
                prop_assert_eq!(&got.locked, &reference.locked, "{} workers diverged under {}", workers, mode);
                prop_assert_eq!(&got.swept, &reference.swept, "{} workers decrypted differently under {}", workers, mode);
            }
        }
    }

    #[test]
    fn odd_page_counts_split_without_loss(
        pages in 1usize..50,
        workers in 1usize..9,
        seed in any::<u64>(),
    ) {
        // Odd, prime, and sub-worker batch sizes all preserve every
        // byte and use at most one lane per page.
        let plain = pages_from_seed(pages, seed);
        let reference = cycle(&plain, PageCipherMode::Cbc, 1);
        let got = cycle(&plain, PageCipherMode::Cbc, workers);
        prop_assert_eq!(got.lock_lanes, workers.min(pages));
        prop_assert!(got.lock_ns <= reference.lock_ns);
        prop_assert_eq!(&got.locked, &reference.locked);
        prop_assert_eq!(&got.swept, &reference.swept);
    }
}

#[test]
fn one_page_batches_take_the_serial_engine() {
    let plain = pages_from_seed(1, 99);
    let serial = cycle(&plain, PageCipherMode::Cbc, 1);
    let eight = cycle(&plain, PageCipherMode::Cbc, 8);
    assert_eq!(eight.lock_lanes, 1, "one page takes one lane");
    assert_eq!(
        eight, serial,
        "one lane is the serial engine, charge included"
    );
}

#[test]
fn full_lock_path_is_worker_invariant_end_to_end() {
    // Same app, same writes, different worker counts: every DRAM frame
    // must hold identical ciphertext after lock, and unlocked reads must
    // return the original data.
    let image_with = |workers: usize, mode: PageCipherMode| {
        let mut s = Sentry::new(
            Kernel::new(Soc::tegra3_small()),
            SentryConfig::tegra3_locked_l2(2)
                .with_cipher_mode(mode)
                .with_parallel_workers(workers),
        )
        .unwrap();
        let pid = s.kernel.spawn("app");
        s.mark_sensitive(pid).unwrap();
        let data: Vec<u8> = (0..=254u8).cycle().take(17 * PAGE).collect();
        s.write(pid, 0, &data).unwrap();
        s.on_lock().unwrap();
        let image = dram_image(&mut s);
        s.on_unlock().unwrap();
        let mut back = vec![0u8; data.len()];
        s.read(pid, 0, &mut back).unwrap();
        assert_eq!(back, data, "{workers} workers corrupted data");
        image
    };
    for mode in PageCipherMode::all() {
        let reference = image_with(1, mode);
        for workers in [2usize, 4, 8] {
            assert_eq!(
                image_with(workers, mode),
                reference,
                "{workers} workers diverged under {mode}"
            );
        }
    }
}
