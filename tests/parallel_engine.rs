//! Properties of the parallel page-crypt engine: the worker count is an
//! implementation detail that must never show up in the bytes.

use proptest::collection::vec;
use proptest::prelude::*;
use sentry::core::config::ParallelConfig;
use sentry::core::{Sentry, SentryConfig};
use sentry::crypto::parallel::{crypt_batch, BatchReport};
use sentry::crypto::{Direction, PageCipher, PageCipherMode};
use sentry::kernel::Kernel;
use sentry::soc::Soc;

fn pages_from_seed(count: usize, seed: u64) -> Vec<u8> {
    (0..count * 4096)
        .map(|b| {
            (seed as u8)
                .wrapping_mul(7)
                .wrapping_add((b / 4096 * 131 + b % 4096) as u8)
        })
        .collect()
}

fn ivs(pages: usize, stride: u8) -> Vec<[u8; 16]> {
    (0..pages)
        .map(|i| [(i as u8).wrapping_mul(stride); 16])
        .collect()
}

/// One `crypt_batch` call over `data` (page `i` under `[i * stride; 16]`).
fn crypt(
    cipher: &PageCipher,
    mode: PageCipherMode,
    direction: Direction,
    stride: u8,
    data: &mut [u8],
    workers: usize,
    min_batch: usize,
) -> BatchReport {
    let ivs = ivs(data.len() / 4096, stride);
    crypt_batch(cipher, mode, direction, &ivs, data, workers, min_batch).unwrap()
}

fn run_batch(
    pages: &[u8],
    key: &[u8],
    mode: PageCipherMode,
    direction: Direction,
    workers: usize,
) -> Vec<u8> {
    let cipher = PageCipher::new(key).unwrap();
    let mut work = pages.to_vec();
    crypt(&cipher, mode, direction, 17, &mut work, workers, 1);
    work
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    #[test]
    fn every_worker_count_produces_identical_ciphertext(
        key in vec(any::<u8>(), 32..=32),
        pages in 1usize..33,
        seed in any::<u64>(),
    ) {
        let plain = pages_from_seed(pages, seed);
        for mode in PageCipherMode::all() {
            let reference = run_batch(&plain, &key, mode, Direction::Encrypt, 1);
            for workers in [2usize, 4, 8] {
                let got = run_batch(&plain, &key, mode, Direction::Encrypt, workers);
                prop_assert_eq!(&got, &reference, "{} workers diverged under {}", workers, mode);
            }
            // And the inverse direction agrees too, across a different
            // worker count than the one that encrypted.
            let back = run_batch(&reference, &key, mode, Direction::Decrypt, 4);
            prop_assert_eq!(&back, &plain, "decrypt under {} lost bytes", mode);
        }
    }

    #[test]
    fn odd_page_counts_split_without_loss(
        pages in 1usize..50,
        workers in 1usize..9,
        seed in any::<u64>(),
    ) {
        // Odd, prime, and sub-worker batch sizes all preserve every
        // byte: the contiguous split never drops or duplicates a page.
        let plain = pages_from_seed(pages, seed);
        let cipher = PageCipher::new(&[0x42u8; 16]).unwrap();
        let mut work = plain.clone();
        let rep = crypt(&cipher, PageCipherMode::Cbc, Direction::Encrypt, 1, &mut work, workers, 1);
        prop_assert_eq!(rep.pages, pages);
        prop_assert_eq!(rep.bytes, pages as u64 * 4096);
        prop_assert_eq!(rep.per_worker_bytes.iter().sum::<u64>(), rep.bytes);
        prop_assert_eq!(rep.workers_used, workers.min(pages));

        crypt(&cipher, PageCipherMode::Cbc, Direction::Decrypt, 1, &mut work, workers, 1);
        prop_assert_eq!(work, plain);
    }
}

#[test]
fn below_floor_batches_take_the_sequential_fallback() {
    let plain = pages_from_seed(5, 99);
    let cipher = PageCipher::new(&[7u8; 16]).unwrap();
    let mut work = plain.clone();
    let rep = crypt(
        &cipher,
        PageCipherMode::Cbc,
        Direction::Encrypt,
        1,
        &mut work,
        8,
        6,
    );
    assert!(
        rep.sequential_fallback,
        "5 pages < floor of 6 must not fan out"
    );
    assert_eq!(rep.workers_used, 1);
    // Identical bytes to a genuinely parallel run of the same batch.
    let mut par = plain.clone();
    let rep2 = crypt(
        &cipher,
        PageCipherMode::Cbc,
        Direction::Encrypt,
        1,
        &mut par,
        5,
        1,
    );
    assert!(!rep2.sequential_fallback);
    assert_eq!(work, par, "fallback and fan-out bytes differ");
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
                .with_parallel(ParallelConfig {
                    workers,
                    min_batch_pages: 1,
                }),
        )
        .unwrap();
        let pid = s.kernel.spawn("app");
        s.mark_sensitive(pid).unwrap();
        let data: Vec<u8> = (0..=254u8).cycle().take(17 * 4096).collect();
        s.write(pid, 0, &data).unwrap();
        s.on_lock().unwrap();
        s.kernel.soc.cache_maintenance_flush();
        let image: Vec<(u64, Vec<u8>)> = s
            .kernel
            .soc
            .dram
            .iter_frames()
            .map(|(addr, frame)| (addr, frame.to_vec()))
            .collect();
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
