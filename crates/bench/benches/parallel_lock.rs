//! Host-side benchmarks of the parallel page-crypt engine: a 256-page
//! (1 MiB) lock-sized batch, sequential versus fanned out. The
//! acceptance bar for the engine is ≥2× at 4 workers on this batch —
//! visible here on hosts with ≥4 real cores, and always visible in the
//! simulated-time domain (`exp_lock_scaling` reports both, and the
//! lifecycle test `parallel_lock_is_faster_in_simulated_time` asserts
//! the simulated bar).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sentry_crypto::parallel::crypt_batch;
use sentry_crypto::{Direction, PageCipher, PageCipherMode};

const BATCH_PAGES: usize = 256;
const PAGE: usize = 4096;

fn mk_batch() -> Vec<u8> {
    (0..BATCH_PAGES * PAGE)
        .map(|b| (b / PAGE * 31 + b % PAGE) as u8)
        .collect()
}

fn bench_crypt_batch(c: &mut Criterion) {
    let cipher = PageCipher::new(&[0x6Bu8; 32]).unwrap();
    let ivs: Vec<[u8; 16]> = (0..BATCH_PAGES).map(|i| [i as u8; 16]).collect();
    let mut group = c.benchmark_group("parallel_lock");
    group.sample_size(10);
    group.throughput(Throughput::Bytes((BATCH_PAGES * PAGE) as u64));
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("encrypt_256_pages", workers),
            &workers,
            |b, &workers| {
                b.iter_with_setup(mk_batch, |mut pages| {
                    crypt_batch(
                        &cipher,
                        PageCipherMode::Cbc,
                        Direction::Encrypt,
                        &ivs,
                        &mut pages,
                        workers,
                        1,
                    )
                    .unwrap()
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_crypt_batch);
criterion_main!(benches);
