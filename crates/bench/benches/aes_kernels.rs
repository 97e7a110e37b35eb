//! Criterion benchmarks of the two software AES backends over 4 KiB
//! pages: table-driven scalar vs batched bitsliced, in the three modes
//! the system actually uses. The headline pair is `cbc_dec`: the
//! bitsliced kernel decrypts 16 blocks per call and should win by a wide
//! margin (the `exp_aes_kernels` binary gates on it in CI); `cbc_enc`
//! is serially chained and shows the bitsliced backend's single-block
//! cost instead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sentry_crypto::modes::{cbc_decrypt, cbc_encrypt, ctr_crypt};
use sentry_crypto::{Aes, BitslicedAes};

const PAGE: usize = 4096;

fn mk_page() -> Vec<u8> {
    (0..PAGE).map(|i| (i * 31) as u8).collect()
}

fn bench_kernels(c: &mut Criterion) {
    let aes = Aes::new(&[0x6Bu8; 32]).unwrap();
    let bits = BitslicedAes::from_schedule(aes.schedule());
    let iv = [7u8; 16];

    let mut group = c.benchmark_group("aes_kernels");
    group.throughput(Throughput::Bytes(PAGE as u64));
    for backend in ["table", "bitsliced"] {
        group.bench_with_input(BenchmarkId::new("cbc_enc", backend), &backend, |b, &be| {
            b.iter_with_setup(mk_page, |mut page| match be {
                "table" => cbc_encrypt(&aes, &iv, &mut page),
                _ => cbc_encrypt(&bits, &iv, &mut page),
            });
        });
        group.bench_with_input(BenchmarkId::new("cbc_dec", backend), &backend, |b, &be| {
            b.iter_with_setup(mk_page, |mut page| match be {
                "table" => cbc_decrypt(&aes, &iv, &mut page),
                _ => cbc_decrypt(&bits, &iv, &mut page),
            });
        });
        group.bench_with_input(BenchmarkId::new("ctr", backend), &backend, |b, &be| {
            b.iter_with_setup(mk_page, |mut page| match be {
                "table" => ctr_crypt(&aes, &iv, &mut page),
                _ => ctr_crypt(&bits, &iv, &mut page),
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
