//! Host throughput of the crypto kernels each layer calls, timed through
//! their public functions on 64 pages: the page cipher modes with the
//! bitsliced backend, the integrity CMAC, and the journal commit tag
//! under the workload's cipher mode. The median of several repetitions
//! is reported.

use sentry_core::{CommitTagger, PageCipherMode};
use sentry_crypto::modes::{cbc_decrypt, cbc_encrypt, ctr_crypt, xts_decrypt, xts_encrypt};
use sentry_crypto::{Aes, BitslicedAes, Cmac};
use std::hint::black_box;
use std::time::Instant;

const PAGES: usize = 64;
const PAGE: usize = 4096;
const REPS: usize = 9;

/// Per-layer metric name and unit of each kernel timing, in the order
/// [`measure`] returns them.
pub const KERNELS: [(&str, &str); 7] = [
    ("crypto.modes.xts_enc_mib_s", "MiB/s"),
    ("crypto.modes.xts_dec_mib_s", "MiB/s"),
    ("crypto.modes.cbc_enc_mib_s", "MiB/s"),
    ("crypto.modes.cbc_dec_mib_s", "MiB/s"),
    ("crypto.modes.ctr_mib_s", "MiB/s"),
    ("crypto.mac.cmac_page_mib_s", "MiB/s"),
    ("core.txn.commit_tag.host_ns_per_page", "ns"),
];

/// Median host ns of one pass of `f` over the 64-page buffer.
fn median_ns(buf: &mut [u8], mut f: impl FnMut(&[u8; 16], &mut [u8])) -> f64 {
    let mut times: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            for (i, page) in buf.chunks_exact_mut(PAGE).enumerate() {
                let mut iv = [0u8; 16];
                iv[..8].copy_from_slice(&(i as u64).to_le_bytes());
                f(black_box(&iv), black_box(page));
            }
            black_box(&buf);
            t0.elapsed().as_secs_f64() * 1e9
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[REPS / 2]
}

/// Time every kernel of [`KERNELS`]; `mode` picks the commit-tag
/// scheme.
#[must_use]
pub fn measure(mode: PageCipherMode) -> [f64; 7] {
    let key = [0x5Au8; 16];
    let bits = BitslicedAes::new(&key).expect("16-byte key");
    let mut buf: Vec<u8> = (0..PAGES * PAGE).map(|i| (i * 7 + 3) as u8).collect();
    #[allow(clippy::cast_precision_loss)]
    let mib_s = |ns: f64| (PAGES * PAGE) as f64 / (1 << 20) as f64 / (ns * 1e-9);

    let xts_enc = median_ns(&mut buf, |iv, p| xts_encrypt(&bits, &bits, iv, p));
    let xts_dec = median_ns(&mut buf, |iv, p| xts_decrypt(&bits, &bits, iv, p));
    let cbc_enc = median_ns(&mut buf, |iv, p| cbc_encrypt(&bits, iv, p));
    let cbc_dec = median_ns(&mut buf, |iv, p| cbc_decrypt(&bits, iv, p));
    let ctr = median_ns(&mut buf, |iv, p| ctr_crypt(&bits, iv, p));
    let cmac = Cmac::new(Aes::new(&key).expect("16-byte key"));
    let mac = median_ns(&mut buf, |iv, p| {
        black_box(cmac.mac_parts_trunc8(&[iv, p]));
    });
    let tagger = CommitTagger::new(mode, &key).expect("16-byte key");
    let tag = median_ns(&mut buf, |iv, p| {
        black_box(tagger.tag(iv, p));
    });
    #[allow(clippy::cast_precision_loss)]
    let per_page = tag / PAGES as f64;
    [
        mib_s(xts_enc),
        mib_s(xts_dec),
        mib_s(cbc_enc),
        mib_s(cbc_dec),
        mib_s(ctr),
        mib_s(mac),
        per_page,
    ]
}
