//! Lock-path scaling sweep for the parallel page-crypt engine.
//!
//! For each page cipher mode (CBC, XTS, CTR) and each worker count in
//! {1, 2, 4, 8} this measures both sides of the engine on a 256-page
//! (1 MiB) lock-sized batch:
//!
//! * **host wall-clock** of `crypt_batch` itself — real threads, real
//!   AES, median of several repetitions. The thread count handed to the
//!   engine is clamped to the cores the host actually has: threads
//!   beyond that only time-slice, so measuring them as if they were
//!   lanes produced a flat `host_speedup` curve that looked like an
//!   engine bug. `workers_used` reports the honest lane count.
//! * **simulated lock latency** of a full `Sentry::on_lock` transition
//!   over the same working set, where the batch charges the serial AES
//!   cost divided by the lanes used. The sim sweep keeps the *requested*
//!   worker count — it models the device's cores, not the build
//!   machine's.
//!
//! Results print as a table and are written to `BENCH_lock_scaling.json`
//! so CI (and the bench trajectory) can track the sweep.

use std::time::Instant;

use sentry_bench::print_table;
use sentry_core::config::ParallelConfig;
use sentry_core::{Sentry, SentryConfig};
use sentry_crypto::parallel::crypt_batch;
use sentry_crypto::{Direction, PageCipher, PageCipherMode};
use sentry_kernel::Kernel;
use sentry_soc::Soc;

const BATCH_PAGES: usize = 256;
const PAGE: usize = 4096;
const REPS: usize = 7;
const SWEEP: [usize; 4] = [1, 2, 4, 8];

struct Point {
    mode: PageCipherMode,
    workers: usize,
    workers_used: usize,
    host_wall_ns: u64,
    host_mib_s: f64,
    host_speedup: f64,
    sim_lock_ns: u64,
    sim_speedup: f64,
}

fn fill_batch(pages: &mut [u8]) {
    for (b, byte) in pages.iter_mut().enumerate() {
        *byte = (b / PAGE * 31 + b % PAGE) as u8;
    }
}

/// Median host wall-clock of one 256-page encrypt batch, plus the lane
/// count the engine actually used.
///
/// The page buffers are allocated once and refilled in place between
/// repetitions: allocating 1 MiB of fresh pages per rep put allocator
/// and page-fault time *inside* the measured region, which both inflated
/// the absolute numbers and flattened the speedup curve (the allocation
/// cost does not parallelize). Only `crypt_batch` is timed now, with the
/// same keyed context the lock engine hands its lanes.
fn host_point(cipher: &PageCipher, mode: PageCipherMode, workers: usize) -> (u64, usize) {
    let mut samples = Vec::with_capacity(REPS);
    let mut workers_used = 1;
    let mut pages = vec![0u8; BATCH_PAGES * PAGE];
    let ivs: Vec<[u8; 16]> = (0..BATCH_PAGES).map(|i| [i as u8; 16]).collect();
    // Threads beyond the physical cores only time-slice; clamp so the
    // reported lane count matches the parallelism that can exist.
    let host_workers = workers.min(host_cores());
    for rep in 0..=REPS {
        fill_batch(&mut pages);
        let t0 = Instant::now();
        let report = crypt_batch(
            cipher,
            mode,
            Direction::Encrypt,
            &ivs,
            &mut pages,
            host_workers,
            1,
        )
        .expect("batch crypt");
        let elapsed = t0.elapsed().as_nanos() as u64;
        workers_used = report.workers_used;
        if rep > 0 {
            // First pass is warm-up (page faults, thread-pool spin-up).
            samples.push(elapsed);
        }
    }
    samples.sort_unstable();
    (samples[samples.len() / 2], workers_used)
}

/// Simulated `on_lock` latency over the same working set.
fn sim_point(mode: PageCipherMode, workers: usize) -> u64 {
    let mut s = Sentry::new(
        Kernel::new(Soc::tegra3_small()),
        SentryConfig::tegra3_locked_l2(2)
            .with_cipher_mode(mode)
            .with_parallel(ParallelConfig {
                workers,
                min_batch_pages: 1,
            }),
    )
    .expect("sentry builds");
    let pid = s.kernel.spawn("sweep");
    s.mark_sensitive(pid).expect("pid exists");
    let data: Vec<u8> = (0..251u8).cycle().take(BATCH_PAGES * PAGE).collect();
    s.write(pid, 0, &data).expect("working set fits");
    let report = s.on_lock().expect("lock succeeds");
    assert_eq!(
        report.batch_pages as usize, BATCH_PAGES,
        "whole set batched"
    );
    report.duration_ns
}

/// CPUs actually available to the worker pool. The host sweep clamps its
/// thread count to this, so `host_speedup` only ever compares runs whose
/// threads could truly execute concurrently; the emitted JSON records
/// the core count so readers (and CI) can interpret a saturated curve.
/// The simulated sweep is unaffected: it models the device's core count,
/// not the build machine's.
fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn json_escape_free(points: &[Point]) -> String {
    // Hand-rolled JSON: fixed schema, numbers and mode names only — no
    // serde needed.
    let entries: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\"mode\": \"{}\", \"workers\": {}, \"workers_used\": {}, \
                 \"host_wall_ns\": {}, \"host_mib_s\": {:.1}, \"host_speedup\": {:.2}, \
                 \"sim_lock_ns\": {}, \"sim_speedup\": {:.2}}}",
                p.mode.name(),
                p.workers,
                p.workers_used,
                p.host_wall_ns,
                p.host_mib_s,
                p.host_speedup,
                p.sim_lock_ns,
                p.sim_speedup
            )
        })
        .collect();
    format!(
        "{{\n  \"experiment\": \"lock_scaling\",\n  \"batch_pages\": {BATCH_PAGES},\n  \
         \"page_bytes\": {PAGE},\n  \"reps\": {REPS},\n  \"host_cores\": {},\n  \
         \"sweep\": [\n{}\n  ]\n}}\n",
        host_cores(),
        entries.join(",\n")
    )
}

fn main() {
    let cipher = PageCipher::new(&[0x6Bu8; 32]).expect("valid key length");
    let batch_bytes = (BATCH_PAGES * PAGE) as f64;

    let mut points: Vec<Point> = Vec::with_capacity(3 * SWEEP.len());
    for mode in PageCipherMode::all() {
        for workers in SWEEP {
            let (host_wall_ns, workers_used) = host_point(&cipher, mode, workers);
            let sim_lock_ns = sim_point(mode, workers);
            points.push(Point {
                mode,
                workers,
                workers_used,
                host_wall_ns,
                host_mib_s: batch_bytes / (1 << 20) as f64 / (host_wall_ns as f64 * 1e-9),
                host_speedup: 0.0,
                sim_lock_ns,
                sim_speedup: 0.0,
            });
        }
    }
    // Speedups are relative to the same mode's single-worker point.
    for mode in PageCipherMode::all() {
        let (host_base, sim_base) = {
            let base = points
                .iter()
                .find(|p| p.mode == mode && p.workers == 1)
                .expect("sweep starts at one worker");
            (base.host_wall_ns as f64, base.sim_lock_ns as f64)
        };
        for p in points.iter_mut().filter(|p| p.mode == mode) {
            p.host_speedup = host_base / p.host_wall_ns as f64;
            p.sim_speedup = sim_base / p.sim_lock_ns as f64;
        }
    }

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.mode.name().to_string(),
                p.workers.to_string(),
                p.workers_used.to_string(),
                format!("{:.3}", p.host_wall_ns as f64 * 1e-6),
                format!("{:.1}", p.host_mib_s),
                format!("{:.2}x", p.host_speedup),
                format!("{:.3}", p.sim_lock_ns as f64 * 1e-6),
                format!("{:.2}x", p.sim_speedup),
            ]
        })
        .collect();
    let cores = host_cores();
    print_table(
        &format!("Lock scaling: 256-page batch vs mode and worker count ({cores} host core(s))"),
        &[
            "Mode",
            "Workers",
            "Lanes",
            "Host ms",
            "Host MiB/s",
            "Host speedup",
            "Sim lock ms",
            "Sim speedup",
        ],
        &rows,
    );

    if cores == 1 {
        println!(
            "\nnote: single host core — the host sweep runs every point on one lane \
             (host_speedup pinned at 1.0 by construction); sim_speedup models the device's cores"
        );
    }

    let json = json_escape_free(&points);
    std::fs::write("BENCH_lock_scaling.json", &json).expect("write BENCH_lock_scaling.json");
    println!("\nwrote BENCH_lock_scaling.json");
}
