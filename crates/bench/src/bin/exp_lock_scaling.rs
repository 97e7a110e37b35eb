//! Lock-path scaling sweep over the modelled lock lanes.
//!
//! For each page cipher mode (CBC, XTS, CTR) and each worker count in
//! {1, 2, 4, 8} this runs a full `Sentry::on_lock` transition over a
//! 256-page (1 MiB) working set and reports its simulated latency. A
//! batch spread over `n` lanes is charged the serial AES cost divided by
//! `n`; the page copies to and from DRAM are not divided, so the speedup
//! flattens as the lanes grow. The worker count models the device's
//! cores: the host runs every batch on one thread, so the sweep has no
//! host-timing columns and its output is deterministic.
//!
//! Results print as a table and are written to `BENCH_lock_scaling.json`,
//! which CI regenerates and diffs against the committed file.

use sentry_bench::json::{rounded, write_bench, Json};
use sentry_bench::print_table;
use sentry_core::lifecycle::LockReport;
use sentry_core::{Sentry, SentryConfig};
use sentry_crypto::PageCipherMode;
use sentry_kernel::Kernel;
use sentry_soc::Soc;

const BATCH_PAGES: usize = 256;
const PAGE: usize = 4096;
const SWEEP: [usize; 4] = [1, 2, 4, 8];

struct Point {
    mode: PageCipherMode,
    workers: usize,
    workers_used: usize,
    sim_lock_ns: u64,
    sim_speedup: f64,
}

/// One `on_lock` over the working set under `workers` modelled lanes.
fn sim_point(mode: PageCipherMode, workers: usize) -> LockReport {
    let mut s = Sentry::new(
        Kernel::new(Soc::tegra3_small()),
        SentryConfig::tegra3_locked_l2(2)
            .with_cipher_mode(mode)
            .with_parallel_workers(workers),
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
    report
}

fn to_json(points: &[Point]) -> Json {
    let sweep: Json = points
        .iter()
        .map(|p| {
            Json::obj()
                .field("mode", p.mode.name())
                .field("workers", p.workers)
                .field("workers_used", p.workers_used)
                .field("sim_lock_ns", p.sim_lock_ns)
                .field("sim_speedup", rounded(p.sim_speedup, 2))
        })
        .collect();
    Json::obj()
        .field("experiment", "lock_scaling")
        .field("batch_pages", BATCH_PAGES)
        .field("page_bytes", PAGE)
        .field("sweep", sweep)
}

fn main() {
    let mut points: Vec<Point> = Vec::with_capacity(3 * SWEEP.len());
    for mode in PageCipherMode::all() {
        let mut base_ns = 0;
        for workers in SWEEP {
            let report = sim_point(mode, workers);
            if workers == 1 {
                base_ns = report.duration_ns;
            }
            points.push(Point {
                mode,
                workers,
                workers_used: report.workers_used,
                sim_lock_ns: report.duration_ns,
                // Relative to the same mode's single-worker point.
                sim_speedup: base_ns as f64 / report.duration_ns as f64,
            });
        }
    }

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.mode.name().to_string(),
                p.workers.to_string(),
                p.workers_used.to_string(),
                format!("{:.3}", p.sim_lock_ns as f64 * 1e-6),
                format!("{:.2}x", p.sim_speedup),
            ]
        })
        .collect();
    print_table(
        "Lock scaling: 256-page batch vs mode and modelled lanes (simulated time)",
        &["Mode", "Workers", "Lanes", "Sim lock ms", "Sim speedup"],
        &rows,
    );

    write_bench("BENCH_lock_scaling.json", &to_json(&points));
}
