//! Relock cost: a lock encrypts only what was written since the last
//! unlock.
//!
//! The four `app_catalog` apps are populated at 1/256 scale (each
//! megabyte becomes one 4 KiB page, as in sentrybench's `lock_resume`),
//! then locked, unlocked and drained twice. The first cycle's pages were
//! written before their lock, so they decrypt in place and the second
//! lock encrypts them all again; that lock leaves them clean, so the
//! second drain keeps their ciphertext. Then 0%, 25% or 100% of each
//! app's non-DMA pages are rewritten and the device locks again. Clean
//! pages go back to the ciphertext they kept since their decrypt; DMA
//! pages (written by devices, which never set the dirty bit) and
//! rewritten pages are encrypted.
//!
//! Each row reports the first-lock and relock sim time, the pages the
//! relock encrypted and reused, and the DRAM the kept ciphertext frames
//! cost while unlocked, taken after the second drain: frames are kept
//! only by decrypts, so that is the peak. Results are written to
//! `BENCH_relock.json`. With `--enforce`, the run fails unless
//!
//! * the relock encrypts exactly the DMA pages plus the rewritten ones;
//! * relock time ≤ first-lock time × encrypted / resident + 5% of the
//!   first-lock time;
//! * a 100%-rewrite relock is within 2% of the first lock;
//! * a DRAM scan right after every lock finds no plaintext page image.

use sentry_attacks::coldboot;
use sentry_bench::json::{write_bench, Json};
use sentry_bench::print_table;
use sentry_core::config::ReadaheadConfig;
use sentry_core::{PageCipherMode, Sentry, SentryConfig};
use sentry_kernel::{Kernel, Pid};
use sentry_soc::addr::PAGE_SIZE;
use sentry_soc::Soc;
use sentry_workloads::apps::app_catalog;

/// How many times smaller than the paper's apps the experiment's are.
const SCALE: u64 = 256;
/// Rewritten share of each app's non-DMA pages, in percent.
const REWRITE_PCT: [u64; 3] = [0, 25, 100];
/// Stamped into every page image, so a DRAM scan finds any plaintext.
const NEEDLE: &[u8; 16] = b"RELOCK-PLAINTEXT";
/// Slack of the proportional relock gate, in percent of the first lock.
const SLACK_PCT: u64 = 5;
/// Largest gap between a full-rewrite relock and the first lock, in
/// percent.
const FULL_REWRITE_PCT: u64 = 2;
/// Scheduler ticks allowed to drain one unlock.
const MAX_DRAIN_TICKS: usize = 10_000;

/// One app on the device: its pid, page count and leading DMA pages.
struct App {
    pid: Pid,
    pages: u64,
    dma: u64,
}

/// One row of the experiment.
struct Row {
    rewrite_pct: u64,
    resident: u64,
    dma: u64,
    rewritten: u64,
    first_ns: u64,
    relock_ns: u64,
    encrypted: u64,
    reused: u64,
    kept_kib: u64,
    plaintext_hits: usize,
}

/// A page image: a `version`-dependent fill with the needle at the head
/// and the middle.
fn page_image(app: usize, vpn: u64, version: u8) -> Vec<u8> {
    let fill = (app as u8)
        .wrapping_mul(61)
        .wrapping_add((vpn as u8).wrapping_mul(7))
        ^ version;
    let mut page = vec![fill; PAGE_SIZE as usize];
    page[..NEEDLE.len()].copy_from_slice(NEEDLE);
    page[2048..2048 + NEEDLE.len()].copy_from_slice(NEEDLE);
    page
}

/// Needle hits in a coherent DRAM dump.
fn scan(s: &mut Sentry) -> usize {
    s.kernel.soc.cache_maintenance_flush();
    coldboot::search(&coldboot::dump_dram(&mut s.kernel.soc), NEEDLE).len()
}

/// Unlock, then tick the sweeper until every page is decrypted.
fn unlock_and_drain(s: &mut Sentry) {
    s.on_unlock().expect("unlock");
    for _ in 0..MAX_DRAIN_TICKS {
        if s.scheduler_tick().expect("sweep").residual_pages == 0 {
            break;
        }
    }
    assert_eq!(s.residual_encrypted_pages(), 0, "unlock did not drain");
}

fn run(rewrite_pct: u64) -> Row {
    let config = SentryConfig::tegra3_locked_l2(2)
        .with_cipher_mode(PageCipherMode::Xts)
        .with_readahead(ReadaheadConfig::with_cluster(8).sweep_budget(32))
        .with_parallel_workers(1);
    let mut s = Sentry::new(Kernel::new(Soc::tegra3_small()), config).expect("sentry builds");
    let pages = |bytes: u64| bytes / SCALE / PAGE_SIZE;
    let mut apps = Vec::new();
    for (i, spec) in app_catalog().iter().enumerate() {
        let pid = s.kernel.spawn(spec.name);
        s.mark_sensitive(pid).expect("pid exists");
        let app = App {
            pid,
            pages: pages(spec.resident_bytes),
            dma: pages(spec.dma_bytes),
        };
        for vpn in 0..app.pages {
            s.write(pid, vpn * PAGE_SIZE, &page_image(i, vpn, 0))
                .expect("page fits");
        }
        let table = &mut s.kernel.proc_mut(pid).expect("pid exists").page_table;
        for vpn in 0..app.dma {
            table.get_mut(vpn).expect("DMA page mapped").dma_region = true;
        }
        apps.push(app);
    }

    let first = s.on_lock().expect("first lock");
    let mut plaintext_hits = scan(&mut s);
    unlock_and_drain(&mut s);
    s.on_lock().expect("second lock");
    plaintext_hits += scan(&mut s);
    unlock_and_drain(&mut s);

    let mut rewritten = 0;
    for (i, app) in apps.iter().enumerate() {
        let n = (app.pages - app.dma) * rewrite_pct / 100;
        for vpn in app.dma..app.dma + n {
            s.write(app.pid, vpn * PAGE_SIZE, &page_image(i, vpn, 1))
                .expect("rewrite");
        }
        rewritten += n;
    }
    let kept: u64 = apps
        .iter()
        .map(|app| {
            s.kernel.procs[&app.pid]
                .page_table
                .iter()
                .filter(|(_, pte)| pte.home_frame.is_some())
                .count() as u64
        })
        .sum();

    let relock = s.on_lock().expect("relock");
    plaintext_hits += scan(&mut s);
    Row {
        rewrite_pct,
        resident: apps.iter().map(|a| a.pages).sum(),
        dma: apps.iter().map(|a| a.dma).sum(),
        rewritten,
        first_ns: first.duration_ns,
        relock_ns: relock.duration_ns,
        encrypted: relock.bytes_encrypted / PAGE_SIZE,
        reused: relock.reused_pages,
        kept_kib: kept * PAGE_SIZE / 1024,
        plaintext_hits,
    }
}

fn to_json(rows: &[Row]) -> Json {
    let rows: Json = rows
        .iter()
        .map(|r| {
            Json::obj()
                .field("rewrite_pct", r.rewrite_pct)
                .field("resident_pages", r.resident)
                .field("dma_pages", r.dma)
                .field("rewritten_pages", r.rewritten)
                .field("first_lock_ns", r.first_ns)
                .field("relock_ns", r.relock_ns)
                .field("encrypted_pages", r.encrypted)
                .field("reused_pages", r.reused)
                .field("kept_kib", r.kept_kib)
                .field("plaintext_hits", r.plaintext_hits)
        })
        .collect();
    Json::obj()
        .field("experiment", "relock")
        .field("scale", SCALE)
        .field("slack_pct", SLACK_PCT)
        .field("full_rewrite_pct", FULL_REWRITE_PCT)
        .field("rows", rows)
}

/// Every gate a row misses, as messages.
fn failures(r: &Row) -> Vec<String> {
    let mut failed = Vec::new();
    if r.encrypted != r.dma + r.rewritten {
        failed.push(format!(
            "{}% rewrite: relock encrypted {} pages, not {} DMA + {} rewritten",
            r.rewrite_pct, r.encrypted, r.dma, r.rewritten
        ));
    }
    let bound = r.first_ns * r.encrypted / r.resident + r.first_ns * SLACK_PCT / 100;
    if r.relock_ns > bound {
        failed.push(format!(
            "{}% rewrite: relock {} ns over its proportional bound {} ns",
            r.rewrite_pct, r.relock_ns, bound
        ));
    }
    if r.rewrite_pct == 100
        && r.relock_ns.abs_diff(r.first_ns) * 100 > r.first_ns * FULL_REWRITE_PCT
    {
        failed.push(format!(
            "full rewrite: relock {} ns is not within {FULL_REWRITE_PCT}% of the first lock {} ns",
            r.relock_ns, r.first_ns
        ));
    }
    if r.plaintext_hits > 0 {
        failed.push(format!(
            "{}% rewrite: {} plaintext needles in DRAM after a lock",
            r.rewrite_pct, r.plaintext_hits
        ));
    }
    failed
}

fn main() {
    let enforce = std::env::args().any(|a| a == "--enforce");
    let rows: Vec<Row> = REWRITE_PCT.iter().map(|&pct| run(pct)).collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}%", r.rewrite_pct),
                format!("{:.3}", r.first_ns as f64 * 1e-6),
                format!("{:.3}", r.relock_ns as f64 * 1e-6),
                format!("{}/{}", r.encrypted, r.resident),
                r.reused.to_string(),
                r.kept_kib.to_string(),
                r.plaintext_hits.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!("Relock after rewriting part of the four apps (1/{SCALE} scale)"),
        &[
            "Rewritten",
            "First lock ms",
            "Relock ms",
            "Encrypted",
            "Reused",
            "Kept KiB",
            "Plaintext hits",
        ],
        &table,
    );

    write_bench("BENCH_relock.json", &to_json(&rows));

    if enforce {
        let failed: Vec<String> = rows.iter().flat_map(failures).collect();
        for f in &failed {
            eprintln!("FAIL: {f}");
        }
        if !failed.is_empty() {
            std::process::exit(1);
        }
        println!(
            "enforce: every relock encrypts exactly DMA + rewritten pages within its \
             proportional bound, a full rewrite costs the first lock, no plaintext in DRAM"
        );
    }
}
