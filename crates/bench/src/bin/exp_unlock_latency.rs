//! Unlock-latency sweep for the fault-cluster readahead engine and the
//! background decrypt sweeper.
//!
//! Two questions, both over a 256-page (1 MiB) sensitive working set on
//! the Tegra 3 model with 4 modelled lock lanes:
//!
//! * **Part A — time to fully decrypted.** After unlock, how long until
//!   the whole working set is plaintext again? Fault-driven paging
//!   (every page first-touched, one fault each) vs the background
//!   sweeper draining the residual encrypted set from the scheduler
//!   tick.
//! * **Part B — per-first-touch latency.** What does the app observe on
//!   each first touch as the readahead cluster size sweeps 1→16? A
//!   cluster of `c` turns `c` fault round-trips into one batched
//!   decrypt, so the *mean* first-touch cost drops even though the
//!   faulting touch itself gets slightly more expensive.
//!
//! Results print as tables and are written to
//! `BENCH_unlock_latency.json`. With `--enforce`, the run fails unless
//! the sweeper beats fault-driven full decryption by ≥3× and the mean
//! first-touch cost at cluster 8 beats cluster 1 by ≥2× — the headline
//! wins of the unlock-latency engine.

use sentry_bench::json::{rounded, write_bench, Json};
use sentry_bench::print_table;
use sentry_core::config::ReadaheadConfig;
use sentry_core::{Sentry, SentryConfig};
use sentry_kernel::Kernel;
use sentry_soc::Soc;

const SET_PAGES: usize = 256;
const PAGE: usize = 4096;
const WORKERS: usize = 4;
const CLUSTER_SWEEP: [usize; 5] = [1, 2, 4, 8, 16];
const SWEEP_BUDGET: usize = 32;

/// Part A result for one full-decryption strategy.
struct DrainPoint {
    label: &'static str,
    total_ns: u64,
    faults: u64,
    sweep_runs: u64,
}

/// Part B result for one cluster size.
struct TouchPoint {
    cluster: usize,
    faults: u64,
    mean_ns: f64,
    p99_ns: u64,
    max_ns: u64,
    speedup: f64,
}

fn unlocked_sentry(readahead: Option<ReadaheadConfig>) -> (Sentry, u32) {
    let mut config = SentryConfig::tegra3_locked_l2(2).with_parallel_workers(WORKERS);
    if let Some(ra) = readahead {
        config = config.with_readahead(ra);
    }
    let mut s = Sentry::new(Kernel::new(Soc::tegra3_small()), config).expect("sentry builds");
    let pid = s.kernel.spawn("app");
    s.mark_sensitive(pid).expect("pid exists");
    let data: Vec<u8> = (0..239u8).cycle().take(SET_PAGES * PAGE).collect();
    s.write(pid, 0, &data).expect("working set fits");
    s.on_lock().expect("lock succeeds");
    s.on_unlock().expect("unlock succeeds");
    s.reset_ondemand_stats();
    assert_eq!(s.residual_encrypted_pages(), SET_PAGES);
    (s, pid)
}

/// Part A: simulated time from unlock until zero residual encrypted
/// pages, fault-driven.
fn drain_by_faults() -> DrainPoint {
    let (mut s, pid) = unlocked_sentry(None);
    let t0 = s.kernel.soc.clock.now_ns();
    let all: Vec<u64> = (0..SET_PAGES as u64).collect();
    s.touch_pages(pid, &all).expect("touch succeeds");
    assert_eq!(s.residual_encrypted_pages(), 0);
    DrainPoint {
        label: "fault-driven",
        total_ns: s.kernel.soc.clock.now_ns() - t0,
        faults: s.stats.ondemand_faults,
        sweep_runs: 0,
    }
}

/// Part A: simulated time until zero residual, sweeper-driven from the
/// scheduler tick (the app never touches a page).
fn drain_by_sweeper() -> DrainPoint {
    let (mut s, _pid) = unlocked_sentry(Some(
        ReadaheadConfig::with_cluster(8).sweep_budget(SWEEP_BUDGET),
    ));
    let t0 = s.kernel.soc.clock.now_ns();
    while s.residual_encrypted_pages() > 0 {
        s.scheduler_tick().expect("tick succeeds");
    }
    DrainPoint {
        label: "sweeper",
        total_ns: s.kernel.soc.clock.now_ns() - t0,
        faults: s.stats.ondemand_faults,
        sweep_runs: s.stats.sweep_runs,
    }
}

/// Part B: first-touch every page in order under the given cluster size
/// and record what each touch cost the app in simulated time.
fn touch_sweep(cluster: usize) -> TouchPoint {
    let readahead = (cluster > 1).then(|| ReadaheadConfig::with_cluster(cluster).sweep_budget(0));
    let (mut s, pid) = unlocked_sentry(readahead);
    let mut costs: Vec<u64> = Vec::with_capacity(SET_PAGES);
    for vpn in 0..SET_PAGES as u64 {
        let t0 = s.kernel.soc.clock.now_ns();
        s.touch_pages(pid, &[vpn]).expect("touch succeeds");
        costs.push(s.kernel.soc.clock.now_ns() - t0);
    }
    assert_eq!(s.residual_encrypted_pages(), 0);
    let total: u64 = costs.iter().sum();
    costs.sort_unstable();
    TouchPoint {
        cluster,
        faults: s.stats.ondemand_faults,
        mean_ns: total as f64 / costs.len() as f64,
        p99_ns: costs[costs.len() * 99 / 100],
        max_ns: *costs.last().expect("non-empty"),
        speedup: 0.0,
    }
}

fn to_json(drains: &[DrainPoint], touches: &[TouchPoint], drain_speedup: f64) -> Json {
    let drains: Json = drains
        .iter()
        .map(|d| {
            Json::obj()
                .field("strategy", d.label)
                .field("total_ns", d.total_ns)
                .field("faults", d.faults)
                .field("sweep_runs", d.sweep_runs)
        })
        .collect();
    let touches: Json = touches
        .iter()
        .map(|t| {
            Json::obj()
                .field("cluster_pages", t.cluster)
                .field("faults", t.faults)
                .field("mean_touch_ns", rounded(t.mean_ns, 0))
                .field("p99_touch_ns", t.p99_ns)
                .field("max_touch_ns", t.max_ns)
                .field("mean_speedup", rounded(t.speedup, 2))
        })
        .collect();
    Json::obj()
        .field("experiment", "unlock_latency")
        .field("set_pages", SET_PAGES)
        .field("page_bytes", PAGE)
        .field("workers", WORKERS)
        .field("sweep_budget_pages", SWEEP_BUDGET)
        .field("time_to_decrypted", drains)
        .field("drain_speedup", rounded(drain_speedup, 2))
        .field("first_touch", touches)
}

fn main() {
    let enforce = std::env::args().any(|a| a == "--enforce");

    // Part A.
    let drains = [drain_by_faults(), drain_by_sweeper()];
    let drain_speedup = drains[0].total_ns as f64 / drains[1].total_ns as f64;
    let rows: Vec<Vec<String>> = drains
        .iter()
        .map(|d| {
            vec![
                d.label.to_string(),
                format!("{:.3}", d.total_ns as f64 * 1e-6),
                d.faults.to_string(),
                d.sweep_runs.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!("Time to fully decrypted: {SET_PAGES}-page set ({WORKERS} workers)"),
        &["Strategy", "Sim ms", "Faults", "Sweeps"],
        &rows,
    );
    println!("sweeper speedup over fault-driven: {drain_speedup:.2}x\n");

    // Part B.
    let mut touches: Vec<TouchPoint> = CLUSTER_SWEEP.iter().map(|&c| touch_sweep(c)).collect();
    let base_mean = touches[0].mean_ns;
    for t in &mut touches {
        t.speedup = base_mean / t.mean_ns;
    }
    let rows: Vec<Vec<String>> = touches
        .iter()
        .map(|t| {
            vec![
                t.cluster.to_string(),
                t.faults.to_string(),
                format!("{:.1}", t.mean_ns * 1e-3),
                format!("{:.1}", t.p99_ns as f64 * 1e-3),
                format!("{:.1}", t.max_ns as f64 * 1e-3),
                format!("{:.2}x", t.speedup),
            ]
        })
        .collect();
    print_table(
        &format!("First-touch latency vs readahead cluster ({SET_PAGES} pages)"),
        &[
            "Cluster",
            "Faults",
            "Mean us",
            "p99 us",
            "Max us",
            "Mean speedup",
        ],
        &rows,
    );

    write_bench(
        "BENCH_unlock_latency.json",
        &to_json(&drains, &touches, drain_speedup),
    );

    if enforce {
        let cluster8 = touches
            .iter()
            .find(|t| t.cluster == 8)
            .expect("cluster 8 is in the sweep");
        let mut failed = false;
        if drain_speedup < 3.0 {
            eprintln!(
                "FAIL: sweeper drains the set only {drain_speedup:.2}x faster than \
                 fault-driven paging (gate: >= 3x)"
            );
            failed = true;
        }
        if cluster8.speedup < 2.0 {
            eprintln!(
                "FAIL: cluster 8 mean first-touch speedup {:.2}x (gate: >= 2x)",
                cluster8.speedup
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!("enforce: all unlock-latency gates met");
    }
}
