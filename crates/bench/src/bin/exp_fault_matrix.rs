//! Exhaustive fault-injection matrix over the Sentry lifecycle.
//!
//! For each scenario (sequential locked-L2, locked-L2 on two modelled
//! lock lanes, the lanes under the XTS and CTR page ciphers with their
//! commit-CMAC journal tags, and the iRAM backend) this runs the
//! [`sentry_attacks::faultmatrix`] sweep: record
//! the reachable failpoint steps of a fixed lock/unlock/fault/sweep
//! schedule, then kill the machine at *every* step and check each cell
//! for cold-boot-visible secrets, torn PTEs, recovery errors, and
//! byte-for-byte convergence of the recovered-and-retried run with the
//! uninterrupted reference.
//!
//! Results print as tables (per-scenario summary plus a kill-site
//! histogram) and are written to `BENCH_fault_matrix.json`. With
//! `--enforce`, the run fails unless every cell of every matrix is
//! clean: zero leaks, zero torn PTEs, zero retry failures, zero
//! divergence — and at least one kill landed inside an open journal, so
//! the matrix demonstrably exercised recovery. A lane scenario must also
//! show a lock batch taking more than one lane in its clean run, or its
//! cells never reach the multi-lane arm.

use sentry_attacks::faultmatrix::{run_matrix, MatrixOutcome, Scenario};
use sentry_bench::json::{write_bench, Json};
use sentry_bench::print_table;

/// Scenario constructor paired with its fixed seed.
type SeededScenario = (fn(u64) -> Scenario, u64);

/// Fixed seeds: the matrix is a correctness sweep, not a sampling run —
/// every CI execution enumerates the identical cells.
const SCENARIOS: [SeededScenario; 5] = [
    (Scenario::tegra3, 0xC0FFEE),
    (Scenario::tegra3_parallel, 0xFA11),
    (Scenario::tegra3_xts, 0x1619),
    (Scenario::tegra3_ctr, 0x38A),
    (Scenario::iram, 0xB007),
];

fn to_json(matrices: &[MatrixOutcome]) -> Json {
    let rows: Json = matrices
        .iter()
        .map(|m| {
            let sites: Json = m
                .site_histogram()
                .iter()
                .map(|&(site, n)| Json::obj().field("site", site).field("kills", n))
                .collect();
            Json::obj()
                .field("scenario", m.scenario.as_str())
                .field("lock_lanes", m.lock_lanes)
                .field("cells", m.cells.len())
                .field("kills", m.kills())
                .field("recovered_journal_entries", m.recovered_entries())
                .field("torn_ptes", m.torn())
                .field("coldboot_leaks", m.leaks())
                .field("retry_failures", m.retry_failures())
                .field("diverged", m.diverged())
                .field("clean", m.clean())
                .field("kill_sites", sites)
        })
        .collect();
    Json::obj()
        .field("experiment", "fault_matrix")
        .field("matrices", rows)
}

fn main() {
    let enforce = std::env::args().any(|a| a == "--enforce");

    let matrices: Vec<MatrixOutcome> = SCENARIOS
        .iter()
        .map(|&(make, seed)| {
            let scn = make(seed);
            let matrix = run_matrix(&scn).expect("matrix sweep completes");
            println!(
                "{}: {} cells swept ({} kills fired)",
                matrix.scenario,
                matrix.cells.len(),
                matrix.kills()
            );
            matrix
        })
        .collect();

    let rows: Vec<Vec<String>> = matrices
        .iter()
        .map(|m| {
            vec![
                m.scenario.clone(),
                m.cells.len().to_string(),
                m.kills().to_string(),
                m.recovered_entries().to_string(),
                m.torn().to_string(),
                m.leaks().to_string(),
                m.retry_failures().to_string(),
                m.diverged().to_string(),
                if m.clean() { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    print_table(
        "Fault matrix: power cut at every reachable failpoint step",
        &[
            "Scenario",
            "Cells",
            "Kills",
            "Recovered",
            "Torn",
            "Leaks",
            "RetryErr",
            "Diverged",
            "Clean",
        ],
        &rows,
    );

    // Kill-site histogram (union over scenarios): shows the cuts landed
    // across the whole lifecycle, not clustered on one site.
    let mut hist: std::collections::BTreeMap<&'static str, usize> =
        std::collections::BTreeMap::new();
    for m in &matrices {
        for (site, n) in m.site_histogram() {
            *hist.entry(site).or_default() += n;
        }
    }
    let rows: Vec<Vec<String>> = hist
        .iter()
        .map(|(site, n)| vec![(*site).to_string(), n.to_string()])
        .collect();
    print_table(
        "Kill-site histogram (all scenarios)",
        &["Site", "Kills"],
        &rows,
    );

    write_bench("BENCH_fault_matrix.json", &to_json(&matrices));

    if enforce {
        let mut failed = false;
        for m in &matrices {
            if m.kills() != m.cells.len() {
                eprintln!(
                    "FAIL [{}]: only {} of {} armed cells fired",
                    m.scenario,
                    m.kills(),
                    m.cells.len()
                );
                failed = true;
            }
            if m.torn() > 0 {
                eprintln!("FAIL [{}]: {} torn PTEs observed", m.scenario, m.torn());
                failed = true;
            }
            if m.leaks() > 0 {
                eprintln!(
                    "FAIL [{}]: {} cold-boot needle hits while locked",
                    m.scenario,
                    m.leaks()
                );
                failed = true;
            }
            if m.retry_failures() > 0 {
                eprintln!(
                    "FAIL [{}]: {} cells failed to retry after recovery",
                    m.scenario,
                    m.retry_failures()
                );
                failed = true;
            }
            if m.diverged() > 0 {
                eprintln!(
                    "FAIL [{}]: {} cells diverged from the reference run",
                    m.scenario,
                    m.diverged()
                );
                failed = true;
            }
            if !m.reached() {
                eprintln!(
                    "FAIL [{}]: configures {} lock lanes, but no lock of the clean run \
                     used more than {}",
                    m.scenario, m.workers, m.lock_lanes
                );
                failed = true;
            }
            if m.recovered_entries() == 0 {
                eprintln!(
                    "FAIL [{}]: no kill landed inside an open journal — recovery untested",
                    m.scenario
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!("enforce: all fault-matrix gates met");
    }
}
