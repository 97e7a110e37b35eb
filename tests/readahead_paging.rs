//! Properties of the unlock-latency engine: fault-cluster readahead and
//! the background decrypt sweeper are *performance* features — which
//! pages they decrypt, in what groupings, and when the sweeper runs must
//! never show up in the bytes or the page-table state.

use proptest::collection::vec;
use proptest::prelude::*;
use sentry::core::config::ReadaheadConfig;
use sentry::core::{Sentry, SentryConfig};
use sentry::kernel::pagetable::Pte;
use sentry::kernel::Kernel;
use sentry::soc::Soc;

const PAGE: usize = 4096;

/// Deterministic per-page plaintext.
fn working_set(pages: usize, seed: u64) -> Vec<u8> {
    (0..pages * PAGE)
        .map(|i| {
            (seed as u8)
                .wrapping_mul(31)
                .wrapping_add((i * 7 + i / PAGE) as u8)
        })
        .collect()
}

/// One scripted step of the post-unlock access pattern.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// First-touch (or re-touch) of a page — may trigger a fault cluster.
    Touch(u64),
    /// A scheduler tick — drives the background sweeper when enabled.
    Tick,
}

/// Run the same locked→unlocked paging script on a Sentry with the given
/// readahead config and return everything observable: the decrypted data
/// as the app reads it, the DRAM image, and every PTE.
#[allow(clippy::type_complexity)]
fn run_script(
    pages: usize,
    seed: u64,
    ops: &[Op],
    readahead: Option<ReadaheadConfig>,
) -> (Vec<u8>, Vec<(u64, Vec<u8>)>, Vec<Pte>, u64) {
    let mut config = SentryConfig::tegra3_locked_l2(2);
    if let Some(ra) = readahead {
        config = config.with_readahead(ra);
    }
    let mut s = Sentry::new(Kernel::new(Soc::tegra3_small()), config).unwrap();
    let pid = s.kernel.spawn("app");
    s.mark_sensitive(pid).unwrap();
    let data = working_set(pages, seed);
    s.write(pid, 0, &data).unwrap();
    s.on_lock().unwrap();
    s.on_unlock().unwrap();

    for &op in ops {
        match op {
            Op::Touch(vpn) => s.touch_pages(pid, &[vpn % pages as u64]).unwrap(),
            Op::Tick => {
                s.scheduler_tick().unwrap();
            }
        }
    }
    // Drain whatever is left so both runs end fully decrypted.
    let remaining: Vec<u64> = (0..pages as u64).collect();
    s.touch_pages(pid, &remaining).unwrap();
    assert_eq!(s.residual_encrypted_pages(), 0);
    assert_eq!(
        s.pager.resident_count(),
        0,
        "unlock paging must not use on-SoC slots"
    );

    let mut back = vec![0u8; data.len()];
    s.read(pid, 0, &mut back).unwrap();
    assert_eq!(back, data, "plaintext corrupted by paging");

    s.kernel.soc.cache_maintenance_flush();
    let dram: Vec<(u64, Vec<u8>)> = s
        .kernel
        .soc
        .dram
        .iter_frames()
        .map(|(addr, frame)| (addr, frame.to_vec()))
        .collect();
    let ptes: Vec<Pte> = (0..pages as u64)
        .map(|vpn| *s.kernel.proc(pid).unwrap().page_table.get(vpn).unwrap())
        .collect();
    let decrypted_bytes = s.stats.ondemand_bytes + s.stats.sweep_pages * PAGE as u64;
    (back, dram, ptes, decrypted_bytes)
}

fn ops_from(raw: &[(u8, u8)]) -> Vec<Op> {
    raw.iter()
        .map(|&(kind, vpn)| {
            if kind % 3 == 0 {
                Op::Tick
            } else {
                Op::Touch(u64::from(vpn))
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// Readahead + sweeper paging ends in exactly the state pure
    /// single-page fault-driven paging ends in — same plaintext, same
    /// DRAM frames, same PTE backing/crypt_version/young/encrypted bits —
    /// for every cluster size, sweep budget, and interleaving of faults
    /// with sweeper ticks.
    #[test]
    fn readahead_paging_is_byte_identical_to_fault_driven_paging(
        pages in 4usize..28,
        cluster in 1usize..17,
        budget in 0usize..9,
        seed in any::<u64>(),
        raw_ops in vec((any::<u8>(), any::<u8>()), 0..24),
    ) {
        let ops = ops_from(&raw_ops);
        let reference = run_script(pages, seed, &ops, None);
        let engine = run_script(
            pages,
            seed,
            &ops,
            Some(ReadaheadConfig::with_cluster(cluster).sweep_budget(budget)),
        );
        prop_assert_eq!(&engine.0, &reference.0, "plaintext diverged");
        prop_assert_eq!(&engine.1, &reference.1, "DRAM image diverged");
        prop_assert_eq!(&engine.2, &reference.2, "PTE state diverged");
        // Coherence: every page is decrypted exactly once, whether by a
        // fault cluster, the sweeper, or a plain fault — never twice.
        prop_assert_eq!(engine.3, (pages * PAGE) as u64, "a frame was double-decrypted");
        prop_assert_eq!(reference.3, (pages * PAGE) as u64);
    }

    /// `cluster_pages = 1` with the sweeper off degenerates to the exact
    /// pre-readahead fault path.
    #[test]
    fn cluster_of_one_is_the_degenerate_single_page_path(
        pages in 2usize..16,
        seed in any::<u64>(),
    ) {
        let ops: Vec<Op> = (0..pages as u64).rev().map(Op::Touch).collect();
        let reference = run_script(pages, seed, &ops, None);
        let degenerate = run_script(
            pages,
            seed,
            &ops,
            Some(ReadaheadConfig::with_cluster(1).sweep_budget(0)),
        );
        prop_assert_eq!(&degenerate.1, &reference.1);
        prop_assert_eq!(&degenerate.2, &reference.2);
    }
}
