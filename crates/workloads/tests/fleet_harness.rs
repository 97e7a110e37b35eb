//! Fleet-harness correctness: the N=1 fleet is byte- and
//! stats-identical to driving the same device directly with the same
//! event sequence, the report's partitioned makespan is the busiest
//! `i % p` group of standalone device runs, no device reuses a page IV
//! (also when one on-SoC slot makes locked writes evict rewritten
//! pages), and the unlock percentiles are exact nearest-rank order
//! statistics of the recorded samples.

use proptest::prelude::*;
use sentry_core::transition::nonce_audit::audited;
use sentry_workloads::fleet::{
    event_stream, run_device, run_fleet, Device, FleetConfig, LatencySamples,
};

fn config(master_seed: u64, events: usize) -> FleetConfig {
    FleetConfig::new(1, 1)
        .with_master_seed(master_seed)
        .with_events_per_device(events)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// An N=1 fleet run equals driving the same `Sentry` directly: the
    /// event stream is regenerated from `(master_seed, 0)`, applied
    /// event by event to a hand-built `Device`, and every deterministic
    /// field of the outcome — including the end-state digest over the
    /// device's plaintext pages — must match the fleet's merged report.
    #[test]
    fn n1_fleet_is_identical_to_direct_drive(
        master_seed in any::<u64>(),
        events in 4usize..24,
    ) {
        let cfg = config(master_seed, events);

        // The fleet run.
        let fleet = run_fleet(&cfg);
        prop_assert_eq!(fleet.devices, 1);
        prop_assert_eq!(fleet.device_errors, 0);

        // The same Sentry, driven directly.
        let stream = event_stream(&cfg, 0);
        prop_assert_eq!(stream.len(), events);
        let mut device = Device::build(&cfg, 0).expect("device build");
        for event in &stream {
            device.apply(event).expect("event apply");
        }
        let direct = device.finish().expect("device finish");

        // Stats-identical.
        prop_assert_eq!(fleet.events, direct.events);
        prop_assert_eq!(fleet.locks, direct.locks);
        prop_assert_eq!(fleet.unlocks, direct.unlocks);
        prop_assert_eq!(&fleet.unlock_latencies, &direct.unlock_latencies);
        prop_assert_eq!(fleet.power_cuts_fired, direct.power_cuts_fired);
        prop_assert_eq!(fleet.recoveries, direct.recoveries);
        prop_assert_eq!(fleet.tampers_planted, direct.tampers_planted);
        prop_assert_eq!(fleet.tampers_detected, direct.tampers_detected);
        prop_assert_eq!(fleet.quarantined_pages, direct.quarantined_pages);
        prop_assert_eq!(fleet.silent_corruptions, 0);
        prop_assert_eq!(direct.silent_corruptions, 0);
        prop_assert_eq!(fleet.io_bytes, direct.io_bytes);
        prop_assert_eq!(fleet.accel_storms, direct.accel_storms);
        prop_assert_eq!(fleet.flaky_disk_intervals, direct.flaky_disk_intervals);
        prop_assert_eq!(&fleet.health, &direct.health);
        prop_assert_eq!(fleet.sim_busy_ns, direct.sim_ns);
        prop_assert_eq!(fleet.setup_sim_ns, direct.setup_sim_ns);

        // Byte-identical end state.
        prop_assert_eq!(&fleet.digests[..], &[(0u64, direct.digest)][..]);

        // And the standalone-replay entry point is the same function.
        let replay = run_device(&cfg, 0).expect("standalone replay");
        prop_assert_eq!(replay, direct);
    }

    /// The makespan over `p` partitions is the busiest group of devices
    /// `i` with `i % p` equal, each device's time taken from its own
    /// standalone run.
    #[test]
    fn makespan_matches_standalone_partitions(master_seed in any::<u64>()) {
        let cfg = FleetConfig::new(8, 3)
            .with_master_seed(master_seed)
            .with_events_per_device(10);
        let fleet = run_fleet(&cfg);
        let solo: Vec<u64> = (0..cfg.devices as u64)
            .map(|index| run_device(&cfg, index).expect("standalone replay").sim_ns)
            .collect();
        prop_assert_eq!(fleet.makespan_ns(1), fleet.sim_busy_ns);
        for partitions in 1..6 {
            let busiest = (0..partitions)
                .map(|p| {
                    let group = solo.iter().enumerate().filter(|(i, _)| i % partitions == p);
                    group.map(|(_, ns)| ns).sum::<u64>()
                })
                .max()
                .unwrap_or(0);
            prop_assert_eq!(fleet.makespan_ns(partitions), busiest);
        }
    }
}

/// The fleet at N=48 under the nonce audit: each device, a machine
/// with its own key, puts its page ciphertext in DRAM under IVs it
/// never reuses, through churn, background paging, power cuts, tampers
/// and pressure.
#[test]
fn fleet_devices_never_reuse_a_page_iv() {
    let cfg = FleetConfig::new(48, 1);
    audited("48-device fleet", || {
        for index in 0..48 {
            run_device(&cfg, index).expect("device runs");
        }
    });
}

/// The same audit over a fleet whose locked devices keep one on-SoC
/// slot, with the fleet's readahead settings: a background write then
/// evicts the page it rewrote, so one page is encrypted twice, with
/// different contents, inside one locked period. That is the case the
/// per-page IV version exists for; the default fleet's devices never
/// reach it. `FleetConfig::new`'s defaults stay as they are.
#[test]
fn one_slot_fleet_never_reuses_a_page_iv() {
    let mut cfg = FleetConfig::new(48, 1);
    cfg.sentry = cfg.sentry.with_slot_limit(1);
    audited("48-device one-slot fleet", || {
        for index in 0..48 {
            run_device(&cfg, index).expect("device runs");
        }
    });
}

fn samples(values: impl IntoIterator<Item = u64>) -> LatencySamples {
    let mut s = LatencySamples::default();
    for ns in values {
        s.record(ns);
    }
    s
}

/// Samples `1..=10`, and the same ranks 1000 ns higher, where a
/// 4-per-octave histogram would put all ten in one bucket: each
/// percentile is the rank-`⌈q·n⌉` sample, q = 0 gives the minimum and
/// q = 1 the maximum.
#[test]
fn percentiles_are_nearest_rank_order_statistics() {
    for base in [0u64, 1000] {
        let s = samples((1..=10).map(|i| base + i));
        assert_eq!(s.count(), 10);
        assert_eq!(s.percentile(0.0), base + 1, "rank clamps to the minimum");
        assert_eq!(s.percentile(0.10), base + 1);
        assert_eq!(s.percentile(0.11), base + 2);
        assert_eq!(s.percentile(0.50), base + 5);
        assert_eq!(s.percentile(0.90), base + 9);
        assert_eq!(s.percentile(0.95), base + 10);
        assert_eq!(s.percentile(1.0), base + 10);
    }
}

/// No samples report zeros; one sample is every percentile; a second,
/// larger sample leaves the median at the first.
#[test]
fn no_one_and_two_samples() {
    let mut s = LatencySamples::default();
    for q in [0.0, 0.5, 0.99, 1.0] {
        assert_eq!(s.percentile(q), 0);
    }
    assert_eq!((s.count(), s.max()), (0, 0));
    assert_eq!(s.mean(), 0.0);

    s.record(1000);
    for q in [0.0, 0.5, 0.99, 1.0] {
        assert_eq!(s.percentile(q), 1000);
    }
    s.record(1010);
    assert_eq!(s.percentile(0.5), 1000);
    assert_eq!(s.percentile(0.51), 1010);
    assert_eq!(s.max(), 1010);
}

/// Samples recorded out of order: q = 0 is the smallest, q = 1 the
/// largest, and the ranks between follow the sorted order.
#[test]
fn q_zero_is_the_minimum_and_q_one_the_maximum() {
    let s = samples([5000, 3000, 70_000, 4200]);
    assert_eq!(s.percentile(0.0), 3000);
    assert_eq!(s.percentile(0.25), 3000);
    assert_eq!(s.percentile(0.5), 4200);
    assert_eq!(s.percentile(0.75), 5000);
    assert_eq!(s.percentile(1.0), 70_000);
}

/// A tail that is not the maximum: `1..=100` plus one outlier of
/// 10,000 has p99 = 100, below the max.
#[test]
fn p99_lies_below_an_outlier_maximum() {
    let s = samples((1..=100).chain([10_000]));
    assert_eq!(s.percentile(0.50), 51);
    assert_eq!(s.percentile(0.99), 100);
    assert_eq!(s.percentile(1.0), 10_000);
    assert_eq!(s.max(), 10_000);
}

/// Merging two sets equals recording every sample into one: same
/// count, mean, max and every rank.
#[test]
fn merge_equals_recording_into_one() {
    let values = [3u64, 17, 900, 44_000, 1 << 21, u64::MAX];
    let mut a = LatencySamples::default();
    let mut b = LatencySamples::default();
    for (i, &ns) in values.iter().enumerate() {
        if i % 2 == 0 {
            a.record(ns);
        } else {
            b.record(ns);
        }
    }
    let whole = samples(values);
    a.merge(&b);
    assert_eq!(a.count(), whole.count());
    assert_eq!(a.mean(), whole.mean());
    assert_eq!(a.max(), whole.max());
    for rank in 0..=values.len() {
        let q = rank as f64 / values.len() as f64;
        assert_eq!(a.percentile(q), whole.percentile(q), "q = {q}");
    }
}
