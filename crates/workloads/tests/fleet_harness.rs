//! Fleet-harness correctness: the N=1 fleet is byte- and
//! stats-identical to driving the same device directly with the same
//! event sequence, the report's partitioned makespan is the busiest
//! `i % p` group of standalone device runs, no device reuses a page IV
//! (also when one on-SoC slot makes locked writes evict rewritten
//! pages), and the streaming histogram's percentile math is exact at
//! bucket edges.

use proptest::prelude::*;
use sentry_core::transition::nonce_audit::audited;
use sentry_workloads::fleet::{
    event_stream, run_device, run_fleet, Device, FleetConfig, LatencyHistogram, HISTOGRAM_BUCKETS,
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
        prop_assert_eq!(&fleet.unlock_hist, &direct.unlock_hist);
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

    /// Bucket round trip: every value maps to a bucket whose bounds
    /// contain it, and bucket bounds tile the axis without gaps.
    #[test]
    fn histogram_buckets_contain_their_values(ns in any::<u64>()) {
        let i = LatencyHistogram::bucket_index(ns);
        prop_assert!(i < HISTOGRAM_BUCKETS);
        prop_assert!(LatencyHistogram::bucket_lower(i) <= ns);
        prop_assert!(ns <= LatencyHistogram::bucket_upper(i));
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

#[test]
fn bucket_edges_are_exact() {
    // Values below 16 get exact single-value buckets.
    for ns in 0u64..16 {
        let i = LatencyHistogram::bucket_index(ns);
        assert_eq!(LatencyHistogram::bucket_lower(i), ns);
        assert_eq!(LatencyHistogram::bucket_upper(i), ns);
    }
    // The first ranged bucket starts exactly at 16 with width 4.
    let i16 = LatencyHistogram::bucket_index(16);
    assert_eq!(LatencyHistogram::bucket_lower(i16), 16);
    assert_eq!(LatencyHistogram::bucket_upper(i16), 19);
    assert_eq!(LatencyHistogram::bucket_index(19), i16);
    assert_ne!(LatencyHistogram::bucket_index(20), i16);
    // Power-of-two edges open a fresh octave; the value just below
    // belongs to the previous one.
    for o in 5..63u32 {
        let edge = 1u64 << o;
        let below = LatencyHistogram::bucket_index(edge - 1);
        let at = LatencyHistogram::bucket_index(edge);
        assert_eq!(at, below + 1, "octave edge 2^{o}");
        assert_eq!(LatencyHistogram::bucket_lower(at), edge);
        assert_eq!(LatencyHistogram::bucket_upper(below), edge - 1);
    }
    // Buckets tile: each upper bound is the next lower bound minus 1.
    for i in 0..HISTOGRAM_BUCKETS - 1 {
        assert_eq!(
            LatencyHistogram::bucket_upper(i) + 1,
            LatencyHistogram::bucket_lower(i + 1),
            "gap after bucket {i}"
        );
    }
    assert_eq!(
        LatencyHistogram::bucket_upper(HISTOGRAM_BUCKETS - 1),
        u64::MAX
    );
}

#[test]
fn percentiles_at_bucket_edges() {
    // Ten exact-bucket samples: percentiles are exact order statistics.
    let mut h = LatencyHistogram::new();
    for ns in 1..=10u64 {
        h.record(ns);
    }
    assert_eq!(h.count(), 10);
    assert_eq!(h.percentile(0.0), 1); // rank clamps to the minimum
    assert_eq!(h.percentile(0.10), 1);
    assert_eq!(h.percentile(0.50), 5);
    assert_eq!(h.percentile(0.90), 9);
    assert_eq!(h.percentile(1.0), 10);

    // A sample on a ranged-bucket edge reports within its bucket and
    // never past the observed max.
    let mut h = LatencyHistogram::new();
    h.record(16);
    assert_eq!(h.percentile(0.5), 16);
    h.record(19);
    // Both land in [16, 19]; the upper bound is the observed max.
    assert_eq!(h.percentile(1.0), 19);
    assert_eq!(h.percentile(0.25), 19); // same bucket, clamped to bounds

    // An empty histogram reports zeros.
    let h = LatencyHistogram::new();
    assert_eq!(h.percentile(0.99), 0);
    assert_eq!(h.count(), 0);
    assert_eq!(h.max(), 0);
}

#[test]
fn merge_equals_recording_into_one() {
    let mut a = LatencyHistogram::new();
    let mut b = LatencyHistogram::new();
    let mut whole = LatencyHistogram::new();
    for (i, ns) in [3u64, 17, 900, 44_000, 1 << 21, u64::MAX]
        .iter()
        .enumerate()
    {
        if i % 2 == 0 {
            a.record(*ns)
        } else {
            b.record(*ns)
        }
        whole.record(*ns);
    }
    a.merge(&b);
    assert_eq!(a, whole);
    for q in [0.01, 0.25, 0.5, 0.75, 0.99] {
        assert_eq!(a.percentile(q), whole.percentile(q));
    }
}
