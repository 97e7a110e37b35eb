//! The health governor: watchdog deadlines, bounded retry accounting,
//! and a circuit breaker with degraded modes for flaky hardware.
//!
//! The paper assumes the crypto accelerator and storage either work or
//! the device dies. Production hardware *misbehaves* instead: DMA
//! descriptors wedge and never complete, engines return corrupt output
//! or run 10× slow after a thermal throttle, and eMMC reads fail or
//! stall transiently. The governor makes surviving that a first-class
//! mode, built on the observation (Sealer's argument) that the on-SoC
//! table-free bitsliced AES path is *always* available as a trustworthy
//! software fallback — degraded means slower, never less safe.
//!
//! Per governed component the state machine is:
//!
//! ```text
//!            failure                 K failures in window
//! Healthy ───────────▶ Degraded ──────────────────────────▶ Open
//!    ▲                    │  ▲                                │
//!    │   window drains    │  │ probe fails (re-trip)          │ probe
//!    │◀───────────────────┘  │                                │ interval
//!    │                       │                                ▼
//!    └──────────────────────────────────────────────────── HalfOpen
//!                     probe budget met
//! ```
//!
//! * **Healthy** — dispatch to the accelerator, every wait guarded by a
//!   watchdog deadline of `op_duration_ns ×` [`WATCHDOG_MARGIN_PCT`]` %`
//!   (clamped to `WATCHDOG_FLOOR_NS`).
//! * **Degraded** — recent failures below the trip threshold; dispatch
//!   continues but the window is hot and telemetry accumulates
//!   time-in-degraded.
//! * **Open** — the breaker tripped: [`TRIP_FAILURES`] failures inside
//!   the `FAILURE_WINDOW_NS` window. All dispatch is routed straight
//!   to the CPU path without touching the engine, until
//!   [`PROBE_AFTER_NS`] elapses.
//! * **HalfOpen** — probing: real work is dispatched to the engine
//!   again; [`PROBE_SUCCESSES`] consecutive successes close the breaker,
//!   any failure re-trips it.
//!
//! The governor is a pure, deterministic state machine over simulated
//! timestamps — no wall clock, no randomness — so every degraded-mode
//! schedule replays exactly from a seed. Its thresholds are constants,
//! not tuning: because the CPU fallback is always available, one fixed
//! policy serves every caller, and the governor is always on.

/// Unified bounded-retry accounting, shared by the integrity plane's
/// verify re-reads, the lifecycle's crypt retries, and the dm-crypt
/// storage retries (previously three ad-hoc counter shapes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Retry attempts performed beyond each operation's first try.
    pub attempts: u64,
    /// Operations that succeeded after at least one retry.
    pub recovered: u64,
    /// Operations that still failed once the retry budget was spent.
    pub exhausted: u64,
}

impl RetryStats {
    /// Fold another accumulator into this one.
    pub(crate) fn merge(&mut self, other: &RetryStats) {
        self.attempts += other.attempts;
        self.recovered += other.recovered;
        self.exhausted += other.exhausted;
    }
}

/// Watchdog deadline as a percentage of the submitted op's modeled
/// duration (300 = 3× the expected completion time).
pub const WATCHDOG_MARGIN_PCT: u64 = 300;

/// Watchdog deadline floor in nanoseconds, so tiny ops are not
/// abandoned on scheduler noise.
pub(crate) const WATCHDOG_FLOOR_NS: u64 = 20_000;

/// Failures within `FAILURE_WINDOW_NS` that trip the breaker (the K
/// in "K failures in a window").
pub const TRIP_FAILURES: u32 = 3;

/// Sliding failure window, nanoseconds of simulated time.
pub(crate) const FAILURE_WINDOW_NS: u64 = 50_000_000;

/// How long the breaker stays Open before half-open probing.
pub const PROBE_AFTER_NS: u64 = 5_000_000;

/// Consecutive half-open probe successes required to close the breaker
/// back to Healthy.
pub const PROBE_SUCCESSES: u32 = 2;

/// Retry budget for transient storage-read failures (retries beyond the
/// first attempt).
pub const MAX_DISK_RETRIES: u32 = 3;

/// Base backoff before the first storage retry; doubles per retry
/// (deterministic sim-clock backoff, no jitter needed — the sim is
/// single-threaded per device).
pub(crate) const DISK_BACKOFF_BASE_NS: u64 = 20_000;

/// The per-component breaker state. See the module docs for the
/// transition diagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HealthState {
    /// No recent failures; full dispatch with watchdogs.
    #[default]
    Healthy,
    /// Recent failures below the trip threshold; dispatch continues.
    Degraded,
    /// Breaker tripped: all dispatch goes to the CPU fallback path.
    Open,
    /// Probing: dispatch allowed again, counting probe successes.
    HalfOpen,
}

/// What kind of failure a dispatch observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The watchdog deadline expired and the op was abandoned.
    Timeout,
    /// The op completed but its status word reported corrupt output.
    Corrupt,
    /// The engine reported a hardware fault at dispatch.
    Fault,
}

/// Cumulative degradation telemetry for one governed component.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthStats {
    /// Times the breaker tripped to Open (including half-open
    /// re-trips).
    pub trips: u64,
    /// Dispatches allowed while probing (HalfOpen), the breaker's
    /// recovery attempts.
    pub probes: u64,
    /// Watchdog deadlines that expired (ops abandoned).
    pub timeouts: u64,
    /// Ops retired with a corrupt-output status.
    pub corrupt_ops: u64,
    /// Bytes across all abandoned ops (each one's bounce window was
    /// zeroized before fallback dispatch).
    pub abandoned_bytes: u64,
    /// Bytes crypted on the CPU fallback path because the governor
    /// vetoed or abandoned the accelerator.
    pub fallback_crypt_bytes: u64,
    /// Times the breaker closed back to Healthy after a probe budget.
    pub recoveries: u64,
    /// Simulated time spent outside Healthy (Degraded + Open +
    /// HalfOpen).
    pub time_degraded_ns: u64,
    /// Bounded-retry accounting for transient storage-read failures.
    pub disk: RetryStats,
}

impl HealthStats {
    /// Fold another component's telemetry into this one (fleet
    /// aggregation).
    pub fn merge(&mut self, other: &HealthStats) {
        self.trips += other.trips;
        self.probes += other.probes;
        self.timeouts += other.timeouts;
        self.corrupt_ops += other.corrupt_ops;
        self.abandoned_bytes += other.abandoned_bytes;
        self.fallback_crypt_bytes += other.fallback_crypt_bytes;
        self.recoveries += other.recoveries;
        self.time_degraded_ns += other.time_degraded_ns;
        self.disk.merge(&other.disk);
    }
}

/// The health governor for one component (one accelerator, one disk):
/// breaker state machine, watchdog derivation, retry budgets, and
/// telemetry. Deterministic over simulated timestamps.
#[derive(Debug, Clone, Default)]
pub struct HealthGovernor {
    state: HealthState,
    /// Timestamps of failures inside the sliding window, oldest first.
    failures: Vec<u64>,
    /// When the breaker last tripped to Open.
    opened_at_ns: u64,
    /// Consecutive successes while HalfOpen.
    probe_run: u32,
    /// When the component last left Healthy, if it has not returned.
    degraded_since_ns: Option<u64>,
    /// Cumulative telemetry.
    pub stats: HealthStats,
}

impl HealthGovernor {
    /// Current breaker state.
    #[must_use]
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// The watchdog deadline budget for an op whose modeled duration is
    /// `op_duration_ns`: `duration × WATCHDOG_MARGIN_PCT / 100`, clamped
    /// to `WATCHDOG_FLOOR_NS`.
    #[must_use]
    pub fn watchdog_ns(op_duration_ns: u64) -> u64 {
        (op_duration_ns.saturating_mul(WATCHDOG_MARGIN_PCT) / 100).max(WATCHDOG_FLOOR_NS)
    }

    /// Should this dispatch go to the accelerator? Consult *before*
    /// staging the bounce window. While Open this returns `false`
    /// (route straight to the CPU path) until the probe interval
    /// elapses, at which point the breaker goes HalfOpen and the
    /// dispatch itself is the probe.
    pub fn allow_accel(&mut self, now_ns: u64) -> bool {
        self.prune(now_ns);
        match self.state {
            HealthState::Healthy | HealthState::Degraded => true,
            HealthState::Open => {
                if now_ns.saturating_sub(self.opened_at_ns) >= PROBE_AFTER_NS {
                    self.state = HealthState::HalfOpen;
                    self.probe_run = 0;
                    self.stats.probes += 1;
                    true
                } else {
                    false
                }
            }
            HealthState::HalfOpen => {
                self.stats.probes += 1;
                true
            }
        }
    }

    /// Record a successful accelerator op. Closes the breaker after
    /// [`PROBE_SUCCESSES`] half-open probe successes in a row; drains the
    /// failure window back toward Healthy otherwise.
    pub fn record_success(&mut self, now_ns: u64) {
        match self.state {
            HealthState::HalfOpen => {
                self.probe_run += 1;
                if self.probe_run >= PROBE_SUCCESSES {
                    self.failures.clear();
                    self.stats.recoveries += 1;
                    self.enter_healthy(now_ns);
                }
            }
            HealthState::Degraded => {
                self.prune(now_ns);
                if self.failures.is_empty() {
                    self.enter_healthy(now_ns);
                }
            }
            HealthState::Healthy | HealthState::Open => {}
        }
    }

    /// Record a failed accelerator op (timeout, corrupt output, or a
    /// reported engine fault). Trips the breaker once the failure
    /// window holds [`TRIP_FAILURES`]; a half-open failure re-trips
    /// immediately.
    pub fn record_failure(&mut self, now_ns: u64, kind: FailureKind) {
        match kind {
            FailureKind::Timeout => self.stats.timeouts += 1,
            FailureKind::Corrupt => self.stats.corrupt_ops += 1,
            FailureKind::Fault => {}
        }
        self.leave_healthy(now_ns);
        match self.state {
            HealthState::HalfOpen => self.trip(now_ns),
            HealthState::Open => {}
            HealthState::Healthy | HealthState::Degraded => {
                self.prune(now_ns);
                self.failures.push(now_ns);
                if self.failures.len() >= TRIP_FAILURES as usize {
                    self.trip(now_ns);
                } else {
                    self.state = HealthState::Degraded;
                }
            }
        }
    }

    /// Account bytes whose abandoned op forced a bounce-window zeroize.
    pub fn note_abandoned(&mut self, bytes: u64) {
        self.stats.abandoned_bytes += bytes;
    }

    /// Account bytes crypted on the CPU fallback path under this
    /// governor's veto or abandonment.
    pub fn note_fallback_crypt(&mut self, bytes: u64) {
        self.stats.fallback_crypt_bytes += bytes;
    }

    /// Deterministic backoff before retry number `attempt` (1-based):
    /// `DISK_BACKOFF_BASE_NS × 2^(attempt-1)`, saturating.
    #[must_use]
    pub fn disk_backoff_ns(attempt: u32) -> u64 {
        DISK_BACKOFF_BASE_NS.saturating_mul(
            1u64.checked_shl(attempt.saturating_sub(1))
                .unwrap_or(u64::MAX),
        )
    }

    /// Fold any still-open degraded interval into
    /// [`HealthStats::time_degraded_ns`] as of `now_ns` (end-of-run
    /// reporting). The interval restarts from `now_ns` if the component
    /// is still degraded.
    pub fn finalize(&mut self, now_ns: u64) {
        if let Some(since) = self.degraded_since_ns {
            self.stats.time_degraded_ns += now_ns.saturating_sub(since);
            self.degraded_since_ns = Some(now_ns);
        }
    }

    fn trip(&mut self, now_ns: u64) {
        self.state = HealthState::Open;
        self.opened_at_ns = now_ns;
        self.probe_run = 0;
        self.stats.trips += 1;
    }

    fn prune(&mut self, now_ns: u64) {
        let horizon = now_ns.saturating_sub(FAILURE_WINDOW_NS);
        self.failures.retain(|&t| t >= horizon);
    }

    fn leave_healthy(&mut self, now_ns: u64) {
        if self.degraded_since_ns.is_none() {
            self.degraded_since_ns = Some(now_ns);
        }
    }

    fn enter_healthy(&mut self, now_ns: u64) {
        self.state = HealthState::Healthy;
        self.probe_run = 0;
        if let Some(since) = self.degraded_since_ns.take() {
            self.stats.time_degraded_ns += now_ns.saturating_sub(since);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn governor() -> HealthGovernor {
        HealthGovernor::default()
    }

    #[test]
    fn breaker_trips_after_k_failures_in_window() {
        let mut g = governor();
        assert_eq!(g.state(), HealthState::Healthy);
        g.record_failure(1_000, FailureKind::Timeout);
        assert_eq!(g.state(), HealthState::Degraded);
        g.record_failure(2_000, FailureKind::Timeout);
        assert_eq!(g.state(), HealthState::Degraded);
        g.record_failure(3_000, FailureKind::Timeout);
        assert_eq!(g.state(), HealthState::Open);
        assert_eq!(g.stats.trips, 1);
        assert_eq!(g.stats.timeouts, 3);
        assert!(!g.allow_accel(3_500), "open breaker vetoes dispatch");
    }

    #[test]
    fn failures_outside_the_window_do_not_trip() {
        let mut g = governor();
        g.record_failure(0, FailureKind::Fault);
        g.record_failure(2 * FAILURE_WINDOW_NS, FailureKind::Fault);
        g.record_failure(4 * FAILURE_WINDOW_NS, FailureKind::Fault);
        assert_eq!(g.state(), HealthState::Degraded, "window drained each time");
        assert_eq!(g.stats.trips, 0);
    }

    #[test]
    fn half_open_probe_budget_closes_the_breaker() {
        let mut g = governor();
        for t in 0..3 {
            g.record_failure(t * 1_000, FailureKind::Timeout);
        }
        assert_eq!(g.state(), HealthState::Open);
        let probe_at = 2_000 + PROBE_AFTER_NS;
        assert!(!g.allow_accel(probe_at - 1), "probe interval not elapsed");
        assert!(g.allow_accel(probe_at), "first probe allowed");
        assert_eq!(g.state(), HealthState::HalfOpen);
        g.record_success(probe_at + 100);
        assert_eq!(g.state(), HealthState::HalfOpen, "needs 2 successes");
        assert!(g.allow_accel(probe_at + 200));
        g.record_success(probe_at + 300);
        assert_eq!(g.state(), HealthState::Healthy);
        assert_eq!(g.stats.recoveries, 1);
        assert!(g.stats.probes >= 2);
        assert!(g.stats.time_degraded_ns >= PROBE_AFTER_NS);
    }

    #[test]
    fn half_open_failure_re_trips() {
        let mut g = governor();
        for t in 0..3 {
            g.record_failure(t, FailureKind::Corrupt);
        }
        let probe_at = 2 + PROBE_AFTER_NS;
        assert!(g.allow_accel(probe_at));
        g.record_failure(probe_at + 1, FailureKind::Corrupt);
        assert_eq!(g.state(), HealthState::Open);
        assert_eq!(g.stats.trips, 2, "half-open failure re-trips");
        assert!(!g.allow_accel(probe_at + 2));
    }

    #[test]
    fn watchdog_budget_scales_with_duration_and_has_a_floor() {
        assert_eq!(HealthGovernor::watchdog_ns(100_000), 300_000, "3x margin");
        assert_eq!(HealthGovernor::watchdog_ns(10), 20_000, "floor");
    }

    #[test]
    fn disk_backoff_doubles_deterministically() {
        assert_eq!(MAX_DISK_RETRIES, 3);
        assert_eq!(HealthGovernor::disk_backoff_ns(1), 20_000);
        assert_eq!(HealthGovernor::disk_backoff_ns(2), 40_000);
        assert_eq!(HealthGovernor::disk_backoff_ns(3), 80_000);
    }

    #[test]
    fn degraded_time_accumulates_until_recovery() {
        let mut g = governor();
        g.record_failure(1_000, FailureKind::Fault);
        assert_eq!(g.state(), HealthState::Degraded);
        // Window drains; the next success returns to Healthy.
        let after = 1_000 + FAILURE_WINDOW_NS + 1;
        g.record_success(after);
        assert_eq!(g.state(), HealthState::Healthy);
        assert_eq!(g.stats.time_degraded_ns, after - 1_000);
        // finalize() with nothing open is a no-op.
        g.finalize(after + 500);
        assert_eq!(g.stats.time_degraded_ns, after - 1_000);
    }

    #[test]
    fn stats_merge_is_fieldwise_sum() {
        let mut a = HealthStats {
            trips: 1,
            fallback_crypt_bytes: 100,
            disk: RetryStats {
                attempts: 2,
                recovered: 1,
                exhausted: 0,
            },
            ..HealthStats::default()
        };
        let b = HealthStats {
            trips: 2,
            timeouts: 5,
            disk: RetryStats {
                attempts: 1,
                recovered: 0,
                exhausted: 1,
            },
            ..HealthStats::default()
        };
        a.merge(&b);
        assert_eq!(a.trips, 3);
        assert_eq!(a.timeouts, 5);
        assert_eq!(a.fallback_crypt_bytes, 100);
        assert_eq!(a.disk.attempts, 3);
        assert_eq!(a.disk.exhausted, 1);
    }
}
