//! The Nexus 4 crypto accelerator timing/energy model.
//!
//! The paper's microbenchmarks found the hardware AES engine *slower*
//! than the CPU for Sentry's workload (Figure 11, left) for two reasons:
//!
//! 1. Sentry encrypts 4 KiB pages, and the accelerator has a fixed
//!    per-operation setup cost (descriptor programming, DMA, interrupt)
//!    that dominates at small sizes;
//! 2. at device-lock time the accelerator's clock is **down-scaled** for
//!    power saving; fully awake it is about 4x faster (§8.2).
//!
//! Because the engine DMAs its input from DRAM, its traffic is visible
//! on the memory bus — unlike AES On SoC.
//!
//! [`AccelQueue`] models the engine's asynchronous side: descriptors are
//! programmed and the operation completes *out of line* while the CPU
//! runs ahead. The queue tracks a busy horizon against the simulation
//! clock; a submit captures the engine's clock state (setup + DMA +
//! streaming at the current power state) at that instant, and a wait
//! only advances the clock if the CPU actually caught up with the
//! engine. The difference — engine time that elapsed while the CPU was
//! doing something else — is the overlap the read pipeline exists to
//! harvest.

use crate::clock::SimClock;

/// Accelerator power states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccelPowerState {
    /// Full clock: the device is awake and interactive.
    Awake,
    /// Down-scaled clock: the device is locked/suspending — exactly when
    /// Sentry's encrypt-on-lock runs.
    DownScaled,
}

/// The crypto accelerator model.
#[derive(Debug, Clone, PartialEq)]
pub struct CryptoAccel {
    /// Streaming throughput at full clock, bytes per second.
    pub(crate) awake_bytes_per_sec: f64,
    /// Down-scaling factor while locked (the paper observed ~4x).
    pub(crate) downscale_factor: f64,
    /// Fixed setup cost per operation, nanoseconds.
    pub(crate) setup_ns: u64,
    /// Current power state.
    pub state: AccelPowerState,
}

impl CryptoAccel {
    /// The Nexus 4 engine, calibrated to Figure 11/12: ~10 MB/s on 4 KiB
    /// pages while down-scaled, ~4x that when awake.
    #[must_use]
    pub(crate) fn nexus4() -> Self {
        CryptoAccel {
            awake_bytes_per_sec: 100.0e6,
            downscale_factor: 4.0,
            setup_ns: 60_000,
            state: AccelPowerState::DownScaled,
        }
    }

    /// Clock down-scaling factor applied in the current power state.
    /// Down-scaling slows the entire engine — descriptor setup included —
    /// which is why the paper saw the whole operation run 4x faster with
    /// the phone fully awake (§8.2).
    #[must_use]
    pub(crate) fn effective_slowdown(&self) -> f64 {
        match self.state {
            AccelPowerState::Awake => 1.0,
            AccelPowerState::DownScaled => self.downscale_factor,
        }
    }

    /// Simulated duration of one encrypt/decrypt operation over `bytes`.
    #[must_use]
    pub fn op_duration_ns(&self, bytes: u64) -> u64 {
        let awake_ns = self.setup_ns as f64 + bytes as f64 / self.awake_bytes_per_sec * 1e9;
        (awake_ns * self.effective_slowdown()) as u64
    }

    /// Throughput in MB/s when repeatedly processing `chunk` bytes per
    /// operation — what Figure 11 plots for 4 KiB pages.
    #[must_use]
    pub fn throughput_mb_s(&self, chunk: u64) -> f64 {
        let ns = self.op_duration_ns(chunk);
        chunk as f64 / (ns as f64 / 1e9) / 1e6
    }
}

/// Handle to an operation submitted to an [`AccelQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AccelOpId(u64);

/// A hardware misbehaviour staged against the *next* submitted
/// descriptor (set by the fault plane via
/// [`AccelQueue::inject_next_op_fault`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpFault {
    /// The descriptor wedges: completion is delayed by `wedge_ns` past
    /// the modeled duration ([`u64::MAX`] = never completes).
    Wedge {
        /// Extra completion delay in nanoseconds.
        wedge_ns: u64,
    },
    /// The descriptor completes on time but its status word reports
    /// corrupt output; the bounce window contents must be discarded.
    Corrupt,
    /// The descriptor runs `factor`× slower than the calibrated engine
    /// rate but otherwise completes normally.
    Slow {
        /// Duration multiplier.
        factor: u32,
    },
}

/// Outcome of a deadline-bounded [`AccelQueue::wait_deadline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitOutcome {
    /// The descriptor completed cleanly; the CPU stalled `stall_ns`.
    Done {
        /// Nanoseconds the CPU stalled waiting (0 = full overlap).
        stall_ns: u64,
    },
    /// The watchdog deadline expired first: the descriptor was
    /// abandoned (removed from the queue, engine reset) after the CPU
    /// burned `waited_ns` waiting. The bounce window must be zeroized
    /// and the work re-dispatched to the CPU path.
    TimedOut {
        /// Nanoseconds the CPU waited before giving up.
        waited_ns: u64,
    },
    /// The descriptor completed within the deadline but its status word
    /// reports corrupt output; the result must be discarded and the
    /// work re-dispatched.
    Corrupt {
        /// Nanoseconds the CPU stalled waiting.
        stall_ns: u64,
    },
}

impl WaitOutcome {
    /// Nanoseconds the CPU spent at the wait, whatever the outcome.
    #[must_use]
    pub fn waited_ns(self) -> u64 {
        match self {
            WaitOutcome::Done { stall_ns } | WaitOutcome::Corrupt { stall_ns } => stall_ns,
            WaitOutcome::TimedOut { waited_ns } => waited_ns,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PendingOp {
    id: u64,
    start_ns: u64,
    complete_at_ns: u64,
    bytes: u64,
    corrupt: bool,
}

/// Cumulative statistics of an [`AccelQueue`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccelQueueStats {
    /// Descriptors submitted.
    pub ops: u64,
    /// Bytes across all descriptors.
    pub(crate) bytes: u64,
    /// Engine-busy time modeled across all descriptors, nanoseconds.
    pub busy_ns: u64,
    /// Time the CPU actually stalled waiting for completions.
    pub stall_ns: u64,
    /// Engine time hidden behind concurrent CPU progress (busy time the
    /// CPU never had to wait for) — the harvested overlap.
    pub overlap_ns: u64,
    /// Deepest the queue has ever been (descriptors in flight).
    pub max_depth: usize,
    /// Descriptors abandoned by a watchdog deadline expiring.
    pub(crate) timeouts: u64,
    /// Bytes across all abandoned descriptors.
    pub(crate) abandoned_bytes: u64,
    /// Descriptors whose status word reported corrupt output.
    pub(crate) corrupt_ops: u64,
}

/// An asynchronous descriptor queue in front of the crypto accelerator.
///
/// The queue is a pure timing model: the *bytes* of an operation are
/// transformed by the caller (the simulation computes ciphertext
/// host-side either way); the queue decides *when* the result is
/// architecturally visible. Descriptors serialize on the single engine:
/// each starts at `max(busy_horizon, submit time)` and completes after
/// [`CryptoAccel::op_duration_ns`] — captured per-op at submit, so a
/// power-state change (lock-time down-scaling) affects operations
/// submitted after it, not ones already in flight.
#[derive(Debug, Clone, Default)]
pub struct AccelQueue {
    next_id: u64,
    busy_until_ns: u64,
    pending: Vec<PendingOp>,
    /// Fault staged against the next submitted descriptor.
    next_fault: Option<OpFault>,
    /// Cumulative statistics.
    pub stats: AccelQueueStats,
}

impl AccelQueue {
    /// An empty queue.
    #[must_use]
    pub(crate) fn new() -> Self {
        AccelQueue::default()
    }

    /// Stage a hardware misbehaviour against the next submitted
    /// descriptor. Called by the fault plane
    /// ([`crate::Soc::failpoint`]) when an accel fault action fires;
    /// only one fault is staged at a time (a second call overwrites).
    pub(crate) fn inject_next_op_fault(&mut self, fault: OpFault) {
        self.next_fault = Some(fault);
    }

    /// Submit an extent-sized descriptor of `bytes` at simulated time
    /// `now_ns`, against the engine's *current* clock state.
    pub fn submit(&mut self, accel: &CryptoAccel, now_ns: u64, bytes: u64) -> AccelOpId {
        let start = self.busy_until_ns.max(now_ns);
        let mut dur = accel.op_duration_ns(bytes);
        let mut wedge_ns = 0u64;
        let mut corrupt = false;
        match self.next_fault.take() {
            Some(OpFault::Wedge { wedge_ns: w }) => wedge_ns = w,
            Some(OpFault::Corrupt) => corrupt = true,
            Some(OpFault::Slow { factor }) => dur = dur.saturating_mul(u64::from(factor)),
            None => {}
        }
        let complete_at_ns = start.saturating_add(dur).saturating_add(wedge_ns);
        self.busy_until_ns = complete_at_ns;
        let id = self.next_id;
        self.next_id += 1;
        self.pending.push(PendingOp {
            id,
            start_ns: start,
            complete_at_ns,
            bytes,
            corrupt,
        });
        self.stats.ops += 1;
        self.stats.bytes += bytes;
        self.stats.busy_ns += dur;
        self.stats.max_depth = self.stats.max_depth.max(self.pending.len());
        AccelOpId(id)
    }

    /// When the given in-flight operation will complete, if it is still
    /// pending.
    #[must_use]
    pub fn completion_ns(&self, id: AccelOpId) -> Option<u64> {
        self.pending
            .iter()
            .find(|op| op.id == id.0)
            .map(|op| op.complete_at_ns)
    }

    /// Descriptors not yet retired by `AccelQueue::wait`.
    #[must_use]
    pub fn pending_ops(&self) -> usize {
        self.pending.len()
    }

    /// Retire `id`: advance `clock` to the operation's completion if the
    /// CPU got here first, and account the stalled/overlapped split.
    /// Returns the nanoseconds the CPU stalled (zero when the engine
    /// finished while the CPU was busy elsewhere — full overlap).
    pub(crate) fn wait(&mut self, id: AccelOpId, clock: &mut SimClock) -> u64 {
        let Some(pos) = self.pending.iter().position(|op| op.id == id.0) else {
            return 0;
        };
        let op = self.pending.remove(pos);
        let now = clock.now_ns();
        let stall = op.complete_at_ns.saturating_sub(now);
        clock.advance(stall);
        self.stats.stall_ns += stall;
        self.stats.overlap_ns += dur_of(&op).saturating_sub(stall);
        stall
    }

    /// Retire `id` under a watchdog: wait at most until the absolute
    /// simulated time `deadline_ns`.
    ///
    /// * Completion at or before the deadline retires the op exactly
    ///   like `AccelQueue::wait` and returns [`WaitOutcome::Done`] —
    ///   or [`WaitOutcome::Corrupt`] when the descriptor status word
    ///   reports bad output (the op is retired either way; the caller
    ///   must discard the bounce window).
    /// * Otherwise the op is **abandoned**: it is removed from the
    ///   queue, the engine is reset (the busy horizon collapses to the
    ///   deadline, releasing descriptors queued behind the hung one
    ///   from the wedge — their own completion times are unchanged),
    ///   the clock advances to the deadline (the CPU really did burn
    ///   the watchdog interval waiting), and the caller gets
    ///   [`WaitOutcome::TimedOut`]. The caller owns the cleanup: zeroize
    ///   the DMA bounce window, re-dispatch the work to the CPU path.
    pub fn wait_deadline(
        &mut self,
        id: AccelOpId,
        clock: &mut SimClock,
        deadline_ns: u64,
    ) -> WaitOutcome {
        let Some(pos) = self.pending.iter().position(|op| op.id == id.0) else {
            return WaitOutcome::Done { stall_ns: 0 };
        };
        let complete_at = self.pending[pos].complete_at_ns;
        if complete_at <= deadline_ns {
            let corrupt = self.pending[pos].corrupt;
            let stall_ns = self.wait(id, clock);
            if corrupt {
                self.stats.corrupt_ops += 1;
                return WaitOutcome::Corrupt { stall_ns };
            }
            return WaitOutcome::Done { stall_ns };
        }
        // Watchdog expired: abandon the descriptor and reset the engine.
        let op = self.pending.remove(pos);
        let now = clock.now_ns();
        let waited_ns = deadline_ns.saturating_sub(now);
        clock.advance(waited_ns);
        self.stats.stall_ns += waited_ns;
        self.stats.timeouts += 1;
        self.stats.abandoned_bytes += op.bytes;
        self.busy_until_ns = self.busy_until_ns.min(deadline_ns.max(now));
        WaitOutcome::TimedOut { waited_ns }
    }
}

/// Engine-busy duration of one pending op (its start may have been
/// pushed past the submit time by the busy horizon).
fn dur_of(op: &PendingOp) -> u64 {
    op.complete_at_ns - op.start_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn downscaled_pages_are_slow_awake_is_about_4x() {
        let mut accel = CryptoAccel::nexus4();
        let locked = accel.throughput_mb_s(4096);
        accel.state = AccelPowerState::Awake;
        let awake = accel.throughput_mb_s(4096);
        assert!(
            awake / locked > 2.5 && awake / locked < 4.5,
            "awake {awake} vs locked {locked}"
        );
    }

    #[test]
    fn small_chunks_are_setup_dominated() {
        let accel = CryptoAccel::nexus4();
        // 4 KiB pages achieve a fraction of streaming rate; 1 MiB buffers
        // approach it.
        let page = accel.throughput_mb_s(4096);
        let big = accel.throughput_mb_s(1 << 20);
        assert!(big > 2.0 * page, "page {page} MB/s vs bulk {big} MB/s");
    }

    #[test]
    fn locked_page_throughput_matches_figure_11() {
        // Figure 11 (left): hardware AES around 8-12 MB/s on 4 KiB pages
        // while the accelerator is down-scaled.
        let accel = CryptoAccel::nexus4();
        let mb_s = accel.throughput_mb_s(4096);
        assert!((6.0..16.0).contains(&mb_s), "got {mb_s} MB/s");
    }

    #[test]
    fn queued_op_overlaps_with_cpu_progress() {
        let mut accel = CryptoAccel::nexus4();
        accel.state = AccelPowerState::Awake;
        let mut q = AccelQueue::new();
        let mut clock = SimClock::new();
        let dur = accel.op_duration_ns(8192);

        let id = q.submit(&accel, clock.now_ns(), 8192);
        assert_eq!(q.pending_ops(), 1);
        // CPU does other work that covers the whole engine op.
        clock.advance(dur + 1_000);
        let stalled = q.wait(id, &mut clock);
        assert_eq!(stalled, 0, "engine finished under CPU work");
        assert_eq!(q.stats.overlap_ns, dur);
        assert!(q.busy_until_ns <= clock.now_ns() && q.pending.is_empty());
    }

    #[test]
    fn wait_advances_clock_when_cpu_catches_up() {
        let accel = CryptoAccel::nexus4();
        let mut q = AccelQueue::new();
        let mut clock = SimClock::new();
        let dur = accel.op_duration_ns(4096);

        let id = q.submit(&accel, clock.now_ns(), 4096);
        let stalled = q.wait(id, &mut clock);
        assert_eq!(stalled, dur, "no CPU progress, full stall");
        assert_eq!(clock.now_ns(), dur);
        assert_eq!(q.stats.overlap_ns, 0);
    }

    #[test]
    fn ops_serialize_on_the_single_engine() {
        let mut accel = CryptoAccel::nexus4();
        accel.state = AccelPowerState::Awake;
        let mut q = AccelQueue::new();
        let mut clock = SimClock::new();
        let dur = accel.op_duration_ns(4096);

        let a = q.submit(&accel, clock.now_ns(), 4096);
        let b = q.submit(&accel, clock.now_ns(), 4096);
        assert_eq!(q.completion_ns(a), Some(dur));
        assert_eq!(q.completion_ns(b), Some(2 * dur), "b starts after a");
        assert_eq!(q.stats.max_depth, 2);
        q.wait(a, &mut clock);
        q.wait(b, &mut clock);
        assert_eq!(clock.now_ns(), 2 * dur);
        assert_eq!(q.pending_ops(), 0);
    }

    #[test]
    fn wedged_op_times_out_at_the_watchdog_deadline() {
        let mut accel = CryptoAccel::nexus4();
        accel.state = AccelPowerState::Awake;
        let mut q = AccelQueue::new();
        let mut clock = SimClock::new();
        q.inject_next_op_fault(OpFault::Wedge { wedge_ns: u64::MAX });
        let id = q.submit(&accel, clock.now_ns(), 4096);
        let deadline = 2 * accel.op_duration_ns(4096);
        let out = q.wait_deadline(id, &mut clock, deadline);
        assert_eq!(
            out,
            WaitOutcome::TimedOut {
                waited_ns: deadline
            }
        );
        assert_eq!(clock.now_ns(), deadline, "CPU burned the watchdog");
        assert_eq!(q.stats.timeouts, 1);
        assert_eq!(q.stats.abandoned_bytes, 4096);
        assert_eq!(q.pending_ops(), 0, "abandoned op is gone");
        // Engine was reset: a fresh op completes normally.
        let id = q.submit(&accel, clock.now_ns(), 4096);
        assert!(matches!(
            q.wait_deadline(id, &mut clock, u64::MAX),
            WaitOutcome::Done { .. }
        ));
    }

    #[test]
    fn corrupt_op_completes_but_reports_bad_status() {
        let mut accel = CryptoAccel::nexus4();
        accel.state = AccelPowerState::Awake;
        let mut q = AccelQueue::new();
        let mut clock = SimClock::new();
        q.inject_next_op_fault(OpFault::Corrupt);
        let id = q.submit(&accel, clock.now_ns(), 4096);
        let dur = accel.op_duration_ns(4096);
        let out = q.wait_deadline(id, &mut clock, u64::MAX);
        assert_eq!(out, WaitOutcome::Corrupt { stall_ns: dur });
        assert_eq!(q.stats.corrupt_ops, 1);
        assert_eq!(q.stats.timeouts, 0);
    }

    #[test]
    fn slow_op_can_finish_within_a_generous_deadline() {
        let mut accel = CryptoAccel::nexus4();
        accel.state = AccelPowerState::Awake;
        let mut q = AccelQueue::new();
        let mut clock = SimClock::new();
        let dur = accel.op_duration_ns(4096);
        q.inject_next_op_fault(OpFault::Slow { factor: 10 });
        let id = q.submit(&accel, clock.now_ns(), 4096);
        assert_eq!(q.completion_ns(id), Some(10 * dur));
        // A 2x-margin watchdog abandons it; a 20x one would not.
        let out = q.wait_deadline(id, &mut clock, 2 * dur);
        assert!(matches!(out, WaitOutcome::TimedOut { .. }));
    }

    #[test]
    fn deadline_wait_on_healthy_op_matches_plain_wait() {
        let accel = CryptoAccel::nexus4();
        let mut q = AccelQueue::new();
        let mut clock = SimClock::new();
        let dur = accel.op_duration_ns(4096);
        let id = q.submit(&accel, clock.now_ns(), 4096);
        let out = q.wait_deadline(id, &mut clock, 4 * dur);
        assert_eq!(out, WaitOutcome::Done { stall_ns: dur });
        assert_eq!(q.stats.timeouts, 0);
        assert_eq!(q.stats.abandoned_bytes, 0);
    }

    #[test]
    fn submit_captures_clock_state_per_op() {
        let mut accel = CryptoAccel::nexus4();
        accel.state = AccelPowerState::Awake;
        let mut q = AccelQueue::new();
        let awake = q.submit(&accel, 0, 4096);
        // Device locks: ops submitted after the state change run 4x
        // slower, in-flight ones keep their captured duration.
        let awake_done = q.completion_ns(awake).unwrap();
        accel.state = AccelPowerState::DownScaled;
        let locked = q.submit(&accel, 0, 4096);
        let locked_dur = q.completion_ns(locked).unwrap() - awake_done;
        assert_eq!(q.completion_ns(awake).unwrap(), awake_done);
        assert_eq!(locked_dur, accel.op_duration_ns(4096));
        assert!(locked_dur > 3 * awake_done);
    }
}
