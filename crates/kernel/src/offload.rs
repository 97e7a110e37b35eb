//! The one accelerator offload path.
//!
//! The crypto accelerator (§8.2, Figures 11–12) is a bus master: it
//! pulls its input through a DMA bounce window, so a bus monitor sees
//! every byte it processes. Two callers hand it decrypt work — dm-crypt's
//! overlapped read (the miss run of a CTR request) and the lifecycle's
//! decrypt batches (unlock, fault cluster, sweep) — and both go through
//! [`offload`], which owns the protocol:
//!
//! 1. **The fallback ladder.** The request stays on the CPU when the
//!    cipher mode has no independent extents
//!    ([`FallbackReason::UnsupportedCipherMode`]), the accelerator clock
//!    is down-scaled ([`FallbackReason::AccelDownScaled`]), the run is
//!    shorter than [`MIN_ACCEL_SECTORS`] units
//!    ([`FallbackReason::BelowThreshold`]), the caller has no host key to
//!    finish the transform ([`FallbackReason::Disabled`]), or the health
//!    breaker is open ([`FallbackReason::BreakerOpen`]). The breaker is
//!    asked last because [`HealthGovernor::allow_accel`] advances its
//!    half-open probe state. Bytes the breaker vetoes count as
//!    [`fallback_crypt_bytes`](sentry_crypto::HealthStats::fallback_crypt_bytes)
//!    for either caller, like the bytes of an abandoned op.
//! 2. **Staging.** The first `min(len, ACCEL_DMA_SIZE)` bytes — ciphertext
//!    — are written into the bounce window before the `accel.dma` site,
//!    so a power cut mid-operation leaves only ciphertext there. Then the
//!    `accel.submit` site, where an armed wedge, corrupt or slow fault is
//!    staged onto the descriptor, and the submit, whose watchdog deadline
//!    is the op's modeled duration times the watchdog margin.
//! 3. **Run-ahead.** The caller's CPU work while the descriptor is in
//!    flight (dm-crypt's hit XOR and lookahead precompute).
//! 4. **Retirement.** A deadline-bounded wait, then a health success or
//!    failure. On completion the caller's transform produces the result
//!    uncharged — the engine's time was the wait — and the result is
//!    written back through the window. On a timeout or a corrupt status
//!    word the window is scrubbed, so the abandoned transfer leaves
//!    nothing for a bus monitor or a cold-boot dump, and the transform
//!    runs on the CPU at full charge.
//!
//! The simulation computes every byte on the host: the queue decides
//! *when* the result is architecturally visible, the caller's transform
//! decides *what* it is.

use crate::layout::{ACCEL_DMA_BASE, ACCEL_DMA_CONTROLLER, ACCEL_DMA_SIZE};
use sentry_crypto::pipeline::MIN_ACCEL_SECTORS;
use sentry_crypto::{FailureKind, FallbackReason, HealthGovernor};
use sentry_soc::accel::{AccelPowerState, WaitOutcome};
use sentry_soc::{Soc, SocError};

/// Which path a transform stands in for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// The accelerator's completed result: the engine's time was already
    /// paid at the wait, so the transform's own clock charge is undone.
    Accel,
    /// The CPU path, at full charge: a vetoed request, or the fallback
    /// after an abandoned or corrupt descriptor.
    Cpu,
}

/// How an offloaded request ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The ladder kept it on the CPU; nothing was staged or submitted.
    Vetoed(FallbackReason),
    /// A descriptor was submitted and retired with this outcome; on
    /// anything but [`WaitOutcome::Done`] the CPU fallback ran.
    Retired(WaitOutcome),
}

/// What a caller of [`offload`] supplies.
pub trait Offload {
    /// What the transform reports.
    type Output;
    /// The caller's error; SoC faults convert into it.
    type Error: From<SocError>;

    /// The SoC the descriptor runs on and the governor of its
    /// accelerator.
    fn parts(&mut self) -> (&mut Soc, &mut HealthGovernor);

    /// CPU work done while the descriptor is in flight, until the
    /// engine would complete at `until_ns`. A vetoed request calls it
    /// with `None` before the CPU transform.
    fn run_ahead(&mut self, _until_ns: Option<u64>) {}

    /// The functional decrypt of `buf`, unit `i` under `ivs[i]`.
    ///
    /// # Errors
    ///
    /// The caller's crypt errors; [`offload`] retires the descriptor
    /// before it calls the transform, so none leaves one pending.
    fn transform(
        &mut self,
        path: Path,
        ivs: &[[u8; 16]],
        buf: &mut [u8],
    ) -> Result<Self::Output, Self::Error>;
}

/// Decrypt `buf` (`ivs.len()` units) on the accelerator, or on the CPU
/// when the ladder vetoes it or the descriptor fails. `mode_ok` says the
/// cipher mode has independent extents and `keyed` that the caller can
/// finish the transform; see the module docs for the protocol.
///
/// # Errors
///
/// SoC faults at the staging sites and the window writes, and the
/// transform's errors.
pub fn offload<O: Offload>(
    o: &mut O,
    mode_ok: bool,
    keyed: bool,
    ivs: &[[u8; 16]],
    buf: &mut [u8],
) -> Result<(Outcome, O::Output), O::Error> {
    let bytes = buf.len() as u64;
    let (soc, health) = o.parts();
    let veto = if !mode_ok {
        Some(FallbackReason::UnsupportedCipherMode)
    } else if soc.accel.state != AccelPowerState::Awake {
        Some(FallbackReason::AccelDownScaled)
    } else if ivs.len() < MIN_ACCEL_SECTORS {
        Some(FallbackReason::BelowThreshold)
    } else if !keyed {
        Some(FallbackReason::Disabled)
    } else if !health.allow_accel(soc.clock.now_ns()) {
        health.note_fallback_crypt(bytes);
        Some(FallbackReason::BreakerOpen)
    } else {
        None
    };
    if let Some(reason) = veto {
        o.run_ahead(None);
        let out = o.transform(Path::Cpu, ivs, buf)?;
        return Ok((Outcome::Vetoed(reason), out));
    }

    // The queue captures the engine's clock state at submit, so a run
    // submitted while Awake keeps its throughput even if the device
    // locks before it completes.
    let staged = stage(soc, buf)?;
    soc.failpoint("accel.submit")?;
    let t0 = soc.clock.now_ns();
    let id = soc.accel_queue.submit(&soc.accel, t0, bytes);
    let deadline = t0.saturating_add(HealthGovernor::watchdog_ns(soc.accel.op_duration_ns(bytes)));
    let until = soc.accel_queue.completion_ns(id);
    o.run_ahead(until);

    let (soc, health) = o.parts();
    let outcome = soc.accel_queue.wait_deadline(id, &mut soc.clock, deadline);
    let now = soc.clock.now_ns();
    let out = match outcome {
        WaitOutcome::Done { .. } => {
            health.record_success(now);
            let out = o.transform(Path::Accel, ivs, buf)?;
            let (soc, _) = o.parts();
            // Cost substitution (see `SimClock::set_now_ns`): the result
            // was ready at completion; the host transform is free.
            soc.clock.set_now_ns(now);
            write_back(soc, buf)?;
            out
        }
        WaitOutcome::TimedOut { .. } | WaitOutcome::Corrupt { .. } => {
            if matches!(outcome, WaitOutcome::TimedOut { .. }) {
                health.record_failure(now, FailureKind::Timeout);
                health.note_abandoned(bytes);
            } else {
                health.record_failure(now, FailureKind::Corrupt);
            }
            window(soc, &vec![0u8; staged])?;
            let out = o.transform(Path::Cpu, ivs, buf)?;
            o.parts().1.note_fallback_crypt(bytes);
            out
        }
    };
    Ok((Outcome::Retired(outcome), out))
}

/// Stage `data`'s first `min(len, ACCEL_DMA_SIZE)` bytes into the DMA
/// bounce window — larger runs stream through it in passes, and one pass
/// makes the traffic observable — then pass the `accel.dma` site, where
/// a power cut leaves only the staged input in the window. Returns the
/// staged length.
///
/// # Errors
///
/// DMA faults and an armed `accel.dma` failpoint.
pub(crate) fn stage(soc: &mut Soc, data: &[u8]) -> Result<usize, SocError> {
    let staged = data.len().min(ACCEL_DMA_SIZE as usize);
    window(soc, &data[..staged])?;
    soc.failpoint("accel.dma")?;
    Ok(staged)
}

/// Write a completed operation's result back through the bounce window
/// (the staged prefix of `data`); before this the window held only the
/// input.
///
/// # Errors
///
/// DMA faults.
pub(crate) fn write_back(soc: &mut Soc, data: &[u8]) -> Result<(), SocError> {
    window(soc, &data[..data.len().min(ACCEL_DMA_SIZE as usize)])
}

fn window(soc: &mut Soc, bytes: &[u8]) -> Result<(), SocError> {
    soc.dma_write(ACCEL_DMA_CONTROLLER, ACCEL_DMA_BASE, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentry_crypto::health::TRIP_FAILURES;
    use sentry_crypto::HealthStats;
    use sentry_soc::{FaultAction, FaultPlan};

    /// What the CPU path charges for the test transform.
    const CPU_NS: u64 = 7_000;
    const UNITS: usize = 4;
    const BYTES: usize = UNITS * 512;

    /// A caller whose transform inverts every byte, charging `CPU_NS`
    /// on either path, or fails with an injected crypt fault.
    struct Invert {
        soc: Soc,
        health: HealthGovernor,
        fail: bool,
        ran_ahead: Vec<Option<u64>>,
    }

    impl Offload for Invert {
        type Output = Path;
        type Error = SocError;

        fn parts(&mut self) -> (&mut Soc, &mut HealthGovernor) {
            (&mut self.soc, &mut self.health)
        }

        fn run_ahead(&mut self, until_ns: Option<u64>) {
            self.ran_ahead.push(until_ns);
        }

        fn transform(
            &mut self,
            path: Path,
            _ivs: &[[u8; 16]],
            buf: &mut [u8],
        ) -> Result<Path, SocError> {
            self.soc.clock.advance(CPU_NS);
            if self.fail {
                return Err(SocError::CryptFault { site: "test" });
            }
            buf.iter_mut().for_each(|b| *b = !*b);
            Ok(path)
        }
    }

    fn caller(fault: Option<FaultAction>) -> Invert {
        let mut soc = Soc::tegra3_small();
        soc.accel.state = AccelPowerState::Awake;
        if let Some(action) = fault {
            soc.failpoints
                .arm(FaultPlan::at_site("accel.submit", 0, action));
        }
        Invert {
            soc,
            health: HealthGovernor::default(),
            fail: false,
            ran_ahead: Vec::new(),
        }
    }

    fn input() -> Vec<u8> {
        (0..BYTES).map(|i| (i * 7 + 1) as u8).collect()
    }

    /// The simulated cost of one bounce-window write of the request.
    fn window_ns() -> u64 {
        let mut soc = Soc::tegra3_small();
        let t = soc.clock.now_ns();
        window(&mut soc, &input()).unwrap();
        soc.clock.now_ns() - t
    }

    /// Run one offload of `input()`: the outcome, what the transform
    /// reported, the buffer, the bounce window, and the clock before.
    fn run(o: &mut Invert) -> (Outcome, Path, Vec<u8>, Vec<u8>, u64) {
        let ivs = [[0u8; 16]; UNITS];
        let mut buf = input();
        let start = o.soc.clock.now_ns();
        let (outcome, path) = offload(o, true, true, &ivs, &mut buf).unwrap();
        let mut win = vec![0u8; BYTES];
        o.soc.dram.read(ACCEL_DMA_BASE, &mut win);
        (outcome, path, buf, win, start)
    }

    fn inverted() -> Vec<u8> {
        input().iter().map(|b| !b).collect()
    }

    #[test]
    fn a_completed_descriptor_writes_the_result_back_and_costs_the_queue_horizon() {
        let mut o = caller(None);
        let (outcome, path, buf, win, start) = run(&mut o);
        assert_eq!(
            outcome,
            Outcome::Retired(WaitOutcome::Done {
                stall_ns: o.soc.accel.op_duration_ns(BYTES as u64)
            })
        );
        assert_eq!(path, Path::Accel);
        assert_eq!(buf, inverted());
        assert_eq!(win, inverted(), "the result is written back at completion");
        assert_eq!(o.health.stats, HealthStats::default());
        // Stage, completion, write-back; the host transform is free.
        let op = o.soc.accel.op_duration_ns(BYTES as u64);
        assert_eq!(o.soc.clock.now_ns(), start + window_ns() + op + window_ns());
        assert_eq!(o.soc.accel_queue.pending_ops(), 0);
        assert_eq!(o.ran_ahead, vec![Some(start + window_ns() + op)]);
    }

    #[test]
    fn an_abandoned_descriptor_scrubs_the_window_and_pays_the_deadline_and_the_cpu() {
        let mut o = caller(Some(FaultAction::AccelWedge { wedge_ns: u64::MAX }));
        let (outcome, path, buf, win, start) = run(&mut o);
        let deadline = HealthGovernor::watchdog_ns(o.soc.accel.op_duration_ns(BYTES as u64));
        assert_eq!(
            outcome,
            Outcome::Retired(WaitOutcome::TimedOut {
                waited_ns: deadline
            })
        );
        assert_eq!(path, Path::Cpu);
        assert_eq!(buf, inverted());
        assert_eq!(win, vec![0u8; BYTES], "scrubbed");
        let h = o.health.stats;
        assert_eq!((h.timeouts, h.corrupt_ops), (1, 0));
        assert_eq!(h.abandoned_bytes, BYTES as u64);
        assert_eq!(h.fallback_crypt_bytes, BYTES as u64);
        assert_eq!(
            o.soc.clock.now_ns(),
            start + window_ns() + deadline + window_ns() + CPU_NS
        );
        assert_eq!(o.soc.accel_queue.pending_ops(), 0);
    }

    #[test]
    fn a_corrupt_descriptor_scrubs_the_window_and_pays_the_completion_and_the_cpu() {
        let mut o = caller(Some(FaultAction::AccelCorrupt));
        let (outcome, path, buf, win, start) = run(&mut o);
        let op = o.soc.accel.op_duration_ns(BYTES as u64);
        assert_eq!(
            outcome,
            Outcome::Retired(WaitOutcome::Corrupt { stall_ns: op })
        );
        assert_eq!(path, Path::Cpu);
        assert_eq!(buf, inverted());
        assert_eq!(win, vec![0u8; BYTES], "scrubbed");
        let h = o.health.stats;
        assert_eq!((h.timeouts, h.corrupt_ops), (0, 1));
        assert_eq!(h.abandoned_bytes, 0);
        assert_eq!(h.fallback_crypt_bytes, BYTES as u64);
        assert_eq!(
            o.soc.clock.now_ns(),
            start + window_ns() + op + window_ns() + CPU_NS
        );
    }

    #[test]
    fn an_open_breaker_submits_nothing() {
        let mut o = caller(None);
        for _ in 0..TRIP_FAILURES {
            o.health.record_failure(0, FailureKind::Timeout);
        }
        let before = o.health.stats;
        let (outcome, path, buf, win, start) = run(&mut o);
        assert_eq!(outcome, Outcome::Vetoed(FallbackReason::BreakerOpen));
        assert_eq!(path, Path::Cpu);
        assert_eq!(buf, inverted());
        assert_eq!(win, vec![0u8; BYTES], "nothing staged");
        assert_eq!(o.soc.accel_queue.stats.ops, 0);
        assert_eq!(o.soc.clock.now_ns(), start + CPU_NS);
        assert_eq!(o.ran_ahead, vec![None]);
        assert_eq!(o.health.stats.timeouts, before.timeouts);
        assert_eq!(o.health.stats.fallback_crypt_bytes, BYTES as u64);
    }

    #[test]
    fn the_ladder_keeps_its_order() {
        let ivs = [[0u8; 16]; UNITS];
        let veto = |o: &mut Invert, mode_ok, keyed, units: usize| {
            let mut buf = vec![0u8; units * 512];
            offload(o, mode_ok, keyed, &ivs[..units], &mut buf)
                .unwrap()
                .0
        };
        let mut o = caller(None);
        for _ in 0..TRIP_FAILURES {
            o.health.record_failure(0, FailureKind::Timeout);
        }
        o.soc.accel.state = AccelPowerState::DownScaled;
        let reason = |r| Outcome::Vetoed(r);
        assert_eq!(
            veto(&mut o, false, false, 1),
            reason(FallbackReason::UnsupportedCipherMode)
        );
        assert_eq!(
            veto(&mut o, true, false, 1),
            reason(FallbackReason::AccelDownScaled)
        );
        o.soc.accel.state = AccelPowerState::Awake;
        assert_eq!(
            veto(&mut o, true, false, 1),
            reason(FallbackReason::BelowThreshold)
        );
        assert_eq!(
            veto(&mut o, true, false, UNITS),
            reason(FallbackReason::Disabled)
        );
        assert_eq!(o.health.stats.probes, 0, "the breaker is asked last");
        assert_eq!(
            veto(&mut o, true, true, UNITS),
            reason(FallbackReason::BreakerOpen)
        );
    }

    #[test]
    fn a_failing_transform_leaves_no_descriptor_pending() {
        for fault in [None, Some(FaultAction::AccelWedge { wedge_ns: u64::MAX })] {
            let mut o = caller(fault);
            o.fail = true;
            let ivs = [[0u8; 16]; UNITS];
            let mut buf = input();
            assert!(offload(&mut o, true, true, &ivs, &mut buf).is_err());
            assert_eq!(o.soc.accel_queue.stats.ops, 1);
            assert_eq!(o.soc.accel_queue.pending_ops(), 0, "{fault:?}");
        }
    }
}
