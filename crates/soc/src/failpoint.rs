//! Deterministic fault-injection plane.
//!
//! Sentry's security argument is about what DRAM looks like *after a
//! power event*, so the simulation must be killable at any instruction
//! boundary that matters — mid-lock, mid-eviction, between publishing a
//! ciphertext frame and flipping its PTE. This module provides named,
//! step-indexed failpoints threaded through the DRAM write path, the
//! crypt dispatch paths, pager eviction, and every per-page step of the
//! lock/unlock/fault/sweep transitions.
//!
//! The plane has three modes:
//!
//! * **Off** (default): every hit is a single branch on a `bool` —
//!   zero-cost on hot paths, nothing is recorded.
//! * **Record**: hits are counted and traced, nothing fires. A record
//!   pass over a schedule enumerates every reachable failpoint index so
//!   an exhaustive interruption sweep knows exactly where it can kill.
//! * **Armed**: a [`FaultPlan`] names one hit (by index, optionally
//!   filtered to one site) and the [`FaultAction`] to inject there.
//!   After firing the plane disarms itself, so recovery and retry code
//!   run fault-free.
//!
//! Everything is deterministic: the step counter advances exactly once
//! per hit, the simulation itself is seeded, and a `(seed, step)` pair
//! is a complete, exact repro command for any observed failure.

use crate::dram::PowerEvent;
use crate::rng::DetRng;

/// What an armed failpoint injects when it fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// Power is cut at this instant. Execution is seized — the access
    /// that hit the failpoint does not happen, and the error propagates
    /// out of the transition as [`crate::SocError::PowerLost`].
    ///
    /// With `decay: None` the DRAM image is frozen exactly as the dying
    /// instant left it (the strictest, fully deterministic variant — a
    /// cold-boot scan of the frozen image is a superset of any decayed
    /// one). With `decay: Some(event)` the simulated power event is
    /// additionally applied to DRAM via
    /// `crate::dram::Dram::apply_power_event` (and, for events that
    /// cut SoC power, remanence decay to iRAM).
    PowerCut {
        /// Optional remanence event to apply to memory at the instant
        /// of death.
        decay: Option<PowerEvent>,
    },
    /// The crypt engine reports a hardware error; the dispatch fails
    /// with [`crate::SocError::CryptFault`] before transforming any
    /// data.
    CryptError,
    /// A multi-page batch is aborted mid-dispatch with
    /// [`crate::SocError::BatchAborted`].
    AbortBatch,
    /// An active memory attacker flips one DRAM bit at this instant —
    /// a bus-level glitch or rowhammer-style disturbance. Execution
    /// continues normally (the access that hit the failpoint succeeds):
    /// the point is to corrupt ciphertext *between* legitimate steps
    /// and observe whether the integrity plane catches it. The flip is
    /// applied raw to the DRAM array; any cache line covering the byte
    /// is dropped without write-back (the disturbance hits the DRAM
    /// cells behind the cache's back, and the stale line is modelled as
    /// already evicted so the corruption is observable).
    TamperDramBit {
        /// Physical DRAM address of the byte to disturb.
        addr: u64,
        /// Bit index (0–7) within that byte.
        bit: u8,
    },
    /// The next accelerator descriptor wedges: its completion interrupt
    /// is delayed by `wedge_ns` simulated nanoseconds ([`u64::MAX`]
    /// models "never completes"). Execution continues — the submit
    /// succeeds — and the hang is only observable at the wait, which is
    /// exactly why every wait needs a watchdog deadline.
    AccelWedge {
        /// Extra completion delay; `u64::MAX` = the descriptor never
        /// completes.
        wedge_ns: u64,
    },
    /// The next accelerator descriptor completes on time but with
    /// corrupt output; the driver sees the failure in the descriptor
    /// status word at the wait and must discard the bounce window.
    AccelCorrupt,
    /// The next accelerator descriptor runs `factor`× slower than the
    /// engine's calibrated rate (thermal throttle, clock glitch). The
    /// op still completes — but possibly past its watchdog deadline.
    AccelSlow {
        /// Duration multiplier applied to the next submitted op.
        factor: u32,
    },
    /// The storage device fails this request transiently with
    /// [`crate::SocError::DeviceFault`]; an immediate (or backed-off)
    /// retry of the same request may succeed.
    DiskError,
    /// The storage device stalls for `stall_ns` before completing this
    /// request successfully — a transient latency spike, not a failure.
    DiskStall {
        /// Extra request latency, nanoseconds.
        stall_ns: u64,
    },
}

/// How often an armed plan fires across the matching hits of its site.
///
/// One-shot kills ([`FireRegime::Once`]) model a single power cut or
/// glitch; the sustained regimes model *misbehaving* hardware — an
/// engine that stays broken ([`FireRegime::Persistent`]), fails one
/// request in `period` ([`FireRegime::Rate`]), or fails a contiguous
/// storm of requests and then heals ([`FireRegime::Burst`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FireRegime {
    /// Fire exactly once, at matching hit `after`, then disarm.
    Once,
    /// Fire at every matching hit from `after` onwards.
    Persistent,
    /// Fire at matching hits `after`, `after + period`,
    /// `after + 2·period`, … — a steady fault rate of one in `period`.
    Rate {
        /// Matching hits between consecutive firings (≥ 1).
        period: u64,
    },
    /// Fire at every matching hit in `[after, after + len)` — a fault
    /// storm of `len` consecutive requests — then disarm.
    Burst {
        /// Number of consecutive matching hits that fire.
        len: u64,
    },
}

/// One planned fault: fire `action` at the `after`-th (0-based) hit of
/// `site` (or of any site when `site` is `None`), repeating per the
/// plan's `FireRegime`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Only hits of this named site count toward `after`; `None`
    /// matches every site (the global step index, as enumerated by a
    /// record pass).
    pub(crate) site: Option<&'static str>,
    /// 0-based index of the matching hit at which to fire (first).
    pub(crate) after: u64,
    /// What to inject when the plan fires.
    pub(crate) action: FaultAction,
    /// How often the plan fires across matching hits. The default
    /// ([`FireRegime::Once`]) disarms the plane after firing so
    /// recovery and retry code runs fault-free.
    pub(crate) regime: FireRegime,
}

impl FaultPlan {
    /// Plan that fires at global step `step` (as numbered by a record
    /// pass over the same schedule).
    #[must_use]
    pub fn at_step(step: u64, action: FaultAction) -> Self {
        FaultPlan {
            site: None,
            after: step,
            action,
            regime: FireRegime::Once,
        }
    }

    /// Plan that fires at the `after`-th hit of the named `site`.
    #[must_use]
    pub fn at_site(site: &'static str, after: u64, action: FaultAction) -> Self {
        FaultPlan {
            site: Some(site),
            after,
            action,
            regime: FireRegime::Once,
        }
    }

    /// Sustained-rate plan: fire at every `period`-th hit of `site`
    /// starting from the first — hardware that fails one request in
    /// `period` indefinitely. A `period` of 0 is clamped to 1 (every
    /// hit, equivalent to a persistent plan with `after` 0).
    #[must_use]
    pub fn at_rate(site: &'static str, period: u64, action: FaultAction) -> Self {
        FaultPlan {
            site: Some(site),
            after: 0,
            action,
            regime: FireRegime::Rate {
                period: period.max(1),
            },
        }
    }

    /// Fault-storm plan: fire at `len` consecutive hits of `site`
    /// starting at the `after`-th, then disarm — hardware that breaks,
    /// stays broken for a storm, and heals.
    #[must_use]
    pub fn burst(site: &'static str, after: u64, len: u64, action: FaultAction) -> Self {
        FaultPlan {
            site: Some(site),
            after,
            action,
            regime: FireRegime::Burst { len },
        }
    }

    /// Make this plan persistent: it keeps firing at every matching hit
    /// from `after` onwards instead of self-disarming.
    #[must_use]
    pub fn persistent(mut self) -> Self {
        self.regime = FireRegime::Persistent;
        self
    }
}

/// A fault that actually fired: which site, at which global step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FiredFault {
    /// The named site that fired.
    pub site: &'static str,
    /// The global step index at which it fired.
    pub(crate) step: u64,
    /// The action that was injected.
    pub(crate) action: FaultAction,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Mode {
    #[default]
    Off,
    Record,
    Armed,
}

/// The per-SoC failpoint registry. Default-constructed **off**: the
/// only cost a disabled hit pays is one branch.
#[derive(Debug, Default)]
pub struct Failpoints {
    mode: Mode,
    /// Global hits since the last `record()`/`arm()` reset.
    step: u64,
    /// Hits of the armed plan's site (equals `step` for site-less plans).
    plan_hits: u64,
    plan: Option<FaultPlan>,
    trace: Vec<(&'static str, u64)>,
    fired: Option<FiredFault>,
}

impl Failpoints {
    /// True when hits must be evaluated at all (record or armed mode).
    #[inline]
    #[must_use]
    pub(crate) fn is_enabled(&self) -> bool {
        self.mode != Mode::Off
    }

    /// Switch to record mode: count and trace every hit, fire nothing.
    /// Resets the step counter and trace.
    pub fn record(&mut self) {
        self.mode = Mode::Record;
        self.step = 0;
        self.plan_hits = 0;
        self.plan = None;
        self.trace.clear();
        self.fired = None;
    }

    /// Arm a plan. Resets the step counter, so indices are relative to
    /// this call — arm at the same point the record pass started.
    pub fn arm(&mut self, plan: FaultPlan) {
        self.mode = Mode::Armed;
        self.step = 0;
        self.plan_hits = 0;
        self.plan = Some(plan);
        self.trace.clear();
        self.fired = None;
    }

    /// Arm a seeded plan: the firing index is drawn deterministically
    /// from `seed` over `total_steps` reachable steps (as counted by a
    /// record pass over the same schedule).
    pub fn arm_seeded(&mut self, seed: u64, total_steps: u64, action: FaultAction) {
        let step = if total_steps == 0 {
            0
        } else {
            DetRng::new(seed).next_below(total_steps)
        };
        self.arm(FaultPlan::at_step(step, action));
    }

    /// Disarm and stop recording; hits go back to the zero-cost path.
    /// The trace and fired record survive for inspection.
    pub fn disarm(&mut self) {
        self.mode = Mode::Off;
        self.plan = None;
    }

    /// Global hits observed since the last `record()`/`arm()` reset.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.step
    }

    /// The `(site, step)` trace accumulated in record mode.
    #[must_use]
    pub fn trace(&self) -> &[(&'static str, u64)] {
        &self.trace
    }

    /// The fault that fired, if any has.
    #[must_use]
    pub fn fired(&self) -> Option<FiredFault> {
        self.fired
    }

    /// Evaluate a hit of `site`. Returns the action to inject, if the
    /// armed plan fires here. Callers go through
    /// [`crate::Soc::failpoint`], which also applies the action's
    /// memory effects; only reach for this directly in tests.
    pub(crate) fn hit(&mut self, site: &'static str) -> Option<FaultAction> {
        let step = self.step;
        self.step += 1;
        match self.mode {
            Mode::Off => None,
            Mode::Record => {
                self.trace.push((site, step));
                None
            }
            Mode::Armed => {
                let plan = self.plan?;
                if let Some(wanted) = plan.site {
                    if wanted != site {
                        return None;
                    }
                }
                let matching = self.plan_hits;
                self.plan_hits += 1;
                let (fires, exhausted) = match plan.regime {
                    FireRegime::Once => (matching == plan.after, matching >= plan.after),
                    FireRegime::Persistent => (matching >= plan.after, false),
                    FireRegime::Rate { period } => (
                        matching >= plan.after
                            && (matching - plan.after).is_multiple_of(period.max(1)),
                        false,
                    ),
                    FireRegime::Burst { len } => (
                        matching >= plan.after && matching - plan.after < len,
                        matching + 1 >= plan.after.saturating_add(len),
                    ),
                };
                if fires {
                    self.fired = Some(FiredFault {
                        site,
                        step,
                        action: plan.action,
                    });
                }
                if exhausted {
                    // Disarm so recovery and retry run fault-free.
                    self.mode = Mode::Off;
                    self.plan = None;
                }
                if fires {
                    Some(plan.action)
                } else {
                    None
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_never_fires_and_counts_nothing() {
        let mut fp = Failpoints::default();
        assert!(!fp.is_enabled());
        for _ in 0..10 {
            assert_eq!(fp.hit("dram.write"), None);
        }
        assert_eq!(fp.fired(), None);
        assert!(fp.trace().is_empty());
    }

    #[test]
    fn record_mode_traces_every_hit_in_order() {
        let mut fp = Failpoints::default();
        fp.record();
        assert_eq!(fp.hit("a"), None);
        assert_eq!(fp.hit("b"), None);
        assert_eq!(fp.hit("a"), None);
        assert_eq!(fp.trace(), &[("a", 0), ("b", 1), ("a", 2)]);
        assert_eq!(fp.steps(), 3);
    }

    #[test]
    fn armed_plan_fires_once_at_its_step_then_disarms() {
        let mut fp = Failpoints::default();
        fp.arm(FaultPlan::at_step(2, FaultAction::CryptError));
        assert_eq!(fp.hit("a"), None);
        assert_eq!(fp.hit("b"), None);
        assert_eq!(fp.hit("c"), Some(FaultAction::CryptError));
        let fired = fp.fired().unwrap();
        assert_eq!(fired.site, "c");
        assert_eq!(fired.step, 2);
        // Disarmed: later hits (recovery, retry) pass through.
        assert!(!fp.is_enabled());
        assert_eq!(fp.hit("c"), None);
    }

    #[test]
    fn site_filtered_plan_counts_only_its_site() {
        let mut fp = Failpoints::default();
        fp.arm(FaultPlan::at_site("crypt", 1, FaultAction::AbortBatch));
        assert_eq!(fp.hit("dram.write"), None);
        assert_eq!(fp.hit("crypt"), None); // 0th crypt hit
        assert_eq!(fp.hit("dram.write"), None);
        assert_eq!(fp.hit("crypt"), Some(FaultAction::AbortBatch));
    }

    #[test]
    fn persistent_plan_fires_on_every_matching_hit() {
        let mut fp = Failpoints::default();
        fp.arm(FaultPlan::at_site("crypt", 1, FaultAction::CryptError).persistent());
        assert_eq!(fp.hit("crypt"), None); // 0th hit: before `after`
        assert_eq!(fp.hit("crypt"), Some(FaultAction::CryptError));
        assert_eq!(fp.hit("dram.write"), None);
        // Still armed: every later matching hit fires too.
        assert!(fp.is_enabled());
        assert_eq!(fp.hit("crypt"), Some(FaultAction::CryptError));
        assert_eq!(fp.hit("crypt"), Some(FaultAction::CryptError));
        fp.disarm();
        assert_eq!(fp.hit("crypt"), None);
    }

    #[test]
    fn rate_plan_fires_every_period_th_hit_forever() {
        let mut fp = Failpoints::default();
        fp.arm(FaultPlan::at_rate("disk", 3, FaultAction::DiskError));
        let fired: Vec<bool> = (0..9).map(|_| fp.hit("disk").is_some()).collect();
        assert_eq!(
            fired,
            [true, false, false, true, false, false, true, false, false]
        );
        // Other sites never count toward the rate.
        assert_eq!(fp.hit("crypt"), None);
        assert!(fp.is_enabled(), "rate plans stay armed");
    }

    #[test]
    fn burst_plan_fires_len_consecutive_hits_then_disarms() {
        let mut fp = Failpoints::default();
        fp.arm(FaultPlan::burst(
            "accel.submit",
            1,
            2,
            FaultAction::AccelCorrupt,
        ));
        assert_eq!(fp.hit("accel.submit"), None); // 0th: before the storm
        assert_eq!(fp.hit("accel.submit"), Some(FaultAction::AccelCorrupt));
        assert_eq!(fp.hit("accel.submit"), Some(FaultAction::AccelCorrupt));
        // Storm over: the plane disarmed itself, the hardware healed.
        assert!(!fp.is_enabled());
        assert_eq!(fp.hit("accel.submit"), None);
    }

    #[test]
    fn seeded_arming_is_deterministic_and_in_range() {
        let mut a = Failpoints::default();
        let mut b = Failpoints::default();
        a.arm_seeded(7, 100, FaultAction::PowerCut { decay: None });
        b.arm_seeded(7, 100, FaultAction::PowerCut { decay: None });
        let mut fired_at = None;
        for i in 0..100 {
            let ra = a.hit("s");
            let rb = b.hit("s");
            assert_eq!(ra, rb, "same seed, same firing step");
            if ra.is_some() {
                fired_at = Some(i);
            }
        }
        assert!(fired_at.is_some(), "seeded plan fired within range");
    }
}
