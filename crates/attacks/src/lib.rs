//! Memory attacks against the simulated SoC — the threat model of §3.
//!
//! Three attack classes are implemented, each as a faithful adversary
//! that uses only capabilities available to someone holding a stolen,
//! screen-locked device:
//!
//! * [`coldboot`] — power-cycle the device (warm reboot, reflash tap, or
//!   a held reset) and scan surviving memory for patterns and AES key
//!   schedules (the FROST / aeskeyfind methodology);
//! * [`busmon`] — attach a probe to the memory bus, record every DRAM
//!   transaction, grep the traffic for secrets, and extract AES
//!   table-access patterns (the side channel of Tromer–Osvik–Shamir);
//! * [`dmaattack`] — program a DMA controller to dump physical memory
//!   without CPU cooperation (Firewire-style).
//!
//! [`matrix`] runs all three against each storage option and produces
//! the paper's Table 3. [`faultmatrix`] turns the attacks inward:
//! exhaustive power-cut injection at every reachable failpoint of a
//! lock/unlock/fault/sweep schedule, with a cold-boot scan and a
//! recovery-convergence check at each kill point. [`tamper`] upgrades
//! the adversary from reading DRAM to *writing* it — bit flips, frame
//! splices, stale-epoch replays — and checks the integrity plane turns
//! every manipulation into a typed violation instead of silent
//! corruption.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod busmon;
pub mod coldboot;
pub mod dmaattack;
pub mod faultmatrix;
pub mod matrix;
pub mod related;
pub mod tamper;
pub mod threat_model;

/// The result of running one attack against one target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackReport {
    /// Attack name (e.g. "cold boot (reflash)").
    pub attack: String,
    /// What was targeted (e.g. "iRAM", "locked L2", "DRAM").
    pub target: String,
    /// Whether any secret material was recovered.
    pub recovered: bool,
    /// Human-readable evidence (what was found, or why nothing was).
    pub evidence: String,
}

impl AttackReport {
    /// Shorthand for a failed attack (the defence held).
    #[must_use]
    pub(crate) fn safe(
        attack: impl Into<String>,
        target: impl Into<String>,
        why: impl Into<String>,
    ) -> Self {
        AttackReport {
            attack: attack.into(),
            target: target.into(),
            recovered: false,
            evidence: why.into(),
        }
    }

    /// Shorthand for a successful attack.
    #[must_use]
    pub(crate) fn broken(
        attack: impl Into<String>,
        target: impl Into<String>,
        what: impl Into<String>,
    ) -> Self {
        AttackReport {
            attack: attack.into(),
            target: target.into(),
            recovered: true,
            evidence: what.into(),
        }
    }
}
