//! Health governor: watchdog deadlines, bounded retry/backoff, and
//! circuit-breaker degraded modes for flaky accelerator and storage.
//!
//! The governor itself lives in [`sentry_crypto::health`] so that both
//! the kernel's dm-crypt read path and this crate's lifecycle engine can
//! own one without a dependency cycle; this module re-exports it under
//! the `sentry_core` namespace where the rest of the lifecycle API
//! lives.
//!
//! The core idea is the paper's Sealer argument run in reverse: because
//! the table-free bitsliced AES path is always available and leaks
//! nothing through DRAM, it is a *trustworthy software fallback* for
//! every hardware crypt engine. The governor makes switching to it a
//! deterministic state machine rather than an ad-hoc error path:
//!
//! - every accelerator wait carries a **watchdog deadline** derived from
//!   the op's own modeled duration (`duration × margin`, floored);
//! - a timed-out op is **abandoned**: the engine is reset, the DMA
//!   bounce window is zeroized, and the work re-runs on the CPU path;
//! - repeated failures inside a sliding window **trip a circuit
//!   breaker** that routes all dispatch to the CPU path (`Open`);
//! - after a cool-down the breaker admits **half-open probes**, and a
//!   run of probe successes closes it again;
//! - transient storage faults get **bounded retries with exponential
//!   sim-clock backoff** instead of either hanging or surfacing raw.
//!
//! See `DESIGN.md` ("Health governor & degraded modes") for the state
//! diagram and threshold derivations.

pub use sentry_crypto::health::*;
