//! The freed-page zeroing kernel thread.
//!
//! "Linux has a kernel thread whose job is to zero-out these freed pages,
//! \[but\] there is no guarantee when this is done" (§7). Sentry closes the
//! resulting window by *waiting for the thread to drain* before declaring
//! the screen locked. The paper measured the thread at 4.014 GB/s with an
//! energy cost of 2.8 µJ/MB on the Nexus 4 — negligible, which is the
//! point of the measurement.

use crate::error::KernelError;
use crate::frames::FrameAllocator;
use sentry_soc::addr::PAGE_SIZE;
use sentry_soc::Soc;

/// Statistics of the zeroing thread.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ZeroStats {
    /// Bytes zeroed so far.
    pub(crate) bytes: u64,
    /// Simulated time spent zeroing, nanoseconds.
    pub(crate) ns: u64,
    /// Energy spent zeroing, joules (2.8 µJ/MB).
    pub joules: f64,
}

/// The zeroing thread.
#[derive(Debug, Clone, Default)]
pub struct ZeroThread {
    /// Cumulative statistics.
    pub stats: ZeroStats,
}

/// Energy cost of zeroing, joules per byte (2.8 µJ/MB, §7).
pub(crate) const ZERO_J_PER_BYTE: f64 = 2.8e-6 / (1024.0 * 1024.0);

impl ZeroThread {
    /// A fresh thread.
    #[must_use]
    pub(crate) fn new() -> Self {
        ZeroThread::default()
    }

    /// Zero one dirty frame, if any. Returns whether a frame was
    /// processed.
    ///
    /// The zeroes are written through the cache (so stale dirty lines
    /// cannot later overwrite them), but the *time* charged is the
    /// calibrated 4.014 GB/s rate rather than the per-line simulation
    /// cost — see [`sentry_soc::SimClock::set_now_ns`].
    ///
    /// # Errors
    ///
    /// Propagates memory errors. A frame whose write fails stays at the
    /// head of the dirty queue, so a retried drain zeroes it.
    pub(crate) fn step(
        &mut self,
        frames: &mut FrameAllocator,
        soc: &mut Soc,
    ) -> Result<bool, KernelError> {
        let Some(frame) = frames.peek_dirty() else {
            return Ok(false);
        };
        let t0 = soc.clock.now_ns();
        soc.mem_write(frame, &[0u8; PAGE_SIZE as usize])?;
        let _ = frames.pop_dirty();
        // Substitute the calibrated end-to-end rate for the per-access
        // charges.
        let charged = soc.costs.zeroing_ns(PAGE_SIZE);
        soc.clock.set_now_ns(t0 + charged);
        frames.push_clean(frame);
        self.stats.bytes += PAGE_SIZE;
        self.stats.ns += charged;
        self.stats.joules += PAGE_SIZE as f64 * ZERO_J_PER_BYTE;
        Ok(true)
    }

    /// Zero *all* dirty frames — the barrier Sentry's lock path runs
    /// before declaring the device locked. Returns the simulated time the
    /// drain took.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub(crate) fn drain(
        &mut self,
        frames: &mut FrameAllocator,
        soc: &mut Soc,
    ) -> Result<u64, KernelError> {
        let t0 = soc.clock.now_ns();
        while self.step(frames, soc)? {}
        Ok(soc.clock.now_ns() - t0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentry_soc::addr::DRAM_BASE;

    #[test]
    fn zeroes_frames_and_returns_them_to_service() {
        let mut soc = Soc::tegra3_small();
        let mut frames = FrameAllocator::new(64 << 20);
        let mut zt = ZeroThread::new();

        let frame = frames.alloc().unwrap();
        soc.mem_write(frame, b"residual secret").unwrap();
        frames.free(frame);
        assert_eq!(frames.dirty_count(), 1);

        assert!(zt.step(&mut frames, &mut soc).unwrap());
        assert_eq!(frames.dirty_count(), 0);
        let mut buf = [0u8; 15];
        soc.mem_read(frame, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 15]);
        assert!(!zt.step(&mut frames, &mut soc).unwrap(), "queue is empty");
    }

    #[test]
    fn a_frame_whose_zeroing_fails_stays_queued() {
        use sentry_soc::failpoint::{FaultAction, FaultPlan};
        let mut soc = Soc::tegra3_small();
        let mut frames = FrameAllocator::new(64 << 20);
        let mut zt = ZeroThread::new();
        let frame = frames.alloc().unwrap();
        frames.free(frame);
        soc.failpoints.arm(FaultPlan::at_site(
            "dram.write",
            0,
            FaultAction::PowerCut { decay: None },
        ));
        assert!(zt.step(&mut frames, &mut soc).is_err());
        soc.failpoints.disarm();
        assert_eq!(frames.dirty_count(), 1, "the frame was lost");
        assert!(zt.step(&mut frames, &mut soc).unwrap());
        assert_eq!(frames.alloc(), Some(frame));
    }

    #[test]
    fn drain_rate_matches_calibration() {
        let mut soc = Soc::tegra3_small();
        let mut frames = FrameAllocator::new(64 << 20);
        let mut zt = ZeroThread::new();
        let n = 256u64; // 1 MiB
        for _ in 0..n {
            let f = frames.alloc().unwrap();
            frames.free(f);
        }
        let ns = zt.drain(&mut frames, &mut soc).unwrap();
        let gb_per_sec = (n * PAGE_SIZE) as f64 / (ns as f64 / 1e9) / 1e9;
        // Tegra cost model zeroes at 2 GB/s.
        assert!((1.8..2.2).contains(&gb_per_sec), "rate {gb_per_sec} GB/s");
    }

    #[test]
    fn energy_accounting_matches_paper_constant() {
        let mut soc = Soc::tegra3_small();
        let mut frames = FrameAllocator::new(64 << 20);
        let mut zt = ZeroThread::new();
        for _ in 0..256 {
            let f = frames.alloc().unwrap();
            frames.free(f);
        }
        zt.drain(&mut frames, &mut soc).unwrap();
        // 1 MiB at 2.8 µJ/MB.
        assert!((zt.stats.joules - 2.8e-6).abs() < 1e-9);
        let _ = DRAM_BASE;
    }
}
