//! The physical frame allocator and the freed-frame queue.
//!
//! Freed frames are *not* immediately reusable: they may contain secrets
//! of the sensitive application that freed them, and Linux only zeroes
//! them from a kernel thread "with no guarantee when this is done" (§7).
//! The allocator therefore keeps freed frames in a dirty queue that the
//! [`crate::zero_thread::ZeroThread`] drains; Sentry's lock path waits
//! for the drain before declaring the device locked.

use crate::layout::{user_pool_frames, USER_POOL_BASE};
use sentry_soc::addr::PAGE_SIZE;
use std::collections::VecDeque;

/// Allocates 4 KiB frames from the user pool.
#[derive(Debug, Clone)]
pub struct FrameAllocator {
    next_fresh: u64,
    limit: u64,
    free: Vec<u64>,
    freed_dirty: VecDeque<u64>,
}

impl FrameAllocator {
    /// An allocator over the user pool of a DRAM with `dram_size` bytes.
    #[must_use]
    pub(crate) fn new(dram_size: u64) -> Self {
        FrameAllocator {
            next_fresh: USER_POOL_BASE,
            limit: USER_POOL_BASE + user_pool_frames(dram_size) * PAGE_SIZE,
            free: Vec::new(),
            freed_dirty: VecDeque::new(),
        }
    }

    /// Allocate a frame, returning its physical base address.
    ///
    /// Fresh (never-used) frames and zeroed frames are both clean;
    /// frames in the dirty queue are *not* eligible until zeroed.
    #[must_use]
    pub fn alloc(&mut self) -> Option<u64> {
        if let Some(frame) = self.free.pop() {
            return Some(frame);
        }
        if self.next_fresh < self.limit {
            let frame = self.next_fresh;
            self.next_fresh += PAGE_SIZE;
            Some(frame)
        } else {
            None
        }
    }

    /// Return frames that were allocated but never written, newest
    /// first: the allocator is left exactly as before they were taken,
    /// so the next allocations hand out the same frames in the same
    /// order.
    pub fn give_back(&mut self, frames: impl IntoIterator<Item = u64>) {
        for frame in frames {
            if frame + PAGE_SIZE == self.next_fresh {
                self.next_fresh = frame;
            } else {
                self.free.push(frame);
            }
        }
    }

    /// Free a frame: it joins the dirty queue until the zeroing thread
    /// scrubs it.
    pub fn free(&mut self, frame: u64) {
        debug_assert!(frame.is_multiple_of(PAGE_SIZE), "frames are page aligned");
        self.freed_dirty.push_back(frame);
    }

    /// The next dirty frame to scrub, left in the queue.
    #[must_use]
    pub(crate) fn peek_dirty(&self) -> Option<u64> {
        self.freed_dirty.front().copied()
    }

    /// Take the next dirty frame for scrubbing.
    #[must_use]
    pub(crate) fn pop_dirty(&mut self) -> Option<u64> {
        self.freed_dirty.pop_front()
    }

    /// Return a scrubbed frame to the clean free list.
    pub(crate) fn push_clean(&mut self, frame: u64) {
        self.free.push(frame);
    }

    /// Number of frames awaiting zeroing.
    #[must_use]
    pub fn dirty_count(&self) -> usize {
        self.freed_dirty.len()
    }

    /// Number of immediately allocatable frames (clean free list plus
    /// untouched pool).
    #[must_use]
    pub fn available(&self) -> u64 {
        self.free.len() as u64 + (self.limit - self.next_fresh) / PAGE_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_returns_distinct_page_aligned_frames() {
        let mut a = FrameAllocator::new(64 << 20);
        let f1 = a.alloc().unwrap();
        let f2 = a.alloc().unwrap();
        assert_ne!(f1, f2);
        assert_eq!(f1 % PAGE_SIZE, 0);
        assert_eq!(f2 % PAGE_SIZE, 0);
        assert!(f1 >= USER_POOL_BASE);
    }

    #[test]
    fn freed_frames_are_not_reused_until_zeroed() {
        // Allocate the entire pool, free one frame, and verify it cannot
        // be re-allocated before scrubbing.
        let mut a = FrameAllocator::new(33 << 20); // 1 MiB pool = 256 frames
        let mut frames = Vec::new();
        while let Some(f) = a.alloc() {
            frames.push(f);
        }
        assert_eq!(frames.len(), 256);
        let victim = frames[0];
        a.free(victim);
        assert!(a.alloc().is_none(), "dirty frame must not be handed out");
        let dirty = a.pop_dirty().unwrap();
        assert_eq!(dirty, victim);
        a.push_clean(dirty);
        assert_eq!(a.alloc(), Some(victim));
    }

    #[test]
    fn giving_frames_back_restores_the_allocation_order() {
        let mut a = FrameAllocator::new(33 << 20);
        let x = a.alloc().unwrap();
        a.free(x);
        let d = a.pop_dirty().unwrap();
        a.push_clean(d);
        let taken: Vec<u64> = (0..3).map(|_| a.alloc().unwrap()).collect();
        a.give_back(taken.iter().rev().copied());
        let again: Vec<u64> = (0..3).map(|_| a.alloc().unwrap()).collect();
        assert_eq!(again, taken);
        assert_eq!(a.available(), 253);
    }

    #[test]
    fn available_counts_pool_and_free_list() {
        let mut a = FrameAllocator::new(33 << 20);
        assert_eq!(a.available(), 256);
        let f = a.alloc().unwrap();
        assert_eq!(a.available(), 255);
        a.free(f);
        assert_eq!(a.available(), 255, "dirty frames are unavailable");
        let d = a.pop_dirty().unwrap();
        a.push_clean(d);
        assert_eq!(a.available(), 256);
    }
}
