//! Physical-memory layout used by the kernel model.
//!
//! DRAM is carved into three regions:
//!
//! * a kernel-reserved region (kernel stacks, crypto-API key storage —
//!   the DRAM residency of generic AES key material is exactly what the
//!   cold-boot attacks recover);
//! * a window reserved for locked-L2 backing addresses: pages whose
//!   physical addresses map into locked cache ways. These addresses are
//!   never written back, so the DRAM behind them stays stale; reserving
//!   the window keeps the frame allocator from handing the same
//!   addresses to ordinary memory;
//! * the user frame pool everything else allocates from.

use sentry_soc::addr::{DRAM_BASE, PAGE_SIZE};

/// Size of the kernel-reserved low region.
pub(crate) const KERNEL_RESERVED: u64 = 16 << 20;

/// Base of the kernel-reserved region.
pub(crate) const KERNEL_BASE: u64 = DRAM_BASE;

/// Base of per-process kernel stacks (16 KiB each, within the kernel
/// region).
pub(crate) const KERNEL_STACKS_BASE: u64 = KERNEL_BASE + (1 << 20);

/// Bytes of kernel stack per process.
pub(crate) const KERNEL_STACK_SIZE: u64 = 16 * 1024;

/// Base of the crypto-accelerator DMA bounce window. The engine is a
/// bus master: descriptors point it at DRAM, so everything it touches
/// is visible to a bus monitor. Staging accelerator I/O through this
/// fixed window keeps that traffic honest — and means a power cut
/// mid-transfer leaves only what the window held (ciphertext; plaintext
/// results are written back only at operation completion).
pub(crate) const ACCEL_DMA_BASE: u64 = KERNEL_BASE + (4 << 20);

/// Size of the accelerator DMA bounce window.
pub(crate) const ACCEL_DMA_SIZE: u64 = 1 << 20;

/// DMA controller id the crypto accelerator masters the bus as.
/// (Controller 0 is the id the DMA-attack experiments use for rogue
/// peripherals; giving the accelerator its own id keeps traces legible.)
pub(crate) const ACCEL_DMA_CONTROLLER: u8 = 1;

/// Where the generic (DRAM-resident) AES engine keeps its key schedule — kernel
/// heap, in DRAM.
pub(crate) const CRYPTO_KEYS_BASE: u64 = KERNEL_BASE + (8 << 20);

/// Base of the locked-L2 window region.
pub const LOCKED_WINDOW_BASE: u64 = DRAM_BASE + KERNEL_RESERVED;

/// Size of the locked-L2 window region (enough for many 128 KiB way
/// windows).
pub const LOCKED_WINDOW_SIZE: u64 = 16 << 20;

/// Base of the user frame pool.
pub(crate) const USER_POOL_BASE: u64 = LOCKED_WINDOW_BASE + LOCKED_WINDOW_SIZE;

/// Kernel stack (base) address for a process id.
#[must_use]
pub(crate) fn kernel_stack_for(pid: u32) -> u64 {
    KERNEL_STACKS_BASE + u64::from(pid) * KERNEL_STACK_SIZE
}

/// Number of user-pool frames available in a DRAM of `dram_size` bytes.
#[must_use]
pub(crate) fn user_pool_frames(dram_size: u64) -> u64 {
    (DRAM_BASE + dram_size).saturating_sub(USER_POOL_BASE) / PAGE_SIZE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)] // the layout *is* constant;
                                              // the test documents and guards the invariants if constants change.
    fn regions_are_ordered_and_disjoint() {
        assert!(KERNEL_BASE < LOCKED_WINDOW_BASE);
        assert_eq!(LOCKED_WINDOW_BASE, KERNEL_BASE + KERNEL_RESERVED);
        assert_eq!(USER_POOL_BASE, LOCKED_WINDOW_BASE + LOCKED_WINDOW_SIZE);
        assert!(CRYPTO_KEYS_BASE < LOCKED_WINDOW_BASE);
        assert!(KERNEL_STACKS_BASE + 64 * KERNEL_STACK_SIZE < CRYPTO_KEYS_BASE);
        // The accel DMA bounce window sits between the kernel stacks and
        // the crypto-key heap, inside the kernel-reserved region.
        assert!(KERNEL_STACKS_BASE + 64 * KERNEL_STACK_SIZE <= ACCEL_DMA_BASE);
        assert!(ACCEL_DMA_BASE + ACCEL_DMA_SIZE <= CRYPTO_KEYS_BASE);
    }

    #[test]
    fn pool_frames_for_small_dram() {
        // 64 MiB DRAM leaves 32 MiB of user pool = 8192 frames.
        assert_eq!(user_pool_frames(64 << 20), 8192);
        // Too-small DRAM leaves nothing (saturating).
        assert_eq!(user_pool_frames(16 << 20), 0);
    }

    #[test]
    fn kernel_stacks_do_not_collide() {
        assert_eq!(kernel_stack_for(0) + KERNEL_STACK_SIZE, kernel_stack_for(1));
    }
}
