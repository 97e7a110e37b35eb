//! ARM TrustZone: secure/normal worlds, protected ranges, and the secure
//! hardware fuse.
//!
//! TrustZone provides two virtual processors backed by hardware access
//! control (§3.1, §10). Sentry uses it for three things:
//!
//! 1. programming the PL310 lockdown registers (secure-world-only
//!    co-processor registers, §10);
//! 2. protecting iRAM from DMA by registering it as a protected range
//!    (§4.4 — iRAM is ordinary system memory to DMA controllers unless
//!    TrustZone software intervenes);
//! 3. reading the secure hardware fuse that seeds the persistent root
//!    key (§7, Bootstrapping).
//!
//! TrustZone does **not** defend against cold boot or bus monitoring:
//! secure-world memory is still ordinary DRAM (§10). The model reflects
//! that by doing nothing to DRAM contents.

use std::ops::Range;

/// The two TrustZone processor worlds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum World {
    /// Where the OS and applications run.
    Normal,
    /// Where the small trusted kernel runs.
    Secure,
}

/// A TrustZone-protected physical range and what it is shielded from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtectedRange {
    /// The physical address range.
    pub range: Range<u64>,
    /// Deny all DMA-master access (the defence of §4.4).
    pub deny_dma: bool,
    /// Deny normal-world CPU access (full secure-world memory).
    pub deny_normal_cpu: bool,
}

/// The TrustZone state of the SoC.
#[derive(Debug, Clone)]
pub struct TrustZone {
    world: World,
    protected: Vec<ProtectedRange>,
    fuse: [u8; 32],
}

impl TrustZone {
    /// Create TrustZone state starting in the normal world, with the
    /// given device-unique fuse value (burned at provisioning time).
    #[must_use]
    pub(crate) fn new(fuse: [u8; 32]) -> Self {
        TrustZone {
            world: World::Normal,
            protected: Vec::new(),
            fuse,
        }
    }

    /// The currently executing world.
    #[must_use]
    pub fn world(&self) -> World {
        self.world
    }

    /// Switch worlds (the SMC instruction). The simulation trusts its
    /// callers to model the secure monitor correctly; the interesting
    /// property is *what* each world is allowed to do, which the `Soc`
    /// façade checks against [`TrustZone::world`].
    pub(crate) fn switch_world(&mut self, world: World) {
        self.world = world;
    }

    /// Register a protected range. Only the secure world may do this;
    /// returns `false` if called from the normal world.
    #[must_use]
    pub fn protect(&mut self, range: ProtectedRange) -> bool {
        if self.world != World::Secure {
            return false;
        }
        self.protected.push(range);
        true
    }

    /// Would a DMA access of `len` bytes at `addr` be allowed?
    ///
    /// TrustZone cannot authenticate DMA masters (§3.1), so protections
    /// apply to *all* DMA devices uniformly.
    #[must_use]
    pub(crate) fn dma_allowed(&self, addr: u64, len: u64) -> bool {
        !self
            .protected
            .iter()
            .any(|p| p.deny_dma && addr < p.range.end && addr + len > p.range.start)
    }

    /// Would a CPU access from the current world be allowed?
    #[must_use]
    pub(crate) fn cpu_allowed(&self, addr: u64, len: u64) -> bool {
        if self.world == World::Secure {
            return true;
        }
        !self
            .protected
            .iter()
            .any(|p| p.deny_normal_cpu && addr < p.range.end && addr + len > p.range.start)
    }

    /// Read the secure hardware fuse — "a random, hard-to-guess number
    /// only readable by code running inside ARM TrustZone" (§7).
    /// Returns `None` from the normal world.
    #[must_use]
    pub fn read_fuse(&self) -> Option<[u8; 32]> {
        (self.world == World::Secure).then_some(self.fuse)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tz() -> TrustZone {
        TrustZone::new([7u8; 32])
    }

    #[test]
    fn fuse_requires_secure_world() {
        let mut t = tz();
        assert_eq!(t.read_fuse(), None);
        t.switch_world(World::Secure);
        assert_eq!(t.read_fuse(), Some([7u8; 32]));
    }

    #[test]
    fn protect_requires_secure_world() {
        let mut t = tz();
        let range = ProtectedRange {
            range: 0x1000..0x2000,
            deny_dma: true,
            deny_normal_cpu: false,
        };
        assert!(!t.protect(range.clone()));
        assert!(t.dma_allowed(0x1800, 4));
        t.switch_world(World::Secure);
        assert!(t.protect(range));
        assert!(!t.dma_allowed(0x1800, 4));
    }

    #[test]
    fn dma_check_covers_partial_overlap() {
        let mut t = tz();
        t.switch_world(World::Secure);
        assert!(t.protect(ProtectedRange {
            range: 0x1000..0x2000,
            deny_dma: true,
            deny_normal_cpu: false,
        }));
        t.switch_world(World::Normal);
        assert!(!t.dma_allowed(0x0FF0, 0x20), "overlap from below");
        assert!(!t.dma_allowed(0x1FF0, 0x20), "overlap from above");
        assert!(t.dma_allowed(0x0F00, 0x100), "adjacent below is fine");
        assert!(t.dma_allowed(0x2000, 0x100), "adjacent above is fine");
    }

    #[test]
    fn normal_cpu_denial_is_separate_from_dma() {
        let mut t = tz();
        t.switch_world(World::Secure);
        assert!(t.protect(ProtectedRange {
            range: 0x4000..0x5000,
            deny_dma: false,
            deny_normal_cpu: true,
        }));
        t.switch_world(World::Normal);
        assert!(t.dma_allowed(0x4000, 16));
        assert!(!t.cpu_allowed(0x4000, 16));
        t.switch_world(World::Secure);
        assert!(t.cpu_allowed(0x4000, 16));
    }
}
