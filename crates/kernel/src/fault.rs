//! Page faults.
//!
//! Sentry's encrypted-DRAM mechanism is built entirely on faults: the
//! paper clears the ARM `young` bit of a PTE "to ensure we trap whenever
//! this page is accessed" (§5), decrypts on page-in, and re-arms the
//! trap on page-out. The kernel model surfaces those traps as values so
//! the pager's logic is explicit and testable.

use std::fmt;

/// Whether the faulting access was a load or a store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum AccessKind {
    /// Load.
    Read,
    /// Store.
    Write,
}

/// A trapped memory access.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PageFault {
    /// The faulting process.
    pub pid: u32,
    /// The virtual page number of the faulting address.
    pub vpn: u64,
    /// Load or store.
    pub(crate) kind: AccessKind,
}

impl fmt::Display for PageFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pid {} {} vpn {:#x}",
            self.pid,
            match self.kind {
                AccessKind::Read => "read of",
                AccessKind::Write => "write to",
            },
            self.vpn
        )
    }
}

/// Telemetry for one *resolved* on-demand fault: what the dispatcher
/// actually decrypted and what it cost.
///
/// With fault-cluster readahead a single trap may decrypt several
/// spatially-adjacent pages in one batched kernel call; `pages` counts
/// the faulting page plus those readahead companions, and `duration_ns`
/// is the simulated end-to-end latency the faulting access observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultResolution {
    /// The faulting process.
    pub pid: u32,
    /// The virtual page number that trapped.
    pub vpn: u64,
    /// Pages decrypted while servicing this fault (>= 1; > 1 means the
    /// readahead cluster pulled in encrypted neighbours).
    pub pages: usize,
    /// Simulated nanoseconds from trap entry to resolution.
    pub duration_ns: u64,
}

impl fmt::Display for FaultResolution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pid {} vpn {:#x}: {} page(s) in {} ns",
            self.pid, self.vpn, self.pages, self.duration_ns
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolution_display_mentions_pages_and_cost() {
        let r = FaultResolution {
            pid: 3,
            vpn: 0x10,
            pages: 8,
            duration_ns: 1234,
        };
        let s = r.to_string();
        assert!(s.contains("8 page(s)") && s.contains("1234"));
    }

    #[test]
    fn display_mentions_pid_and_vpn() {
        let f = PageFault {
            pid: 9,
            vpn: 0x42,
            kind: AccessKind::Write,
        };
        let s = f.to_string();
        assert!(s.contains("9") && s.contains("0x42") && s.contains("write"));
    }
}
