//! Process control blocks.

use crate::pagetable::PageTable;

/// Process identifier.
pub type Pid = u32;

/// Per-process paging statistics, fed into the experiment harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcStats {
    /// Page faults taken.
    pub(crate) faults: u64,
    /// Bytes decrypted on behalf of this process.
    pub bytes_decrypted: u64,
    /// Bytes encrypted on behalf of this process.
    pub bytes_encrypted: u64,
}

/// A process control block.
#[derive(Debug, Clone)]
pub struct Process {
    /// Process id.
    pub pid: Pid,
    /// Marked sensitive by the user in the settings menu (§7,
    /// "Selective Encryption").
    pub sensitive: bool,
    /// Cleared while the process is parked in the unschedulable queue
    /// (encrypted foreground apps on a locked Nexus 4, §7).
    pub schedulable: bool,
    /// The process's page table.
    pub page_table: PageTable,
    /// Physical base address of the kernel stack (in DRAM — the context
    /// switch spill target).
    pub(crate) kernel_stack: u64,
    /// Paging statistics.
    pub stats: ProcStats,
}

impl Process {
    /// Create a process with an empty address space.
    #[must_use]
    pub(crate) fn new(pid: Pid, kernel_stack: u64) -> Self {
        Process {
            pid,
            sensitive: false,
            schedulable: true,
            page_table: PageTable::new(),
            kernel_stack,
            stats: ProcStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_process_defaults() {
        let p = Process::new(7, 0x8000_4000);
        assert_eq!(p.pid, 7);
        assert!(!p.sensitive);
        assert!(p.schedulable);
        assert!(p.page_table.iter().next().is_none());
        assert_eq!(p.stats, ProcStats::default());
    }
}
