//! The kernel façade: processes, virtual memory, and the fault path.

use crate::crypto_api::{AccelAesEngine, CryptoApi, GenericAesEngine};
use crate::error::KernelError;
use crate::fault::{AccessKind, PageFault};
use crate::frames::FrameAllocator;
use crate::layout::kernel_stack_for;
use crate::pagetable::{Backing, Pte};
use crate::process::{Pid, Process};
use crate::sched::Scheduler;
use crate::zero_thread::ZeroThread;
use sentry_soc::addr::PAGE_SIZE;
use sentry_soc::{Platform, Soc};
use std::collections::BTreeMap;

/// The assembled kernel.
#[derive(Debug)]
pub struct Kernel {
    /// The underlying SoC.
    pub soc: Soc,
    /// Process table.
    pub procs: BTreeMap<Pid, Process>,
    /// Physical frame allocator.
    pub frames: FrameAllocator,
    /// The cipher registry.
    pub crypto: CryptoApi,
    /// The freed-page zeroing thread.
    pub zero_thread: ZeroThread,
    /// The scheduler.
    pub sched: Scheduler,
    /// Frames mapped into more than one address space: frame base →
    /// every `(pid, vpn)` that maps it. Sentry's lock path consults this
    /// to apply the §7 shared-page policy (and to encrypt each shared
    /// frame exactly once).
    pub shared_frames: BTreeMap<u64, Vec<(Pid, u64)>>,
    /// Kept frames (see [`Pte::home_frame`]) the kernel let go of while
    /// unlocked: taken back by a dry pool, or freed with their page.
    /// Their integrity tags are stale until Sentry retires them, which
    /// it does before its next lock stores any tag.
    pub dropped_kept_frames: Vec<u64>,
    next_pid: Pid,
}

impl Kernel {
    /// Boot a kernel on `soc`. Registers the platform's stock ciphers:
    /// the generic software AES everywhere, plus the hardware engine on
    /// the Nexus 4.
    #[must_use]
    pub fn new(soc: Soc) -> Self {
        let mut crypto = CryptoApi::new();
        crypto.register(Box::new(GenericAesEngine::new(0)));
        if soc.platform == Platform::Nexus4 {
            crypto.register(Box::new(AccelAesEngine::new()));
        }
        let frames = FrameAllocator::new(soc.dram.size());
        Kernel {
            soc,
            procs: BTreeMap::new(),
            frames,
            crypto,
            zero_thread: ZeroThread::new(),
            sched: Scheduler::new(),
            shared_frames: BTreeMap::new(),
            dropped_kept_frames: Vec::new(),
            next_pid: 1,
        }
    }

    /// Spawn a process with an empty address space. The name (e.g.
    /// "com.twitter.android") labels the process for the caller only;
    /// the model keeps none.
    pub fn spawn(&mut self, _name: impl Into<String>) -> Pid {
        let pid = self.next_pid;
        self.next_pid += 1;
        let proc = Process::new(pid, kernel_stack_for(pid));
        self.procs.insert(pid, proc);
        self.sched.admit(pid);
        pid
    }

    /// Tear down a process: unmap its whole address space, return
    /// DRAM frames to the dirty queue (they stay there until the
    /// zeroing thread scrubs them, §7), and drop the pid from the
    /// scheduler and the shared-frame registry. A shared frame is
    /// freed only when its last mapper exits. Every page's home frame
    /// dies with it; on-SoC backings are skipped — the caller (Sentry's
    /// teardown path) releases those through the pager before calling
    /// `exit`.
    ///
    /// # Errors
    ///
    /// [`KernelError::UnknownPid`].
    pub fn exit(&mut self, pid: Pid) -> Result<(), KernelError> {
        let proc = self
            .procs
            .remove(&pid)
            .ok_or(KernelError::UnknownPid(pid))?;
        for (_vpn, pte) in proc.page_table.iter() {
            for frame in pte.dram_frames() {
                self.release_frame(pid, frame);
            }
        }
        self.sched.remove(pid);
        Ok(())
    }

    /// Drop `pid`'s claim on `frame`: a private frame joins the dirty
    /// queue now, a shared one only once its last mapper lets go.
    fn release_frame(&mut self, pid: Pid, frame: u64) {
        match self.shared_frames.get_mut(&frame) {
            Some(sharers) => {
                sharers.retain(|&(p, _)| p != pid);
                if sharers.is_empty() {
                    self.shared_frames.remove(&frame);
                    self.frames.free(frame);
                }
            }
            None => self.frames.free(frame),
        }
    }

    /// Borrow a process.
    ///
    /// # Errors
    ///
    /// [`KernelError::UnknownPid`].
    pub fn proc(&self, pid: Pid) -> Result<&Process, KernelError> {
        self.procs.get(&pid).ok_or(KernelError::UnknownPid(pid))
    }

    /// Borrow a process mutably.
    ///
    /// # Errors
    ///
    /// [`KernelError::UnknownPid`].
    pub fn proc_mut(&mut self, pid: Pid) -> Result<&mut Process, KernelError> {
        self.procs.get_mut(&pid).ok_or(KernelError::UnknownPid(pid))
    }

    /// Map `count` anonymous pages starting at `vpn`, eagerly backed by
    /// zeroed DRAM frames.
    ///
    /// # Errors
    ///
    /// [`KernelError::OutOfMemory`] if the pool is exhausted.
    pub fn map_anon(&mut self, pid: Pid, vpn: u64, count: u64) -> Result<(), KernelError> {
        for i in 0..count {
            let frame = self.alloc_frame()?;
            let proc = self
                .procs
                .get_mut(&pid)
                .ok_or(KernelError::UnknownPid(pid))?;
            proc.page_table.map(vpn + i, Pte::resident(frame));
        }
        Ok(())
    }

    /// Unmap and free a page; its DRAM frames — the backing frame and
    /// the home frame, whichever it has — join the dirty queue until the
    /// zeroing thread scrubs them (§7, Securing Freed Pages).
    ///
    /// # Errors
    ///
    /// [`KernelError::UnknownPid`]; unmapping a hole is a no-op.
    pub fn free_page(&mut self, pid: Pid, vpn: u64) -> Result<(), KernelError> {
        let proc = self
            .procs
            .get_mut(&pid)
            .ok_or(KernelError::UnknownPid(pid))?;
        if let Some(pte) = proc.page_table.unmap(vpn) {
            if let (Backing::Dram(_), Some(kept)) = (pte.backing, pte.home_frame) {
                self.dropped_kept_frames.push(kept);
            }
            for frame in pte.dram_frames() {
                self.frames.free(frame);
            }
        }
        Ok(())
    }

    /// Process read at a virtual address.
    ///
    /// Unmapped pages are demand-zero allocated (anonymous memory);
    /// trapping pages raise [`KernelError::Fault`] for the pager to
    /// resolve, after which the caller retries.
    ///
    /// # Errors
    ///
    /// [`KernelError::Fault`] and allocation/SoC errors.
    pub fn read(&mut self, pid: Pid, vaddr: u64, buf: &mut [u8]) -> Result<(), KernelError> {
        self.access(
            pid,
            vaddr,
            AccessKind::Read,
            buf.len(),
            |soc, phys, off, n, buf| {
                soc.mem_read(phys, &mut buf[off..off + n])
                    .map_err(Into::into)
            },
            buf,
        )
    }

    /// Process write at a virtual address. Marks touched pages dirty.
    ///
    /// # Errors
    ///
    /// [`KernelError::Fault`] and allocation/SoC errors.
    pub fn write(&mut self, pid: Pid, vaddr: u64, data: &[u8]) -> Result<(), KernelError> {
        // `access` wants a uniform buffer type; wrap the immutable data.
        let mut scratch = data.to_vec();
        self.access(
            pid,
            vaddr,
            AccessKind::Write,
            data.len(),
            |soc, phys, off, n, buf| soc.mem_write(phys, &buf[off..off + n]).map_err(Into::into),
            &mut scratch,
        )
    }

    fn access(
        &mut self,
        pid: Pid,
        vaddr: u64,
        kind: AccessKind,
        len: usize,
        op: impl Fn(&mut Soc, u64, usize, usize, &mut [u8]) -> Result<(), KernelError>,
        buf: &mut [u8],
    ) -> Result<(), KernelError> {
        let mut done = 0usize;
        while done < len {
            let cur = vaddr + done as u64;
            let vpn = cur / PAGE_SIZE;
            let page_off = cur % PAGE_SIZE;
            let n = ((PAGE_SIZE - page_off) as usize).min(len - done);

            self.ensure_mapped(pid, vpn)?;
            let proc = self
                .procs
                .get_mut(&pid)
                .ok_or(KernelError::UnknownPid(pid))?;
            let pte = proc
                .page_table
                .get_mut(vpn)
                .expect("ensure_mapped installed a PTE");
            if pte.traps() {
                proc.stats.faults += 1;
                return Err(KernelError::Fault(PageFault { pid, vpn, kind }));
            }
            let base = match pte.backing {
                Backing::Dram(f) | Backing::OnSoc(f) => f,
            };
            if kind == AccessKind::Write {
                pte.dirty = true;
            }
            op(&mut self.soc, base + page_off, done, n, buf)?;
            done += n;
        }
        Ok(())
    }

    /// A zeroed frame for a new mapping. When the pool is dry, the
    /// first kept frame in pid and address order is given up instead: a
    /// page whose plaintext sits in another frame holds on to its
    /// ciphertext only so its next lock costs no cipher work, so a kept
    /// frame never costs another mapping its memory. The frame is
    /// scrubbed here and queued in [`Kernel::dropped_kept_frames`].
    ///
    /// # Errors
    ///
    /// [`KernelError::OutOfMemory`] if the pool is dry and no page
    /// keeps a frame; memory errors from the scrub.
    fn alloc_frame(&mut self) -> Result<u64, KernelError> {
        if let Some(frame) = self.frames.alloc() {
            return Ok(frame);
        }
        let frame = self
            .procs
            .values_mut()
            .flat_map(|p| p.page_table.iter_mut())
            .find_map(|(_, pte)| match pte.backing {
                Backing::Dram(_) if !pte.encrypted => pte.home_frame.take(),
                _ => None,
            })
            .ok_or(KernelError::OutOfMemory)?;
        self.dropped_kept_frames.push(frame);
        if let Err(e) = self.soc.mem_write(frame, &[0u8; PAGE_SIZE as usize]) {
            // Left to the zeroing thread, like any freed frame.
            self.frames.free(frame);
            return Err(e.into());
        }
        Ok(frame)
    }

    /// Demand-zero allocate a PTE if the page is unmapped.
    fn ensure_mapped(&mut self, pid: Pid, vpn: u64) -> Result<(), KernelError> {
        let proc = self
            .procs
            .get_mut(&pid)
            .ok_or(KernelError::UnknownPid(pid))?;
        if proc.page_table.get(vpn).is_none() {
            let frame = self.alloc_frame()?;
            let proc = self.procs.get_mut(&pid).expect("checked above");
            proc.page_table.map(vpn, Pte::resident(frame));
            proc.stats.faults += 1;
            self.soc.clock.advance(self.soc.costs.page_fault_ns);
        }
        Ok(())
    }

    /// Map `owner`'s page at `owner_vpn` into `other`'s address space at
    /// `other_vpn`, sharing the same physical frame (shared memory /
    /// shared libraries). Both mappings are registered in
    /// [`Kernel::shared_frames`] so Sentry's lock walk can classify the
    /// page per §7 and encrypt it exactly once.
    ///
    /// # Errors
    ///
    /// [`KernelError::UnknownPid`] for bad pids;
    /// [`KernelError::Fault`] if the owner's page is unmapped or not
    /// DRAM-resident.
    pub fn map_shared(
        &mut self,
        owner: Pid,
        owner_vpn: u64,
        other: Pid,
        other_vpn: u64,
    ) -> Result<(), KernelError> {
        self.ensure_mapped(owner, owner_vpn)?;
        let frame = {
            let proc = self.proc(owner)?;
            let pte = proc.page_table.get(owner_vpn).expect("ensured above");
            match pte.backing {
                Backing::Dram(f) => f,
                Backing::OnSoc(_) => {
                    return Err(KernelError::Fault(PageFault {
                        pid: owner,
                        vpn: owner_vpn,
                        kind: AccessKind::Read,
                    }))
                }
            }
        };
        // Check `other` exists before mutating anything.
        let _ = self.proc(other)?;
        let owner_pte = *self
            .proc(owner)?
            .page_table
            .get(owner_vpn)
            .expect("ensured");
        // The home frame stays the owner's alone: one mapping answers
        // for it.
        let other_pte = Pte {
            home_frame: None,
            ..owner_pte
        };
        self.proc_mut(other)?.page_table.map(other_vpn, other_pte);

        let sharers = self.shared_frames.entry(frame).or_default();
        for entry in [(owner, owner_vpn), (other, other_vpn)] {
            if !sharers.contains(&entry) {
                sharers.push(entry);
            }
        }
        Ok(())
    }

    /// Everyone mapping `frame`, if it is shared (two or more mappers).
    #[must_use]
    pub fn sharers_of(&self, frame: u64) -> Option<&[(Pid, u64)]> {
        self.shared_frames
            .get(&frame)
            .map(Vec::as_slice)
            .filter(|s| s.len() > 1)
    }

    /// Run the zeroing thread to completion — the freed-page barrier of
    /// Sentry's lock path. Returns the simulated drain time in
    /// nanoseconds.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn drain_zero_thread(&mut self) -> Result<u64, KernelError> {
        let Kernel {
            soc,
            frames,
            zero_thread,
            ..
        } = self;
        zero_thread.drain(frames, soc)
    }

    /// Preempt the process `pid`: spill the CPU registers to its kernel
    /// stack in DRAM. This is the context-switch leak AES On SoC's IRQ
    /// discipline prevents.
    ///
    /// # Errors
    ///
    /// Propagates memory errors from the stack spill.
    pub fn preempt(&mut self, pid: Pid) -> Result<bool, KernelError> {
        let stack = self.proc(pid)?.kernel_stack;
        self.soc.cpu.request_preemption();
        Ok(self.soc.deliver_preemption(stack)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagetable::Sharing;

    fn kernel() -> Kernel {
        Kernel::new(Soc::tegra3_small())
    }

    #[test]
    fn spawn_and_rw_roundtrip() {
        let mut k = kernel();
        let pid = k.spawn("app");
        k.write(pid, 0x1000, b"hello virtual world").unwrap();
        let mut buf = [0u8; 19];
        k.read(pid, 0x1000, &mut buf).unwrap();
        assert_eq!(&buf, b"hello virtual world");
    }

    #[test]
    fn demand_zero_pages_read_as_zero() {
        let mut k = kernel();
        let pid = k.spawn("app");
        let mut buf = [0xAAu8; 64];
        k.read(pid, 0x7F000, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 64]);
        assert!(k.proc(pid).unwrap().stats.faults >= 1);
    }

    #[test]
    fn access_spans_page_boundaries() {
        let mut k = kernel();
        let pid = k.spawn("app");
        let data: Vec<u8> = (0..100).collect();
        k.write(pid, PAGE_SIZE - 50, &data).unwrap();
        let mut buf = vec![0u8; 100];
        k.read(pid, PAGE_SIZE - 50, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn cleared_young_bit_faults() {
        let mut k = kernel();
        let pid = k.spawn("app");
        k.write(pid, 0x1000, b"data").unwrap();
        k.proc_mut(pid)
            .unwrap()
            .page_table
            .get_mut(1)
            .unwrap()
            .young = false;
        let mut buf = [0u8; 4];
        let err = k.read(pid, 0x1000, &mut buf).unwrap_err();
        assert!(
            matches!(err, KernelError::Fault(PageFault { pid: p, vpn: 1, .. }) if p == pid),
            "got {err:?}"
        );
        // Pager resolves: set young again, retry succeeds.
        k.proc_mut(pid)
            .unwrap()
            .page_table
            .get_mut(1)
            .unwrap()
            .young = true;
        k.read(pid, 0x1000, &mut buf).unwrap();
        assert_eq!(&buf, b"data");
    }

    #[test]
    fn freed_pages_flow_through_zero_thread() {
        let mut k = kernel();
        let pid = k.spawn("app");
        k.write(pid, 0, b"secret").unwrap();
        let frame = match k.proc(pid).unwrap().page_table.get(0).unwrap().backing {
            Backing::Dram(f) => f,
            Backing::OnSoc(_) => unreachable!(),
        };
        k.free_page(pid, 0).unwrap();
        assert_eq!(k.frames.dirty_count(), 1);
        k.drain_zero_thread().unwrap();
        assert_eq!(k.frames.dirty_count(), 0);
        let mut buf = [0u8; 6];
        k.soc.mem_read(frame, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 6]);
    }

    #[test]
    fn a_dry_pool_takes_back_a_kept_frame_scrubbed() {
        let mut k = kernel();
        let pid = k.spawn("app");
        k.map_anon(pid, 0, 1).unwrap();
        let kept = k.frames.alloc().unwrap();
        k.soc.mem_write(kept, &[0xC7u8; 64]).unwrap();
        k.proc_mut(pid)
            .unwrap()
            .page_table
            .get_mut(0)
            .unwrap()
            .home_frame = Some(kept);
        while k.frames.alloc().is_some() {}
        let other = k.spawn("other");
        k.write(other, 0, &[1u8; 8]).unwrap();
        assert_eq!(
            k.proc(other).unwrap().page_table.get(0).unwrap().backing,
            Backing::Dram(kept)
        );
        let mut buf = [0xFFu8; 64];
        k.soc.mem_read(kept + 8, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 64], "scrubbed before reuse");
        assert_eq!(
            k.proc(pid).unwrap().page_table.get(0).unwrap().home_frame,
            None
        );
        assert_eq!(k.dropped_kept_frames, vec![kept]);
        assert!(matches!(
            k.map_anon(other, 1, 1),
            Err(KernelError::OutOfMemory)
        ));
    }

    #[test]
    fn free_page_frees_the_home_frame_of_an_on_soc_page() {
        let mut k = kernel();
        let pid = k.spawn("app");
        k.map_anon(pid, 0, 1).unwrap();
        let pte = k.proc_mut(pid).unwrap().page_table.get_mut(0).unwrap();
        let Backing::Dram(home) = pte.backing else {
            unreachable!("map_anon backs pages in DRAM")
        };
        // Resident on-SoC, as the pager leaves a paged-in page.
        pte.backing = Backing::OnSoc(0x4000_0000);
        pte.home_frame = Some(home);
        k.free_page(pid, 0).unwrap();
        assert_eq!(k.frames.dirty_count(), 1, "the home frame leaked");
    }

    #[test]
    fn free_page_and_exit_free_a_kept_frame_with_its_page() {
        let mut k = kernel();
        let pid = k.spawn("app");
        k.map_anon(pid, 0, 2).unwrap();
        let kept = k.frames.alloc().unwrap();
        for vpn in 0..2 {
            k.proc_mut(pid)
                .unwrap()
                .page_table
                .get_mut(vpn)
                .unwrap()
                .home_frame = Some(kept + vpn * PAGE_SIZE);
        }
        k.free_page(pid, 0).unwrap();
        assert_eq!(k.frames.dirty_count(), 2, "backing and kept frame");
        assert_eq!(k.dropped_kept_frames, vec![kept], "its tag is stale");
        k.exit(pid).unwrap();
        assert_eq!(k.frames.dirty_count(), 4);
    }

    #[test]
    fn nexus_registers_hw_engine() {
        let k = Kernel::new(Soc::nexus4_small());
        let names: Vec<&str> = k.crypto.listing().iter().map(|(n, _)| *n).collect();
        assert!(names.contains(&"aes-cbc-hw"));
        let k = Kernel::new(Soc::tegra3_small());
        let names: Vec<&str> = k.crypto.listing().iter().map(|(n, _)| *n).collect();
        assert!(!names.contains(&"aes-cbc-hw"));
    }

    #[test]
    fn preempt_spills_to_kernel_stack() {
        let mut k = kernel();
        let pid = k.spawn("app");
        k.soc.cpu.set_reg(2, 0xFEED_BEEF);
        assert!(k.preempt(pid).unwrap());
        let stack = k.proc(pid).unwrap().kernel_stack;
        let mut raw = [0u8; 4];
        k.soc.mem_read(stack + 8, &mut raw).unwrap();
        assert_eq!(u32::from_le_bytes(raw), 0xFEED_BEEF);
    }

    #[test]
    fn exit_frees_frames_and_respects_sharing() {
        let mut k = kernel();
        let a = k.spawn("a");
        let b = k.spawn("b");
        k.write(a, 0x1000, b"private").unwrap();
        k.map_shared(a, 9, b, 9).unwrap();
        let before = k.frames.dirty_count();
        k.exit(a).unwrap();
        // The private frame joins the dirty queue; the shared frame is
        // still pinned by `b`.
        assert_eq!(k.frames.dirty_count(), before + 1);
        assert!(k.proc(a).is_err());
        let mut buf = [0u8; 1];
        k.read(b, 9 * PAGE_SIZE, &mut buf).unwrap();
        k.exit(b).unwrap();
        assert!(k.shared_frames.is_empty());
        assert_eq!(k.frames.dirty_count(), before + 2);
    }

    #[test]
    fn sharing_default_is_private() {
        let mut k = kernel();
        let pid = k.spawn("app");
        k.map_anon(pid, 0, 1).unwrap();
        assert_eq!(
            k.proc(pid).unwrap().page_table.get(0).unwrap().sharing,
            Sharing::Private
        );
    }
}
