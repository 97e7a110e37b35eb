//! The CPU register file, interrupt state, and context-switch spill
//! behaviour.
//!
//! AES On SoC's register hygiene (§6.2) exists because of two leak paths
//! this module models:
//!
//! * **Context switches**: if an interrupt preempts sensitive
//!   computation, the kernel spills all general-purpose registers to the
//!   process's kernel stack — which lives in DRAM. Sentry brackets
//!   sensitive compute sections with `onsoc_disable_irq()` /
//!   `onsoc_enable_irq()`; the latter also **zeroes the registers**
//!   before interrupts are re-enabled.
//! * **Procedure calls**: the ARM AAPCS passes the first four arguments
//!   in registers and the rest on the (DRAM) stack; [`Cpu::pass_args`]
//!   models the calling convention so integrations can assert they never
//!   spill.

/// Number of general-purpose registers spilled on a context switch
/// (r0–r12, sp, lr, pc).
pub(crate) const NUM_REGS: usize = 16;

/// Number of arguments the ARM AAPCS passes in registers (r0–r3); the
/// rest go to the stack.
pub(crate) const REG_ARGS: usize = 4;

/// The simulated CPU core state.
#[derive(Debug, Clone)]
pub struct Cpu {
    regs: [u32; NUM_REGS],
    irqs_enabled: bool,
    preempt_pending: bool,
    /// Cumulative simulated time spent with IRQs disabled, in
    /// nanoseconds. The paper reports ~160 µs per AES On SoC section on
    /// the Tegra 3.
    pub irq_disabled_ns: u64,
    /// Number of IRQ-disabled critical sections entered.
    pub critical_sections: u64,
}

impl Default for Cpu {
    fn default() -> Self {
        Self::new()
    }
}

impl Cpu {
    /// A CPU with zeroed registers and interrupts enabled.
    #[must_use]
    pub(crate) fn new() -> Self {
        Cpu {
            regs: [0u32; NUM_REGS],
            irqs_enabled: true,
            preempt_pending: false,
            irq_disabled_ns: 0,
            critical_sections: 0,
        }
    }

    /// Write a register.
    ///
    /// # Panics
    ///
    /// Panics if `r >= NUM_REGS`.
    pub fn set_reg(&mut self, r: usize, v: u32) {
        self.regs[r] = v;
    }

    /// Mark that the scheduler wants to preempt this core; the next
    /// interruptible moment will trigger a context-switch spill.
    pub fn request_preemption(&mut self) {
        self.preempt_pending = true;
    }

    /// Deliver a pending preemption if interrupts allow it, returning the
    /// register snapshot the kernel would spill to the DRAM stack.
    ///
    /// The *caller* (the kernel model) writes this snapshot to the
    /// process's kernel stack in DRAM — making it visible to memory
    /// attacks — which is precisely the leak `onsoc_disable_irq`
    /// prevents.
    pub fn take_preemption(&mut self) -> Option<[u32; NUM_REGS]> {
        if self.irqs_enabled && self.preempt_pending {
            self.preempt_pending = false;
            Some(self.regs)
        } else {
            None
        }
    }

    /// `onsoc_disable_irq()`: enter an IRQ-disabled critical section
    /// (§6.2, "Handling context switches"). Pair with
    /// [`Cpu::end_critical`]. Returns whether IRQs were enabled before.
    pub fn begin_critical(&mut self) -> bool {
        let was = self.irqs_enabled;
        self.irqs_enabled = false;
        self.critical_sections += 1;
        was
    }

    /// `onsoc_enable_irq()`: leave a critical section begun with
    /// [`Cpu::begin_critical`]. Zeroes all registers, restores the saved
    /// IRQ state, and accumulates `duration_ns` (the section's simulated
    /// time) into [`Cpu::irq_disabled_ns`], so experiments can report the
    /// interrupt-latency impact (the paper measured ~160 µs on average).
    pub fn end_critical(&mut self, was_enabled: bool, duration_ns: u64) {
        self.regs = [0u32; NUM_REGS];
        self.irqs_enabled = was_enabled;
        self.irq_disabled_ns += duration_ns;
    }

    /// Model an AAPCS procedure call with `args`. The first four go to
    /// registers; the rest would be written to the DRAM stack, which the
    /// function reports by returning the spilled slice. AES On SoC's
    /// implementation discipline is that *no call handling sensitive
    /// state takes more than four arguments* (§6.2) — integrations assert
    /// the returned spill is empty.
    pub fn pass_args<'a>(&mut self, args: &'a [u32]) -> &'a [u32] {
        for (i, &a) in args.iter().take(REG_ARGS).enumerate() {
            self.regs[i] = a;
        }
        if args.len() > REG_ARGS {
            &args[REG_ARGS..]
        } else {
            &[]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preemption_delivers_only_with_irqs_enabled() {
        let mut cpu = Cpu::new();
        cpu.set_reg(0, 0xDEAD_BEEF);
        cpu.request_preemption();
        let spill = cpu.take_preemption().expect("irqs enabled, must deliver");
        assert_eq!(spill[0], 0xDEAD_BEEF);
        assert!(!cpu.preempt_pending);
    }

    #[test]
    fn irq_disabled_section_blocks_preemption_and_zeroes_registers() {
        let mut cpu = Cpu::new();
        cpu.request_preemption();
        let was = cpu.begin_critical();
        cpu.set_reg(3, 0x5EC1_2E75);
        let leaked = cpu.take_preemption();
        cpu.end_critical(was, 160_000);
        assert!(leaked.is_none(), "no spill while IRQs are off");
        // Registers were zeroed on exit.
        assert_eq!(cpu.regs[3], 0);
        assert_eq!(cpu.irq_disabled_ns, 160_000);
        assert_eq!(cpu.critical_sections, 1);
        // The pending preemption now delivers, but registers hold nothing.
        let spill = cpu.take_preemption().unwrap();
        assert_eq!(spill, [0u32; NUM_REGS]);
    }

    #[test]
    fn aapcs_spills_fifth_argument_onward() {
        let mut cpu = Cpu::new();
        let spilled = cpu.pass_args(&[1, 2, 3, 4]);
        assert!(spilled.is_empty());
        assert_eq!(cpu.regs[0], 1);
        assert_eq!(cpu.regs[3], 4);
        let spilled = cpu.pass_args(&[1, 2, 3, 4, 5, 6]);
        assert_eq!(spilled, &[5, 6]);
    }

    #[test]
    fn nested_sections_restore_outer_state() {
        let mut cpu = Cpu::new();
        let outer = cpu.begin_critical();
        assert!(!cpu.irqs_enabled);
        let inner = cpu.begin_critical();
        assert!(!cpu.irqs_enabled);
        cpu.end_critical(inner, 5);
        // Inner exit must not re-enable IRQs while the outer section
        // is still active.
        assert!(!cpu.irqs_enabled);
        cpu.end_critical(outer, 10);
        assert!(cpu.irqs_enabled);
        assert_eq!(cpu.irq_disabled_ns, 15);
    }
}
