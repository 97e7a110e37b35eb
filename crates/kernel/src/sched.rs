//! A round-robin scheduler with an unschedulable queue.
//!
//! Sentry's Nexus 4 prototype "marks encrypted processes as
//! un-schedulable and places them in a special queue to prevent them from
//! running in the background while the phone remains locked" (§7). The
//! scheduler model keeps that mechanism explicit: processes whose
//! `schedulable` flag is cleared are skipped by [`Scheduler::next`], and
//! experiments can assert an encrypted app never got CPU time while
//! locked.

use crate::process::{Pid, Process};
use std::collections::{BTreeMap, VecDeque};

/// Round-robin over schedulable processes.
#[derive(Debug, Clone, Default)]
pub struct Scheduler {
    queue: VecDeque<Pid>,
    /// Timer ticks delivered via [`Scheduler::tick`]. The tick is where
    /// periodic kernel work hangs — for Sentry, the background decrypt
    /// sweeper runs a budgeted step per tick.
    pub ticks: u64,
}

impl Scheduler {
    /// An empty scheduler.
    #[must_use]
    pub(crate) fn new() -> Self {
        Scheduler::default()
    }

    /// Add a process to the run queue.
    pub(crate) fn admit(&mut self, pid: Pid) {
        if !self.queue.contains(&pid) {
            self.queue.push_back(pid);
        }
    }

    /// Remove a process entirely (exit).
    pub(crate) fn remove(&mut self, pid: Pid) {
        self.queue.retain(|&p| p != pid);
    }

    /// Deliver one timer tick. Returns the tick count so periodic work
    /// (like the decrypt sweeper) can key off it.
    pub fn tick(&mut self) -> u64 {
        self.ticks += 1;
        self.ticks
    }

    /// Pick the next schedulable process, rotating the queue. Returns
    /// `None` if no admitted process is currently schedulable.
    pub fn next(&mut self, procs: &BTreeMap<Pid, Process>) -> Option<Pid> {
        for _ in 0..self.queue.len() {
            let pid = self.queue.pop_front()?;
            self.queue.push_back(pid);
            if procs.get(&pid).is_some_and(|p| p.schedulable) {
                return Some(pid);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn procs(specs: &[(Pid, bool)]) -> BTreeMap<Pid, Process> {
        specs
            .iter()
            .map(|&(pid, schedulable)| {
                let mut p = Process::new(pid, 0x8000_4000);
                p.schedulable = schedulable;
                (pid, p)
            })
            .collect()
    }

    #[test]
    fn round_robin_rotates() {
        let map = procs(&[(1, true), (2, true), (3, true)]);
        let mut s = Scheduler::new();
        for pid in [1, 2, 3] {
            s.admit(pid);
        }
        let picks: Vec<Pid> = (0..6).filter_map(|_| s.next(&map)).collect();
        assert_eq!(picks, vec![1, 2, 3, 1, 2, 3]);
    }

    #[test]
    fn unschedulable_processes_are_skipped() {
        let map = procs(&[(1, true), (2, false), (3, true)]);
        let mut s = Scheduler::new();
        for pid in [1, 2, 3] {
            s.admit(pid);
        }
        let picks: Vec<Pid> = (0..4).filter_map(|_| s.next(&map)).collect();
        assert!(!picks.contains(&2));
        assert_eq!(picks.len(), 4);
    }

    #[test]
    fn all_parked_means_no_pick() {
        let map = procs(&[(1, false), (2, false)]);
        let mut s = Scheduler::new();
        s.admit(1);
        s.admit(2);
        assert_eq!(s.next(&map), None);
    }

    #[test]
    fn ticks_count_monotonically() {
        let mut s = Scheduler::new();
        assert_eq!(s.tick(), 1);
        assert_eq!(s.tick(), 2);
        assert_eq!(s.ticks, 2);
    }

    #[test]
    fn admit_is_idempotent_and_remove_works() {
        let map = procs(&[(1, true)]);
        let mut s = Scheduler::new();
        s.admit(1);
        s.admit(1);
        assert_eq!(s.queue, [1]);
        s.remove(1);
        assert_eq!(s.next(&map), None);
    }
}
