//! Spans recorded from outside the library, around each call the
//! benchmark makes into a layer's public functions.
//!
//! A span holds its id, its parent, the op it belongs to, the layer name
//! (a module path such as `core.lifecycle.on_lock`), host and simulated
//! start/end, and the deltas of the public stats counters over the call.
//! Tracing only reads clocks and stats, so a traced run must produce the
//! same simulated numbers and counters as an untraced one; the tests and
//! every traced run check that.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

macro_rules! counters {
    ($($id:ident => $name:literal,)*) => {
        /// Index of one public stats counter in a [`Counters`] snapshot.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[allow(clippy::enum_variant_names)]
        pub enum C { $($id,)* }

        /// Counter names, in [`C`] order.
        pub const COUNTER_NAMES: &[&str] = &[$($name,)*];
    };
}

counters! {
    OndemandFaults => "lifecycle.ondemand_faults",
    ReadaheadPages => "lifecycle.readahead_pages",
    SweepPages => "lifecycle.sweep_pages",
    CryptBatchPages => "lifecycle.crypt_batch_pages",
    CryptRetries => "lifecycle.crypt_retries",
    ZeroDrainNs => "lifecycle.zero_drain_ns",
    Recoveries => "lifecycle.recoveries",
    TagsStored => "integrity.tags_stored",
    VerifiedPages => "integrity.verified_pages",
    VerifyRetries => "integrity.verify_retries",
    Violations => "integrity.violations",
    PagerFaults => "pager.faults",
    Pageins => "pager.pageins",
    Pageouts => "pager.pageouts",
    PagerCryptBytes => "pager.crypt_bytes",
    Sheds => "pressure.sheds",
    Spills => "pressure.spills",
    SpillRestores => "pressure.spill_restores",
    Denied => "pressure.denied",
    Trips => "health.trips",
    Timeouts => "health.timeouts",
    FallbackCryptBytes => "health.fallback_crypt_bytes",
    TimeDegradedNs => "health.time_degraded_ns",
    DiskRetries => "health.disk_retries",
    KsHits => "pipeline.keystream_hits",
    KsMisses => "pipeline.keystream_misses",
    KsPrecomputed => "pipeline.precomputed",
    RoutedSectors => "dmcrypt.routed_sectors",
    InlineSectors => "dmcrypt.inline_sectors",
    XorSectors => "dmcrypt.xor_sectors",
    DmFallbacks => "dmcrypt.fallbacks",
    DmStallNs => "dmcrypt.accel_stall_ns",
    AccelOps => "accel.ops",
    AccelBusyNs => "accel.busy_ns",
    AccelStallNs => "accel.stall_ns",
    AccelOverlapNs => "accel.overlap_ns",
    L2Hits => "cache.hits",
    L2Misses => "cache.misses",
    L2Writebacks => "cache.writebacks",
    BusBytesRead => "bus.bytes_read",
    BusBytesWritten => "bus.bytes_written",
    UserBytes => "workload.user_bytes",
}

/// Number of counters in a snapshot.
pub const N_COUNTERS: usize = COUNTER_NAMES.len();

/// A snapshot (or a delta) of every public stats counter the benchmark
/// reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counters(pub [u64; N_COUNTERS]);

impl Default for Counters {
    fn default() -> Self {
        Counters([0; N_COUNTERS])
    }
}

impl Counters {
    /// Set one counter.
    pub fn set(&mut self, c: C, v: u64) {
        self.0[c as usize] = v;
    }

    /// Read one counter.
    #[must_use]
    pub fn get(&self, c: C) -> u64 {
        self.0[c as usize]
    }

    /// `self - before`, counter by counter. Every counter is cumulative,
    /// so a negative delta means a counter was reset under us: that is a
    /// benchmark bug, and it panics.
    #[must_use]
    pub fn since(&self, before: &Counters) -> Counters {
        let mut out = Counters::default();
        for (i, o) in out.0.iter_mut().enumerate() {
            *o = self.0[i]
                .checked_sub(before.0[i])
                .unwrap_or_else(|| panic!("counter {} went backwards", COUNTER_NAMES[i]));
        }
        out
    }

    /// Add `other` into `self`.
    pub fn add(&mut self, other: &Counters) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
    }
}

/// What a span needs from the system under test: its simulated clock
/// and its public stats.
pub trait Probe {
    /// Simulated nanoseconds now.
    fn sim_now(&self) -> u64;
    /// Every public counter, cumulative.
    fn counters(&self) -> Counters;
}

/// Sentinel parent of a root span.
const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Span id (its index in the trace).
    pub id: u32,
    /// Parent span id, or `u32::MAX` for a root.
    pub parent: u32,
    /// The op this span belongs to.
    pub op: u64,
    /// Layer name.
    pub name: &'static str,
    /// Host nanoseconds since the trace started, at open and close.
    pub host: (u64, u64),
    /// Simulated nanoseconds at open and close.
    pub sim: (u64, u64),
    /// Range of this span's nonzero counter deltas in [`Tracer::deltas`].
    deltas: (u32, u32),
}

impl Span {
    /// Host duration, nanoseconds.
    #[must_use]
    pub fn host_ns(&self) -> u64 {
        self.host.1 - self.host.0
    }

    /// Simulated duration, nanoseconds.
    #[must_use]
    pub fn sim_ns(&self) -> u64 {
        self.sim.1 - self.sim.0
    }
}

/// An open span: where it sits in the trace and the counters at open.
#[derive(Debug)]
pub struct Open {
    index: u32,
    counters: Counters,
}

/// The span recorder. Disabled, every method is a no-op and nothing is
/// read, so an untraced run pays one branch per call.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    op: u64,
    stack: Vec<u32>,
    spans: Vec<Span>,
    deltas: Vec<(u16, u64)>,
}

impl Tracer {
    /// A tracer; `capacity` spans are preallocated when `on`.
    #[must_use]
    pub fn new(on: bool, capacity: usize) -> Self {
        let capacity = if on { capacity } else { 0 };
        Tracer {
            on,
            epoch: Instant::now(),
            op: 0,
            stack: Vec::with_capacity(8),
            spans: Vec::with_capacity(capacity),
            deltas: Vec::with_capacity(capacity * 4),
        }
    }

    /// Drop every recorded span, keeping the allocation.
    pub fn clear(&mut self) {
        self.spans.clear();
        self.deltas.clear();
        self.stack.clear();
    }

    /// Nonzero counter deltas of `span` as `(counter name, delta)`.
    pub fn span_deltas(&self, span: &Span) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.deltas[span.deltas.0 as usize..span.deltas.1 as usize]
            .iter()
            .map(|&(c, d)| (COUNTER_NAMES[usize::from(c)], d))
    }

    /// Set the op id that newly opened spans carry.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span named `name` over `probe`; `None` when disabled.
    pub fn open(&mut self, name: &'static str, probe: &impl Probe) -> Option<Open> {
        if !self.on {
            return None;
        }
        let index = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let counters = probe.counters();
        let sim = probe.sim_now();
        self.spans.push(Span {
            id: index,
            parent,
            op: self.op,
            name,
            host: (0, 0),
            sim: (sim, sim),
            deltas: (0, 0),
        });
        self.stack.push(index);
        // Read the host clock last, so the span excludes its own set-up.
        let host = self.now();
        self.spans[index as usize].host = (host, host);
        Some(Open { index, counters })
    }

    /// Close a span opened by [`Tracer::open`].
    pub fn close(&mut self, open: Option<Open>, probe: &impl Probe) {
        let Some(open) = open else { return };
        let host = self.now();
        let sim = probe.sim_now();
        let delta = probe.counters().since(&open.counters);
        let start = u32::try_from(self.deltas.len()).expect("fewer than 2^32 deltas");
        for (i, &d) in delta.0.iter().enumerate() {
            if d != 0 {
                self.deltas
                    .push((u16::try_from(i).expect("few counters"), d));
            }
        }
        let end = u32::try_from(self.deltas.len()).expect("fewer than 2^32 deltas");
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(open.index), "spans close in LIFO order");
        let span = &mut self.spans[open.index as usize];
        span.host.1 = host;
        span.sim.1 = sim;
        span.deltas = (start, end);
    }

    /// Run `f` on `target` inside a span named `name`.
    pub fn call<S: Probe, T>(
        &mut self,
        name: &'static str,
        target: &mut S,
        f: impl FnOnce(&mut S) -> T,
    ) -> T {
        let open = self.open(name, target);
        let out = f(target);
        self.close(open, target);
        out
    }

    /// Per-name totals over the recorded spans. A span's self time is
    /// its duration minus the durations of its direct children.
    #[must_use]
    pub fn reduce(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_host = vec![0u64; self.spans.len()];
        let mut child_sim = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_host[s.parent as usize] += s.host_ns();
                child_sim[s.parent as usize] += s.sim_ns();
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.self_host_ns += s.host_ns().saturating_sub(child_host[i]);
            t.self_sim_ns += s.sim_ns() - child_sim[i];
        }
        out
    }

    /// The trace as a JSON array, one span object per line.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = write!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"op\": {}, \"name\": \"{}\", \
                 \"host_start_ns\": {}, \"host_end_ns\": {}, \"sim_start_ns\": {}, \
                 \"sim_end_ns\": {}, \"deltas\": {{",
                s.id, s.op, s.name, s.host.0, s.host.1, s.sim.0, s.sim.1
            );
            for (k, (name, d)) in self.span_deltas(s).enumerate() {
                let sep = if k == 0 { "" } else { ", " };
                let _ = write!(out, "{sep}\"{name}\": {d}");
            }
            out.push_str(if i + 1 == self.spans.len() {
                "}}\n"
            } else {
                "}},\n"
            });
        }
        out.push(']');
        out.push('\n');
        out
    }
}

/// What [`Tracer::reduce`] sums per span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Host self time, nanoseconds.
    pub self_host_ns: u64,
    /// Simulated self time, nanoseconds.
    pub self_sim_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fake {
        sim: u64,
        n: u64,
    }

    impl Probe for Fake {
        fn sim_now(&self) -> u64 {
            self.sim
        }
        fn counters(&self) -> Counters {
            let mut c = Counters::default();
            c.set(C::PagerFaults, self.n);
            c
        }
    }

    #[test]
    fn self_time_subtracts_children_and_deltas_are_recorded() {
        let mut t = Tracer::new(true, 8);
        let mut f = Fake { sim: 100, n: 0 };
        t.set_op(7);
        t.call("root", &mut f, |f| f.sim += 11);
        let root = t.open("root2", &f);
        f.sim += 5;
        let child = t.open("child", &f);
        f.sim += 20;
        f.n += 3;
        t.close(child, &f);
        t.close(root, &f);
        let totals = t.reduce();
        assert_eq!(totals["root"].self_sim_ns, 11);
        assert_eq!(totals["root2"].self_sim_ns, 5);
        assert_eq!(totals["child"].self_sim_ns, 20);
        assert_eq!(totals["child"].calls, 1);
        let child = t.spans[2];
        assert_eq!(child.parent, 1);
        assert_eq!(child.op, 7);
        let deltas: Vec<_> = t.span_deltas(&child).collect();
        assert_eq!(deltas, vec![("pager.faults", 3)]);
        assert!(t.to_json().contains("\"pager.faults\": 3"));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, 8);
        let mut f = Fake { sim: 0, n: 0 };
        t.call("x", &mut f, |f| f.sim += 1);
        assert!(t.spans.is_empty());
        assert_eq!(f.sim, 1);
    }
}
