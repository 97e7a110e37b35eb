//! Background computation on the locked Tegra prototype
//! (Figures 6–8).
//!
//! Three Linux applications were ported to Sentry: **alpine** (a pine-
//! based mail reader), **vlock** (a console lock screen), and **xmms2**
//! (an MP3 player) — "the types of actions users do when their
//! smartphones are locked". Each runs in the background for several
//! seconds while the device is locked, with its working set paged
//! through 256 KB or 512 KB of locked L2 cache, and the experiment
//! reports time spent inside the kernel with and without Sentry.
//!
//! Access traces are synthesized per app:
//!
//! * alpine — random-ish references over a mail-index working set
//!   larger than 256 KB of slots (so the small configuration thrashes);
//! * vlock — a tiny working set touched a few times;
//! * xmms2 — a streaming scan over megabytes of MP3 data interleaved
//!   with hot code/heap pages (the stream is compulsory-miss bound, so
//!   even 512 KB keeps an appreciable overhead — the paper's 48%).

use sentry_core::{Sentry, SentryConfig, SentryError};
use sentry_kernel::Kernel;
use sentry_soc::addr::PAGE_SIZE;
use sentry_soc::rng::DetRng;
use sentry_soc::Soc;

/// Static description of one background app.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackgroundSpec {
    /// Application name.
    pub name: &'static str,
    /// Hot working set in pages (index/code/heap).
    pub hot_pages: u64,
    /// Sequentially streamed pages (0 for non-streaming apps).
    pub stream_pages: u64,
    /// One in `stream_every` operations touches the stream (0 = never).
    pub stream_every: u32,
    /// Number of kernel-entering operations in the run.
    pub operations: u32,
    /// Base in-kernel cost per operation without Sentry, nanoseconds.
    pub base_op_ns: u64,
}

/// The three ported applications.
#[must_use]
pub fn background_catalog() -> [BackgroundSpec; 3] {
    [
        BackgroundSpec {
            name: "alpine",
            hot_pages: 120, // 480 KB of mail index and heap
            stream_pages: 0,
            stream_every: 0,
            operations: 4500,
            base_op_ns: 110_000,
        },
        BackgroundSpec {
            name: "vlock",
            hot_pages: 12,
            stream_pages: 0,
            stream_every: 0,
            operations: 800,
            base_op_ns: 140_000,
        },
        BackgroundSpec {
            name: "xmms2",
            hot_pages: 8,       // decoder code/heap stays tiny
            stream_pages: 1550, // ~6 MB of MP3 data over the run
            stream_every: 3,
            operations: 4650,
            base_op_ns: 280_000,
        },
    ]
}

/// Result of one background run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackgroundResult {
    /// App name.
    pub(crate) name: &'static str,
    /// Locked-cache budget used (bytes of on-SoC slots), or 0 for the
    /// no-Sentry baseline.
    pub(crate) locked_bytes: u64,
    /// Time spent in the kernel, seconds.
    pub kernel_secs: f64,
    /// Pager faults taken.
    pub faults: u64,
}

/// Generate the access trace (VPN per operation).
fn trace(spec: &BackgroundSpec) -> Vec<u64> {
    let mut rng = DetRng::new(0xBAC0 ^ spec.hot_pages ^ (spec.stream_pages << 17));
    let mut out = Vec::with_capacity(spec.operations as usize);
    let mut stream_pos = 0u64;
    for i in 0..spec.operations {
        if spec.stream_every > 0 && spec.stream_pages > 0 && i % spec.stream_every == 0 {
            // Streaming touch: the next page of MP3 data.
            out.push(spec.hot_pages + (stream_pos % spec.stream_pages));
            stream_pos += 1;
        } else {
            // Hot-set touch.
            out.push(rng.next_below(spec.hot_pages));
        }
    }
    out
}

/// Run `spec` in the background of a locked Tegra device with
/// `locked_kb` of on-SoC slot budget (256 or 512 in the paper), or with
/// Sentry disabled when `locked_kb == 0`.
///
/// # Errors
///
/// Propagates Sentry errors.
pub fn run_background(
    spec: &BackgroundSpec,
    locked_kb: u64,
) -> Result<BackgroundResult, SentryError> {
    let kernel = Kernel::new(Soc::new(
        sentry_soc::SocConfig::new(sentry_soc::Platform::Tegra3).with_dram_size(128 << 20),
    ));
    let with_sentry = locked_kb > 0;

    // Slot budget: the locked ways hold the volatile key page, the AES
    // state page, and the page slots.
    let (config, slot_limit) = if with_sentry {
        let ways = (locked_kb / 128).max(1) as usize;
        let total_pages = locked_kb * 1024 / PAGE_SIZE;
        (
            SentryConfig::tegra3_locked_l2(ways),
            Some((total_pages as usize).saturating_sub(2)),
        )
    } else {
        (SentryConfig::tegra3_locked_l2(1), None)
    };
    // Figures 6–8 calibrate against the paper's prototype, which is
    // confidentiality-only — no per-page MAC on the pager path.
    let config = config.without_integrity();
    let config = match slot_limit {
        Some(limit) => config.with_slot_limit(limit),
        None => config,
    };

    let mut sentry = Sentry::new(kernel, config)?;
    let pid = sentry.kernel.spawn(spec.name);

    // Populate the full working set.
    let total_pages = spec.hot_pages + spec.stream_pages;
    let fill = vec![0x5Au8; PAGE_SIZE as usize];
    for vpn in 0..total_pages {
        sentry.write(pid, vpn * PAGE_SIZE, &fill)?;
    }

    if with_sentry {
        sentry.mark_sensitive(pid)?;
        sentry.on_lock()?;
    }

    let accesses = trace(spec);
    let faults_before = sentry.pager.stats.faults;
    let t0 = sentry.kernel.soc.clock.now_ns();
    let mut buf = [0u8; 64];
    for &vpn in &accesses {
        // The operation's own kernel work...
        sentry.kernel.soc.clock.advance(spec.base_op_ns);
        // ...plus its memory touch (which pages through Sentry while
        // locked).
        sentry.read(pid, vpn * PAGE_SIZE + 128, &mut buf)?;
    }
    let kernel_ns = sentry.kernel.soc.clock.now_ns() - t0;

    Ok(BackgroundResult {
        name: spec.name,
        locked_bytes: locked_kb * 1024,
        kernel_secs: kernel_ns as f64 / 1e9,
        faults: sentry.pager.stats.faults - faults_before,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str) -> BackgroundSpec {
        background_catalog()
            .into_iter()
            .find(|s| s.name == name)
            .expect("catalog app")
    }

    #[test]
    fn alpine_overhead_matches_figure_6() {
        // Paper: "a factor of 2.74 in the case of alpine when running
        // with 256 KB of locked L2 cache"; noticeably better at 512 KB.
        let base = run_background(&spec("alpine"), 0).unwrap();
        let small = run_background(&spec("alpine"), 256).unwrap();
        let large = run_background(&spec("alpine"), 512).unwrap();
        let factor_small = small.kernel_secs / base.kernel_secs;
        let factor_large = large.kernel_secs / base.kernel_secs;
        assert!(
            (2.2..3.3).contains(&factor_small),
            "256 KB factor {factor_small:.2} (paper 2.74)"
        );
        assert!(
            factor_large < factor_small * 0.6,
            "512 KB must be much better"
        );
    }

    #[test]
    fn vlock_overhead_is_small() {
        // Figure 7: vlock's kernel time is ~0.1 s and Sentry adds little.
        let base = run_background(&spec("vlock"), 0).unwrap();
        let small = run_background(&spec("vlock"), 256).unwrap();
        assert!(base.kernel_secs < 0.2);
        assert!(small.kernel_secs / base.kernel_secs < 1.5);
    }

    #[test]
    fn xmms2_keeps_48_percent_overhead_at_512kb() {
        // Paper: "48% in the case of xmms2 when running with 512 KB".
        let base = run_background(&spec("xmms2"), 0).unwrap();
        let large = run_background(&spec("xmms2"), 512).unwrap();
        let overhead = large.kernel_secs / base.kernel_secs - 1.0;
        assert!(
            (0.30..0.70).contains(&overhead),
            "512 KB overhead {overhead:.2} (paper 0.48)"
        );
        // The stream is compulsory-miss bound: more cache helps less
        // than for alpine.
        let small = run_background(&spec("xmms2"), 256).unwrap();
        assert!(small.kernel_secs >= large.kernel_secs);
    }

    #[test]
    fn apps_remain_responsive() {
        // "applications remain responsive when run in the background"
        // — no access takes pathologically long; total runtime stays in
        // seconds.
        for s in background_catalog() {
            let r = run_background(&s, 256).unwrap();
            assert!(r.kernel_secs < 10.0, "{}: {}", s.name, r.kernel_secs);
        }
    }

    #[test]
    fn baseline_takes_no_pager_faults() {
        let base = run_background(&spec("alpine"), 0).unwrap();
        assert_eq!(base.faults, 0);
    }
}
