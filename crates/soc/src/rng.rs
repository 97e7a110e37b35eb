//! A small deterministic RNG for decay sampling.
//!
//! The remanence experiments must be exactly reproducible for a given
//! seed (the paper repeats each measurement five times and reports the
//! spread; our harness re-runs with different seeds). A SplitMix64
//! generator is more than adequate for sampling decay — cryptographic
//! quality is *not* required, and determinism plus `Clone` are.

/// SplitMix64: a tiny, high-quality, clonable PRNG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetRng {
    state: u64,
}

impl DetRng {
    /// Create a generator from a seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        DetRng { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform float in `[0, 1)`.
    pub(crate) fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Multiply-shift bounded sampling (Lemire); bias is negligible
        // for simulation purposes.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Fill `buf` with random bytes: each whole 8-byte word is one
    /// [`DetRng::next_u64`], little-endian, and a shorter tail takes the
    /// low bytes of one more.
    pub fn fill(&mut self, buf: &mut [u8]) {
        let mut words = buf.chunks_exact_mut(8);
        for word in &mut words {
            word.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let tail = words.into_remainder();
        if !tail.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            tail.copy_from_slice(&bytes[..tail.len()]);
        }
    }
}

/// The seed bundle one fleet device derives from the fleet master seed.
///
/// A fleet run is reproducible from a single `master_seed`, but each
/// device must draw its workload events, failpoint steps, tamper
/// targets, and SoC decay from *independent* streams — otherwise
/// replaying one failing device standalone would require replaying the
/// whole fleet to reconstruct its RNG state. `DeviceSeeds::split`
/// derives all four from `(master_seed, device_index)` alone, so any
/// fleet cell replays standalone given just those two numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceSeeds {
    /// Seed for the device's [`crate::SocConfig`] (DRAM decay sampling).
    pub soc: u64,
    /// Seed for the workload event stream (event kinds, pages, fills).
    pub workload: u64,
    /// Seed for failpoint placement (`Failpoints::arm_seeded`).
    pub failpoint: u64,
    /// Seed for tamper placement (target page, bit offset).
    pub tamper: u64,
}

impl DeviceSeeds {
    /// Split `master_seed` into device `device_index`'s seed bundle.
    ///
    /// Jumps a SplitMix64 stream forward by `device_index` gamma steps
    /// (the split operation the generator is named for), then draws the
    /// four domain seeds in a fixed order. Different devices get
    /// well-separated streams; the same `(master, index)` pair always
    /// yields the same bundle.
    #[must_use]
    pub fn split(master_seed: u64, device_index: u64) -> Self {
        let mut rng =
            DetRng::new(master_seed.wrapping_add(device_index.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        DeviceSeeds {
            soc: rng.next_u64(),
            workload: rng.next_u64(),
            failpoint: rng.next_u64(),
            tamper: rng.next_u64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_in_unit_interval_and_roughly_uniform() {
        let mut rng = DetRng::new(7);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / f64::from(n);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = DetRng::new(9);
        for bound in [1u64, 2, 7, 1000] {
            for _ in 0..200 {
                assert!(rng.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn device_seeds_are_deterministic_and_distinct() {
        let a = DeviceSeeds::split(42, 7);
        assert_eq!(a, DeviceSeeds::split(42, 7));
        let b = DeviceSeeds::split(42, 8);
        assert_ne!(a, b);
        // The four domains within one device are mutually distinct.
        let all = [a.soc, a.workload, a.failpoint, a.tamper];
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_ne!(all[i], all[j], "domains {i} and {j} collide");
            }
        }
    }

    #[test]
    fn device_seeds_vary_with_master() {
        assert_ne!(DeviceSeeds::split(1, 0), DeviceSeeds::split(2, 0));
    }

    /// `fill`'s byte stream: each whole 8-byte word is one `next_u64`,
    /// little-endian, and a short tail the low bytes of one more.
    #[test]
    fn fill_stream_is_pinned() {
        let digest = |len: usize| {
            let mut buf = vec![0u8; len];
            DetRng::new(0x9A6E_0000).fill(&mut buf);
            buf.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        assert_eq!(digest(4096), 16_435_179_743_890_101_229);
        assert_eq!(digest(13), 6_184_191_029_939_272_085);
    }

    #[test]
    fn fill_covers_partial_chunks() {
        let mut rng = DetRng::new(11);
        let mut buf = [0u8; 13];
        rng.fill(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
