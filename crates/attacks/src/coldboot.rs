//! Cold boot attacks (§3.1) and the Table 2 remanence methodology.
//!
//! The attacker power-cycles a stolen device into attacker-controlled
//! code and dumps whatever memory survived. Two analyses run over the
//! dump:
//!
//! * **pattern counting** — the paper's own remanence measurement: fill
//!   memory with an 8-byte pattern, reset, grep and count (Table 2);
//! * **AES key-schedule search** — the `aeskeyfind` technique used by
//!   Halderman et al. and FROST: slide a 16-byte window over the dump,
//!   expand it as an AES-128 key, and accept it if the expanded round
//!   keys appear contiguously after it. Random data never passes; real
//!   cached key schedules always do.

use sentry_crypto::key_schedule::KeySchedule;
use sentry_soc::addr::{DRAM_BASE, IRAM_BASE, IRAM_SIZE, PAGE_SIZE};
use sentry_soc::dram::PowerEvent;
use sentry_soc::Soc;

/// The paper's fill pattern experiment (Table 2): returns the fraction
/// of 8-byte cells preserved in DRAM and in iRAM after `event`.
///
/// `cells` 8-byte cells are written to each memory before the reset.
///
/// # Errors
///
/// Propagates SoC errors from the fill or the reboot.
pub fn remanence_trial(
    soc: &mut Soc,
    event: PowerEvent,
    cells: u64,
) -> Result<RemanenceOutcome, sentry_soc::SocError> {
    let pattern = *b"SENTRYOK";

    // Fill DRAM (uncached so the pattern is actually in DRAM, as a
    // 1 GB allocation loop would be after touching far more than the
    // cache size).
    for i in 0..cells {
        soc.dram.write(DRAM_BASE + (8 << 20) + i * 8, &pattern);
    }
    // Fill usable iRAM.
    let iram_cells = (IRAM_SIZE - sentry_soc::addr::IRAM_FIRMWARE_RESERVED) / 8;
    let iram_base = IRAM_BASE + sentry_soc::addr::IRAM_FIRMWARE_RESERVED;
    for i in 0..iram_cells {
        soc.mem_write(iram_base + i * 8, &pattern)?;
    }

    soc.power_cycle(event)?;

    let dram_survived = soc.dram.count_pattern(&pattern);
    let iram_survived = soc.iram.count_pattern(&pattern);
    Ok(RemanenceOutcome {
        dram_fraction: dram_survived as f64 / cells as f64,
        iram_fraction: iram_survived as f64 / iram_cells as f64,
    })
}

/// One remanence trial's outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RemanenceOutcome {
    /// Fraction of DRAM cells preserved.
    pub dram_fraction: f64,
    /// Fraction of iRAM cells preserved.
    pub iram_fraction: f64,
}

/// Dump all of DRAM the way an attacker OS would (raw reads; the cache
/// was reset by the reboot).
#[must_use]
pub fn dump_dram(soc: &mut Soc) -> Vec<(u64, Vec<u8>)> {
    soc.dram
        .iter_frames()
        .map(|(addr, bytes)| (addr, bytes.to_vec()))
        .collect()
}

/// Dump all of iRAM.
#[must_use]
pub fn dump_iram(soc: &Soc) -> Vec<u8> {
    soc.iram.as_bytes().to_vec()
}

/// Search a dump for a byte needle; returns the physical addresses of
/// hits.
#[must_use]
pub fn search(dump: &[(u64, Vec<u8>)], needle: &[u8]) -> Vec<u64> {
    let mut hits = Vec::new();
    for (base, bytes) in dump {
        for (off, w) in bytes.windows(needle.len()).enumerate() {
            if w == needle {
                hits.push(base + off as u64);
            }
        }
    }
    hits
}

/// `aeskeyfind`: locate AES-128 keys by their expanded schedules.
///
/// For every 16-byte-aligned offset, treat the bytes as a candidate key,
/// expand it, and check that the next 160 bytes equal round keys 1–10.
/// Returns `(address, key)` pairs.
#[must_use]
pub fn find_aes128_key_schedules(dump: &[(u64, Vec<u8>)]) -> Vec<(u64, [u8; 16])> {
    let mut found = Vec::new();
    for (base, bytes) in dump {
        if bytes.len() < 176 {
            continue;
        }
        for off in (0..=bytes.len() - 176).step_by(4) {
            let candidate: [u8; 16] = bytes[off..off + 16].try_into().expect("sized");
            // Quick reject: an all-zero "key" region is not a schedule.
            if candidate.iter().all(|&b| b == 0) {
                continue;
            }
            let schedule = KeySchedule::expand(&candidate).expect("16 bytes");
            let mut expected = Vec::with_capacity(176);
            for w in schedule.enc_words() {
                expected.extend_from_slice(&w.to_be_bytes());
            }
            if bytes[off..off + 176] == expected[..] {
                found.push((base + off as u64, candidate));
            }
        }
    }
    found
}

/// A full cold-boot attack: reset via `event`, then scan DRAM and iRAM
/// for `needle` and for AES key schedules.
///
/// # Errors
///
/// Propagates SoC errors from the power cycle.
pub fn attack(
    soc: &mut Soc,
    event: PowerEvent,
    needle: &[u8],
) -> Result<ColdBootFindings, sentry_soc::SocError> {
    soc.power_cycle(event)?;
    let dram = dump_dram(soc);
    let iram = dump_iram(soc);
    let mut pattern_hits = search(&dram, needle);
    for (off, w) in iram.windows(needle.len()).enumerate() {
        if w == needle {
            pattern_hits.push(IRAM_BASE + off as u64);
        }
    }
    let mut keys = find_aes128_key_schedules(&dram);
    keys.extend(find_aes128_key_schedules(&[(IRAM_BASE, iram)]));
    Ok(ColdBootFindings { pattern_hits, keys })
}

/// What a cold-boot attack recovered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColdBootFindings {
    /// Addresses where the searched-for plaintext appeared.
    pub pattern_hits: Vec<u64>,
    /// Recovered AES-128 keys with their addresses.
    pub keys: Vec<(u64, [u8; 16])>,
}

impl ColdBootFindings {
    /// Did the attack recover anything at all?
    #[must_use]
    pub fn recovered_anything(&self) -> bool {
        !self.pattern_hits.is_empty() || !self.keys.is_empty()
    }
}

/// Number of cells used by the default Table 2 trial (a scaled-down
/// stand-in for the paper's 1 GB fill; remanence is per-cell i.i.d., so
/// the fraction estimate only needs enough cells for tight variance).
pub(crate) const DEFAULT_TRIAL_CELLS: u64 = 200_000;

/// Run the full Table 2 experiment: `trials` repetitions of each reset
/// type, averaged.
///
/// # Errors
///
/// Propagates SoC errors.
pub fn table2(trials: u32, seed: u64) -> Result<Vec<(String, f64, f64)>, sentry_soc::SocError> {
    let events: [(&str, PowerEvent); 3] = [
        ("OS Reboot (no power loss)", PowerEvent::WarmReboot),
        ("Device Reflash (power loss)", PowerEvent::ReflashTap),
        (
            "2 Second Reset (power loss)",
            PowerEvent::HardReset { seconds: 2.0 },
        ),
    ];
    let mut rows = Vec::new();
    for (label, event) in events {
        let mut iram_sum = 0.0;
        let mut dram_sum = 0.0;
        for t in 0..trials {
            let cfg = sentry_soc::SocConfig::new(sentry_soc::Platform::Tegra3)
                .with_dram_size(64 << 20)
                .with_seed(seed ^ (u64::from(t) << 32) ^ event_tag(event));
            let mut soc = Soc::new(cfg);
            let out = remanence_trial(&mut soc, event, DEFAULT_TRIAL_CELLS)?;
            iram_sum += out.iram_fraction;
            dram_sum += out.dram_fraction;
        }
        rows.push((
            label.to_string(),
            iram_sum / f64::from(trials),
            dram_sum / f64::from(trials),
        ));
    }
    Ok(rows)
}

fn event_tag(event: PowerEvent) -> u64 {
    match event {
        PowerEvent::WarmReboot => 1,
        PowerEvent::ReflashTap => 2,
        PowerEvent::HardReset { .. } => 3,
    }
}

// Keep PAGE_SIZE referenced for dump alignment sanity in tests.
const _: u64 = PAGE_SIZE;

#[cfg(test)]
mod tests {
    use super::*;
    use sentry_soc::addr::IRAM_FIRMWARE_RESERVED;

    #[test]
    fn table2_shape_matches_paper() {
        let rows = table2(2, 42).unwrap();
        // OS reboot: iRAM 100%, DRAM ~96.4%.
        assert!((rows[0].1 - 1.0).abs() < 1e-9, "iRAM warm: {}", rows[0].1);
        assert!((rows[0].2 - 0.964).abs() < 0.01, "DRAM warm: {}", rows[0].2);
        // Reflash: iRAM 0% (firmware zeroing), DRAM ~97.5%.
        assert!(rows[1].1 < 1e-9, "iRAM reflash: {}", rows[1].1);
        assert!(
            (rows[1].2 - 0.975).abs() < 0.01,
            "DRAM reflash: {}",
            rows[1].2
        );
        // 2s reset: iRAM 0%, DRAM ~0.1%.
        assert!(rows[2].1 < 1e-9);
        assert!(rows[2].2 < 0.005, "DRAM 2s: {}", rows[2].2);
    }

    #[test]
    fn warm_reboot_recovers_dram_plaintext_but_not_after_power_loss() {
        let mut soc = Soc::tegra3_small();
        let secret = b"0xFRODO_BAGGINS_SSN";
        soc.mem_write(DRAM_BASE + (20 << 20), secret).unwrap();
        soc.cache_maintenance_flush(); // steady state: data reaches DRAM

        let findings = attack(&mut soc, PowerEvent::WarmReboot, secret).unwrap();
        assert!(findings.recovered_anything(), "warm reboot leaks DRAM");

        let mut soc = Soc::tegra3_small();
        soc.mem_write(DRAM_BASE + (20 << 20), secret).unwrap();
        soc.cache_maintenance_flush();
        let findings = attack(&mut soc, PowerEvent::HardReset { seconds: 5.0 }, secret).unwrap();
        assert!(
            findings.pattern_hits.is_empty(),
            "5 s power cut destroys DRAM"
        );
    }

    #[test]
    fn iram_secrets_are_never_recovered_after_power_loss() {
        let mut soc = Soc::tegra3_small();
        let secret = b"volatile-root-key-bytes!";
        soc.mem_write(IRAM_BASE + IRAM_FIRMWARE_RESERVED, secret)
            .unwrap();
        let findings = attack(&mut soc, PowerEvent::ReflashTap, secret).unwrap();
        assert!(!findings.recovered_anything());
    }

    #[test]
    fn aeskeyfind_recovers_generic_engine_keys() {
        use sentry_kernel::crypto_api::{CipherEngine, GenericAesEngine};
        let mut soc = Soc::tegra3_small();
        let mut engine = GenericAesEngine::new(0);
        let key = [0xC4u8; 16];
        engine.set_key(&mut soc, &key).unwrap();

        // Reflash tap: most DRAM survives, including the key schedule.
        soc.power_cycle(PowerEvent::ReflashTap).unwrap();
        let dram = dump_dram(&mut soc);
        let keys = find_aes128_key_schedules(&dram);
        assert!(
            keys.iter().any(|(_, k)| *k == key),
            "aeskeyfind must locate the DRAM-resident schedule"
        );
    }

    #[test]
    fn aeskeyfind_has_no_false_positives_on_patterned_memory() {
        let mut soc = Soc::tegra3_small();
        for i in 0..10_000u64 {
            soc.dram
                .write(DRAM_BASE + (30 << 20) + i * 8, &i.to_le_bytes());
        }
        let dram = dump_dram(&mut soc);
        assert!(find_aes128_key_schedules(&dram).is_empty());
    }

    #[test]
    fn search_reports_addresses() {
        let dump = vec![(0x1000u64, b"xxNEEDLExx".to_vec())];
        assert_eq!(search(&dump, b"NEEDLE"), vec![0x1002]);
    }
}
