//! Parallel page-crypt engine: fan a batch of independently-IV'd pages
//! across a scoped worker pool.
//!
//! Sentry's lock/unlock transitions encrypt or decrypt every sensitive
//! page with an *independent* IV (`page_iv` binds the IV to the page's
//! (pid, vpn, epoch) identity), so per-page crypt has no cross-page data
//! dependency at all — the batch is embarrassingly parallel, the same
//! structure MemShield exploits with GPU lanes and Sealer with in-SRAM
//! AES arrays. This module supplies the host-side engine: callers hand
//! [`crypt_batch`] one contiguous buffer of pages plus one IV per page,
//! and it splits the buffer at page boundaries into contiguous runs, one
//! per worker. Every lane runs its run through [`PageCipher::crypt`] —
//! the same kernel choice every engine makes — and *shares* the caller's
//! context by reference: the key schedule is expanded exactly once, not
//! per lane and certainly not per page.
//!
//! Two properties the lock path depends on:
//!
//! * **Byte identity** — parallel output is identical to sequential
//!   output for every worker count, because each page is independent and
//!   page order is preserved. `workers = 1` takes the sequential path
//!   outright.
//! * **Bounded fallback** — tiny batches (`len < min_batch_pages`) are
//!   not worth the thread fan-out and run sequentially; the report says
//!   which path was taken so callers can account for it.

use crate::error::CryptoError;
use crate::modes::{Direction, PageCipher};
use crate::PageCipherMode;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What a batch run did — batch size, lane count, and the bytes each
/// worker processed (index = worker lane).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchReport {
    /// Pages in the batch.
    pub pages: usize,
    /// Total bytes transformed.
    pub bytes: u64,
    /// Worker lanes actually used (1 on the sequential path).
    pub workers_used: usize,
    /// Bytes processed by each lane, `per_worker_bytes.len() == workers_used`.
    pub per_worker_bytes: Vec<u64>,
    /// Whether the batch took the sequential fallback (worker count of
    /// one, or batch smaller than the configured minimum).
    pub sequential_fallback: bool,
}

/// Run the `ivs.len()` pages laid out back to back in `data` (page `i`
/// under `ivs[i]`) through `mode` under `cipher`, fanning across at most
/// `workers` scoped threads.
///
/// The buffer is split at page boundaries into contiguous runs whose
/// lengths differ by at most one page, and each lane makes one
/// [`PageCipher::crypt`] call over its run: CBC encryption fills the
/// bitsliced lanes with one page chain each, everything else streams
/// across page boundaries. Falls back to one in-thread call when
/// `workers <= 1` or `ivs.len() < min_batch_pages`; output bytes are
/// identical either way.
///
/// # Errors
///
/// [`CryptoError::WorkerPanicked`] if a lane's crypt panicked — for
/// example because `data` does not divide into `ivs.len()` block-aligned
/// pages. The panic is contained (`catch_unwind` inside the lane): every
/// other lane still runs to completion and the pool is torn down
/// cleanly, but the batch's buffer is left partially transformed and
/// must be discarded by the caller.
pub fn crypt_batch(
    cipher: &PageCipher,
    mode: PageCipherMode,
    direction: Direction,
    ivs: &[[u8; 16]],
    data: &mut [u8],
    workers: usize,
    min_batch_pages: usize,
) -> Result<BatchReport, CryptoError> {
    let pages = ivs.len();
    let bytes = data.len() as u64;

    if workers <= 1 || pages < min_batch_pages.max(1) {
        contained_run(cipher, mode, direction, ivs, data, 0)?;
        return Ok(BatchReport {
            pages,
            bytes,
            workers_used: 1,
            per_worker_bytes: vec![bytes],
            sequential_fallback: true,
        });
    }

    let lanes = workers.min(pages);
    let page = data.len() / pages;
    // Contiguous, balanced split: the first `pages % lanes` runs get one
    // extra page, so lane loads differ by at most one page. The last run
    // takes whatever is left, so a malformed layout fails inside a lane.
    let base = pages / lanes;
    let extra = pages % lanes;
    let mut per_worker_bytes = vec![0u64; lanes];
    let mut first_panic: Option<CryptoError> = None;
    std::thread::scope(|scope| {
        let (mut ivs, mut rest) = (ivs, data);
        let mut handles = Vec::with_capacity(lanes);
        for lane in 0..lanes {
            let take = base + usize::from(lane < extra);
            let (run_ivs, ivs_tail) = ivs.split_at(take);
            let at = if lane + 1 == lanes {
                rest.len()
            } else {
                take * page
            };
            let (run, tail) = rest.split_at_mut(at);
            (ivs, rest) = (ivs_tail, tail);
            // Every lane borrows the caller's context: one expanded
            // schedule serves the whole pool. The unwind is caught
            // *inside* the lane, so a panicking crypt surfaces as a
            // typed error instead of aborting the simulation.
            handles.push(
                scope.spawn(move || contained_run(cipher, mode, direction, run_ivs, run, lane)),
            );
        }
        for (lane, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok(Ok(lane_bytes)) => per_worker_bytes[lane] = lane_bytes,
                Ok(Err(e)) => {
                    if first_panic.is_none() {
                        first_panic = Some(e);
                    }
                }
                // Unreachable in practice (the lane catches its own
                // unwind), but keep the containment airtight.
                Err(_) => {
                    if first_panic.is_none() {
                        first_panic = Some(CryptoError::WorkerPanicked {
                            lane,
                            detail: "worker died outside catch_unwind".into(),
                        });
                    }
                }
            }
        }
    });
    if let Some(e) = first_panic {
        return Err(e);
    }

    Ok(BatchReport {
        pages,
        bytes,
        workers_used: lanes,
        per_worker_bytes,
        sequential_fallback: false,
    })
}

/// Run one lane's pages with the unwind caught, converting a panic into
/// the typed [`CryptoError::WorkerPanicked`]; returns the bytes processed.
fn contained_run(
    cipher: &PageCipher,
    mode: PageCipherMode,
    direction: Direction,
    ivs: &[[u8; 16]],
    data: &mut [u8],
    lane: usize,
) -> Result<u64, CryptoError> {
    catch_unwind(AssertUnwindSafe(|| {
        cipher.crypt(mode, direction, ivs, data);
        data.len() as u64
    }))
    .map_err(|payload| {
        let detail = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into());
        CryptoError::WorkerPanicked { lane, detail }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: usize = 4096;

    fn mk_pages(n: usize, fill: impl Fn(usize) -> u8) -> Vec<u8> {
        (0..n * PAGE)
            .map(|b| fill(b / PAGE).wrapping_add(b as u8))
            .collect()
    }

    fn ivs(n: usize) -> Vec<[u8; 16]> {
        (0..n).map(|i| [i as u8; 16]).collect()
    }

    fn run(
        cipher: &PageCipher,
        mode: PageCipherMode,
        direction: Direction,
        data: &mut [u8],
        workers: usize,
        min_batch: usize,
    ) -> Result<BatchReport, CryptoError> {
        let ivs = ivs(data.len() / PAGE);
        crypt_batch(cipher, mode, direction, &ivs, data, workers, min_batch)
    }

    #[test]
    fn parallel_output_matches_sequential_reference() {
        let cipher = PageCipher::new(&[7u8; 32]).unwrap();
        for mode in PageCipherMode::all() {
            let mut expect = mk_pages(37, |i| i as u8);
            let seq = run(&cipher, mode, Direction::Encrypt, &mut expect, 1, 1).unwrap();
            assert!(seq.sequential_fallback);
            assert_eq!(seq.per_worker_bytes, vec![37 * 4096]);

            for workers in [2usize, 3, 4, 8, 64] {
                let mut got = mk_pages(37, |i| i as u8);
                let rep = run(&cipher, mode, Direction::Encrypt, &mut got, workers, 1).unwrap();
                assert_eq!(got, expect, "{mode}: {workers} workers diverged");
                assert_eq!(rep.workers_used, workers.min(37));
                assert_eq!(rep.per_worker_bytes.iter().sum::<u64>(), 37 * 4096);
            }
        }
    }

    #[test]
    fn decrypt_inverts_encrypt_across_lane_counts() {
        let cipher = PageCipher::new(&[0x5Au8; 16]).unwrap();
        for mode in PageCipherMode::all() {
            let orig = mk_pages(9, |i| (i * 13) as u8);
            let mut work = orig.clone();
            run(&cipher, mode, Direction::Encrypt, &mut work, 4, 1).unwrap();
            assert_ne!(work, orig, "{mode} encrypt is not a noop");
            run(&cipher, mode, Direction::Decrypt, &mut work, 3, 1).unwrap();
            assert_eq!(work, orig, "{mode} round-trip");
        }
    }

    #[test]
    fn small_batches_take_the_sequential_fallback() {
        let cipher = PageCipher::new(&[1u8; 16]).unwrap();
        let mut pages = mk_pages(3, |i| i as u8);
        let rep = run(
            &cipher,
            PageCipherMode::Cbc,
            Direction::Encrypt,
            &mut pages,
            8,
            4,
        )
        .unwrap();
        assert!(rep.sequential_fallback);
        assert_eq!(rep.workers_used, 1);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let cipher = PageCipher::new(&[1u8; 16]).unwrap();
        let rep = run(
            &cipher,
            PageCipherMode::Cbc,
            Direction::Encrypt,
            &mut [],
            4,
            1,
        )
        .unwrap();
        assert_eq!(rep.pages, 0);
        assert_eq!(rep.bytes, 0);
    }

    #[test]
    fn panicking_worker_surfaces_a_typed_error() {
        // Quiet the default panic hook for the injected panics — the
        // containment is the thing under test, not the backtrace. One
        // test covers both paths so the hook swap is not raced.
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let cipher = PageCipher::new(&[9u8; 16]).unwrap();

        // Parallel pool: 8 IVs over 8 pages plus 5 stray bytes. The
        // first three lanes get whole pages and complete; the last lane
        // is left two IVs over 2 pages + 5 bytes, and its crypt panics.
        let mut data = vec![0u8; 8 * PAGE + 5];
        let parallel_err = crypt_batch(
            &cipher,
            PageCipherMode::Cbc,
            Direction::Encrypt,
            &ivs(8),
            &mut data,
            4,
            1,
        )
        .unwrap_err();

        // Sequential fallback: the in-thread run is contained too.
        let mut data = vec![0u8; 2 * PAGE + 8];
        let seq_err = crypt_batch(
            &cipher,
            PageCipherMode::Cbc,
            Direction::Decrypt,
            &ivs(2),
            &mut data,
            1,
            1,
        )
        .unwrap_err();

        std::panic::set_hook(prev_hook);
        match parallel_err {
            CryptoError::WorkerPanicked { lane, detail } => {
                assert_eq!(lane, 3);
                assert!(detail.contains("does not divide"), "detail: {detail}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        assert!(matches!(
            seq_err,
            CryptoError::WorkerPanicked { lane: 0, .. }
        ));
    }

    #[test]
    fn lane_loads_differ_by_at_most_one_page() {
        let cipher = PageCipher::new(&[2u8; 16]).unwrap();
        let mut pages = mk_pages(10, |i| i as u8);
        let rep = run(
            &cipher,
            PageCipherMode::Cbc,
            Direction::Encrypt,
            &mut pages,
            4,
            1,
        )
        .unwrap();
        let min = rep.per_worker_bytes.iter().min().unwrap();
        let max = rep.per_worker_bytes.iter().max().unwrap();
        assert!(
            max - min <= 4096,
            "unbalanced lanes: {:?}",
            rep.per_worker_bytes
        );
    }
}
