//! Sentry error types.

use sentry_crypto::KeyError;
use sentry_kernel::KernelError;
use sentry_soc::SocError;
use std::error::Error;
use std::fmt;

/// Errors raised by Sentry.
#[derive(Debug, Clone, PartialEq)]
pub enum SentryError {
    /// An error from the kernel layer.
    Kernel(KernelError),
    /// An error from the SoC layer.
    Soc(SocError),
    /// An AES context could not be built from the supplied key.
    Crypto(KeyError),
    /// On-SoC storage (iRAM or lockable cache ways) is exhausted.
    OnSocExhausted,
    /// The operation applies only to processes marked sensitive.
    NotSensitive {
        /// The offending pid.
        pid: u32,
    },
    /// An access faulted on a page Sentry has no way to resolve (e.g., a
    /// locked foreground app touched while the device is locked on a
    /// platform without background support).
    Unresolvable {
        /// The faulting pid.
        pid: u32,
        /// The faulting virtual page number.
        vpn: u64,
    },
    /// The operation requires the device to be in the other lock state.
    WrongState {
        /// What the operation needed.
        expected_locked: bool,
    },
    /// A lock/unlock/fault/sweep entry point was called while a
    /// crash-consistency transition is still journaled in flight —
    /// [`crate::Sentry::recover`] must run first.
    TransitionInFlight {
        /// The entry point that was refused.
        op: &'static str,
    },
    /// A ciphertext page failed MAC verification against the on-SoC tag
    /// store: the frame was tampered with (or decayed) while encrypted.
    /// The page has been quarantined — its PTE stays encrypted, no
    /// plaintext was exposed, and the rest of the system keeps running.
    IntegrityViolation {
        /// Owning pid of the poisoned page.
        pid: u32,
        /// Virtual page number of the poisoned page.
        vpn: u64,
        /// The 64-bit tag the on-SoC store holds for the frame.
        tag_expected: [u8; 8],
        /// The tag recomputed over the frame's current contents.
        tag_got: [u8; 8],
    },
    /// A transient-fault retry budget was exhausted: the same operation
    /// kept failing with retriable crypt/dispatch errors beyond the
    /// configured cap, so the fault is treated as persistent.
    RetriesExhausted {
        /// The operation that gave up.
        op: &'static str,
        /// How many attempts were made (initial try + retries).
        attempts: u32,
    },
}

impl SentryError {
    /// True when this error (or anything in its source chain) is the
    /// fault plane's simulated power cut — the one failure whose
    /// aftermath is handled by [`crate::Sentry::recover`], not retry.
    #[must_use]
    pub fn is_power_loss(&self) -> bool {
        matches!(
            self,
            SentryError::Soc(SocError::PowerLost { .. })
                | SentryError::Kernel(KernelError::Soc(SocError::PowerLost { .. }))
        )
    }

    /// True when this error is an injected crypt-engine fault or batch
    /// abort from the fault plane: the transition failed cleanly before
    /// mutating anything, and the operation can simply be retried.
    #[must_use]
    pub(crate) fn is_injected_crypt_fault(&self) -> bool {
        matches!(
            self,
            SentryError::Soc(SocError::CryptFault { .. } | SocError::BatchAborted { .. })
                | SentryError::Kernel(KernelError::Soc(
                    SocError::CryptFault { .. } | SocError::BatchAborted { .. }
                ))
        )
    }

    /// True when this error reports a MAC-verification failure (a
    /// tampered or decayed ciphertext frame caught by the integrity
    /// plane, now quarantined).
    #[must_use]
    pub fn is_integrity_violation(&self) -> bool {
        matches!(self, SentryError::IntegrityViolation { .. })
    }
}

impl fmt::Display for SentryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SentryError::Kernel(e) => write!(f, "kernel: {e}"),
            SentryError::Soc(e) => write!(f, "soc: {e}"),
            SentryError::Crypto(e) => write!(f, "crypto: {e}"),
            SentryError::OnSocExhausted => write!(f, "on-SoC storage exhausted"),
            SentryError::NotSensitive { pid } => {
                write!(f, "process {pid} is not marked sensitive")
            }
            SentryError::Unresolvable { pid, vpn } => {
                write!(f, "unresolvable fault: pid {pid}, vpn {vpn:#x}")
            }
            SentryError::WrongState { expected_locked } => write!(
                f,
                "device must be {} for this operation",
                if *expected_locked {
                    "locked"
                } else {
                    "unlocked"
                }
            ),
            SentryError::TransitionInFlight { op } => write!(
                f,
                "{op} refused: a journaled transition is in flight (run recover() first)"
            ),
            SentryError::IntegrityViolation {
                pid,
                vpn,
                tag_expected,
                tag_got,
            } => write!(
                f,
                "integrity violation: pid {pid} vpn {vpn:#x} \
                 (expected tag {tag_expected:02x?}, got {tag_got:02x?}); page quarantined"
            ),
            SentryError::RetriesExhausted { op, attempts } => write!(
                f,
                "{op}: transient-fault retries exhausted after {attempts} attempts"
            ),
        }
    }
}

impl Error for SentryError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SentryError::Kernel(e) => Some(e),
            SentryError::Soc(e) => Some(e),
            SentryError::Crypto(e) => Some(e),
            _ => None,
        }
    }
}

impl From<KeyError> for SentryError {
    fn from(e: KeyError) -> Self {
        SentryError::Crypto(e)
    }
}

impl From<KernelError> for SentryError {
    fn from(e: KernelError) -> Self {
        SentryError::Kernel(e)
    }
}

impl From<SocError> for SentryError {
    fn from(e: SocError) -> Self {
        SentryError::Soc(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e: SentryError = SocError::CacheLockingUnavailable.into();
        assert!(e.to_string().contains("soc"));
        assert!(Error::source(&e).is_some());
        assert!(SentryError::OnSocExhausted
            .to_string()
            .contains("exhausted"));
    }

    #[test]
    fn power_loss_is_recognised_through_the_source_chain() {
        let direct: SentryError = SocError::PowerLost { site: "dram.write" }.into();
        assert!(direct.is_power_loss());
        let via_kernel: SentryError = KernelError::Soc(SocError::PowerLost {
            site: "pager.evict",
        })
        .into();
        assert!(via_kernel.is_power_loss());
        assert!(!SentryError::OnSocExhausted.is_power_loss());

        let crypt: SentryError = SocError::CryptFault { site: "crypt" }.into();
        assert!(crypt.is_injected_crypt_fault());
        assert!(!crypt.is_power_loss());
    }

    #[test]
    fn crypto_errors_convert_and_chain() {
        let e: SentryError = KeyError::InvalidLength(5).into();
        assert!(e.to_string().contains("crypto"));
        let src = Error::source(&e).expect("key errors carry a source");
        assert!(src.to_string().contains('5'));
    }
}
