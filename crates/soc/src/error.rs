//! Error types for the SoC simulation.

use std::error::Error;
use std::fmt;

/// Errors raised by the simulated SoC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SocError {
    /// The physical address (or the span starting there) is not backed by
    /// DRAM or iRAM.
    Unmapped {
        /// Faulting physical address.
        addr: u64,
        /// Access length in bytes.
        len: usize,
    },
    /// A write touched the firmware-reserved low 64 KiB of iRAM, which
    /// crashes the device (§4.5 of the paper).
    IramFirmwareRegion {
        /// Faulting physical address.
        addr: u64,
    },
    /// A DMA transfer targeted a TrustZone-protected range and was denied.
    DmaDenied {
        /// Faulting physical address.
        addr: u64,
    },
    /// A CPU access from the normal world touched secure-world-only
    /// memory.
    SecureWorldOnly {
        /// Faulting physical address.
        addr: u64,
    },
    /// An operation (e.g., programming the PL310 lockdown registers or
    /// reading the hardware fuse) requires the TrustZone secure world.
    RequiresSecureWorld {
        /// Short name of the operation.
        op: &'static str,
    },
    /// Cache way locking is not available on this platform (e.g., the
    /// Nexus 4, whose firmware is locked).
    CacheLockingUnavailable,
    /// A firmware image failed boot-time signature verification.
    BadFirmwareSignature,
    /// The requested cache way index is out of range.
    InvalidWay {
        /// The offending way index.
        way: usize,
    },
    /// An armed failpoint cut power at the named site: the access that
    /// hit it never happened and the in-flight transition is dead.
    PowerLost {
        /// The failpoint site that fired.
        site: &'static str,
    },
    /// An armed failpoint injected a crypt-engine hardware error at the
    /// named site; no data was transformed.
    CryptFault {
        /// The failpoint site that fired.
        site: &'static str,
    },
    /// An armed failpoint aborted a multi-page batch at the named site.
    BatchAborted {
        /// The failpoint site that fired.
        site: &'static str,
    },
    /// An armed failpoint injected a transient storage-device I/O
    /// failure at the named site; a retry of the same request (after
    /// backoff) may succeed.
    DeviceFault {
        /// The failpoint site that fired.
        site: &'static str,
    },
}

impl fmt::Display for SocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SocError::Unmapped { addr, len } => {
                write!(f, "unmapped physical access at {addr:#x} (+{len})")
            }
            SocError::IramFirmwareRegion { addr } => write!(
                f,
                "write to firmware-reserved iRAM at {addr:#x} would crash the device"
            ),
            SocError::DmaDenied { addr } => {
                write!(f, "DMA to {addr:#x} denied by TrustZone range protection")
            }
            SocError::SecureWorldOnly { addr } => {
                write!(f, "normal-world access to secure-only memory at {addr:#x}")
            }
            SocError::RequiresSecureWorld { op } => {
                write!(f, "operation {op:?} requires the TrustZone secure world")
            }
            SocError::CacheLockingUnavailable => {
                write!(
                    f,
                    "cache way locking is disabled by this platform's firmware"
                )
            }
            SocError::BadFirmwareSignature => {
                write!(
                    f,
                    "firmware image is not signed with the manufacturer's key"
                )
            }
            SocError::InvalidWay { way } => write!(f, "cache way index {way} out of range"),
            SocError::PowerLost { site } => {
                write!(f, "power lost at failpoint {site:?}")
            }
            SocError::CryptFault { site } => {
                write!(f, "crypt engine fault injected at failpoint {site:?}")
            }
            SocError::BatchAborted { site } => {
                write!(f, "batch aborted at failpoint {site:?}")
            }
            SocError::DeviceFault { site } => {
                write!(
                    f,
                    "transient device I/O fault injected at failpoint {site:?}"
                )
            }
        }
    }
}

impl Error for SocError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = SocError::Unmapped {
            addr: 0x1000,
            len: 4,
        };
        assert!(e.to_string().contains("0x1000"));
        let e = SocError::RequiresSecureWorld { op: "lockdown" };
        assert!(e.to_string().contains("lockdown"));
    }
}
