//! Error types for the AES implementation.

use std::error::Error;
use std::fmt;

/// Error returned when constructing an AES context from an invalid key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyError {
    /// The key length in bytes was not 16, 24, or 32.
    InvalidLength(usize),
}

impl fmt::Display for KeyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyError::InvalidLength(len) => {
                write!(
                    f,
                    "invalid AES key length {len}, expected 16, 24, or 32 bytes"
                )
            }
        }
    }
}

impl Error for KeyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let msg = KeyError::InvalidLength(7).to_string();
        assert!(msg.contains('7'));
        assert!(msg.starts_with("invalid"));
    }
}
