//! A minimal extent-based file layer over a [`crate::bufcache::Volume`].
//!
//! Just enough of a file system for the filebench workloads of Figure 9:
//! named files allocated as contiguous block extents, with aligned read
//! and write operations that flow through the buffer cache / dm-crypt /
//! RAM-disk stack.

use crate::bufcache::{Volume, CACHE_BLOCK};
use crate::crypto_api::CryptoApi;
use crate::error::KernelError;
use sentry_soc::Soc;
use std::collections::BTreeMap;

/// A file: a contiguous extent of volume blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FileExtent {
    /// First byte offset on the volume.
    pub(crate) start: u64,
    /// File size in bytes (block-aligned).
    pub(crate) size: u64,
}

/// The file layer.
#[derive(Debug)]
pub struct SimpleFs {
    files: BTreeMap<String, FileExtent>,
    next_free: u64,
}

impl SimpleFs {
    /// An empty file system.
    #[must_use]
    pub fn new() -> Self {
        SimpleFs {
            files: BTreeMap::new(),
            next_free: 0,
        }
    }

    /// Create a file of `size` bytes (rounded up to a block).
    ///
    /// # Errors
    ///
    /// [`KernelError::BlockOutOfRange`] if the volume is full.
    pub fn create(
        &mut self,
        vol: &Volume,
        name: impl Into<String>,
        size: u64,
    ) -> Result<(), KernelError> {
        let size = size.div_ceil(CACHE_BLOCK as u64) * CACHE_BLOCK as u64;
        if self.next_free + size > vol.size() {
            return Err(KernelError::BlockOutOfRange {
                sector: self.next_free / 512,
            });
        }
        self.files.insert(
            name.into(),
            FileExtent {
                start: self.next_free,
                size,
            },
        );
        self.next_free += size;
        Ok(())
    }

    /// Look up a file.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchFile`].
    pub(crate) fn stat(&self, name: &str) -> Result<&FileExtent, KernelError> {
        self.files
            .get(name)
            .ok_or_else(|| KernelError::NoSuchFile(name.to_string()))
    }

    fn span(&self, name: &str, offset: u64, len: usize) -> Result<u64, KernelError> {
        let f = self.stat(name)?;
        if offset + len as u64 > f.size {
            return Err(KernelError::FileBounds {
                name: name.to_string(),
                end: offset + len as u64,
                size: f.size,
            });
        }
        Ok(f.start + offset)
    }

    /// Read from a file at a block-aligned offset.
    ///
    /// # Errors
    ///
    /// File-bounds and volume errors.
    // The storage stack's components are threaded explicitly (no global
    // kernel state), which costs one argument over clippy's limit.
    #[allow(clippy::too_many_arguments)]
    pub fn read(
        &self,
        vol: &mut Volume,
        api: &mut CryptoApi,
        soc: &mut Soc,
        name: &str,
        offset: u64,
        buf: &mut [u8],
        direct_io: bool,
    ) -> Result<(), KernelError> {
        let vol_off = self.span(name, offset, buf.len())?;
        vol.read(api, soc, vol_off, buf, direct_io)
    }

    /// Write to a file at a block-aligned offset.
    ///
    /// # Errors
    ///
    /// File-bounds and volume errors.
    #[allow(clippy::too_many_arguments)]
    pub fn write(
        &self,
        vol: &mut Volume,
        api: &mut CryptoApi,
        soc: &mut Soc,
        name: &str,
        offset: u64,
        data: &[u8],
        direct_io: bool,
    ) -> Result<(), KernelError> {
        let vol_off = self.span(name, offset, data.len())?;
        vol.write(api, soc, vol_off, data, direct_io)
    }
}

impl Default for SimpleFs {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bufcache::VolumeCrypto;
    use crate::crypto_api::GenericAesEngine;

    fn setup() -> (SimpleFs, Volume, CryptoApi, Soc) {
        let mut api = CryptoApi::new();
        api.register(Box::new(GenericAesEngine::new(0)));
        (
            SimpleFs::new(),
            Volume::new(4096, VolumeCrypto::None, 32),
            api,
            Soc::tegra3_small(),
        )
    }

    #[test]
    fn create_read_write() {
        let (mut fs, mut vol, mut api, mut soc) = setup();
        fs.create(&vol, "a.dat", 64 * 1024).unwrap();
        let data = vec![0xEEu8; 8192];
        fs.write(&mut vol, &mut api, &mut soc, "a.dat", 4096, &data, false)
            .unwrap();
        let mut buf = vec![0u8; 8192];
        fs.read(&mut vol, &mut api, &mut soc, "a.dat", 4096, &mut buf, false)
            .unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn files_do_not_overlap() {
        let (mut fs, vol, _, _) = setup();
        fs.create(&vol, "a", 4096).unwrap();
        fs.create(&vol, "b", 4096).unwrap();
        let a = fs.stat("a").unwrap().clone();
        let b = fs.stat("b").unwrap().clone();
        assert!(a.start + a.size <= b.start);
    }

    #[test]
    fn bounds_are_enforced() {
        let (mut fs, mut vol, mut api, mut soc) = setup();
        fs.create(&vol, "a", 4096).unwrap();
        let mut buf = vec![0u8; 8192];
        assert!(matches!(
            fs.read(&mut vol, &mut api, &mut soc, "a", 0, &mut buf, false),
            Err(KernelError::FileBounds { .. })
        ));
        assert!(matches!(
            fs.stat("missing"),
            Err(KernelError::NoSuchFile(_))
        ));
    }

    #[test]
    fn volume_capacity_is_enforced() {
        let (mut fs, vol, _, _) = setup();
        // Volume is 4096 sectors = 2 MiB.
        assert!(fs.create(&vol, "big", 3 << 20).is_err());
    }

    #[test]
    fn sizes_round_up_to_blocks() {
        let (mut fs, vol, _, _) = setup();
        fs.create(&vol, "odd", 100).unwrap();
        assert_eq!(fs.stat("odd").unwrap().size, 4096);
    }
}
