//! A scratch directory per run for units, the serve socket and its cache.
//!
//! The name joins the process id with a per-process sequence number and
//! is claimed with `create_dir`, which fails if the name is taken, so two
//! runs — in two processes or in one — never share a directory. Paths
//! stay relative to the working directory: a unix socket path is limited
//! to about 100 bytes, and the checkout's absolute path may be long.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Directory, relative to the working directory, that holds every run's
/// scratch directory.
pub const ROOT: &str = ".perfbench-tmp";

static NEXT: AtomicU64 = AtomicU64::new(0);

/// One run's scratch directory; removed by [`Scratch::remove`] or on drop.
#[derive(Debug)]
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    /// Claims a fresh directory under `root`.
    ///
    /// # Errors
    ///
    /// `root` cannot be created, or no free name was found.
    pub fn create(root: &Path) -> io::Result<Scratch> {
        std::fs::create_dir_all(root)?;
        for _ in 0..1000 {
            let seq = NEXT.fetch_add(1, Ordering::Relaxed);
            let dir = root.join(format!("{}-{seq}", std::process::id()));
            match std::fs::create_dir(&dir) {
                Ok(()) => return Ok(Scratch { dir }),
                // A directory left behind by a killed run with a reused pid.
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            }
        }
        Err(io::Error::new(
            io::ErrorKind::AlreadyExists,
            "no free scratch directory name",
        ))
    }

    /// The directory.
    #[cfg(test)]
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// Creates (if needed) and returns a subdirectory.
    ///
    /// # Errors
    ///
    /// The subdirectory cannot be created.
    pub fn sub(&self, name: &str) -> io::Result<PathBuf> {
        let d = self.dir.join(name);
        std::fs::create_dir_all(&d)?;
        Ok(d)
    }

    /// Removes the directory, and its parent if no other run uses it.
    ///
    /// # Errors
    ///
    /// The directory could not be removed.
    pub fn remove(mut self) -> io::Result<()> {
        let dir = std::mem::take(&mut self.dir);
        std::fs::remove_dir_all(&dir)?;
        if let Some(parent) = dir.parent() {
            // Fails while another run still holds a directory there.
            let _ = std::fs::remove_dir(parent);
        }
        Ok(())
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        if !self.dir.as_os_str().is_empty() {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_scratch_dirs_never_collide_and_are_removed() {
        let root = PathBuf::from(ROOT).join(format!("unit-test-{}", std::process::id()));
        let a = Scratch::create(&root).unwrap();
        let b = Scratch::create(&root).unwrap();
        assert_ne!(a.path(), b.path());
        let (pa, pb) = (a.path().to_path_buf(), b.path().to_path_buf());
        a.remove().unwrap();
        assert!(!pa.exists());
        assert!(pb.exists());
        drop(b);
        assert!(!pb.exists());
        let _ = std::fs::remove_dir(&root);
        let _ = std::fs::remove_dir(ROOT);
    }
}
