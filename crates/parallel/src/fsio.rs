//! Crash-safe file persistence shared across the workspace.
//!
//! Every on-disk artifact the workspace writes — the host calibration
//! cache, `BENCH.json`, serving snapshots — must survive a crash mid-write
//! without ever being observed half-written. The standard recipe is the
//! same everywhere: write the full contents to a temporary sibling, fsync
//! it, then atomically rename over the destination. Before this module the
//! recipe was hand-rolled at each call site (and each copy skipped the
//! fsync); [`atomic_write`] is the single shared implementation.
//!
//! The atomicity guarantee is the filesystem's `rename(2)` contract: a
//! reader (or a post-crash recovery pass) sees either the previous
//! complete file or the new complete file, never a mixture and never a
//! truncated tail. The fsync before the rename closes the
//! data-loss-on-power-cut window that `write` + `rename` alone leaves
//! open.
//!
//! [`scratch`] is the matching helper for throwaway files: a fresh
//! directory whose name no other caller, thread or process can share,
//! removed with its contents when dropped.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::sync::{AtomicU64, Ordering};

/// Atomically replace `path` with `bytes`.
///
/// Parent directories are created as needed. The contents are written to
/// a `.tmp`-suffixed sibling in the same directory (so the final rename
/// cannot cross a filesystem boundary), flushed and fsynced, and then
/// renamed over `path`. On any error the destination is untouched; a
/// leftover `.tmp` sibling from an aborted attempt is simply overwritten
/// by the next call.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let tmp = tmp_sibling(path);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            // Best-effort cleanup; the rename error is the one that matters.
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// The temporary sibling `atomic_write` stages into: `path` with `.tmp`
/// appended to the full file name (not substituted for the extension, so
/// `a.json` and `a` never collide on the same temp name as `a.json.tmp`
/// vs `a.tmp`).
fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// A fresh, empty directory under the system temp directory, removed
/// with everything in it when dropped.
///
/// Made by [`scratch`]. Files created through [`Scratch::join`] — and any
/// sibling a writer stages next to them, such as [`atomic_write`]'s
/// `.tmp` — live and die with it.
#[derive(Debug)]
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    /// The directory itself.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// A path for `name` inside the directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Best effort: a leftover directory is harmless, a panic here is not.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Create a [`Scratch`] directory named `hc-{label}-{pid}-{seq}`.
///
/// The process id separates concurrent processes, and `seq` — a
/// process-wide counter — separates every call within one process, so
/// tests running on parallel threads never share, overwrite or delete one
/// another's files even when they pass the same `label`. A stale
/// directory of the same name, left by an earlier process that had this
/// pid, is cleared first.
pub fn scratch(label: &str) -> std::io::Result<Scratch> {
    static SEQ: AtomicU64 = AtomicU64::new_untracked(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("hc-{label}-{}-{seq}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    Ok(Scratch { dir })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_dirs_are_unique_and_removed_on_drop() {
        let a = scratch("fsio-unique").expect("scratch a");
        let b = scratch("fsio-unique").expect("scratch b");
        assert_ne!(a.path(), b.path());
        assert!(a.path().is_dir() && b.path().is_dir());
        atomic_write(&a.join("f.bin"), b"x").expect("write inside scratch");
        let dir = a.path().to_path_buf();
        drop(a);
        assert!(!dir.exists(), "a dropped scratch directory is removed");
        assert!(
            b.path().is_dir(),
            "dropping one scratch leaves others alone"
        );
    }

    #[test]
    fn writes_and_replaces() {
        let dir = scratch("fsio-replace").expect("scratch dir");
        let path = dir.join("nested").join("out.json");
        atomic_write(&path, b"first").expect("first write");
        assert_eq!(std::fs::read(&path).expect("read back"), b"first");
        atomic_write(&path, b"second, longer contents").expect("second write");
        assert_eq!(
            std::fs::read(&path).expect("read back"),
            b"second, longer contents"
        );
        // No temp sibling is left behind after a successful write.
        assert!(!tmp_sibling(&path).exists());
    }

    #[test]
    fn failed_write_leaves_destination_intact() {
        let dir = scratch("fsio-intact").expect("scratch dir");
        let path = dir.join("out.bin");
        atomic_write(&path, b"durable").expect("seed write");
        // Writing to a path whose parent is a *file* must fail without
        // touching the original.
        let bad = path.join("child.bin");
        assert!(atomic_write(&bad, b"x").is_err());
        assert_eq!(std::fs::read(&path).expect("read back"), b"durable");
    }

    #[test]
    fn tmp_name_appends_full_suffix() {
        assert_eq!(
            tmp_sibling(Path::new("/a/b/c.json")),
            Path::new("/a/b/c.json.tmp")
        );
        assert_eq!(tmp_sibling(Path::new("/a/b/c")), Path::new("/a/b/c.tmp"));
    }
}
