//! Shared test support for the workspace.
//!
//! Every on-disk test takes its scratch space from [`TempDir`] or
//! [`TempPath`]. Each call gets a path no other call in the process or in a
//! concurrent process gets (the harness runs tests on parallel threads),
//! and `Drop` removes it, even on panic (the libtest harness catches the
//! unwind), so a failing assertion leaves nothing behind.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static SEQ: AtomicU64 = AtomicU64::new(0);

/// A path component unique across processes, threads, and reruns:
/// pid + a process-wide counter + nanoseconds since the epoch.
fn unique_name(prefix: &str) -> String {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos())
        .unwrap_or(0);
    format!("{prefix}-{}-{}-{nanos}", std::process::id(), SEQ.fetch_add(1, Ordering::Relaxed))
}

/// A uniquely named directory under the system temp dir, created on
/// construction and recursively removed on drop.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Create `"$TMPDIR/<prefix>-<pid>-<seq>-<nanos>"`.
    pub fn new(prefix: &str) -> Self {
        let path = std::env::temp_dir().join(unique_name(prefix));
        std::fs::create_dir_all(&path).expect("create temp dir");
        TempDir { path }
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A path for `name` inside the directory (not created).
    pub fn join(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

impl AsRef<Path> for TempDir {
    fn as_ref(&self) -> &Path {
        &self.path
    }
}

/// A uniquely named *file path* under the system temp dir. The file is not
/// created — the code under test does that — but whatever ends up at the
/// path (file or directory) is removed on drop.
#[derive(Debug)]
pub struct TempPath {
    path: PathBuf,
}

impl TempPath {
    /// Reserve `"$TMPDIR/<prefix>-<pid>-<seq>-<nanos><suffix>"`.
    pub fn new(prefix: &str, suffix: &str) -> Self {
        let path = std::env::temp_dir().join(format!("{}{suffix}", unique_name(prefix)));
        TempPath { path }
    }

    /// The reserved path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The reserved path as an owned `PathBuf`.
    pub fn to_path_buf(&self) -> PathBuf {
        self.path.clone()
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        if self.path.is_dir() {
            let _ = std::fs::remove_dir_all(&self.path);
        } else {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

impl AsRef<Path> for TempPath {
    fn as_ref(&self) -> &Path {
        &self.path
    }
}

/// This process's peak resident set so far (`VmHWM` in
/// `/proc/self/status`), in bytes; `None` where the kernel does not say.
pub fn peak_rss_bytes() -> Option<u64> {
    status_bytes("VmHWM:")
}

/// This process's resident set now (`VmRSS`), in bytes; `None` where the
/// kernel does not say.
pub fn rss_bytes() -> Option<u64> {
    status_bytes("VmRSS:")
}

/// Lower the peak resident set to the current one (Linux: `5` written to
/// `/proc/self/clear_refs`), so a later [`peak_rss_bytes`] measures only
/// what ran in between. False where the kernel refuses.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// A `kB` field of `/proc/self/status`, in bytes.
fn status_bytes(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with(field))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temp_dirs_are_unique_and_cleaned() {
        let (p1, p2);
        {
            let d1 = TempDir::new("gz-testutil");
            let d2 = TempDir::new("gz-testutil");
            p1 = d1.path().to_path_buf();
            p2 = d2.path().to_path_buf();
            assert_ne!(p1, p2, "two dirs from one process must differ");
            assert!(p1.is_dir() && p2.is_dir());
            std::fs::write(d1.join("x"), b"payload").unwrap();
        }
        assert!(!p1.exists(), "dir (and contents) removed on drop");
        assert!(!p2.exists());
    }

    #[test]
    fn temp_path_removes_what_appears() {
        let p;
        {
            let t = TempPath::new("gz-testutil", ".bin");
            p = t.to_path_buf();
            assert!(!p.exists(), "TempPath must not pre-create the file");
            std::fs::write(&p, b"data").unwrap();
        }
        assert!(!p.exists(), "file removed on drop");
    }

    #[test]
    fn temp_path_removes_directories_too() {
        let p;
        {
            let t = TempPath::new("gz-testutil-dir", "");
            p = t.to_path_buf();
            std::fs::create_dir_all(p.join("nested")).unwrap();
        }
        assert!(!p.exists(), "dir removed on drop");
    }

    #[test]
    fn parallel_construction_never_collides() {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(|| {
                    (0..16).map(|_| TempDir::new("gz-par").path().to_path_buf()).collect::<Vec<_>>()
                })
            })
            .collect();
        let mut all: Vec<PathBuf> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        let n = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), n, "unique across threads");
    }
}
