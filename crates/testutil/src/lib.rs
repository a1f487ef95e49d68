//! Shared test support for the workspace.
//!
//! Every on-disk test takes its scratch space from [`TempDir`] or
//! [`TempPath`]. Each call gets a path no other call in the process or in a
//! concurrent process gets (the harness runs tests on parallel threads),
//! and `Drop` removes it, even on panic (the libtest harness catches the
//! unwind), so a failing assertion leaves nothing behind.
//!
//! [`minimize`] shrinks a failing generated case (the lattice lane's
//! operation histories) to a minimal one.

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

/// Delta debugging: shrink `items`, on which `fails` holds, to a sub-list
/// on which it still holds and from which no single element can be removed
/// without it passing (1-minimal). Cuts `items` into chunks and drops one
/// chunk at a time, halving the chunk size whenever no drop keeps the
/// failure — `O(len²)` calls of `fails` at worst, `O(log len)` per element
/// removed when failures are local.
pub fn minimize<T: Clone>(items: &[T], mut fails: impl FnMut(&[T]) -> bool) -> Vec<T> {
    let mut items = items.to_vec();
    let mut chunks = 2;
    while !items.is_empty() {
        let size = items.len().div_ceil(chunks);
        let smaller = (0..items.len()).step_by(size).find_map(|start| {
            let mut rest = items.clone();
            rest.drain(start..(start + size).min(items.len()));
            fails(&rest).then_some(rest)
        });
        match smaller {
            Some(rest) => (items, chunks) = (rest, (chunks - 1).max(2)),
            None if size == 1 => break,
            None => chunks = (chunks * 2).min(items.len()),
        }
    }
    items
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
    fn minimize_finds_a_one_minimal_failing_sublist() {
        // Fails while both 3 and 7 are present and the sum stays odd.
        let fails =
            |xs: &[u32]| xs.contains(&3) && xs.contains(&7) && xs.iter().sum::<u32>() % 2 == 1;
        let input: Vec<u32> = (0..19).collect();
        assert!(fails(&input));
        // 1-minimal is not smallest: [1, 3, 5, 7, 9] qualifies as well as
        // [1, 3, 7]; what holds is that no single element can go.
        let got = minimize(&input, fails);
        assert!(fails(&got));
        for i in 0..got.len() {
            let mut less = got.clone();
            less.remove(i);
            assert!(!fails(&less), "{got:?} without its element {i} still fails");
        }
        assert_eq!(minimize(&[5u32], |_| true), Vec::<u32>::new(), "nothing is needed");
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
