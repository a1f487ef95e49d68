//! Scratch-directory hygiene and the host fingerprint.

use crate::json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The benchmark package's own directory in this checkout.
pub const BENCHMARK_DIR: &str = env!("CARGO_MANIFEST_DIR");

/// One directory that holds everything a run writes (streams, stores,
/// sockets, daemon state) and is removed when the run ends, however it ends.
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    /// `dir`, or `target/benchmark-scratch/<pid>` in this checkout.
    pub fn create(dir: Option<PathBuf>) -> std::io::Result<Scratch> {
        let path = dir.unwrap_or_else(|| {
            Path::new(BENCHMARK_DIR)
                .join("../target/benchmark-scratch")
                .join(std::process::id().to_string())
        });
        std::fs::create_dir_all(&path)?;
        Ok(Scratch { path: path.canonicalize()? })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh, empty subdirectory.
    pub fn subdir(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = self.path.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// What has to match before two result files may be compared: core count,
/// kernel, the scratch directory's filesystem and the compiler. The git
/// commit rides along for the record only — comparing commits is the point.
pub fn fingerprint(scratch: &Path) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    Value::obj(vec![
        ("nproc", Value::Num(nproc as f64)),
        ("kernel", Value::str(kernel.trim())),
        ("scratch_fs", Value::str(filesystem_of(scratch))),
        ("rustc", Value::str(first_line_of("rustc", &["--version"]))),
        (
            "git_commit",
            Value::str(first_line_of("git", &["-C", BENCHMARK_DIR, "rev-parse", "HEAD"])),
        ),
    ])
}

/// Fingerprint fields whose mismatch makes a comparison meaningless.
pub const HOST_FIELDS: [&str; 4] = ["nproc", "kernel", "scratch_fs", "rustc"];

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Filesystem type of the mount holding `path`, from `/proc/self/mounts`
/// (the longest mount point that is a prefix of the path wins).
fn filesystem_of(path: &Path) -> String {
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, fs) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount).then_some((mount.len(), fs))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_is_removed_on_drop_and_subdirs_start_empty() {
        let base = Path::new(BENCHMARK_DIR)
            .join(format!("../target/benchmark-scratch/test-{}", std::process::id()));
        let kept = {
            let scratch = Scratch::create(Some(base.clone())).unwrap();
            let sub = scratch.subdir("a").unwrap();
            std::fs::write(sub.join("f"), b"x").unwrap();
            let again = scratch.subdir("a").unwrap();
            assert_eq!(std::fs::read_dir(&again).unwrap().count(), 0);
            scratch.path().to_path_buf()
        };
        assert!(!kept.exists());
    }

    #[test]
    fn fingerprint_has_every_host_field() {
        let fp = fingerprint(Path::new("/"));
        for field in HOST_FIELDS {
            assert!(fp.get(field).is_some(), "{field}");
        }
        assert!(fp.get("nproc").and_then(Value::as_f64).unwrap() >= 1.0);
    }
}
