//! Where `durable_stream` keeps its store directories: under
//! `<target dir>/perf-tmp/`, on a real filesystem, removed when the run
//! ends — also when it panics — and swept at the next start when a run
//! was killed.
//!
//! Never tmpfs: the WAL logs about eight page images per update and the
//! serving tier never checkpoints, so a run writes on the order of a
//! gigabyte. On `/dev/shm` that is a gigabyte of the box's RAM, and the
//! fsync the workload exists to measure becomes a no-op.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Directory name under the target dir.
pub const TMP_DIR: &str = "perf-tmp";

/// The build's target directory, found from the running executable:
/// the parent of the first `release` or `debug` ancestor. This is
/// `$CARGO_TARGET_DIR` when the driver sets it and `perf/target`
/// otherwise, for the binary and for test executables alike.
///
/// # Errors
/// When the executable does not sit in a cargo target directory.
pub fn target_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    exe.ancestors()
        .find(|p| {
            p.file_name()
                .is_some_and(|n| n == "release" || n == "debug")
        })
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .ok_or_else(|| format!("{} is not inside a cargo target directory", exe.display()))
}

/// The scratch root, created, checked not to be memory-backed, and swept
/// of directories whose process is gone.
///
/// # Errors
/// When the root cannot be created or sits on tmpfs/ramfs.
pub fn tmp_root() -> Result<PathBuf, String> {
    let root = target_dir()?.join(TMP_DIR);
    std::fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;
    let root = root
        .canonicalize()
        .map_err(|e| format!("canonicalize {}: {e}", root.display()))?;
    if let Some(fs) = memory_backed(&root) {
        return Err(format!(
            "{} is on {fs}; durable_stream needs a real filesystem",
            root.display()
        ));
    }
    sweep_orphans(&root);
    Ok(root)
}

/// The filesystem type of the mount holding `path`, if it is tmpfs or
/// ramfs (longest mount-point prefix in `/proc/self/mountinfo`).
fn memory_backed(path: &Path) -> Option<String> {
    let mounts = std::fs::read_to_string("/proc/self/mountinfo").ok()?;
    memory_backed_in(&mounts, path)
}

fn memory_backed_in(mounts: &str, path: &Path) -> Option<String> {
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        // "<id> <parent> <maj:min> <root> <mount point> <opts> ... - <fstype> ..."
        let mut fields = line.split(' ');
        let Some(mount_point) = fields.nth(4) else {
            continue;
        };
        let Some(fstype) = line.split(" - ").nth(1).and_then(|s| s.split(' ').next()) else {
            continue;
        };
        if path.starts_with(mount_point)
            && best
                .as_ref()
                .is_none_or(|(len, _)| mount_point.len() >= *len)
        {
            best = Some((mount_point.len(), fstype.to_owned()));
        }
    }
    best.map(|(_, fs)| fs)
        .filter(|fs| fs == "tmpfs" || fs == "ramfs")
}

/// Removes `run-<pid>-<k>` directories whose process no longer exists —
/// what a `SIGKILL`ed run leaves behind.
fn sweep_orphans(root: &Path) {
    let Ok(entries) = std::fs::read_dir(root) else {
        return;
    };
    for entry in entries.filter_map(Result::ok) {
        let name = entry.file_name();
        let pid = name
            .to_str()
            .and_then(|n| n.strip_prefix("run-"))
            .and_then(|n| n.split('-').next())
            .and_then(|p| p.parse::<u32>().ok());
        if let Some(pid) = pid {
            if pid != std::process::id() && !Path::new(&format!("/proc/{pid}")).exists() {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
    }
}

static NEXT_DIR: AtomicUsize = AtomicUsize::new(0);

/// A directory under the scratch root that is removed on drop, so that a
/// panic unwinding through its owner still cleans up.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `root/run-<pid>-<k>`, unique within and across processes.
    ///
    /// # Errors
    /// When the directory cannot be created.
    pub fn create(root: &Path) -> Result<Self, String> {
        let path = root.join(format!(
            "run-{}-{}",
            std::process::id(),
            NEXT_DIR.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(Self { path })
    }

    /// The directory.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Total size in bytes of the files named `file_name` under `dir`.
#[must_use]
pub fn total_len(dir: &Path, file_name: &str) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => total_len(&e.path(), file_name),
            Ok(m) if e.file_name() == file_name => m.len(),
            _ => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temp_dirs_are_unique_and_removed_even_on_panic() {
        let root = tmp_root().expect("scratch root");
        let a = TempDir::create(&root).unwrap();
        let b = TempDir::create(&root).unwrap();
        assert_ne!(a.path(), b.path());
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists());
        let inner = b.path().to_path_buf();
        let caught = std::panic::catch_unwind(move || {
            let _own = b;
            panic!("induced");
        });
        assert!(caught.is_err());
        assert!(!inner.exists(), "unwinding must remove the directory");
    }

    #[test]
    fn orphans_of_dead_processes_are_swept() {
        let root = tmp_root().expect("scratch root");
        // Pids are capped far below this on Linux.
        let orphan = root.join("run-4194999-0");
        std::fs::create_dir_all(orphan.join("shard0")).unwrap();
        let _ = tmp_root().unwrap();
        assert!(!orphan.exists());
    }

    #[test]
    fn memory_backed_mounts_are_recognised_by_longest_prefix() {
        let mounts = "28 1 254:0 / / rw,relatime - ext4 /dev/vda rw\n\
                      26 25 0:24 / /dev/shm rw,relatime - tmpfs tmpfs rw,size=1k\n\
                      31 28 0:27 / /data rw shared:1 - ext4 /dev/vdb rw\n";
        let fs = |p: &str| memory_backed_in(mounts, Path::new(p));
        assert_eq!(fs("/dev/shm/perf-tmp").as_deref(), Some("tmpfs"));
        assert_eq!(fs("/data/perf-tmp"), None);
        assert_eq!(fs("/root/repo/perf/target"), None);
        assert!(memory_backed(&target_dir().unwrap()).is_none());
    }
}
