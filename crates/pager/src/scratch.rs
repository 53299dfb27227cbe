//! The one scratch-directory guard of the workspace.
//!
//! Every durable test, checker run and bench sweep keeps its store
//! directories under the system temp dir. They all take their directory
//! from here, so the naming rule (what keeps concurrent tests of one
//! process apart) and the clean-up rule (what the CI tmpdir-leak check
//! enforces) live in one place.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A directory path under the system temp dir that is unique to this
/// call and removed — with everything below it — when the guard drops,
/// also when the owning test panics.
///
/// The name is `mobidx-<tag>-<pid>-<n>` with `n` a process-wide counter:
/// cargo runs the tests of one binary on parallel threads of one
/// process, so a tag and a pid alone would hand two of them the same
/// store. The `mobidx-` prefix is what the CI leak check greps for.
///
/// The directory itself is not created: [`crate::FileBackend::open`]
/// creates whatever it is pointed at, parents included.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// A fresh path for `tag`; anything a dead process left under the
    /// same name is removed first.
    #[must_use]
    pub fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "mobidx-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Self(dir)
    }
}

impl std::ops::Deref for ScratchDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Nothing to report to: a directory that cannot be removed is
        // what the leak check exists to find.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_removed_on_drop_and_on_panic() {
        let a = ScratchDir::new("scratch");
        let b = ScratchDir::new("scratch");
        assert_ne!(&*a, &*b, "same tag, same process: still two directories");
        let name = a.file_name().unwrap().to_string_lossy().into_owned();
        assert!(name.starts_with("mobidx-scratch-"), "{name}");
        std::fs::create_dir_all(a.join("store0")).unwrap();
        std::fs::write(a.join("store0").join("wal.log"), b"x").unwrap();
        let kept = a.to_path_buf();
        drop(a);
        assert!(!kept.exists(), "drop removes the tree");

        let panicked = std::thread::spawn(|| {
            let dir = ScratchDir::new("scratch");
            std::fs::create_dir_all(&*dir).unwrap();
            let path = dir.to_path_buf();
            std::panic::resume_unwind(Box::new(path));
        })
        .join()
        .unwrap_err();
        let path = panicked.downcast::<PathBuf>().unwrap();
        assert!(!path.exists(), "unwinding removes it too");
    }
}
