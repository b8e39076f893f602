//! Helpers shared by the CLI integration suites.

use std::path::{Path, PathBuf};

/// A fresh data directory under the system temp dir, named after the
/// suite, the process and `tag`. Dropping it removes the directory when
/// the test passed; a panicking test keeps it as evidence.
pub struct TestDir(PathBuf);

impl TestDir {
    /// Creates `mube-{suite}-{pid}-{tag}`, emptying any leftover first.
    pub fn new(suite: &str, tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("mube-{suite}-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create test data dir");
        TestDir(dir)
    }
}

impl std::ops::Deref for TestDir {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for TestDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}
