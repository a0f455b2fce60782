//! Scratch space inside the checkout the benchmark runs from.
//!
//! The benchmark reads and writes only under `./.perfbench/`: a per-process
//! temp tree (fresh caches and results dirs, removed on drop) and the traced
//! run's Chrome trace files. It never touches the repository's `results/`.

use std::cell::Cell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

/// Distinguishes the temp trees of one process (the self-tests run several
/// at once).
static TREES: AtomicU32 = AtomicU32::new(0);

/// The benchmark's directory under the current working directory.
pub fn base_dir() -> PathBuf {
    PathBuf::from(".perfbench")
}

/// A per-process temp tree handing out fresh, not yet created, directories.
#[derive(Debug)]
pub struct Workdir {
    root: PathBuf,
    next: Cell<u32>,
}

impl Workdir {
    /// Create `./.perfbench/tmp-<pid>-<n>/`.
    ///
    /// # Errors
    ///
    /// When the directory cannot be created.
    pub fn create() -> std::io::Result<Workdir> {
        let n = TREES.fetch_add(1, Ordering::Relaxed);
        let root = base_dir().join(format!("tmp-{}-{n}", std::process::id()));
        if root.exists() {
            std::fs::remove_dir_all(&root)?;
        }
        std::fs::create_dir_all(&root)?;
        Ok(Workdir {
            root,
            next: Cell::new(0),
        })
    }

    /// A path no other call has returned, inside the temp tree.
    pub fn fresh(&self) -> PathBuf {
        let n = self.next.get();
        self.next.set(n + 1);
        self.root.join(n.to_string())
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Fails, as it should, while other trees or traces remain.
        let _ = std::fs::remove_dir(base_dir());
    }
}
