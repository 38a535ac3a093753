//! `bucketrank-testkit` — the repo's hermetic testing harness.
//!
//! Three pieces plus a scratch-directory guard ([`TempDir`]), zero
//! external dependencies:
//!
//! * [`rng`] — deterministic PRNGs ([`rng::SplitMix64`],
//!   [`rng::Pcg32`]) behind a `rand`-shaped trait surface
//!   ([`rng::Rng`], [`rng::SeedableRng`], [`rng::SliceRandom`]), so
//!   workload samplers and tests stay generic over the source.
//! * [`gen`] — generator combinators with generator-owned shrinking,
//!   including `BucketOrder` domain generators with remove-item and
//!   merge-bucket shrink moves.
//! * [`runner`] — a property runner: `runner::check(name, gen, |v| …)`
//!   draws ≥ 64 cases, shrinks failures, and prints the seed plus a
//!   `BUCKETRANK_PT_SEED=…` reproduction line.
//!
//! Determinism contract: case streams are a pure function of
//! `(seed, property name, case index)`. `BUCKETRANK_PT_SEED` and
//! `BUCKETRANK_PT_CASES` override the defaults process-wide.

pub mod gen;
pub mod rng;
pub mod runner;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fresh directory under the system temp dir, unique per process and
/// per call, removed with everything in it on drop.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates `bucketrank-<tag>-<pid>-<counter>` under the temp dir.
    ///
    /// # Panics
    /// If the directory cannot be created.
    pub fn new(tag: &str) -> TempDir {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "bucketrank-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One-stop imports for test files.
pub mod prelude {
    pub use crate::gen::{self, Gen};
    pub use crate::rng::{Pcg32, Rng, SeedableRng, SliceRandom, SplitMix64};
    pub use crate::runner::{check, check_with, Config};
}
