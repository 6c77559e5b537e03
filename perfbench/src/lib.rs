//! The repository benchmark: three workloads that drive the anonring
//! layers through their public functions, check every output, and report
//! end-to-end metrics (untraced) or per-layer metrics (traced).
//!
//! Run it from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_small --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! carry the host fingerprint, the workload's own metric names and, in a
//! traced run, the per-layer self-time table and the accounting row.

pub mod cluster3;
pub mod host;
pub mod report;
pub mod rng;
pub mod serve;
pub mod sim_grid;
pub mod stats;
pub mod trace;

use std::path::PathBuf;

pub use report::{Outcome, END_TO_END, PER_LAYER, WORKLOADS};

/// How large a run is. `Tiny` is the self-test scale: small rings, few
/// jobs, the same code paths and the same correctness gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's own sizes.
    Full,
    /// Self-test sizes.
    Tiny,
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Measured seconds (set-up excluded).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Repository root (holds `BENCH_trajectory.json`).
    pub root: PathBuf,
    /// Input sizes.
    pub scale: Scale,
}

/// Runs one named workload.
///
/// # Errors
///
/// An unknown workload name, or a failure that prevents measuring at all
/// (a missing input file, an I/O error). Wrong outputs are not errors:
/// they land in [`Outcome::violations`].
pub fn run_workload(name: &str, config: &RunConfig) -> Result<Outcome, String> {
    match name {
        "sim_grid" => sim_grid::run(config),
        "serve_small" => serve::run(config),
        "cluster3" => cluster3::run(config),
        other => Err(format!(
            "unknown workload {other:?} (one of {})",
            WORKLOADS.join(", ")
        )),
    }
}
