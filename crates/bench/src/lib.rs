//! # anonring-bench
//!
//! The experiment harness: one runner per experiment of DESIGN.md's
//! per-experiment index (E1–E18), each producing a paper-bound-versus-
//! measured table. `cargo run --release -p anonring-bench --bin
//! experiments` regenerates every table; EXPERIMENTS.md records the
//! outputs.
//!
//! The paper being a theory paper, its "tables and figures" are the
//! complexity bounds of §4–§7; every experiment here measures a real
//! simulator run against the corresponding closed-form bound.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod ablations;
pub mod arbitrary;
pub mod artifact;
pub mod audit;
pub mod cli;
pub mod cluster;
pub mod dynamic;
pub mod json;
pub mod labeled;
pub mod load;
pub mod lower_async;
pub mod lower_sync;
pub mod ringd;
pub mod sweep;
pub mod table;
pub mod telemetry_runs;
pub mod upper;

pub use table::{CellMetrics, Table};

/// A nullary experiment entry point producing a result table.
pub type ExperimentRunner = fn() -> Table;

/// Every experiment as an (id, runner) pair, in DESIGN.md order.
#[must_use]
pub fn experiment_runners() -> Vec<(&'static str, ExperimentRunner)> {
    vec![
        ("E1", upper::e01_async_input_distribution),
        ("E2", upper::e02_sync_and),
        ("E3", upper::e03_sync_input_distribution),
        ("E4", upper::e04_orientation),
        ("E5", upper::e05_start_sync),
        ("E6", upper::e06_start_sync_bits),
        ("E7", lower_async::e07_and_lower_bound),
        ("E8", lower_async::e08_orientation_lower_bound),
        ("E9", lower_async::e09_random_functions),
        ("E10", lower_sync::e10_xor_lower_bound),
        ("E11", lower_sync::e11_orientation_lower_bound),
        ("E12", lower_sync::e12_start_sync_lower_bound),
        ("E13", lower_sync::e13_random_sync_functions),
        ("E14", arbitrary::e14_xor_arbitrary_n),
        ("E15", arbitrary::e15_orientation_arbitrary_n),
        ("E16", arbitrary::e16_start_sync_arbitrary_n),
        ("E17", upper::e17_bits_vs_time),
        ("E18", labeled::e18_labeled_vs_anonymous),
        ("E19", ablations::e19_elimination_rounds),
        ("E20", ablations::e20_bound_tightness),
        ("E21", ablations::e21_scheduler_robustness),
        ("E22", ablations::e22_bits_time_frontier),
        ("E23", dynamic::e23_dyn_broadcast),
    ]
}
