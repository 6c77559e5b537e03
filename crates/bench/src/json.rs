//! The workspace JSON codec, re-exported from [`anonring_sim::json`] for
//! the benchmark harness, which imports it as `anonring_bench::json`.

pub use anonring_sim::json::{json_escape, Value};
