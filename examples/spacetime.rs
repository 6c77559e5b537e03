//! Space-time diagrams: *seeing* the paper's arguments.
//!
//! Symmetry means simultaneous sends (whole rows light up at once);
//! synchrony means silence is informative (rows go dark and the
//! computation still advances). This example traces three runs and
//! renders them.
//!
//! ```text
//! cargo run --release --example spacetime
//! ```

use std::fmt::Write as _;

use anonring::core::algorithms::{orientation, sync_and, sync_input_dist};
use anonring::sim::telemetry::Recording;
use anonring::sim::{RingConfig, RingTopology};

fn main() {
    print!("{}", spacetime());
}

/// The three runs' diagrams, with the commentary `main` prints.
fn spacetime() -> String {
    let mut out = String::new();
    // 1. AND with a single zero: two token chains race around the ring
    //    and everyone else halts on silence at cycle floor(n/2).
    out.push_str("== §4.2 AND on 1111111111111011 (the 0 floods both ways) ==\n\n");
    let inputs: Vec<u8> = (0..16).map(|i| u8::from(i != 13)).collect();
    let config = RingConfig::oriented(inputs);
    let mut recording = Recording::new(config.n(), "sync_and");
    let report = sync_and::engine(&config)
        .run_with_observer(&mut recording)
        .expect("engine run");
    let _ = writeln!(out, "{}", recording.render(40));
    let _ = writeln!(out, "answer everywhere: {}\n", report.outputs()[0]);

    // 2. Figure 2 on a maximally symmetric input: every processor acts in
    //    lockstep with its translates — watch entire rows fire at once,
    //    then a fully silent round triggers the periodicity broadcast.
    out.push_str("== Fig. 2 input distribution on (011)^5 — total symmetry ==\n\n");
    let config = RingConfig::oriented_bits("011011011011011").expect("valid");
    let mut recording = Recording::new(config.n(), "sync_input_dist");
    let report = sync_input_dist::engine(&config)
        .run_with_observer(&mut recording)
        .expect("engine run");
    let _ = writeln!(out, "{}", recording.render(40));
    let _ = writeln!(
        out,
        "every processor reconstructed the ring; {} messages, {} bits\n",
        report.messages, report.bits
    );

    // 3. Figure 4 orientation: endpoint markers, segment tokens, and the
    //    final parity pass.
    out.push_str("== Fig. 4 orientation of →→←→←←→→←→← ==\n\n");
    let topology = RingTopology::from_bits(&[1, 1, 0, 1, 0, 0, 1, 1, 0, 1, 0]).expect("valid");
    let mut recording = Recording::new(topology.n(), "orientation");
    let report = orientation::engine(&topology)
        .expect("sizes match")
        .run_with_observer(&mut recording)
        .expect("engine run");
    let _ = writeln!(out, "{}", recording.render(40));
    let after = topology.with_switched(report.outputs());
    let _ = writeln!(
        out,
        "odd ring fully oriented: {} ({} one/two-bit messages)",
        after.is_oriented(),
        report.messages
    );
    out
}

#[cfg(test)]
mod tests {
    /// The three diagrams and their commentary, byte for byte, as
    /// rendered before the renderer moved onto `Recording`.
    #[test]
    fn the_three_diagrams_match_their_golden() {
        assert_eq!(
            super::spacetime(),
            include_str!("../tests/golden/spacetime.txt")
        );
    }
}
