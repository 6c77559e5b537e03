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

use anonring::core::algorithms::{orientation, sync_and, sync_input_dist};
use anonring::sim::{RingConfig, RingTopology};

fn main() {
    // 1. AND with a single zero: two token chains race around the ring
    //    and everyone else halts on silence at cycle floor(n/2).
    println!("== §4.2 AND on 1111111111111011 (the 0 floods both ways) ==\n");
    let inputs: Vec<u8> = (0..16).map(|i| u8::from(i != 13)).collect();
    let config = RingConfig::oriented(inputs);
    let (report, trace) = sync_and::engine(&config).run_traced().expect("engine run");
    println!("{trace}");
    println!("answer everywhere: {}\n", report.outputs()[0]);

    // 2. Figure 2 on a maximally symmetric input: every processor acts in
    //    lockstep with its translates — watch entire rows fire at once,
    //    then a fully silent round triggers the periodicity broadcast.
    println!("== Fig. 2 input distribution on (011)^5 — total symmetry ==\n");
    let config = RingConfig::oriented_bits("011011011011011").expect("valid");
    let (report, trace) = sync_input_dist::engine(&config)
        .run_traced()
        .expect("engine run");
    println!("{trace}");
    println!(
        "every processor reconstructed the ring; {} messages, {} bits\n",
        report.messages, report.bits
    );

    // 3. Figure 4 orientation: endpoint markers, segment tokens, and the
    //    final parity pass.
    println!("== Fig. 4 orientation of →→←→←←→→←→← ==\n");
    let topology = RingTopology::from_bits(&[1, 1, 0, 1, 0, 0, 1, 1, 0, 1, 0]).expect("valid");
    let (report, trace) = orientation::engine(&topology)
        .expect("sizes match")
        .run_traced()
        .expect("engine run");
    println!("{trace}");
    let after = topology.with_switched(report.outputs());
    println!(
        "odd ring fully oriented: {} ({} one/two-bit messages)",
        after.is_oriented(),
        report.messages
    );
}
