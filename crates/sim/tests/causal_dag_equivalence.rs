//! `CausalDag`'s flat parent table against a `BTreeMap` oracle.
//!
//! The DAG resolves each parent edge once, by offset on dense seqs and
//! through a sorted index otherwise. The oracle below is the resolution
//! it replaced, kept verbatim: a `seq → position` map built with
//! `BTreeMap::from_iter` (so the last occurrence of a duplicate seq
//! wins), consulted on every parent lookup. Random forests in seven
//! shapes (dense from 0, dense from a shard-tagged base, shuffled,
//! gapped, evicted parents, parents tagged for another shard, duplicate
//! seqs) must give the same critical path under every weight, the same
//! root count and the same DOT export.

use std::collections::BTreeMap;

use anonring_sim::json::json_escape;
use anonring_sim::mix::SplitMix64;
use anonring_sim::port::PortId;
use anonring_sim::runtime::{SendEvent, Span, TraceEvent};
use anonring_sim::telemetry::{
    CausalDag, CausalNode, CriticalPath, PathWeight, SpanStats, SHARD_SEQ_SHIFT,
};
use proptest::prelude::*;

/// The resolution `CausalDag` used before its parent table: one map
/// lookup per parent edge.
struct Oracle<'a> {
    nodes: &'a [CausalNode],
    index: BTreeMap<u64, usize>,
}

impl<'a> Oracle<'a> {
    fn new(nodes: &'a [CausalNode]) -> Oracle<'a> {
        let index = nodes
            .iter()
            .enumerate()
            .map(|(pos, node)| (node.seq, pos))
            .collect();
        Oracle { nodes, index }
    }

    fn parent_pos(&self, node: &CausalNode) -> Option<usize> {
        node.parent.and_then(|p| self.index.get(&p).copied())
    }

    fn roots(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| self.parent_pos(n).is_none())
            .count()
    }

    fn critical_path(&self, weight: PathWeight) -> Option<CriticalPath> {
        let mut hops = vec![0u64; self.nodes.len()];
        let mut bits = vec![0u64; self.nodes.len()];
        let mut root_time = vec![0u64; self.nodes.len()];
        let mut best: Option<(u64, usize)> = None;
        for (pos, node) in self.nodes.iter().enumerate() {
            match self.parent_pos(node) {
                Some(p) => {
                    hops[pos] = hops[p] + 1;
                    bits[pos] = bits[p] + node.bits;
                    root_time[pos] = root_time[p];
                }
                None => {
                    hops[pos] = 1;
                    bits[pos] = node.bits;
                    root_time[pos] = node.time;
                }
            }
            let w = match weight {
                PathWeight::Hops => hops[pos],
                PathWeight::Time => node.time.saturating_sub(root_time[pos]),
                PathWeight::Bits => bits[pos],
            };
            if best.is_none_or(|(bw, _)| w > bw) {
                best = Some((w, pos));
            }
        }
        let (_, leaf) = best?;

        let mut seqs = Vec::new();
        let mut phase_map: BTreeMap<String, SpanStats> = BTreeMap::new();
        let mut pos = leaf;
        loop {
            let node = &self.nodes[pos];
            seqs.push(node.seq);
            let stats = phase_map
                .entry(node.phase.as_deref().unwrap_or_default().to_string())
                .or_default();
            stats.messages += 1;
            stats.bits += node.bits;
            match self.parent_pos(node) {
                Some(p) => pos = p,
                None => break,
            }
        }
        seqs.reverse();
        Some(CriticalPath {
            hops: hops[leaf],
            bits: bits[leaf],
            start_time: root_time[leaf],
            end_time: self.nodes[leaf].time,
            per_phase: phase_map.into_iter().collect(),
            seqs,
        })
    }

    fn to_dot(&self, highlight: Option<&CriticalPath>) -> String {
        use std::fmt::Write as _;
        let on_path =
            |seq: u64| highlight.is_some_and(|path| path.seqs.binary_search(&seq).is_ok());
        let mut out = String::from("digraph causal {\n  rankdir=LR;\n  node [shape=box];\n");
        for node in self.nodes {
            let label = match &node.phase {
                Some(phase) => format!(
                    "#{} p{}→p{} t{} b{} {}#{}",
                    node.seq,
                    node.from,
                    node.to,
                    node.time,
                    node.bits,
                    json_escape(phase),
                    node.round
                ),
                None => format!(
                    "#{} p{}→p{} t{} b{}",
                    node.seq, node.from, node.to, node.time, node.bits
                ),
            };
            let style = if on_path(node.seq) {
                ", color=red, penwidth=2"
            } else {
                ""
            };
            let _ = writeln!(out, "  s{} [label=\"{label}\"{style}];", node.seq);
        }
        for node in self.nodes {
            if let Some(parent) = node.parent {
                if self.index.contains_key(&parent) {
                    let style = if on_path(parent) && on_path(node.seq) {
                        " [color=red, penwidth=2]"
                    } else {
                        ""
                    };
                    let _ = writeln!(out, "  s{parent} -> s{}{style};", node.seq);
                }
            }
        }
        out.push_str("}\n");
        out
    }
}

/// The forest shapes, one per case.
#[derive(Debug, Clone, Copy)]
enum Shape {
    DenseFromZero,
    DenseShardTagged,
    Shuffled,
    Gapped,
    EvictedParents,
    ForeignShardParents,
    DuplicateSeqs,
}

const SHAPES: [Shape; 7] = [
    Shape::DenseFromZero,
    Shape::DenseShardTagged,
    Shape::Shuffled,
    Shape::Gapped,
    Shape::EvictedParents,
    Shape::ForeignShardParents,
    Shape::DuplicateSeqs,
];

const PHASES: [&str; 3] = ["scatter", "gather", "probe\"q"];

fn below(rng: &mut SplitMix64, bound: u64) -> u64 {
    rng.next_u64() % bound
}

/// A seeded random send stream of shape `shape` with `len` sends and a
/// delivery after about half of them. Every parent seq is smaller than
/// its child's, so no shape holds a cycle.
fn forest(shape: Shape, len: usize, seed: u64) -> Vec<TraceEvent> {
    let rng = &mut SplitMix64::new(seed);
    let shard = 1 + below(rng, 3);
    let base = match shape {
        Shape::DenseShardTagged | Shape::ForeignShardParents => shard << SHARD_SEQ_SHIFT,
        Shape::EvictedParents => 1000,
        _ => 0,
    };
    let mut seqs: Vec<u64> = Vec::with_capacity(len);
    for _ in 0..len {
        let seq = match (shape, seqs.last()) {
            (_, None) => base,
            (Shape::Gapped, Some(&prev)) => prev + 1 + below(rng, 4),
            (Shape::DuplicateSeqs, Some(&prev)) if below(rng, 3) == 0 => prev,
            (_, Some(&prev)) => prev + 1,
        };
        seqs.push(seq);
    }

    let mut times: Vec<u64> = Vec::with_capacity(len);
    let mut events = Vec::with_capacity(2 * len);
    for (i, &seq) in seqs.iter().enumerate() {
        let earlier: Vec<usize> = (0..i).filter(|&j| seqs[j] < seq).collect();
        let parent_at = (!earlier.is_empty() && below(rng, 4) != 0)
            .then(|| earlier[below(rng, earlier.len() as u64) as usize]);
        let parent = match (shape, parent_at) {
            (Shape::EvictedParents, _) if below(rng, 4) == 0 => Some(below(rng, base)),
            (Shape::ForeignShardParents, _) if below(rng, 4) == 0 => {
                let other = (shard + 1 + below(rng, 3)) % 4;
                Some((other << SHARD_SEQ_SHIFT) | below(rng, len as u64 + 1))
            }
            (_, at) => at.map(|j| seqs[j]),
        };
        let time = parent_at.map_or(below(rng, 5), |j| times[j] + 1 + below(rng, 3));
        times.push(time);
        let phase = below(rng, 4);
        events.push(TraceEvent::Send(SendEvent {
            cycle: time,
            from: below(rng, 8) as usize,
            to: below(rng, 8) as usize,
            port: PortId::LEFT,
            bits: 1 + below(rng, 64) as usize,
            seq,
            lamport: time,
            parent,
            span: (phase < 3).then(|| Span::new(PHASES[phase as usize], below(rng, 3))),
        }));
        if below(rng, 2) == 0 {
            events.push(TraceEvent::Deliver {
                time: time + 1,
                to: 0,
                port: PortId::LEFT,
                seq,
                dropped: false,
            });
        }
    }
    if matches!(shape, Shape::Shuffled) {
        for i in (1..events.len()).rev() {
            events.swap(i, below(rng, i as u64 + 1) as usize);
        }
    }
    events
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The parent table and the map agree on every query, for every shape.
    #[test]
    fn parent_table_matches_the_btreemap_oracle(
        shape in 0usize..SHAPES.len(),
        len in 0usize..72,
        seed in any::<u64>(),
    ) {
        let events = forest(SHAPES[shape], len, seed);
        let dag = CausalDag::from_events(&events);
        let oracle = Oracle::new(dag.nodes());
        prop_assert_eq!(dag.len(), len);
        prop_assert_eq!(dag.roots(), oracle.roots());
        for weight in [PathWeight::Hops, PathWeight::Time, PathWeight::Bits] {
            let path = dag.critical_path(weight);
            prop_assert_eq!(&path, &oracle.critical_path(weight));
            prop_assert_eq!(dag.to_dot(path.as_ref()), oracle.to_dot(path.as_ref()));
        }
        prop_assert_eq!(dag.to_dot(None), oracle.to_dot(None));
    }
}

/// The shapes really are what their names say: the oracle's map sees
/// duplicates, dangling parents and a shard-tagged base where expected.
#[test]
fn shapes_exercise_what_they_name() {
    let nodes = |shape, seed| {
        CausalDag::from_events(&forest(shape, 64, seed))
            .nodes()
            .to_vec()
    };
    let dup = nodes(Shape::DuplicateSeqs, 1);
    let distinct: std::collections::BTreeSet<u64> = dup.iter().map(|n| n.seq).collect();
    assert!(distinct.len() < dup.len(), "duplicate seqs");

    let tagged = nodes(Shape::DenseShardTagged, 2);
    assert!(tagged[0].seq >> SHARD_SEQ_SHIFT > 0, "shard-tagged base");

    for shape in [Shape::EvictedParents, Shape::ForeignShardParents] {
        let forest = nodes(shape, 3);
        let oracle = Oracle::new(&forest);
        assert!(
            forest
                .iter()
                .any(|n| n.parent.is_some() && oracle.parent_pos(n).is_none()),
            "{shape:?} leaves a dangling parent"
        );
    }

    let shuffled = nodes(Shape::Shuffled, 4);
    assert!(
        shuffled.windows(2).any(|w| w[0].seq > w[1].seq),
        "shuffled order"
    );
}
