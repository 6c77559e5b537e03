//! The causal DAG of a run and its critical path.
//!
//! Every recorded send carries a Lamport timestamp and a *parent edge* —
//! the `seq` of the send whose delivery causally enabled it (see
//! [`crate::runtime::CausalClocks`]). This module rebuilds that structure
//! from either a live [`TraceEvent`] stream or a parsed [`Recording`],
//! and answers the questions the paper's lower-bound arguments reason
//! about: how long is the longest chain of causally-dependent deliveries
//! (the *critical path*), how many bits does it carry, and which `Span`
//! phases it spends its length in.
//!
//! With one parent per send the "DAG" is a forest: every spontaneous send
//! roots a tree, and each message extends the chain of the strongest
//! (highest-Lamport) message its sender had consumed. Under the
//! synchronizing adversary of Theorem 5.1 the critical-path hop count
//! equals the run's epoch count — a consistency invariant the bench suite
//! pins — so causal depth *is* the paper's time measure, while weighting
//! the same chains by bits exposes the bit-budget tradeoffs of §4.2.

use std::borrow::Cow;
use std::collections::BTreeMap;

use crate::json::json_escape;
use crate::runtime::TraceEvent;
use crate::telemetry::recorder::{Recording, ReplayEvent};
use crate::telemetry::SpanStats;

/// One send in the causal DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CausalNode {
    /// Global send sequence number (the node's identity).
    pub seq: u64,
    /// `seq` of the enabling send, or `None` for a root (spontaneous
    /// send, or a send whose parent a truncated file cut off).
    pub parent: Option<u64>,
    /// Sender's Lamport timestamp at the send.
    pub lamport: u64,
    /// Send time (cycle / arrival epoch).
    pub time: u64,
    /// Sending processor.
    pub from: usize,
    /// Receiving processor.
    pub to: usize,
    /// Encoded message length.
    pub bits: u64,
    /// Phase annotation of the emission, if any. Borrowed from the live
    /// span's `&'static str` by [`CausalDag::from_events`], so a live
    /// build allocates nothing per send; owned by
    /// [`CausalDag::from_recording`], whose names were parsed. Equality
    /// compares the text, so the two builds of one run compare equal.
    pub phase: Option<Cow<'static, str>>,
    /// Round within the phase (0 when unannotated).
    pub round: u64,
}

/// Which edge weight the critical path maximises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathWeight {
    /// Longest chain by hop count — the paper's causal time measure.
    Hops,
    /// Longest chain by elapsed time (`leaf time − root time`).
    Time,
    /// Heaviest chain by total bits carried.
    Bits,
}

/// The extracted critical path: one maximal causal chain, root → leaf.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalPath {
    /// The chain's sends, root first.
    pub seqs: Vec<u64>,
    /// Number of sends on the chain.
    pub hops: u64,
    /// Total bits carried along the chain.
    pub bits: u64,
    /// Send time of the chain's root.
    pub start_time: u64,
    /// Send time of the chain's leaf.
    pub end_time: u64,
    /// Per-phase attribution of the chain's sends, sorted by phase name;
    /// unannotated sends aggregate under the empty name.
    pub per_phase: Vec<(String, SpanStats)>,
}

impl CriticalPath {
    /// Elapsed time the chain spans (`end_time − start_time`).
    #[must_use]
    pub fn elapsed(&self) -> u64 {
        self.end_time - self.start_time
    }
}

/// Marks a root in [`CausalDag::parents`].
const ROOT: usize = usize::MAX;

/// The number of sends in `events` if their seqs are dense, as every live
/// stream's are: the span from the first send's seq to the last's, found
/// without a pass over the stream and capped at its length. On a stream
/// that is not dense the guess only sizes the node vectors: too small and
/// they grow, too large and they over-reserve.
fn dense_sends<E>(events: &[E], seq: impl Fn(&E) -> Option<u64>) -> usize {
    match (
        events.iter().find_map(&seq),
        events.iter().rev().find_map(&seq),
    ) {
        (Some(first), Some(last)) => usize::try_from(last.wrapping_sub(first))
            .map_or(events.len(), |span| {
                span.saturating_add(1).min(events.len())
            }),
        _ => 0,
    }
}

/// The causal DAG (a forest, with one parent edge per send) of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CausalDag {
    nodes: Vec<CausalNode>,
    /// Position in `nodes` of each node's parent; a value past the last
    /// node ([`ROOT`] among them) marks a root: a spontaneous send, or
    /// one whose parent is not in the DAG. Resolved once, by
    /// [`CausalDag::build`].
    parents: Vec<usize>,
}

impl CausalDag {
    /// Builds the DAG from a live event stream (as collected by an
    /// observer during `run_with_observer`). Phase names are borrowed,
    /// so the build allocates the same few vectors for any stream.
    #[must_use]
    pub fn from_events(events: &[TraceEvent]) -> CausalDag {
        Self::build(
            dense_sends(events, |event| match event {
                TraceEvent::Send(s) => Some(s.seq),
                _ => None,
            }),
            events.iter().filter_map(|event| match *event {
                TraceEvent::Send(s) => Some(CausalNode {
                    seq: s.seq,
                    parent: s.parent,
                    lamport: s.lamport,
                    time: s.cycle,
                    from: s.from,
                    to: s.to,
                    bits: s.bits as u64,
                    phase: s.span.map(|sp| Cow::Borrowed(sp.phase)),
                    round: s.span.map_or(0, |sp| sp.round),
                }),
                _ => None,
            }),
        )
    }

    /// Builds the DAG from a parsed recording.
    ///
    /// A truncated recording still builds: sends whose parents were cut
    /// off become roots, so chain lengths are lower bounds.
    #[must_use]
    pub fn from_recording(recording: &Recording) -> CausalDag {
        Self::build(
            dense_sends(&recording.events, |event| match event {
                ReplayEvent::Send { seq, .. } => Some(*seq),
                _ => None,
            }),
            recording.events.iter().filter_map(|event| match event {
                ReplayEvent::Send {
                    time,
                    from,
                    to,
                    bits,
                    seq,
                    lamport,
                    parent,
                    phase,
                    round,
                    ..
                } => Some(CausalNode {
                    seq: *seq,
                    parent: *parent,
                    lamport: *lamport,
                    time: *time,
                    from: *from,
                    to: *to,
                    bits: *bits as u64,
                    phase: phase.clone().map(Cow::Owned),
                    round: *round,
                }),
                _ => None,
            }),
        )
    }

    /// Collects `sends` (about `capacity` of them) and resolves every
    /// parent edge to a position, once.
    ///
    /// A stream whose seqs are dense (`seq = base + position`: every live
    /// stream, every single-process recording and every single-shard
    /// recording, whose base is `shard << SHARD_SEQ_SHIFT`) resolves a
    /// parent by its offset from the base, in the collecting pass. Any
    /// other stream (gapped, reordered, or with duplicate seqs) then
    /// searches a sorted `(seq, position)` index in which the last
    /// occurrence of a seq wins. Either way a parent absent from the DAG
    /// makes its node a root.
    fn build(capacity: usize, sends: impl Iterator<Item = CausalNode>) -> CausalDag {
        let mut nodes = Vec::with_capacity(capacity);
        let mut parents = Vec::with_capacity(capacity);
        let mut base = None;
        let mut dense = true;
        for node in sends {
            let base = *base.get_or_insert(node.seq);
            dense &= node.seq.wrapping_sub(base) == nodes.len() as u64;
            parents.push(node.parent.map_or(ROOT, |p| {
                usize::try_from(p.wrapping_sub(base)).unwrap_or(ROOT)
            }));
            nodes.push(node);
        }
        if !dense {
            let mut index: Vec<(u64, usize)> = nodes
                .iter()
                .enumerate()
                .map(|(pos, node)| (node.seq, pos))
                .collect();
            index.sort_unstable();
            // Within a run of equal seqs positions ascend; keep the last.
            index.dedup_by(|later, kept| {
                let same = later.0 == kept.0;
                if same {
                    kept.1 = later.1;
                }
                same
            });
            for (slot, node) in parents.iter_mut().zip(&nodes) {
                *slot = node
                    .parent
                    .and_then(|p| index.binary_search_by_key(&p, |&(seq, _)| seq).ok())
                    .map_or(ROOT, |i| index[i].1);
            }
        }
        CausalDag { nodes, parents }
    }

    /// Number of sends in the DAG.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the DAG has no sends.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The sends, in stream order.
    #[must_use]
    pub fn nodes(&self) -> &[CausalNode] {
        &self.nodes
    }

    /// Number of roots (spontaneous sends).
    #[must_use]
    pub fn roots(&self) -> usize {
        (0..self.len())
            .filter(|&pos| self.parent_pos(pos).is_none())
            .count()
    }

    /// The position of the parent of the node at `pos`, if the parent is
    /// present in the DAG (a truncated file may have cut it off).
    fn parent_pos(&self, pos: usize) -> Option<usize> {
        let p = self.parents[pos];
        (p < self.nodes.len()).then_some(p)
    }

    /// The positions on the chain ending at `pos`, leaf first. A chain
    /// of more than `len` sends repeats one: only a parent cycle does
    /// that, which a truncated recording (not checked for causality when
    /// parsed) can hold, so the walk stops there instead of spinning.
    fn chain(&self, pos: usize) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(Some(pos), |&at| self.parent_pos(at)).take(self.len())
    }

    /// Extracts the critical path — the causal chain maximising `weight`
    /// (ties broken toward the smallest leaf `seq`, so the choice is
    /// deterministic). Returns `None` on an empty DAG.
    #[must_use]
    pub fn critical_path(&self, weight: PathWeight) -> Option<CriticalPath> {
        // One DP pass in stream order over the one aggregate `weight`
        // needs: every parent edge points at an earlier send, so the
        // parent's aggregate is final by the time a child needs it.
        let mut acc = vec![0u64; self.nodes.len()];
        let mut best: Option<(u64, usize)> = None;
        for (pos, node) in self.nodes.iter().enumerate() {
            let parent = self.parent_pos(pos).map(|p| acc[p]);
            let (aggregate, w) = match weight {
                PathWeight::Hops => {
                    let hops = parent.unwrap_or(0) + 1;
                    (hops, hops)
                }
                PathWeight::Bits => {
                    let bits = parent.unwrap_or(0) + node.bits;
                    (bits, bits)
                }
                PathWeight::Time => {
                    let root_time = parent.unwrap_or(node.time);
                    (root_time, node.time.saturating_sub(root_time))
                }
            };
            acc[pos] = aggregate;
            if best.is_none_or(|(bw, _)| w > bw) {
                best = Some((w, pos));
            }
        }
        let (_, leaf) = best?;

        // Walk the chain back to its root. The DP read a parent that comes
        // later in the stream (possible only in a reordered recording) as
        // an all-zero aggregate, so the leaf's hops, bits and root time
        // stop accumulating at the first such edge, as the DP's did.
        let mut seqs = Vec::with_capacity(self.chain(leaf).count());
        let mut phase_map: BTreeMap<&str, SpanStats> = BTreeMap::new();
        let (mut hops, mut bits, mut start_time) = (0, 0, None);
        for pos in self.chain(leaf) {
            let node = &self.nodes[pos];
            seqs.push(node.seq);
            let stats = phase_map
                .entry(node.phase.as_deref().unwrap_or(""))
                .or_default();
            stats.messages += 1;
            stats.bits += node.bits;
            if start_time.is_none() {
                hops += 1;
                bits += node.bits;
                start_time = match self.parent_pos(pos) {
                    None => Some(node.time),
                    Some(p) if p >= pos => Some(0),
                    Some(_) => None,
                };
            }
        }
        seqs.reverse();
        Some(CriticalPath {
            hops,
            bits,
            start_time: start_time.expect("the walk reaches a root or a later parent"),
            end_time: self.nodes[leaf].time,
            per_phase: phase_map
                .into_iter()
                .map(|(phase, stats)| (phase.to_string(), stats))
                .collect(),
            seqs,
        })
    }

    /// Exports the DAG in Graphviz DOT syntax. When `highlight` is given,
    /// its chain's nodes and edges are drawn bold red.
    #[must_use]
    pub fn to_dot(&self, highlight: Option<&CriticalPath>) -> String {
        use std::fmt::Write as _;
        // A parent always has a smaller seq than its child, so the
        // root-first chain is sorted and binary-searchable.
        let on_path =
            |seq: u64| highlight.is_some_and(|path| path.seqs.binary_search(&seq).is_ok());
        let mut out = String::from("digraph causal {\n  rankdir=LR;\n  node [shape=box];\n");
        for node in &self.nodes {
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
        for (pos, node) in self.nodes.iter().enumerate() {
            if let (Some(parent), Some(_)) = (node.parent, self.parent_pos(pos)) {
                let style = if on_path(parent) && on_path(node.seq) {
                    " [color=red, penwidth=2]"
                } else {
                    ""
                };
                let _ = writeln!(out, "  s{parent} -> s{}{style};", node.seq);
            }
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::{CausalDag, PathWeight};
    use crate::port::PortId;
    use crate::runtime::{SendEvent, Span, TraceEvent};
    use crate::telemetry::Recording;

    fn send(
        seq: u64,
        parent: Option<u64>,
        time: u64,
        bits: usize,
        phase: Option<&'static str>,
    ) -> TraceEvent {
        TraceEvent::Send(SendEvent {
            cycle: time,
            from: (seq % 3) as usize,
            to: ((seq + 1) % 3) as usize,
            port: PortId::LEFT,
            bits,
            seq,
            lamport: time,
            parent,
            span: phase.map(|p| Span::new(p, 0)),
        })
    }

    /// Two chains: 0→1→2 (3 hops, light) and 3→4 (2 hops, heavy bits).
    fn forest() -> CausalDag {
        CausalDag::from_events(&[
            send(0, None, 1, 1, Some("scatter")),
            send(3, None, 1, 100, None),
            send(1, Some(0), 2, 1, Some("scatter")),
            send(4, Some(3), 2, 100, None),
            send(2, Some(1), 3, 1, Some("gather")),
        ])
    }

    #[test]
    fn hops_and_bits_pick_different_chains() {
        let dag = forest();
        assert_eq!(dag.len(), 5);
        assert_eq!(dag.roots(), 2);

        let by_hops = dag.critical_path(PathWeight::Hops).unwrap();
        assert_eq!(by_hops.seqs, vec![0, 1, 2]);
        assert_eq!(by_hops.hops, 3);
        assert_eq!(by_hops.bits, 3);
        assert_eq!((by_hops.start_time, by_hops.end_time), (1, 3));
        assert_eq!(by_hops.elapsed(), 2);
        assert_eq!(by_hops.per_phase.len(), 2, "scatter and gather");
        assert_eq!(by_hops.per_phase[0].0, "gather");
        assert_eq!(by_hops.per_phase[0].1.messages, 1);
        assert_eq!(by_hops.per_phase[1].1.messages, 2);

        let by_bits = dag.critical_path(PathWeight::Bits).unwrap();
        assert_eq!(by_bits.seqs, vec![3, 4]);
        assert_eq!(by_bits.bits, 200);
    }

    #[test]
    fn empty_dag_has_no_critical_path() {
        let dag = CausalDag::from_events(&[]);
        assert!(dag.is_empty());
        assert!(dag.critical_path(PathWeight::Hops).is_none());
    }

    #[test]
    fn recordings_and_live_streams_build_the_same_dag() {
        let events = [
            send(0, None, 1, 2, Some("probe")),
            send(1, Some(0), 2, 3, None),
        ];
        let mut live = Recording::new(3, "dag");
        for event in &events {
            use crate::runtime::Observer as _;
            live.on_event(event);
        }
        let recording = Recording::parse_jsonl(&live.to_jsonl()).unwrap();
        let from_rec = CausalDag::from_recording(&recording);
        let from_live = CausalDag::from_events(&events);
        assert_eq!(from_rec, from_live);
    }

    #[test]
    fn dot_export_highlights_the_critical_path() {
        let dag = forest();
        let path = dag.critical_path(PathWeight::Hops).unwrap();
        let dot = dag.to_dot(Some(&path));
        assert!(dot.starts_with("digraph causal {"), "{dot}");
        assert!(dot.contains("s0 -> s1 [color=red, penwidth=2];"), "{dot}");
        assert!(dot.contains("s3 -> s4;"), "{dot}");
        assert!(dot.contains("scatter#0"), "{dot}");
        let plain = dag.to_dot(None);
        assert!(!plain.contains("penwidth"), "{plain}");
    }

    #[test]
    fn a_parent_cycle_ends_the_chain_walk() {
        // A truncated recording is not checked for causality, so a file
        // can make two sends each other's parent.
        let dag =
            CausalDag::from_events(&[send(5, Some(6), 1, 1, None), send(6, Some(5), 2, 1, None)]);
        assert_eq!(dag.roots(), 0);
        let path = dag.critical_path(PathWeight::Hops).unwrap();
        assert_eq!(path.seqs, vec![5, 6]);
        assert_eq!((path.hops, path.start_time), (2, 0));
    }

    #[test]
    fn truncated_chains_treat_evicted_parents_as_roots() {
        // Parent seq 10 was never recorded: node 11 becomes a root.
        let dag = CausalDag::from_events(&[
            send(11, Some(10), 5, 2, None),
            send(12, Some(11), 6, 2, None),
        ]);
        assert_eq!(dag.roots(), 1);
        let path = dag.critical_path(PathWeight::Hops).unwrap();
        assert_eq!(path.seqs, vec![11, 12]);
        assert_eq!(path.hops, 2);
    }
}
