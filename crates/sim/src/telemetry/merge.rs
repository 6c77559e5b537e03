//! Deterministic merge of per-shard cluster recordings (S27).
//!
//! A cluster run produces one recording per shard: each shard's
//! `ShardHub` assigns its own sequence numbers (tagged with the shard id
//! in the high bits, see [`SHARD_SEQ_SHIFT`]) and its own wall stamps,
//! while Lamport timestamps travel on cross-shard frames and therefore
//! stay globally consistent. [`merge`] interleaves the shard streams into
//! one canonical recording that satisfies the S21 causal invariants and
//! carries freshly renumbered global seqs, so every downstream consumer
//! (`tracer`, `CausalDag`, conformance totals) reads it like a
//! single-process recording.
//!
//! ## Why the canonical order is well-defined
//!
//! Sort key of a send: `(lamport, sender)`.
//!
//! * **Unique.** A processor's Lamport clock ticks on every send
//!   (`CausalClocks::stamp_send`), so two sends by the same sender never
//!   share a timestamp; `(lamport, sender)` is injective over any honest
//!   run.
//! * **Parents come first.** A send's causal parent is a message its
//!   sender consumed earlier; consumption advances the clock to at least
//!   `parent.lamport + 1` and the send ticks once more, so
//!   `child.lamport ≥ parent.lamport + 2`. Sorting by Lamport therefore
//!   puts every parent strictly before its children, which is exactly the
//!   parent-before-child file invariant the recording parser enforces.
//! * **Sharding-independent.** Neither component depends on how the ring
//!   was cut into shards — merging 2, 3 or 4 shard recordings of the same
//!   execution yields byte-identical output (a property test pins this).
//!
//! A deliver sorts immediately after the send it consumes (same
//! `(lamport, sender)` key, deliver after send), which preserves
//! send-before-deliver. Halts close the file in processor order. Wall
//! stamps are stripped: per-shard stamps come from different host clocks
//! and are only meaningful inside their own shard recording.
//!
//! The merge order is the ISSUE's "(Lamport, shard id, seq)" refined to
//! stay deterministic: shards own contiguous processor ranges, so
//! ordering equal-Lamport sends by *global sender index* agrees with
//! shard-id order between shards while replacing the racy within-shard
//! seq-assignment order with a schedule-independent tiebreak.
//!
//! [`merge`] and [`split`] clone each event once and renumber its send
//! references through one lookup (`ReplayEvent::rewrite_seqs`); `merge`
//! then clears the wall stamps, `split` keeps them.

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::fmt;

use crate::telemetry::recorder::{seq_shard, Recording, ReplayEvent, SHARD_SEQ_SHIFT};

/// Why a set of shard recordings could not be merged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// No recordings were given.
    NoShards,
    /// Input `index` carries no `shard`/`shards` meta — it is not a
    /// per-shard cluster recording.
    NotSharded {
        /// Position in the input slice.
        index: usize,
    },
    /// The manifest promised `shards` recordings but shard `shard` never
    /// arrived — the verdict names the absent shard.
    MissingShard {
        /// The absent shard id.
        shard: u64,
        /// The declared cluster size.
        shards: u64,
    },
    /// Two inputs claim the same shard id.
    DuplicateShard {
        /// The doubly-claimed shard id.
        shard: u64,
    },
    /// The inputs disagree on a meta field (`"shards"`, `"n"`,
    /// `"engine"`).
    MetaMismatch {
        /// Which meta field disagrees.
        what: &'static str,
        /// The shard that disagrees with shard 0's value.
        shard: u64,
    },
    /// Shard `shard` is truncated; its causal prefix is gone.
    Truncated {
        /// The truncated shard id.
        shard: u64,
    },
    /// Shard `shard` recorded a send whose seq carries a different
    /// shard's tag.
    ForeignSeq {
        /// The recording shard.
        shard: u64,
        /// The offending tagged seq.
        seq: u64,
    },
    /// A deliver or parent edge references a send no shard recorded.
    UnknownSend {
        /// The dangling tagged seq.
        seq: u64,
    },
    /// Two sends share `(lamport, sender)` — impossible in an honest run,
    /// so the inputs are not shards of one execution.
    AmbiguousSend {
        /// The shared Lamport timestamp.
        lamport: u64,
        /// The shared sender.
        from: usize,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::NoShards => write!(f, "merge verdict: no shard recordings given"),
            MergeError::NotSharded { index } => write!(
                f,
                "merge verdict: input {index} carries no shard meta (not a cluster recording)"
            ),
            MergeError::MissingShard { shard, shards } => write!(
                f,
                "merge verdict: shard {shard} of {shards} is missing from the inputs"
            ),
            MergeError::DuplicateShard { shard } => {
                write!(f, "merge verdict: shard {shard} appears more than once")
            }
            MergeError::MetaMismatch { what, shard } => write!(
                f,
                "merge verdict: shard {shard} disagrees with shard 0 on \"{what}\""
            ),
            MergeError::Truncated { shard } => write!(
                f,
                "merge verdict: shard {shard} is truncated; its causal prefix is gone"
            ),
            MergeError::ForeignSeq { shard, seq } => write!(
                f,
                "merge verdict: shard {shard} recorded send seq {seq} tagged for shard {}",
                seq_shard(*seq)
            ),
            MergeError::UnknownSend { seq } => write!(
                f,
                "merge verdict: seq {seq} (shard {}) is referenced but never sent",
                seq_shard(*seq)
            ),
            MergeError::AmbiguousSend { lamport, from } => write!(
                f,
                "merge verdict: two sends by processor {from} share lamport {lamport}"
            ),
        }
    }
}

impl std::error::Error for MergeError {}

/// Canonical position of one event in the merged stream. Sends and the
/// delivers that consume them share `(lamport, from)`; `kind` breaks the
/// tie (send, then its deliver); halts sort after all traffic.
type SortKey = (u64, usize, u8);

fn send_key(lamport: u64, from: usize) -> SortKey {
    (lamport, from, 0)
}

fn deliver_key(lamport: u64, from: usize) -> SortKey {
    (lamport, from, 1)
}

fn halt_key(processor: usize) -> SortKey {
    (u64::MAX, processor, 2)
}

/// Merges per-shard cluster recordings into one canonical recording.
///
/// Inputs may arrive in any order; every shard `0 .. shards` declared by
/// the meta records must be present exactly once. The output is an
/// ordinary (unsharded) recording: events in canonical `(Lamport, sender)`
/// order, seqs renumbered `0..` in file order, parent edges and delivered
/// seqs remapped accordingly, wall stamps stripped. Label and engine are
/// taken from shard 0.
///
/// # Errors
///
/// See [`MergeError`]; a missing shard is reported by id.
///
/// Takes owned recordings or references to them, so a caller holding
/// the shard recordings elsewhere merges them without copying.
pub fn merge<R: Borrow<Recording>>(shards: &[R]) -> Result<Recording, MergeError> {
    if shards.is_empty() {
        return Err(MergeError::NoShards);
    }
    let mut ordered: Vec<Option<&Recording>> = Vec::new();
    let mut declared = 0u64;
    for (index, rec) in shards.iter().map(Borrow::borrow).enumerate() {
        let (shard, count) = rec.shard.ok_or(MergeError::NotSharded { index })?;
        if index == 0 {
            declared = count;
            ordered = vec![None; usize::try_from(count).unwrap_or(0)];
        } else if count != declared {
            return Err(MergeError::MetaMismatch {
                what: "shards",
                shard,
            });
        }
        let slot = usize::try_from(shard)
            .ok()
            .filter(|&s| s < ordered.len())
            .ok_or(MergeError::MetaMismatch {
                what: "shards",
                shard,
            })?;
        if ordered[slot].is_some() {
            return Err(MergeError::DuplicateShard { shard });
        }
        ordered[slot] = Some(rec);
    }
    for (slot, entry) in ordered.iter().enumerate() {
        if entry.is_none() {
            return Err(MergeError::MissingShard {
                shard: slot as u64,
                shards: declared,
            });
        }
    }
    let ordered: Vec<&Recording> = ordered.into_iter().flatten().collect();
    let first = ordered[0];
    for rec in &ordered {
        let shard = rec.shard.map(|(s, _)| s).unwrap_or_default();
        if rec.n != first.n {
            return Err(MergeError::MetaMismatch { what: "n", shard });
        }
        if rec.engine != first.engine {
            return Err(MergeError::MetaMismatch {
                what: "engine",
                shard,
            });
        }
        if rec.truncated != 0 {
            return Err(MergeError::Truncated { shard });
        }
    }

    // Pass 1: index every send by its tagged seq and give it a canonical
    // key; reject tag/uniqueness violations that would make the merged
    // order ill-defined.
    let mut by_seq: BTreeMap<u64, SortKey> = BTreeMap::new();
    let mut by_key: BTreeMap<SortKey, u64> = BTreeMap::new();
    for rec in &ordered {
        let shard = rec.shard.map(|(s, _)| s).unwrap_or_default();
        for event in &rec.events {
            if let ReplayEvent::Send {
                seq, lamport, from, ..
            } = event
            {
                if seq_shard(*seq) != shard {
                    return Err(MergeError::ForeignSeq { shard, seq: *seq });
                }
                let key = send_key(*lamport, *from);
                if by_key.insert(key, *seq).is_some() {
                    return Err(MergeError::AmbiguousSend {
                        lamport: *lamport,
                        from: *from,
                    });
                }
                by_seq.insert(*seq, key);
            }
        }
    }

    // Pass 2: canonical global seqs are the ranks of the canonical send
    // order (`by_key` iterates in key order).
    let renumbered: BTreeMap<u64, u64> = by_key
        .values()
        .enumerate()
        .map(|(rank, &seq)| (seq, rank as u64))
        .collect();
    let key_of = |seq: u64| by_seq.get(&seq).ok_or(MergeError::UnknownSend { seq });
    let renumber = |seq: u64| {
        renumbered
            .get(&seq)
            .copied()
            .ok_or(MergeError::UnknownSend { seq })
    };

    // Pass 3: key every event by its send's canonical position, rewrite
    // its seq references to the renumbered ones, then sort. Wall stamps
    // are per-host; drop them.
    let mut keyed: Vec<(SortKey, ReplayEvent)> = Vec::new();
    for rec in &ordered {
        for event in &rec.events {
            let key = match *event {
                ReplayEvent::Send { seq, .. } => *key_of(seq)?,
                ReplayEvent::Deliver { seq, .. } => {
                    let &(lamport, from, _) = key_of(seq)?;
                    deliver_key(lamport, from)
                }
                ReplayEvent::Halt { processor, .. } => halt_key(processor),
            };
            let mut event = event.clone();
            event.rewrite_seqs(renumber)?;
            if let Some(wall_us) = event.wall_mut() {
                *wall_us = None;
            }
            keyed.push((key, event));
        }
    }
    keyed.sort_by_key(|(key, _)| *key);

    Ok(Recording {
        n: first.n,
        label: first.label.clone(),
        engine: first.engine.clone(),
        shard: None,
        truncated: 0,
        events: keyed.into_iter().map(|(_, event)| event).collect(),
    })
}

/// Rewrites a single-process recording into the canonical merge order —
/// exactly what [`merge`] would return for any sharding of the same
/// execution. Use it to compare a single-process run against a merged
/// cluster run byte for byte.
///
/// # Errors
///
/// See [`MergeError`] (the input must be untruncated, with no shard
/// meta).
pub fn canonicalize(recording: &Recording) -> Result<Recording, MergeError> {
    if recording.shard.is_some() {
        return Err(MergeError::NotSharded { index: 0 });
    }
    // A single-process recording is the degenerate one-shard cluster:
    // every seq already carries shard tag 0.
    let mut solo = recording.clone();
    solo.shard = Some((0, 1));
    merge(std::slice::from_ref(&solo))
}

/// Splits a single-process recording into per-shard recordings, as if the
/// run had executed on a cluster whose shard `k` owns processors
/// `starts[k] .. starts[k+1]` (the last shard runs to `n`). Sends belong
/// to the sender's shard, delivers to the receiver's, halts to the
/// halting processor's; seqs are re-tagged per shard in file order with
/// parent/deliver references following. The inverse of [`merge`] up to
/// canonical order — the S27 property test round-trips through it.
///
/// # Errors
///
/// [`MergeError::NotSharded`] when the input already carries shard meta;
/// [`MergeError::NoShards`] when `starts` is empty, does not begin at 0,
/// is not strictly increasing, or reaches past `n`.
pub fn split(recording: &Recording, starts: &[usize]) -> Result<Vec<Recording>, MergeError> {
    if recording.shard.is_some() {
        return Err(MergeError::NotSharded { index: 0 });
    }
    let n = recording.n;
    let valid = starts.first() == Some(&0)
        && starts.windows(2).all(|w| w[0] < w[1])
        && starts.last().is_some_and(|&last| last < n.max(1));
    if !valid {
        return Err(MergeError::NoShards);
    }
    let shards = starts.len() as u64;
    let owner = |proc: usize| -> usize {
        starts
            .iter()
            .rposition(|&start| start <= proc)
            .unwrap_or_default()
    };
    let mut out: Vec<Recording> = (0..starts.len())
        .map(|k| Recording {
            n,
            label: recording.label.clone(),
            engine: recording.engine.clone(),
            shard: Some((k as u64, shards)),
            truncated: 0,
            events: Vec::new(),
        })
        .collect();
    // Re-tag seqs per owning shard, in file order — the same local
    // counters a per-shard hub would have assigned.
    let mut counters = vec![0u64; starts.len()];
    let mut retag: BTreeMap<u64, u64> = BTreeMap::new();
    for event in &recording.events {
        if let ReplayEvent::Send { seq, from, .. } = event {
            let shard = owner(*from);
            let tagged = ((shard as u64) << SHARD_SEQ_SHIFT) | counters[shard];
            counters[shard] += 1;
            retag.insert(*seq, tagged);
        }
    }
    let lookup = |seq: u64| -> Result<u64, MergeError> {
        retag
            .get(&seq)
            .copied()
            .ok_or(MergeError::UnknownSend { seq })
    };
    for event in &recording.events {
        let proc = match *event {
            ReplayEvent::Send { from, .. } => from,
            ReplayEvent::Deliver { to, .. } => to,
            ReplayEvent::Halt { processor, .. } => processor,
        };
        let mut event = event.clone();
        event.rewrite_seqs(lookup)?;
        out[owner(proc)].events.push(event);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::{canonicalize, merge, split, MergeError};
    use crate::port::PortId;
    use crate::telemetry::recorder::{Recording, ReplayEvent, SHARD_SEQ_SHIFT};

    /// A hand-built two-processor exchange: 0 sends (lamport 1), 1
    /// delivers it, 1 replies (lamport 3, parent = the first send), 0
    /// delivers the reply, both halt.
    fn exchange() -> Recording {
        Recording {
            n: 2,
            label: "exchange".into(),
            engine: "net".into(),
            shard: None,
            truncated: 0,
            events: vec![
                ReplayEvent::Send {
                    time: 1,
                    from: 0,
                    to: 1,
                    port: PortId::LEFT,
                    bits: 1,
                    seq: 0,
                    lamport: 1,
                    parent: None,
                    phase: None,
                    round: 0,
                    wall_us: None,
                },
                ReplayEvent::Deliver {
                    time: 1,
                    to: 1,
                    port: PortId::LEFT,
                    seq: 0,
                    dropped: false,
                    wall_us: None,
                },
                ReplayEvent::Send {
                    time: 2,
                    from: 1,
                    to: 0,
                    port: PortId::RIGHT,
                    bits: 1,
                    seq: 1,
                    lamport: 3,
                    parent: Some(0),
                    phase: None,
                    round: 0,
                    wall_us: None,
                },
                ReplayEvent::Deliver {
                    time: 2,
                    to: 0,
                    port: PortId::RIGHT,
                    seq: 1,
                    dropped: false,
                    wall_us: None,
                },
                ReplayEvent::Halt {
                    time: 2,
                    processor: 0,
                },
                ReplayEvent::Halt {
                    time: 2,
                    processor: 1,
                },
            ],
        }
    }

    #[test]
    fn split_then_merge_reproduces_the_canonical_recording() {
        let rec = exchange();
        let canonical = canonicalize(&rec).expect("canonicalize");
        let shards = split(&rec, &[0, 1]).expect("split");
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0].shard, Some((0, 2)));
        // The reply's seq carries shard 1's tag in the split.
        let tagged = shards[1].events.iter().any(
            |e| matches!(e, ReplayEvent::Send { seq, .. } if *seq == (1u64 << SHARD_SEQ_SHIFT)),
        );
        assert!(tagged, "shard 1's send is tagged with its shard id");
        let merged = merge(&shards).expect("merge");
        assert_eq!(merged, canonical);
        assert_eq!(merged.to_jsonl(), canonical.to_jsonl());
    }

    #[test]
    fn merge_accepts_shards_in_any_order() {
        let rec = exchange();
        let mut shards = split(&rec, &[0, 1]).expect("split");
        shards.reverse();
        assert_eq!(
            merge(&shards).expect("merge"),
            canonicalize(&rec).expect("canonicalize")
        );
    }

    #[test]
    fn a_missing_shard_is_named() {
        let rec = exchange();
        let shards = split(&rec, &[0, 1]).expect("split");
        let err = merge(&shards[..1]).expect_err("shard 1 missing");
        assert_eq!(
            err,
            MergeError::MissingShard {
                shard: 1,
                shards: 2
            }
        );
        assert!(err.to_string().contains("shard 1 of 2 is missing"));
    }

    #[test]
    fn merged_output_parses_with_the_causal_checker() {
        let rec = exchange();
        let shards = split(&rec, &[0, 1]).expect("split");
        let merged = merge(&shards).expect("merge");
        let reparsed = Recording::parse_jsonl(&merged.to_jsonl()).expect("causally valid");
        assert_eq!(reparsed, merged);
    }

    #[test]
    fn duplicate_and_unsharded_inputs_are_rejected() {
        let rec = exchange();
        let shards = split(&rec, &[0, 1]).expect("split");
        let twice = vec![shards[0].clone(), shards[0].clone()];
        assert_eq!(
            merge(&twice).expect_err("duplicate"),
            MergeError::DuplicateShard { shard: 0 }
        );
        assert_eq!(
            merge(std::slice::from_ref(&rec)).expect_err("unsharded"),
            MergeError::NotSharded { index: 0 }
        );
    }
}
