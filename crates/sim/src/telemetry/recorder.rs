//! The flight recorder: serializes the full [`TraceEvent`] stream to JSONL
//! and parses it back for offline replay.
//!
//! ## Format (version 2, pinned by a golden test)
//!
//! One JSON object per line, no external dependencies (hand-rolled like
//! `BENCH_sweep.json`). The first line is a `meta` record; every further
//! line is one event, in execution order:
//!
//! ```text
//! {"type":"meta","version":2,"n":4,"label":"E1 n=16","truncated":0}
//! {"type":"send","t":1,"from":0,"to":1,"port":"left","bits":2,"seq":0,"lam":1,"phase":"scatter","round":0}
//! {"type":"send","t":2,"from":1,"to":2,"port":"left","bits":2,"seq":1,"lam":3,"parent":0}
//! {"type":"deliver","t":1,"to":1,"port":"left","seq":0,"dropped":false}
//! {"type":"halt","t":3,"proc":2}
//! ```
//!
//! Version 2 adds the causal fields of [`crate::runtime::CausalClocks`]:
//! `seq` (global send sequence number, echoed by the matching deliver),
//! `lam` (sender's Lamport timestamp), and `parent` (the enabling send's
//! `seq`; omitted on spontaneous sends). `phase`/`round` appear only on
//! annotated sends. Keys are emitted in the fixed order shown, so parse →
//! re-serialize round-trips **byte identically** — the invariant that
//! keeps recorded artifacts diffable.
//!
//! The meta record may additionally carry an `engine` key (after `label`)
//! naming the producing driver — `"sim-sync"`, `"sim-async"` or `"net"`.
//! It is omitted when unset, so recordings made before the field existed
//! (and recorders that never call [`FlightRecorder::with_engine`])
//! serialize byte-identically to the pinned goldens.
//!
//! [`Recording::parse_jsonl`] reads version 2 only (no committed artifact
//! predates it) through the workspace codec, [`crate::json::Value`]. On
//! untruncated input it *validates* the causal edges with
//! [`Recording::check_causality`]: send `seq`s must strictly increase, a
//! `parent` must name an earlier send, and a deliver's `seq` must name a
//! seen send — a malformed edge reports its 1-based line number and
//! snippet like any other parse error.
//!
//! ## Bounded memory
//!
//! [`FlightRecorder::bounded`] keeps only the most recent `capacity`
//! events in a ring buffer, counting evictions in the meta record's
//! `truncated` field — so recording an `O(n²)` run at large `n` costs
//! `O(capacity)` memory, not `O(messages)`.

use std::collections::VecDeque;
use std::fmt::Write as _;

use crate::json::{json_escape, Value};
use crate::port::PortId;
use crate::runtime::{Observer, TraceEvent};

/// Current serialization version; bump when the line format changes.
pub const RECORDING_VERSION: u64 = 2;

/// Bit position of the shard tag in a sharded recording's send `seq`.
///
/// A cluster shard assigns its sequence numbers locally; to keep
/// cross-shard references (a deliver's `seq`, a send's `parent`)
/// unambiguous, every assigned seq carries the owning shard in its high
/// bits: `seq = shard << SHARD_SEQ_SHIFT | local_counter`. Single-process
/// recordings use shard 0 implicitly (tag bits all zero), so the format
/// is unchanged for them. 65 536 shards × 2⁴⁸ sends per shard.
pub const SHARD_SEQ_SHIFT: u32 = 48;

/// The shard that assigned a (possibly tagged) send sequence number.
#[must_use]
pub fn seq_shard(seq: u64) -> u64 {
    seq >> SHARD_SEQ_SHIFT
}

/// An owned mirror of [`TraceEvent`], as reconstructed by the replay
/// parser (phase names become owned strings — the `&'static str` of a
/// live [`crate::runtime::Span`] cannot survive serialization).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayEvent {
    /// A message was sent.
    Send {
        /// Send cycle (sync) or arrival epoch (async).
        time: u64,
        /// Sending processor.
        from: usize,
        /// Receiving processor.
        to: usize,
        /// Arrival port at the receiver.
        port: PortId,
        /// Encoded message length.
        bits: usize,
        /// Global send sequence number.
        seq: u64,
        /// Sender's Lamport timestamp.
        lamport: u64,
        /// `seq` of the enabling send (`None` when spontaneous).
        parent: Option<u64>,
        /// Phase annotation, if the emission carried one.
        phase: Option<String>,
        /// Round within the phase (present iff `phase` is).
        round: u64,
        /// Wall-clock microseconds since run start, stamped by real-time
        /// engines (`"engine":"net"`); absent on simulator recordings.
        wall_us: Option<u64>,
    },
    /// A message was consumed (or discarded) at its receiver.
    Deliver {
        /// Consumption time.
        time: u64,
        /// Receiving processor.
        to: usize,
        /// Local arrival port.
        port: PortId,
        /// `seq` of the consumed send.
        seq: u64,
        /// True when the receiver had already halted.
        dropped: bool,
        /// Wall-clock microseconds since run start, stamped by real-time
        /// engines; absent on simulator recordings.
        wall_us: Option<u64>,
    },
    /// A processor halted.
    Halt {
        /// Halt time.
        time: u64,
        /// The halting processor.
        processor: usize,
    },
}

impl ReplayEvent {
    /// The event's time index.
    #[must_use]
    pub fn time(&self) -> u64 {
        match self {
            ReplayEvent::Send { time, .. }
            | ReplayEvent::Deliver { time, .. }
            | ReplayEvent::Halt { time, .. } => *time,
        }
    }

    fn from_trace(event: &TraceEvent) -> ReplayEvent {
        match *event {
            TraceEvent::Send(s) => ReplayEvent::Send {
                time: s.cycle,
                from: s.from,
                to: s.to,
                port: s.port,
                bits: s.bits,
                seq: s.seq,
                lamport: s.lamport,
                parent: s.parent,
                phase: s.span.map(|sp| sp.phase.to_string()),
                round: s.span.map_or(0, |sp| sp.round),
                wall_us: None,
            },
            TraceEvent::Deliver {
                time,
                to,
                port,
                seq,
                dropped,
            } => ReplayEvent::Deliver {
                time,
                to,
                port,
                seq,
                dropped,
                wall_us: None,
            },
            TraceEvent::Halt { time, processor } => ReplayEvent::Halt { time, processor },
        }
    }

    /// Writes one JSONL line.
    fn write_line(&self, out: &mut String) {
        match self {
            ReplayEvent::Send {
                time,
                from,
                to,
                port,
                bits,
                seq,
                lamport,
                parent,
                phase,
                round,
                wall_us,
            } => {
                let _ = write!(
                    out,
                    "{{\"type\":\"send\",\"t\":{time},\"from\":{from},\"to\":{to},\
                     \"port\":\"{port}\",\"bits\":{bits},\"seq\":{seq},\"lam\":{lamport}"
                );
                if let Some(parent) = parent {
                    let _ = write!(out, ",\"parent\":{parent}");
                }
                if let Some(wall) = wall_us {
                    let _ = write!(out, ",\"wall\":{wall}");
                }
                if let Some(phase) = phase {
                    let _ = write!(
                        out,
                        ",\"phase\":\"{}\",\"round\":{round}",
                        json_escape(phase)
                    );
                }
                out.push_str("}\n");
            }
            ReplayEvent::Deliver {
                time,
                to,
                port,
                seq,
                dropped,
                wall_us,
            } => {
                let _ = write!(
                    out,
                    "{{\"type\":\"deliver\",\"t\":{time},\"to\":{to},\"port\":\"{port}\",\"seq\":{seq}"
                );
                if let Some(wall) = wall_us {
                    let _ = write!(out, ",\"wall\":{wall}");
                }
                let _ = writeln!(out, ",\"dropped\":{dropped}}}");
            }
            ReplayEvent::Halt { time, processor } => {
                let _ = writeln!(
                    out,
                    "{{\"type\":\"halt\",\"t\":{time},\"proc\":{processor}}}"
                );
            }
        }
    }
}

fn write_meta(
    out: &mut String,
    n: usize,
    label: &str,
    engine: &str,
    shard: Option<(u64, u64)>,
    truncated: u64,
) {
    let _ = write!(
        out,
        "{{\"type\":\"meta\",\"version\":{RECORDING_VERSION},\"n\":{n},\"label\":\"{}\"",
        json_escape(label)
    );
    if !engine.is_empty() {
        let _ = write!(out, ",\"engine\":\"{}\"", json_escape(engine));
    }
    if let Some((shard, shards)) = shard {
        let _ = write!(out, ",\"shard\":{shard},\"shards\":{shards}");
    }
    let _ = writeln!(out, ",\"truncated\":{truncated}}}");
}

/// Records every event of a run for JSONL export. Plug it into
/// `run_with_observer` (optionally through [`crate::runtime::FanOut`]).
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    n: usize,
    label: String,
    engine: String,
    shard: Option<(u64, u64)>,
    events: VecDeque<ReplayEvent>,
    capacity: Option<usize>,
    truncated: u64,
}

impl FlightRecorder {
    /// An unbounded recorder for a ring of `n` processors; `label` names
    /// the run in the meta record (experiment id, workload, …).
    #[must_use]
    pub fn new(n: usize, label: impl Into<String>) -> FlightRecorder {
        FlightRecorder {
            n,
            label: label.into(),
            engine: String::new(),
            shard: None,
            events: VecDeque::new(),
            capacity: None,
            truncated: 0,
        }
    }

    /// Names the producing engine/driver in the meta record (`"sim-sync"`,
    /// `"sim-async"`, `"net"`, …). Unset recorders omit the key entirely,
    /// preserving byte-identity with pre-engine artifacts.
    #[must_use]
    pub fn with_engine(mut self, engine: impl Into<String>) -> FlightRecorder {
        self.engine = engine.into();
        self
    }

    /// Marks the recording as shard `shard` of a `shards`-shard cluster
    /// run. Sharded recordings carry shard-tagged seqs (see
    /// [`SHARD_SEQ_SHIFT`]); the causal checker then accepts references to
    /// sends owned by other shards, which `telemetry::merge` resolves.
    /// Unset recorders omit the keys, preserving byte-identity.
    #[must_use]
    pub fn with_shard(mut self, shard: u64, shards: u64) -> FlightRecorder {
        self.shard = Some((shard, shards));
        self
    }

    /// A bounded recorder keeping only the most recent `capacity` events
    /// (ring-buffer mode); evicted events are counted as `truncated`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn bounded(n: usize, label: impl Into<String>, capacity: usize) -> FlightRecorder {
        assert!(capacity > 0, "a zero-capacity recorder records nothing");
        FlightRecorder {
            n,
            label: label.into(),
            engine: String::new(),
            shard: None,
            events: VecDeque::with_capacity(capacity),
            capacity: Some(capacity),
            truncated: 0,
        }
    }

    /// Events currently held (the most recent `capacity` in bounded mode).
    pub fn events(&self) -> impl Iterator<Item = &ReplayEvent> {
        self.events.iter()
    }

    /// Number of events evicted by the ring buffer.
    #[must_use]
    pub fn truncated(&self) -> u64 {
        self.truncated
    }

    /// Serializes the recording (meta line + one line per event) in the
    /// current format version.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        write_meta(
            &mut out,
            self.n,
            &self.label,
            &self.engine,
            self.shard,
            self.truncated,
        );
        for event in &self.events {
            event.write_line(&mut out);
        }
        out
    }

    /// Converts into an owned [`Recording`] (e.g. to aggregate without
    /// going through serialization).
    #[must_use]
    pub fn into_recording(self) -> Recording {
        Recording {
            n: self.n,
            label: self.label,
            engine: self.engine,
            shard: self.shard,
            truncated: self.truncated,
            events: self.events.into_iter().collect(),
        }
    }
}

impl Observer for FlightRecorder {
    fn on_event(&mut self, event: &TraceEvent) {
        if let Some(cap) = self.capacity {
            if self.events.len() == cap {
                self.events.pop_front();
                self.truncated += 1;
            }
        }
        self.events.push_back(ReplayEvent::from_trace(event));
    }
}

/// A parse failure, with the 1-based line it occurred on and a snippet of
/// the offending input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordingError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
    /// The offending line, truncated to [`SNIPPET_MAX`] characters (empty
    /// when there is no line to show, e.g. an empty input).
    pub snippet: String,
}

/// Maximum characters of input quoted in a [`RecordingError`] snippet.
pub const SNIPPET_MAX: usize = 80;

/// Truncates `line` to [`SNIPPET_MAX`] characters, marking elision.
fn snippet_of(line: &str) -> String {
    if line.chars().count() <= SNIPPET_MAX {
        line.to_string()
    } else {
        let mut s: String = line.chars().take(SNIPPET_MAX).collect();
        s.push('…');
        s
    }
}

impl core::fmt::Display for RecordingError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)?;
        if !self.snippet.is_empty() {
            write!(f, " (in: {:?})", self.snippet)?;
        }
        Ok(())
    }
}

impl std::error::Error for RecordingError {}

/// A parsed recording: what [`FlightRecorder::to_jsonl`] wrote, read back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recording {
    /// Ring size of the recorded run.
    pub n: usize,
    /// Run label from the meta record.
    pub label: String,
    /// Producing engine/driver from the meta record (`"sim-sync"`,
    /// `"sim-async"`, `"net"`); empty when the recording predates the
    /// field or the recorder never set it.
    pub engine: String,
    /// `(shard, shards)` of a per-shard cluster recording; `None` for
    /// ordinary single-process recordings.
    pub shard: Option<(u64, u64)>,
    /// Events evicted by ring-buffer mode before serialization.
    pub truncated: u64,
    /// The recorded events, in execution order.
    pub events: Vec<ReplayEvent>,
}

impl Recording {
    /// Parses a JSONL recording. Strict: every line must parse, the first
    /// line must be a `meta` record of version [`RECORDING_VERSION`], and
    /// an untruncated recording must pass [`Recording::check_causality`].
    ///
    /// # Errors
    ///
    /// Returns a [`RecordingError`] naming the offending line.
    pub fn parse_jsonl(input: &str) -> Result<Recording, RecordingError> {
        let mut lines = input.lines().enumerate();
        let (_, meta_line) = lines.next().ok_or_else(|| RecordingError {
            line: 1,
            message: "empty recording".into(),
            snippet: String::new(),
        })?;
        let err = |message: String| RecordingError {
            line: 1,
            message,
            snippet: snippet_of(meta_line),
        };
        let meta = Value::parse(meta_line).map_err(err)?;
        let number = |key: &str| meta.get(key).and_then(Value::as_u64);
        let text = |key: &str| meta.get(key).and_then(Value::as_str).unwrap_or_default();
        if meta.get("type").and_then(Value::as_str) != Some("meta") {
            return Err(err("first line must be a meta record".into()));
        }
        let version =
            number("version").ok_or_else(|| err("meta record missing \"version\"".into()))?;
        if version != RECORDING_VERSION {
            return Err(err(format!("unsupported version {version}")));
        }
        let n = number("n").ok_or_else(|| err("meta record missing \"n\"".into()))?;
        let shard = match (number("shard"), number("shards")) {
            (Some(shard), Some(shards)) if shard < shards => Some((shard, shards)),
            (None, None) => None,
            _ => return Err(err("bad \"shard\"/\"shards\" pair".into())),
        };
        let mut recording = Recording {
            n: usize::try_from(n).map_err(|_| err("n out of range".into()))?,
            label: text("label").to_string(),
            engine: text("engine").to_string(),
            shard,
            truncated: number("truncated").unwrap_or(0),
            events: Vec::new(),
        };
        // The 1-based line number and text of each event, for errors the
        // causal check reports by event index.
        let mut sources = Vec::new();
        for (idx, line) in lines {
            if line.is_empty() {
                continue;
            }
            let err = |message: String| RecordingError {
                line: idx + 1,
                message,
                snippet: snippet_of(line),
            };
            let obj = Value::parse(line).map_err(err)?;
            let number = |key: &str| obj.get(key).and_then(Value::as_u64);
            let required = |key: &str| {
                number(key).ok_or_else(|| {
                    let kind = obj.get("type").and_then(Value::as_str).unwrap_or("event");
                    err(format!("{kind} missing \"{key}\""))
                })
            };
            let field = |key: &str| {
                usize::try_from(required(key)?).map_err(|_| err(format!("\"{key}\" out of range")))
            };
            let port = || match obj.get("port").and_then(Value::as_str) {
                Some("left") => Ok(PortId::LEFT),
                Some("right") => Ok(PortId::RIGHT),
                Some(p) => p
                    .strip_prefix('p')
                    .and_then(|k| k.parse::<u16>().ok())
                    .map(PortId::new)
                    .ok_or_else(|| err("bad \"port\"".into())),
                None => Err(err("bad \"port\"".into())),
            };
            let time = required("t")?;
            let event = match obj.get("type").and_then(Value::as_str) {
                Some("send") => ReplayEvent::Send {
                    time,
                    from: field("from")?,
                    to: field("to")?,
                    port: port()?,
                    bits: field("bits")?,
                    seq: required("seq")?,
                    lamport: required("lam")?,
                    parent: number("parent"),
                    phase: obj.get("phase").and_then(Value::as_str).map(str::to_string),
                    round: number("round").unwrap_or(0),
                    wall_us: number("wall"),
                },
                Some("deliver") => ReplayEvent::Deliver {
                    time,
                    to: field("to")?,
                    port: port()?,
                    seq: required("seq")?,
                    dropped: obj
                        .get("dropped")
                        .and_then(Value::as_bool)
                        .ok_or_else(|| err("deliver missing \"dropped\"".into()))?,
                    wall_us: number("wall"),
                },
                Some("halt") => ReplayEvent::Halt {
                    time,
                    processor: field("proc")?,
                },
                other => return Err(err(format!("unknown event type {other:?}"))),
            };
            recording.events.push(event);
            sources.push((idx + 1, line));
        }
        recording.check_causality().map_err(|(event, message)| {
            let (line, text) = sources[event];
            RecordingError {
                line,
                message,
                snippet: snippet_of(text),
            }
        })?;
        Ok(recording)
    }

    /// Checks the S21 causal invariants over the events: send `seq`s
    /// strictly increase, a `parent` names an earlier send, and a
    /// deliver's `seq` names a send already seen. On a per-shard
    /// recording, references to other shards' sends are left to
    /// `telemetry::merge`. A truncated recording passes unchecked: the
    /// evicted prefix may hold the parents.
    ///
    /// # Errors
    ///
    /// The index into `events` of the first offending event, and what is
    /// wrong with it.
    pub fn check_causality(&self) -> Result<(), (usize, String)> {
        if self.truncated != 0 {
            return Ok(());
        }
        let mut check = CausalCheck::new(self.shard.map(|(shard, _)| shard));
        for (k, event) in self.events.iter().enumerate() {
            match event {
                ReplayEvent::Send { seq, parent, .. } => check.on_send(*seq, *parent),
                ReplayEvent::Deliver { seq, .. } => check.on_deliver(*seq),
                ReplayEvent::Halt { .. } => Ok(()),
            }
            .map_err(|message| (k, message))?;
        }
        Ok(())
    }

    /// Re-serializes exactly as [`FlightRecorder::to_jsonl`] would — parse
    /// followed by `to_jsonl` is byte-identical (the golden test pins it).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        write_meta(
            &mut out,
            self.n,
            &self.label,
            &self.engine,
            self.shard,
            self.truncated,
        );
        for event in &self.events {
            event.write_line(&mut out);
        }
        out
    }

    /// Stamps events with wall-clock microsecond offsets, one stamp per
    /// recorded event in order (the shape real-time engines hand back —
    /// their event log and stamp vector grow in the same critical
    /// section). Halt events take no stamp but still consume their slot.
    /// Extra stamps beyond the event count are ignored; missing stamps
    /// leave the tail unstamped.
    pub fn attach_wall_stamps(&mut self, stamps: &[u64]) {
        for (event, &stamp) in self.events.iter_mut().zip(stamps) {
            match event {
                ReplayEvent::Send { wall_us, .. } | ReplayEvent::Deliver { wall_us, .. } => {
                    *wall_us = Some(stamp);
                }
                ReplayEvent::Halt { .. } => {}
            }
        }
    }

    /// Total messages recorded.
    #[must_use]
    pub fn messages(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| matches!(e, ReplayEvent::Send { .. }))
            .count() as u64
    }

    /// Total bits recorded.
    #[must_use]
    pub fn bits(&self) -> u64 {
        self.events
            .iter()
            .map(|e| match e {
                ReplayEvent::Send { bits, .. } => *bits as u64,
                _ => 0,
            })
            .sum()
    }

    /// `(sends, delivers, drops, halts)` per time index; the vector covers
    /// `0 ..= max event time` even where all four are zero.
    #[must_use]
    pub fn per_time_activity(&self) -> Vec<(u64, u64, u64, u64)> {
        let horizon = self.events.iter().map(ReplayEvent::time).max();
        let mut rows = vec![(0u64, 0u64, 0u64, 0u64); horizon.map_or(0, |h| h as usize + 1)];
        for event in &self.events {
            let row = &mut rows[event.time() as usize];
            match event {
                ReplayEvent::Send { .. } => row.0 += 1,
                ReplayEvent::Deliver { dropped, .. } => {
                    row.1 += 1;
                    row.2 += u64::from(*dropped);
                }
                ReplayEvent::Halt { .. } => row.3 += 1,
            }
        }
        rows
    }

    /// `(phase, round) → (messages, bits)` over annotated sends, sorted;
    /// unannotated sends aggregate under the empty phase name.
    #[must_use]
    pub fn phase_profile(&self) -> Vec<((String, u64), (u64, u64))> {
        let mut map: std::collections::BTreeMap<(String, u64), (u64, u64)> =
            std::collections::BTreeMap::new();
        for event in &self.events {
            if let ReplayEvent::Send {
                bits, phase, round, ..
            } = event
            {
                let key = (phase.clone().unwrap_or_default(), *round);
                let entry = map.entry(key).or_insert((0, 0));
                entry.0 += 1;
                entry.1 += *bits as u64;
            }
        }
        map.into_iter().collect()
    }
}

/// Streaming validator for the causal fields: send `seq`s must
/// strictly increase, a `parent` must name an earlier send, a deliver's
/// `seq` must name a seen send.
///
/// On a per-shard cluster recording (`shard: Some(k)`) a send's seq must
/// carry this shard's tag, while parents and delivered seqs tagged with
/// a *different* shard are references to sends recorded elsewhere — those
/// are exempt here and resolved by `telemetry::merge`, which re-checks
/// the full invariants on the merged stream.
struct CausalCheck {
    seen: std::collections::BTreeSet<u64>,
    last_seq: Option<u64>,
    shard: Option<u64>,
}

impl CausalCheck {
    fn new(shard: Option<u64>) -> CausalCheck {
        CausalCheck {
            seen: std::collections::BTreeSet::new(),
            last_seq: None,
            shard,
        }
    }

    /// Whether `seq` names a send this recording must itself contain.
    fn local(&self, seq: u64) -> bool {
        self.shard.is_none_or(|shard| seq_shard(seq) == shard)
    }

    fn on_send(&mut self, seq: u64, parent: Option<u64>) -> Result<(), String> {
        if !self.local(seq) {
            return Err(format!(
                "send \"seq\":{seq} carries a foreign shard tag (shard {})",
                seq_shard(seq)
            ));
        }
        if self.last_seq.is_some_and(|last| seq <= last) {
            return Err(format!("send \"seq\":{seq} out of order"));
        }
        if let Some(parent) = parent {
            if self.local(parent) && !self.seen.contains(&parent) {
                return Err(format!(
                    "causal edge \"parent\":{parent} does not name an earlier send"
                ));
            }
        }
        self.last_seq = Some(seq);
        self.seen.insert(seq);
        Ok(())
    }

    fn on_deliver(&mut self, seq: u64) -> Result<(), String> {
        if self.local(seq) && !self.seen.contains(&seq) {
            return Err(format!("deliver \"seq\":{seq} does not name a seen send"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::{FlightRecorder, Recording, ReplayEvent};
    use crate::port::PortId;
    use crate::runtime::{Observer, SendEvent, Span, TraceEvent};

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Send(SendEvent {
                cycle: 0,
                from: 0,
                to: 1,
                port: PortId::LEFT,
                bits: 3,
                seq: 0,
                lamport: 1,
                parent: None,
                span: Some(Span::new("labels", 1)),
            }),
            TraceEvent::Send(SendEvent {
                cycle: 0,
                from: 2,
                to: 1,
                port: PortId::RIGHT,
                bits: 2,
                seq: 1,
                lamport: 1,
                parent: Some(0),
                span: None,
            }),
            TraceEvent::Deliver {
                time: 1,
                to: 1,
                port: PortId::LEFT,
                seq: 0,
                dropped: false,
            },
            TraceEvent::Halt {
                time: 2,
                processor: 1,
            },
        ]
    }

    #[test]
    fn round_trips_through_the_parser_byte_identically() {
        let mut rec = FlightRecorder::new(3, "unit \"quoted\" label");
        for event in sample_events() {
            rec.on_event(&event);
        }
        let jsonl = rec.to_jsonl();
        let parsed = Recording::parse_jsonl(&jsonl).unwrap();
        assert_eq!(parsed.n, 3);
        assert_eq!(parsed.label, "unit \"quoted\" label");
        assert_eq!(parsed.events.len(), 4);
        assert_eq!(parsed.to_jsonl(), jsonl);
    }

    #[test]
    fn engine_field_round_trips_and_is_omitted_when_unset() {
        // Unset: the meta line must look exactly like the pre-engine format.
        let bare = FlightRecorder::new(2, "bare").to_jsonl();
        assert!(!bare.contains("engine"), "{bare}");
        let parsed = Recording::parse_jsonl(&bare).unwrap();
        assert_eq!(parsed.engine, "");
        assert_eq!(parsed.to_jsonl(), bare);

        // Set: the key appears after "label" and survives the round-trip.
        let mut rec = FlightRecorder::new(3, "net run").with_engine("net");
        for event in sample_events() {
            rec.on_event(&event);
        }
        let jsonl = rec.to_jsonl();
        assert!(
            jsonl.starts_with(
                "{\"type\":\"meta\",\"version\":2,\"n\":3,\
                 \"label\":\"net run\",\"engine\":\"net\",\"truncated\":0}"
            ),
            "{jsonl}"
        );
        let parsed = Recording::parse_jsonl(&jsonl).unwrap();
        assert_eq!(parsed.engine, "net");
        assert_eq!(parsed.to_jsonl(), jsonl, "byte-identical round-trip");
    }

    #[test]
    fn wall_stamps_round_trip_and_stay_optional() {
        let mut rec = FlightRecorder::new(3, "net run").with_engine("net");
        for event in sample_events() {
            rec.on_event(&event);
        }
        // Unstamped: no "wall" key anywhere (simulator recordings keep
        // their exact pre-wall byte shape).
        let bare = rec.to_jsonl();
        assert!(!bare.contains("\"wall\""), "{bare}");

        // Stamped: one stamp per event in order; the halt slot is
        // consumed but not written.
        let mut recording = rec.into_recording();
        recording.attach_wall_stamps(&[10, 20, 35, 41]);
        let jsonl = recording.to_jsonl();
        assert!(
            jsonl.contains(",\"seq\":0,\"lam\":1,\"wall\":10,\"phase\":\"labels\""),
            "{jsonl}"
        );
        assert!(jsonl.contains(",\"parent\":0,\"wall\":20}"), "{jsonl}");
        assert!(
            jsonl.contains("\"deliver\",\"t\":1,\"to\":1,\"port\":\"left\",\"seq\":0,\"wall\":35"),
            "{jsonl}"
        );
        assert!(
            !jsonl.contains("\"wall\":41"),
            "halt takes no stamp: {jsonl}"
        );
        let parsed = Recording::parse_jsonl(&jsonl).unwrap();
        assert_eq!(parsed, recording);
        assert_eq!(parsed.to_jsonl(), jsonl, "byte-identical round-trip");

        // Short stamp vectors leave the tail unstamped instead of panicking.
        let mut partial = Recording::parse_jsonl(&bare).unwrap();
        partial.attach_wall_stamps(&[7]);
        let out = partial.to_jsonl();
        assert_eq!(out.matches("\"wall\"").count(), 1, "{out}");
    }

    #[test]
    fn parse_errors_carry_line_numbers_and_snippets() {
        let mut rec = FlightRecorder::new(3, "malformed");
        for event in sample_events() {
            rec.on_event(&event);
        }
        let jsonl = rec.to_jsonl();

        // Corrupt the third line (1 meta + 4 events): the error must name
        // it by 1-based number and quote it.
        let mut lines: Vec<&str> = jsonl.lines().collect();
        lines[2] = "{\"type\":\"send\",\"t\":oops}";
        let err = Recording::parse_jsonl(&lines.join("\n")).unwrap_err();
        assert_eq!(err.line, 3);
        assert_eq!(err.snippet, "{\"type\":\"send\",\"t\":oops}");
        let shown = err.to_string();
        assert!(shown.contains("line 3"), "{shown}");
        assert!(shown.contains("oops"), "{shown}");

        // A bad meta line snippets line 1.
        let err = Recording::parse_jsonl("{\"type\":\"send\"}").unwrap_err();
        assert_eq!(err.line, 1);
        assert_eq!(err.snippet, "{\"type\":\"send\"}");

        // Empty input has nothing to quote.
        let err = Recording::parse_jsonl("").unwrap_err();
        assert_eq!(err.line, 1);
        assert_eq!(err.snippet, "");

        // Long lines are truncated to SNIPPET_MAX with an ellipsis.
        let long = format!("{{\"type\":\"meta\",\"junk\":\"{}\"}}", "x".repeat(200));
        let err = Recording::parse_jsonl(&long).unwrap_err();
        assert_eq!(err.snippet.chars().count(), super::SNIPPET_MAX + 1);
        assert!(err.snippet.ends_with('…'));
    }

    #[test]
    fn bounded_mode_keeps_the_most_recent_events() {
        let mut rec = FlightRecorder::bounded(3, "ring", 2);
        for event in sample_events() {
            rec.on_event(&event);
        }
        assert_eq!(rec.truncated(), 2);
        assert_eq!(rec.events().count(), 2);
        let recording = rec.into_recording();
        assert_eq!(recording.truncated, 2);
        assert!(matches!(recording.events[1], ReplayEvent::Halt { .. }));
        let reparsed = Recording::parse_jsonl(&recording.to_jsonl()).unwrap();
        assert_eq!(reparsed, recording);
    }

    #[test]
    fn aggregations_cover_sends_and_activity() {
        let mut rec = FlightRecorder::new(3, "agg");
        for event in sample_events() {
            rec.on_event(&event);
        }
        let recording = rec.into_recording();
        assert_eq!(recording.messages(), 2);
        assert_eq!(recording.bits(), 5);
        assert_eq!(
            recording.per_time_activity(),
            vec![(2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)]
        );
        let profile = recording.phase_profile();
        assert_eq!(
            profile,
            vec![
                ((String::new(), 0), (1, 2)),
                (("labels".to_string(), 1), (1, 3)),
            ]
        );
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(Recording::parse_jsonl("").is_err());
        assert!(Recording::parse_jsonl("{\"type\":\"send\"}").is_err());
        let bad_version =
            "{\"type\":\"meta\",\"version\":99,\"n\":2,\"label\":\"x\",\"truncated\":0}";
        let err = Recording::parse_jsonl(bad_version).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
        let v1 = "{\"type\":\"meta\",\"version\":1,\"n\":2,\"label\":\"x\",\"truncated\":0}";
        let err = Recording::parse_jsonl(v1).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("unsupported version 1"), "{err}");
        let bad_event = "{\"type\":\"meta\",\"version\":2,\"n\":2,\"label\":\"x\",\
                         \"truncated\":0}\n{\"type\":\"warp\",\"t\":0}";
        let err = Recording::parse_jsonl(bad_event).unwrap_err();
        assert_eq!(err.line, 2);
    }
}
