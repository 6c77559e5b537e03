//! The one record of a run: [`Recording`] observes the [`TraceEvent`]
//! stream, serializes it to JSONL, parses it back for offline replay, and
//! derives every view the tooling reads from the kept events — totals,
//! per-time activity, the phase profile, the metrics registry and the
//! space-time diagram.
//!
//! Every per-time view reads one sparse index,
//! [`Recording::per_time_activity`], with a row per time that carries an
//! event. A quiet time is counted against [`Recording::horizon`], never
//! stored, so a view's cost follows the events and not the time span.
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
//! (and recordings that never call [`Recording::with_engine`])
//! serialize byte-identically to the pinned goldens.
//!
//! [`Recording::parse_jsonl`] reads version 2 only (no committed artifact
//! predates it) through the workspace codec, [`crate::json::Value`]. On
//! untruncated input it *validates* the causal edges with
//! [`Recording::check_causality`]: send `seq`s must strictly increase, a
//! `parent` must name an earlier send, and a deliver's `seq` must name a
//! seen send — a malformed edge reports its 1-based line number and
//! snippet like any other parse error. A processor index (`from`, `to`,
//! `proc`) outside `0..n` is such an error too, so the per-processor
//! views never index past their vectors.
//!
//! A live recording keeps every event and writes `"truncated":0`. The
//! field is still read from files: a file is outside input, and one that
//! says events were cut from its front skips the causal check, since the
//! cut prefix may hold the parents.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{json_escape, Value};
use crate::port::PortId;
use crate::runtime::{Observer, TraceEvent};
use crate::telemetry::{Histogram, MetricId, MetricsRegistry, SpanStats};

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

    /// Rewrites the event's references to sends through `lookup`: a
    /// send's `seq` and `parent`, a deliver's `seq`. Every other field is
    /// kept. `telemetry::merge` renumbers merged and split streams with it.
    pub(crate) fn rewrite_seqs<E>(
        &mut self,
        mut lookup: impl FnMut(u64) -> Result<u64, E>,
    ) -> Result<(), E> {
        match self {
            ReplayEvent::Send { seq, parent, .. } => {
                *seq = lookup(*seq)?;
                if let Some(parent) = parent {
                    *parent = lookup(*parent)?;
                }
            }
            ReplayEvent::Deliver { seq, .. } => *seq = lookup(*seq)?,
            ReplayEvent::Halt { .. } => {}
        }
        Ok(())
    }

    /// The wall stamp slot of a send or deliver; halts take none.
    pub(crate) fn wall_mut(&mut self) -> Option<&mut Option<u64>> {
        match self {
            ReplayEvent::Send { wall_us, .. } | ReplayEvent::Deliver { wall_us, .. } => {
                Some(wall_us)
            }
            ReplayEvent::Halt { .. } => None,
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

/// A parse failure, with the 1-based line it occurred on and a snippet of
/// the offending input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordingError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
    /// The offending line, truncated to `SNIPPET_MAX` characters (empty
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

/// The events of one run, in execution order, with the meta record that
/// names it. Plug a fresh one into `run_with_observer` to record a live
/// run, or [`Recording::parse_jsonl`] a file to replay one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recording {
    /// Ring size of the recorded run.
    pub n: usize,
    /// Run label from the meta record.
    pub label: String,
    /// Producing engine/driver from the meta record (`"sim-sync"`,
    /// `"sim-async"`, `"net"`); empty when the recording predates the
    /// field or was never given one.
    pub engine: String,
    /// `(shard, shards)` of a per-shard cluster recording; `None` for
    /// ordinary single-process recordings.
    pub shard: Option<(u64, u64)>,
    /// Events a file says were cut from its front (0 for live recordings).
    pub truncated: u64,
    /// The recorded events, in execution order.
    pub events: Vec<ReplayEvent>,
}

impl Observer for Recording {
    fn on_event(&mut self, event: &TraceEvent) {
        self.events.push(ReplayEvent::from_trace(event));
    }
}

impl Recording {
    /// An empty recording of a ring of `n` processors; `label` names the
    /// run in the meta record (experiment id, workload, …).
    #[must_use]
    pub fn new(n: usize, label: impl Into<String>) -> Recording {
        Recording {
            n,
            label: label.into(),
            engine: String::new(),
            shard: None,
            truncated: 0,
            events: Vec::new(),
        }
    }

    /// Names the producing engine/driver in the meta record (`"sim-sync"`,
    /// `"sim-async"`, `"net"`, …). Unset recordings omit the key entirely,
    /// preserving byte-identity with pre-engine artifacts.
    #[must_use]
    pub fn with_engine(mut self, engine: impl Into<String>) -> Recording {
        self.engine = engine.into();
        self
    }

    /// Marks the recording as shard `shard` of a `shards`-shard cluster
    /// run. Sharded recordings carry shard-tagged seqs (see
    /// [`SHARD_SEQ_SHIFT`]); the causal checker then accepts references to
    /// sends owned by other shards, which `telemetry::merge` resolves.
    /// Unset recordings omit the keys, preserving byte-identity.
    #[must_use]
    pub fn with_shard(mut self, shard: u64, shards: u64) -> Recording {
        self.shard = Some((shard, shards));
        self
    }

    /// Parses a JSONL recording. Strict: every line must parse, the first
    /// line must be a `meta` record of version [`RECORDING_VERSION`], every
    /// processor index (`from`, `to`, `proc`) must lie in `0..n`, and an
    /// untruncated recording must pass [`Recording::check_causality`].
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
        let n = usize::try_from(n).map_err(|_| err("n out of range".into()))?;
        let mut recording = Recording {
            n,
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
            let processor = |key: &str| {
                let index = field(key)?;
                if index < n {
                    Ok(index)
                } else {
                    Err(err(format!(
                        "\"{key}\":{index} names no processor of a ring of {n}"
                    )))
                }
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
                    from: processor("from")?,
                    to: processor("to")?,
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
                    to: processor("to")?,
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
                    processor: processor("proc")?,
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
    /// cut prefix may hold the parents.
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

    /// Serializes the recording (meta line + one line per event) in the
    /// current format version. Parse followed by `to_jsonl` is
    /// byte-identical (the golden test pins it).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"type\":\"meta\",\"version\":{RECORDING_VERSION},\"n\":{},\"label\":\"{}\"",
            self.n,
            json_escape(&self.label)
        );
        if !self.engine.is_empty() {
            let _ = write!(out, ",\"engine\":\"{}\"", json_escape(&self.engine));
        }
        if let Some((shard, shards)) = self.shard {
            let _ = write!(out, ",\"shard\":{shard},\"shards\":{shards}");
        }
        let _ = writeln!(out, ",\"truncated\":{}}}", self.truncated);
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
            if let Some(wall_us) = event.wall_mut() {
                *wall_us = Some(stamp);
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

    /// `(t, sends, delivers, drops, halts)` for each time `t` that carries
    /// an event, in ascending `t`. A quiet time has no row: the run spans
    /// [`Recording::horizon`] times, `horizon − rows` of them quiet, so the
    /// rows grow with the events and never with the span.
    #[must_use]
    pub fn per_time_activity(&self) -> Vec<(u64, u64, u64, u64, u64)> {
        let mut rows: BTreeMap<u64, (u64, u64, u64, u64)> = BTreeMap::new();
        for event in &self.events {
            let row = rows.entry(event.time()).or_default();
            match event {
                ReplayEvent::Send { .. } => row.0 += 1,
                ReplayEvent::Deliver { dropped, .. } => {
                    row.1 += 1;
                    row.2 += u64::from(*dropped);
                }
                ReplayEvent::Halt { .. } => row.3 += 1,
            }
        }
        rows.into_iter()
            .map(|(t, (sends, delivers, drops, halts))| (t, sends, delivers, drops, halts))
            .collect()
    }

    /// One past the latest event time (0 when there are no events): the
    /// number of time indices the run spans, quiet ones included.
    /// Saturates at `u64::MAX`.
    #[must_use]
    pub fn horizon(&self) -> u64 {
        self.events
            .iter()
            .map(|e| e.time().saturating_add(1))
            .max()
            .unwrap_or(0)
    }

    /// Sends per time index over the whole horizon: one observation per
    /// row of [`Recording::per_time_activity`], and every quiet time added
    /// as a zero in one step.
    #[must_use]
    pub fn messages_per_time(&self) -> Histogram {
        let rows = self.per_time_activity();
        let mut histogram = Histogram::default();
        for &(_, sends, ..) in &rows {
            histogram.observe(sends);
        }
        histogram.observe_times(0, self.horizon() - rows.len() as u64);
        histogram
    }

    /// `(phase, round) → (messages, bits)` over annotated sends, sorted;
    /// unannotated sends aggregate under the empty phase name.
    #[must_use]
    pub fn phase_profile(&self) -> Vec<((String, u64), (u64, u64))> {
        let mut map: BTreeMap<(String, u64), (u64, u64)> = BTreeMap::new();
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

    /// Renders the space-time diagram: one row per time index that carries
    /// a send (quiet rows elided, at most `max_rows` drawn), one column per
    /// processor; `>` is a clockwise send (to the higher index, wrapping),
    /// `<` counterclockwise, `X` both. Rows are cycles in a synchronous run
    /// and arrival epochs in an asynchronous one. The rows come from
    /// [`Recording::per_time_activity`], and the sends are drawn in one
    /// pass, each into the row of its time, so the cost follows the events
    /// and the footer's cycle count is [`Recording::horizon`].
    #[must_use]
    pub fn render(&self, max_rows: usize) -> String {
        let n = self.n;
        let active: Vec<u64> = self
            .per_time_activity()
            .iter()
            .filter(|row| row.1 > 0)
            .map(|row| row.0)
            .collect();
        let shown = &active[..active.len().min(max_rows)];
        let mut grid = vec![b'.'; shown.len() * n];
        for event in &self.events {
            if let ReplayEvent::Send { time, from, to, .. } = *event {
                let Some(row) = shown.binary_search(&time).ok().filter(|_| from < n) else {
                    continue;
                };
                let mark = if to == (from + 1) % n { b'>' } else { b'<' };
                let cell = &mut grid[row * n + from];
                *cell = if *cell == b'.' || *cell == mark {
                    mark
                } else {
                    b'X'
                };
            }
        }
        let header: String = (0..n).map(|i| char::from(b'0' + (i % 10) as u8)).collect();
        let mut out = format!("cycle  {header}\n");
        for (row, t) in shown.iter().enumerate() {
            let cells = String::from_utf8_lossy(&grid[row * n..(row + 1) * n]);
            let _ = writeln!(out, "{t:>5}  {cells}");
        }
        if active.len() > shown.len() {
            let _ = writeln!(
                out,
                "  ...  ({} more active cycles)",
                active.len() - shown.len()
            );
        }
        let _ = writeln!(
            out,
            "({} messages over {} cycles, {} of them active)",
            self.messages(),
            self.horizon(),
            active.len()
        );
        out
    }

    /// Folds the events into a labelled registry snapshot.
    ///
    /// Counters: `messages_total`, `bits_total`, `deliveries_total` and
    /// `drops_total`, plain; `messages_total`, `bits_total` and
    /// `received_total` per `proc`; `span_messages` and `span_bits` per
    /// annotated `(phase, round)`. Gauges: `halt_time{proc}` for each
    /// processor that halted, `halted_total`, `queue_depth_max{to,port}`
    /// (the most messages sent and not yet delivered on each directed
    /// link; every processor lists at least the ring's two ports) and
    /// `run_horizon` (one past the latest event time). Histograms:
    /// `messages_per_time` (quiet times included, counted rather than
    /// stored; see [`Recording::messages_per_time`]) and `sent_per_proc`.
    ///
    /// # Panics
    ///
    /// Panics if an event names a processor outside `0..n`;
    /// [`Recording::parse_jsonl`] rejects such files.
    #[must_use]
    pub fn registry(&self) -> MetricsRegistry {
        /// The `(depth, peak)` slot of a directed link; higher-degree
        /// topologies reveal their further ports through the events.
        fn link(links: &mut [Vec<(u64, u64)>], to: usize, port: PortId) -> &mut (u64, u64) {
            let ports = &mut links[to];
            if ports.len() <= port.index() {
                ports.resize(port.index() + 1, (0, 0));
            }
            &mut ports[port.index()]
        }
        let n = self.n;
        let (mut sent, mut sent_bits, mut received) = (vec![0; n], vec![0; n], vec![0; n]);
        let mut halt_times = vec![None; n];
        // `(depth, peak)` per directed link, indexed `[to][port]`.
        let mut links = vec![vec![(0u64, 0u64); 2]; n];
        let mut spans: BTreeMap<(&str, u64), SpanStats> = BTreeMap::new();
        let (mut deliveries, mut drops) = (0, 0);
        for event in &self.events {
            match event {
                ReplayEvent::Send {
                    from,
                    to,
                    port,
                    bits,
                    phase,
                    round,
                    ..
                } => {
                    sent[*from] += 1;
                    sent_bits[*from] += *bits as u64;
                    let (depth, peak) = link(&mut links, *to, *port);
                    *depth += 1;
                    *peak = (*peak).max(*depth);
                    if let Some(phase) = phase {
                        let stats = spans.entry((phase, *round)).or_default();
                        stats.messages += 1;
                        stats.bits += *bits as u64;
                    }
                }
                ReplayEvent::Deliver {
                    to, port, dropped, ..
                } => {
                    let (depth, _) = link(&mut links, *to, *port);
                    *depth = depth.saturating_sub(1);
                    if *dropped {
                        drops += 1;
                    } else {
                        deliveries += 1;
                        received[*to] += 1;
                    }
                }
                ReplayEvent::Halt { time, processor } => halt_times[*processor] = Some(*time),
            }
        }
        let gauge = |value: u64| i64::try_from(value).unwrap_or(i64::MAX);
        let mut reg = MetricsRegistry::new();
        reg.add_counter(MetricId::plain("messages_total"), self.messages());
        reg.add_counter(MetricId::plain("bits_total"), self.bits());
        reg.add_counter(MetricId::plain("deliveries_total"), deliveries);
        reg.add_counter(MetricId::plain("drops_total"), drops);
        for i in 0..n {
            let proc = i.to_string();
            let labels: &[(&str, &str)] = &[("proc", &proc)];
            reg.add_counter(MetricId::with_labels("messages_total", labels), sent[i]);
            reg.add_counter(MetricId::with_labels("bits_total", labels), sent_bits[i]);
            reg.add_counter(MetricId::with_labels("received_total", labels), received[i]);
            if let Some(t) = halt_times[i] {
                reg.set_gauge(MetricId::with_labels("halt_time", labels), gauge(t));
            }
            reg.observe(MetricId::plain("sent_per_proc"), sent[i]);
        }
        for ((phase, round), stats) in spans {
            let round = round.to_string();
            let labels: &[(&str, &str)] = &[("phase", phase), ("round", &round)];
            reg.add_counter(
                MetricId::with_labels("span_messages", labels),
                stats.messages,
            );
            reg.add_counter(MetricId::with_labels("span_bits", labels), stats.bits);
        }
        for (to, ports) in links.iter().enumerate() {
            for (k, &(_, peak)) in ports.iter().enumerate() {
                let to_label = to.to_string();
                let port_label = PortId::new(k as u16).to_string();
                reg.set_gauge(
                    MetricId::with_labels(
                        "queue_depth_max",
                        &[("to", &to_label), ("port", &port_label)],
                    ),
                    gauge(peak),
                );
            }
        }
        let halted = halt_times.iter().flatten().count() as u64;
        reg.set_gauge(MetricId::plain("halted_total"), gauge(halted));
        reg.set_gauge(MetricId::plain("run_horizon"), gauge(self.horizon()));
        let per_time = self.messages_per_time();
        if per_time.count > 0 {
            reg.put_histogram(MetricId::plain("messages_per_time"), per_time);
        }
        reg
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
    use super::Recording;
    use crate::port::PortId;
    use crate::runtime::{Observer, SendEvent, Span, TraceEvent};
    use crate::sync::{Emit, Received, Step, SyncEngine, SyncProcess, SyncReport};
    use crate::RingTopology;

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
        let mut rec = Recording::new(3, "unit \"quoted\" label");
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
        let bare = Recording::new(2, "bare").to_jsonl();
        assert!(!bare.contains("engine"), "{bare}");
        let parsed = Recording::parse_jsonl(&bare).unwrap();
        assert_eq!(parsed.engine, "");
        assert_eq!(parsed.to_jsonl(), bare);

        // Set: the key appears after "label" and survives the round-trip.
        let mut rec = Recording::new(3, "net run").with_engine("net");
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
        let mut rec = Recording::new(3, "net run").with_engine("net");
        for event in sample_events() {
            rec.on_event(&event);
        }
        // Unstamped: no "wall" key anywhere (simulator recordings keep
        // their exact pre-wall byte shape).
        let bare = rec.to_jsonl();
        assert!(!bare.contains("\"wall\""), "{bare}");

        // Stamped: one stamp per event in order; the halt slot is
        // consumed but not written.
        let mut recording = rec;
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
        let mut rec = Recording::new(3, "malformed");
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
    fn aggregations_cover_sends_and_activity() {
        let mut recording = Recording::new(3, "agg");
        for event in sample_events() {
            recording.on_event(&event);
        }
        assert_eq!(recording.messages(), 2);
        assert_eq!(recording.bits(), 5);
        assert_eq!(
            recording.per_time_activity(),
            vec![(0, 2, 0, 0, 0), (1, 0, 1, 0, 0), (2, 0, 0, 0, 1)]
        );
        assert_eq!(recording.horizon(), 3);
        let per_time = recording.messages_per_time();
        assert_eq!((per_time.count, per_time.sum, per_time.max), (3, 2, 2));
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

    #[test]
    fn parser_rejects_processors_outside_the_ring() {
        let meta = "{\"type\":\"meta\",\"version\":2,\"n\":2,\"label\":\"x\",\"truncated\":0}";
        let halt = "{\"type\":\"halt\",\"t\":0,\"proc\":7}";
        let err = Recording::parse_jsonl(&format!("{meta}\n{halt}\n")).unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.snippet, halt);
        assert!(
            err.message
                .contains("\"proc\":7 names no processor of a ring of 2"),
            "{err}"
        );
        let send = "{\"type\":\"send\",\"t\":0,\"from\":1,\"to\":2,\"port\":\"left\",\
                    \"bits\":1,\"seq\":0,\"lam\":1}";
        let err = Recording::parse_jsonl(&format!("{meta}\n{send}\n")).unwrap_err();
        assert!(err.message.starts_with("\"to\":2"), "{err}");
    }

    /// `(t, sends)` of each row of [`Recording::per_time_activity`]: the
    /// times that carry an event, quiet ones absent.
    fn sends_per_time(recording: &Recording) -> Vec<(u64, u64)> {
        recording
            .per_time_activity()
            .iter()
            .map(|row| (row.0, row.1))
            .collect()
    }

    fn record_sync<P: SyncProcess>(n: usize, procs: Vec<P>) -> (SyncReport<P::Output>, Recording) {
        let topo = RingTopology::oriented(n).unwrap();
        let mut engine = SyncEngine::new(topo, procs).unwrap();
        let mut recording = Recording::new(n, "diagram");
        let report = engine.run_with_observer(&mut recording).unwrap();
        (report, recording)
    }

    #[test]
    fn traces_record_all_sends() {
        #[derive(Debug)]
        struct OneShot;
        impl SyncProcess for OneShot {
            type Msg = u8;
            type Output = ();
            fn step(&mut self, cycle: u64, _rx: Received<u8>) -> Step<u8, ()> {
                if cycle == 0 {
                    Step::send_right(1).and_halt(())
                } else {
                    Step::halt(())
                }
            }
        }
        let (report, recording) = record_sync(4, vec![OneShot, OneShot, OneShot, OneShot]);
        assert_eq!(recording.messages(), report.messages);
        assert_eq!(sends_per_time(&recording), vec![(0, 4)]);
        let art = recording.render(10);
        assert!(art.contains(">>>>"), "{art}");
        assert!(art.contains("4 messages"));
    }

    #[test]
    fn zero_send_runs_report_their_full_extent() {
        #[derive(Debug)]
        struct Mute;
        impl SyncProcess for Mute {
            type Msg = u8;
            type Output = ();
            fn step(&mut self, cycle: u64, _rx: Received<u8>) -> Step<u8, ()> {
                if cycle == 3 {
                    Step::halt(())
                } else {
                    Step::idle()
                }
            }
        }
        let (report, recording) = record_sync(3, vec![Mute, Mute, Mute]);
        assert_eq!(report.messages, 0);
        // Index 0 is the first cycle even though nothing was ever sent:
        // the run spans four cycles (0..=3, the halt cycle), and only the
        // halt cycle has a row.
        assert_eq!(sends_per_time(&recording), vec![(3, 0)]);
        assert_eq!(recording.horizon(), 4);
        let per_time = recording.messages_per_time();
        assert_eq!((per_time.count, per_time.sum), (4, 0));
        let art = recording.render(10);
        assert!(art.contains("0 messages over 4 cycles"), "{art}");
    }

    #[test]
    fn late_start_runs_pad_leading_quiet_cycles() {
        #[derive(Debug)]
        struct LateSend;
        impl SyncProcess for LateSend {
            type Msg = u8;
            type Output = ();
            fn step(&mut self, cycle: u64, _rx: Received<u8>) -> Step<u8, ()> {
                match cycle {
                    2 => Step::send_right(1).and_halt(()),
                    _ => Step::idle(),
                }
            }
        }
        let (_, recording) = record_sync(2, vec![LateSend, LateSend]);
        // Cycles 0 and 1 are quiet: counted in the horizon, absent from
        // the rows.
        assert_eq!(sends_per_time(&recording), vec![(2, 2)]);
        assert_eq!(recording.horizon(), 3);
    }

    #[test]
    fn quiet_cycles_are_elided() {
        #[derive(Debug)]
        struct LateSend;
        impl SyncProcess for LateSend {
            type Msg = u8;
            type Output = ();
            fn step(&mut self, cycle: u64, _rx: Received<u8>) -> Step<u8, ()> {
                match cycle {
                    5 => Step::send_left(1).and_halt(()),
                    _ => Step::idle(),
                }
            }
        }
        let (_, recording) = record_sync(3, vec![LateSend, LateSend, LateSend]);
        assert_eq!(sends_per_time(&recording), vec![(5, 3)]);
        assert_eq!(recording.horizon(), 6);
        let art = recording.render(10);
        // Only one rendered row despite 6 cycles.
        assert_eq!(art.matches('\n').count(), 3, "{art}");
        assert!(art.contains("<<<"), "{art}");
    }

    #[test]
    fn rows_past_the_limit_are_counted_not_drawn() {
        // Processor 0 sends both ways at time 0 (`X`), then one clockwise
        // send per time 1..=3; a limit of two rows counts the other two.
        let mut recording = Recording::new(3, "limit");
        for (time, from, to) in [(0, 0, 1), (0, 0, 2), (1, 1, 2), (2, 2, 0), (3, 2, 0)] {
            recording.on_event(&TraceEvent::Send(SendEvent {
                cycle: time,
                from,
                to,
                port: PortId::LEFT,
                bits: 1,
                seq: 0,
                lamport: 1,
                parent: None,
                span: None,
            }));
        }
        assert_eq!(
            recording.render(2),
            "cycle  012\n    0  X..\n    1  .>.\n  ...  (2 more active cycles)\n\
             (5 messages over 4 cycles, 4 of them active)\n"
        );
    }
}
