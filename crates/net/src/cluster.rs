//! Multi-host cluster execution: one `ringd --cluster` process per shard
//! (S27).
//!
//! A cluster run splits the ring across processes by the
//! [`ClusterManifest`]'s shard map: each process owns a contiguous block
//! of processors, keeps intra-shard links in-process, and dials every
//! cross-shard directed link as a TCP connection speaking the existing
//! [`Wire`](crate::Wire) frame codec. [`run_shard`] only builds the
//! per-link plan — local inboxes, dialed streams, accepted streams to pump
//! — around its own `ShardHub` sequencer and hands it to the launcher
//! [`run`](crate::run) uses; the handshakes and the control plane below
//! are all that is cluster code. Workers, inboxes, causal clocks and
//! metering are the single-process code paths, so a cluster run is
//! certified by the same conformance oracle once its per-shard recordings
//! are merged ([`anonring_sim::telemetry::merge`]).
//!
//! ## Handshake
//!
//! Before any payload frame crosses a connection, the dialer sends one
//! JSON line — protocol version, manifest digest, wiring digest, its
//! shard id, and what the link is (a directed data link identified by the
//! sending processor and its local port, or the control link) — and the
//! acceptor replies `{"ok":true}` or an error line. A digest mismatch is
//! a structured rejection naming both digests
//! ([`ClusterError::ManifestDigestMismatch`]): two processes reading
//! different manifests, or builds wiring the topology differently, refuse
//! each other at the first byte, with no hang (all reads are bounded and
//! deadlined) and no panic.
//!
//! ## Termination
//!
//! Termination is global, so it moves to a control plane: every shard
//! except 0 dials shard 0 and reports monotone counters
//! `(halted, sent, delivered)`, one status line each time the shard goes
//! quiescent (every owned worker parked) with counters that differ from
//! its last line; it blocks on its hub until then. Halted processors
//! never send again, so once a shard reports all its processors halted
//! its `sent` is final — when every shard is fully halted and the
//! cluster-wide `sent` equals `delivered`, the run is exactly done (no
//! in-flight message can exist) and shard 0 broadcasts the `done`
//! verdict. Shard 0 re-decides whenever a report lands or its own shard
//! goes idle, and each peer reads the verdict with a blocking read,
//! applies it, and closes its side; shard 0 reads every control link to
//! that close, so no stream is torn down under an unread line.
//! Quiescence without full halting (every shard's last line and shard
//! 0's own idle counters frozen over a stall window, timed by a condvar
//! wait) is the distributed analogue of `QuiescentWithoutHalt`; the
//! wall-clock deadline backstops everything else.
//!
//! Link set-up is event-driven too: the acceptor blocks in `accept`
//! (whoever stops it, or the deadline, wakes it by connecting to the
//! shard's own listener), and a dial refused because the peer has not
//! bound yet retries after a pause that starts well under a millisecond.
//!
//! No socket timeout sits on the success path. Read timeouts remain
//! only as failure backstops, to notice a dead peer or a passed
//! deadline, because `SO_RCVTIMEO` is rounded up to scheduler ticks: on
//! a 250 Hz kernel a "1 ms" read timeout waits about 8 ms.

use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use anonring_core::algorithms::driver::{Audited, DriverError, JobMsg, JobProc, JobTopology};
use anonring_sim::json::{json_escape, Value};
use anonring_sim::telemetry::Recording;
use anonring_sim::{PortId, Topology};

use std::sync::atomic::{AtomicBool, Ordering};

use crate::conformance::{compare_totals, reference_run, ConformanceError, Rendered};
use crate::hub::{LinkEnd, ShardHub, Watch};
use crate::manifest::{ClusterManifest, ManifestError};
use crate::runtime::{Link, NetError, NetOptions, Plan, Transport};
use crate::tcp::{FrameWriter, READ_POLL};

/// Version of the cluster link protocol (handshake + control plane).
pub const CLUSTER_PROTOCOL_VERSION: u64 = 1;

/// Longest accepted handshake / control line, in bytes.
const LINE_LIMIT: usize = 4096;

/// Budget for completing one handshake once a connection is up.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// First pause between connect attempts while a peer shard is still
/// binding; it doubles on each refusal up to [`CONNECT_RETRY_MAX`].
/// `thread::sleep` is timer-precise, unlike a socket timeout, so a short
/// first pause costs nothing when shards start together.
const CONNECT_RETRY_MIN: Duration = Duration::from_micros(250);

/// Longest pause between connect attempts.
const CONNECT_RETRY_MAX: Duration = Duration::from_millis(20);

/// How long the cluster-wide counters must sit frozen (equal sent and
/// delivered, not all halted) before the coordinator declares a stall.
const STALL_WINDOW: Duration = Duration::from_millis(300);

/// A failed cluster run (or link establishment).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// The manifest itself was rejected.
    Manifest(ManifestError),
    /// The manifest names an algorithm this build does not know.
    UnknownAlgorithm {
        /// The unresolvable name.
        name: String,
    },
    /// The requested shard id is not in the manifest.
    UnknownShard {
        /// The absent shard id.
        shard: u64,
    },
    /// The algorithm driver rejected the job (bad n/inputs).
    Driver {
        /// The driver's message.
        detail: String,
    },
    /// The peer speaks a different cluster protocol version.
    ProtocolMismatch {
        /// Our protocol version.
        ours: u64,
        /// The peer's protocol version.
        theirs: u64,
    },
    /// The peer read a different manifest — both digests named, so the
    /// operator can diff the two files.
    ManifestDigestMismatch {
        /// Digest of the manifest this process read.
        ours: u64,
        /// Digest the peer presented.
        theirs: u64,
    },
    /// Same manifest, different realised wiring (mismatched builds).
    WiringDigestMismatch {
        /// Our topology's wiring digest.
        ours: u64,
        /// The peer's wiring digest.
        theirs: u64,
    },
    /// A malformed or inconsistent handshake line.
    Handshake {
        /// What was wrong with it.
        detail: String,
    },
    /// The peer refused our handshake; its error line is carried along.
    Rejected {
        /// The peer's rendered rejection.
        detail: String,
    },
    /// A socket-level failure outside the frame codec.
    Io {
        /// The underlying error, rendered.
        detail: String,
    },
    /// The run itself failed after the links were up.
    Net(NetError),
    /// The shard recordings could not be merged (or the merged recording
    /// violates the causal invariants).
    Merge {
        /// The merge verdict, rendered.
        detail: String,
    },
    /// The merged cluster run fails the conformance oracle: the reference
    /// simulation failed (the job itself is broken), or the run disagrees
    /// with it on a schedule-independent total.
    Conformance(ConformanceError),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Manifest(e) => write!(f, "{e}"),
            ClusterError::UnknownAlgorithm { name } => {
                write!(f, "unknown algorithm \"{name}\"")
            }
            ClusterError::UnknownShard { shard } => {
                write!(f, "shard {shard} is not in the manifest")
            }
            ClusterError::Driver { detail } => write!(f, "driver rejected the job: {detail}"),
            ClusterError::ProtocolMismatch { ours, theirs } => write!(
                f,
                "cluster protocol mismatch (ours {ours}, theirs {theirs})"
            ),
            ClusterError::ManifestDigestMismatch { ours, theirs } => write!(
                f,
                "manifest digest mismatch (ours {ours:#018x}, theirs {theirs:#018x})"
            ),
            ClusterError::WiringDigestMismatch { ours, theirs } => write!(
                f,
                "wiring digest mismatch (ours {ours:#018x}, theirs {theirs:#018x})"
            ),
            ClusterError::Handshake { detail } => write!(f, "handshake failed: {detail}"),
            ClusterError::Rejected { detail } => write!(f, "peer rejected handshake: {detail}"),
            ClusterError::Io { detail } => write!(f, "cluster I/O error: {detail}"),
            ClusterError::Net(e) => write!(f, "{e}"),
            ClusterError::Merge { detail } => write!(f, "{detail}"),
            ClusterError::Conformance(e) => write!(f, "cluster run: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<ManifestError> for ClusterError {
    fn from(e: ManifestError) -> ClusterError {
        ClusterError::Manifest(e)
    }
}

impl From<NetError> for ClusterError {
    fn from(e: NetError) -> ClusterError {
        ClusterError::Net(e)
    }
}

fn io_err(what: &str, e: impl std::fmt::Display) -> ClusterError {
    ClusterError::Io {
        detail: format!("{what}: {e}"),
    }
}

/// What one cluster connection is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkKind {
    /// A directed data link: frames sent by global processor `from` out
    /// of its local port `port` (the acceptor resolves the receiving
    /// processor and arrival port from its own wiring — which the wiring
    /// digest guarantees is the same wiring).
    Data {
        /// The sending processor (global index).
        from: usize,
        /// The sender's local port index.
        port: u16,
    },
    /// The control link carrying counter reports and the final verdict.
    Ctrl,
}

/// The one JSON line a dialer sends before any payload frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Handshake {
    /// [`CLUSTER_PROTOCOL_VERSION`] of the dialing build.
    pub protocol: u64,
    /// [`ClusterManifest::digest`] of the manifest the dialer read.
    pub manifest_digest: u64,
    /// `Topology::wiring_digest` of the topology the dialer realised.
    pub wiring: u64,
    /// The dialing shard.
    pub shard: u64,
    /// What the connection will carry.
    pub link: LinkKind,
}

impl Handshake {
    /// Renders the handshake as one JSON line (newline included). Digests
    /// travel as fixed-width hex strings so the error path can echo them
    /// exactly as transmitted.
    #[must_use]
    pub fn render(&self) -> String {
        let link = match self.link {
            LinkKind::Data { from, port } => {
                format!("\"link\":\"data\",\"from\":{from},\"port\":{port}")
            }
            LinkKind::Ctrl => "\"link\":\"ctrl\"".to_string(),
        };
        format!(
            "{{\"proto\":{},\"manifest\":\"{:016x}\",\"wiring\":\"{:016x}\",\"shard\":{},{link}}}\n",
            self.protocol, self.manifest_digest, self.wiring, self.shard,
        )
    }

    /// Parses a received handshake line.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Handshake`] when the line is not a handshake.
    pub fn parse(line: &str) -> Result<Handshake, ClusterError> {
        let bad = |detail: &str| ClusterError::Handshake {
            detail: detail.to_string(),
        };
        let value = Value::parse(line).map_err(|detail| ClusterError::Handshake { detail })?;
        let digest = |name: &str| -> Result<u64, ClusterError> {
            let hex = value
                .get(name)
                .and_then(Value::as_str)
                .ok_or_else(|| bad(&format!("missing \"{name}\" digest")))?;
            u64::from_str_radix(hex, 16).map_err(|_| bad(&format!("bad \"{name}\" digest")))
        };
        let num = |name: &str| -> Result<u64, ClusterError> {
            value
                .get(name)
                .and_then(Value::as_u64)
                .ok_or_else(|| bad(&format!("missing \"{name}\"")))
        };
        let link = match value.get("link").and_then(Value::as_str) {
            Some("ctrl") => LinkKind::Ctrl,
            Some("data") => LinkKind::Data {
                from: usize::try_from(num("from")?).map_err(|_| bad("\"from\" out of range"))?,
                port: u16::try_from(num("port")?).map_err(|_| bad("\"port\" out of range"))?,
            },
            _ => return Err(bad("missing or unknown \"link\"")),
        };
        Ok(Handshake {
            protocol: num("proto")?,
            manifest_digest: digest("manifest")?,
            wiring: digest("wiring")?,
            shard: num("shard")?,
            link,
        })
    }

    /// Checks a peer's handshake against our own view of the run.
    ///
    /// # Errors
    ///
    /// The digest/protocol mismatch variants of [`ClusterError`], each
    /// naming both sides' values.
    pub fn verify(&self, manifest_digest: u64, wiring: u64) -> Result<(), ClusterError> {
        if self.protocol != CLUSTER_PROTOCOL_VERSION {
            return Err(ClusterError::ProtocolMismatch {
                ours: CLUSTER_PROTOCOL_VERSION,
                theirs: self.protocol,
            });
        }
        if self.manifest_digest != manifest_digest {
            return Err(ClusterError::ManifestDigestMismatch {
                ours: manifest_digest,
                theirs: self.manifest_digest,
            });
        }
        if self.wiring != wiring {
            return Err(ClusterError::WiringDigestMismatch {
                ours: wiring,
                theirs: self.wiring,
            });
        }
        Ok(())
    }
}

/// Accumulates bytes from a read-timeout socket and yields complete
/// lines; every read is bounded by [`LINE_LIMIT`] so a silent or hostile
/// peer can neither hang nor balloon us.
struct LineReader {
    buf: Vec<u8>,
}

impl LineReader {
    fn new() -> LineReader {
        LineReader { buf: Vec::new() }
    }

    /// One poll: a complete line if available, `None` on read timeout.
    fn poll(&mut self, stream: &mut TcpStream) -> Result<Option<String>, String> {
        use std::io::Read;
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let mut line: Vec<u8> = self.buf.drain(..=pos).collect();
                line.pop();
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return String::from_utf8(line)
                    .map(Some)
                    .map_err(|_| "non-UTF-8 line".to_string());
            }
            if self.buf.len() > LINE_LIMIT {
                return Err(format!("line exceeds {LINE_LIMIT} bytes"));
            }
            let mut chunk = [0u8; 512];
            match stream.read(&mut chunk) {
                Ok(0) => return Err("connection closed".to_string()),
                Ok(k) => self.buf.extend_from_slice(&chunk[..k]),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(None)
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read failed: {e}")),
            }
        }
    }

    /// Blocks (in poll-sized steps) until a full line or `deadline`.
    fn read_deadline(
        &mut self,
        stream: &mut TcpStream,
        deadline: Instant,
    ) -> Result<String, String> {
        loop {
            if let Some(line) = self.poll(stream)? {
                return Ok(line);
            }
            if Instant::now() >= deadline {
                return Err("timed out waiting for a line".to_string());
            }
        }
    }
}

/// Writes the accept-side handshake reply.
fn reply(stream: &mut TcpStream, result: &Result<(), ClusterError>) {
    let line = match result {
        Ok(()) => "{\"ok\":true}\n".to_string(),
        Err(e) => format!(
            "{{\"ok\":false,\"error\":\"{}\"}}\n",
            json_escape(&e.to_string())
        ),
    };
    // The connection is torn down right after a rejection; a failed
    // reply write cannot make that outcome worse.
    let _ = stream.write_all(line.as_bytes());
}

/// A connection the acceptor classified and handshook.
enum Accepted {
    Data {
        stream: TcpStream,
        to: usize,
        arrival: PortId,
    },
    Ctrl {
        shard: u64,
        stream: TcpStream,
    },
}

/// The latest counter report of one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Status {
    halted: usize,
    sent: u64,
    delivered: u64,
}

fn status_line(shard: u64, status: Status) -> String {
    format!(
        "{{\"shard\":{},\"halted\":{},\"sent\":{},\"delivered\":{}}}\n",
        shard, status.halted, status.sent, status.delivered
    )
}

fn parse_status(line: &str) -> Option<Status> {
    let value = Value::parse(line).ok()?;
    Some(Status {
        halted: usize::try_from(value.get("halted")?.as_u64()?).ok()?,
        sent: value.get("sent")?.as_u64()?,
        delivered: value.get("delivered")?.as_u64()?,
    })
}

/// The successful outcome of one shard's run: local outputs, local cost
/// totals, and the per-shard recording [`merge`] interleaves.
///
/// [`merge`]: anonring_sim::telemetry::merge::merge
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// This shard's id.
    pub shard: u64,
    /// Cluster size (number of shards).
    pub shards: u64,
    /// First owned processor (global index).
    pub start: usize,
    /// Debug-rendered outputs of the owned processors, in global order.
    pub outputs: Vec<String>,
    /// Messages routed by this shard (each send is metered exactly once,
    /// at its sender's shard).
    pub messages: u64,
    /// Bits routed by this shard.
    pub bits: u64,
    /// Deliveries performed at this shard (drops included).
    pub deliveries: u64,
    /// Deliveries to already-halted local processors.
    pub dropped: u64,
    /// High-water mark of locally routed-but-undelivered sends.
    pub peak_in_flight: u64,
    /// Full-inbox waits observed locally.
    pub backpressure_waits: u64,
    /// The shard's v2 recording (`"shard"`/`"shards"` meta set).
    pub recording: Recording,
}

/// The error both link-establishment sides return when the other side
/// failed first and raised the stop flag.
fn aborted() -> ClusterError {
    ClusterError::Io {
        detail: "link establishment aborted".to_string(),
    }
}

/// Establishes one outbound connection to `peer`'s `addr`: dial
/// (retrying with backoff while the peer is still binding), send the
/// handshake, await the acceptance line.
fn dial(
    peer: u64,
    addr: &str,
    handshake: &Handshake,
    deadline: Instant,
    stop: &AtomicBool,
) -> Result<TcpStream, ClusterError> {
    let mut pause = CONNECT_RETRY_MIN;
    let mut stream = loop {
        if stop.load(Ordering::Relaxed) {
            return Err(aborted());
        }
        match TcpStream::connect(addr) {
            Ok(stream) => break stream,
            Err(e) => {
                if Instant::now() + pause >= deadline {
                    return Err(io_err(
                        &format!("connect shard {peer} at {addr} ({:?})", handshake.link),
                        e,
                    ));
                }
                std::thread::sleep(pause);
                pause = (pause * 2).min(CONNECT_RETRY_MAX);
            }
        }
    };
    stream
        .set_nodelay(true)
        .map_err(|e| io_err("set nodelay", e))?;
    stream
        .set_read_timeout(Some(READ_POLL))
        .map_err(|e| io_err("set read timeout", e))?;
    stream
        .write_all(handshake.render().as_bytes())
        .map_err(|e| io_err("send handshake", e))?;
    let hs_deadline = deadline.min(Instant::now() + HANDSHAKE_TIMEOUT);
    let line = LineReader::new()
        .read_deadline(&mut stream, hs_deadline)
        .map_err(|detail| ClusterError::Handshake { detail })?;
    let value = Value::parse(&line).map_err(|detail| ClusterError::Handshake { detail })?;
    match value.get("ok") {
        Some(Value::Bool(true)) => Ok(stream),
        _ => Err(ClusterError::Rejected {
            detail: value
                .get("error")
                .and_then(Value::as_str)
                .unwrap_or("peer sent no error")
                .to_string(),
        }),
    }
}

/// Accept-side handshake of one freshly accepted connection.
fn accept_link(
    mut stream: TcpStream,
    manifest: &ClusterManifest,
    topology: &JobTopology,
    shard_id: u64,
    manifest_digest: u64,
    wiring: u64,
    deadline: Instant,
) -> Result<Accepted, ClusterError> {
    stream
        .set_read_timeout(Some(READ_POLL))
        .map_err(|e| io_err("set read timeout", e))?;
    let hs_deadline = deadline.min(Instant::now() + HANDSHAKE_TIMEOUT);
    let line = LineReader::new()
        .read_deadline(&mut stream, hs_deadline)
        .map_err(|detail| ClusterError::Handshake { detail })?;
    let handshake = match Handshake::parse(&line) {
        Ok(handshake) => handshake,
        Err(e) => {
            reply(&mut stream, &Err(e.clone()));
            return Err(e);
        }
    };
    let checked = handshake.verify(manifest_digest, wiring).and_then(|()| {
        let local = manifest
            .local_range(shard_id)
            .ok_or(ClusterError::UnknownShard { shard: shard_id })?;
        match handshake.link {
            LinkKind::Ctrl if shard_id == 0 && handshake.shard != 0 => Ok(None),
            LinkKind::Ctrl => Err(ClusterError::Handshake {
                detail: format!("ctrl link offered to shard {shard_id}"),
            }),
            LinkKind::Data { from, port } => {
                if manifest.owner_of(from) != Some(handshake.shard) {
                    return Err(ClusterError::Handshake {
                        detail: format!("shard {} does not own sender {from}", handshake.shard),
                    });
                }
                if from >= manifest.n || usize::from(port) >= topology.ports(from) {
                    return Err(ClusterError::Handshake {
                        detail: format!("no port {port} at processor {from}"),
                    });
                }
                // anonlint: allow(anonymity-breach) -- substrate wiring: the acceptor realises the shared topology, exactly like the hub
                let (to, arrival) = topology.neighbor_port(from, PortId::new(port));
                if !local.contains(&to) {
                    return Err(ClusterError::Handshake {
                        detail: format!("link from {from} lands at {to}, not on shard {shard_id}"),
                    });
                }
                Ok(Some((to, arrival)))
            }
        }
    });
    match checked {
        Ok(Some((to, arrival))) => {
            reply(&mut stream, &Ok(()));
            Ok(Accepted::Data {
                stream,
                to,
                arrival,
            })
        }
        Ok(None) => {
            reply(&mut stream, &Ok(()));
            Ok(Accepted::Ctrl {
                shard: handshake.shard,
                stream,
            })
        }
        Err(e) => {
            reply(&mut stream, &Err(e.clone()));
            Err(e)
        }
    }
}

/// The latest counter report of each non-coordinator shard, indexed by
/// control-link slot; filled by [`collect_status`], read by
/// [`coordinate`].
type Board = Mutex<Vec<Option<Status>>>;

/// Shard 0's side of one control link: records every status report on
/// the board and nudges the hub so [`coordinate`] re-decides. After the
/// verdict it keeps reading until the peer closes, so the coordinator
/// never tears the stream down under an unread line (which would reset
/// it). A peer that closes before the verdict cancels the run.
fn collect_status(
    hub: &ShardHub,
    board: &Board,
    slot: usize,
    mut stream: TcpStream,
    deadline: Instant,
) {
    let mut reader = LineReader::new();
    loop {
        match reader.poll(&mut stream) {
            Ok(Some(line)) => {
                if let Some(status) = parse_status(&line) {
                    board.lock().expect("status board poisoned")[slot] = Some(status);
                    hub.nudge();
                }
            }
            // A read timeout is only the dead-peer backstop.
            Ok(None) if Instant::now() >= deadline => return,
            Ok(None) => {}
            // The verdict is applied before it is sent, so an EOF after
            // it is the normal end.
            Err(_) => {
                if !hub.is_over() {
                    hub.cancel();
                }
                return;
            }
        }
    }
}

/// Shard 0's termination decision: wakes whenever a status report lands
/// or its own shard goes idle, decides the verdict, applies it locally,
/// then sends it on every control link.
fn coordinate(
    hub: &ShardHub,
    manifest: &ClusterManifest,
    peers: &[u64],
    writers: &mut [TcpStream],
    board: &Board,
    deadline: Instant,
) {
    let n = manifest.n;
    let count_of = |shard: u64| manifest.local_range(shard).map_or(0, |r| r.len());
    let mut seen: Option<Watch> = None;
    // The snapshot the board and our own shard froze at, since when, and
    // whether it is a stall (balanced, not all halted, our shard idle)
    // once it has held for `STALL_WINDOW`.
    let mut frozen: Option<(Instant, Vec<Option<Status>>, Watch, bool)> = None;
    let verdict = loop {
        let wake = match &frozen {
            Some((since, _, _, true)) => deadline.min(*since + STALL_WINDOW),
            _ => deadline,
        };
        let watch = hub.watch(seen, wake);
        seen = Some(watch);
        // Something else ended the run locally (fault, broken control
        // link) or the deadline passed; propagate the abort.
        if watch.over || Instant::now() >= deadline {
            break "cancelled";
        }
        let latest = board.lock().expect("status board poisoned").clone();
        let (halted, sent, delivered) = watch.counters();
        if latest.iter().all(Option::is_some) {
            let mut all_halted = halted == count_of(0);
            let mut total_halted = halted;
            let mut total_sent = sent;
            let mut total_delivered = delivered;
            for (status, &shard) in latest.iter().zip(peers) {
                let status = status.expect("all reported");
                all_halted &= status.halted == count_of(shard);
                total_halted += status.halted;
                total_sent += status.sent;
                total_delivered += status.delivered;
            }
            if all_halted && total_halted == n && total_sent == total_delivered {
                break "done";
            }
            // Stall: board and own shard frozen, sends all delivered, not
            // all halted. Nudges are news, not state, so they do not count.
            let own = Watch { nudges: 0, ..watch };
            match &frozen {
                Some((since, seen_latest, seen_own, stallable))
                    if *seen_latest == latest && *seen_own == own =>
                {
                    if *stallable && since.elapsed() >= STALL_WINDOW {
                        break "stalled";
                    }
                }
                _ => {
                    let stallable = watch.idle && total_sent == total_delivered && total_halted < n;
                    frozen = Some((Instant::now(), latest, own, stallable));
                }
            }
        }
    };
    // Applied before it is sent, so a peer closing its control link
    // right after reading the verdict is never taken for a failure.
    match verdict {
        "done" => hub.finish(false),
        "stalled" => hub.finish(true),
        _ => hub.cancel(),
    }
    let line = format!("{{\"verdict\":\"{verdict}\"}}\n");
    for stream in writers {
        let _ = stream.write_all(line.as_bytes());
    }
}

/// A non-coordinator shard's reporting loop: each time the shard goes
/// idle (every owned worker parked) with counters that differ from the
/// last line it wrote, it sends a status line to shard 0, until the run
/// is over. A busy shard stays silent: its counters are about to move.
fn report_to_coordinator(hub: &ShardHub, shard_id: u64, mut stream: TcpStream, deadline: Instant) {
    let mut seen: Option<Watch> = None;
    let mut written: Option<(usize, u64, u64)> = None;
    loop {
        let watch = hub.watch(seen, deadline);
        if watch.over || Instant::now() >= deadline {
            return;
        }
        seen = Some(watch);
        if !watch.idle || written == Some(watch.counters()) {
            continue;
        }
        let (halted, sent, delivered) = watch.counters();
        let line = status_line(
            shard_id,
            Status {
                halted,
                sent,
                delivered,
            },
        );
        if stream.write_all(line.as_bytes()).is_err() {
            // After the verdict our own shutdown fails the write.
            if !hub.is_over() {
                hub.cancel();
            }
            return;
        }
        written = Some(watch.counters());
    }
}

/// A non-coordinator shard's control reader: blocks for shard 0's
/// verdict, applies it, and closes its sending side, which tells the
/// coordinator the verdict landed.
fn await_verdict(hub: &ShardHub, mut stream: TcpStream) {
    let mut reader = LineReader::new();
    loop {
        match reader.poll(&mut stream) {
            Ok(Some(line)) => {
                match Value::parse(&line)
                    .ok()
                    .as_ref()
                    .and_then(|v| v.get("verdict").and_then(Value::as_str).map(str::to_string))
                {
                    Some(v) if v == "done" => hub.finish(false),
                    Some(v) if v == "stalled" => hub.finish(true),
                    _ => hub.cancel(),
                }
                let _ = stream.shutdown(Shutdown::Write);
                return;
            }
            // A read timeout is only the backstop for a run that ended
            // here first (fault or deadline).
            Ok(None) if hub.is_over() => return,
            Ok(None) => {}
            Err(_) => {
                hub.cancel();
                return;
            }
        }
    }
}

/// The manifest's job, resolved through the algorithm driver: its
/// topology and its processes, in global processor order.
///
/// # Errors
///
/// [`ClusterError::UnknownAlgorithm`] for a name this build does not
/// know, [`ClusterError::Driver`] for inputs that do not fit the job.
fn resolve_job(manifest: &ClusterManifest) -> Result<(JobTopology, Vec<JobProc>), ClusterError> {
    let algorithm =
        Audited::from_name(&manifest.algorithm).ok_or_else(|| ClusterError::UnknownAlgorithm {
            name: manifest.algorithm.clone(),
        })?;
    let n = manifest.n;
    if manifest.inputs.len() != n {
        return Err(ClusterError::Driver {
            detail: format!(
                "manifest carries {} inputs for n = {n}; fill defaults before launch",
                manifest.inputs.len()
            ),
        });
    }
    let driver_err = |e: DriverError| ClusterError::Driver {
        detail: e.to_string(),
    };
    let topology = algorithm
        .topology(n, &manifest.inputs)
        .map_err(driver_err)?;
    let procs = algorithm.procs(n, &manifest.inputs).map_err(driver_err)?;
    Ok((topology, procs))
}

/// Runs one shard of a cluster job to completion: realises the local
/// processors, establishes every cross-shard link (dialing outbound,
/// accepting inbound, handshaking both ways), participates in the
/// control plane, and returns the shard's outputs, cost totals and
/// recording.
///
/// The manifest must carry explicit per-processor inputs (`ringctl`
/// fills driver defaults in before writing the file).
///
/// # Errors
///
/// See [`ClusterError`]. Digest mismatches surface before any payload
/// frame; run-level failures (timeout, stall, worker panic) arrive as
/// [`ClusterError::Net`].
pub fn run_shard(manifest: &ClusterManifest, shard_id: u64) -> Result<ShardReport, ClusterError> {
    let spec = manifest
        .shard(shard_id)
        .ok_or(ClusterError::UnknownShard { shard: shard_id })?
        .clone();
    let (topology, procs) = resolve_job(manifest)?;
    let n = manifest.n;
    let local: Range<usize> = manifest
        .local_range(shard_id)
        .ok_or(ClusterError::UnknownShard { shard: shard_id })?;
    let shards = manifest.shards.len() as u64;
    let manifest_digest = manifest.digest();
    // anonlint: allow(anonymity-breach) -- substrate wiring: digesting the manifest-shared topology for the handshake; algorithms never see it
    let wiring = topology.wiring_digest();
    let options = NetOptions {
        capacity: manifest.capacity,
        jitter_seed: manifest.seed,
        max_delay_us: manifest.max_delay_us,
        transport: Transport::TcpLoopback,
        timeout: Duration::from_millis(manifest.timeout_ms),
    };
    let mut plan = Plan::new(
        &topology,
        procs.len(),
        ShardHub::sharded(&topology, shard_id, local.len()),
        local.clone(),
        &options,
    )?;
    let deadline = plan.deadline();

    // Inbound data links: every remote directed link landing on one of
    // our processors dials us exactly once.
    let mut expected_data = 0usize;
    for i in (0..n).filter(|i| !local.contains(i)) {
        for p in 0..topology.ports(i) {
            // anonlint: allow(anonymity-breach) -- substrate wiring: counting the manifest-shared wiring's inbound cut, not peeking for an algorithm
            let (to, _) = topology.neighbor_port(i, PortId::new(p as u16));
            if local.contains(&to) {
                expected_data += 1;
            }
        }
    }
    let expected_ctrl = if shard_id == 0 {
        usize::try_from(shards).unwrap_or(1) - 1
    } else {
        0
    };

    let listener =
        TcpListener::bind(&spec.addr).map_err(|e| io_err(&format!("bind {}", spec.addr), e))?;
    let own_addr: SocketAddr = listener
        .local_addr()
        .map_err(|e| io_err("read listener address", e))?;

    // Raised by whichever side of link establishment fails first, so the
    // other side stops promptly instead of riding out the deadline.
    let stop = AtomicBool::new(false);
    // The acceptor blocks in `accept`; raising the flag alone would not
    // reach it, so the raiser also connects to our own listener.
    let halt_links = || {
        stop.store(true, Ordering::Relaxed);
        let _ = TcpStream::connect(own_addr);
    };
    let (links_of, ctrl_stream, accepted) = std::thread::scope(|scope| {
        let stop = &stop;
        let plan = &plan;
        let topology = &topology;
        // Acceptor: collect and handshake every expected inbound
        // connection while we dial outbound in parallel below.
        let (accept_done, accept_finished) = mpsc::channel::<()>();
        let acceptor = scope.spawn(move || -> Result<Vec<Accepted>, ClusterError> {
            let run = || -> Result<Vec<Accepted>, ClusterError> {
                let mut accepted = Vec::with_capacity(expected_data + expected_ctrl);
                let mut data = 0usize;
                let mut ctrl = 0usize;
                while data < expected_data || ctrl < expected_ctrl {
                    let (stream, _) = listener.accept().map_err(|e| io_err("accept", e))?;
                    if stop.load(Ordering::Relaxed) {
                        if Instant::now() < deadline {
                            return Err(aborted());
                        }
                        return Err(ClusterError::Io {
                            detail: format!(
                                "deadline before all links arrived ({data}/{expected_data} data, {ctrl}/{expected_ctrl} ctrl)"
                            ),
                        });
                    }
                    let link = accept_link(
                        stream,
                        manifest,
                        topology,
                        shard_id,
                        manifest_digest,
                        wiring,
                        deadline,
                    )?;
                    match &link {
                        Accepted::Data { .. } => data += 1,
                        Accepted::Ctrl { .. } => ctrl += 1,
                    }
                    accepted.push(link);
                }
                Ok(accepted)
            };
            let result = run();
            if result.is_err() {
                stop.store(true, Ordering::Relaxed);
            }
            let _ = accept_done.send(());
            result
        });

        // Dial every outbound cross-shard link and (if we are not the
        // coordinator) the control link.
        let dialed = (|| -> Result<_, ClusterError> {
            let addr_of = |shard: u64| -> Result<&str, ClusterError> {
                manifest
                    .shard(shard)
                    .map(|spec| spec.addr.as_str())
                    .ok_or(ClusterError::UnknownShard { shard })
            };
            let handshake = |link: LinkKind| Handshake {
                protocol: CLUSTER_PROTOCOL_VERSION,
                manifest_digest,
                wiring,
                shard: shard_id,
                link,
            };
            let mut links_of: Vec<Vec<Link<JobMsg>>> = Vec::with_capacity(local.len());
            for i in local.clone() {
                let ends = plan.ends_of(i);
                let mut links = Vec::with_capacity(ends.len());
                for (k, &end) in ends.iter().enumerate() {
                    if local.contains(&end.to) {
                        links.push(plan.local(end));
                    } else {
                        let peer = manifest.owner_of(end.to).ok_or(ClusterError::Handshake {
                            detail: format!("processor {} owned by no shard", end.to),
                        })?;
                        let link = handshake(LinkKind::Data {
                            from: i,
                            port: k as u16,
                        });
                        let stream = dial(peer, addr_of(peer)?, &link, deadline, stop)?;
                        links.push(Link::Stream(FrameWriter::over(stream)));
                    }
                }
                links_of.push(links);
            }
            let ctrl_stream = if shard_id != 0 {
                let link = handshake(LinkKind::Ctrl);
                Some(dial(0, addr_of(0)?, &link, deadline, stop)?)
            } else {
                None
            };
            Ok((links_of, ctrl_stream))
        })();
        if dialed.is_err() {
            halt_links();
        } else if let Err(mpsc::RecvTimeoutError::Timeout) =
            accept_finished.recv_timeout(deadline.saturating_duration_since(Instant::now()))
        {
            halt_links();
        }

        let accepted = acceptor.join().map_err(|_| ClusterError::Io {
            detail: "acceptor thread panicked".to_string(),
        })?;
        // Whichever side failed *first* set the stop flag and holds the
        // structured cause; the other side aborted with the generic Io
        // error. Surface the structured one.
        match (dialed, accepted) {
            (Ok((links_of, ctrl_stream)), Ok(accepted)) => Ok((links_of, ctrl_stream, accepted)),
            (Err(d), Err(a)) => Err(if d == aborted() { a } else { d }),
            (Err(d), Ok(_)) => Err(d),
            (Ok(_), Err(a)) => Err(a),
        }
    })?;

    // Links are up cluster-wide (for our cut). Split off the control
    // streams' second handles before any thread starts, so a failure here
    // leaves nothing running.
    let mut peers = Vec::new();
    let mut ctrl_readers = Vec::new();
    let mut writers = Vec::new();
    for link in accepted {
        match link {
            Accepted::Data {
                stream,
                to,
                arrival,
            } => plan.pump(stream, LinkEnd { to, arrival }),
            Accepted::Ctrl { shard, stream } => {
                // The verdict must not wait behind Nagle.
                stream
                    .set_nodelay(true)
                    .map_err(|e| io_err("set nodelay", e))?;
                writers.push(
                    stream
                        .try_clone()
                        .map_err(|e| io_err("clone ctrl stream", e))?,
                );
                peers.push(shard);
                ctrl_readers.push(stream);
            }
        }
    }
    if let Some(stream) = &ctrl_stream {
        ctrl_readers.push(
            stream
                .try_clone()
                .map_err(|e| io_err("clone ctrl stream", e))?,
        );
    }
    let owned = procs
        .into_iter()
        .enumerate()
        .filter(|(i, _)| local.contains(i));
    for ((i, proc), links) in owned.zip(links_of) {
        plan.add(i, proc, links);
    }

    // The control-link readers run beside the workers; this thread runs
    // our side of the control plane until the verdict.
    let board: Arc<Board> = Arc::new(Mutex::new(vec![None; expected_ctrl]));
    let report = plan.launch(|hub, tasks| {
        for (slot, stream) in ctrl_readers.into_iter().enumerate() {
            let (hub, board) = (Arc::clone(hub), Arc::clone(&board));
            if shard_id == 0 {
                tasks.spawn(move || collect_status(&hub, &board, slot, stream, deadline));
            } else {
                tasks.spawn(move || await_verdict(&hub, stream));
            }
        }
        match ctrl_stream {
            Some(stream) => report_to_coordinator(hub, shard_id, stream, deadline),
            None => coordinate(hub, manifest, &peers, &mut writers, &board, deadline),
        }
    })?;

    let recording = report.recording(
        n,
        format!("cluster {} {} n={n}", manifest.label, manifest.algorithm),
        Some((shard_id, shards)),
    );
    Ok(ShardReport {
        shard: shard_id,
        shards,
        start: local.start,
        outputs: report
            .outputs()
            .iter()
            .map(|out| format!("{out:?}"))
            .collect(),
        messages: report.messages,
        bits: report.bits,
        deliveries: report.deliveries,
        dropped: report.dropped,
        peak_in_flight: report.peak_in_flight,
        backpressure_waits: report.backpressure_waits,
        recording,
    })
}

/// A certified cluster run: the canonical merged recording plus the
/// cluster-side totals the simulator agreed with.
#[derive(Debug, Clone)]
pub struct ClusterCertified {
    /// The merged, causally-checked recording (no shard meta).
    pub merged: Recording,
    /// Debug-rendered outputs `O(1), …, O(n)` in global processor order.
    pub outputs: Vec<String>,
    /// Cluster-wide total messages.
    pub messages: u64,
    /// Cluster-wide total bits.
    pub bits: u64,
}

/// Certifies a completed cluster run against the async simulator: merges
/// the shard recordings into canonical order, checks the S21 causal
/// invariants on the merged events, reassembles the global
/// outputs, and demands the schedule-independent agreement
/// (`outputs`/`messages`/`bits`) the single-process conformance oracle
/// demands.
///
/// # Errors
///
/// [`ClusterError::Merge`] when the recordings do not merge (a missing
/// shard is named), [`ClusterError::Conformance`] when the reference run
/// fails or a quantity disagrees (the first one is named).
pub fn certify_cluster(
    manifest: &ClusterManifest,
    reports: &[ShardReport],
) -> Result<ClusterCertified, ClusterError> {
    use anonring_sim::telemetry::merge::merge;

    let shards = manifest.shards.len();
    let mut ordered: Vec<Option<&ShardReport>> = vec![None; shards];
    for report in reports {
        match usize::try_from(report.shard).ok().filter(|&k| k < shards) {
            Some(k) => ordered[k] = Some(report),
            None => {
                return Err(ClusterError::UnknownShard {
                    shard: report.shard,
                })
            }
        }
    }
    let recordings: Vec<&Recording> = ordered
        .iter()
        .flatten()
        .map(|report| &report.recording)
        .collect();
    let merged = merge(&recordings).map_err(|e| ClusterError::Merge {
        detail: e.to_string(),
    })?;
    // The recorder's causal check enforces the S21 invariants (seq order,
    // parent-before-child, send-before-deliver) on the merged events — the
    // same check `parse_jsonl` runs on what a `tracer merge` writes.
    merged
        .check_causality()
        .map_err(|(event, message)| ClusterError::Merge {
            detail: format!("merged recording fails causal check: event {event}: {message}"),
        })?;
    let mut outputs = Vec::with_capacity(manifest.n);
    let mut messages = 0u64;
    let mut bits = 0u64;
    for report in ordered.iter().flatten() {
        outputs.extend(report.outputs.iter().cloned());
        messages += report.messages;
        bits += report.bits;
    }
    let (topology, procs) = resolve_job(manifest)?;
    let rendered: Vec<Rendered> = outputs.iter().map(|out| Rendered(out)).collect();
    reference_run(&topology, procs)
        .and_then(|sim| compare_totals(&rendered, messages, bits, &sim))
        .map_err(ClusterError::Conformance)?;
    Ok(ClusterCertified {
        merged,
        outputs,
        messages,
        bits,
    })
}

#[cfg(test)]
mod tests {
    use super::{
        collect_status, coordinate, report_to_coordinator, Board, ClusterError, Handshake,
        LinkKind, CLUSTER_PROTOCOL_VERSION, STALL_WINDOW,
    };
    use crate::hub::{Outcome, ShardHub};
    use crate::manifest::{ClusterManifest, ShardSpec, MANIFEST_VERSION};
    use crate::tcp::loopback_pair;
    use anonring_sim::{PortId, RingTopology};
    use std::net::TcpStream;
    use std::sync::Mutex;
    use std::time::{Duration, Instant};

    /// Status lines shard 0 has received: `collect_status` nudges its hub
    /// once per line.
    fn lines(hub: &ShardHub) -> u64 {
        hub.watch(None, Instant::now()).nudges
    }

    /// Waits until shard 0 has received `count` status lines.
    fn await_lines(hub: &ShardHub, count: u64) {
        let give_up = Instant::now() + Duration::from_secs(10);
        while lines(hub) < count {
            assert!(
                Instant::now() < give_up,
                "status line {count} never arrived"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The control plane of a 2-ring split into two one-processor
    /// shards: shard 1 reports to shard 0 over a loopback pair while
    /// `drive` moves shard 1's hub, then shard 0's one worker parks.
    /// Returns shard 0's outcome, the time from that park to the
    /// verdict, and the status lines shard 0 received.
    fn control_plane(
        prepare: impl FnOnce(&ShardHub),
        drive: impl FnOnce(&ShardHub, &ShardHub),
    ) -> (Outcome, Duration, u64) {
        let topology = RingTopology::oriented(2).expect("n >= 2");
        let shard = |id: u64| ShardSpec {
            id,
            addr: "127.0.0.1:0".to_string(),
            start: id as usize,
            count: 1,
        };
        let manifest = ClusterManifest {
            version: MANIFEST_VERSION,
            label: "control".to_string(),
            algorithm: "sync_and".to_string(),
            n: 2,
            inputs: vec![0, 0],
            seed: 0,
            capacity: 1,
            max_delay_us: 0,
            timeout_ms: 30_000,
            shards: vec![shard(0), shard(1)],
        };
        let (coordinator, reporter) = (
            ShardHub::sharded(&topology, 0, 1),
            ShardHub::sharded(&topology, 1, 1),
        );
        prepare(&coordinator);
        let board: Board = Mutex::new(vec![None]);
        let (writer, reader) = loopback_pair().expect("loopback pair");
        let deadline = Instant::now() + Duration::from_secs(30);
        std::thread::scope(|scope| {
            let (coordinator, reporter, board) = (&coordinator, &reporter, &board);
            scope.spawn(move || report_to_coordinator(reporter, 1, writer, deadline));
            scope.spawn(move || collect_status(coordinator, board, 0, reader, deadline));
            let manifest = &manifest;
            scope.spawn(move || {
                let mut writers: [TcpStream; 0] = [];
                coordinate(coordinator, manifest, &[1], &mut writers, board, deadline);
            });
            drive(coordinator, reporter);
            coordinator.enter_wait();
            let parked = Instant::now();
            let outcome = coordinator.await_outcome(deadline);
            let waited = parked.elapsed();
            // Shard 1 applies the verdict; its reporter returns and closes
            // the link, which ends shard 0's collector.
            reporter.finish(outcome.stalled);
            (outcome, waited, lines(coordinator))
        })
    }

    #[test]
    fn parked_shards_with_a_running_processor_are_a_stall() {
        let (outcome, waited, received) = control_plane(
            |_| {},
            |coordinator, reporter| {
                reporter.enter_wait();
                await_lines(coordinator, 1);
                // Two counter changes while shard 1 runs, each given time
                // to be reported: no line yet.
                reporter.exit_wait();
                reporter.halt(1, 0);
                std::thread::sleep(Duration::from_millis(20));
                let sent = reporter.route_send(1, PortId::RIGHT, 1, 1, 1, None, None);
                std::thread::sleep(Duration::from_millis(20));
                reporter.enter_wait();
                await_lines(coordinator, 2);
                coordinator.deliver(1, 0, PortId::LEFT, sent.seq, false);
                // Waking with nothing to deliver changes no counter.
                reporter.exit_wait();
                reporter.enter_wait();
            },
        );
        assert!(outcome.done && outcome.stalled, "{outcome:?}");
        assert_eq!(outcome.halted, 0, "shard 0's processor never halted");
        assert!(waited >= STALL_WINDOW, "stalled after {waited:?}");
        assert!(
            waited < STALL_WINDOW + Duration::from_secs(2),
            "stalled after {waited:?}"
        );
        assert_eq!(received, 2, "one status line per quiescent state");
    }

    #[test]
    fn halted_shards_with_balanced_counts_are_done() {
        let (outcome, waited, received) = control_plane(
            |coordinator| {
                coordinator.route_send(0, PortId::RIGHT, 1, 1, 1, None, None);
                coordinator.halt(0, 0);
            },
            |coordinator, reporter| {
                let seq = 0; // shard 0's first send
                reporter.deliver(1, 1, PortId::LEFT, seq, false);
                reporter.halt(1, 1);
                reporter.enter_wait();
                await_lines(coordinator, 1);
            },
        );
        assert!(outcome.done && !outcome.stalled, "{outcome:?}");
        assert!(waited < STALL_WINDOW, "done took {waited:?}");
        assert_eq!(received, 1, "one status line per quiescent state");
    }

    #[test]
    fn handshake_round_trips() {
        for link in [LinkKind::Ctrl, LinkKind::Data { from: 3, port: 1 }] {
            let hs = Handshake {
                protocol: CLUSTER_PROTOCOL_VERSION,
                manifest_digest: 0xdead_beef_0123_4567,
                wiring: 0x0fed_cba9_8765_4321,
                shard: 2,
                link,
            };
            let parsed = Handshake::parse(hs.render().trim()).expect("round trip");
            assert_eq!(parsed, hs);
        }
    }

    #[test]
    fn digest_mismatch_names_both_digests() {
        let hs = Handshake {
            protocol: CLUSTER_PROTOCOL_VERSION,
            manifest_digest: 0x1111,
            wiring: 0x2222,
            shard: 1,
            link: LinkKind::Ctrl,
        };
        let err = hs.verify(0x3333, 0x2222).expect_err("mismatch");
        match &err {
            ClusterError::ManifestDigestMismatch { ours, theirs } => {
                assert_eq!((*ours, *theirs), (0x3333, 0x1111));
            }
            other => panic!("wrong variant: {other:?}"),
        }
        let rendered = err.to_string();
        assert!(rendered.contains("0x0000000000003333"), "{rendered}");
        assert!(rendered.contains("0x0000000000001111"), "{rendered}");
    }

    #[test]
    fn protocol_and_wiring_checks_fire_in_order() {
        let mut hs = Handshake {
            protocol: CLUSTER_PROTOCOL_VERSION + 1,
            manifest_digest: 1,
            wiring: 2,
            shard: 0,
            link: LinkKind::Ctrl,
        };
        assert!(matches!(
            hs.verify(1, 2),
            Err(ClusterError::ProtocolMismatch { .. })
        ));
        hs.protocol = CLUSTER_PROTOCOL_VERSION;
        assert!(matches!(
            hs.verify(1, 9),
            Err(ClusterError::WiringDigestMismatch { .. })
        ));
        assert!(hs.verify(1, 2).is_ok());
    }

    #[test]
    fn malformed_handshake_lines_are_structured_errors() {
        for line in ["", "{}", "{\"proto\":1}", "not json"] {
            assert!(matches!(
                Handshake::parse(line),
                Err(ClusterError::Handshake { .. })
            ));
        }
    }
}
