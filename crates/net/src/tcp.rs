//! TCP-loopback transport: each directed link is a real socket.
//!
//! The worker loop is identical to the threads transport; only the link
//! realisation changes. For every directed link the runtime opens one
//! loopback TCP connection: the sender's end implements
//! [`SendPort`] by writing length-prefixed frames, and a reader pump on
//! its own pooled thread on the receiver's side decodes frames and feeds
//! them into the receiver's ordinary bounded inbox. TCP preserves byte
//! order, so per-link FIFO — the model's one ordering guarantee — carries
//! over, and everything above the inbox (metering, causal stamps,
//! termination) is unchanged.
//!
//! Frame layout: `[u32 LE length][u64 time][u64 seq][u64 lamport]`
//! `[Option<u64> parent][payload]`, all fields in [`Wire`] encoding. The
//! frame length covers everything after the length word. Wire size is
//! framing, not cost: accounted bits come from `Message::bit_len` at the
//! metering hub, exactly as in the simulators.
//!
//! Backpressure crosses the socket: a full receiver inbox parks the
//! reader thread, the kernel's socket buffers fill, and the sender's
//! `write_all` eventually blocks. Unlike the in-process transport the
//! blocked sender only drains its own inbox between *frames*, so a
//! mutually-blocked cycle needs every kernel buffer on the cycle full —
//! dozens of kilobytes per link, far beyond any audited workload. The
//! run's wall-clock deadline remains the backstop.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use anonring_sim::r#async::AsyncPortProcess;
use anonring_sim::runtime::CausalStamp;
use anonring_sim::{PortId, Topology};

use crate::hub::ShardHub;
use crate::inbox::{Inbox, Parcel, PushOutcome};
use crate::jitter::Jitter;
use crate::pool::Batch;
use crate::runtime::{
    finish, joined, worker, NetError, NetOptions, NetReport, PushError, SendPort,
};
use crate::wire::Wire;

/// How long a parked reader waits before re-checking for shutdown.
///
/// A failure backstop only: a link reader ends on EOF when its writer
/// closes, and no run waits on this timeout to finish. Socket read
/// timeouts (`SO_RCVTIMEO`) are rounded up to scheduler ticks — a "1 ms"
/// timeout waits about 8 ms on a 250 Hz kernel — so they must never sit
/// on a success path.
pub(crate) const READ_POLL: Duration = Duration::from_millis(50);

/// The sending end of one TCP link.
pub(crate) struct TcpPort<M> {
    stream: TcpStream,
    frame: Vec<u8>,
    _msg: std::marker::PhantomData<fn(M)>,
}

impl<M> TcpPort<M> {
    /// Wraps an established (nodelay) writer stream.
    pub(crate) fn over(stream: TcpStream) -> TcpPort<M> {
        TcpPort {
            stream,
            frame: Vec::new(),
            _msg: std::marker::PhantomData,
        }
    }
}

impl<M: Wire> SendPort<M> for TcpPort<M> {
    fn push(
        &mut self,
        parcel: Parcel<M>,
        relieve: &mut dyn FnMut(),
        over: &dyn Fn() -> bool,
    ) -> Result<(), PushError> {
        // Draining our own inbox before a potentially-blocking write keeps
        // the deadlock-breaking discipline of the in-process transport.
        relieve();
        let frame_capacity = self.frame.capacity();
        self.frame.clear();
        parcel.time.encode(&mut self.frame);
        parcel.stamp.seq.encode(&mut self.frame);
        parcel.stamp.lamport.encode(&mut self.frame);
        parcel.stamp.parent.encode(&mut self.frame);
        parcel.msg.encode(&mut self.frame);
        anonring_sim::profile::record_wire_encode(
            self.frame.len() as u64 + 4,
            self.frame.capacity() > frame_capacity,
        );
        let len = u32::try_from(self.frame.len()).map_err(|_| {
            PushError::Io(format!("frame of {} bytes overflows u32", self.frame.len()))
        })?;
        let write = self
            .stream
            .write_all(&len.to_le_bytes())
            .and_then(|()| self.stream.write_all(&self.frame));
        match write {
            Ok(()) => Ok(()),
            // A torn-down peer during shutdown is a quiet stop, not a fault.
            Err(_) if over() => Err(PushError::Stopped),
            Err(e) => Err(PushError::Io(format!("link write failed: {e}"))),
        }
    }
}

/// Reads exactly `buf.len()` bytes, tolerating read timeouts (checking
/// `stop` at each) so shutdown can interrupt a parked reader. Returns
/// `Ok(false)` on a clean EOF at a frame boundary.
pub(crate) fn read_frame_bytes(
    stream: &mut TcpStream,
    buf: &mut [u8],
    at_boundary: bool,
    stop: &dyn Fn() -> bool,
) -> Result<bool, String> {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                if at_boundary && filled == 0 {
                    return Ok(false);
                }
                return Err("link closed mid-frame".to_string());
            }
            Ok(n) => filled += n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if stop() {
                    return Ok(false);
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("link read failed: {e}")),
        }
    }
    Ok(true)
}

/// The receiving end of one TCP link: decodes frames and feeds the
/// receiver's inbox until EOF or shutdown.
pub(crate) fn read_link<M: Wire>(
    mut stream: TcpStream,
    inbox: &Inbox<M>,
    arrival: PortId,
    hub: &ShardHub,
    faults: &Mutex<Vec<String>>,
) {
    let fail = |detail: String| record_fault(faults, hub, detail);
    loop {
        let mut len_bytes = [0u8; 4];
        match read_frame_bytes(&mut stream, &mut len_bytes, true, &|| hub.is_over()) {
            Ok(true) => {}
            Ok(false) => return,
            Err(detail) => return fail(detail),
        }
        let len = u32::from_le_bytes(len_bytes) as usize;
        let mut frame = vec![0u8; len];
        match read_frame_bytes(&mut stream, &mut frame, false, &|| hub.is_over()) {
            Ok(true) => {}
            Ok(false) => return,
            Err(detail) => return fail(detail),
        }
        let mut input = frame.as_slice();
        let parcel = (|| -> Result<Parcel<M>, crate::wire::WireError> {
            let time = u64::decode(&mut input)?;
            let seq = u64::decode(&mut input)?;
            let lamport = u64::decode(&mut input)?;
            let parent = Option::<u64>::decode(&mut input)?;
            let msg = M::decode(&mut input)?;
            Ok(Parcel {
                msg,
                time,
                stamp: CausalStamp {
                    seq,
                    lamport,
                    parent,
                },
            })
        })();
        let mut parcel = match parcel {
            Ok(parcel) => parcel,
            Err(e) => return fail(e.to_string()),
        };
        anonring_sim::profile::record_wire_decode(len as u64 + 4);
        loop {
            match inbox.try_push(arrival, parcel) {
                PushOutcome::Pushed => break,
                PushOutcome::Closed => return,
                PushOutcome::Full(returned) => {
                    parcel = returned;
                    hub.note_backpressure();
                    if hub.is_over() {
                        return;
                    }
                    inbox.wait_space(arrival, Duration::from_micros(200));
                }
            }
        }
    }
}

/// One established loopback link: the writer stream for the sender plus
/// the accepted stream the receiver-side reader thread will drain.
struct LinkPair {
    writer: TcpStream,
    reader: TcpStream,
}

fn connect_pair() -> Result<LinkPair, NetError> {
    fn io_err(what: &'static str) -> impl Fn(std::io::Error) -> NetError {
        move |e| NetError::Io {
            detail: format!("{what}: {e}"),
        }
    }
    let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(io_err("bind loopback"))?;
    let addr = listener.local_addr().map_err(io_err("local addr"))?;
    let writer = TcpStream::connect(addr).map_err(io_err("connect loopback"))?;
    let (reader, _) = listener.accept().map_err(io_err("accept loopback"))?;
    writer.set_nodelay(true).map_err(io_err("set nodelay"))?;
    reader
        .set_read_timeout(Some(READ_POLL))
        .map_err(io_err("set read timeout"))?;
    Ok(LinkPair { writer, reader })
}

/// Runs `procs` with every directed link realised as a loopback TCP
/// connection.
///
/// # Errors
///
/// See [`NetError`]; transport failures surface as [`NetError::Io`].
pub(crate) fn run_tcp<P, T>(
    topology: &T,
    procs: Vec<P>,
    options: &NetOptions,
) -> Result<NetReport<P::Output>, NetError>
where
    P: AsyncPortProcess + Send + 'static,
    P::Msg: Wire + Send + 'static,
    P::Output: Send + 'static,
    T: Topology,
{
    let n = topology.n();
    if procs.len() != n {
        return Err(NetError::LengthMismatch {
            expected: n,
            actual: procs.len(),
        });
    }
    // A zero budget fails before any socket is dialed, mirroring the
    // thread transport: the verdict must not depend on how fast the
    // run would have finished.
    if options.timeout.is_zero() {
        return Err(NetError::Timeout {
            timeout_ms: 0,
            halted: 0,
        });
    }
    let hub = Arc::new(ShardHub::new(topology));
    let inboxes: Vec<Arc<Inbox<P::Msg>>> = (0..n)
        .map(|i| Arc::new(Inbox::new(topology.ports(i), options.capacity)))
        .collect();
    let faults = Arc::new(Mutex::new(Vec::new()));
    let deadline = Instant::now() + options.timeout;

    // Establish every directed link up front; per sender, index k is the
    // link its local port k sends on (left then right on a ring).
    let mut links: Vec<Vec<LinkPair>> = Vec::with_capacity(n);
    for i in 0..n {
        let mut out = Vec::with_capacity(topology.ports(i));
        for _ in 0..topology.ports(i) {
            out.push(connect_pair()?);
        }
        links.push(out);
    }

    let mut workers = Batch::new();
    let mut readers = Batch::new();
    for (i, proc) in procs.into_iter().enumerate() {
        let ends = hub.links_of(i);
        let degree = ends.len();
        let mut writers = Vec::with_capacity(degree);
        for (k, pair) in links[i].iter().enumerate() {
            let (writer, reader) = match (pair.writer.try_clone(), pair.reader.try_clone()) {
                (Ok(w), Ok(r)) => (w, r),
                (Err(e), _) => {
                    record_fault(&faults, &hub, format!("clone writer: {e}"));
                    continue;
                }
                (_, Err(e)) => {
                    record_fault(&faults, &hub, format!("clone reader: {e}"));
                    continue;
                }
            };
            writers.push(TcpPort::over(writer));
            let peer = Arc::clone(&inboxes[ends[k].to]);
            let arrival = ends[k].arrival;
            let (hub, faults) = (Arc::clone(&hub), Arc::clone(&faults));
            readers.spawn(move || read_link(reader, &peer, arrival, &hub, &faults));
        }
        if writers.len() == degree {
            let inbox = Arc::clone(&inboxes[i]);
            let hub = Arc::clone(&hub);
            let jitter = Jitter::new(options.jitter_seed, i as u64, options.max_delay_us);
            workers.spawn(move || worker(i, proc, &hub, &inbox, writers, jitter));
        }
    }
    let outcome = hub.await_outcome(deadline);
    for inbox in &inboxes {
        inbox.close();
    }
    let results = joined(workers);
    // Workers have exited, so their writer streams are dropped and every
    // reader sees EOF or the shutdown flag once the original pairs close
    // the last handles.
    drop(links);
    if readers.join().contains(&None) {
        return Err(NetError::Io {
            detail: "a link reader panicked".to_string(),
        });
    }

    let fault = faults.lock().expect("fault list poisoned").first().cloned();
    if let Some(detail) = fault {
        return Err(NetError::Io { detail });
    }
    finish(hub, outcome, results, options)
}

/// Records a transport fault and aborts the run: a dead link can strand
/// messages forever, so the run must not ride out its full timeout.
fn record_fault(faults: &Mutex<Vec<String>>, hub: &ShardHub, detail: String) {
    faults.lock().expect("fault list poisoned").push(detail);
    hub.cancel();
}
