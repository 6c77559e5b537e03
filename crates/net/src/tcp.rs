//! TCP links: the frame codec on both ends of a socket.
//!
//! A TCP link is one of the link kinds a run's plan can hold (see
//! [`crate::runtime`]): the writing end of a loopback pair under
//! [`crate::Transport::TcpLoopback`], or a stream dialed to another shard
//! in a cluster run. The sender's [`FrameWriter`] writes length-prefixed
//! frames, and a reader pump ([`read_link`]) on its own pooled thread on
//! the receiver's side decodes them and feeds the receiver's ordinary
//! bounded inbox. TCP preserves byte order, so per-link FIFO — the
//! model's one ordering guarantee — carries over, and everything above
//! the inbox (metering, causal stamps, termination) is unchanged.
//!
//! Frame layout: `[u32 LE length][u64 time][u64 seq][u64 lamport]`
//! `[Option<u64> parent][payload]`, all fields in [`Wire`] encoding. The
//! frame length covers everything after the length word, and the payload
//! must end exactly where the frame does. Wire size is framing, not cost:
//! accounted bits come from `Message::bit_len` at the metering hub,
//! exactly as in the simulators.
//!
//! A reader trusts nothing the peer sends: it grows its one frame buffer
//! only by bytes that actually arrived, so a forged length header cannot
//! make it allocate, and a frame that is cut short, fails to decode, or
//! carries bytes past its message ends the run as a transport fault.
//!
//! Backpressure crosses the socket: a full receiver inbox parks the
//! reader thread, the kernel's socket buffers fill, and the sender's
//! `write_all` eventually blocks. Unlike an in-process link the blocked
//! sender only drains its own inbox between *frames*, so a
//! mutually-blocked cycle needs every kernel buffer on the cycle full —
//! dozens of kilobytes per link, far beyond any audited workload. The
//! run's wall-clock deadline remains the backstop.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Mutex;
use std::time::Duration;

use anonring_sim::runtime::CausalStamp;
use anonring_sim::PortId;

use crate::hub::ShardHub;
use crate::inbox::{Inbox, Parcel, PushOutcome};
use crate::runtime::NetError;
use crate::wire::{Wire, WireError};

/// How long a parked reader waits before re-checking for shutdown.
///
/// A failure backstop only: a link reader ends on EOF when its writer
/// closes, and no run waits on this timeout to finish. Socket read
/// timeouts (`SO_RCVTIMEO`) are rounded up to scheduler ticks — a "1 ms"
/// timeout waits about 8 ms on a 250 Hz kernel — so they must never sit
/// on a success path.
pub(crate) const READ_POLL: Duration = Duration::from_millis(50);

/// The sending end of one TCP link.
pub(crate) struct FrameWriter {
    stream: TcpStream,
    frame: Vec<u8>,
}

impl FrameWriter {
    /// Wraps an established (nodelay) writer stream.
    pub(crate) fn over(stream: TcpStream) -> FrameWriter {
        FrameWriter {
            stream,
            frame: Vec::new(),
        }
    }

    /// Encodes `parcel` as one frame and writes it, blocking while the
    /// socket is full.
    pub(crate) fn write<M: Wire>(&mut self, parcel: &Parcel<M>) -> Result<(), String> {
        self.frame.clear();
        parcel.time.encode(&mut self.frame);
        parcel.stamp.seq.encode(&mut self.frame);
        parcel.stamp.lamport.encode(&mut self.frame);
        parcel.stamp.parent.encode(&mut self.frame);
        parcel.msg.encode(&mut self.frame);
        anonring_sim::profile::record_wire_encode(self.frame.len() as u64 + 4);
        let len = u32::try_from(self.frame.len())
            .map_err(|_| format!("frame of {} bytes overflows u32", self.frame.len()))?;
        self.stream
            .write_all(&len.to_le_bytes())
            .and_then(|()| self.stream.write_all(&self.frame))
            .map_err(|e| format!("link write failed: {e}"))
    }
}

/// Appends exactly `len` bytes from `stream` to `buf`, growing it only by
/// bytes that arrived. Read timeouts are tolerated (checking `stop` at
/// each) so shutdown can interrupt a parked reader. Returns `Ok(false)`
/// on shutdown, or on a clean EOF before the first byte when
/// `at_boundary`.
fn read_into(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    len: usize,
    at_boundary: bool,
    stop: &dyn Fn() -> bool,
) -> Result<bool, String> {
    let mut chunk = [0u8; 512];
    let mut filled = 0;
    while filled < len {
        let want = (len - filled).min(chunk.len());
        match stream.read(&mut chunk[..want]) {
            Ok(0) => {
                if at_boundary && filled == 0 {
                    return Ok(false);
                }
                return Err("link closed mid-frame".to_string());
            }
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                filled += n;
            }
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

/// Decodes one frame body; the message must end where the frame does.
fn decode_frame<M: Wire>(mut input: &[u8]) -> Result<Parcel<M>, String> {
    let parcel = (|| -> Result<Parcel<M>, WireError> {
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
    })()
    .map_err(|e| e.to_string())?;
    if !input.is_empty() {
        return Err(format!("frame carries {} trailing bytes", input.len()));
    }
    Ok(parcel)
}

/// The receiving end of one TCP link: decodes frames and feeds the
/// receiver's inbox until EOF or shutdown. A broken link records a fault
/// and cancels the run.
pub(crate) fn read_link<M: Wire>(
    mut stream: TcpStream,
    inbox: &Inbox<M>,
    arrival: PortId,
    hub: &ShardHub,
    faults: &Mutex<Vec<String>>,
) {
    let fail = |detail: String| record_fault(faults, hub, detail);
    let over = || hub.is_over();
    let mut frame = Vec::new();
    loop {
        frame.clear();
        match read_into(&mut stream, &mut frame, 4, true, &over) {
            Ok(true) => {}
            Ok(false) => return,
            Err(detail) => return fail(detail),
        }
        let len = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]) as usize;
        frame.clear();
        match read_into(&mut stream, &mut frame, len, false, &over) {
            Ok(true) => {}
            Ok(false) => return,
            Err(detail) => return fail(detail),
        }
        let mut parcel = match decode_frame::<M>(&frame) {
            Ok(parcel) => parcel,
            Err(detail) => return fail(detail),
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

/// One loopback link: the (nodelay) writer stream for the sender and the
/// accepted stream the receiver's reader pump drains.
pub(crate) fn loopback_pair() -> Result<(TcpStream, TcpStream), NetError> {
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
    Ok((writer, reader))
}

/// Records a transport fault and aborts the run: a dead link can strand
/// messages forever, so the run must not ride out its full timeout.
fn record_fault(faults: &Mutex<Vec<String>>, hub: &ShardHub, detail: String) {
    faults.lock().expect("fault list poisoned").push(detail);
    hub.cancel();
}

#[cfg(test)]
mod tests {
    use super::{loopback_pair, read_link};
    use crate::hub::ShardHub;
    use crate::inbox::Inbox;
    use crate::wire::Wire;
    use anonring_sim::{PortId, RingTopology};
    use std::io::Write;
    use std::sync::Mutex;

    /// Writes `bytes` into a fresh loopback link, closes the writer, and
    /// pumps the link into a `u8` inbox; returns the recorded faults and
    /// whether the run was cancelled.
    fn pump(bytes: &[u8]) -> (Vec<String>, bool) {
        let hub = ShardHub::new(&RingTopology::oriented(2).expect("n >= 2"));
        let inbox: Inbox<u8> = Inbox::new(2, 4);
        let faults = Mutex::new(Vec::new());
        let (mut writer, reader) = loopback_pair().expect("loopback pair");
        writer.write_all(bytes).expect("write frame bytes");
        drop(writer);
        read_link(reader, &inbox, PortId::LEFT, &hub, &faults);
        (faults.into_inner().expect("fault list"), hub.is_over())
    }

    /// A frame body for a `u8` message sent at epoch 1 with seq 0.
    fn body(msg: u8) -> Vec<u8> {
        let mut body = Vec::new();
        1u64.encode(&mut body);
        0u64.encode(&mut body);
        1u64.encode(&mut body);
        None::<u64>.encode(&mut body);
        msg.encode(&mut body);
        body
    }

    fn framed(body: &[u8]) -> Vec<u8> {
        let mut bytes = (body.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(body);
        bytes
    }

    #[test]
    fn a_well_formed_frame_is_delivered_without_a_fault() {
        assert_eq!(pump(&framed(&body(7))), (vec![], false));
    }

    #[test]
    fn trailing_frame_bytes_are_a_named_fault() {
        let mut junk = body(7);
        junk.extend_from_slice(&[0xaa; 5]);
        let (faults, cancelled) = pump(&framed(&junk));
        assert_eq!(faults, ["frame carries 5 trailing bytes"]);
        assert!(cancelled, "a fault cancels the run");
    }

    #[test]
    fn a_forged_length_header_neither_allocates_nor_hangs() {
        let (faults, cancelled) = pump(&u32::MAX.to_le_bytes());
        assert_eq!(faults, ["link closed mid-frame"]);
        assert!(cancelled, "a fault cancels the run");
    }
}
