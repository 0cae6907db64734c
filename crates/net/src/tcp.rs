//! The TCP loopback backend: the same worker loop as the threaded backend,
//! with frames crossing real `std::net` sockets.
//!
//! Architecture per node:
//!
//! * one `TcpListener` on `127.0.0.1:0` (ephemeral port; the cluster shares
//!   the address table),
//! * an **accept thread** that hands each inbound connection to a framed
//!   **reader thread**, which decodes frames and forwards them into the
//!   node's in-process command queue as `Deliver`s,
//! * lazily-established outbound connections, one per peer, with
//!   `TCP_NODELAY` set: the worker encodes each frame into one reused
//!   buffer and writes it to the socket itself.  A write or connect that
//!   fails reconnects (counted in `rspan_net_reconnects_total`) and
//!   resends after a doubling backoff; a frame abandoned after
//!   `MAX_RECONNECTS` releases its in-flight token so quiescence detection
//!   stays sound.  The backoff runs on the worker and holds the frame's
//!   token the whole time, for at most 4 + 8 + 16 + 32 + 64 = 124 ms per
//!   abandoned frame.
//!
//! A blocking write cannot deadlock the cluster: a reader blocks only on
//! its own socket, because it forwards into the worker's unbounded queue,
//! so every socket keeps draining while its receiving worker is busy.
//!
//! Frame format: `[u32 len][u32 from][u64 sent_nanos]` little-endian, then
//! exactly `len` payload bytes — the [`WireCodec`] encoding whose length
//! equals `WireSize::wire_bytes`.  `sent_nanos` is on the shared
//! [`TickClock`] nanosecond base, giving the send-to-receive latency
//! histogram without cross-machine clock agreement (loopback only).
//! Readers trust no header field (see `reader_loop`).

use crate::clock::TickClock;
use crate::codec::WireCodec;
use crate::quiesce::InFlight;
use crate::worker::{Cluster, NodeCmd, Wire, Worker, WORKER_STACK};
use rspan_distributed::ProtocolNode;
use rspan_graph::Node;
use rspan_telemetry::{Counter, TelemetryHandle};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::Duration;

/// Stack size for I/O helper threads (accept / reader): they hold a fixed
/// buffer and shallow frames.
const IO_STACK: usize = 128 * 1024;

/// Reconnect attempts before a frame is abandoned.
const MAX_RECONNECTS: u32 = 5;

/// Pause after a failed `accept`, so a persistent error does not spin.
const ACCEPT_RETRY: Duration = Duration::from_millis(10);

/// Header: `[u32 len][u32 from][u64 sent_nanos]`.
const HEADER_BYTES: usize = 16;

/// Largest payload a reader accepts, in bytes.  The largest legitimate
/// frame is a `RepairMsg::TreeAdvert` of a spanning tree, 20 + 8·(n − 1)
/// bytes, so this cap admits networks of two million nodes while a corrupt
/// header can no longer make a reader allocate up to 4 GiB.
const MAX_FRAME: usize = 16 << 20;

/// Encodes one frame into `buf`, replacing its contents.
fn encode_frame<M: WireCodec>(buf: &mut Vec<u8>, from: Node, sent_nanos: u64, msg: &M) {
    let payload = msg.wire_bytes() as usize;
    buf.clear();
    buf.extend_from_slice(&(payload as u32).to_le_bytes());
    buf.extend_from_slice(&from.to_le_bytes());
    buf.extend_from_slice(&sent_nanos.to_le_bytes());
    msg.encode(buf);
    debug_assert_eq!(buf.len(), HEADER_BYTES + payload);
}

/// A fresh outbound connection with Nagle's algorithm off: a frame is a
/// whole message, and the protocol waits on every one.
fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Outbound side: one lazily connected socket per peer, written by the
/// worker.
struct TcpWire {
    addrs: Arc<Vec<SocketAddr>>,
    streams: HashMap<Node, TcpStream>,
    /// The frame being sent, reused across frames.
    frame: Vec<u8>,
    inflight: Arc<InFlight>,
    tel: TelemetryHandle,
}

impl TcpWire {
    fn new(addrs: Arc<Vec<SocketAddr>>, inflight: Arc<InFlight>, tel: TelemetryHandle) -> Self {
        TcpWire {
            addrs,
            streams: HashMap::new(),
            frame: Vec::new(),
            inflight,
            tel,
        }
    }

    /// Writes the encoded frame to `to`, connecting first if needed.
    fn write_frame(&mut self, to: Node) -> io::Result<()> {
        let stream = match self.streams.entry(to) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(connect(self.addrs[to as usize])?),
        };
        stream.write_all(&self.frame)
    }
}

impl<P: ProtocolNode> Wire<P> for TcpWire
where
    P::Msg: WireCodec,
{
    fn post(&mut self, to: Node, from: Node, msg: &P::Msg, sent_nanos: u64) {
        encode_frame(&mut self.frame, from, sent_nanos, msg);
        let mut attempts = 0;
        while self.write_frame(to).is_err() {
            // A half-written frame dies with its connection (the reader
            // drops a truncated frame); the whole frame goes again on a
            // fresh one.
            self.streams.remove(&to);
            attempts += 1;
            if attempts > MAX_RECONNECTS {
                // Abandon the frame but keep the counter sound: its token
                // must not leak.
                self.inflight.down();
                return;
            }
            self.tel.incr(Counter::NetReconnects);
            std::thread::sleep(Duration::from_millis(2 << attempts));
        }
    }
}

/// What [`read_frame`] found: a whole frame (`from`, `sent_nanos`; the
/// payload is in the caller's buffer), a header announcing more than
/// [`MAX_FRAME`] bytes (nothing past it read or allocated), or EOF.
#[derive(Debug, PartialEq, Eq)]
enum Frame {
    Data(Node, u64),
    Oversize,
    Closed,
}

/// Reads one length-prefixed frame, its payload into `payload`.
fn read_frame(stream: &mut impl Read, payload: &mut Vec<u8>) -> Frame {
    let mut header = [0u8; HEADER_BYTES];
    if stream.read_exact(&mut header).is_err() {
        return Frame::Closed; // EOF: peer closed (teardown) or connection reset
    }
    // Little-endian `[u32 len][u32 from][u64 sent_nanos]`: the casts below
    // cut the three fields out of one 128-bit word.
    let header = u128::from_le_bytes(header);
    let len = header as u32 as usize;
    if len > MAX_FRAME {
        return Frame::Oversize;
    }
    payload.resize(len, 0);
    if stream.read_exact(payload).is_err() {
        return Frame::Closed;
    }
    Frame::Data((header >> 32) as u32, (header >> 64) as u64)
}

/// Reads frames off one accepted connection and forwards them into the
/// node's command queue.  Every frame on the wire holds the in-flight token
/// its sender took, so a rejected frame releases it here (and counts in
/// `rspan_net_frames_rejected_total`) rather than stalling quiescence until
/// its timeout.  An undecodable payload is skipped.  The connection closes
/// on an oversize header, where the stream lost frame sync, and on a
/// header whose `from` is no node of the `n`-node cluster or differs from
/// the first frame's: a connection carries the frames of the one worker
/// that opened it.
fn reader_loop<P>(
    mut stream: TcpStream,
    n: usize,
    tx: Sender<NodeCmd<P>>,
    inflight: Arc<InFlight>,
    tel: TelemetryHandle,
) where
    P: ProtocolNode,
    P::Msg: WireCodec,
{
    let reject = || {
        tel.incr(Counter::NetFramesRejected);
        inflight.down();
    };
    let mut payload = Vec::new();
    let mut sender = None;
    loop {
        let (from, sent_nanos) = match read_frame(&mut stream, &mut payload) {
            Frame::Data(from, sent_nanos) => (from, sent_nanos),
            Frame::Oversize => return reject(),
            Frame::Closed => return,
        };
        if from as usize >= n || *sender.get_or_insert(from) != from {
            return reject();
        }
        let Some(msg) = P::Msg::decode(&payload) else {
            reject();
            continue;
        };
        if tx
            .send(NodeCmd::Deliver {
                from,
                msg,
                sent_nanos,
            })
            .is_err()
        {
            return; // worker already stopped
        }
    }
}

/// Hands every connection `accept` yields to `serve` until `shutdown` is
/// set.  A failed `accept` while the cluster runs is retried after
/// [`ACCEPT_RETRY`], so one error cannot silently stop the node accepting.
fn accept_loop(
    mut accept: impl FnMut() -> io::Result<TcpStream>,
    shutdown: &AtomicBool,
    mut serve: impl FnMut(TcpStream),
) {
    loop {
        let accepted = accept();
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok(stream) => serve(stream),
            Err(_) => std::thread::sleep(ACCEPT_RETRY),
        }
    }
}

/// Spawns the TCP loopback backend: `n` node workers, each with a listener,
/// accept thread and framed reader threads; frames cross real sockets,
/// which each worker writes itself.
///
/// The returned [`Cluster`] is driven exactly like the threaded one —
/// `inject`/`set_link` travel in-process (they are harness controls, not
/// protocol traffic); only protocol frames use TCP.
pub fn spawn_tcp<P, F>(
    neighbors: Vec<Vec<Node>>,
    mut make_node: F,
    tick: Duration,
    tel: TelemetryHandle,
) -> Cluster<P>
where
    P: ProtocolNode + Send + 'static,
    P::Msg: WireCodec + Send + 'static,
    F: FnMut(Node) -> P,
{
    let n = neighbors.len();
    let clock = Arc::new(TickClock::new(tick));
    let inflight = Arc::new(InFlight::new(tel.clone()));
    let shutdown = Arc::new(AtomicBool::new(false));

    // Bind every listener first so the address table is complete before any
    // worker can send.
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind(("127.0.0.1", 0)).expect("bind loopback listener"))
        .collect();
    let addrs: Arc<Vec<SocketAddr>> = Arc::new(
        listeners
            .iter()
            .map(|l| l.local_addr().expect("listener addr"))
            .collect(),
    );

    let (senders, receivers): (Vec<_>, Vec<_>) = (0..n).map(|_| std::sync::mpsc::channel()).unzip();

    // Accept loops: one per node, handing connections to reader threads.
    let mut accept_handles = Vec::with_capacity(n);
    for (v, listener) in listeners.into_iter().enumerate() {
        let tx = senders[v].clone();
        let shutdown = Arc::clone(&shutdown);
        let inflight = Arc::clone(&inflight);
        let tel = tel.clone();
        accept_handles.push(
            std::thread::Builder::new()
                .name(format!("rspan-acc-{v}"))
                .stack_size(IO_STACK)
                .spawn(move || {
                    let accept = || listener.accept().map(|(stream, _)| stream);
                    accept_loop(accept, &shutdown, |stream| {
                        let tx = tx.clone();
                        let inflight = Arc::clone(&inflight);
                        let tel = tel.clone();
                        // Readers exit on EOF when the peer's worker stops
                        // and its sockets close; they are not joined.
                        let _ = std::thread::Builder::new()
                            .name("rspan-rd".to_owned())
                            .stack_size(IO_STACK)
                            .spawn(move || reader_loop::<P>(stream, n, tx, inflight, tel));
                    });
                })
                .expect("spawn accept thread"),
        );
    }

    // Node workers, identical loop to the threaded backend; only the wire
    // differs.
    let mut handles = Vec::with_capacity(n);
    for (v, rx) in receivers.into_iter().enumerate() {
        let mut nbrs = neighbors[v].clone();
        nbrs.sort_unstable();
        let worker = Worker::new(
            v as Node,
            make_node(v as Node),
            rx,
            TcpWire::new(Arc::clone(&addrs), Arc::clone(&inflight), tel.clone()),
            nbrs,
            Arc::clone(&clock),
            Arc::clone(&inflight),
            tel.clone(),
        );
        handles.push(
            std::thread::Builder::new()
                .name(format!("rspan-node-{v}"))
                .stack_size(WORKER_STACK)
                .spawn(move || worker.run())
                .expect("spawn node worker"),
        );
    }

    // Teardown: set the flag, then poke every listener with a throwaway
    // connection so the blocking accept wakes and observes it.
    let addrs_for_teardown = Arc::clone(&addrs);
    let teardown = Box::new(move || {
        shutdown.store(true, Ordering::SeqCst);
        for &addr in addrs_for_teardown.iter() {
            let _ = TcpStream::connect(addr);
        }
        for h in accept_handles {
            let _ = h.join();
        }
    });

    Cluster::from_parts(senders, handles, inflight, clock, Some(teardown))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rspan_distributed::{RepairMsg, RepairNode};

    /// Cluster size the reader tests assume.
    const N: usize = 4;

    /// A connected loopback pair `(client, server)`.
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        (client, listener.accept().unwrap().0)
    }

    /// A header from node 3 announcing `len` payload bytes.
    fn header(len: u32) -> Vec<u8> {
        [len.to_le_bytes(), 3u32.to_le_bytes(), [0; 4], [0; 4]].concat()
    }

    /// A well-formed frame from `from`.
    fn good(from: Node) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_frame(
            &mut buf,
            from,
            0,
            &RepairMsg::LinkState(1, 3, vec![1, 2], 2),
        );
        buf
    }

    /// Feeds `frames` to the reader of an `N`-node cluster, each frame
    /// holding one token, then a tokenless well-formed frame that only a
    /// reader which failed to close would deliver.  Returns the senders of
    /// the delivered frames, the count rejected and the tokens still held.
    fn read_frames(frames: &[Vec<u8>]) -> (Vec<Node>, u64, i64) {
        let (mut client, server) = socket_pair();
        // A reader that fails to close ends here instead of hanging.
        server
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let tel = TelemetryHandle::enabled();
        let inflight = Arc::new(InFlight::new(tel.clone()));
        let (tx, rx) = std::sync::mpsc::channel::<NodeCmd<RepairNode>>();
        let reader = {
            let (inflight, tel) = (Arc::clone(&inflight), tel.clone());
            std::thread::spawn(move || reader_loop(server, N, tx, inflight, tel))
        };
        for frame in frames {
            inflight.up();
            client.write_all(frame).unwrap();
        }
        let _ = client.write_all(&good(3));
        reader.join().unwrap();
        assert!(
            !matches!(client.read(&mut [0; 1]), Ok(1)),
            "connection open"
        );
        let delivered = rx
            .try_iter()
            .map(|cmd| match cmd {
                NodeCmd::Deliver { from, .. } => from,
                _ => unreachable!("a reader only delivers"),
            })
            .collect();
        let rejected = tel.snapshot().unwrap().counter(Counter::NetFramesRejected);
        (delivered, rejected, inflight.pending())
    }

    #[test]
    fn oversize_header_is_rejected_before_any_allocation() {
        let (mut client, mut server) = socket_pair();
        // Its own thread: the frame at the cap outgrows the socket buffer.
        let writer = std::thread::spawn(move || {
            let at_cap = [header(MAX_FRAME as u32), vec![0; MAX_FRAME]].concat();
            client
                .write_all(&[header(u32::MAX), at_cap].concat())
                .unwrap();
        });
        let mut payload = Vec::new();
        assert_eq!(read_frame(&mut server, &mut payload), Frame::Oversize);
        assert_eq!(payload.capacity(), 0, "allocated for an oversize header");
        // A frame exactly at the cap still reads.
        assert_eq!(read_frame(&mut server, &mut payload), Frame::Data(3, 0));
        assert_eq!(payload.len(), MAX_FRAME);
        writer.join().unwrap();
    }

    #[test]
    fn rejected_frames_release_their_tokens() {
        // An undecodable payload is skipped and the stream goes on; an
        // oversize header closes it instead of reading 4 GiB.
        let undecodable = [header(4), vec![0xFF; 4]].concat();
        let (delivered, rejected, pending) = read_frames(&[undecodable, good(3), header(u32::MAX)]);
        assert_eq!(delivered, [3]);
        assert_eq!(rejected, 2);
        // The delivered frame's token is the worker's to release.
        assert_eq!(pending, 1, "a token leaked");
    }

    #[test]
    fn forged_senders_are_rejected_and_close_the_connection() {
        // A `from` past the cluster, first or later on a connection, and a
        // `from` other than the connection's first.
        let n = N as Node;
        for (frames, expected) in [
            (vec![good(n)], vec![]),
            (vec![good(3), good(n)], vec![3]),
            (vec![good(3), good(2)], vec![3]),
        ] {
            let (delivered, rejected, pending) = read_frames(&frames);
            assert_eq!(delivered, expected);
            assert_eq!(rejected, 1);
            assert_eq!(pending, expected.len() as i64, "a token leaked");
        }
    }

    #[test]
    fn accept_errors_do_not_end_the_accept_loop() {
        let (_client, server) = socket_pair();
        let shutdown = AtomicBool::new(false);
        let error = || Err(io::Error::from(io::ErrorKind::Other));
        // Popped from the back: two errors, a connection, then shutdown.
        let mut script = vec![Ok(server), error(), error()];
        let mut served = 0;
        let accept = || {
            script.pop().unwrap_or_else(|| {
                shutdown.store(true, Ordering::SeqCst);
                error()
            })
        };
        accept_loop(accept, &shutdown, |_| served += 1);
        assert_eq!(served, 1);
    }

    /// A wire of node 1 whose node 0 listens at `addr`.
    fn wire_to(addr: SocketAddr) -> (TcpWire, Arc<InFlight>, TelemetryHandle) {
        let tel = TelemetryHandle::enabled();
        let inflight = Arc::new(InFlight::new(tel.clone()));
        let wire = TcpWire::new(Arc::new(vec![addr]), Arc::clone(&inflight), tel.clone());
        (wire, inflight, tel)
    }

    /// Posts one token-holding frame from node 1 to node 0.
    fn post(wire: &mut TcpWire, inflight: &InFlight) {
        inflight.up();
        let msg = RepairMsg::LinkState(1, 1, vec![0], 2);
        Wire::<RepairNode>::post(wire, 0, 1, &msg, 7);
    }

    #[test]
    fn workers_write_whole_frames_on_nodelay_sockets() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let (mut wire, inflight, _) = wire_to(listener.local_addr().unwrap());
        post(&mut wire, &inflight);
        assert_eq!(wire.streams[&0].nodelay().ok(), Some(true));
        let (mut server, _) = listener.accept().unwrap();
        let mut payload = Vec::new();
        assert_eq!(read_frame(&mut server, &mut payload), Frame::Data(1, 7));
        assert_eq!(inflight.pending(), 1, "a sent frame keeps its token");
    }

    #[test]
    fn a_frame_nobody_accepts_is_abandoned_after_max_reconnects() {
        let dead = TcpListener::bind(("127.0.0.1", 0))
            .unwrap()
            .local_addr()
            .unwrap();
        let (mut wire, inflight, tel) = wire_to(dead);
        post(&mut wire, &inflight);
        assert_eq!(inflight.pending(), 0, "the abandoned frame kept its token");
        let reconnects = tel.snapshot().unwrap().counter(Counter::NetReconnects);
        assert_eq!(reconnects, u64::from(MAX_RECONNECTS));
    }
}
