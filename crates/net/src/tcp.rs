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
//! * lazily-established outbound connections: the first send to a peer
//!   connects and spawns a **writer thread** with a bounded queue; the
//!   worker enqueues encoded frames and never blocks on the socket itself.
//!   A writer that hits an I/O error reconnects (counted in
//!   `rspan_net_reconnects_total`) and resends; a frame abandoned after
//!   repeated failures releases its in-flight token so quiescence detection
//!   stays sound.
//!
//! Frame format: `[u32 len][u32 from][u64 sent_nanos]` little-endian, then
//! exactly `len` payload bytes — the [`WireCodec`] encoding whose length
//! equals `WireSize::wire_bytes`.  `sent_nanos` is on the shared
//! [`TickClock`] nanosecond base, giving the send-to-receive latency
//! histogram without cross-machine clock agreement (loopback only).
//! Readers reject oversize and undecodable frames (see `reader_loop`).

use crate::clock::TickClock;
use crate::codec::WireCodec;
use crate::quiesce::InFlight;
use crate::worker::{Cluster, NodeCmd, Wire, Worker, WORKER_STACK};
use rspan_distributed::ProtocolNode;
use rspan_graph::Node;
use rspan_telemetry::{Counter, TelemetryHandle};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::Duration;

/// Stack size for I/O helper threads (accept / reader / writer): they hold
/// a fixed buffer and shallow frames.
const IO_STACK: usize = 128 * 1024;

/// Bounded outbound queue depth per peer connection.
const WRITER_QUEUE: usize = 1024;

/// Reconnect attempts before a frame is abandoned.
const MAX_RECONNECTS: u32 = 5;

/// Header: `[u32 len][u32 from][u64 sent_nanos]`.
const HEADER_BYTES: usize = 16;

/// Largest payload a reader accepts, in bytes.  The largest legitimate
/// frame is a `RepairMsg::TreeAdvert` of a spanning tree, 20 + 8·(n − 1)
/// bytes, so this cap admits networks of two million nodes while a corrupt
/// header can no longer make a reader allocate up to 4 GiB.
const MAX_FRAME: usize = 16 << 20;

fn encode_frame<M: WireCodec>(from: Node, sent_nanos: u64, msg: &M) -> Vec<u8> {
    let payload = msg.wire_bytes() as usize;
    let mut buf = Vec::with_capacity(HEADER_BYTES + payload);
    buf.extend_from_slice(&(payload as u32).to_le_bytes());
    buf.extend_from_slice(&from.to_le_bytes());
    buf.extend_from_slice(&sent_nanos.to_le_bytes());
    msg.encode(&mut buf);
    debug_assert_eq!(buf.len(), HEADER_BYTES + payload);
    buf
}

/// Outbound side: lazily-connected per-peer writer threads.
struct TcpWire<P: ProtocolNode> {
    me: Node,
    addrs: Arc<Vec<SocketAddr>>,
    writers: HashMap<Node, SyncSender<Vec<u8>>>,
    inflight: Arc<InFlight>,
    tel: TelemetryHandle,
    _marker: std::marker::PhantomData<fn() -> P>,
}

impl<P: ProtocolNode> TcpWire<P> {
    fn writer_for(&mut self, to: Node) -> &SyncSender<Vec<u8>> {
        let addr = self.addrs[to as usize];
        let inflight = Arc::clone(&self.inflight);
        let tel = self.tel.clone();
        let me = self.me;
        self.writers.entry(to).or_insert_with(|| {
            let (tx, rx) = std::sync::mpsc::sync_channel::<Vec<u8>>(WRITER_QUEUE);
            std::thread::Builder::new()
                .name(format!("rspan-wr-{me}-{to}"))
                .stack_size(IO_STACK)
                .spawn(move || {
                    let mut stream = TcpStream::connect(addr).ok();
                    while let Ok(buf) = rx.recv() {
                        let mut attempts = 0;
                        loop {
                            let ok = match &mut stream {
                                Some(s) => s.write_all(&buf).is_ok(),
                                None => false,
                            };
                            if ok {
                                break;
                            }
                            attempts += 1;
                            if attempts > MAX_RECONNECTS {
                                // Abandon the frame but keep the counter
                                // sound: its token must not leak.
                                inflight.down();
                                break;
                            }
                            tel.incr(Counter::NetReconnects);
                            std::thread::sleep(Duration::from_millis(2 << attempts));
                            stream = TcpStream::connect(addr).ok();
                        }
                    }
                    // Channel closed: worker stopped; the socket closes with
                    // the thread, signalling EOF to the peer's reader.
                })
                .expect("spawn writer thread");
            tx
        })
    }
}

impl<P: ProtocolNode> Wire<P> for TcpWire<P>
where
    P::Msg: WireCodec,
{
    fn post(&mut self, to: Node, from: Node, msg: &P::Msg, sent_nanos: u64) {
        let buf = encode_frame(from, sent_nanos, msg);
        let tx = self.writer_for(to);
        match tx.try_send(buf) {
            Ok(()) => {}
            Err(TrySendError::Full(buf)) => {
                // Bounded queue full: block until the writer drains (the
                // backpressure path; the worker is allowed to block here).
                if tx.send(buf).is_err() {
                    self.inflight.down();
                }
            }
            Err(TrySendError::Disconnected(_)) => {
                // Writer thread died (exhausted reconnects and exited via
                // channel close at teardown); release the frame's token.
                self.inflight.down();
            }
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
/// its timeout.  An oversize header means the stream lost frame sync, so
/// the connection closes; an undecodable payload is skipped.
fn reader_loop<P>(
    mut stream: TcpStream,
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
    loop {
        let (from, sent_nanos) = match read_frame(&mut stream, &mut payload) {
            Frame::Data(from, sent_nanos) => (from, sent_nanos),
            Frame::Oversize => return reject(),
            Frame::Closed => return,
        };
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

/// Spawns the TCP loopback backend: `n` node workers, each with a listener,
/// accept thread and framed reader threads; frames cross real sockets.
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
                    while let Ok((stream, _)) = listener.accept() {
                        if shutdown.load(Ordering::SeqCst) {
                            return;
                        }
                        let tx = tx.clone();
                        let inflight = Arc::clone(&inflight);
                        let tel = tel.clone();
                        // Readers exit on EOF when the peer's writer closes;
                        // they are not joined.
                        let _ = std::thread::Builder::new()
                            .name("rspan-rd".to_owned())
                            .stack_size(IO_STACK)
                            .spawn(move || reader_loop::<P>(stream, tx, inflight, tel));
                    }
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
        let wire: TcpWire<P> = TcpWire {
            me: v as Node,
            addrs: Arc::clone(&addrs),
            writers: HashMap::new(),
            inflight: Arc::clone(&inflight),
            tel: tel.clone(),
            _marker: std::marker::PhantomData,
        };
        let worker = Worker::new(
            v as Node,
            make_node(v as Node),
            rx,
            wire,
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
    use std::time::Instant;

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
        let (mut client, server) = socket_pair();
        let tel = TelemetryHandle::enabled();
        let inflight = Arc::new(InFlight::new(tel.clone()));
        let (tx, rx) = std::sync::mpsc::channel::<NodeCmd<RepairNode>>();
        let reader = {
            let (inflight, tel) = (Arc::clone(&inflight), tel.clone());
            std::thread::spawn(move || reader_loop(server, tx, inflight, tel))
        };
        // An undecodable payload is skipped and the stream goes on; an
        // oversize header closes it.  Each frame holds its sender's token.
        let good = encode_frame(3, 0, &RepairMsg::LinkState(1, 3, vec![1, 2], 2));
        for frame in [[header(4), vec![0xFF; 4]].concat(), good, header(u32::MAX)] {
            inflight.up();
            client.write_all(&frame).unwrap();
        }
        reader
            .join()
            .expect("the reader closes instead of reading 4 GiB");
        assert!(
            !matches!(client.read(&mut [0; 1]), Ok(1)),
            "connection open"
        );
        let delivered: Vec<_> = rx.try_iter().collect();
        assert!(matches!(
            delivered.as_slice(),
            [NodeCmd::Deliver { from: 3, .. }]
        ));
        inflight.down(); // the worker's release after handling the delivery
        let rejected = tel.snapshot().unwrap().counter(Counter::NetFramesRejected);
        assert_eq!(rejected, 2);
        let start = Instant::now();
        assert!(
            inflight.wait_quiet(Duration::from_secs(30)),
            "a token leaked"
        );
        assert!(start.elapsed() < Duration::from_secs(3));
    }
}
