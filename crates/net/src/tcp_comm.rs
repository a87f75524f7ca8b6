//! Real-socket communicator: one rank per thread over loopback TCP.
//!
//! The paper runs Kylix on a real 64-node EC2 cluster over commodity
//! Ethernet (§VII); the in-process [`crate::ThreadComm`] and the
//! virtual-time simulator reproduce the *protocol* but never touch an
//! OS network stack, so framing, torn reads, kernel buffering, and
//! connection teardown go unexercised. `TcpComm` closes that gap: the
//! same [`Comm`]/[`RawComm`] contract, but every inter-rank message
//! crosses a real TCP socket as a length-prefixed frame
//! (see [`crate::frame`]).
//!
//! ### Threading model
//!
//! [`Comm::send`] writes the frame on the calling rank's own thread,
//! header and payload in one vectored write, without copying the
//! payload. Each endpoint owns one **reader thread** per remote peer,
//! which reads frames from the incoming socket and funnels them into a
//! single per-endpoint event channel feeding the shared receive side in
//! [`crate::mailbox`] — the same stash, racing discards and receive
//! loops `ThreadComm` runs; the protocol above cannot tell the
//! substrates apart (the three-way differential tests pin this). A
//! cluster of `m` ranks runs `m·(m−1)` I/O threads.
//!
//! The blocking write cannot deadlock. Every reader thread drains its
//! socket into the unbounded funnel whether or not its rank is
//! receiving, so kernel buffer space on every link always frees up: a
//! send may wait for that, but never for the receiver to call `recv`.
//! Self-addressed sends loop back through the funnel directly, skipping
//! the socket layer just as `ThreadComm` skips the wire — send-side
//! telemetry accounting is identical on all substrates.
//!
//! ### Connection lifecycle
//!
//! [`TcpCluster::make_cluster`] builds the full `m × (m−1)` directed
//! mesh up front: each ordered pair gets one connection, carrying
//! traffic in one direction only, identified by an 8-byte
//! `[magic, src-rank]` handshake. A write that fails (the peer has
//! gone) closes that outgoing connection, and later sends to the peer
//! vanish. Dropping an endpoint half-closes its outgoing connections
//! (peers' readers see EOF after everything already sent) and shuts
//! down its incoming ones (its own readers unblock), then joins its
//! reader threads — `Drop` is deterministic and leak-free. A peer's
//! death is *observable*: once the incoming connection from rank `p` is
//! gone and nothing from `p` remains stashed, a selective receive from
//! `p` fails fast with [`CommError::Closed`] instead of burning its full
//! timeout, and a framing violation on the link surfaces
//! [`CommError::Corrupt`].
//! [`RawComm::recv_raw_timeout`] deliberately keeps reporting silence
//! as `Ok(None)` (not `Closed`): the reliability layer's retransmit /
//! linger loops treat peer silence as loss, and must keep servicing
//! *other* live links after one peer exits.

use crate::channel::{unbounded, Sender};
use crate::cluster::run_each;
use crate::comm::{Comm, CommError, RawComm, RawMessage};
use crate::frame::{read_frame, write_frame};
use crate::mailbox::{Event, Inbox};
use crate::tag::Tag;
use bytes::Bytes;
use kylix_telemetry::{Counter, RankTelemetry, Telemetry};
use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Connection-handshake magic: "KYLX".
const HELLO_MAGIC: u32 = 0x4B59_4C58;

/// Buffer size of each reader thread's `BufReader`.
const READ_CHUNK: usize = 64 * 1024;

/// A rank's endpoint in a loopback-TCP cluster. See the module docs for
/// the threading and lifecycle model.
pub struct TcpComm {
    rank: usize,
    size: usize,
    /// Outgoing connection per destination. `None` at our own index
    /// (self-sends loop back through `self_tx`) and after a write to
    /// that peer failed.
    writers: Vec<Option<TcpStream>>,
    /// Loopback sender for self-addressed messages.
    self_tx: Sender<Event>,
    /// Clones of the incoming sockets, kept so `Drop` can shut down
    /// their read sides and unblock the reader threads.
    incoming: Vec<Option<TcpStream>>,
    /// Reader threads, joined on `Drop`.
    readers: Vec<JoinHandle<()>>,
    /// The reader funnel and the mailbox it feeds.
    inbox: Inbox,
    epoch: Instant,
}

/// Entry points for building and running loopback-TCP clusters.
///
/// Mirrors [`crate::LocalCluster`]: `run*` spawns one OS thread per
/// rank, hands each its [`TcpComm`] endpoint, and collects per-rank
/// results; `make_cluster*` returns the endpoints for callers that
/// manage their own threads.
pub struct TcpCluster;

impl TcpCluster {
    /// Build the full set of endpoints for an `m`-rank cluster wired
    /// over loopback TCP. Panics if sockets cannot be bound or the mesh
    /// cannot be established (loopback connectivity is a precondition,
    /// not a tolerated fault).
    pub fn make_cluster(m: usize) -> Vec<TcpComm> {
        Self::build_cluster(m, None)
    }

    /// [`TcpCluster::make_cluster`] with a telemetry shard attached to
    /// each endpoint (wall-clock flavour — pair with
    /// `Telemetry::new(m, Clock::Wall)`).
    pub fn make_cluster_with_telemetry(m: usize, tel: &Telemetry) -> Vec<TcpComm> {
        assert!(
            tel.len() >= m,
            "telemetry has {} rank shards, cluster needs {m}",
            tel.len()
        );
        Self::build_cluster(m, Some(tel))
    }

    /// Run `f(rank's comm)` on `m` concurrent node threads over real
    /// loopback sockets; returns each rank's result, indexed by rank.
    pub fn run<R, F>(m: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(TcpComm) -> R + Sync,
    {
        run_each(Self::make_cluster(m), f)
    }

    /// [`TcpCluster::run`] with a telemetry instance attached.
    pub fn run_with_telemetry<R, F>(m: usize, tel: &Telemetry, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(TcpComm) -> R + Sync,
    {
        run_each(Self::make_cluster_with_telemetry(m, tel), f)
    }

    /// Run every rank behind a [`crate::ChaosComm`] applying `plan` —
    /// seeded drop/dup/corrupt/delay and mid-run crashes injected
    /// *above* the real sockets, exactly as
    /// [`crate::LocalCluster::run_with_faults`] injects them above the
    /// in-process channels.
    pub fn run_with_faults<R, F>(m: usize, plan: &crate::fault::FaultPlan, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(crate::fault::ChaosComm<TcpComm>) -> R + Sync,
    {
        run_each(Self::make_cluster(m), |c| {
            f(crate::fault::ChaosComm::new(c, plan.clone()))
        })
    }

    fn build_cluster(m: usize, tel: Option<&Telemetry>) -> Vec<TcpComm> {
        assert!(m > 0, "cluster must have at least one rank");
        // One listener per rank, ephemeral loopback ports.
        let listeners: Vec<TcpListener> = (0..m)
            .map(|r| {
                TcpListener::bind("127.0.0.1:0")
                    .unwrap_or_else(|e| panic!("rank {r}: cannot bind loopback listener: {e}"))
            })
            .collect();
        let addrs: Vec<SocketAddr> = listeners
            .iter()
            .map(|l| l.local_addr().expect("listener has a local addr"))
            .collect();

        // One funnel per rank.
        let mut funnel_txs = Vec::with_capacity(m);
        let mut funnel_rxs = Vec::with_capacity(m);
        for _ in 0..m {
            let (tx, rx) = unbounded();
            funnel_txs.push(tx);
            funnel_rxs.push(rx);
        }

        // Accept side: each rank's acceptor collects its m-1 incoming
        // connections, identifies the sender from the handshake, and
        // spawns the per-connection reader thread.
        type Accepted = Vec<(usize, TcpStream, JoinHandle<()>)>;
        let acceptors: Vec<JoinHandle<Accepted>> = listeners
            .into_iter()
            .enumerate()
            .map(|(dst, listener)| {
                let tx = funnel_txs[dst].clone();
                std::thread::spawn(move || {
                    let mut conns = Vec::with_capacity(m - 1);
                    for _ in 0..m - 1 {
                        let (mut stream, _) = listener
                            .accept()
                            .unwrap_or_else(|e| panic!("rank {dst}: accept failed: {e}"));
                        stream.set_nodelay(true).ok();
                        let mut hello = [0u8; 8];
                        stream
                            .read_exact(&mut hello)
                            .unwrap_or_else(|e| panic!("rank {dst}: handshake read: {e}"));
                        let magic = u32::from_le_bytes(hello[..4].try_into().unwrap());
                        assert_eq!(magic, HELLO_MAGIC, "rank {dst}: bad handshake magic");
                        let src = u32::from_le_bytes(hello[4..].try_into().unwrap()) as usize;
                        assert!(src < m, "rank {dst}: handshake from bogus rank {src}");
                        let read_half = stream
                            .try_clone()
                            .expect("clone incoming stream for reader");
                        let tx = tx.clone();
                        let reader = std::thread::spawn(move || reader_loop(src, read_half, tx));
                        conns.push((src, stream, reader));
                    }
                    conns
                })
            })
            .collect();

        // Connect side: the directed mesh, one connection per ordered
        // pair, introduced by the handshake; `send` writes to these.
        let connect = |src: usize, dst: usize| {
            let mut stream = TcpStream::connect(addrs[dst])
                .unwrap_or_else(|e| panic!("connect {src} -> {dst}: {e}"));
            stream.set_nodelay(true).ok();
            let mut hello = [0u8; 8];
            hello[..4].copy_from_slice(&HELLO_MAGIC.to_le_bytes());
            hello[4..].copy_from_slice(&(src as u32).to_le_bytes());
            stream
                .write_all(&hello)
                .unwrap_or_else(|e| panic!("handshake {src} -> {dst}: {e}"));
            stream
        };
        let mut writers: Vec<Vec<Option<TcpStream>>> = (0..m)
            .map(|src| {
                (0..m)
                    .map(|dst| (dst != src).then(|| connect(src, dst)))
                    .collect()
            })
            .collect();

        // Collect the accept side, routing each rank's incoming stream
        // clones and reader handles back to its endpoint.
        let mut incoming: Vec<Vec<Option<TcpStream>>> =
            (0..m).map(|_| (0..m).map(|_| None).collect()).collect();
        let mut reader_handles: Vec<Vec<JoinHandle<()>>> = (0..m).map(|_| Vec::new()).collect();
        for (dst, acceptor) in acceptors.into_iter().enumerate() {
            for (src, stream, reader) in acceptor.join().expect("acceptor thread panicked") {
                assert!(
                    incoming[dst][src].is_none(),
                    "duplicate connection {src} -> {dst}"
                );
                incoming[dst][src] = Some(stream);
                reader_handles[dst].push(reader);
            }
        }

        let epoch = Instant::now();
        let mut endpoints = Vec::with_capacity(m);
        for rank in 0..m {
            endpoints.push(TcpComm {
                rank,
                size: m,
                writers: std::mem::take(&mut writers[rank]),
                self_tx: funnel_txs[rank].clone(),
                incoming: std::mem::take(&mut incoming[rank]),
                readers: std::mem::take(&mut reader_handles[rank]),
                inbox: Inbox::new(
                    funnel_rxs.remove(0),
                    m,
                    tel.map(|t| Arc::clone(t.rank(rank))),
                ),
                epoch,
            });
        }
        endpoints
    }
}

/// Reader thread: read frames, funnel them, report EOF / framing
/// violations, exit.
fn reader_loop(src: usize, stream: TcpStream, tx: Sender<Event>) {
    let mut reader = BufReader::with_capacity(READ_CHUNK, &stream);
    loop {
        match read_frame(&mut reader) {
            Ok((tag, payload)) => {
                let _ = tx.send(Event::Msg { src, tag, payload });
            }
            Err(e) if e.kind() == ErrorKind::InvalidData => {
                // Unrecoverable framing violation: surface it, tear the
                // connection down.
                let _ = tx.send(Event::Corrupt { src });
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
            // EOF, or a reset from a dying peer: either way the peer
            // stopped talking.
            Err(_) => {
                let _ = tx.send(Event::Eof { src });
                return;
            }
        }
    }
}

impl TcpComm {
    /// Number of messages currently held in the out-of-order stash.
    pub fn stash_len(&self) -> usize {
        self.inbox.stash_len()
    }

    /// Number of registered not-yet-arrived discards.
    pub fn pending_discard_len(&self) -> usize {
        self.inbox.pending_discard_len()
    }

    /// Whether the incoming connection from `peer` is still open.
    pub fn peer_alive(&self, peer: usize) -> bool {
        self.inbox.peer_alive(peer)
    }
}

impl Comm for TcpComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send(&mut self, to: usize, tag: Tag, payload: Bytes) {
        debug_assert!(to < self.size, "rank {to} out of range");
        // Send-side accounting counts *payload* bytes at the send call,
        // before peer liveness is known — the identical accounting
        // point and unit as ThreadComm and the simulator, so the
        // three-way differential tests can demand exact equality.
        // Framing overhead is a wire detail below the telemetry line.
        if let Some(t) = self.inbox.telemetry() {
            t.add(
                tag.phase(),
                tag.layer(),
                Counter::BytesSent,
                payload.len() as u64,
            );
            t.add(tag.phase(), tag.layer(), Counter::MsgsSent, 1);
        }
        if to == self.rank {
            let _ = self.self_tx.send(Event::Msg {
                src: to,
                tag,
                payload,
            });
            return;
        }
        // A send to a dead rank vanishes, by contract. The first failed
        // write finds the peer gone; dropping the stream closes it.
        if let Some(stream) = &mut self.writers[to] {
            if write_frame(stream, tag, &payload).is_err() {
                self.writers[to] = None;
            }
        }
    }

    fn recv_timeout(
        &mut self,
        from: usize,
        tag: Tag,
        timeout: Duration,
    ) -> Result<Bytes, CommError> {
        self.inbox.recv_timeout(from, tag, timeout)
    }

    fn recv_any_timeout(
        &mut self,
        sources: &[usize],
        tag: Tag,
        timeout: Duration,
    ) -> Result<(usize, Bytes), CommError> {
        self.inbox.recv_any_timeout(sources, tag, timeout)
    }

    fn discard(&mut self, sources: &[usize], tag: Tag) {
        self.inbox.discard(sources, tag);
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn telemetry(&self) -> Option<&RankTelemetry> {
        self.inbox.telemetry()
    }
}

impl RawComm for TcpComm {
    fn recv_raw_timeout(&mut self, timeout: Duration) -> Result<Option<RawMessage>, CommError> {
        self.inbox.recv_raw_timeout(timeout)
    }
}

impl Drop for TcpComm {
    fn drop(&mut self) {
        // 1. Half-close the outgoing connections: every frame `send`
        //    wrote is already in the kernel, so peers read it all and
        //    then a clean EOF.
        for s in self.writers.iter().flatten() {
            let _ = s.shutdown(Shutdown::Write);
        }
        // 2. Unblock our reader threads: shut down the read sides.
        //    Peers that already exited closed these sockets themselves;
        //    errors here are expected and ignored.
        for s in self.incoming.iter().flatten() {
            let _ = s.shutdown(Shutdown::Both);
        }
        // 3. Join the readers: after (2) they all terminate promptly,
        //    so an endpoint drop never leaks threads or sockets.
        for h in self.readers.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
impl TcpComm {
    /// Test-only hook: write raw bytes on the wire to `to`, bypassing
    /// the framing — the only way to present the peer's reader with a
    /// hostile length prefix over a real socket.
    fn inject_raw_wire_bytes(&self, to: usize, bytes: &[u8]) {
        if let Some(mut stream) = self.writers[to].as_ref() {
            let _ = stream.write_all(bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::DEFAULT_TIMEOUT;
    use crate::tag::Phase;
    use std::thread;

    fn tag(layer: u16, seq: u32) -> Tag {
        Tag::new(Phase::App, layer, seq)
    }

    /// Short patience for tests that expect failure.
    const SHORT: Duration = Duration::from_millis(200);

    #[test]
    fn ping_pong_over_real_sockets() {
        let mut comms = TcpCluster::make_cluster(2);
        let mut c1 = comms.pop().unwrap();
        let mut c0 = comms.pop().unwrap();
        thread::scope(|s| {
            s.spawn(move || {
                c0.send(1, tag(0, 0), Bytes::from_static(b"ping"));
                let r = c0.recv(1, tag(0, 1)).unwrap();
                assert_eq!(&r[..], b"pong");
            });
            s.spawn(move || {
                let r = c1.recv(0, tag(0, 0)).unwrap();
                assert_eq!(&r[..], b"ping");
                c1.send(0, tag(0, 1), Bytes::from_static(b"pong"));
            });
        });
    }

    #[test]
    fn out_of_order_selective_receive() {
        let mut comms = TcpCluster::make_cluster(2);
        let mut c1 = comms.pop().unwrap();
        let mut c0 = comms.pop().unwrap();
        c0.send(1, tag(0, 0), Bytes::from_static(b"a"));
        c0.send(1, tag(0, 1), Bytes::from_static(b"b"));
        c0.send(1, tag(0, 2), Bytes::from_static(b"c"));
        assert_eq!(&c1.recv(0, tag(0, 2)).unwrap()[..], b"c");
        assert_eq!(&c1.recv(0, tag(0, 1)).unwrap()[..], b"b");
        assert_eq!(&c1.recv(0, tag(0, 0)).unwrap()[..], b"a");
    }

    #[test]
    fn same_tag_messages_keep_fifo_order() {
        let mut comms = TcpCluster::make_cluster(2);
        let mut c1 = comms.pop().unwrap();
        let mut c0 = comms.pop().unwrap();
        for i in 0..50u8 {
            c0.send(1, tag(0, 0), Bytes::from(vec![i]));
        }
        for i in 0..50u8 {
            assert_eq!(c1.recv(0, tag(0, 0)).unwrap()[0], i);
        }
    }

    #[test]
    fn self_send_loops_back_without_a_socket() {
        let mut comms = TcpCluster::make_cluster(2);
        let mut c0 = comms.remove(0);
        c0.send(0, tag(1, 0), Bytes::from_static(b"me"));
        assert_eq!(&c0.recv(0, tag(1, 0)).unwrap()[..], b"me");
    }

    #[test]
    fn single_rank_cluster_works() {
        let mut comms = TcpCluster::make_cluster(1);
        let mut c0 = comms.pop().unwrap();
        c0.send(0, tag(0, 0), Bytes::from_static(b"solo"));
        assert_eq!(&c0.recv(0, tag(0, 0)).unwrap()[..], b"solo");
    }

    #[test]
    fn recv_any_returns_first_available() {
        let mut comms = TcpCluster::make_cluster(3);
        let mut c2 = comms.pop().unwrap();
        let mut c1 = comms.pop().unwrap();
        let _c0 = comms.pop().unwrap();
        c1.send(2, tag(1, 0), Bytes::from_static(b"from1"));
        let (src, payload) = c2.recv_any(&[0, 1], tag(1, 0)).unwrap();
        assert_eq!(src, 1);
        assert_eq!(&payload[..], b"from1");
    }

    #[test]
    fn timeout_on_silent_live_peer() {
        let mut comms = TcpCluster::make_cluster(2);
        let mut c1 = comms.remove(1);
        let err = c1.recv_timeout(0, tag(0, 0), SHORT).unwrap_err();
        assert!(matches!(err, CommError::Timeout { from: 0, .. }));
    }

    #[test]
    fn large_payload_crosses_in_torn_chunks() {
        // Bigger than any single kernel read: exercises reassembly.
        let big: Vec<u8> = (0..3 * READ_CHUNK).map(|i| (i % 251) as u8).collect();
        let expect = big.clone();
        let mut comms = TcpCluster::make_cluster(2);
        let mut c1 = comms.pop().unwrap();
        let mut c0 = comms.pop().unwrap();
        thread::scope(|s| {
            s.spawn(move || c0.send(1, tag(0, 0), Bytes::from(big)));
            s.spawn(move || {
                let r = c1.recv(0, tag(0, 0)).unwrap();
                assert_eq!(r.len(), expect.len());
                assert_eq!(&r[..], &expect[..]);
            });
        });
    }

    #[test]
    fn all_to_all_exchange() {
        let m = 6;
        let comms = TcpCluster::make_cluster(m);
        let results: Vec<Vec<u8>> = thread::scope(|s| {
            let handles: Vec<_> = comms
                .into_iter()
                .map(|mut c| {
                    s.spawn(move || {
                        let me = c.rank() as u8;
                        for to in 0..m {
                            c.send(to, tag(0, 0), Bytes::from(vec![me]));
                        }
                        let mut got = Vec::new();
                        for from in 0..m {
                            got.push(c.recv(from, tag(0, 0)).unwrap()[0]);
                        }
                        got
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for r in results {
            assert_eq!(r, (0..m as u8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn send_to_dead_rank_is_dropped_silently() {
        let mut comms = TcpCluster::make_cluster(2);
        let dead = comms.pop().unwrap();
        drop(dead);
        let mut c0 = comms.pop().unwrap();
        c0.send(1, tag(0, 0), Bytes::from_static(b"into the void"));
        // Survival is the assertion.
    }

    #[test]
    fn peer_death_surfaces_closed_not_hang() {
        let mut comms = TcpCluster::make_cluster(2);
        let dead = comms.pop().unwrap();
        let mut c0 = comms.pop().unwrap();
        drop(dead); // rank 1 exits before ever speaking
        let start = Instant::now();
        let err = c0.recv_timeout(1, tag(0, 0), DEFAULT_TIMEOUT).unwrap_err();
        assert_eq!(err, CommError::Closed, "dead peer must fail fast");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "must not burn the 60 s default timeout"
        );
    }

    #[test]
    fn messages_sent_before_death_still_deliver() {
        let mut comms = TcpCluster::make_cluster(2);
        let mut c1 = comms.pop().unwrap();
        let mut c0 = comms.pop().unwrap();
        c0.send(1, tag(0, 0), Bytes::from_static(b"parting gift"));
        drop(c0); // flushes, then EOF
        assert_eq!(&c1.recv(0, tag(0, 0)).unwrap()[..], b"parting gift");
        // Now the peer is known dead and nothing is stashed.
        let err = c1.recv_timeout(0, tag(0, 1), DEFAULT_TIMEOUT).unwrap_err();
        assert_eq!(err, CommError::Closed);
    }

    #[test]
    fn recv_any_with_all_sources_dead_is_closed() {
        let mut comms = TcpCluster::make_cluster(3);
        let mut c2 = comms.pop().unwrap();
        drop(comms); // ranks 0 and 1 both exit
        let start = Instant::now();
        let err = c2
            .recv_any_timeout(&[0, 1], tag(0, 0), DEFAULT_TIMEOUT)
            .unwrap_err();
        assert_eq!(err, CommError::Closed);
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn recv_any_with_one_live_source_keeps_racing() {
        let mut comms = TcpCluster::make_cluster(3);
        let mut c2 = comms.pop().unwrap();
        let mut c1 = comms.pop().unwrap();
        drop(comms.pop().unwrap()); // rank 0 dead
        thread::scope(|s| {
            s.spawn(move || {
                thread::sleep(Duration::from_millis(50));
                c1.send(2, tag(0, 0), Bytes::from_static(b"late but alive"));
            });
            let (src, p) = c2.recv_any(&[0, 1], tag(0, 0)).unwrap();
            assert_eq!(src, 1);
            assert_eq!(&p[..], b"late but alive");
        });
    }

    #[test]
    fn hostile_length_prefix_yields_corrupt_error() {
        // A hostile/buggy peer declares a ~4 GiB frame. The victim must
        // answer Corrupt — without allocating the claimed body and
        // without burning a full timeout. The bad prefix goes under the
        // encoder via the test-only raw-wire hook, which writes straight
        // to the socket: bytes that are not a valid frame desynchronise
        // the stream exactly like in-flight corruption of a length word
        // would.
        let mut comms = TcpCluster::make_cluster(2);
        let mut c1 = comms.pop().unwrap();
        let c0 = comms.pop().unwrap();
        c0.inject_raw_wire_bytes(1, &u32::MAX.to_le_bytes());
        let err = c1.recv_timeout(0, tag(0, 0), Duration::from_secs(10));
        assert!(
            matches!(err, Err(CommError::Corrupt { from: 0, .. })),
            "oversized prefix must surface Corrupt, got {err:?}"
        );
        drop(c0);
    }

    #[test]
    fn drop_joins_all_worker_threads() {
        // Dropping every endpoint must terminate promptly — no leaked
        // reader blocked in read(); sends run on the caller's thread,
        // so there is no other worker to join.
        let comms = TcpCluster::make_cluster(4);
        let start = Instant::now();
        drop(comms);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "drop must join workers promptly: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn drop_order_is_arbitrary_and_clean() {
        // Tear endpoints down in a hostile order, with traffic in
        // flight; every Drop must still return.
        let mut comms = TcpCluster::make_cluster(4);
        for c in comms.iter_mut() {
            for to in 0..4 {
                c.send(to, tag(0, 0), Bytes::from_static(b"inflight"));
            }
        }
        let start = Instant::now();
        drop(comms.remove(2));
        drop(comms.remove(0));
        drop(comms);
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    /// Run `f` on its own thread and fail the test if it has not
    /// returned within `limit` — a blocked send shows up as a hang, and
    /// this turns the hang into a failure.
    fn finishes_within<T: Send + 'static>(
        limit: Duration,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> T {
        use std::sync::mpsc::{channel, RecvTimeoutError};
        let (tx, rx) = channel();
        let worker = thread::spawn(move || {
            let _ = tx.send(f());
        });
        match rx.recv_timeout(limit) {
            Ok(out) => {
                worker.join().expect("worker sent its result");
                out
            }
            Err(RecvTimeoutError::Timeout) => panic!("did not finish within {limit:?}"),
            // `f` panicked: re-raise its panic here.
            Err(RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(worker.join().expect_err("worker panicked"))
            }
        }
    }

    #[test]
    fn crossed_bulk_sends_do_not_deadlock() {
        // Both ranks write far more than the socket buffers hold before
        // either receives: the peers' reader threads must drain it.
        const FRAMES: u32 = 16;
        const MIB: usize = 1 << 20;
        let payload = |from: usize, i: u32| -> Vec<u8> {
            (0..MIB)
                .map(|j| (j as u32 ^ i.wrapping_mul(31) ^ from as u32) as u8)
                .collect()
        };
        finishes_within(Duration::from_secs(10), move || {
            let comms = TcpCluster::make_cluster(2);
            thread::scope(|s| {
                for mut c in comms {
                    s.spawn(move || {
                        let me = c.rank();
                        let peer = 1 - me;
                        for i in 0..FRAMES {
                            c.send(peer, tag(0, i), Bytes::from(payload(me, i)));
                        }
                        for i in 0..FRAMES {
                            let got = c.recv(peer, tag(0, i)).unwrap();
                            assert!(got[..] == payload(peer, i)[..], "frame {i} differs");
                        }
                    });
                }
            });
        });
    }

    #[test]
    fn sends_to_dropped_peer_return_promptly() {
        let big = Bytes::from(vec![7u8; 1 << 20]);
        finishes_within(Duration::from_secs(5), move || {
            let mut comms = TcpCluster::make_cluster(2);
            drop(comms.pop().unwrap());
            let mut c0 = comms.pop().unwrap();
            for i in 0..64 {
                c0.send(1, tag(0, i), big.clone());
            }
        });
    }

    #[test]
    fn discard_removes_stashed_copy_and_future_arrival() {
        let mut comms = TcpCluster::make_cluster(2);
        let mut c1 = comms.pop().unwrap();
        let mut c0 = comms.pop().unwrap();
        c1.discard(&[0], tag(0, 7));
        c0.send(1, tag(0, 7), Bytes::from_static(b"late loser"));
        c0.send(1, tag(0, 8), Bytes::from_static(b"keeper"));
        assert_eq!(&c1.recv(0, tag(0, 8)).unwrap()[..], b"keeper");
        assert!(c1.recv_timeout(0, tag(0, 7), SHORT).is_err());
        assert_eq!(c1.stash_len(), 0);
        assert_eq!(c1.pending_discard_len(), 0);
    }

    #[test]
    fn raw_recv_yields_anything_and_times_out_as_none() {
        let mut comms = TcpCluster::make_cluster(2);
        let mut c1 = comms.pop().unwrap();
        let mut c0 = comms.pop().unwrap();
        c0.send(1, tag(3, 9), Bytes::from_static(b"raw"));
        let msg = c1
            .recv_raw_timeout(Duration::from_secs(10))
            .unwrap()
            .expect("message");
        assert_eq!(msg.src, 0);
        assert_eq!(msg.tag, tag(3, 9));
        assert_eq!(&msg.payload[..], b"raw");
        assert!(c1.recv_raw_timeout(SHORT).unwrap().is_none());
        // Raw receive stays timeout-shaped (not Closed) after peer
        // death, by contract with the reliability layer.
        drop(c0);
        assert!(c1.recv_raw_timeout(SHORT).unwrap().is_none());
    }

    #[test]
    fn telemetry_counts_match_thread_substrate_semantics() {
        use kylix_telemetry::Clock;
        let tel = Telemetry::new(2, Clock::Wall);
        let mut comms = TcpCluster::make_cluster_with_telemetry(2, &tel);
        let mut c1 = comms.pop().unwrap();
        let mut c0 = comms.pop().unwrap();
        c0.send(1, tag(2, 0), Bytes::from_static(b"abc"));
        c0.send(1, tag(2, 1), Bytes::from_static(b"defgh"));
        assert_eq!(&c1.recv(0, tag(2, 1)).unwrap()[..], b"defgh");
        assert_eq!(&c1.recv(0, tag(2, 0)).unwrap()[..], b"abc");
        c0.note_traffic(2, 7);
        let rep = tel.report();
        let app = Phase::App as u8;
        // Payload bytes, not framed bytes: identical to ThreadComm.
        assert_eq!(rep.ranks[0].get(app, 2, Counter::BytesSent), 8);
        assert_eq!(rep.ranks[0].get(app, 2, Counter::MsgsSent), 2);
        assert_eq!(rep.ranks[1].get(app, 2, Counter::BytesRecv), 8);
        assert_eq!(rep.ranks[1].get(app, 2, Counter::MsgsRecv), 2);
        assert_eq!(
            rep.ranks[0].get(kylix_telemetry::SELF_PHASE, 2, Counter::BytesSent),
            7
        );
        assert_eq!(rep.on_layer(2, Counter::BytesSent), 15);
    }

    #[test]
    fn in_order_arrivals_are_delivered_without_parking() {
        use kylix_telemetry::Clock;
        let tel = Telemetry::new(2, Clock::Wall);
        let mut comms = TcpCluster::make_cluster_with_telemetry(2, &tel);
        let mut c1 = comms.pop().unwrap();
        let mut c0 = comms.pop().unwrap();
        for seq in 0..3 {
            c0.send(1, tag(0, seq), Bytes::from_static(b"x"));
        }
        // Let all three land in the funnel before the first receive.
        thread::sleep(Duration::from_millis(100));
        for seq in 0..3 {
            assert_eq!(&c1.recv(0, tag(0, seq)).unwrap()[..], b"x");
        }
        let rep = tel.report();
        assert_eq!(rep.ranks[1].total(Counter::MsgsRecv), 3);
        assert_eq!(rep.ranks[1].total(Counter::StashParks), 0);
    }

    #[test]
    fn cluster_runner_collects_in_rank_order() {
        let out = TcpCluster::run(5, |c| c.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn now_is_monotone_wall_clock() {
        let comms = TcpCluster::make_cluster(1);
        let a = comms[0].now();
        let b = comms[0].now();
        assert!(b >= a);
    }
}
