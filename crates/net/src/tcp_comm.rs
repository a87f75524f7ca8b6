//! The loopback-TCP endpoint: [`TcpComm`] is the shared [`Endpoint`]
//! over [`SocketLink`]s, one rank per thread.
//!
//! The paper runs Kylix on a real 64-node EC2 cluster over commodity
//! Ethernet (§VII); the in-process [`crate::ThreadComm`] and the
//! virtual-time simulator reproduce the *protocol* but never touch an
//! OS network stack, so framing, torn reads, kernel buffering, and
//! connection teardown go unexercised. `TcpComm` closes that gap: the
//! same endpoint, but every inter-rank message crosses a real TCP
//! socket as a length-prefixed frame (see [`crate::frame`]).
//!
//! ### Threading model
//!
//! [`Comm::send`](crate::Comm::send) writes the frame on the calling
//! rank's own thread, header and payload in one vectored write, without
//! copying the payload. Each link also owns the **reader thread** of
//! the peer's incoming connection, which reads frames and pushes them
//! into the endpoint's funnel; from there on the receive side is the
//! one in [`crate::endpoint`]. A cluster of `m` ranks runs `m·(m−1)`
//! I/O threads.
//!
//! The blocking write cannot deadlock. Every reader thread drains its
//! socket into the unbounded funnel whether or not its rank is
//! receiving, so kernel buffer space on every link always frees up: a
//! send may wait for that, but never for the receiver to call `recv`.
//!
//! ### Connection lifecycle
//!
//! [`TcpCluster::make_cluster`] builds the full `m × (m−1)` directed
//! mesh up front: each ordered pair gets one connection, carrying
//! traffic in one direction only, identified by an 8-byte
//! `[magic, src-rank]` handshake. A link pairs a rank's outgoing
//! connection to a peer with the incoming one from it. A failed write
//! closes the outgoing connection, and later sends to the peer vanish;
//! a framing violation tears the incoming one down and surfaces
//! [`CommError::Corrupt`](crate::CommError::Corrupt).

use crate::channel::Sender;
use crate::endpoint::{build_cluster, Endpoint, Event, Link};
use crate::frame::{read_frame, write_frame};
use crate::tag::Tag;
use bytes::Bytes;
use kylix_telemetry::Telemetry;
use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;

/// Connection-handshake magic: "KYLX".
const HELLO_MAGIC: u32 = 0x4B59_4C58;

/// Buffer size of each reader thread's `BufReader`.
const READ_CHUNK: usize = 64 * 1024;

/// A rank's endpoint in a loopback-TCP cluster. See the module docs for
/// the threading and lifecycle model.
pub type TcpComm = Endpoint<SocketLink>;

/// The socket link between one rank and a peer: the outgoing
/// connection, and the incoming one with its reader thread.
pub struct SocketLink {
    /// `None` after a write to the peer failed.
    out: Option<TcpStream>,
    /// A clone of the incoming socket, kept so `close` can shut down its
    /// read side and unblock the reader thread.
    incoming: TcpStream,
    /// The reader thread, joined by `close`.
    reader: Option<JoinHandle<()>>,
}

impl Link for SocketLink {
    fn send(&mut self, tag: Tag, payload: Bytes) {
        // A send to a dead rank vanishes, by contract. The first failed
        // write finds the peer gone; dropping the stream closes it.
        if let Some(stream) = &mut self.out {
            if write_frame(stream, tag, &payload).is_err() {
                self.out = None;
            }
        }
    }

    fn close(&mut self) {
        // Half-close the outgoing connection: every frame `send` wrote
        // is already in the kernel, so the peer reads it all and then a
        // clean EOF.
        if let Some(s) = &self.out {
            let _ = s.shutdown(Shutdown::Write);
        }
        // Unblock the reader by shutting down the read side (a peer that
        // already exited closed it itself; the error is ignored), then
        // join it: no thread or socket outlives the endpoint.
        let _ = self.incoming.shutdown(Shutdown::Both);
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

/// Builds loopback-TCP clusters: `make_cluster*` returns the endpoints,
/// one per rank, for the caller to run — [`crate::cluster::run_each`]
/// runs a closure on each, one OS thread per rank, and
/// `kylix-netsim`'s `Substrate::Tcp` does so with telemetry attached.
pub struct TcpCluster;

impl TcpCluster {
    /// Build the full set of endpoints for an `m`-rank cluster wired
    /// over loopback TCP. Panics if sockets cannot be bound or the mesh
    /// cannot be established (loopback connectivity is a precondition,
    /// not a tolerated fault).
    pub fn make_cluster(m: usize) -> Vec<TcpComm> {
        build_cluster(m, None, socket_links)
    }

    /// [`TcpCluster::make_cluster`] with a telemetry shard attached to
    /// each endpoint (wall-clock flavour — pair with
    /// `Telemetry::new(m, Clock::Wall)`).
    pub fn make_cluster_with_telemetry(m: usize, tel: &Telemetry) -> Vec<TcpComm> {
        build_cluster(m, Some(tel), socket_links)
    }
}

/// Wire the directed mesh: every rank's socket link to every other
/// rank, each reader thread feeding its rank's funnel.
fn socket_links(funnels: &[Sender<Event>]) -> Vec<Vec<Option<SocketLink>>> {
    let m = funnels.len();
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

    // Accept side: each rank's acceptor collects its m-1 incoming
    // connections, identifies the sender from the handshake, and
    // spawns the per-connection reader thread.
    type Accepted = Vec<(usize, TcpStream, JoinHandle<()>)>;
    let acceptors: Vec<JoinHandle<Accepted>> = listeners
        .into_iter()
        .enumerate()
        .map(|(dst, listener)| {
            let tx = funnels[dst].clone();
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
    let mut outgoing: Vec<Vec<Option<TcpStream>>> = (0..m)
        .map(|src| {
            (0..m)
                .map(|dst| (dst != src).then(|| connect(src, dst)))
                .collect()
        })
        .collect();

    // Collect the accept side: rank `me`'s link to `peer` pairs its
    // outgoing connection with the incoming one from `peer`.
    let mut links: Vec<Vec<Option<SocketLink>>> =
        (0..m).map(|_| (0..m).map(|_| None).collect()).collect();
    for (me, acceptor) in acceptors.into_iter().enumerate() {
        for (peer, incoming, reader) in acceptor.join().expect("acceptor thread panicked") {
            let out = outgoing[me][peer]
                .take()
                .unwrap_or_else(|| panic!("duplicate connection {peer} -> {me}"));
            links[me][peer] = Some(SocketLink {
                out: Some(out),
                incoming,
                reader: Some(reader),
            });
        }
    }
    links
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{Comm, CommError};
    use crate::endpoint::suite::{self, finishes_within, tag};
    use std::thread;
    use std::time::{Duration, Instant};

    const MAKE: suite::Make<SocketLink> = TcpCluster::make_cluster;
    const MAKE_TEL: suite::MakeTel<SocketLink> = TcpCluster::make_cluster_with_telemetry;

    #[test]
    fn ping_pong_over_real_sockets() {
        suite::ping_pong(MAKE);
    }

    #[test]
    fn out_of_order_selective_receive() {
        suite::out_of_order_selective_receive(MAKE);
    }

    #[test]
    fn same_tag_messages_keep_fifo_order() {
        suite::same_tag_messages_keep_fifo_order(MAKE);
    }

    #[test]
    fn self_send_loops_back_without_a_socket() {
        suite::self_send_loops_back(MAKE);
    }

    #[test]
    fn single_rank_cluster_works() {
        suite::single_rank_cluster_works(MAKE);
    }

    #[test]
    fn recv_any_returns_first_available() {
        suite::recv_any_returns_first_available(MAKE);
    }

    #[test]
    fn timeout_on_silent_live_peer() {
        suite::timeout_on_silent_live_peer(MAKE);
    }

    #[test]
    fn recv_any_timeout_reports_the_sources() {
        suite::recv_any_timeout_reports_the_sources(MAKE);
    }

    #[test]
    fn all_to_all_exchange() {
        suite::all_to_all_exchange(MAKE);
    }

    #[test]
    fn send_to_dead_rank_is_dropped_silently() {
        suite::send_to_dead_rank_is_dropped(MAKE);
    }

    #[test]
    fn peer_death_surfaces_closed_not_hang() {
        suite::peer_death_surfaces_closed_not_hang(MAKE);
    }

    #[test]
    fn messages_sent_before_death_still_deliver() {
        suite::messages_sent_before_death_still_deliver(MAKE);
    }

    #[test]
    fn recv_any_with_all_sources_dead_is_closed() {
        suite::recv_any_with_all_sources_dead_is_closed(MAKE);
    }

    #[test]
    fn recv_any_with_one_live_source_keeps_racing() {
        suite::recv_any_with_one_live_source_keeps_racing(MAKE);
    }

    #[test]
    fn drop_order_is_arbitrary_and_clean() {
        suite::drop_order_is_arbitrary_and_clean(MAKE);
    }

    #[test]
    fn sends_to_dropped_peer_return_promptly() {
        suite::sends_to_dropped_peer_return_promptly(MAKE);
    }

    #[test]
    fn discard_removes_stashed_copy_and_future_arrival() {
        suite::discard_removes_stashed_copy(MAKE);
        suite::discard_applies_to_future_arrival(MAKE);
    }

    #[test]
    fn raw_recv_yields_anything_and_times_out_as_none() {
        suite::raw_recv_yields_anything_and_times_out_as_none(MAKE);
    }

    #[test]
    fn telemetry_counts_match_thread_substrate_semantics() {
        suite::telemetry_counts_sends_deliveries_and_parks(MAKE_TEL);
    }

    #[test]
    fn telemetry_counts_discard_consumed_arrivals_as_received() {
        suite::telemetry_counts_discard_consumed_arrivals_as_received(MAKE_TEL);
    }

    #[test]
    fn in_order_arrivals_are_delivered_without_parking() {
        suite::in_order_arrivals_are_delivered_without_parking(MAKE_TEL);
    }

    #[test]
    fn now_is_monotone_wall_clock() {
        suite::now_is_monotone(MAKE);
    }

    // Socket-only behaviour: framing, torn reads, kernel buffers and
    // reader threads.

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
    fn hostile_length_prefix_yields_corrupt_error() {
        // A hostile/buggy peer declares a ~4 GiB frame. The victim must
        // answer Corrupt — without allocating the claimed body and
        // without burning a full timeout. The bad prefix goes straight
        // onto the socket, under the encoder: bytes that are not a valid
        // frame desynchronise the stream exactly like in-flight
        // corruption of a length word would.
        let mut comms = TcpCluster::make_cluster(2);
        let mut c1 = comms.pop().unwrap();
        let c0 = comms.pop().unwrap();
        let mut wire = c0.link(1).and_then(|l| l.out.as_ref()).unwrap();
        wire.write_all(&u32::MAX.to_le_bytes()).unwrap();
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
    fn cluster_runner_collects_in_rank_order() {
        let out = crate::cluster::run_each(TcpCluster::make_cluster(5), |c| c.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40]);
    }
}
