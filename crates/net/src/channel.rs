//! Unbounded multi-producer, single-consumer channel: the funnel every
//! in-process substrate delivers through (the real endpoint's per-rank
//! funnel behind `ThreadComm` and `TcpComm`, and `kylix-netsim`'s
//! `SimComm`).
//!
//! The queue is a `VecDeque` behind a `Mutex` and `Condvar`. Its storage
//! is reused once it has grown, so a steady send/receive loop does not
//! allocate per message. That is the reason this is not
//! `std::sync::mpsc`: std's list channel allocates one block per 31
//! messages, which alone pushes a steady-state reduce op past the
//! allocation budget `crates/core/tests/alloc_count.rs` pins.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receiver_alive: bool,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
}

impl<T> Shared<T> {
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        // Every update leaves the state whole, so a panic elsewhere
        // while holding the lock leaves nothing half-written.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Create an unbounded channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            receiver_alive: true,
        }),
        ready: Condvar::new(),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

/// The sending half.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half (a single consumer: the Kylix sources never
/// clone it).
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// The message could not be sent: every receiver is gone.
#[derive(PartialEq, Eq, Clone, Copy)]
pub struct SendError<T>(pub T);

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SendError(..)")
    }
}

/// Why a non-blocking receive returned nothing.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum TryRecvError {
    /// Nothing queued right now.
    Empty,
    /// Nothing queued and every sender is gone.
    Disconnected,
}

/// Why a timed receive returned nothing.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum RecvTimeoutError {
    /// Nothing arrived in time.
    Timeout,
    /// Nothing queued and every sender is gone.
    Disconnected,
}

impl<T> Sender<T> {
    /// Queue a message; fails only when every receiver is gone.
    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        let mut st = self.shared.lock();
        if !st.receiver_alive {
            return Err(SendError(msg));
        }
        st.queue.push_back(msg);
        drop(st);
        self.shared.ready.notify_one();
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.lock().senders += 1;
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.shared.lock();
        st.senders -= 1;
        if st.senders == 0 {
            drop(st);
            self.shared.ready.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Take a message if one is queued.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut st = self.shared.lock();
        match st.queue.pop_front() {
            Some(m) => Ok(m),
            None if st.senders == 0 => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    /// Block for at most `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now().checked_add(timeout);
        let mut st = self.shared.lock();
        loop {
            if let Some(m) = st.queue.pop_front() {
                return Ok(m);
            }
            if st.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let wait = match deadline {
                Some(d) => d.saturating_duration_since(Instant::now()),
                None => Duration::from_secs(3600),
            };
            if wait.is_zero() {
                return Err(RecvTimeoutError::Timeout);
            }
            st = self
                .shared
                .ready
                .wait_timeout(st, wait)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.shared.lock().receiver_alive = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_and_disconnect() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn timeout_and_dead_receiver() {
        let (tx, rx) = unbounded::<u8>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        );
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn fifo_per_sender_across_threads() {
        const SENDERS: u32 = 4;
        const PER_SENDER: u32 = 2_000;
        let (tx, rx) = unbounded();
        std::thread::scope(|s| {
            for id in 0..SENDERS {
                let tx = tx.clone();
                s.spawn(move || {
                    for seq in 0..PER_SENDER {
                        tx.send((id, seq)).unwrap();
                    }
                });
            }
            drop(tx);
            let mut next = [0u32; SENDERS as usize];
            while let Ok((id, seq)) = rx.recv_timeout(Duration::from_secs(10)) {
                assert_eq!(seq, next[id as usize], "sender {id} reordered");
                next[id as usize] += 1;
            }
            assert_eq!(next, [PER_SENDER; SENDERS as usize]);
        });
    }

    #[test]
    fn disconnected_only_after_the_queue_drains() {
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        tx.send(1).unwrap();
        tx2.send(2).unwrap();
        drop(tx);
        assert_eq!(rx.try_recv(), Ok(1), "one sender left: still connected");
        drop(tx2);
        // Every sender is gone, but a queued message is still delivered.
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(2));
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Disconnected)
        );
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn try_recv_never_blocks() {
        let (tx, rx) = unbounded();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        tx.send("a").unwrap();
        assert_eq!(rx.try_recv(), Ok("a"));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn send_to_a_dropped_receiver_returns_the_message() {
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        drop(rx);
        assert_eq!(tx.send(5u8), Err(SendError(5)));
        assert_eq!(tx2.send(6u8), Err(SendError(6)));
    }

    #[test]
    fn wakes_a_blocked_receiver() {
        let (tx, rx) = unbounded();
        std::thread::scope(|s| {
            s.spawn(move || tx.send(7u32).unwrap());
            assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(7));
        });
    }
}
