//! A bounded multi-producer multi-consumer channel: one `Mutex` around a
//! `VecDeque`, one `Condvar` for each direction.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> Shared<T> {
    /// Every update under the lock leaves the queue and the counts
    /// valid, so a poisoned lock (a panic elsewhere while holding it)
    /// is still safe to keep using.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The message comes back when every receiver is gone.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SendError(..)")
    }
}

/// The channel is empty and every sender is gone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecvError;

/// Sending half; clone it for more producers.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// Receiving half; clone it for more consumers (each message goes to
/// exactly one of them).
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// A channel that holds at most `capacity` messages (at least one: the
/// rendezvous channel crossbeam makes of capacity 0 is not provided).
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::with_capacity(capacity),
            senders: 1,
            receivers: 1,
        }),
        capacity: capacity.max(1),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

impl<T> Sender<T> {
    /// Block until there is room, then enqueue. Fails, handing the
    /// message back, once no receiver is left — also when that happens
    /// while this call is blocked.
    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        let mut st = self.shared.lock();
        loop {
            if st.receivers == 0 {
                return Err(SendError(msg));
            }
            if st.queue.len() < self.shared.capacity {
                st.queue.push_back(msg);
                drop(st);
                self.shared.not_empty.notify_one();
                return Ok(());
            }
            st = self
                .shared
                .not_full
                .wait(st)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Messages waiting in the channel.
    pub fn len(&self) -> usize {
        self.shared.lock().queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Receiver<T> {
    /// Block until a message arrives. Fails once the channel is empty
    /// and no sender is left; messages sent before the last sender
    /// dropped are still delivered.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut st = self.shared.lock();
        loop {
            if let Some(msg) = st.queue.pop_front() {
                drop(st);
                self.shared.not_full.notify_one();
                return Ok(msg);
            }
            if st.senders == 0 {
                return Err(RecvError);
            }
            st = self
                .shared
                .not_empty
                .wait(st)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Blocking iterator that ends when the channel disconnects.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter { rx: self }
    }

    /// Messages waiting in the channel.
    pub fn len(&self) -> usize {
        self.shared.lock().queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// See [`Receiver::iter`].
pub struct Iter<'a, T> {
    rx: &'a Receiver<T>,
}

impl<T> Iterator for Iter<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.rx.recv().ok()
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Sender<T> {
        self.shared.lock().senders += 1;
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Receiver<T> {
        self.shared.lock().receivers += 1;
        Receiver {
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
            self.shared.not_empty.notify_all();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut st = self.shared.lock();
        st.receivers -= 1;
        if st.receivers == 0 {
            drop(st);
            self.shared.not_full.notify_all();
        }
    }
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Sender { .. }")
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Receiver { .. }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn messages_arrive_in_order_and_len_counts_them() {
        let (tx, rx) = bounded(4);
        for i in 0..3 {
            tx.send(i).unwrap();
        }
        assert_eq!(tx.len(), 3);
        assert_eq!(rx.len(), 3);
        assert_eq!(rx.recv(), Ok(0));
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.len(), 1);
    }

    #[test]
    fn channel_closes_when_all_senders_drop() {
        let (tx, rx) = bounded(8);
        let tx2 = tx.clone();
        tx.send(1).unwrap();
        tx2.send(2).unwrap();
        drop(tx);
        // One sender is still alive: what was sent is delivered and the
        // iterator would block, so take exactly the two messages.
        assert_eq!(rx.recv(), Ok(1));
        tx2.send(3).unwrap();
        drop(tx2);
        // Queued messages outlive the last sender; then the end.
        assert_eq!(rx.iter().collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn blocked_recv_wakes_when_the_last_sender_drops() {
        let (tx, rx) = bounded::<u8>(1);
        let gate = Barrier::new(2);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                gate.wait();
                rx.recv()
            });
            gate.wait();
            drop(tx);
            assert_eq!(waiter.join().unwrap(), Err(RecvError));
        });
    }

    #[test]
    fn blocked_send_errors_when_all_receivers_drop() {
        let (tx, rx) = bounded(1);
        let rx2 = rx.clone();
        tx.send(1).unwrap(); // the channel is now full
        let gate = Barrier::new(2);
        std::thread::scope(|s| {
            let blocked = s.spawn(|| {
                gate.wait();
                tx.send(2)
            });
            gate.wait();
            // Whether the sender is already parked or arrives after the
            // drops, it must see "no receivers", not wait for room.
            drop(rx);
            drop(rx2);
            assert_eq!(blocked.join().unwrap(), Err(SendError(2)));
        });
    }

    #[test]
    fn send_blocks_at_capacity_until_a_recv_makes_room() {
        let (tx, rx) = bounded(2);
        std::thread::scope(|s| {
            let producer = s.spawn(|| {
                for i in 0..100 {
                    tx.send(i).unwrap();
                    assert!(tx.len() <= 2);
                }
            });
            let got: Vec<i32> = (0..100).map(|_| rx.recv().unwrap()).collect();
            producer.join().unwrap();
            assert_eq!(got, (0..100).collect::<Vec<_>>());
        });
    }

    #[test]
    fn each_message_goes_to_exactly_one_consumer() {
        let (tx, rx) = bounded(4);
        let total: u64 = std::thread::scope(|s| {
            let consumers: Vec<_> = (0..3)
                .map(|_| {
                    let rx = rx.clone();
                    s.spawn(move || rx.iter().sum::<u64>())
                })
                .collect();
            drop(rx);
            for i in 1..=1000u64 {
                tx.send(i).unwrap();
            }
            drop(tx);
            consumers.into_iter().map(|c| c.join().unwrap()).sum()
        });
        assert_eq!(total, 1000 * 1001 / 2);
    }
}
