//! Bounded MPSC queues with blocking backpressure.
//!
//! The aggregator's shards each drain one of these. Producers
//! (ingesting connections) block when a shard falls behind — that *is*
//! the backpressure model: a slow shard throttles exactly the workers
//! feeding it, instead of growing an unbounded buffer until the process
//! dies. Built on `Mutex` + two `Condvar`s; no channel crates, no spin.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Producer blocks caused by a full queue (backpressure events).
    stalls: u64,
}

/// A bounded blocking FIFO queue.
pub struct BoundedQueue<T> {
    capacity: usize,
    inner: Mutex<Inner<T>>,
    /// Signalled when an item arrives or the queue closes.
    not_empty: Condvar,
    /// Signalled when an item leaves or the queue closes.
    not_full: Condvar,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items (min 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
                stalls: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Enqueues `item`, blocking while the queue is full. Returns
    /// `false` (dropping the item) if the queue is closed.
    pub fn push(&self, item: T) -> bool {
        let mut g = self.inner.lock().expect("queue lock");
        if g.items.len() >= self.capacity && !g.closed {
            g.stalls += 1;
            while g.items.len() >= self.capacity && !g.closed {
                g = self.not_full.wait(g).expect("queue lock");
            }
        }
        if g.closed {
            return false;
        }
        g.items.push_back(item);
        drop(g);
        self.not_empty.notify_one();
        true
    }

    /// Dequeues the next item, blocking while the queue is empty.
    /// Returns `None` once the queue is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut g = self.inner.lock().expect("queue lock");
        loop {
            if let Some(item) = g.items.pop_front() {
                drop(g);
                self.not_full.notify_one();
                return Some(item);
            }
            if g.closed {
                return None;
            }
            g = self.not_empty.wait(g).expect("queue lock");
        }
    }

    /// Closes the queue: pending items remain poppable, new pushes are
    /// refused, and blocked producers/consumers wake.
    pub fn close(&self) {
        let mut g = self.inner.lock().expect("queue lock");
        g.closed = true;
        drop(g);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Current number of queued items.
    pub fn depth(&self) -> usize {
        self.inner.lock().expect("queue lock").items.len()
    }

    /// Producer blocks caused by a full queue so far.
    pub fn stalls(&self) -> u64 {
        self.inner.lock().expect("queue lock").stalls
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn fifo_order_and_depth() {
        let q = BoundedQueue::new(8);
        assert!(q.push(1));
        assert!(q.push(2));
        assert_eq!(q.depth(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn close_drains_then_ends() {
        let q = BoundedQueue::new(4);
        q.push(1);
        q.close();
        assert!(!q.push(2), "push after close is refused");
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn full_queue_blocks_producer_until_drained() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push(0u64);
        let qp = Arc::clone(&q);
        let producer = thread::spawn(move || {
            for i in 1..=100u64 {
                assert!(qp.push(i));
            }
        });
        // Pop nothing until the producer has blocked on the full queue:
        // left to the scheduler, a consumer that keeps pace with the
        // producer never lets it stall.
        while q.stalls() == 0 {
            thread::yield_now();
        }
        let mut got = Vec::new();
        for _ in 0..=100 {
            got.push(q.pop().expect("open"));
        }
        producer.join().expect("producer");
        assert_eq!(got, (0..=100).collect::<Vec<_>>());
        assert!(q.stalls() > 0, "capacity-1 queue must have stalled");
    }

    #[test]
    fn consumer_blocks_until_item_arrives() {
        let q = Arc::new(BoundedQueue::new(4));
        let qc = Arc::clone(&q);
        let consumer = thread::spawn(move || qc.pop());
        thread::sleep(std::time::Duration::from_millis(10));
        q.push(7);
        assert_eq!(consumer.join().expect("consumer"), Some(7));
    }
}
