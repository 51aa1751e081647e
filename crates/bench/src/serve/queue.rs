//! Bounded ingress queue with explicit backpressure.
//!
//! The queue holds accepted-but-unserved requests. Its capacity is a
//! hard bound: once full, [`IngressQueue::push`] fails *immediately*
//! and the server answers `busy` — overload surfaces as explicit
//! backpressure to the client, never as unbounded memory growth or
//! silently ballooning latency. (The classic alternative — an unbounded
//! queue — converts overload into queueing delay that grows without
//! limit while every request still "succeeds"; this module is the
//! design's refusal to do that.)
//!
//! The serving side is the paper's Listing 1: every server worker blocks in
//! [`IngressQueue::pop`] and fetches the next request itself, so an idle
//! worker takes a request the moment it is pushed and a request waits
//! only while every worker is busy.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Queue state shared between ingest and the workers.
struct State<T> {
    queue: VecDeque<T>,
    closed: bool,
    /// High-water mark of queue depth (observability).
    peak: usize,
    rejected: u64,
}

/// A bounded MPMC queue that rejects instead of growing.
pub struct IngressQueue<T> {
    cap: usize,
    state: Mutex<State<T>>,
    cv: Condvar,
}

impl<T> IngressQueue<T> {
    /// Creates a queue holding at most `cap` entries (clamped to ≥ 1).
    #[must_use]
    pub fn new(cap: usize) -> Self {
        IngressQueue {
            cap: cap.max(1),
            state: Mutex::new(State {
                queue: VecDeque::new(),
                closed: false,
                peak: 0,
                rejected: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Enqueues `item`, or returns it when the queue is full (explicit
    /// backpressure) or closed.
    ///
    /// # Errors
    ///
    /// The rejected item is handed back so the caller can answer the
    /// client.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut st = self.state.lock().expect("queue lock not poisoned");
        if st.closed || st.queue.len() >= self.cap {
            st.rejected += 1;
            return Err(item);
        }
        st.queue.push_back(item);
        st.peak = st.peak.max(st.queue.len());
        self.cv.notify_one();
        Ok(())
    }

    /// Blocks until an entry is available and takes the oldest one. Any
    /// number of threads may pop; each entry goes to exactly one of
    /// them. Returns `None` only after [`IngressQueue::close`] once the
    /// queue has fully drained.
    #[must_use]
    pub fn pop(&self) -> Option<T> {
        let mut st = self.state.lock().expect("queue lock not poisoned");
        loop {
            if let Some(item) = st.queue.pop_front() {
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = self.cv.wait(st).expect("queue lock not poisoned");
        }
    }

    /// Closes the queue: future pushes fail, and every `pop` returns
    /// `None` once the backlog is drained.
    pub fn close(&self) {
        let mut st = self.state.lock().expect("queue lock not poisoned");
        st.closed = true;
        self.cv.notify_all();
    }

    /// Current depth.
    #[must_use]
    pub fn len(&self) -> usize {
        self.state
            .lock()
            .expect("queue lock not poisoned")
            .queue
            .len()
    }

    /// Whether the queue is currently empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(peak depth, rejected count)` so far.
    #[must_use]
    pub fn pressure(&self) -> (usize, u64) {
        let st = self.state.lock().expect("queue lock not poisoned");
        (st.peak, st.rejected)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc::channel;
    use std::sync::Arc;

    use super::*;

    #[test]
    fn full_queue_rejects_immediately() {
        let q = IngressQueue::new(2);
        assert!(q.push(1).is_ok());
        assert!(q.push(2).is_ok());
        assert_eq!(q.push(3), Err(3));
        assert_eq!(q.pressure(), (2, 1));
        // Popping frees capacity again, oldest first.
        assert_eq!(q.pop(), Some(1));
        assert!(q.push(4).is_ok());
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(4));
    }

    #[test]
    fn close_drains_then_ends() {
        let q = IngressQueue::new(8);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.close();
        assert_eq!(q.push(3), Err(3));
        assert_eq!(q.pop(), Some(1), "closed, but not yet drained");
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_blocks_until_push() {
        let q = Arc::new(IngressQueue::new(4));
        let (started, has_started) = channel();
        let (popped, has_popped) = channel();
        let popper = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                started.send(()).unwrap();
                popped.send(q.pop()).unwrap();
            })
        };
        has_started.recv().unwrap();
        // Nothing was pushed and the queue is open: the popper can only
        // be blocked (or about to block), never back with an answer.
        assert!(has_popped.try_recv().is_err());
        q.push(42).unwrap();
        assert_eq!(has_popped.recv().unwrap(), Some(42));
        popper.join().unwrap();
    }

    #[test]
    fn two_poppers_get_distinct_items() {
        let q = Arc::new(IngressQueue::new(64));
        let poppers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || std::iter::from_fn(|| q.pop()).collect::<Vec<u32>>())
            })
            .collect();
        for i in 0..64 {
            q.push(i).unwrap();
        }
        q.close();
        let mut all: Vec<u32> = poppers
            .into_iter()
            .flat_map(|t| t.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..64).collect::<Vec<_>>(), "each item popped once");
    }
}
