//! A bounded multi-producer multi-consumer channel, built entirely on
//! the model-checked [`Mutex`] and [`Condvar`].
//!
//! The channel is a *library* composition rather than a primitive: every
//! operation decomposes into the underlying lock and condition-variable
//! scheduling points, so the model checker explores its internal
//! interleavings too — the same way it would explore a channel the
//! program under test implemented itself.

use std::collections::VecDeque;
use std::fmt;

use crate::sync::{Condvar, Mutex};

/// A bounded FIFO channel.
///
/// [`send`](Channel::send) blocks (in model time) while the channel is
/// full, [`recv`](Channel::recv) while it is empty; [`close`](Channel::close)
/// wakes all blocked receivers, which then drain the remaining items and
/// observe `None`.
///
/// # Examples
///
/// ```
/// use icb_core::search::Search;
/// use icb_runtime::{RuntimeProgram, sync::Channel, thread};
/// use std::sync::Arc;
///
/// let program = RuntimeProgram::new(|| {
///     let ch = Arc::new(Channel::bounded(1));
///     let producer = {
///         let ch = Arc::clone(&ch);
///         thread::spawn(move || {
///             for i in 0..2 {
///                 ch.send(i);
///             }
///             ch.close();
///         })
///     };
///     let mut got = Vec::new();
///     while let Some(v) = ch.recv() {
///         got.push(v);
///     }
///     producer.join();
///     assert_eq!(got, vec![0, 1]); // FIFO, nothing lost
/// });
/// let report = Search::over(&program).run().unwrap();
/// assert!(report.completed && report.bugs.is_empty());
/// ```
pub struct Channel<T> {
    state: Mutex<ChannelState<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
}

struct ChannelState<T> {
    queue: VecDeque<T>,
    closed: bool,
}

impl<T> Channel<T> {
    /// Creates a channel holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (rendezvous channels are not
    /// modeled) or if called outside a running execution.
    pub fn bounded(capacity: usize) -> Self {
        assert!(capacity > 0, "channel capacity must be positive");
        Channel {
            state: Mutex::new(ChannelState {
                queue: VecDeque::new(),
                closed: false,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity,
        }
    }

    /// Sends `value`, blocking while the channel is full.
    ///
    /// Under a fault bound the internal waits may wake spuriously; the
    /// re-check loop here absorbs that, so `send` itself never fails —
    /// use [`try_send`](Channel::try_send) for the fallible variant.
    ///
    /// # Panics
    ///
    /// Panics if the channel is closed — sending after close is a
    /// protocol bug the checker should surface.
    pub fn send(&self, value: T) {
        let mut state = self.state.lock();
        while state.queue.len() == self.capacity && !state.closed {
            state = self.not_full.wait(state);
        }
        assert!(!state.closed, "send on closed channel");
        state.queue.push_back(value);
        drop(state);
        self.not_empty.notify_one();
    }

    /// Receives the next value; returns `None` once the channel is
    /// closed *and* drained.
    pub fn recv(&self) -> Option<T> {
        let mut state = self.state.lock();
        loop {
            if let Some(v) = state.queue.pop_front() {
                drop(state);
                self.not_full.notify_one();
                return Some(v);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state);
        }
    }

    /// Attempts to send without blocking, returning the value if the
    /// channel is full right now.
    ///
    /// This is a *designated fallible operation*: under a search with a
    /// fault bound, the scheduler may also fail the send transiently at
    /// the `channel-send` fail point even though space is available —
    /// modeling a timed-out or spuriously rejected bounded send. Callers
    /// must therefore be prepared to retry or shed the value.
    ///
    /// # Errors
    ///
    /// Returns `Err(Full(value))` when the queue is at capacity or a
    /// fault was injected.
    ///
    /// # Panics
    ///
    /// Panics if the channel is closed, as for [`send`](Channel::send).
    pub fn try_send(&self, value: T) -> Result<(), Full<T>> {
        let mut state = self.state.lock();
        assert!(!state.closed, "send on closed channel");
        if state.queue.len() == self.capacity || crate::fail_point("channel-send") {
            return Err(Full(value));
        }
        state.queue.push_back(value);
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Attempts to receive without blocking. `Ok(None)` means the
    /// channel is currently empty but still open.
    ///
    /// # Errors
    ///
    /// Returns `Err(Closed)` once the channel is closed and drained.
    pub fn try_recv(&self) -> Result<Option<T>, Closed> {
        let mut state = self.state.lock();
        if let Some(v) = state.queue.pop_front() {
            drop(state);
            self.not_full.notify_one();
            return Ok(Some(v));
        }
        if state.closed {
            return Err(Closed);
        }
        Ok(None)
    }

    /// Closes the channel: subsequent `recv`s drain then yield `None`;
    /// blocked receivers and senders wake.
    pub fn close(&self) {
        let mut state = self.state.lock();
        state.closed = true;
        drop(state);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Number of queued items right now (racy the moment it returns —
    /// useful in assertions guarded by external synchronization only).
    pub fn len(&self) -> usize {
        self.state.lock().queue.len()
    }

    /// Whether the queue is currently empty (same caveat as
    /// [`len`](Channel::len)).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> fmt::Debug for Channel<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Channel")
            .field("capacity", &self.capacity)
            .finish()
    }
}

/// Error returned by [`Channel::try_send`]: the channel was full (or a
/// fault was injected), and here is the value back.
pub struct Full<T>(pub T);

impl<T> fmt::Debug for Full<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The payload may not be Debug; identity is enough.
        f.write_str("Full(..)")
    }
}

impl<T> fmt::Display for Full<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "channel full")
    }
}

impl<T> std::error::Error for Full<T> {}

/// Error returned by [`Channel::try_recv`] on a closed, drained channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Closed;

impl fmt::Display for Closed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "channel closed")
    }
}

impl std::error::Error for Closed {}
