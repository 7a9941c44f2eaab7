//! Offline stand-in for `crossbeam`.
//!
//! Provides the `channel` module subset the workspace once used —
//! [`channel::unbounded`], cloneable [`channel::Sender`]s and
//! [`channel::Receiver`]s — implemented on `std::sync::mpsc`. Semantics
//! match crossbeam for the single-consumer usage in this workspace:
//! `send` fails once the receiver is dropped, `recv` fails once all
//! senders are dropped.

pub mod channel {
    use std::sync::mpsc;
    use std::sync::{Arc, Mutex};

    /// Error returned by [`Sender::send`] when the channel is disconnected.
    #[derive(Debug)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// disconnected.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The channel is currently empty.
        Empty,
        /// All senders have disconnected.
        Disconnected,
    }

    /// Sending half of an unbounded channel.
    pub struct Sender<T>(mpsc::Sender<T>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(self.0.clone())
        }
    }

    impl<T> Sender<T> {
        /// Send `value`, failing if the receiver was dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.0.send(value).map_err(|mpsc::SendError(v)| SendError(v))
        }
    }

    /// Receiving half of an unbounded channel.
    ///
    /// Unlike `std::sync::mpsc`, crossbeam receivers are `Clone + Sync`;
    /// the shim matches that by serialising access through a mutex.
    pub struct Receiver<T>(Arc<Mutex<mpsc::Receiver<T>>>);

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            Receiver(Arc::clone(&self.0))
        }
    }

    impl<T> Receiver<T> {
        /// Block until a message arrives or all senders disconnect.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.0.lock().expect("channel poisoned").recv().map_err(|_| RecvError)
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.0.lock().expect("channel poisoned").try_recv().map_err(|e| match e {
                mpsc::TryRecvError::Empty => TryRecvError::Empty,
                mpsc::TryRecvError::Disconnected => TryRecvError::Disconnected,
            })
        }

        /// Blocking iterator over incoming messages; ends on disconnect.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { rx: self }
        }
    }

    /// Iterator returned by [`Receiver::iter`].
    pub struct Iter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    /// Create an unbounded MPMC-ish channel (MPSC is sufficient for the
    /// workspace's master/worker topology).
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender(tx), Receiver(Arc::new(Mutex::new(rx))))
    }
}
