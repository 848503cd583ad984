//! Offline stand-in for `crossbeam`, mapping the two facilities this
//! workspace uses onto the standard library:
//!
//! * [`thread::scope`] — crossbeam's scoped-thread API (closure receives the
//!   scope, `scope()` returns a `Result`) implemented over
//!   `std::thread::scope`, which has provided equivalent borrowing
//!   guarantees since Rust 1.63;
//! * [`channel::bounded`] — bounded MPSC channels over
//!   `std::sync::mpsc::sync_channel` (the workspace only ever sends,
//!   receives, and drops — no `select!`, no `try_iter`).

pub mod thread {
    use std::thread as std_thread;

    /// A scope handle mirroring `crossbeam::thread::Scope`: spawned closures
    /// receive the scope again so they could spawn nested workers.
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std_thread::Scope<'scope, 'env>,
    }

    impl<'scope, 'env> Clone for Scope<'scope, 'env> {
        fn clone(&self) -> Self {
            *self
        }
    }

    impl<'scope, 'env> Copy for Scope<'scope, 'env> {}

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawns a scoped thread; the closure gets the scope as argument
        /// (crossbeam's signature — every caller here ignores it).
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self.inner;
            ScopedJoinHandle(inner.spawn(move || f(&Scope { inner })))
        }
    }

    /// Join handle for a scoped thread.
    pub struct ScopedJoinHandle<'scope, T>(std_thread::ScopedJoinHandle<'scope, T>);

    impl<'scope, T> ScopedJoinHandle<'scope, T> {
        /// Waits for the thread; `Err` carries the panic payload.
        pub fn join(self) -> std_thread::Result<T> {
            self.0.join()
        }
    }

    /// Runs `f` with a scope in which borrowing threads can be spawned; all
    /// threads are joined before returning. Crossbeam returns `Err` when a
    /// spawned thread panicked; `std::thread::scope` instead resumes the
    /// panic on the owning thread, so the `Err` arm here is unreachable in
    /// practice — callers' `.expect("crossbeam scope failed")` still
    /// typechecks and behaves identically (a panic either way).
    pub fn scope<'env, F, R>(f: F) -> std_thread::Result<R>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        Ok(std_thread::scope(|s| f(&Scope { inner: s })))
    }
}

pub mod channel {
    //! Bounded MPMC channel over Mutex + Condvar. Unlike
    //! `std::sync::mpsc`, both halves are `Sync` (crossbeam's are), so
    //! scoped threads can *borrow* a receiver instead of moving it.

    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex};

    struct Inner<T> {
        state: Mutex<State<T>>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    struct State<T> {
        queue: VecDeque<T>,
        cap: usize,
        senders: usize,
        receivers: usize,
    }

    /// Error returned by [`Sender::send`] when all receivers are gone.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Sender::try_send`], mirroring crossbeam's type:
    /// the value comes back either because the queue is full or because all
    /// receivers are gone.
    #[derive(Debug, PartialEq, Eq)]
    pub enum TrySendError<T> {
        Full(T),
        Disconnected(T),
    }

    /// Error returned by [`Receiver::recv`] when empty and all senders gone.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    /// Sending half; cloneable, `Send + Sync`.
    pub struct Sender<T>(Arc<Inner<T>>);

    /// Receiving half; cloneable, `Send + Sync`.
    pub struct Receiver<T>(Arc<Inner<T>>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.state.lock().expect("channel poisoned").senders += 1;
            Sender(self.0.clone())
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.state.lock().expect("channel poisoned").receivers += 1;
            Receiver(self.0.clone())
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.0.state.lock().expect("channel poisoned");
            state.senders -= 1;
            if state.senders == 0 {
                drop(state);
                self.0.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut state = self.0.state.lock().expect("channel poisoned");
            state.receivers -= 1;
            if state.receivers == 0 {
                drop(state);
                self.0.not_full.notify_all();
            }
        }
    }

    impl<T> Sender<T> {
        /// Blocks until there is room; `Err` when every receiver is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut state = self.0.state.lock().expect("channel poisoned");
            loop {
                if state.receivers == 0 {
                    return Err(SendError(value));
                }
                if state.queue.len() < state.cap {
                    state.queue.push_back(value);
                    drop(state);
                    self.0.not_empty.notify_one();
                    return Ok(());
                }
                state = self.0.not_full.wait(state).expect("channel poisoned");
            }
        }

        /// Non-blocking send: fails with [`TrySendError::Full`] instead of
        /// waiting for room (the backpressure-aware path — callers keep the
        /// value and do other work).
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let mut state = self.0.state.lock().expect("channel poisoned");
            if state.receivers == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            if state.queue.len() < state.cap {
                state.queue.push_back(value);
                drop(state);
                self.0.not_empty.notify_one();
                Ok(())
            } else {
                Err(TrySendError::Full(value))
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a value arrives; `Err` when empty with no senders.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.0.state.lock().expect("channel poisoned");
            loop {
                if let Some(value) = state.queue.pop_front() {
                    drop(state);
                    self.0.not_full.notify_one();
                    return Ok(value);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state = self.0.not_empty.wait(state).expect("channel poisoned");
            }
        }

        /// Non-blocking receive: `None` when currently empty.
        pub fn try_recv(&self) -> Option<T> {
            let mut state = self.0.state.lock().expect("channel poisoned");
            let value = state.queue.pop_front();
            if value.is_some() {
                drop(state);
                self.0.not_full.notify_one();
            }
            value
        }
    }

    /// A bounded channel with capacity `cap` (capacity 0 is treated as 1;
    /// true rendezvous semantics are not needed in this workspace).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                cap: cap.max(1),
                senders: 1,
                receivers: 1,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (Sender(inner.clone()), Receiver(inner))
    }

    /// An unbounded channel (`crossbeam::channel::unbounded`).
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        bounded(usize::MAX)
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn scope_joins_and_returns() {
        let data = [1u64, 2, 3, 4];
        let total: u64 = crate::thread::scope(|scope| {
            let handles: Vec<_> = data
                .chunks(2)
                .map(|chunk| scope.spawn(move |_| chunk.iter().sum::<u64>()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        })
        .expect("scope failed");
        assert_eq!(total, 10);
    }

    #[test]
    fn bounded_channel_round_trip() {
        let (tx, rx) = crate::channel::bounded::<u32>(1);
        let got: Vec<u32> = crate::thread::scope(|scope| {
            scope.spawn(move |_| {
                for i in 0..5 {
                    tx.send(i).unwrap();
                }
            });
            (0..5).map(|_| rx.recv().unwrap()).collect()
        })
        .expect("scope failed");
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn try_send_reports_full_and_disconnected() {
        use crate::channel::TrySendError;
        let (tx, rx) = crate::channel::bounded::<u32>(2);
        assert_eq!(tx.try_send(1), Ok(()));
        assert_eq!(tx.try_send(2), Ok(()));
        assert_eq!(tx.try_send(3), Err(TrySendError::Full(3)));
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(tx.try_send(3), Ok(()));
        drop(rx);
        assert_eq!(tx.try_send(4), Err(TrySendError::Disconnected(4)));
    }
}
