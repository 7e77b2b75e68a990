//! Offline shim for the subset of `crossbeam` this workspace uses: the
//! bounded MPMC channel and the work-stealing deque. The channel is
//! built over `std::sync` (Mutex + Condvar); both `Sender` and
//! `Receiver` are cloneable, sends block when the buffer is full (that
//! backpressure is what makes the pipeline's bounded inter-stage
//! buffers meaningful), and disconnection is reported the crossbeam
//! way: `send` fails once all receivers are gone, `recv` fails once the
//! buffer is drained and all senders are gone. A hand-off notifies a
//! condvar only when a receiver or sender is blocked on it. The deque
//! module implements the Chase-Lev owner/stealer split plus a shared
//! injector queue, mirroring `crossbeam_deque`'s
//! `Worker`/`Stealer`/`Injector` API subset used by the runtime
//! executor.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, PoisonError};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
        /// Receivers blocked on `not_empty` and senders blocked on
        /// `not_full`: a hand-off notifies only when someone waits, so
        /// an uncontended send or receive makes no condvar call.
        recv_waiting: usize,
        send_waiting: usize,
    }

    impl<T> State<T> {
        /// Pop the oldest element, waking one blocked sender if any.
        fn pop(&mut self, chan: &Chan<T>) -> Option<T> {
            let value = self.queue.pop_front()?;
            chan.depth.store(self.queue.len(), Ordering::Relaxed);
            if self.send_waiting > 0 {
                chan.not_full.notify_one();
            }
            Some(value)
        }
    }

    struct Chan<T> {
        state: Mutex<State<T>>,
        capacity: usize,
        /// Mirror of `state.queue.len()`, updated under the state lock
        /// but readable without it — crossbeam's `len()` is lock-free,
        /// and telemetry samples queue occupancy from hot worker loops,
        /// so `len()` must not contend with senders and receivers.
        depth: AtomicUsize,
        not_empty: Condvar,
        not_full: Condvar,
    }

    /// The sending half of a channel.
    pub struct Sender<T> {
        chan: Arc<Chan<T>>,
    }

    /// The receiving half of a channel.
    pub struct Receiver<T> {
        chan: Arc<Chan<T>>,
    }

    /// Error returned by [`Sender::send`] when all receivers are gone;
    /// carries the unsent value like crossbeam's.
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "SendError(..)")
        }
    }

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// all senders are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }

    /// Create a bounded MPMC channel with the given buffer capacity.
    /// Capacity 0 (crossbeam's rendezvous channel) is modeled as
    /// capacity 1 — no caller in this workspace uses rendezvous
    /// semantics.
    pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
                recv_waiting: 0,
                send_waiting: 0,
            }),
            capacity: capacity.max(1),
            depth: AtomicUsize::new(0),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (Sender { chan: chan.clone() }, Receiver { chan })
    }

    /// Create an effectively unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        bounded(usize::MAX)
    }

    impl<T> Sender<T> {
        /// Block until buffer space is available, then enqueue `value`.
        /// Fails (returning the value) once every receiver is dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut st = self.chan.state.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if st.receivers == 0 {
                    return Err(SendError(value));
                }
                if st.queue.len() < self.chan.capacity {
                    st.queue.push_back(value);
                    self.chan.depth.store(st.queue.len(), Ordering::Relaxed);
                    if st.recv_waiting > 0 {
                        self.chan.not_empty.notify_one();
                    }
                    return Ok(());
                }
                st.send_waiting += 1;
                st = self
                    .chan
                    .not_full
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
                st.send_waiting -= 1;
            }
        }
    }

    impl<T> Receiver<T> {
        /// Block until an element is available. Fails once the buffer is
        /// empty and every sender is dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.chan.state.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(v) = st.pop(&self.chan) {
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st.recv_waiting += 1;
                st = self
                    .chan
                    .not_empty
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
                st.recv_waiting -= 1;
            }
        }

        /// Block for at most `timeout` waiting for an element. Returns
        /// `Disconnected` once the buffer is empty and every sender is
        /// dropped, `Timeout` if the duration elapses first.
        pub fn recv_timeout(&self, timeout: std::time::Duration) -> Result<T, RecvTimeoutError> {
            let deadline = std::time::Instant::now() + timeout;
            let mut st = self.chan.state.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(v) = st.pop(&self.chan) {
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = std::time::Instant::now();
                let Some(remaining) = deadline.checked_duration_since(now).filter(|d| !d.is_zero())
                else {
                    return Err(RecvTimeoutError::Timeout);
                };
                st.recv_waiting += 1;
                let (guard, _timed_out) = self
                    .chan
                    .not_empty
                    .wait_timeout(st, remaining)
                    .unwrap_or_else(PoisonError::into_inner);
                st = guard;
                st.recv_waiting -= 1;
            }
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.chan.state.lock().unwrap_or_else(PoisonError::into_inner);
            match st.pop(&self.chan) {
                Some(v) => Ok(v),
                None if st.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        /// Number of elements currently buffered (approximate under
        /// races, like crossbeam's — reads a lock-free mirror rather
        /// than contending with senders and receivers).
        pub fn len(&self) -> usize {
            self.chan.depth.load(Ordering::Relaxed)
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Sender<T> {
            self.chan
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .senders += 1;
            Sender { chan: self.chan.clone() }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Receiver<T> {
            self.chan
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .receivers += 1;
            Receiver { chan: self.chan.clone() }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.chan.state.lock().unwrap_or_else(PoisonError::into_inner);
            st.senders -= 1;
            if st.senders == 0 {
                // Wake blocked receivers so they can observe disconnection.
                self.chan.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self.chan.state.lock().unwrap_or_else(PoisonError::into_inner);
            st.receivers -= 1;
            if st.receivers == 0 {
                // Wake blocked senders so they can observe disconnection.
                self.chan.not_full.notify_all();
            }
        }
    }

    #[cfg(test)]
    mod channel_tests {
        use super::*;

        #[test]
        fn fifo_within_single_consumer() {
            let (tx, rx) = bounded(4);
            for i in 0..4 {
                tx.send(i).unwrap();
            }
            drop(tx);
            assert_eq!(
                std::iter::from_fn(|| rx.recv().ok()).collect::<Vec<_>>(),
                vec![0, 1, 2, 3]
            );
        }

        #[test]
        fn recv_fails_after_all_senders_drop() {
            let (tx, rx) = bounded::<i32>(2);
            let tx2 = tx.clone();
            drop(tx);
            tx2.send(9).unwrap();
            drop(tx2);
            assert_eq!(rx.recv(), Ok(9));
            assert_eq!(rx.recv(), Err(RecvError));
        }

        #[test]
        fn send_fails_after_all_receivers_drop() {
            let (tx, rx) = bounded::<i32>(1);
            drop(rx);
            assert!(tx.send(1).is_err());
        }

        #[test]
        fn bounded_send_blocks_until_room() {
            let (tx, rx) = bounded::<i32>(1);
            tx.send(1).unwrap();
            let t = std::thread::spawn(move || tx.send(2).map_err(|_| ()));
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert_eq!(rx.recv(), Ok(1));
            t.join().unwrap().unwrap();
            assert_eq!(rx.recv(), Ok(2));
        }

        #[test]
        fn recv_timeout_times_out_then_succeeds() {
            let (tx, rx) = bounded::<i32>(2);
            assert_eq!(
                rx.recv_timeout(std::time::Duration::from_millis(10)),
                Err(RecvTimeoutError::Timeout)
            );
            tx.send(5).unwrap();
            assert_eq!(rx.recv_timeout(std::time::Duration::from_millis(10)), Ok(5));
            drop(tx);
            assert_eq!(
                rx.recv_timeout(std::time::Duration::from_millis(10)),
                Err(RecvTimeoutError::Disconnected)
            );
        }

        #[test]
        fn mpmc_consumes_every_item_once() {
            let (tx, rx) = bounded::<usize>(8);
            let consumers: Vec<_> = (0..4)
                .map(|_| {
                    let rx = rx.clone();
                    std::thread::spawn(move || {
                        let mut got = Vec::new();
                        while let Ok(v) = rx.recv() {
                            got.push(v);
                        }
                        got
                    })
                })
                .collect();
            drop(rx);
            for i in 0..1000 {
                tx.send(i).unwrap();
            }
            drop(tx);
            let mut all: Vec<usize> = consumers
                .into_iter()
                .flat_map(|t| t.join().unwrap())
                .collect();
            all.sort_unstable();
            assert_eq!(all, (0..1000).collect::<Vec<_>>());
        }

        /// Spin (yielding, no timer) until `blocked` holds of the state,
        /// i.e. until the other thread is parked on a condvar.
        fn until<T>(chan: &Chan<T>, blocked: impl Fn(&State<T>) -> bool) {
            while !blocked(&chan.state.lock().unwrap()) {
                std::thread::yield_now();
            }
        }

        #[test]
        fn a_blocked_recv_wakes_on_send() {
            let (tx, rx) = bounded::<i32>(1);
            let chan = rx.chan.clone();
            let t = std::thread::spawn(move || rx.recv());
            until(&chan, |st| st.recv_waiting == 1);
            tx.send(7).unwrap();
            assert_eq!(t.join().unwrap(), Ok(7));
        }

        #[test]
        fn a_blocked_send_on_a_full_buffer_wakes_on_recv() {
            let (tx, rx) = bounded::<i32>(1);
            tx.send(1).unwrap();
            let chan = tx.chan.clone();
            let t = std::thread::spawn(move || tx.send(2).map_err(|_| ()));
            until(&chan, |st| st.send_waiting == 1);
            assert_eq!(rx.recv(), Ok(1));
            t.join().unwrap().unwrap();
            assert_eq!(rx.recv(), Ok(2));
        }

        #[test]
        fn many_senders_and_receivers_at_capacity_one_deliver_each_value_once() {
            const SENDERS: usize = 4;
            const RECEIVERS: usize = 3;
            const PER_SENDER: usize = 500;
            let (tx, rx) = bounded::<usize>(1);
            let receivers: Vec<_> = (0..RECEIVERS)
                .map(|_| {
                    let rx = rx.clone();
                    std::thread::spawn(move || std::iter::from_fn(|| rx.recv().ok()).collect::<Vec<_>>())
                })
                .collect();
            drop(rx);
            let senders: Vec<_> = (0..SENDERS)
                .map(|s| {
                    let tx = tx.clone();
                    std::thread::spawn(move || {
                        for i in 0..PER_SENDER {
                            tx.send(s * PER_SENDER + i).unwrap();
                        }
                    })
                })
                .collect();
            drop(tx);
            for t in senders {
                t.join().unwrap();
            }
            let mut all: Vec<usize> = receivers.into_iter().flat_map(|t| t.join().unwrap()).collect();
            all.sort_unstable();
            assert_eq!(all, (0..SENDERS * PER_SENDER).collect::<Vec<_>>());
        }
    }
}

pub mod deque {
    //! Chase-Lev work-stealing deque plus a shared injector queue.
    //!
    //! The `Worker` owns the bottom end of a fixed-capacity ring: it
    //! pushes and pops there without contention (LIFO, cache-warm).
    //! `Stealer` handles take from the top end (FIFO, oldest first) and
    //! race each other — and the owner's pop of the last element — with
    //! a single CAS on `top`. Memory orderings follow Lê, Pop &
    //! Cohen, "Correct and Efficient Work-Stealing for Weak Memory
    //! Models" (PPoPP 2013). Unlike crossbeam's growable buffer (which
    //! needs epoch reclamation to retire old rings), this shim keeps
    //! one fixed ring and reports overflow from `push` by handing the
    //! value back — callers overflow into the [`Injector`].

    use std::cell::UnsafeCell;
    use std::collections::VecDeque;
    use std::mem::MaybeUninit;
    use std::sync::atomic::{fence, AtomicIsize, Ordering};
    use std::sync::{Arc, Mutex, PoisonError};

    /// Result of a steal attempt.
    #[derive(Debug)]
    pub enum Steal<T> {
        /// The queue was observed empty.
        Empty,
        /// Lost a race with another consumer; worth retrying.
        Retry,
        /// Took this value.
        Success(T),
    }

    impl<T> Steal<T> {
        pub fn is_empty(&self) -> bool {
            matches!(self, Steal::Empty)
        }

        pub fn success(self) -> Option<T> {
            match self {
                Steal::Success(v) => Some(v),
                _ => None,
            }
        }
    }

    struct Ring<T> {
        slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
        mask: usize,
        /// Steal end. Monotonically increasing; `slots[top..bottom]`
        /// are initialized.
        top: AtomicIsize,
        /// Owner end. Only the `Worker` writes it (except transiently
        /// during its own pop).
        bottom: AtomicIsize,
    }

    unsafe impl<T: Send> Send for Ring<T> {}
    unsafe impl<T: Send> Sync for Ring<T> {}

    impl<T> Ring<T> {
        fn with_capacity(capacity: usize) -> Ring<T> {
            let cap = capacity.next_power_of_two().max(2);
            let slots = (0..cap)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect::<Vec<_>>()
                .into_boxed_slice();
            Ring { slots, mask: cap - 1, top: AtomicIsize::new(0), bottom: AtomicIsize::new(0) }
        }

        /// Write `value` into the slot for `index`. Caller must hold
        /// the unique right to that slot (owner push below `bottom`).
        unsafe fn write(&self, index: isize, value: T) {
            let slot = &self.slots[(index as usize) & self.mask];
            (*slot.get()).write(value);
        }

        /// Copy the value out of the slot for `index`. The copy is only
        /// valid to use if the caller subsequently wins the CAS (or is
        /// the owner above `top`); losers must `mem::forget` it.
        unsafe fn read(&self, index: isize) -> T {
            let slot = &self.slots[(index as usize) & self.mask];
            (*slot.get()).assume_init_read()
        }
    }

    impl<T> Drop for Ring<T> {
        fn drop(&mut self) {
            let t = *self.top.get_mut();
            let b = *self.bottom.get_mut();
            let mut i = t;
            while i != b {
                unsafe { drop(self.read(i)) };
                i = i.wrapping_add(1);
            }
        }
    }

    /// Owner handle: single-threaded push/pop at the bottom end.
    pub struct Worker<T> {
        ring: Arc<Ring<T>>,
    }

    // The owner may move between threads (a lane handing its deque to a
    // successor) but must never be shared: no `Sync` impl.
    unsafe impl<T: Send> Send for Worker<T> {}

    impl<T> Worker<T> {
        /// Create a deque whose ring holds at least `capacity` items
        /// (rounded up to a power of two).
        pub fn with_capacity(capacity: usize) -> Worker<T> {
            Worker { ring: Arc::new(Ring::with_capacity(capacity)) }
        }

        /// Create a stealer handle for this deque; cloneable and
        /// shareable across threads.
        pub fn stealer(&self) -> Stealer<T> {
            Stealer { ring: self.ring.clone() }
        }

        /// Push at the bottom end. Returns the value back if the ring
        /// is full — the caller overflows into the [`Injector`].
        pub fn push(&self, value: T) -> Result<(), T> {
            let b = self.ring.bottom.load(Ordering::Relaxed);
            let t = self.ring.top.load(Ordering::Acquire);
            if b.wrapping_sub(t) >= self.ring.slots.len() as isize {
                return Err(value);
            }
            unsafe { self.ring.write(b, value) };
            self.ring.bottom.store(b.wrapping_add(1), Ordering::Release);
            Ok(())
        }

        /// Pop from the bottom end (most recently pushed first). Races
        /// stealers only when one element remains.
        pub fn pop(&self) -> Option<T> {
            let b = self.ring.bottom.load(Ordering::Relaxed).wrapping_sub(1);
            self.ring.bottom.store(b, Ordering::Relaxed);
            fence(Ordering::SeqCst);
            let t = self.ring.top.load(Ordering::Relaxed);
            let size = b.wrapping_sub(t);
            if size < 0 {
                // Deque was empty; restore bottom.
                self.ring.bottom.store(b.wrapping_add(1), Ordering::Relaxed);
                return None;
            }
            let value = unsafe { self.ring.read(b) };
            if size > 0 {
                return Some(value);
            }
            // Last element: race stealers for it via the top CAS.
            let won = self
                .ring
                .top
                .compare_exchange(t, t.wrapping_add(1), Ordering::SeqCst, Ordering::Relaxed)
                .is_ok();
            self.ring.bottom.store(b.wrapping_add(1), Ordering::Relaxed);
            if won {
                Some(value)
            } else {
                // A stealer took it; our speculative copy must not drop.
                std::mem::forget(value);
                None
            }
        }

        /// Observed number of queued items (approximate under races).
        pub fn len(&self) -> usize {
            let b = self.ring.bottom.load(Ordering::Relaxed);
            let t = self.ring.top.load(Ordering::Relaxed);
            b.wrapping_sub(t).max(0) as usize
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    /// Thief handle: concurrent FIFO takes from the top end.
    pub struct Stealer<T> {
        ring: Arc<Ring<T>>,
    }

    unsafe impl<T: Send> Send for Stealer<T> {}
    unsafe impl<T: Send> Sync for Stealer<T> {}

    impl<T> Clone for Stealer<T> {
        fn clone(&self) -> Stealer<T> {
            Stealer { ring: self.ring.clone() }
        }
    }

    impl<T> Stealer<T> {
        /// Try to take the oldest element.
        pub fn steal(&self) -> Steal<T> {
            let t = self.ring.top.load(Ordering::Acquire);
            fence(Ordering::SeqCst);
            let b = self.ring.bottom.load(Ordering::Acquire);
            if b.wrapping_sub(t) <= 0 {
                return Steal::Empty;
            }
            let value = unsafe { self.ring.read(t) };
            if self
                .ring
                .top
                .compare_exchange(t, t.wrapping_add(1), Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
            {
                Steal::Success(value)
            } else {
                // Lost to the owner or another thief; drop the
                // speculative copy without running destructors.
                std::mem::forget(value);
                Steal::Retry
            }
        }

        pub fn len(&self) -> usize {
            let b = self.ring.bottom.load(Ordering::Relaxed);
            let t = self.ring.top.load(Ordering::Relaxed);
            b.wrapping_sub(t).max(0) as usize
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    /// Shared FIFO entry queue: any thread pushes, lanes steal. Backed
    /// by a mutexed `VecDeque` — the injector is the cold path (new
    /// submissions and deque overflow), so lock cost is acceptable and
    /// batch transfer amortizes it further.
    pub struct Injector<T> {
        queue: Mutex<VecDeque<T>>,
    }

    /// Cap on how many items one `steal_batch_and_pop` moves; keeps a
    /// single lane from draining the shared queue while siblings starve.
    const MAX_BATCH: usize = 16;

    impl<T> Default for Injector<T> {
        fn default() -> Self {
            Injector::new()
        }
    }

    impl<T> Injector<T> {
        pub fn new() -> Injector<T> {
            Injector { queue: Mutex::new(VecDeque::new()) }
        }

        pub fn push(&self, value: T) {
            self.queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push_back(value);
        }

        /// Take the oldest element.
        pub fn steal(&self) -> Steal<T> {
            match self
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .pop_front()
            {
                Some(v) => Steal::Success(v),
                None => Steal::Empty,
            }
        }

        /// Take the oldest element and move up to half the remainder
        /// (capped) into `dest`, preserving FIFO order. Items that do
        /// not fit in `dest` stay queued here.
        pub fn steal_batch_and_pop(&self, dest: &Worker<T>) -> Steal<T> {
            let mut q = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
            let Some(first) = q.pop_front() else {
                return Steal::Empty;
            };
            let batch = (q.len() / 2).min(MAX_BATCH);
            for _ in 0..batch {
                let Some(v) = q.pop_front() else { break };
                if let Err(v) = dest.push(v) {
                    q.push_front(v);
                    break;
                }
            }
            Steal::Success(first)
        }

        pub fn len(&self) -> usize {
            self.queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    #[cfg(test)]
    mod deque_tests {
        use super::*;
        use std::sync::atomic::AtomicUsize;

        #[test]
        fn owner_pop_is_lifo_steal_is_fifo() {
            let w = Worker::with_capacity(8);
            let s = w.stealer();
            for i in 0..4 {
                w.push(i).unwrap();
            }
            assert_eq!(w.pop(), Some(3));
            assert!(matches!(s.steal(), Steal::Success(0)));
            assert!(matches!(s.steal(), Steal::Success(1)));
            assert_eq!(w.pop(), Some(2));
            assert_eq!(w.pop(), None);
            assert!(s.steal().is_empty());
        }

        #[test]
        fn push_reports_overflow_and_recovers_after_pop() {
            let w = Worker::with_capacity(2);
            w.push(1).unwrap();
            w.push(2).unwrap();
            assert_eq!(w.push(3), Err(3));
            assert_eq!(w.pop(), Some(2));
            w.push(4).unwrap();
            assert_eq!(w.len(), 2);
        }

        #[test]
        fn ring_wraps_across_many_cycles() {
            let w = Worker::with_capacity(4);
            let s = w.stealer();
            let mut expected = 0;
            for round in 0..100 {
                w.push(round * 2).unwrap();
                w.push(round * 2 + 1).unwrap();
                assert!(matches!(s.steal(), Steal::Success(v) if v == expected));
                expected += 1;
                assert!(matches!(s.steal(), Steal::Success(v) if v == expected));
                expected += 1;
            }
            assert!(s.steal().is_empty());
        }

        #[test]
        fn drop_releases_unconsumed_items() {
            static DROPS: AtomicUsize = AtomicUsize::new(0);
            #[derive(Debug)]
            struct D;
            impl Drop for D {
                fn drop(&mut self) {
                    DROPS.fetch_add(1, Ordering::SeqCst);
                }
            }
            let w = Worker::with_capacity(8);
            for _ in 0..5 {
                w.push(D).unwrap();
            }
            drop(w.pop());
            drop(w);
            assert_eq!(DROPS.load(Ordering::SeqCst), 5);
        }

        #[test]
        fn injector_batch_pop_moves_items_in_order() {
            let inj = Injector::new();
            for i in 0..10 {
                inj.push(i);
            }
            let w = Worker::with_capacity(16);
            let s = w.stealer();
            assert!(matches!(inj.steal_batch_and_pop(&w), Steal::Success(0)));
            // Half of the remaining nine (4) moved into the worker.
            assert_eq!(w.len(), 4);
            assert_eq!(inj.len(), 5);
            assert!(matches!(s.steal(), Steal::Success(1)));
            assert!(matches!(inj.steal(), Steal::Success(5)));
        }

        #[test]
        fn concurrent_owner_and_stealers_consume_each_item_once() {
            const ITEMS: usize = 10_000;
            let w: Worker<usize> = Worker::with_capacity(64);
            let inj = Arc::new(Injector::new());
            let seen: Arc<Vec<AtomicUsize>> =
                Arc::new((0..ITEMS).map(|_| AtomicUsize::new(0)).collect());
            let done = Arc::new(std::sync::atomic::AtomicBool::new(false));

            let thieves: Vec<_> = (0..3)
                .map(|_| {
                    let s = w.stealer();
                    let seen = seen.clone();
                    let done = done.clone();
                    std::thread::spawn(move || loop {
                        match s.steal() {
                            Steal::Success(v) => {
                                seen[v].fetch_add(1, Ordering::SeqCst);
                            }
                            Steal::Retry => std::hint::spin_loop(),
                            Steal::Empty => {
                                if done.load(Ordering::SeqCst) {
                                    break;
                                }
                                std::thread::yield_now();
                            }
                        }
                    })
                })
                .collect();

            // Owner interleaves pushes with pops; ring overflow spills
            // into the injector exactly like the executor does.
            for i in 0..ITEMS {
                if let Err(v) = w.push(i) {
                    inj.push(v);
                }
                if i % 3 == 0 {
                    if let Some(v) = w.pop() {
                        seen[v].fetch_add(1, Ordering::SeqCst);
                    }
                }
            }
            while let Some(v) = w.pop() {
                seen[v].fetch_add(1, Ordering::SeqCst);
            }
            done.store(true, Ordering::SeqCst);
            for t in thieves {
                t.join().unwrap();
            }
            while let Steal::Success(v) = inj.steal() {
                seen[v].fetch_add(1, Ordering::SeqCst);
            }
            for (i, c) in seen.iter().enumerate() {
                assert_eq!(c.load(Ordering::SeqCst), 1, "item {i} seen wrong number of times");
            }
        }
    }
}
