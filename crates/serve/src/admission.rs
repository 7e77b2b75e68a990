//! Admission control: a concurrency bound plus a bounded wait queue.
//!
//! A job either gets a [`Permit`] (possibly after queueing), or a
//! structured [`Shed`] reject telling the client when to retry. The
//! queue is bounded by construction — under overload the service
//! sheds instead of stalling, and `queue_highwater` proves the bound
//! held.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

#[derive(Clone, Debug)]
pub struct AdmissionConfig {
    /// Jobs running at once.
    pub max_concurrent: usize,
    /// Jobs allowed to wait for a slot; one more is shed.
    pub queue_limit: usize,
    /// How long a queued job waits before it is shed anyway.
    pub max_queue_wait: Duration,
    /// Base retry hint; scaled by the queue depth at shed time.
    pub retry_after: Duration,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            max_concurrent: 4,
            queue_limit: 16,
            max_queue_wait: Duration::from_secs(5),
            retry_after: Duration::from_millis(25),
        }
    }
}

/// The structured load-shed reject.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shed {
    pub retry_after_ms: u64,
}

#[derive(Default)]
struct State {
    running: usize,
    queued: usize,
}

pub struct Admission {
    cfg: AdmissionConfig,
    state: Mutex<State>,
    cv: Condvar,
    admitted: AtomicU64,
    shed: AtomicU64,
    queue_hwm: AtomicU64,
}

impl Admission {
    pub fn new(cfg: AdmissionConfig) -> Admission {
        Admission {
            cfg,
            state: Mutex::new(State::default()),
            cv: Condvar::new(),
            admitted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            queue_hwm: AtomicU64::new(0),
        }
    }

    fn shed_reply(&self, queued: usize) -> Shed {
        self.shed.fetch_add(1, Ordering::Relaxed);
        let base = self.cfg.retry_after.as_millis().max(1) as u64;
        Shed {
            retry_after_ms: base * (queued as u64 + 1),
        }
    }

    /// Try to enter: a free slot admits immediately, a full queue
    /// sheds immediately, otherwise wait (bounded) for a slot.
    pub fn admit(&self) -> Result<Permit<'_>, Shed> {
        let mut st = self.state.lock().unwrap();
        if st.running < self.cfg.max_concurrent {
            st.running += 1;
            self.admitted.fetch_add(1, Ordering::Relaxed);
            return Ok(Permit { adm: self });
        }
        if st.queued >= self.cfg.queue_limit {
            return Err(self.shed_reply(st.queued));
        }
        st.queued += 1;
        self.queue_hwm.fetch_max(st.queued as u64, Ordering::Relaxed);
        let deadline = Instant::now() + self.cfg.max_queue_wait;
        loop {
            if st.running < self.cfg.max_concurrent {
                st.queued -= 1;
                st.running += 1;
                self.admitted.fetch_add(1, Ordering::Relaxed);
                return Ok(Permit { adm: self });
            }
            let now = Instant::now();
            if now >= deadline {
                st.queued -= 1;
                return Err(self.shed_reply(st.queued));
            }
            let (next, _) = self.cv.wait_timeout(st, deadline - now).unwrap();
            st = next;
        }
    }

    fn release(&self) {
        let mut st = self.state.lock().unwrap();
        st.running -= 1;
        drop(st);
        self.cv.notify_all();
    }

    /// `(running, queued)` right now.
    pub fn depth(&self) -> (usize, usize) {
        let st = self.state.lock().unwrap();
        (st.running, st.queued)
    }

    pub(crate) fn admitted_total(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }

    pub fn shed_total(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    pub fn queue_highwater(&self) -> u64 {
        self.queue_hwm.load(Ordering::Relaxed)
    }
}

/// A running-job slot; releasing on drop keeps the count correct even
/// when a job panics.
pub struct Permit<'a> {
    adm: &'a Admission,
}

impl std::fmt::Debug for Permit<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Permit")
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.adm.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn tight(max_concurrent: usize, queue_limit: usize) -> AdmissionConfig {
        AdmissionConfig {
            max_concurrent,
            queue_limit,
            max_queue_wait: Duration::from_millis(50),
            retry_after: Duration::from_millis(10),
        }
    }

    #[test]
    fn admits_up_to_the_bound_then_sheds_past_the_queue() {
        let adm = Admission::new(tight(2, 0));
        let p1 = adm.admit().unwrap();
        let p2 = adm.admit().unwrap();
        // No queue slots: the third caller is shed with a retry hint.
        let shed = adm.admit().unwrap_err();
        assert!(shed.retry_after_ms >= 10);
        assert_eq!(adm.shed_total(), 1);
        drop(p1);
        let _p3 = adm.admit().unwrap();
        drop(p2);
        assert_eq!(adm.admitted_total(), 3);
    }

    #[test]
    fn queued_caller_gets_the_slot_when_it_frees() {
        let adm = Arc::new(Admission::new(tight(1, 4)));
        let p = adm.admit().unwrap();
        let adm2 = Arc::clone(&adm);
        let waiter = std::thread::spawn(move || adm2.admit().map(drop).is_ok());
        // Let the waiter queue up, then free the slot.
        while adm.depth().1 == 0 {
            std::thread::yield_now();
        }
        drop(p);
        assert!(waiter.join().unwrap());
        assert_eq!(adm.queue_highwater(), 1);
        assert_eq!(adm.depth(), (0, 0));
    }

    #[test]
    fn queued_caller_is_shed_after_the_wait_budget() {
        let adm = Admission::new(tight(1, 4));
        let _p = adm.admit().unwrap();
        let t = Instant::now();
        let shed = adm.admit().unwrap_err();
        assert!(t.elapsed() >= Duration::from_millis(40));
        assert!(shed.retry_after_ms > 0);
        assert_eq!(adm.depth().1, 0, "shed caller left the queue");
    }
}
