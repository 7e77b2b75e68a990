//! When an in-place run goes parallel: heartbeat scheduling (Acar,
//! Charguéraud, Guatto, Rainey, Sieczkowski, PLDI 2018), shared by
//! [`ParallelFor`](crate::ParallelFor) and [`Pipeline`](crate::Pipeline).
//!
//! Both start a run on the calling thread with nothing spawned and count
//! the units of work it has done (loop indices, stream batches). Before
//! each unit they ask a [`Heartbeat`] whether the run has been in place
//! long enough to pay for spawning; a run that is over sooner never
//! submits a task, wakes a lane or waits.

use std::time::{Duration, Instant};

/// In-place time after which a run may promote. One promotion (spawning
/// the helpers, waking lanes for them and waiting for them at the end)
/// costs about 4 µs on a 2-vCPU host, so ten times that keeps promotion
/// at most a tenth of the work it parallelises, and a run that is over
/// sooner never pays it.
pub(crate) const HEARTBEAT: Duration = Duration::from_micros(40);

/// The promotion check of one in-place run. Until the run promotes, the
/// unit it is about to run is also the number of units it has run. The
/// clock is read only at amortised points: before unit 0, before unit 1,
/// and after that once as many units as the rate seen so far says will
/// fill half a heartbeat. So a 64-index loop reads it once or twice, and
/// at a steady rate a promotion comes at most one unit after the
/// heartbeat.
///
/// A heartbeat is necessary, not sufficient: the units since the last
/// read must also have taken at least `floor` each on average, so work
/// too fine to pay for its hand-off never promotes however long the run.
/// Such a run goes on reading the clock about every half heartbeat, so
/// one that turns coarse later is still seen.
pub(crate) struct Heartbeat {
    /// Unit before which the clock is read next.
    next_read: usize,
    /// The last read: before which unit, and the time it showed.
    last_read: (usize, Duration),
    floor: Duration,
}

impl Heartbeat {
    /// A check for a run that may promote once its units take at least
    /// `floor` each (`Duration::ZERO`: whatever their size).
    pub(crate) fn new(floor: Duration) -> Heartbeat {
        Heartbeat { next_read: 0, last_read: (0, Duration::ZERO), floor }
    }

    /// Before unit `i` of a run begun at `started`: whether it should
    /// promote now.
    #[inline]
    pub(crate) fn due(&mut self, started: Instant, i: usize) -> bool {
        if i < self.next_read {
            return false;
        }
        let elapsed = heartbeat_clock(started, i);
        let (last_unit, last_elapsed) = std::mem::replace(&mut self.last_read, (i, elapsed));
        // Before unit 0 there is no rate to judge: the heartbeat decides.
        let units = (i - last_unit) as u128;
        let paid = elapsed.saturating_sub(last_elapsed).as_nanos() >= self.floor.as_nanos() * units;
        if elapsed >= HEARTBEAT && paid {
            return true;
        }
        let half = HEARTBEAT.as_nanos() / 2;
        let ahead = half * i as u128 / elapsed.as_nanos().max(1);
        self.next_read = i.saturating_add(usize::try_from(ahead).unwrap_or(usize::MAX).max(1));
        false
    }
}

/// Time since `started`, read before unit `i`. Unit tests script it per
/// unit on the calling thread.
#[inline]
fn heartbeat_clock(started: Instant, i: usize) -> Duration {
    #[cfg(test)]
    if let Some(elapsed) = script::scripted(i) {
        return elapsed;
    }
    let _ = i;
    started.elapsed()
}

/// The scripted clock the promotion tests of both patterns drive runs
/// with: per unit, the time the calling thread's heartbeat sees.
#[cfg(test)]
pub(crate) mod script {
    use super::HEARTBEAT;
    use std::cell::RefCell;
    use std::time::Duration;

    type Clock = Box<dyn Fn(usize) -> Duration>;

    thread_local! {
        static CLOCK: RefCell<Option<Clock>> = const { RefCell::new(None) };
        /// Units before which the scripted clock was read.
        static READS: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    }

    /// The elapsed time the calling thread's script gives before unit
    /// `i`, if it has one.
    pub(super) fn scripted(i: usize) -> Option<Duration> {
        CLOCK.with(|clock| {
            let clock = clock.borrow();
            let clock = clock.as_ref()?;
            READS.with(|reads| reads.borrow_mut().push(i));
            Some(clock(i))
        })
    }

    #[derive(Clone, Copy, Debug)]
    pub(crate) enum Script {
        /// The clock never moves, so the heartbeat never falls due.
        Never,
        /// Due before unit `k`. Before that the clock shows the rate
        /// that schedules the next read exactly at `k`: `i` units in
        /// `(HEARTBEAT / 2) · i / (k − i)`. At `k` it jumps to
        /// `HEARTBEAT · (k + 1)`, which is past the heartbeat and, since
        /// no earlier read showed more than half of one, a mean of more
        /// than a heartbeat per unit since the last read: above any floor
        /// a pattern uses.
        At(usize),
        /// A steady rate: `i` units take `i` times this many ns.
        Steady(u32),
    }

    impl Script {
        fn clock(self) -> Clock {
            match self {
                Script::Never => Box::new(|_| Duration::ZERO),
                Script::At(k) => Box::new(move |i| {
                    if i >= k {
                        HEARTBEAT * (k as u32 + 1)
                    } else {
                        HEARTBEAT / 2 * i as u32 / (k - i) as u32
                    }
                }),
                Script::Steady(ns) => Box::new(move |i| Duration::from_nanos(ns as u64) * i as u32),
            }
        }
    }

    /// Run `f` with the calling thread's heartbeat clock scripted;
    /// returns what `f` returned and the units before which the clock
    /// was read.
    pub(crate) fn scripted_run<R>(script: Script, f: impl FnOnce() -> R) -> (R, Vec<usize>) {
        CLOCK.with(|clock| *clock.borrow_mut() = Some(script.clock()));
        READS.with(|reads| reads.borrow_mut().clear());
        let out = f();
        CLOCK.with(|clock| *clock.borrow_mut() = None);
        (out, READS.with(|reads| reads.take()))
    }
}
