//! Fault-tolerance primitives shared by the three pattern executors.
//!
//! The paper pairs transformation with validation because an unsafe
//! parallel plan is worthless (Sections 3.4–4); this module extends that
//! stance to *runtime* failures. Every worker body runs under
//! `catch_unwind`, a panic becomes a structured [`RuntimeError`] instead
//! of a poisoned channel, and a failed sibling or the caller's
//! [`CancelToken`] tells the run's workers to drain and exit rather than
//! deadlock on full or closed buffers. [`RunOptions`] adds per-run and per-stage-invocation
//! deadlines and selects the [`FailurePolicy`]: fail fast with the
//! structured error, or degrade gracefully by re-executing the missing
//! part of the stream sequentially.
//!
//! Cancellation is cooperative: a stage body that never returns cannot
//! be killed (Rust threads are not cancellable), but every point where
//! the runtime itself blocks — channel sends, receives, work-item
//! claims — observes the token, so a failed run converges as soon as
//! in-flight stage invocations finish.

use patty_telemetry::{Counter, Telemetry};
use patty_trace::WorkerTracer;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cheaply cloneable cancellation flag shared by every worker of a run
/// (and, if the caller wishes, by several runs). Once cancelled it stays
/// cancelled.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// What a `run_checked` entry point does when a worker fails.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FailurePolicy {
    /// Cancel siblings, drain, and return the structured error.
    #[default]
    FailFast,
    /// Cancel siblings, then re-execute the items that never produced an
    /// output sequentially on the calling thread and return a complete —
    /// degraded but correct — result. Requires the fault to be transient
    /// (a persistent panic fails the sequential pass too and is reported
    /// as [`RuntimeError::StagePanicked`]).
    FallbackSequential,
}

/// Per-run execution limits and failure policy for the `*_checked`
/// entry points of [`Pipeline`](crate::Pipeline),
/// [`MasterWorker`](crate::MasterWorker) and
/// [`ParallelFor`](crate::ParallelFor).
#[derive(Clone, Debug, Default)]
pub struct RunOptions {
    /// Wall-clock budget for the whole run. Exceeding it cancels the run
    /// and returns [`RuntimeError::DeadlineExceeded`]; the deadline is
    /// never recovered by sequential fallback (re-running would only take
    /// longer). A pipeline checks it, like the token, once per batch, so
    /// with [`Pipeline::with_batch`](crate::Pipeline::with_batch) above 1
    /// a run can overshoot it by one batch of stage work.
    pub deadline: Option<Duration>,
    /// Budget for a single stage invocation on a single item. Detected
    /// cooperatively after the invocation returns — a stage body stuck
    /// forever cannot be killed, only observed late.
    pub stage_deadline: Option<Duration>,
    /// What to do when a worker panics or a stage deadline is missed.
    pub on_failure: FailurePolicy,
    /// Cancellation token observed by all workers. Cancel it from another
    /// thread to stop the run early with [`RuntimeError::Cancelled`]. A
    /// worker's failure stops only its own run and leaves this token as
    /// it was, so the options serve the next run; only a missed run
    /// deadline cancels it, since that budget is spent for everything
    /// sharing the token.
    pub cancel: CancelToken,
}

impl RunOptions {
    pub fn new() -> RunOptions {
        RunOptions::default()
    }

    /// Set the whole-run deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> RunOptions {
        self.deadline = Some(deadline);
        self
    }

    /// Set the per-stage-invocation deadline.
    pub fn with_stage_deadline(mut self, deadline: Duration) -> RunOptions {
        self.stage_deadline = Some(deadline);
        self
    }

    /// Set the failure policy.
    pub fn on_failure(mut self, policy: FailurePolicy) -> RunOptions {
        self.on_failure = policy;
        self
    }

    /// Share an external cancellation token with this run.
    pub fn with_cancel(mut self, cancel: CancelToken) -> RunOptions {
        self.cancel = cancel;
        self
    }

    /// The whole-run limits every engine checks between invocations: the
    /// cancellation token, then the deadline of a run begun at `started`.
    #[inline]
    pub(crate) fn check(&self, started: Instant) -> Result<(), RuntimeError> {
        if self.cancel.is_cancelled() {
            return Err(RuntimeError::Cancelled);
        }
        match self.deadline {
            Some(budget) if started.elapsed() > budget => {
                Err(RuntimeError::DeadlineExceeded { budget })
            }
            _ => Ok(()),
        }
    }
}

/// A structured runtime failure. `run_checked` returns these instead of
/// unwinding; the infallible legacy entry points re-panic on them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RuntimeError {
    /// A worker body panicked. `item_seq` is the stream sequence number
    /// (or item/loop index) being processed, when known; `payload` is the
    /// stringified panic payload.
    StagePanicked {
        stage: String,
        item_seq: Option<u64>,
        payload: String,
    },
    /// The whole-run deadline elapsed before the run completed.
    DeadlineExceeded { budget: Duration },
    /// One stage invocation overran the per-stage deadline.
    StageDeadlineExceeded {
        stage: String,
        item_seq: Option<u64>,
        elapsed: Duration,
        budget: Duration,
    },
    /// The run's [`CancelToken`] was cancelled externally.
    Cancelled,
}

impl RuntimeError {
    /// Whether [`FailurePolicy::FallbackSequential`] applies: panics and
    /// per-stage overruns are worth retrying sequentially, whole-run
    /// deadline misses and external cancellation are not.
    pub fn recoverable(&self) -> bool {
        matches!(
            self,
            RuntimeError::StagePanicked { .. } | RuntimeError::StageDeadlineExceeded { .. }
        )
    }
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::StagePanicked { stage, item_seq, payload } => match item_seq {
                Some(seq) => {
                    write!(f, "stage `{stage}` panicked on item {seq}: {payload}")
                }
                None => write!(f, "stage `{stage}` panicked: {payload}"),
            },
            RuntimeError::DeadlineExceeded { budget } => {
                write!(f, "run exceeded its deadline of {budget:?}")
            }
            RuntimeError::StageDeadlineExceeded { stage, item_seq, elapsed, budget } => {
                write!(
                    f,
                    "stage `{stage}` took {elapsed:?} (budget {budget:?})",
                )?;
                if let Some(seq) = item_seq {
                    write!(f, " on item {seq}")?;
                }
                Ok(())
            }
            RuntimeError::Cancelled => write!(f, "run was cancelled"),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Stringify a `catch_unwind` payload the way panic messages usually
/// arrive (`&str` from `panic!("literal")`, `String` from formatting).
pub fn panic_payload(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The `fault.*` counter family every `run_checked` registers, so a
/// profiled run's report enumerates the recovery surface even when no
/// fault fired. Inert (no allocation) on a disabled telemetry handle.
pub(crate) struct FaultCounters {
    /// Worker panics converted into structured errors.
    pub panics_caught: Counter,
    /// Runs that completed via the sequential fallback.
    pub fallbacks: Counter,
    /// Items re-executed sequentially by a fallback.
    pub items_retried: Counter,
    /// Runs aborted by a whole-run or per-stage deadline.
    pub deadline_aborts: Counter,
    /// Runs stopped by external cancellation.
    pub cancellations: Counter,
}

/// Pre-register the `fault.*` counter family on a telemetry sink
/// without running anything. Registered counters are always present in
/// the sink's report (with value 0 when nothing fired), so callers that
/// want a schema-stable report — `patty profile` — can call this before
/// a run that may not reach any checked pattern entry point.
pub fn register_fault_counters(telemetry: &Telemetry) {
    let _ = FaultCounters::register(telemetry);
}

impl FaultCounters {
    pub(crate) fn register(telemetry: &Telemetry) -> FaultCounters {
        FaultCounters {
            panics_caught: telemetry.counter("fault.panics_caught"),
            fallbacks: telemetry.counter("fault.fallbacks"),
            items_retried: telemetry.counter("fault.items_retried"),
            deadline_aborts: telemetry.counter("fault.deadline_aborts"),
            cancellations: telemetry.counter("fault.cancellations"),
        }
    }

    /// Bump the counter matching a terminal error.
    fn observe(&self, err: &RuntimeError) {
        match err {
            RuntimeError::StagePanicked { .. } => {} // counted at catch site
            RuntimeError::DeadlineExceeded { .. }
            | RuntimeError::StageDeadlineExceeded { .. } => self.deadline_aborts.incr(),
            RuntimeError::Cancelled => self.cancellations.incr(),
        }
    }

    /// Account for a failed attempt and apply the failure policy: `Ok`
    /// means the caller goes on to its sequential fallback (counted
    /// here), `Err` hands the error back as the run's result.
    pub(crate) fn recover(&self, error: RuntimeError, opts: &RunOptions) -> Result<(), RuntimeError> {
        self.observe(&error);
        if opts.on_failure != FailurePolicy::FallbackSequential || !error.recoverable() {
            return Err(error);
        }
        self.fallbacks.incr();
        Ok(())
    }
}

/// The one guarded invocation under all three patterns: a stage body runs
/// under `catch_unwind` and the per-invocation deadline, and a failure
/// comes back as the structured error naming the stage and the exact
/// item. Built once per worker; every engine, in-place loop and fallback
/// pass calls its bodies through one of these: [`Guard::invoke`] per item,
/// [`Guard::invoke_traced`] where the loop also traces per item, and
/// [`Guard::catch`] + [`Guard::timed`] where one guard spans a chunk.
pub(crate) struct Guard<'a> {
    stage: &'a str,
    stage_deadline: Option<Duration>,
    counters: &'a FaultCounters,
    wt: &'a WorkerTracer,
    /// Compute time of the traced invocations so far: the busy share a
    /// worker's idle tail subtracts from its wall time.
    pub(crate) busy_ns: Cell<u64>,
}

impl<'a> Guard<'a> {
    pub(crate) fn new(
        stage: &'a str,
        stage_deadline: Option<Duration>,
        counters: &'a FaultCounters,
        wt: &'a WorkerTracer,
    ) -> Guard<'a> {
        Guard { stage, stage_deadline, counters, wt, busy_ns: Cell::new(0) }
    }

    /// A body panicked on item `seq`: leave a `FaultCaught` event on the
    /// worker's lane, count it, and name stage, item and payload.
    fn panicked(&self, seq: u64, payload: Box<dyn std::any::Any + Send>) -> RuntimeError {
        self.wt.fault(seq);
        self.counters.panics_caught.incr();
        RuntimeError::StagePanicked {
            stage: self.stage.to_string(),
            item_seq: Some(seq),
            payload: panic_payload(payload.as_ref()),
        }
    }

    /// The per-invocation deadline, for a body invoked at `invoked`
    /// (`None` when no budget is set). Cooperative: an overrun is seen
    /// once the body has returned.
    #[inline]
    fn within_budget(&self, seq: u64, invoked: Option<Instant>) -> Result<(), RuntimeError> {
        if let (Some(budget), Some(invoked)) = (self.stage_deadline, invoked) {
            let elapsed = invoked.elapsed();
            if elapsed > budget {
                return Err(RuntimeError::StageDeadlineExceeded {
                    stage: self.stage.to_string(),
                    item_seq: Some(seq),
                    elapsed,
                    budget,
                });
            }
        }
        Ok(())
    }

    /// Run `f` as the one invocation on item `seq`: a panic and, if the
    /// body returns, an overrun of the per-invocation deadline come back
    /// as the structured error.
    #[inline]
    pub(crate) fn invoke<R>(&self, seq: u64, f: impl FnOnce() -> R) -> Result<R, RuntimeError> {
        let invoked = self.stage_deadline.map(|_| Instant::now());
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(out) => self.within_budget(seq, invoked).map(|()| out),
            Err(payload) => Err(self.panicked(seq, payload)),
        }
    }

    /// The chunk form: one `catch_unwind` around a body that runs many
    /// consecutive items, advancing `seq` as it goes and timing each with
    /// [`Guard::timed`], so a panic still names the exact item.
    pub(crate) fn catch(
        &self,
        seq: &Cell<u64>,
        f: impl FnOnce() -> Result<(), RuntimeError>,
    ) -> Result<(), RuntimeError> {
        catch_unwind(AssertUnwindSafe(f))
            .unwrap_or_else(|payload| Err(self.panicked(seq.get(), payload)))
    }

    /// One item of a [`Guard::catch`] body against the per-invocation
    /// deadline.
    #[inline]
    pub(crate) fn timed(&self, seq: u64, f: impl FnOnce()) -> Result<(), RuntimeError> {
        let invoked = self.stage_deadline.map(|_| Instant::now());
        f();
        self.within_budget(seq, invoked)
    }

    /// [`Guard::invoke`] bracketed by this item's own `ItemStart` /
    /// `ItemEnd` events, for the loops that trace per item. The end event
    /// is recorded whenever the body returned, overrun or not.
    #[inline]
    pub(crate) fn invoke_traced<R>(&self, seq: u64, f: impl FnOnce() -> R) -> Result<R, RuntimeError> {
        self.invoke(seq, || {
            let started = self.wt.item_start(seq);
            let out = f();
            let ended = self.wt.item_end(seq, started);
            self.busy_ns.set(self.busy_ns.get() + ended.since(started));
            out
        })
    }
}

/// First-error-wins slot shared by the workers of one run, and the
/// run's own cancellation: its workers stop once a sibling failed or the
/// caller's token is cancelled, and a failure leaves that token alone.
pub(crate) struct ErrorSlot {
    slot: parking_lot::Mutex<Option<RuntimeError>>,
    /// Set once a worker of the run failed.
    failed: AtomicBool,
}

impl ErrorSlot {
    pub(crate) fn new() -> ErrorSlot {
        ErrorSlot { slot: parking_lot::Mutex::new(None), failed: AtomicBool::new(false) }
    }

    /// Record `err` if no earlier error exists; returns whether it won.
    fn set(&self, err: RuntimeError) -> bool {
        let mut slot = self.slot.lock();
        if slot.is_none() {
            *slot = Some(err);
            true
        } else {
            false
        }
    }

    /// A worker failed: record `err`, then tell its siblings to drain.
    /// The error is stored before the run stops, so a sibling that
    /// reports the resulting cancellation can never win the slot. A
    /// missed run deadline also cancels the caller's token `cancel`: the
    /// budget the caller set is spent for everything that shares it, and
    /// that token is where the caller sees the abort while a stage body
    /// is still in flight. Any other failure leaves the token alone, so
    /// the caller's options serve the next run.
    pub(crate) fn fail(&self, err: RuntimeError, cancel: &CancelToken) {
        let deadline = matches!(err, RuntimeError::DeadlineExceeded { .. });
        self.set(err);
        self.failed.store(true, Ordering::Release);
        if deadline {
            cancel.cancel();
        }
    }

    /// Whether the run's workers should stop: a worker failed, or the
    /// caller cancelled `cancel`.
    #[inline]
    pub(crate) fn stopped(&self, cancel: &CancelToken) -> bool {
        self.failed.load(Ordering::Acquire) || cancel.is_cancelled()
    }

    /// [`RunOptions::check`] for a worker of this run, which also stops
    /// with [`RuntimeError::Cancelled`] once a sibling failed.
    #[inline]
    pub(crate) fn check(&self, opts: &RunOptions, started: Instant) -> Result<(), RuntimeError> {
        if self.failed.load(Ordering::Acquire) {
            return Err(RuntimeError::Cancelled);
        }
        opts.check(started)
    }

    /// The run's terminal error once every worker has joined: the first
    /// recorded failure, else an external cancellation, else none.
    pub(crate) fn finish(&self, cancel: &CancelToken) -> Option<RuntimeError> {
        let first = self.slot.lock().take();
        first.or_else(|| cancel.is_cancelled().then_some(RuntimeError::Cancelled))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_is_shared_and_sticky() {
        let t = CancelToken::new();
        let clone = t.clone();
        assert!(!t.is_cancelled());
        clone.cancel();
        assert!(t.is_cancelled());
        clone.cancel();
        assert!(clone.is_cancelled());
    }

    #[test]
    fn error_slot_first_wins() {
        let slot = ErrorSlot::new();
        assert!(slot.set(RuntimeError::Cancelled));
        assert!(!slot.set(RuntimeError::DeadlineExceeded { budget: Duration::from_secs(1) }));
        let token = CancelToken::new();
        assert_eq!(slot.finish(&token), Some(RuntimeError::Cancelled));
        assert_eq!(slot.finish(&token), None);
        token.cancel();
        assert_eq!(slot.finish(&token), Some(RuntimeError::Cancelled));
    }

    #[test]
    fn error_display_and_recoverability() {
        let p = RuntimeError::StagePanicked {
            stage: "crop".into(),
            item_seq: Some(3),
            payload: "boom".into(),
        };
        assert!(p.recoverable());
        assert_eq!(p.to_string(), "stage `crop` panicked on item 3: boom");
        let d = RuntimeError::DeadlineExceeded { budget: Duration::from_millis(5) };
        assert!(!d.recoverable());
        assert!(d.to_string().contains("deadline"));
        assert!(!RuntimeError::Cancelled.recoverable());
    }

    #[test]
    fn panic_payload_extraction() {
        let caught =
            std::panic::catch_unwind(|| panic!("literal message")).unwrap_err();
        assert_eq!(panic_payload(caught.as_ref()), "literal message");
        let caught =
            std::panic::catch_unwind(|| panic!("formatted {}", 42)).unwrap_err();
        assert_eq!(panic_payload(caught.as_ref()), "formatted 42");
        let caught = std::panic::catch_unwind(|| std::panic::panic_any(7u32)).unwrap_err();
        assert_eq!(panic_payload(caught.as_ref()), "non-string panic payload");
    }

    /// A failure cancels only the run it happened in: after a transient
    /// panic that the fallback recovered, the caller's token is still
    /// live and the same options serve the next run of every pattern.
    /// With a deadline the pipeline binds its stages to threads at once,
    /// so both of its engines are covered.
    #[test]
    fn a_recovered_failure_leaves_the_options_reusable() {
        use crate::{MasterWorker, ParallelFor, Pipeline, Stage};
        use std::sync::atomic::AtomicU64;
        use std::sync::Arc;
        const N: u64 = 64;
        // Panics on the first call with `x == 5` after `arm`, then never.
        let armed = Arc::new(AtomicU64::new(u64::MAX));
        let arm = || armed.store(5, Ordering::SeqCst);
        let body = {
            let armed = armed.clone();
            move |x: u64| {
                if armed.compare_exchange(x, u64::MAX, Ordering::SeqCst, Ordering::SeqCst).is_ok() {
                    panic!("transient fault");
                }
                x * 2
            }
        };
        let oracle: Vec<u64> = (0..N).map(|x| x * 2).collect();
        let fallback = RunOptions::new().on_failure(FailurePolicy::FallbackSequential);
        for opts in [fallback.clone(), fallback.with_deadline(Duration::from_secs(60))] {
            let pipeline =
                Pipeline::new(vec![Stage::new("a", |x: u64| x), Stage::new("b", body.clone())]);
            let pf = ParallelFor::new(4).with_chunk(4);
            let mw = MasterWorker::new(4);
            type Run<'a> = (&'a str, Box<dyn Fn() -> Result<Vec<u64>, RuntimeError> + 'a>);
            let runs: [Run; 5] = [
                ("Pipeline::run_checked", Box::new(|| pipeline.run_checked((0..N).collect(), &opts))),
                ("ParallelFor::map_checked", Box::new(|| pf.map_checked(N as usize, |i| body(i as u64), &opts))),
                (
                    "ParallelFor::for_each_checked",
                    Box::new(|| {
                        let out: Vec<AtomicU64> = (0..N).map(|_| AtomicU64::new(0)).collect();
                        let store = |i: usize| out[i].store(body(i as u64), Ordering::SeqCst);
                        pf.for_each_checked(N as usize, store, &opts)?;
                        Ok(out.into_iter().map(AtomicU64::into_inner).collect())
                    }),
                ),
                (
                    "ParallelFor::reduce_checked",
                    Box::new(|| {
                        let fold = |mut acc: Vec<u64>, i: usize| {
                            acc.push(body(i as u64));
                            acc
                        };
                        let combine = |mut a: Vec<u64>, b: Vec<u64>| {
                            a.extend(b);
                            a
                        };
                        let mut all = pf.reduce_checked(N as usize, Vec::new(), fold, combine, &opts)?;
                        all.sort_unstable();
                        Ok(all)
                    }),
                ),
                ("MasterWorker::run_checked", Box::new(|| mw.run_checked((0..N).collect(), &body, &opts))),
            ];
            for (entry, run) in &runs {
                let case = format!("{entry}, deadline {:?}", opts.deadline);
                arm();
                assert_eq!(run().as_ref(), Ok(&oracle), "{case}: the fallback recovers");
                assert_eq!(armed.load(Ordering::SeqCst), u64::MAX, "{case}: the fault fired");
                assert!(!opts.cancel.is_cancelled(), "{case}: the caller's token was cancelled");
                assert_eq!(run().as_ref(), Ok(&oracle), "{case}: the next run with the same options");
            }
        }
    }

    #[test]
    fn run_options_builder() {
        let opts = RunOptions::new()
            .with_deadline(Duration::from_secs(2))
            .with_stage_deadline(Duration::from_millis(100))
            .on_failure(FailurePolicy::FallbackSequential);
        assert_eq!(opts.deadline, Some(Duration::from_secs(2)));
        assert_eq!(opts.stage_deadline, Some(Duration::from_millis(100)));
        assert_eq!(opts.on_failure, FailurePolicy::FallbackSequential);
        assert!(!opts.cancel.is_cancelled());
    }
}
