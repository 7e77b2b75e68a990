//! The deterministic cooperative virtual-time scheduler.
//!
//! Like CHESS \[24\], the tester owns every scheduling decision — but
//! unlike the first generation of this module there are **no OS threads**
//! anywhere: controlled "threads" are scheduler-owned *tasks* driven one
//! decision at a time on the caller's thread. Every [`Shared`] access,
//! [`CMutex`] lock/unlock, [`CChannel`] send/recv, [`ThreadCtx::step`] and
//! [`ThreadCtx::fault_point`] is a yield point; blocking waits are
//! virtual-time events, so deadlock and livelock detection are exact and a
//! `max_steps` abort is byte-reproducible — no wall-clock timeout can
//! smear a verdict.
//!
//! ## Polled tasks
//!
//! A task body is an `async` block: `|ctx| async move { … .await }`. The
//! scheduler stores it as a boxed future and every decision op is an
//! `async fn` that first waits on one private *grant gate*. Granting a
//! task one step sets the grant and polls its future once: the op the
//! task was parked on takes the grant and executes against the shared
//! state, user code runs on, and the next op finds the grant spent and
//! returns `Pending` — so a step performs exactly one fresh op and runs
//! user code up to (not into) the next one. The compiler-generated state
//! machine is the task's program counter; nothing is re-executed and
//! values keep their types. A blocked attempt (`lock` on a held mutex,
//! `recv` on an empty channel, `join` on a live task) spends its grant,
//! marks the task blocked and waits at the gate again; an aborted run
//! simply stops polling.
//!
//! Two rules for test authors: user code between yield points must be
//! deterministic — the same contract CHESS imposes (the explorers assert
//! it by comparing runnable sets along the replayed prefix) — and a body
//! must not hold a `RefCell` borrow of its own across an `.await`, since
//! other tasks run while it is parked there.
//!
//! ## Trace hashes
//!
//! Each run maintains a running FNV-1a hash over the fault scenario and
//! the decision sequence. Failures carry the hash of their decision
//! prefix (`sched_trace_hash`), so any reported failure can be replayed
//! byte-stably from the hash alone (see [`crate::explore::replay`] and
//! [`crate::joint`]).
//!
//! A vector-clock happens-before detector runs piggy-backed on the same
//! yield points and reports data races even on schedules where the race
//! does not corrupt the result; the same clocks drive the DPOR explorer's
//! happens-before pruning ([`crate::dpor`]).

use crate::clock::VectorClock;
use patty_hash::{fnv1a64, Fnv};
use std::any::Any;
use std::cell::{Cell, RefCell, RefMut};
use std::collections::VecDeque;
use std::future::{poll_fn, Future};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// What went wrong on some schedule.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FailureKind {
    /// Two concurrent conflicting accesses to a shared cell.
    Race { cell: String },
    /// All live threads blocked.
    Deadlock,
    /// A controlled thread panicked.
    Panic(String),
    /// An explicit `check` failed.
    CheckFailed(String),
    /// The schedule exceeded the step limit (livelock guard).
    StepLimit,
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureKind::Race { cell } => write!(f, "data race on `{cell}`"),
            FailureKind::Deadlock => write!(f, "deadlock"),
            FailureKind::Panic(m) => write!(f, "panic: {m}"),
            FailureKind::CheckFailed(m) => write!(f, "check failed: {m}"),
            FailureKind::StepLimit => write!(f, "step limit exceeded"),
        }
    }
}

/// A failure together with the schedule (sequence of chosen thread ids)
/// that reproduces it, the stable trace hash of that decision prefix, and
/// whether an injected fault had already fired when it was observed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Failure {
    pub kind: FailureKind,
    pub schedule: Vec<usize>,
    /// FNV-1a hash of (fault scenario, decision prefix): the
    /// `sched_trace_hash` quoted in diagnostics and accepted by replay.
    pub trace_hash: u64,
    /// True when an injected fault fired before this failure was observed
    /// — joint exploration uses it to separate fault-induced outcomes
    /// (an injected panic, the deadlock it causes downstream) from real
    /// concurrency bugs.
    pub fault_induced: bool,
}

/// What an injected fault does when its call arrives (the chess-side
/// mirror of `patty_faultsim::FaultKind`, with virtual ticks instead of
/// wall-clock sleeps).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InjectKind {
    /// Panic inside the task at the fault point.
    Panic,
    /// Suspend the task for `n` virtual ticks (models a slow stage).
    DelayTicks(u64),
    /// Tell the fault point's caller to drop the item
    /// ([`Inject::Drop`]).
    DropItem,
}

impl std::fmt::Display for InjectKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InjectKind::Panic => write!(f, "panic"),
            InjectKind::DelayTicks(n) => write!(f, "delay({n})"),
            InjectKind::DropItem => write!(f, "drop"),
        }
    }
}

/// One armed fault: fires at the `nth` (0-based) call of the fault point
/// labelled `label`, once per run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPoint {
    pub label: String,
    pub nth: u64,
    pub kind: InjectKind,
}

/// A set of armed faults driven jointly with the schedule; the empty
/// scenario is the plain (fault-free) exploration.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultScenario {
    pub faults: Vec<FaultPoint>,
}

impl FaultScenario {
    /// The fault-free scenario.
    pub fn none() -> FaultScenario {
        FaultScenario::default()
    }

    /// A single-fault scenario.
    pub fn one(label: impl Into<String>, nth: u64, kind: InjectKind) -> FaultScenario {
        FaultScenario { faults: vec![FaultPoint { label: label.into(), nth, kind }] }
    }

    /// Stable textual encoding (seeds the trace hash, printed in reports).
    pub fn encode(&self) -> String {
        if self.faults.is_empty() {
            return "no-fault".to_string();
        }
        self.faults
            .iter()
            .map(|f| format!("{}@{}:{}", f.label, f.nth, f.kind))
            .collect::<Vec<_>>()
            .join(";")
    }
}

/// What a [`ThreadCtx::fault_point`] call tells its caller to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Inject {
    /// No fault (or a delay that already elapsed): run the item normally.
    Run,
    /// A `DropItem` fault fired: the caller should lose this item.
    Drop,
}

// ---------------------------------------------------------------------------
// Trace hashing (FNV-1a 64).

/// Hash seed for a fault scenario (the empty scenario included).
pub(crate) fn scenario_seed(scenario: &FaultScenario) -> u64 {
    fnv1a64(scenario.encode().as_bytes())
}

/// Fold one scheduling decision into a running trace hash.
pub(crate) fn hash_step(h: u64, tid: usize) -> u64 {
    let mut h = Fnv(h);
    h.update(&(tid as u64).to_le_bytes());
    h.finish()
}

// ---------------------------------------------------------------------------
// Internal scheduler state.

/// Why a task cannot currently run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BlockReason {
    Mutex(usize),
    Join(usize),
    /// Waiting to receive on an empty channel.
    Recv(usize),
    /// Sleeping until the virtual clock reaches the target.
    Until(u64),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TState {
    Runnable,
    Blocked(BlockReason),
    Finished,
}

/// Identity of a decision operation — drives the DPOR dependence relation
/// and labels blocked attempts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum OpKey {
    Read(usize),
    /// Also covers `fetch_modify` (write-like for dependence purposes).
    Write(usize),
    Lock(usize),
    Unlock(usize),
    Send(usize),
    /// A receive that dequeued a message.
    Recv(usize),
    /// A receive attempt that found the channel empty and blocked.
    RecvWait(usize),
    Join(usize),
    Spawn,
    Fault(usize),
    Step,
    Check,
    /// A `check` that failed: it aborts the run.
    CheckFailed,
    Sleep,
}

/// What one scheduling decision did — one entry per decision, used by the
/// DPOR explorer to compute backtrack points.
#[derive(Clone, Debug)]
pub(crate) struct StepInfo {
    pub tid: usize,
    /// The decision op performed (or attempted, if the task blocked on
    /// it); `None` when the task finished without reaching a fresh
    /// operation.
    pub op: Option<OpKey>,
    /// The task's vector clock after the step.
    pub clock: VectorClock,
}

/// A task body as the scheduler stores it. Test bodies that must name
/// their type (fn pointers, `impl Fn` returns) box into this.
pub type TaskFuture = Pin<Box<dyn Future<Output = ()>>>;

struct Task {
    /// The suspended body; `None` while it is being polled and once the
    /// task has finished or panicked.
    future: Option<TaskFuture>,
    state: TState,
    /// Frozen once the task finishes: joiners read it as the finish clock.
    clock: VectorClock,
}

struct CellMeta {
    name: String,
    last_write: Option<(usize, VectorClock)>,
    reads: Vec<(usize, VectorClock)>,
}

struct MutexMeta {
    owner: Option<usize>,
    clock: VectorClock,
}

pub(crate) struct State {
    tasks: Vec<Task>,
    /// Whether the current step's single operation grant is unspent.
    granted: bool,
    cells: Vec<CellMeta>,
    mutexes: Vec<MutexMeta>,
    /// Per channel, the sender clocks of queued messages (FIFO), joined
    /// at receive to establish the happens-before edge of the handoff.
    channels: Vec<VecDeque<VectorClock>>,
    failures: Vec<Failure>,
    /// Chosen tids, in order — the schedule of this run.
    decisions: Vec<usize>,
    steps: u64,
    aborted: bool,
    /// The virtual clock: +1 per decision, jumps to the earliest wake
    /// target when only sleepers remain.
    virtual_time: u64,
    /// Running FNV-1a trace hash (seeded by the fault scenario).
    cur_hash: u64,
    scenario: FaultScenario,
    fault_fired: Vec<bool>,
    /// Per-label fault point call counters (shared across tasks, like
    /// faultsim's per-stage counters span replicas).
    fault_calls: Vec<(String, u64)>,
    any_fault_fired: bool,
    step_infos: Vec<StepInfo>,
}

impl State {
    fn block_cleared(&self, r: &BlockReason) -> bool {
        match r {
            BlockReason::Mutex(m) => self.mutexes[*m].owner.is_none(),
            BlockReason::Join(t) => matches!(self.tasks[*t].state, TState::Finished),
            BlockReason::Recv(c) => !self.channels[*c].is_empty(),
            BlockReason::Until(t) => self.virtual_time >= *t,
        }
    }

    /// Record a failure (deduplicated by kind) with the current schedule
    /// prefix and trace hash; does not abort by itself.
    fn observe(&mut self, kind: FailureKind) {
        if self.failures.iter().any(|f| f.kind == kind) {
            return;
        }
        self.failures.push(Failure {
            kind,
            schedule: self.decisions.clone(),
            trace_hash: self.cur_hash,
            fault_induced: self.any_fault_fired,
        });
    }

    fn register_task(&mut self, parent: Option<usize>, future: TaskFuture) -> usize {
        let tid = self.tasks.len();
        let mut clock = match parent {
            Some(p) => self.tasks[p].clock.clone(),
            None => VectorClock::new(),
        };
        clock.tick(tid);
        if let Some(p) = parent {
            self.tasks[p].clock.tick(p);
            clock.join(&self.tasks[p].clock);
        }
        self.tasks.push(Task { future: Some(future), state: TState::Runnable, clock });
        tid
    }

    /// Record the step of a decision op — performed, or attempted and
    /// blocked (blocked attempts are scheduling decisions too).
    fn record_op(&mut self, tid: usize, key: OpKey) {
        let clock = self.tasks[tid].clock.clone();
        self.step_infos.push(StepInfo { tid, op: Some(key), clock });
    }

    /// Record `key` and put the task to sleep for `ticks`. The caller then
    /// yields to the driver, so the task stops before the code that
    /// follows until the clock reaches the target and it is granted a step.
    fn sleep(&mut self, tid: usize, key: OpKey, ticks: u64) {
        let target = self.virtual_time + ticks;
        self.record_op(tid, key);
        self.tasks[tid].state = TState::Blocked(BlockReason::Until(target));
    }

    fn race_check(&mut self, tid: usize, cell_id: usize, is_write: bool) {
        self.tasks[tid].clock.tick(tid);
        let clock = &self.tasks[tid].clock;
        let cell = &mut self.cells[cell_id];
        let mut race =
            cell.last_write.as_ref().is_some_and(|(wt, wc)| *wt != tid && !wc.le(clock));
        if is_write {
            race |= cell.reads.iter().any(|(rt, rc)| *rt != tid && !rc.le(clock));
            cell.last_write = Some((tid, clock.clone()));
            cell.reads.clear();
        } else {
            cell.reads.push((tid, clock.clone()));
        }
        if race {
            let name = cell.name.clone();
            self.observe(FailureKind::Race { cell: name });
        }
    }
}

thread_local! {
    /// True while a task is being polled: the panic hook stays silent for
    /// panics raised by user code or an injected fault inside a task —
    /// they are caught at the poll and recorded as failures.
    static IN_TASK: Cell<bool> = const { Cell::new(false) };
}

fn install_quiet_hook() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !IN_TASK.with(|f| f.get()) {
                prev(info);
            }
        }));
    });
}

fn payload_str(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic>".into())
}

/// Return `Pending` once, handing control back to the driver: the task
/// resumes here on its next granted step with that step's grant unspent.
async fn yield_to_driver() {
    let mut yielded = false;
    poll_fn(|_| {
        if std::mem::replace(&mut yielded, true) {
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    })
    .await
}

pub(crate) struct Sched {
    state: RefCell<State>,
    max_steps: u64,
}

/// Everything one run produced.
pub(crate) struct RunResult {
    pub failures: Vec<Failure>,
    pub decisions: Vec<usize>,
    pub steps: u64,
    pub trace_hash: u64,
    pub step_infos: Vec<StepInfo>,
}

impl Sched {
    fn new(max_steps: u64, scenario: FaultScenario, seed: u64) -> Rc<Sched> {
        install_quiet_hook();
        let fault_fired = vec![false; scenario.faults.len()];
        Rc::new(Sched {
            state: RefCell::new(State {
                tasks: Vec::new(),
                granted: false,
                cells: Vec::new(),
                mutexes: Vec::new(),
                channels: Vec::new(),
                failures: Vec::new(),
                decisions: Vec::new(),
                steps: 0,
                aborted: false,
                virtual_time: 0,
                cur_hash: seed,
                scenario,
                fault_fired,
                fault_calls: Vec::new(),
                any_fault_fired: false,
                step_infos: Vec::new(),
            }),
            max_steps,
        })
    }

    /// The grant gate every decision op waits on: resolves, spending the
    /// grant, on the first poll that finds this step's grant unspent.
    /// Only the task being polled can reach it, so the grant needs no
    /// owner.
    async fn granted(&self) -> RefMut<'_, State> {
        poll_fn(|_| {
            let mut st = self.state.borrow_mut();
            if std::mem::take(&mut st.granted) {
                Poll::Ready(st)
            } else {
                Poll::Pending
            }
        })
        .await
    }

    /// A decision op that can block: each grant makes one attempt. A
    /// failed attempt marks the task blocked on `reason`, records the
    /// attempted op (a blocked receive as [`OpKey::RecvWait`]) and waits
    /// for the next grant to retry.
    async fn attempt<R>(
        &self,
        tid: usize,
        reason: BlockReason,
        key: OpKey,
        mut op: impl FnMut(&mut State) -> Option<R>,
    ) -> R {
        loop {
            let mut st = self.granted().await;
            let done = op(&mut st);
            if done.is_none() {
                st.tasks[tid].state = TState::Blocked(reason);
            }
            let key = match key {
                OpKey::Recv(c) if done.is_none() => OpKey::RecvWait(c),
                _ => key,
            };
            st.record_op(tid, key);
            if let Some(done) = done {
                return done;
            }
        }
    }

    /// Fill `out` with the sorted set of tasks the driver may grant the
    /// next step to.
    fn runnable(&self, out: &mut Vec<usize>) {
        let st = self.state.borrow();
        out.clear();
        out.extend(st.tasks.iter().enumerate().filter_map(|(i, t)| match &t.state {
            TState::Runnable => Some(i),
            TState::Blocked(r) => st.block_cleared(r).then_some(i),
            TState::Finished => None,
        }));
    }

    /// Jump the virtual clock to the earliest sleeper's wake target.
    /// Returns false when there is nothing to wake.
    fn advance_time(&self) -> bool {
        let mut st = self.state.borrow_mut();
        let target = st
            .tasks
            .iter()
            .filter_map(|t| match t.state {
                TState::Blocked(BlockReason::Until(x)) => Some(x),
                _ => None,
            })
            .min();
        match target {
            Some(x) if x > st.virtual_time => {
                st.virtual_time = x;
                true
            }
            _ => false,
        }
    }

    /// Count a decision into the schedule, hash and clocks. Returns false
    /// when the step limit was hit (the run aborts).
    fn record_decision(&self, tid: usize) -> bool {
        let mut st = self.state.borrow_mut();
        st.decisions.push(tid);
        st.cur_hash = hash_step(st.cur_hash, tid);
        st.steps += 1;
        st.virtual_time += 1;
        if st.steps > self.max_steps {
            st.observe(FailureKind::StepLimit);
            st.aborted = true;
            return false;
        }
        true
    }

    /// Give `tid` one step: set the grant and poll its future once.
    fn step_task(&self, tid: usize) {
        let mut future = {
            let mut st = self.state.borrow_mut();
            st.granted = true;
            let t = &mut st.tasks[tid];
            t.state = TState::Runnable;
            t.future.take().expect("a runnable task has a future")
        };
        let prev = IN_TASK.with(|f| f.replace(true));
        let polled = catch_unwind(AssertUnwindSafe(|| {
            future.as_mut().poll(&mut Context::from_waker(Waker::noop()))
        }));
        IN_TASK.with(|f| f.set(prev));
        let mut st = self.state.borrow_mut();
        st.granted = false;
        match polled {
            // Parked at a gate (suspended, blocked or aborted): the op it
            // waits on already set the task's state.
            Ok(Poll::Pending) => st.tasks[tid].future = Some(future),
            Ok(Poll::Ready(())) => st.tasks[tid].state = TState::Finished,
            // A user or injected panic: record it and declare the task
            // dead (joiners proceed, like joining a panicked thread;
            // starved channel peers deadlock — a separate, correctly
            // attributed failure). Its future is dropped, never polled
            // again.
            Err(payload) => {
                st.observe(FailureKind::Panic(payload_str(payload.as_ref())));
                st.tasks[tid].state = TState::Finished;
            }
        }
        // Keep step records aligned 1:1 with decisions even when the task
        // finished (or died) without reaching a fresh operation.
        if st.step_infos.len() < st.decisions.len() {
            let clock = st.tasks[tid].clock.clone();
            st.step_infos.push(StepInfo { tid, op: None, clock });
        }
    }

    /// End of a run: classify an empty runnable set, move the results out
    /// and drop every task future. The futures own the tasks' handles,
    /// each of which holds an `Rc<Sched>`; dropping them here is what
    /// lets the scheduler and everything a still-parked task captured be
    /// freed when the run returns.
    fn finish_run(&self) -> RunResult {
        let mut st = self.state.borrow_mut();
        if !st.aborted && st.tasks.iter().any(|t| t.state != TState::Finished) {
            st.observe(FailureKind::Deadlock);
        }
        let tasks = std::mem::take(&mut st.tasks);
        let result = RunResult {
            failures: std::mem::take(&mut st.failures),
            decisions: std::mem::take(&mut st.decisions),
            steps: st.steps,
            trace_hash: st.cur_hash,
            step_infos: std::mem::take(&mut st.step_infos),
        };
        // User destructors run outside the borrow.
        drop(st);
        drop(tasks);
        result
    }
}

/// Box `body` as `ctx`'s task future. The body is first called inside the
/// task's first poll, so a panic anywhere in it is the task's.
fn task_future<F, Fut>(ctx: ThreadCtx, body: F) -> TaskFuture
where
    F: FnOnce(ThreadCtx) -> Fut + 'static,
    Fut: Future<Output = ()> + 'static,
{
    Box::pin(async move { body(ctx).await })
}

/// Handle to a controlled task.
pub struct JoinHandle {
    tid: usize,
}

/// The per-task capability for writing controlled concurrency tests:
/// spawn controlled tasks, create shared cells / mutexes / channels,
/// sleep on the virtual clock, place fault points, assert.
#[derive(Clone)]
pub struct ThreadCtx {
    tid: usize,
    sched: Rc<Sched>,
}

impl ThreadCtx {
    /// This task's id (0 = the test's main task).
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Spawn a controlled task (a scheduling decision).
    pub async fn spawn<F, Fut>(&self, body: F) -> JoinHandle
    where
        F: FnOnce(ThreadCtx) -> Fut + 'static,
        Fut: Future<Output = ()> + 'static,
    {
        let mut st = self.sched.granted().await;
        let child = ThreadCtx { tid: st.tasks.len(), sched: self.sched.clone() };
        let tid = st.register_task(Some(self.tid), task_future(child, body));
        st.record_op(self.tid, OpKey::Spawn);
        JoinHandle { tid }
    }

    /// Join a controlled task (blocks this task in the model; joining a
    /// panicked task succeeds, as with real threads).
    pub async fn join(&self, handle: JoinHandle) {
        let (me, child) = (self.tid, handle.tid);
        self.sched
            .attempt(me, BlockReason::Join(child), OpKey::Join(child), |st| {
                if st.tasks[child].state != TState::Finished {
                    return None;
                }
                let finish_clock = st.tasks[child].clock.clone();
                st.tasks[me].clock.join(&finish_clock);
                st.tasks[me].clock.tick(me);
                Some(())
            })
            .await
    }

    /// Create a shared cell participating in scheduling and race
    /// detection (not itself a scheduling decision).
    pub fn shared<T: Clone>(&self, name: &str, init: T) -> Shared<T> {
        let mut st = self.sched.state.borrow_mut();
        st.cells.push(CellMeta { name: name.to_string(), last_write: None, reads: Vec::new() });
        Shared {
            id: st.cells.len() - 1,
            data: Rc::new(RefCell::new(init)),
            sched: self.sched.clone(),
        }
    }

    /// Create a controlled mutex.
    pub fn mutex(&self, _name: &str) -> CMutex {
        let mut st = self.sched.state.borrow_mut();
        st.mutexes.push(MutexMeta { owner: None, clock: VectorClock::new() });
        CMutex { id: st.mutexes.len() - 1, sched: self.sched.clone() }
    }

    /// Create a controlled FIFO channel (models a pipeline buffer: the
    /// send→receive handoff is a happens-before edge).
    pub fn channel<T>(&self, _name: &str) -> CChannel<T> {
        let mut st = self.sched.state.borrow_mut();
        st.channels.push(VecDeque::new());
        CChannel {
            id: st.channels.len() - 1,
            data: Rc::new(RefCell::new(VecDeque::new())),
            sched: self.sched.clone(),
        }
    }

    /// Assert a property of the current schedule; a failure is recorded
    /// with the reproducing schedule + trace hash and the run is aborted.
    pub async fn check(&self, cond: bool, msg: &str) {
        {
            let mut st = self.sched.granted().await;
            if cond {
                st.record_op(self.tid, OpKey::Check);
                return;
            }
            st.record_op(self.tid, OpKey::CheckFailed);
            st.observe(FailureKind::CheckFailed(msg.to_string()));
            st.aborted = true;
        }
        // The driver stops polling an aborted run.
        std::future::pending().await
    }

    /// A scheduling point without a memory access (models local work).
    pub async fn step(&self) {
        self.sched.granted().await.record_op(self.tid, OpKey::Step);
    }

    /// Sleep `ticks` on the virtual clock: a deterministic stand-in for
    /// wall-clock sleeps. When only sleepers remain, the driver jumps the
    /// clock to the earliest wake target — no real time passes.
    pub async fn sleep(&self, ticks: u64) {
        self.sched.granted().await.sleep(self.tid, OpKey::Sleep, ticks);
        yield_to_driver().await;
    }

    /// A named fault point: under a [`FaultScenario`] the matching armed
    /// fault fires here (panic / virtual delay / drop), making fault
    /// injection a scheduler decision point. Call counts are shared
    /// across tasks per label, mirroring faultsim's per-stage counters.
    pub async fn fault_point(&self, label: &str) -> Inject {
        let (fired, call) = {
            let mut st = self.sched.granted().await;
            let label_id = match st.fault_calls.iter().position(|(l, _)| l == label) {
                Some(i) => i,
                None => {
                    st.fault_calls.push((label.to_string(), 0));
                    st.fault_calls.len() - 1
                }
            };
            let call = st.fault_calls[label_id].1;
            st.fault_calls[label_id].1 += 1;
            let key = OpKey::Fault(label_id);
            let armed = (0..st.scenario.faults.len()).find(|&i| {
                !st.fault_fired[i]
                    && st.scenario.faults[i].label == label
                    && st.scenario.faults[i].nth == call
            });
            let Some(i) = armed else {
                st.record_op(self.tid, key);
                return Inject::Run;
            };
            st.fault_fired[i] = true;
            st.any_fault_fired = true;
            let kind = st.scenario.faults[i].kind.clone();
            match kind {
                InjectKind::DelayTicks(n) => st.sleep(self.tid, key, n),
                InjectKind::Panic | InjectKind::DropItem => st.record_op(self.tid, key),
            }
            (kind, call)
        };
        match fired {
            InjectKind::Panic => panic!("chess-fault: injected panic at `{label}` call {call}"),
            InjectKind::DelayTicks(_) => {
                yield_to_driver().await;
                Inject::Run
            }
            InjectKind::DropItem => Inject::Drop,
        }
    }
}

/// A shared memory cell; every access is a yield point and feeds the race
/// detector.
pub struct Shared<T> {
    id: usize,
    data: Rc<RefCell<T>>,
    sched: Rc<Sched>,
}

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Shared<T> {
        Shared { id: self.id, data: self.data.clone(), sched: self.sched.clone() }
    }
}

impl<T: Clone> Shared<T> {
    /// Read the cell.
    pub async fn read(&self, ctx: &ThreadCtx) -> T {
        let mut st = self.sched.granted().await;
        st.race_check(ctx.tid, self.id, false);
        st.record_op(ctx.tid, OpKey::Read(self.id));
        self.data.borrow().clone()
    }

    /// Write the cell.
    pub async fn write(&self, ctx: &ThreadCtx, value: T) {
        let mut st = self.sched.granted().await;
        st.race_check(ctx.tid, self.id, true);
        st.record_op(ctx.tid, OpKey::Write(self.id));
        *self.data.borrow_mut() = value;
    }

    /// Atomic read-modify-write (a single yield point; models an atomic
    /// instruction — no race window inside). Returns the old value.
    pub async fn fetch_modify(&self, ctx: &ThreadCtx, f: impl FnOnce(T) -> T) -> T {
        let mut st = self.sched.granted().await;
        st.race_check(ctx.tid, self.id, true);
        st.record_op(ctx.tid, OpKey::Write(self.id));
        drop(st);
        let old = self.data.borrow().clone();
        *self.data.borrow_mut() = f(old.clone());
        old
    }
}

/// A controlled mutex: lock/unlock are yield points and establish
/// happens-before edges (so properly locked accesses are race-free).
pub struct CMutex {
    id: usize,
    sched: Rc<Sched>,
}

impl Clone for CMutex {
    fn clone(&self) -> CMutex {
        CMutex { id: self.id, sched: self.sched.clone() }
    }
}

impl CMutex {
    /// Acquire the mutex (blocking in the model).
    pub async fn lock(&self, ctx: &ThreadCtx) {
        let (me, id) = (ctx.tid, self.id);
        self.sched
            .attempt(me, BlockReason::Mutex(id), OpKey::Lock(id), |st| {
                match st.mutexes[id].owner {
                    Some(owner) if owner == me => panic!("recursive lock of a CMutex"),
                    Some(_) => return None,
                    None => st.mutexes[id].owner = Some(me),
                }
                let State { tasks, mutexes, .. } = st;
                tasks[me].clock.join(&mutexes[id].clock);
                tasks[me].clock.tick(me);
                Some(())
            })
            .await
    }

    /// Release the mutex.
    pub async fn unlock(&self, ctx: &ThreadCtx) {
        let mut st = self.sched.granted().await;
        assert_eq!(st.mutexes[self.id].owner, Some(ctx.tid), "unlock by non-owner");
        st.tasks[ctx.tid].clock.tick(ctx.tid);
        let thread_clock = st.tasks[ctx.tid].clock.clone();
        st.mutexes[self.id] = MutexMeta { owner: None, clock: thread_clock };
        st.record_op(ctx.tid, OpKey::Unlock(self.id));
    }
}

/// A controlled unbounded FIFO channel. `send`/`recv` are yield points; a
/// receive joins the sender's clock, so values handed through a channel
/// are race-free on the receiving side — exactly the guarantee pipeline
/// buffers give (rule PLDS).
pub struct CChannel<T> {
    id: usize,
    data: Rc<RefCell<VecDeque<T>>>,
    sched: Rc<Sched>,
}

impl<T> Clone for CChannel<T> {
    fn clone(&self) -> CChannel<T> {
        CChannel { id: self.id, data: self.data.clone(), sched: self.sched.clone() }
    }
}

impl<T> CChannel<T> {
    /// Send a value (never blocks; the model channel is unbounded).
    pub async fn send(&self, ctx: &ThreadCtx, value: T) {
        let mut st = self.sched.granted().await;
        st.tasks[ctx.tid].clock.tick(ctx.tid);
        let clock = st.tasks[ctx.tid].clock.clone();
        st.channels[self.id].push_back(clock);
        self.data.borrow_mut().push_back(value);
        st.record_op(ctx.tid, OpKey::Send(self.id));
    }

    /// Receive a value, blocking (in the model) while the channel is
    /// empty.
    pub async fn recv(&self, ctx: &ThreadCtx) -> T {
        let (me, id) = (ctx.tid, self.id);
        self.sched
            .attempt(me, BlockReason::Recv(id), OpKey::Recv(id), |st| {
                let sender_clock = st.channels[id].pop_front()?;
                st.tasks[me].clock.join(&sender_clock);
                st.tasks[me].clock.tick(me);
                self.data.borrow_mut().pop_front()
            })
            .await
    }
}

/// The scheduling policy queried by the driver at each decision point.
pub(crate) trait Policy {
    /// Pick one of `runnable` (sorted ascending). `last` is the task
    /// scheduled at the previous step, if any.
    fn choose(&mut self, step: usize, runnable: &[usize], last: Option<usize>) -> usize;

    /// Observe what the chosen task actually did this step (DPOR's sleep
    /// sets need the executed op while the run is still in flight).
    fn observe_step(&mut self, _info: &StepInfo) {}
}

/// Run one schedule of `test` under `policy` and `scenario` (`seed` is
/// its [`scenario_seed`], computed once per search); the whole run
/// executes cooperatively on the calling thread.
pub(crate) fn run_schedule<F, Fut>(
    test: &Rc<F>,
    policy: &mut dyn Policy,
    max_steps: u64,
    scenario: &FaultScenario,
    seed: u64,
) -> RunResult
where
    F: Fn(ThreadCtx) -> Fut + 'static,
    Fut: Future<Output = ()> + 'static,
{
    let sched = Sched::new(max_steps, scenario.clone(), seed);
    let test = test.clone();
    let root = ThreadCtx { tid: 0, sched: sched.clone() };
    sched.state.borrow_mut().register_task(None, task_future(root, move |ctx| test(ctx)));
    let mut runnable = Vec::new();
    let mut last: Option<usize> = None;
    let mut step = 0usize;
    while !sched.state.borrow().aborted {
        sched.runnable(&mut runnable);
        if runnable.is_empty() {
            if sched.advance_time() {
                continue;
            }
            break;
        }
        let tid = policy.choose(step, &runnable, last);
        debug_assert!(runnable.contains(&tid));
        if !sched.record_decision(tid) {
            break;
        }
        sched.step_task(tid);
        if let Some(info) = sched.state.borrow().step_infos.last() {
            policy.observe_step(info);
        }
        last = Some(tid);
        step += 1;
    }
    sched.finish_run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, ChessOptions};

    /// Follows `order` while it names a runnable task (else the lowest
    /// runnable tid) and shows every executed step to `probe`.
    struct Scripted<P: FnMut(&StepInfo)> {
        order: Vec<usize>,
        probe: P,
    }

    impl<P: FnMut(&StepInfo)> Policy for Scripted<P> {
        fn choose(&mut self, step: usize, runnable: &[usize], _last: Option<usize>) -> usize {
            self.order.get(step).copied().filter(|t| runnable.contains(t)).unwrap_or(runnable[0])
        }

        fn observe_step(&mut self, info: &StepInfo) {
            (self.probe)(info);
        }
    }

    /// One run; also holds every run in this module to the 1:1 alignment
    /// of step records and decisions (the decision that trips the step
    /// limit is recorded but never executed).
    fn run<F, Fut>(
        test: F,
        order: &[usize],
        max_steps: u64,
        scenario: &FaultScenario,
        probe: impl FnMut(&StepInfo),
    ) -> RunResult
    where
        F: Fn(ThreadCtx) -> Fut + 'static,
        Fut: Future<Output = ()> + 'static,
    {
        let mut policy = Scripted { order: order.to_vec(), probe };
        let seed = scenario_seed(scenario);
        let result = run_schedule(&Rc::new(test), &mut policy, max_steps, scenario, seed);
        let unexecuted = result.failures.iter().any(|f| f.kind == FailureKind::StepLimit);
        assert_eq!(result.step_infos.len() + usize::from(unexecuted), result.decisions.len());
        result
    }

    fn kinds(result: &RunResult) -> Vec<FailureKind> {
        result.failures.iter().map(|f| f.kind.clone()).collect()
    }

    fn ops(result: &RunResult) -> Vec<(usize, Option<OpKey>)> {
        result.step_infos.iter().map(|s| (s.tid, s.op)).collect()
    }

    /// Counts its drops.
    struct Token(Rc<Cell<usize>>);

    impl Drop for Token {
        fn drop(&mut self) {
            self.0.set(self.0.get() + 1);
        }
    }

    #[test]
    fn code_after_a_sleep_waits_for_the_sleepers_next_granted_step() {
        // Task 1 sleeps (by `sleep`, or by a delay fault), then creates a
        // cell and steps. Whenever any *other* step executes, the cell
        // count says whether task 1 has run past its sleep.
        for scenario in [FaultScenario::none(), FaultScenario::one("f", 0, InjectKind::DelayTicks(3))] {
            let delayed = !scenario.faults.is_empty();
            let cells_seen = Rc::new(Cell::new(0usize));
            let seen = cells_seen.clone();
            let mut created_at_step = Vec::new();
            let result = run(
                move |ctx| {
                    let seen = seen.clone();
                    async move {
                        let sleeper = ctx.spawn(move |ctx| async move {
                            if delayed {
                                ctx.fault_point("f").await;
                            } else {
                                ctx.sleep(3).await;
                            }
                            let _cell = ctx.shared("after_sleep", 0i64);
                            seen.set(seen.get() + 1);
                            ctx.step().await;
                        });
                        let sleeper = sleeper.await;
                        for _ in 0..4 {
                            ctx.step().await;
                        }
                        ctx.join(sleeper).await;
                    }
                },
                &[0, 1],
                100,
                &scenario,
                |_| created_at_step.push(cells_seen.get()),
            );
            assert!(result.failures.is_empty(), "{:?}", result.failures);
            let slept = if delayed { OpKey::Fault(0) } else { OpKey::Sleep };
            let executed = ops(&result);
            assert_eq!(executed[1], (1, Some(slept)));
            let woke = executed.iter().skip(2).position(|&(tid, _)| tid == 1).unwrap() + 2;
            assert!(woke > 2, "other tasks ran while task 1 slept: {executed:?}");
            assert_eq!(executed[woke], (1, Some(OpKey::Step)));
            assert!(created_at_step[..woke].iter().all(|&n| n == 0), "{created_at_step:?}");
            assert_eq!(created_at_step[woke], 1);
        }
    }

    #[test]
    fn a_task_that_reaches_no_op_still_records_its_step() {
        let result = run(
            |ctx| async move {
                let idle = ctx.spawn(|_| async {}).await;
                ctx.join(idle).await;
            },
            &[0, 1],
            100,
            &FaultScenario::none(),
            |_| {},
        );
        assert_eq!(
            ops(&result),
            [(0, Some(OpKey::Spawn)), (1, None), (0, Some(OpKey::Join(1)))]
        );
    }

    #[test]
    fn a_panicked_task_is_never_polled_again_and_its_joiner_proceeds() {
        let (polls, drops) = (Rc::new(Cell::new(0usize)), Rc::new(Cell::new(0usize)));
        let (p, d) = (polls.clone(), drops.clone());
        let result = run(
            move |ctx| {
                let (p, token) = (p.clone(), Token(d.clone()));
                async move {
                    let doomed = ctx.spawn(move |ctx| async move {
                        let _token = token;
                        ctx.step().await;
                        p.set(p.get() + 1);
                        panic!("boom");
                    });
                    let doomed = doomed.await;
                    ctx.join(doomed).await;
                    ctx.step().await;
                }
            },
            &[0, 0, 1],
            100,
            &FaultScenario::none(),
            |info| {
                if info.tid == 0 && info.op == Some(OpKey::Step) {
                    assert_eq!(drops.get(), 1, "the dead task's future was dropped at the panic");
                }
            },
        );
        assert_eq!(kinds(&result), [FailureKind::Panic("boom".into())]);
        assert_eq!(
            ops(&result),
            [
                (0, Some(OpKey::Spawn)),
                (0, Some(OpKey::Join(1))), // blocked attempt
                (1, Some(OpKey::Step)),    // panics after the op, within the step
                (0, Some(OpKey::Join(1))),
                (0, Some(OpKey::Step)),
            ]
        );
        assert_eq!(polls.get(), 1);
    }

    #[test]
    fn an_aborted_run_performs_no_further_ops_in_any_task() {
        // Both tasks count the ops they complete; once `check` fails (or
        // the step limit trips) nothing may complete any more.
        let body = |done: Rc<Cell<usize>>, fail_check: bool| {
            move |ctx: ThreadCtx| {
                let done = done.clone();
                async move {
                    let d = done.clone();
                    let _worker = ctx.spawn(move |ctx| async move {
                        loop {
                            ctx.step().await;
                            d.set(d.get() + 1);
                        }
                    });
                    let _worker = _worker.await;
                    done.set(done.get() + 1);
                    ctx.check(!fail_check, "stop here").await;
                    loop {
                        ctx.step().await;
                        done.set(done.get() + 1);
                    }
                }
            }
        };
        let done = Rc::new(Cell::new(0usize));
        let result = run(body(done.clone(), true), &[0, 1, 1, 0], 100, &FaultScenario::none(), |_| {});
        assert_eq!(kinds(&result), [FailureKind::CheckFailed("stop here".into())]);
        assert_eq!(result.decisions, [0, 1, 1, 0], "the failed check is the last decision");
        assert_eq!(done.get(), 3, "spawn + two worker steps; nothing after the check");

        let done = Rc::new(Cell::new(0usize));
        let result = run(body(done.clone(), false), &[], 6, &FaultScenario::none(), |_| {});
        assert_eq!(kinds(&result), [FailureKind::StepLimit]);
        assert_eq!(result.steps, 7);
        // Six executed steps: spawn, check, four `step`s — the check does
        // not bump the counter, the spawn does.
        assert_eq!(done.get(), 5);
    }

    #[test]
    fn values_held_by_parked_tasks_are_dropped_when_the_search_returns() {
        // One token moves into a task that parks on a never-filled channel
        // (the run deadlocks), one into a task that is never even started
        // because the root's failed check aborts the run first.
        for abort in [false, true] {
            let (made, dropped) = (Rc::new(Cell::new(0usize)), Rc::new(Cell::new(0usize)));
            let (m, d) = (made.clone(), dropped.clone());
            let report = explore(
                move |ctx| {
                    m.set(m.get() + 1);
                    let token = Token(d.clone());
                    async move {
                        let ch = ctx.channel::<i64>("never_filled");
                        let parked = ctx.spawn(move |ctx| async move {
                            let _token = token;
                            ch.recv(&ctx).await;
                        });
                        let parked = parked.await;
                        ctx.check(!abort, "abort").await;
                        ctx.join(parked).await;
                    }
                },
                ChessOptions::default(),
            );
            let expected = if abort {
                FailureKind::CheckFailed("abort".into())
            } else {
                FailureKind::Deadlock
            };
            assert!(report.failures.iter().any(|f| f.kind == expected), "{:?}", report.failures);
            assert!(made.get() >= 1);
            assert_eq!(dropped.get(), made.get(), "every schedule's token was dropped");
        }
    }
}
