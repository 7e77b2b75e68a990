//! Process-wide worker pool with per-lane work-stealing deques.
//!
//! Every pattern run used to pay `std::thread::scope` + one OS thread
//! per stage/worker; on short streams that overhead dominated and the
//! "parallel" configurations lost to sequential. This module keeps a
//! lazily-started pool of persistent **lanes** alive for the process and
//! lets the patterns submit closures instead of spawning threads.
//!
//! Two task classes with different liveness needs:
//!
//! * **Resident** tasks ([`Scope::spawn_resident`]) may block on
//!   channels for the life of a run — pipeline feeders, stage workers
//!   and reorder threads. A resident task must never queue behind
//!   another task, so submission either hands it to one *parked* lane,
//!   which runs it before looking at anything else, starts a new lane
//!   (below the pool cap), or falls back to a one-shot ephemeral
//!   thread. Deadlock-freedom does not depend on pool capacity.
//! * **Short** tasks ([`Scope::spawn`]) are non-blocking claim loops —
//!   parfor chunk workers, master/worker item workers, `join_all`
//!   members. They go through a shared [`Injector`] queue; lanes pull
//!   batches into per-lane Chase-Lev deques and steal from each other
//!   when their own deque drains.
//!
//! Wake-ups are addressed. A parked lane sleeps on its own condvar on a
//! stack of parked lanes, and every wake-up pops exactly one lane and
//! says what it is for: the resident task handed to it, or "short work
//! is queued". A short submission sends one only while the injector
//! holds more tasks than wake-ups already on their way, so `k` short
//! tasks over `p` parked lanes wake at most `min(k, p)` lanes — never
//! the whole pool.
//!
//! A [`Scope`] mirrors `std::thread::scope`: tasks may borrow from the
//! caller's stack, every task completes before `scope` returns (even
//! when the closure panics), and the first task panic is resumed on the
//! caller. While waiting, the caller *helps*: it executes short tasks
//! from the injector and sibling deques, so a loop still makes progress
//! when every lane is occupied — including nested patterns running on a
//! lane thread.
//!
//! Trace identity is unaffected by pooling: `WorkerTracer` handles are
//! created per run (keyed by stage × logical worker index) *before*
//! submission and move into the closure, so a trace lane means "worker
//! `i` of this run", never "OS thread".

use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use std::any::Any;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::Duration;

/// A submitted closure, lifetime-erased by [`Scope`].
type Task = Box<dyn FnOnce() + Send + 'static>;

/// Hard ceiling on pool capacity, whatever `PATTY_THREADS` says.
pub(crate) const MAX_POOL_THREADS: usize = 512;

/// Ring capacity of each lane's local deque; overflow drains back to
/// the injector, so this only bounds batch locality, not correctness.
const LANE_DEQUE_CAP: usize = 256;

/// How long a parked lane sleeps between re-scans of sibling deques.
/// Submissions wake a lane directly; this only bounds the window in
/// which work sitting in a *sibling's* deque goes unnoticed.
const LANE_IDLE_WAIT: Duration = Duration::from_millis(5);

/// How long a lane may stay continuously quiescent before it retires
/// (exits and deregisters its stealer). Long enough that back-to-back
/// pattern runs never churn lanes; short enough that a burst of wide
/// runs does not pin `4 × cores` sleeping threads for the process
/// lifetime. Tests shrink it via [`Executor::with_idle_retirement`].
const DEFAULT_LANE_RETIRE: Duration = Duration::from_millis(250);

/// How long a waiting scope sleeps between helping attempts.
const SCOPE_HELP_WAIT: Duration = Duration::from_micros(500);

/// How pattern runs execute their per-run closures. There is one mode:
/// every task is submitted to the shared pool, whose lanes are reused
/// across runs, so back-to-back runs spawn no threads after warm-up.
///
/// The enum, and the `mode` parameter of [`Executor::scope`], remain
/// only because the benchmark crate (`e2e_bench/src/runtime.rs`) calls
/// `scope(SpawnMode::Pooled, ..)` and is edited on its own schedule.
/// Remove both together with that call.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SpawnMode {
    /// Submit to the shared pool.
    #[default]
    Pooled,
}

/// Snapshot of pool activity counters, for tests and diagnostics.
///
/// Produced by [`Executor::stats`], which returns a *coherent* snapshot:
/// all submit-side counters are incremented (SeqCst) before the task is
/// published and consume-side counters after it is claimed, and the
/// snapshot reads consume-side fields before submit-side fields. The
/// invariant `tasks_executed + tasks_helped <= short_submitted +
/// resident_handoffs + lanes_spawned` therefore holds in every snapshot,
/// even one taken mid-submission from another thread.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Persistent lanes started since pool creation.
    pub lanes_spawned: u64,
    /// Resident tasks handed to an already-idle lane.
    pub resident_handoffs: u64,
    /// Resident tasks that ran on a one-shot thread because every lane
    /// was busy and the pool was at capacity.
    pub ephemeral_spawns: u64,
    /// Short tasks pushed to the injector.
    pub short_submitted: u64,
    /// Tasks executed by lanes.
    pub tasks_executed: u64,
    /// Short tasks executed by waiting scope callers (helping).
    pub tasks_helped: u64,
    /// Lanes that exited after staying quiescent past the retirement
    /// window (the pool shrinks back when runs stop).
    pub lanes_retired: u64,
    /// Sibling-deque steal probes (by lanes and helping callers).
    pub steals_attempted: u64,
    /// Tasks actually taken from a sibling's deque.
    pub steals_succeeded: u64,
    /// Tasks taken from the shared injector (including batch refills).
    pub injector_pops: u64,
    /// Times a lane parked with nothing runnable.
    pub parks: u64,
    /// Times a parked lane woke (wake-up or idle-wait timeout).
    pub unparks: u64,
    /// Wake-ups sent to a parked lane, one per hand-off. Once every
    /// wake-up is collected, `unparks - wakeups` is the number of
    /// idle-wait timeouts.
    pub wakeups: u64,
    /// Highest local-deque depth any lane observed after a batch refill.
    pub deque_depth_hwm: u64,
}

struct Stats {
    lanes_spawned: AtomicU64,
    resident_handoffs: AtomicU64,
    ephemeral_spawns: AtomicU64,
    short_submitted: AtomicU64,
    tasks_executed: AtomicU64,
    tasks_helped: AtomicU64,
    lanes_retired: AtomicU64,
    steals_attempted: AtomicU64,
    steals_succeeded: AtomicU64,
    injector_pops: AtomicU64,
    parks: AtomicU64,
    unparks: AtomicU64,
    wakeups: AtomicU64,
    deque_depth_hwm: AtomicU64,
}

impl Stats {
    fn new() -> Stats {
        Stats {
            lanes_spawned: AtomicU64::new(0),
            resident_handoffs: AtomicU64::new(0),
            ephemeral_spawns: AtomicU64::new(0),
            short_submitted: AtomicU64::new(0),
            tasks_executed: AtomicU64::new(0),
            tasks_helped: AtomicU64::new(0),
            lanes_retired: AtomicU64::new(0),
            steals_attempted: AtomicU64::new(0),
            steals_succeeded: AtomicU64::new(0),
            injector_pops: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            unparks: AtomicU64::new(0),
            wakeups: AtomicU64::new(0),
            deque_depth_hwm: AtomicU64::new(0),
        }
    }

    /// One pass over every field. Consume-side counters are read
    /// *before* submit-side counters: combined with increment-before-
    /// publish on the submit paths (all SeqCst), any executed task's
    /// submission is already visible by the time the submit-side fields
    /// are read, so the executed/submitted invariant cannot be observed
    /// inverted.
    fn read_once(&self) -> ExecutorStats {
        let tasks_executed = self.tasks_executed.load(Ordering::SeqCst);
        let tasks_helped = self.tasks_helped.load(Ordering::SeqCst);
        let steals_succeeded = self.steals_succeeded.load(Ordering::SeqCst);
        let steals_attempted = self.steals_attempted.load(Ordering::SeqCst);
        let injector_pops = self.injector_pops.load(Ordering::SeqCst);
        let lanes_retired = self.lanes_retired.load(Ordering::SeqCst);
        let parks = self.parks.load(Ordering::SeqCst);
        let unparks = self.unparks.load(Ordering::SeqCst);
        let deque_depth_hwm = self.deque_depth_hwm.load(Ordering::SeqCst);
        ExecutorStats {
            short_submitted: self.short_submitted.load(Ordering::SeqCst),
            resident_handoffs: self.resident_handoffs.load(Ordering::SeqCst),
            ephemeral_spawns: self.ephemeral_spawns.load(Ordering::SeqCst),
            lanes_spawned: self.lanes_spawned.load(Ordering::SeqCst),
            wakeups: self.wakeups.load(Ordering::SeqCst),
            tasks_executed,
            tasks_helped,
            lanes_retired,
            steals_attempted,
            steals_succeeded,
            injector_pops,
            parks,
            unparks,
            deque_depth_hwm,
        }
    }

    /// Coherent snapshot: re-read until two consecutive passes agree
    /// (quiescent pools stabilize on the first retry), bounded so a
    /// pool under constant churn still returns promptly — the ordering
    /// discipline in [`Stats::read_once`] keeps even the bounded-exit
    /// snapshot invariant-safe.
    fn snapshot(&self) -> ExecutorStats {
        let mut prev = self.read_once();
        for _ in 0..4 {
            let cur = self.read_once();
            if cur == prev {
                return cur;
            }
            prev = cur;
        }
        prev
    }
}

/// Per-lane activity counters, updated only by the owning lane (plus
/// the global aggregate in [`Stats`]). Read via [`Executor::lane_snapshots`].
struct LaneStats {
    lane_id: u64,
    short_executed: AtomicU64,
    resident_executed: AtomicU64,
    steals_attempted: AtomicU64,
    steals_succeeded: AtomicU64,
    injector_pops: AtomicU64,
    parks: AtomicU64,
    unparks: AtomicU64,
    deque_depth_hwm: AtomicU64,
}

impl LaneStats {
    fn new(lane_id: u64) -> LaneStats {
        LaneStats {
            lane_id,
            short_executed: AtomicU64::new(0),
            resident_executed: AtomicU64::new(0),
            steals_attempted: AtomicU64::new(0),
            steals_succeeded: AtomicU64::new(0),
            injector_pops: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            unparks: AtomicU64::new(0),
            deque_depth_hwm: AtomicU64::new(0),
        }
    }

    fn snapshot(&self) -> LaneSnapshot {
        LaneSnapshot {
            lane_id: self.lane_id,
            short_executed: self.short_executed.load(Ordering::SeqCst),
            resident_executed: self.resident_executed.load(Ordering::SeqCst),
            steals_attempted: self.steals_attempted.load(Ordering::SeqCst),
            steals_succeeded: self.steals_succeeded.load(Ordering::SeqCst),
            injector_pops: self.injector_pops.load(Ordering::SeqCst),
            parks: self.parks.load(Ordering::SeqCst),
            unparks: self.unparks.load(Ordering::SeqCst),
            deque_depth_hwm: self.deque_depth_hwm.load(Ordering::SeqCst),
        }
    }
}

/// Point-in-time counters for one live lane (see [`Executor::lane_snapshots`]).
/// Retired lanes drop out of the list; their activity stays in the
/// process aggregates of [`ExecutorStats`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LaneSnapshot {
    /// Monotonic lane id (never reused across retire/regrow cycles).
    pub lane_id: u64,
    /// Short tasks this lane executed (deque, injector, steals).
    pub short_executed: u64,
    /// Resident tasks this lane executed (handoffs and seed tasks).
    pub resident_executed: u64,
    /// Sibling-deque steal probes by this lane.
    pub steals_attempted: u64,
    /// Tasks this lane took from a sibling's deque.
    pub steals_succeeded: u64,
    /// Tasks this lane took from the shared injector.
    pub injector_pops: u64,
    /// Times this lane parked with nothing runnable.
    pub parks: u64,
    /// Times this lane woke from a park.
    pub unparks: u64,
    /// Highest local-deque depth observed after a batch refill.
    pub deque_depth_hwm: u64,
}

/// Mutable pool state guarded by one mutex. Every wake-up is a hand-off
/// to one lane: the submitter pops the lane off `parked`, records in
/// `handed` what the wake-up is for, and notifies that lane's condvar
/// only. What makes resident submission deadlock-free holds by
/// construction: a resident task is never queued, it is handed to a
/// distinct parked lane that runs it before any short task it could
/// see (or it gets a fresh lane or an ephemeral thread).
struct Registry {
    /// Parked lanes, most recently parked last. Each waits on its own
    /// condvar under this mutex; a lane is on this stack exactly while
    /// it waits with no hand-off addressed to it.
    parked: Vec<(u64, Arc<Condvar>)>,
    /// Wake-ups their lane has not collected yet: `Some` hands it a
    /// resident task to run first, `None` says short work is queued.
    handed: Vec<(u64, Option<Task>)>,
    /// `None` hand-offs in flight. Each one's lane drains the injector
    /// before it parks again, so each covers one queued short task.
    waking: usize,
    /// Lanes alive (running or parked).
    live: usize,
    /// Stealer handles of every live lane's deque, keyed by lane id so
    /// a retiring lane can deregister exactly its own entry.
    stealers: Vec<(u64, Stealer<Task>)>,
    /// Per-lane counters of every live lane, same keying discipline as
    /// `stealers` (retiring lanes deregister their own entry).
    lane_stats: Vec<Arc<LaneStats>>,
    /// Monotonic lane id source (ids are never reused).
    next_lane_id: u64,
    shutdown: bool,
}

struct Inner {
    registry: Mutex<Registry>,
    injector: Injector<Task>,
    /// Bumped whenever `stealers` changes so lanes/helpers can cache
    /// their snapshot without re-locking per task.
    lane_epoch: AtomicUsize,
    cap: usize,
    /// Continuous quiescence after which an idle lane exits; `None`
    /// keeps lanes alive for the pool's lifetime.
    retire_after: Option<Duration>,
    stats: Stats,
}

impl Inner {
    fn lock(&self) -> std::sync::MutexGuard<'_, Registry> {
        self.registry.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A handle to a worker pool. Patterns use the process-wide
/// [`Executor::global`] pool; tests may build private pools with
/// [`Executor::with_threads`] (joined on drop).
pub struct Executor {
    inner: Arc<Inner>,
    /// Lane join handles, for private-pool shutdown. Empty for the
    /// global pool only in the sense that it is never drained.
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

static GLOBAL: OnceLock<Executor> = OnceLock::new();

/// Parse a `PATTY_THREADS`-style override. Returns `None` (use the
/// default) for unset/unparseable input; parsed values are clamped to
/// `1..=MAX_POOL_THREADS`, so a config requesting more workers than the
/// pool cap degrades to the cap instead of failing or spawning them.
fn parse_pool_cap(raw: Option<&str>) -> Option<usize> {
    let raw = raw?.trim();
    if raw.is_empty() {
        return None;
    }
    raw.parse::<usize>().ok().map(|n| n.clamp(1, MAX_POOL_THREADS))
}

/// Default pool capacity: comfortably above the core count because
/// lanes host blocking resident tasks (a pipeline's stages all park in
/// lanes at once), not just CPU-bound loops.
fn default_pool_cap() -> usize {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    (cores * 4).clamp(8, MAX_POOL_THREADS)
}

impl Executor {
    /// The process-wide pool, started lazily on first use. Capacity is
    /// `PATTY_THREADS` (clamped to `1..=MAX_POOL_THREADS`) or
    /// `max(8, 4 × cores)`.
    pub fn global() -> &'static Executor {
        GLOBAL.get_or_init(|| {
            let cap = parse_pool_cap(std::env::var("PATTY_THREADS").ok().as_deref())
                .unwrap_or_else(default_pool_cap);
            Executor::with_threads(cap)
        })
    }

    /// A private pool with the given capacity (clamped to
    /// `1..=MAX_POOL_THREADS`). Lanes are joined when the pool drops,
    /// and retire on their own after `DEFAULT_LANE_RETIRE` of
    /// continuous quiescence.
    pub fn with_threads(cap: usize) -> Executor {
        Executor::with_idle_retirement(cap, DEFAULT_LANE_RETIRE)
    }

    /// A private pool whose idle lanes retire after `retire_after` of
    /// continuous quiescence (tests use short windows to pin the
    /// decay/regrow lifecycle without waiting for the default).
    pub fn with_idle_retirement(cap: usize, retire_after: Duration) -> Executor {
        Executor {
            inner: Arc::new(Inner {
                registry: Mutex::new(Registry {
                    parked: Vec::new(),
                    handed: Vec::new(),
                    waking: 0,
                    live: 0,
                    stealers: Vec::new(),
                    lane_stats: Vec::new(),
                    next_lane_id: 0,
                    shutdown: false,
                }),
                injector: Injector::new(),
                lane_epoch: AtomicUsize::new(0),
                cap: cap.clamp(1, MAX_POOL_THREADS),
                retire_after: Some(retire_after),
                stats: Stats::new(),
            }),
            handles: Mutex::new(Vec::new()),
        }
    }

    /// Maximum number of persistent lanes this pool will start.
    pub fn cap(&self) -> usize {
        self.inner.cap
    }

    /// Current pool activity counters (a coherent snapshot — see
    /// [`ExecutorStats`] for the ordering contract).
    pub fn stats(&self) -> ExecutorStats {
        self.inner.stats.snapshot()
    }

    /// Per-lane counters of every lane currently alive, ordered by
    /// (monotonic, never-reused) lane id. Retired lanes drop out; their
    /// activity remains in the [`Executor::stats`] aggregates.
    pub fn lane_snapshots(&self) -> Vec<LaneSnapshot> {
        let stats: Vec<Arc<LaneStats>> = self.inner.lock().lane_stats.to_vec();
        stats.iter().map(|s| s.snapshot()).collect()
    }

    /// Number of lanes currently alive.
    pub fn lanes_live(&self) -> usize {
        self.inner.lock().live
    }

    /// Run `f` with a [`Scope`] whose tasks may borrow from the current
    /// stack frame. Blocks until every spawned task finished — also
    /// when `f` itself panics — then resumes the first captured task
    /// panic (or `f`'s own) on the caller. `SpawnMode` has one value;
    /// see its doc for why the parameter is still here.
    pub fn scope<'env, F, R>(&self, _mode: SpawnMode, f: F) -> R
    where
        F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
    {
        let scope = Scope {
            data: Arc::new(ScopeData::new()),
            executor: self,
            _scope: PhantomData,
            _env: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // Tasks borrow `'env`; they must complete before we return or
        // unwind past the borrowed frame.
        self.wait_scope(&scope.data);
        let task_panic = scope.data.take_panic();
        match result {
            Err(payload) => resume_unwind(payload),
            Ok(value) => {
                if let Some(payload) = task_panic {
                    resume_unwind(payload);
                }
                value
            }
        }
    }

    /// Submit a resident (possibly blocking) task: hand it to the most
    /// recently parked lane (the warmest), else a new lane below the
    /// cap, else an ephemeral thread. The task therefore always gets a
    /// dedicated thread of execution.
    fn submit_resident(&self, task: Task) {
        let inner = &self.inner;
        let mut reg = inner.lock();
        if !reg.shutdown {
            if let Some((lane, wake)) = reg.parked.pop() {
                // Count before publishing, so a concurrent stats() reader
                // never sees the task executed but not yet submitted.
                inner.stats.resident_handoffs.fetch_add(1, Ordering::SeqCst);
                inner.stats.wakeups.fetch_add(1, Ordering::SeqCst);
                reg.handed.push((lane, Some(task)));
                drop(reg);
                wake.notify_one();
                return;
            }
            if reg.live < inner.cap {
                self.spawn_lane(&mut reg, Some(task));
                return;
            }
        }
        drop(reg);
        inner.stats.ephemeral_spawns.fetch_add(1, Ordering::SeqCst);
        std::thread::Builder::new()
            .name("patty-ephemeral".into())
            .spawn(task)
            .expect("spawn ephemeral worker thread");
    }

    /// Submit a short (non-blocking) task to the injector. Wakes one
    /// parked lane unless the wake-ups already in flight cover every
    /// queued task; with no lane parked, grows the pool by at most one
    /// lane.
    fn submit_short(&self, task: Task) {
        let inner = &self.inner;
        // Increment-before-publish: once the task is in the injector a
        // lane (or helper) may execute it and bump `tasks_executed`
        // immediately, so the submission count must already be visible.
        inner.stats.short_submitted.fetch_add(1, Ordering::SeqCst);
        inner.injector.push(task);
        let mut reg = inner.lock();
        if reg.parked.is_empty() {
            if reg.live < inner.cap && !reg.shutdown {
                self.spawn_lane(&mut reg, None);
            }
            // else: every lane is busy and the pool is full — the task
            // waits in the injector for a lane or a helping scope caller.
        } else if inner.injector.len() > reg.waking {
            // Each wake-up in flight already covers one queued task.
            if let Some((lane, wake)) = reg.parked.pop() {
                inner.stats.wakeups.fetch_add(1, Ordering::SeqCst);
                reg.handed.push((lane, None));
                reg.waking += 1;
                drop(reg);
                wake.notify_one();
            }
        }
    }

    /// Start one lane. Caller holds the registry lock.
    fn spawn_lane(&self, reg: &mut Registry, first: Option<Task>) {
        let inner = &self.inner;
        let lane = Worker::with_capacity(LANE_DEQUE_CAP);
        let lane_id = reg.next_lane_id;
        reg.next_lane_id += 1;
        reg.stealers.push((lane_id, lane.stealer()));
        let lane_stats = Arc::new(LaneStats::new(lane_id));
        reg.lane_stats.push(lane_stats.clone());
        reg.live += 1;
        inner.lane_epoch.fetch_add(1, Ordering::Release);
        // SeqCst + before the thread starts: the seed task may bump
        // `tasks_executed` as soon as the lane runs, and a coherent
        // stats() snapshot must already account for this lane.
        inner.stats.lanes_spawned.fetch_add(1, Ordering::SeqCst);
        let inner = inner.clone();
        let handle = std::thread::Builder::new()
            .name(format!("patty-lane-{lane_id}"))
            .spawn(move || lane_main(inner, lane, lane_id, lane_stats, first))
            .expect("spawn pool lane thread");
        let mut handles = self.handles.lock().unwrap_or_else(PoisonError::into_inner);
        // Retired lanes leave finished handles behind; drop them here so
        // a long-lived pool's handle list tracks live lanes, not churn.
        handles.retain(|h| !h.is_finished());
        handles.push(handle);
    }

    /// Block until the scope's pending count hits zero, executing short
    /// tasks from the pool while waiting (so progress never depends on
    /// a lane being free).
    fn wait_scope(&self, data: &ScopeData) {
        let inner = &self.inner;
        let mut cache = StealerCache::new();
        while data.pending.load(Ordering::Acquire) > 0 {
            if let Some(task) = steal_one(inner, &mut cache, None) {
                inner.stats.tasks_helped.fetch_add(1, Ordering::SeqCst);
                run_task(task);
                continue;
            }
            let guard = data.lock.lock().unwrap_or_else(PoisonError::into_inner);
            if data.pending.load(Ordering::Acquire) == 0 {
                break;
            }
            drop(
                data.done
                    .wait_timeout(guard, SCOPE_HELP_WAIT)
                    .unwrap_or_else(PoisonError::into_inner),
            );
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        let parked = {
            let mut reg = self.inner.lock();
            reg.shutdown = true;
            std::mem::take(&mut reg.parked)
        };
        for (_, wake) in parked {
            wake.notify_one();
        }
        let handles = std::mem::take(
            &mut *self.handles.lock().unwrap_or_else(PoisonError::into_inner),
        );
        for h in handles {
            let _ = h.join();
        }
    }
}

/// Per-scope completion latch and first-panic slot.
struct ScopeData {
    pending: AtomicUsize,
    lock: Mutex<()>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

impl ScopeData {
    fn new() -> ScopeData {
        ScopeData {
            pending: AtomicUsize::new(0),
            lock: Mutex::new(()),
            done: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    fn finish_one(&self) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Take the lock so the waiter cannot check-then-sleep
            // between our decrement and this notify.
            let _guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
            self.done.notify_all();
        }
    }

    fn set_panic(&self, payload: Box<dyn Any + Send + 'static>) {
        let mut slot = self.panic.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    fn take_panic(&self) -> Option<Box<dyn Any + Send + 'static>> {
        self.panic.lock().unwrap_or_else(PoisonError::into_inner).take()
    }
}

/// Spawn surface handed to the closure of [`Executor::scope`].
pub struct Scope<'scope, 'env: 'scope> {
    data: Arc<ScopeData>,
    executor: &'scope Executor,
    _scope: PhantomData<&'scope mut &'scope ()>,
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawn a short, non-blocking task (claim loops, item workers).
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        self.spawn_inner(f, false);
    }

    /// Spawn a resident task that may block on channels for the whole
    /// run (pipeline feeders, stage workers, reorder threads).
    pub fn spawn_resident<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        self.spawn_inner(f, true);
    }

    fn spawn_inner<F>(&self, f: F, resident: bool)
    where
        F: FnOnce() + Send + 'env,
    {
        let data = self.data.clone();
        data.pending.fetch_add(1, Ordering::AcqRel);
        let wrapper = {
            let data = data.clone();
            move || {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                    data.set_panic(payload);
                }
                data.finish_one();
            }
        };
        let task: Box<dyn FnOnce() + Send + 'env> = Box::new(wrapper);
        // SAFETY: lifetime erasure in the `std::thread::scope` mold.
        // `Executor::scope` blocks until `pending` returns to zero —
        // including when its closure panics — so the task can never
        // run, nor be dropped, after `'env` ends. Only the lifetime is
        // transmuted; layout is identical.
        let task: Task = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Task>(task)
        };
        if resident {
            self.executor.submit_resident(task);
        } else {
            self.executor.submit_short(task);
        }
    }
}

/// Run one task; the wrapper already isolates user panics, so a panic
/// escaping here is a runtime bug — contain it rather than killing the
/// lane (poisoning every future run).
fn run_task(task: Task) {
    let _ = catch_unwind(AssertUnwindSafe(task));
}

/// Cached snapshot of lane stealers, refreshed when the pool grows.
struct StealerCache {
    epoch: usize,
    stealers: Vec<Stealer<Task>>,
    /// Rotates the starting sibling so thieves do not convoy on lane 0.
    next: usize,
}

impl StealerCache {
    fn new() -> StealerCache {
        StealerCache { epoch: 0, stealers: Vec::new(), next: 0 }
    }

    fn refresh(&mut self, inner: &Inner) {
        let epoch = inner.lane_epoch.load(Ordering::Acquire);
        if epoch != self.epoch {
            self.stealers = inner.lock().stealers.iter().map(|(_, s)| s.clone()).collect();
            self.epoch = epoch;
        }
    }
}

/// Take one short task: injector first (FIFO fairness for fresh
/// submissions), then sibling deques. Steal traffic is counted in the
/// pool aggregates, and — when the thief is a lane — in `lane` too.
fn steal_one(inner: &Inner, cache: &mut StealerCache, lane: Option<&LaneStats>) -> Option<Task> {
    loop {
        match inner.injector.steal() {
            Steal::Success(t) => {
                inner.stats.injector_pops.fetch_add(1, Ordering::SeqCst);
                if let Some(l) = lane {
                    l.injector_pops.fetch_add(1, Ordering::SeqCst);
                }
                return Some(t);
            }
            Steal::Retry => continue,
            Steal::Empty => break,
        }
    }
    cache.refresh(inner);
    let n = cache.stealers.len();
    for i in 0..n {
        let s = &cache.stealers[(self_rotate(cache, i)) % n];
        inner.stats.steals_attempted.fetch_add(1, Ordering::SeqCst);
        if let Some(l) = lane {
            l.steals_attempted.fetch_add(1, Ordering::SeqCst);
        }
        loop {
            match s.steal() {
                Steal::Success(t) => {
                    cache.next = cache.next.wrapping_add(1);
                    inner.stats.steals_succeeded.fetch_add(1, Ordering::SeqCst);
                    if let Some(l) = lane {
                        l.steals_succeeded.fetch_add(1, Ordering::SeqCst);
                    }
                    return Some(t);
                }
                Steal::Retry => continue,
                Steal::Empty => break,
            }
        }
    }
    None
}

fn self_rotate(cache: &StealerCache, i: usize) -> usize {
    cache.next.wrapping_add(i)
}

/// Pre-register the `executor.*` counter family on a telemetry sink and
/// fill it from the pool's current stats, mirroring the always-present
/// `fault.*` family: a `patty profile` report enumerates the executor
/// surface even for a run that never reached the pool. Inert on a
/// disabled telemetry handle.
pub fn annotate_executor_telemetry(telemetry: &patty_telemetry::Telemetry, executor: &Executor) {
    let stats = executor.stats();
    for (name, value) in [
        ("executor.lanes_spawned", stats.lanes_spawned),
        ("executor.lanes_retired", stats.lanes_retired),
        ("executor.lanes_live", executor.lanes_live() as u64),
        ("executor.resident_handoffs", stats.resident_handoffs),
        ("executor.ephemeral_spawns", stats.ephemeral_spawns),
        ("executor.short_submitted", stats.short_submitted),
        ("executor.tasks_executed", stats.tasks_executed),
        ("executor.tasks_helped", stats.tasks_helped),
        ("executor.steals_attempted", stats.steals_attempted),
        ("executor.steals_succeeded", stats.steals_succeeded),
        ("executor.injector_pops", stats.injector_pops),
        ("executor.parks", stats.parks),
        ("executor.unparks", stats.unparks),
        ("executor.wakeups", stats.wakeups),
        ("executor.deque_depth_hwm", stats.deque_depth_hwm),
    ] {
        telemetry.counter(name).add(value);
    }
}

/// A persistent lane: local deque, then injector batches, then sibling
/// stealing, then parked on its own condvar until a hand-off or the
/// idle-wait timeout. `first` seeds a lane started for a specific
/// resident task; a resident handed to a parked lane runs as soon as
/// the lane wakes, before it looks at its deque or the injector.
///
/// A lane continuously quiescent past `Inner::retire_after` retires: it
/// deregisters its stealer, decrements `live` and exits, all under the
/// registry lock while it is off the parked stack — so no hand-off can
/// be addressed to a retiring lane, and a retirement racing a
/// submission at worst makes the submitter start a fresh lane.
fn lane_main(
    inner: Arc<Inner>,
    lane: Worker<Task>,
    lane_id: u64,
    me: Arc<LaneStats>,
    first: Option<Task>,
) {
    let run_resident = |task: Task| {
        inner.stats.tasks_executed.fetch_add(1, Ordering::SeqCst);
        me.resident_executed.fetch_add(1, Ordering::SeqCst);
        run_task(task);
    };
    let wake = Arc::new(Condvar::new());
    let mut cache = StealerCache::new();
    let mut idle_since: Option<std::time::Instant> = None;
    if let Some(resident) = first {
        run_resident(resident);
    }
    loop {
        // Local LIFO work first (cache-warm), then refill from the
        // shared injector, then steal FIFO from siblings.
        if let Some(task) = lane.pop() {
            idle_since = None;
            inner.stats.tasks_executed.fetch_add(1, Ordering::SeqCst);
            me.short_executed.fetch_add(1, Ordering::SeqCst);
            run_task(task);
            continue;
        }
        match inner.injector.steal_batch_and_pop(&lane) {
            Steal::Success(task) => {
                idle_since = None;
                // The popped task plus whatever the batch left in the
                // local deque is this lane's post-refill depth.
                let depth = lane.len() as u64 + 1;
                me.deque_depth_hwm.fetch_max(depth, Ordering::SeqCst);
                inner.stats.deque_depth_hwm.fetch_max(depth, Ordering::SeqCst);
                inner.stats.injector_pops.fetch_add(1, Ordering::SeqCst);
                me.injector_pops.fetch_add(1, Ordering::SeqCst);
                inner.stats.tasks_executed.fetch_add(1, Ordering::SeqCst);
                me.short_executed.fetch_add(1, Ordering::SeqCst);
                run_task(task);
                continue;
            }
            Steal::Retry => continue,
            Steal::Empty => {}
        }
        cache.refresh(&inner);
        if let Some(task) = steal_one(&inner, &mut cache, Some(&me)) {
            idle_since = None;
            inner.stats.tasks_executed.fetch_add(1, Ordering::SeqCst);
            me.short_executed.fetch_add(1, Ordering::SeqCst);
            run_task(task);
            continue;
        }
        // Nothing stealable: park. The injector re-check under the lock
        // closes the missed-wakeup window (submit_short pushes before it
        // takes this lock, and sees this lane parked once it has it).
        let mut reg = inner.lock();
        if !inner.injector.is_empty() {
            continue;
        }
        if reg.shutdown {
            reg.lane_stats.retain(|s| s.lane_id != lane_id);
            reg.live -= 1;
            return;
        }
        // A full scan found nothing: the quiescent period starts (or
        // continues) now. The local deque is empty here — only this
        // lane pushes to it — so retiring strands no task, and a lane
        // off the parked stack has no hand-off waiting for it.
        let now = std::time::Instant::now();
        let quiescent_start = *idle_since.get_or_insert(now);
        if let Some(retire_after) = inner.retire_after {
            if now.duration_since(quiescent_start) >= retire_after {
                reg.stealers.retain(|(id, _)| *id != lane_id);
                reg.lane_stats.retain(|s| s.lane_id != lane_id);
                reg.live -= 1;
                inner.lane_epoch.fetch_add(1, Ordering::Release);
                inner.stats.lanes_retired.fetch_add(1, Ordering::SeqCst);
                return;
            }
        }
        reg.parked.push((lane_id, wake.clone()));
        inner.stats.parks.fetch_add(1, Ordering::SeqCst);
        me.parks.fetch_add(1, Ordering::SeqCst);
        let (mut reg, _timeout) = wake
            .wait_timeout(reg, LANE_IDLE_WAIT)
            .unwrap_or_else(PoisonError::into_inner);
        inner.stats.unparks.fetch_add(1, Ordering::SeqCst);
        me.unparks.fetch_add(1, Ordering::SeqCst);
        match reg.handed.iter().position(|(id, _)| *id == lane_id) {
            Some(at) => match reg.handed.swap_remove(at).1 {
                Some(resident) => {
                    drop(reg);
                    idle_since = None;
                    run_resident(resident);
                }
                None => reg.waking -= 1,
            },
            // Timed out (or woke spuriously): no submitter popped this
            // lane, so it is still on the stack.
            None => reg.parked.retain(|(id, _)| *id != lane_id),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_pool_cap_accepts_clamps_and_rejects() {
        assert_eq!(parse_pool_cap(None), None);
        assert_eq!(parse_pool_cap(Some("")), None);
        assert_eq!(parse_pool_cap(Some("not a number")), None);
        assert_eq!(parse_pool_cap(Some("-3")), None);
        assert_eq!(parse_pool_cap(Some("6")), Some(6));
        assert_eq!(parse_pool_cap(Some(" 12 ")), Some(12));
        assert_eq!(parse_pool_cap(Some("0")), Some(1), "zero degrades to one lane");
        assert_eq!(
            parse_pool_cap(Some("4096")),
            Some(MAX_POOL_THREADS),
            "requests above the cap degrade to the cap"
        );
    }

    #[test]
    fn with_threads_clamps_to_the_hard_cap() {
        let pool = Executor::with_threads(1_000_000);
        assert_eq!(pool.cap(), MAX_POOL_THREADS);
        let pool = Executor::with_threads(0);
        assert_eq!(pool.cap(), 1);
    }

    #[test]
    fn scope_runs_borrowing_tasks_to_completion() {
        let pool = Executor::with_threads(2);
        let mut results = vec![0usize; 64];
        {
            let slots: Vec<_> = results.iter_mut().collect();
            pool.scope(SpawnMode::Pooled, |s| {
                for (i, slot) in slots.into_iter().enumerate() {
                    s.spawn(move || *slot = i * 2);
                }
            });
        }
        assert_eq!(results, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn task_panic_resumes_on_the_caller_after_all_tasks_finish() {
        let pool = Executor::with_threads(2);
        let finished = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(SpawnMode::Pooled, |s| {
                let finished = &finished;
                for i in 0..16 {
                    s.spawn(move || {
                        if i == 7 {
                            panic!("task seven failed");
                        }
                        finished.fetch_add(1, Ordering::SeqCst);
                    });
                }
            })
        }));
        let payload = result.unwrap_err();
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "task seven failed");
        assert_eq!(
            finished.load(Ordering::SeqCst),
            15,
            "non-panicking tasks all completed before the scope unwound"
        );
    }

    #[test]
    fn closure_panic_still_waits_for_spawned_tasks() {
        let pool = Executor::with_threads(2);
        let finished = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(SpawnMode::Pooled, |s| {
                for _ in 0..8 {
                    s.spawn(|| {
                        std::thread::sleep(Duration::from_millis(1));
                        finished.fetch_add(1, Ordering::SeqCst);
                    });
                }
                panic!("closure failed after spawning");
            })
        }));
        assert!(result.is_err());
        assert_eq!(
            finished.load(Ordering::SeqCst),
            8,
            "tasks borrowed from the frame, so the scope waited before unwinding"
        );
    }

    #[test]
    fn lanes_are_reused_across_scopes() {
        let pool = Executor::with_threads(4);
        for _ in 0..20 {
            pool.scope(SpawnMode::Pooled, |s| {
                for _ in 0..4 {
                    s.spawn(|| {});
                }
            });
        }
        let stats = pool.stats();
        assert!(
            stats.lanes_spawned <= 4,
            "80 tasks over 20 scopes started {} lanes (cap 4)",
            stats.lanes_spawned
        );
        assert_eq!(
            stats.tasks_executed + stats.tasks_helped,
            80,
            "every task ran on a lane or a helping caller"
        );
        assert_eq!(stats.ephemeral_spawns, 0, "short tasks never take the ephemeral path");
    }

    #[test]
    fn resident_tasks_get_dedicated_threads_beyond_the_cap() {
        // 1-lane pool, 3 resident tasks that must all be live at once
        // to rendezvous through channels: the pool must fall back to
        // ephemeral threads rather than queue (which would deadlock).
        let pool = Executor::with_threads(1);
        let (tx1, rx1) = crossbeam::channel::bounded::<u32>(1);
        let (tx2, rx2) = crossbeam::channel::bounded::<u32>(1);
        let (ack_tx, ack_rx) = crossbeam::channel::bounded::<u32>(1);
        let mut out = 0;
        pool.scope(SpawnMode::Pooled, |s| {
            // The ack keeps the first task (and with it the only lane)
            // alive until the third has run, so the overlap is genuine —
            // without it a fast lane could serve all three sequentially.
            s.spawn_resident(move || {
                tx1.send(1).unwrap();
                ack_rx.recv().unwrap();
            });
            s.spawn_resident(move || {
                let v = rx1.recv().unwrap();
                tx2.send(v + 1).unwrap();
            });
            s.spawn_resident(|| {
                out = rx2.recv().unwrap() + 1;
                ack_tx.send(0).unwrap();
            });
        });
        assert_eq!(out, 3);
        let stats = pool.stats();
        assert!(
            stats.ephemeral_spawns >= 1,
            "a full 1-lane pool must overflow residents to ephemeral threads \
             (stats: {stats:?})"
        );
    }

    #[test]
    fn pool_never_exceeds_its_lane_cap() {
        let pool = Executor::with_threads(3);
        pool.scope(SpawnMode::Pooled, |s| {
            for _ in 0..64 {
                s.spawn(|| std::thread::sleep(Duration::from_micros(100)));
            }
        });
        assert!(pool.lanes_live() <= 3, "live lanes {} exceed cap 3", pool.lanes_live());
        assert!(pool.stats().lanes_spawned <= 3);
    }

    #[test]
    fn idle_lanes_retire_after_quiescence_and_the_pool_regrows() {
        let pool = Executor::with_idle_retirement(4, Duration::from_millis(20));
        pool.scope(SpawnMode::Pooled, |s| {
            for _ in 0..16 {
                s.spawn(|| std::thread::sleep(Duration::from_micros(200)));
            }
        });
        let warm = pool.stats();
        assert!(warm.lanes_spawned >= 1, "warm-up must start at least one lane");
        // Decay: parked lanes wake every LANE_IDLE_WAIT, notice the
        // retirement window has passed, deregister and exit.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while pool.lanes_live() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(pool.lanes_live(), 0, "idle lanes must retire after the window");
        assert!(pool.stats().lanes_retired >= 1);
        // Regrow: the next run starts fresh lanes below the cap and
        // completes exactly as before the decay.
        let counter = AtomicUsize::new(0);
        pool.scope(SpawnMode::Pooled, |s| {
            let counter = &counter;
            for _ in 0..16 {
                s.spawn(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 16);
        let after = pool.stats();
        assert!(
            after.lanes_spawned > warm.lanes_spawned,
            "a decayed pool must regrow on demand ({} !> {})",
            after.lanes_spawned,
            warm.lanes_spawned
        );
        assert!(pool.lanes_live() <= pool.cap());
    }

    #[test]
    fn stats_snapshots_stay_coherent_under_concurrent_readers() {
        // Writers hammer short-task scopes while readers snapshot. A
        // coherent snapshot can never show more tasks consumed than
        // submissions visible: executed + helped <= short_submitted +
        // resident_handoffs + lanes_spawned (seed tasks). The pre-fix
        // publish-then-count order let readers observe the inversion.
        let pool = Arc::new(Executor::with_threads(3));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let violations = Arc::new(AtomicUsize::new(0));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let pool = pool.clone();
                let stop = stop.clone();
                let violations = violations.clone();
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        let s = pool.stats();
                        let consumed = s.tasks_executed + s.tasks_helped;
                        let submitted =
                            s.short_submitted + s.resident_handoffs + s.lanes_spawned;
                        if consumed > submitted {
                            violations.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                })
            })
            .collect();
        for _ in 0..300 {
            pool.scope(SpawnMode::Pooled, |s| {
                for _ in 0..8 {
                    s.spawn(|| {});
                }
            });
        }
        stop.store(true, Ordering::Release);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(
            violations.load(Ordering::SeqCst),
            0,
            "stats() observed executed tasks before their submission"
        );
    }

    #[test]
    fn lane_snapshots_track_per_lane_activity() {
        let pool = Executor::with_threads(2);
        pool.scope(SpawnMode::Pooled, |s| {
            for _ in 0..64 {
                s.spawn(|| std::thread::sleep(Duration::from_micros(50)));
            }
        });
        let lanes = pool.lane_snapshots();
        let stats = pool.stats();
        assert!(!lanes.is_empty(), "a run must leave live lanes behind");
        assert!(
            lanes.windows(2).all(|w| w[0].lane_id < w[1].lane_id),
            "snapshots are ordered by monotonic lane id"
        );
        let lane_executed: u64 =
            lanes.iter().map(|l| l.short_executed + l.resident_executed).sum();
        assert!(
            lane_executed <= stats.tasks_executed,
            "live-lane totals ({lane_executed}) cannot exceed the pool aggregate \
             ({})",
            stats.tasks_executed
        );
        assert_eq!(
            stats.tasks_executed + stats.tasks_helped,
            64,
            "every task ran on a lane or a helping caller"
        );
        let pops: u64 = lanes.iter().map(|l| l.injector_pops).sum();
        assert!(pops <= stats.injector_pops, "per-lane pops are a subset of the aggregate");
        if stats.tasks_executed > 0 {
            assert!(
                stats.injector_pops + stats.steals_succeeded > 0,
                "lane-executed short tasks arrive via the injector or steals"
            );
            assert!(stats.deque_depth_hwm >= 1, "a batch refill records a depth watermark");
        }
    }

    #[test]
    fn retired_lanes_leave_the_snapshot_but_keep_the_aggregates() {
        let pool = Executor::with_idle_retirement(2, Duration::from_millis(15));
        pool.scope(SpawnMode::Pooled, |s| {
            for _ in 0..8 {
                s.spawn(|| {});
            }
        });
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while pool.lanes_live() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(pool.lane_snapshots().is_empty(), "retired lanes deregister their counters");
        let stats = pool.stats();
        assert!(stats.lanes_retired >= 1);
        assert_eq!(stats.tasks_executed + stats.tasks_helped, 8, "aggregates survive retirement");
    }

    #[test]
    fn annotate_executor_telemetry_registers_the_full_family() {
        let telemetry = patty_telemetry::Telemetry::enabled();
        let pool = Executor::with_threads(2);
        pool.scope(SpawnMode::Pooled, |s| {
            for _ in 0..4 {
                s.spawn(|| {});
            }
        });
        annotate_executor_telemetry(&telemetry, &pool);
        let report = telemetry.report();
        // Every field, named without `..`: a new ExecutorStats counter
        // does not compile here until it is listed below. The metrics
        // exporter's twin test (`patty-obs`) holds `patty_executor_*` to
        // the family this test pins, so both surfaces list the same
        // counters.
        let ExecutorStats {
            lanes_spawned: _,
            resident_handoffs: _,
            ephemeral_spawns: _,
            short_submitted: _,
            tasks_executed: _,
            tasks_helped: _,
            lanes_retired: _,
            steals_attempted: _,
            steals_succeeded: _,
            injector_pops: _,
            parks: _,
            unparks: _,
            wakeups: _,
            deque_depth_hwm: _,
        } = ExecutorStats::default();
        let expected: std::collections::BTreeSet<&str> = [
            "lanes_spawned",
            "resident_handoffs",
            "ephemeral_spawns",
            "short_submitted",
            "tasks_executed",
            "tasks_helped",
            "lanes_retired",
            "steals_attempted",
            "steals_succeeded",
            "injector_pops",
            "parks",
            "unparks",
            "wakeups",
            "deque_depth_hwm",
            "lanes_live",
        ]
        .into_iter()
        .collect();
        let registered: std::collections::BTreeSet<&str> = report
            .counters
            .iter()
            .filter_map(|(name, _)| name.strip_prefix("executor."))
            .collect();
        assert_eq!(registered, expected, "the executor.* family is exactly the pool's counters");
        assert_eq!(report.counter("executor.short_submitted"), Some(4));
    }

    #[test]
    fn dropping_a_private_pool_joins_its_lanes() {
        let pool = Executor::with_threads(2);
        pool.scope(SpawnMode::Pooled, |s| {
            for _ in 0..8 {
                s.spawn(|| {});
            }
        });
        drop(pool); // must not hang or leak
    }

    #[test]
    fn nested_scopes_on_the_same_pool_make_progress() {
        // A task running on a lane opens its own scope (the nested-
        // pattern shape: master/worker inside a pipeline stage). The
        // inner scope's caller-helping keeps it live even when every
        // lane is occupied by the outer scope.
        let pool = Executor::with_threads(1);
        let total = AtomicUsize::new(0);
        pool.scope(SpawnMode::Pooled, |outer| {
            let total = &total;
            outer.spawn(move || {
                Executor::global().scope(SpawnMode::Pooled, |inner| {
                    for _ in 0..8 {
                        inner.spawn(|| {
                            total.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                });
            });
        });
        assert_eq!(total.load(Ordering::SeqCst), 8);
    }

    // Wake protocol. The tests below poll, under a deadline, for every
    // lane to be parked, and count a trial only when no lane woke on its
    // own (idle-wait timeout) inside it; no sleep stands in for a margin.

    /// A pool of `lanes` lanes that do not retire during a test. Each
    /// lane is started by a resident waiting at a barrier for all the
    /// others, so no lane is free to take the next resident.
    fn pool_with_lanes(lanes: usize) -> Executor {
        let pool = Executor::with_idle_retirement(lanes, Duration::from_secs(3600));
        let barrier = std::sync::Barrier::new(lanes);
        pool.scope(SpawnMode::Pooled, |s| {
            for _ in 0..lanes {
                s.spawn_resident(|| {
                    barrier.wait();
                });
            }
        });
        let stats = pool.stats();
        assert_eq!((stats.lanes_spawned, stats.ephemeral_spawns), (lanes as u64, 0));
        pool
    }

    /// Poll until every live lane is parked with no wake-up outstanding
    /// and `also` holds, then snapshot the stats under the registry lock,
    /// so the snapshot sees every lane parked.
    fn snapshot_when_parked(pool: &Executor, also: impl Fn(&Registry) -> bool) -> ExecutorStats {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            {
                let reg = pool.inner.lock();
                if reg.parked.len() == reg.live && reg.handed.is_empty() && also(&reg) {
                    return pool.stats();
                }
            }
            assert!(std::time::Instant::now() < deadline, "lanes never all parked");
            std::thread::yield_now();
        }
    }

    /// Whether every lane that woke between two snapshots woke for a
    /// wake-up. A lane leaves the parked stack only when a submitter pops
    /// it or when it wakes on its own, and the unpark is counted as soon
    /// as its wait returns; so when this holds, each submission in the
    /// window saw every lane it did not pop itself still parked.
    fn no_lane_woke_on_its_own(before: &ExecutorStats, after: &ExecutorStats) -> bool {
        after.unparks - before.unparks <= after.wakeups - before.wakeups
    }

    /// Trials to attempt, and how many must be conclusive.
    const TRIALS: usize = 1000;
    const CONCLUSIVE: usize = 10;

    #[test]
    fn one_short_task_wakes_exactly_one_of_the_parked_lanes() {
        let pool = pool_with_lanes(4);
        let mut conclusive = 0;
        for _ in 0..TRIALS {
            let before = snapshot_when_parked(&pool, |_| true);
            pool.scope(SpawnMode::Pooled, |s| s.spawn(|| {}));
            let after = pool.stats();
            if no_lane_woke_on_its_own(&before, &after) {
                assert_eq!(
                    after.wakeups - before.wakeups,
                    1,
                    "one short task over 4 parked lanes sends one wake-up"
                );
                conclusive += 1;
                if conclusive == CONCLUSIVE {
                    return;
                }
            }
        }
        panic!("only {conclusive} of {TRIALS} trials ran without an idle-wait timeout");
    }

    /// A short-task gate: tasks wait at it until the scope has submitted
    /// all of them, so a woken lane stays busy and cannot park again and
    /// be woken a second time inside the burst.
    #[derive(Default)]
    struct Gate {
        open: Mutex<bool>,
        opened: Condvar,
    }

    impl Gate {
        fn wait(&self) {
            let mut open = self.open.lock().unwrap();
            while !*open {
                open = self.opened.wait(open).unwrap();
            }
        }

        fn open(&self) {
            *self.open.lock().unwrap() = true;
            self.opened.notify_all();
        }
    }

    #[test]
    fn a_burst_of_short_tasks_wakes_at_most_one_lane_per_task_and_per_parked_lane() {
        let lanes = 3;
        let pool = pool_with_lanes(lanes);
        for k in [1usize, 2, 3, 5, 16, 64] {
            let before = snapshot_when_parked(&pool, |_| true);
            let gate = Gate::default();
            let ran = AtomicUsize::new(0);
            pool.scope(SpawnMode::Pooled, |s| {
                for _ in 0..k {
                    s.spawn(|| {
                        gate.wait();
                        ran.fetch_add(1, Ordering::SeqCst);
                    });
                }
                gate.open();
            });
            assert_eq!(ran.load(Ordering::SeqCst), k);
            let sent = pool.stats().wakeups - before.wakeups;
            assert!(
                sent <= k.min(lanes) as u64,
                "{k} short tasks over {lanes} parked lanes sent {sent} wake-ups"
            );
        }
    }

    #[test]
    fn a_resident_goes_to_the_most_recently_parked_lane() {
        let pool = pool_with_lanes(3);
        let mut conclusive = 0;
        for _ in 0..TRIALS {
            let top = std::cell::Cell::new(u64::MAX);
            let before = snapshot_when_parked(&pool, |reg| {
                let Some((lane, _)) = reg.parked.last() else { return false };
                top.set(*lane);
                true
            });
            let ran_on = Mutex::new(String::new());
            pool.scope(SpawnMode::Pooled, |s| {
                s.spawn_resident(|| {
                    *ran_on.lock().unwrap() =
                        std::thread::current().name().unwrap_or_default().to_string();
                });
            });
            let after = pool.stats();
            if !no_lane_woke_on_its_own(&before, &after) {
                continue;
            }
            assert_eq!(*ran_on.lock().unwrap(), format!("patty-lane-{}", top.get()));
            assert_eq!(after.wakeups - before.wakeups, 1);
            conclusive += 1;
            if conclusive == CONCLUSIVE {
                return;
            }
        }
        panic!("only {conclusive} of {TRIALS} trials ran without an idle-wait timeout");
    }

    #[test]
    fn a_lane_handed_a_resident_runs_it_before_any_short_task_it_could_see() {
        type Log = Arc<Mutex<Vec<(String, &'static str)>>>;
        fn record(log: &Log, what: &'static str) {
            let thread = std::thread::current().name().unwrap_or_default().to_string();
            log.lock().unwrap().push((thread, what));
        }
        let pool = pool_with_lanes(1);
        let log: Log = Arc::default();
        let mut conclusive = 0;
        for _ in 0..TRIALS {
            let before = snapshot_when_parked(&pool, |_| true);
            log.lock().unwrap().clear();
            // Short work the parked lane would find on any scan, queued
            // without a wake-up of its own.
            for _ in 0..3 {
                let log = log.clone();
                pool.inner.injector.push(Box::new(move || record(&log, "short")));
            }
            pool.scope(SpawnMode::Pooled, |s| {
                s.spawn_resident(|| record(&log, "resident"));
                // Hold the caller here, so it does not help (and drain
                // the short tasks) before the resident has run.
                let deadline = std::time::Instant::now() + Duration::from_secs(10);
                while !log.lock().unwrap().iter().any(|(_, what)| *what == "resident") {
                    assert!(std::time::Instant::now() < deadline, "the resident never ran");
                    std::thread::yield_now();
                }
            });
            let after = pool.stats();
            if !no_lane_woke_on_its_own(&before, &after) {
                continue;
            }
            let log = log.lock().unwrap();
            let lane = &log.iter().find(|(_, what)| *what == "resident").unwrap().0;
            assert_eq!(lane, "patty-lane-0", "the parked lane took the resident");
            let first = log.iter().find(|(thread, _)| thread == lane).unwrap();
            assert_eq!(first.1, "resident", "the lane ran short work first: {log:?}");
            conclusive += 1;
            if conclusive == CONCLUSIVE {
                return;
            }
        }
        panic!("only {conclusive} of {TRIALS} trials ran without an idle-wait timeout");
    }

    /// Mixed short and resident scopes on pools of cap 1, 2 and 4: every
    /// task runs exactly once and the pool accounts for each. A scope's
    /// residents pass a token round a ring of channels, the first one
    /// waiting for it to come back, so they need threads of their own at
    /// once and deadlock if one is queued behind another. Fixed counts,
    /// no timing.
    #[test]
    fn mixed_short_and_resident_scopes_run_every_task_exactly_once() {
        const SCOPES: usize = 2_000;
        for cap in [1, 2, 4] {
            let pool = Executor::with_threads(cap);
            let (mut shorts, mut residents) = (0u64, 0u64);
            let runs: Vec<AtomicUsize> = (0..SCOPES * 8).map(|_| AtomicUsize::new(0)).collect();
            for i in 0..SCOPES {
                let n_short = i % 5;
                let n_resident = [0, 2, 3][i % 3];
                let slots = &runs[i * 8..(i + 1) * 8];
                pool.scope(SpawnMode::Pooled, |s| {
                    let ring: Vec<_> =
                        (0..n_resident).map(|_| crossbeam::channel::bounded::<u32>(1)).collect();
                    for r in 0..n_resident {
                        let rx = ring[r].1.clone();
                        let tx = ring[(r + 1) % n_resident].0.clone();
                        let slot = &slots[r];
                        s.spawn_resident(move || {
                            if r == 0 {
                                tx.send(1).unwrap();
                                assert_eq!(rx.recv().unwrap(), n_resident as u32);
                            } else {
                                tx.send(rx.recv().unwrap() + 1).unwrap();
                            }
                            slot.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                    for slot in &slots[n_resident..n_resident + n_short] {
                        s.spawn(move || {
                            slot.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                });
                shorts += n_short as u64;
                residents += n_resident as u64;
                for (j, slot) in slots.iter().enumerate() {
                    let expected = usize::from(j < n_resident + n_short);
                    assert_eq!(slot.load(Ordering::SeqCst), expected, "cap {cap}, scope {i}, task {j}");
                }
            }
            let stats = pool.stats();
            assert_eq!(stats.short_submitted, shorts, "cap {cap}");
            assert_eq!(
                stats.tasks_executed + stats.tasks_helped,
                shorts + residents - stats.ephemeral_spawns,
                "cap {cap}: every short task and every resident that ran on a lane is counted once \
                 ({stats:?})"
            );
        }
    }
}
