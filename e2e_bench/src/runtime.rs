//! `runtime_patterns`: the library the generated code runs on, on the
//! shared executor with `workers = nproc` and the default pooled mode.
//! Coarse kinds measure real parallel speed-up on the cores the host
//! has; fine kinds measure per-item and per-run overhead, so an overhead
//! cut that costs throughput (or the reverse) shows in the geomean.

use crate::host::{self, busy_work, Rng};
use crate::trace::Tracer;
use crate::{Outcome, Plan};
use patty_runtime::{Executor, MasterWorker, ParallelFor, Pipeline, SpawnMode, Stage};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

const COARSE_STREAM: u64 = 2_000;
const COARSE_WORK: u64 = 400;
const FINE_STREAM: u64 = 200_000;
const SKEWED_N: usize = 2_048;
/// Half of what would put this kind, the noisiest (its time is all
/// wake-ups), at the median of a round, where `op_p50_ms` would read it.
const SMALL_LOOPS: u64 = 2_000;
const SMALL_N: usize = 64;
const MW_TASKS: u64 = 1_024;
const MW_WORK: u64 = 2_000;

const KINDS: [&str; 5] = [
    "pipe_coarse",
    "pipe_fine",
    "parfor_skewed",
    "parfor_small",
    "mw_coarse",
];
const ITEMS: [u64; 5] = [
    COARSE_STREAM,
    FINE_STREAM,
    SKEWED_N as u64,
    SMALL_LOOPS,
    MW_TASKS,
];

/// Every fourth round of a traced run also times the sequential oracles.
const ORACLE_EVERY: u64 = 4;

fn coarse_stage(k: u64) -> impl Fn(u64) -> u64 + Send + Sync + 'static {
    move |x| x ^ busy_work(COARSE_WORK, x.wrapping_add(k))
}

const FINE_STAGES: [fn(u64) -> u64; 4] = [
    |x| x.wrapping_add(1),
    |x| x.wrapping_mul(3),
    |x| x ^ (x >> 7),
    |x| x.wrapping_sub(5),
];

fn skewed(base: u64, i: usize) -> u64 {
    busy_work((i * i / SKEWED_N) as u64, base.wrapping_add(i as u64))
}

fn small(base: u64, i: usize) -> u64 {
    (base ^ i as u64).wrapping_mul(0x9E37_79B9)
}

/// The inputs of one run and what a sequential loop makes of them.
struct Inputs {
    base: u64,
    workers: usize,
    coarse: Pipeline<u64>,
    fine: Pipeline<u64>,
    /// Per kind, what its oracle computed during set-up.
    expect: Vec<Checked>,
}

impl Inputs {
    fn stream(&self, n: u64) -> Vec<u64> {
        (0..n).map(|i| self.base.wrapping_add(i)).collect()
    }

    /// The sequential oracle of kind `k`: plain loops, no runtime.
    fn oracle(&self, k: usize) -> Checked {
        match k {
            0 => Checked::Vec(
                self.stream(COARSE_STREAM)
                    .into_iter()
                    .map(|x| (0..4).fold(x, |x, k| coarse_stage(k)(x)))
                    .collect(),
            ),
            1 => Checked::Vec(
                self.stream(FINE_STREAM)
                    .into_iter()
                    .map(|x| FINE_STAGES.iter().fold(x, |x, f| f(x)))
                    .collect(),
            ),
            2 => Checked::Vec((0..SKEWED_N).map(|i| skewed(self.base, i)).collect()),
            3 => {
                let mut sum = 0u64;
                for run in 0..SMALL_LOOPS {
                    for i in 0..SMALL_N {
                        sum = sum.wrapping_add(small(self.base.wrapping_add(run), i));
                    }
                }
                Checked::Sum(sum)
            }
            _ => Checked::Vec(
                self.stream(MW_TASKS)
                    .into_iter()
                    .map(|x| busy_work(MW_WORK, x))
                    .collect(),
            ),
        }
    }

    /// Kind `k` on the runtime library.
    fn parallel(&self, k: usize) -> Checked {
        match k {
            0 => Checked::Vec(self.coarse.run(self.stream(COARSE_STREAM))),
            1 => Checked::Vec(self.fine.run(self.stream(FINE_STREAM))),
            2 => {
                let base = self.base;
                let pf = ParallelFor::new(self.workers)
                    .with_chunk(64)
                    .with_min_chunk(1);
                Checked::Vec(pf.map(SKEWED_N, move |i| skewed(base, i)))
            }
            3 => {
                let pf = ParallelFor::new(self.workers).with_chunk(16);
                let sum = AtomicU64::new(0);
                for run in 0..SMALL_LOOPS {
                    let base = self.base.wrapping_add(run);
                    pf.for_each(SMALL_N, |i| {
                        sum.fetch_add(small(base, i), Ordering::Relaxed);
                    });
                }
                Checked::Sum(sum.into_inner())
            }
            _ => Checked::Vec(
                MasterWorker::new(self.workers)
                    .run(self.stream(MW_TASKS), |x| busy_work(MW_WORK, x)),
            ),
        }
    }

    fn verify(&self, k: usize, got: &Checked) -> Result<(), String> {
        (*got == self.expect[k])
            .then_some(())
            .ok_or(format!("{} differs from its sequential oracle", KINDS[k]))
    }
}

#[derive(PartialEq)]
enum Checked {
    Vec(Vec<u64>),
    Sum(u64),
}

/// Generate the inputs, run the oracles, and run every kind once so that
/// the pool's lanes exist before anything is timed.
fn set_up(seed: u64) -> Result<Inputs, String> {
    let base = Rng::new(seed).next();
    let mut inputs = Inputs {
        base,
        workers: host::nproc(),
        coarse: Pipeline::new(
            (0..4)
                .map(|k| Stage::new(format!("s{k}"), coarse_stage(k)))
                .collect(),
        )
        .with_batch(16),
        fine: Pipeline::new(
            FINE_STAGES
                .iter()
                .enumerate()
                .map(|(k, f)| Stage::new(format!("f{k}"), *f))
                .collect(),
        )
        .with_batch(64),
        expect: Vec::new(),
    };
    inputs.expect = (0..KINDS.len()).map(|k| inputs.oracle(k)).collect();
    Executor::global().scope(SpawnMode::Pooled, |scope| scope.spawn(|| {}));
    for k in 0..KINDS.len() {
        inputs.verify(k, &inputs.parallel(k))?;
    }
    Ok(inputs)
}

pub fn run(plan: &Plan) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let mut out = Outcome::new(KINDS.iter().map(|k| k.to_string()).collect());
    let mut inputs: Option<Inputs> = None;
    for _ in 0..crate::SETUP_REPEATS {
        let t0 = Instant::now();
        let again = set_up(plan.seed)?;
        out.setup_s.push(t0.elapsed().as_secs_f64());
        // Determinism: one seed, one set of inputs, however often made.
        if inputs.is_some_and(|before| before.expect != again.expect) {
            return Err("the generated inputs changed between two set-ups with one seed".into());
        }
        inputs = Some(again);
    }
    let inputs = inputs.expect("SETUP_REPEATS is at least one");

    let mut tr = Tracer::new(plan.traced, epoch);
    let mut seq_ms = vec![Vec::new(); KINDS.len()];
    let stats0 = Executor::global().stats();
    let cpu0 = host::usage_self().cpu_s;
    let started = Instant::now();
    let mut round = 0u64;
    while started.elapsed() < plan.duration {
        for step in 0..KINDS.len() {
            // Rotated, so no kind always follows the same neighbour.
            let k = (round as usize + step) % KINDS.len();
            tr.set_op(round * KINDS.len() as u64 + k as u64);
            let (got, wall) = tr.time(KINDS[k], |_| inputs.parallel(k));
            out.timed_wall_s += wall.as_secs_f64();
            out.record(k, wall.as_secs_f64() * 1e3, inputs.verify(k, &got));
            if plan.traced && round.is_multiple_of(ORACLE_EVERY) {
                let (oracle, wall) = tr.time("oracle", |_| inputs.oracle(k));
                std::hint::black_box(oracle);
                seq_ms[k].push(wall.as_secs_f64() * 1e3);
            }
        }
        round += 1;
    }
    out.cpu_s = host::usage_self().cpu_s - cpu0;
    out.peak_rss_kb = host::usage_self().maxrss_kb;
    out.note(format!("{round} rounds, workers = {}", inputs.workers));

    if plan.traced {
        let stats1 = Executor::global().stats();
        for k in 0..KINDS.len() {
            let typ = crate::stats::iqm(&out.samples[k]);
            let seq = crate::stats::iqm(&seq_ms[k]);
            out.layer(
                &format!("runtime.{}.ns_per_item", KINDS[k]),
                typ * 1e6 / ITEMS[k] as f64,
            );
            out.layer(&format!("runtime.{}.seq_ms", KINDS[k]), seq);
            out.layer(&format!("runtime.{}.speedup_vs_seq", KINDS[k]), seq / typ);
        }
        let attempted = stats1.steals_attempted - stats0.steals_attempted;
        let succeeded = stats1.steals_succeeded - stats0.steals_succeeded;
        out.layer(
            "runtime.executor.steal_ratio",
            succeeded as f64 / attempted.max(1) as f64,
        );
        out.layer(
            "runtime.executor.parks",
            (stats1.parks - stats0.parks) as f64 / round as f64,
        );
        out.layer(
            "runtime.executor.lanes",
            Executor::global().lane_snapshots().len() as f64,
        );
        out.recorders.push(tr.spans);
    }
    Ok(out)
}
