//! Per-endpoint service counters and latency windows.
//!
//! Latency is recorded into a bounded ring per op (request arrival to
//! response ready, cache hits included — that *is* the service's
//! latency), and quantiles are computed over the window at scrape
//! time, so a scrape is cheap and the memory bound is fixed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Ops with latency series: the four job kinds (by `JobKind::index`)
/// plus the `stats` scrape itself.
pub(crate) const OPS: [&str; 5] = ["analyze", "tune", "faultcheck", "trace", "stats"];

/// Op index of the `stats` endpoint in [`OPS`].
pub(crate) const STATS_OP: usize = 4;

const WINDOW: usize = 4096;

#[derive(Default)]
struct LatWindow {
    ring: Vec<u64>,
    next: usize,
    count: u64,
    sum_us: u64,
    max_us: u64,
}

impl LatWindow {
    fn record(&mut self, micros: u64) {
        if self.ring.len() < WINDOW {
            self.ring.push(micros);
        } else {
            self.ring[self.next] = micros;
            self.next = (self.next + 1) % WINDOW;
        }
        self.count += 1;
        self.sum_us += micros;
        self.max_us = self.max_us.max(micros);
    }

    fn quantiles(&self) -> Option<LatSummary> {
        if self.ring.is_empty() {
            return None;
        }
        let mut sorted = self.ring.clone();
        sorted.sort_unstable();
        let pick = |q: usize| sorted[(sorted.len() - 1) * q / 100];
        Some(LatSummary {
            count: self.count,
            sum_us: self.sum_us,
            max_us: self.max_us,
            p50_us: pick(50),
            p95_us: pick(95),
            p99_us: pick(99),
        })
    }
}

/// One op's latency picture at scrape time.
#[derive(Clone, Copy, Debug)]
pub struct LatSummary {
    pub count: u64,
    pub sum_us: u64,
    pub max_us: u64,
    pub p50_us: u64,
    pub p95_us: u64,
    pub p99_us: u64,
}

pub struct ServeMetrics {
    jobs: [AtomicU64; 5],
    errors: AtomicU64,
    deadlines: AtomicU64,
    singleflight: AtomicU64,
    lat: [Mutex<LatWindow>; 5],
}

impl ServeMetrics {
    pub(crate) fn new() -> ServeMetrics {
        ServeMetrics {
            jobs: Default::default(),
            errors: AtomicU64::new(0),
            deadlines: AtomicU64::new(0),
            singleflight: AtomicU64::new(0),
            lat: Default::default(),
        }
    }

    pub(crate) fn bump_job(&self, op: usize) {
        self.jobs[op].fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn bump_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn bump_deadline(&self) {
        self.deadlines.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn bump_singleflight(&self) {
        self.singleflight.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record(&self, op: usize, micros: u64) {
        self.lat[op].lock().unwrap().record(micros);
    }

    pub(crate) fn jobs_total(&self, op: usize) -> u64 {
        self.jobs[op].load(Ordering::Relaxed)
    }

    pub(crate) fn errors_total(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    pub fn deadlines_total(&self) -> u64 {
        self.deadlines.load(Ordering::Relaxed)
    }

    pub fn singleflight_total(&self) -> u64 {
        self.singleflight.load(Ordering::Relaxed)
    }

    pub fn latency(&self, op: usize) -> Option<LatSummary> {
        self.lat[op].lock().unwrap().quantiles()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_quantiles_track_the_distribution() {
        let m = ServeMetrics::new();
        for us in 1..=100 {
            m.record(0, us);
        }
        let s = m.latency(0).unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.max_us, 100);
        assert!((49..=51).contains(&s.p50_us), "p50 {}", s.p50_us);
        assert!((94..=96).contains(&s.p95_us), "p95 {}", s.p95_us);
        assert!(s.p99_us >= 98);
        assert!(m.latency(1).is_none());
    }
}
