//! patty-serve — the long-running job service behind `patty serve`.
//!
//! The one-shot CLI re-analyzes, re-tunes and re-traces a program on
//! every invocation. This crate turns that work into a resident
//! service: every artifact (detection result, tuned config, fault
//! report, trace report) is content-addressed by a stable FNV-1a hash
//! of `(job kind, program source)` into a sharded in-memory cache with
//! an on-disk patty-json spill and an LRU bound, so a repeat job is a
//! sub-millisecond hit instead of a recompute.
//!
//! The crate is deliberately generic over *what* a job computes: the
//! [`JobRunner`] trait is implemented by `patty-tool` (which owns the
//! language pipeline), while this crate owns everything a service
//! needs around it —
//!
//! - [`ShardedCache`]: N shard locks, LRU per shard, write-through
//!   spill to `<dir>/<kind>-<hash>.json`, per-kind hit/miss counters;
//! - [`Admission`]: bounded concurrency + bounded queue with a
//!   structured `retry_after` load-shed reject;
//! - single-flight dedup: identical in-flight jobs coalesce onto one
//!   computation, waiters share the leader's result;
//! - per-job deadlines enforced by a watchdog thread through the
//!   runtime's `CancelToken` machinery;
//! - a patty-json line protocol (one request object per line, one
//!   response object per line) served over TCP or any `BufRead`
//!   loopback by one loop: request lines read as bytes and capped at
//!   [`MAX_LINE_BYTES`], each response framed with its newline into a
//!   single write, a hit spliced from the entry's pre-rendered bytes;
//!   each connection is a resident task on the shared
//!   `patty_runtime::executor` pool and runs its jobs on its own lane;
//! - a live `patty_serve_*` scrape of the whole plane through
//!   `patty_obs::MetricsRegistry`.

mod admission;
mod cache;
mod metrics;
mod protocol;
mod service;
mod wire;

pub use admission::{Admission, AdmissionConfig, Permit, Shed};
pub use cache::{Artifact, CacheConfig, CacheSource, CacheStats, ShardedCache};
pub use metrics::ServeMetrics;
pub use protocol::{ok_response, parse_request, Request};
pub use service::{JobCtl, JobRunner, ServeConfig, Served, Service};
pub use wire::MAX_LINE_BYTES;

/// The cacheable job kinds a service accepts. `stats` and `shutdown`
/// are protocol ops handled by the service itself, not job kinds —
/// they never touch the artifact cache.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum JobKind {
    Analyze,
    Tune,
    Faultcheck,
    Trace,
}

impl JobKind {
    pub const ALL: [JobKind; 4] = [
        JobKind::Analyze,
        JobKind::Tune,
        JobKind::Faultcheck,
        JobKind::Trace,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            JobKind::Analyze => "analyze",
            JobKind::Tune => "tune",
            JobKind::Faultcheck => "faultcheck",
            JobKind::Trace => "trace",
        }
    }

    pub fn parse(op: &str) -> Option<JobKind> {
        match op {
            "analyze" => Some(JobKind::Analyze),
            "tune" => Some(JobKind::Tune),
            "faultcheck" => Some(JobKind::Faultcheck),
            "trace" => Some(JobKind::Trace),
            _ => None,
        }
    }

    /// Dense index for per-kind counter arrays.
    pub fn index(self) -> usize {
        match self {
            JobKind::Analyze => 0,
            JobKind::Tune => 1,
            JobKind::Faultcheck => 2,
            JobKind::Trace => 3,
        }
    }
}

/// Incremental 64-bit FNV-1a. The artifact cache keys on this hash, so
/// it must stay byte-stable across releases: on-disk spill files are
/// named after it and survive process restarts.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(FNV_OFFSET)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv::new()
    }
}

/// One-shot FNV-1a over a byte slice.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.update(bytes);
    h.finish()
}

/// The content address of a job: kind tag, NUL separator, then the
/// program source, so the same source analyzed and tuned lands on two
/// distinct artifacts.
pub fn job_hash(kind: JobKind, source: &str) -> u64 {
    let mut h = Fnv::new();
    h.update(kind.as_str().as_bytes());
    h.update(&[0]);
    h.update(source.as_bytes());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn job_hash_separates_kinds_and_sources() {
        let h = job_hash(JobKind::Analyze, "x = 1");
        assert_ne!(h, job_hash(JobKind::Tune, "x = 1"));
        assert_ne!(h, job_hash(JobKind::Analyze, "x = 2"));
        assert_eq!(h, job_hash(JobKind::Analyze, "x = 1"));
    }
}
