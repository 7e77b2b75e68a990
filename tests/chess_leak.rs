//! An explored schedule must not outlive its run.
//!
//! Task bodies capture channel and cell handles, every handle holds the
//! scheduler, and the scheduler owns the task bodies: a reference cycle
//! unless the scheduler tears its tasks down when a run ends. The check
//! counts live heap bytes with a counting global allocator — not RSS,
//! not time — so this file holds exactly one `#[test]` (its own binary,
//! no sibling test threads allocating alongside).

use patty_workspace::chess::corpus::{corpus, scenarios_for};
use patty_workspace::chess::{explore_joint, ChessOptions};
use patty_workspace::corpus::avistream_program;
use patty_workspace::patty::Patty;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

struct Counting;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is bookkeeping only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Live bytes after one warm-up call, one further call, and twenty more.
fn live_after_1_and_20(mut call: impl FnMut()) -> (isize, isize) {
    call();
    call();
    let after_1 = LIVE_BYTES.load(Ordering::Relaxed);
    for _ in 0..20 {
        call();
    }
    (after_1, LIVE_BYTES.load(Ordering::Relaxed))
}

#[test]
fn explored_schedules_leave_no_live_bytes_behind() {
    // Pipeline-shaped: the stage tasks capture the channels between them.
    let patty = Patty::new();
    let run = patty.run_automatic(avistream_program().source).expect("avistream runs");
    let (after_1, after_20) = live_after_1_and_20(|| {
        let reports = patty.validate_correctness(&run);
        assert!(reports.iter().any(|(_, r)| r.complete && r.schedules > 1), "the search ran");
    });
    assert_eq!(after_1, after_20, "validate_correctness on avistream keeps bytes per call");

    let entry = corpus().into_iter().find(|e| e.name == "clean_pipeline").expect("in the corpus");
    // Every fault kind at both stages: runs that end in a caught panic, a
    // deadlock with tasks still parked, or a sleep, as well as clean ones.
    let scenarios = scenarios_for(&entry);
    let options = ChessOptions { max_schedules: 100, ..ChessOptions::default() };
    let (after_1, after_20) = live_after_1_and_20(|| {
        let joint = explore_joint(entry.test, &scenarios, &options);
        assert!(joint.combos > 1_000, "many schedules under every scenario");
    });
    assert_eq!(after_1, after_20, "explore_joint on clean_pipeline keeps bytes per call");
}
