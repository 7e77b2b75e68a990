//! Shared by the integration tests: size-scaled programs for the
//! process-model tests (a corpus program grown by appending seeded
//! loop-nest functions, the shape of source a never-seen serve request
//! carries), the golden-file comparison, and the counting allocator.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting what passes through it. A test that
/// installs it as `#[global_allocator]` holds exactly one `#[test]`: its
/// own binary, no sibling test threads allocating alongside.
pub struct Counting;

pub static ALLOCATED_BYTES: AtomicUsize = AtomicUsize::new(0);
pub static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are bookkeeping only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Pass if `actual` is `golden` (the bytes of `tests/golden/<name>.txt`);
/// otherwise write `actual` next to the test binaries and panic on the
/// first line that differs.
pub fn assert_matches_golden(name: &str, actual: &str, golden: &str) {
    if actual == golden {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.actual.txt"));
    std::fs::write(&path, actual).expect("write actual output");
    let line = actual
        .lines()
        .zip(golden.lines())
        .position(|(a, g)| a != g)
        .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
    panic!(
        "output diverged from tests/golden/{name}.txt at line {}:\n  golden: {}\n  actual: {}\n(full actual output: {})",
        line + 1,
        golden.lines().nth(line).unwrap_or("<end of file>"),
        actual.lines().nth(line).unwrap_or("<end of file>"),
        path.display()
    );
}

/// SplitMix64: the seed picks the fillers' constants, never their length.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn constant(&mut self) -> u64 {
        100 + self.next() % 900
    }
}

/// The loop nest every filler carries, at `pad` spaces of indentation.
fn loop_nest(pad: &str, rng: &mut Rng) -> String {
    let (c0, c2, c3, c4, c5) =
        (rng.constant(), rng.constant(), rng.constant(), rng.constant(), rng.constant());
    format!(
        "{pad}var acc = {c0};\n\
         {pad}for (var i = 0; i < n; i = i + 1) {{\n\
         {pad}    for (var j = 0; j < 5; j = j + 1) {{\n\
         {pad}        acc += (i * {c2} + j) % {c3};\n\
         {pad}    }}\n\
         {pad}    if (acc > {c4}) {{ acc = acc - {c5}; }}\n\
         {pad}}}\n\
         {pad}return acc;\n"
    )
}

/// One free function `fill_k(n)` with a loop nest.
fn filler(id: usize, rng: &mut Rng) -> String {
    format!("fn fill_{id:03}(n) {{\n{}}}\n", loop_nest("    ", rng))
}

/// `base` grown to at least `scale` times its size by appended fillers.
pub fn scaled_source(base: &str, scale: usize, seed: u64) -> String {
    let mut rng = Rng(seed);
    let mut source = base.to_string();
    let mut id = 0;
    while source.len() < base.len() * scale {
        source.push_str(&filler(id, &mut rng));
        id += 1;
    }
    source
}

/// `scaled_source` plus a class whose method carries the same loop nest:
/// the annotated loop then sits in a class, which prints before every
/// free function although it was written last.
pub fn scaled_source_with_method(base: &str, scale: usize, seed: u64) -> String {
    let mut source = scaled_source(base, scale, seed);
    let mut rng = Rng(seed ^ 0xC1A55);
    source.push_str(&format!(
        "class Filler {{\n    var bias = 3;\n    fn fill(n) {{\n{}    }}\n}}\n",
        loop_nest("        ", &mut rng)
    ));
    source
}
