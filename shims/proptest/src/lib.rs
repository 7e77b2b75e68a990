//! Offline shim for the subset of `proptest` this workspace uses.
//!
//! The build environment has no crates.io access, so the real proptest is
//! replaced by this random-testing harness exposing the same surface the
//! workspace's property tests are written against: the `proptest!` macro
//! with `#![proptest_config(..)]`, `Strategy` with `prop_map` /
//! `prop_recursive` / `boxed`, `prop_oneof!` (weighted and unweighted),
//! `Just`, `any::<T>()`, `proptest::collection::vec`, and
//! `prop_assert!` / `prop_assert_eq!`.
//!
//! Differences from real proptest, deliberately accepted:
//! * **no shrinking** — a failing case reports the generated inputs via
//!   the panic message (every strategy value in this workspace is
//!   `Debug`-renderable through the test body's own assertions);
//! * **derived seeding** — each test derives its RNG seed from the test
//!   function's name, so runs are reproducible without a persistence
//!   file.

use rand::{Rng, RngCore, SeedableRng};
use std::ops::{Range, RangeInclusive};
use std::sync::Arc;

/// Run-time configuration accepted by `#![proptest_config(..)]`.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
    /// Accepted for compatibility; unused (this shim never shrinks).
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 256, max_shrink_iters: 0 }
    }
}

/// Failure raised by `prop_assert*` inside a `proptest!` body.
#[derive(Debug)]
pub struct TestCaseError {
    pub message: String,
}

impl TestCaseError {
    pub fn fail(message: impl Into<String>) -> TestCaseError {
        TestCaseError { message: message.into() }
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

/// The RNG driving value generation, deterministically seeded per test.
pub struct TestRng {
    inner: rand::StdRng,
}

impl TestRng {
    /// Seed from a test name (FNV-1a), so each test is reproducible and
    /// different tests explore different streams.
    pub fn deterministic(name: &str) -> TestRng {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        TestRng { inner: rand::StdRng::seed_from_u64(h) }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    fn below(&mut self, n: usize) -> usize {
        self.inner.gen_range(0..n.max(1))
    }
}

/// A generator of random values (no shrinking).
pub trait Strategy: Clone {
    type Value;

    /// Generate one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        F: Fn(Self::Value) -> O,
        Self: Sized,
    {
        Map { source: self, f: Arc::new(f) }
    }

    /// Keep only values satisfying `pred` (resamples, bounded tries).
    fn prop_filter<F>(self, whence: &'static str, pred: F) -> Filter<Self, F>
    where
        F: Fn(&Self::Value) -> bool,
        Self: Sized,
    {
        Filter { source: self, whence, pred: Arc::new(pred) }
    }

    /// Recursive structures: `f` receives a strategy for the inner
    /// recursion and returns the composite level. `depth` bounds the
    /// recursion; the remaining two parameters (desired size, expected
    /// branch size) are accepted for API compatibility and unused.
    fn prop_recursive<S2, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        f: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        S2: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> S2,
    {
        let leaf = self.boxed();
        let mut level = leaf.clone();
        for _ in 0..depth {
            let composite = f(level).boxed();
            // Mix leaves back in at every level so generated trees vary
            // in depth instead of always bottoming out at `depth`.
            level = Union {
                arms: Arc::new(vec![(1, leaf.clone()), (2, composite)]),
            }
            .boxed();
        }
        level
    }

    /// Type-erase the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
    {
        BoxedStrategy {
            sample: Arc::new(move |rng| self.sample(rng)),
        }
    }
}

/// A type-erased strategy.
pub struct BoxedStrategy<T> {
    sample: Arc<dyn Fn(&mut TestRng) -> T>,
}

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> BoxedStrategy<T> {
        BoxedStrategy { sample: self.sample.clone() }
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        (self.sample)(rng)
    }
}

/// `prop_map` adapter.
pub struct Map<S, F> {
    source: S,
    f: Arc<F>,
}

impl<S: Clone, F> Clone for Map<S, F> {
    fn clone(&self) -> Map<S, F> {
        Map { source: self.source.clone(), f: self.f.clone() }
    }
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.source.sample(rng))
    }
}

/// `prop_filter` adapter.
pub struct Filter<S, F> {
    source: S,
    whence: &'static str,
    pred: Arc<F>,
}

impl<S: Clone, F> Clone for Filter<S, F> {
    fn clone(&self) -> Filter<S, F> {
        Filter { source: self.source.clone(), whence: self.whence, pred: self.pred.clone() }
    }
}

impl<S, F> Strategy for Filter<S, F>
where
    S: Strategy,
    F: Fn(&S::Value) -> bool,
{
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.source.sample(rng);
            if (self.pred)(&v) {
                return v;
            }
        }
        panic!("prop_filter gave up after 1000 rejections: {}", self.whence);
    }
}

/// Always produces a clone of one value.
#[derive(Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Weighted choice among boxed strategies; backs `prop_oneof!`.
pub struct Union<T> {
    arms: Arc<Vec<(u32, BoxedStrategy<T>)>>,
}

impl<T> Clone for Union<T> {
    fn clone(&self) -> Union<T> {
        Union { arms: self.arms.clone() }
    }
}

impl<T> Union<T> {
    pub fn new_weighted(arms: Vec<(u32, BoxedStrategy<T>)>) -> Union<T> {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms: Arc::new(arms) }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        let total: u64 = self.arms.iter().map(|(w, _)| *w as u64).sum();
        let mut pick = (rng.next_u64() % total.max(1)) as i64;
        for (w, s) in self.arms.iter() {
            pick -= *w as i64;
            if pick < 0 {
                return s.sample(rng);
            }
        }
        self.arms.last().expect("nonempty").1.sample(rng)
    }
}

/// Types with a canonical `any::<T>()` strategy.
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
arbitrary_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Strategy for `any::<T>()`.
pub struct ArbitraryStrategy<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T> Clone for ArbitraryStrategy<T> {
    fn clone(&self) -> Self {
        ArbitraryStrategy { _marker: std::marker::PhantomData }
    }
}

impl<T: Arbitrary> Strategy for ArbitraryStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for a type.
pub fn any<T: Arbitrary>() -> ArbitraryStrategy<T> {
    ArbitraryStrategy { _marker: std::marker::PhantomData }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.inner.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.inner.gen_range(self.clone())
            }
        }
    )*};
}
int_range_strategy!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        rng.inner.gen_range(self.clone())
    }
}

macro_rules! tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};

    /// Accepted size specifications for [`vec()`].
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        lo: usize,
        /// inclusive
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "vec size range is empty");
            SizeRange { lo: r.start, hi: r.end - 1 }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> SizeRange {
            SizeRange { lo: *r.start(), hi: *r.end() }
        }
    }

    /// Strategy for vectors of `element` with length in `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Clone> Clone for VecStrategy<S> {
        fn clone(&self) -> VecStrategy<S> {
            VecStrategy { element: self.element.clone(), size: self.size.clone() }
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = self.size.hi - self.size.lo + 1;
            let len = self.size.lo + rng.below(span);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }
}

/// Everything the workspace's tests import.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Arbitrary,
        BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError,
    };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $strat:expr),+ $(,)?) => {
        $crate::Union::new_weighted(vec![
            $(($weight as u32, $crate::Strategy::boxed($strat)),)+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new_weighted(vec![
            $((1u32, $crate::Strategy::boxed($strat)),)+
        ])
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(
                format!("assertion failed: {}: {}", stringify!($cond), format!($($fmt)*)),
            ));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (l, r) = (&$lhs, &$rhs);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(
                format!("assertion failed: `{:?}` == `{:?}`", l, r),
            ));
        }
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$lhs, &$rhs);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(
                format!("assertion failed: `{:?}` == `{:?}`: {}", l, r, format!($($fmt)*)),
            ));
        }
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (l, r) = (&$lhs, &$rhs);
        if *l == *r {
            return ::std::result::Result::Err($crate::TestCaseError::fail(
                format!("assertion failed: `{:?}` != `{:?}`", l, r),
            ));
        }
    }};
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    ( ($cfg:expr)
      $(
          #[test]
          fn $name:ident ( $( $arg:ident in $strat:expr ),* $(,)? ) $body:block
      )*
    ) => {
        $(
            #[test]
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::TestRng::deterministic(concat!(
                    module_path!(), "::", stringify!($name)
                ));
                for case in 0..config.cases {
                    $( let $arg = $crate::Strategy::sample(&($strat), &mut rng); )*
                    let outcome = (|| -> ::std::result::Result<(), $crate::TestCaseError> {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                    if let ::std::result::Result::Err(e) = outcome {
                        panic!(
                            "proptest {} failed at case {}/{}: {}",
                            stringify!($name), case + 1, config.cases, e
                        );
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_vec_sample_in_bounds() {
        let mut rng = crate::TestRng::deterministic("shim-self-test");
        for _ in 0..200 {
            let v = crate::Strategy::sample(&(3i64..9), &mut rng);
            assert!((3..9).contains(&v));
            let xs =
                crate::Strategy::sample(&crate::collection::vec(0u8..4, 1..5), &mut rng);
            assert!((1..5).contains(&xs.len()));
            assert!(xs.iter().all(|x| *x < 4));
        }
    }

    #[test]
    fn oneof_respects_weights_loosely() {
        let mut rng = crate::TestRng::deterministic("weights");
        let s = prop_oneof![9 => Just(1u32), 1 => Just(2u32)];
        let ones = (0..1000)
            .filter(|_| crate::Strategy::sample(&s, &mut rng) == 1)
            .count();
        assert!(ones > 700, "{ones}");
    }

    #[test]
    fn recursive_strategies_terminate_and_vary() {
        #[derive(Debug, Clone, PartialEq)]
        enum Tree {
            Leaf(bool),
            Node(Vec<Tree>),
        }
        fn depth(t: &Tree) -> usize {
            match t {
                Tree::Leaf(_) => 1,
                Tree::Node(c) => 1 + c.iter().map(depth).max().unwrap_or(0),
            }
        }
        let strat = any::<bool>().prop_map(Tree::Leaf).prop_recursive(3, 24, 4, |inner| {
            crate::collection::vec(inner, 2..4).prop_map(Tree::Node)
        });
        let mut rng = crate::TestRng::deterministic("trees");
        let depths: std::collections::BTreeSet<usize> =
            (0..200).map(|_| depth(&crate::Strategy::sample(&strat, &mut rng))).collect();
        assert!(depths.len() > 1, "degenerate recursion: {depths:?}");
        assert!(depths.iter().all(|d| *d <= 4));
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        #[test]
        fn macro_binds_arguments(x in 0i64..10, flips in crate::collection::vec(any::<bool>(), 0..4)) {
            prop_assert!(x >= 0);
            prop_assert!(x < 10, "x was {}", x);
            prop_assert_eq!(flips.len(), flips.len());
        }
    }
}
