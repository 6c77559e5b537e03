//! Offline stand-in for the `proptest` crate.
//!
//! The build container cannot reach a crates registry, so this crate
//! reimplements the subset of proptest the workspace uses: the [`Strategy`]
//! trait with `prop_map`/`prop_flat_map`, range/tuple/`any`/`collection::vec`
//! strategies, and the `proptest!` / `prop_assert*` / `prop_assume!` macros.
//!
//! Differences from the real crate, deliberately accepted:
//!
//! - **No shrinking.** On failure the panic message reports the case number
//!   and the generated inputs; cases are deterministic per test name, so a
//!   failure always reproduces.
//! - **Deterministic seeding.** Case `k` of test `t` derives its RNG from
//!   FNV-1a over `t` mixed with `k` — no environment-dependent entropy, which
//!   makes CI and the parallel sweep driver reproducible by construction.
//! - **Rejection handling.** `prop_assume!` rejects a case without counting
//!   it; a test aborts if fewer than the configured cases are accepted after
//!   20× that many attempts (matching proptest's spirit, not its letter).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use core::ops::{Range, RangeInclusive};

/// Deterministic SplitMix64 generator used to drive all strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// RNG for case number `case` of the test named `name`.
    #[must_use]
    pub fn for_case(name: &str, case: u32) -> Self {
        // FNV-1a over the fully qualified test name, mixed with the case
        // index, so each (test, case) pair gets an independent stream.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng {
            state: h ^ (u64::from(case)).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        }
    }

    /// Next 64 random bits (SplitMix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from `[0, bound)`. Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty sampling bound");
        self.next_u64() % bound
    }
}

/// Runner configuration; only `cases` is honoured.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of accepted cases each property must pass.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per property.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Why a single case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// The property was violated; carries the assertion message.
    Fail(String),
    /// The inputs were rejected by `prop_assume!`; the case is retried.
    Reject(String),
}

impl TestCaseError {
    /// A failure with the given message.
    #[must_use]
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    /// A rejection with the given reason.
    #[must_use]
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

/// Result of one property-test case.
pub type TestCaseResult = Result<(), TestCaseError>;

/// A recipe for generating values of `Self::Value`.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draw one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Generate a value, then generate from the strategy `f` builds from it.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }
}

/// References to strategies are strategies (lets helpers borrow).
impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (**self).sample(rng)
    }
}

/// Strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, O> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// Strategy returned by [`Strategy::prop_flat_map`].
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, F, T> Strategy for FlatMap<S, F>
where
    S: Strategy,
    T: Strategy,
    F: Fn(S::Value) -> T,
{
    type Value = T::Value;
    fn sample(&self, rng: &mut TestRng) -> T::Value {
        (self.f)(self.inner.sample(rng)).sample(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let off = u128::from(rng.next_u64()) % span;
                (self.start as i128 + off as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let off = u128::from(rng.next_u64()) % span;
                (lo as i128 + off as i128) as $t
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+ );)*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy! {
    (A.0);
    (A.0, B.1);
    (A.0, B.1, C.2);
    (A.0, B.1, C.2, D.3);
    (A.0, B.1, C.2, D.3, E.4);
    (A.0, B.1, C.2, D.3, E.4, F.5);
}

/// A value with a canonical "any" strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    /// Draw one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Strategy over the full domain of `T` (see [`any`]).
#[derive(Debug, Clone, Copy)]
pub struct Any<T> {
    _marker: core::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The strategy of all values of `T`.
#[must_use]
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: core::marker::PhantomData,
    }
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use core::ops::{Range, RangeInclusive};

    /// Acceptable length specifications for [`vec`](fn@vec).
    pub trait SizeRange {
        /// Draw a concrete length.
        fn sample_len(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn sample_len(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for Range<usize> {
        fn sample_len(&self, rng: &mut TestRng) -> usize {
            assert!(self.start < self.end, "empty size range");
            self.start + rng.below((self.end - self.start) as u64) as usize
        }
    }

    impl SizeRange for RangeInclusive<usize> {
        fn sample_len(&self, rng: &mut TestRng) -> usize {
            let (lo, hi) = (*self.start(), *self.end());
            assert!(lo <= hi, "empty size range");
            lo + rng.below((hi - lo + 1) as u64) as usize
        }
    }

    /// Strategy producing `Vec`s whose elements come from `element`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    impl<S: Strategy, L: SizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.len.sample_len(rng);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// `vec(element, len)` — a vector of `len` (a `usize` or a range of
    /// `usize`) elements drawn from `element`.
    pub fn vec<S: Strategy, L: SizeRange>(element: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { element, len }
    }
}

/// The usual glob import: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Arbitrary,
        ProptestConfig, Strategy, TestCaseError, TestCaseResult,
    };
}

/// Assert a boolean condition inside a `proptest!` body.
///
/// On failure the current case returns an error (no panic mid-case), and the
/// runner panics with the case's inputs.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Assert two expressions are equal inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `left == right`\n  left: `{:?}`\n right: `{:?}`",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "{}\n  left: `{:?}`\n right: `{:?}`",
            format!($($fmt)*),
            left,
            right
        );
    }};
}

/// Assert two expressions are unequal inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: `left != right`\n  both: `{:?}`",
            left
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "{}\n  both: `{:?}`",
            format!($($fmt)*),
            left
        );
    }};
}

/// Reject the current case (retried with fresh inputs, not counted).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::reject(stringify!($cond)));
        }
    };
}

/// Define property tests. Mirrors the real macro's grammar for the subset
/// used in this workspace:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///
///     /// Doc comment.
///     #[test]
///     fn my_property(x in 0u64..100, v in proptest::collection::vec(0u8..=1, 3)) {
///         prop_assert!(x < 100);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`]; not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr)
      $(
        $(#[$meta:meta])*
        fn $name:ident ( $($arg:ident in $strategy:expr),* $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let test_name = concat!(module_path!(), "::", stringify!($name));
                let mut accepted: u32 = 0;
                let mut attempt: u32 = 0;
                let max_attempts = config.cases.saturating_mul(20).max(1000);
                while accepted < config.cases {
                    assert!(
                        attempt < max_attempts,
                        "proptest {}: too many rejected cases ({} accepted of {} wanted \
                         after {} attempts)",
                        test_name, accepted, config.cases, attempt
                    );
                    let mut rng = $crate::TestRng::for_case(test_name, attempt);
                    attempt += 1;
                    $(let $arg = $crate::Strategy::sample(&($strategy), &mut rng);)*
                    let inputs = [
                        $(format!(concat!(stringify!($arg), " = {:?}"), &$arg)),*
                    ].join(", ");
                    let outcome: $crate::TestCaseResult = (move || {
                        $body
                        ::core::result::Result::Ok(())
                    })();
                    match outcome {
                        ::core::result::Result::Ok(()) => accepted += 1,
                        ::core::result::Result::Err($crate::TestCaseError::Reject(_)) => {}
                        ::core::result::Result::Err($crate::TestCaseError::Fail(msg)) => {
                            panic!(
                                "proptest {} failed at case {} (deterministic; re-run \
                                 reproduces): {}\n  inputs: {}",
                                test_name, attempt - 1, msg, inputs
                            );
                        }
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::Strategy;

    #[test]
    fn strategies_are_deterministic_per_case() {
        let s = (2usize..=10).prop_flat_map(|n| crate::collection::vec(0u8..=1, n));
        let mut a = crate::TestRng::for_case("t", 5);
        let mut b = crate::TestRng::for_case("t", 5);
        assert_eq!(s.sample(&mut a), s.sample(&mut b));
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::TestRng::for_case("bounds", 0);
        for _ in 0..500 {
            let x = (3u64..17).sample(&mut rng);
            assert!((3..17).contains(&x));
            let y = (0u8..=1).sample(&mut rng);
            assert!(y <= 1);
            let z = (1i64..500).sample(&mut rng);
            assert!((1..500).contains(&z));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro itself: args bind, asserts pass, assume rejects odd.
        #[test]
        fn macro_roundtrip(x in 0u64..1000, v in crate::collection::vec(0u8..=1, 2..6)) {
            prop_assume!(x % 2 == 0);
            prop_assert!(x < 1000);
            prop_assert_eq!(v.len(), v.len());
            prop_assert_ne!(v.len() + 1, v.len(), "lengths differ by one: {}", v.len());
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failures_panic_with_inputs() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]
            #[allow(unused)]
            fn always_fails(x in 0u64..10) {
                prop_assert!(x > 100, "x was {}", x);
            }
        }
        always_fails();
    }
}
