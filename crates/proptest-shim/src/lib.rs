//! Offline stand-in for [proptest](https://crates.io/crates/proptest).
//!
//! The build environment has no registry access, so this in-tree shim
//! implements the subset of the proptest API the workspace's property tests
//! use: the [`proptest!`] macro, range / tuple / `any` / collection
//! strategies, `prop_map`, and the `prop_assert*` / `prop_assume!` macros.
//!
//! Documented deviations from real proptest:
//!
//! * **No shrinking.** A failing case reports the generated inputs via the
//!   assertion message but is not minimised.
//! * **Deterministic.** Each test derives its RNG seed from the test name,
//!   so runs are reproducible; set `PROPTEST_SHIM_SEED` to explore a
//!   different universe of cases.

/// Strategy trait and combinators.
pub mod strategy {
    use crate::test_runner::TestRng;

    /// A source of generated values (no shrinking in this shim).
    pub trait Strategy {
        /// The type of value this strategy generates.
        type Value;
        /// Generate one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Map generated values through a function.
        fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for ::std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    (self.start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
                }
            }
            impl Strategy for ::std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (start, end) = (*self.start(), *self.end());
                    assert!(start <= end, "empty range strategy");
                    let span = (end as i128 - start as i128) as u128 + 1;
                    (start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
                }
            }
        )*};
    }

    impl_int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_float_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for ::std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let unit = (rng.next_u64() >> 11) as $t / (1u64 << 53) as $t;
                    self.start + unit * (self.end - self.start)
                }
            }
            impl Strategy for ::std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (start, end) = (*self.start(), *self.end());
                    let unit = (rng.next_u64() >> 11) as $t / ((1u64 << 53) - 1) as $t;
                    start + unit * (end - start)
                }
            }
        )*};
    }

    impl_float_range_strategy!(f32, f64);

    macro_rules! impl_tuple_strategy {
        ($($name:ident),*) => {
            impl<$($name: Strategy),*> Strategy for ($($name,)*) {
                type Value = ($($name::Value,)*);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)*) = self;
                    ($($name.generate(rng),)*)
                }
            }
        };
    }

    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, F);
}

/// `any::<T>()` support for primitive types.
pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary: Sized {
        /// Sample one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    /// The strategy returned by [`any`].
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Any<T>(PhantomData<T>);

    /// Full-domain strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for f32 {
        fn arbitrary(rng: &mut TestRng) -> f32 {
            // Finite values across a wide dynamic range, sign included.
            let mantissa = (rng.next_u64() >> 40) as f32 / (1u64 << 24) as f32;
            let exp = (rng.next_u64() % 61) as i32 - 30;
            let sign = if rng.next_u64() & 1 == 0 { 1.0 } else { -1.0 };
            sign * mantissa * (exp as f32).exp2()
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            let mantissa = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            let exp = (rng.next_u64() % 121) as i32 - 60;
            let sign = if rng.next_u64() & 1 == 0 { 1.0 } else { -1.0 };
            sign * mantissa * (exp as f64).exp2()
        }
    }
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Length specification for [`fn@vec`]: an exact length or a range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        /// Minimum length (inclusive).
        pub min: usize,
        /// Maximum length (inclusive).
        pub max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    /// Strategy generating `Vec`s of a given element strategy and length.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `Vec` strategy: each element drawn from `element`, length drawn from
    /// `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max - self.size.min) as u64 + 1;
            let len = self.size.min + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Test-runner plumbing used by the [`proptest!`] macro expansion.
pub mod test_runner {
    /// Per-test configuration (`ProptestConfig` in the prelude).
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of successful cases required.
        pub cases: u32,
    }

    impl Config {
        /// Config with an explicit case count.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 64 }
        }
    }

    /// Why a test case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// `prop_assume!` failed — the case is skipped, not failed.
        Reject(String),
        /// `prop_assert*` failed — the test fails.
        Fail(String),
    }

    /// Deterministic generator driving all strategies (SplitMix64).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeded from the test name (plus `PROPTEST_SHIM_SEED` if set), so
        /// every test explores its own reproducible stream.
        pub fn for_test(test_name: &str) -> Self {
            let base: u64 = std::env::var("PROPTEST_SHIM_SEED")
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(0x5EED_CAFE_F00D_D00D);
            let mut state = base;
            for b in test_name.bytes() {
                state = state.wrapping_mul(0x100000001B3) ^ b as u64;
            }
            TestRng { state }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }
    }
}

/// Namespaced re-exports matching `proptest::prelude::prop::*` usage.
pub mod prop {
    pub use crate::collection;
    pub use crate::strategy;
}

/// The glob-importable prelude.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::prop;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Assert inside a `proptest!` body; failure fails the case with a message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Assert equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
}

/// Assert inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: {} != {} (both {:?})",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

/// Skip the current case unless a precondition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Reject(
                stringify!($cond).to_string(),
            ));
        }
    };
}

/// Define property tests. Each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `config.cases` generated cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ ($crate::test_runner::Config::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr); ) => {};
    (($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::Config = $cfg;
            let mut __rng = $crate::test_runner::TestRng::for_test(stringify!($name));
            let mut __passed: u32 = 0;
            let mut __rejected: u32 = 0;
            while __passed < __config.cases {
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)*
                let __outcome: ::core::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| { $body ::core::result::Result::Ok(()) })();
                match __outcome {
                    ::core::result::Result::Ok(()) => __passed += 1,
                    ::core::result::Result::Err($crate::test_runner::TestCaseError::Reject(__why)) => {
                        __rejected += 1;
                        assert!(
                            __rejected <= 16 * __config.cases + 1024,
                            "too many prop_assume! rejections ({__why})"
                        );
                    }
                    ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(__msg)) => {
                        panic!(
                            "property failed after {__passed} passing case(s): {__msg}\n\
                             (offline proptest shim: no input shrinking)"
                        );
                    }
                }
            }
        }
        $crate::__proptest_impl!{ ($cfg); $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respect_bounds(x in 3u8..17, y in -4i32..4, f in 0.5f32..2.0) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-4..4).contains(&y));
            prop_assert!((0.5..2.0).contains(&f));
        }

        #[test]
        fn tuples_and_vecs_generate(
            pair in (0u16..4, 0u16..4),
            v in prop::collection::vec(1.0f32..10.0, 1..20),
        ) {
            prop_assert!(pair.0 < 4 && pair.1 < 4);
            prop_assert!(!v.is_empty() && v.len() < 20);
            prop_assert!(v.iter().all(|&e| (1.0..10.0).contains(&e)));
        }

        #[test]
        fn assume_rejects_without_failing(n in 0u32..100) {
            prop_assume!(n % 2 == 0);
            prop_assert!(n % 2 == 0);
        }

        #[test]
        fn any_bool_and_map_work(b in any::<bool>(), doubled in (1u8..10).prop_map(|v| v * 2)) {
            prop_assert!(u8::from(b) <= 1);
            prop_assert!(doubled % 2 == 0);
            prop_assert!((2..20).contains(&doubled));
        }
    }

    #[test]
    #[should_panic(expected = "property failed")]
    fn failing_property_panics() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]
            #[allow(unused)]
            fn inner(x in 0u8..4) {
                prop_assert!(x > 100, "x was {x}");
            }
        }
        inner();
    }
}
