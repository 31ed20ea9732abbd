//! Minimal vendored stand-in for the `proptest` crate.
//!
//! The build environment has no network access to a cargo registry, so the
//! workspace vendors the subset of proptest's API its property tests use:
//! the [`proptest!`] macro, [`strategy::Strategy`] with `prop_map`,
//! integer-range and tuple strategies, [`strategy::Just`], `any::<T>()`,
//! `prop::collection::vec`, [`prop_oneof!`], and
//! [`test_runner::ProptestConfig`].
//!
//! Differences from upstream: generated cases are driven by a deterministic
//! per-test RNG (seeded from the test's module path and name) rather than an
//! entropy source, and there is **no shrinking** — a failing case panics with
//! the assertion message directly. Regression-file persistence is likewise
//! unimplemented. For this repo that trade is fine: the simulator's own
//! chaos harness (`pmnet-chaos`) provides seed-replayable minimization where
//! it matters.

/// Deterministic test RNG.
pub mod test_runner {
    /// An xorshift-style deterministic RNG (splitmix64 core).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds from raw state.
        pub fn from_seed(seed: u64) -> TestRng {
            TestRng {
                state: seed ^ 0x9E37_79B9_7F4A_7C15,
            }
        }

        /// Seeds deterministically from a test's fully qualified name.
        pub fn for_test(name: &str) -> TestRng {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            TestRng::from_seed(h)
        }

        /// Next raw 64-bit draw (splitmix64).
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, n)`; `n` must be nonzero.
        pub fn below(&mut self, n: u64) -> u64 {
            debug_assert!(n > 0);
            // Lemire-style widening multiply avoids modulo bias well enough
            // for test generation.
            let x = self.next_u64();
            ((x as u128 * n as u128) >> 64) as u64
        }
    }

    /// Controls how many cases each property runs.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            ProptestConfig { cases: 256 }
        }
    }
}

/// Value-generation strategies.
pub mod strategy {
    use super::test_runner::TestRng;
    use std::ops::Range;
    use std::sync::Arc;

    /// Generates values of an associated type from a deterministic RNG.
    ///
    /// Unlike upstream proptest there is no value tree: a strategy yields
    /// plain values and failing cases are not shrunk.
    pub trait Strategy: Clone {
        /// The type of generated values.
        type Value;

        /// Draws one value.
        fn new_value(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<T, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> T + Clone,
        {
            Map { inner: self, f }
        }

        /// Type-erases the strategy for heterogeneous composition
        /// (e.g. [`crate::prop_oneof!`]).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
        {
            let s = self;
            BoxedStrategy {
                gen: Arc::new(move |rng| s.new_value(rng)),
            }
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn new_value(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, F, T> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> T + Clone,
    {
        type Value = T;

        fn new_value(&self, rng: &mut TestRng) -> T {
            (self.f)(self.inner.new_value(rng))
        }
    }

    /// A type-erased strategy.
    pub struct BoxedStrategy<T> {
        gen: Arc<dyn Fn(&mut TestRng) -> T>,
    }

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> BoxedStrategy<T> {
            BoxedStrategy {
                gen: Arc::clone(&self.gen),
            }
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;

        fn new_value(&self, rng: &mut TestRng) -> T {
            (self.gen)(rng)
        }
    }

    /// Uniform choice among boxed alternatives; backs [`crate::prop_oneof!`].
    pub struct OneOf<T> {
        choices: Vec<BoxedStrategy<T>>,
    }

    impl<T> Clone for OneOf<T> {
        fn clone(&self) -> OneOf<T> {
            OneOf {
                choices: self.choices.clone(),
            }
        }
    }

    /// Builds a [`OneOf`] from boxed alternatives.
    ///
    /// # Panics
    ///
    /// Panics if `choices` is empty.
    pub fn one_of<T>(choices: Vec<BoxedStrategy<T>>) -> OneOf<T> {
        assert!(!choices.is_empty(), "prop_oneof! needs at least one choice");
        OneOf { choices }
    }

    impl<T> Strategy for OneOf<T> {
        type Value = T;

        fn new_value(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.choices.len() as u64) as usize;
            self.choices[i].new_value(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($ty:ty),*) => {$(
            impl Strategy for Range<$ty> {
                type Value = $ty;

                fn new_value(&self, rng: &mut TestRng) -> $ty {
                    assert!(self.start < self.end, "empty strategy range");
                    let span = (self.end as u64).wrapping_sub(self.start as u64);
                    self.start + rng.below(span) as $ty
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize);

    macro_rules! tuple_strategy {
        ($(($($s:ident . $idx:tt),+)),+ $(,)?) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);

                fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.new_value(rng),)+)
                }
            }
        )+};
    }

    tuple_strategy!((A.0), (A.0, B.1), (A.0, B.1, C.2), (A.0, B.1, C.2, D.3),);
}

/// `any::<T>()` support.
pub mod arbitrary {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical full-range strategy.
    pub trait Arbitrary: Sized {
        /// Draws an unconstrained value.
        fn arbitrary_value(rng: &mut TestRng) -> Self;
    }

    macro_rules! arb_int {
        ($($ty:ty),*) => {$(
            impl Arbitrary for $ty {
                fn arbitrary_value(rng: &mut TestRng) -> $ty {
                    rng.next_u64() as $ty
                }
            }
        )*};
    }

    arb_int!(u8, u16, u32, u64, usize);

    impl Arbitrary for bool {
        fn arbitrary_value(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// The strategy returned by [`any`].
    pub struct Any<T>(PhantomData<T>);

    impl<T> Clone for Any<T> {
        fn clone(&self) -> Any<T> {
            Any(PhantomData)
        }
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn new_value(&self, rng: &mut TestRng) -> T {
            T::arbitrary_value(rng)
        }
    }

    /// A strategy over `T`'s full value range.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::ops::Range;

    /// The strategy returned by [`vec()`].
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start).max(1) as u64;
            let n = self.size.start + rng.below(span) as usize;
            (0..n).map(|_| self.element.new_value(rng)).collect()
        }
    }

    /// A strategy for vectors whose length is drawn from `size` (half-open)
    /// and whose elements are drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }
}

/// Option strategies (`prop::option::of`).
pub mod option {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    /// The strategy returned by [`of`].
    #[derive(Clone)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn new_value(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.next_u64() & 1 == 1 {
                Some(self.inner.new_value(rng))
            } else {
                None
            }
        }
    }

    /// `Some` with probability one half, drawn from `inner`; otherwise `None`.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }
}

/// The glob-import surface: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};

    /// Namespace alias mirroring upstream's `prelude::prop` module.
    pub mod prop {
        pub use crate::collection;
        pub use crate::option;
    }
}

/// Defines deterministic property tests.
///
/// Supports the upstream form used in this repo: an optional
/// `#![proptest_config(..)]` inner attribute followed by one or more
/// `#[test] fn name(arg in strategy, ...) { .. }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            config = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = $cfg:expr;
     $($(#[$meta:meta])*
       fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __pt_config = $cfg;
                let mut __pt_rng = $crate::test_runner::TestRng::for_test(
                    concat!(module_path!(), "::", stringify!($name)),
                );
                for __pt_case in 0..__pt_config.cases {
                    let _ = __pt_case;
                    $(
                        let $arg = $crate::strategy::Strategy::new_value(
                            &($strat),
                            &mut __pt_rng,
                        );
                    )+
                    $body
                }
            }
        )*
    };
}

/// Asserts a condition inside a property (no shrinking: plain `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property (no shrinking: plain `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Uniform choice among strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::one_of(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = crate::test_runner::TestRng::for_test("bounds");
        for _ in 0..1000 {
            let v = (3u8..7).new_value(&mut rng);
            assert!((3..7).contains(&v));
            let u = (10usize..11).new_value(&mut rng);
            assert_eq!(u, 10);
        }
    }

    #[test]
    fn oneof_hits_every_branch() {
        let s = prop_oneof![Just(0u8), 1u8..2, (2u8..3).prop_map(|x| x)];
        let mut rng = crate::test_runner::TestRng::for_test("oneof");
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[s.new_value(&mut rng) as usize] = true;
        }
        assert_eq!(seen, [true; 3]);
    }

    #[test]
    fn same_test_name_same_stream() {
        let mut a = crate::test_runner::TestRng::for_test("x");
        let mut b = crate::test_runner::TestRng::for_test("x");
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro itself: args bind, vec sizes respect bounds.
        #[test]
        fn macro_generates_cases(
            xs in prop::collection::vec(0u32..100, 1..5),
            flag in any::<bool>(),
        ) {
            prop_assert!(!xs.is_empty() && xs.len() < 5);
            prop_assert!(xs.iter().all(|&x| x < 100));
            let _ = flag;
        }
    }
}
