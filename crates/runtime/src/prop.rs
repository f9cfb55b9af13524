//! Seeded, shrink-free property testing.
//!
//! A small in-tree replacement for the `proptest` surface the workspace
//! used: the [`props!`](crate::props) macro declares properties over
//! generated inputs, [`Strategy`] implementations produce the inputs, and
//! failures report the case number, the derived seed and a `Debug` dump of
//! the inputs — enough to reproduce deterministically, with no shrinking.
//!
//! Case generation is fully deterministic: test `name`, case `i` draws
//! from `StdRng::seed_from_stream(fnv1a(name), i)`, so failures reproduce
//! across runs and machines without a persisted regressions file.
//!
//! ```
//! use ivn_runtime::prop::Strategy;
//! use ivn_runtime::{prop_assert, props};
//!
//! props! {
//!     cases = 32;
//!     fn addition_commutes(a in -1e6f64..1e6, b in -1e6f64..1e6) {
//!         prop_assert!((a + b - (b + a)).abs() < 1e-12);
//!     }
//! }
//! ```

use crate::rng::{Sample, SampleRange, StdRng};
use std::collections::BTreeSet;
use std::marker::PhantomData;

/// A generator of test-case values.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// A strategy applying `f` to every generated value.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// A strategy generating from the strategy `f` builds out of each of
    /// this strategy's values (dependent generation).
    fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S2: Strategy,
        F: Fn(Self::Value) -> S2,
    {
        FlatMap { inner: self, f }
    }

    /// Type-erases the strategy (for heterogeneous [`prop_oneof!`][crate::prop_oneof] lists).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub(crate) type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        (**self).generate(rng)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut StdRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn generate(&self, rng: &mut StdRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// Always generates a clone of the given value.
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

/// Uniform over the type's whole domain (`[0, 1)` for `f64`).
pub struct Any<T>(PhantomData<T>);

/// A strategy drawing any value of `T` uniformly.
pub fn any<T: Sample>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Sample> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        T::sample(rng)
    }
}

impl<T> Strategy for core::ops::Range<T>
where
    core::ops::Range<T>: SampleRange + Clone,
{
    type Value = <core::ops::Range<T> as SampleRange>::Output;
    fn generate(&self, rng: &mut StdRng) -> Self::Value {
        use crate::rng::Rng as _;
        rng.random_range(self.clone())
    }
}

impl<T> Strategy for core::ops::RangeInclusive<T>
where
    core::ops::RangeInclusive<T>: SampleRange + Clone,
{
    type Value = <core::ops::RangeInclusive<T> as SampleRange>::Output;
    fn generate(&self, rng: &mut StdRng) -> Self::Value {
        use crate::rng::Rng as _;
        rng.random_range(self.clone())
    }
}

/// A collection-size specification accepted by [`vec()`] and [`btree_set`]:
/// built from `lo..hi`, `lo..=hi` or an exact `usize`.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    hi_inclusive: usize,
}

impl SizeRange {
    fn draw(&self, rng: &mut StdRng) -> usize {
        use crate::rng::Rng as _;
        rng.random_range(self.lo..=self.hi_inclusive)
    }
}

impl From<core::ops::Range<usize>> for SizeRange {
    fn from(r: core::ops::Range<usize>) -> SizeRange {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            lo: r.start,
            hi_inclusive: r.end - 1,
        }
    }
}

impl From<core::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: core::ops::RangeInclusive<usize>) -> SizeRange {
        assert!(r.start() <= r.end(), "empty size range");
        SizeRange {
            lo: *r.start(),
            hi_inclusive: *r.end(),
        }
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> SizeRange {
        SizeRange {
            lo: n,
            hi_inclusive: n,
        }
    }
}

/// See [`vec()`].
pub struct VecStrategy<S> {
    elem: S,
    len: SizeRange,
}

/// A strategy for `Vec`s whose length is drawn from `len` and whose
/// elements come from `elem`.
pub fn vec<S: Strategy>(elem: S, len: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        elem,
        len: len.into(),
    }
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
        let n = self.len.draw(rng);
        (0..n).map(|_| self.elem.generate(rng)).collect()
    }
}

/// See [`btree_set`].
pub struct BTreeSetStrategy<S> {
    elem: S,
    len: SizeRange,
}

/// A strategy for ordered sets of distinct elements with a size drawn
/// from `len`. Duplicate draws are retried; if the element domain is too
/// small to reach the drawn size, the set is returned at the size reached.
pub fn btree_set<S>(elem: S, len: impl Into<SizeRange>) -> BTreeSetStrategy<S>
where
    S: Strategy,
    S::Value: Ord,
{
    BTreeSetStrategy {
        elem,
        len: len.into(),
    }
}

impl<S> Strategy for BTreeSetStrategy<S>
where
    S: Strategy,
    S::Value: Ord,
{
    type Value = BTreeSet<S::Value>;
    fn generate(&self, rng: &mut StdRng) -> BTreeSet<S::Value> {
        let target = self.len.draw(rng);
        let mut set = BTreeSet::new();
        let mut attempts = 0usize;
        while set.len() < target && attempts < 20 * target + 100 {
            set.insert(self.elem.generate(rng));
            attempts += 1;
        }
        set
    }
}

/// See [`prop_oneof!`][crate::prop_oneof].
pub struct OneOf<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T> OneOf<T> {
    /// A strategy choosing uniformly among `options` each case.
    ///
    /// # Panics
    /// Panics if `options` is empty.
    pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        OneOf { options }
    }
}

impl<T> Strategy for OneOf<T> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        use crate::rng::Rng as _;
        let idx = rng.random_range(0..self.options.len());
        self.options[idx].generate(rng)
    }
}

macro_rules! impl_strategy_for_tuples {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}
impl_strategy_for_tuples! {
    (S0.0)
    (S0.0, S1.1)
    (S0.0, S1.1, S2.2)
    (S0.0, S1.1, S2.2, S3.3)
    (S0.0, S1.1, S2.2, S3.3, S4.4)
    (S0.0, S1.1, S2.2, S3.3, S4.4, S5.5)
}

/// The deterministic RNG for case `case` of property `name`.
pub fn case_rng(name: &str, case: u64) -> StdRng {
    // FNV-1a over the test name picks the per-property base seed.
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in name.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01B3);
    }
    StdRng::seed_from_stream(h, case)
}

/// Declares deterministic property tests.
///
/// ```ignore
/// props! {
///     cases = 96;                         // optional; default 64
///     fn my_property(x in 0.0f64..1.0, v in vec(any::<bool>(), 1..8)) {
///         prop_assert!(v.len() as f64 > x - 1.0);
///     }
/// }
/// ```
///
/// Each property becomes a `#[test]`. Inputs are drawn from the listed
/// strategies with a seed derived from the property name and case index;
/// a failure reports both alongside the `Debug` form of the inputs.
/// Inside the body use [`prop_assert!`](crate::prop_assert),
/// [`prop_assert_eq!`](crate::prop_assert_eq) and
/// [`prop_assume!`](crate::prop_assume).
#[macro_export]
macro_rules! props {
    (cases = $cases:expr; $($rest:tt)*) => { $crate::__props_internal! { $cases; $($rest)* } };
    ($($rest:tt)*) => { $crate::__props_internal! { 64; $($rest)* } };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __props_internal {
    ($cases:expr; $($(#[$meta:meta])* fn $name:ident
        ( $($pat:pat_param in $strat:expr),+ $(,)? ) $body:block)*) => {$(
        #[test]
        $(#[$meta])*
        fn $name() {
            let __cases: u64 = $cases;
            for __case in 0..__cases {
                let mut __rng = $crate::prop::case_rng(stringify!($name), __case);
                let __vals = ( $($crate::prop::Strategy::generate(&($strat), &mut __rng),)+ );
                let __report = ::std::format!("{:?}", __vals);
                let ( $($pat,)+ ) = __vals;
                let __outcome: ::std::result::Result<(), ::std::string::String> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                if let ::std::result::Result::Err(__msg) = __outcome {
                    ::std::panic!(
                        "property '{}' failed at case {}/{}:\n  {}\n  inputs: {}",
                        stringify!($name), __case, __cases, __msg, __report,
                    );
                }
            }
        }
    )*};
}

/// Asserts a condition inside a [`props!`](crate::props) body, failing the
/// case with an optional formatted message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err(
                ::std::format!("assertion failed: {}", stringify!($cond)),
            );
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: {} ({})", stringify!($cond), ::std::format!($($fmt)+),
            ));
        }
    };
}

/// Asserts equality inside a [`props!`](crate::props) body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if __l != __r {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: {} == {}\n  left:  {:?}\n  right: {:?}",
                stringify!($left),
                stringify!($right),
                __l,
                __r,
            ));
        }
    }};
}

/// Skips the current case when its inputs don't satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Ok(());
        }
    };
}

/// A strategy choosing uniformly among the listed strategies (all must
/// generate the same type). The in-tree analogue of proptest's
/// `prop_oneof!`; weights are not supported.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::prop::OneOf::new(::std::vec![
            $($crate::prop::Strategy::boxed($strategy)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_rng_is_deterministic_and_name_sensitive() {
        use crate::rng::Rng as _;
        assert_eq!(case_rng("a", 0), case_rng("a", 0));
        assert_ne!(case_rng("a", 0), case_rng("a", 1));
        assert_ne!(case_rng("a", 0).next_u64(), case_rng("b", 0).next_u64());
    }

    #[test]
    fn strategies_generate_expected_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let v = vec(0u32..10, 3..=3).generate(&mut rng);
        assert_eq!(v.len(), 3);
        assert!(v.iter().all(|&x| x < 10));

        let s = btree_set(0u32..100, 5..6).generate(&mut rng);
        assert_eq!(s.len(), 5);

        let (a, b) = (0.0f64..1.0, Just(7u8)).generate(&mut rng);
        assert!((0.0..1.0).contains(&a));
        assert_eq!(b, 7);

        let mapped = (0u32..5).prop_map(|x| x * 2).generate(&mut rng);
        assert!(mapped < 10 && mapped % 2 == 0);

        let dependent = (1usize..4)
            .prop_flat_map(|n| vec(any::<bool>(), n..=n))
            .generate(&mut rng);
        assert!((1..4).contains(&dependent.len()));

        let one: u8 = crate::prop_oneof![Just(1u8), Just(2u8)].generate(&mut rng);
        assert!(one == 1 || one == 2);
    }

    #[test]
    fn btree_set_saturates_on_tiny_domains() {
        let mut rng = StdRng::seed_from_u64(2);
        let s = btree_set(0u32..2, 5..6).generate(&mut rng);
        assert!(s.len() <= 2);
    }

    // The macro itself, exercised end to end.
    crate::props! {
        cases = 16;
        fn macro_smoke(x in 0.0f64..1.0, flag in any::<bool>(), v in vec(0u8..4, 0..5)) {
            crate::prop_assume!(v.len() < 100);
            crate::prop_assert!((0.0..1.0).contains(&x));
            crate::prop_assert_eq!(flag, flag);
        }
    }

    #[test]
    fn failing_property_reports_inputs() {
        let result = std::panic::catch_unwind(|| {
            // Simulate what the macro expands to for a failing body.
            let mut rng = case_rng("doomed", 0);
            let val = Strategy::generate(&(0u32..10), &mut rng);
            let report = format!("{:?}", (val,));
            let outcome: Result<(), String> = (|| {
                crate::prop_assert!(val > 1000, "val was {val}");
                Ok(())
            })();
            if let Err(msg) = outcome {
                panic!("property 'doomed' failed at case 0: {msg}; inputs: {report}");
            }
        });
        let payload = result.expect_err("property must fail");
        let text = payload.downcast_ref::<String>().expect("string panic");
        assert!(text.contains("doomed") && text.contains("inputs"), "{text}");
    }
}
