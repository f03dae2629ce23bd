//! Offline stand-in for the `proptest` property-testing crate.
//!
//! The build environment has no network access to a crates registry, so the
//! workspace vendors the subset of proptest's API that its tests use:
//!
//! * the [`Strategy`] trait with `prop_map`, implemented for integer
//!   ranges, tuples, fixed-size arrays, boxed strategies, and `&str`
//!   regex-lite patterns (character classes, `*`/`+`/`?`/`{m,n}`
//!   quantifiers, and `\PC` for "any printable character"),
//! * `proptest::collection::vec`,
//! * `any::<T>()` for the primitive types,
//! * the `proptest!`, `prop_oneof!`, `prop_assert!`, `prop_assert_eq!`,
//!   and `prop_assert_ne!` macros,
//! * [`ProptestConfig`] with a `cases` knob.
//!
//! Differences from real proptest: generation is a fixed splitmix64
//! sequence per case index (fully deterministic across runs — useful for
//! CI), and there is **no shrinking**; a failing case reports its case
//! index and the `Debug` rendering of every generated input instead of a
//! minimal counterexample.

pub mod arbitrary;
pub mod collection;
pub mod strategy;
pub mod string;
pub mod test_runner;

pub use arbitrary::{any, Arbitrary};
pub use strategy::Strategy;
pub use test_runner::TestRng;

/// Configuration accepted by `#![proptest_config(...)]`.
///
/// Only `cases` is honored by the stand-in; the other fields exist so that
/// struct-update syntax against `ProptestConfig::default()` compiles.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
    /// Accepted for compatibility; shrinking is not implemented.
    pub max_shrink_iters: u32,
    /// Accepted for compatibility; local-rejection limits are not enforced.
    pub max_local_rejects: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: 256,
            max_shrink_iters: 0,
            max_local_rejects: 65536,
        }
    }
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig {
            cases,
            ..ProptestConfig::default()
        }
    }
}

/// Everything a test module needs: `use proptest::prelude::*;`
pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::Strategy;
    pub use crate::ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Runs one property body as a set of random cases.
///
/// Used by the `proptest!` macro expansion; not part of the public
/// proptest API.
#[doc(hidden)]
pub fn __run_cases(name: &str, config: &ProptestConfig, mut case: impl FnMut(u64)) {
    for i in 0..config.cases as u64 {
        // Salt the per-case seed with the test name so sibling properties
        // see different streams.
        let mut seed = 0xcbf29ce484222325u64;
        for b in name.bytes() {
            seed = (seed ^ b as u64).wrapping_mul(0x100000001b3);
        }
        case(seed ^ i.wrapping_mul(0x9e3779b97f4a7c15));
    }
}

/// Defines property tests.
///
/// ```
/// use proptest::prelude::*;
/// proptest! {
///     #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]
///     fn addition_commutes(a in 0u32..1000, b in 0u32..1000) {
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// // In a test module each property carries `#[test]`; here it is called.
/// addition_commutes();
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! { cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    (cfg = $cfg:expr; $( $(#[$meta:meta])* fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::ProptestConfig = $cfg;
                let mut __case_no: u64 = 0;
                $crate::__run_cases(stringify!($name), &__config, |__seed| {
                    let mut __rng = $crate::TestRng::from_seed(__seed);
                    $( let $arg = $crate::Strategy::generate(&$strat, &mut __rng); )+
                    let __inputs = {
                        let mut s = String::new();
                        $(
                            s.push_str(concat!(stringify!($arg), " = "));
                            s.push_str(&format!("{:?}", &$arg));
                            s.push_str("\n");
                        )+
                        s
                    };
                    let __outcome = ::std::panic::catch_unwind(
                        ::std::panic::AssertUnwindSafe(move || $body),
                    );
                    if let Err(e) = __outcome {
                        eprintln!(
                            "proptest: property `{}` failed at case {} with inputs:\n{}",
                            stringify!($name),
                            __case_no,
                            __inputs
                        );
                        ::std::panic::resume_unwind(e);
                    }
                    __case_no += 1;
                });
            }
        )*
    };
}

/// Uniformly picks one of several strategies with the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![ $( $crate::strategy::boxed($strat) ),+ ])
    };
}

/// Like `assert!` inside a property body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// Like `assert_eq!` inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

/// Like `assert_ne!` inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_ne!($a, $b, $($fmt)+) };
}

/// Skips the current case when an assumption fails. The stand-in has no
/// rejection bookkeeping, so a failed assumption simply returns from the
/// case closure.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return;
        }
    };
}
