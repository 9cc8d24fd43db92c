//! # minitest — a deterministic property-testing shim with the `proptest` API
//!
//! The build environment is offline, so crates.io `proptest` is unavailable.
//! This crate reimplements, from scratch, exactly the macro surface the
//! workspace's property tests use — consumers declare
//! `proptest = { package = "minitest", ... }` so test files keep the
//! familiar `use proptest::prelude::*` spelling:
//!
//! * [`proptest!`] with an optional `#![proptest_config(...)]` header and
//!   test functions whose arguments are drawn from integer ranges
//!   (`n in 20usize..150`, `seed in 0u64..1000`, inclusive ranges too).
//! * [`prop_assert!`] / [`prop_assert_eq!`] / [`prop_assert_ne!`], each with
//!   optional format-message arguments.
//! * [`prop_assume!`] — discards the case instead of failing.
//! * [`ProptestConfig::with_cases`].
//!
//! Unlike upstream proptest there is no shrinking: cases are sampled
//! deterministically (seeded per test by case index), and a failing case
//! reports its case number and sampled arguments, which is enough to replay.

#![forbid(unsafe_code)]

pub use detrand;

/// Runner configuration: how many sampled cases each property runs.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of cases to sample and execute.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` sampled cases.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Outcome of one sampled case: failure message or a discard request.
#[derive(Clone, Debug)]
pub enum TestCaseError {
    /// `prop_assert*` failed with this message.
    Fail(String),
    /// `prop_assume!` rejected the sampled inputs; the case is skipped.
    Reject,
}

/// `Result` alias the generated case closures return.
pub type TestCaseResult = Result<(), TestCaseError>;

/// One-stop imports mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, ProptestConfig,
        TestCaseError, TestCaseResult,
    };
}

/// Defines property tests. See the crate docs for the accepted grammar.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Internal expansion of [`proptest!`]; not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr; $($(#[$meta:meta])* fn $name:ident($($arg:ident in $range:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                use $crate::detrand::{Rng as _, SeedableRng as _};
                let config: $crate::ProptestConfig = $cfg;
                // A per-test deterministic seed: the test name hashed.
                let test_seed: u64 = stringify!($name)
                    .bytes()
                    .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
                    });
                for case in 0..config.cases {
                    let mut rng = $crate::detrand::rngs::StdRng::seed_from_u64(
                        $crate::detrand::mix64(test_seed, case as u64),
                    );
                    $(let $arg = rng.gen_range($range);)*
                    let outcome: $crate::TestCaseResult = (|| {
                        $body
                        Ok(())
                    })();
                    match outcome {
                        Ok(()) => {}
                        Err($crate::TestCaseError::Reject) => continue,
                        Err($crate::TestCaseError::Fail(msg)) => panic!(
                            "property {} failed at case {case} with inputs {:?}:\n{msg}",
                            stringify!($name),
                            ($(stringify!($arg), $arg),*),
                        ),
                    }
                }
            }
        )*
    };
}

/// Asserts inside a [`proptest!`] body; failure reports the sampled inputs.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return Err($crate::TestCaseError::Fail(format!($($fmt)*)));
        }
    };
}

/// Equality assertion inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "assertion failed: {:?} == {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, $($fmt)*);
    }};
}

/// Inequality assertion inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, "assertion failed: {:?} != {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, $($fmt)*);
    }};
}

/// Discards the current case when its sampled inputs violate a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Ranges are respected and assertions pass.
        #[test]
        fn sampled_args_in_range(n in 5usize..50, seed in 0u64..100, k in 1usize..=3) {
            prop_assert!((5..50).contains(&n));
            prop_assert!(seed < 100, "seed {seed} out of range");
            prop_assert!((1..=3).contains(&k));
            prop_assert_eq!(n + k, k + n);
            prop_assert_ne!(n, n + k);
        }

        /// `prop_assume` discards rather than fails.
        #[test]
        fn assume_discards(n in 0usize..10) {
            prop_assume!(n % 2 == 0);
            prop_assert!(n % 2 == 0);
        }
    }

    #[test]
    fn default_config_runs() {
        assert_eq!(ProptestConfig::default().cases, 64);
        assert_eq!(ProptestConfig::with_cases(7).cases, 7);
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failing_property_panics_with_case_info() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]
            fn always_fails(n in 0usize..10) {
                prop_assert!(n > 100, "n = {n} is small");
            }
        }
        always_fails();
    }
}
