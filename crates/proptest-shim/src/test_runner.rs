//! The deterministic case runner behind the `proptest!` macro.

use sage_rng::{rngs::StdRng, SeedableRng};

/// Runner configuration (mirrors the fields of `proptest::ProptestConfig`
/// this workspace uses).
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of successful (non-rejected) cases to run.
    pub cases: u32,
    /// Cap on consecutive `prop_assume!` rejections before the runner
    /// declares the strategy too narrow and fails.
    pub max_global_rejects: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases with the default rejection cap.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig {
            cases,
            ..Default::default()
        }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: 256,
            max_global_rejects: 65536,
        }
    }
}

/// Why a single case did not pass.
#[derive(Clone, Debug)]
pub enum TestCaseError {
    /// The case's inputs violated a `prop_assume!` precondition; the case
    /// is discarded and does not count towards the budget.
    Reject(String),
    /// An assertion failed; the whole test fails.
    Fail(String),
}

impl TestCaseError {
    /// Builds the assertion-failure variant.
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError::Fail(message.into())
    }

    /// Builds the precondition-violated variant.
    pub fn reject(message: impl Into<String>) -> Self {
        TestCaseError::Reject(message.into())
    }
}

/// The RNG handed to each case. Strategies consume bits from it in
/// sequence, so a case is fully described by its 64-bit seed.
pub struct TestRng {
    pub(crate) rng: StdRng,
}

impl TestRng {
    /// Creates a stream from a case seed.
    pub fn from_seed(seed: u64) -> Self {
        TestRng {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Draws 64 raw bits.
    pub fn next_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }
}

/// FNV-1a, used to turn the fully-qualified test name into a seed base so
/// different tests explore different input streams.
fn hash_name(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Drives the cases of one property test.
pub struct TestRunner {
    config: ProptestConfig,
    name: &'static str,
    seed_base: u64,
}

impl TestRunner {
    /// Creates a runner for the test named `name` (used to derive seeds and
    /// in failure messages).
    pub fn new(config: ProptestConfig, name: &'static str) -> Self {
        let seed_base = hash_name(name);
        TestRunner {
            config,
            name,
            seed_base,
        }
    }

    /// The seed for case index `case` of this test.
    fn case_seed(&self, case: u64) -> u64 {
        // Output `case` of the SplitMix64 stream whose first state is one
        // increment below `seed_base` (`splitmix64` adds the increment
        // before it mixes): adjacent cases are uncorrelated.
        let steps = case.wrapping_sub(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        sage_rng::splitmix64(self.seed_base.wrapping_add(steps))
    }

    /// Runs the configured number of cases, panicking (with a reproduction
    /// seed) on the first failure.
    ///
    /// Setting `PROPTEST_CASE_SEED=<seed>` replays exactly one case with
    /// that seed instead — the supported way to reproduce a failure.
    pub fn run<F>(&mut self, body: &mut F)
    where
        F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
    {
        if let Ok(var) = std::env::var("PROPTEST_CASE_SEED") {
            let seed: u64 = var
                .parse()
                .unwrap_or_else(|_| panic!("PROPTEST_CASE_SEED must be a u64, got `{var}`"));
            let mut rng = TestRng::from_seed(seed);
            match body(&mut rng) {
                Ok(()) => return,
                Err(TestCaseError::Reject(why)) => {
                    panic!(
                        "{}: replayed case seed {seed} was rejected: {why}",
                        self.name
                    )
                }
                Err(TestCaseError::Fail(why)) => {
                    panic!(
                        "{}: case failed with PROPTEST_CASE_SEED={seed}: {why}",
                        self.name
                    )
                }
            }
        }

        let mut passed = 0u32;
        let mut rejected = 0u32;
        let mut case_index = 0u64;
        while passed < self.config.cases {
            let seed = self.case_seed(case_index);
            case_index += 1;
            let mut rng = TestRng::from_seed(seed);
            match body(&mut rng) {
                Ok(()) => passed += 1,
                Err(TestCaseError::Reject(_)) => {
                    rejected += 1;
                    if rejected > self.config.max_global_rejects {
                        panic!(
                            "{}: too many prop_assume! rejections ({rejected}); \
                             strategy is too narrow",
                            self.name
                        );
                    }
                }
                Err(TestCaseError::Fail(why)) => {
                    panic!(
                        "{}: case {passed} failed; reproduce with PROPTEST_CASE_SEED={seed}\n{why}",
                        self.name
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `case_seed` as it was written before it called `splitmix64`: every
    /// replay seed ever printed must still name the same case.
    fn inlined(base: u64, case: u64) -> u64 {
        let mut z = base.wrapping_add(case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn case_seeds_are_unchanged_by_the_shared_mixer() {
        for name in ["a::b", "tests::chaos::fft2d_faults_never_corrupt", ""] {
            let runner = TestRunner::new(ProptestConfig::with_cases(1), name);
            for case in [0, 1, 2, 63, 1 << 40, u64::MAX] {
                assert_eq!(runner.case_seed(case), inlined(runner.seed_base, case));
            }
        }
    }
}
