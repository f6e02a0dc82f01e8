//! Uniform construction of every implementation behind `dyn` handles, for
//! the harness and the cross-implementation tests.

use mwllsc::{ConfigError, LlStrategy, MwLlSc};

use crate::am_style::AmStyleLlSc;
use crate::lock::LockLlSc;
use crate::ptrswap::PtrSwapLlSc;
use crate::seqlock::SeqLockLlSc;
use crate::traits::{MwHandle, Progress, SpaceEstimate};

/// Every multiword LL/SC implementation in the suite.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    /// The paper's algorithm (Jayanti–Petrovic, wait-free LL).
    Jp,
    /// The paper's algorithm with the retry-loop LL ablation (lock-free).
    JpRetry,
    /// The AM-style `Θ(N²W)` wait-free reconstruction.
    AmStyle,
    /// Mutex-protected value (blocking).
    Lock,
    /// Seqlock (lock-free readers, crash-fragile writers).
    SeqLock,
    /// Epoch pointer swap (wait-free ops, GC-reliant space).
    PtrSwap,
}

impl Algo {
    /// All algorithms, in comparison-table order.
    pub const ALL: [Algo; 6] =
        [Algo::Jp, Algo::AmStyle, Algo::PtrSwap, Algo::SeqLock, Algo::Lock, Algo::JpRetry];

    /// Short display name used in table rows.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Algo::Jp => "jp-waitfree",
            Algo::JpRetry => "jp-retry-ll",
            Algo::AmStyle => "am-style",
            Algo::Lock => "lock",
            Algo::SeqLock => "seqlock",
            Algo::PtrSwap => "ptr-swap",
        }
    }

    /// Progress guarantee.
    #[must_use]
    pub fn progress(self) -> Progress {
        match self {
            Algo::Jp | Algo::AmStyle | Algo::PtrSwap => Progress::WaitFree,
            Algo::JpRetry | Algo::SeqLock => Progress::LockFree,
            Algo::Lock => Progress::Blocking,
        }
    }
}

impl std::str::FromStr for Algo {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Algo::ALL
            .into_iter()
            .find(|a| a.name() == s)
            .ok_or_else(|| format!("unknown algorithm {s:?}"))
    }
}

impl std::fmt::Display for Algo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Builds an instance of `algo` and returns one boxed handle per process
/// plus the exact space accounting.
///
/// # Panics
///
/// Panics on invalid `(n, w, initial)`; [`try_build`] reports the same
/// conditions as errors instead.
#[must_use]
pub fn build(
    algo: Algo,
    n: usize,
    w: usize,
    initial: &[u64],
) -> (Vec<Box<dyn MwHandle>>, SpaceEstimate) {
    try_build(algo, n, w, initial).unwrap_or_else(|e| panic!("build({algo}): {e}"))
}

/// [`build`], reporting invalid configurations as errors instead of
/// panicking — the harness CLI routes through this for clean messages.
///
/// # Errors
///
/// [`ConfigError`] for a zero `n` or `w`, an `initial` slice whose length
/// differs from `w`, or an `n` past the algorithm's own ceiling:
/// [`mwllsc::layout::Layout::MAX_PROCESSES`] for the tagged-substrate
/// algorithms, [`AmStyleLlSc::MAX_PROCESSES`] for AM-style.
///
/// # Examples
///
/// ```
/// use llsc_baselines::{try_build, Algo};
///
/// assert!(try_build(Algo::Jp, 2, 2, &[1, 2]).is_ok());
/// let err = try_build(Algo::Lock, 2, 2, &[1]).unwrap_err();
/// assert!(err.to_string().contains("expected W = 2"));
/// ```
pub fn try_build(
    algo: Algo,
    n: usize,
    w: usize,
    initial: &[u64],
) -> Result<(Vec<Box<dyn MwHandle>>, SpaceEstimate), ConfigError> {
    // Validate the shared construction rules up front so the baseline
    // constructors (which assert) are only reached with clean inputs.
    // Each algorithm's own ceiling applies: 2^22 for the tagged paper
    // layouts, 2^15 for AM-style's packed X record, none for the O(W)
    // baselines.
    let max = match algo {
        Algo::Jp | Algo::JpRetry => mwllsc::layout::Layout::MAX_PROCESSES,
        Algo::AmStyle => AmStyleLlSc::MAX_PROCESSES,
        Algo::Lock | Algo::SeqLock | Algo::PtrSwap => usize::MAX,
    };
    ConfigError::validate(n, w, initial, max)?;
    Ok(match algo {
        Algo::Jp => {
            let obj = MwLlSc::new(n, w, initial);
            let space = obj.space();
            let handles =
                obj.handles().into_iter().map(|h| Box::new(h) as Box<dyn MwHandle>).collect();
            (
                handles,
                SpaceEstimate {
                    shared_words: space.shared_words(),
                    retired_words: 0,
                    asymptotic: "O(NW)",
                },
            )
        }
        Algo::JpRetry => {
            let obj = MwLlSc::try_with_strategy(n, w, initial, LlStrategy::RetryLoop)
                .expect("valid configuration");
            let space = obj.space();
            let handles =
                obj.handles().into_iter().map(|h| Box::new(h) as Box<dyn MwHandle>).collect();
            (
                handles,
                SpaceEstimate {
                    shared_words: space.shared_words(),
                    retired_words: 0,
                    asymptotic: "O(NW)",
                },
            )
        }
        Algo::AmStyle => {
            let obj = AmStyleLlSc::new(n, w, initial);
            let space = obj.space();
            let handles =
                obj.handles().into_iter().map(|h| Box::new(h) as Box<dyn MwHandle>).collect();
            (handles, space)
        }
        Algo::Lock => {
            let obj = LockLlSc::new(n, w, initial);
            let space = obj.space();
            let handles =
                obj.handles().into_iter().map(|h| Box::new(h) as Box<dyn MwHandle>).collect();
            (handles, space)
        }
        Algo::SeqLock => {
            let obj = SeqLockLlSc::new(n, w, initial);
            let space = obj.space();
            let handles =
                obj.handles().into_iter().map(|h| Box::new(h) as Box<dyn MwHandle>).collect();
            (handles, space)
        }
        Algo::PtrSwap => {
            let obj = PtrSwapLlSc::new(n, w, initial);
            let space = obj.space();
            let handles =
                obj.handles().into_iter().map(|h| Box::new(h) as Box<dyn MwHandle>).collect();
            (handles, space)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_algo_builds_and_operates() {
        for algo in Algo::ALL {
            let (mut handles, space) = build(algo, 3, 2, &[10, 20]);
            assert_eq!(handles.len(), 3);
            assert!(space.shared_words >= 2, "{algo}: {}", space.shared_words);
            let mut v = [0u64; 2];
            handles[0].ll(&mut v);
            assert_eq!(v, [10, 20], "{algo}");
            assert!(handles[0].sc(&[1, 2]), "{algo}");
            handles[1].ll(&mut v);
            assert_eq!(v, [1, 2], "{algo}");
            assert!(handles[1].vl(), "{algo}");
            handles[2].ll(&mut v);
            assert!(handles[2].sc(&[3, 4]), "{algo}");
            assert!(!handles[1].vl(), "{algo}");
            assert!(!handles[1].sc(&[9, 9]), "{algo}");
        }
    }

    #[test]
    fn space_ordering_matches_theory() {
        let n = 16;
        let w = 8;
        let init = vec![0u64; w];
        let jp = build(Algo::Jp, n, w, &init).1.shared_words;
        let am = build(Algo::AmStyle, n, w, &init).1.shared_words;
        let lock = build(Algo::Lock, n, w, &init).1.shared_words;
        assert!(lock < jp, "lock ({lock}) should be smallest");
        assert!(jp < am, "jp ({jp}) must beat am-style ({am})");
        // The headline: the gap is a factor of ~N.
        let ratio = am as f64 / jp as f64;
        assert!(ratio > n as f64 / 4.0, "ratio {ratio} too small for N={n}");
    }

    #[test]
    fn try_build_rejects_bad_configurations() {
        use mwllsc::ConfigError;
        for algo in Algo::ALL {
            assert_eq!(try_build(algo, 0, 1, &[0]).unwrap_err(), ConfigError::ZeroProcesses);
            assert_eq!(try_build(algo, 1, 0, &[]).unwrap_err(), ConfigError::ZeroWords);
            assert_eq!(
                try_build(algo, 1, 2, &[0]).unwrap_err(),
                ConfigError::WrongInitLen { expected: 2, got: 1 }
            );
        }
        assert_eq!(
            try_build(Algo::Jp, mwllsc::layout::Layout::MAX_PROCESSES + 1, 1, &[0]).unwrap_err(),
            ConfigError::TooManyProcesses
        );
        // AM-style's own ceiling (2^15, the packed X record) applies — a
        // typed error, not the constructor's bit-packing assert.
        assert_eq!(
            try_build(Algo::AmStyle, (1 << 15) + 1, 1, &[0]).unwrap_err(),
            ConfigError::TooManyProcesses
        );
    }

    #[test]
    fn algo_parse_roundtrip() {
        for algo in Algo::ALL {
            assert_eq!(algo.name().parse::<Algo>().unwrap(), algo);
        }
        assert!("nope".parse::<Algo>().is_err());
    }
}
