//! Summary statistics for replicated stochastic experiments.
//!
//! Figure 9's random fail/recover model makes throughput a random variable;
//! honest reproduction reports a mean over independent seeds with a spread,
//! not a single run. [`Summary`] collects those moments and
//! [`replicated_throughput`] runs the replications (in parallel).

use crate::scenario::{run_spec, ExperimentSpec};
use crate::sweep::parallel_map;

/// Moments of a sample: mean, standard deviation (sample, n−1), extrema.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (Bessel-corrected); 0 for n < 2.
    pub std_dev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl Summary {
    /// Summarizes a sample.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty.
    pub fn of(xs: &[f64]) -> Summary {
        assert!(!xs.is_empty(), "cannot summarize an empty sample");
        let n = xs.len();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        Summary {
            n,
            mean,
            std_dev: var.sqrt(),
            min: xs.iter().cloned().fold(f64::INFINITY, f64::min),
            max: xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// Half-width of a ~95% normal-approximation confidence interval for the
    /// mean (`1.96 · s/√n`). Zero for n < 2.
    pub fn ci95_half_width(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            1.96 * self.std_dev / (self.n as f64).sqrt()
        }
    }
}

impl core::fmt::Display for Summary {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{:.4} ± {:.4} (n={}, range {:.4}–{:.4})",
            self.mean,
            self.ci95_half_width(),
            self.n,
            self.min,
            self.max
        )
    }
}

/// Runs `spec` for `k` rounds under `seeds` independent seeds (in parallel)
/// and summarizes the measured throughputs.
///
/// # Panics
///
/// Panics if `seeds` is empty.
pub fn replicated_throughput(
    spec: &ExperimentSpec,
    k: u64,
    seeds: &[u64],
    threads: usize,
) -> Summary {
    assert!(!seeds.is_empty(), "need at least one seed");
    let outcomes = parallel_map(seeds, threads, |&seed| run_spec(spec, k, seed).throughput);
    Summary::of(&outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::fig9_point;

    #[test]
    fn summary_moments() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.std_dev - 1.2909944487).abs() < 1e-9);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!(s.ci95_half_width() > 0.0);
        assert!(s.to_string().contains("n=4"));
    }

    #[test]
    fn singleton_has_zero_spread() {
        let s = Summary::of(&[7.0]);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.ci95_half_width(), 0.0);
        assert_eq!((s.min, s.max), (7.0, 7.0));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_sample_panics() {
        let _ = Summary::of(&[]);
    }

    #[test]
    fn replication_is_deterministic_and_spread_is_real() {
        let spec = fig9_point(0.03, 0.1);
        let a = replicated_throughput(&spec, 250, &[1, 2, 3, 4], 4);
        let b = replicated_throughput(&spec, 250, &[1, 2, 3, 4], 2);
        assert_eq!(a, b, "thread count must not affect results");
        // Stochastic failures ⇒ different seeds give different throughput.
        assert!(a.std_dev > 0.0);
    }
}
