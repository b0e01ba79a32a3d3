//! Host-time statistics: the stepped envelope and a percentile that refuses
//! to extrapolate.

/// The stepped host-time envelope of a deterministic run.
///
/// A run is advanced in short `RunHandle::step` calls and repeated several
/// times; every repeat does identical work step for step, so the fastest
/// time seen for each step is that step's cost with the least interference
/// from other tenants of the host. The envelope is the sum of those
/// per-step minima.
#[derive(Debug, Clone, Default)]
pub struct Envelope {
    best: Vec<f64>,
    repeats: usize,
}

impl Envelope {
    /// Folds in one repeat's per-step host times, in step order.
    ///
    /// Returns an error when the repeat took a different number of steps
    /// than the earlier ones: the repeats are then not the same run.
    pub fn add_repeat(&mut self, step_secs: &[f64]) -> Result<(), String> {
        if self.repeats == 0 {
            self.best = step_secs.to_vec();
        } else if step_secs.len() != self.best.len() {
            return Err(format!(
                "repeat {} took {} steps, earlier repeats {}",
                self.repeats,
                step_secs.len(),
                self.best.len()
            ));
        } else {
            for (best, &secs) in self.best.iter_mut().zip(step_secs) {
                *best = best.min(secs);
            }
        }
        self.repeats += 1;
        Ok(())
    }

    /// Repeats folded in so far.
    #[cfg(test)]
    pub fn repeats(&self) -> usize {
        self.repeats
    }

    /// Sum of the per-step minima, in seconds.
    pub fn total(&self) -> f64 {
        self.best.iter().sum()
    }
}

/// Samples that must lie beyond a reported percentile.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// The `q`-quantile (`0 < q < 1`) of `samples` by nearest rank, or `None`
/// when fewer than [`MIN_SAMPLES_BEYOND`] samples lie beyond it — such a
/// percentile would be read off the few slowest samples.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "quantile {q} outside (0, 1)");
    let n = samples.len();
    // 1-based nearest rank (the epsilon keeps q * n = 990.0000000001 at
    // rank 990), then the number of samples strictly above it.
    let rank = ((q * n as f64 - 1e-9).ceil() as usize).max(1);
    if n < rank + MIN_SAMPLES_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Arithmetic mean, NaN for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Middle value (the mean of the two middle ones for an even count),
/// `None` for no samples. Used across repeats, not for latency percentiles.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Smallest value, `None` for no samples.
pub fn min(samples: &[f64]) -> Option<f64> {
    samples.iter().copied().reduce(f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_sums_per_step_minima() {
        let mut env = Envelope::default();
        env.add_repeat(&[3.0, 1.0, 2.0]).unwrap();
        env.add_repeat(&[1.0, 3.0, 2.5]).unwrap();
        env.add_repeat(&[2.0, 2.0, 2.0]).unwrap();
        assert_eq!(env.repeats(), 3);
        assert_eq!(env.total(), 1.0 + 1.0 + 2.0);
    }

    #[test]
    fn envelope_is_no_slower_than_the_fastest_repeat() {
        let repeats = [[5.0, 4.0, 9.0, 1.0], [4.0, 6.0, 2.0, 3.0]];
        let mut env = Envelope::default();
        for r in &repeats {
            env.add_repeat(r).unwrap();
        }
        let fastest = repeats
            .iter()
            .map(|r| r.iter().sum::<f64>())
            .fold(f64::INFINITY, f64::min);
        assert!(env.total() <= fastest);
    }

    #[test]
    fn envelope_rejects_repeats_of_another_length() {
        let mut env = Envelope::default();
        env.add_repeat(&[1.0, 2.0]).unwrap();
        assert!(env.add_repeat(&[1.0]).is_err());
        assert_eq!(env.repeats(), 1);
    }

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        // Rank 990 leaves exactly ten samples beyond.
        assert_eq!(percentile(&samples, 0.99), Some(990.0));
        assert_eq!(percentile(&samples[..999], 0.99), None);
        assert_eq!(percentile(&samples, 0.999), None);
        // The float rank agrees with the exact integer one, ceil(99n / 100).
        for n in 20..3000usize {
            let beyond = n - (99 * n).div_ceil(100);
            assert_eq!(
                percentile(&samples_of(n), 0.99).is_some(),
                beyond >= 10,
                "n={n}"
            );
        }
        // A median needs twenty samples.
        assert_eq!(percentile(&samples[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&samples[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    fn samples_of(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut samples: Vec<f64> = (0..40).map(|i| f64::from((i * 17) % 40)).collect();
        let shuffled = percentile(&samples, 0.5);
        samples.sort_by(f64::total_cmp);
        assert_eq!(shuffled, percentile(&samples, 0.5));
        assert_eq!(shuffled, Some(19.0));
    }

    #[test]
    fn median_takes_the_middle() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn min_of_nothing_is_none() {
        assert_eq!(min(&[]), None);
        assert_eq!(min(&[3.0, 1.5, 2.0]), Some(1.5));
    }
}
