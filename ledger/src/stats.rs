//! Order statistics of timing samples.
//!
//! A timing is reported as its median plus a *tail*: the highest
//! percentile that still has at least [`TAIL_BEYOND`] samples beyond it, so
//! the tail of a short run is never read off one or two outliers.

/// Samples that must lie strictly above the reported tail.
pub const TAIL_BEYOND: usize = 10;

/// Share of the machine's CPU time the hypervisor may steal while a sample
/// is taken before the sample counts as disturbed. On a shared 2-vCPU guest
/// steal comes in bursts of a few to tens of percent; a burst inflates a
/// pooled solve several-fold, because every barrier waits for the stolen
/// vCPU.
pub const STEAL_TOLERANCE: f64 = 0.02;

/// Fewest samples a closed-loop lane is summarised from. Steal is read in
/// 10 ms ticks, so a quiet sample is one during which no tick was stolen;
/// when the hypervisor steals a tenth of the machine, only a few percent of
/// the samples are that quiet, and a rule keeping a fixed share would mix
/// disturbed samples in. Thirty keeps the tail rule above the median.
pub const LANE_KEEP: usize = 30;

/// Median, tail and sample count of one timing series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples the summary was read from.
    pub n: usize,
    /// Number of samples taken (more than `n` when disturbed samples were
    /// set aside).
    pub taken: usize,
    /// Smallest sample.
    pub min: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// Value at the tail percentile (see [`tail_index`]).
    pub tail: f64,
    /// The tail's percentile, in percent.
    pub tail_pct: f64,
    /// First and third quartiles (see [`quartiles`]); both equal the one
    /// sample of a single-sample series.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

/// Index into an ascending series of `n` samples of the highest percentile
/// with at least [`TAIL_BEYOND`] samples beyond it, or `None` when `n` is too
/// small for any. The sample at index `i` has `n - 1 - i` samples after it.
pub fn tail_index(n: usize) -> Option<usize> {
    n.checked_sub(TAIL_BEYOND + 1)
}

/// Median of a non-empty series (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty series or a NaN sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "median of an empty series");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`, which the acceptance spread uses.
///
/// # Panics
///
/// Panics on fewer than two samples or a NaN sample.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two samples");
    // Python: m = n + 1; cut i sits between ranks j and j + 1 with
    // j = clamp(i*m / 4, 1, n - 1), weighted by delta = i*m - 4*j (which
    // can fall outside 0..4, extrapolating past the extremes).
    let at = |i: usize| -> f64 {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (4 * j) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Summarises a series: median and tail by the [`TAIL_BEYOND`] rule. A
/// series too short for the rule reports its maximum as the tail, and the
/// tail never reads below the median (a series of 21 or fewer samples has
/// no percentile above its median with ten samples beyond).
///
/// # Panics
///
/// Panics on an empty series or a NaN sample.
pub fn summarize(values: &[f64]) -> Summary {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "summary of an empty series");
    let i = tail_index(n).unwrap_or(n - 1);
    let (q1, q3) = if n >= 2 { quartiles(&v) } else { (v[0], v[0]) };
    let p50 = median(&v);
    Summary {
        n,
        taken: n,
        min: v[0],
        mean: v.iter().sum::<f64>() / n as f64,
        q1,
        q3,
        p50,
        tail: v[i].max(p50),
        tail_pct: 100.0 * (i + 1) as f64 / n as f64,
    }
}

/// The steal share up to which samples count as quiet: the
/// [`STEAL_TOLERANCE`], or the share of the `keep`-th quietest sample when
/// fewer than `keep` are within it. A quiet run keeps every undisturbed
/// sample; a noisy one still keeps its `keep` quietest, so the result does
/// not jump between two regimes as the host's noise level drifts.
fn quiet_threshold(steal: &[f64], keep: usize) -> f64 {
    let mut sorted = steal.to_vec();
    sorted.sort_by(f64::total_cmp);
    let kth = sorted[keep.clamp(1, sorted.len()) - 1];
    kth.max(STEAL_TOLERANCE)
}

/// Summarises `(value, steal share)` samples from the quiet ones (see
/// [`quiet_threshold`]): those taken while the hypervisor stole at most
/// [`STEAL_TOLERANCE`] of the machine's CPU time, and at least the `keep`
/// quietest (all of them, when there are no more).
///
/// # Panics
///
/// Panics on an empty series or a NaN value.
pub fn summarize_quiet(samples: &[(f64, f64)], keep: usize) -> Summary {
    let steal: Vec<f64> = samples.iter().map(|&(_, s)| s).collect();
    let limit = quiet_threshold(&steal, keep);
    let kept: Vec<f64> = samples
        .iter()
        .filter(|&&(_, s)| s <= limit)
        .map(|&(v, _)| v)
        .collect();
    Summary {
        taken: samples.len(),
        ..summarize(&kept)
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_index(10), None);
        assert_eq!(tail_index(11), Some(0));
        assert_eq!(tail_index(100), Some(89));
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&values);
        assert_eq!(s.n, 100);
        assert_eq!(s.tail, 90.0);
        assert_eq!(values.iter().filter(|&&v| v > s.tail).count(), TAIL_BEYOND);
        assert_eq!(s.tail_pct, 90.0);
    }

    #[test]
    fn short_series_report_their_maximum() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.p50, s.tail, s.tail_pct), (2.0, 3.0, 100.0));
        // Eleven samples: the rule lands on the minimum, the tail reads the
        // median instead.
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(summarize(&eleven).tail, 6.0);
        let one = summarize(&[4.0]);
        assert_eq!((one.q1, one.p50, one.q3), (4.0, 4.0, 4.0));
    }

    #[test]
    fn disturbed_samples_are_set_aside() {
        let mut samples: Vec<(f64, f64)> = (0..8).map(|i| (10.0 + i as f64, 0.0)).collect();
        samples.extend((0..4).map(|_| (90.0, 0.3)));
        let s = summarize_quiet(&samples, 3);
        assert_eq!((s.n, s.taken), (8, 12));
        assert_eq!(s.tail, 17.0);
        // Too few quiet samples: the `keep` quietest are used, or all.
        let noisy: Vec<(f64, f64)> = (0..12)
            .map(|i| (i as f64, if i < 2 { 0.0 } else { 0.01 * i as f64 }))
            .collect();
        assert_eq!(summarize_quiet(&noisy, 3).n, 3);
        assert_eq!(summarize_quiet(&noisy, 3).tail, 2.0);
        assert_eq!(summarize_quiet(&noisy, 30).n, 12);
    }

    #[test]
    fn median_of_odd_and_even_series() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), (1.25, 3.75));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), (7.5, 22.5));
    }
}
