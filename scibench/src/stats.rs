//! Order statistics over timing samples.

/// The nearest-rank `q`-quantile of `samples` (`q` in `[0, 1]`): the
/// smallest sample with at least `q · n` samples at or below it. `0.0`
/// for an empty slice.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail latency of a run: the median of the `q`-quantiles of
/// consecutive blocks of `block` samples (a trailing partial block joins
/// the one before it). With fewer than two blocks it is the plain
/// quantile. Each block's quantile keeps at least `block · (1 − q)`
/// samples beyond it, and the median over blocks keeps one scheduling
/// hiccup on a shared host from setting the whole run's tail.
pub fn blocked_percentile(samples: &[f64], q: f64, block: usize) -> f64 {
    let blocks = samples.len() / block.max(1);
    if blocks < 2 {
        return percentile(samples, q);
    }
    let per_block: Vec<f64> = (0..blocks)
        .map(|b| {
            let end = if b + 1 == blocks {
                samples.len()
            } else {
                (b + 1) * block
            };
            percentile(&samples[b * block..end], q)
        })
        .collect();
    median(&per_block)
}

/// The median (mean of the middle pair for an even count), as Python's
/// `statistics.median` gives it. `0.0` for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The first and third quartiles by Python's
/// `statistics.quantiles(values, n=4)` (the default `exclusive` method),
/// which is how run-to-run spread is judged. Needs two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let ld = samples.len();
    if ld < 2 {
        return None;
    }
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_known_arrays() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // Order of the input does not matter.
        let shuffled = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&shuffled, 0.5), 3.0);
        assert_eq!(percentile(&shuffled, 0.99), 5.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn blocked_percentile_is_the_median_of_block_tails() {
        // Fewer than two blocks: the plain percentile.
        let v: Vec<f64> = (1..=150).map(f64::from).collect();
        assert_eq!(blocked_percentile(&v, 0.99, 100), percentile(&v, 0.99));
        // Three blocks of 100 (the last takes the 50 extra samples);
        // one block carries a hiccup that the median ignores.
        let mut w: Vec<f64> = (0..350).map(|i| f64::from(i % 100)).collect();
        w[150] = 1e6;
        w[151] = 1e6;
        assert_eq!(blocked_percentile(&w, 0.99, 100), 98.0);
        assert_eq!(percentile(&w, 0.99), 99.0);
    }

    #[test]
    fn median_matches_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 4.0, 2.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
