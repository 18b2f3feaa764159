//! Order statistics over measured samples.

/// The `p`-mid-quantile (0..=1) of `samples`: the quantile of the
/// mid-distribution function `F(x) = P(X < x) + P(X = x) / 2`,
/// interpolated linearly between the distinct sample values (Parzen's
/// mid-quantile). Without ties it matches the usual interpolated
/// quantile. Modelled latencies are full of ties (every call of one
/// kind can cost the same virtual nanoseconds); there the usual
/// quantile sticks to one value while the mid-quantile still follows
/// the shares of the values around it. 0 for an empty set. Sorts in
/// place.
pub fn quantile(samples: &mut [u64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let n = samples.len() as f64;
    // (distinct value, its mid-distribution value), ascending in both.
    let mut points: Vec<(f64, f64)> = Vec::new();
    let mut i = 0;
    while i < samples.len() {
        let j = i + samples[i..].partition_point(|&x| x == samples[i]);
        points.push((samples[i] as f64, (i as f64 + (j - i) as f64 / 2.0) / n));
        i = j;
    }
    let k = points.partition_point(|&(_, f)| f <= p);
    if k == 0 {
        return points[0].0;
    }
    if k == points.len() {
        return points[k - 1].0;
    }
    let ((x0, f0), (x1, f1)) = (points[k - 1], points[k]);
    x0 + (x1 - x0) * (p - f0) / (f1 - f0)
}

/// The median of `samples` (see [`quantile`]); 0 for an empty set.
pub fn median(samples: &mut [u64]) -> f64 {
    quantile(samples, 0.5)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn without_ties_quantiles_interpolate_between_ranks() {
        let mut v = vec![40, 10, 30, 20];
        assert_eq!(quantile(&mut v, 0.0), 10.0);
        assert_eq!(quantile(&mut v, 1.0), 40.0);
        assert_eq!(median(&mut v), 25.0);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn ties_spread_over_the_gap_to_their_neighbours() {
        let mut v = vec![1, 2, 2, 2, 3];
        assert_eq!(median(&mut v), 2.0);
        assert_eq!(quantile(&mut v, 0.7), 2.5);
        // One more sample below the plateau moves the median.
        let mut w = vec![1, 1, 2, 2, 2, 3];
        assert!(median(&mut w) < 2.0);
    }
}
