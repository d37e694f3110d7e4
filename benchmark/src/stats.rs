//! Order statistics shared by the runs and by `compare`.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` of the population at or below it. Empty input reads 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` in place and returns them, for [`percentile`].
pub fn sorted(values: &mut [f64]) -> &[f64] {
    values.sort_by(f64::total_cmp);
    values
}

/// Median with the midpoint rule for even counts. Empty input reads 0.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    let v = sorted(&mut v);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Per-position minimum over repeats of one deterministic sequence: sample
/// `i` of the result is the fastest of every repeat's sample `i`. Repeats
/// of identical work differ only by what the host did to them, and a
/// disturbance only ever adds time, so the fastest repeat is the cleanest
/// reading of each sample; taken per sample rather than per repeat, a
/// disturbance must hit the same sample in every repeat to show. (Under a
/// busy neighbour on the 2-core reference host this held a 95th percentile
/// within 9 % where the per-position median and the pooled percentile both
/// moved by 20 %.) `None` when the repeats differ in length, which makes
/// them different sequences.
pub fn positionwise_min(repeats: &[Vec<f64>]) -> Option<Vec<f64>> {
    let len = repeats.first().map_or(0, Vec::len);
    if repeats.iter().any(|r| r.len() != len) {
        return None;
    }
    Some(
        (0..len)
            .map(|i| repeats.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
            .collect(),
    )
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), which is what the acceptance rule
/// for this benchmark is stated in. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    let v = sorted(&mut v);
    let n = v.len();
    let at = |k: usize| {
        // Position k*(n+1)/4 on a 1-based axis; like Python, the segment
        // index is clamped into the data but the fraction is not, so tiny
        // samples extrapolate.
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let frac = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median — the spread the
/// benchmark's steadiness is judged by.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picks_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // Ten samples: p95 is the largest, p50 the fifth.
        let t: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&t, 0.95), 10.0);
        assert_eq!(percentile(&t, 0.5), 5.0);
    }

    #[test]
    fn positionwise_min_drops_what_the_host_added() {
        // Three repeats of a four-sample sequence; the second repeat ran
        // three times slower throughout and the third had one spike.
        let repeats = vec![
            vec![1.0, 2.0, 3.0, 40.0],
            vec![3.0, 6.0, 9.0, 120.0],
            vec![1.1, 1.9, 30.0, 41.0],
        ];
        assert_eq!(positionwise_min(&repeats), Some(vec![1.0, 1.9, 3.0, 40.0]));
        // Repeats of unequal length are not one sequence.
        assert_eq!(positionwise_min(&[vec![1.0, 2.0], vec![3.0]]), None);
        assert_eq!(positionwise_min(&[]), Some(vec![]));
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let t: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&t).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!((spread(&t).unwrap() - 1.0).abs() < 1e-12);
        assert!(quartiles(&[1.0]).is_none());
    }
}
