//! Order statistics over timing samples.

/// Median of `v`, the mean of the two middle values for an even count.
/// Returns `NaN` for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of `v`. Returns `NaN` when empty.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Geometric mean of positive values. Returns `NaN` when empty.
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// The statistic every repeated timing of the cure and run phases is
/// reduced to: the fastest sample. On a shared host the measuring core can run
/// 1.5–1.8× slower for stretches longer than a whole run (seen on a 2-core
/// shared VM: three of eight 20-second runs spent most of their time
/// slow). A per-item median then reads whichever state held most of the
/// run, and even the tenth percentile does; the minimum reads the
/// program's own speed whenever a run saw a moment of quiet, and noise
/// can only ever make a sample slower.
pub fn fastest(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NAN, f64::min)
}

/// Per-item fastest samples over passes: `samples[i]` holds item `i`'s
/// samples.
pub fn fastests(samples: &[Vec<f64>]) -> Vec<f64> {
    samples.iter().map(|s| fastest(s)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn fastest_is_the_minimum() {
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
        assert!(fastest(&[]).is_nan());
        assert_eq!(fastests(&[vec![2.0, 1.0], vec![5.0]]), vec![1.0, 5.0]);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }
}
