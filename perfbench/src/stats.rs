//! Order statistics over host-time samples.

/// Median of `values` (mean of the two middle values for an even count);
/// 0 when there are none.
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank `q`-quantile of `values` (`q` in (0, 1]); 0 for an empty
/// input.
pub fn quantile(values: impl IntoIterator<Item = f64>, q: f64) -> f64 {
    let s = sorted(values);
    if s.is_empty() {
        return 0.0;
    }
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

fn sorted(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut s: Vec<f64> = values.into_iter().collect();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantile() {
        assert_eq!(median([3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median([4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median([]), 0.0);
        let v = || (1..=100).map(f64::from);
        assert_eq!(quantile(v(), 0.9), 90.0);
        assert_eq!(quantile(v(), 0.5), 50.0);
    }
}
