//! Order statistics over a run's samples.

/// Median, quartiles and range of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    v
}

/// The `p`-quantile (0 ≤ p ≤ 1) of sorted `v` by the exclusive method of
/// Python's `statistics.quantiles`, so spreads computed here and by the
/// driver agree.
fn quantile_sorted(v: &[f64], p: f64) -> f64 {
    let n = v.len();
    if n == 1 {
        return v[0];
    }
    let pos = p * (n + 1) as f64;
    let j = (pos.floor() as usize).clamp(1, n - 1);
    let frac = pos - j as f64;
    v[j - 1] + (v[j] - v[j - 1]) * frac
}

/// Summarises `samples`; `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let v = sorted(samples);
    Some(Summary {
        n: v.len(),
        median: quantile_sorted(&v, 0.5),
        q1: quantile_sorted(&v, 0.25),
        q3: quantile_sorted(&v, 0.75),
        min: v[0],
        max: v[v.len() - 1],
    })
}

/// Median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).map_or(0.0, |s| s.median)
}

/// The `p`-quantile of unsorted `samples` (0 when empty).
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    quantile_sorted(&sorted(samples), p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let s = summarize(&[10.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) extrapolates past the ends.
        let s = summarize(&[1.0, 2.0, 4.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 4.0));
        let s = summarize(&[3.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (3.0, 3.0, 3.0));
    }
}
