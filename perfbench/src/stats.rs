//! Order statistics for the report.

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (NaN when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of whole-microsecond readings that were truncated from
/// a continuous time (a reading `d` stands for `[d, d+1)`): the quantile
/// is interpolated inside its one-microsecond bin, as for grouped data, so
/// sub-microsecond spans do not all collapse to the same integer.
pub fn binned_quantile(values: &[u64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let target = q.clamp(0.0, 1.0) * sorted.len() as f64;
    let at = (target as usize).min(sorted.len() - 1);
    let value = sorted[at];
    let below = sorted.partition_point(|&v| v < value);
    let within = sorted.partition_point(|&v| v <= value) - below;
    value as f64 + (target - below as f64).clamp(0.0, within as f64) / within as f64
}
