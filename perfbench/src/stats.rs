//! Small numeric helpers: order statistics and the process memory
//! high-water mark.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by the nearest-rank method;
/// `0.0` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median: the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Share of the total held by the slowest `fraction` of the values
/// (at least one value); `0.0` when the total is zero.
pub fn top_share(values: &[f64], fraction: f64) -> f64 {
    let total: f64 = values.iter().sum();
    if values.is_empty() || total <= 0.0 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    let count = ((values.len() as f64 * fraction).ceil() as usize).max(1);
    sorted[..count].iter().sum::<f64>() / total
}

/// This process's resident-set high-water mark in MiB (`VmHWM`), or `0.0`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let values = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&values), 3.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        assert_eq!(quantile(&values, 0.5), 3.0);
        assert_eq!(quantile(&values, 0.99), 5.0);
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn top_share_takes_at_least_one_value() {
        let values = [1.0, 1.0, 2.0];
        assert_eq!(top_share(&values, 0.01), 0.5);
        assert_eq!(top_share(&[], 0.01), 0.0);
    }
}
