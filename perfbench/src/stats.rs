//! Exact statistics over the benchmark's own raw samples.
//!
//! Every quantile here is an order statistic of the samples actually
//! taken — never a histogram bucket bound — and every reported figure
//! carries the number of samples behind it.

/// The `q`-quantile (`0.0..=1.0`) as the ⌈q·n⌉-th smallest sample
/// (clamped to `[1, n]`), the rank convention `DelayStats` uses.
/// `None` for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// The median as the order statistic of [`quantile`] (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// Arithmetic mean (0 when empty).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One reported figure: a value, its unit, and how many raw samples
/// produced it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Self {
        Metric {
            name,
            unit,
            value,
            samples,
        }
    }

    /// A latency quantile in milliseconds over samples in seconds.
    pub fn quantile_ms(name: &'static str, secs: &[f64], q: f64) -> Self {
        let value = quantile(secs, q).unwrap_or(0.0) * 1e3;
        Metric::new(name, "ms", value, secs.len())
    }
}

/// FNV-1a 64 over bytes: the digest printed for each report so two
/// commits' decisions can be compared at a glance.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_order_statistics() {
        let xs: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), Some(5.0));
        assert_eq!(quantile(&xs, 0.9), Some(9.0));
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(10.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[3.0]), 3.0);
    }

    #[test]
    fn ratio_and_mean_handle_empty_inputs() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
    }
}
