//! The `count`/`sum` view of telemetry the program already records, read
//! from a `MetricsBody`: the in-process registry's snapshot or the
//! daemon's `metrics` verb. Bucket quantiles are never read.

use harmony_server::MetricsBody;

/// The in-process registry's current state.
pub fn global() -> MetricsBody {
    MetricsBody::from(&harmony_telemetry::global().snapshot())
}

pub fn counter(body: &MetricsBody, name: &str) -> f64 {
    body.counters.get(name).copied().unwrap_or(0) as f64
}

pub fn counter_prefix(body: &MetricsBody, prefix: &str) -> f64 {
    body.counters
        .iter()
        .filter(|(k, _)| k.starts_with(prefix))
        .map(|(_, v)| *v as f64)
        .sum()
}

pub fn gauge(body: &MetricsBody, name: &str) -> f64 {
    body.gauges.get(name).copied().unwrap_or(0.0)
}

pub fn hist_sum(body: &MetricsBody, name: &str) -> f64 {
    body.histograms
        .iter()
        .find(|h| h.name == name)
        .map_or(0.0, |h| h.sum)
}

pub fn hist_count(body: &MetricsBody, name: &str) -> u64 {
    body.histograms
        .iter()
        .find(|h| h.name == name)
        .map_or(0, |h| h.count)
}
