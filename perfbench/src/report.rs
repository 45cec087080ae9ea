//! Metric names, summary statistics and the result line.

use std::fmt::Write as _;

/// End-to-end metrics, printed with `--trace 0`: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("events_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("units_per_s", "1/s"),
    ("unit_p50_ms", "ms"),
    ("unit_p99_ms", "ms"),
];

/// Per-layer metrics, printed with `--trace 1`: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.wall_s", "s"),
    ("trace.overhead", "ratio"),
    ("protocols.calls", "count"),
    ("protocols.self_s", "s"),
    ("net.calls", "count"),
    ("net.self_s", "s"),
    ("net.drops", "count"),
    ("net.queued", "count"),
    ("attacks.calls", "count"),
    ("attacks.self_s", "s"),
    ("attacks.drops", "count"),
    ("obs.self_s", "s"),
    ("engine.self_s", "s"),
    ("engine.ns_per_event", "ns"),
    ("engine.allocs", "count"),
    ("engine.allocs_per_event", "count"),
    ("engine.cancelled_timers", "count"),
    ("scheduler.peak_resident", "count"),
    ("scheduler.peak_live", "count"),
    ("scheduler.tombstones_popped", "count"),
    ("scheduler.cancelled_in_place", "count"),
    ("simcheck.generate_s", "s"),
    ("simcheck.run_unit_s", "s"),
    ("simcheck.violations", "count"),
    ("campaign.fold_s", "s"),
    ("campaign.save_calls", "count"),
    ("campaign.save_s", "s"),
    ("campaign.bytes_written", "bytes"),
    ("campaign.report_s", "s"),
];

/// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`, starting with
/// a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The declared unit of a metric, if it is declared.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Median of `xs` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    percentile_sorted(&sorted(xs), 0.5)
}

/// The `q`-quantile of `xs` by linear interpolation between closest ranks.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    percentile_sorted(&sorted(xs), q)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    assert!(!xs.is_empty(), "no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn percentile_sorted(v: &[f64], q: f64) -> f64 {
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Declared metric name.
    pub name: &'static str,
    /// Declared unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// Collects metrics by name and emits them in declared order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Records `name = value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "undeclared metric {name}");
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, value));
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Every metric of `declared`, in declared order, with its unit.
    ///
    /// # Panics
    ///
    /// Panics when a declared metric was not recorded, or an undeclared
    /// one was.
    pub fn emit(&self, declared: &[(&'static str, &'static str)]) -> Vec<Metric> {
        for (name, _) in &self.0 {
            assert!(
                declared.iter().any(|(n, _)| n == name),
                "metric {name} is not in this list"
            );
        }
        declared
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                unit,
                value: self
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured")),
            })
            .collect()
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
fn number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v:?}")
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// A human-readable table of metrics.
pub fn table(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        let _ = writeln!(out, "  {:<30} {:>18.6} {}", m.name, m.value, m.unit);
    }
    out
}
