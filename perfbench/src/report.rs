//! Metric catalogs, summary statistics and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (`--trace 0`), with units. Every workload reports
/// every one of them; the README defines each per workload.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("job_wall_s", "s"),
    ("cpu_s", "s"),
    ("ingest_points_per_s", "1/s"),
    ("sync_ms_p50", "ms"),
    ("sync_ms_p90", "ms"),
    ("bytes_total", "bytes"),
    ("cost_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("ops_ok_frac", "ratio"),
];

/// Per-layer metrics (`--trace 1`), with units, named `<crate>.<what>`.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("workloads.generate_s", "s"),
    ("workloads.partition_s", "s"),
    ("api.job_overhead_s", "s"),
    ("core.protocol_s", "s"),
    ("core.evaluate_s", "s"),
    ("core.rounds", "count"),
    ("coordinator.site_compute_s", "s"),
    ("coordinator.site_critical_s", "s"),
    ("coordinator.coordinator_compute_s", "s"),
    ("coordinator.exchange_wait_s", "s"),
    ("coordinator.bytes_up", "bytes"),
    ("coordinator.bytes_down", "bytes"),
    ("coordinator.poll_wakeups", "count"),
    ("cluster.site_solve_s", "s"),
    ("cluster.site_solve_calls", "count"),
    ("cluster.site_solve_ms_p50", "ms"),
    ("metric.assign_s", "s"),
    ("metric.queries_per_s", "1/s"),
    ("metric.kernel_queries", "count"),
    ("metric.candidates_scanned", "count"),
    ("metric.candidates_pruned", "count"),
    ("metric.bound_skips", "count"),
    ("metric.tile_scores", "count"),
    ("metric.prune_rate", "ratio"),
    ("codec.compression_ratio", "ratio"),
    ("codec.frame_s", "s"),
    ("codec.unframe_s", "s"),
    ("stream.ingest_s", "s"),
    ("stream.sync_s", "s"),
    ("stream.blocks_summarized", "count"),
    ("stream.summaries_merged", "count"),
    ("stream.syncs", "count"),
    ("obs.trace_overhead_frac", "ratio"),
    ("unattributed_frac", "ratio"),
];

/// What one benchmark run measured and whether its outputs held up.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations (jobs, or syncs on the streaming workload) attempted.
    pub attempted: u64,
    /// Operations that panicked or failed the correctness gate.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Environment stamp, one `key=value` JSON fragment per entry.
    pub env: Vec<(String, String)>,
}

impl Report {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Adds an environment stamp entry (`value` is raw JSON).
    pub fn stamp(&mut self, key: &str, value: impl Into<String>) {
        self.env.push((key.to_string(), value.into()));
    }

    /// True when nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result object: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the latter holding every metric of `catalog`. A run
    /// whose operations failed may have left metrics unmeasured or not
    /// finite; they print as 0 so the line stays valid JSON.
    ///
    /// # Panics
    /// Panics if a correct run left a catalog metric unmeasured or not
    /// finite (a bug in the benchmark).
    pub fn result_line(&self, catalog: &[(&'static str, &'static str)]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in catalog.iter().enumerate() {
            let v = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                _ if !self.correct() => 0.0,
                v => panic!("metric {name} was not measured or is not finite: {v:?}"),
            };
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }

    /// The environment stamp as one JSON object.
    pub fn env_line(&self) -> String {
        let fields: Vec<String> = self
            .env
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{\"env\": {{{}}}}}", fields.join(", "))
    }

    /// A human-readable table of `catalog`'s metrics, one per line.
    pub fn table(&self, catalog: &[(&'static str, &'static str)]) -> String {
        let mut out = String::new();
        for (name, unit) in catalog {
            if let Some(v) = self.values.get(name) {
                writeln!(out, "{name:<36} {v:>16.6} {unit}").expect("String write");
            }
        }
        out
    }
}

/// Linear-interpolation quantile (`q` in `[0, 1]`) of unsorted samples.
///
/// # Panics
/// Panics on an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of an empty sample");
    let mut xs = samples.to_vec();
    xs.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// Samples as a JSON array, for the environment stamp.
pub fn json_array(samples: &[f64]) -> String {
    let items: Vec<String> = samples.iter().map(|v| format!("{v:?}")).collect();
    format!("[{}]", items.join(", "))
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Fraction of the measured wall that the listed layer times do not
/// explain: `1 - sum(layers) / wall`.
pub fn unattributed_frac(layer_times: &[f64], wall: f64) -> f64 {
    1.0 - layer_times.iter().sum::<f64>() / wall
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn every_metric_name_and_unit_is_well_formed_and_unique() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for (name, unit) in &all {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(valid_unit(unit), "bad unit {unit} for {name}");
        }
        let mut names: Vec<_> = all.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names must be unique");
    }

    #[test]
    fn result_line_prints_every_metric_with_its_unit() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            r.set(name, 1.5 + i as f64);
        }
        let line = r.result_line(&END_TO_END);
        let doc = dpc_obs::json::parse(&line).expect("result line is JSON");
        assert_eq!(doc.get("correct").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(doc.get("attempted").and_then(|v| v.as_u64()), Some(3));
        assert_eq!(doc.get("failed").and_then(|v| v.as_u64()), Some(0));
        let metrics = doc.get("metrics").expect("metrics object");
        for (name, unit) in END_TO_END {
            let m = metrics.get(name).expect("metric present");
            assert_eq!(m.get("unit").and_then(|u| u.as_str()), Some(unit));
            assert!(m.get("value").and_then(|v| v.as_f64()).is_some());
        }
    }

    #[test]
    fn catalogs_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let doc = dpc_obs::json::parse(&doc).expect("BENCHMARK.json parses");
        for (key, catalog) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(|v| v.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = catalog
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key} in BENCHMARK.json");
        }
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn a_correct_run_must_measure_every_metric() {
        let r = Report {
            attempted: 1,
            ..Report::default()
        };
        r.result_line(&END_TO_END);
    }

    #[test]
    fn a_failed_run_still_prints_a_parseable_line() {
        let r = Report {
            attempted: 2,
            failed: 2,
            ..Report::default()
        };
        let doc = dpc_obs::json::parse(&r.result_line(&END_TO_END)).expect("JSON");
        assert_eq!(doc.get("correct").and_then(|v| v.as_bool()), Some(false));
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((quantile(&xs, 0.9) - 3.7).abs() < 1e-12);
    }

    #[test]
    fn reconciliation_is_the_unexplained_share_of_wall() {
        assert!((unattributed_frac(&[0.5, 0.25], 1.0) - 0.25).abs() < 1e-12);
        assert_eq!(unattributed_frac(&[2.0], 2.0), 0.0);
    }
}
