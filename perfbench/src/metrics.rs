//! The metric table (names and units, as `BENCHMARK.json` lists them)
//! and the result line the benchmark ends with.

use std::collections::BTreeMap;

use acc_obs::json::Value;

/// End-to-end metrics, printed by the untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("sim_s", "s"),
    ("gpu_mem_peak_mb", "MB"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by the traced run (`--trace 1`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("minic.frontend_s", "s"),
    ("accc.translate_s", "s"),
    ("engine.cache_hit_rate", "ratio"),
    ("engine.pool_reuse_rate", "ratio"),
    ("accrt.launch_s", "s"),
    ("accrt.kernel_launches", "count"),
    ("accrt.host_ms_per_launch", "ms"),
    ("kernel_ir.ops", "count"),
    ("kernel_ir.ops_per_s", "1/s"),
    ("sanitize.overhead", "ratio"),
    ("sanitize.violations", "count"),
    ("comm.host_s", "s"),
    ("comm.sim_s", "s"),
    ("comm.p2p_mb", "MB"),
    ("comm.dirty_chunks", "count"),
    ("comm.collective_rounds", "count"),
    ("comm.miss_records", "count"),
    ("loader.sim_s", "s"),
    ("loader.h2d_mb", "MB"),
    ("loader.d2h_mb", "MB"),
    ("loader.reuse_ratio", "ratio"),
    ("loader.overlap_hidden_ms", "ms"),
    ("loader.overlap_saved_ms", "ms"),
    ("gpusim.kernel_sim_s", "s"),
    ("serve.exec_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.rejected", "count"),
    ("obs.events", "count"),
    ("obs.export_s", "s"),
    ("obs.trace_overhead", "ratio"),
    ("apps.gen_s", "s"),
    ("apps.oracle_s", "s"),
    ("failed_frac", "ratio"),
    ("accounting.uncovered_share", "ratio"),
    ("determinism.repeats", "count"),
];

/// A metric name is 1–64 of `[A-Za-z0-9_.-]`, starting with a letter or
/// digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit is 1–16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// What a run measured: the job tally, its metrics and free-form notes
/// printed above the result line.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Gate failures (oracle, determinism, accounting); empty when the
    /// run is correct.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The human-readable table followed by the one-line JSON result for
    /// the metrics of `table`. Every metric of the table must be set.
    pub fn render(&self, table: &[(&'static str, &'static str)]) -> String {
        let mut out = String::new();
        for note in &self.notes {
            out.push_str(&format!("# {note}\n"));
        }
        for p in &self.problems {
            out.push_str(&format!("# FAILED: {p}\n"));
        }
        let mut metrics = Vec::new();
        for &(name, unit) in table {
            debug_assert!(valid_name(name) && valid_unit(unit), "{name} [{unit}]");
            let value = *self
                .metrics
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            out.push_str(&format!("{name:<28} {value:>16.6} {unit}\n"));
            metrics.push((
                name,
                Value::obj([("value", Value::num(value)), ("unit", Value::str(unit))]),
            ));
        }
        let line = Value::obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::num(self.attempted as f64)),
            ("failed", Value::num(self.failed as f64)),
            (
                "metrics",
                Value::Obj(
                    metrics
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), v))
                        .collect(),
                ),
            ),
        ]);
        out.push_str(&line.to_string_compact());
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_and_unit_is_well_formed_and_unique() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (name, unit) in &all {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(valid_unit(unit), "bad unit {unit} of {name}");
        }
        let mut names: Vec<_> = all.iter().map(|(n, _)| *n).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names must be unique");
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".leading-dot"));
    }

    #[test]
    fn every_metric_prints_with_its_unit() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for (i, (name, _)) in PER_LAYER.iter().enumerate() {
            o.set(name, i as f64 + 0.5);
        }
        let text = o.render(PER_LAYER);
        let last = text.lines().last().unwrap();
        let v = acc_obs::json::parse(last).expect("result line is JSON");
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        for (name, unit) in PER_LAYER {
            let m = v.get("metrics").and_then(|m| m.get(name)).expect(name);
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(*unit));
            assert!(m.get("value").and_then(Value::as_f64).is_some());
            assert!(text
                .lines()
                .any(|l| l.starts_with(name) && l.ends_with(unit)));
        }
    }

    /// The table in code and `BENCHMARK.json` name the same metrics with
    /// the same units, in the same order.
    #[test]
    fn table_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = acc_obs::json::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Value::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Value::as_str).unwrap().to_string(),
                        m.get("unit").and_then(Value::as_str).unwrap().to_string(),
                    )
                })
                .collect();
            let code: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, code, "{key} differs from BENCHMARK.json");
        }
    }
}
