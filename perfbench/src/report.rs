//! Metric names, units, and the result line.

/// End-to-end metrics (`--trace 0`): reported by every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("batch_ms_p10", "ms"),
    ("batch_ms_tail", "ms"),
    ("heap_peak_mib", "MiB"),
];

/// Per-layer metrics (`--trace 1`): reported by every workload; a layer
/// the workload does not run reports zero work.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("metric.ns_per_dist", "ns"),
    ("metric.kernel_share", "ratio"),
    ("search.us_per_query", "us"),
    ("search.dist_per_query", "count"),
    ("search.touched_frac", "ratio"),
    ("search.nodes_pruned_frac", "ratio"),
    ("search.leaf_filtered_frac", "ratio"),
    ("search.verify_yield", "ratio"),
    ("search.leaf_abandoned_frac", "ratio"),
    ("search.groups_formed", "count"),
    ("search.max_frontier", "count"),
    ("search.other_us_per_query", "us"),
    ("build.s", "s"),
    ("build.distances", "count"),
    ("update.apply_us_p50", "us"),
    ("update.apply_us_p90", "us"),
    ("update.rebuilds", "count"),
    ("update.rebuild_ms_p50", "ms"),
    ("update.cache_len_mean", "count"),
    ("shard.scatter_us_per_batch", "us"),
    ("shard.imbalance", "ratio"),
    ("service.query_ms_p50.low", "ms"),
    ("service.query_ms_p99.low", "ms"),
    ("service.query_ms_p50.high", "ms"),
    ("service.query_ms_p99.high", "ms"),
    ("service.update_ms_p50.high", "ms"),
    ("service.update_ms_p90.high", "ms"),
    ("service.max_rps", "1/s"),
    ("service.queue_wait_ms_p50", "ms"),
    ("service.queue_wait_ms_p99", "ms"),
    ("service.exec_ms_p50", "ms"),
    ("service.exec_ms_p99", "ms"),
    ("service.batch_size_mean", "count"),
    ("service.batches_per_kreq", "count"),
    ("service.deadline_flush_frac", "ratio"),
    ("service.queue_full", "count"),
    ("service.gen_late_ms_p99", "ms"),
    ("gpusim.cycles_per_query", "cycles"),
    ("gpusim.kernels_per_query", "count"),
    ("gpusim.peak_mb", "MB"),
    ("gpusim.h2d_bytes_per_query", "B"),
    ("gpusim.d2h_bytes_per_query", "B"),
    ("scan.us_per_query", "us"),
    ("scan.speedup", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Names: a letter or digit, then up to 63 of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Units: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The metrics of one run, in the order of their declaration.
#[derive(Default)]
pub struct Metrics {
    values: Vec<(&'static str, &'static str, f64)>,
}

impl Metrics {
    /// Record `name`, which must be declared in `END_TO_END` or `PER_LAYER`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("undeclared metric {name}"));
        assert!(
            valid_name(name) && valid_unit(unit),
            "malformed metric {name} [{unit}]"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        match self.values.iter_mut().find(|(n, _, _)| *n == name) {
            Some(slot) => slot.2 = value,
            None => self.values.push((name, unit, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _, _)| *n == name).map(|v| v.2)
    }

    /// Names of `declared` that were not recorded.
    pub fn missing(&self, declared: &[(&str, &str)]) -> Vec<String> {
        declared
            .iter()
            .filter(|(n, _)| self.get(n).is_none())
            .map(|(n, _)| n.to_string())
            .collect()
    }

    /// Human-readable lines, one per metric.
    pub fn lines(&self) -> Vec<String> {
        self.values
            .iter()
            .map(|(n, u, v)| format!("  {n:<30} {v:>16.6} {u}"))
            .collect()
    }

    /// The `metrics` object of the result line, restricted to `declared`.
    pub fn json(&self, declared: &[(&str, &str)]) -> String {
        let body: Vec<String> = declared
            .iter()
            .filter_map(|(n, _)| {
                self.values
                    .iter()
                    .find(|(m, _, _)| m == n)
                    .map(|(n, u, v)| {
                        format!(
                            "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                            json_num(*v)
                        )
                    })
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A finite f64 as JSON, with every digit Rust's shortest round-trip
/// formatting gives.
pub fn json_num(v: f64) -> String {
    // `{:?}` is the shortest round-trip form (`0.25`, `100.0`, `1e-7`),
    // all valid JSON numbers.
    format!("{v:?}")
}

/// The last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}")
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_declared_name_and_unit_is_valid_and_unique() {
        let all: Vec<&(&str, &str)> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (n, u) in &all {
            assert!(valid_name(n), "bad metric name {n}");
            assert!(valid_unit(u), "bad unit {u} of {n}");
        }
        for (i, (n, _)) in all.iter().enumerate() {
            assert!(all[i + 1..].iter().all(|(m, _)| m != n), "duplicate {n}");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn name_rule_rejects_bad_names() {
        assert!(valid_name("query_ms_p99.high"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name("_leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(valid_unit("1/s") && valid_unit("%") && !valid_unit("m s"));
    }

    #[test]
    fn benchmark_json_declares_exactly_the_runner_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        for (n, u) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{n}\", \"unit\": \"{u}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = text.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.25);
        m.set("qps", 1234.5);
        let line = result_line(true, 10, 0, &m.json(END_TO_END));
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"qps\": {\"value\": 1234.5, \"unit\": \"1/s\"}}}"
        );
        assert_eq!(m.missing(END_TO_END).len(), END_TO_END.len() - 2);
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
    }
}
