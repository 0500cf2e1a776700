//! The metric schema: every metric the benchmark prints, by name and
//! unit, and the checks a result must pass before it is printed.
//! `BENCHMARK.json` at the repository root lists the same metrics; the
//! test below keeps the two in step.

/// Bumped whenever a metric's name, unit or definition changes.
pub const SCHEMA_VERSION: u32 = 1;

/// Printed by untraced runs (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("read_cpu_us", "us"),
    ("write_cpu_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "fraction"),
];

/// Printed by traced runs (`--trace 1`). The wall-clock read and write
/// figures come first: on a shared two-vCPU virtual machine their
/// run-to-run spread is set by host scheduling, so they cannot carry a
/// regression bound.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("read_p50_ms", "ms"),
    ("read_p99_ms", "ms"),
    ("read_qps_max", "queries/s"),
    ("write_p50_ms", "ms"),
    ("write_p90_ms", "ms"),
    ("core.build.ordering_s", "s"),
    ("core.build.factorization_s", "s"),
    ("core.build.inversion_s", "s"),
    ("core.index.inverse_mb", "MB"),
    ("core.search.service_ms_p50", "ms"),
    ("core.search.service_ms_p99", "ms"),
    ("core.search.computed_per_q", "count"),
    ("core.search.useful_ratio", "ratio"),
    ("core.search.early_stop_share", "fraction"),
    ("graph.frontier.expanded_per_q", "count"),
    ("sparse.gather.nnz_per_q", "count"),
    ("sparse.gather.index_bytes_per_q", "bytes"),
    ("sparse.gather.value_bytes_per_q", "bytes"),
    ("sparse.gather.wide_row_share", "fraction"),
    ("core.refine.iters_per_q", "count"),
    ("core.refine.nnz_per_q", "count"),
    ("core.refine.failed_share", "fraction"),
    ("core.refine.unit_weight_failed_share", "fraction"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.mean_batch", "count"),
    ("serve.max_queue_depth", "count"),
    ("serve.shed", "count"),
    ("serve.pin_us_p99", "us"),
    ("serve.publish_ms_p50", "ms"),
    ("serve.freshness_lag_max", "count"),
    ("dynamic.attach_s", "s"),
    ("dynamic.graph_ms", "ms"),
    ("dynamic.factorization_ms", "ms"),
    ("dynamic.reach_ms", "ms"),
    ("dynamic.resolve_ms", "ms"),
    ("dynamic.splice_ms", "ms"),
    ("dynamic.estimator_ms", "ms"),
    ("dynamic.journal_ms", "ms"),
    ("dynamic.checkpoint_ms", "ms"),
    ("dynamic.checkpoints", "count"),
    ("dynamic.factor_cols_recomputed", "count"),
    ("dynamic.resolved_nnz", "count"),
    ("dynamic.changed_per_recomputed", "ratio"),
    ("driver.error_rate", "fraction"),
    ("driver.late_share", "fraction"),
    ("driver.late_ms_p99", "ms"),
    ("trace.overhead_pct", "%"),
];

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// Checks that `metrics` holds exactly the metrics of `spec`, in order,
/// with their units and finite values.
pub fn validate(spec: &[(&str, &str)], metrics: &[(&str, f64, &str)]) -> Result<(), String> {
    if metrics.len() != spec.len() {
        return Err(format!(
            "{} metrics, the schema has {}",
            metrics.len(),
            spec.len()
        ));
    }
    for (&(name, unit), &(got_name, value, got_unit)) in spec.iter().zip(metrics) {
        if !is_name(name) || !is_unit(unit) {
            return Err(format!(
                "schema entry {name} [{unit}] breaks the naming rules"
            ));
        }
        if (got_name, got_unit) != (name, unit) {
            return Err(format!(
                "expected {name} [{unit}], got {got_name} [{got_unit}]"
            ));
        }
        if !value.is_finite() {
            return Err(format!("{name} is {value}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    fn names_and_units(list: &Json) -> Vec<(String, String)> {
        list.as_array()
            .iter()
            .map(|m| {
                (
                    m.get("name").as_str().to_string(),
                    m.get("unit").as_str().to_string(),
                )
            })
            .collect()
    }

    fn owned(spec: &[(&str, &str)]) -> Vec<(String, String)> {
        spec.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(names_and_units(doc.get("end_to_end")), owned(END_TO_END));
        assert_eq!(names_and_units(doc.get("per_layer")), owned(PER_LAYER));
        for m in doc.get("end_to_end").as_array() {
            let bound = m.get("bound").as_f64();
            assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
            assert!(["lower", "higher"].contains(&m.get("better").as_str()));
        }
        let setup = &doc.get("end_to_end").as_array()[0];
        assert_eq!(setup.get("name").as_str(), "setup_s");
        assert_eq!(setup.get("better").as_str(), "lower");
        let bounds: Vec<f64> = doc
            .get("end_to_end")
            .as_array()
            .iter()
            .map(|m| m.get("bound").as_f64())
            .collect();
        assert!(
            bounds.iter().all(|&b| b <= bounds[0]),
            "setup_s carries the largest bound"
        );
        let workloads: Vec<(&str, &str)> = doc
            .get("workloads")
            .as_array()
            .iter()
            .map(|w| (w.get("name").as_str(), w.get("why").as_str()))
            .collect();
        let known: Vec<(&str, &str)> = crate::workload::ALL
            .iter()
            .map(|w| (w.name, w.why))
            .collect();
        assert_eq!(workloads, known);
    }

    #[test]
    fn every_schema_name_and_unit_follows_the_rules() {
        let all: Vec<(&str, &str)> = END_TO_END.iter().chain(PER_LAYER).copied().collect();
        for &(name, unit) in &all {
            assert!(is_name(name), "{name}");
            assert!(is_unit(unit), "{unit}");
        }
        let mut names: Vec<&str> = all.iter().map(|&(n, _)| n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "names are used once");
    }

    #[test]
    fn validate_rejects_missing_renamed_and_non_finite_metrics() {
        let spec = &[("a_ms", "ms"), ("b", "count")];
        assert!(validate(spec, &[("a_ms", 1.5, "ms"), ("b", 0.0, "count")]).is_ok());
        assert!(validate(spec, &[("a_ms", 1.5, "ms")]).is_err());
        assert!(validate(spec, &[("a_ms", 1.5, "s"), ("b", 0.0, "count")]).is_err());
        assert!(validate(spec, &[("b", 0.0, "count"), ("a_ms", 1.5, "ms")]).is_err());
        assert!(validate(spec, &[("a_ms", f64::NAN, "ms"), ("b", 0.0, "count")]).is_err());
        assert!(validate(&[("-bad", "ms")], &[("-bad", 1.0, "ms")]).is_err());
    }
}
