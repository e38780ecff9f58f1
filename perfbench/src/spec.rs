//! The metric catalogue: every name the benchmark can emit, with its
//! unit and direction, and the one-line JSON result every run ends with.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalogued metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Dotted metric name.
    pub name: String,
    /// Unit label.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

fn def(name: impl Into<String>, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
    }
}

/// The end-to-end metrics of the result line of every untraced run.
/// `score_pairs_per_s`, `test_f1` and `fail_frac` are printed beside
/// them but kept out of the result line; see `perfbench/README.md`.
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::*;
    vec![
        def("setup_s", "s", Lower),
        def("train_s", "s", Lower),
        def("peak_heap_mb", "MiB", Lower),
        def("serve_p50_ms", "ms", Lower),
        def("serve_p99_ms", "ms", Lower),
        def("serve_max_rps", "req/s", Higher),
    ]
}

/// Profiled phases (`nn.<phase>.*`) and the span names folded into each.
pub const PHASES: [(&str, &[&str]); 3] = [
    ("pretrain", &[em_obs::names::SPAN_PRETRAIN]),
    (
        "finetune",
        &[
            em_obs::names::SPAN_GRID_TEMPLATE,
            em_obs::names::SPAN_TEACHER,
            em_obs::names::SPAN_STUDENT,
        ],
    ),
    (
        "infer",
        &[
            em_obs::names::SPAN_PSEUDO_SELECT,
            em_obs::names::SPAN_PSEUDO_SCORE,
            em_obs::names::SPAN_TUNE,
            em_obs::names::SPAN_PREDICT,
            em_obs::names::SPAN_SERVE,
        ],
    ),
];

/// The kernels reported per phase (names from `em_obs::names::ALL_OP_NAMES`).
pub const OPS: [&str; 7] = [
    em_obs::names::ALL_OP_NAMES[1],  // matmul
    em_obs::names::ALL_OP_NAMES[12], // gelu
    em_obs::names::ALL_OP_NAMES[16], // gather_rows
    em_obs::names::ALL_OP_NAMES[17], // dropout
    em_obs::names::ALL_OP_NAMES[14], // softmax_rows
    em_obs::names::ALL_OP_NAMES[15], // layer_norm
    em_obs::names::ALL_OP_NAMES[3],  // add_row_broadcast
];

/// The per-layer metrics, printed by every traced run.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::*;
    let mut out = vec![
        def("data.build_s", "s", Lower),
        def("lm.pretrain_steps_per_s", "1/s", Higher),
        def("core.pretrain_s", "s", Lower),
        def("core.encode_s", "s", Lower),
        def("core.tune_s", "s", Lower),
        def("core.match_batch_us_per_pair", "us", Lower),
        def("core.grid_template_s", "s", Lower),
        def("core.teacher_s", "s", Lower),
        def("core.student_s", "s", Lower),
        def("core.pseudo_score_s", "s", Lower),
        def("core.mc_passes", "count", Lower),
        def("core.mc_pass_ms", "ms", Lower),
        def("core.pseudo_selected_frac", "ratio", Higher),
        def("core.pruned_frac", "ratio", Lower),
        def("core.test_f1", "points", Higher),
    ];
    for (phase, _) in PHASES {
        for op in OPS {
            out.push(def(format!("nn.{phase}.{op}.fwd_ms"), "ms", Lower));
            // Inference runs no backward pass: its bwd_ms is 0 by
            // construction, so it is not reported.
            if phase != "infer" {
                out.push(def(format!("nn.{phase}.{op}.bwd_ms"), "ms", Lower));
            }
            out.push(def(format!("nn.{phase}.{op}.ns_per_elem"), "ns", Lower));
        }
        out.push(def(format!("nn.{phase}.alloc_mb"), "MiB", Lower));
        out.push(def(format!("nn.{phase}.op_calls"), "count", Lower));
    }
    out.extend([
        def("serve.server_p50_ms", "ms", Lower),
        def("serve.server_p99_ms", "ms", Lower),
        def("serve.wire_ms", "ms", Lower),
        def("serve.batch_pairs_mean", "pairs", Higher),
        def("serve.batch_ms", "ms", Lower),
        def("serve.queue_mean", "requests", Lower),
        def("serve.admitted", "count", Higher),
        def("serve.rejected", "count", Lower),
        def("serve.failed", "count", Lower),
        def("serve.restarts", "count", Lower),
        def("serve.gen_lag_ms", "ms", Lower),
        def("obs.trace_overhead_frac", "ratio", Lower),
        def("obs.events", "count", Lower),
    ]);
    out
}

/// Name grammar: starts with a letter or digit; at most 64 letters,
/// digits, `_`, `.` and `-`.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    name.len() <= 64
        && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Unit grammar: 1 to 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
#[cfg(test)]
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// A run's result line.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (training runs, scoring passes, requests,
    /// output checks).
    pub attempted: u64,
    /// Operations that failed, were refused, or failed a check.
    pub failed: u64,
    /// Human-readable reasons for each failure.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
    /// Values printed for people but kept out of the result line:
    /// name, value, unit.
    pub notes: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// Count one operation; `ok = false` records it as failed.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Count `n` operations of which `bad` failed.
    pub fn ops(&mut self, n: u64, bad: u64, what: impl FnOnce() -> String) {
        self.attempted += n;
        if bad > 0 {
            self.failed += bad;
            self.failures.push(what());
        }
    }

    /// Record a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// The JSON result line over `defs`, in catalogue order. A metric
    /// with no value, or a non-finite one, is an error.
    pub fn json(&self, defs: &[MetricDef]) -> Result<String, String> {
        let mut metrics = String::new();
        for (i, d) in defs.iter().enumerate() {
            let v = self
                .values
                .get(&d.name)
                .copied()
                .ok_or_else(|| format!("metric {} was not measured", d.name))?;
            if !v.is_finite() {
                return Err(format!("metric {} is not finite ({v})", d.name));
            }
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                d.name, d.unit
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let body = std::fs::read_to_string(path).unwrap();
        json::parse(&body).unwrap()
    }

    fn declared(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn emitted(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| (d.name.clone(), d.unit.to_string(), d.better.as_str().into()))
            .collect()
    }

    #[test]
    fn every_name_and_unit_follows_the_grammar() {
        let e2e = end_to_end();
        let layers = per_layer();
        let mut seen = std::collections::HashSet::new();
        for d in e2e.iter().chain(&layers) {
            assert!(valid_name(&d.name), "bad name {}", d.name);
            assert!(valid_unit(d.unit), "bad unit {} of {}", d.unit, d.name);
            assert!(seen.insert(d.name.clone()), "duplicate {}", d.name);
        }
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&layers.len()));
        assert!(!valid_name(".x") && !valid_name("a b") && !valid_name(&"a".repeat(65)));
        assert!(!valid_unit("") && !valid_unit("req per s"));
    }

    #[test]
    fn emitted_names_equal_benchmark_json() {
        let doc = benchmark_json();
        assert_eq!(declared(&doc, "end_to_end"), emitted(&end_to_end()));
        assert_eq!(declared(&doc, "per_layer"), emitted(&per_layer()));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        let ours: Vec<String> = crate::bench::Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn the_serve_latency_limit_is_the_one_benchmark_json_states() {
        let doc = benchmark_json();
        let serve_why = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some("serve"))
            .and_then(|w| w.get("why"))
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        let limit = format!("p99 <= {} ms", crate::bench::LATENCY_LIMIT_MS);
        assert!(serve_why.contains(&limit), "{serve_why:?} lacks {limit:?}");
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let defs = vec![def("a_s", "s", Better::Lower)];
        let mut out = Outcome::default();
        assert!(out.json(&defs).is_err(), "a missing metric must not print");
        out.set("a_s", 0.125);
        out.op(true, String::new);
        let line = out.json(&defs).unwrap();
        let doc = json::parse(&line).unwrap();
        let Json::Object(keys) = &doc else {
            panic!("{line}")
        };
        let names: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let m = doc.get("metrics").and_then(|m| m.get("a_s")).unwrap();
        assert_eq!(m.get("value"), Some(&Json::Number(0.125)));
        out.op(false, || "check".into());
        let doc = json::parse(&out.json(&defs).unwrap()).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("failed"), Some(&Json::Number(1.0)));
        out.set("a_s", f64::NAN);
        assert!(out.json(&defs).is_err());
    }
}
