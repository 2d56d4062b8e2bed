//! The metric vocabulary of the benchmark, kept in one place so the printer,
//! the workloads and the test against `BENCHMARK.json` agree on every name.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use cbmf_trace::Json;

/// End-to-end metrics printed by every untraced run, with their units.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("cpu_ms_per_op", "ms"),
    ("sims", "count"),
];

/// Per-layer metrics printed by every traced run, with their units. A layer
/// the workload leaves idle reports 0.
pub const PER_LAYER: [(&str, &str); 59] = [
    ("model.error_pct", "%"),
    ("circuits.mc_s", "s"),
    ("circuits.sims", "count"),
    ("dataset.build_s", "s"),
    ("dataset.append_s", "s"),
    ("init_s", "s"),
    ("init.selection_runs", "count"),
    ("init.greedy_steps", "count"),
    ("init.append_block_steps", "count"),
    ("init.refactor_steps", "count"),
    ("init.gram_cache_hit_ratio", "ratio"),
    ("em_s", "s"),
    ("em.iterations", "count"),
    ("em.s_per_iter", "s"),
    ("posterior.moments_s", "s"),
    ("posterior.coeffs_s", "s"),
    ("fit.unattributed_s", "s"),
    ("stream.absorb_cold_s", "s"),
    ("stream.absorb_warm_s", "s"),
    ("stream.chunks", "count"),
    ("stream.resweeps", "count"),
    ("stream.warm_start_hits", "count"),
    ("stream.rule_stops", "count"),
    ("stream.unattributed_s", "s"),
    ("linalg.product_macs", "count"),
    ("linalg.product_bytes_computed", "bytes"),
    ("linalg.cholesky_factorizations", "count"),
    ("linalg.cholesky_rhs_solves", "count"),
    ("linalg.pack_bytes", "bytes"),
    ("linalg.workspace_reuses", "count"),
    ("parallel.fork_joins", "count"),
    ("parallel.chunks_spawned", "count"),
    ("parallel.inline_runs", "count"),
    ("parallel.scaling_2t", "ratio"),
    ("os.peak_rss_mb", "MB"),
    ("os.minor_faults", "count"),
    ("os.sys_frac", "ratio"),
    ("os.vol_ctx_switches", "count"),
    ("os.invol_ctx_switches", "count"),
    ("predictor.mean_us", "us"),
    ("predictor.var_us", "us"),
    ("batching.mean_fill_avg", "count"),
    ("batching.var_fill_avg", "count"),
    ("batching.tiles", "count"),
    ("batching.rejected", "count"),
    ("artifact.save_s", "s"),
    ("artifact.load_s", "s"),
    ("artifact.bytes", "bytes"),
    ("server.dispatch_p50_us", "us"),
    ("server.dispatch_p99_us", "us"),
    ("server.transport_p50_us", "us"),
    ("protocol.decode_us", "us"),
    ("loadgen.p99_ms", "ms"),
    ("loadgen.max_rps", "1/s"),
    ("loadgen.late_max_ms", "ms"),
    ("trace.traced_s", "s"),
    ("trace.untraced_s", "s"),
    ("trace.overhead_s", "s"),
    ("breakdown.covered_frac", "ratio"),
];

/// What one run measured: operation tallies, the output-check verdict and
/// the metric values by name.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every output check passed.
    pub correct: bool,
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn new() -> Self {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records a failed output check: the run is reported as incorrect and
    /// the reason goes to standard error.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            eprintln!("check failed: {what}");
            self.correct = false;
        }
    }

    /// The result line: every metric of `names` with its unit. A metric
    /// the workload did not fill is a bug in the benchmark.
    pub fn to_json(&self, names: &[(&str, &str)]) -> Json {
        let metrics = names.iter().map(|&(name, unit)| {
            let value = *self
                .values
                .get(name)
                .unwrap_or_else(|| panic!("workload did not report metric {name}"));
            (
                name.to_string(),
                Json::obj([
                    ("value".to_string(), Json::Num(value)),
                    ("unit".to_string(), Json::Str(unit.to_string())),
                ]),
            )
        });
        Json::obj([
            ("correct".to_string(), Json::Bool(self.correct)),
            ("attempted".to_string(), Json::Num(self.attempted as f64)),
            ("failed".to_string(), Json::Num(self.failed as f64)),
            ("metrics".to_string(), Json::obj(metrics)),
        ])
    }
}

/// Runs `op(0)`, `op(1)`, … in whole rounds of `per_round` operations, so
/// every run weighs each distinct input equally. A further round starts only
/// when, judged by the round before, it will end within `budget`. Returns
/// the seconds the rounds took.
pub fn whole_rounds(per_round: usize, budget: Duration, mut op: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    let mut i = 0;
    loop {
        let round = Instant::now();
        for _ in 0..per_round {
            op(i);
            i += 1;
        }
        if start.elapsed() + round.elapsed() > budget {
            return start.elapsed().as_secs_f64();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .unwrap_or_else(|| panic!("{key} entry without {f}"))
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn printed(names: &[(&str, &str)]) -> Vec<(String, String)> {
        names
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn printed_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let doc = Json::parse(&text).expect("BENCHMARK.json is JSON");
        assert_eq!(listed(&doc, "end_to_end"), printed(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), printed(&PER_LAYER));
    }

    #[test]
    fn result_line_carries_every_metric_with_its_unit() {
        let mut out = Outcome::new();
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            out.set(name, 1.5 + i as f64);
        }
        out.attempted = 3;
        out.check(false, "deliberately failed check");
        let line = Json::parse(&out.to_json(&END_TO_END).to_compact()).expect("valid JSON");
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(line.get("attempted").and_then(Json::as_u64), Some(3));
        let metrics = line.get("metrics").and_then(Json::as_obj).expect("metrics");
        assert_eq!(metrics.len(), END_TO_END.len());
        let setup = &metrics["setup_s"];
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(1.5));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    #[should_panic(expected = "did not report metric")]
    fn a_missing_metric_is_a_bug() {
        Outcome::new().to_json(&END_TO_END);
    }
}
