//! The metric catalog, the human-readable table and the final JSON line.

use std::collections::BTreeMap;

/// End-to-end metrics, measured with tracing off: (name, unit).
pub const END_TO_END: [(&str, &str); 8] = [
    ("ttft_p50_ms", "ms"),
    ("ttft_p90_ms", "ms"),
    ("itl_p50_ms", "ms"),
    ("itl_p99_ms", "ms"),
    ("tok_s", "rows/s"),
    ("edges_per_s", "edges/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, from the traced run: (name, unit). Each layer is
/// named after the module it lives in.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("serve.tick_us.p50", "us"),
    ("serve.tick_us.p99", "us"),
    ("serve.self_us.p50", "us"),
    ("serve.ticks", "count"),
    ("serve.launches", "count"),
    ("serve.rows", "count"),
    ("serve.rows_per_tick", "rows"),
    ("serve.launches_per_tick", "count"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.preemptions", "count"),
    ("serve.resumes", "count"),
    ("serve.inflight_mean", "seqs"),
    ("pages.kv_util", "ratio"),
    ("pages.used_peak", "pages"),
    ("pages.swap_peak_bytes", "bytes"),
    ("pages.swap_fallbacks", "count"),
    ("pages.commit_us", "us/tick"),
    ("mha.project_us", "us/tick"),
    ("mha.combine_us", "us/tick"),
    ("model.glue_us", "us/tick"),
    ("model.proj_share", "ratio"),
    ("engine.batch_us.p50", "us"),
    ("engine.rows_per_launch", "rows"),
    ("engine.run_s", "s"),
    ("engine.compile_s", "s"),
    ("kernel.edges", "count"),
    ("kernel.output_updates", "count"),
    ("kernel.edges_per_row", "ratio"),
    ("kernel.edge_rate", "Medges/s"),
    ("parallel.noop_launch_us", "us"),
    ("parallel.launch_share", "ratio"),
    ("parallel.scaling", "ratio"),
    ("parallel.steals_per_launch", "ratio"),
    ("parallel.parks_per_launch", "ratio"),
    ("masks.build_s", "s"),
    ("masks.nnz", "count"),
    ("trace.overhead", "ratio"),
];

/// Exact counters: they must repeat bit for bit across every replay and
/// every run of one commit with one seed.
pub const EXACT: [&str; 8] = [
    "serve.ticks",
    "serve.preemptions",
    "serve.resumes",
    "serve.launches",
    "serve.rows",
    "kernel.edges",
    "masks.nnz",
    "pages.swap_peak_bytes",
];

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Requests (longdoc: passes) attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    /// Anything that makes the run incorrect besides a failed request:
    /// a reconstruction mismatch, counter drift, a failed check.
    pub errors: Vec<String>,
    /// Metric values with a note (sample counts) for the table.
    pub metrics: BTreeMap<&'static str, (f64, String)>,
    /// Exact counters of this run.
    pub counters: BTreeMap<&'static str, u64>,
    /// The traced run's spans, written out when the run ends.
    pub trace: Option<crate::spans::Tracer>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        // `+ 0.0` turns an empty sum's -0 into 0.
        self.metrics.insert(name, (value + 0.0, note.into()));
    }

    pub fn count(&mut self, name: &'static str, value: u64) {
        self.counters.insert(name, value);
        self.set(name, value as f64, "exact");
    }

    /// Record `value` for counter `name`, or an error if an earlier replay
    /// of the same run recorded a different one.
    pub fn gate(&mut self, name: &'static str, value: u64) {
        match self.counters.get(name) {
            Some(&seen) if seen != value => self.errors.push(format!(
                "exact counter {name} drifted between replays: {seen} then {value}"
            )),
            Some(_) => {}
            None => self.count(name, value),
        }
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }
}

/// Print the table and, last, the JSON line for the chosen metric set.
pub fn print(workload: &str, traced: bool, out: &Outcome) {
    let catalog: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    println!(
        "{} metrics ({}):",
        if traced { "per-layer" } else { "end-to-end" },
        if traced { "traced run" } else { "tracing off" }
    );
    for (name, unit) in catalog {
        match out.metrics.get(name) {
            Some((v, note)) => println!("  {name:<28} {v:>18.6} {unit:<9} {workload:<11} {note}"),
            None => println!(
                "  {name:<28} {:>18} {unit:<9} {workload:<11} layer not used by this workload",
                0
            ),
        }
    }
    if !traced {
        let frac = if out.attempted == 0 {
            1.0
        } else {
            out.failed as f64 / out.attempted as f64
        };
        println!(
            "  {:<28} {frac:>18.6} {:<9} {workload:<11} {} of {} failed",
            "failed_frac", "ratio", out.failed, out.attempted
        );
    }
    if !out.counters.is_empty() {
        let list: Vec<String> = out
            .counters
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        println!("exact counters: {}", list.join(" "));
    }
    for e in &out.errors {
        println!("ERROR: {e}");
    }
    let metrics: Vec<String> = catalog
        .iter()
        .map(|(name, unit)| {
            let v = out.metrics.get(name).map_or(0.0, |m| m.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
}

/// Every digit of `v`; JSON has no NaN or infinity, so those print as 0
/// (a run that produces one has already recorded an error).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in BENCHMARK.json must agree.
    #[test]
    fn catalog_matches_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = spec.matches("\"name\":").count();
        let workloads = spec.matches("\"why\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len() + workloads);
        for exact in EXACT {
            assert!(PER_LAYER.iter().any(|(n, _)| *n == exact));
        }
    }
}
