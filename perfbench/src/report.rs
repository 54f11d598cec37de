//! The metric catalogue and the result line.
//!
//! Every run prints every metric of its mode — the end-to-end set when
//! untraced, the per-layer set when traced — on every workload, so the
//! catalogue below is the single list `BENCHMARK.json` mirrors (the smoke
//! test pins the two together).

use std::fmt::Write as _;

/// One catalogued metric: name, unit, and the end-to-end metric (on the
/// workload doing most of that layer's work) it should move.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Whether a larger value is better.
    pub higher_is_better: bool,
    /// Per-layer metrics: the end-to-end metric and workload it moves.
    pub moves: &'static str,
}

const fn m(name: &'static str, unit: &'static str, higher: bool, moves: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        moves,
    }
}

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", false, ""),
    m("run_s", "s", false, ""),
    m("lat.p50_us", "us", false, ""),
    m("lat.p99_us", "us", false, ""),
    m("quality.score", "ratio", true, ""),
    m("quality.entropy_removed", "ratio", true, ""),
    m("peak_rss_mb", "MiB", false, ""),
];

/// Per-layer metrics, printed by every traced run. A layer that the
/// workload's path does not cross, or that no public entry point reaches
/// separately on it, reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("lat.p999_us", "us", false, "reported only"),
    m("fusion.fuse_s", "s", false, "setup_s on refine-dense"),
    m("prior.build_s", "s", false, "setup_s on refine-dense"),
    m(
        "prior.support",
        "count",
        false,
        "setup_s, peak_rss_mb on query-sparse",
    ),
    m("select.busy_s", "s", false, "run_s on refine-dense"),
    m(
        "select.p50_us",
        "us",
        false,
        "run_s, lat.p50_us on refine-dense",
    ),
    m(
        "select.p99_us",
        "us",
        false,
        "run_s, lat.p99_us on refine-dense",
    ),
    m("select.calls", "count", false, "run_s on refine-dense"),
    m("query.select.busy_s", "s", false, "run_s on query-sparse"),
    m("query.select.p50_us", "us", false, "run_s on query-sparse"),
    m("query.select.p99_us", "us", false, "run_s on query-sparse"),
    m("query.plan.busy_s", "s", false, "run_s on query-sparse"),
    m("collect.busy_s", "s", false, "run_s on refine-dense"),
    m("update.busy_s", "s", false, "run_s on refine-dense"),
    m("update.p50_us", "us", false, "run_s on refine-dense"),
    m("update.p99_us", "us", false, "run_s on refine-dense"),
    m("pool.speedup", "ratio", true, "run_s on refine-dense"),
    m(
        "protocol.decode.p50_us",
        "us",
        false,
        "lat.p50_us on serve-sched",
    ),
    m(
        "protocol.encode.p50_us",
        "us",
        false,
        "lat.p50_us on serve-sched",
    ),
    m("protocol.busy_s", "s", false, "run_s on serve-sched"),
    m(
        "dispatch.open.p50_us",
        "us",
        false,
        "setup_s on serve-sched",
    ),
    m(
        "dispatch.open.p99_us",
        "us",
        false,
        "setup_s on serve-sched",
    ),
    m(
        "dispatch.open.calls",
        "count",
        false,
        "setup_s on serve-sched",
    ),
    m(
        "dispatch.select.p50_us",
        "us",
        false,
        "lat.p50_us on serve-durable",
    ),
    m(
        "dispatch.select.p99_us",
        "us",
        false,
        "lat.p99_us on serve-durable",
    ),
    m(
        "dispatch.select.calls",
        "count",
        false,
        "run_s on serve-durable",
    ),
    m(
        "dispatch.absorb.p50_us",
        "us",
        false,
        "lat.p50_us on serve-durable",
    ),
    m(
        "dispatch.absorb.p99_us",
        "us",
        false,
        "lat.p99_us on serve-durable",
    ),
    m(
        "dispatch.absorb.calls",
        "count",
        false,
        "run_s on serve-durable",
    ),
    m(
        "dispatch.schedule.p50_us",
        "us",
        false,
        "lat.p50_us on serve-sched",
    ),
    m(
        "dispatch.schedule.p99_us",
        "us",
        false,
        "lat.p99_us on serve-sched",
    ),
    m(
        "dispatch.schedule.calls",
        "count",
        false,
        "run_s on serve-sched",
    ),
    m(
        "dispatch.budget_status.p50_us",
        "us",
        false,
        "lat.p50_us on serve-sched",
    ),
    m(
        "dispatch.budget_status.p99_us",
        "us",
        false,
        "lat.p99_us on serve-sched",
    ),
    m(
        "dispatch.budget_status.calls",
        "count",
        false,
        "run_s on serve-sched",
    ),
    m(
        "dispatch.status.p50_us",
        "us",
        false,
        "lat.p50_us on serve-sched",
    ),
    m(
        "dispatch.status.p99_us",
        "us",
        false,
        "lat.p99_us on serve-sched",
    ),
    m(
        "dispatch.status.calls",
        "count",
        false,
        "run_s on serve-sched",
    ),
    m(
        "dispatch.metrics.p50_us",
        "us",
        false,
        "run_s on serve-sched",
    ),
    m(
        "dispatch.metrics.p99_us",
        "us",
        false,
        "run_s on serve-sched",
    ),
    m(
        "dispatch.metrics.calls",
        "count",
        false,
        "run_s on serve-sched",
    ),
    m("durable.stalls", "count", false, "run_s on serve-durable"),
    m(
        "durable.stall.p50_ms",
        "ms",
        false,
        "run_s on serve-durable",
    ),
    m(
        "durable.snapshot_bytes",
        "bytes",
        false,
        "run_s on serve-durable",
    ),
    m(
        "durable.recover_s",
        "s",
        false,
        "reported only (serve-durable)",
    ),
    m(
        "server.rtt.p50_us",
        "us",
        false,
        "reported only (serve-sched)",
    ),
    m(
        "server.rtt.p99_us",
        "us",
        false,
        "reported only (serve-sched)",
    ),
    m("trace.overhead_s", "s", false, "reported only"),
];

/// The outcome of one workload run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations issued (requests served, or selection rounds/queries
    /// run offline).
    pub attempted: u64,
    /// Operations that failed (`Response::Error` replies).
    pub failed: u64,
    /// Failed correctness checks; the run is correct when empty.
    pub problems: Vec<String>,
    /// Human-readable lines printed ahead of the result line.
    pub notes: Vec<String>,
    values: Vec<(String, f64)>,
}

impl Report {
    /// Sets a catalogued metric. Panics on a name missing from both
    /// catalogues — a harness bug, not a measurement.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "metric {name:?} is not catalogued"
        );
        match self.values.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name.to_string(), value)),
        }
    }

    /// The value recorded for `name`, if any.
    fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Records a failed correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Whether every correctness check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// The metrics of the requested mode, in catalogue order. End-to-end
    /// metrics must all have been set and be finite and positive; a
    /// per-layer metric never set reads 0 (its layer is not on this
    /// workload's path). Violations land in `problems`.
    pub fn finish(&mut self, traced: bool) -> Vec<(MetricDef, f64)> {
        if self.attempted == 0 {
            self.problems.push("no operation was attempted".to_string());
        }
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let mut out = Vec::with_capacity(catalogue.len());
        for def in catalogue {
            let value = match (self.get(def.name), traced) {
                (Some(v), _) => v,
                (None, true) => 0.0,
                (None, false) => {
                    self.problems
                        .push(format!("metric {} was not measured", def.name));
                    0.0
                }
            };
            if !value.is_finite() || (!traced && value <= 0.0) {
                self.problems
                    .push(format!("metric {} has invalid value {value}", def.name));
            }
            out.push((*def, if value.is_finite() { value } else { 0.0 }));
        }
        out
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json_line(&self, metrics: &[(MetricDef, f64)]) -> String {
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (def, value)) in metrics.iter().enumerate() {
            if i > 0 {
                line.push_str(", ");
            }
            let _ = write!(
                line,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name,
                json_number(*value),
                def.unit
            );
        }
        line.push_str("}}");
        line
    }
}

/// A finite f64 as a JSON number with every digit Rust's shortest
/// round-trip formatting gives.
fn json_number(v: f64) -> String {
    let text = format!("{v:?}");
    if text.contains("inf") || text.contains("NaN") {
        "0".to_string()
    } else {
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }

    #[test]
    fn json_line_shape() {
        let mut r = Report::default();
        for def in END_TO_END {
            r.set(def.name, 1.5);
        }
        r.attempted = 3;
        let metrics = r.finish(false);
        let line = r.json_line(&metrics);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(serde_json::from_str::<serde::Value>(&line).is_ok());
    }

    #[test]
    fn a_run_without_operations_is_a_problem() {
        let mut r = Report::default();
        for def in END_TO_END {
            r.set(def.name, 1.5);
        }
        let metrics = r.finish(false);
        assert!(!r.correct());
        assert!(r.json_line(&metrics).contains("\"attempted\": 0,"));
    }

    #[test]
    fn unmeasured_end_to_end_metric_is_a_problem() {
        let mut r = Report::default();
        r.finish(false);
        assert!(!r.correct());
    }
}
