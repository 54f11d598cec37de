//! Smoke test of the benchmark itself: all four workloads at tiny sizes,
//! untraced and traced, plus the failed-operation accounting of the
//! in-process client and the agreement of `BENCHMARK.json` with the
//! metric catalogue.

use crowdfusion_core::session::EntitySpec;
use crowdfusion_service::protocol::{Request, Response, WireAnswer};
use crowdfusion_service::{ServeConfig, Service};
use perfbench::report::{MetricDef, END_TO_END, PER_LAYER};
use perfbench::served::InProcess;
use perfbench::{run, Options, Sizes, Workload};
use serde::Value;
use std::time::Duration;

fn smoke(workload: Workload, traced: bool) -> Value {
    let opts = Options {
        workload,
        seed: 5,
        window: Duration::ZERO,
        traced,
        sizes: Sizes::SMOKE,
    };
    let mut report = run(&opts);
    let metrics = report.finish(traced);
    assert!(
        report.correct(),
        "{} (traced: {traced}) failed its checks: {:?}",
        workload.name(),
        report.problems
    );
    assert!(
        report.attempted > 0,
        "{} attempted nothing",
        workload.name()
    );
    let line = report.json_line(&metrics);
    serde_json::from_str(&line).unwrap_or_else(|e| panic!("result line is not JSON ({e}): {line}"))
}

fn number(v: &Value) -> f64 {
    match v {
        Value::Int(i) => *i as f64,
        Value::UInt(u) => *u as f64,
        Value::Float(f) => *f,
        other => panic!("not a number: {other:?}"),
    }
}

fn assert_every_metric(result: &Value, catalogue: &[MetricDef], positive: bool, what: &str) {
    let metrics = result.get_field("metrics").expect("metrics object");
    let entries = metrics.as_map().expect("metrics is an object");
    assert_eq!(entries.len(), catalogue.len(), "{what}: metric count");
    for def in catalogue {
        let entry = metrics
            .get_field(def.name)
            .unwrap_or_else(|| panic!("{what}: metric {} missing", def.name));
        let value = number(entry.get_field("value").expect("value"));
        assert!(value.is_finite(), "{what}: {} = {value}", def.name);
        if positive {
            assert!(value > 0.0, "{what}: {} = {value}", def.name);
        }
        assert_eq!(
            entry.get_field("unit"),
            Some(&Value::Str(def.unit.to_string())),
            "{what}: unit of {}",
            def.name
        );
    }
    assert_eq!(result.get_field("correct"), Some(&Value::Bool(true)));
    assert_eq!(number(result.get_field("failed").expect("failed")), 0.0);
}

#[test]
fn every_workload_prints_every_metric_and_passes_its_checks() {
    for workload in Workload::ALL {
        let untraced = smoke(workload, false);
        assert_every_metric(&untraced, END_TO_END, true, workload.name());
        let traced = smoke(workload, true);
        assert_every_metric(&traced, PER_LAYER, false, workload.name());
    }
}

#[test]
fn unknown_task_absorb_is_a_failed_operation_not_a_crash() {
    for traced in [false, true] {
        let config = ServeConfig::new()
            .seed(3)
            .round(2, 4, 0.8)
            .threads(1)
            .build()
            .unwrap();
        let service = Service::new(config).unwrap();
        let mut conn = InProcess::new(&service, traced);
        let open = Request::Open {
            request: None,
            entities: vec![EntitySpec::simple("b", vec![0.6, 0.3], vec![true, false])],
            k: None,
            budget: None,
            pc: None,
        };
        assert!(matches!(conn.call(&open).unwrap(), Response::Opened { .. }));
        let select = Request::Select { session: 0 };
        assert!(matches!(
            conn.call(&select).unwrap(),
            Response::Round { .. }
        ));
        let bogus = Request::Absorb {
            session: 0,
            answers: vec![WireAnswer {
                task: 999_999,
                value: true,
            }],
        };
        assert!(matches!(conn.call(&bogus).unwrap(), Response::Error { .. }));
        // The session still serves its open round after the refusal.
        assert!(matches!(
            conn.call(&select).unwrap(),
            Response::Round { .. }
        ));
        assert_eq!((conn.attempted, conn.failed), (4, 1));
        assert_eq!(conn.lat.len(), 4);
    }
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = spec
            .get_field(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"));
        assert_eq!(listed.len(), catalogue.len(), "{key}: entry count");
        for (entry, def) in listed.iter().zip(catalogue) {
            assert_eq!(entry.get_field("name"), Some(&Value::Str(def.name.into())));
            assert_eq!(entry.get_field("unit"), Some(&Value::Str(def.unit.into())));
            let better = if def.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(
                entry.get_field("better"),
                Some(&Value::Str(better.into())),
                "{key}: direction of {}",
                def.name
            );
        }
    }
    let workloads = spec
        .get_field("workloads")
        .and_then(Value::as_array)
        .expect("workloads");
    let names: Vec<&Value> = workloads
        .iter()
        .filter_map(|w| w.get_field("name"))
        .collect();
    let expected: Vec<Value> = Workload::ALL
        .iter()
        .map(|w| Value::Str(w.name().to_string()))
        .collect();
    assert_eq!(names, expected.iter().collect::<Vec<_>>());
}
