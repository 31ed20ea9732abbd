//! Every workload at 1/100 size, both modes: the names the program emits
//! are the names `BENCHMARK.json` declares, and every gate passes.

use pmnet_benchmark::bench::{run_traced, run_untraced, Options, Report};
use pmnet_benchmark::json::Json;
use pmnet_benchmark::rig::Workload;

fn declared(manifest: &Json, list: &str) -> Vec<String> {
    manifest
        .get(list)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

fn check(report: &Report, names: &[String]) {
    let w = report.workload.name();
    assert!(report.correct, "{w}: {:?}", report.complaints);
    assert_eq!(
        report.failed, 0,
        "{w}: workloads are chosen so that nothing fails"
    );
    assert!(report.attempted >= 1, "{w}");
    // The result line is the driver's contract: these four keys, every
    // declared metric with a finite value and its unit, nothing else.
    let line = Json::parse(&report.result_line()).expect("result line is JSON");
    let keys: Vec<&str> = line
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"], "{w}");
    let metrics = line
        .get("metrics")
        .and_then(Json::as_object)
        .expect("metrics");
    let emitted: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(emitted, names, "{w}");
    for (name, m) in metrics {
        let value = m.get("value").and_then(Json::as_f64);
        assert!(value.is_some_and(f64::is_finite), "{w}: {name}");
        assert!(
            m.get("unit").and_then(Json::as_str).is_some(),
            "{w}: {name}"
        );
    }
}

#[test]
fn smoke_run_emits_exactly_what_benchmark_json_declares() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let manifest = Json::parse(&text).expect("BENCHMARK.json is JSON");
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(declared(&manifest, "workloads"), workloads);
    let end_to_end = declared(&manifest, "end_to_end");
    let per_layer = declared(&manifest, "per_layer");

    let opt = Options {
        seed: 1,
        seconds: 0.0,
        shrink: 100,
    };
    for w in Workload::ALL {
        let untraced = run_untraced(w, opt);
        check(&untraced, &end_to_end);
        // End-to-end metrics are bounds on a ratio: none may read 0.
        for (name, value, _) in &untraced.metrics {
            assert!(*value > 0.0, "{}: {name} = {value}", w.name());
        }
        let traced = run_traced(w, opt);
        check(&traced, &per_layer);
        // The traced run looks into the first of the untraced run's worlds.
        assert_eq!(
            traced.sim_digests[0],
            untraced.sim_digests[0],
            "{}: tracing changed the simulated outcome",
            w.name()
        );
    }
}
