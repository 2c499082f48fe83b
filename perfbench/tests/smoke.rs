//! The benchmark's own tests: every workload runs and passes its output
//! checks at smoke-test size in both modes, every metric it prints is
//! declared with a well-formed name, the result line parses, the metric
//! tables agree with `BENCHMARK.json`, and a wrong pinned digest fails the
//! run.

use cellflow_telemetry::Json;
use perfbench::{run, Options, Outcome, Scale, Workload, END_TO_END, PER_LAYER};

fn tiny(workload: Workload, trace: bool, expect: Option<u64>) -> Options {
    Options {
        workload,
        seed: 3,
        seconds: 0.05,
        trace,
        scale: Scale::Tiny,
        expect,
    }
}

/// Parses `outcome`'s result line and checks its shape against `list`.
fn check_result(outcome: &Outcome, trace: bool, list: &[(&str, &str)]) -> Json {
    let line = outcome.result_json(trace).render();
    let json =
        Json::parse(&line).unwrap_or_else(|e| panic!("result line does not parse: {e}: {line}"));
    let keys: Vec<_> = match &json {
        Json::Obj(map) => map.keys().map(String::as_str).collect(),
        other => panic!("result is not an object: {other:?}"),
    };
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    let metrics = json.get("metrics").expect("metrics present");
    for &(name, unit) in list {
        let metric = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(
            metric.get("unit").and_then(Json::as_str),
            Some(unit),
            "{name}"
        );
        let value = metric.get("value").and_then(Json::as_f64);
        assert!(
            value.is_some_and(|v| v.is_finite() && v >= 0.0),
            "{name} = {value:?}"
        );
    }
    json
}

#[test]
fn every_workload_passes_its_checks_at_smoke_size() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let outcome = run(&tiny(workload, trace, None));
            let name = workload.name();
            assert!(
                outcome.correct(),
                "{name} trace={trace}: {:?}",
                outcome.errors
            );
            assert!(
                outcome.attempted > 0,
                "{name} trace={trace} attempted nothing"
            );
            // `run.py` merges processes over the untraced run's bests.
            let bests = outcome.metrics.bests.as_ref();
            assert_eq!(bests.is_some(), !trace, "{name} trace={trace}");
            assert!(
                bests.is_none_or(|b| !b.round_us.is_empty()
                    && !b.point_ms.is_empty()
                    && b.round_us.iter().chain(&b.point_ms).all(|v| v.is_finite())),
                "{name}: {bests:?}"
            );
            let list: &[_] = if trace { &PER_LAYER } else { &END_TO_END };
            let json = check_result(&outcome, trace, list);
            assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(json.get("failed").and_then(Json::as_u64), Some(0));
        }
    }
}

#[test]
fn a_wrong_pinned_digest_fails_the_run() {
    for workload in Workload::ALL {
        let right = run(&tiny(workload, false, None)).digest;
        let outcome = run(&tiny(workload, false, Some(right ^ 1)));
        assert!(
            !outcome.correct(),
            "{} accepted a wrong digest",
            workload.name()
        );
        assert_eq!(
            outcome.failed, outcome.attempted,
            "a failed check fails every round it covered"
        );
        let json = outcome.result_json(false);
        assert_eq!(json.get("correct"), Some(&Json::Bool(false)));
        let again = run(&tiny(workload, false, Some(right)));
        assert!(again.correct(), "{}: {:?}", workload.name(), again.errors);
    }
}

#[test]
fn metric_names_are_well_formed_and_unique() {
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .map(|(n, _)| *n)
        .collect();
    for name in &names {
        assert!(
            !name.is_empty()
                && name.len() <= 64
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad metric name {name:?}"
        );
    }
    let declared = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), declared, "a metric name is declared twice");
}

#[test]
fn benchmark_json_lists_the_declared_workloads_and_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    let pairs = |key: &str| -> Vec<(String, String)> {
        json.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("{key} is a list"))
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(pairs("end_to_end"), own(&END_TO_END));
    assert_eq!(pairs("per_layer"), own(&PER_LAYER));
    let workloads: Vec<String> = pairs("workloads").into_iter().map(|(n, _)| n).collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}
