//! Self-tests of the benchmark at toy sizes: every workload passes its
//! correctness checks untraced and traced, the emitted metric names and
//! units are exactly the ones `BENCHMARK.json` declares, and the result
//! line is valid JSON.

use perf_ledger::solve::{SolveSpec, SolveWorkload};
use perf_ledger::{run, Outcome, Scale, END_TO_END, PER_LAYER, WORKLOADS};
use serde_json::Value;

fn field<'a>(v: &'a Value, name: &str) -> &'a Value {
    v.get_field(name).expect("field present")
}

fn str_of(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn items(v: &Value) -> &[Value] {
    match v {
        Value::Array(a) => a,
        other => panic!("expected an array, got {other:?}"),
    }
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    items(field(&benchmark_json(), list))
        .iter()
        .map(|m| {
            (
                str_of(field(m, "name")).into(),
                str_of(field(m, "unit")).into(),
            )
        })
        .collect()
}

fn emitted(out: &Outcome) -> Vec<(String, String)> {
    out.metrics
        .iter()
        .map(|(n, _, u)| (n.to_string(), u.to_string()))
        .collect()
}

fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn metric_tables_match_benchmark_json() {
    assert_eq!(declared("end_to_end"), owned(&END_TO_END));
    assert_eq!(declared("per_layer"), owned(&PER_LAYER));
    let bench = benchmark_json();
    let names: Vec<&str> = items(field(&bench, "workloads"))
        .iter()
        .map(|w| str_of(field(w, "name")))
        .collect();
    assert_eq!(names, WORKLOADS);
}

#[test]
fn every_workload_passes_untraced_at_toy_size() {
    for w in WORKLOADS {
        let out = run(w, 11, 0.01, false, Scale::Toy).unwrap();
        assert!(out.correct && out.failed == 0, "{w}: {out:?}");
        assert!(out.attempted >= 3, "{w}: {out:?}");
        assert_eq!(emitted(&out), owned(&END_TO_END), "{w}");
        for (name, value, _) in &out.metrics {
            assert!(*value != 0.0 && value.is_finite(), "{w}: {name} = {value}");
        }
        let line: Value = serde_json::from_str(&out.to_json()).expect("result line is JSON");
        assert_eq!(field(&line, "correct"), &Value::Bool(true));
    }
}

#[test]
fn every_traced_replay_reproduces_the_untraced_run_at_toy_size() {
    for w in WORKLOADS {
        let out = run(w, 11, 0.01, true, Scale::Toy).unwrap();
        assert!(out.correct && out.failed == 0, "{w}: {out:?}");
        assert_eq!(emitted(&out), owned(&PER_LAYER), "{w}");
        let get = |n: &str| out.metrics.iter().find(|m| m.0 == n).unwrap().1;
        assert!(get("trace.loop_s") > 0.0, "{w}");
        assert!(get("obs.trace_overhead") > 0.0, "{w}");
    }
}

#[test]
fn unknown_workload_is_an_error() {
    assert!(run("nope", 1, 0.01, false, Scale::Toy).is_err());
}

#[test]
fn solve_results_are_identical_across_worker_counts() {
    let prints: Vec<String> = [Some(1), Some(2), None]
        .into_iter()
        .map(|workers| {
            let spec = SolveSpec {
                workers,
                ..SolveSpec::packed(Scale::Toy)
            };
            let rep = SolveWorkload::new(spec, 5).rep().unwrap();
            format!("{} {:?}", rep.fingerprint, rep.haspl_gap.to_bits())
        })
        .collect();
    assert_eq!(prints[0], prints[1]);
    assert_eq!(prints[0], prints[2]);
}

#[test]
fn different_seeds_give_different_inputs() {
    let a = run("inject_open", 1, 0.01, false, Scale::Toy).unwrap();
    let b = run("inject_open", 2, 0.01, false, Scale::Toy).unwrap();
    let sim = |o: &Outcome| o.metrics.iter().find(|m| m.0 == "sim_time_us").unwrap().1;
    assert_ne!(sim(&a).to_bits(), sim(&b).to_bits());
}
