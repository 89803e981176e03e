//! Self-tests of the benchmark harness, on tiny inputs.

use sllt_obs::json::{parse, Value};
use sllt_perfbench::{flows, nets, run, Metric, Options, Tally, Workload, END_TO_END, PER_LAYER};
use sllt_tree::{ClockTree, NodeKind};

fn tiny(trace: bool) -> Options {
    Options {
        seed: Some(7),
        seconds: 0.0,
        trace,
        tiny: true,
    }
}

/// `BENCHMARK.json` at the repository root.
fn registered() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json readable"))
        .expect("BENCHMARK.json parses")
}

fn names_and_units(v: &Value, key: &str) -> Vec<(String, String, String)> {
    v.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (s("name"), s("unit"), s("better"))
        })
        .collect()
}

fn table(metrics: &[Metric]) -> Vec<(String, String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into()))
        .collect()
}

#[test]
fn metric_tables_match_benchmark_json() {
    let reg = registered();
    assert_eq!(names_and_units(&reg, "end_to_end"), table(&END_TO_END));
    assert_eq!(names_and_units(&reg, "per_layer"), table(&PER_LAYER));
    let workloads: Vec<&str> = reg
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn tiny_runs_emit_every_metric_with_its_unit() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let out = run(workload, &tiny(trace));
            assert!(
                out.tally.correct(),
                "{} trace={trace}: {:?}",
                workload.name(),
                out.tally.errors
            );
            let want: &[Metric] = if trace { &PER_LAYER } else { &END_TO_END };
            let line = parse(&out.json_line()).expect("result line is JSON");
            let metrics = line.get("metrics").expect("metrics");
            for m in want {
                let got = metrics
                    .get(m.name)
                    .unwrap_or_else(|| panic!("{} missing {}", workload.name(), m.name));
                assert_eq!(got.get("unit").and_then(Value::as_str), Some(m.unit));
                let v = got.get("value").and_then(Value::as_f64).expect("numeric");
                assert!(v.is_finite() && v >= 0.0, "{} = {v}", m.name);
            }
            assert_eq!(
                line.get("attempted").and_then(Value::as_u64),
                Some(out.tally.attempted)
            );
            assert_eq!(line.get("failed").and_then(Value::as_u64), Some(0));
        }
    }
}

/// Turns one sink into a Steiner point, as if the router had dropped it.
fn drop_a_sink(tree: &mut ClockTree) {
    let sink = tree.sinks()[0];
    tree.set_kind(sink, NodeKind::Steiner);
}

#[test]
fn a_flow_tree_missing_a_sink_is_a_failed_operation() {
    let design = flows::designs(Workload::PaperSuite, true).remove(0);
    let cts = flows::engine(7, flows::WORKERS);
    let mut tree = cts.run(&design).expect("tiny design routes");
    let report = sllt_cts::eval::evaluate(&tree, &cts.tech, &cts.lib);
    let mut expected = None;
    let mut tally = Tally::default();
    tally.record(flows::check_build(
        &design,
        &tree,
        &report,
        None,
        &mut expected,
    ));
    drop_a_sink(&mut tree);
    tally.record(flows::check_build(
        &design,
        &tree,
        &report,
        None,
        &mut expected,
    ));
    assert_eq!((tally.attempted, tally.failed), (2, 1));
    assert!(
        tally.errors[0].contains("not reached"),
        "{:?}",
        tally.errors
    );
    assert!(!tally.correct());
}

#[test]
fn a_net_tree_missing_a_sink_is_a_failed_operation() {
    let net = sllt_design::NetGenerator::paper().net(0);
    let tech = sllt_timing::Technology::n28();
    let cfg = sllt_core::cbs::CbsConfig {
        skew_bound: nets::SKEW_LEVELS_PS[0],
        model: sllt_route::DelayModel::Elmore(tech),
        ..Default::default()
    };
    let mut tree = sllt_core::cbs::cbs(&net, &cfg);
    let timed = nets::elmore(&tree, &tech);
    let mut expected = None;
    let mut tally = Tally::default();
    tally.record(nets::check_net(0, &net, &tree, timed, &tech, &mut expected));
    drop_a_sink(&mut tree);
    tally.record(nets::check_net(0, &net, &tree, timed, &tech, &mut expected));
    assert_eq!((tally.attempted, tally.failed), (2, 1));
    assert!(!tally.correct());
}
