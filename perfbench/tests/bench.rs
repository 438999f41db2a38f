//! The benchmark's own correctness, at test-suite sizes: every workload
//! validates and emits every metric `BENCHMARK.json` names, the trace
//! parses and nests, and tracing does not move a modeled number.

use std::collections::BTreeMap;

use perfbench::json::{self, Value};
use perfbench::run::run_cell;
use perfbench::trace::TraceSink;
use perfbench::workload::{setup, Sizes, Workload};
use perfbench::{median, percentile_us, run, Options, Outcome};
use tm_fast::Transport;

fn small(w: Workload, trace: bool) -> Options {
    Options {
        sizes: Sizes::small(),
        ..Options::new(w, 7, 0.0, trace)
    }
}

/// Metric names `BENCHMARK.json` lists under `key`.
fn declared(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    match doc.get(key) {
        Some(Value::Arr(a)) => a
            .iter()
            .map(|m| m.get("name").and_then(Value::str).unwrap().to_string())
            .collect(),
        _ => panic!("BENCHMARK.json has no {key} list"),
    }
}

fn legal_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn legal_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// The result line parses, agrees with the outcome, and carries exactly
/// the `want` metrics, each with a legal name and unit.
fn check_result_line(out: &Outcome, want: &[String]) {
    let line = json::parse(&out.result_line()).expect("result line is JSON");
    assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(line.get("failed").and_then(Value::num), Some(0.0));
    assert!(line.get("attempted").and_then(Value::num).unwrap() >= 1.0);
    let Some(Value::Obj(metrics)) = line.get("metrics") else {
        panic!("no metrics object");
    };
    let got: Vec<&String> = metrics.keys().collect();
    let mut want_sorted: Vec<&String> = want.iter().collect();
    want_sorted.sort();
    assert_eq!(got, want_sorted, "metric set differs from BENCHMARK.json");
    for (name, m) in metrics {
        assert!(legal_name(name), "illegal metric name {name}");
        let unit = m.get("unit").and_then(Value::str).unwrap();
        assert!(legal_unit(unit), "{name}: illegal unit {unit:?}");
        assert!(
            m.get("value").and_then(Value::num).unwrap().is_finite(),
            "{name}"
        );
    }
}

#[test]
fn every_workload_validates_and_emits_every_declared_metric() {
    let e2e = declared("end_to_end");
    let layer = declared("per_layer");
    for w in Workload::ALL {
        let out = run(&small(w, false));
        assert!(
            out.correct(),
            "{}: {} of {} failed",
            w.name(),
            out.failed,
            out.attempted
        );
        check_result_line(&out, &e2e);
        for m in [
            "modeled_fast_ms",
            "modeled_udp_ms",
            "wall_s",
            "setup_s",
            "peak_rss_mb",
        ] {
            assert!(
                out.get(m).unwrap() > 0.0,
                "{}: {m} must never be 0",
                w.name()
            );
        }

        let out = run(&small(w, true));
        assert!(out.correct(), "{} traced", w.name());
        check_result_line(&out, &layer);
        assert_eq!(out.get("error_rate"), Some(0.0));
    }
}

#[test]
fn lossy_workload_loses_and_recovers_datagrams() {
    let out = run(&small(Workload::Lossy8, true));
    assert!(out.correct());
    assert!(out.get("substrate.udp.dgrams_dropped").unwrap() > 0.0);
    assert!(out.get("tmk.rpc.retransmits").unwrap() > 0.0);
    let clean = run(&small(Workload::Sync8, true));
    assert_eq!(
        clean.get("tmk.rpc.retransmits"),
        Some(0.0),
        "no loss, no retransmits"
    );
}

/// Every `Tmk` call span has a node-body parent and lies inside it on both
/// clocks; every node body has a cell parent.
#[test]
fn trace_parses_and_calls_nest_in_node_bodies() {
    for w in [Workload::Apps16, Workload::Sync8] {
        let out = run(&small(w, true));
        let doc = json::parse(out.trace_json.as_deref().unwrap()).expect("trace is JSON");
        let Some(Value::Arr(events)) = doc.get("traceEvents") else {
            panic!("no traceEvents");
        };
        let spans: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::str) == Some("X"))
            .collect();
        let by_id: BTreeMap<u64, &Value> =
            spans.iter().map(|e| (arg(e, "id") as u64, *e)).collect();
        assert_eq!(by_id.len(), spans.len(), "span ids are unique");
        let mut calls = 0;
        let mut bodies = 0;
        for e in &spans {
            let name = e.get("name").and_then(Value::str).unwrap();
            let parent = e
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(Value::num);
            let parent = parent.map(|p| by_id[&(p as u64)]);
            if name.starts_with("Tmk::") || name == "AppSpec::body" {
                calls += 1;
                let p = parent.expect("call span has a parent");
                assert_eq!(p.get("name").and_then(Value::str), Some("node body"));
                assert_eq!(p.get("pid"), e.get("pid"), "same node");
                assert!(arg(p, "v_begin_ns") <= arg(e, "v_begin_ns"));
                assert!(arg(e, "v_end_ns") <= arg(p, "v_end_ns"));
                let (ts, dur) = (num(e, "ts"), num(e, "dur"));
                assert!(num(p, "ts") <= ts + 1e-3);
                assert!(ts + dur <= num(p, "ts") + num(p, "dur") + 1e-3);
            } else if name == "node body" {
                bodies += 1;
                let p = parent.expect("node body has a cell parent");
                assert!(p
                    .get("name")
                    .and_then(Value::str)
                    .unwrap()
                    .starts_with("tm_fast::run_"));
            }
        }
        assert!(
            bodies > 0 && calls >= bodies,
            "{}: {bodies} bodies, {calls} calls",
            w.name()
        );
    }
}

fn num(e: &Value, k: &str) -> f64 {
    e.get(k).and_then(Value::num).unwrap()
}

fn arg(e: &Value, k: &str) -> f64 {
    e.get("args")
        .and_then(|a| a.get(k))
        .and_then(Value::num)
        .unwrap()
}

/// Tracing reads clocks and tallies events but charges no virtual time.
/// UDP cells repeat exactly, and the tracing code does not know the
/// transport, so UDP is the strict check. FAST cells only agree within the
/// lockstep determinism hole: two untraced runs of the 4-node mix cell
/// differ by up to 1.1% (4.343 ms against 4.391 ms), so FAST gets 3%.
#[test]
fn tracing_leaves_modeled_time_unchanged() {
    let sizes = Sizes::small();
    for w in Workload::ALL {
        let su = setup(w, 3, &sizes, None);
        let sink = TraceSink::new();
        for (i, c) in su.cells.iter().enumerate() {
            let plain = run_cell(c, i, None);
            let traced = run_cell(c, i, Some(&sink));
            assert_eq!(plain.failed + traced.failed, 0, "{}", c.label);
            let (a, b) = (plain.modeled_ns as f64, traced.modeled_ns as f64);
            match c.transport {
                Transport::Udp => assert_eq!(a, b, "{}", c.label),
                Transport::Fast => assert!((a - b).abs() <= 3e-2 * a, "{}: {a} vs {b}", c.label),
            }
        }
    }
}

#[test]
fn inputs_depend_only_on_the_seed() {
    let sizes = Sizes::small();
    let labels = |seed| {
        setup(Workload::Apps16, seed, &sizes, None)
            .cells
            .iter()
            .map(|c| c.label.clone())
            .collect::<Vec<_>>()
    };
    assert_eq!(labels(5), labels(5));
    let a = perfbench::workload::MixPlan::new(9, 4, 10, 3);
    let b = perfbench::workload::MixPlan::new(9, 4, 10, 3);
    for r in 0..10 {
        for n in 0..4 {
            assert_eq!(a.lock(n, r), b.lock(n, r));
            assert_eq!(a.value(n, r), b.value(n, r));
            assert_ne!(a.neighbour(n, r), n);
        }
    }
    assert_eq!(a.totals.iter().sum::<u32>(), 40);
}

#[test]
fn order_statistics() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    let v: Vec<u64> = (1..=100).map(|i| i * 1000).collect();
    assert_eq!(percentile_us(&v, 0.5), 50.0);
    assert_eq!(percentile_us(&v, 0.99), 99.0);
    assert_eq!(percentile_us(&[], 0.5), 0.0);
}
