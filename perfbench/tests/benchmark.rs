//! The benchmark's own tests: metric names and units, the layer accounting,
//! wrapper transparency, and a reduced-size smoke run of every workload.

use std::path::PathBuf;

use bft_simulator::prelude::*;
use bft_simulator::sim_core::json::Json;
use perfbench::layers::SharedTally;
use perfbench::report::{result_line, valid_name, END_TO_END, PER_LAYER};
use perfbench::workloads::{build_run, measure, Options, RunShape, Size, Workload};

fn smoke(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        seed: 3,
        seconds: 0.2,
        trace,
        size: Size::Smoke,
        scratch: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
            "smoke-{}-{}",
            workload.name(),
            trace
        )),
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn str_field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("entry without string {key}"))
}

#[test]
fn metric_names_are_valid_and_unique() {
    let mut seen = std::collections::BTreeSet::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(name), "bad metric name {name}");
        assert!(seen.insert(*name), "metric {name} declared twice");
        assert!(
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {unit} of {name}"
        );
    }
    for w in Workload::ALL {
        assert!(valid_name(w.name()), "bad workload name {}", w.name());
    }
    assert!(!valid_name("has space"));
    assert!(!valid_name(".leading-dot"));
}

#[test]
fn benchmark_json_declares_the_same_metrics_and_workloads() {
    let json = benchmark_json();
    let list = |key: &str| -> Vec<(String, String)> {
        json.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
            .iter()
            .map(|e| {
                (
                    str_field(e, "name").to_string(),
                    str_field(e, "unit").to_string(),
                )
            })
            .collect()
    };
    let declared = |l: &[(&str, &str)]| -> Vec<(String, String)> {
        l.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(list("end_to_end"), declared(END_TO_END));
    assert_eq!(list("per_layer"), declared(PER_LAYER));
    let workloads: Vec<&str> = json
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| str_field(w, "name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

/// Every scheduler-independent field of a run result.
fn without_scheduler(r: &RunResult) -> RunResult {
    RunResult {
        scheduler: SchedulerStats::default(),
        ..r.clone()
    }
}

#[test]
fn wrapped_runs_match_unwrapped_runs_on_both_backends() {
    for workload in [Workload::PbftN1024, Workload::WanPartition] {
        let shape = RunShape::of(workload, Size::Smoke);
        let mut reference: Option<RunResult> = None;
        for scheduler in SchedulerKind::ALL {
            let plain = build_run(shape, 11, scheduler, shape.wan, None)
                .expect("valid shape")
                .run();
            let tally = SharedTally::new();
            let traced = build_run(shape, 11, scheduler, shape.wan, Some(&tally))
                .expect("valid shape")
                .run();
            assert!(plain.is_clean(), "{} not clean", workload.name());
            assert_eq!(plain, traced, "{} on {scheduler}", workload.name());
            let t = tally.snapshot();
            assert!(t.protocols.calls >= plain.events_processed);
            assert!(t.net.calls > 0 && t.attacks.calls > 0);
            let stripped = without_scheduler(&plain);
            match &reference {
                None => reference = Some(stripped),
                Some(r) => assert_eq!(r, &stripped, "{} across backends", workload.name()),
            }
        }
    }
}

/// Runs `opts` and checks its result line the way the benchmark's caller
/// reads it: the four keys, and every declared metric with its unit.
fn check_result_line(opts: &Options) -> Json {
    let measured = measure(opts).expect("smoke run succeeds");
    assert!(
        measured.correct(),
        "{:?}: {:#?}",
        opts.workload,
        measured.log
    );
    assert_eq!(measured.failed, 0);
    let declared = if opts.trace { PER_LAYER } else { END_TO_END };
    let metrics = measured.metrics.emit(declared);
    let line = result_line(
        measured.correct(),
        measured.attempted,
        measured.failed,
        &metrics,
    );
    let json = Json::parse(&line).expect("result line is JSON");
    let Json::Obj(pairs) = &json else {
        panic!("result line is not an object")
    };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert!(json.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
    let printed = json.get("metrics").expect("metrics");
    for (name, unit) in declared {
        let metric = printed
            .get(name)
            .unwrap_or_else(|| panic!("{name} not printed"));
        assert_eq!(metric.get("unit").and_then(Json::as_str), Some(*unit));
        let value = metric.get("value").and_then(Json::as_f64);
        assert!(value.is_some_and(f64::is_finite), "{name} = {value:?}");
    }
    printed.clone()
}

fn value(metrics: &Json, name: &str) -> f64 {
    metrics
        .get(name)
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{name} missing"))
}

#[test]
fn smoke_runs_print_every_end_to_end_metric() {
    for workload in Workload::ALL {
        let metrics = check_result_line(&smoke(workload, false));
        for (name, _) in END_TO_END {
            assert!(
                value(&metrics, name) > 0.0,
                "{}: {name} is 0",
                workload.name()
            );
        }
    }
}

#[test]
fn traced_smoke_runs_account_for_wall_time() {
    for workload in Workload::ALL {
        let metrics = check_result_line(&smoke(workload, true));
        let wall = value(&metrics, "trace.wall_s");
        assert!(wall > 0.0);
        let rows: &[&str] = if workload == Workload::Sweep {
            &[
                "simcheck.generate_s",
                "simcheck.run_unit_s",
                "campaign.fold_s",
                "campaign.save_s",
                "campaign.report_s",
            ]
        } else {
            &[
                "protocols.self_s",
                "net.self_s",
                "attacks.self_s",
                "obs.self_s",
                "engine.self_s",
            ]
        };
        let sum: f64 = rows.iter().map(|r| value(&metrics, r)).sum();
        assert!(
            (sum - wall).abs() <= 1e-9 * wall.max(1.0),
            "{}: rows sum to {sum}, wall {wall}",
            workload.name()
        );
        let residual = if workload == Workload::Sweep {
            "campaign.fold_s"
        } else {
            "engine.self_s"
        };
        assert!(
            value(&metrics, residual) >= 0.0,
            "{}: negative {residual}",
            workload.name()
        );
    }
}
