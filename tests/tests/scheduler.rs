//! Invariants of the engine's one frontier scheduler: the serial path
//! runs tasks in `TaskGraph::topological_order`, and every way of
//! enacting a workflow — `run` inline or on a pool, `run_durable` at
//! several pool widths — computes the same canonical report.

use dm_workflow::durable::DurableConfig;
use dm_workflow::engine::{ExecutionReport, Executor, ProgressEvent, ProgressListener};
use dm_workflow::graph::{PortSpec, TaskGraph, Token, Tool};
use dm_workflow::journal::RunJournal;
use faehim::casestudy::build_case_study;
use faehim::Toolkit;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

type Bindings = HashMap<(usize, usize), Token>;

/// Uppercases its text input.
struct Upper;

impl Tool for Upper {
    fn name(&self) -> &str {
        "Upper"
    }

    fn input_ports(&self) -> Vec<PortSpec> {
        vec![PortSpec::new("text", "string")]
    }

    fn output_ports(&self) -> Vec<PortSpec> {
        vec![PortSpec::new("upper", "string")]
    }

    fn execute(&self, inputs: &[Token]) -> Result<Vec<Token>, String> {
        match &inputs[0] {
            Token::Text(s) => Ok(vec![Token::Text(s.to_uppercase())]),
            other => Err(format!("expected text, got {other:?}")),
        }
    }
}

/// Concatenates its two text inputs.
struct Concat;

impl Tool for Concat {
    fn name(&self) -> &str {
        "Concat"
    }

    fn input_ports(&self) -> Vec<PortSpec> {
        vec![
            PortSpec::new("left", "string"),
            PortSpec::new("right", "string"),
        ]
    }

    fn output_ports(&self) -> Vec<PortSpec> {
        vec![PortSpec::new("joined", "string")]
    }

    fn execute(&self, inputs: &[Token]) -> Result<Vec<Token>, String> {
        match (&inputs[0], &inputs[1]) {
            (Token::Text(a), Token::Text(b)) => Ok(vec![Token::Text(format!("{a}{b}"))]),
            _ => Err("expected two texts".into()),
        }
    }
}

/// `src → (left, right) → join`, with `src` fed by a binding.
fn diamond() -> (TaskGraph, Bindings) {
    let mut g = TaskGraph::new();
    let src = g.add_named_task("src", Arc::new(Upper));
    let left = g.add_named_task("left", Arc::new(Upper));
    let right = g.add_named_task("right", Arc::new(Upper));
    let join = g.add_named_task("join", Arc::new(Concat));
    g.connect(src, 0, left, 0).unwrap();
    g.connect(src, 0, right, 0).unwrap();
    g.connect(left, 0, join, 0).unwrap();
    g.connect(right, 0, join, 1).unwrap();
    let bindings = HashMap::from([((src, 0), Token::Text("x".into()))]);
    (g, bindings)
}

/// One source fanned out to eight independent leaves.
fn fan_out() -> (TaskGraph, Bindings) {
    let mut g = TaskGraph::new();
    let src = g.add_named_task("src", Arc::new(Upper));
    for i in 0..8 {
        let leaf = g.add_named_task(format!("leaf-{i}"), Arc::new(Upper));
        g.connect(src, 0, leaf, 0).unwrap();
    }
    let bindings = HashMap::from([((src, 0), Token::Text("abc".into()))]);
    (g, bindings)
}

/// `run` at one worker and at a pool, then `run_durable` on a fresh
/// journal at pool widths 1, 2 and 4.
fn every_enactment(graph: &TaskGraph, bindings: &Bindings) -> Vec<(String, ExecutionReport)> {
    let mut reports = vec![
        (
            "run, 1 worker".to_string(),
            Executor::serial().run(graph, bindings).unwrap(),
        ),
        (
            "run, pool".to_string(),
            Executor::parallel().run(graph, bindings).unwrap(),
        ),
    ];
    for workers in [1, 2, 4] {
        let config = DurableConfig::new(Arc::new(RunJournal::new())).with_workers(workers);
        let report = Executor::serial()
            .run_durable(graph, bindings, &config)
            .unwrap();
        reports.push((format!("run_durable, {workers} workers"), report));
    }
    reports
}

fn assert_all_agree(what: &str, graph: &TaskGraph, bindings: &Bindings) {
    let reports = every_enactment(graph, bindings);
    let expected = reports[0].1.canonical_bytes();
    assert!(!reports[0].1.outputs.is_empty(), "{what}: no outputs");
    for (how, report) in &reports {
        assert_eq!(report.runs.len(), graph.num_tasks(), "{what}: {how}");
        assert_eq!(
            report.canonical_bytes(),
            expected,
            "{what}: {how} differs from the serial run"
        );
    }
}

#[test]
fn serial_started_events_follow_topological_order() {
    let tk = Toolkit::new().unwrap();
    let (graph, _tasks, bindings) = build_case_study(&tk).unwrap();
    let started = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&started);
    let listener: ProgressListener = Arc::new(move |event| {
        if let ProgressEvent::Started { task, .. } = event {
            sink.lock().unwrap().push(task);
        }
    });
    Executor::serial()
        .with_listener(listener)
        .run(&graph, &bindings)
        .unwrap();
    let expected: Vec<String> = graph
        .topological_order()
        .unwrap()
        .into_iter()
        .map(|t| graph.task(t).unwrap().name.clone())
        .collect();
    assert_eq!(*started.lock().unwrap(), expected);
}

#[test]
fn case_study_reports_agree_across_enactments() {
    let tk = Toolkit::new().unwrap();
    let (graph, _tasks, bindings) = build_case_study(&tk).unwrap();
    assert_all_agree("case study", &graph, &bindings);
}

#[test]
fn diamond_reports_agree_across_enactments() {
    let (graph, bindings) = diamond();
    assert_all_agree("diamond", &graph, &bindings);
}

#[test]
fn fan_out_reports_agree_across_enactments() {
    let (graph, bindings) = fan_out();
    assert_all_agree("8-way fan-out", &graph, &bindings);
}
