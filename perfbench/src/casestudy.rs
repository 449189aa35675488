//! `case_study` and `case_study_durable`: the paper's §5 workflow
//! (URL reader → C4.5 → analyser → visualiser) on a single-host
//! toolkit, with the data plane off as the paper passes data by value.
//!
//! Each enactment binds the URL reader to one of `POOL` distinct seeded
//! bootstrap resamples of breast-cancer. The pool is larger than the
//! Classifier service's model cache, and ops walk it in order, so every
//! `classifyInstance` misses the cache as it would for distinct user
//! data (the `classifyGraph` that follows on the same data hits it).
//!
//! `case_study` enacts with `Executor::serial()`; `case_study_durable`
//! enacts the same inputs through `Toolkit::run_durable` with a fresh
//! journal per enactment (see the journal-reuse defect in the README).

use crate::trace::{span, TimedService, TimedTool};
use crate::world::{derive, fnv1a, Outcome, Output, World};
use dm_algorithms::classifiers::{Classifier, J48};
use dm_data::arff::write_arff;
use dm_data::corpus::breast_cancer;
use dm_services::classifier_ws::ClassifierService;
use dm_services::convert_ws::UrlReaderService;
use dm_workflow::engine::{ExecutionReport, Executor};
use dm_workflow::graph::{TaskGraph, Token};
use dm_workflow::journal::RunJournal;
use dm_wsrf::dataplane::AttachmentStore;
use dm_wsrf::fleet::splitmix64;
use dm_wsrf::transport::Network;
use faehim::casestudy::{build_case_study, CaseStudyBindings, CaseStudyTasks};
use faehim::Toolkit;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Distinct resamples per seed: more than the model cache holds (32).
const POOL: usize = 48;
/// Inline limit of the journal, as `Toolkit::enable_durable_enactment`
/// sets it.
const JOURNAL_INLINE_LIMIT: usize = 1024;

/// The inputs of one seed and their reference outputs.
pub struct Inputs {
    /// `(url, arff)` per resample.
    resamples: Vec<(String, String)>,
    /// The tree a local J48 learns from each resample.
    trees: Vec<String>,
    /// Canonical report bytes of a serial enactment per resample, made
    /// on demand by a reference toolkit (the durable oracle).
    canonical: Mutex<HashMap<usize, Vec<u8>>>,
}

impl Inputs {
    pub fn generate(seed: u64) -> Arc<Inputs> {
        let base = breast_cancer();
        let rows = base.num_instances();
        let stream = derive(seed, 4);
        let mut resamples = Vec::with_capacity(POOL);
        let mut trees = Vec::with_capacity(POOL);
        for k in 0..POOL {
            let picks: Vec<usize> = (0..rows)
                .map(|r| (splitmix64(stream ^ (k * rows + r) as u64) as usize) % rows)
                .collect();
            let mut sample = base.select_rows(&picks);
            sample
                .set_class_by_name("Class")
                .expect("breast-cancer has a Class attribute");
            let mut model = J48::new();
            model.train(&sample).expect("J48 trains on a resample");
            trees.push(model.describe());
            resamples.push((
                format!("http://bench.invalid/breast-cancer/{seed:016x}/{k}.arff"),
                write_arff(&sample),
            ));
        }
        Arc::new(Inputs {
            resamples,
            trees,
            canonical: Mutex::new(HashMap::new()),
        })
    }

    fn url_reader(&self) -> Arc<UrlReaderService> {
        let reader = UrlReaderService::new();
        for (url, arff) in &self.resamples {
            reader.register(url.clone(), arff.clone());
        }
        Arc::new(reader)
    }

    /// Canonical bytes of `Executor::serial()` enacting resample `k` on
    /// a toolkit of its own.
    fn serial_canonical(&self, k: usize) -> Vec<u8> {
        let mut done = self.canonical.lock().expect("reference cache poisoned");
        done.entry(k)
            .or_insert_with(|| {
                let toolkit = Toolkit::new().expect("reference toolkit");
                let primary = toolkit.container(toolkit.primary_host()).expect("host");
                primary.deploy(self.url_reader());
                let (graph, tasks, mut bindings) =
                    build_case_study(&toolkit).expect("case-study graph");
                bindings.insert(
                    (tasks.read_url, 0),
                    Token::Text(self.resamples[k].0.clone()),
                );
                Executor::serial()
                    .run(&graph, &bindings)
                    .expect("reference enactment")
                    .canonical_bytes()
            })
            .clone()
    }
}

/// The same graph with every tool behind the timing decorator; task
/// ids, names and cables are unchanged.
fn timed_graph(graph: &TaskGraph, remote: &[String]) -> TaskGraph {
    let mut timed = TaskGraph::new();
    for node in graph.tasks() {
        let service = node.tool.name().split('.').next().unwrap_or_default();
        let is_remote = node.tool.name().contains('.') && remote.iter().any(|s| s == service);
        timed.add_named_task(
            node.name.clone(),
            TimedTool::wrap(Arc::clone(&node.tool), is_remote),
        );
    }
    for cable in graph.cables() {
        timed
            .connect(
                cable.from_task,
                cable.from_port,
                cable.to_task,
                cable.to_port,
            )
            .expect("cables of a valid graph reconnect");
    }
    timed
}

pub struct CaseStudy {
    toolkit: Toolkit,
    net: Arc<Network>,
    graph: TaskGraph,
    tasks: CaseStudyTasks,
    bindings: CaseStudyBindings,
    inputs: Arc<Inputs>,
    /// `Some` for the durable workload: the store its journals spill to.
    durable: Option<Arc<AttachmentStore>>,
    counts: HashMap<&'static str, u64>,
}

impl CaseStudy {
    /// Provision the toolkit. `durable_workers` selects the durable
    /// workload and its claim/ack worker count.
    pub fn provision(
        inputs: Arc<Inputs>,
        durable_workers: Option<usize>,
        traced: bool,
    ) -> CaseStudy {
        let mut toolkit = Toolkit::new().expect("toolkit provisions");
        let primary = toolkit.container(toolkit.primary_host()).expect("host");
        let reader: Arc<dyn dm_wsrf::container::WebService> = inputs.url_reader();
        let classifier: Arc<dyn dm_wsrf::container::WebService> =
            Arc::new(ClassifierService::new());
        for service in [reader, classifier] {
            primary.deploy(if traced {
                TimedService::wrap(service)
            } else {
                service
            });
        }
        let durable = durable_workers.map(|workers| {
            toolkit.enable_durable_enactment(workers);
            Arc::new(AttachmentStore::new(64 << 20))
        });
        let (graph, tasks, bindings) = build_case_study(&toolkit).expect("case-study graph");
        let graph = if traced {
            timed_graph(&graph, &primary.deployed())
        } else {
            graph
        };
        CaseStudy {
            net: toolkit.network(),
            toolkit,
            graph,
            tasks,
            bindings,
            inputs,
            durable,
            counts: HashMap::new(),
        }
    }

    fn enact(&mut self) -> Result<ExecutionReport, String> {
        match &self.durable {
            None => {
                let _span = span("engine.run");
                Executor::serial()
                    .run(&self.graph, &self.bindings)
                    .map_err(|e| e.to_string())
            }
            Some(store) => {
                let journal = Arc::new(RunJournal::with_store(
                    Arc::clone(store),
                    JOURNAL_INLINE_LIMIT,
                ));
                self.toolkit.adopt_journal(Arc::clone(&journal));
                let report = {
                    let _span = span("durable.run");
                    self.toolkit
                        .run_durable(&self.graph, &self.bindings)
                        .map_err(|e| e.to_string())
                };
                let stats = journal.stats();
                *self.counts.entry("journal.appends").or_default() += stats.appends;
                *self.counts.entry("journal.bytes").or_default() += stats.bytes;
                report
            }
        }
    }
}

impl World for CaseStudy {
    fn prepare(&mut self, i: u64) {
        let url = &self.inputs.resamples[i as usize % POOL].0;
        self.bindings
            .insert((self.tasks.read_url, 0), Token::Text(url.clone()));
    }

    fn run(&mut self, _i: u64) -> Outcome {
        let before = self.net.virtual_time();
        match self.enact() {
            Ok(report) if report.runs.iter().all(|r| r.error.is_none()) => {
                *self.counts.entry("engine.tasks").or_default() += report.runs.len() as u64;
                Outcome {
                    virt: Some(self.net.virtual_time() - before),
                    output: Some(Output::Report(Box::new(report))),
                    faulted: false,
                }
            }
            _ => Outcome::faulted(),
        }
    }

    fn check(&mut self, i: u64, output: &Output) -> (bool, u64) {
        let Output::Report(report) = output else {
            return (false, 0);
        };
        let k = i as usize % POOL;
        let tree = report
            .output(self.tasks.viewer, 0)
            .and_then(|t| t.as_text().ok())
            .unwrap_or_default();
        let canonical = report.canonical_bytes();
        let mut ok = tree == self.inputs.trees[k];
        if self.durable.is_some() {
            ok &= canonical == self.inputs.serial_canonical(k);
        }
        (ok, fnv1a(&canonical))
    }

    fn network(&self) -> &Network {
        &self.net
    }

    fn counts(&self) -> Vec<(&'static str, u64)> {
        self.counts.iter().map(|(&k, &v)| (k, v)).collect()
    }
}
