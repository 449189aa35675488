//! `planned_chain`: the four-host fleet of the planner experiment.
//!
//! Each arrival is a normalise → rank → train → evaluate chain that
//! ships its own 16 KiB dataset to every step, planned by
//! `Planner::plan` over a fresh cost snapshot. Every host deploys all
//! four services behind the capacity model (2 workers × 2 ms, so one
//! host serves 1000 ops/s); arrivals are open-loop Pareto on the
//! virtual clock at 1.5× one host's capacity. The data
//! plane is on, so co-located steps pass the dataset as a handle.

use crate::trace::{span, TimedService};
use crate::world::{derive, fnv1a, pareto_interarrival, Outcome, Output, World};
use dm_algorithms::classifiers::{Classifier, J48};
use dm_algorithms::pool::parallel_map;
use dm_data::corpus::nominal_classification;
use dm_data::Dataset;
use dm_workflow::planner::{Goal, GoalStep, Planner};
use dm_wsrf::container::{CapacityConfig, ServiceFault, WebService};
use dm_wsrf::costmodel::CostModel;
use dm_wsrf::fleet::{splitmix64, GossipConfig, GossipRegistry};
use dm_wsrf::registry::ServiceEntry;
use dm_wsrf::soap::SoapValue;
use dm_wsrf::transport::{DataPlaneConfig, Network};
use dm_wsrf::wsdl::{Operation, Part, WsdlDocument};
use std::sync::Arc;
use std::time::Duration;

const HOSTS: [&str; 4] = ["dm-a", "dm-b", "dm-c", "dm-d"];
/// `(service, operation, category)` of the four chain steps.
const STEPS: [(&str, &str, &str); 4] = [
    ("Prep", "normalise", "data-handling"),
    ("Select", "rank", "feature-selection"),
    ("Mine", "train", "classifier"),
    ("Eval", "evaluate", "evaluation"),
];
const PAYLOAD_BYTES: usize = 16 * 1024;
/// 4 ops per chain every 2.67 ms = 1500 ops/s = 1.5× one host's
/// capacity. At 2× the planned fleet's backlog grows for as long as a
/// run lasts, so its sojourn percentiles would measure run length.
const MEAN_INTERARRIVAL: f64 = 8e-3 / 3.0;
/// Heartbeats keep every replica fresh well inside this horizon.
const FRESHNESS: Duration = Duration::from_secs(300);
/// Rows the Mine step scores per call through the compute pool.
const MINE_ROWS: usize = 64;

/// Steps 1–2: a digest of the dataset and the previous step's hint.
fn digest_step(tag: &str, dataset: &str, hint: &str) -> String {
    let digest = fnv1a(dataset.as_bytes()) ^ fnv1a(hint.as_bytes());
    format!("{tag}:{digest:016x}")
}

/// Step 3's per-row pick: which corpus row score `k` of chain hash `h`
/// reads.
fn mine_row(h: u64, k: usize, rows: usize) -> usize {
    (splitmix64(h ^ k as u64) as usize) % rows
}

/// Step 3: fold `MINE_ROWS` predicted labels into a model fingerprint.
fn mine_fold(h: u64, labels: &[usize]) -> String {
    let digest = labels.iter().enumerate().fold(h, |acc, (k, &l)| {
        splitmix64(acc ^ ((k as u64) << 32) ^ l as u64)
    });
    format!("model:{digest:016x}")
}

/// Step 4: the chain's final label.
fn eval_step(dataset: &str, hint: &str) -> i64 {
    (splitmix64(fnv1a(dataset.as_bytes()) ^ fnv1a(hint.as_bytes())) >> 1) as i64
}

fn text_arg<'a>(args: &'a [(String, SoapValue)], name: &str) -> Result<&'a str, ServiceFault> {
    args.iter()
        .find(|(n, _)| n == name)
        .and_then(|(_, v)| v.as_text().ok())
        .ok_or_else(|| ServiceFault::client(format!("missing {name}")))
}

/// One chain step as a Web Service.
struct StepService {
    service: &'static str,
    operation: &'static str,
    /// The Mine step's model and corpus (trained per host).
    model: Option<(J48, Dataset)>,
}

fn train_model() -> (J48, Dataset) {
    let data = nominal_classification(200, 4, 3, 2, 0.05, 11);
    let mut model = J48::new();
    model
        .train(&data)
        .expect("J48 trains on the synthetic corpus");
    (model, data)
}

impl WebService for StepService {
    fn name(&self) -> &str {
        self.service
    }

    fn wsdl(&self) -> WsdlDocument {
        WsdlDocument::new(self.service, format!("http://localhost/{}", self.service)).operation(
            Operation::new(
                self.operation,
                vec![Part::new("dataset", "string"), Part::new("hint", "string")],
                Part::new(
                    "result",
                    if self.service == "Eval" {
                        "long"
                    } else {
                        "string"
                    },
                ),
            ),
        )
    }

    fn invoke(
        &self,
        operation: &str,
        args: &[(String, SoapValue)],
    ) -> Result<SoapValue, ServiceFault> {
        if operation != self.operation {
            return Err(ServiceFault::client(format!("no operation {operation:?}")));
        }
        let dataset = text_arg(args, "dataset")?;
        let hint = text_arg(args, "hint")?;
        Ok(match self.service {
            "Prep" => SoapValue::Text(digest_step("norm", dataset, hint)),
            "Select" => SoapValue::Text(digest_step("rank", dataset, hint)),
            "Mine" => {
                let (model, data) = self.model.as_ref().expect("Mine holds a model");
                let h = fnv1a(dataset.as_bytes()) ^ fnv1a(hint.as_bytes());
                let rows = data.num_instances();
                let labels = parallel_map(MINE_ROWS, |k| {
                    model.predict(data, mine_row(h, k, rows)).unwrap_or(0)
                });
                SoapValue::Text(mine_fold(h, &labels))
            }
            _ => SoapValue::Int(eval_step(dataset, hint)),
        })
    }
}

/// A distinct ~16 KiB hex dataset per arrival, so only co-location
/// within a chain (never reuse across chains) lets the data plane
/// substitute a handle.
fn payload(seed: u64, i: u64) -> String {
    let words = PAYLOAD_BYTES / 16;
    let mut s = String::with_capacity(PAYLOAD_BYTES);
    for k in 0..words {
        let draw = splitmix64(seed ^ (i * words as u64 + k as u64));
        s.push_str(&format!("{draw:016x}"));
    }
    s
}

pub struct PlannedChain {
    net: Network,
    gossip: GossipRegistry,
    goal: Goal,
    arrival_seed: u64,
    payload_seed: u64,
    planner_seed: u64,
    /// The oracle's own model: the services' functions folded locally.
    reference: (J48, Dataset),
    /// Virtual arrival instant of the op being prepared.
    t: Duration,
    dataset: String,
    /// Payloads sent at or above the data plane's inline threshold.
    eligible: u64,
}

impl PlannedChain {
    pub fn provision(seed: u64, traced: bool) -> PlannedChain {
        let net = Network::new();
        for host in HOSTS {
            let container = net.add_host(host);
            for (service, operation, _) in STEPS {
                let step: Arc<dyn WebService> = Arc::new(StepService {
                    service,
                    operation,
                    model: (service == "Mine").then(train_model),
                });
                container.deploy(if traced {
                    TimedService::wrap(step)
                } else {
                    step
                });
            }
            container.set_capacity(Some(CapacityConfig {
                workers: 2,
                queue_limit: Some(8),
                service_time: Duration::from_millis(2),
            }));
        }
        net.enable_data_plane(DataPlaneConfig::default());
        let gossip = GossipRegistry::new(&HOSTS, GossipConfig::default());
        for host in HOSTS {
            let node = gossip.node(host).expect("mesh node");
            for (service, _, category) in STEPS {
                node.publish(
                    ServiceEntry {
                        name: service.to_string(),
                        host: host.to_string(),
                        wsdl_url: format!("http://{host}/axis/{service}?wsdl"),
                        categories: vec![category.to_string()],
                        description: String::new(),
                    },
                    Duration::ZERO,
                );
            }
        }
        gossip
            .sync(HOSTS.len() + 2)
            .expect("initial mesh converges");
        let goal = Goal {
            steps: STEPS
                .iter()
                .map(|&(_, operation, category)| GoalStep {
                    category: category.to_string(),
                    operation: operation.to_string(),
                    payload_bytes: PAYLOAD_BYTES,
                })
                .collect(),
        };
        PlannedChain {
            net,
            gossip,
            goal,
            arrival_seed: derive(seed, 1),
            payload_seed: derive(seed, 2),
            planner_seed: derive(seed, 3),
            reference: train_model(),
            t: Duration::ZERO,
            dataset: String::new(),
            eligible: 0,
        }
    }

    /// The cost snapshot the planner prices: queue depths, latency
    /// tails and shed rates, all on the virtual clock.
    fn snapshot(&self, now: Duration) -> CostModel {
        let _span = span("costmodel.snapshot");
        let mut cost = CostModel::new();
        {
            let _span = span("costmodel.observe_monitor");
            cost.observe_monitor(self.net.monitor());
        }
        cost.observe_loads(&self.net.load_snapshot());
        for host in HOSTS {
            let container = self.net.host(host).expect("deployed host");
            if let Some(stats) = container.load_stats(now) {
                cost.observe_load_stats(host, &stats);
            }
        }
        cost
    }

    fn place(&self, now: Duration) -> Vec<String> {
        let cost = self.snapshot(now);
        let view = {
            let _span = span("planner.candidates");
            self.gossip
                .node(HOSTS[0])
                .expect("observer")
                .view_snapshot()
        };
        let candidates = |step: &GoalStep| {
            let _span = span("planner.candidates");
            Planner::live_candidates(&view, &step.category, now, FRESHNESS)
        };
        let _span = span("planner.plan");
        let plan = Planner::seeded(self.planner_seed)
            .plan(&self.goal, &candidates, &cost, None)
            .expect("a healthy fleet always plans");
        plan.assignments.into_iter().map(|a| a.host).collect()
    }

    /// The chain's label folded locally from the four step functions.
    fn expected(&self, i: u64) -> i64 {
        let dataset = payload(self.payload_seed, i);
        let (model, data) = &self.reference;
        let h1 = digest_step("norm", &dataset, "");
        let h2 = digest_step("rank", &dataset, &h1);
        let h = fnv1a(dataset.as_bytes()) ^ fnv1a(h2.as_bytes());
        let labels: Vec<usize> = (0..MINE_ROWS)
            .map(|k| {
                model
                    .predict(data, mine_row(h, k, data.num_instances()))
                    .unwrap_or(0)
            })
            .collect();
        eval_step(&dataset, &mine_fold(h, &labels))
    }
}

impl World for PlannedChain {
    fn prepare(&mut self, i: u64) {
        self.t += pareto_interarrival(self.arrival_seed, i, MEAN_INTERARRIVAL, self.t, None);
        self.dataset = payload(self.payload_seed, i);
    }

    fn run(&mut self, i: u64) -> Outcome {
        let t = self.t;
        self.net.set_virtual_time(t);
        if i.is_multiple_of(32) {
            let _span = span("fleet.gossip");
            for host in HOSTS {
                let node = self.gossip.node(host).expect("mesh node");
                for (service, _, _) in STEPS {
                    node.heartbeat(service, host, t);
                }
            }
            self.gossip.run_round();
        }
        let hosts = self.place(t);
        let mut hint = SoapValue::Text(String::new());
        let inline_threshold = DataPlaneConfig::default().inline_threshold;
        for (host, (service, operation, _)) in hosts.iter().zip(STEPS) {
            self.eligible += u64::from(self.dataset.len() >= inline_threshold);
            let result = {
                let _span = span("transport.invoke");
                self.net.invoke(
                    host,
                    service,
                    operation,
                    vec![
                        ("dataset".into(), SoapValue::Text(self.dataset.clone())),
                        ("hint".into(), hint),
                    ],
                )
            };
            match result {
                Ok(v) => hint = v,
                Err(e) if e.is_server_busy() => return Outcome::shed(),
                Err(_) => return Outcome::faulted(),
            }
        }
        match hint.as_int() {
            Ok(label) => Outcome {
                virt: Some(self.net.virtual_time() - t),
                output: Some(Output::Label(label)),
                faulted: false,
            },
            Err(_) => Outcome::faulted(),
        }
    }

    fn check(&mut self, i: u64, output: &Output) -> (bool, u64) {
        match output {
            Output::Label(label) => (*label == self.expected(i), *label as u64),
            Output::Report(_) => (false, 0),
        }
    }

    fn network(&self) -> &Network {
        &self.net
    }

    fn counts(&self) -> Vec<(&'static str, u64)> {
        vec![("dataplane.eligible", self.eligible)]
    }
}
