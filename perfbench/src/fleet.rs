//! `fleet_p2c`: the static two-replica fleet of the fleet experiment.
//!
//! A J48 `Mine` service is replicated on two hosts, each with the
//! capacity model (2 workers × 2 ms, 1000 req/s per replica). Requests
//! are ~250 B envelopes routed power-of-two-choices over the gossiped
//! view; arrivals are open-loop Pareto with a ±40% diurnal ramp at
//! 2000 req/s, the fleet's capacity, so the peaks are shed.

use crate::trace::{span, TimedService};
use crate::world::{derive, pareto_interarrival, Outcome, Output, World};
use dm_algorithms::classifiers::{Classifier, J48};
use dm_data::corpus::nominal_classification;
use dm_data::Dataset;
use dm_wsrf::container::{CapacityConfig, ServiceFault, WebService};
use dm_wsrf::fleet::{splitmix64, Fleet, FleetConfig};
use dm_wsrf::soap::SoapValue;
use dm_wsrf::transport::Network;
use dm_wsrf::wsdl::{Operation, Part, WsdlDocument};
use std::sync::Arc;
use std::time::Duration;

const REPLICAS: usize = 2;
/// λ = 2000 req/s = the two replicas' combined capacity.
const MEAN_INTERARRIVAL: f64 = 500e-6;
/// One virtual "day" of the diurnal ramp.
const DAY: f64 = 2.0;
const CORPUS_ROWS: usize = 200;

fn corpus() -> Dataset {
    nominal_classification(CORPUS_ROWS, 4, 3, 2, 0.05, 11)
}

fn trained(data: &Dataset) -> J48 {
    let mut model = J48::new();
    model
        .train(data)
        .expect("J48 trains on the synthetic corpus");
    model
}

/// The replicated mining service: each replica trains its own J48 on
/// the same corpus and answers `classify(row)` with the class code.
struct MineService {
    model: J48,
    data: Dataset,
}

impl WebService for MineService {
    fn name(&self) -> &str {
        "Mine"
    }

    fn wsdl(&self) -> WsdlDocument {
        WsdlDocument::new("Mine", "http://localhost/Mine").operation(Operation::new(
            "classify",
            vec![Part::new("row", "long")],
            Part::new("label", "long"),
        ))
    }

    fn invoke(
        &self,
        operation: &str,
        args: &[(String, SoapValue)],
    ) -> Result<SoapValue, ServiceFault> {
        if operation != "classify" {
            return Err(ServiceFault::client(format!("no operation {operation:?}")));
        }
        let row = args
            .iter()
            .find(|(n, _)| n == "row")
            .and_then(|(_, v)| v.as_int().ok())
            .ok_or_else(|| ServiceFault::client("missing row"))?;
        let label = self
            .model
            .predict(&self.data, row as usize % self.data.num_instances())
            .map_err(|e| ServiceFault::server(e.to_string()))?;
        Ok(SoapValue::Int(label as i64))
    }
}

pub struct FleetP2c {
    net: Arc<Network>,
    fleet: Fleet,
    arrival_seed: u64,
    row_seed: u64,
    /// The label a locally trained model predicts for each corpus row.
    reference: Vec<i64>,
    t: Duration,
    row: i64,
}

impl FleetP2c {
    pub fn provision(seed: u64, traced: bool) -> FleetP2c {
        let net = Arc::new(Network::new());
        let mut config = FleetConfig::new("Mine");
        config.capacity = CapacityConfig {
            workers: 2,
            queue_limit: Some(8),
            service_time: Duration::from_millis(2),
        };
        config.routing_seed = derive(seed, 5);
        let factory = move || -> Arc<dyn WebService> {
            let data = corpus();
            let service: Arc<dyn WebService> = Arc::new(MineService {
                model: trained(&data),
                data,
            });
            if traced {
                TimedService::wrap(service)
            } else {
                service
            }
        };
        let fleet = Fleet::new(Arc::clone(&net), config, Arc::new(factory));
        for _ in 0..REPLICAS {
            fleet.add_replica(net.now());
        }
        fleet
            .gossip()
            .sync(REPLICAS + 2)
            .expect("initial mesh converges");
        let data = corpus();
        let model = trained(&data);
        let reference = (0..CORPUS_ROWS)
            .map(|r| model.predict(&data, r).expect("local predict") as i64)
            .collect();
        FleetP2c {
            net,
            fleet,
            arrival_seed: derive(seed, 6),
            row_seed: derive(seed, 7),
            reference,
            t: Duration::ZERO,
            row: 0,
        }
    }
}

impl World for FleetP2c {
    fn prepare(&mut self, i: u64) {
        self.t += pareto_interarrival(self.arrival_seed, i, MEAN_INTERARRIVAL, self.t, Some(DAY));
        self.row = (splitmix64(self.row_seed ^ i) % 1_000_000) as i64;
    }

    fn run(&mut self, i: u64) -> Outcome {
        let t = self.t;
        self.net.set_virtual_time(t);
        if i.is_multiple_of(32) {
            let _span = span("fleet.gossip");
            self.fleet.heartbeat_all(t);
            self.fleet.gossip().run_round();
        }
        let result = {
            let _span = span("fleet.invoke");
            self.fleet.invoke(
                t,
                "classify",
                vec![("row".into(), SoapValue::Int(self.row))],
            )
        };
        match result.map(|v| v.as_int()) {
            Ok(Ok(label)) => Outcome {
                virt: Some(self.net.virtual_time() - t),
                output: Some(Output::Label(label)),
                faulted: false,
            },
            Err(e) if e.is_server_busy() => Outcome::shed(),
            _ => Outcome::faulted(),
        }
    }

    fn check(&mut self, _i: u64, output: &Output) -> (bool, u64) {
        let expected = self.reference[self.row as usize % CORPUS_ROWS];
        match output {
            Output::Label(label) => (*label == expected, (*label as u64) ^ (self.row as u64) << 8),
            Output::Report(_) => (false, 0),
        }
    }

    fn network(&self) -> &Network {
        &self.net
    }
}
