//! What every workload provides to the runner loop, and the helpers they
//! share.

use dm_workflow::engine::ExecutionReport;
use dm_wsrf::container::LoadStats;
use dm_wsrf::fleet::splitmix64;
use dm_wsrf::metrics::Histogram;
use dm_wsrf::transport::{Network, WireStats};
use std::time::Duration;

/// What one op produced, for the output oracle.
pub enum Output {
    /// A chain's final label or a served prediction.
    Label(i64),
    /// A workflow enactment's report.
    Report(Box<ExecutionReport>),
}

/// The result of one op.
pub struct Outcome {
    /// Sojourn on the virtual clock; `None` when the op was shed.
    pub virt: Option<Duration>,
    /// `None` when the op was shed or faulted.
    pub output: Option<Output>,
    /// The op failed with something other than an admission shed.
    pub faulted: bool,
}

impl Outcome {
    pub fn shed() -> Outcome {
        Outcome {
            virt: None,
            output: None,
            faulted: false,
        }
    }

    pub fn faulted() -> Outcome {
        Outcome {
            virt: None,
            output: None,
            faulted: true,
        }
    }
}

/// Admission counters summed over a world's hosts.
#[derive(Debug, Clone, Default)]
pub struct Admission {
    pub admitted: u64,
    pub shed: u64,
    /// Queue waits of every admitted request (seconds, bucketed).
    pub queue_waits: Histogram,
}

impl Admission {
    pub fn add(&mut self, stats: &LoadStats) {
        self.admitted += stats.admitted;
        self.shed += stats.shed;
        self.merge(&stats.queue_waits);
    }

    pub fn merge(&mut self, waits: &Histogram) {
        let merged = &mut self.queue_waits;
        for (into, from) in merged.buckets.iter_mut().zip(&waits.buckets) {
            *into += from;
        }
        merged.count += waits.count;
        merged.sum += waits.sum;
    }
}

/// One provisioned instance of a workload: the system under test plus
/// the inputs and reference outputs for its seed.
pub trait World {
    /// Make op `i`'s input (not timed). Ops run in index order.
    fn prepare(&mut self, i: u64);
    /// Run op `i`: the part the op timer measures.
    fn run(&mut self, i: u64) -> Outcome;
    /// Check op `i`'s output against a reference computed without the
    /// transport or the engine. Returns whether it matched and a digest
    /// of the output for the determinism check.
    fn check(&mut self, i: u64, output: &Output) -> (bool, u64);
    /// The network every op goes through.
    fn network(&self) -> &Network;
    /// Per-op counts the workload keeps itself (journal appends,
    /// engine tasks), summed since provisioning.
    fn counts(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }
}

/// Invocation events kept by the network's and every host's monitor.
pub fn monitor_events(net: &Network) -> u64 {
    let hosts: usize = net
        .hosts()
        .iter()
        .filter_map(|h| net.host(h).ok())
        .map(|c| c.monitor().len())
        .sum();
    (net.monitor().len() + hosts) as u64
}

/// Admission counters of every host with a capacity model.
pub fn admission(net: &Network) -> Admission {
    let now = net.virtual_time();
    let mut total = Admission::default();
    for host in net.hosts() {
        if let Some(stats) = net.host(&host).ok().and_then(|c| c.load_stats(now)) {
            total.add(&stats);
        }
    }
    total
}

/// Wire counters as a difference of two snapshots.
pub fn wire_delta(after: WireStats, before: WireStats) -> WireStats {
    WireStats {
        envelopes: after.envelopes - before.envelopes,
        bytes: after.bytes - before.bytes,
        bytes_saved: after.bytes_saved - before.bytes_saved,
        ref_substitutions: after.ref_substitutions - before.ref_substitutions,
        serialisations: after.serialisations - before.serialisations,
    }
}

/// Wire counters summed.
pub fn wire_sum(a: WireStats, b: WireStats) -> WireStats {
    WireStats {
        envelopes: a.envelopes + b.envelopes,
        bytes: a.bytes + b.bytes,
        bytes_saved: a.bytes_saved + b.bytes_saved,
        ref_substitutions: a.ref_substitutions + b.ref_substitutions,
        serialisations: a.serialisations + b.serialisations,
    }
}

/// A derived seed: distinct streams for arrivals, payloads, routing.
pub fn derive(seed: u64, stream: u64) -> u64 {
    splitmix64(seed ^ splitmix64(stream))
}

/// FNV-1a over bytes: a cheap digest for determinism checks.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Open-loop heavy-tailed inter-arrival: Pareto(α = 1.5) with the given
/// mean, capped at 50× the mean, optionally modulated by a ±40% diurnal
/// ramp over a `day` of virtual time.
pub fn pareto_interarrival(
    seed: u64,
    i: u64,
    mean: f64,
    at: Duration,
    day: Option<f64>,
) -> Duration {
    const ALPHA: f64 = 1.5;
    let u = ((splitmix64(seed.wrapping_add(i)) >> 11) as f64 / (1u64 << 53) as f64).max(1e-12);
    let x_m = mean * (ALPHA - 1.0) / ALPHA;
    let dt = (x_m / u.powf(1.0 / ALPHA)).min(50.0 * mean);
    let rate = day.map_or(1.0, |day| {
        1.0 + 0.4 * (at.as_secs_f64() / day * std::f64::consts::TAU).sin()
    });
    Duration::from_secs_f64(dt / rate)
}
