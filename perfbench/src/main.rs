//! The repository benchmark: host cost and simulated QoS of four
//! composition workloads, plus a traced run that splits the host cost
//! by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run, for one workload and seed:
//!
//! 1. **Set-up.** Provisions the workload `SETUPS` times. Every world
//!    provisioned later in the run is timed the same way; `setup_s` is
//!    the median provisioning time over all of them.
//! 2. **Sim phase.** Runs a fixed number of ops on the virtual clock in
//!    short episodes, each a fresh world with a derived seed. The seed
//!    is run twice and the two runs must agree on every sojourn, their
//!    `WireStats` and their output digests; a second seed derived from
//!    the first is run once and printed beside it. Peak RSS is read
//!    here, after a fixed amount of work, so it does not grow with host
//!    speed.
//! 3. **Timed phase.** Runs ops one at a time (a closed loop on the
//!    host) for `--seconds`, in epochs on freshly provisioned worlds.
//!    Host metrics are medians over `WINDOWS` slices of the phase. With
//!    `--trace 1` the phase alternates untraced and traced blocks; the
//!    traced blocks give the per-layer table and the difference between
//!    the two is the tracing overhead.
//!
//! Every op's output is checked against a reference computed without
//! the transport or the engine. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`.

mod casestudy;
mod fleet;
mod host;
mod planned;
mod trace;
mod world;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use world::{Outcome, World};

/// Provisionings timed before the sim phase (the later phases add
/// theirs to the `setup_s` sample).
const SETUPS: usize = 11;
/// Length of one untraced or traced block of a traced run.
const TRACE_BLOCK: Duration = Duration::from_millis(100);
/// Slices of the timed phase; host metrics are medians over them, so
/// a burst of interference from outside the process moves only some.
const WINDOWS: u32 = 10;
/// Spans a traced run keeps in memory (and writes out) at most.
const MAX_SPANS: usize = 400_000;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    PlannedChain,
    CaseStudy,
    CaseStudyDurable,
    FleetP2c,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "planned_chain" => Workload::PlannedChain,
            "case_study" => Workload::CaseStudy,
            "case_study_durable" => Workload::CaseStudyDurable,
            "fleet_p2c" => Workload::FleetP2c,
            _ => return None,
        })
    }

    /// Episodes and ops per episode of the sim phase: enough that the
    /// sim-clock percentiles are steady from seed to seed.
    fn sim_shape(self) -> (u64, u64) {
        match self {
            Workload::PlannedChain => (24, 200),
            Workload::CaseStudy | Workload::CaseStudyDurable => (1, 96),
            // 4000 arrivals span one diurnal day.
            Workload::FleetP2c => (16, 4_000),
        }
    }

    /// Ops per epoch of the timed phase: about half a second of work.
    fn epoch_ops(self) -> u64 {
        match self {
            Workload::PlannedChain => 500,
            Workload::CaseStudy | Workload::CaseStudyDurable => 120,
            Workload::FleetP2c => 100_000,
        }
    }
}

/// The inputs one seed needs before any world is provisioned: the
/// case-study resamples and their reference trees (the other workloads
/// make their inputs per op).
type SeedInputs = Option<Arc<casestudy::Inputs>>;

fn seed_inputs(workload: Workload, seed: u64) -> SeedInputs {
    matches!(workload, Workload::CaseStudy | Workload::CaseStudyDurable)
        .then(|| casestudy::Inputs::generate(seed))
}

fn provision(
    workload: Workload,
    seed: u64,
    inputs: &SeedInputs,
    workers: usize,
    traced: bool,
) -> Box<dyn World> {
    let case_inputs = || {
        Arc::clone(
            inputs
                .as_ref()
                .expect("case-study inputs are generated per seed"),
        )
    };
    match workload {
        Workload::PlannedChain => Box::new(planned::PlannedChain::provision(seed, traced)),
        Workload::CaseStudy => {
            Box::new(casestudy::CaseStudy::provision(case_inputs(), None, traced))
        }
        Workload::CaseStudyDurable => Box::new(casestudy::CaseStudy::provision(
            case_inputs(),
            Some(workers),
            traced,
        )),
        Workload::FleetP2c => Box::new(fleet::FleetP2c::provision(seed, traced)),
    }
}

/// Nearest-rank quantile of a sorted slice.
fn quantile<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(values, 0.5).unwrap_or(f64::NAN)
}

/// Tallies shared by the sim and timed phases.
#[derive(Debug, Clone, Default, PartialEq)]
struct Tally {
    attempted: u64,
    shed: u64,
    faulted: u64,
    mismatches: u64,
    digest: u64,
}

impl Tally {
    /// Check an op's output and fold it into the tally.
    fn record(&mut self, world: &mut dyn World, i: u64, outcome: &Outcome) {
        self.attempted += 1;
        let virt = outcome.virt.map_or(u64::MAX, |v| v.as_nanos() as u64);
        let digest = match &outcome.output {
            Some(output) => {
                let (ok, digest) = world.check(i, output);
                self.mismatches += u64::from(!ok);
                digest
            }
            None if outcome.faulted => {
                self.faulted += 1;
                1
            }
            None => {
                self.shed += 1;
                2
            }
        };
        self.digest = dm_wsrf::fleet::splitmix64(self.digest ^ digest ^ virt.rotate_left(17));
    }
}

/// What the sim phase of one world measured.
#[derive(Debug, Clone, PartialEq)]
struct SimSummary {
    tally: Tally,
    /// Virtual sojourns of the served ops, sorted.
    sojourns: Vec<Duration>,
    wire: dm_wsrf::transport::WireStats,
}

impl SimSummary {
    fn virt_ms(&self, q: f64) -> f64 {
        quantile(&self.sojourns, q).map_or(f64::NAN, |d| d.as_secs_f64() * 1e3)
    }

    fn failed_share(&self) -> f64 {
        let t = &self.tally;
        (t.shed + t.faulted + t.mismatches) as f64 / t.attempted as f64
    }

    fn wire_bytes_per_op(&self) -> f64 {
        self.wire.bytes as f64 / self.tally.attempted as f64
    }
}

/// Run the sim phase: `episodes` freshly provisioned worlds, each
/// running ops `0..ops` with its own derived seed, pooled. Short
/// independent episodes keep the sim-clock percentiles a property of
/// the workload rather than of how far one long run's backlog grew.
fn sim_phase(
    provision: &mut dyn FnMut(u64) -> Box<dyn World>,
    episodes: u64,
    ops: u64,
) -> SimSummary {
    let mut tally = Tally::default();
    let mut sojourns = Vec::with_capacity((episodes * ops) as usize);
    let mut wire = dm_wsrf::transport::WireStats::default();
    for episode in 0..episodes {
        let mut world = provision(episode);
        let before = world.network().wire_stats();
        for i in 0..ops {
            world.prepare(i);
            let outcome = world.run(i);
            sojourns.extend(outcome.virt);
            tally.record(world.as_mut(), i, &outcome);
        }
        wire = world::wire_sum(
            wire,
            world::wire_delta(world.network().wire_stats(), before),
        );
    }
    sojourns.sort_unstable();
    SimSummary {
        tally,
        sojourns,
        wire,
    }
}

/// What the timed phase measured.
#[derive(Default)]
struct Timed {
    tally: Tally,
    /// Per-op wall time (µs) of untraced and traced ops.
    untraced_us: Vec<f64>,
    traced_us: Vec<f64>,
    /// Process CPU and wall time of the phase, and the runner loop's own
    /// time spent making inputs and checking outputs inside it.
    cpu_s: f64,
    wall_s: f64,
    runner_s: f64,
    wire: dm_wsrf::transport::WireStats,
    counts: BTreeMap<&'static str, u64>,
    admission: world::Admission,
    pool: (u64, u64, u64),
    windows: Vec<Window>,
}

/// One of the `WINDOWS` equal slices of the timed phase.
#[derive(Debug, Clone, Copy)]
struct Window {
    /// Range of this window's ops in `Timed::untraced_us`.
    first: usize,
    end: usize,
    cpu_s: f64,
    runner_s: f64,
}

fn pool_counters() -> (u64, u64, u64) {
    let s = dm_algorithms::pool::stats();
    (s.tasks, s.batches, s.steals)
}

/// Fold the counters of a finished epoch's world into the phase.
fn close_epoch(timed: &mut Timed, world: &dyn World, wire0: dm_wsrf::transport::WireStats) {
    let wire = world::wire_delta(world.network().wire_stats(), wire0);
    timed.wire = world::wire_sum(timed.wire, wire);
    for (name, n) in world.counts() {
        *timed.counts.entry(name).or_default() += n;
    }
    *timed.counts.entry("monitor.events").or_default() += world::monitor_events(world.network());
    let admission = world::admission(world.network());
    timed.admission.admitted += admission.admitted;
    timed.admission.shed += admission.shed;
    timed.admission.merge(&admission.queue_waits);
}

/// Run ops one at a time for `seconds`. The phase runs in epochs of
/// `epoch_ops` ops, each on a freshly provisioned world replaying ops
/// `0..epoch_ops`, so the work per op does not depend on how many ops
/// the host managed before it (the program's logs grow with every op).
/// Provisioning is not timed as part of any op.
fn timed_phase(
    provision: &mut dyn FnMut() -> Box<dyn World>,
    epoch_ops: u64,
    seconds: f64,
    traced: bool,
) -> Timed {
    let mut timed = Timed::default();
    let pool0 = pool_counters();
    let cpu0 = host::process_cpu_s();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut block_end = start + TRACE_BLOCK;
    let mut tracing = false;
    let mut runner = Duration::ZERO;
    let mut world = provision();
    let mut wire0 = world.network().wire_stats();
    let mut i = 0;
    let window_len = Duration::from_secs_f64(seconds) / WINDOWS;
    let mut window_end = start + window_len;
    let mut window = Window {
        first: 0,
        end: 0,
        cpu_s: cpu0,
        runner_s: 0.0,
    };
    loop {
        let now = Instant::now();
        if now >= window_end || now >= deadline {
            let cpu = host::process_cpu_s();
            timed.windows.push(Window {
                end: timed.untraced_us.len(),
                cpu_s: cpu - window.cpu_s,
                runner_s: runner.as_secs_f64() - window.runner_s,
                ..window
            });
            window = Window {
                first: timed.untraced_us.len(),
                end: 0,
                cpu_s: cpu,
                runner_s: runner.as_secs_f64(),
            };
            window_end += window_len;
        }
        if now >= deadline {
            break;
        }
        if traced && now >= block_end {
            // Stop tracing once the span buffer is full; the remaining
            // blocks run untraced.
            tracing = !tracing && trace::recorded() < MAX_SPANS;
            trace::set_enabled(tracing);
            block_end = now + TRACE_BLOCK;
        }
        if i == epoch_ops {
            close_epoch(&mut timed, world.as_ref(), wire0);
            world = provision();
            wire0 = world.network().wire_stats();
            i = 0;
        }
        world.prepare(i);
        trace::set_op(timed.tally.attempted);
        let op_start = Instant::now();
        runner += op_start - now;
        let outcome = {
            let _span = trace::span("op");
            world.run(i)
        };
        let op_end = Instant::now();
        let wall_us = (op_end - op_start).as_secs_f64() * 1e6;
        if tracing {
            timed.traced_us.push(wall_us);
        } else {
            timed.untraced_us.push(wall_us);
        }
        timed.tally.record(world.as_mut(), i, &outcome);
        drop(outcome);
        runner += op_end.elapsed();
        i += 1;
    }
    trace::set_enabled(false);
    close_epoch(&mut timed, world.as_ref(), wire0);
    timed.wall_s = start.elapsed().as_secs_f64();
    timed.cpu_s = host::process_cpu_s() - cpu0;
    timed.runner_s = runner.as_secs_f64();
    let pool1 = pool_counters();
    timed.pool = (pool1.0 - pool0.0, pool1.1 - pool0.1, pool1.2 - pool0.2);
    timed
}

fn ops_per_s(walls_us: &[f64]) -> f64 {
    walls_us.len() as f64 / (walls_us.iter().sum::<f64>() / 1e6)
}

/// Host metrics of the untraced ops: the median over the windows of
/// each window's figure.
fn host_metrics(timed: &Timed) -> [(&'static str, f64); 4] {
    let mut rates = Vec::new();
    let mut p50s = Vec::new();
    let mut p90s = Vec::new();
    let mut cpus = Vec::new();
    for w in timed.windows.iter().filter(|w| w.end > w.first) {
        let mut walls = timed.untraced_us[w.first..w.end].to_vec();
        walls.sort_by(f64::total_cmp);
        rates.push(ops_per_s(&walls));
        p50s.extend(quantile(&walls, 0.5));
        p90s.extend(quantile(&walls, 0.9));
        cpus.push((w.cpu_s - w.runner_s).max(0.0) / walls.len() as f64 * 1e6);
    }
    let shown: Vec<String> = rates.iter().map(|r| format!("{r:.1}")).collect();
    println!("ops_per_s by slice: {}", shown.join(" "));
    [
        ("ops_per_s", median(&mut rates)),
        ("op_wall_p50_us", median(&mut p50s)),
        ("op_wall_p90_us", median(&mut p90s)),
        ("cpu_us_per_op", median(&mut cpus)),
    ]
}

/// `(name, unit, clock)` of every end-to-end metric, in output order.
const END_TO_END: [(&str, &str, &str); 10] = [
    ("setup_s", "s", "host"),
    ("ops_per_s", "1/s", "host"),
    ("op_wall_p50_us", "us", "host"),
    ("op_wall_p90_us", "us", "host"),
    ("cpu_us_per_op", "us", "host"),
    ("peak_rss_mib", "MiB", "host"),
    ("virt_p50_ms", "ms", "sim"),
    ("virt_p99_ms", "ms", "sim"),
    ("wire_bytes_per_op", "B", "sim"),
    ("served_share", "ratio", "sim"),
];

/// `(name, unit)` of every per-layer metric, in output order.
const PER_LAYER: [(&str, &str); 39] = [
    ("planner.plan_us", "us"),
    ("planner.candidates_us", "us"),
    ("costmodel.snapshot_us", "us"),
    ("costmodel.observe_monitor_us", "us"),
    ("monitor.events", "count"),
    ("fleet.gossip_us", "us"),
    ("fleet.invoke_self_us", "us"),
    ("transport.self_us", "us"),
    ("transport.request_leg_us", "us"),
    ("transport.response_leg_us", "us"),
    ("transport.envelopes", "count"),
    ("transport.wire_bytes", "B"),
    ("transport.ref_substitutions", "count"),
    ("transport.bytes_saved", "B"),
    ("dataplane.ref_hit_ratio", "ratio"),
    ("container.admitted", "count"),
    ("container.shed", "count"),
    ("container.queue_wait_p99_ms", "ms"),
    ("handler.Prep.us", "us"),
    ("handler.Select.us", "us"),
    ("handler.Mine.us", "us"),
    ("handler.Eval.us", "us"),
    ("handler.UrlReader.us", "us"),
    ("handler.Classifier.us", "us"),
    ("pool.tasks", "count"),
    ("pool.batches", "count"),
    ("pool.steals", "count"),
    ("process.cpu_per_wall", "ratio"),
    ("engine.run_us", "us"),
    ("engine.self_us", "us"),
    ("engine.tasks", "count"),
    ("tools.local_us", "us"),
    ("durable.run_us", "us"),
    ("durable.self_us", "us"),
    ("journal.appends", "count"),
    ("journal.bytes", "B"),
    ("runner.op_self_us", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.spans_per_op", "count"),
];

/// The per-layer table of a traced run. Counts are per op unless the
/// README says otherwise; `handler.*` and `fleet.gossip_us` are per call.
fn layer_metrics(
    timed: &Timed,
    stats: &BTreeMap<&'static str, trace::LayerStat>,
    legs: trace::Legs,
    spans: usize,
) -> BTreeMap<&'static str, f64> {
    let traced_ops = stats.get("op").map_or(0, |s| s.calls).max(1) as f64;
    let per_op = |name: &str| stats.get(name).map_or(0.0, |s| s.self_ns as f64 / 1e3) / traced_ops;
    let per_call = |name: &str| {
        stats
            .get(name)
            .map_or(0.0, |s| s.self_ns as f64 / 1e3 / s.calls.max(1) as f64)
    };
    let ops = (timed.untraced_us.len() + timed.traced_us.len()).max(1) as f64;
    let count = |name: &str| timed.counts.get(name).copied().unwrap_or(0) as f64 / ops;
    let admission = &timed.admission;
    let mut m = BTreeMap::new();
    m.insert("planner.plan_us", per_op("planner.plan"));
    m.insert("planner.candidates_us", per_op("planner.candidates"));
    m.insert("costmodel.snapshot_us", per_op("costmodel.snapshot"));
    m.insert(
        "costmodel.observe_monitor_us",
        per_op("costmodel.observe_monitor"),
    );
    m.insert("monitor.events", count("monitor.events"));
    m.insert("fleet.gossip_us", per_call("fleet.gossip"));
    m.insert("fleet.invoke_self_us", per_op("fleet.invoke"));
    let entry_self: f64 = ["transport.invoke", "tool.remote", "fleet.invoke"]
        .iter()
        .map(|n| per_op(n))
        .sum();
    m.insert("transport.self_us", entry_self);
    let leg = |ns: u64| ns as f64 / 1e3 / legs.calls.max(1) as f64;
    m.insert("transport.request_leg_us", leg(legs.request_ns));
    m.insert("transport.response_leg_us", leg(legs.response_ns));
    m.insert("transport.envelopes", timed.wire.envelopes as f64 / ops);
    m.insert("transport.wire_bytes", timed.wire.bytes as f64 / ops);
    m.insert(
        "transport.ref_substitutions",
        timed.wire.ref_substitutions as f64 / ops,
    );
    m.insert("transport.bytes_saved", timed.wire.bytes_saved as f64 / ops);
    let eligible = timed.counts.get("dataplane.eligible").copied().unwrap_or(0);
    m.insert(
        "dataplane.ref_hit_ratio",
        if eligible == 0 {
            0.0
        } else {
            timed.wire.ref_substitutions as f64 / eligible as f64
        },
    );
    m.insert("container.admitted", admission.admitted as f64 / ops);
    m.insert("container.shed", admission.shed as f64 / ops);
    m.insert(
        "container.queue_wait_p99_ms",
        admission
            .queue_waits
            .quantile(0.99)
            .map_or(0.0, |s| s * 1e3),
    );
    for service in ["Prep", "Select", "Mine", "Eval", "UrlReader", "Classifier"] {
        let metric = trace::intern(format!("handler.{service}.us"));
        m.insert(metric, per_call(&format!("handler.{service}")));
    }
    m.insert("pool.tasks", timed.pool.0 as f64 / ops);
    m.insert("pool.batches", timed.pool.1 as f64 / ops);
    m.insert("pool.steals", timed.pool.2 as f64 / ops);
    m.insert("process.cpu_per_wall", timed.cpu_s / timed.wall_s);
    let total = |name: &str| stats.get(name).map_or(0.0, |s| s.total_ns as f64 / 1e3) / traced_ops;
    m.insert("engine.run_us", total("engine.run"));
    m.insert("engine.self_us", per_op("engine.run"));
    m.insert("engine.tasks", count("engine.tasks"));
    m.insert("tools.local_us", per_op("tool.local"));
    m.insert("durable.run_us", total("durable.run"));
    m.insert("durable.self_us", per_op("durable.run"));
    m.insert("journal.appends", count("journal.appends"));
    m.insert("journal.bytes", count("journal.bytes"));
    m.insert("runner.op_self_us", per_op("op"));
    let untraced = ops_per_s(&timed.untraced_us);
    let traced = ops_per_s(&timed.traced_us);
    m.insert("trace.overhead_pct", (1.0 - traced / untraced) * 100.0);
    m.insert("trace.spans_per_op", spans as f64 / traced_ops);
    m
}

struct Args {
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or("--seconds must be a positive number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload_name = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload: Workload::parse(&workload_name).ok_or_else(|| {
            format!(
                "unknown workload {workload_name:?} \
                 (planned_chain, case_study, case_study_durable, fleet_p2c)"
            )
        })?,
        workload_name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn print_sim(label: &str, sim: &SimSummary) {
    println!(
        "sim[{label}]: ops {} served {} shed {} faulted {} mismatched {} | \
         virt p50 {:.4} ms p99 {:.4} ms | wire {:.1} B/op ({} envelopes, {} refs) | \
         failed_share {:.4}",
        sim.tally.attempted,
        sim.sojourns.len(),
        sim.tally.shed,
        sim.tally.faulted,
        sim.tally.mismatches,
        sim.virt_ms(0.5),
        sim.virt_ms(0.99),
        sim.wire_bytes_per_op(),
        sim.wire.envelopes,
        sim.wire.ref_substitutions,
        sim.failed_share(),
    );
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    trace::mark_runner();
    // Thread budget: the compute pool and the durable workers each get
    // at most the host's cores, and at most 2.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = cores.min(2);
    dm_algorithms::pool::set_global_threads(threads);
    let seed2 = world::derive(args.seed, 0x005E_C00D);
    println!(
        "perfbench workload={} seed={} second_seed={} seconds={} trace={} cores={} pool_threads={} durable_workers={}",
        args.workload_name,
        args.seed,
        seed2,
        args.seconds,
        u8::from(args.trace),
        cores,
        threads,
        threads
    );

    // 1. Set-up. Every world the run provisions is timed, here and in
    // the later phases; `setup_s` is the median, so interference from
    // outside the process during part of the run moves it little.
    let inputs = seed_inputs(args.workload, args.seed);
    let inputs2 = seed_inputs(args.workload, seed2);
    let setups = RefCell::new(Vec::new());
    let timed_provision = |seed: u64, inputs: &SeedInputs| {
        let start = Instant::now();
        let world = provision(args.workload, seed, inputs, threads, args.trace);
        setups.borrow_mut().push(start.elapsed().as_secs_f64());
        world
    };
    for _ in 0..SETUPS {
        drop(timed_provision(args.seed, &inputs));
    }

    // 2. Sim phase: the seed twice, then the second seed.
    let (episodes, sim_ops) = args.workload.sim_shape();
    let sim_of = |seed: u64, inputs: &SeedInputs| {
        let mut fresh =
            |episode: u64| timed_provision(world::derive(seed, 0x100 + episode), inputs);
        sim_phase(&mut fresh, episodes, sim_ops)
    };
    let sims = [
        sim_of(args.seed, &inputs),
        sim_of(args.seed, &inputs),
        sim_of(seed2, &inputs2),
    ];
    let deterministic = sims[0] == sims[1];
    let peak_rss_mib = host::peak_rss_mib();
    print_sim("seed", &sims[0]);
    print_sim("seed-rerun", &sims[1]);
    print_sim("second-seed", &sims[2]);
    println!(
        "determinism: same-seed rerun {} (digest {:016x} vs {:016x})",
        if deterministic {
            "identical"
        } else {
            "DIFFERS"
        },
        sims[0].tally.digest,
        sims[1].tally.digest
    );

    // 3. Timed phase.
    let mut epoch = 0;
    let mut fresh = || {
        epoch += 1;
        timed_provision(world::derive(args.seed, 0x1000 + epoch), &inputs)
    };
    let timed = timed_phase(
        &mut fresh,
        args.workload.epoch_ops(),
        args.seconds,
        args.trace,
    );
    let mut setups = setups.into_inner();
    let setup_s = median(&mut setups);
    println!(
        "setup: {} provisionings, median {:.1} us, min {:.1} us, max {:.1} us",
        setups.len(),
        setup_s * 1e6,
        setups[0] * 1e6,
        setups[setups.len() - 1] * 1e6
    );
    let ops = timed.untraced_us.len() + timed.traced_us.len();
    let mut e2e = BTreeMap::new();
    e2e.insert("setup_s", setup_s);
    for (name, value) in host_metrics(&timed) {
        e2e.insert(name, value);
    }
    e2e.insert("peak_rss_mib", peak_rss_mib);
    e2e.insert("virt_p50_ms", sims[0].virt_ms(0.5));
    e2e.insert("virt_p99_ms", sims[0].virt_ms(0.99));
    e2e.insert("wire_bytes_per_op", sims[0].wire_bytes_per_op());
    e2e.insert("served_share", 1.0 - sims[0].failed_share());
    println!(
        "timed: {} ops ({} untraced, {} traced) in {:.3} s wall, {:.3} s process CPU, {:.3} s runner",
        ops,
        timed.untraced_us.len(),
        timed.traced_us.len(),
        timed.wall_s,
        timed.cpu_s,
        timed.runner_s
    );
    for (name, unit, clock) in END_TO_END {
        // A traced run's host figures include the tracing blocks.
        if !(args.trace && clock == "host" && name != "setup_s") {
            println!("metric {name:<20} {:>16.4} {unit:<6} [{clock}]", e2e[name]);
        }
    }
    println!(
        "metric {:<20} {:>16.4} {:<6} [sim]  (second seed: {:.4})",
        "failed_share",
        sims[0].failed_share(),
        "ratio",
        sims[2].failed_share()
    );
    println!(
        "second seed: virt_p50_ms {:.4} virt_p99_ms {:.4} wire_bytes_per_op {:.1}",
        sims[2].virt_ms(0.5),
        sims[2].virt_ms(0.99),
        sims[2].wire_bytes_per_op()
    );

    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    if args.trace {
        let spans = trace::drain();
        let path = std::path::PathBuf::from(".bench_out").join(format!(
            "spans-{}-seed{}.tsv",
            args.workload_name, args.seed
        ));
        if let Err(e) = trace::write_tsv(&path, &spans) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
        let (stats, legs) = trace::analyse(&spans);
        println!(
            "layer table ({} spans, written to {}):",
            spans.len(),
            path.display()
        );
        println!(
            "  {:<28} {:>10} {:>14} {:>14}",
            "span", "calls", "self_us/call", "total_us/call"
        );
        for (name, s) in &stats {
            println!(
                "  {:<28} {:>10} {:>14.3} {:>14.3}",
                name,
                s.calls,
                s.self_ns as f64 / 1e3 / s.calls as f64,
                s.total_ns as f64 / 1e3 / s.calls as f64
            );
        }
        let layers = layer_metrics(&timed, &stats, legs, spans.len());
        for (name, unit) in PER_LAYER {
            println!("layer {name:<30} {:>16.4} {unit}", layers[name]);
            metrics.push((name, unit, layers[name]));
        }
    } else {
        for (name, unit, _) in END_TO_END {
            metrics.push((name, unit, e2e[name]));
        }
    }

    let failed = sims
        .iter()
        .map(|s| &s.tally)
        .chain([&timed.tally])
        .map(|t| t.faulted + t.mismatches)
        .sum::<u64>();
    let attempted = sims.iter().map(|s| s.tally.attempted).sum::<u64>() + timed.tally.attempted;
    let finite = metrics.iter().all(|(_, _, v)| v.is_finite());
    let correct = deterministic && failed == 0 && finite && !timed.untraced_us.is_empty();
    if !correct {
        eprintln!(
            "perfbench: run is not correct (deterministic={deterministic}, failed={failed}, finite={finite})"
        );
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}
