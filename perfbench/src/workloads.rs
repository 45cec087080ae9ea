//! The benchmark's workloads and the loops that measure them.
//!
//! - `pbft-n1024`: one PBFT run at n = 1024 on a sampled N(250, 50) ms
//!   network, no adversary, observability off. One op is one run.
//! - `wan-partition`: one PBFT run at n = 128 on two LANs joined by a slow
//!   WAN (per-link bandwidth queueing), halved by a partition attack from
//!   5 s to 30 s, observability on. One op is one run.
//! - `sweep`: a window of generated fuzz scenarios, each run through
//!   `simcheck::run_unit` and folded into a campaign checkpoint that is
//!   saved every 64 units, then reduced to the campaign's final report.
//!   One op is one unit; one pass covers the whole window.
//!
//! Every op's simulated outputs are fingerprinted; repeats, and traced
//! against untraced arms, must agree exactly.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use bft_simulator::prelude::*;
use bft_simulator::sim_core::campaign::{
    final_report, Checkpoint, Manifest, UnitOutcome, UnitRecord,
};
use bft_simulator::simcheck::{run_unit, ScenarioSpec, UnitRun};

use crate::alloc;
use crate::host::peak_rss_mb;
use crate::layers::{LayerTally, SharedTally};
use crate::report::{median, quantile, Metrics};

/// Genesis seed of every protocol factory (the workload seed drives the
/// run's RNG instead).
const GENESIS_SEED: u64 = 7;

/// Recent events kept by the observability ring on `wan-partition`.
const OBS_LAST_K: usize = 64;

/// Set-ups timed per invocation (factory + `build()`, or scenario
/// generation for the sweep); `setup_s` is their median.
const SETUP_REPEATS: usize = 10;

/// The sweep saves its checkpoint after every batch of this many units.
const CHECKPOINT_EVERY: usize = 64;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// PBFT, n = 1024, 2 decisions.
    PbftN1024,
    /// PBFT, n = 128, clustered WAN, partition attack, observability on.
    WanPartition,
    /// Generated fuzz scenarios through `run_unit` and a campaign checkpoint.
    Sweep,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::PbftN1024, Workload::WanPartition, Workload::Sweep];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PbftN1024 => "pbft-n1024",
            Workload::WanPartition => "wan-partition",
            Workload::Sweep => "sweep",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Full size, or the reduced size the smoke tests use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's shapes.
    Full,
    /// Small shapes that finish in well under a second.
    Smoke,
}

/// How one invocation runs.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed: the `RunConfig` seed, or the first scenario seed of
    /// the sweep's window.
    ///
    /// The sweep's window slides by one scenario per workload seed. Unit
    /// cost is heavy-tailed (the costliest 0.5% of units take half the host
    /// time), so two disjoint windows of a few thousand units differ by
    /// tens of percent in throughput from content alone. Nearby seeds
    /// therefore measure nearly the same mix, while a distant seed (say,
    /// +1000000) re-checks a claim on fresh scenarios.
    pub seed: u64,
    /// Measurement budget in seconds; ops are whole, so a run ends after
    /// the op that crosses it.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
    /// Workload size.
    pub size: Size,
    /// Directory for the sweep's checkpoint files.
    pub scratch: PathBuf,
}

/// What one invocation measured.
#[derive(Debug)]
pub struct Measured {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    /// Every simulated output agreed across repeats and arms.
    pub consistent: bool,
    /// The measured metrics.
    pub metrics: Metrics,
    /// One line per op: its arm, host time and simulated outputs.
    pub log: Vec<String>,
}

impl Measured {
    /// Every op succeeded and every simulated output agreed.
    pub fn correct(&self) -> bool {
        self.consistent && self.failed == 0
    }
}

/// Stops after `min` ops, once `seconds` have passed.
struct Budget {
    start: Instant,
    seconds: f64,
    min: usize,
}

impl Budget {
    fn new(seconds: f64, min: usize) -> Budget {
        Budget {
            start: Instant::now(),
            seconds,
            min,
        }
    }

    fn more(&self, done: usize) -> bool {
        done < self.min || self.start.elapsed().as_secs_f64() < self.seconds
    }
}

/// FNV-1a over `bytes`: a digest that is the same on every platform.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

// ---------------------------------------------------------------------------
// Single-run workloads.

/// The shape of a single-run workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunShape {
    /// Node count.
    pub n: usize,
    /// Consensus decisions to complete.
    pub decisions: u64,
    /// Clustered WAN with bandwidth, partition attack and observability on;
    /// otherwise a flat sampled network, no adversary, observability off.
    pub wan: bool,
}

impl RunShape {
    /// The shape of `workload` at `size`.
    ///
    /// # Panics
    ///
    /// Panics for the sweep, which is not a single run.
    pub fn of(workload: Workload, size: Size) -> RunShape {
        match (workload, size) {
            (Workload::PbftN1024, Size::Full) => RunShape {
                n: 1024,
                decisions: 2,
                wan: false,
            },
            (Workload::PbftN1024, Size::Smoke) => RunShape {
                n: 32,
                decisions: 2,
                wan: false,
            },
            (Workload::WanPartition, Size::Full) => RunShape {
                n: 128,
                decisions: 60,
                wan: true,
            },
            (Workload::WanPartition, Size::Smoke) => RunShape {
                n: 16,
                decisions: 40,
                wan: true,
            },
            (Workload::Sweep, _) => panic!("the sweep is not a single run"),
        }
    }
}

/// How a single run is instrumented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arm {
    /// No wrappers; observability as the workload sets it.
    Plain,
    /// Timing wrappers on, observability on or off.
    Traced {
        /// Observability on.
        obs: bool,
    },
}

impl Arm {
    fn label(self) -> &'static str {
        match self {
            Arm::Plain => "plain",
            Arm::Traced { obs: true } => "traced-obs-on",
            Arm::Traced { obs: false } => "traced-obs-off",
        }
    }
}

fn with_network<N: NetworkModel + 'static>(
    builder: SimulationBuilder,
    network: N,
    tally: Option<&SharedTally>,
) -> SimulationBuilder {
    match tally {
        Some(t) => builder.network(t.network(network)),
        None => builder.network(network),
    }
}

fn with_adversary<A: Adversary + 'static>(
    builder: SimulationBuilder,
    adversary: A,
    tally: Option<&SharedTally>,
) -> SimulationBuilder {
    match tally {
        Some(t) => builder.adversary(t.adversary(adversary)),
        None => builder.adversary(adversary),
    }
}

/// Builds one run of `shape`: the factory and `build()`, which `setup_s`
/// times. With a tally, the protocols, network and adversary are wrapped.
///
/// # Errors
///
/// Returns the engine's error for an invalid configuration.
pub fn build_run(
    shape: RunShape,
    seed: u64,
    scheduler: SchedulerKind,
    obs: bool,
    tally: Option<&SharedTally>,
) -> Result<Simulation, SimError> {
    let kind = ProtocolKind::Pbft;
    let cfg = kind
        .configure(
            RunConfig::new(shape.n)
                .with_seed(seed)
                .with_lambda_ms(1000.0),
        )
        .with_target_decisions(shape.decisions);
    let factory = kind.factory(&cfg, GENESIS_SEED);
    let mut builder = SimulationBuilder::new(cfg).scheduler(scheduler);
    builder = match tally {
        Some(t) => builder.protocols(t.protocols(factory)),
        None => builder.protocols(factory),
    };
    if shape.wan {
        let topology = LinkTopology::clustered(
            shape.n,
            Dist::normal(20.0, 5.0),
            Some(10_000_000),
            Dist::normal(250.0, 50.0),
            Some(200_000),
        )?;
        builder = with_network(builder, BandwidthNetwork::new(topology), tally);
        let plan = PartitionPlan::halves(
            shape.n,
            SimTime::from_millis(5_000),
            SimTime::from_millis(30_000),
            CrossTraffic::Drop,
        );
        builder = with_adversary(builder, PartitionAttack::new(plan), tally);
    } else {
        builder = with_network(
            builder,
            SampledNetwork::new(Dist::normal(250.0, 50.0)),
            tally,
        );
        builder = with_adversary(builder, NullAdversary::new(), tally);
    }
    if obs {
        builder = builder
            .observability(ObsConfig::new(OBS_LAST_K).with_classifier(kind.phase_classifier()));
    }
    builder.build()
}

/// The simulated outputs of one run that every repeat and arm must match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RunOutputs {
    /// Engine events dispatched.
    events: u64,
    /// Consensus slots completed.
    decisions: u64,
    /// Honest wire messages.
    honest_messages: u64,
    /// Messages dropped by the adversary or the network.
    dropped: u64,
    /// Timers cancelled while pending.
    cancelled_timers: u64,
    /// Simulated end time, µs.
    end_time_us: u64,
    /// Digest of every scheduler-independent `RunResult` field except the
    /// observability snapshot.
    digest: u64,
    /// Digest of the observability snapshot's JSON; 0 when it is off.
    obs_digest: u64,
}

impl RunOutputs {
    /// Fingerprints `result`.
    fn of(result: &RunResult) -> RunOutputs {
        let stripped = RunResult {
            scheduler: SchedulerStats::default(),
            observability: None,
            ..result.clone()
        };
        RunOutputs {
            events: result.events_processed,
            decisions: result.decisions_completed(),
            honest_messages: result.honest_messages,
            dropped: result.dropped_messages,
            cancelled_timers: result.skipped_cancelled_timers,
            end_time_us: result.end_time.as_micros(),
            digest: fnv1a(format!("{stripped:?}").as_bytes()),
            obs_digest: result
                .observability
                .as_ref()
                .map_or(0, |o| fnv1a(o.to_json().dump().as_bytes())),
        }
    }

    /// Whether two runs agree; the observability digest is compared only
    /// when both runs had observability on.
    fn agrees(&self, other: &RunOutputs) -> bool {
        let obs_ok =
            self.obs_digest == 0 || other.obs_digest == 0 || self.obs_digest == other.obs_digest;
        RunOutputs {
            obs_digest: 0,
            ..*self
        } == RunOutputs {
            obs_digest: 0,
            ..*other
        } && obs_ok
    }

    fn describe(&self) -> String {
        format!(
            "events={} decisions={} honest_messages={} dropped={} cancelled_timers={} \
             end_time_us={} digest={:016x} obs_digest={:016x}",
            self.events,
            self.decisions,
            self.honest_messages,
            self.dropped,
            self.cancelled_timers,
            self.end_time_us,
            self.digest,
            self.obs_digest
        )
    }
}

/// One executed single run.
struct RunSample {
    wall: f64,
    result: RunResult,
    tally: LayerTally,
    allocs: u64,
}

/// Runs one arm of `shape`; `None` when the run panicked.
fn run_arm(opts: &Options, shape: RunShape, arm: Arm) -> Result<Option<RunSample>, String> {
    let (obs, tally) = match arm {
        Arm::Plain => (shape.wan, None),
        Arm::Traced { obs } => (obs, Some(SharedTally::new())),
    };
    let sim = build_run(
        shape,
        opts.seed,
        SchedulerKind::default(),
        obs,
        tally.as_ref(),
    )
    .map_err(|e| e.to_string())?;
    let traced = tally.is_some();
    let start = Instant::now();
    let run = if traced {
        let (run, allocs) = alloc::counted(|| catch_unwind(AssertUnwindSafe(|| sim.run())));
        run.map(|r| (r, allocs))
    } else {
        catch_unwind(AssertUnwindSafe(|| sim.run())).map(|r| (r, 0))
    };
    let wall = start.elapsed().as_secs_f64();
    Ok(run.ok().map(|(result, allocs)| RunSample {
        wall,
        result,
        tally: tally.map_or_else(LayerTally::default, |t| t.snapshot()),
        allocs,
    }))
}

/// Compares runs against the first one seen and counts failures.
#[derive(Default)]
struct Checker {
    reference: Option<RunOutputs>,
    attempted: u64,
    failed: u64,
    consistent: bool,
    log: Vec<String>,
}

impl Checker {
    fn new() -> Checker {
        Checker {
            consistent: true,
            ..Checker::default()
        }
    }

    /// Checks one run; returns the sample when the op succeeded.
    fn check(&mut self, arm: Arm, sample: Option<RunSample>) -> Option<RunSample> {
        self.attempted += 1;
        let Some(sample) = sample else {
            self.failed += 1;
            self.consistent = false;
            self.log
                .push(format!("op {} {}: panicked", self.attempted, arm.label()));
            return None;
        };
        let outputs = RunOutputs::of(&sample.result);
        let reference = *self.reference.get_or_insert(outputs);
        let agrees = outputs.agrees(&reference);
        let clean = sample.result.is_clean();
        self.log.push(format!(
            "op {} {}: wall_s={:.6} clean={clean} agrees={agrees} {}",
            self.attempted,
            arm.label(),
            sample.wall,
            outputs.describe()
        ));
        if !agrees {
            self.consistent = false;
        }
        if agrees && clean {
            Some(sample)
        } else {
            self.failed += 1;
            None
        }
    }
}

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

fn set_rss(metrics: &mut Metrics) {
    metrics.set("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
}

/// The median of `SETUP_REPEATS` set-ups, each timed while the earlier
/// ones are still alive, on a thread of their own started after the ops.
///
/// A set-up that re-used just-freed memory varied twofold from one process
/// to the next. A new thread allocates from a fresh malloc arena, and live
/// set-ups cannot re-use each other's memory, so every set-up allocates
/// fresh memory as a process's first one does. Call it after `set_rss`:
/// the set-ups then do not raise `peak_rss_mb`, and the ops run alone.
fn setup_secs<T, E: ToString>(
    mut setup: impl FnMut() -> Result<T, E> + Send,
) -> Result<f64, String> {
    std::thread::scope(|scope| {
        scope
            .spawn(move || {
                let mut alive = Vec::with_capacity(SETUP_REPEATS);
                let mut secs = Vec::with_capacity(SETUP_REPEATS);
                for _ in 0..SETUP_REPEATS {
                    let (made, s) = time(&mut setup);
                    alive.push(made.map_err(|e| e.to_string())?);
                    secs.push(s);
                }
                Ok(median(&secs))
            })
            .join()
            .unwrap_or_else(|_| Err("a set-up panicked".to_string()))
    })
}

/// Sets `unit_p50_ms`, `unit_p99_ms` from per-op host times in seconds.
fn set_unit_times(metrics: &mut Metrics, secs: &[f64]) {
    metrics.set("unit_p50_ms", median(secs) * 1e3);
    metrics.set("unit_p99_ms", quantile(secs, 0.99) * 1e3);
}

fn zero(metrics: &mut Metrics, names: &[&'static str]) {
    for name in names {
        metrics.set(name, 0.0);
    }
}

const RUN_ONLY_LAYERS: &[&str] = &[
    "protocols.calls",
    "protocols.self_s",
    "net.calls",
    "net.self_s",
    "net.drops",
    "net.queued",
    "attacks.calls",
    "attacks.self_s",
    "attacks.drops",
    "obs.self_s",
    "engine.self_s",
    "engine.ns_per_event",
    "engine.cancelled_timers",
    "scheduler.peak_resident",
    "scheduler.peak_live",
    "scheduler.tombstones_popped",
    "scheduler.cancelled_in_place",
];

const SWEEP_ONLY_LAYERS: &[&str] = &[
    "simcheck.generate_s",
    "simcheck.run_unit_s",
    "simcheck.violations",
    "campaign.fold_s",
    "campaign.save_calls",
    "campaign.save_s",
    "campaign.bytes_written",
    "campaign.report_s",
];

fn no_success(workload: Workload) -> String {
    format!("{}: no op succeeded", workload.name())
}

/// End-to-end metrics of a single-run workload.
fn measure_runs(opts: &Options) -> Result<Measured, String> {
    let shape = RunShape::of(opts.workload, opts.size);
    let mut checker = Checker::new();
    let (mut walls, mut rates) = (Vec::new(), Vec::new());
    let budget = Budget::new(opts.seconds, 3);
    while budget.more(checker.attempted as usize) {
        let sample = run_arm(opts, shape, Arm::Plain)?;
        if let Some(s) = checker.check(Arm::Plain, sample) {
            walls.push(s.wall);
            rates.push(s.result.events_processed as f64 / s.wall);
        }
    }
    if walls.is_empty() {
        return Err(no_success(opts.workload));
    }
    let mut metrics = Metrics::default();
    metrics.set("wall_s", median(&walls));
    metrics.set("events_per_s", median(&rates));
    metrics.set(
        "units_per_s",
        walls.len() as f64 / walls.iter().sum::<f64>(),
    );
    set_unit_times(&mut metrics, &walls);
    set_rss(&mut metrics);
    metrics.set(
        "setup_s",
        setup_secs(|| build_run(shape, opts.seed, SchedulerKind::default(), shape.wan, None))?,
    );
    Ok(Measured {
        attempted: checker.attempted,
        failed: checker.failed,
        consistent: checker.consistent,
        metrics,
        log: checker.log,
    })
}

fn span_median(samples: &[RunSample], f: impl Fn(&LayerTally) -> u64) -> f64 {
    let xs: Vec<f64> = samples.iter().map(|s| f(&s.tally) as f64 * 1e-9).collect();
    median(&xs)
}

/// Per-layer metrics of a single-run workload: untraced and traced arms
/// alternate, and on `wan-partition` a traced arm with observability off
/// isolates the observability layer.
fn trace_runs(opts: &Options) -> Result<Measured, String> {
    let shape = RunShape::of(opts.workload, opts.size);
    let mut arms = vec![Arm::Plain, Arm::Traced { obs: shape.wan }];
    if shape.wan {
        arms.push(Arm::Traced { obs: false });
    }
    let mut checker = Checker::new();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut traced_off = Vec::new();
    let budget = Budget::new(opts.seconds, 2);
    let mut rounds = 0;
    while budget.more(rounds) {
        rounds += 1;
        for &arm in &arms {
            let sample = run_arm(opts, shape, arm)?;
            let Some(sample) = checker.check(arm, sample) else {
                continue;
            };
            match arm {
                Arm::Plain => plain.push(sample.wall),
                Arm::Traced { obs } if obs == shape.wan => traced.push(sample),
                Arm::Traced { .. } => traced_off.push(sample.wall),
            }
        }
    }
    if plain.is_empty() || traced.is_empty() || (shape.wan && traced_off.is_empty()) {
        return Err(no_success(opts.workload));
    }
    let first = &traced[0];
    let counts_repeat = traced.iter().all(|s| {
        let (a, b) = (&s.tally, &first.tally);
        a.protocols.calls == b.protocols.calls
            && a.net.calls == b.net.calls
            && a.attacks.calls == b.attacks.calls
            && a.net_drops == b.net_drops
            && a.net_queued == b.net_queued
            && a.attack_drops == b.attack_drops
    });
    let wall = median(&traced.iter().map(|s| s.wall).collect::<Vec<_>>());
    let protocols = span_median(&traced, |t| t.protocols.nanos);
    let net = span_median(&traced, |t| t.net.nanos);
    let attacks = span_median(&traced, |t| t.attacks.nanos);
    let obs = if shape.wan {
        wall - median(&traced_off)
    } else {
        0.0
    };
    let engine = wall - protocols - net - attacks - obs;
    let events = first.result.events_processed as f64;
    let allocs = median(&traced.iter().map(|s| s.allocs as f64).collect::<Vec<_>>());
    let t = &first.tally;
    let r = &first.result;
    let mut metrics = Metrics::default();
    metrics.set("trace.wall_s", wall);
    metrics.set("trace.overhead", wall / median(&plain) - 1.0);
    metrics.set("protocols.calls", t.protocols.calls as f64);
    metrics.set("protocols.self_s", protocols);
    metrics.set("net.calls", t.net.calls as f64);
    metrics.set("net.self_s", net);
    metrics.set("net.drops", t.net_drops as f64);
    metrics.set("net.queued", t.net_queued as f64);
    metrics.set("attacks.calls", t.attacks.calls as f64);
    metrics.set("attacks.self_s", attacks);
    metrics.set("attacks.drops", t.attack_drops as f64);
    metrics.set("obs.self_s", obs);
    metrics.set("engine.self_s", engine);
    metrics.set("engine.ns_per_event", engine / events * 1e9);
    metrics.set("engine.allocs", allocs);
    metrics.set("engine.allocs_per_event", allocs / events);
    metrics.set("engine.cancelled_timers", r.skipped_cancelled_timers as f64);
    metrics.set("scheduler.peak_resident", r.scheduler.peak_resident as f64);
    metrics.set("scheduler.peak_live", r.queue_high_water as f64);
    metrics.set(
        "scheduler.tombstones_popped",
        r.scheduler.tombstones_popped as f64,
    );
    metrics.set(
        "scheduler.cancelled_in_place",
        r.scheduler.cancelled_in_place as f64,
    );
    zero(&mut metrics, SWEEP_ONLY_LAYERS);
    Ok(Measured {
        attempted: checker.attempted,
        failed: checker.failed,
        consistent: checker.consistent && counts_repeat,
        metrics,
        log: checker.log,
    })
}

// ---------------------------------------------------------------------------
// The sweep.

/// Units in one sweep pass at `size`.
fn sweep_units(size: Size) -> usize {
    match size {
        Size::Full => 4000,
        Size::Smoke => 40,
    }
}

/// Generates the sweep's scenarios: the range's setup step.
fn sweep_specs(first: u64, units: usize) -> Vec<ScenarioSpec> {
    (first..first + units as u64)
        .map(|s| {
            ScenarioSpec::generate(
                s,
                &ProtocolKind::extended(),
                500,
                48,
                false,
                FaultPreset::Moderate,
            )
        })
        .collect()
}

/// A one-cell campaign manifest over the sweep's seed range; its protocol,
/// delay and net axes are labels for the generated mix.
fn sweep_manifest(first: u64, units: usize) -> Manifest {
    Manifest {
        protocols: vec!["extended".to_string()],
        nodes: vec![1],
        delays: vec!["generated".to_string()],
        nets: vec!["generated".to_string()],
        attacks: vec![500],
        seeds: (first, first + units as u64),
        checkpoint_every: CHECKPOINT_EVERY,
        max_actions: 48,
    }
}

/// Where the sweep's traced pass spends its time.
#[derive(Debug, Clone, Copy, Default)]
struct SweepSplit {
    /// `ScenarioSpec::generate` over the range.
    generate_s: f64,
    /// `run_unit`, summed.
    run_unit_s: f64,
    /// `Checkpoint::save_atomic` calls.
    save_calls: u64,
    /// `Checkpoint::save_atomic`, summed.
    save_s: f64,
    /// Bytes of checkpoint written, summed over saves.
    bytes_written: u64,
    /// `final_report` plus its serialisation.
    report_s: f64,
    /// Allocations during the pass.
    allocs: u64,
}

/// The outcome of one sweep pass.
#[derive(Debug)]
struct SweepPass {
    /// Host seconds of the steady part: units, fold, saves, report.
    wall: f64,
    /// Host seconds of scenario generation.
    setup: f64,
    /// Host seconds per unit.
    unit_secs: Vec<f64>,
    /// Engine events over all units.
    events: u64,
    /// Units that panicked or could not be built.
    failed: u64,
    /// Units that violated an oracle (and were shrunk).
    violations: u64,
    /// FNV-1a digest of the final report's bytes.
    digest: u64,
    /// The traced split, for a traced pass.
    split: Option<SweepSplit>,
}

fn record_of(
    index: usize,
    run: Result<UnitRun, String>,
    checkpoint: &mut Checkpoint,
) -> UnitRecord {
    let run = match run {
        Ok(run) => run,
        Err(message) => {
            return UnitRecord {
                index,
                outcome: UnitOutcome::Panicked { message },
                events: 0,
                decisions: 0,
                honest_messages: 0,
                latency_micros: None,
            }
        }
    };
    if let Some(obs) = &run.observability {
        for h in &obs.delivery_latency {
            checkpoint.delivery_latency.merge(h);
        }
        for h in &obs.decision_interval {
            checkpoint.decision_interval.merge(h);
        }
    }
    let outcome = match (run.panic, run.violations.is_empty()) {
        (Some(message), _) => UnitOutcome::Panicked { message },
        (None, true) => UnitOutcome::Clean,
        (None, false) => UnitOutcome::Violated {
            violations: run.violations,
            repro: None,
        },
    };
    UnitRecord {
        index,
        outcome,
        events: run.events_processed,
        decisions: run.decisions,
        honest_messages: run.honest_messages,
        latency_micros: run.latency_micros,
    }
}

/// Runs one pass over `units` scenarios from `first`, checkpointing into
/// `dir`. A traced pass also times each layer and counts allocations.
///
/// # Errors
///
/// Returns a message when the checkpoint cannot be written or the report
/// cannot be built.
fn sweep_pass(first: u64, units: usize, dir: &Path, traced: bool) -> Result<SweepPass, String> {
    let body = || -> Result<SweepPass, String> {
        let (specs, setup) = time(|| sweep_specs(first, units));
        let manifest = sweep_manifest(first, units);
        let path = dir.join("checkpoint.json");
        let mut checkpoint = Checkpoint::new(manifest.hash(), (0, 1));
        let mut split = SweepSplit {
            generate_s: setup,
            ..SweepSplit::default()
        };
        let mut unit_secs = Vec::with_capacity(units);
        let (mut events, mut failed, mut violations) = (0, 0, 0);
        let start = Instant::now();
        for (index, spec) in specs.iter().enumerate() {
            let (run, secs) = time(|| run_unit(spec, SchedulerKind::default()));
            unit_secs.push(secs);
            let record = record_of(index, run, &mut checkpoint);
            match record.outcome {
                UnitOutcome::Panicked { .. } => failed += 1,
                UnitOutcome::Violated { .. } => violations += 1,
                UnitOutcome::Clean => {}
            }
            events += record.events;
            checkpoint.records.push(record);
            if (index + 1) % CHECKPOINT_EVERY == 0 || index + 1 == units {
                let (saved, secs) = time(|| checkpoint.save_atomic(&path));
                saved?;
                split.save_calls += 1;
                split.save_s += secs;
                if traced {
                    split.bytes_written += std::fs::metadata(&path)
                        .map_err(|e| format!("cannot stat {}: {e}", path.display()))?
                        .len();
                }
            }
        }
        let (report, report_s) = time(|| final_report(&manifest, &checkpoint).map(|r| r.dump()));
        let report = report?;
        let wall = start.elapsed().as_secs_f64();
        split.run_unit_s = unit_secs.iter().sum();
        split.report_s = report_s;
        Ok(SweepPass {
            wall,
            setup,
            unit_secs,
            events,
            failed,
            violations,
            digest: fnv1a(report.as_bytes()),
            split: traced.then_some(split),
        })
    };
    if traced {
        let (pass, allocs) = alloc::counted(body);
        pass.map(|mut p| {
            if let Some(s) = &mut p.split {
                s.allocs = allocs;
            }
            p
        })
    } else {
        body()
    }
}

/// Checks passes against the first one's report digest.
struct PassChecker {
    digest: Option<u64>,
    attempted: u64,
    failed: u64,
    consistent: bool,
    log: Vec<String>,
}

impl PassChecker {
    fn new() -> PassChecker {
        PassChecker {
            digest: None,
            attempted: 0,
            failed: 0,
            consistent: true,
            log: Vec::new(),
        }
    }

    fn check(&mut self, label: &str, pass: &SweepPass) {
        self.attempted += pass.unit_secs.len() as u64;
        self.failed += pass.failed;
        let digest = *self.digest.get_or_insert(pass.digest);
        let agrees = digest == pass.digest;
        self.consistent &= agrees;
        self.log.push(format!(
            "pass {} {label}: wall_s={:.6} units={} events={} violations={} failed={} \
             agrees={agrees} report_digest={:016x}",
            self.log.len() + 1,
            pass.wall,
            pass.unit_secs.len(),
            pass.events,
            pass.violations,
            pass.failed,
            pass.digest
        ));
    }
}

struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create(root: &Path) -> Result<ScratchDir, String> {
        let dir = root.join(format!("sweep-{}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn measure_sweep(opts: &Options) -> Result<Measured, String> {
    let units = sweep_units(opts.size);
    let first = opts.seed;
    let dir = ScratchDir::create(&opts.scratch)?;
    let mut checker = PassChecker::new();
    let mut passes = Vec::new();
    let budget = Budget::new(opts.seconds, 3);
    while budget.more(passes.len()) {
        let pass = sweep_pass(first, units, &dir.0, false)?;
        checker.check("plain", &pass);
        passes.push(pass);
    }
    let unit_secs: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.unit_secs.iter().copied())
        .collect();
    let mut metrics = Metrics::default();
    metrics.set(
        "wall_s",
        median(&passes.iter().map(|p| p.wall).collect::<Vec<_>>()),
    );
    metrics.set(
        "events_per_s",
        median(
            &passes
                .iter()
                .map(|p| p.events as f64 / p.wall)
                .collect::<Vec<_>>(),
        ),
    );
    metrics.set(
        "units_per_s",
        median(
            &passes
                .iter()
                .map(|p| units as f64 / p.wall)
                .collect::<Vec<_>>(),
        ),
    );
    set_unit_times(&mut metrics, &unit_secs);
    set_rss(&mut metrics);
    metrics.set(
        "setup_s",
        setup_secs(|| Ok::<_, String>(sweep_specs(first, units)))?,
    );
    checker
        .log
        .push(format!("unit samples: {}", unit_secs.len()));
    Ok(Measured {
        attempted: checker.attempted,
        failed: checker.failed,
        consistent: checker.consistent,
        metrics,
        log: checker.log,
    })
}

fn trace_sweep(opts: &Options) -> Result<Measured, String> {
    let units = sweep_units(opts.size);
    let first = opts.seed;
    let dir = ScratchDir::create(&opts.scratch)?;
    let mut checker = PassChecker::new();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let budget = Budget::new(opts.seconds, 2);
    while budget.more(traced.len()) {
        let pass = sweep_pass(first, units, &dir.0, false)?;
        checker.check("plain", &pass);
        plain.push(pass.setup + pass.wall);
        let pass = sweep_pass(first, units, &dir.0, true)?;
        checker.check("traced", &pass);
        traced.push(pass);
    }
    let splits: Vec<SweepSplit> = traced.iter().filter_map(|p| p.split).collect();
    let med = |f: fn(&SweepSplit) -> f64| median(&splits.iter().map(f).collect::<Vec<_>>());
    let wall = median(&traced.iter().map(|p| p.setup + p.wall).collect::<Vec<_>>());
    let generate = med(|s| s.generate_s);
    let run_unit_s = med(|s| s.run_unit_s);
    let save = med(|s| s.save_s);
    let report = med(|s| s.report_s);
    let allocs = med(|s| s.allocs as f64);
    let events = traced[0].events as f64;
    let mut metrics = Metrics::default();
    metrics.set("trace.wall_s", wall);
    metrics.set("trace.overhead", wall / median(&plain) - 1.0);
    metrics.set("simcheck.generate_s", generate);
    metrics.set("simcheck.run_unit_s", run_unit_s);
    metrics.set("simcheck.violations", traced[0].violations as f64);
    metrics.set(
        "campaign.fold_s",
        wall - generate - run_unit_s - save - report,
    );
    metrics.set("campaign.save_calls", splits[0].save_calls as f64);
    metrics.set("campaign.save_s", save);
    metrics.set("campaign.bytes_written", splits[0].bytes_written as f64);
    metrics.set("campaign.report_s", report);
    metrics.set("engine.allocs", allocs);
    metrics.set("engine.allocs_per_event", allocs / events);
    zero(&mut metrics, RUN_ONLY_LAYERS);
    Ok(Measured {
        attempted: checker.attempted,
        failed: checker.failed,
        consistent: checker.consistent,
        metrics,
        log: checker.log,
    })
}

/// Runs the invocation `opts` describes.
///
/// # Errors
///
/// Returns a message when the workload cannot be set up or no op
/// succeeded.
pub fn measure(opts: &Options) -> Result<Measured, String> {
    match (opts.workload, opts.trace) {
        (Workload::Sweep, false) => measure_sweep(opts),
        (Workload::Sweep, true) => trace_sweep(opts),
        (_, false) => measure_runs(opts),
        (_, true) => trace_runs(opts),
    }
}
