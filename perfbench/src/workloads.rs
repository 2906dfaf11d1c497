//! The three workloads and one measured round of each.
//!
//! A round sets up from scratch (instance, plan stream, driver or server),
//! runs the whole plan stream once, and returns the host timings, the
//! simulated outputs and the oracle's verdicts. Host time is read only
//! around calls into the program; the oracle, the storage samples and the
//! bookkeeping run between those reads.

use std::sync::Arc;

use deepsea_core::{
    baselines, DeepSea, DeepSeaConfig, NodeAction, ObsConfig, Observer, ServerConfig, ViewServer,
};
use deepsea_engine::{Catalog, ClusterSim, ExecutionBackend, LogicalPlan, SimBackend};
use deepsea_relation::Table;
use deepsea_storage::{BlockConfig, CostLedger, FaultInjector, NodeConfig, NodeSet, SimFs};
use deepsea_workload::schema::{BigBenchData, InstanceSize, ItemDistribution};
use deepsea_workload::sdss::sdss_like_histogram;
use deepsea_workload::sequences::{fig5_workload, item_domain};

use crate::clock::{now_ns, speed_probe};
use crate::oracle::Oracle;
use crate::trace::{self, Recorder, Shared, TimedBackend, PROCESS_QUERY, SERVER_RUN};

/// Pool cap of `churn`, as a divisor of the base-table bytes (the fig5a
/// `DS-tight` companion's cap).
const CHURN_SMAX_DIVISOR: u64 = 40;
/// Storage nodes and replication factor of `serve`'s sharded file system.
const SERVE_NODES: u32 = 4;
const SERVE_REPLICATION: u32 = 2;
/// A rolling one-node outage moves to the next node every this many commits.
const SERVE_OUTAGE_WINDOW: usize = 5;
/// Logical clients, arrival seed and mean arrival gap (simulated seconds).
const SERVE_CLIENTS: usize = 4;
const SERVE_ARRIVAL_SEED: u64 = 42;
const SERVE_GAP_SECS: f64 = 5.0;
/// Speed probes run after each set-up (about 5 ms).
const SETUP_PROBES: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Reuse,
    Churn,
    Serve,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "reuse" => Some(Self::Reuse),
            "churn" => Some(Self::Churn),
            "serve" => Some(Self::Serve),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::Reuse => "reuse",
            Self::Churn => "churn",
            Self::Serve => "serve",
        }
    }

    /// Queries (tickets, on `serve`) per round.
    pub fn queries(self) -> usize {
        match self {
            Self::Reuse => 800,
            Self::Churn => 60,
            Self::Serve => 400,
        }
    }

    /// Rough host seconds of one untraced round on a 2-core x86-64 box; a
    /// run of `--seconds S` measures `ceil(S / round_secs)` rounds.
    pub fn round_secs(self) -> f64 {
        match self {
            Self::Reuse => 5.1,
            Self::Churn => 3.5,
            Self::Serve => 4.0,
        }
    }

    pub fn config(self, catalog: &Catalog) -> DeepSeaConfig {
        let reuse = baselines::deepsea().with_phi(0.05);
        match self {
            Self::Reuse | Self::Serve => reuse,
            Self::Churn => reuse.with_smax(catalog.total_base_bytes() / CHURN_SMAX_DIVISOR),
        }
    }
}

/// The generated inputs of a round.
pub struct Inputs {
    pub catalog: Arc<Catalog>,
    pub plans: Vec<LogicalPlan>,
    pub generate_ns: u64,
    pub plans_ns: u64,
}

impl Inputs {
    /// The SDSS-histogram "100 GB" instance drawn from `seed`, and the
    /// first `queries` plans of the experiments' fig5 stream. The stream is
    /// the same for every seed: a different stream changes the view-hit
    /// ratio and the queueing by more than any bound could absorb.
    pub fn generate(seed: u64, queries: usize) -> Self {
        let t0 = now_ns();
        let (lo, hi) = item_domain();
        let dist = ItemDistribution::Histogram(sdss_like_histogram(lo, hi));
        let catalog = Arc::new(BigBenchData::generate(InstanceSize::Gb100, &dist, seed).catalog);
        let t1 = now_ns();
        let plans = fig5_workload(queries, crate::DEFAULT_SEED);
        let t2 = now_ns();
        Self {
            catalog,
            plans,
            generate_ns: t1 - t0,
            plans_ns: t2 - t1,
        }
    }
}

/// How a round is instrumented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// No spans and the observer off: the end-to-end numbers.
    Untraced,
    /// Spans around every call into each layer.
    Traced,
    /// The program's own observer on (metrics, spans, events).
    Observed,
}

/// The simulated outputs of a round. Every pass over the same inputs must
/// reproduce them bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimDigest {
    /// Per query: `elapsed_secs` bits (on `serve`: committed query and
    /// creation seconds, then the client latency).
    pub secs_bits: Vec<u64>,
    /// Pool bytes after each query (on `serve`: at each snapshot publish).
    pub pool_bytes: Vec<u64>,
    pub ledger: CostLedger,
    /// `ServeReport::state_digest` on `serve`.
    pub state_digest: u64,
}

/// Per-round counters copied from each `QueryOutcome::trace`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreCounters {
    pub matching_roots: u64,
    pub matching_hits: u64,
    pub selection_considered: u64,
    pub new_fragments: u64,
    pub view_answers: u64,
}

/// What one round measured.
pub struct Round {
    pub setup_ns: u64,
    pub setup_probe_ns: Vec<u64>,
    pub generate_ns: u64,
    pub plans_ns: u64,
    /// Host time per query: `process_query` on `reuse`/`churn`; on `serve`
    /// the time from one commit's start to the next (the commit plus the
    /// reads scheduled before the next one).
    pub query_ns: Vec<u64>,
    /// Host ns of the speed probe run next to each query (see
    /// `clock::speed_probe`).
    pub probe_ns: Vec<u64>,
    pub sim: SimDigest,
    pub sim_total_s: f64,
    /// Simulated client latency per query.
    pub sim_latency_s: Vec<f64>,
    pub pool_peak_bytes: u64,
    pub live_files: u64,
    /// Answers handed out, and those that errored or disagreed with the
    /// oracle.
    pub answers: u64,
    pub wrong: u64,
    pub errors: u64,
    pub first_wrong: Option<String>,
    pub core: CoreCounters,
    /// `serve`: divergent reads, degraded reads and the largest epoch lag.
    pub server: [u64; 3],
    /// The timing decorators' record (traced pass, and `serve`).
    pub recorder: Option<Recorder>,
    /// Observer spans and events (observed pass).
    pub obs_counts: Option<(u64, u64)>,
}

impl Round {
    fn new(setup: &Setup) -> Self {
        Self {
            setup_ns: setup.setup_ns,
            setup_probe_ns: setup.setup_probe_ns.clone(),
            generate_ns: setup.inputs.generate_ns,
            plans_ns: setup.inputs.plans_ns,
            query_ns: Vec::new(),
            probe_ns: Vec::new(),
            sim: SimDigest {
                secs_bits: Vec::new(),
                pool_bytes: Vec::new(),
                ledger: CostLedger::default(),
                state_digest: 0,
            },
            sim_total_s: 0.0,
            sim_latency_s: Vec::new(),
            pool_peak_bytes: 0,
            live_files: 0,
            answers: 0,
            wrong: 0,
            errors: 0,
            first_wrong: None,
            core: CoreCounters::default(),
            server: [0; 3],
            recorder: None,
            obs_counts: None,
        }
    }

    fn judge(
        &mut self,
        oracle: Option<&mut Oracle>,
        plan: &LogicalPlan,
        fp: &[String],
        what: String,
    ) {
        self.answers += 1;
        if oracle.is_some_and(|o| !o.agrees(plan, fp)) {
            self.wrong += 1;
            self.first_wrong.get_or_insert(what);
        }
    }
}

fn take_recorder(rec: Shared) -> Recorder {
    Arc::try_unwrap(rec)
        .map_err(|_| "recorder still shared after the round")
        .expect("every timing decorator is dropped with its driver")
        .into_inner()
        .expect("recorder lock poisoned by a panicking decorator")
}

/// The rolling one-node outage: node `w % NODES` is down from commit
/// `w * WINDOW` until the next window starts, so exactly one node is down
/// at a time.
fn rolling_outage(n: usize) -> Vec<(usize, u32, NodeAction)> {
    let mut schedule = Vec::new();
    for w in 0..n.div_ceil(SERVE_OUTAGE_WINDOW) {
        let node = (w as u32) % SERVE_NODES;
        if w > 0 {
            let prev = (w as u32 - 1) % SERVE_NODES;
            schedule.push((w * SERVE_OUTAGE_WINDOW, prev, NodeAction::Up));
        }
        schedule.push((w * SERVE_OUTAGE_WINDOW, node, NodeAction::Down));
    }
    schedule
}

enum Driver {
    /// `reuse`, `churn`: one closed-loop client calling `process_query`.
    Serial(DeepSea),
    /// `serve`: `ViewServer::run` on the deterministic scheduler.
    Server(ViewServer),
}

/// A workload ready to run: inputs generated, driver or server built.
pub struct Setup {
    inputs: Inputs,
    driver: Driver,
    fs: Arc<SimFs<Table>>,
    /// The timing decorators' shared record: on the traced pass, and always
    /// on `serve`, where it marks commit boundaries and samples the pool.
    rec: Option<Shared>,
    obs: Observer,
    pass: Pass,
    /// Host time of generation plus construction.
    pub setup_ns: u64,
    /// Speed probes run right after set-up, to scale `setup_ns`.
    pub setup_probe_ns: Vec<u64>,
}

/// Set up one round of `w`: generate the instance and plan stream, then
/// construct the driver (or server) over a fresh `SimFs`.
pub fn set_up(w: Workload, seed: u64, queries: usize, pass: Pass) -> Setup {
    let inputs = Inputs::generate(seed, queries);
    let t0 = now_ns();
    let config = w.config(&inputs.catalog);
    let cluster = ClusterSim::paper_default();
    let fs = Arc::new(match w {
        Workload::Serve => SimFs::with_cluster(
            BlockConfig::default(),
            cluster.weights,
            FaultInjector::disabled(),
            NodeSet::new(NodeConfig::new(SERVE_NODES, SERVE_REPLICATION)),
        ),
        _ => SimFs::new(BlockConfig::default(), cluster.weights),
    });
    let sim: Box<dyn ExecutionBackend> = Box::new(SimBackend::new(cluster));
    let traced = pass == Pass::Traced;
    let serve = w == Workload::Serve;
    let rec = (traced || serve).then(|| trace::shared(traced, serve));
    let backend: Box<dyn ExecutionBackend> = match &rec {
        Some(rec) => Box::new(TimedBackend::writer(
            sim,
            Arc::clone(rec),
            serve.then(|| Arc::clone(&fs)),
        )),
        None => sim,
    };
    let obs = match pass {
        Pass::Observed => Observer::new(ObsConfig::on()),
        _ => Observer::off(),
    };
    let ds = DeepSea::with_backend(
        Arc::clone(&inputs.catalog),
        Arc::clone(&fs),
        backend,
        config,
    )
    .with_observer(obs.clone());
    let driver = match w {
        Workload::Serve => Driver::Server(ViewServer::new(
            ds,
            ServerConfig {
                clients: SERVE_CLIENTS,
                seed: SERVE_ARRIVAL_SEED,
                mean_gap_secs: SERVE_GAP_SECS,
                node_schedule: rolling_outage(inputs.plans.len()),
                ..ServerConfig::default()
            },
        )),
        _ => Driver::Serial(ds),
    };
    let setup_ns = inputs.generate_ns + inputs.plans_ns + (now_ns() - t0);
    let setup_probe_ns = (0..SETUP_PROBES).map(|_| speed_probe()).collect();
    Setup {
        inputs,
        driver,
        fs,
        rec,
        obs,
        pass,
        setup_ns,
        setup_probe_ns,
    }
}

impl Setup {
    /// Run the whole plan stream once, judging every answer handed out
    /// against `oracle` when one is given.
    pub fn run(self, oracle: Option<&mut Oracle>) -> Result<Round, String> {
        let mut round = Round::new(&self);
        match self.driver {
            Driver::Serial(mut ds) => {
                run_serial(
                    &mut ds,
                    &self.inputs.plans,
                    self.rec.as_ref(),
                    oracle,
                    &mut round,
                );
            }
            Driver::Server(mut server) => {
                let rec = self.rec.as_ref().expect("serve always has a recorder");
                let oracle = oracle.ok_or("serve needs the oracle")?;
                run_serve(
                    &mut server,
                    &self.inputs.plans,
                    rec,
                    self.pass,
                    oracle,
                    &mut round,
                )?;
            }
        }
        round.sim.ledger = self.fs.ledger();
        round.live_files = self.fs.file_count() as u64;
        round.pool_peak_bytes = round.sim.pool_bytes.iter().copied().max().unwrap_or(0);
        round.recorder = self.rec.map(take_recorder);
        round.obs_counts = (self.pass == Pass::Observed).then(|| {
            (
                self.obs.spans_snapshot().len() as u64,
                self.obs.events_snapshot().len() as u64,
            )
        });
        Ok(round)
    }
}

fn run_serial(
    ds: &mut DeepSea,
    plans: &[LogicalPlan],
    rec: Option<&Shared>,
    mut oracle: Option<&mut Oracle>,
    round: &mut Round,
) {
    for (i, plan) in plans.iter().enumerate() {
        let start = now_ns();
        let span = rec.map(|r| trace::lock(r).open(PROCESS_QUERY, start));
        let out = ds.process_query(plan);
        let end = now_ns();
        if let (Some(r), Some(idx)) = (rec, span) {
            trace::lock(r).close(idx, end);
        }
        round.query_ns.push(end - start);
        round.probe_ns.push(speed_probe());
        round.sim.pool_bytes.push(ds.pool_bytes());
        match out {
            Ok(out) => {
                round.sim.secs_bits.push(out.elapsed_secs.to_bits());
                round.sim_total_s += out.elapsed_secs;
                round.sim_latency_s.push(out.elapsed_secs);
                let via = out.used_view.as_deref().unwrap_or("base tables");
                let what = format!("query {} via {via}", i + 1);
                round.judge(oracle.as_deref_mut(), plan, &out.result.fingerprint(), what);
                let t = &out.trace;
                round.core.matching_roots += t.matching.roots as u64;
                round.core.matching_hits += t.matching.hits as u64;
                round.core.selection_considered += t.selection.considered as u64;
                round.core.new_fragments += t.candidates.new_fragments as u64;
                round.core.view_answers += u64::from(out.used_view.is_some());
            }
            Err(e) => {
                round.answers += 1;
                round.errors += 1;
                round.sim.secs_bits.push(u64::MAX);
                round
                    .first_wrong
                    .get_or_insert(format!("query {} failed: {e}", i + 1));
            }
        }
    }
}

fn run_serve(
    server: &mut ViewServer,
    plans: &[LogicalPlan],
    rec: &Shared,
    pass: Pass,
    oracle: &mut Oracle,
    round: &mut Round,
) -> Result<(), String> {
    let n = plans.len();
    let start = now_ns();
    let span = (pass == Pass::Traced).then(|| trace::lock(rec).open(SERVER_RUN, start));
    let report = server.run(plans);
    let end = now_ns();
    if let Some(idx) = span {
        trace::lock(rec).close(idx, end);
    }
    let report = report.map_err(|e| format!("ViewServer::run failed: {e}"))?;
    {
        // Speed probes ran inside the run, each just before a commit
        // started: take them out of each ticket's time.
        let rec = trace::lock(rec);
        let starts = &rec.query_starts_ns;
        let probes = &rec.probe_ns_before_query;
        if starts.len() != n || probes.len() != n {
            return Err(format!("{} commits marked for {n} tickets", starts.len()));
        }
        let next_probe = probes.iter().skip(1).chain(std::iter::once(&0));
        round.query_ns = starts
            .iter()
            .zip(starts.iter().skip(1).chain(std::iter::once(&end)))
            .zip(next_probe)
            .map(|((a, b), p)| b - a - p)
            .collect();
        round.sim.pool_bytes = rec.pool_samples.clone();
        round.probe_ns = probes.clone();
    }
    for (r, plan) in report.records.iter().zip(plans) {
        let t = r.ticket + 1;
        let via = r.read_used_view.as_deref().unwrap_or("base tables");
        let what = format!("read of ticket {t} via {via}");
        round.judge(Some(&mut *oracle), plan, &r.read_fingerprint, what);
        let via = r.committed_used_view.as_deref().unwrap_or("base tables");
        let what = format!("commit of ticket {t} via {via}");
        round.judge(Some(&mut *oracle), plan, &r.committed_fingerprint, what);
        round.sim_total_s += r.committed_query_secs + r.committed_creation_secs;
        round.sim_latency_s.push(r.latency_secs);
        round.sim.secs_bits.extend([
            r.committed_query_secs.to_bits(),
            r.committed_creation_secs.to_bits(),
            r.latency_secs.to_bits(),
        ]);
        round.core.view_answers += u64::from(r.committed_used_view.is_some());
    }
    round.sim.state_digest = report.state_digest;
    round.server = [
        u64::from(report.divergent_reads),
        report.degraded_reads,
        report.max_epoch_lag,
    ];
    Ok(())
}
